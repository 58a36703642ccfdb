//! Golden encoded bytes over the fig-10 grid: every dataset × outer
//! encoding × inner operator, pinned as the CRC-32 of the pipeline
//! stream, plus the BOS block-stream driver at one and two threads.
//!
//! Refactors of the encode path must leave these constants untouched:
//! a changed checksum means a changed wire format (or a changed
//! solver decision), which is never a side effect a refactor may have.
//! On a mismatch the test prints the whole recomputed table, so a
//! deliberate format change can paste it back in one step.

use bitpack::codec::encode_blocks_parallel;
use bos::{BosCodec, SolverKind};
use datasets::all_datasets;
use encodings::{OuterKind, PackerKind, Pipeline};
use tsfile::crc::crc32;

/// Values per dataset: four default-size blocks.
const N: usize = 4096;

/// `crc32(Pipeline::encode)` per dataset and outer encoding, one entry
/// per operator in `PackerKind::ALL` order.
#[rustfmt::skip]
const PIPELINE_CRCS: &[(&str, &str, [u32; 9])] = &[
    ("EE", "RLE", [0x1d530cbd, 0xdbfaad4a, 0x5bd21258, 0x5bd21258, 0xd06b43ad, 0x2848e315, 0xf6be215f, 0xf6be215f, 0x955fa8c6]),
    ("EE", "SPRINTZ", [0x03bc5dab, 0x8e4d1318, 0x27bda3ef, 0x27bda3ef, 0xf601643f, 0x4c9ae4b9, 0x776d548e, 0x776d548e, 0x84ecf880]),
    ("EE", "TS2DIFF", [0xdba559df, 0xaeaa9233, 0x33752703, 0x33752703, 0xe045e88f, 0x9a7331ca, 0xe984c79b, 0xe984c79b, 0xe609e459]),
    ("MT", "RLE", [0x1b236b95, 0x91eca14f, 0x9a14169c, 0x9a14169c, 0xea71c956, 0x2009a0b4, 0xc4d894d9, 0xc4d894d9, 0x77b09969]),
    ("MT", "SPRINTZ", [0x2f3c4814, 0x3e660e5b, 0xcf4bb30d, 0xcf4bb30d, 0x92d80f76, 0x06afd4ae, 0xe4080f31, 0xe4080f31, 0x654649c2]),
    ("MT", "TS2DIFF", [0x877e7cc1, 0xb58b2596, 0x7b0d068f, 0x7b0d068f, 0x9994d197, 0x099e03f7, 0x29d566c3, 0x29d566c3, 0x88668a27]),
    ("VC", "RLE", [0x80553028, 0x5f36d22b, 0x1098c43f, 0xde94b3db, 0xb3801b3f, 0xc23e6d91, 0xcb8ca164, 0x86595d98, 0xb3d2836a]),
    ("VC", "SPRINTZ", [0x6acb150c, 0xefb74659, 0x59429060, 0x59429060, 0xd1ee0df0, 0x6cfe64a4, 0xfde3113e, 0xfde3113e, 0xf277791b]),
    ("VC", "TS2DIFF", [0x7feb7846, 0xf700bf48, 0xc1ac138b, 0xc1ac138b, 0xbbc0a90c, 0x96624fb7, 0x7c6927bc, 0x7c6927bc, 0x1ddbc205]),
    ("CS", "RLE", [0x4249095a, 0xeea4659b, 0xc4b25c72, 0x2acdd7da, 0x46b6a668, 0xd1c4ebf8, 0x62b5f126, 0x62b5f126, 0x7fe4c7f5]),
    ("CS", "SPRINTZ", [0x961ba467, 0x9237650f, 0x9ffdc44e, 0x9ffdc44e, 0x0a6b0c35, 0x2dd84ef6, 0xc07bc022, 0xc07bc022, 0x99f5b95e]),
    ("CS", "TS2DIFF", [0xa61f0562, 0x69d38ebc, 0x41e22183, 0x41e22183, 0x6d954c8e, 0x5e1c5adb, 0x6665a0c5, 0x6665a0c5, 0x8bceccdd]),
    ("TC", "RLE", [0x3df75c75, 0x770cee76, 0x6056b57f, 0xd9481e7e, 0x26a1e9a7, 0xb39a4bbd, 0x042e3143, 0x154bee07, 0xdcfacf6c]),
    ("TC", "SPRINTZ", [0xae59ba0b, 0x1c3945b4, 0x71d7bc22, 0x71d7bc22, 0x5bb7c4cd, 0x45c60da6, 0x87f8f022, 0x87f8f022, 0xd34072b3]),
    ("TC", "TS2DIFF", [0xe70ff0fd, 0x5a762d3e, 0x7320ac55, 0x7320ac55, 0xbef2b774, 0x174f4248, 0x166ad7bf, 0x166ad7bf, 0xd4fdc0a6]),
    ("TT", "RLE", [0x5e38b410, 0xe7a2ff49, 0x023f4cb1, 0xbe6d6ea1, 0xe04622b9, 0x5697eb6d, 0xcebaaecc, 0xcebaaecc, 0x806902c1]),
    ("TT", "SPRINTZ", [0x034160dc, 0x2a94c28c, 0x6b79b8d3, 0x6b79b8d3, 0x8c7458fe, 0x52e4a6a1, 0x94425d8b, 0x94425d8b, 0xea38116e]),
    ("TT", "TS2DIFF", [0x1f9d63be, 0xf8cc4375, 0xe903af35, 0xe903af35, 0x6e2df865, 0xeb790668, 0x539faaa0, 0x539faaa0, 0xb190328f]),
    ("YE", "RLE", [0x725daac6, 0x286d2fcb, 0x9f3d8a74, 0x9f3d8a74, 0x6b0deb8c, 0x4bfbe213, 0xa12634cc, 0xa12634cc, 0x270f4e35]),
    ("YE", "SPRINTZ", [0xe10f7c08, 0x28ef17fd, 0x43019ed1, 0x43019ed1, 0xce1b4d0b, 0x0850dbf6, 0x84bd8ef3, 0x84bd8ef3, 0x9c903b3b]),
    ("YE", "TS2DIFF", [0x4ee881b0, 0xb0d59c92, 0x8a8fe284, 0x8a8fe284, 0x00b930d4, 0xddc8d3fa, 0x175ceb3a, 0x175ceb3a, 0x5dc3244c]),
    ("GM", "RLE", [0xd54af566, 0xde7bc943, 0x4727374e, 0x4727374e, 0xdd66bad0, 0x72534424, 0x71450722, 0x71450722, 0xb0ac14ac]),
    ("GM", "SPRINTZ", [0x4ceb4736, 0xf4410856, 0x5b0a9033, 0x5b0a9033, 0x70fdc05c, 0x2d0fe008, 0xa2dcc67c, 0xa2dcc67c, 0x13a702e0]),
    ("GM", "TS2DIFF", [0x499af6ec, 0xc6e354dc, 0xcf2fcdc7, 0xcf2fcdc7, 0xd2b99c6a, 0x9c1d7fed, 0x791ef472, 0x791ef472, 0xff5cf85c]),
    ("UE", "RLE", [0x260e116a, 0x36ee9bea, 0xa6e65598, 0xd9bd431c, 0x0454c018, 0x2685b074, 0xa9aa4802, 0xa9aa4802, 0x5eb97469]),
    ("UE", "SPRINTZ", [0x9a130228, 0x50c12d27, 0x1702d6bf, 0x1702d6bf, 0xe65bba13, 0x4a4d6625, 0xeb2c815c, 0xeb2c815c, 0x4611495b]),
    ("UE", "TS2DIFF", [0x713fda55, 0x059b9ade, 0x8d23ab3a, 0x8d23ab3a, 0x30152d05, 0xbb1c1538, 0xfe48967b, 0xfe48967b, 0x00db992e]),
    ("CV", "RLE", [0x4da46deb, 0x587c7afa, 0xc24cd10b, 0xc24cd10b, 0x5b061736, 0x44e78626, 0xa0dcfb61, 0xa0dcfb61, 0xde7deced]),
    ("CV", "SPRINTZ", [0x666e28a4, 0x8ec70c46, 0x744241e9, 0x744241e9, 0x7e044dea, 0x5b46fee8, 0x174fcc30, 0x174fcc30, 0x2130eff8]),
    ("CV", "TS2DIFF", [0xf448dd3a, 0x35c76e42, 0xda6d16dc, 0xda6d16dc, 0x8b56fa8b, 0x50c239cf, 0xde788187, 0xde788187, 0xd2054371]),
    ("TF", "RLE", [0xb578eb13, 0x83134731, 0x4ceef901, 0x43aa07c9, 0x2f484827, 0xf24b50bd, 0x6db2b76a, 0x7b357f81, 0xabc4befb]),
    ("TF", "SPRINTZ", [0x2675404b, 0x247b60dc, 0x0b7816d0, 0x0b7816d0, 0xd048e3e2, 0x9a6b7fa4, 0x32a5eee3, 0x32a5eee3, 0xe36f8340]),
    ("TF", "TS2DIFF", [0x5ae01df5, 0x10ebd574, 0x0de5760c, 0x0de5760c, 0x9bc16f97, 0xab3c4e36, 0xfc42ac1f, 0xfc42ac1f, 0x721a06d0]),
    ("NS", "RLE", [0xd297e18e, 0xf86bab0b, 0xb540a153, 0xb540a153, 0x65a29c08, 0x8b79d224, 0x9d33c7f8, 0x9df4bd12, 0xbad48448]),
    ("NS", "SPRINTZ", [0x799fd97a, 0x938c7fa0, 0xf2ff5623, 0xf2ff5623, 0x92fabe47, 0xdc20a79e, 0x6b6ae969, 0x6b6ae969, 0xaff3de2c]),
    ("NS", "TS2DIFF", [0x388d9308, 0xf2fd9712, 0x8c99de2b, 0x8c99de2b, 0xc5310292, 0xdde4d0d7, 0x07774612, 0x07774612, 0xb70df0c2]),
];

/// `crc32(encode_blocks_parallel)` per dataset for BOS-B and BOS-M at
/// the default block size.
#[rustfmt::skip]
const DRIVER_CRCS: &[(&str, [u32; 2])] = &[
    ("EE", [0x55ef381e, 0xd1d25cad]),
    ("MT", [0x5eff5c49, 0x90ebd2fe]),
    ("VC", [0x977e5e99, 0x2ef56bc0]),
    ("CS", [0x396afe3e, 0xd53e185b]),
    ("TC", [0x8dd75e7d, 0xd0ba4a2b]),
    ("TT", [0xc48fd13a, 0x06f7b221]),
    ("YE", [0xa487810d, 0x1162644e]),
    ("GM", [0x7549c3cb, 0x952d8aa5]),
    ("UE", [0xd1a1f50a, 0x589fc7d6]),
    ("CV", [0xfc42216e, 0x8023cc03]),
    ("TF", [0x461560ac, 0xb353c1f3]),
    ("NS", [0x4ec07007, 0x519f6330]),
];

fn encode(p: &Pipeline, values: &[i64]) -> Vec<u8> {
    let mut out = Vec::new();
    p.encode(values, &mut out);
    out
}

fn encode_parallel(p: &Pipeline, values: &[i64], threads: usize) -> Vec<u8> {
    let mut out = Vec::new();
    p.encode_parallel(values, threads, &mut out)
        .expect("pipeline encode does not panic");
    out
}

fn driver_crc(kind: SolverKind, values: &[i64], threads: usize) -> u32 {
    let mut out = Vec::new();
    encode_blocks_parallel(
        &BosCodec::new(kind),
        values,
        Pipeline::DEFAULT_BLOCK,
        threads,
        &mut out,
    )
    .expect("BOS encode does not panic");
    crc32(&out)
}

#[test]
fn pipeline_bytes_match_golden_crcs_sequential_and_parallel() {
    let mut table = Vec::new();
    for d in all_datasets(N) {
        let values = d.as_scaled_ints();
        for outer in OuterKind::ALL {
            let mut crcs = [0u32; 9];
            for (slot, packer) in crcs.iter_mut().zip(PackerKind::ALL) {
                let p = Pipeline::new(outer, packer);
                let seq = encode(&p, &values);
                for threads in [2, 3] {
                    assert!(
                        encode_parallel(&p, &values, threads) == seq,
                        "{} {} threads={threads}: parallel bytes differ from sequential",
                        d.abbr,
                        p.label()
                    );
                }
                *slot = crc32(&seq);
            }
            table.push((d.abbr, outer.label(), crcs));
        }
    }
    if table != PIPELINE_CRCS {
        let mut src = String::new();
        for (abbr, outer, crcs) in &table {
            let cells: Vec<String> = crcs.iter().map(|c| format!("0x{c:08x}")).collect();
            src.push_str(&format!(
                "    (\"{abbr}\", \"{outer}\", [{}]),\n",
                cells.join(", ")
            ));
        }
        panic!("pipeline bytes changed; recomputed table:\n{src}");
    }
}

#[test]
fn bos_driver_bytes_match_golden_crcs_at_one_and_two_threads() {
    let mut table = Vec::new();
    for d in all_datasets(N) {
        let values = d.as_scaled_ints();
        let mut crcs = [0u32; 2];
        for (slot, kind) in crcs
            .iter_mut()
            .zip([SolverKind::BitWidth, SolverKind::Median])
        {
            let one = driver_crc(kind, &values, 1);
            assert_eq!(
                driver_crc(kind, &values, 2),
                one,
                "{} {}: two-thread stream differs from one-thread",
                d.abbr,
                kind.label()
            );
            *slot = one;
        }
        table.push((d.abbr, crcs));
    }
    if table != DRIVER_CRCS {
        let mut src = String::new();
        for (abbr, [b, m]) in &table {
            src.push_str(&format!("    (\"{abbr}\", [0x{b:08x}, 0x{m:08x}]),\n"));
        }
        panic!("driver bytes changed; recomputed table:\n{src}");
    }
}
