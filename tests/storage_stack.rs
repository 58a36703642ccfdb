//! End-to-end storage-stack integration: datasets → TsFile archive →
//! read-back → query scans, mirroring the paper's deployment story
//! (BOS inside TsFile, §VII; query cost, Figure 11).

use bos_repro::bitpack::codec::encode_blocks_parallel;
use bos_repro::bos::stream::StreamEncoder;
use bos_repro::bos::{BosCodec, SolverKind};
use bos_repro::datasets::{all_datasets, generate};
use bos_repro::query::Scanner;
use bos_repro::tsfile::{EncodingChoice, TsFileReader, TsFileWriter};

#[test]
fn archive_all_datasets_and_read_back() {
    let sets = all_datasets(6_000);
    let mut w = TsFileWriter::new();
    for d in &sets {
        w.add_int_series(
            d.name,
            &d.as_scaled_ints(),
            EncodingChoice::auto_for(&d.as_scaled_ints()),
        )
        .unwrap();
    }
    let bytes = w.finish();
    let raw: usize = sets.iter().map(|d| d.uncompressed_bytes()).sum();
    assert!(
        bytes.len() * 3 < raw,
        "archive {} vs raw {raw}",
        bytes.len()
    );

    let r = TsFileReader::open(&bytes).unwrap();
    assert_eq!(r.series().len(), sets.len());
    for d in &sets {
        assert_eq!(
            r.read_ints(d.name).unwrap(),
            d.as_scaled_ints(),
            "{}",
            d.abbr
        );
    }
}

#[test]
fn bos_archives_are_smaller_than_bp_archives() {
    let sets = all_datasets(6_000);
    let size_with = |enc: EncodingChoice| {
        let mut w = TsFileWriter::new();
        for d in &sets {
            w.add_int_series(d.name, &d.as_scaled_ints(), enc).unwrap();
        }
        w.finish().len()
    };
    let bos = size_with(EncodingChoice::TS2DIFF_BOS);
    let bp = size_with(EncodingChoice::TS2DIFF_BP);
    assert!(bos < bp, "bos {bos} vs bp {bp}");
}

#[test]
fn timed_series_through_the_stack() {
    let values = generate("TF", 8_000).expect("dataset").as_scaled_ints();
    let points: Vec<(i64, i64)> = values
        .iter()
        .enumerate()
        .map(|(i, &v)| (1_700_000_000_000 + (i as i64) * 500, v))
        .collect();
    let mut w = TsFileWriter::new();
    w.add_timed_series("vehicle.fuel", &points, EncodingChoice::TS2DIFF_BOS)
        .unwrap();
    let bytes = w.finish();
    let r = TsFileReader::open(&bytes).unwrap();
    assert_eq!(r.read_timed_series("vehicle.fuel").unwrap(), points);
}

#[test]
fn scanner_answers_match_bruteforce_on_every_dataset() {
    for d in all_datasets(5_000) {
        let ints = d.as_scaled_ints();
        let mut stream = Vec::new();
        StreamEncoder::new(SolverKind::BitWidth, 1024).encode(&ints, &mut stream);
        let scanner = Scanner::open(&stream).unwrap();
        assert_eq!(
            scanner.min().unwrap(),
            ints.iter().copied().min(),
            "{}",
            d.abbr
        );
        assert_eq!(
            scanner.max().unwrap().0,
            ints.iter().copied().max(),
            "{}",
            d.abbr
        );
        assert_eq!(
            scanner.sum().unwrap(),
            ints.iter().map(|&v| v as i128).sum::<i128>(),
            "{}",
            d.abbr
        );
        // A mid-range predicate.
        let lo = ints.iter().copied().min().unwrap_or(0);
        let hi = lo + (ints.iter().copied().max().unwrap_or(0) - lo) / 3;
        assert_eq!(
            scanner.count_in_range(lo, hi).unwrap(),
            ints.iter().filter(|&&v| v >= lo && v <= hi).count(),
            "{}",
            d.abbr
        );
    }
}

#[test]
fn parallel_and_sequential_streams_are_interchangeable() {
    let ints = generate("EE", 20_000).expect("dataset").as_scaled_ints();
    let mut seq = Vec::new();
    StreamEncoder::new(SolverKind::BitWidth, 1024).encode(&ints, &mut seq);
    let mut par = Vec::new();
    encode_blocks_parallel(
        &BosCodec::new(SolverKind::BitWidth),
        &ints,
        1024,
        4,
        &mut par,
    )
    .expect("encode");
    assert_eq!(seq, par);
    let scanner = Scanner::open(&par).unwrap();
    assert_eq!(scanner.materialize().unwrap(), ints);
}

/// Decodes a lowercase hex string.
fn unhex(hex: &str) -> Vec<u8> {
    (0..hex.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).expect("hex"))
        .collect()
}

/// Bytes written by the bytewise table CRC-32 that slicing-by-8 replaced:
/// the TsFile chunk and footer checksums and the manifest frame checksums
/// must still verify, so stores written before the change still open.
#[test]
fn files_and_manifests_written_by_the_bytewise_crc_still_verify() {
    use bos_repro::store::manifest::{decode, Record};

    // One TS2DIFF+BOS-B series "s" of 40 values.
    const TSFILE: &str = "424f53545346000101017300010628432801808080800827010303b5feffff\
        0797ffffff03b4feffff070203028007000e00181c000000000000006dd1b668d1b6685bb4685bb405\
        0000000d00000000000000181c1c14010173082800010648f3c7275700000000000000424f53545346\
        0001";
    let bytes = unhex(TSFILE);
    let expected: Vec<i64> = (0..40)
        .map(|i| if i % 13 == 0 { 1 << 30 } else { 100 + i % 5 })
        .collect();
    let reader = TsFileReader::open(&bytes).expect("footer CRC verifies");
    assert_eq!(reader.read_ints("s").expect("chunk CRC verifies"), expected);

    const MANIFEST: &str = "424f534d414e00010102000025b383fe020200643da81ab601020101f2b29f\
        9002020132bd6d092d030402020001bea1085f040402020001ae7d28ed0501071973caa2";
    let bytes = unhex(MANIFEST);
    let log = decode(&bytes);
    assert!(!log.torn && log.skipped_frames == 0, "every frame verifies");
    assert_eq!(log.valid_bytes, bytes.len());
    assert_eq!(
        log.records,
        vec![
            Record::FileAdded { id: 0, order: 0 },
            Record::FileSealed {
                id: 0,
                records: 100
            },
            Record::FileAdded { id: 1, order: 1 },
            Record::FileSealed { id: 1, records: 50 },
            Record::CompactionBegin {
                inputs: vec![0, 1],
                output: 2
            },
            Record::CompactionCommit {
                inputs: vec![0, 1],
                output: 2
            },
            Record::RetentionDelete { id: 7 },
        ]
    );
}
