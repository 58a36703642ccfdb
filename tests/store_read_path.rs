//! The store's indexed read path against damage and against its oracle.
//!
//! `Store::read_series` reads each chunk through an in-memory index built
//! at open, seal and compaction, with one positioned read per file. Two
//! contracts:
//!
//! 1. Damage that appears after `open` (a flipped payload byte, a
//!    truncated file, a deleted file) is a typed error: no panic, no
//!    partial values. A reopen then quarantines the file as recovery
//!    always has.
//! 2. The index never drifts from the files: after every step of a seeded
//!    random mix of appends, flushes, compactions, retention deletes and
//!    reopens, `read_series` equals the concatenation of the public
//!    whole-file read (`TsFileReader::open` + `read_ints`) over
//!    `live_files()`, and `series_names` lists every indexed series.

use bos_repro::store::{QuarantineReason, Store, StoreError, StoreOptions};
use bos_repro::tsfile::{TsFileError, TsFileReader};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fs;
use std::path::PathBuf;

fn test_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("bos_read_path_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn opts(rotate_records: usize) -> StoreOptions {
    StoreOptions {
        rotate_records,
        compact_min_inputs: 2,
        compact_small_records: 1 << 20,
        threads: 2,
        ..StoreOptions::default()
    }
}

fn series(seed: i64, n: usize) -> Vec<i64> {
    (0..n as i64)
        .map(|i| 1_000 + (i * 7919 + seed * 31) % 211 + if i % 97 == 0 { 1 << 30 } else { 0 })
        .collect()
}

/// A reopened store of two files, each holding series `a` and `b`.
/// Returns the store and the id of the second (later-read) file.
fn two_file_store(name: &str) -> (PathBuf, Store, u64) {
    let dir = test_dir(name);
    let mut store = Store::create(&dir, opts(1 << 20)).expect("create");
    for part in 0..2 {
        store.append("a", &series(part, 1500)).expect("append a");
        store
            .append("b", &series(part + 10, 1500))
            .expect("append b");
        store.flush().expect("flush");
    }
    drop(store);
    let (store, report) = Store::open(&dir, opts(1 << 20)).expect("open");
    assert!(!report.acted(), "{report:?}");
    let files = store.live_files();
    assert_eq!(files.len(), 2);
    let last = files[1].id;
    (dir, store, last)
}

/// Reopens and checks recovery quarantines exactly `id` for `reason`.
fn assert_reopen_quarantines(dir: &PathBuf, id: u64, reason: QuarantineReason) -> Store {
    let (store, report) = Store::open(dir, opts(1 << 20)).expect("reopen");
    let quarantined: Vec<(u64, QuarantineReason)> = report
        .quarantined
        .iter()
        .map(|q| (q.id, q.reason))
        .collect();
    assert_eq!(quarantined, [(id, reason)]);
    assert!(store.live_files().iter().all(|f| f.id != id));
    store
}

#[test]
fn payload_flip_after_open_is_a_checksum_mismatch() {
    let (dir, store, id) = two_file_store("flip");
    let path = store.path_for(id);
    let mut bytes = fs::read(&path).expect("read file");
    let (_, payload) = TsFileReader::open(&bytes)
        .expect("intact")
        .chunk_ranges("a")
        .expect("series a");
    bytes[payload.start + payload.len() / 2] ^= 0x10;
    fs::write(&path, &bytes).expect("damage");

    match store.read_series("a") {
        Err(StoreError::TsFile(TsFileError::ChecksumMismatch { series })) => {
            assert_eq!(series, "a")
        }
        other => panic!("expected a checksum mismatch, got {other:?}"),
    }
    // The other chunk of the same file is intact and still reads.
    let b: Vec<i64> = [series(10, 1500), series(11, 1500)].concat();
    assert_eq!(store.read_series("b").expect("b intact"), b);
    drop(store);

    let store = assert_reopen_quarantines(&dir, id, QuarantineReason::Damaged);
    assert_eq!(store.read_series("a").expect("read"), series(0, 1500));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn truncation_after_open_is_a_typed_error() {
    let (dir, store, id) = two_file_store("truncate");
    let path = store.path_for(id);
    let bytes = fs::read(&path).expect("read file");
    let (chunk, _) = TsFileReader::open(&bytes)
        .expect("intact")
        .chunk_ranges("b")
        .expect("series b");
    let file = fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("open for truncation");
    file.set_len((chunk.start + chunk.len() / 2) as u64)
        .expect("truncate");
    drop(file);

    let err = store.read_series("b").expect_err("torn chunk");
    assert!(
        matches!(err, StoreError::Io { .. } | StoreError::TsFile(_)),
        "{err:?}"
    );
    drop(store);

    let store = assert_reopen_quarantines(&dir, id, QuarantineReason::Damaged);
    assert_eq!(store.read_series("b").expect("read"), series(10, 1500));
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn deletion_after_open_is_an_io_error() {
    let (dir, store, id) = two_file_store("delete");
    fs::remove_file(store.path_for(id)).expect("unlink");

    for name in ["a", "b"] {
        match store.read_series(name) {
            Err(StoreError::Io { path, source }) => {
                assert_eq!(path, store.path_for(id));
                assert_eq!(source.kind(), std::io::ErrorKind::NotFound);
            }
            other => panic!("expected an io error, got {other:?}"),
        }
    }
    drop(store);

    let store = assert_reopen_quarantines(&dir, id, QuarantineReason::Missing);
    assert_eq!(store.read_series("a").expect("read"), series(0, 1500));
    let _ = fs::remove_dir_all(&dir);
}

/// The public whole-file read of `name` over every live file.
fn oracle(store: &Store, name: &str) -> Vec<i64> {
    let mut out = Vec::new();
    for f in store.live_files() {
        let bytes = fs::read(store.path_for(f.id)).expect("live file");
        let reader = TsFileReader::open(&bytes).expect("live file verifies");
        match reader.read_ints(name) {
            Ok(values) => out.extend(values),
            Err(TsFileError::NoSuchSeries(_)) => {}
            Err(e) => panic!("oracle read of {name}: {e}"),
        }
    }
    out
}

const NAMES: [&str; 5] = ["cpu", "disk", "mem", "net", "temp"];

fn assert_index_matches_files(store: &Store, step: &str) {
    for name in NAMES {
        assert_eq!(
            store.read_series(name).expect("read"),
            oracle(store, name),
            "{name} after {step}"
        );
    }
    let mut on_disk: Vec<String> = Vec::new();
    for f in store.live_files() {
        let bytes = fs::read(store.path_for(f.id)).expect("live file");
        let reader = TsFileReader::open(&bytes).expect("live file verifies");
        on_disk.extend(reader.series().iter().map(|s| s.name.clone()));
    }
    for name in &on_disk {
        assert!(store.series_names().contains(name), "{name} after {step}");
    }
}

#[test]
fn index_tracks_every_mutation_and_reopen() {
    let dir = test_dir("index_random");
    let rotate = 150;
    let mut store = Store::create(&dir, opts(rotate)).expect("create");
    let mut rng = StdRng::seed_from_u64(0x5EED_1DE5);
    let mut next: Vec<i64> = vec![0; NAMES.len()];
    // Mutations that changed the live set, per kind: seals (by append or
    // flush), compactions, retention deletes, reopens.
    let mut did = [0usize; 4];
    for step in 0..120 {
        let op = rng.gen_range(0u32..100);
        let label = match op {
            0..=59 => {
                // Append to a random subset, so some series are missing
                // from some files.
                for (s, name) in NAMES.iter().enumerate() {
                    if rng.gen_bool(0.4) {
                        let n = rng.gen_range(1usize..60);
                        let start = next[s];
                        let values: Vec<i64> = (start..start + n as i64)
                            .map(|i| i * (s as i64 + 1) + (i % 7) * 1000)
                            .collect();
                        next[s] += n as i64;
                        if store.append(name, &values).expect("append").is_some() {
                            did[0] += 1;
                        }
                    }
                }
                "append"
            }
            60..=71 => {
                if store.flush().expect("flush").is_some() {
                    did[0] += 1;
                }
                "flush"
            }
            72..=81 => {
                if store.compact().expect("compact").is_some() {
                    did[1] += 1;
                }
                "compact"
            }
            82..=89 => {
                let files = store.live_files();
                if !files.is_empty() {
                    let victim = files[rng.gen_range(0..files.len())].id;
                    assert!(store.retention_delete(victim).expect("retention"));
                    did[2] += 1;
                }
                "retention_delete"
            }
            _ => {
                store.flush().expect("flush before close");
                drop(store);
                let (reopened, report) = Store::open(&dir, opts(rotate)).expect("reopen");
                assert!(!report.acted(), "{report:?}");
                store = reopened;
                did[3] += 1;
                "reopen"
            }
        };
        assert_index_matches_files(&store, &format!("step {step} ({label})"));
    }
    assert!(
        did.iter().all(|&n| n >= 3),
        "every mutation kind ran: {did:?}"
    );
    assert!(
        store.live_files().len() > 1,
        "the mix must leave files live"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// A compaction whose inputs straddle a larger file reads at its oldest
/// input's place: the index must order the output by `(order, id)` as
/// `live_files()` does, before and after a reopen.
#[test]
fn compaction_output_reads_at_its_oldest_inputs_place() {
    let dir = test_dir("compact_order");
    let opts = StoreOptions {
        compact_small_records: 300,
        ..opts(1 << 20)
    };
    let mut store = Store::create(&dir, opts.clone()).expect("create");
    for (name, n) in [("cpu", 100), ("cpu", 1000), ("mem", 100)] {
        store.append(name, &series(n as i64, n)).expect("append");
        store.flush().expect("flush");
    }
    let out = store.compact().expect("compact").expect("two small files");
    let files = store.live_files();
    assert_eq!(
        files[0].id, out,
        "the output takes the oldest input's order"
    );
    assert_index_matches_files(&store, "compaction around a large file");
    drop(store);
    let (store, report) = Store::open(&dir, opts).expect("reopen");
    assert!(!report.acted(), "{report:?}");
    assert_index_matches_files(&store, "reopen");
    let _ = fs::remove_dir_all(&dir);
}
