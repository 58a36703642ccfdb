//! The three workloads, written once against [`Backend`] so the
//! untraced run and the traced replay issue identical operations.
//!
//! All are single-client and closed-loop: the next call is issued when
//! the previous one returns.

use crate::backend::{Backend, StoreBackend};
use crate::data::{self, Series};
use crate::driver::Driver;
use crate::model::Model;
use std::path::Path;
use store::StoreOptions;

/// Values per `append` call; 32 calls fill one 4096-value rotation.
pub const BATCH: usize = 128;
/// Values per series for `ingest` (12 × 50 000 = 600 000 per pass).
pub const INGEST_N: usize = 50_000;
/// Values per series for `scan` (1.2 M values in three large files).
pub const SCAN_N: usize = 100_000;
/// `scan` setup ingests in this many parts, compacting after each.
pub const SCAN_PARTS: usize = 3;
/// Length of each `churn` source series; appends wrap around it. A
/// multiple of [`BATCH`], so no batch straddles the wrap.
pub const CHURN_N: usize = 400 * BATCH;
/// Round-robin rounds per `churn` cycle: 8 × 12 × 128 = 12 288 values,
/// exactly three seals.
pub const CHURN_ROUNDS: usize = 8;
/// `churn` retention-deletes the oldest file while more are live.
pub const CHURN_MAX_LIVE: usize = 8;
/// Untimed `churn` cycles run in setup to reach the steady state.
pub const CHURN_WARMUP: usize = 60;

pub fn opts() -> StoreOptions {
    StoreOptions::default()
}

/// Appends `series[..][range]` round-robin in [`BATCH`]-sized calls.
pub fn append_round_robin<B: Backend>(d: &mut Driver<B>, series: &[Series], lo: usize, hi: usize) {
    for off in (lo..hi).step_by(BATCH) {
        let end = (off + BATCH).min(hi);
        for s in series {
            d.append(s.name, &s.values[off..end]);
        }
    }
}

pub fn read_all<B: Backend>(d: &mut Driver<B>, series: &[Series]) {
    for s in series {
        d.read(s.name);
    }
}

/// One `ingest` unit: every value appended, then a final flush.
pub fn ingest_pass<B: Backend>(d: &mut Driver<B>, series: &[Series]) {
    append_round_robin(d, series, 0, INGEST_N);
    d.flush();
}

/// After an `ingest` pass: reopen, read back, compact, read back.
pub fn ingest_verify<B: Backend>(d: &mut Driver<B>, series: &[Series]) {
    d.reopen();
    read_all(d, series);
    d.compact();
    read_all(d, series);
}

/// `scan` setup: ingests the data in [`SCAN_PARTS`] parts, compacting
/// after each, leaving a few large files.
pub fn scan_load<B: Backend>(d: &mut Driver<B>, series: &[Series]) {
    let part = SCAN_N / SCAN_PARTS;
    for p in 0..SCAN_PARTS {
        let hi = if p + 1 == SCAN_PARTS {
            SCAN_N
        } else {
            (p + 1) * part
        };
        append_round_robin(d, series, p * part, hi);
        d.flush();
        d.compact();
        d.rec.mark_unit();
    }
}

/// One `scan` unit: open the store, read every series.
pub fn scan_pass<B: Backend>(d: &mut Driver<B>, series: &[Series]) {
    d.reopen();
    read_all(d, series);
}

/// The `churn` source: wrapping position into the series.
#[derive(Clone, Copy, Default)]
pub struct Cursor(usize);

/// One `churn` cycle: reopen, append three seals' worth, read every
/// series, compact, retention. Warmup cycles skip the reopen and reads.
pub fn churn_cycle<B: Backend>(d: &mut Driver<B>, series: &[Series], cur: &mut Cursor, full: bool) {
    if full {
        d.reopen();
    }
    for _ in 0..CHURN_ROUNDS {
        let c = cur.0 % CHURN_N;
        for s in series {
            d.append(s.name, &s.values[c..c + BATCH]);
        }
        cur.0 += BATCH;
    }
    d.flush();
    if full {
        read_all(d, series);
    }
    d.compact();
    while d.model.live().len() > CHURN_MAX_LIVE {
        d.retention_delete_oldest();
    }
}

/// On-disk bytes of the live data files plus `MANIFEST`, per live value.
pub fn bytes_per_value(dir: &Path, model: &Model) -> Result<f64, String> {
    let mut bytes = 0u64;
    for entry in std::fs::read_dir(dir).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if name.ends_with(".tsf") || name == store::manifest::MANIFEST_FILE {
            bytes += entry.metadata().map_err(|e| e.to_string())?.len();
        }
    }
    Ok(bytes as f64 / model.live_values() as f64)
}

/// A finished set-up: the inputs and, for `scan` and `churn`, the
/// pre-loaded store with its model and churn position.
pub struct Loaded {
    pub series: Vec<Series>,
    pub driver: Option<Driver<StoreBackend>>,
    pub cursor: Cursor,
    pub bytes_per_value: f64,
}

/// Generates the inputs and, for `scan` and `churn`, pre-loads a store
/// at `dir` through the real `Store`.
pub fn setup(workload: &str, seed: u64, dir: &Path) -> Result<Loaded, String> {
    let n = match workload {
        "ingest" => INGEST_N,
        "scan" => SCAN_N,
        _ => CHURN_N,
    };
    let series = data::generate(seed, n);
    let mut cursor = Cursor::default();
    if workload == "ingest" {
        return Ok(Loaded {
            series,
            driver: None,
            cursor,
            bytes_per_value: 0.0,
        });
    }
    let mut driver = Driver::new(StoreBackend::create(dir, opts())?, Model::new(&opts()));
    if workload == "scan" {
        scan_load(&mut driver, &series);
    } else {
        for _ in 0..CHURN_WARMUP {
            churn_cycle(&mut driver, &series, &mut cursor, false);
        }
    }
    let bytes_per_value = bytes_per_value(dir, &driver.model)?;
    Ok(Loaded {
        series,
        driver: Some(driver),
        cursor,
        bytes_per_value,
    })
}
