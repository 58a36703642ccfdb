//! Store benchmark: drives `store::Store` through its public API over
//! the twelve fig-10 dataset shapes and reports end-to-end metrics
//! (`--trace 0`) or a layer-by-layer ledger (`--trace 1`).
//!
//! Usage, from the repository root:
//!
//! ```text
//! cargo run --release --manifest-path storebench/Cargo.toml -- \
//!     --workload ingest|scan|churn --seed N --seconds S --trace 0|1
//! ```
//!
//! See `storebench/README.md` for the workloads, the metrics and the
//! layers they are attributed to.

mod backend;
mod data;
mod driver;
mod ledger;
mod model;
mod replay;
mod report;
mod workloads;

use backend::{Backend, StoreBackend};
use data::Series;
use driver::{Driver, Recorder};
use ledger::{Layer, Ledger};
use model::Model;
use replay::Replay;
use report::{json_str, percentile, Report};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use tsfile::{EncodingChoice, TsFileWriter};
use workloads::{opts, Cursor};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Fewest units each phase of a traced run measures.
const MIN_UNITS: usize = 3;
/// The ledger rule: layers must explain at least this share of wall.
const MAX_UNATTRIBUTED: f64 = 0.10;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !["ingest", "scan", "churn"].contains(&args.workload.as_str()) {
        return Err("--workload must be ingest, scan or churn".to_string());
    }
    Ok(args)
}

/// A scratch directory removed on drop.
struct TmpDir(PathBuf);

impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        // Removes the shared parent only once no other run uses it.
        if let Some(parent) = self.0.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn remove_dir(dir: &Path) -> Result<(), String> {
    std::fs::remove_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn median(v: &[f64]) -> Option<f64> {
    percentile(v, 0.5)
}

/// Puts glibc's adaptive allocator into its steady state before any
/// measurement. Freeing one large mapped block raises the mmap and trim
/// thresholds for the rest of the process, as the first big read does in
/// a long-running one. Without it, the read path's per-call file and
/// decode buffers flip between fresh mappings and reused heap depending
/// on earlier allocations, which moved `read_series` latency by ~40%
/// between otherwise identical runs.
fn settle_allocator() {
    let block: Vec<u8> = vec![0; 16 << 20];
    drop(std::hint::black_box(block));
}

fn main() -> ExitCode {
    settle_allocator();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("storebench: {e}");
            return ExitCode::from(2);
        }
    };
    let tmp = TmpDir(PathBuf::from(".bench_tmp").join(format!(
        "{}-{}-{}",
        args.workload,
        args.seed,
        std::process::id()
    )));
    let outcome = if args.trace {
        traced(&args, &tmp.0)
    } else {
        untraced(&args, &tmp.0)
    };
    drop(tmp);
    let mut report = match outcome {
        Ok(r) => r,
        Err(e) => {
            eprintln!("storebench: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut record = vec![
        ("workload".to_string(), json_str(&args.workload)),
        ("seed".to_string(), args.seed.to_string()),
        ("seconds".to_string(), args.seconds.to_string()),
        ("trace".to_string(), args.trace.to_string()),
        ("commit".to_string(), json_str(&report::commit())),
        ("machine".to_string(), report::machine()),
        ("store_options".to_string(), store_options()),
    ];
    record.append(&mut report.record);
    report.record = record;
    println!("{}", report.record_line());
    println!("{}", report.result_line());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn store_options() -> String {
    let o = opts();
    format!(
        "{{\"rotate_records\": {}, \"compact_min_inputs\": {}, \"compact_small_records\": {}, \"encoding\": {}, \"threads\": {}, \"fsync\": true}}",
        o.rotate_records,
        o.compact_min_inputs,
        o.compact_small_records,
        json_str(&o.encoding.label()),
        o.threads
    )
}

fn keep_going(start: Instant, units: usize, seconds: f64) -> bool {
    units < MIN_UNITS || start.elapsed().as_secs_f64() < seconds
}

/// The end-to-end run: benchmark timers only around whole store calls.
///
/// The set-ups are spread over the run, each followed by an equal share
/// of the measuring time on its own store, so set-up and measured
/// samples both span the whole run rather than one end of it; the
/// fsync and CPU speed of a shared virtual machine drift over tens of
/// seconds.
fn untraced(args: &Args, root: &Path) -> Result<Report, String> {
    let w = args.workload.as_str();
    let mut rec = Recorder::default();
    let mut setup_s = Vec::new();
    let mut bytes_per_value = None;
    let mut units = 0;
    for i in 0..SETUPS {
        let dir = root.join(format!("setup{i}"));
        let t0 = Instant::now();
        let l = workloads::setup(w, args.seed, &dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        let start = Instant::now();
        let share = args.seconds / SETUPS as f64;
        let mut n = 0;
        match l.driver {
            None => {
                while n == 0 || start.elapsed().as_secs_f64() < share {
                    let dir = root.join(format!("pass{units}"));
                    let mut d =
                        Driver::new(StoreBackend::create(&dir, opts())?, Model::new(&opts()));
                    workloads::ingest_pass(&mut d, &l.series);
                    if bytes_per_value.is_none() {
                        bytes_per_value = Some(workloads::bytes_per_value(&dir, &d.model)?);
                    }
                    workloads::ingest_verify(&mut d, &l.series);
                    d.rec.mark_unit();
                    rec.merge(d.rec);
                    remove_dir(&dir)?;
                    (n, units) = (n + 1, units + 1);
                }
            }
            Some(mut d) => {
                bytes_per_value.get_or_insert(l.bytes_per_value);
                rec.absorb_failures(&std::mem::take(&mut d.rec));
                let mut cur = l.cursor;
                while n == 0 || start.elapsed().as_secs_f64() < share {
                    if w == "scan" {
                        workloads::scan_pass(&mut d, &l.series);
                    } else {
                        workloads::churn_cycle(&mut d, &l.series, &mut cur, true);
                    }
                    d.rec.mark_unit();
                    (n, units) = (n + 1, units + 1);
                }
                rec.merge(d.rec);
                remove_dir(&dir)?;
            }
        }
    }

    let mut r = Report::new(&rec);
    r.metric_opt("setup_s", median(&setup_s), "s");
    let read_mvps = median(&rec.unit_read_vps).map(|v| v / 1e6);
    r.metric_opt("read_mvps", read_mvps, "MV/s");
    r.metric_opt("read_p50_ms", percentile(&rec.read_ms, 0.5), "ms");
    r.metric_opt("reopen_p50_ms", median(&rec.reopen_ms), "ms");
    r.metric_opt("bytes_per_value", bytes_per_value, "B/value");
    r.metric_opt("peak_rss_mb", report::peak_rss_mb(), "MiB");
    r.note("units", units.to_string());
    r.note(
        "samples",
        format!(
            "{{\"write_units\": {}, \"read_units\": {}, \"seal\": {}, \"read\": {}, \"compact\": {}, \"reopen\": {}, \"setup\": {}}}",
            rec.unit_write_vps.len(),
            rec.unit_read_vps.len(),
            rec.seal_ms.len(),
            rec.read_ms.len(),
            rec.compact_ms.len(),
            rec.reopen_ms.len(),
            setup_s.len()
        ),
    );
    r.note(
        "failed_ops",
        (rec.failed as f64 / rec.attempted.max(1) as f64).to_string(),
    );
    Ok(r)
}

/// Copies every regular file of `from` into a new directory `to`.
fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    let io = |e: std::io::Error| format!("copy {} -> {}: {e}", from.display(), to.display());
    std::fs::create_dir_all(to).map_err(io)?;
    for entry in std::fs::read_dir(from).map_err(io)? {
        let entry = entry.map_err(io)?;
        std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(io)?;
    }
    Ok(())
}

/// Checks a directory the replay wrote: the real `Store` must reopen it
/// cleanly and read back the model, and every live file must equal what
/// `TsFileWriter` writes for the same series.
fn validate(dir: &Path, model: &Model, series: &[Series], fails: &mut Recorder) {
    match StoreBackend::open(dir, opts()) {
        Ok(b) => {
            let mut d = Driver::new(b, model.clone());
            if d.backend.live_shape() != model.live_shape() {
                d.rec
                    .fail(format!("{}: reopened live set differs", dir.display()));
            }
            workloads::read_all(&mut d, series);
            fails.absorb_failures(&d.rec);
        }
        Err(e) => fails.fail(format!("{}: Store::open: {e}", dir.display())),
    }
    for f in model.live() {
        let path = dir.join(format!("{:06}.tsf", f.id));
        let mut w = TsFileWriter::new();
        for (name, values) in &f.series {
            if let Err(e) =
                w.add_int_series_parallel(name, values, EncodingChoice::TS2DIFF_BOS, opts().threads)
            {
                fails.fail(format!("TsFileWriter: {e}"));
            }
        }
        match std::fs::read(&path) {
            Ok(bytes) if bytes == w.finish() => {}
            _ => fails.fail(format!(
                "{}: differs from TsFileWriter's bytes",
                path.display()
            )),
        }
    }
}

fn counter(name: &str) -> u64 {
    obs::counter(name).get()
}

fn span_self_ns(name: &str) -> u64 {
    obs::snapshot()
        .spans
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, s)| s.self_ns)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Runs one workload unit against `d`.
fn unit<B: Backend>(w: &str, d: &mut Driver<B>, series: &[Series], cur: &mut Cursor) {
    match w {
        "ingest" => workloads::ingest_pass(d, series),
        "scan" => workloads::scan_pass(d, series),
        _ => workloads::churn_cycle(d, series, cur, true),
    }
}

/// The traced run: the workload through `Store` for half the time (U),
/// then the same units replayed layer by layer (T) under the ledger.
fn traced(args: &Args, root: &Path) -> Result<Report, String> {
    let w = args.workload.as_str();
    let setup_dir = root.join("setup");
    let mut l = workloads::setup(w, args.seed, &setup_dir)?;
    let series = std::mem::take(&mut l.series);
    let mut fails = Recorder::default();
    let replay_dir = root.join("replay");
    let start_model = l.driver.as_ref().map(|d| d.model.clone());
    if let Some(d) = l.driver.as_mut() {
        fails.absorb_failures(&std::mem::take(&mut d.rec));
        if w == "churn" {
            copy_dir(&setup_dir, &replay_dir)?;
        }
    }

    // Phase U: the program as shipped.
    let chunks_read0 = counter("tsfile.chunks_read");
    let seals0 = counter("store.files");
    let search0 = span_self_ns("solver_search.BOS-B");
    let pack0 = span_self_ns("pack_payload.BOS-B");
    let start = Instant::now();
    let mut units = 0;
    let mut u_rec = Recorder::default();
    let mut cur = l.cursor;
    while keep_going(start, units, args.seconds / 2.0) {
        let mut d = match l.driver.take() {
            Some(d) => d,
            None => {
                let dir = root.join(format!("u{units}"));
                Driver::new(StoreBackend::create(&dir, opts())?, Model::new(&opts()))
            }
        };
        unit(w, &mut d, &series, &mut cur);
        d.rec.mark_unit();
        u_rec.merge(std::mem::take(&mut d.rec));
        if w == "ingest" {
            remove_dir(&root.join(format!("u{units}")))?;
        } else {
            l.driver = Some(d);
        }
        units += 1;
    }
    drop(l.driver.take());
    fails.absorb_failures(&u_rec);
    let k = units as f64;
    let chunks_read = counter("tsfile.chunks_read") - chunks_read0;
    let seals = counter("store.files") - seals0;
    let search_span = span_self_ns("solver_search.BOS-B") - search0;
    let pack_span = span_self_ns("pack_payload.BOS-B") - pack0;

    // Phase T: the same units, layer by layer.
    let mut ledger = Ledger::default();
    let mut t_rec = Recorder::default();
    let mut live_files = 0usize;
    let mut cur = l.cursor;
    let mut replay = match (w, &start_model) {
        ("scan", Some(m)) => Some(Driver::new(Replay::open(&setup_dir, opts())?, m.clone())),
        ("churn", Some(m)) => Some(Driver::new(Replay::open(&replay_dir, opts())?, m.clone())),
        _ => None,
    };
    if let Some(d) = replay.as_mut() {
        d.backend.ledger = Ledger::default();
    }
    for i in 0..units {
        let dir = root.join(format!("t{i}"));
        let mut d = match replay.take() {
            Some(d) => d,
            None => Driver::new(
                Replay::create(&dir, opts(), std::mem::take(&mut ledger))?,
                Model::new(&opts()),
            ),
        };
        unit(w, &mut d, &series, &mut cur);
        t_rec.merge(std::mem::take(&mut d.rec));
        live_files += d.model.live().len();
        if w == "ingest" {
            ledger = std::mem::take(&mut d.backend.ledger);
            validate(&dir, &d.model, &series, &mut fails);
            remove_dir(&dir)?;
        } else {
            replay = Some(d);
        }
    }
    if let Some(d) = replay {
        ledger = d.backend.ledger.clone();
        if w == "churn" {
            validate(&replay_dir, &d.model, &series, &mut fails);
        }
    }
    fails.absorb_failures(&t_rec);
    let (u_wall, t_wall) = (u_rec.op_wall, t_rec.op_wall);

    let mut r = Report::new(&fails);
    for layer in Layer::ALL {
        r.metric(layer.metric(), ms(ledger.get(layer)) / k, "ms");
    }
    let c = &ledger.counts;
    r.metric("tsfile.crc_bytes", c.crc_bytes as f64 / k, "bytes");
    r.metric("tsfile.chunks_read", chunks_read as f64 / k, "count");
    r.metric("fs.read_bytes", c.read_bytes as f64 / k, "bytes");
    r.metric("store.seals", seals as f64 / k, "count");
    r.metric("store.files_live", live_files as f64 / k, "count");
    r.metric(
        "store.file_reads_per_read",
        ratio(c.file_reads_for_series as f64, c.series_reads as f64),
        "count",
    );
    r.metric(
        "store.compact_rewrite_bytes_per_value",
        ratio(c.compact_written_bytes as f64, c.compact_values as f64),
        "B/value",
    );
    r.metric(
        "store.reopen_verify_bytes",
        c.reopen_verify_bytes as f64 / k,
        "bytes",
    );
    let candidates = counter("solver.BOS-B.candidates") as f64;
    let prunes = counter("solver.BOS-B.prunes") as f64;
    let blocks = counter("solver.BOS-B.blocks") as f64;
    let separated = counter("bos.blocks_separated") as f64;
    let plain = counter("bos.blocks_plain") as f64;
    r.metric(
        "solver.candidates_per_block",
        ratio(candidates, blocks),
        "count",
    );
    r.metric(
        "solver.prune_ratio",
        ratio(prunes, candidates + prunes),
        "ratio",
    );
    r.metric(
        "bos.separated_frac",
        ratio(separated, separated + plain),
        "ratio",
    );
    r.metric(
        "driver.workers",
        ratio(c.workers as f64, c.parallel_encodes as f64),
        "count",
    );
    r.metric("obs.solver_search_ms", search_span as f64 / 1e6 / k, "ms");
    r.metric("obs.pack_payload_ms", pack_span as f64 / 1e6 / k, "ms");
    let unattributed = 1.0 - ratio(ledger.total().as_secs_f64(), t_wall.as_secs_f64());
    // Write-path figures and tails, too noisy to gate on a shared
    // virtual machine (they follow its fsync latency and spare-core
    // capacity): the untraced phase's calls, reported without a bound.
    let write_mvps = median(&u_rec.unit_write_vps).map_or(0.0, |v| v / 1e6);
    r.metric("ingest_mvps", write_mvps, "MV/s");
    r.metric(
        "compact_p50_ms",
        median(&u_rec.compact_ms).unwrap_or(0.0),
        "ms",
    );
    r.metric(
        "seal_p50_ms",
        percentile(&u_rec.seal_ms, 0.5).unwrap_or(0.0),
        "ms",
    );
    r.metric(
        "seal_p99_ms",
        percentile(&u_rec.seal_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    r.metric(
        "read_p99_ms",
        percentile(&u_rec.read_ms, 0.99).unwrap_or(0.0),
        "ms",
    );
    r.metric("unattributed_frac", unattributed, "ratio");
    r.metric(
        "trace_overhead_frac",
        ratio(t_wall.as_secs_f64(), u_wall.as_secs_f64()) - 1.0,
        "ratio",
    );
    if unattributed > MAX_UNATTRIBUTED {
        r.failures.push(format!(
            "named layers explain {:.1}% of {w}'s traced wall time, below {:.0}%",
            (1.0 - unattributed) * 100.0,
            (1.0 - MAX_UNATTRIBUTED) * 100.0
        ));
    }
    r.note("units", units.to_string());
    r.note("untraced_wall_ms", ms(u_wall).to_string());
    r.note("traced_wall_ms", ms(t_wall).to_string());
    Ok(r)
}
