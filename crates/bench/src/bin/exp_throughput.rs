//! Regenerates the throughput artifacts implemented in
//! `bos_bench::experiments::throughput` (writes `BENCH_PR4.json` and
//! `BENCH_PR8.json`).
//!
//! Pass `--quick` for the tier-1 configuration: only the solver section
//! (encode sessions + the frozen-reference speedup gate) and the
//! block-decode gate. It writes no file and skips the kernel, operator
//! and solver-metrics sweeps.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    bos_bench::experiments::throughput::run(&cfg, quick);
}
