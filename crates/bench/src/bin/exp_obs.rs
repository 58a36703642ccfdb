//! Regenerates the PR 9 flight-recorder artifact implemented in
//! `bos_bench::experiments::obs` (writes `BENCH_PR9.json`).
//!
//! `--quick` (the tier-1 configuration) runs every measurement and gate,
//! since the suite is cheap, but writes no file.

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let cfg = bos_bench::harness::Config::from_env();
    bos_bench::experiments::obs::run(&cfg, quick);
}
