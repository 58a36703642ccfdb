//! Runs the complete evaluation: every figure/table of the paper in
//! sequence. Configure with `BOS_N` / `BOS_REPEATS`.

use bos_bench::experiments as exp;

fn main() {
    let cfg = bos_bench::harness::Config::from_env();
    println!("BOS reproduction — full evaluation run");
    exp::fig08_distributions::run(&cfg);
    exp::fig09_outlier_pct::run(&cfg);
    exp::fig10a_ratio::run(&cfg);
    exp::fig10b_summary::run(&cfg);
    exp::fig10c_time::run(&cfg);
    exp::fig11_query::run(&cfg);
    exp::fig12_lower_ablation::run(&cfg);
    exp::fig13_gp::run(&cfg);
    exp::fig14_parts::run(&cfg);
    exp::fig15_blocksize::run(&cfg);
    exp::prop4_approx::run(&cfg);
    exp::ablation_positions::run(&cfg);
    exp::ext_query_skipping::run(&cfg);
    exp::throughput::run(&cfg, false);
    exp::faults::run(&cfg, false);
    println!("\nAll experiments completed.");
}
