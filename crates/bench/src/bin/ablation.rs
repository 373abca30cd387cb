//! The §5.4 blocking-check experiment: for each exposed site, is the
//! constraint "β ∧ follow the seed path through every relevant branch"
//! satisfiable? The paper: satisfiable for exactly 2 of 14 sites.
//! Also reports the interval-presolve ablation. Analyses run through the
//! `diode-engine` scheduler.
//!
//! Usage: `cargo run --release -p diode-bench --bin ablation [-- FLAGS]`
//! (`--threads N` pins the engine's worker count).

use std::time::Instant;

use diode_bench::{
    ablation_rows, analyze_apps, config_with_cache, execution_mode, outln, render_ablation,
};
use diode_core::DiodeConfig;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = execution_mode(&args);
    let apps = diode_apps::all_apps();
    let (config, cache) = config_with_cache(DiodeConfig::default());
    let rows = ablation_rows(&apps, &config, mode);
    outln!("Ablation A (§5.4): full seed-path constraint satisfiability\n");
    outln!("{}", render_ablation(&rows));
    let sat = rows
        .iter()
        .filter(|r| r.full_path_sat == Some(true))
        .count();
    outln!(
        "\n{} of {} exposed sites have a satisfiable full-path constraint (paper: 2 of 14).",
        sat,
        rows.len()
    );
    let stats = cache.stats();
    outln!(
        "Solver cache: {} hits / {} misses ({:.0}% hit rate)\n",
        stats.hits,
        stats.misses,
        stats.hit_rate() * 100.0
    );

    outln!("Ablation B: interval pre-solve on/off (full Table 1 classification)");
    for presolve in [true, false] {
        let mut cfg = DiodeConfig::default();
        cfg.solver.interval_presolve = presolve;
        let t = Instant::now();
        let _ = analyze_apps(&apps, &cfg, mode);
        outln!("  interval_presolve = {presolve:<5} -> {:?}", t.elapsed());
    }
}
