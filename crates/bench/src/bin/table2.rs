//! Regenerates the paper's Table 2 (per-overflow evaluation summary),
//! including the success-rate experiments of §5.5/§5.6, with analyses
//! running through the `diode-engine` scheduler + shared query cache.
//!
//! Usage: `cargo run --release -p diode-bench --bin table2 [-- FLAGS]`
//!
//! * `--samples N`   inputs per success-rate column (default 200, as in
//!   the paper)
//! * `--json`        machine-readable output (per-site timings, rates,
//!   cache hit-rate)
//! * `--threads N`   pin the engine's worker count
//!
//! "Time (A)" is each app's aggregate work time in the one campaign that
//! analyses every app (identification + extraction + discovery), as in
//! Table 1; "B" is the site's own discovery time.

use std::time::Instant;

use diode_bench::jsonout::ms;
use diode_bench::{
    config_with_cache, execution_mode, flag_num, outln, render_table2, table2_rows,
    table2_shape_matches_paper, Table2Row,
};
use diode_core::DiodeConfig;
use diode_obs::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mode = execution_mode(&args);
    let samples = flag_num::<u32>(&args, "--samples").unwrap_or(200);
    let apps = diode_apps::all_apps();
    let (config, cache) = config_with_cache(DiodeConfig::default());

    let start = Instant::now();
    let rows = table2_rows(&apps, &config, samples, 0xD10DE, mode);
    let wall = start.elapsed();
    let problems = table2_shape_matches_paper(&rows, &apps);

    if json {
        let out = Json::obj()
            .field("table", "table2")
            .field("samples", samples)
            .field("wall_ms", ms(wall))
            .field("shape_matches_paper", problems.is_empty())
            .field("problems", problems.clone())
            .field("cache", cache.stats())
            .field("sites", rows.iter().map(site_json).collect::<Vec<_>>());
        outln!("{out}");
    } else {
        outln!("Table 2: Evaluation Summary ({samples} samples per rate column)\n");
        outln!("{}", render_table2(&rows));
        let stats = cache.stats();
        outln!(
            "Solver cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.entries
        );
        if problems.is_empty() {
            outln!("RESULT: all shape invariants hold (14 exposed rows; 0-enforcement sites; enforcement bands; exhaustive CVE-2008-2430 enumeration).");
        } else {
            outln!("RESULT: shape mismatches:");
            for p in &problems {
                outln!("  - {p}");
            }
        }
    }
    if !problems.is_empty() {
        std::process::exit(1);
    }
}

fn site_json(r: &Table2Row) -> Json {
    Json::obj()
        .field("app", r.app)
        .field("site", r.site.clone())
        .field("cve", r.cve.clone())
        .field("error_type", r.error_type.clone())
        .field("analysis_ms", ms(r.analysis_time))
        .field("discovery_ms", ms(r.discovery_time))
        .field("enforced", r.enforced.0)
        .field("total_relevant", r.enforced.1)
        .field(
            "target_rate",
            Json::obj()
                .field("hits", r.target_rate.hits)
                .field("samples", r.target_rate.samples)
                .field("exhaustive", r.target_rate.exhaustive),
        )
        .field(
            "enforced_rate",
            r.enforced_rate.as_ref().map(|e| {
                Json::obj()
                    .field("hits", e.hits)
                    .field("samples", e.samples)
                    .field("exhaustive", e.exhaustive)
            }),
        )
}
