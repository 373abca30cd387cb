//! Regenerates the paper's Table 1 (target-site classification), running
//! the whole-program analyses through the `diode-engine` work-stealing
//! scheduler with a shared solver-query cache.
//!
//! Usage: `cargo run --release -p diode-bench --bin table1 [-- FLAGS]`
//!
//! * `--json`        machine-readable output (per-app timings + counts,
//!   cache hit-rate, and the engine's speedup over `analyze_program`, the
//!   paper's per-app loop, run without a cache)
//! * `--app NAME`    single-app run: keep only benchmark apps whose name
//!   contains `NAME` (case-insensitive)
//! * `--synth N`     forged-suite run: replace the five §5 apps with `N`
//!   freshly forged scenarios and grade the result against the synth
//!   oracle (exit non-zero unless recall is 1.0 and every classification
//!   matches); combine with `--app` to filter forged app names
//! * `--threads N`   pin the engine's worker count

use std::time::Instant;

use diode_bench::jsonout::{counts_json, ms, score_json};
use diode_bench::{
    config_with_cache, execution_mode, flag_num, flag_str, outln, render_synth, render_table1,
    synth_rows, table1_matches_paper, table1_rows, Table1Row,
};
use diode_core::{analyze_program, DiodeConfig};
use diode_engine::{CampaignSpec, ExecutionMode};
use diode_obs::Json;
use diode_synth::{forge, score, SynthConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mode = execution_mode(&args);
    let app_filter = flag_str(&args, "--app").map(|f| f.to_lowercase());

    if let Some(n) = flag_num::<usize>(&args, "--synth") {
        if n == 0 {
            eprintln!("--synth must be at least 1");
            std::process::exit(2);
        }
        run_forged_suite(n, app_filter.as_deref(), mode, json);
        return;
    }

    let mut apps = diode_apps::all_apps();
    if let Some(filter) = &app_filter {
        apps.retain(|a| a.name.to_lowercase().contains(filter));
        if apps.is_empty() {
            eprintln!("--app {filter:?} matches none of the five benchmark applications");
            std::process::exit(2);
        }
    }
    let (config, cache) = config_with_cache(DiodeConfig::default());

    let start = Instant::now();
    let rows = table1_rows(&apps, &config, mode);
    let wall = start.elapsed();
    let matches = table1_matches_paper(&rows);

    if json {
        // Time the reference, `analyze_program` app by app, once and
        // without a cache, so the engine's caching does not flatter the
        // comparison.
        let reference_start = Instant::now();
        for app in &apps {
            let _ = analyze_program(
                &app.program,
                &app.seed,
                &app.format,
                &DiodeConfig::default(),
            );
        }
        let speedup = reference_start.elapsed().as_secs_f64() / wall.as_secs_f64().max(1e-9);
        let out = Json::obj()
            .field("table", "table1")
            .field("wall_ms", ms(wall))
            .field("engine_speedup", speedup)
            .field("matches_paper", matches)
            .field("cache", cache.stats())
            .field("apps", rows.iter().map(app_json).collect::<Vec<_>>())
            .field(
                "totals",
                counts_json(rows.iter().fold((0, 0, 0, 0), |acc, r| {
                    (
                        acc.0 + r.measured.0,
                        acc.1 + r.measured.1,
                        acc.2 + r.measured.2,
                        acc.3 + r.measured.3,
                    )
                })),
            );
        outln!("{out}");
    } else {
        outln!("Table 1: Target Site Classification (measured vs paper)\n");
        outln!("{}", render_table1(&rows));
        let stats = cache.stats();
        outln!(
            "Solver cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
            stats.hits,
            stats.misses,
            stats.hit_rate() * 100.0,
            stats.entries
        );
        if matches {
            outln!("RESULT: every per-application classification count matches the paper.");
        } else {
            outln!("RESULT: MISMATCH against the paper's Table 1.");
        }
    }
    if !matches {
        std::process::exit(1);
    }
}

/// The `--synth N` path: a Table 1-style run over a forged suite, graded
/// against the by-construction oracle instead of the paper.
fn run_forged_suite(n: usize, filter: Option<&str>, mode: ExecutionMode, json: bool) {
    let cfg = SynthConfig::default().with_apps(n);
    let suite = forge(&cfg);
    let mut apps = suite.campaign_apps();
    if let Some(filter) = filter {
        apps.retain(|a| a.name.to_lowercase().contains(filter));
        if apps.is_empty() {
            eprintln!("--app {filter:?} matches no forged application");
            std::process::exit(2);
        }
    }
    let spec = CampaignSpec {
        mode,
        ..CampaignSpec::new(apps)
    };
    let report = spec.run();
    let card = score(&report, &suite.oracle);
    let rows = synth_rows(&report, &suite.oracle);

    if json {
        let out = Json::obj()
            .field("table", "table1-synth")
            .field("forged_apps", n)
            .field("wall_ms", ms(report.wall_time))
            .field("cache", report.cache)
            .field("counts", counts_json(report.counts()))
            .field("score", score_json(&card));
        outln!("{out}");
    } else {
        outln!("Table 1 (forged suite of {n})\n");
        outln!("{}", render_synth(&rows));
        outln!("Score vs oracle: {card}");
        for m in &card.mismatches {
            outln!("  MISMATCH {m}");
        }
    }
    // A false negative is never an exact match, so perfection subsumes
    // the recall gate.
    if !card.is_perfect() {
        std::process::exit(1);
    }
}

fn app_json(r: &Table1Row) -> Json {
    Json::obj()
        .field("app", r.app)
        .field("analysis_ms", ms(r.analysis_time))
        .field("measured", counts_json(r.measured))
        .field("paper", counts_json(r.paper))
        .field("matches", r.measured == r.paper)
}
