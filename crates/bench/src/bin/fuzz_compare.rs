//! DIODE vs fuzzing baselines on every exposed site (§6's comparison:
//! random and taint-directed fuzzing rarely navigate the sanity checks).
//! DIODE's analyses run through the `diode-engine` scheduler.
//!
//! Usage: `cargo run --release -p diode-bench --bin fuzz_compare [-- FLAGS]`
//!
//! * `--trials N`    fuzzing trials per fuzzer per site (default 200)
//! * `--json`        machine-readable output
//! * `--threads N`   pin the engine's worker count

use std::time::Instant;

use diode_bench::jsonout::ms;
use diode_bench::{
    config_with_cache, execution_mode, flag_num, fuzz_rows, outln, render_fuzz, FuzzRow,
};
use diode_core::DiodeConfig;
use diode_obs::Json;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mode = execution_mode(&args);
    let trials = flag_num::<u32>(&args, "--trials").unwrap_or(200);
    let apps = diode_apps::all_apps();
    let (config, cache) = config_with_cache(DiodeConfig::default());

    let start = Instant::now();
    let rows = fuzz_rows(&apps, &config, trials, mode);
    let wall = start.elapsed();
    let diode_found = rows.iter().filter(|r| r.diode.is_some()).count();
    let fuzz_found = rows
        .iter()
        .filter(|r| r.random.hits > 0 || r.taint.hits > 0)
        .count();

    if json {
        let out = Json::obj()
            .field("table", "fuzz_compare")
            .field("trials", trials)
            .field("wall_ms", ms(wall))
            .field("diode_found", diode_found)
            .field("fuzz_found", fuzz_found)
            .field("cache", cache.stats())
            .field("sites", rows.iter().map(site_json).collect::<Vec<_>>());
        outln!("{out}");
    } else {
        outln!("DIODE vs fuzzing baselines ({trials} trials per fuzzer)\n");
        outln!("{}", render_fuzz(&rows));
        outln!(
            "\nDIODE exposes {}/{} sites; fuzzing finds an overflow at {}/{} (mostly the check-free ones).",
            diode_found,
            rows.len(),
            fuzz_found,
            rows.len()
        );
    }
}

fn site_json(r: &FuzzRow) -> Json {
    Json::obj()
        .field("app", r.app)
        .field("site", r.site.clone())
        .field("diode_enforced", r.diode)
        .field(
            "random",
            Json::obj()
                .field("hits", r.random.hits)
                .field("trials", r.random.trials),
        )
        .field(
            "taint",
            Json::obj()
                .field("hits", r.taint.hits)
                .field("trials", r.taint.trials),
        )
}
