//! Fold a `diode-obs` JSONL campaign trace into a per-phase / per-site
//! breakdown report.
//!
//! Usage: `cargo run --release -p diode-bench --bin profile -- --trace PATH [FLAGS]`
//!
//! * `--trace PATH`          the JSONL trace to fold (written by
//!   `synth_campaign --trace`); required
//! * `--json`                machine-readable single-line JSON instead
//!   of the human table
//! * `--top N`               keep the N slowest sites (default 10)
//! * `--collapsed PATH`      additionally write collapsed stacks
//!   (`app;site;phase... weight` lines) for flamegraph tooling, e.g.
//!   `flamegraph.pl PATH > flame.svg`
//! * `--require-phases a,b`  exit non-zero unless every named phase
//!   appears in the trace with nonzero total duration (the CI
//!   `obs-profile` gate)
//!
//! Diff mode: `profile --diff OLD NEW [--json] [--top N] [--threshold F]`
//! compares two profiled runs — each argument may be a JSONL trace, a
//! `profile --json` document, or a `synth_campaign --profile --json`
//! line — and attributes any wall-clock regression to phases, sites,
//! and solver-cache hit-rate shifts. Exits 1 when a regression is
//! attributed (growth above `--threshold`, default 0.15, as a fraction
//! of instrumented compute), so diffing a run against itself exits 0.
//!
//! Exits 2 on unreadable/invalid traces, 1 on a failed phase gate.

use diode_bench::profload::load_profile;
use diode_bench::{flag_str, outln};
use diode_obs::{collapsed_stacks, Phase, ProfileDiff, ProfileReport, Trace};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let top = flag_str(&args, "--top")
        .map(|v| match v.parse::<usize>() {
            Ok(n) => n,
            Err(_) => {
                eprintln!("profile: --top expects a number, got {v:?}");
                std::process::exit(2);
            }
        })
        .unwrap_or(10);
    if let Some(pos) = args.iter().position(|a| a == "--diff") {
        let (Some(old_path), Some(new_path)) = (args.get(pos + 1), args.get(pos + 2)) else {
            eprintln!("profile: --diff needs two paths: --diff OLD NEW");
            std::process::exit(2);
        };
        run_diff(&args, old_path, new_path, json, top);
        return;
    }
    let Some(path) = flag_str(&args, "--trace") else {
        eprintln!("profile: --trace PATH is required (or use --diff OLD NEW)");
        std::process::exit(2);
    };

    let text = match std::fs::read_to_string(&path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("profile: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    let trace = match Trace::from_jsonl(&text) {
        Ok(trace) => trace,
        Err(e) => {
            eprintln!("profile: {path}: {e}");
            std::process::exit(2);
        }
    };
    let report = ProfileReport::from_trace(&trace, top);

    if let Some(out) = flag_str(&args, "--collapsed") {
        if let Err(e) = std::fs::write(&out, collapsed_stacks(&trace)) {
            eprintln!("profile: cannot write {out}: {e}");
            std::process::exit(2);
        }
        if !json {
            outln!("Wrote collapsed stacks to {out} (fold with flamegraph.pl)");
        }
    }

    if json {
        outln!("{}", report.to_json());
    } else {
        outln!("{}", report.render());
    }

    if let Some(required) = flag_str(&args, "--require-phases") {
        let mut missing = Vec::new();
        for name in required.split(',').filter(|n| !n.is_empty()) {
            let Some(phase) = Phase::parse(name) else {
                eprintln!("profile: --require-phases: unknown phase {name:?}");
                std::process::exit(2);
            };
            match report.breakdown.phase(phase) {
                Some(row) if row.count > 0 && row.total_ns > 0 => {}
                _ => missing.push(name),
            }
        }
        if !missing.is_empty() {
            eprintln!(
                "profile: phase gate FAILED — no spans (or zero duration) for: {}",
                missing.join(", ")
            );
            std::process::exit(1);
        }
        if !json {
            outln!("Phase gate passed: {required}");
        }
    }
}

/// `--diff OLD NEW`: load both runs (trace, profile JSON, or artifact),
/// attribute the regression, exit 1 when one is attributed.
fn run_diff(args: &[String], old_path: &str, new_path: &str, json: bool, top: usize) {
    let threshold = flag_str(args, "--threshold")
        .map(|v| match v.parse::<f64>() {
            Ok(f) if f.is_finite() && f > 0.0 => f,
            _ => {
                eprintln!("profile: --threshold expects a positive number, got {v:?}");
                std::process::exit(2);
            }
        })
        .unwrap_or(0.15);
    let load = |path: &str| match load_profile(path, top) {
        Ok(report) => report,
        Err(e) => {
            eprintln!("profile: {e}");
            std::process::exit(2);
        }
    };
    let old = load(old_path);
    let new = load(new_path);
    let diff = ProfileDiff::between(&old, &new, top, threshold);
    if json {
        outln!("{}", diff.to_json());
    } else {
        outln!("{}", diff.render());
    }
    if diff.is_regression() {
        std::process::exit(1);
    }
}
