//! The `diode-serve` daemon binary.
//!
//! Usage: `cargo run --release -p diode-serve [-- FLAGS]`
//!
//! * `--addr A`           bind address (default `127.0.0.1:7070`;
//!   port `0` picks an ephemeral port — the chosen address is printed)
//! * `--workers N`        concurrent campaign jobs (default 1)
//! * `--queue-depth N`    per-worker admission bound (default 16)
//! * `--corpus PATH`      corpus root for `{"suite": ...}` jobs
//! * `--heartbeat-ms N`   pulse heartbeat interval (default 50)
//! * `--no-metrics`       disable the service-level metrics registry
//!   (the `metrics` op answers `400`; campaigns are unaffected)
//! * `--flight-dir DIR`   directory for flight dumps (default
//!   `flight`; one `<job-id>.jsonl` per anomalous or failed job: the
//!   job's telemetry stream with its anomalies)
//! * `--no-flight`        write no flight dumps
//! * `--watchdog`         run every job under the default watchdog
//!   thresholds (per-job submissions can still override)
//! * `--slow-factor F`, `--slow-floor-ms N`, `--min-sites N`,
//!   `--idle-heartbeats N` (0 disables), `--cache-ceiling BYTES` —
//!   tune the default watchdog (each implies `--watchdog`; same knobs
//!   as the `watch` bin)
//!
//! The daemon prints one `listening on ADDR` line to stdout once bound,
//! then serves until a `shutdown` request drains the queue. See
//! `docs/OPERATIONS.md` for the wire protocol and example sessions.

use std::time::Duration;

use diode_obs::WatchdogConfig;
use diode_serve::{serve, ServeConfig};

fn flag_str(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// A present but unparsable value is a usage error (exit 2): a typo like
/// `--workers x` must not silently serve with the default, and neither
/// may a value the setting's type cannot hold.
fn flag_num<T>(args: &[String], name: &str) -> Option<T>
where
    T: std::str::FromStr,
    T::Err: std::fmt::Display,
{
    let raw = flag_str(args, name)?;
    match raw.parse() {
        Ok(n) => Some(n),
        Err(e) => {
            eprintln!("diode-serve: {name} expects a number, got {raw:?} ({e})");
            std::process::exit(2);
        }
    }
}

/// As [`flag_num`], rejecting non-finite values too: a NaN threshold
/// would silently disable the detector it tunes.
fn flag_f64(args: &[String], name: &str) -> Option<f64> {
    let raw = flag_str(args, name)?;
    match raw.parse::<f64>() {
        Ok(v) if v.is_finite() => Some(v),
        _ => {
            eprintln!("diode-serve: {name} expects a finite number, got {raw:?}");
            std::process::exit(2);
        }
    }
}

/// The daemon-default watchdog: `--watchdog` opts in with stock
/// thresholds; any threshold flag opts in with that knob turned.
fn watchdog_config(args: &[String]) -> Option<WatchdogConfig> {
    let mut cfg = WatchdogConfig::default();
    let mut enabled = args.iter().any(|a| a == "--watchdog");
    if let Some(f) = flag_f64(args, "--slow-factor") {
        cfg.slow_site_factor = f;
        enabled = true;
    }
    if let Some(ms) = flag_num::<u64>(args, "--slow-floor-ms") {
        cfg.slow_site_floor_ns = ms.saturating_mul(1_000_000);
        enabled = true;
    }
    if let Some(n) = flag_num(args, "--min-sites") {
        cfg.min_sites_for_median = n;
        enabled = true;
    }
    if let Some(n) = flag_num(args, "--idle-heartbeats") {
        cfg.idle_heartbeats = n;
        enabled = true;
    }
    if let Some(bytes) = flag_num(args, "--cache-ceiling") {
        cfg.cache_ceiling_bytes = Some(bytes);
        enabled = true;
    }
    enabled.then_some(cfg)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flight_dir = if args.iter().any(|a| a == "--no-flight") {
        None
    } else {
        Some(
            flag_str(&args, "--flight-dir")
                .unwrap_or_else(|| "flight".to_string())
                .into(),
        )
    };
    let cfg = ServeConfig {
        addr: flag_str(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string()),
        workers: flag_num::<usize>(&args, "--workers").unwrap_or(1).max(1),
        queue_depth: flag_num::<usize>(&args, "--queue-depth")
            .unwrap_or(16)
            .max(1),
        corpus_root: flag_str(&args, "--corpus").map(Into::into),
        heartbeat: Duration::from_millis(
            flag_num::<u64>(&args, "--heartbeat-ms")
                .unwrap_or(50)
                .max(1),
        ),
        metrics: !args.iter().any(|a| a == "--no-metrics"),
        flight_dir,
        watchdog: watchdog_config(&args),
    };
    let handle = match serve(cfg) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("diode-serve: cannot start: {e}");
            std::process::exit(2);
        }
    };
    // The one line supervisors and scripts parse to find the port.
    println!("listening on {}", handle.addr());
    handle.join();
    println!("diode-serve: drained and stopped");
}
