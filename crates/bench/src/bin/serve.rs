//! serve — the client for a running `diode-serve` daemon.
//!
//! Subcommands (all take `--addr HOST:PORT`, default `127.0.0.1:7070`):
//!
//! * `serve submit [--apps N] [--depth N] [--sites N] [--seeds-per-app N]
//!   [--site-work N] [--rng-seed N] [--suite ID] [--threads N] [--wait]`
//!   — enqueue a campaign job (forge spec by default, or a corpus suite
//!   id/prefix with `--suite`). Prints the daemon's JSON response line;
//!   with `--wait` that line is the full job report. Watchdog knobs
//!   ride along (`synth_campaign` parity): `--watchdog` runs the job
//!   under default thresholds and, with `--wait`, exits 1 if any
//!   anomaly fires; `--slow-factor F`, `--slow-floor-ms N`,
//!   `--min-sites N`, `--idle-heartbeats N` (0 disables), and
//!   `--cache-ceiling BYTES` tune it (each implies `--watchdog`'s
//!   detectors). The reply's `anomalies` array lists what fired.
//!   `--stall-work N` plants one deliberately slow site (the
//!   flight-dump drill).
//! * `serve status [--job ID]` — daemon summary, or one job's state.
//! * `serve watch --job ID` — copy the job's telemetry JSONL to stdout,
//!   each line as it arrives, until its `finished` record: pipe it to
//!   `watch --follow` for a live narration, or save it and render it
//!   with `watch --replay`.
//! * `serve metrics [--prometheus]` — scrape the daemon's service
//!   metrics: one JSON object by default, Prometheus text format with
//!   `--prometheus`.
//! * `serve health` — the typed readiness/liveness probe; exits 0 iff
//!   the daemon reports itself healthy.
//! * `serve shutdown` — drain the queue and stop the daemon.
//! * `serve assert-warmer COLD.json WARM.json` — exit 0 iff the WARM
//!   report's per-job solver-cache hit rate strictly exceeds COLD's
//!   (the CI warm-cache gate over two saved `submit --wait` replies).

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;

use diode_bench::{flag_f64, flag_num, flag_str, out, outln};
use diode_obs::{AnomalyReport, Json};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().map(String::as_str) else {
        eprintln!(
            "serve: usage: serve submit|status|watch|metrics|health|shutdown|\
             assert-warmer [FLAGS]"
        );
        std::process::exit(2);
    };
    let addr = flag_str(&args, "--addr").unwrap_or_else(|| "127.0.0.1:7070".to_string());
    match cmd {
        "submit" => {
            let reply = request(&addr, &submit_line(&args));
            outln!("{reply}");
            handle_anomalies(&args, &reply);
            exit_by_ok(&reply);
        }
        "status" => {
            let line = Json::obj()
                .field("op", "status")
                .field_opt("job", flag_str(&args, "--job"));
            let reply = request(&addr, &line.to_string());
            outln!("{reply}");
            exit_by_ok(&reply);
        }
        "watch" => {
            let Some(job) = flag_str(&args, "--job") else {
                eprintln!("serve watch: --job ID is required");
                std::process::exit(2);
            };
            stream_watch(&addr, &job);
        }
        "metrics" => {
            if args.iter().any(|a| a == "--prometheus") {
                let text = request_text(&addr, r#"{"op":"metrics","format":"prometheus"}"#);
                // A disabled registry answers with a one-line rejection.
                if let Ok(j) = Json::parse(text.trim()) {
                    if j.get("ok").and_then(Json::as_bool) == Some(false) {
                        eprintln!("serve: {j}");
                        std::process::exit(1);
                    }
                }
                out!("{text}");
            } else {
                let reply = request(&addr, r#"{"op":"metrics"}"#);
                outln!("{reply}");
                exit_by_ok(&reply);
            }
        }
        "health" => {
            let reply = request(&addr, r#"{"op":"health"}"#);
            outln!("{reply}");
            exit_by_ok(&reply);
            if reply.get("healthy").and_then(Json::as_bool) != Some(true) {
                std::process::exit(1);
            }
        }
        "shutdown" => {
            let reply = request(&addr, r#"{"op":"shutdown"}"#);
            outln!("{reply}");
            exit_by_ok(&reply);
        }
        "assert-warmer" => assert_warmer(&args),
        other => {
            eprintln!("serve: unknown subcommand {other:?}");
            std::process::exit(2);
        }
    }
}

/// Builds a submit request line from the spec/suite flags.
fn submit_line(args: &[String]) -> String {
    let mut obj = Json::obj();
    if let Some(suite) = flag_str(args, "--suite") {
        obj = obj.field("op", "submit").field("suite", suite);
    } else {
        let mut spec = Json::obj();
        for (flag, key) in [
            ("--apps", "apps"),
            ("--depth", "depth"),
            ("--sites", "sites"),
            ("--seeds-per-app", "seeds_per_app"),
            ("--site-work", "site_work"),
            ("--rng-seed", "rng_seed"),
            ("--stall-work", "stall_work"),
        ] {
            if let Some(v) = flag_num::<u64>(args, flag) {
                spec = spec.field(key, v);
            }
        }
        obj = obj.field("op", "submit").field("spec", spec);
    }
    if args.iter().any(|a| a == "--wait") {
        obj = obj.field("wait", true);
    }
    if let Some(t) = flag_num::<u64>(args, "--threads") {
        obj = obj.field("threads", t);
    }
    if let Some(w) = watchdog_json(args) {
        obj = obj.field("watchdog", w);
    }
    obj.to_string()
}

/// The submit request's `watchdog` field from the CLI knobs: `true`
/// for `--watchdog` alone, an override object when thresholds are
/// tuned, absent when neither is given.
fn watchdog_json(args: &[String]) -> Option<Json> {
    let mut overrides = Json::obj();
    let mut tuned = false;
    if let Some(f) = flag_f64(args, "--slow-factor") {
        overrides = overrides.field("slow_factor", f);
        tuned = true;
    }
    if let Some(ms) = flag_num::<u64>(args, "--slow-floor-ms") {
        overrides = overrides.field("slow_floor_ms", ms);
        tuned = true;
    }
    if let Some(n) = flag_num::<u64>(args, "--min-sites") {
        overrides = overrides.field("min_sites", n);
        tuned = true;
    }
    if let Some(n) = flag_num::<u32>(args, "--idle-heartbeats") {
        overrides = overrides.field("idle_heartbeats", n);
        tuned = true;
    }
    if let Some(b) = flag_num::<u64>(args, "--cache-ceiling") {
        overrides = overrides.field("cache_ceiling", b);
        tuned = true;
    }
    if tuned {
        Some(overrides)
    } else if args.iter().any(|a| a == "--watchdog") {
        Some(Json::from(true))
    } else {
        None
    }
}

/// Whether any watchdog knob was passed (the exit-gate opt-in).
fn watchdog_requested(args: &[String]) -> bool {
    args.iter().any(|a| a == "--watchdog") || watchdog_json(args).is_some()
}

/// Applies the `synth_campaign` exit gate to a `submit --wait` reply's
/// `anomalies` array: any anomaly under `--watchdog` exits 1.
fn handle_anomalies(args: &[String], reply: &Json) {
    let anomalies: Vec<AnomalyReport> = reply
        .get("anomalies")
        .and_then(Json::as_arr)
        .map(|rows| {
            rows.iter()
                .filter_map(|row| AnomalyReport::from_json(row).ok())
                .collect()
        })
        .unwrap_or_default();
    if watchdog_requested(args) && !anomalies.is_empty() {
        eprintln!(
            "serve submit: WATCHDOG FAIL: {} anomaly(ies) fired",
            anomalies.len()
        );
        for a in &anomalies {
            eprintln!("  [{}] {}: {}", a.kind.as_str(), a.subject, a.detail);
        }
        std::process::exit(1);
    }
}

/// One request line, one response line.
fn request(addr: &str, line: &str) -> Json {
    let mut conn = connect(addr);
    if let Err(e) = writeln!(conn, "{line}") {
        eprintln!("serve: cannot send to {addr}: {e}");
        std::process::exit(2);
    }
    let mut reply = String::new();
    if let Err(e) = BufReader::new(conn).read_line(&mut reply) {
        eprintln!("serve: cannot read from {addr}: {e}");
        std::process::exit(2);
    }
    match Json::parse(reply.trim()) {
        Ok(j) => j,
        Err(e) => {
            eprintln!("serve: malformed response from {addr}: {e}");
            std::process::exit(2);
        }
    }
}

/// One request line, a free-form text response (the Prometheus
/// exposition is many lines, not one JSON line).
fn request_text(addr: &str, line: &str) -> String {
    let mut conn = connect(addr);
    if let Err(e) = writeln!(conn, "{line}") {
        eprintln!("serve: cannot send to {addr}: {e}");
        std::process::exit(2);
    }
    let mut text = String::new();
    if let Err(e) = BufReader::new(conn).read_to_string(&mut text) {
        eprintln!("serve: cannot read from {addr}: {e}");
        std::process::exit(2);
    }
    text
}

fn connect(addr: &str) -> TcpStream {
    match TcpStream::connect(addr) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("serve: cannot connect to {addr}: {e} (is diode-serve running?)");
            std::process::exit(2);
        }
    }
}

/// Streams a watch to stdout, one line as soon as it arrives. The first
/// line may be a typed rejection (e.g. 404) rather than a telemetry
/// header; detect it and exit 1.
fn stream_watch(addr: &str, job: &str) {
    let mut conn = connect(addr);
    let line = Json::obj().field("op", "watch").field("job", job);
    if let Err(e) = writeln!(conn, "{line}") {
        eprintln!("serve: cannot send to {addr}: {e}");
        std::process::exit(2);
    }
    let mut reader = BufReader::new(conn);
    let mut first = String::new();
    if reader.read_line(&mut first).is_err() || first.trim().is_empty() {
        eprintln!("serve: empty watch stream from {addr}");
        std::process::exit(2);
    }
    if let Ok(j) = Json::parse(first.trim()) {
        if j.get("ok").and_then(Json::as_bool) == Some(false) {
            eprintln!("serve: {j}");
            std::process::exit(1);
        }
    }
    out!("{first}");
    for line in reader.lines() {
        match line {
            Ok(line) => outln!("{line}"),
            Err(e) => {
                eprintln!("serve: watch stream interrupted: {e}");
                std::process::exit(2);
            }
        }
    }
}

fn exit_by_ok(reply: &Json) {
    if reply.get("ok").and_then(Json::as_bool) != Some(true) {
        std::process::exit(1);
    }
}

/// Per-job solver-cache hit rate out of a saved `submit --wait` reply.
fn job_hit_rate(path: &str) -> f64 {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("serve assert-warmer: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    // The reply may be the last line of a log that also carries other
    // output; scan lines from the end for a serve_job report.
    for line in text.lines().rev() {
        if let Ok(j) = Json::parse(line.trim()) {
            if let Some(rate) = j
                .get("cache")
                .and_then(|c| c.get("hit_rate"))
                .and_then(Json::as_f64)
            {
                return rate;
            }
        }
    }
    eprintln!("serve assert-warmer: {path} holds no job report with a cache.hit_rate");
    std::process::exit(2);
}

/// `assert-warmer COLD.json WARM.json`: the warm-cache gate.
fn assert_warmer(args: &[String]) {
    let (Some(cold_path), Some(warm_path)) = (args.get(1), args.get(2)) else {
        eprintln!("serve assert-warmer: usage: serve assert-warmer COLD.json WARM.json");
        std::process::exit(2);
    };
    let (cold, warm) = (job_hit_rate(cold_path), job_hit_rate(warm_path));
    outln!("serve assert-warmer: cold hit rate {cold:.4}, warm {warm:.4}");
    if warm > cold {
        outln!("  warm strictly exceeds cold: PASS");
    } else {
        outln!("  warm does not exceed cold: FAIL");
        std::process::exit(1);
    }
}
