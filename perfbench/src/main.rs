//! The repository's benchmark: one workload per process.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload deep-suite --seed 0 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` the run measures the end-to-end metrics listed in
//! `BENCHMARK.json`, untraced; with `--trace 1` it measures the per-layer
//! metrics by timing the benchmark's own calls into each layer's public
//! functions and folding the spans the program records. Every run checks
//! its outputs (verdicts, fingerprints, deterministic counters). The
//! second-to-last line of standard output is a detail record (host
//! stamp, sample counts, counters); the last line is the result object.

mod daemon;
mod probe;
mod stats;
mod suite;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode};
use std::time::Duration;

use diode_serve::Json;

/// The benchmark definition: the metric names and units printed.
const BENCHMARK: &str = include_str!("../../BENCHMARK.json");
/// Reference fingerprints and exact counters for each workload. The
/// workloads' programs do not depend on the seed, so they hold for every
/// seed.
const BASELINES: &str = include_str!("../baselines.json");

/// Engine threads per campaign, and daemon workers × job threads: all
/// load fits a 2-CPU host.
pub const THREADS: usize = 2;

/// The workloads, in `BENCHMARK.json` order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    DeepSuite,
    GuardChain,
    PaperApps,
    DaemonMixed,
}

impl Workload {
    fn parse(name: &str) -> Option<Workload> {
        match name {
            "deep-suite" => Some(Workload::DeepSuite),
            "guard-chain" => Some(Workload::GuardChain),
            "paper-apps" => Some(Workload::PaperApps),
            "daemon-mixed" => Some(Workload::DaemonMixed),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::DeepSuite => "deep-suite",
            Workload::GuardChain => "guard-chain",
            Workload::PaperApps => "paper-apps",
            Workload::DaemonMixed => "daemon-mixed",
        }
    }
}

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

impl Args {
    fn parse(argv: &[String]) -> Result<Args, String> {
        let value = |flag: &str| -> Result<&str, String> {
            let i = argv
                .iter()
                .position(|a| a == flag)
                .ok_or_else(|| format!("missing {flag}"))?;
            argv.get(i + 1)
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let workload = value("--workload")?;
        let number = |flag: &str| -> Result<u64, String> {
            value(flag)?.parse().map_err(|e| format!("{flag}: {e}"))
        };
        let trace = number("--trace")?;
        if trace > 1 {
            return Err("--trace takes 0 or 1".to_string());
        }
        let seconds = number("--seconds")?;
        if seconds == 0 {
            return Err("--seconds must be at least 1".to_string());
        }
        Ok(Args {
            workload: Workload::parse(workload)
                .ok_or_else(|| format!("unknown workload {workload:?}"))?,
            seed: number("--seed")?,
            seconds: Duration::from_secs(seconds),
            trace: trace == 1,
        })
    }
}

/// Everything one run measured and checked.
#[derive(Debug, Default)]
pub struct Measured {
    metrics: BTreeMap<&'static str, f64>,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    detail: Vec<(String, Json)>,
}

impl Measured {
    /// Records a metric value (a later value for the same name wins).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.metrics.insert(name, value);
    }

    /// Records metrics of a layer this workload does not exercise, as 0.
    pub fn unexercised(&mut self, names: &[&'static str]) {
        for name in names {
            self.set(name, 0.0);
        }
    }

    /// Counts one checked operation, failed unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.check_n(1, u64::from(!ok), what);
    }

    /// Counts `attempted` checked operations of which `failed` failed.
    pub fn check_n(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.failures.len() < 20 {
            self.failures.push(what());
        }
    }

    /// Adds a field to the detail record.
    pub fn note(&mut self, key: &str, value: impl Into<Json>) {
        self.detail.push((key.to_string(), value.into()));
    }

    /// Compares deterministic counters with the stored baseline for this
    /// workload, and notes them.
    ///
    /// `gated` counters define the work itself (steps executed,
    /// candidates, enforcement iterations, jobs): a difference is a
    /// failure. `recorded` counters measure a representation (bytes,
    /// solver search effort): a layer change is expected to move them,
    /// so a difference is reported under `baseline_diff`, not failed.
    pub fn exact_counters(
        &mut self,
        args: &Args,
        gated: &[(&'static str, u64)],
        recorded: &[(&'static str, u64)],
    ) {
        let mut obj = Json::obj();
        for &(name, v) in gated.iter().chain(recorded) {
            obj = obj.field(name, v);
        }
        self.note("exact", obj);
        let Some(base) = baseline(args) else { return };
        let Some(exact) = base.get("exact") else {
            return;
        };
        let mut diff = Json::obj();
        for &(name, v) in gated {
            let want = exact.get(name).and_then(Json::as_u64);
            self.check(want == Some(v), || {
                format!("exact counter {name}: baseline {want:?}, measured {v}")
            });
        }
        for &(name, v) in recorded {
            let want = exact.get(name).and_then(Json::as_u64);
            if want != Some(v) {
                diff = diff.field(
                    name,
                    Json::obj().field("baseline", want).field("measured", v),
                );
            }
        }
        self.note("baseline_diff", diff);
    }

    /// Checks an outcome fingerprint against the stored reference.
    pub fn check_reference_fingerprint(&mut self, args: &Args, fingerprint: &str) {
        let base = baseline(args);
        let Some(want) = base
            .as_ref()
            .and_then(|b| b.get("fingerprint"))
            .and_then(Json::as_str)
        else {
            return;
        };
        self.check(want == fingerprint, || {
            format!("fingerprint {fingerprint} differs from the stored reference {want}")
        });
    }
}

/// This workload's stored baseline.
fn baseline(args: &Args) -> Option<Json> {
    let doc = Json::parse(BASELINES).expect("baselines.json parses");
    doc.get(args.workload.name()).cloned()
}

/// A deterministic 64-bit mixer (SplitMix64): seeds every pseudo-random
/// choice the workloads make, so one `--seed` gives the same inputs.
pub fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Milliseconds as a float.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// Trimmed standard output of a command, when it runs and succeeds.
fn command_output(command: &mut Command) -> Option<String> {
    let out = command.output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// A git command confined to the working directory's own repository:
/// a checkout that is not a repository reports no commit rather than
/// that of a repository enclosing it.
fn git(args: &[&str]) -> Option<String> {
    let cwd = std::env::current_dir().ok()?;
    let mut command = Command::new("git");
    command.args(args);
    if let Some(parent) = cwd.parent() {
        command.env("GIT_CEILING_DIRECTORIES", parent);
    }
    command_output(&mut command)
}

/// Where and on what the result was measured.
fn stamp(args: &Args) -> Json {
    let commit = git(&["rev-parse", "HEAD"]);
    let dirty = commit
        .as_ref()
        .and_then(|_| git(&["status", "--porcelain"]))
        .map(|s| !s.is_empty());
    Json::obj()
        .field("commit", commit.unwrap_or_else(|| "unknown".to_string()))
        .field("dirty", dirty)
        .field(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, usize::from),
        )
        .field(
            "nproc",
            command_output(&mut Command::new("nproc")).and_then(|s| s.parse::<u64>().ok()),
        )
        .field(
            "rustc",
            command_output(Command::new("rustc").arg("--version"))
                .unwrap_or_else(|| "unknown".to_string()),
        )
        .field("workload", args.workload.name())
        .field("seed", args.seed)
        .field("seconds", args.seconds.as_secs())
        .field("trace", args.trace)
        .field("threads", THREADS)
        .field(
            "clients",
            if args.workload == Workload::DaemonMixed {
                daemon::CLIENTS
            } else {
                0
            },
        )
}

/// Prints the detail record and the result line; fails when a metric
/// the benchmark definition lists was not measured.
fn emit(args: &Args, mut m: Measured) -> Result<(), String> {
    let def = Json::parse(BENCHMARK).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = def
        .get(if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        })
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json lacks its metric lists")?;
    if !args.trace {
        let ok = 1.0 - m.failed as f64 / m.attempted.max(1) as f64;
        m.set("ok_share", ok);
    }
    let mut metrics = Json::obj();
    for entry in list {
        let name = entry
            .get("name")
            .and_then(Json::as_str)
            .ok_or("unnamed metric")?;
        let unit = entry
            .get("unit")
            .and_then(Json::as_str)
            .ok_or("metric without unit")?;
        let value = *m
            .metrics
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        metrics = metrics.field(name, Json::obj().field("value", value).field("unit", unit));
    }
    let mut detail = Json::obj().field("stamp", stamp(args));
    for (key, value) in m.detail {
        detail = detail.field(&key, value);
    }
    detail = detail.field("failures", m.failures);
    println!("{detail}");
    let result = Json::obj()
        .field("correct", m.failed == 0 && m.attempted > 0)
        .field("attempted", m.attempted.max(1))
        .field("failed", m.failed)
        .field("metrics", metrics);
    println!("{result}");
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <deep-suite|guard-chain|paper-apps|daemon-mixed> \
                 --seed <n> --seconds <n> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    let mut m = Measured::default();
    let run = match args.workload {
        Workload::DaemonMixed => daemon::run(&args, &mut m),
        _ => suite::run(&args, &mut m),
    };
    match run.and_then(|()| emit(&args, m)) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
