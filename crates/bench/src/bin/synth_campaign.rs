//! Campaign-scale benchmarking on forged suites: forge N applications
//! with a by-construction oracle, run them through the engine, and grade
//! the report for recall/precision — the workload generator the five §5
//! apps can never provide.
//!
//! Usage: `cargo run --release -p diode-bench --bin synth_campaign [-- FLAGS]`
//!
//! * `--apps N`          forged applications (default 25)
//! * `--depth D`         guard-chain depth per site (default 3)
//! * `--seed S`          forge RNG seed (default from `SynthConfig`)
//! * `--seeds-per-app K` seed inputs per app (default 1)
//! * `--min-recall F`    recall gate in `[0, 1]` (default 1.0). At 1.0
//!   the gate additionally demands exact three-way classification (the
//!   historical perfect-recall behaviour); below 1.0 only recall is
//!   gated. The achieved recall is printed either way.
//! * `--sites N`         pin planted sites per app (min = max = N)
//! * `--site-work N`     per-site prefix work loop iterations (default 0)
//! * `--trace PATH`      record a structured `diode-obs` trace of the
//!   campaign and write it to PATH as versioned JSONL (fold it with the
//!   `profile` bin)
//! * `--profile`         run with tracing and print the per-phase /
//!   per-site breakdown after the campaign (adds a `profile` field in
//!   `--json` mode)
//! * `--audit PATH`      record decision provenance — the extraction,
//!   solver queries, enforcement steps, and verdict behind every site —
//!   and write the `diode_audit` document to PATH (inspect it with the
//!   `audit` bin)
//! * `--progress`        print one `[live]` line per finished site to
//!   stderr, with the live solver-cache hit rate and snapshot resume
//!   rate, from a pump on the diode-pulse bus
//! * `--telemetry PATH`  attach the diode-pulse bus and write the full
//!   event stream (progress events + heartbeats) to PATH as versioned
//!   telemetry JSONL, followed by the anomaly records the watchdog
//!   raised over it — replay it with the `watch` bin
//! * `--watchdog`        exit non-zero if the stall/anomaly watchdog
//!   raises any anomaly over the pulse stream (implies attaching the
//!   bus; CI's zero-anomaly gate). The watchdog runs whenever
//!   `--telemetry` or `--watchdog` is set.
//! * `--heartbeat-ms N`  heartbeat sampling interval (default 50)
//! * `--json`            machine-readable output (throughput, cache
//!   hit/miss counters, recall/precision) in the BENCH json schema
//! * `--threads N`       pin the engine's worker count
//!
//! Exits non-zero when the recall gate fails — this is the CI
//! `synth-smoke` gate — or when `--watchdog` sees an anomaly.

use std::sync::Arc;
use std::time::{Duration, Instant};

use diode_bench::jsonout::{counts_json, ms, score_json};
use diode_bench::profload::audit_document;
use diode_bench::{execution_mode, flag_f64, flag_num, flag_str, outln, render_synth, synth_rows};
use diode_engine::{
    CampaignReport, CampaignSpec, PulseConfig, Recorder, SnapshotCache, SolverCache,
};
use diode_obs::{
    Json, ProfileReport, PulseBus, PulseEvent, TelemetryLog, Trace, Watchdog, WatchdogConfig,
};
use diode_synth::{forge, score, ScoreCard, SynthConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let mode = execution_mode(&args);

    let apps = flag_num::<usize>(&args, "--apps").unwrap_or(25);
    if apps == 0 {
        eprintln!("--apps must be at least 1");
        std::process::exit(2);
    }
    let min_recall = flag_f64(&args, "--min-recall").unwrap_or(1.0);
    if !(0.0..=1.0).contains(&min_recall) {
        eprintln!("--min-recall must lie in [0, 1], got {min_recall}");
        std::process::exit(2);
    }
    let mut cfg = SynthConfig::default()
        .with_apps(apps)
        .with_depth(flag_num(&args, "--depth").unwrap_or(3));
    if let Some(seed) = flag_num(&args, "--seed") {
        cfg = cfg.with_rng_seed(seed);
    }
    if let Some(k) = flag_num::<usize>(&args, "--seeds-per-app") {
        cfg.seeds_per_app = k.max(1);
    }
    if let Some(n) = flag_num::<usize>(&args, "--sites") {
        let n = n.max(1);
        cfg.min_sites = n;
        cfg.max_sites = n;
    }
    if let Some(w) = flag_num(&args, "--site-work") {
        cfg.site_work = w;
    }

    let forge_start = Instant::now();
    let suite = forge(&cfg);
    let forge_time = forge_start.elapsed();

    let trace_path = flag_str(&args, "--trace");
    let audit_path = flag_str(&args, "--audit");
    let profile = args.iter().any(|a| a == "--profile");
    let progress = args.iter().any(|a| a == "--progress");
    let recorder = (trace_path.is_some() || profile || audit_path.is_some()).then(|| {
        let mut r = Recorder::new();
        if audit_path.is_some() {
            r = r.with_audit();
        }
        Arc::new(r)
    });
    let pulse_opts = PulseOpts::from_args(&args);
    let mut spec = CampaignSpec {
        mode,
        recorder: recorder.clone(),
        ..CampaignSpec::from_corpus(&suite)
    };
    let capture = (pulse_opts.enabled() || progress).then(|| {
        PulseCapture::start(
            pulse_opts.heartbeat,
            progress.then(|| LiveProgress::of(&spec)),
        )
    });
    spec.pulse = capture.as_ref().map(|c| c.config.clone());
    let report = spec.run();
    let card = score(&report, &suite.oracle);
    let pulse_outcome = capture
        .map(|c| c.finish(report.threads))
        .filter(|_| pulse_opts.enabled());
    let trace = recorder.as_ref().map(|r| stamped_trace(r, &report));
    if let (Some(path), Some(trace)) = (&trace_path, &trace) {
        write_trace(path, trace);
    }
    if let Some(path) = &audit_path {
        write_audit(path, &report, json);
    }
    let rows = synth_rows(&report, &suite.oracle);

    let wall_s = report.wall_time.as_secs_f64().max(1e-9);
    let sites = report.counts().0;
    let units = report.units.len();
    let passed = gate_passes(&card, min_recall);

    if json {
        let mut out = Json::obj()
            .field("table", "synth_campaign")
            .field("config", config_json(&cfg))
            .field("forge_ms", ms(forge_time))
            .field("wall_ms", ms(report.wall_time))
            .field("threads", report.threads)
            .field("jobs", report.jobs)
            .field(
                "throughput",
                Json::obj()
                    .field("sites_per_sec", sites as f64 / wall_s)
                    .field("units_per_sec", units as f64 / wall_s),
            )
            .field("cache", report.cache)
            .field("snapshots", report.snapshots)
            .field("peak_heap_bytes", report.peak_heap_bytes)
            .field("counts", counts_json(report.counts()))
            .field("oracle", counts_json(suite.oracle.expected_counts()))
            .field("score", score_json(&card))
            .field(
                "gate",
                Json::obj()
                    .field("min_recall", min_recall)
                    .field("achieved_recall", card.recall())
                    .field("passed", passed),
            );
        if let Some(trace) = &trace {
            if profile {
                out = out.field("profile", ProfileReport::from_trace(trace, 10).to_json());
            }
        }
        if let Some(outcome) = &pulse_outcome {
            out = out.field("telemetry", outcome.json());
        }
        outln!("{out}");
    } else {
        outln!(
            "Forged campaign: {} apps x {} seed(s), depth {}, rng seed {:#x}\n",
            cfg.apps,
            cfg.seeds_per_app,
            cfg.branch_depth,
            cfg.rng_seed
        );
        outln!("{}", render_synth(&rows));
        outln!(
            "Forged in {:.1}ms, analyzed {} sites in {} units in {:.1}ms \
             ({:.0} sites/s on {} thread(s), {} jobs)",
            forge_time.as_secs_f64() * 1e3,
            sites,
            units,
            wall_s * 1e3,
            sites as f64 / wall_s,
            report.threads,
            report.jobs,
        );
        if let Some(stats) = report.cache {
            outln!(
                "Solver cache: {} hits / {} misses ({:.0}% hit rate, {} entries)",
                stats.hits,
                stats.misses,
                stats.hit_rate() * 100.0,
                stats.entries
            );
        }
        if let Some(stats) = report.snapshots {
            outln!(
                "Prefix snapshots: {} resumed / {} candidate runs ({} captured, {} held)",
                stats.resumes,
                stats.hits + stats.misses,
                stats.captures,
                stats.entries
            );
        }
        outln!("Score vs oracle: {card}");
        for m in &card.mismatches {
            outln!("  MISMATCH {m}");
        }
        outln!(
            "Achieved recall {:.3} against gate {:.3}: {}",
            card.recall(),
            min_recall,
            if passed { "PASS" } else { "FAIL" }
        );
        if min_recall >= 1.0 && !card.is_perfect() {
            outln!("RESULT: MISCLASSIFICATION against the forge oracle.");
        }
        if let Some(trace) = &trace {
            if profile {
                outln!("\n{}", ProfileReport::from_trace(trace, 10).render());
            }
            if let Some(path) = &trace_path {
                outln!("Wrote JSONL trace to {path}");
            }
        }
    }
    let watchdog_ok = pulse_outcome
        .as_ref()
        .is_none_or(|o| o.emit(&pulse_opts, json));
    if !passed || !watchdog_ok {
        std::process::exit(1);
    }
}

fn config_json(cfg: &SynthConfig) -> Json {
    Json::obj()
        .field("apps", cfg.apps)
        .field("depth", cfg.branch_depth)
        .field("sites_min", cfg.min_sites)
        .field("sites_max", cfg.max_sites)
        .field("site_work", cfg.site_work)
        .field("seeds_per_app", cfg.seeds_per_app)
        .field("rng_seed", cfg.rng_seed)
}

/// The telemetry CLI surface.
struct PulseOpts {
    telemetry_path: Option<String>,
    watchdog: bool,
    heartbeat: Duration,
}

impl PulseOpts {
    fn from_args(args: &[String]) -> PulseOpts {
        PulseOpts {
            telemetry_path: flag_str(args, "--telemetry"),
            watchdog: args.iter().any(|a| a == "--watchdog"),
            heartbeat: Duration::from_millis(
                flag_num::<u64>(args, "--heartbeat-ms").unwrap_or(50).max(1),
            ),
        }
    }

    /// True when any telemetry flag is set.
    fn enabled(&self) -> bool {
        self.telemetry_path.is_some() || self.watchdog
    }
}

/// A pulse subscriber pump: takes events off the bus on a side thread,
/// blocking until the campaign's `finished` event closes it, so even very
/// long runs never fill the bounded channel. With `--progress` it also
/// prints each finished site as it arrives.
struct PulseCapture {
    config: PulseConfig,
    pump: std::thread::JoinHandle<(Vec<PulseEvent>, u64)>,
}

impl PulseCapture {
    fn start(heartbeat: Duration, progress: Option<LiveProgress>) -> PulseCapture {
        let bus = Arc::new(PulseBus::new());
        let sub = bus.subscribe(1 << 14);
        let pump = std::thread::spawn(move || {
            let mut events = Vec::new();
            while let Some(ev) = sub.recv() {
                if let Some(progress) = &progress {
                    progress.print(&ev);
                }
                events.push(ev);
            }
            (events, sub.dropped())
        });
        let mut config = PulseConfig::new(bus);
        config.heartbeat = heartbeat;
        PulseCapture { config, pump }
    }

    /// Joins the pump (the campaign must have finished, so the
    /// `finished` event is guaranteed to arrive) and runs the watchdog
    /// plus peak-byte bookkeeping over the captured stream.
    fn finish(self, threads: usize) -> PulseOutcome {
        let (events, dropped) = self.pump.join().expect("telemetry pump panicked");
        let mut watchdog = Watchdog::new(WatchdogConfig::default());
        let mut heartbeats = 0u64;
        let mut peak_cache_bytes = 0u64;
        let mut peak_snapshot_bytes = 0u64;
        let mut peak_heap_bytes = 0u64;
        for ev in &events {
            watchdog.feed(ev);
            match ev {
                PulseEvent::Heartbeat(hb) => {
                    heartbeats += 1;
                    peak_cache_bytes = peak_cache_bytes.max(hb.cache_bytes);
                    peak_snapshot_bytes = peak_snapshot_bytes.max(hb.snapshot_bytes);
                    peak_heap_bytes = peak_heap_bytes.max(hb.interp_peak_heap_bytes);
                }
                PulseEvent::SiteFinished {
                    cache_bytes,
                    snapshot_bytes,
                    peak_heap_bytes: site_peak,
                    ..
                } => {
                    peak_cache_bytes = peak_cache_bytes.max(*cache_bytes);
                    peak_snapshot_bytes = peak_snapshot_bytes.max(*snapshot_bytes);
                    peak_heap_bytes = peak_heap_bytes.max(*site_peak);
                }
                _ => {}
            }
        }
        PulseOutcome {
            log: TelemetryLog {
                threads: threads as u32,
                events,
                anomalies: watchdog.finish(),
                ..TelemetryLog::default()
            },
            dropped,
            heartbeats,
            peak_cache_bytes,
            peak_snapshot_bytes,
            peak_heap_bytes,
        }
    }
}

/// Everything the campaign's pulse stream yielded, post-processed: the
/// stream with the watchdog's anomalies, and its peaks.
struct PulseOutcome {
    log: TelemetryLog,
    dropped: u64,
    heartbeats: u64,
    peak_cache_bytes: u64,
    peak_snapshot_bytes: u64,
    peak_heap_bytes: u64,
}

impl PulseOutcome {
    /// Writes the requested telemetry file, prints the human digest
    /// unless `json`, and returns `false` when `--watchdog` gates and an
    /// anomaly fired.
    fn emit(&self, opts: &PulseOpts, json: bool) -> bool {
        let anomalies = &self.log.anomalies;
        if let Some(path) = &opts.telemetry_path {
            if let Err(e) = std::fs::write(path, self.log.to_jsonl()) {
                eprintln!("synth_campaign: cannot write {path}: {e}");
                std::process::exit(2);
            }
            if !json {
                outln!(
                    "Wrote telemetry JSONL ({} event(s), {} heartbeat(s), {} drop(s), \
                     {} anomaly(ies)) to {path}",
                    self.log.events.len(),
                    self.heartbeats,
                    self.dropped,
                    anomalies.len()
                );
            }
        }
        if !json && opts.watchdog {
            if anomalies.is_empty() {
                outln!("Watchdog: no anomalies");
            } else {
                outln!("Watchdog: {} anomaly(ies)", anomalies.len());
                for a in anomalies {
                    outln!("  [{}] {}: {}", a.kind.as_str(), a.subject, a.detail);
                }
            }
        }
        !opts.watchdog || anomalies.is_empty()
    }

    /// The `--json` summary of the stream.
    fn json(&self) -> Json {
        Json::obj()
            .field("events", self.log.events.len())
            .field("heartbeats", self.heartbeats)
            .field("dropped", self.dropped)
            .field("peak_cache_bytes", self.peak_cache_bytes)
            .field("peak_snapshot_bytes", self.peak_snapshot_bytes)
            .field("peak_heap_bytes", self.peak_heap_bytes)
            .field("anomalies", self.log.anomalies.len())
            .field("host_parallelism", host_parallelism())
    }
}

/// Cores the host actually offers — the context for any wall-clock
/// number in the `--json` output (a 1-core container cannot speed up at
/// 2 threads no matter what the scheduler does).
fn host_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// `--progress`: one stderr line per finished site, with the live
/// shared-cache hit rate and snapshot resume rate read as each event
/// arrives.
struct LiveProgress {
    cache: Option<Arc<SolverCache>>,
    snapshots: Option<Arc<SnapshotCache>>,
}

impl LiveProgress {
    fn of(spec: &CampaignSpec) -> LiveProgress {
        LiveProgress {
            cache: spec.config.query_cache.clone(),
            snapshots: spec.snapshot_cache.clone(),
        }
    }

    fn print(&self, event: &PulseEvent) {
        if let PulseEvent::SiteFinished {
            app,
            site,
            outcome,
            wall_ns,
            ..
        } = event
        {
            // Outcome tokens (`target-unsat`, `prevented:budget`, ...)
            // print as their Table 1 class.
            let kind = match outcome.as_str() {
                "target-unsat" => "unsat",
                t if t.starts_with("prevented") => "prevented",
                t => t,
            };
            let cache = self
                .cache
                .as_ref()
                .map(|c| format!("  cache {:.0}% hit", c.stats().hit_rate() * 100.0))
                .unwrap_or_default();
            let snapshots = self
                .snapshots
                .as_ref()
                .map(|s| format!("  resume {:.0}%", s.stats().resume_rate() * 100.0))
                .unwrap_or_default();
            eprintln!(
                "[live] {app}/{site}: {kind} in {:.1}ms{cache}{snapshots}",
                *wall_ns as f64 / 1e6,
            );
        }
    }
}

/// The recorder's merged trace, stamped with the campaign's wall time
/// and thread count so folded reports can compute coverage.
fn stamped_trace(recorder: &Recorder, report: &CampaignReport) -> Trace {
    let mut trace = recorder.trace();
    trace.wall_ns = Some(report.wall_time.as_nanos() as u64);
    trace.threads = Some(report.threads as u32);
    trace
}

fn write_trace(path: &str, trace: &Trace) {
    if let Err(e) = std::fs::write(path, trace.to_jsonl()) {
        eprintln!("synth_campaign: cannot write {path}: {e}");
        std::process::exit(2);
    }
}

/// `--audit PATH`: writes the report's provenance records as a
/// `diode_audit` document for the `audit` bin.
fn write_audit(path: &str, report: &CampaignReport, json: bool) {
    let records = report.provenance.as_deref().unwrap_or(&[]);
    let doc = audit_document(records, report.threads);
    if let Err(e) = std::fs::write(path, format!("{doc}\n")) {
        eprintln!("synth_campaign: cannot write {path}: {e}");
        std::process::exit(2);
    }
    if !json {
        outln!(
            "Wrote audit document ({} provenance record(s)) to {path}",
            records.len()
        );
    }
}

/// The recall gate. At the default (and maximum) threshold of 1.0 the
/// historical behaviour is preserved: every site must classify exactly
/// (a false negative is never an exact match, so perfection subsumes
/// recall). Below 1.0 only recall is gated, so CI can tolerate a
/// configured miss budget while still printing the achieved number.
fn gate_passes(card: &ScoreCard, min_recall: f64) -> bool {
    if min_recall >= 1.0 {
        card.is_perfect()
    } else {
        card.recall() >= min_recall
    }
}
