//! watch — render a diode-pulse telemetry stream as a campaign summary.
//!
//! Two modes over the same renderer:
//!
//! * `watch --replay PATH` parses a recorded telemetry JSONL (written by
//!   `synth_campaign --telemetry PATH`, saved from `serve watch`, or a
//!   flight dump `diode-serve` cut when a watchdog anomaly fired or a
//!   job failed) and prints the per-worker / per-outcome /
//!   cache-pressure summary plus the stream's anomalies.
//! * `watch --follow` reads a stream on stdin (`serve watch --job J |
//!   watch --follow`), printing each site completion as its line
//!   arrives, and renders the summary at EOF. A stream that ends before
//!   its `finished` record exits 1.
//!
//! A stream that carries its own verdict (a flight dump's incident
//! header, or any `anomaly` record) is shown with those anomalies: the
//! job that wrote them may have run under other thresholds. A flight
//! dump's header is printed first. Over any other stream the watchdog
//! runs with thresholds that mirror the library defaults and can be
//! tuned with `--slow-factor F`, `--slow-floor-ms N`, `--min-sites N`,
//! `--idle-heartbeats N` (0 disables), `--cache-ceiling BYTES`.
//! `--fail-on-anomaly` turns any anomaly into exit code 1 (the CI
//! gate). `--json` emits the whole summary as one JSON object instead
//! of text.

use std::collections::BTreeMap;
use std::io::BufRead;

use diode_bench::{flag_f64, flag_num, flag_str, outln};
use diode_obs::{
    AnomalyReport, Json, PulseEvent, TelemetryLog, Watchdog, WatchdogConfig, WorkerState,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let json = args.iter().any(|a| a == "--json");
    let replay = flag_str(&args, "--replay");
    let follow = args.iter().any(|a| a == "--follow");
    let config = watchdog_config(&args);
    let fail_on_anomaly = args.iter().any(|a| a == "--fail-on-anomaly");

    let log = match (replay, follow) {
        (Some(path), false) => replay_log(&path),
        (None, true) => follow_log(json),
        _ => {
            eprintln!("watch: pass exactly one of --replay PATH or --follow");
            std::process::exit(2);
        }
    };
    if let (Some(job), Some(reason), false) = (&log.job, &log.reason, json) {
        outln!(
            "flight: job {job} dumped ({reason}), {} event(s)",
            log.events.len()
        );
    }
    let anomalies = if log.job.is_some() || !log.anomalies.is_empty() {
        log.anomalies.clone()
    } else {
        run_watchdog(&log, config)
    };
    let summary = Summary::from_log(&log);
    if json {
        outln!("{}", summary.to_json(&anomalies));
    } else {
        summary.render(&anomalies);
    }
    let cut = follow && summary.finished.is_none();
    if cut {
        eprintln!("watch: the stream ended before its finished record");
    }
    if cut || (fail_on_anomaly && !anomalies.is_empty()) {
        std::process::exit(1);
    }
}

fn replay_log(path: &str) -> TelemetryLog {
    let text = match std::fs::read_to_string(path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("watch: cannot read {path}: {e}");
            std::process::exit(2);
        }
    };
    match TelemetryLog::from_jsonl(&text) {
        Ok(log) => log,
        Err(e) => {
            eprintln!("watch: {path}: {e}");
            std::process::exit(2);
        }
    }
}

/// Reads a stream from stdin line by line until EOF, narrating each
/// event as its line arrives (unless `json`).
fn follow_log(json: bool) -> TelemetryLog {
    let fail = |e: String| -> ! {
        eprintln!("watch: stdin: {e}");
        std::process::exit(2);
    };
    let mut lines = std::io::stdin()
        .lock()
        .lines()
        .enumerate()
        .map(|(i, line)| (i + 1, line.unwrap_or_else(|e| fail(e.to_string()))))
        .filter(|(_, line)| !line.trim().is_empty());
    let header = lines.next().map(|(_, line)| line).unwrap_or_default();
    let mut log = TelemetryLog::from_jsonl(&header).unwrap_or_else(|e| fail(e));
    for (lineno, line) in lines {
        let events = log.events.len();
        if let Err(e) = log.read_record(&line) {
            fail(format!("telemetry line {lineno}: {e}"));
        }
        if let (Some(event), false) = (log.events.get(events), json) {
            if let Some(text) = live_line(event) {
                outln!("{text}");
            }
        }
    }
    log
}

/// One-line live narration for follow mode; unit starts and heartbeats
/// stay silent — the summary covers them.
fn live_line(event: &PulseEvent) -> Option<String> {
    match event {
        PulseEvent::SitesIdentified { app, seed, sites } => {
            Some(format!("identified {app}/{seed}: {sites} site(s)"))
        }
        PulseEvent::SiteFinished {
            app,
            seed,
            site,
            outcome,
            wall_ns,
            ..
        } => Some(format!(
            "site {app}/{seed}/{site}: {outcome} in {}",
            fmt_ms(*wall_ns)
        )),
        PulseEvent::Finished {
            wall_ns,
            sites,
            exposed,
        } => Some(format!(
            "finished: {sites} site(s), {exposed} exposed, wall {}",
            fmt_ms(*wall_ns)
        )),
        PulseEvent::UnitStarted { .. } | PulseEvent::Heartbeat(_) => None,
    }
}

fn watchdog_config(args: &[String]) -> WatchdogConfig {
    let mut config = WatchdogConfig::default();
    if let Some(f) = flag_f64(args, "--slow-factor") {
        config.slow_site_factor = f;
    }
    if let Some(ms) = flag_num::<u64>(args, "--slow-floor-ms") {
        let Some(ns) = ms.checked_mul(1_000_000) else {
            eprintln!("--slow-floor-ms expects a number, got {ms} (too large to count in ns)");
            std::process::exit(2);
        };
        config.slow_site_floor_ns = ns;
    }
    if let Some(n) = flag_num(args, "--min-sites") {
        config.min_sites_for_median = n;
    }
    if let Some(n) = flag_num(args, "--idle-heartbeats") {
        config.idle_heartbeats = n;
    }
    if let Some(b) = flag_num(args, "--cache-ceiling") {
        config.cache_ceiling_bytes = Some(b);
    }
    config
}

fn run_watchdog(log: &TelemetryLog, config: WatchdogConfig) -> Vec<AnomalyReport> {
    let mut watchdog = Watchdog::new(config);
    for event in &log.events {
        watchdog.feed(event);
    }
    watchdog.finish()
}

/// Per-outcome aggregate over finished sites.
#[derive(Default)]
struct OutcomeAgg {
    count: u64,
    total_ns: u64,
    max_ns: u64,
}

/// Per-worker busy tally over heartbeats.
#[derive(Default, Clone)]
struct WorkerAgg {
    unit: u64,
    site: u64,
    sampled: u64,
}

/// Everything the renderer needs, folded out of one telemetry stream.
struct Summary {
    threads: u32,
    events: usize,
    heartbeats: u64,
    units: u64,
    sites_identified: u64,
    workers: Vec<WorkerAgg>,
    outcomes: BTreeMap<String, OutcomeAgg>,
    slowest: Vec<(String, String, u64)>,
    max_queued: u64,
    steals: u64,
    jobs_done: u64,
    peak_cache_bytes: u64,
    peak_snapshot_bytes: u64,
    peak_heap_bytes: u64,
    finished: Option<(u64, u64, u64)>,
}

impl Summary {
    fn from_log(log: &TelemetryLog) -> Summary {
        let mut s = Summary {
            threads: log.threads,
            events: log.events.len(),
            heartbeats: 0,
            units: 0,
            sites_identified: 0,
            // Grown from the heartbeats read, never sized by the header.
            workers: Vec::new(),
            outcomes: BTreeMap::new(),
            slowest: Vec::new(),
            max_queued: 0,
            steals: 0,
            jobs_done: 0,
            peak_cache_bytes: 0,
            peak_snapshot_bytes: 0,
            peak_heap_bytes: 0,
            finished: None,
        };
        for event in &log.events {
            match event {
                PulseEvent::UnitStarted { .. } => s.units += 1,
                PulseEvent::SitesIdentified { sites, .. } => s.sites_identified += sites,
                PulseEvent::SiteFinished {
                    app,
                    seed,
                    site,
                    outcome,
                    wall_ns,
                    cache_bytes,
                    snapshot_bytes,
                    peak_heap_bytes,
                } => {
                    let agg = s.outcomes.entry(outcome.clone()).or_default();
                    agg.count += 1;
                    agg.total_ns += wall_ns;
                    agg.max_ns = agg.max_ns.max(*wall_ns);
                    s.slowest
                        .push((format!("{app}/{seed}/{site}"), outcome.clone(), *wall_ns));
                    s.peak_cache_bytes = s.peak_cache_bytes.max(*cache_bytes);
                    s.peak_snapshot_bytes = s.peak_snapshot_bytes.max(*snapshot_bytes);
                    s.peak_heap_bytes = s.peak_heap_bytes.max(*peak_heap_bytes);
                }
                PulseEvent::Heartbeat(hb) => {
                    s.heartbeats += 1;
                    if s.workers.len() < hb.workers.len() {
                        s.workers.resize(hb.workers.len(), WorkerAgg::default());
                    }
                    for (i, state) in hb.workers.iter().enumerate() {
                        let agg = &mut s.workers[i];
                        agg.sampled += 1;
                        match state {
                            WorkerState::Idle => {}
                            WorkerState::Unit { .. } => agg.unit += 1,
                            WorkerState::Site { .. } => agg.site += 1,
                        }
                    }
                    s.max_queued = s.max_queued.max(hb.queued);
                    s.steals = s.steals.max(hb.steals);
                    s.jobs_done = s.jobs_done.max(hb.jobs_done);
                    s.peak_cache_bytes = s.peak_cache_bytes.max(hb.cache_bytes);
                    s.peak_snapshot_bytes = s.peak_snapshot_bytes.max(hb.snapshot_bytes);
                    s.peak_heap_bytes = s.peak_heap_bytes.max(hb.interp_peak_heap_bytes);
                }
                PulseEvent::Finished {
                    wall_ns,
                    sites,
                    exposed,
                } => s.finished = Some((*wall_ns, *sites, *exposed)),
            }
        }
        s.slowest.sort_by(|a, b| b.2.cmp(&a.2).then(a.0.cmp(&b.0)));
        s.slowest.truncate(5);
        s
    }

    fn render(&self, anomalies: &[AnomalyReport]) {
        match self.finished {
            Some((wall, sites, exposed)) => outln!(
                "watch: {sites} site(s), {exposed} exposed, wall {}, {} worker(s), \
                 {} heartbeat(s), {} event(s)",
                fmt_ms(wall),
                self.threads,
                self.heartbeats,
                self.events
            ),
            None => outln!(
                "watch: stream still running — {} worker(s), {} heartbeat(s), {} event(s)",
                self.threads,
                self.heartbeats,
                self.events
            ),
        }
        outln!(
            "  progress: {} unit(s) started, {} site(s) identified; \
             scheduler max queue {}, {} steal(s), {} job(s) done",
            self.units,
            self.sites_identified,
            self.max_queued,
            self.steals,
            self.jobs_done
        );
        for (i, w) in self.workers.iter().enumerate() {
            let pct = |n: u64| {
                if w.sampled == 0 {
                    0.0
                } else {
                    n as f64 * 100.0 / w.sampled as f64
                }
            };
            outln!(
                "  worker {i}: busy {:.0}% of {} sample(s) (site {:.0}%, unit {:.0}%)",
                pct(w.unit + w.site),
                w.sampled,
                pct(w.site),
                pct(w.unit)
            );
        }
        outln!("  outcomes:");
        for (outcome, agg) in &self.outcomes {
            let mean = agg.total_ns / agg.count.max(1);
            outln!(
                "    {outcome}: {} site(s), mean {}, max {}",
                agg.count,
                fmt_ms(mean),
                fmt_ms(agg.max_ns)
            );
        }
        if !self.slowest.is_empty() {
            outln!("  slowest sites:");
            for (subject, outcome, wall) in &self.slowest {
                outln!("    {subject}: {} ({outcome})", fmt_ms(*wall));
            }
        }
        outln!(
            "  cache pressure: solver {} peak, snapshots {} peak, interp heap {} peak",
            fmt_bytes(self.peak_cache_bytes),
            fmt_bytes(self.peak_snapshot_bytes),
            fmt_bytes(self.peak_heap_bytes)
        );
        if anomalies.is_empty() {
            outln!("  watchdog: no anomalies");
        } else {
            outln!("  watchdog: {} anomaly(ies)", anomalies.len());
            for a in anomalies {
                outln!("    [{}] {}: {}", a.kind.as_str(), a.subject, a.detail);
            }
        }
    }

    fn to_json(&self, anomalies: &[AnomalyReport]) -> Json {
        let workers: Vec<Json> = self
            .workers
            .iter()
            .enumerate()
            .map(|(i, w)| {
                Json::obj()
                    .field("worker", i)
                    .field("sampled", w.sampled)
                    .field("unit", w.unit)
                    .field("site", w.site)
            })
            .collect();
        let outcomes: Vec<Json> = self
            .outcomes
            .iter()
            .map(|(outcome, agg)| {
                Json::obj()
                    .field("outcome", outcome.as_str())
                    .field("count", agg.count)
                    .field(
                        "mean_ms",
                        agg.total_ns as f64 / agg.count.max(1) as f64 / 1e6,
                    )
                    .field("max_ms", agg.max_ns as f64 / 1e6)
            })
            .collect();
        let slowest: Vec<Json> = self
            .slowest
            .iter()
            .map(|(subject, outcome, wall)| {
                Json::obj()
                    .field("site", subject.as_str())
                    .field("outcome", outcome.as_str())
                    .field("wall_ms", *wall as f64 / 1e6)
            })
            .collect();
        let anomaly_rows: Vec<Json> = anomalies.iter().map(AnomalyReport::to_json).collect();
        let finished = self.finished.map(|(wall, sites, exposed)| {
            Json::obj()
                .field("wall_ms", wall as f64 / 1e6)
                .field("sites", sites)
                .field("exposed", exposed)
        });
        Json::obj()
            .field("table", "pulse_watch")
            .field("threads", self.threads)
            .field("events", self.events)
            .field("heartbeats", self.heartbeats)
            .field("units", self.units)
            .field("sites_identified", self.sites_identified)
            .field("finished", finished)
            .field("workers", workers)
            .field("outcomes", outcomes)
            .field("slowest", slowest)
            .field("max_queued", self.max_queued)
            .field("steals", self.steals)
            .field("jobs_done", self.jobs_done)
            .field("peak_cache_bytes", self.peak_cache_bytes)
            .field("peak_snapshot_bytes", self.peak_snapshot_bytes)
            .field("peak_heap_bytes", self.peak_heap_bytes)
            .field("anomalies", anomaly_rows)
    }
}

fn fmt_ms(ns: u64) -> String {
    format!("{:.1}ms", ns as f64 / 1e6)
}

fn fmt_bytes(b: u64) -> String {
    if b >= 1 << 20 {
        format!("{:.1}MiB", b as f64 / (1u64 << 20) as f64)
    } else if b >= 1 << 10 {
        format!("{:.1}KiB", b as f64 / 1024.0)
    } else {
        format!("{b}B")
    }
}
