//! The resident daemon: a bounded per-worker job queue in front of the
//! campaign engine, with process-lifetime solver and snapshot caches
//! shared across every job.
//!
//! ## Cache-sharing discipline
//!
//! The solver cache is content-addressed (structural constraint
//! fingerprints), so sharing one [`SolverCache`] across jobs is always
//! sound. The snapshot cache is keyed per `(app, seed)` unit by a
//! fingerprint of the unit's program text and seed bytes, so two
//! different suites share prefixes only for byte-identical units.
//! Outcomes stay byte-identical to a cold one-shot run — warm caches
//! change wall time, never classification.
//!
//! ## Backpressure
//!
//! Admission is bounded per worker: a submit that lands on a worker
//! whose queue is full is rejected with a typed `429 queue_full` line
//! instead of queueing unboundedly. Each job's one pump and every watch
//! subscriber read the pulse bus through bounded channels, blocking in
//! `recv` until the bus closes — a slow client drops events, never
//! stalls the campaign (the `diode-obs` invariant). Every way a job ends
//! closes its bus, so no consumer outlives its job.

use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use diode_corpus::CorpusStore;
use diode_engine::{
    scheduler, CacheStats, CampaignApp, CampaignReport, CampaignSpec, ExecutionMode, PulseBus,
    PulseConfig, PulseEvent, SnapshotCache, SnapshotStats, SolverCache,
};
use diode_obs::{
    fnv64_hex, pulse_event_lines, telemetry_header, AnomalyReport, Counter, Histogram, Json,
    MetricsRegistry, Phase, PhaseBreakdown, Recorder, TelemetryLog, Watchdog, WatchdogConfig,
    METRICS_SCHEMA_VERSION, TELEMETRY_SCHEMA_VERSION,
};
use diode_synth::{forge, forge_stall, score, Fnv64, SynthConfig, SynthOracle};

use crate::protocol::{
    parse_request, reject, spec_json, JobSource, Request, MAX_REQUEST_LINE, PROTOCOL_VERSION,
    REQUEST_READ_TIMEOUT,
};

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Worker-pool size: campaigns running concurrently.
    pub workers: usize,
    /// Bounded per-worker queue depth; admission beyond it is a `429`.
    pub queue_depth: usize,
    /// Corpus root for `{"suite": ...}` jobs (`None`: forge-only).
    pub corpus_root: Option<PathBuf>,
    /// Heartbeat sampling interval for per-job pulse telemetry.
    pub heartbeat: Duration,
    /// Service-level metrics registry (the `metrics` op). Strictly
    /// passive: campaign outcomes are byte-identical either way.
    pub metrics: bool,
    /// Directory for flight dumps (`<dir>/<job-id>.jsonl`: the job's
    /// telemetry stream, written when a watchdog anomaly fires or a job
    /// ends abnormally). `None` writes none.
    pub flight_dir: Option<PathBuf>,
    /// Default watchdog thresholds applied to every job that doesn't
    /// carry its own (`None`: jobs run unwatched unless they ask).
    pub watchdog: Option<WatchdogConfig>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: 16,
            corpus_root: None,
            heartbeat: Duration::from_millis(50),
            metrics: true,
            flight_dir: None,
            watchdog: None,
        }
    }
}

enum JobState {
    Queued,
    Running,
    Done(Json),
    Failed(String),
}

impl JobState {
    fn token(&self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done(_) => "done",
            JobState::Failed(_) => "failed",
        }
    }

    fn finished(&self) -> bool {
        matches!(self, JobState::Done(_) | JobState::Failed(_))
    }
}

struct JobEntry {
    id: String,
    suite: String,
    source: JobSource,
    threads: Option<usize>,
    worker: usize,
    bus: Arc<PulseBus>,
    state: Mutex<JobState>,
    cv: Condvar,
    /// Full telemetry stream so far, for watch replay after the fact
    /// and for the job's flight dump.
    archive: Mutex<String>,
    /// Watchdog thresholds this job runs under (submission override or
    /// the daemon default).
    watchdog: Option<WatchdogConfig>,
    /// Admission time, for the admission-wait histogram.
    submitted: Instant,
}

impl JobEntry {
    fn set_state(&self, next: JobState) {
        *self.state.lock().expect("job state lock poisoned") = next;
        self.cv.notify_all();
    }

    fn wait_finished(&self) {
        let mut state = self.state.lock().expect("job state lock poisoned");
        while !state.finished() {
            state = self.cv.wait(state).expect("job state lock poisoned");
        }
    }

    /// Worker threads the campaign runs with (stamped into telemetry).
    fn threads(&self) -> u32 {
        self.threads
            .unwrap_or_else(scheduler::default_threads)
            .max(1) as u32
    }
}

struct WorkerQueue {
    jobs: Mutex<VecDeque<Arc<JobEntry>>>,
    cv: Condvar,
}

/// Per-worker health state, outside the queue lock.
struct WorkerStat {
    /// Jobs this worker has finished (done or failed).
    completed: AtomicU64,
    /// False once the worker thread has exited.
    alive: AtomicBool,
    /// The job currently running on this worker, if any.
    current: Mutex<Option<String>>,
}

impl WorkerStat {
    fn new() -> WorkerStat {
        WorkerStat {
            completed: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            current: Mutex::new(None),
        }
    }
}

/// The always-on service metrics: handles registered once at startup,
/// hot-path updates are atomic adds or a short histogram lock. Never
/// consulted by the campaign itself — strictly passive.
struct Ops {
    registry: MetricsRegistry,
    jobs_submitted: Counter,
    jobs_completed: Counter,
    jobs_failed: Counter,
    flight_dumps: Counter,
    admission_wait: Histogram,
    job_wall: Histogram,
}

impl Ops {
    fn new() -> Ops {
        let registry = MetricsRegistry::new();
        let jobs_submitted = registry.counter(
            "diode_jobs_submitted_total",
            "Jobs accepted into a worker queue.",
            &[],
        );
        let jobs_completed = registry.counter(
            "diode_jobs_completed_total",
            "Jobs that ran to a report.",
            &[],
        );
        let jobs_failed = registry.counter(
            "diode_jobs_failed_total",
            "Jobs that failed to build or panicked.",
            &[],
        );
        let flight_dumps = registry.counter(
            "diode_flight_dumps_total",
            "Flight recordings written to disk.",
            &[],
        );
        let admission_wait = registry.histogram(
            "diode_admission_wait_ns",
            "Queue time between submit and a worker picking the job up.",
            &[],
        );
        let job_wall = registry.histogram(
            "diode_job_wall_ns",
            "Campaign wall time per completed job.",
            &[],
        );
        Ops {
            registry,
            jobs_submitted,
            jobs_completed,
            jobs_failed,
            flight_dumps,
            admission_wait,
            job_wall,
        }
    }

    /// The per-rejection-code counter (registered on first use).
    fn rejected(&self, code: u64) -> Counter {
        self.registry.counter(
            "diode_jobs_rejected_total",
            "Typed submit rejections by wire code.",
            &[("code", &code.to_string())],
        )
    }

    /// The per-phase latency histogram (registered on first use).
    fn phase_total(&self, phase: Phase) -> Histogram {
        self.registry.histogram(
            "diode_phase_total_ns",
            "Per-job total time in each pipeline phase, from the recorder.",
            &[("phase", phase.as_str())],
        )
    }

    /// The per-worker completed-jobs counter.
    fn worker_jobs(&self, worker: usize) -> Counter {
        self.registry.counter(
            "diode_worker_jobs_total",
            "Jobs finished per worker.",
            &[("worker", &worker.to_string())],
        )
    }

    /// The per-kind anomaly counter.
    fn anomalies(&self, kind: &str) -> Counter {
        self.registry.counter(
            "diode_anomalies_total",
            "Watchdog anomalies raised, by kind.",
            &[("kind", kind)],
        )
    }
}

struct Daemon {
    cfg: ServeConfig,
    solver_cache: Arc<SolverCache>,
    snapshots: Arc<SnapshotCache>,
    queues: Vec<WorkerQueue>,
    worker_stats: Vec<WorkerStat>,
    jobs: Mutex<Vec<Arc<JobEntry>>>,
    next_job: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    rejected: AtomicU64,
    shutting_down: AtomicBool,
    started: Instant,
    ops: Option<Ops>,
}

impl Daemon {
    fn lookup(&self, id: &str) -> Option<Arc<JobEntry>> {
        self.jobs
            .lock()
            .expect("job registry lock poisoned")
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    fn queued_total(&self) -> usize {
        self.queues
            .iter()
            .map(|q| q.jobs.lock().expect("queue lock poisoned").len())
            .sum()
    }
}

/// A running daemon: its bound address plus join handles.
pub struct ServerHandle {
    addr: SocketAddr,
    accept: std::thread::JoinHandle<()>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl ServerHandle {
    /// The address the daemon actually bound (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Blocks until a `shutdown` request drains the queue and every
    /// worker exits.
    pub fn join(self) {
        let _ = self.accept.join();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// Starts the daemon: binds the listener, spawns the worker pool and
/// the accept loop, and returns immediately.
pub fn serve(cfg: ServeConfig) -> std::io::Result<ServerHandle> {
    let listener = TcpListener::bind(&cfg.addr)?;
    let addr = listener.local_addr()?;
    let workers = cfg.workers.max(1);
    let daemon = Arc::new(Daemon {
        solver_cache: Arc::new(SolverCache::new()),
        snapshots: Arc::new(SnapshotCache::new()),
        queues: (0..workers)
            .map(|_| WorkerQueue {
                jobs: Mutex::new(VecDeque::new()),
                cv: Condvar::new(),
            })
            .collect(),
        worker_stats: (0..workers).map(|_| WorkerStat::new()).collect(),
        jobs: Mutex::new(Vec::new()),
        next_job: AtomicU64::new(1),
        jobs_done: AtomicU64::new(0),
        jobs_failed: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        shutting_down: AtomicBool::new(false),
        started: Instant::now(),
        ops: cfg.metrics.then(Ops::new),
        cfg,
    });
    let worker_handles = (0..workers)
        .map(|i| {
            let daemon = Arc::clone(&daemon);
            std::thread::Builder::new()
                .name(format!("serve-worker-{i}"))
                .spawn(move || worker_loop(&daemon, i))
                .expect("spawn worker thread")
        })
        .collect();
    let accept = {
        let daemon = Arc::clone(&daemon);
        std::thread::Builder::new()
            .name("serve-accept".to_string())
            .spawn(move || accept_loop(&listener, &daemon, addr))
            .expect("spawn accept thread")
    };
    Ok(ServerHandle {
        addr,
        accept,
        workers: worker_handles,
    })
}

fn accept_loop(listener: &TcpListener, daemon: &Arc<Daemon>, addr: SocketAddr) {
    for stream in listener.incoming() {
        if daemon.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let daemon = Arc::clone(daemon);
        let _ = std::thread::Builder::new()
            .name("serve-conn".to_string())
            .spawn(move || handle_connection(stream, &daemon, addr));
    }
}

/// Reads one request line (at most [`MAX_REQUEST_LINE`] bytes, within
/// [`REQUEST_READ_TIMEOUT`]), dispatches, writes the response line(s).
/// I/O errors mean the client went away or sat idle — nothing to do but
/// close the connection.
fn handle_connection(stream: TcpStream, daemon: &Arc<Daemon>, addr: SocketAddr) {
    if stream.set_read_timeout(Some(REQUEST_READ_TIMEOUT)).is_err() {
        return;
    }
    let mut reader = BufReader::new(match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    });
    let mut bytes = Vec::new();
    let limit = MAX_REQUEST_LINE as u64 + 1;
    if reader
        .by_ref()
        .take(limit)
        .read_until(b'\n', &mut bytes)
        .is_err()
    {
        return;
    }
    let mut out = stream;
    if bytes.len() > MAX_REQUEST_LINE {
        let detail = format!("request line exceeds {MAX_REQUEST_LINE} bytes");
        let _ = writeln!(out, "{}", reject(400, "bad_request", &detail));
        // Consume the rest of the line, so closing the socket does not
        // reset the connection before the client reads the reply.
        if bytes.last() != Some(&b'\n') {
            let _ = reader.skip_until(b'\n');
        }
        return;
    }
    let Ok(line) = String::from_utf8(bytes) else {
        let _ = writeln!(
            out,
            "{}",
            reject(400, "bad_request", "request line is not UTF-8")
        );
        return;
    };
    if line.trim().is_empty() {
        return;
    }
    match parse_request(line.trim()) {
        Err(err) => {
            let _ = writeln!(out, "{err}");
        }
        Ok(Request::Submit {
            source,
            wait,
            threads,
            watchdog,
        }) => {
            let reply = submit(daemon, source, wait, threads, watchdog);
            let _ = writeln!(out, "{reply}");
        }
        Ok(Request::Status { job }) => {
            let reply = status(daemon, job.as_deref());
            let _ = writeln!(out, "{reply}");
        }
        Ok(Request::Watch { job, ring }) => watch(daemon, &job, ring, &mut out),
        Ok(Request::Metrics { prometheus }) => match (&daemon.ops, prometheus) {
            (None, _) => {
                let _ = writeln!(
                    out,
                    "{}",
                    reject(400, "bad_request", "metrics are disabled (--no-metrics)")
                );
            }
            (Some(ops), true) => {
                let _ = out.write_all(scrape(daemon, ops).to_prometheus().as_bytes());
            }
            (Some(ops), false) => {
                let _ = writeln!(out, "{}", metrics_json(daemon, ops));
            }
        },
        Ok(Request::Health) => {
            let _ = writeln!(out, "{}", health(daemon));
        }
        Ok(Request::Shutdown) => {
            let queued: usize = daemon
                .queues
                .iter()
                .map(|q| q.jobs.lock().expect("queue lock poisoned").len())
                .sum();
            let _ = writeln!(
                out,
                "{}",
                Json::obj().field("ok", true).field("draining", queued)
            );
            daemon.shutting_down.store(true, Ordering::SeqCst);
            for q in &daemon.queues {
                q.cv.notify_all();
            }
            // Wake the blocking accept loop so it observes the flag.
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Maps a suite id (or spec label) to its worker: the id's leading hex
/// prefix, folded, modulo the pool — so resubmissions of the same suite
/// always land on the same worker.
fn shard(label: &str, workers: usize) -> usize {
    let hex = label.split('-').nth(1).unwrap_or(label);
    let prefix = &hex[..hex.len().min(8)];
    let v = u64::from_str_radix(prefix, 16).unwrap_or_else(|_| {
        let mut f = Fnv64::new();
        f.str(label);
        u64::from_str_radix(&f.hex(), 16).unwrap_or(0)
    });
    (v % workers as u64) as usize
}

/// A stable content label for a forge spec (same role as a suite id:
/// sharding affinity plus report provenance). A planted stall changes
/// the suite's content, so it changes the label.
fn spec_label(cfg: &SynthConfig, stall_work: u32) -> String {
    let mut f = Fnv64::new();
    f.str(&spec_json(cfg).to_string());
    if stall_work > 0 {
        f.str(&format!("+stall:{stall_work}"));
    }
    format!("spec-{}", f.hex())
}

/// Count one typed submit rejection, both in the legacy status counter
/// and the per-code metrics series.
fn count_rejection(daemon: &Daemon, reply: Json) -> Json {
    daemon.rejected.fetch_add(1, Ordering::Relaxed);
    if let (Some(ops), Some(code)) = (&daemon.ops, reply.get("code").and_then(Json::as_u64)) {
        ops.rejected(code).inc();
    }
    reply
}

fn submit(
    daemon: &Arc<Daemon>,
    source: JobSource,
    wait: bool,
    threads: Option<usize>,
    watchdog: Option<WatchdogConfig>,
) -> Json {
    if daemon.shutting_down.load(Ordering::SeqCst) {
        return count_rejection(
            daemon,
            reject(
                503,
                "shutting_down",
                "daemon is draining; resubmit elsewhere",
            ),
        );
    }
    let suite = match &source {
        JobSource::Forge { cfg, stall_work } => spec_label(cfg, *stall_work),
        JobSource::Suite(id) => {
            let Some(root) = &daemon.cfg.corpus_root else {
                return count_rejection(
                    daemon,
                    reject(
                        400,
                        "bad_request",
                        "daemon has no corpus root (start with --corpus)",
                    ),
                );
            };
            match CorpusStore::open(root).and_then(|s| s.resolve(id)) {
                Ok(full) => full,
                Err(e) => {
                    return count_rejection(
                        daemon,
                        reject(404, "not_found", &format!("suite {id:?}: {e}")),
                    )
                }
            }
        }
    };
    let worker = shard(&suite, daemon.queues.len());
    let id = format!("job-{}", daemon.next_job.fetch_add(1, Ordering::SeqCst));
    let entry = Arc::new(JobEntry {
        id: id.clone(),
        suite: suite.clone(),
        source,
        threads,
        worker,
        bus: Arc::new(PulseBus::new()),
        state: Mutex::new(JobState::Queued),
        cv: Condvar::new(),
        archive: Mutex::new(String::new()),
        watchdog: watchdog.or_else(|| daemon.cfg.watchdog.clone()),
        submitted: Instant::now(),
    });
    let queued = {
        let queue = &daemon.queues[worker];
        let mut jobs = queue.jobs.lock().expect("queue lock poisoned");
        if jobs.len() >= daemon.cfg.queue_depth {
            drop(jobs);
            return count_rejection(
                daemon,
                reject(
                    429,
                    "queue_full",
                    &format!(
                        "worker {worker} queue is at its depth limit ({})",
                        daemon.cfg.queue_depth
                    ),
                ),
            );
        }
        daemon
            .jobs
            .lock()
            .expect("job registry lock poisoned")
            .push(Arc::clone(&entry));
        jobs.push_back(Arc::clone(&entry));
        queue.cv.notify_one();
        jobs.len()
    };
    if let Some(ops) = &daemon.ops {
        ops.jobs_submitted.inc();
    }
    if wait {
        entry.wait_finished();
        match &*entry.state.lock().expect("job state lock poisoned") {
            JobState::Done(report) => report.clone(),
            JobState::Failed(e) => reject(500, "job_failed", e),
            _ => unreachable!("wait_finished returns only on a terminal state"),
        }
    } else {
        Json::obj()
            .field("ok", true)
            .field("job", id)
            .field("suite", suite)
            .field("worker", worker)
            .field("queued", queued)
    }
}

fn status(daemon: &Arc<Daemon>, job: Option<&str>) -> Json {
    if let Some(id) = job {
        let Some(entry) = daemon.lookup(id) else {
            return reject(404, "not_found", &format!("unknown job {id:?}"));
        };
        let state = entry.state.lock().expect("job state lock poisoned");
        let mut out = Json::obj()
            .field("ok", true)
            .field("job", entry.id.clone())
            .field("suite", entry.suite.clone())
            .field("worker", entry.worker)
            .field("state", state.token());
        match &*state {
            JobState::Done(report) => out = out.field("report", report.clone()),
            JobState::Failed(e) => out = out.field("detail", e.clone()),
            _ => {}
        }
        return out;
    }
    let queued: usize = daemon
        .queues
        .iter()
        .map(|q| q.jobs.lock().expect("queue lock poisoned").len())
        .sum();
    let running = daemon
        .jobs
        .lock()
        .expect("job registry lock poisoned")
        .iter()
        .filter(|j| {
            matches!(
                &*j.state.lock().expect("job state lock poisoned"),
                JobState::Running
            )
        })
        .count();
    Json::obj()
        .field("ok", true)
        .field("protocol", PROTOCOL_VERSION)
        .field("versions", versions_json())
        .field("uptime_ms", daemon.started.elapsed().as_secs_f64() * 1e3)
        .field("workers", daemon.queues.len())
        .field("worker_stats", worker_stats_json(daemon))
        .field("queue_depth", daemon.cfg.queue_depth)
        .field("queued", queued)
        .field("running", running)
        .field("done", daemon.jobs_done.load(Ordering::Relaxed))
        .field("failed", daemon.jobs_failed.load(Ordering::Relaxed))
        .field("rejected", daemon.rejected.load(Ordering::Relaxed))
        .field("metrics", daemon.ops.is_some())
        .field("shutting_down", daemon.shutting_down.load(Ordering::SeqCst))
        .field("cache", daemon.solver_cache.stats())
        .field("snapshots", daemon.snapshots.stats())
}

/// Every schema version a client may need to speak to this daemon:
/// the wire protocol plus the formats its replies and artifacts embed.
fn versions_json() -> Json {
    Json::obj()
        .field("protocol", PROTOCOL_VERSION)
        .field("telemetry", TELEMETRY_SCHEMA_VERSION)
        .field("metrics", METRICS_SCHEMA_VERSION)
}

/// One row per worker: liveness, what it's doing, and how much it has
/// done.
fn worker_stats_json(daemon: &Daemon) -> Json {
    Json::Arr(
        daemon
            .worker_stats
            .iter()
            .enumerate()
            .map(|(i, w)| {
                let alive = w.alive.load(Ordering::Relaxed);
                let current = w.current.lock().expect("worker stat lock poisoned").clone();
                let queued = daemon.queues[i]
                    .jobs
                    .lock()
                    .expect("queue lock poisoned")
                    .len();
                let state = if !alive {
                    "exited"
                } else if current.is_some() {
                    "busy"
                } else {
                    "idle"
                };
                let mut row = Json::obj()
                    .field("worker", i)
                    .field("alive", alive)
                    .field("state", state)
                    .field("queued", queued)
                    .field("completed", w.completed.load(Ordering::Relaxed));
                if let Some(job) = current {
                    row = row.field("job", job);
                }
                row
            })
            .collect(),
    )
}

/// The typed health probe: liveness (worker threads running) and
/// readiness (accepting work with queue headroom), with per-worker
/// detail for the operator.
fn health(daemon: &Arc<Daemon>) -> Json {
    let live = daemon
        .worker_stats
        .iter()
        .all(|w| w.alive.load(Ordering::Relaxed));
    let queued = daemon.queued_total();
    let capacity = daemon.queues.len() * daemon.cfg.queue_depth;
    let headroom = capacity.saturating_sub(queued);
    let shutting_down = daemon.shutting_down.load(Ordering::SeqCst);
    let ready = live && !shutting_down && headroom > 0;
    Json::obj()
        .field("ok", true)
        .field("healthy", ready)
        .field("live", live)
        .field("ready", ready)
        .field("shutting_down", shutting_down)
        .field("queued", queued)
        .field("queue_capacity", capacity)
        .field("queue_headroom", headroom)
        .field("uptime_ms", daemon.started.elapsed().as_secs_f64() * 1e3)
        .field("workers", worker_stats_json(daemon))
}

/// Refreshes the point-in-time gauges and snapshots the registry.
/// Counters and histograms accumulate on the hot paths; gauges are
/// re-read from the daemon here, at scrape time.
fn scrape(daemon: &Arc<Daemon>, ops: &Ops) -> diode_obs::MetricsSnapshot {
    let gauge = |name: &str, help: &str, v: f64| ops.registry.gauge(name, help, &[]).set(v);
    gauge(
        "diode_uptime_seconds",
        "Seconds since the daemon started.",
        daemon.started.elapsed().as_secs_f64(),
    );
    let queued = daemon.queued_total();
    let capacity = daemon.queues.len() * daemon.cfg.queue_depth;
    gauge(
        "diode_queue_depth",
        "Jobs currently queued across all workers.",
        queued as f64,
    );
    gauge(
        "diode_queue_headroom",
        "Remaining admission capacity across all worker queues.",
        capacity.saturating_sub(queued) as f64,
    );
    let cache = daemon.solver_cache.stats();
    gauge(
        "diode_solver_cache_bytes",
        "Resident bytes in the shared solver cache.",
        cache.bytes as f64,
    );
    gauge(
        "diode_solver_cache_entries",
        "Entries in the shared solver cache.",
        cache.entries as f64,
    );
    gauge(
        "diode_solver_cache_hit_rate",
        "Lifetime hit rate of the shared solver cache.",
        cache.hit_rate(),
    );
    let snap = daemon.snapshots.stats();
    gauge(
        "diode_snapshot_cache_bytes",
        "Resident bytes in the shared snapshot cache.",
        snap.bytes as f64,
    );
    gauge(
        "diode_snapshot_cache_entries",
        "Entries in the shared snapshot cache.",
        snap.entries as f64,
    );
    gauge(
        "diode_snapshot_resume_rate",
        "Lifetime resume rate of the shared snapshot cache.",
        snap.resume_rate(),
    );
    ops.registry.snapshot()
}

/// The JSON metrics reply: the registry snapshot behind an `ok` line.
fn metrics_json(daemon: &Arc<Daemon>, ops: &Ops) -> Json {
    Json::obj()
        .field("ok", true)
        .field("schema", METRICS_SCHEMA_VERSION)
        .field("uptime_ms", daemon.started.elapsed().as_secs_f64() * 1e3)
        .field("metrics", scrape(daemon, ops).to_json())
}

/// Streams a job's telemetry to `out`: the header, then every event a
/// fresh bus subscriber receives (bounded channel — a slow reader
/// self-limits through drops) until the bus closes. A subscriber that
/// received nothing came too late (or the job never ran a campaign):
/// once the job is finished, the archive's event lines follow the
/// header instead.
fn watch(daemon: &Arc<Daemon>, job: &str, ring: usize, out: &mut TcpStream) {
    let Some(entry) = daemon.lookup(job) else {
        let _ = writeln!(
            out,
            "{}",
            reject(404, "not_found", &format!("unknown job {job:?}"))
        );
        return;
    };
    let sub = entry.bus.subscribe(ring);
    if out
        .write_all(telemetry_header(entry.threads()).as_bytes())
        .is_err()
    {
        return;
    }
    let mut saw_events = false;
    while let Some(event) = sub.recv() {
        saw_events = true;
        if out.write_all(pulse_event_lines(&event).as_bytes()).is_err() {
            return; // client went away
        }
    }
    if !saw_events {
        entry.wait_finished();
        let archive = entry.archive.lock().expect("archive lock poisoned");
        if let Some((_, events)) = archive.split_once('\n') {
            let _ = out.write_all(events.as_bytes());
        }
    }
}

fn worker_loop(daemon: &Arc<Daemon>, index: usize) {
    let queue = &daemon.queues[index];
    let stat = &daemon.worker_stats[index];
    loop {
        let entry = {
            let mut jobs = queue.jobs.lock().expect("queue lock poisoned");
            loop {
                if let Some(e) = jobs.pop_front() {
                    break e;
                }
                if daemon.shutting_down.load(Ordering::SeqCst) {
                    stat.alive.store(false, Ordering::Relaxed);
                    return;
                }
                jobs = queue.cv.wait(jobs).expect("queue lock poisoned");
            }
        };
        *stat.current.lock().expect("worker stat lock poisoned") = Some(entry.id.clone());
        let finished = run_job(daemon, &entry);
        *stat.current.lock().expect("worker stat lock poisoned") = None;
        stat.completed.fetch_add(1, Ordering::Relaxed);
        if let Some(ops) = &daemon.ops {
            ops.worker_jobs(index).inc();
        }
        // Only now may a waiting client see the job finish: a `status`
        // it sends next counts the job in this worker's tallies.
        entry.set_state(finished);
    }
}

/// Builds the job's workloads (forging or loading from the corpus
/// root), or explains why it can't.
///
/// A nonzero `stall_work` plants one extra single-site app
/// ([`forge_stall`]: index 100, outside the spec's own range) whose busy
/// loop, run by every candidate of its site, dwarfs the rest of the
/// suite — the deliberate `slow_site` trigger. The plant lies outside
/// the forge oracle, so recall is not scored for stall jobs (`recall:
/// null` in the report).
fn build_apps(
    daemon: &Daemon,
    source: &JobSource,
) -> Result<(Vec<CampaignApp>, Option<SynthOracle>), String> {
    match source {
        JobSource::Forge { cfg, stall_work } => {
            let suite = forge(cfg);
            if *stall_work == 0 {
                return Ok((suite.campaign_apps(), Some(suite.oracle.clone())));
            }
            let mut apps = suite.campaign_apps();
            apps.push(forge_stall(*stall_work, cfg.rng_seed));
            Ok((apps, None))
        }
        JobSource::Suite(id) => {
            let root = daemon
                .cfg
                .corpus_root
                .as_ref()
                .ok_or_else(|| "no corpus root configured".to_string())?;
            let store = CorpusStore::open(root).map_err(|e| e.to_string())?;
            let suite = store.load(id).map_err(|e| e.to_string())?;
            Ok((
                suite.suite.campaign_apps(),
                Some(suite.suite.oracle.clone()),
            ))
        }
    }
}

/// Cuts the job's flight dump, `<dir>/<job-id>.jsonl`, from its
/// archived stream (complete: the pump has taken the terminal event),
/// marked with `reason` and followed by `anomalies`, and counts it.
/// Returns the path on success.
fn write_flight(
    daemon: &Daemon,
    dir: &std::path::Path,
    entry: &JobEntry,
    reason: &str,
    anomalies: &[AnomalyReport],
) -> Option<PathBuf> {
    let archived = TelemetryLog::from_jsonl(&entry.archive.lock().expect("archive lock poisoned"));
    let mut log = match archived {
        Ok(log) => log,
        Err(e) => {
            eprintln!("diode-serve: {} archive unreadable: {e}", entry.id);
            return None;
        }
    };
    log.job = Some(entry.id.clone());
    log.reason = Some(reason.to_string());
    log.anomalies = anomalies.to_vec();
    if let Err(e) = std::fs::create_dir_all(dir) {
        eprintln!("diode-serve: cannot create {}: {e}", dir.display());
        return None;
    }
    let path = dir.join(format!("{}.jsonl", entry.id));
    match std::fs::write(&path, log.to_jsonl()) {
        Ok(()) => {
            if let Some(ops) = &daemon.ops {
                ops.flight_dumps.inc();
            }
            Some(path)
        }
        Err(e) => {
            eprintln!("diode-serve: cannot write {}: {e}", path.display());
            None
        }
    }
}

/// Runs one job and returns its final state (`Done` or `Failed`), which
/// the caller publishes.
fn run_job(daemon: &Arc<Daemon>, entry: &Arc<JobEntry>) -> JobState {
    entry.set_state(JobState::Running);
    if let Some(ops) = &daemon.ops {
        let waited = entry.submitted.elapsed().as_nanos();
        ops.admission_wait
            .observe(u64::try_from(waited).unwrap_or(u64::MAX));
    }
    let (apps, oracle) = match build_apps(daemon, &entry.source) {
        Ok(built) => built,
        Err(e) => {
            // No campaign will publish `finished`: end every watcher's
            // stream here (they replay the empty archive).
            entry.bus.close();
            daemon.jobs_failed.fetch_add(1, Ordering::Relaxed);
            if let Some(ops) = &daemon.ops {
                ops.jobs_failed.inc();
            }
            return JobState::Failed(e);
        }
    };
    let threads = entry.threads();

    // The pump: one subscriber feeding the in-memory archive (for watch
    // replay and flight dumps) and the watchdog — pure consumers on this
    // side thread, never in the campaign's path. It blocks in `recv`
    // until the bus closes.
    let sub = entry.bus.subscribe(1 << 14);
    let mut watchdog = entry.watchdog.clone().map(Watchdog::new);
    let pump_entry = Arc::clone(entry);
    let pump = std::thread::Builder::new()
        .name("serve-pump".to_string())
        .spawn(move || {
            let write = |line: &str| {
                pump_entry
                    .archive
                    .lock()
                    .expect("archive lock poisoned")
                    .push_str(line);
            };
            write(&telemetry_header(threads));
            while let Some(event) = sub.recv() {
                if let Some(w) = &mut watchdog {
                    w.feed(&event);
                }
                write(&pulse_event_lines(&event));
            }
            watchdog
        })
        .expect("spawn pump thread");

    let cache_before = daemon.solver_cache.stats();
    let snap_before = daemon.snapshots.stats();
    let recorder = daemon.ops.as_ref().map(|_| Arc::new(Recorder::new()));
    let mut spec = CampaignSpec::new(apps);
    spec.mode = ExecutionMode::Parallel {
        threads: entry.threads,
    };
    spec.config.query_cache = Some(Arc::clone(&daemon.solver_cache));
    spec.snapshot_cache = Some(Arc::clone(&daemon.snapshots));
    spec.recorder = recorder.clone();
    spec.pulse = Some(PulseConfig {
        bus: Arc::clone(&entry.bus),
        heartbeat: daemon.cfg.heartbeat,
    });
    if let JobSource::Forge { stall_work, .. } = &entry.source {
        if *stall_work > 0 {
            // A planted stall burns fuel by design; raise the bound so
            // it runs to completion instead of dying mid-loop.
            spec.config.machine.fuel = spec.config.machine.fuel.max(200_000_000);
        }
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| spec.run()));
    let report = match outcome {
        Ok(report) => report,
        Err(_) => {
            // Close the bus with a terminal event, ending the pump and
            // every watcher, then record the failure — with a flight
            // dump of the stream leading up to it, when dumps are on.
            entry.bus.publish(&PulseEvent::Finished {
                wall_ns: 0,
                sites: 0,
                exposed: 0,
            });
            let watchdog = pump.join().unwrap_or(None);
            let anomalies = watchdog.map(Watchdog::finish).unwrap_or_default();
            if let Some(dir) = &daemon.cfg.flight_dir {
                write_flight(daemon, dir, entry, "job_failed", &anomalies);
            }
            daemon.jobs_failed.fetch_add(1, Ordering::Relaxed);
            if let Some(ops) = &daemon.ops {
                ops.jobs_failed.inc();
                for a in &anomalies {
                    ops.anomalies(a.kind.as_str()).inc();
                }
            }
            return JobState::Failed("campaign panicked".to_string());
        }
    };
    let watchdog = pump.join().unwrap_or(None);
    let watched = watchdog.is_some();
    let anomalies = watchdog.map(Watchdog::finish).unwrap_or_default();
    let mut flight_path = None;
    if !anomalies.is_empty() {
        if let Some(dir) = &daemon.cfg.flight_dir {
            let reason = format!("anomaly:{}", anomalies[0].kind.as_str());
            flight_path = write_flight(daemon, dir, entry, &reason, &anomalies);
        }
    }
    if let Some(ops) = &daemon.ops {
        ops.jobs_completed.inc();
        ops.job_wall
            .observe(u64::try_from(report.wall_time.as_nanos()).unwrap_or(u64::MAX));
        for a in &anomalies {
            ops.anomalies(a.kind.as_str()).inc();
        }
        if let Some(rec) = &recorder {
            for row in &PhaseBreakdown::from_trace(&rec.trace()).phases {
                ops.phase_total(row.phase).observe(row.total_ns);
            }
        }
    }
    let report_json = job_report(
        entry,
        &report,
        oracle.as_ref(),
        &cache_before,
        &daemon.solver_cache.stats(),
        &snap_before,
        &daemon.snapshots.stats(),
        watched.then_some(anomalies.as_slice()),
        flight_path.as_deref(),
    );
    daemon.jobs_done.fetch_add(1, Ordering::Relaxed);
    JobState::Done(report_json)
}

/// The per-job report line: outcome counts, the determinism
/// fingerprint, and this job's *marginal* cache traffic (stats deltas
/// against the process-lifetime caches — exact while jobs serialise on
/// one worker, approximate when campaigns overlap).
#[allow(clippy::too_many_arguments)]
fn job_report(
    entry: &JobEntry,
    report: &CampaignReport,
    oracle: Option<&SynthOracle>,
    cache_before: &CacheStats,
    cache_after: &CacheStats,
    snap_before: &SnapshotStats,
    snap_after: &SnapshotStats,
    anomalies: Option<&[AnomalyReport]>,
    flight: Option<&std::path::Path>,
) -> Json {
    let counts = report.counts();
    let recall = oracle.map(|o| score(report, o).recall());
    let hits = cache_after.hits.saturating_sub(cache_before.hits);
    let misses = cache_after.misses.saturating_sub(cache_before.misses);
    let resumes = snap_after.resumes.saturating_sub(snap_before.resumes);
    let snap_hits = snap_after.hits.saturating_sub(snap_before.hits);
    let snap_misses = snap_after.misses.saturating_sub(snap_before.misses);
    let mut out = Json::obj()
        .field("ok", true)
        .field("table", "serve_job")
        .field("job", entry.id.clone())
        .field("suite", entry.suite.clone())
        .field("wall_ms", report.wall_time.as_secs_f64() * 1e3)
        .field("threads", report.threads)
        .field("jobs", report.jobs)
        .field(
            "counts",
            Json::obj()
                .field("total", counts.0)
                .field("exposed", counts.1)
                .field("unsat", counts.2)
                .field("prevented", counts.3),
        )
        .field("recall", recall.map_or(Json::Null, Json::from))
        .field(
            "fingerprint",
            fnv64_hex(report.outcome_fingerprint().as_bytes()),
        )
        .field(
            "cache",
            Json::obj()
                .field("hits", hits)
                .field("misses", misses)
                .field("hit_rate", rate(hits, misses)),
        )
        .field(
            "snapshots",
            Json::obj()
                .field("hits", snap_hits)
                .field("misses", snap_misses)
                .field("resumes", resumes)
                .field("resume_rate", rate(snap_hits, snap_misses)),
        )
        .field("cache_total", *cache_after)
        .field("snapshots_total", *snap_after);
    if let Some(anomalies) = anomalies {
        out = out.field(
            "anomalies",
            Json::Arr(anomalies.iter().map(AnomalyReport::to_json).collect()),
        );
    }
    if let Some(path) = flight {
        out = out.field("flight", path.display().to_string());
    }
    out
}

fn rate(hits: u64, misses: u64) -> f64 {
    if hits + misses == 0 {
        0.0
    } else {
        hits as f64 / (hits + misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sharding_is_stable_and_prefix_driven() {
        let a = shard("suite-00000000aaaaaaaa", 4);
        assert_eq!(a, shard("suite-00000000bbbbbbbb", 4), "prefix decides");
        assert_eq!(shard("suite-00000003deadbeef", 4), 3);
        assert_eq!(shard("spec-0000000200000000", 2), 0);
        // Degenerate labels still land somewhere in range.
        assert!(shard("nonsense", 3) < 3);
        assert!(shard("", 1) < 1);
    }

    #[test]
    fn spec_labels_follow_content() {
        let a = SynthConfig::default();
        let b = SynthConfig::default().with_apps(a.apps + 1);
        assert_eq!(spec_label(&a, 0), spec_label(&a, 0));
        assert_ne!(spec_label(&a, 0), spec_label(&b, 0));
        assert_ne!(
            spec_label(&a, 0),
            spec_label(&a, 2_000_000),
            "a planted stall changes the suite's content"
        );
        assert!(spec_label(&a, 0).starts_with("spec-"));
    }

    #[test]
    fn rates_handle_zero() {
        assert_eq!(rate(0, 0), 0.0);
        assert_eq!(rate(3, 1), 0.75);
    }
}
