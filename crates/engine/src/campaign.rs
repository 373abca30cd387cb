//! Campaign-scale orchestration: many applications × seeds in one batch.
//!
//! A [`CampaignSpec`] names the workloads (each a program + format + one
//! or more seed inputs) and how to run them; [`CampaignSpec::run`] fans
//! the work out over the work-stealing scheduler and returns a
//! [`CampaignReport`] whose per-site outcomes are aggregated in
//! **site-label order** — byte-identical at every worker count and under
//! any stealing interleaving.
//!
//! Each spec holds one handle per cache: `config.query_cache` (a
//! [`SolverCache`]) and `snapshot_cache` (a prefix [`SnapshotCache`]).
//! [`CampaignSpec::new`] installs a fresh one of each, shared by every
//! worker, so the repeated φ′∧β queries of enforcement iterations, bug
//! verification, and overlapping experiments are answered without
//! re-blasting; the report surfaces the hit/miss counters. `None` runs
//! without that cache.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::Arc;
use std::time::{Duration, Instant};

use diode_core::{analyze_site_with_snapshots, DiodeConfig};
use diode_core::{identify_target_sites, identify_target_sites_traced, warm_unit_slots};
use diode_core::{test_candidate, TargetSite};
use diode_core::{SiteOutcome, SiteReport, SnapshotCache, SnapshotStats};
use diode_format::FormatDesc;
use diode_lang::Program;
use diode_obs::{
    HeartbeatSample, PulseBus, PulseEvent, SchedGauges, WorkerState, WorkerStateTable,
};
use diode_obs::{ProvenanceRecord, Recorder};
use diode_solver::{CacheStats, SolveResult, SolverCache};

use crate::scheduler::{self, Spawner};

/// One workload of a campaign: a program with its format description and
/// the seed inputs to analyze it under.
#[derive(Debug, Clone)]
pub struct CampaignApp {
    /// Display name (used in reports and progress events).
    pub name: String,
    /// The application pipeline.
    pub program: Program,
    /// Field map + checksum fixups for the seeds' format.
    pub format: FormatDesc,
    /// Seed inputs; each `(app, seed)` pair is an independent unit.
    pub seeds: Vec<Vec<u8>>,
}

impl CampaignApp {
    /// A single-seed workload.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        program: Program,
        format: FormatDesc,
        seed: Vec<u8>,
    ) -> Self {
        CampaignApp {
            name: name.into(),
            program,
            format,
            seeds: vec![seed],
        }
    }

    /// Adds another seed input.
    #[must_use]
    pub fn with_seed(mut self, seed: Vec<u8>) -> Self {
        self.seeds.push(seed);
        self
    }
}

/// How the campaign executes: always over the work-stealing scheduler,
/// whose worker count is the one scheduling choice. One worker runs
/// inline on the calling thread.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Fan out over the work-stealing scheduler. `threads: None` uses all
    /// available cores.
    Parallel {
        /// Worker count; `None` = all cores.
        threads: Option<usize>,
    },
}

impl Default for ExecutionMode {
    fn default() -> Self {
        ExecutionMode::Parallel { threads: None }
    }
}

/// A source of campaign workloads — a forged suite, an on-disk corpus
/// suite, or anything else that can mint fresh [`CampaignApp`]s. The
/// engine stays agnostic about where suites live; implementors (e.g.
/// `diode_synth::ForgedSuite`, `diode_corpus::ReplayableSuite`) plug into
/// [`CampaignSpec::from_corpus`] so stored suites run unchanged through
/// the scheduler.
pub trait CorpusSuite {
    /// Fresh campaign workloads, clonable per run.
    fn campaign_apps(&self) -> Vec<CampaignApp>;
}

/// A batch of workloads plus execution policy.
#[derive(Debug)]
pub struct CampaignSpec {
    /// The workloads.
    pub apps: Vec<CampaignApp>,
    /// Per-site analysis configuration (shared by every job). Its
    /// `query_cache` is the campaign's solver cache: every job solves
    /// through it, and `None` solves every query from scratch.
    pub config: DiodeConfig,
    /// The scheduler's worker count.
    pub mode: ExecutionMode,
    /// The campaign's prefix-snapshot cache, shared by every job (the
    /// same `Arc` discipline as the solver cache), and the campaign's one
    /// snapshot switch. Each unit's identify job warms its sites' slots
    /// in one capture pass; stage-2 extraction and every enforcement
    /// candidate then resume from them, and the hit/miss/resume counters
    /// aggregate campaign-wide. Units are keyed by a fingerprint of their
    /// program text and seed bytes, so a cache shared across campaigns
    /// hands prefixes only to byte-identical units. `None` runs no
    /// snapshot code: every site executes from `main` and reports no
    /// snapshot telemetry.
    pub snapshot_cache: Option<Arc<SnapshotCache>>,
    /// Re-validate every exposed bug after discovery: re-solve its final
    /// constraint (a guaranteed cache hit when caching is on) and re-run
    /// the triggering input, recording the result per site.
    pub verify_exposed: bool,
    /// Structured-tracing recorder (`diode-obs`). When set and enabled,
    /// every job runs under a recording scope: phase spans, solver
    /// cache attribution, and scheduler queue-wait metrics land in the
    /// recorder. Tracing is passive — outcomes are byte-identical with
    /// it on or off.
    pub recorder: Option<Arc<Recorder>>,
    /// Live telemetry (`diode-pulse`), the campaign's only live-progress
    /// hook. When set, workers publish unit and site progress into the
    /// [`PulseBus`], a sampler thread publishes periodic
    /// [`HeartbeatSample`]s (per-worker state, queue depth, cache bytes),
    /// and the terminal `finished` event closes the bus. Like tracing,
    /// publication is passive and non-blocking: a full subscriber
    /// channel counts a drop instead of stalling a worker, and outcomes
    /// are byte-identical with pulse on or off. `None` leaves the hot
    /// path telemetry-free.
    pub pulse: Option<PulseConfig>,
}

/// Live-telemetry attachment for a campaign: the event bus to publish
/// into plus the heartbeat sampling interval.
#[derive(Debug, Clone)]
pub struct PulseConfig {
    /// The bus progress events and heartbeats are published into.
    /// Subscribe (with a bounded channel) before the campaign starts.
    pub bus: Arc<PulseBus>,
    /// Interval between [`HeartbeatSample`]s. Default 50 ms.
    pub heartbeat: Duration,
}

impl PulseConfig {
    /// Telemetry into `bus` with the default 50 ms heartbeat.
    #[must_use]
    pub fn new(bus: Arc<PulseBus>) -> Self {
        PulseConfig {
            bus,
            heartbeat: Duration::from_millis(50),
        }
    }
}

impl CampaignSpec {
    /// A campaign over `apps` with default policy: parallel on all cores,
    /// a fresh solver cache and a fresh snapshot cache shared by every
    /// job, bug verification on.
    #[must_use]
    pub fn new(apps: Vec<CampaignApp>) -> Self {
        CampaignSpec {
            apps,
            config: DiodeConfig::default().with_query_cache(Arc::new(SolverCache::new())),
            mode: ExecutionMode::default(),
            snapshot_cache: Some(Arc::new(SnapshotCache::new())),
            verify_exposed: true,
            recorder: None,
            pulse: None,
        }
    }

    /// A campaign over a stored or in-memory suite, with the same default
    /// policy as [`CampaignSpec::new`]. This is how corpus suites loaded
    /// from disk replay through the scheduler unchanged.
    #[must_use]
    pub fn from_corpus(suite: &(impl CorpusSuite + ?Sized)) -> Self {
        CampaignSpec::new(suite.campaign_apps())
    }

    /// Runs the campaign. Live progress, when wanted, comes from the
    /// [`pulse`](CampaignSpec::pulse) bus; the returned report is
    /// deterministic regardless of thread count or completion order.
    #[must_use]
    pub fn run(&self) -> CampaignReport {
        let start = Instant::now();
        let cache = self.config.query_cache.clone();
        let snapshots = self.snapshot_cache.clone();
        // Only snapshot-slot lookups read the unit keys, so they are
        // built only when a snapshot cache is in play.
        let keys = snapshots.as_ref().map(|_| UnitKeys::new(self));
        let slots = snapshots.as_deref().zip(keys.as_ref());
        let recorder = self.recorder.as_ref();
        let pulse = self
            .pulse
            .as_ref()
            .map(|p| PulseRun::new(p, self.effective_threads()));
        let sampler = pulse
            .as_ref()
            .map(|p| p.spawn_sampler(cache.clone(), snapshots.clone()));
        let done = self.execute(slots, pulse.as_ref());
        if let Some(s) = sampler {
            s.stop();
        }
        let (units, jobs) = self.aggregate(done);
        let peak_heap_bytes = units
            .iter()
            .flat_map(|u| &u.sites)
            .map(|s| s.report.peak_heap_bytes)
            .max()
            .unwrap_or(0);
        let report = CampaignReport {
            units,
            cache: cache.as_ref().map(|c| c.stats()),
            snapshots: snapshots.as_ref().map(|c| c.stats()),
            wall_time: start.elapsed(),
            threads: self.effective_threads(),
            jobs,
            peak_heap_bytes,
            provenance: recorder
                .filter(|r| r.audit_enabled())
                .map(|r| r.provenance()),
        };
        if let Some(p) = &pulse {
            // Published after the sampler has been joined, so `finished`
            // is the last event every subscriber sees; it closes the bus.
            let (sites, exposed, ..) = report.counts();
            p.bus.publish(&PulseEvent::Finished {
                wall_ns: report.wall_time.as_nanos() as u64,
                sites: sites as u64,
                exposed: exposed as u64,
            });
        }
        report
    }

    fn effective_threads(&self) -> usize {
        let ExecutionMode::Parallel { threads } = self.mode;
        threads.unwrap_or_else(scheduler::default_threads).max(1)
    }

    fn execute(&self, slots: Slots<'_>, pulse: Option<&PulseRun>) -> Vec<Done> {
        let initial: Vec<Job> = self
            .apps
            .iter()
            .enumerate()
            .flat_map(|(app, a)| (0..a.seeds.len()).map(move |seed| Job::Identify { app, seed }))
            .collect();
        scheduler::execute(
            initial,
            self.effective_threads(),
            self.recorder.as_ref(),
            pulse.map(|p| p.gauges.as_ref()),
            |job, spawner: &Spawner<'_, Job>| self.run_job(job, slots, spawner, pulse),
        )
    }

    /// Executes one job. Identification pushes its per-site jobs onto the
    /// running worker's own deque.
    fn run_job(
        &self,
        job: Job,
        slots: Slots<'_>,
        spawner: &Spawner<'_, Job>,
        pulse: Option<&PulseRun>,
    ) -> Done {
        let config = &self.config;
        let worker = spawner.index();
        match job {
            Job::Identify { app, seed } => {
                let a = &self.apps[app];
                // Install the per-job recording scope (no-op when tracing
                // is off): spans recorded anywhere below — including deep
                // inside interp/solver — attribute to this unit.
                let _scope =
                    diode_obs::job_scope(self.recorder.as_ref(), &a.name, seed as u32, None);
                let _span = diode_obs::span(diode_obs::Phase::Identify);
                if let Some(p) = pulse {
                    p.workers.set(
                        worker,
                        WorkerState::Unit {
                            app: a.name.clone(),
                            seed: seed as u32,
                        },
                    );
                    p.bus.publish(&PulseEvent::UnitStarted {
                        app: a.name.clone(),
                        seed: seed as u32,
                    });
                }
                let start = Instant::now();
                let targets = if let Some((cache, keys)) = slots {
                    // One capture pass warms every site's prefix snapshot
                    // before the per-site jobs fan out: stage-2 extraction
                    // and every enforcement candidate then resume instead
                    // of re-executing the shared prefix.
                    let (targets, first_reads) =
                        identify_target_sites_traced(&a.program, &a.seeds[seed], &config.machine);
                    let key = keys.key(app, seed);
                    let slots: Vec<_> = targets.iter().map(|t| cache.slot(key, t.label)).collect();
                    warm_unit_slots(
                        &a.program,
                        &a.seeds[seed],
                        &a.format,
                        &targets,
                        &config.machine,
                        &first_reads,
                        &slots,
                    );
                    targets
                } else {
                    identify_target_sites(&a.program, &a.seeds[seed], &config.machine)
                };
                let sites = targets.len() as u64;
                for target in targets {
                    spawner.spawn(Job::Site { app, seed, target });
                }
                if let Some(p) = pulse {
                    p.bus.publish(&PulseEvent::SitesIdentified {
                        app: a.name.clone(),
                        seed: seed as u32,
                        sites,
                    });
                    p.workers.set(worker, WorkerState::Idle);
                }
                Done::Identified {
                    app,
                    seed,
                    identify_time: start.elapsed(),
                }
            }
            Job::Site { app, seed, target } => {
                let a = &self.apps[app];
                let _scope = diode_obs::job_scope(
                    self.recorder.as_ref(),
                    &a.name,
                    seed as u32,
                    Some(&target.site),
                );
                if let Some(p) = pulse {
                    p.workers.set(
                        worker,
                        WorkerState::Site {
                            app: a.name.clone(),
                            seed: seed as u32,
                            site: target.site.to_string(),
                        },
                    );
                }
                let slot = slots.map(|(c, keys)| c.slot(keys.key(app, seed), target.label));
                let report = analyze_site_with_snapshots(
                    &a.program,
                    &a.seeds[seed],
                    &a.format,
                    &target,
                    config,
                    slot,
                );
                let verified = self
                    .verify_exposed
                    .then(|| self.verify(&a.program, &report))
                    .flatten();
                if let Some(p) = pulse {
                    p.peak_heap
                        .fetch_max(report.peak_heap_bytes, Ordering::Relaxed);
                    p.bus.publish(&PulseEvent::SiteFinished {
                        app: a.name.clone(),
                        seed: seed as u32,
                        site: report.site.clone(),
                        outcome: report.outcome.token(),
                        wall_ns: report.discovery_time.as_nanos() as u64,
                        cache_bytes: config.query_cache.as_ref().map_or(0, |c| c.stats().bytes),
                        snapshot_bytes: slots.map_or(0, |(c, _)| c.stats().bytes),
                        peak_heap_bytes: report.peak_heap_bytes,
                    });
                    p.workers.set(worker, WorkerState::Idle);
                }
                Done::Site {
                    app,
                    seed,
                    record: Box::new(SiteRecord { report, verified }),
                }
            }
        }
    }

    /// Re-validates an exposed bug: its final constraint must still be
    /// satisfiable (re-issued through the cache — with caching on this is
    /// a guaranteed hit, since the enforcement loop solved the identical
    /// query) and its input must still trigger the overflow.
    fn verify(&self, program: &Program, report: &SiteReport) -> Option<bool> {
        let config = &self.config;
        let bug = match &report.outcome {
            SiteOutcome::Exposed(bug) => bug,
            _ => return None,
        };
        let _span = diode_obs::span(diode_obs::Phase::Validate);
        let constraint_sat = matches!(
            config.solve_query_for(&bug.constraint, diode_obs::QueryOrigin::Validate),
            SolveResult::Sat(_)
        );
        let still_triggers =
            test_candidate(program, &bug.input, report.label, &config.machine).triggered;
        Some(constraint_sat && still_triggers)
    }

    /// Deterministic aggregation: units in spec order, sites in label
    /// order within each unit.
    fn aggregate(&self, done: Vec<Done>) -> (Vec<UnitReport>, usize) {
        let jobs = done.len();
        let mut units: Vec<Vec<UnitReport>> = self
            .apps
            .iter()
            .map(|a| {
                (0..a.seeds.len())
                    .map(|seed| UnitReport {
                        app: a.name.clone(),
                        seed_index: seed,
                        identify_time: Duration::ZERO,
                        sites: Vec::new(),
                    })
                    .collect()
            })
            .collect();
        for d in done {
            match d {
                Done::Identified {
                    app,
                    seed,
                    identify_time,
                } => units[app][seed].identify_time = identify_time,
                Done::Site { app, seed, record } => units[app][seed].sites.push(*record),
            }
        }
        let mut flat = Vec::new();
        for per_app in units {
            for mut unit in per_app {
                unit.sites.sort_by_key(|s| s.report.label);
                flat.push(unit);
            }
        }
        (flat, jobs)
    }
}

/// Per-run pulse state: the bus plus the shared tables the sampler
/// thread reads. Created only when the spec carries a [`PulseConfig`];
/// with no pulse attached the engine never touches any of this.
struct PulseRun {
    bus: Arc<PulseBus>,
    heartbeat: Duration,
    workers: Arc<WorkerStateTable>,
    gauges: Arc<SchedGauges>,
    /// Campaign-wide max of per-site interpreter heap high-water marks,
    /// folded in as site jobs retire; the sampler reads it live.
    peak_heap: Arc<AtomicU64>,
}

impl PulseRun {
    fn new(config: &PulseConfig, threads: usize) -> PulseRun {
        PulseRun {
            bus: Arc::clone(&config.bus),
            heartbeat: config.heartbeat,
            workers: Arc::new(WorkerStateTable::new(threads)),
            gauges: Arc::new(SchedGauges::new()),
            peak_heap: Arc::new(AtomicU64::new(0)),
        }
    }

    /// Starts the heartbeat sampler thread: at once and then every
    /// `heartbeat` interval it snapshots worker states, scheduler gauges,
    /// and cache byte gauges into a [`HeartbeatSample`] published on the
    /// bus.
    fn spawn_sampler(
        &self,
        cache: Option<Arc<SolverCache>>,
        snapshots: Option<Arc<SnapshotCache>>,
    ) -> SamplerHandle {
        let (stop, stopped) = mpsc::channel::<()>();
        let bus = Arc::clone(&self.bus);
        let workers = Arc::clone(&self.workers);
        let gauges = Arc::clone(&self.gauges);
        let peak_heap = Arc::clone(&self.peak_heap);
        let interval = self.heartbeat;
        let handle = std::thread::spawn(move || {
            let start = Instant::now();
            let mut seq = 0u64;
            loop {
                let worker_states = workers.snapshot();
                let busy = worker_states
                    .iter()
                    .filter(|w| !matches!(w, WorkerState::Idle))
                    .count() as u64;
                let (cache_bytes, cache_entries) = cache.as_ref().map_or((0, 0), |c| {
                    let s = c.stats();
                    (s.bytes, s.entries as u64)
                });
                let (snapshot_bytes, snapshot_entries) = snapshots.as_ref().map_or((0, 0), |c| {
                    let s = c.stats();
                    (s.bytes, s.entries)
                });
                let queued = gauges.queued();
                bus.publish(&PulseEvent::Heartbeat(HeartbeatSample {
                    seq,
                    t_ns: start.elapsed().as_nanos() as u64,
                    workers: worker_states,
                    queued,
                    pending: queued + busy,
                    steals: gauges.steals(),
                    jobs_done: gauges.jobs_done(),
                    cache_bytes,
                    cache_entries,
                    snapshot_bytes,
                    snapshot_entries,
                    interp_peak_heap_bytes: peak_heap.load(Ordering::Relaxed),
                }));
                seq += 1;
                // Waits out the interval, or ends at once when the
                // handle's sender is dropped.
                if stopped.recv_timeout(interval) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            }
        });
        SamplerHandle { stop, handle }
    }
}

/// Join handle for the heartbeat sampler thread.
struct SamplerHandle {
    stop: mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

impl SamplerHandle {
    /// Wakes the sampler, which stops without another beat, and joins it.
    fn stop(self) {
        drop(self.stop);
        let _ = self.handle.join();
    }
}

/// Precomputed snapshot-cache keys for every `(app, seed)` unit of one
/// campaign, resolved once per run so the hot per-job path is an indexed
/// load (content hashing walks the whole program text, which must not
/// happen once per site job).
struct UnitKeys(Vec<Vec<u64>>);

impl UnitKeys {
    fn new(spec: &CampaignSpec) -> Self {
        Self(
            spec.apps
                .iter()
                .map(|a| {
                    (0..a.seeds.len())
                        .map(|seed| content_key(a, seed))
                        .collect()
                })
                .collect(),
        )
    }

    fn key(&self, app: usize, seed: usize) -> u64 {
        self.0[app][seed]
    }
}

/// The campaign's snapshot cache together with its unit keys, so a slot
/// lookup cannot happen without keys; `None` runs without snapshots.
type Slots<'a> = Option<(&'a SnapshotCache, &'a UnitKeys)>;

/// The snapshot-cache key of one `(app, seed)` unit: an FNV-1a
/// fingerprint of the unit's canonical program text and raw seed bytes.
/// Stable across processes, suite orderings, and campaign boundaries, so
/// two units share prefixes only when they are byte-identical.
fn content_key(app: &CampaignApp, seed: usize) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(diode_lang::pretty::program(&app.program).as_bytes());
    // Separator byte so (program "a", seed "b") never collides with
    // (program "ab", empty seed).
    eat(&[0xFF]);
    eat(&app.seeds[seed]);
    h
}

enum Job {
    Identify {
        app: usize,
        seed: usize,
    },
    Site {
        app: usize,
        seed: usize,
        target: TargetSite,
    },
}

enum Done {
    Identified {
        app: usize,
        seed: usize,
        identify_time: Duration,
    },
    Site {
        app: usize,
        seed: usize,
        record: Box<SiteRecord>,
    },
}

/// A per-site analysis outcome plus the campaign's re-validation verdict.
#[derive(Debug)]
pub struct SiteRecord {
    /// The full site report from the Figure 7 analysis.
    pub report: SiteReport,
    /// `Some(true)` if the exposed bug re-validated (constraint still
    /// satisfiable, input still triggers); `None` for non-exposed sites or
    /// when verification is disabled.
    pub verified: Option<bool>,
}

/// Results for one `(app, seed)` unit, sites in site-label order.
#[derive(Debug)]
pub struct UnitReport {
    /// The workload's display name.
    pub app: String,
    /// Index into the workload's seed list.
    pub seed_index: usize,
    /// Stage-1 identification time.
    pub identify_time: Duration,
    /// Per-site records, sorted by site label.
    pub sites: Vec<SiteRecord>,
}

impl UnitReport {
    /// Table 1 counts for this unit: (total, exposed, unsat, prevented).
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        let mut exposed = 0;
        let mut unsat = 0;
        let mut prevented = 0;
        for s in &self.sites {
            match s.report.outcome {
                SiteOutcome::Exposed(_) => exposed += 1,
                SiteOutcome::TargetUnsat => unsat += 1,
                SiteOutcome::Prevented(_) => prevented += 1,
                SiteOutcome::Unknown => {}
            }
        }
        (self.sites.len(), exposed, unsat, prevented)
    }
}

/// Everything a campaign produced.
#[derive(Debug)]
pub struct CampaignReport {
    /// One entry per `(app, seed)` unit, in spec order.
    pub units: Vec<UnitReport>,
    /// Shared-cache counters, when a cache was in play.
    pub cache: Option<CacheStats>,
    /// Prefix-snapshot counters, when a snapshot cache was in play.
    pub snapshots: Option<SnapshotStats>,
    /// End-to-end wall-clock time.
    pub wall_time: Duration,
    /// Worker threads used.
    pub threads: usize,
    /// Jobs executed (identification + per-site).
    pub jobs: usize,
    /// Largest interpreter heap high-water mark any single site analysis
    /// reached, in (approximate) bytes. Always collected — the gauge is
    /// a deterministic function of the executed programs, not of timing
    /// or telemetry settings.
    pub peak_heap_bytes: u64,
    /// Per-site decision provenance, when the spec's recorder was built
    /// with auditing on ([`Recorder::with_audit`]); sorted by
    /// `(app, seed, site)`. Like tracing, purely additive.
    pub provenance: Option<Vec<ProvenanceRecord>>,
}

impl CampaignReport {
    /// Whole-campaign counts: (total, exposed, unsat, prevented).
    #[must_use]
    pub fn counts(&self) -> (usize, usize, usize, usize) {
        self.units.iter().fold((0, 0, 0, 0), |acc, u| {
            let c = u.counts();
            (acc.0 + c.0, acc.1 + c.1, acc.2 + c.2, acc.3 + c.3)
        })
    }

    /// The unit for an app name's first seed.
    #[must_use]
    pub fn unit(&self, app: &str) -> Option<&UnitReport> {
        self.units.iter().find(|u| u.app == app)
    }

    /// A stable textual fingerprint of every site outcome, for
    /// determinism comparisons across execution modes.
    #[must_use]
    pub fn outcome_fingerprint(&self) -> String {
        let mut out = String::new();
        for u in &self.units {
            for s in &u.sites {
                let o = match &s.report.outcome {
                    SiteOutcome::Exposed(b) => {
                        format!("exposed:{}:{:02x?}", b.enforced, b.input)
                    }
                    SiteOutcome::TargetUnsat => "unsat".to_string(),
                    SiteOutcome::Prevented(r) => format!("prevented:{r:?}"),
                    SiteOutcome::Unknown => "unknown".to_string(),
                };
                out.push_str(&format!(
                    "{}#{}/{} -> {}\n",
                    u.app, u.seed_index, s.report.site, o
                ));
            }
        }
        out
    }
}
