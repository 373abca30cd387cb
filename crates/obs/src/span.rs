//! Span recording: the [`Recorder`], the thread-local job scope, and the
//! RAII [`SpanGuard`] that times a single pipeline phase.
//!
//! Design: instrumented code never threads a recorder handle through its
//! API. Instead the campaign driver installs a [`JobScope`] on the worker
//! thread at the start of each job (one identify pass or one site
//! analysis), and every [`span`]/[`count`] call inside the job body
//! writes into a thread-local buffer owned by that scope. The buffer is
//! flushed into the shared [`Recorder`] exactly once, when the scope
//! drops — so recording is lock-free while the job runs.
//!
//! Span identity is deterministic: each job assigns its spans a dense
//! per-job sequence number, so the tuple `(app, seed, site, phase, seq,
//! parent)` is independent of which worker ran the job or how many
//! threads the campaign used. Only [`Phase::is_volatile`] phases
//! (scheduler queue waits) fall outside this guarantee, and they carry no
//! job context.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

use crate::audit::{ProvenanceEvent, ProvenanceRecord};
use crate::metrics::{Hist, HistSummary};

/// A pipeline phase a span can be attributed to.
///
/// The first six phases mirror the paper's enforcement pipeline
/// (identify -> extract -> solve -> enforce -> validate, plus the
/// snapshot warm pass); the `Interp*` phases attribute interpreter time
/// inside them; `QueueWait` is scheduler idle time between jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Stage-1 taint run identifying target sites for one unit.
    Identify,
    /// One-pass prefix-snapshot capture for a unit's sites.
    Warm,
    /// Stage-2 symbolic extraction of the target expression for a site.
    Extract,
    /// A single solver query (`phi' && beta` or a branch flip).
    Solve,
    /// The goal-directed branch enforcement loop for a site.
    Enforce,
    /// Re-validation of an exposed bug's generated input.
    Validate,
    /// A full concrete/taint/symbolic interpreter run from byte 0.
    InterpRun,
    /// An interpreter run resumed from a prefix snapshot.
    InterpResume,
    /// An interpreter run that captures prefix snapshots.
    InterpCapture,
    /// Scheduler time between finishing one job and starting the next.
    QueueWait,
}

impl Phase {
    /// Every phase, in canonical display order.
    pub const ALL: [Phase; 10] = [
        Phase::Identify,
        Phase::Warm,
        Phase::Extract,
        Phase::Solve,
        Phase::Enforce,
        Phase::Validate,
        Phase::InterpRun,
        Phase::InterpResume,
        Phase::InterpCapture,
        Phase::QueueWait,
    ];

    /// Stable wire name used in the JSONL schema and profile output.
    pub fn as_str(self) -> &'static str {
        match self {
            Phase::Identify => "identify",
            Phase::Warm => "warm",
            Phase::Extract => "extract",
            Phase::Solve => "solve",
            Phase::Enforce => "enforce",
            Phase::Validate => "validate",
            Phase::InterpRun => "interp_run",
            Phase::InterpResume => "interp_resume",
            Phase::InterpCapture => "interp_capture",
            Phase::QueueWait => "queue_wait",
        }
    }

    /// Inverse of [`Phase::as_str`].
    pub fn parse(name: &str) -> Option<Phase> {
        Phase::ALL.into_iter().find(|p| p.as_str() == name)
    }

    /// Volatile phases depend on scheduling (worker count, steal order)
    /// and are excluded from deterministic span-identity comparisons.
    pub fn is_volatile(self) -> bool {
        matches!(self, Phase::QueueWait)
    }
}

impl std::fmt::Display for Phase {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One timed interval attributed to a phase within a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Pipeline phase this interval belongs to.
    pub phase: Phase,
    /// Application name, empty for volatile (context-free) spans.
    pub app: String,
    /// Seed index of the unit within its app.
    pub seed: u32,
    /// Target site label, `None` for unit-level jobs (identify/warm).
    pub site: Option<String>,
    /// Dense per-job sequence number (deterministic span identity).
    pub seq: u32,
    /// `seq` of the enclosing span within the same job, if nested.
    pub parent: Option<u32>,
    /// Monotonic start, nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Duration in nanoseconds.
    pub dur_ns: u64,
    /// For solve spans under a shared query cache: whether the query hit.
    pub cache_hit: Option<bool>,
}

impl Span {
    /// Timestamp-free identity: equal across runs and thread counts for
    /// non-volatile spans.
    pub fn identity(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}",
            self.app,
            self.seed,
            self.site.as_deref().unwrap_or("-"),
            self.phase,
            self.seq,
            self.parent.map_or(-1i64, i64::from),
        )
    }

    /// True when the span has no parent within its job — top-level spans
    /// partition a job's compute time and are what profile coverage sums.
    pub fn is_top_level(&self) -> bool {
        self.parent.is_none() && !self.phase.is_volatile()
    }
}

/// Everything a [`Recorder`] collected, merged into deterministic order.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Trace {
    /// Spans sorted by `(app, seed, site, seq)`; volatile spans last.
    pub spans: Vec<Span>,
    /// Monotonic counters, merged by summation.
    pub counters: BTreeMap<String, u64>,
    /// Histogram summaries, merged before summarisation.
    pub hists: BTreeMap<String, HistSummary>,
    /// Campaign wall time, stamped by the caller before writing.
    pub wall_ns: Option<u64>,
    /// Worker thread count, stamped by the caller before writing.
    pub threads: Option<u32>,
}

impl Trace {
    /// Sorted timestamp-free identities of all non-volatile spans. Two
    /// campaigns over the same spec produce the same identity set
    /// regardless of thread count.
    pub fn identity_set(&self) -> Vec<String> {
        let mut ids: Vec<String> = self
            .spans
            .iter()
            .filter(|s| !s.phase.is_volatile())
            .map(Span::identity)
            .collect();
        ids.sort_unstable();
        ids
    }

    /// Sum of top-level span durations (the instrumented compute time).
    pub fn top_level_ns(&self) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.is_top_level())
            .map(|s| s.dur_ns)
            .sum()
    }
}

/// Per-job recording buffer flushed into the recorder when the job ends.
struct JobBuf {
    recorder: Arc<Recorder>,
    app: String,
    seed: u32,
    site: Option<String>,
    audit: bool,
    next_seq: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
    counters: BTreeMap<&'static str, u64>,
    events: Vec<ProvenanceEvent>,
}

/// One job's worth of provenance events, flushed with the job buffer.
struct ProvenanceJob {
    app: String,
    seed: u32,
    site: Option<String>,
    events: Vec<ProvenanceEvent>,
}

thread_local! {
    static ACTIVE: RefCell<Option<JobBuf>> = const { RefCell::new(None) };
}

/// Collects spans and metrics from worker threads and merges them
/// deterministically. Create one per campaign with [`Recorder::new`];
/// without one ([`job_scope`] given `None`) every instrumentation point
/// is a no-op (one thread-local read and a branch).
pub struct Recorder {
    audit: bool,
    epoch: Instant,
    shards: Mutex<Vec<Vec<Span>>>,
    counters: Mutex<BTreeMap<String, u64>>,
    hists: Mutex<BTreeMap<String, Hist>>,
    events: Mutex<Vec<ProvenanceJob>>,
}

impl std::fmt::Debug for Recorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Recorder")
            .field("audit", &self.audit)
            .finish_non_exhaustive()
    }
}

impl Default for Recorder {
    fn default() -> Self {
        Recorder::new()
    }
}

impl Recorder {
    /// A recorder with a fresh monotonic epoch.
    pub fn new() -> Recorder {
        Recorder {
            audit: false,
            epoch: Instant::now(),
            shards: Mutex::new(Vec::new()),
            counters: Mutex::new(BTreeMap::new()),
            hists: Mutex::new(BTreeMap::new()),
            events: Mutex::new(Vec::new()),
        }
    }

    /// Turn on decision-provenance auditing: [`audit_event`] calls inside
    /// job scopes are collected and merged into [`Recorder::provenance`]
    /// records. Off by default — auditing costs one event allocation per
    /// pipeline decision.
    pub fn with_audit(mut self) -> Recorder {
        self.audit = true;
        self
    }

    /// Whether this recorder collects provenance events.
    pub fn audit_enabled(&self) -> bool {
        self.audit
    }

    /// Nanoseconds since this recorder's epoch.
    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Record a context-free volatile span (e.g. scheduler queue wait)
    /// directly, bypassing the thread-local job buffer.
    pub fn record_volatile(&self, phase: Phase, start_ns: u64, dur_ns: u64) {
        self.shards.lock().unwrap().push(vec![Span {
            phase,
            app: String::new(),
            seed: 0,
            site: None,
            seq: 0,
            parent: None,
            start_ns,
            dur_ns,
            cache_hit: None,
        }]);
    }

    /// Bump a named monotonic counter directly (for code that runs
    /// outside any job scope, like the scheduler).
    pub fn count_direct(&self, name: &str, delta: u64) {
        if delta == 0 {
            return;
        }
        *self
            .counters
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0) += delta;
    }

    /// Record a nanosecond observation into a named histogram directly.
    pub fn observe_direct(&self, name: &str, ns: u64) {
        self.hists
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_default()
            .record(ns);
    }

    fn flush(
        &self,
        spans: Vec<Span>,
        counters: BTreeMap<&'static str, u64>,
        job: Option<ProvenanceJob>,
    ) {
        if !spans.is_empty() {
            self.shards.lock().unwrap().push(spans);
        }
        if let Some(job) = job {
            self.events.lock().unwrap().push(job);
        }
        if !counters.is_empty() {
            let mut merged = self.counters.lock().unwrap();
            for (name, delta) in counters {
                *merged.entry(name.to_string()).or_insert(0) += delta;
            }
        }
    }

    /// Non-destructive deterministic merge of everything recorded so
    /// far. Contextful spans sort by `(app, seed, site, seq)`; volatile
    /// spans sort by start time and go last.
    pub fn trace(&self) -> Trace {
        let shards = self.shards.lock().unwrap();
        let mut spans: Vec<Span> = shards.iter().flatten().cloned().collect();
        drop(shards);
        spans.sort_by(|a, b| {
            (
                a.phase.is_volatile(),
                &a.app,
                a.seed,
                &a.site,
                a.seq,
                a.start_ns,
            )
                .cmp(&(
                    b.phase.is_volatile(),
                    &b.app,
                    b.seed,
                    &b.site,
                    b.seq,
                    b.start_ns,
                ))
        });
        Trace {
            spans,
            counters: self.counters.lock().unwrap().clone(),
            hists: self
                .hists
                .lock()
                .unwrap()
                .iter()
                .map(|(k, v)| (k.clone(), v.summary()))
                .collect(),
            wall_ns: None,
            threads: None,
        }
    }

    /// Deterministic merge of all provenance events collected so far:
    /// one [`ProvenanceRecord`] per audited site job, sorted by
    /// `(app, seed, site)`. Empty unless the recorder was built
    /// [`Recorder::with_audit`]. Events within a record keep the order
    /// the pipeline emitted them in (site jobs run sequentially, so that
    /// order is thread-count independent).
    pub fn provenance(&self) -> Vec<ProvenanceRecord> {
        let jobs = self.events.lock().unwrap();
        let mut records: Vec<ProvenanceRecord> = jobs
            .iter()
            .filter_map(|j| {
                // Provenance is per-site; unit-level jobs (identify/warm)
                // make no audited decisions.
                let site = j.site.clone()?;
                Some(ProvenanceRecord {
                    app: j.app.clone(),
                    seed: j.seed,
                    site,
                    events: j.events.clone(),
                })
            })
            .collect();
        drop(jobs);
        records.sort_by(|a, b| (&a.app, a.seed, &a.site).cmp(&(&b.app, b.seed, &b.site)));
        records
    }
}

/// RAII guard installing per-job recording state on the current thread.
/// Created by [`job_scope`]; flushes the job's buffer into the recorder
/// on drop. Nested scopes stack (the previous scope is restored).
pub struct JobScope {
    installed: bool,
    prev: Option<JobBuf>,
}

/// Install a recording scope for one job on the current thread. Returns
/// an inert guard when `recorder` is `None` — in that state every
/// [`span`]/[`count`] call in the job body is a no-op.
pub fn job_scope(
    recorder: Option<&Arc<Recorder>>,
    app: &str,
    seed: u32,
    site: Option<&str>,
) -> JobScope {
    let Some(recorder) = recorder else {
        return JobScope {
            installed: false,
            prev: None,
        };
    };
    let buf = JobBuf {
        recorder: Arc::clone(recorder),
        app: app.to_string(),
        seed,
        site: site.map(str::to_string),
        audit: recorder.audit_enabled(),
        next_seq: 0,
        open: Vec::new(),
        spans: Vec::new(),
        counters: BTreeMap::new(),
        events: Vec::new(),
    };
    let prev = ACTIVE.with(|a| a.borrow_mut().replace(buf));
    JobScope {
        installed: true,
        prev,
    }
}

impl Drop for JobScope {
    fn drop(&mut self) {
        if !self.installed {
            return;
        }
        let buf = ACTIVE.with(|a| std::mem::replace(&mut *a.borrow_mut(), self.prev.take()));
        if let Some(buf) = buf {
            let job = (!buf.events.is_empty()).then(|| ProvenanceJob {
                app: buf.app.clone(),
                seed: buf.seed,
                site: buf.site.clone(),
                events: buf.events,
            });
            buf.recorder.flush(buf.spans, buf.counters, job);
        }
    }
}

/// RAII guard timing one phase span; finalises on drop. Inert outside a
/// [`job_scope`].
pub struct SpanGuard {
    open: Option<OpenSpan>,
}

struct OpenSpan {
    phase: Phase,
    seq: u32,
    parent: Option<u32>,
    start_ns: u64,
    cache_hit: Option<bool>,
}

/// Start timing a phase span on the current thread. No-op (and near
/// free) when no job scope is installed.
pub fn span(phase: Phase) -> SpanGuard {
    ACTIVE.with(|a| {
        let mut slot = a.borrow_mut();
        let Some(buf) = slot.as_mut() else {
            return SpanGuard { open: None };
        };
        let seq = buf.next_seq;
        buf.next_seq += 1;
        let parent = buf.open.last().copied();
        buf.open.push(seq);
        let start_ns = buf.recorder.now_ns();
        SpanGuard {
            open: Some(OpenSpan {
                phase,
                seq,
                parent,
                start_ns,
                cache_hit: None,
            }),
        }
    })
}

impl SpanGuard {
    /// Annotate a solve span with cache-hit attribution. The annotation
    /// is advisory (racy under shared caches) and excluded from span
    /// identity.
    pub fn cache_hit(&mut self, hit: bool) {
        if let Some(open) = &mut self.open {
            open.cache_hit = Some(hit);
        }
    }

    /// Whether this guard is actually recording.
    pub fn is_active(&self) -> bool {
        self.open.is_some()
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let Some(open) = self.open.take() else {
            return;
        };
        ACTIVE.with(|a| {
            let mut slot = a.borrow_mut();
            let Some(buf) = slot.as_mut() else {
                return;
            };
            if buf.open.last() == Some(&open.seq) {
                buf.open.pop();
            } else {
                buf.open.retain(|&s| s != open.seq);
            }
            let end = buf.recorder.now_ns();
            buf.spans.push(Span {
                phase: open.phase,
                app: buf.app.clone(),
                seed: buf.seed,
                site: buf.site.clone(),
                seq: open.seq,
                parent: open.parent,
                start_ns: open.start_ns,
                dur_ns: end.saturating_sub(open.start_ns),
                cache_hit: open.cache_hit,
            });
        });
    }
}

/// Bump a named monotonic counter within the current job scope (no-op
/// outside one).
pub fn count(name: &'static str, delta: u64) {
    if delta == 0 {
        return;
    }
    ACTIVE.with(|a| {
        if let Some(buf) = a.borrow_mut().as_mut() {
            *buf.counters.entry(name).or_insert(0) += delta;
        }
    });
}

/// Whether the current job scope collects provenance events. Emitters
/// with non-trivial payloads (byte sets, fingerprints) should check this
/// first so a disabled recorder costs no allocations in the hot loop.
pub fn audit_active() -> bool {
    ACTIVE.with(|a| a.borrow().as_ref().is_some_and(|buf| buf.audit))
}

/// Append a provenance event to the current audited job scope. No-op
/// (one thread-local read and a branch) outside an auditing scope.
pub fn audit_event(event: ProvenanceEvent) {
    ACTIVE.with(|a| {
        if let Some(buf) = a.borrow_mut().as_mut() {
            if buf.audit {
                buf.events.push(event);
            }
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn span_outside_scope_is_noop() {
        let guard = span(Phase::Solve);
        assert!(!guard.is_active());
        drop(guard);
        count("x", 1);
    }

    #[test]
    fn scope_records_nested_spans_with_deterministic_seq() {
        let rec = Arc::new(Recorder::new());
        {
            let _scope = job_scope(Some(&rec), "app-a", 3, Some("s@1"));
            let _outer = span(Phase::Enforce);
            {
                let mut inner = span(Phase::Solve);
                inner.cache_hit(true);
            }
            count("solver.queries", 1);
        }
        rec.observe_direct("lat", 5);
        let trace = rec.trace();
        assert_eq!(trace.spans.len(), 2);
        // Merged order is by seq: outer (seq 0) first even though the
        // inner span finished first.
        assert_eq!(trace.spans[0].phase, Phase::Enforce);
        assert_eq!(trace.spans[0].seq, 0);
        assert_eq!(trace.spans[0].parent, None);
        assert_eq!(trace.spans[1].phase, Phase::Solve);
        assert_eq!(trace.spans[1].seq, 1);
        assert_eq!(trace.spans[1].parent, Some(0));
        assert_eq!(trace.spans[1].cache_hit, Some(true));
        assert_eq!(trace.spans[1].app, "app-a");
        assert_eq!(trace.spans[1].site.as_deref(), Some("s@1"));
        assert_eq!(trace.counters.get("solver.queries"), Some(&1));
        assert_eq!(trace.hists.get("lat").unwrap().count, 1);
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        // No recorder is the disabled state: the scope installs no
        // thread-local buffer, so every instrumentation call is inert.
        let scope = job_scope(None, "a", 0, None);
        assert!(!scope.installed);
        let guard = span(Phase::Identify);
        assert!(!guard.is_active());
        assert!(!audit_active());
        count("c", 1);
        drop(guard);
        drop(scope);
        assert!(ACTIVE.with(|a| a.borrow().is_none()));
    }

    #[test]
    fn volatile_spans_sort_last_and_leave_identity_set() {
        let rec = Arc::new(Recorder::new());
        rec.record_volatile(Phase::QueueWait, 5, 7);
        {
            let _scope = job_scope(Some(&rec), "z", 0, None);
            let _s = span(Phase::Identify);
        }
        let trace = rec.trace();
        assert_eq!(trace.spans.len(), 2);
        assert_eq!(trace.spans[0].phase, Phase::Identify);
        assert_eq!(trace.spans[1].phase, Phase::QueueWait);
        assert_eq!(trace.identity_set().len(), 1);
        assert_eq!(trace.identity_set()[0], "z|0|-|identify|0|-1");
    }

    #[test]
    fn audit_events_collect_only_under_auditing_scope() {
        use crate::audit::{ProvenanceEvent, QueryOrigin, QueryVerdict};
        let event = || ProvenanceEvent::Query {
            origin: QueryOrigin::Beta,
            fingerprint: "00".to_string(),
            verdict: QueryVerdict::Sat,
            cache_hit: None,
        };
        // No scope at all.
        assert!(!audit_active());
        audit_event(event());
        // Enabled recorder without audit.
        let plain = Arc::new(Recorder::new());
        {
            let _scope = job_scope(Some(&plain), "a", 0, Some("s@1"));
            assert!(!audit_active());
            audit_event(event());
        }
        assert!(plain.provenance().is_empty());
        // Auditing recorder: events from the site job become a record;
        // events from a unit job (site None) are dropped.
        let auditing = Arc::new(Recorder::new().with_audit());
        {
            let _scope = job_scope(Some(&auditing), "a", 0, Some("s@1"));
            assert!(audit_active());
            audit_event(event());
            audit_event(event());
        }
        {
            let _scope = job_scope(Some(&auditing), "a", 0, None);
            audit_event(event());
        }
        let records = auditing.provenance();
        assert_eq!(records.len(), 1);
        assert_eq!(records[0].site, "s@1");
        assert_eq!(records[0].events.len(), 2);
    }

    #[test]
    fn identity_is_independent_of_timestamps() {
        let make = || {
            let rec = Arc::new(Recorder::new());
            {
                let _scope = job_scope(Some(&rec), "a", 1, Some("x"));
                let _s = span(Phase::Extract);
                std::hint::black_box(0u64);
            }
            rec.trace().identity_set()
        };
        assert_eq!(make(), make());
    }
}
