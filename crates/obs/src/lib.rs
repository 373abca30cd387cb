//! # diode-obs — structured tracing and metrics for the DIODE pipeline
//!
//! A zero-dependency observability layer attributing campaign time to
//! the paper's pipeline phases (identify → extract → solve → enforce →
//! validate, plus snapshot warm/resume and scheduler queue wait).
//!
//! The model: the campaign driver creates one [`Recorder`] per run and
//! installs a [`job_scope`] on the worker thread for each job. Inside a
//! scope, [`span`] guards time individual phases and [`count`]
//! accumulates counters — all into a thread-local buffer,
//! so recording takes no locks while a job runs. Buffers flush into the
//! recorder when the scope drops, and [`Recorder::trace`] merges them
//! deterministically: span identity is `(app, seed, site, phase, seq,
//! parent)` with a dense per-job sequence number, so the merged span set
//! is identical across thread counts (timestamps aside).
//!
//! Traces serialise to a versioned JSONL format ([`Trace::to_jsonl`],
//! round-trip tested), and fold into per-phase/per-site breakdowns
//! ([`PhaseBreakdown`], [`ProfileReport`]) or collapsed stacks
//! ([`collapsed_stacks`]) for flamegraph tooling.
//!
//! The crate also owns the workspace's one JSON codec, [`Json`]: every
//! format above, and every corpus document, daemon message and harness
//! `--json` output in the crates built on this one, is written and read
//! through it.
//!
//! ```
//! use std::sync::Arc;
//! use diode_obs::{job_scope, span, Phase, PhaseBreakdown, Recorder};
//!
//! let recorder = Arc::new(Recorder::new());
//! {
//!     let _scope = job_scope(Some(&recorder), "demo", 0, Some("buf@4"));
//!     let _enforce = span(Phase::Enforce);
//!     let _solve = span(Phase::Solve); // nested under enforce
//! }
//! let trace = recorder.trace();
//! assert_eq!(trace.spans.len(), 2);
//! let breakdown = PhaseBreakdown::from_trace(&trace);
//! assert!(breakdown.phase(Phase::Enforce).is_some());
//! ```
//!
//! When instrumentation is off (no recorder), `job_scope` installs
//! nothing and every `span`/`count` call is a thread-local read and a
//! branch — cheap enough to leave in hot paths.

#![warn(missing_docs)]

mod audit;
mod gauge;
mod json;
mod metrics;
mod ops;
mod profile;
mod pulse;
mod sink;
mod span;
mod telemetry;
mod watchdog;

pub use audit::{
    canonical_record_set, fnv64_hex, EnforceAction, ProvenanceEvent, ProvenanceRecord, QueryOrigin,
    QueryVerdict, AUDIT_SCHEMA_VERSION,
};
pub use gauge::ByteGauge;
pub use json::{Json, JsonError};
pub use metrics::{Hist, HistSummary};
pub use ops::{
    parse_prometheus, Counter, Gauge, Histogram, MetricKey, MetricSample, MetricValue,
    MetricsRegistry, MetricsSnapshot, PromSample, METRICS_SCHEMA_VERSION,
};
pub use profile::{
    collapsed_stacks, PhaseBreakdown, PhaseDelta, PhaseRow, ProfileDiff, ProfileReport, SiteDelta,
    SiteRow,
};
pub use pulse::{
    HeartbeatSample, PulseBus, PulseEvent, SchedGauges, Subscriber, WorkerState, WorkerStateTable,
};
pub use sink::TRACE_SCHEMA_VERSION;
pub use span::{
    audit_active, audit_event, count, job_scope, span, JobScope, Phase, Recorder, Span, SpanGuard,
    Trace,
};
pub use telemetry::{pulse_event_lines, telemetry_header, TelemetryLog, TELEMETRY_SCHEMA_VERSION};
pub use watchdog::{AnomalyKind, AnomalyReport, Watchdog, WatchdogConfig};
