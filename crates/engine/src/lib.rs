//! # diode-engine — parallel campaign scheduler + shared solver cache
//!
//! The DIODE pipeline analyzes each target allocation site independently
//! (paper §4, Figure 7) and re-solves a growing constraint φ′∧β on every
//! enforcement iteration — embarrassingly parallel work with heavy query
//! overlap. This crate owns campaign-scale orchestration on top of
//! `diode-core`:
//!
//! * [`scheduler`] — a work-stealing job scheduler (global injector +
//!   per-worker deques over scoped threads, plain `std`) that fans
//!   `(program, seed, site)` jobs across all cores;
//! * a shared **solver-query cache** ([`SolverCache`], re-exported from
//!   `diode-solver`) installed across every worker, memoizing
//!   `Sat`/`Unsat` outcomes behind structural fingerprints of the
//!   constraints;
//! * the [`Campaign` API](CampaignSpec): many apps × seeds in one batch,
//!   live per-unit and per-site events on an optional [`PulseBus`],
//!   deterministic site-label-ordered aggregation, and per-bug
//!   re-validation.
//!
//! Determinism is a contract: a campaign's [`CampaignReport`] is
//! byte-identical (site outcomes, enforcement counts, triggering inputs)
//! at every worker count, because every job is a pure function and
//! aggregation ignores completion order. The worker count
//! ([`ExecutionMode::Parallel`]) is the one scheduling choice; a single
//! worker runs inline on the calling thread. Determinism tests compare
//! campaigns against `diode_core::analyze_program`, the paper's per-app
//! loop, and against a one-worker run without caches.
//!
//! ```
//! use diode_engine::{CampaignApp, CampaignSpec};
//! use diode_format::FormatDesc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let program = diode_lang::parse(r#"
//!     fn main() {
//!         n = zext32(in[0]) << 8 | zext32(in[1]);
//!         if n > 50000 { error("implausible"); }
//!         buf = alloc("demo@4", n * 100000);
//!         t = zext64(n) * 100000u64;
//!         p = 0u64;
//!         while p < 16u64 { buf[t * p / 16u64] = 0u8; p = p + 1u64; }
//!     }
//! "#)?;
//! let spec = CampaignSpec::new(vec![CampaignApp::new(
//!     "demo",
//!     program,
//!     FormatDesc::new("demo"),
//!     vec![0x00, 0x08],
//! )]);
//! let report = spec.run();
//! assert_eq!(report.counts().1, 1, "one exposed site");
//! // The campaign re-validated the bug through the shared cache:
//! assert_eq!(report.units[0].sites[0].verified, Some(true));
//! assert!(report.cache.unwrap().hits >= 1);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]

mod campaign;
pub mod scheduler;

pub use campaign::{
    CampaignApp, CampaignReport, CampaignSpec, CorpusSuite, ExecutionMode, PulseConfig, SiteRecord,
    UnitReport,
};
pub use diode_core::{SnapshotCache, SnapshotStats};
pub use diode_obs::{HeartbeatSample, PulseBus, PulseEvent, Recorder, Subscriber, WorkerState};
pub use diode_solver::{CacheStats, SolverCache};
