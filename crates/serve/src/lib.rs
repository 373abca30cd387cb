//! # diode-serve — a resident campaign daemon with a warm-cache job queue
//!
//! Every other entry point in this workspace is one-shot: forge, run,
//! exit — throwing away the solver-query and prefix-snapshot caches a
//! campaign spent its wall time filling. This crate keeps them. The
//! `diode-serve` daemon accepts campaign jobs over a line-delimited
//! JSON protocol on a TCP socket ([`protocol`]), runs them through the
//! unchanged `CampaignSpec → CampaignReport` engine on a bounded worker
//! pool ([`server`]), and shares one process-lifetime [`SolverCache`]
//! and [`SnapshotCache`] across every job — so a second campaign over
//! an overlapping suite is mostly cache hits, and each job's report
//! states its marginal hit rates so the warm-vs-cold delta is
//! measurable.
//!
//! Three invariants carry over from the rest of the workspace:
//!
//! * **Determinism** — warm caches change wall time, never outcomes. A
//!   daemon-run report's outcome fingerprint is byte-identical to a
//!   cold one-shot `synth_campaign` run of the same spec (enforced by
//!   this crate's integration tests).
//! * **Soundness of sharing** — both caches are content-addressed: the
//!   solver cache by constraint structure, the snapshot cache by each
//!   unit's program text and seed bytes, so units from different suites
//!   share prefixes only when they are byte-identical.
//! * **Backpressure, never blocking** — admission beyond the bounded
//!   queue is a typed `429`; slow `watch` clients drop telemetry events
//!   from their own ring rather than slowing the campaign.
//!
//! Start a daemon with [`serve`], talk to it with the `serve` client in
//! `diode-bench` (see `docs/OPERATIONS.md` at the repo root).
//!
//! [`SolverCache`]: diode_engine::SolverCache
//! [`SnapshotCache`]: diode_engine::SnapshotCache

#![deny(missing_docs)]

pub mod protocol;
pub mod server;

/// The workspace's JSON codec, re-exported for daemon clients.
pub use diode_obs::Json;
pub use protocol::{parse_request, reject, JobSource, Request, PROTOCOL_VERSION};
pub use server::{serve, ServeConfig, ServerHandle};
