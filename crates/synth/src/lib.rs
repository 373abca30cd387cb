//! # diode-synth — the ground-truth scenario forge
//!
//! The paper evaluates DIODE on five hand-ported applications (§5), which
//! caps every claim about detection rates at 40 allocation sites. This
//! crate removes that ceiling: it *synthesizes* complete benchmark units —
//! a program (generated as an AST, well-formed by construction) with
//! parser-style field extraction, guard chains of tunable depth, and
//! planted allocation sites; a matching [`FormatDesc`]; valid seed inputs;
//! and a **ground-truth oracle** recording each planted site's true
//! classification — so campaigns can be pointed at hundreds of scenarios
//! and graded for recall and precision instead of eyeballed.
//!
//! ## Oracle semantics
//!
//! Every planted site computes its allocation size at 32 bits from one or
//! two input fields through a monotone arithmetic shape (`v*c`, `v+c`,
//! `(v1*v2)*c`, `v<<k`, `v*c+d`). Because the shapes are monotone in each
//! field, the site's classification follows from evaluating the *true*
//! (unbounded) size at the extreme points of the input space:
//!
//! * **[`Exposable`]** — the true size reaches 2³² for some guard-passing
//!   field values. The forge plants a probe loop that touches the block
//!   across its full 64-bit logical extent, so the wrapped (or failed)
//!   allocation faults; DIODE must classify the site
//!   [`SiteOutcome::Exposed`].
//! * **[`GuardPrevented`]** — the raw fields could overflow the
//!   computation, but the binding guard (`if v > L { error }` with `L`
//!   below the overflow threshold) rejects every overflowing input; DIODE
//!   must classify the site [`SiteOutcome::Prevented`].
//! * **[`TargetUnsat`]** — no field values at all overflow the
//!   computation. Parameters are chosen so the static bound analysis in
//!   `overflow_condition` discharges every overflow atom, making the
//!   target constraint β literally `false`; DIODE must classify the site
//!   [`SiteOutcome::TargetUnsat`].
//!
//! The oracle is **known by construction** — no reference run, no solver,
//! no labelling pass — which is what makes 100%-recall assertions
//! meaningful: a missed exposable site is a bug in the pipeline, not in
//! the benchmark.
//!
//! Determinism is part of the contract: a [`SynthConfig`] (site counts,
//! branch depth, arithmetic shapes, input-width classes, RNG seed) maps to
//! a byte-identical suite every time, and campaign reports over forged
//! suites are byte-identical at every worker count.
//!
//! ## Example
//!
//! ```
//! use diode_engine::CampaignSpec;
//! use diode_synth::{forge, score, SynthConfig};
//!
//! let cfg = SynthConfig {
//!     apps: 1,
//!     min_sites: 2,
//!     max_sites: 2,
//!     ..SynthConfig::default()
//! };
//! let suite = forge(&cfg);
//! let report = CampaignSpec::new(suite.campaign_apps()).run();
//! let card = score(&report, &suite.oracle);
//! assert_eq!(card.recall(), 1.0, "{card}");
//! assert!(card.is_perfect(), "{:?}", card.mismatches);
//! ```
//!
//! [`FormatDesc`]: diode_format::FormatDesc
//! [`Exposable`]: GroundTruth::Exposable
//! [`GuardPrevented`]: GroundTruth::GuardPrevented
//! [`TargetUnsat`]: GroundTruth::TargetUnsat
//! [`SiteOutcome::Exposed`]: diode_core::SiteOutcome::Exposed
//! [`SiteOutcome::Prevented`]: diode_core::SiteOutcome::Prevented
//! [`SiteOutcome::TargetUnsat`]: diode_core::SiteOutcome::TargetUnsat

#![warn(missing_docs)]

mod config;
mod forge;
mod manifest;
mod oracle;
mod score;

pub use config::{ClassMix, ShapeClass, SynthConfig, WidthClass};
pub use forge::{forge, forge_range, forge_stall, ForgedSuite};
pub use manifest::{AppManifest, Fnv64, ManifestError, SuiteManifest};
pub use oracle::{AppOracle, GroundTruth, PlantedSite, SynthOracle};
pub use score::{score, Mismatch, ScoreCard};
