//! # diode-corpus — persistent on-disk corpus: save, replay, diff, grow
//!
//! The DIODE workflow is longitudinal: sites found in one run seed
//! targeted re-analysis in the next, and an overflow fix is only
//! validated by replaying the stored witness that triggered it. This
//! crate turns forged suites from process-lifetime objects into an
//! **accumulating asset**:
//!
//! * [`CorpusStore::save`] persists a suite under a versioned,
//!   content-addressed directory layout — program source via the
//!   pretty-printer (the canonical serialization), raw seed bytes,
//!   format specs, and the ground-truth oracle;
//! * [`CorpusStore::load`] reconstructs a [`ReplayableSuite`] in any
//!   process: programs round-trip through the parser (so the corpus
//!   doubles as a parser fuzz corpus) and every content hash is
//!   re-verified;
//! * [`CorpusStore::record_witnesses`] freezes a campaign's findings —
//!   per-site outcomes, enforcement counts, triggering inputs, and the
//!   graded [`ScoreCard`] in canonical bytes — as a labelled
//!   [`WitnessSet`];
//! * [`CorpusDiff`] compares two recorded runs and classifies drift into
//!   *new*, *lost*, and *changed* sites — rerun a suite after a guard
//!   limit was tightened and the regression is flagged, not eyeballed;
//! * [`CorpusStore::grow`] extends a stored suite by `n` freshly forged
//!   apps **without re-forging the existing ones** (every app draws from
//!   its own RNG stream), so corpora grow incrementally across sessions.
//!
//! Determinism is cross-process: a suite forged and saved by one process,
//! loaded and replayed by another, yields a byte-identical `ScoreCard`
//! and outcome fingerprint.
//!
//! ```
//! use diode_corpus::{CorpusDiff, CorpusStore};
//! use diode_engine::ExecutionMode;
//! use diode_synth::SynthConfig;
//!
//! # fn main() -> Result<(), diode_corpus::CorpusError> {
//! # let dir = std::env::temp_dir().join(format!("diode-corpus-doc-{}", std::process::id()));
//! let store = CorpusStore::open(&dir)?;
//! let cfg = SynthConfig { apps: 1, min_sites: 1, max_sites: 2, ..SynthConfig::default() };
//! let saved = store.forge_and_save(&cfg)?;
//!
//! // A different process would open the same root and load by ID.
//! let loaded = store.load(saved.id())?;
//! let (report, card) = loaded.replay(ExecutionMode::default());
//! assert!(card.is_perfect());
//! store.record_witnesses(&loaded.witnesses("baseline", &report))?;
//!
//! // Later runs diff against the recorded baseline.
//! let (rerun, _) = loaded.replay(ExecutionMode::Parallel { threads: Some(1) });
//! let baseline = store.load_witnesses(saved.id(), "baseline")?;
//! let diff = CorpusDiff::between(&baseline, &loaded.witnesses("rerun", &rerun));
//! assert!(diff.is_clean());
//! # std::fs::remove_dir_all(&dir).ok();
//! # Ok(())
//! # }
//! ```
//!
//! [`ScoreCard`]: diode_synth::ScoreCard

#![warn(missing_docs)]

use std::fmt;
use std::io;
use std::path::PathBuf;

mod audit;
mod codec;
mod store;
mod witness;

use diode_obs::JsonError;

pub use audit::{record_file, record_key, AuditSet, DerivationDrift};
pub use codec::LAYOUT_VERSION;
pub use store::{CorpusStore, ReplayableSuite, SuiteSummary};
pub use witness::{
    outcome_token, ChangedSite, CorpusDiff, ScoreSummary, SiteKey, SiteWitness, WitnessSet,
};

/// Why a corpus operation failed.
#[derive(Debug)]
pub enum CorpusError {
    /// A filesystem operation failed.
    Io {
        /// The path involved.
        path: PathBuf,
        /// The underlying error.
        source: io::Error,
    },
    /// A stored document is not valid JSON.
    Json {
        /// The file involved.
        path: PathBuf,
        /// The parse failure.
        error: JsonError,
    },
    /// A stored document parses but has the wrong shape or content.
    Corrupt {
        /// Which document.
        doc: String,
        /// What is wrong with it.
        reason: String,
    },
    /// A document was written by an incompatible layout version.
    UnsupportedVersion {
        /// Which document.
        doc: String,
        /// The version found.
        found: u64,
        /// The version this build supports.
        supported: u64,
    },
    /// A manifest failed suite reconstruction (parse / canonicality /
    /// hash verification).
    Manifest(diode_synth::ManifestError),
    /// No stored suite matches the given ID or prefix.
    UnknownSuite {
        /// The ID or prefix given.
        id: String,
    },
    /// An ID prefix matches more than one stored suite.
    AmbiguousSuite {
        /// The prefix given.
        prefix: String,
        /// Every matching suite ID.
        matches: Vec<String>,
    },
    /// No witness set recorded under this label.
    UnknownWitnesses {
        /// The suite ID.
        id: String,
        /// The label given.
        label: String,
    },
    /// A witness label is not a safe file stem.
    BadLabel {
        /// The label given.
        label: String,
    },
}

impl fmt::Display for CorpusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CorpusError::Io { path, source } => {
                write!(f, "{}: {source}", path.display())
            }
            CorpusError::Json { path, error } => {
                write!(f, "{}: {error}", path.display())
            }
            CorpusError::Corrupt { doc, reason } => write!(f, "{doc}: {reason}"),
            CorpusError::UnsupportedVersion {
                doc,
                found,
                supported,
            } => write!(
                f,
                "{doc}: layout version {found} unsupported (this build reads {supported})"
            ),
            CorpusError::Manifest(e) => write!(f, "manifest: {e}"),
            CorpusError::UnknownSuite { id } => write!(f, "no stored suite matches {id:?}"),
            CorpusError::AmbiguousSuite { prefix, matches } => write!(
                f,
                "suite prefix {prefix:?} is ambiguous: {}",
                matches.join(", ")
            ),
            CorpusError::UnknownWitnesses { id, label } => {
                write!(f, "{id}: no witnesses recorded under label {label:?}")
            }
            CorpusError::BadLabel { label } => write!(
                f,
                "label {label:?} is not a safe file stem ([A-Za-z0-9._-], no leading dot)"
            ),
        }
    }
}

impl std::error::Error for CorpusError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CorpusError::Io { source, .. } => Some(source),
            CorpusError::Json { error, .. } => Some(error),
            CorpusError::Manifest(e) => Some(e),
            _ => None,
        }
    }
}

impl From<diode_synth::ManifestError> for CorpusError {
    fn from(e: diode_synth::ManifestError) -> Self {
        CorpusError::Manifest(e)
    }
}
