//! The on-disk store: a directory of content-addressed suite directories.
//!
//! ```text
//! <root>/
//!   suite-0123456789abcdef/
//!     manifest.json          config + per-app entries + content hashes
//!     programs/<app>.dl      canonical pretty-printed program source
//!     seeds/<app>.s<k>.bin   raw seed bytes
//!     oracle.json            by-construction ground truth
//!     witnesses/<label>.json recorded campaign runs (replayable findings)
//! ```
//!
//! `manifest.json` is written last, so its presence marks a complete
//! suite; [`CorpusStore::list`] ignores directories without one. Other
//! files in a suite directory (such as the per-site snapshot metadata
//! earlier versions recorded next to `witnesses/`) are ignored. Saving
//! is idempotent: a suite's directory name *is* its content hash, so
//! re-saving identical content is a no-op and divergent content cannot
//! collide.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use diode_engine::{CampaignReport, CampaignSpec, CorpusSuite, ExecutionMode};
use diode_obs::Json;
use diode_synth::{
    forge_range, score, ForgedSuite, ScoreCard, SuiteManifest, SynthConfig, SynthOracle,
};

use crate::audit::{self, AuditSet};
use crate::codec;
use crate::witness::WitnessSet;
use crate::CorpusError;

/// A suite loaded back from the store, ready to run through the engine.
#[derive(Debug)]
pub struct ReplayableSuite {
    /// The manifest as read (and verified) from disk.
    pub manifest: SuiteManifest,
    /// The reconstructed runnable suite (programs re-parsed from source).
    pub suite: ForgedSuite,
}

impl ReplayableSuite {
    /// The suite's content-addressed identity.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.manifest.suite_id
    }

    /// The configuration that forged the suite.
    #[must_use]
    pub fn config(&self) -> &SynthConfig {
        &self.manifest.config
    }

    /// The ground-truth oracle.
    #[must_use]
    pub fn oracle(&self) -> &SynthOracle {
        &self.suite.oracle
    }

    /// Replays the suite through the campaign scheduler and grades the
    /// report against the stored oracle.
    #[must_use]
    pub fn replay(&self, mode: ExecutionMode) -> (CampaignReport, ScoreCard) {
        self.replay_with(mode, false)
    }

    /// Freezes a replay into a labelled witness set for this suite.
    #[must_use]
    pub fn witnesses(&self, label: &str, report: &CampaignReport) -> WitnessSet {
        WitnessSet::from_report(self.id(), label, report, Some(&self.suite.oracle))
    }

    /// Freezes a replay's decision provenance, when the run was audited.
    #[must_use]
    pub fn audit(&self, label: &str, report: &CampaignReport) -> Option<AuditSet> {
        AuditSet::from_report(self.id(), label, report)
    }

    /// [`replay`](ReplayableSuite::replay) with decision-provenance
    /// auditing on: the report carries a [`ProvenanceRecord`] per site
    /// (pass it to [`ReplayableSuite::audit`] /
    /// [`CorpusStore::record_audit`]). Outcomes are identical to an
    /// unaudited replay — auditing only observes.
    ///
    /// [`ProvenanceRecord`]: diode_obs::ProvenanceRecord
    #[must_use]
    pub fn replay_audited(&self, mode: ExecutionMode) -> (CampaignReport, ScoreCard) {
        self.replay_with(mode, true)
    }

    /// The general replay, with optional decision-provenance auditing.
    /// Auditing only observes: reports stay byte-identical to a bare
    /// [`replay`](ReplayableSuite::replay).
    #[must_use]
    pub fn replay_with(&self, mode: ExecutionMode, audit: bool) -> (CampaignReport, ScoreCard) {
        let spec = CampaignSpec {
            mode,
            recorder: audit
                .then(|| std::sync::Arc::new(diode_engine::Recorder::new().with_audit())),
            ..CampaignSpec::from_corpus(self)
        };
        let report = spec.run();
        let card = score(&report, &self.suite.oracle);
        (report, card)
    }
}

impl CorpusSuite for ReplayableSuite {
    fn campaign_apps(&self) -> Vec<diode_engine::CampaignApp> {
        self.suite.campaign_apps()
    }
}

/// Summary of one stored suite, as listed by [`CorpusStore::list`].
#[derive(Debug, Clone)]
pub struct SuiteSummary {
    /// Suite ID (the directory name).
    pub id: String,
    /// Number of applications.
    pub apps: usize,
    /// Total planted sites.
    pub sites: usize,
    /// Total seed inputs.
    pub seeds: usize,
    /// The forging configuration's RNG seed.
    pub rng_seed: u64,
    /// Recorded witness labels, sorted.
    pub witnesses: Vec<String>,
}

/// Handle to a corpus root directory.
#[derive(Debug, Clone)]
pub struct CorpusStore {
    root: PathBuf,
}

fn read_err(path: &Path, source: io::Error) -> CorpusError {
    CorpusError::Io {
        path: path.to_path_buf(),
        source,
    }
}

fn read_doc(path: &Path) -> Result<Json, CorpusError> {
    let text = fs::read_to_string(path).map_err(|e| read_err(path, e))?;
    Json::parse(&text).map_err(|error| CorpusError::Json {
        path: path.to_path_buf(),
        error,
    })
}

fn write_file(path: &Path, bytes: &[u8]) -> Result<(), CorpusError> {
    if let Some(parent) = path.parent() {
        fs::create_dir_all(parent).map_err(|e| read_err(parent, e))?;
    }
    fs::write(path, bytes).map_err(|e| read_err(path, e))
}

/// A witness label must be a safe file stem.
fn check_label(label: &str) -> Result<(), CorpusError> {
    let ok = !label.is_empty()
        && label.len() <= 64
        && label
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, '-' | '_' | '.'))
        && !label.starts_with('.');
    if ok {
        Ok(())
    } else {
        Err(CorpusError::BadLabel {
            label: label.to_string(),
        })
    }
}

impl CorpusStore {
    /// Opens (creating if needed) a corpus root directory.
    ///
    /// # Errors
    ///
    /// Fails if the directory cannot be created.
    pub fn open(root: impl Into<PathBuf>) -> Result<CorpusStore, CorpusError> {
        let root = root.into();
        fs::create_dir_all(&root).map_err(|e| read_err(&root, e))?;
        Ok(CorpusStore { root })
    }

    /// The corpus root directory.
    #[must_use]
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The directory of a suite ID.
    #[must_use]
    pub fn suite_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Forges a suite from a config and saves it; the one-call entry
    /// point behind `corpus forge`.
    ///
    /// # Errors
    ///
    /// Propagates any I/O failure from [`CorpusStore::save`].
    pub fn forge_and_save(&self, cfg: &SynthConfig) -> Result<ReplayableSuite, CorpusError> {
        let suite = diode_synth::forge(cfg);
        let id = self.save(&suite.manifest(cfg))?;
        self.load(&id)
    }

    /// Persists a suite manifest. Returns the suite ID (the directory
    /// name). Saving the same content twice is a no-op; a directory whose
    /// name matches but whose manifest does not is corruption and is
    /// reported, never overwritten.
    ///
    /// # Errors
    ///
    /// I/O failures and same-ID/different-content collisions.
    pub fn save(&self, manifest: &SuiteManifest) -> Result<String, CorpusError> {
        let id = manifest.suite_id.clone();
        let dir = self.suite_dir(&id);
        let manifest_path = dir.join("manifest.json");
        let encoded = codec::manifest_json(manifest).to_string();
        if manifest_path.exists() {
            let existing =
                fs::read_to_string(&manifest_path).map_err(|e| read_err(&manifest_path, e))?;
            if existing == encoded {
                return Ok(id); // idempotent re-save
            }
            return Err(CorpusError::Corrupt {
                doc: manifest_path.display().to_string(),
                reason: "suite directory exists with different content".to_string(),
            });
        }
        for app in &manifest.apps {
            write_file(
                &dir.join(codec::program_file(&app.name)),
                app.program.as_bytes(),
            )?;
            for (k, seed) in app.seeds.iter().enumerate() {
                write_file(&dir.join(codec::seed_file(&app.name, k)), seed)?;
            }
        }
        write_file(
            &dir.join("oracle.json"),
            codec::oracle_json(&id, &manifest.oracle)
                .to_string()
                .as_bytes(),
        )?;
        fs::create_dir_all(dir.join("witnesses")).map_err(|e| read_err(&dir, e))?;
        // Manifest last: its presence marks the suite complete.
        write_file(&manifest_path, encoded.as_bytes())?;
        Ok(id)
    }

    /// Loads a stored suite and reconstructs it: programs are re-parsed
    /// from source (and must be pretty-printer fixpoints), content hashes
    /// and the suite ID are re-verified, and the oracle is re-attached.
    ///
    /// # Errors
    ///
    /// Missing files, malformed documents, parse failures, and any hash
    /// mismatch.
    pub fn load(&self, id: &str) -> Result<ReplayableSuite, CorpusError> {
        let id = self.resolve(id)?;
        let dir = self.suite_dir(&id);
        let shell_doc = read_doc(&dir.join("manifest.json"))?;
        let shell = codec::manifest_from_json("manifest.json", &shell_doc)?;
        if shell.suite_id != id {
            return Err(CorpusError::Corrupt {
                doc: dir.join("manifest.json").display().to_string(),
                reason: format!("directory {id} holds manifest for {}", shell.suite_id),
            });
        }
        let oracle_doc = read_doc(&dir.join("oracle.json"))?;
        let oracle = codec::oracle_from_json("oracle.json", &oracle_doc)?;
        let mut programs = Vec::with_capacity(shell.apps.len());
        let mut seeds = Vec::with_capacity(shell.apps.len());
        for app in &shell.apps {
            let ppath = dir.join(&app.program);
            programs.push(fs::read_to_string(&ppath).map_err(|e| read_err(&ppath, e))?);
            let mut app_seeds = Vec::with_capacity(app.seeds.len());
            for rel in &app.seeds {
                let spath = dir.join(rel);
                app_seeds.push(fs::read(&spath).map_err(|e| read_err(&spath, e))?);
            }
            seeds.push(app_seeds);
        }
        let manifest = codec::manifest_from_parts(shell, programs, seeds, oracle);
        let suite = manifest.to_suite()?;
        Ok(ReplayableSuite { manifest, suite })
    }

    /// IDs of complete suites (directories holding a `manifest.json`),
    /// sorted — name-only, no document parsing.
    fn suite_ids(&self) -> Result<Vec<String>, CorpusError> {
        let mut ids = Vec::new();
        let entries = fs::read_dir(&self.root).map_err(|e| read_err(&self.root, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| read_err(&self.root, e))?;
            if entry.path().join("manifest.json").exists() {
                ids.push(entry.file_name().to_string_lossy().to_string());
            }
        }
        ids.sort();
        Ok(ids)
    }

    /// Resolves a suite ID or unique ID prefix (`latest` picks the most
    /// recently modified suite). Works from directory names alone, so
    /// resolution stays cheap (and robust) on large corpora.
    ///
    /// # Errors
    ///
    /// Unknown IDs and ambiguous prefixes.
    pub fn resolve(&self, id_or_prefix: &str) -> Result<String, CorpusError> {
        if self.suite_dir(id_or_prefix).join("manifest.json").exists() {
            return Ok(id_or_prefix.to_string());
        }
        let ids = self.suite_ids()?;
        if id_or_prefix == "latest" {
            let mut with_time: Vec<(std::time::SystemTime, String)> = ids
                .into_iter()
                .map(|id| {
                    let t = fs::metadata(self.suite_dir(&id).join("manifest.json"))
                        .and_then(|m| m.modified())
                        .unwrap_or(std::time::UNIX_EPOCH);
                    (t, id)
                })
                .collect();
            with_time.sort();
            return with_time
                .pop()
                .map(|(_, id)| id)
                .ok_or_else(|| CorpusError::UnknownSuite {
                    id: id_or_prefix.to_string(),
                });
        }
        let matches: Vec<String> = ids
            .into_iter()
            .filter(|id| id.starts_with(id_or_prefix))
            .collect();
        match matches.len() {
            0 => Err(CorpusError::UnknownSuite {
                id: id_or_prefix.to_string(),
            }),
            1 => Ok(matches.into_iter().next().expect("len checked")),
            _ => Err(CorpusError::AmbiguousSuite {
                prefix: id_or_prefix.to_string(),
                matches,
            }),
        }
    }

    /// Lists complete suites (those with a `manifest.json`), in ID order.
    ///
    /// # Errors
    ///
    /// I/O failures walking the root; malformed manifests are reported,
    /// not skipped.
    pub fn list(&self) -> Result<Vec<SuiteSummary>, CorpusError> {
        let mut out = Vec::new();
        for id in self.suite_ids()? {
            let path = self.suite_dir(&id);
            let doc = read_doc(&path.join("manifest.json"))?;
            let shell = codec::manifest_from_json("manifest.json", &doc)?;
            let oracle_doc = read_doc(&path.join("oracle.json"))?;
            let oracle = codec::oracle_from_json("oracle.json", &oracle_doc)?;
            let witnesses = self.witness_labels(&id)?;
            out.push(SuiteSummary {
                id,
                apps: shell.apps.len(),
                sites: oracle.total_sites(),
                seeds: shell.apps.iter().map(|a| a.seeds.len()).sum(),
                rng_seed: shell.config.rng_seed,
                witnesses,
            });
        }
        Ok(out)
    }

    /// Records a witness set under `witnesses/<label>.json` in its
    /// suite's directory. Overwrites an existing label (runs are
    /// re-recordable; the baseline label is the caller's policy).
    ///
    /// # Errors
    ///
    /// Unknown suite IDs, unsafe labels, and I/O failures.
    pub fn record_witnesses(&self, witnesses: &WitnessSet) -> Result<PathBuf, CorpusError> {
        check_label(&witnesses.label)?;
        let id = self.resolve(&witnesses.suite_id)?;
        let path = self
            .suite_dir(&id)
            .join("witnesses")
            .join(format!("{}.json", witnesses.label));
        write_file(&path, codec::witness_json(witnesses).to_string().as_bytes())?;
        Ok(path)
    }

    /// Records an audit set as one document per site under
    /// `audit/<label>/` in its suite's directory (next to `witnesses/`).
    /// Re-recording a label replaces the whole directory, so stale
    /// per-site files from a previous run can never survive.
    ///
    /// # Errors
    ///
    /// Unknown suite IDs, unsafe labels, and I/O failures.
    pub fn record_audit(&self, set: &AuditSet) -> Result<PathBuf, CorpusError> {
        check_label(&set.label)?;
        let id = self.resolve(&set.suite_id)?;
        let dir = self.suite_dir(&id).join("audit").join(&set.label);
        if dir.exists() {
            fs::remove_dir_all(&dir).map_err(|e| read_err(&dir, e))?;
        }
        fs::create_dir_all(&dir).map_err(|e| read_err(&dir, e))?;
        // Canonical form on disk: audit artifacts are byte-identical
        // across thread counts (cache annotations are in-memory only).
        for record in &set.records {
            write_file(
                &dir.join(audit::record_file(record)),
                record.canonical().to_string().as_bytes(),
            )?;
        }
        Ok(dir)
    }

    /// Loads a recorded audit set by suite and label, or `None` when the
    /// run was not audited (audit recording is opt-in, unlike witnesses).
    ///
    /// # Errors
    ///
    /// Unknown suite IDs, unsafe labels, corrupt records, and I/O
    /// failures.
    pub fn load_audit(&self, id: &str, label: &str) -> Result<Option<AuditSet>, CorpusError> {
        check_label(label)?;
        let id = self.resolve(id)?;
        let dir = self.suite_dir(&id).join("audit").join(label);
        if !dir.exists() {
            return Ok(None);
        }
        let mut records = Vec::new();
        for entry in fs::read_dir(&dir).map_err(|e| read_err(&dir, e))? {
            let entry = entry.map_err(|e| read_err(&dir, e))?;
            let name = entry.file_name().to_string_lossy().to_string();
            if !name.ends_with(".json") {
                continue;
            }
            let doc = read_doc(&entry.path())?;
            records.push(audit::read_record(&format!("audit/{label}/{name}"), &doc)?);
        }
        records.sort_by(|a, b| (&a.app, a.seed, &a.site).cmp(&(&b.app, b.seed, &b.site)));
        Ok(Some(AuditSet {
            suite_id: id,
            label: label.to_string(),
            records,
        }))
    }

    /// Recorded audit labels of a suite, sorted.
    ///
    /// # Errors
    ///
    /// Unknown suite IDs and I/O failures.
    pub fn audit_labels(&self, id: &str) -> Result<Vec<String>, CorpusError> {
        let id = self.resolve(id)?;
        let dir = self.suite_dir(&id).join("audit");
        let mut labels = Vec::new();
        if dir.exists() {
            for entry in fs::read_dir(&dir).map_err(|e| read_err(&dir, e))? {
                let entry = entry.map_err(|e| read_err(&dir, e))?;
                if entry.path().is_dir() {
                    labels.push(entry.file_name().to_string_lossy().to_string());
                }
            }
        }
        labels.sort();
        Ok(labels)
    }

    /// Loads a recorded witness set by suite and label, re-verifying its
    /// embedded fingerprint.
    ///
    /// # Errors
    ///
    /// Unknown suites/labels and document corruption.
    pub fn load_witnesses(&self, id: &str, label: &str) -> Result<WitnessSet, CorpusError> {
        check_label(label)?;
        let id = self.resolve(id)?;
        let path = self
            .suite_dir(&id)
            .join("witnesses")
            .join(format!("{label}.json"));
        if !path.exists() {
            return Err(CorpusError::UnknownWitnesses {
                id,
                label: label.to_string(),
            });
        }
        let doc = read_doc(&path)?;
        codec::witness_from_json(&format!("witnesses/{label}.json"), &doc)
    }

    /// Recorded witness labels of a suite, sorted.
    ///
    /// # Errors
    ///
    /// Unknown suite IDs and I/O failures.
    pub fn witness_labels(&self, id: &str) -> Result<Vec<String>, CorpusError> {
        let id = self.resolve(id)?;
        let dir = self.suite_dir(&id).join("witnesses");
        let mut labels = Vec::new();
        if dir.exists() {
            for entry in fs::read_dir(&dir).map_err(|e| read_err(&dir, e))? {
                let entry = entry.map_err(|e| read_err(&dir, e))?;
                let name = entry.file_name().to_string_lossy().to_string();
                if let Some(stem) = name.strip_suffix(".json") {
                    labels.push(stem.to_string());
                }
            }
        }
        labels.sort();
        Ok(labels)
    }

    /// Grows a stored suite by `n` freshly forged applications **without
    /// re-forging the existing ones**: stored app images are reused
    /// verbatim, and only indices `apps .. apps + n` are forged (each app
    /// draws from its own RNG stream, so the result is byte-identical to
    /// having forged the larger suite in one shot). The grown suite is
    /// saved under its own content-addressed ID; the original is left
    /// untouched.
    ///
    /// # Errors
    ///
    /// Load/save failures on either end.
    pub fn grow(&self, id: &str, n: usize) -> Result<ReplayableSuite, CorpusError> {
        let existing = self.load(id)?;
        let old_cfg = existing.manifest.config.clone();
        let grown_cfg = SynthConfig {
            apps: old_cfg.apps + n,
            ..old_cfg
        };
        let fresh = forge_range(&grown_cfg, existing.manifest.config.apps, n);
        let fresh_manifest = SuiteManifest::from_suite(&grown_cfg, &fresh);
        let mut apps = existing.manifest.apps.clone();
        apps.extend(fresh_manifest.apps);
        let mut oracle = existing.manifest.oracle.clone();
        oracle.apps.extend(fresh.oracle.apps);
        let grown = SuiteManifest::assemble(grown_cfg, apps, oracle);
        let new_id = self.save(&grown)?;
        self.load(&new_id)
    }
}
