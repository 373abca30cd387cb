//! JSON codecs for the three corpus document kinds: `manifest.json`,
//! `oracle.json`, and `witnesses/<label>.json`.
//!
//! Encoding is canonical (field order fixed, `u64`s exact), so document
//! equality is byte equality; decoding validates shape and reports the
//! first problem with enough context to locate it.

use diode_format::FormatDesc;
use diode_obs::Json;
use diode_synth::{
    AppManifest, AppOracle, ClassMix, GroundTruth, PlantedSite, ShapeClass, SuiteManifest,
    SynthConfig, SynthOracle, WidthClass,
};

use crate::witness::{ScoreSummary, SiteWitness, WitnessSet};
use crate::CorpusError;

/// On-disk layout version; bumped when documents change incompatibly.
pub const LAYOUT_VERSION: u64 = 1;

fn bad(doc: &str, what: impl Into<String>) -> CorpusError {
    CorpusError::Corrupt {
        doc: doc.to_string(),
        reason: what.into(),
    }
}

fn need<'a>(doc: &str, v: &'a Json, key: &str) -> Result<&'a Json, CorpusError> {
    v.get(key)
        .ok_or_else(|| bad(doc, format!("missing {key:?}")))
}

fn need_str(doc: &str, v: &Json, key: &str) -> Result<String, CorpusError> {
    Ok(need(doc, v, key)?
        .as_str()
        .ok_or_else(|| bad(doc, format!("{key:?} is not a string")))?
        .to_string())
}

fn need_u64(doc: &str, v: &Json, key: &str) -> Result<u64, CorpusError> {
    need(doc, v, key)?
        .as_u64()
        .ok_or_else(|| bad(doc, format!("{key:?} is not an unsigned integer")))
}

fn need_usize(doc: &str, v: &Json, key: &str) -> Result<usize, CorpusError> {
    usize::try_from(need_u64(doc, v, key)?)
        .map_err(|_| bad(doc, format!("{key:?} does not fit usize")))
}

fn need_bool(doc: &str, v: &Json, key: &str) -> Result<bool, CorpusError> {
    need(doc, v, key)?
        .as_bool()
        .ok_or_else(|| bad(doc, format!("{key:?} is not a bool")))
}

fn need_arr<'a>(doc: &str, v: &'a Json, key: &str) -> Result<&'a [Json], CorpusError> {
    need(doc, v, key)?
        .as_arr()
        .ok_or_else(|| bad(doc, format!("{key:?} is not an array")))
}

fn check_version(doc: &str, v: &Json) -> Result<(), CorpusError> {
    let found = need_u64(doc, v, "version")?;
    if found != LAYOUT_VERSION {
        return Err(CorpusError::UnsupportedVersion {
            doc: doc.to_string(),
            found,
            supported: LAYOUT_VERSION,
        });
    }
    Ok(())
}

// --------------------------------------------------------------------------
// SynthConfig

fn config_json(cfg: &SynthConfig) -> Json {
    Json::obj()
        .field("apps", cfg.apps)
        .field("min_sites", cfg.min_sites)
        .field("max_sites", cfg.max_sites)
        .field("branch_depth", cfg.branch_depth)
        .field(
            "widths",
            cfg.widths.iter().map(|w| w.token()).collect::<Vec<_>>(),
        )
        .field(
            "shapes",
            cfg.shapes.iter().map(|s| s.token()).collect::<Vec<_>>(),
        )
        .field(
            "mix",
            Json::obj()
                .field("exposable", cfg.mix.exposable)
                .field("guard_prevented", cfg.mix.guard_prevented)
                .field("target_unsat", cfg.mix.target_unsat),
        )
        .field("checksum", cfg.checksum)
        .field("blocking_loops", cfg.blocking_loops)
        .field("site_work", cfg.site_work)
        .field("seeds_per_app", cfg.seeds_per_app)
        .field("rng_seed", cfg.rng_seed)
}

fn config_from_json(doc: &str, v: &Json) -> Result<SynthConfig, CorpusError> {
    let widths = need_arr(doc, v, "widths")?
        .iter()
        .map(|w| {
            w.as_str()
                .and_then(WidthClass::from_token)
                .ok_or_else(|| bad(doc, format!("unknown width token {w}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let shapes = need_arr(doc, v, "shapes")?
        .iter()
        .map(|s| {
            s.as_str()
                .and_then(ShapeClass::from_token)
                .ok_or_else(|| bad(doc, format!("unknown shape token {s}")))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let mix = need(doc, v, "mix")?;
    let as_u32 = |key: &str| -> Result<u32, CorpusError> {
        u32::try_from(need_u64(doc, mix, key)?)
            .map_err(|_| bad(doc, format!("mix.{key} does not fit u32")))
    };
    Ok(SynthConfig {
        apps: need_usize(doc, v, "apps")?,
        min_sites: need_usize(doc, v, "min_sites")?,
        max_sites: need_usize(doc, v, "max_sites")?,
        branch_depth: need_usize(doc, v, "branch_depth")?,
        widths,
        shapes,
        mix: ClassMix {
            exposable: as_u32("exposable")?,
            guard_prevented: as_u32("guard_prevented")?,
            target_unsat: as_u32("target_unsat")?,
        },
        checksum: need_bool(doc, v, "checksum")?,
        blocking_loops: need_bool(doc, v, "blocking_loops")?,
        // Absent in corpora stored before the knob existed: default 0
        // (which forges byte-identical suites to the old code).
        site_work: match v.get("site_work") {
            Some(w) => u32::try_from(
                w.as_u64()
                    .ok_or_else(|| bad(doc, "site_work is not an integer"))?,
            )
            .map_err(|_| bad(doc, "site_work does not fit u32"))?,
            None => 0,
        },
        seeds_per_app: need_usize(doc, v, "seeds_per_app")?,
        rng_seed: need_u64(doc, v, "rng_seed")?,
    })
}

// --------------------------------------------------------------------------
// manifest.json

/// File name of one app's program within the suite directory.
#[must_use]
pub fn program_file(app: &str) -> String {
    format!("programs/{app}.dl")
}

/// File name of one app's `k`-th seed within the suite directory.
#[must_use]
pub fn seed_file(app: &str, k: usize) -> String {
    format!("seeds/{app}.s{k}.bin")
}

/// Encodes the manifest document. Program text and seed bytes live in
/// their own files; the manifest records their relative paths so the
/// directory is self-describing.
#[must_use]
pub fn manifest_json(m: &SuiteManifest) -> Json {
    let apps: Vec<Json> = m
        .apps
        .iter()
        .map(|a| {
            Json::obj()
                .field("name", a.name.clone())
                .field("program", program_file(&a.name))
                .field(
                    "seeds",
                    (0..a.seeds.len())
                        .map(|k| seed_file(&a.name, k))
                        .collect::<Vec<_>>(),
                )
                .field("format_spec", a.format.to_spec())
                .field("content_hash", a.content_hash.clone())
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", m.suite_id.clone())
        .field("config", config_json(&m.config))
        .field("apps", Json::Arr(apps))
}

/// Decoded manifest shell: everything in `manifest.json` itself, with
/// programs and seeds still to be read from their referenced files.
#[derive(Debug)]
pub struct ManifestShell {
    /// Recorded suite ID.
    pub suite_id: String,
    /// The forging configuration.
    pub config: SynthConfig,
    /// Per-app entries.
    pub apps: Vec<AppShell>,
}

/// One app entry of a decoded manifest shell.
#[derive(Debug)]
pub struct AppShell {
    /// App name.
    pub name: String,
    /// Relative path of the program file.
    pub program: String,
    /// Relative paths of the seed files.
    pub seeds: Vec<String>,
    /// The parsed format description.
    pub format: FormatDesc,
    /// Recorded content hash.
    pub content_hash: String,
}

/// Decodes `manifest.json`.
///
/// # Errors
///
/// Any missing field, wrong type, unknown token, bad format spec, or
/// unsupported version is a [`CorpusError`].
pub fn manifest_from_json(doc: &str, v: &Json) -> Result<ManifestShell, CorpusError> {
    check_version(doc, v)?;
    let mut apps = Vec::new();
    for entry in need_arr(doc, v, "apps")? {
        let spec = need_str(doc, entry, "format_spec")?;
        let format = FormatDesc::from_spec(&spec).map_err(|e| bad(doc, e.to_string()))?;
        let seeds = need_arr(doc, entry, "seeds")?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| bad(doc, "seed path is not a string"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        apps.push(AppShell {
            name: need_str(doc, entry, "name")?,
            program: need_str(doc, entry, "program")?,
            seeds,
            format,
            content_hash: need_str(doc, entry, "content_hash")?,
        });
    }
    Ok(ManifestShell {
        suite_id: need_str(doc, v, "suite_id")?,
        config: config_from_json(doc, need(doc, v, "config")?)?,
        apps,
    })
}

/// Rebuilds the full [`SuiteManifest`] from a shell plus the file
/// contents the shell references.
#[must_use]
pub fn manifest_from_parts(
    shell: ManifestShell,
    programs: Vec<String>,
    seeds: Vec<Vec<Vec<u8>>>,
    oracle: SynthOracle,
) -> SuiteManifest {
    let apps = shell
        .apps
        .into_iter()
        .zip(programs)
        .zip(seeds)
        .map(|((a, program), seeds)| AppManifest {
            name: a.name,
            program,
            format: a.format,
            seeds,
            content_hash: a.content_hash,
        })
        .collect();
    SuiteManifest {
        suite_id: shell.suite_id,
        config: shell.config,
        apps,
        oracle,
    }
}

// --------------------------------------------------------------------------
// oracle.json

/// Encodes the oracle document.
#[must_use]
pub fn oracle_json(suite_id: &str, oracle: &SynthOracle) -> Json {
    let apps: Vec<Json> = oracle
        .apps
        .iter()
        .map(|a| {
            let sites: Vec<Json> = a
                .sites
                .iter()
                .map(|s| {
                    Json::obj()
                        .field("site", s.site.clone())
                        .field("truth", s.truth.token())
                        .field("fields", s.fields.clone())
                        .field("shape", s.shape.clone())
                        .field("guards", s.guards.clone())
                        .field("overflow_threshold", s.overflow_threshold)
                })
                .collect();
            Json::obj()
                .field("app", a.app.clone())
                .field("sites", Json::Arr(sites))
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", suite_id)
        .field("apps", Json::Arr(apps))
}

/// Decodes `oracle.json`.
///
/// # Errors
///
/// Any shape problem is a [`CorpusError`].
pub fn oracle_from_json(doc: &str, v: &Json) -> Result<SynthOracle, CorpusError> {
    check_version(doc, v)?;
    let mut apps = Vec::new();
    for entry in need_arr(doc, v, "apps")? {
        let mut sites = Vec::new();
        for s in need_arr(doc, entry, "sites")? {
            let truth = need_str(doc, s, "truth")?;
            let truth = GroundTruth::from_token(&truth)
                .ok_or_else(|| bad(doc, format!("unknown truth token {truth:?}")))?;
            let fields = need_arr(doc, s, "fields")?
                .iter()
                .map(|f| {
                    f.as_str()
                        .map(str::to_string)
                        .ok_or_else(|| bad(doc, "field path is not a string"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let guards = need_arr(doc, s, "guards")?
                .iter()
                .map(|g| {
                    g.as_u64()
                        .ok_or_else(|| bad(doc, "guard limit is not a u64"))
                })
                .collect::<Result<Vec<_>, _>>()?;
            let threshold = need(doc, s, "overflow_threshold")?;
            let overflow_threshold = if threshold.is_null() {
                None
            } else {
                Some(
                    threshold
                        .as_u64()
                        .ok_or_else(|| bad(doc, "overflow_threshold is not a u64"))?,
                )
            };
            sites.push(PlantedSite {
                site: need_str(doc, s, "site")?,
                truth,
                fields,
                shape: need_str(doc, s, "shape")?,
                guards,
                overflow_threshold,
            });
        }
        apps.push(AppOracle {
            app: need_str(doc, entry, "app")?,
            sites,
        });
    }
    Ok(SynthOracle { apps })
}

// --------------------------------------------------------------------------
// witnesses/<label>.json

fn score_json(s: &ScoreSummary) -> Json {
    Json::obj()
        .field("graded", s.graded)
        .field("true_pos", s.true_pos)
        .field("false_pos", s.false_pos)
        .field("false_neg", s.false_neg)
        .field("true_neg", s.true_neg)
        .field("exact", s.exact)
        .field("mismatches", s.mismatches.clone())
}

fn score_from_json(doc: &str, v: &Json) -> Result<ScoreSummary, CorpusError> {
    let mismatches = need_arr(doc, v, "mismatches")?
        .iter()
        .map(|m| {
            m.as_str()
                .map(str::to_string)
                .ok_or_else(|| bad(doc, "mismatch is not a string"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(ScoreSummary {
        graded: need_usize(doc, v, "graded")?,
        true_pos: need_usize(doc, v, "true_pos")?,
        false_pos: need_usize(doc, v, "false_pos")?,
        false_neg: need_usize(doc, v, "false_neg")?,
        true_neg: need_usize(doc, v, "true_neg")?,
        exact: need_usize(doc, v, "exact")?,
        mismatches,
    })
}

/// Encodes a witness set, embedding its [fingerprint](WitnessSet::fingerprint).
#[must_use]
pub fn witness_json(w: &WitnessSet) -> Json {
    let sites: Vec<Json> = w
        .sites
        .iter()
        .map(|s| {
            Json::obj()
                .field("app", s.app.clone())
                .field("seed_index", s.seed_index)
                .field("site", s.site.clone())
                .field("outcome", s.outcome.clone())
                .field("enforced", s.enforced)
                .field("input", s.input_hex.clone())
                .field("error_type", s.error_type.clone())
                .field("verified", s.verified)
        })
        .collect();
    Json::obj()
        .field("version", LAYOUT_VERSION)
        .field("suite_id", w.suite_id.clone())
        .field("label", w.label.clone())
        .field("threads", w.threads)
        .field("fingerprint", w.fingerprint())
        .field(
            "scorecard",
            w.scorecard.as_ref().map(score_json).unwrap_or(Json::Null),
        )
        .field("sites", Json::Arr(sites))
}

/// Decodes a witness document, re-verifying the embedded fingerprint
/// against the site records actually present.
///
/// # Errors
///
/// Shape problems and fingerprint drift are [`CorpusError`]s.
pub fn witness_from_json(doc: &str, v: &Json) -> Result<WitnessSet, CorpusError> {
    check_version(doc, v)?;
    let opt_str = |s: &Json, key: &str| -> Result<Option<String>, CorpusError> {
        match need(doc, s, key)? {
            Json::Null => Ok(None),
            other => Ok(Some(
                other
                    .as_str()
                    .ok_or_else(|| bad(doc, format!("{key:?} is not a string")))?
                    .to_string(),
            )),
        }
    };
    let mut sites = Vec::new();
    for s in need_arr(doc, v, "sites")? {
        let enforced = match need(doc, s, "enforced")? {
            Json::Null => None,
            other => Some(
                other
                    .as_u64()
                    .and_then(|n| usize::try_from(n).ok())
                    .ok_or_else(|| bad(doc, "enforced is not a usize"))?,
            ),
        };
        let verified = match need(doc, s, "verified")? {
            Json::Null => None,
            other => Some(
                other
                    .as_bool()
                    .ok_or_else(|| bad(doc, "verified is not a bool"))?,
            ),
        };
        sites.push(SiteWitness {
            app: need_str(doc, s, "app")?,
            seed_index: need_usize(doc, s, "seed_index")?,
            site: need_str(doc, s, "site")?,
            outcome: need_str(doc, s, "outcome")?,
            enforced,
            input_hex: opt_str(s, "input")?,
            error_type: opt_str(s, "error_type")?,
            verified,
        });
    }
    let scorecard = match need(doc, v, "scorecard")? {
        Json::Null => None,
        other => Some(score_from_json(doc, other)?),
    };
    let set = WitnessSet {
        suite_id: need_str(doc, v, "suite_id")?,
        label: need_str(doc, v, "label")?,
        threads: need_usize(doc, v, "threads")?,
        scorecard,
        sites,
    };
    let stored = need_str(doc, v, "fingerprint")?;
    let computed = set.fingerprint();
    if stored != computed {
        return Err(bad(
            doc,
            format!("fingerprint mismatch (stored {stored}, computed {computed})"),
        ));
    }
    Ok(set)
}
