//! Persisted decision provenance: `audit/<label>/` next to `witnesses/`.
//!
//! An [`AuditSet`] freezes one audited campaign run's per-site
//! [`ProvenanceRecord`]s — the full derivation of every verdict — so a
//! later `corpus diff` can flag a site whose verdict is *unchanged* but
//! whose derivation drifted (different enforcement path, different
//! solver answers along the way). That distinction is invisible to the
//! witness diff, which only compares what was found, never how.
//!
//! On disk each record is its own document, `audit/<label>/<site>.json`
//! (site keys are sanitised into file stems), carrying the full event
//! list including advisory cache-hit annotations. Drift comparison uses
//! [`ProvenanceRecord::canonical`], which strips exactly those advisory
//! fields, so two runs of the same spec compare byte-identical
//! regardless of thread count or cache warmth.

use std::collections::BTreeMap;
use std::fmt;

use diode_engine::CampaignReport;
use diode_obs::{canonical_record_set, Json, ProvenanceRecord};

use crate::witness::SiteKey;
use crate::CorpusError;

/// The decision-provenance records of one audited campaign run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AuditSet {
    /// The suite the audited run replayed.
    pub suite_id: String,
    /// The run's label (shared with its witness set).
    pub label: String,
    /// Per-site derivations, sorted by `(app, seed, site)`.
    pub records: Vec<ProvenanceRecord>,
}

impl AuditSet {
    /// Freezes a report's provenance, if the campaign recorded any
    /// (`None` when the run was not audited).
    #[must_use]
    pub fn from_report(
        suite_id: impl Into<String>,
        label: impl Into<String>,
        report: &CampaignReport,
    ) -> Option<AuditSet> {
        report.provenance.as_ref().map(|records| {
            let mut records = records.clone();
            sort_records(&mut records);
            AuditSet {
                suite_id: suite_id.into(),
                label: label.into(),
                records,
            }
        })
    }

    /// Canonical serialisation of the whole set (one canonical JSON
    /// document per line, sorted) — the byte-identity form.
    #[must_use]
    pub fn canonical(&self) -> String {
        canonical_record_set(&self.records)
    }

    /// Records keyed by site identity.
    #[must_use]
    pub fn by_key(&self) -> BTreeMap<SiteKey, &ProvenanceRecord> {
        self.records.iter().map(|r| (record_key(r), r)).collect()
    }

    /// The record for one site, if present.
    #[must_use]
    pub fn record_for(&self, key: &SiteKey) -> Option<&ProvenanceRecord> {
        self.records.iter().find(|r| &record_key(r) == key)
    }
}

/// Site identity of a provenance record, in witness-diff key space.
#[must_use]
pub fn record_key(r: &ProvenanceRecord) -> SiteKey {
    SiteKey {
        app: r.app.clone(),
        seed_index: r.seed as usize,
        site: r.site.clone(),
    }
}

fn sort_records(records: &mut [ProvenanceRecord]) {
    records.sort_by(|a, b| (&a.app, a.seed, &a.site).cmp(&(&b.app, b.seed, &b.site)));
}

/// File stem for one record inside `audit/<label>/`: the site key with
/// every non-`[A-Za-z0-9._-]` character mapped to `_` (site names carry
/// `@`, which is not a safe file stem everywhere).
#[must_use]
pub fn record_file(r: &ProvenanceRecord) -> String {
    let raw = format!("{}.s{}.{}", r.app, r.seed, r.site);
    let mut stem = String::with_capacity(raw.len());
    for c in raw.chars() {
        if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
            stem.push(c);
        } else {
            stem.push('_');
        }
    }
    format!("{stem}.json")
}

/// Derivation drift between two audited runs of the same suite: sites
/// whose *verdict token is unchanged* but whose canonical derivation
/// differs — the regression class the witness diff cannot see.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DerivationDrift {
    /// Same verdict, different derivation.
    pub drifted: Vec<SiteKey>,
    /// Different verdict (already visible to the witness diff; counted,
    /// not re-reported).
    pub verdict_changed: usize,
    /// Sites with a record in both runs.
    pub compared: usize,
}

impl DerivationDrift {
    /// Compares two audit sets by site key.
    #[must_use]
    pub fn between(old: &AuditSet, new: &AuditSet) -> DerivationDrift {
        let old_map = old.by_key();
        let new_map = new.by_key();
        let mut drift = DerivationDrift::default();
        for (key, o) in &old_map {
            let Some(n) = new_map.get(key) else { continue };
            drift.compared += 1;
            if o.canonical() == n.canonical() {
                continue;
            }
            let same_verdict = match (o.verdict(), n.verdict()) {
                (Some((ot, _, _)), Some((nt, _, _))) => ot == nt,
                (None, None) => true,
                _ => false,
            };
            if same_verdict {
                drift.drifted.push(key.clone());
            } else {
                drift.verdict_changed += 1;
            }
        }
        drift
    }

    /// True when no unchanged-verdict site changed its derivation.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.drifted.is_empty()
    }
}

impl fmt::Display for DerivationDrift {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{} derivation(s) compared, {} drifted, {} with changed verdicts",
            self.compared,
            self.drifted.len(),
            self.verdict_changed
        )?;
        for k in &self.drifted {
            writeln!(f, "  DERIV   {k}: verdict unchanged, derivation changed")?;
        }
        Ok(())
    }
}

/// Reads one persisted provenance record, naming `doc` in the error.
pub(crate) fn read_record(doc: &str, json: &Json) -> Result<ProvenanceRecord, CorpusError> {
    ProvenanceRecord::from_json(json).map_err(|reason| CorpusError::Corrupt {
        doc: doc.to_string(),
        reason,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use diode_obs::{fnv64_hex, EnforceAction, ProvenanceEvent, QueryOrigin, QueryVerdict};

    fn record(site: &str, outcome: &str) -> ProvenanceRecord {
        ProvenanceRecord {
            app: "app-0".to_string(),
            seed: 1,
            site: site.to_string(),
            events: vec![
                ProvenanceEvent::Extraction {
                    relevant_bytes: vec![0, 3],
                    total_relevant: 2,
                    phi_len: 1,
                    boundary: 4,
                    resumed: true,
                },
                ProvenanceEvent::Query {
                    origin: QueryOrigin::Beta,
                    fingerprint: "ff00".to_string(),
                    verdict: QueryVerdict::Sat,
                    cache_hit: Some(true),
                },
                ProvenanceEvent::Verdict {
                    outcome: outcome.to_string(),
                    enforced: 0,
                    witness: Some(fnv64_hex(b"xy")),
                },
            ],
        }
    }

    #[test]
    fn records_roundtrip_through_corpus_json() {
        let r = record("b0@7", "exposed");
        let back = read_record("t", &r.to_json()).unwrap();
        assert_eq!(back, r, "cache_hit and all payloads survive");
    }

    #[test]
    fn parse_rejects_future_schema_and_garbage_events() {
        let mut doc = record("s", "exposed").to_json();
        if let Json::Obj(fields) = &mut doc {
            fields[0].1 = Json::UInt(99);
        }
        assert!(matches!(
            read_record("t", &doc),
            Err(CorpusError::Corrupt { .. })
        ));
        let bad = Json::parse(
            "{\"v\":1,\"app\":\"a\",\"seed\":0,\"site\":\"s\",\
             \"events\":[{\"type\":\"warp\"}]}",
        )
        .unwrap();
        let err = read_record("t", &bad).unwrap_err();
        assert!(err.to_string().contains("warp"));
    }

    #[test]
    fn record_file_sanitises_site_names() {
        let name = record_file(&record("b0@7", "exposed"));
        assert_eq!(name, "app-0.s1.b0_7.json");
    }

    #[test]
    fn drift_flags_same_verdict_different_chain() {
        let old = AuditSet {
            suite_id: "s".into(),
            label: "a".into(),
            records: vec![record("x", "exposed"), record("y", "exposed")],
        };
        let mut changed = record("x", "exposed");
        changed.events.insert(
            2,
            ProvenanceEvent::Enforce {
                iteration: 1,
                condition: 0,
                label: 7,
                action: EnforceAction::SkippedUnsat,
            },
        );
        let new = AuditSet {
            suite_id: "s".into(),
            label: "b".into(),
            records: vec![changed, record("y", "target-unsat")],
        };
        let drift = DerivationDrift::between(&old, &new);
        assert_eq!(drift.compared, 2);
        assert_eq!(drift.drifted.len(), 1, "x drifted with verdict intact");
        assert_eq!(drift.drifted[0].site, "x");
        assert_eq!(drift.verdict_changed, 1, "y is the witness diff's job");
        assert!(!drift.is_clean());
        assert!(DerivationDrift::between(&old, &old).is_clean());
    }

    #[test]
    fn canonical_set_is_thread_order_independent() {
        let a = AuditSet {
            suite_id: "s".into(),
            label: "l".into(),
            records: vec![record("b", "exposed"), record("a", "exposed")],
        };
        let b = AuditSet {
            suite_id: "s".into(),
            label: "l".into(),
            records: vec![record("a", "exposed"), record("b", "exposed")],
        };
        assert_eq!(a.canonical(), b.canonical());
        assert!(!a.canonical().contains("cache_hit"));
    }
}
