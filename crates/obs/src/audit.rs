//! Decision provenance: schema-versioned event records explaining *why*
//! each site got its verdict, not just how long it took.
//!
//! A [`ProvenanceEvent`] is one decision on a site's path through the
//! pipeline: the symbolic extraction (which input bytes turned out
//! relevant, where the φ boundary sat), every solver query (structural
//! fingerprint, origin, sat/unsat/unknown, advisory cache attribution),
//! every Figure-7 enforcement step (condition considered / enforced /
//! permanently skipped as unsat-when-enforced / budget exhausted, with
//! the branch label and iteration index), and the final verdict with the
//! witness input hash. Events are appended in program order inside the
//! site's job scope, so a site's event list *is* its derivation.
//!
//! A [`ProvenanceRecord`] bundles one site's events and renders them as
//! an explanation tree ([`ProvenanceRecord::explain`]), checks the
//! events→witness chain for completeness ([`ProvenanceRecord::chain_error`]),
//! and serialises to a canonical form ([`ProvenanceRecord::canonical`])
//! that drops the one racy field (cache-hit attribution under a shared
//! cache) so record sets compare byte-identical across thread counts —
//! the same discipline span identity follows. [`ProvenanceRecord::from_json`]
//! reads either form back.

use std::fmt::Write as _;

use crate::json::Json;

/// Version stamp for the provenance wire format (`audit/*.json`).
pub const AUDIT_SCHEMA_VERSION: u32 = 1;

/// Which pipeline decision issued a solver query.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryOrigin {
    /// The initial `β` (target overflow condition) satisfiability check.
    Beta,
    /// A `φ' ∧ c ∧ β` query inside the enforcement loop.
    Enforce,
    /// Re-validation of an exposed bug's recorded constraint.
    Validate,
    /// A query outside the audited pipeline stages.
    Other,
}

impl QueryOrigin {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryOrigin::Beta => "beta",
            QueryOrigin::Enforce => "enforce",
            QueryOrigin::Validate => "validate",
            QueryOrigin::Other => "other",
        }
    }

    /// Inverse of [`QueryOrigin::as_str`].
    pub fn parse(name: &str) -> Option<QueryOrigin> {
        [
            QueryOrigin::Beta,
            QueryOrigin::Enforce,
            QueryOrigin::Validate,
            QueryOrigin::Other,
        ]
        .into_iter()
        .find(|o| o.as_str() == name)
    }
}

/// Solver answer recorded in a query event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryVerdict {
    /// Satisfiable; a model was produced.
    Sat,
    /// Proven unsatisfiable.
    Unsat,
    /// Solver gave up (budget / unsupported construct).
    Unknown,
}

impl QueryVerdict {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            QueryVerdict::Sat => "sat",
            QueryVerdict::Unsat => "unsat",
            QueryVerdict::Unknown => "unknown",
        }
    }

    /// Inverse of [`QueryVerdict::as_str`].
    pub fn parse(name: &str) -> Option<QueryVerdict> {
        [
            QueryVerdict::Sat,
            QueryVerdict::Unsat,
            QueryVerdict::Unknown,
        ]
        .into_iter()
        .find(|v| v.as_str() == name)
    }
}

/// What the enforcement loop decided about one condition.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum EnforceAction {
    /// The condition was violated by the candidate input and picked for
    /// an enforcement attempt this iteration.
    Considered,
    /// `φ' ∧ c ∧ β` was satisfiable: the condition joined the enforced
    /// set and a new candidate input was generated.
    Enforced,
    /// `φ' ∧ c ∧ β` was unsatisfiable: the condition is permanently
    /// skipped (enforcing it can never reach the target).
    SkippedUnsat,
}

impl EnforceAction {
    /// Stable wire name.
    pub fn as_str(self) -> &'static str {
        match self {
            EnforceAction::Considered => "considered",
            EnforceAction::Enforced => "enforced",
            EnforceAction::SkippedUnsat => "skipped_unsat",
        }
    }

    /// Inverse of [`EnforceAction::as_str`].
    pub fn parse(name: &str) -> Option<EnforceAction> {
        [
            EnforceAction::Considered,
            EnforceAction::Enforced,
            EnforceAction::SkippedUnsat,
        ]
        .into_iter()
        .find(|a| a.as_str() == name)
    }
}

/// One decision on a site's path from seed input to verdict.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProvenanceEvent {
    /// Stage-2 symbolic extraction summary for the site.
    Extraction {
        /// Input byte offsets the target expression depends on.
        relevant_bytes: Vec<u32>,
        /// Total relevant bytes across target expression and φ.
        total_relevant: u32,
        /// Number of compressed flippable conditions in φ.
        phi_len: u32,
        /// Branch observations before the site (the φ boundary).
        boundary: u32,
        /// Whether extraction resumed from a prefix snapshot.
        resumed: bool,
    },
    /// One solver query issued on the site's behalf.
    Query {
        /// Pipeline decision that issued the query.
        origin: QueryOrigin,
        /// Structural constraint fingerprint (32 hex digits), the same
        /// key the shared solver cache uses.
        fingerprint: String,
        /// Solver answer.
        verdict: QueryVerdict,
        /// Advisory cache attribution: racy under a shared cache across
        /// worker threads, therefore excluded from the canonical form.
        cache_hit: Option<bool>,
    },
    /// One enforcement-loop decision about one φ condition.
    Enforce {
        /// 1-based enforcement iteration (candidate-input generation).
        iteration: u32,
        /// Index of the condition within φ.
        condition: u32,
        /// Branch label of the condition.
        label: u32,
        /// What the loop decided.
        action: EnforceAction,
    },
    /// The per-site solver budget ran out mid-loop.
    Budget {
        /// Iteration at which the budget was exhausted.
        iteration: u32,
    },
    /// Final classification of the site.
    Verdict {
        /// Outcome token (`exposed`, `target-unsat`,
        /// `prevented:constraint-unsat:N`, `prevented:satisfies-phi:N`,
        /// `prevented:budget`, `unknown`).
        outcome: String,
        /// Number of conditions in the enforced set at termination.
        enforced: u32,
        /// FNV-1a hash of the witness input bytes, for exposed sites.
        witness: Option<String>,
    },
}

impl ProvenanceEvent {
    /// Serialise one event as a JSON object. When `canonical` is set the
    /// advisory `cache_hit` field is omitted, making the output identical
    /// across thread counts.
    #[must_use]
    pub fn to_json(&self, canonical: bool) -> Json {
        match self {
            ProvenanceEvent::Extraction {
                relevant_bytes,
                total_relevant,
                phi_len,
                boundary,
                resumed,
            } => Json::obj()
                .field("type", "extraction")
                .field("relevant_bytes", relevant_bytes.clone())
                .field("total_relevant", *total_relevant)
                .field("phi", *phi_len)
                .field("boundary", *boundary)
                .field("resumed", *resumed),
            ProvenanceEvent::Query {
                origin,
                fingerprint,
                verdict,
                cache_hit,
            } => Json::obj()
                .field("type", "query")
                .field("origin", origin.as_str())
                .field("fingerprint", fingerprint.as_str())
                .field("verdict", verdict.as_str())
                .field_opt("cache_hit", cache_hit.filter(|_| !canonical)),
            ProvenanceEvent::Enforce {
                iteration,
                condition,
                label,
                action,
            } => Json::obj()
                .field("type", "enforce")
                .field("iteration", *iteration)
                .field("condition", *condition)
                .field("label", *label)
                .field("action", action.as_str()),
            ProvenanceEvent::Budget { iteration } => Json::obj()
                .field("type", "budget")
                .field("iteration", *iteration),
            ProvenanceEvent::Verdict {
                outcome,
                enforced,
                witness,
            } => Json::obj()
                .field("type", "verdict")
                .field("outcome", outcome.as_str())
                .field("enforced", *enforced)
                .field_opt("witness", witness.as_deref()),
        }
    }

    /// Reads an event back from [`to_json`](Self::to_json)'s object
    /// (either form).
    pub fn from_json(doc: &Json) -> Result<ProvenanceEvent, String> {
        match doc.str_field("type")? {
            "extraction" => {
                let items = doc
                    .get("relevant_bytes")
                    .and_then(Json::as_arr)
                    .ok_or("extraction event missing relevant_bytes array")?;
                let relevant_bytes = items
                    .iter()
                    .map(|item| item.as_u64().and_then(|v| u32::try_from(v).ok()))
                    .collect::<Option<Vec<u32>>>()
                    .ok_or("non-u32 entry in relevant_bytes")?;
                Ok(ProvenanceEvent::Extraction {
                    relevant_bytes,
                    total_relevant: doc.u32_field("total_relevant")?,
                    phi_len: doc.u32_field("phi")?,
                    boundary: doc.u32_field("boundary")?,
                    resumed: doc
                        .get("resumed")
                        .and_then(Json::as_bool)
                        .ok_or("missing bool field \"resumed\"")?,
                })
            }
            "query" => Ok(ProvenanceEvent::Query {
                origin: QueryOrigin::parse(doc.str_field("origin")?)
                    .ok_or("unknown query origin")?,
                fingerprint: doc.str_field("fingerprint")?.to_string(),
                verdict: QueryVerdict::parse(doc.str_field("verdict")?)
                    .ok_or("unknown query verdict")?,
                cache_hit: doc.get("cache_hit").and_then(Json::as_bool),
            }),
            "enforce" => Ok(ProvenanceEvent::Enforce {
                iteration: doc.u32_field("iteration")?,
                condition: doc.u32_field("condition")?,
                label: doc.u32_field("label")?,
                action: EnforceAction::parse(doc.str_field("action")?)
                    .ok_or("unknown enforce action")?,
            }),
            "budget" => Ok(ProvenanceEvent::Budget {
                iteration: doc.u32_field("iteration")?,
            }),
            "verdict" => Ok(ProvenanceEvent::Verdict {
                outcome: doc.str_field("outcome")?.to_string(),
                enforced: doc.u32_field("enforced")?,
                witness: doc
                    .get("witness")
                    .and_then(Json::as_str)
                    .map(str::to_string),
            }),
            other => Err(format!("unknown event type {other:?}")),
        }
    }
}

/// The assembled derivation of one site's verdict: every decision event
/// in program order, keyed by `(app, seed, site)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProvenanceRecord {
    /// Application name.
    pub app: String,
    /// Seed index of the unit within its app.
    pub seed: u32,
    /// Target site label.
    pub site: String,
    /// Decision events in the order the pipeline took them.
    pub events: Vec<ProvenanceEvent>,
}

impl ProvenanceRecord {
    /// Full schema-versioned JSON document, including the advisory
    /// cache annotations.
    #[must_use]
    pub fn to_json(&self) -> Json {
        self.render_json(false)
    }

    /// Deterministic identity form: same as [`ProvenanceRecord::to_json`]
    /// minus advisory cache-hit attribution. Byte-identical across
    /// thread counts for the same campaign spec; every persisted audit
    /// artifact (`audit/<site>.json`, `diode_audit` documents) uses it.
    #[must_use]
    pub fn canonical(&self) -> Json {
        self.render_json(true)
    }

    fn render_json(&self, canonical: bool) -> Json {
        let events: Vec<Json> = self.events.iter().map(|e| e.to_json(canonical)).collect();
        Json::obj()
            .field("v", AUDIT_SCHEMA_VERSION)
            .field("app", self.app.as_str())
            .field("seed", self.seed)
            .field("site", self.site.as_str())
            .field("events", events)
    }

    /// Reads a record back from either JSON form, rejecting unknown
    /// schema versions.
    pub fn from_json(doc: &Json) -> Result<ProvenanceRecord, String> {
        let v = doc.u64_field("v")?;
        if v != u64::from(AUDIT_SCHEMA_VERSION) {
            return Err(format!("unsupported audit schema version {v}"));
        }
        let events = doc
            .get("events")
            .and_then(Json::as_arr)
            .ok_or("missing events array")?
            .iter()
            .enumerate()
            .map(|(i, e)| ProvenanceEvent::from_json(e).map_err(|r| format!("event {i}: {r}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ProvenanceRecord {
            app: doc.str_field("app")?.to_string(),
            seed: doc.u32_field("seed")?,
            site: doc.str_field("site")?.to_string(),
            events,
        })
    }

    /// The final verdict event, if the record reached one.
    pub fn verdict(&self) -> Option<(&str, u32, Option<&str>)> {
        self.events.iter().rev().find_map(|e| match e {
            ProvenanceEvent::Verdict {
                outcome,
                enforced,
                witness,
            } => Some((outcome.as_str(), *enforced, witness.as_deref())),
            _ => None,
        })
    }

    /// Validate the events→witness chain. Returns `None` when the
    /// derivation is complete and internally consistent, otherwise a
    /// human-readable description of the first break in the chain.
    ///
    /// An *exposed* site must show: an extraction, a satisfiable β
    /// query, one `enforced` action per member of the final enforced
    /// set, and a verdict carrying the witness input hash. A
    /// *target-unsat* site must show its unsatisfiable β query. Enforced
    /// counts claimed by `prevented:*` verdicts must match the recorded
    /// enforcement steps.
    pub fn chain_error(&self) -> Option<String> {
        let Some(pos) = self
            .events
            .iter()
            .rposition(|e| matches!(e, ProvenanceEvent::Verdict { .. }))
        else {
            return Some("record has no verdict event".to_string());
        };
        // Only re-validation queries may follow the verdict (the engine
        // verifies exposed bugs in the same job scope).
        for event in &self.events[pos + 1..] {
            if !matches!(
                event,
                ProvenanceEvent::Query {
                    origin: QueryOrigin::Validate,
                    ..
                }
            ) {
                return Some("decision events recorded after the verdict".to_string());
            }
        }
        let ProvenanceEvent::Verdict {
            outcome,
            enforced,
            witness,
        } = &self.events[pos]
        else {
            unreachable!("rposition matched a verdict event");
        };
        let beta = self.events.iter().find_map(|e| match e {
            ProvenanceEvent::Query {
                origin: QueryOrigin::Beta,
                verdict,
                ..
            } => Some(*verdict),
            _ => None,
        });
        let enforced_steps = self
            .events
            .iter()
            .filter(|e| {
                matches!(
                    e,
                    ProvenanceEvent::Enforce {
                        action: EnforceAction::Enforced,
                        ..
                    }
                )
            })
            .count() as u32;
        let has_extraction = self
            .events
            .iter()
            .any(|e| matches!(e, ProvenanceEvent::Extraction { .. }));
        if outcome == "unknown" {
            // Extraction itself may have failed; nothing further to demand.
            return None;
        }
        if !has_extraction {
            return Some(format!("verdict {outcome:?} without an extraction event"));
        }
        if outcome == "target-unsat" {
            return match beta {
                Some(QueryVerdict::Unsat) => None,
                Some(v) => Some(format!(
                    "target-unsat verdict but β query was {}",
                    v.as_str()
                )),
                None => Some("target-unsat verdict without a β query".to_string()),
            };
        }
        // Every remaining outcome implies β was satisfiable at least once.
        match beta {
            Some(QueryVerdict::Sat) => {}
            Some(v) => {
                return Some(format!(
                    "verdict {outcome:?} but β query was {}",
                    v.as_str()
                ))
            }
            None => return Some(format!("verdict {outcome:?} without a β query")),
        }
        if enforced_steps != *enforced {
            return Some(format!(
                "verdict claims {enforced} enforced condition(s) but the chain records \
                 {enforced_steps} enforcement step(s)"
            ));
        }
        if outcome == "exposed" {
            if witness.is_none() {
                return Some("exposed verdict without a witness input hash".to_string());
            }
            let validate = self.events[pos + 1..].iter().find_map(|e| match e {
                ProvenanceEvent::Query {
                    origin: QueryOrigin::Validate,
                    verdict,
                    ..
                } => Some(*verdict),
                _ => None,
            });
            if let Some(v) = validate {
                if v != QueryVerdict::Sat {
                    return Some(format!(
                        "exposed witness failed constraint re-validation ({})",
                        v.as_str()
                    ));
                }
            }
        }
        if outcome == "prevented:budget"
            && !self
                .events
                .iter()
                .any(|e| matches!(e, ProvenanceEvent::Budget { .. }))
        {
            return Some("prevented:budget verdict without a budget-exhausted event".to_string());
        }
        None
    }

    /// Render the derivation as an indented explanation tree, grouping
    /// enforcement decisions by iteration.
    pub fn explain(&self) -> String {
        let mut out = String::new();
        let verdict = self.verdict();
        let headline = verdict.map_or("(no verdict)", |(o, _, _)| o);
        let _ = writeln!(
            out,
            "{}/{}/{} — {}",
            self.app, self.seed, self.site, headline
        );
        let mut iteration = 0u32;
        for (i, event) in self.events.iter().enumerate() {
            // Last top-level line gets the closing connector — the
            // verdict is usually last, but validation queries may
            // legitimately trail it.
            let tee = if i + 1 == self.events.len() {
                "└─"
            } else {
                "├─"
            };
            match event {
                ProvenanceEvent::Extraction {
                    relevant_bytes,
                    total_relevant,
                    phi_len,
                    boundary,
                    resumed,
                } => {
                    let bytes: Vec<String> = relevant_bytes.iter().map(u32::to_string).collect();
                    let _ = writeln!(
                        out,
                        "├─ extraction{}: target depends on bytes {{{}}}, {} relevant total, \
                         φ has {} condition(s), boundary at branch {}",
                        if *resumed {
                            " (resumed from snapshot)"
                        } else {
                            ""
                        },
                        bytes.join(","),
                        total_relevant,
                        phi_len,
                        boundary
                    );
                }
                ProvenanceEvent::Query {
                    origin,
                    fingerprint,
                    verdict,
                    cache_hit,
                } => {
                    let hit = match cache_hit {
                        Some(true) => ", cache hit",
                        Some(false) => ", cache miss",
                        None => "",
                    };
                    let short = &fingerprint[..fingerprint.len().min(12)];
                    let line = format!(
                        "{} query {}… → {}{}",
                        origin.as_str(),
                        short,
                        verdict.as_str(),
                        hit
                    );
                    if iteration == 0 {
                        let _ = writeln!(out, "{tee} {line}");
                    } else {
                        let _ = writeln!(out, "│  ├─ {line}");
                    }
                }
                ProvenanceEvent::Enforce {
                    iteration: it,
                    condition,
                    label,
                    action,
                } => {
                    if *it != iteration {
                        iteration = *it;
                        let _ = writeln!(out, "├─ iteration {iteration}");
                    }
                    let what = match action {
                        EnforceAction::Considered => "considered (violated by candidate)",
                        EnforceAction::Enforced => "ENFORCED → new candidate input",
                        EnforceAction::SkippedUnsat => "skipped permanently (unsat when enforced)",
                    };
                    let _ = writeln!(out, "│  ├─ condition #{condition} (label {label}) {what}");
                }
                ProvenanceEvent::Budget { iteration: it } => {
                    let _ = writeln!(out, "├─ solver budget exhausted at iteration {it}");
                    iteration = 0;
                }
                ProvenanceEvent::Verdict {
                    outcome,
                    enforced,
                    witness,
                } => {
                    let w = witness
                        .as_deref()
                        .map(|w| format!("; witness input {w}"))
                        .unwrap_or_default();
                    let _ = writeln!(
                        out,
                        "{tee} verdict: {outcome} with {enforced} enforced condition(s){w}"
                    );
                    iteration = 0;
                }
            }
        }
        out
    }
}

/// Canonical serialisation of a whole record set: records sorted by
/// `(app, seed, site)`, one canonical JSON document per line. Two
/// campaigns over the same spec produce byte-identical output regardless
/// of worker thread count.
pub fn canonical_record_set(records: &[ProvenanceRecord]) -> String {
    let mut sorted: Vec<&ProvenanceRecord> = records.iter().collect();
    sorted.sort_by(|a, b| (&a.app, a.seed, &a.site).cmp(&(&b.app, b.seed, &b.site)));
    let mut out = String::new();
    for r in sorted {
        let _ = writeln!(out, "{}", r.canonical());
    }
    out
}

/// FNV-1a (64-bit) hash of a byte string, rendered as `fnv64:<16 hex>`.
/// Used to tie an exposed site's verdict to its witness input bytes
/// without storing the input in the provenance record.
pub fn fnv64_hex(bytes: &[u8]) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("fnv64:{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exposed_record() -> ProvenanceRecord {
        ProvenanceRecord {
            app: "app-0".to_string(),
            seed: 0,
            site: "b0@7".to_string(),
            events: vec![
                ProvenanceEvent::Extraction {
                    relevant_bytes: vec![0, 1],
                    total_relevant: 2,
                    phi_len: 3,
                    boundary: 5,
                    resumed: false,
                },
                ProvenanceEvent::Query {
                    origin: QueryOrigin::Beta,
                    fingerprint: "00ff".to_string(),
                    verdict: QueryVerdict::Sat,
                    cache_hit: Some(false),
                },
                ProvenanceEvent::Enforce {
                    iteration: 1,
                    condition: 2,
                    label: 9,
                    action: EnforceAction::Considered,
                },
                ProvenanceEvent::Query {
                    origin: QueryOrigin::Enforce,
                    fingerprint: "0abc".to_string(),
                    verdict: QueryVerdict::Sat,
                    cache_hit: Some(true),
                },
                ProvenanceEvent::Enforce {
                    iteration: 1,
                    condition: 2,
                    label: 9,
                    action: EnforceAction::Enforced,
                },
                ProvenanceEvent::Verdict {
                    outcome: "exposed".to_string(),
                    enforced: 1,
                    witness: Some(fnv64_hex(b"AB")),
                },
            ],
        }
    }

    #[test]
    fn canonical_strips_cache_hit_only() {
        let rec = exposed_record();
        let full = rec.to_json().to_string();
        let canon = rec.canonical().to_string();
        assert!(full.contains("\"cache_hit\":true"));
        assert!(!canon.contains("cache_hit"));
        // Everything else survives.
        assert!(canon.contains("\"origin\":\"beta\""));
        assert!(canon.contains("\"outcome\":\"exposed\""));
        assert!(canon.contains("\"witness\":\"fnv64:"));
    }

    #[test]
    fn chain_check_accepts_complete_exposed_record() {
        assert_eq!(exposed_record().chain_error(), None);
    }

    #[test]
    fn chain_check_rejects_missing_witness() {
        let mut rec = exposed_record();
        let last = rec.events.len() - 1;
        rec.events[last] = ProvenanceEvent::Verdict {
            outcome: "exposed".to_string(),
            enforced: 1,
            witness: None,
        };
        assert!(rec.chain_error().unwrap().contains("witness"));
    }

    #[test]
    fn chain_check_rejects_enforced_count_mismatch() {
        let mut rec = exposed_record();
        let last = rec.events.len() - 1;
        rec.events[last] = ProvenanceEvent::Verdict {
            outcome: "exposed".to_string(),
            enforced: 3,
            witness: Some("fnv64:0".to_string()),
        };
        assert!(rec.chain_error().unwrap().contains("enforcement step"));
    }

    #[test]
    fn chain_check_rejects_truncated_record() {
        let mut rec = exposed_record();
        rec.events.pop();
        assert!(rec.chain_error().unwrap().contains("verdict"));
    }

    #[test]
    fn canonical_set_sorts_by_site_key() {
        let mut a = exposed_record();
        a.site = "z@1".to_string();
        let b = exposed_record();
        let set1 = canonical_record_set(&[a.clone(), b.clone()]);
        let set2 = canonical_record_set(&[b, a]);
        assert_eq!(set1, set2);
        assert!(set1.find("b0@7").unwrap() < set1.find("z@1").unwrap());
    }

    #[test]
    fn explain_renders_iterations_and_verdict() {
        let text = exposed_record().explain();
        assert!(text.contains("app-0/0/b0@7 — exposed"));
        assert!(text.contains("iteration 1"));
        assert!(text.contains("ENFORCED"));
        assert!(text.contains("verdict: exposed"));
    }

    #[test]
    fn fnv_is_stable() {
        assert_eq!(fnv64_hex(b""), "fnv64:cbf29ce484222325");
        assert_ne!(fnv64_hex(b"a"), fnv64_hex(b"b"));
    }

    #[test]
    fn wire_enums_roundtrip() {
        for o in [
            QueryOrigin::Beta,
            QueryOrigin::Enforce,
            QueryOrigin::Validate,
            QueryOrigin::Other,
        ] {
            assert_eq!(QueryOrigin::parse(o.as_str()), Some(o));
        }
        for v in [
            QueryVerdict::Sat,
            QueryVerdict::Unsat,
            QueryVerdict::Unknown,
        ] {
            assert_eq!(QueryVerdict::parse(v.as_str()), Some(v));
        }
        for a in [
            EnforceAction::Considered,
            EnforceAction::Enforced,
            EnforceAction::SkippedUnsat,
        ] {
            assert_eq!(EnforceAction::parse(a.as_str()), Some(a));
        }
    }

    #[test]
    fn json_bytes_are_pinned() {
        let rec = exposed_record();
        assert_eq!(
            rec.to_json().to_string(),
            r#"{"v":1,"app":"app-0","seed":0,"site":"b0@7","events":[{"type":"extraction","relevant_bytes":[0,1],"total_relevant":2,"phi":3,"boundary":5,"resumed":false},{"type":"query","origin":"beta","fingerprint":"00ff","verdict":"sat","cache_hit":false},{"type":"enforce","iteration":1,"condition":2,"label":9,"action":"considered"},{"type":"query","origin":"enforce","fingerprint":"0abc","verdict":"sat","cache_hit":true},{"type":"enforce","iteration":1,"condition":2,"label":9,"action":"enforced"},{"type":"verdict","outcome":"exposed","enforced":1,"witness":"fnv64:09086407b5a0edaa"}]}"#
        );
        assert_eq!(
            rec.canonical().to_string(),
            r#"{"v":1,"app":"app-0","seed":0,"site":"b0@7","events":[{"type":"extraction","relevant_bytes":[0,1],"total_relevant":2,"phi":3,"boundary":5,"resumed":false},{"type":"query","origin":"beta","fingerprint":"00ff","verdict":"sat"},{"type":"enforce","iteration":1,"condition":2,"label":9,"action":"considered"},{"type":"query","origin":"enforce","fingerprint":"0abc","verdict":"sat"},{"type":"enforce","iteration":1,"condition":2,"label":9,"action":"enforced"},{"type":"verdict","outcome":"exposed","enforced":1,"witness":"fnv64:09086407b5a0edaa"}]}"#
        );
    }
}
