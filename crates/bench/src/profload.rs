//! Loading profiled runs and audit records back from disk — the input
//! side of `profile --diff` and the `audit` bin.
//!
//! [`load_profile`] accepts any of the three shapes the harness writes:
//!
//! * a raw JSONL trace (`synth_campaign --trace`), folded on load;
//! * an `obs_profile` JSON document (`profile --json` output);
//! * a `synth_campaign --profile --json` line, whose `profile` field
//!   embeds an `obs_profile` document.
//!
//! [`load_audit_records`] reads a `diode_audit` document
//! (`synth_campaign --audit`) back into [`ProvenanceRecord`]s.

use diode_obs::{Json, ProfileReport, ProvenanceRecord, Trace};

/// Loads a profiled run from any harness-written shape (see module
/// docs). `top_n` bounds the slowest-site list when folding a raw trace.
///
/// # Errors
///
/// Unreadable files and unrecognised document shapes.
pub fn load_profile(path: &str, top_n: usize) -> Result<ProfileReport, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    if let Ok(doc) = Json::parse(&text) {
        let embedded = match doc.get("table").and_then(Json::as_str) {
            Some("obs_profile") => &doc,
            Some("synth_campaign") => {
                doc.get("profile").filter(|p| !p.is_null()).ok_or_else(|| {
                    format!("{path}: synth_campaign output has no profile section (use --profile)")
                })?
            }
            Some(other) => {
                return Err(format!(
                    "{path}: table {other:?} holds no profile (expected obs_profile, \
                     synth_campaign, or a JSONL trace)"
                ))
            }
            None => return Err(format!("{path}: JSON document without a \"table\" field")),
        };
        return ProfileReport::from_json(embedded).map_err(|reason| format!("{path}: {reason}"));
    }
    // Not a single JSON document — treat as a JSONL trace.
    let trace = Trace::from_jsonl(&text).map_err(|e| format!("{path}: {e}"))?;
    Ok(ProfileReport::from_trace(&trace, top_n))
}

/// Loads the provenance records of a `diode_audit` document (written by
/// `synth_campaign --audit`).
///
/// # Errors
///
/// Unreadable files, wrong table tags, and corrupt records.
pub fn load_audit_records(path: &str) -> Result<Vec<ProvenanceRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    match doc.get("table").and_then(Json::as_str) {
        Some("diode_audit") => {}
        Some(other) => return Err(format!("{path}: table {other:?} is not \"diode_audit\"")),
        None => return Err(format!("{path}: missing \"table\" field")),
    }
    let rows = doc
        .get("records")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: missing \"records\" array"))?;
    let mut records = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        records.push(ProvenanceRecord::from_json(row).map_err(|e| format!("{path}[{i}]: {e}"))?);
    }
    Ok(records)
}

/// Serialises provenance records as a `diode_audit` document (the
/// inverse of [`load_audit_records`]). Records are written in canonical
/// form, so the document's record set is byte-identical across thread
/// counts (only the advisory `threads` field varies).
#[must_use]
pub fn audit_document(records: &[ProvenanceRecord], threads: usize) -> Json {
    let rows: Vec<Json> = records.iter().map(ProvenanceRecord::canonical).collect();
    Json::obj()
        .field("table", "diode_audit")
        .field("v", diode_obs::AUDIT_SCHEMA_VERSION)
        .field("threads", threads)
        .field("records", Json::Arr(rows))
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use diode_obs::Phase;

    use super::*;

    #[test]
    fn profile_roundtrips_through_obs_profile_json() {
        let mut trace = Trace {
            spans: vec![
                diode_obs::Span {
                    phase: Phase::Enforce,
                    app: "a".into(),
                    seed: 0,
                    site: Some("s1".into()),
                    seq: 0,
                    parent: None,
                    start_ns: 0,
                    dur_ns: 2_000_000,
                    cache_hit: None,
                },
                diode_obs::Span {
                    phase: Phase::Solve,
                    app: "a".into(),
                    seed: 0,
                    site: Some("s1".into()),
                    seq: 1,
                    parent: Some(0),
                    start_ns: 100,
                    dur_ns: 1_000_000,
                    cache_hit: Some(true),
                },
            ],
            counters: BTreeMap::new(),
            hists: BTreeMap::new(),
            wall_ns: Some(5_000_000),
            threads: Some(2),
        };
        trace.counters.insert("solver.queries".into(), 7);
        let report = ProfileReport::from_trace(&trace, 5);
        let doc = Json::parse(&report.to_json().to_string()).expect("report JSON parses");
        let back = ProfileReport::from_json(&doc).expect("reconstructs");
        assert_eq!(back.breakdown.phases.len(), report.breakdown.phases.len());
        assert_eq!(back.breakdown.top_level_ns, report.breakdown.top_level_ns);
        assert_eq!(back.counters, report.counters);
        assert_eq!(back.wall_ns, report.wall_ns);
        assert_eq!(back.threads, report.threads);
        assert_eq!(back.top_sites.len(), report.top_sites.len());
    }

    #[test]
    fn audit_document_roundtrips_records() {
        let rec = ProvenanceRecord {
            app: "a".into(),
            seed: 0,
            site: "s@1".into(),
            events: vec![diode_obs::ProvenanceEvent::Verdict {
                outcome: "unknown".into(),
                enforced: 0,
                witness: None,
            }],
        };
        let doc = audit_document(std::slice::from_ref(&rec), 4);
        let dir = std::env::temp_dir().join(format!("diode-profload-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("audit.json");
        std::fs::write(&path, doc.to_string()).unwrap();
        let back = load_audit_records(path.to_str().unwrap()).unwrap();
        assert_eq!(back, vec![rec]);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn committed_audit_baseline_reserializes_byte_identically() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_audit.json");
        let committed = std::fs::read_to_string(path).unwrap();
        let records = load_audit_records(path).unwrap();
        assert_eq!(records.len(), 73);
        assert_eq!(format!("{}\n", audit_document(&records, 1)), committed);
    }
}
