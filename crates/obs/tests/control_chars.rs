//! Names carrying control characters, quotes and backslashes survive
//! every writer: each output parses as JSON and reads back equal.

use diode_obs::{
    AnomalyKind, AnomalyReport, HeartbeatSample, Json, Phase, ProfileDiff, ProfileReport,
    ProvenanceEvent, ProvenanceRecord, PulseEvent, Span, TelemetryLog, Trace, WorkerState,
};

/// An app and a site name with `\t`, `\n`, `"`, `\\` and `\u{1}` in them.
const APP: &str = "tab\there \"q\"";
const SITE: &str = "b0@7\nback\\slash\u{1}";

/// Parses `text` as one JSON document, failing loudly.
fn parse(text: &str) -> Json {
    Json::parse(text).unwrap_or_else(|e| panic!("{e} in {text:?}"))
}

#[test]
fn names_with_control_characters_survive_every_writer() {
    let span = |phase, seq, parent, dur_ns| Span {
        phase,
        app: APP.into(),
        seed: 0,
        site: Some(SITE.into()),
        seq,
        parent,
        start_ns: 0,
        dur_ns,
        cache_hit: None,
    };
    let mut trace = Trace {
        spans: vec![
            span(Phase::Enforce, 0, None, 2_000_000),
            span(Phase::Solve, 1, Some(0), 1_000_000),
        ],
        wall_ns: Some(5_000_000),
        threads: Some(2),
        ..Trace::default()
    };
    trace.counters.insert(format!("{APP}.{SITE}"), 7);
    assert_eq!(Trace::from_jsonl(&trace.to_jsonl()), Ok(trace.clone()));

    // A flight dump: control characters in the header's job and reason,
    // in every event, and in the anomaly records.
    let log = TelemetryLog {
        threads: 2,
        job: Some(APP.into()),
        reason: Some(SITE.into()),
        events: vec![
            PulseEvent::Heartbeat(HeartbeatSample {
                workers: vec![WorkerState::Site {
                    app: APP.into(),
                    seed: 0,
                    site: SITE.into(),
                }],
                ..HeartbeatSample::default()
            }),
            PulseEvent::SiteFinished {
                app: APP.into(),
                seed: 0,
                site: SITE.into(),
                outcome: "exposed".into(),
                wall_ns: 9,
                cache_bytes: 0,
                snapshot_bytes: 0,
                peak_heap_bytes: 0,
            },
        ],
        anomalies: vec![AnomalyReport {
            kind: AnomalyKind::SlowSite,
            subject: format!("{APP}/0/{SITE}"),
            detail: format!("site {SITE} took long"),
            value: 2,
            threshold: 1,
        }],
    };
    let text = log.to_jsonl();
    assert_eq!(text.lines().count(), 4, "one line per record:\n{text}");
    text.lines().for_each(|line| drop(parse(line)));
    assert_eq!(TelemetryLog::from_jsonl(&text), Ok(log));

    let record = ProvenanceRecord {
        app: APP.into(),
        seed: 0,
        site: SITE.into(),
        events: vec![ProvenanceEvent::Budget { iteration: 1 }],
    };
    let doc = parse(&record.to_json().to_string());
    assert_eq!(ProvenanceRecord::from_json(&doc), Ok(record));

    let report = ProfileReport::from_trace(&trace, 5);
    let doc = parse(&report.to_json().to_string());
    assert_eq!(ProfileReport::from_json(&doc), Ok(report.clone()));

    let diff = ProfileDiff::between(&report, &report, 5, 0.15);
    let doc = parse(&diff.to_json().to_string());
    let site = &doc.get("sites").and_then(Json::as_arr).unwrap()[0];
    assert_eq!(site.get("app").and_then(Json::as_str), Some(APP));
    assert_eq!(site.get("site").and_then(Json::as_str), Some(SITE));
}
