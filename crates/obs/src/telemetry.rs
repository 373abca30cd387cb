//! Versioned JSONL wire format for pulse telemetry: the one format of a
//! live stream, a recorded run, and a flight dump.
//!
//! A telemetry stream is one JSON object per line, written and read
//! through the crate's [`Json`] codec:
//!
//! ```text
//! {"type":"pulse","v":2,"threads":2}
//! {"type":"unit_started","app":"forged-003","seed":0}
//! {"type":"heartbeat","seq":0,"t_ns":51000000,"workers":[{"state":"site","app":"forged-003","seed":0,"site":"b0@7"},{"state":"idle"}],"queued":3,...}
//! {"type":"site_finished","app":"forged-003","seed":0,"site":"b0@7","outcome":"exposed",...}
//! {"type":"finished","wall_ns":812345678,"sites":40,"exposed":14}
//! {"type":"anomaly","kind":"slow_site","subject":"forged-003/0/b0@7",...}
//! ```
//!
//! Every event is one line, so a reader can act on each line as it
//! arrives. A live writer sends [`telemetry_header`] once, then
//! [`pulse_event_lines`] for each event its bus
//! [`Subscriber`](crate::Subscriber) receives, until the bus closes
//! after `finished`. `anomaly` records (an [`AnomalyReport`] behind a
//! type tag) follow the events when the writer ran a watchdog over
//! them. A flight dump, the stream of a job that went wrong, is the same
//! format with `"job"` and `"reason"` in its header.

use std::fmt::Write as _;

use crate::json::{jsonl_header, jsonl_lines, jsonl_records, Json};
use crate::pulse::{HeartbeatSample, PulseEvent, WorkerState};
use crate::watchdog::AnomalyReport;

/// Version stamped into (and required from) the telemetry header line.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 2;

/// The header record of a stream run on `threads` workers.
fn header(threads: u32) -> Json {
    Json::obj()
        .field("type", "pulse")
        .field("v", TELEMETRY_SCHEMA_VERSION)
        .field("threads", threads)
}

/// The header line opening every live telemetry stream.
#[must_use]
pub fn telemetry_header(threads: u32) -> String {
    format!("{}\n", header(threads))
}

/// A record of `kind` about one `(app, seed)` unit.
fn unit_record(kind: &str, app: &str, seed: u32) -> Json {
    Json::obj()
        .field("type", kind)
        .field("app", app)
        .field("seed", seed)
}

/// One worker's entry in a heartbeat's `workers` array.
fn worker_json(state: &WorkerState) -> Json {
    let worker = Json::obj().field("state", state.token());
    match state {
        WorkerState::Idle => worker,
        WorkerState::Unit { app, seed } => worker.field("app", app.as_str()).field("seed", *seed),
        WorkerState::Site { app, seed, site } => worker
            .field("app", app.as_str())
            .field("seed", *seed)
            .field("site", site.as_str()),
    }
}

/// Serialises one event to its newline-terminated line.
#[must_use]
pub fn pulse_event_lines(event: &PulseEvent) -> String {
    let record = match event {
        PulseEvent::UnitStarted { app, seed } => unit_record("unit_started", app, *seed),
        PulseEvent::SitesIdentified { app, seed, sites } => {
            unit_record("sites_identified", app, *seed).field("sites", *sites)
        }
        PulseEvent::SiteFinished {
            app,
            seed,
            site,
            outcome,
            wall_ns,
            cache_bytes,
            snapshot_bytes,
            peak_heap_bytes,
        } => unit_record("site_finished", app, *seed)
            .field("site", site.as_str())
            .field("outcome", outcome.as_str())
            .field("wall_ns", *wall_ns)
            .field("cache_bytes", *cache_bytes)
            .field("snapshot_bytes", *snapshot_bytes)
            .field("peak_heap_bytes", *peak_heap_bytes),
        PulseEvent::Heartbeat(hb) => Json::obj()
            .field("type", "heartbeat")
            .field("seq", hb.seq)
            .field("t_ns", hb.t_ns)
            .field(
                "workers",
                Json::Arr(hb.workers.iter().map(worker_json).collect()),
            )
            .field("queued", hb.queued)
            .field("pending", hb.pending)
            .field("steals", hb.steals)
            .field("jobs_done", hb.jobs_done)
            .field("cache_bytes", hb.cache_bytes)
            .field("cache_entries", hb.cache_entries)
            .field("snapshot_bytes", hb.snapshot_bytes)
            .field("snapshot_entries", hb.snapshot_entries)
            .field("interp_peak_heap_bytes", hb.interp_peak_heap_bytes),
        PulseEvent::Finished {
            wall_ns,
            sites,
            exposed,
        } => Json::obj()
            .field("type", "finished")
            .field("wall_ns", *wall_ns)
            .field("sites", *sites)
            .field("exposed", *exposed),
    };
    format!("{record}\n")
}

/// A fully parsed telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryLog {
    /// Worker-thread count the campaign ran with.
    pub threads: u32,
    /// The job a flight dump was cut from (`None` on any other stream).
    pub job: Option<String>,
    /// Why a flight dump was cut: `anomaly:<kind>` or `job_failed`
    /// (`None` on any other stream).
    pub reason: Option<String>,
    /// Every event, in stream order.
    pub events: Vec<PulseEvent>,
    /// The anomalies the writer's watchdog raised over the events.
    pub anomalies: Vec<AnomalyReport>,
}

impl TelemetryLog {
    /// Serialises the header, every event and every anomaly record.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let head = header(self.threads)
            .field_opt("job", self.job.as_deref())
            .field_opt("reason", self.reason.as_deref());
        let mut out = format!("{head}\n");
        for event in &self.events {
            out.push_str(&pulse_event_lines(event));
        }
        for a in &self.anomalies {
            let _ = writeln!(out, "{}", a.record());
        }
        out
    }

    /// Parses a telemetry stream. Errors name the offending line.
    pub fn from_jsonl(text: &str) -> Result<TelemetryLog, String> {
        let mut lines = jsonl_lines(text);
        let head = jsonl_header(&mut lines, "telemetry", "pulse", TELEMETRY_SCHEMA_VERSION)?;
        let text_field = |key: &str| head.str_field(key).ok().map(str::to_string);
        let mut log = TelemetryLog {
            threads: head
                .u32_field("threads")
                .map_err(|e| format!("telemetry: header {e}"))?,
            job: text_field("job"),
            reason: text_field("reason"),
            ..TelemetryLog::default()
        };
        if log.job.is_some() != log.reason.is_some() {
            return Err("telemetry: a flight header needs both \"job\" and \"reason\"".to_string());
        }
        jsonl_records(lines, "telemetry", |rec| log.push(&rec))?;
        Ok(log)
    }

    /// Appends the record on one line after the header: how a reader
    /// consumes a stream line by line as it arrives.
    pub fn read_record(&mut self, line: &str) -> Result<(), String> {
        let rec = Json::parse(line).map_err(|e| e.to_string())?;
        self.push(&rec)
    }

    fn push(&mut self, rec: &Json) -> Result<(), String> {
        let event = match rec.str_field("type")? {
            "anomaly" => {
                self.anomalies.push(AnomalyReport::from_json(rec)?);
                return Ok(());
            }
            "unit_started" => PulseEvent::UnitStarted {
                app: rec.str_field("app")?.to_string(),
                seed: rec.u32_field("seed")?,
            },
            "sites_identified" => PulseEvent::SitesIdentified {
                app: rec.str_field("app")?.to_string(),
                seed: rec.u32_field("seed")?,
                sites: rec.u64_field("sites")?,
            },
            "site_finished" => PulseEvent::SiteFinished {
                app: rec.str_field("app")?.to_string(),
                seed: rec.u32_field("seed")?,
                site: rec.str_field("site")?.to_string(),
                outcome: rec.str_field("outcome")?.to_string(),
                wall_ns: rec.u64_field("wall_ns")?,
                cache_bytes: rec.u64_field("cache_bytes")?,
                snapshot_bytes: rec.u64_field("snapshot_bytes")?,
                peak_heap_bytes: rec.u64_field("peak_heap_bytes")?,
            },
            "heartbeat" => PulseEvent::Heartbeat(HeartbeatSample {
                seq: rec.u64_field("seq")?,
                t_ns: rec.u64_field("t_ns")?,
                workers: rec
                    .get("workers")
                    .and_then(Json::as_arr)
                    .ok_or("missing array field \"workers\"")?
                    .iter()
                    .map(read_worker)
                    .collect::<Result<_, _>>()?,
                queued: rec.u64_field("queued")?,
                pending: rec.u64_field("pending")?,
                steals: rec.u64_field("steals")?,
                jobs_done: rec.u64_field("jobs_done")?,
                cache_bytes: rec.u64_field("cache_bytes")?,
                cache_entries: rec.u64_field("cache_entries")?,
                snapshot_bytes: rec.u64_field("snapshot_bytes")?,
                snapshot_entries: rec.u64_field("snapshot_entries")?,
                interp_peak_heap_bytes: rec.u64_field("interp_peak_heap_bytes")?,
            }),
            "finished" => PulseEvent::Finished {
                wall_ns: rec.u64_field("wall_ns")?,
                sites: rec.u64_field("sites")?,
                exposed: rec.u64_field("exposed")?,
            },
            other => return Err(format!("unknown record type {other:?}")),
        };
        self.events.push(event);
        Ok(())
    }
}

/// Reads one entry of a heartbeat's `workers` array.
fn read_worker(worker: &Json) -> Result<WorkerState, String> {
    Ok(match worker.str_field("state")? {
        "idle" => WorkerState::Idle,
        "unit" => WorkerState::Unit {
            app: worker.str_field("app")?.to_string(),
            seed: worker.u32_field("seed")?,
        },
        "site" => WorkerState::Site {
            app: worker.str_field("app")?.to_string(),
            seed: worker.u32_field("seed")?,
            site: worker.str_field("site")?.to_string(),
        },
        other => return Err(format!("unknown worker state {other:?}")),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::AnomalyKind;

    fn sample_log() -> TelemetryLog {
        TelemetryLog {
            threads: 2,
            events: vec![
                PulseEvent::UnitStarted {
                    app: "forged-001".into(),
                    seed: 0,
                },
                PulseEvent::SitesIdentified {
                    app: "forged-001".into(),
                    seed: 0,
                    sites: 3,
                },
                PulseEvent::Heartbeat(HeartbeatSample {
                    seq: 0,
                    t_ns: 50_000_000,
                    workers: vec![
                        WorkerState::Site {
                            app: "forged-001".into(),
                            seed: 0,
                            site: "b0@7".into(),
                        },
                        WorkerState::Idle,
                    ],
                    queued: 2,
                    pending: 3,
                    steals: 1,
                    jobs_done: 4,
                    cache_bytes: 512,
                    cache_entries: 8,
                    snapshot_bytes: 4096,
                    snapshot_entries: 3,
                    interp_peak_heap_bytes: 1024,
                }),
                PulseEvent::SiteFinished {
                    app: "forged-001".into(),
                    seed: 0,
                    site: "b0@7".into(),
                    outcome: "exposed".into(),
                    wall_ns: 9_000_000,
                    cache_bytes: 512,
                    snapshot_bytes: 4096,
                    peak_heap_bytes: 1024,
                },
                PulseEvent::Heartbeat(HeartbeatSample {
                    seq: 1,
                    t_ns: 100_000_000,
                    workers: vec![
                        WorkerState::Unit {
                            app: "forged-002 \"q\"".into(),
                            seed: 1,
                        },
                        WorkerState::Idle,
                    ],
                    ..HeartbeatSample::default()
                }),
                PulseEvent::Finished {
                    wall_ns: 200_000_000,
                    sites: 3,
                    exposed: 1,
                },
            ],
            anomalies: vec![
                AnomalyReport {
                    kind: AnomalyKind::SlowSite,
                    subject: "forged-001/0/b0@7".into(),
                    detail: "site took 900ms against a campaign median of 12ms".into(),
                    value: 900_000_000,
                    threshold: 250_000_000,
                },
                AnomalyReport {
                    kind: AnomalyKind::CachePressure,
                    subject: "cache".into(),
                    detail: "solver+snapshot caches hold 2048 bytes (ceiling 1024)".into(),
                    value: 2048,
                    threshold: 1024,
                },
            ],
            ..TelemetryLog::default()
        }
    }

    /// The sample as a flight dump.
    fn incident_log() -> TelemetryLog {
        TelemetryLog {
            job: Some("job-9".into()),
            reason: Some("anomaly:slow_site".into()),
            ..sample_log()
        }
    }

    #[test]
    fn jsonl_round_trips() {
        for log in [sample_log(), incident_log(), TelemetryLog::default()] {
            let text = log.to_jsonl();
            let back = TelemetryLog::from_jsonl(&text).unwrap();
            assert_eq!(back, log);
            assert_eq!(back.to_jsonl(), text);
        }
    }

    #[test]
    fn heartbeat_at_end_of_stream_is_flushed() {
        let log = TelemetryLog {
            threads: 1,
            events: vec![PulseEvent::Heartbeat(HeartbeatSample {
                seq: 0,
                workers: vec![WorkerState::Idle],
                ..HeartbeatSample::default()
            })],
            ..TelemetryLog::default()
        };
        let back = TelemetryLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn a_stream_read_line_by_line_equals_the_whole() {
        let text = incident_log().to_jsonl();
        let (head, rest) = text.split_once('\n').unwrap();
        let mut log = TelemetryLog::from_jsonl(head).unwrap();
        for line in rest.lines() {
            log.read_record(line).unwrap();
        }
        assert_eq!(log, incident_log());
    }

    #[test]
    fn rejects_bad_input() {
        let err = |text: &str| TelemetryLog::from_jsonl(text).unwrap_err();
        assert!(err("").contains("empty"));
        assert!(err("{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n")
            .contains("unsupported schema version 1 (expected 2)"));
        let head = "{\"type\":\"pulse\",\"v\":2,\"threads\":1}\n";
        let unknown = err(&format!(
            "{head}\n{{\"type\":\"worker\",\"state\":\"idle\"}}\n"
        ));
        assert!(
            unknown.contains("line 3") && unknown.contains("unknown record type \"worker\""),
            "{unknown}"
        );
        let hb =
            "{\"type\":\"heartbeat\",\"seq\":0,\"t_ns\":0,\"workers\":[{\"state\":\"dozing\"}],\
                  \"queued\":0,\"pending\":0,\"steals\":0,\"jobs_done\":0,\"cache_bytes\":0,\
                  \"cache_entries\":0,\"snapshot_bytes\":0,\"snapshot_entries\":0,\
                  \"interp_peak_heap_bytes\":0}";
        let bad_state = err(&format!("{head}{hb}\n"));
        assert!(
            bad_state.contains("line 2") && bad_state.contains("unknown worker state \"dozing\""),
            "{bad_state}"
        );
        let bad_kind = err(&format!(
            "{head}{{\"type\":\"anomaly\",\"kind\":\"gremlin\",\"subject\":\"x\",\
             \"detail\":\"d\",\"value\":1,\"threshold\":2}}\n"
        ));
        assert!(bad_kind.contains("unknown kind \"gremlin\""), "{bad_kind}");
        let wide = err("{\"type\":\"pulse\",\"v\":2,\"threads\":1099511627776}\n");
        assert!(wide.contains("\"threads\" exceeds u32"), "{wide}");
        let half = err("{\"type\":\"pulse\",\"v\":2,\"threads\":1,\"job\":\"job-1\"}\n");
        assert!(half.contains("both \"job\" and \"reason\""), "{half}");
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let events = r#"{"type":"unit_started","app":"forged-001","seed":0}
{"type":"sites_identified","app":"forged-001","seed":0,"sites":3}
{"type":"heartbeat","seq":0,"t_ns":50000000,"workers":[{"state":"site","app":"forged-001","seed":0,"site":"b0@7"},{"state":"idle"}],"queued":2,"pending":3,"steals":1,"jobs_done":4,"cache_bytes":512,"cache_entries":8,"snapshot_bytes":4096,"snapshot_entries":3,"interp_peak_heap_bytes":1024}
{"type":"site_finished","app":"forged-001","seed":0,"site":"b0@7","outcome":"exposed","wall_ns":9000000,"cache_bytes":512,"snapshot_bytes":4096,"peak_heap_bytes":1024}
{"type":"heartbeat","seq":1,"t_ns":100000000,"workers":[{"state":"unit","app":"forged-002 \"q\"","seed":1},{"state":"idle"}],"queued":0,"pending":0,"steals":0,"jobs_done":0,"cache_bytes":0,"cache_entries":0,"snapshot_bytes":0,"snapshot_entries":0,"interp_peak_heap_bytes":0}
{"type":"finished","wall_ns":200000000,"sites":3,"exposed":1}
{"type":"anomaly","kind":"slow_site","subject":"forged-001/0/b0@7","detail":"site took 900ms against a campaign median of 12ms","value":900000000,"threshold":250000000}
{"type":"anomaly","kind":"cache_pressure","subject":"cache","detail":"solver+snapshot caches hold 2048 bytes (ceiling 1024)","value":2048,"threshold":1024}
"#;
        assert_eq!(
            sample_log().to_jsonl(),
            format!("{{\"type\":\"pulse\",\"v\":2,\"threads\":2}}\n{events}")
        );
        assert_eq!(
            incident_log().to_jsonl(),
            format!(
                "{{\"type\":\"pulse\",\"v\":2,\"threads\":2,\"job\":\"job-9\",\
                 \"reason\":\"anomaly:slow_site\"}}\n{events}"
            )
        );
        assert_eq!(
            telemetry_header(2),
            "{\"type\":\"pulse\",\"v\":2,\"threads\":2}\n"
        );
    }
}
