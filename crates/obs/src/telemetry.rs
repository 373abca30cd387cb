//! Versioned JSONL wire format for pulse telemetry.
//!
//! A telemetry stream is one JSON object per line, written and read
//! through the crate's [`Json`] codec:
//!
//! ```text
//! {"type":"pulse","v":1,"threads":4}
//! {"type":"unit_started","app":"forged-003","seed":0}
//! {"type":"heartbeat","seq":0,"t_ns":51000000,"workers":2,"queued":3,...}
//! {"type":"worker","hb":0,"worker":0,"state":"site","app":"forged-003","seed":0,"site":"b0@7"}
//! {"type":"worker","hb":0,"worker":1,"state":"idle"}
//! {"type":"site_finished","app":"forged-003","seed":0,"site":"b0@7","outcome":"exposed",...}
//! {"type":"finished","wall_ns":812345678,"sites":40,"exposed":14}
//! ```
//!
//! In this (v1) format a heartbeat's per-worker states follow it as
//! separate `worker` lines referencing the heartbeat's `seq`;
//! [`TelemetryLog::from_jsonl`] reassembles them. Events stream
//! incrementally: a live writer sends [`telemetry_header`] once, then
//! [`pulse_event_lines`] for each event its bus
//! [`Subscriber`](crate::Subscriber) receives, until the bus closes
//! after `finished`. The reader tolerates a truncated tail only insofar
//! as every present line must still parse.

use std::fmt::Write as _;

use crate::json::{jsonl_header, jsonl_lines, jsonl_records, Json};
use crate::pulse::{HeartbeatSample, PulseEvent, WorkerState};

/// Version stamped into (and required from) the telemetry header line.
pub const TELEMETRY_SCHEMA_VERSION: u64 = 1;

/// The header line opening every telemetry stream.
#[must_use]
pub fn telemetry_header(threads: u32) -> String {
    let head = Json::obj()
        .field("type", "pulse")
        .field("v", TELEMETRY_SCHEMA_VERSION)
        .field("threads", threads);
    format!("{head}\n")
}

/// A record of `kind` about one `(app, seed)` unit.
fn unit_record(kind: &str, app: &str, seed: u32) -> Json {
    Json::obj()
        .field("type", kind)
        .field("app", app)
        .field("seed", seed)
}

/// Serialises one event to its line (or lines, for heartbeats), each
/// newline-terminated.
#[must_use]
pub fn pulse_event_lines(event: &PulseEvent) -> String {
    let mut out = String::new();
    let mut line = |record: Json| {
        let _ = writeln!(out, "{record}");
    };
    match event {
        PulseEvent::UnitStarted { app, seed } => line(unit_record("unit_started", app, *seed)),
        PulseEvent::SitesIdentified { app, seed, sites } => {
            line(unit_record("sites_identified", app, *seed).field("sites", *sites));
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
        } => line(
            unit_record("site_finished", app, *seed)
                .field("site", site.as_str())
                .field("outcome", outcome.as_str())
                .field("wall_ns", *wall_ns)
                .field("cache_bytes", *cache_bytes)
                .field("snapshot_bytes", *snapshot_bytes)
                .field("peak_heap_bytes", *peak_heap_bytes),
        ),
        PulseEvent::Heartbeat(hb) => {
            line(
                Json::obj()
                    .field("type", "heartbeat")
                    .field("seq", hb.seq)
                    .field("t_ns", hb.t_ns)
                    .field("workers", hb.workers.len())
                    .field("queued", hb.queued)
                    .field("pending", hb.pending)
                    .field("steals", hb.steals)
                    .field("jobs_done", hb.jobs_done)
                    .field("cache_bytes", hb.cache_bytes)
                    .field("cache_entries", hb.cache_entries)
                    .field("snapshot_bytes", hb.snapshot_bytes)
                    .field("snapshot_entries", hb.snapshot_entries)
                    .field("interp_peak_heap_bytes", hb.interp_peak_heap_bytes),
            );
            for (i, state) in hb.workers.iter().enumerate() {
                let worker = Json::obj()
                    .field("type", "worker")
                    .field("hb", hb.seq)
                    .field("worker", i)
                    .field("state", state.token());
                line(match state {
                    WorkerState::Idle => worker,
                    WorkerState::Unit { app, seed } => {
                        worker.field("app", app.as_str()).field("seed", *seed)
                    }
                    WorkerState::Site { app, seed, site } => worker
                        .field("app", app.as_str())
                        .field("seed", *seed)
                        .field("site", site.as_str()),
                });
            }
        }
        PulseEvent::Finished {
            wall_ns,
            sites,
            exposed,
        } => line(
            Json::obj()
                .field("type", "finished")
                .field("wall_ns", *wall_ns)
                .field("sites", *sites)
                .field("exposed", *exposed),
        ),
    }
    out
}

/// A fully parsed telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetryLog {
    /// Worker-thread count the campaign ran with.
    pub threads: u32,
    /// Every event, in stream order (heartbeats reassembled).
    pub events: Vec<PulseEvent>,
}

impl TelemetryLog {
    /// Serialises header + every event back to the wire format.
    #[must_use]
    pub fn to_jsonl(&self) -> String {
        let mut out = telemetry_header(self.threads);
        for event in &self.events {
            out.push_str(&pulse_event_lines(event));
        }
        out
    }

    /// Parses a telemetry stream, reassembling heartbeat worker lines.
    pub fn from_jsonl(text: &str) -> Result<TelemetryLog, String> {
        TelemetryLog::read(&mut jsonl_lines(text))
    }

    /// Reads a telemetry stream, header first, from numbered lines (the
    /// tail of a flight dump is one).
    pub(crate) fn read<'a>(
        lines: &mut impl Iterator<Item = (usize, &'a str)>,
    ) -> Result<TelemetryLog, String> {
        let head = jsonl_header(lines, "telemetry", "pulse", TELEMETRY_SCHEMA_VERSION)?;
        let mut log = TelemetryLog {
            threads: head.get("threads").and_then(Json::as_u64).unwrap_or(0) as u32,
            events: Vec::new(),
        };
        // A heartbeat still collecting its `worker` lines.
        let mut pending: Option<HeartbeatSample> = None;
        jsonl_records(lines, "telemetry", |rec| {
            let kind = rec.str_field("type")?;
            if kind == "worker" {
                let hb = pending
                    .as_mut()
                    .ok_or("worker record outside a heartbeat")?;
                return read_worker(&rec, hb);
            }
            if let Some(hb) = pending.take() {
                log.events.push(PulseEvent::Heartbeat(hb));
            }
            match kind {
                "unit_started" => log.events.push(PulseEvent::UnitStarted {
                    app: rec.str_field("app")?.to_string(),
                    seed: rec.u32_field("seed")?,
                }),
                "sites_identified" => log.events.push(PulseEvent::SitesIdentified {
                    app: rec.str_field("app")?.to_string(),
                    seed: rec.u32_field("seed")?,
                    sites: rec.u64_field("sites")?,
                }),
                "site_finished" => log.events.push(PulseEvent::SiteFinished {
                    app: rec.str_field("app")?.to_string(),
                    seed: rec.u32_field("seed")?,
                    site: rec.str_field("site")?.to_string(),
                    outcome: rec.str_field("outcome")?.to_string(),
                    wall_ns: rec.u64_field("wall_ns")?,
                    cache_bytes: rec.u64_field("cache_bytes")?,
                    snapshot_bytes: rec.u64_field("snapshot_bytes")?,
                    peak_heap_bytes: rec.u64_field("peak_heap_bytes")?,
                }),
                "heartbeat" => {
                    let workers = rec.u64_field("workers")?;
                    pending = Some(HeartbeatSample {
                        seq: rec.u64_field("seq")?,
                        t_ns: rec.u64_field("t_ns")?,
                        workers: vec![WorkerState::Idle; workers as usize],
                        queued: rec.u64_field("queued")?,
                        pending: rec.u64_field("pending")?,
                        steals: rec.u64_field("steals")?,
                        jobs_done: rec.u64_field("jobs_done")?,
                        cache_bytes: rec.u64_field("cache_bytes")?,
                        cache_entries: rec.u64_field("cache_entries")?,
                        snapshot_bytes: rec.u64_field("snapshot_bytes")?,
                        snapshot_entries: rec.u64_field("snapshot_entries")?,
                        interp_peak_heap_bytes: rec.u64_field("interp_peak_heap_bytes")?,
                    });
                }
                "finished" => log.events.push(PulseEvent::Finished {
                    wall_ns: rec.u64_field("wall_ns")?,
                    sites: rec.u64_field("sites")?,
                    exposed: rec.u64_field("exposed")?,
                }),
                other => return Err(format!("unknown record type {other:?}")),
            }
            Ok(())
        })?;
        if let Some(hb) = pending {
            log.events.push(PulseEvent::Heartbeat(hb));
        }
        Ok(log)
    }
}

/// Fills one of the open heartbeat's worker slots from a `worker` line.
fn read_worker(rec: &Json, hb: &mut HeartbeatSample) -> Result<(), String> {
    let hb_seq = rec.u64_field("hb")?;
    if hb_seq != hb.seq {
        return Err(format!(
            "worker references heartbeat {hb_seq} but heartbeat {} is open",
            hb.seq
        ));
    }
    let index = rec.u64_field("worker")? as usize;
    let declared = hb.workers.len();
    let slot = hb.workers.get_mut(index).ok_or_else(|| {
        format!("worker index {index} out of range (heartbeat declares {declared})")
    })?;
    *slot = match rec.str_field("state")? {
        "idle" => WorkerState::Idle,
        "unit" => WorkerState::Unit {
            app: rec.str_field("app")?.to_string(),
            seed: rec.u32_field("seed")?,
        },
        "site" => WorkerState::Site {
            app: rec.str_field("app")?.to_string(),
            seed: rec.u32_field("seed")?,
            site: rec.str_field("site")?.to_string(),
        },
        other => return Err(format!("unknown worker state {other:?}")),
    };
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

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
        }
    }

    #[test]
    fn jsonl_round_trips() {
        let log = sample_log();
        let text = log.to_jsonl();
        let back = TelemetryLog::from_jsonl(&text).unwrap();
        assert_eq!(back, log);
        assert_eq!(back.to_jsonl(), text);
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
        };
        let back = TelemetryLog::from_jsonl(&log.to_jsonl()).unwrap();
        assert_eq!(back, log);
    }

    #[test]
    fn rejects_bad_input() {
        assert!(TelemetryLog::from_jsonl("").unwrap_err().contains("empty"));
        assert!(TelemetryLog::from_jsonl("{\"type\":\"pulse\",\"v\":9}\n")
            .unwrap_err()
            .contains("unsupported schema version"));
        let orphan_worker = "{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n\
             {\"type\":\"worker\",\"hb\":0,\"worker\":0,\"state\":\"idle\"}\n";
        assert!(TelemetryLog::from_jsonl(orphan_worker)
            .unwrap_err()
            .contains("outside a heartbeat"));
        let bad_index = "{\"type\":\"pulse\",\"v\":1,\"threads\":1}\n\
             {\"type\":\"heartbeat\",\"seq\":0,\"t_ns\":0,\"workers\":1,\"queued\":0,\
              \"pending\":0,\"steals\":0,\"jobs_done\":0,\"cache_bytes\":0,\"cache_entries\":0,\
              \"snapshot_bytes\":0,\"snapshot_entries\":0,\"interp_peak_heap_bytes\":0}\n\
             {\"type\":\"worker\",\"hb\":0,\"worker\":5,\"state\":\"idle\"}\n";
        assert!(TelemetryLog::from_jsonl(bad_index)
            .unwrap_err()
            .contains("out of range"));
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let want = r#"{"type":"pulse","v":1,"threads":2}
{"type":"unit_started","app":"forged-001","seed":0}
{"type":"sites_identified","app":"forged-001","seed":0,"sites":3}
{"type":"heartbeat","seq":0,"t_ns":50000000,"workers":2,"queued":2,"pending":3,"steals":1,"jobs_done":4,"cache_bytes":512,"cache_entries":8,"snapshot_bytes":4096,"snapshot_entries":3,"interp_peak_heap_bytes":1024}
{"type":"worker","hb":0,"worker":0,"state":"site","app":"forged-001","seed":0,"site":"b0@7"}
{"type":"worker","hb":0,"worker":1,"state":"idle"}
{"type":"site_finished","app":"forged-001","seed":0,"site":"b0@7","outcome":"exposed","wall_ns":9000000,"cache_bytes":512,"snapshot_bytes":4096,"peak_heap_bytes":1024}
{"type":"heartbeat","seq":1,"t_ns":100000000,"workers":2,"queued":0,"pending":0,"steals":0,"jobs_done":0,"cache_bytes":0,"cache_entries":0,"snapshot_bytes":0,"snapshot_entries":0,"interp_peak_heap_bytes":0}
{"type":"worker","hb":1,"worker":0,"state":"unit","app":"forged-002 \"q\"","seed":1}
{"type":"worker","hb":1,"worker":1,"state":"idle"}
{"type":"finished","wall_ns":200000000,"sites":3,"exposed":1}
"#;
        assert_eq!(sample_log().to_jsonl(), want);
    }
}
