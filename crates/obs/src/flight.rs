//! The flight recorder: a bounded ring of recent pulse events, dumped
//! to disk only when something goes wrong.
//!
//! A [`FlightRecorder`] sits behind a [`PulseBus`](crate::PulseBus)
//! subscriber and retains the last `capacity` events at near-zero cost
//! (one clone into a ring, no I/O, no serialisation). When a watchdog
//! anomaly fires or a job ends abnormally, [`dump`](FlightRecorder::dump)
//! serialises the retained window — so the operator gets the minutes
//! *before* the incident without paying for always-on archival.
//!
//! A dump is a self-describing JSONL file:
//!
//! ```text
//! {"type":"flight","v":1,"job":"job-3","reason":"anomaly:slow_site","seen":412,"retained":256,"anomalies":1}
//! {"type":"anomaly","kind":"slow_site","subject":"forged-100/0/b0@0",...}
//! {"type":"pulse","v":1,"threads":2}
//! {"type":"site_finished",...}
//! ...
//! ```
//!
//! The tail after the anomaly records is a standard telemetry stream
//! ([`TelemetryLog`] wire format), so existing tooling can replay it;
//! [`FlightDump::from_jsonl`] parses the whole file back.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::json::{jsonl_header, jsonl_lines, jsonl_records, Json};
use crate::pulse::PulseEvent;
use crate::telemetry::{pulse_event_lines, telemetry_header, TelemetryLog};
use crate::watchdog::{digest_record, read_digest_record, AnomalyReport};

/// Version stamped into (and required from) the flight header line.
pub const FLIGHT_SCHEMA_VERSION: u64 = 1;

/// A bounded last-N ring of pulse events.
#[derive(Debug)]
pub struct FlightRecorder {
    capacity: usize,
    ring: VecDeque<PulseEvent>,
    seen: u64,
}

impl FlightRecorder {
    /// A recorder retaining at most `capacity` events (min 1).
    #[must_use]
    pub fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(1);
        FlightRecorder {
            capacity,
            ring: VecDeque::with_capacity(capacity),
            seen: 0,
        }
    }

    /// Record one event, evicting the oldest beyond capacity.
    pub fn record(&mut self, event: &PulseEvent) {
        if self.ring.len() == self.capacity {
            self.ring.pop_front();
        }
        self.ring.push_back(event.clone());
        self.seen += 1;
    }

    /// Total events ever recorded (retained or evicted).
    #[must_use]
    pub fn seen(&self) -> u64 {
        self.seen
    }

    /// Events currently retained.
    #[must_use]
    pub fn retained(&self) -> usize {
        self.ring.len()
    }

    /// Serialise the retained window as a flight dump: header line,
    /// anomaly records, then the event tail as a telemetry stream.
    #[must_use]
    pub fn dump(
        &self,
        job: &str,
        reason: &str,
        threads: u32,
        anomalies: &[AnomalyReport],
    ) -> String {
        let head = Json::obj()
            .field("type", "flight")
            .field("v", FLIGHT_SCHEMA_VERSION)
            .field("job", job)
            .field("reason", reason)
            .field("seen", self.seen)
            .field("retained", self.ring.len())
            .field("anomalies", anomalies.len());
        let mut out = format!("{head}\n");
        for a in anomalies {
            let _ = writeln!(out, "{}", digest_record(a));
        }
        out.push_str(&telemetry_header(threads));
        for event in &self.ring {
            out.push_str(&pulse_event_lines(event));
        }
        out
    }
}

/// A parsed flight dump.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightDump {
    /// Job the recorder was attached to.
    pub job: String,
    /// Why the dump was written (`"anomaly:<kind>"` or `"job_failed"`).
    pub reason: String,
    /// Total events the recorder saw over the job's lifetime.
    pub seen: u64,
    /// Worker-thread count from the embedded telemetry header.
    pub threads: u32,
    /// Anomalies that triggered (or accompanied) the dump.
    pub anomalies: Vec<AnomalyReport>,
    /// The retained event window, oldest first.
    pub events: Vec<PulseEvent>,
}

impl FlightDump {
    /// Parses a dump produced by [`FlightRecorder::dump`].
    pub fn from_jsonl(text: &str) -> Result<FlightDump, String> {
        let mut lines = jsonl_lines(text);
        let head = jsonl_header(&mut lines, "flight", "flight", FLIGHT_SCHEMA_VERSION)?;
        let header = |e: String| format!("flight: header {e}");
        let declared = head.u64_field("anomalies").map_err(header)? as usize;
        let mut anomalies = Vec::new();
        jsonl_records(lines.by_ref().take(declared), "flight", |rec| {
            anomalies.push(read_digest_record(&rec)?);
            Ok(())
        })?;
        if anomalies.len() != declared {
            return Err(format!(
                "flight: header declares {declared} anomaly record(s) \
                 but the stream ended early"
            ));
        }
        // Everything left is a standard telemetry stream.
        let log = TelemetryLog::read(&mut lines).map_err(|e| format!("flight: {e}"))?;
        Ok(FlightDump {
            job: head.str_field("job").map_err(header)?.to_string(),
            reason: head.str_field("reason").map_err(header)?.to_string(),
            seen: head.u64_field("seen").map_err(header)?,
            threads: log.threads,
            anomalies,
            events: log.events,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::watchdog::AnomalyKind;

    fn site(i: u32) -> PulseEvent {
        PulseEvent::SiteFinished {
            app: "forged-001".into(),
            seed: 0,
            site: format!("b0@{i}"),
            outcome: "exposed".into(),
            wall_ns: u64::from(i) * 100,
            cache_bytes: 0,
            snapshot_bytes: 0,
            peak_heap_bytes: 0,
        }
    }

    #[test]
    fn ring_retains_the_last_n_events() {
        let mut rec = FlightRecorder::new(3);
        for i in 0..10 {
            rec.record(&site(i));
        }
        assert_eq!(rec.seen(), 10);
        assert_eq!(rec.retained(), 3);
        let dump = rec.dump("job-1", "job_failed", 2, &[]);
        let parsed = FlightDump::from_jsonl(&dump).expect("dump parses");
        assert_eq!(parsed.events, vec![site(7), site(8), site(9)]);
        assert_eq!(parsed.seen, 10);
        assert_eq!(parsed.reason, "job_failed");
        assert_eq!(parsed.threads, 2);
    }

    #[test]
    fn dump_round_trips_with_anomalies() {
        let mut rec = FlightRecorder::new(16);
        rec.record(&site(0));
        rec.record(&PulseEvent::Finished {
            wall_ns: 5,
            sites: 1,
            exposed: 1,
        });
        let anomalies = vec![AnomalyReport {
            kind: AnomalyKind::SlowSite,
            subject: "forged-001/0/b0@0".into(),
            detail: "site took 900ms against a campaign median of 1ms".into(),
            value: 900_000_000,
            threshold: 8_000_000,
        }];
        let dump = rec.dump("job-9", "anomaly:slow_site", 4, &anomalies);
        let parsed = FlightDump::from_jsonl(&dump).expect("dump parses");
        assert_eq!(parsed.job, "job-9");
        assert_eq!(parsed.anomalies, anomalies);
        assert_eq!(parsed.events.len(), 2);
        assert_eq!(parsed.threads, 4);
    }

    #[test]
    fn parser_rejects_bad_input() {
        assert!(FlightDump::from_jsonl("").unwrap_err().contains("empty"));
        assert!(FlightDump::from_jsonl("{\"type\":\"pulse\",\"v\":1}\n")
            .unwrap_err()
            .contains("header"));
        let bad_version =
            "{\"type\":\"flight\",\"v\":99,\"job\":\"j\",\"reason\":\"r\",\"seen\":0,\
             \"retained\":0,\"anomalies\":0}\n";
        assert!(FlightDump::from_jsonl(bad_version)
            .unwrap_err()
            .contains("unsupported schema version"));
        let truncated = "{\"type\":\"flight\",\"v\":1,\"job\":\"j\",\"reason\":\"r\",\"seen\":0,\
             \"retained\":0,\"anomalies\":2}\n";
        assert!(FlightDump::from_jsonl(truncated)
            .unwrap_err()
            .contains("ended early"));
    }

    #[test]
    fn dump_bytes_are_pinned() {
        let mut rec = FlightRecorder::new(16);
        rec.record(&site(0));
        rec.record(&PulseEvent::Finished {
            wall_ns: 5,
            sites: 1,
            exposed: 1,
        });
        let anomalies = vec![AnomalyReport {
            kind: AnomalyKind::SlowSite,
            subject: "forged-001/0/b0@0".into(),
            detail: "site took 900ms against a campaign median of 1ms".into(),
            value: 900_000_000,
            threshold: 8_000_000,
        }];
        let want = r#"{"type":"flight","v":1,"job":"job-9","reason":"anomaly:slow_site","seen":2,"retained":2,"anomalies":1}
{"type":"anomaly","kind":"slow_site","subject":"forged-001/0/b0@0","detail":"site took 900ms against a campaign median of 1ms","value":900000000,"threshold":8000000}
{"type":"pulse","v":1,"threads":4}
{"type":"site_finished","app":"forged-001","seed":0,"site":"b0@0","outcome":"exposed","wall_ns":0,"cache_bytes":0,"snapshot_bytes":0,"peak_heap_bytes":0}
{"type":"finished","wall_ns":5,"sites":1,"exposed":1}
"#;
        assert_eq!(rec.dump("job-9", "anomaly:slow_site", 4, &anomalies), want);
    }
}
