//! The versioned JSONL wire format a finished trace is written in.
//!
//! A trace serialises as one JSON object per line:
//!
//! ```text
//! {"type":"trace","v":1,"wall_ns":81234567,"threads":4}
//! {"type":"span","phase":"solve","app":"forged-003","seed":0,"seq":4,"site":"b0@7","parent":2,"start_ns":151,"dur_ns":90,"cache_hit":false}
//! {"type":"counter","name":"solver.queries","value":412}
//! {"type":"hist","name":"scheduler.queue_wait_ns","count":31,"sum":90000,"max":20000,"p50":4095,"p99":16383}
//! ```
//!
//! The header line carries the schema version ([`TRACE_SCHEMA_VERSION`]);
//! loading rejects other versions with a clear error. Every line is
//! written and read through the crate's [`Json`] codec.

use std::fmt::Write as _;

use crate::json::{jsonl_header, jsonl_lines, jsonl_records, Json};
use crate::metrics::HistSummary;
use crate::span::{Phase, Span, Trace};

/// Version stamped into (and required from) the JSONL header line.
pub const TRACE_SCHEMA_VERSION: u64 = 1;

impl Trace {
    /// Serialise to the versioned JSONL wire format.
    pub fn to_jsonl(&self) -> String {
        let head = Json::obj()
            .field("type", "trace")
            .field("v", TRACE_SCHEMA_VERSION)
            .field_opt("wall_ns", self.wall_ns)
            .field_opt("threads", self.threads);
        let mut out = format!("{head}\n");
        for span in &self.spans {
            let _ = writeln!(out, "{}", span_json(span));
        }
        for (name, value) in &self.counters {
            let counter = Json::obj()
                .field("type", "counter")
                .field("name", name.as_str())
                .field("value", *value);
            let _ = writeln!(out, "{counter}");
        }
        for (name, h) in &self.hists {
            let hist = Json::obj()
                .field("type", "hist")
                .field("name", name.as_str())
                .field("count", h.count)
                .field("sum", h.sum)
                .field("max", h.max)
                .field("p50", h.p50)
                .field("p99", h.p99);
            let _ = writeln!(out, "{hist}");
        }
        out
    }

    /// Parse the JSONL wire format back into a trace. Strict on the
    /// header (type + version) and on per-line record shape.
    pub fn from_jsonl(text: &str) -> Result<Trace, String> {
        let mut lines = jsonl_lines(text);
        let head = jsonl_header(&mut lines, "trace", "trace", TRACE_SCHEMA_VERSION)?;
        let mut trace = Trace {
            wall_ns: head.get("wall_ns").and_then(Json::as_u64),
            threads: head.get("threads").and_then(Json::as_u64).map(|t| t as u32),
            ..Trace::default()
        };
        jsonl_records(lines, "trace", |rec| {
            match rec.str_field("type")? {
                "span" => trace.spans.push(span_from_json(&rec)?),
                "counter" => {
                    let name = rec.str_field("name")?.to_string();
                    trace.counters.insert(name, rec.u64_field("value")?);
                }
                "hist" => {
                    let name = rec.str_field("name")?.to_string();
                    let summary = HistSummary {
                        count: rec.u64_field("count")?,
                        sum: rec.u64_field("sum")?,
                        max: rec.u64_field("max")?,
                        p50: rec.u64_field("p50")?,
                        p99: rec.u64_field("p99")?,
                    };
                    trace.hists.insert(name, summary);
                }
                other => return Err(format!("unknown record type {other:?}")),
            }
            Ok(())
        })?;
        Ok(trace)
    }
}

fn span_json(span: &Span) -> Json {
    Json::obj()
        .field("type", "span")
        .field("phase", span.phase.as_str())
        .field("app", span.app.as_str())
        .field("seed", span.seed)
        .field("seq", span.seq)
        .field_opt("site", span.site.as_deref())
        .field_opt("parent", span.parent)
        .field("start_ns", span.start_ns)
        .field("dur_ns", span.dur_ns)
        .field_opt("cache_hit", span.cache_hit)
}

fn span_from_json(rec: &Json) -> Result<Span, String> {
    let phase = rec.str_field("phase")?;
    Ok(Span {
        phase: Phase::parse(phase).ok_or_else(|| format!("unknown phase {phase:?}"))?,
        app: rec.str_field("app")?.to_string(),
        seed: rec.u32_field("seed")?,
        site: rec.get("site").and_then(Json::as_str).map(str::to_string),
        seq: rec.u32_field("seq")?,
        parent: rec.get("parent").and_then(Json::as_u64).map(|p| p as u32),
        start_ns: rec.u64_field("start_ns")?,
        dur_ns: rec.u64_field("dur_ns")?,
        cache_hit: rec.get("cache_hit").and_then(Json::as_bool),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_trace() -> Trace {
        let mut trace = Trace {
            wall_ns: Some(123_456),
            threads: Some(4),
            ..Trace::default()
        };
        trace.spans.push(Span {
            phase: Phase::Identify,
            app: "app \"quoted\"\n".into(),
            seed: 7,
            site: None,
            seq: 0,
            parent: None,
            start_ns: 10,
            dur_ns: 90,
            cache_hit: None,
        });
        trace.spans.push(Span {
            phase: Phase::Solve,
            app: "forged-001".into(),
            seed: 0,
            site: Some("b0@3".into()),
            seq: 4,
            parent: Some(2),
            start_ns: 500,
            dur_ns: 20,
            cache_hit: Some(true),
        });
        trace.counters.insert("solver.queries".into(), 42);
        trace.hists.insert(
            "queue_wait_ns".into(),
            HistSummary {
                count: 3,
                sum: 600,
                max: 400,
                p50: 255,
                p99: 511,
            },
        );
        trace
    }

    #[test]
    fn jsonl_round_trips() {
        let trace = sample_trace();
        let text = trace.to_jsonl();
        let back = Trace::from_jsonl(&text).unwrap();
        assert_eq!(back, trace);
        // And the serialised form is stable.
        assert_eq!(back.to_jsonl(), text);
    }

    #[test]
    fn rejects_wrong_version_and_garbage() {
        let bad_version = "{\"type\":\"trace\",\"v\":99}\n";
        let e = Trace::from_jsonl(bad_version).unwrap_err();
        assert!(e.contains("unsupported schema version 99"), "{e}");

        let no_header = "{\"type\":\"span\"}\n";
        assert!(Trace::from_jsonl(no_header).unwrap_err().contains("header"));

        assert!(Trace::from_jsonl("").unwrap_err().contains("empty"));

        let bad_line = "{\"type\":\"trace\",\"v\":1}\nnot json\n";
        assert!(Trace::from_jsonl(bad_line).unwrap_err().contains("line 2"));

        let bad_span = "{\"type\":\"trace\",\"v\":1}\n{\"type\":\"span\",\"phase\":\"warp\",\"app\":\"a\",\"seed\":0,\"seq\":0,\"start_ns\":0,\"dur_ns\":0}\n";
        assert!(Trace::from_jsonl(bad_span)
            .unwrap_err()
            .contains("unknown phase"));
    }

    #[test]
    fn jsonl_bytes_are_pinned() {
        let want = r#"{"type":"trace","v":1,"wall_ns":123456,"threads":4}
{"type":"span","phase":"identify","app":"app \"quoted\"\n","seed":7,"seq":0,"start_ns":10,"dur_ns":90}
{"type":"span","phase":"solve","app":"forged-001","seed":0,"seq":4,"site":"b0@3","parent":2,"start_ns":500,"dur_ns":20,"cache_hit":true}
{"type":"counter","name":"solver.queries","value":42}
{"type":"hist","name":"queue_wait_ns","count":3,"sum":600,"max":400,"p50":255,"p99":511}
"#;
        assert_eq!(sample_trace().to_jsonl(), want);
    }
}
