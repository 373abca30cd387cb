//! Service-level observability end-to-end: passivity of the metrics
//! registry and flight dumps, the planted-stall anomaly drill, and the
//! metrics/health wire surface.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

use diode_obs::{parse_prometheus, AnomalyReport, Json, PulseEvent, TelemetryLog, WatchdogConfig};
use diode_serve::{serve, ServeConfig, ServerHandle};
use diode_synth::{forge_stall, SynthConfig};

/// Sends one request line and reads one response line.
fn request(addr: std::net::SocketAddr, line: &str) -> Json {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    writeln!(conn, "{line}").expect("send request");
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("read response");
    Json::parse(reply.trim()).expect("response is JSON")
}

/// Sends one request line and reads the whole (multi-line) response.
fn request_text(addr: std::net::SocketAddr, line: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    writeln!(conn, "{line}").expect("send request");
    let mut text = String::new();
    BufReader::new(conn)
        .read_to_string(&mut text)
        .expect("read response");
    text
}

fn shutdown(handle: ServerHandle) {
    let reply = request(handle.addr(), r#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("diode-serve-ops-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir
}

fn fingerprint(reply: &Json) -> String {
    reply
        .get("fingerprint")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("reply carries a fingerprint: {reply}"))
        .to_string()
}

#[test]
fn metrics_flight_and_watchdog_are_passive_across_thread_counts() {
    let dir = temp_dir("passive");
    // Fully instrumented daemon: registry, recorder, flight dumps, and
    // an attached-but-silent watchdog (thresholds that cannot fire, so
    // the comparison isn't muddied by flight dumps).
    let instrumented = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        heartbeat: Duration::from_millis(10),
        metrics: true,
        flight_dir: Some(dir.clone()),
        watchdog: Some(WatchdogConfig {
            slow_site_floor_ns: u64::MAX,
            idle_heartbeats: u32::MAX,
            ..WatchdogConfig::default()
        }),
        ..ServeConfig::default()
    })
    .expect("instrumented daemon starts");
    // Bare daemon: no registry, no recorder, no flight, no watchdog.
    let bare = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        heartbeat: Duration::from_millis(10),
        metrics: false,
        flight_dir: None,
        watchdog: None,
        ..ServeConfig::default()
    })
    .expect("bare daemon starts");

    let mut first: Option<String> = None;
    for threads in [1usize, 2, 4, 8] {
        let line = format!(
            r#"{{"op":"submit","spec":{{"apps":3,"depth":2}},"wait":true,"threads":{threads}}}"#
        );
        let on = request(instrumented.addr(), &line);
        let off = request(bare.addr(), &line);
        assert_eq!(on.get("ok").and_then(Json::as_bool), Some(true), "{on}");
        assert_eq!(off.get("ok").and_then(Json::as_bool), Some(true), "{off}");
        assert_eq!(
            fingerprint(&on),
            fingerprint(&off),
            "observability must be passive at {threads} thread(s)"
        );
        let fp = fingerprint(&on);
        assert_eq!(
            *first.get_or_insert_with(|| fp.clone()),
            fp,
            "outcomes must not depend on the thread count"
        );
    }

    // A silent watchdog cuts no flight dumps.
    let dumps = std::fs::read_dir(&dir).expect("flight dir").count();
    assert_eq!(dumps, 0, "no anomaly fired, so no dump may exist");

    // The bare daemon rejects scrapes with a typed 400.
    let r = request(bare.addr(), r#"{"op":"metrics"}"#);
    assert_eq!(r.get("code").and_then(Json::as_u64), Some(400), "{r}");

    shutdown(instrumented);
    shutdown(bare);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn planted_stall_fires_the_watchdog_and_cuts_exactly_one_flight_dump() {
    let dir = temp_dir("flight");
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        heartbeat: Duration::from_millis(1),
        flight_dir: Some(dir.clone()),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();

    // A healthy 5-app suite plus one planted stall, under the pulse
    // test's thresholds (idle detection off: single-core CI).
    let reply = request(
        addr,
        r#"{"op":"submit","spec":{"apps":5,"stall_work":2000000},"wait":true,
            "watchdog":{"slow_factor":8,"slow_floor_ms":0,"min_sites":8,"idle_heartbeats":0}}"#
            .replace('\n', " ")
            .as_str(),
    );
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    // The plant lies outside the forge oracle, so recall is unscored.
    assert!(
        matches!(reply.get("recall"), Some(Json::Null)),
        "stall jobs must not be recall-scored: {reply}"
    );
    // The plant must fire. On an oversubscribed box the near-zero
    // campaign median can flag a healthy site too, so assert on the
    // invariants: at least one anomaly, all of them slow_site.
    let anomalies = reply
        .get("anomalies")
        .and_then(Json::as_arr)
        .expect("watched job reports its anomalies");
    assert!(!anomalies.is_empty(), "the plant fires: {reply}");
    for a in anomalies {
        assert_eq!(a.get("kind").and_then(Json::as_str), Some("slow_site"));
    }

    // Exactly one dump, named after the job: the job's telemetry stream,
    // marked with the incident and carrying the reply's anomalies.
    let stall_app = forge_stall(2_000_000, SynthConfig::default().rng_seed).name;
    let job = reply.get("job").and_then(Json::as_str).expect("job id");
    let files: Vec<_> = std::fs::read_dir(&dir)
        .expect("flight dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 1, "exactly one flight dump: {files:?}");
    assert_eq!(
        files[0].file_name().and_then(|n| n.to_str()),
        Some(format!("{job}.jsonl").as_str())
    );
    let flight_field = reply.get("flight").and_then(Json::as_str).expect("path");
    assert_eq!(PathBuf::from(flight_field), files[0]);
    let dump = TelemetryLog::from_jsonl(&std::fs::read_to_string(&files[0]).expect("read dump"))
        .expect("dump parses");
    assert_eq!(dump.job.as_deref(), Some(job));
    assert_eq!(dump.reason.as_deref(), Some("anomaly:slow_site"));
    let replied: Vec<AnomalyReport> = anomalies
        .iter()
        .map(|a| AnomalyReport::from_json(a).expect("reply anomaly parses"))
        .collect();
    assert_eq!(dump.anomalies, replied);
    assert!(
        dump.anomalies
            .iter()
            .any(|a| a.subject.contains(&stall_app)),
        "one anomaly must point at {stall_app}: {:?}",
        dump.anomalies
            .iter()
            .map(|a| &a.subject)
            .collect::<Vec<_>>()
    );
    assert!(
        dump.events.iter().any(
            |e| matches!(e, PulseEvent::SiteFinished { app, .. } if app.as_str() == stall_app)
        ),
        "the dump must hold the stall site's events"
    );
    // The dump holds the whole job: the stream a late watch replays.
    let replay = TelemetryLog::from_jsonl(&request_text(
        addr,
        &format!(r#"{{"op":"watch","job":"{job}"}}"#),
    ))
    .expect("replay parses");
    assert_eq!(dump.events, replay.events);
    assert!(
        matches!(dump.events.last(), Some(PulseEvent::Finished { .. })),
        "the dump ends with the job's finished event"
    );

    // A healthy watched job adds no second dump — and says so.
    let healthy = request(
        addr,
        r#"{"op":"submit","spec":{"apps":2},"wait":true,"watchdog":{"slow_floor_ms":60000,"idle_heartbeats":0}}"#,
    );
    assert_eq!(
        healthy.get("ok").and_then(Json::as_bool),
        Some(true),
        "{healthy}"
    );
    assert_eq!(
        healthy
            .get("anomalies")
            .and_then(Json::as_arr)
            .map(<[Json]>::len),
        Some(0)
    );
    assert!(healthy.get("flight").is_none());
    assert_eq!(std::fs::read_dir(&dir).expect("flight dir").count(), 1);

    // The scrape agrees: one dump, and every fired anomaly counted.
    let metrics = request(addr, r#"{"op":"metrics"}"#);
    let counter = |name: &str| {
        metrics
            .get("metrics")
            .and_then(|m| m.get("counters"))
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    assert_eq!(counter("diode_flight_dumps_total"), Some(1), "{metrics}");
    assert_eq!(
        counter(r#"diode_anomalies_total{kind="slow_site"}"#),
        Some(anomalies.len() as u64)
    );

    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn metrics_health_and_status_expose_service_state() {
    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 2,
        queue_depth: 4,
        heartbeat: Duration::from_millis(10),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();

    // Ready from the start: all workers alive, full headroom.
    let h = request(addr, r#"{"op":"health"}"#);
    assert_eq!(h.get("healthy").and_then(Json::as_bool), Some(true), "{h}");
    assert_eq!(h.get("live").and_then(Json::as_bool), Some(true));
    assert_eq!(h.get("queue_headroom").and_then(Json::as_u64), Some(8));
    let workers = h.get("workers").and_then(Json::as_arr).expect("workers");
    assert_eq!(workers.len(), 2);
    assert!(workers
        .iter()
        .all(|w| w.get("alive").and_then(Json::as_bool) == Some(true)));

    // Two jobs and one typed rejection to move the counters.
    for _ in 0..2 {
        let r = request(
            addr,
            r#"{"op":"submit","spec":{"apps":2,"depth":2},"wait":true}"#,
        );
        assert_eq!(r.get("ok").and_then(Json::as_bool), Some(true), "{r}");
    }
    let r = request(addr, r#"{"op":"submit","suite":"suite-0011223344556677"}"#);
    assert_eq!(r.get("code").and_then(Json::as_u64), Some(400));

    // JSON exposition: job counters, the wall histogram, live gauges.
    let m = request(addr, r#"{"op":"metrics"}"#);
    assert_eq!(m.get("ok").and_then(Json::as_bool), Some(true), "{m}");
    let metrics = m.get("metrics").expect("metrics body");
    let counter = |name: &str| {
        metrics
            .get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_u64)
    };
    assert_eq!(counter("diode_jobs_submitted_total"), Some(2));
    assert_eq!(counter("diode_jobs_completed_total"), Some(2));
    assert_eq!(counter(r#"diode_jobs_rejected_total{code="400"}"#), Some(1));
    assert_eq!(
        metrics
            .get("histograms")
            .and_then(|h| h.get("diode_job_wall_ns"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u64),
        Some(2),
        "{m}"
    );
    assert!(
        metrics
            .get("gauges")
            .and_then(|g| g.get("diode_uptime_seconds"))
            .and_then(Json::as_f64)
            .expect("uptime gauge")
            > 0.0
    );

    // Prometheus exposition: parses, and agrees with the JSON view.
    let text = request_text(addr, r#"{"op":"metrics","format":"prometheus"}"#);
    let samples = parse_prometheus(&text).expect("exposition parses");
    let series = |name: &str| {
        samples
            .iter()
            .find(|s| s.name == name)
            .unwrap_or_else(|| panic!("series {name} missing from scrape"))
            .value
    };
    assert_eq!(series("diode_jobs_completed_total"), 2.0);
    assert_eq!(series("diode_job_wall_ns_count"), 2.0);
    assert!(samples.iter().any(|s| s.name == "diode_job_wall_ns_bucket"
        && s.labels.iter().any(|(k, v)| k == "le" && v == "+Inf")
        && s.value == 2.0));

    // Status carries the version surface and per-worker tallies.
    let s = request(addr, r#"{"op":"status"}"#);
    let versions = s.get("versions").expect("versions object");
    assert!(versions.get("protocol").and_then(Json::as_u64).is_some());
    assert_eq!(versions.get("telemetry").and_then(Json::as_u64), Some(2));
    assert_eq!(versions.get("metrics").and_then(Json::as_u64), Some(1));
    let keys: Vec<&str> = match versions {
        Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
        other => panic!("versions is an object: {other}"),
    };
    assert_eq!(keys, ["protocol", "telemetry", "metrics"]);
    let stats = s.get("worker_stats").and_then(Json::as_arr).expect("stats");
    let completed: u64 = stats
        .iter()
        .map(|w| w.get("completed").and_then(Json::as_u64).unwrap_or(0))
        .sum();
    assert_eq!(completed, 2, "{s}");
    assert_eq!(s.get("metrics").and_then(Json::as_bool), Some(true));

    shutdown(handle);
}
