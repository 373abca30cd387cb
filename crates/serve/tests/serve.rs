//! End-to-end daemon tests over a real TCP socket: determinism against
//! the one-shot path, warm-cache amortisation under concurrent clients,
//! typed backpressure, and telemetry streaming.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Barrier;
use std::time::Duration;

use diode_engine::CampaignSpec;
use diode_obs::{fnv64_hex, Json, TelemetryLog};
use diode_serve::{serve, ServeConfig};
use diode_synth::{forge, SynthConfig};

/// Sends one request line and reads one response line.
fn request(addr: std::net::SocketAddr, line: &str) -> Json {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    writeln!(conn, "{line}").expect("send request");
    let mut reader = BufReader::new(conn);
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("read response");
    Json::parse(reply.trim()).expect("response is JSON")
}

/// Sends a watch request and collects the entire stream until EOF.
fn watch_stream(addr: std::net::SocketAddr, job: &str) -> String {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    writeln!(conn, r#"{{"op":"watch","job":"{job}"}}"#).expect("send watch");
    let mut out = String::new();
    BufReader::new(conn)
        .read_to_string(&mut out)
        .expect("read stream");
    out
}

use std::io::Read as _;

fn start(workers: usize, queue_depth: usize) -> diode_serve::ServerHandle {
    serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers,
        queue_depth,
        heartbeat: Duration::from_millis(10),
        ..ServeConfig::default()
    })
    .expect("daemon starts")
}

fn shutdown(handle: diode_serve::ServerHandle) {
    let reply = request(handle.addr(), r#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
}

#[test]
fn daemon_reports_match_one_shot_runs_and_warm_beats_cold() {
    let handle = start(1, 16);
    let addr = handle.addr();

    // Cold job, synchronously.
    let submit = r#"{"op":"submit","spec":{"apps":3,"depth":2},"wait":true}"#;
    let cold = request(addr, submit);
    assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true), "{cold}");
    assert_eq!(cold.get("recall").and_then(Json::as_f64), Some(1.0));

    // The same spec through the one-shot path (cold caches, default
    // policy — exactly what `synth_campaign` runs): byte-identical
    // outcomes, fingerprint included.
    let cfg = SynthConfig::default().with_apps(3).with_depth(2);
    let report = CampaignSpec::from_corpus(&forge(&cfg)).run();
    assert_eq!(
        cold.get("fingerprint").and_then(Json::as_str),
        Some(fnv64_hex(report.outcome_fingerprint().as_bytes()).as_str()),
        "daemon outcome diverges from the one-shot engine run"
    );

    // Resubmit: overlapping (identical) suite, now against warm caches.
    let warm = request(addr, submit);
    assert_eq!(
        warm.get("fingerprint").and_then(Json::as_str),
        cold.get("fingerprint").and_then(Json::as_str),
        "warm caches must not change outcomes"
    );
    let rate = |r: &Json| {
        r.get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .expect("report carries a per-job cache hit rate")
    };
    assert!(
        rate(&warm) > rate(&cold),
        "warm hit rate {} must strictly exceed cold {}",
        rate(&warm),
        rate(&cold)
    );

    shutdown(handle);
}

#[test]
fn concurrent_waiting_clients_get_identical_warm_reports() {
    let handle = start(1, 16);
    let addr = handle.addr();
    let submit = r#"{"op":"submit","spec":{"apps":3,"depth":2},"wait":true}"#;
    let cold = request(addr, submit);
    assert_eq!(cold.get("ok").and_then(Json::as_bool), Some(true), "{cold}");
    let rate = |r: &Json| {
        r.get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .expect("report carries a per-job cache hit rate")
    };

    // Four clients released together, each waiting on two submits of
    // the cold job's spec.
    let clients = 4;
    let barrier = Barrier::new(clients);
    let replies: Vec<Json> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    (0..2).map(|_| request(addr, submit)).collect::<Vec<_>>()
                })
            })
            .collect();
        threads
            .into_iter()
            .flat_map(|t| t.join().expect("client thread"))
            .collect()
    });

    assert_eq!(replies.len(), 2 * clients);
    for reply in &replies {
        assert_eq!(
            reply.get("ok").and_then(Json::as_bool),
            Some(true),
            "{reply}"
        );
        assert_eq!(
            reply.get("fingerprint").and_then(Json::as_str),
            cold.get("fingerprint").and_then(Json::as_str),
            "concurrent warm jobs must not change outcomes"
        );
        assert!(
            rate(reply) > rate(&cold),
            "warm hit rate {} must strictly exceed cold {}",
            rate(reply),
            rate(&cold)
        );
    }
    shutdown(handle);
}

#[test]
fn overlapping_suite_prefix_hits_warm_cache() {
    let handle = start(1, 16);
    let addr = handle.addr();
    // 2-app suite first; then 3 apps from the same RNG seed — per-app
    // RNG streams make the first two apps byte-identical, so the grown
    // suite's prefix rides the warm snapshot + solver caches.
    let cold = request(
        addr,
        r#"{"op":"submit","spec":{"apps":2,"depth":2,"rng_seed":7},"wait":true}"#,
    );
    let grown = request(
        addr,
        r#"{"op":"submit","spec":{"apps":3,"depth":2,"rng_seed":7},"wait":true}"#,
    );
    let rate = |r: &Json| {
        r.get("cache")
            .and_then(|c| c.get("hit_rate"))
            .and_then(Json::as_f64)
            .unwrap()
    };
    assert!(
        rate(&grown) > rate(&cold),
        "overlapping suite should inherit warm queries: {} vs {}",
        rate(&grown),
        rate(&cold)
    );
    shutdown(handle);
}

#[test]
fn full_queue_rejects_with_typed_429() {
    let handle = start(1, 1);
    let addr = handle.addr();
    // Occupy the worker with a non-trivial job, then fill the depth-1
    // queue; the next submit must bounce.
    let first = request(
        addr,
        r#"{"op":"submit","spec":{"apps":4,"depth":3,"site_work":200}}"#,
    );
    assert_eq!(first.get("ok").and_then(Json::as_bool), Some(true));
    let mut saw_reject = false;
    for _ in 0..50 {
        let r = request(addr, r#"{"op":"submit","spec":{"apps":1,"depth":1}}"#);
        if r.get("ok").and_then(Json::as_bool) == Some(false) {
            assert_eq!(r.get("code").and_then(Json::as_u64), Some(429), "{r}");
            assert_eq!(r.get("error").and_then(Json::as_str), Some("queue_full"));
            saw_reject = true;
            break;
        }
    }
    assert!(saw_reject, "a depth-1 queue never rejected in 50 submits");
    shutdown(handle);
}

#[test]
fn watch_streams_live_and_replays_after_completion() {
    let handle = start(1, 16);
    let addr = handle.addr();
    let submitted = request(
        addr,
        r#"{"op":"submit","spec":{"apps":2,"depth":2,"site_work":100}}"#,
    );
    let job = submitted
        .get("job")
        .and_then(Json::as_str)
        .expect("async submit returns a job id")
        .to_string();

    // Live stream: runs until the terminal record, parses as a full
    // telemetry log ending in `finished`.
    let live = watch_stream(addr, &job);
    let log = TelemetryLog::from_jsonl(&live).expect("live stream parses");
    assert!(
        matches!(
            log.events.last(),
            Some(diode_obs::PulseEvent::Finished { .. })
        ),
        "stream must terminate with the finished record"
    );

    // Replay: watching a finished job serves the archived stream, which
    // includes events from the very start.
    let replay = watch_stream(addr, &job);
    let archived = TelemetryLog::from_jsonl(&replay).expect("archived stream parses");
    assert!(
        archived.events.len() >= log.events.len(),
        "archive holds the full stream"
    );
    // (first non-heartbeat event: the heartbeat thread may legitimately
    // tick before the first worker gets scheduled)
    let first_work = archived
        .events
        .iter()
        .find(|e| !matches!(e, diode_obs::PulseEvent::Heartbeat { .. }));
    assert!(
        matches!(first_work, Some(diode_obs::PulseEvent::UnitStarted { .. })),
        "archive starts at the first unit, got {first_work:?}"
    );

    // Status knows the job is done and carries its report.
    let status = request(addr, &format!(r#"{{"op":"status","job":"{job}"}}"#));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("done"));
    assert!(status.get("report").is_some());

    shutdown(handle);
}

#[test]
fn unknown_jobs_and_suites_are_404s() {
    let handle = start(1, 4);
    let addr = handle.addr();
    let r = request(addr, r#"{"op":"status","job":"job-999"}"#);
    assert_eq!(r.get("code").and_then(Json::as_u64), Some(404));
    // No corpus root configured: suite submits are a 400.
    let r = request(addr, r#"{"op":"submit","suite":"suite-0011223344556677"}"#);
    assert_eq!(r.get("code").and_then(Json::as_u64), Some(400), "{r}");
    let r = request(addr, r#"{"op":"nope"}"#);
    assert_eq!(r.get("error").and_then(Json::as_str), Some("bad_request"));
    shutdown(handle);
}

#[test]
fn corpus_suites_run_by_id_from_the_shared_root() {
    let dir = std::env::temp_dir().join(format!("diode-serve-test-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("corpus root");
    let store = diode_corpus::CorpusStore::open(&dir).expect("open corpus");
    let cfg = SynthConfig::default().with_apps(2).with_depth(2);
    let suite = store.forge_and_save(&cfg).expect("save suite");
    let id = suite.id().to_string();

    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        corpus_root: Some(dir.clone()),
        heartbeat: Duration::from_millis(10),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();

    // Submit by unique prefix; the daemon resolves it against the root.
    let prefix = &id[..id.len() - 4];
    let reply = request(
        addr,
        &format!(r#"{{"op":"submit","suite":"{prefix}","wait":true}}"#),
    );
    assert_eq!(
        reply.get("ok").and_then(Json::as_bool),
        Some(true),
        "{reply}"
    );
    assert_eq!(reply.get("suite").and_then(Json::as_str), Some(id.as_str()));
    assert_eq!(reply.get("recall").and_then(Json::as_f64), Some(1.0));

    // The same suite replayed one-shot matches the daemon's outcomes.
    let (report, _) = store
        .load(&id)
        .expect("load suite")
        .replay(diode_engine::ExecutionMode::default());
    assert_eq!(
        reply.get("fingerprint").and_then(Json::as_str),
        Some(fnv64_hex(report.outcome_fingerprint().as_bytes()).as_str())
    );

    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_job_that_fails_to_build_ends_its_watch_and_counts_as_failed() {
    // A stored suite whose programs vanish after saving still resolves
    // at admission (by its manifest) but fails to load on the worker.
    let dir = std::env::temp_dir().join(format!("diode-serve-broken-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("corpus root");
    let store = diode_corpus::CorpusStore::open(&dir).expect("open corpus");
    let suite = store
        .forge_and_save(&SynthConfig::default().with_apps(2).with_depth(2))
        .expect("save suite");
    let id = suite.id().to_string();
    std::fs::remove_dir_all(dir.join(&id).join("programs")).expect("remove programs");

    let handle = serve(ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        workers: 1,
        corpus_root: Some(dir.clone()),
        heartbeat: Duration::from_millis(10),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = handle.addr();

    // Keep the one worker busy so the broken job is still queued when
    // the watch attaches.
    let busy = request(
        addr,
        r#"{"op":"submit","spec":{"apps":4,"depth":3,"site_work":200}}"#,
    );
    assert_eq!(busy.get("ok").and_then(Json::as_bool), Some(true), "{busy}");
    let broken = request(addr, &format!(r#"{{"op":"submit","suite":"{id}"}}"#));
    let job = broken
        .get("job")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("suite resolves at admission: {broken}"))
        .to_string();
    let (tx, rx) = std::sync::mpsc::channel();
    let watch_job = job.clone();
    std::thread::spawn(move || {
        let _ = tx.send(watch_stream(addr, &watch_job));
    });
    let stream = rx
        .recv_timeout(Duration::from_secs(120))
        .expect("the watch ends when the job fails");
    let log = TelemetryLog::from_jsonl(&stream).expect("watch stream parses");
    assert!(
        log.events.is_empty(),
        "no campaign ran, so only the header streams: {stream:?}"
    );

    let status = request(addr, &format!(r#"{{"op":"status","job":"{job}"}}"#));
    assert_eq!(status.get("state").and_then(Json::as_str), Some("failed"));
    let waited = request(
        addr,
        &format!(r#"{{"op":"submit","suite":"{id}","wait":true}}"#),
    );
    assert_eq!(
        waited.get("code").and_then(Json::as_u64),
        Some(500),
        "{waited}"
    );
    assert_eq!(
        waited.get("error").and_then(Json::as_str),
        Some("job_failed")
    );
    let metrics = request(addr, r#"{"op":"metrics"}"#);
    let failed = metrics
        .get("metrics")
        .and_then(|m| m.get("counters"))
        .and_then(|c| c.get("diode_jobs_failed_total"))
        .and_then(Json::as_u64);
    assert_eq!(failed, Some(2), "{metrics}");

    shutdown(handle);
    let _ = std::fs::remove_dir_all(&dir);
}
