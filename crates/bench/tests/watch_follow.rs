//! Following a live job: `serve watch` copies each telemetry line to
//! stdout as the daemon sends it, and `watch --follow` narrates a stream
//! on stdin line by line, rendering the summary at EOF. `watch` never
//! sizes an allocation from a stream's header, and shows a flight dump
//! with the anomalies it carries.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Command, Output, Stdio};
use std::time::Duration;

use diode_obs::{AnomalyKind, AnomalyReport, HeartbeatSample, Json, PulseEvent, TelemetryLog};
use diode_serve::{serve, ServeConfig};

fn site(app: &str, site: &str, wall_ns: u64) -> PulseEvent {
    PulseEvent::SiteFinished {
        app: app.to_string(),
        seed: 0,
        site: site.to_string(),
        outcome: "exposed".to_string(),
        wall_ns,
        cache_bytes: 0,
        snapshot_bytes: 0,
        peak_heap_bytes: 0,
    }
}

/// A finished one-worker stream of one app with two sites.
fn finished_log() -> TelemetryLog {
    TelemetryLog {
        threads: 1,
        events: vec![
            PulseEvent::UnitStarted {
                app: "app-a".to_string(),
                seed: 0,
            },
            PulseEvent::SitesIdentified {
                app: "app-a".to_string(),
                seed: 0,
                sites: 2,
            },
            PulseEvent::Heartbeat(HeartbeatSample::default()),
            site("app-a", "first", 1_000_000),
            site("app-a", "second", 2_000_000),
            PulseEvent::Finished {
                wall_ns: 5_000_000,
                sites: 2,
                exposed: 2,
            },
        ],
        ..TelemetryLog::default()
    }
}

/// Runs the `watch` bin with `args` and `stdin` fed to it.
fn watch(args: &[&str], stdin: &str) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_watch"))
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("watch spawns");
    child
        .stdin
        .take()
        .expect("stdin is piped")
        .write_all(stdin.as_bytes())
        .expect("feed stdin");
    child.wait_with_output().expect("watch exits")
}

/// Runs `watch --replay` on `text` saved to a file named by `tag`.
fn replay(tag: &str, text: &str) -> Output {
    let path = std::env::temp_dir().join(format!("watch-{tag}-{}.jsonl", std::process::id()));
    std::fs::write(&path, text).expect("write stream");
    let out = watch(&["--replay", path.to_str().expect("utf-8 path")], "");
    let _ = std::fs::remove_file(&path);
    out
}

fn text(bytes: &[u8]) -> String {
    String::from_utf8_lossy(bytes).into_owned()
}

#[test]
fn follow_narrates_stdin_and_exits_1_on_a_cut_stream() {
    let stream = finished_log().to_jsonl();
    let out = watch(&["--follow"], &stream);
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{stdout}\n{}", text(&out.stderr));
    let narrated: Vec<&str> = stdout.lines().take(4).collect();
    assert_eq!(
        narrated,
        [
            "identified app-a/0: 2 site(s)",
            "site app-a/0/first: exposed in 1.0ms",
            "site app-a/0/second: exposed in 2.0ms",
            "finished: 2 site(s), 2 exposed, wall 5.0ms",
        ],
        "{stdout}"
    );
    assert!(stdout.contains("watchdog: no anomalies"), "{stdout}");

    // Cut before `finished`: what arrived is narrated and summarised,
    // and the exit status says the stream is incomplete.
    let (cut, _) = stream.rsplit_once("{\"type\":\"finished\"").unwrap();
    let out = watch(&["--follow"], cut);
    let stdout = text(&out.stdout);
    assert_eq!(out.status.code(), Some(1), "{stdout}");
    assert!(stdout.contains("site app-a/0/second"), "{stdout}");
    assert!(stdout.contains("watch: stream still running"), "{stdout}");
    assert!(
        text(&out.stderr).contains("ended before its finished record"),
        "{}",
        text(&out.stderr)
    );
}

#[test]
fn header_thread_counts_never_size_an_allocation() {
    let widest = format!("{{\"type\":\"pulse\",\"v\":2,\"threads\":{}}}\n", u32::MAX);
    let out = replay("widest", &widest);
    assert!(out.status.success(), "{}", text(&out.stderr));
    assert!(
        text(&out.stdout).contains("4294967295 worker(s)"),
        "{}",
        text(&out.stdout)
    );

    let out = replay(
        "too-wide",
        "{\"type\":\"pulse\",\"v\":2,\"threads\":1099511627776}\n",
    );
    assert_eq!(out.status.code(), Some(2), "{}", text(&out.stdout));
    assert!(
        text(&out.stderr).contains("\"threads\" exceeds u32"),
        "{}",
        text(&out.stderr)
    );
}

#[test]
fn replay_shows_a_flight_dump_with_its_own_anomalies() {
    // Thresholds the CLI's default watchdog would never reach: the dump
    // carries the verdict of the job that wrote it.
    let dump = TelemetryLog {
        job: Some("job-7".to_string()),
        reason: Some("anomaly:slow_site".to_string()),
        anomalies: vec![AnomalyReport {
            kind: AnomalyKind::SlowSite,
            subject: "app-a/0/second".to_string(),
            detail: "site took 2ms against a campaign median of 1ms".to_string(),
            value: 2_000_000,
            threshold: 1_500_000,
        }],
        ..finished_log()
    };
    let out = replay("flight", &dump.to_jsonl());
    let stdout = text(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(
        stdout.starts_with("flight: job job-7 dumped (anomaly:slow_site), 6 event(s)\n"),
        "{stdout}"
    );
    assert!(
        stdout.contains("[slow_site] app-a/0/second: site took 2ms"),
        "{stdout}"
    );
}

/// Sends one request line and reads one response line.
fn request(addr: SocketAddr, line: &str) -> Json {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    writeln!(conn, "{line}").expect("send request");
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("read response");
    Json::parse(reply.trim()).expect("response is JSON")
}

#[test]
fn serve_watch_copies_each_line_as_it_arrives() {
    let daemon = serve(ServeConfig {
        heartbeat: Duration::from_millis(5),
        ..ServeConfig::default()
    })
    .expect("daemon starts");
    let addr = daemon.addr();
    // On one worker the planted stall, the job's last app, runs after
    // every healthy site: the first `site_finished` line comes while
    // the stall still holds the job.
    let reply = request(
        addr,
        r#"{"op":"submit","spec":{"apps":2,"stall_work":2000000},"threads":1}"#,
    );
    let job = reply
        .get("job")
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("submit accepted: {reply}"))
        .to_string();
    let mut watcher = Command::new(env!("CARGO_BIN_EXE_serve"))
        .args(["watch", "--addr", &addr.to_string(), "--job", &job])
        .stdout(Stdio::piped())
        .spawn()
        .expect("serve watch spawns");
    let stdout = watcher.stdout.take().expect("stdout is piped");
    let mut state_at_first_site = None;
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.expect("read serve watch");
        if state_at_first_site.is_none() && line.contains("\"type\":\"site_finished\"") {
            let status = request(addr, &format!(r#"{{"op":"status","job":"{job}"}}"#));
            state_at_first_site = status
                .get("state")
                .and_then(Json::as_str)
                .map(str::to_string);
        }
        last = line;
    }
    assert!(watcher.wait().expect("serve watch exits").success());
    assert_eq!(
        state_at_first_site.as_deref(),
        Some("running"),
        "the first site_finished line must arrive while the job runs"
    );
    assert!(last.contains("\"type\":\"finished\""), "{last}");

    let reply = request(addr, r#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    daemon.join();
}
