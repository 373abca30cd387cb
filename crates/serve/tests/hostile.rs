//! Hostile clients against a real daemon. Each hostile request line gets
//! a typed `400 bad_request`, and the daemon keeps answering afterwards.
//! Without the request limits, the first three lines abort the whole
//! process (a parser stack overflow, then allocations sized by the
//! client). A forge spec over a size cap is refused before any forging.
//! An idle client is disconnected after the request-read timeout instead
//! of pinning a daemon thread.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use diode_obs::Json;
use diode_serve::protocol::REQUEST_READ_TIMEOUT;
use diode_serve::{serve, ServeConfig};

/// Sends one request line and reads one response line.
fn request(addr: SocketAddr, line: &[u8]) -> Json {
    let mut conn = TcpStream::connect(addr).expect("connect to daemon");
    conn.write_all(line).expect("send request");
    conn.write_all(b"\n").expect("send newline");
    let mut reply = String::new();
    BufReader::new(conn)
        .read_line(&mut reply)
        .expect("read response");
    Json::parse(reply.trim()).unwrap_or_else(|e| panic!("reply {reply:?} is not JSON: {e}"))
}

#[test]
fn hostile_request_lines_get_typed_400s_and_the_daemon_survives() {
    let handle = serve(ServeConfig::default()).expect("daemon starts");
    let addr = handle.addr();
    let hostile: [Vec<u8>; 5] = [
        // 10 KB of nesting: the parser used to recurse once per level.
        "[".repeat(10_000).into_bytes(),
        // A watch ring of 2^40 events, allocated up front.
        br#"{"op":"watch","job":"job-1","ring":1099511627776}"#.to_vec(),
        // 2^40 worker threads.
        br#"{"op":"submit","spec":{"apps":1},"threads":1099511627776,"wait":true}"#.to_vec(),
        // A line past the 64 KiB request limit.
        format!(r#"{{"op":"status","pad":"{}"}}"#, "x".repeat(70 * 1024)).into_bytes(),
        // Not UTF-8.
        b"{\"op\":\"status\",\"pad\":\"\xff\xfe\"}".to_vec(),
    ];
    for line in &hostile {
        let reply = request(addr, line);
        let verdict = (
            reply.get("ok").and_then(Json::as_bool),
            reply.get("code").and_then(Json::as_u64),
            reply.get("error").and_then(Json::as_str),
        );
        assert_eq!(
            verdict,
            (Some(false), Some(400), Some("bad_request")),
            "{reply}"
        );
    }
    let status = request(addr, br#"{"op":"status"}"#);
    assert_eq!(status.get("ok"), Some(&Json::Bool(true)), "{status}");
    let reply = request(addr, br#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
}

#[test]
fn oversized_jobs_are_refused_before_forging() {
    let handle = serve(ServeConfig::default()).expect("daemon starts");
    let addr = handle.addr();
    // Each would ask the worker for a forge of 10^12 apps (an allocation
    // failure aborts the process), hours of work, or a work count that
    // used to wrap to 1. None of them may reach the forge.
    for (field, value) in [
        ("apps", 1_000_000_000_000u64),
        ("depth", 1 << 40),
        ("sites", 1 << 40),
        ("seeds_per_app", 1 << 40),
        ("site_work", (1 << 32) + 1),
        ("stall_work", (1 << 32) + 1),
    ] {
        let line = format!(r#"{{"op":"submit","spec":{{"{field}":{value}}},"wait":true}}"#);
        let reply = request(addr, line.as_bytes());
        let verdict = (
            reply.get("code").and_then(Json::as_u64),
            reply.get("error").and_then(Json::as_str),
        );
        assert_eq!(verdict, (Some(400), Some("bad_request")), "{reply}");
        let detail = reply.get("detail").and_then(Json::as_str).unwrap_or("");
        assert!(
            detail.starts_with(&format!("{field} {value} exceeds the limit of ")),
            "{reply}"
        );
    }
    let status = request(addr, br#"{"op":"status"}"#);
    assert_eq!(status.get("ok"), Some(&Json::Bool(true)), "{status}");
    let reply = request(addr, br#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
}

#[test]
fn idle_connection_is_closed_after_the_read_timeout() {
    let handle = serve(ServeConfig::default()).expect("daemon starts");
    let addr = handle.addr();
    let mut idle = TcpStream::connect(addr).expect("connect to daemon");
    let slack = Duration::from_secs(20);
    idle.set_read_timeout(Some(REQUEST_READ_TIMEOUT + slack))
        .expect("client read timeout");
    let start = Instant::now();
    let mut buf = [0u8; 64];
    // The client sends nothing: the daemon must hang up without a reply.
    let read = idle
        .read(&mut buf)
        .expect("daemon closes, not the client timeout");
    let waited = start.elapsed();
    assert_eq!(read, 0, "expected EOF, got {:?}", &buf[..read]);
    assert!(
        waited < REQUEST_READ_TIMEOUT + slack,
        "idle connection held for {waited:?}"
    );
    assert!(
        waited + Duration::from_secs(1) >= REQUEST_READ_TIMEOUT,
        "closed after {waited:?}, before the client had its timeout"
    );
    let status = request(addr, br#"{"op":"status"}"#);
    assert_eq!(status.get("ok"), Some(&Json::Bool(true)), "{status}");
    let reply = request(addr, br#"{"op":"shutdown"}"#);
    assert_eq!(reply.get("ok").and_then(Json::as_bool), Some(true));
    handle.join();
}
