//! The daemon binary's flags: a malformed value is a usage error (exit
//! 2) before anything binds, never a silent default.

use std::io::Read;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Kills the daemon on drop, so one that wrongly started serving never
/// outlives the test.
struct Daemon(Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Runs `diode-serve` with `args`; returns its exit code and stdout, or
/// `None` when it is still running after 20 s.
fn run_daemon(args: &[&str]) -> Option<(Option<i32>, String)> {
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_diode-serve"))
            .args(["--addr", "127.0.0.1:0", "--no-flight"])
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("diode-serve starts"),
    );
    let deadline = Instant::now() + Duration::from_secs(20);
    let status = loop {
        if let Some(status) = daemon.0.try_wait().expect("poll diode-serve") {
            break status;
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    let mut stdout = String::new();
    daemon
        .0
        .stdout
        .take()
        .expect("stdout is piped")
        .read_to_string(&mut stdout)
        .expect("read stdout");
    Some((status.code(), stdout))
}

#[test]
fn malformed_flag_values_exit_2_without_serving() {
    for args in [["--workers", "x"], ["--slow-factor", "NaN"]] {
        let Some((code, stdout)) = run_daemon(&args) else {
            panic!("diode-serve {args:?} was still running after 20 s");
        };
        assert_eq!(code, Some(2), "diode-serve {args:?}: {stdout}");
        assert!(
            !stdout.contains("listening on"),
            "diode-serve {args:?} served: {stdout}"
        );
    }
}
