//! Cross-process corpus determinism, through the real `corpus` binary:
//! one process forges and saves a suite, a second process reloads and
//! replays it, and the recorded `ScoreCard` and findings must be
//! byte-identical. A third process runs `diff` over the two recorded
//! runs and must find them clean.

use std::path::PathBuf;
use std::process::Command;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("diode-corpus-xproc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn corpus(root: &PathBuf, args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_corpus"))
        .arg("--root")
        .arg(root)
        .args(args)
        .output()
        .expect("corpus binary runs");
    let stdout = String::from_utf8_lossy(&out.stdout).to_string();
    let stderr = String::from_utf8_lossy(&out.stderr).to_string();
    (out.status.success(), format!("{stdout}{stderr}"))
}

#[test]
fn forge_then_replay_in_separate_processes_is_byte_identical() {
    let root = scratch("roundtrip");

    // Process 1: forge, save, record baseline witnesses.
    let (ok, out) = corpus(&root, &["forge", "--apps", "4", "--json"]);
    assert!(ok, "forge failed:\n{out}");
    assert!(out.contains("\"perfect\":true"), "{out}");
    let suite_id = out
        .split("\"suite_id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("forge output names the suite id")
        .to_string();
    assert!(suite_id.starts_with("suite-"), "{suite_id}");

    // Process 2: reload from disk, replay, compare byte-for-byte.
    let (ok, out) = corpus(&root, &["replay", &suite_id, "--json"]);
    assert!(ok, "replay drifted from the recorded baseline:\n{out}");
    assert!(out.contains("\"scorecard_identical\":true"), "{out}");
    assert!(out.contains("\"findings_identical\":true"), "{out}");
    assert!(out.contains("\"identical\":true"), "{out}");

    // Process 3: diff the two recorded runs; must be clean.
    let (ok, out) = corpus(&root, &["diff", &suite_id, "baseline", "replay", "--json"]);
    assert!(ok, "diff of identical runs must be clean:\n{out}");
    assert!(out.contains("\"clean\":true"), "{out}");

    // Process 4: one worker reproduces the all-cores record.
    let (ok, out) = corpus(
        &root,
        &[
            "replay",
            &suite_id,
            "--threads",
            "1",
            "--label",
            "one-worker",
            "--json",
        ],
    );
    assert!(ok, "one-worker replay drifted:\n{out}");
    assert!(out.contains("\"identical\":true"), "{out}");

    std::fs::remove_dir_all(&root).ok();
}

#[test]
fn grow_is_cross_process_deterministic() {
    let root_a = scratch("grow-a");
    let root_b = scratch("grow-b");

    // Store A: forge 2, grow by 2.
    let (ok, out) = corpus(&root_a, &["forge", "--apps", "2", "--seed", "77", "--json"]);
    assert!(ok, "{out}");
    let (ok, out) = corpus(&root_a, &["grow", "latest", "2", "--json"]);
    assert!(ok, "{out}");
    let grown_id = out
        .split("\"suite_id\":\"")
        .nth(1)
        .and_then(|rest| rest.split('"').next())
        .expect("grow output names the suite id")
        .to_string();

    // Store B: forge 4 in one shot — same content-addressed identity.
    let (ok, out) = corpus(&root_b, &["forge", "--apps", "4", "--seed", "77", "--json"]);
    assert!(ok, "{out}");
    assert!(
        out.contains(&format!("\"suite_id\":\"{grown_id}\"")),
        "grown suite must equal the one-shot suite: {grown_id} vs\n{out}"
    );

    std::fs::remove_dir_all(&root_a).ok();
    std::fs::remove_dir_all(&root_b).ok();
}
