//! The `synth_campaign` binary's JSON contract: cache hit/miss counters
//! and the recall gate must be present in `--json` output, and a traced
//! run must fold through the `profile` bin.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_synth_campaign"))
        .args(args)
        .output()
        .expect("synth_campaign runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).to_string(),
    )
}

#[test]
fn json_output_carries_cache_counters_and_recall_gate() {
    let (ok, out) = run(&["--apps", "2", "--json"]);
    assert!(ok, "{out}");
    for needle in [
        "\"cache\":{\"hits\":",
        "\"misses\":",
        "\"hit_rate\":",
        "\"gate\":{\"min_recall\":1,\"achieved_recall\":",
        "\"passed\":true",
    ] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }
}

#[test]
fn min_recall_flag_gates_and_reports() {
    // A lenient gate still passes and prints the achieved recall.
    let (ok, out) = run(&["--apps", "2", "--min-recall", "0.5"]);
    assert!(ok, "{out}");
    assert!(
        out.contains("Achieved recall 1.000 against gate 0.500: PASS"),
        "{out}"
    );
}

#[test]
fn trace_profile_flow_from_campaign_to_profile_bin() {
    let dir = std::env::temp_dir().join(format!("diode-obs-cli-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("trace.jsonl");
    let folded = dir.join("profile.folded");

    // A traced campaign emits the JSONL trace and an inline profile.
    let (ok, out) = run(&[
        "--apps",
        "3",
        "--trace",
        trace.to_str().unwrap(),
        "--profile",
        "--json",
    ]);
    assert!(ok, "{out}");
    assert!(
        out.contains("\"profile\":{\"table\":\"obs_profile\""),
        "{out}"
    );
    assert!(out.contains("\"phases\":["), "{out}");
    let text = std::fs::read_to_string(&trace).expect("trace written");
    assert!(text.starts_with("{\"type\":\"trace\",\"v\":1"), "{text}");

    // The profile bin folds it, passes the phase gate, and writes
    // collapsed stacks.
    let profile = |args: &[&str]| {
        let out = Command::new(env!("CARGO_BIN_EXE_profile"))
            .args(args)
            .output()
            .expect("profile runs");
        (
            out.status.success(),
            String::from_utf8_lossy(&out.stdout).to_string(),
            String::from_utf8_lossy(&out.stderr).to_string(),
        )
    };
    let (ok, out, err) = profile(&[
        "--trace",
        trace.to_str().unwrap(),
        "--json",
        "--collapsed",
        folded.to_str().unwrap(),
        "--require-phases",
        "identify,extract,solve,enforce,interp_run",
    ]);
    assert!(ok, "stdout: {out}\nstderr: {err}");
    for needle in [
        "\"table\":\"obs_profile\"",
        "\"phase\":\"solve\"",
        "\"top_sites\":[",
        "\"counters\":{",
        "\"solver.queries\":",
        "\"solver.conflicts\":",
        "\"solver.propagations\":",
    ] {
        assert!(out.contains(needle), "missing {needle} in:\n{out}");
    }
    let stacks = std::fs::read_to_string(&folded).expect("collapsed stacks written");
    let line = stacks.lines().next().expect("nonempty stacks");
    assert!(
        line.rsplit_once(' ').is_some_and(|(frames, weight)| {
            frames.contains(';') && weight.parse::<u64>().is_ok()
        }),
        "not a collapsed-stack line: {line}"
    );

    // A trace missing a required phase fails the gate with exit 1.
    let sparse = dir.join("sparse.jsonl");
    std::fs::write(
        &sparse,
        "{\"type\":\"trace\",\"v\":1}\n\
         {\"type\":\"span\",\"phase\":\"solve\",\"app\":\"a\",\"seed\":0,\
         \"seq\":0,\"start_ns\":0,\"dur_ns\":10}\n",
    )
    .unwrap();
    let (ok, _, err) = profile(&[
        "--trace",
        sparse.to_str().unwrap(),
        "--require-phases",
        "solve,identify",
    ]);
    assert!(!ok, "gate must fail for an absent phase");
    assert!(
        err.contains("phase gate FAILED") && err.contains("identify"),
        "{err}"
    );
    std::fs::remove_dir_all(&dir).ok();
}
