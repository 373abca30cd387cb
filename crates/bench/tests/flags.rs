//! A malformed flag value is a usage error: the binary exits 2 with a
//! message naming the flag before it runs anything, instead of silently
//! running the default workload. So is a value too large for the
//! setting it feeds, instead of silently wrapping.

use std::process::Command;

fn assert_usage_error(bin: &str, args: &[&str], flag: &str) {
    let out = Command::new(bin).args(args).output().expect("binary runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(2), "{bin} {args:?}: {stderr}");
    assert!(stderr.contains(flag), "{bin}: {stderr:?} must name {flag}");
}

#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    for (bin, flag, value) in [
        (env!("CARGO_BIN_EXE_table2"), "--samples", "2OO"),
        (env!("CARGO_BIN_EXE_fuzz_compare"), "--trials", "x"),
        (env!("CARGO_BIN_EXE_table1"), "--threads", "x"),
    ] {
        assert_usage_error(bin, &[flag, value], flag);
    }
}

#[test]
fn out_of_range_flag_values_exit_2_naming_the_flag() {
    // 2^32 does not fit the `u32` these settings hold; it used to wrap
    // to 0 (`"site_work":0`, "0 samples per rate column").
    assert_usage_error(
        env!("CARGO_BIN_EXE_synth_campaign"),
        &["--apps", "2", "--site-work", "4294967296", "--json"],
        "--site-work",
    );
    assert_usage_error(
        env!("CARGO_BIN_EXE_table2"),
        &["--samples", "4294967296"],
        "--samples",
    );
}
