//! A malformed flag value is a usage error: the binary exits 2 with a
//! message naming the flag before it runs anything, instead of silently
//! running the default workload.

use std::process::Command;

#[test]
fn malformed_flag_values_exit_2_naming_the_flag() {
    for (bin, flag, value) in [
        (env!("CARGO_BIN_EXE_table2"), "--samples", "2OO"),
        (env!("CARGO_BIN_EXE_fuzz_compare"), "--trials", "x"),
        (env!("CARGO_BIN_EXE_table1"), "--threads", "x"),
    ] {
        let out = Command::new(bin)
            .args([flag, value])
            .output()
            .expect("binary runs");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{bin} {flag} {value}: {stderr}");
        assert!(stderr.contains(flag), "{bin}: {stderr:?} must name {flag}");
    }
}
