//! The experiment binaries reject the arguments they cannot parse: an
//! unknown flag or a malformed value exits with status 2 and a one-line
//! error on stderr, before the experiment prints or runs anything.

use std::process::Command;

#[test]
fn unknown_flags_and_malformed_values_exit_2_before_running() {
    for argv in [
        &["--trace_out", "x"][..],
        &["--quick=yes"],
        &["--shards", "0x2"],
        &["--serve-hold", "inf"],
        &["--flight", "many"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_fig4_lid_p_approx"))
            .args(argv)
            .output()
            .expect("spawn fig4_lid_p_approx");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{argv:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{argv:?}: the experiment ran");
        assert_eq!(stderr.lines().count(), 1, "{argv:?}: {stderr}");
        assert!(stderr.starts_with("fig4_lid_p_approx: "), "{stderr}");
    }
}
