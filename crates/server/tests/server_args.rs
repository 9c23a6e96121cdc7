//! `histql_server` refuses a command line it does not understand instead
//! of serving with defaults.

use std::process::Command;

fn run(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_histql_server"))
        .args(args)
        .output()
        .expect("spawn histql_server");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn unknown_flags_and_bad_values_print_usage_and_exit_2() {
    for (args, reason) in [
        (&["--bogus"][..], "unknown argument \"--bogus\""),
        (
            &["--toy", "--workers", "x"][..],
            "bad value \"x\" for --workers",
        ),
        (&["--toy", "--addr"][..], "--addr needs a value"),
        (&["--toy", "--wal-sync", "sometimes"][..], "--wal-sync:"),
    ] {
        let (code, stderr) = run(args);
        assert_eq!(code, Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains(reason), "{args:?}: {stderr}");
        assert!(
            stderr.contains("usage: histql_server"),
            "{args:?}: {stderr}"
        );
    }
}
