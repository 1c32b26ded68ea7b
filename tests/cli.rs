//! Integration tests of the `spiffi-vod` command-line interface: the
//! binary is built by cargo and driven as a subprocess.

use std::process::{Command, Output};

fn cli(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_spiffi-vod"))
        .args(args)
        .output()
        .expect("failed to launch spiffi-vod")
}

fn small_args() -> Vec<&'static str> {
    vec![
        "--nodes",
        "1",
        "--disks-per-node",
        "2",
        "--videos",
        "16",
        "--video-secs",
        "120",
        "--server-mem-mb",
        "64",
        "--terminals",
        "8",
        "--stagger-secs",
        "5",
        "--warmup-secs",
        "10",
        "--measure-secs",
        "30",
    ]
}

#[test]
fn help_prints_usage() {
    let out = cli(&["--help"]);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("USAGE"));
    assert!(text.contains("simulate"));
    assert!(text.contains("capacity"));
}

#[test]
fn simulate_prints_report() {
    let mut args = vec!["simulate"];
    args.extend(small_args());
    let out = cli(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(text.contains("terminals=8"), "{text}");
    assert!(text.contains("glitches=0"), "{text}");
    assert!(text.contains("io latency"), "{text}");
}

#[test]
fn simulate_csv_is_machine_readable() {
    let mut args = vec!["simulate"];
    args.extend(small_args());
    args.push("--csv");
    let out = cli(&args);
    assert!(out.status.success());
    let text = String::from_utf8_lossy(&out.stdout);
    let lines: Vec<&str> = text.trim().lines().collect();
    assert_eq!(lines.len(), 2, "header + one data row: {text}");
    let header_cols = lines[0].split(',').count();
    let data_cols = lines[1].split(',').count();
    assert_eq!(header_cols, data_cols);
    assert!(lines[1].starts_with("8,0,"), "{text}");
}

#[test]
fn capacity_finds_a_knee() {
    let mut args = vec!["capacity"];
    args.extend(small_args());
    args.extend(["--lo", "2", "--hi", "60", "--step", "4", "--csv"]);
    let out = cli(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let text = String::from_utf8_lossy(&out.stdout);
    let data = text.trim().lines().nth(1).expect("data row");
    let max: u32 = data.split(',').next().unwrap().parse().unwrap();
    assert!(
        (4..=60).contains(&max),
        "capacity {max} out of band: {text}"
    );
}

#[test]
fn scheduler_and_placement_flags_parse() {
    let mut args = vec!["simulate"];
    args.extend(small_args());
    args.extend([
        "--scheduler",
        "real-time:3:4",
        "--policy",
        "love-prefetch",
        "--prefetch",
        "delayed:4:8",
        "--placement",
        "group:2",
        "--access",
        "zipf:1.5",
    ]);
    let out = cli(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}

#[test]
fn bad_flags_are_rejected_with_nonzero_exit() {
    let out = cli(&["simulate", "--scheduler", "quantum"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown scheduler"), "{err}");

    let out = cli(&["teleport"]);
    assert!(!out.status.success());

    let out = cli(&["simulate", "--stripe-kb", "0"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("invalid configuration"), "{err}");

    // A malformed capacity search is refused before any probe runs: zero
    // replications used to pass every probe vacuously, and an inverted
    // bracket or a zero step used to panic with a backtrace.
    for bad in [
        &["--reps", "0"][..],
        &["--step", "0"],
        &["--lo", "50", "--hi", "10"],
    ] {
        let mut args = vec!["capacity", "--nodes", "1", "--disks-per-node", "1"];
        args.extend(bad);
        let out = cli(&args);
        assert_eq!(out.status.code(), Some(2), "{bad:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("invalid capacity search"), "{bad:?}: {err}");
        assert!(!err.contains("panicked"), "{bad:?}: {err}");
    }
}

#[test]
fn retired_env_knobs_exit_2() {
    // The probe-timeline and event-kernel switches are gone; setting one
    // must fail loudly rather than be silently ignored.
    for knob in ["SPIFFI_SNAPSHOT", "SPIFFI_CAL_KERNEL"] {
        let out = Command::new(env!("CARGO_BIN_EXE_spiffi-vod"))
            .args(["capacity", "--nodes", "1", "--disks-per-node", "1"])
            .env(knob, "1")
            .output()
            .expect("failed to launch spiffi-vod");
        assert_eq!(out.status.code(), Some(2), "{knob}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains(knob), "{knob}: {err}");
    }
}

#[test]
fn pauses_and_piggyback_flags_work() {
    let mut args = vec!["simulate"];
    args.extend(small_args());
    args.extend(["--pauses", "--piggyback-secs", "20", "--aligned-starts"]);
    let out = cli(&args);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
}
