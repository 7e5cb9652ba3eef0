//! Pins the work counters `gpd detect --stats` prints for a sliced CNF.
//!
//! Each question runs in its own `gpd` process, so the process-global
//! counters hold that one detection's work and nothing else. The
//! expected lines are the ones the per-event slice build printed before
//! the chain walk replaced it: the slice reads exactly one clock row per
//! event, charges one meter node per event, and finds the same classes.

use std::path::PathBuf;
use std::process::Command;

fn gpd(args: &[&str]) -> String {
    let out = Command::new(env!("CARGO_BIN_EXE_gpd"))
        .args(args)
        .output()
        .expect("spawn gpd");
    assert!(out.status.success(), "gpd {args:?}: {out:?}");
    String::from_utf8(out.stdout).expect("utf-8 output")
}

/// `gpd simulate mutex --n 6 --rounds 3 --seed 7`: 222 events, 37 per
/// process.
fn mutex_trace() -> PathBuf {
    let path = std::env::temp_dir().join(format!("gpd-slice-pin-{}.trace", std::process::id()));
    let p = path.to_str().unwrap();
    gpd(&[
        "simulate", "mutex", "--n", "6", "--rounds", "3", "--seed", "7", "-o", p,
    ]);
    path
}

fn line<'a>(out: &'a str, prefix: &str) -> &'a str {
    out.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {out:?}"))
}

#[test]
fn sliced_cnf_stats_lines_are_pinned() {
    let path = mutex_trace();
    let trace = path.to_str().unwrap();
    // Debug builds also check that a witness cut is consistent, which
    // reads the clock row of each of its frontier events.
    let witness_check = |events: u64| if cfg!(debug_assertions) { events } else { 0 };
    let cases = [
        // (predicate, extra flags, verdict, slice classes, clock-row
        // reads, budget line)
        (
            "cnf in_cs@0 & in_cs@2 | in_cs@3",
            &[][..],
            "Possibly(cnf in_cs@0 & in_cs@2 | in_cs@3): false",
            74,
            222,
            None,
        ),
        (
            "cnf requesting@1 & requesting@2 | in_cs@3",
            &[][..],
            "Possibly(cnf requesting@1 & requesting@2 | in_cs@3): true",
            204,
            222 + witness_check(2),
            None,
        ),
        // Budgeted: two fixpoint nodes for the window plus one per event.
        (
            "cnf in_cs@0 & in_cs@2 | in_cs@3",
            &["--max-nodes", "100000"][..],
            "Possibly(cnf in_cs@0 & in_cs@2 | in_cs@3): false",
            74,
            222,
            Some("budget stats: 225 nodes explored"),
        ),
    ];
    for (pred, flags, verdict, classes, reads, budget) in cases {
        let mut args = vec!["detect", trace, "--pred", pred, "--stats"];
        args.extend_from_slice(flags);
        let out = gpd(&args);
        assert_eq!(out.lines().next(), Some(verdict), "{out}");
        assert_eq!(
            line(&out, "slice stats:"),
            format!("slice stats: 222 nodes before, {classes} after"),
            "{pred}"
        );
        assert_eq!(
            line(&out, "kernel stats:"),
            format!(
                "kernel stats: {reads} clock-row reads, 0 cut-successor allocations, \
                 0 vector-clock allocations"
            ),
            "{pred}: one clock-row read per event"
        );
        if let Some(budget) = budget {
            assert_eq!(line(&out, "budget stats:"), budget, "{pred}");
        }
    }
    // A node cap that trips inside the slice build: the build stops at
    // the same node and the unsliced engine answers with what is left.
    let out = gpd(&[
        "detect",
        trace,
        "--pred",
        "cnf in_cs@0 & in_cs@2 | in_cs@3",
        "--stats",
        "--max-nodes",
        "100",
    ]);
    assert_eq!(
        line(&out, "kernel stats:"),
        "kernel stats: 98 clock-row reads, 0 cut-successor allocations, \
         0 vector-clock allocations"
    );
    assert_eq!(
        line(&out, "slice stats:"),
        "slice stats: 0 nodes before, 0 after"
    );
    assert_eq!(
        line(&out, "budget stats:"),
        "budget stats: 101 nodes explored"
    );
    std::fs::remove_file(&path).ok();
}
