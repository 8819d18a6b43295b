//! End-to-end tests of the `nfa-count` binary: every method flag, the
//! enumerate/dot modes, and the error paths, driven through the real
//! executable (`CARGO_BIN_EXE_nfa-count`).

mod common;
use common::{run, write_fixture};

/// A two-variable parity program: accepts exactly `00` and `11`.
const PARITY_ROBP: &str = "\
alphabet 01
depth 2
levels 0 1 1 2
source 0
accepting 3
edge 0 0 1
edge 0 1 2
edge 1 0 3
edge 2 1 3
";

#[test]
fn robp_subcommand_counts_samples_and_crosschecks() {
    let path = write_fixture("parity.robp", PARITY_ROBP);
    let file = path.to_str().expect("utf-8 path");
    let args = ["robp", "--file", file, "--exact", "--sample", "3", "--seed", "5"];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate |L(P)|"), "{stdout}");
    assert!(stdout.contains("exact    |L(P)| = 2"), "{stdout}");
    // Every sample is one of the two accepted words.
    for line in stdout.lines().skip_while(|l| !l.starts_with("samples:")).skip(1) {
        let word = line.trim();
        assert!(word == "00" || word == "11", "bad sample {word:?}: {stdout}");
    }
    // Threaded run agrees on this tiny deterministic program's estimate.
    let (t_stdout, t_stderr, t_ok) =
        run(&["robp", "--file", file, "--threads", "2", "--seed", "5"]);
    assert!(t_ok, "stderr: {t_stderr}");
    assert!(t_stdout.contains("estimate |L(P)|"), "{t_stdout}");
}

#[test]
fn robp_subcommand_rejects_missing_and_bad_input() {
    let (_, stderr, ok) = run(&["robp"]);
    assert!(!ok, "robp without --file must fail");
    assert!(stderr.contains("--file"), "{stderr}");
    let bad = write_fixture("bad.robp", "alphabet 01\ndepth 1\nlevels 0 9\n");
    let (_, _, ok) = run(&["robp", "--file", bad.to_str().unwrap()]);
    assert!(!ok, "malformed program must fail");
}

#[test]
fn fpras_count_with_exact_crosscheck() {
    let (stdout, stderr, ok) = run(&["--regex", "1(0|1)*", "-n", "12", "--exact", "--seed", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate |L(A_12)|"), "{stdout}");
    // Exactly half of all length-12 words start with 1.
    assert!(stdout.contains("exact    |L(A_12)| = 2048"), "{stdout}");
}

#[test]
fn stats_flag_reports_batching_counters() {
    let args = ["--regex", "(0|1)*11(0|1)*", "-n", "10", "--stats", "--seed", "7"];
    let (stdout, stderr, ok) = run(&args);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("batch groups formed"), "{stdout}");
    assert!(stdout.contains("batch cells deduped"), "{stdout}");
    let grab = |key: &str| -> u64 {
        stdout
            .lines()
            .find(|l| l.trim_start().starts_with(key))
            .and_then(|l| l.rsplit(' ').next())
            .and_then(|v| v.parse().ok())
            .unwrap_or_else(|| panic!("missing {key} in {stdout}"))
    };
    assert!(grab("batch cells deduped") > 0, "dedup must fire on contains-11");
    // The memo/sharing layers (D9) report through the same surface.
    assert!(stdout.contains("memo snapshots"), "{stdout}");
    assert!(grab("share pre-estimated") > 0, "sharing must fire on contains-11");
    assert!(grab("share pre-est hits") > 0, "pre-estimates must be consumed");
    // The executor layer (D10) reports through the same surface; a
    // serial run never touches the pool.
    assert!(stdout.contains("pool parallel passes"), "{stdout}");
    assert!(stdout.contains("pool steals"), "{stdout}");
    assert_eq!(grab("pool parallel passes"), 0, "serial runs have no pool");
}

#[test]
fn stats_and_trace_out_are_fpras_only() {
    for flags in [&["--stats"][..], &["--trace-out", "unused.jsonl"][..]] {
        let mut args = vec!["--regex", "1*", "-n", "8", "--method", "dp"];
        args.extend_from_slice(flags);
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "{flags:?} with --method dp must be a usage error");
        assert!(stderr.contains("require --method fpras"), "{stderr}");
    }
}

#[test]
fn work_sharing_flags_no_longer_exist() {
    // Batching, sharing and the steal chunk are fixed engine behaviour,
    // not options.
    for flags in [&["--no-batch"][..], &["--no-share"][..], &["--steal-chunk", "4"][..]] {
        let mut args = vec!["--regex", "1*", "-n", "8"];
        args.extend_from_slice(flags);
        let (_, stderr, ok) = run(&args);
        assert!(!ok, "{flags:?} must be rejected");
        assert!(stderr.contains("unknown argument"), "{stderr}");
    }
}

#[test]
fn bdd_method_is_exact() {
    let (stdout, _, ok) = run(&["--regex", "1(0|1)*", "-n", "16", "--method", "bdd"]);
    assert!(ok);
    assert!(stdout.contains("exact |L(A_16)| = 32768"), "{stdout}");
}

#[test]
fn dp_method_is_exact() {
    let (stdout, _, ok) = run(&["--regex", "(0|1)*", "-n", "10", "--method", "dp"]);
    assert!(ok);
    assert!(stdout.contains("exact |L(A_10)| = 1024"), "{stdout}");
}

#[test]
fn path_is_method_reports_variance() {
    let (stdout, stderr, ok) =
        run(&["--regex", "1(0|1)*", "-n", "10", "--method", "path-is", "--seed", "5"]);
    assert!(ok);
    assert!(stdout.contains("estimate |L(A_10)|"), "{stdout}");
    assert!(stderr.contains("rel. std. error"), "{stderr}");
}

#[test]
fn threaded_fpras_samples() {
    let (stdout, _, ok) = run(&[
        "--regex",
        "1(0|1)*",
        "-n",
        "10",
        "--method",
        "fpras",
        "--threads",
        "2",
        "--sample",
        "3",
    ]);
    assert!(ok);
    assert!(stdout.contains("samples:"), "{stdout}");
    // Each sampled line is a 10-symbol binary word starting with 1.
    let words: Vec<&str> = stdout
        .lines()
        .skip_while(|l| !l.contains("samples:"))
        .skip(1)
        .map(str::trim)
        .filter(|l| !l.is_empty())
        .collect();
    assert_eq!(words.len(), 3);
    for w in words {
        assert_eq!(w.len(), 10, "{w}");
        assert!(w.starts_with('1'), "{w}");
    }
}

#[test]
fn thread_count_does_not_change_cli_output() {
    // --threads selects the engine's Deterministic policy: stdout must
    // depend only on the seed, never on the worker count.
    let base = ["--regex", "1(0|1)*1", "-n", "12", "--method", "fpras", "--seed", "13"];
    let with = |t: &str| {
        let mut args = base.to_vec();
        args.extend_from_slice(&["--threads", t]);
        let (stdout, stderr, ok) = run(&args);
        assert!(ok, "stderr: {stderr}");
        stdout
    };
    let one = with("1");
    assert_eq!(one, with("2"));
    assert_eq!(one, with("8"));
}

#[test]
fn parallel_alias_still_accepted() {
    let (stdout, stderr, ok) =
        run(&["--regex", "1(0|1)*", "-n", "8", "--method", "parallel", "--seed", "3"]);
    assert!(ok, "stderr: {stderr}");
    assert!(stdout.contains("estimate |L(A_8)|"), "{stdout}");
    assert!(stderr.contains("deprecated"), "{stderr}");
}

#[test]
fn enumerate_lists_words() {
    let (stdout, _, ok) = run(&["--regex", "1*", "-n", "4", "--enumerate", "5", "--method", "dp"]);
    assert!(ok);
    assert!(stdout.contains("first 1 word(s)"), "{stdout}");
    assert!(stdout.contains("1111"), "{stdout}");
}

#[test]
fn dot_export_is_graphviz() {
    let (stdout, _, ok) = run(&["--regex", "01", "-n", "2", "--dot"]);
    assert!(ok);
    assert!(stdout.starts_with("digraph"), "{stdout}");
}

#[test]
fn bad_usage_fails_fast() {
    let (_, stderr, ok) = run(&["--regex", "1*"]); // missing -n
    assert!(!ok);
    assert!(stderr.contains("usage:"), "{stderr}");

    let (_, stderr, ok) = run(&["--regex", "1*", "-n", "4", "--method", "quantum"]);
    assert!(!ok);
    assert!(stderr.contains("unknown method"), "{stderr}");

    let (_, stderr, ok) = run(&["--regex", "((", "-n", "4"]);
    assert!(!ok);
    assert!(stderr.contains("cannot compile regex"), "{stderr}");
}
