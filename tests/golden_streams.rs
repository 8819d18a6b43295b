//! Golden-stream regression fixtures.
//!
//! The engine's whole bit-identity discipline (one estimate per shared
//! frontier, thread-count invariance, session ≡ fresh) is
//! anchored to concrete RNG streams: per-cell SplitMix64 streams under
//! `Deterministic`, one caller stream under `Serial`, and the
//! frontier-keyed union streams both share. A representation refactor
//! (say, interning frontiers or reordering a loop) can silently shift
//! one of those streams and still pass every *statistical* test — the
//! estimates stay accurate, they are just different numbers.
//!
//! These fixtures pin the exact output bits of a small `(nfa, params,
//! seed)` matrix for the `Serial` policy and for `Deterministic` at
//! threads 1/2/8. The pinned values were recorded from the pre-intern
//! engine (PR 5); any change to them is a *stream break* and needs an
//! explicit decision, not a rerecord-and-move-on.
//!
//! To rerecord after an intentional stream change:
//! `GOLDEN_RECORD=1 cargo test --test golden_streams -- --nocapture`
//! and paste the printed table over `GOLDEN`.
//!
//! Estimates here stay far inside `f64` range (n ≤ 10, k = 2), so
//! `estimate.to_f64().to_bits()` is an exact fingerprint.

use fpras_automata::robp::Robp;
use fpras_core::{run_parallel, FprasRun, JsonlSink, Params};
use fpras_workloads::{families, random_robp, RandomRobpConfig};
use rand::{rngs::SmallRng, SeedableRng};

/// The fixture matrix: automaton constructor, label, and word length.
fn matrix() -> Vec<(&'static str, fpras_automata::Nfa, usize)> {
    vec![
        ("contains-11", families::contains_substring(&[1, 1]), 10),
        ("contains-101", families::contains_substring(&[1, 0, 1]), 9),
        ("ones-mod-3", families::ones_mod_k(3), 9),
        ("4th-from-end", families::kth_symbol_from_end(4), 8),
    ]
}

/// One pinned observation: family label, seed, policy label, exact bits
/// of the final estimate as `f64`.
const GOLDEN: &[(&str, u64, &str, u64)] = &[
    ("contains-11", 7, "serial", 4650946615226167820),
    ("contains-11", 7, "det", 4650523677361334194),
    ("contains-11", 99, "serial", 4650621341773058339),
    ("contains-11", 99, "det", 4650880040781815456),
    ("contains-101", 7, "serial", 4644246466317442312),
    ("contains-101", 7, "det", 4644401687708306237),
    ("contains-101", 99, "serial", 4644225917658009212),
    ("contains-101", 99, "det", 4644182837809465614),
    ("ones-mod-3", 7, "serial", 4640185359819341824),
    ("ones-mod-3", 7, "det", 4640185359819341824),
    ("ones-mod-3", 99, "serial", 4640185359819341824),
    ("ones-mod-3", 99, "det", 4640185359819341824),
    ("4th-from-end", 7, "serial", 4638707616191610880),
    ("4th-from-end", 7, "det", 4638707616191610880),
    ("4th-from-end", 99, "serial", 4638707616191610880),
    ("4th-from-end", 99, "det", 4638707616191610880),
];

fn serial_estimate(nfa: &fpras_automata::Nfa, n: usize, seed: u64) -> u64 {
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    let mut rng = SmallRng::seed_from_u64(seed);
    FprasRun::run(nfa, n, &params, &mut rng).unwrap().estimate().to_f64().to_bits()
}

fn det_estimate(nfa: &fpras_automata::Nfa, n: usize, seed: u64, threads: usize) -> u64 {
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
    run_parallel(nfa, n, &params, seed, threads).unwrap().estimate().to_f64().to_bits()
}

#[test]
fn golden_streams_match_pinned_bits() {
    let record = std::env::var("GOLDEN_RECORD").is_ok();
    let mut observed: Vec<(String, u64, &'static str, u64)> = Vec::new();
    for (label, nfa, n) in matrix() {
        for seed in [7u64, 99] {
            observed.push((label.to_string(), seed, "serial", serial_estimate(&nfa, n, seed)));
            let t1 = det_estimate(&nfa, n, seed, 1);
            let t2 = det_estimate(&nfa, n, seed, 2);
            let t8 = det_estimate(&nfa, n, seed, 8);
            assert_eq!(t1, t2, "{label} seed {seed}: threads 1 vs 2 diverge");
            assert_eq!(t1, t8, "{label} seed {seed}: threads 1 vs 8 diverge");
            observed.push((label.to_string(), seed, "det", t1));
        }
    }
    if record {
        println!("const GOLDEN: &[(&str, u64, &str, u64)] = &[");
        for (label, seed, policy, bits) in &observed {
            println!("    (\"{label}\", {seed}, \"{policy}\", {bits}),");
        }
        println!("];");
        return;
    }
    assert_eq!(observed.len(), GOLDEN.len(), "fixture matrix drifted from the pinned table");
    for ((label, seed, policy, bits), (g_label, g_seed, g_policy, g_bits)) in
        observed.iter().zip(GOLDEN)
    {
        assert_eq!((label.as_str(), *seed, *policy), (*g_label, *g_seed, *g_policy));
        assert_eq!(
            bits, g_bits,
            "{label} seed {seed} policy {policy}: estimate bits shifted \
             ({bits} vs pinned {g_bits}) — an RNG stream moved"
        );
    }
}

/// The observability invariant as a golden-stream test (D15): rerunning
/// the pinned NFA matrix with a live trace sink and stats collection
/// enabled must reproduce the exact pinned bits. Tracing reads the
/// computation — if enabling it shifts even one estimate bit, an RNG
/// stream was touched from an observability hook.
#[test]
fn golden_streams_survive_tracing() {
    if std::env::var("GOLDEN_RECORD").is_ok() {
        return; // recording runs own the table; nothing to rerecord here
    }
    let path =
        std::env::temp_dir().join(format!("fpras-golden-trace-{}.jsonl", std::process::id()));
    let path_str = path.to_str().expect("utf-8 temp path");
    fpras_core::obs::install_sink(Box::new(JsonlSink::create(path_str).expect("trace file")));
    let mut observed: Vec<(String, u64, &'static str, u64)> = Vec::new();
    for (label, nfa, n) in matrix() {
        for seed in [7u64, 99] {
            observed.push((label.to_string(), seed, "serial", serial_estimate(&nfa, n, seed)));
            observed.push((label.to_string(), seed, "det", det_estimate(&nfa, n, seed, 2)));
        }
    }
    fpras_core::obs::take_sink();
    for ((label, seed, policy, bits), (.., g_bits)) in observed.iter().zip(GOLDEN) {
        assert_eq!(
            bits, g_bits,
            "{label} seed {seed} policy {policy}: tracing shifted the estimate bits"
        );
    }
    // And the trace itself is non-empty, line-delimited JSON objects.
    let trace = std::fs::read_to_string(&path).expect("trace file readable");
    let _ = std::fs::remove_file(&path);
    assert!(!trace.is_empty(), "sink saw no events");
    for line in trace.lines() {
        assert!(line.starts_with("{\"ev\": \""), "not a trace object: {line}");
        assert!(line.ends_with('}'), "unterminated object: {line}");
    }
}

/// The nROBP fixture matrix: two seeded random programs spanning shape
/// parameters and one robp-encoded NFA slice. These streams were
/// recorded when the `RobpSubstrate` front-end shipped; they pin the
/// substrate's set contents (reach sets, predecessor frontiers) the same
/// way the NFA table pins the unrolling's.
fn robp_matrix() -> Vec<(&'static str, Robp)> {
    vec![
        (
            "robp-rand-8x4",
            random_robp(&RandomRobpConfig::default(), &mut SmallRng::seed_from_u64(3)),
        ),
        (
            "robp-rand-6x3-k3",
            random_robp(
                &RandomRobpConfig { depth: 6, width: 3, alphabet: 3, density: 2.0, accepting: 2 },
                &mut SmallRng::seed_from_u64(11),
            ),
        ),
        ("robp-contains-11", Robp::from_nfa(&families::contains_substring(&[1, 1]), 8).unwrap()),
    ]
}

/// Pinned nROBP observations, same shape as [`GOLDEN`].
const GOLDEN_ROBP: &[(&str, u64, &str, u64)] = &[
    ("robp-rand-8x4", 7, "serial", 4641011155659719978),
    ("robp-rand-8x4", 7, "det", 4641211541442034334),
    ("robp-rand-8x4", 99, "serial", 4640995411869113877),
    ("robp-rand-8x4", 99, "det", 4641110039692581988),
    ("robp-rand-6x3-k3", 7, "serial", 4649518868123005944),
    ("robp-rand-6x3-k3", 7, "det", 4649996576775794328),
    ("robp-rand-6x3-k3", 99, "serial", 4649834873716670598),
    ("robp-rand-6x3-k3", 99, "det", 4649545467042715238),
    ("robp-contains-11", 7, "serial", 4641206002967414036),
    ("robp-contains-11", 7, "det", 4641381254353891876),
    ("robp-contains-11", 99, "serial", 4640991106553651699),
    ("robp-contains-11", 99, "det", 4641481652780049242),
];

fn serial_robp_estimate(robp: &Robp, seed: u64) -> u64 {
    let params = Params::practical(0.3, 0.1, robp.num_nodes(), robp.depth());
    let mut rng = SmallRng::seed_from_u64(seed);
    FprasRun::run(robp, robp.depth(), &params, &mut rng).unwrap().estimate().to_f64().to_bits()
}

fn det_robp_estimate(robp: &Robp, seed: u64, threads: usize) -> u64 {
    let params = Params::practical(0.3, 0.1, robp.num_nodes(), robp.depth());
    run_parallel(robp, robp.depth(), &params, seed, threads).unwrap().estimate().to_f64().to_bits()
}

#[test]
fn robp_golden_streams_match_pinned_bits() {
    let record = std::env::var("GOLDEN_RECORD").is_ok();
    let mut observed: Vec<(String, u64, &'static str, u64)> = Vec::new();
    for (label, robp) in robp_matrix() {
        for seed in [7u64, 99] {
            observed.push((label.to_string(), seed, "serial", serial_robp_estimate(&robp, seed)));
            let t1 = det_robp_estimate(&robp, seed, 1);
            let t2 = det_robp_estimate(&robp, seed, 2);
            let t8 = det_robp_estimate(&robp, seed, 8);
            assert_eq!(t1, t2, "{label} seed {seed}: threads 1 vs 2 diverge");
            assert_eq!(t1, t8, "{label} seed {seed}: threads 1 vs 8 diverge");
            observed.push((label.to_string(), seed, "det", t1));
        }
    }
    if record {
        println!("const GOLDEN_ROBP: &[(&str, u64, &str, u64)] = &[");
        for (label, seed, policy, bits) in &observed {
            println!("    (\"{label}\", {seed}, \"{policy}\", {bits}),");
        }
        println!("];");
        return;
    }
    assert_eq!(observed.len(), GOLDEN_ROBP.len(), "fixture matrix drifted from the pinned table");
    for ((label, seed, policy, bits), (g_label, g_seed, g_policy, g_bits)) in
        observed.iter().zip(GOLDEN_ROBP)
    {
        assert_eq!((label.as_str(), *seed, *policy), (*g_label, *g_seed, *g_policy));
        assert_eq!(
            bits, g_bits,
            "{label} seed {seed} policy {policy}: estimate bits shifted \
             ({bits} vs pinned {g_bits}) — an RNG stream moved"
        );
    }
}
