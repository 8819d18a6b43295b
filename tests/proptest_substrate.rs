//! Property-based differential tests for the substrate-generic engine
//! (DESIGN.md D14): the nROBP front-end against brute-force enumeration
//! and the exact counters, over a seeded stream of random programs.
//!
//! No property-testing crate is vendored, so the "properties" are
//! classic seeded sweeps: every case derives its shape and seed from the
//! case index, so a failure message identifies the exact program for
//! replay. Two suites:
//!
//! * `random_robp_estimates_track_brute_force` — ≥ 50 random small
//!   programs; the engine's estimate must track the brute-force exact
//!   count within the per-run ε contract, with a Chernoff–Hoeffding
//!   envelope on the failure count (the same discipline as
//!   `statistical_eps_delta.rs`) so a correct estimator flakes with
//!   negligible probability while a broken substrate fails fast.
//! * `robp_encoded_nfas_agree_with_every_counter` — random NFAs pushed
//!   through `Robp::from_nfa` must (a) preserve the slice **exactly**
//!   under every exact counter (DP on the node graph vs DP and BDD on
//!   the automaton), and (b) estimate within the shared tolerance of
//!   the NFA engine path run on the original automaton.

use fpras_automata::exact::{brute_force_count, count_exact};
use fpras_automata::robp::Robp;
use fpras_bdd::count_slice;
use fpras_core::{run_parallel, FprasRun, Params, UniformGenerator};
use fpras_workloads::{random_nfa, random_robp, RandomNfaConfig, RandomRobpConfig};
use rand::{rngs::SmallRng, SeedableRng};

/// Harness false-failure budget (mirrors `statistical_eps_delta.rs`).
const ALPHA: f64 = 1e-6;

/// Hoeffding allowance: largest failure count a correct `δ`-bounded
/// estimator produces over `trials` runs, except with probability ≤
/// [`ALPHA`].
fn max_failures(trials: usize, delta: f64) -> usize {
    let n = trials as f64;
    let t = (n * (1.0 / ALPHA).ln() / 2.0).sqrt();
    (n * delta + t).floor() as usize
}

/// The case grid: 54 random programs sweeping depth, width, alphabet,
/// density, and accepting-node count. Shapes stay small enough that
/// brute force (`k^depth` membership checks) is instant.
fn case_config(case: u64) -> RandomRobpConfig {
    RandomRobpConfig {
        depth: 3 + (case % 6) as usize,          // 3..=8
        width: 1 + (case % 4) as usize,          // 1..=4
        alphabet: 2 + (case % 2) as usize,       // 2..=3
        density: 1.0 + (case % 3) as f64 * 0.75, // 1.0, 1.75, 2.5
        accepting: 1 + (case % 2) as usize,      // 1..=2 (≤ width since width ≥ 2 when case odd)
    }
}

#[test]
fn random_robp_estimates_track_brute_force() {
    const CASES: u64 = 54;
    const EPS: f64 = 0.35;
    const DELTA: f64 = 0.1;
    let allowed = max_failures(CASES as usize, DELTA);
    assert!(allowed < CASES as usize, "vacuous envelope — raise the case count");
    let mut failures = 0usize;
    for case in 0..CASES {
        let config = case_config(case);
        let robp = random_robp(&config, &mut SmallRng::seed_from_u64(1000 + case));
        let exact = brute_force_count(&robp.to_nfa(), robp.depth()).to_f64();
        assert!(exact >= 1.0, "case {case} ({config:?}): backbone guarantees non-emptiness");
        // Brute force and the exact DP must agree bit-for-bit — the
        // cheap sanity anchor for the oracle itself.
        assert_eq!(
            brute_force_count(&robp.to_nfa(), robp.depth()),
            count_exact(&robp.to_nfa(), robp.depth()).expect("exact DP"),
            "case {case} ({config:?}): brute force vs exact DP"
        );
        let params = Params::practical(EPS, DELTA, robp.num_nodes(), robp.depth());
        // Alternate policies across cases so both engine paths share
        // the envelope; the estimate contract is policy-independent.
        let est = if case % 2 == 0 {
            let mut rng = SmallRng::seed_from_u64(5000 + case);
            FprasRun::run(&robp, robp.depth(), &params, &mut rng).expect("run").estimate().to_f64()
        } else {
            run_parallel(&robp, robp.depth(), &params, 5000 + case, 2)
                .expect("run")
                .estimate()
                .to_f64()
        };
        let err = (est - exact).abs() / exact;
        if err > EPS {
            failures += 1;
        }
        // Catastrophic misses are a bug regardless of the envelope.
        assert!(
            err < 1.0,
            "case {case} ({config:?}): estimate {est} vs brute-force {exact} (err {err})"
        );
    }
    assert!(
        failures <= allowed,
        "{failures}/{CASES} cases failed ε = {EPS} (allowed {allowed} at δ = {DELTA}, α = {ALPHA})"
    );
}

#[test]
fn robp_encoded_nfas_agree_with_every_counter() {
    for case in 0..10u64 {
        let config = RandomNfaConfig {
            states: 3 + (case % 5) as usize,
            alphabet: 2,
            density: 1.3 + (case % 3) as f64 * 0.5,
            accepting: 1 + (case % 2) as usize,
        };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(7700 + case));
        let n = 5 + (case % 4) as usize;
        let label = format!("case {case} ({config:?}, n={n})");
        let exact_nfa = count_exact(&nfa, n).expect("exact DP");
        let robp = match Robp::from_nfa(&nfa, n) {
            Ok(robp) => robp,
            Err(_) => {
                // The encoder refuses empty slices; the refusal must be
                // truthful.
                assert!(exact_nfa.to_f64() == 0.0, "{label}: refusal on a non-empty slice");
                continue;
            }
        };
        // (a) The encoding preserves the slice exactly, under both
        // exact counters of the original automaton.
        let exact_robp = count_exact(&robp.to_nfa(), n).expect("exact DP on the node graph");
        assert_eq!(exact_robp, exact_nfa, "{label}: node-graph DP vs automaton DP");
        assert_eq!(exact_robp, count_slice(&nfa, n).expect("bdd"), "{label}: node-graph DP vs BDD");
        let exact = exact_nfa.to_f64();
        if exact == 0.0 {
            continue;
        }
        // (b) Engine estimates over both substrates track the same
        // truth. Not bit-identical — the universes differ, so the
        // frontier-keyed streams differ — but both are (ε, δ) bound.
        let params_nfa = Params::practical(0.4, 0.1, nfa.num_states(), n);
        let params_robp = Params::practical(0.4, 0.1, robp.num_nodes(), n);
        let nfa_est =
            run_parallel(&nfa, n, &params_nfa, 31 + case, 2).expect("nfa run").estimate().to_f64();
        let robp_run = run_parallel(&robp, n, &params_robp, 31 + case, 2).expect("robp run");
        let robp_est = robp_run.estimate().to_f64();
        for (path, est) in [("nfa", nfa_est), ("robp", robp_est)] {
            let err = (est - exact).abs() / exact;
            assert!(err < 0.6, "{label}: {path} err {err} (est {est}, exact {exact})");
        }
        // (c) Samples drawn through the robp substrate are members of
        // the *original* automaton's slice.
        let mut generator = UniformGenerator::new(robp_run);
        let mut rng = SmallRng::seed_from_u64(9900 + case);
        for _ in 0..10 {
            if let Some(w) = generator.generate(&mut rng) {
                assert_eq!(w.len(), n, "{label}: sampled length");
                assert!(robp.accepts(&w), "{label}: program rejects its own sample");
                assert!(nfa.accepts(&w), "{label}: original automaton rejects the sample");
            }
        }
    }
}
