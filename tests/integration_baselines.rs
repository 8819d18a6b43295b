//! Baseline counters against the FPRAS and against each other, via the
//! unified facade — plus property tests over random small NFAs for the
//! deterministic invariants every counter must share.

use fpras_automata::exact::count_exact;
use fpras_baselines::{run_counter, AcjrParams, AcjrRun, CounterKind};
use fpras_workloads::{families, random_nfa, RandomNfaConfig};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn facade_counters_agree() {
    let nfa = families::contains_substring(&[1, 1]);
    let n = 9;
    let exact = count_exact(&nfa, n).unwrap().to_f64();
    for kind in [
        CounterKind::Fpras { threads: 0 },
        CounterKind::Acjr,
        CounterKind::NaiveMc { trials: 60_000 },
        CounterKind::ExactDp,
        CounterKind::ExactDfa,
        CounterKind::BruteForce,
    ] {
        let out = run_counter(&kind, &nfa, n, 0.3, 0.1, 55).unwrap();
        let err = (out.estimate.to_f64() - exact).abs() / exact;
        let tol = if out.exact { 1e-9 } else { 0.3 };
        assert!(err <= tol, "{}: err {err}", kind.label());
    }
}

#[test]
fn acjr_handles_random_instances() {
    for seed in 0..4u64 {
        let nfa = random_nfa(
            &RandomNfaConfig { states: 8, density: 1.6, ..Default::default() },
            &mut SmallRng::seed_from_u64(100 + seed),
        );
        let n = 8;
        let exact = count_exact(&nfa, n).unwrap().to_f64();
        let params = AcjrParams::practical(0.3, 0.1, 8, n);
        let mut rng = SmallRng::seed_from_u64(200 + seed);
        let run = AcjrRun::run(&nfa, n, &params, &mut rng).unwrap();
        if exact == 0.0 {
            assert!(run.estimate().is_zero(), "seed {seed}");
        } else {
            let err = (run.estimate().to_f64() - exact).abs() / exact;
            assert!(err < 0.35, "seed {seed}: err {err}");
        }
    }
}

#[test]
fn naive_vs_fpras_on_thin_language() {
    // The motivating crossover: naive MC misses the single word entirely,
    // the FPRAS nails it.
    let nfa = families::thin_chain(22);
    let n = 22;
    let naive =
        run_counter(&CounterKind::NaiveMc { trials: 100_000 }, &nfa, n, 0.3, 0.1, 1).unwrap();
    assert!(naive.estimate.is_zero(), "naive should miss the 2^-22-density word");
    let ours = run_counter(&CounterKind::Fpras { threads: 0 }, &nfa, n, 0.3, 0.1, 2).unwrap();
    assert!((ours.estimate.to_f64() - 1.0).abs() < 0.3, "fpras est {}", ours.estimate);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Deterministic invariants on random small NFAs: the FPRAS returns
    /// zero exactly when the language slice is empty, and any positive
    /// estimate implies a nonempty slice. (Statistical accuracy is tested
    /// separately with fixed seeds; these invariants hold surely.)
    #[test]
    fn zero_iff_empty(seed in 0u64..500, n in 1usize..8) {
        let nfa = random_nfa(
            &RandomNfaConfig { states: 6, density: 1.2, ..Default::default() },
            &mut SmallRng::seed_from_u64(seed),
        );
        let exact = count_exact(&nfa, n).unwrap();
        let out = run_counter(&CounterKind::Fpras { threads: 0 }, &nfa, n, 0.4, 0.2, seed).unwrap();
        if exact.is_zero() {
            prop_assert!(out.estimate.is_zero());
        } else {
            prop_assert!(!out.estimate.is_zero());
        }
    }

    /// Exact methods must agree bit-for-bit on random instances.
    #[test]
    fn exact_methods_agree(seed in 0u64..500, n in 0usize..9) {
        let nfa = random_nfa(
            &RandomNfaConfig { states: 7, density: 1.5, ..Default::default() },
            &mut SmallRng::seed_from_u64(seed),
        );
        let dp = run_counter(&CounterKind::ExactDp, &nfa, n, 0.3, 0.1, 0).unwrap();
        let dfa = run_counter(&CounterKind::ExactDfa, &nfa, n, 0.3, 0.1, 0).unwrap();
        prop_assert_eq!(dp.estimate, dfa.estimate);
        if n <= 6 {
            let brute = run_counter(&CounterKind::BruteForce, &nfa, n, 0.3, 0.1, 0).unwrap();
            prop_assert_eq!(dp.estimate, brute.estimate);
        }
    }
}
