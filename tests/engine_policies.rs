//! Engine policy contracts (the tentpole refactor's acceptance tests):
//!
//! * the `Deterministic` policy is **bit-identical** across
//!   `threads = 1/2/8` on seeded runs — table, stats, and estimate;
//! * both the `Serial` and `Deterministic` policies meet the `(ε, δ)`
//!   accuracy contract on small instances with exact ground truth;
//! * `run_parallel(…, threads = 1)` and the serial API flow through the
//!   same engine code path (`run_with_policy`).

use fpras_automata::exact::count_exact;
use fpras_core::{
    run_parallel, run_with_policy, Deterministic, FprasRun, Params, RunStats, Serial,
};
use fpras_workloads::families;
use rand::{rngs::SmallRng, SeedableRng};

#[test]
fn deterministic_policy_bit_identical_across_1_2_8_16_threads() {
    for (label, nfa, n) in [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("ones-mod-3", families::ones_mod_k(3), 9),
        // 97 states: every reach row and frontier spans two words.
        ("div-97", families::divisible_by(97), 10),
    ] {
        let m = nfa.num_states();
        let params = Params::practical(0.3, 0.1, m, n);
        for seed in [7u64, 99] {
            // threads = 16 oversubscribes every host this runs on — the
            // work-stealing pool must stay bit-identical even when
            // workers outnumber both the hardware and most levels'
            // items (the sequential cutoff then eats whole passes).
            let runs: Vec<_> = [1usize, 2, 8, 16]
                .iter()
                .map(|&t| run_parallel(&nfa, n, &params, seed, t).unwrap())
                .collect();
            for (i, run) in runs.iter().enumerate().skip(1) {
                assert_eq!(
                    runs[0].estimate().to_f64(),
                    run.estimate().to_f64(),
                    "{label} seed {seed}: estimate differs at thread setting #{i}"
                );
                // Bit-identity is stronger than the final estimate: the
                // whole random process must match, so compare the
                // instrumentation counters and the full cell table.
                assert_eq!(runs[0].stats().membership_ops, run.stats().membership_ops);
                assert_eq!(runs[0].stats().sample_calls, run.stats().sample_calls);
                assert_eq!(runs[0].stats().samples_stored, run.stats().samples_stored);
                assert_eq!(runs[0].stats().memo_hits, run.stats().memo_hits);
                for ell in 0..=n {
                    for q in 0..m as u32 {
                        assert_eq!(
                            runs[0].cell_estimate(q, ell).map(|e| e.to_f64()),
                            run.cell_estimate(q, ell).map(|e| e.to_f64()),
                            "{label} seed {seed}: cell ({q}, {ell})"
                        );
                        assert_eq!(
                            runs[0].cell_genuine_samples(q, ell),
                            run.cell_genuine_samples(q, ell),
                            "{label} seed {seed}: samples at ({q}, {ell})"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn serial_policy_meets_eps_delta_on_exact_ground_truth() {
    policy_accuracy_sweep(|nfa, n, params, seed| {
        let mut rng = SmallRng::seed_from_u64(seed);
        FprasRun::run(nfa, n, params, &mut rng).unwrap().estimate().to_f64()
    });
}

#[test]
fn deterministic_policy_meets_eps_delta_on_exact_ground_truth() {
    policy_accuracy_sweep(|nfa, n, params, seed| {
        run_parallel(nfa, n, params, seed, 4).unwrap().estimate().to_f64()
    });
}

/// Runs the given estimator over small instances with known counts;
/// with δ = 0.1 per run, 10 seeds per instance must land within ε at
/// least 9 times (the expected failure count is 1).
fn policy_accuracy_sweep(estimate: impl Fn(&fpras_automata::Nfa, usize, &Params, u64) -> f64) {
    let eps = 0.3;
    for (label, nfa, n) in [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("ones-mod-4", families::ones_mod_k(4), 10),
        ("div-by-5", families::divisible_by(5), 10),
    ] {
        let exact = count_exact(&nfa, n).unwrap().to_f64();
        assert!(exact > 0.0, "{label}: test instance must be non-empty");
        let params = Params::practical(eps, 0.1, nfa.num_states(), n);
        let runs = 10;
        let within = (0..runs)
            .filter(|&seed| {
                let est = estimate(&nfa, n, &params, 1000 + seed);
                (est - exact).abs() / exact < eps
            })
            .count();
        assert!(within >= 9, "{label}: only {within}/{runs} runs within ε = {eps}");
    }
}

/// Closes the silent stats gap: `RunStats` was never asserted against
/// structural invariants before the batching layer made double-counting
/// an easy bug to write. Every `(cell, symbol)` pair of every count pass
/// must be accounted for exactly once — either its union estimate ran,
/// or it was skipped (deduplicated onto a groupmate, or trivially
/// empty): `unions_run + unions_skipped == cells_processed × k`.
fn assert_stats_invariants(stats: &RunStats, k: u64, label: &str) {
    let pairs = stats.cells_processed * k;
    assert_eq!(
        stats.batch.unions_run + stats.batch.unions_skipped,
        pairs,
        "{label}: every (cell, symbol) pair must be estimated or skipped \
         ({} run + {} skipped vs {} pairs)",
        stats.batch.unions_run,
        stats.batch.unions_skipped,
        pairs
    );
    // Deduplicated pairs are a subset of the skipped ones.
    assert!(
        stats.batch.cells_deduped <= stats.batch.unions_skipped,
        "{label}: deduped {} exceeds skipped {}",
        stats.batch.cells_deduped,
        stats.batch.unions_skipped
    );
    // Each group's union runs exactly once, and groups cannot outnumber
    // pairs.
    assert_eq!(stats.batch.groups_formed, stats.batch.unions_run, "{label}: one union per group");
    assert!(stats.batch.groups_formed <= pairs, "{label}: groups exceed pairs");
    // The count pass runs AppUnion exactly unions_run times; the rest of
    // appunion_calls belong to the sampler's memo misses and the
    // sharing pre-pass's frontier pre-estimations (D9).
    assert_eq!(
        stats.appunion_calls,
        stats.batch.unions_run + stats.memo_misses + stats.share.frontiers_preestimated,
        "{label}: appunion accounting"
    );
    // Pre-estimated entries can only be consumed if they were produced.
    if stats.share.frontiers_preestimated == 0 {
        assert_eq!(stats.share.preestimate_hits, 0, "{label}: hits without pre-estimates");
    }
    // Copy-on-write memo accounting: snapshots are per-(cell, level) and
    // every snapshot shares the whole base layer instead of cloning it.
    assert!(
        stats.memo.entries_promoted >= stats.share.frontiers_preestimated,
        "{label}: promoted entries must cover the shared seeds"
    );
}

#[test]
fn run_stats_union_invariants_hold_for_all_paths() {
    for (label, nfa, n) in [
        ("contains-11", families::contains_substring(&[1, 1]), 10usize),
        ("div-by-5", families::divisible_by(5), 9),
    ] {
        let k = nfa.alphabet().size() as u64;
        let params = Params::practical(0.3, 0.1, nfa.num_states(), n);
        let mut rng = SmallRng::seed_from_u64(17);
        let serial = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
        assert_stats_invariants(serial.stats(), k, &format!("{label}/serial"));
        let det = run_parallel(&nfa, n, &params, 17, 4).unwrap();
        assert_stats_invariants(det.stats(), k, &format!("{label}/det"));
        assert!(
            serial.stats().batch.cells_deduped > 0,
            "{label}: these fixtures share frontiers, dedup must fire"
        );
        // Sample-pass sharing must engage: every hot frontier is
        // either pre-estimated or found already seeded. On deterministic
        // automata (div-by-5) all depth-two frontiers are
        // singletons the count pass already seeded — zero
        // pre-estimates is the correct outcome there; the
        // nondeterministic fixture must produce genuinely new
        // shared entries and the Deterministic policy's cells
        // must consume them.
        assert!(
            serial.stats().share.frontiers_preestimated + serial.stats().share.keys_already_seeded
                > 0,
            "{label}: sharing pre-pass must inspect hot frontiers"
        );
        if label == "contains-11" {
            assert!(
                serial.stats().share.frontiers_preestimated > 0,
                "{label}: sharing pre-pass must estimate hot frontiers"
            );
            assert!(
                det.stats().share.preestimate_hits > 0,
                "{label}: deterministic cells must hit pre-estimated entries"
            );
        }
        // And no cell deep-cloned the memo: every snapshot shared
        // the base layer.
        assert!(
            det.stats().memo.snapshots > 0 && det.stats().memo.entries_shared > 0,
            "{label}: CoW snapshots must be taken and share the base"
        );
    }
}

#[test]
fn pool_stats_surface_matches_the_policy() {
    // Serial runs never touch the executor; Deterministic runs account
    // for every scheduled item exactly once, either on the pool or on
    // the sequential-cutoff path.
    let narrow = families::contains_substring(&[1, 1]);
    let n = 10;
    let params = Params::practical(0.3, 0.1, narrow.num_states(), n);
    let mut rng = SmallRng::seed_from_u64(3);
    let serial = FprasRun::run(&narrow, n, &params, &mut rng).unwrap();
    assert_eq!(serial.stats().pool, fpras_core::PoolStats::default(), "serial has no pool");

    let det = run_parallel(&narrow, n, &params, 3, 4).unwrap();
    let pool = &det.stats().pool;
    assert!(pool.parallel_items + pool.sequential_items > 0, "passes must be recorded");
    assert_eq!(pool.worker_items.iter().sum::<u64>(), pool.parallel_items, "item attribution");
    // contains-11 normalizes to ≤ 4 states: every pass is below the
    // threads × steal chunk = 8 cutoff, so nothing may wake the pool.
    assert_eq!(pool.parallel_passes, 0, "tiny levels must take the sequential cutoff");
    assert_eq!(pool.steals, 0);

    // A wide instance must actually engage the pool.
    let wide = fpras_workloads::random_nfa(
        &fpras_workloads::RandomNfaConfig { states: 24, alphabet: 2, density: 2.0, accepting: 2 },
        &mut SmallRng::seed_from_u64(71),
    );
    let params = Params::practical(0.4, 0.1, wide.num_states(), 8);
    let det = run_parallel(&wide, 8, &params, 5, 4).unwrap();
    let pool = &det.stats().pool;
    assert!(pool.parallel_passes > 0, "wide levels must fan out: {pool:?}");
    assert_eq!(pool.worker_items.iter().sum::<u64>(), pool.parallel_items);
    // Worker-attributed ops are a subset of the run's membership ops
    // (cell assembly and sequential passes are not attributed).
    assert!(
        pool.worker_ops.iter().sum::<u64>() <= det.stats().membership_ops,
        "attributed ops cannot exceed the run total"
    );
}

#[test]
fn serial_api_and_threads_1_share_the_engine() {
    // Both public entry points are thin wrappers over run_with_policy;
    // re-running through the policy objects must reproduce them exactly.
    let nfa = families::contains_substring(&[1, 0, 1]);
    let n = 9;
    let params = Params::practical(0.3, 0.1, nfa.num_states(), n);

    let mut rng_a = SmallRng::seed_from_u64(4);
    let mut rng_b = SmallRng::seed_from_u64(4);
    let serial_api = FprasRun::run(&nfa, n, &params, &mut rng_a).unwrap();
    let serial_policy = run_with_policy(&nfa, n, &params, &mut Serial::new(&mut rng_b)).unwrap();
    assert_eq!(serial_api.estimate().to_f64(), serial_policy.estimate().to_f64());
    assert_eq!(serial_api.stats().membership_ops, serial_policy.stats().membership_ops);

    let parallel_fn = run_parallel(&nfa, n, &params, 4, 1).unwrap();
    let parallel_policy = run_with_policy(&nfa, n, &params, &mut Deterministic::new(4, 1)).unwrap();
    assert_eq!(parallel_fn.estimate().to_f64(), parallel_policy.estimate().to_f64());
    assert_eq!(parallel_fn.stats().membership_ops, parallel_policy.stats().membership_ops);
}
