//! Property tests for the leveled copy-on-write memo (DESIGN.md §2.2 /
//! D9) on random NFAs.
//!
//! **Leveled ≡ flat, observably** — the copy-on-write memo must preserve
//! the engine's bit-identity contract the flat memo had: `Deterministic`
//! runs are identical cell-for-cell across `threads = 1/2/8`, and the
//! per-cell snapshots are O(1) `Arc` clones (`memo.snapshots` > 0 with
//! `entries_shared` counting the clone volume the flat layout would have
//! paid). That every entry the sharing pre-pass seeds equals what the
//! lazy miss path would compute is checked in-crate
//! (`engine::tests::shared_tier_equals_lazy_recomputation`).

use fpras_core::{run_parallel, FprasRun, Params};
use fpras_workloads::{random_nfa, RandomNfaConfig};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

/// Compares every observable cell of two runs.
fn assert_runs_identical(a: &FprasRun, b: &FprasRun, label: &str) {
    assert_eq!(a.estimate().to_f64(), b.estimate().to_f64(), "{label}: estimate");
    let (Some(m), Some(mb)) = (a.normalized_states(), b.normalized_states()) else {
        return;
    };
    assert_eq!(m, mb, "{label}: normalized size");
    for ell in 0..=a.n() {
        for q in 0..m as u32 {
            assert_eq!(
                a.cell_estimate(q, ell).map(|e| e.to_f64()),
                b.cell_estimate(q, ell).map(|e| e.to_f64()),
                "{label}: N({q},{ell})"
            );
            assert_eq!(
                a.cell_genuine_samples(q, ell),
                b.cell_genuine_samples(q, ell),
                "{label}: S({q},{ell})"
            );
        }
    }
    assert_eq!(a.stats().sample_calls, b.stats().sample_calls, "{label}: sample calls");
    assert_eq!(a.stats().samples_stored, b.stats().samples_stored, "{label}: samples");
    assert_eq!(a.stats().fail_rejected, b.stats().fail_rejected, "{label}: rejections");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn leveled_memo_keeps_thread_bit_identity(
        states in 2usize..7,
        density_tenths in 10u32..26,
        n in 4usize..9,
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let config = RandomNfaConfig {
            states,
            alphabet: 2,
            density: density_tenths as f64 / 10.0,
            accepting: 1,
        };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(instance_seed));
        let params = Params::practical(0.4, 0.1, states, n);

        let runs: Vec<FprasRun> = [1usize, 2, 8]
            .iter()
            .map(|&t| run_parallel(&nfa, n, &params, run_seed, t).unwrap())
            .collect();
        for run in &runs[1..] {
            assert_runs_identical(&runs[0], run, "threads");
            // Full bit-identity includes the instrumentation: the
            // copy-on-write accounting is thread-count independent too.
            prop_assert_eq!(runs[0].stats().membership_ops, run.stats().membership_ops);
            prop_assert_eq!(runs[0].stats().memo_hits, run.stats().memo_hits);
            prop_assert_eq!(runs[0].stats().memo.snapshots, run.stats().memo.snapshots);
            prop_assert_eq!(
                runs[0].stats().memo.entries_shared,
                run.stats().memo.entries_shared
            );
            prop_assert_eq!(
                runs[0].stats().memo.overlay_entries,
                run.stats().memo.overlay_entries
            );
            prop_assert_eq!(
                runs[0].stats().share.preestimate_hits,
                run.stats().share.preestimate_hits
            );
        }
        // Copy-on-write discipline: every sampled cell took exactly one
        // snapshot, and no snapshot deep-copied the base layer.
        if let Some(r) = runs.first() {
            if r.normalized_states().is_some() {
                prop_assert!(r.stats().memo.snapshots > 0);
            }
        }
    }
}
