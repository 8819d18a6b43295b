//! Property tests for the query-session service layer (DESIGN.md D11).
//!
//! The subsystem's load-bearing invariant: a [`QuerySession`] that has
//! served **any** interleaving of smaller and larger queries answers
//! `estimate(n)` bit-identically to a fresh engine run at `n` under the
//! same seed and policy. Three property families enforce it on random
//! NFAs and random query orders:
//!
//! * **Session ≡ fresh, per query** — for every queried length, the
//!   session's answer equals `FprasRun::run` (Serial) resp.
//!   `run_parallel` (Deterministic, threads 1/2/8) from scratch, bit
//!   for bit — including re-queries of lengths the session answered
//!   before extending further. The first query, which builds from level
//!   0, also does exactly the fresh run's work (every deterministic
//!   [`RunStats`] counter agrees).
//! * **Queries are inert** — interleaved `sample` queries (which
//!   consume caller randomness and insert frontier-keyed memo entries)
//!   must not perturb any later extension.
//! * **Registry transparency** — routing the same stream through a
//!   capacity-limited [`ServiceRegistry`] (evictions included) returns
//!   the same answers as dedicated sessions.

use fpras_core::service::{QuerySession, ServiceRegistry, SessionPolicy};
use fpras_core::{run_parallel, FprasRun, InternStats, Params, RunStats};
use fpras_workloads::{random_nfa, RandomNfaConfig};
use proptest::prelude::*;
use rand::{rngs::SmallRng, SeedableRng};

fn session_params(states: usize, n: usize) -> Params {
    Params::for_session(0.4, 0.1, states, n)
}

/// The deterministic work counters of `stats`: everything except wall
/// clock, phase attribution, pool scheduling, and the interner's hit
/// and arena counters (which depend on how worker threads raced).
fn work(stats: &RunStats) -> RunStats {
    RunStats {
        pool: Default::default(),
        phase: Default::default(),
        wall: Default::default(),
        wall_max: Default::default(),
        intern: InternStats {
            distinct_frontiers: stats.intern.distinct_frontiers,
            ..Default::default()
        },
        ..stats.clone()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn serial_session_matches_fresh_runs_bitwise(
        states in 2usize..7,
        density_tenths in 10u32..28,
        alphabet in 2usize..4,
        lengths in proptest::collection::vec(1usize..9, 3..7),
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let config = RandomNfaConfig {
            states,
            alphabet,
            density: density_tenths as f64 / 10.0,
            accepting: 1,
        };
        let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(instance_seed));
        let max_n = *lengths.iter().max().expect("non-empty");
        let params = session_params(states, max_n);
        let mut session = QuerySession::new(
            &nfa,
            params.clone(),
            SessionPolicy::Serial { seed: run_seed },
        ).unwrap();
        // Random query order, including revisits after extension.
        let mut lengths = lengths;
        lengths.push(lengths[0]);
        for (i, &n) in lengths.iter().enumerate() {
            let got = session.estimate(n).unwrap();
            let mut rng = SmallRng::seed_from_u64(run_seed);
            let fresh = FprasRun::run(&nfa, n, &params, &mut rng).unwrap();
            prop_assert_eq!(got, fresh.estimate(), "serial, n = {}", n);
            if i == 0 {
                prop_assert_eq!(work(session.run_stats()), work(fresh.stats()), "serial work");
            }
        }
    }

    #[test]
    fn deterministic_session_matches_fresh_runs_bitwise(
        states in 2usize..7,
        density_tenths in 10u32..26,
        lengths in proptest::collection::vec(1usize..9, 3..6),
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
        let max_n = *lengths.iter().max().expect("non-empty");
        let params = session_params(states, max_n);
        let mut lengths = lengths;
        lengths.push(lengths[0]);
        for threads in [1usize, 2, 8] {
            let mut session = QuerySession::new(
                &nfa,
                params.clone(),
                SessionPolicy::Deterministic { seed: run_seed, threads },
            ).unwrap();
            for (i, &n) in lengths.iter().enumerate() {
                let got = session.estimate(n).unwrap();
                let fresh = run_parallel(&nfa, n, &params, run_seed, threads).unwrap();
                prop_assert_eq!(
                    got,
                    fresh.estimate(),
                    "deterministic t = {}, n = {}",
                    threads,
                    n
                );
                if i == 0 {
                    prop_assert_eq!(
                        work(session.run_stats()),
                        work(fresh.stats()),
                        "deterministic work, t = {}",
                        threads
                    );
                }
            }
        }
    }

    #[test]
    fn sampling_between_queries_is_inert(
        states in 2usize..6,
        density_tenths in 12u32..26,
        small in 1usize..5,
        extra in 1usize..5,
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
        let large = small + extra;
        let params = session_params(states, large);
        let mut session = QuerySession::new(
            &nfa,
            params.clone(),
            SessionPolicy::Serial { seed: run_seed },
        ).unwrap();
        session.estimate(small).unwrap();
        // Sampling draws from the caller's RNG and inserts only
        // frontier-keyed (value-congruent) memo entries: the later
        // extension must not see any of it.
        let mut caller = SmallRng::seed_from_u64(instance_seed ^ run_seed);
        for _ in 0..10 {
            if let Some(w) = session.sample(small, &mut caller).unwrap() {
                prop_assert_eq!(w.len(), small);
                prop_assert!(nfa.accepts(&w), "sampled word must be accepted");
            }
        }
        let got = session.estimate(large).unwrap();
        let mut rng = SmallRng::seed_from_u64(run_seed);
        let fresh = FprasRun::run(&nfa, large, &params, &mut rng).unwrap();
        prop_assert_eq!(got, fresh.estimate());
    }

    #[test]
    fn registry_routing_is_transparent(
        states_a in 2usize..5,
        states_b in 2usize..5,
        lengths in proptest::collection::vec((0usize..2, 1usize..8), 4..10),
        instance_seed in 0u64..1_000,
        run_seed in 0u64..1_000,
    ) {
        let mk = |states: usize, salt: u64| random_nfa(
            &RandomNfaConfig { states, alphabet: 2, density: 1.8, accepting: 1 },
            &mut SmallRng::seed_from_u64(instance_seed ^ salt),
        );
        let automata = [mk(states_a, 0xA), mk(states_b, 0xB)];
        let params: Vec<Params> = automata
            .iter()
            .map(|nfa| session_params(nfa.num_states(), 8))
            .collect();
        let policy = SessionPolicy::Deterministic { seed: run_seed, threads: 1 };
        // Capacity 1 forces evictions on every automaton switch; the
        // answers must still match dedicated per-automaton sessions.
        let mut registry = ServiceRegistry::new(1);
        let mut dedicated: Vec<QuerySession> = automata
            .iter()
            .zip(&params)
            .map(|(nfa, p)| QuerySession::new(nfa, p.clone(), policy.clone()).unwrap())
            .collect();
        for &(which, n) in &lengths {
            let via_registry = registry
                .session(&automata[which], &params[which], &policy)
                .unwrap()
                .estimate(n)
                .unwrap();
            let direct = dedicated[which].estimate(n).unwrap();
            prop_assert_eq!(via_registry, direct, "automaton {}, n = {}", which, n);
        }
        let totals = registry.session_totals();
        prop_assert_eq!(totals.queries_served, lengths.len() as u64);
    }
}
