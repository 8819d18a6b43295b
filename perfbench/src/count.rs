//! The counting workload: each unit counts its automata with one
//! `run_parallel` call apiece, checks every estimate against the exact
//! count, then draws almost-uniform words from each finished run and
//! checks each one.

use crate::host;
use crate::stats::mix;
use crate::trace::{span, Probe};
use crate::{Unit, Workload};
use fpras_automata::{count_exact, parse, Nfa};
use fpras_core::{engine::run_parallel, FprasRun, Params, UniformGenerator};
use fpras_numeric::ExtFloat;
use fpras_workloads::{random_nfa, RandomNfaConfig};
use rand::{rngs::SmallRng, SeedableRng};
use std::time::{Duration, Instant};

/// Generator seed of the `count-wide` automata.
const WIDE_SEED: u64 = 0x31DE;

/// A counting workload: its automata and parameters, and the seed that
/// drives the engine and the sample draws.
#[derive(Debug, Clone)]
pub struct CountWorkload {
    /// Automata of one unit, as the text the CLI's `--file` reads.
    texts: Vec<String>,
    /// `|L(A_n)|` of each automaton, for the ε check.
    exact: Vec<ExtFloat>,
    n: usize,
    eps: f64,
    delta: f64,
    /// Threads of the seed-keyed `Deterministic` policy.
    threads: usize,
    /// Words drawn from each finished run.
    samples: usize,
    seed: u64,
}

impl CountWorkload {
    /// `count-wide`: random NFAs whose levels hold ~25 live cells, so
    /// the pool, the share pre-pass, the memo and the interner all work.
    /// A unit counts two fixed draws of the generator; the seed drives
    /// the engine and the sample draws. Drawing the automata from the
    /// seed as well would swing a unit's membership ops by ±8%, which
    /// would drown the signal.
    pub fn wide(seed: u64, quick: bool) -> CountWorkload {
        let (states, n) = if quick { (10, 6) } else { (32, 8) };
        let config = RandomNfaConfig { states, alphabet: 2, density: 2.5, accepting: 2 };
        let nfas: Vec<Nfa> = (0..2)
            .map(|i| random_nfa(&config, &mut SmallRng::seed_from_u64(mix(WIDE_SEED, i))))
            .collect();
        let exact = nfas
            .iter()
            .map(|nfa| {
                ExtFloat::from_biguint(&count_exact(nfa, n).expect("exact count fits the cap"))
            })
            .collect();
        CountWorkload {
            texts: nfas.iter().map(parse::to_text).collect(),
            exact,
            n,
            eps: 0.4,
            delta: 0.1,
            threads: 2,
            samples: if quick { 50 } else { 2500 },
            seed,
        }
    }

    fn count(&self, nfa: &Nfa, params: &Params, seed: u64, i: usize) -> FprasRun {
        run_parallel(nfa, self.n, params, mix(seed, 0xC0 + i as u64), self.threads)
            .expect("workload parameters are valid")
    }
}

/// Parsed automata with their parameters.
pub struct Ready {
    nfas: Vec<Nfa>,
    params: Vec<Params>,
}

impl Workload for CountWorkload {
    type Ready = Ready;

    fn setup(&self) -> (Ready, Duration) {
        let start = Instant::now();
        let nfas: Vec<Nfa> = self
            .texts
            .iter()
            .map(|t| parse::from_text(t).expect("generated text parses"))
            .collect();
        let parse = start.elapsed();
        let params = nfas
            .iter()
            .map(|nfa| Params::practical(self.eps, self.delta, nfa.num_states(), self.n))
            .collect();
        (Ready { nfas, params }, parse)
    }

    fn unit(
        &self,
        ready: Ready,
        variant: u64,
        mut probe: Option<Probe<'_>>,
        cpu: Option<usize>,
    ) -> Unit {
        let seed = mix(self.seed, variant);
        let mut unit = Unit::default();
        let mut normalized = 0;
        for (i, (nfa, params)) in ready.nfas.iter().zip(&ready.params).enumerate() {
            let start = Instant::now();
            let run = span(&mut probe, "engine", || self.count(nfa, params, seed, i));
            let wall = start.elapsed();
            unit.count_wall += wall;
            unit.query_ns.push(wall.as_nanos() as u64);
            let estimate = run.estimate();
            unit.ops += run.stats().membership_ops;
            unit.digest.add(estimate.log2().to_bits());
            unit.check(within_eps(&estimate, &self.exact[i], self.eps));
            normalized += run.normalized_states().unwrap_or(0);

            // Drawing is single-threaded even when counting is not.
            let mut generator = UniformGenerator::new(run);
            let mut rng = SmallRng::seed_from_u64(mix(seed, 0x5A + i as u64));
            host::on_cpu(cpu, || {
                for _ in 0..self.samples {
                    let start = Instant::now();
                    let word = span(&mut probe, "generator", || generator.generate(&mut rng));
                    let ns = start.elapsed().as_nanos() as u64;
                    unit.query_ns.push(ns);
                    unit.sample_ns.push(ns);
                    unit.check(word.as_ref().is_some_and(|w| w.len() == self.n && nfa.accepts(w)));
                    for &sym in word.as_ref().map_or(&[][..], |w| w.symbols()) {
                        unit.digest.add(u64::from(sym));
                    }
                }
            });
            unit.stats.merge(generator.run().stats());
        }
        unit.busy = Duration::from_nanos(unit.query_ns.iter().sum());
        unit.layer.insert("engine.levels", (self.n * ready.nfas.len()) as f64);
        unit.layer.insert("automata.normalized_states", normalized as f64);
        unit
    }

    fn threads(&self) -> usize {
        self.threads
    }

    fn one_thread(&self) -> Option<CountWorkload> {
        (self.threads > 1).then(|| CountWorkload { threads: 1, ..self.clone() })
    }
}

/// The `(1±ε)` guarantee against the exact count (an empty slice must
/// be estimated as exactly zero).
pub fn within_eps(estimate: &ExtFloat, exact: &ExtFloat, eps: f64) -> bool {
    if exact.is_zero() {
        return estimate.is_zero();
    }
    estimate.relative_error(exact) <= eps
}
