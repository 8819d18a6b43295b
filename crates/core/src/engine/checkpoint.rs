//! The checkpointed run: the one level loop behind fresh runs, query
//! sessions and the generator (DESIGN.md §2.4).
//!
//! A [`Checkpoint`] holds everything Algorithm 3 needs to continue where
//! it stopped. Every run goes through its three methods:
//!
//! * [`Checkpoint::open`] draws the sampler seed and seeds level 0;
//! * [`Checkpoint::extend`] runs [`run_level`] for each missing level;
//! * [`Checkpoint::draw`] is one more call to Algorithm 2 at `(q_F, n)`,
//!   retried until it yields a word (Theorem 2).
//!
//! A fresh run is `open` plus `extend(n)`; a session extends once per
//! query that needs new levels. Both execute the same code, which is
//! what the session ≡ fresh-run bit-identity (D11) rests on.

use super::{run_level, seed_level_zero, EngineCtx, ExecutionPolicy, LeveledSubstrate, UnionMemo};
use crate::error::FprasError;
use crate::intern::FrontierInterner;
use crate::obs::{emit_with, trace_enabled, TraceEvent};
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::sampler::{sample_word, SamplerEnv, SamplerScratch};
use crate::table::{RunTable, SampleOutcome};
use fpras_automata::{StateId, Word};
use fpras_numeric::ExtFloat;
use rand::Rng;
use std::time::Instant;

/// A resumable engine run over one substrate: levels `0..=built` of the
/// `(N, S)` table are final.
pub(crate) struct Checkpoint {
    /// The leveled DAG the DP runs over (D14).
    pub(crate) substrate: Box<dyn LeveledSubstrate>,
    /// The run-lifetime frontier interner: ids stay stable across
    /// extensions and draws, so memo keys minted at level `k` keep
    /// working when the run grows.
    pub(crate) interner: FrontierInterner,
    pub(crate) table: RunTable,
    pub(crate) memo: UnionMemo,
    /// Seed of the frontier-keyed sampler union streams (D9); draws keep
    /// using it so post-run memo misses stay congruent with in-run
    /// estimates.
    pub(crate) sampler_seed: u64,
    pub(crate) q_final: StateId,
    /// Levels `1..=built` are finished (level 0 is seeded by `open`).
    pub(crate) built: usize,
    /// Reusable sampler buffers for [`Checkpoint::draw`].
    scratch: SamplerScratch,
}

impl Checkpoint {
    /// Starts a run over `substrate`: draws the per-run sampler seed from
    /// `policy` (Serial consumes its caller RNG here, Deterministic
    /// derives it from the master seed) and seeds level 0.
    pub(crate) fn open<P: ExecutionPolicy>(
        substrate: Box<dyn LeveledSubstrate>,
        params: &Params,
        policy: &mut P,
    ) -> Self {
        let m = substrate.universe();
        let sampler_seed = policy.sampler_union_seed();
        let mut table = RunTable::new(m, 0);
        seed_level_zero(&mut table, &*substrate, params);
        Checkpoint {
            q_final: substrate.final_cell(),
            substrate,
            interner: FrontierInterner::new(m),
            table,
            memo: UnionMemo::new(),
            sampler_seed,
            built: 0,
            scratch: SamplerScratch::new(),
        }
    }

    /// Finishes levels `built + 1..=n` under `policy`, accumulating the
    /// work into `stats`. The substrate horizon is set to `n` before the
    /// first level runs. On a budget abort the levels before the
    /// offending one stay finished and the error is returned; the
    /// offending level is half-built, so callers must not extend again.
    pub(crate) fn extend<P: ExecutionPolicy>(
        &mut self,
        n: usize,
        params: &Params,
        policy: &mut P,
        stats: &mut RunStats,
    ) -> Result<(), FprasError> {
        if n <= self.built {
            return Ok(());
        }
        let start = Instant::now();
        self.substrate.ensure_horizon(n);
        self.table.grow(n);
        let Checkpoint { substrate, interner, table, memo, sampler_seed, built, .. } = self;
        // Deliberately no run-horizon field: per-level work must be a
        // function of `(Params, level, table, memo)` alone, or extended
        // runs could not be bit-identical to fresh ones (D11).
        let ctx = EngineCtx {
            params,
            substrate: &**substrate,
            interner,
            m: substrate.universe(),
            k: substrate.width() as u8,
            sampler_seed: *sampler_seed,
        };
        emit_with(|| TraceEvent::RunStart {
            substrate: substrate.kind(),
            policy: policy.name(),
            n,
            from_level: *built + 1,
        });
        let result = (*built + 1..=n).try_for_each(|ell| {
            run_level(&ctx, table, memo, stats, ell, policy)?;
            *built = ell;
            Ok(())
        });
        // Executor evidence (D10), drained once per extension.
        // Scheduling-only: these counters record how the work spread
        // over the workers, never what it computed.
        let pool = policy.take_pool_stats();
        stats.pool.merge(&pool);
        // Snapshot (not merge): the interner lives as long as the run,
        // so the latest reading is the total.
        stats.intern = interner.stats();
        let wall = start.elapsed();
        stats.wall += wall;
        stats.wall_max = stats.wall;
        if trace_enabled() {
            if pool.parallel_passes + pool.sequential_passes > 0 {
                emit_with(|| TraceEvent::PoolSummary {
                    parallel_passes: pool.parallel_passes,
                    sequential_passes: pool.sequential_passes,
                    items: pool.parallel_items + pool.sequential_items,
                    steals: pool.steals,
                });
            }
            emit_with(|| TraceEvent::RunEnd {
                ops: stats.membership_ops,
                wall_us: wall.as_micros() as u64,
            });
        }
        result
    }

    /// The estimate `N(q_F^n)` of a finished level `n ≥ 1`.
    pub(crate) fn estimate(&self, n: usize) -> ExtFloat {
        debug_assert!(n <= self.built, "level {n} is not built yet");
        self.table.cell(n, self.q_final as usize).n_est
    }

    /// Draws one almost-uniform word of length `n ≤ built` by Algorithm 2
    /// from `(q_F, n)`, retrying ⊥ outcomes up to `retry_limit` times.
    /// Randomness comes from the caller's `rng` only; the work is
    /// counted into `stats`. `None` when the slice is empty or every
    /// retry failed.
    pub(crate) fn draw<R: Rng + ?Sized>(
        &mut self,
        params: &Params,
        n: usize,
        rng: &mut R,
        retry_limit: usize,
        stats: &mut RunStats,
    ) -> Option<Word> {
        debug_assert!(n <= self.built, "level {n} is not built yet");
        let env = SamplerEnv {
            params,
            substrate: &*self.substrate,
            interner: &self.interner,
            sampler_seed: self.sampler_seed,
        };
        for _ in 0..retry_limit {
            match sample_word(
                &env,
                &self.table,
                &mut self.memo,
                self.q_final,
                n,
                rng,
                &mut self.scratch,
                stats,
            ) {
                SampleOutcome::Word(w) => return Some(w),
                SampleOutcome::DeadEnd => return None,
                SampleOutcome::FailPhi | SampleOutcome::FailCoin => {}
            }
        }
        None
    }
}
