//! The level-synchronous execution engine for Algorithm 3.
//!
//! The paper's DP has a strict *level* structure: `N(qℓ)` and `S(qℓ)`
//! read only levels `< ℓ`, never same-level siblings. The engine owns
//! that schedule once — normalization, the `(n+1) × m` [`RunTable`], the
//! shared [`UnionMemo`], and the per-level **two-pass** loop (a count
//! pass over all useful cells, then a sample pass over the live ones) —
//! and delegates *how* the per-cell work of a pass is executed to a
//! pluggable [`ExecutionPolicy`]:
//!
//! * [`Serial`] threads one caller RNG
//!   through the cells in state order — the classic single-threaded run;
//! * [`Deterministic`] fans each
//!   pass out over its persistent work-stealing [`Pool`]
//!   (`engine/pool.rs`, D10) with per-cell SplitMix64 RNG streams —
//!   workers are spawned once per policy, parked between passes, and
//!   rebalance skewed levels by stealing chunks; bit-identical for
//!   every thread count and schedule.
//!
//! Every per-level computation (`run_group`, `assemble_count_cell`,
//! `sample_cell`) lives here and is shared by both policies, so
//! optimizations land in exactly one place.
//!
//! # Batched union estimation (D8)
//!
//! The count pass does not run `AppUnion` per `(cell, symbol)` pair:
//! the engine first builds a [`LevelPlan`] that groups pairs by their
//! canonical predecessor-frontier key, the policy estimates each
//! *group* once (on an RNG stream derived from the frontier, not the
//! cell), and per-cell counts are assembled by summing the shared group
//! estimates. See `engine/batch.rs`.
//!
//! # Memo lifecycle (D9)
//!
//! The sampler's union memo is the leveled copy-on-write [`UnionMemo`]
//! (`engine/memo.rs`); its per-level snapshot → overlay →
//! canonical-merge flow — who seeds which tier, when the overlay is
//! committed into the shared base layer, and why per-cell views are
//! O(1) `Arc` clones instead of full map copies — is specified once,
//! with a diagram, in **DESIGN.md §2.2 "The memo lifecycle"**. In
//! short: count seeds and the sharing pre-pass fill the overlay, the
//! engine commits before the sample pass, `Deterministic` cells sample
//! against O(1) snapshots and merge their overlays back first-wins in
//! canonical key order, and `Serial` mutates the shared memo directly
//! (free same-level reuse; with one RNG stream there is no cross-cell
//! determinism to protect). Both policies satisfy the same `(ε, δ)`
//! contract.
//!
//! # Sample-pass frontier sharing (D9)
//!
//! Mirroring D8 for the sample pass: sampler-side union randomness is
//! frontier-keyed whenever memoization is on (see `sampler.rs`), so
//! before each sample pass the engine pre-estimates the level's hot
//! sampler frontiers once — the depth-two predecessor frontiers
//! reachable from the live cells' count-pass groups — and seed the
//! shared layer ([`MemoTier::Shared`]). Per-cell sampling then hits the
//! memo instead of re-running `AppUnion` per cell. A frontier the
//! pre-pass does not seed is estimated lazily by the first cell that
//! needs it, on the same frontier-keyed stream, so the pre-pass changes
//! work, never output (`tests::shared_tier_equals_lazy_recomputation`).

pub mod batch;
mod checkpoint;
pub mod memo;
pub mod policy;
pub mod pool;
pub mod substrate;

use crate::app_union;
use crate::appunion::{frontier_inputs, UnionScratch};
use crate::counter::FprasRun;
use crate::error::FprasError;
use crate::intern::FrontierInterner;
use crate::params::Params;
use crate::run_stats::RunStats;
use crate::sample_set::{SampleEntry, SampleSet};
use crate::sampler::{sample_word, SamplerEnv, SamplerScratch};
use crate::table::{BuildKeyHasher, MemoKey, RunTable, SampleOutcome};
use fpras_automata::ops::{trim, with_single_accepting};
use fpras_automata::robp::Robp;
use fpras_automata::{Nfa, StateId, StateSet};
use fpras_numeric::ExtFloat;
use rand::{rngs::SmallRng, Rng, RngExt};
use std::collections::HashSet;
use std::time::Instant;

pub use batch::{FrontierGroup, LevelPlan};
pub(crate) use checkpoint::Checkpoint;
pub use memo::{MemoEntry, MemoTier, UnionMemo};
pub use policy::{Deterministic, ExecutionPolicy, Serial};
pub use pool::{Pool, MAX_THREADS};
pub use substrate::{LeveledSubstrate, NfaSubstrate, RobpSubstrate};

/// Immutable per-run context handed to policies and cell computations.
pub struct EngineCtx<'a> {
    /// Resolved run parameters.
    pub params: &'a Params,
    /// The leveled-DAG substrate the DP runs over (D14) — for the NFA
    /// front-end, the normalized automaton with its unrolling views.
    pub substrate: &'a dyn LeveledSubstrate,
    /// The run's frontier interner: every memo/sharing key is minted
    /// here (dense ids, cached RNG tags — DESIGN.md §2.5).
    pub interner: &'a FrontierInterner,
    /// Cell-universe size (`substrate.universe()`, cached).
    pub m: usize,
    /// Alphabet size (`substrate.width()`, cached).
    pub k: u8,
    /// Per-run seed of the frontier-keyed sampler union streams (D9):
    /// drawn once by the policy ([`ExecutionPolicy::sampler_union_seed`])
    /// so lazy sampler estimates and the sharing pre-pass derive
    /// identical per-frontier randomness.
    pub sampler_seed: u64,
}

/// Output of one count-pass cell. Estimation counters live on the
/// group outputs ([`GroupOut::stats`]); assembly itself does no
/// countable work.
pub struct CountOut {
    /// The cell's state.
    pub q: StateId,
    /// The estimate `N(qℓ)`.
    pub n_est: ExtFloat,
}

/// Output of one frontier group's union estimation.
pub struct GroupOut {
    /// The shared estimate of `|⋃_{p ∈ frontier} L(p^{ℓ-1})|`, fanned
    /// out to every member `(cell, symbol)` pair and seeded into the
    /// sampler memo under the group's key.
    pub estimate: ExtFloat,
    /// Counters attributable to this group's estimation work.
    pub stats: RunStats,
}

/// Output of one level's count pass: one [`GroupOut`] per plan group and
/// one [`CountOut`] per cell (both in canonical order; either list is a
/// prefix when the pass stopped early on budget exhaustion — a truncated
/// pass returns *no* cells, since a cell needs all its groups).
pub struct CountPass {
    /// Per-group estimation results, in plan order.
    pub groups: Vec<GroupOut>,
    /// Per-cell assembled counts, in cell order (empty on truncation).
    pub cells: Vec<CountOut>,
}

/// One hot sampler frontier the sharing pre-pass (D9) should estimate:
/// collected by the engine in canonical order, estimated by the policy
/// ([`ExecutionPolicy::share_pass`]) on the frontier-keyed sampler
/// streams.
pub struct ShareJob {
    /// The memo key the estimate will be seeded under.
    pub key: MemoKey,
    /// The frontier itself (the key carries only the interned id).
    pub frontier: StateSet,
}

/// Output of one sharing pre-pass estimation.
pub struct ShareOut {
    /// The sampler-precision union estimate for the job's frontier.
    pub estimate: ExtFloat,
    /// Counters attributable to this estimation.
    pub stats: RunStats,
}

/// Output of one sample-pass cell.
pub struct SampleOut {
    /// The cell's state.
    pub q: StateId,
    /// The filled sample multiset `S(qℓ)` (padded to `ns`).
    pub samples: SampleSet,
    /// Genuine (non-padding) samples collected.
    pub genuine: usize,
    /// Padding entries appended.
    pub padded: usize,
    /// Counters attributable to this cell.
    pub stats: RunStats,
}

/// Estimates one frontier group's union size once, for every member
/// `(cell, symbol)` pair at once (Algorithm 3 line 15). The group RNG is
/// derived from the frontier, never from a member cell, so every member
/// receives exactly the estimate a per-pair call would have computed.
pub fn run_group(
    ctx: &EngineCtx<'_>,
    table: &RunTable,
    ell: usize,
    group: &FrontierGroup,
    mut rng: SmallRng,
    scratch: &mut UnionScratch,
) -> GroupOut {
    let params = ctx.params;
    let mut stats = RunStats::default();
    let eps_sz = params.eps_sz_at_level(params.beta_count, ell);
    let inputs = frontier_inputs(table, ell - 1, &group.frontier);
    let estimate = app_union(
        params,
        params.beta_count,
        params.delta_count_inner(),
        eps_sz,
        &inputs,
        ctx.m,
        &mut rng,
        scratch,
        &mut stats,
    )
    .value;
    stats.batch.unions_run += 1;
    // Every member after the first is answered by sharing.
    let shared = u64::from(group.members) - 1;
    stats.batch.cells_deduped += shared;
    stats.batch.unions_skipped += shared;
    GroupOut { estimate, stats }
}

/// Assembles one cell's count from the level's shared group estimates
/// (Algorithm 3 lines 12–19): sums the per-symbol estimates, optionally
/// injects the paper's analysis noise.
pub fn assemble_count_cell<R: Rng + ?Sized>(
    ctx: &EngineCtx<'_>,
    ell: usize,
    q: StateId,
    groups_of_cell: &[Option<usize>],
    estimates: &[ExtFloat],
    rng: &mut R,
) -> CountOut {
    let params = ctx.params;
    let mut n_est = ExtFloat::ZERO;
    for gi in groups_of_cell.iter().flatten() {
        n_est = n_est + estimates[*gi];
    }

    // Noise injection (lines 16–19) — analysis artifact, only under the
    // paper profile (DESIGN.md D2). The length entering the probability
    // is the params' derivation length, not the run horizon, so the
    // draw is identical whether the level is built fresh or by an
    // extending session (D11).
    if params.inject_noise {
        let p_noise = params.eta / (2.0 * params.n_hint as f64);
        if rng.random_bool(p_noise.clamp(0.0, 1.0)) {
            let u: f64 = rng.random_range(0.0..1.0);
            n_est = ExtFloat::pow2(ell as i64).scale(u);
        }
    }

    CountOut { q, n_est }
}

/// Sample pass for one `(q, ℓ)` cell (Algorithm 3 lines 20–30): draws up
/// to `ns` words by Algorithm 2 within `xns` attempts, padding with the
/// cell's witness word when short.
pub(crate) fn sample_cell<R: Rng + ?Sized>(
    ctx: &EngineCtx<'_>,
    table: &RunTable,
    memo: &mut UnionMemo,
    ell: usize,
    q: StateId,
    rng: &mut R,
    scratch: &mut SamplerScratch,
) -> SampleOut {
    let params = ctx.params;
    let env = SamplerEnv {
        params,
        substrate: ctx.substrate,
        interner: ctx.interner,
        sampler_seed: ctx.sampler_seed,
    };
    let mut stats = RunStats::default();
    let mut collected: Vec<SampleEntry> = Vec::with_capacity(params.ns);
    let mut attempts = 0usize;
    while collected.len() < params.ns && attempts < params.xns {
        attempts += 1;
        match sample_word(&env, table, memo, q, ell, rng, scratch, &mut stats) {
            SampleOutcome::Word(w) => {
                let reach = ctx.substrate.reach(&w);
                debug_assert!(
                    reach.contains(q as usize),
                    "sampled word must reach its cell's state"
                );
                collected.push(SampleEntry { word: w, reach });
            }
            SampleOutcome::DeadEnd => break,
            SampleOutcome::FailPhi | SampleOutcome::FailCoin => {}
        }
    }
    let genuine = collected.len();
    let mut samples = SampleSet::empty();
    for e in collected {
        samples.push(e);
    }
    let padded = params.ns - genuine;
    if padded > 0 {
        let wit = ctx.substrate.witness(q, ell).expect("reachable cell must have a witness word");
        let reach = ctx.substrate.reach(&wit);
        samples.pad(SampleEntry { word: wit, reach }, padded);
    }
    SampleOut { q, samples, genuine, padded, stats }
}

/// Collects the sample-pass frontier-sharing pre-pass's work list
/// (DESIGN.md D9): the level's *hot* sampler frontiers, in canonical
/// order, that are not yet memoized.
///
/// Hot frontiers are the depth-two predecessor frontiers a sampler walk
/// from a live cell can query on its second backward step:
/// `step_back(F, b) ∩ reach(ℓ−2)` for every count-pass frontier group
/// `F` referenced by a live cell with a positive union estimate, and
/// every symbol `b`. (Depth-one frontiers are the count-pass groups
/// themselves, already seeded at [`MemoTier::Count`]; deeper frontiers
/// depend on random branch choices and stay lazy.) Collection is pure
/// set arithmetic — no membership ops — so the budget only constrains
/// the estimations themselves, which the policy runs
/// ([`ExecutionPolicy::share_pass`]) on the frontier-keyed sampler
/// streams: a cell that would have estimated the frontier lazily
/// computes the identical value, so sharing changes work, never output.
fn collect_share_jobs(
    ctx: &EngineCtx<'_>,
    plan: &LevelPlan,
    memo: &UnionMemo,
    ell: usize,
    live: &[StateId],
    stats: &mut RunStats,
) -> Vec<ShareJob> {
    // The depth-two expansion needs a level ℓ−2 to land on.
    if ell < 2 {
        return Vec::new();
    }
    let mut is_live = vec![false; ctx.m];
    for &q in live {
        is_live[q as usize] = true;
    }
    // Groups referenced by at least one live cell, in canonical order.
    let mut group_used = vec![false; plan.groups().len()];
    for (i, &q) in plan.cells().iter().enumerate() {
        if is_live[q as usize] {
            for gi in plan.cell_groups(i).iter().flatten() {
                group_used[*gi] = true;
            }
        }
    }
    let mut seen: HashSet<MemoKey, BuildKeyHasher> = HashSet::default();
    let mut jobs = Vec::new();
    // One probe buffer for the whole scan: only frontiers that become
    // jobs are materialized.
    let mut fb = StateSet::empty(ctx.m);
    for (gi, group) in plan.groups().iter().enumerate() {
        if !group_used[gi] {
            continue;
        }
        // The sampler only descends into branches with a positive union
        // estimate; a zero-valued group's successors are never queried.
        if memo.get(&plan.key(gi)).is_none_or(|e| e.value.is_zero()) {
            continue;
        }
        for sym in 0..ctx.k {
            ctx.substrate.step_back_into(&group.frontier, sym, &mut fb);
            fb.intersect_with(ctx.substrate.reachable(ell - 2));
            if fb.is_empty() {
                continue;
            }
            let key = ctx.interner.intern(ell - 2, &fb);
            if !seen.insert(key) {
                continue;
            }
            if memo.contains_key(&key) {
                stats.share.keys_already_seeded += 1;
                continue;
            }
            jobs.push(ShareJob { key, frontier: fb.clone() });
        }
    }
    jobs
}

/// Aborts the run once the membership-op budget is exceeded.
fn check_budget(params: &Params, stats: &RunStats) -> Result<(), FprasError> {
    if let Some(budget) = params.max_membership_ops {
        if stats.membership_ops > budget {
            return Err(FprasError::BudgetExceeded { ops: stats.membership_ops });
        }
    }
    Ok(())
}

/// Runs one level of the DP: the count pass over the level's frontier
/// groups and cells, the sharing pre-pass, the memo commit, and the
/// sample pass over the live cells.
///
/// This is the loop body of [`Checkpoint::extend`], which every fresh
/// run and every session extension goes through — the whole
/// bit-identity argument of DESIGN.md D11 rests on that one loop.
/// Everything it reads is a function of `(params, level, table, memo)`
/// — never of the run's current horizon — provided `params.trim_dead`
/// is off (the alive-set filter is the one horizon-dependent input;
/// sessions reject it).
fn run_level<P: ExecutionPolicy>(
    ctx: &EngineCtx<'_>,
    table: &mut RunTable,
    memo: &mut UnionMemo,
    stats: &mut RunStats,
    ell: usize,
    policy: &mut P,
) -> Result<(), FprasError> {
    let params = ctx.params;
    let m = ctx.m;
    let substrate = ctx.substrate;
    // Phase attribution (DESIGN.md D15): pure clock reads around each
    // phase, accumulated incrementally so a budget abort mid-level
    // still leaves the finished phases attributed. Observation only —
    // no RNG stream and no estimate is touched.
    let phase_start = Instant::now();
    let useful: Vec<StateId> = (0..m as StateId)
        .filter(|&q| {
            let reachable = substrate.reachable(ell).contains(q as usize);
            reachable && (!params.trim_dead || substrate.alive(ell).contains(q as usize))
        })
        .collect();
    stats.cells_skipped += (m - useful.len()) as u64;
    stats.cells_processed += useful.len() as u64;

    // Remaining op budget, offered to the policy so it can stop a
    // pass early (a truncated pass is detected by the check below).
    let ops_remaining = params.max_membership_ops.map(|b| b.saturating_sub(stats.membership_ops));

    // ---- Pass 1: count phase (batched over frontier groups) ----
    let plan = LevelPlan::build(ctx, ell, &useful);
    stats.batch.groups_formed += plan.groups().len() as u64;
    stats.batch.unions_skipped += plan.empty_pairs();
    let plan_wall = phase_start.elapsed();
    stats.phase.plan += plan_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "plan",
        items: plan.groups().len() as u64,
        wall_us: plan_wall.as_micros() as u64,
    });

    let count_start = Instant::now();
    let pass = policy.count_pass(ctx, &plan, table, ops_remaining);
    let count_wall = count_start.elapsed();
    stats.phase.count += count_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "count",
        items: useful.len() as u64,
        wall_us: count_wall.as_micros() as u64,
    });
    debug_assert!(pass.groups.len() <= plan.groups().len(), "count pass exceeds group list");
    debug_assert!(pass.cells.len() <= useful.len(), "count pass output exceeds cell list");
    let count_truncated = pass.cells.len() < useful.len();
    let merge_start = Instant::now();
    for (gi, out) in pass.groups.iter().enumerate() {
        stats.merge(&out.stats);
        // Seed the sampler's memo with the high-precision count-phase
        // value (DESIGN.md D4), first-wins in canonical group order:
        // deterministic regardless of how the pass was scheduled.
        if params.memoize_unions {
            memo.insert_first_wins(plan.key(gi), out.estimate, MemoTier::Count);
        }
    }
    // The plan's static dedup count and the pass's dynamic
    // accounting are two definitions of the same quantity; a
    // complete pass must reconcile them exactly.
    debug_assert!(
        count_truncated
            || pass.groups.iter().map(|g| g.stats.batch.cells_deduped).sum::<u64>()
                == plan.deduped_pairs(),
        "plan and pass disagree on deduplicated pairs"
    );
    for out in pass.cells {
        table.cell_mut(ell, out.q as usize).n_est = out.n_est;
    }
    stats.phase.merge += merge_start.elapsed();
    check_budget(params, stats)?;
    debug_assert!(!count_truncated, "a pass may only stop early when the budget is spent");

    // ---- Sharing pre-pass (D9): seed the hot sampler frontiers ----
    let share_start = Instant::now();
    let live: Vec<StateId> =
        useful.iter().copied().filter(|&q| !table.cell(ell, q as usize).n_est.is_zero()).collect();
    if params.memoize_unions {
        let jobs = collect_share_jobs(ctx, &plan, memo, ell, &live, stats);
        let ops_remaining =
            params.max_membership_ops.map(|b| b.saturating_sub(stats.membership_ops));
        let outs = policy.share_pass(ctx, &jobs, table, ops_remaining);
        debug_assert!(outs.len() <= jobs.len(), "share pass output exceeds job list");
        let share_truncated = outs.len() < jobs.len();
        // `zip` realizes the prefix semantics: a truncated pass
        // seeds only what it estimated, and the budget check below
        // aborts before any cell could observe the difference.
        for (job, out) in jobs.iter().zip(outs) {
            stats.merge(&out.stats);
            memo.insert_first_wins(job.key, out.estimate, MemoTier::Shared);
            stats.share.frontiers_preestimated += 1;
        }
        let share_wall = share_start.elapsed();
        stats.phase.share += share_wall;
        crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
            level: ell,
            phase: "share",
            items: jobs.len() as u64,
            wall_us: share_wall.as_micros() as u64,
        });
        check_budget(params, stats)?;
        debug_assert!(!share_truncated, "a pass may only stop early when the budget is spent");
    } else {
        stats.phase.share += share_start.elapsed();
    }

    // Commit the level's seeds (count tier + shared tier, plus the
    // previous level's sampler insertions) into the immutable base
    // layer, so the whole sample pass shares one O(1) snapshot.
    let commit_start = Instant::now();
    let promoted = memo.commit();
    stats.memo.commits += 1;
    stats.memo.entries_promoted += promoted as u64;
    stats.phase.merge += commit_start.elapsed();
    crate::obs::emit_with(|| crate::obs::TraceEvent::MemoCommit {
        level: ell,
        promoted: promoted as u64,
    });

    // ---- Pass 2: sample phase (live cells only) ----
    let ops_remaining = params.max_membership_ops.map(|b| b.saturating_sub(stats.membership_ops));
    let sample_start = Instant::now();
    let sampled = policy.sample_pass(ctx, ell, &live, table, memo, ops_remaining);
    let sample_wall = sample_start.elapsed();
    stats.phase.sample += sample_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "sample",
        items: live.len() as u64,
        wall_us: sample_wall.as_micros() as u64,
    });
    debug_assert!(sampled.len() <= live.len(), "sample pass output exceeds cell list");
    let sample_truncated = sampled.len() < live.len();
    let merge_start = Instant::now();
    for out in sampled {
        stats.merge(&out.stats);
        stats.samples_stored += out.genuine as u64;
        if out.padded > 0 {
            stats.padded_cells += 1;
            stats.padded_entries += out.padded as u64;
        }
        table.cell_mut(ell, out.q as usize).samples = out.samples;
    }
    let merge_wall = merge_start.elapsed();
    stats.phase.merge += merge_wall;
    crate::obs::emit_with(|| crate::obs::TraceEvent::Pass {
        level: ell,
        phase: "merge",
        items: promoted as u64,
        wall_us: merge_wall.as_micros() as u64,
    });
    check_budget(params, stats)?;
    debug_assert!(!sample_truncated, "a pass may only stop early when the budget is spent");
    Ok(())
}

/// Normalizes an automaton for the DP (DESIGN.md D7): trims to useful
/// states and folds the accepting states into one. Returns `None` when
/// trimming leaves nothing (the language is empty at every length > 0).
/// Shared by fresh runs and sessions so both run the DP on the same
/// automaton.
pub(crate) fn normalize_for_run(nfa: &Nfa) -> Option<(Nfa, StateId)> {
    let trimmed = trim(nfa)?;
    let normalized = with_single_accepting(&trimmed);
    let q_final =
        normalized.accepting().iter().next().expect("normalized automaton has an accepting state")
            as StateId;
    Some((normalized, q_final))
}

/// Writes level 0 of the DP (Algorithm 3 lines 6–10):
/// `N(I⁰) = 1, S(I⁰) = (λ, λ, …)`, for every substrate (the source cell
/// is always the sole level-0 seed).
fn seed_level_zero(table: &mut RunTable, substrate: &dyn LeveledSubstrate, params: &Params) {
    let m = substrate.universe();
    let init = substrate.initial();
    let cell = table.cell_mut(0, init);
    cell.n_est = ExtFloat::ONE;
    cell.samples = SampleSet::repeated(
        SampleEntry { word: fpras_automata::Word::empty(), reach: StateSet::singleton(m, init) },
        params.ns,
    );
}

/// Runs the FPRAS on `nfa` for words of length `n` under `policy`.
///
/// This is the single entry point behind [`FprasRun::run`] (Serial
/// policy) and [`run_parallel`] (Deterministic policy); direct callers
/// can plug any [`ExecutionPolicy`].
pub fn run_with_policy<P: ExecutionPolicy>(
    nfa: &Nfa,
    n: usize,
    params: &Params,
    policy: &mut P,
) -> Result<FprasRun, FprasError> {
    let start = Instant::now();
    params.validate()?;
    params.check_length(n)?;
    // n = 0 is answered directly (the DP is about positive-length
    // words); otherwise normalize: trim, then fold accepting states
    // (DESIGN.md D7). The views are built at horizon n up front, so the
    // `trim_dead` alive sets are final before the first level.
    let substrate = (n > 0)
        .then(|| normalize_for_run(nfa))
        .flatten()
        .map(|(normalized, q_final)| NfaSubstrate::new(normalized, q_final, n))
        .filter(NfaSubstrate::language_nonempty);
    run_fresh(substrate, n, params, policy, nfa.is_accepting(nfa.initial()), start)
}

/// Runs the FPRAS over an nROBP under `policy`, estimating the number
/// of accepted assignments (length-`depth` words over the program's
/// alphabet). The run length is the program's intrinsic depth; the
/// degenerate cases (no accepting node reachable) short-circuit exactly
/// like an empty NFA slice.
pub fn run_robp_with_policy<P: ExecutionPolicy>(
    robp: &Robp,
    params: &Params,
    policy: &mut P,
) -> Result<FprasRun, FprasError> {
    let start = Instant::now();
    params.validate()?;
    params.check_length(robp.depth())?;
    let substrate = Some(RobpSubstrate::new(robp)).filter(RobpSubstrate::language_nonempty);
    run_fresh(substrate, robp.depth(), params, policy, false, start)
}

/// The substrate-generic fresh run: [`Checkpoint::open`] plus
/// [`Checkpoint::extend`] to `n`. `None` is a degenerate run (`n = 0`,
/// or an empty slice), answered without touching the policy — so the
/// Serial caller RNG is left exactly where it was.
fn run_fresh<S: LeveledSubstrate + 'static, P: ExecutionPolicy>(
    substrate: Option<S>,
    n: usize,
    params: &Params,
    policy: &mut P,
    accepts_lambda: bool,
    start: Instant,
) -> Result<FprasRun, FprasError> {
    let mut stats = RunStats::default();
    let (inner, estimate, accepts_lambda) = match substrate {
        Some(substrate) => {
            let mut run = Checkpoint::open(Box::new(substrate), params, policy);
            run.extend(n, params, policy, &mut stats)?;
            let estimate = run.estimate(n);
            (Some(run), estimate, accepts_lambda)
        }
        None => {
            let lambda = n == 0 && accepts_lambda;
            (None, if lambda { ExtFloat::ONE } else { ExtFloat::ZERO }, lambda)
        }
    };
    // The run's wall includes the front-end (normalization, unrolling).
    stats.wall = start.elapsed();
    stats.wall_max = stats.wall;
    Ok(FprasRun { inner, n, estimate, params: params.clone(), stats, accepts_lambda })
}

/// [`run_robp_with_policy`] with the [`Deterministic`] policy — the
/// nROBP counterpart of [`run_parallel`], bit-identical for every
/// `threads ≥ 1`.
pub fn run_robp_parallel(
    robp: &Robp,
    params: &Params,
    master_seed: u64,
    threads: usize,
) -> Result<FprasRun, FprasError> {
    run_robp_with_policy(robp, params, &mut Deterministic::new(master_seed, threads))
}

/// Runs the FPRAS with level-synchronous parallelism over states.
///
/// Contract-equivalent to [`FprasRun::run`] (same `(ε, δ)` guarantee,
/// same table/generator output shape); differs in taking a master seed
/// instead of an `&mut Rng` so that per-cell streams can be derived.
/// The returned run is **bit-identical for any `threads ≥ 1`**.
///
/// ```
/// use fpras_automata::{Alphabet, NfaBuilder};
/// use fpras_core::{run_parallel, Params};
///
/// let mut b = NfaBuilder::new(Alphabet::binary());
/// let q = b.add_state();
/// b.set_initial(q);
/// b.add_accepting(q);
/// b.add_transition(q, 0, q);
/// b.add_transition(q, 1, q);
/// let nfa = b.build().unwrap();
///
/// let params = Params::practical(0.3, 0.1, 1, 8);
/// let two = run_parallel(&nfa, 8, &params, 7, 2).unwrap();
/// let eight = run_parallel(&nfa, 8, &params, 7, 8).unwrap();
/// assert_eq!(two.estimate().to_f64(), eight.estimate().to_f64());
/// ```
pub fn run_parallel(
    nfa: &Nfa,
    n: usize,
    params: &Params,
    master_seed: u64,
    threads: usize,
) -> Result<FprasRun, FprasError> {
    run_with_policy(nfa, n, params, &mut Deterministic::new(master_seed, threads))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::UniformGenerator;
    use fpras_automata::{Alphabet, NfaBuilder};
    use rand::{rngs::SmallRng, SeedableRng};

    fn contains_11() -> Nfa {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q0 = b.add_state();
        let q1 = b.add_state();
        let q2 = b.add_state();
        b.set_initial(q0);
        b.add_accepting(q2);
        b.add_transition(q0, 0, q0);
        b.add_transition(q0, 1, q0);
        b.add_transition(q0, 1, q1);
        b.add_transition(q1, 1, q2);
        b.add_transition(q2, 0, q2);
        b.add_transition(q2, 1, q2);
        b.build().unwrap()
    }

    #[test]
    fn different_seeds_differ() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 10);
        let a = run_parallel(&nfa, 10, &params, 1, 4).unwrap();
        let b = run_parallel(&nfa, 10, &params, 2, 4).unwrap();
        // Estimates are both accurate but almost surely not identical.
        assert_ne!(a.estimate().to_f64(), b.estimate().to_f64());
    }

    #[test]
    fn degenerate_cases() {
        let nfa = contains_11();
        let params = Params::practical(0.3, 0.1, 3, 4);
        // n = 0: λ not accepted.
        assert!(run_parallel(&nfa, 0, &params, 0, 4).unwrap().estimate().is_zero());
        // Empty slice.
        assert!(run_parallel(&nfa, 1, &params, 0, 4).unwrap().estimate().is_zero());
    }

    #[test]
    fn budget_guard_trips() {
        let nfa = contains_11();
        let mut params = Params::practical(0.3, 0.1, 3, 8);
        params.max_membership_ops = Some(10);
        assert!(matches!(
            run_parallel(&nfa, 8, &params, 1, 4),
            Err(FprasError::BudgetExceeded { .. })
        ));
    }

    #[test]
    fn share_pre_pass_honors_budget_granularity() {
        // The sharing pre-pass must stop scheduling estimations once the
        // remaining op budget is spent, like the Serial policy's passes:
        // with a budget that dies inside the pre-pass, the reported
        // overshoot must stay below the cost of the level's full
        // pre-pass + sample pass (which an unbounded pre-pass would
        // approach on a wide level).
        let nfa = contains_11();
        let n = 8;
        let mut params = Params::practical(0.3, 0.1, 3, n);
        // Unbounded run: total ops with the pre-pass fully executed.
        let total = {
            let mut rng = SmallRng::seed_from_u64(2);
            FprasRun::run(&nfa, n, &params, &mut rng).unwrap().stats().membership_ops
        };
        // Tight budget: trips during an early level. The overshoot must
        // stay bounded by one unit of work, far below the full total.
        params.max_membership_ops = Some(total / 50);
        let mut rng = SmallRng::seed_from_u64(2);
        match FprasRun::run(&nfa, n, &params, &mut rng) {
            Err(FprasError::BudgetExceeded { ops }) => {
                assert!(ops > total / 50, "guard must report the overshooting total");
                assert!(ops < total / 2, "budget abort must not run anywhere near the full run");
            }
            other => panic!("expected budget error, got {:?}", other.map(|r| r.estimate())),
        }
    }

    #[test]
    fn serial_budget_stops_within_a_pass_not_a_level() {
        // The Serial policy honors the remaining-op budget per frontier
        // group: on a multi-group level it must abort after the first
        // offending group, so its reported overshoot is at most one
        // group's work — strictly less than the Deterministic policy,
        // which finishes the whole pass (per-pass granularity, see
        // policy docs). Level 1 always has exactly one group (frontiers
        // live inside reach(0) = {init}), so probe its cost first and
        // set the budget to trip inside level 2, where contains-11 has
        // two groups ({q0} and {q1}).
        let nfa = contains_11();
        let mut params = Params::practical(0.3, 0.1, 3, 8);
        params.max_membership_ops = Some(1);
        let level_one_ops = {
            let mut rng = SmallRng::seed_from_u64(1);
            match FprasRun::run(&nfa, 8, &params, &mut rng) {
                Err(FprasError::BudgetExceeded { ops }) => ops,
                other => panic!("expected budget error, got {:?}", other.map(|r| r.estimate())),
            }
        };
        params.max_membership_ops = Some(level_one_ops + 1);
        let serial_ops = {
            let mut rng = SmallRng::seed_from_u64(1);
            match FprasRun::run(&nfa, 8, &params, &mut rng) {
                Err(FprasError::BudgetExceeded { ops }) => ops,
                other => panic!("expected budget error, got {:?}", other.map(|r| r.estimate())),
            }
        };
        let parallel_ops = match run_parallel(&nfa, 8, &params, 1, 4) {
            Err(FprasError::BudgetExceeded { ops }) => ops,
            other => panic!("expected budget error, got {:?}", other.map(|r| r.estimate())),
        };
        assert!(serial_ops > level_one_ops + 1, "guard must still report the overshooting total");
        assert!(
            serial_ops < parallel_ops,
            "serial ({serial_ops} ops) must stop before a full pass ({parallel_ops} ops)"
        );
    }

    #[test]
    fn generator_works_on_parallel_run() {
        let nfa = contains_11();
        let n = 8;
        let params = Params::practical(0.3, 0.1, 3, n);
        let run = run_parallel(&nfa, n, &params, 5, 4).unwrap();
        let mut generator = UniformGenerator::new(run);
        let mut rng = SmallRng::seed_from_u64(6);
        for _ in 0..20 {
            let w = generator.generate(&mut rng).expect("language non-empty");
            assert_eq!(w.len(), n);
            assert!(nfa.accepts(&w));
        }
    }

    #[test]
    fn shared_tier_equals_lazy_recomputation() {
        // Every entry the sharing pre-pass seeds must hold exactly the
        // value the sampler's lazy miss path would compute for its key:
        // the same frontier-keyed stream over the same (by then final)
        // table level. Checked after whole runs, for both policies.
        use crate::sampler::estimate_frontier_union;
        use fpras_workloads::{random_nfa, RandomNfaConfig};
        let mut shared_entries = 0usize;
        for case in 0..12u64 {
            let config = RandomNfaConfig {
                states: 3 + (case % 5) as usize,
                alphabet: 2,
                density: 1.6 + (case % 3) as f64 * 0.5,
                accepting: 1,
            };
            let nfa = random_nfa(&config, &mut SmallRng::seed_from_u64(100 + case));
            let n = 6 + (case % 3) as usize;
            let params = Params::practical(0.4, 0.1, config.states, n);
            let serial = FprasRun::run(&nfa, n, &params, &mut SmallRng::seed_from_u64(case));
            let parallel = run_parallel(&nfa, n, &params, case, 3);
            for run in [serial.unwrap(), parallel.unwrap()] {
                let Some(inner) = run.inner.as_ref() else { continue };
                let m = inner.table.num_states();
                let mut scratch = UnionScratch::new();
                for (key, entry) in inner.memo.entries() {
                    if entry.tier != MemoTier::Shared {
                        continue;
                    }
                    let mut frontier = StateSet::empty(m);
                    inner.interner.with_words(key.frontier(), |w| frontier.union_with_words(w));
                    let lazy = estimate_frontier_union(
                        &params,
                        &inner.table,
                        *key,
                        &frontier,
                        inner.sampler_seed,
                        &mut scratch,
                        &mut RunStats::default(),
                    );
                    assert_eq!(
                        entry.value,
                        lazy,
                        "case {case}: shared entry at level {} differs from lazy value",
                        key.level()
                    );
                    shared_entries += 1;
                }
            }
        }
        assert!(shared_entries > 20, "only {shared_entries} shared entries checked");
    }
}
