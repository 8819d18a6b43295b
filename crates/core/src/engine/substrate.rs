//! The leveled-DAG substrate abstraction (DESIGN.md D14).
//!
//! Algorithm 3 never needed an NFA — it needs a *leveled DAG*: cells
//! arranged in levels `0..=n`, a distinguished source cell at level 0, a
//! per-`(cell, symbol)` canonical predecessor frontier one level down,
//! and an alphabet width. The unrolled NFA (Fig. 1, line 1) is one such
//! structure; Meel et al.'s nROBP FPRAS (arXiv 2406.16515) and the
//! #CFG/#DNNF results (arXiv 2406.18224) run the identical
//! count/sample machinery on others. [`LeveledSubstrate`] is that
//! contract: everything the engine (`run_level`, `LevelPlan` batching,
//! the share pre-pass), the sampler, and the witness-padding step read
//! about the input goes through this trait, so the whole pipeline is
//! generic over the substrate.
//!
//! # The bit-identity obligation
//!
//! All estimation randomness downstream is keyed on frontier *content*
//! (interned `MemoKey::rng_tag`s — DESIGN.md D8/D9), so a substrate
//! implementation pins the engine's output bits through the *sets* it
//! returns: two implementations that produce identical
//! `reachable`/`pred_of_cell_into`/`step_back_into` contents produce
//! bit-identical runs. [`NfaSubstrate`] therefore reproduces exactly
//! the sets the engine built before the trait existed (the golden-stream
//! fixtures in `tests/golden_streams.rs` enforce this), and the raw
//! backward step deliberately stays *unfiltered* — the engine performs
//! the `∩ reachable(ℓ-1)` intersection itself, exactly where it always
//! did, so set contents and op accounting are unchanged.

use crate::error::FprasError;
use crate::table::splitmix64;
use fpras_automata::ops::{trim, with_single_accepting};
use fpras_automata::robp::Robp;
use fpras_automata::{Nfa, StateId, StateSet, StepMasks, Unrolling, Word};

/// A leveled DAG the engine can count and sample over.
///
/// Implementations are consumed through `&dyn LeveledSubstrate` on the
/// engine hot path; every method is either a per-level set lookup or a
/// chunky word-parallel kernel, so dynamic dispatch is noise next to the
/// set arithmetic behind it. `Send + Sync` because the `Deterministic`
/// policy fans passes out over its work-stealing pool.
pub trait LeveledSubstrate: Send + Sync {
    /// Short substrate label for diagnostics and trace events
    /// (`"nfa"` / `"robp"`). Purely observational — nothing on the DP
    /// path reads it.
    fn kind(&self) -> &'static str {
        "substrate"
    }

    /// Size of the cell universe (the `m` of the run): cell ids are
    /// `0..universe()` and every [`StateSet`] exchanged with the engine
    /// ranges over it.
    fn universe(&self) -> usize;

    /// Alphabet width `k`: symbols are `0..width()`.
    fn width(&self) -> usize;

    /// The source cell at level 0 (the DP's `N = 1` seed).
    fn initial(&self) -> usize;

    /// The accepting cell whose level-`n` estimate answers the query.
    fn final_cell(&self) -> u32;

    /// Highest level the per-level views currently cover.
    fn horizon(&self) -> usize;

    /// Grows the per-level views to cover `0..=n` (no-op when already
    /// covered). Substrates with an intrinsic depth (an nROBP reads each
    /// variable once, so its level count is fixed) may refuse larger
    /// horizons by panicking; callers gate on [`Self::horizon`] first.
    fn ensure_horizon(&mut self, n: usize);

    /// Cells at `level` reachable from the source — `L(c^ℓ) ≠ ∅`.
    fn reachable(&self, level: usize) -> &StateSet;

    /// Cells at `level` that can still reach [`Self::final_cell`] within
    /// the current horizon. Only consulted under `Params::trim_dead`
    /// (horizon-dependent; sessions reject that knob).
    fn alive(&self, level: usize) -> &StateSet;

    /// Writes the raw predecessor set `Pred(q, sym)` of one cell into
    /// `out` (cleared first). The engine intersects with
    /// `reachable(level - 1)` itself when building a [`super::LevelPlan`].
    fn pred_of_cell_into(&self, q: u32, sym: u8, out: &mut StateSet);

    /// Writes the raw backward step `⋃_{c ∈ of} Pred(c, sym)` into `out`
    /// (cleared first) — Algorithm 2 line 9. Unfiltered: the sampler and
    /// the share pre-pass intersect with the reachable set themselves.
    fn step_back_into(&self, of: &StateSet, sym: u8, out: &mut StateSet);

    /// A deterministic word of length `level` in `L(q^level)`, or `None`
    /// when the cell is unreachable — Algorithm 3's padding witness
    /// (lines 27–30). Repeated calls must return the same word.
    fn witness(&self, q: u32, level: usize) -> Option<Word>;

    /// Cells reachable from the source via `word` — the membership
    /// oracle's per-word value (§4.3).
    fn reach(&self, word: &Word) -> StateSet;

    /// True iff the final cell is reachable at `level` (`L_level ≠ ∅`).
    fn slice_nonempty(&self, level: usize) -> bool {
        self.reachable(level).contains(self.final_cell() as usize)
    }
}

/// What a caller counts over: the front-end behind every run entry
/// point (`engine::run_with_policy`, `FprasRun::run`,
/// `QuerySession::new`, `SessionKey::new` and the registry lookups).
///
/// It owns the only choices that differ per substrate; everything after
/// it — the checkpointed run, sessions, the cache — is generic. A new
/// substrate implements this trait and [`LeveledSubstrate`], and no
/// entry point changes.
pub trait RunInput {
    /// The normalized substrate with views covering levels
    /// `0..=horizon`, or `None` when the language is empty at every
    /// positive length.
    fn substrate(&self, horizon: usize) -> Option<Box<dyn LeveledSubstrate>>;

    /// True iff the empty word is accepted (length 0 is answered from
    /// this, never by the DP).
    fn accepts_lambda(&self) -> bool;

    /// The longest length a run or session over this input can serve.
    fn max_len(&self) -> usize;

    /// A 64-bit fingerprint of the input's exact structure: the
    /// substrate part of a session cache key. Each implementation seeds
    /// its hash with its own constant, so two substrates never alias one
    /// key even when their graphs coincide edge for edge.
    fn fingerprint(&self) -> u64;
}

/// Refuses a length past the input's [`RunInput::max_len`] before any
/// substrate view is indexed at it.
pub(crate) fn check_servable<I: RunInput + ?Sized>(input: &I, n: usize) -> Result<(), FprasError> {
    if n > input.max_len() {
        return Err(FprasError::InvalidParams(format!(
            "length {n} exceeds {}, the longest length this input can serve (an nROBP reads \
             each variable once, so its depth bounds every run)",
            input.max_len()
        )));
    }
    Ok(())
}

/// An NFA is normalized for the DP (DESIGN.md D7): trimmed to useful
/// states, accepting states folded into one. Unbounded in length.
impl RunInput for Nfa {
    fn substrate(&self, horizon: usize) -> Option<Box<dyn LeveledSubstrate>> {
        let trimmed = trim(self)?;
        let normalized = with_single_accepting(&trimmed);
        let q_final = normalized
            .accepting()
            .iter()
            .next()
            .expect("normalized automaton has an accepting state") as StateId;
        Some(Box::new(NfaSubstrate::new(normalized, q_final, horizon)))
    }

    fn accepts_lambda(&self) -> bool {
        self.is_accepting(self.initial())
    }

    fn max_len(&self) -> usize {
        usize::MAX
    }

    /// Hashes alphabet size, states, initial/accepting sets and the full
    /// transition list. Isomorphic-but-relabelled automata hash
    /// differently, which is the right granularity for a session cache
    /// (a relabelled automaton would produce a differently-normalized
    /// run anyway).
    fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0x0F0A_F1D0;
        let mut mix = |v: u64| {
            acc = splitmix64(acc ^ splitmix64(v));
        };
        mix(self.alphabet().size() as u64);
        mix(self.num_states() as u64);
        mix(self.initial() as u64);
        for q in self.accepting().iter() {
            mix(q as u64 + 1);
        }
        mix(u64::MAX); // separator: accepting list vs transition list
        for (from, sym, to) in self.transitions() {
            mix(((from as u64) << 40) | ((sym as u64) << 32) | to as u64);
        }
        acc
    }
}

/// An nROBP is already a leveled DAG. It reads each variable once, so
/// its depth is the longest servable length; λ is never accepted
/// (depth ≥ 1 by construction).
impl RunInput for Robp {
    fn substrate(&self, _horizon: usize) -> Option<Box<dyn LeveledSubstrate>> {
        let substrate = RobpSubstrate::new(self);
        substrate.slice_nonempty(self.depth()).then(|| Box::new(substrate) as _)
    }

    fn accepts_lambda(&self) -> bool {
        false
    }

    fn max_len(&self) -> usize {
        self.depth()
    }

    /// Hashes the header (alphabet size, nodes, depth, source, sink) and
    /// the edge list, from a seed one above the NFA's.
    fn fingerprint(&self) -> u64 {
        let mut acc: u64 = 0x0F0A_F1D1;
        let mut mix = |v: u64| {
            acc = splitmix64(acc ^ splitmix64(v));
        };
        let graph = self.graph();
        mix(graph.alphabet().size() as u64);
        mix(self.num_nodes() as u64);
        mix(self.depth() as u64);
        mix(self.source() as u64);
        mix(self.sink() as u64);
        mix(u64::MAX); // separator: header vs edge list
        for (from, sym, to) in graph.transitions() {
            mix(((from as u64) << 40) | ((sym as u64) << 32) | to as u64);
        }
        acc
    }
}

/// The original substrate: a normalized NFA (trimmed, single accepting
/// state) with its [`Unrolling`] reachability views and [`StepMasks`]
/// stepping arenas.
pub struct NfaSubstrate {
    pub(crate) nfa: Nfa,
    pub(crate) unroll: Unrolling,
    pub(crate) masks: StepMasks,
    q_final: u32,
}

impl NfaSubstrate {
    /// Wraps a *normalized* automaton (see [`RunInput::substrate`])
    /// with views covering levels `0..=n`.
    pub fn new(nfa: Nfa, q_final: u32, n: usize) -> Self {
        let unroll = Unrolling::new(&nfa, n);
        let masks = StepMasks::new(&nfa);
        NfaSubstrate { nfa, unroll, masks, q_final }
    }
}

impl LeveledSubstrate for NfaSubstrate {
    fn kind(&self) -> &'static str {
        "nfa"
    }

    fn universe(&self) -> usize {
        self.nfa.num_states()
    }

    fn width(&self) -> usize {
        self.nfa.alphabet().size()
    }

    fn initial(&self) -> usize {
        self.nfa.initial() as usize
    }

    fn final_cell(&self) -> u32 {
        self.q_final
    }

    fn horizon(&self) -> usize {
        self.unroll.horizon()
    }

    fn ensure_horizon(&mut self, n: usize) {
        self.unroll.extend_to(&self.nfa, n);
    }

    fn reachable(&self, level: usize) -> &StateSet {
        self.unroll.reachable(level)
    }

    fn alive(&self, level: usize) -> &StateSet {
        self.unroll.alive(level)
    }

    fn pred_of_cell_into(&self, q: u32, sym: u8, out: &mut StateSet) {
        out.clear();
        out.union_with_words(self.masks.pred_row(sym, q as usize));
    }

    fn step_back_into(&self, of: &StateSet, sym: u8, out: &mut StateSet) {
        self.masks.step_back_into(of, sym, out);
    }

    fn witness(&self, q: u32, level: usize) -> Option<Word> {
        self.unroll.witness(&self.nfa, q, level)
    }

    fn reach(&self, word: &Word) -> StateSet {
        self.masks.reach(word)
    }
}

/// The nROBP substrate: a non-deterministic read-once branching program
/// ([`fpras_automata::robp::Robp`]) is already a leveled DAG — every
/// node sits at exactly one level, edges advance one level, the source
/// is the sole level-0 node and the sink the sole accepting node at
/// level `depth` — so the per-level views are plain per-level
/// reachable/co-reachable node sets, no unrolling fixpoint required.
/// The stepping kernels reuse the same symbol-major [`StepMasks`]
/// arenas, built over the program's node graph.
pub struct RobpSubstrate {
    /// The program's node graph viewed as an automaton (nodes = states);
    /// only its predecessor lists are consulted (witness search).
    graph: Nfa,
    masks: StepMasks,
    /// `reach_sets[ℓ]` = nodes at level `ℓ` reachable from the source.
    reach_sets: Vec<StateSet>,
    /// `alive_sets[ℓ]` = nodes at level `ℓ` with a path to the sink. In
    /// a leveled DAG every path from level `ℓ` to the sink has exactly
    /// `depth − ℓ` steps, so "alive within the horizon" and "alive at
    /// all" coincide.
    alive_sets: Vec<StateSet>,
    depth: usize,
    sink: u32,
}

impl RobpSubstrate {
    /// Builds the substrate views of one program.
    pub fn new(robp: &Robp) -> Self {
        let graph = robp.to_nfa();
        let masks = StepMasks::new(&graph);
        let m = graph.num_states();
        let k = graph.alphabet().size() as u8;
        let depth = robp.depth();
        // Forward closure, one level per step: nodes are level-unique,
        // so the frontier at step ℓ is exactly the level-ℓ reach set.
        let mut reach_sets = Vec::with_capacity(depth + 1);
        reach_sets.push(StateSet::singleton(m, graph.initial() as usize));
        for _ in 0..depth {
            let prev = reach_sets.last().expect("level 0 seeded");
            let mut cur = StateSet::empty(m);
            let mut step = StateSet::empty(m);
            for sym in 0..k {
                masks.step_into(prev, sym, &mut step);
                cur.union_with(&step);
            }
            reach_sets.push(cur);
        }
        // Backward closure from the sink, mirrored.
        let mut alive_rev = Vec::with_capacity(depth + 1);
        alive_rev.push(StateSet::singleton(m, robp.sink() as usize));
        for _ in 0..depth {
            let prev = alive_rev.last().expect("sink level seeded");
            let mut cur = StateSet::empty(m);
            let mut step = StateSet::empty(m);
            for sym in 0..k {
                masks.step_back_into(prev, sym, &mut step);
                cur.union_with(&step);
            }
            alive_rev.push(cur);
        }
        alive_rev.reverse();
        RobpSubstrate { graph, masks, reach_sets, alive_sets: alive_rev, depth, sink: robp.sink() }
    }

    /// The program's intrinsic level count.
    pub fn depth(&self) -> usize {
        self.depth
    }
}

impl LeveledSubstrate for RobpSubstrate {
    fn kind(&self) -> &'static str {
        "robp"
    }

    fn universe(&self) -> usize {
        self.graph.num_states()
    }

    fn width(&self) -> usize {
        self.graph.alphabet().size()
    }

    fn initial(&self) -> usize {
        self.graph.initial() as usize
    }

    fn final_cell(&self) -> u32 {
        self.sink
    }

    fn horizon(&self) -> usize {
        self.depth
    }

    fn ensure_horizon(&mut self, n: usize) {
        assert!(
            n <= self.depth,
            "an nROBP reads each variable once: horizon {n} exceeds its depth {}",
            self.depth
        );
    }

    fn reachable(&self, level: usize) -> &StateSet {
        &self.reach_sets[level]
    }

    fn alive(&self, level: usize) -> &StateSet {
        &self.alive_sets[level]
    }

    fn pred_of_cell_into(&self, q: u32, sym: u8, out: &mut StateSet) {
        out.clear();
        out.union_with_words(self.masks.pred_row(sym, q as usize));
    }

    fn step_back_into(&self, of: &StateSet, sym: u8, out: &mut StateSet) {
        self.masks.step_back_into(of, sym, out);
    }

    fn witness(&self, q: u32, level: usize) -> Option<Word> {
        // Greedy smallest-symbol / smallest-predecessor backward walk —
        // the same canonical choice `Unrolling::witness` makes, against
        // the program's per-level reach sets.
        if !self.reach_sets[level].contains(q as usize) {
            return None;
        }
        let k = self.width() as u8;
        let mut rev_syms = Vec::with_capacity(level);
        let mut cur = q;
        for ell in (1..=level).rev() {
            let prev_reach = &self.reach_sets[ell - 1];
            let mut found = false;
            'sym: for sym in 0..k {
                for &p in self.graph.predecessors(cur, sym) {
                    if prev_reach.contains(p as usize) {
                        rev_syms.push(sym);
                        cur = p;
                        found = true;
                        break 'sym;
                    }
                }
            }
            if !found {
                debug_assert!(found, "reachable node must have a reachable predecessor");
                return None;
            }
        }
        Some(Word::from_reversed(rev_syms))
    }

    fn reach(&self, word: &Word) -> StateSet {
        self.masks.reach(word)
    }
}
