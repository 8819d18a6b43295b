//! The NFA type.
//!
//! Mirrors the paper's definition (§2): `A = (Q, I, Δ, F)` with a single
//! initial state, a transition relation `Δ ⊆ Q × Σ × Q`, and a set of
//! accepting states. Both successor and predecessor adjacency are
//! precomputed — the FPRAS walks the automaton *backwards* (`Pred(q, b)`,
//! Algorithm 2 line 9, Algorithm 3 line 13), the oracle walks it forwards.

use crate::alphabet::{Alphabet, Symbol};
use crate::stateset::StateSet;
use crate::word::Word;
use std::fmt;

/// A state identifier, dense in `0..nfa.num_states()`.
pub type StateId = u32;

/// A non-deterministic finite automaton over a fixed alphabet.
///
/// Immutable once built; construct through [`NfaBuilder`].
#[derive(Clone, PartialEq, Eq)]
pub struct Nfa {
    alphabet: Alphabet,
    num_states: usize,
    initial: StateId,
    accepting: StateSet,
    /// `succ[sym][q]` = sorted, deduplicated successors of `q` on `sym`.
    succ: Vec<Vec<Vec<StateId>>>,
    /// `pred[sym][q]` = sorted, deduplicated predecessors (`Pred(q, sym)`).
    pred: Vec<Vec<Vec<StateId>>>,
    num_transitions: usize,
}

impl Nfa {
    /// The alphabet Σ.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of states `m = |Q|`.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Number of transitions `|Δ|`.
    pub fn num_transitions(&self) -> usize {
        self.num_transitions
    }

    /// The initial state `I`.
    pub fn initial(&self) -> StateId {
        self.initial
    }

    /// The accepting states `F`.
    pub fn accepting(&self) -> &StateSet {
        &self.accepting
    }

    /// True iff `q ∈ F`.
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accepting.contains(q as usize)
    }

    /// Successors of `q` on `sym`.
    pub fn successors(&self, q: StateId, sym: Symbol) -> &[StateId] {
        &self.succ[sym as usize][q as usize]
    }

    /// `Pred(q, sym)` — predecessors of `q` on `sym` (paper §2).
    pub fn predecessors(&self, q: StateId, sym: Symbol) -> &[StateId] {
        &self.pred[sym as usize][q as usize]
    }

    /// Iterates over all transitions `(from, sym, to)`.
    pub fn transitions(&self) -> impl Iterator<Item = (StateId, Symbol, StateId)> + '_ {
        self.succ.iter().enumerate().flat_map(|(sym, per_state)| {
            per_state.iter().enumerate().flat_map(move |(q, tos)| {
                tos.iter().map(move |&to| (q as StateId, sym as Symbol, to))
            })
        })
    }

    /// One forward step: all states reachable from `from` via `sym`.
    pub fn step(&self, from: &StateSet, sym: Symbol) -> StateSet {
        let mut out = StateSet::empty(self.num_states);
        for q in from.iter() {
            for &t in &self.succ[sym as usize][q] {
                out.insert(t as usize);
            }
        }
        out
    }

    /// One backward step: all predecessors of `of` via `sym`
    /// (`P_b = ⋃_{p∈P} Pred(p, b)`, Algorithm 2 line 9).
    pub fn step_back(&self, of: &StateSet, sym: Symbol) -> StateSet {
        let mut out = StateSet::empty(self.num_states);
        for q in of.iter() {
            for &t in &self.pred[sym as usize][q] {
                out.insert(t as usize);
            }
        }
        out
    }

    /// The set of states reachable from `I` via `word`.
    pub fn reach(&self, word: &Word) -> StateSet {
        let mut cur = StateSet::singleton(self.num_states, self.initial as usize);
        for &sym in word.symbols() {
            cur = self.step(&cur, sym);
        }
        cur
    }

    /// True iff `word ∈ L(A)`.
    pub fn accepts(&self, word: &Word) -> bool {
        self.reach(word).intersects(&self.accepting)
    }

    /// Loosens the automaton back into a builder (used by `ops`).
    pub fn to_builder(&self) -> NfaBuilder {
        let mut b = NfaBuilder::new(self.alphabet.clone());
        b.add_states(self.num_states);
        b.set_initial(self.initial);
        for q in self.accepting.iter() {
            b.add_accepting(q as StateId);
        }
        for (from, sym, to) in self.transitions() {
            b.add_transition(from, sym, to);
        }
        b
    }
}

impl fmt::Debug for Nfa {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Nfa(m={}, |Δ|={}, init={}, F={:?})",
            self.num_states, self.num_transitions, self.initial, self.accepting
        )?;
        for (from, sym, to) in self.transitions() {
            writeln!(f, "  {from} --{}--> {to}", self.alphabet.name(sym))?;
        }
        Ok(())
    }
}

/// Errors from [`NfaBuilder::build`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NfaBuildError {
    /// The automaton has no states.
    NoStates,
    /// No accepting state was declared.
    NoAcceptingStates,
}

impl fmt::Display for NfaBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NfaBuildError::NoStates => write!(f, "NFA must have at least one state"),
            NfaBuildError::NoAcceptingStates => write!(f, "NFA must have an accepting state"),
        }
    }
}

impl std::error::Error for NfaBuildError {}

/// Incremental NFA constructor.
///
/// ```
/// use fpras_automata::{Alphabet, NfaBuilder, Word};
///
/// // Binary words that end in "1".
/// let mut b = NfaBuilder::new(Alphabet::binary());
/// let s0 = b.add_state();
/// let s1 = b.add_state();
/// b.set_initial(s0);
/// b.add_accepting(s1);
/// for sym in [0, 1] {
///     b.add_transition(s0, sym, s0); // stay
/// }
/// b.add_transition(s0, 1, s1);
/// let nfa = b.build().unwrap();
/// assert!(nfa.accepts(&Word::parse("0101", nfa.alphabet()).unwrap()));
/// assert!(!nfa.accepts(&Word::parse("10", nfa.alphabet()).unwrap()));
/// ```
#[derive(Clone, Debug)]
pub struct NfaBuilder {
    alphabet: Alphabet,
    num_states: usize,
    initial: Option<StateId>,
    accepting: Vec<StateId>,
    transitions: Vec<(StateId, Symbol, StateId)>,
}

impl NfaBuilder {
    /// Starts an empty automaton over `alphabet`.
    pub fn new(alphabet: Alphabet) -> Self {
        NfaBuilder {
            alphabet,
            num_states: 0,
            initial: None,
            accepting: Vec::new(),
            transitions: Vec::new(),
        }
    }

    /// Adds one state, returning its id.
    pub fn add_state(&mut self) -> StateId {
        let id = self.num_states as StateId;
        self.num_states += 1;
        id
    }

    /// Adds `n` states, returning the first new id.
    ///
    /// # Panics
    /// Panics if the total state count would not fit in [`StateId`].
    pub fn add_states(&mut self, n: usize) -> StateId {
        let total = self.num_states.saturating_add(n);
        assert!(total <= StateId::MAX as usize + 1, "{total} states exceed the StateId range");
        let first = self.num_states as StateId;
        self.num_states += n;
        first
    }

    /// Current number of states.
    pub fn num_states(&self) -> usize {
        self.num_states
    }

    /// Declares the initial state.
    ///
    /// # Panics
    /// Panics if the state does not exist.
    pub fn set_initial(&mut self, q: StateId) {
        assert!((q as usize) < self.num_states, "initial state {q} does not exist");
        self.initial = Some(q);
    }

    /// Marks a state accepting.
    ///
    /// # Panics
    /// Panics if the state does not exist.
    pub fn add_accepting(&mut self, q: StateId) {
        assert!((q as usize) < self.num_states, "accepting state {q} does not exist");
        self.accepting.push(q);
    }

    /// Adds a transition `(from, sym, to)`; duplicates are deduplicated at
    /// build time.
    ///
    /// # Panics
    /// Panics if either state or the symbol does not exist.
    pub fn add_transition(&mut self, from: StateId, sym: Symbol, to: StateId) {
        assert!((from as usize) < self.num_states, "source state {from} does not exist");
        assert!((to as usize) < self.num_states, "target state {to} does not exist");
        assert!((sym as usize) < self.alphabet.size(), "symbol {sym} outside alphabet");
        self.transitions.push((from, sym, to));
    }

    /// Finalizes the automaton.
    pub fn build(self) -> Result<Nfa, NfaBuildError> {
        if self.num_states == 0 {
            return Err(NfaBuildError::NoStates);
        }
        if self.accepting.is_empty() {
            return Err(NfaBuildError::NoAcceptingStates);
        }
        let initial = self.initial.unwrap_or(0);
        let k = self.alphabet.size();
        let mut succ = vec![vec![Vec::new(); self.num_states]; k];
        let mut pred = vec![vec![Vec::new(); self.num_states]; k];
        for &(from, sym, to) in &self.transitions {
            succ[sym as usize][from as usize].push(to);
            pred[sym as usize][to as usize].push(from);
        }
        let mut num_transitions = 0;
        for table in [&mut succ, &mut pred] {
            for per_state in table.iter_mut() {
                for list in per_state.iter_mut() {
                    list.sort_unstable();
                    list.dedup();
                }
            }
        }
        for per_state in &succ {
            for list in per_state {
                num_transitions += list.len();
            }
        }
        Ok(Nfa {
            alphabet: self.alphabet,
            num_states: self.num_states,
            initial,
            accepting: StateSet::from_iter(
                self.num_states,
                self.accepting.iter().map(|&q| q as usize),
            ),
            succ,
            pred,
            num_transitions,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// NFA accepting words containing "11" (3 states, nondeterministic).
    pub fn contains_11() -> Nfa {
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
    fn build_validation() {
        let b = NfaBuilder::new(Alphabet::binary());
        assert_eq!(b.build().unwrap_err(), NfaBuildError::NoStates);

        let mut b = NfaBuilder::new(Alphabet::binary());
        b.add_state();
        assert_eq!(b.build().unwrap_err(), NfaBuildError::NoAcceptingStates);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn transition_to_missing_state_panics() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.add_transition(q, 0, 5);
    }

    #[test]
    #[should_panic(expected = "outside alphabet")]
    fn bad_symbol_panics() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.add_transition(q, 7, q);
    }

    #[test]
    fn duplicate_transitions_deduplicated() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.set_initial(q);
        b.add_accepting(q);
        b.add_transition(q, 0, q);
        b.add_transition(q, 0, q);
        let nfa = b.build().unwrap();
        assert_eq!(nfa.num_transitions(), 1);
        assert_eq!(nfa.successors(q, 0), &[q]);
    }

    #[test]
    fn acceptance_contains_11() {
        let nfa = contains_11();
        let a = nfa.alphabet().clone();
        assert!(nfa.accepts(&Word::parse("011", &a).unwrap()));
        assert!(nfa.accepts(&Word::parse("1101", &a).unwrap()));
        assert!(!nfa.accepts(&Word::parse("0101", &a).unwrap()));
        assert!(!nfa.accepts(&Word::empty()));
    }

    #[test]
    fn predecessors_inverse_of_successors() {
        let nfa = contains_11();
        for (from, sym, to) in nfa.transitions() {
            assert!(nfa.predecessors(to, sym).contains(&from));
            assert!(nfa.successors(from, sym).contains(&to));
        }
        // Pred(q1, 1) = {q0}
        assert_eq!(nfa.predecessors(1, 1), &[0]);
        assert_eq!(nfa.predecessors(1, 0), &[] as &[StateId]);
    }

    #[test]
    fn step_and_step_back_are_adjoint() {
        let nfa = contains_11();
        let from = StateSet::from_iter(3, [0]);
        let fwd = nfa.step(&from, 1);
        assert_eq!(fwd.iter().collect::<Vec<_>>(), vec![0, 1]);
        let back = nfa.step_back(&fwd, 1);
        assert!(back.contains(0));
    }

    #[test]
    fn reach_tracks_subsets() {
        let nfa = contains_11();
        let w = Word::parse("11", nfa.alphabet()).unwrap();
        let r = nfa.reach(&w);
        assert_eq!(r.iter().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn to_builder_round_trip() {
        let nfa = contains_11();
        let again = nfa.to_builder().build().unwrap();
        assert_eq!(nfa, again);
    }

    #[test]
    fn initial_defaults_to_state_zero() {
        let mut b = NfaBuilder::new(Alphabet::binary());
        let q = b.add_state();
        b.add_accepting(q);
        assert_eq!(b.build().unwrap().initial(), 0);
    }
}
