//! Per-(state, level) sample storage — the paper's `S(qℓ)`.
//!
//! A sample is stored as its *reach row* only: the bitset words of
//! `reach(w)`, the states reachable from the initial state via the
//! sampled word `w`. That row is all a membership-oracle query reads
//! (paper §4.3): `w ∈ L(pℓ)` iff `p ∈ reach(w)`, one bit-test. The word
//! itself is never needed again once its row is computed, so it is not
//! kept.
//!
//! Rows live in one flat buffer, `stride = ⌈m/64⌉` words each: genuine
//! row `i` at `rows[i·stride .. (i+1)·stride]`. Padding (Algorithm 3
//! lines 27–30) repeats one fixed witness; its row is stored once after
//! the genuine rows, with a repetition count, rather than cloned.

use fpras_automata::StateSet;

/// The multiset `S(qℓ)`: genuine reach rows followed by logical padding.
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    /// Genuine rows, then at most one padding row.
    rows: Vec<u64>,
    /// Words per row (`⌈m/64⌉`; 0 while no row is stored).
    stride: usize,
    /// Number of genuine rows.
    genuine: usize,
    /// Logical repetitions of the padding row.
    pad_count: usize,
}

impl SampleSet {
    /// The empty set (used for states with `L(qℓ) = ∅`).
    pub fn empty() -> Self {
        SampleSet::default()
    }

    /// An empty set with room for `rows` rows over a `universe`-state
    /// bitset, so filling it up to `rows` rows (padding included)
    /// allocates once.
    pub fn with_capacity(rows: usize, universe: usize) -> Self {
        let stride = universe.div_ceil(64);
        SampleSet { rows: Vec::with_capacity(rows * stride), stride, ..SampleSet::default() }
    }

    /// A set consisting of one row repeated `count` times — the shape of
    /// the base case `S(I⁰) = (λ, λ, …)` and of pure-padding sets.
    pub fn repeated(reach: &StateSet, count: usize) -> Self {
        let mut s = SampleSet::empty();
        s.pad(reach, count);
        s
    }

    /// Appends one genuine sample's reach row.
    pub fn push(&mut self, reach: &StateSet) {
        debug_assert_eq!(self.pad_count, 0, "cannot append after padding");
        self.append_row(reach);
        self.genuine += 1;
    }

    /// Pads with `extra` repetitions of `reach` (Algorithm 3 lines 27–30).
    pub fn pad(&mut self, reach: &StateSet, extra: usize) {
        debug_assert_eq!(self.pad_count, 0, "pad may be applied once");
        if extra > 0 {
            self.append_row(reach);
            self.pad_count = extra;
        }
    }

    fn append_row(&mut self, reach: &StateSet) {
        let row = reach.words();
        debug_assert!(
            self.rows.is_empty() || self.stride == row.len(),
            "every row of one set has the same width"
        );
        self.stride = row.len();
        self.rows.extend_from_slice(row);
    }

    /// Number of genuine (non-padding) samples.
    pub fn genuine_len(&self) -> usize {
        self.genuine
    }

    /// Total logical length including padding — the paper's `|S(qℓ)|`.
    pub fn len(&self) -> usize {
        self.genuine + self.pad_count
    }

    /// True iff no samples at all are stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Logical indexing: genuine rows first, then the padding row for
    /// every index past them.
    ///
    /// # Panics
    /// Panics if `idx >= self.len()`.
    #[inline]
    pub fn get(&self, idx: usize) -> &[u64] {
        debug_assert!(idx < self.len(), "sample index {idx} out of bounds {}", self.len());
        let row = idx.min(self.genuine);
        &self.rows[row * self.stride..(row + 1) * self.stride]
    }

    /// Iterates over the logical multiset (padding repeated).
    pub fn iter(&self) -> impl Iterator<Item = &[u64]> + '_ {
        (0..self.len()).map(|i| self.get(i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every test runs at one-word rows and at three-word rows (stride
    /// 3), where a row's offset arithmetic is not the identity.
    const UNIVERSES: [usize; 2] = [4, 130];

    /// A row with state `bit` and, past the first word, state `m − 1`,
    /// so rows of the wide universe differ in every word they span.
    fn row(m: usize, bit: usize) -> StateSet {
        StateSet::from_iter(m, [bit, m - 1 - bit])
    }

    #[test]
    fn empty_set() {
        let s = SampleSet::empty();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.genuine_len(), 0);
        for m in UNIVERSES {
            assert!(SampleSet::with_capacity(8, m).is_empty());
        }
    }

    #[test]
    fn push_then_get() {
        for m in UNIVERSES {
            let mut s = SampleSet::with_capacity(2, m);
            s.push(&row(m, 0));
            s.push(&row(m, 1));
            assert_eq!(s.len(), 2);
            assert_eq!(s.get(0), row(m, 0).words());
            assert_eq!(s.get(1), row(m, 1).words());
            assert_eq!(s.get(1).len(), m.div_ceil(64));
        }
    }

    #[test]
    fn padding_is_logical() {
        for m in UNIVERSES {
            let mut s = SampleSet::empty();
            s.push(&row(m, 0));
            s.pad(&row(m, 1), 3);
            assert_eq!(s.len(), 4);
            assert_eq!(s.genuine_len(), 1);
            assert_eq!(s.get(0), row(m, 0).words());
            for i in 1..4 {
                assert_eq!(s.get(i), row(m, 1).words());
            }
            assert_eq!(s.iter().count(), 4);
        }
    }

    #[test]
    fn repeated_base_case() {
        for m in UNIVERSES {
            let s = SampleSet::repeated(&StateSet::singleton(m, 0), 100);
            assert_eq!(s.len(), 100);
            assert_eq!(s.genuine_len(), 0);
            assert_eq!(s.get(99), StateSet::singleton(m, 0).words());
        }
    }

    #[test]
    #[should_panic]
    fn out_of_bounds_get_panics() {
        let s = SampleSet::empty();
        let _ = s.get(0);
    }
}
