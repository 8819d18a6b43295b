//! Property tests for the batched union-estimation layer (D8).
//!
//! **Canonicalization is a congruence** — equal frontiers produce equal
//! memo keys and equal RNG tags regardless of how the sets were
//! assembled (insertion order, universe padding), and unequal frontiers
//! produce distinct keys. That every `(cell, symbol)` pair lands in the
//! group of its own frontier is checked in-crate, next to `LevelPlan`
//! (`engine::batch::tests::plan_groups_match_per_pair_frontiers`).

use fpras_automata::StateSet;
use fpras_core::FrontierInterner;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn frontier_key_is_a_congruence(
        members in proptest::collection::vec(0usize..120, 1..12),
        padding in 0usize..100,
        level in 0usize..30,
    ) {
        // Same members, any insertion order, any universe padding ⇒ the
        // same canonical key (within one interner) and the same RNG tag
        // (even across interners over different universes).
        let mut members = members;
        let universe = 128;
        let interner = FrontierInterner::new(universe);
        let wide = FrontierInterner::new(universe + padding);
        let forward = StateSet::from_iter(universe, members.iter().copied());
        members.reverse();
        let backward = StateSet::from_iter(universe, members.iter().copied());
        let padded = StateSet::from_iter(universe + padding, members.iter().copied());
        let k_fwd = interner.intern(level, &forward);
        let k_bwd = interner.intern(level, &backward);
        prop_assert_eq!(&k_fwd, &k_bwd);
        prop_assert_eq!(k_fwd.frontier(), k_bwd.frontier());
        prop_assert_eq!(k_fwd.rng_tag(), k_bwd.rng_tag());
        prop_assert_eq!(k_fwd.rng_tag(), wide.intern(level, &padded).rng_tag());

        // Changing the membership changes the key (and, for distinct
        // sets, the tag — splitmix collisions at 64 bits would be a bug
        // in this tiny domain).
        let different: Vec<usize> = members.iter().map(|&s| (s + 1) % 121).collect();
        if StateSet::from_iter(universe, different.iter().copied()) != forward {
            let other = StateSet::from_iter(universe, different.iter().copied());
            prop_assert_ne!(&k_fwd, &interner.intern(level, &other));
            prop_assert_ne!(k_fwd.rng_tag(), interner.intern(level, &other).rng_tag());
        }
        // And so does the level (equal content shares one id there —
        // ids are content-only — but the tags must differ).
        let bumped = interner.intern(level + 1, &forward);
        prop_assert_eq!(k_fwd.frontier(), bumped.frontier());
        prop_assert_ne!(k_fwd.rng_tag(), bumped.rng_tag());
    }
}
