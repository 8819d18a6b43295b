//! Alphabets.
//!
//! The paper states its results for Σ = {0, 1} and notes they extend to
//! any fixed constant-size alphabet (§2). The applications need that
//! generality — regular path queries label edges with relation names, and
//! the PQE reduction uses per-tuple coin symbols — so the alphabet size is
//! a runtime value here. Symbols are dense `u8` identifiers `0..k`.

use std::fmt;

/// A symbol identifier, dense in `0..alphabet.size()`.
pub type Symbol = u8;

/// A finite alphabet with display names for its symbols.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct Alphabet {
    names: Vec<char>,
}

impl Alphabet {
    /// The binary alphabet `{0, 1}` the paper works over.
    pub fn binary() -> Self {
        Alphabet { names: vec!['0', '1'] }
    }

    /// An alphabet of `k` symbols named `a, b, c, …` (then digits).
    ///
    /// # Panics
    /// Panics unless `1 <= k <= 62`.
    pub fn of_size(k: usize) -> Self {
        assert!((1..=62).contains(&k), "alphabet size must be in 1..=62, got {k}");
        let pool: Vec<char> = ('a'..='z').chain('A'..='Z').chain('0'..='9').collect();
        Alphabet { names: pool[..k].to_vec() }
    }

    /// An alphabet with explicit symbol names.
    ///
    /// # Panics
    /// Panics if `names` is empty, longer than 255, or contains duplicates
    /// (see [`Alphabet::try_with_names`] for the checked form).
    pub fn with_names(names: Vec<char>) -> Self {
        Alphabet::try_with_names(names).unwrap_or_else(|e| panic!("{e}"))
    }

    /// An alphabet with explicit symbol names, or a description of why
    /// `names` cannot be one: it is empty, longer than 255, or contains
    /// duplicates.
    pub fn try_with_names(names: Vec<char>) -> Result<Self, String> {
        if names.is_empty() {
            return Err("alphabet must be non-empty".into());
        }
        if names.len() > 255 {
            return Err(format!("alphabet too large: {} symbols (at most 255)", names.len()));
        }
        for (i, c) in names.iter().enumerate() {
            if names[..i].contains(c) {
                return Err(format!("duplicate symbol name {c:?}"));
            }
        }
        Ok(Alphabet { names })
    }

    /// Number of symbols `k = |Σ|`.
    pub fn size(&self) -> usize {
        self.names.len()
    }

    /// Iterates over all symbol ids.
    pub fn symbols(&self) -> impl Iterator<Item = Symbol> + '_ {
        0..self.names.len() as u8
    }

    /// Display name of a symbol.
    ///
    /// # Panics
    /// Panics if `sym` is out of range.
    pub fn name(&self, sym: Symbol) -> char {
        self.names[sym as usize]
    }

    /// Looks up a symbol id by name.
    pub fn symbol(&self, name: char) -> Option<Symbol> {
        self.names.iter().position(|&c| c == name).map(|i| i as Symbol)
    }
}

impl fmt::Debug for Alphabet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Alphabet{{")?;
        for (i, c) in self.names.iter().enumerate() {
            if i > 0 {
                write!(f, ",")?;
            }
            write!(f, "{c}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn binary_alphabet() {
        let a = Alphabet::binary();
        assert_eq!(a.size(), 2);
        assert_eq!(a.name(0), '0');
        assert_eq!(a.name(1), '1');
        assert_eq!(a.symbol('1'), Some(1));
        assert_eq!(a.symbol('x'), None);
    }

    #[test]
    fn sized_alphabet() {
        let a = Alphabet::of_size(4);
        assert_eq!(a.size(), 4);
        assert_eq!(a.name(0), 'a');
        assert_eq!(a.name(3), 'd');
        assert_eq!(a.symbols().collect::<Vec<_>>(), vec![0, 1, 2, 3]);
    }

    #[test]
    #[should_panic(expected = "alphabet size")]
    fn zero_size_rejected() {
        Alphabet::of_size(0);
    }

    #[test]
    #[should_panic(expected = "duplicate")]
    fn duplicate_names_rejected() {
        Alphabet::with_names(vec!['a', 'a']);
    }

    #[test]
    fn checked_constructor_reports_each_defect() {
        assert_eq!(Alphabet::try_with_names(vec![]).unwrap_err(), "alphabet must be non-empty");
        assert_eq!(
            Alphabet::try_with_names(vec!['a', 'b', 'a']).unwrap_err(),
            "duplicate symbol name 'a'"
        );
        let wide: Vec<char> = (0..256u32).map(|i| char::from_u32(0x4E00 + i).unwrap()).collect();
        assert!(Alphabet::try_with_names(wide[..255].to_vec()).is_ok());
        assert_eq!(
            Alphabet::try_with_names(wide).unwrap_err(),
            "alphabet too large: 256 symbols (at most 255)"
        );
    }

    #[test]
    fn custom_names() {
        let a = Alphabet::with_names(vec!['x', 'y', 'z']);
        assert_eq!(a.symbol('z'), Some(2));
        assert_eq!(format!("{a:?}"), "Alphabet{x,y,z}");
    }
}
