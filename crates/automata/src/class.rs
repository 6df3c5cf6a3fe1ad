//! Symbolic transition labels: finite and co-finite symbol sets.
//!
//! The alphabet is treated as *open* (unbounded): a `NotIn` class is never
//! considered empty, because a fresh symbol outside every set mentioned so
//! far always exists. This is exactly the semantics the Lemma-1 construction
//! needs while the hedge-automaton state set grows under composition.

use hedgex_testkit::{FromJson, Json, ToJson};
use std::collections::BTreeSet;

use crate::Sym;

/// A set of symbols used as a transition label: either a finite set (`In`)
/// or the complement of a finite set (`NotIn`).
///
/// `NotIn(∅)` is the universal class ("any symbol"); `In(∅)` is the empty
/// class and never matches.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CharClass<S: Ord> {
    /// Exactly the listed symbols.
    In(BTreeSet<S>),
    /// Every symbol except the listed ones.
    NotIn(BTreeSet<S>),
}

impl<S: Ord + ToJson> ToJson for CharClass<S> {
    /// `{"in": [...]}` or `{"not_in": [...]}`.
    fn to_json(&self) -> Json {
        let (tag, set) = match self {
            CharClass::In(set) => ("in", set),
            CharClass::NotIn(set) => ("not_in", set),
        };
        Json::obj([(tag, Json::Arr(set.iter().map(ToJson::to_json).collect()))])
    }
}

impl<S: Ord + FromJson> FromJson for CharClass<S> {
    fn from_json(j: &Json) -> Result<Self, String> {
        let parse_set = |items: &Json| -> Result<BTreeSet<S>, String> {
            items
                .as_arr()
                .ok_or_else(|| format!("expected symbol array, got {items}"))?
                .iter()
                .map(S::from_json)
                .collect()
        };
        if let Some(items) = j.get("in") {
            parse_set(items).map(CharClass::In)
        } else if let Some(items) = j.get("not_in") {
            parse_set(items).map(CharClass::NotIn)
        } else {
            Err(format!("bad char-class encoding: {j}"))
        }
    }
}

impl<S: Sym> CharClass<S> {
    /// The class matching every symbol.
    pub fn any() -> Self {
        CharClass::NotIn(BTreeSet::new())
    }

    /// The class matching no symbol.
    pub fn empty() -> Self {
        CharClass::In(BTreeSet::new())
    }

    /// The class matching exactly `s`.
    pub fn singleton(s: S) -> Self {
        CharClass::In(std::iter::once(s).collect())
    }

    /// The class matching exactly the given symbols.
    pub fn of<I: IntoIterator<Item = S>>(syms: I) -> Self {
        CharClass::In(syms.into_iter().collect())
    }

    /// The class matching everything except the given symbols.
    pub fn all_except<I: IntoIterator<Item = S>>(syms: I) -> Self {
        CharClass::NotIn(syms.into_iter().collect())
    }

    /// Does this class match symbol `s`?
    pub fn contains(&self, s: &S) -> bool {
        match self {
            CharClass::In(set) => set.contains(s),
            CharClass::NotIn(set) => !set.contains(s),
        }
    }

    /// Does this class match the co-finite region (a symbol outside every
    /// finite set under discussion)? `In` classes never do; `NotIn` classes
    /// always do.
    pub fn contains_cofinite(&self) -> bool {
        matches!(self, CharClass::NotIn(_))
    }

    /// Syntactic emptiness. Sound and complete under the open-alphabet
    /// convention: `NotIn` is never empty.
    pub fn is_empty(&self) -> bool {
        matches!(self, CharClass::In(set) if set.is_empty())
    }

    /// The one symbol of a singleton class.
    pub fn single(&self) -> Option<&S> {
        match self {
            CharClass::In(set) if set.len() == 1 => set.first(),
            _ => None,
        }
    }

    /// Set intersection of two classes.
    pub fn intersect(&self, other: &Self) -> Self {
        use CharClass::*;
        match (self, other) {
            (In(a), In(b)) => In(a.intersection(b).cloned().collect()),
            (In(a), NotIn(b)) => In(a.difference(b).cloned().collect()),
            (NotIn(a), In(b)) => In(b.difference(a).cloned().collect()),
            (NotIn(a), NotIn(b)) => NotIn(a.union(b).cloned().collect()),
        }
    }

    /// Set complement of this class.
    pub fn complement(&self) -> Self {
        match self {
            CharClass::In(set) => CharClass::NotIn(set.clone()),
            CharClass::NotIn(set) => CharClass::In(set.clone()),
        }
    }

    /// Set difference `self \ other`.
    pub fn subtract(&self, other: &Self) -> Self {
        self.intersect(&other.complement())
    }

    /// Set union of two classes.
    pub fn union(&self, other: &Self) -> Self {
        self.complement()
            .intersect(&other.complement())
            .complement()
    }

    /// The finite symbols mentioned by this class (its "support"). Together
    /// with [`CharClass::contains_cofinite`] this fully determines the class
    /// relative to any alphabet extending the support.
    pub fn mentioned(&self) -> impl Iterator<Item = &S> {
        match self {
            CharClass::In(set) | CharClass::NotIn(set) => set.iter(),
        }
    }
}

impl<S: Sym + std::fmt::Display> std::fmt::Display for CharClass<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CharClass::In(set) if set.len() == 1 => {
                write!(f, "{}", set.iter().next().unwrap())
            }
            CharClass::In(set) => {
                write!(f, "[")?;
                for (i, s) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "]")
            }
            CharClass::NotIn(set) if set.is_empty() => write!(f, "."),
            CharClass::NotIn(set) => {
                write!(f, "[^")?;
                for (i, s) in set.iter().enumerate() {
                    if i > 0 {
                        write!(f, " ")?;
                    }
                    write!(f, "{s}")?;
                }
                write!(f, "]")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn set(items: &[u32]) -> BTreeSet<u32> {
        items.iter().copied().collect()
    }

    #[test]
    fn singleton_contains_only_its_symbol() {
        let c = CharClass::singleton(3u32);
        assert!(c.contains(&3));
        assert!(!c.contains(&4));
        assert!(!c.contains_cofinite());
    }

    #[test]
    fn any_contains_everything() {
        let c = CharClass::<u32>::any();
        assert!(c.contains(&0));
        assert!(c.contains(&u32::MAX));
        assert!(c.contains_cofinite());
        assert!(!c.is_empty());
    }

    #[test]
    fn empty_contains_nothing() {
        let c = CharClass::<u32>::empty();
        assert!(!c.contains(&0));
        assert!(c.is_empty());
        assert!(!c.contains_cofinite());
    }

    #[test]
    fn intersect_in_in() {
        let a = CharClass::In(set(&[1, 2, 3]));
        let b = CharClass::In(set(&[2, 3, 4]));
        assert_eq!(a.intersect(&b), CharClass::In(set(&[2, 3])));
    }

    #[test]
    fn intersect_in_notin() {
        let a = CharClass::In(set(&[1, 2, 3]));
        let b = CharClass::NotIn(set(&[2]));
        assert_eq!(a.intersect(&b), CharClass::In(set(&[1, 3])));
        assert_eq!(b.intersect(&a), CharClass::In(set(&[1, 3])));
    }

    #[test]
    fn intersect_notin_notin() {
        let a = CharClass::NotIn(set(&[1]));
        let b = CharClass::NotIn(set(&[2]));
        assert_eq!(a.intersect(&b), CharClass::NotIn(set(&[1, 2])));
    }

    #[test]
    fn complement_roundtrip() {
        let a = CharClass::In(set(&[1, 2]));
        assert_eq!(a.complement().complement(), a);
        assert!(a.complement().contains(&3));
        assert!(!a.complement().contains(&1));
    }

    #[test]
    fn subtract_removes_symbols() {
        let a = CharClass::<u32>::any();
        let b = CharClass::singleton(7u32);
        let d = a.subtract(&b);
        assert!(!d.contains(&7));
        assert!(d.contains(&8));
        assert!(d.contains_cofinite());
    }

    #[test]
    fn union_of_finite_classes() {
        let a = CharClass::In(set(&[1]));
        let b = CharClass::In(set(&[2]));
        let u = a.union(&b);
        assert!(u.contains(&1));
        assert!(u.contains(&2));
        assert!(!u.contains(&3));
    }

    #[test]
    fn json_roundtrip_both_polarities() {
        for c in [
            CharClass::In(set(&[1, 2])),
            CharClass::NotIn(set(&[7])),
            CharClass::<u32>::any(),
            CharClass::<u32>::empty(),
        ] {
            let json = c.to_json().to_string();
            let back =
                CharClass::<u32>::from_json(&hedgex_testkit::Json::parse(&json).unwrap()).unwrap();
            assert_eq!(back, c);
        }
        assert_eq!(
            CharClass::In(set(&[3, 1])).to_json().to_string(),
            r#"{"in":[1,3]}"#
        );
    }

    #[test]
    fn intersection_agrees_with_contains_pointwise() {
        // Exhaustive check over a small universe for all class shapes.
        let universe: Vec<u32> = (0..6).collect();
        let shapes: Vec<CharClass<u32>> = vec![
            CharClass::In(set(&[])),
            CharClass::In(set(&[0, 2])),
            CharClass::In(set(&[1, 3, 5])),
            CharClass::NotIn(set(&[])),
            CharClass::NotIn(set(&[0, 2])),
            CharClass::NotIn(set(&[4])),
        ];
        for a in &shapes {
            for b in &shapes {
                let i = a.intersect(b);
                let u = a.union(b);
                let d = a.subtract(b);
                for s in &universe {
                    assert_eq!(i.contains(s), a.contains(s) && b.contains(s));
                    assert_eq!(u.contains(s), a.contains(s) || b.contains(s));
                    assert_eq!(d.contains(s), a.contains(s) && !b.contains(s));
                }
                assert_eq!(
                    i.contains_cofinite(),
                    a.contains_cofinite() && b.contains_cofinite()
                );
            }
        }
    }
}
