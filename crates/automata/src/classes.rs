//! The right-invariant equivalence `≡` of Theorem 4.
//!
//! Theorem 4 needs one equivalence relation of finite index over `Q*` that is
//! right-invariant and *saturates* every final state sequence set `F_{i1}`,
//! `F_{i2}` appearing in a pointed hedge representation (each `F` must be a
//! union of equivalence classes). The classical construction intersects the
//! Myhill–Nerode relations of the individual languages; operationally that is
//! a single product DFA tracking all member DFAs at once, whose **states are
//! the classes**:
//!
//! * right-invariant: classes are DFA states, and DFA transitions depend only
//!   on the current state (`u ≡ v ⇒ uw ≡ vw`);
//! * finite index: the reachable product state space is finite;
//! * saturating: whether `w ∈ F_i` is a function of the class of `w` (the
//!   tracked state of `F_i`'s DFA), so each `F_i` is a union of classes.

use crate::kernel::Worklist;
use crate::{DenseDfa, StateId};

/// A class of the equivalence (an interned product-DFA state).
pub type ClassId = u32;

/// A finite-index right-invariant equivalence over words saturating a
/// family of regular languages, realized as an explicit product DFA over a
/// concrete alphabet: a [`DenseDfa`] whose states are the classes, plus
/// each class's membership in each language.
#[derive(Debug, Clone)]
pub struct SaturatingClasses {
    /// The product DFA; column `i` is the `i`-th letter of the alphabet
    /// the classes were built over. Its own acceptance is unused.
    dfa: DenseDfa,
    /// `accept[c * nlangs + j]`: does class `c` lie inside language `j`?
    accept: Vec<bool>,
    nlangs: usize,
}

impl SaturatingClasses {
    /// Build the equivalence for `langs`, tables over one alphabet: column
    /// `i` of the result is column `i` of every member.
    ///
    /// All words agreeing on their runs through every member DFA fall into
    /// the same class; the co-finite column stays the one every letter past
    /// the last takes.
    pub fn build(dense: &[DenseDfa]) -> SaturatingClasses {
        let width = dense.first().map_or(1, |d| d.letters() + 1);
        assert!(
            dense.iter().all(|d| d.letters() + 1 == width),
            "one alphabet"
        );
        let mut tuples = Worklist::new();
        let start = tuples.intern(dense.iter().map(|d| d.start()).collect::<Vec<StateId>>());
        let rows = tuples.explore(|tuples, _, tuple| {
            // Column `i` means the same letter in every member (and the
            // last column is everyone's co-finite edge).
            (0..width)
                .map(|i| {
                    let next = dense.iter().zip(tuple).map(|(d, &q)| d.cell(q, i));
                    tuples.intern(next.collect())
                })
                .collect::<Vec<ClassId>>()
        });

        let nlangs = dense.len();
        let accept = tuples
            .keys()
            .iter()
            .flat_map(|tuple| dense.iter().zip(tuple).map(|(d, &q)| d.is_accepting(q)))
            .collect();
        let nclasses = rows.len();
        SaturatingClasses {
            dfa: DenseDfa::from_rows(rows, start, vec![false; nclasses]),
            accept,
            nlangs,
        }
    }

    /// Number of equivalence classes (reachable ones; unreachable words have
    /// no class because they do not exist).
    pub fn num_classes(&self) -> usize {
        self.dfa.num_states()
    }

    /// The class of the empty word.
    pub fn start(&self) -> ClassId {
        self.dfa.start()
    }

    /// The classes' transition table.
    pub fn dfa(&self) -> &DenseDfa {
        &self.dfa
    }

    /// The classes' transition table, by value.
    pub fn into_dfa(self) -> DenseDfa {
        self.dfa
    }

    /// Extend a class by one letter on the right (right-invariance in
    /// action): `class_of(w·a) = step(class_of(w), a)`.
    #[inline]
    pub fn step(&self, c: ClassId, letter: u32) -> ClassId {
        self.dfa.step(c, letter)
    }

    /// The class of a whole word.
    pub fn class_of(&self, word: &[u32]) -> ClassId {
        self.dfa.run(word.iter().copied())
    }

    /// Is class `c` contained in member language `lang`? (Saturation makes
    /// this well-defined per class.)
    #[inline]
    pub fn class_in_lang(&self, c: ClassId, lang: usize) -> bool {
        self.accept[c as usize * self.nlangs + lang]
    }

    /// Membership of a word in a member language, via its class.
    pub fn word_in_lang(&self, word: &[u32], lang: usize) -> bool {
        self.class_in_lang(self.class_of(word), lang)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Nfa, Regex};

    /// A table over the letters 0, 1, 2, so that a symbol is its own column.
    fn dfa(r: Regex<u32>) -> DenseDfa {
        Nfa::from_regex(&r).to_dense(3)
    }

    #[test]
    fn saturates_member_languages() {
        // F0 = (1 2)*, F1 = 1 .* over alphabet {0,1,2}.
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let f1 = dfa(Regex::sym(1u32).concat(Regex::any_sym().star()));
        let eq = SaturatingClasses::build(&[f0.clone(), f1.clone()]);
        for w in [
            vec![],
            vec![1],
            vec![2],
            vec![1, 2],
            vec![1, 2, 1],
            vec![2, 1],
            vec![1, 1],
            vec![1, 2, 1, 2],
        ] {
            assert_eq!(
                eq.word_in_lang(&w, 0),
                f0.accepts(w.iter().copied()),
                "F0 on {w:?}"
            );
            assert_eq!(
                eq.word_in_lang(&w, 1),
                f1.accepts(w.iter().copied()),
                "F1 on {w:?}"
            );
        }
    }

    #[test]
    fn right_invariance() {
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let eq = SaturatingClasses::build(&[f0]);
        // If u ≡ v then u·w ≡ v·w for all w: step from equal classes is equal.
        let u = eq.class_of(&[1, 2]);
        let v = eq.class_of(&[1, 2, 1, 2]);
        assert_eq!(u, v);
        assert_eq!(eq.step(u, 1), eq.step(v, 1));
        assert_eq!(eq.class_of(&[1, 2, 1]), eq.step(u, 1));
    }

    #[test]
    fn classes_distinguish_differing_futures() {
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let eq = SaturatingClasses::build(&[f0]);
        // ε ∈ F0 but "1" ∉ F0, so their classes must differ.
        assert_ne!(eq.class_of(&[]), eq.class_of(&[1]));
        // "2" and "1 1" are both dead; they may share a class.
        assert_eq!(eq.class_of(&[2]), eq.class_of(&[1, 1]));
    }

    #[test]
    fn finite_index() {
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let f1 = dfa(Regex::sym(1u32).star());
        let eq = SaturatingClasses::build(&[f0, f1]);
        assert!(eq.num_classes() <= 12);
    }

    #[test]
    fn unknown_symbols_collapse_to_fresh_column() {
        let f0 = dfa(Regex::any_sym().star());
        let eq = SaturatingClasses::build(&[f0]);
        assert!(eq.word_in_lang(&[77, 78], 0));
        // A letter past the end steps like an unmentioned one in range.
        let f1 = dfa(Regex::word(&[1u32, 2]).star());
        let eq = SaturatingClasses::build(&[f1]);
        assert_eq!(eq.class_of(&[1, 77]), eq.class_of(&[1, 0]));
    }
}
