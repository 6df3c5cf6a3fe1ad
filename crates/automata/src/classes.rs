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
use crate::{DenseDfa, Dfa, StateId, Sym};

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
    /// Build the equivalence for `langs` over the concrete `alphabet`;
    /// letter `i` of the result is `alphabet[i]`.
    ///
    /// All words agreeing on their runs through every member DFA fall into
    /// the same class. Symbols outside `alphabet` are collapsed into a single
    /// "fresh symbol" column, which is sound because every member DFA treats
    /// unmentioned symbols uniformly (they all take co-finite edges).
    pub fn build<S: Sym>(langs: &[Dfa<S>], alphabet: &[S]) -> SaturatingClasses {
        let dense: Vec<DenseDfa> = langs
            .iter()
            .map(|d| DenseDfa::compile(d, alphabet))
            .collect();

        let mut tuples = Worklist::new();
        let start = tuples.intern(dense.iter().map(|d| d.start()).collect::<Vec<StateId>>());
        let rows = tuples.explore(|tuples, _, tuple| {
            // Every member DenseDfa is compiled against the same alphabet,
            // so column `i` means the same symbol in all of them (and the
            // last column is everyone's co-finite edge).
            (0..=alphabet.len())
                .map(|i| {
                    let next = dense.iter().zip(tuple).map(|(d, &q)| d.cell(q, i));
                    tuples.intern(next.collect())
                })
                .collect::<Vec<ClassId>>()
        });

        let nlangs = langs.len();
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

    /// Number of member languages.
    pub fn num_langs(&self) -> usize {
        self.nlangs
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

    /// The letters 0, 1, 2, so that a symbol is its own column.
    const ABC: [u32; 3] = [0, 1, 2];

    fn dfa(r: Regex<u32>) -> Dfa<u32> {
        Nfa::from_regex(&r).to_dfa()
    }

    #[test]
    fn saturates_member_languages() {
        // F0 = (1 2)*, F1 = 1 .* over alphabet {0,1,2}.
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let f1 = dfa(Regex::sym(1u32).concat(Regex::any_sym().star()));
        let eq = SaturatingClasses::build(&[f0.clone(), f1.clone()], &ABC);
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
            assert_eq!(eq.word_in_lang(&w, 0), f0.accepts(&w), "F0 on {w:?}");
            assert_eq!(eq.word_in_lang(&w, 1), f1.accepts(&w), "F1 on {w:?}");
        }
    }

    #[test]
    fn right_invariance() {
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let eq = SaturatingClasses::build(&[f0], &ABC);
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
        let eq = SaturatingClasses::build(&[f0], &ABC);
        // ε ∈ F0 but "1" ∉ F0, so their classes must differ.
        assert_ne!(eq.class_of(&[]), eq.class_of(&[1]));
        // "2" and "1 1" are both dead; they may share a class.
        assert_eq!(eq.class_of(&[2]), eq.class_of(&[1, 1]));
    }

    #[test]
    fn finite_index() {
        let f0 = dfa(Regex::word(&[1u32, 2]).star());
        let f1 = dfa(Regex::sym(1u32).star());
        let eq = SaturatingClasses::build(&[f0, f1], &ABC);
        assert!(eq.num_classes() <= 12);
        assert_eq!(eq.num_langs(), 2);
    }

    #[test]
    fn unknown_symbols_collapse_to_fresh_column() {
        let f0 = dfa(Regex::any_sym().star());
        let eq = SaturatingClasses::build(&[f0], &ABC);
        assert!(eq.word_in_lang(&[77, 78], 0));
        // A letter past the end steps like an unmentioned one in range.
        let f1 = dfa(Regex::word(&[1u32, 2]).star());
        let eq = SaturatingClasses::build(&[f1], &ABC);
        assert_eq!(eq.class_of(&[1, 77]), eq.class_of(&[1, 0]));
    }
}
