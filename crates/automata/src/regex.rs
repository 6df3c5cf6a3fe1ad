//! Regular expressions over symbolic character classes.
//!
//! These are the *string* regular expressions of the paper: horizontal
//! languages (`α⁻¹(a, q)`, final state sequence sets `F`), pointed hedge
//! representations (regular expressions over triplets, Definition 18), and
//! the output of Lemma 2's state elimination all live here.

use std::collections::BTreeSet;
use std::rc::Rc;

use crate::{CharClass, Sym};

/// A regular expression whose atoms are symbol classes.
///
/// Sub-expressions are reference-counted: the Lemma 2 decompilation and the
/// state-elimination construction both duplicate sub-expressions heavily, and
/// sharing keeps those constructions from exploding memory.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Regex<S: Ord> {
    /// The empty language ∅.
    Empty,
    /// The language {ε}.
    Epsilon,
    /// A single symbol drawn from the class.
    Sym(CharClass<S>),
    /// Concatenation.
    Concat(Rc<Regex<S>>, Rc<Regex<S>>),
    /// Alternation.
    Alt(Rc<Regex<S>>, Rc<Regex<S>>),
    /// Kleene closure.
    Star(Rc<Regex<S>>),
}

impl<S: Sym> Regex<S> {
    /// A single concrete symbol.
    pub fn sym(s: S) -> Self {
        Regex::Sym(CharClass::singleton(s))
    }

    /// A symbol class atom.
    pub fn class(c: CharClass<S>) -> Self {
        if c.is_empty() {
            Regex::Empty
        } else {
            Regex::Sym(c)
        }
    }

    /// Any single symbol.
    pub fn any_sym() -> Self {
        Regex::Sym(CharClass::any())
    }

    /// Smart concatenation: drops ε units and collapses ∅.
    pub fn concat(self, other: Self) -> Self {
        match (self, other) {
            (Regex::Empty, _) | (_, Regex::Empty) => Regex::Empty,
            (Regex::Epsilon, r) | (r, Regex::Epsilon) => r,
            (a, b) => Regex::Concat(Rc::new(a), Rc::new(b)),
        }
    }

    /// Smart alternation: collapses ∅ and trivially identical branches.
    pub fn alt(self, other: Self) -> Self {
        match (self, other) {
            (Regex::Empty, r) | (r, Regex::Empty) => r,
            (a, b) if a == b => a,
            (a, b) => Regex::Alt(Rc::new(a), Rc::new(b)),
        }
    }

    /// Smart Kleene star: `∅* = ε* = ε`, `(r*)* = r*`.
    pub fn star(self) -> Self {
        match self {
            Regex::Empty | Regex::Epsilon => Regex::Epsilon,
            s @ Regex::Star(_) => s,
            r => Regex::Star(Rc::new(r)),
        }
    }

    /// `r+ = r r*`.
    pub fn plus(self) -> Self {
        self.clone().concat(self.star())
    }

    /// `r? = r | ε`.
    pub fn opt(self) -> Self {
        self.alt(Regex::Epsilon)
    }

    /// Concatenation of a sequence of expressions (ε for the empty sequence).
    pub fn seq<I: IntoIterator<Item = Self>>(items: I) -> Self {
        items
            .into_iter()
            .fold(Regex::Epsilon, |acc, r| acc.concat(r))
    }

    /// Alternation of a sequence of expressions (∅ for the empty sequence).
    pub fn any_of<I: IntoIterator<Item = Self>>(items: I) -> Self {
        items.into_iter().fold(Regex::Empty, |acc, r| acc.alt(r))
    }

    /// The literal word `w`.
    pub fn word(w: &[S]) -> Self {
        Regex::seq(w.iter().cloned().map(Regex::sym))
    }

    /// Does the language of this expression contain ε?
    pub fn nullable(&self) -> bool {
        match self {
            Regex::Empty | Regex::Sym(_) => false,
            Regex::Epsilon | Regex::Star(_) => true,
            Regex::Concat(a, b) => a.nullable() && b.nullable(),
            Regex::Alt(a, b) => a.nullable() || b.nullable(),
        }
    }

    /// Is the language syntactically empty? (Complete thanks to the smart
    /// constructors collapsing ∅ eagerly, and sound in general.)
    pub fn is_empty_lang(&self) -> bool {
        match self {
            Regex::Empty => true,
            Regex::Epsilon | Regex::Star(_) => false,
            Regex::Sym(c) => c.is_empty(),
            Regex::Concat(a, b) => a.is_empty_lang() || b.is_empty_lang(),
            Regex::Alt(a, b) => a.is_empty_lang() && b.is_empty_lang(),
        }
    }

    /// Letters every word of the language contains, or `None` when the
    /// language is empty. `forced` maps a non-empty class to the letter any
    /// symbol of the class stands for, or `None` when the class forces no
    /// single letter. Purely structural and linear in the expression: a
    /// starred factor requires nothing, an alternation requires what *both*
    /// branches require, and a concatenation what either factor requires.
    pub fn required_letters<T: Ord + Clone>(
        &self,
        forced: &impl Fn(&CharClass<S>) -> Option<T>,
    ) -> Option<BTreeSet<T>> {
        match self {
            Regex::Empty => None,
            Regex::Epsilon | Regex::Star(_) => Some(BTreeSet::new()),
            Regex::Sym(c) if c.is_empty() => None,
            Regex::Sym(c) => Some(forced(c).into_iter().collect()),
            Regex::Concat(a, b) => {
                let (mut x, y) = (a.required_letters(forced)?, b.required_letters(forced)?);
                x.extend(y);
                Some(x)
            }
            Regex::Alt(a, b) => match (a.required_letters(forced), b.required_letters(forced)) {
                (Some(x), Some(y)) => Some(x.intersection(&y).cloned().collect()),
                (x, None) | (None, x) => x,
            },
        }
    }

    /// Structural size (number of AST nodes), counting shared nodes once per
    /// occurrence. Used by the compile-cost benchmarks.
    pub fn size(&self) -> usize {
        match self {
            Regex::Empty | Regex::Epsilon | Regex::Sym(_) => 1,
            Regex::Concat(a, b) | Regex::Alt(a, b) => 1 + a.size() + b.size(),
            Regex::Star(a) => 1 + a.size(),
        }
    }

    /// The mirror image: generates `w_k…w_1` iff `self` generates `w_1…w_k`.
    pub fn reverse(&self) -> Regex<S> {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Sym(c) => Regex::Sym(c.clone()),
            Regex::Concat(a, b) => b.reverse().concat(a.reverse()),
            Regex::Alt(a, b) => a.reverse().alt(b.reverse()),
            Regex::Star(a) => a.reverse().star(),
        }
    }

    /// Rewrite every atom with `f`, preserving structure.
    pub fn map_classes<T: Sym>(
        &self,
        f: &mut impl FnMut(&CharClass<S>) -> CharClass<T>,
    ) -> Regex<T> {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Sym(c) => Regex::class(f(c)),
            Regex::Concat(a, b) => a.map_classes(f).concat(b.map_classes(f)),
            Regex::Alt(a, b) => a.map_classes(f).alt(b.map_classes(f)),
            Regex::Star(a) => a.map_classes(f).star(),
        }
    }

    /// Substitute each *atom* by a whole expression, preserving structure.
    /// This is the homomorphism `ξ` of Theorem 4 and the `e_r` substitution
    /// of Lemma 2's base case.
    pub fn substitute<T: Sym>(&self, f: &mut impl FnMut(&CharClass<S>) -> Regex<T>) -> Regex<T> {
        match self {
            Regex::Empty => Regex::Empty,
            Regex::Epsilon => Regex::Epsilon,
            Regex::Sym(c) => f(c),
            Regex::Concat(a, b) => a.substitute(f).concat(b.substitute(f)),
            Regex::Alt(a, b) => a.substitute(f).alt(b.substitute(f)),
            Regex::Star(a) => a.substitute(f).star(),
        }
    }

    /// Enumerate words of the language, shortest-ish first, up to `limit`
    /// words, expanding classes with `expand` (a class may stand for several
    /// concrete symbols). Executable-spec helper for tests.
    pub fn enumerate(&self, expand: &dyn Fn(&CharClass<S>) -> Vec<S>, limit: usize) -> Vec<Vec<S>> {
        // Breadth-limited expansion via iterative deepening on word length.
        let mut out: Vec<Vec<S>> = Vec::new();
        let mut seen = std::collections::BTreeSet::new();
        for len in 0..=8 {
            self.enum_len(expand, len, &mut Vec::new(), &mut |w| {
                if out.len() < limit && seen.insert(w.to_vec()) {
                    out.push(w.to_vec());
                }
            });
            if out.len() >= limit {
                break;
            }
        }
        out
    }

    fn enum_len(
        &self,
        expand: &dyn Fn(&CharClass<S>) -> Vec<S>,
        len: usize,
        prefix: &mut Vec<S>,
        emit: &mut dyn FnMut(&[S]),
    ) {
        match self {
            Regex::Empty => {}
            Regex::Epsilon => {
                if len == 0 {
                    emit(prefix);
                }
            }
            Regex::Sym(c) => {
                if len == 1 {
                    for s in expand(c) {
                        prefix.push(s);
                        emit(prefix);
                        prefix.pop();
                    }
                }
            }
            Regex::Concat(a, b) => {
                for k in 0..=len {
                    // Enumerate left side at length k, then right at len - k.
                    let mut lefts: Vec<Vec<S>> = Vec::new();
                    a.enum_len(expand, k, &mut Vec::new(), &mut |w| lefts.push(w.to_vec()));
                    for l in lefts {
                        let base = prefix.len();
                        prefix.extend(l);
                        b.enum_len(expand, len - k, prefix, emit);
                        prefix.truncate(base);
                    }
                }
            }
            Regex::Alt(a, b) => {
                a.enum_len(expand, len, prefix, emit);
                b.enum_len(expand, len, prefix, emit);
            }
            Regex::Star(a) => {
                if len == 0 {
                    emit(prefix);
                } else {
                    // First block non-empty to guarantee termination.
                    for k in 1..=len {
                        let mut firsts: Vec<Vec<S>> = Vec::new();
                        a.enum_len(expand, k, &mut Vec::new(), &mut |w| firsts.push(w.to_vec()));
                        for fw in firsts {
                            let base = prefix.len();
                            prefix.extend(fw);
                            self.enum_len(expand, len - k, prefix, emit);
                            prefix.truncate(base);
                        }
                    }
                }
            }
        }
    }
}

impl<S: Sym + std::fmt::Display> std::fmt::Display for Regex<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        fn go<S: Sym + std::fmt::Display>(
            r: &Regex<S>,
            f: &mut std::fmt::Formatter<'_>,
            prec: u8,
        ) -> std::fmt::Result {
            match r {
                Regex::Empty => write!(f, "∅"),
                Regex::Epsilon => write!(f, "ε"),
                Regex::Sym(c) => write!(f, "{c}"),
                Regex::Concat(a, b) => {
                    if prec > 1 {
                        write!(f, "(")?;
                    }
                    go(a, f, 1)?;
                    write!(f, " ")?;
                    go(b, f, 1)?;
                    if prec > 1 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Alt(a, b) => {
                    if prec > 0 {
                        write!(f, "(")?;
                    }
                    go(a, f, 0)?;
                    write!(f, "|")?;
                    go(b, f, 0)?;
                    if prec > 0 {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                Regex::Star(a) => {
                    go(a, f, 2)?;
                    write!(f, "*")
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand_single(c: &CharClass<u8>) -> Vec<u8> {
        // Universe {0,1,2} for enumeration tests.
        (0u8..3).filter(|s| c.contains(s)).collect()
    }

    #[test]
    fn smart_constructors_collapse_trivia() {
        let r = Regex::<u8>::Empty.alt(Regex::sym(1));
        assert_eq!(r, Regex::sym(1));
        let r = Regex::Epsilon.concat(Regex::sym(1));
        assert_eq!(r, Regex::sym(1));
        let r = Regex::sym(1).concat(Regex::Empty);
        assert_eq!(r, Regex::Empty);
        assert_eq!(Regex::<u8>::Empty.star(), Regex::Epsilon);
        assert_eq!(Regex::sym(1u8).star().star(), Regex::sym(1u8).star());
    }

    #[test]
    fn nullable_cases() {
        assert!(Regex::<u8>::Epsilon.nullable());
        assert!(!Regex::sym(0u8).nullable());
        assert!(Regex::sym(0u8).star().nullable());
        assert!(Regex::sym(0u8).opt().nullable());
        assert!(!Regex::sym(0u8).plus().nullable());
        assert!(!Regex::sym(0u8).concat(Regex::sym(1).star()).nullable());
    }

    #[test]
    fn enumerate_star() {
        let r = Regex::sym(1u8).star();
        let words = r.enumerate(&expand_single, 4);
        assert_eq!(words, vec![vec![], vec![1], vec![1, 1], vec![1, 1, 1]]);
    }

    #[test]
    fn enumerate_alt_concat() {
        // (0|1) 2
        let r = Regex::sym(0u8).alt(Regex::sym(1)).concat(Regex::sym(2));
        let mut words = r.enumerate(&expand_single, 10);
        words.sort();
        assert_eq!(words, vec![vec![0, 2], vec![1, 2]]);
    }

    #[test]
    fn word_builder() {
        let r = Regex::word(&[1u8, 2, 0]);
        let words = r.enumerate(&expand_single, 10);
        assert_eq!(words, vec![vec![1, 2, 0]]);
    }

    #[test]
    fn is_empty_lang_detects_emptiness() {
        assert!(Regex::<u8>::Empty.is_empty_lang());
        assert!(!Regex::<u8>::Epsilon.is_empty_lang());
        assert!(!Regex::sym(0u8).is_empty_lang());
        // Smart constructor already collapses, but check the recursive path
        // through a manually built node.
        let r = Regex::Concat(
            std::rc::Rc::new(Regex::sym(0u8)),
            std::rc::Rc::new(Regex::Empty),
        );
        assert!(r.is_empty_lang());
    }

    #[test]
    fn substitute_replaces_atoms() {
        let r = Regex::sym(0u8).concat(Regex::sym(1).star());
        let out: Regex<u8> = r.substitute(&mut |c| {
            if c.contains(&0) {
                Regex::word(&[2, 2])
            } else {
                Regex::class(c.clone())
            }
        });
        let words = out.enumerate(&expand_single, 3);
        assert_eq!(words[0], vec![2, 2]);
        assert!(words.contains(&vec![2, 2, 1]));
    }

    #[test]
    fn required_letters_follow_mandatory_steps() {
        let req = |r: Regex<u8>| {
            r.required_letters(&|c| c.single().copied())
                .map(Vec::from_iter)
        };
        assert_eq!(req(Regex::word(&[0, 1, 0])), Some(vec![0, 1]));
        assert_eq!(
            req(Regex::sym(0).concat(Regex::sym(1).star())),
            Some(vec![0])
        );
        assert_eq!(req(Regex::sym(0).alt(Regex::sym(1))), Some(vec![]));
        let both = Regex::word(&[0, 2]).alt(Regex::word(&[2, 1]));
        assert_eq!(req(both), Some(vec![2]));
        assert_eq!(req(Regex::sym(0).opt()), Some(vec![]));
        // A multi-symbol class forces a letter only when `forced` says so.
        assert_eq!(req(Regex::class(CharClass::of([0, 1]))), Some(vec![]));
        let any_of_01 = Regex::class(CharClass::of([0, 1]));
        let first = any_of_01.required_letters(&|c| match c {
            CharClass::In(set) => set.first().map(|_| 7u8),
            CharClass::NotIn(_) => None,
        });
        assert_eq!(first, Some(BTreeSet::from([7])));
        // The empty language requires nothing it can be asked for: `None`.
        assert_eq!(req(Regex::Empty), None);
        assert_eq!(req(Regex::Sym(CharClass::empty())), None);
        let half_empty = Regex::Alt(Rc::new(Regex::Empty), Rc::new(Regex::sym(1)));
        assert_eq!(req(half_empty), Some(vec![1]));
    }

    #[test]
    fn display_is_readable() {
        let r = Regex::sym(0u8)
            .alt(Regex::sym(1))
            .concat(Regex::sym(2).star());
        assert_eq!(format!("{r}"), "(0|1) 2*");
    }
}
