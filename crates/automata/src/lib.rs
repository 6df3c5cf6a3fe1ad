//! Symbolic string-automata substrate for the extended-path-expressions stack.
//!
//! Hedge automata (the vertical machines of Murata, PODS 2001) delegate all
//! horizontal structure — "which sequences of child states are allowed under
//! a node labelled `a`" — to *regular string languages over the automaton's
//! own state set*. Two requirements shape this crate:
//!
//! 1. **Open alphabets.** While Lemma 1 composes sub-automata, the state set
//!    `Q` (which doubles as the horizontal alphabet) keeps growing. Transition
//!    labels are therefore [`CharClass`] values — finite sets (`In`) or
//!    co-finite sets (`NotIn`) of symbols — so "any symbol" and "anything but
//!    z̄" stay meaningful as the alphabet grows. Once it stops growing, the
//!    alphabet is closed (`0..k`), and [`Nfa::to_dense`] determinizes
//!    straight into a [`DenseDfa`] with [`bits`] sets for subsets.
//! 2. **Generic symbols.** The same machinery runs over hedge-automaton
//!    states (`u32`), interned XML element names, equivalence classes, and
//!    triplet signatures, so everything is generic over a symbol type `S`.
//!
//! The pieces:
//!
//! * [`Regex`] — regular expressions over `CharClass<S>` symbols, with smart
//!   constructors that keep ASTs small.
//! * [`Nfa`] — Thompson construction, union/concat/star, reversal (mirror
//!   image, needed by Theorem 4's automaton `N`), word removal (Lemma 1,
//!   case 9).
//! * [`Dfa`] — subset construction, products (an accept rule per
//!   [`ProductOp`]), Moore minimization, emptiness, language equivalence,
//!   and state-elimination back to a [`Regex`] (Lemma 2's base case).
//! * [`DenseDfa`] — the one dense table: a total DFA over the letters
//!   `0..k` plus a co-finite column, with its start, accepting and live
//!   states. Every automaton the evaluators step per node is one:
//!   Theorem 1's horizontal functions (`hedgex_ha::HorizFn`), Theorem 4's
//!   `≡` classes and mirror automaton `N`, §8's path DFA, and a hedge
//!   automaton's `F`, and a hedge automaton's rule languages.
//!   Constructions fill its rows directly, determinize an NFA over a
//!   closed alphabet ([`Nfa::to_dense`], via [`ClosedMoves`]), or
//!   tabulate a [`Dfa`] against an alphabet.
//! * [`SaturatingClasses`] — the right-invariant equivalence `≡` of
//!   Theorem 4: one product [`DenseDfa`] that simultaneously tracks a
//!   family of regular sets, whose states *are* the equivalence classes
//!   and which saturates every member language by construction.
//! * [`kernel`] — the loops every construction above and in the hedge
//!   automata layer is built from: the [`Worklist`] of subset and product
//!   states, the one bottom-up exploration [`saturate`], the [`row`]
//!   builder, and [`reach`]/[`coreach`].

#![forbid(unsafe_code)]

pub mod bits;
pub mod class;
pub mod classes;
pub mod dense;
pub mod dfa;
pub mod elim;
pub mod kernel;
pub mod nfa;
pub mod regex;

pub use class::CharClass;
pub use classes::SaturatingClasses;
pub use dense::DenseDfa;
pub use dfa::{Dfa, ProductOp};
pub use elim::dfa_to_regex;
pub use kernel::{coreach, in_edges, reach, row, saturate, Horizontal, WordHasher, Worklist};
pub use nfa::{ClosedMoves, Nfa};
pub use regex::Regex;

/// Automaton state identifier. Interned, dense, starts at 0.
pub type StateId = u32;

/// Blanket bound for symbol types used throughout the crate.
///
/// `Ord` is required because classes are stored as `BTreeSet`s (deterministic
/// iteration keeps constructions reproducible across runs, which the seeded
/// benchmarks rely on).
pub trait Sym: Clone + Ord + Eq + std::hash::Hash + std::fmt::Debug {}
impl<T: Clone + Ord + Eq + std::hash::Hash + std::fmt::Debug> Sym for T {}
