//! Hedge automata (Murata, PODS 2001, Section 3).
//!
//! A hedge automaton assigns states bottom-up: leaves get states through
//! `ι`, and a node `a⟨u⟩` gets `α(a, q₁…q_k)` where `q₁…q_k` are the states
//! of its children. All horizontal structure lives in *regular string
//! languages over the state set Q*, supplied by `hedgex-automata`:
//!
//! * a **deterministic** hedge automaton ([`Dha`], Definition 3) makes `α` a
//!   total function `Σ × Q* → Q` whose inverse images `α⁻¹(a, q)` are
//!   regular, and accepts a hedge when the ceil of its computation lies in
//!   the final state sequence set `F` (Definitions 4–5);
//! * a **non-deterministic** hedge automaton ([`Nha`], Definitions 6–8)
//!   maps into sets of states; it is executed directly by a set-valued
//!   bottom-up pass, or converted to a [`Dha`] by the subset construction
//!   of Theorem 1 ([`determinize()`]).
//!
//! Also here: products of automata (used by Theorem 4's shared-state
//! construction and by schema transformation), reachability analyses
//! (inhabited and top-useful states, emptiness, witness extraction), an
//! exhaustive small-hedge enumerator for language-equality testing, and the
//! paper's own worked examples `M₀`/`M₁` ([`paper`]).

#![forbid(unsafe_code)]

pub mod analysis;
pub mod determinize;
pub mod dha;
pub mod enumerate;
pub mod minimize;
pub mod nha;
pub mod ops;
pub mod paper;
pub mod product;
pub mod reduce;
pub mod types;

pub use determinize::determinize;
pub use dha::{Dha, DhaBuilder, EvalScratch, HorizFn};
pub use enumerate::enumerate_hedges;
pub use nha::{LangId, Nha, NhaBuilder};
pub use reduce::{reduce_dha, ReduceStats};
pub use types::{HState, Leaf};
