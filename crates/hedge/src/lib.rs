//! Hedges — ordered sequences of ordered trees — the data model of
//! Murata, *Extended Path Expressions for XML* (PODS 2001), Section 3.
//!
//! A hedge over an alphabet Σ, a variable set X, and substitution symbols Z
//! is (Definitions 1 and 9):
//!
//! * `ε` — the empty hedge,
//! * `x` — a variable leaf (`x ∈ X`),
//! * `a⟨u⟩` — a Σ-labelled node over a hedge `u` (with `a⟨z⟩`, `z ∈ Z`, as
//!   the substitution-symbol form),
//! * `u v` — horizontal concatenation.
//!
//! This crate provides:
//!
//! * interned alphabets ([`Alphabet`], [`SymId`], [`VarId`], [`SubId`])
//!   and leaf labels ([`Leaf`]),
//! * the recursive [`Hedge`]/[`Tree`] representation with `ceil`,
//!   `subhedge`, `envelope` (Definitions 2 and 21),
//! * [`HedgeSink`], the one preorder event interface from XML bytes to
//!   the evaluators, and the [`FlatBuilder`] that takes its events,
//! * a flat arena form ([`FlatHedge`]) for the evaluators, and the
//!   [`DeweyWriter`] that names its located nodes by their Dewey addresses
//!   (footnote 3 of the paper) in one forward pass,
//! * pointed hedges, their product `⊕` and unique decomposition into pointed
//!   base hedges (Definitions 13–15, Figures 1–2),
//! * a compact text syntax (`d<p<$x> p<$y>>`) with parser and printer, and
//! * seeded random generators for property tests and benchmark workloads.

#![forbid(unsafe_code)]

pub mod dewey;
pub mod flat;
pub mod gen;
pub mod hedge;
pub mod pointed;
pub mod symbols;
pub mod text;

pub use dewey::DeweyWriter;
pub use flat::{FlatBuilder, FlatHedge, HedgeSink, LabelOverflow, NodeId, LABEL_ID_LIMIT};
pub use gen::{GenConfig, HedgeGen};
pub use hedge::{Hedge, Tree};
pub use pointed::{PointedBaseHedge, PointedHedge};
pub use symbols::{Alphabet, Leaf, NamespaceSizes, SubId, SymId, VarId};
pub use text::{parse_hedge, print_hedge, ParseError, TextCursor};
