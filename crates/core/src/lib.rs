//! # hedgex-core — Extended Path Expressions for XML
//!
//! A faithful implementation of Makoto Murata, *Extended Path Expressions
//! for XML* (PODS 2001): hedge regular expressions, pointed hedge
//! representations, selection queries, their linear-time evaluation, and
//! schema transformation via match-identifying hedge automata.
//!
//! Classical path expressions describe the label path from the root to a
//! node, but say nothing about siblings, siblings of ancestors, or their
//! descendants. The paper extends the *alphabet* of path expressions: each
//! symbol becomes a triplet `(e₁, a, e₂)` where `e₁`/`e₂` are **hedge
//! regular expressions** constraining the elder/younger siblings (with all
//! their descendants) and `a` constrains the node itself.
//!
//! Map from paper to module:
//!
//! | Paper | Module |
//! |---|---|
//! | §4 Defs 9–12, HREs and their semantics | [`hre`] |
//! | §4 Lemma 1, HRE → hedge automaton | [`compile`] |
//! | §4 Lemma 2, hedge automaton → HRE | [`decompile`] |
//! | §5 Defs 16–19, PHRs and matching | [`phr`] |
//! | §6 Defs 20–22, selection queries | [`query`] |
//! | §6 Theorem 3, the marked automaton `M↓e` | [`mark_down`] |
//! | §7 Theorem 4, PHR → `(M, ≡, L)` | [`phr_compile`] |
//! | §7 Algorithm 1, two-traversal evaluation | [`two_pass`] |
//! | §8 Theorem 5, match-identifying `M↑e` | [`mark_up`] |
//! | §8 schema transformation | [`schema`] |
//! | §8 (end) classical path expressions | [`path_expr`] |
//!
//! ## Quick start
//!
//! ```
//! use hedgex_hedge::{Alphabet, FlatHedge, parse_hedge};
//! use hedgex_core::hre::parse_hre;
//! use hedgex_core::phr::parse_phr;
//! use hedgex_core::query::SelectQuery;
//!
//! let mut ab = Alphabet::new();
//! // The paper's Section 6 example: subhedge (b|x)*, envelope
//! // (ε, a, b)(b, a, ε).
//! let query = SelectQuery {
//!     subhedge: parse_hre("(b|$x)*", &mut ab).unwrap(),
//!     envelope: parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap(),
//! };
//! let doc = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
//! let flat = FlatHedge::from_hedge(&doc);
//!
//! let compiled = query.compile(); // exponential once…
//! let hits = compiled.locate(&flat); // …linear per document
//! assert_eq!(hits, vec![2]);
//! assert_eq!(flat.by_dewey(&[2, 1]), Some(2)); // the node at Dewey address 2.1
//! ```

#![forbid(unsafe_code)]

pub mod compile;
pub mod decompile;
pub mod hre;
pub mod keys;
pub mod mark_down;
pub mod mark_up;
pub mod path_expr;
pub mod phr;
pub mod phr_compile;
pub mod plan;
pub mod query;
pub mod schema;
mod syntax;
pub mod two_pass;

pub use compile::compile_hre;
pub use decompile::decompile_dha;
pub use hre::{parse_hre, Hre, GRADED_EXPANSION_CAP};
pub use keys::canonical_key;
pub use mark_down::{mark_run, MarkDown};
pub use mark_up::MarkUp;
pub use path_expr::{parse_path, CompiledPath, PathExpr};
pub use phr::{parse_phr, Pbhr, Phr};
pub use phr_compile::CompiledPhr;
pub use plan::{Plan, PlanFacts};
pub use query::{CompiledSelect, SelectQuery, SelectScratch};
pub use schema::{transform_select, SelectionSchema};
pub use two_pass::{EvalMode, EvalOutcome, EvalScratch, PruneInfo};
pub mod ambiguity;
