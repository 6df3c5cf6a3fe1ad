//! # hedgex — Extended Path Expressions for XML, batteries included
//!
//! Facade crate re-exporting the whole stack of the PODS 2001
//! reproduction (Murata, *Extended Path Expressions for XML*):
//!
//! * [`automata`] — symbolic string automata (NFA/DFA/regex; the horizontal
//!   machinery every hedge automaton delegates to);
//! * [`hedge`] — hedges, pointed hedges, parsing, generators;
//! * [`ha`] — hedge automata (deterministic & non-deterministic),
//!   determinization, products, analyses;
//! * [`core`] — the paper's contribution: hedge regular expressions,
//!   pointed hedge representations, selection queries, two-pass linear
//!   evaluation, match-identifying automata, schema transformation;
//! * [`analyze`] — static query analysis: satisfiability (absolute and
//!   schema-relative), containment/equivalence with counterexamples,
//!   required-symbol extraction, plan facts;
//! * [`xml`] — XML parsing/serialization and synthetic corpora;
//! * [`baseline`] — quadratic/interpretive baselines for benchmarking;
//! * [`par`] — scoped worker pool and parallel corpus/plan evaluation;
//! * [`stream`] — push-based evaluation over the XML parser's events: a
//!   path query answers during the parse with O(depth) state, a PHR
//!   builds the arena from the events and runs the one two-pass walk;
//! * [`store`] — persistent document corpora: versioned, checksummed
//!   on-disk stores whose structural index (per-symbol postings) is
//!   derived on load, and index-pruned query evaluation.
//!
//! [`run()`] takes one query from its source to its answer and, on request,
//! a [`Report`] of that same run: the pipeline behind every `hxq` query.
//!
//! See `examples/quickstart.rs` for a guided tour, and the `hedgex-core`
//! crate docs for the paper-to-module map.

#![forbid(unsafe_code)]

pub use hedgex_analyze as analyze;
pub use hedgex_automata as automata;
pub use hedgex_baseline as baseline;
pub use hedgex_core as core;
pub use hedgex_ha as ha;
pub use hedgex_hedge as hedge;
pub use hedgex_obs as obs;
pub use hedgex_par as par;
pub use hedgex_store as store;
pub use hedgex_stream as stream;
pub use hedgex_xml as xml;

pub mod run;
pub use run::{run, Report, Request, RunError};

/// Everything most programs need, one import away.
pub mod prelude {
    pub use hedgex_analyze::{analyze, AnalyzedQuery, QueryAnalysis};
    pub use hedgex_core::hre::parse_hre;
    pub use hedgex_core::path_expr::parse_path;
    pub use hedgex_core::phr::parse_phr;
    pub use hedgex_core::query::{CompiledSelect, SelectQuery, SelectScratch};
    pub use hedgex_core::schema::transform_select;
    pub use hedgex_core::two_pass;
    pub use hedgex_core::{CompiledPhr, EvalMode, EvalOutcome, EvalScratch, Plan, PlanFacts};
    pub use hedgex_ha::{determinize, Dha, Nha};
    pub use hedgex_hedge::{parse_hedge, Alphabet, FlatHedge, Hedge, PointedHedge};
    pub use hedgex_par::ParallelEvaluator;
    pub use hedgex_store::{DocumentStore, StoreError, StoreQuery, StructIndex};
    pub use hedgex_stream::{
        parse_flat, replay_flat, stream_xml, HedgeSink, PathStream, PhrStream,
    };
    pub use hedgex_xml::{parse_xml, to_hedge, write_xml, HedgeConfig};
}
