//! # hedgex-analyze — static query analysis
//!
//! Decides properties of extended path expressions *before* any document
//! is read, by compiling a query into two ordinary hedge automata and then
//! asking closure-property questions of `hedgex-ha`:
//!
//! * the **envelope automaton** accepts exactly the pointed hedges the PHR
//!   matches (the query's behaviour at one candidate node);
//! * the **match automaton** accepts exactly the documents containing at
//!   least one located node (the query's behaviour on whole documents).
//!
//! Both come out of one shared *spine construction* ([`spine`]): a
//! nondeterministic hedge automaton that guesses the root-to-match spine
//! and checks each triplet's elder/younger conditions along it. With the
//! automata in hand, every analysis is a standard decision procedure:
//!
//! | Question | Procedure |
//! |---|---|
//! | satisfiable? | emptiness of the envelope (and content) languages |
//! | satisfiable under schema `S`? | emptiness of `L(match) ∩ L(S)` |
//! | `matches(A) ⊆ matches(B)`? | inclusion of envelope and content parts |
//! | symbol `a` required? | emptiness of `L(match) ∩ L(avoid a)` |
//!
//! Every verdict carries evidence — a witness document, a counterexample,
//! or a reason — extracted by `hedgex_ha::analysis::accepted_witness`.
//! [`report`] packages the procedures, and [`AnalyzedQuery::plan_facts`]
//! distils a report into [`hedgex_core::PlanFacts`] for callers that want
//! the analyzer's stronger facts on a [`hedgex_core::Plan`]. Query
//! evaluation never needs it: every plan derives its own structural facts.

#![forbid(unsafe_code)]

pub mod report;
pub mod spine;

pub use report::{analyze, AnalyzedQuery, Containment, QueryAnalysis, Satisfiability, WhyEmpty};
pub use spine::Spine;
