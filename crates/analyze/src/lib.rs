//! # hedgex-analyze — static query analysis
//!
//! Decides properties of extended path expressions *before* any document
//! is read, by compiling a query into two ordinary hedge automata and then
//! asking closure-property questions of `hedgex-ha`:
//!
//! * the **envelope automaton** (a DHA) accepts exactly the pointed hedges
//!   the PHR matches (the query's behaviour at one candidate node);
//! * the **match automaton** (an NHA) accepts exactly the documents
//!   containing at least one located node (the query's behaviour on whole
//!   documents).
//!
//! Both come out of one shared *spine construction*: a nondeterministic
//! hedge automaton that guesses the root-to-match spine and checks each
//! triplet's elder/younger conditions along it. It sits on Theorem 4's
//! shared automaton `M`, the one evaluation compiles
//! ([`hedgex_core::phr_compile::shared_product`]), so check and evaluation
//! compile a query's components once each. With the automata in hand,
//! every analysis is a standard decision procedure:
//!
//! | Question | Procedure |
//! |---|---|
//! | satisfiable? | emptiness of the envelope (and content) languages |
//! | satisfiable under schema `S`? | emptiness of the NHA `match × S` |
//! | `matches(A) ⊆ matches(B)`? | inclusion of envelope and content parts |
//! | symbol `a` required? | emptiness of `match` without the rules of `a` |
//!
//! Only inclusion complements, so only the envelope is determinized
//! (Theorem 1); the match automaton's questions are all emptiness, a
//! polynomial bottom-up fixpoint on the NHA itself. Every verdict carries
//! evidence — a witness document, a counterexample, or a reason —
//! extracted by `hedgex_ha::analysis::{accepted_witness,
//! nha_accepted_witness}`. [`report`] packages the procedures, and
//! [`AnalyzedQuery::plan_facts`] distils a report into
//! [`hedgex_core::PlanFacts`] for callers that want the analyzer's
//! stronger facts on a [`hedgex_core::Plan`]. Query evaluation never needs
//! it: every plan derives its own structural facts.

#![forbid(unsafe_code)]

pub mod report;
mod spine;

pub use report::{analyze, AnalyzedQuery, Containment, QueryAnalysis, Satisfiability, WhyEmpty};
