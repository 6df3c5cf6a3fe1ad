//! # hedgex-store — persistent documents, structural indexes, pruned queries
//!
//! The evaluators in `hedgex-core` are linear per document — but a corpus
//! served repeatedly re-parses and re-traverses every document on every
//! query. This crate is the "parse once, answer by range scan" layer on
//! top:
//!
//! * [`DocumentStore`] — an on-disk corpus of [`FlatHedge`]s plus their
//!   shared [`Alphabet`]. The dense preorder arena is already
//!   serialization-shaped: one `(label, parent)` record per node is the
//!   whole document. The file format is versioned and checksummed, and a
//!   load takes one pass per document: each record goes straight into a
//!   [`FlatBuilder`], which validates the preorder forest as it builds
//!   it and writes each node's subtree end when the node closes.
//!   Loading truncated or corrupted bytes returns a typed [`StoreError`]
//!   with a byte-accurate position — never a panic.
//! * [`StructIndex`] — per stored document: per-symbol postings
//!   (`SymId` → sorted preorder node ids). The subtree extents a pruned
//!   query needs are the arena's own
//!   ([`hedgex_hedge::FlatHedge::subtree_ends`]: the descendants of `n`
//!   are the preorder range `n+1..end(n)`). The index is derived, never
//!   stored: [`StructIndex::build`] counting-sorts the postings from the
//!   arena's labels, on load and for an in-memory document alike, so the
//!   file holds only the alphabet and the node records.
//! * [`StoreQuery`] — index-pruned evaluation: a plan's required symbols
//!   are checked against postings emptiness (O(1) per document instead of
//!   a label scan), the candidate set is the union of the
//!   plan's `match_syms` postings, and the evaluation walk visits only
//!   the ancestors-closure of candidate ranges (`Plan::eval_pruned_into`,
//!   the walk of `hedgex_core::two_pass::eval_into` behind a gate).
//!   Documents whose
//!   candidate set is empty skip evaluation — including the bottom-up
//!   automaton run — entirely.
//!
//! Observability: `store.{docs_pruned,ranges_skipped,postings_hits}`
//! counters and `store.{save,load,query.doc}` spans.
//!
//! [`FlatHedge`]: hedgex_hedge::FlatHedge
//! [`Alphabet`]: hedgex_hedge::Alphabet
//! [`FlatBuilder`]: hedgex_hedge::FlatBuilder
//! [`CompiledPhr::match_syms`]: hedgex_core::CompiledPhr::match_syms

#![forbid(unsafe_code)]

pub mod query;
pub mod store;

pub use query::StoreQuery;
pub use store::{DocumentStore, StoreError, StoredDoc, StructIndex};
