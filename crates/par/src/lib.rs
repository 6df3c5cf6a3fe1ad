//! # hedgex-par — parallel batch evaluation
//!
//! Compilation (Section 7) is exponential-time preprocessing; evaluation is
//! linear per hedge and *independent across hedges* — once a
//! [`hedgex_core::Plan`] is shared immutably, evaluating a corpus of
//! documents is embarrassingly parallel. This crate supplies the missing
//! execution layer, using nothing beyond `std` (the workspace is hermetic —
//! no rayon, no crossbeam):
//!
//! * [`pool`] — a scoped worker pool built on [`std::thread::scope`]:
//!   workers take task indices from one shared atomic cursor. A batch is
//!   a fixed set of tasks that never spawn tasks, so one counter balances
//!   it with no per-worker queues and no stealing; at one worker the same
//!   worker body runs inline on the calling thread. No threads outlive a
//!   call; borrowing the plan, the corpus, and the closures from the
//!   caller's stack needs no `'static` bounds and no `unsafe`.
//! * [`ParallelEvaluator`] — batches over the pool: one plan over a corpus
//!   of documents ([`ParallelEvaluator::eval_corpus`]), one plan run
//!   repeatedly ([`ParallelEvaluator::repeat`]), and any other per-task
//!   closure ([`ParallelEvaluator::map_with_scratch`]), each worker
//!   reusing one [`hedgex_core::EvalScratch`] across its tasks. Results always come back in deterministic input order, equal
//!   element-for-element to the sequential [`hedgex_core::plan::Plan::locate_into`]
//!   loop — scheduling can never change an answer, only its latency.

#![forbid(unsafe_code)]

pub mod evaluator;
pub mod pool;

pub use evaluator::ParallelEvaluator;
pub use pool::run_scoped;
