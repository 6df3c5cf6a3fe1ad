//! Push-based evaluation over the XML parser's events.
//!
//! What a sink can do with the events depends on the paper's evaluator:
//!
//! * **Classical path expressions** (Section 8) stream fully: the single
//!   top-down DFA only ever needs the states of the currently open
//!   ancestor chain, so [`PathStream`] answers during the parse with
//!   O(depth) state, and in `exists` mode aborts the parse on the first
//!   accepting node.
//! * **General PHRs** (Sections 6–7) cannot answer before the input ends:
//!   a node's match depends on its younger siblings' `M`-states and on its
//!   ancestors' classes. [`PhrStream`] builds the document's arena from the
//!   events, as [`parse_flat`] does, and at the end runs
//!   [`hedgex_core::two_pass::eval_into`], the one walk every PHR route
//!   runs. Beyond the arena it holds only the open chain.
//!
//! Either way the parser works on a `&str` the caller has already read
//! whole: an early stop saves parsing, not reading.
//!
//! Both evaluators implement [`HedgeSink`], fed either by
//! [`stream_xml`] (XML text → events, via `hedgex-xml`'s event parser) or
//! by [`replay_flat`] (an already-materialized [`hedgex_hedge::FlatHedge`]
//! — the bridge the differential test suite uses to prove streamed ==
//! materialized on identical inputs). Node ids assigned by the sinks are
//! preorder ranks, so they coincide with materialized
//! [`hedgex_hedge::NodeId`]s and match sets compare with `==`.
//!
//! See DESIGN.md §11 for the invariants and EXPERIMENTS.md E9 for the
//! throughput/peak-memory measurements.

#![forbid(unsafe_code)]

pub mod driver;
pub mod path;
pub mod phr;

pub use driver::{parse_flat, replay_flat, stream_xml, XmlDriver};
pub use path::PathStream;
pub use phr::PhrStream;

use hedgex_ha::Leaf;
use hedgex_hedge::SymId;

/// A push-based consumer of hedge structure events, in document order.
///
/// Every callback returns `true` to keep going or `false` to request an
/// early stop (drivers abort the parse and report how far they got).
/// A well-formed event stream is balanced: every `open` is eventually
/// matched by a `close`, and `leaf`/nested events happen in between.
pub trait HedgeSink {
    /// A Σ node opens (its children follow, then a matching `close`).
    fn open(&mut self, a: SymId) -> bool;
    /// A childless leaf: a variable or substitution symbol.
    fn leaf(&mut self, l: Leaf) -> bool;
    /// The most recent unmatched `open` closes.
    fn close(&mut self) -> bool;
}

/// Counters a streaming evaluator gathers while consuming events — the
/// bench's peak-memory proxy and the early-exit evidence. Also flushed to
/// `hedgex-obs` (`stream.events`, `stream.depth_high_water`,
/// `stream.early_exits`) by the sinks' `finish` methods.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StreamStats {
    /// Total events consumed (open + leaf + close).
    pub events: u64,
    /// Deepest simultaneously-open element chain.
    pub depth_high_water: usize,
    /// Peak count of *live* (transient) entries: the open chain, for both
    /// sinks. It bounds working memory beyond what a sink retains — for
    /// [`PathStream`] its matches, for [`PhrStream`] the arena.
    pub live_high_water: usize,
    /// Whether evaluation requested an early stop (`exists` mode).
    pub early_exit: bool,
}

impl StreamStats {
    pub(crate) fn bump_event(&mut self) {
        self.events += 1;
    }

    pub(crate) fn flush_obs(&self) {
        hedgex_obs::counter_add("stream.events", self.events);
        hedgex_obs::histogram_record("stream.depth_high_water", self.depth_high_water as u64);
        hedgex_obs::histogram_record("stream.live_high_water", self.live_high_water as u64);
        // Last-finished-run gauge: what a live dashboard would watch to see
        // the streaming memory claim hold (depth-bounded, not size-bounded).
        hedgex_obs::gauge_set("stream.live_high_water.last", self.live_high_water as f64);
        if self.early_exit {
            hedgex_obs::counter_inc("stream.early_exits");
        }
    }
}
