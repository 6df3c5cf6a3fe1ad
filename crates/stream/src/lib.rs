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
//! Either way the parser reads its input in chunks through one window
//! ([`stream_read`]) and never holds it whole, so an early stop saves
//! reading as well as parsing: nothing past the window that holds the
//! stop is read.
//!
//! Both evaluators implement [`HedgeSink`] (defined in `hedgex-hedge`,
//! re-exported here), fed either by [`stream_read`] or [`stream_xml`] —
//! `hedgex-xml`'s event parser over a reader or a `&str`, which applies
//! the XML → hedge mapping itself and drives the sink directly — or by [`replay_flat`] (an already-materialized
//! [`FlatHedge`] — the bridge the differential test suite uses to prove
//! streamed == materialized on identical inputs). Node ids assigned by the
//! sinks are preorder ranks, so they coincide with materialized
//! [`NodeId`]s and match sets compare with `==`.
//!
//! See DESIGN.md §11 for the invariants and EXPERIMENTS.md E9 for the
//! throughput/peak-memory measurements.

#![forbid(unsafe_code)]

pub mod path;
pub mod phr;

pub use hedgex_hedge::HedgeSink;
pub use hedgex_xml::{parse_flat, stream_read, stream_xml};
pub use path::PathStream;
pub use phr::PhrStream;

use hedgex_hedge::{FlatHedge, Leaf, NodeId};

/// Replay a materialized hedge as a stream of events, preorder. Returns
/// `false` if `eval` stopped early (remaining events are not delivered).
pub fn replay_flat<E: HedgeSink + ?Sized>(h: &FlatHedge, eval: &mut E) -> bool {
    let mut open: Vec<NodeId> = Vec::new();
    for id in h.preorder() {
        // Close elements until the top of the open stack is our parent.
        while open.last().copied() != h.parent(id) {
            if !eval.close() {
                return false;
            }
            open.pop();
        }
        let go = match Leaf::try_from(h.label(id)) {
            Ok(l) => eval.leaf(l),
            Err(a) => {
                open.push(id);
                eval.open(a)
            }
        };
        if !go {
            return false;
        }
    }
    while open.pop().is_some() {
        if !eval.close() {
            return false;
        }
    }
    true
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

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_core::phr::parse_phr;
    use hedgex_core::CompiledPhr;
    use hedgex_hedge::{Alphabet, SymId};
    use hedgex_xml::{parse_xml, to_hedge, HedgeConfig, StreamOutcome};

    /// Records events to compare event sources.
    struct Tape(Vec<String>);

    impl HedgeSink for Tape {
        fn open(&mut self, a: SymId) -> bool {
            self.0.push(format!("open {}", a.0));
            true
        }
        fn leaf(&mut self, l: Leaf) -> bool {
            self.0.push(format!("leaf {l:?}"));
            true
        }
        fn close(&mut self) -> bool {
            self.0.push("close".into());
            true
        }
    }

    /// The load-bearing invariant: for any document and either attribute
    /// mapping, `stream_xml` emits exactly the event sequence that
    /// replaying the materialized hedge does — same symbols, same order,
    /// same interned ids.
    #[test]
    fn xml_events_equal_materialized_replay() {
        let src = r#"<doc date="x"><sec>intro<fig width="10"/></sec><sec/> tail </doc>"#;
        for keep_attrs in [false, true] {
            let cfg = HedgeConfig {
                keep_text: true,
                keep_attrs,
            };
            let mut ab1 = Alphabet::new();
            let mut streamed = Tape(Vec::new());
            stream_xml(src, &mut ab1, cfg, &mut streamed).unwrap();

            let mut ab2 = Alphabet::new();
            let nodes = parse_xml(src).unwrap();
            let h = to_hedge(&nodes, &mut ab2, cfg);
            let flat = FlatHedge::from_hedge(&h);
            let mut replayed = Tape(Vec::new());
            assert!(replay_flat(&flat, &mut replayed));

            assert_eq!(streamed.0, replayed.0, "keep_attrs={keep_attrs}");
        }
    }

    #[test]
    fn end_to_end_xml_phr() {
        let src = "<doc><sec><fig/></sec><fig/></doc>";
        // A depth-1 query (one triplet consumes the whole path), and a
        // sibling-sensitive one locating the root-level doc.
        for (query, expected) in [("[ε ; fig ; ε]", 0), ("[ε ; doc ; ε]", 1)] {
            let mut ab = Alphabet::new();
            let phr = parse_phr(query, &mut ab).unwrap();
            let compiled = CompiledPhr::compile(&phr);
            let mut sink = PhrStream::new(&compiled);
            let out = stream_xml(src, &mut ab, HedgeConfig::default(), &mut sink).unwrap();
            assert_eq!(out, StreamOutcome::Finished);
            let streamed = sink.finish().to_vec();

            let nodes = parse_xml(src).unwrap();
            let h = to_hedge(&nodes, &mut ab, HedgeConfig::default());
            let flat = FlatHedge::from_hedge(&h);
            assert_eq!(
                streamed,
                hedgex_core::two_pass::locate(&compiled, &flat),
                "{query}"
            );
            assert_eq!(streamed.len(), expected, "{query}");
        }
    }
}
