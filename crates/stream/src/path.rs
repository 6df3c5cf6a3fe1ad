//! Streaming classical path expressions (Section 8).
//!
//! The degenerate case streams *fully*: the top-down DFA only ever needs
//! the state of each currently open ancestor, so the whole evaluator is a
//! stack of DFA states plus a stack of sibling counters for Dewey
//! reconstruction — memory exactly proportional to depth, independent of
//! both node count and match count (unless matches are collected). In
//! `exists` mode the first accepting node aborts the parse, which is the
//! streaming win no materialized evaluator can have.

use std::sync::Arc;

use hedgex_automata::StateId;
use hedgex_core::path_expr::{CompiledPath, PathExpr};
use hedgex_hedge::{Alphabet, HedgeSink, Leaf, NodeId, SymId};

use crate::StreamStats;

/// A [`HedgeSink`] evaluating a classical path expression with one
/// top-down DFA, O(depth) state.
///
/// Compile with [`PathStream::new`] *after* interning the query (the dense
/// table must cover the query's own symbols; symbols first seen later in
/// the document stream take the DFA's co-finite edge, which is exactly the
/// transition a never-mentioned name deserves).
pub struct PathStream {
    dfa: Arc<CompiledPath>,
    exists: bool,
    count_only: bool,
    record_addresses: bool,
    /// DFA state per open element (the ancestor chain).
    stack: Vec<StateId>,
    /// Dewey counters: `counts[d]` is the number of children seen so far at
    /// depth `d`; always one longer than `stack`.
    counts: Vec<u32>,
    /// Preorder rank of the next node, kept aligned with materialized
    /// [`NodeId`]s (leaves consume ranks too).
    next_id: u32,
    /// Running number of matches (maintained in every mode; the only
    /// output of `count_only`).
    matched: u64,
    located: Vec<NodeId>,
    deweys: Vec<Vec<u32>>,
    stats: StreamStats,
}

impl PathStream {
    /// Compile `path` against the symbols interned in `ab` so far — the
    /// same [`CompiledPath`] a path [`Plan`](hedgex_core::Plan) evaluates.
    pub fn new(path: &PathExpr, ab: &Alphabet) -> PathStream {
        PathStream::from_compiled(Arc::new(CompiledPath::compile(path, ab)))
    }

    /// A sink on an already-compiled DFA, e.g. a path plan's
    /// ([`Backend::Path`](hedgex_core::plan::Backend::Path)), so a
    /// streaming run evaluates the very automaton its plan holds.
    pub fn from_compiled(dfa: Arc<CompiledPath>) -> PathStream {
        PathStream {
            dfa,
            exists: false,
            count_only: false,
            record_addresses: false,
            stack: Vec::new(),
            counts: vec![0],
            next_id: 0,
            matched: 0,
            located: Vec::new(),
            deweys: Vec::new(),
            stats: StreamStats::default(),
        }
    }

    /// Stop the stream at the first match (grep's `-q`): the parser stops,
    /// [`StreamStats::early_exit`] is set, and `located` holds that single
    /// witness.
    pub fn exists(mut self, on: bool) -> PathStream {
        self.exists = on;
        self
    }

    /// Record the Dewey address of every match as it is found (costs
    /// O(depth) per match; without it, memory is independent of matches'
    /// addresses).
    pub fn record_addresses(mut self, on: bool) -> PathStream {
        self.record_addresses = on;
        self
    }

    /// [`record_addresses`](PathStream::record_addresses), kept for E12.
    pub fn collect_deweys(self, on: bool) -> PathStream {
        self.record_addresses(on)
    }

    /// Count matches without recording them: memory stays O(depth) no
    /// matter how many nodes match — the `wc -l` to `exists`'s `grep -q`.
    pub fn count_only(mut self, on: bool) -> PathStream {
        self.count_only = on;
        self
    }

    /// Flush obs counters and return the matches in document order.
    pub fn finish(&mut self) -> &[NodeId] {
        let _span = hedgex_obs::span("stream.path.finish");
        self.stats.flush_obs();
        &self.located
    }

    /// The matches found so far.
    pub fn located(&self) -> &[NodeId] {
        &self.located
    }

    /// Dewey addresses of the matches (when recorded), aligned with
    /// [`located`](PathStream::located).
    pub fn addresses(&self) -> impl Iterator<Item = &[u32]> {
        self.deweys.iter().map(Vec::as_slice)
    }

    /// [`addresses`](PathStream::addresses) as stored, kept for E12.
    pub fn deweys(&self) -> &[Vec<u32>] {
        &self.deweys
    }

    /// Event/memory counters gathered while streaming.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Whether any node matched.
    pub fn found(&self) -> bool {
        self.matched > 0
    }

    /// Number of matches seen so far (maintained in every mode).
    pub fn count(&self) -> u64 {
        self.matched
    }

    /// Number of nodes seen so far.
    pub fn num_nodes(&self) -> usize {
        self.next_id as usize
    }
}

impl HedgeSink for PathStream {
    fn open(&mut self, a: SymId) -> bool {
        self.stats.bump_event();
        let id = self.next_id;
        self.next_id += 1;
        *self.counts.last_mut().expect("counts is never empty") += 1;
        let from = self
            .stack
            .last()
            .copied()
            .unwrap_or_else(|| self.dfa.start());
        let s = self.dfa.step(from, a);
        let hit = self.dfa.is_accepting(s);
        if hit {
            self.matched += 1;
            if !self.count_only {
                self.located.push(id);
                if self.record_addresses {
                    self.deweys.push(self.counts.clone());
                }
            }
        }
        self.stack.push(s);
        self.counts.push(0);
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.stack.len());
        self.stats.live_high_water = self.stats.live_high_water.max(self.stack.len());
        if hit && self.exists {
            self.stats.early_exit = true;
            return false;
        }
        true
    }

    fn leaf(&mut self, _l: Leaf) -> bool {
        self.stats.bump_event();
        self.next_id += 1;
        *self.counts.last_mut().expect("counts is never empty") += 1;
        true
    }

    fn close(&mut self) -> bool {
        self.stats.bump_event();
        if self.stack.pop().is_some() {
            self.counts.pop();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay_flat;
    use hedgex_core::path_expr::parse_path;
    use hedgex_hedge::{parse_hedge, FlatHedge};

    fn check(path_src: &str, doc_src: &str) {
        let mut ab = Alphabet::new();
        let path = parse_path(path_src, &mut ab).unwrap();
        let h = parse_hedge(doc_src, &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        let mut sink = PathStream::new(&path, &ab).record_addresses(true);
        assert!(replay_flat(&flat, &mut sink));
        let streamed = sink.finish().to_vec();
        assert_eq!(streamed, path.locate(&flat), "{path_src} on {doc_src}");
        // Each recorded address names its match.
        assert_eq!(sink.addresses().count(), streamed.len());
        for (addr, &n) in sink.addresses().zip(&streamed) {
            assert_eq!(flat.by_dewey(addr), Some(n), "address of {n}");
        }
    }

    #[test]
    fn matches_materialized_locate() {
        check("a", "a b a<a b>");
        check("a* b", "a<a<b> b> b");
        check("(a|b) b", "a<b<b> a> b<b>");
        check("a b?", "a<b a<b>>");
    }

    #[test]
    fn symbols_interned_after_compile_take_the_cofinite_edge() {
        let mut ab = Alphabet::new();
        let path = parse_path("a b", &mut ab).unwrap();
        let mut sink = PathStream::new(&path, &ab);
        // `c` is interned only now — after the dense table was built.
        let c = ab.sym("c");
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        assert!(sink.open(a));
        assert!(sink.open(c));
        assert!(sink.close());
        assert!(sink.open(b));
        assert!(sink.close());
        assert!(sink.close());
        assert_eq!(sink.finish(), &[2]);
    }

    #[test]
    fn count_only_tallies_without_materializing() {
        let mut ab = Alphabet::new();
        let path = parse_path("a* b", &mut ab).unwrap();
        let h = parse_hedge("a<a<b> b> b a<b b>", &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        let expected = path.locate(&flat).len() as u64;
        let mut sink = PathStream::new(&path, &ab).count_only(true);
        assert!(replay_flat(&flat, &mut sink));
        sink.finish();
        assert_eq!(sink.count(), expected);
        assert!(sink.found());
        assert!(sink.located().is_empty(), "count mode records no ids");
        // The default mode keeps the same running tally.
        let mut sink = PathStream::new(&path, &ab);
        assert!(replay_flat(&flat, &mut sink));
        assert_eq!(sink.count(), expected);
        assert_eq!(sink.located().len() as u64, expected);
    }

    #[test]
    fn exists_stops_at_first_match() {
        let mut ab = Alphabet::new();
        let path = parse_path("a", &mut ab).unwrap();
        let h = parse_hedge("b a a a", &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        let mut sink = PathStream::new(&path, &ab).exists(true);
        assert!(
            !replay_flat(&flat, &mut sink),
            "driver must report the stop"
        );
        assert_eq!(sink.finish(), &[1]);
        let stats = sink.stats();
        assert!(stats.early_exit);
        assert!(stats.events < 8, "stopped after {} events", stats.events);
    }
}
