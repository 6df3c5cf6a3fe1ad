//! Streaming classical path expressions (Section 8).
//!
//! The degenerate case streams *fully*: the top-down DFA only ever needs
//! the state of each currently open ancestor, so the whole evaluator is a
//! stack of DFA states plus a stack of sibling counters for Dewey
//! reconstruction — memory exactly proportional to depth, independent of
//! both node count and match count (unless matches are collected).
//! Collected addresses are prefix-coded against the previous match, so
//! they take O(nodes + matches) words, not O(matches × depth), and the
//! events between matches do no extra work but a `min` per close. In
//! `exists` mode the first accepting node aborts the parse, which is the
//! streaming win no materialized evaluator can have.

use std::cell::OnceCell;
use std::convert::Infallible;
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
    /// Length of the last recorded address.
    last_len: usize,
    /// The shortest `counts` has been since that address was recorded,
    /// minus one (`usize::MAX` if no element has closed since): the depth
    /// from which the next address differs from it. Without a close, only
    /// depths past `last_len` have changed; after one, the next address
    /// must re-open the depth the close returned to.
    closed_to: usize,
    /// Preorder rank of the next node, kept aligned with materialized
    /// [`NodeId`]s (leaves consume ranks too).
    next_id: u32,
    /// Running number of matches (maintained in every mode; the only
    /// output of `count_only`).
    matched: u64,
    located: Vec<NodeId>,
    /// The recorded addresses, prefix-coded: per match, the length it
    /// shares with the previous address, the number of steps after that,
    /// then those steps.
    codes: Vec<u32>,
    /// `codes` decoded, built on first request.
    deweys: OnceCell<Vec<Vec<u32>>>,
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
            last_len: 0,
            closed_to: usize::MAX,
            next_id: 0,
            matched: 0,
            located: Vec::new(),
            codes: Vec::new(),
            deweys: OnceCell::new(),
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

    /// Record the Dewey address of every match as it is found. Each one is
    /// stored as its difference from the previous match's, so a whole
    /// answer costs O(nodes + matches) words; without it, memory is
    /// independent of matches' addresses.
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

    /// Call `f` on the Dewey address of each match (when recorded), in the
    /// order of [`located`](PathStream::located), stopping at its first
    /// error. The addresses are decoded into one reused buffer.
    pub fn try_for_each_address<E>(
        &self,
        mut f: impl FnMut(&[u32]) -> Result<(), E>,
    ) -> Result<(), E> {
        let mut addr: Vec<u32> = Vec::new();
        let mut i = 0;
        while i < self.codes.len() {
            let (common, tail) = (self.codes[i] as usize, self.codes[i + 1] as usize);
            addr.truncate(common);
            addr.extend_from_slice(&self.codes[i + 2..i + 2 + tail]);
            f(&addr)?;
            i += 2 + tail;
        }
        Ok(())
    }

    /// Number of words the recorded addresses occupy.
    pub fn address_words(&self) -> usize {
        self.codes.len()
    }

    /// The recorded addresses, one `Vec` each, decoded on first request
    /// (for E12; [`try_for_each_address`](PathStream::try_for_each_address)
    /// allocates nothing per address).
    pub fn deweys(&self) -> &[Vec<u32>] {
        self.deweys.get_or_init(|| {
            let mut all = Vec::new();
            let Ok(()) = self.try_for_each_address(|a| {
                all.push(a.to_vec());
                Ok::<(), Infallible>(())
            });
            all
        })
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
                    self.record_address();
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
            self.closed_to = self.closed_to.min(self.counts.len() - 1);
        }
        true
    }
}

impl PathStream {
    /// Append the current address, coded against the last recorded one.
    fn record_address(&mut self) {
        let common = self.closed_to.min(self.last_len);
        let tail = &self.counts[common..];
        self.codes.push(common as u32);
        self.codes.push(tail.len() as u32);
        self.codes.extend_from_slice(tail);
        self.last_len = self.counts.len();
        self.closed_to = usize::MAX;
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
        assert_eq!(sink.deweys().len(), streamed.len());
        for (addr, &n) in sink.deweys().iter().zip(&streamed) {
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
