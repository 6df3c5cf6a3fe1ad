//! Streaming input to the general two-pass PHR evaluator (Sections 6–7).
//!
//! Algorithm 1 cannot answer before the input ends: a node's match depends
//! on the `M`-states of its younger siblings (known only once its parent
//! closes) and on the classes of all its ancestors. So a streamed PHR keeps
//! the whole document anyway, and [`PhrStream`] keeps it in the cheapest
//! form there is: the events feed a [`FlatBuilder`], and
//! [`PhrStream::finish_outcome`] runs [`two_pass::eval_into`] on the
//! finished arena — the one walk every other PHR route runs, with its
//! dead-state pruning and lazily classified sibling groups. Beyond the
//! arena the sink holds only the builder's open chain, O(depth).

use hedgex_core::two_pass::{self, EvalScratch};
use hedgex_core::{CompiledPhr, EvalMode, EvalOutcome};
use hedgex_hedge::{FlatBuilder, FlatHedge, HedgeSink, Leaf, NodeId, SymId};

use crate::StreamStats;

/// A [`HedgeSink`] that builds the document's arena from the events and
/// evaluates a PHR on it with [`two_pass::eval_into`] at [`finish`].
///
/// ```
/// use hedgex_core::{phr::parse_phr, CompiledPhr};
/// use hedgex_hedge::Alphabet;
/// use hedgex_stream::{stream_xml, PhrStream};
/// use hedgex_xml::HedgeConfig;
///
/// let mut ab = Alphabet::new();
/// let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
/// let compiled = CompiledPhr::compile(&phr);
/// let mut sink = PhrStream::new(&compiled);
/// stream_xml("<a><b/></a>", &mut ab, HedgeConfig::default(), &mut sink).unwrap();
/// assert_eq!(sink.finish(), &[0]);
/// ```
///
/// [`finish`]: PhrStream::finish
pub struct PhrStream<'p> {
    phr: &'p CompiledPhr,
    builder: FlatBuilder,
    /// The finished arena, once a finisher has run.
    flat: Option<FlatHedge>,
    scratch: EvalScratch,
    /// Open elements; a `close` with none open is ignored.
    depth: usize,
    nodes: usize,
    stats: StreamStats,
}

impl<'p> PhrStream<'p> {
    /// A fresh sink evaluating `phr`; feed it events, then call
    /// [`finish`](PhrStream::finish).
    pub fn new(phr: &'p CompiledPhr) -> PhrStream<'p> {
        PhrStream {
            phr,
            builder: FlatBuilder::new(),
            flat: None,
            scratch: EvalScratch::new(),
            depth: 0,
            nodes: 0,
            stats: StreamStats::default(),
        }
    }

    /// Evaluate in `mode` on the document streamed so far; elements still
    /// open are closed implicitly, so a truncated stream cannot panic, but
    /// its answer describes only the part seen. Locate's match set stays
    /// readable through [`located`](PhrStream::located). The first call
    /// finishes the arena; events after it are not evaluated.
    pub fn finish_outcome(&mut self, mode: EvalMode) -> EvalOutcome {
        // The walk is its own timeline phase: on the trace it separates
        // "while the parse streamed" from "after the last byte".
        let _span = hedgex_obs::span("stream.phr.finish");
        let flat = self
            .flat
            .get_or_insert_with(|| std::mem::take(&mut self.builder).finish());
        let (outcome, _) = two_pass::eval_into(self.phr, flat, None, &mut self.scratch, mode);
        self.stats.flush_obs();
        outcome
    }

    /// [`finish_outcome`](PhrStream::finish_outcome) in Locate mode: the
    /// located nodes in document order.
    pub fn finish(&mut self) -> &[NodeId] {
        self.finish_outcome(EvalMode::Locate);
        self.scratch.located()
    }

    /// [`finish_outcome`](PhrStream::finish_outcome) in Count mode.
    pub fn finish_count(&mut self) -> u64 {
        self.finish_outcome(EvalMode::Count).matched()
    }

    /// [`finish_outcome`](PhrStream::finish_outcome) in Exists mode.
    pub fn finish_exists(&mut self) -> bool {
        self.finish_outcome(EvalMode::Exists).is_match()
    }

    /// The matches found by [`finish`](PhrStream::finish).
    pub fn located(&self) -> &[NodeId] {
        self.scratch.located()
    }

    /// Event/memory counters gathered while streaming.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Number of nodes seen so far.
    pub fn num_nodes(&self) -> usize {
        self.nodes
    }

    /// [`FlatHedge::dewey`] on the arena the stream built, kept for E12.
    ///
    /// # Panics
    /// Before a finisher has run, or if `n` is not a node.
    pub fn dewey(&self, n: NodeId) -> Vec<u32> {
        let flat = self.flat.as_ref().expect("dewey needs a finished stream");
        flat.dewey(n)
    }

    fn node_seen(&mut self) {
        self.stats.bump_event();
        self.nodes += 1;
    }
}

impl HedgeSink for PhrStream<'_> {
    fn open(&mut self, a: SymId) -> bool {
        self.node_seen();
        self.builder.open(a);
        self.depth += 1;
        // The open chain is all the transient state the builder keeps.
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.depth);
        self.stats.live_high_water = self.stats.depth_high_water;
        true
    }

    fn leaf(&mut self, l: Leaf) -> bool {
        self.node_seen();
        self.builder.leaf(l)
    }

    fn close(&mut self) -> bool {
        self.stats.bump_event();
        // Tolerate unbalanced input; the drivers never send it.
        if self.depth > 0 {
            self.depth -= 1;
            self.builder.close();
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay_flat;
    use hedgex_core::phr::parse_phr;
    use hedgex_hedge::{parse_hedge, Alphabet};

    fn check(phr_src: &str, doc_src: &str) {
        let mut ab = Alphabet::new();
        let phr = parse_phr(phr_src, &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge(doc_src, &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        let mut sink = PhrStream::new(&compiled);
        assert!(replay_flat(&flat, &mut sink));
        let streamed = sink.finish().to_vec();
        assert_eq!(
            streamed,
            hedgex_core::two_pass::locate(&compiled, &flat),
            "{phr_src} on {doc_src}"
        );
    }

    #[test]
    fn matches_materialized_on_worked_examples() {
        check("[ε ; a ; ε]", "a b a<a b>");
        check("[b ; a ; ε]", "b a a b a");
        check("[ε ; a ; b][b ; a ; ε]", "b a<a<b $x> b>");
        check("[a<%z>*^z ; b ; a<%z>*^z]*", "a<a<b> b>");
        check("[a* ; b ; a*]", "a a b a");
    }

    #[test]
    fn count_and_exists_finishers_agree_with_locate() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        for doc in ["a a b a", "b", "a a a", "b<a b a> a b a"] {
            let h = parse_hedge(doc, &mut ab).unwrap();
            let flat = FlatHedge::from_hedge(&h);
            let expected = hedgex_core::two_pass::locate(&compiled, &flat);
            let mut sink = PhrStream::new(&compiled);
            assert!(replay_flat(&flat, &mut sink));
            assert_eq!(sink.finish_count(), expected.len() as u64, "on {doc}");
            let mut sink = PhrStream::new(&compiled);
            assert!(replay_flat(&flat, &mut sink));
            assert_eq!(sink.finish_exists(), !expected.is_empty(), "on {doc}");
            let mut sink = PhrStream::new(&compiled);
            assert!(replay_flat(&flat, &mut sink));
            assert_eq!(
                sink.finish_outcome(EvalMode::Count),
                EvalOutcome::Count(expected.len() as u64),
                "on {doc}"
            );
        }
    }

    #[test]
    fn dewey_matches_flat() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("b<a $x a<b a>> a", &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        let mut sink = PhrStream::new(&compiled);
        assert!(replay_flat(&flat, &mut sink));
        sink.finish();
        for n in flat.preorder() {
            assert_eq!(sink.dewey(n), flat.dewey(n), "node {n}");
        }
    }

    #[test]
    fn live_high_water_tracks_depth_not_size() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        // A wide, shallow document: 200 leaf children under one root.
        let wide = format!("a<{}>", "b ".repeat(200));
        let h = parse_hedge(&wide, &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        let mut sink = PhrStream::new(&compiled);
        assert!(replay_flat(&flat, &mut sink));
        sink.finish();
        let stats = sink.stats();
        // `b` children are (childless) elements, so the open chain peaks
        // at 2, and the open chain is all the sink keeps beyond the arena.
        assert_eq!(stats.depth_high_water, 2);
        assert!(stats.live_high_water <= 203, "{stats:?}");
    }

    /// Passes on the first `left` events, then stops the replay: a stream
    /// cut off with its open elements never closed.
    struct Cut<S> {
        left: usize,
        sink: S,
    }

    impl<S> Cut<S> {
        fn pass(&mut self) -> bool {
            let pass = self.left > 0;
            self.left = self.left.saturating_sub(1);
            pass
        }
    }

    impl<S: HedgeSink> HedgeSink for Cut<S> {
        fn open(&mut self, a: SymId) -> bool {
            self.pass() && self.sink.open(a)
        }
        fn leaf(&mut self, l: Leaf) -> bool {
            self.pass() && self.sink.leaf(l)
        }
        fn close(&mut self) -> bool {
            self.pass() && self.sink.close()
        }
    }

    /// `sink`'s node count, answer in every mode and Dewey addresses
    /// against the reference traversals on `want`.
    fn assert_answers_like(mut sink: PhrStream<'_>, want: &FlatHedge) {
        let located = hedgex_core::two_pass::locate(sink.phr, want);
        assert_eq!(sink.num_nodes(), want.num_nodes());
        assert_eq!(sink.finish(), &located[..]);
        for &n in &located {
            assert_eq!(sink.dewey(n), want.dewey(n), "node {n}");
        }
        assert_eq!(sink.finish_count(), located.len() as u64);
        assert_eq!(sink.finish_exists(), !located.is_empty());
    }

    #[test]
    fn unclosed_opens_answer_like_the_implicitly_closed_prefix() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("b a<a<b $x> b> a<a b>", &mut ab).unwrap();
        let flat = FlatHedge::from_hedge(&h);
        // Every cut of the event stream, as in a truncated document.
        for left in 0..=2 * flat.num_nodes() {
            let mut sink = Cut {
                left,
                sink: PhrStream::new(&compiled),
            };
            let mut want = Cut {
                left,
                sink: FlatBuilder::new(),
            };
            replay_flat(&flat, &mut sink);
            replay_flat(&flat, &mut want);
            assert_answers_like(sink.sink, &want.sink.finish());
        }
    }

    #[test]
    fn a_stray_close_is_ignored() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let mut flat = |src| FlatHedge::from_hedge(&parse_hedge(src, &mut ab).unwrap());
        let (first, rest, want) = (flat("b"), flat("a<a<b $x> b>"), flat("b a<a<b $x> b>"));
        // Closes with nothing open: before the document, between its roots
        // and after its end.
        let mut sink = PhrStream::new(&compiled);
        for part in [&first, &rest] {
            assert!(sink.close());
            assert!(replay_flat(part, &mut sink));
        }
        assert!(sink.close());
        assert_answers_like(sink, &want);
    }
}
