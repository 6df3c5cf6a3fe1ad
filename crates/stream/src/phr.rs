//! Streaming the general two-pass PHR evaluator (Sections 6–7).
//!
//! The bottom-up first traversal is close-driven: an open element starts an
//! incremental [`HorizFn`] fold and buffers its children's ids and
//! `M`-states; the close tag finishes the sibling group —
//! [`sibling_classes`] assigns every child its elder/younger ≡-class — and
//! reports the element's own `M`-state one level up. What survives past a
//! close is exactly the *per-node class table* the second traversal needs
//! (symbol, parent, sibling position, elder class, younger class): O(n)
//! but flat `u32` columns, no tree. Frames, buffered child-state words and
//! the f/nf composition scratch are all returned to pools at close, so the
//! transient working set is bounded by the deepest open path — the
//! [`StreamStats::live_high_water`] the E9 bench records.
//!
//! The second traversal runs at [`PhrStream::finish_outcome`]: node ids
//! are preorder ranks (allocated at open/leaf time), so parents precede
//! children and one forward scan over the table steps the mirror automaton
//! `N` top-down without ever rebuilding the tree.

use hedgex_core::two_pass::{sibling_classes, ModeSink};
use hedgex_core::{CompiledPhr, EvalMode, EvalOutcome};
use hedgex_ha::{HorizFn, Leaf, WordPool};
use hedgex_hedge::{NodeId, SymId};

use crate::{HedgeSink, StreamStats};

/// The sentinel "no value" for the `u32` table columns (leaf symbol slot,
/// root parent slot).
const NONE: u32 = u32::MAX;

/// One open element: its preorder id, the incremental horizontal fold
/// (`None` when the symbol has no declared rules — the `M`-state will be
/// the sink), and the buffered children awaiting the close tag.
struct Frame<'p> {
    id: u32,
    hf: Option<(&'p HorizFn, u32)>,
    child_ids: Vec<u32>,
    child_states: Vec<u32>,
}

/// A [`HedgeSink`] running Algorithm 1's first traversal incrementally
/// over a stream of events, then the second traversal at [`finish`].
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
    // ---- retained per-node table (pass-2 input), indexed by preorder id
    sym: Vec<u32>,
    parent: Vec<u32>,
    pos: Vec<u32>,
    elder: Vec<u32>,
    younger: Vec<u32>,
    // ---- transient state, bounded by the deepest open path
    frames: Vec<Frame<'p>>,
    root_ids: Vec<u32>,
    root_states: Vec<u32>,
    pool: WordPool,
    f: Vec<u32>,
    nf: Vec<u32>,
    // ---- pass-2 output
    n_state: Vec<u32>,
    located: Vec<NodeId>,
    live: usize,
    stats: StreamStats,
}

impl<'p> PhrStream<'p> {
    /// A fresh sink evaluating `phr`; feed it events, then call
    /// [`finish`](PhrStream::finish).
    pub fn new(phr: &'p CompiledPhr) -> PhrStream<'p> {
        PhrStream {
            phr,
            sym: Vec::new(),
            parent: Vec::new(),
            pos: Vec::new(),
            elder: Vec::new(),
            younger: Vec::new(),
            frames: Vec::new(),
            root_ids: Vec::new(),
            root_states: Vec::new(),
            pool: WordPool::new(),
            f: Vec::new(),
            nf: Vec::new(),
            n_state: Vec::new(),
            located: Vec::new(),
            live: 0,
            stats: StreamStats::default(),
        }
    }

    /// Append a row to the per-node table; returns the node's preorder id.
    fn alloc(&mut self, sym: u32) -> u32 {
        let id = self.sym.len() as u32;
        self.sym.push(sym);
        self.parent
            .push(self.frames.last().map_or(NONE, |fr| fr.id));
        self.pos.push(0);
        self.elder.push(0);
        self.younger.push(0);
        id
    }

    /// Report a completed child (leaf, or closed element) to the enclosing
    /// frame: buffer its id and `M`-state, assign its 1-based sibling
    /// position, and advance the parent's horizontal fold.
    fn push_child(&mut self, id: u32, q: u32) {
        if let Some(parent) = self.frames.last_mut() {
            parent.child_ids.push(id);
            parent.child_states.push(q);
            self.pos[id as usize] = parent.child_ids.len() as u32;
            if let Some((hf, h)) = &mut parent.hf {
                *h = hf.step(*h, q);
            }
        } else {
            self.root_ids.push(id);
            self.root_states.push(q);
            self.pos[id as usize] = self.root_ids.len() as u32;
        }
        self.live += 1;
        self.stats.live_high_water = self.stats.live_high_water.max(self.live);
    }

    /// The front half of [`finish_outcome`](PhrStream::finish_outcome):
    /// drain still-open frames (a truncated stream is treated as if closed)
    /// and classify the depth-0 sibling group, leaving the per-node class
    /// table complete.
    fn seal(&mut self) {
        while !self.frames.is_empty() {
            self.close();
        }
        let root_ids = std::mem::take(&mut self.root_ids);
        let root_states = std::mem::take(&mut self.root_states);
        let (elder, younger) = (&mut self.elder, &mut self.younger);
        sibling_classes(
            self.phr,
            root_ids.len(),
            |i| root_states[i],
            &mut self.f,
            &mut self.nf,
            |i, c| elder[root_ids[i] as usize] = c,
            |i, c| younger[root_ids[i] as usize] = c,
        );
        let n = self.sym.len();
        self.n_state.clear();
        self.n_state.resize(n, 0);
    }

    /// Run the second traversal in `mode` — the one pass-2 loop behind
    /// every finisher. Ids are preorder ranks, so parents precede children
    /// and a forward scan over the table is a top-down walk; accepting
    /// nodes go to the same [`ModeSink`] the materialized walks use, so
    /// Count builds no match set and Exists stops at the first hit. For
    /// `Locate` the match set is retained and readable via
    /// [`located`](PhrStream::located).
    ///
    /// Call exactly once, after a balanced event stream (unclosed frames
    /// are drained as if closed, so a truncated stream cannot panic — but
    /// its answer is only meaningful for the part seen).
    pub fn finish_outcome(&mut self, mode: EvalMode) -> EvalOutcome {
        // The second traversal is its own timeline phase: on the trace it
        // separates "while the parse streamed" from "after the last byte".
        let _span = hedgex_obs::span("stream.phr.finish");
        self.seal();
        let PhrStream {
            phr,
            sym,
            parent,
            elder,
            younger,
            n_state,
            located,
            ..
        } = self;
        let mut sink = ModeSink::new(mode, located);
        for id in 0..sym.len() {
            if sym[id] == NONE {
                continue;
            }
            let parent_state = match parent[id] {
                NONE => phr.n_start(),
                p => n_state[p as usize],
            };
            let s = phr.n_transition(parent_state, elder[id], SymId(sym[id]), younger[id]);
            n_state[id] = s;
            if phr.n_accepting(s) && sink.hit(id as NodeId) {
                break;
            }
        }
        let outcome = sink.outcome();
        self.stats.flush_obs();
        outcome
    }

    /// [`finish_outcome`](PhrStream::finish_outcome) in Locate mode: the
    /// located nodes in document order.
    pub fn finish(&mut self) -> &[NodeId] {
        self.finish_outcome(EvalMode::Locate);
        &self.located
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
        &self.located
    }

    /// Event/memory counters gathered while streaming.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Number of nodes seen so far.
    pub fn num_nodes(&self) -> usize {
        self.sym.len()
    }

    /// The Dewey address of a node (1-based child indices from the root),
    /// reconstructed from the retained parent/position columns — matches
    /// [`hedgex_hedge::FlatHedge::dewey`] on the equivalent document.
    pub fn dewey(&self, n: NodeId) -> Vec<u32> {
        let mut path = vec![self.pos[n as usize]];
        let mut cur = n;
        while self.parent[cur as usize] != NONE {
            cur = self.parent[cur as usize];
            path.push(self.pos[cur as usize]);
        }
        path.reverse();
        path
    }
}

impl HedgeSink for PhrStream<'_> {
    fn open(&mut self, a: SymId) -> bool {
        self.stats.bump_event();
        let id = self.alloc(a.0);
        let hf = self.phr.m.horiz(a).map(|hf| (hf, hf.start()));
        self.frames.push(Frame {
            id,
            hf,
            child_ids: self.pool.take(),
            child_states: self.pool.take(),
        });
        self.live += 1;
        self.stats.depth_high_water = self.stats.depth_high_water.max(self.frames.len());
        self.stats.live_high_water = self.stats.live_high_water.max(self.live);
        true
    }

    fn leaf(&mut self, l: Leaf) -> bool {
        self.stats.bump_event();
        let id = self.alloc(NONE);
        let q = self.phr.m.iota(l);
        self.push_child(id, q);
        true
    }

    fn close(&mut self) -> bool {
        self.stats.bump_event();
        let Some(frame) = self.frames.pop() else {
            return true; // tolerate unbalanced input; drivers never send it
        };
        let Frame {
            id,
            hf,
            child_ids,
            child_states,
        } = frame;
        // Finish the sibling group: every buffered child gets its classes.
        let (elder, younger) = (&mut self.elder, &mut self.younger);
        sibling_classes(
            self.phr,
            child_ids.len(),
            |i| child_states[i],
            &mut self.f,
            &mut self.nf,
            |i, c| elder[child_ids[i] as usize] = c,
            |i, c| younger[child_ids[i] as usize] = c,
        );
        // The element's own `M`-state, from the incremental fold.
        let q = match hf {
            Some((hf, h)) => hf.result(h),
            None => self.phr.m.sink(),
        };
        self.live -= child_ids.len() + 1;
        self.pool.put(child_ids);
        self.pool.put(child_states);
        self.push_child(id, q);
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replay_flat;
    use hedgex_core::phr::parse_phr;
    use hedgex_hedge::{parse_hedge, Alphabet, FlatHedge};

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
        // at 2; live peaks at the buffered sibling group + open frames.
        assert_eq!(stats.depth_high_water, 2);
        assert!(stats.live_high_water <= 203, "{stats:?}");
    }
}
