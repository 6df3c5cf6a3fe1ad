//! Algorithm 1 (Section 7): locating PHR matches with two depth-first
//! traversals, in time linear in the number of nodes.
//!
//! **First traversal** (bottom-up): run the shared automaton `M` to get
//! every node's state, then compute for every node the ≡-class of its
//! elder-sibling state word and of its younger-sibling state word.
//!
//! Elder classes are a left-to-right prefix scan (right-invariance: extend
//! the class by one state at a time). Younger classes are *suffix* classes,
//! and a DFA only reads left-to-right — restarting it at every position
//! would make the traversal quadratic (the hidden cost in the paper's
//! "we start computing an element of Q*/≡ … and so forth"). This
//! implementation keeps it linear by composing transition *functions*
//! right-to-left: `f_j = δ_{q_j} ∘ f_{j+1}` is a class-indexed table, and
//! the class of the suffix starting at `j` is `f_j(start)`.
//!
//! **Second traversal** (top-down): step the mirror automaton `N` from the
//! root: a node's `N`-state is `μ(Γ_node, s_parent)` where
//! `Γ = (elder class, label, younger class)`. A node is located iff its
//! `N`-state is final — the decomposition of its envelope, read top-down,
//! spells a mirror-word of `L`.
//!
//! [`first_pass`], [`second_pass`] and [`locate`] are the two traversals
//! written out literally: the reference the tests compare against.
//! Production evaluation is [`eval_into`], one walk for every
//! [`EvalMode`]: after the bottom-up `M`-run it fuses the class
//! computation into a depth-first top-down search that classifies a
//! sibling group only when it descends into it, never descends below a
//! dead `N`-state, optionally skips subtrees a store's index proves
//! barren ([`PruneInfo`]), and hands accepting nodes to a mode sink.
//! Every PHR route runs it: a file, stdin, `--stream` (on the arena the
//! stream builds), the pool and the store.
//!
//! All per-node steps go through [`CompiledPhr`]'s dense tables
//! (`class_step`, `class_step_row`, `n_transition`) — no hashing — and the
//! walk writes into a caller-owned [`EvalScratch`], so warm runs allocate
//! nothing per node.

use hedgex_ha::HState;
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{FlatHedge, NodeId};
use hedgex_obs as obs;

use crate::phr_compile::CompiledPhr;

/// Which verdict an evaluation should produce. Compiled plans are
/// mode-independent — the same [`CompiledPhr`] serves all three — so the
/// mode is a run-time choice per document, not a compile-time one.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalMode {
    /// Materialize the full match set in document order (Algorithm 1).
    #[default]
    Locate,
    /// How many nodes match, without writing a single node id.
    Count,
    /// Does *any* node match: the walk stops at the first accepting node.
    Exists,
}

/// The verdict of a mode-generic evaluation ([`eval_into`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalOutcome {
    /// `Locate`: size of the match set (the set itself stays in the
    /// scratch's [`EvalScratch::located`] buffer).
    Located(usize),
    /// `Count`: number of matching nodes.
    Count(u64),
    /// `Exists`: whether any node matches.
    Exists(bool),
}

impl EvalOutcome {
    /// The verdict of `mode` on a document with no matches.
    pub fn none(mode: EvalMode) -> EvalOutcome {
        match mode {
            EvalMode::Locate => EvalOutcome::Located(0),
            EvalMode::Count => EvalOutcome::Count(0),
            EvalMode::Exists => EvalOutcome::Exists(false),
        }
    }

    /// How many matches the outcome reports: the match set's size, the
    /// count, or (Exists) 0 or 1.
    pub fn matched(&self) -> u64 {
        match *self {
            EvalOutcome::Located(n) => n as u64,
            EvalOutcome::Count(n) => n,
            EvalOutcome::Exists(b) => b as u64,
        }
    }

    /// Did the query match at least one node, whichever mode produced it?
    pub fn is_match(&self) -> bool {
        self.matched() > 0
    }
}

/// Where a walk's accepting nodes go — the only thing the three modes do
/// differently. Locate appends the node to the match buffer, Count tallies
/// it, Exists tells the walk to stop. The PHR walk ([`eval_into`]) and the
/// path backend's walk both report through one.
pub(crate) struct ModeSink<'a> {
    mode: EvalMode,
    located: &'a mut Vec<NodeId>,
    hits: u64,
}

impl<'a> ModeSink<'a> {
    /// A sink for `mode`; Locate's matches go to `located`, which is
    /// cleared here whatever the mode.
    pub(crate) fn new(mode: EvalMode, located: &'a mut Vec<NodeId>) -> ModeSink<'a> {
        located.clear();
        ModeSink {
            mode,
            located,
            hits: 0,
        }
    }

    /// Record an accepting node. `true` means the verdict is settled and
    /// the walk should stop.
    #[inline]
    pub(crate) fn hit(&mut self, id: NodeId) -> bool {
        self.hits += 1;
        match self.mode {
            EvalMode::Locate => {
                self.located.push(id);
                false
            }
            EvalMode::Count => false,
            EvalMode::Exists => true,
        }
    }

    /// The verdict of the walk that fed this sink.
    pub(crate) fn outcome(&self) -> EvalOutcome {
        match self.mode {
            EvalMode::Locate => EvalOutcome::Located(self.located.len()),
            EvalMode::Count => EvalOutcome::Count(self.hits),
            EvalMode::Exists => EvalOutcome::Exists(self.hits > 0),
        }
    }
}

/// What a structural index knows about one document: the sorted candidate
/// nodes (every node whose label is in [`Plan::match_syms`](crate::Plan::match_syms) — in a
/// store, the union of those symbols' postings). The subtree of `n` is the
/// one preorder range `n..end(n)` of the arena's own extents
/// ([`FlatHedge::subtree_ends`]), so a candidate list is all a gate needs.
///
/// A gated walk only ever *skips* subtrees containing no candidate, so a
/// sound over-approximation in `candidates` keeps every answer exact.
pub struct PruneInfo<'a> {
    /// Candidate match nodes, strictly increasing.
    pub candidates: &'a [NodeId],
}

/// A [`PruneInfo`] read as the gate of a walk over `h`: a subtree is
/// entered iff the first candidate at or after its root lies inside its
/// range. Both walks visit in increasing preorder, so the cursor only
/// moves forward and a walk pays O(candidates) for the gate, not a search
/// per node. Walks take the gate as a closure, so the open gate
/// (`|_| true`) compiles away.
pub(crate) struct GateCursor<'a> {
    candidates: &'a [NodeId],
    ends: &'a [NodeId],
    next: usize,
    /// Subtrees refused so far.
    pub(crate) skipped: u64,
}

impl<'a> GateCursor<'a> {
    pub(crate) fn new(prune: &PruneInfo<'a>, h: &'a FlatHedge) -> GateCursor<'a> {
        GateCursor {
            candidates: prune.candidates,
            ends: h.subtree_ends(),
            next: 0,
            skipped: 0,
        }
    }

    /// May the walk enter `id` and its subtree?
    #[inline]
    pub(crate) fn admits(&mut self, id: NodeId) -> bool {
        let c = self.candidates;
        while self.next < c.len() && c[self.next] < id {
            self.next += 1;
        }
        let inside = matches!(c.get(self.next), Some(&n) if n < self.ends[id as usize]);
        self.skipped += u64::from(!inside);
        inside
    }
}

/// The next node of a depth-first walk in document order, and its
/// parent's state. The walk's stack holds one entry per open level: a
/// sibling group's next member, where the group ends, and the parent's
/// state; a member is stepped past by its subtree end.
#[inline]
pub(crate) fn next_in_group(
    stack: &mut Vec<(NodeId, NodeId, u32)>,
    ends: &[NodeId],
) -> Option<(NodeId, u32)> {
    while let Some(top) = stack.last_mut() {
        let (id, end, state) = *top;
        if id < end {
            top.0 = ends[id as usize];
            return Some((id, state));
        }
        stack.pop();
    }
    None
}

/// The per-node artifacts of the first traversal (exposed for tests and for
/// the match-identifying constructions).
pub struct FirstPass {
    /// `M`-state per node.
    pub states: Vec<HState>,
    /// ≡-class of the elder-sibling state word, per node.
    pub elder_class: Vec<u32>,
    /// ≡-class of the younger-sibling state word, per node.
    pub younger_class: Vec<u32>,
}

/// Reusable buffers for [`eval_into`]. Allocate once (or take one from a
/// [`crate::plan::Plan`] workflow), then every run recycles the same
/// memory: per-node cost is table steps only, with buffer growth amortized
/// across documents.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// `M`-run buffer (the bottom-up state pass).
    ha: hedgex_ha::EvalScratch,
    elder_class: Vec<u32>,
    younger_class: Vec<u32>,
    /// Double-buffered suffix transition functions (class-indexed).
    f: Vec<u32>,
    nf: Vec<u32>,
    /// Current sibling group (siblings are reached left to right, each
    /// at its elder's subtree end, and the suffix pass reads them right to
    /// left, so they are buffered per group).
    group: Vec<NodeId>,
    /// Matches of the most recent Locate run.
    pub(crate) located: Vec<NodeId>,
    /// Explicit DFS stack of both walks (see [`next_in_group`]).
    pub(crate) stack: Vec<(NodeId, NodeId, u32)>,
}

impl EvalScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// The matches found by the most recent Locate run.
    pub fn located(&self) -> &[NodeId] {
        &self.located
    }

    /// Reset the match buffer without running a pass (used by plans that
    /// prove ∅ statically and skip evaluation altogether).
    pub(crate) fn clear_located(&mut self) {
        self.located.clear();
    }
}

/// Run the first traversal.
pub fn first_pass(phr: &CompiledPhr, h: &FlatHedge) -> FirstPass {
    let n = h.num_nodes();
    let start = phr.classes.start();
    let states = phr.m.run(h);
    let mut elder_class = vec![start; n];
    let mut younger_class = vec![start; n];
    let (mut f, mut nf, mut group) = (Vec::new(), Vec::new(), Vec::new());
    let (ec, yc) = (&mut elder_class, &mut younger_class);
    classify(phr, &states, h.roots(), &mut f, &mut nf, ec, yc);
    for id in h.preorder() {
        if matches!(h.label(id), FlatLabel::Sym(_)) {
            group.clear();
            group.extend(h.children(id));
            classify(phr, &states, &group, &mut f, &mut nf, ec, yc);
        }
    }
    FirstPass {
        states,
        elder_class,
        younger_class,
    }
}

/// The first traversal's per-group step: the ≡-classes of every member of
/// the sibling group `g`, written at its node id. Elder classes are a
/// prefix scan; younger classes come from composing transition functions
/// right to left (see the module docs for why composition, not DFA
/// restarts, keeps the pass linear). `f`/`nf` are the class-indexed double
/// buffers of that composition, reused across groups so the pass allocates
/// nothing.
fn classify(
    phr: &CompiledPhr,
    states: &[HState],
    g: &[NodeId],
    f: &mut Vec<u32>,
    nf: &mut Vec<u32>,
    elder_class: &mut [u32],
    younger_class: &mut [u32],
) {
    let ncl = phr.classes.num_classes();
    let start = phr.classes.start();
    // Prefix classes, left to right.
    let mut c = start;
    for &id in g {
        elder_class[id as usize] = c;
        c = phr.class_step(c, states[id as usize]);
    }
    // Suffix classes, right to left. f maps "class before reading the
    // suffix" → "class after". Each composition costs exactly |Q*/≡| table
    // reads into an already-allocated buffer — O(|g| · |Q*/≡|), zero
    // allocation.
    f.clear();
    f.extend(0..ncl as u32); // identity
    nf.clear();
    nf.resize(ncl, 0);
    for &id in g.iter().rev() {
        younger_class[id as usize] = f[start as usize];
        // f := f ∘ δ_q  (read q first, then the old suffix).
        let delta = phr.class_step_row(states[id as usize]);
        for cls in 0..ncl {
            nf[cls] = f[delta[cls] as usize];
        }
        std::mem::swap(f, nf);
    }
}

/// Run the second traversal over a finished [`FirstPass`]: step the mirror
/// automaton `N` top-down and collect every node whose `N`-state is final.
pub fn second_pass(phr: &CompiledPhr, h: &FlatHedge, fp: &FirstPass) -> Vec<NodeId> {
    let mut n_state = vec![0; h.num_nodes()];
    let mut located = Vec::new();
    for id in h.preorder() {
        let FlatLabel::Sym(a) = h.label(id) else {
            continue;
        };
        let parent_state = match h.parent(id) {
            None => phr.n_start(),
            Some(p) => n_state[p as usize],
        };
        let s = phr.n_transition(
            parent_state,
            fp.elder_class[id as usize],
            a,
            fp.younger_class[id as usize],
        );
        n_state[id as usize] = s;
        if phr.n_accepting(s) {
            located.push(id);
        }
    }
    located
}

/// Run both traversals: every node whose envelope matches the PHR, in
/// document order (Theorem 4 + Algorithm 1). The reference evaluator —
/// production runs go through [`eval_into`].
pub fn locate(phr: &CompiledPhr, h: &FlatHedge) -> Vec<NodeId> {
    second_pass(phr, h, &first_pass(phr, h))
}

/// Evaluate the PHR on `h` in `mode`, behind an optional index `gate`:
/// the answer of [`locate`], as a match set left in the scratch
/// ([`EvalScratch::located`]), a count, or a yes/no. The second value
/// counts the subtrees the gate alone skipped (0 without a gate).
///
/// After the bottom-up `M`-run — inherently whole-document, since a
/// node's state depends on its descendants — one depth-first search
/// replaces both remaining traversals. An explicit stack of sibling
/// groups, each with its parent's `N`-state, visits nodes in document
/// order; a node whose `N`-state is dead ([`CompiledPhr::n_live`]) has
/// no children pushed, so
/// barren subtrees cost nothing, not even a table step per node. A sibling
/// group's ≡-classes are computed at the moment the search first descends
/// into it, so pruning skips the first pass's class work too.
///
/// The gate composes: a subtree whose range holds no candidate is skipped
/// before its root is stepped. Soundness: an accepting node's label is in
/// `match_syms`, so it is a candidate, so it and all of its ancestors
/// carry a candidate in their subtree range and are visited with exactly
/// the states and classes the ungated walk computes (classes are per
/// sibling group, and a group is classified before any of its members is
/// expanded).
pub fn eval_into(
    phr: &CompiledPhr,
    h: &FlatHedge,
    gate: Option<&PruneInfo<'_>>,
    scratch: &mut EvalScratch,
    mode: EvalMode,
) -> (EvalOutcome, u64) {
    let _span = obs::span("core.two_pass");
    match gate {
        None => (walk(phr, h, |_| true, scratch, mode), 0),
        Some(prune) => {
            let mut gate = GateCursor::new(prune, h);
            let outcome = walk(phr, h, |id| gate.admits(id), scratch, mode);
            obs::counter_add("core.two_pass.skipped", gate.skipped);
            (outcome, gate.skipped)
        }
    }
}

/// The walk behind [`eval_into`], monomorphized per gate.
fn walk(
    phr: &CompiledPhr,
    h: &FlatHedge,
    mut admits: impl FnMut(NodeId) -> bool,
    scratch: &mut EvalScratch,
    mode: EvalMode,
) -> EvalOutcome {
    phr.m.run_into(h, &mut scratch.ha);
    let EvalScratch {
        ha,
        elder_class,
        younger_class,
        f,
        nf,
        group,
        stack,
        located,
    } = scratch;
    let states = ha.states();
    let n = h.num_nodes();
    let cls_start = phr.classes.start();
    // Grow-only, no clear: a group's classes are always written before any
    // of its nodes pops, so stale entries from earlier runs are never read.
    if elder_class.len() < n {
        elder_class.resize(n, cls_start);
        younger_class.resize(n, cls_start);
    }
    let mut sink = ModeSink::new(mode, located);
    let ends = h.subtree_ends();
    classify(phr, states, h.roots(), f, nf, elder_class, younger_class);
    stack.clear();
    stack.push((0, n as NodeId, phr.n_start()));
    while let Some((id, parent_state)) = next_in_group(stack, ends) {
        if !admits(id) {
            continue;
        }
        let FlatLabel::Sym(a) = h.label(id) else {
            continue;
        };
        let s = phr.n_transition(
            parent_state,
            elder_class[id as usize],
            a,
            younger_class[id as usize],
        );
        if phr.n_accepting(s) && sink.hit(id) {
            break;
        }
        if !phr.n_live(s) {
            continue;
        }
        // The group is visited from its leftmost child on: the search
        // visits nodes in document order, so Locate's matches come out
        // sorted and Exists stops at the earliest one.
        let end = ends[id as usize];
        if id + 1 < end {
            group.clear();
            group.extend(h.children(id));
            classify(phr, states, group, f, nf, elder_class, younger_class);
            stack.push((id + 1, end, s));
        }
    }
    let outcome = sink.outcome();
    obs::counter_add("core.two_pass.located", outcome.matched());
    outcome
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::{parse_hedge, Alphabet, FlatBuilder, HedgeSink};

    /// Compare Algorithm 1 against the declarative evaluator on every small
    /// hedge over the PHR's alphabet.
    fn check_against_naive(phr_src: &str, max_nodes: usize) {
        let mut ab = Alphabet::new();
        let phr = parse_phr(phr_src, &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let syms: Vec<_> = ab.syms().collect();
        let vars: Vec<_> = ab.vars().collect();
        // One scratch across the whole enumeration: the warm path must
        // agree with the allocating one on every hedge.
        let mut scratch = EvalScratch::new();
        for h in enumerate_hedges(&syms, &vars, max_nodes) {
            let f = FlatHedge::from_hedge(&h);
            let fast = locate(&compiled, &f);
            let slow = phr.locate_naive(&f);
            assert_eq!(fast, slow, "{phr_src} disagrees on {h:?}");
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Locate);
            let warm = scratch.located();
            assert_eq!(warm, &slow[..], "{phr_src} warm path disagrees on {h:?}");
            // The cheaper modes must agree with the full match set.
            assert_eq!(
                eval_into(&compiled, &f, None, &mut scratch, EvalMode::Count).0,
                EvalOutcome::Count(slow.len() as u64),
                "{phr_src} count disagrees on {h:?}"
            );
            assert_eq!(
                eval_into(&compiled, &f, None, &mut scratch, EvalMode::Exists).0,
                EvalOutcome::Exists(!slow.is_empty()),
                "{phr_src} exists disagrees on {h:?}"
            );
        }
    }

    #[test]
    fn single_triplet() {
        check_against_naive("[ε ; a ; ε]", 4);
        check_against_naive("[a ; a ; ε]", 4);
        check_against_naive("[a* ; a ; a*]", 4);
    }

    #[test]
    fn two_level_path() {
        check_against_naive("[ε ; a ; b][b ; a ; ε]", 5);
    }

    #[test]
    fn starred_ancestors() {
        check_against_naive("[a<%z>*^z ; b ; a<%z>*^z]*", 5);
    }

    #[test]
    fn alternation_of_triplets() {
        check_against_naive("([ε ; a ; ε]|[ε ; b ; ε])*", 5);
    }

    #[test]
    fn sibling_sensitive_queries() {
        // η's parent is a, immediately followed by a b sibling — the
        // introduction's motivating example shape ("all <figure> elements
        // whose immediately following siblings are …").
        let u = "(a<%z>|b<%z>)*^z";
        check_against_naive(&format!("[{u} ; a ; b<{u}> ({u})]"), 5);
    }

    #[test]
    fn definition_22_worked_example() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(locate(&compiled, &f), vec![2]);
    }

    #[test]
    fn first_pass_classes_are_correct() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("a a b a", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let fp = first_pass(&compiled, &f);
        // Node 2 (the b): elder word = [q_a, q_a], younger = [q_a].
        let qa = fp.states[0];
        assert_eq!(fp.elder_class[2], compiled.classes.class_of(&[qa, qa]));
        assert_eq!(fp.younger_class[2], compiled.classes.class_of(&[qa]));
        // First node: elder is ε; last node: younger is ε.
        assert_eq!(fp.elder_class[0], compiled.classes.class_of(&[]));
        assert_eq!(fp.younger_class[3], compiled.classes.class_of(&[]));
    }

    #[test]
    fn suffix_classes_match_direct_runs() {
        // Cross-check the function-composition trick against direct
        // left-to-right runs for every suffix.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[(a|b)* a ; b ; b (a|b)*]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("a b b a b a a", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let fp = first_pass(&compiled, &f);
        let roots = f.roots();
        for (i, &id) in roots.iter().enumerate() {
            let suffix: Vec<HState> = roots[i + 1..]
                .iter()
                .map(|&r| fp.states[r as usize])
                .collect();
            assert_eq!(
                fp.younger_class[id as usize],
                compiled.classes.class_of(&suffix),
                "suffix class of position {i}"
            );
        }
    }

    #[test]
    fn deep_hedge_linear_path() {
        // A deep spine: ancestors must all be b (the Section 5 example),
        // checked beyond the enumeration bound.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a<%z>*^z ; b ; a<%z>*^z]*", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let b = ab.get_sym("b").unwrap();
        let mut h = hedgex_hedge::Hedge::leaf(b);
        for _ in 0..40 {
            h = hedgex_hedge::Hedge::node(b, h);
        }
        let f = FlatHedge::from_hedge(&h);
        let located = locate(&compiled, &f);
        assert_eq!(located.len(), 41, "every b on the spine is located");
    }

    #[test]
    fn exists_prunes_dead_subtrees() {
        // Query demands an `a` at the root of the envelope; a document
        // rooted at `c` sends N to a dead state immediately, so the walk
        // must answer without descending — the reference answer in every
        // mode, almost no work.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let c = ab.sym("c");
        let mut h = hedgex_hedge::Hedge::leaf(c);
        for _ in 0..50 {
            h = hedgex_hedge::Hedge::node(c, h);
        }
        let f = FlatHedge::from_hedge(&h);
        let mut scratch = EvalScratch::new();
        assert_eq!(
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Exists).0,
            EvalOutcome::Exists(false)
        );
        assert_eq!(
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Count).0,
            EvalOutcome::Count(0)
        );
        assert!(locate(&compiled, &f).is_empty());
        let empty = compiled.classes.start();
        let root = compiled.n_transition(compiled.n_start(), empty, c, empty);
        assert!(!compiled.n_live(root), "dead at the root");
        assert_walk_matches_reference(&compiled, &f);
    }

    #[test]
    fn pruned_eval_agrees_with_unpruned_on_enumerated_hedges() {
        for phr_src in [
            "[ε ; a ; ε]",
            "[a* ; b ; a]|[ε ; b ; a*]",
            "[ε ; a ; b][b ; a ; ε]",
            "([ε ; a ; ε]|[ε ; b ; ε])*",
        ] {
            let mut ab = Alphabet::new();
            let phr = parse_phr(phr_src, &mut ab).unwrap();
            let compiled = CompiledPhr::compile(&phr);
            let match_syms = compiled.match_syms();
            let syms: Vec<_> = ab.syms().collect();
            let vars: Vec<_> = ab.vars().collect();
            let mut scratch = EvalScratch::new();
            for h in enumerate_hedges(&syms, &vars, 4) {
                let f = FlatHedge::from_hedge(&h);
                let expected = locate(&compiled, &f);
                let candidates: Vec<NodeId> = match &match_syms {
                    None => f.preorder().collect(),
                    Some(ms) => f
                        .preorder()
                        .filter(|&n| matches!(f.label(n), FlatLabel::Sym(a) if ms.contains(&a)))
                        .collect(),
                };
                let prune = PruneInfo {
                    candidates: &candidates,
                };
                let gate = Some(&prune);
                let (out, _) = eval_into(&compiled, &f, gate, &mut scratch, EvalMode::Locate);
                assert_eq!(out, EvalOutcome::Located(expected.len()), "{phr_src} {h:?}");
                assert_eq!(scratch.located(), &expected[..], "{phr_src} {h:?}");
                let (out, _) = eval_into(&compiled, &f, gate, &mut scratch, EvalMode::Count);
                assert_eq!(out, EvalOutcome::Count(expected.len() as u64));
                let (out, _) = eval_into(&compiled, &f, gate, &mut scratch, EvalMode::Exists);
                assert_eq!(out, EvalOutcome::Exists(!expected.is_empty()));
            }
        }
    }

    #[test]
    fn eval_into_outcomes_agree() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let h = parse_hedge("a a b a", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let mut scratch = EvalScratch::new();
        assert_eq!(
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Locate),
            (EvalOutcome::Located(1), 0)
        );
        assert_eq!(scratch.located(), &[2]);
        assert_eq!(
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Count),
            (EvalOutcome::Count(1), 0)
        );
        assert_eq!(
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Exists),
            (EvalOutcome::Exists(true), 0)
        );
        assert!(EvalOutcome::Located(2).is_match());
        assert!(!EvalOutcome::Count(0).is_match());
        assert!(!EvalOutcome::Exists(false).is_match());
    }

    #[test]
    fn scratch_is_reusable_across_documents_of_different_sizes() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let mut scratch = EvalScratch::new();
        // Big, then small, then big again: stale buffer contents from a
        // larger document must not leak into a smaller one.
        for src in ["a a b a", "b", "a b a b a b"] {
            let h = parse_hedge(src, &mut ab).unwrap();
            let f = FlatHedge::from_hedge(&h);
            eval_into(&compiled, &f, None, &mut scratch, EvalMode::Locate);
            let warm: Vec<_> = scratch.located().to_vec();
            assert_eq!(warm, locate(&compiled, &f), "on {src}");
            assert_eq!(scratch.located(), &warm[..]);
        }
    }

    /// Every mode of the walk, ungated and behind an all-nodes gate,
    /// against the reference two traversals.
    fn assert_walk_matches_reference(compiled: &CompiledPhr, f: &FlatHedge) {
        let want = locate(compiled, f);
        let all: Vec<NodeId> = f.preorder().collect();
        let prune = PruneInfo { candidates: &all };
        let mut scratch = EvalScratch::new();
        for gate in [None, Some(&prune)] {
            let (out, skipped) = eval_into(compiled, f, gate, &mut scratch, EvalMode::Locate);
            assert_eq!((out, skipped), (EvalOutcome::Located(want.len()), 0));
            assert_eq!(scratch.located(), &want[..]);
            let (out, _) = eval_into(compiled, f, gate, &mut scratch, EvalMode::Count);
            assert_eq!(out, EvalOutcome::Count(want.len() as u64));
            let (out, _) = eval_into(compiled, f, gate, &mut scratch, EvalMode::Exists);
            assert_eq!(out, EvalOutcome::Exists(!want.is_empty()));
        }
    }

    #[test]
    fn walk_handles_a_hundred_thousand_deep_chain_in_every_mode() {
        let mut ab = Alphabet::new();
        let (a, b) = (ab.sym("a"), ab.sym("b"));
        // a<a<…<a<b>>…>> with 100 001 nested `a`s.
        let mut chain = FlatBuilder::with_capacity(100_002);
        for _ in 0..=100_000 {
            chain.open(a);
        }
        chain.open(b);
        let f = chain.finish();
        // Every a on the chain; then only the b at the very bottom, which
        // Exists reaches last.
        for src in ["[ε ; a ; ε]*", "[ε ; b ; ε][ε ; a ; ε]*"] {
            let phr = parse_phr(src, &mut ab).unwrap();
            assert_walk_matches_reference(&CompiledPhr::compile(&phr), &f);
        }
        let phr = parse_phr("[ε ; b ; ε][ε ; a ; ε]*", &mut ab).unwrap();
        assert_eq!(locate(&CompiledPhr::compile(&phr), &f), vec![100_001]);
    }
}
