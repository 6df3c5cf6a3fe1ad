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
//! All per-node steps go through [`CompiledPhr`]'s dense tables
//! (`class_step`, `class_step_row`, `n_transition`) — no hashing — and the
//! `_into` variants write into a caller-owned [`EvalScratch`] so warm runs
//! allocate nothing per node.

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
    /// How many nodes match. Same two traversals as `Locate`, but the
    /// second pass tallies per-state counters instead of writing node ids.
    Count,
    /// Does *any* node match. The second pass becomes a pruned search:
    /// return at the first accepting state, skip whole subtrees whose
    /// `N`-state is dead ([`CompiledPhr::n_live`]).
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

    /// Did the query match at least one node, whichever mode produced it?
    pub fn is_match(&self) -> bool {
        match *self {
            EvalOutcome::Located(n) => n > 0,
            EvalOutcome::Count(n) => n > 0,
            EvalOutcome::Exists(b) => b,
        }
    }
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

/// Reusable buffers for the whole two-traversal evaluation. Allocate once
/// (or take one from a [`crate::plan::Plan`] workflow), then every
/// [`locate_into`] call recycles the same memory: per-node cost is table
/// steps only, with buffer growth amortized across documents.
#[derive(Debug, Default)]
pub struct EvalScratch {
    /// `M`-run buffer (the bottom-up state pass).
    ha: hedgex_ha::EvalScratch,
    elder_class: Vec<u32>,
    younger_class: Vec<u32>,
    /// Double-buffered suffix transition functions (class-indexed).
    f: Vec<u32>,
    nf: Vec<u32>,
    /// Current sibling group (children are singly linked, and the suffix
    /// pass reads them right-to-left, so they are buffered per group).
    group: Vec<NodeId>,
    /// `N`-state per node (second traversal).
    n_state: Vec<u32>,
    /// Matches of the most recent run.
    pub(crate) located: Vec<NodeId>,
    /// Per-`N`-state tallies (Count mode: no match-set writes at all).
    state_count: Vec<u64>,
    /// Explicit DFS stack for the pruned traversals (and the path
    /// backend's walk): `(node, parent state)`.
    pub(crate) stack: Vec<(NodeId, u32)>,
}

impl EvalScratch {
    /// An empty scratch; buffers grow on first use.
    pub fn new() -> EvalScratch {
        EvalScratch::default()
    }

    /// The matches found by the most recent [`locate_into`] call.
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
    let states = phr.m.run(h);
    let mut elder_class = Vec::new();
    let mut younger_class = Vec::new();
    let mut f = Vec::new();
    let mut nf = Vec::new();
    let mut group = Vec::new();
    first_pass_core(
        phr,
        h,
        &states,
        &mut elder_class,
        &mut younger_class,
        &mut f,
        &mut nf,
        &mut group,
    );
    FirstPass {
        states,
        elder_class,
        younger_class,
    }
}

/// The first traversal's per-group step, factored out of the tree walk so
/// any driver can use it — the materialized evaluator below feeds it sibling
/// groups collected from a [`FlatHedge`], and the streaming evaluator
/// (`hedgex-stream`) feeds it the buffered children of each element as its
/// close tag arrives.
///
/// The group is abstract: `state_at(i)` yields the `M`-state of the `i`-th
/// sibling (0-based, left to right, `i < len`), and the computed ≡-classes
/// are pushed back through `elder(i, class)` / `younger(i, class)` — one
/// call per position each, elders in ascending order, youngers in
/// descending order. `f`/`nf` are the class-indexed double buffers for the
/// right-to-left transition-function composition; reusing them across calls
/// is what keeps the pass allocation-free (see the module docs for why
/// composition, not DFA restarts, is required for linearity).
pub fn sibling_classes(
    phr: &CompiledPhr,
    len: usize,
    state_at: impl Fn(usize) -> HState,
    f: &mut Vec<u32>,
    nf: &mut Vec<u32>,
    mut elder: impl FnMut(usize, u32),
    mut younger: impl FnMut(usize, u32),
) {
    let ncl = phr.classes.num_classes();
    let start = phr.classes.start();
    // Prefix classes, left to right.
    let mut c = start;
    for i in 0..len {
        elder(i, c);
        c = phr.class_step(c, state_at(i));
    }
    // Suffix classes, right to left, by transition-function composition.
    // f maps "class before reading the suffix" → "class after". Each of
    // the `len` compositions costs exactly |Q*/≡| table reads into an
    // already-allocated buffer — O(len · |Q*/≡|), zero allocation.
    f.clear();
    f.extend(0..ncl as u32); // identity
    nf.clear();
    nf.resize(ncl, 0);
    for i in (0..len).rev() {
        younger(i, f[start as usize]);
        // f := f ∘ δ_q  (read q first, then the old suffix).
        let delta = phr.class_step_row(state_at(i));
        for cls in 0..ncl {
            nf[cls] = f[delta[cls] as usize];
        }
        std::mem::swap(f, nf);
    }
}

/// The class computation of the first traversal, over already-computed
/// `M`-states, writing into caller-owned buffers.
#[allow(clippy::too_many_arguments)] // the buffers ARE the interface
fn first_pass_core(
    phr: &CompiledPhr,
    h: &FlatHedge,
    states: &[HState],
    elder_class: &mut Vec<u32>,
    younger_class: &mut Vec<u32>,
    f: &mut Vec<u32>,
    nf: &mut Vec<u32>,
    group: &mut Vec<NodeId>,
) {
    let _span = obs::span("core.two_pass.first");
    let n = h.num_nodes();
    let ncl = phr.classes.num_classes();
    let start = phr.classes.start();
    elder_class.clear();
    elder_class.resize(n, start);
    younger_class.clear();
    younger_class.resize(n, start);

    // Local tallies, flushed once below — the traversal itself stays free
    // of registry traffic.
    let mut groups = 0u64;
    let mut max_group = 0u64;

    let mut process = |group: &[NodeId], elder_class: &mut [u32], younger_class: &mut [u32]| {
        groups += 1;
        max_group = max_group.max(group.len() as u64);
        sibling_classes(
            phr,
            group.len(),
            |i| states[group[i] as usize],
            f,
            nf,
            |i, c| elder_class[group[i] as usize] = c,
            |i, c| younger_class[group[i] as usize] = c,
        );
    };

    process(h.roots(), elder_class, younger_class);
    for id in h.preorder() {
        if matches!(h.label(id), FlatLabel::Sym(_)) {
            // Collect the children by walking the sibling links into the
            // reused buffer (h.children() would allocate a Vec per node).
            group.clear();
            let mut c = h.first_child(id);
            while let Some(cid) = c {
                group.push(cid);
                c = h.next_sibling(cid);
            }
            if !group.is_empty() {
                process(group, elder_class, younger_class);
            }
        }
    }

    obs::counter_add("core.two_pass.first.nodes", n as u64);
    obs::counter_add("core.two_pass.first.groups", groups);
    obs::counter_add("core.two_pass.first.classes", ncl as u64);
    obs::histogram_record("core.two_pass.group_size", max_group);
}

/// Run the second traversal over a finished [`FirstPass`]: step the mirror
/// automaton `N` top-down and collect every node whose `N`-state is final.
pub fn second_pass(phr: &CompiledPhr, h: &FlatHedge, fp: &FirstPass) -> Vec<NodeId> {
    let mut n_state = Vec::new();
    let mut located = Vec::new();
    second_pass_core(
        phr,
        h,
        &fp.elder_class,
        &fp.younger_class,
        &mut n_state,
        &mut located,
    );
    located
}

/// The top-down traversal, writing into caller-owned buffers. Every node
/// costs one fused [`CompiledPhr::n_transition`] table step.
fn second_pass_core(
    phr: &CompiledPhr,
    h: &FlatHedge,
    elder_class: &[u32],
    younger_class: &[u32],
    n_state: &mut Vec<u32>,
    located: &mut Vec<NodeId>,
) {
    let _span = obs::span("core.two_pass.second");
    located.clear();
    n_state.clear();
    n_state.resize(h.num_nodes(), 0);
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
            elder_class[id as usize],
            a,
            younger_class[id as usize],
        );
        n_state[id as usize] = s;
        if phr.n_accepting(s) {
            located.push(id);
        }
    }
    obs::counter_add("core.two_pass.located", located.len() as u64);
}

/// Run both traversals: every node whose envelope matches the PHR, in
/// document order (Theorem 4 + Algorithm 1).
pub fn locate(phr: &CompiledPhr, h: &FlatHedge) -> Vec<NodeId> {
    let mut scratch = EvalScratch::new();
    locate_into(phr, h, &mut scratch);
    scratch.located
}

/// Run both traversals into a caller-owned [`EvalScratch`], returning the
/// located nodes as a borrow of the scratch. The warm path: with a reused
/// scratch, evaluation performs no per-node heap allocation.
pub fn locate_into<'s>(
    phr: &CompiledPhr,
    h: &FlatHedge,
    scratch: &'s mut EvalScratch,
) -> &'s [NodeId] {
    let _span = obs::span("core.two_pass");
    phr.m.run_into(h, &mut scratch.ha);
    first_pass_core(
        phr,
        h,
        scratch.ha.states(),
        &mut scratch.elder_class,
        &mut scratch.younger_class,
        &mut scratch.f,
        &mut scratch.nf,
        &mut scratch.group,
    );
    second_pass_core(
        phr,
        h,
        &scratch.elder_class,
        &scratch.younger_class,
        &mut scratch.n_state,
        &mut scratch.located,
    );
    &scratch.located
}

/// How many nodes match the PHR. Equivalent to `locate(phr, h).len()`, but
/// the second traversal tallies per-state counters instead of materializing
/// the match set — no node-id writes, no match buffer growth.
pub fn count(phr: &CompiledPhr, h: &FlatHedge) -> u64 {
    count_into(phr, h, &mut EvalScratch::new())
}

/// [`count`] into a caller-owned scratch (the warm, allocation-free path).
pub fn count_into(phr: &CompiledPhr, h: &FlatHedge, scratch: &mut EvalScratch) -> u64 {
    let _span = obs::span("core.two_pass");
    phr.m.run_into(h, &mut scratch.ha);
    first_pass_core(
        phr,
        h,
        scratch.ha.states(),
        &mut scratch.elder_class,
        &mut scratch.younger_class,
        &mut scratch.f,
        &mut scratch.nf,
        &mut scratch.group,
    );
    second_pass_count_core(
        phr,
        h,
        &scratch.elder_class,
        &scratch.younger_class,
        &mut scratch.n_state,
        &mut scratch.state_count,
    )
}

/// The counting variant of the top-down traversal: identical sweep, but the
/// only write per node is `state_count[s] += 1`. The answer is the sum of
/// the tallies over accepting states.
fn second_pass_count_core(
    phr: &CompiledPhr,
    h: &FlatHedge,
    elder_class: &[u32],
    younger_class: &[u32],
    n_state: &mut Vec<u32>,
    state_count: &mut Vec<u64>,
) -> u64 {
    let _span = obs::span("core.two_pass.second");
    state_count.clear();
    state_count.resize(phr.n_states_materialized(), 0);
    n_state.clear();
    n_state.resize(h.num_nodes(), 0);
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
            elder_class[id as usize],
            a,
            younger_class[id as usize],
        );
        n_state[id as usize] = s;
        state_count[s as usize] += 1;
    }
    let total: u64 = state_count
        .iter()
        .enumerate()
        .filter(|&(s, _)| phr.n_accepting(s as u32))
        .map(|(_, &c)| c)
        .sum();
    obs::counter_add("core.two_pass.located", total);
    total
}

/// Does *any* node match the PHR? Equivalent to `!locate(phr, h).is_empty()`
/// but usually far cheaper: the top-down pass becomes a depth-first search
/// that stops at the first accepting state and prunes every subtree whose
/// `N`-state is dead — and the first pass goes lazy with it. Sibling
/// ≡-classes are computed per group, only when the search actually
/// descends into that group, so a pruned subtree pays for neither
/// traversal. Only the bottom-up `M`-run (inherently whole-document — a
/// node's state depends on its descendants) still touches every node.
pub fn exists(phr: &CompiledPhr, h: &FlatHedge) -> bool {
    exists_into(phr, h, &mut EvalScratch::new())
}

/// [`exists`] into a caller-owned scratch (the warm, allocation-free path).
pub fn exists_into(phr: &CompiledPhr, h: &FlatHedge, scratch: &mut EvalScratch) -> bool {
    let _span = obs::span("core.two_pass");
    phr.m.run_into(h, &mut scratch.ha);
    let EvalScratch {
        ha,
        elder_class,
        younger_class,
        f,
        nf,
        group,
        stack,
        ..
    } = scratch;
    exists_core(
        phr,
        h,
        ha.states(),
        elder_class,
        younger_class,
        f,
        nf,
        group,
        stack,
    )
}

/// The fused, pruned search replacing both traversals in Exists mode. An
/// explicit stack of `(node, parent N-state)` pairs: children are simply
/// never pushed when their parent's state is dead, so barren subtrees cost
/// nothing — not even a table step per node. A sibling group's ≡-classes
/// are computed (via [`sibling_classes`]) at the moment the search first
/// descends into it, so pruning skips the first pass's work too.
#[allow(clippy::too_many_arguments)] // the buffers ARE the interface
fn exists_core(
    phr: &CompiledPhr,
    h: &FlatHedge,
    states: &[HState],
    elder_class: &mut Vec<u32>,
    younger_class: &mut Vec<u32>,
    f: &mut Vec<u32>,
    nf: &mut Vec<u32>,
    group: &mut Vec<NodeId>,
    stack: &mut Vec<(NodeId, u32)>,
) -> bool {
    let _span = obs::span("core.two_pass.exists");
    let n = h.num_nodes();
    let cls_start = phr.classes.start();
    // Grow-only, no clear: a group's classes are always written before any
    // of its nodes pop, so stale entries from earlier runs are never read.
    if elder_class.len() < n {
        elder_class.resize(n, cls_start);
    }
    if younger_class.len() < n {
        younger_class.resize(n, cls_start);
    }

    let mut visited = 0u64;
    let mut groups = 0u64;
    let mut classify = |g: &[NodeId],
                        elder_class: &mut [u32],
                        younger_class: &mut [u32],
                        f: &mut Vec<u32>,
                        nf: &mut Vec<u32>| {
        groups += 1;
        sibling_classes(
            phr,
            g.len(),
            |i| states[g[i] as usize],
            f,
            nf,
            |i, c| elder_class[g[i] as usize] = c,
            |i, c| younger_class[g[i] as usize] = c,
        );
    };

    stack.clear();
    classify(h.roots(), elder_class, younger_class, f, nf);
    let start = phr.n_start();
    for &r in h.roots().iter().rev() {
        stack.push((r, start));
    }
    while let Some((id, parent_state)) = stack.pop() {
        let FlatLabel::Sym(a) = h.label(id) else {
            continue;
        };
        visited += 1;
        let s = phr.n_transition(
            parent_state,
            elder_class[id as usize],
            a,
            younger_class[id as usize],
        );
        if phr.n_accepting(s) {
            obs::counter_add("core.two_pass.exists.visited", visited);
            obs::counter_add("core.two_pass.exists.groups", groups);
            obs::counter_add("core.two_pass.located", 1);
            return true;
        }
        if !phr.n_live(s) {
            continue;
        }
        // Collect the children into the reused buffer (the suffix pass
        // inside `classify` reads them right-to-left, and pushing them in
        // reverse makes the leftmost pop first: the search visits nodes in
        // document order and exits at the earliest match).
        group.clear();
        let mut c = h.first_child(id);
        while let Some(cid) = c {
            group.push(cid);
            c = h.next_sibling(cid);
        }
        if group.is_empty() {
            continue;
        }
        classify(group, elder_class, younger_class, f, nf);
        for &cid in group.iter().rev() {
            stack.push((cid, s));
        }
    }
    obs::counter_add("core.two_pass.exists.visited", visited);
    obs::counter_add("core.two_pass.exists.groups", groups);
    false
}

/// What a structural index knows about one document: the sorted candidate
/// nodes (every node whose label is in [`Plan::match_syms`](crate::Plan::match_syms) — in a
/// store, the union of those symbols' postings) and the preorder subtree
/// extents (`subtree_end[n]` is one past the last descendant of `n`, so
/// the descendants-of-`n` question is the single range `n..subtree_end[n]`).
///
/// [`eval_pruned_into`] only ever *skips* work based on this data, and
/// only subtrees containing no candidate, so a sound over-approximation in
/// `candidates` keeps every answer exact.
pub struct PruneInfo<'a> {
    /// Candidate match nodes, strictly increasing.
    pub candidates: &'a [NodeId],
    /// `subtree_end[n]` = one past the last preorder descendant of `n`.
    pub subtree_end: &'a [NodeId],
}

impl PruneInfo<'_> {
    /// Is any candidate inside `n`'s subtree range `[n, subtree_end[n])`?
    #[inline]
    fn subtree_has_candidate(&self, n: NodeId) -> bool {
        let i = self.candidates.partition_point(|&c| c < n);
        self.candidates
            .get(i)
            .is_some_and(|&c| c < self.subtree_end[n as usize])
    }
}

/// Index-pruned evaluation: the answer of [`eval_into`], restricted to the
/// ancestors-closure of the candidate set. One fused traversal serves all
/// three modes; alongside the outcome it reports how many subtrees the
/// index alone pruned (candidate-free ranges never visited — the automaton
/// liveness pruning of Exists mode composes on top but is not counted).
///
/// Soundness: an accepting node's label is in `match_syms`, so it is a
/// candidate, so it and all of its ancestors carry a candidate in their
/// subtree range and are visited with exactly the states/classes the
/// unpruned traversal would compute (classes are per sibling group, and a
/// group is classified before any of its members is expanded). A document
/// with *no* candidates therefore has no matches at all, and the traversal
/// — including the bottom-up `M`-run — is skipped outright.
pub fn eval_pruned_into(
    phr: &CompiledPhr,
    h: &FlatHedge,
    prune: &PruneInfo<'_>,
    scratch: &mut EvalScratch,
    mode: EvalMode,
) -> (EvalOutcome, u64) {
    let _span = obs::span("core.two_pass.pruned");
    let locate = matches!(mode, EvalMode::Locate);
    if locate {
        scratch.located.clear();
    }
    if prune.candidates.is_empty() {
        return (EvalOutcome::none(mode), h.roots().len() as u64);
    }
    debug_assert_eq!(prune.subtree_end.len(), h.num_nodes());
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
        ..
    } = scratch;
    let states = ha.states();
    let n = h.num_nodes();
    let cls_start = phr.classes.start();
    // Grow-only, no clear (see `exists_core`): a group's classes are
    // always written before any of its nodes pops.
    if elder_class.len() < n {
        elder_class.resize(n, cls_start);
    }
    if younger_class.len() < n {
        younger_class.resize(n, cls_start);
    }
    let classify = |g: &[NodeId],
                    elder_class: &mut [u32],
                    younger_class: &mut [u32],
                    f: &mut Vec<u32>,
                    nf: &mut Vec<u32>| {
        sibling_classes(
            phr,
            g.len(),
            |i| states[g[i] as usize],
            f,
            nf,
            |i, c| elder_class[g[i] as usize] = c,
            |i, c| younger_class[g[i] as usize] = c,
        );
    };

    let mut count = 0u64;
    let mut skipped = 0u64;
    stack.clear();
    classify(h.roots(), elder_class, younger_class, f, nf);
    let start = phr.n_start();
    for &r in h.roots().iter().rev() {
        stack.push((r, start));
    }
    while let Some((id, parent_state)) = stack.pop() {
        // The index gate: a subtree with no candidate can contain no
        // accepting node — skip it before spending even one table step.
        if !prune.subtree_has_candidate(id) {
            skipped += 1;
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
        if phr.n_accepting(s) {
            match mode {
                EvalMode::Locate => located.push(id),
                EvalMode::Count => count += 1,
                EvalMode::Exists => {
                    obs::counter_add("core.two_pass.pruned.skipped", skipped);
                    obs::counter_add("core.two_pass.located", 1);
                    return (EvalOutcome::Exists(true), skipped);
                }
            }
        }
        // Liveness pruning composes: even inside a candidate range, a dead
        // N-state proves every descendant barren.
        if !phr.n_live(s) {
            continue;
        }
        group.clear();
        let mut c = h.first_child(id);
        while let Some(cid) = c {
            group.push(cid);
            c = h.next_sibling(cid);
        }
        if group.is_empty() {
            continue;
        }
        classify(group, elder_class, younger_class, f, nf);
        for &cid in group.iter().rev() {
            stack.push((cid, s));
        }
    }
    obs::counter_add("core.two_pass.pruned.skipped", skipped);
    let outcome = match mode {
        EvalMode::Locate => {
            obs::counter_add("core.two_pass.located", located.len() as u64);
            EvalOutcome::Located(located.len())
        }
        EvalMode::Count => {
            obs::counter_add("core.two_pass.located", count);
            EvalOutcome::Count(count)
        }
        EvalMode::Exists => EvalOutcome::Exists(false),
    };
    (outcome, skipped)
}

/// Run the evaluation in the chosen [`EvalMode`]. For `Locate` the match
/// set is left in the scratch ([`EvalScratch::located`]); the outcome
/// carries only its size.
pub fn eval_into(
    phr: &CompiledPhr,
    h: &FlatHedge,
    scratch: &mut EvalScratch,
    mode: EvalMode,
) -> EvalOutcome {
    match mode {
        EvalMode::Locate => EvalOutcome::Located(locate_into(phr, h, scratch).len()),
        EvalMode::Count => EvalOutcome::Count(count_into(phr, h, scratch)),
        EvalMode::Exists => EvalOutcome::Exists(exists_into(phr, h, scratch)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use hedgex_ha::enumerate::enumerate_hedges;
    use hedgex_hedge::{parse_hedge, Alphabet};

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
            let warm = locate_into(&compiled, &f, &mut scratch);
            assert_eq!(warm, &slow[..], "{phr_src} warm path disagrees on {h:?}");
            // The cheaper modes must agree with the full match set.
            assert_eq!(
                count_into(&compiled, &f, &mut scratch),
                slow.len() as u64,
                "{phr_src} count disagrees on {h:?}"
            );
            assert_eq!(
                exists_into(&compiled, &f, &mut scratch),
                !slow.is_empty(),
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
        // rooted at `c` sends N to a dead state immediately, so the search
        // must answer without descending — same answer, almost no work.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let compiled = CompiledPhr::compile(&phr);
        let c = ab.sym("c");
        let mut h = hedgex_hedge::Hedge::leaf(c);
        for _ in 0..50 {
            h = hedgex_hedge::Hedge::node(c, h);
        }
        let f = FlatHedge::from_hedge(&h);
        assert!(!exists(&compiled, &f));
        assert_eq!(count(&compiled, &f), 0);
        assert!(locate(&compiled, &f).is_empty());
    }

    /// Preorder subtree extents by reverse max-propagation (what a store
    /// index derives on load).
    fn subtree_ends(h: &FlatHedge) -> Vec<NodeId> {
        let n = h.num_nodes();
        let mut end: Vec<NodeId> = (1..=n as NodeId).collect();
        for id in (0..n as NodeId).rev() {
            if let Some(p) = h.parent(id) {
                end[p as usize] = end[p as usize].max(end[id as usize]);
            }
        }
        end
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
                let end = subtree_ends(&f);
                let candidates: Vec<NodeId> = match &match_syms {
                    None => f.preorder().collect(),
                    Some(ms) => f
                        .preorder()
                        .filter(|&n| matches!(f.label(n), FlatLabel::Sym(a) if ms.contains(&a)))
                        .collect(),
                };
                let prune = PruneInfo {
                    candidates: &candidates,
                    subtree_end: &end,
                };
                let (out, _) =
                    eval_pruned_into(&compiled, &f, &prune, &mut scratch, EvalMode::Locate);
                assert_eq!(out, EvalOutcome::Located(expected.len()), "{phr_src} {h:?}");
                assert_eq!(scratch.located(), &expected[..], "{phr_src} {h:?}");
                let (out, _) =
                    eval_pruned_into(&compiled, &f, &prune, &mut scratch, EvalMode::Count);
                assert_eq!(out, EvalOutcome::Count(expected.len() as u64));
                let (out, _) =
                    eval_pruned_into(&compiled, &f, &prune, &mut scratch, EvalMode::Exists);
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
            eval_into(&compiled, &f, &mut scratch, EvalMode::Locate),
            EvalOutcome::Located(1)
        );
        assert_eq!(scratch.located(), &[2]);
        assert_eq!(
            eval_into(&compiled, &f, &mut scratch, EvalMode::Count),
            EvalOutcome::Count(1)
        );
        assert_eq!(
            eval_into(&compiled, &f, &mut scratch, EvalMode::Exists),
            EvalOutcome::Exists(true)
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
            let warm: Vec<_> = locate_into(&compiled, &f, &mut scratch).to_vec();
            assert_eq!(warm, locate(&compiled, &f), "on {src}");
            assert_eq!(scratch.located(), &warm[..]);
        }
    }
}
