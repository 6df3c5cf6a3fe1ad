//! Arena (flat) hedges: the evaluators' working representation.
//!
//! The recursive [`Hedge`] is convenient to build and compare; the
//! evaluators instead walk a [`FlatHedge`] — a preorder arena of a packed
//! label, a parent and a subtree end per node — because Algorithm 1
//! needs, for every node, its sibling group in document order and a
//! stable node identity to attach states, classes and query answers to.
//!
//! Node identity is a dense [`NodeId`] (preorder index). Child and
//! sibling links derive from the subtree ends, and Dewey addresses
//! (footnote 3 of the paper) are derivable on demand.

use crate::hedge::{Hedge, Tree};
use crate::symbols::{Leaf, SubId, SymId, VarId};

/// Dense node identifier: the node's preorder (document-order) index.
pub type NodeId = u32;

/// The label of a flat node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FlatLabel {
    /// A Σ node.
    Sym(SymId),
    /// A variable leaf.
    Var(VarId),
    /// A substitution-symbol leaf.
    Subst(SubId),
}

impl From<Leaf> for FlatLabel {
    fn from(l: Leaf) -> Self {
        match l {
            Leaf::Var(x) => FlatLabel::Var(x),
            Leaf::Sub(z) => FlatLabel::Subst(z),
        }
    }
}

/// A label that is no leaf is the Σ symbol of the node it opens.
impl TryFrom<FlatLabel> for Leaf {
    type Error = SymId;

    fn try_from(label: FlatLabel) -> Result<Leaf, SymId> {
        match label {
            FlatLabel::Sym(a) => Err(a),
            FlatLabel::Var(x) => Ok(Leaf::Var(x)),
            FlatLabel::Subst(z) => Ok(Leaf::Sub(z)),
        }
    }
}

/// Label ids from here on do not fit a packed label: it has 30 id bits,
/// and their top code stands for `η` ([`SubId::ETA`]).
pub const LABEL_ID_LIMIT: u32 = (1 << 30) - 1;

/// A label id at or past [`LABEL_ID_LIMIT`]: the typed error of every
/// route that mints ids for an arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LabelOverflow(pub u32);

impl std::fmt::Display for LabelOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "label id {} is past the limit {LABEL_ID_LIMIT}", self.0)
    }
}

impl std::error::Error for LabelOverflow {}

impl FlatLabel {
    /// The label in one `u32`: the tag (0 Σ, 1 variable, 2 substitution)
    /// in the top two bits, the id below. Refuses an id past the limit
    /// rather than truncate it; `η` takes the reserved top code.
    pub fn pack(self) -> Result<u32, LabelOverflow> {
        let (tag, id) = match self {
            FlatLabel::Sym(a) => (0, a.0),
            FlatLabel::Var(x) => (1, x.0),
            FlatLabel::Subst(SubId::ETA) => return Ok(2 << 30 | LABEL_ID_LIMIT),
            FlatLabel::Subst(z) => (2, z.0),
        };
        (id < LABEL_ID_LIMIT)
            .then_some(tag << 30 | id)
            .ok_or(LabelOverflow(id))
    }

    /// The label [`pack`](Self::pack) made `code` from.
    #[inline]
    fn unpack(code: u32) -> FlatLabel {
        let id = code & LABEL_ID_LIMIT;
        match code >> 30 {
            0 => FlatLabel::Sym(SymId(id)),
            1 => FlatLabel::Var(VarId(id)),
            _ if id == LABEL_ID_LIMIT => FlatLabel::Subst(SubId::ETA),
            _ => FlatLabel::Subst(SubId(id)),
        }
    }
}

/// A push-based consumer of hedge structure events, in document order:
/// the one event interface between XML bytes (`hedgex_xml::stream_xml`)
/// and whatever takes the document — a [`FlatBuilder`] building the
/// arena, or a streaming evaluator answering during the parse.
///
/// Every callback returns `true` to keep going or `false` to request an
/// early stop (the parser then stops and reports how far it got). A
/// well-formed event stream is balanced: every `open` is eventually
/// matched by a `close`, and `leaf`/nested events happen in between.
pub trait HedgeSink {
    /// A Σ node opens (its children follow, then a matching `close`).
    fn open(&mut self, a: SymId) -> bool;
    /// A childless leaf: a variable or substitution symbol.
    fn leaf(&mut self, l: Leaf) -> bool;
    /// The most recent unmatched `open` closes.
    fn close(&mut self) -> bool;
}

/// Sentinel for "no node".
pub const NIL: NodeId = u32::MAX;

/// A hedge flattened into an arena, in document (preorder) order: three
/// columns indexed by [`NodeId`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlatHedge {
    /// Packed labels ([`FlatLabel::pack`]).
    labels: Vec<u32>,
    /// Parents, [`NIL`] at top level.
    parents: Vec<NodeId>,
    /// One past the last preorder descendant: the subtree of `n` is the
    /// range `n..ends[n]`.
    ends: Vec<NodeId>,
    roots: Vec<NodeId>,
}

/// Builds a [`FlatHedge`] from preorder structure events — it is a
/// [`HedgeSink`]: `open` a Σ node, add a `leaf`, `close` the innermost
/// open node. Every construction route goes through it
/// ([`FlatHedge::from_hedge`], `hedgex_xml::parse_flat`, where the XML
/// event parser drives it directly, and the store loader, which replays
/// each document's `(label, parent)` records).
///
/// Nodes get their ids in arrival order, which is preorder, and a node's
/// end is written when it closes, so the builder keeps just the open
/// nodes on a heap stack: memory beyond the arena is O(depth), and no
/// event recurses. It panics on a label id past [`LABEL_ID_LIMIT`], which
/// the routes that mint ids refuse with a typed error first.
#[derive(Debug)]
pub struct FlatBuilder {
    out: FlatHedge,
    /// The open Σ nodes, innermost last.
    open: Vec<NodeId>,
}

impl Default for FlatBuilder {
    fn default() -> Self {
        FlatBuilder::with_capacity(0)
    }
}

impl FlatBuilder {
    /// An empty builder.
    pub fn new() -> FlatBuilder {
        FlatBuilder::default()
    }

    /// An empty builder with room for `nodes` nodes.
    pub fn with_capacity(nodes: usize) -> FlatBuilder {
        FlatBuilder {
            out: FlatHedge {
                labels: Vec::with_capacity(nodes),
                parents: Vec::with_capacity(nodes),
                ends: Vec::with_capacity(nodes),
                roots: Vec::new(),
            },
            open: Vec::new(),
        }
    }

    /// The innermost open node, if any: the parent the next node gets.
    #[inline]
    pub fn innermost_open(&self) -> Option<NodeId> {
        self.open.last().copied()
    }

    /// The finished hedge. Nodes still open are closed implicitly.
    pub fn finish(mut self) -> FlatHedge {
        while !self.open.is_empty() {
            self.close();
        }
        self.out
    }

    // Always inlined: a plain hint leaves it a call in the store loader's
    // per-record loop, one per node.
    #[inline(always)]
    fn push(&mut self, label: FlatLabel) -> NodeId {
        let id = NodeId::try_from(self.out.labels.len())
            .ok()
            .filter(|&id| id != NIL)
            .expect("too many nodes for a u32 arena");
        let label = label.pack().expect("label id past LABEL_ID_LIMIT");
        let parent = self.innermost_open().unwrap_or(NIL);
        if parent == NIL {
            self.out.roots.push(id);
        }
        self.out.labels.push(label);
        self.out.parents.push(parent);
        self.out.ends.push(id + 1);
        id
    }
}

/// The builder never asks to stop.
impl HedgeSink for FlatBuilder {
    /// Open a Σ node as the youngest child of the innermost open node (or
    /// as the youngest root). Its children follow until the matching
    /// [`close`](Self::close).
    #[inline]
    fn open(&mut self, a: SymId) -> bool {
        let id = self.push(FlatLabel::Sym(a));
        self.open.push(id);
        true
    }

    /// Add a variable or substitution leaf.
    #[inline]
    fn leaf(&mut self, l: Leaf) -> bool {
        self.push(l.into());
        true
    }

    /// Close the innermost open node.
    ///
    /// # Panics
    /// If no node is open.
    #[inline]
    fn close(&mut self) -> bool {
        let top = self.open.pop().expect("close without a matching open");
        self.out.ends[top as usize] = self.out.labels.len() as NodeId;
        true
    }
}

impl FlatHedge {
    /// Flatten a recursive hedge.
    ///
    /// The walk is an explicit-stack preorder traversal, *not* a recursion
    /// per nesting level: real documents nest arbitrarily deep (a
    /// 100 000-level chain is a regression test) and must flatten within a
    /// fixed call-stack budget. Pushing each node's children in reverse
    /// means the stack pops them left to right, so node ids remain the
    /// preorder (document-order) indices everything downstream relies on.
    pub fn from_hedge(h: &Hedge) -> FlatHedge {
        let mut b = FlatBuilder::with_capacity(h.size());
        // `None` is the close event of the Σ node whose children were
        // pushed just above it.
        let mut stack: Vec<Option<&Tree>> = h.0.iter().rev().map(Some).collect();
        while let Some(item) = stack.pop() {
            match item {
                Some(Tree::Node(a, children)) => {
                    b.open(*a);
                    stack.push(None);
                    stack.extend(children.0.iter().rev().map(Some));
                }
                Some(Tree::Var(x)) => {
                    b.leaf(Leaf::Var(*x));
                }
                Some(Tree::Subst(z)) => {
                    b.leaf(Leaf::Sub(*z));
                }
                None => {
                    b.close();
                }
            }
        }
        b.finish()
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.labels.len()
    }

    /// The top-level nodes, left to right.
    pub fn roots(&self) -> &[NodeId] {
        &self.roots
    }

    /// The label of `n`.
    #[inline]
    pub fn label(&self, n: NodeId) -> FlatLabel {
        FlatLabel::unpack(self.labels[n as usize])
    }

    /// The parent of `n` (`None` at top level).
    pub fn parent(&self, n: NodeId) -> Option<NodeId> {
        let p = self.parents[n as usize];
        (p != NIL).then_some(p)
    }

    /// One past the last preorder descendant of each node: the subtree of
    /// `n` is the range `n..subtree_ends()[n]`, and the next sibling of a
    /// node that has one is its end.
    #[inline]
    pub fn subtree_ends(&self) -> &[NodeId] {
        &self.ends
    }

    /// The first child of `n`.
    pub fn first_child(&self, n: NodeId) -> Option<NodeId> {
        let c = n + 1;
        (c < self.ends[n as usize]).then_some(c)
    }

    /// The next (younger) sibling of `n`.
    pub fn next_sibling(&self, n: NodeId) -> Option<NodeId> {
        self.younger_siblings(n).next()
    }

    /// Children of `n`, left to right, without allocating.
    #[inline]
    pub fn children(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.group(n + 1, self.ends[n as usize])
    }

    /// The siblings from `first` on that start before `bound`, left to
    /// right: each one's successor is its end.
    #[inline]
    fn group(&self, first: NodeId, bound: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        std::iter::successors((first < bound).then_some(first), move |&s| {
            let next = self.ends[s as usize];
            (next < bound).then_some(next)
        })
    }

    /// All nodes in document (preorder) order. Since construction is
    /// preorder, this is just `0..num_nodes`.
    pub fn preorder(&self) -> impl Iterator<Item = NodeId> {
        0..self.labels.len() as NodeId
    }

    /// The Dewey address of `n` (1-based per level, as in the paper's
    /// footnote: nodes are address–value pairs with Dewey-number addresses).
    /// Each level is scanned from its eldest sibling: the reference for
    /// [`DeweyWriter`](crate::DeweyWriter), which addresses whole answers.
    pub fn dewey(&self, n: NodeId) -> Vec<u32> {
        let up = std::iter::successors(Some(n), |&id| self.parent(id));
        let mut path: Vec<u32> = up
            .map(|id| self.elder_siblings(id).count() as u32 + 1)
            .collect();
        path.reverse();
        path
    }

    /// Find a node by its Dewey address.
    pub fn by_dewey(&self, addr: &[u32]) -> Option<NodeId> {
        let (&first, rest) = addr.split_first()?;
        let mut id = *self.roots.get(first.checked_sub(1)? as usize)?;
        for &step in rest {
            id = self.children(id).nth(step.checked_sub(1)? as usize)?;
        }
        Some(id)
    }

    /// The subhedge of `n` (Definition 21): the hedge of all descendants,
    /// i.e. the children sequence of `n` as a recursive hedge.
    pub fn subhedge(&self, n: NodeId) -> Hedge {
        Hedge(self.children(n).map(|c| self.to_tree(c)).collect())
    }

    /// Rebuild the recursive tree rooted at `n`.
    pub fn to_tree(&self, n: NodeId) -> Tree {
        match self.label(n) {
            FlatLabel::Var(x) => Tree::Var(x),
            FlatLabel::Subst(z) => Tree::Subst(z),
            FlatLabel::Sym(a) => Tree::Node(
                a,
                Hedge(self.children(n).map(|c| self.to_tree(c)).collect()),
            ),
        }
    }

    /// Rebuild the whole recursive hedge.
    pub fn to_hedge(&self) -> Hedge {
        Hedge(self.roots.iter().map(|&r| self.to_tree(r)).collect())
    }

    /// The envelope of `n` (Definition 21): the whole hedge with the
    /// subhedge of `n` removed and `η` inserted as the single child of `n`.
    pub fn envelope(&self, n: NodeId) -> Hedge {
        Hedge(
            self.roots
                .iter()
                .map(|&r| self.envelope_tree(r, n))
                .collect(),
        )
    }

    fn envelope_tree(&self, cur: NodeId, target: NodeId) -> Tree {
        match self.label(cur) {
            FlatLabel::Var(x) => Tree::Var(x),
            FlatLabel::Subst(z) => Tree::Subst(z),
            FlatLabel::Sym(a) => {
                if cur == target {
                    Tree::Node(a, Hedge(vec![Tree::Subst(SubId::ETA)]))
                } else {
                    Tree::Node(
                        a,
                        Hedge(
                            self.children(cur)
                                .map(|c| self.envelope_tree(c, target))
                                .collect(),
                        ),
                    )
                }
            }
        }
    }

    /// Elder siblings of `n`, left to right (the `u₁` of a pointed base
    /// hedge): a forward scan from the eldest.
    pub fn elder_siblings(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        self.group(self.parent(n).map_or(0, |p| p + 1), n)
    }

    /// Younger siblings of `n`, left to right (the `u₂`).
    pub fn younger_siblings(&self, n: NodeId) -> impl Iterator<Item = NodeId> + '_ {
        let len = self.labels.len() as NodeId;
        let bound = self.parent(n).map_or(len, |p| self.ends[p as usize]);
        self.group(self.ends[n as usize], bound)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Alphabet;
    use crate::text::parse_hedge;

    fn sample() -> (Alphabet, FlatHedge) {
        let mut ab = Alphabet::new();
        // b a⟨a⟨b x⟩ b⟩ — the Definition 21 example.
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        (ab, f)
    }

    #[test]
    fn roundtrip_flat_to_hedge() {
        let (mut ab, f) = sample();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        assert_eq!(f.to_hedge(), h);
        assert_eq!(f.num_nodes(), 6);
    }

    #[test]
    fn preorder_is_document_order() {
        let (ab, f) = sample();
        let labels: Vec<String> = f
            .preorder()
            .map(|n| match f.label(n) {
                FlatLabel::Sym(s) => ab.sym_name(s).to_string(),
                FlatLabel::Var(v) => format!("${}", ab.var_name(v)),
                FlatLabel::Subst(_) => "%".into(),
            })
            .collect();
        assert_eq!(labels, vec!["b", "a", "a", "b", "$x", "b"]);
    }

    #[test]
    fn family_links() {
        let (_, f) = sample();
        // Node 2 is the inner a (first second-level node of the second
        // top-level node).
        assert_eq!(f.parent(2), Some(1));
        assert_eq!(f.next_sibling(2), Some(5));
        assert_eq!(f.children(2).collect::<Vec<_>>(), vec![3, 4]);
        assert_eq!(f.children(3).count(), 0);
        assert_eq!(f.roots(), &[0, 1]);
        assert_eq!(f.elder_siblings(5).next(), Some(2));
        assert_eq!(f.elder_siblings(1).next(), Some(0));
    }

    #[test]
    fn a_node_is_a_label_and_three_links() {
        // The columns, named in full so a new one fails to compile here: a
        // packed label, a parent and an end, 12 bytes per node.
        let (_, f) = sample();
        let FlatHedge {
            labels,
            parents,
            ends,
            roots: _,
        } = &f;
        let column = |c: &Vec<u32>| std::mem::size_of_val(&c[..]);
        assert_eq!(column(labels) + column(parents) + column(ends), 12 * 6);
    }

    #[test]
    fn labels_pack_up_to_the_id_limit() {
        let last = LABEL_ID_LIMIT - 1;
        for label in [
            FlatLabel::Sym(SymId(0)),
            FlatLabel::Sym(SymId(last)),
            FlatLabel::Var(VarId(last)),
            FlatLabel::Subst(SubId(last)),
            FlatLabel::Subst(SubId::ETA),
        ] {
            let code = label.pack().unwrap();
            assert_eq!(FlatLabel::unpack(code), label);
        }
        for label in [
            FlatLabel::Sym(SymId(LABEL_ID_LIMIT)),
            FlatLabel::Var(VarId(LABEL_ID_LIMIT)),
            FlatLabel::Subst(SubId(LABEL_ID_LIMIT)),
            FlatLabel::Sym(SymId(u32::MAX)),
            FlatLabel::Var(VarId(1 << 30)),
        ] {
            let id = match label {
                FlatLabel::Sym(a) => a.0,
                FlatLabel::Var(x) => x.0,
                FlatLabel::Subst(z) => z.0,
            };
            assert_eq!(label.pack(), Err(LabelOverflow(id)), "{label:?}");
        }
        // The reserved code is η's alone, and the tags stay apart.
        assert_ne!(
            FlatLabel::Subst(SubId(last)).pack(),
            FlatLabel::Subst(SubId::ETA).pack()
        );
        assert_ne!(
            FlatLabel::Sym(SymId(3)).pack(),
            FlatLabel::Var(VarId(3)).pack()
        );
    }

    #[test]
    #[should_panic(expected = "label id past LABEL_ID_LIMIT")]
    fn builder_refuses_an_unpackable_label() {
        FlatBuilder::new().open(SymId(LABEL_ID_LIMIT));
    }

    #[test]
    fn extents_give_the_family_links() {
        // b a⟨a⟨b x⟩ b⟩: every subtree is one preorder range.
        let (_, f) = sample();
        assert_eq!(f.subtree_ends(), &[1, 6, 5, 4, 5, 6]);
        assert_eq!(f.first_child(0), None);
        assert_eq!(f.first_child(1), Some(2));
        assert_eq!(f.next_sibling(0), Some(1));
        assert_eq!(f.next_sibling(1), None);
        assert_eq!(f.next_sibling(4), None, "bounded by the parent's end");
        assert_eq!(f.next_sibling(5), None);
        assert_eq!(f.children(1).collect::<Vec<_>>(), vec![2, 5]);
    }

    #[test]
    fn dewey_addresses() {
        let (_, f) = sample();
        assert_eq!(f.dewey(0), vec![1]);
        assert_eq!(f.dewey(1), vec![2]);
        assert_eq!(f.dewey(2), vec![2, 1]);
        assert_eq!(f.dewey(4), vec![2, 1, 2]);
        for n in f.preorder() {
            assert_eq!(f.by_dewey(&f.dewey(n)), Some(n));
        }
        assert_eq!(f.by_dewey(&[3]), None);
        assert_eq!(f.by_dewey(&[2, 3]), None);
        assert_eq!(f.by_dewey(&[2, 1, 2, 1]), None);
        assert_eq!(f.by_dewey(&[0]), None);
        assert_eq!(f.by_dewey(&[]), None);
    }

    #[test]
    fn subhedge_and_envelope_match_definition_21() {
        // "The subhedge and envelope of the first second-level node is b x
        // and b a⟨a⟨η⟩ b⟩, respectively."
        let (mut ab, f) = sample();
        let sub = f.subhedge(2);
        assert_eq!(sub, parse_hedge("b $x", &mut ab).unwrap());
        let env = f.envelope(2);
        let expected = parse_hedge("b a<a<%η> b>", &mut ab).unwrap();
        assert_eq!(env, expected);
    }

    #[test]
    fn flattening_is_depth_insensitive() {
        // A chain nested far beyond any plausible call-stack budget: the
        // explicit-stack walk must flatten it, and the family links must
        // form exactly one first-child chain. (The evaluate half of the
        // regression lives in tests/deep_docs.rs at the workspace root.)
        use crate::symbols::Alphabet;
        const DEPTH: usize = 100_000;
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut h = Hedge::leaf(a);
        for _ in 0..DEPTH {
            h = Hedge::node(a, h);
        }
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(f.num_nodes(), DEPTH + 1);
        assert_eq!(f.roots(), &[0]);
        for n in 0..DEPTH as NodeId {
            assert_eq!(f.first_child(n), Some(n + 1));
            assert_eq!(f.parent(n + 1), Some(n));
            assert_eq!(f.next_sibling(n), None);
        }
        // Tear the recursive hedge down iteratively too: the derived drop
        // glue recurses per level and would blow the test thread's stack.
        let mut stack: Vec<Tree> = h.0;
        while let Some(t) = stack.pop() {
            if let Tree::Node(_, mut inner) = t {
                stack.append(&mut inner.0);
            }
        }
    }

    #[test]
    fn builder_events_round_trip_from_hedge() {
        // b a⟨a⟨b x⟩ b⟩ spelled as sink events: ids arrive in preorder, no
        // event asks to stop, and both routes agree.
        let (mut ab, f) = sample();
        let (a, b, x) = (ab.sym("a"), ab.sym("b"), ab.var("x"));
        let mut fb = FlatBuilder::new();
        let empty_b = |fb: &mut FlatBuilder| fb.open(b) && fb.close();
        assert!(empty_b(&mut fb));
        assert!(fb.open(a) && fb.open(a));
        assert_eq!(fb.innermost_open(), Some(2));
        assert!(empty_b(&mut fb));
        assert_eq!(fb.out.num_nodes(), 4, "the next node gets id 4");
        assert!(fb.leaf(Leaf::Var(x)) && fb.close());
        assert_eq!(fb.innermost_open(), Some(1));
        assert!(empty_b(&mut fb));
        // The outer a is left open: finish closes it.
        assert_eq!(fb.finish(), f);

        // from_hedge goes through the builder too and reproduces it.
        assert_eq!(FlatHedge::from_hedge(&f.to_hedge()), f);
        assert_eq!(FlatBuilder::new().finish().num_nodes(), 0);
    }

    #[test]
    #[should_panic(expected = "close without a matching open")]
    fn builder_rejects_unbalanced_close() {
        FlatBuilder::new().close();
    }

    #[test]
    fn sibling_queries() {
        let (_, f) = sample();
        let elder = |n| f.elder_siblings(n).collect::<Vec<_>>();
        let younger = |n| f.younger_siblings(n).collect::<Vec<_>>();
        assert_eq!(elder(5), vec![2]);
        assert_eq!(younger(2), vec![5]);
        assert!(elder(0).is_empty());
        assert_eq!(elder(1), vec![0]);
        assert!(younger(1).is_empty());
    }
}
