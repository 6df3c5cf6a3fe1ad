//! Navigation of the preorder arena against the recursive hedge.
//!
//! A `FlatHedge` stores a packed label, a parent and a subtree end per
//! node, and derives every other link from the ends. Whichever route
//! builds it — `FlatHedge::from_hedge`, `parse_flat`, `parse_flat_read`
//! over a reader that hands out one byte at a time, or a store's loader —
//! each accessor must equal a reference computed from the recursive
//! `Hedge` alone: its preorder numbering, parents, child lists, sizes and
//! sibling positions. So must the addresses the `DeweyWriter` prints.

use std::io::Read;

use hedgex::hedge::flat::FlatLabel;
use hedgex::hedge::{DeweyWriter, Hedge, NodeId, SubId, SymId, Tree, VarId};
use hedgex::prelude::*;
use hedgex::xml::{parse_flat, parse_flat_read, TEXT_VAR};
use hedgex_testkit::{forall, prop_assert_eq, Config, Gen, Rng};

/// The alphabet every generated hedge draws from: `a`, `b`, `c`; the
/// text variable (`VarId(0)`) and `$x`; and `%z` (plus the reserved `η`).
fn alphabet() -> Alphabet {
    let mut ab = Alphabet::new();
    for s in ["a", "b", "c"] {
        ab.sym(s);
    }
    ab.var(TEXT_VAR);
    ab.var("x");
    ab.sub("z");
    ab
}

/// What the recursive hedge says about each node, by preorder id.
struct Reference {
    labels: Vec<FlatLabel>,
    parent: Vec<Option<NodeId>>,
    children: Vec<Vec<NodeId>>,
    roots: Vec<NodeId>,
    /// 1-based position among its siblings.
    position: Vec<u32>,
    ends: Vec<NodeId>,
}

impl Reference {
    /// Number the trees of `h` in preorder with an explicit stack, so a
    /// 100 000-deep chain needs no deep recursion.
    fn of(h: &Hedge) -> Reference {
        let mut r = Reference {
            labels: Vec::new(),
            parent: Vec::new(),
            children: Vec::new(),
            roots: Vec::new(),
            position: Vec::new(),
            ends: Vec::new(),
        };
        let mut stack: Vec<(&Tree, Option<NodeId>, u32)> = Vec::new();
        stack.extend(
            h.0.iter()
                .enumerate()
                .rev()
                .map(|(i, t)| (t, None, i as u32 + 1)),
        );
        while let Some((t, parent, position)) = stack.pop() {
            let id = r.labels.len() as NodeId;
            r.labels.push(match t {
                Tree::Node(a, _) => FlatLabel::Sym(*a),
                Tree::Var(x) => FlatLabel::Var(*x),
                Tree::Subst(z) => FlatLabel::Subst(*z),
            });
            r.parent.push(parent);
            r.children.push(Vec::new());
            r.position.push(position);
            match parent {
                Some(p) => r.children[p as usize].push(id),
                None => r.roots.push(id),
            }
            if let Tree::Node(_, kids) = t {
                let kids = kids.0.iter().enumerate().rev();
                stack.extend(kids.map(|(i, c)| (c, Some(id), i as u32 + 1)));
            }
        }
        // Sizes bottom-up: every child has a larger id than its parent.
        let n = r.labels.len();
        let mut size = vec![1u32; n];
        for id in (0..n).rev() {
            let below: u32 = r.children[id].iter().map(|&c| size[c as usize]).sum();
            size[id] += below;
        }
        r.ends = (0..n).map(|id| (id as u32) + size[id]).collect();
        r
    }

    /// The sibling group `n` belongs to.
    fn group(&self, n: NodeId) -> &[NodeId] {
        match self.parent[n as usize] {
            Some(p) => &self.children[p as usize],
            None => &self.roots,
        }
    }

    fn dewey(&self, n: NodeId) -> Vec<u32> {
        let mut path: Vec<u32> = std::iter::successors(Some(n), |&id| self.parent[id as usize])
            .map(|id| self.position[id as usize])
            .collect();
        path.reverse();
        path
    }
}

/// Every accessor of `f` against the reference. The per-node checks that
/// cost a node's depth or its group's width (Dewey addresses, sibling
/// lists) run on every node of a small arena and on a spread sample of a
/// large one.
fn check(route: &str, f: &FlatHedge, r: &Reference) -> Result<(), String> {
    let n = r.labels.len();
    prop_assert_eq!(f.num_nodes(), n, "{} node count", route);
    prop_assert_eq!(f.roots(), &r.roots[..], "{} roots", route);
    prop_assert_eq!(f.subtree_ends(), &r.ends[..], "{} subtree ends", route);
    for id in 0..n as NodeId {
        let i = id as usize;
        let group = r.group(id);
        let at = r.position[i] as usize - 1;
        prop_assert_eq!(f.label(id), r.labels[i], "{} label of {}", route, id);
        prop_assert_eq!(f.parent(id), r.parent[i], "{} parent of {}", route, id);
        prop_assert_eq!(
            f.first_child(id),
            r.children[i].first().copied(),
            "{} first child of {}",
            route,
            id
        );
        prop_assert_eq!(
            f.next_sibling(id),
            group.get(at + 1).copied(),
            "{} next sibling of {}",
            route,
            id
        );
        prop_assert_eq!(
            f.children(id).collect::<Vec<_>>(),
            r.children[i],
            "{} children of {}",
            route,
            id
        );
    }
    let stride = if n <= 3000 { 1 } else { n / 300 };
    let last = n as NodeId;
    let mut sample: Vec<NodeId> = (0..last).step_by(stride).collect();
    sample.extend((0..last.min(50)).chain(last.saturating_sub(50)..last));
    sample.sort_unstable();
    sample.dedup();
    // The address writer, over the sampled nodes in preorder that are not
    // too deep to print.
    let shallow: Vec<NodeId> = sample
        .iter()
        .copied()
        .filter(|&id| r.dewey(id).len() < 1000)
        .collect();
    let mut written = Vec::new();
    DeweyWriter::new(f)
        .write_lines(&mut written, None, &shallow)
        .unwrap();
    let lines: String = shallow
        .iter()
        .map(|&id| {
            r.dewey(id)
                .iter()
                .map(|d| format!("/{d}"))
                .collect::<String>()
                + "\n"
        })
        .collect();
    prop_assert_eq!(
        String::from_utf8(written).unwrap(),
        lines,
        "{} addresses",
        route
    );
    for id in sample {
        let group = r.group(id);
        let at = r.position[id as usize] as usize - 1;
        let dewey = r.dewey(id);
        prop_assert_eq!(f.dewey(id), dewey, "{} dewey of {}", route, id);
        prop_assert_eq!(f.by_dewey(&dewey), Some(id), "{} by_dewey of {}", route, id);
        prop_assert_eq!(
            f.elder_siblings(id).collect::<Vec<_>>(),
            &group[..at],
            "{} elder siblings of {}",
            route,
            id
        );
        prop_assert_eq!(
            f.younger_siblings(id).collect::<Vec<_>>(),
            &group[at + 1..],
            "{} younger siblings of {}",
            route,
            id
        );
    }
    // Addresses just past the ends of the hedge and of a group name no node.
    prop_assert_eq!(f.by_dewey(&[r.roots.len() as u32 + 1]), None);
    if let Some(&last) = r.roots.last() {
        let past = r.children[last as usize].len() as u32 + 1;
        prop_assert_eq!(f.by_dewey(&[r.roots.len() as u32, past]), None);
    }
    Ok(())
}

/// Can `h` be spelled as XML that parses back to it? Only element and
/// text nodes, no text at top level, and no two text leaves side by side
/// (XML would merge them into one run).
fn xml_shaped(h: &Hedge) -> bool {
    let text = |t: &Tree| *t == Tree::Var(VarId(0));
    let mut groups = vec![(&h.0, true)];
    while let Some((trees, top)) = groups.pop() {
        for (i, t) in trees.iter().enumerate() {
            match t {
                Tree::Node(_, kids) => groups.push((&kids.0, false)),
                _ if text(t) && !top && (i == 0 || !text(&trees[i - 1])) => {}
                _ => return false,
            }
        }
    }
    true
}

/// `h` as XML: `<a>…</a>`, `<a/>`, and `t` for a text leaf.
fn to_xml(h: &Hedge, ab: &Alphabet) -> String {
    let mut out = String::new();
    // `Err(a)` closes an element named `a`.
    let mut stack: Vec<Result<&Tree, SymId>> = h.0.iter().rev().map(Ok).collect();
    while let Some(item) = stack.pop() {
        match item {
            Ok(Tree::Node(a, kids)) if kids.0.is_empty() => {
                out.push_str(&format!("<{}/>", ab.sym_name(*a)));
            }
            Ok(Tree::Node(a, kids)) => {
                out.push_str(&format!("<{}>", ab.sym_name(*a)));
                stack.push(Err(*a));
                stack.extend(kids.0.iter().rev().map(Ok));
            }
            Ok(_) => out.push('t'),
            Err(a) => out.push_str(&format!("</{}>", ab.sym_name(a))),
        }
    }
    out
}

/// A reader that hands out one byte per call.
struct OneByte<'a>(&'a [u8]);

impl Read for OneByte<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match (self.0.split_first(), buf.first_mut()) {
            (Some((&b, rest)), Some(slot)) => {
                *slot = b;
                self.0 = rest;
                Ok(1)
            }
            _ => Ok(0),
        }
    }
}

/// Build `h` by every route that can express it and check each arena.
fn check_every_route(h: &Hedge) -> Result<(), String> {
    let r = Reference::of(h);
    let ab = alphabet();
    let flat = FlatHedge::from_hedge(h);
    check("from_hedge", &flat, &r)?;

    let store = DocumentStore::build(ab.clone(), vec![("doc".to_string(), flat)]);
    let loaded = DocumentStore::from_bytes(&store.to_bytes())
        .map_err(|e| format!("store load failed: {e}"))?;
    check("store", loaded.docs()[0].hedge(), &r)?;

    if xml_shaped(h) {
        let xml = to_xml(h, &ab);
        let cfg = HedgeConfig::default();
        let parsed = parse_flat(&xml, &mut ab.clone(), cfg)
            .map_err(|e| format!("parse_flat failed on {xml}: {e}"))?;
        check("parse_flat", &parsed, &r)?;
        let read = parse_flat_read(OneByte(xml.as_bytes()), &mut ab.clone(), cfg)
            .map_err(|e| format!("parse_flat_read failed on {xml}: {e}"))?;
        check("parse_flat_read", &read, &r)?;
    }
    Ok(())
}

/// A random tree. An XML-shaped one has only elements and text leaves,
/// never two text leaves side by side; otherwise any leaf can appear.
fn gen_tree(rng: &mut Rng, depth: usize, xml: bool) -> Tree {
    let sym = |rng: &mut Rng| SymId(rng.random_range(0..3u32));
    if depth == 0 || rng.random_bool(0.3) {
        return match rng.random_range(0..5u32) {
            0 | 1 => Tree::Node(sym(rng), Hedge::empty()),
            _ if xml => Tree::Var(VarId(0)),
            2 => Tree::Var(VarId(rng.random_range(0..2u32))),
            3 => Tree::Subst(SubId(0)),
            _ => Tree::Subst(SubId::ETA),
        };
    }
    let width = rng.random_range(0..5usize);
    let mut kids: Vec<Tree> = Vec::new();
    for _ in 0..width {
        let kid = gen_tree(rng, depth - 1, xml);
        let text = Tree::Var(VarId(0));
        if !(xml && kid == text && kids.last() == Some(&text)) {
            kids.push(kid);
        }
    }
    Tree::Node(sym(rng), Hedge(kids))
}

fn arb_hedge() -> Gen<Hedge> {
    Gen::new(|rng| {
        let xml = rng.random_bool(0.5);
        let width = rng.random_range(0..5usize);
        // XML allows no text at the top level: wrap a leaf that is text.
        let top = |t: Tree| match t {
            Tree::Var(_) if xml => Tree::Node(SymId(0), Hedge(vec![t])),
            t => t,
        };
        Hedge((0..width).map(|_| top(gen_tree(rng, 4, xml))).collect())
    })
}

#[test]
fn every_route_navigates_like_the_recursive_hedge() {
    forall(
        "arena_navigation",
        Config::with_cases(200),
        &arb_hedge(),
        check_every_route,
    );
}

#[test]
fn empty_and_leaf_only_hedges_navigate() {
    let a = SymId(0);
    let leaves = [
        Hedge::empty(),
        Hedge(vec![Tree::Node(a, Hedge::empty())]),
        Hedge(
            (0..50)
                .map(|i| Tree::Node(SymId(i % 3), Hedge::empty()))
                .collect(),
        ),
        Hedge(vec![
            Tree::Var(VarId(1)),
            Tree::Subst(SubId(0)),
            Tree::Var(VarId(0)),
            Tree::Var(VarId(0)),
            Tree::Subst(SubId::ETA),
        ]),
    ];
    for h in &leaves {
        check_every_route(h).unwrap();
    }
}

#[test]
fn a_hundred_thousand_deep_chain_navigates() {
    const DEPTH: usize = 100_000;
    let mut h = Hedge(vec![Tree::Var(VarId(0))]);
    for i in 0..DEPTH {
        h = Hedge::node(SymId(i as u32 % 3), h);
    }
    check_every_route(&h).unwrap();
    // Tear the recursive hedge down iteratively: the derived drop glue
    // recurses per level.
    let mut stack: Vec<Tree> = h.0;
    while let Some(t) = stack.pop() {
        if let Tree::Node(_, mut inner) = t {
            stack.append(&mut inner.0);
        }
    }
}

#[test]
fn a_hundred_thousand_wide_fan_out_navigates() {
    const WIDTH: u32 = 100_000;
    let kids: Vec<Tree> = (0..WIDTH)
        .map(|i| match i % 4 {
            0 => Tree::Var(VarId(0)),
            1 => Tree::Node(SymId(1), Hedge(vec![Tree::Var(VarId(0))])),
            _ => Tree::Node(SymId(i % 3), Hedge::empty()),
        })
        .collect();
    let h = Hedge(vec![
        Tree::Node(SymId(2), Hedge::empty()),
        Tree::Node(SymId(0), Hedge(kids)),
        Tree::Node(SymId(1), Hedge::empty()),
    ]);
    check_every_route(&h).unwrap();
}
