//! Serializing hedges back to XML, with query results made visible.
//!
//! Query answers are node sets; for human consumption (and for the example
//! binaries) the writer emits the document with located nodes carrying an
//! `hx:match="1"` attribute.

use std::fmt::Write;

use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{Alphabet, FlatHedge, NodeId};

use crate::TEXT_VAR;

/// Serialize a flat hedge to XML. `marks`, if given, flags nodes to
/// decorate with `hx:match="1"` (indexed by [`NodeId`]).
///
/// Text leaves (`#text` variables) are rendered as the placeholder `·`;
/// other variables render as their name; substitution symbols as `%name`
/// (both inside comments, since they have no XML equivalent). Each node
/// gets a line of its own, indented two spaces per level.
///
/// The walk is one pass over the nodes in preorder with a stack of the
/// open elements and their subtree ends, so documents of any depth
/// serialize in constant call-stack space.
pub fn write_xml(h: &FlatHedge, ab: &Alphabet, marks: Option<&[bool]>) -> String {
    let mut out = String::new();
    let ends = h.subtree_ends();
    // The open elements, innermost last: where each one's subtree ends, and
    // its escaped name.
    let mut open: Vec<(NodeId, String)> = Vec::new();
    for n in h.preorder() {
        close_ended(&mut out, &mut open, n);
        indent(&mut out, open.len());
        match h.label(n) {
            FlatLabel::Var(x) => {
                let name = ab.var_name(x);
                if name == TEXT_VAR {
                    out.push_str("·\n");
                } else {
                    writeln!(out, "<!-- ${name} -->").expect("writing to a String");
                }
            }
            FlatLabel::Subst(z) => {
                writeln!(out, "<!-- %{} -->", ab.sub_name(z)).expect("writing to a String");
            }
            FlatLabel::Sym(a) => {
                let name = escape_name(ab.sym_name(a));
                let attr = if is_marked(marks, n) {
                    " hx:match=\"1\""
                } else {
                    ""
                };
                let end = ends[n as usize];
                if n + 1 < end {
                    writeln!(out, "<{name}{attr}>").expect("writing to a String");
                    open.push((end, name));
                } else {
                    writeln!(out, "<{name}{attr}/>").expect("writing to a String");
                }
            }
        }
    }
    close_ended(&mut out, &mut open, h.num_nodes() as NodeId);
    out
}

/// Write the end tag of every open element whose subtree ends at or
/// before node `n`, innermost first.
fn close_ended(out: &mut String, open: &mut Vec<(NodeId, String)>, n: NodeId) {
    while open.last().is_some_and(|&(end, _)| end <= n) {
        let (_, name) = open.pop().expect("an open element");
        indent(out, open.len());
        writeln!(out, "</{name}>").expect("writing to a String");
    }
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

fn is_marked(marks: Option<&[bool]>, n: NodeId) -> bool {
    marks.is_some_and(|m| m[n as usize])
}

fn escape_name(name: &str) -> String {
    // Interned names come from the parser or from user code; strip anything
    // XML would reject in a tag name.
    name.chars()
        .map(|c| {
            if c.is_alphanumeric() || "_-.:@#".contains(c) {
                c
            } else {
                '_'
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{parse_xml, to_hedge, HedgeConfig};
    use hedgex_hedge::{Hedge, HedgeSink};

    #[test]
    fn roundtrip_structure() {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a><b/><c><d/>text</c></a>").unwrap();
        let h = to_hedge(&doc, &mut ab, HedgeConfig::default());
        let f = FlatHedge::from_hedge(&h);
        let s = write_xml(&f, &ab, None);
        // Re-parse the output; same structure (text placeholders count as
        // text).
        let doc2 = parse_xml(&s).unwrap();
        let mut ab2 = Alphabet::new();
        let h2 = to_hedge(&doc2, &mut ab2, HedgeConfig::default());
        assert_eq!(h.size(), h2.size());
    }

    #[test]
    fn marks_become_attributes() {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a><b/><b/></a>").unwrap();
        let h = to_hedge(&doc, &mut ab, HedgeConfig::default());
        let f = FlatHedge::from_hedge(&h);
        let marks = vec![false, true, false];
        let s = write_xml(&f, &ab, Some(&marks));
        assert_eq!(s.matches("hx:match").count(), 1);
    }

    #[test]
    fn layout_is_one_indented_line_per_node() {
        let mut ab = Alphabet::new();
        let h = hedgex_hedge::parse_hedge("a<b<$#text $v %z> c> d<e<f>>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let marks = vec![false, true, false, false, false, false, true, false, false];
        let want = "<a>\n  <b hx:match=\"1\">\n    ·\n    <!-- $v -->\n    <!-- %z -->\n  </b>\n  \
                    <c/>\n</a>\n<d hx:match=\"1\">\n  <e>\n    <f/>\n  </e>\n</d>\n";
        assert_eq!(write_xml(&f, &ab, Some(&marks)), want);
        assert_eq!(
            write_xml(&FlatHedge::from_hedge(&Hedge::default()), &ab, None),
            ""
        );
    }

    #[test]
    fn deep_chains_write_in_constant_stack() {
        // A thread with a 64 KiB stack: a writer recursing per level would
        // overflow long before 2 000 levels.
        const DEPTH: usize = 2_000;
        let out = std::thread::Builder::new()
            .stack_size(64 * 1024)
            .spawn(|| {
                let mut ab = Alphabet::new();
                let a = ab.sym("a");
                let mut b = hedgex_hedge::FlatBuilder::new();
                for _ in 0..DEPTH {
                    b.open(a);
                }
                write_xml(&b.finish(), &ab, None)
            })
            .unwrap()
            .join()
            .expect("no stack overflow");
        let mut want = String::new();
        for d in 0..DEPTH - 1 {
            want.push_str(&format!("{}<a>\n", "  ".repeat(d)));
        }
        want.push_str(&format!("{}<a/>\n", "  ".repeat(DEPTH - 1)));
        for d in (0..DEPTH - 1).rev() {
            want.push_str(&format!("{}</a>\n", "  ".repeat(d)));
        }
        assert_eq!(out, want);
    }

    #[test]
    fn empty_elements_self_close() {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a/>").unwrap();
        let h = to_hedge(&doc, &mut ab, HedgeConfig::default());
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(write_xml(&f, &ab, None).trim(), "<a/>");
    }
}
