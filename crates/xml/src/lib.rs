//! XML front end for the extended-path-expressions stack.
//!
//! The paper models XML documents as hedges; this crate supplies the
//! bridge. One dependency-free XML 1.0 subset scanner serves two parsers:
//!
//! * the recursive tree parser [`parse_xml`], whose [`XmlNode`]s
//!   [`to_hedge`] maps to a hedge — the reference the tests compare
//!   against;
//! * the event parser [`stream_read`], which reads its input in chunks
//!   through one window, applies the same mapping while it scans, and
//!   drives a [`hedgex_hedge::HedgeSink`] directly: a `FlatBuilder` in
//!   [`parse_flat_read`], or a streaming evaluator of `hedgex-stream`.
//!   [`stream_xml`] and [`parse_flat`] are the same loop over a `&str`.
//!
//! [`write_xml`] writes a hedge back, and seeded synthetic corpora
//! ([`corpus`]) stand in for the real-world documents the paper does not
//! name (see DESIGN.md §5 — all algorithms are structure-driven, so
//! generators controlling node count, depth, fanout and label mix
//! exercise the same code paths).
//!
//! Supported XML subset: elements, attributes, text, comments, processing
//! instructions, CDATA, the five predefined entities and numeric character
//! references. No DTDs; namespaces are treated as plain name characters.
//!
//! Mapping (configurable via [`HedgeConfig`]; no other crate applies it):
//!
//! * element `<a>…</a>` → `a⟨…⟩` with the name interned into Σ;
//! * text → a single designated variable leaf (`#text`), or dropped;
//! * attributes → either dropped, or prefix children `attr:name⟨#text⟩` —
//!   the paper's own suggestion ("allow terminal symbols to represent
//!   collections of tag names and conditions on attributes") realized in
//!   the simplest structural way.

#![forbid(unsafe_code)]

pub mod corpus;
pub mod parser;
pub mod writer;

pub use corpus::{docbook, DocbookConfig};
pub use parser::{
    parse_flat, parse_flat_read, parse_xml, stream_read, stream_xml, ReadError, StreamOutcome,
    XmlError, XmlNode,
};
pub use writer::write_xml;

use hedgex_hedge::{Alphabet, Hedge, Tree};

/// How XML features map onto hedge structure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HedgeConfig {
    /// Keep text content as `#text` variable leaves.
    pub keep_text: bool,
    /// Keep attributes as `attr:name` prefix children holding a `#text` leaf.
    pub keep_attrs: bool,
}

impl Default for HedgeConfig {
    fn default() -> Self {
        HedgeConfig {
            keep_text: true,
            keep_attrs: false,
        }
    }
}

/// The variable name used for text leaves.
pub const TEXT_VAR: &str = "#text";

/// The prefix that turns an attribute name into its Σ symbol.
pub const ATTR_PREFIX: &str = "attr:";

/// Convert parsed XML nodes into a hedge.
pub fn to_hedge(nodes: &[XmlNode], ab: &mut Alphabet, cfg: HedgeConfig) -> Hedge {
    let mut trees = Vec::new();
    for node in nodes {
        match node {
            XmlNode::Text(t) => {
                if cfg.keep_text && !t.trim().is_empty() {
                    trees.push(Tree::Var(ab.var(TEXT_VAR)));
                }
            }
            XmlNode::Element {
                name,
                attrs,
                children,
            } => {
                let sym = ab.sym(name);
                let mut content = Vec::new();
                if cfg.keep_attrs {
                    for (k, _) in attrs {
                        let asym = ab.sym(&format!("{ATTR_PREFIX}{k}"));
                        content.push(Tree::Node(asym, Hedge(vec![Tree::Var(ab.var(TEXT_VAR))])));
                    }
                }
                content.extend(to_hedge(children, ab, cfg).0);
                trees.push(Tree::Node(sym, Hedge(content)));
            }
        }
    }
    Hedge(trees)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_hedge::parse_hedge;

    #[test]
    fn element_mapping() {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<d><p>hi</p><p>ho</p></d>").unwrap();
        let h = to_hedge(&doc, &mut ab, HedgeConfig::default());
        let expected = parse_hedge("d<p<$#text> p<$#text>>", &mut ab).unwrap();
        assert_eq!(h, expected);
    }

    #[test]
    fn text_can_be_dropped() {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a>text<b/>more</a>").unwrap();
        let h = to_hedge(
            &doc,
            &mut ab,
            HedgeConfig {
                keep_text: false,
                keep_attrs: false,
            },
        );
        let expected = parse_hedge("a<b>", &mut ab).unwrap();
        assert_eq!(h, expected);
    }

    #[test]
    fn attributes_as_prefix_children() {
        let mut ab = Alphabet::new();
        let doc = parse_xml(r#"<fig width="10"><cap/></fig>"#).unwrap();
        let h = to_hedge(
            &doc,
            &mut ab,
            HedgeConfig {
                keep_text: true,
                keep_attrs: true,
            },
        );
        let expected = parse_hedge("fig<attr:width<$#text> cap>", &mut ab).unwrap();
        assert_eq!(h, expected);
    }

    #[test]
    fn whitespace_only_text_is_dropped() {
        let mut ab = Alphabet::new();
        let doc = parse_xml("<a>\n  <b/>\n</a>").unwrap();
        let h = to_hedge(&doc, &mut ab, HedgeConfig::default());
        let expected = parse_hedge("a<b>", &mut ab).unwrap();
        assert_eq!(h, expected);
    }
}
