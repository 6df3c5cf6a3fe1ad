//! A small XML 1.0 subset parser: two loops over one scanner.
//!
//! Hand-rolled and dependency-free on purpose: the repository implements
//! every substrate the paper needs from scratch. Covers the features real
//! document corpora exercise structurally — elements, attributes, text,
//! comments, PIs, CDATA, predefined and numeric entities — and rejects
//! malformed input with byte-accurate errors. DTDs are not supported.
//!
//! [`parse_xml`] builds an [`XmlNode`] tree recursively: the reference
//! the tests compare against. [`stream_xml`] applies the [`to_hedge`]
//! mapping as it scans and drives a [`HedgeSink`] directly, holding only
//! the open elements' symbols; [`parse_flat`] is that loop feeding a
//! [`FlatBuilder`]. Both loops share the tag, entity and markup
//! scanners, so they accept the same inputs and reject the rest with the
//! same message at the same byte.
//!
//! [`to_hedge`]: crate::to_hedge

use std::collections::HashSet;

use hedgex_hedge::{Alphabet, FlatBuilder, FlatHedge, HedgeSink, Leaf, SymId};

use crate::{HedgeConfig, ATTR_PREFIX, TEXT_VAR};

/// Attribute names per start tag checked for repeats by direct comparison;
/// a tag with more checks the rest through a hash set.
const LINEAR_ATTRS: usize = 8;

/// A parsed XML node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum XmlNode {
    /// An element with its attributes (in document order) and children.
    Element {
        /// Tag name.
        name: String,
        /// Attributes, in document order.
        attrs: Vec<(String, String)>,
        /// Child nodes.
        children: Vec<XmlNode>,
    },
    /// Character data (entity references already resolved).
    Text(String),
}

/// An XML parse error with byte position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct XmlError {
    /// Byte offset in the input.
    pub pos: usize,
    /// Description.
    pub msg: String,
}

impl std::fmt::Display for XmlError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "XML error at byte {}: {}", self.pos, self.msg)
    }
}

impl std::error::Error for XmlError {}

/// Parse a document (or fragment: multiple top-level elements are allowed,
/// matching the hedge model). Comments, PIs and the XML declaration are
/// consumed and dropped.
pub fn parse_xml(src: &str) -> Result<Vec<XmlNode>, XmlError> {
    let _span = hedgex_obs::span("xml.parse");
    let mut p = P::new(src);
    let nodes = p.nodes(false)?;
    // Tallied locally during the parse, flushed once here.
    p.tally.flush(src.len());
    if p.pos != src.len() {
        return Err(p.err("trailing content"));
    }
    // Top-level character data (beyond whitespace) is not well-formed;
    // whitespace between roots is dropped.
    let mut roots = Vec::with_capacity(nodes.len());
    for n in nodes {
        match n {
            XmlNode::Text(t) if t.trim().is_empty() => {}
            XmlNode::Text(_) => {
                return Err(XmlError {
                    pos: 0,
                    msg: "character data at the top level".into(),
                })
            }
            el => roots.push(el),
        }
    }
    Ok(roots)
}

/// How a streaming parse ended (when no [`XmlError`] occurred).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StreamOutcome {
    /// The whole input was consumed and was well-formed.
    Finished,
    /// The sink requested an early stop at byte offset `pos`.
    Stopped {
        /// Byte offset just past the event that triggered the stop.
        pos: usize,
    },
}

/// Parse `src`, pushing the hedge [`to_hedge`](crate::to_hedge) would
/// build into `sink` as preorder events while scanning: an element opens a
/// Σ node, each kept attribute becomes an `attr:name⟨#text⟩` child, and
/// each kept run of non-whitespace text a `#text` leaf. Names are interned
/// into `ab` in `to_hedge`'s order, so ids and leaves equal the
/// materialized pipeline's. Memory is bounded by document *depth* (one
/// symbol per open element): text and attribute values are scanned, never
/// copied.
///
/// Returns `Finished` for a fully consumed well-formed document, `Stopped`
/// when `sink` requested an early exit (the rest is not scanned), and on
/// malformed input the same [`XmlError`] [`parse_xml`] reports.
pub fn stream_xml<S: HedgeSink + ?Sized>(
    src: &str,
    ab: &mut Alphabet,
    cfg: HedgeConfig,
    sink: &mut S,
) -> Result<StreamOutcome, XmlError> {
    let _span = hedgex_obs::span("xml.parse_stream");
    let mut p = P::new(src);
    let outcome = p.stream(ab, cfg, sink);
    p.tally.flush(p.pos);
    outcome
}

/// Parse `src` straight into a [`FlatHedge`]: [`stream_xml`] drives a
/// [`FlatBuilder`], so ingestion is one iterative pass whatever the
/// document depth. Node ids, leaves and interning order equal
/// `FlatHedge::from_hedge(&to_hedge(&parse_xml(src)?, ab, cfg))`, and
/// malformed input fails with the same [`XmlError`].
pub fn parse_flat(src: &str, ab: &mut Alphabet, cfg: HedgeConfig) -> Result<FlatHedge, XmlError> {
    let mut builder = FlatBuilder::new();
    // A builder never stops the parse, so it always finishes.
    stream_xml(src, ab, cfg, &mut builder)?;
    Ok(builder.finish())
}

/// Parse-time counts, kept local so the scanning loops never touch the
/// (mutex-guarded) obs registry.
#[derive(Default)]
struct Tally {
    elements: u64,
    text_nodes: u64,
    attrs: u64,
    entities: u64,
}

impl Tally {
    /// Publish the counts, with `bytes` scanned.
    fn flush(&self, bytes: usize) {
        hedgex_obs::counter_add("xml.parse.bytes", bytes as u64);
        hedgex_obs::counter_add("xml.parse.elements", self.elements);
        hedgex_obs::counter_add("xml.parse.text_nodes", self.text_nodes);
        hedgex_obs::counter_add("xml.parse.attrs", self.attrs);
        hedgex_obs::counter_add("xml.parse.entities", self.entities);
    }
}

/// Where scanned character data goes: the tree parser keeps it, the event
/// parser keeps only what the hedge mapping asks of it.
trait CharData {
    fn push_str(&mut self, s: &str);
}

impl CharData for String {
    fn push_str(&mut self, s: &str) {
        String::push_str(self, s);
    }
}

/// Attribute values, which the event parser checks but does not keep.
impl CharData for () {
    fn push_str(&mut self, _: &str) {}
}

/// A text run as `to_hedge` sees it: does it hold a character at all (the
/// tree parser would store a text node), and a non-whitespace one (the
/// mapping would keep it)?
#[derive(Default)]
struct Run {
    any: bool,
    solid: bool,
}

impl CharData for Run {
    fn push_str(&mut self, s: &str) {
        self.any |= !s.is_empty();
        self.solid = self.solid || s.chars().any(|c| !c.is_whitespace());
    }
}

struct P<'a> {
    src: &'a str,
    pos: usize,
    tally: Tally,
}

impl<'a> P<'a> {
    fn new(src: &'a str) -> P<'a> {
        P {
            src,
            pos: 0,
            tally: Tally::default(),
        }
    }
    fn rest(&self) -> &'a str {
        &self.src[self.pos..]
    }
    fn peek(&self) -> Option<char> {
        self.rest().chars().next()
    }
    fn bump(&mut self) -> Option<char> {
        let c = self.peek()?;
        self.pos += c.len_utf8();
        Some(c)
    }
    fn eat(&mut self, prefix: &str) -> bool {
        if self.rest().starts_with(prefix) {
            self.pos += prefix.len();
            true
        } else {
            false
        }
    }
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError {
            pos: self.pos,
            msg: msg.into(),
        }
    }
    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(c) if c.is_whitespace()) {
            self.bump();
        }
    }

    fn name(&mut self) -> Result<&'a str, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c)
            if c.is_alphanumeric() || "_-.:@#".contains(c))
        {
            self.bump();
        }
        if self.pos == start {
            Err(self.err("expected a name"))
        } else {
            Ok(&self.src[start..self.pos])
        }
    }

    /// Parse sibling nodes until `</` (when `inside` an element) or EOF.
    fn nodes(&mut self, inside: bool) -> Result<Vec<XmlNode>, XmlError> {
        let mut out: Vec<XmlNode> = Vec::new();
        let mut text = String::new();
        macro_rules! flush_text {
            () => {
                if !text.is_empty() {
                    self.tally.text_nodes += 1;
                    out.push(XmlNode::Text(std::mem::take(&mut text)));
                }
            };
        }
        loop {
            match self.peek() {
                None => {
                    if inside {
                        return Err(self.err("unexpected end of input inside element"));
                    }
                    flush_text!();
                    return Ok(out);
                }
                Some('<') => {
                    if self.rest().starts_with("</") {
                        flush_text!();
                        return Ok(out);
                    }
                    if self.markup(&mut text)? {
                        continue;
                    }
                    flush_text!();
                    out.push(self.element()?);
                }
                Some(_) => self.char_data(b'<', &mut text)?,
            }
        }
    }

    /// The event-parser main loop. Iterative (the open elements' symbols
    /// live on the heap), so arbitrarily deep documents stream in constant
    /// Rust stack space — unlike the recursive tree parser, which is kept
    /// recursive on purpose as an independent reference implementation.
    fn stream<S: HedgeSink + ?Sized>(
        &mut self,
        ab: &mut Alphabet,
        cfg: HedgeConfig,
        sink: &mut S,
    ) -> Result<StreamOutcome, XmlError> {
        let mut open: Vec<SymId> = Vec::new();
        let mut text = Run::default();
        // The current start tag's attribute names, and the `attr:name`
        // symbol being spelled: buffers reused across tags.
        let mut attrs: Vec<&'a str> = Vec::new();
        let mut attr_sym = String::new();
        // Interned lazily on first use, like `to_hedge`.
        let mut text_var = None;
        // Non-whitespace character data between roots is only reported
        // after the rest of the document parses, matching `parse_xml`
        // (whose roots filter runs last) — remember it, keep scanning.
        let mut toplevel_text = false;
        macro_rules! emit {
            ($call:expr) => {
                if !$call {
                    return Ok(StreamOutcome::Stopped { pos: self.pos });
                }
            };
        }
        macro_rules! text_leaf {
            () => {
                Leaf::Var(*text_var.get_or_insert_with(|| ab.var(TEXT_VAR)))
            };
        }
        macro_rules! flush_text {
            () => {
                if std::mem::take(&mut text.any) {
                    self.tally.text_nodes += 1;
                    let solid = std::mem::take(&mut text.solid);
                    if open.is_empty() {
                        toplevel_text |= solid;
                    } else if cfg.keep_text && solid {
                        emit!(sink.leaf(text_leaf!()));
                    }
                }
            };
        }
        loop {
            match self.peek() {
                None => {
                    if !open.is_empty() {
                        return Err(self.err("unexpected end of input inside element"));
                    }
                    flush_text!();
                    if toplevel_text {
                        return Err(XmlError {
                            pos: 0,
                            msg: "character data at the top level".into(),
                        });
                    }
                    return Ok(StreamOutcome::Finished);
                }
                Some('<') => {
                    if self.rest().starts_with("</") {
                        let Some(&a) = open.last() else {
                            // Same position and message `parse_xml`
                            // produces for an end tag after the last root.
                            return Err(self.err("trailing content"));
                        };
                        flush_text!();
                        open.pop();
                        self.close_tag(ab.sym_name(a))?;
                        emit!(sink.close());
                        continue;
                    }
                    if self.markup(&mut text)? {
                        continue;
                    }
                    flush_text!();
                    attrs.clear();
                    let (name, self_closing) = self.open_tag(|k, ()| attrs.push(k))?;
                    let a = ab.sym(name);
                    emit!(sink.open(a));
                    if cfg.keep_attrs {
                        for k in &attrs {
                            attr_sym.clear();
                            attr_sym.push_str(ATTR_PREFIX);
                            attr_sym.push_str(k);
                            let asym = ab.sym(&attr_sym);
                            emit!(sink.open(asym) && sink.leaf(text_leaf!()) && sink.close());
                        }
                    }
                    if self_closing {
                        emit!(sink.close());
                    } else {
                        open.push(a);
                    }
                }
                Some(_) => self.char_data(b'<', &mut text)?,
            }
        }
    }

    /// At a `<` that opens no element: skip a comment or PI, add a CDATA
    /// section's content to `text`, refuse a DTD. `false` when the `<`
    /// starts a tag, which the caller scans.
    fn markup(&mut self, text: &mut impl CharData) -> Result<bool, XmlError> {
        let rest = self.rest();
        if rest.starts_with("<!--") {
            self.skip_past("-->", "unterminated comment")?;
        } else if rest.starts_with("<![CDATA[") {
            self.pos += "<![CDATA[".len();
            let start = self.pos;
            self.skip_past("]]>", "unterminated CDATA")?;
            text.push_str(&self.src[start..self.pos - "]]>".len()]);
        } else if rest.starts_with("<?") {
            self.skip_past("?>", "unterminated PI")?;
        } else if rest.starts_with("<!") {
            return Err(self.err("DTD declarations are not supported"));
        } else {
            return Ok(false);
        }
        Ok(true)
    }

    /// Move past the next `end`, or fail with `msg` where the search began.
    fn skip_past(&mut self, end: &str, msg: &str) -> Result<(), XmlError> {
        match self.rest().find(end) {
            Some(at) => {
                self.pos += at + end.len();
                Ok(())
            }
            None => Err(self.err(msg)),
        }
    }

    /// Character data before the next `stop` byte: one entity reference,
    /// or a run of plain characters up to the next `&` or `stop` (both
    /// ASCII, so the cut is always a char boundary).
    fn char_data(&mut self, stop: u8, text: &mut impl CharData) -> Result<(), XmlError> {
        if self.rest().starts_with('&') {
            text.push_str(self.entity()?.encode_utf8(&mut [0; 4]));
        } else {
            let rest = self.rest();
            let run = rest
                .bytes()
                .position(|b| b == stop || b == b'&')
                .unwrap_or(rest.len());
            text.push_str(&rest[..run]);
            self.pos += run;
        }
        Ok(())
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        let mut attrs = Vec::new();
        let (name, self_closing) = self.open_tag(|k, v: String| attrs.push((k.to_string(), v)))?;
        let children = if self_closing {
            Vec::new()
        } else {
            let children = self.nodes(true)?;
            self.close_tag(name)?;
            children
        };
        Ok(XmlNode::Element {
            name: name.to_string(),
            attrs,
            children,
        })
    }

    /// Scan a start tag from its `<`: its name, whether it closes itself,
    /// and each attribute handed to `attr` with its value, in document
    /// order. Shared by the tree parser and the event parser so both
    /// report identical errors at identical byte positions.
    ///
    /// A name may appear once per tag (XML 1.0's Unique Att Spec); a
    /// repeat is an error at the repeated name. The first
    /// [`LINEAR_ATTRS`] names are compared one by one on the stack, and a
    /// tag with more keeps them in a hash set, so no tag costs quadratic
    /// time and only such a tag allocates.
    fn open_tag<V: CharData + Default>(
        &mut self,
        mut attr: impl FnMut(&'a str, V),
    ) -> Result<(&'a str, bool), XmlError> {
        assert!(self.eat("<"));
        self.tally.elements += 1;
        let name = self.name()?;
        let mut first = [""; LINEAR_ATTRS];
        let mut count = 0;
        let mut more: Option<HashSet<&'a str>> = None;
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.bump();
                    if !self.eat(">") {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    return Ok((name, true));
                }
                Some('>') => {
                    self.bump();
                    return Ok((name, false));
                }
                Some(_) => {
                    let at = self.pos;
                    let k = self.name()?;
                    let repeated = if count < LINEAR_ATTRS {
                        first[count] = k;
                        first[..count].contains(&k)
                    } else {
                        let seen = more.get_or_insert_with(|| first.into_iter().collect());
                        !seen.insert(k)
                    };
                    if repeated {
                        return Err(XmlError {
                            pos: at,
                            msg: format!("attribute '{k}' repeated in tag '{name}'"),
                        });
                    }
                    count += 1;
                    self.skip_ws();
                    if !self.eat("=") {
                        return Err(self.err(format!("expected '=' after attribute '{k}'")));
                    }
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let mut v = V::default();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated attribute value")),
                            Some(c) if c == quote => {
                                self.bump();
                                break;
                            }
                            Some(_) => self.char_data(quote as u8, &mut v)?,
                        }
                    }
                    self.tally.attrs += 1;
                    attr(k, v);
                }
                None => return Err(self.err("unexpected end of input in tag")),
            }
        }
    }

    /// Scan a closing tag `</name >` and match it against the open element.
    fn close_tag(&mut self, name: &str) -> Result<(), XmlError> {
        if !self.eat("</") {
            return Err(self.err(format!("expected closing tag for '{name}'")));
        }
        let close = self.name()?;
        if close != name {
            return Err(self.err(format!("mismatched closing tag: '{close}' vs '{name}'")));
        }
        self.skip_ws();
        if !self.eat(">") {
            return Err(self.err("expected '>' in closing tag"));
        }
        Ok(())
    }

    fn entity(&mut self) -> Result<char, XmlError> {
        assert!(self.eat("&"));
        self.tally.entities += 1;
        let end = self
            .rest()
            .find(';')
            .ok_or_else(|| self.err("unterminated entity reference"))?;
        let body = &self.rest()[..end];
        let c = match body {
            "lt" => '<',
            "gt" => '>',
            "amp" => '&',
            "apos" => '\'',
            "quot" => '"',
            _ if body.starts_with("#x") || body.starts_with("#X") => {
                u32::from_str_radix(&body[2..], 16)
                    .ok()
                    .and_then(char::from_u32)
                    .ok_or_else(|| self.err(format!("bad character reference '&{body};'")))?
            }
            _ if body.starts_with('#') => body[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(|| self.err(format!("bad character reference '&{body};'")))?,
            _ => return Err(self.err(format!("unknown entity '&{body};'"))),
        };
        self.pos += end + 1;
        Ok(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn el(name: &str, children: Vec<XmlNode>) -> XmlNode {
        XmlNode::Element {
            name: name.into(),
            attrs: vec![],
            children,
        }
    }

    #[test]
    fn basic_nesting() {
        let doc = parse_xml("<a><b/><c><d/></c></a>").unwrap();
        assert_eq!(
            doc,
            vec![el(
                "a",
                vec![el("b", vec![]), el("c", vec![el("d", vec![])])]
            )]
        );
    }

    #[test]
    fn text_and_entities() {
        let doc = parse_xml("<p>a &lt;b&gt; &amp; &#65;&#x42;</p>").unwrap();
        assert_eq!(doc, vec![el("p", vec![XmlNode::Text("a <b> & AB".into())])]);
    }

    #[test]
    fn attributes() {
        let doc = parse_xml(r#"<img src="x.png" alt='an &quot;image&quot;'/>"#).unwrap();
        match &doc[0] {
            XmlNode::Element { name, attrs, .. } => {
                assert_eq!(name, "img");
                assert_eq!(
                    attrs,
                    &vec![
                        ("src".to_string(), "x.png".to_string()),
                        ("alt".to_string(), "an \"image\"".to_string())
                    ]
                );
            }
            _ => panic!("expected element"),
        }
    }

    #[test]
    fn comments_pis_cdata() {
        let doc = parse_xml(
            "<?xml version=\"1.0\"?><!-- hi --><a><!-- in --><![CDATA[1<2]]><?pi data?></a>",
        )
        .unwrap();
        assert_eq!(doc, vec![el("a", vec![XmlNode::Text("1<2".into())])]);
    }

    #[test]
    fn fragments_with_multiple_roots() {
        let doc = parse_xml("<a/><b/>").unwrap();
        assert_eq!(doc.len(), 2);
    }

    #[test]
    fn error_cases() {
        assert!(parse_xml("<a>").is_err());
        assert!(parse_xml("<a></b>").is_err());
        assert!(parse_xml("<a attr></a>").is_err());
        assert!(parse_xml("<a>&unknown;</a>").is_err());
        assert!(parse_xml("<a><!DOCTYPE x></a>").is_err());
        assert!(parse_xml("text outside <a/>").is_err());
        assert!(parse_xml("<a/><junk").is_err());
    }

    #[test]
    fn error_positions_are_byte_offsets() {
        let e = parse_xml("<a></b>").unwrap_err();
        assert!(
            e.pos >= 3,
            "position {} should be at the closing tag",
            e.pos
        );
        assert!(e.to_string().contains("mismatched"));
    }

    /// One hedge event, as a [`HedgeSink`] receives it.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Event {
        Open(SymId),
        Leaf(Leaf),
        Close,
    }

    /// Records every event; optionally stops after a fixed number.
    #[derive(Default)]
    struct Recorder {
        events: Vec<Event>,
        stop_after: Option<usize>,
    }

    impl Recorder {
        fn push(&mut self, ev: Event) -> bool {
            self.events.push(ev);
            !matches!(self.stop_after, Some(n) if self.events.len() >= n)
        }

        fn spelled(&self, ab: &Alphabet) -> Vec<String> {
            let spell = |ev: &Event| match *ev {
                Event::Open(a) => format!("open {}", ab.sym_name(a)),
                Event::Leaf(Leaf::Var(x)) => format!("leaf ${}", ab.var_name(x)),
                Event::Leaf(Leaf::Sub(z)) => format!("leaf {z}"),
                Event::Close => "close".into(),
            };
            self.events.iter().map(spell).collect()
        }
    }

    impl HedgeSink for Recorder {
        fn open(&mut self, a: SymId) -> bool {
            self.push(Event::Open(a))
        }
        fn leaf(&mut self, l: Leaf) -> bool {
            self.push(Event::Leaf(l))
        }
        fn close(&mut self) -> bool {
            self.push(Event::Close)
        }
    }

    const WITH_ATTRS: HedgeConfig = HedgeConfig {
        keep_text: true,
        keep_attrs: true,
    };

    #[test]
    fn stream_event_order() {
        let mut r = Recorder::default();
        let mut ab = Alphabet::new();
        let out = stream_xml(
            "<?xml version=\"1.0\"?><a x=\"1\">hi<b/><!-- c -->&amp;<![CDATA[<]]></a>",
            &mut ab,
            WITH_ATTRS,
            &mut r,
        )
        .unwrap();
        assert_eq!(out, StreamOutcome::Finished);
        assert_eq!(
            r.spelled(&ab),
            vec![
                "open a",
                "open attr:x",
                "leaf $#text",
                "close",
                "leaf $#text",
                "open b",
                "close",
                "leaf $#text",
                "close",
            ]
        );
        // to_hedge's interning order: a, attr:x, then #text, then b.
        assert_eq!(
            ab.syms().map(|a| ab.sym_name(a)).collect::<Vec<_>>(),
            ["a", "attr:x", "b"]
        );
    }

    #[test]
    fn stream_early_stop() {
        let mut r = Recorder {
            stop_after: Some(2),
            ..Recorder::default()
        };
        let src = "<a><b><c/></b></a>";
        let out = stream_xml(src, &mut Alphabet::new(), HedgeConfig::default(), &mut r).unwrap();
        match out {
            StreamOutcome::Stopped { pos } => assert!(pos < src.len()),
            other => panic!("expected Stopped, got {other:?}"),
        }
        assert_eq!(r.events.len(), 2);
    }

    #[test]
    fn stream_deep_chain_is_iterative() {
        // Deep enough to overflow a recursive parser's call stack; the
        // event parser keeps only the open elements' symbols on the heap.
        let depth = 10_000;
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let mut r = Recorder::default();
        assert_eq!(
            stream_xml(&src, &mut Alphabet::new(), HedgeConfig::default(), &mut r).unwrap(),
            StreamOutcome::Finished
        );
        assert_eq!(r.events.len(), 2 * depth);
    }

    #[test]
    fn stream_errors_match_tree_parser() {
        for src in [
            "<a>",
            "<a></b>",
            "<a attr></a>",
            "<a>&unknown;</a>",
            "<a><!DOCTYPE x></a>",
            "text outside <a/>",
            "<a/><junk",
            "<a/></x>",
            "<a><!-- nope</a>",
            "<a><![CDATA[x</a>",
            "<a><?pi</a>",
            "<a k='&bad;'/>",
            "<a k='1' k='2'/>",
        ] {
            let tree = parse_xml(src).unwrap_err();
            let ev = stream_xml(
                src,
                &mut Alphabet::new(),
                WITH_ATTRS,
                &mut Recorder::default(),
            )
            .unwrap_err();
            assert_eq!(ev, tree, "error mismatch on {src:?}");
        }
    }

    /// A start tag names each attribute once: a repeat is an error at the
    /// repeated name, in both parsers and whether attributes are kept or
    /// not, among the first few names and past the hash-set threshold.
    /// A tag with 100k distinct names parses, so the check is not
    /// quadratic.
    #[test]
    fn repeated_attribute_names_are_errors() {
        let wide = |n: usize, repeat: Option<usize>| {
            let mut src = String::from("<a");
            for i in 0..n {
                src.push_str(&format!(" k{i}='v'"));
            }
            if let Some(i) = repeat {
                src.push_str(&format!(" k{i}='w'"));
            }
            src + "/>"
        };
        let long = wide(LINEAR_ATTRS + 3, Some(1));
        for (src, pos, name, tag) in [
            ("<a k='1' k='2'/>", 9, "k", "a"),
            ("<a k='1' j='2' k=\"3\"></a>", 15, "k", "a"),
            ("<r><b x='' y='' x=''/></r>", 16, "x", "b"),
            (long.as_str(), long.len() - 8, "k1", "a"),
        ] {
            let tree = parse_xml(src).unwrap_err();
            assert_eq!(tree.pos, pos, "position on {src:?}");
            assert_eq!(
                tree.msg,
                format!("attribute '{name}' repeated in tag '{tag}'")
            );
            for cfg in [WITH_ATTRS, HedgeConfig::default()] {
                let ev = stream_xml(src, &mut Alphabet::new(), cfg, &mut Recorder::default());
                assert_eq!(ev.unwrap_err(), tree, "event parser on {src:?}");
            }
        }
        let many = wide(100_000, None);
        assert!(parse_xml(&many).is_ok());
        let mut ab = Alphabet::new();
        let flat = parse_flat(&many, &mut ab, WITH_ATTRS).unwrap();
        assert_eq!(flat.num_nodes(), 1 + 2 * 100_000);
        let repeated = wide(100_000, Some(99_999));
        let e = parse_xml(&repeated).unwrap_err();
        assert_eq!(e.pos, repeated.len() - 12);
    }

    /// Text the event parser never copies is judged by what it would have
    /// held: whitespace from character references or CDATA gives no
    /// `#text` leaf, as in `to_hedge`, yet still counts as a text node
    /// whenever the tree parser would store one (an empty CDATA section
    /// adds no character, so alone it makes none).
    #[test]
    fn whitespace_references_and_cdata_give_no_text_leaf() {
        for (body, text_nodes) in [
            ("&#32;", 1),
            ("&#x9;", 1),
            ("<![CDATA[ ]]>", 1),
            ("<![CDATA[]]>", 0),
            ("&#32;<!-- c --><![CDATA[]]>&#x9;", 1),
            ("<![CDATA[]]><b/>&#x20;", 1),
        ] {
            let src = format!("<a>{body}<b/></a>");
            let mut ab = Alphabet::new();
            let flat = parse_flat(&src, &mut ab, HedgeConfig::default()).unwrap();
            let mut ab_ref = Alphabet::new();
            let doc = parse_xml(&src).unwrap();
            let reference = crate::to_hedge(&doc, &mut ab_ref, HedgeConfig::default());
            assert_eq!(flat, FlatHedge::from_hedge(&reference), "{src:?}");
            assert_eq!((&ab, ab.num_vars()), (&ab_ref, 0), "{src:?}");

            let mut tree = P::new(&src);
            tree.nodes(false).unwrap();
            let mut events = P::new(&src);
            let cfg = HedgeConfig::default();
            events
                .stream(&mut Alphabet::new(), cfg, &mut Recorder::default())
                .unwrap();
            assert_eq!(tree.tally.text_nodes, text_nodes, "{src:?}");
            assert_eq!(events.tally.text_nodes, text_nodes, "{src:?}");
        }
    }
}
