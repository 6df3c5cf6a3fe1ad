//! A small XML 1.0 subset parser.
//!
//! Hand-rolled and dependency-free on purpose: the repository implements
//! every substrate the paper needs from scratch. Covers the features real
//! document corpora exercise structurally — elements, attributes, text,
//! comments, PIs, CDATA, predefined and numeric entities — and rejects
//! malformed input with byte-accurate errors. DTDs are not supported.

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
    let mut p = P {
        src,
        pos: 0,
        tally: Tally::default(),
    };
    let nodes = p.nodes(None)?;
    // Tallied locally during the parse, flushed once here.
    hedgex_obs::counter_add("xml.parse.bytes", src.len() as u64);
    hedgex_obs::counter_add("xml.parse.elements", p.tally.elements);
    hedgex_obs::counter_add("xml.parse.text_nodes", p.tally.text_nodes);
    hedgex_obs::counter_add("xml.parse.attrs", p.tally.attrs);
    hedgex_obs::counter_add("xml.parse.entities", p.tally.entities);
    p.skip_misc();
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

/// A consumer decision after each streamed event: keep parsing, or abort
/// (e.g. an `exists`-style query already found its answer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Flow {
    /// Keep feeding events.
    Continue,
    /// Stop the parse; `parse_xml_stream` returns [`StreamOutcome::Stopped`].
    Stop,
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

/// A push-based consumer of XML structure events.
///
/// `parse_xml_stream` calls these in document order: `open_element` at each
/// start tag (self-closing elements get an immediate `close_element`), `text`
/// for each maximal run of character data inside an element (entities and
/// CDATA already resolved, exactly the runs the tree parser would store as
/// [`XmlNode::Text`]), and `close_element` at each end tag. Top-level
/// whitespace is dropped and top-level character data is a well-formedness
/// error, mirroring [`parse_xml`] — neither reaches the sink.
pub trait StreamSink {
    /// A start tag with its attributes in document order.
    fn open_element(&mut self, name: &str, attrs: &[(String, String)]) -> Flow;
    /// Coalesced character data inside the current element.
    fn text(&mut self, text: &str) -> Flow;
    /// The end tag matching the most recent unclosed `open_element`.
    fn close_element(&mut self) -> Flow;
}

/// Parse a document, pushing events into `sink` as they are scanned —
/// nothing is materialized, so memory is bounded by document *depth*
/// (one open-tag name per ancestor) rather than document size.
///
/// Accepts exactly the inputs [`parse_xml`] accepts and rejects the rest
/// with the same message at the same byte position: both parsers share the
/// low-level tag/entity scanners, and the differential fuzz suite
/// (`tests/xml_stream_fuzz.rs`) holds them to it.
pub fn parse_xml_stream<S: StreamSink + ?Sized>(
    src: &str,
    sink: &mut S,
) -> Result<StreamOutcome, XmlError> {
    let _span = hedgex_obs::span("xml.parse_stream");
    let mut p = P {
        src,
        pos: 0,
        tally: Tally::default(),
    };
    let outcome = p.stream(sink);
    hedgex_obs::counter_add("xml.parse.bytes", p.pos as u64);
    hedgex_obs::counter_add("xml.parse.elements", p.tally.elements);
    hedgex_obs::counter_add("xml.parse.text_nodes", p.tally.text_nodes);
    hedgex_obs::counter_add("xml.parse.attrs", p.tally.attrs);
    hedgex_obs::counter_add("xml.parse.entities", p.tally.entities);
    outcome
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

/// (name, attributes in document order, self-closing?) scanned from a start tag.
type OpenTag = (String, Vec<(String, String)>, bool);

struct P<'a> {
    src: &'a str,
    pos: usize,
    tally: Tally,
}

impl<'a> P<'a> {
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

    /// Skip comments, PIs and the XML declaration between nodes at the top
    /// level.
    fn skip_misc(&mut self) {
        loop {
            let before = self.pos;
            self.skip_ws();
            if self.rest().starts_with("<?") {
                if let Some(end) = self.rest().find("?>") {
                    self.pos += end + 2;
                    continue;
                }
            }
            if self.rest().starts_with("<!--") {
                if let Some(end) = self.rest().find("-->") {
                    self.pos += end + 3;
                    continue;
                }
            }
            if self.pos == before {
                return;
            }
        }
    }

    fn name(&mut self) -> Result<String, XmlError> {
        let start = self.pos;
        while matches!(self.peek(), Some(c)
            if c.is_alphanumeric() || "_-.:@#".contains(c))
        {
            self.bump();
        }
        if self.pos == start {
            Err(self.err("expected a name"))
        } else {
            Ok(self.src[start..self.pos].to_string())
        }
    }

    /// Parse sibling nodes until `</` (when inside `parent`) or EOF.
    fn nodes(&mut self, parent: Option<&str>) -> Result<Vec<XmlNode>, XmlError> {
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
                    if parent.is_some() {
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
                    if self.rest().starts_with("<!--") {
                        match self.rest().find("-->") {
                            Some(end) => self.pos += end + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        match self.rest().find("]]>") {
                            Some(end) => {
                                text.push_str(&self.rest()[..end]);
                                self.pos += end + 3;
                            }
                            None => return Err(self.err("unterminated CDATA")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("<?") {
                        match self.rest().find("?>") {
                            Some(end) => self.pos += end + 2,
                            None => return Err(self.err("unterminated PI")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("<!") {
                        return Err(self.err("DTD declarations are not supported"));
                    }
                    flush_text!();
                    out.push(self.element()?);
                }
                Some('&') => {
                    text.push(self.entity()?);
                }
                Some(_) => {
                    text.push(self.bump().expect("peeked"));
                }
            }
        }
    }

    /// The event-parser main loop. Iterative (the open-tag stack lives on
    /// the heap), so arbitrarily deep documents stream in constant Rust
    /// stack space — unlike the recursive tree parser, which is kept
    /// recursive on purpose as an independent reference implementation.
    fn stream<S: StreamSink + ?Sized>(&mut self, sink: &mut S) -> Result<StreamOutcome, XmlError> {
        let mut open: Vec<String> = Vec::new();
        let mut text = String::new();
        // Non-whitespace character data between roots is only reported
        // after the rest of the document parses, matching `parse_xml`
        // (whose roots filter runs last) — remember it, keep scanning.
        let mut toplevel_text = false;
        macro_rules! emit {
            ($call:expr) => {
                if let Flow::Stop = $call {
                    return Ok(StreamOutcome::Stopped { pos: self.pos });
                }
            };
        }
        macro_rules! flush_text {
            () => {
                if !text.is_empty() {
                    self.tally.text_nodes += 1;
                    if open.is_empty() {
                        if !text.trim().is_empty() {
                            toplevel_text = true;
                        }
                    } else {
                        emit!(sink.text(&text));
                    }
                    text.clear();
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
                        if open.is_empty() {
                            // Same position and message `parse_xml` produces
                            // for an end tag after the last root.
                            return Err(self.err("trailing content"));
                        }
                        flush_text!();
                        let name = open.pop().expect("checked non-empty");
                        self.close_tag(&name)?;
                        emit!(sink.close_element());
                        continue;
                    }
                    if self.rest().starts_with("<!--") {
                        match self.rest().find("-->") {
                            Some(end) => self.pos += end + 3,
                            None => return Err(self.err("unterminated comment")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("<![CDATA[") {
                        self.pos += "<![CDATA[".len();
                        match self.rest().find("]]>") {
                            Some(end) => {
                                text.push_str(&self.rest()[..end]);
                                self.pos += end + 3;
                            }
                            None => return Err(self.err("unterminated CDATA")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("<?") {
                        match self.rest().find("?>") {
                            Some(end) => self.pos += end + 2,
                            None => return Err(self.err("unterminated PI")),
                        }
                        continue;
                    }
                    if self.rest().starts_with("<!") {
                        return Err(self.err("DTD declarations are not supported"));
                    }
                    flush_text!();
                    let (name, attrs, self_closing) = self.open_tag()?;
                    emit!(sink.open_element(&name, &attrs));
                    if self_closing {
                        emit!(sink.close_element());
                    } else {
                        open.push(name);
                    }
                }
                Some('&') => {
                    text.push(self.entity()?);
                }
                Some(_) => {
                    // Copy character data one run at a time, up to the next
                    // markup or entity byte. Both are ASCII, so the cut is
                    // always a char boundary.
                    let rest = self.rest();
                    let run = rest
                        .bytes()
                        .position(|b| b == b'<' || b == b'&')
                        .unwrap_or(rest.len());
                    text.push_str(&rest[..run]);
                    self.pos += run;
                }
            }
        }
    }

    fn element(&mut self) -> Result<XmlNode, XmlError> {
        let (name, attrs, self_closing) = self.open_tag()?;
        if self_closing {
            return Ok(XmlNode::Element {
                name,
                attrs,
                children: Vec::new(),
            });
        }
        let children = self.nodes(Some(&name))?;
        self.close_tag(&name)?;
        Ok(XmlNode::Element {
            name,
            attrs,
            children,
        })
    }

    /// Scan an opening tag from its `<`: name, attributes, and whether it
    /// was self-closing. Shared by the tree parser and the event parser so
    /// both report identical errors at identical byte positions.
    fn open_tag(&mut self) -> Result<OpenTag, XmlError> {
        assert!(self.eat("<"));
        self.tally.elements += 1;
        let name = self.name()?;
        let mut attrs = Vec::new();
        loop {
            self.skip_ws();
            match self.peek() {
                Some('/') => {
                    self.bump();
                    if !self.eat(">") {
                        return Err(self.err("expected '>' after '/'"));
                    }
                    return Ok((name, attrs, true));
                }
                Some('>') => {
                    self.bump();
                    return Ok((name, attrs, false));
                }
                Some(_) => {
                    let k = self.name()?;
                    self.skip_ws();
                    if !self.eat("=") {
                        return Err(self.err(format!("expected '=' after attribute '{k}'")));
                    }
                    self.skip_ws();
                    let quote = match self.bump() {
                        Some(q @ ('"' | '\'')) => q,
                        _ => return Err(self.err("expected quoted attribute value")),
                    };
                    let mut v = String::new();
                    loop {
                        match self.peek() {
                            None => return Err(self.err("unterminated attribute value")),
                            Some(c) if c == quote => {
                                self.bump();
                                break;
                            }
                            Some('&') => v.push(self.entity()?),
                            Some(_) => v.push(self.bump().expect("peeked")),
                        }
                    }
                    self.tally.attrs += 1;
                    attrs.push((k, v));
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

    /// Records every event; optionally stops after a fixed number.
    struct Recorder {
        events: Vec<String>,
        stop_after: Option<usize>,
    }

    impl Recorder {
        fn new() -> Self {
            Recorder {
                events: Vec::new(),
                stop_after: None,
            }
        }
        fn push(&mut self, ev: String) -> Flow {
            self.events.push(ev);
            match self.stop_after {
                Some(n) if self.events.len() >= n => Flow::Stop,
                _ => Flow::Continue,
            }
        }
    }

    impl StreamSink for Recorder {
        fn open_element(&mut self, name: &str, attrs: &[(String, String)]) -> Flow {
            let attrs: Vec<String> = attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            self.push(format!("open {name} [{}]", attrs.join(",")))
        }
        fn text(&mut self, text: &str) -> Flow {
            self.push(format!("text {text}"))
        }
        fn close_element(&mut self) -> Flow {
            self.push("close".into())
        }
    }

    #[test]
    fn stream_event_order() {
        let mut r = Recorder::new();
        let out = parse_xml_stream(
            "<?xml version=\"1.0\"?><a x=\"1\">hi<b/><!-- c -->&amp;<![CDATA[<]]></a>",
            &mut r,
        )
        .unwrap();
        assert_eq!(out, StreamOutcome::Finished);
        assert_eq!(
            r.events,
            vec![
                "open a [x=1]",
                "text hi",
                "open b []",
                "close",
                "text &<",
                "close",
            ]
        );
    }

    #[test]
    fn stream_early_stop() {
        let mut r = Recorder::new();
        r.stop_after = Some(2);
        let out = parse_xml_stream("<a><b><c/></b></a>", &mut r).unwrap();
        match out {
            StreamOutcome::Stopped { pos } => assert!(pos < "<a><b><c/></b></a>".len()),
            other => panic!("expected Stopped, got {other:?}"),
        }
        assert_eq!(r.events.len(), 2);
    }

    #[test]
    fn stream_deep_chain_is_iterative() {
        // Deep enough to overflow a recursive parser's call stack; the
        // event parser keeps only the open-tag name stack on the heap.
        let depth = 10_000;
        let src = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
        let mut r = Recorder::new();
        assert_eq!(
            parse_xml_stream(&src, &mut r).unwrap(),
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
        ] {
            let tree = parse_xml(src).unwrap_err();
            let ev = parse_xml_stream(src, &mut Recorder::new()).unwrap_err();
            assert_eq!(ev, tree, "error mismatch on {src:?}");
        }
    }
}
