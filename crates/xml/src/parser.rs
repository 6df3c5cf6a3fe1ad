//! A small XML 1.0 subset parser: one byte scanner, two loops over it.
//!
//! Hand-rolled and dependency-free on purpose: the repository implements
//! every substrate the paper needs from scratch. Covers the features real
//! document corpora exercise structurally — elements, attributes, text,
//! comments, PIs, CDATA, predefined and numeric entities — and rejects
//! malformed input with byte-accurate errors. DTDs are not supported.
//!
//! [`parse_xml`] builds an [`XmlNode`] tree recursively: the reference
//! the tests compare against. [`stream_read`] applies the [`to_hedge`]
//! mapping as it scans and drives a [`HedgeSink`] directly, holding only
//! the open elements' symbols; [`parse_flat_read`] is that loop feeding a
//! [`FlatBuilder`]. Both loops share the tag, entity and markup
//! scanners, so they accept the same inputs and reject the rest with the
//! same message at the same byte.
//!
//! The scanner works on bytes: ASCII tables classify name and whitespace
//! bytes, a word-at-a-time search finds the end of a text run, and only a
//! byte ≥ 0x80 is decoded to a `char`. The event loop reads through a
//! window of at least [`WINDOW`] bytes that it refills from an
//! [`io::Read`]: each chunk is checked as UTF-8 once, a sequence cut by
//! the chunk's end waits for the next one, and a token cut by the
//! window's end is scanned again from its start once more bytes are in.
//! So no input is ever held whole. [`stream_xml`] and [`parse_flat`] are
//! the same loop over a `&str` that is its own one and only window.
//!
//! [`to_hedge`]: crate::to_hedge

use std::collections::HashSet;
use std::io::{self, Read};
use std::time::Instant;

use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{
    Alphabet, FlatBuilder, FlatHedge, HedgeSink, LabelOverflow, Leaf, SymId, VarId,
};

use crate::{HedgeConfig, ATTR_PREFIX, TEXT_VAR};

/// Attribute names per start tag checked for repeats by direct comparison;
/// a tag with more checks the rest through a hash set.
const LINEAR_ATTRS: usize = 8;

/// The reader loop's window, in bytes. A token longer than about half of
/// it (a huge start tag, comment or CDATA section) grows the window to
/// twice the token.
pub const WINDOW: usize = 64 * 1024;

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

/// Why a document read through an [`io::Read`] could not be parsed.
#[derive(Debug)]
pub enum ReadError {
    /// The reader failed.
    Io(io::Error),
    /// The bytes are not a well-formed document; invalid UTF-8 is an
    /// error at the first byte that cannot start a character.
    Xml(XmlError),
}

impl std::fmt::Display for ReadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReadError::Io(e) => e.fmt(f),
            ReadError::Xml(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for ReadError {}

impl From<XmlError> for ReadError {
    fn from(e: XmlError) -> Self {
        ReadError::Xml(e)
    }
}

/// Parse a document (or fragment: multiple top-level elements are allowed,
/// matching the hedge model). Comments, PIs and the XML declaration are
/// consumed and dropped.
pub fn parse_xml(src: &str) -> Result<Vec<XmlNode>, XmlError> {
    let _span = hedgex_obs::span("xml.parse");
    let mut p = P::whole(src.as_bytes());
    let nodes = p.nodes(false).map_err(Halt::whole)?;
    // Tallied locally during the parse, flushed once here.
    p.tally.bytes = src.len();
    p.tally.flush();
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

/// Read a document from `reader`, pushing the hedge
/// [`to_hedge`](crate::to_hedge) would build into `sink` as preorder events
/// while scanning: an element opens a Σ node, each kept attribute becomes
/// an `attr:name⟨#text⟩` child, and each kept run of non-whitespace text a
/// `#text` leaf. Names are interned into `ab` in `to_hedge`'s order, so ids
/// and leaves equal the materialized pipeline's. Memory is bounded by
/// document *depth* (one symbol per open element) plus the window, which
/// holds the longest token at most twice: text and attribute values are
/// scanned, never copied.
///
/// Returns `Finished` for a fully consumed well-formed document, `Stopped`
/// when `sink` requested an early exit (nothing past the window that
/// holds the stop is read), and on malformed input the same [`XmlError`]
/// [`parse_xml`] reports, with its absolute byte offset, whatever sizes
/// the reader's chunks have. Time spent inside [`Read::read`] is added to
/// the obs counter `xml.read_ns`.
pub fn stream_read<R: Read, S: HedgeSink + ?Sized>(
    reader: R,
    ab: &mut Alphabet,
    cfg: HedgeConfig,
    sink: &mut S,
) -> Result<StreamOutcome, ReadError> {
    let _span = hedgex_obs::span("xml.parse_stream");
    let mut chunks = Chunks::new(reader);
    let (outcome, tally) = drive(&mut chunks, ab, cfg, sink);
    tally.flush();
    hedgex_obs::counter_add("xml.read_ns", chunks.read_ns);
    outcome
}

/// [`stream_read`] over a document already in memory: the same loop, with
/// `src` as its one window.
pub fn stream_xml<S: HedgeSink + ?Sized>(
    src: &str,
    ab: &mut Alphabet,
    cfg: HedgeConfig,
    sink: &mut S,
) -> Result<StreamOutcome, XmlError> {
    let _span = hedgex_obs::span("xml.parse_stream");
    let (outcome, tally) = drive(&mut Whole(src.as_bytes()), ab, cfg, sink);
    tally.flush();
    outcome
}

/// Read a document straight into a [`FlatHedge`]: [`stream_read`] drives a
/// [`FlatBuilder`], so ingestion is one iterative pass whatever the
/// document depth, and the input is never held whole. Node ids, leaves and
/// interning order equal
/// `FlatHedge::from_hedge(&to_hedge(&parse_xml(src)?, ab, cfg))`, and
/// malformed input fails with the same [`XmlError`].
pub fn parse_flat_read<R: Read>(
    reader: R,
    ab: &mut Alphabet,
    cfg: HedgeConfig,
) -> Result<FlatHedge, ReadError> {
    let mut builder = FlatBuilder::new();
    // A builder never stops the parse, so it always finishes.
    stream_read(reader, ab, cfg, &mut builder)?;
    Ok(builder.finish())
}

/// [`parse_flat_read`] over a document already in memory.
pub fn parse_flat(src: &str, ab: &mut Alphabet, cfg: HedgeConfig) -> Result<FlatHedge, XmlError> {
    let mut builder = FlatBuilder::new();
    stream_xml(src, ab, cfg, &mut builder)?;
    Ok(builder.finish())
}

/// Parse-time counts, kept local so the scanning loops never touch the
/// (mutex-guarded) obs registry.
#[derive(Default, Clone, Copy)]
struct Tally {
    bytes: usize,
    elements: u64,
    text_nodes: u64,
    attrs: u64,
    entities: u64,
}

impl Tally {
    /// Publish the counts.
    fn flush(&self) {
        hedgex_obs::counter_add("xml.parse.bytes", self.bytes as u64);
        hedgex_obs::counter_add("xml.parse.elements", self.elements);
        hedgex_obs::counter_add("xml.parse.text_nodes", self.text_nodes);
        hedgex_obs::counter_add("xml.parse.attrs", self.attrs);
        hedgex_obs::counter_add("xml.parse.entities", self.entities);
    }
}

// ---------------------------------------------------------------------------
// Where the bytes come from
// ---------------------------------------------------------------------------

/// The event loop's input: a window of valid UTF-8 at an absolute offset,
/// refilled when the scanner reaches its end.
trait Feed {
    type Error: From<XmlError>;
    /// The window, the offset of its first byte, and whether it ends the
    /// input.
    fn window(&self) -> (&[u8], usize, bool);
    /// Drop the window's first `consumed` bytes and make more available.
    fn refill(&mut self, consumed: usize) -> Result<(), Self::Error>;
}

/// A document in memory: one window that ends the input.
struct Whole<'a>(&'a [u8]);

impl Feed for Whole<'_> {
    type Error = XmlError;
    fn window(&self) -> (&[u8], usize, bool) {
        (self.0, 0, true)
    }
    fn refill(&mut self, _: usize) -> Result<(), XmlError> {
        unreachable!("the scanner never asks past a window that ends the input")
    }
}

/// A document read through a reused buffer: `buf[..filled]` holds the
/// bytes read and not yet consumed, starting at absolute offset `base`,
/// of which `buf[..valid]` is checked UTF-8 and is the window.
struct Chunks<R> {
    reader: R,
    buf: Vec<u8>,
    filled: usize,
    valid: usize,
    base: usize,
    /// The reader has returned 0.
    eof: bool,
    /// `buf[valid..filled]` can never become UTF-8: an invalid sequence,
    /// or one the input ends inside.
    bad: bool,
    /// Time spent inside `Read::read`.
    read_ns: u64,
}

impl<R: Read> Chunks<R> {
    fn new(reader: R) -> Self {
        Chunks {
            reader,
            buf: vec![0; WINDOW],
            filled: 0,
            valid: 0,
            base: 0,
            eof: false,
            bad: false,
            read_ns: 0,
        }
    }
}

impl<R: Read> Feed for Chunks<R> {
    type Error = ReadError;

    fn window(&self) -> (&[u8], usize, bool) {
        // Past a bad byte the scanner asks for more, and is refused.
        (&self.buf[..self.valid], self.base, self.eof && !self.bad)
    }

    fn refill(&mut self, consumed: usize) -> Result<(), ReadError> {
        self.buf.copy_within(consumed..self.filled, 0);
        self.base += consumed;
        self.filled -= consumed;
        self.valid -= consumed;
        if self.bad {
            let pos = self.base + self.valid;
            let msg = "invalid UTF-8".into();
            return Err(XmlError { pos, msg }.into());
        }
        // Bytes kept here are a token the window's end cut, which is
        // scanned again from its start: wait for as many new bytes as it
        // holds, so each token is rescanned a logarithmic number of times
        // and a document costs linear time whatever the reader's chunks.
        let want = self.filled + self.filled.max(1);
        if want > self.buf.len() {
            self.buf.resize(want.next_power_of_two(), 0);
        }
        while self.filled < want && !self.eof {
            let t = Instant::now();
            let read = self.reader.read(&mut self.buf[self.filled..]);
            self.read_ns += t.elapsed().as_nanos() as u64;
            match read {
                Ok(n) => {
                    self.eof = n == 0;
                    self.filled += n;
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(ReadError::Io(e)),
            }
        }
        match std::str::from_utf8(&self.buf[self.valid..self.filled]) {
            Ok(_) => self.valid = self.filled,
            Err(e) => {
                self.valid += e.valid_up_to();
                // An invalid sequence, or one the input ends inside.
                self.bad = e.error_len().is_some() || self.eof;
            }
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// The event loop
// ---------------------------------------------------------------------------

/// Run the event loop over `feed` until the document ends, the sink stops
/// it, or an error; the tally is returned for the caller to publish.
fn drive<F: Feed, S: HedgeSink + ?Sized>(
    feed: &mut F,
    ab: &mut Alphabet,
    cfg: HedgeConfig,
    sink: &mut S,
) -> (Result<StreamOutcome, F::Error>, Tally) {
    let mut events = Events::new(cfg);
    // The one variable a parse mints is `#text`, interned already or next:
    // its id must fit a packed arena label before any byte is read.
    let text = ab.get_var(TEXT_VAR).map_or(ab.num_vars(), |x| x.0 as usize);
    if let Err(e) = FlatLabel::Var(VarId(u32::try_from(text).unwrap_or(u32::MAX))).pack() {
        let msg = e.to_string();
        return (Err(XmlError { pos: 0, msg }.into()), events.tally);
    }
    let outcome = loop {
        let (src, base, eof) = feed.window();
        match events.scan(src, base, eof, ab, sink) {
            Ok(Step::Done(outcome)) => break Ok(outcome),
            Ok(Step::More(consumed)) => {
                if let Err(e) = feed.refill(consumed) {
                    break Err(e);
                }
            }
            Err(e) => break Err(e.into()),
        }
    };
    (outcome, events.tally)
}

/// How a scan of one window ended.
enum Step {
    /// The document ended or the sink stopped it.
    Done(StreamOutcome),
    /// The window ran out after its first `consumed` bytes.
    More(usize),
}

/// The event loop's state, which outlives each window: the open elements'
/// symbols and the current text run. Iterative, so arbitrarily deep
/// documents stream in constant Rust stack space — unlike the recursive
/// tree parser, which is kept recursive on purpose as an independent
/// reference implementation.
struct Events {
    cfg: HedgeConfig,
    open: Vec<SymId>,
    text: Run,
    /// Interned lazily on first use, like `to_hedge`.
    text_var: Option<VarId>,
    /// Non-whitespace character data between roots is only reported after
    /// the rest of the document parses, matching `parse_xml` (whose roots
    /// filter runs last) — remember it, keep scanning.
    toplevel_text: bool,
    names: NameCache,
    /// The `attr:name` symbol being spelled, reused across tags.
    attr_sym: Vec<u8>,
    tally: Tally,
}

impl Events {
    fn new(cfg: HedgeConfig) -> Events {
        Events {
            cfg,
            open: Vec::new(),
            text: Run::default(),
            text_var: None,
            toplevel_text: false,
            names: NameCache::new(),
            attr_sym: ATTR_PREFIX.as_bytes().to_vec(),
            tally: Tally::default(),
        }
    }

    /// Scan the window `src` (at absolute offset `base`) token by token.
    /// A token the window's end cuts is left unconsumed for the next
    /// window to scan again; the scanner counts a token only once it
    /// completes, so nothing is counted twice.
    fn scan<S: HedgeSink + ?Sized>(
        &mut self,
        src: &[u8],
        base: usize,
        eof: bool,
        ab: &mut Alphabet,
        sink: &mut S,
    ) -> Result<Step, XmlError> {
        let mut p = P {
            src,
            pos: 0,
            base,
            eof,
            tally: self.tally,
        };
        // The current start tag's attribute names.
        let mut attrs = Vec::new();
        let step = loop {
            let start = p.pos;
            match self.token(&mut p, &mut attrs, ab, sink) {
                Ok(None) => {}
                Ok(Some(outcome)) => break Ok(Step::Done(outcome)),
                Err(Halt::More) => {
                    p.pos = start;
                    break Ok(Step::More(start));
                }
                Err(Halt::Err(e)) => break Err(e),
            }
        };
        self.tally = p.tally;
        self.tally.bytes = p.abs();
        step
    }

    /// Scan one token and apply the hedge mapping to it: `Some` when the
    /// document is done or the sink asked to stop.
    fn token<'a, S: HedgeSink + ?Sized>(
        &mut self,
        p: &mut P<'a>,
        attrs: &mut Vec<&'a [u8]>,
        ab: &mut Alphabet,
        sink: &mut S,
    ) -> Scan<Option<StreamOutcome>> {
        macro_rules! emit {
            ($call:expr) => {
                if !$call {
                    return Ok(Some(StreamOutcome::Stopped { pos: p.abs() }));
                }
            };
        }
        match p.peek() {
            None if !p.eof => Err(Halt::More),
            None => {
                if !self.open.is_empty() {
                    return Err(p.err("unexpected end of input inside element").into());
                }
                emit!(self.flush_text(&mut p.tally, ab, sink));
                if self.toplevel_text {
                    let msg = "character data at the top level".into();
                    return Err(XmlError { pos: 0, msg }.into());
                }
                Ok(Some(StreamOutcome::Finished))
            }
            Some(b'<') => {
                match p.lt()? {
                    Lt::Close => {
                        let Some(&a) = self.open.last() else {
                            // Same position and message `parse_xml`
                            // produces for an end tag after the last root.
                            return Err(p.err("trailing content").into());
                        };
                        emit!(self.flush_text(&mut p.tally, ab, sink));
                        p.close_tag(ab.sym_name(a).as_bytes())?;
                        self.open.pop();
                        emit!(sink.close());
                    }
                    Lt::Markup => p.markup(&mut self.text)?,
                    Lt::Open => {
                        emit!(self.flush_text(&mut p.tally, ab, sink));
                        attrs.clear();
                        let (name, self_closing) = p.open_tag(|k, ()| attrs.push(k))?;
                        let a = self.names.sym(ab, name);
                        FlatLabel::Sym(a).pack().map_err(|e| p.label(e))?;
                        emit!(sink.open(a));
                        if self.cfg.keep_attrs {
                            for k in attrs.iter() {
                                self.attr_sym.truncate(ATTR_PREFIX.len());
                                self.attr_sym.extend_from_slice(k);
                                let asym = self.names.sym(ab, &self.attr_sym);
                                FlatLabel::Sym(asym).pack().map_err(|e| p.label(e))?;
                                emit!(
                                    sink.open(asym)
                                        && sink.leaf(self.text_leaf(ab))
                                        && sink.close()
                                );
                            }
                        }
                        if self_closing {
                            emit!(sink.close());
                        } else {
                            self.open.push(a);
                        }
                    }
                }
                Ok(None)
            }
            Some(_) => {
                p.char_data(b'<', &mut self.text)?;
                Ok(None)
            }
        }
    }

    fn text_leaf(&mut self, ab: &mut Alphabet) -> Leaf {
        Leaf::Var(*self.text_var.get_or_insert_with(|| ab.var(TEXT_VAR)))
    }

    /// End the current text run, if any: count it, and hand a kept run to
    /// `sink` as a `#text` leaf. False when the sink asks to stop.
    fn flush_text<S: HedgeSink + ?Sized>(
        &mut self,
        tally: &mut Tally,
        ab: &mut Alphabet,
        sink: &mut S,
    ) -> bool {
        if !std::mem::take(&mut self.text.any) {
            return true;
        }
        tally.text_nodes += 1;
        let solid = std::mem::take(&mut self.text.solid);
        if self.open.is_empty() {
            self.toplevel_text |= solid;
        } else if self.cfg.keep_text && solid {
            return sink.leaf(self.text_leaf(ab));
        }
        true
    }
}

/// Start-tag and `attr:name` symbols already interned, so a repeated name
/// costs a short hash and a byte compare instead of the alphabet's
/// `HashMap`. Only [`Alphabet::sym`] fills it, so interning order and ids
/// are unchanged.
struct NameCache {
    slots: Vec<Option<(Box<[u8]>, SymId)>>,
}

impl NameCache {
    /// A power of two: a slot is picked by the hash's top bits.
    const SLOTS: usize = 64;

    fn new() -> NameCache {
        NameCache {
            slots: vec![None; Self::SLOTS],
        }
    }

    fn sym(&mut self, ab: &mut Alphabet, name: &[u8]) -> SymId {
        // Length, first two and last byte, mixed by one multiply whose
        // top bits pick the slot.
        let byte = |i: usize| u64::from(name.get(i).copied().unwrap_or(0));
        let key = (name.len() as u64) << 24 | byte(0) << 16 | byte(1) << 8 | byte(name.len() - 1);
        let h = key.wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let slot = &mut self.slots[(h >> (64 - Self::SLOTS.trailing_zeros())) as usize];
        match slot {
            Some((cached, a)) if **cached == *name => *a,
            _ => {
                let a = ab.sym(utf8(name));
                *slot = Some((name.into(), a));
                a
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The scanner
// ---------------------------------------------------------------------------

/// Why a scan stopped short of its token's end.
enum Halt {
    /// The window ends inside the token: scan it again with more bytes.
    More,
    /// The input is malformed.
    Err(XmlError),
}

impl From<XmlError> for Halt {
    fn from(e: XmlError) -> Self {
        Halt::Err(e)
    }
}

impl Halt {
    /// The error of a scan over a window that ends the input, which never
    /// asks for more.
    fn whole(self) -> XmlError {
        match self {
            Halt::Err(e) => e,
            Halt::More => unreachable!("the scanner never asks past the end of the input"),
        }
    }
}

type Scan<T> = Result<T, Halt>;

/// What a `<` opens, judged by the byte after it.
enum Lt {
    Close,
    /// A comment, CDATA section, PI or (refused) DTD.
    Markup,
    Open,
}

/// Where scanned character data goes: the tree parser keeps it, the event
/// parser keeps only what the hedge mapping asks of it.
trait CharData {
    /// A run of characters: valid UTF-8, cut only at char boundaries.
    fn push_bytes(&mut self, s: &[u8]);
    fn push_char(&mut self, c: char);
}

impl CharData for String {
    fn push_bytes(&mut self, s: &[u8]) {
        self.push_str(utf8(s));
    }
    fn push_char(&mut self, c: char) {
        self.push(c);
    }
}

/// Attribute values, which the event parser checks but does not keep.
impl CharData for () {
    fn push_bytes(&mut self, _: &[u8]) {}
    fn push_char(&mut self, _: char) {}
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
    fn push_bytes(&mut self, s: &[u8]) {
        self.any |= !s.is_empty();
        self.solid = self.solid || !all_whitespace(s);
    }
    fn push_char(&mut self, c: char) {
        self.any = true;
        self.solid |= !c.is_whitespace();
    }
}

/// Bytes scanned as a name: what `char::is_alphanumeric` or `_-.:@#`
/// accepts, for the ASCII bytes.
const NAME: [bool; 128] = {
    let mut t = [false; 128];
    let mut b = 0;
    while b < 128 {
        let c = b as u8;
        t[b] = c.is_ascii_alphanumeric() || matches!(c, b'_' | b'-' | b'.' | b':' | b'@' | b'#');
        b += 1;
    }
    t
};

/// `char::is_whitespace` on an ASCII byte.
fn ascii_whitespace(b: u8) -> bool {
    matches!(b, b'\t'..=b'\r' | b' ')
}

/// The char starting `s`, whose first byte is ≥ 0x80, and its length.
/// `s` is valid UTF-8 and holds the whole char.
fn decode(s: &[u8]) -> (char, usize) {
    let cont = |i: usize| u32::from(s[i] & 0x3f);
    let lead = u32::from(s[0]);
    let (code, len) = match s[0] {
        0xc0..=0xdf => ((lead & 0x1f) << 6 | cont(1), 2),
        0xe0..=0xef => ((lead & 0x0f) << 12 | cont(1) << 6 | cont(2), 3),
        _ => (
            (lead & 0x07) << 18 | cont(1) << 12 | cont(2) << 6 | cont(3),
            4,
        ),
    };
    (
        char::from_u32(code).unwrap_or(char::REPLACEMENT_CHARACTER),
        len,
    )
}

/// Does valid UTF-8 `s` hold only whitespace?
fn all_whitespace(s: &[u8]) -> bool {
    let mut i = 0;
    while let Some(&b) = s.get(i) {
        // Indentation: eight spaces at a time.
        if s.get(i..i + 8) == Some(&[b' '; 8]) {
            i += 8;
            continue;
        }
        if b < 0x80 {
            if !ascii_whitespace(b) {
                return false;
            }
            i += 1;
        } else {
            let (c, len) = decode(&s[i..]);
            if !c.is_whitespace() {
                return false;
            }
            i += len;
        }
    }
    true
}

/// A slice of the window as text. Every cut the scanner makes is at a
/// char boundary of valid UTF-8, so this never fails.
fn utf8(s: &[u8]) -> &str {
    std::str::from_utf8(s).expect("the scanner cuts valid UTF-8 at char boundaries")
}

const LANES: u64 = 0x0101_0101_0101_0101;
const HIGH: u64 = 0x8080_8080_8080_8080;

/// The high bit of each byte of `w` that is zero. Bytes above the lowest
/// zero byte may be flagged spuriously, so only the lowest bit is exact.
fn zero_bytes(w: u64) -> u64 {
    w.wrapping_sub(LANES) & !w & HIGH
}

/// The first index of `a` or `b` in `hay`, eight bytes at a time.
fn find2(hay: &[u8], a: u8, b: u8) -> Option<usize> {
    let (wa, wb) = (LANES * u64::from(a), LANES * u64::from(b));
    let mut words = hay.chunks_exact(8);
    let mut at = 0;
    for word in &mut words {
        let w = u64::from_le_bytes(word.try_into().expect("chunks of eight"));
        let hit = zero_bytes(w ^ wa) | zero_bytes(w ^ wb);
        if hit != 0 {
            return Some(at + hit.trailing_zeros() as usize / 8);
        }
        at += 8;
    }
    let tail = words.remainder().iter().position(|&c| c == a || c == b);
    tail.map(|i| at + i)
}

/// The scanner's cursor over one window: `src` is valid UTF-8 starting at
/// absolute offset `base`, and `eof` says whether the input ends with it.
/// A scan that reaches the window's end before its token's does halts
/// with [`Halt::More`] unless `eof`, in which case it fails as at the end
/// of the input.
struct P<'a> {
    src: &'a [u8],
    pos: usize,
    base: usize,
    eof: bool,
    tally: Tally,
}

impl<'a> P<'a> {
    /// A cursor over a whole document.
    fn whole(src: &'a [u8]) -> P<'a> {
        P {
            src,
            pos: 0,
            base: 0,
            eof: true,
            tally: Tally::default(),
        }
    }
    fn peek(&self) -> Option<u8> {
        self.src.get(self.pos).copied()
    }
    fn abs(&self) -> usize {
        self.base + self.pos
    }
    fn err(&self, msg: impl Into<String>) -> XmlError {
        XmlError {
            pos: self.abs(),
            msg: msg.into(),
        }
    }
    /// A label id minted here does not fit a packed arena label: a
    /// positioned error, never a panic in a [`FlatBuilder`].
    #[cold]
    fn label(&self, e: LabelOverflow) -> XmlError {
        self.err(e.to_string())
    }
    /// The window ends inside a token: more bytes may complete it, or at
    /// the end of the input it fails with `msg` here.
    fn short(&self, msg: &str) -> Halt {
        if self.eof {
            Halt::Err(self.err(msg))
        } else {
            Halt::More
        }
    }
    /// Does the rest start with `lit`? `More` when the window ends before
    /// that is known.
    fn at(&self, lit: &[u8]) -> Scan<bool> {
        let rest = &self.src[self.pos..];
        if rest.starts_with(lit) {
            Ok(true)
        } else if !self.eof && lit.starts_with(rest) {
            Err(Halt::More)
        } else {
            Ok(false)
        }
    }
    fn eat(&mut self, lit: &[u8]) -> Scan<bool> {
        let hit = self.at(lit)?;
        if hit {
            self.pos += lit.len();
        }
        Ok(hit)
    }
    fn skip_ws(&mut self) -> Scan<()> {
        while let Some(b) = self.peek() {
            if b < 0x80 {
                if !ascii_whitespace(b) {
                    return Ok(());
                }
                self.pos += 1;
            } else {
                let (c, len) = decode(&self.src[self.pos..]);
                if !c.is_whitespace() {
                    return Ok(());
                }
                self.pos += len;
            }
        }
        if self.eof {
            Ok(())
        } else {
            Err(Halt::More)
        }
    }

    fn name(&mut self) -> Scan<&'a [u8]> {
        let start = self.pos;
        loop {
            match self.peek() {
                Some(b) if b < 0x80 => {
                    if !NAME[b as usize] {
                        break;
                    }
                    self.pos += 1;
                }
                Some(_) => {
                    let (c, len) = decode(&self.src[self.pos..]);
                    if !c.is_alphanumeric() {
                        break;
                    }
                    self.pos += len;
                }
                None if self.eof => break,
                None => return Err(Halt::More),
            }
        }
        if self.pos == start {
            Err(self.err("expected a name").into())
        } else {
            Ok(&self.src[start..self.pos])
        }
    }

    /// At a `<`: what it opens.
    fn lt(&self) -> Scan<Lt> {
        match self.src.get(self.pos + 1) {
            Some(b'/') => Ok(Lt::Close),
            Some(b'!' | b'?') => Ok(Lt::Markup),
            Some(_) => Ok(Lt::Open),
            None if self.eof => Ok(Lt::Open),
            None => Err(Halt::More),
        }
    }

    /// Parse sibling nodes until `</` (when `inside` an element) or EOF.
    fn nodes(&mut self, inside: bool) -> Scan<Vec<XmlNode>> {
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
                        return Err(self.err("unexpected end of input inside element").into());
                    }
                    flush_text!();
                    return Ok(out);
                }
                Some(b'<') => match self.lt()? {
                    Lt::Close => {
                        flush_text!();
                        return Ok(out);
                    }
                    Lt::Markup => self.markup(&mut text)?,
                    Lt::Open => {
                        flush_text!();
                        out.push(self.element()?);
                    }
                },
                Some(_) => self.char_data(b'<', &mut text)?,
            }
        }
    }

    /// At a `<!` or `<?`: skip a comment or PI, add a CDATA section's
    /// content to `text`, refuse a DTD.
    fn markup(&mut self, text: &mut impl CharData) -> Scan<()> {
        if self.at(b"<!--")? {
            self.skip_past(b"-->", "unterminated comment")
        } else if self.eat(b"<![CDATA[")? {
            let start = self.pos;
            self.skip_past(b"]]>", "unterminated CDATA")?;
            text.push_bytes(&self.src[start..self.pos - b"]]>".len()]);
            Ok(())
        } else if self.at(b"<?")? {
            self.skip_past(b"?>", "unterminated PI")
        } else {
            Err(self.err("DTD declarations are not supported").into())
        }
    }

    /// Move past the next `end`, or fail with `msg` where the search began.
    fn skip_past(&mut self, end: &[u8], msg: &str) -> Scan<()> {
        match self.src[self.pos..]
            .windows(end.len())
            .position(|w| w == end)
        {
            Some(at) => {
                self.pos += at + end.len();
                Ok(())
            }
            None => Err(self.short(msg)),
        }
    }

    /// Character data before the next `stop` byte: one entity reference,
    /// or a run of plain characters up to the next `&` or `stop` or the
    /// window's end (all char boundaries).
    fn char_data(&mut self, stop: u8, text: &mut impl CharData) -> Scan<()> {
        if self.peek() == Some(b'&') {
            text.push_char(self.entity()?);
        } else {
            let rest = &self.src[self.pos..];
            let run = find2(rest, stop, b'&').unwrap_or(rest.len());
            text.push_bytes(&rest[..run]);
            self.pos += run;
        }
        Ok(())
    }

    fn element(&mut self) -> Scan<XmlNode> {
        let mut attrs = Vec::new();
        let (name, self_closing) =
            self.open_tag(|k, v: String| attrs.push((utf8(k).to_string(), v)))?;
        let children = if self_closing {
            Vec::new()
        } else {
            let children = self.nodes(true)?;
            self.close_tag(name)?;
            children
        };
        Ok(XmlNode::Element {
            name: utf8(name).to_string(),
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
        mut attr: impl FnMut(&'a [u8], V),
    ) -> Scan<(&'a [u8], bool)> {
        self.pos += 1;
        let name = self.name()?;
        let mut first: [&[u8]; LINEAR_ATTRS] = [&[]; LINEAR_ATTRS];
        let mut count = 0;
        let mut more: Option<HashSet<&'a [u8]>> = None;
        loop {
            self.skip_ws()?;
            match self.peek() {
                Some(b'/') => {
                    self.pos += 1;
                    if !self.eat(b">")? {
                        return Err(self.err("expected '>' after '/'").into());
                    }
                    self.tally.elements += 1;
                    self.tally.attrs += count as u64;
                    return Ok((name, true));
                }
                Some(b'>') => {
                    self.pos += 1;
                    self.tally.elements += 1;
                    self.tally.attrs += count as u64;
                    return Ok((name, false));
                }
                Some(_) => {
                    let at = self.abs();
                    let k = self.name()?;
                    let repeated = if count < LINEAR_ATTRS {
                        first[count] = k;
                        first[..count].contains(&k)
                    } else {
                        let seen = more.get_or_insert_with(|| first.into_iter().collect());
                        !seen.insert(k)
                    };
                    if repeated {
                        let (k, name) = (utf8(k), utf8(name));
                        let msg = format!("attribute '{k}' repeated in tag '{name}'");
                        return Err(XmlError { pos: at, msg }.into());
                    }
                    count += 1;
                    self.skip_ws()?;
                    if !self.eat(b"=")? {
                        let msg = format!("expected '=' after attribute '{}'", utf8(k));
                        return Err(self.err(msg).into());
                    }
                    self.skip_ws()?;
                    let quote = match self.peek() {
                        Some(q @ (b'"' | b'\'')) => q,
                        None if !self.eof => return Err(Halt::More),
                        other => {
                            // Past the character that is not a quote.
                            self.pos += match other {
                                Some(b) if b >= 0x80 => decode(&self.src[self.pos..]).1,
                                Some(_) => 1,
                                None => 0,
                            };
                            return Err(self.err("expected quoted attribute value").into());
                        }
                    };
                    self.pos += 1;
                    let mut v = V::default();
                    loop {
                        match self.peek() {
                            None => return Err(self.short("unterminated attribute value")),
                            Some(c) if c == quote => {
                                self.pos += 1;
                                break;
                            }
                            Some(_) => self.char_data(quote, &mut v)?,
                        }
                    }
                    attr(k, v);
                }
                None => return Err(self.short("unexpected end of input in tag")),
            }
        }
    }

    /// Scan a closing tag `</name >` and match it against the open element.
    fn close_tag(&mut self, name: &[u8]) -> Scan<()> {
        if !self.eat(b"</")? {
            let msg = format!("expected closing tag for '{}'", utf8(name));
            return Err(self.err(msg).into());
        }
        let close = self.name()?;
        if close != name {
            let (close, name) = (utf8(close), utf8(name));
            let msg = format!("mismatched closing tag: '{close}' vs '{name}'");
            return Err(self.err(msg).into());
        }
        self.skip_ws()?;
        if !self.eat(b">")? {
            return Err(self.err("expected '>' in closing tag").into());
        }
        Ok(())
    }

    fn entity(&mut self) -> Scan<char> {
        self.pos += 1;
        let rest = &self.src[self.pos..];
        let Some(end) = find2(rest, b';', b';') else {
            return Err(self.short("unterminated entity reference"));
        };
        let body = utf8(&rest[..end]);
        let bad = || self.err(format!("bad character reference '&{body};'"));
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
                    .ok_or_else(bad)?
            }
            _ if body.starts_with('#') => body[1..]
                .parse::<u32>()
                .ok()
                .and_then(char::from_u32)
                .ok_or_else(bad)?,
            _ => return Err(self.err(format!("unknown entity '&{body};'")).into()),
        };
        self.pos += end + 1;
        self.tally.entities += 1;
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
    fn minted_ids_past_the_label_limit_are_positioned_errors() {
        // The boundary, without interning 2^30 names: the last id a packed
        // label holds passes, the next is an error at the cursor.
        use hedgex_hedge::LABEL_ID_LIMIT;
        assert!(FlatLabel::Sym(SymId(LABEL_ID_LIMIT - 1)).pack().is_ok());
        let mut p = P::whole(b"<a><b/></a>");
        p.pos = 7;
        for label in [
            FlatLabel::Sym(SymId(LABEL_ID_LIMIT)),
            FlatLabel::Var(VarId(LABEL_ID_LIMIT)),
        ] {
            let e = p.label(label.pack().unwrap_err());
            assert_eq!(e.pos, 7);
            assert!(e.msg.contains("past the limit"), "{e}");
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

    /// Names take any alphanumeric char and tags any whitespace char,
    /// ASCII or not; `·` is neither.
    #[test]
    fn non_ascii_names_and_whitespace() {
        let doc = parse_xml("<é\u{3000}名='ļ'\u{85}><ļĦ\u{a0}/></é\u{2003}>").unwrap();
        let attrs = vec![("名".to_string(), "ļ".to_string())];
        let children = vec![el("ļĦ", vec![])];
        let name = "é".to_string();
        assert_eq!(
            doc,
            vec![XmlNode::Element {
                name,
                attrs,
                children
            }]
        );
        let e = parse_xml("<a\u{b7}/>").unwrap_err();
        assert_eq!((e.pos, e.msg.as_str()), (2, "expected a name"));
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

            let mut tree = P::whole(src.as_bytes());
            tree.nodes(false).map_err(Halt::whole).unwrap();
            let cfg = HedgeConfig::default();
            let (events, tally) = drive(
                &mut Whole(src.as_bytes()),
                &mut Alphabet::new(),
                cfg,
                &mut Recorder::default(),
            );
            events.unwrap();
            assert_eq!(tree.tally.text_nodes, text_nodes, "{src:?}");
            assert_eq!(tally.text_nodes, text_nodes, "{src:?}");
        }
    }

    /// The byte tables are `char`'s own predicates on ASCII.
    #[test]
    fn byte_tables_agree_with_char_predicates() {
        for b in 0..128u8 {
            let c = b as char;
            let name = c.is_alphanumeric() || "_-.:@#".contains(c);
            assert_eq!(NAME[b as usize], name, "{b:#x}");
            assert_eq!(ascii_whitespace(b), c.is_whitespace(), "{b:#x}");
        }
    }

    /// `decode` reads back every char `encode_utf8` writes, in each length.
    #[test]
    fn decode_agrees_with_chars() {
        let chars = (0x80..=0x10ffff_u32).step_by(37).filter_map(char::from_u32);
        for c in chars.chain([
            '\u{80}',
            '\u{7ff}',
            '\u{800}',
            '\u{ffff}',
            '\u{10000}',
            '\u{10ffff}',
        ]) {
            let mut buf = [0; 4];
            let s = c.encode_utf8(&mut buf);
            assert_eq!(decode(s.as_bytes()), (c, s.len()), "{c:?}");
        }
        assert!(all_whitespace(
            "\u{a0}\u{85} \u{3000}\x0b\x0c        \t".as_bytes()
        ));
        assert!(!all_whitespace("        \u{3000}·".as_bytes()));
    }

    /// The word-at-a-time finder agrees with `position` on random bytes,
    /// dense in the searched bytes and in bytes ≥ 0x80 whose low seven
    /// bits are `<` or `&`.
    #[test]
    fn find2_agrees_with_position() {
        let mut rng = hedgex_testkit::Rng::seed_from_u64(31);
        let alphabet = [
            b'<', b'&', b'"', b';', b'a', b' ', 0xbc, 0xa6, 0x00, 0xff, 0x80, b'-', b'>',
        ];
        for _ in 0..20_000 {
            let len = rng.random_range(0..80usize);
            let hay: Vec<u8> = (0..len).map(|_| *rng.choose(&alphabet)).collect();
            let (a, b) = (*rng.choose(&alphabet), *rng.choose(&alphabet));
            let want = hay.iter().position(|&c| c == a || c == b);
            assert_eq!(find2(&hay, a, b), want, "{hay:?} {a:#x} {b:#x}");
        }
    }
}
