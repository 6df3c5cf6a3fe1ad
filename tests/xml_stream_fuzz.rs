//! Parser-robustness fuzzing: the event parser and the tree parser are two
//! loops over the same tag/entity/markup scanners, and this suite holds
//! them to *behavioral* equality on hostile input — on well-formed
//! documents the event parser's hedge events, arena and alphabet equal the
//! reference route's (tree parser → `to_hedge` → `from_hedge`) under both
//! attribute mappings, malformed and truncated documents fail with the
//! same message at the same byte position, an early stop delivers a
//! prefix of those events, and nothing panics. The streaming evaluators
//! ride along: every generated input also runs through `stream_xml` →
//! `PhrStream`, which must never panic and must agree with the
//! materialized answer whenever the input parses.
//!
//! The generators emit non-ASCII names, text and whitespace, so the byte
//! scanner's fallbacks for bytes ≥ 0x80 run too. And the reader loop
//! must not depend on how its input is cut: any chunking of the bytes
//! gives the events, alphabet, arena, outcome and error (message and
//! absolute byte) of one chunk.

use hedgex::core::CompiledPhr;
use hedgex::hedge::{Leaf, SymId};
use hedgex::prelude::*;
use hedgex::xml::parser::WINDOW;
use hedgex::xml::{parse_flat_read, stream_read, ReadError, StreamOutcome, XmlError};
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, Config, Gen, Rng, TestResult};

// ---------------------------------------------------------------------------
// An event consumer that records, and may stop early
// ---------------------------------------------------------------------------

/// Records hedge events, asking to stop once `left` reaches zero.
struct Tape {
    events: Vec<String>,
    left: usize,
}

impl Tape {
    fn new(left: usize) -> Tape {
        Tape {
            events: Vec::new(),
            left,
        }
    }

    fn push(&mut self, ev: String) -> bool {
        self.events.push(ev);
        self.left = self.left.saturating_sub(1);
        self.left > 0
    }
}

impl HedgeSink for Tape {
    fn open(&mut self, a: SymId) -> bool {
        self.push(format!("open {}", a.0))
    }

    fn leaf(&mut self, l: Leaf) -> bool {
        self.push(format!("leaf {l:?}"))
    }

    fn close(&mut self) -> bool {
        self.push("close".into())
    }
}

// ---------------------------------------------------------------------------
// Generators: well-formed documents, then adversarial mutations
// ---------------------------------------------------------------------------

// `ļ` (C4 BC) and `Ħ` (C4 A6) have continuation bytes whose low seven bits
// are `<` and `&`.
const NAMES: [&str; 8] = ["a", "b", "item", "x-y", "é", "名", "ļĦ", "aĦ"];
/// What may separate a tag's name from its attributes: ASCII or Unicode
/// whitespace.
const SPACES: [&str; 6] = [" ", "\n", "\u{a0}", "\u{2003}", "\u{85}", "\u{3000}\t"];
const VALUES: [&str; 5] = ["1", "ļĦ", "&amp;é", "\u{3000}", "·"];
const TEXTS: [&str; 22] = [
    "hi",
    " ",
    "a &lt; b",
    "&#65;&amp;",
    "t&#x41;il",
    // Whitespace the event parser must judge without copying the text.
    "&#32;",
    "&#x9;",
    "<![CDATA[ ]]>",
    "<![CDATA[]]>",
    // DocBook's text placeholder, and chars with `<`/`&` in their
    // continuation bytes' low bits.
    "·",
    "ļ",
    "Ħ",
    "naïve 名",
    // Unicode whitespace, alone and inside runs: no `#text` leaf.
    "\u{a0}",
    "\u{85}",
    "\u{2003}",
    "\u{3000}",
    "\n  \u{a0}\u{3000} \u{85}\t",
    "\x0b",
    "\x0c",
    " \x0b\x0c\r\n",
    "\u{3000}<![CDATA[\u{2003}]]>",
];
const SOUP: [&str; 16] = [
    "<",
    ">",
    "</",
    "<a",
    "<a ",
    "<!--",
    "-->",
    "<![CDATA[",
    "]]>",
    "&",
    "&#x",
    "=\"",
    "<a k='1' k='2'/>",
    "ļ",
    "\u{85}",
    "</é>",
];

/// A well-formed document string: elements with occasional attributes,
/// text (with entities), comments, CDATA, PIs, and self-closing tags.
fn gen_doc(rng: &mut Rng, depth: usize, out: &mut String) {
    let name = NAMES[rng.random_range(0..NAMES.len())];
    out.push('<');
    out.push_str(name);
    if rng.random_bool(0.3) {
        out.push_str(&format!(
            "{}{}=\"{}\"",
            SPACES[rng.random_range(0..SPACES.len())],
            NAMES[rng.random_range(0..NAMES.len())],
            VALUES[rng.random_range(0..VALUES.len())]
        ));
    }
    if rng.random_bool(0.2) {
        out.push_str("/>");
        return;
    }
    out.push('>');
    for _ in 0..rng.random_range(0..3usize) {
        match rng.random_range(0..5u32) {
            0 if depth > 0 => gen_doc(rng, depth - 1, out),
            1 => out.push_str(TEXTS[rng.random_range(0..TEXTS.len())]),
            2 => out.push_str("<!-- c -->"),
            3 => out.push_str("<![CDATA[<raw>]]>"),
            _ => out.push_str("<?pi data?>"),
        }
    }
    let space = if rng.random_bool(0.2) {
        SPACES[rng.random_range(0..SPACES.len())]
    } else {
        ""
    };
    out.push_str(&format!("</{name}{space}>"));
}

/// Truncate at a random char boundary (the classic "connection dropped"
/// input).
fn truncate(rng: &mut Rng, s: &str) -> String {
    let cut = rng.random_range(0..=s.len());
    let mut cut = cut;
    while !s.is_char_boundary(cut) {
        cut -= 1;
    }
    s[..cut].to_string()
}

/// Well-formed, truncated, junk-injected, token soup, or a deep chain —
/// every class the parsers must survive.
fn arb_input() -> Gen<String> {
    Gen::new(|rng| {
        let mut doc = String::new();
        gen_doc(rng, 3, &mut doc);
        match rng.random_range(0..6u32) {
            0 | 1 => doc,
            2 => truncate(rng, &doc),
            3 => {
                // Inject a random marker token at a char boundary.
                let at = {
                    let mut at = rng.random_range(0..=doc.len());
                    while !doc.is_char_boundary(at) {
                        at -= 1;
                    }
                    at
                };
                let tok = SOUP[rng.random_range(0..SOUP.len())];
                format!("{}{}{}", &doc[..at], tok, &doc[at..])
            }
            4 => (0..rng.random_range(1..8usize))
                .map(|_| SOUP[rng.random_range(0..SOUP.len())])
                .collect(),
            _ => {
                // A deep chain, sometimes truncated mid-way.
                let depth = rng.random_range(1..150usize);
                let chain = format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth));
                if rng.random_bool(0.3) {
                    truncate(rng, &chain)
                } else {
                    chain
                }
            }
        }
    })
    .with_shrink(|s| {
        // Halving prefixes (snapped to char boundaries) preserve most
        // malformations while shrinking fast.
        let mut out = Vec::new();
        for cut in [s.len() / 2, s.len().saturating_sub(1)] {
            let mut cut = cut;
            while !s.is_char_boundary(cut) {
                cut -= 1;
            }
            if cut < s.len() {
                out.push(s[..cut].to_string());
            }
        }
        out
    })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// `stream_xml`'s events against the reference route's, under both
/// attribute mappings: on success the events of `replay_flat` over
/// `from_hedge(to_hedge(parse_xml(src)))` and the same alphabet; on
/// failure the same error, verbatim. A sink that stops after `k` events
/// gets exactly the first `k` of them, whenever the unstopped parse
/// delivers that many before it finishes or fails.
fn events_match_tree_pipeline(src: &str) -> TestResult {
    for keep_attrs in [false, true] {
        let cfg = HedgeConfig {
            keep_text: true,
            keep_attrs,
        };
        let run = |stop_after: usize| {
            let mut ab = Alphabet::new();
            let mut tape = Tape::new(stop_after);
            let outcome = stream_xml(src, &mut ab, cfg, &mut tape);
            (outcome, tape.events, ab)
        };
        let (outcome, events, ab) = run(usize::MAX);
        let mut ab_ref = Alphabet::new();
        let reference = parse_xml(src).map(|nodes| {
            let flat = FlatHedge::from_hedge(&to_hedge(&nodes, &mut ab_ref, cfg));
            let mut tape = Tape::new(usize::MAX);
            replay_flat(&flat, &mut tape);
            tape.events
        });
        match (&outcome, reference) {
            (Ok(StreamOutcome::Finished), Ok(want)) => {
                prop_assert_eq!(
                    &events,
                    &want,
                    "events differ on {:?} (attrs={})",
                    src,
                    keep_attrs
                );
                prop_assert_eq!(&ab, &ab_ref, "alphabets differ on {:?}", src);
            }
            (Err(se), Err(te)) => {
                prop_assert_eq!(se, &te, "errors differ on {:?} (attrs={})", src, keep_attrs)
            }
            (s, t) => prop_assert!(
                false,
                "parsers disagree on {:?}: stream={:?} tree={:?}",
                src,
                s,
                t.map(|e| e.len())
            ),
        }
        let cuts = [1, events.len() / 2, events.len()];
        for k in cuts.into_iter().filter(|&k| k >= 1 && k <= events.len()) {
            let (stopped, prefix, _) = run(k);
            match stopped {
                Ok(StreamOutcome::Stopped { pos }) => {
                    prop_assert!(pos <= src.len(), "stop past the end on {:?}", src);
                    prop_assert_eq!(&prefix[..], &events[..k], "stop at {} on {:?}", k, src);
                }
                other => prop_assert!(
                    false,
                    "a stop after {} of {} events was not honoured on {:?}: {:?}",
                    k,
                    events.len(),
                    src,
                    other
                ),
            }
        }
    }
    Ok(())
}

/// The event parser agrees with the tree parser on *everything* the hedge
/// keeps: the events on success, the error position and message on
/// failure, and the prefix an early stop delivers.
#[test]
fn event_parser_agrees_with_tree_parser_on_hostile_input() {
    forall(
        "event_vs_tree_parser",
        Config::with_cases(300),
        &arb_input(),
        |src| events_match_tree_pipeline(src),
    );
}

/// The full streaming evaluator survives the same hostility: no panic on
/// any input, and on well-formed input the streamed match set equals the
/// materialized one (errors abort cleanly with the parser's position).
#[test]
fn streaming_evaluator_never_panics_and_agrees_when_input_parses() {
    forall(
        "stream_eval_robustness",
        Config::with_cases(300),
        &arb_input(),
        |src| {
            let cfg = HedgeConfig {
                keep_text: true,
                keep_attrs: true,
            };
            let mut ab = Alphabet::new();
            let phr = parse_phr("([ε ; a ; ε]|[ε ; b ; ε])*", &mut ab).unwrap();
            let compiled = CompiledPhr::compile(&phr);
            let mut sink = PhrStream::new(&compiled);
            let outcome = stream_xml(src, &mut ab, cfg, &mut sink);
            let streamed = sink.finish().to_vec();

            let mut ab2 = Alphabet::new();
            let phr2 = parse_phr("([ε ; a ; ε]|[ε ; b ; ε])*", &mut ab2).unwrap();
            match (parse_xml(src), outcome) {
                (Ok(nodes), Ok(StreamOutcome::Finished)) => {
                    let flat = FlatHedge::from_hedge(&to_hedge(&nodes, &mut ab2, cfg));
                    let expected = two_pass::locate(&CompiledPhr::compile(&phr2), &flat);
                    prop_assert_eq!(&streamed, &expected, "match sets differ on {:?}", src);
                }
                (Err(te), Err(se)) => prop_assert_eq!(&te, &se, "errors differ on {:?}", src),
                (t, s) => prop_assert!(
                    false,
                    "pipelines disagree on {:?}: tree={:?} stream={:?}",
                    src,
                    t,
                    s
                ),
            }
            Ok(())
        },
    );
}

/// Hand-picked regressions: the truncations and malformations most likely
/// to hit a scanner edge, pinned so a fuzz-shrunk failure stays fixed.
const PINNED: [&str; 24] = [
    "",
    "<",
    "<a",
    "<a ",
    "<a k",
    "<a k=",
    "<a k=\"v",
    "<a><b>",
    "<a></b>",
    "<a/></a>",
    "<a>&",
    "<a>&#xZZ;</a>",
    "<a>&nope;</a>",
    "<a><!-- never closed</a>",
    "<a><![CDATA[open</a>",
    "]]>",
    "top level text",
    "<a/>trailing",
    "<?xml version=\"1.0\"?><a/>",
    "<a>x</a><a>y</a>",
    "<a>naïve — 文字 &amp; ünïcode</a>",
    "<a k=\"1\" j='2'><b x=\"&amp;\" y=\"z\"/>t</a>",
    // XML 1.0's Unique Att Spec: a repeated attribute name is an error.
    "<a k='1' k='2'/>",
    "<a k=\"1\" j='2'><b x=\"&amp;\" y=\"z\" x=''/>t</a>",
];

#[test]
fn pinned_hostile_inputs_fail_identically() {
    for src in PINNED {
        events_match_tree_pipeline(src).unwrap();
    }
}

/// The production ingestion route (event parser → `FlatBuilder`) against
/// the reference route (tree parser → `to_hedge` → `from_hedge`), under
/// both attribute mappings: the same arena and alphabet on success, the
/// same error on failure.
fn parse_flat_matches_tree_pipeline(src: &str) -> TestResult {
    for keep_attrs in [false, true] {
        let cfg = HedgeConfig {
            keep_text: true,
            keep_attrs,
        };
        let mut ab = Alphabet::new();
        let flat = parse_flat(src, &mut ab, cfg);
        let mut ab_ref = Alphabet::new();
        let reference =
            parse_xml(src).map(|nodes| FlatHedge::from_hedge(&to_hedge(&nodes, &mut ab_ref, cfg)));
        match (flat, reference) {
            (Ok(f), Ok(r)) => {
                prop_assert_eq!(&f, &r, "arenas differ on {:?} (attrs={})", src, keep_attrs);
                prop_assert_eq!(&ab, &ab_ref, "alphabets differ on {:?}", src);
            }
            (Err(fe), Err(re)) => {
                prop_assert_eq!(
                    &fe,
                    &re,
                    "errors differ on {:?} (attrs={})",
                    src,
                    keep_attrs
                )
            }
            (f, r) => prop_assert!(
                false,
                "routes disagree on {:?}: parse_flat={:?} tree pipeline={:?}",
                src,
                f.map(|h| h.num_nodes()),
                r.map(|h| h.num_nodes())
            ),
        }
    }
    Ok(())
}

#[test]
fn parse_flat_equals_the_tree_pipeline_on_hostile_input() {
    forall(
        "parse_flat_vs_tree_pipeline",
        Config::with_cases(300),
        &arb_input(),
        |src| parse_flat_matches_tree_pipeline(src),
    );
    for src in PINNED {
        parse_flat_matches_tree_pipeline(src).unwrap();
    }
}

// ---------------------------------------------------------------------------
// Chunked reads: the reader loop must not depend on where its input is cut
// ---------------------------------------------------------------------------

/// A reader that hands out `src` in chunks of the given sizes (cycled; a
/// read never returns more than it is asked for).
struct Chunked<'a> {
    src: &'a [u8],
    sizes: Vec<usize>,
    next: usize,
}

impl<'a> Chunked<'a> {
    fn new(src: &'a [u8], sizes: Vec<usize>) -> Self {
        Chunked {
            src,
            sizes,
            next: 0,
        }
    }
}

impl std::io::Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let size = self.sizes[self.next % self.sizes.len()].max(1);
        self.next += 1;
        let n = size.min(buf.len()).min(self.src.len());
        buf[..n].copy_from_slice(&self.src[..n]);
        self.src = &self.src[n..];
        Ok(n)
    }
}

/// What one parse of a document shows: its events, outcome or error,
/// alphabet, and the arena `parse_flat_read` builds.
type Seen = (
    Vec<String>,
    Result<StreamOutcome, XmlError>,
    Alphabet,
    Result<FlatHedge, XmlError>,
);

fn xml_error(e: ReadError) -> XmlError {
    match e {
        ReadError::Xml(e) => e,
        ReadError::Io(e) => panic!("an in-memory reader does not fail: {e}"),
    }
}

/// Parse `src` through a reader cut into `sizes` chunks, with a sink that
/// stops after `stop_after` events, under `cfg`.
fn seen(src: &[u8], sizes: &[usize], stop_after: usize, cfg: HedgeConfig) -> Seen {
    let mut ab = Alphabet::new();
    let mut tape = Tape::new(stop_after);
    let outcome = stream_read(Chunked::new(src, sizes.to_vec()), &mut ab, cfg, &mut tape);
    let mut ab_flat = Alphabet::new();
    let flat = parse_flat_read(Chunked::new(src, sizes.to_vec()), &mut ab_flat, cfg);
    (
        tape.events,
        outcome.map_err(xml_error),
        ab,
        flat.map_err(xml_error),
    )
}

/// Every chunking in `chunkings` sees what one chunk sees, and over valid
/// UTF-8 that is what `stream_xml` and `parse_flat` see on the `&str`:
/// under both attribute mappings, unstopped and stopped after one event
/// and after half of them.
fn chunkings_agree(src: &[u8], chunkings: &[Vec<usize>]) -> TestResult {
    for keep_attrs in [false, true] {
        let cfg = HedgeConfig {
            keep_text: true,
            keep_attrs,
        };
        let whole = seen(src, &[usize::MAX], usize::MAX, cfg);
        if let Ok(text) = std::str::from_utf8(src) {
            let mut ab = Alphabet::new();
            let mut tape = Tape::new(usize::MAX);
            let outcome = stream_xml(text, &mut ab, cfg, &mut tape);
            let mut ab_flat = Alphabet::new();
            let flat = parse_flat(text, &mut ab_flat, cfg);
            prop_assert_eq!(
                &whole,
                &(tape.events, outcome, ab, flat),
                "one chunk vs &str on {:?}",
                text
            );
        }
        let stops = [usize::MAX, 1, whole.0.len() / 2 + 1];
        for stop_after in stops {
            let want = seen(src, &[usize::MAX], stop_after, cfg);
            for sizes in chunkings {
                let got = seen(src, sizes, stop_after, cfg);
                prop_assert_eq!(
                    &got,
                    &want,
                    "chunks {:?} (stop after {}, attrs={}) on {:?}",
                    sizes,
                    stop_after,
                    keep_attrs,
                    String::from_utf8_lossy(src)
                );
            }
        }
    }
    Ok(())
}

/// Hostile documents, some with a byte that is not UTF-8 spliced in, read
/// one byte at a time and in random chunk sizes.
#[test]
fn any_chunking_reads_like_one_chunk() {
    let docs = arb_input();
    let gen = Gen::new(move |rng| {
        let mut bytes = docs.generate(rng).into_bytes();
        if rng.random_bool(0.2) {
            let at = rng.random_range(0..=bytes.len());
            let bad: &[u8] = [&[0xff][..], &[0xc4], &[0xe5, 0x90], &[0xed, 0xa0, 0x80]]
                [rng.random_range(0..4usize)];
            bytes.splice(at..at, bad.iter().copied());
        }
        let sizes: Vec<usize> = (0..rng.random_range(1..6usize))
            .map(|_| rng.random_range(1..40usize))
            .collect();
        (bytes, sizes)
    });
    forall(
        "chunked_reads",
        Config::with_cases(200),
        &gen,
        |(src, sizes)| chunkings_agree(src, &[vec![1], sizes.clone()]),
    );
}

/// Every split offset of small documents, so a cut falls inside every
/// token: a name, an entity, `<![CDATA[`, `-->`, an attribute value and a
/// multi-byte char (`ļ`, whose second byte has `<` in its low bits).
#[test]
fn every_split_offset_reads_like_one_chunk() {
    for src in [
        "<?xml version='1.0'?><doc><é k=\"a&amp;ļ\" 名='Ħ'>x &#x41;&lt;<![CDATA[<]]>\u{3000}</é><!-- c --></doc>",
        "<a>\n  \u{85}·\n  <b/><!---->&#32;</a >",
        "<a><![CDATA[x]]]]><!-- -- --></a><?pi ?>",
        "<a><b></a>",
        "<a>&unknown;</a>",
        "<a k='1' k='2'/>",
        "<ļ>text",
    ] {
        let src = src.as_bytes();
        let splits: Vec<Vec<usize>> = (1..src.len()).map(|k| vec![k, usize::MAX]).collect();
        chunkings_agree(src, &splits).unwrap();
    }
}

/// A start tag far larger than the window — 100k attributes, the tag from
/// the parser's repeated-attribute test — grows the window, and reads the
/// same from chunks of mixed sizes; a repeated last name is still an
/// error at its absolute byte.
#[test]
fn a_tag_larger_than_the_window_reads_like_one_chunk() {
    let wide = |repeat: bool| {
        let mut src = String::from("<a");
        for i in 0..100_000 {
            src.push_str(&format!(" k{i}='v'"));
        }
        if repeat {
            src.push_str(" k99999='w'");
        }
        src + "/>"
    };
    // Attributes dropped, so the check is the reading, not 200k events.
    let read = |src: &[u8], sizes: Vec<usize>| {
        let (mut ab, mut tape) = (Alphabet::new(), Tape::new(usize::MAX));
        let cfg = HedgeConfig::default();
        let outcome = stream_read(Chunked::new(src, sizes), &mut ab, cfg, &mut tape);
        (tape.events, outcome.map_err(xml_error), ab)
    };
    for repeat in [false, true] {
        let src = wide(repeat);
        assert!(src.len() > 8 * WINDOW, "{} bytes", src.len());
        let want = read(src.as_bytes(), vec![usize::MAX]);
        assert!(read(src.as_bytes(), vec![997, 65536, 7]) == want);
        match (&want.1, repeat) {
            (Ok(StreamOutcome::Finished), false) => assert_eq!(want.0, ["open 0", "close"]),
            (Err(e), true) => assert_eq!(e.pos, src.len() - 12),
            (other, _) => panic!("unexpected {other:?}"),
        }
    }
}
