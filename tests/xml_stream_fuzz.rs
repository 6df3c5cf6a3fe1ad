//! Parser-robustness fuzzing: the event parser and the tree parser are two
//! drivers over the same tag/entity scanners, and this suite holds them to
//! *behavioral* equality on hostile input — well-formed documents rebuild
//! to the identical tree, malformed and truncated documents fail with the
//! same message at the same byte position, and nothing panics. The
//! streaming evaluators ride along: every generated input also runs
//! through `XmlDriver` → `PhrStream`, which must never panic and must
//! agree with the materialized answer whenever the input parses.

use hedgex::core::CompiledPhr;
use hedgex::prelude::*;
use hedgex::xml::{parse_xml_stream, Flow, StreamOutcome, StreamSink, XmlNode};
use hedgex_testkit::{forall, prop_assert, prop_assert_eq, Config, Gen, Rng, TestResult};

// ---------------------------------------------------------------------------
// An event consumer that rebuilds the tree, iteratively
// ---------------------------------------------------------------------------

/// One open element: (name, attributes, children accumulated so far).
type OpenFrame = (String, Vec<(String, String)>, Vec<XmlNode>);

/// Rebuilds `Vec<XmlNode>` from events with an explicit stack — no
/// recursion, so arbitrarily deep input cannot overflow here.
#[derive(Default)]
struct TreeSink {
    stack: Vec<OpenFrame>,
    roots: Vec<XmlNode>,
}

impl StreamSink for TreeSink {
    fn open_element(&mut self, name: &str, attrs: &[(String, String)]) -> Flow {
        self.stack
            .push((name.to_string(), attrs.to_vec(), Vec::new()));
        Flow::Continue
    }

    fn text(&mut self, text: &str) -> Flow {
        let (_, _, children) = self.stack.last_mut().expect("text only inside elements");
        children.push(XmlNode::Text(text.to_string()));
        Flow::Continue
    }

    fn close_element(&mut self) -> Flow {
        let (name, attrs, children) = self.stack.pop().expect("balanced events");
        let el = XmlNode::Element {
            name,
            attrs,
            children,
        };
        match self.stack.last_mut() {
            Some((_, _, siblings)) => siblings.push(el),
            None => self.roots.push(el),
        }
        Flow::Continue
    }
}

// ---------------------------------------------------------------------------
// Generators: well-formed documents, then adversarial mutations
// ---------------------------------------------------------------------------

const NAMES: [&str; 4] = ["a", "b", "item", "x-y"];
const TEXTS: [&str; 5] = ["hi", " ", "a &lt; b", "&#65;&amp;", "t&#x41;il"];
const SOUP: [&str; 12] = [
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
];

/// A well-formed document string: elements with occasional attributes,
/// text (with entities), comments, CDATA, PIs, and self-closing tags.
fn gen_doc(rng: &mut Rng, depth: usize, out: &mut String) {
    let name = NAMES[rng.random_range(0..NAMES.len())];
    out.push('<');
    out.push_str(name);
    if rng.random_bool(0.3) {
        out.push_str(&format!(
            " {}=\"{}\"",
            NAMES[rng.random_range(0..NAMES.len())],
            rng.random_range(0..100u32)
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
    out.push_str(&format!("</{name}>"));
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

/// Tree parser and event parser agree on *everything*: the rebuilt tree on
/// success, the error position and message on failure.
#[test]
fn event_parser_agrees_with_tree_parser_on_hostile_input() {
    forall(
        "event_vs_tree_parser",
        Config::with_cases(300),
        &arb_input(),
        |src| {
            let tree = parse_xml(src);
            let mut sink = TreeSink::default();
            let streamed = parse_xml_stream(src, &mut sink);
            match (tree, streamed) {
                (Ok(roots), Ok(StreamOutcome::Finished)) => {
                    prop_assert_eq!(&roots, &sink.roots, "trees differ on {:?}", src)
                }
                (Err(te), Err(se)) => {
                    prop_assert_eq!(&te, &se, "errors differ on {:?}", src)
                }
                (t, s) => prop_assert!(
                    false,
                    "parsers disagree on {:?}: tree={:?} stream={:?}",
                    src,
                    t,
                    s
                ),
            }
            Ok(())
        },
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
const PINNED: [&str; 22] = [
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
];

#[test]
fn pinned_hostile_inputs_fail_identically() {
    for src in PINNED {
        let tree = parse_xml(src);
        let mut sink = TreeSink::default();
        let streamed = parse_xml_stream(src, &mut sink);
        match (&tree, &streamed) {
            (Ok(roots), Ok(StreamOutcome::Finished)) => {
                assert_eq!(roots, &sink.roots, "trees differ on {src:?}")
            }
            (Err(te), Err(se)) => assert_eq!(te, se, "errors differ on {src:?}"),
            _ => panic!("parsers disagree on {src:?}: tree={tree:?} stream={streamed:?}"),
        }
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
