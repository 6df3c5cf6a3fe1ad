//! Drivers that feed [`HedgeSink`]s.
//!
//! [`stream_xml`] is the real streaming entry point: XML text → parser
//! events → the `to_hedge` mapping applied *per event* (same
//! [`HedgeConfig`] semantics, same interning order, so ids and leaves come
//! out identical to the materialized pipeline) → the evaluator. Nothing is
//! materialized; an evaluator's early stop aborts the parse.
//!
//! [`parse_flat`] is the materialized entry point over the same events: a
//! [`FlatBuilder`] as the sink builds the evaluators' arena in one pass,
//! with no XML tree or recursive hedge in between.
//!
//! [`replay_flat`] feeds an already-materialized [`FlatHedge`] through the
//! same trait — the bridge the differential suite uses to compare streamed
//! and materialized evaluation on byte-identical inputs, and a way to run
//! a streaming sink on documents that never were XML.

use hedgex_ha::Leaf;
use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{Alphabet, FlatBuilder, FlatHedge, NodeId, SymId, VarId};
use hedgex_xml::{parse_xml_stream, Flow, HedgeConfig, StreamOutcome, StreamSink, XmlError};

use crate::HedgeSink;

/// Adapts XML parser events to hedge events, applying the
/// `hedgex_xml::to_hedge` mapping one event at a time: element names are
/// interned to Σ, attributes (when kept) become `attr:name⟨#text⟩` prefix
/// children, non-whitespace text (when kept) becomes a `#text` variable
/// leaf. Interning order matches `to_hedge` exactly, so the resulting
/// event stream is the preorder of the hedge the materialized pipeline
/// would build.
pub struct XmlDriver<'a, E: HedgeSink + ?Sized> {
    ab: &'a mut Alphabet,
    cfg: HedgeConfig,
    eval: &'a mut E,
    /// Interned lazily on first use, like `to_hedge`.
    text_var: Option<VarId>,
}

impl<'a, E: HedgeSink + ?Sized> XmlDriver<'a, E> {
    /// A driver pushing into `eval` with the given document mapping.
    pub fn new(ab: &'a mut Alphabet, cfg: HedgeConfig, eval: &'a mut E) -> XmlDriver<'a, E> {
        XmlDriver {
            ab,
            cfg,
            eval,
            text_var: None,
        }
    }

    fn text_var(&mut self) -> VarId {
        *self
            .text_var
            .get_or_insert_with(|| self.ab.var(hedgex_xml::TEXT_VAR))
    }
}

impl<E: HedgeSink + ?Sized> StreamSink for XmlDriver<'_, E> {
    fn open_element(&mut self, name: &str, attrs: &[(String, String)]) -> Flow {
        let sym = self.ab.sym(name);
        if !self.eval.open(sym) {
            return Flow::Stop;
        }
        if self.cfg.keep_attrs {
            for (k, _) in attrs {
                let asym = self.ab.sym(&format!("attr:{k}"));
                let var = self.text_var();
                if !self.eval.open(asym) || !self.eval.leaf(Leaf::Var(var)) || !self.eval.close() {
                    return Flow::Stop;
                }
            }
        }
        Flow::Continue
    }

    fn text(&mut self, text: &str) -> Flow {
        if self.cfg.keep_text && !text.trim().is_empty() {
            let var = self.text_var();
            if !self.eval.leaf(Leaf::Var(var)) {
                return Flow::Stop;
            }
        }
        Flow::Continue
    }

    fn close_element(&mut self) -> Flow {
        if self.eval.close() {
            Flow::Continue
        } else {
            Flow::Stop
        }
    }
}

/// Parse `src`, pushing the mapped hedge events into `eval` as they are
/// scanned. Returns the parser outcome: `Finished` for a fully consumed
/// well-formed document, `Stopped` when `eval` requested an early exit,
/// `Err` with a byte-accurate position on malformed input — the same
/// errors [`hedgex_xml::parse_xml`] reports.
pub fn stream_xml<E: HedgeSink + ?Sized>(
    src: &str,
    ab: &mut Alphabet,
    cfg: HedgeConfig,
    eval: &mut E,
) -> Result<StreamOutcome, XmlError> {
    let _span = hedgex_obs::span("stream.xml");
    let mut driver = XmlDriver::new(ab, cfg, eval);
    parse_xml_stream(src, &mut driver)
}

/// Builds the arena directly from hedge events; never stops early.
impl HedgeSink for FlatBuilder {
    fn open(&mut self, a: SymId) -> bool {
        FlatBuilder::open(self, a);
        true
    }

    fn leaf(&mut self, l: Leaf) -> bool {
        FlatBuilder::leaf(
            self,
            match l {
                Leaf::Var(x) => FlatLabel::Var(x),
                Leaf::Sub(z) => FlatLabel::Subst(z),
            },
        );
        true
    }

    fn close(&mut self) -> bool {
        FlatBuilder::close(self);
        true
    }
}

/// Parse `src` straight into a [`FlatHedge`]: the event parser drives a
/// [`FlatBuilder`], so ingestion is one iterative pass whatever the
/// document depth. Node ids, leaves and interning order equal
/// `FlatHedge::from_hedge(&to_hedge(&parse_xml(src)?, ab, cfg))`, and
/// malformed input fails with the same [`XmlError`].
pub fn parse_flat(src: &str, ab: &mut Alphabet, cfg: HedgeConfig) -> Result<FlatHedge, XmlError> {
    let mut builder = FlatBuilder::new();
    match stream_xml(src, ab, cfg, &mut builder)? {
        StreamOutcome::Finished => Ok(builder.finish()),
        StreamOutcome::Stopped { .. } => unreachable!("a FlatBuilder never stops the parse"),
    }
}

/// Replay a materialized hedge as a stream of events, preorder. Returns
/// `false` if `eval` stopped early (remaining events are not delivered).
pub fn replay_flat<E: HedgeSink + ?Sized>(h: &FlatHedge, eval: &mut E) -> bool {
    let mut open: Vec<NodeId> = Vec::new();
    for id in h.preorder() {
        // Close elements until the top of the open stack is our parent.
        while open.last().copied() != h.parent(id) {
            if !eval.close() {
                return false;
            }
            open.pop();
        }
        match h.label(id) {
            FlatLabel::Sym(a) => {
                if !eval.open(a) {
                    return false;
                }
                open.push(id);
            }
            FlatLabel::Var(x) => {
                if !eval.leaf(Leaf::Var(x)) {
                    return false;
                }
            }
            FlatLabel::Subst(z) => {
                if !eval.leaf(Leaf::Sub(z)) {
                    return false;
                }
            }
        }
    }
    while open.pop().is_some() {
        if !eval.close() {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_core::phr::parse_phr;
    use hedgex_core::CompiledPhr;
    use hedgex_xml::{parse_xml, to_hedge};

    use crate::PhrStream;

    /// Records events to compare drivers.
    struct Tape(Vec<String>);

    impl HedgeSink for Tape {
        fn open(&mut self, a: hedgex_hedge::SymId) -> bool {
            self.0.push(format!("open {}", a.0));
            true
        }
        fn leaf(&mut self, l: Leaf) -> bool {
            self.0.push(format!("leaf {l:?}"));
            true
        }
        fn close(&mut self) -> bool {
            self.0.push("close".into());
            true
        }
    }

    /// The load-bearing invariant: for any document and either attribute
    /// mapping, `stream_xml` emits exactly the event sequence that
    /// replaying the materialized hedge does — same symbols, same order,
    /// same interned ids.
    #[test]
    fn xml_events_equal_materialized_replay() {
        let src = r#"<doc date="x"><sec>intro<fig width="10"/></sec><sec/> tail </doc>"#;
        for keep_attrs in [false, true] {
            let cfg = HedgeConfig {
                keep_text: true,
                keep_attrs,
            };
            let mut ab1 = Alphabet::new();
            let mut streamed = Tape(Vec::new());
            stream_xml(src, &mut ab1, cfg, &mut streamed).unwrap();

            let mut ab2 = Alphabet::new();
            let nodes = parse_xml(src).unwrap();
            let h = to_hedge(&nodes, &mut ab2, cfg);
            let flat = FlatHedge::from_hedge(&h);
            let mut replayed = Tape(Vec::new());
            assert!(replay_flat(&flat, &mut replayed));

            assert_eq!(streamed.0, replayed.0, "keep_attrs={keep_attrs}");
        }
    }

    #[test]
    fn end_to_end_xml_phr() {
        let src = "<doc><sec><fig/></sec><fig/></doc>";
        // A depth-1 query (one triplet consumes the whole path), and a
        // sibling-sensitive one locating the root-level doc.
        for (query, expected) in [("[ε ; fig ; ε]", 0), ("[ε ; doc ; ε]", 1)] {
            let mut ab = Alphabet::new();
            let phr = parse_phr(query, &mut ab).unwrap();
            let compiled = CompiledPhr::compile(&phr);
            let mut sink = PhrStream::new(&compiled);
            let out = stream_xml(src, &mut ab, HedgeConfig::default(), &mut sink).unwrap();
            assert_eq!(out, StreamOutcome::Finished);
            let streamed = sink.finish().to_vec();

            let nodes = parse_xml(src).unwrap();
            let h = to_hedge(&nodes, &mut ab, HedgeConfig::default());
            let flat = FlatHedge::from_hedge(&h);
            assert_eq!(
                streamed,
                hedgex_core::two_pass::locate(&compiled, &flat),
                "{query}"
            );
            assert_eq!(streamed.len(), expected, "{query}");
        }
    }
}
