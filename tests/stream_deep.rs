//! Depth-bound regressions for streaming evaluation.
//!
//! The streaming claim is quantitative: transient working state grows with
//! document *depth*, never with document size, and an `exists` query stops
//! reading input at its first match. These tests pin both on the worst
//! case for depth — a 100k-deep element chain that the recursive tree
//! parser could never survive (the event parser is iterative, so only the
//! evaluator's own bookkeeping is on trial).

use hedgex::core::CompiledPhr;
use hedgex::prelude::*;
use hedgex::stream::StreamStats;
use hedgex::xml::StreamOutcome;

const DEPTH: usize = 100_000;

/// `<a><a>…</a></a>`, `depth` levels.
fn chain(depth: usize) -> String {
    format!("{}{}", "<a>".repeat(depth), "</a>".repeat(depth))
}

/// Stream the depth-`depth` chain through a PHR evaluator and return
/// (matches, stats).
fn stream_chain(depth: usize) -> (Vec<u32>, StreamStats) {
    let src = chain(depth);
    let mut ab = Alphabet::new();
    // Every node on the chain is an only-child `a`, so the starred
    // triplet locates all of them (mirrors tests/deep_docs.rs).
    let phr = parse_phr("[ε ; a ; ε]*", &mut ab).unwrap();
    let compiled = CompiledPhr::compile(&phr);
    let mut sink = PhrStream::new(&compiled);
    let outcome = stream_xml(&src, &mut ab, HedgeConfig::default(), &mut sink).unwrap();
    assert_eq!(outcome, StreamOutcome::Finished);
    let hits = sink.finish().to_vec();
    (hits, sink.stats())
}

#[test]
fn hundred_thousand_deep_chain_streams() {
    let (hits, stats) = stream_chain(DEPTH);
    assert_eq!(hits.len(), DEPTH);
    assert!(hits.iter().enumerate().all(|(i, &n)| n == i as u32));
    assert_eq!(stats.events, 2 * DEPTH as u64);
    assert_eq!(stats.depth_high_water, DEPTH);
    // Transient state is proportional to depth: each level holds one open
    // frame plus at most one buffered (already-closed) child.
    assert!(
        stats.live_high_water <= 2 * DEPTH,
        "live high-water {} should be O(depth)",
        stats.live_high_water
    );
}

#[test]
fn transient_state_scales_with_depth() {
    let (_, full) = stream_chain(DEPTH);
    let (_, half) = stream_chain(DEPTH / 2);
    assert!(half.live_high_water > 0);
    let ratio = full.live_high_water as f64 / half.live_high_water as f64;
    assert!(
        (1.5..=2.5).contains(&ratio),
        "halving the depth should roughly halve the transient high-water: \
         {} vs {} (ratio {ratio:.2})",
        full.live_high_water,
        half.live_high_water
    );
}

/// At a depth the recursive tree parser still tolerates, the streamed
/// answer on the chain is the materialized answer.
#[test]
fn chain_parity_with_materialized_at_safe_depth() {
    let depth = 500;
    let src = chain(depth);
    let mut ab = Alphabet::new();
    let phr = parse_phr("[ε ; a ; ε]*", &mut ab).unwrap();
    let compiled = CompiledPhr::compile(&phr);
    let mut sink = PhrStream::new(&compiled);
    stream_xml(&src, &mut ab, HedgeConfig::default(), &mut sink).unwrap();
    let streamed = sink.finish().to_vec();

    let nodes = parse_xml(&src).unwrap();
    let flat = FlatHedge::from_hedge(&to_hedge(&nodes, &mut ab, HedgeConfig::default()));
    assert_eq!(streamed, two_pass::locate(&compiled, &flat));
}

/// `exists` aborts the parse: on a 100k-deep chain whose *first* element
/// already matches, the evaluator consumes one event, not 200k, and the
/// parser reports how far it actually read.
#[test]
fn exists_aborts_the_parse_after_the_first_match() {
    let before = (
        hedgex::obs::counter_value("stream.early_exits"),
        hedgex::obs::counter_value("stream.events"),
    );

    let src = chain(DEPTH);
    let mut ab = Alphabet::new();
    let path = parse_path("a", &mut ab).unwrap();
    let mut sink = PathStream::new(&path, &ab).exists(true);
    let outcome = stream_xml(&src, &mut ab, HedgeConfig::default(), &mut sink).unwrap();
    match outcome {
        StreamOutcome::Stopped { pos } => {
            assert!(pos <= "<a>".len(), "stopped {pos} bytes in")
        }
        StreamOutcome::Finished => panic!("exists must stop the parse"),
    }
    assert_eq!(sink.finish(), &[0], "the witness is the first node");
    assert!(sink.found());
    let stats = sink.stats();
    assert!(stats.early_exit);
    assert_eq!(
        stats.events,
        1,
        "one open event suffices; the other {} never happen",
        2 * DEPTH - 1
    );

    // The sinks flush their counters on finish; with instrumentation
    // compiled in, the registry must show the early exit and an event
    // count far below the document's 200k events.
    if hedgex::obs::is_enabled() {
        let exits = hedgex::obs::counter_value("stream.early_exits");
        assert!(exits > before.0, "early exit must be counted");
        let events = hedgex::obs::counter_value("stream.events");
        assert!(events > before.1);
    }
}

/// A streamed locate stores each address as its difference from the
/// previous one: on a 10k-deep chain where every node matches, the
/// addresses spell 50M steps, yet occupy at most 2 × (nodes + matches)
/// words, and they decode to the right answer.
#[test]
fn streamed_addresses_stay_linear_on_a_deep_chain() {
    let depth = 10_000;
    let src = chain(depth);
    let mut ab = Alphabet::new();
    let path = parse_path("a*a", &mut ab).unwrap();
    let mut sink = PathStream::new(&path, &ab).record_addresses(true);
    let outcome = stream_xml(&src, &mut ab, HedgeConfig::default(), &mut sink).unwrap();
    assert_eq!(outcome, StreamOutcome::Finished);
    assert_eq!(sink.finish().len(), depth);
    let words = sink.address_words();
    assert!(
        words <= 2 * (depth + depth),
        "{words} address words for {depth} nodes and matches"
    );
    // The k-th match is the chain's k-th node, at /1/1/…/1 (k steps).
    let mut k = 0;
    let decoded = sink.try_for_each_address(|addr| {
        k += 1;
        match addr.len() == k && addr.iter().all(|&d| d == 1) {
            true => Ok(()),
            false => Err(k),
        }
    });
    assert_eq!(decoded, Ok(()));
    assert_eq!(k, depth);
}
