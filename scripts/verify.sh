#!/usr/bin/env bash
# Tier-1 verification gate: hermetic build + tests + formatting.
#
# The workspace has zero external dependencies, so everything must pass
# with --offline and an empty registry cache. Run from the repo root:
#
#   scripts/verify.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== cargo build --release --offline =="
cargo build --release --offline

echo "== cargo test -q --offline =="
cargo test -q --offline

echo "== cargo build --offline --no-default-features =="
# The obs instrumentation must compile out cleanly across the workspace.
cargo build --offline --no-default-features

echo "== cargo test -q --offline --no-default-features (pinned two-pass) =="
# Same match sets with instrumentation compiled out: observe, never perturb.
cargo test -q --offline --no-default-features -p hedgex --test two_pass_pinned

echo "== cargo test -q --offline --no-default-features (pinned construction sizes) =="
# The paper's constructions reach the same state spaces, component sharing
# included, whether or not the obs counters are compiled in.
cargo test -q --offline --no-default-features -p hedgex --test construction_sizes

echo "== cargo test -q --offline --no-default-features (parallel) =="
# The pool must stay deterministic with the obs counters compiled out.
cargo test -q --offline --no-default-features -p hedgex --test parallel

echo "== cargo test -q --offline --no-default-features -p hedgex-par (pool unit tests) =="
# The pool's contract (task order, one init per worker, panic propagation)
# holds with the obs spans and counters compiled out.
cargo test -q --offline --no-default-features -p hedgex-par

echo "== cargo test -q --offline --no-default-features (analysis properties) =="
# Analysis verdicts and pruning equivalence must not depend on instrumentation.
cargo test -q --offline --no-default-features -p hedgex --test analysis_props

echo "== cargo test -q --offline --no-default-features (streaming differential) =="
# Streamed == materialized must hold with the obs counters compiled out.
cargo test -q --offline --no-default-features -p hedgex --test stream_props
# The depth bounds of the streaming sinks hold with obs compiled out too.
cargo test -q --offline --no-default-features -p hedgex --test stream_deep

echo "== cargo test -q --offline --no-default-features (parser fuzz) =="
# Event parser vs tree parser parity is independent of instrumentation.
cargo test -q --offline --no-default-features -p hedgex --test xml_stream_fuzz

echo "== cargo test -q --offline --no-default-features (mode consistency) =="
# count == |locate| and exists == (locate ≠ ∅) across every engine must
# hold with the obs counters compiled out.
cargo test -q --offline --no-default-features -p hedgex --test mode_props

echo "== cargo test -q --offline --no-default-features (store properties) =="
# Round trips and pruning soundness must hold with obs compiled out.
cargo test -q --offline --no-default-features -p hedgex --test store_props

echo "== cargo test -q --offline --no-default-features (path backend) =="
# Path plans == PathExpr::locate == the §5 embedding, in every mode and
# through the pool and the store, with obs compiled out.
cargo test -q --offline --no-default-features -p hedgex --test path_plan_props

echo "== cargo test -q --offline --no-default-features (store fuzz) =="
# The loader's typed, positioned errors are independent of instrumentation.
cargo test -q --offline --no-default-features -p hedgex --test store_fuzz

echo "== cargo test -q --offline --no-default-features (query fuzz) =="
# Typed errors or reference answers for seeded query text, obs compiled out.
cargo test -q --offline --no-default-features -p hedgex --test query_fuzz

echo "== cargo test -q --offline --no-default-features (pinned report, closed stdout) =="
# The report's answer and the quiet stop on a closed stdout do not depend on
# instrumentation.
cargo test -q --offline --no-default-features -p hedgex --test explain
cargo test -q --offline --no-default-features -p hedgex --test hxq_cli \
  closed_stdout_stops_quietly_on_every_route

echo "== cargo clippy --offline --all-targets -- -D warnings =="
cargo clippy -q --offline --all-targets -- -D warnings

echo "== rustdoc: RUSTDOCFLAGS=\"-D warnings\" cargo doc --offline --no-deps --workspace =="
# Every intra-doc link must resolve, so a deleted public name cannot
# survive in the docs as a dangling link.
RUSTDOCFLAGS="-D warnings" cargo doc -q --offline --no-deps --workspace

echo "== cargo fmt --check =="
cargo fmt --check

echo "== forbid(unsafe_code) in every crate root =="
for f in crates/*/src/lib.rs; do
  grep -q '^#!\[forbid(unsafe_code)\]$' "$f" \
    || { echo "missing #![forbid(unsafe_code)] in $f"; exit 1; }
done

echo "== no debug/stub macros in crate sources =="
# dbg!/todo!/unimplemented! must never ship; tests may use them, sources not.
if grep -rnE '(dbg!\(|todo!\(|unimplemented!\()' crates/*/src; then
  echo "forbidden macro found in crate sources"; exit 1
fi

echo "== hxq ingests in one pass =="
# hxq builds its arena straight from parser events (parse_flat); the tree
# parser and to_hedge stay the tests' reference route, never production.
if grep -rnE '(parse_xml|to_hedge)\(' crates/hedgex/src/bin/; then
  echo "hxq must ingest through parse_flat, not parse_xml/to_hedge"; exit 1
fi

echo "== the library's query path runs no reference traversal =="
# A report describes the run that answered; it never re-evaluates through
# the literal two traversals or a path's PHR embedding. Those stay the
# tests' references.
if grep -rnE '(two_pass::first_pass\(|two_pass::second_pass\(|two_pass::locate\(|\.to_phr\()' crates/hedgex/src; then
  echo "crates/hedgex/src must not run the reference traversals or embed paths as PHRs"; exit 1
fi

echo "== Algorithm 1 lives in hedgex-core only =="
# The class computation and the N-automaton steps have one implementation,
# the walk in crates/core/src/two_pass.rs; every other crate evaluates a PHR
# by calling it, never by stepping the tables itself.
if grep -rnE --include='*.rs' '(\.n_transition\(|sibling_classes\(|class_step_row\(|WordPool)' crates/*/src \
  | grep -v '^crates/core/src/'; then
  echo "Algorithm 1's steps must stay in crates/core/src"; exit 1
fi

echo "== addresses come from the one writer =="
# Every located node is printed from hedgex_hedge::DeweyWriter, one forward
# pass per answer. The per-node FlatHedge::dewey rescans each level from its
# eldest sibling, quadratic in a wide answer; it stays the reference in
# flat.rs and the E12 benchmark, and PhrStream::dewey wraps it for E12 only.
if grep -rnF --include='*.rs' '.dewey(' crates/*/src \
  | grep -vE '^crates/(hedge/src/flat\.rs|stream/src/phr\.rs|bench/)'; then
  echo "locate output must come from DeweyWriter, not per-node .dewey()"; exit 1
fi

echo "== one route per query =="
# hedgex::run picks the evaluator from the request, never from a flag: a
# path query over a file or stdin streams unless --mark/--subhedge/--repeat
# needs the arena, and a PHR always runs on the arena, so no hxq route
# builds a PhrStream. The prelude still re-exports it, for E12's layer pass.
if grep -rnE 'PhrStream|req\.stream' crates/hedgex/src \
  | grep -vE '^crates/hedgex/src/lib\.rs:[0-9]+: +parse_flat, replay_flat, stream_xml, HedgeSink, PathStream, PhrStream,$'; then
  echo "the request, not --stream, picks the route; only the prelude names PhrStream"; exit 1
fi

echo "== one event interface =="
# XML bytes reach every consumer through one trait, hedgex_hedge::HedgeSink:
# hedgex_xml::stream_xml applies the document → hedge mapping while it scans
# and drives the sink directly, and FlatBuilder is a sink itself. No second
# event trait or adapter re-applies the mapping, and its `attr:` spelling
# lives in crates/xml/src only.
if grep -rnE --include='*.rs' '(StreamSink|XmlDriver|parse_xml_stream|\bFlow::)' crates/*/src; then
  echo "XML events must reach sinks through hedgex_hedge::HedgeSink only"; exit 1
fi
if grep -rnF --include='*.rs' '"attr:' crates/*/src | grep -v '^crates/xml/src/'; then
  echo "the XML → hedge mapping must stay in crates/xml/src"; exit 1
fi

echo "== the construction kernel lives in hedgex-automata only =="
# Subset, product and trim loops go through the three kernels in
# crates/automata/src/kernel.rs (Worklist, row/in_edges, reach/coreach); no
# other crate groups letters by target or builds a co-finite edge by hand.
if grep -rnE --include='*.rs' '(by_target|NotIn\(covered)' crates/*/src \
  | grep -v '^crates/automata/src/'; then
  echo "transition rows must be built by hedgex_automata::row/in_edges"; exit 1
fi

echo "== one bottom-up exploration =="
# Theorem 1's subsets, Theorem 4's products, the ambiguity self-product and
# the inhabitation analyses find their states and their rows in one loop,
# hedgex_automata::saturate, which steps each (horizontal state, vertical
# state) pair once. No construction repeats its own rounds until nothing
# new turns up, or explores a horizontal machine again to build its rows.
if grep -rnE --include='*.rs' '(fn lift_horiz|len\(\) == before)' crates/*/src; then
  echo "bottom-up discovery must go through hedgex_automata::saturate"; exit 1
fi

echo "== dense tables live in hedgex-automata =="
# Every tabulated automaton (horizontal functions, ≡ classes, N, the path
# DFA, F) is a hedgex_automata::DenseDfa, and constructions hand it rows
# directly; no crate expands a symbolic DFA back into a table or lays out
# its own state × symbol table with a column lookup.
if grep -rnF --include='*.rs' 'from_labeled_dfa' crates tests examples; then
  echo "horizontal functions are built from rows, never from a symbolic DFA"; exit 1
fi
if grep -rnE --include='*.rs' '(nsyms \+ 1|sym_idx)' crates/*/src \
  | grep -v '^crates/automata/src/'; then
  echo "dense tables must be hedgex_automata::DenseDfa"; exit 1
fi

echo "== one regex grammar =="
# Path, PHR and HRE text share one alt → seq → postfix loop in
# crates/core/src/syntax.rs, and each language supplies only its atoms. A
# triplet parses its HRE slots in place, never by slicing them out first.
if grep -rnE --include='*.rs' "(Some\('\|'\)|Some\('\*'\)|'\*' \| '\+'|slice_until)" crates/*/src \
  | grep -v '^crates/core/src/syntax\.rs:'; then
  echo "query grammars must run the one loop in crates/core/src/syntax.rs"; exit 1
fi

echo "== a store loads in one pass =="
# DocumentStore::load streams its file through one bounded buffer, and each
# document's node records go straight into a FlatBuilder, in the same loop
# that derives the index. No second decoder rebuilds an arena from
# (label, parent) pairs, and the loader never holds the whole file.
if grep -rnE --include='*.rs' '(FlatHedge::from_parts|FromPartsError)' crates tests examples; then
  echo "store records are decoded in one pass, not through FlatHedge::from_parts"; exit 1
fi
if grep -rnF --include='*.rs' 'fs::read(' crates/store/src; then
  echo "the store loader must stream its file, not read it whole"; exit 1
fi

echo "== one extent encoding =="
# A node's subtree end is stored once, in the arena's own column
# (FlatHedge::subtree_ends), and its child and sibling links are derived
# from it. The store's index keeps postings only, the gate's PruneInfo
# only its candidates, and the arena stores no first-child or
# next-sibling link.
if grep -rnE --include='*.rs' '(subtree_ends?[[:space:]]*:|let (mut )?subtree_ends?\b)' crates/store/src; then
  echo "the store must read subtree extents from the arena, not keep its own"; exit 1
fi
if sed -n '/^pub struct PruneInfo/,/^}/p' crates/core/src/two_pass.rs | grep -nE '(subtree_end|ends)'; then
  echo "PruneInfo is the candidate list; the gate reads the arena's extents"; exit 1
fi
if grep -nE '^[[:space:]]*(pub(\(crate\))?[[:space:]]+)?(first_child|next_sibling)s?[[:space:]]*:' crates/hedge/src/flat.rs; then
  echo "flat.rs derives first-child and next-sibling links from the extents"; exit 1
fi

echo "== Theorem 1 is dense =="
# Once Lemma 1 has closed the state alphabet 0..|Q|, every language is a
# DenseDfa table: compile_hre determinizes straight into one
# (Nfa::to_dense), and Theorem 1's subsets and lifted states are bit sets
# stepped by table rows. No symbolic subset construction or ordered set
# comes back into that path.
if grep -nE '(BTreeSet|Dfa<HState>)' crates/ha/src/determinize.rs; then
  echo "Theorem 1 must run on dense tables and bit sets"; exit 1
fi
if sed -n '1,/^#\[cfg(test)\]/p' crates/core/src/compile.rs | grep -nF '.to_dfa()'; then
  echo "compile_hre must determinize into dense tables (Nfa::to_dense)"; exit 1
fi

echo "== one compile for check and evaluation =="
# hxq check builds its spine automata on the evaluator's own Theorem 4
# product (hedgex_core::phr_compile::shared_product), so crates/analyze/src
# compiles, reduces and multiplies no component itself outside its tests.
# The match automaton stays an NHA, since every question asked of it is
# emptiness: the one determinization there is the envelope's, which
# containment complements. And the witness pass in crates/ha/src/analysis.rs
# is one saturate exploration, never a round repeated until nothing changes.
if awk 'FNR == 1 { t = 0 } /^#\[cfg\(test\)\]/ { t = 1 }
        !t && /(product_many|reduce_dha|compile_hre)\(/ { print FILENAME ":" FNR ": " $0; f = 1 }
        END { exit !f }' crates/analyze/src/*.rs; then
  echo "crates/analyze/src must take M from hedgex_core::phr_compile::shared_product"; exit 1
fi
if grep -nE 'determinize\(' crates/analyze/src/*.rs \
  | grep -vF 'determinize(&self.assemble(&Mode::Env))'; then
  echo "only the envelope is determinized in crates/analyze/src; the match automaton stays an NHA"; exit 1
fi
witness_pass=$(sed -n '/^fn witness_trees(/,/^pub fn is_empty(/p' crates/ha/src/analysis.rs)
if ! grep -q 'saturate(' <<<"$witness_pass" \
  || grep -nE '(loop \{|changed|grew)' <<<"$witness_pass"; then
  echo "the witness pass in crates/ha/src/analysis.rs must be one saturate exploration"; exit 1
fi

echo "== documents are read in chunks =="
# hxq reads a file or stdin through the event parser's window
# (stream_read / parse_flat_read) and never holds a document whole:
# neither hxq's run nor its binary reads one into a String or a Vec.
if grep -rnE --include='*.rs' '(read_to_string|fs::read\(|read_to_end)' crates/hedgex/src; then
  echo "a document must be read through the event parser's window, not read whole"; exit 1
fi

echo "== E6 warm-throughput bench (smoke mode: 1 sample) =="
HEDGEX_BENCH_SMOKE=1 cargo bench -q --offline -p hedgex-bench --bench warm

echo "== E7 parallel-scaling bench (smoke mode: 1 sample) =="
HEDGEX_BENCH_SMOKE=1 cargo bench -q --offline -p hedgex-bench --bench parallel

echo "== E9 streaming bench (smoke mode: 1 sample) =="
HEDGEX_BENCH_SMOKE=1 cargo bench -q --offline -p hedgex-bench --bench streaming

echo "== E10 mode-ablation bench (smoke mode: 1 sample) =="
HEDGEX_BENCH_SMOKE=1 cargo bench -q --offline -p hedgex-bench --bench mode_ablation

echo "== E11 store bench (smoke mode: 1 sample) =="
# Asserts indexed == warm answers and the >= 2x selective-query speedup.
HEDGEX_BENCH_SMOKE=1 cargo bench -q --offline -p hedgex-bench --bench store

echo "== E12 end-to-end benchmark (smoke mode) =="
# The benchmark is a package of its own, outside the workspace, so no step
# above compiles it. The smoke run builds it against the workspace crates
# and exits non-zero on any wrong answer in any of the four workloads.
bash crates/bench/src/bin/e2e/run.sh --smoke

echo "== E12 end-to-end benchmark unit tests =="
# The smoke run only builds the package; its own tests check the oracles,
# including that a planted wrong answer is caught. Built in the shared
# target directory, as run.sh does, so nothing lands beside its sources.
CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}" \
  cargo test -q --offline --manifest-path crates/bench/src/bin/e2e/Cargo.toml

echo "== bench_compare: committed baseline schema =="
# Every committed BENCH_*.json must parse and carry the report schema the
# sentinel compares on (ids, median/min/max, sample counts).
check_args=()
for f in BENCH_*.json; do
  [ "$f" = "BENCH_TRAJECTORY.json" ] && continue
  check_args+=(--check "$f")
done
cargo run -q --offline --release -p hedgex-bench --bin bench_compare -- "${check_args[@]}"

echo "== bench_compare: self-comparison is regression-free =="
# Comparing the committed baselines against themselves must report zero
# regressions and exit 0; this exercises the full comparison path without
# the cross-machine noise a live smoke run would inject.
cargo run -q --offline --release -p hedgex-bench --bin bench_compare -- \
  --baseline-dir . --candidate-dir .

echo "== bench_compare: trajectory covers every committed report =="
# The audit history must not fall behind the baselines: every committed
# BENCH_*.json group has to appear in the latest BENCH_TRAJECTORY.json row.
cargo run -q --offline --release -p hedgex-bench --bin bench_compare -- \
  --trajectory-covers BENCH_TRAJECTORY.json --baseline-dir .

echo "== bench_compare: sentinel self-test (must detect a 3x slowdown) =="
# The self-test plants a synthetic 3x slowdown and exits non-zero iff the
# sentinel catches it; a blind sentinel exits 0 and fails this gate.
if cargo run -q --offline --release -p hedgex-bench --bin bench_compare -- --self-test; then
  echo "bench_compare self-test failed to flag the planted regression"; exit 1
fi

echo "verify: OK"
