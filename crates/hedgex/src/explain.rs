//! Query-plan explain: run the full PHR pipeline on one document and
//! report what every phase cost and what every construction produced.
//!
//! [`explain`] measures each phase directly (wall-clock via
//! `std::time::Instant`, sizes read off the constructed artifacts), so the
//! report is deterministic in its structural fields and works identically
//! with the `obs` feature on or off. The ambient `hedgex-obs` registry
//! snapshot is attached as a best-effort `metrics` section when
//! instrumentation is compiled in.

use std::time::Instant;

use hedgex_core::mark_down::{compile_to_dha, mark_run};
use hedgex_core::phr::Phr;
use hedgex_core::two_pass;
use hedgex_core::{CompiledPhr, EvalScratch, Hre, PathExpr, Plan};
use hedgex_hedge::{Alphabet, FlatHedge, NodeId};
use hedgex_obs as obs;
use hedgex_testkit::Json;

/// One timed phase of the pipeline.
#[derive(Debug, Clone)]
pub struct Phase {
    /// Phase name (`compile`, `subhedge_compile`, `first_pass`, …).
    pub name: &'static str,
    /// Wall time in nanoseconds.
    pub wall_ns: u64,
}

/// Sizes of one compiled PHR component (one elder or younger HRE).
#[derive(Debug, Clone)]
pub struct ComponentSizes {
    /// NHA states after Lemma 1 compilation.
    pub nha_states: u32,
    /// DHA states after Theorem 1 determinization.
    pub dha_states: u32,
    /// DHA states after dead-state pruning and minimization (what the
    /// product is actually built from; equals `dha_states` when pruning
    /// was disabled or removed nothing).
    pub dha_reduced: u32,
}

/// The structured result of [`explain`].
#[derive(Debug, Clone)]
pub struct ExplainReport {
    /// Per-phase wall times, in execution order.
    pub phases: Vec<Phase>,
    /// Per-component automaton sizes (elder, younger per triplet).
    pub components: Vec<ComponentSizes>,
    /// Summed NHA states across components.
    pub nha_states: u64,
    /// Summed DHA states across components.
    pub dha_states: u64,
    /// Determinization blowup: summed DHA states / summed NHA states.
    pub blowup_ratio: f64,
    /// States of the shared product automaton `M` (Theorem 4).
    pub m_states: u32,
    /// Number of ≡-classes saturating the lifted final sets.
    pub eq_classes: usize,
    /// Distinct elder-word classes the first traversal actually assigned.
    pub elder_classes_used: usize,
    /// Distinct younger-word classes the first traversal actually assigned.
    pub younger_classes_used: usize,
    /// Mirror-automaton states materialized by the second traversal.
    pub n_states: usize,
    /// Component DHA states removed by dead-state pruning before the
    /// product was built (summed over components).
    pub pruned_states: u64,
    /// Nodes in the document.
    pub nodes: usize,
    /// Located nodes (after the optional subhedge filter).
    pub located: usize,
    /// The located nodes themselves, in document order.
    pub hits: Vec<NodeId>,
    /// Snapshot of the obs registry (`{"enabled": false}` when obs is
    /// compiled out).
    pub metrics: Json,
    /// Chrome trace-event timeline of the spans recorded so far (empty
    /// array when obs is compiled out) — the same events `hxq --trace`
    /// writes, captured by the report's `trace` phase.
    pub trace: Json,
}

impl ExplainReport {
    /// Render as JSON (round-trips through `hedgex_testkit::Json::parse`).
    pub fn to_json(&self) -> Json {
        let phases = Json::Arr(
            self.phases
                .iter()
                .map(|p| {
                    Json::obj([
                        ("name", Json::Str(p.name.to_string())),
                        ("wall_ns", Json::Num(p.wall_ns as f64)),
                    ])
                })
                .collect(),
        );
        let components = Json::Arr(
            self.components
                .iter()
                .map(|c| {
                    Json::obj([
                        ("nha_states", Json::Num(f64::from(c.nha_states))),
                        ("dha_states", Json::Num(f64::from(c.dha_states))),
                        ("dha_reduced", Json::Num(f64::from(c.dha_reduced))),
                    ])
                })
                .collect(),
        );
        Json::obj([
            ("phases", phases),
            ("components", components),
            ("nha_states", Json::Num(self.nha_states as f64)),
            ("dha_states", Json::Num(self.dha_states as f64)),
            ("blowup_ratio", Json::Num(self.blowup_ratio)),
            ("m_states", Json::Num(f64::from(self.m_states))),
            ("eq_classes", Json::Num(self.eq_classes as f64)),
            (
                "elder_classes_used",
                Json::Num(self.elder_classes_used as f64),
            ),
            (
                "younger_classes_used",
                Json::Num(self.younger_classes_used as f64),
            ),
            ("n_states", Json::Num(self.n_states as f64)),
            ("pruned_states", Json::Num(self.pruned_states as f64)),
            ("nodes", Json::Num(self.nodes as f64)),
            ("located", Json::Num(self.located as f64)),
            (
                "hits",
                Json::Arr(self.hits.iter().map(|&n| Json::Num(f64::from(n))).collect()),
            ),
            ("metrics", self.metrics.clone()),
            ("trace", self.trace.clone()),
        ])
    }
}

fn timed<T>(phases: &mut Vec<Phase>, name: &'static str, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    phases.push(Phase {
        name,
        wall_ns: t.elapsed().as_nanos() as u64,
    });
    out
}

/// [`explain`] for a classical path expression. The report describes PHR
/// automata, so the path runs through its §5 embedding — universal sibling
/// conditions over every symbol of `ab` — rather than the §8 DFA that
/// answers every other `hxq --path` run. Its match set is the same.
pub fn explain_path(
    path: &PathExpr,
    ab: &mut Alphabet,
    subhedge: Option<&Hre>,
    doc: &FlatHedge,
) -> ExplainReport {
    let syms: Vec<_> = ab.syms().collect();
    let vars: Vec<_> = ab.vars().collect();
    let z = ab.sub("hxq-universal");
    explain(&path.to_phr(&syms, &vars, z), subhedge, doc)
}

/// Run the PHR pipeline on `doc`, measuring every phase: compile the
/// envelope (and optional subhedge condition), run both traversals of
/// Algorithm 1, and report automaton sizes, class usage, timings, and the
/// match set. The match set is exactly what `two_pass::locate` (plus the
/// subhedge mark filter) produces.
pub fn explain(phr: &Phr, subhedge: Option<&Hre>, doc: &FlatHedge) -> ExplainReport {
    let _span = obs::span("hedgex.explain");
    let mut phases = Vec::new();

    let plan = timed(&mut phases, "compile", || {
        Plan::from_compiled(CompiledPhr::compile(phr))
    });
    let compiled = plan.compiled();
    let marks = subhedge.map(|e| {
        let dha = timed(&mut phases, "subhedge_compile", || compile_to_dha(e));
        timed(&mut phases, "subhedge_mark", || mark_run(&dha, doc))
    });

    let fp = timed(&mut phases, "first_pass", || {
        two_pass::first_pass(compiled, doc)
    });
    let mut hits = timed(&mut phases, "second_pass", || {
        two_pass::second_pass(compiled, doc, &fp)
    });

    // Warm run, reported separately from the cold phases above: the
    // compile-once / run-many contract evaluates through a shared [`Plan`]
    // and a caller-owned scratch. The first (unmeasured) pass sizes the
    // buffers; the timed pass is the steady-state, allocation-free cost.
    let mut scratch = EvalScratch::new();
    plan.locate_into(doc, &mut scratch);
    let warm_hits = timed(&mut phases, "warm_run", || {
        plan.locate_into(doc, &mut scratch).len()
    });
    debug_assert_eq!(warm_hits, hits.len(), "warm run must reproduce cold hits");

    if let Some(marks) = &marks {
        hits.retain(|&n| marks[n as usize]);
    }

    // Timeline export is a phase of its own: rendering the span ring is
    // real work on large runs, and reporting it as a phase keeps the
    // total-time accounting honest.
    let trace = timed(&mut phases, "trace", obs::trace_json);

    let distinct = |classes: &[u32]| {
        let mut v: Vec<u32> = classes.to_vec();
        v.sort_unstable();
        v.dedup();
        v.len()
    };

    let nha_states = compiled.stats.total_nha_states();
    let dha_states = compiled.stats.total_dha_states();
    ExplainReport {
        phases,
        components: compiled
            .stats
            .components
            .iter()
            .zip(&compiled.stats.reduced_components)
            .map(|(&(n, d), &r)| ComponentSizes {
                nha_states: n,
                dha_states: d,
                dha_reduced: r,
            })
            .collect(),
        nha_states,
        dha_states,
        blowup_ratio: dha_states as f64 / nha_states.max(1) as f64,
        m_states: compiled.m.num_states(),
        eq_classes: compiled.classes.num_classes(),
        elder_classes_used: distinct(&fp.elder_class),
        younger_classes_used: distinct(&fp.younger_class),
        n_states: compiled.n_states_materialized(),
        pruned_states: compiled.stats.pruned_states(),
        nodes: doc.num_nodes(),
        located: hits.len(),
        hits,
        metrics: obs::snapshot(),
        trace,
    }
}
