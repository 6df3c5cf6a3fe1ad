//! Experiment E8 (analysis) — what static analysis costs and what
//! dead-state pruning buys.
//!
//! Two questions, matching the two halves of the analyzer:
//!
//! 1. **Analysis vs first evaluation.** Building the spine automata and
//!    deciding satisfiability is a one-time cost on the same order as plan
//!    compilation — the report records the measured ratio against the
//!    first cold evaluation (compile + locate) so regressions in either
//!    direction are visible.
//! 2. **Pruned vs unpruned warm throughput.** Component-level dead-state
//!    pruning shrinks the product `M` and with it the dense transition
//!    tables the warm path walks. The group benches both compilations on
//!    the same documents, interleaved in one loop after a warm-up, asserts
//!    their match sets are identical (pruning must be invisible to
//!    evaluation), and records the dense-table entry counts
//!    (`m_states × eq_classes`) for both.

use std::time::Instant;

use hedgex_testkit::{Bench, BenchmarkId, Json, Throughput};

use hedgex_analyze::AnalyzedQuery;
use hedgex_bench::{doc_workload, figure_before_table_phr};
use hedgex_core::phr_compile::CompiledPhr;
use hedgex_core::{two_pass, EvalScratch, Plan};

/// Median wall time of `k` runs of `f`, in nanoseconds.
fn median_ns(k: usize, mut f: impl FnMut()) -> f64 {
    let mut samples: Vec<u128> = (0..k)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(&mut f)();
            t.elapsed().as_nanos()
        })
        .collect();
    samples.sort_unstable();
    samples[k / 2] as f64
}

fn dense_entries(c: &CompiledPhr) -> u64 {
    u64::from(c.m.num_states()) * c.classes.num_classes() as u64
}

fn main() {
    let mut c = Bench::from_env();
    let smoke = c.smoke();
    let sizes: &[usize] = if smoke {
        &[2_000]
    } else {
        &[4_000, 16_000, 64_000]
    };

    let mut group = c.benchmark_group("E8_analysis");
    group.sample_size(101);

    // Warm throughput: identical plans except for pruning, measured side by
    // side in one interleaved loop after a warm-up, so the two rows see the
    // same machine and compare across runs.
    let mut ratios = Vec::new();
    for &n in sizes {
        let mut w = doc_workload(n, 0xE8);
        let phr = figure_before_table_phr(&mut w.ab);
        let pruned = Plan::from_compiled(CompiledPhr::compile_with(&phr, true));
        let unpruned = Plan::from_compiled(CompiledPhr::compile_with(&phr, false));
        // Pruning must be invisible to evaluation.
        assert_eq!(
            pruned.locate(&w.doc),
            unpruned.locate(&w.doc),
            "pruned and unpruned compilations must locate the same nodes"
        );
        let mut scratch_p = EvalScratch::new();
        let mut scratch_u = EvalScratch::new();
        let ids = [
            BenchmarkId::new("warm_pruned", w.nodes),
            BenchmarkId::new("warm_unpruned", w.nodes),
        ];
        group.throughput(Throughput::Elements(w.nodes as u64));
        group.bench_interleaved(&mut [
            (ids[0].clone(), &mut || {
                std::hint::black_box(pruned.locate_into(&w.doc, &mut scratch_p).len());
            }),
            (ids[1].clone(), &mut || {
                std::hint::black_box(unpruned.locate_into(&w.doc, &mut scratch_u).len());
            }),
        ]);
        // The load of a shared host moves both rows together; their ratio
        // is the figure that holds from run to run.
        if let [Some(p), Some(u)] = ids.map(|id| group.median_ns(&id)) {
            ratios.push((w.nodes.to_string(), Json::Num(p as f64 / u.max(1) as f64)));
        }
    }
    if !ratios.is_empty() {
        group.attach_extra("warm_pruned_over_unpruned", Json::Obj(ratios));
    }

    // One-time costs on a mid-size document: static analysis (spine build
    // + satisfiability + required symbols) vs the first cold evaluation
    // (compile + locate), plus the dense-table shrink from pruning.
    let (n, k) = if smoke { (2_000, 1) } else { (16_000, 3) };
    let mut w = doc_workload(n, 0xE8);
    let phr = figure_before_table_phr(&mut w.ab);

    let mut sat = false;
    let mut required = 0usize;
    let analyze_ns = median_ns(k, || {
        let q = AnalyzedQuery::new(&phr, None);
        let report = q.analyze(None);
        sat = report.satisfiability.satisfiable;
        required = report.required.len();
    });
    assert!(sat, "the benchmark query is satisfiable");
    let first_eval_ns = median_ns(k, || {
        let compiled = CompiledPhr::compile(&phr);
        std::hint::black_box(two_pass::locate(&compiled, &w.doc).len());
    });
    group.attach_extra(
        "analysis_vs_first_eval",
        Json::obj([
            ("nodes", Json::Num(w.nodes as f64)),
            ("analyze_median_ns", Json::Num(analyze_ns)),
            ("first_eval_median_ns", Json::Num(first_eval_ns)),
            ("ratio", Json::Num(analyze_ns / first_eval_ns.max(1.0))),
            ("required_symbols", Json::Num(required as f64)),
        ]),
    );

    let pruned = CompiledPhr::compile_with(&phr, true);
    let unpruned = CompiledPhr::compile_with(&phr, false);
    let (ep, eu) = (dense_entries(&pruned), dense_entries(&unpruned));
    assert!(
        ep < eu,
        "pruning must shrink the dense tables on the DocBook query ({ep} vs {eu})"
    );
    group.attach_extra(
        "pruning_dense_tables",
        Json::obj([
            (
                "m_states_pruned",
                Json::Num(f64::from(pruned.m.num_states())),
            ),
            (
                "m_states_unpruned",
                Json::Num(f64::from(unpruned.m.num_states())),
            ),
            ("entries_pruned", Json::Num(ep as f64)),
            ("entries_unpruned", Json::Num(eu as f64)),
            ("shrink_ratio", Json::Num(eu as f64 / ep.max(1) as f64)),
            (
                "component_states_pruned_away",
                Json::Num(pruned.stats.pruned_states() as f64),
            ),
        ]),
    );
    group.finish();
}
