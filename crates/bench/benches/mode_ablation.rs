//! Experiment E10 — mode ablation: `locate` vs `count` vs `exists` on the
//! same compiled [`Plan`], eval-only (documents pre-parsed, plan warm).
//!
//! All three modes run one walk (`two_pass::eval_into`): the bottom-up
//! `M`-run over every node, then a depth-first top-down search that
//! classifies a sibling group only when it descends into it and never
//! descends below a dead `N`-state. The mode only decides what happens at
//! an accepting node — Locate writes its id, Count tallies it, Exists
//! stops. Expected shape: on a matching document `count` tracks `locate`
//! (same visits, no id writes) and `exists` wins by stopping at the first
//! match. On a *non-matching* document — the same DocBook content under a
//! foreign root, so `N` is dead from the first step — every mode prunes
//! the whole document below the root, and all three cost about the
//! `M`-run. The group report carries a directly measured
//! `exists_vs_locate` section on that non-matching shape; its speedup
//! reads about 1× because Locate and Count share the prune, not because
//! Exists got slower.

use std::time::Instant;

use hedgex_testkit::{Bench, BenchmarkId, Json, Throughput};

use hedgex_bench::{doc_workload, figure_before_table_phr};
use hedgex_core::{EvalMode, EvalOutcome, EvalScratch, Plan};
use hedgex_hedge::{FlatHedge, Hedge, Tree};

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

/// The same document under a foreign root: every ancestor chain now starts
/// with `book`, which no triplet of the query accepts, so no node can
/// match — yet every symbol the query requires is still present (the
/// required-symbol quick-reject does not fire; the win measured here is
/// pure dead-state pruning).
fn under_foreign_root(w: &mut hedgex_bench::Workload) -> FlatHedge {
    let book = w.ab.sym("book");
    FlatHedge::from_hedge(&Hedge(vec![Tree::Node(book, w.doc.to_hedge())]))
}

fn main() {
    let mut c = Bench::from_env();
    let smoke = c.smoke();
    let sizes: &[usize] = if smoke {
        &[2_000]
    } else {
        &[4_000, 16_000, 64_000]
    };

    let mut group = c.benchmark_group("E10_mode_ablation");
    group.sample_size(15);
    let mut scratch = EvalScratch::new();
    for &n in sizes {
        let mut w = doc_workload(n, 0xE10);
        let phr = figure_before_table_phr(&mut w.ab);
        let plan = Plan::compile(&phr);
        let barren = under_foreign_root(&mut w);

        // Correctness before time: the three modes must tell one story on
        // both shapes, or the ablation measures three different answers.
        let located = plan.locate_into(&w.doc, &mut scratch).len();
        assert!(located > 0, "matching workload must contain matches");
        assert_eq!(plan.locate_into(&barren, &mut scratch).len(), 0);
        for (doc, n) in [(&w.doc, located as u64), (&barren, 0)] {
            let count = plan.eval_into(doc, &mut scratch, EvalMode::Count);
            assert_eq!(count, EvalOutcome::Count(n));
            let exists = plan.eval_into(doc, &mut scratch, EvalMode::Exists);
            assert_eq!(exists, EvalOutcome::Exists(n > 0));
        }

        for (shape, doc) in [("matching", &w.doc), ("nonmatching", &barren)] {
            group.throughput(Throughput::Elements(doc.num_nodes() as u64));
            for (name, mode) in [
                ("locate", EvalMode::Locate),
                ("count", EvalMode::Count),
                ("exists", EvalMode::Exists),
            ] {
                group.bench_with_input(
                    BenchmarkId::new(&format!("{name}_{shape}"), w.nodes),
                    doc,
                    |b, doc| {
                        b.iter(|| std::hint::black_box(plan.eval_into(doc, &mut scratch, mode)))
                    },
                );
            }
        }
    }

    // Exists against Locate and Count on a non-matching document: one
    // measured triple on a mid-size document, warm scratch, recorded in the
    // report (no floor is asserted: the modes share the prune).
    let (n, k) = if smoke { (2_000, 3) } else { (16_000, 11) };
    let mut w = doc_workload(n, 0xE10);
    let phr = figure_before_table_phr(&mut w.ab);
    let plan = Plan::compile(&phr);
    let barren = under_foreign_root(&mut w);
    plan.locate_into(&barren, &mut scratch); // size the buffers
    let locate = median_ns(k, || {
        plan.locate_into(&barren, &mut scratch);
    });
    let exists = median_ns(k, || {
        plan.eval_into(&barren, &mut scratch, EvalMode::Exists);
    });
    let count = median_ns(k, || {
        plan.eval_into(&barren, &mut scratch, EvalMode::Count);
    });
    group.attach_extra(
        "exists_vs_locate",
        Json::obj([
            ("nodes", Json::Num(barren.num_nodes() as f64)),
            ("locate_median_ns", Json::Num(locate)),
            ("count_median_ns", Json::Num(count)),
            ("exists_median_ns", Json::Num(exists)),
            ("speedup", Json::Num(locate / exists.max(1.0))),
        ]),
    );
    group.finish();
}
