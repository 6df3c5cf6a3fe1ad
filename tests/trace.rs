//! Cross-thread span parent attribution (PR 8 satellite).
//!
//! The timeline tracer's claim: work done on a pool worker nests — via the
//! thread-local parent stack plus the per-thread trace id — under that
//! worker's own task span, never under another worker's, and the exported
//! Chrome trace is well-formed JSON. Exercised at jobs ∈ {2, 7} over a
//! 12-document corpus taken from the pool's one shared task cursor.

use std::collections::HashMap;
use std::sync::Mutex;

use hedgex::obs;
use hedgex::prelude::*;
use hedgex_bench::{corpus_workload, figure_before_table_phr};
use hedgex_testkit::Json;

/// The obs registry is process-global: serialize tests touching it.
static TEST_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

const TASK_SPANS: [&str; 1] = ["par.task"];

/// Walk `record`'s parent chain; the nearest enclosing task span, if any.
fn enclosing_task(by_id: &HashMap<u64, &obs::SpanRecord>, record: &obs::SpanRecord) -> Option<u64> {
    let mut cur = record.parent;
    while let Some(pid) = cur {
        let p = by_id.get(&pid)?;
        if TASK_SPANS.contains(&p.name) {
            return Some(pid);
        }
        cur = p.parent;
    }
    None
}

/// Run one parallel batch and assert attribution invariants. Returns how
/// many distinct worker threads the task spans landed on — whether the
/// pool actually fanned out is timing-dependent (a fast worker can drain
/// the cursor before its peers wake), so the caller retries on that,
/// while the attribution invariants must hold on every single run.
fn check_worker_attribution(jobs: usize, seed: u64) -> usize {
    obs::reset();
    let main_tid = obs::thread_id();

    let mut w = corpus_workload(12, 800, seed);
    let phr = figure_before_table_phr(&mut w.ab);
    let plan = Plan::compile(&phr);
    obs::reset(); // drop the compile spans; judge only the parallel batch
    let results = ParallelEvaluator::new(jobs).eval_corpus(&plan, &w.docs);
    assert_eq!(results.len(), w.docs.len());

    let spans = obs::spans();
    let by_id: HashMap<u64, &obs::SpanRecord> = spans.iter().map(|s| (s.id, s)).collect();

    let tasks: Vec<&obs::SpanRecord> = spans
        .iter()
        .filter(|s| TASK_SPANS.contains(&s.name))
        .collect();
    assert_eq!(
        tasks.len(),
        w.docs.len(),
        "one task span per document (jobs={jobs})"
    );
    let mut task_tids: Vec<u64> = tasks.iter().map(|s| s.tid).collect();
    task_tids.sort_unstable();
    task_tids.dedup();
    assert!(
        !task_tids.contains(&main_tid),
        "pool workers are not the main thread"
    );
    // Each task span nests under its worker's lifetime span, same thread.
    for t in &tasks {
        let parent = t.parent.and_then(|p| by_id.get(&p));
        let parent = parent.unwrap_or_else(|| panic!("task span {} has no parent", t.id));
        assert_eq!(parent.name, "par.worker", "jobs={jobs}");
        assert_eq!(parent.tid, t.tid, "task ran on its worker's thread");
    }

    // Every span emitted *inside* the evaluation (everything on a worker
    // thread that is not the worker frame itself) must nest under a task
    // span of its own thread — cross-thread attribution never leaks work
    // into another worker's lane.
    let mut attributed = 0;
    for s in &spans {
        if s.tid == main_tid || s.name == "par.worker" || TASK_SPANS.contains(&s.name) {
            continue;
        }
        let task = enclosing_task(&by_id, s)
            .unwrap_or_else(|| panic!("span '{}' (tid {}) not under any task span", s.name, s.tid));
        assert_eq!(
            by_id[&task].tid, s.tid,
            "span '{}' attributed across threads",
            s.name
        );
        attributed += 1;
    }
    assert!(
        attributed > 0,
        "evaluation must emit spans under the task spans (jobs={jobs})"
    );

    // The exported timeline round-trips through the in-tree JSON parser
    // and is structurally a Chrome trace.
    let trace = obs::trace_json();
    let reparsed = Json::parse(&trace.to_string()).expect("trace JSON parses");
    assert_eq!(reparsed, trace);
    let events = trace.as_arr().expect("trace is an array");
    assert_eq!(events.len(), spans.len());
    for e in events {
        assert_eq!(e.get("ph").and_then(Json::as_str), Some("X"));
        for key in ["name", "ts", "dur", "pid", "tid"] {
            assert!(e.get(key).is_some(), "trace event missing '{key}'");
        }
    }

    task_tids.len()
}

/// Attribution must hold every run; seeing the pool genuinely fan out is
/// timing-dependent, so allow a few attempts before declaring it broken.
fn check_with_retries(jobs: usize) {
    const ATTEMPTS: u64 = 8;
    for seed in 0..ATTEMPTS {
        if check_worker_attribution(jobs, 7 + seed) > 1 {
            return;
        }
    }
    panic!("tasks never spread across threads in {ATTEMPTS} runs (jobs={jobs})");
}

#[test]
fn worker_attribution_at_jobs_2() {
    if !obs::is_enabled() {
        return;
    }
    let _g = lock();
    check_with_retries(2);
}

#[test]
fn worker_attribution_at_jobs_7() {
    if !obs::is_enabled() {
        return;
    }
    let _g = lock();
    check_with_retries(7);
}

#[test]
fn single_job_runs_inline_with_task_spans() {
    if !obs::is_enabled() {
        return;
    }
    let _g = lock();
    obs::reset();
    let main_tid = obs::thread_id();
    let mut w = corpus_workload(3, 50, 11);
    let phr = figure_before_table_phr(&mut w.ab);
    let plan = Plan::compile(&phr);
    obs::reset();
    ParallelEvaluator::new(1).eval_corpus(&plan, &w.docs);
    let spans = obs::spans();
    let tasks: Vec<_> = spans.iter().filter(|s| s.name == "par.task").collect();
    assert_eq!(tasks.len(), 3, "inline path still emits task spans");
    assert!(
        tasks.iter().all(|s| s.tid == main_tid),
        "jobs=1 is the calling thread, no pool"
    );
}
