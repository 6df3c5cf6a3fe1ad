//! Batch evaluation of compiled plans over the worker pool.
//!
//! Every batch shares the same skeleton: the immutable [`Plan`] (or plan
//! set) is borrowed by every worker, each worker owns one [`EvalScratch`]
//! for its whole lifetime (buffers grow to the largest document it happens
//! to process and are reused across tasks — the warm path of
//! [`Plan::eval_into`], multiplied by cores), and results are returned in
//! input order. A one-worker evaluator degenerates to exactly
//! the sequential loop, which is what `hxq --jobs 1` relies on.

use hedgex_core::plan::Plan;
use hedgex_core::EvalScratch;
use hedgex_hedge::{FlatHedge, NodeId};

use crate::pool;

/// A reusable batch evaluator: a worker count plus the dispatch recipes.
///
/// Construction is free (no threads are kept alive between calls — the
/// pool is scoped per batch), so an evaluator can be created ad hoc
/// wherever a corpus shows up.
#[derive(Debug, Clone)]
pub struct ParallelEvaluator {
    jobs: usize,
}

impl ParallelEvaluator {
    /// An evaluator running `jobs` workers (clamped to at least 1; also
    /// clamped down to the task count at each call site).
    pub fn new(jobs: usize) -> ParallelEvaluator {
        ParallelEvaluator { jobs: jobs.max(1) }
    }

    /// The configured worker count.
    pub fn jobs(&self) -> usize {
        self.jobs
    }

    /// One plan over many documents: `out[i]` is exactly
    /// `plan.locate_into(&docs[i], …)` — the matches of document `i`, in
    /// document order, independent of scheduling.
    pub fn eval_corpus(&self, plan: &Plan, docs: &[FlatHedge]) -> Vec<Vec<NodeId>> {
        pool::run_scoped(
            self.jobs,
            docs.len(),
            |_| EvalScratch::new(),
            |scratch, i| plan.locate_into(&docs[i], scratch).to_vec(),
        )
    }

    /// The generic corpus shape under [`eval_corpus`](Self::eval_corpus):
    /// `out[i] = work(scratch, i)` where each worker owns one
    /// [`EvalScratch`] for its lifetime and results return in input order.
    /// Any other batch — another [`EvalMode`](hedgex_core::EvalMode)
    /// through [`Plan::eval_into`], many plans over one document, or
    /// `hedgex-store` running index-pruned queries over stored documents —
    /// plugs its own per-task closure into the same pool discipline.
    pub fn map_with_scratch<T, W>(&self, tasks: usize, work: W) -> Vec<T>
    where
        T: Send,
        W: Fn(&mut EvalScratch, usize) -> T + Sync,
    {
        pool::run_scoped(self.jobs, tasks, |_| EvalScratch::new(), work)
    }

    /// Evaluate one plan over one document `n` times (a throughput shape:
    /// `hxq --repeat N --jobs J`), returning the matches once. Every run
    /// produces the same answer; only the last run copies it out, so
    /// memory does not grow with `n`.
    pub fn repeat(&self, plan: &Plan, doc: &FlatHedge, n: usize) -> Vec<NodeId> {
        let last = n.max(1) - 1;
        let mut runs = pool::run_scoped(
            self.jobs,
            last + 1,
            |_| EvalScratch::new(),
            |scratch, i| {
                let located = plan.locate_into(doc, scratch);
                (i == last).then(|| located.to_vec())
            },
        );
        runs.pop().flatten().expect("the last run keeps its answer")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_core::phr::parse_phr;
    use hedgex_core::{EvalMode, EvalOutcome};
    use hedgex_hedge::{parse_hedge, Alphabet};

    fn corpus(ab: &mut Alphabet) -> (Plan, Vec<FlatHedge>) {
        let phr = parse_phr("[a* ; b ; a*]", ab).unwrap();
        let plan = Plan::compile(&phr);
        let docs = ["a a b a", "b", "a a a", "b a b", "a b a b a b", ""]
            .iter()
            .map(|src| FlatHedge::from_hedge(&parse_hedge(src, ab).unwrap()))
            .collect();
        (plan, docs)
    }

    #[test]
    fn corpus_results_equal_sequential_for_every_worker_count() {
        let mut ab = Alphabet::new();
        let (plan, docs) = corpus(&mut ab);
        let seq: Vec<Vec<NodeId>> = docs.iter().map(|d| plan.locate(d)).collect();
        for jobs in [1, 2, 3, 7] {
            assert_eq!(
                ParallelEvaluator::new(jobs).eval_corpus(&plan, &docs),
                seq,
                "{jobs} jobs"
            );
        }
    }

    #[test]
    fn count_and_exists_corpus_agree_with_locate() {
        let mut ab = Alphabet::new();
        let (plan, docs) = corpus(&mut ab);
        let counts: Vec<u64> = docs.iter().map(|d| plan.locate(d).len() as u64).collect();
        let count_outcomes: Vec<_> = counts.iter().map(|&n| EvalOutcome::Count(n)).collect();
        let hits: Vec<_> = counts.iter().map(|&n| EvalOutcome::Exists(n > 0)).collect();
        let total: u64 = counts.iter().sum();
        for jobs in [1, 2, 3, 7] {
            let ev = ParallelEvaluator::new(jobs);
            let run =
                |mode| ev.map_with_scratch(docs.len(), |s, i| plan.eval_into(&docs[i], s, mode));
            let count_corpus = run(EvalMode::Count);
            assert_eq!(count_corpus, count_outcomes, "{jobs} jobs");
            let summed: u64 = count_corpus.iter().map(EvalOutcome::matched).sum();
            assert_eq!(summed, total, "{jobs} jobs");
            assert_eq!(run(EvalMode::Exists), hits, "{jobs} jobs");
        }
    }

    #[test]
    fn plan_set_results_equal_sequential() {
        let mut ab = Alphabet::new();
        let plans: Vec<Plan> = ["[ε ; a ; ε]", "[a* ; b ; a*]", "[ε ; b ; a]"]
            .iter()
            .map(|src| Plan::compile(&parse_phr(src, &mut ab).unwrap()))
            .collect();
        let doc = FlatHedge::from_hedge(&parse_hedge("a b a b", &mut ab).unwrap());
        let seq: Vec<Vec<NodeId>> = plans.iter().map(|p| p.locate(&doc)).collect();
        for jobs in [1, 2, 5] {
            let par = ParallelEvaluator::new(jobs)
                .map_with_scratch(plans.len(), |s, i| plans[i].locate_into(&doc, s).to_vec());
            assert_eq!(par, seq);
        }
    }

    #[test]
    fn repeat_returns_the_single_run_answer() {
        let mut ab = Alphabet::new();
        let (plan, docs) = corpus(&mut ab);
        let expected = plan.locate(&docs[0]);
        for jobs in [1, 4] {
            assert_eq!(
                ParallelEvaluator::new(jobs).repeat(&plan, &docs[0], 9),
                expected
            );
        }
    }

    #[test]
    fn zero_jobs_clamps_to_one() {
        assert_eq!(ParallelEvaluator::new(0).jobs(), 1);
    }
}
