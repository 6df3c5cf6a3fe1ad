//! Index-pruned query evaluation over a [`DocumentStore`].
//!
//! A [`StoreQuery`] binds one compiled [`Plan`] to a store and answers it
//! per-document (or corpus-wide, in parallel) using the structural index
//! to do strictly less work than the plain evaluators:
//!
//! 1. **Postings-emptiness reject** — if the plan's facts say the query
//!    needs symbol `a` (`PlanFacts::required_syms`, which every plan
//!    derives from its own regex) and the document's postings for `a` are
//!    empty, the answer is zero without touching a single node: one O(1)
//!    probe per required symbol.
//! 2. **Candidate-range pruning** — `Plan::match_syms` gives the only
//!    labels an accepting node can carry; the union of their postings
//!    (already preorder-sorted per symbol) is the candidate set, and the
//!    traversal then skips every subtree whose preorder range — the
//!    arena's own extent — contains no candidate.
//!    An empty candidate set skips the document entirely, including the
//!    bottom-up automaton run.
//!
//! Both prunes are sound over-approximations (the pruned traversal still
//! runs the full automata over everything it visits), so indexed answers
//! are bit-identical to the unpruned evaluators — the property suites
//! assert exactly that across the mode matrix, for PHR plans and for path
//! plans on the §8 DFA alike.

use hedgex_core::{EvalMode, EvalOutcome, EvalScratch, Plan, PruneInfo};
use hedgex_hedge::{NodeId, SymId};
use hedgex_obs as obs;
use hedgex_par::ParallelEvaluator;

use crate::store::{DocumentStore, StoredDoc};

/// One plan bound to one store, ready to answer in any [`EvalMode`].
pub struct StoreQuery<'a> {
    store: &'a DocumentStore,
    plan: &'a Plan,
    /// Labels an accepting node can carry (`None` = no bound usable).
    match_syms: Option<Vec<SymId>>,
}

impl<'a> StoreQuery<'a> {
    /// Bind `plan` to `store`. The accepting-label bound is computed once
    /// here and reused across every document.
    pub fn new(store: &'a DocumentStore, plan: &'a Plan) -> StoreQuery<'a> {
        let match_syms = plan.match_syms();
        StoreQuery {
            store,
            plan,
            match_syms,
        }
    }

    /// The bound store.
    pub fn store(&self) -> &'a DocumentStore {
        self.store
    }

    /// The accepting-label bound, if one exists.
    pub fn match_syms(&self) -> Option<&[SymId]> {
        self.match_syms.as_deref()
    }

    /// Answer the plan on one stored document. `candidates` is caller
    /// scratch (cleared here) so corpus sweeps reuse one allocation; on
    /// return for [`EvalMode::Locate`], the match set is in
    /// `scratch.located()`.
    pub fn eval_doc_into(
        &self,
        doc: &StoredDoc,
        scratch: &mut EvalScratch,
        candidates: &mut Vec<NodeId>,
        mode: EvalMode,
    ) -> EvalOutcome {
        let _span = obs::span("store.query.doc");
        let ix = doc.index();
        // Prune 1 — answer through the pruned path with zero candidates
        // (uniform zero outcome, located cleared, no automaton run).
        if self.rejected_by_postings(doc) {
            obs::counter_inc("store.docs_pruned");
            let prune_all = PruneInfo { candidates: &[] };
            let (outcome, _) = self
                .plan
                .eval_pruned_into(doc.hedge(), &prune_all, scratch, mode);
            return outcome;
        }
        let Some(ms) = &self.match_syms else {
            // No usable accepting-label bound: fall back to the plain
            // evaluator (identical answers, no pruning).
            return self.plan.eval_into(doc.hedge(), scratch, mode);
        };
        // Prune 2: candidates = union of the accepting labels' postings.
        // Each list is preorder-sorted and the lists are disjoint (one
        // label per node), so a sort of the concatenation is cheap.
        candidates.clear();
        for &a in ms {
            candidates.extend_from_slice(ix.postings(a));
        }
        obs::counter_add("store.postings_hits", candidates.len() as u64);
        candidates.sort_unstable();
        if candidates.is_empty() {
            obs::counter_inc("store.docs_pruned");
        }
        let prune = PruneInfo { candidates };
        let (outcome, skipped) = self
            .plan
            .eval_pruned_into(doc.hedge(), &prune, scratch, mode);
        obs::counter_add("store.ranges_skipped", skipped);
        outcome
    }

    /// Prune 1: a required symbol with empty postings in `doc` proves it
    /// has no matches.
    fn rejected_by_postings(&self, doc: &StoredDoc) -> bool {
        let ix = doc.index();
        self.plan
            .missing_required_sym(|s| !ix.postings(s).is_empty())
    }

    /// Locate matches in every stored document, `jobs`-way parallel.
    /// Result `i` is the preorder match set of document `i`.
    pub fn locate_corpus(&self, jobs: usize) -> Vec<Vec<NodeId>> {
        self.map_corpus(jobs, EvalMode::Locate, |scratch, _| {
            scratch.located().to_vec()
        })
    }

    /// Count matches in every stored document, `jobs`-way parallel.
    pub fn count_corpus(&self, jobs: usize) -> Vec<u64> {
        self.map_corpus(jobs, EvalMode::Count, |_, outcome| outcome.matched())
    }

    /// Does any match exist, per stored document? `jobs`-way parallel.
    pub fn exists_corpus(&self, jobs: usize) -> Vec<bool> {
        self.map_corpus(jobs, EvalMode::Exists, |_, outcome| outcome.is_match())
    }

    fn map_corpus<T: Send>(
        &self,
        jobs: usize,
        mode: EvalMode,
        finish: impl Fn(&EvalScratch, EvalOutcome) -> T + Sync,
    ) -> Vec<T> {
        let docs = self.store.docs();
        // Prune 1 up front: a document whose postings lack a required
        // symbol costs one probe here, not a pool task.
        let live: Vec<usize> = (0..docs.len())
            .filter(|&i| !self.rejected_by_postings(&docs[i]))
            .collect();
        obs::counter_add("store.docs_pruned", (docs.len() - live.len()) as u64);
        let answers = ParallelEvaluator::new(jobs).map_with_scratch(live.len(), |scratch, k| {
            let mut candidates = Vec::new();
            let outcome = self.eval_doc_into(&docs[live[k]], scratch, &mut candidates, mode);
            finish(scratch, outcome)
        });
        let mut answers = live.into_iter().zip(answers).peekable();
        let barren = EvalScratch::new();
        (0..docs.len())
            .map(|i| match answers.next_if(|&(j, _)| j == i) {
                Some((_, answer)) => answer,
                None => finish(&barren, EvalOutcome::none(mode)),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::DocumentStore;
    use hedgex_core::parse_phr;
    use hedgex_hedge::{parse_hedge, Alphabet, FlatHedge};

    fn store_and_alphabet() -> (DocumentStore, Alphabet) {
        let mut ab = Alphabet::new();
        let docs: Vec<(String, FlatHedge)> = [
            "b a<a<b $x> b>",
            "a a<b b<a>> b",
            "b b<b> $x",
            "",
            "a<a<a>>",
        ]
        .iter()
        .enumerate()
        .map(|(i, src)| {
            (
                format!("doc{i}.xml"),
                FlatHedge::from_hedge(&parse_hedge(src, &mut ab).unwrap()),
            )
        })
        .collect();
        let store = DocumentStore::build(ab.clone(), docs);
        (store, ab)
    }

    fn plan_for(query: &str, ab: &mut Alphabet) -> Plan {
        let phr = parse_phr(query, ab).unwrap();
        Plan::compile(&phr)
    }

    #[test]
    fn indexed_corpus_answers_match_plain_evaluation() {
        let (store, mut ab) = store_and_alphabet();
        for query in [
            "[ε ; a ; ε]",
            "[ε ; b ; ε]",
            "[a* ; b ; a*]",
            "([ε ; a ; ε]|[ε ; b ; ε])*",
        ] {
            let plan = plan_for(query, &mut ab);
            let q = StoreQuery::new(&store, &plan);
            let mut scratch = EvalScratch::new();
            for (i, doc) in store.docs().iter().enumerate() {
                let plain = plan.locate_into(doc.hedge(), &mut scratch).to_vec();
                let mut cands = Vec::new();
                let outcome = q.eval_doc_into(doc, &mut scratch, &mut cands, EvalMode::Locate);
                assert_eq!(scratch.located(), &plain[..], "{query} on doc {i}");
                assert_eq!(outcome, EvalOutcome::Located(plain.len()));
                let count = q.eval_doc_into(doc, &mut scratch, &mut cands, EvalMode::Count);
                assert_eq!(count, EvalOutcome::Count(plain.len() as u64));
                let exists = q.eval_doc_into(doc, &mut scratch, &mut cands, EvalMode::Exists);
                assert_eq!(exists, EvalOutcome::Exists(!plain.is_empty()));
            }
            for jobs in [1, 2] {
                let located = q.locate_corpus(jobs);
                let counts = q.count_corpus(jobs);
                let exists = q.exists_corpus(jobs);
                for (i, doc) in store.docs().iter().enumerate() {
                    let plain = plan.locate_into(doc.hedge(), &mut scratch).to_vec();
                    assert_eq!(located[i], plain, "{query} locate doc {i} jobs {jobs}");
                    assert_eq!(counts[i], plain.len() as u64);
                    assert_eq!(exists[i], !plain.is_empty());
                }
            }
        }
    }

    #[test]
    fn queries_over_unknown_symbols_prune_whole_documents() {
        let (store, mut ab) = store_and_alphabet();
        // `c` appears in no stored document: every candidate set is empty.
        let plan = plan_for("[ε ; c ; ε]", &mut ab);
        let q = StoreQuery::new(&store, &plan);
        assert_eq!(
            q.match_syms().map(<[SymId]>::len),
            Some(1),
            "one accepting label"
        );
        assert_eq!(q.count_corpus(1), vec![0; store.len()]);
        assert_eq!(q.exists_corpus(2), vec![false; store.len()]);
    }
}
