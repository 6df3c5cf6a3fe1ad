//! The compile-once / run-many contract: immutable, shareable query plans
//! and a cache keyed by a canonical query hash.
//!
//! [`CompiledPhr::compile`] is exponential-time preprocessing (Section 7);
//! evaluation is linear per hedge. The engine layer makes that split
//! explicit: a [`Plan`] wraps a finished [`CompiledPhr`] — or, for a
//! classical path expression, Section 8's compiled top-down DFA
//! ([`CompiledPath`]) — behind an `Arc` (cloning is a reference-count
//! bump, and the dense tables are `Sync`, so one plan can serve any number
//! of threads), and a [`PlanCache`] hands the same PHR plan back for every
//! re-submission of the same query.
//!
//! The cache key is the *canonical form* of the PHR (its structural debug
//! rendering, invariant under reparsing), hashed to 64 bits. Hash collisions
//! between distinct queries are detected by comparing canonical forms and
//! both plans are kept under the same hash bucket — a colliding query is
//! never served another query's plan.
//!
//! Two cache flavours share that key scheme: [`PlanCache`] is the
//! single-threaded original (`&mut self`, no locks), and
//! [`SharedPlanCache`] is its concurrent sibling — sharded locks plus
//! in-flight dedup so worker threads can `get_or_compile` the same query
//! simultaneously without ever compiling it twice or serializing on one
//! global mutex.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};

use hedgex_hedge::flat::FlatLabel;
use hedgex_hedge::{Alphabet, FlatHedge, NodeId, SymId};
use hedgex_obs as obs;

pub use crate::keys::{canonical_key, fnv1a};
use crate::path_expr::{CompiledPath, PathExpr};
use crate::phr::Phr;
use crate::phr_compile::CompiledPhr;
use crate::two_pass::{self, EvalMode, EvalOutcome, EvalScratch};

/// Facts established about a query by static analysis (the `analyze`
/// crate), attachable to a [`Plan`] via [`Plan::with_facts`].
///
/// The facts are *sound* claims about the query's behaviour on every
/// document: a plan whose query is provably empty answers `locate` with ∅
/// without touching the document, and `required_syms` lists symbols every
/// matching document must contain (a sound prefilter for an index).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PlanFacts {
    /// The query matches nothing on any document (or on any document of
    /// the schema it was analyzed against).
    pub known_empty: bool,
    /// Human-readable reason when `known_empty`.
    pub why_empty: Option<String>,
    /// Symbols present in every document with at least one match.
    pub required_syms: Vec<hedgex_hedge::SymId>,
}

/// An immutable, shareable execution plan for a PHR or a classical path
/// expression.
///
/// `Clone` is cheap (an `Arc` bump); all evaluation state lives in a
/// caller-owned [`EvalScratch`], so one plan may be used from many threads
/// at once. Every entry point — the three modes, the index-pruned run,
/// [`Plan::match_syms`] — serves both backends, so the worker pool and the
/// store never ask which one they hold.
#[derive(Clone)]
pub struct Plan {
    backend: Backend,
    facts: Option<Arc<PlanFacts>>,
}

/// What a plan evaluates with.
#[derive(Clone)]
enum Backend {
    /// Algorithm 1 over a compiled PHR (Section 7).
    Phr(Arc<CompiledPhr>),
    /// The top-down DFA of a classical path expression (Section 8).
    Path(Arc<CompiledPath>),
}

impl Plan {
    /// Compile a PHR into a plan (the cold path; see [`PlanCache`] for the
    /// warm one).
    pub fn compile(phr: &Phr) -> Plan {
        Plan::from_compiled(CompiledPhr::compile(phr))
    }

    /// Wrap an already-compiled PHR.
    pub fn from_compiled(compiled: CompiledPhr) -> Plan {
        Plan {
            backend: Backend::Phr(Arc::new(compiled)),
            facts: None,
        }
    }

    /// Compile a classical path expression into a plan on the §8 DFA,
    /// tabulated over the symbols of `ab` (symbols interned later take the
    /// co-finite column). The plan carries the path's structural facts: its
    /// required symbols, or `known_empty` when it denotes no paths at all.
    pub fn path(path: &PathExpr, ab: &Alphabet) -> Plan {
        let facts = match path.required_syms() {
            Some(required_syms) => PlanFacts {
                known_empty: false,
                why_empty: None,
                required_syms,
            },
            None => PlanFacts {
                known_empty: true,
                why_empty: Some("path expression denotes no paths".into()),
                required_syms: Vec::new(),
            },
        };
        Plan {
            backend: Backend::Path(Arc::new(CompiledPath::compile(path, ab))),
            facts: Some(Arc::new(facts)),
        }
    }

    /// Attach static-analysis facts to this plan. The caller vouches that
    /// the facts describe the same query this plan compiles.
    pub fn with_facts(mut self, facts: PlanFacts) -> Plan {
        self.facts = Some(Arc::new(facts));
        self
    }

    /// The attached analysis facts, if any.
    pub fn facts(&self) -> Option<&PlanFacts> {
        self.facts.as_deref()
    }

    /// The underlying compiled PHR.
    ///
    /// # Panics
    /// On a path plan ([`Plan::path`]), which has no PHR automata.
    pub fn compiled(&self) -> &CompiledPhr {
        match &self.backend {
            Backend::Phr(c) => c,
            Backend::Path(_) => panic!("a path plan has no compiled PHR"),
        }
    }

    fn known_empty(&self) -> bool {
        if self.facts.as_ref().is_some_and(|f| f.known_empty) {
            obs::counter_inc("core.plan.empty_skips");
            true
        } else {
            false
        }
    }

    /// Locate all matches, allocating fresh buffers (cold-equivalent). A
    /// plan proven empty by analysis returns ∅ without reading `h`.
    pub fn locate(&self, h: &FlatHedge) -> Vec<NodeId> {
        let mut scratch = EvalScratch::new();
        self.locate_into(h, &mut scratch);
        scratch.located
    }

    /// Locate all matches into a reused scratch: the warm path. Returns the
    /// matches as a borrow of the scratch. A plan proven empty by analysis
    /// returns ∅ without reading `h`.
    pub fn locate_into<'s>(&self, h: &FlatHedge, scratch: &'s mut EvalScratch) -> &'s [NodeId] {
        self.eval_into(h, scratch, EvalMode::Locate);
        scratch.located()
    }

    /// Sound pre-pass for the cheap modes: if analysis proved some symbols
    /// must appear in every matching document, one O(nodes) label scan can
    /// settle the verdict before any automaton work. Tracks up to 64
    /// required symbols in a bitmask (checking a prefix of the list is
    /// still sound); bails out of the scan as soon as all are seen.
    fn lacks_required_sym(&self, h: &FlatHedge) -> bool {
        let Some(facts) = self.facts.as_deref() else {
            return false;
        };
        if facts.required_syms.is_empty() {
            return false;
        }
        let tracked = facts.required_syms.len().min(64);
        let syms = &facts.required_syms[..tracked];
        let mut missing: u64 = if tracked == 64 {
            u64::MAX
        } else {
            (1u64 << tracked) - 1
        };
        for id in h.preorder() {
            if let FlatLabel::Sym(a) = h.label(id) {
                for (i, &s) in syms.iter().enumerate() {
                    if s == a {
                        missing &= !(1u64 << i);
                    }
                }
                if missing == 0 {
                    return false;
                }
            }
        }
        obs::counter_inc("core.plan.symbol_rejects");
        true
    }

    /// The indexed counterpart of the `lacks_required_sym` label scan:
    /// given an oracle for "does the document contain symbol `a`" (in a
    /// store, one postings-emptiness probe — O(1) per symbol instead of
    /// O(nodes)), report whether some analysis-required symbol is absent.
    /// `true` is a sound proof that the document has no matches.
    pub fn missing_required_sym(&self, has_sym: impl Fn(hedgex_hedge::SymId) -> bool) -> bool {
        let Some(facts) = self.facts.as_deref() else {
            return false;
        };
        if facts.required_syms.iter().any(|&s| !has_sym(s)) {
            obs::counter_inc("core.plan.symbol_rejects");
            true
        } else {
            false
        }
    }

    /// Index-pruned evaluation: the same answer as [`Plan::eval_into`],
    /// visiting only the ancestors-closure of the candidate set (see
    /// [`two_pass::eval_into`]). Returns the outcome plus the number of
    /// subtrees the index pruned.
    pub fn eval_pruned_into(
        &self,
        h: &FlatHedge,
        prune: &two_pass::PruneInfo<'_>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        self.dispatch(h, Some(prune), scratch, mode)
    }

    /// Evaluate in the chosen [`EvalMode`]. The plan itself is
    /// mode-independent — one compiled plan (and one cache entry) serves
    /// locate, count, and exists alike.
    pub fn eval_into(
        &self,
        h: &FlatHedge,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> EvalOutcome {
        self.dispatch(h, None, scratch, mode).0
    }

    /// The one backend dispatch under every entry point. A plan proven
    /// empty by analysis answers without reading the document, and so
    /// does a gate with no candidates: the index proved the document
    /// barren, so not even the bottom-up `M`-run is needed. An ungated PHR
    /// count or exists first tries the required-symbol label scan; a gated
    /// run leaves that to the index, and the path walk never needs it (it
    /// reads each node once at most and stops below dead states).
    fn dispatch(
        &self,
        h: &FlatHedge,
        gate: Option<&two_pass::PruneInfo<'_>>,
        scratch: &mut EvalScratch,
        mode: EvalMode,
    ) -> (EvalOutcome, u64) {
        if self.known_empty() {
            scratch.clear_located();
            return (EvalOutcome::none(mode), 0);
        }
        if gate.is_some_and(|g| g.candidates.is_empty()) {
            scratch.clear_located();
            return (EvalOutcome::none(mode), h.roots().len() as u64);
        }
        match &self.backend {
            Backend::Phr(c) => {
                if gate.is_none() && mode != EvalMode::Locate && self.lacks_required_sym(h) {
                    return (EvalOutcome::none(mode), 0);
                }
                two_pass::eval_into(c, h, gate, scratch, mode)
            }
            Backend::Path(p) => p.eval_into(h, gate, scratch, mode),
        }
    }

    /// A sound bound on the labels a located node can carry (`None` when no
    /// finite list is sound): the index uses their postings as candidates.
    pub fn match_syms(&self) -> Option<Vec<SymId>> {
        match &self.backend {
            Backend::Phr(c) => c.match_syms(),
            Backend::Path(p) => p.match_syms(),
        }
    }
}

/// A cache of compiled plans keyed by canonical query hash.
///
/// Each 64-bit hash owns a bucket of `(canonical form, plan)` pairs: a
/// lookup compares canonical forms within the bucket, so two distinct
/// queries that collide on the hash each get (and keep) their own plan —
/// collisions cost a second compile, never a wrong answer.
pub struct PlanCache {
    hasher: fn(&str) -> u64,
    buckets: HashMap<u64, Vec<(String, Plan)>>,
    hits: u64,
    misses: u64,
}

impl Default for PlanCache {
    fn default() -> Self {
        PlanCache::new()
    }
}

impl PlanCache {
    /// An empty cache using the default FNV-1a hash.
    pub fn new() -> PlanCache {
        PlanCache::with_hasher(fnv1a)
    }

    /// An empty cache with a custom hash function (test hook: a degenerate
    /// hasher forces every query into one bucket, exercising the
    /// collision-rejection path).
    pub fn with_hasher(hasher: fn(&str) -> u64) -> PlanCache {
        PlanCache {
            hasher,
            buckets: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }

    /// The plan for `phr`, compiling at most once per distinct query.
    pub fn get_or_compile(&mut self, phr: &Phr) -> Plan {
        let key = canonical_key(phr);
        let hash = (self.hasher)(&key);
        let bucket = self.buckets.entry(hash).or_default();
        if let Some((_, plan)) = bucket.iter().find(|(k, _)| *k == key) {
            self.hits += 1;
            obs::counter_inc("core.plan_cache.hits");
            return plan.clone();
        }
        // Miss — either a fresh hash or a genuine collision (same hash,
        // different canonical form). Either way the new query gets its own
        // plan appended to the bucket.
        self.misses += 1;
        obs::counter_inc("core.plan_cache.misses");
        let plan = Plan::compile(phr);
        bucket.push((key, plan.clone()));
        plan
    }

    /// The cached plan for `phr`, if present, without compiling.
    pub fn get(&self, phr: &Phr) -> Option<Plan> {
        let key = canonical_key(phr);
        let bucket = self.buckets.get(&(self.hasher)(&key))?;
        bucket
            .iter()
            .find(|(k, _)| *k == key)
            .map(|(_, plan)| plan.clone())
    }

    /// Number of distinct plans held.
    pub fn len(&self) -> usize {
        self.buckets.values().map(Vec::len).sum()
    }

    /// Is the cache empty?
    pub fn is_empty(&self) -> bool {
        self.buckets.is_empty()
    }

    /// Lookups answered from the cache.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to compile.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}

/// Number of independently locked shards in a [`SharedPlanCache`].
///
/// A power of two (the shard pick is a mask over the already-mixed FNV
/// hash) comfortably above typical worker counts, so concurrent
/// `get_or_compile` calls for *different* queries almost never touch the
/// same lock; the cost is 16 mutex+condvar pairs, which is nothing. More
/// shards would buy contention headroom no workload here can use — the
/// critical sections are a bucket probe, microseconds against the
/// milliseconds-to-seconds of a plan compile.
const SHARD_COUNT: usize = 16;

/// A bucket entry: either a finished plan or a claim that some thread is
/// compiling it right now.
enum Slot {
    /// Claimed: the claiming thread is compiling outside the lock. Waiters
    /// sleep on the shard's condvar instead of compiling a duplicate.
    InFlight,
    /// Done: clone and go.
    Ready(Plan),
}

struct Shard {
    /// hash → bucket of `(canonical form, slot)`; collisions are resolved
    /// by canonical-form comparison exactly as in [`PlanCache`].
    slots: Mutex<HashMap<u64, Vec<(String, Slot)>>>,
    /// Signalled whenever a slot in this shard becomes `Ready` (or an
    /// in-flight claim is abandoned).
    ready: Condvar,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    // A panic while holding the lock leaves no broken invariant here (the
    // in-flight guard repairs its own claim), so poisoning is not fatal.
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Removes an abandoned in-flight claim if the compiling thread unwinds,
/// so waiters wake up and recompile instead of sleeping forever.
struct InFlightGuard<'a> {
    shard: &'a Shard,
    hash: u64,
    key: &'a str,
    armed: bool,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        let mut slots = lock(&self.shard.slots);
        if let Some(bucket) = slots.get_mut(&self.hash) {
            bucket.retain(|(k, s)| !(k == self.key && matches!(s, Slot::InFlight)));
        }
        self.shard.ready.notify_all();
    }
}

/// A thread-safe [`PlanCache`]: `get_or_compile` takes `&self`, so one
/// cache (behind an `Arc` or a plain borrow) serves any number of worker
/// threads.
///
/// Two properties matter under concurrency:
///
/// * **Sharding.** The key hash picks one of [`SHARD_COUNT`]
///   independently locked shards; threads resolving different queries
///   proceed in parallel rather than convoying on a single mutex.
/// * **In-flight dedup.** The first thread to miss a query claims it
///   (an [`Slot::InFlight`] marker) and compiles *outside* the lock;
///   threads arriving meanwhile wait on the shard's condvar and are
///   handed the finished plan. Each distinct query is compiled exactly
///   once, ever — a waiter counts as a hit, since it never compiled.
pub struct SharedPlanCache {
    hasher: fn(&str) -> u64,
    shards: Vec<Shard>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for SharedPlanCache {
    fn default() -> Self {
        SharedPlanCache::new()
    }
}

impl SharedPlanCache {
    /// An empty cache using the default FNV-1a hash.
    pub fn new() -> SharedPlanCache {
        SharedPlanCache::with_hasher(fnv1a)
    }

    /// An empty cache with a custom hash function (test hook: a degenerate
    /// hasher piles every query onto one shard and one bucket, exercising
    /// both the collision-rejection and the contention paths).
    pub fn with_hasher(hasher: fn(&str) -> u64) -> SharedPlanCache {
        SharedPlanCache {
            hasher,
            shards: (0..SHARD_COUNT)
                .map(|_| Shard {
                    slots: Mutex::new(HashMap::new()),
                    ready: Condvar::new(),
                })
                .collect(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shard_for(&self, hash: u64) -> &Shard {
        &self.shards[(hash as usize) & (SHARD_COUNT - 1)]
    }

    /// The plan for `phr`, compiling at most once per distinct query
    /// across all threads. Concurrent callers of the same cold query
    /// block until its one compile finishes (counted as hits — they did
    /// not compile); callers of other queries are unaffected unless they
    /// share the same shard, and even then only for the bucket probe.
    pub fn get_or_compile(&self, phr: &Phr) -> Plan {
        let key = canonical_key(phr);
        let hash = (self.hasher)(&key);
        let shard = self.shard_for(hash);

        let mut slots = lock(&shard.slots);
        // Wait-vs-compile attribution: `wait` covers time blocked behind
        // another thread's in-flight compile (a span so the trace shows the
        // stall, a histogram so summaries quantify it); the compile path
        // below gets the same pair.
        let mut wait: Option<(obs::Span, std::time::Instant)> = None;
        loop {
            // Probe under the lock; classify without holding borrows
            // across the wait.
            enum Probe {
                Ready(Plan),
                InFlight,
                Absent,
            }
            let probe = match slots
                .get(&hash)
                .and_then(|b| b.iter().find(|(k, _)| *k == key))
            {
                Some((_, Slot::Ready(plan))) => Probe::Ready(plan.clone()),
                Some((_, Slot::InFlight)) => Probe::InFlight,
                None => Probe::Absent,
            };
            match probe {
                Probe::Ready(plan) => {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    obs::counter_inc("core.plan_cache.shared.hits");
                    if let Some((span, started)) = wait.take() {
                        obs::histogram_record(
                            "core.plan_cache.shared.wait_ns",
                            started.elapsed().as_nanos() as u64,
                        );
                        drop(span);
                    }
                    return plan;
                }
                Probe::InFlight => {
                    if wait.is_none() {
                        wait = Some((obs::span("core.plan_cache.wait"), std::time::Instant::now()));
                    }
                    slots = shard
                        .ready
                        .wait(slots)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                Probe::Absent => {
                    slots
                        .entry(hash)
                        .or_default()
                        .push((key.clone(), Slot::InFlight));
                    break;
                }
            }
        }
        drop(slots);
        drop(wait); // raced a finishing compile and won the re-claim

        // Our claim: compile outside the lock so other shard traffic (and
        // other queries colliding into this bucket) keeps flowing.
        self.misses.fetch_add(1, Ordering::Relaxed);
        obs::counter_inc("core.plan_cache.shared.misses");
        let mut guard = InFlightGuard {
            shard,
            hash,
            key: &key,
            armed: true,
        };
        let compile_started = std::time::Instant::now();
        let plan = {
            let _span = obs::span("core.plan_cache.compile");
            Plan::compile(phr)
        };
        obs::histogram_record(
            "core.plan_cache.shared.compile_ns",
            compile_started.elapsed().as_nanos() as u64,
        );
        let mut slots = lock(&shard.slots);
        let bucket = slots.get_mut(&hash).expect("claimed bucket exists");
        let slot = bucket
            .iter_mut()
            .find(|(k, _)| *k == key)
            .expect("claimed slot exists");
        slot.1 = Slot::Ready(plan.clone());
        guard.armed = false;
        drop(slots);
        shard.ready.notify_all();
        plan
    }

    /// The cached plan for `phr`, if finished, without compiling or
    /// waiting (an in-flight compile reads as absent).
    pub fn get(&self, phr: &Phr) -> Option<Plan> {
        let key = canonical_key(phr);
        let hash = (self.hasher)(&key);
        let slots = lock(&self.shard_for(hash).slots);
        slots
            .get(&hash)?
            .iter()
            .find_map(|(k, s)| match (k == &key, s) {
                (true, Slot::Ready(plan)) => Some(plan.clone()),
                _ => None,
            })
    }

    /// Number of finished plans held (in-flight compiles excluded).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|sh| {
                lock(&sh.slots)
                    .values()
                    .flatten()
                    .filter(|(_, s)| matches!(s, Slot::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// Is the cache empty (no finished plans)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered from the cache (including waits on an in-flight
    /// compile — the caller got a plan it did not compile).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that claimed and performed a compile.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use hedgex_hedge::{parse_hedge, Alphabet};

    /// One run in `mode` on a fresh scratch.
    fn cold(plan: &Plan, h: &FlatHedge, mode: EvalMode) -> EvalOutcome {
        plan.eval_into(h, &mut EvalScratch::new(), mode)
    }

    #[test]
    fn plan_clone_shares_the_compiled_phr() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let p1 = Plan::compile(&phr);
        let p2 = p1.clone();
        assert!(std::ptr::eq(p1.compiled(), p2.compiled()));
    }

    #[test]
    fn plan_locate_matches_two_pass() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let plan = Plan::compile(&phr);
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        assert_eq!(plan.locate(&f), vec![2]);
        let mut scratch = EvalScratch::new();
        assert_eq!(plan.locate_into(&f, &mut scratch), &[2]);
    }

    #[test]
    fn known_empty_facts_short_circuit_both_locate_paths() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        // The document does match — but facts override with a proof of ∅
        // (here fabricated, in production supplied by the analyzer), so
        // both paths must return empty without evaluating.
        let plan = Plan::compile(&phr).with_facts(PlanFacts {
            known_empty: true,
            why_empty: Some("test".into()),
            required_syms: Vec::new(),
        });
        assert!(plan.locate(&f).is_empty());
        let mut scratch = EvalScratch::new();
        // Seed the scratch with stale matches to prove they are cleared.
        let unfazed = Plan::compile(&phr);
        assert_eq!(unfazed.locate_into(&f, &mut scratch), &[2]);
        assert!(plan.locate_into(&f, &mut scratch).is_empty());
        // Non-empty facts leave evaluation untouched.
        let live = Plan::compile(&phr).with_facts(PlanFacts::default());
        assert_eq!(live.locate(&f), vec![2]);
    }

    #[test]
    fn plan_modes_agree_and_short_circuit() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let h = parse_hedge("b a<a<b $x> b>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let plan = Plan::compile(&phr);
        let mut scratch = EvalScratch::new();
        assert_eq!(cold(&plan, &f, EvalMode::Count), EvalOutcome::Count(1));
        assert_eq!(cold(&plan, &f, EvalMode::Exists), EvalOutcome::Exists(true));
        assert_eq!(
            plan.eval_into(&f, &mut scratch, EvalMode::Locate),
            EvalOutcome::Located(1)
        );
        assert_eq!(
            plan.eval_into(&f, &mut scratch, EvalMode::Count),
            EvalOutcome::Count(1)
        );
        assert_eq!(
            plan.eval_into(&f, &mut scratch, EvalMode::Exists),
            EvalOutcome::Exists(true)
        );
        // known_empty overrides all modes without reading the document.
        let empty = Plan::compile(&phr).with_facts(PlanFacts {
            known_empty: true,
            why_empty: Some("test".into()),
            required_syms: Vec::new(),
        });
        assert_eq!(cold(&empty, &f, EvalMode::Count), EvalOutcome::Count(0));
        assert_eq!(
            cold(&empty, &f, EvalMode::Exists),
            EvalOutcome::Exists(false)
        );
    }

    #[test]
    fn required_symbol_quick_reject_gates_count_and_exists() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let matching = FlatHedge::from_hedge(&parse_hedge("b a<a<b $x> b>", &mut ab).unwrap());
        let lacks_b = FlatHedge::from_hedge(&parse_hedge("a<a>", &mut ab).unwrap());
        let plan = Plan::compile(&phr).with_facts(PlanFacts {
            known_empty: false,
            why_empty: None,
            required_syms: vec![a, b],
        });
        // The scan sees every required symbol → evaluation runs normally.
        assert_eq!(
            cold(&plan, &matching, EvalMode::Count),
            EvalOutcome::Count(1)
        );
        assert_eq!(
            cold(&plan, &matching, EvalMode::Exists),
            EvalOutcome::Exists(true)
        );
        // `b` never occurs → rejected by the label scan; the answer still
        // agrees with full evaluation.
        assert_eq!(
            cold(&plan, &lacks_b, EvalMode::Count),
            EvalOutcome::Count(0)
        );
        assert_eq!(
            cold(&plan, &lacks_b, EvalMode::Exists),
            EvalOutcome::Exists(false)
        );
        assert!(plan.locate(&lacks_b).is_empty());
    }

    #[test]
    fn path_plans_answer_every_mode_and_carry_structural_facts() {
        let mut ab = Alphabet::new();
        let path = crate::parse_path("a* b", &mut ab).unwrap();
        let plan = Plan::path(&path, &ab);
        assert_eq!(
            plan.facts().map(|f| f.required_syms.clone()),
            Some(vec![ab.get_sym("b").unwrap()])
        );
        let f = FlatHedge::from_hedge(&parse_hedge("a<a<b> c<b>> b", &mut ab).unwrap());
        let want = path.locate(&f);
        assert_eq!(plan.locate(&f), want);
        assert_eq!(
            cold(&plan, &f, EvalMode::Count),
            EvalOutcome::Count(want.len() as u64)
        );
        assert_eq!(cold(&plan, &f, EvalMode::Exists), EvalOutcome::Exists(true));
        // A path denoting no paths at all is known empty.
        let none = crate::PathExpr {
            regex: hedgex_automata::Regex::Empty,
        };
        let empty = Plan::path(&none, &ab);
        assert!(empty.facts().is_some_and(|f| f.known_empty));
        assert!(empty.locate(&f).is_empty());
    }

    #[test]
    #[should_panic(expected = "a path plan has no compiled PHR")]
    fn path_plans_have_no_compiled_phr() {
        let mut ab = Alphabet::new();
        let path = crate::parse_path("a", &mut ab).unwrap();
        Plan::path(&path, &ab).compiled();
    }

    #[test]
    fn cache_compiles_each_query_once() {
        let mut ab = Alphabet::new();
        let p1 = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let p2 = parse_phr("[ε ; b ; ε]", &mut ab).unwrap();
        let mut cache = PlanCache::new();
        let a1 = cache.get_or_compile(&p1);
        let _ = cache.get_or_compile(&p2);
        let a2 = cache.get_or_compile(&p1);
        assert!(std::ptr::eq(a1.compiled(), a2.compiled()));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn reparsed_query_hits_the_same_plan() {
        let mut ab = Alphabet::new();
        let once = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let twice = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let mut cache = PlanCache::new();
        let p1 = cache.get_or_compile(&once);
        let p2 = cache.get_or_compile(&twice);
        assert!(std::ptr::eq(p1.compiled(), p2.compiled()));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn hash_collisions_keep_plans_apart() {
        // A degenerate hasher sends every query to one bucket: distinct
        // queries must still get distinct plans and correct answers.
        let mut ab = Alphabet::new();
        let pa = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let pb = parse_phr("[ε ; b ; ε]", &mut ab).unwrap();
        let mut cache = PlanCache::with_hasher(|_| 42);
        let plan_a = cache.get_or_compile(&pa);
        let plan_b = cache.get_or_compile(&pb);
        assert!(!std::ptr::eq(plan_a.compiled(), plan_b.compiled()));
        assert_eq!(cache.len(), 2);
        // Both survive in the cache and re-resolve correctly.
        let again_a = cache.get_or_compile(&pa);
        let again_b = cache.get_or_compile(&pb);
        assert!(std::ptr::eq(plan_a.compiled(), again_a.compiled()));
        assert!(std::ptr::eq(plan_b.compiled(), again_b.compiled()));
        // And they answer differently, proving no cross-service.
        let fa = FlatHedge::from_hedge(&parse_hedge("a", &mut ab).unwrap());
        let fb = FlatHedge::from_hedge(&parse_hedge("b", &mut ab).unwrap());
        assert_eq!(plan_a.locate(&fa), vec![0]);
        assert_eq!(plan_a.locate(&fb), Vec::<NodeId>::new());
        assert_eq!(plan_b.locate(&fb), vec![0]);
    }

    #[test]
    fn shared_cache_matches_plan_cache_semantics() {
        let mut ab = Alphabet::new();
        let p1 = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let p2 = parse_phr("[ε ; b ; ε]", &mut ab).unwrap();
        let cache = SharedPlanCache::new();
        assert!(cache.is_empty());
        assert!(cache.get(&p1).is_none());
        let a1 = cache.get_or_compile(&p1);
        let _ = cache.get_or_compile(&p2);
        let a2 = cache.get_or_compile(&p1);
        assert!(std::ptr::eq(a1.compiled(), a2.compiled()));
        assert!(std::ptr::eq(
            a1.compiled(),
            cache.get(&p1).unwrap().compiled()
        ));
        assert_eq!(cache.len(), 2);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn shared_cache_keeps_colliding_plans_apart() {
        // Degenerate hasher: one shard, one bucket, every query collides.
        let mut ab = Alphabet::new();
        let pa = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let pb = parse_phr("[ε ; b ; ε]", &mut ab).unwrap();
        let cache = SharedPlanCache::with_hasher(|_| 42);
        let plan_a = cache.get_or_compile(&pa);
        let plan_b = cache.get_or_compile(&pb);
        assert!(!std::ptr::eq(plan_a.compiled(), plan_b.compiled()));
        assert_eq!(cache.len(), 2);
        let fa = FlatHedge::from_hedge(&parse_hedge("a", &mut ab).unwrap());
        assert_eq!(plan_a.locate(&fa), vec![0]);
        assert_eq!(plan_b.locate(&fa), Vec::<NodeId>::new());
    }

    #[test]
    fn fnv1a_is_deterministic_and_spreads() {
        assert_eq!(fnv1a(""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a("abc"), fnv1a("abc"));
        assert_ne!(fnv1a("abc"), fnv1a("abd"));
    }
}
