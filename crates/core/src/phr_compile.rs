//! Theorem 4: compiling a pointed hedge representation into the evaluation
//! triplet `(M, ≡, L)`.
//!
//! * `M` — one deterministic hedge automaton shared by every `e_{i1}`,
//!   `e_{i2}` of the representation. The paper's "without loss of
//!   generality they share `Q`, `ι`, `α`" is realized by the cross product
//!   of the individually compiled automata (`product_many`), with each
//!   original final set lifted to the product states. Equal expressions
//!   are compiled, determinized and reduced once and enter the product as
//!   one factor: the universal `U` that fills most sibling slots costs one
//!   component however many slots it fills, and every slot it fills reads
//!   its lifted final set.
//! * `≡` — a right-invariant equivalence of finite index over `Q*`
//!   saturating every lifted final set ([`SaturatingClasses`]): its classes
//!   are the states of the product DFA tracking all the `F_{ij}` at once.
//! * `L` — the regular set over `(Q*/≡) × Σ × (Q*/≡)` obtained from the
//!   PHR's regex by the homomorphism `ξ` (Theorem 4). The cubic concrete
//!   alphabet is never materialized: a concrete symbol `(C₁, a, C₂)` is
//!   represented by its *signature* — the set of triplets it satisfies —
//!   and the mirror automaton `N` is determinized at compile time over the
//!   (finitely many) signatures the class space can produce.
//!
//! Everything evaluation touches per node is a **dense table** laid out at
//! compile time: signatures factor as bitmask intersections
//! `elder_mask[C₁] & label_mask[a] & younger_mask[C₂]`, the distinct masks
//! per position are interned as *kinds*, and a 3-dimensional `col3` table
//! maps a kind triple straight to a column of `N`'s transition table. A
//! [`CompiledPhr`] is therefore immutable after compilation (`Send + Sync`),
//! which is what lets [`crate::plan::Plan`] share it behind an `Arc`.

use std::collections::HashMap;

use hedgex_automata::{DenseDfa, Nfa, SaturatingClasses, StateId, Worklist};
use hedgex_ha::product::product_many;
use hedgex_ha::{determinize, reduce_dha, Dha, HState};
use hedgex_hedge::SymId;
use hedgex_obs as obs;

use crate::compile::compile_hre;
use crate::hre::Hre;
use crate::phr::{Phr, MAX_TRIPLETS};

/// A signature: the set of triplets a concrete `(C₁, a, C₂)` symbol
/// satisfies, as a bitmask (PHRs are limited to 64 triplets).
pub type SigMask = u64;

/// Construction-size statistics recorded while compiling a PHR, the raw
/// material of the plan sizes in a `hedgex::run` report.
#[derive(Debug, Clone, Default)]
pub struct PhrStats {
    /// Per component automaton (elder, younger for each triplet in order):
    /// `(NHA states, DHA states)` — the Theorem 1 blowup, componentwise.
    pub components: Vec<(u32, u32)>,
    /// Per component: DHA states after dead-state reduction, parallel to
    /// `components`. Equal to the raw DHA size when reduction is off.
    pub reduced_components: Vec<u32>,
}

impl PhrStats {
    /// Summed NHA states across components.
    pub fn total_nha_states(&self) -> u64 {
        self.components.iter().map(|&(n, _)| u64::from(n)).sum()
    }

    /// Summed DHA states across components.
    pub fn total_dha_states(&self) -> u64 {
        self.components.iter().map(|&(_, d)| u64::from(d)).sum()
    }

    /// Summed component DHA states after reduction.
    pub fn total_reduced_states(&self) -> u64 {
        self.reduced_components.iter().map(|&d| u64::from(d)).sum()
    }

    /// Component states eliminated by the reduction pass.
    pub fn pruned_states(&self) -> u64 {
        self.total_dha_states() - self.total_reduced_states()
    }

    /// Determinization blowup: summed DHA states / summed NHA states.
    pub fn blowup_ratio(&self) -> f64 {
        self.total_dha_states() as f64 / self.total_nha_states().max(1) as f64
    }
}

/// The compiled form of a pointed hedge representation (Theorem 4).
pub struct CompiledPhr {
    /// The shared deterministic hedge automaton `M` (its `F` is unused, as
    /// in the theorem's `(Σ, X, Q, α, ι, ∅)`).
    pub m: Dha,
    /// The right-invariant equivalence `≡`: classes are its states; member
    /// languages `2i` / `2i+1` are the lifted `F_{i1}` / `F_{i2}`.
    pub classes: SaturatingClasses,
    /// Sizes recorded during compilation.
    pub stats: PhrStats,
    /// Triplet labels `a_i`.
    labels: Vec<SymId>,
    /// The dense execution tables (see [`Engine`]).
    engine: Engine,
}

/// The dense evaluation tables of a compiled PHR. Built once by
/// [`CompiledPhr::compile`]; every per-node step afterwards is an array
/// index — no hashing, no interior mutability, no allocation.
struct Engine {
    /// Number of ≡-classes.
    ncl: usize,
    /// `≡`'s transition table, state-major: `class_step[q · ncl + c]` is the
    /// class of `w·q` when `c` is the class of `w`. The row for `q` is
    /// exactly the transition function `δ_q` Algorithm 1 composes.
    class_step: Vec<u32>,
    /// Per class `C₁`: bit `i` set iff `C₁ ⊆ F_{i1}`.
    elder_mask: Vec<SigMask>,
    /// Per class `C₂`: bit `i` set iff `C₂ ⊆ F_{i2}`.
    younger_mask: Vec<SigMask>,
    /// `SymId`-indexed: bit `i` set iff `a = a_i`; out of range → 0.
    label_mask: Vec<SigMask>,
    /// Class → index of its distinct elder mask (kind).
    elder_kind: Vec<u32>,
    /// Class → index of its distinct younger mask.
    younger_kind: Vec<u32>,
    /// `SymId` → index of its distinct label mask; out of range →
    /// `zero_label_kind`.
    label_kind: Vec<u32>,
    /// The kind of the all-zero label mask (symbols labelling no triplet).
    zero_label_kind: u32,
    /// Number of distinct label / younger kinds (strides of `col3`).
    n_label_kinds: usize,
    n_younger_kinds: usize,
    /// `(elder kind, label kind, younger kind)` → column of `n`:
    /// `col3[(e · n_label_kinds + l) · n_younger_kinds + y]`.
    col3: Vec<u32>,
    /// The achievable signatures — `N`'s concrete alphabet.
    sigs: Vec<SigMask>,
    /// Signature → column (only consulted by the mask-taking [`n_step`]
    /// entry point, never in per-node loops).
    ///
    /// [`n_step`]: CompiledPhr::n_step
    sig_idx: HashMap<SigMask, u32>,
    /// `N` determinized over `sigs`: letter `i` is `sigs[i]`, and the
    /// co-finite column, taken by masks no class/label combination can
    /// produce, steps like the all-zero signature. Its live states are
    /// those from which a final state is still reachable: a dead one
    /// proves a whole subtree barren.
    n: DenseDfa,
}

impl CompiledPhr {
    /// Compile a PHR. Exponential-time preprocessing (determinization of
    /// the component automata, of `≡`, and of the mirror automaton `N`), as
    /// Section 7 states; evaluation afterwards is linear per hedge.
    ///
    /// Component automata are dead-state reduced before the shared product
    /// (see [`CompiledPhr::compile_with`] to opt out).
    pub fn compile(phr: &Phr) -> CompiledPhr {
        CompiledPhr::compile_with(phr, true)
    }

    /// Compile with explicit control over dead-state reduction. Reduction
    /// runs [`reduce_dha`] on every component between determinization and
    /// the product: `F`-dead letters are normalized away and congruent
    /// states merged, so states no accepting run can use never get
    /// `class_step` rows. The reduced components compute the same
    /// `sibling sequence ↦ F-membership` functions on every input, so
    /// match sets are identical either way — `compile_with(phr, false)`
    /// exists for benchmarks and property tests that verify exactly that.
    pub fn compile_with(phr: &Phr, reduce: bool) -> CompiledPhr {
        assert!(
            phr.triplets.len() <= MAX_TRIPLETS,
            "pointed hedge representations are limited to {MAX_TRIPLETS} triplets"
        );
        let _span = obs::span("core.phr_compile");
        // Compile every distinct e_i1, e_i2 once and take the shared
        // product of those; `rep[j]` is side j's factor (sides in triplet
        // order, elder before younger). `PhrStats` keeps one entry per
        // side, a repeated one reporting its factor's sizes.
        let mut stats = PhrStats::default();
        let mut distinct: Vec<(&Hre, Dha, (u32, u32))> = Vec::new();
        let mut rep: Vec<usize> = Vec::new();
        for e in phr.triplets.iter().flat_map(|t| [&t.elder, &t.younger]) {
            let r = match distinct.iter().position(|(seen, ..)| *seen == e) {
                Some(r) => r,
                None => {
                    let nha = compile_hre(e);
                    let mut dha = determinize(&nha).dha;
                    let sizes = (nha.num_states(), dha.num_states());
                    if reduce {
                        let _span = obs::span("core.phr_compile.reduce");
                        dha = reduce_dha(&dha).0;
                    }
                    distinct.push((e, dha, sizes));
                    distinct.len() - 1
                }
            };
            let (_, dha, sizes) = &distinct[r];
            stats.components.push(*sizes);
            stats.reduced_components.push(dha.num_states());
            rep.push(r);
        }
        let refs: Vec<&Dha> = distinct.iter().map(|(_, dha, _)| dha).collect();
        let prod = product_many(&refs);
        let alphabet: Vec<HState> = (0..prod.dha.num_states()).collect();
        let classes = {
            let _span = obs::span("core.phr_compile.classes");
            let sides: Vec<_> = rep.iter().map(|&r| prod.lifted_finals[r].clone()).collect();
            SaturatingClasses::build(&sides, &alphabet)
        };
        let labels: Vec<SymId> = phr.triplets.iter().map(|t| t.label).collect();
        // N accepts the mirror of L: reverse the triplet regex, then read it
        // top-down during the second traversal.
        let engine = {
            let _span = obs::span("core.phr_compile.engine");
            Engine::build(
                &prod.dha,
                &classes,
                &labels,
                Nfa::from_regex(&phr.regex).reverse(),
            )
        };
        obs::counter_inc("core.phr_compile.calls");
        obs::counter_add(
            "core.phr_compile.m_states",
            u64::from(prod.dha.num_states()),
        );
        obs::counter_add("core.phr_compile.eq_classes", classes.num_classes() as u64);
        obs::counter_add("core.phr_compile.n_states", engine.n.num_states() as u64);
        obs::counter_add("core.phr_compile.pruned_states", stats.pruned_states());
        obs::event("core.phr_compile", || {
            format!(
                "triplets={} nha_states={} dha_states={} reduced_states={} pruned={} \
                 m_states={} eq_classes={} n_states={} signatures={}",
                phr.triplets.len(),
                stats.total_nha_states(),
                stats.total_dha_states(),
                stats.total_reduced_states(),
                stats.pruned_states(),
                prod.dha.num_states(),
                classes.num_classes(),
                engine.n.num_states(),
                engine.sigs.len()
            )
        });
        CompiledPhr {
            m: prod.dha,
            classes,
            stats,
            labels,
            engine,
        }
    }

    /// Number of mirror-automaton states. The dense engine determinizes `N`
    /// over every achievable signature at compile time, so this is the full
    /// reachable state count of Theorem 4's `(S, μ, s₀, S_fin)`.
    pub fn n_states_materialized(&self) -> usize {
        self.engine.n.num_states()
    }

    /// Number of distinct achievable signatures (`N`'s concrete alphabet).
    pub fn num_signatures(&self) -> usize {
        self.engine.sigs.len()
    }

    /// Number of triplets.
    pub fn num_triplets(&self) -> usize {
        self.labels.len()
    }

    /// The signature of a concrete symbol `(C₁, a, C₂)`: which triplets
    /// `(e_{i1}, a_i, e_{i2})` does it satisfy? By saturation, membership
    /// of the elder/younger words in `F_{i1}`/`F_{i2}` is a function of
    /// their classes — this is exactly the homomorphism `ξ` of Theorem 4,
    /// evaluated pointwise. One three-way mask intersection; no hashing.
    #[inline]
    pub fn signature(&self, c1: u32, a: SymId, c2: u32) -> SigMask {
        self.engine.elder_mask[c1 as usize]
            & self
                .engine
                .label_mask
                .get(a.0 as usize)
                .copied()
                .unwrap_or(0)
            & self.engine.younger_mask[c2 as usize]
    }

    /// Extend class `c` by one `M`-state on the right (right-invariance):
    /// the dense equivalent of `classes.step`, requiring `q < |Q|` — which
    /// every state produced by `M`'s runs satisfies.
    #[inline]
    pub(crate) fn class_step(&self, c: u32, q: HState) -> u32 {
        self.engine.class_step[q as usize * self.engine.ncl + c as usize]
    }

    /// The transition function `δ_q` over classes, as a borrowed table row
    /// (what Algorithm 1's right-to-left suffix pass composes). Requires
    /// `q < |Q|`.
    #[inline]
    pub(crate) fn class_step_row(&self, q: HState) -> &[u32] {
        let ncl = self.engine.ncl;
        &self.engine.class_step[q as usize * ncl..(q as usize + 1) * ncl]
    }

    /// Step the mirror automaton `N` (used top-down by Algorithm 1). Takes
    /// an explicit signature mask; masks no class/label combination can
    /// produce take the co-finite column, which steps like the all-zero
    /// signature, matching the lazy determinization's behaviour on dead
    /// input.
    pub fn n_step(&self, s: u32, sig: SigMask) -> u32 {
        let col = self.engine.sig_idx.get(&sig).copied().unwrap_or(u32::MAX);
        self.engine.n.step(s, col)
    }

    /// The fused per-node step of the second traversal:
    /// `μ((C₁, a, C₂), parent)` resolved through the precomputed kind
    /// tables — two class-indexed loads, one `col3` load, one table step.
    #[inline]
    pub(crate) fn n_transition(&self, parent: u32, c1: u32, a: SymId, c2: u32) -> u32 {
        let e = self.engine.elder_kind[c1 as usize] as usize;
        let l = self
            .engine
            .label_kind
            .get(a.0 as usize)
            .copied()
            .unwrap_or(self.engine.zero_label_kind) as usize;
        let y = self.engine.younger_kind[c2 as usize] as usize;
        let col = self.engine.col3
            [(e * self.engine.n_label_kinds + l) * self.engine.n_younger_kinds + y]
            as usize;
        self.engine.n.cell(parent, col)
    }

    /// `N`'s start state.
    pub fn n_start(&self) -> u32 {
        self.engine.n.start()
    }

    /// Is `s` a final state of `N` (i.e. the decomposition read so far, in
    /// mirror order, spells a word of `L`)?
    #[inline]
    pub fn n_accepting(&self, s: u32) -> bool {
        self.engine.n.is_accepting(s)
    }

    /// Is any final state of `N` still reachable from `s` (in zero or more
    /// steps over the achievable signatures)? A `false` answer is a sound
    /// proof that no *descendant* of a node in state `s` can be located:
    /// every descendant's state extends `s` by more signatures, and a dead
    /// state stays dead. The evaluation walk prunes whole subtrees
    /// on this bit.
    #[inline]
    pub fn n_live(&self, s: u32) -> bool {
        self.engine.n.is_live(s)
    }

    /// A sound over-approximation of the symbols that can label a located
    /// node: label kind `l` *can accept* iff some `N`-state, stepped by
    /// some achievable `(elder kind, l, younger kind)` column, lands on an
    /// accepting state. Every located node takes exactly one such step
    /// (with its actual parent state and sibling classes, which are inside
    /// the quantified space), so a symbol whose kind cannot accept is
    /// provably absent from every match set — the justification for
    /// restricting evaluation to an index's candidate postings.
    ///
    /// Returns `None` when the all-zero label kind can accept: then
    /// symbols labelling no triplet (including symbols the query has never
    /// seen) may match, and no finite symbol list is a sound restriction.
    pub fn match_syms(&self) -> Option<Vec<SymId>> {
        let e = &self.engine;
        let lk_yk = e.n_label_kinds * e.n_younger_kinds;
        let n_elder_kinds = e.col3.len().checked_div(lk_yk).unwrap_or(0);
        let kind_accepts: Vec<bool> = (0..e.n_label_kinds)
            .map(|l| {
                (0..n_elder_kinds).any(|ek| {
                    (0..e.n_younger_kinds).any(|y| {
                        let col =
                            e.col3[(ek * e.n_label_kinds + l) * e.n_younger_kinds + y] as usize;
                        (0..e.n.num_states() as u32).any(|s| e.n.is_accepting(e.n.cell(s, col)))
                    })
                })
            })
            .collect();
        if kind_accepts[e.zero_label_kind as usize] {
            return None;
        }
        Some(
            (0..e.label_kind.len())
                .filter(|&a| kind_accepts[e.label_kind[a] as usize])
                .map(|a| SymId(a as u32))
                .collect(),
        )
    }
}

impl Engine {
    /// Lay out every dense table: the state-major class-step table, the
    /// three mask families with their kind interning, the achievable
    /// signature alphabet, `N` determinized over it, and the `col3` map
    /// from kind triples to `N`-table columns.
    fn build(m: &Dha, classes: &SaturatingClasses, labels: &[SymId], n_nfa: Nfa<u32>) -> Engine {
        let ncl = classes.num_classes();
        let num_states = m.num_states();

        // ≡'s transitions, state-major, so δ_q is a contiguous row.
        let mut class_step = vec![0u32; num_states as usize * ncl];
        for c in 0..ncl as u32 {
            let row = classes.dfa().row(c);
            for q in 0..num_states as usize {
                class_step[q * ncl + c as usize] = row[q];
            }
        }

        // Signature factorization: sig(C₁, a, C₂) = E[C₁] & L[a] & Y[C₂].
        let mut elder_mask = vec![0 as SigMask; ncl];
        let mut younger_mask = vec![0 as SigMask; ncl];
        for c in 0..ncl {
            for i in 0..labels.len() {
                if classes.class_in_lang(c as u32, 2 * i) {
                    elder_mask[c] |= 1 << i;
                }
                if classes.class_in_lang(c as u32, 2 * i + 1) {
                    younger_mask[c] |= 1 << i;
                }
            }
        }
        let label_width = labels.iter().map(|a| a.0 as usize + 1).max().unwrap_or(0);
        let mut label_mask = vec![0 as SigMask; label_width];
        for (i, a) in labels.iter().enumerate() {
            label_mask[a.0 as usize] |= 1 << i;
        }

        // Intern each mask family's distinct values as kinds.
        let intern_kinds = |masks: &[SigMask]| -> (Vec<SigMask>, Vec<u32>) {
            let mut kinds: Vec<SigMask> = Vec::new();
            let mut idx: HashMap<SigMask, u32> = HashMap::new();
            let kind_of = masks
                .iter()
                .map(|&m| {
                    *idx.entry(m).or_insert_with(|| {
                        kinds.push(m);
                        (kinds.len() - 1) as u32
                    })
                })
                .collect();
            (kinds, kind_of)
        };
        let (elder_kinds, elder_kind) = intern_kinds(&elder_mask);
        let (younger_kinds, younger_kind) = intern_kinds(&younger_mask);
        // The zero mask must be a label kind: symbols outside the table (or
        // labelling no triplet) produce it.
        let mut label_masks_with_zero = label_mask.clone();
        label_masks_with_zero.push(0);
        let (label_kinds, mut label_kind) = intern_kinds(&label_masks_with_zero);
        let zero_label_kind = label_kind.pop().expect("zero mask was appended");

        // The achievable signatures are exactly the kind-triple products;
        // enumerate them once and determinize N against that alphabet.
        let mut sigs: Vec<SigMask> = Vec::new();
        let mut sig_idx: HashMap<SigMask, u32> = HashMap::new();
        let n_label_kinds = label_kinds.len();
        let n_younger_kinds = younger_kinds.len();
        let mut col3 = vec![0u32; elder_kinds.len() * n_label_kinds * n_younger_kinds];
        for (e, &em) in elder_kinds.iter().enumerate() {
            for (l, &lm) in label_kinds.iter().enumerate() {
                for (y, &ym) in younger_kinds.iter().enumerate() {
                    let sig = em & lm & ym;
                    let col = *sig_idx.entry(sig).or_insert_with(|| {
                        sigs.push(sig);
                        (sigs.len() - 1) as u32
                    });
                    col3[(e * n_label_kinds + l) * n_younger_kinds + y] = col;
                }
            }
        }
        let zero_col = sig_idx[&0] as usize;

        // Subset-construct N over the closed signature alphabet; the
        // co-finite column repeats the zero signature's.
        let mut subsets = Worklist::new();
        let start = subsets.intern(n_nfa.eps_closure(&[n_nfa.start()]));
        let rows = subsets.explore(|subsets, _, cur: &Vec<StateId>| {
            let mut row: Vec<u32> = sigs
                .iter()
                .map(|&sig| subsets.intern(move_set(&n_nfa, cur, sig)))
                .collect();
            row.push(row[zero_col]);
            row
        });
        let accept: Vec<bool> = subsets
            .keys()
            .iter()
            .map(|set| set.iter().any(|&q| n_nfa.is_accepting(q)))
            .collect();
        let n = DenseDfa::from_rows(rows, start, accept);

        Engine {
            ncl,
            class_step,
            elder_mask,
            younger_mask,
            label_mask,
            elder_kind,
            younger_kind,
            label_kind,
            zero_label_kind,
            n_label_kinds,
            n_younger_kinds,
            col3,
            sigs,
            sig_idx,
            n,
        }
    }
}

/// One NFA-subset move by a signature (any triplet in the mask fires).
fn move_set(nfa: &Nfa<u32>, cur: &[StateId], sig: SigMask) -> Vec<StateId> {
    let mut moved = std::collections::BTreeSet::new();
    for &q in cur {
        for (c, t) in nfa.transitions(q) {
            let fires = (0..64)
                .filter(|i| sig & (1 << i) != 0)
                .any(|i| c.contains(&(i as u32)));
            if fires {
                moved.insert(*t);
            }
        }
    }
    nfa.eps_closure(&moved.into_iter().collect::<Vec<_>>())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use hedgex_hedge::Alphabet;

    #[test]
    fn classes_saturate_triplet_languages() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a]", &mut ab).unwrap();
        let c = CompiledPhr::compile(&phr);
        // Elder language a*, younger language a (exactly one a leaf tree).
        let a = ab.get_sym("a").unwrap();
        let f = hedgex_hedge::FlatHedge::from_hedge(&hedgex_hedge::Hedge::leaf(a));
        let qa = c.m.run(&f)[0];
        let eps_class = c.classes.class_of(&[]);
        let a_class = c.classes.class_of(&[qa]);
        let aa_class = c.classes.class_of(&[qa, qa]);
        // ε ∈ a*, ∉ a; a ∈ both; aa ∈ a*, ∉ a.
        assert!(c.classes.class_in_lang(eps_class, 0));
        assert!(!c.classes.class_in_lang(eps_class, 1));
        assert!(c.classes.class_in_lang(a_class, 0));
        assert!(c.classes.class_in_lang(a_class, 1));
        assert!(c.classes.class_in_lang(aa_class, 0));
        assert!(!c.classes.class_in_lang(aa_class, 1));
    }

    #[test]
    fn signature_reflects_triplet_satisfaction() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a]|[ε ; b ; a*]", &mut ab).unwrap();
        let c = CompiledPhr::compile(&phr);
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let f = hedgex_hedge::FlatHedge::from_hedge(&hedgex_hedge::Hedge::leaf(a));
        let qa = c.m.run(&f)[0];
        let eps = c.classes.class_of(&[]);
        let one = c.classes.class_of(&[qa]);
        // (ε, b, a): triplet 0 (a* elder ∋ ε, a younger ∋ a) and triplet 1.
        assert_eq!(c.signature(eps, b, one), 0b11);
        // (a, b, ε): triplet 0 needs younger = a → no; triplet 1 needs
        // elder ε → no.
        assert_eq!(c.signature(one, b, eps), 0b00);
        // Wrong label.
        assert_eq!(c.signature(eps, a, one), 0b00);
    }

    #[test]
    fn mirror_dfa_reads_topdown() {
        // PHR = [ε;a;ε][ε;b;ε] (innermost a, then b above). Mirror order:
        // b then a.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε][ε ; b ; ε]", &mut ab).unwrap();
        let c = CompiledPhr::compile(&phr);
        let s0 = c.n_start();
        // Triplet 0 = the a-triplet, triplet 1 = the b-triplet.
        let s1 = c.n_step(s0, 0b10); // read the b triplet first (topmost)
        assert!(!c.n_accepting(s1));
        let s2 = c.n_step(s1, 0b01);
        assert!(c.n_accepting(s2));
        // Wrong order dies.
        let w1 = c.n_step(s0, 0b01);
        let w2 = c.n_step(w1, 0b10);
        assert!(!c.n_accepting(w2));
    }

    #[test]
    fn n_transition_fuses_signature_and_step() {
        // The per-node fused step must agree with signature() + n_step()
        // on every (class, label, class, N-state) combination.
        let mut ab = Alphabet::new();
        let phr = parse_phr("[a* ; b ; a]|[ε ; b ; a*]", &mut ab).unwrap();
        let c = CompiledPhr::compile(&phr);
        let syms: Vec<_> = ab.syms().collect();
        let ncl = c.classes.num_classes() as u32;
        for s in 0..c.n_states_materialized() as u32 {
            for c1 in 0..ncl {
                for &a in &syms {
                    for c2 in 0..ncl {
                        assert_eq!(
                            c.n_transition(s, c1, a, c2),
                            c.n_step(s, c.signature(c1, a, c2)),
                            "s={s} c1={c1} a={a:?} c2={c2}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn class_step_matches_classes() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[(a|b)* a ; b ; b (a|b)*]", &mut ab).unwrap();
        let c = CompiledPhr::compile(&phr);
        let ncl = c.classes.num_classes() as u32;
        for q in 0..c.m.num_states() {
            let row = c.class_step_row(q);
            for cl in 0..ncl {
                assert_eq!(c.class_step(cl, q), c.classes.step(cl, q));
                assert_eq!(row[cl as usize], c.classes.step(cl, q));
            }
        }
    }

    #[test]
    fn match_syms_overapproximates_locatable_labels() {
        let mut ab = Alphabet::new();
        let phr = parse_phr("[ε ; a ; ε]", &mut ab).unwrap();
        let a = ab.get_sym("a").unwrap();
        let c = CompiledPhr::compile(&phr);
        assert_eq!(c.match_syms(), Some(vec![a]));

        // Only `a` labels a triplet: `b` must be excluded even though the
        // query mentions it in sibling position.
        let phr = parse_phr("[ε ; a ; b][b ; a ; ε]", &mut ab).unwrap();
        let b = ab.get_sym("b").unwrap();
        let c = CompiledPhr::compile(&phr);
        assert_eq!(c.match_syms(), Some(vec![a]));

        // Both labels can sit on a located node.
        let phr = parse_phr("([a* ; b ; a*]|[ε ; a ; ε])*", &mut ab).unwrap();
        let c = CompiledPhr::compile(&phr);
        let syms = c.match_syms().unwrap();
        assert!(syms.contains(&a) && syms.contains(&b));
    }

    #[test]
    fn compiled_phr_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<CompiledPhr>();
    }

    #[test]
    fn reduction_never_changes_match_sets() {
        let mut ab = Alphabet::new();
        for src in [
            "[ε ; a ; ε]",
            "[a* ; b ; a]|[ε ; b ; a*]",
            "[(a|b)* ; a ; (a|b)*][(a|b)* ; b ; (a|b)*]",
            "([ε ; a ; b*])*[b ; b ; ε]",
        ] {
            let phr = parse_phr(src, &mut ab).unwrap();
            let reduced = CompiledPhr::compile_with(&phr, true);
            let raw = CompiledPhr::compile_with(&phr, false);
            assert!(reduced.stats.total_reduced_states() <= raw.stats.total_dha_states());
            assert_eq!(raw.stats.pruned_states(), 0);
            for doc in ["a b a", "b<a b> a", "a<b<a> b> b", "b b<b<a>>"] {
                let h = hedgex_hedge::parse_hedge(doc, &mut ab).unwrap();
                let f = hedgex_hedge::FlatHedge::from_hedge(&h);
                assert_eq!(
                    crate::two_pass::locate(&reduced, &f),
                    crate::two_pass::locate(&raw, &f),
                    "phr {src} on doc {doc}"
                );
            }
        }
    }
}
