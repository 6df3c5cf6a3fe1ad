//! Boolean language operations and decision procedures on deterministic
//! hedge automata.
//!
//! Because a [`Dha`] is *total* — every node of every hedge over the
//! declared alphabet receives a state (the sink catches everything
//! unmatched) — complementation is just flipping the final state sequence
//! set, and the other operations follow from products:
//!
//! * [`complement`] — `L^c` relative to hedges over the automaton's
//!   (open) alphabet;
//! * [`union`] / [`intersection`] / [`difference`] — via the lifted-finals
//!   product;
//! * [`equivalent`] / [`included`] — decision procedures via difference +
//!   emptiness, with counterexample extraction.
//!
//! These turn language-level claims in the test suite (e.g. Theorem 2's
//! `L(compile(decompile(M))) = L(M)`) into *exact* decisions instead of
//! sampled comparisons.

use hedgex_automata::ProductOp;
use hedgex_hedge::Hedge;
use hedgex_obs as obs;

use crate::analysis::accepted_witness;
use crate::dha::Dha;
use crate::product::product_many;

/// The complement of `L(dha)` within the hedges over the automaton's
/// alphabet (any hedge at all, in fact: unknown symbols and leaves land in
/// the sink and are classified like every other state).
pub fn complement(dha: &Dha) -> Dha {
    let finals = dha.finals().complement();
    dha.clone().with_finals(finals)
}

/// `L(a) ∪ L(b)`.
pub fn union(a: &Dha, b: &Dha) -> Dha {
    let prod = product_many(&[a, b]);
    let finals = prod.lifted_finals[0].product(&prod.lifted_finals[1], ProductOp::Or);
    prod.dha.with_finals(finals)
}

/// `L(a) ∩ L(b)`.
pub fn intersection(a: &Dha, b: &Dha) -> Dha {
    let prod = product_many(&[a, b]);
    let finals = prod.lifted_finals[0].product(&prod.lifted_finals[1], ProductOp::And);
    prod.dha.with_finals(finals)
}

/// `L(a) \ L(b)`.
pub fn difference(a: &Dha, b: &Dha) -> Dha {
    let prod = product_many(&[a, b]);
    let finals = prod.lifted_finals[0].product(&prod.lifted_finals[1], ProductOp::Diff);
    prod.dha.with_finals(finals)
}

/// Is `L(a) ⊆ L(b)`? On failure, returns a witness hedge in `L(a) \ L(b)`.
pub fn included(a: &Dha, b: &Dha) -> Result<(), Hedge> {
    let _span = obs::span("ha.included");
    let out = match accepted_witness(&difference(a, b)) {
        None => Ok(()),
        Some(w) => Err(w),
    };
    obs::event("ha.included", || {
        format!(
            "lhs_states={} rhs_states={} holds={}",
            a.num_states(),
            b.num_states(),
            out.is_ok()
        )
    });
    out
}

/// Is `L(a) = L(b)`? On failure, returns a hedge in the symmetric
/// difference (and which side it came from).
pub fn equivalent(a: &Dha, b: &Dha) -> Result<(), Hedge> {
    included(a, b)?;
    included(b, a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dha::DhaBuilder;
    use crate::enumerate::enumerate_hedges;
    use hedgex_automata::Regex;
    use hedgex_hedge::Alphabet;

    /// Hedges over {a,b}: top level a*, a's contain b*, b's empty.
    fn lang_a_of_bs(ab: &mut Alphabet) -> Dha {
        let a = ab.sym("a");
        let b = ab.sym("b");
        let mut d = DhaBuilder::new(3, 2);
        d.rule(b, Regex::Epsilon, 1)
            .rule(a, Regex::sym(1).star(), 0)
            .finals(Regex::sym(0).star());
        d.build()
    }

    /// Top level is exactly two trees, anything inside (over {a,b}).
    fn lang_two_roots(ab: &mut Alphabet) -> Dha {
        let a = ab.sym("a");
        let b = ab.sym("b");
        let mut d = DhaBuilder::new(2, 1);
        d.rule(a, Regex::sym(0).star(), 0)
            .rule(b, Regex::sym(0).star(), 0)
            .finals(Regex::word(&[0, 0]));
        d.build()
    }

    #[test]
    fn complement_flips_membership_pointwise() {
        let mut ab = Alphabet::new();
        let m = lang_a_of_bs(&mut ab);
        let c = complement(&m);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            assert_eq!(m.accepts(&h), !c.accepts(&h), "on {h:?}");
        }
    }

    #[test]
    fn boolean_ops_match_pointwise_semantics() {
        let mut ab = Alphabet::new();
        let m1 = lang_a_of_bs(&mut ab);
        let m2 = lang_two_roots(&mut ab);
        let u = union(&m1, &m2);
        let i = intersection(&m1, &m2);
        let d = difference(&m1, &m2);
        let syms: Vec<_> = ab.syms().collect();
        for h in enumerate_hedges(&syms, &[], 5) {
            let (x, y) = (m1.accepts(&h), m2.accepts(&h));
            assert_eq!(u.accepts(&h), x || y);
            assert_eq!(i.accepts(&h), x && y);
            assert_eq!(d.accepts(&h), x && !y);
        }
    }

    #[test]
    fn equivalence_decision() {
        let mut ab = Alphabet::new();
        let m1 = lang_a_of_bs(&mut ab);
        // Same language, structurally different automaton (extra state).
        let a = ab.get_sym("a").unwrap();
        let b = ab.get_sym("b").unwrap();
        let mut d = DhaBuilder::new(4, 3);
        d.rule(b, Regex::Epsilon, 2)
            .rule(a, Regex::sym(2).star(), 0)
            .finals(Regex::Epsilon.alt(Regex::sym(0).plus()));
        let m1b = d.build();
        assert!(equivalent(&m1, &m1b).is_ok());

        let m2 = lang_two_roots(&mut ab);
        let err = equivalent(&m1, &m2).unwrap_err();
        // The witness is in the symmetric difference.
        assert_ne!(m1.accepts(&err), m2.accepts(&err));
    }

    #[test]
    fn inclusion_with_witness() {
        let mut ab = Alphabet::new();
        let m1 = lang_a_of_bs(&mut ab);
        let every = {
            let a = ab.get_sym("a").unwrap();
            let b = ab.get_sym("b").unwrap();
            let mut d = DhaBuilder::new(2, 1);
            d.rule(a, Regex::sym(0).star(), 0)
                .rule(b, Regex::sym(0).star(), 0)
                .finals(Regex::sym(0).star());
            d.build()
        };
        assert!(included(&m1, &every).is_ok());
        let w = included(&every, &m1).unwrap_err();
        assert!(every.accepts(&w) && !m1.accepts(&w));
    }

    #[test]
    fn de_morgan_holds() {
        let mut ab = Alphabet::new();
        let m1 = lang_a_of_bs(&mut ab);
        let m2 = lang_two_roots(&mut ab);
        let lhs = complement(&union(&m1, &m2));
        let rhs = intersection(&complement(&m1), &complement(&m2));
        assert!(equivalent(&lhs, &rhs).is_ok());
    }
}
