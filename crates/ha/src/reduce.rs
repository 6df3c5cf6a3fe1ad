//! Dead-state reduction of deterministic hedge automata.
//!
//! The product construction of Theorem 4 never *materializes* dead
//! states — its bottom-up exploration interns exactly the tuples reachable
//! bottom-up — so pruning must happen **per component**, before the
//! product multiplies the waste. Two language-preserving steps compose:
//!
//! 1. **Dead-letter normalization of `F`.** A state `q` is *F-dead* when
//!    no accepted root sequence contains it: either `q` is uninhabited
//!    (no hedge reaches it bottom-up), or every occurrence of `q` in a
//!    word over inhabited states drives `F`'s string automaton into a
//!    region from which acceptance is unreachable. Redirecting every
//!    `F`-edge on a dead letter into one rejecting sink changes no
//!    answer — words through those edges were rejected anyway — but
//!    erases the structure that kept dead regions of `F` distinguishing
//!    otherwise-interchangeable states.
//!
//! 2. **Congruence merging** ([`minimize_dha`]). With the dead structure
//!    gone, states that now act alike both as letters of `F` and in every
//!    horizontal automaton collapse into one.
//!
//! Both steps preserve the full `hedge sequence ↦ F-membership` function
//! on *all* inputs (undeclared symbols and leaves sink identically), so a
//! reduced component can replace the original inside any downstream
//! product — same match sets, smaller tables.

use hedgex_automata::{row, CharClass, Dfa, StateId};
use hedgex_obs as obs;

use crate::analysis::{inhabited, top_level_useful};
use crate::dha::Dha;
use crate::minimize::minimize_dha;
use crate::types::HState;

/// What [`reduce_dha`] removed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReduceStats {
    /// States before reduction.
    pub states_in: u32,
    /// States after reduction.
    pub states_out: u32,
    /// Letters of `F` proved dead (uninhabited, or on no accepting path).
    pub dead_letters: u32,
}

/// Rebuild `F` with every edge on a dead letter (and every fresh symbol)
/// redirected into one rejecting sink. Language-equal on all words over
/// live letters; words touching a dead letter were rejected before and
/// stay rejected.
fn normalize_finals(f: &Dfa<HState>, live: &[bool]) -> Dfa<HState> {
    let m = f.num_states();
    let dead_sink = m as StateId;
    let mut trans: Vec<Vec<(CharClass<HState>, StateId)>> = (0..m as StateId)
        .map(|s| {
            let live_letters = (0..live.len() as HState).filter(|&q| live[q as usize]);
            row(live_letters.map(|q| (q, f.step(s, &q))), dead_sink)
        })
        .collect();
    trans.push(vec![(CharClass::any(), dead_sink)]);
    let mut accept: Vec<bool> = (0..m as StateId).map(|s| f.is_accepting(s)).collect();
    accept.push(false);
    Dfa::from_parts(trans, f.start(), accept)
}

/// Reduce an automaton: normalize away dead `F` structure, then merge
/// congruent states. The result computes the same `hedge ↦ state` map up
/// to renaming and the same `root sequence ↦ F-membership` function on
/// every input, so it is a drop-in replacement in products and engines.
pub fn reduce_dha(dha: &Dha) -> (Dha, ReduceStats) {
    let _span = obs::span("ha.reduce");
    let n = dha.num_states();
    let live = top_level_useful(dha, &inhabited(dha));
    let dead_letters = live.iter().filter(|&&ok| !ok).count() as u32;
    let normalized;
    let input = if dead_letters == 0 {
        dha
    } else {
        normalized = dha
            .clone()
            .with_finals(normalize_finals(dha.finals(), &live));
        &normalized
    };
    let (reduced, _) = minimize_dha(input);
    let stats = ReduceStats {
        states_in: n,
        states_out: reduced.num_states(),
        dead_letters,
    };
    obs::counter_inc("ha.reduce.calls");
    obs::counter_add("ha.reduce.states_in", u64::from(n));
    obs::counter_add("ha.reduce.states_out", u64::from(stats.states_out));
    obs::counter_add("ha.reduce.dead_letters", u64::from(dead_letters));
    obs::event("ha.reduce", || {
        format!(
            "states_in={n} states_out={} dead_letters={dead_letters}",
            stats.states_out
        )
    });
    (reduced, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dha::DhaBuilder;
    use crate::ops::equivalent;
    use crate::paper::m0;
    use crate::types::Leaf;
    use hedgex_automata::Regex;
    use hedgex_hedge::Alphabet;

    #[test]
    fn preserves_language_on_paper_automaton() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let (red, stats) = reduce_dha(&m);
        assert_eq!(stats.states_in, m.num_states());
        assert_eq!(stats.states_out, red.num_states());
        assert!(equivalent(&m, &red).is_ok());
    }

    #[test]
    fn merges_states_distinguished_only_by_dead_f_structure() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let x = ab.var("x");
        let y = ab.var("y");
        // States: 0 = q_a, 1 = q_x, 2 = q_y, 3 = sink, 4 = orphan (never
        // produced). F = q_a* | q_x·orphan: the second branch is dead (the
        // orphan is uninhabited), yet it distinguishes q_x from q_y in F,
        // blocking plain minimization. Both leaves feed a identically.
        let mut b = DhaBuilder::new(5, 3);
        b.leaf(Leaf::Var(x), 1)
            .leaf(Leaf::Var(y), 2)
            .rule(a, Regex::sym(1).alt(Regex::sym(2)).star(), 0)
            .finals(
                Regex::sym(0)
                    .star()
                    .alt(Regex::sym(1).concat(Regex::sym(4))),
            );
        let m = b.build();
        let (plain, plain_map) = minimize_dha(&m);
        assert_ne!(plain_map[1], plain_map[2], "dead F branch blocks merging");
        let (red, stats) = reduce_dha(&m);
        assert!(stats.dead_letters >= 2, "q_x, q_y, sink, orphan are F-dead");
        assert!(red.num_states() < plain.num_states());
        assert!(equivalent(&m, &red).is_ok());
    }

    #[test]
    fn reduction_is_idempotent() {
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let (r1, _) = reduce_dha(&m);
        let (r2, s2) = reduce_dha(&r1);
        assert_eq!(r1.num_states(), r2.num_states());
        assert_eq!(s2.states_in, s2.states_out);
        assert!(equivalent(&r1, &r2).is_ok());
    }

    #[test]
    fn empty_language_reduces_without_accepting_anything() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let mut b = DhaBuilder::new(2, 1);
        // F requires state 0, but nothing produces state 0.
        b.rule(a, Regex::sym(0), 1).finals(Regex::sym(0));
        let m = b.build();
        let (red, stats) = reduce_dha(&m);
        assert_eq!(stats.dead_letters, 2, "every letter is F-dead");
        assert!(crate::analysis::is_empty(&red));
        assert!(equivalent(&m, &red).is_ok());
    }

    #[test]
    fn reduced_component_survives_products() {
        // The downstream contract: a reduced component inside a product
        // must yield the same accepted language as the original.
        let mut ab = Alphabet::new();
        let m = m0(&mut ab);
        let (red, _) = reduce_dha(&m);
        let p_raw = crate::product::product_many(&[&m, &m]);
        let p_red = crate::product::product_many(&[&red, &red]);
        let raw = p_raw.dha.with_finals(p_raw.lifted_finals[0].clone());
        let red2 = p_red.dha.with_finals(p_red.lifted_finals[0].clone());
        assert!(equivalent(&raw, &red2).is_ok());
    }
}
