//! The dense table every tabulated automaton of the stack is built on.
//!
//! Symbolic [`Dfa`]s are flexible but step by scanning label lists. Every
//! automaton the evaluators step per node — Theorem 1's horizontal
//! functions `α(a, ·)` over `Q`, Theorem 4's `≡` classes and mirror
//! automaton `N`, §8's path DFA, a hedge automaton's `F` — is a
//! [`DenseDfa`] instead: one `u32` row per state, one column per letter of
//! a concrete alphabet, and one co-finite column that every letter past
//! the end takes. Constructions fill the rows directly
//! ([`DenseDfa::from_rows`]); a symbolic automaton is tabulated against an
//! alphabet with [`DenseDfa::compile`].

use crate::kernel::coreach;
use crate::{Dfa, StateId, Sym};

/// A total DFA over the letters `0, 1, 2, …`, stored as a flat
/// `state × column` table.
///
/// Column `i < letters()` is letter `i`; the last column is the co-finite
/// one, taken by every letter `≥ letters()`. Alongside the table: the
/// start state, the accepting states, and the *live* states (those from
/// which an accepting state is reachable).
#[derive(Debug, Clone)]
pub struct DenseDfa {
    /// Columns per state: the letters, then the co-finite column.
    width: usize,
    /// `table[q * width + col]` is the successor of `q` on column `col`.
    table: Vec<StateId>,
    start: StateId,
    accept: Vec<bool>,
    live: Vec<bool>,
}

impl DenseDfa {
    /// Tabulate `dfa` against `alphabet`: column `i` is `alphabet[i]`, and
    /// the co-finite column is `dfa`'s co-finite edge, which every symbol
    /// outside `alphabet` takes.
    pub fn compile<S: Sym>(dfa: &Dfa<S>, alphabet: &[S]) -> DenseDfa {
        let rows = (0..dfa.num_states() as StateId).map(|q| {
            let letters = alphabet.iter().map(|s| dfa.step(q, s));
            letters.chain([dfa.step_cofinite(q)]).collect()
        });
        let accept = (0..dfa.num_states() as StateId)
            .map(|q| dfa.is_accepting(q))
            .collect();
        DenseDfa::from_rows(rows.collect(), dfa.start(), accept)
    }

    /// A DFA from one row per state, each the successors on the letters
    /// `0..k` followed by the co-finite successor. All rows have the same
    /// length `k + 1`, and `accept` has one entry per row.
    pub fn from_rows(rows: Vec<Vec<StateId>>, start: StateId, accept: Vec<bool>) -> DenseDfa {
        let n = rows.len();
        assert_eq!(accept.len(), n, "one acceptance bit per row");
        let width = rows.first().map_or(1, Vec::len);
        assert!(
            width > 0 && rows.iter().all(|r| r.len() == width),
            "every row holds its letters plus the co-finite column"
        );
        let table = rows.concat();
        let live = coreach(n, (0..n as StateId).filter(|&q| accept[q as usize]), |q| {
            table[q as usize * width..(q as usize + 1) * width]
                .iter()
                .copied()
        });
        DenseDfa {
            width,
            table,
            start,
            accept,
            live,
        }
    }

    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.accept.len()
    }

    /// Number of letters with a column of their own (the co-finite column
    /// is column `letters()`).
    pub fn letters(&self) -> usize {
        self.width - 1
    }

    /// The start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// Is `q` accepting?
    #[inline]
    pub fn is_accepting(&self, q: StateId) -> bool {
        self.accept[q as usize]
    }

    /// Can an accepting state be reached from `q` (in zero or more steps)?
    #[inline]
    pub fn is_live(&self, q: StateId) -> bool {
        self.live[q as usize]
    }

    /// Successor of `q` on `letter`; a letter past the last column takes
    /// the co-finite one.
    #[inline]
    pub fn step(&self, q: StateId, letter: u32) -> StateId {
        let col = (letter as usize).min(self.width - 1);
        self.table[q as usize * self.width + col]
    }

    /// Successor of `q` on column `col ≤ letters()`, unclamped: for callers
    /// whose columns are in range by construction.
    #[inline]
    pub fn cell(&self, q: StateId, col: usize) -> StateId {
        self.table[q as usize * self.width + col]
    }

    /// The row of `q`: its successors on every column, co-finite last.
    pub fn row(&self, q: StateId) -> &[StateId] {
        &self.table[q as usize * self.width..(q as usize + 1) * self.width]
    }

    /// Run on a word from the start state.
    pub fn run(&self, word: impl IntoIterator<Item = u32>) -> StateId {
        word.into_iter().fold(self.start, |q, a| self.step(q, a))
    }

    /// Membership test.
    pub fn accepts(&self, word: impl IntoIterator<Item = u32>) -> bool {
        self.is_accepting(self.run(word))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Nfa, Regex};

    fn dense(r: Regex<u8>, alphabet: &[u8]) -> (Dfa<u8>, DenseDfa) {
        let d = Nfa::from_regex(&r).to_dfa();
        let dd = DenseDfa::compile(&d, alphabet);
        (d, dd)
    }

    /// The columns of a word over `alphabet`, letters outside it past the end.
    fn cols(alphabet: &[u8], w: &[u8]) -> Vec<u32> {
        w.iter()
            .map(|s| alphabet.iter().position(|a| a == s).unwrap_or(99) as u32)
            .collect()
    }

    #[test]
    fn dense_agrees_with_symbolic() {
        let alphabet = [1u8, 2, 3];
        let (d, dd) = dense(
            Regex::sym(1u8)
                .alt(Regex::sym(2))
                .star()
                .concat(Regex::sym(3)),
            &alphabet,
        );
        for w in [
            vec![3u8],
            vec![1, 2, 3],
            vec![1, 1, 1, 3],
            vec![3, 3],
            vec![],
            vec![2],
        ] {
            assert_eq!(d.accepts(&w), dd.accepts(cols(&alphabet, &w)), "word {w:?}");
        }
    }

    #[test]
    fn out_of_alphabet_symbols_take_cofinite_edge() {
        let alphabet = [1u8, 2];
        let (d, dd) = dense(Regex::any_sym().star(), &alphabet);
        assert_eq!(d.accepts(&[99]), dd.accepts(cols(&alphabet, &[99])));
        assert!(dd.accepts(cols(&alphabet, &[99, 1, 2])));
        assert_eq!(dd.step(dd.start(), 2), dd.cell(dd.start(), 2));
        assert_eq!(dd.step(dd.start(), u32::MAX), dd.cell(dd.start(), 2));
    }

    #[test]
    fn live_states_reach_acceptance() {
        // a b: after `b` first, nothing is accepted any more.
        let alphabet = [1u8, 2];
        let (_, dd) = dense(Regex::word(&[1u8, 2]), &alphabet);
        assert!(dd.is_live(dd.start()));
        assert!(dd.is_live(dd.run([0, 1])));
        assert!(!dd.is_live(dd.step(dd.start(), 1)));
        assert!(!dd.is_live(dd.run([0, 1, 0])));
    }
}
