//! Bit sets over `0..n` stored as `u64` blocks: the subsets of every
//! closed-alphabet construction (ε-closures, NFA subsets, Theorem 1's
//! subsets of hedge-automaton states and its lifted states).
//!
//! Two sets made for the same `n` have the same block count, so `==` and
//! `Hash` on the block vectors are set equality and a set hash.

/// A set of states, one bit per state.
pub type StateSet = Vec<u64>;

/// An empty set sized for `n` states.
pub fn empty(n: u32) -> StateSet {
    vec![0; (n as usize).div_ceil(64)]
}

/// Insert `q`; returns true if newly inserted.
pub fn insert(s: &mut [u64], q: u32) -> bool {
    let (w, b) = (q as usize / 64, q as usize % 64);
    let had = s[w] & (1 << b) != 0;
    s[w] |= 1 << b;
    !had
}

/// Membership.
pub fn contains(s: &[u64], q: u32) -> bool {
    s[q as usize / 64] & (1 << (q as usize % 64)) != 0
}

/// Iterate members in increasing order.
pub fn iter(s: &[u64]) -> Members<'_> {
    Members {
        words: s,
        at: 0,
        rest: s.first().copied().unwrap_or(0),
    }
}

/// The members of a set, in increasing order (see [`iter`]).
#[derive(Debug, Clone)]
pub struct Members<'a> {
    words: &'a [u64],
    /// The word `rest` came from.
    at: usize,
    /// The members of word `at` not yet returned.
    rest: u64,
}

impl Iterator for Members<'_> {
    type Item = u32;

    #[inline]
    fn next(&mut self) -> Option<u32> {
        while self.rest == 0 {
            self.at += 1;
            self.rest = *self.words.get(self.at)?;
        }
        let b = self.rest.trailing_zeros();
        self.rest &= self.rest - 1;
        Some((self.at * 64) as u32 + b)
    }
}

/// Is the set empty?
pub fn is_empty(s: &[u64]) -> bool {
    s.iter().all(|&b| b == 0)
}

/// `into |= from`.
pub fn union_into(into: &mut [u64], from: &[u64]) {
    for (a, &b) in into.iter_mut().zip(from) {
        *a |= b;
    }
}

/// Do the two sets share a member?
pub fn meets(a: &[u64], b: &[u64]) -> bool {
    a.iter().zip(b).any(|(&x, &y)| x & y != 0)
}
