//! The construction kernel: the loops every automaton construction in the
//! stack is built from.
//!
//! * [`Worklist`] — a construction interns each of its states — a subset,
//!   a tuple, a pair — to a dense [`StateId`] and explores the ids not yet
//!   expanded.
//! * [`saturate`] — the one bottom-up exploration of a hedge-automaton
//!   construction. A subset construction (Theorem 1) or a cross product
//!   (Theorem 4, "the cross product of all state sets") builds only the
//!   vertical states some hedge reaches, by running horizontal machines
//!   over the vertical states found so far; each (horizontal state,
//!   vertical state) pair is stepped once, and the steps are the rows.
//! * [`row`] / [`in_edges`] — one transition row from explicit per-letter
//!   targets: letters grouped by target into `In` edges, plus the one
//!   co-finite edge that keeps a DFA total.
//! * [`reach`] / [`coreach`] — forward and backward closure over a
//!   successor function: emptiness, dead-state pruning and §8's "only those
//!   marked states from which final state sequences can be reached".
//!
//! Each construction keeps its own key type and its own file; only the
//! loops live here.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::hash::{BuildHasherDefault, Hash, Hasher};

use crate::{CharClass, StateId, Sym};

/// A multiply-rotate hash of machine words. Construction keys are small
/// integers and bit sets made by the constructions themselves, not by an
/// adversary, so interning them needs no keyed hash; this one costs a few
/// cycles per word.
#[derive(Debug, Default, Clone, Copy)]
pub struct WordHasher(u64);

impl WordHasher {
    #[inline]
    fn add(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(5) ^ w).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }
    fn write_u32(&mut self, n: u32) {
        self.add(u64::from(n));
    }
    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }
    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }
    fn finish(&self) -> u64 {
        // The product carries a word's high bits only upward; fold them
        // back into the low bits, which pick the bucket.
        let h = self.0;
        (h ^ (h >> 32)).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (h >> 29)
    }
}

/// Construction states interned to dense ids `0, 1, 2, …` in order of
/// discovery, with a last-in-first-out frontier of ids not yet explored.
#[derive(Debug, Clone)]
pub struct Worklist<K> {
    ids: HashMap<K, StateId, BuildHasherDefault<WordHasher>>,
    keys: Vec<K>,
    todo: Vec<StateId>,
}

impl<K: Clone + Eq + Hash> Default for Worklist<K> {
    fn default() -> Self {
        Worklist {
            ids: HashMap::default(),
            keys: Vec::new(),
            todo: Vec::new(),
        }
    }
}

impl<K: Clone + Eq + Hash> Worklist<K> {
    /// An empty worklist.
    pub fn new() -> Self {
        Worklist::default()
    }

    /// The id of `key`. A key seen for the first time gets the next id and
    /// joins the frontier; it is cloned once, into the id-ordered key list.
    pub fn intern(&mut self, key: K) -> StateId {
        let (id, new) = self.insert(key);
        if new {
            self.todo.push(id);
        }
        id
    }

    /// The id of `key`, and whether it is new; the frontier is left alone.
    fn insert(&mut self, key: K) -> (StateId, bool) {
        match self.ids.entry(key) {
            Entry::Occupied(e) => (*e.get(), false),
            Entry::Vacant(e) => {
                let id = self.keys.len() as StateId;
                self.keys.push(e.key().clone());
                e.insert(id);
                (id, true)
            }
        }
    }

    /// The id of an already interned `key` (or of a borrowed form of it).
    pub fn get<Q: ?Sized + Hash + Eq>(&self, key: &Q) -> Option<StateId>
    where
        K: std::borrow::Borrow<Q>,
    {
        self.ids.get(key).copied()
    }

    /// Number of interned keys.
    pub fn len(&self) -> usize {
        self.keys.len()
    }

    /// Has nothing been interned?
    pub fn is_empty(&self) -> bool {
        self.keys.is_empty()
    }

    /// The interned keys, indexed by id.
    pub fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The interned keys, indexed by id, by value.
    pub fn into_keys(self) -> Vec<K> {
        self.keys
    }
}

impl<K: Clone + Eq + Hash + Default> Worklist<K> {
    /// Expand every id on the frontier, newest first, until it is empty.
    ///
    /// `visit(worklist, id, key)` may intern successors (which join the
    /// frontier) and returns the row of `id`; the result holds one row per
    /// interned id. The key is moved out of its slot while `visit` runs and
    /// put back after, so no key is cloned per state; `keys()[id]` reads as
    /// `K::default()` meanwhile. Deduplication goes through the id map, so
    /// the emptied slot is never mistaken for an interned key.
    pub fn explore<R: Default>(
        &mut self,
        mut visit: impl FnMut(&mut Self, StateId, &K) -> R,
    ) -> Vec<R> {
        let mut rows: Vec<R> = Vec::new();
        while let Some(id) = self.todo.pop() {
            let key = std::mem::take(&mut self.keys[id as usize]);
            let row = visit(self, id, &key);
            self.keys[id as usize] = key;
            if rows.len() <= id as usize {
                rows.resize_with(self.keys.len(), R::default);
            }
            rows[id as usize] = row;
        }
        rows.resize_with(self.keys.len(), R::default);
        rows
    }
}

/// One horizontal machine as [`saturate`] leaves it: its states in order
/// of discovery (the start is state 0) and, per state, its successor on
/// every vertical state, indexed by vertical id.
#[derive(Debug, Clone)]
pub struct Horizontal<H> {
    /// The states, indexed by id.
    pub states: Vec<H>,
    /// Per state, its successors on the vertical states `0..verticals.len()`.
    pub rows: Vec<Vec<StateId>>,
}

/// Find every vertical state some hedge reaches bottom-up, and the rows of
/// the horizontal machines that read them.
///
/// Machine `m` starts at the `m`-th of `starts` and interns its states as
/// it reaches them. `yields(m, h, verticals)` runs once per new state `h`,
/// in id order, and interns the vertical states (subsets, tuples, pairs) a
/// node whose children took `m` to `h` can get. Each state's row grows by
/// one `step(m, h, v)` per vertical state `v`, in id order, as vertical
/// states appear, machine after machine; the loop ends when a whole pass
/// grows nothing. So every (horizontal state, vertical state) pair is
/// stepped exactly once, and each row covers every vertical state.
pub fn saturate<V, H>(
    verticals: &mut Worklist<V>,
    starts: impl IntoIterator<Item = H>,
    mut yields: impl FnMut(usize, &H, &mut Worklist<V>),
    mut step: impl FnMut(usize, &H, &V) -> H,
) -> Vec<Horizontal<H>>
where
    V: Clone + Eq + Hash,
    H: Clone + Eq + Hash,
{
    let mut machines: Vec<(Worklist<H>, Vec<Vec<StateId>>)> = Vec::new();
    for (m, start) in starts.into_iter().enumerate() {
        yields(m, &start, verticals);
        let mut states = Worklist::new();
        states.insert(start);
        machines.push((states, vec![Vec::new()]));
    }
    let mut grew = true;
    while grew {
        grew = false;
        for (m, (states, rows)) in machines.iter_mut().enumerate() {
            let mut h = 0;
            while h < rows.len() {
                while rows[h].len() < verticals.len() {
                    let v = rows[h].len();
                    let next = step(m, &states.keys[h], &verticals.keys[v]);
                    let (id, new) = states.insert(next);
                    if new {
                        yields(m, &states.keys[id as usize], verticals);
                        rows.push(Vec::new());
                    }
                    rows[h].push(id);
                    grew = true;
                }
                h += 1;
            }
        }
    }
    machines
        .into_iter()
        .map(|(states, rows)| Horizontal {
            states: states.keys,
            rows,
        })
        .collect()
}

/// One total row of a symbolic DFA from explicit `(letter, target)` pairs:
/// the letters grouped by target into `In` edges (ascending target), then
/// one co-finite edge to `rest` for every symbol not listed, fresh symbols
/// included.
///
/// A caller that wants letters bound for `rest` folded into the co-finite
/// edge leaves them out of `letters`.
pub fn row<S: Sym>(
    letters: impl IntoIterator<Item = (S, StateId)>,
    rest: StateId,
) -> Vec<(CharClass<S>, StateId)> {
    let pairs: Vec<(S, StateId)> = letters.into_iter().collect();
    let covered: BTreeSet<S> = pairs.iter().map(|(s, _)| s.clone()).collect();
    let mut edges = in_edges(pairs);
    edges.push((CharClass::NotIn(covered), rest));
    edges
}

/// The `In` edges of a row: `(letter, target)` pairs grouped by target, in
/// ascending target order. With no co-finite edge an unlisted letter has
/// no transition, as in an NFA row.
pub fn in_edges<S: Sym>(
    letters: impl IntoIterator<Item = (S, StateId)>,
) -> Vec<(CharClass<S>, StateId)> {
    let mut pairs: Vec<(S, StateId)> = letters.into_iter().collect();
    pairs.sort_by_key(|&(_, t)| t);
    pairs
        .chunk_by(|a, b| a.1 == b.1)
        .map(|group| {
            let class = CharClass::In(group.iter().map(|(s, _)| s.clone()).collect());
            (class, group[0].1)
        })
        .collect()
}

/// The states reachable from `seeds` (seeds included) in a graph on
/// states `0..n` whose edges out of `q` are `succ(q)`.
pub fn reach<I: IntoIterator<Item = StateId>>(
    n: usize,
    seeds: impl IntoIterator<Item = StateId>,
    mut succ: impl FnMut(StateId) -> I,
) -> Vec<bool> {
    let mut seen = vec![false; n];
    let mut stack: Vec<StateId> = Vec::new();
    for s in seeds {
        if !seen[s as usize] {
            seen[s as usize] = true;
            stack.push(s);
        }
    }
    while let Some(q) = stack.pop() {
        for t in succ(q) {
            if !seen[t as usize] {
                seen[t as usize] = true;
                stack.push(t);
            }
        }
    }
    seen
}

/// The states from which some seed is reachable (seeds included): one
/// backward search over the predecessor lists of `succ`, which are not
/// built at all when there is no seed.
pub fn coreach<I: IntoIterator<Item = StateId>>(
    n: usize,
    seeds: impl IntoIterator<Item = StateId>,
    mut succ: impl FnMut(StateId) -> I,
) -> Vec<bool> {
    let seeds: Vec<StateId> = seeds.into_iter().collect();
    if seeds.is_empty() {
        return vec![false; n];
    }
    // The predecessor lists, packed: those of `t` are
    // `preds[start[t]..start[t + 1]]`.
    let mut start = vec![0usize; n + 1];
    for q in 0..n as StateId {
        for t in succ(q) {
            start[t as usize + 1] += 1;
        }
    }
    for t in 0..n {
        start[t + 1] += start[t];
    }
    let mut fill = start.clone();
    let mut preds = vec![0; start[n]];
    for q in 0..n as StateId {
        for t in succ(q) {
            preds[fill[t as usize]] = q;
            fill[t as usize] += 1;
        }
    }
    reach(n, seeds, |q| {
        preds[start[q as usize]..start[q as usize + 1]]
            .iter()
            .copied()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explore_visits_every_id_once_newest_first() {
        // Keys are numbers; 0 leads to 1 and 2, everything else to 0.
        let mut wl: Worklist<u32> = Worklist::new();
        wl.intern(0);
        let mut visited = Vec::new();
        let rows = wl.explore(|wl, id, &k| {
            visited.push(k);
            let succ: Vec<u32> = if k == 0 { vec![1, 2] } else { vec![0] };
            let row: Vec<StateId> = succ.into_iter().map(|s| wl.intern(s)).collect();
            assert_eq!(wl.keys()[id as usize], 0, "the key is lent out");
            row
        });
        assert_eq!(visited, [0, 2, 1]);
        assert_eq!(rows, [vec![1, 2], vec![0], vec![0]]);
        assert_eq!(wl.keys(), &[0, 1, 2], "every key is put back");
    }

    #[test]
    fn saturate_steps_each_pair_once() {
        // Two machines counting modulo 3 and 4 by the vertical key; every
        // state yields its own value as a vertical key.
        let mut verticals: Worklist<u32> = Worklist::new();
        verticals.intern(1);
        let mut steps = 0usize;
        let machines = saturate(
            &mut verticals,
            [0u32, 0],
            |_, &h, verticals| {
                verticals.intern(h);
            },
            |m, &h, &v| {
                steps += 1;
                (h + v) % (m as u32 + 3)
            },
        );
        assert_eq!(verticals.keys(), &[1, 0, 2, 3]);
        let cells: usize = machines.iter().flat_map(|m| &m.rows).map(Vec::len).sum();
        assert_eq!(steps, cells, "each (state, vertical) pair is stepped once");
        for m in &machines {
            assert_eq!(m.rows.len(), m.states.len());
            assert!(m.rows.iter().all(|r| r.len() == verticals.len()));
        }
        assert_eq!(machines[0].states, [0, 1, 2]);
        assert_eq!(machines[1].states, [0, 1, 2, 3]);
    }

    #[test]
    fn saturate_extends_rows_of_machines_already_passed() {
        // Machine 0 stays put and yields nothing. Machine 1 moves from 'b'
        // to 'c', which yields vertical 7, after machine 0 has stepped its
        // one state by vertical 5.
        let mut verticals: Worklist<u32> = Worklist::new();
        verticals.intern(5);
        let machines = saturate(
            &mut verticals,
            ['a', 'b'],
            |_, &h, verticals| {
                if h == 'c' {
                    verticals.intern(7);
                }
            },
            |m, &h, _| if m == 1 { 'c' } else { h },
        );
        assert_eq!(verticals.keys(), &[5, 7]);
        assert_eq!(
            machines[0].rows,
            [vec![0, 0]],
            "vertical 7 reaches machine 0"
        );
        assert_eq!(machines[1].states, ['b', 'c']);
        assert_eq!(machines[1].rows, [vec![1, 1], vec![1, 1]]);
    }

    #[test]
    fn row_groups_letters_and_covers_the_rest() {
        let r = row([(1u32, 5), (2, 7), (3, 5)], 9);
        assert_eq!(
            r,
            [
                (CharClass::of([1, 3]), 5),
                (CharClass::of([2]), 7),
                (CharClass::all_except([1, 2, 3]), 9),
            ]
        );
        assert_eq!(in_edges([(4u32, 1)]), [(CharClass::of([4]), 1)]);
        assert_eq!(
            row(Vec::<(u32, StateId)>::new(), 0),
            [(CharClass::any(), 0)]
        );
    }
}
