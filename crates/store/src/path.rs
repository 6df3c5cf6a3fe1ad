//! Sortable structural paths: one byte-string per node whose lexicographic
//! order equals preorder (document order).
//!
//! A node's path is the concatenation of the encoded 0-based child indices
//! on the way down from its root. Each index is one *component*:
//!
//! | index range        | encoding                   | example        |
//! |--------------------|----------------------------|----------------|
//! | `0‥31`             | one base32 digit `0‥9A‥V`  | `17` → `H`     |
//! | `32‥2¹⁰−1`         | `W` + 2 base32 digits      | `32` → `W10`   |
//! | `2¹⁰‥2²⁰−1`        | `X` + 4 base32 digits      |                |
//! | `2²⁰‥2³⁰−1`        | `Y` + 6 base32 digits      |                |
//! | `2³⁰‥2⁴⁰−1`        | `Z` + 8 base32 digits      |                |
//!
//! Components are *prefix-free* (the first byte determines the length) and
//! *order-preserving* (escape letters `W<X<Y<Z` sort above the plain
//! digits `0‥V`, and within an escape the fixed-width big-endian digits
//! compare numerically). Prefix-free order-preserving components make path
//! concatenation order-preserving too, which buys the two properties
//! everything downstream rests on:
//!
//! 1. **sorted-by-path = preorder** — the path array stored in `NodeId`
//!    order is already sorted, no permutation needed;
//! 2. **descendants are one range** — every descendant of `P` extends it
//!    by a component starting in `0‥Z`, digits stop at `V`, so the
//!    descendant set is exactly the half-open interval `[P·"0", P·"ZW")`.
//!
//! The second property is what [`StructIndex`](crate::store::StructIndex)
//! materializes as its `subtree_end` array (one `partition_point` per node
//! at build time, O(1) per query afterwards).

use hedgex_hedge::{FlatHedge, NodeId};

/// The base32 digit alphabet: `'0'..='9'` then `'A'..='V'`.
const DIGITS: &[u8; 32] = b"0123456789ABCDEFGHIJKLMNOPQRSTUV";

/// Largest index encodable (`Z` escape: 8 digits = 40 bits).
pub const MAX_COMPONENT: u64 = (1 << 40) - 1;

/// Largest sortable-path table one stored document can have: the table's
/// offsets are `u32`.
pub const MAX_PATH_TABLE_LEN: u64 = u32::MAX as u64;

/// Bytes in the encoding of one child index: the tiers of the table above.
fn component_len(idx: u64) -> u64 {
    match idx {
        0..=31 => 1,
        32..=1023 => 3,
        1024..=0xF_FFFF => 5,
        0x10_0000..=0x3FFF_FFFF => 7,
        _ => 9,
    }
}

/// Append the encoding of one child index to `out`.
///
/// # Panics
/// If `idx > MAX_COMPONENT` — unreachable for `u32`-arena hedges.
pub fn encode_component(idx: u64, out: &mut Vec<u8>) {
    assert!(
        idx <= MAX_COMPONENT,
        "child index {idx} exceeds the sortable-path component range"
    );
    let ndigits = component_len(idx) - 1;
    if ndigits == 0 {
        out.push(DIGITS[idx as usize]);
        return;
    }
    // 2, 4, 6 or 8 digits behind the escape W, X, Y or Z.
    out.push(b"WXYZ"[(ndigits / 2 - 1) as usize]);
    for d in (0..ndigits).rev() {
        out.push(DIGITS[((idx >> (5 * d)) & 31) as usize]);
    }
}

/// Decode one component at the front of `bytes`: `(index, bytes consumed)`,
/// or `None` if the front is not a well-formed component.
pub fn decode_component(bytes: &[u8]) -> Option<(u64, usize)> {
    let digit = |b: u8| -> Option<u64> {
        match b {
            b'0'..=b'9' => Some(u64::from(b - b'0')),
            b'A'..=b'V' => Some(u64::from(b - b'A') + 10),
            _ => None,
        }
    };
    let &first = bytes.first()?;
    let ndigits = match first {
        b'W' => 2,
        b'X' => 4,
        b'Y' => 6,
        b'Z' => 8,
        _ => return Some((digit(first)?, 1)),
    };
    if bytes.len() < 1 + ndigits {
        return None;
    }
    let mut v = 0u64;
    for &b in &bytes[1..=ndigits] {
        v = (v << 5) | digit(b)?;
    }
    Some((v, 1 + ndigits))
}

/// The byte length [`node_paths`] would produce for `h`, computed without
/// building the table. Every node stores its whole root path, so the
/// table grows as nodes × depth: a chain of `d` nested elements needs
/// about `d²/2` bytes. Compare against [`MAX_PATH_TABLE_LEN`] before
/// indexing untrusted documents.
pub fn path_table_len(h: &FlatHedge) -> u64 {
    let n = h.num_nodes();
    let mut child_idx: Vec<u64> = vec![0; n];
    let mut path_len: Vec<u64> = vec![0; n];
    let mut total = 0u64;
    for id in h.preorder() {
        if let Some(next) = h.next_sibling(id) {
            child_idx[next as usize] = child_idx[id as usize] + 1;
        }
        let parent_len = h.parent(id).map_or(0, |p| path_len[p as usize]);
        path_len[id as usize] = parent_len + component_len(child_idx[id as usize]);
        total += path_len[id as usize];
    }
    total
}

/// The sortable path of every node, flattened: `bytes[off[n]..off[n+1]]`
/// is node `n`'s path. Built in one preorder sweep (each node copies its
/// parent's path and appends one component).
///
/// # Panics
/// If the table exceeds [`MAX_PATH_TABLE_LEN`] bytes; [`path_table_len`]
/// tells in advance.
pub fn node_paths(h: &FlatHedge) -> (Vec<u8>, Vec<u32>) {
    let n = h.num_nodes();
    let mut bytes: Vec<u8> = Vec::with_capacity(n * 2);
    let mut off: Vec<u32> = Vec::with_capacity(n + 1);
    off.push(0);
    // 0-based child index of each node within its sibling group.
    let mut child_idx: Vec<u64> = vec![0; n];
    for id in h.preorder() {
        if let Some(next) = h.next_sibling(id) {
            child_idx[next as usize] = child_idx[id as usize] + 1;
        }
        if let Some(p) = h.parent(id) {
            bytes.extend_from_within(off[p as usize] as usize..off[p as usize + 1] as usize);
        }
        encode_component(child_idx[id as usize], &mut bytes);
        off.push(u32::try_from(bytes.len()).expect("sortable-path table exceeds u32 offsets"));
    }
    (bytes, off)
}

/// The preorder range of `node`'s strict descendants, found by binary
/// search over the sorted path array: the interval `[P·"0", P·"ZW")`.
/// Returns `(lo, hi)` as node ids with `lo..hi` the descendants.
pub fn descendants_range(bytes: &[u8], off: &[u32], node: NodeId) -> (NodeId, NodeId) {
    let n = off.len() - 1;
    let path_of = |i: usize| &bytes[off[i] as usize..off[i + 1] as usize];
    let p = path_of(node as usize);
    // Compare path(i) against P with `extra` appended, without
    // materializing the bound.
    let lt_bound = |i: usize, extra: &[u8]| -> bool {
        let q = path_of(i);
        let head = q.len().min(p.len());
        match q[..head].cmp(&p[..head]) {
            std::cmp::Ordering::Less => true,
            std::cmp::Ordering::Greater => false,
            std::cmp::Ordering::Equal => &q[head..] < extra,
        }
    };
    let lo = partition(n, |i| lt_bound(i, b"0"));
    let hi = partition(n, |i| lt_bound(i, b"ZW"));
    (lo as NodeId, hi as NodeId)
}

/// `partition_point` over `0..n` (the path array is sorted by property 1).
fn partition(n: usize, pred: impl Fn(usize) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(mid) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_hedge::{parse_hedge, Alphabet};

    #[test]
    fn component_boundaries_encode_and_round_trip() {
        // The escape boundaries and their neighbours.
        let cases: &[(u64, &str)] = &[
            (0, "0"),
            (9, "9"),
            (10, "A"),
            (31, "V"),
            (32, "W10"),
            (1023, "WVV"),
            (1024, "X0100"),
            ((1 << 20) - 1, "XVVVV"),
            (1 << 20, "Y010000"),
            ((1 << 30) - 1, "YVVVVVV"),
            (1 << 30, "Z01000000"),
            (MAX_COMPONENT, "ZVVVVVVVV"),
        ];
        for &(idx, want) in cases {
            let mut out = Vec::new();
            encode_component(idx, &mut out);
            assert_eq!(out, want.as_bytes(), "encoding of {idx}");
            assert_eq!(decode_component(&out), Some((idx, out.len())));
            assert_eq!(component_len(idx), out.len() as u64, "length of {idx}");
        }
        assert_eq!(decode_component(b""), None);
        assert_eq!(decode_component(b"W1"), None, "truncated escape");
        assert_eq!(decode_component(b"w"), None, "foreign byte");
    }

    #[test]
    fn component_encoding_is_order_preserving() {
        let probes: Vec<u64> = (0..40)
            .flat_map(|b| {
                let v = 1u64 << b;
                [v - 1, v, v + 1]
            })
            .filter(|&v| v <= MAX_COMPONENT)
            .collect();
        let mut prev: Option<(u64, Vec<u8>)> = None;
        let mut sorted = probes.clone();
        sorted.sort_unstable();
        sorted.dedup();
        for idx in sorted {
            let mut enc = Vec::new();
            encode_component(idx, &mut enc);
            if let Some((pidx, penc)) = prev {
                assert!(penc < enc, "{pidx} vs {idx} break lexicographic order");
            }
            prev = Some((idx, enc));
        }
    }

    #[test]
    fn paths_sort_in_preorder_and_ranges_equal_subtrees() {
        let mut ab = Alphabet::new();
        let h = parse_hedge("b a<a<b $x> b> a<b b<a a> $x>", &mut ab).unwrap();
        let f = FlatHedge::from_hedge(&h);
        let (bytes, off) = node_paths(&f);
        assert_eq!(off.len(), f.num_nodes() + 1);
        assert_eq!(path_table_len(&f), bytes.len() as u64);
        // Property 1: NodeId order is already sorted order.
        for i in 0..f.num_nodes() - 1 {
            let a = &bytes[off[i] as usize..off[i + 1] as usize];
            let b = &bytes[off[i + 1] as usize..off[i + 2] as usize];
            assert!(a < b, "paths out of order at node {i}");
        }
        // Property 2: the P0..PZW range is exactly the preorder subtree.
        for id in f.preorder() {
            let (lo, hi) = descendants_range(&bytes, &off, id);
            assert_eq!(lo, id + 1, "descendants of {id} start right after it");
            let mut expect_hi = id + 1;
            while (expect_hi as usize) < f.num_nodes() {
                let mut anc = Some(expect_hi);
                let mut inside = false;
                while let Some(a) = anc {
                    if a == id {
                        inside = true;
                        break;
                    }
                    anc = f.parent(a);
                }
                if !inside {
                    break;
                }
                expect_hi += 1;
            }
            assert_eq!(hi, expect_hi, "descendants of {id} end");
        }
    }

    #[test]
    fn path_table_grows_quadratically_with_depth() {
        // A chain of d nested nodes stores paths of length 1..=d: the table
        // is d(d+1)/2 bytes, and 100 000 levels no longer fit u32 offsets.
        let chain = |depth: u32| {
            let mut b = hedgex_hedge::FlatBuilder::new();
            for _ in 0..depth {
                b.open(hedgex_hedge::SymId(0));
            }
            b.finish()
        };
        let small = chain(300);
        assert_eq!(path_table_len(&small), 300 * 301 / 2);
        assert_eq!(path_table_len(&small), node_paths(&small).0.len() as u64);
        assert!(path_table_len(&chain(90_000)) <= MAX_PATH_TABLE_LEN);
        assert!(path_table_len(&chain(100_000)) > MAX_PATH_TABLE_LEN);
    }

    #[test]
    fn wide_hedges_cross_the_first_escape() {
        // 40 roots: indices 0..39 cross the 31→32 digit/escape boundary.
        let mut ab = Alphabet::new();
        let src = vec!["a"; 40].join(" ");
        let f = FlatHedge::from_hedge(&parse_hedge(&src, &mut ab).unwrap());
        let (bytes, off) = node_paths(&f);
        for i in 0..39 {
            let a = &bytes[off[i] as usize..off[i + 1] as usize];
            let b = &bytes[off[i + 1] as usize..off[i + 2] as usize];
            assert!(a < b, "root {i} out of order");
        }
        let (lo, hi) = descendants_range(&bytes, &off, 35);
        assert_eq!((lo, hi), (36, 36), "leaves have empty ranges");
    }
}
