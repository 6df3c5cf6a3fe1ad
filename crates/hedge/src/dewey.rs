//! The one address writer: the Dewey addresses (footnote 3 of the paper)
//! of a whole answer in one forward pass over the arena.

use std::io::{self, Write};

use crate::flat::{FlatHedge, NodeId};

/// Writes the Dewey addresses of nodes given in preorder, lending each as
/// one `&[u32]`: O(n + output) for a whole answer, no allocation per node.
///
/// The next node shares a prefix with the last one's ancestor chain. Its
/// first differing level resumes the sibling scan where the last node
/// left it, and deeper levels scan from the first child, so no sibling is
/// stepped over twice ([`FlatHedge::dewey`] rescans every level).
#[derive(Debug)]
pub struct DeweyWriter<'h> {
    h: &'h FlatHedge,
    /// The last node's ancestors-or-self, root first.
    chain: Vec<NodeId>,
    /// Their 1-based sibling indices: the last node's address.
    steps: Vec<u32>,
    /// The next node's ancestors-or-self, node first.
    up: Vec<NodeId>,
}

impl<'h> DeweyWriter<'h> {
    /// A writer over the arena `h`.
    pub fn new(h: &'h FlatHedge) -> DeweyWriter<'h> {
        DeweyWriter {
            h,
            chain: Vec::new(),
            steps: Vec::new(),
            up: Vec::new(),
        }
    }

    /// The Dewey address of `n`. A node that precedes the last one is
    /// addressed too, scanning its differing levels from the eldest sibling.
    fn address(&mut self, n: NodeId) -> &[u32] {
        let h = self.h;
        self.up.clear();
        self.up
            .extend(std::iter::successors(Some(n), |&id| h.parent(id)));
        let up = self.up.iter().rev();
        let shared = self
            .chain
            .iter()
            .zip(up.clone())
            .take_while(|(a, b)| a == b)
            .count();
        // At the first differing level the last node's ancestor is an elder
        // sibling of this node's (in preorder): the scan resumes from it.
        let mut resume = self.chain.get(shared).map(|&at| (at, self.steps[shared]));
        self.chain.truncate(shared);
        self.steps.truncate(shared);
        for &target in up.skip(shared) {
            let (mut at, mut idx) = match resume.take() {
                Some((at, idx)) if at <= target => (at, idx),
                _ => (h.first_sibling(target), 1),
            };
            while at != target {
                at = h.next_sibling(at).expect("younger siblings follow");
                idx += 1;
            }
            self.chain.push(target);
            self.steps.push(idx);
        }
        &self.steps
    }

    /// One [`write_line`] per node of `hits`.
    pub fn write_lines(
        &mut self,
        out: &mut impl Write,
        prefix: Option<&str>,
        hits: &[NodeId],
    ) -> io::Result<()> {
        hits.iter()
            .try_for_each(|&n| write_line(out, prefix, self.address(n)))
    }
}

/// The line naming one located node: `[PREFIX:]/d₁/d₂/…` and a newline.
pub fn write_line(out: &mut impl Write, prefix: Option<&str>, addr: &[u32]) -> io::Result<()> {
    if let Some(prefix) = prefix {
        write!(out, "{prefix}:")?;
    }
    addr.iter().try_for_each(|step| write!(out, "/{step}"))?;
    out.write_all(b"\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::symbols::Alphabet;
    use crate::text::parse_hedge;

    /// `b a<a<b $x> b> c<d<e> d> f` and the address of each node, in
    /// preorder.
    fn sample() -> (FlatHedge, [&'static [u32]; 11]) {
        let h = parse_hedge("b a<a<b $x> b> c<d<e> d> f", &mut Alphabet::new()).unwrap();
        let addresses: [&[u32]; 11] = [
            &[1],
            &[2],
            &[2, 1],
            &[2, 1, 1],
            &[2, 1, 2],
            &[2, 2],
            &[3],
            &[3, 1],
            &[3, 1, 1],
            &[3, 2],
            &[4],
        ];
        (FlatHedge::from_hedge(&h), addresses)
    }

    #[test]
    fn every_node_in_preorder() {
        let (f, addresses) = sample();
        let mut w = DeweyWriter::new(&f);
        for n in f.preorder() {
            assert_eq!(w.address(n), addresses[n as usize], "node {n}");
        }
    }

    #[test]
    fn out_of_order_nodes_are_still_addressed() {
        let (f, addresses) = sample();
        let mut w = DeweyWriter::new(&f);
        for n in [9, 2, 2, 8, 0, 4, 3, 10, 1, 7, 5] {
            assert_eq!(w.address(n), addresses[n as usize], "node {n}");
        }
    }

    #[test]
    fn lines_carry_the_prefix() {
        let mut out = Vec::new();
        write_line(&mut out, None, &[2, 1]).unwrap();
        write_line(&mut out, Some("a.xml"), &[3]).unwrap();
        assert_eq!(out, b"/2/1\na.xml:/3\n");
    }
}
