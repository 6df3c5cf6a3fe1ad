//! The one address writer: the Dewey addresses (footnote 3 of the paper)
//! of a whole answer in one forward pass over the arena.

use std::io::{self, Write};

use crate::flat::{FlatHedge, NodeId};

/// Writes the Dewey addresses of nodes given in preorder, lending each as
/// one `&[u32]`: O(n + output) for a whole answer, no allocation per node.
///
/// The next node shares a prefix with the last one's ancestor chain: the
/// chain's nodes whose subtree range holds it. At the first level that
/// differs, the last node's entry is an elder sibling of the next node's
/// ancestor, so the sibling scan resumes there; deeper levels scan from
/// the first child. A scan steps from a node to its subtree end, the next
/// sibling, until the subtree holds the target, so no sibling is stepped
/// over twice and no parent is read ([`FlatHedge::dewey`] rescans every
/// level).
#[derive(Debug)]
pub struct DeweyWriter<'h> {
    h: &'h FlatHedge,
    /// The last node's ancestors-or-self, root first.
    chain: Vec<NodeId>,
    /// Their 1-based sibling indices: the last node's address.
    steps: Vec<u32>,
}

impl<'h> DeweyWriter<'h> {
    /// A writer over the arena `h`.
    pub fn new(h: &'h FlatHedge) -> DeweyWriter<'h> {
        DeweyWriter {
            h,
            chain: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// The Dewey address of `n`. A node that precedes the last one is
    /// addressed too, scanning its differing levels from the eldest sibling.
    fn address(&mut self, n: NodeId) -> &[u32] {
        let ends = self.h.subtree_ends();
        let holds = |at: NodeId| at <= n && n < ends[at as usize];
        let shared = self.chain.iter().take_while(|&&at| holds(at)).count();
        let (mut at, mut idx) = match self.chain.get(shared) {
            Some(&at) if at <= n => (at, self.steps[shared]),
            _ => (shared.checked_sub(1).map_or(0, |up| self.chain[up] + 1), 1),
        };
        self.chain.truncate(shared);
        self.steps.truncate(shared);
        while self.chain.last() != Some(&n) {
            while !holds(at) {
                at = ends[at as usize];
                idx += 1;
            }
            self.chain.push(at);
            self.steps.push(idx);
            (at, idx) = (at + 1, 1);
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
///
/// The digits are formatted into a 256-byte stack buffer and the line goes
/// out in one `write_all`; only a line longer than the buffer (a deep node
/// or a long prefix) is written in pieces.
pub fn write_line(out: &mut impl Write, prefix: Option<&str>, addr: &[u32]) -> io::Result<()> {
    /// `/` and the ten digits of `u32::MAX`.
    const STEP: usize = 11;
    let mut line = [0u8; 256];
    let mut len = 0;
    if let Some(prefix) = prefix {
        if prefix.len() + 1 + STEP < line.len() {
            line[..prefix.len()].copy_from_slice(prefix.as_bytes());
            len = prefix.len();
        } else {
            out.write_all(prefix.as_bytes())?;
        }
        line[len] = b':';
        len += 1;
    }
    for &step in addr {
        // Keep room for this step and the newline.
        if len + STEP >= line.len() {
            out.write_all(&line[..len])?;
            len = 0;
        }
        line[len] = b'/';
        len += 1;
        let digits = step.checked_ilog10().map_or(1, |d| d as usize + 1);
        let mut rest = step;
        for d in line[len..len + digits].iter_mut().rev() {
            *d = b'0' + (rest % 10) as u8;
            rest /= 10;
        }
        len += digits;
    }
    line[len] = b'\n';
    out.write_all(&line[..len + 1])
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

    #[test]
    fn lines_longer_than_the_buffer_are_whole() {
        let long = "d".repeat(300);
        for prefix in [None, Some("a.xml"), Some(&long[..243]), Some(&long[..])] {
            for addr in [
                vec![],
                vec![0, 9, 10, 99, 100, u32::MAX],
                vec![u32::MAX; 40],
                (1..200).collect(),
            ] {
                let mut out = Vec::new();
                write_line(&mut out, prefix, &addr).unwrap();
                let steps: String = addr.iter().map(|d| format!("/{d}")).collect();
                let want = match prefix {
                    Some(p) => format!("{p}:{steps}\n"),
                    None => format!("{steps}\n"),
                };
                assert_eq!(String::from_utf8(out).unwrap(), want);
            }
        }
    }
}
