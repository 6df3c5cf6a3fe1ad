//! The on-disk corpus: layout, checksummed load, and the per-document
//! structural index.
//!
//! ## File layout (all integers little-endian)
//!
//! ```text
//! offset 0   magic  b"HXST"
//!        4   version u32                  (currently 3)
//!        8   payload length u64           (bytes after the header)
//!        16  checksum u64                 (see [`checksum`])
//!        24  payload:
//!              alphabet   3 × [count u32, count × (len u32, utf-8 bytes)]
//!                         (symbols, variables, substitution symbols)
//!              doc count  u32
//!              per document:
//!                name       len u32, utf-8 bytes
//!                nodes      count u32, count × (tag u8, label u32, parent u32)
//! ```
//!
//! The node records are the *entire* document — `(label, parent)` per node
//! in preorder — because the arena's sibling/child links are derivable.
//! The structural index is derivable too, so it is never written.
//!
//! A load makes two passes over the bytes through one bounded buffer. The
//! first checks the header and the checksum, so nothing is parsed before
//! the whole payload is known intact. The second decodes: each document's
//! records are read into one reused buffer and replayed into a
//! [`FlatBuilder`], which validates the preorder forest and writes each
//! node's subtree end as the node closes; the postings are then indexed
//! from the arena. [`DocumentStore::load`] streams a file, and
//! [`DocumentStore::from_bytes`] runs the same decoder over a slice.
//! Versions 1 (which also carried the index) and 2 (an FNV-1a checksum)
//! are refused with [`StoreError::UnsupportedVersion`].
//!
//! Every load error is a typed [`StoreError`] carrying the byte offset at
//! which the problem was detected; no input, however mangled, panics.

use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::path::Path;

use hedgex_hedge::flat::{FlatLabel, LABEL_ID_LIMIT, NIL};
use hedgex_hedge::{
    Alphabet, FlatBuilder, FlatHedge, HedgeSink, Leaf, NodeId, SubId, SymId, VarId,
};
use hedgex_obs as obs;

/// File magic: "HedgeX STore".
pub const MAGIC: [u8; 4] = *b"HXST";

/// Current format version.
pub const VERSION: u32 = 3;

/// Header size in bytes (magic + version + payload length + checksum).
pub const HEADER_LEN: usize = 24;

/// A typed, position-carrying load/save error. Loading never panics: any
/// deviation from the format — short reads, foreign magic, bad checksums,
/// structurally impossible payloads — maps to one of these.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem error (save or load).
    Io(std::io::Error),
    /// The input ended before a read that began at `offset` could finish.
    Truncated {
        /// Where the unfinished read began.
        offset: usize,
        /// Bytes the read needed.
        needed: usize,
        /// Bytes actually available there.
        available: usize,
    },
    /// The first four bytes are not [`MAGIC`].
    BadMagic {
        /// Always 0; carried for uniformity.
        offset: usize,
    },
    /// A version this build does not read.
    UnsupportedVersion {
        /// Offset of the version field.
        offset: usize,
        /// The version found.
        found: u32,
    },
    /// The header's payload length disagrees with the actual byte count.
    LengthMismatch {
        /// Offset of the length field.
        offset: usize,
        /// Length the header declares.
        declared: u64,
        /// Payload bytes actually present.
        actual: u64,
    },
    /// The payload does not hash to the header's checksum.
    ChecksumMismatch {
        /// Offset of the checksum field.
        offset: usize,
        /// Checksum the header declares.
        stored: u64,
        /// Checksum of the payload as read.
        computed: u64,
    },
    /// The payload parsed but is structurally impossible.
    Corrupt {
        /// Offset of the offending bytes.
        offset: usize,
        /// What was wrong.
        what: &'static str,
    },
}

impl StoreError {
    /// The byte offset the error points at (`None` for I/O errors).
    pub fn offset(&self) -> Option<usize> {
        match *self {
            StoreError::Io(_) => None,
            StoreError::Truncated { offset, .. }
            | StoreError::BadMagic { offset }
            | StoreError::UnsupportedVersion { offset, .. }
            | StoreError::LengthMismatch { offset, .. }
            | StoreError::ChecksumMismatch { offset, .. }
            | StoreError::Corrupt { offset, .. } => Some(offset),
        }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "store i/o error: {e}"),
            StoreError::Truncated {
                offset,
                needed,
                available,
            } => write!(
                f,
                "store truncated at byte {offset}: needed {needed} bytes, {available} available"
            ),
            StoreError::BadMagic { offset } => {
                write!(f, "not a hedgex store (bad magic at byte {offset})")
            }
            StoreError::UnsupportedVersion { offset, found } => write!(
                f,
                "unsupported store version {found} at byte {offset} (this build reads {VERSION}); \
                 re-run `hxq index`"
            ),
            StoreError::LengthMismatch {
                offset,
                declared,
                actual,
            } => write!(
                f,
                "store length field at byte {offset} declares {declared} payload bytes, found {actual}"
            ),
            StoreError::ChecksumMismatch {
                offset,
                stored,
                computed,
            } => write!(
                f,
                "store checksum mismatch at byte {offset}: stored {stored:#018x}, computed {computed:#018x}"
            ),
            StoreError::Corrupt { offset, what } => {
                write!(f, "corrupt store at byte {offset}: {what}")
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// The payload checksum: four lanes over little-endian `u64` words (word
/// `i` feeds lane `i % 4`), folded into one, then the bytes past the last
/// whole 32-byte block one at a time. Every `mix` step is a bijection of
/// the running value and of its input, so any one changed word or byte
/// changes the sum.
pub fn checksum(bytes: &[u8]) -> u64 {
    finish_checksum(LANES, bytes)
}

/// The lanes of [`checksum`] before any input.
const LANES: [u64; 4] = {
    let seed = 0xcbf2_9ce4_8422_2325;
    [seed, seed ^ 1, seed ^ 2, seed ^ 3]
};

/// One step of [`checksum`]: xor the input in, multiply by an odd
/// constant, and xor-shift right, so high bits reach low ones.
fn mix(h: u64, input: u64) -> u64 {
    let h = (h ^ input).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    h ^ (h >> 29)
}

/// Mix the whole 32-byte blocks of `bytes` into `lanes`, kept in locals so
/// the four multiply chains overlap.
fn mix_blocks(mut lanes: [u64; 4], bytes: &[u8]) -> [u64; 4] {
    for block in bytes.chunks_exact(32) {
        for (lane, word) in lanes.iter_mut().zip(block.chunks_exact(8)) {
            *lane = mix(*lane, u64::from_le_bytes(word.try_into().expect("8")));
        }
    }
    lanes
}

/// [`checksum`] of input whose leading whole blocks are already in `lanes`
/// and whose last bytes are `rest`.
fn finish_checksum(lanes: [u64; 4], rest: &[u8]) -> u64 {
    let [first, others @ ..] = mix_blocks(lanes, rest);
    let h = others.into_iter().fold(first, mix);
    let tail = rest.chunks_exact(32).remainder();
    tail.iter().fold(h, |h, &b| mix(h, u64::from(b)))
}

// ---------------------------------------------------------------------------
// The structural index
// ---------------------------------------------------------------------------

/// The per-document structural index: per-symbol postings. Derived from
/// the document whenever a store is built or loaded; never serialized.
/// Subtree extents are the arena's own ([`FlatHedge::subtree_ends`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StructIndex {
    /// `postings[postings_off[s]..postings_off[s+1]]` = sorted preorder
    /// node ids labelled `SymId(s)`; length `num_syms + 1`.
    postings_off: Vec<u32>,
    /// The flattened postings lists.
    postings: Vec<NodeId>,
}

impl StructIndex {
    /// Index one document against an alphabet of `num_syms` symbols, in
    /// time linear in its nodes: the postings are counting-sorted from the
    /// arena's label column, scanned twice.
    pub fn build(h: &FlatHedge, num_syms: usize) -> StructIndex {
        let syms = || {
            h.preorder().filter_map(|id| match h.label(id) {
                FlatLabel::Sym(a) => Some((id, a)),
                _ => None,
            })
        };
        let mut postings_off = vec![0u32; num_syms + 1];
        for (_, a) in syms() {
            postings_off[a.0 as usize + 1] += 1;
        }
        for s in 0..num_syms {
            postings_off[s + 1] += postings_off[s];
        }
        let mut cursor = postings_off.clone();
        let mut postings = vec![0 as NodeId; postings_off[num_syms] as usize];
        for (id, a) in syms() {
            postings[cursor[a.0 as usize] as usize] = id;
            cursor[a.0 as usize] += 1;
        }
        StructIndex {
            postings_off,
            postings,
        }
    }

    /// The sorted preorder node ids labelled `a` (empty for symbols beyond
    /// the indexed alphabet — e.g. interned only by a later query).
    pub fn postings(&self, a: SymId) -> &[NodeId] {
        let s = a.0 as usize;
        if s + 1 >= self.postings_off.len() {
            return &[];
        }
        &self.postings[self.postings_off[s] as usize..self.postings_off[s + 1] as usize]
    }
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// One stored document: its name (for CLI output), its hedge, its index.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StoredDoc {
    name: String,
    hedge: FlatHedge,
    index: StructIndex,
}

impl StoredDoc {
    /// The document's name (its file name at `hxq index` time).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The document itself.
    pub fn hedge(&self) -> &FlatHedge {
        &self.hedge
    }

    /// The document's structural index.
    pub fn index(&self) -> &StructIndex {
        &self.index
    }
}

/// A persistent corpus: one shared [`Alphabet`] and any number of indexed
/// documents.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DocumentStore {
    alphabet: Alphabet,
    docs: Vec<StoredDoc>,
}

impl DocumentStore {
    /// Build a store from documents flattened against a shared alphabet,
    /// indexing each one; queries afterwards only read.
    pub fn build(alphabet: Alphabet, docs: Vec<(String, FlatHedge)>) -> DocumentStore {
        let num_syms = alphabet.num_syms();
        let docs = docs
            .into_iter()
            .map(|(name, hedge)| {
                let index = StructIndex::build(&hedge, num_syms);
                StoredDoc { name, hedge, index }
            })
            .collect();
        DocumentStore { alphabet, docs }
    }

    /// The shared alphabet (clone it to parse queries against the same
    /// symbol ids the postings use).
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The stored documents, in insertion order.
    pub fn docs(&self) -> &[StoredDoc] {
        &self.docs
    }

    /// Number of stored documents.
    pub fn len(&self) -> usize {
        self.docs.len()
    }

    /// Is the store empty?
    pub fn is_empty(&self) -> bool {
        self.docs.is_empty()
    }

    /// Total node count across the corpus.
    pub fn total_nodes(&self) -> u64 {
        self.docs.iter().map(|d| d.hedge.num_nodes() as u64).sum()
    }

    // -- serialization ------------------------------------------------------

    /// Serialize to the versioned, checksummed byte format. The payload is
    /// written in place behind the header, whose length and checksum are
    /// filled in last.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.resize(HEADER_LEN, 0);
        let ab = &self.alphabet;
        write_names(
            &mut out,
            (0..ab.num_syms()).map(|i| ab.sym_name(SymId(i as u32))),
        );
        write_names(
            &mut out,
            (0..ab.num_vars()).map(|i| ab.var_name(VarId(i as u32))),
        );
        write_names(
            &mut out,
            (0..ab.num_subs()).map(|i| ab.sub_name(SubId(i as u32))),
        );
        write_u32(&mut out, self.docs.len() as u32);
        let doc_bytes = |d: &StoredDoc| 8 + d.name.len() + 9 * d.hedge.num_nodes();
        out.reserve_exact(self.docs.iter().map(doc_bytes).sum());
        for doc in &self.docs {
            write_u32(&mut out, doc.name.len() as u32);
            out.extend_from_slice(doc.name.as_bytes());
            let h = &doc.hedge;
            write_u32(&mut out, h.num_nodes() as u32);
            for id in h.preorder() {
                let (tag, label) = match h.label(id) {
                    FlatLabel::Sym(a) => (0u8, a.0),
                    FlatLabel::Var(x) => (1u8, x.0),
                    FlatLabel::Subst(z) => (2u8, z.0),
                };
                out.push(tag);
                write_u32(&mut out, label);
                write_u32(&mut out, h.parent(id).unwrap_or(NIL));
            }
        }
        let payload_len = (out.len() - HEADER_LEN) as u64;
        let sum = checksum(&out[HEADER_LEN..]);
        out[8..16].copy_from_slice(&payload_len.to_le_bytes());
        out[16..24].copy_from_slice(&sum.to_le_bytes());
        out
    }

    /// Parse the byte format. Never panics; every malformation returns a
    /// positioned [`StoreError`].
    pub fn from_bytes(buf: &[u8]) -> Result<DocumentStore, StoreError> {
        DocumentStore::decode(io::Cursor::new(buf), buf.len())
    }

    /// Write the store to a file.
    pub fn save(&self, path: &Path) -> Result<(), StoreError> {
        let _span = obs::span("store.save");
        std::fs::write(path, self.to_bytes())?;
        Ok(())
    }

    /// Read a store from a regular file. The file is read twice, in 64 KB
    /// chunks, and never held whole.
    pub fn load(path: &Path) -> Result<DocumentStore, StoreError> {
        let file = File::open(path)?;
        let meta = file.metadata()?;
        if !meta.is_file() {
            let e = io::Error::new(
                io::ErrorKind::InvalidInput,
                "a store must be a regular file",
            );
            return Err(e.into());
        }
        let src = io::BufReader::with_capacity(1 << 16, file);
        DocumentStore::decode(src, usize::try_from(meta.len()).unwrap_or(usize::MAX))
    }

    /// The one decoder behind [`from_bytes`](Self::from_bytes) and
    /// [`load`](Self::load), over the `len` bytes of `src`. The first pass
    /// checks the header and the checksum, so nothing is parsed from bytes
    /// the checksum has not cleared; the second decodes the payload.
    fn decode(src: impl Read + Seek, len: usize) -> Result<DocumentStore, StoreError> {
        let _span = obs::span("store.load");
        let mut r = Reader {
            src,
            pos: 0,
            len,
            buf: Vec::new(),
        };
        if r.bytes(4)? != MAGIC {
            return Err(StoreError::BadMagic { offset: 0 });
        }
        let version = r.u32()?;
        if version != VERSION {
            return Err(StoreError::UnsupportedVersion {
                offset: 4,
                found: version,
            });
        }
        let declared = r.u64()?;
        let stored_sum = r.u64()?;
        let actual = (len - HEADER_LEN) as u64;
        if declared != actual {
            return Err(StoreError::LengthMismatch {
                offset: 8,
                declared,
                actual,
            });
        }
        let computed = r.checksum_rest()?;
        if computed != stored_sum {
            return Err(StoreError::ChecksumMismatch {
                offset: 16,
                stored: stored_sum,
                computed,
            });
        }

        let mut alphabet = Alphabet::new();
        read_names(&mut r, |n| alphabet.sym(n).0)?;
        read_names(&mut r, |n| alphabet.var(n).0)?;
        read_names(&mut r, |n| alphabet.sub(n).0)?;
        let doc_count = r.u32()? as usize;
        let mut docs = Vec::new();
        r.check_items(doc_count, 8)?;
        for _ in 0..doc_count {
            docs.push(read_doc(&mut r, &alphabet)?);
        }
        if r.pos != len {
            return Err(StoreError::Corrupt {
                offset: r.pos,
                what: "trailing bytes after the last document",
            });
        }
        obs::counter_add("store.load.docs", docs.len() as u64);
        Ok(DocumentStore { alphabet, docs })
    }
}

fn write_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

fn write_names<'a>(out: &mut Vec<u8>, names: impl ExactSizeIterator<Item = &'a str>) {
    write_u32(out, names.len() as u32);
    for name in names {
        write_u32(out, name.len() as u32);
        out.extend_from_slice(name.as_bytes());
    }
}

fn read_names<R: Read + Seek>(
    r: &mut Reader<R>,
    mut intern: impl FnMut(&str) -> u32,
) -> Result<(), StoreError> {
    let count_off = r.pos;
    let count = r.u32()? as usize;
    r.check_items(count, 4)?;
    check_label_ids(count, count_off)?;
    for i in 0..count {
        let len = r.u32()? as usize;
        let off = r.pos;
        let name = std::str::from_utf8(r.bytes(len)?).map_err(|_| StoreError::Corrupt {
            offset: off,
            what: "alphabet name is not valid UTF-8",
        })?;
        if intern(name) != i as u32 {
            return Err(StoreError::Corrupt {
                offset: off,
                what: "duplicate name in the alphabet table",
            });
        }
    }
    Ok(())
}

/// The ids an alphabet table of `count` names (at `offset`) mints must
/// all fit a packed arena label.
fn check_label_ids(count: usize, offset: usize) -> Result<(), StoreError> {
    if count > LABEL_ID_LIMIT as usize {
        return Err(StoreError::Corrupt {
            offset,
            what: "alphabet table has more names than an arena label holds",
        });
    }
    Ok(())
}

/// Decode one document in one pass over its node records: each record is
/// checked and replayed into a [`FlatBuilder`], whose open stack is the
/// rightmost path, so a record's parent must be on it, and every node it
/// pops gets its subtree end from the builder. The postings are then
/// indexed from the arena ([`StructIndex::build`]). Every record error is
/// reported at the document's first record.
fn read_doc<R: Read + Seek>(r: &mut Reader<R>, ab: &Alphabet) -> Result<StoredDoc, StoreError> {
    let name_len = r.u32()? as usize;
    let name_off = r.pos;
    let name = std::str::from_utf8(r.bytes(name_len)?)
        .map_err(|_| StoreError::Corrupt {
            offset: name_off,
            what: "document name is not valid UTF-8",
        })?
        .to_string();

    let node_count = r.u32()? as usize;
    r.check_items(node_count, 9)?;
    let nodes_off = r.pos;
    let records = r.bytes(9 * node_count)?;
    let corrupt = |what| StoreError::Corrupt {
        offset: nodes_off,
        what,
    };
    let field = |rec: &[u8], at: usize| u32::from_le_bytes(rec[at..at + 4].try_into().expect("4"));
    let (num_syms, num_vars, num_subs) = (ab.num_syms(), ab.num_vars(), ab.num_subs());
    let mut b = FlatBuilder::with_capacity(node_count);
    for rec in records.chunks_exact(9) {
        let (label, parent) = (field(rec, 1), field(rec, 5));
        let label = match rec[0] {
            0 if (label as usize) < num_syms => FlatLabel::Sym(SymId(label)),
            1 if (label as usize) < num_vars => FlatLabel::Var(VarId(label)),
            2 if (label as usize) < num_subs || label == SubId::ETA.0 => {
                FlatLabel::Subst(SubId(label))
            }
            0..=2 => return Err(corrupt("node label id out of the alphabet's range")),
            _ => return Err(corrupt("unknown node label tag")),
        };
        // Close subtrees until the claimed parent is the innermost open
        // node (a root closes them all); each node is opened and closed at
        // most once, so the document decodes in linear time. A parent that
        // is not open empties the stack.
        while b.innermost_open().is_some_and(|top| top != parent) {
            b.close();
        }
        if parent != NIL && b.innermost_open().is_none() {
            return Err(corrupt("node records are not a preorder forest"));
        }
        match Leaf::try_from(label) {
            Err(a) => b.open(a),
            Ok(leaf) => b.leaf(leaf),
        };
    }
    let hedge = b.finish();
    let index = StructIndex::build(&hedge, num_syms);
    Ok(StoredDoc { name, hedge, index })
}

/// A positioned, bounds-checked little-endian reader over the `len` bytes
/// of `src`. Every variable-length read lands in the one reused `buf`.
struct Reader<R> {
    src: R,
    pos: usize,
    len: usize,
    buf: Vec<u8>,
}

impl<R: Read + Seek> Reader<R> {
    fn bytes(&mut self, n: usize) -> Result<&[u8], StoreError> {
        let available = self.len - self.pos;
        if n > available {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed: n,
                available,
            });
        }
        self.buf.resize(n, 0);
        self.src.read_exact(&mut self.buf)?;
        self.pos += n;
        Ok(&self.buf)
    }

    fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.bytes(4)?.try_into().expect("4")))
    }

    fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.bytes(8)?.try_into().expect("8")))
    }

    /// Guard an upcoming `count`-item read (each at least `min_size`
    /// bytes) *before* allocating: a corrupted count can therefore demand
    /// at most the input's own size, never an absurd allocation.
    fn check_items(&self, count: usize, min_size: usize) -> Result<(), StoreError> {
        let available = self.len - self.pos;
        let needed = count.saturating_mul(min_size);
        if needed > available {
            return Err(StoreError::Truncated {
                offset: self.pos,
                needed,
                available,
            });
        }
        Ok(())
    }

    /// The [`checksum`] of every byte after `pos`, read through `buf` in
    /// 64 KB chunks; the reader is then back at `pos`.
    fn checksum_rest(&mut self) -> Result<u64, StoreError> {
        const CHUNK: usize = 1 << 16;
        let mut lanes = LANES;
        let mut left = self.len - self.pos;
        self.buf.resize(CHUNK, 0);
        while left > CHUNK {
            self.src.read_exact(&mut self.buf)?;
            lanes = mix_blocks(lanes, &self.buf);
            left -= CHUNK;
        }
        self.buf.resize(left, 0);
        self.src.read_exact(&mut self.buf)?;
        self.src.seek(SeekFrom::Start(self.pos as u64))?;
        Ok(finish_checksum(lanes, &self.buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hedgex_hedge::parse_hedge;
    use std::collections::BTreeMap;

    fn sample_store() -> DocumentStore {
        let mut ab = Alphabet::new();
        let docs: Vec<(String, FlatHedge)> =
            ["b a<a<b $x> b>", "a a<b b<a>> b", "", "b<b<b<a $y>>>"]
                .iter()
                .enumerate()
                .map(|(i, src)| {
                    (
                        format!("doc{i}.xml"),
                        FlatHedge::from_hedge(&parse_hedge(src, &mut ab).unwrap()),
                    )
                })
                .collect();
        DocumentStore::build(ab, docs)
    }

    #[test]
    fn round_trips_through_bytes() {
        let store = sample_store();
        let bytes = store.to_bytes();
        let loaded = DocumentStore::from_bytes(&bytes).unwrap();
        assert_eq!(loaded, store);
        assert_eq!(loaded.len(), 4);
        assert_eq!(loaded.total_nodes(), store.total_nodes());
    }

    #[test]
    fn postings_are_sorted_and_complete() {
        let store = sample_store();
        for doc in store.docs() {
            let h = doc.hedge();
            let mut by_sym: BTreeMap<u32, Vec<NodeId>> = BTreeMap::new();
            for id in h.preorder() {
                if let FlatLabel::Sym(a) = h.label(id) {
                    by_sym.entry(a.0).or_default().push(id);
                }
            }
            for s in 0..store.alphabet().num_syms() as u32 {
                let want = by_sym.remove(&s).unwrap_or_default();
                assert_eq!(doc.index().postings(SymId(s)), &want[..], "{}", doc.name());
            }
            // Out-of-range symbols have empty postings, not panics.
            assert_eq!(doc.index().postings(SymId(999)), &[] as &[NodeId]);
        }
    }

    #[test]
    fn subtree_ends_match_parent_chains() {
        let store = sample_store();
        let under = |h: &FlatHedge, d: NodeId, id: NodeId| {
            let mut anc = h.parent(d);
            while let Some(a) = anc {
                if a == id {
                    return true;
                }
                anc = h.parent(a);
            }
            false
        };
        for doc in store.docs() {
            let h = doc.hedge();
            let end = h.subtree_ends();
            assert_eq!(end.len(), h.num_nodes());
            for id in h.preorder() {
                let range = id + 1..end[id as usize];
                // Everything in the range really descends from id, and
                // every descendant of id lies in the range.
                for d in h.preorder() {
                    assert_eq!(
                        range.contains(&d),
                        under(h, d, id),
                        "node {d} vs the subtree of {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn header_errors_are_positioned() {
        let store = sample_store();
        let good = store.to_bytes();

        assert!(matches!(
            DocumentStore::from_bytes(&[]),
            Err(StoreError::Truncated {
                offset: 0,
                needed: 4,
                available: 0
            })
        ));
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert!(matches!(
            DocumentStore::from_bytes(&bad),
            Err(StoreError::BadMagic { offset: 0 })
        ));
        let mut bad = good.clone();
        bad[4] = 9;
        assert!(matches!(
            DocumentStore::from_bytes(&bad),
            Err(StoreError::UnsupportedVersion {
                offset: 4,
                found: 9
            })
        ));
        // Cut the payload short: the declared length no longer matches.
        let cut = &good[..good.len() - 3];
        assert!(matches!(
            DocumentStore::from_bytes(cut),
            Err(StoreError::LengthMismatch { offset: 8, .. })
        ));
        // Flip a payload byte: caught by the checksum before parsing.
        let mut bad = good.clone();
        *bad.last_mut().unwrap() ^= 0xFF;
        assert!(matches!(
            DocumentStore::from_bytes(&bad),
            Err(StoreError::ChecksumMismatch { offset: 16, .. })
        ));
    }

    #[test]
    fn payload_corruption_with_fixed_checksum_is_still_typed() {
        // Re-seal the checksum after corrupting the payload, so the parse
        // itself must catch the damage.
        let reseal = |mut bytes: Vec<u8>| -> Vec<u8> {
            let sum = checksum(&bytes[HEADER_LEN..]);
            bytes[16..24].copy_from_slice(&sum.to_le_bytes());
            bytes
        };
        let store = sample_store();
        let good = store.to_bytes();

        // Explode a count field: guarded before any allocation.
        let mut bad = good.clone();
        bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
        assert!(matches!(
            DocumentStore::from_bytes(&reseal(bad)),
            Err(StoreError::Truncated { .. })
        ));
        // Declare one fewer payload byte than present.
        let mut bad = good.clone();
        let declared = u64::from_le_bytes(bad[8..16].try_into().unwrap()) - 1;
        bad[8..16].copy_from_slice(&declared.to_le_bytes());
        assert!(matches!(
            DocumentStore::from_bytes(&bad),
            Err(StoreError::LengthMismatch { offset: 8, .. })
        ));
    }

    #[test]
    fn alphabet_tables_stop_at_the_label_id_limit() {
        // A table of LABEL_ID_LIMIT names mints ids up to LABEL_ID_LIMIT - 1,
        // the last a packed label holds; one more name is corrupt.
        let limit = LABEL_ID_LIMIT as usize;
        assert!(check_label_ids(limit, 24).is_ok());
        assert!(matches!(
            check_label_ids(limit + 1, 24),
            Err(StoreError::Corrupt { offset: 24, .. })
        ));
    }

    #[test]
    fn empty_store_round_trips() {
        let store = DocumentStore::build(Alphabet::new(), Vec::new());
        let loaded = DocumentStore::from_bytes(&store.to_bytes()).unwrap();
        assert!(loaded.is_empty());
        assert_eq!(loaded.total_nodes(), 0);
    }

    #[test]
    fn save_and_load_round_trip_through_a_file() {
        let store = sample_store();
        let dir = std::env::temp_dir().join(format!("hedgex-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corpus.hxst");
        store.save(&path).unwrap();
        let loaded = DocumentStore::load(&path).unwrap();
        assert_eq!(loaded, store);
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(DocumentStore::load(&path), Err(StoreError::Io(_))));
    }

    #[test]
    fn a_file_of_several_read_chunks_checksums_like_its_bytes() {
        // 22 500 nodes: a payload of three 64 KB read chunks and a partial
        // one, whose length is no multiple of the checksum's 32-byte block.
        let mut ab = Alphabet::new();
        let src = "a<b $x> ".repeat(7_500);
        let doc = FlatHedge::from_hedge(&parse_hedge(&src, &mut ab).unwrap());
        let store = DocumentStore::build(ab, vec![("big.xml".into(), doc)]);
        let mut bytes = store.to_bytes();
        let payload = bytes.len() - HEADER_LEN;
        assert!(
            payload > 3 << 16 && !payload.is_multiple_of(32),
            "{payload}"
        );

        let dir = std::env::temp_dir().join(format!("hedgex-store-chunks-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.hxst");
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(DocumentStore::load(&path).unwrap(), store);
        // A flip in the tail past the last whole block is caught too.
        *bytes.last_mut().unwrap() ^= 1;
        std::fs::write(&path, &bytes).unwrap();
        assert!(matches!(
            DocumentStore::load(&path),
            Err(StoreError::ChecksumMismatch { offset: 16, .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
