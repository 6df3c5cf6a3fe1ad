//! Store-loader robustness fuzzing: `DocumentStore::from_bytes` is the
//! trust boundary between the filesystem and the evaluator, and this
//! suite holds it to the same standard as the XML parsers — on every
//! mutilated store image it must return a *typed* error at a byte-accurate
//! offset, and it must never panic, never allocate absurdly, and never
//! hand back a store whose index is not the one its own documents derive
//! (the file carries no index; the loader builds it). Corruption that
//! keeps the checksum valid (the "resealed" class, a liar that did the
//! arithmetic) must still be caught by the structural validators behind
//! it.

use hedgex::hedge::flat::FlatLabel;
use hedgex::prelude::*;
use hedgex::store::store::{checksum, HEADER_LEN, MAGIC};
use hedgex::store::StructIndex;
use hedgex_testkit::{forall, prop_assert, Config, Gen};

// ---------------------------------------------------------------------------
// A small valid store image to mutilate
// ---------------------------------------------------------------------------

/// The seed image: a few documents with symbols, variables, nesting, and
/// an empty document, so every payload section is non-trivially populated.
fn valid_image() -> Vec<u8> {
    let mut ab = Alphabet::new();
    let docs: Vec<(String, FlatHedge)> = ["b a<a<b $x> b>", "a a<b b<a>> b", "", "b<b<b<a $y>>>"]
        .iter()
        .enumerate()
        .map(|(i, src)| {
            (
                format!("doc{i}.xml"),
                FlatHedge::from_hedge(&parse_hedge(src, &mut ab).unwrap()),
            )
        })
        .collect();
    DocumentStore::build(ab, docs).to_bytes()
}

/// Rewrite the declared payload length and checksum so header-level gates
/// pass and the corruption reaches the structural validators.
fn reseal(bytes: &mut [u8]) {
    let payload_len = (bytes.len() - HEADER_LEN) as u64;
    bytes[8..16].copy_from_slice(&payload_len.to_le_bytes());
    let sum = checksum(&bytes[HEADER_LEN..]);
    bytes[16..24].copy_from_slice(&sum.to_le_bytes());
}

// ---------------------------------------------------------------------------
// Generators: every corruption class a disk can serve
// ---------------------------------------------------------------------------

/// Truncations, bit flips, header junk, checksum-resealed payload edits,
/// random soup, and the occasional pristine image as a control.
fn arb_image(seed: &[u8]) -> Gen<Vec<u8>> {
    let seed = seed.to_vec();
    Gen::new(move |rng| {
        let mut bytes = seed.clone();
        match rng.random_range(0..12u32) {
            // Control: untouched (must load Ok).
            0 => {}
            // Truncate at a random offset — the partial-write crash.
            1 | 2 => bytes.truncate(rng.random_range(0..=bytes.len())),
            // Flip a random bit anywhere (header or payload).
            3 | 4 => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] ^= 1 << rng.random_range(0..8u32);
            }
            // Overwrite a random byte with a random value.
            5 => {
                let at = rng.random_range(0..bytes.len());
                bytes[at] = rng.random_range(0..256u32) as u8;
            }
            // The liar: corrupt the payload, then redo the arithmetic so
            // only the structural validators can catch it.
            6 | 7 => {
                let at = rng.random_range(HEADER_LEN..bytes.len());
                bytes[at] = bytes[at].wrapping_add(1 + rng.random_range(0..255u32) as u8);
                reseal(&mut bytes);
            }
            // Resealed truncation/extension: lengths lie consistently.
            8 => {
                let keep = rng.random_range(HEADER_LEN..=bytes.len());
                bytes.truncate(keep);
                reseal(&mut bytes);
            }
            9 => {
                bytes.extend((0..rng.random_range(1..16usize)).map(|_| 0xA5));
                reseal(&mut bytes);
            }
            // Random soup, sometimes magic-prefixed so it gets past byte 4.
            10 => {
                bytes = (0..rng.random_range(0..64usize))
                    .map(|_| rng.random_range(0..256u32) as u8)
                    .collect();
            }
            _ => {
                let mut soup: Vec<u8> = MAGIC.to_vec();
                soup.extend(
                    (0..rng.random_range(0..48usize)).map(|_| rng.random_range(0..256u32) as u8),
                );
                bytes = soup;
            }
        }
        bytes
    })
    .with_shrink(|b| {
        // Halving prefixes preserve most corruptions while shrinking fast.
        [b.len() / 2, b.len().saturating_sub(1)]
            .into_iter()
            .filter(|&cut| cut < b.len())
            .map(|cut| b[..cut].to_vec())
            .collect()
    })
}

// ---------------------------------------------------------------------------
// Properties
// ---------------------------------------------------------------------------

/// The loader survives all 300 mutilations: every load either succeeds and
/// round-trips byte-identically, or fails with a typed error whose offset
/// lands inside (or exactly at the end of) the input. No panics, ever.
#[test]
fn corrupted_stores_fail_with_positioned_typed_errors() {
    let seed = valid_image();
    let expected = DocumentStore::from_bytes(&seed).expect("seed image loads");
    forall(
        "store_corruption",
        Config::with_cases(300),
        &arb_image(&seed),
        |bytes| {
            match DocumentStore::from_bytes(bytes) {
                Ok(store) => {
                    // A successful load of mutated bytes is only
                    // acceptable if the mutation was semantically null:
                    // the reload must re-serialize to exactly the bytes it
                    // was loaded from, which load back equal (and the
                    // control case must equal the seed store exactly).
                    let reencoded = store.to_bytes();
                    prop_assert!(
                        reencoded == *bytes,
                        "a loaded image does not re-serialize byte-identically"
                    );
                    let again = DocumentStore::from_bytes(&reencoded)
                        .map_err(|e| format!("re-serialized store failed to load: {e}"))?;
                    prop_assert!(again == store, "re-serialization not idempotent");
                    // The index is the one the loaded documents derive, and
                    // each symbol's postings are its nodes, found by a scan of
                    // the labels that shares no code with the index.
                    let num_syms = store.alphabet().num_syms();
                    for doc in store.docs() {
                        prop_assert!(
                            *doc.index() == StructIndex::build(doc.hedge(), num_syms),
                            "{}: loaded index differs from its hedge's",
                            doc.name()
                        );
                        let h = doc.hedge();
                        for a in store.alphabet().syms() {
                            let scan: Vec<u32> = h
                                .preorder()
                                .filter(|&n| h.label(n) == FlatLabel::Sym(a))
                                .collect();
                            prop_assert!(
                                doc.index().postings(a) == &scan[..],
                                "{}: postings of {:?} differ from the label scan",
                                doc.name(),
                                a
                            );
                        }
                    }
                    if bytes == &seed {
                        prop_assert!(store == expected, "control case differs from seed");
                    }
                }
                Err(e) => {
                    let off = e.offset();
                    prop_assert!(
                        off.is_some(),
                        "from_bytes error must carry an offset, got {:?}",
                        e
                    );
                    prop_assert!(
                        off.unwrap() <= bytes.len(),
                        "offset {} beyond input of {} bytes ({})",
                        off.unwrap(),
                        bytes.len(),
                        e
                    );
                    // The Display form is the CLI's diagnostic: one line,
                    // non-empty.
                    let msg = e.to_string();
                    prop_assert!(
                        !msg.is_empty() && !msg.contains('\n'),
                        "bad message {:?}",
                        msg
                    );
                }
            }
            Ok(())
        },
    );
}

/// Hand-picked hostile images: the byte-level edges a shrunk fuzz failure
/// would land on, pinned with their exact error classes so they stay
/// fixed.
#[test]
fn pinned_hostile_images_fail_identically() {
    use hedgex::store::StoreError;
    let seed = valid_image();

    // Empty and every header prefix: truncated before the payload starts.
    for cut in 0..HEADER_LEN.min(seed.len()) {
        match DocumentStore::from_bytes(&seed[..cut]) {
            Err(StoreError::Truncated { offset, .. }) => {
                assert!(offset <= cut, "offset {offset} beyond cut {cut}")
            }
            other => panic!("prefix {cut}: expected Truncated, got {other:?}"),
        }
    }

    // Wrong magic, reported at byte 0.
    let mut bad = seed.clone();
    bad[0] = b'Z';
    assert!(matches!(
        DocumentStore::from_bytes(&bad),
        Err(StoreError::BadMagic { offset: 0 })
    ));

    // Future version, reported at byte 4.
    let mut bad = seed.clone();
    bad[4..8].copy_from_slice(&9u32.to_le_bytes());
    assert!(matches!(
        DocumentStore::from_bytes(&bad),
        Err(StoreError::UnsupportedVersion {
            offset: 4,
            found: 9
        })
    ));

    // Version 1 (the format that also serialized the index) and version 2
    // (an FNV-1a checksum) images are refused by their version alone, with
    // the re-index hint.
    for version in [1u32, 2] {
        let mut bad = seed.clone();
        bad[4..8].copy_from_slice(&version.to_le_bytes());
        let err = DocumentStore::from_bytes(&bad).unwrap_err();
        assert!(
            matches!(
                err,
                StoreError::UnsupportedVersion { offset: 4, found } if found == version
            ),
            "{err:?}"
        );
        assert!(err.to_string().contains("re-run `hxq index`"), "{err}");
    }

    // Payload shorter than declared: LengthMismatch at byte 8.
    let mut bad = seed.clone();
    bad.truncate(seed.len() - 3);
    assert!(matches!(
        DocumentStore::from_bytes(&bad),
        Err(StoreError::LengthMismatch { offset: 8, .. })
    ));

    // One flipped payload byte: the checksum catches it at byte 16.
    let mut bad = seed.clone();
    let last = bad.len() - 1;
    bad[last] ^= 0xFF;
    assert!(matches!(
        DocumentStore::from_bytes(&bad),
        Err(StoreError::ChecksumMismatch { offset: 16, .. })
    ));

    // Trailing garbage with honest arithmetic: Corrupt, not a panic.
    let mut bad = seed.clone();
    bad.extend_from_slice(&[0xA5; 7]);
    reseal(&mut bad);
    assert!(matches!(
        DocumentStore::from_bytes(&bad),
        Err(StoreError::Corrupt { .. })
    ));

    // A resealed count bomb: u32::MAX documents must be rejected by the
    // allocation guard (typed Truncated), not attempted.
    let mut bad = seed.clone();
    // The doc count sits right after the three name tables; rather than
    // compute its offset, plant the bomb in the first count field (symbol
    // table length) — same guard, fixed offset.
    bad[HEADER_LEN..HEADER_LEN + 4].copy_from_slice(&u32::MAX.to_le_bytes());
    reseal(&mut bad);
    match DocumentStore::from_bytes(&bad) {
        // The guard fires right after the count field is consumed.
        Err(StoreError::Truncated { offset, .. }) => assert_eq!(offset, HEADER_LEN + 4),
        other => panic!("count bomb: expected Truncated, got {other:?}"),
    }
}

/// Every single-bit flip anywhere in the payload is caught by the checksum
/// before any parsing, and so is a pair of flips that cancels in a lane
/// that only multiplies.
#[test]
fn every_payload_bit_flip_fails_the_checksum() {
    use hedgex::store::StoreError;
    let seed = valid_image();
    let payload_len = seed.len() - HEADER_LEN;
    assert_ne!(payload_len % 32, 0, "the seed payload must have a tail");
    let caught = |bad: &[u8]| {
        matches!(
            DocumentStore::from_bytes(bad),
            Err(StoreError::ChecksumMismatch { offset: 16, .. })
        )
    };
    for at in HEADER_LEN..seed.len() {
        for bit in 0..8 {
            let mut bad = seed.clone();
            bad[at] ^= 1 << bit;
            assert!(
                caught(&bad),
                "flip of bit {bit} at byte {at} went unnoticed"
            );
        }
    }

    // Bit 63 of payload words 0 and 4, both in lane 0. A lane that only
    // xors and multiplies by an odd constant carries a bit-63 difference
    // through unchanged, so the second flip cancels the first.
    let mut bad = seed.clone();
    for word in [0, 4] {
        bad[HEADER_LEN + 8 * word + 7] ^= 0x80;
    }
    let plain_lane = |image: &[u8]| {
        let words = image[HEADER_LEN..].chunks_exact(8).step_by(4).take(5);
        words.fold(0u64, |h, w| {
            (h ^ u64::from_le_bytes(w.try_into().unwrap())).wrapping_mul(0x9E37_79B9_7F4A_7C15)
        })
    };
    assert_eq!(
        plain_lane(&bad),
        plain_lane(&seed),
        "the pair cancels there"
    );
    assert!(caught(&bad), "the planted bit-63 pair went unnoticed");
}

/// Byte offset of document 0's first node record in a store image.
fn first_doc_records(image: &[u8]) -> usize {
    let u32_at = |at: usize| u32::from_le_bytes(image[at..at + 4].try_into().unwrap()) as usize;
    let mut at = HEADER_LEN;
    // The symbol, variable and substitution tables.
    for _ in 0..3 {
        let count = u32_at(at);
        at += 4;
        for _ in 0..count {
            at += 4 + u32_at(at);
        }
    }
    // The document count, document 0's name, then its node count.
    at += 4;
    at += 4 + u32_at(at);
    at + 4
}

/// Node records that are not a preorder forest, or whose labels are out of
/// range, are refused at their document's first record even when the
/// checksum is resealed over them.
#[test]
fn resealed_records_that_are_not_a_forest_are_corrupt() {
    use hedgex::store::StoreError;
    let seed = valid_image();
    let records = first_doc_records(&seed);
    // Document 0 is b a⟨a⟨b $x⟩ b⟩: ids 0..6 in preorder, parents
    // NIL, NIL, 1, 2, 2, 1.
    let parent_of = |image: &[u8], id: usize| {
        let at = records + 9 * id + 5;
        u32::from_le_bytes(image[at..at + 4].try_into().unwrap())
    };
    assert_eq!(
        (0..6).map(|id| parent_of(&seed, id)).collect::<Vec<_>>(),
        [u32::MAX, u32::MAX, 1, 2, 2, 1]
    );
    let forest = "node records are not a preorder forest";
    let cases: [(&str, usize, usize, u32, &str); 6] = [
        ("a forward parent", 1, 5, 3, forest),
        ("a self parent", 2, 5, 2, forest),
        // Node 0 left the rightmost path as soon as root 1 arrived.
        ("an already-closed parent", 5, 5, 0, forest),
        // Node 4 is the $x leaf, which is never open.
        ("a non-Σ parent", 5, 5, 4, forest),
        (
            "a label past the alphabet",
            0,
            1,
            999,
            "node label id out of the alphabet's range",
        ),
        ("an unknown tag", 0, 0, 7, "unknown node label tag"),
    ];
    for (case, id, field, value, want) in cases {
        let mut bad = seed.clone();
        let at = records + 9 * id + field;
        if field == 0 {
            bad[at] = value as u8;
        } else {
            bad[at..at + 4].copy_from_slice(&value.to_le_bytes());
        }
        reseal(&mut bad);
        match DocumentStore::from_bytes(&bad) {
            Err(StoreError::Corrupt { offset, what }) => {
                assert_eq!((offset, what), (records, want), "{case}")
            }
            other => panic!("{case}: expected Corrupt, got {other:?}"),
        }
    }
}
