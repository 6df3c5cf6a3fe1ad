//! Canonical query keys.

use crate::phr::Phr;

/// The canonical form of a PHR: a structural rendering that is identical
/// for structurally identical queries regardless of how they were built.
pub fn canonical_key(phr: &Phr) -> String {
    format!("{phr:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::phr::parse_phr;
    use hedgex_hedge::Alphabet;

    #[test]
    fn canonical_key_is_reparse_invariant() {
        let mut ab = Alphabet::new();
        let once = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        let twice = parse_phr("[a* ; b ; a*]", &mut ab).unwrap();
        assert_eq!(canonical_key(&once), canonical_key(&twice));
        let other = parse_phr("[a* ; b ; b*]", &mut ab).unwrap();
        assert_ne!(canonical_key(&once), canonical_key(&other));
    }
}
