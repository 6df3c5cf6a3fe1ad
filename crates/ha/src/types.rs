//! Shared id types for hedge automata.

use hedgex_hedge::{SubId, VarId};

/// A hedge-automaton state. Dense, starting at 0 within each automaton.
pub type HState = u32;

/// A leaf label: hedge automata assign `ι`-states to variable leaves, and —
/// following Lemma 1's proof, which "allow\[s\] substitution symbols as
/// variables of hedge automata" — also to substitution-symbol leaves.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Leaf {
    /// A variable of X.
    Var(VarId),
    /// A substitution symbol of Z (including the reserved η).
    Sub(SubId),
}

impl From<VarId> for Leaf {
    fn from(v: VarId) -> Self {
        Leaf::Var(v)
    }
}

impl From<SubId> for Leaf {
    fn from(z: SubId) -> Self {
        Leaf::Sub(z)
    }
}
