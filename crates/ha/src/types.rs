//! Shared id types for hedge automata. [`Leaf`] lives in `hedgex-hedge`,
//! beside the structure events that carry it.

pub use hedgex_hedge::Leaf;

/// A hedge-automaton state. Dense, starting at 0 within each automaton.
pub type HState = u32;
