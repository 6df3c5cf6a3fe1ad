//! Interned alphabets: Σ (node labels), X (variables), Z (substitution
//! symbols).
//!
//! The paper keeps Σ, X and Z pairwise disjoint; this crate enforces that by
//! giving each its own id type, interned in a shared [`Alphabet`]. All ids
//! are dense `u32`s so hedges stay small and automata can index by them.

use hedgex_testkit::{FromJson, Json, ToJson};
use std::collections::HashMap;

/// A symbol of Σ: the label of an internal node `a⟨u⟩`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SymId(pub u32);

/// A variable of X: the label of a leaf node.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VarId(pub u32);

/// A substitution symbol of Z: the embedding target of Definitions 9–10.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SubId(pub u32);

macro_rules! impl_id_json {
    ($($t:ident),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                self.0.to_json()
            }
        }
        impl FromJson for $t {
            fn from_json(j: &Json) -> Result<Self, String> {
                u32::from_json(j).map($t)
            }
        }
    )*};
}

impl_id_json!(SymId, VarId, SubId);

impl SubId {
    /// The distinguished substitution symbol `η` of pointed hedges
    /// (Definition 13). Reserved; [`Alphabet`] never hands it out.
    pub const ETA: SubId = SubId(u32::MAX);
}

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

impl std::fmt::Display for SymId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "s{}", self.0)
    }
}
impl std::fmt::Display for VarId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "$v{}", self.0)
    }
}
impl std::fmt::Display for SubId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == SubId::ETA {
            write!(f, "%η")
        } else {
            write!(f, "%z{}", self.0)
        }
    }
}

/// The sizes of the three interned name spaces, as one value.
///
/// Execution engines size their dense dispatch tables up front from these
/// counts: every `SymId`/`VarId`/`SubId` an `Alphabet` has handed out is a
/// dense index strictly below the corresponding field, so a table of that
/// length covers the whole namespace without hashing or bounds growth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NamespaceSizes {
    /// Number of interned Σ symbols (exclusive upper bound on `SymId`).
    pub syms: usize,
    /// Number of interned variables (exclusive upper bound on `VarId`).
    pub vars: usize,
    /// Number of interned substitution symbols (exclusive upper bound on
    /// `SubId`, not counting the reserved `η`).
    pub subs: usize,
}

/// Shared interner for the three name spaces.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Alphabet {
    syms: Vec<String>,
    vars: Vec<String>,
    subs: Vec<String>,
    sym_ids: HashMap<String, SymId>,
    var_ids: HashMap<String, VarId>,
    sub_ids: HashMap<String, SubId>,
}

impl ToJson for Alphabet {
    /// Only the name tables go on the wire; the reverse indices are
    /// recomputed on deserialization.
    fn to_json(&self) -> Json {
        Json::obj([
            ("syms", self.syms.to_json()),
            ("vars", self.vars.to_json()),
            ("subs", self.subs.to_json()),
        ])
    }
}

impl FromJson for Alphabet {
    fn from_json(j: &Json) -> Result<Self, String> {
        let field =
            |k: &str| Vec::<String>::from_json(j.get(k).ok_or_else(|| format!("missing '{k}'"))?);
        let mut ab = Alphabet {
            syms: field("syms")?,
            vars: field("vars")?,
            subs: field("subs")?,
            sym_ids: HashMap::new(),
            var_ids: HashMap::new(),
            sub_ids: HashMap::new(),
        };
        ab.rebuild_index();
        Ok(ab)
    }
}

impl Alphabet {
    /// An empty alphabet.
    pub fn new() -> Self {
        Alphabet::default()
    }

    /// Intern a Σ symbol name.
    pub fn sym(&mut self, name: &str) -> SymId {
        if let Some(&id) = self.sym_ids.get(name) {
            return id;
        }
        let id = SymId(self.syms.len() as u32);
        self.syms.push(name.to_string());
        self.sym_ids.insert(name.to_string(), id);
        id
    }

    /// Intern a variable name.
    pub fn var(&mut self, name: &str) -> VarId {
        if let Some(&id) = self.var_ids.get(name) {
            return id;
        }
        let id = VarId(self.vars.len() as u32);
        self.vars.push(name.to_string());
        self.var_ids.insert(name.to_string(), id);
        id
    }

    /// Intern a substitution-symbol name.
    pub fn sub(&mut self, name: &str) -> SubId {
        if let Some(&id) = self.sub_ids.get(name) {
            return id;
        }
        let id = SubId(self.subs.len() as u32);
        assert!(id != SubId::ETA, "substitution-symbol space exhausted");
        self.subs.push(name.to_string());
        self.sub_ids.insert(name.to_string(), id);
        id
    }

    /// Look up a Σ symbol without interning.
    pub fn get_sym(&self, name: &str) -> Option<SymId> {
        self.sym_ids.get(name).copied()
    }

    /// Look up a variable without interning.
    pub fn get_var(&self, name: &str) -> Option<VarId> {
        self.var_ids.get(name).copied()
    }

    /// Look up a substitution symbol without interning.
    pub fn get_sub(&self, name: &str) -> Option<SubId> {
        self.sub_ids.get(name).copied()
    }

    /// The name of a Σ symbol.
    pub fn sym_name(&self, id: SymId) -> &str {
        &self.syms[id.0 as usize]
    }

    /// The name of a variable.
    pub fn var_name(&self, id: VarId) -> &str {
        &self.vars[id.0 as usize]
    }

    /// The name of a substitution symbol (`η` for the reserved one).
    pub fn sub_name(&self, id: SubId) -> &str {
        if id == SubId::ETA {
            "η"
        } else {
            &self.subs[id.0 as usize]
        }
    }

    /// All three namespace sizes at once, for sizing dense id-indexed
    /// tables up front (see [`NamespaceSizes`]).
    pub fn sizes(&self) -> NamespaceSizes {
        NamespaceSizes {
            syms: self.syms.len(),
            vars: self.vars.len(),
            subs: self.subs.len(),
        }
    }

    /// Number of interned Σ symbols.
    pub fn num_syms(&self) -> usize {
        self.syms.len()
    }

    /// Number of interned variables.
    pub fn num_vars(&self) -> usize {
        self.vars.len()
    }

    /// Number of interned substitution symbols.
    pub fn num_subs(&self) -> usize {
        self.subs.len()
    }

    /// All Σ symbols, in interning order.
    pub fn syms(&self) -> impl Iterator<Item = SymId> + '_ {
        (0..self.syms.len() as u32).map(SymId)
    }

    /// All variables, in interning order.
    pub fn vars(&self) -> impl Iterator<Item = VarId> + '_ {
        (0..self.vars.len() as u32).map(VarId)
    }

    /// All substitution symbols, in interning order.
    pub fn subs(&self) -> impl Iterator<Item = SubId> + '_ {
        (0..self.subs.len() as u32).map(SubId)
    }

    /// Rebuild the lookup maps (needed after deserialization, since the
    /// reverse indices are skipped on the wire).
    pub fn rebuild_index(&mut self) {
        self.sym_ids = self
            .syms
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), SymId(i as u32)))
            .collect();
        self.var_ids = self
            .vars
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), VarId(i as u32)))
            .collect();
        self.sub_ids = self
            .subs
            .iter()
            .enumerate()
            .map(|(i, s)| (s.clone(), SubId(i as u32)))
            .collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_idempotent() {
        let mut ab = Alphabet::new();
        let a1 = ab.sym("section");
        let a2 = ab.sym("section");
        assert_eq!(a1, a2);
        assert_eq!(ab.num_syms(), 1);
        assert_eq!(ab.sym_name(a1), "section");
    }

    #[test]
    fn namespaces_are_disjoint() {
        let mut ab = Alphabet::new();
        let s = ab.sym("x");
        let v = ab.var("x");
        let z = ab.sub("x");
        assert_eq!(s.0, 0);
        assert_eq!(v.0, 0);
        assert_eq!(z.0, 0);
        assert_eq!(ab.sym_name(s), ab.var_name(v));
        assert_eq!(ab.num_syms() + ab.num_vars() + ab.num_subs(), 3);
    }

    #[test]
    fn sizes_bound_every_handed_out_id() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let b = ab.sym("b");
        let x = ab.var("x");
        let z = ab.sub("z");
        let s = ab.sizes();
        assert_eq!(
            s,
            NamespaceSizes {
                syms: 2,
                vars: 1,
                subs: 1
            }
        );
        for id in [a.0, b.0] {
            assert!((id as usize) < s.syms);
        }
        assert!((x.0 as usize) < s.vars);
        assert!((z.0 as usize) < s.subs);
    }

    #[test]
    fn lookup_without_interning() {
        let mut ab = Alphabet::new();
        ab.sym("a");
        assert!(ab.get_sym("a").is_some());
        assert!(ab.get_sym("b").is_none());
        assert!(ab.get_var("a").is_none());
    }

    #[test]
    fn eta_is_reserved() {
        assert_eq!(SubId::ETA.to_string(), "%η");
        let mut ab = Alphabet::new();
        let z = ab.sub("z");
        assert_ne!(z, SubId::ETA);
        assert_eq!(ab.sub_name(SubId::ETA), "η");
    }

    #[test]
    fn iteration_order_is_interning_order() {
        let mut ab = Alphabet::new();
        let a = ab.sym("a");
        let b = ab.sym("b");
        let collected: Vec<SymId> = ab.syms().collect();
        assert_eq!(collected, vec![a, b]);
    }

    #[test]
    fn json_roundtrip_restores_lookup() {
        let mut ab = Alphabet::new();
        ab.sym("a");
        ab.var("x");
        ab.sub("z");
        let json = ab.to_json().to_string();
        let back = Alphabet::from_json(&Json::parse(&json).unwrap()).unwrap();
        // The reverse indices are not on the wire; from_json rebuilds them.
        assert_eq!(back.get_sym("a"), Some(SymId(0)));
        assert_eq!(back.get_var("x"), Some(VarId(0)));
        assert_eq!(back.get_sub("z"), Some(SubId(0)));
        assert_eq!(back.sym_name(SymId(0)), "a");
    }

    #[test]
    fn json_shape_is_three_name_tables() {
        let mut ab = Alphabet::new();
        ab.sym("section");
        assert_eq!(
            ab.to_json().to_string(),
            r#"{"syms":["section"],"vars":[],"subs":[]}"#
        );
    }
}
