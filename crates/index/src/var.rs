//! Interned index variables.
//!
//! A [`Var`] pairs a unique numeric id with a human-readable base name.
//! Identity (equality, hashing, ordering) is by id only, so two variables
//! both displayed as `n` never collide, and substitution is capture-free
//! as long as binders always use fresh ids (which [`VarGen`] guarantees).

use std::fmt;
use std::sync::Arc;

/// An index variable: a unique id plus a display name.
#[derive(Debug, Clone)]
pub struct Var {
    id: u32,
    name: Arc<str>,
}

impl Var {
    /// Creates a variable with an explicit id. Prefer [`VarGen::fresh`].
    pub fn new(id: u32, name: impl Into<Arc<str>>) -> Self {
        Var { id, name: name.into() }
    }

    /// The unique id.
    pub fn id(&self) -> u32 {
        self.id
    }

    /// The display name (not necessarily unique).
    pub fn name(&self) -> &str {
        &self.name
    }
}

impl PartialEq for Var {
    fn eq(&self, other: &Self) -> bool {
        self.id == other.id
    }
}
impl Eq for Var {}

impl PartialOrd for Var {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Var {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.id.cmp(&other.id)
    }
}

impl std::hash::Hash for Var {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.id.hash(state);
    }
}

impl fmt::Display for Var {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.name)
    }
}

/// A supply of fresh [`Var`]s.
///
/// A supply owns a half-open id range `next..limit` (the default supply
/// owns everything up to `u32::MAX`). [`VarGen::carve`] splits disjoint
/// sub-ranges off a supply so parallel solver workers can generate
/// fresh variables without any synchronisation and still never collide
/// with each other or with the parent supply.
#[derive(Debug, Clone)]
pub struct VarGen {
    next: u32,
    limit: u32,
}

impl Default for VarGen {
    fn default() -> Self {
        VarGen { next: 0, limit: u32::MAX }
    }
}

impl VarGen {
    /// Creates a fresh supply starting at id 0.
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Creates a supply that starts at `start` (and owns ids up to
    /// `u32::MAX`). Used to hand out disjoint ranges explicitly; prefer
    /// [`VarGen::carve`] when splitting an existing supply.
    pub fn starting_at(start: u32) -> Self {
        VarGen { next: start, limit: u32::MAX }
    }

    /// Returns a fresh variable with the given display name.
    pub fn fresh(&mut self, name: &str) -> Var {
        let id = self.next;
        assert!(id < self.limit, "VarGen id range exhausted");
        self.next += 1;
        Var::new(id, name)
    }

    /// Returns a fresh variable whose display name is derived from `base`
    /// with the id appended, e.g. `E#12` — used for elaboration-introduced
    /// existential variables so Figure-4-style output stays readable.
    pub fn fresh_tagged(&mut self, base: &str) -> Var {
        let id = self.next;
        assert!(id < self.limit, "VarGen id range exhausted");
        self.next += 1;
        Var::new(id, format!("{base}#{id}"))
    }

    /// Number of variables generated so far.
    pub fn count(&self) -> u32 {
        self.next
    }

    /// Ids left in this supply's range before [`VarGen::fresh`] panics.
    pub fn remaining(&self) -> u32 {
        self.limit - self.next
    }

    /// Ensures future ids are strictly greater than `id` (used when a
    /// supply must not collide with variables created elsewhere).
    pub fn advance_past(&mut self, id: u32) {
        if self.next <= id {
            self.next = id + 1;
        }
    }

    /// Carves `count` consecutive supplies of `stride` ids each out of
    /// this one, which advances past all of them. Supply `i` owns ids
    /// `start + i·stride .. start + (i+1)·stride`, so the ids a unit of
    /// work mints depend on its index alone, never on which thread runs
    /// it or when.
    ///
    /// Panics if this supply has fewer than `count × stride` ids left.
    pub fn carve(&mut self, count: u32, stride: u32) -> Vec<VarGen> {
        let start = self.next;
        let end = count
            .checked_mul(stride)
            .and_then(|size| start.checked_add(size))
            .filter(|end| *end <= self.limit)
            .expect("VarGen id space exhausted by carve");
        self.next = end;
        (0..count)
            .map(|i| VarGen { next: start + i * stride, limit: start + (i + 1) * stride })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn identity_is_by_id() {
        let a = Var::new(0, "n");
        let b = Var::new(1, "n");
        let c = Var::new(0, "m");
        assert_ne!(a, b);
        assert_eq!(a, c, "same id, different display name");
    }

    #[test]
    fn gen_produces_distinct_vars() {
        let mut g = VarGen::new();
        let vs: HashSet<Var> = (0..100).map(|_| g.fresh("x")).collect();
        assert_eq!(vs.len(), 100);
        assert_eq!(g.count(), 100);
    }

    #[test]
    fn tagged_names_include_id() {
        let mut g = VarGen::new();
        g.fresh("a");
        let v = g.fresh_tagged("E");
        assert_eq!(v.to_string(), "E#1");
    }

    #[test]
    fn advance_past_prevents_collisions() {
        let mut g = VarGen::new();
        g.advance_past(10);
        assert_eq!(g.fresh("x").id(), 11);
        g.advance_past(5); // no-op, already past
        assert_eq!(g.fresh("y").id(), 12);
    }

    #[test]
    fn ordering_follows_ids() {
        let mut g = VarGen::new();
        let a = g.fresh("z");
        let b = g.fresh("a");
        assert!(a < b);
    }

    #[test]
    fn carved_supplies_are_disjoint_and_fixed_by_index() {
        let mut g = VarGen::new();
        g.fresh("before");
        let carved = g.carve(8, 64);
        let after = g.fresh("after");
        // Mint from the supplies in reverse order: supply `i` still owns
        // the `i`-th range, whichever order the work runs in.
        let mut seen = HashSet::new();
        for (i, sub) in carved.iter().enumerate().rev() {
            let mut sub = sub.clone();
            for k in 0..64 {
                let id = sub.fresh("w").id();
                assert_eq!(id, 1 + 64 * i as u32 + k, "supply {i}");
                assert!(seen.insert(id), "carved ids collided");
            }
        }
        assert!(!seen.contains(&after.id()), "parent id fell inside a carved range");
        assert_eq!(after.id(), 1 + 8 * 64);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn carve_past_the_supply_panics() {
        let mut g = VarGen::new();
        let mut sub = g.carve(1, 32).remove(0);
        let _ = sub.carve(2, 17);
    }

    #[test]
    fn starting_at_offsets_ids() {
        let mut g = VarGen::starting_at(500);
        assert_eq!(g.fresh("x").id(), 500);
        assert_eq!(g.fresh("y").id(), 501);
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn exhausted_sub_supply_panics() {
        let mut g = VarGen::new();
        let mut sub = g.carve(1, 2).remove(0);
        // The carve fits; its third id is past the carved range.
        for _ in 0..3 {
            sub.fresh("x");
        }
    }
}
