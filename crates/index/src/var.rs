//! Interned index variables.
//!
//! A [`Var`] pairs a unique numeric id with a human-readable base name.
//! Identity (equality, hashing, ordering) is by id only, so two variables
//! both displayed as `n` never collide, and substitution is capture-free
//! as long as binders always use fresh ids (which [`VarGen`] guarantees).

use std::fmt;
use std::sync::atomic::{AtomicU32, Ordering};
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
/// owns everything up to `u32::MAX`). [`VarLease`] carves disjoint
/// sub-ranges out of a supply so parallel solver workers can generate
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
    /// [`VarLease`] when carving from an existing supply.
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
}

/// An atomically-leased region of fresh variable ids.
///
/// Partitioning ids by worker *at spawn time* is unsound under
/// work-stealing: a thread that steals goals beyond its original share
/// would have to mint ids from a range it does not own. A `VarLease`
/// instead carves one region out of a parent supply and hands out
/// disjoint chunks on demand through an atomic cursor — any number of
/// threads can lease any number of chunks, in any schedule, and no id is
/// ever produced twice. The parent supply advances past the whole region
/// at carve time, so its later ids cannot collide with leased ones either.
#[derive(Debug)]
pub struct VarLease {
    next: AtomicU32,
    limit: u32,
}

impl VarLease {
    /// Carves a `size`-id region out of `parent` (which advances past it).
    ///
    /// Panics if the parent's remaining id space is smaller than `size`.
    pub fn carve(parent: &mut VarGen, size: u32) -> VarLease {
        let start = parent.next;
        let end = start
            .checked_add(size)
            .filter(|e| *e <= parent.limit)
            .expect("VarGen id space exhausted by lease carve");
        parent.next = end;
        VarLease { next: AtomicU32::new(start), limit: end }
    }

    /// Atomically leases the next `n`-id chunk as a fresh supply.
    ///
    /// Panics if the region is exhausted; size the carve for the worst
    /// case (callers lease one chunk per work unit, so `chunks × n` bounds
    /// the region).
    pub fn lease(&self, n: u32) -> VarGen {
        let start = self.next.fetch_add(n, Ordering::Relaxed);
        let end = start.checked_add(n).filter(|e| *e <= self.limit).unwrap_or_else(|| {
            panic!("VarLease region exhausted (lease of {n} past {})", self.limit)
        });
        VarGen { next: start, limit: end }
    }

    /// Ids not yet leased.
    pub fn remaining(&self) -> u32 {
        self.limit.saturating_sub(self.next.load(Ordering::Relaxed))
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
    fn lease_chunks_are_disjoint_from_each_other_and_parent() {
        let mut g = VarGen::new();
        g.fresh("before");
        let lease = VarLease::carve(&mut g, 1 << 10);
        let after = g.fresh("after");
        let mut seen = HashSet::new();
        for _ in 0..8 {
            let mut sub = lease.lease(64);
            for _ in 0..64 {
                assert!(seen.insert(sub.fresh("w").id()), "leased ids collided");
            }
        }
        assert!(!seen.contains(&after.id()), "parent id fell inside the leased region");
    }

    /// Regression test for work-stealing id soundness: replays a schedule
    /// where worker B steals goals that a static per-worker partition
    /// would have assigned to worker A. Under leasing, every goal's ids
    /// come from a chunk claimed at execution time by whichever thread
    /// actually runs it, so the interleaved schedule mints no duplicate.
    #[test]
    fn lease_is_sound_under_a_stolen_goal_schedule() {
        let mut g = VarGen::new();
        let lease = VarLease::carve(&mut g, 1 << 12);
        // Schedule: A takes goal 0, B steals goals 1 and 2 while A is
        // still mid-goal, A resumes with goal 3. Chunks interleave in the
        // same order the steals happen.
        let mut a0 = lease.lease(16);
        let mut b1 = lease.lease(16);
        let ids_a0: Vec<u32> = (0..16).map(|_| a0.fresh("a").id()).collect();
        let mut b2 = lease.lease(16);
        let ids_b1: Vec<u32> = (0..16).map(|_| b1.fresh("b").id()).collect();
        let mut a3 = lease.lease(16);
        let ids_b2: Vec<u32> = (0..16).map(|_| b2.fresh("b").id()).collect();
        let ids_a3: Vec<u32> = (0..16).map(|_| a3.fresh("a").id()).collect();
        let mut all = HashSet::new();
        for id in ids_a0.iter().chain(&ids_b1).chain(&ids_b2).chain(&ids_a3) {
            assert!(all.insert(*id), "stolen schedule produced duplicate id {id}");
        }
        assert!(!all.contains(&g.fresh("parent").id()));
    }

    #[test]
    #[should_panic(expected = "exhausted")]
    fn lease_past_region_panics() {
        let mut g = VarGen::new();
        let lease = VarLease::carve(&mut g, 32);
        let _ = lease.lease(16);
        let _ = lease.lease(17);
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
        let mut sub = VarLease::carve(&mut g, 16).lease(2);
        // The lease fits; its third id is past the leased range.
        for _ in 0..3 {
            sub.fresh("x");
        }
    }
}
