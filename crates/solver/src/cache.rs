//! Shared verdict cache keyed on canonical goals.
//!
//! A [`GoalCache`] memoizes [`Verdict`]s across every obligation of a
//! compile and every `entails` query the lint walker issues. It is sharded
//! (16 mutex-guarded maps, shard picked by key hash) so parallel solve
//! workers rarely contend, and hit/miss counters are plain atomics so
//! reading statistics never takes a lock.
//!
//! Hit/miss counts are best-effort under concurrency: two workers can race
//! on the same cold key and both record a miss. Verdicts themselves are
//! deterministic per canonical goal, so double-computation is only wasted
//! work, never an inconsistency.
//!
//! The cache lives as long as the solver that owns it and no longer:
//! verdicts stay warm across checks only inside one process, which is
//! what a `dmlc serve` session is for.

use crate::canon::CanonGoal;
use dml_index::Verdict;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const SHARDS: usize = 16;

/// A sharded, thread-safe memo table from canonical goal to verdict.
#[derive(Debug)]
pub struct GoalCache {
    shards: [Mutex<HashMap<CanonGoal, Verdict>>; SHARDS],
    hits: AtomicU64,
    misses: AtomicU64,
}

impl Default for GoalCache {
    fn default() -> Self {
        GoalCache {
            shards: std::array::from_fn(|_| Mutex::new(HashMap::new())),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }
}

impl GoalCache {
    /// Creates an empty cache.
    pub fn new() -> Self {
        GoalCache::default()
    }

    fn shard(&self, key: &CanonGoal) -> &Mutex<HashMap<CanonGoal, Verdict>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Looks up a verdict, recording a hit or miss.
    pub fn get(&self, key: &CanonGoal) -> Option<Verdict> {
        let found = self.shard(key).lock().unwrap().get(key).cloned();
        let counter = if found.is_some() { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Stores a verdict. Last writer wins on a racy double-compute; both
    /// writers derived the verdict from the same canonical goal.
    pub fn insert(&self, key: CanonGoal, result: Verdict) {
        self.shard(&key).lock().unwrap().insert(key, result);
    }

    /// Total lookup hits so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Total lookup misses so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of distinct cached goals.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.lock().unwrap().len()).sum()
    }

    /// Entry count per shard, in shard order — shows how evenly the key
    /// hash spreads goals (surfaced in `dmlc check --trace-out` metadata).
    pub fn shard_sizes(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.lock().unwrap().len()).collect()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::canon::canonicalize;
    use crate::goal::Goal;
    use dml_index::{IExp, Prop, Sort, VarGen};

    fn key(seed_name: &str) -> CanonGoal {
        let mut g = VarGen::new();
        let a = g.fresh(seed_name);
        canonicalize(&Goal {
            ctx: vec![(a.clone(), Sort::Int)],
            hyps: vec![Prop::le(IExp::lit(0), IExp::var(a.clone()))],
            concl: Prop::le(IExp::lit(-1), IExp::var(a)),
            residual_existential: false,
        })
    }

    #[test]
    fn miss_then_hit_with_counters() {
        let cache = GoalCache::new();
        let k = key("a");
        assert!(cache.get(&k).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(k.clone(), Verdict::Proven);
        assert_eq!(cache.get(&k), Some(Verdict::Proven));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn concurrent_use_is_safe() {
        let cache = GoalCache::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..50 {
                        let k = key("x");
                        if cache.get(&k).is_none() {
                            cache.insert(k, Verdict::Proven);
                        }
                    }
                });
            }
        });
        assert_eq!(cache.len(), 1, "alpha-equal keys collapse to one entry");
        assert_eq!(cache.hits() + cache.misses(), 200);
        assert!(cache.hits() > 0);
    }
}
