//! The compiled-plan cache: a bounded LRU keyed by spec hash.
//!
//! Compilation (spec validation, polyhedral derivation, tiling, schedule
//! warm-up) dominates small-job latency, so a resident engine keeps the
//! last `capacity` compiled [`Plan`]s (see [`PlanCache::new`]) and reuses
//! them across tenants submitting the same `(spec, params)` — the key is
//! [`dpgen_core::spec_hash`]. Entries are immutable `Arc`s: a hit and the
//! jobs already executing an evicted plan share it safely; eviction only
//! drops the cache's own reference.

use dpgen_core::Plan;
use dpgen_runtime::RunError;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A bounded LRU of compiled plans (see the module docs).
pub struct PlanCache {
    capacity: usize,
    /// LRU order: least-recently-used at the front, newest at the back.
    /// Linear scan is fine at cache-sized populations (tens to hundreds).
    entries: Mutex<Vec<(u64, Arc<Plan>)>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("len", &self.len())
            .field("capacity", &self.capacity)
            .field("hits", &self.hits())
            .field("misses", &self.misses())
            .field("evictions", &self.evictions.load(Ordering::Relaxed))
            .finish()
    }
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans.
    pub fn new(capacity: usize) -> PlanCache {
        PlanCache {
            capacity: capacity.max(1),
            entries: Mutex::new(Vec::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Look up a plan by key, marking it most-recently-used.
    pub fn get(&self, key: u64) -> Option<Arc<Plan>> {
        let mut entries = self.entries.lock();
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            let e = entries.remove(i);
            let plan = e.1.clone();
            entries.push(e);
            self.hits.fetch_add(1, Ordering::Relaxed);
            Some(plan)
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            None
        }
    }

    /// The cached plan for `key`, or the result of `compile` inserted
    /// under it. Returns `(plan, hit)`. Compilation runs outside the
    /// cache lock, so concurrent misses on *different* keys compile in
    /// parallel; two racing misses on the same key both compile and the
    /// loser adopts the winner's entry.
    pub fn get_or_compile<F>(&self, key: u64, compile: F) -> Result<(Arc<Plan>, bool), RunError>
    where
        F: FnOnce() -> Result<Arc<Plan>, RunError>,
    {
        if let Some(plan) = self.get(key) {
            return Ok((plan, true));
        }
        let plan = compile()?;
        let mut entries = self.entries.lock();
        if let Some(i) = entries.iter().position(|(k, _)| *k == key) {
            // Lost a compile race: keep the incumbent (its memos may
            // already be warm from the winner's first execution).
            let e = entries.remove(i);
            let incumbent = e.1.clone();
            entries.push(e);
            return Ok((incumbent, false));
        }
        while entries.len() >= self.capacity {
            entries.remove(0);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        entries.push((key, plan.clone()));
        Ok((plan, false))
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.entries.lock().len()
    }

    /// True when no plan is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookup hits since creation.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses since creation.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted by the capacity bound since creation.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Hits over lookups, 0.0 when nothing was looked up yet.
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TRI: &str = "name tri\nvars x y\nparams N\nconstraint x >= 0\n\
                       constraint y >= 0\nconstraint x + y <= N\n\
                       template r1 1 0\ntemplate r2 0 1\nwidths 2 2\n";

    fn plan(n: i64) -> Arc<Plan> {
        Plan::from_spec(TRI, &[n]).unwrap()
    }

    #[test]
    fn caches_reuses_and_counts() {
        let cache = PlanCache::new(4);
        let (a, hit) = cache.get_or_compile(1, || Ok(plan(8))).unwrap();
        assert!(!hit);
        let (b, hit) = cache
            .get_or_compile(1, || panic!("must not recompile"))
            .unwrap();
        assert!(hit);
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
        assert!((cache.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_evicts_the_coldest() {
        let cache = PlanCache::new(2);
        cache.get_or_compile(1, || Ok(plan(4))).unwrap();
        cache.get_or_compile(2, || Ok(plan(5))).unwrap();
        // Touch 1 so 2 becomes the LRU victim.
        assert!(cache.get(1).is_some());
        cache.get_or_compile(3, || Ok(plan(6))).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.get(1).is_some(), "recently-used entry must survive");
        assert!(cache.get(2).is_none(), "LRU entry must be evicted");
        assert!(cache.get(3).is_some());
    }

    #[test]
    fn compile_errors_are_not_cached() {
        let cache = PlanCache::new(2);
        let err = cache.get_or_compile(9, || {
            Plan::from_spec("vars x\nwidths 1\n", &[]) // invalid spec
        });
        assert!(err.is_err());
        assert_eq!(cache.len(), 0);
        // The key stays compilable later.
        let (_, hit) = cache.get_or_compile(9, || Ok(plan(7))).unwrap();
        assert!(!hit);
    }
}
