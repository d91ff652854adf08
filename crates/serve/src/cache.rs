//! Content-addressed cache of frozen [`SessionArtifacts`].
//!
//! The static stage (elaboration + def-use analysis + automaton build) is
//! by far the most expensive part of a request on small batches, and it
//! depends only on the design source and its elaboration parameters — so
//! artifacts are keyed by an FNV-1a hash of exactly that material
//! ([`crate::proto::DesignRef::cache_key_material`]), and shared across
//! tenants via `Arc`.
//!
//! The cache is bounded: once `capacity` distinct designs are resident,
//! the **least-recently-used** entry is evicted. Lookups promote their
//! entry to most-recently-used, so a hot design interleaved with many
//! one-off designs stays resident no matter how many distinct keys pass
//! through (the FIFO policy this replaces evicted it regardless of hits).

use std::collections::VecDeque;
use std::sync::{Arc, Mutex};

use dft_core::{obs, SessionArtifacts};

/// FNV-1a, the same zero-dependency hash the interner uses.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

struct Entry {
    key: u64,
    artifacts: Arc<SessionArtifacts>,
}

/// A bounded, thread-safe artifact cache.
pub struct ArtifactCache {
    entries: Mutex<VecDeque<Entry>>,
    capacity: usize,
}

impl ArtifactCache {
    /// Creates a cache holding at most `capacity` designs (min 1).
    pub fn new(capacity: usize) -> ArtifactCache {
        ArtifactCache {
            entries: Mutex::new(VecDeque::new()),
            capacity: capacity.max(1),
        }
    }

    /// Looks up `key`, or builds the artifacts with `build` on a miss.
    ///
    /// Returns `(artifacts, warm)` where `warm` reports whether this was
    /// a cache hit — surfaced in responses so clients (and the latency
    /// experiment) can attribute cold-start cost. `build` runs outside
    /// the lock, so a slow elaboration never blocks concurrent lookups of
    /// other designs; two racing cold requests for the *same* design may
    /// both build, and the first insert wins.
    pub fn get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<Arc<SessionArtifacts>, E>,
    ) -> Result<(Arc<SessionArtifacts>, bool), E> {
        static HITS: obs::Counter = obs::Counter::new("serve.cache.hits");
        static MISSES: obs::Counter = obs::Counter::new("serve.cache.misses");
        static EVICTIONS: obs::Counter = obs::Counter::new("serve.cache.evictions");
        if let Some(found) = self.lookup(key) {
            HITS.add(1);
            return Ok((found, true));
        }
        MISSES.add(1);
        let built = build()?;
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        if let Some(raced) = entries.iter().find(|e| e.key == key) {
            // Another worker built the same design while we did; keep the
            // resident copy so all sessions share one automaton.
            return Ok((Arc::clone(&raced.artifacts), false));
        }
        while entries.len() >= self.capacity {
            entries.pop_front();
            EVICTIONS.add(1);
        }
        entries.push_back(Entry {
            key,
            artifacts: Arc::clone(&built),
        });
        Ok((built, false))
    }

    /// Finds `key` and promotes it to most-recently-used (back of the
    /// eviction queue), so constant hitters survive churn from one-off
    /// designs.
    fn lookup(&self, key: u64) -> Option<Arc<SessionArtifacts>> {
        let mut entries = self.entries.lock().unwrap_or_else(|p| p.into_inner());
        let pos = entries.iter().position(|e| e.key == key)?;
        let entry = entries.remove(pos).expect("position came from this deque");
        let found = Arc::clone(&entry.artifacts);
        entries.push_back(entry);
        Some(found)
    }

    /// Number of resident designs.
    pub fn len(&self) -> usize {
        self.entries.lock().unwrap_or_else(|p| p.into_inner()).len()
    }

    /// True when nothing is cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::probe_design;
    use dft_core::SessionConfig;

    fn build_probe() -> Result<Arc<SessionArtifacts>, String> {
        let design = probe_design().map_err(|e| e.to_string())?;
        Ok(SessionArtifacts::build_with(
            design,
            &SessionConfig::from_env(),
        ))
    }

    #[test]
    fn second_lookup_is_warm_and_shares_the_arc() {
        let cache = ArtifactCache::new(4);
        let (cold, warm) = cache.get_or_build(42, build_probe).unwrap();
        assert!(!warm);
        let (hit, warm) = cache
            .get_or_build(42, || -> Result<_, String> {
                panic!("warm path must not rebuild")
            })
            .unwrap();
        assert!(warm);
        assert!(Arc::ptr_eq(&cold, &hit));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn capacity_bounds_residency() {
        let cache = ArtifactCache::new(2);
        for key in 0..5u64 {
            cache.get_or_build(key, build_probe).unwrap();
        }
        assert_eq!(cache.len(), 2);
        // Least-recently-used evicted: key 3 and 4 remain.
        let (_, warm) = cache.get_or_build(4, build_probe).unwrap();
        assert!(warm);
        let (_, warm) = cache.get_or_build(0, build_probe).unwrap();
        assert!(!warm, "key 0 was evicted");
    }

    #[test]
    fn hot_entry_survives_capacity_many_distinct_inserts() {
        // The LRU regression: a repeatedly-hit design must stay resident
        // while capacity-many (and more) one-off designs churn through.
        // Under the old FIFO policy the hot entry was evicted regardless
        // of its hits.
        let cache = ArtifactCache::new(2);
        let (hot, _) = cache.get_or_build(100, build_probe).unwrap();
        for key in 0..4u64 {
            cache.get_or_build(key, build_probe).unwrap();
            let (again, warm) = cache
                .get_or_build(100, || -> Result<_, String> {
                    panic!("hot entry must never rebuild")
                })
                .unwrap();
            assert!(warm, "hot entry evicted after one-off insert {key}");
            assert!(Arc::ptr_eq(&hot, &again));
        }
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn build_failures_are_not_cached() {
        let cache = ArtifactCache::new(2);
        let err = cache.get_or_build(7, || Err::<Arc<SessionArtifacts>, _>("boom"));
        assert_eq!(err.unwrap_err(), "boom");
        assert!(cache.is_empty());
        // A later successful build for the same key still works.
        let (_, warm) = cache.get_or_build(7, build_probe).unwrap();
        assert!(!warm);
    }

    #[test]
    fn fnv1a_is_stable_and_discriminating() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv1a(b"sensor;fs=1"), fnv1a(b"sensor;fs=2"));
        assert_eq!(fnv1a(b"abc"), fnv1a(b"abc"));
    }
}
