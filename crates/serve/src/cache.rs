//! The epoch-keyed result cache.
//!
//! An alignment answer is a pure function of *(query bytes, top-k,
//! database contents, scoring parameters)* — the engine is deterministic
//! for every kernel choice and worker count — so the service may reuse
//! answers exactly (the ALAE discipline, see PAPERS.md). The database is
//! identified by its **epoch** (bumped atomically on hot-reload,
//! [`crate::epoch`]), and the scoring scheme by a 64-bit **params
//! fingerprint** (a fixed constant for the DNA linear-gap mode,
//! `MatrixScoring::fingerprint()` for a protein scheme), so the cache key
//! is *(query digest, query length, top-k, epoch, params)*: a reload or a
//! different substitution matrix can never serve a stale answer because
//! stale entries simply have a key no new request asks for — and
//! [`ResultCache::purge_epoch`] reclaims superseded epochs eagerly.
//!
//! The digest is a 128-bit FNV-1a pair (two independent offset bases).
//! Collisions would need two queries agreeing on both 64-bit streams
//! *and* on length; the property tests in `tests/cache_props.rs` verify
//! hit-equals-recompute byte for byte regardless.
//!
//! Capacity is bounded; eviction is insertion-order FIFO (oldest entry
//! first), which is epoch-friendly: old-epoch entries are by construction
//! the oldest and drain out first under pressure.

use genomedsm_batch::Hit;
use genomedsm_core::{fnv1a, FNV_OFFSET};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex, PoisonError};

/// Offset basis of the second, independent FNV-1a stream.
const FNV_OFFSET_B: u64 = 0x6c62_272e_07bb_0142;

/// Content digest of one query: two independent 64-bit FNV-1a streams
/// plus the exact length.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct QueryKey {
    digest: (u64, u64),
    len: u64,
}

impl QueryKey {
    /// Digests the query bytes.
    pub fn of(query: &[u8]) -> Self {
        Self {
            digest: (fnv1a(FNV_OFFSET, query), fnv1a(FNV_OFFSET_B, query)),
            len: query.len() as u64,
        }
    }
}

/// Full cache key: what the answer is a pure function of.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct CacheKey {
    query: QueryKey,
    top_k: u64,
    epoch: u64,
    params: u64,
}

/// Cache traffic counters (monotonic).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups that returned a stored answer.
    pub hits: u64,
    /// Lookups that found nothing.
    pub misses: u64,
    /// Answers stored.
    pub inserts: u64,
    /// Entries evicted by the capacity bound.
    pub evicted: u64,
    /// Entries purged because their epoch was superseded.
    pub stale_purged: u64,
    /// Entries currently resident.
    pub resident: u64,
}

struct CacheInner {
    map: HashMap<CacheKey, Arc<Vec<Hit>>>,
    order: VecDeque<CacheKey>,
    stats: CacheStats,
}

/// A bounded, epoch-keyed map from query digests to final hit lists.
///
/// Thread-safe behind one mutex; entries are `Arc`ed so a hit costs a
/// pointer clone, not a hit-list copy.
pub struct ResultCache {
    capacity: usize,
    inner: Mutex<CacheInner>,
}

impl ResultCache {
    /// A cache holding at most `capacity` answers (0 disables caching).
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity,
            inner: Mutex::new(CacheInner {
                map: HashMap::new(),
                order: VecDeque::new(),
                stats: CacheStats::default(),
            }),
        }
    }

    /// Looks up the answer for `query` at `top_k` under `epoch`,
    /// computed with the scoring scheme fingerprinted by `params`.
    pub fn get(
        &self,
        query: QueryKey,
        top_k: usize,
        epoch: u64,
        params: u64,
    ) -> Option<Arc<Vec<Hit>>> {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let key = CacheKey {
            query,
            top_k: top_k as u64,
            epoch,
            params,
        };
        match inner.map.get(&key).cloned() {
            Some(v) => {
                inner.stats.hits += 1;
                Some(v)
            }
            None => {
                inner.stats.misses += 1;
                None
            }
        }
    }

    /// Stores an answer, evicting the oldest entry when full.
    pub fn insert(
        &self,
        query: QueryKey,
        top_k: usize,
        epoch: u64,
        params: u64,
        hits: Arc<Vec<Hit>>,
    ) {
        if self.capacity == 0 {
            return;
        }
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let key = CacheKey {
            query,
            top_k: top_k as u64,
            epoch,
            params,
        };
        if inner.map.insert(key, hits).is_none() {
            inner.order.push_back(key);
            inner.stats.inserts += 1;
            while inner.map.len() > self.capacity {
                // Entries enter `order` exactly once, so the front is
                // resident unless purge_epoch removed it already.
                if let Some(old) = inner.order.pop_front() {
                    if inner.map.remove(&old).is_some() {
                        inner.stats.evicted += 1;
                    }
                }
            }
        } else {
            inner.stats.inserts += 1;
        }
    }

    /// Drops every entry whose epoch is **older than** `live_epoch`,
    /// returning how many were purged. Called on hot-reload so stale
    /// answers are reclaimed eagerly (they would never be served anyway:
    /// lookups carry the current epoch).
    pub fn purge_epoch(&self, live_epoch: u64) -> u64 {
        let mut inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        let before = inner.map.len();
        inner.map.retain(|k, _| k.epoch >= live_epoch);
        let purged = (before - inner.map.len()) as u64;
        inner.stats.stale_purged += purged;
        let map = std::mem::take(&mut inner.map);
        inner.order.retain(|k| map.contains_key(k));
        inner.map = map;
        purged
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        let inner = self.inner.lock().unwrap_or_else(PoisonError::into_inner);
        CacheStats {
            resident: inner.map.len() as u64,
            ..inner.stats
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hits(n: usize) -> Arc<Vec<Hit>> {
        Arc::new(
            (0..n)
                .map(|i| Hit {
                    score: (n - i) as i32,
                    target: i,
                    end: (i, i),
                })
                .collect(),
        )
    }

    #[test]
    fn hit_returns_the_stored_answer() {
        let cache = ResultCache::new(8);
        let k = QueryKey::of(b"ACGTACGT");
        assert!(cache.get(k, 5, 1, 0).is_none());
        cache.insert(k, 5, 1, 0, hits(3));
        assert_eq!(cache.get(k, 5, 1, 0).as_deref(), Some(&*hits(3)));
        // Different top_k, epoch, or scoring params: a different answer
        // space.
        assert!(cache.get(k, 4, 1, 0).is_none());
        assert!(cache.get(k, 5, 2, 0).is_none());
        assert!(cache.get(k, 5, 1, 0xb105).is_none());
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.inserts), (1, 4, 1));
    }

    #[test]
    fn scoring_params_partition_the_key_space() {
        // The same query under two substitution schemes holds two
        // independent answers; neither lookup can see the other's entry.
        let cache = ResultCache::new(8);
        let k = QueryKey::of(b"WQHKRWCEW");
        cache.insert(k, 3, 1, 0xaaaa, hits(1));
        cache.insert(k, 3, 1, 0xbbbb, hits(2));
        assert_eq!(cache.get(k, 3, 1, 0xaaaa).as_deref(), Some(&*hits(1)));
        assert_eq!(cache.get(k, 3, 1, 0xbbbb).as_deref(), Some(&*hits(2)));
        assert_eq!(cache.stats().resident, 2);
    }

    #[test]
    fn distinct_queries_get_distinct_keys() {
        assert_ne!(QueryKey::of(b"ACGT"), QueryKey::of(b"ACGA"));
        assert_ne!(QueryKey::of(b""), QueryKey::of(b"A"));
        assert_eq!(QueryKey::of(b"ACGT"), QueryKey::of(b"ACGT"));
    }

    #[test]
    fn capacity_bound_evicts_oldest_first() {
        let cache = ResultCache::new(2);
        let keys: Vec<QueryKey> = (0..3)
            .map(|i| QueryKey::of(format!("Q{i}").as_bytes()))
            .collect();
        for (i, k) in keys.iter().enumerate() {
            cache.insert(*k, 1, 1, 0, hits(i + 1));
        }
        assert!(cache.get(keys[0], 1, 1, 0).is_none(), "oldest evicted");
        assert!(cache.get(keys[1], 1, 1, 0).is_some());
        assert!(cache.get(keys[2], 1, 1, 0).is_some());
        assert_eq!(cache.stats().evicted, 1);
        assert_eq!(cache.stats().resident, 2);
    }

    #[test]
    fn purge_drops_exactly_older_epochs() {
        let cache = ResultCache::new(16);
        let k1 = QueryKey::of(b"one");
        let k2 = QueryKey::of(b"two");
        cache.insert(k1, 3, 1, 0, hits(1));
        cache.insert(k2, 3, 2, 0, hits(2));
        assert_eq!(cache.purge_epoch(2), 1);
        assert!(cache.get(k1, 3, 1, 0).is_none(), "epoch-1 entry purged");
        assert!(cache.get(k2, 3, 2, 0).is_some(), "epoch-2 entry survives");
        assert_eq!(cache.stats().stale_purged, 1);
    }

    #[test]
    fn zero_capacity_disables_storage() {
        let cache = ResultCache::new(0);
        let k = QueryKey::of(b"x");
        cache.insert(k, 1, 1, 0, hits(1));
        assert!(cache.get(k, 1, 1, 0).is_none());
    }
}
