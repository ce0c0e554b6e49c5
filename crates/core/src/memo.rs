//! Content-keyed memoization for the expensive per-incident stages, plus
//! the pluggable policy deciding the key (if any) those stages use.
//!
//! Monitors flap: the same incident is frequently re-raised with
//! byte-identical diagnostics. Summarization and embedding are pure
//! functions of the collected text, so both planes (batch eval and
//! online serving) memoize them behind a 64-bit content key produced by
//! a [`MemoPolicy`]:
//!
//! - [`ExactMemo`] hashes the raw bytes with FNV-1a — a cache hit returns
//!   the exact value a recomputation would, which keeps every output
//!   independent of hit/miss patterns (and therefore of worker
//!   scheduling). This is the default policy on both planes.
//! - [`NoMemo`] disables caching entirely (the historical batch-plane
//!   behavior).
//! - [`NamespacedMemo`] wraps any of the above and salts its keys with a
//!   tenant namespace ([`namespaced_key`]), so tenants sharing one
//!   physical cache occupy disjoint logical key spaces.
//!
//! The cache is sharded N-way by key (matching the retrieval plane's
//! shard count) so concurrent workers memoizing different incidents do
//! not serialize on one global lock. A shard lock poisoned by a dying
//! worker is recovered and counted instead of cascading: recovery is
//! sound here because every cached value is a pure function of its key —
//! the map is consistent no matter where a panicking worker died (at
//! worst one counter bump or one insert is lost, costing only a
//! recomputation).

use crate::retrieval::fnv1a;
use std::collections::HashMap;
use std::fmt::Debug;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

/// Thread-safe memoization cache, sharded by key.
///
/// Values must be pure functions of the key; the cache then never changes
/// observable results, only the work done to produce them.
#[derive(Debug)]
pub struct MemoCache<V: Clone> {
    shards: Vec<Mutex<MemoInner<V>>>,
    poison_recoveries: AtomicU64,
}

impl<V: Clone> Default for MemoCache<V> {
    fn default() -> Self {
        MemoCache::new(1)
    }
}

#[derive(Debug)]
struct MemoInner<V> {
    map: HashMap<u64, V>,
    hits: u64,
    misses: u64,
}

impl<V> Default for MemoInner<V> {
    fn default() -> Self {
        MemoInner {
            map: HashMap::new(),
            hits: 0,
            misses: 0,
        }
    }
}

impl<V: Clone> MemoCache<V> {
    /// An empty cache with `shards` lock domains (clamped to ≥ 1).
    pub fn new(shards: usize) -> Self {
        MemoCache {
            shards: (0..shards.max(1))
                .map(|_| Mutex::new(MemoInner::default()))
                .collect(),
            poison_recoveries: AtomicU64::new(0),
        }
    }

    /// Number of lock domains.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard(&self, key: u64) -> &Mutex<MemoInner<V>> {
        &self.shards[(key % self.shards.len() as u64) as usize]
    }

    /// Locks a shard, recovering (and counting) poisoned guards instead of
    /// cascading a worker's panic into every later cache access.
    fn lock<'a>(&self, mutex: &'a Mutex<MemoInner<V>>) -> MutexGuard<'a, MemoInner<V>> {
        mutex.lock().unwrap_or_else(|poisoned| {
            self.poison_recoveries.fetch_add(1, Ordering::Relaxed);
            poisoned.into_inner()
        })
    }

    /// Returns the cached value for `key`, computing and inserting it via
    /// `compute` on a miss. The lock is *not* held during `compute`; on a
    /// race the first insert wins and later computations are discarded,
    /// which is harmless because `compute` is pure.
    pub fn get_or_insert_with(&self, key: u64, compute: impl FnOnce() -> V) -> V {
        {
            let mut inner = self.lock(self.shard(key));
            if let Some(v) = inner.map.get(&key) {
                let v = v.clone();
                inner.hits += 1;
                return v;
            }
            inner.misses += 1;
        }
        let v = compute();
        let mut inner = self.lock(self.shard(key));
        inner.map.entry(key).or_insert_with(|| v.clone());
        inner.map[&key].clone()
    }

    /// `(hits, misses)` counters since construction, summed over shards.
    pub fn stats(&self) -> (u64, u64) {
        self.shards.iter().fold((0, 0), |(h, m), shard| {
            let inner = self.lock(shard);
            (h + inner.hits, m + inner.misses)
        })
    }

    /// Number of distinct cached entries across shards.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| self.lock(shard).map.len())
            .sum()
    }

    /// True when nothing has been cached yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of poisoned shard locks recovered so far. Serving folds this
    /// into its fault counters at report time.
    pub fn poison_recoveries(&self) -> u64 {
        self.poison_recoveries.load(Ordering::Relaxed)
    }
}

/// Decides which memo key (if any) the cacheable stages use for a given
/// raw diagnostic text.
///
/// Returning `None` bypasses the caches: each stage runs unconditionally
/// and stores nothing. Returning `Some(k)` means "any two texts mapping
/// to `k` share one computed value", so a key must only be shared by
/// texts every stage treats alike. Summarization and embedding keep
/// separate caches under the same key.
pub trait MemoPolicy: Debug + Send + Sync {
    /// Stable policy name, surfaced in serving reports and bench output.
    fn name(&self) -> &'static str;

    /// Memo key for `raw_diag`, or `None` to bypass the caches.
    fn key(&self, raw_diag: &str) -> Option<u64>;
}

/// No memoization at all: the historical batch-plane behavior.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoMemo;

impl MemoPolicy for NoMemo {
    fn name(&self) -> &'static str {
        "none"
    }

    fn key(&self, _raw_diag: &str) -> Option<u64> {
        None
    }
}

/// Exact content-hash memoization: FNV-1a over the raw bytes.
///
/// Two texts share a key iff they are byte-identical, so a hit returns
/// exactly what a recomputation would — outputs are independent of
/// hit/miss patterns and of worker scheduling. Safe everywhere; the
/// serving engine's default.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactMemo;

impl MemoPolicy for ExactMemo {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn key(&self, raw_diag: &str) -> Option<u64> {
        Some(fnv1a(raw_diag.as_bytes()))
    }
}

/// Salts a memo key with a tenant namespace.
///
/// Namespace `0` is the root (single-tenant) namespace and is the
/// identity, so namespacing is free to thread through single-tenant
/// paths without perturbing any existing cache key. Any other namespace
/// mixes both halves through FNV-1a, so two tenants sharing one physical
/// [`MemoCache`] never alias each other's entries.
pub fn namespaced_key(namespace: u64, key: u64) -> u64 {
    if namespace == 0 {
        return key;
    }
    let mut bytes = [0u8; 16];
    bytes[..8].copy_from_slice(&namespace.to_le_bytes());
    bytes[8..].copy_from_slice(&key.to_le_bytes());
    fnv1a(&bytes)
}

/// A tenant-scoped view over another memo policy: every key the inner
/// policy produces is salted with [`namespaced_key`] before it touches
/// the shared cache.
///
/// This is the memo half of the multi-tenant bulkhead: tenants share one
/// physical [`MemoCache`] (one allocation, one shard array) but live in
/// disjoint logical key spaces, so one tenant's flapping storm can evict
/// or pre-fill nothing for another. Namespace `0` degenerates to the
/// inner policy exactly.
#[derive(Debug, Clone)]
pub struct NamespacedMemo {
    inner: Arc<dyn MemoPolicy>,
    namespace: u64,
}

impl NamespacedMemo {
    /// Scopes `inner`'s keys to `namespace`.
    pub fn new(inner: Arc<dyn MemoPolicy>, namespace: u64) -> Self {
        NamespacedMemo { inner, namespace }
    }

    /// The namespace keys are salted with (`0` = root, the identity).
    pub fn namespace(&self) -> u64 {
        self.namespace
    }
}

impl MemoPolicy for NamespacedMemo {
    // The inner policy's name: namespacing changes *where* keys land,
    // not the caching semantics reports care about.
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn key(&self, raw_diag: &str) -> Option<u64> {
        self.inner
            .key(raw_diag)
            .map(|k| namespaced_key(self.namespace, k))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn namespace_zero_is_the_identity() {
        for key in [0u64, 1, 42, u64::MAX] {
            assert_eq!(namespaced_key(0, key), key);
        }
        let wrapped = NamespacedMemo::new(Arc::new(ExactMemo), 0);
        let text = "probe timeout on HUB01";
        assert_eq!(wrapped.key(text), ExactMemo.key(text));
        assert_eq!(wrapped.name(), "exact");
    }

    #[test]
    fn distinct_namespaces_never_share_keys() {
        let text = "delivery queue backlog on forest EURPR01";
        let a = NamespacedMemo::new(Arc::new(ExactMemo), 1);
        let b = NamespacedMemo::new(Arc::new(ExactMemo), 2);
        assert_ne!(a.key(text), b.key(text));
        // Same namespace stays deterministic.
        assert_eq!(a.key(text), a.key(text));
        // A bypassing inner policy still bypasses.
        let none = NamespacedMemo::new(Arc::new(NoMemo), 7);
        assert_eq!(none.key(text), None);
    }

    #[test]
    fn namespaced_tenants_are_isolated_in_one_physical_cache() {
        let cache: MemoCache<String> = MemoCache::new(4);
        let policy = Arc::new(ExactMemo) as Arc<dyn MemoPolicy>;
        let text = "same bytes, different tenants";
        let t1 = NamespacedMemo::new(policy.clone(), 1);
        let t2 = NamespacedMemo::new(policy, 2);
        let k1 = t1.key(text).unwrap();
        let k2 = t2.key(text).unwrap();
        let v1 = cache.get_or_insert_with(k1, || "tenant-1 summary".to_string());
        let v2 = cache.get_or_insert_with(k2, || "tenant-2 summary".to_string());
        assert_eq!(v1, "tenant-1 summary");
        assert_eq!(v2, "tenant-2 summary");
        assert_eq!(cache.len(), 2, "two tenants, two entries, one cache");
    }

    #[test]
    fn cache_computes_once_per_key() {
        let cache = MemoCache::new(1);
        let mut calls = 0;
        let a = cache.get_or_insert_with(1, || {
            calls += 1;
            "v1".to_string()
        });
        let b = cache.get_or_insert_with(1, || {
            calls += 1;
            "other".to_string()
        });
        assert_eq!(a, "v1");
        assert_eq!(b, "v1");
        assert_eq!(calls, 1);
        assert_eq!(cache.stats(), (1, 1));
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn sharded_cache_spreads_keys_but_answers_identically() {
        let cache = MemoCache::new(4);
        assert_eq!(cache.shard_count(), 4);
        for key in 0..32u64 {
            assert_eq!(cache.get_or_insert_with(key, || key * 3), key * 3);
        }
        assert_eq!(cache.len(), 32);
        for key in 0..32u64 {
            assert_eq!(cache.get_or_insert_with(key, || 0), key * 3);
        }
        assert_eq!(cache.stats(), (32, 32));
        let populated = cache
            .shards
            .iter()
            .filter(|s| !s.lock().unwrap().map.is_empty())
            .count();
        assert!(
            populated > 1,
            "expected keys across shards, got {populated}"
        );
        assert_eq!(MemoCache::<u64>::new(0).shard_count(), 1);
    }

    #[test]
    fn cache_is_usable_across_threads() {
        let cache = MemoCache::new(4);
        std::thread::scope(|s| {
            for t in 0..4 {
                let cache = &cache;
                s.spawn(move || {
                    for i in 0..50u64 {
                        let v = cache.get_or_insert_with(i % 10, || (i % 10) * 2);
                        assert_eq!(v, (i % 10) * 2, "thread {t}");
                    }
                });
            }
        });
        assert_eq!(cache.len(), 10);
        let (hits, misses) = cache.stats();
        assert_eq!(hits + misses, 200);
        assert!(misses >= 10);
    }

    #[test]
    fn poisoned_shard_is_recovered_and_counted() {
        let cache = std::sync::Arc::new(MemoCache::new(1));
        cache.get_or_insert_with(7, || 7u64);
        let poisoner = cache.clone();
        let _ = std::thread::spawn(move || {
            let _guard = poisoner.shards[0].lock().unwrap();
            panic!("worker dies holding the memo lock");
        })
        .join();
        assert_eq!(cache.get_or_insert_with(7, || 0), 7);
        assert!(cache.poison_recoveries() >= 1);
    }

    #[test]
    fn exact_policy_keys_are_byte_equality() {
        let p = ExactMemo;
        assert_eq!(p.name(), "exact");
        assert_eq!(p.key("abc"), p.key("abc"));
        assert_ne!(p.key("abc"), p.key("abd"));
    }

    #[test]
    fn no_memo_bypasses_both_stages() {
        assert_eq!(NoMemo.key("x"), None);
        assert_eq!(NoMemo.name(), "none");
    }
}
