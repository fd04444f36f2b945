//! Cross-statement census cache: match lists and count vectors keyed by
//! (pattern, neighborhood spec, graph fingerprint).
//!
//! The server's `QueryCache` caches *encoded result tables* keyed by
//! the canonical statement text — two different statements over the same
//! patterns never share anything through it. This cache sits one layer
//! deeper, inside the query executor, and stores the two reusable
//! intermediates of batched census execution:
//!
//! * **Match lists** — the global matches of a pattern, keyed by
//!   `(pattern DSL, graph fingerprint)`. Every algorithm except ND-BAS
//!   starts from this list; a hit fills its spec's slot of the census
//!   job's provided lists ([`ego_census::Job::matches`]) and skips global
//!   matching entirely.
//! * **Count vectors** — a finished census, keyed by
//!   `(pattern DSL, k, subpattern, focal-set hash, fingerprint)`. The
//!   algorithm, seed, and thread count are deliberately **not** part of
//!   the key: census counts are algorithm- and thread-invariant (a
//!   property the equivalence suite enforces), and the focal set — the
//!   only seed-dependent input — is hashed into the key directly.
//!
//! * **Center index** — PT-OPT's a-priori center distances (paper
//!   Section IV-B4), keyed by `(center count, graph fingerprint)`: a
//!   property of the graph, not of any query, so every pattern-driven
//!   census over one graph generation shares one build. Exact distances
//!   are a correctness input, so the entry is dropped on every mutation,
//!   never rekeyed. Only `CenterStrategy::Degree` indexes ever get here
//!   (a `Random` one is a draw from the query's RNG stream).
//!
//! All sides are independent LRU maps with an entry-count budget
//! (entries are `Arc`-shared with callers, so eviction never copies).
//!
//! `QueryCache` lives in `ego-server`; this type lives here because the
//! executor (which `ego-server` wraps) is what decides when a census can
//! be skipped or seeded from cache.

use ego_census::{CenterIndex, CountVector};
use ego_graph::NodeId;
use ego_matcher::MatchList;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// One LRU side of the cache: string key -> shared value, recency
/// tracked by a monotone tick (same scheme as the server's byte-LRU,
/// but budgeted by entry count — values here are shared, not copied).
struct LruMap<V> {
    map: HashMap<String, (V, u64)>,
    recency: BTreeMap<u64, String>,
    tick: u64,
    capacity: usize,
}

impl<V: Clone> LruMap<V> {
    fn new(capacity: usize) -> Self {
        LruMap {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            tick: 0,
            capacity,
        }
    }

    fn touch(&mut self, key: &str) {
        let tick = self.tick;
        self.tick += 1;
        if let Some((_, t)) = self.map.get_mut(key) {
            let old = *t;
            *t = tick;
            self.recency.remove(&old);
            self.recency.insert(tick, key.to_string());
        }
    }

    fn get(&mut self, key: &str) -> Option<V> {
        let v = self.map.get(key).map(|(v, _)| v.clone())?;
        self.touch(key);
        Some(v)
    }

    fn peek(&self, key: &str) -> Option<V> {
        self.map.get(key).map(|(v, _)| v.clone())
    }

    fn put(&mut self, key: String, value: V) {
        if self.capacity == 0 {
            return;
        }
        if let Some((_, old_tick)) = self.map.remove(&key) {
            self.recency.remove(&old_tick);
        }
        let tick = self.tick;
        self.tick += 1;
        self.map.insert(key.clone(), (value, tick));
        self.recency.insert(tick, key);
        while self.map.len() > self.capacity {
            let (&oldest, _) = self.recency.iter().next().expect("non-empty recency");
            let victim = self.recency.remove(&oldest).expect("victim exists");
            self.map.remove(&victim);
        }
    }

    fn len(&self) -> usize {
        self.map.len()
    }

    fn clear(&mut self) {
        self.map.clear();
        self.recency.clear();
    }
}

/// Snapshot of cache occupancy and hit/miss counters (for the server's
/// STATS command and for benches).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CensusCacheStats {
    pub match_entries: usize,
    /// Estimated resident bytes of cached match lists (4 bytes per
    /// match image) — the tier's byte occupancy, for budget-pressure
    /// observability alongside the result cache and the view registry.
    pub match_bytes: usize,
    pub match_hits: u64,
    pub match_misses: u64,
    pub count_entries: usize,
    /// Estimated resident bytes of cached count vectors (8 bytes per
    /// count + 1 per focal flag).
    pub count_bytes: usize,
    pub count_hits: u64,
    pub count_misses: u64,
    /// Pattern-driven runs that reused the cached center index.
    pub center_hits: u64,
    /// Pattern-driven runs that found none and built one.
    pub center_misses: u64,
    /// Times [`CensusCache::invalidate`] or
    /// [`CensusCache::retain_counts`] ran (graph mutations).
    pub invalidations: u64,
    /// Count entries that survived a dirty-set-aware invalidation
    /// (rekeyed to the new fingerprint instead of dropped).
    pub count_retained: u64,
}

/// Provenance of a cached count vector, kept alongside the entry so a
/// mutation can decide whether the entry is still exact: the counts are
/// unchanged iff no focal node is within `radius` union-graph hops of a
/// touched delta endpoint (`radius = None` means no bound — always
/// invalidate). See `ego-dynamic`'s dirty-radius rule: `k` for COUNTP,
/// `k + |V(p)| - 1` for COUNTSP over a connected pattern.
#[derive(Clone, Debug)]
pub struct CountMeta {
    /// Canonical pattern DSL (first key component).
    pub dsl: String,
    /// Neighborhood radius.
    pub k: u32,
    /// COUNTSP subpattern name, if any.
    pub subpattern: Option<String>,
    /// The focal set the counts cover, ascending.
    pub focal: std::sync::Arc<Vec<NodeId>>,
    /// Dirty radius bound; `None` = unbounded (disconnected COUNTSP).
    pub radius: Option<u32>,
}

/// Shared (thread-safe) cache of census intermediates. See the module
/// docs for the keying discipline.
pub struct CensusCache {
    matches: Mutex<LruMap<std::sync::Arc<MatchList>>>,
    #[allow(clippy::type_complexity)]
    counts: Mutex<
        LruMap<(
            std::sync::Arc<CountVector>,
            Option<std::sync::Arc<CountMeta>>,
        )>,
    >,
    centers: Mutex<LruMap<CenterIndex>>,
    match_hits: AtomicU64,
    match_misses: AtomicU64,
    count_hits: AtomicU64,
    count_misses: AtomicU64,
    center_hits: AtomicU64,
    center_misses: AtomicU64,
    invalidations: AtomicU64,
    count_retained: AtomicU64,
}

/// An index is per (graph generation, center count) and a server runs
/// one `PtConfig`, so more than a couple never coexist.
const CENTER_ENTRIES: usize = 2;

impl CensusCache {
    /// Cache holding up to `capacity` entries on each side (match lists
    /// and count vectors budgeted independently). `0` disables caching.
    pub fn new(capacity: usize) -> Self {
        CensusCache {
            matches: Mutex::new(LruMap::new(capacity)),
            counts: Mutex::new(LruMap::new(capacity)),
            centers: Mutex::new(LruMap::new(capacity.min(CENTER_ENTRIES))),
            match_hits: AtomicU64::new(0),
            match_misses: AtomicU64::new(0),
            count_hits: AtomicU64::new(0),
            count_misses: AtomicU64::new(0),
            center_hits: AtomicU64::new(0),
            center_misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            count_retained: AtomicU64::new(0),
        }
    }

    /// Key for a pattern's global match list.
    pub fn match_key(dsl: &str, fingerprint: u64) -> String {
        format!("{dsl}|fp={fingerprint:016x}")
    }

    /// Key for a graph's center index with `count` centers.
    pub fn center_key(count: usize, fingerprint: u64) -> String {
        format!("centers={count}|fp={fingerprint:016x}")
    }

    /// Key for a finished census. The focal set is FNV-1a-hashed (the
    /// executor always produces it in ascending node order, so equal
    /// sets hash equally); algorithm/threads/seed are excluded — counts
    /// are invariant to all three. Four interleaved lanes (node i feeds
    /// lane i mod 4), folded with the length at the end, so the
    /// multiply chain is a quarter as long: every statement that probes
    /// the cache hashes its whole focal set, twice.
    pub fn count_key(
        dsl: &str,
        k: u32,
        subpattern: Option<&str>,
        focal: &[NodeId],
        fingerprint: u64,
    ) -> String {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0100_0000_01b3;
        let mut lanes = [OFFSET; 4];
        let chunks = focal.chunks_exact(4);
        let rest = chunks.remainder();
        for chunk in chunks {
            for (h, n) in lanes.iter_mut().zip(chunk) {
                *h = (*h ^ n.0 as u64).wrapping_mul(PRIME);
            }
        }
        for (h, n) in lanes.iter_mut().zip(rest) {
            *h = (*h ^ n.0 as u64).wrapping_mul(PRIME);
        }
        let h = lanes.iter().fold(OFFSET ^ focal.len() as u64, |h, &lane| {
            (h ^ lane).wrapping_mul(PRIME)
        });
        format!(
            "{dsl}|k={k}|sp={}|focal={h:016x}|fp={fingerprint:016x}",
            subpattern.unwrap_or("-")
        )
    }

    /// Look up a match list (counts a hit or miss).
    pub fn get_matches(&self, key: &str) -> Option<std::sync::Arc<MatchList>> {
        let got = self.matches.lock().unwrap().get(key);
        match got {
            Some(v) => {
                self.match_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.match_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a match list.
    pub fn put_matches(&self, key: String, value: std::sync::Arc<MatchList>) {
        self.matches.lock().unwrap().put(key, value);
    }

    /// Look up a center index (counts a hit or miss).
    pub fn get_centers(&self, key: &str) -> Option<CenterIndex> {
        let got = self.centers.lock().unwrap().get(key);
        let counter = match got {
            Some(_) => &self.center_hits,
            None => &self.center_misses,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        got
    }

    /// Store a center index.
    pub fn put_centers(&self, key: String, value: CenterIndex) {
        self.centers.lock().unwrap().put(key, value);
    }

    /// Look up a count vector (counts a hit or miss).
    pub fn get_counts(&self, key: &str) -> Option<std::sync::Arc<CountVector>> {
        let got = self.counts.lock().unwrap().get(key);
        match got {
            Some((v, _)) => {
                self.count_hits.fetch_add(1, Ordering::Relaxed);
                Some(v)
            }
            None => {
                self.count_misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a count vector without provenance: the entry is dropped by
    /// any dirty-set-aware invalidation (it cannot prove itself clean).
    pub fn put_counts(&self, key: String, value: std::sync::Arc<CountVector>) {
        self.counts.lock().unwrap().put(key, (value, None));
    }

    /// Store a count vector with provenance, making it eligible to
    /// survive [`CensusCache::retain_counts`] across a mutation.
    pub fn put_counts_with_meta(
        &self,
        key: String,
        value: std::sync::Arc<CountVector>,
        meta: CountMeta,
    ) {
        self.counts
            .lock()
            .unwrap()
            .put(key, (value, Some(std::sync::Arc::new(meta))));
    }

    /// Non-counting, non-touching lookup — `EXPLAIN` uses these to
    /// report expected reuse without perturbing the statistics.
    pub fn peek_matches(&self, key: &str) -> Option<std::sync::Arc<MatchList>> {
        self.matches.lock().unwrap().peek(key)
    }

    /// Non-counting, non-touching count-vector lookup.
    pub fn peek_counts(&self, key: &str) -> bool {
        self.counts.lock().unwrap().peek(key).is_some()
    }

    /// The largest bounded dirty radius among count entries carrying
    /// provenance, for sizing one dirty-BFS that classifies them all.
    /// Entries without meta or with an unbounded radius don't contribute
    /// (they never survive a mutation anyway).
    pub fn max_count_radius(&self) -> u32 {
        let counts = self.counts.lock().unwrap();
        counts
            .map
            .values()
            .filter_map(|((_, meta), _)| meta.as_ref().and_then(|m| m.radius))
            .max()
            .unwrap_or(0)
    }

    /// Dirty-set-aware invalidation of the count side: every entry whose
    /// provenance proves it untouched by the mutation (`keep` returns
    /// `true` — typically "no focal node is dirty at the entry's
    /// radius") is **rekeyed** to `new_fingerprint` and kept; everything
    /// else — meta-less entries, unbounded radii, dirty focal sets — is
    /// dropped. The center index goes too: one changed edge can change
    /// any distance. The match side is NOT touched; pair with
    /// [`CensusCache::invalidate_matches`] (global match lists depend on
    /// the whole graph) unless the caller re-seeds maintained lists.
    pub fn retain_counts<F>(&self, new_fingerprint: u64, mut keep: F)
    where
        F: FnMut(&CountMeta) -> bool,
    {
        let mut counts = self.counts.lock().unwrap();
        let capacity = counts.capacity;
        let old = std::mem::replace(&mut *counts, LruMap::new(capacity));
        let mut retained = 0u64;
        // Reinsert in recency order so LRU ordering survives the sweep.
        for (_, key) in old.recency.iter() {
            let Some((value, _)) = old.map.get(key) else {
                continue;
            };
            let (cv, meta) = value;
            let Some(meta) = meta else { continue };
            if meta.radius.is_none() || !keep(meta) {
                continue;
            }
            let new_key = CensusCache::count_key(
                &meta.dsl,
                meta.k,
                meta.subpattern.as_deref(),
                &meta.focal,
                new_fingerprint,
            );
            counts.put(new_key, (cv.clone(), Some(meta.clone())));
            retained += 1;
        }
        drop(counts);
        self.centers.lock().unwrap().clear();
        self.count_retained.fetch_add(retained, Ordering::Relaxed);
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Drop every cached match list (global lists depend on the whole
    /// graph, so any edge mutation can change them).
    pub fn invalidate_matches(&self) {
        self.matches.lock().unwrap().clear();
    }

    /// Drop every cached entry and bump the invalidation counter. Called
    /// when the graph mutates. Strictly speaking stale entries are
    /// already unreachable — every key embeds the graph fingerprint — so
    /// this reclaims their memory and makes the invalidation observable,
    /// rather than restoring soundness.
    pub fn invalidate(&self) {
        self.matches.lock().unwrap().clear();
        self.counts.lock().unwrap().clear();
        self.centers.lock().unwrap().clear();
        self.invalidations.fetch_add(1, Ordering::Relaxed);
    }

    /// Snapshot of occupancy and counters. Byte occupancy is estimated
    /// by walking the (entry-capped) maps, so the snapshot reflects the
    /// live contents rather than a drifting running total.
    pub fn stats(&self) -> CensusCacheStats {
        let (match_entries, match_bytes) = {
            let m = self.matches.lock().unwrap();
            let bytes = m
                .map
                .values()
                .map(|(v, _)| v.iter().map(|pm| pm.nodes.len() * 4).sum::<usize>())
                .sum();
            (m.len(), bytes)
        };
        let (count_entries, count_bytes) = {
            let c = self.counts.lock().unwrap();
            let bytes = c.map.values().map(|((cv, _), _)| cv.len() * 9).sum();
            (c.len(), bytes)
        };
        CensusCacheStats {
            match_entries,
            match_bytes,
            match_hits: self.match_hits.load(Ordering::Relaxed),
            match_misses: self.match_misses.load(Ordering::Relaxed),
            count_entries,
            count_bytes,
            count_hits: self.count_hits.load(Ordering::Relaxed),
            count_misses: self.count_misses.load(Ordering::Relaxed),
            center_hits: self.center_hits.load(Ordering::Relaxed),
            center_misses: self.center_misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            count_retained: self.count_retained.load(Ordering::Relaxed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn cv(n: usize) -> Arc<CountVector> {
        Arc::new(CountVector::new(n, vec![true; n]))
    }

    #[test]
    fn count_side_hit_miss_and_counters() {
        let c = CensusCache::new(8);
        let key = CensusCache::count_key("PATTERN t {}", 2, None, &[NodeId(0)], 7);
        assert!(c.get_counts(&key).is_none());
        c.put_counts(key.clone(), cv(3));
        let hit = c.get_counts(&key).unwrap();
        assert_eq!(hit.len(), 3);
        let s = c.stats();
        assert_eq!((s.count_hits, s.count_misses, s.count_entries), (1, 1, 1));
        // Byte occupancy tracks the live vector: 3 counts * 9 bytes.
        assert_eq!(s.count_bytes, 27);
        assert_eq!(s.match_bytes, 0);
    }

    #[test]
    fn invalidate_clears_both_sides_and_counts() {
        let c = CensusCache::new(8);
        c.put_counts("k1".into(), cv(2));
        c.put_matches("m1".into(), Arc::new(MatchList::default()));
        assert_eq!(c.stats().count_entries, 1);
        assert_eq!(c.stats().match_entries, 1);
        c.invalidate();
        let s = c.stats();
        assert_eq!(s.count_entries, 0);
        assert_eq!(s.match_entries, 0);
        assert_eq!(s.invalidations, 1);
        assert!(!c.peek_counts("k1"));
        // Re-population after an invalidation works normally.
        c.put_counts("k1".into(), cv(2));
        assert!(c.peek_counts("k1"));
    }

    #[test]
    fn center_side_counts_and_drops_on_every_mutation() {
        let c = CensusCache::new(8);
        let key = CensusCache::center_key(12, 7);
        assert_ne!(key, CensusCache::center_key(12, 8));
        assert_ne!(key, CensusCache::center_key(3, 7));
        assert!(c.get_centers(&key).is_none());
        c.put_centers(key.clone(), CenterIndex::empty());
        assert!(c.get_centers(&key).is_some());
        let s = c.stats();
        assert_eq!((s.center_hits, s.center_misses), (1, 1));
        // The match/count counters are someone else's.
        assert_eq!((s.match_hits, s.match_misses), (0, 0));
        assert_eq!((s.count_hits, s.count_misses), (0, 0));

        c.retain_counts(8, |_| true);
        assert!(c.get_centers(&key).is_none(), "dirty-aware sweep");
        c.put_centers(key.clone(), CenterIndex::empty());
        c.invalidate();
        assert!(c.get_centers(&key).is_none(), "full invalidation");

        let off = CensusCache::new(0);
        off.put_centers(key.clone(), CenterIndex::empty());
        assert!(off.get_centers(&key).is_none());
    }

    #[test]
    fn lru_evicts_oldest_entry() {
        let c = CensusCache::new(2);
        c.put_counts("a".into(), cv(1));
        c.put_counts("b".into(), cv(1));
        assert!(c.get_counts("a").is_some()); // a is now most recent
        c.put_counts("c".into(), cv(1)); // evicts b
        assert!(c.peek_counts("a"));
        assert!(!c.peek_counts("b"));
        assert!(c.peek_counts("c"));
        assert_eq!(c.stats().count_entries, 2);
    }

    #[test]
    fn reinsert_same_key_replaces_without_growth() {
        let c = CensusCache::new(2);
        c.put_counts("k".into(), cv(1));
        c.put_counts("k".into(), cv(5));
        assert_eq!(c.stats().count_entries, 1);
        assert_eq!(c.get_counts("k").unwrap().len(), 5);
    }

    #[test]
    fn zero_capacity_disables_caching() {
        let c = CensusCache::new(0);
        c.put_counts("k".into(), cv(1));
        assert!(c.get_counts("k").is_none());
        assert_eq!(c.stats().count_entries, 0);
    }

    #[test]
    fn peek_does_not_count_or_touch() {
        let c = CensusCache::new(2);
        c.put_counts("a".into(), cv(1));
        c.put_counts("b".into(), cv(1));
        assert!(c.peek_counts("a")); // does NOT refresh a
        c.put_counts("c".into(), cv(1)); // so a is evicted
        assert!(!c.peek_counts("a"));
        let s = c.stats();
        assert_eq!((s.count_hits, s.count_misses), (0, 0));
    }

    #[test]
    fn focal_hash_distinguishes_sets() {
        let fp = 1;
        let a = CensusCache::count_key("p", 1, None, &[NodeId(0), NodeId(1)], fp);
        let b = CensusCache::count_key("p", 1, None, &[NodeId(0)], fp);
        let c = CensusCache::count_key("p", 1, None, &[NodeId(0), NodeId(2)], fp);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let again = CensusCache::count_key("p", 1, None, &[NodeId(0), NodeId(1)], fp);
        assert_eq!(a, again);
        // Subpattern and fingerprint discriminate too.
        assert_ne!(
            CensusCache::count_key("p", 1, Some("s"), &[], fp),
            CensusCache::count_key("p", 1, None, &[], fp)
        );
        assert_ne!(
            CensusCache::count_key("p", 1, None, &[], 1),
            CensusCache::count_key("p", 1, None, &[], 2)
        );
    }
}
