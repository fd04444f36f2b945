//! Materialized census views: a byte-budgeted tier of *pinned*,
//! incrementally-maintained count indexes.
//!
//! The existing caches are memoization: the server's `QueryCache` holds
//! encoded result tables, [`crate::census_cache::CensusCache`] holds
//! match lists and count vectors, and both drop entries by LRU pressure
//! or fingerprint change. A *view* is a managed index instead
//! (`MATERIALIZE <pattern> RADIUS k [MATCHES]`): the full per-focal
//! count vector for a pattern over the engine's entire focal coverage,
//! pinned until `DROP VIEW` or explicit budget eviction
//! (**largest-first**, deterministic, surfaced in stats), persisted as a
//! fingerprint-tagged `<graph>.views` sidecar so restarts are warm, and
//! kept *fresh* across `update`s by the incremental engine's dirty-focal
//! refresh (`ego-dynamic::update_batch_on`) rather than invalidated.
//!
//! Any `COUNTP`/`COUNTSP` over a materialized `(pattern, k, subpattern)`
//! — arbitrary focal subsets included — is rewritten by the optimizer's
//! view-substitution pass into a `ViewProbe` plan node: a pure gather
//! over the pinned [`CountVector`] with zero graph traversal.
//!
//! Views shard by focal range exactly like scatter: a view carries the
//! [`ShardSpec`] coverage it was materialized under, and substitution
//! fires only when the probing engine's focal shard matches — a fleet of
//! per-shard views serves scattered statements just as per-shard engines
//! serve them.

use crate::error::QueryError;
use crate::shard::ShardSpec;
use ego_census::CountVector;
use ego_graph::NodeId;
use ego_matcher::{MatchList, PatternMatch};
use ego_pattern::Pattern;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sidecar format version (first line: `egoviews v<N>`).
const VIEWS_VERSION: u32 = 1;

/// Default view budget when none is configured: 64 MiB.
pub const DEFAULT_VIEW_BUDGET: usize = 64 << 20;

/// One materialized view: a pattern's full per-focal count vector (and
/// optionally its maintained global match list) over one focal coverage.
#[derive(Clone, Debug)]
pub struct ViewEntry {
    /// The resolved pattern, owned (detached from any session catalog).
    pub pattern: Pattern,
    /// Canonical pattern DSL (key component; re-parseable).
    pub dsl: String,
    /// Neighborhood radius.
    pub k: u32,
    /// COUNTSP subpattern name, if the view serves COUNTSP.
    pub subpattern: Option<String>,
    /// Full count vector over the coverage: `counts.get(n)` for every
    /// covered `n`, focal flags marking the coverage set.
    pub counts: Arc<CountVector>,
    /// The global match list, maintained across updates, when the view
    /// was materialized `MATCHES`.
    pub matches: Option<Arc<MatchList>>,
    /// Fingerprint of the graph these counts describe. Kept current by
    /// refresh; a mismatch (crash between swap and refresh) blocks
    /// substitution.
    pub fingerprint: u64,
    /// Focal coverage: `None` = whole graph, `Some(i/n)` = that shard's
    /// contiguous node-ID range (the sharded tier's partitioning).
    pub shard: Option<ShardSpec>,
    /// Estimated resident size, charged against the registry budget.
    pub bytes: usize,
}

impl ViewEntry {
    /// Estimated resident bytes of a view with these counts/matches:
    /// 8 bytes per count + 1 per focal flag, plus 4 per match image.
    pub fn estimate_bytes(counts: &CountVector, matches: Option<&MatchList>) -> usize {
        let count_bytes = counts.len() * 9;
        let match_bytes = matches
            .map(|m| m.iter().map(|pm| pm.nodes.len() * 4).sum())
            .unwrap_or(0);
        count_bytes + match_bytes
    }
}

/// Occupancy and lifecycle counters, surfaced as `view_*` stats rows.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Live views.
    pub entries: usize,
    /// Total resident bytes across live views.
    pub bytes: usize,
    /// Byte budget.
    pub budget_bytes: usize,
    /// Statements served from a view (pure gather, zero traversal).
    pub hits: u64,
    /// Incremental refreshes applied across updates.
    pub refreshes: u64,
    /// Views evicted by budget pressure (largest-first).
    pub evictions: u64,
    /// Views dropped explicitly (`DROP VIEW`).
    pub drops: u64,
    /// Views created by `MATERIALIZE`.
    pub materializations: u64,
    /// Views adopted from a warm sidecar at open.
    pub sidecar_loads: u64,
}

/// Thread-safe registry of materialized views. Entries are pinned: only
/// `DROP VIEW`, [`ViewRegistry::clear`], or budget eviction on insert
/// removes one — graph mutations *refresh* entries in place.
pub struct ViewRegistry {
    entries: Mutex<BTreeMap<String, Arc<ViewEntry>>>,
    budget_bytes: usize,
    hits: AtomicU64,
    refreshes: AtomicU64,
    evictions: AtomicU64,
    drops: AtomicU64,
    materializations: AtomicU64,
    sidecar_loads: AtomicU64,
}

impl ViewRegistry {
    /// Registry with a byte budget. `0` admits nothing (every
    /// `MATERIALIZE` errors), which is how views are disabled.
    pub fn new(budget_bytes: usize) -> Self {
        ViewRegistry {
            entries: Mutex::new(BTreeMap::new()),
            budget_bytes,
            hits: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            materializations: AtomicU64::new(0),
            sidecar_loads: AtomicU64::new(0),
        }
    }

    /// The registry key for a view: pattern DSL + radius + subpattern.
    /// Fingerprint and shard are *not* in the key — a view is one logical
    /// index whose contents follow the graph; probes check both fields
    /// on the entry instead.
    pub fn view_key(dsl: &str, k: u32, subpattern: Option<&str>) -> String {
        format!("{dsl}|k={k}|sp={}", subpattern.unwrap_or("-"))
    }

    /// `MATERIALIZE`: pin a new view and count one materialization.
    pub fn insert(&self, entry: ViewEntry) -> Result<Vec<String>, QueryError> {
        let evicted = self.pin(entry)?;
        self.materializations.fetch_add(1, Ordering::Relaxed);
        Ok(evicted)
    }

    /// Pin a view (replacing any same-key predecessor). Under budget
    /// pressure other views are evicted **largest-first** (ties by key,
    /// ascending) until the registry fits; evicted keys are returned so
    /// callers can report them. A view larger than the whole budget is
    /// rejected.
    fn pin(&self, entry: ViewEntry) -> Result<Vec<String>, QueryError> {
        if entry.bytes > self.budget_bytes {
            return Err(QueryError::Semantic(format!(
                "view `{}` needs {} bytes but the view budget is {} bytes; \
                 raise the budget or drop other views",
                Self::view_key(&entry.dsl, entry.k, entry.subpattern.as_deref()),
                entry.bytes,
                self.budget_bytes
            )));
        }
        let key = Self::view_key(&entry.dsl, entry.k, entry.subpattern.as_deref());
        let mut entries = self.entries.lock().unwrap();
        entries.insert(key.clone(), Arc::new(entry));
        let evicted = Self::evict_to_budget(&mut entries, self.budget_bytes, &key);
        drop(entries);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
        Ok(evicted)
    }

    /// Largest-first eviction (ties by key, ascending) until total bytes
    /// fit the budget, never evicting `keep` (the entry being inserted
    /// or refreshed). Deterministic: equal registries evict equally.
    fn evict_to_budget(
        entries: &mut BTreeMap<String, Arc<ViewEntry>>,
        budget: usize,
        keep: &str,
    ) -> Vec<String> {
        let mut evicted = Vec::new();
        loop {
            let total: usize = entries.values().map(|e| e.bytes).sum();
            if total <= budget {
                break;
            }
            let victim = entries
                .iter()
                .filter(|(k, _)| k.as_str() != keep)
                .max_by(|(ka, a), (kb, b)| a.bytes.cmp(&b.bytes).then(kb.cmp(ka)))
                .map(|(k, _)| k.clone());
            match victim {
                Some(k) => {
                    entries.remove(&k);
                    evicted.push(k);
                }
                None => break, // only `keep` remains; insert() pre-checked its size
            }
        }
        evicted
    }

    /// Serve a probe: the entry for `(dsl, k, subpattern)` if it exists,
    /// is fresh for `fingerprint`, and covers exactly `shard`. Counts a
    /// hit when served.
    pub fn get(
        &self,
        dsl: &str,
        k: u32,
        subpattern: Option<&str>,
        fingerprint: u64,
        shard: Option<ShardSpec>,
    ) -> Option<Arc<ViewEntry>> {
        let e = self.peek(dsl, k, subpattern, fingerprint, shard)?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(e)
    }

    /// Non-counting probe (the optimizer and `EXPLAIN` use this so
    /// planning does not skew the hit counter).
    pub fn peek(
        &self,
        dsl: &str,
        k: u32,
        subpattern: Option<&str>,
        fingerprint: u64,
        shard: Option<ShardSpec>,
    ) -> Option<Arc<ViewEntry>> {
        let entries = self.entries.lock().unwrap();
        let e = entries.get(&Self::view_key(dsl, k, subpattern))?;
        if e.fingerprint != fingerprint || e.shard != shard {
            return None;
        }
        Some(Arc::clone(e))
    }

    /// Drop a view. Returns the dropped entry, or `None` if absent.
    pub fn remove(&self, dsl: &str, k: u32, subpattern: Option<&str>) -> Option<Arc<ViewEntry>> {
        let removed = self
            .entries
            .lock()
            .unwrap()
            .remove(&Self::view_key(dsl, k, subpattern));
        if removed.is_some() {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Snapshot of every live view, in key order. The refresh driver
    /// iterates this to batch all views into one incremental update.
    pub fn snapshot(&self) -> Vec<Arc<ViewEntry>> {
        self.entries.lock().unwrap().values().cloned().collect()
    }

    /// Install a refreshed body for an existing view: new counts, new
    /// match list, new fingerprint; pattern/k/subpattern/shard unchanged.
    /// No-op if the view was dropped concurrently.
    pub fn install_refreshed(
        &self,
        dsl: &str,
        k: u32,
        subpattern: Option<&str>,
        counts: Arc<CountVector>,
        matches: Option<Arc<MatchList>>,
        fingerprint: u64,
    ) {
        let key = Self::view_key(dsl, k, subpattern);
        let mut entries = self.entries.lock().unwrap();
        let Some(old) = entries.get(&key) else { return };
        let bytes = ViewEntry::estimate_bytes(&counts, matches.as_deref());
        let fresh = ViewEntry {
            pattern: old.pattern.clone(),
            dsl: old.dsl.clone(),
            k: old.k,
            subpattern: old.subpattern.clone(),
            counts,
            matches,
            fingerprint,
            shard: old.shard,
            bytes,
        };
        entries.insert(key.clone(), Arc::new(fresh));
        // A grown match list can push past the budget; the refreshed
        // view itself is pinned, others pay largest-first.
        let evicted = Self::evict_to_budget(&mut entries, self.budget_bytes, &key);
        drop(entries);
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        self.evictions
            .fetch_add(evicted.len() as u64, Ordering::Relaxed);
    }

    /// Drop every view (server shutdown paths and tests).
    pub fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }

    /// Occupancy and counters.
    pub fn stats(&self) -> ViewStats {
        let entries = self.entries.lock().unwrap();
        ViewStats {
            entries: entries.len(),
            bytes: entries.values().map(|e| e.bytes).sum(),
            budget_bytes: self.budget_bytes,
            hits: self.hits.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            drops: self.drops.load(Ordering::Relaxed),
            materializations: self.materializations.load(Ordering::Relaxed),
            sidecar_loads: self.sidecar_loads.load(Ordering::Relaxed),
        }
    }

    // --- sidecar persistence ---

    /// The views sidecar path for a graph file (`g.egb` → `g.egb.views`).
    pub fn sidecar_path(graph_path: &Path) -> PathBuf {
        let mut os = graph_path.as_os_str().to_os_string();
        os.push(".views");
        PathBuf::from(os)
    }

    /// Serialize every live view as the text sidecar, tagged with the
    /// graph fingerprint the counts describe.
    pub fn to_sidecar(&self, fingerprint: u64) -> String {
        let mut out = String::new();
        out.push_str(&format!("egoviews v{VIEWS_VERSION}\n"));
        out.push_str(&format!("fingerprint {fingerprint:016x}\n"));
        for e in self.snapshot() {
            out.push_str(&format!(
                "view k={} sp={} shard={} dsl={}\n",
                e.k,
                e.subpattern.as_deref().unwrap_or("-"),
                e.shard.map_or("-".to_string(), |s| s.to_string()),
                e.dsl
            ));
            out.push_str(&format!("focal {}\n", focal_ranges(&e.counts)));
            let counts: Vec<String> = e.counts.iter_focal().map(|(_, c)| c.to_string()).collect();
            out.push_str(&format!("counts {}\n", counts.join(" ")));
            if let Some(m) = &e.matches {
                out.push_str(&format!("matches {}\n", m.len()));
                for pm in m.iter() {
                    let imgs: Vec<String> = pm.nodes.iter().map(|n| n.0.to_string()).collect();
                    out.push_str(&format!("match {}\n", imgs.join(" ")));
                }
            }
            out.push_str("end\n");
        }
        out
    }

    /// Write the sidecar.
    pub fn save(&self, path: &Path, fingerprint: u64) -> Result<(), QueryError> {
        std::fs::write(path, self.to_sidecar(fingerprint))
            .map_err(|e| QueryError::Semantic(format!("cannot write {}: {e}", path.display())))
    }

    /// Parse a sidecar into `(fingerprint, views)`. `num_nodes` sizes the
    /// reconstructed count vectors (the live graph's node count; a
    /// mismatching sidecar fails parsing, which adoption treats as
    /// stale-equivalent).
    pub fn parse_sidecar(text: &str, num_nodes: usize) -> Result<(u64, Vec<ViewEntry>), String> {
        let mut lines = text.lines().peekable();
        match lines.next() {
            Some(h) if h.trim() == format!("egoviews v{VIEWS_VERSION}") => {}
            Some(h) => return Err(format!("unsupported views header `{}`", h.trim())),
            None => return Err("empty views sidecar".into()),
        }
        let fp_line = lines.next().ok_or("views sidecar missing fingerprint")?;
        let fingerprint = fp_line
            .trim()
            .strip_prefix("fingerprint ")
            .and_then(|v| u64::from_str_radix(v.trim(), 16).ok())
            .ok_or_else(|| format!("bad fingerprint line `{}`", fp_line.trim()))?;
        let mut views = Vec::new();
        while let Some(line) = lines.next() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let rest = line
                .strip_prefix("view ")
                .ok_or_else(|| format!("expected `view` line, found `{line}`"))?;
            // k=<k> sp=<name|-> shard=<i/n|-> dsl=<dsl with spaces>
            let (k_part, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed view line `{line}`"))?;
            let (sp_part, rest) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed view line `{line}`"))?;
            let (shard_part, dsl_part) = rest
                .split_once(' ')
                .ok_or_else(|| format!("malformed view line `{line}`"))?;
            let k: u32 = k_part
                .strip_prefix("k=")
                .and_then(|v| v.parse().ok())
                .ok_or_else(|| format!("bad radius in `{line}`"))?;
            let subpattern = match sp_part.strip_prefix("sp=") {
                Some("-") => None,
                Some(s) => Some(s.to_string()),
                None => return Err(format!("bad subpattern in `{line}`")),
            };
            let shard = match shard_part.strip_prefix("shard=") {
                Some("-") => None,
                Some(s) => Some(ShardSpec::parse(s)?),
                None => return Err(format!("bad shard in `{line}`")),
            };
            let dsl = dsl_part
                .strip_prefix("dsl=")
                .ok_or_else(|| format!("bad dsl in `{line}`"))?
                .to_string();
            let pattern =
                Pattern::parse(&dsl).map_err(|e| format!("unparseable view pattern: {e}"))?;
            if let Some(sp) = &subpattern {
                if pattern.subpattern(sp).is_none() {
                    return Err(format!("view pattern has no subpattern `{sp}`"));
                }
            }
            let focal_line = lines.next().ok_or("view missing `focal` line")?;
            let focal_spec = focal_line
                .trim()
                .strip_prefix("focal ")
                .ok_or_else(|| format!("expected `focal` line, found `{}`", focal_line.trim()))?;
            let focal_ids = parse_focal_ranges(focal_spec, num_nodes)?;
            let mut focal = vec![false; num_nodes];
            for &n in &focal_ids {
                focal[n.0 as usize] = true;
            }
            let counts_line = lines.next().ok_or("view missing `counts` line")?;
            let counts_spec = counts_line
                .trim()
                .strip_prefix("counts")
                .ok_or_else(|| format!("expected `counts` line, found `{}`", counts_line.trim()))?;
            let values: Vec<u64> = counts_spec
                .split_whitespace()
                .map(|v| v.parse().map_err(|_| format!("bad count `{v}`")))
                .collect::<Result<_, _>>()?;
            if values.len() != focal_ids.len() {
                return Err(format!(
                    "view has {} focal nodes but {} counts",
                    focal_ids.len(),
                    values.len()
                ));
            }
            let mut counts = CountVector::new(num_nodes, focal);
            for (&n, &c) in focal_ids.iter().zip(&values) {
                counts.set(n, c);
            }
            // Optional match block, then `end`.
            let mut matches = None;
            let next = lines.next().ok_or("view missing `end` line")?;
            let next = next.trim();
            if let Some(mlen) = next.strip_prefix("matches ") {
                let mlen: usize = mlen
                    .trim()
                    .parse()
                    .map_err(|_| format!("bad match count `{mlen}`"))?;
                // Not pre-sized: `mlen` is whatever the file claims.
                let mut pms = Vec::new();
                for _ in 0..mlen {
                    let mline = lines.next().ok_or("truncated match block")?;
                    let imgs = mline.trim().strip_prefix("match ").ok_or_else(|| {
                        format!("expected `match` line, found `{}`", mline.trim())
                    })?;
                    let nodes: Vec<NodeId> = imgs
                        .split_whitespace()
                        .map(|v| {
                            v.parse::<u32>()
                                .map(NodeId)
                                .map_err(|_| format!("bad match image `{v}`"))
                        })
                        .collect::<Result<_, _>>()?;
                    if nodes.len() != pattern.num_nodes() {
                        return Err(format!(
                            "match arity {} != pattern arity {}",
                            nodes.len(),
                            pattern.num_nodes()
                        ));
                    }
                    pms.push(PatternMatch { nodes });
                }
                matches = Some(Arc::new(MatchList::from_matches(pms)));
                let end = lines.next().ok_or("view missing `end` line")?;
                if end.trim() != "end" {
                    return Err(format!("expected `end`, found `{}`", end.trim()));
                }
            } else if next != "end" {
                return Err(format!("expected `matches` or `end`, found `{next}`"));
            }
            let counts = Arc::new(counts);
            let bytes = ViewEntry::estimate_bytes(&counts, matches.as_deref());
            views.push(ViewEntry {
                pattern,
                dsl,
                k,
                subpattern,
                counts,
                matches,
                fingerprint,
                shard,
                bytes,
            });
        }
        Ok((fingerprint, views))
    }

    /// Load a sidecar and adopt its views if the tag matches the live
    /// fingerprint; a stale or malformed sidecar is reported via the
    /// return value and ignored (never blocks opening the graph).
    /// Returns the number of views adopted.
    pub fn adopt_sidecar(
        &self,
        path: &Path,
        live_fingerprint: u64,
        num_nodes: usize,
    ) -> Result<usize, QueryError> {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
            Err(e) => {
                return Err(QueryError::Semantic(format!(
                    "cannot read {}: {e}",
                    path.display()
                )))
            }
        };
        let (fingerprint, views) = Self::parse_sidecar(&text, num_nodes).map_err(|e| {
            QueryError::Semantic(format!("bad views sidecar {}: {e}", path.display()))
        })?;
        if fingerprint != live_fingerprint {
            return Ok(0); // stale: the graph changed since persistence
        }
        let mut adopted = 0;
        for v in views {
            if self.pin(v).is_ok() {
                adopted += 1;
            }
        }
        self.sidecar_loads
            .fetch_add(adopted as u64, Ordering::Relaxed);
        Ok(adopted)
    }
}

/// Render a count vector's focal flags as inclusive ranges
/// (`0-99,200-200`), `-` when empty.
fn focal_ranges(counts: &CountVector) -> String {
    let mut ranges: Vec<(u32, u32)> = Vec::new();
    for (n, _) in counts.iter_focal() {
        match ranges.last_mut() {
            Some((_, hi)) if *hi + 1 == n.0 => *hi = n.0,
            _ => ranges.push((n.0, n.0)),
        }
    }
    if ranges.is_empty() {
        return "-".to_string();
    }
    ranges
        .iter()
        .map(|(lo, hi)| format!("{lo}-{hi}"))
        .collect::<Vec<_>>()
        .join(",")
}

/// Parse the inclusive-range focal syntax back to an ascending id list.
/// Ranges must be ascending, disjoint and below `num_nodes` (as
/// [`focal_ranges`] writes them); each is checked before it is expanded,
/// so a hostile line cannot make this allocate more than `num_nodes` ids.
fn parse_focal_ranges(spec: &str, num_nodes: usize) -> Result<Vec<NodeId>, String> {
    let spec = spec.trim();
    if spec == "-" || spec.is_empty() {
        return Ok(Vec::new());
    }
    let mut ids: Vec<NodeId> = Vec::new();
    for part in spec.split(',') {
        let bad = || format!("bad focal range `{part}`");
        let (lo, hi) = part.split_once('-').ok_or_else(bad)?;
        let lo: u32 = lo.parse().map_err(|_| bad())?;
        let hi: u32 = hi.parse().map_err(|_| bad())?;
        if hi < lo || ids.last().is_some_and(|last| lo <= last.0) {
            return Err(bad());
        }
        if hi as usize >= num_nodes {
            return Err(format!(
                "view focal node {hi} out of range for {num_nodes} nodes"
            ));
        }
        ids.extend((lo..=hi).map(NodeId));
    }
    Ok(ids)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pattern() -> Pattern {
        Pattern::parse("PATTERN tri { ?A-?B; ?B-?C; ?A-?C; }").unwrap()
    }

    fn entry(name_k: u32, n: usize, fp: u64) -> ViewEntry {
        let p = pattern();
        let counts = Arc::new(CountVector::new(n, vec![true; n]));
        let bytes = ViewEntry::estimate_bytes(&counts, None);
        ViewEntry {
            dsl: ego_pattern::to_dsl(&p),
            pattern: p,
            k: name_k,
            subpattern: None,
            counts,
            matches: None,
            fingerprint: fp,
            shard: None,
            bytes,
        }
    }

    #[test]
    fn insert_probe_and_drop() {
        let r = ViewRegistry::new(1 << 20);
        let e = entry(2, 10, 7);
        let dsl = e.dsl.clone();
        r.insert(e).unwrap();
        assert!(r.get(&dsl, 2, None, 7, None).is_some());
        // Fingerprint, radius, subpattern, and shard all gate the probe.
        assert!(r.peek(&dsl, 2, None, 8, None).is_none());
        assert!(r.peek(&dsl, 3, None, 7, None).is_none());
        assert!(r.peek(&dsl, 2, Some("s"), 7, None).is_none());
        assert!(r
            .peek(&dsl, 2, None, 7, Some(ShardSpec::new(0, 2).unwrap()))
            .is_none());
        let s = r.stats();
        assert_eq!((s.entries, s.hits, s.materializations), (1, 1, 1));
        assert!(s.bytes > 0);
        assert!(r.remove(&dsl, 2, None).is_some());
        assert!(r.remove(&dsl, 2, None).is_none());
        assert_eq!(r.stats().entries, 0);
        assert_eq!(r.stats().drops, 1);
    }

    #[test]
    fn eviction_is_largest_first_and_deterministic() {
        // Budget fits the big view plus one small one, not all three.
        let small = entry(1, 10, 7); // 90 bytes
        let big = entry(2, 100, 7); // 900 bytes
        let small2 = entry(3, 10, 7); // 90 bytes
        let budget = 900 + 90 + 50;
        let run = || {
            let r = ViewRegistry::new(budget);
            r.insert(entry(1, 10, 7)).unwrap();
            r.insert(entry(2, 100, 7)).unwrap();
            let evicted = r.insert(entry(3, 10, 7)).unwrap();
            let live: Vec<String> = r.snapshot().iter().map(|e| e.k.to_string()).collect();
            (evicted, live)
        };
        let (evicted, live) = run();
        // The largest (k=2) goes first, never the entry just inserted.
        assert_eq!(evicted.len(), 1, "{evicted:?}");
        assert!(evicted[0].contains("k=2"), "{evicted:?}");
        assert_eq!(live, vec!["1", "3"]);
        // Determinism: same inputs, same evictions.
        assert_eq!(run(), (evicted, live));
        let _ = (small, big, small2);
    }

    #[test]
    fn oversized_view_is_rejected() {
        let r = ViewRegistry::new(10);
        let err = r.insert(entry(1, 100, 7)).unwrap_err();
        assert!(err.to_string().contains("budget"), "{err}");
        assert_eq!(r.stats().entries, 0);
    }

    #[test]
    fn refresh_updates_fingerprint_in_place() {
        let r = ViewRegistry::new(1 << 20);
        let e = entry(2, 5, 7);
        let dsl = e.dsl.clone();
        r.insert(e).unwrap();
        let mut cv = CountVector::new(5, vec![true; 5]);
        cv.set(NodeId(3), 42);
        r.install_refreshed(&dsl, 2, None, Arc::new(cv), None, 8);
        assert!(r.peek(&dsl, 2, None, 7, None).is_none(), "old fp stale");
        let fresh = r.peek(&dsl, 2, None, 8, None).unwrap();
        assert_eq!(fresh.counts.get(NodeId(3)), 42);
        assert_eq!(r.stats().refreshes, 1);
        // Refreshing a dropped view is a no-op.
        r.remove(&dsl, 2, None);
        r.install_refreshed(&dsl, 2, None, fresh.counts.clone(), None, 9);
        assert_eq!(r.stats().entries, 0);
    }

    #[test]
    fn sidecar_roundtrip_with_matches_and_partial_focal() {
        let r = ViewRegistry::new(1 << 20);
        let p = pattern();
        let n = 8;
        let mut focal = vec![false; n];
        for i in [0usize, 1, 2, 5, 6] {
            focal[i] = true;
        }
        let mut cv = CountVector::new(n, focal);
        cv.set(NodeId(0), 3);
        cv.set(NodeId(5), 1);
        let m = MatchList::from_matches(vec![
            PatternMatch {
                nodes: vec![NodeId(0), NodeId(1), NodeId(2)],
            },
            PatternMatch {
                nodes: vec![NodeId(0), NodeId(2), NodeId(5)],
            },
        ]);
        let counts = Arc::new(cv);
        let matches = Some(Arc::new(m));
        let bytes = ViewEntry::estimate_bytes(&counts, matches.as_deref());
        r.insert(ViewEntry {
            dsl: ego_pattern::to_dsl(&p),
            pattern: p,
            k: 2,
            subpattern: None,
            counts,
            matches,
            fingerprint: 0xABCD,
            shard: Some(ShardSpec::new(0, 2).unwrap()),
            bytes,
        })
        .unwrap();
        let text = r.to_sidecar(0xABCD);
        let (fp, views) = ViewRegistry::parse_sidecar(&text, n).unwrap();
        assert_eq!(fp, 0xABCD);
        assert_eq!(views.len(), 1);
        let v = &views[0];
        assert_eq!(v.k, 2);
        assert_eq!(v.shard, Some(ShardSpec::new(0, 2).unwrap()));
        assert_eq!(v.counts.get(NodeId(0)), 3);
        assert_eq!(v.counts.get(NodeId(5)), 1);
        assert_eq!(v.counts.get(NodeId(3)), 0);
        assert!(v.counts.is_focal(NodeId(6)));
        assert!(!v.counts.is_focal(NodeId(3)));
        let m = v.matches.as_ref().unwrap();
        assert_eq!(m.len(), 2);
        assert_eq!(m[1].nodes, vec![NodeId(0), NodeId(2), NodeId(5)]);
        // Round-trip again: byte-identical sidecar.
        let r2 = ViewRegistry::new(1 << 20);
        for v in views {
            r2.insert(v).unwrap();
        }
        assert_eq!(r2.to_sidecar(0xABCD), text);
    }

    #[test]
    fn stale_sidecar_is_ignored_on_adoption() {
        let dir = std::env::temp_dir().join(format!("egoviews-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("g.views");
        let r = ViewRegistry::new(1 << 20);
        r.insert(entry(2, 6, 0x11)).unwrap();
        r.save(&path, 0x11).unwrap();
        // Fresh fingerprint: adopted.
        let warm = ViewRegistry::new(1 << 20);
        assert_eq!(warm.adopt_sidecar(&path, 0x11, 6).unwrap(), 1);
        assert_eq!(warm.stats().sidecar_loads, 1);
        assert_eq!(warm.stats().materializations, 0);
        // Stale fingerprint: rejected, registry untouched.
        let cold = ViewRegistry::new(1 << 20);
        assert_eq!(cold.adopt_sidecar(&path, 0x22, 6).unwrap(), 0);
        assert_eq!(cold.stats().entries, 0);
        // Missing file: Ok(0).
        assert_eq!(
            cold.adopt_sidecar(&dir.join("absent.views"), 0x11, 6)
                .unwrap(),
            0
        );
        // Malformed file: an error, not a panic.
        std::fs::write(&path, "not a views sidecar").unwrap();
        assert!(cold.adopt_sidecar(&path, 0x11, 6).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn focal_range_rendering() {
        let mut focal = vec![false; 10];
        for i in [0usize, 1, 2, 7, 9] {
            focal[i] = true;
        }
        let cv = CountVector::new(10, focal);
        assert_eq!(focal_ranges(&cv), "0-2,7-7,9-9");
        assert_eq!(
            parse_focal_ranges("0-2,7-7,9-9", 10).unwrap(),
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(7), NodeId(9)]
        );
        assert_eq!(focal_ranges(&CountVector::new(4, vec![false; 4])), "-");
        assert!(parse_focal_ranges("5-2", 10).is_err());
        assert!(parse_focal_ranges("x", 10).is_err());
        // Out of range, overlapping, or out of order: rejected before
        // any id is expanded.
        assert!(parse_focal_ranges("0-10", 10).is_err());
        assert!(parse_focal_ranges("0-5,5-6", 10).is_err());
        assert!(parse_focal_ranges("7-7,0-2", 10).is_err());
    }

    #[test]
    fn hostile_sidecar_sizes_are_errors_not_allocations() {
        let r = ViewRegistry::new(1 << 20);
        r.insert(entry(2, 6, 0x11)).unwrap();
        let good = r.to_sidecar(0x11);
        assert!(ViewRegistry::parse_sidecar(&good, 6).is_ok());
        // A focal range far past the graph: would expand to 2^32 ids.
        let wide = good.replace("focal 0-5", "focal 0-4294967295");
        assert_ne!(wide, good);
        let err = ViewRegistry::parse_sidecar(&wide, 6).unwrap_err();
        assert!(err.contains("out of range"), "{err}");
        // A declared match count no file could hold: would pre-size a
        // Vec past `isize::MAX` bytes.
        let huge = good.replace("end\n", "matches 18446744073709551615\nend\n");
        assert_ne!(huge, good);
        let err = ViewRegistry::parse_sidecar(&huge, 6).unwrap_err();
        assert!(err.contains("`match` line"), "{err}");
    }
}
