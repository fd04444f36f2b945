//! Adaptive set-intersection kernels.
//!
//! Every matcher and census path bottoms out in sorted-set intersection:
//! candidate-neighbor construction intersects adjacency lists with
//! candidate lists, match extraction intersects CN lists along the search
//! order, and the pairwise census paths intersect neighborhood balls.
//! Subgraph-counting cost is dominated by exactly these adjacency
//! intersections (Silvestri; Deng et al.), so this module provides the
//! kernels once, allocation-free, and picks the right one per call:
//!
//! * **merge** — the scalar two-pointer merge; fastest when the inputs
//!   are comparably sized.
//! * **gallop** — exponential (doubling) search from a moving cursor in
//!   the longer list; `O(s · log(l/s))`, the winner on skewed sizes.
//! * **bitset** — a fixed-width `u64`-block membership bitmap
//!   ([`NodeBitset`]) with build-once / intersect-many semantics, for
//!   candidate sets that get intersected against many adjacency lists
//!   (CN-set initialization, the prune fixpoint).
//!
//! The [`intersect_into`] dispatcher chooses merge vs gallop from the
//! size ratio ([`GALLOP_RATIO`]); call sites with reuse opt into bitsets
//! via [`NodeBitset`] directly, when [`bitset_pays_off`] says a build
//! amortizes ([`BITSET_MIN_REUSE`], [`BITSET_MIN_SET`]). The three
//! thresholds are constants — the measured crossovers — so the kernel a
//! call gets depends only on its inputs and the configured kernel, never
//! on what the process ran before. Every choice is tallied in a
//! [`SetOpStats`] so the dispatcher's behavior is observable (the matcher
//! folds these into its `MatchStats`; long-running processes expose the
//! process-wide [`global_snapshot`]).
//!
//! The kernel can be forced process-wide for equivalence testing with the
//! `EGO_SETOPS` environment variable (`merge`, `gallop`, `bitset`,
//! `adaptive`); all kernels produce byte-identical sorted output.

use crate::ids::NodeId;
use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};

/// Long/short size ratio beyond which galloping beats the linear
/// merge (the measured crossover on uniform graphs).
pub const GALLOP_RATIO: usize = 16;

/// Minimum reuse count (intersections sharing one right-hand
/// set) for a [`NodeBitset`] build to amortize in the adaptive policy.
pub const BITSET_MIN_REUSE: usize = 64;

/// Minimum right-hand set size for a bitset build to beat
/// per-call galloping in the adaptive policy.
pub const BITSET_MIN_SET: usize = 1024;

/// Counters for kernel dispatch decisions and scratch-buffer reuse.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SetOpStats {
    /// Intersections executed by the two-pointer merge kernel.
    pub merge_calls: u64,
    /// Intersections executed by the galloping kernel.
    pub gallop_calls: u64,
    /// Intersections answered through a [`NodeBitset`] membership filter.
    pub bitset_calls: u64,
    /// Intersections that reused a caller scratch buffer instead of
    /// allocating a fresh `Vec` (the pre-kernel code allocated per call).
    pub saved_allocs: u64,
}

impl SetOpStats {
    /// Accumulate another tally into this one.
    pub fn add(&mut self, other: &SetOpStats) {
        self.merge_calls += other.merge_calls;
        self.gallop_calls += other.gallop_calls;
        self.bitset_calls += other.bitset_calls;
        self.saved_allocs += other.saved_allocs;
    }

    /// Total kernel invocations, all kinds.
    pub fn total_calls(&self) -> u64 {
        self.merge_calls + self.gallop_calls + self.bitset_calls
    }
}

/// Which intersection kernel to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kernel {
    /// Always the two-pointer merge (the pre-kernel scalar baseline).
    Merge,
    /// Always exponential search.
    Gallop,
    /// Always a membership bitmap (built on the fly when no prebuilt
    /// bitset exists — slow, but exercises the bitset path everywhere).
    Bitset,
    /// Pick per call from the size ratio / reuse count. Default.
    Adaptive,
}

impl Kernel {
    /// Parse an `EGO_SETOPS` value.
    pub fn parse(s: &str) -> Option<Kernel> {
        match s.trim().to_ascii_lowercase().as_str() {
            "merge" => Some(Kernel::Merge),
            "gallop" => Some(Kernel::Gallop),
            "bitset" => Some(Kernel::Bitset),
            "adaptive" | "auto" => Some(Kernel::Adaptive),
            _ => None,
        }
    }

    /// Stable lowercase name (the `EGO_SETOPS` spelling).
    pub fn name(&self) -> &'static str {
        match self {
            Kernel::Merge => "merge",
            Kernel::Gallop => "gallop",
            Kernel::Bitset => "bitset",
            Kernel::Adaptive => "adaptive",
        }
    }
}

// Encoded kernel config: 0 = uninitialized, then Kernel discriminant + 1.
static KERNEL_CONFIG: AtomicU8 = AtomicU8::new(0);

fn encode(k: Kernel) -> u8 {
    match k {
        Kernel::Merge => 1,
        Kernel::Gallop => 2,
        Kernel::Bitset => 3,
        Kernel::Adaptive => 4,
    }
}

fn decode(v: u8) -> Kernel {
    match v {
        1 => Kernel::Merge,
        2 => Kernel::Gallop,
        3 => Kernel::Bitset,
        _ => Kernel::Adaptive,
    }
}

/// The process-wide kernel selection: initialized from the `EGO_SETOPS`
/// environment variable on first use (unset or unparsable means
/// [`Kernel::Adaptive`]), overridable at run time via [`set_kernel`].
pub fn configured_kernel() -> Kernel {
    let v = KERNEL_CONFIG.load(Ordering::Relaxed);
    if v != 0 {
        return decode(v);
    }
    let k = std::env::var("EGO_SETOPS")
        .ok()
        .and_then(|s| Kernel::parse(&s))
        .unwrap_or(Kernel::Adaptive);
    // A racing first read may store the same value twice; that's fine.
    KERNEL_CONFIG.store(encode(k), Ordering::Relaxed);
    k
}

/// Force the kernel selection process-wide (tests and tools; normal code
/// should let the adaptive dispatcher decide).
pub fn set_kernel(k: Kernel) {
    KERNEL_CONFIG.store(encode(k), Ordering::Relaxed);
}

// Process-wide counters, flushed coarsely (once per matcher run, not per
// call) so long-running hosts like the server can report them.
static G_MERGE: AtomicU64 = AtomicU64::new(0);
static G_GALLOP: AtomicU64 = AtomicU64::new(0);
static G_BITSET: AtomicU64 = AtomicU64::new(0);
static G_SAVED: AtomicU64 = AtomicU64::new(0);

/// Fold a finished run's tally into the process-wide counters.
pub fn record_global(s: &SetOpStats) {
    if s.merge_calls != 0 {
        G_MERGE.fetch_add(s.merge_calls, Ordering::Relaxed);
    }
    if s.gallop_calls != 0 {
        G_GALLOP.fetch_add(s.gallop_calls, Ordering::Relaxed);
    }
    if s.bitset_calls != 0 {
        G_BITSET.fetch_add(s.bitset_calls, Ordering::Relaxed);
    }
    if s.saved_allocs != 0 {
        G_SAVED.fetch_add(s.saved_allocs, Ordering::Relaxed);
    }
}

/// Snapshot of the process-wide kernel counters.
pub fn global_snapshot() -> SetOpStats {
    SetOpStats {
        merge_calls: G_MERGE.load(Ordering::Relaxed),
        gallop_calls: G_GALLOP.load(Ordering::Relaxed),
        bitset_calls: G_BITSET.load(Ordering::Relaxed),
        saved_allocs: G_SAVED.load(Ordering::Relaxed),
    }
}

/// Two-pointer merge intersection of two sorted, deduplicated slices into
/// `out` (cleared first). The scalar baseline every other kernel must be
/// element-identical to.
pub fn merge_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Counting-only two-pointer merge.
pub fn merge_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Galloping (exponential-search) intersection into `out` (cleared
/// first): for each element of the shorter list, double a probe offset
/// from a monotone cursor into the longer list, then binary-search the
/// bracketed window. `O(s · log(l/s))` — the winner when `l >> s`.
pub fn gallop_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>) {
    out.clear();
    gallop_each(a, b, |x| out.push(x));
}

/// Counting-only galloping intersection.
pub fn gallop_count(a: &[NodeId], b: &[NodeId]) -> usize {
    let mut n = 0;
    gallop_each(a, b, |_| n += 1);
    n
}

fn gallop_each(a: &[NodeId], b: &[NodeId], mut emit: impl FnMut(NodeId)) {
    let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut base = 0usize;
    for &x in short {
        if base >= long.len() {
            break;
        }
        let mut offset = 1usize;
        while base + offset < long.len() && long[base + offset] < x {
            offset <<= 1;
        }
        let hi = (base + offset + 1).min(long.len());
        match long[base..hi].binary_search(&x) {
            Ok(i) => {
                emit(x);
                base += i + 1;
            }
            Err(i) => base += i,
        }
    }
}

/// Dispatching intersection into a caller-owned buffer (cleared first):
/// the configured kernel, or — under [`Kernel::Adaptive`] — merge vs
/// gallop by the [`GALLOP_RATIO`] size-ratio test. `out` keeps its
/// allocation across calls, which is the point: the old
/// `intersect_sorted` allocated a fresh `Vec` per call.
pub fn intersect_into(a: &[NodeId], b: &[NodeId], out: &mut Vec<NodeId>, stats: &mut SetOpStats) {
    if out.capacity() > 0 {
        stats.saved_allocs += 1;
    }
    let (s, l) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    match configured_kernel() {
        Kernel::Merge => {
            stats.merge_calls += 1;
            merge_into(a, b, out);
        }
        Kernel::Gallop => {
            stats.gallop_calls += 1;
            gallop_into(a, b, out);
        }
        Kernel::Bitset => {
            // No prebuilt bitmap at a one-shot call site: build one over
            // the longer side. Slow by design — this mode exists so the
            // equivalence harness can drive the bitset path everywhere.
            stats.bitset_calls += 1;
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            if long.is_empty() {
                out.clear();
                return;
            }
            let universe = long.last().map(|n| n.index() + 1).unwrap_or(0);
            let bits = NodeBitset::from_sorted(universe, long);
            bits.filter_into(short, out);
        }
        Kernel::Adaptive => {
            if s == 0 || l >= GALLOP_RATIO * s {
                stats.gallop_calls += 1;
                gallop_into(a, b, out);
            } else {
                stats.merge_calls += 1;
                merge_into(a, b, out);
            }
        }
    }
}

/// Counting-only dispatching intersection — no output buffer at all.
pub fn intersect_count(a: &[NodeId], b: &[NodeId], stats: &mut SetOpStats) -> usize {
    let (s, l) = if a.len() <= b.len() {
        (a.len(), b.len())
    } else {
        (b.len(), a.len())
    };
    match configured_kernel() {
        Kernel::Merge => {
            stats.merge_calls += 1;
            merge_count(a, b)
        }
        Kernel::Gallop => {
            stats.gallop_calls += 1;
            gallop_count(a, b)
        }
        Kernel::Bitset => {
            stats.bitset_calls += 1;
            let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
            let universe = long.last().map(|n| n.index() + 1).unwrap_or(0);
            let bits = NodeBitset::from_sorted(universe, long);
            bits.count_in(short)
        }
        Kernel::Adaptive => {
            if s == 0 || l >= GALLOP_RATIO * s {
                stats.gallop_calls += 1;
                gallop_count(a, b)
            } else {
                stats.merge_calls += 1;
                merge_count(a, b)
            }
        }
    }
}

/// Should the adaptive policy pay for a bitset build at a
/// build-once/intersect-many call site? `reuse` is the number of
/// intersections that will share the set of `set_len` elements.
pub fn bitset_pays_off(reuse: usize, set_len: usize) -> bool {
    match configured_kernel() {
        Kernel::Bitset => true,
        Kernel::Merge | Kernel::Gallop => false,
        Kernel::Adaptive => reuse >= BITSET_MIN_REUSE && set_len >= BITSET_MIN_SET,
    }
}

/// Fixed-width `u64`-block membership bitmap over node ids `0..universe`,
/// with build-once / intersect-many semantics: one `O(universe/64 + |s|)`
/// build, then each intersection against a sorted list is a pure
/// membership filter — `O(len)` with a 2-instruction test per element,
/// independent of `|s|`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct NodeBitset {
    blocks: Vec<u64>,
}

impl NodeBitset {
    /// An empty set over `0..universe`.
    pub fn new(universe: usize) -> Self {
        NodeBitset {
            blocks: vec![0u64; universe.div_ceil(64)],
        }
    }

    /// Build from a sorted (or unsorted — order is irrelevant) id slice.
    pub fn from_sorted(universe: usize, items: &[NodeId]) -> Self {
        let mut s = Self::new(universe);
        for &n in items {
            s.insert(n);
        }
        s
    }

    /// Zero every block, keeping the allocation.
    pub fn clear(&mut self) {
        self.blocks.fill(0);
    }

    /// Add `n` to the set.
    #[inline]
    pub fn insert(&mut self, n: NodeId) {
        self.blocks[n.index() >> 6] |= 1u64 << (n.index() & 63);
    }

    /// Remove `n` from the set.
    #[inline]
    pub fn remove(&mut self, n: NodeId) {
        if let Some(b) = self.blocks.get_mut(n.index() >> 6) {
            *b &= !(1u64 << (n.index() & 63));
        }
    }

    /// Membership test. Ids beyond the universe are absent, not a panic,
    /// so a bitset built over a graph can be probed with any id.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.blocks
            .get(n.index() >> 6)
            .is_some_and(|b| b >> (n.index() & 63) & 1 == 1)
    }

    /// `out = list ∩ self`, order-preserving (sorted in → sorted out).
    pub fn filter_into(&self, list: &[NodeId], out: &mut Vec<NodeId>) {
        out.clear();
        out.extend(list.iter().copied().filter(|&n| self.contains(n)));
    }

    /// In-place `v ∩ self`; returns how many elements were removed.
    pub fn retain_sorted(&self, v: &mut Vec<NodeId>) -> usize {
        let before = v.len();
        v.retain(|&n| self.contains(n));
        before - v.len()
    }

    /// `|list ∩ self|`.
    pub fn count_in(&self, list: &[NodeId]) -> usize {
        list.iter().filter(|&&n| self.contains(n)).count()
    }

    /// Number of set bits (the set's cardinality).
    pub fn len(&self) -> usize {
        self.blocks.iter().map(|b| b.count_ones() as usize).sum()
    }

    /// Is the set empty?
    pub fn is_empty(&self) -> bool {
        self.blocks.iter().all(|&b| b == 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    /// The kernel config is process-global; tests that set or depend on
    /// it serialize through this lock.
    static KERNEL_LOCK: Mutex<()> = Mutex::new(());

    fn ids(v: &[u32]) -> Vec<NodeId> {
        v.iter().map(|&i| NodeId(i)).collect()
    }

    #[test]
    fn kernels_agree_on_fixed_inputs() {
        let cases: &[(&[u32], &[u32])] = &[
            (&[], &[]),
            (&[1], &[]),
            (&[1, 3, 5, 7], &[3, 4, 5]),
            (&[0, 2, 4, 6, 8], &[1, 3, 5, 7]),
            (&[5], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 100]),
            (&[0, 100], &[0, 1, 2, 3, 100]),
        ];
        for (a, b) in cases {
            let a = ids(a);
            let b = ids(b);
            let mut merge = Vec::new();
            let mut gallop = Vec::new();
            merge_into(&a, &b, &mut merge);
            gallop_into(&a, &b, &mut gallop);
            assert_eq!(merge, gallop, "a={a:?} b={b:?}");
            let universe = b.last().map(|n| n.index() + 1).unwrap_or(0);
            let bits = NodeBitset::from_sorted(universe, &b);
            let mut filtered = Vec::new();
            bits.filter_into(&a, &mut filtered);
            assert_eq!(merge, filtered, "a={a:?} b={b:?}");
            assert_eq!(merge.len(), merge_count(&a, &b));
            assert_eq!(merge.len(), gallop_count(&a, &b));
            assert_eq!(merge.len(), bits.count_in(&a));
        }
    }

    #[test]
    fn gallop_handles_extreme_skew() {
        let long: Vec<NodeId> = (0..100_000u32).map(NodeId).collect();
        let short = ids(&[7, 99_999, 200_000]);
        let mut out = Vec::new();
        gallop_into(&short, &long, &mut out);
        assert_eq!(out, ids(&[7, 99_999]));
        // Symmetric argument order.
        gallop_into(&long, &short, &mut out);
        assert_eq!(out, ids(&[7, 99_999]));
    }

    #[test]
    fn dispatcher_counts_choices() {
        let _guard = KERNEL_LOCK.lock().unwrap();
        set_kernel(Kernel::Adaptive);
        let mut stats = SetOpStats::default();
        let balanced_a = ids(&[1, 2, 3, 4]);
        let balanced_b = ids(&[2, 3, 4, 5]);
        let mut out = Vec::new();
        intersect_into(&balanced_a, &balanced_b, &mut out, &mut stats);
        assert_eq!(stats.merge_calls, 1);
        let long: Vec<NodeId> = (0..10_000u32).map(NodeId).collect();
        intersect_into(&balanced_a, &long, &mut out, &mut stats);
        assert_eq!(stats.gallop_calls, 1);
        // Second call reused `out`'s allocation.
        assert!(stats.saved_allocs >= 1);
        assert_eq!(stats.total_calls(), 2);
        // The crossover sits exactly at GALLOP_RATIO x the short side.
        let below: Vec<NodeId> = (0..4 * GALLOP_RATIO as u32 - 1).map(NodeId).collect();
        intersect_into(&balanced_a, &below, &mut out, &mut stats);
        assert_eq!((stats.merge_calls, stats.gallop_calls), (2, 1));
        intersect_into(&balanced_a, &long[..4 * GALLOP_RATIO], &mut out, &mut stats);
        assert_eq!((stats.merge_calls, stats.gallop_calls), (2, 2));
    }

    #[test]
    fn forced_kernels_are_identical() {
        let _guard = KERNEL_LOCK.lock().unwrap();
        let a: Vec<NodeId> = (0..2_000u32).step_by(3).map(NodeId).collect();
        let b: Vec<NodeId> = (0..2_000u32).step_by(7).map(NodeId).collect();
        let mut expect = Vec::new();
        merge_into(&a, &b, &mut expect);
        for k in [
            Kernel::Merge,
            Kernel::Gallop,
            Kernel::Bitset,
            Kernel::Adaptive,
        ] {
            set_kernel(k);
            let mut stats = SetOpStats::default();
            let mut out = Vec::new();
            intersect_into(&a, &b, &mut out, &mut stats);
            assert_eq!(out, expect, "kernel={k:?}");
            assert_eq!(intersect_count(&a, &b, &mut stats), expect.len());
            assert_eq!(stats.total_calls(), 2);
        }
        set_kernel(Kernel::Adaptive);
    }

    #[test]
    fn bitset_membership_and_retain() {
        let mut bits = NodeBitset::new(130);
        assert!(bits.is_empty());
        for i in [0u32, 63, 64, 129] {
            bits.insert(NodeId(i));
        }
        assert_eq!(bits.len(), 4);
        assert!(bits.contains(NodeId(63)));
        assert!(!bits.contains(NodeId(62)));
        assert!(!bits.contains(NodeId(10_000))); // beyond universe: absent
        bits.remove(NodeId(63));
        assert!(!bits.contains(NodeId(63)));
        let mut v = ids(&[0, 1, 64, 129]);
        assert_eq!(bits.retain_sorted(&mut v), 1);
        assert_eq!(v, ids(&[0, 64, 129]));
        bits.clear();
        assert!(bits.is_empty());
    }

    #[test]
    fn kernel_parse_roundtrip() {
        for k in [
            Kernel::Merge,
            Kernel::Gallop,
            Kernel::Bitset,
            Kernel::Adaptive,
        ] {
            assert_eq!(Kernel::parse(k.name()), Some(k));
        }
        assert_eq!(Kernel::parse("AUTO"), Some(Kernel::Adaptive));
        assert_eq!(Kernel::parse("nonsense"), None);
    }

    #[test]
    fn global_counters_accumulate() {
        let before = global_snapshot();
        record_global(&SetOpStats {
            merge_calls: 2,
            gallop_calls: 3,
            bitset_calls: 4,
            saved_allocs: 5,
        });
        let after = global_snapshot();
        assert!(after.merge_calls >= before.merge_calls + 2);
        assert!(after.gallop_calls >= before.gallop_calls + 3);
        assert!(after.bitset_calls >= before.bitset_calls + 4);
        assert!(after.saved_allocs >= before.saved_allocs + 5);
    }

    #[test]
    fn adaptive_bitset_policy() {
        let _guard = KERNEL_LOCK.lock().unwrap();
        set_kernel(Kernel::Adaptive);
        assert!(bitset_pays_off(BITSET_MIN_REUSE, BITSET_MIN_SET));
        assert!(!bitset_pays_off(1, BITSET_MIN_SET));
        assert!(!bitset_pays_off(BITSET_MIN_REUSE, 10));
        set_kernel(Kernel::Bitset);
        assert!(bitset_pays_off(1, 1));
        set_kernel(Kernel::Merge);
        assert!(!bitset_pays_off(usize::MAX, usize::MAX));
        set_kernel(Kernel::Adaptive);
    }
}
