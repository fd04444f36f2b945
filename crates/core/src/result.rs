//! Census results and errors.

use ego_graph::NodeId;
use std::fmt;

/// Per-node census counts. Nodes outside the focal set have count 0 and
/// `is_focal` false.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CountVector {
    counts: Vec<u64>,
    focal: Vec<bool>,
}

impl CountVector {
    /// Zeroed counts for `num_nodes` nodes, with focality flags.
    pub fn new(num_nodes: usize, focal: Vec<bool>) -> Self {
        debug_assert_eq!(focal.len(), num_nodes);
        CountVector {
            counts: vec![0; num_nodes],
            focal,
        }
    }

    /// The count for `n` (0 for non-focal nodes).
    #[inline]
    pub fn get(&self, n: NodeId) -> u64 {
        self.counts[n.index()]
    }

    /// Was `n` part of the query's focal set?
    #[inline]
    pub fn is_focal(&self, n: NodeId) -> bool {
        self.focal[n.index()]
    }

    /// Increment the count of `n` by 1.
    #[inline]
    pub fn increment(&mut self, n: NodeId) {
        self.counts[n.index()] += 1;
    }

    /// Add `delta` to the count of `n`.
    #[inline]
    pub fn add(&mut self, n: NodeId, delta: u64) {
        self.counts[n.index()] += delta;
    }

    /// Overwrite the count of `n`.
    #[inline]
    pub fn set(&mut self, n: NodeId, value: u64) {
        self.counts[n.index()] = value;
    }

    /// Add every count of `other` into `self` (element-wise), and make
    /// its focal nodes focal here too. The merge step of the parallel
    /// runners: shards with disjoint focal sets merge into their union,
    /// additive per-match/per-group partitions (one focal set) by
    /// addition.
    pub fn merge_add(&mut self, other: &CountVector) {
        debug_assert_eq!(self.counts.len(), other.counts.len());
        for (dst, &src) in self.counts.iter_mut().zip(&other.counts) {
            *dst += src;
        }
        for (dst, &src) in self.focal.iter_mut().zip(&other.focal) {
            *dst |= src;
        }
    }

    /// Iterate `(node, count)` over focal nodes only.
    pub fn iter_focal(&self) -> impl Iterator<Item = (NodeId, u64)> + '_ {
        self.counts
            .iter()
            .enumerate()
            .filter(|&(i, _)| self.focal[i])
            .map(|(i, &c)| (NodeId::from_index(i), c))
    }

    /// Sum of all focal counts.
    pub fn total(&self) -> u64 {
        self.iter_focal().map(|(_, c)| c).sum()
    }

    /// The `k` focal nodes with the highest counts (ties by lower id).
    pub fn top_k(&self, k: usize) -> Vec<(NodeId, u64)> {
        let mut v: Vec<(NodeId, u64)> = self.iter_focal().collect();
        v.sort_by_key(|&(n, c)| (std::cmp::Reverse(c), n));
        v.truncate(k);
        v
    }

    /// Number of nodes covered (focal or not).
    pub fn len(&self) -> usize {
        self.counts.len()
    }

    /// True for an empty graph.
    pub fn is_empty(&self) -> bool {
        self.counts.is_empty()
    }
}

/// Errors from census evaluation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CensusError {
    /// The spec names a subpattern the pattern does not define.
    UnknownSubpattern(String),
    /// The algorithm does not support this query shape (e.g. ND-BAS or
    /// ND-DIFF with subpatterns, where only the anchored portion of a
    /// match must lie inside the neighborhood).
    Unsupported(String),
    /// A focal node id is out of range for the graph.
    FocalOutOfRange(NodeId),
}

impl fmt::Display for CensusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CensusError::UnknownSubpattern(name) => {
                write!(f, "pattern does not define subpattern `{name}`")
            }
            CensusError::Unsupported(msg) => write!(f, "unsupported query: {msg}"),
            CensusError::FocalOutOfRange(n) => {
                write!(f, "focal node {n} is out of range for the graph")
            }
        }
    }
}

impl std::error::Error for CensusError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_ops() {
        let mut cv = CountVector::new(4, vec![true, false, true, true]);
        cv.increment(NodeId(0));
        cv.increment(NodeId(0));
        cv.add(NodeId(2), 5);
        cv.set(NodeId(3), 1);
        assert_eq!(cv.get(NodeId(0)), 2);
        assert_eq!(cv.get(NodeId(1)), 0);
        assert!(!cv.is_focal(NodeId(1)));
        assert_eq!(cv.total(), 8);
        assert_eq!(cv.len(), 4);
    }

    #[test]
    fn top_k_ordering() {
        let mut cv = CountVector::new(4, vec![true; 4]);
        cv.set(NodeId(0), 3);
        cv.set(NodeId(1), 7);
        cv.set(NodeId(2), 3);
        let top = cv.top_k(2);
        assert_eq!(top, vec![(NodeId(1), 7), (NodeId(0), 3)]);
        assert_eq!(cv.top_k(10).len(), 4);
    }

    #[test]
    fn iter_focal_skips_nonfocal() {
        let mut cv = CountVector::new(3, vec![false, true, false]);
        cv.set(NodeId(1), 2);
        cv.set(NodeId(0), 9); // non-focal noise
        let items: Vec<_> = cv.iter_focal().collect();
        assert_eq!(items, vec![(NodeId(1), 2)]);
    }

    #[test]
    fn error_display() {
        let e = CensusError::UnknownSubpattern("core".into());
        assert!(e.to_string().contains("core"));
        let e = CensusError::FocalOutOfRange(NodeId(9));
        assert!(e.to_string().contains('9'));
    }
}
