//! Array-based bucket priority queue (Section IV-B3).
//!
//! PT-OPT's best-first traversal needs pop-min and decrease-key, but the
//! score range is tiny and pre-determined: `score(n) = Σ_m PMD_m[n] ≤
//! (k+1)·|V_M|`. The paper exploits this with an array of buckets indexed
//! by score, giving O(1) insertion and deletion instead of a heap's
//! O(log |Q|). Decrease-key is handled lazily: nodes are re-inserted at
//! their new score and stale entries are skipped at pop time via the
//! caller-maintained current-score check.

/// A monotone-ish bucket queue over `u32` items with bounded scores.
#[derive(Clone, Debug)]
pub struct BucketQueue {
    /// May be longer than `limit`: buckets survive [`BucketQueue::reset`]
    /// so a queue reused across clusters stops allocating.
    buckets: Vec<Vec<u32>>,
    /// Scores `0..limit` are accepted.
    limit: usize,
    /// Lowest bucket that may be non-empty.
    cursor: usize,
    len: usize,
}

impl BucketQueue {
    /// A queue accepting scores `0..=max_score`.
    pub fn new(max_score: usize) -> Self {
        BucketQueue {
            buckets: vec![Vec::new(); max_score + 1],
            limit: max_score + 1,
            cursor: max_score + 1,
            len: 0,
        }
    }

    /// Empty the queue and make it accept scores `0..=max_score`,
    /// keeping every bucket's capacity.
    pub fn reset(&mut self, max_score: usize) {
        // A drained queue (the normal case between clusters) has only
        // empty buckets; there is nothing to walk.
        if self.len != 0 {
            self.clear();
        }
        if self.buckets.len() <= max_score {
            self.buckets.resize_with(max_score + 1, Vec::new);
        }
        self.limit = max_score + 1;
        self.cursor = self.limit;
    }

    /// Insert `item` with `score`. A decrease-key is just a second push at
    /// the lower score; the caller skips the stale higher-score entry when
    /// it surfaces.
    #[inline]
    pub fn push(&mut self, score: usize, item: u32) {
        debug_assert!(score < self.limit, "score {score} out of range");
        self.buckets[score].push(item);
        self.len += 1;
        if score < self.cursor {
            self.cursor = score;
        }
    }

    /// Remove and return a minimum-score entry as `(score, item)`.
    #[inline]
    pub fn pop_min(&mut self) -> Option<(usize, u32)> {
        while self.cursor < self.limit {
            if let Some(item) = self.buckets[self.cursor].pop() {
                self.len -= 1;
                return Some((self.cursor, item));
            }
            self.cursor += 1;
        }
        None
    }

    /// Number of stored entries (including stale ones).
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries remain.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove all entries, keeping capacity.
    pub fn clear(&mut self) {
        for b in &mut self.buckets[..self.limit] {
            b.clear();
        }
        self.cursor = self.limit;
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_score_order() {
        let mut q = BucketQueue::new(10);
        q.push(5, 50);
        q.push(2, 20);
        q.push(8, 80);
        q.push(2, 21);
        let mut out = Vec::new();
        while let Some((s, i)) = q.pop_min() {
            out.push((s, i));
        }
        let scores: Vec<usize> = out.iter().map(|&(s, _)| s).collect();
        assert_eq!(scores, vec![2, 2, 5, 8]);
        assert!(q.is_empty());
    }

    #[test]
    fn decrease_key_via_reinsert() {
        let mut q = BucketQueue::new(10);
        q.push(9, 1);
        // "decrease" 1 to score 3
        q.push(3, 1);
        let (s, i) = q.pop_min().unwrap();
        assert_eq!((s, i), (3, 1));
        // The stale entry surfaces later; callers skip it by checking
        // their current-score table.
        let (s2, i2) = q.pop_min().unwrap();
        assert_eq!((s2, i2), (9, 1));
    }

    #[test]
    fn cursor_backtracks_on_lower_push() {
        let mut q = BucketQueue::new(10);
        q.push(5, 5);
        assert_eq!(q.pop_min(), Some((5, 5)));
        // Cursor is now past 5; a push at 1 must rewind it.
        q.push(1, 1);
        assert_eq!(q.pop_min(), Some((1, 1)));
    }

    #[test]
    fn zero_and_max_scores() {
        let mut q = BucketQueue::new(4);
        q.push(0, 10);
        q.push(4, 11);
        assert_eq!(q.pop_min(), Some((0, 10)));
        assert_eq!(q.pop_min(), Some((4, 11)));
        assert_eq!(q.pop_min(), None);
    }

    #[test]
    fn clear_resets() {
        let mut q = BucketQueue::new(4);
        q.push(2, 1);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop_min(), None);
        q.push(3, 9);
        assert_eq!(q.pop_min(), Some((3, 9)));
    }

    #[test]
    fn len_counts_entries() {
        let mut q = BucketQueue::new(4);
        assert_eq!(q.len(), 0);
        q.push(1, 1);
        q.push(1, 2);
        assert_eq!(q.len(), 2);
        q.pop_min();
        assert_eq!(q.len(), 1);
    }

    #[test]
    fn reset_resizes_and_keeps_order() {
        let mut q = BucketQueue::new(2);
        q.push(1, 7);
        q.reset(9); // abandoned entry dropped, range grown
        assert!(q.is_empty());
        q.push(9, 1);
        q.push(4, 2);
        assert_eq!(q.pop_min(), Some((4, 2)));
        assert_eq!(q.pop_min(), Some((9, 1)));
        q.reset(3); // range shrunk: old high buckets are out of reach
        q.push(3, 5);
        assert_eq!(q.pop_min(), Some((3, 5)));
        assert_eq!(q.pop_min(), None);
    }
}
