//! Pattern analyses used by the census algorithms.
//!
//! * All-pairs distances `d(v, v')` over positive edges (treated as
//!   undirected), used by the distance shortcuts of both ND-PVOT
//!   (Section IV-A1) and PT-OPT (Section IV-B2).
//! * Eccentricity `max_v` and pivot selection
//!   `v = argmin_x d(x, argmax_y d(x, y))` (the pattern's center).
//! * The `distant[i]` sets of Algorithm 2: pattern nodes at distance ≥ i
//!   from the pivot, whose images require explicit containment checks.

use crate::model::{PNode, Pattern};

/// Distance marker for disconnected pattern node pairs.
pub const UNREACHABLE: u32 = u32::MAX;

/// Precomputed structural facts about a pattern.
#[derive(Clone, Debug)]
pub struct PatternAnalysis {
    n: usize,
    /// Row-major `n × n` distance matrix over positive edges.
    dist: Vec<u32>,
    /// The chosen pivot (pattern center).
    pivot: PNode,
    /// Eccentricity of the pivot: distance to the farthest pattern node.
    max_v: u32,
}

impl PatternAnalysis {
    /// Analyze `p`. For subpattern queries, pass
    /// [`PatternAnalysis::with_pivot_candidates`] instead so the pivot is
    /// drawn from the subpattern's nodes (Appendix B).
    pub fn new(p: &Pattern) -> Self {
        Self::with_pivot_candidates(p, None)
    }

    /// Analyze `p`, restricting pivot selection to `pivot_candidates`
    /// when provided (used for COUNTSP: "the pivot is selected from the
    /// set of subpattern nodes").
    pub fn with_pivot_candidates(p: &Pattern, pivot_candidates: Option<&[PNode]>) -> Self {
        let n = p.num_nodes();
        let mut dist = vec![UNREACHABLE; n * n];
        // BFS from every node; patterns are tiny so O(n * (n + e)) is free.
        let mut queue = Vec::with_capacity(n);
        for s in p.nodes() {
            let row = s.index() * n;
            dist[row + s.index()] = 0;
            queue.clear();
            queue.push(s);
            let mut head = 0;
            while head < queue.len() {
                let v = queue[head];
                head += 1;
                let d = dist[row + v.index()];
                for w in p.neighbors(v) {
                    if dist[row + w.index()] == UNREACHABLE {
                        dist[row + w.index()] = d + 1;
                        queue.push(w);
                    }
                }
            }
        }
        let ecc = |x: PNode| -> u32 { (0..n).map(|j| dist[x.index() * n + j]).max().unwrap_or(0) };
        let candidates: Vec<PNode> = match pivot_candidates {
            Some(c) if !c.is_empty() => c.to_vec(),
            _ => p.nodes().collect(),
        };
        let pivot = candidates
            .iter()
            .copied()
            .min_by_key(|&x| (ecc(x), x))
            .expect("pattern has at least one node");
        let max_v = ecc(pivot);
        PatternAnalysis {
            n,
            dist,
            pivot,
            max_v,
        }
    }

    /// Distance between two pattern nodes ([`UNREACHABLE`] if disconnected).
    #[inline]
    pub fn distance(&self, a: PNode, b: PNode) -> u32 {
        self.dist[a.index() * self.n + b.index()]
    }

    /// The selected pivot node.
    #[inline]
    pub fn pivot(&self) -> PNode {
        self.pivot
    }

    /// The pivot's eccentricity (`max_v` in the paper).
    #[inline]
    pub fn max_v(&self) -> u32 {
        self.max_v
    }

    /// The pattern's diameter over positive edges: the largest distance
    /// between two pattern nodes, i.e. the largest eccentricity
    /// ([`UNREACHABLE`] if the pattern is disconnected). Every image of a
    /// match lies within this many hops of every other — the locality
    /// radius of anything a match can touch.
    pub fn diameter(&self) -> u32 {
        self.dist.iter().copied().max().unwrap_or(0)
    }

    /// Pattern nodes at distance ≥ `i` from the pivot — Algorithm 2's
    /// `distant[i]`. When a match is found through a database node `n'` at
    /// distance `d(n, n')` from the ego, only the images of
    /// `distant[k - d(n,n') + 1]` can fall outside `S(n, k)` and need an
    /// explicit check.
    pub fn distant_from_pivot(&self, i: u32) -> Vec<PNode> {
        (0..self.n)
            .map(PNode::from_index)
            .filter(|&v| {
                let d = self.distance(self.pivot, v);
                d == UNREACHABLE || d >= i
            })
            .collect()
    }

    /// Eccentricity of an arbitrary node.
    pub fn eccentricity(&self, v: PNode) -> u32 {
        (0..self.n)
            .map(|j| self.dist[v.index() * self.n + j])
            .max()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Pattern;

    /// Path A-B-C-D.
    fn path4() -> Pattern {
        Pattern::parse("PATTERN p { ?A-?B; ?B-?C; ?C-?D; }").unwrap()
    }

    #[test]
    fn distances() {
        let p = path4();
        let a = PatternAnalysis::new(&p);
        let n = |s: &str| p.node_by_name(s).unwrap();
        assert_eq!(a.distance(n("A"), n("A")), 0);
        assert_eq!(a.distance(n("A"), n("B")), 1);
        assert_eq!(a.distance(n("A"), n("D")), 3);
        assert_eq!(a.distance(n("D"), n("A")), 3);
    }

    #[test]
    fn diameter_is_the_largest_eccentricity() {
        let star = Pattern::parse("PATTERN s { ?A-?B; ?A-?C; ?A-?D; }").unwrap();
        let tri = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let one = Pattern::parse("PATTERN one { ?A; }").unwrap();
        let split = Pattern::parse("PATTERN p { ?A-?B; ?C; }").unwrap();
        assert_eq!(PatternAnalysis::new(&path4()).diameter(), 3);
        assert_eq!(PatternAnalysis::new(&star).diameter(), 2);
        assert_eq!(PatternAnalysis::new(&tri).diameter(), 1);
        assert_eq!(PatternAnalysis::new(&one).diameter(), 0);
        assert_eq!(PatternAnalysis::new(&split).diameter(), UNREACHABLE);
    }

    #[test]
    fn pivot_is_center() {
        let p = path4();
        let a = PatternAnalysis::new(&p);
        // Centers of a path of 4 are B and C (ecc 2); tie broken to lower id (B).
        assert_eq!(a.pivot(), p.node_by_name("B").unwrap());
        assert_eq!(a.max_v(), 2);
    }

    #[test]
    fn triangle_pivot_ecc_one() {
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let a = PatternAnalysis::new(&p);
        assert_eq!(a.max_v(), 1);
        assert_eq!(a.eccentricity(p.node_by_name("C").unwrap()), 1);
    }

    #[test]
    fn single_node_pattern() {
        let p = Pattern::parse("PATTERN one { ?A; }").unwrap();
        let a = PatternAnalysis::new(&p);
        assert_eq!(a.pivot(), p.node_by_name("A").unwrap());
        assert_eq!(a.max_v(), 0);
        assert_eq!(a.distant_from_pivot(1), vec![]);
    }

    #[test]
    fn distant_sets() {
        let p = path4();
        let a = PatternAnalysis::new(&p);
        // Pivot is B; distances: A=1, B=0, C=1, D=2.
        let names = |nodes: Vec<PNode>| -> Vec<String> {
            nodes.iter().map(|&v| p.var_name(v).to_string()).collect()
        };
        assert_eq!(names(a.distant_from_pivot(0)), vec!["A", "B", "C", "D"]);
        assert_eq!(names(a.distant_from_pivot(1)), vec!["A", "C", "D"]);
        assert_eq!(names(a.distant_from_pivot(2)), vec!["D"]);
        assert_eq!(names(a.distant_from_pivot(3)), Vec::<String>::new());
    }

    #[test]
    fn pivot_candidates_restrict_choice() {
        let p = path4();
        let d = p.node_by_name("D").unwrap();
        let a = PatternAnalysis::with_pivot_candidates(&p, Some(&[d]));
        assert_eq!(a.pivot(), d);
        assert_eq!(a.max_v(), 3);
    }

    #[test]
    fn disconnected_pattern_distances() {
        let p = Pattern::parse("PATTERN p { ?A-?B; ?C; }").unwrap();
        let a = PatternAnalysis::new(&p);
        let c = p.node_by_name("C").unwrap();
        let b = p.node_by_name("B").unwrap();
        assert_eq!(a.distance(b, c), UNREACHABLE);
        // Disconnected nodes are always "distant".
        assert!(a.distant_from_pivot(10).contains(&c) || a.pivot() == c);
    }
}
