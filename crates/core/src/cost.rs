//! The one algorithm decision: what `Algorithm::Auto` resolves to.
//!
//! Section V reduces the node-driven / pattern-driven duality to one
//! rule: go pattern-driven when the match list is small next to the focal
//! set (Fig 4(c)–(e)). [`estimate_cost`] prices every algorithm in those
//! terms, [`refusal`] turns away the ones whose kernel would reject the
//! census, and [`rank_algorithms`] orders what is left. The planner's
//! algorithm-selection pass ranks a statement with estimated (or cached)
//! match counts; the core's own `Auto` ([`choose`]) ranks a spec with its
//! exact count through the same function, so a `SELECT` and a view
//! refresh over the same inputs pick the same algorithm.

use crate::{Algorithm, CensusError, CensusSpec, PairCensusSpec};
use ego_graph::Graph;

/// All six concrete algorithms, in consideration order: equal costs break
/// toward the earlier one, so picks are deterministic across hosts.
pub const CONSIDERED: [Algorithm; 6] = [
    Algorithm::NdPivot,
    Algorithm::NdDiff,
    Algorithm::NdBaseline,
    Algorithm::PtOpt,
    Algorithm::PtRandom,
    Algorithm::PtBaseline,
];

/// The two graph numbers the cost model reads.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct GraphShape {
    /// Node count `n`.
    pub num_nodes: usize,
    /// Mean degree `d̄` of the undirected view.
    pub avg_degree: f64,
}

impl GraphShape {
    /// Measure a graph with one pass over its degrees. Equal to the
    /// `(n, d̄)` of any planner profile of the same graph.
    pub fn of(g: &Graph) -> GraphShape {
        let n = g.num_nodes();
        let total: usize = g.node_ids().map(|v| g.degree(v)).sum();
        GraphShape {
            num_nodes: n,
            avg_degree: if n == 0 { 0.0 } else { total as f64 / n as f64 },
        }
    }

    /// Expected size of a radius-`k` neighborhood ball, capped at `n`.
    pub fn ball(&self, k: u32) -> f64 {
        let n = (self.num_nodes as f64).max(1.0);
        let d = self.avg_degree.max(1.0);
        let mut ball = 1.0f64;
        let mut frontier = 1.0f64;
        for _ in 0..k {
            frontier *= d;
            ball += frontier;
            if ball >= n {
                return n;
            }
        }
        ball.min(n)
    }
}

/// One census aggregate as the cost model sees it.
#[derive(Clone, Debug)]
pub struct CostJob<'s, 'a> {
    /// The census: its pattern size and radius are priced, and the
    /// refusal rule reads the whole spec.
    pub spec: &'s CensusSpec<'a>,
    /// Global match-list length: exact when the caller holds the list,
    /// estimated otherwise.
    pub matches: f64,
}

/// A census: what a [`crate::Job`] runs, and what the refusal rule is
/// asked about.
#[derive(Clone, Copy, Debug)]
pub enum Census<'s, 'a> {
    /// A single-node census.
    Single(&'s CensusSpec<'a>),
    /// Single-node censuses evaluated together (see [`crate::batch`]).
    Batch(&'s [CensusSpec<'a>]),
    /// A pairwise census.
    Pair(&'s PairCensusSpec<'a>),
}

/// The refusal rule: `Err` — the kernel's own error — when `algorithm`
/// cannot serve `census` on `g` (a batch: any of its specs). Built from the kernels' checks, which
/// stay in the kernels. PMD's radius bound covers the whole PT family,
/// single-node and pairwise, because the batch runs PT-BAS and PT-RND
/// through PT-OPT's group kernel and pairwise PT runs on that kernel too.
pub fn refusal(g: &Graph, census: Census<'_, '_>, algorithm: Algorithm) -> Result<(), CensusError> {
    use crate::pt_opt::pmd_radius;
    use Algorithm::{NdBaseline, NdDiff, PtBaseline, PtOpt, PtRandom};
    match (census, algorithm) {
        (Census::Batch(specs), _) => specs
            .iter()
            .try_for_each(|spec| refusal(g, Census::Single(spec), algorithm)),
        (Census::Single(spec), NdBaseline) => crate::nd_bas::check(spec),
        (Census::Single(spec), NdDiff) => crate::nd_diff::check(spec),
        (Census::Single(spec), PtBaseline | PtRandom | PtOpt) => pmd_radius(g, spec.k()).map(drop),
        (Census::Pair(spec), NdBaseline) => crate::pairwise::check_nd_bas(spec),
        (Census::Pair(spec), PtBaseline | PtRandom | PtOpt) => pmd_radius(g, spec.k()).map(drop),
        _ => Ok(()),
    }
}

/// Estimated cost (abstract work units) of serving `jobs` over `focal`
/// focal nodes with one algorithm, with the ball size as the per-unit
/// traversal cost. The ND-PVOT / PT-OPT crossover is `m·v` vs `f`:
/// pattern-driven wins when the match list is smaller than the focal
/// set — the paper's "selective patterns" guidance. How far the resulting
/// pick is from the best forced algorithm is `census_bench`'s
/// `planner.regret_ratio` / `planner.regret_whole_ratio`.
///
/// * ND sweeps every focal ball (`focal·ball(k)`), plus the one-off
///   global match-list computation (`m·v`) shared by PVOT/DIFF.
/// * PT relaxes each match image into the ball around it
///   (`m·v · ball(k)`), plus the same match-list term.
/// * The baselines pay their asymptotic penalties: ND-BAS re-matches
///   inside every ball instead of pivoting one global match list, so its
///   match term carries the per-ball inflation (`·(0.5+v)`); PT-BAS
///   scans every match against every focal ball.
/// * DIFF and RND carry small constant overheads versus PVOT/OPT so the
///   model breaks ties toward the paper's preferred variants.
pub fn estimate_cost(
    shape: &GraphShape,
    jobs: &[CostJob<'_, '_>],
    focal: usize,
    algorithm: Algorithm,
) -> f64 {
    let f = focal as f64;
    jobs.iter()
        .map(|job| {
            let unit = shape.ball(job.spec.k());
            let m = job.matches;
            let v = job.spec.pattern().num_nodes().max(1) as f64;
            let match_list = m * v;
            match algorithm {
                Algorithm::NdPivot => f * unit + match_list,
                Algorithm::NdDiff => 1.15 * (f * unit + match_list),
                Algorithm::NdBaseline => f * unit + match_list * (0.5 + v),
                Algorithm::PtOpt => match_list * unit + match_list,
                Algorithm::PtRandom => 1.05 * (match_list * unit + match_list),
                Algorithm::PtBaseline => f * m.max(1.0) + match_list,
                // Auto is a directive, not an algorithm; it never appears
                // in the considered set.
                Algorithm::Auto => f64::INFINITY,
            }
        })
        .sum()
}

/// Rank every algorithm the refusal rule admits for all `jobs`, cheapest
/// first. Never empty: ND-PVOT refuses nothing.
pub fn rank_algorithms(
    g: &Graph,
    shape: &GraphShape,
    jobs: &[CostJob<'_, '_>],
    focal: usize,
) -> Vec<(Algorithm, f64)> {
    let mut ranked: Vec<(Algorithm, f64)> = CONSIDERED
        .iter()
        .filter(|&&a| {
            jobs.iter()
                .all(|j| refusal(g, Census::Single(j.spec), a).is_ok())
        })
        .map(|&a| (a, estimate_cost(shape, jobs, focal, a)))
        .collect();
    // Stable sort keeps CONSIDERED order on ties.
    ranked.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
    ranked
}

/// The core's `Auto` for one spec: the cheapest admitted algorithm,
/// priced with the spec's exact match count over `shape` — the planner's
/// pick for the same statement when it knows the same count.
pub fn choose(g: &Graph, shape: &GraphShape, spec: &CensusSpec<'_>, matches: usize) -> Algorithm {
    let job = CostJob {
        spec,
        matches: matches as f64,
    };
    rank_algorithms(g, shape, &[job], spec.focal().count(g))[0].0
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FocalNodes;
    use crate::{exec_matches, run, Job, PairSelector};
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    fn clique(n: u32) -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n as usize, Label(0));
        for x in 0..n {
            for y in (x + 1)..n {
                b.add_edge(NodeId(x), NodeId(y));
            }
        }
        b.build()
    }

    /// A path of `n` nodes, plus the chord (0, 2) closing one triangle.
    fn path_with_triangle(n: u32) -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(n as usize, Label(0));
        for x in 0..n - 1 {
            b.add_edge(NodeId(x), NodeId(x + 1));
        }
        b.add_edge(NodeId(0), NodeId(2));
        b.build()
    }

    fn tri() -> Pattern {
        Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap()
    }

    fn pick(g: &Graph, spec: &CensusSpec<'_>, matches: f64, focal: usize) -> Algorithm {
        let job = CostJob { spec, matches };
        rank_algorithms(g, &GraphShape::of(g), &[job], focal)[0].0
    }

    #[test]
    fn shape_matches_the_degree_sum_and_ball_saturates_at_n() {
        let s = GraphShape::of(&clique(8));
        assert_eq!(s.num_nodes, 8);
        assert_eq!(s.avg_degree, 7.0);
        assert!((s.ball(0) - 1.0).abs() < 1e-9);
        assert_eq!(s.ball(1), 8.0);
        assert_eq!(s.ball(4), 8.0);
        let p = GraphShape::of(&path_with_triangle(100));
        assert!(p.ball(1) < 4.0, "{}", p.ball(1));
    }

    #[test]
    fn crossover_favors_pt_on_selective_patterns() {
        let g = path_with_triangle(50);
        let p = tri();
        let spec = CensusSpec::single(&p, 2);
        // Few matches relative to the focal set → the PT side wins (the
        // paper's selective-pattern guidance: m·v < focal).
        assert_eq!(pick(&g, &spec, 2.0, 40), Algorithm::PtOpt);
        // A huge match list over three focal nodes → the ND side wins.
        assert_eq!(pick(&g, &spec, 10_000.0, 3), Algorithm::NdPivot);
    }

    #[test]
    fn ranking_skips_what_the_kernels_refuse() {
        let g = clique(6);
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; SUBPATTERN s {?A;} }").unwrap();
        let countsp = CensusSpec::single(&p, 1).with_subpattern("s");
        let job = CostJob {
            spec: &countsp,
            matches: 5.0,
        };
        let algos: Vec<Algorithm> = rank_algorithms(&g, &GraphShape::of(&g), &[job], 6)
            .into_iter()
            .map(|(a, _)| a)
            .collect();
        assert!(!algos.contains(&Algorithm::NdBaseline));
        assert!(!algos.contains(&Algorithm::NdDiff));
        assert!(algos.contains(&Algorithm::NdPivot));
        assert_eq!(algos.len(), 4);
        // A radius PMD rows cannot hold turns the whole PT family away, and
        // the refusal is the kernel's own error.
        let g = path_with_triangle(70_000);
        let far = CensusSpec::single(&p, 70_000);
        for a in [Algorithm::PtBaseline, Algorithm::PtRandom, Algorithm::PtOpt] {
            let err = refusal(&g, Census::Single(&far), a).unwrap_err();
            assert!(err.to_string().contains("use ND-PVOT"), "{err}");
        }
        let job = CostJob {
            spec: &far,
            matches: 1.0,
        };
        let ranked = rank_algorithms(&g, &GraphShape::of(&g), &[job], 4);
        assert_eq!(ranked[0].0, Algorithm::NdPivot, "{ranked:?}");
        assert!(ranked.iter().all(|(a, _)| !matches!(
            a,
            Algorithm::PtBaseline | Algorithm::PtRandom | Algorithm::PtOpt
        )));
        // Pairwise PT has no anchor cap, and PMD's radius bound is its
        // only refusal: `Auto` then answers with ND-PVOT.
        let edges: String = (0..32).map(|i| format!("?V{i}-?V{}; ", i + 1)).collect();
        let p33 = Pattern::parse(&format!("PATTERN p33 {{ {edges}}}")).unwrap();
        let pair = PairCensusSpec::intersection(&p33, 40, PairSelector::AllPairs);
        assert!(refusal(&g, Census::Pair(&pair), Algorithm::PtOpt).is_ok());
        assert!(refusal(&g, Census::Pair(&pair), Algorithm::NdPivot).is_ok());
        let far = PairCensusSpec::intersection(
            &p,
            70_000,
            PairSelector::Pairs(vec![(NodeId(0), NodeId(1))]),
        );
        for a in [Algorithm::PtBaseline, Algorithm::PtRandom, Algorithm::PtOpt] {
            let err = refusal(&g, Census::Pair(&far), a).unwrap_err();
            assert!(err.to_string().contains("use ND-PVOT"), "{err}");
        }
        let pairs = |a| run(&g, &Job::new(Census::Pair(&far), a)).unwrap().pairs;
        let (auto, nd) = (pairs(Algorithm::Auto), pairs(Algorithm::NdPivot));
        assert!(nd.get(NodeId(0), NodeId(1)) > 0);
        assert_eq!(
            auto.iter().collect::<Vec<_>>(),
            nd.iter().collect::<Vec<_>>()
        );
        // Pairwise ND-BAS counts whole matches only.
        let countsp = PairCensusSpec::union(&p, 1, PairSelector::AllPairs).with_subpattern("s");
        let err = refusal(&g, Census::Pair(&countsp), Algorithm::NdBaseline).unwrap_err();
        assert!(err.to_string().contains("pairwise ND-BAS"), "{err}");
        assert!(refusal(&g, Census::Pair(&countsp), Algorithm::NdPivot).is_ok());
    }

    #[test]
    fn core_auto_prices_the_spec_it_is_given() {
        let g = path_with_triangle(30);
        let p = tri();
        let m = exec_matches(&g, &p, 1);
        assert_eq!(m.len(), 1);
        let shape = GraphShape::of(&g);
        // One match next to 30 focal nodes: pattern-driven.
        let spec = CensusSpec::single(&p, 2);
        assert_eq!(choose(&g, &shape, &spec, m.len()), Algorithm::PtOpt);
        // 30 edge matches next to 2 focal nodes: node-driven.
        let e = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let m = exec_matches(&g, &e, 1);
        let spec =
            CensusSpec::single(&e, 2).with_focal(FocalNodes::Set(vec![NodeId(0), NodeId(1)]));
        assert_eq!(choose(&g, &shape, &spec, m.len()), Algorithm::NdPivot);
        // Whatever it picks, the counts are the oracle's.
        for pattern in [&p, &e] {
            let spec = CensusSpec::single(pattern, 1);
            let counts = |a| run(&g, &Job::new(Census::Single(&spec), a)).unwrap().counts;
            let (auto, oracle) = (counts(Algorithm::Auto), counts(Algorithm::NdBaseline));
            assert_eq!(auto, oracle);
        }
    }

    /// Every distinct core-`Auto` decision `census_bench` makes on
    /// `update-stream` and `read-after-write` (seed 4242, set-up and timed
    /// ops): `clq3_unlb` at k = 1 on the n = 10 000 benchmark graph, as
    /// (undirected degree sum, focal count, match counts, pick). The
    /// whole-graph subscription goes pattern-driven, every view refresh
    /// and subscription diff node-driven — the picks the runtime rule
    /// (`m·v < 4·f`) made before this function priced the core's `Auto`.
    #[test]
    fn benchmark_core_auto_traffic_keeps_its_picks() {
        const ND: Algorithm = Algorithm::NdPivot;
        let rows: &[(usize, usize, &[usize], Algorithm)] = &[
            (99_950, 10_000, &[2106], Algorithm::PtOpt),
            (99_966, 21, &[2112], ND),
            (99_966, 22, &[2110, 2111, 2112], ND),
            (99_966, 23, &[2108, 2109, 2110, 2111, 2112], ND),
            (99_966, 24, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 25, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 26, &[2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 27, &[2107, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 28, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 29, &[2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 30, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 31, &[2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 32, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 33, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 34, &[2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 35, &[2108, 2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 36, &[2108, 2109, 2110, 2111, 2112], ND),
            (99_966, 37, &[2109, 2110, 2111, 2112], ND),
            (99_966, 38, &[2109, 2110, 2111, 2112], ND),
            (99_966, 39, &[2109, 2110, 2111, 2112], ND),
            (99_966, 40, &[2109, 2110, 2111, 2112], ND),
            (99_966, 41, &[2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 42, &[2109, 2110, 2111, 2112], ND),
            (99_966, 43, &[2109, 2110, 2111, 2112], ND),
            (99_966, 44, &[2109, 2110, 2111, 2112], ND),
            (99_966, 45, &[2109, 2110, 2111, 2112, 2113], ND),
            (99_966, 46, &[2109, 2110, 2111, 2112], ND),
            (99_966, 47, &[2109, 2110, 2111, 2112], ND),
            (99_966, 48, &[2109, 2110, 2111, 2112], ND),
            (99_966, 49, &[2109, 2110, 2111, 2112], ND),
            (99_966, 50, &[2110, 2111, 2112], ND),
            (99_966, 51, &[2109, 2110, 2111, 2112], ND),
            (99_966, 52, &[2109, 2110, 2111, 2112], ND),
            (99_966, 53, &[2111], ND),
            (99_966, 54, &[2110, 2111], ND),
            (99_966, 55, &[2110, 2111], ND),
            (99_966, 56, &[2111, 2112], ND),
            (99_966, 57, &[2109, 2112], ND),
            (99_966, 58, &[2110, 2111, 2112], ND),
            (99_966, 59, &[2112], ND),
            (99_966, 60, &[2110], ND),
            (99_966, 61, &[2111, 2112], ND),
            (99_966, 63, &[2111], ND),
            (99_966, 64, &[2110, 2112], ND),
            (99_966, 65, &[2109, 2111], ND),
            (99_966, 67, &[2110, 2111], ND),
            (99_966, 68, &[2111, 2112], ND),
            (99_966, 149, &[2112], ND),
            (99_966, 181, &[2112], ND),
        ];
        let g = path_with_triangle(8);
        let p = tri();
        let spec = CensusSpec::single(&p, 1);
        for &(degree_sum, focal, matches, want) in rows {
            let shape = GraphShape {
                num_nodes: 10_000,
                avg_degree: degree_sum as f64 / 10_000.0,
            };
            for &m in matches {
                let job = CostJob {
                    spec: &spec,
                    matches: m as f64,
                };
                let got = rank_algorithms(&g, &shape, &[job], focal)[0].0;
                assert_eq!(got, want, "f={focal} m={m}");
            }
        }
    }
}
