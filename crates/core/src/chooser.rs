//! Cost-based algorithm selection (`Algorithm::Auto`).
//!
//! Section V's findings: node-driven wins when the pattern is
//! unselective (many matches — Fig 4(c)); pattern-driven wins when the
//! pattern is selective (few matches — Fig 4(d)) and is insensitive to
//! focal selectivity (Fig 4(e)). Both families pay for the global match
//! enumeration anyway, so the chooser runs after it and compares the two
//! cardinalities that drive the asymptotics: |matches| · |V_P| (work per
//! pattern-driven traversal seed) versus |focal| (BFS count for
//! node-driven).

use crate::spec::CensusSpec;
use ego_graph::Graph;
use ego_matcher::MatchList;

/// Multiplier applied to the focal count: pattern-driven is chosen when
/// `|matches| * |V_P| < PT_FACTOR * |focal|`. The factor reflects that a
/// per-node bounded BFS (ND) is cheaper than a per-match multi-source
/// expansion (PT) of the same radius.
pub const PT_FACTOR: usize = 4;

/// Decide which algorithm `Auto` resolves to (exposed for tests/benches).
pub fn choose(g: &Graph, spec: &CensusSpec<'_>, matches: &MatchList) -> crate::Algorithm {
    let focal = spec.focal().count(g).max(1);
    let match_work = matches.len() * spec.pattern().num_nodes().max(1);
    if match_work < PT_FACTOR * focal {
        crate::Algorithm::PtOpt
    } else {
        crate::Algorithm::NdPivot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::FocalNodes;
    use crate::{global_matches, Algorithm};
    use ego_graph::{GraphBuilder, Label, NodeId};
    use ego_pattern::Pattern;

    fn fixture() -> Graph {
        let mut b = GraphBuilder::undirected();
        b.add_nodes(30, Label(0));
        for i in 0..29u32 {
            b.add_edge(NodeId(i), NodeId(i + 1));
        }
        // A single triangle at the start.
        b.add_edge(NodeId(0), NodeId(2));
        b.build()
    }

    #[test]
    fn selective_pattern_chooses_pattern_driven() {
        let g = fixture();
        let p = Pattern::parse("PATTERN t { ?A-?B; ?B-?C; ?A-?C; }").unwrap();
        let m = global_matches(&g, &p);
        assert_eq!(m.len(), 1);
        let spec = CensusSpec::single(&p, 2);
        assert_eq!(choose(&g, &spec, &m), Algorithm::PtOpt);
    }

    #[test]
    fn unselective_pattern_chooses_node_driven() {
        let g = fixture();
        let p = Pattern::parse("PATTERN e { ?A-?B; }").unwrap();
        let m = global_matches(&g, &p);
        // 30 edges of matches vs 2 focal nodes: node-driven.
        let spec =
            CensusSpec::single(&p, 2).with_focal(FocalNodes::Set(vec![NodeId(0), NodeId(1)]));
        assert_eq!(choose(&g, &spec, &m), Algorithm::NdPivot);
    }

    #[test]
    fn auto_produces_correct_counts_either_way() {
        let g = fixture();
        for pat_text in ["PATTERN t { ?A-?B; ?B-?C; ?A-?C; }", "PATTERN e { ?A-?B; }"] {
            let p = Pattern::parse(pat_text).unwrap();
            let spec = CensusSpec::single(&p, 1);
            let auto = crate::run_census(&g, &spec, Algorithm::Auto).unwrap();
            let oracle = crate::run_census(&g, &spec, Algorithm::NdBaseline).unwrap();
            for n in g.node_ids() {
                assert_eq!(auto.get(n), oracle.get(n), "{pat_text} node {n:?}");
            }
        }
    }
}
