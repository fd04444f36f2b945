//! The logical plan tree: what a statement *means*, before the optimizer
//! decides how to run it.
//!
//! `parse → plan → optimize → execute`: [`build_plan`] turns a parsed
//! [`SelectStmt`] into a [`Plan`] whose node tree spells out the
//! execution shape (scan → filter → shard → census → project →
//! order → limit); the optimizer passes ([`crate::optimizer`]) then
//! annotate and rewrite it (shard pushdown, cache substitution,
//! cost-based algorithm choice, batch grouping); the executor interprets
//! the optimized tree. The tree is also the unit other layers reason
//! about: the shard router asks [`Plan::is_scatterable`] instead of
//! re-deriving scatterability from SQL text, and `EXPLAIN` renders the
//! tree directly.
//!
//! Building a logical plan needs no catalog and no graph — pattern names
//! stay unresolved until the optimizer runs inside an engine. That is
//! what lets a router (which has neither) plan a statement it will never
//! execute itself.

use crate::ast::{NeighborhoodAst, OrderKey, Projection, SelectStmt};
use crate::error::QueryError;
use crate::parser::{parse_query, Statement};
use crate::shard::ShardSpec;
use ego_census::{Algorithm, BatchStage};

/// A planned statement: the parsed AST plus the plan-node tree over it.
#[derive(Clone, Debug)]
pub struct Plan {
    /// The parsed statement (projection/expression details live here;
    /// the tree holds structure and optimizer annotations).
    pub stmt: SelectStmt,
    /// Root of the node tree (outermost operator).
    pub root: PlanNode,
}

/// One operator in the plan tree.
#[derive(Clone, Debug)]
pub enum PlanNode {
    /// Full scan of the `nodes` relation.
    Scan {
        /// Table alias (`nodes` unless aliased).
        alias: String,
    },
    /// WHERE predicate over the scan (the predicate expression itself
    /// lives in `stmt.where_clause`).
    Filter {
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// Focal-shard restriction `i/n`, applied *after* the filter so the
    /// `RND()` stream stays aligned across shards. Inserted by the
    /// shard-pushdown pass; never present in a fresh logical plan.
    Shard {
        /// The shard.
        spec: ShardSpec,
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// Single-focal census aggregates (COUNTP/COUNTSP over
    /// `SUBGRAPH(ID, k)`), executed as one batch.
    Census(CensusNode),
    /// Census aggregates served entirely from materialized views: a
    /// pure gather over pinned count vectors, zero graph traversal.
    /// The view-substitution pass rewrites a [`PlanNode::Census`] into
    /// this when every job has a fresh view with matching coverage.
    ViewProbe {
        /// One probe per census aggregate in the SELECT list.
        probes: Vec<ViewProbeJob>,
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// Pairwise census aggregates (`SUBGRAPH-INTERSECTION`/`-UNION`),
    /// executed per ordered node pair.
    PairCensus {
        /// Number of aggregate projections.
        aggs: usize,
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// SELECT-list projection.
    Project {
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// ORDER BY.
    Order {
        /// Sort keys (projection ordinals).
        keys: Vec<OrderKey>,
        /// Input operator.
        input: Box<PlanNode>,
    },
    /// LIMIT.
    Limit {
        /// Row cap.
        n: usize,
        /// Input operator.
        input: Box<PlanNode>,
    },
}

/// The census operator: the statement's aggregate jobs plus everything
/// the optimizer decided about running them.
#[derive(Clone, Debug)]
pub struct CensusNode {
    /// One job per census aggregate in the SELECT list.
    pub jobs: Vec<CensusJob>,
    /// The algorithm decision (filled by the algorithm-selection pass).
    pub choice: Option<AlgoChoice>,
    /// Shared-work batch stages (filled by the batch-grouping pass;
    /// indices refer to `jobs` order).
    pub stages: Vec<BatchStage>,
    /// Input operator.
    pub input: Box<PlanNode>,
}

/// One census aggregate, by name — unresolved until the optimizer runs
/// against a catalog.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CensusJob {
    /// Index into `stmt.projections`.
    pub projection: usize,
    /// Pattern name.
    pub pattern: String,
    /// Neighborhood radius.
    pub k: u32,
    /// COUNTSP subpattern name.
    pub subpattern: Option<String>,
    /// What the census cache holds for this job (cache-substitution
    /// pass).
    pub cached_matches: MatchHint,
    /// Whether the count vector for this job's focal set is cached.
    pub cached_counts: CountHint,
}

/// One census aggregate resolved against a materialized view.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ViewProbeJob {
    /// Index into `stmt.projections`.
    pub projection: usize,
    /// Pattern name (as written in the statement).
    pub pattern: String,
    /// Canonical pattern DSL — the view registry key component the
    /// executor re-probes with.
    pub dsl: String,
    /// Neighborhood radius.
    pub k: u32,
    /// COUNTSP subpattern name.
    pub subpattern: Option<String>,
    /// Length of the view's pinned match list, if it keeps one
    /// (EXPLAIN provenance).
    pub matches: Option<usize>,
    /// The view's focal coverage (`None` = whole graph).
    pub coverage: Option<ShardSpec>,
}

/// Census-cache knowledge about a job's global match list.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum MatchHint {
    /// Not probed (no cache attached).
    #[default]
    Unknown,
    /// Probed, absent.
    Miss,
    /// Probed, present, with the exact list length (feeds the cost
    /// model's `m` term).
    Hit(usize),
}

/// Census-cache knowledge about a job's count vector.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Default)]
pub enum CountHint {
    /// Not probed — no cache, or the planner was given no focal set.
    #[default]
    Unknown,
    /// Probed, absent.
    Miss,
    /// Probed, present: execution will not traverse at all.
    Hit,
}

/// Which inputs backed the cost model for a choice.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StatsBasis {
    /// A fresh `ANALYZE` snapshot.
    Analyzed,
    /// A snapshot exists but its fingerprint no longer matches the live
    /// graph; the structural heuristic was used instead.
    Stale,
    /// No snapshot at all; structural heuristic.
    Heuristic,
}

impl StatsBasis {
    /// Stable lowercase label for EXPLAIN output.
    pub fn label(&self) -> &'static str {
        match self {
            StatsBasis::Analyzed => "analyzed",
            StatsBasis::Stale => "stale",
            StatsBasis::Heuristic => "heuristic",
        }
    }
}

/// The algorithm-selection pass's verdict for one census node.
#[derive(Clone, Debug)]
pub struct AlgoChoice {
    /// The algorithm execution will use.
    pub algorithm: Algorithm,
    /// True when the engine was configured with a concrete algorithm
    /// (not `Auto`) — the choice is honored, alternatives still ranked.
    pub forced: bool,
    /// What fed the cost model.
    pub stats: StatsBasis,
    /// Every algorithm that can serve all jobs, with its estimated
    /// cost, cheapest first.
    pub considered: Vec<(Algorithm, f64)>,
}

impl AlgoChoice {
    /// Estimated cost of the chosen algorithm from `considered`
    /// (infinity if absent; the pass always ranks what it chooses, since
    /// it refuses a forced algorithm the kernels turn away).
    pub fn cost(&self) -> f64 {
        self.considered
            .iter()
            .find(|(a, _)| *a == self.algorithm)
            .map(|(_, c)| *c)
            .unwrap_or(f64::INFINITY)
    }
}

/// Build the logical plan for a parsed statement. Pure tree
/// construction: no catalog, no graph, no validation beyond shape (deep
/// semantic checks stay in the executor so error messages are
/// unchanged).
pub fn build_plan(stmt: &SelectStmt) -> Plan {
    let alias = stmt
        .tables
        .first()
        .map(|t| t.alias.clone())
        .unwrap_or_else(|| "nodes".to_string());
    let mut node = PlanNode::Scan { alias };
    if stmt.where_clause.is_some() {
        node = PlanNode::Filter {
            input: Box::new(node),
        };
    }
    let pairwise = stmt.tables.len() >= 2;
    let jobs: Vec<CensusJob> = stmt
        .projections
        .iter()
        .enumerate()
        .filter_map(|(i, p)| match p {
            Projection::Agg(call) if !pairwise => {
                // Pair neighborhoods inside a single-table statement are
                // a semantic error the executor reports; they carry no
                // radius we can plan with.
                let k = match call.neighborhood {
                    NeighborhoodAst::Subgraph { k, .. } => k,
                    _ => return None,
                };
                Some(CensusJob {
                    projection: i,
                    pattern: call.pattern.clone(),
                    k,
                    subpattern: call.subpattern.clone(),
                    cached_matches: MatchHint::Unknown,
                    cached_counts: CountHint::Unknown,
                })
            }
            _ => None,
        })
        .collect();
    let num_aggs = stmt
        .projections
        .iter()
        .filter(|p| matches!(p, Projection::Agg(_)))
        .count();
    if pairwise && num_aggs > 0 {
        node = PlanNode::PairCensus {
            aggs: num_aggs,
            input: Box::new(node),
        };
    } else if !jobs.is_empty() {
        node = PlanNode::Census(CensusNode {
            jobs,
            choice: None,
            stages: Vec::new(),
            input: Box::new(node),
        });
    }
    node = PlanNode::Project {
        input: Box::new(node),
    };
    if !stmt.order_by.is_empty() {
        node = PlanNode::Order {
            keys: stmt.order_by.clone(),
            input: Box::new(node),
        };
    }
    if let Some(n) = stmt.limit {
        node = PlanNode::Limit {
            n,
            input: Box::new(node),
        };
    }
    Plan {
        stmt: stmt.clone(),
        root: node,
    }
}

/// Parse one statement and build its logical plan — the catalog-free
/// entry point front ends (the shard router) use to reason about a
/// statement's shape without executing it. Only a `SELECT` has a plan;
/// every other statement family errors here.
pub fn plan_statement(sql: &str) -> Result<Plan, QueryError> {
    Statement::classify(sql).plan()
}

impl Statement<'_> {
    /// [`plan_statement`] for an already classified statement.
    pub fn plan(&self) -> Result<Plan, QueryError> {
        match self {
            Statement::Select(text) => Ok(build_plan(&parse_query(text.trim())?)),
            Statement::Explain(_) => Err(QueryError::Semantic(
                "EXPLAIN wraps a statement; plan the inner statement".into(),
            )),
            _ => Err(QueryError::Semantic(
                "only SELECT statements have a query plan".into(),
            )),
        }
    }
}

impl Plan {
    /// Can the shard router scatter this statement across focal shards
    /// and merge by concatenation? True exactly when the tree has no
    /// pairwise census (pairs cross shard boundaries) and no
    /// ORDER BY / LIMIT (both are global, not per-shard).
    pub fn is_scatterable(&self) -> bool {
        fn walk(node: &PlanNode) -> bool {
            match node {
                PlanNode::Order { .. } | PlanNode::Limit { .. } | PlanNode::PairCensus { .. } => {
                    false
                }
                PlanNode::Scan { .. } => true,
                PlanNode::Filter { input }
                | PlanNode::Shard { input, .. }
                | PlanNode::ViewProbe { input, .. }
                | PlanNode::Project { input } => walk(input),
                PlanNode::Census(c) => walk(&c.input),
            }
        }
        walk(&self.root)
    }

    /// The census node, if the plan has one.
    pub fn census(&self) -> Option<&CensusNode> {
        fn walk(node: &PlanNode) -> Option<&CensusNode> {
            match node {
                PlanNode::Census(c) => Some(c),
                PlanNode::Filter { input }
                | PlanNode::Shard { input, .. }
                | PlanNode::ViewProbe { input, .. }
                | PlanNode::Project { input }
                | PlanNode::Order { input, .. }
                | PlanNode::Limit { input, .. }
                | PlanNode::PairCensus { input, .. } => walk(input),
                PlanNode::Scan { .. } => None,
            }
        }
        walk(&self.root)
    }

    /// The view-probe node, if the view-substitution pass rewrote the
    /// census into one.
    pub fn view_probe(&self) -> Option<&[ViewProbeJob]> {
        fn walk(node: &PlanNode) -> Option<&[ViewProbeJob]> {
            match node {
                PlanNode::ViewProbe { probes, .. } => Some(probes),
                PlanNode::Filter { input }
                | PlanNode::Shard { input, .. }
                | PlanNode::Project { input }
                | PlanNode::Order { input, .. }
                | PlanNode::Limit { input, .. }
                | PlanNode::PairCensus { input, .. } => walk(input),
                PlanNode::Census(c) => walk(&c.input),
                PlanNode::Scan { .. } => None,
            }
        }
        walk(&self.root)
    }

    /// The algorithm decision, if the optimizer made one.
    pub fn choice(&self) -> Option<&AlgoChoice> {
        self.census().and_then(|c| c.choice.as_ref())
    }

    /// The shard restriction, if the shard-pushdown pass inserted one.
    pub fn shard(&self) -> Option<ShardSpec> {
        fn walk(node: &PlanNode) -> Option<ShardSpec> {
            match node {
                PlanNode::Shard { spec, .. } => Some(*spec),
                PlanNode::Filter { input }
                | PlanNode::Project { input }
                | PlanNode::ViewProbe { input, .. }
                | PlanNode::Order { input, .. }
                | PlanNode::Limit { input, .. }
                | PlanNode::PairCensus { input, .. } => walk(input),
                PlanNode::Census(c) => walk(&c.input),
                PlanNode::Scan { .. } => None,
            }
        }
        walk(&self.root)
    }
}

impl PlanNode {
    /// Rebuild the tree with `f` applied to the census node (if any) —
    /// the shape every optimizer pass uses: passes own the tree, edit
    /// the census operator, and hand the tree back.
    pub fn map_census(
        self,
        f: &mut impl FnMut(CensusNode) -> Result<CensusNode, QueryError>,
    ) -> Result<PlanNode, QueryError> {
        Ok(match self {
            PlanNode::Census(c) => PlanNode::Census(f(c)?),
            PlanNode::Filter { input } => PlanNode::Filter {
                input: Box::new(input.map_census(f)?),
            },
            PlanNode::Shard { spec, input } => PlanNode::Shard {
                spec,
                input: Box::new(input.map_census(f)?),
            },
            PlanNode::Project { input } => PlanNode::Project {
                input: Box::new(input.map_census(f)?),
            },
            PlanNode::Order { keys, input } => PlanNode::Order {
                keys,
                input: Box::new(input.map_census(f)?),
            },
            PlanNode::Limit { n, input } => PlanNode::Limit {
                n,
                input: Box::new(input.map_census(f)?),
            },
            PlanNode::PairCensus { aggs, input } => PlanNode::PairCensus {
                aggs,
                input: Box::new(input.map_census(f)?),
            },
            PlanNode::ViewProbe { probes, input } => PlanNode::ViewProbe {
                probes,
                input: Box::new(input.map_census(f)?),
            },
            leaf @ PlanNode::Scan { .. } => leaf,
        })
    }

    /// Operator name for EXPLAIN rendering.
    pub fn name(&self) -> &'static str {
        match self {
            PlanNode::Scan { .. } => "scan",
            PlanNode::Filter { .. } => "filter",
            PlanNode::Shard { .. } => "shard",
            PlanNode::Census(_) => "census",
            PlanNode::ViewProbe { .. } => "view-probe",
            PlanNode::PairCensus { .. } => "pair-census",
            PlanNode::Project { .. } => "project",
            PlanNode::Order { .. } => "order",
            PlanNode::Limit { .. } => "limit",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(sql: &str) -> Plan {
        plan_statement(sql).expect(sql)
    }

    #[test]
    fn tree_shape_single_table() {
        let p = plan("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 2)) FROM nodes WHERE age > 10");
        // project → census → filter → scan
        let PlanNode::Project { input } = &p.root else {
            panic!("root must be project, got {:?}", p.root.name());
        };
        let PlanNode::Census(c) = input.as_ref() else {
            panic!("expected census under project");
        };
        assert_eq!(c.jobs.len(), 1);
        assert_eq!(c.jobs[0].pattern, "tri");
        assert_eq!(c.jobs[0].k, 2);
        assert_eq!(c.jobs[0].projection, 1);
        assert!(c.choice.is_none(), "fresh logical plan is unoptimized");
        assert!(matches!(c.input.as_ref(), PlanNode::Filter { .. }));
        assert!(p.shard().is_none());
        assert!(p.is_scatterable());
    }

    #[test]
    fn tree_shape_order_limit_and_pairs() {
        let p = plan("SELECT ID, COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes ORDER BY 2 DESC LIMIT 3");
        assert!(matches!(&p.root, PlanNode::Limit { n: 3, .. }));
        assert!(!p.is_scatterable());

        let pair = plan(
            "SELECT n1.ID, n2.ID, COUNTP(tri, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
             FROM nodes n1, nodes n2",
        );
        assert!(pair.census().is_none());
        assert!(!pair.is_scatterable());
        let PlanNode::Project { input } = &pair.root else {
            panic!("root must be project");
        };
        assert!(matches!(
            input.as_ref(),
            PlanNode::PairCensus { aggs: 1, .. }
        ));
    }

    #[test]
    fn plain_selects_have_no_census_node() {
        let p = plan("SELECT ID FROM nodes");
        assert!(p.census().is_none());
        assert!(p.is_scatterable());
        let PlanNode::Project { input } = &p.root else {
            panic!("root must be project");
        };
        assert!(matches!(input.as_ref(), PlanNode::Scan { .. }));
    }

    #[test]
    fn countsp_and_multi_agg_jobs() {
        let p = plan(
            "SELECT ID, COUNTSP(s, tri, SUBGRAPH(ID, 1)), COUNTP(sq, SUBGRAPH(ID, 2)) FROM nodes",
        );
        let c = p.census().unwrap();
        assert_eq!(c.jobs.len(), 2);
        assert_eq!(c.jobs[0].subpattern.as_deref(), Some("s"));
        assert_eq!(c.jobs[1].pattern, "sq");
        assert_eq!(c.jobs[1].projection, 2);
    }

    #[test]
    fn non_plannable_statements_error() {
        assert!(plan_statement("INSERT EDGE (0, 1)").is_err());
        assert!(plan_statement("ANALYZE").is_err());
        assert!(plan_statement("MATERIALIZE tri RADIUS 2").is_err());
        assert!(plan_statement("DROP VIEW tri RADIUS 2").is_err());
        assert!(plan_statement("EXPLAIN SELECT ID FROM nodes").is_err());
        assert!(plan_statement("SUBSCRIBE SELECT ID FROM nodes").is_err());
        assert!(plan_statement("SELECT FROM").is_err());
    }

    #[test]
    fn map_census_edits_in_place() {
        let p = plan("SELECT COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE RND() < 0.5");
        let spec = ShardSpec::new(1, 4).unwrap();
        let root = p
            .root
            .map_census(&mut |mut c| {
                c.input = Box::new(PlanNode::Shard {
                    spec,
                    input: c.input,
                });
                Ok(c)
            })
            .unwrap();
        let p = Plan { root, ..p };
        assert_eq!(p.shard(), Some(spec));
        // Shard landed between filter and census.
        let c = p.census().unwrap();
        let PlanNode::Shard { input, .. } = c.input.as_ref() else {
            panic!("census input must be the shard node");
        };
        assert!(matches!(input.as_ref(), PlanNode::Filter { .. }));
    }
}
