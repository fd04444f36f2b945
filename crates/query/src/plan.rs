//! The logical plan tree: what a statement *means*, before the optimizer
//! decides how to run it.
//!
//! `parse → plan → optimize → execute`: [`build_plan`] turns a parsed
//! [`SelectStmt`] into a [`Plan`] whose node tree spells out the
//! execution shape (scan → filter → shard → census → project →
//! order → limit); the optimizer passes ([`crate::optimizer`]) then
//! annotate and rewrite it (cache substitution, view substitution,
//! cost-based algorithm choice, batch grouping) after the engine has
//! placed its `Shard` and run the relation operators; the executor runs
//! the optimized tree one operator at a time, and `EXPLAIN`
//! is `PlanNode::describe` over the same tree. The tree is also the
//! unit other layers reason about: the shard router asks
//! [`Plan::is_scatterable`] instead of re-deriving scatterability from
//! SQL text.
//!
//! Every operator but the scan has one input (`PlanNode::input`), so a
//! tree is a chain, and every walk over it — the accessors below, the
//! optimizer's rewrites, execution, `EXPLAIN` — follows that chain.
//!
//! Building a logical plan needs no catalog and no graph — pattern names
//! stay unresolved until the optimizer runs inside an engine. That is
//! what lets a router (which has neither) plan a statement it will never
//! execute itself.

use crate::ast::{NeighborhoodAst, OrderKey, Projection, SelectStmt, SortDir};
use crate::error::QueryError;
use crate::optimizer::PassContext;
use crate::parser::{parse_query, Statement};
use crate::shard::ShardSpec;
use crate::table::Table;
use crate::value::Value;
use ego_census::{Algorithm, BatchStage};
use ego_pattern::Pattern;

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
    /// `RND()` stream stays aligned across shards. Placed by a sharded
    /// engine over a single-table tree when it binds the statement; never
    /// present in a fresh logical plan.
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
/// construction: no catalog, no graph, no validation beyond shape (the
/// semantic checks run where the engine binds the tree to its catalog
/// and aliases, so `EXPLAIN` and execution fail alike).
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
                // a semantic error the engine's checks report; they carry
                // no radius we can plan with.
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
    /// and merge by concatenation? True exactly when it scans one table
    /// (node pairs cross shard boundaries, with or without a pairwise
    /// census) and has no ORDER BY / LIMIT (both are global, not
    /// per-shard).
    pub fn is_scatterable(&self) -> bool {
        self.stmt.tables.len() < 2
            && !self
                .root
                .nodes()
                .any(|n| matches!(n, PlanNode::Order { .. } | PlanNode::Limit { .. }))
    }

    /// The census node, if the plan has one.
    pub fn census(&self) -> Option<&CensusNode> {
        self.root.nodes().find_map(|n| match n {
            PlanNode::Census(c) => Some(c),
            _ => None,
        })
    }

    /// The view-probe node, if the view-substitution pass rewrote the
    /// census into one.
    pub fn view_probe(&self) -> Option<&[ViewProbeJob]> {
        self.root.nodes().find_map(|n| match n {
            PlanNode::ViewProbe { probes, .. } => Some(&probes[..]),
            _ => None,
        })
    }

    /// The algorithm decision, if the optimizer made one.
    pub fn choice(&self) -> Option<&AlgoChoice> {
        self.census().and_then(|c| c.choice.as_ref())
    }

    /// The shard restriction, if a sharded engine placed one.
    pub fn shard(&self) -> Option<ShardSpec> {
        self.root.nodes().find_map(|n| match n {
            PlanNode::Shard { spec, .. } => Some(*spec),
            _ => None,
        })
    }
}

impl PlanNode {
    /// The operator's input; `None` for the scan.
    pub(crate) fn input(&self) -> Option<&PlanNode> {
        match self {
            PlanNode::Scan { .. } => None,
            PlanNode::Census(c) => Some(&c.input),
            PlanNode::Filter { input }
            | PlanNode::Shard { input, .. }
            | PlanNode::ViewProbe { input, .. }
            | PlanNode::PairCensus { input, .. }
            | PlanNode::Project { input }
            | PlanNode::Order { input, .. }
            | PlanNode::Limit { input, .. } => Some(input),
        }
    }

    /// [`PlanNode::input`], mutably: the one way a rewrite reaches into
    /// the tree.
    pub(crate) fn input_mut(&mut self) -> Option<&mut PlanNode> {
        match self {
            PlanNode::Scan { .. } => None,
            PlanNode::Census(c) => Some(&mut c.input),
            PlanNode::Filter { input }
            | PlanNode::Shard { input, .. }
            | PlanNode::ViewProbe { input, .. }
            | PlanNode::PairCensus { input, .. }
            | PlanNode::Project { input }
            | PlanNode::Order { input, .. }
            | PlanNode::Limit { input, .. } => Some(input),
        }
    }

    /// This operator and every one below it, outermost first.
    pub(crate) fn nodes(&self) -> impl Iterator<Item = &PlanNode> {
        std::iter::successors(Some(self), |n| n.input())
    }

    /// The outermost operator at or below this one that `pred` accepts.
    pub(crate) fn find_mut(&mut self, pred: fn(&PlanNode) -> bool) -> Option<&mut PlanNode> {
        if pred(self) {
            Some(self)
        } else {
            self.input_mut()?.find_mut(pred)
        }
    }

    /// Replace this operator, in place, by `f` of it.
    pub(crate) fn replace_with(&mut self, f: impl FnOnce(PlanNode) -> PlanNode) {
        let placeholder = PlanNode::Scan {
            alias: String::new(),
        };
        *self = f(std::mem::replace(self, placeholder));
    }

    /// The census node at or below this one.
    pub(crate) fn census_mut(&mut self) -> Option<&mut CensusNode> {
        match self.find_mut(|n| matches!(n, PlanNode::Census(_))) {
            Some(PlanNode::Census(c)) => Some(c),
            _ => None,
        }
    }

    /// Is this a relation operator — the scan, or the filter or shard
    /// over it — which binds the statement's rows?
    pub(crate) fn is_relation(&self) -> bool {
        matches!(
            self,
            PlanNode::Scan { .. } | PlanNode::Filter { .. } | PlanNode::Shard { .. }
        )
    }

    /// The top of the relation operators: the subtree that binds the
    /// statement's rows.
    pub(crate) fn relation(&self) -> &PlanNode {
        self.nodes()
            .find(|n| n.is_relation())
            .expect("every tree ends in a scan")
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

    /// `EXPLAIN`: this operator's row, its detail rows one level deeper,
    /// then its input's rows one level deeper. `ctx` is what the passes
    /// consulted when they planned the tree.
    pub(crate) fn describe(
        &self,
        stmt: &SelectStmt,
        ctx: &PassContext<'_>,
        depth: usize,
        table: &mut Table,
    ) -> Result<(), QueryError> {
        let mut row = |depth: usize, name: &str, detail: String, cost: Value| {
            let label = format!("{:indent$}{name}", "", indent = 2 * depth);
            table.push_row(vec![Value::Str(label), Value::Str(detail), cost]);
        };
        let dash = || Value::Str("-".into());
        let (name, inner) = (self.name(), depth + 1);
        match self {
            PlanNode::Scan { alias } => {
                let n = ctx.graph.num_nodes() as i64;
                row(depth, name, format!("nodes AS {alias}"), Value::Int(n));
            }
            PlanNode::Filter { .. } => row(depth, name, "WHERE".into(), dash()),
            PlanNode::Shard { spec, .. } => {
                let detail = format!("focal shard {spec} (after WHERE)");
                row(depth, name, detail, dash());
            }
            PlanNode::Project { .. } => {
                let cols: Vec<String> = stmt.projections.iter().map(Projection::name).collect();
                row(depth, name, cols.join(", "), dash());
            }
            PlanNode::Order { keys, .. } => {
                let keys: Vec<String> = keys
                    .iter()
                    .map(|k| match k.dir {
                        SortDir::Asc => format!("{} ASC", k.ordinal),
                        SortDir::Desc => format!("{} DESC", k.ordinal),
                    })
                    .collect();
                row(depth, name, keys.join(", "), dash());
            }
            PlanNode::Limit { n, .. } => row(depth, name, format!("n={n}"), dash()),
            PlanNode::PairCensus { aggs, .. } => {
                let detail = format!(
                    "{aggs} aggregate(s) per node pair, algo={:?} (engine setting; \
                     pairwise census is not cost-planned)",
                    ctx.forced
                );
                row(depth, name, detail, dash());
                for proj in &stmt.projections {
                    let Projection::Agg(agg) = proj else { continue };
                    let pattern = ctx.catalog.require(&agg.pattern)?;
                    let (nb, k) = match agg.neighborhood {
                        NeighborhoodAst::Subgraph { k, .. } => ("SUBGRAPH", k),
                        NeighborhoodAst::Intersection { k, .. } => ("SUBGRAPH-INTERSECTION", k),
                        NeighborhoodAst::Union { k, .. } => ("SUBGRAPH-UNION", k),
                    };
                    let detail = format!("{} {} {nb}(k={k})", proj.name(), shape(pattern));
                    row(inner, "agg", detail, dash());
                }
                row(inner, "setops", setops(), dash());
            }
            PlanNode::ViewProbe { probes, .. } => {
                let detail = format!(
                    "{} probe(s), pure gather over pinned views (no traversal)",
                    probes.len()
                );
                row(depth, name, detail, Value::Float(0.0));
                for p in probes {
                    let matches = p.matches.map_or("-".to_string(), |l| l.to_string());
                    let coverage = p.coverage.map_or("full".to_string(), |s| s.to_string());
                    let sp = p.subpattern.as_deref().unwrap_or("-");
                    let detail = format!(
                        "view: {} k={} sp={sp} matches={matches} coverage={coverage}",
                        p.dsl, p.k
                    );
                    row(inner, "view", detail, Value::Float(0.0));
                }
            }
            PlanNode::Census(c) => {
                let (detail, cost) = match &c.choice {
                    Some(ch) => {
                        let how = match (ch.forced, ch.stats) {
                            (true, _) => "forced",
                            (false, StatsBasis::Analyzed) => "cost-model",
                            (false, StatsBasis::Stale | StatsBasis::Heuristic) => "heuristic",
                        };
                        let algo = ch.algorithm;
                        let detail = format!("algo={algo:?} ({how}, stats={})", ch.stats.label());
                        (detail, Value::Float(ch.cost()))
                    }
                    None => (format!("algo={:?} (unplanned)", ctx.forced), dash()),
                };
                row(depth, name, detail, cost);
                // The road not taken: every algorithm that can serve the
                // statement, with its estimated cost, cheapest first.
                if let Some(ch) = &c.choice {
                    for (a, cost) in &ch.considered {
                        let marker = if *a == ch.algorithm { " (chosen)" } else { "" };
                        let detail = format!("{a:?}{marker}");
                        row(inner, "choice", detail, Value::Float(*cost));
                    }
                }
                let profiles = ego_graph::profile::ProfileIndex::build(ctx.graph);
                for job in &c.jobs {
                    let pattern = ctx.catalog.require(&job.pattern)?;
                    // Match-list size: exact when the census cache holds
                    // the list, otherwise the cost model's estimate.
                    let matches = match job.cached_matches {
                        MatchHint::Hit(len) => format!("cached:{len}"),
                        MatchHint::Miss | MatchHint::Unknown => {
                            format!("estimated:{:.1}", ctx.stats.est_matches(pattern))
                        }
                    };
                    // Profile-filtered candidate counts per pattern node:
                    // the matcher's first pruning step, cheap and
                    // indicative of pattern selectivity.
                    let cs = ego_matcher::candidates::CandidateSpace::enumerate(
                        ctx.graph,
                        pattern,
                        &profiles,
                        &mut ego_matcher::MatchStats::default(),
                        1,
                    );
                    let cands: Vec<String> = pattern
                        .nodes()
                        .map(|v| format!("?{}:{}", pattern.var_name(v), cs.cands[v.index()].len()))
                        .collect();
                    let detail = format!(
                        "{} {} k={} matches={matches} cands {}",
                        stmt.projections[job.projection].name(),
                        shape(pattern),
                        job.k,
                        cands.join(" "),
                    );
                    row(inner, "agg", detail, dash());
                }
                // Expected cache reuse (rows only when a cache is
                // attached — hints stay `Unknown` without one).
                for job in &c.jobs {
                    let m = match job.cached_matches {
                        MatchHint::Unknown => continue,
                        MatchHint::Miss => "miss",
                        MatchHint::Hit(_) => "hit",
                    };
                    let counts = match job.cached_counts {
                        CountHint::Unknown => "unknown",
                        CountHint::Miss => "miss",
                        CountHint::Hit => "hit",
                    };
                    let detail = format!("{}: matches={m} counts={counts}", job.pattern);
                    row(inner, "cache", detail, dash());
                }
                // Shared-work grouping under the chosen algorithm (the
                // batch-grouping pass ran the real stage planner).
                let members = |idxs: &[usize]| {
                    let names: Vec<&str> =
                        idxs.iter().map(|&i| c.jobs[i].pattern.as_str()).collect();
                    names.join("+")
                };
                for stage in &c.stages {
                    let detail = match stage {
                        BatchStage::NdSweep { pivot, k_max } => format!(
                            "nd-sweep {} 1 BFS sweep/focal @k={k_max} pivot={}",
                            members(pivot),
                            pivot.len()
                        ),
                        BatchStage::NdBaseline { specs } => format!(
                            "nd-bas {} 1 subgraph match/focal per pattern ({} patterns)",
                            members(specs),
                            specs.len()
                        ),
                        BatchStage::PtGroup { specs, k } => format!(
                            "pt-group {} shared traversal @k={k} ({} patterns pool matches)",
                            members(specs),
                            specs.len()
                        ),
                    };
                    row(inner, "stage", detail, dash());
                }
                row(inner, "setops", setops(), dash());
            }
        }
        match self.input() {
            Some(input) => input.describe(stmt, ctx, inner, table),
            None => Ok(()),
        }
    }
}

/// A pattern as EXPLAIN names it: its DSL, then nodes/edges.
fn shape(pattern: &Pattern) -> String {
    format!(
        "{} {}/{}",
        ego_pattern::to_dsl(pattern),
        pattern.num_nodes(),
        pattern.positive_edges().len()
    )
}

/// The set-intersection kernel plan: which kernel the matcher's hot loops
/// dispatch to (EGO_SETOPS override or adaptive) and the adaptive
/// policy's thresholds. Volatile dispatch *counters* live in the server
/// `stats` op and `egocensus match --stats`, keeping EXPLAIN
/// deterministic for identical inputs.
fn setops() -> String {
    use ego_graph::setops::{configured_kernel, BITSET_MIN_REUSE, BITSET_MIN_SET, GALLOP_RATIO};
    format!(
        "kernel={} gallop_ratio:{GALLOP_RATIO} bitset_min_reuse:{BITSET_MIN_REUSE} \
         bitset_min_set:{BITSET_MIN_SET}",
        configured_kernel().name(),
    )
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
        // Pairs never scatter, census or not.
        assert!(!plan("SELECT a.ID, b.ID FROM nodes a, nodes b").is_scatterable());
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
    fn find_mut_edits_in_place() {
        let mut p = plan("SELECT COUNTP(tri, SUBGRAPH(ID, 1)) FROM nodes WHERE RND() < 0.5");
        let spec = ShardSpec::new(1, 4).unwrap();
        p.root
            .find_mut(|n| matches!(n, PlanNode::Filter { .. }))
            .unwrap()
            .replace_with(|filter| PlanNode::Shard {
                spec,
                input: Box::new(filter),
            });
        assert_eq!(p.shard(), Some(spec));
        assert!(matches!(p.root.relation(), PlanNode::Shard { .. }));
        // Shard landed between filter and census.
        let c = p.census().unwrap();
        let PlanNode::Shard { input, .. } = c.input.as_ref() else {
            panic!("census input must be the shard node");
        };
        assert!(matches!(input.as_ref(), PlanNode::Filter { .. }));
    }
}
