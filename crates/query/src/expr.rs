//! WHERE-clause evaluation.

use crate::ast::{BinOp, ColumnRef, Expr};
use crate::error::QueryError;
use crate::value::Value;
use ego_graph::{Graph, NodeId};
use rand::rngs::StdRng;
use rand::Rng;
use std::ops::Range;

/// A row binding: table alias -> node. Single-table queries bind one
/// alias; pair queries bind two.
pub struct RowContext<'a> {
    /// The graph attributes are resolved against.
    pub graph: &'a Graph,
    /// `(alias, node)` bindings, in FROM order.
    pub bindings: Vec<(&'a str, NodeId)>,
}

impl<'a> RowContext<'a> {
    /// A context over `aliases`, each bound to node 0 until [`Self::bind`]
    /// binds a row.
    pub(crate) fn new(graph: &'a Graph, aliases: impl Iterator<Item = &'a str>) -> Self {
        let bindings = aliases.map(|a| (a, NodeId(0))).collect();
        RowContext { graph, bindings }
    }

    /// Bind one row: its nodes, in alias order.
    pub(crate) fn bind(&mut self, row: &[NodeId]) {
        for (binding, &n) in self.bindings.iter_mut().zip(row) {
            binding.1 = n;
        }
    }

    /// Resolve a column reference to the bound node it refers to.
    pub fn resolve_node(&self, col: &ColumnRef) -> Result<NodeId, QueryError> {
        match &col.table {
            Some(alias) => self
                .bindings
                .iter()
                .find(|(a, _)| a.eq_ignore_ascii_case(alias))
                .map(|&(_, n)| n)
                .ok_or_else(|| QueryError::Semantic(format!("unknown table alias `{alias}`"))),
            None => {
                if self.bindings.len() == 1 {
                    Ok(self.bindings[0].1)
                } else {
                    Err(QueryError::Semantic(format!(
                        "ambiguous column `{}` in a multi-table query; qualify it",
                        col.column
                    )))
                }
            }
        }
    }

    /// The value of a column for this row.
    pub fn column_value(&self, col: &ColumnRef) -> Result<Value, QueryError> {
        let node = self.resolve_node(col)?;
        if col.is_id() {
            return Ok(Value::Int(node.0 as i64));
        }
        if col.is_label() {
            return Ok(Value::Int(self.graph.label(node).0 as i64));
        }
        Ok(self
            .graph
            .node_attr(node, &col.column)
            .map(Value::from)
            .unwrap_or(Value::Null))
    }
}

/// The node-id range a WHERE keeps, found without evaluating it: `Some`
/// exactly when `expr` is an `AND` of `ID <op> integer-literal`
/// comparisons, `op` one of `< <= > >= =`, the `ID` on either side and
/// either unqualified or qualified with `alias`. The range is the
/// half-open intersection of the comparisons, unclipped (it may be
/// empty, or reach past either end of the graph). Any other WHERE is
/// `None` and evaluates per row.
pub(crate) fn id_range(expr: &Expr, alias: &str) -> Option<Range<i128>> {
    let Expr::Binary { op, lhs, rhs } = expr else {
        return None;
    };
    if *op == BinOp::And {
        let (a, b) = (id_range(lhs, alias)?, id_range(rhs, alias)?);
        return Some(a.start.max(b.start)..a.end.min(b.end));
    }
    let own_id = |c: &ColumnRef| {
        c.is_id()
            && c.table
                .as_deref()
                .is_none_or(|t| t.eq_ignore_ascii_case(alias))
    };
    // Normalised to `ID <op> v`: a literal on the left mirrors the operator.
    let (op, v) = match (&**lhs, &**rhs) {
        (Expr::Column(c), Expr::Literal(Value::Int(v))) if own_id(c) => (*op, *v),
        (Expr::Literal(Value::Int(v)), Expr::Column(c)) if own_id(c) => match op {
            BinOp::Lt => (BinOp::Gt, *v),
            BinOp::Le => (BinOp::Ge, *v),
            BinOp::Gt => (BinOp::Lt, *v),
            BinOp::Ge => (BinOp::Le, *v),
            _ => (*op, *v),
        },
        _ => return None,
    };
    let v = i128::from(v);
    match op {
        BinOp::Lt => Some(i128::MIN..v),
        BinOp::Le => Some(i128::MIN..v + 1),
        BinOp::Gt => Some(v + 1..i128::MAX),
        BinOp::Ge => Some(v..i128::MAX),
        BinOp::Eq => Some(v..v + 1),
        _ => None,
    }
}

/// Evaluate a WHERE expression for one row. `rng` drives `RND()`.
pub fn eval_predicate(
    expr: &Expr,
    ctx: &RowContext<'_>,
    rng: &mut StdRng,
) -> Result<bool, QueryError> {
    match eval(expr, ctx, rng)? {
        Value::Bool(b) => Ok(b),
        Value::Null => Ok(false),
        other => Err(QueryError::Semantic(format!(
            "WHERE clause evaluated to non-boolean value `{other}`"
        ))),
    }
}

fn eval(expr: &Expr, ctx: &RowContext<'_>, rng: &mut StdRng) -> Result<Value, QueryError> {
    match expr {
        Expr::Literal(v) => Ok(v.clone()),
        Expr::Column(c) => ctx.column_value(c),
        Expr::Rnd => Ok(Value::Float(rng.gen::<f64>())),
        Expr::Not(inner) => match eval(inner, ctx, rng)? {
            Value::Bool(b) => Ok(Value::Bool(!b)),
            Value::Null => Ok(Value::Null),
            other => Err(QueryError::Semantic(format!(
                "NOT applied to non-boolean `{other}`"
            ))),
        },
        Expr::Binary { op, lhs, rhs } => {
            let l = eval(lhs, ctx, rng)?;
            match op {
                BinOp::And => {
                    // Short-circuit, but RHS may still draw RND() — SQL
                    // engines differ; we evaluate eagerly for determinism
                    // of RND() draws across plans.
                    let r = eval(rhs, ctx, rng)?;
                    Ok(bool_op(l, r, |a, b| a && b)?)
                }
                BinOp::Or => {
                    let r = eval(rhs, ctx, rng)?;
                    Ok(bool_op(l, r, |a, b| a || b)?)
                }
                BinOp::Eq | BinOp::Ne | BinOp::Lt | BinOp::Le | BinOp::Gt | BinOp::Ge => {
                    let r = eval(rhs, ctx, rng)?;
                    let cmp = l.compare(&r);
                    Ok(match cmp {
                        None => {
                            if l.is_null() || r.is_null() {
                                Value::Null
                            } else {
                                Value::Bool(false)
                            }
                        }
                        Some(ord) => Value::Bool(match op {
                            BinOp::Eq => ord == std::cmp::Ordering::Equal,
                            BinOp::Ne => ord != std::cmp::Ordering::Equal,
                            BinOp::Lt => ord == std::cmp::Ordering::Less,
                            BinOp::Le => ord != std::cmp::Ordering::Greater,
                            BinOp::Gt => ord == std::cmp::Ordering::Greater,
                            BinOp::Ge => ord != std::cmp::Ordering::Less,
                            _ => unreachable!(),
                        }),
                    })
                }
            }
        }
    }
}

fn bool_op(l: Value, r: Value, f: impl Fn(bool, bool) -> bool) -> Result<Value, QueryError> {
    match (l, r) {
        (Value::Bool(a), Value::Bool(b)) => Ok(Value::Bool(f(a, b))),
        // NULL propagates (evaluates to not-selected at the top).
        (Value::Null, _) | (_, Value::Null) => Ok(Value::Null),
        (a, b) => Err(QueryError::Semantic(format!(
            "boolean operator applied to `{a}` and `{b}`"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use ego_graph::{GraphBuilder, Label};
    use rand::SeedableRng;

    fn graph() -> Graph {
        let mut b = GraphBuilder::undirected();
        let a = b.add_node(Label(1));
        let c = b.add_node(Label(2));
        b.add_edge(a, c);
        b.set_node_attr(a, "age", 30i64);
        b.set_node_attr(a, "dept", "db");
        b.set_node_attr(c, "age", 40i64);
        b.build()
    }

    fn where_of(sql: &str) -> Expr {
        parse_query(sql).unwrap().where_clause.unwrap()
    }

    fn eval_on(g: &Graph, expr: &Expr, node: NodeId) -> bool {
        let ctx = RowContext {
            graph: g,
            bindings: vec![("nodes", node)],
        };
        let mut rng = StdRng::seed_from_u64(1);
        eval_predicate(expr, &ctx, &mut rng).unwrap()
    }

    #[test]
    fn attribute_comparisons() {
        let g = graph();
        let e = where_of("SELECT ID FROM nodes WHERE age >= 35");
        assert!(!eval_on(&g, &e, NodeId(0)));
        assert!(eval_on(&g, &e, NodeId(1)));
    }

    #[test]
    fn id_and_label_pseudo_columns() {
        let g = graph();
        let e = where_of("SELECT ID FROM nodes WHERE ID = 1");
        assert!(eval_on(&g, &e, NodeId(1)));
        assert!(!eval_on(&g, &e, NodeId(0)));
        let e = where_of("SELECT ID FROM nodes WHERE LABEL = 2");
        assert!(eval_on(&g, &e, NodeId(1)));
    }

    #[test]
    fn string_and_logic() {
        let g = graph();
        let e = where_of("SELECT ID FROM nodes WHERE dept = 'db' AND age < 35");
        assert!(eval_on(&g, &e, NodeId(0)));
        assert!(!eval_on(&g, &e, NodeId(1))); // dept missing -> NULL -> false
        let e = where_of("SELECT ID FROM nodes WHERE dept = 'db' OR age > 35");
        assert!(eval_on(&g, &e, NodeId(0)));
    }

    #[test]
    fn null_semantics() {
        let g = graph();
        // Node 1 has no dept: comparison is NULL, NOT NULL is NULL -> false.
        let e = where_of("SELECT ID FROM nodes WHERE NOT dept = 'db'");
        assert!(!eval_on(&g, &e, NodeId(1)));
    }

    #[test]
    fn rnd_is_deterministic_per_seed() {
        let g = graph();
        let e = where_of("SELECT ID FROM nodes WHERE RND() < 0.5");
        let ctx = RowContext {
            graph: &g,
            bindings: vec![("nodes", NodeId(0))],
        };
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        for _ in 0..20 {
            assert_eq!(
                eval_predicate(&e, &ctx, &mut r1).unwrap(),
                eval_predicate(&e, &ctx, &mut r2).unwrap()
            );
        }
    }

    #[test]
    fn pair_bindings() {
        let g = graph();
        let e = where_of("SELECT n1.ID FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID");
        let ctx = RowContext {
            graph: &g,
            bindings: vec![("n1", NodeId(1)), ("n2", NodeId(0))],
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(eval_predicate(&e, &ctx, &mut rng).unwrap());
        let ctx2 = RowContext {
            graph: &g,
            bindings: vec![("n1", NodeId(0)), ("n2", NodeId(1))],
        };
        assert!(!eval_predicate(&e, &ctx2, &mut rng).unwrap());
    }

    #[test]
    fn ambiguous_unqualified_column_errors() {
        let g = graph();
        let e = where_of("SELECT n1.ID FROM nodes AS n1, nodes AS n2 WHERE ID = 0");
        let ctx = RowContext {
            graph: &g,
            bindings: vec![("n1", NodeId(0)), ("n2", NodeId(1))],
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(eval_predicate(&e, &ctx, &mut rng).is_err());
    }

    #[test]
    fn id_ranges_bind_only_their_shape() {
        let range =
            |w: &str| id_range(&where_of(&format!("SELECT ID FROM nodes n WHERE {w}")), "n");
        assert_eq!(range("ID >= 3 AND ID < 9"), Some(3..9));
        assert_eq!(range("3 <= n.ID AND 9 > ID AND N.ID = 5"), Some(5..6));
        assert_eq!(range("ID > 4 AND ID <= 4"), Some(5..5));
        assert_eq!(range("ID < -2"), Some(i128::MIN..-2));
        assert_eq!(
            range("-9223372036854775807 < ID"),
            Some(-9223372036854775806..i128::MAX)
        );
        assert_eq!(range("ID <= 9223372036854775807"), Some(i128::MIN..1 << 63));
        for w in [
            "ID != 3",
            "ID < 3 OR ID > 5",
            "NOT ID < 3",
            "ID < 2.5",
            "ID = '3'",
            "ID < RND()",
            "LABEL = 1",
            "age > 3",
            "m.ID < 3",
            "ID < ID",
            "ID < 3 AND age > 1",
        ] {
            assert_eq!(range(w), None, "{w}");
        }
    }

    #[test]
    fn type_error_reported() {
        let g = graph();
        let e = where_of("SELECT ID FROM nodes WHERE age AND TRUE");
        let ctx = RowContext {
            graph: &g,
            bindings: vec![("nodes", NodeId(0))],
        };
        let mut rng = StdRng::seed_from_u64(0);
        assert!(eval_predicate(&e, &ctx, &mut rng).is_err());
    }
}
