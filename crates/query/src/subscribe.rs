//! The `SUBSCRIBE` statement surface: compiling a census statement into
//! a standing-query specification.
//!
//! A subscription is a single-table census SELECT whose projections are
//! the `ID` column and one or more census aggregates. The statement is
//! compiled **once**, at registration time: the WHERE clause (including
//! its seeded `RND()` stream) is evaluated into a frozen focal set, and
//! each aggregate is resolved against the catalog into an owned
//! [`ego_pattern::Pattern`] — so the standing query stays valid even if
//! the session later redefines the pattern name. Edge mutations never
//! change node attributes or the node set, so the frozen focal set is
//! exactly what re-evaluating the WHERE clause would produce.
//!
//! `ORDER BY` / `LIMIT` are rejected: notifications are *row deltas*
//! (focal, old, new), for which output ordering is meaningless.

use crate::parser::Statement;
use crate::value::Value;
use ego_graph::NodeId;
use ego_pattern::Pattern;

/// One compiled aggregate of a subscription.
#[derive(Clone, Debug)]
pub struct SubscriptionAgg {
    /// Projection column name, e.g. `COUNTP(tri, SUBGRAPH(ID, 1))` —
    /// notification rows reference it.
    pub column: String,
    /// The resolved pattern, owned (detached from the session catalog).
    pub pattern: Pattern,
    /// Canonical pattern DSL (cache and stats keys).
    pub pattern_dsl: String,
    /// Neighborhood radius.
    pub k: u32,
    /// `COUNTSP` subpattern name, if any.
    pub subpattern: Option<String>,
}

/// A compiled standing query: frozen focal set + resolved aggregates.
#[derive(Clone, Debug)]
pub struct SubscriptionSpec {
    /// The statement body (the SELECT, without the `SUBSCRIBE` verb).
    pub statement: String,
    /// Focal nodes, ascending (WHERE and focal shard applied).
    pub focal: Vec<NodeId>,
    /// The aggregates, in projection order.
    pub aggs: Vec<SubscriptionAgg>,
}

/// Strip a leading `SUBSCRIBE` verb, leaving the SELECT body. Statements
/// without the verb pass through unchanged (the server's `subscribe` op
/// makes the intent explicit, so the verb is optional there).
pub fn strip_subscribe(sql: &str) -> &str {
    match Statement::classify(sql) {
        Statement::Subscribe(body) => body,
        _ => sql.trim_start(),
    }
}

/// A changed row: one (focal, aggregate) pair whose count differs
/// between consecutive generations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ChangedRow {
    /// The focal node.
    pub focal: NodeId,
    /// Index into [`SubscriptionSpec::aggs`] / the subscription's
    /// column list.
    pub agg: usize,
    /// Count before the mutation batch.
    pub old: u64,
    /// Count after.
    pub new: u64,
}

impl ChangedRow {
    /// Render as a notification table row: `[focal, column, old, new]`.
    pub fn to_values(&self, columns: &[String]) -> Vec<Value> {
        vec![
            Value::Int(self.focal.0 as i64),
            Value::Str(columns[self.agg].clone()),
            Value::Int(self.old as i64),
            Value::Int(self.new as i64),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn subscribe_verb_strips() {
        assert_eq!(strip_subscribe("  subscribe SELECT 1"), " SELECT 1");
        assert_eq!(
            strip_subscribe("SUBSCRIBE SELECT ID FROM nodes").trim(),
            "SELECT ID FROM nodes"
        );
        assert_eq!(
            strip_subscribe("SELECT ID FROM nodes"),
            "SELECT ID FROM nodes"
        );
    }

    #[test]
    fn changed_row_renders() {
        let r = ChangedRow {
            focal: NodeId(3),
            agg: 0,
            old: 1,
            new: 2,
        };
        let cols = vec!["COUNTP(tri, SUBGRAPH(ID, 1))".to_string()];
        assert_eq!(
            r.to_values(&cols),
            vec![
                Value::Int(3),
                Value::Str(cols[0].clone()),
                Value::Int(1),
                Value::Int(2)
            ]
        );
    }
}
