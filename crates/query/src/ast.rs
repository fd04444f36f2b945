//! Abstract syntax tree for census SQL.

use crate::value::Value;

/// A reference to a column, optionally qualified by a table alias:
/// `ID`, `n1.ID`, `age`, `n2.dept`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ColumnRef {
    /// Table alias (`n1` in `n1.ID`), if qualified.
    pub table: Option<String>,
    /// Column name; `ID` is the node id, anything else an attribute.
    pub column: String,
}

impl ColumnRef {
    /// Is this the node-id pseudo column?
    pub fn is_id(&self) -> bool {
        self.column.eq_ignore_ascii_case("ID")
    }

    /// The reference as written: `n1.ID`, `age`.
    pub(crate) fn name(&self) -> String {
        match &self.table {
            Some(t) => format!("{t}.{}", self.column),
            None => self.column.clone(),
        }
    }
}

/// The census neighborhood inside an aggregate call.
#[derive(Clone, Debug, PartialEq)]
pub enum NeighborhoodAst {
    /// `SUBGRAPH(<col>, k)`
    Subgraph {
        /// The focal node column (must be an ID column).
        node: ColumnRef,
        /// Radius.
        k: u32,
    },
    /// `SUBGRAPH-INTERSECTION(<col>, <col>, k)`
    Intersection {
        /// First node.
        n1: ColumnRef,
        /// Second node.
        n2: ColumnRef,
        /// Radius.
        k: u32,
    },
    /// `SUBGRAPH-UNION(<col>, <col>, k)`
    Union {
        /// First node.
        n1: ColumnRef,
        /// Second node.
        n2: ColumnRef,
        /// Radius.
        k: u32,
    },
}

/// `COUNTP(p, S)` or `COUNTSP(sp, p, S)`.
#[derive(Clone, Debug, PartialEq)]
pub struct AggCall {
    /// Subpattern name for COUNTSP; `None` for COUNTP.
    pub subpattern: Option<String>,
    /// Pattern name (resolved against the catalog).
    pub pattern: String,
    /// The search neighborhood.
    pub neighborhood: NeighborhoodAst,
}

/// One SELECT-list item.
#[derive(Clone, Debug, PartialEq)]
pub enum Projection {
    /// A plain column.
    Column(ColumnRef),
    /// A census aggregate.
    Agg(AggCall),
}

impl Projection {
    /// The item as written, canonically spaced: its result column's name.
    pub(crate) fn name(&self) -> String {
        let a = match self {
            Projection::Column(c) => return c.name(),
            Projection::Agg(a) => a,
        };
        let nb = match &a.neighborhood {
            NeighborhoodAst::Subgraph { node, k } => format!("SUBGRAPH({}, {k})", node.name()),
            NeighborhoodAst::Intersection { n1, n2, k } => {
                format!("SUBGRAPH-INTERSECTION({}, {}, {k})", n1.name(), n2.name())
            }
            NeighborhoodAst::Union { n1, n2, k } => {
                format!("SUBGRAPH-UNION({}, {}, {k})", n1.name(), n2.name())
            }
        };
        match &a.subpattern {
            Some(sp) => format!("COUNTSP({sp}, {}, {nb})", a.pattern),
            None => format!("COUNTP({}, {nb})", a.pattern),
        }
    }
}

/// Binary operators in WHERE expressions.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinOp {
    /// `AND`
    And,
    /// `OR`
    Or,
    /// `=`
    Eq,
    /// `!=` / `<>`
    Ne,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

/// A WHERE expression.
#[derive(Clone, Debug, PartialEq)]
pub enum Expr {
    /// Literal value.
    Literal(Value),
    /// Column reference.
    Column(ColumnRef),
    /// `RND()`: uniform random float in `[0, 1)`, fresh per row — the
    /// paper's focal-selectivity predicate (`WHERE RND() < R`).
    Rnd,
    /// Binary operation.
    Binary {
        /// Operator.
        op: BinOp,
        /// Left operand.
        lhs: Box<Expr>,
        /// Right operand.
        rhs: Box<Expr>,
    },
    /// `NOT expr`.
    Not(Box<Expr>),
}

/// A table in the FROM list: always the `nodes` relation, possibly aliased.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TableRef {
    /// The alias (defaults to the table name `nodes`).
    pub alias: String,
}

/// Sort direction in ORDER BY.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SortDir {
    /// Ascending (default).
    Asc,
    /// Descending.
    Desc,
}

/// One ORDER BY key: a 1-based projection ordinal (`ORDER BY 2 DESC`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct OrderKey {
    /// 1-based index into the SELECT list.
    pub ordinal: usize,
    /// Direction.
    pub dir: SortDir,
}

/// A parsed SELECT statement.
#[derive(Clone, Debug, PartialEq)]
pub struct SelectStmt {
    /// SELECT-list items.
    pub projections: Vec<Projection>,
    /// FROM tables (1 = single-node census, 2 = pairwise).
    pub tables: Vec<TableRef>,
    /// Optional WHERE clause.
    pub where_clause: Option<Expr>,
    /// ORDER BY keys (projection ordinals).
    pub order_by: Vec<OrderKey>,
    /// LIMIT row count.
    pub limit: Option<usize>,
}

/// Which way a graph mutation statement goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MutationKind {
    /// `INSERT EDGE (a, b)`.
    InsertEdge,
    /// `DELETE EDGE (a, b)`.
    DeleteEdge,
}

/// A parsed `INSERT EDGE` / `DELETE EDGE` statement. The query engine
/// itself is read-only; mutation hosts (the server's `update` op, the
/// CLI's `mutate` subcommand) parse scripts with
/// [`crate::parse_mutations`] and apply them through `ego-dynamic`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MutationStmt {
    /// Insert or delete.
    pub kind: MutationKind,
    /// Source node id (`a -> b` for directed graphs).
    pub a: u32,
    /// Target node id.
    pub b: u32,
}

/// A parsed `MATERIALIZE <pattern> RADIUS k [SUBPATTERN sp] [MATCHES]`
/// statement: eagerly compute and pin the full per-focal count vector
/// (and, with `MATCHES`, the global match list) for the pattern into the
/// engine's view registry.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct MaterializeStmt {
    /// Pattern name, resolved against the catalog at execution time.
    pub pattern: String,
    /// Neighborhood radius for the materialized counts.
    pub k: u32,
    /// Materialize COUNTSP counts for this subpattern instead of COUNTP.
    pub subpattern: Option<String>,
    /// Also pin the global match list (enables subscription baselines
    /// and exact-list incremental maintenance).
    pub matches: bool,
}

/// A parsed `DROP VIEW <pattern> RADIUS k [SUBPATTERN sp]` statement.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DropViewStmt {
    /// Pattern name of the view to drop.
    pub pattern: String,
    /// Radius of the view to drop.
    pub k: u32,
    /// Subpattern of the view to drop, for COUNTSP views.
    pub subpattern: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn column_ref_id_detection() {
        let c = ColumnRef {
            table: None,
            column: "id".into(),
        };
        assert!(c.is_id());
        let c2 = ColumnRef {
            table: Some("n1".into()),
            column: "age".into(),
        };
        assert!(!c2.is_id());
    }
}
