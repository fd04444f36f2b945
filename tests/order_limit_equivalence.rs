//! `ORDER BY … LIMIT` and node-id-range `WHERE`s against their
//! definitions, through `QueryEngine::execute` only.
//!
//! - An ordered, limited statement must equal its unordered, unlimited
//!   twin, stable-sorted here by the same keys (NULLs last in both
//!   directions) and truncated. Keys range over `ID`, `LABEL`, Int and
//!   Str attributes with NULLs and ties, and census aggregates, single
//!   table and pairwise; limits over none, 0, 1, k, n and n + 5.
//! - A `WHERE` that is only an `ID` range must keep exactly the rows of
//!   its twin `NOT (ID < a OR ID > b)`, which no range binding reads.

use egocensus::graph::{Graph, GraphBuilder, Label, NodeId};
use egocensus::query::{QueryEngine, Value};
use proptest::prelude::*;
use std::cmp::Ordering;

/// A random graph whose nodes carry an Int attribute `x` and a Str
/// attribute `s` from small domains (so ties are common), each missing
/// on some nodes.
fn arb_graph() -> impl Strategy<Value = Graph> {
    (3usize..14, any::<u64>()).prop_map(|(n, seed)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let mut b = GraphBuilder::undirected();
        for i in 0..n as u32 {
            b.add_node(Label((next() % 3) as u16));
            if next() % 4 != 0 {
                b.set_node_attr(NodeId(i), "x", (next() % 5) as i64 - 2);
            }
            if next() % 4 != 0 {
                let s = ["ant", "bee", "cat"][(next() % 3) as usize];
                b.set_node_attr(NodeId(i), "s", s);
            }
        }
        for i in 0..n as u32 {
            for j in (i + 1)..n as u32 {
                if next() % 3 == 0 {
                    b.add_edge(NodeId(i), NodeId(j));
                }
            }
        }
        b.build()
    })
}

const SINGLE_COLUMNS: [&str; 6] = [
    "ID",
    "LABEL",
    "x",
    "s",
    "COUNTP(clq3_unlb, SUBGRAPH(ID, 1))",
    "COUNTP(single_edge, SUBGRAPH(ID, 2))",
];

const PAIR_COLUMNS: [&str; 6] = [
    "a.ID",
    "b.ID",
    "a.LABEL",
    "b.x",
    "a.s",
    "COUNTP(single_edge, SUBGRAPH-INTERSECTION(a.ID, b.ID, 1))",
];

/// Cell order for the test's own sort: Int and Str by value, NULL after
/// everything, whatever the direction.
fn cell_cmp(a: &Value, b: &Value, desc: bool) -> Ordering {
    let ord = match (a, b) {
        (Value::Null, Value::Null) => return Ordering::Equal,
        (Value::Null, _) => return Ordering::Greater,
        (_, Value::Null) => return Ordering::Less,
        (Value::Int(x), Value::Int(y)) => x.cmp(y),
        (Value::Str(x), Value::Str(y)) => x.cmp(y),
        other => panic!("unexpected cells {other:?}"),
    };
    if desc {
        ord.reverse()
    } else {
        ord
    }
}

/// Check one statement shape: its ordered, limited form against the
/// sorted and truncated rows of its plain form, for every limit.
fn check_order(
    g: &Graph,
    columns: &[&str],
    from_where: &str,
    keys: &[(usize, bool)],
    k: usize,
) -> Result<(), TestCaseError> {
    let e = QueryEngine::with_builtins(g);
    let select = format!("SELECT {} {from_where}", columns.join(", "));
    let plain = e.execute(&select).expect("plain statement");
    let mut want = plain.rows().to_vec();
    want.sort_by(|r1, r2| {
        keys.iter()
            .map(|&(col, desc)| cell_cmp(&r1[col], &r2[col], desc))
            .find(|o| o.is_ne())
            .unwrap_or(Ordering::Equal)
    });
    let order_by: Vec<String> = keys
        .iter()
        .map(|&(col, desc)| format!("{} {}", col + 1, if desc { "DESC" } else { "ASC" }))
        .collect();
    let ordered = format!("{select} ORDER BY {}", order_by.join(", "));
    let n = want.len();
    for limit in [None, Some(0), Some(1), Some(k.min(n)), Some(n), Some(n + 5)] {
        let sql = match limit {
            Some(l) => format!("{ordered} LIMIT {l}"),
            None => ordered.clone(),
        };
        let got = e.execute(&sql).expect("ordered statement");
        let keep = limit.unwrap_or(n).min(n);
        prop_assert_eq!(got.columns(), plain.columns(), "{}", sql);
        prop_assert_eq!(got.rows(), &want[..keep], "{}", sql);
    }
    // LIMIT with no ORDER BY keeps the first rows.
    let got = e
        .execute(&format!("{select} LIMIT {k}"))
        .expect("limit only");
    prop_assert_eq!(got.rows(), &plain.rows()[..k.min(n)]);
    Ok(())
}

/// `count` column indices (repeats allowed) and a key list over them.
fn pick(choices: &[u8], count: usize) -> Vec<usize> {
    choices
        .iter()
        .take(count)
        .map(|&c| c as usize % 6)
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn single_table_order_limit_is_sort_then_truncate(
        g in arb_graph(),
        columns in proptest::collection::vec(any::<u8>(), 1..5),
        keys in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..4),
        k in 2usize..9,
        ranged in any::<bool>(),
    ) {
        let cols: Vec<&str> = pick(&columns, 4).into_iter().map(|i| SINGLE_COLUMNS[i]).collect();
        let keys: Vec<(usize, bool)> =
            keys.iter().map(|&(c, desc)| (c as usize % cols.len(), desc)).collect();
        let from_where = if ranged {
            format!("FROM nodes WHERE ID >= 1 AND ID < {}", g.num_nodes() - 1)
        } else {
            "FROM nodes".to_string()
        };
        check_order(&g, &cols, &from_where, &keys, k)?;
    }

    #[test]
    fn pairwise_order_limit_is_sort_then_truncate(
        g in arb_graph(),
        columns in proptest::collection::vec(any::<u8>(), 1..5),
        keys in proptest::collection::vec((any::<u8>(), any::<bool>()), 1..4),
        k in 2usize..30,
    ) {
        let cols: Vec<&str> = pick(&columns, 4).into_iter().map(|i| PAIR_COLUMNS[i]).collect();
        let keys: Vec<(usize, bool)> =
            keys.iter().map(|&(c, desc)| (c as usize % cols.len(), desc)).collect();
        check_order(&g, &cols, "FROM nodes a, nodes b WHERE a.ID < 6 AND b.ID < 7", &keys, k)?;
    }

    #[test]
    fn id_range_binds_the_rows_its_twin_evaluates(
        g in arb_graph(),
        lo in -3i64..16,
        hi in -3i64..16,
        shape in 0u8..6,
    ) {
        const MIN: &str = "-9223372036854775807";
        const MAX: &str = "9223372036854775807";
        let (range, twin) = match shape {
            0 => (
                format!("FROM nodes WHERE ID >= {lo} AND ID <= {hi}"),
                format!("FROM nodes WHERE NOT (ID < {lo} OR ID > {hi})"),
            ),
            // Operands reversed.
            1 => (
                format!("FROM nodes WHERE {lo} <= ID AND {hi} >= ID"),
                format!("FROM nodes WHERE NOT ({lo} > ID OR {hi} < ID)"),
            ),
            // Alias-qualified, strict bounds, operands reversed.
            2 => (
                format!("FROM nodes n WHERE {lo} < n.ID AND {hi} > N.ID"),
                format!("FROM nodes n WHERE NOT (n.ID <= {lo} OR n.ID >= {hi})"),
            ),
            // A point.
            3 => (
                format!("FROM nodes WHERE ID = {lo}"),
                format!("FROM nodes WHERE NOT (ID < {lo} OR ID > {lo})"),
            ),
            // The extreme literals.
            4 => (
                format!("FROM nodes WHERE ID >= {MIN} AND ID <= {MAX} AND ID < {hi}"),
                format!("FROM nodes WHERE NOT (ID < {MIN} OR ID > {MAX} OR ID >= {hi})"),
            ),
            _ => (
                format!("FROM nodes WHERE ID > {MAX} AND ID > {lo}"),
                format!("FROM nodes WHERE NOT (ID <= {MAX} OR ID <= {lo})"),
            ),
        };
        let e = QueryEngine::with_builtins(&g);
        for cols in ["ID, LABEL, x", "ID, COUNTP(clq3_unlb, SUBGRAPH(ID, 1)) "] {
            let got = e.execute(&format!("SELECT {cols} {range}")).expect("range");
            let want = e.execute(&format!("SELECT {cols} {twin}")).expect("twin");
            prop_assert_eq!(got.rows(), want.rows(), "{}", range);
            let ordered = format!("SELECT {cols} {range} ORDER BY 2 DESC, 1 LIMIT 3");
            let twin_ordered = format!("SELECT {cols} {twin} ORDER BY 2 DESC, 1 LIMIT 3");
            let got = e.execute(&ordered).expect("range");
            let want = e.execute(&twin_ordered).expect("twin");
            prop_assert_eq!(got.rows(), want.rows(), "{}", ordered);
        }
    }
}
