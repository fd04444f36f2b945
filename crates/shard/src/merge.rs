//! Gather-side merging of per-shard worker responses.
//!
//! Two merge shapes exist:
//!
//! * **Result tables** (`merge_replies`): shards are contiguous
//!   node-ID ranges and every single-table census statement emits its
//!   rows in ascending focal-node order, so concatenating the per-shard
//!   tables *in shard order* reproduces the exact row order of
//!   unsharded execution. This holds for `COUNTSP` too: each worker
//!   computes the global match list itself over the shared mmap graph
//!   (broadcast of work, not of data — the list is memoized in the
//!   worker's census cache) and only the per-focal containment counts
//!   are shard-restricted. Worker replies are deterministic encodings,
//!   so the concatenation is done on their bytes
//!   ([`ego_server::splice_table_lines`]); only a gather with a leg
//!   that is not a table with leg 0's columns is decoded and merged as
//!   values ([`merge_tables`]).
//! * **Stats tables** ([`merge_stats`]): per-worker counters are
//!   combined by a per-key rule — `min`/`max` for latency extrema,
//!   recomputed quotient for latency means, `max` for the graph
//!   generation, `min` for the mmap-backed flag (all workers should map
//!   the same file), and plain sum for everything else.

use ego_query::Value;
use ego_server::{splice_table_lines, Response, TableData};
use std::collections::BTreeMap;

/// The merged reply to a scattered statement, from its per-shard reply
/// lines in shard order: spliced when every leg is a table with leg 0's
/// columns, otherwise decoded — the first error in shard order wins,
/// then [`merge_tables`]' column check.
pub(crate) fn merge_replies(legs: &[String]) -> String {
    if let Some(line) = splice_table_lines(legs) {
        return line;
    }
    let mut tables = Vec::with_capacity(legs.len());
    for (j, leg) in legs.iter().enumerate() {
        match Response::decode(leg) {
            Ok(Response::Table(t)) => tables.push(t),
            Ok(Response::Error { message }) => return Response::error(message).encode(),
            Ok(Response::Notify(_)) => {
                return Response::error(format!("shard {j} answered with a notify frame")).encode()
            }
            Err(e) => return Response::error(format!("shard {j}: bad response: {e}")).encode(),
        }
    }
    match merge_tables(&tables) {
        Ok(merged) => Response::Table(merged).encode(),
        Err(message) => Response::error(message).encode(),
    }
}

/// Concatenate per-shard result tables in shard order.
///
/// All parts must agree on the column list; a mismatch means the
/// workers executed different plans and the merged table would be
/// garbage, so it is reported as an error instead.
pub fn merge_tables(parts: &[TableData]) -> Result<TableData, String> {
    let mut merged = match parts.first() {
        Some(first) => TableData {
            columns: first.columns.clone(),
            rows: Vec::new(),
        },
        None => return Err("no shard responses to merge".into()),
    };
    for (i, part) in parts.iter().enumerate() {
        if part.columns != merged.columns {
            return Err(format!(
                "shard {i} returned columns {:?}, expected {:?}",
                part.columns, merged.columns
            ));
        }
        merged.rows.extend(part.rows.iter().cloned());
    }
    Ok(merged)
}

/// How one `stats` key combines across workers.
fn combine(key: &str, values: &[i64]) -> i64 {
    if key.ends_with("_min_us") || key == "graph_mmap_backed" {
        values.iter().copied().min().unwrap_or(0)
    } else if key.ends_with("_max_us") || key == "graph_generation" {
        values.iter().copied().max().unwrap_or(0)
    } else {
        values.iter().sum()
    }
}

/// Aggregate per-worker `stats` tables into one sorted key/value list.
///
/// Keys absent on some workers (per-op latency rows appear only once
/// the op has run there) aggregate over the workers that report them.
/// `latency_*_mean_us` is not averaged — it is recomputed from the
/// summed `_total_us` and `_count` so the merged mean is the true
/// fleet-wide mean.
pub fn merge_stats(parts: &[TableData]) -> Vec<(String, i64)> {
    let mut by_key: BTreeMap<String, Vec<i64>> = BTreeMap::new();
    for part in parts {
        for row in &part.rows {
            if let (Some(Value::Str(name)), Some(value)) =
                (row.first(), row.get(1).and_then(Value::as_int))
            {
                by_key.entry(name.clone()).or_default().push(value);
            }
        }
    }
    let totals: BTreeMap<String, i64> = by_key
        .iter()
        .filter(|(k, _)| k.ends_with("_total_us") || k.ends_with("_count"))
        .map(|(k, v)| (k.clone(), v.iter().sum()))
        .collect();
    by_key
        .iter()
        .map(|(key, values)| {
            let merged = match key.strip_suffix("_mean_us") {
                Some(base) => {
                    let total = totals.get(&format!("{base}_total_us")).copied();
                    let count = totals.get(&format!("{base}_count")).copied();
                    match (total, count) {
                        (Some(t), Some(c)) if c > 0 => t / c,
                        // No matching total/count rows: fall back to the
                        // worst per-worker mean rather than inventing one.
                        _ => values.iter().copied().max().unwrap_or(0),
                    }
                }
                None => combine(key, values),
            };
            (key.clone(), merged)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn table(columns: &[&str], rows: Vec<Vec<Value>>) -> TableData {
        TableData {
            columns: columns.iter().map(|c| c.to_string()).collect(),
            rows,
        }
    }

    fn kv(rows: &[(&str, i64)]) -> TableData {
        table(
            &["stat", "value"],
            rows.iter()
                .map(|(k, v)| vec![Value::Str(k.to_string()), Value::Int(*v)])
                .collect(),
        )
    }

    #[test]
    fn concat_preserves_shard_order() {
        let a = table(&["ID", "c"], vec![vec![Value::Int(0), Value::Int(7)]]);
        let b = table(&["ID", "c"], vec![]);
        let c = table(
            &["ID", "c"],
            vec![
                vec![Value::Int(1), Value::Int(3)],
                vec![Value::Int(2), Value::Int(4)],
            ],
        );
        let merged = merge_tables(&[a, b, c]).unwrap();
        assert_eq!(merged.columns, vec!["ID", "c"]);
        let ids: Vec<_> = merged.rows.iter().map(|r| r[0].as_int().unwrap()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn column_mismatch_is_an_error() {
        let a = table(&["ID"], vec![]);
        let b = table(&["ID", "extra"], vec![]);
        let err = merge_tables(&[a, b]).unwrap_err();
        assert!(err.contains("shard 1"), "{err}");
    }

    #[test]
    fn empty_part_list_is_an_error() {
        assert!(merge_tables(&[]).is_err());
    }

    fn line(columns: &[&str], rows: Vec<Vec<Value>>) -> String {
        Response::Table(table(columns, rows)).encode()
    }

    /// The reference gather: decode every leg, first error wins, then
    /// `merge_tables`, re-encoded.
    fn decoded_merge(legs: &[String]) -> String {
        let parts: Vec<Response> = legs.iter().map(|l| Response::decode(l).unwrap()).collect();
        if let Some(e) = parts.iter().find(|r| r.is_error()) {
            return e.encode();
        }
        let tables: Vec<TableData> = parts
            .into_iter()
            .map(|r| match r {
                Response::Table(t) => t,
                other => panic!("{other:?}"),
            })
            .collect();
        match merge_tables(&tables) {
            Ok(t) => Response::Table(t).encode(),
            Err(message) => Response::error(message).encode(),
        }
    }

    #[test]
    fn splice_equals_the_decoded_merge_with_empty_legs() {
        let cols = ["ID", "c"];
        let row = |i: i64| vec![Value::Int(i), Value::Str(format!("r{i}"))];
        let full = |ids: &[i64]| line(&cols, ids.iter().map(|&i| row(i)).collect());
        for legs in [
            vec![full(&[0, 1]), full(&[2])],
            // More shards than nodes: empty tails, an empty first leg,
            // an empty middle, every leg empty.
            vec![full(&[0]), full(&[]), full(&[])],
            vec![full(&[]), full(&[0, 1]), full(&[2])],
            vec![full(&[0]), full(&[]), full(&[1])],
            vec![full(&[]), full(&[]), full(&[])],
            vec![full(&[5])],
        ] {
            let spliced = splice_table_lines(&legs).expect("tables with one head splice");
            assert_eq!(spliced, decoded_merge(&legs), "{legs:?}");
            assert_eq!(merge_replies(&legs), spliced);
        }
        assert_eq!(splice_table_lines(&[]), None);
        assert_eq!(
            merge_replies(&[]),
            Response::error("no shard responses to merge").encode()
        );
    }

    #[test]
    fn an_error_on_a_later_leg_is_returned_as_its_bytes() {
        let ok = line(&["ID"], vec![vec![Value::Int(0)]]);
        let err = Response::error("unknown pattern `t` \"é\"").encode();
        let other = Response::error("second").encode();
        for (legs, want) in [
            (vec![ok.clone(), err.clone()], &err),
            (
                vec![ok.clone(), ok.clone(), err.clone(), other.clone()],
                &err,
            ),
            (vec![other.clone(), err.clone()], &other),
            // An error outranks a column mismatch on an earlier leg.
            (vec![ok.clone(), line(&["x"], vec![]), err.clone()], &err),
        ] {
            assert_eq!(splice_table_lines(&legs), None);
            assert_eq!(&merge_replies(&legs), want);
            assert_eq!(&decoded_merge(&legs), want);
        }
    }

    #[test]
    fn a_column_mismatch_keeps_its_message() {
        let legs = [
            line(&["ID", "c"], vec![vec![Value::Int(0), Value::Int(1)]]),
            line(&["ID", "c"], vec![]),
            line(&["ID", "d"], vec![vec![Value::Int(2), Value::Int(3)]]),
        ];
        assert_eq!(splice_table_lines(&legs), None);
        assert_eq!(
            merge_replies(&legs),
            Response::error(r#"shard 2 returned columns ["ID", "d"], expected ["ID", "c"]"#)
                .encode()
        );
        assert_eq!(merge_replies(&legs), decoded_merge(&legs));
    }

    /// Column names and cells holding the splice delimiter, quotes,
    /// backslashes and multi-byte text: inside a JSON string every `"`
    /// is escaped, so the first `,"rows":[` is still the structural one.
    #[test]
    fn escaped_text_that_spells_the_delimiter_splices() {
        let cols = [r#","rows":["#, "a\"b\\c", "é😀"];
        let cell = |s: &str| Value::Str(s.to_string());
        let legs = [
            line(
                &cols,
                vec![vec![cell(r#"]],"rows":[[""#), cell("\\"), cell("\n")]],
            ),
            line(&cols, vec![]),
            line(
                &cols,
                vec![vec![cell(r#","rows":["#), cell("é"), cell("\u{1}")]],
            ),
        ];
        let spliced = splice_table_lines(&legs).expect("one head");
        assert_eq!(spliced, decoded_merge(&legs));
        let Response::Table(t) = Response::decode(&spliced).unwrap() else {
            panic!("{spliced}")
        };
        assert_eq!(t.columns, cols);
        assert_eq!(t.rows.len(), 2);
    }

    #[test]
    fn stats_suffix_rules() {
        let a = kv(&[
            ("cache_hits", 3),
            ("graph_generation", 2),
            ("graph_mmap_backed", 1),
            ("latency_query_count", 2),
            ("latency_query_max_us", 50),
            ("latency_query_mean_us", 30),
            ("latency_query_min_us", 10),
            ("latency_query_total_us", 60),
        ]);
        let b = kv(&[
            ("cache_hits", 4),
            ("graph_generation", 1),
            ("graph_mmap_backed", 0),
            ("latency_query_count", 1),
            ("latency_query_max_us", 90),
            ("latency_query_mean_us", 90),
            ("latency_query_min_us", 90),
            ("latency_query_total_us", 90),
        ]);
        let merged: BTreeMap<_, _> = merge_stats(&[a, b]).into_iter().collect();
        assert_eq!(merged["cache_hits"], 7); // sum
        assert_eq!(merged["graph_generation"], 2); // max (one lags)
        assert_eq!(merged["graph_mmap_backed"], 0); // min (one not mmap'd)
        assert_eq!(merged["latency_query_count"], 3);
        assert_eq!(merged["latency_query_max_us"], 90);
        assert_eq!(merged["latency_query_min_us"], 10);
        assert_eq!(merged["latency_query_total_us"], 150);
        assert_eq!(merged["latency_query_mean_us"], 50); // 150/3, not avg(30,90)
    }

    #[test]
    fn stats_keys_missing_on_some_workers() {
        let a = kv(&[("latency_define_count", 1), ("requests", 5)]);
        let b = kv(&[("requests", 2)]);
        let merged: BTreeMap<_, _> = merge_stats(&[a, b]).into_iter().collect();
        assert_eq!(merged["latency_define_count"], 1);
        assert_eq!(merged["requests"], 7);
    }
}
