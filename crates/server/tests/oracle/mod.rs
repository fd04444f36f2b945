//! The tree codec for responses, kept as the oracle the direct writer
//! and reader in `protocol.rs` are checked against: a response is built
//! as a [`Json`] object and rendered, and a line is parsed into a
//! [`Json`] value and then looked up field by field.
//!
//! Shared by `crates/server/tests/codec.rs` and the root package's
//! `tests/server.rs` (which includes it by path).

use ego_query::Value;
use ego_server::json::Json;
use ego_server::{NotifyFrame, Response, TableData};

/// Encode `r` through a [`Json`] tree.
pub fn encode(r: &Response) -> String {
    let (ok, kind) = match r {
        Response::Table(_) => (true, "table"),
        Response::Notify(_) => (true, "notify"),
        Response::Error { .. } => (false, "error"),
    };
    let mut fields = vec![
        ("ok".to_string(), Json::Bool(ok)),
        ("type".to_string(), Json::Str(kind.into())),
    ];
    match r {
        Response::Table(t) => fields.extend(grid(&t.columns, &t.rows)),
        Response::Notify(f) => {
            fields.push(("subscription".into(), Json::Int(f.subscription as i64)));
            fields.push(("generation".into(), Json::Int(f.generation as i64)));
            fields.extend(grid(&f.columns, &f.rows));
        }
        Response::Error { message } => {
            fields.push(("message".into(), Json::Str(message.clone())));
        }
    }
    Json::Obj(fields).render()
}

fn grid(columns: &[String], rows: &[Vec<Value>]) -> [(String, Json); 2] {
    let columns = Json::Arr(columns.iter().cloned().map(Json::Str).collect());
    let rows = Json::Arr(
        rows.iter()
            .map(|r| Json::Arr(r.iter().map(to_json).collect()))
            .collect(),
    );
    [("columns".into(), columns), ("rows".into(), rows)]
}

fn to_json(v: &Value) -> Json {
    match v {
        Value::Int(i) => Json::Int(*i),
        Value::Float(f) => Json::Float(*f),
        Value::Str(s) => Json::Str(s.clone()),
        Value::Bool(b) => Json::Bool(*b),
        Value::Null => Json::Null,
    }
}

/// Decode `line` through a [`Json`] tree.
pub fn decode(line: &str) -> Result<Response, String> {
    let v = Json::parse(line).map_err(|e| e.to_string())?;
    match v.get("type").and_then(Json::as_str) {
        Some("error") => Ok(Response::Error {
            message: v
                .get("message")
                .and_then(Json::as_str)
                .unwrap_or("unknown error")
                .to_string(),
        }),
        Some("table") => {
            let (columns, rows) = grid_from(&v, "table response")?;
            Ok(Response::Table(TableData { columns, rows }))
        }
        Some("notify") => {
            let uint = |name: &str| -> Result<u64, String> {
                v.get(name)
                    .and_then(Json::as_i64)
                    .filter(|&i| i >= 0)
                    .map(|i| i as u64)
                    .ok_or(format!("notify frame missing `{name}`"))
            };
            let (columns, rows) = grid_from(&v, "notify frame")?;
            Ok(Response::Notify(NotifyFrame {
                subscription: uint("subscription")?,
                generation: uint("generation")?,
                columns,
                rows,
            }))
        }
        _ => Err("response must have type `table`, `notify`, or `error`".into()),
    }
}

type Grid = (Vec<String>, Vec<Vec<Value>>);

fn grid_from(v: &Json, what: &str) -> Result<Grid, String> {
    let columns = v
        .get("columns")
        .and_then(Json::as_array)
        .ok_or(format!("{what} missing `columns`"))?
        .iter()
        .map(|c| c.as_str().map(str::to_string).ok_or("non-string column"))
        .collect::<Result<Vec<_>, _>>()?;
    let rows = v
        .get("rows")
        .and_then(Json::as_array)
        .ok_or(format!("{what} missing `rows`"))?
        .iter()
        .map(|r| {
            r.as_array()
                .ok_or("non-array row")
                .map(|cells| cells.iter().map(from_json).collect::<Vec<_>>())
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok((columns, rows))
}

fn from_json(v: &Json) -> Value {
    match v {
        Json::Int(i) => Value::Int(*i),
        Json::Float(f) => Value::Float(*f),
        Json::Str(s) => Value::Str(s.clone()),
        Json::Bool(b) => Value::Bool(*b),
        Json::Null => Value::Null,
        other => Value::Str(other.render()),
    }
}
