//! The response codec against its oracle, the tree codec it replaced
//! (`oracle/mod.rs`). The benchmark's correctness gate compares replies
//! with `Response::encode` of the same build, so it cannot see a change
//! in wire format; these tests pin the bytes.
//!
//! For random tables, notify frames and errors:
//! * the direct writer's bytes equal the oracle's;
//! * the direct reader inverts the writer;
//! * the direct reader returns what the oracle's reader returns — the
//!   same response or the same diagnostic — on encoded lines and on
//!   lines spelled other ways (field order, duplicates, whitespace,
//!   unknown fields, nested cells, wrong types, damage).

mod oracle;

use ego_query::Value;
use ego_server::{NotifyFrame, Response, TableData};

/// xorshift64: the tests need variety, not statistics.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len())]
    }
}

/// Pieces strings are made of: plain text, the characters JSON escapes,
/// a control character the writer spells `\u00xx`, DEL (not escaped),
/// multi-byte text, and the splice delimiter itself.
const PIECES: [&str; 14] = [
    "a",
    "ID",
    " ",
    "\"",
    "\\",
    "\n",
    "\r",
    "\t",
    "\u{1}",
    "\u{1f}\u{7f}",
    "é",
    "😀",
    "/",
    r#","rows":["#,
];

fn string(rng: &mut Rng) -> String {
    (0..rng.below(6)).map(|_| *rng.pick(&PIECES)).collect()
}

fn value(rng: &mut Rng) -> Value {
    match rng.below(6) {
        0 => Value::Int(*rng.pick(&[i64::MIN, i64::MAX, 0, -1, 1, 9_007_199_254_740_993])),
        1 => Value::Int(rng.next() as i64 >> rng.below(64)),
        2 => Value::Float(*rng.pick(&[
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            1.0,
            1e300,
            -2.5e-300,
            0.1,
            f64::MIN_POSITIVE,
            f64::MAX,
        ])),
        3 => Value::Float(f64::from_bits(rng.next())),
        4 => Value::Str(string(rng)),
        _ => rng
            .pick(&[Value::Bool(true), Value::Bool(false), Value::Null])
            .clone(),
    }
}

fn grid(rng: &mut Rng) -> (Vec<String>, Vec<Vec<Value>>) {
    let width = rng.below(5);
    let columns = (0..width).map(|_| string(rng)).collect();
    let rows = (0..rng.below(12))
        .map(|_| (0..width).map(|_| value(rng)).collect())
        .collect();
    (columns, rows)
}

fn response(rng: &mut Rng) -> Response {
    match rng.below(3) {
        0 => {
            let (columns, rows) = grid(rng);
            Response::Table(TableData { columns, rows })
        }
        1 => {
            let (columns, rows) = grid(rng);
            // Past `i64::MAX` the id is written negative, which no
            // reader accepts; cover both sides.
            let id = |rng: &mut Rng| match rng.below(4) {
                0 => u64::MAX - rng.next() % 4,
                _ => rng.next() >> rng.below(64),
            };
            Response::Notify(NotifyFrame {
                subscription: id(rng),
                generation: id(rng),
                columns,
                rows,
            })
        }
        _ => Response::error(string(rng)),
    }
}

/// What a response reads back as: a float JSON cannot carry reads as
/// `null`.
fn wire_image(r: &Response) -> Response {
    let cells = |rows: &[Vec<Value>]| -> Vec<Vec<Value>> {
        rows.iter()
            .map(|row| {
                row.iter()
                    .map(|v| match v {
                        Value::Float(f) if !f.is_finite() => Value::Null,
                        v => v.clone(),
                    })
                    .collect()
            })
            .collect()
    };
    match r {
        Response::Table(t) => Response::Table(TableData {
            columns: t.columns.clone(),
            rows: cells(&t.rows),
        }),
        Response::Notify(f) => Response::Notify(NotifyFrame {
            rows: cells(&f.rows),
            ..f.clone()
        }),
        Response::Error { .. } => r.clone(),
    }
}

/// `PartialEq` on `Value::Float` says `-0.0 == 0.0`; the sign must
/// survive too.
fn same_bits(a: &Response, b: &Response) -> bool {
    let rows = |r: &Response| match r {
        Response::Table(t) => t.rows.clone(),
        Response::Notify(f) => f.rows.clone(),
        Response::Error { .. } => Vec::new(),
    };
    let bits = |v: &Value| match v {
        Value::Float(f) => Some(f.to_bits()),
        _ => None,
    };
    rows(a)
        .iter()
        .flatten()
        .zip(rows(b).iter().flatten())
        .all(|(x, y)| bits(x) == bits(y))
}

#[test]
fn writer_matches_the_oracle_and_reader_inverts_it() {
    let mut rng = Rng(0x5EED_C0DE);
    for case in 0..3000 {
        let r = response(&mut rng);
        let line = r.encode();
        assert_eq!(line, oracle::encode(&r), "case {case}: {r:?}");
        let read = Response::decode(&line);
        assert_eq!(read, oracle::decode(&line), "case {case}: {line}");
        let ids_fit = match &r {
            Response::Notify(f) => f.subscription.max(f.generation) <= i64::MAX as u64,
            _ => true,
        };
        if ids_fit {
            let read = read.unwrap_or_else(|e| panic!("case {case}: {e}: {line}"));
            assert_eq!(read, wire_image(&r), "case {case}: {line}");
            assert!(same_bits(&read, &wire_image(&r)), "case {case}: {line}");
        } else {
            assert!(read.is_err(), "case {case}: {line}");
        }
    }
}

#[test]
fn pinned_lines_are_unchanged() {
    let table = Response::Table(TableData {
        columns: vec!["ID".into(), "a\"b\\c\u{1}é".into()],
        rows: vec![
            vec![Value::Int(i64::MIN), Value::Float(1.0)],
            vec![Value::Int(i64::MAX), Value::Float(-0.0)],
            vec![Value::Null, Value::Float(f64::NAN)],
            vec![Value::Bool(true), Value::Str("😀\n".into())],
        ],
    });
    assert_eq!(
        table.encode(),
        r#"{"ok":true,"type":"table","columns":["ID","a\"b\\c\u0001é"],"rows":[[-9223372036854775808,1.0],[9223372036854775807,-0.0],[null,null],[true,"😀\n"]]}"#
    );
    let frame = Response::Notify(NotifyFrame {
        subscription: 3,
        generation: 9,
        columns: vec!["c".into()],
        rows: vec![vec![
            Value::Int(4),
            Value::Str("c".into()),
            Value::Int(0),
            Value::Int(1),
        ]],
    });
    assert_eq!(
        frame.encode(),
        r#"{"ok":true,"type":"notify","subscription":3,"generation":9,"columns":["c"],"rows":[[4,"c",0,1]]}"#
    );
    assert_eq!(
        Response::error("no \"t\"").encode(),
        r#"{"ok":false,"type":"error","message":"no \"t\""}"#
    );
}

/// Lines no writer produces, each read by both readers: the outcome —
/// response or diagnostic — must be the same.
#[test]
fn reader_agrees_with_the_oracle_off_the_encoded_form() {
    let lines = [
        // Field order, whitespace, duplicates (first wins), unknowns.
        r#" { "rows" : [ [ 1 , "x" ] ] , "columns" : [ "a" , "b" ] , "type" : "table" } "#,
        r#"{"type":"table","type":"error","columns":["a"],"rows":[[1]],"columns":7}"#,
        r#"{"type":"table","columns":["a"],"rows":[[1]],"extra":{"k":[1,{"z":null}]}}"#,
        r#"{"type":"error"}"#,
        r#"{"type":"error","message":5,"message":"late"}"#,
        r#"{"type":"notify","columns":[],"rows":[],"generation":2,"subscription":1}"#,
        r#"{"type":"notify","columns":[],"rows":[],"subscription":1.0,"generation":2}"#,
        r#"{"type":"notify","columns":[],"rows":[],"subscription":-1,"generation":2}"#,
        r#"{"type":"notify","columns":[],"rows":[],"subscription":1}"#,
        r#"{"type":"notify","columns":[],"rows":[[1]],"subscription":"1","generation":2}"#,
        r#"{"type":"notify","columns":[1],"rows":[[1]],"subscription":1,"generation":2}"#,
        // Nested cells become their rendered text; numbers at the edges.
        r#"{"type":"table","columns":["a"],"rows":[[[1,2]],[{"k":"v"}],[-0],[007]]}"#,
        r#"{"type":"table","columns":["a"],"rows":[[9223372036854775807],[9223372036854775808]]}"#,
        r#"{"type":"table","columns":["a"],"rows":[[-9223372036854775808],[-9223372036854775809]]}"#,
        r#"{"type":"table","columns":["a"],"rows":[[1e2],[1E-2],[-.5],[2.]]}"#,
        // Escapes in keys and values.
        r#"{"type":"table","columns":["é😀\/"],"rows":[]}"#,
        // Wrong types and missing fields.
        r#"{"type":"table","columns":"a","rows":[]}"#,
        r#"{"type":"table","columns":[1],"rows":[]}"#,
        r#"{"type":"table","columns":["a"],"rows":[1]}"#,
        r#"{"type":"table","columns":["a"]}"#,
        r#"{"type":"table","rows":[]}"#,
        r#"{"type":"tables","columns":[],"rows":[]}"#,
        r#"{"type":7}"#,
        "{}",
        "[]",
        r#""table""#,
        "null",
        // Malformed JSON: every reader reports the same position.
        "",
        "{",
        r#"{"type":"table","columns":["a"],"rows":[[1,]]}"#,
        r#"{"type":"table","columns":["a"],"rows":[[1]],}"#,
        r#"{"type":"table","columns":["a"],"rows":[[1]]} x"#,
        r#"{"type":"table","columns":["a"],"rows":[[tru]]}"#,
        r#"{"type":"table","columns":["a"],"rows":[[-]]}"#,
        r#"{"type":"table","columns":["a\q"],"rows":[]}"#,
        r#"{"type":"table","columns":["\ud800"],"rows":[]}"#,
        r#"{"type":"table","columns":["a"],"rows":[[1 2]]}"#,
        r#"{"type" "table"}"#,
        r#"{type:"table"}"#,
        r#"{"type":"table","columns":["a"],"rows":[[1]]"#,
        r#"{"type":"table","columns":["a"],"rows":[["é"#,
    ];
    for line in lines {
        assert_eq!(Response::decode(line), oracle::decode(line), "{line}");
    }
}

/// Every truncation of, and a byte flip at every position of, encoded
/// lines: both readers agree on each.
#[test]
fn damaged_lines_are_read_as_the_oracle_reads_them() {
    let mut rng = Rng(0x00DA_3A6E);
    for _ in 0..40 {
        let line = response(&mut rng).encode();
        let bytes = line.as_bytes();
        for at in 0..bytes.len() {
            let cut = String::from_utf8_lossy(&bytes[..at]);
            assert_eq!(Response::decode(&cut), oracle::decode(&cut), "{cut}");
            let mut flipped = bytes.to_vec();
            flipped[at] = *rng.pick(b"\"\\,:[]{}0-.eEtfn x\x01");
            let flipped = String::from_utf8_lossy(&flipped);
            assert_eq!(
                Response::decode(&flipped),
                oracle::decode(&flipped),
                "{flipped}"
            );
        }
    }
}
