//! Plain-text graph serialization.
//!
//! A deliberately simple, self-describing line format so generated
//! datasets can be inspected, diffed, and shared:
//!
//! ```text
//! # egocensus graph v1
//! graph <directed|undirected> nodes=<n>
//! node <id> <label> [key=value ...]
//! edge <a> <b> [key=value ...]
//! ```
//!
//! `node` lines may be omitted for nodes with label 0 and no attributes.
//! Attribute values are typed by syntax: `123` is an Int, `1.5` a Float,
//! `true`/`false` Bool, anything else a Str. String values that would
//! be ambiguous — empty, containing whitespace, `=`, `"`, control
//! characters, or text that re-parses as another type (`"123"`,
//! `"true"`) — are written double-quoted with `%XX` percent-escapes for
//! the unsafe bytes, and a quoted token always reads back as a Str.
//!
//! [`load_path`] / [`save_path`] dispatch on the file extension:
//! `.egb` selects the binary mmap format ([`crate::store`]), anything
//! else the text formats here (v1 if the first non-comment line is a
//! `graph` header, SNAP-style edge list otherwise).

use crate::attrs::AttrValue;
use crate::builder::GraphBuilder;
use crate::graph::Graph;
use crate::ids::{Label, NodeId};
use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Write};
use std::path::Path;

/// Errors from graph deserialization.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Structural problem with a text file, with a line number.
    Parse { line: usize, message: String },
    /// Structural problem with a binary file.
    Format(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::Parse { line, message } => write!(f, "parse error at line {line}: {message}"),
            IoError::Format(message) => write!(f, "invalid binary graph: {message}"),
        }
    }
}

impl std::error::Error for IoError {}

impl From<std::io::Error> for IoError {
    fn from(e: std::io::Error) -> Self {
        IoError::Io(e)
    }
}

fn parse_err(line: usize, message: impl Into<String>) -> IoError {
    IoError::Parse {
        line,
        message: message.into(),
    }
}

/// Serialize `g` to `w` in the v1 text format.
///
/// Fails with [`std::io::ErrorKind::InvalidData`] on an attribute *key*
/// that cannot appear on a `key=value` line (empty, whitespace, `=`, or
/// control characters); ambiguous `Str` *values* are quoted and escaped
/// instead (see `format_str_value`).
pub fn write_graph<W: Write>(g: &Graph, w: &mut W) -> std::io::Result<()> {
    for name in g
        .node_attrs()
        .attribute_names()
        .chain(g.edge_attrs().attribute_names())
    {
        if !valid_attr_key(name) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("attribute key `{name}` cannot be written to the text format"),
            ));
        }
    }
    let mut buf = String::new();
    writeln!(buf, "# egocensus graph v1").unwrap();
    writeln!(
        buf,
        "graph {} nodes={}",
        if g.is_directed() {
            "directed"
        } else {
            "undirected"
        },
        g.num_nodes()
    )
    .unwrap();
    for n in g.node_ids() {
        let label = g.label(n);
        let mut attrs: Vec<(String, String)> = g
            .node_attrs()
            .attribute_names()
            .filter_map(|name| {
                g.node_attr(n, name)
                    .map(|v| (name.to_string(), format_value(v)))
            })
            .collect();
        attrs.sort();
        if label != Label::UNLABELED || !attrs.is_empty() {
            write!(buf, "node {} {}", n.0, label.0).unwrap();
            for (k, v) in attrs {
                write!(buf, " {k}={v}").unwrap();
            }
            buf.push('\n');
        }
        if buf.len() > 1 << 16 {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    for (a, b) in g.edges() {
        write!(buf, "edge {} {}", a.0, b.0).unwrap();
        let mut attrs: Vec<(String, String)> = g
            .edge_attrs()
            .attribute_names()
            .filter_map(|name| {
                g.edge_attr(a, b, name)
                    .map(|v| (name.to_string(), format_value(v)))
            })
            .collect();
        attrs.sort();
        for (k, v) in attrs {
            write!(buf, " {k}={v}").unwrap();
        }
        buf.push('\n');
        if buf.len() > 1 << 16 {
            w.write_all(buf.as_bytes())?;
            buf.clear();
        }
    }
    w.write_all(buf.as_bytes())
}

fn format_value(v: &AttrValue) -> String {
    match v {
        AttrValue::Int(i) => i.to_string(),
        AttrValue::Float(f) => {
            // Ensure floats round-trip as floats even when integral.
            let s = f.to_string();
            if s.contains('.') || s.contains('e') || s.contains("inf") || s.contains("NaN") {
                s
            } else {
                format!("{s}.0")
            }
        }
        AttrValue::Str(s) => format_str_value(s),
        AttrValue::Bool(b) => b.to_string(),
    }
}

/// Serialize a `Str` value so it reads back as the same `Str`.
///
/// A plain token is written verbatim. A value that would be ambiguous —
/// empty, containing whitespace (which would split the line), `=`, `"`,
/// or control characters, or text that [`parse_value`] would type as
/// Int/Float/Bool (`"123"`, `"1.5"`, `"true"`) — is wrapped in double
/// quotes with the unsafe bytes percent-escaped; the reader decodes a
/// quoted token unconditionally as a `Str`.
fn format_str_value(s: &str) -> String {
    let needs_quoting = s.is_empty()
        || s.chars()
            .any(|c| c.is_whitespace() || c.is_control() || c == '=' || c == '"')
        || !matches!(parse_value(s), Ok(AttrValue::Str(_)));
    if !needs_quoting {
        return s.to_string();
    }
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        if c.is_whitespace() || c.is_control() || c == '=' || c == '"' || c == '%' {
            let mut utf8 = [0u8; 4];
            for byte in c.encode_utf8(&mut utf8).bytes() {
                out.push_str(&format!("%{byte:02X}"));
            }
        } else {
            out.push(c);
        }
    }
    out.push('"');
    out
}

/// True if `key` can appear verbatim on a `key=value` line.
fn valid_attr_key(key: &str) -> bool {
    !key.is_empty()
        && !key
            .chars()
            .any(|c| c.is_whitespace() || c.is_control() || c == '=')
}

fn hex_digit(b: u8) -> Option<u8> {
    match b {
        b'0'..=b'9' => Some(b - b'0'),
        b'a'..=b'f' => Some(b - b'a' + 10),
        b'A'..=b'F' => Some(b - b'A' + 10),
        _ => None,
    }
}

/// Decode the interior of a quoted string token.
fn percent_decode(s: &str) -> Result<String, String> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let (hi, lo) = match (bytes.get(i + 1), bytes.get(i + 2)) {
                (Some(&a), Some(&b)) => (hex_digit(a), hex_digit(b)),
                _ => (None, None),
            };
            match (hi, lo) {
                (Some(hi), Some(lo)) => {
                    out.push(hi << 4 | lo);
                    i += 3;
                }
                _ => return Err(format!("bad percent escape in `{s}`")),
            }
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| format!("percent escapes in `{s}` are not UTF-8"))
}

/// Type an attribute value token. `raw` is the token as it appears on
/// the line; a `"..."`-quoted token percent-decodes to a `Str`, anything
/// else is typed by syntax.
fn parse_value(raw: &str) -> Result<AttrValue, String> {
    if raw.len() >= 2 && raw.starts_with('"') && raw.ends_with('"') {
        return percent_decode(&raw[1..raw.len() - 1]).map(AttrValue::Str);
    }
    // The writer fully quotes any value containing `"` (and quoted
    // tokens cannot contain whitespace — escapes cover it), so a stray
    // quote here is always a mangled/truncated quoted string.
    if raw.contains('"') {
        return Err(format!("unterminated quoted string `{raw}`"));
    }
    if raw == "true" {
        return Ok(AttrValue::Bool(true));
    }
    if raw == "false" {
        return Ok(AttrValue::Bool(false));
    }
    if let Ok(i) = raw.parse::<i64>() {
        return Ok(AttrValue::Int(i));
    }
    if let Ok(f) = raw.parse::<f64>() {
        return Ok(AttrValue::Float(f));
    }
    Ok(AttrValue::Str(raw.to_string()))
}

/// Deserialize a graph from `r` in the v1 text format.
pub fn read_graph<R: Read>(r: R) -> Result<Graph, IoError> {
    let reader = BufReader::new(r);
    let mut builder: Option<GraphBuilder> = None;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        match parts.next() {
            Some("graph") => {
                if builder.is_some() {
                    return Err(parse_err(
                        lineno,
                        "duplicate graph header (would discard previously parsed nodes/edges)",
                    ));
                }
                let dir = parts
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing directedness"))?;
                let directed = match dir {
                    "directed" => true,
                    "undirected" => false,
                    other => return Err(parse_err(lineno, format!("bad directedness `{other}`"))),
                };
                let nodes_kv = parts
                    .next()
                    .ok_or_else(|| parse_err(lineno, "missing nodes=<n>"))?;
                let n: usize = nodes_kv
                    .strip_prefix("nodes=")
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad nodes=<n>"))?;
                let mut b = if directed {
                    GraphBuilder::directed()
                } else {
                    GraphBuilder::undirected()
                };
                b.add_nodes(n, Label::UNLABELED);
                builder = Some(b);
            }
            Some("node") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "node before graph header"))?;
                let id: u32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad node id"))?;
                let label: u16 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad label"))?;
                if id as usize >= b.num_nodes() {
                    return Err(parse_err(lineno, format!("node id {id} out of range")));
                }
                b.set_label(NodeId(id), Label(label));
                for kv in parts {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| parse_err(lineno, format!("bad attr `{kv}`")))?;
                    let value = parse_value(v).map_err(|m| parse_err(lineno, m))?;
                    b.set_node_attr(NodeId(id), k, value);
                }
            }
            Some("edge") => {
                let b = builder
                    .as_mut()
                    .ok_or_else(|| parse_err(lineno, "edge before graph header"))?;
                let a: u32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad edge source"))?;
                let c: u32 = parts
                    .next()
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| parse_err(lineno, "bad edge target"))?;
                if a as usize >= b.num_nodes() || c as usize >= b.num_nodes() {
                    return Err(parse_err(lineno, "edge endpoint out of range"));
                }
                b.add_edge(NodeId(a), NodeId(c));
                for kv in parts {
                    let (k, v) = kv
                        .split_once('=')
                        .ok_or_else(|| parse_err(lineno, format!("bad attr `{kv}`")))?;
                    let value = parse_value(v).map_err(|m| parse_err(lineno, m))?;
                    b.set_edge_attr(NodeId(a), NodeId(c), k, value);
                }
            }
            Some(other) => {
                return Err(parse_err(lineno, format!("unknown record `{other}`")));
            }
            None => unreachable!("empty lines filtered above"),
        }
    }
    builder
        .map(GraphBuilder::build)
        .ok_or_else(|| parse_err(0, "missing graph header"))
}

/// Read a plain edge list (SNAP / common research format): one `src dst`
/// pair per line, whitespace-separated, `#`/`%` comment lines ignored.
/// Node ids are taken literally (the graph allocates `0..=max_id` nodes);
/// all nodes get [`Label::UNLABELED`].
pub fn read_edge_list<R: Read>(r: R, directed: bool) -> Result<Graph, IoError> {
    let reader = BufReader::new(r);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut max_id = 0u32;
    for (idx, line) in reader.lines().enumerate() {
        let lineno = idx + 1;
        let line = line?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') || line.starts_with('%') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let a: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad source id"))?;
        let b: u32 = parts
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| parse_err(lineno, "bad target id"))?;
        max_id = max_id.max(a).max(b);
        edges.push((a, b));
    }
    let mut builder = if directed {
        GraphBuilder::directed()
    } else {
        GraphBuilder::undirected()
    };
    if !edges.is_empty() || max_id > 0 {
        builder.add_nodes(max_id as usize + 1, Label::UNLABELED);
    }
    for (a, b) in edges {
        builder.add_edge(NodeId(a), NodeId(b));
    }
    Ok(builder.build())
}

/// Load a graph from `path`, picking the storage backend by extension:
///
/// * `.egb` — the binary format, opened through the read-only mmap
///   backend ([`crate::store::open_binary`]); O(1) in graph size.
/// * anything else — text, heap-backed: the v1 format if the first
///   non-comment line is a `graph` header, otherwise a SNAP-style
///   edge list (loaded as undirected).
pub fn load_path(path: impl AsRef<Path>) -> Result<Graph, IoError> {
    let path = path.as_ref();
    if path.extension().and_then(|e| e.to_str()) == Some(crate::store::BINARY_EXTENSION) {
        return crate::store::open_binary(path);
    }
    let text = std::fs::read_to_string(path)?;
    let is_v1 = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#') && !l.starts_with('%'))
        .is_some_and(|l| l.starts_with("graph "));
    if is_v1 {
        read_graph(text.as_bytes())
    } else {
        read_edge_list(text.as_bytes(), false)
    }
}

/// Write a graph to `path`, picking the format by extension: `.egb`
/// writes the binary mmap format, anything else the v1 text format.
pub fn save_path(g: &Graph, path: impl AsRef<Path>) -> Result<(), IoError> {
    let path = path.as_ref();
    if path.extension().and_then(|e| e.to_str()) == Some(crate::store::BINARY_EXTENSION) {
        return crate::store::save_binary(g, path).map_err(IoError::Io);
    }
    let file = std::fs::File::create(path)?;
    let mut w = std::io::BufWriter::new(file);
    write_graph(g, &mut w)?;
    Ok(w.flush()?)
}

/// Serialize to an in-memory string.
pub fn to_string(g: &Graph) -> String {
    let mut out = Vec::new();
    write_graph(g, &mut out).expect("in-memory write with serializable attribute keys");
    String::from_utf8(out).expect("format is UTF-8")
}

/// Deserialize from a string.
pub fn from_str(s: &str) -> Result<Graph, IoError> {
    read_graph(s.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut b = GraphBuilder::undirected();
        let a = b.add_node(Label(1));
        let c = b.add_node(Label(0));
        let d = b.add_node(Label(2));
        b.add_edge(a, c);
        b.add_edge(c, d);
        b.set_node_attr(a, "name", "alice");
        b.set_node_attr(a, "age", 33i64);
        b.set_edge_attr(a, c, "w", 0.5f64);
        b.build()
    }

    #[test]
    fn roundtrip_undirected() {
        let g = sample();
        let text = to_string(&g);
        let g2 = from_str(&text).unwrap();
        assert_eq!(g2.num_nodes(), g.num_nodes());
        assert_eq!(g2.num_edges(), g.num_edges());
        assert!(!g2.is_directed());
        for n in g.node_ids() {
            assert_eq!(g2.label(n), g.label(n));
            assert_eq!(g2.neighbors(n), g.neighbors(n));
        }
        assert_eq!(
            g2.node_attr(NodeId(0), "name"),
            Some(&AttrValue::Str("alice".into()))
        );
        assert_eq!(g2.node_attr(NodeId(0), "age"), Some(&AttrValue::Int(33)));
        assert_eq!(
            g2.edge_attr(NodeId(0), NodeId(1), "w"),
            Some(&AttrValue::Float(0.5))
        );
    }

    #[test]
    fn roundtrip_directed() {
        let mut b = GraphBuilder::directed();
        b.add_nodes(3, Label(0));
        b.add_edge(NodeId(0), NodeId(1));
        b.add_edge(NodeId(1), NodeId(0));
        b.add_edge(NodeId(2), NodeId(0));
        let g = b.build();
        let g2 = from_str(&to_string(&g)).unwrap();
        assert!(g2.is_directed());
        assert_eq!(g2.num_edges(), 3);
        assert!(g2.has_directed_edge(NodeId(0), NodeId(1)));
        assert!(g2.has_directed_edge(NodeId(1), NodeId(0)));
        assert!(g2.has_directed_edge(NodeId(2), NodeId(0)));
        assert!(!g2.has_directed_edge(NodeId(0), NodeId(2)));
    }

    #[test]
    fn float_attrs_roundtrip_as_floats() {
        let mut b = GraphBuilder::undirected();
        let n = b.add_node(Label(0));
        b.set_node_attr(n, "x", 2.0f64);
        let g = b.build();
        let g2 = from_str(&to_string(&g)).unwrap();
        assert_eq!(g2.node_attr(NodeId(0), "x"), Some(&AttrValue::Float(2.0)));
    }

    #[test]
    fn error_on_garbage() {
        assert!(from_str("nonsense 1 2").is_err());
        assert!(from_str("").is_err());
        assert!(from_str("edge 0 1").is_err()); // before header
        assert!(from_str("graph undirected nodes=1\nedge 0 5").is_err()); // out of range
        assert!(from_str("graph sideways nodes=1").is_err());
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "# a comment\n\ngraph undirected nodes=2\n# another\nedge 0 1\n";
        let g = from_str(text).unwrap();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
    }

    #[test]
    fn edge_list_import() {
        let text = "# a SNAP-style comment\n% another\n0 1\n1 2\n2 0\n2 5\n";
        let g = read_edge_list(text.as_bytes(), false).unwrap();
        assert_eq!(g.num_nodes(), 6); // ids 0..=5, gaps become isolated nodes
        assert_eq!(g.num_edges(), 4);
        assert!(g.has_undirected_edge(NodeId(2), NodeId(5)));
        assert!(g.neighbors(NodeId(3)).is_empty());

        let d = read_edge_list("0 1\n1 0\n".as_bytes(), true).unwrap();
        assert!(d.is_directed());
        assert_eq!(d.num_edges(), 2);
    }

    #[test]
    fn edge_list_errors_and_empty() {
        assert!(read_edge_list("0 x".as_bytes(), false).is_err());
        assert!(read_edge_list("justone".as_bytes(), false).is_err());
        let empty = read_edge_list("# nothing\n".as_bytes(), false).unwrap();
        assert_eq!(empty.num_nodes(), 0);
    }

    #[test]
    fn value_parsing_types() {
        assert_eq!(parse_value("42").unwrap(), AttrValue::Int(42));
        assert_eq!(parse_value("4.5").unwrap(), AttrValue::Float(4.5));
        assert_eq!(parse_value("true").unwrap(), AttrValue::Bool(true));
        assert_eq!(
            parse_value("hello").unwrap(),
            AttrValue::Str("hello".into())
        );
    }

    #[test]
    fn ambiguous_str_values_roundtrip_as_str() {
        // Regression: these used to be written verbatim and re-read as
        // Int/Float/Bool, or to corrupt the line entirely.
        let tricky = [
            "123",
            "1.5",
            "-7",
            "true",
            "false",
            "inf",
            "NaN",
            "has space",
            "tab\there",
            "a=b",
            "\"quoted\"",
            "",
            " ",
            "50%",
            "%41",
            "mixed =\" %\nline",
            "naïve café",
        ];
        let mut b = GraphBuilder::undirected();
        let n0 = b.add_node(Label(0));
        let n1 = b.add_node(Label(0));
        b.add_edge(n0, n1);
        for (i, s) in tricky.iter().enumerate() {
            b.set_node_attr(n0, &format!("a{i}"), AttrValue::Str(s.to_string()));
            b.set_edge_attr(n0, n1, &format!("e{i}"), AttrValue::Str(s.to_string()));
        }
        let g = b.build();
        let g2 = from_str(&to_string(&g)).unwrap();
        for (i, s) in tricky.iter().enumerate() {
            assert_eq!(
                g2.node_attr(n0, &format!("a{i}")),
                Some(&AttrValue::Str(s.to_string())),
                "node attr {s:?}"
            );
            assert_eq!(
                g2.edge_attr(n0, n1, &format!("e{i}")),
                Some(&AttrValue::Str(s.to_string())),
                "edge attr {s:?}"
            );
        }
        assert_eq!(g2.fingerprint(), g.fingerprint());
    }

    #[test]
    fn unquoted_plain_strings_stay_human_readable() {
        let mut b = GraphBuilder::undirected();
        let n = b.add_node(Label(0));
        b.set_node_attr(n, "name", "alice");
        let g = b.build();
        let text = to_string(&g);
        assert!(text.contains("name=alice"), "{text}");
    }

    #[test]
    fn duplicate_graph_header_is_an_error() {
        let text = "graph undirected nodes=2\nedge 0 1\ngraph undirected nodes=9\n";
        let err = from_str(text).unwrap_err();
        match err {
            IoError::Parse { line, ref message } => {
                assert_eq!(line, 3, "error should carry the offending line");
                assert!(message.contains("duplicate graph header"), "{message}");
            }
            other => panic!("expected Parse error, got {other}"),
        }
    }

    #[test]
    fn bad_percent_escape_is_an_error() {
        let text = "graph undirected nodes=1\nnode 0 0 k=\"%zz\"\n";
        let err = from_str(text).unwrap_err();
        assert!(err.to_string().contains("percent escape"), "{err}");
    }

    #[test]
    fn unwritable_attr_key_rejected_on_write() {
        let mut b = GraphBuilder::undirected();
        let n = b.add_node(Label(0));
        b.set_node_attr(n, "bad key", 1i64);
        let g = b.build();
        let err = write_graph(&g, &mut Vec::new()).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn load_and_save_path_dispatch_on_extension() {
        let dir = std::env::temp_dir();
        let pid = std::process::id();
        let txt = dir.join(format!("egocensus_io_{pid}.txt"));
        let egb = dir.join(format!("egocensus_io_{pid}.egb"));
        let g = sample();
        save_path(&g, &txt).unwrap();
        save_path(&g, &egb).unwrap();
        let from_txt = load_path(&txt).unwrap();
        let from_egb = load_path(&egb).unwrap();
        std::fs::remove_file(&txt).ok();
        std::fs::remove_file(&egb).ok();
        assert_eq!(from_txt.storage_kind(), "mem");
        assert_eq!(from_egb.storage_kind(), "mmap");
        assert_eq!(from_txt.fingerprint(), g.fingerprint());
        assert_eq!(from_egb.fingerprint(), g.fingerprint());
    }
}
