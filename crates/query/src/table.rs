//! Result tables.

use crate::value::Value;
use std::fmt;

/// A query result: named columns and rows of values.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    columns: Vec<String>,
    rows: Vec<Vec<Value>>,
}

impl Table {
    /// Create a table with the given column names.
    pub fn new(columns: Vec<String>) -> Self {
        Table {
            columns,
            rows: Vec::new(),
        }
    }

    /// Append a row.
    ///
    /// # Panics
    /// If the row width differs from the column count.
    pub fn push_row(&mut self, row: Vec<Value>) {
        assert_eq!(row.len(), self.columns.len(), "row width mismatch");
        self.rows.push(row);
    }

    /// Column names.
    pub fn columns(&self) -> &[String] {
        &self.columns
    }

    /// All rows.
    pub fn rows(&self) -> &[Vec<Value>] {
        &self.rows
    }

    /// The column names and rows, moved out.
    pub fn into_parts(self) -> (Vec<String>, Vec<Vec<Value>>) {
        (self.columns, self.rows)
    }

    /// Number of rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Index of a column by name (case-insensitive).
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.eq_ignore_ascii_case(name))
    }

    /// Render as CSV (header + rows). Values containing commas or quotes
    /// are quoted.
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(
            &self
                .columns
                .iter()
                .map(|c| csv_escape(c))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
        for row in &self.rows {
            out.push_str(
                &row.iter()
                    .map(|v| csv_escape(&v.to_string()))
                    .collect::<Vec<_>>()
                    .join(","),
            );
            out.push('\n');
        }
        out
    }
}

fn csv_escape(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

impl fmt::Display for Table {
    /// Aligned text rendering for terminals.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                write!(f, "  ")?;
            }
            write!(f, "{c:<width$}", width = widths[i])?;
        }
        writeln!(f)?;
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i > 0 {
                    write!(f, "  ")?;
                }
                write!(f, "{cell:<width$}", width = widths[i])?;
            }
            writeln!(f)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Table {
        let mut t = Table::new(vec!["ID".into(), "count".into()]);
        t.push_row(vec![Value::Int(0), Value::Int(5)]);
        t.push_row(vec![Value::Int(1), Value::Int(9)]);
        t.push_row(vec![Value::Int(2), Value::Null]);
        t
    }

    #[test]
    fn accessors() {
        let t = sample();
        assert_eq!(t.num_rows(), 3);
        assert_eq!(t.column_index("COUNT"), Some(1));
        assert_eq!(t.column_index("missing"), None);
    }

    #[test]
    fn csv_rendering() {
        let t = sample();
        let csv = t.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "ID,count");
        assert_eq!(lines[1], "0,5");
        assert_eq!(lines[3], "2,NULL");
    }

    #[test]
    fn csv_escaping() {
        let mut t = Table::new(vec!["name".into()]);
        t.push_row(vec![Value::Str("a,b".into())]);
        t.push_row(vec![Value::Str("say \"hi\"".into())]);
        let csv = t.to_csv();
        assert!(csv.contains("\"a,b\""));
        assert!(csv.contains("\"say \"\"hi\"\"\""));
    }

    #[test]
    #[should_panic(expected = "row width")]
    fn width_mismatch_panics() {
        let mut t = Table::new(vec!["a".into()]);
        t.push_row(vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn display_alignment() {
        let t = sample();
        let s = t.to_string();
        assert!(s.starts_with("ID"));
        assert!(s.contains('9'));
    }
}
