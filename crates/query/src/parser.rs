//! Recursive-descent parser for census SQL.
//!
//! ```text
//! select     := SELECT proj (',' proj)* FROM table (',' table)* [WHERE expr]
//! proj       := agg | column
//! agg        := COUNTP '(' ident ',' nbhd ')'
//!             | COUNTSP '(' ident ',' ident ',' nbhd ')'
//! nbhd       := SUBGRAPH '(' column ',' int ')'
//!             | SUBGRAPH '-' INTERSECTION '(' column ',' column ',' int ')'
//!             | SUBGRAPH '-' UNION '(' column ',' column ',' int ')'
//! table      := ident [AS ident]           -- ident must be `nodes`
//! expr       := or_expr
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | cmp
//! cmp        := primary [cmpop primary]
//! primary    := literal | column | RND '(' ')' | '(' expr ')'
//! ```

use crate::ast::*;
use crate::error::QueryError;
use crate::lexer::{tokenize, Spanned, Tok};
use crate::value::Value;

/// Parse a SELECT statement.
pub fn parse_query(sql: &str) -> Result<SelectStmt, QueryError> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0 };
    let stmt = p.select()?;
    p.expect_eof()?;
    Ok(stmt)
}

/// What a statement *is*, decided once from its leading keyword token.
/// Every stage that treats statement families differently — the engine,
/// the planner, the server session, the shard router — matches on this
/// instead of sniffing the text itself.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Statement<'a> {
    /// No other verb leads it: the whole text, parsed as a `SELECT`
    /// (whose parser reports anything else as a syntax error).
    Select(&'a str),
    /// `EXPLAIN <select>`: the statement after the verb, leading
    /// whitespace trimmed so its error positions match running it.
    Explain(&'a str),
    /// `ANALYZE`: the text after the verb, which must be blank.
    Analyze(&'a str),
    /// `INSERT EDGE` / `DELETE EDGE`.
    Mutation,
    /// `MATERIALIZE <pattern> RADIUS k ...`.
    Materialize,
    /// `DROP VIEW <pattern> RADIUS k ...`.
    DropView,
    /// `SUBSCRIBE <select>`: the text after the verb.
    Subscribe(&'a str),
}

impl<'a> Statement<'a> {
    /// Classify `sql` by its first token under the lexer's identifier
    /// rule (ASCII letters, digits, `_`), compared case-insensitively.
    pub fn classify(sql: &'a str) -> Statement<'a> {
        let body = sql.trim_start();
        // Identifier bytes are ASCII, so the split lands on a char
        // boundary whatever follows the keyword.
        let len = body
            .bytes()
            .take_while(|b| b.is_ascii_alphanumeric() || *b == b'_')
            .count();
        let (word, rest) = body.split_at(len);
        let is = |verb: &str| word.eq_ignore_ascii_case(verb);
        if is("EXPLAIN") {
            Statement::Explain(rest.trim_start())
        } else if is("ANALYZE") {
            Statement::Analyze(rest)
        } else if is("INSERT") || is("DELETE") {
            Statement::Mutation
        } else if is("MATERIALIZE") {
            Statement::Materialize
        } else if is("DROP") {
            Statement::DropView
        } else if is("SUBSCRIBE") {
            Statement::Subscribe(rest)
        } else {
            Statement::Select(sql)
        }
    }
}

/// Parse `MATERIALIZE <pattern> RADIUS k [SUBPATTERN sp] [MATCHES]`.
pub fn parse_materialize(sql: &str) -> Result<MaterializeStmt, QueryError> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0 };
    p.expect_kw("MATERIALIZE")?;
    let pattern = p.ident()?;
    p.expect_kw("RADIUS")?;
    let k = p.radius()?;
    let subpattern = if p.eat_kw("SUBPATTERN") {
        Some(p.ident()?)
    } else {
        None
    };
    let matches = p.eat_kw("MATCHES");
    p.expect_eof()?;
    Ok(MaterializeStmt {
        pattern,
        k,
        subpattern,
        matches,
    })
}

/// Parse `DROP VIEW <pattern> RADIUS k [SUBPATTERN sp]`.
pub fn parse_drop_view(sql: &str) -> Result<DropViewStmt, QueryError> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0 };
    p.expect_kw("DROP")?;
    p.expect_kw("VIEW")?;
    let pattern = p.ident()?;
    p.expect_kw("RADIUS")?;
    let k = p.radius()?;
    let subpattern = if p.eat_kw("SUBPATTERN") {
        Some(p.ident()?)
    } else {
        None
    };
    p.expect_eof()?;
    Ok(DropViewStmt {
        pattern,
        k,
        subpattern,
    })
}

/// Parse a mutation script: one or more `;`-separated
/// `INSERT EDGE (a, b)` / `DELETE EDGE (a, b)` statements.
pub fn parse_mutations(script: &str) -> Result<Vec<MutationStmt>, QueryError> {
    let stmts = split_statements(script);
    if stmts.is_empty() {
        return Err(QueryError::Semantic("empty mutation script".into()));
    }
    stmts.iter().map(|s| parse_mutation(s)).collect()
}

/// Split a script into statements on `;`, respecting single-quoted
/// strings. Empty statements (trailing `;`, blank lines) are dropped.
pub(crate) fn split_statements(sql: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut current = String::new();
    let mut in_quote = false;
    for ch in sql.chars() {
        match ch {
            '\'' => {
                in_quote = !in_quote;
                current.push(ch);
            }
            ';' if !in_quote => {
                if !current.trim().is_empty() {
                    out.push(current.trim().to_string());
                }
                current.clear();
            }
            _ => current.push(ch),
        }
    }
    if !current.trim().is_empty() {
        out.push(current.trim().to_string());
    }
    out
}

fn parse_mutation(sql: &str) -> Result<MutationStmt, QueryError> {
    let toks = tokenize(sql)?;
    let mut p = Parser { toks, pos: 0 };
    let kind = if p.eat_kw("INSERT") {
        MutationKind::InsertEdge
    } else if p.eat_kw("DELETE") {
        MutationKind::DeleteEdge
    } else {
        return Err(p.err(format!("expected `INSERT` or `DELETE`, found {}", p.peek())));
    };
    p.expect_kw("EDGE")?;
    p.expect(&Tok::LParen)?;
    let a = p.node_id()?;
    p.expect(&Tok::Comma)?;
    let b = p.node_id()?;
    p.expect(&Tok::RParen)?;
    p.expect_eof()?;
    Ok(MutationStmt { kind, a, b })
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Tok {
        &self.toks[self.pos].tok
    }

    fn bump(&mut self) -> Tok {
        let t = self.toks[self.pos].tok.clone();
        if self.pos + 1 < self.toks.len() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, message: impl Into<String>) -> QueryError {
        let s = &self.toks[self.pos];
        QueryError::Syntax {
            line: s.line,
            col: s.col,
            message: message.into(),
        }
    }

    fn is_kw(&self, kw: &str) -> bool {
        matches!(self.peek(), Tok::Ident(s) if s.eq_ignore_ascii_case(kw))
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.is_kw(kw) {
            self.bump();
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), QueryError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(self.err(format!("expected `{kw}`, found {}", self.peek())))
        }
    }

    fn expect(&mut self, t: &Tok) -> Result<(), QueryError> {
        if self.peek() == t {
            self.bump();
            Ok(())
        } else {
            Err(self.err(format!("expected {t}, found {}", self.peek())))
        }
    }

    fn expect_eof(&mut self) -> Result<(), QueryError> {
        match self.peek() {
            Tok::Eof => Ok(()),
            other => Err(self.err(format!("trailing input: {other}"))),
        }
    }

    fn node_id(&mut self) -> Result<u32, QueryError> {
        match *self.peek() {
            Tok::Int(i) if (0..=u32::MAX as i64).contains(&i) => {
                self.bump();
                Ok(i as u32)
            }
            ref other => Err(self.err(format!("expected a node id, found {other}"))),
        }
    }

    fn ident(&mut self) -> Result<String, QueryError> {
        match self.peek().clone() {
            Tok::Ident(s) => {
                self.bump();
                Ok(s)
            }
            other => Err(self.err(format!("expected identifier, found {other}"))),
        }
    }

    fn select(&mut self) -> Result<SelectStmt, QueryError> {
        self.expect_kw("SELECT")?;
        let mut projections = vec![self.projection()?];
        while self.peek() == &Tok::Comma {
            self.bump();
            projections.push(self.projection()?);
        }
        self.expect_kw("FROM")?;
        let mut tables = vec![self.table_ref()?];
        while self.peek() == &Tok::Comma {
            self.bump();
            tables.push(self.table_ref()?);
        }
        if tables.len() > 2 {
            return Err(self.err("at most two `nodes` tables are supported"));
        }
        let where_clause = if self.eat_kw("WHERE") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("ORDER") {
            self.expect_kw("BY")?;
            loop {
                let ordinal = match self.peek().clone() {
                    Tok::Int(i) if i >= 1 && (i as usize) <= projections.len() => {
                        self.bump();
                        i as usize
                    }
                    other => {
                        return Err(self.err(format!(
                            "ORDER BY takes a 1-based projection ordinal (1..={}), found {other}",
                            projections.len()
                        )))
                    }
                };
                let dir = if self.eat_kw("DESC") {
                    SortDir::Desc
                } else {
                    self.eat_kw("ASC");
                    SortDir::Asc
                };
                order_by.push(OrderKey { ordinal, dir });
                if self.peek() != &Tok::Comma {
                    break;
                }
                self.bump();
            }
        }
        let limit = if self.eat_kw("LIMIT") {
            match self.peek().clone() {
                Tok::Int(i) if i >= 0 => {
                    self.bump();
                    Some(i as usize)
                }
                other => {
                    return Err(
                        self.err(format!("LIMIT takes a nonnegative integer, found {other}"))
                    )
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            projections,
            tables,
            where_clause,
            order_by,
            limit,
        })
    }

    fn table_ref(&mut self) -> Result<TableRef, QueryError> {
        let name = self.ident()?;
        if !name.eq_ignore_ascii_case("nodes") {
            return Err(self.err(format!(
                "unknown table `{name}` (only `nodes` is available)"
            )));
        }
        let alias = if self.eat_kw("AS") {
            self.ident()?
        } else if let Tok::Ident(s) = self.peek().clone() {
            // Implicit alias: `FROM nodes n1` — but don't swallow clause
            // keywords.
            if !["WHERE", "ORDER", "LIMIT"]
                .iter()
                .any(|kw| s.eq_ignore_ascii_case(kw))
            {
                self.bump();
                s
            } else {
                name.clone()
            }
        } else {
            name.clone()
        };
        Ok(TableRef { alias })
    }

    fn projection(&mut self) -> Result<Projection, QueryError> {
        if self.is_kw("COUNTP") || self.is_kw("COUNTSP") {
            return Ok(Projection::Agg(self.agg_call()?));
        }
        Ok(Projection::Column(self.column_ref()?))
    }

    fn agg_call(&mut self) -> Result<AggCall, QueryError> {
        let is_sp = self.is_kw("COUNTSP");
        self.bump(); // the function name
        self.expect(&Tok::LParen)?;
        let subpattern = if is_sp {
            let sp = self.ident()?;
            self.expect(&Tok::Comma)?;
            Some(sp)
        } else {
            None
        };
        let pattern = self.ident()?;
        self.expect(&Tok::Comma)?;
        let neighborhood = self.neighborhood()?;
        self.expect(&Tok::RParen)?;
        Ok(AggCall {
            subpattern,
            pattern,
            neighborhood,
        })
    }

    fn neighborhood(&mut self) -> Result<NeighborhoodAst, QueryError> {
        self.expect_kw("SUBGRAPH")?;
        let variant = if self.peek() == &Tok::Minus {
            self.bump();
            let v = self.ident()?;
            match v.to_ascii_uppercase().as_str() {
                "INTERSECTION" => 1,
                "UNION" => 2,
                other => {
                    return Err(self.err(format!(
                        "expected INTERSECTION or UNION after `SUBGRAPH-`, found `{other}`"
                    )))
                }
            }
        } else {
            0
        };
        self.expect(&Tok::LParen)?;
        if variant == 0 {
            let node = self.column_ref()?;
            self.expect(&Tok::Comma)?;
            let k = self.radius()?;
            self.expect(&Tok::RParen)?;
            Ok(NeighborhoodAst::Subgraph { node, k })
        } else {
            let n1 = self.column_ref()?;
            self.expect(&Tok::Comma)?;
            let n2 = self.column_ref()?;
            self.expect(&Tok::Comma)?;
            let k = self.radius()?;
            self.expect(&Tok::RParen)?;
            if variant == 1 {
                Ok(NeighborhoodAst::Intersection { n1, n2, k })
            } else {
                Ok(NeighborhoodAst::Union { n1, n2, k })
            }
        }
    }

    fn radius(&mut self) -> Result<u32, QueryError> {
        match self.peek().clone() {
            Tok::Int(i) if i >= 0 => {
                self.bump();
                u32::try_from(i).map_err(|_| self.err("radius too large"))
            }
            other => Err(self.err(format!("expected nonnegative radius, found {other}"))),
        }
    }

    fn column_ref(&mut self) -> Result<ColumnRef, QueryError> {
        let first = self.ident()?;
        if self.peek() == &Tok::Dot {
            self.bump();
            let column = self.ident()?;
            Ok(ColumnRef {
                table: Some(first),
                column,
            })
        } else {
            Ok(ColumnRef {
                table: None,
                column: first,
            })
        }
    }

    // --- expressions ---

    fn expr(&mut self) -> Result<Expr, QueryError> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw("OR") {
            let rhs = self.and_expr()?;
            lhs = Expr::Binary {
                op: BinOp::Or,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Expr, QueryError> {
        let mut lhs = self.not_expr()?;
        while self.eat_kw("AND") {
            let rhs = self.not_expr()?;
            lhs = Expr::Binary {
                op: BinOp::And,
                lhs: Box::new(lhs),
                rhs: Box::new(rhs),
            };
        }
        Ok(lhs)
    }

    fn not_expr(&mut self) -> Result<Expr, QueryError> {
        if self.eat_kw("NOT") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.comparison()
        }
    }

    fn comparison(&mut self) -> Result<Expr, QueryError> {
        let lhs = self.primary()?;
        let op = match self.peek() {
            Tok::Eq => Some(BinOp::Eq),
            Tok::Ne => Some(BinOp::Ne),
            Tok::Lt => Some(BinOp::Lt),
            Tok::Le => Some(BinOp::Le),
            Tok::Gt => Some(BinOp::Gt),
            Tok::Ge => Some(BinOp::Ge),
            _ => None,
        };
        match op {
            None => Ok(lhs),
            Some(op) => {
                self.bump();
                let rhs = self.primary()?;
                Ok(Expr::Binary {
                    op,
                    lhs: Box::new(lhs),
                    rhs: Box::new(rhs),
                })
            }
        }
    }

    fn primary(&mut self) -> Result<Expr, QueryError> {
        match self.peek().clone() {
            Tok::Int(i) => {
                self.bump();
                Ok(Expr::Literal(Value::Int(i)))
            }
            Tok::Float(x) => {
                self.bump();
                Ok(Expr::Literal(Value::Float(x)))
            }
            Tok::Minus => {
                self.bump();
                match self.peek().clone() {
                    Tok::Int(i) => {
                        self.bump();
                        Ok(Expr::Literal(Value::Int(-i)))
                    }
                    Tok::Float(x) => {
                        self.bump();
                        Ok(Expr::Literal(Value::Float(-x)))
                    }
                    other => Err(self.err(format!("expected number after `-`, found {other}"))),
                }
            }
            Tok::Str(s) => {
                self.bump();
                Ok(Expr::Literal(Value::Str(s)))
            }
            Tok::LParen => {
                self.bump();
                let e = self.expr()?;
                self.expect(&Tok::RParen)?;
                Ok(e)
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("RND") => {
                self.bump();
                self.expect(&Tok::LParen)?;
                self.expect(&Tok::RParen)?;
                Ok(Expr::Rnd)
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("TRUE") => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(true)))
            }
            Tok::Ident(s) if s.eq_ignore_ascii_case("FALSE") => {
                self.bump();
                Ok(Expr::Literal(Value::Bool(false)))
            }
            Tok::Ident(_) => Ok(Expr::Column(self.column_ref()?)),
            other => Err(self.err(format!("unexpected token {other} in expression"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_row1() {
        let q = parse_query("SELECT ID, COUNTP(single_node, SUBGRAPH(ID, 2)) FROM nodes").unwrap();
        assert_eq!(q.projections.len(), 2);
        assert_eq!(q.tables.len(), 1);
        assert_eq!(q.tables[0].alias, "nodes");
        match &q.projections[1] {
            Projection::Agg(a) => {
                assert_eq!(a.pattern, "single_node");
                assert!(a.subpattern.is_none());
                assert_eq!(
                    a.neighborhood,
                    NeighborhoodAst::Subgraph {
                        node: ColumnRef {
                            table: None,
                            column: "ID".into()
                        },
                        k: 2
                    }
                );
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn table1_row2_pairwise() {
        let q = parse_query(
            "SELECT n1.ID, n2.ID, \
             COUNTP(single_edge, SUBGRAPH-INTERSECTION(n1.ID, n2.ID, 1)) \
             FROM nodes AS n1, nodes AS n2",
        )
        .unwrap();
        assert_eq!(q.tables.len(), 2);
        assert_eq!(q.tables[0].alias, "n1");
        match &q.projections[2] {
            Projection::Agg(a) => {
                assert!(matches!(
                    a.neighborhood,
                    NeighborhoodAst::Intersection { k: 1, .. }
                ));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn table1_row4_countsp() {
        let q = parse_query("SELECT ID, COUNTSP(coordinator, triad, SUBGRAPH(ID, 0)) FROM nodes")
            .unwrap();
        match &q.projections[1] {
            Projection::Agg(a) => {
                assert_eq!(a.subpattern.as_deref(), Some("coordinator"));
                assert_eq!(a.pattern, "triad");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_rnd_predicate() {
        let q = parse_query("SELECT ID, COUNTP(t, SUBGRAPH(ID, 2)) FROM nodes WHERE RND() < 0.2")
            .unwrap();
        match q.where_clause.unwrap() {
            Expr::Binary {
                op: BinOp::Lt,
                lhs,
                rhs,
            } => {
                assert_eq!(*lhs, Expr::Rnd);
                assert_eq!(*rhs, Expr::Literal(Value::Float(0.2)));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn where_boolean_logic() {
        let q = parse_query(
            "SELECT ID FROM nodes WHERE (age >= 30 AND dept = 'db') OR NOT active = TRUE",
        )
        .unwrap();
        assert!(matches!(
            q.where_clause.unwrap(),
            Expr::Binary { op: BinOp::Or, .. }
        ));
    }

    #[test]
    fn pair_where_id_comparison() {
        let q = parse_query(
            "SELECT n1.ID, n2.ID, COUNTP(e, SUBGRAPH-UNION(n1.ID, n2.ID, 2)) \
             FROM nodes AS n1, nodes AS n2 WHERE n1.ID > n2.ID",
        )
        .unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn negative_literal() {
        let q = parse_query("SELECT ID FROM nodes WHERE score > -3").unwrap();
        match q.where_clause.unwrap() {
            Expr::Binary { rhs, .. } => assert_eq!(*rhs, Expr::Literal(Value::Int(-3))),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn errors() {
        assert!(parse_query("SELECT FROM nodes").is_err());
        assert!(parse_query("SELECT ID FROM edges").is_err());
        assert!(parse_query("SELECT ID FROM nodes, nodes, nodes").is_err());
        // `FROM nodes extra` is a legal implicit alias; genuine trailing
        // garbage must still error.
        assert!(parse_query("SELECT ID FROM nodes 123").is_err());
        assert!(parse_query("SELECT ID FROM nodes WHERE ID = 0 ) ").is_err());
        assert!(parse_query("SELECT COUNTP(p, SUBGRAPH(ID, -1)) FROM nodes").is_err());
        assert!(parse_query("SELECT COUNTP(p, SUBGRAPH-SIDEWAYS(ID, 1)) FROM nodes").is_err());
        assert!(parse_query("").is_err());
    }

    #[test]
    fn implicit_alias() {
        let q = parse_query("SELECT n1.ID FROM nodes n1 WHERE n1.ID = 0").unwrap();
        assert_eq!(q.tables[0].alias, "n1");
    }

    #[test]
    fn case_insensitive_keywords() {
        let q = parse_query("select id from nodes where rnd() < 0.5").unwrap();
        assert!(q.where_clause.is_some());
    }

    #[test]
    fn mutation_script_parses() {
        let ms = parse_mutations("INSERT EDGE (4, 6); delete edge (0, 1);").unwrap();
        assert_eq!(
            ms,
            vec![
                MutationStmt {
                    kind: MutationKind::InsertEdge,
                    a: 4,
                    b: 6
                },
                MutationStmt {
                    kind: MutationKind::DeleteEdge,
                    a: 0,
                    b: 1
                },
            ]
        );
    }

    #[test]
    fn statements_classify_by_leading_keyword() {
        use Statement::*;
        for (sql, want) in [
            ("SELECT ID FROM nodes", Select("SELECT ID FROM nodes")),
            ("  select 1", Select("  select 1")),
            ("", Select("")),
            (
                "explain SELECT ID FROM nodes",
                Explain("SELECT ID FROM nodes"),
            ),
            ("EXPLAIN(SELECT 1)", Explain("(SELECT 1)")),
            ("ANALYZE", Analyze("")),
            (" analyze  nodes", Analyze("  nodes")),
            ("  insert edge (1, 2)", Mutation),
            ("DELETE EDGE (1, 2)", Mutation),
            ("  materialize tri radius 2", Materialize),
            ("  drop view tri radius 2", DropView),
            ("Subscribe SELECT 1", Subscribe(" SELECT 1")),
            // The keyword is a whole token, not a prefix.
            ("EXPLAINSELECT 1", Select("EXPLAINSELECT 1")),
            ("INSERT_EDGE (1, 2)", Select("INSERT_EDGE (1, 2)")),
            // Multi-byte text before or after the keyword never splits a
            // character.
            (
                "\u{e9}\u{e9}\u{e9}\u{e9}SELECT ID FROM nodes",
                Select("\u{e9}\u{e9}\u{e9}\u{e9}SELECT ID FROM nodes"),
            ),
            ("EXPLAIN\u{e9}", Explain("\u{e9}")),
        ] {
            assert_eq!(Statement::classify(sql), want, "{sql:?}");
        }
    }

    #[test]
    fn materialize_statement_parses() {
        let m = parse_materialize("MATERIALIZE tri RADIUS 2").unwrap();
        assert_eq!(
            m,
            MaterializeStmt {
                pattern: "tri".into(),
                k: 2,
                subpattern: None,
                matches: false
            }
        );
        let m = parse_materialize("materialize tri radius 1 subpattern hub matches").unwrap();
        assert_eq!(m.subpattern.as_deref(), Some("hub"));
        assert!(m.matches);
        assert!(parse_materialize("MATERIALIZE tri").is_err());
        assert!(parse_materialize("MATERIALIZE tri RADIUS -1").is_err());
        assert!(parse_materialize("MATERIALIZE tri RADIUS 2 extra").is_err());
    }

    #[test]
    fn drop_view_statement_parses() {
        let d = parse_drop_view("DROP VIEW tri RADIUS 2").unwrap();
        assert_eq!(
            d,
            DropViewStmt {
                pattern: "tri".into(),
                k: 2,
                subpattern: None
            }
        );
        let d = parse_drop_view("drop view tri radius 0 subpattern hub").unwrap();
        assert_eq!(d.subpattern.as_deref(), Some("hub"));
        assert!(parse_drop_view("DROP TABLE tri RADIUS 2").is_err());
        assert!(parse_drop_view("DROP VIEW tri").is_err());
    }

    #[test]
    fn mutation_script_rejects_bad_input() {
        assert!(parse_mutations("").is_err());
        assert!(parse_mutations("INSERT EDGE (1)").is_err());
        assert!(parse_mutations("INSERT EDGE (1, 2) extra").is_err());
        assert!(parse_mutations("UPDATE EDGE (1, 2)").is_err());
        assert!(parse_mutations("INSERT EDGE (-1, 2)").is_err());
        assert!(parse_mutations("INSERT NODE (1, 2)").is_err());
    }
}
