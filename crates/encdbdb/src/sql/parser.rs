//! Recursive-descent SQL parser.

use super::ast::{
    ColumnDef, ColumnRef, CompareOp, Filter, JoinClause, OrderKey, OrderTarget, PartitionByDef,
    SelectItem, Statement,
};
use super::lexer::{tokenize, Token};
use crate::error::DbError;
use crate::schema::DictChoice;
use encdict::aggregate::AggFunc;
use encdict::EdKind;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn err(&self, msg: impl Into<String>) -> DbError {
        DbError::Parse(format!("{} (at token {})", msg.into(), self.pos))
    }

    fn expect(&mut self, token: &Token) -> Result<(), DbError> {
        match self.next() {
            Some(t) if &t == token => Ok(()),
            other => Err(self.err(format!("expected {token:?}, found {other:?}"))),
        }
    }

    /// Consumes a keyword (case-insensitive identifier).
    fn expect_keyword(&mut self, kw: &str) -> Result<(), DbError> {
        match self.next() {
            Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw) => Ok(()),
            other => Err(self.err(format!("expected keyword {kw}, found {other:?}"))),
        }
    }

    fn peek_keyword(&self, kw: &str) -> bool {
        matches!(self.peek(), Some(Token::Ident(s)) if s.eq_ignore_ascii_case(kw))
    }

    fn ident(&mut self) -> Result<String, DbError> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(self.err(format!("expected identifier, found {other:?}"))),
        }
    }

    fn string(&mut self) -> Result<Vec<u8>, DbError> {
        match self.next() {
            Some(Token::Str(s)) => Ok(s),
            other => Err(self.err(format!("expected string literal, found {other:?}"))),
        }
    }

    fn int(&mut self) -> Result<u64, DbError> {
        match self.next() {
            Some(Token::Int(n)) => Ok(n),
            other => Err(self.err(format!("expected integer, found {other:?}"))),
        }
    }

    /// A possibly qualified column reference: `c` or `t.c`.
    fn column_ref(&mut self) -> Result<ColumnRef, DbError> {
        let first = self.ident()?;
        if self.peek() == Some(&Token::Dot) {
            self.next();
            let column = self.ident()?;
            Ok(ColumnRef::qualified(first, column))
        } else {
            Ok(ColumnRef::bare(first))
        }
    }

    fn statement(&mut self) -> Result<Statement, DbError> {
        let head = match self.peek() {
            Some(Token::Ident(s)) => s.to_ascii_uppercase(),
            other => return Err(self.err(format!("expected statement, found {other:?}"))),
        };
        let stmt = match head.as_str() {
            "CREATE" => self.create_table()?,
            "INSERT" => self.insert()?,
            "SELECT" => self.select()?,
            "DELETE" => self.delete()?,
            other => return Err(self.err(format!("unsupported statement: {other}"))),
        };
        // Optional trailing semicolon.
        if self.peek() == Some(&Token::Semicolon) {
            self.next();
        }
        if let Some(t) = self.peek() {
            return Err(self.err(format!("trailing input: {t:?}")));
        }
        Ok(stmt)
    }

    fn create_table(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("CREATE")?;
        self.expect_keyword("TABLE")?;
        let name = self.ident()?;
        self.expect(&Token::LParen)?;
        let mut columns = Vec::new();
        loop {
            let col_name = self.ident()?;
            let type_name = self.ident()?;
            let choice = if type_name.eq_ignore_ascii_case("plain") {
                DictChoice::Plain
            } else {
                let kind = EdKind::parse(&type_name)
                    .ok_or_else(|| self.err(format!("unknown column type: {type_name}")))?;
                DictChoice::Encrypted(kind)
            };
            self.expect(&Token::LParen)?;
            let max_len = self.int()? as usize;
            let bs_max = if self.peek() == Some(&Token::Comma) {
                self.next();
                Some(self.int()? as usize)
            } else {
                None
            };
            self.expect(&Token::RParen)?;
            columns.push(ColumnDef {
                name: col_name,
                choice,
                max_len,
                bs_max,
            });
            match self.next() {
                Some(Token::Comma) => continue,
                Some(Token::RParen) => break,
                other => return Err(self.err(format!("expected , or ), found {other:?}"))),
            }
        }
        let partition_by = if self.peek_keyword("PARTITION") {
            self.next();
            self.expect_keyword("BY")?;
            self.expect_keyword("RANGE")?;
            self.expect(&Token::LParen)?;
            let column = self.ident()?;
            self.expect(&Token::RParen)?;
            self.expect_keyword("SPLIT")?;
            self.expect(&Token::LParen)?;
            let mut split_points = Vec::new();
            loop {
                split_points.push(self.string()?);
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => return Err(self.err(format!("expected , or ), found {other:?}"))),
                }
            }
            Some(PartitionByDef {
                column,
                split_points,
            })
        } else {
            None
        };
        Ok(Statement::CreateTable {
            name,
            columns,
            partition_by,
        })
    }

    fn insert(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("INSERT")?;
        self.expect_keyword("INTO")?;
        let table = self.ident()?;
        self.expect_keyword("VALUES")?;
        let mut rows = Vec::new();
        loop {
            self.expect(&Token::LParen)?;
            let mut row = Vec::new();
            loop {
                row.push(self.string()?);
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => return Err(self.err(format!("expected , or ), found {other:?}"))),
                }
            }
            rows.push(row);
            if self.peek() == Some(&Token::Comma) {
                self.next();
                continue;
            }
            break;
        }
        Ok(Statement::Insert { table, rows })
    }

    /// One SELECT-list item: a column reference or an aggregate call.
    fn select_item(&mut self) -> Result<SelectItem, DbError> {
        let name = self.ident()?;
        // A qualified name is always a column reference (`t.c`).
        if self.peek() == Some(&Token::Dot) {
            self.next();
            let column = self.ident()?;
            return Ok(SelectItem::Column(ColumnRef::qualified(name, column)));
        }
        let func = AggFunc::parse(&name);
        if self.peek() != Some(&Token::LParen) {
            return Ok(SelectItem::Column(ColumnRef::bare(name)));
        }
        let Some(func) = func else {
            return Err(self.err(format!("unknown aggregate function: {name}")));
        };
        self.expect(&Token::LParen)?;
        let column = if func == AggFunc::Count {
            // The paper's count aggregation is `COUNT(*)` only.
            self.expect(&Token::Star)?;
            None
        } else {
            Some(self.column_ref()?)
        };
        self.expect(&Token::RParen)?;
        Ok(SelectItem::Aggregate { func, column })
    }

    fn select(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("SELECT")?;
        let distinct = if self.peek_keyword("DISTINCT") {
            self.next();
            true
        } else {
            false
        };
        let mut items = Vec::new();
        if self.peek() == Some(&Token::Star) {
            self.next();
        } else {
            loop {
                items.push(self.select_item()?);
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                    continue;
                }
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let join = if self.peek_keyword("JOIN") {
            self.next();
            let join_table = self.ident()?;
            self.expect_keyword("ON")?;
            let left = self.column_ref()?;
            self.expect(&Token::Eq)?;
            let right = self.column_ref()?;
            Some(Box::new(JoinClause {
                table: join_table,
                left,
                right,
            }))
        } else {
            None
        };
        let filter = if self.peek_keyword("WHERE") {
            self.next();
            Some(self.filter()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.peek_keyword("GROUP") {
            self.next();
            self.expect_keyword("BY")?;
            loop {
                group_by.push(self.column_ref()?);
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                    continue;
                }
                break;
            }
        }
        let mut order_by = Vec::new();
        if self.peek_keyword("ORDER") {
            self.next();
            self.expect_keyword("BY")?;
            loop {
                order_by.push(self.order_key()?);
                if self.peek() == Some(&Token::Comma) {
                    self.next();
                    continue;
                }
                break;
            }
        }
        let limit = if self.peek_keyword("LIMIT") {
            self.next();
            Some(self.int()? as usize)
        } else {
            None
        };
        Ok(Statement::Select {
            distinct,
            items,
            table,
            join,
            filter,
            group_by,
            order_by,
            limit,
        })
    }

    /// One ORDER BY key: a 1-based output position or an output column
    /// name, optionally followed by ASC/DESC.
    fn order_key(&mut self) -> Result<OrderKey, DbError> {
        let target = match self.next() {
            Some(Token::Int(p)) => {
                if p == 0 {
                    return Err(self.err("ORDER BY positions are 1-based"));
                }
                OrderTarget::Position(p as usize)
            }
            Some(Token::Ident(c)) => {
                // A qualified key renders as the `t.c` output-column name.
                if self.peek() == Some(&Token::Dot) {
                    self.next();
                    let col = self.ident()?;
                    OrderTarget::Column(format!("{c}.{col}"))
                } else {
                    OrderTarget::Column(c)
                }
            }
            other => {
                return Err(self.err(format!("expected ORDER BY key, found {other:?}")));
            }
        };
        let desc = if self.peek_keyword("DESC") {
            self.next();
            true
        } else {
            if self.peek_keyword("ASC") {
                self.next();
            }
            false
        };
        Ok(OrderKey { target, desc })
    }

    fn delete(&mut self) -> Result<Statement, DbError> {
        self.expect_keyword("DELETE")?;
        self.expect_keyword("FROM")?;
        let table = self.ident()?;
        let filter = if self.peek_keyword("WHERE") {
            self.next();
            Some(self.filter()?)
        } else {
            None
        };
        Ok(Statement::Delete { table, filter })
    }

    fn filter(&mut self) -> Result<Filter, DbError> {
        let mut acc = self.predicate()?;
        while self.peek_keyword("AND") {
            self.next();
            let next = self.predicate()?;
            acc = Filter::And(Box::new(acc), Box::new(next));
        }
        Ok(acc)
    }

    fn predicate(&mut self) -> Result<Filter, DbError> {
        let column = self.column_ref()?;
        if self.peek_keyword("BETWEEN") {
            self.next();
            let low = self.string()?;
            self.expect_keyword("AND")?;
            let high = self.string()?;
            return Ok(Filter::Between { column, low, high });
        }
        if self.peek_keyword("IN") {
            self.next();
            self.expect(&Token::LParen)?;
            let mut values = Vec::new();
            loop {
                values.push(self.string()?);
                match self.next() {
                    Some(Token::Comma) => continue,
                    Some(Token::RParen) => break,
                    other => return Err(self.err(format!("expected , or ), found {other:?}"))),
                }
            }
            return Ok(Filter::In { column, values });
        }
        let op = match self.next() {
            Some(Token::Eq) => CompareOp::Eq,
            Some(Token::Lt) => CompareOp::Lt,
            Some(Token::Le) => CompareOp::Le,
            Some(Token::Gt) => CompareOp::Gt,
            Some(Token::Ge) => CompareOp::Ge,
            other => return Err(self.err(format!("expected comparison operator, found {other:?}"))),
        };
        let value = self.string()?;
        Ok(Filter::Compare { column, op, value })
    }
}

/// Parses one SQL statement.
///
/// # Errors
///
/// Returns [`DbError::Parse`] with a position-annotated message.
///
/// # Example
///
/// ```
/// use encdbdb::sql::parse;
/// let stmt = parse("SELECT FName FROM t1 WHERE FName < 'Ella'")?;
/// # Ok::<(), encdbdb::DbError>(())
/// ```
pub fn parse(sql: &str) -> Result<Statement, DbError> {
    let tokens = tokenize(sql)?;
    let mut parser = Parser { tokens, pos: 0 };
    parser.statement()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_create_table_with_ed_types() {
        let stmt = parse("CREATE TABLE t1 (c1 ED7(12), c2 ED5(10, 20), c3 PLAIN(8));").unwrap();
        match stmt {
            Statement::CreateTable {
                name,
                columns,
                partition_by,
            } => {
                assert_eq!(name, "t1");
                assert_eq!(columns.len(), 3);
                assert_eq!(columns[0].choice, DictChoice::Encrypted(EdKind::Ed7));
                assert_eq!(columns[0].max_len, 12);
                assert_eq!(columns[1].bs_max, Some(20));
                assert_eq!(columns[2].choice, DictChoice::Plain);
                assert_eq!(partition_by, None);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_partition_by_range() {
        let stmt = parse(
            "CREATE TABLE t (v ED1(8), g PLAIN(8)) \
             PARTITION BY RANGE (v) SPLIT ('0030', '0060')",
        )
        .unwrap();
        match &stmt {
            Statement::CreateTable { partition_by, .. } => {
                assert_eq!(
                    partition_by,
                    &Some(PartitionByDef {
                        column: "v".into(),
                        split_points: vec![b"0030".to_vec(), b"0060".to_vec()],
                    })
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // Display round-trips the clause.
        let reparsed = parse(&stmt.to_string()).unwrap();
        assert_eq!(stmt, reparsed);
    }

    #[test]
    fn rejects_malformed_partition_clauses() {
        assert!(parse("CREATE TABLE t (v ED1(8)) PARTITION BY (v) SPLIT ('a')").is_err());
        assert!(parse("CREATE TABLE t (v ED1(8)) PARTITION BY RANGE (v)").is_err());
        assert!(parse("CREATE TABLE t (v ED1(8)) PARTITION BY RANGE (v) SPLIT ()").is_err());
        assert!(parse("CREATE TABLE t (v ED1(8)) PARTITION BY RANGE v SPLIT ('a')").is_err());
    }

    #[test]
    fn parses_insert_multiple_rows() {
        let stmt = parse("INSERT INTO t VALUES ('a', 'b'), ('c', 'd')").unwrap();
        match stmt {
            Statement::Insert { table, rows } => {
                assert_eq!(table, "t");
                assert_eq!(rows.len(), 2);
                assert_eq!(rows[1], vec![b"c".to_vec(), b"d".to_vec()]);
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_select_variants() {
        let stmt = parse("SELECT * FROM t").unwrap();
        assert!(matches!(
            stmt,
            Statement::Select { ref items, ref filter, .. } if items.is_empty() && filter.is_none()
        ));

        let stmt = parse("SELECT a, b FROM t WHERE a >= 'x' AND a < 'y'").unwrap();
        match stmt {
            Statement::Select { items, filter, .. } => {
                assert_eq!(
                    items,
                    vec![
                        SelectItem::Column("a".into()),
                        SelectItem::Column("b".into())
                    ]
                );
                assert_eq!(filter.unwrap().to_string(), "a >= 'x' AND a < 'y'");
            }
            other => panic!("wrong statement: {other:?}"),
        }

        // The paper's example query.
        let stmt = parse("SELECT FName FROM t1 WHERE FName < 'Ella'").unwrap();
        match stmt {
            Statement::Select { filter, .. } => match filter.unwrap() {
                Filter::Compare { op, value, .. } => {
                    assert_eq!(op, CompareOp::Lt);
                    assert_eq!(value, b"Ella");
                }
                other => panic!("wrong filter: {other:?}"),
            },
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_aggregate_select() {
        let stmt = parse(
            "SELECT region, SUM(price), COUNT(*) FROM sales WHERE price >= '100' \
             GROUP BY region ORDER BY 2 DESC, region ASC LIMIT 5",
        )
        .unwrap();
        match stmt {
            Statement::Select {
                items,
                group_by,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(
                    items,
                    vec![
                        SelectItem::Column("region".into()),
                        SelectItem::Aggregate {
                            func: AggFunc::Sum,
                            column: Some("price".into())
                        },
                        SelectItem::Aggregate {
                            func: AggFunc::Count,
                            column: None
                        },
                    ]
                );
                assert_eq!(group_by, vec![ColumnRef::bare("region")]);
                assert_eq!(
                    order_by,
                    vec![
                        OrderKey {
                            target: OrderTarget::Position(2),
                            desc: true
                        },
                        OrderKey {
                            target: OrderTarget::Column("region".into()),
                            desc: false
                        },
                    ]
                );
                assert_eq!(limit, Some(5));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn display_parse_roundtrip_for_aggregates() {
        for sql in [
            "SELECT * FROM t",
            "SELECT COUNT(*) FROM t",
            "SELECT a, MIN(b), MAX(b), AVG(b) FROM t WHERE b BETWEEN 'a' AND 'z' GROUP BY a",
            "SELECT a, SUM(b) FROM t GROUP BY a ORDER BY 2 DESC LIMIT 10",
            "SELECT a FROM t ORDER BY a LIMIT 3",
        ] {
            let s1 = parse(sql).unwrap();
            let s2 = parse(&s1.to_string()).unwrap();
            assert_eq!(s1, s2, "round trip of {sql}");
        }
    }

    #[test]
    fn rejects_malformed_aggregates() {
        assert!(parse("SELECT COUNT(v) FROM t").is_err());
        assert!(parse("SELECT COUNT(* FROM t").is_err());
        assert!(parse("SELECT SUM(*) FROM t").is_err());
        assert!(parse("SELECT MEDIAN(v) FROM t").is_err());
        assert!(parse("SELECT v FROM t ORDER BY 0").is_err());
        assert!(parse("SELECT v FROM t LIMIT").is_err());
        assert!(parse("SELECT v FROM t GROUP v").is_err());
    }

    #[test]
    fn parses_between() {
        let stmt = parse("SELECT * FROM t WHERE c BETWEEN 'a' AND 'f'").unwrap();
        match stmt {
            Statement::Select { filter, .. } => {
                assert_eq!(
                    filter.unwrap(),
                    Filter::Between {
                        column: "c".into(),
                        low: b"a".to_vec(),
                        high: b"f".to_vec()
                    }
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn parses_delete() {
        let stmt = parse("DELETE FROM t WHERE c = 'x'").unwrap();
        assert!(matches!(stmt, Statement::Delete { .. }));
    }

    #[test]
    fn parses_join_with_qualified_columns() {
        let stmt = parse(
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k \
             WHERE a.x >= 'm' AND b.y < 'q' ORDER BY a.x LIMIT 4",
        )
        .unwrap();
        match stmt {
            Statement::Select {
                items,
                table,
                join,
                filter,
                order_by,
                limit,
                ..
            } => {
                assert_eq!(table, "a");
                assert_eq!(
                    items,
                    vec![
                        SelectItem::Column(ColumnRef::qualified("a", "x")),
                        SelectItem::Column(ColumnRef::qualified("b", "y")),
                    ]
                );
                assert_eq!(
                    join,
                    Some(Box::new(JoinClause {
                        table: "b".into(),
                        left: ColumnRef::qualified("a", "k"),
                        right: ColumnRef::qualified("b", "k"),
                    }))
                );
                // A three-way AND chain parses (left fold).
                assert!(filter.is_some());
                assert_eq!(
                    order_by,
                    vec![OrderKey {
                        target: OrderTarget::Column("a.x".into()),
                        desc: false
                    }]
                );
                assert_eq!(limit, Some(4));
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // Display round-trips the join shape.
        let stmt = parse("SELECT a.x, b.y FROM a JOIN b ON a.k = b.k").unwrap();
        assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn parses_in_predicate() {
        let stmt = parse("SELECT v FROM t WHERE v IN ('a', 'b', 'c')").unwrap();
        match stmt {
            Statement::Select { filter, .. } => {
                assert_eq!(
                    filter.unwrap(),
                    Filter::In {
                        column: "v".into(),
                        values: vec![b"a".to_vec(), b"b".to_vec(), b"c".to_vec()],
                    }
                );
            }
            other => panic!("wrong statement: {other:?}"),
        }
        // IN composes with other conjuncts and round-trips.
        let stmt = parse("SELECT v FROM t WHERE v IN ('a', 'b') AND g >= 'x'").unwrap();
        assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
        assert!(parse("SELECT v FROM t WHERE v IN ()").is_err());
        assert!(parse("SELECT v FROM t WHERE v IN ('a'").is_err());
    }

    #[test]
    fn parses_select_distinct() {
        let stmt = parse("SELECT DISTINCT v FROM t WHERE v >= 'b'").unwrap();
        match &stmt {
            Statement::Select {
                distinct, items, ..
            } => {
                assert!(distinct);
                assert_eq!(items, &vec![SelectItem::Column("v".into())]);
            }
            other => panic!("wrong statement: {other:?}"),
        }
        assert_eq!(parse(&stmt.to_string()).unwrap(), stmt);
    }

    #[test]
    fn three_conjunct_filters_parse() {
        let stmt = parse("SELECT * FROM t WHERE a >= 'b' AND a < 'm' AND g = 'x'").unwrap();
        match stmt {
            Statement::Select { filter, .. } => {
                // Left fold: ((a >= 'b' AND a < 'm') AND g = 'x').
                let Filter::And(left, right) = filter.unwrap() else {
                    panic!("expected AND");
                };
                assert!(matches!(*left, Filter::And(..)));
                assert!(matches!(*right, Filter::Compare { .. }));
            }
            other => panic!("wrong statement: {other:?}"),
        }
    }

    #[test]
    fn keywords_are_case_insensitive() {
        assert!(parse("select * from t").is_ok());
        assert!(parse("Select A From T Where A = 'v'").is_ok());
    }

    #[test]
    fn rejects_garbage() {
        assert!(parse("DROP TABLE t").is_err());
        assert!(parse("SELECT FROM").is_err());
        assert!(parse("CREATE TABLE t (c ED10(5))").is_err());
        assert!(parse("SELECT * FROM t WHERE").is_err());
        assert!(parse("SELECT * FROM t extra junk").is_err());
    }
}
