//! SQL abstract syntax tree.

use crate::schema::DictChoice;
use encdict::aggregate::AggFunc;
use std::fmt;

/// A column definition in a `CREATE TABLE` statement, e.g. `c1 ED5(12)`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ColumnDef {
    /// Column name.
    pub name: String,
    /// Dictionary protection (ED1–ED9 or PLAIN).
    pub choice: DictChoice,
    /// Fixed maximal value length.
    pub max_len: usize,
    /// Optional bs_max (second argument in the type parentheses).
    pub bs_max: Option<usize>,
}

/// A possibly table-qualified column reference (`c` or `t.c`).
///
/// Single-table statements normally use bare references; join statements
/// qualify columns with their table so the planner can resolve each
/// reference to a side. `From<&str>` / `From<String>` build unqualified
/// references, so existing call sites keep reading naturally.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ColumnRef {
    /// Optional table qualifier.
    pub table: Option<String>,
    /// The column name.
    pub column: String,
}

impl ColumnRef {
    /// An unqualified reference.
    pub fn bare(column: impl Into<String>) -> Self {
        ColumnRef {
            table: None,
            column: column.into(),
        }
    }

    /// A table-qualified reference.
    pub fn qualified(table: impl Into<String>, column: impl Into<String>) -> Self {
        ColumnRef {
            table: Some(table.into()),
            column: column.into(),
        }
    }
}

impl From<&str> for ColumnRef {
    fn from(s: &str) -> Self {
        ColumnRef::bare(s)
    }
}

impl From<String> for ColumnRef {
    fn from(s: String) -> Self {
        ColumnRef::bare(s)
    }
}

impl fmt::Display for ColumnRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.table {
            Some(t) => write!(f, "{t}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// A comparison operator in a filter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompareOp {
    /// `=`
    Eq,
    /// `<`
    Lt,
    /// `<=`
    Le,
    /// `>`
    Gt,
    /// `>=`
    Ge,
}

impl fmt::Display for CompareOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            CompareOp::Eq => "=",
            CompareOp::Lt => "<",
            CompareOp::Le => "<=",
            CompareOp::Gt => ">",
            CompareOp::Ge => ">=",
        })
    }
}

/// A filter over a single column.
///
/// The proxy converts every shape into range selects (Fig. 5 step 5),
/// so the server cannot distinguish query types. `IN` becomes one
/// equality range per listed value, unioned on the scan path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Filter {
    /// `col <op> 'value'`
    Compare {
        /// Filtered column.
        column: ColumnRef,
        /// Operator.
        op: CompareOp,
        /// Comparison value.
        value: Vec<u8>,
    },
    /// `col BETWEEN 'a' AND 'b'` (inclusive).
    Between {
        /// Filtered column.
        column: ColumnRef,
        /// Lower bound (inclusive).
        low: Vec<u8>,
        /// Upper bound (inclusive).
        high: Vec<u8>,
    },
    /// `col IN ('v1', 'v2', ...)` — membership in an explicit value list.
    In {
        /// Filtered column.
        column: ColumnRef,
        /// The listed values, in source order.
        values: Vec<Vec<u8>>,
    },
    /// Two filters joined by `AND`, e.g. `c >= 'a' AND c < 'b'`.
    And(Box<Filter>, Box<Filter>),
}

impl fmt::Display for Filter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Filter::Compare { column, op, value } => {
                write!(f, "{column} {op} {}", quote(value))
            }
            Filter::Between { column, low, high } => {
                write!(f, "{column} BETWEEN {} AND {}", quote(low), quote(high))
            }
            Filter::In { column, values } => {
                let vals: Vec<String> = values.iter().map(|v| quote(v)).collect();
                write!(f, "{column} IN ({})", vals.join(", "))
            }
            Filter::And(a, b) => write!(f, "{a} AND {b}"),
        }
    }
}

/// One item of a SELECT list.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SelectItem {
    /// A (possibly qualified) column reference.
    Column(ColumnRef),
    /// An aggregate, e.g. `SUM(price)` or `COUNT(*)` (`column` is `None`
    /// only for `COUNT(*)`).
    Aggregate {
        /// The aggregate function.
        func: AggFunc,
        /// The aggregated column (`None` for `COUNT(*)`).
        column: Option<ColumnRef>,
    },
}

impl SelectItem {
    /// The output column name of this item (`count`, `sum(price)`,
    /// `a.x`, ...).
    pub fn output_name(&self) -> String {
        match self {
            SelectItem::Column(c) => c.to_string(),
            SelectItem::Aggregate {
                func: AggFunc::Count,
                ..
            } => "count".to_string(),
            SelectItem::Aggregate {
                func,
                column: Some(c),
            } => format!("{}({c})", func.to_string().to_lowercase()),
            SelectItem::Aggregate { func, column: None } => {
                format!("{}(*)", func.to_string().to_lowercase())
            }
        }
    }

    /// Whether this item is an aggregate.
    pub fn is_aggregate(&self) -> bool {
        matches!(self, SelectItem::Aggregate { .. })
    }
}

impl fmt::Display for SelectItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SelectItem::Column(c) => write!(f, "{c}"),
            SelectItem::Aggregate { func, column } => match column {
                Some(c) => write!(f, "{func}({c})"),
                None => write!(f, "{func}(*)"),
            },
        }
    }
}

/// What an ORDER BY key refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderTarget {
    /// A 1-based output position (`ORDER BY 2`).
    Position(usize),
    /// An output column by name (qualified names render as `t.c`).
    Column(String),
}

/// One ORDER BY key.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OrderKey {
    /// The sort target.
    pub target: OrderTarget,
    /// Descending order if set (`DESC`); ascending otherwise.
    pub desc: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.target {
            OrderTarget::Position(p) => write!(f, "{p}")?,
            OrderTarget::Column(c) => f.write_str(c)?,
        }
        if self.desc {
            f.write_str(" DESC")?;
        }
        Ok(())
    }
}

/// A `PARTITION BY RANGE` clause of a `CREATE TABLE` statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PartitionByDef {
    /// The partition column.
    pub column: String,
    /// Strictly ascending split points (`SPLIT ('a', 'b', ...)`).
    pub split_points: Vec<Vec<u8>>,
}

/// The `JOIN b ON a.k = b.k` clause of a two-table SELECT.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JoinClause {
    /// The joined (right) table.
    pub table: String,
    /// Left operand of the ON equality.
    pub left: ColumnRef,
    /// Right operand of the ON equality.
    pub right: ColumnRef,
}

impl fmt::Display for JoinClause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JOIN {} ON {} = {}", self.table, self.left, self.right)
    }
}

/// A parsed SQL statement.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Statement {
    /// `CREATE TABLE t (c1 ED1(10), ...) [PARTITION BY RANGE (c1) SPLIT
    /// ('m', ...)]`
    CreateTable {
        /// Table name.
        name: String,
        /// Column definitions.
        columns: Vec<ColumnDef>,
        /// Optional range partitioning.
        partition_by: Option<PartitionByDef>,
    },
    /// `INSERT INTO t VALUES ('a', 'b'), ('c', 'd')`
    Insert {
        /// Target table.
        table: String,
        /// Rows of values.
        rows: Vec<Vec<Vec<u8>>>,
    },
    /// `SELECT [DISTINCT] a, SUM(b) FROM t [JOIN u ON t.k = u.k] WHERE
    /// c >= 'x' GROUP BY a ORDER BY 2 DESC LIMIT 10` — the analytic select
    /// shape. Plain selects are the special case with only
    /// [`SelectItem::Column`] items, no GROUP BY and no join.
    Select {
        /// `SELECT DISTINCT`: deduplicate the output rows.
        distinct: bool,
        /// Select-list items; empty means `*`.
        items: Vec<SelectItem>,
        /// Source (left) table.
        table: String,
        /// Optional equi-join with a second table.
        join: Option<Box<JoinClause>>,
        /// Optional filter.
        filter: Option<Filter>,
        /// GROUP BY columns (empty when absent).
        group_by: Vec<ColumnRef>,
        /// ORDER BY keys (empty when absent).
        order_by: Vec<OrderKey>,
        /// Optional LIMIT.
        limit: Option<usize>,
    },
    /// `DELETE FROM t WHERE c = 'x'`
    Delete {
        /// Target table.
        table: String,
        /// Optional filter (`None` deletes all rows).
        filter: Option<Filter>,
    },
}

/// Renders a value as a single-quoted SQL literal (doubling embedded
/// quotes). Values are shown as lossy UTF-8 — `Display` round-trips for
/// statements whose literals are valid UTF-8, which is what the grammar
/// tests generate.
fn quote(value: &[u8]) -> String {
    format!("'{}'", String::from_utf8_lossy(value).replace('\'', "''"))
}

fn join<T: fmt::Display>(items: &[T]) -> String {
    items
        .iter()
        .map(T::to_string)
        .collect::<Vec<_>>()
        .join(", ")
}

impl fmt::Display for Statement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Statement::CreateTable {
                name,
                columns,
                partition_by,
            } => {
                let cols: Vec<String> = columns
                    .iter()
                    .map(|c| match c.bs_max {
                        Some(bs) => format!("{} {}({}, {bs})", c.name, c.choice, c.max_len),
                        None => format!("{} {}({})", c.name, c.choice, c.max_len),
                    })
                    .collect();
                write!(f, "CREATE TABLE {name} ({})", cols.join(", "))?;
                if let Some(p) = partition_by {
                    let points: Vec<String> = p.split_points.iter().map(|s| quote(s)).collect();
                    write!(
                        f,
                        " PARTITION BY RANGE ({}) SPLIT ({})",
                        p.column,
                        points.join(", ")
                    )?;
                }
                Ok(())
            }
            Statement::Insert { table, rows } => {
                let rows: Vec<String> = rows
                    .iter()
                    .map(|r| {
                        format!(
                            "({})",
                            r.iter().map(|v| quote(v)).collect::<Vec<_>>().join(", ")
                        )
                    })
                    .collect();
                write!(f, "INSERT INTO {table} VALUES {}", rows.join(", "))
            }
            Statement::Select {
                distinct,
                items,
                table,
                join: join_clause,
                filter,
                group_by,
                order_by,
                limit,
            } => {
                let head = if *distinct {
                    "SELECT DISTINCT"
                } else {
                    "SELECT"
                };
                if items.is_empty() {
                    write!(f, "{head} * FROM {table}")?;
                } else {
                    write!(f, "{head} {} FROM {table}", join(items))?;
                }
                if let Some(j) = join_clause {
                    write!(f, " {j}")?;
                }
                if let Some(filter) = filter {
                    write!(f, " WHERE {filter}")?;
                }
                if !group_by.is_empty() {
                    write!(f, " GROUP BY {}", join(group_by))?;
                }
                if !order_by.is_empty() {
                    write!(f, " ORDER BY {}", join(order_by))?;
                }
                if let Some(n) = limit {
                    write!(f, " LIMIT {n}")?;
                }
                Ok(())
            }
            Statement::Delete { table, filter } => {
                write!(f, "DELETE FROM {table}")?;
                if let Some(filter) = filter {
                    write!(f, " WHERE {filter}")?;
                }
                Ok(())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_renders_canonical_sql() {
        let stmt = Statement::Select {
            distinct: false,
            items: vec![
                SelectItem::Column("a".into()),
                SelectItem::Aggregate {
                    func: AggFunc::Sum,
                    column: Some("b".into()),
                },
            ],
            table: "t".into(),
            join: None,
            filter: Some(Filter::Between {
                column: "b".into(),
                low: b"x".to_vec(),
                high: b"y".to_vec(),
            }),
            group_by: vec!["a".into()],
            order_by: vec![OrderKey {
                target: OrderTarget::Position(2),
                desc: true,
            }],
            limit: Some(10),
        };
        assert_eq!(
            stmt.to_string(),
            "SELECT a, SUM(b) FROM t WHERE b BETWEEN 'x' AND 'y' \
             GROUP BY a ORDER BY 2 DESC LIMIT 10"
        );
    }

    #[test]
    fn display_renders_join_and_qualified_columns() {
        let stmt = Statement::Select {
            distinct: false,
            items: vec![
                SelectItem::Column(ColumnRef::qualified("a", "x")),
                SelectItem::Column(ColumnRef::qualified("b", "y")),
            ],
            table: "a".into(),
            join: Some(Box::new(JoinClause {
                table: "b".into(),
                left: ColumnRef::qualified("a", "k"),
                right: ColumnRef::qualified("b", "k"),
            })),
            filter: Some(Filter::In {
                column: ColumnRef::qualified("a", "x"),
                values: vec![b"u".to_vec(), b"v".to_vec()],
            }),
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        assert_eq!(
            stmt.to_string(),
            "SELECT a.x, b.y FROM a JOIN b ON a.k = b.k WHERE a.x IN ('u', 'v')"
        );
    }

    #[test]
    fn display_renders_distinct() {
        let stmt = Statement::Select {
            distinct: true,
            items: vec![SelectItem::Column("v".into())],
            table: "t".into(),
            join: None,
            filter: None,
            group_by: vec![],
            order_by: vec![],
            limit: None,
        };
        assert_eq!(stmt.to_string(), "SELECT DISTINCT v FROM t");
    }

    #[test]
    fn display_quotes_embedded_quotes() {
        let stmt = Statement::Insert {
            table: "t".into(),
            rows: vec![vec![b"it's".to_vec()]],
        };
        assert_eq!(stmt.to_string(), "INSERT INTO t VALUES ('it''s')");
    }

    #[test]
    fn output_names() {
        assert_eq!(
            SelectItem::Aggregate {
                func: AggFunc::Count,
                column: None
            }
            .output_name(),
            "count"
        );
        assert_eq!(
            SelectItem::Aggregate {
                func: AggFunc::Avg,
                column: Some("p".into())
            }
            .output_name(),
            "avg(p)"
        );
        assert_eq!(SelectItem::Column("c".into()).output_name(), "c");
        assert_eq!(
            SelectItem::Column(ColumnRef::qualified("t", "c")).output_name(),
            "t.c"
        );
    }
}
