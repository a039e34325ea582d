//! SQL front-end robustness: the parser must never panic, only return
//! errors, on arbitrary input — and must round-trip generated statements,
//! including the analytic extension (aggregates, GROUP BY, ORDER BY,
//! LIMIT) via `Display`: parse → display → parse is the identity on the
//! parsed representation.

use encdbdb::sql::{
    parse, ColumnRef, Filter, JoinClause, OrderKey, OrderTarget, SelectItem, Statement,
};
use encdict::aggregate::AggFunc;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary printable input never panics the lexer/parser.
    #[test]
    fn parser_never_panics(input in "[ -~]{0,120}") {
        let _ = parse(&input);
    }

    /// Arbitrary bytes interpreted as UTF-8 (lossy) never panic either.
    #[test]
    fn parser_handles_weird_unicode(input in ".{0,80}") {
        let _ = parse(&input);
    }

    /// Generated INSERTs parse back to the same rows, including values that
    /// need quote escaping.
    #[test]
    fn insert_roundtrip(rows in prop::collection::vec(
        prop::collection::vec("[a-z' ]{0,10}", 1..4), 1..4)
    ) {
        let arity = rows[0].len();
        let rows: Vec<Vec<String>> = rows.into_iter()
            .map(|mut r| { r.resize(arity, String::new()); r })
            .collect();
        let sql = format!(
            "INSERT INTO t VALUES {}",
            rows.iter()
                .map(|r| format!(
                    "({})",
                    r.iter()
                        .map(|v| format!("'{}'", v.replace('\'', "''")))
                        .collect::<Vec<_>>()
                        .join(", ")
                ))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let stmt = parse(&sql).expect("generated SQL parses");
        match stmt {
            Statement::Insert { table, rows: parsed } => {
                prop_assert_eq!(table, "t");
                let expected: Vec<Vec<Vec<u8>>> = rows.iter()
                    .map(|r| r.iter().map(|v| v.as_bytes().to_vec()).collect())
                    .collect();
                prop_assert_eq!(parsed, expected);
            }
            other => prop_assert!(false, "wrong statement {:?}", other),
        }
    }

    /// Generated range selects parse to a single-column filter.
    #[test]
    fn select_filter_roundtrip(
        col in "[a-z][a-z0-9_]{0,8}",
        lo in "[a-m]{1,6}",
        hi in "[n-z]{1,6}",
    ) {
        let sql = format!("SELECT {col} FROM t WHERE {col} BETWEEN '{lo}' AND '{hi}'");
        let stmt = parse(&sql).expect("generated SQL parses");
        match stmt {
            Statement::Select { filter: Some(Filter::Between { column, low, high }), .. } => {
                prop_assert_eq!(column, ColumnRef::from(col.as_str()));
                prop_assert_eq!((low, high), (lo.into_bytes(), hi.into_bytes()));
            }
            other => prop_assert!(false, "wrong statement {:?}", other),
        }
    }

    /// Constructed statements of the extended grammar round-trip through
    /// `Display`: parse(display(stmt)) == stmt.
    #[test]
    fn extended_grammar_display_roundtrip(
        table in "[a-z][a-z0-9_]{0,6}",
        group_col in "[a-z][a-z0-9_]{0,6}",
        agg_col in "[A-Za-z][a-z0-9_]{0,6}",
        func in prop::sample::select(vec![
            AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg,
        ]),
        with_filter in any::<bool>(),
        lo in "[a-m]{1,5}",
        hi in "[n-z']{1,5}",
        with_group in any::<bool>(),
        order_pos in 1usize..=2,
        desc in any::<bool>(),
        order_by_name in any::<bool>(),
        limit in prop::sample::select(vec![None, Some(0usize), Some(7), Some(10_000)]),
    ) {
        let aggregate = SelectItem::Aggregate {
            func,
            column: if func == AggFunc::Count {
                None
            } else {
                Some(agg_col.clone().into())
            },
        };
        let (items, group_by) = if with_group {
            (
                vec![SelectItem::Column(group_col.clone().into()), aggregate],
                vec![ColumnRef::bare(group_col.clone())],
            )
        } else {
            (vec![aggregate], vec![])
        };
        let order_by = if order_by_name && with_group {
            vec![OrderKey { target: OrderTarget::Column(group_col.clone()), desc }]
        } else {
            vec![OrderKey {
                target: OrderTarget::Position(order_pos.min(items.len())),
                desc,
            }]
        };
        let filter = with_filter.then(|| encdbdb::sql::Filter::Between {
            column: group_col.clone().into(),
            low: lo.clone().into_bytes(),
            high: hi.clone().into_bytes(),
        });
        let stmt = Statement::Select {
            distinct: false,
            items,
            table: table.clone(),
            join: None,
            filter,
            group_by,
            order_by,
            limit,
        };
        let rendered = stmt.to_string();
        let reparsed = parse(&rendered);
        prop_assert!(reparsed.is_ok(), "failed to reparse {rendered:?}: {reparsed:?}");
        prop_assert_eq!(reparsed.unwrap(), stmt, "display output: {}", rendered);
    }

    /// Constructed join statements with qualified references, DISTINCT and
    /// IN round-trip through `Display`.
    #[test]
    fn join_grammar_display_roundtrip(
        left in "[a-z][a-z0-9_]{0,5}",
        right in "[a-z][a-z0-9_]{0,5}",
        key in "[a-z][a-z0-9_]{0,5}",
        col_l in "[a-z][a-z0-9_]{0,5}",
        col_r in "[a-z][a-z0-9_]{0,5}",
        distinct in any::<bool>(),
        in_values in prop::collection::vec("[a-z']{1,6}", 1..4),
        with_filter in any::<bool>(),
        limit in prop::sample::select(vec![None, Some(3usize)]),
    ) {
        let filter = with_filter.then(|| encdbdb::sql::Filter::In {
            column: ColumnRef::qualified(left.clone(), col_l.clone()),
            values: in_values.iter().map(|v| v.clone().into_bytes()).collect(),
        });
        let stmt = Statement::Select {
            distinct,
            items: vec![
                SelectItem::Column(ColumnRef::qualified(left.clone(), col_l.clone())),
                SelectItem::Column(ColumnRef::qualified(right.clone(), col_r.clone())),
            ],
            table: left.clone(),
            join: Some(Box::new(JoinClause {
                table: right.clone(),
                left: ColumnRef::qualified(left.clone(), key.clone()),
                right: ColumnRef::qualified(right.clone(), key.clone()),
            })),
            filter,
            group_by: vec![],
            order_by: vec![OrderKey {
                target: OrderTarget::Column(format!("{left}.{col_l}")),
                desc: false,
            }],
            limit,
        };
        let rendered = stmt.to_string();
        let reparsed = parse(&rendered);
        prop_assert!(reparsed.is_ok(), "failed to reparse {rendered:?}: {reparsed:?}");
        prop_assert_eq!(reparsed.unwrap(), stmt, "display output: {}", rendered);
    }

    /// Any successfully parsed statement re-renders and re-parses to an
    /// equal statement (parse → display → parse on raw fuzz input).
    #[test]
    fn parse_display_parse_fixpoint(input in "[ -~]{0,120}") {
        if let Ok(s1) = parse(&input) {
            let rendered = s1.to_string();
            let s2 = parse(&rendered);
            prop_assert!(s2.is_ok(), "reparse of {rendered:?} failed: {s2:?}");
            prop_assert_eq!(s2.unwrap(), s1, "rendered: {}", rendered);
        }
    }
}
