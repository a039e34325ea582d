//! Tenant table namespacing (DESIGN.md §16.3).
//!
//! Every networked connection is bound to one tenant at handshake time.
//! The server never trusts table names off the wire: after parsing, it
//! rewrites the statement so every table reference — the target table,
//! the join table, and every qualified column reference — is prefixed
//! with `"{tenant}__"`. A tenant therefore cannot *name* another
//! tenant's table, much less read it: the rewritten AST simply has no
//! way to escape the prefix. Result column names are stripped of the
//! prefix before they go back on the wire, so tenants see their own
//! names round-trip unchanged.
//!
//! Tenant names may not contain `__` or `.` (rejected at provisioning
//! and at handshake), which keeps the `{tenant}__{table}` mapping
//! injective: no pair of distinct `(tenant, table)` inputs can collide
//! in the shared namespace.

use crate::sql::{ColumnRef, Filter, OrderTarget, SelectItem, Statement};

/// The shared-namespace name of `table` owned by `tenant`.
pub(crate) fn namespaced(tenant: &str, table: &str) -> String {
    format!("{tenant}__{table}")
}

/// Validates a tenant name for use as a namespace prefix.
pub(crate) fn validate_tenant_name(name: &str) -> Result<(), String> {
    if name.is_empty() {
        return Err("tenant name must not be empty".into());
    }
    if name.contains("__") || name.contains('.') {
        return Err(format!(
            "tenant name {name:?} must not contain \"__\" or '.'"
        ));
    }
    Ok(())
}

fn qualify_column(col: &mut ColumnRef, tenant: &str) {
    if let Some(table) = col.table.take() {
        col.table = Some(namespaced(tenant, &table));
    }
}

fn qualify_filter(filter: &mut Filter, tenant: &str) {
    match filter {
        Filter::Compare { column, .. }
        | Filter::Between { column, .. }
        | Filter::In { column, .. } => qualify_column(column, tenant),
        Filter::And(a, b) => {
            qualify_filter(a, tenant);
            qualify_filter(b, tenant);
        }
    }
}

/// Rewrites every table reference in `stmt` into `tenant`'s namespace.
pub(crate) fn qualify_statement(stmt: &mut Statement, tenant: &str) {
    match stmt {
        Statement::CreateTable { name, .. } => *name = namespaced(tenant, name),
        Statement::Insert { table, .. } => *table = namespaced(tenant, table),
        Statement::Select {
            items,
            table,
            join,
            filter,
            group_by,
            order_by,
            ..
        } => {
            *table = namespaced(tenant, table);
            if let Some(j) = join {
                j.table = namespaced(tenant, &j.table);
                qualify_column(&mut j.left, tenant);
                qualify_column(&mut j.right, tenant);
            }
            for item in items {
                match item {
                    SelectItem::Column(c) => qualify_column(c, tenant),
                    SelectItem::Aggregate {
                        column: Some(c), ..
                    } => qualify_column(c, tenant),
                    SelectItem::Aggregate { column: None, .. } => {}
                }
            }
            if let Some(f) = filter {
                qualify_filter(f, tenant);
            }
            for c in group_by {
                qualify_column(c, tenant);
            }
            for key in order_by {
                if let OrderTarget::Column(name) = &mut key.target {
                    // An ORDER BY target naming an output column keeps a
                    // qualified "t.c" spelling as a flat string; prefix
                    // the table part so it still matches the (rewritten)
                    // output name.
                    if let Some((table, column)) = name.split_once('.') {
                        *name = format!("{}.{column}", namespaced(tenant, table));
                    }
                }
            }
        }
        Statement::Delete { table, filter } => {
            *table = namespaced(tenant, table);
            if let Some(f) = filter {
                qualify_filter(f, tenant);
            }
        }
    }
}

/// Strips `tenant`'s namespace prefix from a result column name, so
/// `"acme__t.v"` and `"sum(acme__t.v)"` read back as `"t.v"` and
/// `"sum(t.v)"`.
pub(crate) fn strip_namespace(name: &str, tenant: &str) -> String {
    name.replace(&format!("{tenant}__"), "")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sql::parse;

    fn rewrite(sql: &str, tenant: &str) -> Statement {
        let mut stmt = parse(sql).expect("parse");
        qualify_statement(&mut stmt, tenant);
        stmt
    }

    #[test]
    fn create_insert_delete_are_prefixed() {
        let Statement::CreateTable { name, .. } = rewrite("CREATE TABLE t (c ED2(8))", "acme")
        else {
            panic!("expected create");
        };
        assert_eq!(name, "acme__t");
        let Statement::Insert { table, .. } = rewrite("INSERT INTO t VALUES ('a')", "acme") else {
            panic!("expected insert");
        };
        assert_eq!(table, "acme__t");
        let Statement::Delete {
            table,
            filter: Some(Filter::Compare { column, .. }),
        } = rewrite("DELETE FROM t WHERE c = 'x'", "acme")
        else {
            panic!("expected delete");
        };
        assert_eq!(table, "acme__t");
        // Bare filter columns stay bare — they resolve against the
        // (already rewritten) target table.
        assert_eq!(column.table, None);
    }

    #[test]
    fn select_with_join_qualifies_every_table_reference() {
        let stmt = rewrite(
            "SELECT a.x, SUM(b.y) FROM a JOIN b ON a.k = b.k \
             WHERE a.x >= 'm' AND a.x < 'z' GROUP BY a.x ORDER BY a.x DESC",
            "acme",
        );
        let Statement::Select {
            items,
            table,
            join,
            filter,
            group_by,
            order_by,
            ..
        } = stmt
        else {
            panic!("expected select");
        };
        assert_eq!(table, "acme__a");
        let join = join.expect("join");
        assert_eq!(join.table, "acme__b");
        assert_eq!(join.left, ColumnRef::qualified("acme__a", "k"));
        assert_eq!(join.right, ColumnRef::qualified("acme__b", "k"));
        assert_eq!(
            items[0],
            SelectItem::Column(ColumnRef::qualified("acme__a", "x"))
        );
        let SelectItem::Aggregate {
            column: Some(agg_col),
            ..
        } = &items[1]
        else {
            panic!("expected aggregate");
        };
        assert_eq!(*agg_col, ColumnRef::qualified("acme__b", "y"));
        // Both conjuncts of the AND filter are rewritten.
        assert_eq!(
            filter.expect("filter").to_string(),
            "acme__a.x >= 'm' AND acme__a.x < 'z'"
        );
        assert_eq!(group_by[0], ColumnRef::qualified("acme__a", "x"));
        let OrderTarget::Column(target) = &order_by[0].target else {
            panic!("expected column order target");
        };
        assert_eq!(target, "acme__a.x");
    }

    #[test]
    fn positional_order_by_and_bare_columns_are_untouched() {
        let stmt = rewrite("SELECT c FROM t WHERE c = 'v' ORDER BY 1", "acme");
        let Statement::Select {
            items,
            table,
            order_by,
            ..
        } = stmt
        else {
            panic!("expected select");
        };
        assert_eq!(table, "acme__t");
        assert_eq!(items[0], SelectItem::Column(ColumnRef::bare("c")));
        assert_eq!(order_by[0].target, OrderTarget::Position(1));
    }

    #[test]
    fn strip_undoes_the_prefix_in_output_names() {
        for (wire, local) in [
            ("acme__t.v", "t.v"),
            ("sum(acme__t.v)", "sum(t.v)"),
            ("min(acme__a.x)", "min(a.x)"),
            ("count", "count"),
            ("v", "v"),
        ] {
            assert_eq!(strip_namespace(wire, "acme"), local);
        }
    }

    #[test]
    fn tenant_name_validation() {
        assert!(validate_tenant_name("acme").is_ok());
        assert!(validate_tenant_name("tenant-2").is_ok());
        assert!(validate_tenant_name("").is_err());
        assert!(validate_tenant_name("a__b").is_err());
        assert!(validate_tenant_name("a.b").is_err());
    }
}
