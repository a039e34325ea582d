//! The networked service layer's own contract (DESIGN.md §16): qualified
//! join output names round-trip through the tenant namespace, tenants
//! cannot name each other's tables, table quotas bind, over-limit
//! requests get a deterministic `BUSY`, and a bad token never reaches the
//! query path. That TCP and in-process execution agree — results and
//! per-byte ledgers, for every kind — is checked over generated
//! interleavings by the differential harness (`tests/harness`).

mod harness;

use encdbdb::{
    net::tenant_table_name, DbError, NetClient, NetServer, NetServerConfig, QueryResult, Session,
    TenantSpec,
};
use proptest::prelude::*;

const TENANT: &str = "acme";
const TOKEN: &str = "tok-acme";

fn sorted_result(r: &QueryResult) -> (Vec<String>, Vec<Vec<Vec<u8>>>) {
    let mut rows = r.rows.clone();
    rows.sort();
    (r.columns.clone(), rows)
}

#[test]
fn join_columns_round_trip_through_the_namespace() {
    let seed = 0x701_1234;
    let stmts = [
        "CREATE TABLE {a} (k ED5(8), x ED9(8))",
        "CREATE TABLE {b} (k ED5(8), y ED9(8))",
        "INSERT INTO {a} VALUES ('0001', '0010'), ('0002', '0020'), ('0003', '0030')",
        "INSERT INTO {b} VALUES ('0002', '0200'), ('0003', '0300'), ('0004', '0400')",
        "SELECT {a}.x, {b}.y FROM {a} JOIN {b} ON {a}.k = {b}.k",
        "SELECT {a}.k, SUM({b}.y) FROM {a} JOIN {b} ON {a}.k = {b}.k GROUP BY {a}.k",
    ];

    let tcp_session = Session::with_seed(seed).expect("tcp session");
    tcp_session.server().set_compaction_policy(None);
    let handle = NetServer::start(
        tcp_session,
        vec![TenantSpec::new(TENANT, TOKEN)],
        NetServerConfig::default(),
    )
    .expect("server start");
    let mut client = NetClient::connect(handle.addr(), TENANT, TOKEN).expect("connect");
    let tcp_results: Vec<QueryResult> = stmts
        .iter()
        .map(|s| {
            client
                .execute(&s.replace("{a}", "a").replace("{b}", "b"))
                .unwrap_or_else(|e| panic!("tcp join leg failed on {s:?}: {e}"))
        })
        .collect();
    client.close();
    let tcp_session = handle.shutdown().expect("shutdown");

    let mut local = Session::with_seed(seed).expect("local session");
    local.server().set_compaction_policy(None);
    let (ta, tb) = (
        tenant_table_name(TENANT, "a"),
        tenant_table_name(TENANT, "b"),
    );
    let local_results: Vec<QueryResult> = stmts
        .iter()
        .map(|s| {
            local
                .execute(&s.replace("{a}", &ta).replace("{b}", &tb))
                .unwrap_or_else(|e| panic!("local join leg failed on {s:?}: {e}"))
        })
        .collect();

    for (i, (tcp, inproc)) in tcp_results.iter().zip(&local_results).enumerate() {
        // Qualified output names ("a.x", "sum(b.y)") must come back with
        // the tenant prefix stripped.
        let local_cols: Vec<String> = inproc
            .columns
            .iter()
            .map(|c| c.replace(&format!("{TENANT}__"), ""))
            .collect();
        assert_eq!(tcp.columns, local_cols, "join stmt {i}: columns");
        let (_, tcp_rows) = sorted_result(tcp);
        let (_, local_rows) = sorted_result(inproc);
        assert_eq!(tcp_rows, local_rows, "join stmt {i}: rows");
    }
    let (lt, ll) = (tcp_session.leakage_ledger(), local.leakage_ledger());
    assert_eq!(lt.total_calls(), ll.total_calls(), "join: transitions");
}

#[test]
fn tenants_cannot_reach_each_others_tables() {
    let session = Session::with_seed(0x150_0001).expect("session");
    let handle = NetServer::start(
        session,
        vec![
            TenantSpec::new("acme", "tok-a"),
            TenantSpec::new("globex", "tok-g"),
        ],
        NetServerConfig::default(),
    )
    .expect("server start");

    let mut acme = NetClient::connect(handle.addr(), "acme", "tok-a").expect("acme connect");
    acme.execute("CREATE TABLE t (v ED2(8))").expect("create");
    acme.execute("INSERT INTO t VALUES ('0001'), ('0002')")
        .expect("insert");
    assert_eq!(
        acme.execute("SELECT v FROM t")
            .expect("own select")
            .rows
            .len(),
        2
    );

    // The other tenant addressing the same name sees *its own* (absent)
    // namespace, not acme's data.
    let mut globex = NetClient::connect(handle.addr(), "globex", "tok-g").expect("globex connect");
    let err = globex.execute("SELECT v FROM t").expect_err("isolated");
    let msg = err.to_string();
    assert!(
        msg.contains("globex__t") && msg.contains("table not found"),
        "isolation error should name the rewritten table: {msg}"
    );
    // Nor can it smuggle a qualified reference to another namespace: the
    // rewriter prefixes the qualifier too.
    let err = globex
        .execute("SELECT acme__t.v FROM acme__t")
        .expect_err("qualified escape");
    assert!(
        err.to_string().contains("globex__acme__t"),
        "qualified names must be re-namespaced: {err}"
    );

    acme.close();
    globex.close();
    handle.shutdown().expect("shutdown");
}

#[test]
fn table_quota_and_busy_shedding_are_deterministic() {
    // Table quota: a tenant provisioned for one table gets ERR_QUOTA on
    // the second create, and the refused create consumed no quota.
    let session = Session::with_seed(0x150_0002).expect("session");
    let mut spec = TenantSpec::new("acme", "tok");
    spec.max_tables = 1;
    let handle =
        NetServer::start(session, vec![spec], NetServerConfig::default()).expect("server start");
    let mut client = NetClient::connect(handle.addr(), "acme", "tok").expect("connect");
    client.execute("CREATE TABLE t (v ED2(8))").expect("first");
    let err = client
        .execute("CREATE TABLE u (v ED2(8))")
        .expect_err("quota");
    assert!(
        err.to_string().contains("server error 4") && err.to_string().contains("quota"),
        "{err}"
    );
    client.close();
    handle.shutdown().expect("shutdown");

    // Query admission: with a zero in-flight budget every query is shed
    // with BUSY carrying the configured backoff, and the handshake (not
    // subject to query admission) still succeeds.
    let session = Session::with_seed(0x150_0003).expect("session");
    let handle = NetServer::start(
        session,
        vec![TenantSpec::new("acme", "tok")],
        NetServerConfig {
            max_inflight_queries: 0,
            retry_after_ms: 33,
            ..NetServerConfig::default()
        },
    )
    .expect("server start");
    let mut client = NetClient::connect(handle.addr(), "acme", "tok").expect("connect");
    for _ in 0..3 {
        match client.execute("SELECT v FROM t") {
            Err(DbError::ServerBusy { retry_after_ms }) => assert_eq!(retry_after_ms, 33),
            other => panic!("expected ServerBusy, got {other:?}"),
        }
    }
    client.close();
    let session = handle.shutdown().expect("shutdown");
    assert_eq!(
        session.metrics_report().counter("net_busy_replies_total"),
        3
    );
}

#[test]
fn bad_credentials_never_reach_the_query_path() {
    let session = Session::with_seed(0x150_0004).expect("session");
    let handle = NetServer::start(
        session,
        vec![TenantSpec::new("acme", "tok")],
        NetServerConfig::default(),
    )
    .expect("server start");

    for (tenant, token) in [("acme", "wrong"), ("nobody", "tok")] {
        let err = NetClient::connect(handle.addr(), tenant, token).expect_err("rejected");
        assert!(err.to_string().contains("server error 2"), "{err}");
    }

    let session = handle.shutdown().expect("shutdown");
    let m = session.metrics_report();
    assert_eq!(m.counter("net_auth_failures_total"), 2);
    assert_eq!(
        m.counter("net_requests_total"),
        0,
        "rejected connections must execute nothing"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// Two of the volatile single-shard quadrant's ten streams: the TCP
    /// cells agree with the in-process ones in results, column names and
    /// per-kind ledgers, for every kind.
    #[test]
    fn tcp_and_in_process_agree_for_every_kind(seed in any::<u64>()) {
        harness::check_modes(false, false, seed)?;
    }
}
