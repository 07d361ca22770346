//! Tablet-server data operations (§3.6): write, read, delete, scans,
//! multiversion access, read buffer and vertical partitioning behaviour.

use logbase::{ServerConfig, TabletServer, TxnManager, Write};
use logbase_common::schema::{KeyRange, TableSchema};
use logbase_common::{Error, RowKey, Timestamp, Value};
use logbase_dfs::{Dfs, DfsConfig};
use std::sync::Arc;

fn server() -> Arc<TabletServer> {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv-0")).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    s
}

fn key(s: &str) -> RowKey {
    RowKey::copy_from_slice(s.as_bytes())
}

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

#[test]
fn put_then_get_round_trips() {
    let s = server();
    let ts = s.put("t", 0, key("alice"), val("v1")).unwrap();
    assert_eq!(s.get("t", 0, b"alice").unwrap(), Some(val("v1")));
    assert!(ts > Timestamp::ZERO);
    assert!(s.get("t", 0, b"bob").unwrap().is_none());
}

#[test]
fn updates_create_new_versions() {
    let s = server();
    let t1 = s.put("t", 0, key("k"), val("v1")).unwrap();
    let t2 = s.put("t", 0, key("k"), val("v2")).unwrap();
    assert!(t2 > t1);
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v2")));
    // Multiversion access (§3.6.2): a timestamped read sees history.
    assert_eq!(s.get_at("t", 0, b"k", t1).unwrap(), Some(val("v1")));
    assert_eq!(s.get_at("t", 0, b"k", t2).unwrap(), Some(val("v2")));
    assert!(s.get_at("t", 0, b"k", t1.prev()).unwrap().is_none());
}

#[test]
fn delete_removes_all_versions() {
    let s = server();
    let t1 = s.put("t", 0, key("k"), val("v1")).unwrap();
    s.put("t", 0, key("k"), val("v2")).unwrap();
    s.delete("t", 0, b"k").unwrap();
    assert!(s.get("t", 0, b"k").unwrap().is_none());
    // §3.6.3: the index entries are removed, so even historical reads
    // no longer find the record.
    assert!(s.get_at("t", 0, b"k", t1).unwrap().is_none());
    // Re-insert works.
    s.put("t", 0, key("k"), val("v3")).unwrap();
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v3")));
}

#[test]
fn unknown_table_and_column_group_error() {
    let s = server();
    assert!(matches!(s.get("missing", 0, b"k"), Err(Error::Schema(_))));
    assert!(matches!(
        s.put("t", 9, key("k"), val("v")),
        Err(Error::Schema(_))
    ));
}

#[test]
fn duplicate_table_rejected() {
    let s = server();
    assert!(matches!(
        s.create_table(TableSchema::single_group("t", &["v"])),
        Err(Error::Schema(_))
    ));
}

#[test]
fn range_scan_returns_latest_versions_in_key_order() {
    let s = server();
    for (k, v) in [("a", "1"), ("c", "3"), ("b", "2"), ("d", "4")] {
        s.put("t", 0, key(k), val(v)).unwrap();
    }
    s.put("t", 0, key("b"), val("2-new")).unwrap();
    let out = s
        .range_scan("t", 0, &KeyRange::new(&b"a"[..], &b"d"[..]), usize::MAX)
        .unwrap();
    let got: Vec<(String, String)> = out
        .iter()
        .map(|(k, _, v)| {
            (
                String::from_utf8(k.to_vec()).unwrap(),
                String::from_utf8(v.to_vec()).unwrap(),
            )
        })
        .collect();
    assert_eq!(
        got,
        vec![
            ("a".to_string(), "1".to_string()),
            ("b".to_string(), "2-new".to_string()),
            ("c".to_string(), "3".to_string()),
        ]
    );
}

#[test]
fn range_scan_respects_limit() {
    let s = server();
    for i in 0..50 {
        s.put("t", 0, key(&format!("k{i:03}")), val("x")).unwrap();
    }
    let out = s.range_scan("t", 0, &KeyRange::all(), 7).unwrap();
    assert_eq!(out.len(), 7);
    assert_eq!(&out[0].0[..], b"k000");
}

#[test]
fn full_scan_counts_latest_live_records() {
    let s = server();
    for i in 0..30 {
        s.put("t", 0, key(&format!("k{i:03}")), val("x")).unwrap();
    }
    // Update 10 of them (old versions are stale) and delete 5.
    for i in 0..10 {
        s.put("t", 0, key(&format!("k{i:03}")), val("y")).unwrap();
    }
    for i in 10..15 {
        s.delete("t", 0, format!("k{i:03}").as_bytes()).unwrap();
    }
    assert_eq!(s.full_scan("t", 0).unwrap(), 25);
}

#[test]
fn read_buffer_serves_repeat_reads_without_log_io() {
    let s = server();
    s.put("t", 0, key("hot"), val("value")).unwrap();
    // First read may hit the buffer already (write-through on put).
    s.get("t", 0, b"hot").unwrap();
    let seeks_before = s.metrics().snapshot().seeks;
    for _ in 0..20 {
        assert_eq!(s.get("t", 0, b"hot").unwrap(), Some(val("value")));
    }
    assert_eq!(
        s.metrics().snapshot().seeks,
        seeks_before,
        "cached reads must not touch the DFS"
    );
}

#[test]
fn disabled_read_buffer_still_reads_correctly() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv-nobuf").with_read_buffer(0)).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    s.put("t", 0, key("k"), val("v")).unwrap();
    let seeks_before = s.metrics().snapshot().seeks;
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v")));
    assert!(s.metrics().snapshot().seeks > seeks_before);
}

#[test]
fn long_tail_read_is_one_seek() {
    // §3.5: "in-memory indexes for directly locating and retrieving data
    // records from the log with only one disk seek".
    let s = server();
    for i in 0..100 {
        s.put("t", 0, key(&format!("k{i:04}")), val("x")).unwrap();
    }
    // Use a server with the buffer disabled for a precise seek count.
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let cold =
        TabletServer::create(dfs, ServerConfig::new("srv-cold").with_read_buffer(0)).unwrap();
    cold.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    for i in 0..100 {
        cold.put("t", 0, key(&format!("k{i:04}")), val("x"))
            .unwrap();
    }
    let before = cold.metrics().snapshot().seeks;
    cold.get("t", 0, b"k0042").unwrap();
    assert_eq!(cold.metrics().snapshot().seeks - before, 1);
    let _ = s;
}

#[test]
fn column_groups_are_independent() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv-cg")).unwrap();
    s.create_table(TableSchema::with_groups(
        "item",
        &[("meta", &["title"]), ("stock", &["qty"])],
    ))
    .unwrap();
    s.put("item", 0, key("i1"), val("The Title")).unwrap();
    s.put("item", 1, key("i1"), val("42")).unwrap();
    assert_eq!(s.get("item", 0, b"i1").unwrap(), Some(val("The Title")));
    assert_eq!(s.get("item", 1, b"i1").unwrap(), Some(val("42")));
    s.delete("item", 1, b"i1").unwrap();
    assert_eq!(s.get("item", 0, b"i1").unwrap(), Some(val("The Title")));
    assert!(s.get("item", 1, b"i1").unwrap().is_none());
}

#[test]
fn tuple_reconstruction_across_column_groups() {
    // §3.2: each column group embeds the primary key; reconstruction
    // collects componential data from all groups by key.
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv-rec")).unwrap();
    s.create_table(TableSchema::with_groups(
        "user",
        &[("a", &["name"]), ("b", &["email"]), ("c", &["bio"])],
    ))
    .unwrap();
    s.put("user", 0, key("u1"), val("Ann")).unwrap();
    s.put("user", 1, key("u1"), val("ann@example.org")).unwrap();
    s.put("user", 2, key("u1"), val("hello")).unwrap();
    let tuple: Vec<Option<Value>> = (0..3u16)
        .map(|cg| s.get("user", cg, b"u1").unwrap())
        .collect();
    assert_eq!(
        tuple,
        vec![
            Some(val("Ann")),
            Some(val("ann@example.org")),
            Some(val("hello"))
        ]
    );
}

#[test]
fn writes_are_sequential_appends_and_single_copy() {
    // The log-only property (§1): N records ⇒ data written once
    // (× replication), all sequential.
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv-seq")).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    let payload = vec![0u8; 1024];
    for i in 0..100u32 {
        s.put(
            "t",
            0,
            RowKey::from(i.to_be_bytes().to_vec()),
            Value::from(payload.clone()),
        )
        .unwrap();
    }
    let snap = s.metrics().snapshot();
    // ~100 KiB of payload × 3 replicas plus framing/metadata; the flush
    // counter (memtable double-writes) must stay zero.
    assert!(snap.seq_bytes_written >= 100 * 1024 * 3);
    assert!(snap.seq_bytes_written < 2 * 140 * 1024 * 3);
    assert_eq!(snap.flushes, 0, "log-only: no memtable flushes");
}

#[test]
fn multi_tablet_server_routes_by_range() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv-mt")).unwrap();
    s.register_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    for desc in logbase_common::schema::split_uniform("t", 4, 1 << 32) {
        s.assign_tablet(desc).unwrap();
    }
    for i in (0u64..(1 << 32)).step_by(1 << 28) {
        s.put("t", 0, RowKey::from(i.to_be_bytes().to_vec()), val("x"))
            .unwrap();
    }
    let out = s.range_scan("t", 0, &KeyRange::all(), usize::MAX).unwrap();
    assert_eq!(out.len(), 16);
    // Keys come back globally ordered even though four tablets served.
    assert!(out.windows(2).all(|w| w[0].0 < w[1].0));
}

#[test]
fn concurrent_writers_and_readers() {
    let s = server();
    std::thread::scope(|scope| {
        for t in 0..4u64 {
            let s = Arc::clone(&s);
            scope.spawn(move || {
                for i in 0..100u64 {
                    s.put("t", 0, key(&format!("{t}-{i}")), val("x")).unwrap();
                }
            });
        }
        for _ in 0..2 {
            let s = Arc::clone(&s);
            scope.spawn(move || {
                for _ in 0..100 {
                    let _ = s.get("t", 0, b"0-50");
                    let _ = s.range_scan("t", 0, &KeyRange::all(), 10);
                }
            });
        }
    });
    assert_eq!(s.stats().index_entries, 400);
    assert_eq!(s.full_scan("t", 0).unwrap(), 400);
}

#[test]
fn spill_mode_keeps_serving_past_memory_budget() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(
        dfs,
        ServerConfig::new("srv-spill").with_spill(logbase::SpillConfig {
            mem_budget_bytes: 2_000,
            lsm_write_buffer_bytes: 1 << 20,
        }),
    )
    .unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    for i in 0..300 {
        s.put("t", 0, key(&format!("k{i:05}")), val("payload"))
            .unwrap();
    }
    // Index memory stays bounded while every record remains readable.
    assert!(s.stats().index_bytes <= 3_000);
    for i in [0, 123, 299] {
        assert_eq!(
            s.get("t", 0, format!("k{i:05}").as_bytes()).unwrap(),
            Some(val("payload")),
            "key k{i:05}"
        );
    }
    let out = s.range_scan("t", 0, &KeyRange::all(), usize::MAX).unwrap();
    assert_eq!(out.len(), 300);
}

/// `records_written` counts every data write once, whichever way it
/// arrives: put, delete, transaction write or tablet ingest.
#[test]
fn records_written_counts_every_data_write() {
    let s = server();
    let written = || s.metrics().snapshot().records_written;
    let mut last = written();
    let mut expect_delta = |what: &str, n: u64| {
        let now = written();
        assert_eq!(now - last, n, "{what} writes counted wrong");
        last = now;
    };
    s.put("t", 0, key("a"), val("v")).unwrap();
    expect_delta("put", 1);
    s.delete("t", 0, b"a").unwrap();
    expect_delta("delete", 1);
    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "t", 0, key("b"), val("v"));
    TxnManager::delete(&mut txn, "t", 0, key("c"));
    TxnManager::commit(&s, txn).unwrap();
    expect_delta("transaction", 2);
    let ingest = (1..=3)
        .map(|i| Write::new("t", 0, key(&format!("m{i}")), Some(val("v"))).at(Timestamp(i)))
        .collect();
    s.apply(0, ingest).unwrap();
    expect_delta("ingest", 3);
}

/// A batch with one unroutable write fails as a whole before anything
/// reaches the log: no write of it becomes visible or is counted.
#[test]
fn apply_rejects_unroutable_batch_before_logging() {
    let s = server();
    let before = s.metrics().snapshot();
    let batch = vec![
        Write::new("t", 0, key("good"), Some(val("v"))),
        Write::new("missing", 0, key("bad"), Some(val("v"))),
    ];
    let err = s.apply(7, batch).unwrap_err();
    assert!(matches!(err.error, Error::Schema(_)), "{err:?}");
    assert_eq!(err.logged_at, None);
    let d = s.metrics().snapshot().delta_since(&before);
    assert_eq!((d.records_written, d.wal_batched_entries), (0, 0));
    assert!(s.get("t", 0, b"good").unwrap().is_none());
}

/// Ingested writes keep their own versions, and the oracle moves past
/// them so the next reserved version is newer.
#[test]
fn ingest_keeps_versions_and_moves_the_oracle_past_them() {
    let s = server();
    let batch = vec![
        Write::new("t", 0, key("a"), Some(val("old"))).at(Timestamp(900)),
        Write::new("t", 0, key("a"), Some(val("new"))).at(Timestamp(1000)),
    ];
    assert_eq!(s.apply(0, batch).unwrap(), Timestamp(1000));
    assert!(s.get_at("t", 0, b"a", Timestamp(899)).unwrap().is_none());
    assert_eq!(
        s.get_at("t", 0, b"a", Timestamp(999)).unwrap(),
        Some(val("old"))
    );
    assert_eq!(s.get("t", 0, b"a").unwrap(), Some(val("new")));
    assert!(s.put("t", 0, key("b"), val("v")).unwrap() > Timestamp(1000));
}
