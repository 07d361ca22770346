//! MVOCC transactions and snapshot isolation (§3.7).
//!
//! Each test exercises one of the isolation phenomena the paper lists
//! (§3.7.1) or a mechanical property of the commit protocol.

use logbase::{ServerConfig, TabletServer, TxnManager};
use logbase_common::schema::TableSchema;
use logbase_common::{Error, RowKey, Value};
use logbase_dfs::{Dfs, DfsConfig};
use std::sync::Arc;

fn key(s: &str) -> RowKey {
    RowKey::copy_from_slice(s.as_bytes())
}

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

fn server() -> Arc<TabletServer> {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv")).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    s
}

#[test]
fn read_your_own_writes() {
    let s = server();
    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "t", 0, key("k"), val("mine"));
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("mine"))
    );
    // Not visible outside before commit.
    assert!(s.get("t", 0, b"k").unwrap().is_none());
    TxnManager::commit(&s, txn).unwrap();
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("mine")));
}

#[test]
fn read_only_transactions_always_commit() {
    let s = server();
    s.put("t", 0, key("k"), val("v0")).unwrap();
    let mut txn = TxnManager::begin(&s);
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v0"))
    );
    // A concurrent update does not abort a read-only transaction.
    s.put("t", 0, key("k"), val("v1")).unwrap();
    assert!(txn.is_read_only());
    TxnManager::commit(&s, txn).unwrap();
}

#[test]
fn snapshot_reads_ignore_later_commits() {
    // "Fuzzy read" prevention: both reads inside the txn see the
    // snapshot version despite an interleaved committed update.
    let s = server();
    s.put("t", 0, key("k"), val("v0")).unwrap();
    let mut txn = TxnManager::begin(&s);
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v0"))
    );
    s.put("t", 0, key("k"), val("v1")).unwrap();
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v0")),
        "snapshot must be stable within the transaction"
    );
}

#[test]
fn read_skew_is_prevented() {
    // r1[x]...w2[x]w2[y]c2...r1[y] must not mix versions.
    let s = server();
    s.put("t", 0, key("x"), val("x0")).unwrap();
    s.put("t", 0, key("y"), val("y0")).unwrap();
    let mut t1 = TxnManager::begin(&s);
    assert_eq!(
        TxnManager::read(&s, &mut t1, "t", 0, b"x").unwrap(),
        Some(val("x0"))
    );
    // T2 updates both and commits.
    let mut t2 = TxnManager::begin(&s);
    TxnManager::write(&mut t2, "t", 0, key("x"), val("x1"));
    TxnManager::write(&mut t2, "t", 0, key("y"), val("y1"));
    TxnManager::commit(&s, t2).unwrap();
    // T1 still sees the pair from its snapshot.
    assert_eq!(
        TxnManager::read(&s, &mut t1, "t", 0, b"y").unwrap(),
        Some(val("y0"))
    );
}

#[test]
fn lost_update_is_prevented() {
    // r1[x] r2[x] w2[x] c2 w1[x] c1 → T1 must abort (first committer
    // wins).
    let s = server();
    s.put("t", 0, key("x"), val("0")).unwrap();
    let mut t1 = TxnManager::begin(&s);
    let mut t2 = TxnManager::begin(&s);
    TxnManager::read(&s, &mut t1, "t", 0, b"x").unwrap();
    TxnManager::read(&s, &mut t2, "t", 0, b"x").unwrap();
    TxnManager::write(&mut t2, "t", 0, key("x"), val("t2"));
    TxnManager::commit(&s, t2).unwrap();
    TxnManager::write(&mut t1, "t", 0, key("x"), val("t1"));
    let err = TxnManager::commit(&s, t1).unwrap_err();
    assert!(matches!(err, Error::TxnConflict { .. }));
    assert_eq!(s.get("t", 0, b"x").unwrap(), Some(val("t2")));
}

#[test]
fn dirty_write_is_prevented_by_validation() {
    // Two blind writers to the same key: one commits, the other
    // validates against the snapshot and fails.
    let s = server();
    let mut t1 = TxnManager::begin(&s);
    let mut t2 = TxnManager::begin(&s);
    TxnManager::write(&mut t1, "t", 0, key("x"), val("t1"));
    TxnManager::write(&mut t2, "t", 0, key("x"), val("t2"));
    TxnManager::commit(&s, t1).unwrap();
    assert!(TxnManager::commit(&s, t2).is_err());
    assert_eq!(s.get("t", 0, b"x").unwrap(), Some(val("t1")));
}

#[test]
fn write_skew_is_admitted() {
    // SI's known anomaly (§3.7.1 Fig. 5): disjoint write sets with
    // crossed reads both commit. The test documents the semantics.
    let s = server();
    s.put("t", 0, key("x"), val("1")).unwrap();
    s.put("t", 0, key("y"), val("1")).unwrap();
    let mut t1 = TxnManager::begin(&s);
    let mut t2 = TxnManager::begin(&s);
    TxnManager::read(&s, &mut t1, "t", 0, b"x").unwrap();
    TxnManager::read(&s, &mut t2, "t", 0, b"y").unwrap();
    TxnManager::write(&mut t1, "t", 0, key("y"), val("t1"));
    TxnManager::write(&mut t2, "t", 0, key("x"), val("t2"));
    TxnManager::commit(&s, t1).unwrap();
    TxnManager::commit(&s, t2).unwrap();
    assert_eq!(s.get("t", 0, b"x").unwrap(), Some(val("t2")));
    assert_eq!(s.get("t", 0, b"y").unwrap(), Some(val("t1")));
}

#[test]
fn transactional_delete_applies_at_commit() {
    let s = server();
    s.put("t", 0, key("k"), val("v")).unwrap();
    let mut txn = TxnManager::begin(&s);
    TxnManager::delete(&mut txn, "t", 0, key("k"));
    assert_eq!(TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(), None);
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v")));
    TxnManager::commit(&s, txn).unwrap();
    assert!(s.get("t", 0, b"k").unwrap().is_none());
}

#[test]
fn abort_discards_writes() {
    let s = server();
    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "t", 0, key("k"), val("v"));
    TxnManager::abort(&s, txn);
    assert!(s.get("t", 0, b"k").unwrap().is_none());
    assert_eq!(s.metrics().snapshot().txn_aborts, 1);
}

#[test]
fn multi_record_commit_is_atomic() {
    let s = server();
    let mut txn = TxnManager::begin(&s);
    for i in 0..10 {
        TxnManager::write(&mut txn, "t", 0, key(&format!("k{i}")), val("v"));
    }
    let commit_ts = TxnManager::commit(&s, txn).unwrap();
    // All writes carry the same commit timestamp.
    for i in 0..10 {
        assert_eq!(
            s.visible_version("t", 0, format!("k{i}").as_bytes(), commit_ts)
                .unwrap(),
            Some(commit_ts)
        );
    }
}

#[test]
fn run_helper_retries_conflicts() {
    let s = server();
    s.put("t", 0, key("counter"), val("0")).unwrap();
    // 8 threads × 10 increments with retry → exactly 80.
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let s = Arc::clone(&s);
            scope.spawn(move || {
                for _ in 0..10 {
                    TxnManager::run(&s, 1000, |txn| {
                        let cur = TxnManager::read(&s, txn, "t", 0, b"counter")?
                            .map(|v| String::from_utf8(v.to_vec()).unwrap())
                            .unwrap_or_default()
                            .parse::<u64>()
                            .unwrap_or(0);
                        TxnManager::write(txn, "t", 0, key("counter"), val(&(cur + 1).to_string()));
                        Ok(())
                    })
                    .unwrap();
                }
            });
        }
    });
    assert_eq!(s.get("t", 0, b"counter").unwrap(), Some(val("80")));
    // Conflicts actually happened (the retry path was exercised) —
    // with 8 racing threads this is overwhelmingly likely but not
    // guaranteed; assert only on the final value above.
}

#[test]
fn commit_timestamps_are_globally_ordered() {
    let s = server();
    let mut last = logbase_common::Timestamp::ZERO;
    for i in 0..20 {
        let mut txn = TxnManager::begin(&s);
        TxnManager::write(&mut txn, "t", 0, key(&format!("k{i}")), val("v"));
        let ts = TxnManager::commit(&s, txn).unwrap();
        assert!(ts > last);
        last = ts;
    }
}

#[test]
fn commit_record_and_writes_are_one_batch() {
    // Mechanical check on Guarantee 3: writes + commit record must land
    // durably before commit() returns.
    let s = server();
    let appends_before = s.metrics().snapshot().dfs_appends;
    let mut txn = TxnManager::begin(&s);
    for i in 0..5 {
        TxnManager::write(&mut txn, "t", 0, key(&format!("k{i}")), val("v"));
    }
    TxnManager::commit(&s, txn).unwrap();
    let appends = s.metrics().snapshot().dfs_appends - appends_before;
    assert!(
        appends <= 2,
        "6 log records should group-commit into ≤2 appends, got {appends}"
    );
}

#[test]
fn cross_table_transactions() {
    let s = server();
    s.create_table(TableSchema::single_group("orders", &["v"]))
        .unwrap();
    // TPC-W order shape: read the cart (t), write the order (orders).
    s.put("t", 0, key("cart:1"), val("book=2")).unwrap();
    let (_, _ts) = TxnManager::run(&s, 10, |txn| {
        let cart = TxnManager::read(&s, txn, "t", 0, b"cart:1")?.unwrap();
        TxnManager::write(txn, "orders", 0, key("order:1"), cart);
        Ok(())
    })
    .unwrap();
    assert_eq!(s.get("orders", 0, b"order:1").unwrap(), Some(val("book=2")));
}

/// A server plus handles to its (normally cluster-shared) lock service,
/// for tests asserting on lock accounting.
fn server_with_locks() -> (Arc<TabletServer>, logbase_coordination::LockService) {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let oracle = logbase_coordination::TimestampOracle::new();
    let locks = logbase_coordination::LockService::new();
    let s =
        TabletServer::create_with(dfs, ServerConfig::new("srv"), oracle, locks.clone()).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    (s, locks)
}

#[test]
fn abort_and_validation_failure_release_all_locks() {
    let (s, locks) = server_with_locks();
    s.put("t", 0, key("k"), val("v0")).unwrap();

    // Explicit abort: no locks were ever taken.
    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "t", 0, key("k"), val("x"));
    TxnManager::abort(&s, txn);
    assert_eq!(locks.held_count(), 0, "abort leaked a lock");

    // Validation failure: the commit path locks the whole write set,
    // loses first-committer-wins, and must give every lock back.
    let mut txn = TxnManager::begin(&s);
    let _ = TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap();
    s.put("t", 0, key("k"), val("v1")).unwrap();
    TxnManager::write(&mut txn, "t", 0, key("k"), val("mine"));
    TxnManager::write(&mut txn, "t", 0, key("other"), val("mine"));
    assert!(matches!(
        TxnManager::commit(&s, txn),
        Err(Error::TxnConflict { .. })
    ));
    assert_eq!(locks.held_count(), 0, "validation failure leaked a lock");
}

/// Regression pin: when lock acquisition itself fails midway (one cell
/// of the write set is held by someone else), every lock acquired
/// before the timeout must be rolled back — only the blocker's lock
/// survives.
#[test]
fn lock_timeout_midway_releases_acquired_locks() {
    use std::time::Duration;
    let (s, locks) = server_with_locks();

    // A foreign owner pins one cell in the middle of the write set.
    let blocker_key = logbase::lock_key_for_tests("t", 0, b"b");
    let blocker = locks
        .lock_all(
            std::slice::from_ref(&blocker_key),
            u64::MAX,
            Duration::from_secs(1),
        )
        .unwrap();
    assert_eq!(locks.held_count(), 1);

    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "t", 0, key("a"), val("x"));
    TxnManager::write(&mut txn, "t", 0, key("b"), val("x"));
    TxnManager::write(&mut txn, "t", 0, key("c"), val("x"));
    assert!(matches!(
        TxnManager::commit_with_timeout(&s, txn, Duration::from_millis(100)),
        Err(Error::TxnConflict { .. })
    ));
    // `a` (acquired before blocking on `b`) must have been rolled back.
    assert_eq!(locks.held_count(), 1, "timed-out commit leaked locks");
    drop(blocker);
    assert_eq!(locks.held_count(), 0);

    // The cells are free again: a retry commits.
    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "t", 0, key("a"), val("y"));
    TxnManager::write(&mut txn, "t", 0, key("b"), val("y"));
    TxnManager::commit(&s, txn).unwrap();
    assert_eq!(locks.held_count(), 0);
}

#[test]
fn read_your_own_writes_chain() {
    let s = server();
    s.put("t", 0, key("k"), val("v0")).unwrap();
    let mut txn = TxnManager::begin(&s);
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v0"))
    );
    TxnManager::write(&mut txn, "t", 0, key("k"), val("v1"));
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v1"))
    );
    // Overwrite of the buffered write: last write wins inside the txn.
    TxnManager::write(&mut txn, "t", 0, key("k"), val("v2"));
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v2"))
    );
    TxnManager::commit(&s, txn).unwrap();
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v2")));
}

#[test]
fn delete_then_read_inside_txn() {
    let s = server();
    s.put("t", 0, key("k"), val("v0")).unwrap();
    let mut txn = TxnManager::begin(&s);
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v0"))
    );
    TxnManager::delete(&mut txn, "t", 0, key("k"));
    // The buffered delete masks the snapshot version.
    assert_eq!(TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(), None);
    // Delete-then-write resurrects inside the same transaction.
    TxnManager::write(&mut txn, "t", 0, key("k"), val("v1"));
    assert_eq!(
        TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
        Some(val("v1"))
    );
    TxnManager::delete(&mut txn, "t", 0, key("k"));
    TxnManager::commit(&s, txn).unwrap();
    assert_eq!(s.get("t", 0, b"k").unwrap(), None);
}

/// Version-truncating compaction during a transaction: the old snapshot
/// version is gone, so the read sees absence — and a write based on
/// that read must fail first-committer-wins instead of silently losing
/// the concurrent update.
#[test]
fn visible_version_at_compaction_boundary() {
    use logbase::compaction::CompactionConfig;
    let s = server();
    let ts1 = s.put("t", 0, key("k"), val("v1")).unwrap();

    let mut txn = TxnManager::begin(&s);
    assert!(txn.snapshot() >= ts1);

    // Concurrent update + compaction that truncates to the newest
    // version only: ts1 no longer exists anywhere.
    let ts2 = s.put("t", 0, key("k"), val("v2")).unwrap();
    assert!(ts2 > txn.snapshot());
    s.compact_with(&CompactionConfig {
        max_versions: Some(1),
        ..CompactionConfig::default()
    })
    .unwrap();

    // The snapshot version was compacted away: the txn reads absence,
    // and visible_version agrees.
    assert_eq!(
        s.visible_version("t", 0, b"k", txn.snapshot()).unwrap(),
        None
    );
    assert_eq!(TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(), None);

    // Writing through that stale read must conflict (the live version
    // ts2 is newer than the recorded observation).
    TxnManager::write(&mut txn, "t", 0, key("k"), val("stale"));
    assert!(matches!(
        TxnManager::commit(&s, txn),
        Err(Error::TxnConflict { .. })
    ));
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v2")));
}

/// A transaction begun on a server after one of its writes finished
/// sees that write, even while a commit reserved earlier on the shared
/// oracle (another member's) is still applying. A snapshot held below
/// that commit would miss the server's own write, and validation would
/// abort a transaction that nothing raced.
#[test]
fn snapshot_includes_own_finished_writes_despite_older_inflight_commit() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let oracle = logbase_coordination::TimestampOracle::new();
    let locks = logbase_coordination::LockService::new();
    let s =
        TabletServer::create_with(dfs, ServerConfig::new("srv"), oracle.clone(), locks).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    let other_member = oracle.reserve();
    s.put("t", 0, key("k"), val("v1")).unwrap();
    std::thread::scope(|scope| {
        scope.spawn(move || {
            std::thread::sleep(std::time::Duration::from_millis(20));
            drop(other_member);
        });
        let mut txn = TxnManager::begin(&s);
        assert_eq!(
            TxnManager::read(&s, &mut txn, "t", 0, b"k").unwrap(),
            Some(val("v1"))
        );
        TxnManager::write(&mut txn, "t", 0, key("k"), val("v2"));
        TxnManager::commit(&s, txn).unwrap();
    });
    assert_eq!(s.get("t", 0, b"k").unwrap(), Some(val("v2")));
}
