//! Checkpoint and recovery (§3.8): index rebuild by log scan, fast
//! recovery from checkpoints, deletes surviving restarts, uncommitted
//! writes ignored, repeated crashes.

use logbase::{ServerConfig, TabletServer, TxnManager, Write};
use logbase_common::schema::{KeyRange, TableSchema};
use logbase_common::{RowKey, Timestamp, Value};
use logbase_dfs::{Dfs, DfsConfig};
use std::sync::Arc;

fn key(s: &str) -> RowKey {
    RowKey::copy_from_slice(s.as_bytes())
}

fn val(s: &str) -> Value {
    Value::copy_from_slice(s.as_bytes())
}

fn fresh(dfs: &Dfs, name: &str) -> Arc<TabletServer> {
    let s = TabletServer::create(dfs.clone(), ServerConfig::new(name)).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    s
}

#[test]
fn recovery_without_checkpoint_scans_entire_log() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        for i in 0..50 {
            s.put("t", 0, key(&format!("k{i:03}")), val(&format!("v{i}")))
                .unwrap();
        }
        // Crash: drop without checkpointing.
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    assert_eq!(s.stats().index_entries, 50);
    for i in [0, 25, 49] {
        assert_eq!(
            s.get("t", 0, format!("k{i:03}").as_bytes()).unwrap(),
            Some(val(&format!("v{i}")))
        );
    }
    // Writes continue with fresh LSNs/timestamps after the old ones.
    let ts = s.put("t", 0, key("new"), val("post-crash")).unwrap();
    assert!(ts.0 > 50);
}

#[test]
fn recovery_with_checkpoint_redoes_only_the_tail() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        for i in 0..40 {
            s.put("t", 0, key(&format!("k{i:03}")), val("before"))
                .unwrap();
        }
        s.checkpoint().unwrap();
        for i in 40..60 {
            s.put("t", 0, key(&format!("k{i:03}")), val("after"))
                .unwrap();
        }
        // Overwrite some pre-checkpoint keys after the checkpoint.
        for i in 0..5 {
            s.put("t", 0, key(&format!("k{i:03}")), val("updated"))
                .unwrap();
        }
    }
    let before = dfs.metrics().snapshot();
    let s = TabletServer::open(dfs.clone(), ServerConfig::new("srv")).unwrap();
    let delta = dfs.metrics().snapshot().delta_since(&before);
    assert_eq!(s.stats().index_entries, 65); // 60 keys + 5 extra versions
    assert_eq!(s.get("t", 0, b"k002").unwrap(), Some(val("updated")));
    assert_eq!(s.get("t", 0, b"k030").unwrap(), Some(val("before")));
    assert_eq!(s.get("t", 0, b"k050").unwrap(), Some(val("after")));
    // The redo pass must have read far less of the log than a full scan
    // would (25 records of tail vs 65 total), though it also loads the
    // index file. Sanity-bound the sequential read volume.
    assert!(delta.seq_bytes_read > 0);
}

#[test]
fn checkpointed_recovery_is_cheaper_than_full_scan() {
    // Build two identical servers; one checkpoints, one does not.
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let payload = "x".repeat(512);
    for name in ["ckpt", "nockpt"] {
        let s = fresh(&dfs, name);
        for i in 0..200 {
            s.put("t", 0, key(&format!("k{i:05}")), val(&payload))
                .unwrap();
        }
        if name == "ckpt" {
            s.checkpoint().unwrap();
        }
        // Small tail after the checkpoint.
        for i in 0..10 {
            s.put("t", 0, key(&format!("tail{i:02}")), val("t"))
                .unwrap();
        }
    }
    let m0 = dfs.metrics().snapshot();
    let a = TabletServer::open(dfs.clone(), ServerConfig::new("ckpt")).unwrap();
    let with_ckpt = dfs.metrics().snapshot().delta_since(&m0).seq_bytes_read;
    let m1 = dfs.metrics().snapshot();
    let b = TabletServer::open(dfs.clone(), ServerConfig::new("nockpt")).unwrap();
    let without_ckpt = dfs.metrics().snapshot().delta_since(&m1).seq_bytes_read;
    assert_eq!(a.stats().index_entries, b.stats().index_entries);
    assert!(
        with_ckpt < without_ckpt,
        "checkpointed recovery read {with_ckpt} bytes, full-scan {without_ckpt}"
    );
}

#[test]
fn deletes_survive_recovery_via_invalidated_entries() {
    // §3.6.3: without the tombstone, a reloaded checkpoint would
    // resurrect deleted records.
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        s.put("t", 0, key("doomed"), val("v")).unwrap();
        s.put("t", 0, key("kept"), val("v")).unwrap();
        s.checkpoint().unwrap(); // checkpoint still contains "doomed"
        s.delete("t", 0, b"doomed").unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    assert!(s.get("t", 0, b"doomed").unwrap().is_none());
    assert_eq!(s.get("t", 0, b"kept").unwrap(), Some(val("v")));
}

#[test]
fn uncommitted_transaction_writes_are_ignored_at_recovery() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        s.put("t", 0, key("base"), val("committed")).unwrap();
        // Simulate a transaction whose writes reached the log but whose
        // commit record did not: append txn writes directly.
        let record = logbase_common::Record::put(key("phantom"), 0, s.oracle().next(), val("x"));
        s.log_for_tests()
            .append(
                "t",
                logbase_wal::LogEntryKind::Write {
                    txn_id: 777,
                    tablet: 0,
                    record,
                },
            )
            .unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    assert_eq!(s.get("t", 0, b"base").unwrap(), Some(val("committed")));
    assert!(
        s.get("t", 0, b"phantom").unwrap().is_none(),
        "write without commit record must stay invisible (Guarantee 3)"
    );
}

#[test]
fn committed_transactions_are_replayed() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        let mut txn = TxnManager::begin(&s);
        TxnManager::write(&mut txn, "t", 0, key("a"), val("txn-a"));
        TxnManager::write(&mut txn, "t", 0, key("b"), val("txn-b"));
        TxnManager::commit(&s, txn).unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    assert_eq!(s.get("t", 0, b"a").unwrap(), Some(val("txn-a")));
    assert_eq!(s.get("t", 0, b"b").unwrap(), Some(val("txn-b")));
}

#[test]
fn repeated_crash_and_recovery_converges() {
    // §3.8: "in the event of repeated restart when a crash occurs during
    // the recovery, the system only needs to redo the process."
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        for i in 0..30 {
            s.put("t", 0, key(&format!("k{i}")), val("v")).unwrap();
        }
    }
    for round in 0..3 {
        let s = TabletServer::open(dfs.clone(), ServerConfig::new("srv")).unwrap();
        assert_eq!(s.stats().index_entries, 30 + round);
        // Each round adds one write, then "crashes" again.
        s.put("t", 0, key(&format!("round{round}")), val("v"))
            .unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    assert_eq!(s.stats().index_entries, 33);
}

#[test]
fn recovery_preserves_multiversion_history() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let (t1, t2);
    {
        let s = fresh(&dfs, "srv");
        t1 = s.put("t", 0, key("k"), val("v1")).unwrap();
        t2 = s.put("t", 0, key("k"), val("v2")).unwrap();
        s.checkpoint().unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    assert_eq!(s.get_at("t", 0, b"k", t1).unwrap(), Some(val("v1")));
    assert_eq!(s.get_at("t", 0, b"k", t2).unwrap(), Some(val("v2")));
}

#[test]
fn recovery_with_multiple_checkpoints_uses_the_latest() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        s.put("t", 0, key("a"), val("1")).unwrap();
        s.checkpoint().unwrap();
        s.put("t", 0, key("b"), val("2")).unwrap();
        s.checkpoint().unwrap();
        s.put("t", 0, key("c"), val("3")).unwrap();
        let third = s.checkpoint().unwrap();
        assert_eq!(third.seq, 3);
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    for (k, v) in [("a", "1"), ("b", "2"), ("c", "3")] {
        assert_eq!(s.get("t", 0, k.as_bytes()).unwrap(), Some(val(v)));
    }
}

/// Every kind of data write counts toward the checkpoint threshold: 60
/// index updates of each kind against a threshold of 25 must take at
/// least two automatic checkpoints.
#[test]
fn auto_checkpoint_threshold_triggers() {
    type Op = fn(&TabletServer, &str);
    let workloads: [(&str, Op); 4] = [
        ("put", |s, k| {
            s.put("t", 0, key(k), val("v")).unwrap();
        }),
        ("txn", |s, k| {
            let mut txn = TxnManager::begin(s);
            TxnManager::write(&mut txn, "t", 0, key(k), val("v"));
            TxnManager::commit(s, txn).unwrap();
        }),
        ("delete", |s, k| s.delete("t", 0, k.as_bytes()).unwrap()),
        ("ingest", |s, k| {
            let write = Write::new("t", 0, key(k), Some(val("v"))).at(Timestamp(1));
            s.apply(0, vec![write]).unwrap();
        }),
    ];
    for (name, op) in workloads {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
        let config = ServerConfig::new("srv").with_checkpoint_threshold(25);
        let s = TabletServer::create(dfs, config).unwrap();
        s.create_table(TableSchema::single_group("t", &["v"]))
            .unwrap();
        let keys: Vec<String> = (0..60).map(|i| format!("k{i}")).collect();
        if name == "delete" {
            for k in &keys {
                s.put("t", 0, key(k), val("v")).unwrap();
            }
        }
        let before = s.stats().checkpoints;
        for k in &keys {
            op(&s, k);
        }
        let taken = s.stats().checkpoints - before;
        assert!(
            taken >= 2,
            "{name}: expected at least two automatic checkpoints, got {taken}"
        );
    }
}

#[test]
fn recovery_restores_range_scans() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = fresh(&dfs, "srv");
        for i in 0..20 {
            s.put("t", 0, key(&format!("k{i:02}")), val("v")).unwrap();
        }
        s.checkpoint().unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    let out = s
        .range_scan("t", 0, &KeyRange::new(&b"k05"[..], &b"k15"[..]), usize::MAX)
        .unwrap();
    assert_eq!(out.len(), 10);
}
