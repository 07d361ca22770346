//! Secondary indexes (§5 future-work extension): maintenance on the
//! write path, stale-entry filtering, backfill and rebuild.

use logbase::{ServerConfig, TabletServer, TxnManager, Write};
use logbase_common::schema::TableSchema;
use logbase_common::{Error, RowKey, Timestamp, Value};
use logbase_dfs::{Dfs, DfsConfig};
use std::sync::Arc;

fn key(s: &str) -> RowKey {
    RowKey::copy_from_slice(s.as_bytes())
}

/// Extractor: the attribute is everything before the first `:` of the
/// payload ("city:name" records indexed by city).
fn city_extractor() -> logbase::secondary::KeyExtractor {
    Arc::new(|v: &Value| {
        let pos = v.iter().position(|b| *b == b':')?;
        Some(RowKey::copy_from_slice(&v[..pos]))
    })
}

fn server() -> Arc<TabletServer> {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = TabletServer::create(dfs, ServerConfig::new("srv")).unwrap();
    s.create_table(TableSchema::single_group("users", &["v"]))
        .unwrap();
    s
}

fn put_user(s: &TabletServer, id: &str, city: &str) {
    s.put(
        "users",
        0,
        key(id),
        Value::from(format!("{city}:user {id}").into_bytes()),
    )
    .unwrap();
}

#[test]
fn lookup_by_attribute_finds_matching_records() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    put_user(&s, "u1", "istanbul");
    put_user(&s, "u2", "singapore");
    put_user(&s, "u3", "istanbul");
    let hits = s
        .lookup_secondary("users", 0, "by_city", b"istanbul")
        .unwrap();
    let ids: Vec<&[u8]> = hits.iter().map(|(k, _, _)| &k[..]).collect();
    assert_eq!(ids, vec![b"u1" as &[u8], b"u3"]);
    assert!(s
        .lookup_secondary("users", 0, "by_city", b"nowhere")
        .unwrap()
        .is_empty());
}

#[test]
fn updates_move_records_between_attribute_values() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    put_user(&s, "u1", "istanbul");
    put_user(&s, "u1", "singapore"); // moved
    let ist = s
        .lookup_secondary("users", 0, "by_city", b"istanbul")
        .unwrap();
    assert!(ist.is_empty(), "stale entry must be filtered: {ist:?}");
    let sgp = s
        .lookup_secondary("users", 0, "by_city", b"singapore")
        .unwrap();
    assert_eq!(sgp.len(), 1);
    assert_eq!(&sgp[0].0[..], b"u1");
}

#[test]
fn deleted_records_disappear_from_lookups() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    put_user(&s, "u1", "istanbul");
    s.delete("users", 0, b"u1").unwrap();
    assert!(s
        .lookup_secondary("users", 0, "by_city", b"istanbul")
        .unwrap()
        .is_empty());
}

/// Transactional writes take the same write path as puts, so they
/// reach the secondary indexes too.
#[test]
fn txn_writes_reach_secondary_indexes() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    let mut txn = TxnManager::begin(&s);
    TxnManager::write(&mut txn, "users", 0, key("u1"), "istanbul:user u1");
    TxnManager::write(&mut txn, "users", 0, key("u2"), "singapore:user u2");
    TxnManager::commit(&s, txn).unwrap();
    let hits = s
        .lookup_secondary("users", 0, "by_city", b"istanbul")
        .unwrap();
    let ids: Vec<&[u8]> = hits.iter().map(|(k, _, _)| &k[..]).collect();
    assert_eq!(ids, vec![b"u1" as &[u8]]);
}

/// Records ingested under their original versions (tablet handoff)
/// reach the secondary indexes at those versions.
#[test]
fn ingested_records_reach_secondary_indexes() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    let value = Value::from_static(b"istanbul:user u1");
    let write = Write::new("users", 0, key("u1"), Some(value.clone())).at(Timestamp(7));
    s.apply(0, vec![write]).unwrap();
    let hits = s
        .lookup_secondary("users", 0, "by_city", b"istanbul")
        .unwrap();
    assert_eq!(hits, vec![(key("u1"), Timestamp(7), value)]);
}

#[test]
fn backfill_indexes_existing_data() {
    let s = server();
    for i in 0..20 {
        put_user(
            &s,
            &format!("u{i}"),
            if i % 2 == 0 { "even" } else { "odd" },
        );
    }
    // Created AFTER the writes: must backfill.
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    assert_eq!(
        s.lookup_secondary("users", 0, "by_city", b"even")
            .unwrap()
            .len(),
        10
    );
    assert_eq!(
        s.lookup_secondary("users", 0, "by_city", b"odd")
            .unwrap()
            .len(),
        10
    );
}

#[test]
fn rebuild_garbage_collects_stale_entries() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    for round in 0..5 {
        for i in 0..10 {
            put_user(&s, &format!("u{i}"), &format!("city{round}"));
        }
    }
    s.rebuild_secondary_indexes("users", 0).unwrap();
    // After rebuild only the latest version per key is indexed.
    let hits = s.lookup_secondary("users", 0, "by_city", b"city4").unwrap();
    assert_eq!(hits.len(), 10);
    for round in 0..4 {
        assert!(s
            .lookup_secondary("users", 0, "by_city", format!("city{round}").as_bytes())
            .unwrap()
            .is_empty());
    }
}

#[test]
fn duplicate_index_name_rejected_and_unknown_index_errors() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    assert!(matches!(
        s.create_secondary_index("users", 0, "by_city", city_extractor()),
        Err(Error::Schema(_))
    ));
    assert!(matches!(
        s.lookup_secondary("users", 0, "missing", b"x"),
        Err(Error::Schema(_))
    ));
}

#[test]
fn sparse_extractor_skips_records_without_attribute() {
    let s = server();
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    // No ':' in the payload → not indexed.
    s.put("users", 0, key("raw"), Value::from_static(b"no-attribute"))
        .unwrap();
    put_user(&s, "u1", "istanbul");
    assert_eq!(
        s.lookup_secondary("users", 0, "by_city", b"istanbul")
            .unwrap()
            .len(),
        1
    );
    // The record itself is still readable through the primary path.
    assert!(s.get("users", 0, b"raw").unwrap().is_some());
}

#[test]
fn secondary_survives_restart_via_recreate() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = TabletServer::create(dfs.clone(), ServerConfig::new("srv")).unwrap();
        s.create_table(TableSchema::single_group("users", &["v"]))
            .unwrap();
        s.create_secondary_index("users", 0, "by_city", city_extractor())
            .unwrap();
        put_user(&s, "u1", "istanbul");
        s.checkpoint().unwrap();
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv")).unwrap();
    // Secondary indexes are memory-only: recreate (backfills from the
    // recovered primary index).
    s.create_secondary_index("users", 0, "by_city", city_extractor())
        .unwrap();
    let hits = s
        .lookup_secondary("users", 0, "by_city", b"istanbul")
        .unwrap();
    assert_eq!(hits.len(), 1);
}
