//! Key/value separation ("log as data"), value-log GC, and the
//! cost-aware background compaction scheduler.

use logbase::compaction::{CompactionConfig, CompactionInputs, LogGcConfig};
use logbase::scheduler::{CompactionScheduler, CompactionSchedulerConfig};
use logbase::{ServerConfig, TabletServer};
use logbase_common::schema::{KeyRange, TableSchema};
use logbase_common::{RowKey, Value};
use logbase_dfs::{Dfs, DfsConfig, FaultSpec, OpClass};
use logbase_lsm::PolicyKind;
use std::sync::Arc;
use std::time::Duration;

fn key(s: &str) -> RowKey {
    RowKey::copy_from_slice(s.as_bytes())
}

fn server(dfs: &Dfs, name: &str) -> Arc<TabletServer> {
    let s = TabletServer::create(
        dfs.clone(),
        ServerConfig::new(name).with_segment_bytes(8 * 1024),
    )
    .unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    s
}

fn load(s: &TabletServer, n: usize, value_len: usize) {
    for i in 0..n {
        s.put(
            "t",
            0,
            key(&format!("k{i:04}")),
            Value::from(vec![b'a' + (i % 26) as u8; value_len]),
        )
        .unwrap();
    }
}

#[test]
fn separation_skips_large_values_and_keeps_reads_correct() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = server(&dfs, "srv");
    load(&s, 50, 1024); // large values
    load(&s, 50, 16); // overwrite: latest versions are small
    let report = s
        .compact_with(&CompactionConfig {
            value_threshold: Some(256),
            ..CompactionConfig::default()
        })
        .unwrap();
    // Latest versions are small (rewritten); the superseded 1 KiB
    // versions are still live history and get separated.
    assert!(report.values_separated > 0, "{report:?}");
    assert!(report.blob_segments_retained > 0, "{report:?}");
    // Blob segments survived as log files.
    assert!(
        !dfs.list(&format!("{}/log/segment-", "srv")).is_empty(),
        "blob segments must be retained"
    );
    // Every version — separated or rewritten — still reads back.
    for i in [0usize, 17, 49] {
        let got = s.get("t", 0, format!("k{i:04}").as_bytes()).unwrap();
        assert_eq!(got.unwrap().len(), 16, "latest version of k{i:04}");
    }
    assert!(s.fsck().is_empty());

    // Separation must shrink the sorted rewrite: compare against a
    // fresh identical server compacted without separation.
    let dfs2 = Dfs::new(DfsConfig::in_memory(3, 3));
    let s2 = server(&dfs2, "srv");
    load(&s2, 50, 1024);
    load(&s2, 50, 16);
    let baseline = s2.compact().unwrap();
    assert!(
        report.bytes_written * 2 < baseline.bytes_written,
        "separation should cut rewritten bytes at least 2x: {} vs {}",
        report.bytes_written,
        baseline.bytes_written
    );
}

#[test]
fn separated_values_survive_recovery() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    {
        let s = server(&dfs, "srv");
        load(&s, 40, 600);
        let report = s
            .compact_with(&CompactionConfig {
                value_threshold: Some(256),
                ..CompactionConfig::default()
            })
            .unwrap();
        assert_eq!(report.values_separated, 40);
        assert_eq!(report.output_entries, 0, "everything separated");
    }
    let s = TabletServer::open(dfs, ServerConfig::new("srv").with_segment_bytes(8 * 1024)).unwrap();
    for i in [0usize, 20, 39] {
        let got = s.get("t", 0, format!("k{i:04}").as_bytes()).unwrap();
        assert_eq!(got.unwrap().len(), 600, "separated value k{i:04}");
    }
    assert!(s.fsck().is_empty());
}

#[test]
fn log_gc_reclaims_dead_blob_segments() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = server(&dfs, "srv");
    load(&s, 40, 600);
    let report = s
        .compact_with(&CompactionConfig {
            value_threshold: Some(256),
            ..CompactionConfig::default()
        })
        .unwrap();
    assert_eq!(report.values_separated, 40);
    let blobs_before = dfs.list("srv/log/segment-").len();
    assert!(blobs_before > 1, "blob segments retained");
    // Kill most separated versions: deleting the keys drops their index
    // entries, turning the blob bytes dead in place.
    for i in 0..30usize {
        s.delete("t", 0, format!("k{i:04}").as_bytes()).unwrap();
    }
    let gc = s
        .log_gc_with(&LogGcConfig {
            live_fraction: 0.5,
            max_segments: 64,
            max_versions: None,
        })
        .unwrap();
    assert!(gc.segments_examined > 0, "{gc:?}");
    assert!(gc.segments_reclaimed > 0, "{gc:?}");
    assert!(
        dfs.list("srv/log/segment-").len() < blobs_before,
        "dead blob segments deleted"
    );
    // Survivors (force-rewritten or untouched) read back intact.
    for i in [30usize, 35, 39] {
        let got = s.get("t", 0, format!("k{i:04}").as_bytes()).unwrap();
        assert_eq!(got.unwrap().len(), 600, "surviving k{i:04}");
    }
    for i in [0usize, 29] {
        assert!(s
            .get("t", 0, format!("k{i:04}").as_bytes())
            .unwrap()
            .is_none());
    }
    assert!(s.fsck().is_empty());
    assert!(
        s.metrics().snapshot().log_gc_segments_reclaimed > 0,
        "reclaim metric"
    );
}

#[test]
fn selected_inputs_leave_other_generations_untouched() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = server(&dfs, "srv");
    load(&s, 30, 64);
    s.compact().unwrap(); // generation 1
    let gen1 = s.dfs().list("srv/sorted/");
    assert!(!gen1.is_empty());
    load(&s, 30, 600); // overwrites large enough to seal log segments
                       // Compact only the sealed log segments; generation 1 must survive.
    let sealed: Vec<u32> = (0..100).collect();
    let report = s
        .compact_with(&CompactionConfig {
            inputs: CompactionInputs::Selected {
                log_segments: sealed,
                sorted: Vec::new(),
            },
            ..CompactionConfig::default()
        })
        .unwrap();
    assert!(report.sorted_segments_written > 0);
    for f in &gen1 {
        assert!(s.dfs().exists(f), "untouched generation file {f} deleted");
    }
    // All versions still readable (latest + history across generations).
    for i in [0usize, 15, 29] {
        assert!(s
            .get("t", 0, format!("k{i:04}").as_bytes())
            .unwrap()
            .is_some());
    }
    assert!(s.fsck().is_empty());
}

#[test]
fn scheduler_tick_compacts_under_policy_and_respects_rate_limit() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let s = server(&dfs, "srv");
    s.set_maintenance_rate(Some(64 * 1024));
    let sched = CompactionScheduler::new(CompactionSchedulerConfig {
        policy: PolicyKind::OnlineMerge,
        value_threshold: Some(256),
        gc_every: 3,
        gc_live_fraction: 1.0,
        ..CompactionSchedulerConfig::default()
    });
    let mut compactions = 0;
    let mut gc_runs = 0;
    for round in 0..6 {
        load(&s, 40, if round % 2 == 0 { 400 } else { 32 });
        let outcome = sched.tick(&s).unwrap();
        if outcome.compaction.is_some() {
            compactions += 1;
        }
        if outcome.gc_reclaimed > 0 {
            gc_runs += 1;
        }
    }
    assert!(compactions > 0, "scheduler never compacted");
    assert!(gc_runs > 0, "scheduler never reclaimed");
    for i in [0usize, 20, 39] {
        assert!(s
            .get("t", 0, format!("k{i:04}").as_bytes())
            .unwrap()
            .is_some());
    }
    assert!(s.fsck().is_empty());
    let snap = s.metrics().snapshot();
    assert!(snap.compaction_sched_runs >= 6, "{snap:?}");
    assert!(snap.compaction_bytes_written > 0);
    assert!(
        snap.compaction_throttle_waits > 0,
        "64 KiB/s budget must throttle the bulk traffic"
    );
}

#[test]
fn background_scheduler_starts_with_server_and_stops_cleanly() {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    let config = ServerConfig::new("srv")
        .with_segment_bytes(4 * 1024)
        .with_compaction_scheduler(CompactionSchedulerConfig {
            interval: Duration::from_millis(5),
            ..CompactionSchedulerConfig::default()
        });
    let s = TabletServer::create(dfs.clone(), config).unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    load(&s, 200, 128);
    // The background thread needs wall time to tick; wait for evidence.
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while s.metrics().snapshot().compaction_sched_runs == 0 {
        assert!(
            std::time::Instant::now() < deadline,
            "background scheduler never ticked"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    for i in [0usize, 99, 199] {
        assert!(s
            .get("t", 0, format!("k{i:04}").as_bytes())
            .unwrap()
            .is_some());
    }
    s.stop_scheduler(); // explicit stop is idempotent with drop
    drop(s);
}

/// Runs 4 reader threads, each calling `read(server, reader, round)`
/// in a loop, while 80 rounds of load + log GC move every version and
/// delete its old segment. The read buffer is off so every read goes to
/// the log, and slow DFS reads widen the window between probe and read.
fn read_under_concurrent_log_gc(read: impl Fn(&TabletServer, u64, u64) + Sync) {
    let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
    for node in 0..3 {
        dfs.fault_injector().set_spec(
            node,
            OpClass::Read,
            FaultSpec::slow(Duration::from_millis(1)),
        );
    }
    let s = TabletServer::create(
        dfs.clone(),
        ServerConfig::new("srv")
            .with_segment_bytes(4 * 1024)
            .with_read_buffer(0),
    )
    .unwrap();
    s.create_table(TableSchema::single_group("t", &["v"]))
        .unwrap();
    load(&s, 100, 64);
    let stop = std::sync::atomic::AtomicBool::new(false);
    let gc = LogGcConfig {
        live_fraction: 1.0,
        ..LogGcConfig::default()
    };
    std::thread::scope(|scope| {
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let (s, stop, read) = (&s, &stop, &read);
                scope.spawn(move || {
                    let mut reads = 0u64;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        read(s, r, reads);
                        reads += 1;
                    }
                    reads
                })
            })
            .collect();
        // Stop the readers even if a round panics, or the scope would
        // wait for them forever.
        let churn = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            for round in 0..80 {
                load(&s, 100, 64 + round % 3);
                s.log_gc_with(&gc).unwrap();
            }
        }));
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        if let Err(panic) = churn {
            std::panic::resume_unwind(panic);
        }
        for r in readers {
            assert!(r.join().unwrap() > 0);
        }
    });
    assert!(s.metrics().snapshot().log_gc_segments_reclaimed > 0);
}

/// A point read whose index probe races a log-GC pass that moves the
/// version and deletes its old segment must follow the index to the
/// new copy instead of failing with `FileNotFound`.
#[test]
fn reads_follow_versions_moved_by_concurrent_log_gc() {
    read_under_concurrent_log_gc(|s, r, reads| {
        let k = format!("k{:04}", (reads * 7 + r) % 100);
        let v = s.get("t", 0, k.as_bytes()).unwrap();
        assert!(v.is_some(), "{k} vanished");
    });
}

/// The same race on the range-scan path: a scan whose coalesced read
/// finds its segment deleted re-probes each key of the run at the
/// scan's snapshot and follows the moved pointers.
#[test]
fn scans_follow_versions_moved_by_concurrent_log_gc() {
    read_under_concurrent_log_gc(|s, r, reads| {
        let first = (reads * 7 + r) % 90;
        let range = KeyRange::new(
            key(&format!("k{first:04}")),
            key(&format!("k{:04}", first + 10)),
        );
        let items = s.range_scan("t", 0, &range, 10).unwrap();
        let keys: Vec<RowKey> = items.into_iter().map(|(k, _, _)| k).collect();
        let expected: Vec<RowKey> = (first..first + 10)
            .map(|i| key(&format!("k{i:04}")))
            .collect();
        assert_eq!(keys, expected, "scan from k{first:04}");
    });
}
