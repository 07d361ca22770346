//! Cross-thread group commit.
//!
//! §3.7.2: "LogBase further embeds an optimization technique that
//! processes commit and log records in batches, instead of individual log
//! writes, in order to reduce the log persistence cost and therefore
//! improve write throughput."
//!
//! [`GroupCommitLog`] runs a committer thread that drains a channel of
//! submissions and persists them with one [`LogWriter::append_batch`]
//! call per drain. A submission is one caller's whole unit (a put, or a
//! transaction's writes plus its commit record); the caller blocks until
//! every entry of it is durable and gets their `(Lsn, LogPtr)`s back.
//!
//! The batch window is adaptive rather than count-only: a batch closes
//! when it reaches [`GroupCommitConfig::max_batch`] entries, when its
//! encoded size reaches [`GroupCommitConfig::max_batch_bytes`], when the
//! linger deadline [`GroupCommitConfig::max_batch_window`] expires, or —
//! the common case under light load — as soon as no producer is in
//! flight, so a lone writer never pays the window as latency. A unit is
//! never split across batches. While the log is idle the committer
//! blocks on its channel and performs no work at all (no polling
//! wakeups, no DFS traffic).

use crate::entry;
use crate::writer::LogWriter;
use crate::LogEntryKind;
use crossbeam::channel::{bounded, Receiver, Sender, TryRecvError};
use logbase_common::codec::FRAME_HEADER_LEN;
use logbase_common::metrics::Metrics;
use logbase_common::{Error, LogPtr, Lsn, Result};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Group-commit tuning knobs.
#[derive(Debug, Clone)]
pub struct GroupCommitConfig {
    /// Maximum entries folded into one log write. A batch closes once it
    /// holds this many; a single unit larger than this still commits
    /// whole, as a batch of its own.
    pub max_batch: usize,
    /// Encoded-bytes budget for one batch: the window closes as soon as
    /// the pending frames would exceed this, keeping a batch at roughly
    /// one DFS block write regardless of entry size.
    pub max_batch_bytes: usize,
    /// Upper bound on how long a batch lingers open waiting for more
    /// entries once it has its first. `Duration::ZERO` disables the
    /// linger entirely, reducing the policy to the count-only drain
    /// (the ablation baseline in `bench_write`).
    pub max_batch_window: Duration,
}

impl Default for GroupCommitConfig {
    fn default() -> Self {
        GroupCommitConfig {
            max_batch: 128,
            max_batch_bytes: 256 * 1024,
            max_batch_window: Duration::from_micros(200),
        }
    }
}

/// One caller's unit: entries persisted in one batch, answered together.
struct Pending {
    entries: Vec<(String, LogEntryKind)>,
    /// Framed encoded size of the unit, computed by the producer so the
    /// committer can close the batch on a byte budget without encoding
    /// anything.
    size_hint: usize,
    done: Sender<Result<Vec<(Lsn, LogPtr)>>>,
}

/// Batching front end over a [`LogWriter`].
pub struct GroupCommitLog {
    writer: Arc<LogWriter>,
    tx: Sender<Pending>,
    /// Producers that have claimed a slot (incremented *before* the
    /// channel send) but whose unit the committer has not yet drained.
    /// The committer commits immediately when this hits zero: nobody is
    /// racing toward the channel, so lingering would be pure latency.
    inflight: Arc<AtomicUsize>,
    committer: Option<JoinHandle<()>>,
}

impl GroupCommitLog {
    /// Wrap `writer` with a committer thread.
    pub fn new(writer: Arc<LogWriter>, config: GroupCommitConfig) -> Self {
        let (tx, rx) = bounded::<Pending>(config.max_batch.max(1) * 4);
        let inflight = Arc::new(AtomicUsize::new(0));
        let committer_writer = Arc::clone(&writer);
        let committer_inflight = Arc::clone(&inflight);
        let committer = std::thread::Builder::new()
            .name("logbase-group-commit".to_string())
            .spawn(move || committer_loop(&committer_writer, &rx, &committer_inflight, &config))
            .expect("spawn group-commit thread");
        GroupCommitLog {
            writer,
            tx,
            inflight,
            committer: Some(committer),
        }
    }

    /// The wrapped writer (for direct, non-batched appends such as
    /// checkpoint markers).
    pub fn writer(&self) -> &Arc<LogWriter> {
        &self.writer
    }

    /// Submit one entry and block until it is durable.
    pub fn append(&self, table: &str, kind: LogEntryKind) -> Result<(Lsn, LogPtr)> {
        Ok(self.append_all(vec![(table.to_string(), kind)])?[0])
    }

    /// Submit several entries as one unit and block until all are
    /// durable. The unit lands in a single batch, so a transaction's
    /// writes and its commit record reach the log in one DFS write.
    pub fn append_all(&self, entries: Vec<(String, LogEntryKind)>) -> Result<Vec<(Lsn, LogPtr)>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        let size_hint = entries
            .iter()
            .map(|(table, kind)| FRAME_HEADER_LEN + entry::encoded_len(table, kind))
            .sum();
        let (done, done_rx) = bounded(1);
        self.inflight.fetch_add(1, Ordering::SeqCst);
        let pending = Pending {
            entries,
            size_hint,
            done,
        };
        if self.tx.send(pending).is_err() {
            self.inflight.fetch_sub(1, Ordering::SeqCst);
            return Err(Error::Unavailable("group commit thread stopped".into()));
        }
        done_rx
            .recv()
            .map_err(|_| Error::Unavailable("group commit thread dropped request".into()))?
    }
}

impl Drop for GroupCommitLog {
    fn drop(&mut self) {
        // Closing the channel stops the committer after it drains.
        let (tx, _) = bounded(0);
        let old_tx = std::mem::replace(&mut self.tx, tx);
        drop(old_tx);
        if let Some(h) = self.committer.take() {
            let _ = h.join();
        }
    }
}

/// Drain one adaptive batch of units from `rx`, starting with `first`.
///
/// The batch closes on whichever bound trips first: entry count, byte
/// budget, or linger deadline — or early, once the channel is empty, no
/// producer is in flight, *and* the batch holds `expect` units.
///
/// `expect` is the number of callers the previous batch served: the
/// committer's estimate of how many producers are cycling against the
/// log (each blocks on its `done` channel, so the cohort that just
/// committed re-arrives almost together). Lingering until the cohort is
/// back is what fills batches; a lone writer has `expect == 1` and never
/// lingers at all, however many entries its last unit carried.
fn drain_batch(
    first: Pending,
    rx: &Receiver<Pending>,
    inflight: &AtomicUsize,
    config: &GroupCommitConfig,
    expect: usize,
) -> Vec<Pending> {
    let mut entries = 0;
    let mut bytes = 0;
    let mut batch = Vec::new();
    let deadline = Instant::now() + config.max_batch_window;
    let mut next = Some(first);
    while let Some(p) = next.take() {
        inflight.fetch_sub(1, Ordering::SeqCst);
        entries += p.entries.len();
        bytes += p.size_hint;
        batch.push(p);
        if entries >= config.max_batch || bytes >= config.max_batch_bytes {
            break;
        }
        next = match rx.try_recv() {
            Ok(p) => Some(p),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => {
                // Commit now unless there is a concrete reason to expect
                // more arrivals before the deadline: a producer that has
                // claimed a slot and is racing toward the channel, or
                // members of the previous cohort that have not re-arrived
                // yet.
                let now = Instant::now();
                let settled = inflight.load(Ordering::SeqCst) == 0 && batch.len() >= expect;
                if config.max_batch_window.is_zero() || settled || now >= deadline {
                    None
                } else {
                    rx.recv_timeout(deadline - now).ok()
                }
            }
        };
    }
    batch
}

fn committer_loop(
    writer: &LogWriter,
    rx: &Receiver<Pending>,
    inflight: &AtomicUsize,
    config: &GroupCommitConfig,
) {
    // Self-clocking cohort estimate: how many callers the previous batch
    // served (they all re-arrive together, being blocked on their `done`
    // channels until the commit).
    let mut expect = 1usize;
    loop {
        // Block for the first unit of the batch: an idle log costs no
        // wakeups and no DFS traffic.
        let first = match rx.recv() {
            Ok(p) => p,
            Err(_) => return,
        };
        Metrics::incr(&writer.metrics().wal_committer_wakeups);
        let batch = drain_batch(first, rx, inflight, config, expect);
        expect = batch.len();

        // Hand the entries to the writer by value — the committer clones
        // nothing; `Pending` carries ownership end-to-end.
        let mut entries = Vec::new();
        let mut waiters = Vec::with_capacity(batch.len());
        for p in batch {
            waiters.push((p.entries.len(), p.done));
            entries.extend(p.entries);
        }
        // A panic inside the append must not take the committer down with
        // waiters still blocked on their `done` channels — convert it into
        // an error for every member of the batch and keep serving.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            writer.append_batch(&entries)
        }))
        .unwrap_or_else(|_| Err(Error::Unavailable("committer panicked".into())));
        match outcome {
            Ok(positions) => {
                let mut positions = positions.into_iter();
                for (n, done) in waiters {
                    let _ = done.send(Ok(positions.by_ref().take(n).collect()));
                }
            }
            Err(e) => {
                for (_, done) in waiters {
                    let _ = done.send(Err(batch_error(&e)));
                }
            }
        }
    }
}

/// The error every waiter of a failed batch receives. A fenced batch
/// stays `Fenced`: folding it into the retriable `Unavailable` would
/// send zombie clients into a retry loop that can never succeed.
fn batch_error(e: &Error) -> Error {
    match e {
        Error::Fenced {
            server,
            held,
            current,
        } => Error::Fenced {
            server: server.clone(),
            held: *held,
            current: *current,
        },
        e => Error::Unavailable(format!("group commit failed: {e}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::LogConfig;
    use logbase_common::{Record, Timestamp};
    use logbase_dfs::{Dfs, DfsConfig};

    fn put_kind(key: &str, ts: u64) -> LogEntryKind {
        LogEntryKind::Write {
            txn_id: 0,
            tablet: 0,
            record: Record::put(key.as_bytes().to_vec(), 0, Timestamp(ts), vec![1u8; 8]),
        }
    }

    fn group_log() -> (Dfs, GroupCommitLog) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        (dfs, GroupCommitLog::new(w, GroupCommitConfig::default()))
    }

    #[test]
    fn single_append_round_trips() {
        let (dfs, log) = group_log();
        let (lsn, ptr) = log.append("t", put_kind("a", 1)).unwrap();
        assert_eq!(lsn, Lsn(1));
        let entry = crate::read_entry(&dfs, "srv/log", ptr).unwrap();
        assert_eq!(entry.lsn, lsn);
    }

    #[test]
    fn concurrent_appends_all_get_unique_lsns() {
        let (_dfs, log) = group_log();
        let log = Arc::new(log);
        let mut lsns = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|t| {
                    let log = Arc::clone(&log);
                    s.spawn(move || {
                        (0..25)
                            .map(|i| log.append("t", put_kind(&format!("{t}-{i}"), i)).unwrap().0)
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            for h in handles {
                lsns.extend(h.join().unwrap());
            }
        });
        lsns.sort_unstable();
        lsns.dedup();
        assert_eq!(lsns.len(), 200);
    }

    #[test]
    fn batching_reduces_dfs_appends() {
        let (dfs, log) = group_log();
        let log = Arc::new(log);
        let before = dfs.metrics().snapshot().dfs_appends;
        std::thread::scope(|s| {
            for t in 0..8 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..25 {
                        log.append("t", put_kind(&format!("{t}-{i}"), i)).unwrap();
                    }
                });
            }
        });
        let appends = dfs.metrics().snapshot().dfs_appends - before;
        // 200 entries must take far fewer than 200 log writes.
        assert!(
            appends < 200,
            "group commit did not batch: {appends} appends for 200 entries"
        );
    }

    /// Regression (ISSUE 9): the committer used to wake every
    /// `poll_interval` (1 ms) even with nothing to commit. An idle log
    /// must cost nothing: no committer wakeups, no DFS operations.
    #[test]
    fn idle_log_performs_no_dfs_operations_and_no_wakeups() {
        let (dfs, log) = group_log();
        log.append("t", put_kind("warm", 1)).unwrap();
        // Give the committer time to finish the warm-up batch and park.
        std::thread::sleep(Duration::from_millis(20));
        let before = dfs.metrics().snapshot();
        std::thread::sleep(Duration::from_millis(120));
        let after = dfs.metrics().snapshot();
        assert_eq!(
            after.wal_committer_wakeups, before.wal_committer_wakeups,
            "idle committer woke up"
        );
        assert_eq!(after.dfs_appends, before.dfs_appends);
        assert_eq!(after.dfs_reads, before.dfs_reads);
        drop(log);
    }

    /// The byte budget closes a batch even when the entry count is far
    /// below `max_batch`.
    #[test]
    fn byte_budget_closes_batches_early() {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        let log = Arc::new(GroupCommitLog::new(
            w,
            GroupCommitConfig {
                max_batch: 1024,
                max_batch_bytes: 4 * 1024,
                max_batch_window: Duration::from_millis(50),
            },
        ));
        // 64 entries of ~1 KiB from 8 threads: the byte budget (4 KiB)
        // forces multiple batches despite the generous count and window.
        let before = dfs.metrics().snapshot();
        std::thread::scope(|s| {
            for t in 0..8 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for i in 0..8 {
                        let kind = LogEntryKind::Write {
                            txn_id: 0,
                            tablet: 0,
                            record: Record::put(
                                format!("{t}-{i}").into_bytes(),
                                0,
                                Timestamp(i),
                                vec![0u8; 1024],
                            ),
                        };
                        log.append("t", kind).unwrap();
                    }
                });
            }
        });
        let d = dfs.metrics().snapshot().delta_since(&before);
        assert_eq!(d.wal_batched_entries, 64);
        assert!(
            d.wal_batches_committed >= 8,
            "byte budget ignored: {} batches for 64 KiB of entries",
            d.wal_batches_committed
        );
    }

    #[test]
    fn append_all_returns_positions_in_order_of_durability() {
        let (dfs, log) = group_log();
        let entries: Vec<_> = (0..5)
            .map(|i| ("t".to_string(), put_kind(&format!("k{i}"), i)))
            .collect();
        let pos = log.append_all(entries).unwrap();
        assert_eq!(pos.len(), 5);
        // All durable: each pointer resolves.
        for (_, ptr) in &pos {
            assert!(crate::read_entry(&dfs, "srv/log", *ptr).is_ok());
        }
    }

    #[test]
    fn dead_dfs_fails_every_waiter_without_hanging() {
        use logbase_common::retry::RetryPolicy;
        // Disk-backed nodes so blocks survive the full-cluster restart.
        let dir = tempfile::tempdir().unwrap();
        let dfs =
            Dfs::new(DfsConfig::on_disk(dir.path(), 3, 2).with_retry(RetryPolicy::no_delay(2)));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        let log = Arc::new(GroupCommitLog::new(w, GroupCommitConfig::default()));
        log.append("t", put_kind("a", 1)).unwrap();
        for id in 0..3 {
            dfs.kill_node(id);
        }
        // Every waiter must get an Err back — none may block forever on a
        // batch the committer can no longer persist.
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..4)
                .map(|t| {
                    let log = Arc::clone(&log);
                    s.spawn(move || log.append("t", put_kind(&format!("x{t}"), t)))
                })
                .collect();
            for h in handles {
                assert!(h.join().unwrap().is_err());
            }
        });
        // The committer survived: once the nodes return, appends succeed.
        for id in 0..3 {
            dfs.restart_node(id);
        }
        log.append("t", put_kind("back", 9)).unwrap();
    }

    #[test]
    fn fenced_batches_surface_fenced_not_unavailable() {
        let (_dfs, log) = group_log();
        log.append("t", put_kind("a", 1)).unwrap();
        log.writer().set_gate(Arc::new(|| {
            Err(Error::Fenced {
                server: "srv".into(),
                held: 3,
                current: 5,
            })
        }));
        let err = log.append("t", put_kind("b", 2)).unwrap_err();
        assert!(!err.is_retriable(), "Fenced must never be retried");
        match err {
            Error::Fenced {
                server,
                held,
                current,
            } => {
                assert_eq!(server, "srv");
                assert_eq!((held, current), (3, 5));
            }
            other => panic!("expected Fenced, got {other}"),
        }
    }

    #[test]
    fn drop_stops_committer_thread() {
        let (_dfs, log) = group_log();
        log.append("t", put_kind("a", 1)).unwrap();
        drop(log); // must not hang
    }

    fn lingering_log(max_batch: usize) -> (Dfs, GroupCommitLog) {
        let dfs = Dfs::new(DfsConfig::in_memory(3, 2));
        let w = Arc::new(LogWriter::create(dfs.clone(), LogConfig::new("srv/log")).unwrap());
        let config = GroupCommitConfig {
            max_batch,
            max_batch_window: Duration::from_secs(5),
            ..GroupCommitConfig::default()
        };
        (dfs, GroupCommitLog::new(w, config))
    }

    fn unit(n: u64) -> Vec<(String, LogEntryKind)> {
        (0..n)
            .map(|i| ("t".to_string(), put_kind(&format!("k{i}"), i)))
            .collect()
    }

    /// The cohort estimate counts callers, not entries: a lone producer
    /// whose previous unit carried 4 entries must not linger for 3 more
    /// callers that do not exist.
    #[test]
    fn lone_append_after_multi_entry_unit_does_not_linger() {
        let (_dfs, log) = lingering_log(128);
        log.append_all(unit(4)).unwrap();
        let started = Instant::now();
        log.append("t", put_kind("after", 9)).unwrap();
        let waited = started.elapsed();
        assert!(
            waited < Duration::from_secs(1),
            "lone append lingered {waited:?} behind a 5 s window"
        );
    }

    /// One caller's unit is never split across batches, even when it
    /// holds more entries than `max_batch`.
    #[test]
    fn oversized_unit_commits_as_one_batch() {
        let (dfs, log) = lingering_log(2);
        let before = dfs.metrics().snapshot();
        let pos = log.append_all(unit(5)).unwrap();
        let d = dfs.metrics().snapshot().delta_since(&before);
        assert_eq!(pos.len(), 5);
        assert_eq!((d.wal_batches_committed, d.wal_batched_entries), (1, 5));
    }

    /// Units from concurrent callers are never interleaved: each
    /// caller's entries get consecutive LSNs.
    #[test]
    fn concurrent_units_get_consecutive_lsns() {
        let (_dfs, log) = group_log();
        let log = Arc::new(log);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let log = Arc::clone(&log);
                s.spawn(move || {
                    for _ in 0..10 {
                        let lsns: Vec<u64> = log
                            .append_all(unit(3))
                            .unwrap()
                            .iter()
                            .map(|(lsn, _)| lsn.0)
                            .collect();
                        assert_eq!(lsns, [lsns[0], lsns[0] + 1, lsns[0] + 2]);
                    }
                });
            }
        });
    }
}
