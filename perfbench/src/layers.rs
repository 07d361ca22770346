//! Replay passes for the traced run: the same generated ops, fed to each
//! lower layer's public functions from the benchmark's own code.

use crate::gen::{check_value, make_value, Inputs, Kind, Op, CLIENTS, MEMBERS, WARMUP_OPS};
use crate::live::{anchor, kind_index, server_op, Ack, REPLICATION, TABLE};
use crate::trace::{self, Span};
use logbase::{ReadBuffer, TabletServer};
use logbase_cluster::{Client, Cluster};
use logbase_common::schema::KeyRange;
use logbase_common::{LogPtr, Record, Timestamp, Value};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_index::MultiVersionIndex;
use logbase_wal::{GroupCommitConfig, GroupCommitLog, LogConfig, LogEntryKind, LogWriter};
use logbase_workload::encode_key;
use std::path::Path;
use std::sync::Arc;

/// Ops of the relevant kinds each pass takes from each client's list.
const PASS_OPS: usize = 2_000;
/// Read-buffer budget of one member (the `ServerConfig` default).
const READ_BUFFER_BYTES: u64 = 16 * 1024 * 1024;

/// Write ids of replayed writes, tagged apart from client writes.
const SERVER_PASS_TAG: u64 = 0x0F << 56;

/// The first `PASS_OPS` measured ops of `kinds` in client `c`'s list.
fn pass_ops<'a>(inputs: &'a Inputs, c: usize, kinds: &'a [Kind]) -> impl Iterator<Item = &'a Op> {
    inputs.ops[c][WARMUP_OPS..]
        .iter()
        .filter(move |op| kinds.contains(&op.kind()))
        .take(PASS_OPS)
}

/// Time `f` as a root span named `name`; returns its result and ns.
fn timed<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let start = trace::now_ns();
    let out = f();
    let end = trace::now_ns();
    trace::record(0, req, name, start, end);
    (out, end - start)
}

/// Everything the replay passes measured, in ns.
#[derive(Default)]
pub struct Passes {
    /// Direct `TabletServer` time per op kind ([`Kind::ALL`] order).
    pub server: [Vec<u64>; 4],
    /// `(dfs_appends, dfs_reads)` each op kind made in the server pass.
    pub server_io: [(u64, u64); 4],
    pub wal_append: Vec<u64>,
    pub dfs_append: Vec<u64>,
    pub dfs_read: Vec<u64>,
    pub index_insert: Vec<u64>,
    pub index_latest: Vec<u64>,
    pub index_range: Vec<u64>,
    pub rb_get: Vec<u64>,
    pub acks: Vec<Ack>,
    pub errors: Vec<String>,
    pub spans: Vec<Span>,
}

/// Run every pass. `scratch` is an empty directory for the standalone
/// DFS the log and DFS passes write to.
pub fn run_all(cluster: &Cluster, client: &Client, inputs: &Inputs, scratch: &Path) -> Passes {
    let mut p = Passes::default();
    server_pass(&mut p, cluster, client, inputs);
    let dfs = Dfs::new(DfsConfig::on_disk(scratch, MEMBERS, REPLICATION));
    if let Err(e) = wal_pass(&mut p, &dfs, inputs) {
        p.errors.push(e);
    }
    if let Err(e) = dfs_pass(&mut p, &dfs, inputs) {
        p.errors.push(e);
    }
    index_pass(&mut p, inputs);
    read_buffer_pass(&mut p, inputs);
    p.spans.extend(trace::drain());
    p
}

/// Client 0's ops against the owning `TabletServer`, one at a time,
/// routed with `Client::member_for`. Snapshotting the shared metrics
/// around each call attributes the counters to the op kind.
fn server_pass(p: &mut Passes, cluster: &Cluster, client: &Client, inputs: &Inputs) {
    let metrics = cluster.metrics();
    let servers: Vec<Arc<TabletServer>> = (0..MEMBERS)
        .map(|m| cluster.logbase_server(m).expect("every member is up"))
        .collect();
    for (seq, op) in pass_ops(inputs, 0, &Kind::ALL).enumerate() {
        let key = inputs.keys[anchor(op) as usize];
        let server = match client.member_for(&encode_key(key)) {
            Ok(m) => &servers[m as usize],
            Err(e) => {
                p.errors.push(format!("route {key}: {e}"));
                continue;
            }
        };
        let k = kind_index(op.kind());
        let before = metrics.snapshot();
        let (result, ns) = timed(SERVER_SPANS[k], seq as u64, || {
            server_op(server, inputs, op, SERVER_PASS_TAG | (seq as u64) << 2)
        });
        let delta = metrics.snapshot().delta_since(&before);
        match result {
            Ok(acks) => {
                p.server[k].push(ns);
                p.server_io[k].0 += delta.dfs_appends;
                p.server_io[k].1 += delta.dfs_reads;
                p.acks.extend(acks);
            }
            Err(e) => p.errors.push(e),
        }
    }
}

const SERVER_SPANS: [&str; 4] = ["server.put", "server.get", "server.scan", "server.txn"];

/// Client 0's put records through a standalone `GroupCommitLog`, one at
/// a time like the server pass, so the two subtract.
fn wal_pass(p: &mut Passes, dfs: &Dfs, inputs: &Inputs) -> Result<(), String> {
    let writer = LogWriter::create(dfs.clone(), LogConfig::new("perfbench-wal/log"))
        .map_err(|e| format!("create standalone log: {e}"))?;
    let log = GroupCommitLog::new(Arc::new(writer), GroupCommitConfig::default());
    for (seq, op) in pass_ops(inputs, 0, &[Kind::Put]).enumerate() {
        let key = inputs.keys[anchor(op) as usize];
        let record = Record::put(
            encode_key(key),
            0,
            Timestamp(seq as u64 + 1),
            make_value(key, seq as u64, 0),
        );
        let kind = LogEntryKind::Write {
            txn_id: 0,
            tablet: 0,
            record,
        };
        let (res, ns) = timed("wal.append", seq as u64, || log.append(TABLE, kind));
        res.map_err(|e| format!("standalone log append: {e}"))?;
        p.wal_append.push(ns);
    }
    Ok(())
}

/// `Dfs::append` of each put's value, then `Dfs::read` of a value for
/// each get, on the standalone DFS.
fn dfs_pass(p: &mut Passes, dfs: &Dfs, inputs: &Inputs) -> Result<(), String> {
    const FILE: &str = "perfbench-dfs/values";
    dfs.create(FILE)
        .map_err(|e| format!("create {FILE}: {e}"))?;
    // `(offset, key)` of each appended value, and the latest per item.
    let mut appended: Vec<(u64, u64)> = Vec::new();
    let mut at_item = std::collections::HashMap::new();
    for (seq, op) in pass_ops(inputs, 0, &[Kind::Put]).enumerate() {
        let item = anchor(op);
        let key = inputs.keys[item as usize];
        let value = make_value(key, seq as u64, 0);
        let (res, ns) = timed("dfs.append", seq as u64, || dfs.append(FILE, &value));
        let off = res.map_err(|e| format!("dfs append: {e}"))?;
        p.dfs_append.push(ns);
        at_item.insert(item, appended.len());
        appended.push((off, key));
    }
    if appended.is_empty() {
        return Ok(());
    }
    for (seq, op) in pass_ops(inputs, 0, &[Kind::Get]).enumerate() {
        let item = anchor(op);
        // A get of an item the pass never appended reads some other
        // appended value; the check follows whichever key it holds.
        let i = at_item
            .get(&item)
            .copied()
            .unwrap_or(item as usize % appended.len());
        let (off, key) = appended[i];
        let (res, ns) = timed("dfs.read", seq as u64, || {
            dfs.read(FILE, off, crate::gen::VALUE_BYTES as u64)
        });
        let bytes = res.map_err(|e| format!("dfs read: {e}"))?;
        check_value(key, &bytes).map_err(|e| format!("dfs read back: {e}"))?;
        p.dfs_read.push(ns);
    }
    Ok(())
}

/// A `MultiVersionIndex` holding every loaded key, then each client's
/// ops replayed on its own thread: inserts for puts, latest-version
/// lookups for gets and range probes for scans.
fn index_pass(p: &mut Passes, inputs: &Inputs) {
    let index = MultiVersionIndex::new();
    for (i, &key) in inputs.keys.iter().enumerate() {
        index.insert(
            encode_key(key),
            Timestamp(1),
            LogPtr::new(0, i as u64 * 1100, 1100),
        );
    }
    let per_thread: Vec<([Vec<u64>; 3], Vec<Span>)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let index = &index;
                s.spawn(move || {
                    let mut lat: [Vec<u64>; 3] = Default::default();
                    for (seq, op) in
                        pass_ops(inputs, c, &[Kind::Put, Kind::Get, Kind::Scan]).enumerate()
                    {
                        let key = encode_key(inputs.keys[anchor(op) as usize]);
                        let req = seq as u64;
                        match *op {
                            Op::Put(_) => {
                                let ts = Timestamp(2 + (seq * CLIENTS + c) as u64);
                                let ptr = LogPtr::new(1, seq as u64 * 1100, 1100);
                                lat[0].push(
                                    timed("index.insert", req, || index.insert(key, ts, ptr)).1,
                                );
                            }
                            Op::Get(_) => {
                                let (found, ns) = timed("index.latest", req, || index.latest(&key));
                                assert!(found.is_some(), "loaded key missing from the index");
                                lat[1].push(ns);
                            }
                            Op::Scan { limit, .. } => {
                                let range = KeyRange {
                                    start: key,
                                    end: None,
                                };
                                let limit = usize::from(limit);
                                lat[2].push(
                                    timed("index.range", req, || {
                                        index.range_latest_at(&range, Timestamp::MAX, limit)
                                    })
                                    .1,
                                );
                            }
                            Op::Txn { .. } => {}
                        }
                    }
                    (lat, trace::drain())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("index replay thread panicked"))
            .collect()
    });
    for ([ins, lat, range], spans) in per_thread {
        p.index_insert.extend(ins);
        p.index_latest.extend(lat);
        p.index_range.extend(range);
        p.spans.extend(spans);
    }
}

/// A `ReadBuffer` at one member's budget, loaded like member 0 after the
/// load phase, then member 0's puts and gets from client 0's list.
fn read_buffer_pass(p: &mut Passes, inputs: &Inputs) {
    let shards = logbase_common::config::default_parallelism();
    let rb = ReadBuffer::lru_sharded(READ_BUFFER_BYTES, shards);
    let table: Arc<str> = Arc::from(TABLE);
    let value = Value::from(vec![0x5au8; crate::gen::VALUE_BYTES]);
    let mine = &inputs.load_order()[0];
    for &item in mine {
        let key = inputs.keys[item as usize].to_be_bytes();
        rb.put(&table, 0, &key, Timestamp(1), Some(value.clone()));
    }
    let on_member0 = |op: &&Op| inputs.member[anchor(op) as usize] == 0;
    for (seq, op) in pass_ops(inputs, 0, &[Kind::Put, Kind::Get])
        .filter(on_member0)
        .enumerate()
    {
        let key = inputs.keys[anchor(op) as usize].to_be_bytes();
        match op {
            Op::Put(_) => rb.put(
                &table,
                0,
                &key,
                Timestamp(2 + seq as u64),
                Some(value.clone()),
            ),
            _ => p
                .rb_get
                .push(timed("read_buffer.get", seq as u64, || rb.get(&table, 0, &key)).1),
        }
    }
}
