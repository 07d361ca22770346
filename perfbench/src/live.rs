//! The served path: set up a 3-member cluster on the on-disk DFS, drive
//! it with closed-loop clients over TCP, recover every member, and check
//! the data against what the clients were acknowledged.

use crate::gen::{
    check_value, is_account, make_value, Inputs, Kind, Op, CLIENTS, INITIAL_BALANCE, MEMBERS,
    VALUE_BYTES, WARMUP_OPS,
};
use crate::trace::{self, Span};
use logbase::endpoint::TxnEndpoint;
use logbase::{ServerEndpoint, TabletServer};
use logbase_cluster::{
    Client, ClientConfig, Cluster, ClusterConfig, EngineKind, NetServer, NetServerConfig,
    TcpTransport, Transport,
};
use logbase_common::schema::KeyRange;
use logbase_common::{Error, Timestamp};
use logbase_dfs::{Dfs, DfsConfig};
use logbase_workload::{decode_key, encode_key};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

/// The table `ClusterConfig::new` makes every member serve.
pub const TABLE: &str = "usertable";
/// DFS replication factor.
pub const REPLICATION: usize = 3;
/// Attempts before a conflicting transaction counts as failed.
const TXN_MAX_ATTEMPTS: u32 = 1_000;

/// Records per member written after the set-up's checkpoint (a put
/// writes one, a transaction three): the log tail every gated recovery
/// redoes, the same in every run of a seed.
const TAIL_RECORDS: usize = 5_000;

/// Key and value bytes of one write.
const USER_BYTES: u64 = 8 + VALUE_BYTES as u64;

/// Write-id tags: the top bits say which writer produced a value.
const TAIL_TAG: u64 = 0x0E << 56;
const LOAD_TAG: u64 = 1 << 62;
const PUT_TAG: u64 = 2 << 62;
const TXN_TAG: u64 = 3 << 62;

/// A running cluster with its TCP listeners.
pub struct Rig {
    pub dir: PathBuf,
    pub cluster: Cluster,
    pub net: Arc<NetServer>,
}

/// Where one set-up spent its time.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub total_s: f64,
    pub load_s: f64,
    pub checkpoint_s: f64,
}

/// One acknowledged write.
#[derive(Debug, Clone, Copy)]
pub struct Ack {
    pub item: u32,
    pub ts: u64,
    pub write_id: u64,
    pub balance: i64,
}

/// Per item, the highest-timestamp acknowledged write.
pub struct Expected {
    latest: Vec<Ack>,
}

impl Expected {
    pub fn new(items: u32) -> Expected {
        Expected {
            latest: (0..items)
                .map(|item| Ack {
                    item,
                    ts: 0,
                    write_id: 0,
                    balance: 0,
                })
                .collect(),
        }
    }

    pub fn apply(&mut self, acks: &[Ack]) {
        for a in acks {
            let slot = &mut self.latest[a.item as usize];
            if a.ts > slot.ts {
                *slot = *a;
            }
        }
    }
}

/// Bring up the cluster on a fresh DFS under `dir`, load every item in
/// key order (one loader thread per member), checkpoint every member,
/// and start the TCP listeners.
pub fn setup(
    inputs: &Inputs,
    dir: &Path,
    expected: &mut Expected,
) -> Result<(Rig, SetupTimes), String> {
    let t0 = Instant::now();
    std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let dfs = Dfs::new(DfsConfig::on_disk(dir, MEMBERS, REPLICATION));
    let config = ClusterConfig::new(MEMBERS, EngineKind::LogBase);
    let cluster = Cluster::create_on(config, dfs).map_err(|e| format!("create cluster: {e}"))?;

    let t_load = Instant::now();
    expected.apply(&load(&cluster, inputs)?);
    let load_s = t_load.elapsed().as_secs_f64();

    let t_ckpt = Instant::now();
    cluster.sync_all().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_s = t_ckpt.elapsed().as_secs_f64();

    let net = cluster
        .start_net(NetServerConfig::default())
        .map_err(|e| format!("start listeners: {e}"))?;
    let times = SetupTimes {
        total_s: t0.elapsed().as_secs_f64(),
        load_s,
        checkpoint_s,
    };
    Ok((
        Rig {
            dir: dir.to_path_buf(),
            cluster,
            net,
        },
        times,
    ))
}

/// Put every item straight into its member's engine in key order, one
/// loader thread per member. `Cluster::parallel_load` does the same
/// fan-out but writes one constant value to every key; these values
/// check themselves.
fn load(cluster: &Cluster, inputs: &Inputs) -> Result<Vec<Ack>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = inputs
            .load_order()
            .into_iter()
            .enumerate()
            .map(|(m, items)| {
                let engine = cluster.engine(m);
                s.spawn(move || -> Result<Vec<Ack>, String> {
                    let mut acks = Vec::with_capacity(items.len());
                    for item in items {
                        let key = inputs.keys[item as usize];
                        let write_id = LOAD_TAG | u64::from(item);
                        let balance = if is_account(item) { INITIAL_BALANCE } else { 0 };
                        let ts = engine
                            .put(0, encode_key(key), make_value(key, write_id, balance))
                            .map_err(|e| format!("write key {key}: {e}"))?;
                        acks.push(Ack {
                            item,
                            ts: ts.0,
                            write_id,
                            balance,
                        });
                    }
                    Ok(acks)
                })
            })
            .collect();
        let per: Vec<Vec<Ack>> = handles
            .into_iter()
            .map(|h| h.join().expect("loader thread panicked"))
            .collect::<Result<_, _>>()?;
        Ok(per.into_iter().flatten().collect())
    })
}

/// Write the fixed log tail: each member's write ops (puts and
/// transactions), taken from the clients' measured lists in order and
/// cycled until they wrote `TAIL_RECORDS` records, applied straight to
/// the member's `TabletServer`, one thread per member, one op at a
/// time. The tail is the same in every run of a seed, whatever a phase
/// managed to do.
pub fn write_tail(cluster: &Cluster, inputs: &Inputs) -> Result<Vec<Ack>, String> {
    let mut per_member: Vec<Vec<&Op>> = vec![Vec::new(); MEMBERS];
    for op in inputs.ops.iter().flat_map(|ops| &ops[WARMUP_OPS..]) {
        if matches!(op.kind(), Kind::Put | Kind::Txn) {
            per_member[inputs.member[anchor(op) as usize] as usize].push(op);
        }
    }
    std::thread::scope(|s| {
        let handles: Vec<_> = per_member
            .iter()
            .enumerate()
            .map(|(m, ops)| {
                let server = cluster.logbase_server(m);
                s.spawn(move || -> Result<Vec<Ack>, String> {
                    let server = server.ok_or_else(|| format!("member {m} is down"))?;
                    let mut acks = Vec::with_capacity(TAIL_RECORDS + 2);
                    for (seq, op) in ops.iter().cycle().enumerate() {
                        if acks.len() >= TAIL_RECORDS {
                            break;
                        }
                        let write_base = TAIL_TAG | (m as u64) << 48 | (seq as u64) << 2;
                        acks.extend(server_op(&server, inputs, op, write_base)?);
                    }
                    Ok(acks)
                })
            })
            .collect();
        let per: Vec<Vec<Ack>> = handles
            .into_iter()
            .map(|h| h.join().expect("tail writer thread panicked"))
            .collect::<Result<_, _>>()?;
        Ok(per.into_iter().flatten().collect())
    })
}

/// The item an op is routed by: its key, or a transaction's first
/// account.
pub fn anchor(op: &Op) -> u32 {
    match *op {
        Op::Put(i) | Op::Get(i) | Op::Scan { item: i, .. } => i,
        Op::Txn { items, .. } => items[0],
    }
}

/// Apply one op straight to `server` and check its result. Writes get
/// write ids `write_base` (ORed with the slot of a transaction's
/// account).
pub fn server_op(
    server: &Arc<TabletServer>,
    inputs: &Inputs,
    op: &Op,
    write_base: u64,
) -> Result<Vec<Ack>, String> {
    let key_of = |item: u32| inputs.keys[item as usize];
    match *op {
        Op::Put(item) => {
            let key = key_of(item);
            let ts = server
                .put(TABLE, 0, encode_key(key), make_value(key, write_base, 0))
                .map_err(|e| format!("server put {key}: {e}"))?;
            Ok(vec![Ack {
                item,
                ts: ts.0,
                write_id: write_base,
                balance: 0,
            }])
        }
        Op::Get(item) => {
            let key = key_of(item);
            match server.get(TABLE, 0, &encode_key(key)) {
                Ok(Some(v)) => check_value(key, &v).map(|_| Vec::new()),
                Ok(None) => Err(format!("server get {key}: loaded key read as None")),
                Err(e) => Err(format!("server get {key}: {e}")),
            }
        }
        Op::Scan { item, limit } => {
            let key = key_of(item);
            let range = KeyRange {
                start: encode_key(key),
                end: None,
            };
            let items = server
                .range_scan(TABLE, 0, &range, usize::from(limit))
                .map_err(|e| format!("server scan {key}: {e}"))?;
            check_scan(inputs, key, usize::from(limit), &items).map(|_| Vec::new())
        }
        // Even with one writer per server a transaction can conflict:
        // the oracle is shared, and another member's commit in flight
        // holds every snapshot below it. Retried until it commits.
        Op::Txn { items, amount } => {
            let ep = ServerEndpoint::new(Arc::clone(server));
            for _ in 0..TXN_MAX_ATTEMPTS {
                match transfer_once(&ep, inputs, items, deltas(amount), write_base) {
                    Err(Error::TxnConflict { .. }) => continue,
                    done => return done.map_err(|e| format!("server txn on {items:?}: {e}")),
                }
            }
            Err(format!(
                "server txn on {items:?}: no commit after {TXN_MAX_ATTEMPTS} attempts"
            ))
        }
    }
}

/// What [`fixed_history`] measured.
pub struct History {
    pub setup: SetupTimes,
    /// Time to write the tail.
    pub tail_s: f64,
    /// DFS bytes on disk after the load and the tail ÷ live user bytes.
    pub space_amp: f64,
    /// Peak resident set of the process by the end of the tail, in MiB.
    pub rss_mib: f64,
    pub recovery: Recovery,
    pub verified: Verified,
}

/// Set up a cluster under `dir`, write the fixed tail, measure the DFS
/// bytes on disk and the peak resident set, crash and recover every
/// member `rounds` times, check the data and tear the cluster down.
/// Space, memory and recovery are measured after this fixed write
/// history, so that none of them moves with how much a time-bound
/// phase managed to write. Run it first, while the process holds
/// nothing else.
pub fn fixed_history(inputs: &Inputs, dir: &Path, rounds: usize) -> Result<History, String> {
    let mut expected = Expected::new(inputs.spec.items);
    let (mut rig, setup) = setup(inputs, dir, &mut expected)?;
    let t_tail = Instant::now();
    expected.apply(&write_tail(&rig.cluster, inputs)?);
    let tail_s = t_tail.elapsed().as_secs_f64();
    let space_amp = crate::stats::ratio(dir_bytes(&rig.dir) as f64, inputs.live_bytes() as f64);
    let rss_mib = peak_rss_mib();
    let recovery = recover(&mut rig.cluster, rounds)?;
    let verified = verify(&rig.cluster, inputs, &expected);
    rig.teardown();
    Ok(History {
        setup,
        tail_s,
        space_amp,
        rss_mib,
        recovery,
        verified,
    })
}

impl Rig {
    /// A `Client` over TCP, optionally wrapped so every transport call
    /// records a span.
    pub fn client(&self, traced: bool) -> Client {
        let tcp = TcpTransport::for_server(&self.net);
        let transport: Arc<dyn Transport> = if traced {
            Arc::new(trace::TimingTransport { inner: tcp })
        } else {
            Arc::new(tcp)
        };
        self.cluster.client_with(transport, ClientConfig::default())
    }

    /// Stop the listeners, drop the members and delete the DFS directory.
    pub fn teardown(self) {
        self.net.shutdown();
        // The registry's expiry watcher keeps the member slots alive
        // after the `Cluster` drops; killing each member releases its
        // server (read buffer, indexes, log) now.
        for m in 0..MEMBERS {
            self.cluster.kill_server(m);
        }
        let dir = self.dir.clone();
        drop(self);
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// What one measured phase observed.
#[derive(Default)]
pub struct Phase {
    /// Client-side latency in ns, indexed like [`Kind::ALL`].
    pub lat: [Vec<u64>; 4],
    /// Completion time of each `lat` sample, in ns since the phase began.
    pub ends: [Vec<u64>; 4],
    /// CPU time the host stole from this machine in each [`WINDOW`] of
    /// the phase, in clock ticks.
    pub steal: Vec<u64>,
    pub wall_s: f64,
    /// Ops issued, warm-up included.
    pub attempted: u64,
    /// Ops that returned an error or a wrong result.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    pub acks: Vec<Ack>,
    /// Transaction attempts (commits plus conflict retries).
    pub txn_attempts: u64,
    /// Values handed back by gets, scans and transaction reads.
    pub values_returned: u64,
    /// Key and value bytes of every put issued and every committed
    /// transaction write, warm-up included.
    pub user_bytes_written: u64,
    pub spans: Vec<Span>,
}

impl Phase {
    /// Timed ops that completed correctly.
    pub fn completed(&self) -> u64 {
        self.lat.iter().map(|l| l.len() as u64).sum()
    }

    pub fn throughput(&self) -> f64 {
        crate::stats::ratio(self.completed() as f64, self.wall_s)
    }

    fn merge(&mut self, other: Phase) {
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        for (a, b) in self.ends.iter_mut().zip(other.ends) {
            a.extend(b);
        }
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.errors.extend(other.errors);
        self.errors.truncate(8);
        self.acks.extend(other.acks);
        self.txn_attempts += other.txn_attempts;
        self.values_returned += other.values_returned;
        self.user_bytes_written += other.user_bytes_written;
        self.spans.extend(other.spans);
    }
}

/// The measured phase is cut into windows this long.
pub const WINDOW: Duration = Duration::from_millis(500);
/// A window is quiet when the host stole at most this many clock ticks
/// (of 100 per window on 2 CPUs) from this machine during it.
const QUIET_TICKS: u64 = 3;

/// Windows the end-to-end figures come from: half the windows of a
/// `seconds`-long phase.
pub fn windows_used(seconds: u64) -> usize {
    seconds as usize
}

/// Run every client's op list against `client`. Each client first runs
/// its warm-up ops untimed. A sampler thread records the host's steal
/// time in each [`WINDOW`]. The phase runs for `seconds`, and longer
/// while fewer than [`windows_used`] windows were quiet, up to twice
/// `seconds`: a stretch in which the host takes CPU time from this
/// machine is waited out rather than measured. `phase_no` keeps write
/// ids of repeated phases distinct.
pub fn run_phase(
    client: &Client,
    inputs: &Inputs,
    seconds: u64,
    traced: bool,
    phase_no: u64,
) -> Phase {
    let barrier = Barrier::new(CLIENTS + 1);
    let stop = AtomicBool::new(false);
    let (results, steal) = std::thread::scope(|s| {
        let sampler = s.spawn(|| {
            barrier.wait();
            let start = Instant::now();
            let nominal = 2 * seconds as u32;
            let mut last = host_steal_ticks();
            let mut steal = Vec::new();
            for w in 1..=2 * nominal {
                std::thread::sleep((start + WINDOW * w).saturating_duration_since(Instant::now()));
                let now = host_steal_ticks();
                steal.push(now.saturating_sub(last));
                last = now;
                let quiet = steal.iter().filter(|&&t| t <= QUIET_TICKS).count();
                if w >= nominal && quiet >= windows_used(seconds) {
                    break;
                }
            }
            stop.store(true, Ordering::Release);
            steal
        });
        let handles: Vec<_> = (0..CLIENTS)
            .map(|c| {
                let (barrier, stop) = (&barrier, &stop);
                s.spawn(move || {
                    let ops = &inputs.ops[c];
                    let mut w = Worker {
                        client,
                        inputs,
                        id_base: (phase_no << 56) | ((c as u64) << 48),
                        phase: Phase::default(),
                        start: Instant::now(),
                    };
                    for (seq, op) in ops[..WARMUP_OPS].iter().enumerate() {
                        w.run(op, seq as u64, false);
                    }
                    barrier.wait();
                    let start = Instant::now();
                    w.start = start;
                    let measured = &ops[WARMUP_OPS..];
                    let mut seq = WARMUP_OPS as u64;
                    while !stop.load(Ordering::Acquire) {
                        let op = &measured[(seq as usize - WARMUP_OPS) % measured.len()];
                        if traced {
                            let name = span_name(op.kind());
                            trace::root(name, w.id_base | seq, || w.run(op, seq, true));
                        } else {
                            w.run(op, seq, true);
                        }
                        seq += 1;
                    }
                    let end = Instant::now();
                    w.phase.spans = trace::drain();
                    (w.phase, start, end)
                })
            })
            .collect();
        let results: Vec<(Phase, Instant, Instant)> = handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect();
        (results, sampler.join().expect("steal sampler panicked"))
    });
    let start = results.iter().map(|r| r.1).min().expect("clients ran");
    let end = results.iter().map(|r| r.2).max().expect("clients ran");
    let mut phase = Phase::default();
    for (p, _, _) in results {
        phase.merge(p);
    }
    phase.wall_s = (end - start).as_secs_f64();
    phase.steal = steal;
    phase
}

/// Total steal time of all CPUs, in clock ticks, from `/proc/stat`
/// (0 where the host does not report it).
fn host_steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|cpu| cpu.split_whitespace().nth(8))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

fn span_name(kind: Kind) -> &'static str {
    match kind {
        Kind::Put => "client.put",
        Kind::Get => "client.get",
        Kind::Scan => "client.scan",
        Kind::Txn => "client.txn",
    }
}

struct Worker<'a> {
    client: &'a Client,
    inputs: &'a Inputs,
    id_base: u64,
    phase: Phase,
    /// When the measured phase began on this thread.
    start: Instant,
}

impl Worker<'_> {
    fn run(&mut self, op: &Op, seq: u64, timed: bool) {
        self.phase.attempted += 1;
        match self.exec(op, seq) {
            Ok(ns) if timed => {
                let k = kind_index(op.kind());
                self.phase.lat[k].push(ns);
                self.phase.ends[k].push(self.start.elapsed().as_nanos() as u64);
            }
            Ok(_) => {}
            Err(e) => {
                self.phase.failed += 1;
                if self.phase.errors.len() < 8 {
                    self.phase.errors.push(e);
                }
            }
        }
    }

    /// Issue one op, check its result, and return its latency in ns.
    fn exec(&mut self, op: &Op, seq: u64) -> Result<u64, String> {
        let inputs = self.inputs;
        let key_of = |item: u32| inputs.keys[item as usize];
        match *op {
            Op::Put(item) => {
                let key = key_of(item);
                let write_id = PUT_TAG | self.id_base | seq;
                let value = make_value(key, write_id, 0);
                self.phase.user_bytes_written += USER_BYTES;
                let t0 = Instant::now();
                let ts = self.client.put(0, encode_key(key), value);
                let ns = t0.elapsed().as_nanos() as u64;
                let ts = ts.map_err(|e| format!("put {key}: {e}"))?;
                self.phase.acks.push(Ack {
                    item,
                    ts: ts.0,
                    write_id,
                    balance: 0,
                });
                Ok(ns)
            }
            Op::Get(item) => {
                let key = key_of(item);
                let t0 = Instant::now();
                let got = self.client.get(0, &encode_key(key));
                let ns = t0.elapsed().as_nanos() as u64;
                match got.map_err(|e| format!("get {key}: {e}"))? {
                    Some(v) => check_value(key, &v)?,
                    None => return Err(format!("get {key}: loaded key read as None")),
                };
                self.phase.values_returned += 1;
                Ok(ns)
            }
            Op::Scan { item, limit } => {
                let key = key_of(item);
                let t0 = Instant::now();
                let got = self
                    .client
                    .scan_member(0, &encode_key(key), None, u64::from(limit));
                let ns = t0.elapsed().as_nanos() as u64;
                let items = got.map_err(|e| format!("scan {key}: {e}"))?;
                check_scan(inputs, key, usize::from(limit), &items)?;
                self.phase.values_returned += items.len() as u64;
                Ok(ns)
            }
            Op::Txn { items, amount } => {
                let t0 = Instant::now();
                let acks = self.transfer(items, amount, seq)?;
                let ns = t0.elapsed().as_nanos() as u64;
                self.phase.values_returned += 3;
                self.phase.user_bytes_written += 3 * USER_BYTES;
                self.phase.acks.extend(acks);
                Ok(ns)
            }
        }
    }

    /// Move `2 * amount` from the first account to the other two, in
    /// one transaction, retried on conflict until it commits.
    fn transfer(&mut self, items: [u32; 3], amount: i64, seq: u64) -> Result<Vec<Ack>, String> {
        let keys = items.map(|i| self.inputs.keys[i as usize]);
        let write_base = TXN_TAG | self.id_base | (seq << 2);
        for _ in 0..TXN_MAX_ATTEMPTS {
            self.phase.txn_attempts += 1;
            let attempt = self
                .client
                .endpoint_for(&encode_key(keys[0]))
                .and_then(|ep| transfer_once(&ep, self.inputs, items, deltas(amount), write_base));
            match attempt {
                Ok(acks) => return Ok(acks),
                Err(Error::TxnConflict { .. }) => continue,
                Err(e) => return Err(format!("txn on {keys:?}: {e}")),
            }
        }
        Err(format!(
            "txn on {keys:?}: no commit after {TXN_MAX_ATTEMPTS} attempts"
        ))
    }
}

/// One attempt at a transfer through `ep`: read the three accounts,
/// check their values, and write the moved balances. A conflict comes
/// back as `Error::TxnConflict`; a wrong value as `Error::Corruption`.
pub fn transfer_once(
    ep: &dyn TxnEndpoint,
    inputs: &Inputs,
    items: [u32; 3],
    deltas: [i64; 3],
    write_base: u64,
) -> logbase_common::Result<Vec<Ack>> {
    let keys = items.map(|i| inputs.keys[i as usize]);
    let mut session = ep.begin()?;
    let mut writes = Vec::with_capacity(3);
    for slot in 0..3 {
        let key = keys[slot];
        let value = session
            .read(TABLE, 0, &encode_key(key))?
            .ok_or_else(|| Error::Corruption(format!("txn read {key}: loaded key read as None")))?;
        let stamp = check_value(key, &value).map_err(Error::Corruption)?;
        writes.push((slot, write_base | slot as u64, stamp.balance + deltas[slot]));
    }
    for &(slot, write_id, balance) in &writes {
        let key = keys[slot];
        session.write(
            TABLE,
            0,
            encode_key(key),
            Some(make_value(key, write_id, balance)),
        );
    }
    let ts = session.commit()?;
    Ok(writes
        .into_iter()
        .map(|(slot, write_id, balance)| Ack {
            item: items[slot],
            ts: ts.0,
            write_id,
            balance,
        })
        .collect())
}

/// The balance moves of a transfer of `amount`: they sum to zero.
pub fn deltas(amount: i64) -> [i64; 3] {
    [-2 * amount, amount, amount]
}

pub fn kind_index(kind: Kind) -> usize {
    Kind::ALL
        .iter()
        .position(|&k| k == kind)
        .expect("known kind")
}

/// A scan returns, in strictly increasing order, exactly the loaded keys
/// from `start` on that the start key's member owns, up to `limit`, and
/// every value checks out.
pub fn check_scan(
    inputs: &Inputs,
    start: u64,
    limit: usize,
    items: &[(logbase_common::RowKey, Timestamp, logbase_common::Value)],
) -> Result<(), String> {
    if items.len() > limit {
        return Err(format!(
            "scan {start}: {} items over limit {limit}",
            items.len()
        ));
    }
    let member = inputs.member[inputs
        .item_of(start)
        .ok_or("scan start is not a loaded key")? as usize];
    let want: Vec<u64> = inputs.sorted[inputs.lower_bound(start)..]
        .iter()
        .take_while(|&&(_, item)| inputs.member[item as usize] == member)
        .take(limit)
        .map(|&(k, _)| k)
        .collect();
    let mut prev: Option<u64> = None;
    for (raw, _, value) in items {
        let key = decode_key(raw).ok_or_else(|| format!("scan {start}: malformed key"))?;
        if prev.is_some_and(|p| key <= p) {
            return Err(format!(
                "scan {start}: keys not strictly increasing at {key}"
            ));
        }
        prev = Some(key);
        check_value(key, value)?;
    }
    let got: Vec<u64> = items.iter().filter_map(|(k, _, _)| decode_key(k)).collect();
    if got != want {
        return Err(format!(
            "scan {start} limit {limit}: got {} keys, want {} (first mismatch at {:?})",
            got.len(),
            want.len(),
            got.iter().zip(&want).position(|(a, b)| a != b)
        ));
    }
    Ok(())
}

/// What [`recover`] measured.
pub struct Recovery {
    /// Wall time of each round, summed over the members.
    pub round_s: Vec<f64>,
    /// Host steal ticks during each round.
    pub steal: Vec<u64>,
    /// DFS sequential bytes the first round read.
    pub first_round_bytes: u64,
}

/// Crash and recover every member in turn, `rounds` times.
pub fn recover(cluster: &mut Cluster, rounds: usize) -> Result<Recovery, String> {
    let mut out = Recovery {
        round_s: Vec::with_capacity(rounds),
        steal: Vec::with_capacity(rounds),
        first_round_bytes: 0,
    };
    for round in 0..rounds {
        let before = cluster.metrics().snapshot();
        let steal_before = host_steal_ticks();
        let mut sum = 0.0;
        for m in 0..MEMBERS {
            sum += cluster
                .crash_and_recover_logbase(m)
                .map_err(|e| format!("recover member {m}: {e}"))?
                .as_secs_f64();
        }
        out.steal
            .push(host_steal_ticks().saturating_sub(steal_before));
        if round == 0 {
            out.first_round_bytes = cluster
                .metrics()
                .snapshot()
                .delta_since(&before)
                .seq_bytes_read;
        }
        out.round_s.push(sum);
    }
    Ok(out)
}

/// Outcome of [`verify`].
#[derive(Default)]
pub struct Verified {
    pub keys_checked: u64,
    pub failures: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
}

impl Verified {
    fn fail(&mut self, e: String) {
        self.failures += 1;
        if self.errors.len() < 8 {
            self.errors.push(e);
        }
    }
}

/// Read every member's whole tablet straight from its server and check
/// that each loaded key holds exactly its highest-timestamp
/// acknowledged write, and that the account balances still sum to
/// their initial total.
pub fn verify(cluster: &Cluster, inputs: &Inputs, expected: &Expected) -> Verified {
    const CHUNK: usize = 4096;
    let mut out = Verified::default();
    let mut balance_sum = 0i64;
    for m in 0..MEMBERS {
        let Some(server) = cluster.logbase_server(m) else {
            out.fail(format!("member {m} is down after recovery"));
            continue;
        };
        let mut range = KeyRange::all();
        loop {
            let items = match server.range_scan(TABLE, 0, &range, CHUNK) {
                Ok(items) => items,
                Err(e) => {
                    out.fail(format!("member {m}: verification scan: {e}"));
                    break;
                }
            };
            for (raw, ts, value) in &items {
                out.keys_checked += 1;
                match verify_item(inputs, expected, raw, *ts, value) {
                    Ok((item, balance)) if is_account(item) => balance_sum += balance,
                    Ok(_) => {}
                    Err(e) => out.fail(e),
                }
            }
            match items.last() {
                Some((raw, _, _)) if items.len() == CHUNK => {
                    let next = decode_key(raw).map_or(u64::MAX, |k| k.saturating_add(1));
                    range = KeyRange {
                        start: encode_key(next),
                        end: None,
                    };
                }
                _ => break,
            }
        }
    }
    if out.keys_checked != u64::from(inputs.spec.items) {
        out.fail(format!(
            "recovered {} keys, loaded {}",
            out.keys_checked, inputs.spec.items
        ));
    }
    let want = INITIAL_BALANCE * i64::from(inputs.spec.items.div_ceil(2));
    if balance_sum != want {
        out.fail(format!("balances sum to {balance_sum}, want {want}"));
    }
    out
}

/// Check one recovered record; returns its item and balance.
fn verify_item(
    inputs: &Inputs,
    expected: &Expected,
    raw: &[u8],
    ts: Timestamp,
    value: &[u8],
) -> Result<(u32, i64), String> {
    let key = decode_key(raw).ok_or("recovered a malformed key")?;
    let item = inputs
        .item_of(key)
        .ok_or_else(|| format!("recovered unknown key {key}"))?;
    let want = expected.latest[item as usize];
    let stamp = check_value(key, value)?;
    if ts.0 != want.ts || stamp.write_id != want.write_id || stamp.balance != want.balance {
        return Err(format!(
            "key {key}: recovered ts {} write {:#x}, last acked ts {} write {:#x}",
            ts.0, stamp.write_id, want.ts, want.write_id
        ));
    }
    Ok((item, stamp.balance))
}

/// Bytes of every file under `dir` (the DFS on disk, all replicas).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(md) if md.is_dir() => dir_bytes(&e.path()),
            Ok(md) => md.len(),
            Err(_) => 0,
        })
        .sum()
}

/// Peak resident set of this process, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
