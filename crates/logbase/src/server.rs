//! The tablet server (§3.3, §3.6, §3.8).
//!
//! One [`TabletServer`] owns a single log instance in the DFS, a set of
//! tablets (each with one multiversion index per column group), an
//! optional read buffer, a transaction manager and the checkpoint /
//! recovery machinery. Everything a server knows can be rebuilt from its
//! log — the log *is* the database.

use crate::checkpoint::{
    self, checkpoint_dir, index_file_name, CheckpointMeta, TableMeta, TabletMeta,
};
use crate::read_buffer::ReadBuffer;
use crate::segdir::SegmentDirectory;
use crate::spill::{SpillConfig, SpillableIndex};
use crate::tablet::{TableState, TabletState};
use logbase_common::engine::{ScanItem, StorageEngine};
use logbase_common::metrics::{Metrics, MetricsHandle};
use logbase_common::schema::{KeyRange, TableSchema, TabletDesc, TabletId};
use logbase_common::{Error, LogPtr, Lsn, Record, Result, RowKey, Timestamp, Value};
use logbase_coordination::{FencingToken, LockService, TimestampOracle};
use logbase_dfs::Dfs;
use logbase_index::{IndexEntry, VersionedPtr};
use logbase_wal::{
    Compression, GroupCommitConfig, GroupCommitLog, LogConfig, LogEntry, LogEntryKind, LogWriter,
};
use parking_lot::{Mutex, RwLock};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Tablet-server configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Server name; prefixes every DFS path the server writes.
    pub name: String,
    /// Log segment rotation threshold.
    pub segment_bytes: u64,
    /// Read-buffer budget in bytes; 0 disables the buffer (§3.6.1: the
    /// read buffer "is only an optional component").
    pub read_buffer_bytes: u64,
    /// Updates per column-group index that trigger an automatic
    /// checkpoint; 0 = checkpoint only on demand (§3.6.1).
    pub checkpoint_threshold: u64,
    /// Group-commit batching knobs (§3.7.2).
    pub group_commit: GroupCommitConfig,
    /// Per-batch log compression codec. Compressed and raw frames
    /// coexist in one log, so the setting can change across restarts
    /// without any migration of existing segments.
    pub wal_compression: Compression,
    /// When set, indexes spill to an LSM disk tier once over budget.
    pub spill: Option<SpillConfig>,
    /// Range scans coalesce pointer reads whose gap is below this many
    /// bytes into one DFS read (pays off after compaction clusters data).
    pub scan_coalesce_gap: u64,
    /// Worker threads for range/full scans: index probes fan out over
    /// tablets and record fetches fan out over coalesced segment runs,
    /// merging in key order. `0` = available parallelism; `1` = fully
    /// sequential scans. Results are byte-identical at any setting.
    pub scan_threads: usize,
    /// Read-buffer shard count (`0` = available parallelism). Each shard
    /// has its own lock + LRU instance, so concurrent point reads on
    /// different keys do not serialize on one global cache mutex.
    pub read_buffer_shards: usize,
    /// Complete checkpoints kept on DFS; older ones are pruned after
    /// each checkpoint and at startup. Recovery only ever reads the
    /// latest — the rest are bounded history. Minimum 1.
    pub retain_checkpoints: usize,
    /// When set, a cost-aware background compaction service starts with
    /// the server (see [`crate::scheduler`]); its rate limit is
    /// installed as the maintenance I/O budget.
    pub compaction_scheduler: Option<crate::scheduler::CompactionSchedulerConfig>,
}

impl ServerConfig {
    /// Paper-default configuration for a server named `name`.
    pub fn new(name: impl Into<String>) -> Self {
        ServerConfig {
            name: name.into(),
            segment_bytes: logbase_common::config::DEFAULT_SEGMENT_BYTES,
            read_buffer_bytes: 16 * 1024 * 1024,
            checkpoint_threshold: 0,
            group_commit: GroupCommitConfig::default(),
            wal_compression: Compression::None,
            spill: None,
            scan_coalesce_gap: 64 * 1024,
            scan_threads: 0,
            read_buffer_shards: 0,
            retain_checkpoints: 2,
            compaction_scheduler: None,
        }
    }

    /// Builder-style segment-size override.
    #[must_use]
    pub fn with_segment_bytes(mut self, bytes: u64) -> Self {
        self.segment_bytes = bytes;
        self
    }

    /// Builder-style group-commit override.
    #[must_use]
    pub fn with_group_commit(mut self, group_commit: GroupCommitConfig) -> Self {
        self.group_commit = group_commit;
        self
    }

    /// Builder-style log-compression override.
    #[must_use]
    pub fn with_wal_compression(mut self, compression: Compression) -> Self {
        self.wal_compression = compression;
        self
    }

    /// Builder-style read-buffer override (0 disables).
    #[must_use]
    pub fn with_read_buffer(mut self, bytes: u64) -> Self {
        self.read_buffer_bytes = bytes;
        self
    }

    /// Builder-style checkpoint-threshold override.
    #[must_use]
    pub fn with_checkpoint_threshold(mut self, updates: u64) -> Self {
        self.checkpoint_threshold = updates;
        self
    }

    /// Builder-style spill-mode override.
    #[must_use]
    pub fn with_spill(mut self, spill: SpillConfig) -> Self {
        self.spill = Some(spill);
        self
    }

    /// Builder-style checkpoint-retention override (clamped to ≥ 1).
    #[must_use]
    pub fn with_retain_checkpoints(mut self, keep: usize) -> Self {
        self.retain_checkpoints = keep.max(1);
        self
    }

    /// Builder-style scan-thread override (0 = available parallelism,
    /// 1 = sequential).
    #[must_use]
    pub fn with_scan_threads(mut self, threads: usize) -> Self {
        self.scan_threads = threads;
        self
    }

    /// Builder-style read-buffer shard-count override (0 = default).
    #[must_use]
    pub fn with_read_buffer_shards(mut self, shards: usize) -> Self {
        self.read_buffer_shards = shards;
        self
    }

    /// Builder-style background-compaction service override.
    #[must_use]
    pub fn with_compaction_scheduler(
        mut self,
        scheduler: crate::scheduler::CompactionSchedulerConfig,
    ) -> Self {
        self.compaction_scheduler = Some(scheduler);
        self
    }
}

/// One data write handed to [`TabletServer::apply`]: `(table, column
/// group, key)`, the new value (`None` writes a tombstone), and the
/// version to keep (tablet ingest; `None` takes the timestamp `apply`
/// reserves for the batch).
#[derive(Debug, Clone)]
pub struct Write {
    table: String,
    cg: u16,
    key: RowKey,
    value: Option<Value>,
    ts: Option<Timestamp>,
}

impl Write {
    /// A write of `value` (`None` = delete) at a freshly reserved version.
    pub fn new(table: impl Into<String>, cg: u16, key: RowKey, value: Option<Value>) -> Self {
        Write {
            table: table.into(),
            cg,
            key,
            value,
            ts: None,
        }
    }

    /// Keep `ts` as the version instead of reserving one: the ingest
    /// path of a tablet handoff, where the recipient re-appends records
    /// to *its own* log (the paper's log-splitting, §3.8) under their
    /// original commit timestamps so multiversion reads stay correct.
    #[must_use]
    pub fn at(mut self, ts: Timestamp) -> Self {
        self.ts = Some(ts);
        self
    }
}

/// A failed [`TabletServer::apply`]. `logged_at` is the batch's
/// timestamp once its entries were submitted to the log (they may be
/// durable, and recovery decides); `None` when nothing was logged.
#[derive(Debug)]
pub struct ApplyError {
    pub error: Error,
    pub logged_at: Option<Timestamp>,
}

impl From<ApplyError> for Error {
    fn from(e: ApplyError) -> Self {
        e.error
    }
}

/// Released tablet contents: `(column group, latest records)` pairs.
pub type TabletContents = Vec<(u16, Vec<ScanItem>)>;

/// Operational statistics of one server.
#[derive(Debug, Clone, Default)]
pub struct ServerStats {
    /// Total index entries across tablets and column groups (memory tier).
    pub index_entries: u64,
    /// Approximate index bytes (memory tier).
    pub index_bytes: u64,
    /// Read-buffer `(hits, misses)`.
    pub read_buffer: (u64, u64),
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Compactions run.
    pub compactions: u64,
    /// Current log segment.
    pub log_segment: u32,
}

/// The LogBase tablet server.
pub struct TabletServer {
    pub(crate) dfs: Dfs,
    pub(crate) config: ServerConfig,
    pub(crate) log: GroupCommitLog,
    pub(crate) segdir: SegmentDirectory,
    pub(crate) tables: RwLock<HashMap<String, Arc<TableState>>>,
    pub(crate) read_buffer: Option<ReadBuffer>,
    pub(crate) oracle: TimestampOracle,
    /// Highest commit timestamp whose `apply` finished here: a
    /// transaction begun here takes a snapshot at least this fresh.
    pub(crate) last_applied: AtomicU64,
    pub(crate) locks: LockService,
    /// Transaction history recorder (isolation checking); `None` unless
    /// installed via [`TabletServer::set_history_recorder`]. The atomic
    /// flag keeps the disabled-state cost to one relaxed load.
    history: RwLock<Option<Arc<crate::history::HistoryRecorder>>>,
    history_enabled: AtomicBool,
    /// First-committer-wins validation switch; always on in production.
    /// Tests flip it off to seed lost-update anomalies the SI checker
    /// must catch.
    validate_writes: AtomicBool,
    ckpt_seq: AtomicU64,
    checkpoints_taken: AtomicU64,
    pub(crate) compactions_run: AtomicU64,
    /// Serializes checkpoint/compaction against each other.
    pub(crate) maintenance: Mutex<()>,
    /// Write barrier: every data write holds it shared across its
    /// [log append → index update] window; the checkpoint holds it
    /// exclusively while capturing the redo start position, so no log
    /// record below that position can be missing from the indexes being
    /// persisted (otherwise an acknowledged write could be lost — redo
    /// would start past it while the index checkpoint predates it).
    pub(crate) write_barrier: RwLock<()>,
    /// Fencing token of the server's registry session, when the cluster
    /// layer runs lease-based membership. Guards the log (via the
    /// writer's gate) and checkpoint/compaction DFS writes.
    fencing: RwLock<Option<FencingToken>>,
    secondary: crate::secondary::SecondaryRegistry,
    /// What startup GC did when this server was opened (all-zero for a
    /// freshly created server).
    gc_report: Mutex<crate::gc::GcReport>,
    /// Token bucket draining compaction/log-GC bulk I/O; `None` runs
    /// maintenance unthrottled.
    maintenance_limiter: RwLock<Option<Arc<logbase_common::RateLimiter>>>,
    /// Handle of the auto-started background compaction service.
    scheduler: Mutex<Option<crate::scheduler::SchedulerHandle>>,
}

impl TabletServer {
    /// Create a brand-new server (fresh log).
    pub fn create(dfs: Dfs, config: ServerConfig) -> Result<Arc<Self>> {
        Self::create_with(dfs, config, TimestampOracle::new(), LockService::new())
    }

    /// Create a new server sharing a cluster-wide oracle and lock service.
    pub fn create_with(
        dfs: Dfs,
        config: ServerConfig,
        oracle: TimestampOracle,
        locks: LockService,
    ) -> Result<Arc<Self>> {
        let log_prefix = format!("{}/log", config.name);
        let writer = Arc::new(LogWriter::create(
            dfs.clone(),
            LogConfig::new(&log_prefix)
                .with_segment_bytes(config.segment_bytes)
                .with_compression(config.wal_compression),
        )?);
        let server = Arc::new(Self::assemble(dfs, config, writer, oracle, locks));
        Self::start_services(&server);
        Ok(server)
    }

    fn assemble(
        dfs: Dfs,
        config: ServerConfig,
        writer: Arc<LogWriter>,
        oracle: TimestampOracle,
        locks: LockService,
    ) -> Self {
        let log_prefix = format!("{}/log", config.name);
        let read_buffer = (config.read_buffer_bytes > 0).then(|| {
            if config.read_buffer_shards == 0 {
                ReadBuffer::lru(config.read_buffer_bytes)
            } else {
                ReadBuffer::lru_sharded(config.read_buffer_bytes, config.read_buffer_shards)
            }
        });
        TabletServer {
            segdir: SegmentDirectory::new(log_prefix),
            log: GroupCommitLog::new(writer, config.group_commit.clone()),
            tables: RwLock::new(HashMap::new()),
            read_buffer,
            oracle,
            locks,
            history: RwLock::new(None),
            history_enabled: AtomicBool::new(false),
            validate_writes: AtomicBool::new(true),
            ckpt_seq: AtomicU64::new(0),
            checkpoints_taken: AtomicU64::new(0),
            last_applied: AtomicU64::new(0),
            compactions_run: AtomicU64::new(0),
            maintenance: Mutex::new(()),
            write_barrier: RwLock::new(()),
            fencing: RwLock::new(None),
            secondary: crate::secondary::SecondaryRegistry::default(),
            gc_report: Mutex::new(crate::gc::GcReport::default()),
            maintenance_limiter: RwLock::new(None),
            scheduler: Mutex::new(None),
            dfs,
            config,
        }
    }

    /// Install the configured maintenance rate limit and start the
    /// background compaction service, when the config asks for one.
    fn start_services(server: &Arc<Self>) {
        let Some(sched) = server.config.compaction_scheduler.clone() else {
            return;
        };
        server.set_maintenance_rate(sched.rate_limit_bytes_per_sec);
        let handle = crate::scheduler::start(server, sched);
        *server.scheduler.lock() = Some(handle);
    }

    /// Cap compaction/log-GC bulk I/O at `bytes_per_sec` (token bucket
    /// with a one-second burst); `None` removes the cap. Foreground
    /// reads and writes are never throttled.
    pub fn set_maintenance_rate(&self, bytes_per_sec: Option<u64>) {
        *self.maintenance_limiter.write() =
            bytes_per_sec.map(|bps| Arc::new(logbase_common::RateLimiter::per_sec(bps)));
    }

    /// DFS handle maintenance bulk I/O should go through: rate-limited
    /// when a maintenance budget is installed, the plain handle
    /// otherwise.
    pub(crate) fn maintenance_dfs(&self) -> Dfs {
        match &*self.maintenance_limiter.read() {
            Some(l) => self.dfs.rate_limited(Arc::clone(l)),
            None => self.dfs.clone(),
        }
    }

    /// Stop the background compaction service, if one is running
    /// (idempotent; also happens implicitly when the server drops).
    pub fn stop_scheduler(&self) {
        if let Some(handle) = self.scheduler.lock().take() {
            handle.stop();
        }
    }

    /// Sequence number of the currently open (append-target) log
    /// segment; everything below it is sealed.
    pub(crate) fn open_log_segment(&self) -> u32 {
        self.log.writer().current_segment()
    }

    /// Snapshot of the sorted-segment directory (scheduler input).
    pub(crate) fn sorted_snapshot(&self) -> Vec<(u32, String)> {
        self.segdir.snapshot()
    }

    /// Cumulative reads recorded against `segment` (scheduler input).
    pub(crate) fn segment_heat(&self, segment: u32) -> u64 {
        self.segdir.heat(segment)
    }

    /// The report from the startup GC pass [`TabletServer::open`] ran
    /// (orphans deleted, partial checkpoints removed, interrupted
    /// maintenance rolled forward or back).
    pub fn startup_gc_report(&self) -> crate::gc::GcReport {
        self.gc_report.lock().clone()
    }

    /// Audit this server's DFS files and return the unreachable ones
    /// (see [`crate::gc::fsck`]). Empty after a clean recovery.
    pub fn fsck(&self) -> Vec<String> {
        crate::gc::fsck(&self.dfs, &self.config.name, &self.segdir)
    }

    /// The server's metrics sink (shared with its DFS).
    pub fn metrics(&self) -> &MetricsHandle {
        self.dfs.metrics()
    }

    /// Install (or replace, after re-registration) the server's fencing
    /// token. Every log append from now on is admitted only while the
    /// token validates; a session expiry turns the server into a fenced
    /// zombie whose writes fail with `Error::Fenced`.
    pub fn set_fencing(&self, token: FencingToken) {
        *self.fencing.write() = Some(token.clone());
        let metrics = Arc::clone(self.metrics());
        self.log.writer().set_gate(Arc::new(move || {
            token.check().inspect_err(|_| {
                Metrics::incr(&metrics.fenced_writes_rejected);
            })
        }));
    }

    /// Check the fencing token (no-op when fencing is not configured).
    /// Maintenance paths (checkpoint, compaction) call this before
    /// touching DFS files outside the log append path.
    pub fn check_fenced(&self) -> Result<()> {
        if let Some(token) = self.fencing.read().clone() {
            token.check().inspect_err(|_| {
                Metrics::incr(&self.metrics().fenced_writes_rejected);
            })?;
        }
        Ok(())
    }

    /// The configuration the server runs with.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// The server's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// The cluster timestamp oracle in use.
    pub fn oracle(&self) -> &TimestampOracle {
        &self.oracle
    }

    /// Install a transaction history recorder (isolation checking). The
    /// same recorder may be shared by every server of a cluster. Pass
    /// `None` to disable recording again.
    pub fn set_history_recorder(&self, rec: Option<Arc<crate::history::HistoryRecorder>>) {
        if let Some(rec) = &rec {
            // Versions at or below the current oracle position predate
            // the recorded history (setup writes, earlier epochs).
            rec.note_baseline(self.oracle.current());
        }
        self.history_enabled.store(rec.is_some(), Ordering::Release);
        *self.history.write() = rec;
    }

    /// The installed history recorder, if recording is on. Hot paths
    /// call this once per hook site; the disabled state costs a single
    /// relaxed atomic load.
    pub fn history_recorder(&self) -> Option<Arc<crate::history::HistoryRecorder>> {
        if !self.history_enabled.load(Ordering::Relaxed) {
            return None;
        }
        self.history.read().clone()
    }

    /// Whether first-committer-wins validation is on (always, outside
    /// checker self-tests).
    pub(crate) fn validation_enabled(&self) -> bool {
        self.validate_writes.load(Ordering::Relaxed)
    }

    /// Disable (or re-enable) commit validation. Exists solely so the SI
    /// checker's self-test can seed a lost-update anomaly and prove it
    /// detects one; never call this outside tests.
    #[doc(hidden)]
    pub fn set_validation_enabled_for_tests(&self, on: bool) {
        self.validate_writes.store(on, Ordering::Relaxed);
    }

    /// The underlying DFS handle.
    pub fn dfs(&self) -> &Dfs {
        &self.dfs
    }

    /// Sequence number the *next* checkpoint will take. Restored from
    /// the latest checkpoint at recovery, so names derived from it never
    /// collide across server lifetimes (compaction uses it to name
    /// sorted-segment generations).
    pub(crate) fn next_checkpoint_seq(&self) -> u64 {
        self.ckpt_seq.load(Ordering::Relaxed) + 1
    }

    /// The secondary-index registry (§5 future-work extension).
    pub(crate) fn secondary(&self) -> &crate::secondary::SecondaryRegistry {
        &self.secondary
    }

    /// Resolve a pointer's segment id to its DFS file name (secondary
    /// index lookups fetch records the same way the primary path does).
    pub(crate) fn resolve_segment(&self, segment: u32) -> String {
        self.segdir.resolve(segment)
    }

    /// Direct access to the group-commit log — test-only hook used to
    /// forge partial transaction states (e.g. a write without its commit
    /// record) that the public API can never produce.
    #[doc(hidden)]
    pub fn log_for_tests(&self) -> &GroupCommitLog {
        &self.log
    }

    // ------------------------------------------------------------------
    // Schema & tablet management
    // ------------------------------------------------------------------

    /// Create a table and serve its whole key range as one tablet.
    /// The schema is logged (a DDL record), so it survives a crash even
    /// before the first checkpoint.
    pub fn create_table(&self, schema: TableSchema) -> Result<()> {
        self.log_schema(&schema)?;
        self.create_table_unlogged(schema)
    }

    pub(crate) fn create_table_unlogged(&self, schema: TableSchema) -> Result<()> {
        let name = schema.name.clone();
        let table = Arc::new(TableState::new(schema)?);
        let desc = TabletDesc {
            id: TabletId {
                table: name.clone(),
                range_index: 0,
            },
            range: KeyRange::all(),
        };
        table.add_tablet(Arc::new(self.new_tablet_state(desc, &table.schema)?));
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::Schema(format!("table {name} already exists")));
        }
        tables.insert(name, table);
        Ok(())
    }

    fn log_schema(&self, schema: &TableSchema) -> Result<()> {
        let schema_json = serde_json::to_string(schema)
            .map_err(|e| Error::Schema(format!("schema serialization failed: {e}")))?;
        self.log
            .append(&schema.name, LogEntryKind::Schema { schema_json })?;
        Ok(())
    }

    /// Register a table without tablets (the cluster layer assigns them).
    pub fn register_table(&self, schema: TableSchema) -> Result<()> {
        self.log_schema(&schema)?;
        let name = schema.name.clone();
        let table = Arc::new(TableState::new(schema)?);
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::Schema(format!("table {name} already exists")));
        }
        tables.insert(name, table);
        Ok(())
    }

    /// Assign a tablet to this server.
    pub fn assign_tablet(&self, desc: TabletDesc) -> Result<()> {
        let table = self.table(&desc.id.table)?;
        if table.tablet(desc.id.range_index).is_some() {
            return Err(Error::Schema(format!(
                "tablet {} already assigned",
                desc.id
            )));
        }
        table.add_tablet(Arc::new(self.new_tablet_state(desc, &table.schema)?));
        Ok(())
    }

    fn new_tablet_state(&self, desc: TabletDesc, schema: &TableSchema) -> Result<TabletState> {
        TabletState::new(
            desc,
            schema,
            self.config
                .spill
                .as_ref()
                .map(|cfg| (&self.dfs, cfg, self.config.name.as_str())),
        )
    }

    pub(crate) fn table(&self, name: &str) -> Result<Arc<TableState>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::Schema(format!("unknown table {name}")))
    }

    /// Descriptors of the tablets this server serves for `table`.
    pub fn tablet_descs(&self, table: &str) -> Vec<TabletDesc> {
        self.table(table)
            .map(|t| {
                t.tablets_snapshot()
                    .iter()
                    .map(|tab| tab.desc.clone())
                    .collect()
            })
            .unwrap_or_default()
    }

    /// Names of hosted tables.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    // ------------------------------------------------------------------
    // Data operations (§3.6)
    // ------------------------------------------------------------------

    /// Insert or update one record (§3.6.1); see [`TabletServer::apply`].
    pub fn put(&self, table: &str, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        Ok(self.apply(0, vec![Write::new(table, cg, key, Some(value))])?)
    }

    /// Delete a record (§3.6.3): persist an invalidated log entry so the
    /// delete survives recovery, then drop the key's index entries.
    pub fn delete(&self, table: &str, cg: u16, key: &[u8]) -> Result<()> {
        self.apply(
            0,
            vec![Write::new(table, cg, RowKey::copy_from_slice(key), None)],
        )?;
        Ok(())
    }

    /// The one data write path: puts, deletes, transaction commits and
    /// tablet ingest all land here. In order, it
    ///
    /// 1. routes every write to its tablet index (an error here leaves
    ///    no trace);
    /// 2. reserves one timestamp for the writes that do not carry their
    ///    own — transaction snapshots exclude it until step 4 lands, so
    ///    no snapshot reads a version that is durable in the log but not
    ///    yet visible in the index;
    /// 3. submits the log entries as one group-commit unit, followed by
    ///    a commit record when `txn_id` is nonzero (§3.7.2);
    /// 4. updates the index (insert, or drop the key for a tombstone),
    ///    the secondary indexes and the read buffer;
    /// 5. counts the writes and takes an automatic checkpoint when an
    ///    index crossed `checkpoint_threshold`.
    ///
    /// The read half of `write_barrier` is held from step 3 through step
    /// 4. Returns the largest version written.
    pub fn apply(
        &self,
        txn_id: u64,
        writes: Vec<Write>,
    ) -> std::result::Result<Timestamp, ApplyError> {
        let unlogged = |error| ApplyError {
            error,
            logged_at: None,
        };
        let mut routed = Vec::with_capacity(writes.len());
        for w in &writes {
            let table = self.table(&w.table).map_err(unlogged)?;
            let tablet = table.route(&w.key).map_err(unlogged)?;
            let index = Arc::clone(tablet.index(w.cg).map_err(unlogged)?);
            routed.push((table, tablet.desc.id.range_index, index));
        }
        let reservation = writes
            .iter()
            .any(|w| w.ts.is_none())
            .then(|| self.oracle.reserve());
        let reserved = reservation.as_ref().map(|r| r.timestamp());
        let mut entries = Vec::with_capacity(writes.len() + 1);
        let mut records = Vec::with_capacity(writes.len());
        for (w, (_, tablet, _)) in writes.into_iter().zip(&routed) {
            let ts = w.ts.or(reserved).expect("reserved when unset");
            let record = match w.value {
                Some(v) => Record::put(w.key, w.cg, ts, v),
                None => Record::tombstone(w.key, w.cg, ts),
            };
            let kind = LogEntryKind::Write {
                txn_id,
                tablet: *tablet,
                record: record.clone(),
            };
            entries.push((w.table, kind));
            records.push(record);
        }
        let batch_ts = records
            .iter()
            .map(|r| r.meta.timestamp)
            .max()
            .unwrap_or_default();
        if txn_id != 0 && !entries.is_empty() {
            let commit_ts = batch_ts;
            entries.push((
                entries[0].0.clone(),
                LogEntryKind::Commit { txn_id, commit_ts },
            ));
        }
        let logged = |error| ApplyError {
            error,
            logged_at: Some(batch_ts),
        };
        let barrier = self.write_barrier.read();
        let positions = self.log.append_all(entries).map_err(logged)?;
        for ((table, _, index), (record, (_, ptr))) in
            routed.iter().zip(records.iter().zip(positions))
        {
            index_record(index, record, ptr).map_err(logged)?;
            let m = &record.meta;
            match &record.value {
                Some(v) => {
                    for sec in self.secondary.of(&table.name, m.column_group) {
                        sec.insert(&m.key, m.timestamp, v, ptr);
                    }
                    if let Some(rb) = &self.read_buffer {
                        rb.put(
                            &table.name,
                            m.column_group,
                            &m.key,
                            m.timestamp,
                            Some(v.clone()),
                        );
                    }
                }
                None => {
                    if let Some(rb) = &self.read_buffer {
                        rb.invalidate(&table.name, m.column_group, &m.key);
                    }
                }
            }
        }
        drop(barrier);
        // Kept versions (ingest) move the oracle past them; a reserved
        // timestamp is released only now that the index updates landed.
        if reservation.is_none() {
            self.oracle.advance_to(batch_ts);
        }
        drop(reservation);
        self.last_applied.fetch_max(batch_ts.0, Ordering::SeqCst);
        Metrics::add(&self.metrics().records_written, records.len() as u64);
        let threshold = self.config.checkpoint_threshold;
        if threshold > 0
            && routed
                .iter()
                .any(|(_, _, index)| index.mem().updates_since_checkpoint() >= threshold)
        {
            self.checkpoint().map_err(logged)?;
        }
        Ok(batch_ts)
    }

    /// Hand a tablet off: remove it from this server's serving set and
    /// return its descriptor plus the latest version of every record it
    /// holds (per column group), for the recipient to ingest.
    pub fn release_tablet(
        &self,
        table: &str,
        range_index: u32,
    ) -> Result<(TabletDesc, TabletContents)> {
        let table_state = self.table(table)?;
        let tablet = table_state.remove_tablet(range_index).ok_or_else(|| {
            Error::TabletNotServed(format!("{table}/{range_index} not served here"))
        })?;
        let mut contents = Vec::new();
        for (cg, index) in tablet.indexes.iter().enumerate() {
            let entries = index.range_latest_at(&tablet.desc.range, Timestamp::MAX, usize::MAX)?;
            let items = self.fetch_entries(entries, &|key| index.latest_at(key, Timestamp::MAX))?;
            contents.push((cg as u16, items));
        }
        Ok((tablet.desc.clone(), contents))
    }

    /// Shrink a served tablet to `new_range`, pruning moved keys from
    /// its in-memory indexes (the donor side of a tablet handoff).
    pub fn resize_tablet(&self, table: &str, range_index: u32, new_range: KeyRange) -> Result<()> {
        let table_state = self.table(table)?;
        let tablet = table_state.replace_tablet_range(range_index, new_range.clone())?;
        for index in &tablet.indexes {
            index.retain_range(&new_range);
        }
        Ok(())
    }

    /// Latest visible value of `key` (§3.6.2).
    pub fn get(&self, table: &str, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        self.get_at(table, cg, key, Timestamp::MAX)
    }

    /// Value of `key` visible at `at` (multiversion read).
    pub fn get_at(&self, table: &str, cg: u16, key: &[u8], at: Timestamp) -> Result<Option<Value>> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(key)?;
        let index = tablet.index(cg)?;
        let Some(vp) = index.latest_at(key, at)? else {
            return Ok(None);
        };
        Metrics::incr(&self.metrics().records_read);
        // Hot/cold accounting for the compaction scheduler: the visible
        // version's segment took read interest, cache hit or not.
        self.segdir.record_read(vp.ptr.segment);
        // Read-buffer hit only when it caches exactly the visible version.
        if let Some(rb) = &self.read_buffer {
            if let Some((ts, value)) = rb.get(&table_state.name, cg, key) {
                if ts == vp.ts {
                    Metrics::incr(&self.metrics().cache_hits);
                    return Ok(value);
                }
            }
            Metrics::incr(&self.metrics().cache_misses);
        }
        let (vp, entry) = self.read_version(vp, || index.latest_at(key, at))?;
        let value = written_value(&entry, vp.ptr)?;
        if let Some(rb) = &self.read_buffer {
            rb.put(&table_state.name, cg, key, vp.ts, value.clone());
        }
        Ok(value)
    }

    /// Read the log entry behind `vp`. Compaction or log GC may move the
    /// version and delete its old segment between the index probe and
    /// this read; then `reprobe`, the same probe again, yields the moved
    /// pointer, which is followed. Gives up only when the pointer did not
    /// change.
    fn read_version(
        &self,
        mut vp: VersionedPtr,
        reprobe: impl Fn() -> Result<Option<VersionedPtr>>,
    ) -> Result<(VersionedPtr, LogEntry)> {
        loop {
            let name = self.segdir.resolve(vp.ptr.segment);
            match logbase_wal::read_entry_in(&self.dfs, &name, vp.ptr) {
                Err(e @ Error::FileNotFound(_)) => match reprobe()? {
                    Some(moved) if moved.ptr != vp.ptr => vp = moved,
                    _ => return Err(e),
                },
                read => return Ok((vp, read?)),
            }
        }
    }

    /// Version timestamp of the latest visible write of `key` (used by
    /// transaction validation; `None` when the key has no version).
    pub fn latest_version(&self, table: &str, cg: u16, key: &[u8]) -> Result<Option<Timestamp>> {
        let table_state = self.table(table)?;
        let tablet = table_state.route(key)?;
        Ok(tablet.index(cg)?.latest(key)?.map(|vp| vp.ts))
    }

    /// Range scan (§3.6.4): probe the index for the latest version of
    /// each key in `range`, then fetch the records from the log,
    /// coalescing adjacent pointers into shared DFS reads.
    pub fn range_scan(
        &self,
        table: &str,
        cg: u16,
        range: &KeyRange,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        self.range_scan_at(table, cg, range, Timestamp::MAX, limit)
    }

    /// Range scan at snapshot `at`.
    pub fn range_scan_at(
        &self,
        table: &str,
        cg: u16,
        range: &KeyRange,
        at: Timestamp,
        limit: usize,
    ) -> Result<Vec<ScanItem>> {
        self.range_scan_at_threads(table, cg, range, at, limit, self.resolved_scan_threads())
    }

    /// Effective scan worker count (`scan_threads`, 0 = parallelism).
    fn resolved_scan_threads(&self) -> usize {
        match self.config.scan_threads {
            0 => logbase_common::config::default_parallelism(),
            n => n,
        }
    }

    /// [`TabletServer::range_scan_at`] with an explicit worker count.
    /// Index probes fan out over tablets and record fetches over
    /// coalesced segment runs; tablets serve disjoint sorted key ranges,
    /// so concatenating per-tablet results in range order *is* the key
    /// order merge, and results are byte-identical at any thread count
    /// (the benchmark ablation and scan-correctness tests rely on this).
    #[doc(hidden)]
    pub fn range_scan_at_threads(
        &self,
        table: &str,
        cg: u16,
        range: &KeyRange,
        at: Timestamp,
        limit: usize,
        threads: usize,
    ) -> Result<Vec<ScanItem>> {
        let table_state = self.table(table)?;
        let mut tablets = table_state.tablets_snapshot();
        tablets.sort_by(|a, b| a.desc.range.start.cmp(&b.desc.range.start));
        let threads = threads.max(1);
        let mut entries: Vec<IndexEntry> = Vec::new();
        if threads == 1 || tablets.len() <= 1 {
            for tablet in &tablets {
                if entries.len() >= limit {
                    break;
                }
                let sub = intersect(range, &tablet.desc.range);
                if sub.is_empty() && sub.end.is_some() {
                    continue;
                }
                entries.extend(tablet.index(cg)?.range_latest_at(
                    &sub,
                    at,
                    limit - entries.len(),
                )?);
            }
        } else {
            // Parallel probe: each worker claims tablets off a shared
            // cursor and probes up to `limit` entries. `range_latest_at`
            // returns a key-ordered prefix, so per-tablet results
            // concatenated in range order and truncated to `limit`
            // equal the sequential early-stopping walk.
            let slots: Vec<Mutex<Option<Result<Vec<IndexEntry>>>>> =
                tablets.iter().map(|_| Mutex::new(None)).collect();
            let cursor = AtomicUsize::new(0);
            let workers = threads.min(tablets.len());
            std::thread::scope(|s| {
                for _ in 0..workers {
                    s.spawn(|| loop {
                        let t = cursor.fetch_add(1, Ordering::Relaxed);
                        if t >= tablets.len() {
                            return;
                        }
                        let tablet = &tablets[t];
                        let sub = intersect(range, &tablet.desc.range);
                        if sub.is_empty() && sub.end.is_some() {
                            *slots[t].lock() = Some(Ok(Vec::new()));
                            continue;
                        }
                        let probed = tablet
                            .index(cg)
                            .and_then(|idx| idx.range_latest_at(&sub, at, limit));
                        *slots[t].lock() = Some(probed);
                    });
                }
            });
            for slot in slots {
                let probed = slot
                    .into_inner()
                    .expect("every tablet slot is filled by a worker")?;
                if entries.len() >= limit {
                    break;
                }
                let room = limit - entries.len();
                entries.extend(probed.into_iter().take(room));
            }
        }
        let reprobe = |key: &[u8]| match tablets.iter().find(|t| t.desc.range.contains(key)) {
            Some(tablet) => tablet.index(cg)?.latest_at(key, at),
            None => Ok(None),
        };
        self.fetch_entries_threads(entries, &reprobe, threads)
    }

    /// Fetch the records behind a batch of index entries, preserving the
    /// input order in the result. `reprobe(key)` repeats the index probe
    /// that produced an entry (see [`TabletServer::read_version`]).
    fn fetch_entries(
        &self,
        entries: Vec<IndexEntry>,
        reprobe: &Reprobe<'_>,
    ) -> Result<Vec<ScanItem>> {
        self.fetch_entries_threads(entries, reprobe, self.resolved_scan_threads())
    }

    /// [`TabletServer::fetch_entries`] with an explicit worker count.
    /// Pointers are sorted `(segment, offset)` and coalesced into runs
    /// (gap ≤ `scan_coalesce_gap`); each run is one batched DFS read
    /// that decodes all of its entries, and runs execute on a bounded
    /// worker pool. Result order is the input entry order regardless of
    /// which worker decoded which run. A run whose segment was deleted
    /// under it is read again entry by entry, following moved pointers.
    fn fetch_entries_threads(
        &self,
        entries: Vec<IndexEntry>,
        reprobe: &Reprobe<'_>,
        threads: usize,
    ) -> Result<Vec<ScanItem>> {
        if entries.is_empty() {
            return Ok(Vec::new());
        }
        // Plan reads: sort pointer order per segment, coalescing runs.
        let mut order: Vec<usize> = (0..entries.len()).collect();
        order.sort_by_key(|&i| (entries[i].ptr.segment, entries[i].ptr.offset));
        let gap = self.config.scan_coalesce_gap;
        let mut runs: Vec<Vec<usize>> = Vec::new();
        for &i in &order {
            let e = &entries[i];
            let start_new = match runs.last().and_then(|r| r.last()) {
                Some(&prev) => {
                    let p = &entries[prev];
                    p.ptr.segment != e.ptr.segment
                        || e.ptr
                            .offset
                            .saturating_sub(p.ptr.offset + u64::from(p.ptr.len))
                            > gap
                }
                None => true,
            };
            if start_new {
                runs.push(Vec::new());
            }
            runs.last_mut().expect("just pushed").push(i);
        }
        // One batched DFS read per run; decode every entry in the window.
        let exec_run = |run: &[usize]| -> Result<Vec<(usize, ScanItem)>> {
            let seg = entries[run[0]].ptr.segment;
            self.segdir.record_read(seg);
            let name = self.segdir.resolve(seg);
            let start = entries[run[0]].ptr.offset;
            let last = &entries[*run.last().expect("non-empty run")];
            let end = last.ptr.offset + u64::from(last.ptr.len);
            let mut items = Vec::with_capacity(run.len());
            match self.dfs.read(&name, start, end - start) {
                Err(Error::FileNotFound(_)) => {
                    for &i in run {
                        let e = &entries[i];
                        let vp = VersionedPtr {
                            ts: e.ts,
                            ptr: e.ptr,
                        };
                        let (vp, entry) = self.read_version(vp, || reprobe(&e.key))?;
                        if let Some(v) = written_value(&entry, vp.ptr)? {
                            items.push((i, (e.key.clone(), vp.ts, v)));
                        }
                    }
                }
                window => {
                    let window = window?;
                    for &i in run {
                        let e = &entries[i];
                        let entry =
                            logbase_wal::decode_entry_in_window(&window, start, e.ptr, &name)?;
                        if let Some(v) = written_value(&entry, e.ptr)? {
                            items.push((i, (e.key.clone(), e.ts, v)));
                        }
                    }
                }
            }
            Ok(items)
        };
        let workers = threads.max(1).min(runs.len());
        let mut out: Vec<Option<ScanItem>> = vec![None; entries.len()];
        if workers <= 1 {
            for run in &runs {
                for (i, item) in exec_run(run)? {
                    out[i] = Some(item);
                }
            }
        } else {
            let cursor = AtomicUsize::new(0);
            let collected: Mutex<Vec<(usize, ScanItem)>> =
                Mutex::new(Vec::with_capacity(entries.len()));
            std::thread::scope(|s| -> Result<()> {
                let mut handles = Vec::new();
                for _ in 0..workers {
                    handles.push(s.spawn(|| -> Result<()> {
                        loop {
                            let r = cursor.fetch_add(1, Ordering::Relaxed);
                            if r >= runs.len() {
                                return Ok(());
                            }
                            let items = exec_run(&runs[r])?;
                            collected.lock().extend(items);
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("scan fetch worker panicked")?;
                }
                Ok(())
            })?;
            for (i, item) in collected.into_inner() {
                out[i] = Some(item);
            }
        }
        Metrics::add(&self.metrics().records_read, entries.len() as u64);
        Ok(out.into_iter().flatten().collect())
    }

    /// Full table scan (§3.6.4): walk every segment, counting records
    /// whose stored version matches the current version in the index.
    /// Segments are scanned by a bounded worker pool
    /// (`ServerConfig::scan_threads`).
    pub fn full_scan(&self, table: &str, cg: u16) -> Result<u64> {
        self.full_scan_threads(table, cg, self.resolved_scan_threads())
    }

    /// [`TabletServer::full_scan`] with an explicit worker count.
    #[doc(hidden)]
    pub fn full_scan_threads(&self, table: &str, cg: u16, threads: usize) -> Result<u64> {
        let table_state = self.table(table)?;
        let log_prefix = format!("{}/log", self.config.name);
        let mut files: Vec<String> = self
            .dfs
            .list(&format!("{log_prefix}/segment-"))
            .into_iter()
            .collect();
        files.extend(self.segdir.snapshot().into_iter().map(|(_, name)| name));

        let scan_file = |file: &str| -> Result<u64> {
            let mut matched = 0u64;
            let mut reader = self.dfs.open_reader(file)?;
            loop {
                if reader.remaining() < logbase_common::codec::FRAME_HEADER_LEN as u64 {
                    break;
                }
                let header = reader.read_exact(logbase_common::codec::FRAME_HEADER_LEN as u64)?;
                let len = u32::from_le_bytes([header[0], header[1], header[2], header[3]]) as u64;
                if reader.remaining() < len {
                    break;
                }
                let payload = reader.read_exact(len)?;
                let Ok(entry) = logbase_wal::LogEntry::decode(payload) else {
                    continue;
                };
                if entry.table != table {
                    continue;
                }
                let Some((record, _, _)) = entry.as_write() else {
                    continue;
                };
                if record.meta.column_group != cg || record.is_tombstone() {
                    continue;
                }
                // Version-currency check against the index.
                let Ok(tablet) = table_state.route(&record.meta.key) else {
                    continue;
                };
                let Ok(index) = tablet.index(cg) else {
                    continue;
                };
                if index.latest(&record.meta.key)?.map(|vp| vp.ts) == Some(record.meta.timestamp) {
                    matched += 1;
                }
            }
            Ok(matched)
        };

        let workers = threads.max(1).min(files.len().max(1));
        let counter = AtomicU64::new(0);
        if workers <= 1 {
            for file in &files {
                counter.fetch_add(scan_file(file)?, Ordering::Relaxed);
            }
        } else {
            let cursor = AtomicUsize::new(0);
            std::thread::scope(|s| -> Result<()> {
                let mut handles = Vec::new();
                for _ in 0..workers {
                    handles.push(s.spawn(|| -> Result<()> {
                        loop {
                            let f = cursor.fetch_add(1, Ordering::Relaxed);
                            if f >= files.len() {
                                return Ok(());
                            }
                            let matched = scan_file(&files[f])?;
                            counter.fetch_add(matched, Ordering::Relaxed);
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("scan thread panicked")?;
                }
                Ok(())
            })?;
        }
        Ok(counter.load(Ordering::Relaxed))
    }

    // ------------------------------------------------------------------
    // Checkpoint & recovery (§3.8)
    // ------------------------------------------------------------------

    /// Take a checkpoint: persist every in-memory index to DFS index
    /// files plus a descriptor recording the covered log position.
    pub fn checkpoint(&self) -> Result<CheckpointMeta> {
        self.check_fenced()?;
        let _guard = self.maintenance.lock();
        self.checkpoint_inner()
    }

    /// Checkpoint body. Callers must hold the maintenance lock;
    /// compaction embeds its commit-point checkpoint under the *same*
    /// lock acquisition, which is what makes the sequence it records in
    /// the maintenance manifest ([`TabletServer::next_checkpoint_seq`])
    /// the sequence this function actually takes.
    pub(crate) fn checkpoint_inner(&self) -> Result<CheckpointMeta> {
        self.check_fenced()?;
        logbase_dfs::crash_point!(self.dfs, "checkpoint.begin");
        let seq = self.ckpt_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let dir = checkpoint_dir(&self.config.name, seq);
        // Capture the redo start BEFORE persisting indexes: entries
        // between this position and "now" may be both in the index files
        // and redone — redo is idempotent, so that is safe; the converse
        // (missed entries) would not be. The exclusive write-barrier
        // acquisition makes the capture atomic with respect to in-flight
        // writes: no log record below the captured position can still be
        // waiting for its index update.
        let (log_segment, log_offset, next_lsn) = {
            let _barrier = self.write_barrier.write();
            let (seg, off) = self.log.writer().position();
            (seg, off, self.log.writer().next_lsn())
        };

        let mut tables_meta = Vec::new();
        let tables: Vec<Arc<TableState>> = self.tables.read().values().cloned().collect();
        for table in &tables {
            let mut tablets_meta = Vec::new();
            for tablet in table.tablets_snapshot() {
                let mut index_files = Vec::new();
                for (cg, index) in tablet.indexes.iter().enumerate() {
                    index.flush_disk_tier()?;
                    let file = index_file_name(
                        &dir,
                        &table.schema.name,
                        tablet.desc.id.range_index,
                        cg as u16,
                    );
                    logbase_index::persist::save_index(&self.dfs, &file, index.mem())?;
                    logbase_dfs::crash_point!(self.dfs, "checkpoint.mid_index_files");
                    index.mem().reset_update_counter();
                    index_files.push(file);
                }
                tablets_meta.push(TabletMeta {
                    range_index: tablet.desc.id.range_index,
                    start: checkpoint::hex(&tablet.desc.range.start),
                    end: tablet.desc.range.end.as_ref().map(|e| checkpoint::hex(e)),
                    index_files,
                });
            }
            tables_meta.push(TableMeta {
                schema: table.schema.clone(),
                tablets: tablets_meta,
            });
        }
        let meta = CheckpointMeta {
            seq,
            next_lsn: next_lsn.0,
            log_segment,
            log_offset,
            max_timestamp: self.oracle.current().0,
            tables: tables_meta,
            sorted_segments: self.segdir.snapshot(),
            next_sorted: Some(self.segdir.next_sorted_id()),
        };
        logbase_dfs::crash_point!(self.dfs, "checkpoint.before_meta");
        checkpoint::write_meta(&self.dfs, &self.config.name, &meta)?;
        logbase_dfs::crash_point!(self.dfs, "checkpoint.after_meta");
        self.checkpoints_taken.fetch_add(1, Ordering::Relaxed);
        // Bound on-DFS history: older complete checkpoints are dead
        // weight once this descriptor is durable.
        logbase_dfs::crash_point!(self.dfs, "checkpoint.before_prune");
        crate::gc::prune_checkpoints(&self.dfs, &self.config.name, self.config.retain_checkpoints)?;
        Ok(meta)
    }

    /// Open (recover) a server from its DFS state: load the latest
    /// checkpoint's index files, then redo the log tail (§3.8). Works
    /// with no checkpoint at all by scanning the entire log.
    pub fn open(dfs: Dfs, config: ServerConfig) -> Result<Arc<Self>> {
        Self::open_with(dfs, config, TimestampOracle::new(), LockService::new())
    }

    /// [`TabletServer::open`] sharing a cluster oracle and lock service.
    pub fn open_with(
        dfs: Dfs,
        config: ServerConfig,
        oracle: TimestampOracle,
        locks: LockService,
    ) -> Result<Arc<Self>> {
        let log_prefix = format!("{}/log", config.name);
        let meta = checkpoint::latest_checkpoint(&dfs, &config.name)?;

        // The writer reopens at a placeholder LSN; redo determines the
        // real one and corrects it before any append happens.
        let writer = Arc::new(LogWriter::reopen(
            dfs.clone(),
            LogConfig::new(&log_prefix)
                .with_segment_bytes(config.segment_bytes)
                .with_compression(config.wal_compression),
            Lsn(1),
        )?);
        let server = Self::assemble(dfs.clone(), config, Arc::clone(&writer), oracle, locks);

        let (start_segment, start_offset, mut max_lsn, mut max_ts) = match &meta {
            Some(m) => {
                server.ckpt_seq.store(m.seq, Ordering::Relaxed);
                server.segdir.restore(m.sorted_segments.clone());
                // The persisted allocation cursor outranks what restore()
                // inferred: a crashed compaction may have burned ids whose
                // mappings never reached a checkpoint, and spilled LSM
                // values durably encode ids — reuse would repoint them.
                if let Some(n) = m.next_sorted {
                    server.segdir.advance_next_sorted(n);
                }
                for tm in &m.tables {
                    let table = Arc::new(TableState::new(tm.schema.clone())?);
                    for tablet_meta in &tm.tablets {
                        let desc = tablet_meta.to_desc(&tm.schema.name)?;
                        let tablet = Arc::new(server.new_tablet_state(desc, &tm.schema)?);
                        for (cg, file) in tablet_meta.index_files.iter().enumerate() {
                            let loaded = logbase_index::persist::load_index(&dfs, file)?;
                            tablet.indexes[cg].mem().replace_all(loaded.scan_all());
                        }
                        table.add_tablet(tablet);
                    }
                    server.tables.write().insert(tm.schema.name.clone(), table);
                }
                (
                    m.log_segment,
                    m.log_offset,
                    m.next_lsn.saturating_sub(1),
                    m.max_timestamp,
                )
            }
            None => (0, 0, 0, 0),
        };

        // Startup GC: converge the DFS image after any mid-maintenance
        // crash *before* redo touches the log — roll an interrupted
        // compaction forward or back from its manifest, drop partial
        // checkpoint directories, prune stale history, sweep orphan
        // sorted segments.
        let report = crate::gc::startup_gc(
            &dfs,
            &server.config.name,
            &server.segdir,
            meta.as_ref().map(|m| m.seq),
            server.config.retain_checkpoints,
        )?;
        *server.gc_report.lock() = report;

        // Redo pass: apply committed effects from the log tail.
        let mut pending: HashMap<u64, Vec<(String, u32, Record, LogPtr)>> = HashMap::new();
        logbase_wal::scan_log_tolerant(
            &dfs,
            &log_prefix,
            start_segment,
            start_offset,
            |ptr, entry| {
                max_lsn = max_lsn.max(entry.lsn.0);
                match entry.kind {
                    LogEntryKind::Write {
                        txn_id,
                        tablet,
                        record,
                    } => {
                        max_ts = max_ts.max(record.meta.timestamp.0);
                        if txn_id == 0 {
                            server.redo_record(&entry.table, tablet, &record, ptr)?;
                        } else {
                            pending.entry(txn_id).or_default().push((
                                entry.table.clone(),
                                tablet,
                                record,
                                ptr,
                            ));
                        }
                    }
                    LogEntryKind::Commit { txn_id, commit_ts } => {
                        max_ts = max_ts.max(commit_ts.0);
                        if let Some(writes) = pending.remove(&txn_id) {
                            for (table, tablet, record, ptr) in writes {
                                server.redo_record(&table, tablet, &record, ptr)?;
                            }
                        }
                    }
                    LogEntryKind::Abort { txn_id } => {
                        pending.remove(&txn_id);
                    }
                    LogEntryKind::Checkpoint { .. } => {}
                    LogEntryKind::Schema { schema_json } => {
                        // DDL redo: recreate the table (one full-range
                        // tablet) unless the checkpoint already restored it.
                        if let Ok(schema) = serde_json::from_str::<TableSchema>(&schema_json) {
                            if server.table(&schema.name).is_err() {
                                server.create_table_unlogged(schema)?;
                            }
                        }
                    }
                }
                Ok(())
            },
        )?;
        // Writes with no commit record are uncommitted: ignored (§3.8).

        server.oracle.advance_to(Timestamp(max_ts));
        writer.set_next_lsn(Lsn(max_lsn + 1));
        let server = Arc::new(server);
        Self::start_services(&server);
        Ok(server)
    }

    /// Apply one logged write during redo.
    pub(crate) fn redo_record(
        &self,
        table: &str,
        tablet_hint: u32,
        record: &Record,
        ptr: LogPtr,
    ) -> Result<()> {
        // Auto-create tables seen in the log but absent from the
        // checkpoint (recovery without checkpoint).
        const AUTO_CG_COUNT: u16 = 8;
        let table_state = match self.table(table) {
            Ok(t) => t,
            Err(_) => {
                // Recovery without a checkpoint: the log names the table
                // but its schema is unknown. Create a placeholder schema
                // with a fixed column-group count; real deployments
                // always recover schemas from the checkpoint descriptor.
                let cg_count = AUTO_CG_COUNT.max(record.meta.column_group + 1);
                let mut schema = TableSchema::single_group(table, &["c0"]);
                schema.column_groups = (0..cg_count)
                    .map(|i| logbase_common::schema::ColumnGroup {
                        id: i,
                        name: format!("cg{i}"),
                        columns: vec![logbase_common::schema::Column {
                            name: format!("c{i}"),
                        }],
                    })
                    .collect();
                self.create_table(schema)?;
                self.table(table)?
            }
        };
        let tablet = match table_state.tablet(tablet_hint) {
            Some(t) => t,
            None => table_state.route(&record.meta.key)?,
        };
        index_record(tablet.index(record.meta.column_group)?, record, ptr)
    }

    /// Statistics snapshot.
    pub fn stats(&self) -> ServerStats {
        let mut index_entries = 0u64;
        let mut index_bytes = 0u64;
        for table in self.tables.read().values() {
            for tablet in table.tablets_snapshot() {
                for index in &tablet.indexes {
                    let s = index.mem().stats();
                    index_entries += s.entries;
                    index_bytes += s.approx_bytes;
                }
            }
        }
        ServerStats {
            index_entries,
            index_bytes,
            read_buffer: self
                .read_buffer
                .as_ref()
                .map(ReadBuffer::stats)
                .unwrap_or((0, 0)),
            checkpoints: self.checkpoints_taken.load(Ordering::Relaxed),
            compactions: self.compactions_run.load(Ordering::Relaxed),
            log_segment: self.log.writer().current_segment(),
        }
    }
}

/// Reflect one logged record in its index: insert the version, or drop
/// every version of the key for a tombstone (§3.6.3). Shared by
/// [`TabletServer::apply`] and log redo.
fn index_record(index: &SpillableIndex, record: &Record, ptr: LogPtr) -> Result<()> {
    if record.is_tombstone() {
        index.remove_key(&record.meta.key)?;
    } else {
        index.insert(record.meta.key.clone(), record.meta.timestamp, ptr)?;
    }
    Ok(())
}

/// Repeats the index probe behind a scan entry: the version of `key`
/// visible at the scan's snapshot.
type Reprobe<'a> = dyn Fn(&[u8]) -> Result<Option<VersionedPtr>> + Sync + 'a;

/// The value a write entry stored (`None` for a tombstone).
fn written_value(entry: &LogEntry, ptr: LogPtr) -> Result<Option<Value>> {
    let (record, _, _) = entry.as_write().ok_or_else(|| {
        Error::Corruption(format!(
            "index pointer {ptr} does not address a write entry"
        ))
    })?;
    Ok(record.value.clone())
}

fn intersect(a: &KeyRange, b: &KeyRange) -> KeyRange {
    let start = if a.start >= b.start {
        a.start.clone()
    } else {
        b.start.clone()
    };
    let end = match (&a.end, &b.end) {
        (Some(x), Some(y)) => Some(if x <= y { x.clone() } else { y.clone() }),
        (Some(x), None) => Some(x.clone()),
        (None, Some(y)) => Some(y.clone()),
        (None, None) => None,
    };
    KeyRange { start, end }
}

/// [`StorageEngine`] adapter binding a [`TabletServer`] to one table, so
/// the benchmark harness can drive LogBase and the baselines uniformly.
pub struct LogBaseEngine {
    server: Arc<TabletServer>,
    table: String,
}

impl LogBaseEngine {
    /// Wrap `server`, routing engine calls to `table`.
    pub fn new(server: Arc<TabletServer>, table: impl Into<String>) -> Self {
        LogBaseEngine {
            server,
            table: table.into(),
        }
    }

    /// The wrapped server.
    pub fn server(&self) -> &Arc<TabletServer> {
        &self.server
    }
}

impl StorageEngine for LogBaseEngine {
    fn put(&self, cg: u16, key: RowKey, value: Value) -> Result<Timestamp> {
        self.server.put(&self.table, cg, key, value)
    }

    fn get(&self, cg: u16, key: &[u8]) -> Result<Option<Value>> {
        self.server.get(&self.table, cg, key)
    }

    fn get_at(&self, cg: u16, key: &[u8], at: Timestamp) -> Result<Option<Value>> {
        self.server.get_at(&self.table, cg, key, at)
    }

    fn delete(&self, cg: u16, key: &[u8]) -> Result<()> {
        self.server.delete(&self.table, cg, key)
    }

    fn range_scan(&self, cg: u16, range: &KeyRange, limit: usize) -> Result<Vec<ScanItem>> {
        self.server.range_scan(&self.table, cg, range, limit)
    }

    fn full_scan(&self, cg: u16) -> Result<u64> {
        self.server.full_scan(&self.table, cg)
    }

    fn sync(&self) -> Result<()> {
        self.server.checkpoint().map(|_| ())
    }

    fn engine_name(&self) -> &'static str {
        "logbase"
    }
}
