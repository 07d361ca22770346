//! **LogBase** — a log-structured database system where the log is the
//! *only* data repository (reproduction of Vo et al., PVLDB 5(10), 2012).
//!
//! A [`TabletServer`] records every write of every tablet it serves into
//! a single segmented log in the DFS and keeps an in-memory multiversion
//! index per column group pointing back into that log. Nothing is ever
//! written twice: the write path is *append to log → update index →
//! (optionally) populate the read buffer* (§3.6.1, Fig. 3 left).
//!
//! Feature map (paper section → module):
//!
//! | Paper | Module |
//! |---|---|
//! | §3.1–3.2 data model & partitioning | [`partition`], schemas from `logbase_common::schema` |
//! | §3.4 log repository | `logbase_wal` + [`server`] |
//! | §3.5 in-memory multiversion index | `logbase_index` + [`spill`] (LSM-backed overflow) |
//! | §3.6 tablet serving (write/read/delete/scan) | [`server`], [`read_buffer`] |
//! | §3.6.5 log compaction | [`compaction`] |
//! | §3.7 transactions (MVOCC, snapshot isolation) | [`txn`] |
//! | §3.8 checkpoint & recovery | [`checkpoint`], recovery in [`server`] |
//!
//! # Quick start
//!
//! ```
//! use logbase::{ServerConfig, TabletServer};
//! use logbase_common::schema::TableSchema;
//! use logbase_dfs::{Dfs, DfsConfig};
//!
//! let dfs = Dfs::new(DfsConfig::in_memory(3, 3));
//! let server = TabletServer::create(dfs, ServerConfig::new("srv-0")).unwrap();
//! server.create_table(TableSchema::single_group("users", &["profile"])).unwrap();
//!
//! let ts = server.put("users", 0, "alice".into(), "hello".into()).unwrap();
//! assert_eq!(server.get("users", 0, b"alice").unwrap().unwrap(), "hello");
//! assert!(server.get_at("users", 0, b"alice", ts.prev()).unwrap().is_none());
//! ```

pub mod checkpoint;
pub mod compaction;
pub mod endpoint;
pub mod failover;
pub mod gc;
pub mod history;
pub mod manifest;
pub mod partition;
pub mod read_buffer;
pub mod scheduler;
pub mod secondary;
pub mod server;
pub mod spill;
pub mod txn;

mod segdir;
pub mod tablet;

pub use compaction::{
    CompactionConfig, CompactionInputs, CompactionReport, LogGcConfig, LogGcReport,
};
pub use endpoint::{ServerEndpoint, TxnEndpoint, TxnSession};
pub use failover::{rebuild_range, RebuiltRecord, RebuiltTablet};
pub use gc::{fsck, GcReport};
pub use history::{Event, EventKind, HistoryRecorder, WriteRec};
pub use logbase_wal::GroupCommitConfig;
pub use manifest::MaintenanceManifest;
pub use read_buffer::ReadBuffer;
pub use scheduler::{CompactionScheduler, CompactionSchedulerConfig, SchedulerHandle, TickOutcome};
pub use segdir::SegmentDirectory;
pub use server::{ApplyError, ServerConfig, ServerStats, TabletServer, Write};
pub use spill::SpillConfig;
pub use txn::{lock_key_for_tests, Transaction, TxnManager};

/// Registered crash-point sites, grouped by the maintenance path that
/// hosts them. The torture suite iterates these lists — a site added in
/// code but missing here fails the coverage test, and vice versa.
pub mod crash_sites {
    /// Sites inside [`crate::TabletServer::compact_with`], in program
    /// order.
    pub const COMPACTION: &[&str] = &[
        "compaction.begin",
        "compaction.after_rotate",
        "compaction.kv_split",
        "compaction.after_sorted_write",
        "compaction.ptr_rewrite",
        "compaction.before_manifest",
        "compaction.after_manifest",
        "compaction.after_checkpoint",
        "compaction.mid_delete",
        "compaction.before_manifest_remove",
    ];
    /// Sites inside the checkpoint body (also traversed by the
    /// checkpoint a compaction embeds), in program order.
    pub const CHECKPOINT: &[&str] = &[
        "checkpoint.begin",
        "checkpoint.mid_index_files",
        "checkpoint.before_meta",
        "checkpoint.after_meta",
        "checkpoint.before_prune",
    ];
    /// Sites inside the index spill path (memory tier merging out to
    /// the LSM disk tier).
    pub const SPILL: &[&str] = &["spill.before_merge_out", "spill.after_merge_out"];
    /// Sites inside the log write path: fires before each chunk of a
    /// group-commit batch reaches the DFS, so tests can crash a server
    /// with a batch partially appended (including mid-rotation).
    pub const WAL: &[&str] = &["wal.append_batch.chunk"];
    /// Sites specific to the log-GC reclaim pass (fires between the
    /// commit checkpoint and the input deletions of the force-rewrite
    /// compaction that reclaims mostly-dead segments).
    pub const LOG_GC: &[&str] = &["wal.gc.reclaim"];

    /// Every maintenance site the crash-matrix torture test must cover.
    pub fn maintenance() -> Vec<&'static str> {
        COMPACTION
            .iter()
            .chain(CHECKPOINT)
            .chain(LOG_GC)
            .copied()
            .collect()
    }
}
