//! Master-driven tablet-server failover (§3.8).
//!
//! The master watches the registry for expired tablet-server sessions.
//! The expiry watcher runs synchronously with the lease clock: it
//! immediately opens the ownership gap (marks the victim's routes
//! unavailable) and queues the expiry. The *active* master then drains
//! the queue with [`Master::run_pending`], executing the paper's
//! takeover recipe per victim:
//!
//! 1. **Fence the log.** Seal every log segment of the dead server in
//!    the DFS (the HDFS `recoverLease` analogue). A write acked to a
//!    client reached the DFS before the seal, so the rebuild scan
//!    sees it; a zombie's later append fails and was never acked. The
//!    writer-side gate already rejects post-expiry batches before they
//!    rotate to fresh segments, so the re-list loop below stabilises
//!    after at most one extra round.
//! 2. **Split the log by key range.** Each of the victim's routes is
//!    assigned round-robin to a survivor, which rebuilds just that
//!    range with [`rebuild_range`] — checkpoint index files plus the
//!    log tail past the checkpoint.
//! 3. **Install.** Survivors ingest the rebuilt records into their own
//!    logs (original timestamps preserved) under fresh tablets, then
//!    the routing table swaps all of the victim's routes to the new
//!    owners atomically, closing the ownership gap.

use crate::router::Router;
use crate::MemberSlots;
use logbase::rebuild_range;
use logbase_common::metrics::Metrics;
use logbase_common::schema::{TabletDesc, TabletId};
use logbase_common::{Error, Result, RowKey};
use logbase_coordination::{MemberState, Registry, SessionExpiry};
use logbase_dfs::Dfs;
use parking_lot::Mutex;
use std::collections::VecDeque;
use std::sync::Arc;

/// What one completed failover did.
#[derive(Debug, Clone)]
pub struct FailoverReport {
    /// The dead server whose tablets were reassigned.
    pub victim: String,
    /// Tablets handed to survivors.
    pub tablets_reassigned: usize,
    /// Log-tail bytes replayed across all ranges.
    pub log_bytes_redone: u64,
    /// Live records recovered into survivors.
    pub records_recovered: usize,
}

/// The failover master. Every master candidate holds one (the recipe
/// is driven by whichever candidate the registry currently elects), so
/// a master failover does not lose queued work.
pub(crate) struct Master {
    dfs: Dfs,
    registry: Registry,
    router: Arc<Router>,
    slots: MemberSlots,
    table: String,
    pending: Mutex<VecDeque<SessionExpiry>>,
}

impl Master {
    pub(crate) fn new(
        dfs: Dfs,
        registry: Registry,
        router: Arc<Router>,
        slots: MemberSlots,
        table: String,
    ) -> Arc<Self> {
        Arc::new(Master {
            dfs,
            registry,
            router,
            slots,
            table,
            pending: Mutex::new(VecDeque::new()),
        })
    }

    /// Hook the expiry watcher into the registry. Runs at lease-expiry
    /// time regardless of master liveness: the ownership gap must open
    /// the instant the session dies, even if the takeover itself waits
    /// for an active master.
    ///
    /// The registry is the master's own, so the closure holds the master
    /// weakly: a strong handle would be a cycle that keeps the master,
    /// and every member server it reaches, alive after the cluster drops.
    pub(crate) fn install_watcher(self: &Arc<Self>) {
        let master = Arc::downgrade(self);
        self.registry.watch_expiry(Arc::new(move |expiry| {
            if expiry.state != MemberState::TabletServer {
                return; // master candidates demote via active_master()
            }
            let Some(master) = master.upgrade() else {
                return; // the cluster is gone
            };
            let Some(idx) = find_slot(&master.slots, expiry.member) else {
                return; // stale session: the slot was already re-registered
            };
            master.router.mark_unavailable(idx as u32);
            master.pending.lock().push_back(expiry.clone());
        }));
    }

    /// Number of failovers waiting for an active master.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.lock().len()
    }

    /// Drain queued failovers. A no-op (keeping the queue) while no
    /// master candidate holds a live session — the cluster serves
    /// survivors' tablets but cannot reassign the victims' until a
    /// master is back.
    pub(crate) fn run_pending(&self) -> Result<Vec<FailoverReport>> {
        let mut done = Vec::new();
        loop {
            if self.registry.active_master().is_none() {
                return Ok(done);
            }
            let Some(expiry) = self.pending.lock().pop_front() else {
                return Ok(done);
            };
            match self.handle(&expiry) {
                Ok(Some(report)) => done.push(report),
                Ok(None) => {}
                Err(e) => {
                    // Keep the victim queued so a later run can retry.
                    self.pending.lock().push_front(expiry);
                    return Err(e);
                }
            }
        }
    }

    fn handle(&self, expiry: &SessionExpiry) -> Result<Option<FailoverReport>> {
        let Some(victim_idx) = find_slot(&self.slots, expiry.member) else {
            return Ok(None); // re-registered since the expiry fired
        };

        // Drop the cluster's handles to the dead server. A zombie may
        // still hold its own clone — fencing and the log seal below
        // make it harmless.
        let victim_name = {
            let mut slots = self.slots.write();
            let slot = &mut slots[victim_idx];
            slot.server = None;
            slot.engine = None;
            slot.name.clone()
        };

        self.seal_victim_log(&victim_name)?;
        logbase_dfs::crash_point!(self.dfs, "failover.after_seal");

        let survivors: Vec<usize> = {
            let slots = self.slots.read();
            (0..slots.len())
                .filter(|i| slots[*i].server.is_some())
                .collect()
        };
        if survivors.is_empty() {
            return Err(Error::Unavailable(format!(
                "no surviving tablet servers to adopt {victim_name}'s tablets"
            )));
        }

        let victim_routes: Vec<crate::Route> = self
            .router
            .snapshot()
            .into_iter()
            .filter(|r| r.member == victim_idx as u32)
            .collect();

        let metrics = self.dfs.metrics();
        let mut owners: Vec<(RowKey, u32)> = Vec::with_capacity(victim_routes.len());
        let mut log_bytes_redone = 0u64;
        let mut records_recovered = 0usize;
        for (j, route) in victim_routes.iter().enumerate() {
            let heir_idx = survivors[j % survivors.len()];
            let heir = self.slots.read()[heir_idx]
                .server
                .clone()
                .expect("survivor list only holds live servers");
            let rebuilt = rebuild_range(&self.dfs, &victim_name, &self.table, &route.range)?;
            // A retry of an interrupted takeover finds this exact range
            // already assigned from the previous attempt: adopt it
            // instead of creating a duplicate tablet (re-ingesting the
            // same versions below is idempotent).
            let descs = heir.tablet_descs(&self.table);
            if descs.iter().all(|d| d.range != route.range) {
                let range_index = descs
                    .iter()
                    .map(|d| d.id.range_index)
                    .max()
                    .map_or(0, |m| m + 1);
                heir.assign_tablet(TabletDesc {
                    id: TabletId {
                        table: self.table.clone(),
                        range_index,
                    },
                    range: route.range.clone(),
                })?;
            }
            records_recovered += rebuilt.records.len();
            crate::ingest(&heir, &self.table, rebuilt.records)?;
            log_bytes_redone += rebuilt.log_bytes_redone;
            Metrics::incr(&metrics.tablets_reassigned);
            owners.push((route.range.start.clone(), heir_idx as u32));
            logbase_dfs::crash_point!(self.dfs, "failover.mid_ingest");
        }
        Metrics::add(&metrics.failover_log_bytes_redone, log_bytes_redone);

        logbase_dfs::crash_point!(self.dfs, "failover.before_install");
        self.router
            .install_reassignments(victim_idx as u32, &owners)?;
        Ok(Some(FailoverReport {
            victim: victim_name,
            tablets_reassigned: owners.len(),
            log_bytes_redone,
            records_recovered,
        }))
    }

    /// Seal every log segment of the dead server, re-listing until the
    /// set is stable: at most one append batch can be in flight past
    /// the write gate (the gate is checked under the writer mutex), so
    /// one extra round suffices; the loop is belt and braces.
    fn seal_victim_log(&self, victim_name: &str) -> Result<()> {
        let prefix = format!("{victim_name}/log/");
        let mut sealed: Vec<String> = Vec::new();
        for _ in 0..8 {
            let files = self.dfs.list(&prefix);
            if files == sealed {
                return Ok(());
            }
            for f in &files {
                self.dfs.seal(f)?;
            }
            sealed = files;
        }
        Err(Error::Unavailable(format!(
            "{victim_name}'s log would not quiesce for sealing"
        )))
    }
}

fn find_slot(slots: &MemberSlots, session: logbase_coordination::MemberId) -> Option<usize> {
    slots.read().iter().position(|s| s.session == Some(session))
}
