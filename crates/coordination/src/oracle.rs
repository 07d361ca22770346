//! Global timestamp authority.

use logbase_common::Timestamp;
use parking_lot::{Condvar, Mutex};
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Monotonic timestamp oracle shared by every server in a cluster.
///
/// `next()` issues commit timestamps (strictly increasing, globally
/// unique); `current()` reads the latest issued timestamp.
///
/// # Snapshots vs. in-flight commits
///
/// A commit is not atomic: its timestamp is issued first, then its log
/// records are appended and its index entries installed. A transaction
/// that picked `current()` as its snapshot in that window could observe
/// *part* of the committing transaction's writes (the cells already
/// indexed) and miss the rest — read skew inside a single snapshot.
/// [`TimestampOracle::reserve`] therefore hands out commit timestamps as
/// RAII reservations, and [`TimestampOracle::snapshot`] — what
/// transaction `begin` uses — returns the largest timestamp *below every
/// in-flight reservation*: a snapshot never includes a commit that has
/// not finished installing its effects (§3.7.1: read-only transactions
/// "access a recent consistent snapshot").
#[derive(Debug, Clone, Default)]
pub struct TimestampOracle {
    counter: Arc<AtomicU64>,
    inflight: Arc<Mutex<Inflight>>,
    /// Signalled when a reservation is released while a caller waits in
    /// [`TimestampOracle::snapshot_at_least`].
    released: Arc<Condvar>,
}

#[derive(Debug, Default)]
struct Inflight {
    /// Issued-but-not-yet-applied commit timestamps. `snapshot()` stays
    /// strictly below all of them.
    reserved: BTreeSet<u64>,
    /// Callers blocked in [`TimestampOracle::snapshot_at_least`].
    waiters: usize,
}

impl TimestampOracle {
    /// Oracle starting at timestamp 0 (the originator transaction T0's
    /// timestamp; the first issued timestamp is 1).
    pub fn new() -> Self {
        Self::default()
    }

    /// Oracle resuming from a known timestamp (recovery: never reissue).
    pub fn starting_at(ts: Timestamp) -> Self {
        TimestampOracle {
            counter: Arc::new(AtomicU64::new(ts.0)),
            ..TimestampOracle::default()
        }
    }

    /// Issue the next commit timestamp.
    pub fn next(&self) -> Timestamp {
        let ts = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        // Monotonicity assertion: the counter must never wrap — a wrapped
        // timestamp would be issued out of order.
        assert!(ts != 0, "timestamp oracle overflow: non-monotone issue");
        Timestamp(ts)
    }

    /// Issue the next commit timestamp as a *reservation*: until the
    /// returned guard is dropped, [`TimestampOracle::snapshot`] stays
    /// strictly below it. Write paths hold the reservation across their
    /// [log append → index install] window so no snapshot can see a
    /// half-applied commit.
    pub fn reserve(&self) -> CommitReservation {
        let mut inflight = self.inflight.lock();
        let ts = self.counter.fetch_add(1, Ordering::SeqCst) + 1;
        assert!(ts != 0, "timestamp oracle overflow: non-monotone issue");
        // Reservations are issued under the in-flight lock, so issue
        // order is observable here: each must exceed all earlier ones.
        debug_assert!(
            inflight.reserved.last().is_none_or(|&m| m < ts),
            "oracle issued non-monotone reservation {ts}"
        );
        inflight.reserved.insert(ts);
        drop(inflight);
        CommitReservation {
            oracle: self.clone(),
            ts: Timestamp(ts),
        }
    }

    /// Latest issued timestamp (diagnostics, checkpoint high-water mark).
    pub fn current(&self) -> Timestamp {
        Timestamp(self.counter.load(Ordering::SeqCst))
    }

    /// A consistent snapshot bound: the latest timestamp every commit at
    /// or below which has fully installed its effects. Equals
    /// [`TimestampOracle::current`] when no reservation is in flight.
    pub fn snapshot(&self) -> Timestamp {
        self.snapshot_locked(&self.inflight.lock())
    }

    /// [`TimestampOracle::snapshot`] once it has reached `floor`: waits,
    /// up to `timeout`, for every reservation at or below `floor` to be
    /// released. A caller that saw the commit at `floor` finish gets a
    /// snapshot that includes it, even while an older commit elsewhere
    /// is still applying. Past the timeout, returns the snapshot as it
    /// stands.
    pub fn snapshot_at_least(&self, floor: Timestamp, timeout: Duration) -> Timestamp {
        let deadline = Instant::now() + timeout;
        let mut inflight = self.inflight.lock();
        loop {
            let snap = self.snapshot_locked(&inflight);
            if snap >= floor {
                return snap;
            }
            inflight.waiters += 1;
            let timed_out = self
                .released
                .wait_until(&mut inflight, deadline)
                .timed_out();
            inflight.waiters -= 1;
            if timed_out {
                return self.snapshot_locked(&inflight);
            }
        }
    }

    fn snapshot_locked(&self, inflight: &Inflight) -> Timestamp {
        let current = self.counter.load(Ordering::SeqCst);
        let snap = match inflight.reserved.first() {
            Some(&min) => min - 1,
            None => current,
        };
        debug_assert!(snap <= current, "snapshot above latest issued ts");
        Timestamp(snap)
    }

    /// Advance the counter to at least `ts` (used when replaying a log
    /// whose records carry timestamps issued before a crash).
    pub fn advance_to(&self, ts: Timestamp) {
        self.counter.fetch_max(ts.0, Ordering::SeqCst);
    }
}

/// RAII commit-timestamp reservation from [`TimestampOracle::reserve`].
/// Dropping it marks the commit as fully applied, allowing snapshots at
/// or above the timestamp.
#[derive(Debug)]
pub struct CommitReservation {
    oracle: TimestampOracle,
    ts: Timestamp,
}

impl CommitReservation {
    /// The reserved commit timestamp.
    pub fn timestamp(&self) -> Timestamp {
        self.ts
    }
}

impl Drop for CommitReservation {
    fn drop(&mut self) {
        let mut inflight = self.oracle.inflight.lock();
        inflight.reserved.remove(&self.ts.0);
        if inflight.waiters > 0 {
            self.oracle.released.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_strictly_increase() {
        let o = TimestampOracle::new();
        let a = o.next();
        let b = o.next();
        assert!(b > a);
        assert_eq!(o.current(), b);
    }

    #[test]
    fn clones_share_the_counter() {
        let o = TimestampOracle::new();
        let o2 = o.clone();
        let a = o.next();
        let b = o2.next();
        assert!(b > a);
        assert_eq!(o.current(), o2.current());
    }

    #[test]
    fn advance_to_never_goes_backwards() {
        let o = TimestampOracle::new();
        o.advance_to(Timestamp(100));
        assert_eq!(o.current(), Timestamp(100));
        o.advance_to(Timestamp(50));
        assert_eq!(o.current(), Timestamp(100));
        assert_eq!(o.next(), Timestamp(101));
    }

    #[test]
    fn starting_at_resumes() {
        let o = TimestampOracle::starting_at(Timestamp(41));
        assert_eq!(o.next(), Timestamp(42));
    }

    #[test]
    fn concurrent_issuance_is_unique() {
        let o = TimestampOracle::new();
        let mut all = Vec::new();
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let o = o.clone();
                    s.spawn(move || (0..1000).map(|_| o.next().0).collect::<Vec<_>>())
                })
                .collect();
            for h in handles {
                all.extend(h.join().unwrap());
            }
        });
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000);
    }

    #[test]
    fn snapshot_excludes_inflight_reservations() {
        let o = TimestampOracle::new();
        o.next(); // ts 1, fully applied by definition
        assert_eq!(o.snapshot(), Timestamp(1));
        let r2 = o.reserve(); // ts 2, applying
        let r3 = o.reserve(); // ts 3, applying
        assert_eq!(r2.timestamp(), Timestamp(2));
        assert_eq!(r3.timestamp(), Timestamp(3));
        assert_eq!(o.current(), Timestamp(3));
        // Snapshots stay below the oldest in-flight commit.
        assert_eq!(o.snapshot(), Timestamp(1));
        drop(r3);
        assert_eq!(o.snapshot(), Timestamp(1), "ts 2 still applying");
        drop(r2);
        assert_eq!(
            o.snapshot(),
            Timestamp(3),
            "all applied: snapshot catches up"
        );
    }

    #[test]
    fn snapshot_at_least_waits_for_older_reservations_up_to_the_timeout() {
        let o = TimestampOracle::new();
        let older = o.reserve(); // ts 1, still applying
        let mine = o.reserve().timestamp(); // ts 2, applied at once
        let wait = Duration::from_millis(20);
        assert_eq!(
            o.snapshot_at_least(mine, wait),
            Timestamp(0),
            "timed out: the snapshot as it stands"
        );
        std::thread::scope(|s| {
            s.spawn(move || {
                std::thread::sleep(Duration::from_millis(5));
                drop(older);
            });
            assert_eq!(o.snapshot_at_least(mine, Duration::from_secs(10)), mine);
        });
        assert_eq!(o.snapshot_at_least(mine, Duration::ZERO), mine, "no wait");
    }

    #[test]
    fn reservations_interleave_with_plain_issues() {
        let o = TimestampOracle::new();
        let r = o.reserve(); // ts 1
        let plain = o.next(); // ts 2
        assert_eq!(plain, Timestamp(2));
        assert_eq!(o.snapshot(), Timestamp(0), "reservation 1 pins snapshot");
        drop(r);
        assert_eq!(o.snapshot(), Timestamp(2));
    }

    #[test]
    fn concurrent_reserve_snapshot_invariant() {
        // Property: a snapshot never equals or exceeds a reservation
        // that is still in flight at the moment of the call.
        let o = TimestampOracle::new();
        std::thread::scope(|s| {
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            for _ in 0..4 {
                let o = o.clone();
                let stop = Arc::clone(&stop);
                s.spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        let r = o.reserve();
                        let snap = o.snapshot();
                        assert!(
                            snap < r.timestamp(),
                            "snapshot {snap} saw in-flight reservation {}",
                            r.timestamp()
                        );
                        drop(r);
                    }
                });
            }
            let o2 = o.clone();
            s.spawn(move || {
                for _ in 0..20_000 {
                    let _ = o2.snapshot();
                }
                stop.store(true, Ordering::Relaxed);
            });
        });
    }
}
