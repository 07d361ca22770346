//! In-memory spans recorded from the benchmark's own code, around its
//! calls into each layer. Each thread buffers its own spans; the run
//! collects them at the end and writes them out once.

use logbase_cluster::Transport;
use logbase_common::rpc::{Request, Response};
use logbase_common::Result;
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// One timed interval at a layer boundary.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    /// Request the span serves; spans of one request share it.
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

static NEXT_ID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static SPANS: RefCell<Vec<Span>> = const { RefCell::new(Vec::new()) };
    /// `(span id, request id)` of the open root span on this thread.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Nanoseconds since the first call in this process.
pub fn now_ns() -> u64 {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    EPOCH.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

/// Record a finished span on this thread.
pub fn record(parent: u64, req: u64, name: &'static str, start_ns: u64, end_ns: u64) {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    SPANS.with(|s| {
        s.borrow_mut().push(Span {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        })
    });
}

/// Run `f` under a root span `name` for request `req`; spans recorded
/// by the [`TimingTransport`] meanwhile become its children.
pub fn root<T>(name: &'static str, req: u64, f: impl FnOnce() -> T) -> T {
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    CURRENT.with(|c| c.set((id, req)));
    let start = now_ns();
    let out = f();
    let end = now_ns();
    CURRENT.with(|c| c.set((0, 0)));
    SPANS.with(|s| {
        s.borrow_mut().push(Span {
            id,
            parent: 0,
            req,
            name,
            start_ns: start,
            end_ns: end,
        })
    });
    out
}

/// Take every span this thread recorded.
pub fn drain() -> Vec<Span> {
    SPANS.with(|s| std::mem::take(&mut *s.borrow_mut()))
}

/// A [`Transport`] decorator that records a `transport.call` span per
/// call, parented to the open root span of the calling thread.
pub struct TimingTransport<T> {
    pub inner: T,
}

impl<T: Transport> Transport for TimingTransport<T> {
    fn call(&self, member: u32, req: Request, deadline: Instant) -> Result<Response> {
        let start = now_ns();
        let out = self.inner.call(member, req, deadline);
        let (parent, id) = CURRENT.with(Cell::get);
        record(parent, id, "transport.call", start, now_ns());
        out
    }

    fn name(&self) -> &'static str {
        self.inner.name()
    }
}
