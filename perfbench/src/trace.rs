//! The traced run's instruments: an in-memory span recorder, and
//! benchmark-side wrappers around the program's `LogStore`, `Disk` and
//! `Transport` implementations that time every call the program makes
//! through them.
//!
//! Spans nest through a thread-local stack, so a wrapper call made while
//! the benchmark holds a span open on the same thread (for example inside
//! `DominoServer::handle`) becomes that span's child. Spans are kept in
//! memory and only summarised when the run ends.

use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

use domino_replica::Transport;
use domino_storage::{Disk, PageBuf, PageId};
use domino_types::Result;
use domino_wal::{LogStore, Lsn};

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

fn spans() -> &'static Mutex<Vec<SpanRec>> {
    static SPANS: OnceLock<Mutex<Vec<SpanRec>>> = OnceLock::new();
    SPANS.get_or_init(|| Mutex::new(Vec::new()))
}

thread_local! {
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// One finished span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    /// 0 for a root span.
    pub parent: u64,
    pub name: &'static str,
    pub layer: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl SpanRec {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Turn span recording on or off (off: `span` returns an inert guard).
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Take every span recorded so far.
pub fn take() -> Vec<SpanRec> {
    std::mem::take(&mut *spans().lock().expect("span buffer poisoned"))
}

/// An open span; records itself when dropped.
pub struct Span {
    open: Option<(u64, u64, &'static str, &'static str, Instant)>,
}

/// Open a span named `name` in `layer`, a child of the innermost span
/// open on this thread.
pub fn span(name: &'static str, layer: &'static str) -> Span {
    if !enabled() {
        return Span { open: None };
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = STACK.with(|s| {
        let mut s = s.borrow_mut();
        let p = s.last().copied().unwrap_or(0);
        s.push(id);
        p
    });
    Span {
        open: Some((id, parent, name, layer, Instant::now())),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((id, parent, name, layer, start)) = self.open.take() else {
            return;
        };
        let end = Instant::now();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let base = epoch();
        let rec = SpanRec {
            id,
            parent,
            name,
            layer,
            start_ns: start.saturating_duration_since(base).as_nanos() as u64,
            end_ns: end.saturating_duration_since(base).as_nanos() as u64,
        };
        if let Ok(mut v) = spans().lock() {
            v.push(rec);
        }
    }
}

/// Per-root-span totals: for every root span name, how many there were,
/// their summed duration, and the summed self time of each layer beneath
/// them (the root's own layer included).
#[derive(Debug, Default, Clone)]
pub struct Breakdown {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: HashMap<&'static str, u64>,
}

/// Group spans by the name of their root and sum self times by layer. A
/// span's self time is its duration minus that of its direct children.
pub fn breakdown(spans: &[SpanRec]) -> HashMap<&'static str, Breakdown> {
    let by_id: HashMap<u64, &SpanRec> = spans.iter().map(|s| (s.id, s)).collect();
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    fn root_of<'a>(by_id: &HashMap<u64, &'a SpanRec>, mut s: &'a SpanRec) -> &'a SpanRec {
        while let Some(p) = by_id.get(&s.parent) {
            s = p;
        }
        s
    }
    let mut out: HashMap<&'static str, Breakdown> = HashMap::new();
    for s in spans {
        let root = root_of(&by_id, s);
        if s.parent != 0 && !by_id.contains_key(&s.parent) {
            continue; // parent not recorded (tracing toggled mid-span)
        }
        let b = out.entry(root.name).or_default();
        if s.parent == 0 {
            b.count += 1;
            b.total_ns += s.dur_ns();
        }
        let own = s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        *b.self_ns.entry(s.layer).or_default() += own;
    }
    out
}

/// Call counts and busy time of one wrapped operation.
#[derive(Debug, Default)]
pub struct OpStat {
    pub calls: AtomicU64,
    pub nanos: AtomicU64,
    pub bytes: AtomicU64,
}

impl OpStat {
    fn record(&self, started: Instant, bytes: u64) {
        self.calls.fetch_add(1, Ordering::Relaxed);
        self.nanos
            .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    pub fn read(&self) -> (u64, u64, u64) {
        (
            self.calls.load(Ordering::Relaxed),
            self.nanos.load(Ordering::Relaxed),
            self.bytes.load(Ordering::Relaxed),
        )
    }
}

/// Counters filled by the wrappers, shared by every database of a run.
#[derive(Debug, Default)]
pub struct IoStats {
    pub log_append: OpStat,
    pub log_sync: OpStat,
    pub disk_read: OpStat,
    pub disk_write: OpStat,
    pub disk_sync: OpStat,
    pub wire: OpStat,
}

/// A frozen copy of [`IoStats`], for diffs between phases.
#[derive(Debug, Default, Clone, Copy)]
pub struct IoSnap {
    pub log_append: (u64, u64, u64),
    pub log_sync: (u64, u64, u64),
    pub disk_read: (u64, u64, u64),
    pub disk_write: (u64, u64, u64),
    pub disk_sync: (u64, u64, u64),
    pub wire: (u64, u64, u64),
}

impl IoStats {
    pub fn snap(&self) -> IoSnap {
        IoSnap {
            log_append: self.log_append.read(),
            log_sync: self.log_sync.read(),
            disk_read: self.disk_read.read(),
            disk_write: self.disk_write.read(),
            disk_sync: self.disk_sync.read(),
            wire: self.wire.read(),
        }
    }
}

fn sub3(a: (u64, u64, u64), b: (u64, u64, u64)) -> (u64, u64, u64) {
    (a.0 - b.0, a.1 - b.1, a.2 - b.2)
}

impl IoSnap {
    pub fn since(&self, earlier: &IoSnap) -> IoSnap {
        IoSnap {
            log_append: sub3(self.log_append, earlier.log_append),
            log_sync: sub3(self.log_sync, earlier.log_sync),
            disk_read: sub3(self.disk_read, earlier.disk_read),
            disk_write: sub3(self.disk_write, earlier.disk_write),
            disk_sync: sub3(self.disk_sync, earlier.disk_sync),
            wire: sub3(self.wire, earlier.wire),
        }
    }
}

/// Mean microseconds per call of a `(calls, nanos, bytes)` triple.
pub fn mean_us(t: (u64, u64, u64)) -> f64 {
    if t.0 == 0 {
        0.0
    } else {
        t.1 as f64 / t.0 as f64 / 1000.0
    }
}

/// `LogStore` wrapper around the program's file log.
pub struct TracedLog<S: LogStore> {
    pub inner: S,
    pub stats: Arc<IoStats>,
}

impl<S: LogStore> LogStore for TracedLog<S> {
    fn append(&self, bytes: &[u8]) -> Result<()> {
        let _s = span("wal.append", "wal");
        let t = Instant::now();
        let r = self.inner.append(bytes);
        self.stats.log_append.record(t, bytes.len() as u64);
        r
    }

    fn sync(&self) -> Result<()> {
        let _s = span("wal.sync", "wal");
        let t = Instant::now();
        let r = self.inner.sync();
        self.stats.log_sync.record(t, 0);
        r
    }

    fn read_from(&self, from: u64) -> Result<Vec<u8>> {
        self.inner.read_from(from)
    }

    fn len(&self) -> Result<u64> {
        self.inner.len()
    }

    fn start(&self) -> Result<u64> {
        self.inner.start()
    }

    fn is_empty(&self) -> Result<bool> {
        self.inner.is_empty()
    }

    fn set_master(&self, lsn: Lsn) -> Result<()> {
        self.inner.set_master(lsn)
    }

    fn get_master(&self) -> Result<Lsn> {
        self.inner.get_master()
    }

    fn truncate_prefix(&self, upto: u64) -> Result<()> {
        self.inner.truncate_prefix(upto)
    }

    fn truncate_all(&self) -> Result<()> {
        self.inner.truncate_all()
    }
}

/// `Disk` wrapper around the program's NSF file.
pub struct TracedDisk<D: Disk> {
    pub inner: D,
    pub stats: Arc<IoStats>,
}

impl<D: Disk> Disk for TracedDisk<D> {
    fn read_page(&self, id: PageId, buf: &mut PageBuf) -> Result<()> {
        let _s = span("storage.read", "storage");
        let t = Instant::now();
        let r = self.inner.read_page(id, buf);
        self.stats.disk_read.record(t, 0);
        r
    }

    fn write_page(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        let _s = span("storage.write", "storage");
        let t = Instant::now();
        let r = self.inner.write_page(id, buf);
        self.stats.disk_write.record(t, 0);
        r
    }

    fn write_page_raw(&self, id: PageId, buf: &PageBuf) -> Result<()> {
        self.inner.write_page_raw(id, buf)
    }

    fn sync(&self) -> Result<()> {
        let _s = span("storage.sync", "storage");
        let t = Instant::now();
        let r = self.inner.sync();
        self.stats.disk_sync.record(t, 0);
        r
    }

    fn set_recovery_lsn(&self, lsn: u64) -> Result<()> {
        self.inner.set_recovery_lsn(lsn)
    }

    fn recovery_lsn(&self) -> Result<u64> {
        self.inner.recovery_lsn()
    }

    fn page_count(&self) -> Result<u32> {
        self.inner.page_count()
    }

    fn size_bytes(&self) -> Result<u64> {
        self.inner.size_bytes()
    }
}

/// `Transport` wrapper that delegates to the socket transport and times
/// every wire round trip.
pub struct TracedTransport<T: Transport> {
    pub inner: T,
    pub stats: Arc<IoStats>,
}

impl<T: Transport> Transport for TracedTransport<T> {
    fn deliver(&mut self, notes: u64) -> Result<()> {
        let _s = span("netio.wire", "netio");
        let t = Instant::now();
        let r = self.inner.deliver(notes);
        self.stats.wire.record(t, notes);
        r
    }
}
