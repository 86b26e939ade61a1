//! # domino-obs — the unified telemetry layer
//!
//! One measurement substrate for the whole workspace, reproducing the
//! operational surface Mohan's tutorial leans on: Domino's
//! `show statistics` console, per-database activity counters, and the
//! slow-transaction log.
//!
//! Five pieces:
//!
//! * **Metrics registry** ([`counter`], [`gauge`], [`histogram`]) —
//!   process-wide metrics interned once under hierarchical Domino-style
//!   dotted names (`Database.Pool.Hits`, `Log.GroupCommit.Flushes`,
//!   `View.Rebuild.Millis`, `Replica.Pass.NotesPushed`). Registration
//!   takes a lock *once*; the returned `&'static` handles record with
//!   relaxed atomics only — an increment or histogram sample on a hot
//!   path acquires no lock and allocates nothing.
//! * **Tracing spans** ([`span!`], [`SpanGuard`]) — named timing scopes
//!   with a per-thread span stack and a fixed-size slow-op ring buffer:
//!   any operation over the configurable threshold
//!   ([`set_slow_threshold`]) is captured with its full span path.
//! * **Exposition** ([`show_statistics`], [`snapshot`],
//!   [`Snapshot::diff`]) — the Domino console text dump plus a
//!   machine-readable snapshot/diff API so the bench harness records
//!   metric deltas per experiment.
//! * **Event bus** ([`emit`], [`drain`], [`Event`]) — a bounded
//!   lock-free ring of structured events (kind, severity, code, typed
//!   fields) that the `log.nsf` logger task drains; emission never
//!   blocks a hot path (overflow counts into `Obs.Event.Dropped`), and
//!   the drainer's [`suppress`] guard keeps the log from logging itself.
//! * **Task roster** ([`register_task`], [`show_tasks`]) — every
//!   background thread (checkpointer, amgr, logger, probes) registers
//!   and heart-beats here, reproducing the Domino `show tasks` console.
//!
//! ## Naming convention
//!
//! `Subsystem.Object.Event` in UpperCamelCase segments, as on a Domino
//! console: counters name events in the plural (`…​.Hits`, `…​.Flushes`),
//! gauges name levels (`…​.Entries`), histograms name a quantity with its
//! unit as the last segment (`…​.Millis`, `…​.Micros`, `…​.Nanos`) and
//! expand to `.Samples`/`.Avg`/`.Max`/`.P50`/`.P95`/`.P99` lines in the
//! console dump.
//!
//! ## Wiring pattern
//!
//! Each crate caches its handles once in a `OnceLock` struct so hot paths
//! pay one atomic load to reach them:
//!
//! ```
//! use std::sync::OnceLock;
//! use domino_obs as obs;
//!
//! struct Metrics {
//!     saves: &'static obs::Counter,
//!     save_nanos: &'static obs::Histogram,
//! }
//!
//! fn m() -> &'static Metrics {
//!     static M: OnceLock<Metrics> = OnceLock::new();
//!     M.get_or_init(|| Metrics {
//!         saves: obs::counter("Example.Notes.Saved"),
//!         save_nanos: obs::histogram("Example.Save.Nanos"),
//!     })
//! }
//!
//! fn save() {
//!     let _span = obs::span!("Example.Save", m().save_nanos);
//!     m().saves.inc();
//! }
//!
//! save();
//! assert_eq!(obs::snapshot().counter("Example.Notes.Saved"), 1);
//! ```

#![deny(missing_docs)]

pub mod event;
mod expo;
mod hist;
mod registry;
mod span;
pub mod task;

pub use event::{
    drain, emit, is_suppressed, pending, process_nanos, suppress, Event, EventKind, FieldValue,
    Severity, SuppressGuard, EVENT_RING_CAPACITY,
};
pub use expo::{render_statistics, show_statistics, touch_server_gauges};
pub use hist::{HistTimer, Histogram, HistogramSnapshot, BUCKETS};
pub use registry::{
    counter, gauge, histogram, snapshot, Counter, Gauge, Metric, MetricValue, Snapshot,
};
pub use span::{
    current_path, enter, enter_timed, set_slow_threshold, slow_ops, slow_threshold, take_slow_ops,
    SlowOp, SpanGuard, SLOW_LOG_CAPACITY,
};
pub use task::{
    register_task, show_tasks, spawn_periodic, tasks, TaskHandle, TaskInfo, TaskThread, Wake,
};
