//! The Notes database: notes + design + ACL + deletion stubs in one store.
//!
//! A [`Database`] owns a storage engine (with WAL), a [`NoteStore`], and a
//! clock. It is identified two ways, as in Domino:
//!
//! * the **replica id** — shared by every replica of the *same* database;
//!   replication refuses to pair databases with different replica ids,
//! * the **instance id** — unique per physical replica; it seeds UNID and
//!   note-id generation so ids never collide across replicas.
//!
//! Deleting a note leaves a [`DeletionStub`] carrying the note's UNID and a
//! bumped sequence number, so the deletion itself replicates; stubs are
//! purged after the database's *purge interval* (E8 reproduces the classic
//! anomaly when that interval is shorter than the replication interval).
//!
//! Change observers ([`Database::subscribe`]) receive every save/delete
//! after the transaction commits — this is how view indexes and the
//! full-text index stay incremental. Bulk writers wrap their work in
//! [`Database::begin_batch`]: events buffer until the batch guard drops,
//! are coalesced (last write per UNID wins, with the surviving event's
//! `old` patched to the pre-batch state), and batch observers
//! ([`Database::subscribe_batch`]) then receive the whole slice at once —
//! fanned out across observers in parallel — so a view index evaluates a
//! thousand-save import as one parallel batch instead of a thousand
//! single-document updates.

use std::ops::ControlFlow;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use parking_lot::Mutex;
use rayon::prelude::*;

use domino_formula::{EvalEnv, Formula};
use domino_obs as obs;
use domino_security::Acl;
use domino_storage::{Engine, EngineConfig, MemDisk, NoteStore, Segment};
use domino_types::{
    Clock, DominoError, ItemFlags, LogicalClock, NoteClass, NoteId, Oid, ReplicaId, Result,
    Timestamp, Unid, Value,
};
use domino_wal::MemLogStore;

use crate::lock::{ExclusiveGuard, LockStats, LockTable};
use crate::merkle::MerkleSummary;
use crate::mvcc::{Snapshot, SnapshotStats, VersionStore};
use crate::note::{record_is_stub, DeletionStub, Note};
use crate::revision;

use domino_types::ContentHash;

/// Registry handles for note-CRUD and compaction telemetry, summed
/// across every open database in the process.
struct Metrics {
    saved: &'static obs::Counter,
    deleted: &'static obs::Counter,
    opened: &'static obs::Counter,
    save_micros: &'static obs::Histogram,
    compact_runs: &'static obs::Counter,
    compact_notes_copied: &'static obs::Counter,
    compact_bytes_reclaimed: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        saved: obs::counter("Database.Notes.Saved"),
        deleted: obs::counter("Database.Notes.Deleted"),
        opened: obs::counter("Database.Notes.Opened"),
        save_micros: obs::histogram("Database.Save.Micros"),
        compact_runs: obs::counter("Database.Compact.Runs"),
        compact_notes_copied: obs::counter("Database.Compact.NotesCopied"),
        compact_bytes_reclaimed: obs::counter("Database.Compact.BytesReclaimed"),
    })
}

/// Tree slot for the modified-time index: key `(seq_time << 32) | note_id`.
const TREE_SEQ_INDEX: usize = 2;
/// User slot holding the shared replica (lineage) id.
const SLOT_LINEAGE: usize = 2;
/// User slot holding the purge interval in ticks.
const SLOT_PURGE: usize = 3;
/// User slot holding the per-open UNID disambiguation counter seed.
const SLOT_ACL_NOTE: usize = 4;

/// Default purge interval (ticks). Domino defaults to 90 days of its
/// replication-cutoff setting; any value works with the logical clock.
pub const DEFAULT_PURGE_INTERVAL: u64 = 1_000_000;

/// Default per-note lock acquisition timeout (the deadlock backstop).
pub const DEFAULT_LOCK_TIMEOUT: Duration = Duration::from_secs(5);

/// Sentinel lock key used when the per-note lock table is disabled:
/// every writer queues on this one key, reproducing the single-writer
/// database semaphore (the E16 baseline). Generated UNIDs embed a
/// timestamp and replica id, so no real note ever collides with it.
const GLOBAL_WRITE_KEY: Unid = Unid(0);

/// A change applied to the database.
#[derive(Debug, Clone)]
pub enum ChangeEvent {
    /// A note was created or updated. `old` is `None` for creations.
    Saved { old: Option<Note>, new: Note },
    /// A note was deleted, leaving `stub`.
    Deleted { old: Note, stub: DeletionStub },
}

type Observer = Arc<dyn Fn(&ChangeEvent) + Send + Sync>;

/// An observer that receives a whole coalesced commit batch at once
/// (registered with [`Database::subscribe_batch`]). Outside a batch every
/// change arrives as a one-event slice, so a batch observer sees *every*
/// change either way.
pub type BatchObserver = Arc<dyn Fn(&[ChangeEvent]) + Send + Sync>;

/// Event buffering while a [`BatchGuard`] is open.
#[derive(Default)]
struct BatchState {
    /// Nesting depth of open batch guards; events buffer while > 0.
    depth: u32,
    buffered: Vec<ChangeEvent>,
}

/// RAII handle for a change batch: events buffer while it lives and flush
/// (coalesced) when the outermost guard drops. Nesting is allowed — inner
/// guards extend the outer batch.
pub struct BatchGuard<'a> {
    db: &'a Database,
}

impl Drop for BatchGuard<'_> {
    fn drop(&mut self) {
        let flushed = {
            let mut b = self.db.batch_state.lock();
            b.depth -= 1;
            if b.depth == 0 {
                std::mem::take(&mut b.buffered)
            } else {
                Vec::new()
            }
        };
        if !flushed.is_empty() {
            self.db.dispatch(&coalesce(flushed));
        }
    }
}

/// Collapse a buffered batch to one event per UNID: the last event wins
/// (in last-occurrence order), and a surviving `Saved` gets its `old`
/// patched to the note's *pre-batch* state, so replaying the coalesced
/// batch moves observers from the pre-batch state to the post-batch state
/// exactly as replaying every event would. A `Deleted` for a note created
/// inside the batch survives as-is; removing a never-seen note is a no-op
/// for observers.
fn coalesce(events: Vec<ChangeEvent>) -> Vec<ChangeEvent> {
    if events.len() <= 1 {
        return events;
    }
    let mut first_prior: std::collections::HashMap<Unid, Option<Note>> = Default::default();
    let mut last_idx: std::collections::HashMap<Unid, usize> = Default::default();
    for (i, e) in events.iter().enumerate() {
        let (unid, prior) = match e {
            ChangeEvent::Saved { old, new } => (new.unid(), old.clone()),
            ChangeEvent::Deleted { old, .. } => (old.unid(), Some(old.clone())),
        };
        first_prior.entry(unid).or_insert(prior);
        last_idx.insert(unid, i);
    }
    let mut out = Vec::with_capacity(last_idx.len());
    for (i, e) in events.into_iter().enumerate() {
        let unid = match &e {
            ChangeEvent::Saved { new, .. } => new.unid(),
            ChangeEvent::Deleted { old, .. } => old.unid(),
        };
        if last_idx[&unid] != i {
            continue;
        }
        out.push(match e {
            ChangeEvent::Saved { new, .. } => ChangeEvent::Saved {
                old: first_prior.remove(&unid).flatten(),
                new,
            },
            deleted => deleted,
        });
    }
    out
}

/// Summary entry for replication: one changed thing since a cutoff.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChangedNote {
    pub id: NoteId,
    pub oid: Oid,
    pub is_stub: bool,
}

/// How `Database::open` seeds the snapshot map and Merkle summary from
/// pre-existing engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SeedMode {
    /// Read only each note's summary segment at open; bodies load on
    /// first read (and writers backfill pre-images before overwriting).
    /// Opening a body-heavy database touches no body pages at all.
    #[default]
    Lazy,
    /// Load every note in full at open (the pre-lazy behavior, kept for
    /// comparison — experiment E2 measures the difference).
    Eager,
}

/// Configuration for opening a database.
#[derive(Clone)]
pub struct DbConfig {
    pub title: String,
    /// Lineage id shared by all replicas of this database.
    pub replica_id: ReplicaId,
    /// Unique id of this physical replica.
    pub instance_id: ReplicaId,
    pub purge_interval: u64,
    pub engine: EngineConfig,
    /// How long a writer waits for a contended note lock before giving
    /// up with [`DominoError::Unavailable`].
    pub lock_timeout: Duration,
    /// Per-note write locks (default). When `false`, every writer
    /// serializes on one global lock — the pre-concurrency behavior,
    /// kept for comparison (experiment E16).
    pub use_lock_table: bool,
    /// Snapshot/Merkle seeding strategy at open (default: lazy).
    pub seed_mode: SeedMode,
}

impl DbConfig {
    pub fn new(title: &str, replica_id: ReplicaId, instance_id: ReplicaId) -> DbConfig {
        DbConfig {
            title: title.to_string(),
            replica_id,
            instance_id,
            purge_interval: DEFAULT_PURGE_INTERVAL,
            engine: EngineConfig::default(),
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
            use_lock_table: true,
            seed_mode: SeedMode::default(),
        }
    }

    pub fn with_purge_interval(mut self, ticks: u64) -> DbConfig {
        self.purge_interval = ticks;
        self
    }

    pub fn with_engine(mut self, engine: EngineConfig) -> DbConfig {
        self.engine = engine;
        self
    }

    pub fn with_lock_timeout(mut self, timeout: Duration) -> DbConfig {
        self.lock_timeout = timeout;
        self
    }

    pub fn with_lock_table(mut self, enabled: bool) -> DbConfig {
        self.use_lock_table = enabled;
        self
    }

    pub fn with_seed_mode(mut self, mode: SeedMode) -> DbConfig {
        self.seed_mode = mode;
        self
    }
}

struct DbInner {
    engine: Engine,
    store: NoteStore,
    title: String,
    replica_id: ReplicaId,
    instance_id: ReplicaId,
    purge_interval: u64,
    unid_counter: u16,
    unread: std::collections::HashMap<String, std::collections::HashSet<Unid>>,
}

/// Handle to a background checkpointer thread started by
/// [`Database::start_checkpointer`]. Stops and joins the thread on drop.
pub use domino_obs::TaskThread as CheckpointerHandle;

/// A Notes database. Thread-safe; share via `Arc<Database>`.
///
/// Concurrency model (DESIGN.md §concurrency): writers take a per-note
/// lock from `locks`, then the `inner` engine mutex for the actual
/// transaction, and publish every committed state into `versions`.
/// Readers pin a [`Snapshot`] from `versions` and never touch either
/// writer lock. Lock order is note lock → `inner` → version map.
pub struct Database {
    inner: Arc<Mutex<DbInner>>,
    observers: Mutex<Vec<Observer>>,
    batch_observers: Mutex<Vec<BatchObserver>>,
    batch_state: Mutex<BatchState>,
    clock: LogicalClock,
    versions: Arc<VersionStore>,
    /// Merkle summary over UNID space (`root → buckets → (unid, head)`),
    /// updated in the same critical section that publishes each commit
    /// into `versions` — so the digests always describe a committed
    /// prefix of the change sequence.
    merkle: Mutex<MerkleSummary>,
    locks: LockTable,
    lock_enabled: bool,
}

impl Database {
    /// Open an in-memory database (fresh MemDisk + MemLogStore).
    pub fn open_in_memory(config: DbConfig, clock: LogicalClock) -> Result<Database> {
        Database::open(
            Box::new(MemDisk::new()),
            Some(Box::new(MemLogStore::new())),
            config,
            clock,
        )
    }

    /// Open a real on-disk database: the single NSF file at `path` plus
    /// its transaction log as a sibling file with a `.txn` extension
    /// (Domino keeps its log outside the NSF too; the superblock carries
    /// the recovery-start LSN). If the database crashed, the on-disk log
    /// tail is replayed here and exactly the committed prefix survives.
    pub fn open_path(
        path: &std::path::Path,
        config: DbConfig,
        clock: LogicalClock,
    ) -> Result<Database> {
        let disk = domino_storage::NsfFile::open(path)?;
        let log = domino_wal::FileLogStore::open(&path.with_extension("txn"))?;
        Database::open(Box::new(disk), Some(Box::new(log)), config, clock)
    }

    /// Open over explicit disk/log stores (used for crash/reopen tests and
    /// file-backed databases).
    pub fn open(
        disk: Box<dyn domino_storage::Disk>,
        log: Option<Box<dyn domino_wal::LogStore>>,
        config: DbConfig,
        clock: LogicalClock,
    ) -> Result<Database> {
        let mut engine = Engine::open(disk, log, config.engine.clone())?;
        let mut tx = engine.begin()?;
        let store = NoteStore::open(&mut engine, &mut tx, config.instance_id)?;
        // Persist lineage + purge settings on first open.
        if engine.user_slot(SLOT_LINEAGE)? == 0 {
            engine.set_user_slot(&mut tx, SLOT_LINEAGE, config.replica_id.0)?;
            engine.set_user_slot(&mut tx, SLOT_PURGE, config.purge_interval)?;
        }
        let replica_id = ReplicaId(engine.user_slot(SLOT_LINEAGE)?);
        let purge_interval = engine.user_slot(SLOT_PURGE)?;
        let instance_id = store.replica_id(&mut engine)?;
        // The seq index tree.
        domino_storage::BTree::open(&mut engine, &mut tx, TREE_SEQ_INDEX)?;
        engine.commit(tx)?;

        let mut inner = DbInner {
            engine,
            store,
            title: config.title,
            replica_id,
            instance_id,
            purge_interval,
            unid_counter: 0,
            unread: Default::default(),
        };

        // Seed the version map with pre-existing engine state at seq 0,
        // so snapshots of a reopened (or crash-recovered) database see
        // everything that survived — and the Merkle summary with every
        // surviving head (live notes *and* deletion stubs). Both the
        // Merkle head and the snapshot identity of a note derive entirely
        // from its summary items (revision chain, OID, truncation marker
        // are all summary), so lazy mode reads *only* the summary segment
        // here — a body-heavy database opens without touching one body
        // page — and marks notes with a stored body segment as elided
        // for read-time hydration.
        let versions = Arc::new(VersionStore::new());
        let mut merkle = MerkleSummary::new();
        let mut ids = Vec::new();
        inner.store.for_each_note(&mut inner.engine, |id| {
            ids.push(id);
            true
        })?;
        for id in ids {
            let Some(bytes) = inner.store.get(&mut inner.engine, id, Segment::Summary)? else {
                continue;
            };
            if record_is_stub(&bytes) {
                let stub = DeletionStub::decode(id, &bytes)?;
                merkle.set_head(stub.oid.unid, Some(revision::stub_head(&stub.oid)));
                continue;
            }
            match config.seed_mode {
                SeedMode::Lazy => {
                    let note = Note::decode(id, &bytes, None)?;
                    let elided = inner
                        .store
                        .has_segment(&mut inner.engine, id, Segment::Body)?;
                    merkle.set_head(note.unid(), Some(revision::merkle_head(&note)));
                    versions.seed(note.unid(), id, Arc::new(note), elided);
                }
                SeedMode::Eager => {
                    let body = inner.store.get(&mut inner.engine, id, Segment::Body)?;
                    let note = Note::decode(id, &bytes, body.as_deref())?;
                    merkle.set_head(note.unid(), Some(revision::merkle_head(&note)));
                    versions.seed(note.unid(), id, Arc::new(note), false);
                }
            }
        }
        versions.set_acl_note(inner.engine.user_slot(SLOT_ACL_NOTE)?);

        let inner = Arc::new(Mutex::new(inner));
        let loader_inner = Arc::clone(&inner);
        versions.set_body_loader(Arc::new(move |id| loader_inner.lock().load(id)));

        Ok(Database {
            inner,
            observers: Mutex::new(Vec::new()),
            batch_observers: Mutex::new(Vec::new()),
            batch_state: Mutex::new(BatchState::default()),
            clock,
            versions,
            merkle: Mutex::new(merkle),
            locks: LockTable::new(config.lock_timeout),
            lock_enabled: config.use_lock_table,
        })
    }

    // ------------------------------------------------------------------
    // identity & configuration
    // ------------------------------------------------------------------

    pub fn title(&self) -> String {
        self.inner.lock().title.clone()
    }

    /// Lineage id (same across all replicas of this database).
    pub fn replica_id(&self) -> ReplicaId {
        self.inner.lock().replica_id
    }

    /// This physical replica's unique id.
    pub fn instance_id(&self) -> ReplicaId {
        self.inner.lock().instance_id
    }

    pub fn purge_interval(&self) -> u64 {
        self.inner.lock().purge_interval
    }

    pub fn set_purge_interval(&self, ticks: u64) -> Result<()> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        g.purge_interval = ticks;
        let mut tx = g.engine.begin()?;
        g.engine.set_user_slot(&mut tx, SLOT_PURGE, ticks)?;
        g.engine.commit(tx)
    }

    /// The database clock (shared; replication observes remote stamps
    /// through it).
    pub fn clock(&self) -> &LogicalClock {
        &self.clock
    }

    /// Register a change observer (views, full-text index, cluster
    /// replicator). Called after each commit, outside internal locks.
    pub fn subscribe(&self, f: Observer) {
        self.observers.lock().push(f);
    }

    /// Register a batch observer: it receives every change, but grouped —
    /// a one-event slice per commit normally, the whole coalesced batch
    /// when changes happen under [`Database::begin_batch`]. Multiple batch
    /// observers are invoked in parallel (each still sees events in order).
    pub fn subscribe_batch(&self, f: BatchObserver) {
        self.batch_observers.lock().push(f);
    }

    /// Start buffering change events. Events from every save/delete made
    /// while the returned guard lives are coalesced (last write per UNID
    /// wins) and delivered to observers together when the guard drops.
    /// Guards nest; the outermost drop flushes.
    pub fn begin_batch(&self) -> BatchGuard<'_> {
        self.batch_state.lock().depth += 1;
        BatchGuard { db: self }
    }

    /// The database *change sequence*: a process-local counter bumped once
    /// per committed save/delete (batched or not). Pollers that need a
    /// cheap "has anything changed since I last looked?" answer — the HTTP
    /// task's command cache, `OnUpdate` agent scheduling — compare the
    /// value they captured against the current one instead of subscribing.
    /// Counts commits, not dispatches: it advances even while events are
    /// buffered under [`Database::begin_batch`].
    pub fn change_seq(&self) -> u64 {
        self.versions.seq()
    }

    /// Pin a read [`Snapshot`] at the current change sequence. Snapshot
    /// reads resolve against the versioned note map and never take the
    /// writer lock; drop the snapshot to release its GC pin.
    pub fn snapshot(&self) -> Snapshot {
        self.versions.pin()
    }

    /// `Db.Snapshot.*` counters plus this database's retained-version
    /// count.
    pub fn snapshot_stats(&self) -> SnapshotStats {
        self.versions.stats()
    }

    /// Snapshots of *this* database currently pinned.
    pub fn active_snapshots(&self) -> usize {
        self.versions.active_pins()
    }

    /// Process-wide `Db.Lock.*` counters.
    pub fn lock_stats(&self) -> LockStats {
        LockTable::stats()
    }

    /// Take the write lock for a note-mutating operation. With the lock
    /// table enabled, existing notes lock on their UNID (independent
    /// writers proceed in parallel) and drafts lock nothing — a fresh
    /// UNID is unreachable by any other writer. With it disabled, every
    /// writer queues on one global key.
    fn write_lock(&self, unid: Option<Unid>) -> Result<Option<ExclusiveGuard<'_>>> {
        if self.lock_enabled {
            match unid {
                Some(u) => Ok(Some(self.locks.exclusive(u)?)),
                None => Ok(None),
            }
        } else {
            Ok(Some(self.locks.exclusive(GLOBAL_WRITE_KEY)?))
        }
    }

    fn notify(&self, event: ChangeEvent) {
        {
            let mut b = self.batch_state.lock();
            if b.depth > 0 {
                b.buffered.push(event);
                return;
            }
        }
        self.dispatch(std::slice::from_ref(&event));
    }

    /// Deliver events to all observers: per-event subscribers first (in
    /// event order), then batch subscribers — fanned out across observers
    /// in parallel, since each maintains independent state (its own view
    /// index) and an import-sized batch is expensive per observer.
    fn dispatch(&self, events: &[ChangeEvent]) {
        if events.is_empty() {
            return;
        }
        let observers: Vec<Observer> = self.observers.lock().clone();
        for event in events {
            for obs in &observers {
                obs(event);
            }
        }
        let batch_obs: Vec<BatchObserver> = self.batch_observers.lock().clone();
        match batch_obs.len() {
            0 => {}
            1 => batch_obs[0](events),
            _ => batch_obs
                .par_iter()
                .with_min_len(1)
                .for_each(|obs| obs(events)),
        }
    }

    // ------------------------------------------------------------------
    // CRUD
    // ------------------------------------------------------------------

    /// Save a note: create it if it is a draft, else update the stored
    /// copy. On return the note carries its assigned ids and stamps.
    pub fn save(&self, note: &mut Note) -> Result<()> {
        let _span = obs::span!("Database.Save");
        let _save_time = m().save_micros.time_micros();
        // Truncated copies (bodies stripped by partial replication)
        // are read-only: saving one would replicate the body loss back
        // to full replicas.
        if note.is_truncated() {
            return Err(DominoError::InvalidArgument(format!(
                "note {} is a truncated copy; fetch it in full before editing",
                note.unid()
            )));
        }
        let lock = self.write_lock(if note.is_draft() {
            None
        } else {
            Some(note.unid())
        })?;
        let event = {
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            let now = self.clock.now();
            let old = if note.is_draft() {
                // Assign identity.
                let counter = g.unid_counter;
                g.unid_counter = g.unid_counter.wrapping_add(1);
                let unid = Unid::generate(g.instance_id, now, counter);
                note.oid = Oid::new(unid, now);
                note.created = now;
                note.modified = now;
                for it in note.items_raw_mut() {
                    it.revised = now;
                }
                None
            } else {
                let old = g
                    .load(note.id)?
                    .ok_or_else(|| DominoError::NotFound(format!("note {} vanished", note.id)))?;
                if old.unid() != note.unid() {
                    return Err(DominoError::InvalidArgument(
                        "note id/unid mismatch on save".into(),
                    ));
                }
                // Optimistic concurrency: saving from a stale revision is
                // rejected (replication handles cross-replica races by
                // materializing conflict documents instead).
                if old.oid != note.oid {
                    return Err(DominoError::UpdateConflict(format!(
                        "note {} was updated (stored seq {}, yours {})",
                        note.id, old.oid.seq, note.oid.seq
                    )));
                }
                note.oid.bump(now);
                note.modified = now;
                // Field-level revision stamps: only changed items advance.
                for it in note.items_raw_mut() {
                    let prior = old
                        .items_raw()
                        .iter()
                        .find(|o| o.name.eq_ignore_ascii_case(&it.name));
                    match prior {
                        Some(p) if p.value == it.value && p.flags == it.flags => {
                            it.revised = p.revised;
                        }
                        _ => it.revised = now,
                    }
                }
                // Items dropped entirely (vs tombstoned) would break
                // field-level replication; re-add them as tombstones.
                let missing: Vec<String> = old
                    .items_raw()
                    .iter()
                    .filter(|o| {
                        !note
                            .items_raw()
                            .iter()
                            .any(|n| n.name.eq_ignore_ascii_case(&o.name))
                    })
                    .map(|o| o.name.clone())
                    .collect();
                for name in missing {
                    let mut tomb = domino_types::Item::new(name, Value::text(""));
                    tomb.flags = ItemFlags::DELETED;
                    tomb.revised = now;
                    note.set_item(tomb);
                }
                Some(old)
            };
            // Content-address this revision: hash the stamped items with
            // the previous head as parent and append to the unbounded
            // chain (drafts start a fresh chain).
            let parents: Vec<ContentHash> = revision::head_hash(note).into_iter().collect();
            let rev_hash = revision::content_hash_of(note, &parents);
            revision::push_head(note, rev_hash, note.oid.seq_time);
            g.persist(note, old.is_none())?;
            // A lazily seeded version about to be superseded gets its
            // full pre-image first, so pinned snapshots can still read
            // the old body after the engine record is overwritten.
            if let Some(o) = &old {
                self.versions.backfill(o.unid(), o);
            }
            // Publish while still holding the engine lock: commit order
            // equals change-sequence order, which is what makes snapshot
            // reads linearizable. The Merkle summary updates in the same
            // critical section for the same reason.
            self.versions
                .publish(note.unid(), note.id, Some(Arc::new(note.clone())));
            self.merkle
                .lock()
                .set_head(note.unid(), Some(revision::merkle_head(note)));
            ChangeEvent::Saved {
                old,
                new: note.clone(),
            }
        };
        drop(lock);
        m().saved.inc();
        self.notify(event);
        Ok(())
    }

    /// Write a note exactly as received from another replica: identity,
    /// stamps, and item revisions are preserved. Replaces any existing
    /// note *or stub* with the same UNID.
    pub fn save_replicated(&self, mut note: Note) -> Result<Note> {
        let lock = self.write_lock(Some(note.unid()))?;
        let event = {
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            self.clock.observe(note.oid.seq_time);
            self.clock.observe(note.modified);
            let existing = store.lookup_unid(&mut g.engine, note.unid())?;
            let old = match existing {
                Some(id) => {
                    note.id = id;
                    g.load(id)? // None if it was a stub
                }
                None => {
                    // The incoming note carries the *source's* local id;
                    // it means nothing here — allocate our own.
                    note.id = NoteId::NONE;
                    None
                }
            };
            if let Some(o) = &old {
                self.versions.backfill(o.unid(), o);
            }
            g.persist(&mut note, existing.is_none())?;
            self.versions
                .publish(note.unid(), note.id, Some(Arc::new(note.clone())));
            self.merkle
                .lock()
                .set_head(note.unid(), Some(revision::merkle_head(&note)));
            ChangeEvent::Saved {
                old,
                new: note.clone(),
            }
        };
        drop(lock);
        let note = match &event {
            ChangeEvent::Saved { new, .. } => new.clone(),
            _ => unreachable!(),
        };
        m().saved.inc();
        self.notify(event);
        Ok(note)
    }

    /// Fetch a note by local id. Deletion stubs read as `NotFound`.
    pub fn open_note(&self, id: NoteId) -> Result<Note> {
        m().opened.inc();
        self.inner
            .lock()
            .load(id)?
            .ok_or_else(|| DominoError::NotFound(format!("note {id}")))
    }

    /// Fetch only the summary items (cheap: touches no body pages).
    pub fn open_summary(&self, id: NoteId) -> Result<Note> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        let summary = store
            .get(&mut g.engine, id, Segment::Summary)?
            .ok_or_else(|| DominoError::NotFound(format!("note {id}")))?;
        if record_is_stub(&summary) {
            return Err(DominoError::NotFound(format!("note {id} is deleted")));
        }
        Note::decode(id, &summary, None)
    }

    /// Fetch the deletion stub at a local id (error if the record is a
    /// live note or absent).
    pub fn open_stub(&self, id: NoteId) -> Result<DeletionStub> {
        let mut g = self.inner.lock();
        let store = g.store;
        let summary = store
            .get(&mut g.engine, id, Segment::Summary)?
            .ok_or_else(|| DominoError::NotFound(format!("record {id}")))?;
        if !record_is_stub(&summary) {
            return Err(DominoError::NotFound(format!(
                "{id} is not a deletion stub"
            )));
        }
        DeletionStub::decode(id, &summary)
    }

    pub fn open_by_unid(&self, unid: Unid) -> Result<Note> {
        let id = {
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            store.lookup_unid(&mut g.engine, unid)?
        }
        .ok_or_else(|| DominoError::NotFound(format!("unid {unid}")))?;
        self.open_note(id)
    }

    /// Local id bound to a UNID (note or stub), if any.
    pub fn id_of_unid(&self, unid: Unid) -> Result<Option<NoteId>> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        store.lookup_unid(&mut g.engine, unid)
    }

    /// Delete a note, leaving a deletion stub.
    pub fn delete(&self, id: NoteId) -> Result<DeletionStub> {
        // Resolve the lock key (the UNID) from the version map — without
        // touching the engine lock. The authoritative load happens again
        // under the lock; a racing delete surfaces as NotFound there.
        let unid = self
            .versions
            .current_unid(id)
            .ok_or_else(|| DominoError::NotFound(format!("note {id}")))?;
        let lock = self.write_lock(Some(unid))?;
        let event = {
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            let old = g
                .load(id)?
                .ok_or_else(|| DominoError::NotFound(format!("note {id}")))?;
            let now = self.clock.now();
            let mut oid = old.oid;
            oid.bump(now);
            let stub = DeletionStub {
                id,
                oid,
                deleted_at: now,
            };
            self.versions.backfill(old.unid(), &old);
            g.write_stub(&stub, Some(old.modified))?;
            self.versions.publish(old.unid(), id, None);
            self.merkle
                .lock()
                .set_head(old.unid(), Some(revision::stub_head(&stub.oid)));
            ChangeEvent::Deleted { old, stub }
        };
        drop(lock);
        let stub = match &event {
            ChangeEvent::Deleted { stub, .. } => *stub,
            _ => unreachable!(),
        };
        m().deleted.inc();
        self.notify(event);
        Ok(stub)
    }

    /// Apply a deletion received from another replica. The stub's own OID
    /// is preserved. Returns the locally recorded stub, or `None` if the
    /// local copy is *newer* than the deletion (the caller should treat
    /// that as a conflict).
    pub fn apply_remote_deletion(&self, remote: &DeletionStub) -> Result<Option<DeletionStub>> {
        let lock = self.write_lock(Some(remote.oid.unid))?;
        let event = {
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            self.clock.observe(remote.oid.seq_time);
            let existing = store.lookup_unid(&mut g.engine, remote.oid.unid)?;
            match existing {
                Some(id) => {
                    let old = g.load(id)?;
                    if let Some(old_note) = &old {
                        if old_note.oid.winner_key() > remote.oid.winner_key() {
                            return Ok(None);
                        }
                    }
                    let stub = DeletionStub { id, ..*remote };
                    let old_modified = old.as_ref().map(|n| n.modified);
                    if let Some(o) = &old {
                        self.versions.backfill(o.unid(), o);
                    }
                    g.write_stub(&stub, old_modified)?;
                    if old.is_some() {
                        // Retract the live note from snapshot visibility;
                        // re-stubbing a stub changes nothing readers see.
                        self.versions.publish(remote.oid.unid, id, None);
                    }
                    self.merkle
                        .lock()
                        .set_head(remote.oid.unid, Some(revision::stub_head(&stub.oid)));
                    old.map(|old| ChangeEvent::Deleted { old, stub })
                }
                None => {
                    // Never seen this note: record the stub so the deletion
                    // keeps propagating.
                    let mut tx = g.engine.begin()?;
                    let id = store.alloc_note_id(&mut g.engine, &mut tx)?;
                    g.engine.commit(tx)?;
                    let stub = DeletionStub { id, ..*remote };
                    g.write_stub(&stub, None)?;
                    self.merkle
                        .lock()
                        .set_head(remote.oid.unid, Some(revision::stub_head(&stub.oid)));
                    None
                }
            }
        };
        drop(lock);
        let stub = event.as_ref().map(|e| match e {
            ChangeEvent::Deleted { stub, .. } => *stub,
            _ => unreachable!(),
        });
        if let Some(event) = event {
            self.notify(event);
        }
        Ok(stub.or(Some(*remote)))
    }

    // ------------------------------------------------------------------
    // enumeration & search
    // ------------------------------------------------------------------

    /// Ids of all live notes of a class (stubs excluded). `None` = all
    /// classes.
    pub fn note_ids(&self, class: Option<NoteClass>) -> Result<Vec<NoteId>> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        let mut ids = Vec::new();
        let mut err = None;
        #[allow(unused_variables)]
        let store = g.store;
        store.for_each_note(&mut g.engine, |id| {
            ids.push(id);
            true
        })?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            match g.load_summary(id) {
                Ok(Some(n)) if class.is_none() || Some(n.class) == class => out.push(id),
                Ok(_) => {}
                Err(e) => {
                    err = Some(e);
                    break;
                }
            }
        }
        match err {
            Some(e) => Err(e),
            None => Ok(out),
        }
    }

    /// Count of live documents.
    pub fn document_count(&self) -> Result<usize> {
        Ok(self.note_ids(Some(NoteClass::Document))?.len())
    }

    /// All documents matching a selection formula (summary-only
    /// evaluation, like a view refresh).
    pub fn search(&self, formula: &Formula, env: &EvalEnv) -> Result<Vec<Note>> {
        let ids = self.note_ids(Some(NoteClass::Document))?;
        let mut out = Vec::new();
        for id in ids {
            let note = self.open_summary(id)?;
            if formula.selects(&note, env)? {
                out.push(self.open_note(id)?);
            }
        }
        Ok(out)
    }

    /// Everything (notes and stubs) whose sequence time is `>= cutoff`,
    /// ascending by time — the replication candidate set.
    pub fn changed_since(&self, cutoff: Timestamp) -> Result<Vec<ChangedNote>> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        let lo = (cutoff.0 as u128) << 32;
        let mut ids = Vec::new();
        let seq = domino_storage::BTree::open_existing(&mut g.engine, TREE_SEQ_INDEX)?;
        seq.scan(&mut g.engine, lo, u128::MAX, |_, v| {
            ids.push(NoteId(v as u32));
            true
        })?;
        let mut out = Vec::with_capacity(ids.len());
        for id in ids {
            if let Some(entry) = g.changed_entry(id)? {
                out.push(entry);
            }
        }
        Ok(out)
    }

    /// Replication-candidate entries for an explicit UNID set (the
    /// digest-negotiated path): only the named notes/stubs are touched,
    /// so a negotiated pull costs O(differing) engine reads instead of a
    /// cutoff scan. Unknown UNIDs are skipped. Entries come back in
    /// `(seq_time, unid)` order — the same order `changed_since`-based
    /// cursors batch in.
    pub fn changed_entries_for(&self, unids: &[Unid]) -> Result<Vec<ChangedNote>> {
        let mut g = self.inner.lock();
        let store = g.store;
        let mut out = Vec::with_capacity(unids.len());
        for unid in unids {
            let Some(id) = store.lookup_unid(&mut g.engine, *unid)? else {
                continue;
            };
            if let Some(entry) = g.changed_entry(id)? {
                out.push(entry);
            }
        }
        out.sort_by_key(|c| (c.oid.seq_time, c.oid.unid.0));
        Ok(out)
    }

    /// Root digest of the Merkle summary: equal on two replicas iff they
    /// hold identical `(unid, head hash)` sets.
    pub fn merkle_root(&self) -> ContentHash {
        self.merkle.lock().root()
    }

    /// Digests of the non-empty Merkle buckets, ascending by index.
    pub fn merkle_bucket_digests(&self) -> Vec<(u32, ContentHash)> {
        self.merkle.lock().bucket_digests()
    }

    /// `(unid, head hash)` entries of one Merkle bucket.
    pub fn merkle_bucket_entries(&self, bucket: u32) -> Vec<(Unid, ContentHash)> {
        self.merkle.lock().bucket_entries(bucket)
    }

    /// Entries currently in the Merkle summary (live notes + stubs).
    pub fn merkle_len(&self) -> usize {
        self.merkle.lock().len()
    }

    /// The head hash currently recorded for a UNID (note or stub), if
    /// any.
    pub fn head_hash(&self, unid: Unid) -> Option<ContentHash> {
        self.merkle.lock().head(unid)
    }

    /// All deletion stubs.
    pub fn stubs(&self) -> Result<Vec<DeletionStub>> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        let mut ids = Vec::new();
        #[allow(unused_variables)]
        let store = g.store;
        store.for_each_note(&mut g.engine, |id| {
            ids.push(id);
            true
        })?;
        let mut out = Vec::new();
        for id in ids {
            let summary = store.get(&mut g.engine, id, Segment::Summary)?;
            if let Some(bytes) = summary {
                if record_is_stub(&bytes) {
                    out.push(DeletionStub::decode(id, &bytes)?);
                }
            }
        }
        Ok(out)
    }

    /// Remove stubs older than the purge interval. Returns how many were
    /// purged. After a stub is purged, the deletion can no longer
    /// propagate — replicating with a stale replica may resurrect the
    /// document (experiment E8).
    pub fn purge_stubs(&self) -> Result<usize> {
        let now = self.clock.peek();
        let horizon = Timestamp(now.0.saturating_sub(self.purge_interval()));
        let stubs = self.stubs()?;
        let mut purged = 0;
        for stub in stubs {
            if stub.deleted_at >= horizon {
                continue;
            }
            let lock = self.write_lock(Some(stub.oid.unid))?;
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            // Re-verify under the lock: the stub may have been purged or
            // resurrected (save_replicated) since it was listed.
            match store.get(&mut g.engine, stub.id, Segment::Summary)? {
                Some(bytes) if record_is_stub(&bytes) => {}
                _ => continue,
            }
            let mut tx = g.engine.begin()?;
            store.remove(&mut g.engine, &mut tx, stub.id)?;
            store.unbind_unid(&mut g.engine, &mut tx, stub.oid.unid)?;
            let seq = domino_storage::BTree::open_existing(&mut g.engine, TREE_SEQ_INDEX)?;
            seq.delete(&mut g.engine, &mut tx, seq_key(stub.oid.seq_time, stub.id))?;
            g.engine.commit(tx)?;
            // The purged UNID leaves the Merkle summary entirely: two
            // replicas that both purged it converge to equal digests.
            self.merkle.lock().set_head(stub.oid.unid, None);
            purged += 1;
            drop(g);
            drop(lock);
        }
        // Purged deletions also free their version-map tombstones (once
        // no snapshot pins them).
        self.versions.sweep();
        Ok(purged)
    }

    /// Response documents (direct children) of a note.
    pub fn responses_of(&self, parent: Unid) -> Result<Vec<NoteId>> {
        let ids = self.note_ids(Some(NoteClass::Document))?;
        let mut out = Vec::new();
        for id in ids {
            let n = self.open_summary(id)?;
            if n.parent() == Some(parent) {
                out.push(id);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // ACL
    // ------------------------------------------------------------------

    /// The database ACL (wide open until one is stored). Served from a
    /// snapshot, so access checks never wait on writers.
    pub fn acl(&self) -> Result<Acl> {
        self.snapshot().acl()
    }

    /// Store the ACL (as an ACL-class note, so it replicates).
    pub fn set_acl(&self, acl: &Acl) -> Result<()> {
        let acl_id = {
            let mut g = self.inner.lock();
            #[allow(unused_variables)]
            let store = g.store;
            g.engine.user_slot(SLOT_ACL_NOTE)?
        };
        let mut note = if acl_id != 0 {
            self.open_note(NoteId(acl_id as u32))?
        } else {
            Note::new(NoteClass::Acl)
        };
        note.set("Entries", Value::text_list(acl.to_lines()));
        self.save(&mut note)?;
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        let mut tx = g.engine.begin()?;
        g.engine
            .set_user_slot(&mut tx, SLOT_ACL_NOTE, note.id.0 as u64)?;
        g.engine.commit(tx)?;
        self.versions.set_acl_note(note.id.0 as u64);
        Ok(())
    }

    // ------------------------------------------------------------------
    // unread marks
    // ------------------------------------------------------------------

    /// Mark a note read for a user. (Unread tables are per-replica state
    /// and do not replicate, as in Notes.)
    pub fn mark_read(&self, user: &str, unid: Unid) {
        self.inner
            .lock()
            .unread
            .entry(user.to_lowercase())
            .or_default()
            .insert(unid);
    }

    pub fn is_read(&self, user: &str, unid: Unid) -> bool {
        self.inner
            .lock()
            .unread
            .get(&user.to_lowercase())
            .is_some_and(|s| s.contains(&unid))
    }

    /// UNIDs of documents the user has not read yet.
    pub fn unread_unids(&self, user: &str) -> Result<Vec<Unid>> {
        let ids = self.note_ids(Some(NoteClass::Document))?;
        let mut out = Vec::new();
        for id in ids {
            let unid = self.open_summary(id)?.unid();
            if !self.is_read(user, unid) {
                out.push(unid);
            }
        }
        Ok(out)
    }

    // ------------------------------------------------------------------
    // maintenance
    // ------------------------------------------------------------------

    /// Write a fuzzy checkpoint (bounds restart-recovery work and
    /// truncates the durable log below the new redo point).
    pub fn checkpoint(&self) -> Result<()> {
        self.inner.lock().engine.checkpoint()
    }

    /// Incremental fuzzy checkpoint: snapshot the dirty-page table, then
    /// write it back `pages_per_step` pages at a time, releasing the
    /// database lock between steps so writers interleave instead of
    /// stalling behind one big flush. No-op if a checkpoint is already in
    /// flight (e.g. the background checkpointer's).
    pub fn checkpoint_incremental(&self, pages_per_step: usize) -> Result<()> {
        {
            let mut g = self.inner.lock();
            if g.engine.checkpoint_in_progress() {
                return Ok(());
            }
            g.engine.begin_checkpoint()?;
        }
        loop {
            let more = self
                .inner
                .lock()
                .engine
                .checkpoint_step(pages_per_step.max(1))?;
            if !more {
                break;
            }
            // Lock released: queued writers run here.
            std::thread::yield_now();
        }
        self.inner.lock().engine.complete_checkpoint()
    }

    /// Spawn a background checkpointing thread that runs
    /// [`Database::checkpoint_incremental`] `interval` after the previous
    /// run ended. The returned handle stops and joins the thread at once
    /// when dropped (or via [`CheckpointerHandle::stop`]); the thread
    /// also exits on its own once the database is dropped.
    pub fn start_checkpointer(
        self: &Arc<Database>,
        interval: Duration,
        pages_per_step: usize,
    ) -> CheckpointerHandle {
        let weak = Arc::downgrade(self);
        let name = format!("checkpointer:{}", self.title());
        obs::spawn_periodic(&name, "Fuzzy checkpoint", interval, move |task, wake| {
            match (wake, weak.upgrade()) {
                (obs::Wake::Due, Some(db)) => {
                    // Best-effort: a failed cycle (e.g. I/O error) is
                    // retried at the next interval.
                    let _ = db.checkpoint_incremental(pages_per_step);
                    task.beat();
                    ControlFlow::Continue(())
                }
                _ => ControlFlow::Break(()),
            }
        })
    }

    /// Flush everything and truncate the log (clean shutdown).
    pub fn shutdown(&self) -> Result<()> {
        self.inner.lock().engine.shutdown()
    }

    /// Engine counters.
    pub fn engine_stats(&self) -> domino_storage::EngineStats {
        self.inner.lock().engine.stats()
    }

    /// Recovery stats from open, if restart recovery ran.
    pub fn recovery_stats(&self) -> Option<domino_wal::RecoveryStats> {
        self.inner.lock().engine.recovery
    }

    /// WAL counters (None when logging is off).
    pub fn log_stats(&self) -> Option<domino_wal::LogStats> {
        self.inner.lock().engine.wal().map(|w| w.stats())
    }

    /// Summary statistics for the database (the File → Database →
    /// Properties panel, roughly).
    pub fn info(&self) -> Result<DbInfo> {
        let mut documents = 0;
        let mut design_notes = 0;
        for id in self.note_ids(None)? {
            if self.open_summary(id)?.class == NoteClass::Document {
                documents += 1;
            } else {
                design_notes += 1;
            }
        }
        let stubs = self.stubs()?.len();
        let mut g = self.inner.lock();
        Ok(DbInfo {
            title: g.title.clone(),
            replica_id: g.replica_id,
            instance_id: g.instance_id,
            documents,
            design_notes,
            deletion_stubs: stubs,
            logical_bytes: g.engine.logical_bytes()?,
            purge_interval: g.purge_interval,
        })
    }

    /// Copy-style compaction (what `compact` does to an NSF): rebuild the
    /// database into fresh stores, carrying over every live note, stub,
    /// and identity field, and dropping all dead space (tombstoned heap
    /// records, emptied B-tree pages, the old log). Returns the new
    /// database and before/after disk sizes.
    pub fn compact_into(
        &self,
        disk: Box<dyn domino_storage::Disk>,
        log: Option<Box<dyn domino_wal::LogStore>>,
    ) -> Result<(Database, CompactStats)> {
        let mut stats = CompactStats {
            bytes_before: self.inner.lock().engine.logical_bytes()?,
            ..CompactStats::default()
        };
        let config = DbConfig {
            title: self.title(),
            replica_id: self.replica_id(),
            instance_id: self.instance_id(),
            purge_interval: self.purge_interval(),
            engine: self.inner.lock().engine.config().clone(),
            lock_timeout: self.locks.timeout(),
            use_lock_table: self.lock_enabled,
            seed_mode: SeedMode::default(),
        };
        let fresh = Database::open(disk, log, config, self.clock.clone())?;
        // Copy notes in note-id order, preserving identity and lineage
        // (save_replicated keeps OIDs/items byte-for-byte).
        for id in self.note_ids(None)? {
            let note = self.open_note(id)?;
            fresh.save_replicated(note)?;
            stats.notes_copied += 1;
        }
        for stub in self.stubs()? {
            fresh.apply_remote_deletion(&stub)?;
            stats.stubs_copied += 1;
        }
        // Preserve the local ACL-note pointer if one is set.
        let acl_slot = {
            let mut g = self.inner.lock();
            g.engine.user_slot(SLOT_ACL_NOTE)?
        };
        if acl_slot != 0 {
            fresh.set_acl(&self.acl()?)?;
        }
        fresh.checkpoint()?;
        stats.bytes_after = fresh.inner.lock().engine.logical_bytes()?;
        let reg = m();
        reg.compact_runs.inc();
        reg.compact_notes_copied.add(stats.notes_copied);
        reg.compact_bytes_reclaimed
            .add(stats.bytes_before.saturating_sub(stats.bytes_after));
        Ok((fresh, stats))
    }

    /// Pages a note's segments occupy (experiment accounting).
    pub fn pages_touched(&self, id: NoteId, summary_only: bool) -> Result<usize> {
        let mut g = self.inner.lock();
        #[allow(unused_variables)]
        let store = g.store;
        #[allow(unused_variables)]
        let store = g.store;
        let mut n = store.pages_touched(&mut g.engine, id, Segment::Summary)?;
        if !summary_only {
            n += store.pages_touched(&mut g.engine, id, Segment::Body)?;
        }
        Ok(n)
    }
}

/// Database properties snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DbInfo {
    pub title: String,
    pub replica_id: ReplicaId,
    pub instance_id: ReplicaId,
    pub documents: usize,
    pub design_notes: usize,
    pub deletion_stubs: usize,
    pub logical_bytes: u64,
    pub purge_interval: u64,
}

/// What a compaction did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactStats {
    pub notes_copied: u64,
    pub stubs_copied: u64,
    pub bytes_before: u64,
    pub bytes_after: u64,
}

fn seq_key(ts: Timestamp, id: NoteId) -> u128 {
    ((ts.0 as u128) << 32) | id.0 as u128
}

impl DbInner {
    /// Load a full note; `None` for stubs.
    fn load(&mut self, id: NoteId) -> Result<Option<Note>> {
        let Some(summary) = self.store.get(&mut self.engine, id, Segment::Summary)? else {
            return Ok(None);
        };
        if record_is_stub(&summary) {
            return Ok(None);
        }
        let body = self.store.get(&mut self.engine, id, Segment::Body)?;
        Ok(Some(Note::decode(id, &summary, body.as_deref())?))
    }

    /// Load summary only; `None` for stubs.
    fn load_summary(&mut self, id: NoteId) -> Result<Option<Note>> {
        let Some(summary) = self.store.get(&mut self.engine, id, Segment::Summary)? else {
            return Ok(None);
        };
        if record_is_stub(&summary) {
            return Ok(None);
        }
        Ok(Some(Note::decode(id, &summary, None)?))
    }

    fn changed_entry(&mut self, id: NoteId) -> Result<Option<ChangedNote>> {
        let Some(summary) = self.store.get(&mut self.engine, id, Segment::Summary)? else {
            return Ok(None);
        };
        if record_is_stub(&summary) {
            let stub = DeletionStub::decode(id, &summary)?;
            Ok(Some(ChangedNote {
                id,
                oid: stub.oid,
                is_stub: true,
            }))
        } else {
            let note = Note::decode(id, &summary, None)?;
            Ok(Some(ChangedNote {
                id,
                oid: note.oid,
                is_stub: false,
            }))
        }
    }

    /// Write a note's records + indexes in one transaction. `is_new` means
    /// no UNID binding exists yet. The note's `id` may be NONE (assigned
    /// here).
    fn persist(&mut self, note: &mut Note, is_new: bool) -> Result<()> {
        let mut tx = self.engine.begin()?;
        let result = (|| {
            // Old seq-index entry (from whatever record is there now).
            let old_seq_ts = if note.id.is_none() {
                None
            } else {
                match self
                    .store
                    .get(&mut self.engine, note.id, Segment::Summary)?
                {
                    Some(bytes) if record_is_stub(&bytes) => {
                        Some(DeletionStub::decode(note.id, &bytes)?.oid.seq_time)
                    }
                    Some(bytes) => Some(Note::decode(note.id, &bytes, None)?.oid.seq_time),
                    None => None,
                }
            };
            if note.id.is_none() {
                note.id = self.store.alloc_note_id(&mut self.engine, &mut tx)?;
            }
            let id = note.id;
            self.store.put(
                &mut self.engine,
                &mut tx,
                id,
                Segment::Summary,
                &note.encode_summary(),
            )?;
            match note.encode_body() {
                Some(body) => {
                    self.store
                        .put(&mut self.engine, &mut tx, id, Segment::Body, &body)?
                }
                None => {
                    self.store
                        .remove_segment(&mut self.engine, &mut tx, id, Segment::Body)?;
                }
            }
            if is_new {
                self.store
                    .bind_unid(&mut self.engine, &mut tx, note.unid(), id)?;
            }
            let seq = domino_storage::BTree::open_existing(&mut self.engine, TREE_SEQ_INDEX)?;
            if let Some(old_ts) = old_seq_ts {
                seq.delete(&mut self.engine, &mut tx, seq_key(old_ts, id))?;
            }
            seq.insert(
                &mut self.engine,
                &mut tx,
                seq_key(note.oid.seq_time, id),
                id.0 as u64,
            )?;
            Ok(())
        })();
        match result {
            Ok(()) => self.engine.commit(tx),
            Err(e) => {
                self.engine.abort(tx)?;
                Err(e)
            }
        }
    }

    /// Replace a note record with a deletion stub. `old_modified` is the
    /// seq-index timestamp of the record being replaced (None if this UNID
    /// is new here).
    fn write_stub(&mut self, stub: &DeletionStub, _old_modified: Option<Timestamp>) -> Result<()> {
        let mut tx = self.engine.begin()?;
        let result = (|| {
            // Remove the old seq entry, whatever record type was there.
            let old_ts = match self
                .store
                .get(&mut self.engine, stub.id, Segment::Summary)?
            {
                Some(bytes) if record_is_stub(&bytes) => {
                    Some(DeletionStub::decode(stub.id, &bytes)?.oid.seq_time)
                }
                Some(bytes) => Some(Note::decode(stub.id, &bytes, None)?.oid.seq_time),
                None => None,
            };
            self.store.put(
                &mut self.engine,
                &mut tx,
                stub.id,
                Segment::Summary,
                &stub.encode(),
            )?;
            self.store
                .remove_segment(&mut self.engine, &mut tx, stub.id, Segment::Body)?;
            // Keep the UNID bound so later updates find the stub.
            let bound = self.store.lookup_unid(&mut self.engine, stub.oid.unid)?;
            if bound.is_none() {
                self.store
                    .bind_unid(&mut self.engine, &mut tx, stub.oid.unid, stub.id)?;
            }
            let seq = domino_storage::BTree::open_existing(&mut self.engine, TREE_SEQ_INDEX)?;
            if let Some(old_ts) = old_ts {
                seq.delete(&mut self.engine, &mut tx, seq_key(old_ts, stub.id))?;
            }
            seq.insert(
                &mut self.engine,
                &mut tx,
                seq_key(stub.oid.seq_time, stub.id),
                stub.id.0 as u64,
            )?;
            Ok(())
        })();
        match result {
            Ok(()) => self.engine.commit(tx),
            Err(e) => {
                self.engine.abort(tx)?;
                Err(e)
            }
        }
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use domino_types::LogicalClock;
    use parking_lot::Mutex as PMutex;

    fn db() -> Database {
        Database::open_in_memory(
            DbConfig::new("B", ReplicaId(1), ReplicaId(9)),
            LogicalClock::new(),
        )
        .unwrap()
    }

    fn doc(db: &Database, subject: &str) -> Note {
        let mut n = Note::document("Doc");
        n.set("Subject", Value::text(subject));
        db.save(&mut n).unwrap();
        n
    }

    /// Collects every delivered slice for inspection.
    fn collecting_observer(db: &Database) -> Arc<PMutex<Vec<Vec<ChangeEvent>>>> {
        let seen: Arc<PMutex<Vec<Vec<ChangeEvent>>>> = Arc::new(PMutex::new(Vec::new()));
        let sink = seen.clone();
        db.subscribe_batch(Arc::new(move |events: &[ChangeEvent]| {
            sink.lock().push(events.to_vec());
        }));
        seen
    }

    #[test]
    fn unbatched_changes_arrive_as_single_event_slices() {
        let db = db();
        let seen = collecting_observer(&db);
        doc(&db, "a");
        doc(&db, "b");
        let batches = seen.lock();
        assert_eq!(batches.len(), 2);
        assert!(batches.iter().all(|b| b.len() == 1));
    }

    #[test]
    fn batch_buffers_and_coalesces_last_write_wins() {
        let db = db();
        let seen = collecting_observer(&db);
        let mut n = {
            let _guard = db.begin_batch();
            let mut n = doc(&db, "v1");
            n.set("Subject", Value::text("v2"));
            db.save(&mut n).unwrap();
            doc(&db, "other");
            assert!(
                seen.lock().is_empty(),
                "events must buffer inside the batch"
            );
            n
        };
        let batches = seen.lock();
        assert_eq!(batches.len(), 1, "one flush for the whole batch");
        let batch = &batches[0];
        assert_eq!(batch.len(), 2, "two saves of one note coalesce");
        // The twice-saved note survives as one creation with the final
        // content: old is the pre-batch state (absent), new is the last
        // write.
        let ev = batch
            .iter()
            .find(|e| matches!(e, ChangeEvent::Saved { new, .. } if new.unid() == n.unid()))
            .expect("coalesced save present");
        match ev {
            ChangeEvent::Saved { old, new } => {
                assert!(old.is_none());
                assert_eq!(new.get_text("Subject").as_deref(), Some("v2"));
            }
            _ => unreachable!(),
        }
        drop(batches);
        // The note remains saveable afterwards (batching is observer-side
        // only; storage state is unaffected).
        n.set("Subject", Value::text("v3"));
        db.save(&mut n).unwrap();
    }

    #[test]
    fn save_then_delete_in_batch_survives_as_delete() {
        let db = db();
        let before = doc(&db, "keep");
        let seen = collecting_observer(&db);
        {
            let _guard = db.begin_batch();
            let n = doc(&db, "gone");
            db.delete(n.id).unwrap();
            // An update to a pre-batch note: its coalesced `old` must be
            // the pre-batch content.
            let mut b2 = db.open_note(before.id).unwrap();
            b2.set("Subject", Value::text("kept-2"));
            db.save(&mut b2).unwrap();
        }
        let batches = seen.lock();
        assert_eq!(batches.len(), 1);
        let batch = &batches[0];
        assert_eq!(batch.len(), 2);
        assert!(batch
            .iter()
            .any(|e| matches!(e, ChangeEvent::Deleted { old, .. } if old.get_text("Subject").as_deref() == Some("gone"))));
        assert!(batch.iter().any(|e| matches!(
            e,
            ChangeEvent::Saved { old: Some(o), new }
                if o.get_text("Subject").as_deref() == Some("keep")
                    && new.get_text("Subject").as_deref() == Some("kept-2")
        )));
    }

    #[test]
    fn nested_batches_flush_once_at_outermost() {
        let db = db();
        let seen = collecting_observer(&db);
        {
            let _outer = db.begin_batch();
            doc(&db, "a");
            {
                let _inner = db.begin_batch();
                doc(&db, "b");
            }
            assert!(seen.lock().is_empty(), "inner drop must not flush");
            doc(&db, "c");
        }
        let batches = seen.lock();
        assert_eq!(batches.len(), 1);
        assert_eq!(batches[0].len(), 3);
    }

    #[test]
    fn legacy_observers_see_every_coalesced_event_in_order() {
        let db = db();
        let seen: Arc<PMutex<Vec<String>>> = Arc::new(PMutex::new(Vec::new()));
        let sink = seen.clone();
        db.subscribe(Arc::new(move |event: &ChangeEvent| {
            if let ChangeEvent::Saved { new, .. } = event {
                sink.lock()
                    .push(new.get_text("Subject").unwrap_or_default());
            }
        }));
        {
            let _guard = db.begin_batch();
            doc(&db, "first");
            doc(&db, "second");
        }
        assert_eq!(
            *seen.lock(),
            vec!["first".to_string(), "second".to_string()]
        );
    }

    #[test]
    fn parallel_fanout_reaches_all_batch_observers() {
        let db = db();
        let sinks: Vec<Arc<PMutex<Vec<Vec<ChangeEvent>>>>> =
            (0..4).map(|_| collecting_observer(&db)).collect();
        {
            let _guard = db.begin_batch();
            for i in 0..10 {
                doc(&db, &format!("d{i}"));
            }
        }
        for sink in &sinks {
            let batches = sink.lock();
            assert_eq!(batches.len(), 1);
            assert_eq!(batches[0].len(), 10);
        }
    }
}
