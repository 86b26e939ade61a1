//! The `replicate` workload: two on-disk replicas of one converged
//! database, linked over the replication wire protocol. Each round makes a
//! seeded batch of edits on both sides, then pulls in both directions.

use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_core::{CheckpointerHandle, Database};
use domino_netio::{ReplicaListener, SocketTransport};
use domino_obs as obs;
use domino_replica::{ReplicationOptions, ReplicationReport, Replicator, Transport};
use domino_types::{Unid, Value};

use crate::gen::{Corpus, CorpusShape, EditBatch, EditBatches};
use crate::stats::{self, file_len, quantile, ratio, supported};
use crate::trace::{self, IoStats, TracedTransport};
use crate::web::{
    corpus_note, db_config, open_nsf, user_bytes, CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP,
    SETUPS,
};
use crate::{layers, Args, Outcome};

/// The shared database: documents with a short indexed body and an
/// attachment.
pub const SHAPE: CorpusShape = CorpusShape {
    docs: 4000,
    body_bytes: 500,
    attachment_bytes: 2000,
    restricted: 0.0,
};

const NSF_A: &str = "replica-a.nsf";
const NSF_B: &str = "replica-b.nsf";

struct Pair {
    a: Arc<Database>,
    b: Arc<Database>,
    unids: Vec<Unid>,
    listener: ReplicaListener,
    checkpointers: Vec<CheckpointerHandle>,
}

impl Pair {
    /// Build both replicas from the corpus (B receives each note exactly
    /// as replication would deliver it), checkpoint them, and bind the
    /// wire listener.
    fn start(dir: &Path, corpus: &Corpus, io: Option<&Arc<IoStats>>) -> Result<Pair, String> {
        std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
        let a = Arc::new(
            open_nsf(&dir.join(NSF_A), db_config("Replica", 0xA1), io)
                .map_err(|e| e.to_string())?,
        );
        let b = Arc::new(
            open_nsf(&dir.join(NSF_B), db_config("Replica", 0xA2), io)
                .map_err(|e| e.to_string())?,
        );
        let mut unids = Vec::with_capacity(corpus.docs.len());
        for d in &corpus.docs {
            let mut note = corpus_note(d);
            a.save(&mut note).map_err(|e| e.to_string())?;
            unids.push(note.unid());
            b.save_replicated(note).map_err(|e| e.to_string())?;
        }
        if a.merkle_root() != b.merkle_root() {
            return Err("replicas differ after the initial load".into());
        }
        a.checkpoint().map_err(|e| e.to_string())?;
        b.checkpoint().map_err(|e| e.to_string())?;
        let listener = ReplicaListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let checkpointers = vec![
            a.start_checkpointer(CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP),
            b.start_checkpointer(CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP),
        ];
        Ok(Pair {
            a,
            b,
            unids,
            listener,
            checkpointers,
        })
    }

    /// Stop the listener and checkpointers; returns the two databases,
    /// each then its only reference.
    fn stop(self) -> Result<(Arc<Database>, Arc<Database>), String> {
        let Pair {
            a,
            b,
            mut listener,
            checkpointers,
            ..
        } = self;
        listener.shutdown();
        for c in checkpointers {
            c.stop();
        }
        if Arc::strong_count(&a) != 1 || Arc::strong_count(&b) != 1 {
            return Err("replica still referenced after shutdown".into());
        }
        Ok((a, b))
    }
}

fn edit(db: &Database, unid: Unid, value: &str) -> domino_types::Result<()> {
    let mut note = db.open_by_unid(unid)?;
    note.set("Subject", Value::text(value));
    db.save(&mut note)
}

fn delete(db: &Database, unid: Unid) -> domino_types::Result<()> {
    let id = db
        .id_of_unid(unid)?
        .ok_or_else(|| domino_types::DominoError::NotFound(format!("no note {unid}")))?;
    db.delete(id).map(|_| ())
}

/// Apply one round's edits to both replicas.
fn apply(pair: &Pair, batch: &EditBatch) -> domino_types::Result<()> {
    for (d, v) in &batch.only_a {
        edit(&pair.a, pair.unids[*d], v)?;
    }
    for (d, v) in &batch.only_b {
        edit(&pair.b, pair.unids[*d], v)?;
    }
    for (d, va, vb) in &batch.both {
        edit(&pair.a, pair.unids[*d], va)?;
        edit(&pair.b, pair.unids[*d], vb)?;
    }
    for (d, on_a) in &batch.deletes {
        delete(if *on_a { &pair.a } else { &pair.b }, pair.unids[*d])?;
    }
    Ok(())
}

fn changed(r: &ReplicationReport) -> u64 {
    r.added + r.updated + r.merged + r.conflicts + r.deletions
}

/// One round's pulls: B into A, then A into B.
fn round(
    repl: &mut Replicator,
    pair: &Pair,
    transport: &mut dyn Transport,
) -> domino_types::Result<(ReplicationReport, ReplicationReport)> {
    let _round = trace::span("round", "replica");
    let ab = {
        let _s = trace::span("replica.pull", "replica");
        repl.pull_via(&pair.a, &pair.b, transport)?
    };
    let ba = {
        let _s = trace::span("replica.pull", "replica");
        repl.pull_via(&pair.b, &pair.a, transport)?
    };
    Ok((ab, ba))
}

#[derive(Default)]
struct Tally {
    /// Round wall times, ms.
    rounds: Vec<f64>,
    changed: u64,
    candidates: u64,
    bytes: u64,
    negotiation_bytes: u64,
    conflicts: u64,
    concurrent: u64,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Tally {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }
}

/// Space is measured after this many rounds (from the start of the run),
/// so that it does not depend on how many rounds a run manages.
const DISK_AT_ROUND: u64 = 300;

/// NSF plus log bytes of both replicas right after a checkpoint of each,
/// and the logical bytes of their live user items. The background
/// checkpointers are stopped around the checkpoints, which would otherwise
/// fail whenever one of theirs is in flight.
fn space(pair: &mut Pair, dir: &Path) -> domino_types::Result<(u64, u64)> {
    for c in pair.checkpointers.drain(..) {
        c.stop();
    }
    let checkpointed = pair.a.checkpoint().and_then(|_| pair.b.checkpoint());
    pair.checkpointers = vec![
        pair.a
            .start_checkpointer(CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP),
        pair.b
            .start_checkpointer(CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP),
    ];
    checkpointed?;
    let disk = [NSF_A, NSF_B]
        .iter()
        .map(|f| {
            let p = dir.join(f);
            file_len(&p) + file_len(&p.with_extension("txn"))
        })
        .sum();
    Ok((disk, user_bytes(&pair.a) + user_bytes(&pair.b)))
}

#[allow(clippy::too_many_arguments)]
fn rounds(
    pair: &mut Pair,
    dir: &Path,
    repl: &mut Replicator,
    transport: &mut dyn Transport,
    edits: &mut EditBatches,
    length: Duration,
    tally: &mut Tally,
    space_at: &mut Option<(u64, u64)>,
) {
    let deadline = Instant::now() + length;
    while Instant::now() < deadline {
        let batch = edits.next_batch();
        tally.attempted += 1;
        if let Err(e) = apply(pair, &batch) {
            tally.fail(format!("edits: {e}"));
            continue;
        }
        tally.concurrent += batch.both.len() as u64;
        let t = Instant::now();
        match round(repl, pair, transport) {
            Ok((ab, ba)) => {
                tally.rounds.push(t.elapsed().as_secs_f64() * 1e3);
                for r in [ab, ba] {
                    tally.changed += changed(&r);
                    tally.candidates += r.candidates;
                    tally.bytes += r.bytes_shipped;
                    tally.negotiation_bytes += r.negotiation_bytes;
                    tally.conflicts += r.conflicts;
                }
                if pair.a.merkle_root() != pair.b.merkle_root() {
                    tally.fail(format!(
                        "round {}: replicas differ after both pulls",
                        tally.attempted
                    ));
                }
                if space_at.is_none() && edits.round() == DISK_AT_ROUND {
                    match space(pair, dir) {
                        Ok(s) => *space_at = Some(s),
                        Err(e) => tally.fail(format!("measuring space: {e}")),
                    }
                }
            }
            Err(e) => tally.fail(format!("round {}: {e}", tally.attempted)),
        }
    }
}

/// Documents marked as replication conflicts.
fn conflict_docs(db: &Database) -> u64 {
    db.snapshot()
        .documents()
        .iter()
        .filter(|n| n.is_conflict())
        .count() as u64
}

pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::new("replicate");
    let corpus = Corpus::generate(args.seed, SHAPE);
    let io = args.trace.then(|| Arc::new(IoStats::default()));
    let root = args.data_dir();

    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let dir = root.join(format!("setup{i}"));
        let t = Instant::now();
        let pair = match Pair::start(&dir, &corpus, io.as_ref()) {
            Ok(p) => p,
            Err(e) => return out.abort(format!("set-up failed: {e}")),
        };
        // The first request served: a pull over the wire that finds the
        // replicas already equal.
        let mut probe = SocketTransport::connect(&pair.listener.addr());
        let first =
            Replicator::new(ReplicationOptions::default()).pull_via(&pair.a, &pair.b, &mut probe);
        drop(probe);
        if let Err(e) = first {
            return out.abort(format!("first pull failed: {e}"));
        }
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            match pair.stop() {
                Ok(dbs) => drop(dbs),
                Err(e) => return out.abort(e),
            }
            let _ = std::fs::remove_dir_all(&dir);
        } else {
            live = Some((pair, dir));
        }
    }
    let (mut pair, dir) = live.expect("last set-up kept");

    let mut repl = Replicator::new(ReplicationOptions::default());
    let mut edits = EditBatches::new(args.seed, SHAPE.docs);
    let mut tally = Tally::default();
    let total = Duration::from_secs_f64(args.seconds);
    let before = obs::snapshot();
    let mut traced = Tally::default();
    let mut spans = Vec::new();
    let io_snap = |io: &Option<Arc<IoStats>>| io.as_ref().map(|s| s.snap()).unwrap_or_default();
    let io_before = io_snap(&io);
    let mut space_at = None;
    {
        let socket = SocketTransport::connect(&pair.listener.addr());
        match &io {
            None => {
                let mut t = socket;
                rounds(
                    &mut pair,
                    &dir,
                    &mut repl,
                    &mut t,
                    &mut edits,
                    total,
                    &mut tally,
                    &mut space_at,
                );
            }
            Some(stats) => {
                let mut t = TracedTransport {
                    inner: socket,
                    stats: stats.clone(),
                };
                rounds(
                    &mut pair,
                    &dir,
                    &mut repl,
                    &mut t,
                    &mut edits,
                    total / 2,
                    &mut tally,
                    &mut space_at,
                );
                trace::set_enabled(true);
                rounds(
                    &mut pair,
                    &dir,
                    &mut repl,
                    &mut t,
                    &mut edits,
                    total / 2,
                    &mut traced,
                    &mut space_at,
                );
                trace::set_enabled(false);
                spans = trace::take();
            }
        }
    }
    let delta = obs::snapshot().diff(&before);
    let io_delta = io_snap(&io).since(&io_before);
    let flush = delta.histogram("Log.Flush.Nanos");
    out.line(format!(
        "log flushes (fsync): {} at a mean of {:.1} us",
        flush.count,
        ratio(flush.sum as f64, flush.count as f64) / 1e3
    ));

    // End of run: disk usage, then a crash of both replicas and a reopen
    // that must find them still converged, with one conflict document per
    // seeded concurrent edit.
    // Peak memory of the workload itself, before the reopen check (whose
    // recovery reads a log tail of whatever length the checkpointer left).
    let rss = stats::peak_rss_mb();
    let roots = (pair.a.merkle_root(), pair.b.merkle_root());
    let concurrent = tally.concurrent + traced.concurrent;
    match pair.stop() {
        Ok(dbs) => drop(dbs),
        Err(e) => return out.abort(e),
    }
    let reopen = |f: &str, inst: u64| {
        Database::open_path(
            &dir.join(f),
            db_config("Replica", inst),
            domino_types::LogicalClock::new(),
        )
    };
    let (a, b) = match (reopen(NSF_A, 0xA1), reopen(NSF_B, 0xA2)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => return out.abort(format!("reopen failed: {e}")),
    };
    if a.merkle_root() != roots.0 || b.merkle_root() != roots.1 || roots.0 != roots.1 {
        tally.fail("after reopen the replicas are not the converged state acknowledged".into());
    }
    for (name, db) in [("A", &a), ("B", &b)] {
        let n = conflict_docs(db);
        if n != concurrent {
            tally.fail(format!(
                "replica {name} holds {n} conflict documents; {concurrent} concurrent edits were seeded"
            ));
        }
    }
    let Some((disk, user)) = space_at else {
        return out.abort(format!(
            "the run ended before round {DISK_AT_ROUND}, where space is measured"
        ));
    };
    drop((a, b));

    // Latency figures come from the untraced rounds only: the whole run,
    // or its first half when tracing.
    let mut timed = tally.rounds.clone();
    let n = timed.len();
    let p50 = quantile(&mut timed, 0.5);
    let p90 = supported(n, 0.9).then(|| quantile(&mut timed, 0.9));
    let all_rounds: Vec<f64> = tally.rounds.iter().chain(&traced.rounds).copied().collect();
    let changed = tally.changed + traced.changed;
    let bytes = tally.bytes + traced.bytes;
    let repl_ms: f64 = all_rounds.iter().sum();
    let notes_per_s = ratio(changed as f64, repl_ms / 1e3);
    let bytes_per_note = ratio(bytes as f64, changed as f64);
    let setup_s = stats::median(&setups);
    let disk_ratio = ratio(disk as f64, user as f64);

    out.attempted = tally.attempted + traced.attempted;
    out.failed = tally.failed + traced.failed;
    out.errors = tally
        .errors
        .iter()
        .chain(&traced.errors)
        .take(5)
        .cloned()
        .collect();
    out.line(format!(
        "{} rounds, {n} timed in the reported figures; \
         {changed} notes changed, {concurrent} seeded concurrent edits",
        all_rounds.len()
    ));
    out.e2e("setup_s", setup_s, "s");
    out.e2e("op_p50_ms", p50, "ms");
    out.e2e("peak_ops_per_s", notes_per_s, "1/s");
    out.e2e("disk_bytes_per_user_byte", disk_ratio, "ratio");
    out.e2e("peak_rss_mb", rss, "MiB");
    out.named("setup_s", setup_s, "s");
    out.named("repl_round_p50_ms", p50, "ms");
    out.named_opt("repl_round_p90_ms", p90, "ms");
    out.named("repl_notes_per_s", notes_per_s, "notes/s");
    out.named("repl_bytes_per_note", bytes_per_note, "B");
    out.named("disk_bytes_per_user_byte", disk_ratio, "ratio");
    out.named("peak_rss_mb", rss, "MiB");
    out.named(
        "error_frac",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    if args.trace {
        let untraced = stats::mean(&tally.rounds);
        layers::replicate(
            &mut out,
            &delta,
            &io_delta,
            &spans,
            (&traced).into(),
            untraced,
        );
    }
    out
}

/// What the traced half of a run measured.
pub struct TracedRounds<'a> {
    pub rounds: &'a [f64],
    pub changed: u64,
    pub candidates: u64,
    pub bytes: u64,
    pub negotiation_bytes: u64,
    pub conflicts: u64,
}

impl<'a> From<&'a Tally> for TracedRounds<'a> {
    fn from(t: &'a Tally) -> TracedRounds<'a> {
        TracedRounds {
            rounds: &t.rounds,
            changed: t.changed,
            candidates: t.candidates,
            bytes: t.bytes,
            negotiation_bytes: t.negotiation_bytes,
            conflicts: t.conflicts,
        }
    }
}
