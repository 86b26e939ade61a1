//! The `web-read` and `web-write` workloads: browser traffic over real
//! sockets against one on-disk NSF served by the HTTP task.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use domino_core::{ChangeEvent, CheckpointerHandle, Database, DbConfig, Note, Session};
use domino_ftindex::FtIndex;
use domino_netio::{base64_encode, HttpConfig, HttpListener, HttpParser, ParserLimits};
use domino_obs as obs;
use domino_security::{can_read_document, AccessLevel, Acl, AclEntry, Directory};
use domino_server::{render, DominoServer, Request, ServerConfig};
use domino_storage::NsfFile;
use domino_types::{ItemFlags, LogicalClock, ReplicaId, Unid, Value};
use domino_views::{ColumnSpec, SortDir, View, ViewDesign};
use domino_wal::FileLogStore;

use crate::client::{Client, Reply};
use crate::gen::{self, Class, Corpus, CorpusShape, Layout, Mix, Op, Stream, USERS, VIEWS};
use crate::layers::{self, Part};
use crate::stats::{self, file_len, mean, quantile, ratio, supported};
use crate::trace::{self, IoStats, TracedDisk, TracedLog};
use crate::{Args, Outcome};

/// Connections (and generator threads) of the load generator.
pub const CONNS: usize = 2;
/// Full deployments built per run; `setup_s` is their median.
pub const SETUPS: usize = 5;
/// The database path element every request addresses.
const DB: &str = "bench";
/// Phases that delete from the doomed range, in order: warm-up, closed
/// loop, untraced open loop, traced open loop, in-process replay.
const PHASES: usize = 5;

/// One HTTP workload.
#[derive(Debug, Clone, Copy)]
pub struct WebSpec {
    pub name: &'static str,
    pub shape: CorpusShape,
    /// Share of the corpus that reads and edits target; the rest may be
    /// deleted.
    pub stable_frac: f64,
    pub mix: Mix,
    /// Offered load of the open-loop phase, requests per second over all
    /// connections: a fixed share of the closed-loop peak the workload
    /// reaches on a 2-core machine, well below saturation (see "How the
    /// offered rates were chosen" in the README). Each run prints the share
    /// of its own peak.
    pub rate: f64,
    /// Bytes of the `Comment` text a save posts.
    pub comment_bytes: usize,
}

impl WebSpec {
    /// Whether writes (rather than reads) are the operation whose latency
    /// the gated `op_p50_ms` reports: the class that makes most requests.
    pub fn writes_primary(&self) -> bool {
        self.mix.write_share() > 0.5
    }
}

/// Browser read traffic on an NSF that fits the buffer pool.
pub const WEB_READ: WebSpec = WebSpec {
    name: "web-read",
    shape: CorpusShape {
        docs: 4000,
        body_bytes: 1500,
        attachment_bytes: 0,
        restricted: 0.10,
    },
    stable_frac: 0.95,
    mix: Mix {
        open_view: 30,
        read_entries: 20,
        open_doc: 35,
        search: 12,
        save: 3,
        create: 0,
        delete: 0,
    },
    // About a quarter of a closed-loop peak of 2,300-2,500 req/s.
    rate: 600.0,
    comment_bytes: 200,
};

/// Editing traffic on an NSF several times the buffer pool.
pub const WEB_WRITE: WebSpec = WebSpec {
    name: "web-write",
    shape: CorpusShape {
        docs: 4000,
        body_bytes: 600,
        attachment_bytes: 11000,
        restricted: 0.10,
    },
    stable_frac: 0.6,
    mix: Mix {
        open_view: 10,
        read_entries: 0,
        open_doc: 0,
        search: 0,
        save: 75,
        create: 8,
        delete: 7,
    },
    // About 0.4 of a closed-loop peak of 145-155 req/s.
    rate: 60.0,
    comment_bytes: 400,
};

// ---------------------------------------------------------------------
// the deployment
// ---------------------------------------------------------------------

/// The deployment's database configuration: the default `EngineConfig`
/// (`CommitMode::Force`, one log fsync per commit, 4096-frame pool).
pub fn db_config(title: &str, instance: u64) -> DbConfig {
    DbConfig::new(title, ReplicaId(0xB0), ReplicaId(instance))
}

/// Open an on-disk NSF: `Database::open_path`, or the same files behind
/// the benchmark's timing wrappers when tracing.
pub fn open_nsf(
    path: &Path,
    cfg: DbConfig,
    io: Option<&Arc<IoStats>>,
) -> domino_types::Result<Database> {
    match io {
        None => Database::open_path(path, cfg, LogicalClock::new()),
        Some(io) => {
            let disk = TracedDisk {
                inner: NsfFile::open(path)?,
                stats: io.clone(),
            };
            let log = TracedLog {
                inner: FileLogStore::open(&path.with_extension("txn"))?,
                stats: io.clone(),
            };
            Database::open(
                Box::new(disk),
                Some(Box::new(log)),
                cfg,
                LogicalClock::new(),
            )
        }
    }
}

/// Background checkpoint cadence of every deployment.
pub const CHECKPOINT_EVERY: Duration = Duration::from_secs(1);
pub const CHECKPOINT_PAGES_PER_STEP: usize = 64;

fn designs() -> Vec<ViewDesign> {
    let mut by_subject = ViewDesign::new(VIEWS[0], r#"SELECT Form = "Topic""#).expect("view");
    by_subject.columns = vec![
        ColumnSpec::new("Subject", "Subject")
            .expect("column")
            .sorted(SortDir::Ascending),
        ColumnSpec::new("Category", "Category").expect("column"),
        ColumnSpec::new("Rev", "Rev").expect("column"),
    ];
    let mut by_category = ViewDesign::new(VIEWS[1], r#"SELECT Form = "Topic""#).expect("view");
    by_category.columns = vec![
        ColumnSpec::new("Category", "Category")
            .expect("column")
            .sorted(SortDir::Ascending)
            .categorized(),
        ColumnSpec::new("Subject", "Subject")
            .expect("column")
            .sorted(SortDir::Ascending),
    ];
    vec![by_subject, by_category]
}

fn directory() -> Directory {
    let mut dir = Directory::new();
    for t in 0..gen::TEAMS {
        let members: Vec<String> = (0..USERS)
            .filter(|u| gen::teams_of(*u).contains(&t))
            .map(gen::user_name)
            .collect();
        dir.add_group(&gen::team_name(t), members);
    }
    dir
}

fn acl() -> Acl {
    let mut acl = Acl::new(AccessLevel::NoAccess);
    for t in 0..gen::TEAMS {
        acl.set(
            &gen::team_name(t),
            AclEntry::new(AccessLevel::Editor).with_role(gen::role_name(gen::role_of_team(t))),
        );
    }
    acl
}

/// Save every corpus document; returns their UNIDs in corpus order.
pub fn load_corpus(db: &Database, corpus: &Corpus) -> domino_types::Result<Vec<Unid>> {
    let mut unids = Vec::with_capacity(corpus.docs.len());
    for d in &corpus.docs {
        let mut note = corpus_note(d);
        db.save(&mut note)?;
        unids.push(note.unid());
    }
    Ok(unids)
}

pub fn corpus_note(d: &gen::DocSpec) -> Note {
    let mut note = Note::document("Topic");
    note.set("Subject", Value::text(d.subject.clone()));
    note.set("Category", Value::text(d.category.clone()));
    note.set("Rev", Value::text("0"));
    note.set_body("Body", Value::text(d.body.clone()));
    if !d.attachment.is_empty() {
        note.set_body("$FILE", Value::text(d.attachment.clone()));
    }
    if let Some(r) = &d.readers {
        note.set_with_flags(
            "$Readers",
            Value::text_list([r.entry()]),
            ItemFlags::SUMMARY | ItemFlags::READERS,
        );
    }
    note
}

/// The benchmark's own copies of the views and the full-text index, fed
/// by a change observer during the traced replay: they time `View::apply`
/// and full-text indexing of exactly the events the server's copies see.
struct Shadow {
    views: Vec<View>,
    ft: FtIndex,
}

thread_local! {
    static REPLAYING: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

struct Deployment {
    dir: PathBuf,
    db: Arc<Database>,
    server: DominoServer,
    listener: HttpListener,
    checkpointer: Option<CheckpointerHandle>,
    unids: Vec<Unid>,
    shadow: Option<Arc<Shadow>>,
}

impl Deployment {
    fn start(
        dir: &Path,
        corpus: &Corpus,
        io: Option<&Arc<IoStats>>,
    ) -> domino_types::Result<Deployment> {
        std::fs::create_dir_all(dir)?;
        let db = Arc::new(open_nsf(
            &dir.join("bench.nsf"),
            db_config("Bench", 0xB1),
            io,
        )?);
        db.set_acl(&acl())?;
        let unids = load_corpus(&db, corpus)?;
        // A loaded database starts from a checkpoint, like one restored
        // from a backup; the run's own log then starts empty.
        db.checkpoint()?;
        let server = DominoServer::new(ServerConfig {
            workers: 2,
            queue_bound: 64,
            cache_capacity: 256,
        });
        server.register_database(DB, &db)?;
        for d in designs() {
            server.add_view(DB, d)?;
        }
        for u in 0..USERS {
            server.register_user(&gen::user_name(u), &gen::user_password(u));
        }
        server.set_directory(directory());
        let shadow = match io {
            None => None,
            Some(_) => {
                let views = designs()
                    .into_iter()
                    .map(|d| View::detached(&db, d))
                    .collect::<domino_types::Result<Vec<_>>>()?;
                let shadow = Arc::new(Shadow {
                    views,
                    ft: FtIndex::detached(),
                });
                let s = shadow.clone();
                // A per-event observer runs inline on the saving thread,
                // so its spans nest under the replay's `handle` span.
                db.subscribe(Arc::new(move |event: &ChangeEvent| {
                    if !REPLAYING.with(|r| r.get()) {
                        return;
                    }
                    {
                        let _span = trace::span("views.apply", "views");
                        for v in &s.views {
                            let _ = v.apply(event);
                        }
                    }
                    if let ChangeEvent::Saved { new, .. } = event {
                        let _span = trace::span("ftindex.index", "ftindex");
                        s.ft.index_note(new);
                    }
                }));
                Some(shadow)
            }
        };
        let listener = HttpListener::start(server.clone(), HttpConfig::default())?;
        let checkpointer = Some(db.start_checkpointer(CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP));
        Ok(Deployment {
            dir: dir.to_path_buf(),
            db,
            server,
            listener,
            checkpointer,
            unids,
            shadow,
        })
    }

    fn addr(&self) -> String {
        self.listener.addr()
    }

    /// Stop the listener, the workers and the checkpointer and hand back
    /// the database, which is then the only reference.
    fn stop(self) -> Result<(Arc<Database>, PathBuf), String> {
        let Deployment {
            dir,
            db,
            server,
            listener,
            checkpointer,
            shadow,
            ..
        } = self;
        let report = listener.drain(Duration::from_secs(10));
        drop(listener);
        server.drain();
        drop(server);
        if let Some(c) = checkpointer {
            c.stop();
        }
        drop(shadow);
        if report.remaining != 0 {
            return Err(format!(
                "{} connections still open after drain",
                report.remaining
            ));
        }
        if Arc::strong_count(&db) != 1 {
            return Err("database still referenced after shutdown".into());
        }
        Ok((db, dir))
    }
}

// ---------------------------------------------------------------------
// requests and the checks against the model
// ---------------------------------------------------------------------

struct Model<'a> {
    corpus: &'a Corpus,
    unids: &'a [Unid],
    by_unid: HashMap<u128, usize>,
    auth: Vec<String>,
}

impl<'a> Model<'a> {
    fn new(corpus: &'a Corpus, unids: &'a [Unid]) -> Model<'a> {
        Model {
            corpus,
            unids,
            by_unid: unids.iter().enumerate().map(|(i, u)| (u.0, i)).collect(),
            auth: (0..USERS)
                .map(|u| {
                    base64_encode(
                        format!("{}:{}", gen::user_name(u), gen::user_password(u)).as_bytes(),
                    )
                })
                .collect(),
        }
    }

    fn target(&self, op: &Op) -> (String, Option<String>) {
        match op {
            Op::View {
                json, view, start, ..
            } => (
                format!(
                    "/{DB}.nsf/{}?{}&Start={start}&Count={}",
                    VIEWS[*view],
                    if *json { "ReadViewEntries" } else { "OpenView" },
                    gen::PAGE_ROWS
                ),
                None,
            ),
            Op::Open { doc, .. } => (format!("/{DB}.nsf/{}?OpenDocument", self.unids[*doc]), None),
            Op::Search { query, .. } => (
                format!(
                    "/{DB}.nsf/{}?SearchView&Query={}&Count=20",
                    VIEWS[0],
                    gen::encode(query)
                ),
                None,
            ),
            Op::Save {
                doc,
                subject,
                comment,
                rev,
                ..
            } => (
                format!("/{DB}.nsf/{}?SaveDocument", self.unids[*doc]),
                Some(format!(
                    "Subject={}&Comment={}&Rev={}",
                    gen::encode(subject),
                    gen::encode(comment),
                    gen::encode(rev)
                )),
            ),
            Op::Create {
                subject,
                category,
                rev,
                ..
            } => (
                format!("/{DB}.nsf/Topic?CreateDocument"),
                Some(format!(
                    "Subject={}&Category={}&Rev={}",
                    gen::encode(subject),
                    gen::encode(category),
                    gen::encode(rev)
                )),
            ),
            Op::Delete { doc, .. } => (
                format!("/{DB}.nsf/{}?DeleteDocument", self.unids[*doc]),
                None,
            ),
        }
    }

    /// The request as bytes on the wire.
    fn raw(&self, op: &Op) -> Vec<u8> {
        let (target, body) = self.target(op);
        let auth = &self.auth[op.user()];
        match body {
            None => format!(
                "GET {target} HTTP/1.1\r\nHost: bench\r\nAuthorization: Basic {auth}\r\n\r\n"
            )
            .into_bytes(),
            Some(b) => format!(
                "POST {target} HTTP/1.1\r\nHost: bench\r\nAuthorization: Basic {auth}\r\n\
                 Content-Type: application/x-www-form-urlencoded\r\nContent-Length: {}\r\n\r\n{b}",
                b.len()
            )
            .into_bytes(),
        }
    }

    /// The request as the in-process server API takes it.
    fn request(&self, op: &Op) -> Request {
        let (target, body) = self.target(op);
        let u = op.user();
        let req = match body {
            None => Request::get(&target),
            Some(b) => Request::post(&target, &b),
        };
        req.as_user(&gen::user_name(u), &gen::user_password(u))
    }

    /// Judge one response: the expected status, and no document in it
    /// that the requesting user may not read.
    fn check(&self, op: &Op, status: u16, body: &str) -> Result<(), String> {
        let expect = match op {
            Op::Open { doc, user } if !self.corpus.readable(*doc, *user) => 403,
            _ => 200,
        };
        if status != expect {
            return Err(format!(
                "{} as {}: status {status}, expected {expect}",
                op.class().name(),
                gen::user_name(op.user())
            ));
        }
        if status != 200 {
            return Ok(());
        }
        if let Op::View { user, .. } | Op::Search { user, .. } | Op::Open { user, .. } = op {
            for unid in unids_in(body) {
                if let Some(&d) = self.by_unid.get(&unid) {
                    if !self.corpus.readable(d, *user) {
                        return Err(format!(
                            "{} as {} shows {:032X}, which the user may not read",
                            op.class().name(),
                            gen::user_name(*user),
                            unid
                        ));
                    }
                }
            }
        }
        Ok(())
    }
}

/// Every 32-digit uppercase hex run in a response body.
fn unids_in(body: &str) -> Vec<u128> {
    let b = body.as_bytes();
    let hex = |c: u8| c.is_ascii_digit() || (b'A'..=b'F').contains(&c);
    let mut out = Vec::new();
    let mut i = 0;
    while i < b.len() {
        if hex(b[i]) {
            let j = (i..b.len()).find(|&j| !hex(b[j])).unwrap_or(b.len());
            if j - i == 32 {
                if let Ok(v) = u128::from_str_radix(&body[i..j], 16) {
                    out.push(v);
                }
            }
            i = j;
        } else {
            i += 1;
        }
    }
    out
}

// ---------------------------------------------------------------------
// the load generator
// ---------------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Pace {
    /// Back to back until the deadline.
    Closed,
    /// Poisson arrivals at this many requests per second per connection.
    Open(f64),
}

/// What one connection saw in one phase.
#[derive(Default)]
struct ConnLog {
    /// (class, latency as reported — see `drive` —, latency from the actual
    /// send time), in nanoseconds.
    samples: Vec<(Class, u64, u64)>,
    /// How late each request left relative to its schedule, nanoseconds.
    late: Vec<u64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
    saved: Vec<(usize, String)>,
    created: Vec<(Unid, String)>,
    deleted: Vec<usize>,
}

impl ConnLog {
    fn fail(&mut self, msg: String) {
        self.failed += 1;
        if self.errors.len() < 5 {
            self.errors.push(msg);
        }
    }

    /// Record a checked, acknowledged write in the durability model.
    fn acked(&mut self, op: &Op, body: &str) {
        match op {
            Op::Save { doc, rev, .. } => self.saved.push((*doc, rev.clone())),
            Op::Create { rev, .. } => match unids_in(body).first() {
                Some(u) => self.created.push((Unid(*u), rev.clone())),
                None => self.fail("CreateDocument reply names no document".into()),
            },
            Op::Delete { doc, .. } => self.deleted.push(*doc),
            _ => {}
        }
    }

    fn absorb(&mut self, other: ConnLog) {
        self.samples.extend(other.samples);
        self.late.extend(other.late);
        self.attempted += other.attempted;
        self.failed += other.failed;
        for e in other.errors {
            if self.errors.len() < 5 {
                self.errors.push(e);
            }
        }
        self.saved.extend(other.saved);
        self.created.extend(other.created);
        self.deleted.extend(other.deleted);
    }
}

struct Phase {
    log: ConnLog,
    elapsed: Duration,
}

/// The phase's request streams, one per connection, with their pacing:
/// `rate` is the open loop's offered load over all connections (`None`:
/// closed loop). `index` numbers the phase, so that each (phase,
/// connection) has its own lane of the doomed range and its own random
/// streams.
pub fn streams(
    args: &Args,
    spec: &WebSpec,
    phase: &str,
    index: usize,
    rate: Option<f64>,
) -> Vec<(Stream, Pace)> {
    (0..CONNS)
        .map(|c| {
            let stream = Stream::new(
                args.seed,
                spec.name,
                phase,
                c,
                CONNS,
                index * CONNS + c,
                spec.mix,
                layout(spec),
                spec.comment_bytes,
            );
            let pace = rate.map_or(Pace::Closed, |r| Pace::Open(r / CONNS as f64));
            (stream, pace)
        })
        .collect()
}

fn layout(spec: &WebSpec) -> Layout {
    Layout {
        docs: spec.shape.docs,
        stable: (spec.shape.docs as f64 * spec.stable_frac) as usize,
        lanes: PHASES * CONNS,
    }
}

fn drive(addr: &str, model: &Model, streams: Vec<(Stream, Pace)>, length: Duration) -> Phase {
    let start = Instant::now();
    let deadline = start + length;
    let logs: Vec<ConnLog> = std::thread::scope(|s| {
        let handles: Vec<_> = streams
            .into_iter()
            .map(|(mut stream, pace)| {
                s.spawn(move || {
                    let mut log = ConnLog::default();
                    let mut client = match Client::connect(addr) {
                        Ok(c) => Some(c),
                        Err(e) => {
                            log.fail(format!("connect: {e}"));
                            None
                        }
                    };
                    let mut due = start;
                    let mut prev_done = start;
                    loop {
                        let op = stream.next(model.corpus);
                        let raw = model.raw(&op);
                        if let Pace::Open(rate) = pace {
                            due += Duration::from_secs_f64(stream.gap(rate));
                            let now = Instant::now();
                            if due > now {
                                std::thread::sleep(due - now);
                            }
                        } else {
                            due = Instant::now();
                        }
                        if due >= deadline {
                            break;
                        }
                        let sent = Instant::now();
                        log.attempted += 1;
                        let Some(c) = client.as_mut() else {
                            log.fail("no connection".into());
                            continue;
                        };
                        match c.call(&raw) {
                            Ok(Reply { status, body }) => {
                                let done = Instant::now();
                                // A request that found its connection still
                                // busy at its due time is timed from the due
                                // time: the stall counts. One that found the
                                // connection idle is timed from its send, so
                                // the generator's own wake-up delay does not.
                                let from = if prev_done > due { due } else { sent };
                                prev_done = done;
                                log.late.push((sent - due).as_nanos() as u64);
                                log.samples.push((
                                    op.class(),
                                    (done - from).as_nanos() as u64,
                                    (done - sent).as_nanos() as u64,
                                ));
                                match model.check(&op, status, &body) {
                                    Ok(()) => log.acked(&op, &body),
                                    Err(e) => log.fail(e),
                                }
                            }
                            Err(e) => {
                                log.fail(format!("{}: {e}", op.class().name()));
                                client = Client::connect(addr).ok();
                            }
                        }
                    }
                    log
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("generator thread panicked"))
            .collect()
    });
    let elapsed = start.elapsed();
    let mut log = ConnLog::default();
    for l in logs {
        log.absorb(l);
    }
    Phase { log, elapsed }
}

// ---------------------------------------------------------------------
// the run
// ---------------------------------------------------------------------

/// Latencies in ms; `write` picks writes, reads, or (`None`) both.
fn latencies(log: &ConnLog, write: Option<bool>, from_send: bool) -> Vec<f64> {
    log.samples
        .iter()
        .filter(|s| write.is_none_or(|w| s.0.is_write() == w))
        .map(|s| (if from_send { s.2 } else { s.1 }) as f64 / 1e6)
        .collect()
}

/// Latency figures (ms) of the reads or the writes of a phase: p50, p90
/// and p99 over every sample (`None` where the sample cannot support it).
struct Figures {
    p50: f64,
    p90: Option<f64>,
    p99: Option<f64>,
    n: usize,
}

fn figures(log: &ConnLog, write: bool) -> Figures {
    let mut v = latencies(log, Some(write), false);
    let n = v.len();
    Figures {
        p50: quantile(&mut v, 0.5),
        p90: supported(n, 0.9).then(|| quantile(&mut v, 0.9)),
        p99: supported(n, 0.99).then(|| quantile(&mut v, 0.99)),
        n,
    }
}

/// Print `{what}_p50_ms`, `_p90_ms` and `_p99_ms`.
fn name_figures(out: &mut Outcome, what: &str, f: &Figures) {
    out.named(format!("{what}_p50_ms"), f.p50, "ms");
    out.named_opt(format!("{what}_p90_ms"), f.p90, "ms");
    out.named_opt(format!("{what}_p99_ms"), f.p99, "ms");
}

pub fn run(args: &Args, spec: &WebSpec) -> Outcome {
    let mut out = Outcome::new(spec.name);
    let corpus = Corpus::generate(args.seed, spec.shape);
    let io = args.trace.then(|| Arc::new(IoStats::default()));
    let root = args.data_dir();

    // Set-up, several times: seeded corpus → NSF → server → listener →
    // first request served. All but the last deployment are torn down.
    let mut setups = Vec::new();
    let mut live = None;
    for i in 0..SETUPS {
        let dir = root.join(format!("setup{i}"));
        let t = Instant::now();
        let dep = match Deployment::start(&dir, &corpus, io.as_ref()) {
            Ok(d) => d,
            Err(e) => return out.abort(format!("deployment failed: {e}")),
        };
        let model = Model::new(&corpus, &dep.unids);
        let first = Op::View {
            json: false,
            view: 0,
            start: 1,
            user: 0,
        };
        match Client::connect(&dep.addr()).and_then(|mut c| c.call(&model.raw(&first))) {
            Ok(r) if r.status == 200 => {}
            Ok(r) => return out.abort(format!("first request answered {}", r.status)),
            Err(e) => return out.abort(format!("first request failed: {e}")),
        }
        setups.push(t.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            match dep.stop() {
                Ok((db, dir)) => {
                    drop(db);
                    let _ = std::fs::remove_dir_all(dir);
                }
                Err(e) => return out.abort(e),
            }
        } else {
            live = Some(dep);
        }
    }
    let mut dep = live.expect("last deployment kept");
    let unids = dep.unids.clone();
    let model = Model::new(&corpus, &unids);
    let addr = dep.addr();
    let total = Duration::from_secs_f64(args.seconds);

    // Phases, as shares of the measured time: a closed-loop warm-up (it
    // brings the note summaries every save scans into the buffer pool),
    // the open loop, then (untraced) the closed loop whose figures are
    // gated, or (traced) the open loop again with tracing on and an
    // in-process replay. Space is measured between the open loop and what
    // follows, when the run has made a number of writes that only the
    // short warm-up lets vary.
    let open_len = total.mul_f64(0.35);
    let warm = drive(
        &addr,
        &model,
        streams(args, spec, "warm", 0, None),
        total.mul_f64(0.05),
    );
    let before = obs::snapshot();
    let io_before = io.as_ref().map(|s| s.snap());
    let cpu_before = stats::cpu_ticks();
    let open = drive(
        &addr,
        &model,
        streams(args, spec, "open", 1, Some(spec.rate)),
        open_len,
    );
    let cpu = stats::cpu_share(cpu_before, stats::cpu_ticks());
    let delta = obs::snapshot().diff(&before);
    let io_delta = io
        .as_ref()
        .map(|s| s.snap().since(io_before.as_ref().expect("taken")));
    let (disk_bytes, user_bytes) = match space(&mut dep) {
        Ok(x) => x,
        Err(e) => return out.abort(format!("measuring space failed: {e}")),
    };
    let open_reads = figures(&open.log, false);
    let open_writes = figures(&open.log, true);
    let offered = open.log.samples.len() as f64 / open.elapsed.as_secs_f64();
    let mut late: Vec<f64> = open.log.late.iter().map(|n| *n as f64 / 1e3).collect();
    let late_p50 = quantile(&mut late, 0.5);
    let late_p99 = supported(late.len(), 0.99).then(|| quantile(&mut late, 0.99));
    out.line(format!(
        "open loop: offered {:.0} req/s scheduled (Poisson, half on each connection), \
         achieved {offered:.0} req/s; generator lateness p50 {late_p50:.1} us, p99 {} us, \
         max {:.1} us",
        spec.rate,
        late_p99.map_or("n/a".into(), |v| format!("{v:.1}")),
        late.iter().copied().fold(0.0, f64::max)
    ));
    let mut all_reads = latencies(&open.log, Some(false), false);
    let spread: Vec<String> = [0.1, 0.25, 0.5, 0.75, 0.9]
        .iter()
        .map(|q| format!("{:.3}", quantile(&mut all_reads, *q)))
        .collect();
    out.line(format!(
        "open loop: {cpu}; read latency p10/p25/p50/p75/p90 {} ms",
        spread.join("/")
    ));
    // How busy the offered rate keeps the server: the time requests spent
    // in service, as a share of the loop (1.0 would be one request in
    // service at every instant).
    let in_service: f64 = latencies(&open.log, None, true).iter().sum::<f64>() / 1e3;
    out.line(format!(
        "open loop: {} reads, {} writes; requests in service {:.0}% of the loop",
        open_reads.n,
        open_writes.n,
        100.0 * in_service / open.elapsed.as_secs_f64()
    ));

    let mut closed = None;
    let mut traced = None;
    let mut replay = None;
    if args.trace {
        trace::set_enabled(true);
        let t = drive(
            &addr,
            &model,
            streams(args, spec, "open-traced", 2, Some(spec.rate)),
            open_len,
        );
        traced = Some(t.log);
        replay = Some(replay_sample(args, spec, &dep, &model, total.mul_f64(0.25)));
        trace::set_enabled(false);
    } else {
        let c = drive(
            &addr,
            &model,
            streams(args, spec, "closed", 3, None),
            total.mul_f64(0.6),
        );
        closed = Some(c);
    }
    let closed_figures = closed.as_ref().map(|c| {
        (
            c.log.samples.len() as f64 / c.elapsed.as_secs_f64(),
            figures(&c.log, false),
            figures(&c.log, true),
        )
    });
    if let Some((peak, _, _)) = &closed_figures {
        out.line(format!(
            "closed loop: {} requests; the open loop's offered rate is {:.0}% of this peak",
            closed.as_ref().map_or(0, |c| c.log.samples.len()),
            100.0 * spec.rate / peak
        ));
    }

    // Peak memory of the workload itself, before the reopen check (whose
    // recovery reads a log tail of whatever length the checkpointer left).
    let rss = stats::peak_rss_mb();
    // End of run: a crash (no clean shutdown) and a reopen that must show
    // every acknowledged write, phase by phase.
    let nsf = dep.dir.join("bench.nsf");
    match dep.stop() {
        Ok((db, _)) => drop(db),
        Err(e) => return out.abort(e),
    }
    let open_log = open.log;
    let mut all = ConnLog::default();
    for log in [
        Some(&warm.log),
        Some(&open_log),
        closed.as_ref().map(|c| &c.log),
        traced.as_ref(),
        replay.as_ref().map(|r| &r.log),
    ]
    .into_iter()
    .flatten()
    {
        all.attempted += log.attempted;
        all.failed += log.failed;
        all.errors.extend(log.errors.iter().cloned());
        all.saved.extend(log.saved.iter().cloned());
        all.created.extend(log.created.iter().cloned());
        all.deleted.extend(log.deleted.iter().cloned());
    }
    if let Err(e) = verify_reopen(&nsf, &model, &mut all) {
        return out.abort(format!("reopen failed: {e}"));
    }

    let setup_s = stats::median(&setups);
    let disk_ratio = ratio(disk_bytes as f64, user_bytes as f64);
    all.errors.truncate(5);
    out.attempted = all.attempted;
    out.failed = all.failed;
    out.errors = all.errors;
    out.e2e("setup_s", setup_s, "s");
    out.named("setup_s", setup_s, "s");
    if let Some((peak_rps, reads, writes)) = closed_figures {
        let primary = if spec.writes_primary() {
            &writes
        } else {
            &reads
        };
        out.e2e("op_p50_ms", primary.p50, "ms");
        out.e2e("peak_ops_per_s", peak_rps, "1/s");
        name_figures(&mut out, "closed_read", &reads);
        name_figures(&mut out, "closed_write", &writes);
        out.named("peak_rps", peak_rps, "req/s");
    }
    out.e2e("disk_bytes_per_user_byte", disk_ratio, "ratio");
    out.e2e("peak_rss_mb", rss, "MiB");
    name_figures(&mut out, "read", &open_reads);
    name_figures(&mut out, "write", &open_writes);
    out.named("disk_bytes_per_user_byte", disk_ratio, "ratio");
    out.named("peak_rss_mb", rss, "MiB");
    out.named(
        "error_frac",
        ratio(out.failed as f64, out.attempted as f64),
        "ratio",
    );

    if let (Some(io_delta), Some(traced), Some(replay)) = (io_delta, traced, replay) {
        let untraced = mean(&latencies(&open_log, None, true)) * 1e3;
        layers_web(
            &mut out, &delta, &io_delta, &open_log, &traced, &replay, untraced,
        );
    }
    out
}

/// What the in-process replay measured.
struct Replay {
    log: ConnLog,
    /// `DominoServer::serve` per class, microseconds.
    serve: HashMap<Class, Vec<f64>>,
    /// Direct calls into layer functions, by span name.
    spans: Vec<trace::SpanRec>,
    /// `Database.Save.Micros` (sum, count) accrued inside `handle` calls,
    /// per class.
    save_micros: HashMap<Class, (u64, u64)>,
    rows_examined: u64,
    rows_hidden: u64,
}

fn handle_span(c: Class) -> &'static str {
    match c {
        Class::OpenView => "handle.OpenView",
        Class::ReadViewEntries => "handle.ReadViewEntries",
        Class::OpenDocument => "handle.OpenDocument",
        Class::SearchView => "handle.SearchView",
        Class::SaveDocument => "handle.SaveDocument",
        Class::CreateDocument => "handle.CreateDocument",
        Class::DeleteDocument => "handle.DeleteDocument",
    }
}

/// Replay a seeded sample of the workload's requests in-process, timing
/// the same request through the worker pool (`serve`) or on this thread
/// (`handle`, alternately), and timing direct calls into the layers a
/// read crosses. Writes executed here are acknowledged writes too.
fn replay_sample(
    args: &Args,
    spec: &WebSpec,
    dep: &Deployment,
    model: &Model,
    budget: Duration,
) -> Replay {
    let shadow = dep
        .shadow
        .as_ref()
        .expect("traced deployments keep a shadow");
    // Bring the shadow copies up to date before they time anything.
    for v in &shadow.views {
        let _ = v.rebuild();
    }
    let _ = shadow.ft.rebuild(&dep.db);
    let mut stream = Stream::new(
        args.seed,
        spec.name,
        "replay",
        0,
        CONNS,
        4 * CONNS,
        spec.mix,
        layout(spec),
        spec.comment_bytes,
    );
    let dir = directory();
    let acl = match dep.db.acl() {
        Ok(a) => a,
        Err(_) => acl(),
    };
    let save_hist = obs::histogram("Database.Save.Micros");
    let mut r = Replay {
        log: ConnLog::default(),
        serve: HashMap::new(),
        spans: Vec::new(),
        save_micros: HashMap::new(),
        rows_examined: 0,
        rows_hidden: 0,
    };
    let mut seen: HashMap<Class, usize> = HashMap::new();
    let start = Instant::now();
    let _ = trace::take();
    while start.elapsed() < budget {
        let op = stream.next(model.corpus);
        let class = op.class();
        let n = seen.entry(class).or_default();
        *n += 1;
        let raw = model.raw(&op);
        {
            let _s = trace::span("netio.parse", "netio");
            let mut parser = HttpParser::new(ParserLimits::default());
            let _ = std::hint::black_box(parser.feed(&raw));
        }
        let req = model.request(&op);
        r.log.attempted += 1;
        let resp = if n.is_multiple_of(2) {
            let t = Instant::now();
            let resp = dep.server.serve(req);
            r.serve
                .entry(class)
                .or_default()
                .push(t.elapsed().as_secs_f64() * 1e6);
            resp
        } else {
            let (s0, c0) = (save_hist.sum(), save_hist.count());
            REPLAYING.with(|f| f.set(true));
            let resp = {
                let _s = trace::span(handle_span(class), "server");
                dep.server.handle(&req)
            };
            REPLAYING.with(|f| f.set(false));
            let e = r.save_micros.entry(class).or_default();
            e.0 += save_hist.sum() - s0;
            e.1 += save_hist.count() - c0;
            resp
        };
        match model.check(&op, resp.status.code(), &resp.body) {
            Ok(()) => r.log.acked(&op, &resp.body),
            Err(e) => r.log.fail(e),
        }
        direct_calls(&op, dep, model, &dir, &acl, &mut r);
    }
    r.spans = trace::take();
    r
}

/// Time the layer functions a request of this class reaches, called
/// directly with the same arguments the server would pass.
fn direct_calls(
    op: &Op,
    dep: &Deployment,
    model: &Model,
    dir: &Directory,
    acl: &Acl,
    r: &mut Replay,
) {
    let user = gen::user_name(op.user());
    let (access, names) = {
        let _s = trace::span("security.access", "security");
        let access = acl.effective(dir, &user);
        let mut names = dir.names_of(&user);
        names.push(user.to_lowercase());
        (access, names)
    };
    match op {
        Op::View {
            json, view, start, ..
        } => {
            let snap = {
                let _s = trace::span("core.snapshot", "core");
                dep.db.snapshot()
            };
            let shadow = dep.shadow.as_ref().expect("traced");
            let page = {
                let _s = trace::span("views.page", "views");
                shadow.views[*view].page(0, start - 1, gen::PAGE_ROWS)
            };
            let mut rows = Vec::new();
            {
                let _s = trace::span("core.rows", "core");
                for (i, e) in page.rows.iter().enumerate() {
                    r.rows_examined += 1;
                    let Ok(note) = snap.open_arc(e.note_id) else {
                        continue;
                    };
                    if !can_read_document(&access, &names, &note.readers()) {
                        r.rows_hidden += 1;
                        continue;
                    }
                    rows.push(render::Row {
                        position: start + i,
                        unid: e.unid,
                        response_level: e.response_level,
                        cells: e.values.iter().map(|v| v.to_text()).collect(),
                    });
                }
            }
            let columns: Vec<String> = designs()[*view]
                .columns
                .iter()
                .map(|c| c.title.clone())
                .collect();
            let _s = trace::span("server.render", "server");
            let body = if *json {
                render::view_entries_json(&columns, &rows, *start, gen::PAGE_ROWS, page.total)
            } else {
                render::view_page(
                    DB,
                    VIEWS[*view],
                    &columns,
                    &rows,
                    *start,
                    gen::PAGE_ROWS,
                    page.total,
                )
            };
            std::hint::black_box(body);
        }
        Op::Open { doc, .. } => {
            let session = Session::new(dep.db.clone(), &user, dir.clone());
            let _s = trace::span("core.open_doc", "core");
            let _ = std::hint::black_box(session.open_by_unid(model.unids[*doc]));
        }
        Op::Search { query, .. } => {
            let _snap = {
                let _s = trace::span("core.snapshot", "core");
                dep.db.snapshot()
            };
            let shadow = dep.shadow.as_ref().expect("traced");
            let _s = trace::span("ftindex.query", "ftindex");
            let _ = std::hint::black_box(shadow.ft.search(query));
        }
        Op::Save { .. } | Op::Create { .. } => {
            let mut note = Note::document("Topic");
            note.set("Subject", Value::text("probe"));
            let _s = trace::span("core.form_lookup", "core");
            let _ = std::hint::black_box(domino_core::form_for(&dep.db, &note));
        }
        Op::Delete { .. } => {}
    }
}

/// The web workloads' layer metrics and breakdown.
fn layers_web(
    out: &mut Outcome,
    delta: &obs::Snapshot,
    io: &trace::IoSnap,
    untraced: &ConnLog,
    traced: &ConnLog,
    replay: &Replay,
    untraced_mean_us: f64,
) {
    layers::common(out, delta, io);
    let c = |n: &str| delta.counter(n) as f64;
    let reads = untraced.samples.iter().filter(|s| !s.0.is_write()).count() as f64;
    let writes = untraced.samples.len() as f64 - reads;
    out.layer(
        "netio.rejected",
        c("Http.Conn.Rejected") + c("Http.Conn.BadRequests"),
        "count",
    );
    let hits = c("Http.Cache.Hits");
    let lookups = hits + c("Http.Cache.Misses");
    out.layer("server.cache_hit_ratio", ratio(hits, lookups), "ratio");
    out.layer("server.cache_lookups", lookups, "count");
    out.layer(
        "server.invalidations_per_write",
        ratio(c("Http.Cache.Invalidations"), writes),
        "ratio",
    );
    out.layer(
        "server.shed_frac",
        ratio(c("Http.Worker.Shed"), c("Http.Request.Served")),
        "ratio",
    );
    out.layer(
        "core.hydrations_per_read",
        ratio(c("Db.Snapshot.Hydrated"), reads),
        "ratio",
    );
    out.layer(
        "security.rows_hidden_ratio",
        ratio(replay.rows_hidden as f64, replay.rows_examined as f64),
        "ratio",
    );

    let spans = &replay.spans;
    let b = trace::breakdown(spans);
    let span_mean = |name: &str| layers::root_mean_us(spans, name);
    let access = span_mean("security.access");
    let snapshot = span_mean("core.snapshot");
    let rows = span_mean("core.rows");
    let page = span_mean("views.page");
    let render_us = span_mean("server.render");
    let open_doc = span_mean("core.open_doc");
    let ft_query = span_mean("ftindex.query");
    let form = span_mean("core.form_lookup");
    out.layer("netio.parse_us", span_mean("netio.parse"), "us");
    out.layer("security.access_us", access, "us");
    out.layer("core.snapshot_us", snapshot, "us");
    out.layer("core.open_doc_us", open_doc, "us");
    out.layer("core.form_lookup_us", form, "us");
    out.layer("views.page_us", page, "us");
    out.layer("server.render_us", render_us, "us");
    // The shadow copies' apply work happens inside `handle`; it is the
    // benchmark's own and is taken back out of every handle time.
    let shadow_us = |c: Class| {
        b.get(handle_span(c)).map_or((0.0, 0.0), |x| {
            let n = x.count.max(1) as f64;
            (
                x.self_ns.get("views").copied().unwrap_or(0) as f64 / n / 1e3,
                x.self_ns.get("ftindex").copied().unwrap_or(0) as f64 / n / 1e3,
            )
        })
    };
    let handle = |c: Class| -> f64 {
        b.get(handle_span(c)).map_or(0.0, |x| {
            let (v, f) = shadow_us(c);
            x.total_ns as f64 / x.count.max(1) as f64 / 1e3 - v - f
        })
    };
    let serve = |c: Class| mean(replay.serve.get(&c).map_or(&[][..], |v| &v[..]));
    let apply: Vec<f64> = spans
        .iter()
        .filter(|s| s.name == "views.apply")
        .map(|s| s.dur_ns() as f64 / 1e3)
        .collect();
    out.layer("views.apply_us", mean(&apply), "us");
    let mean_of = |classes: &[Class], f: &dyn Fn(Class) -> f64| {
        let v: Vec<f64> = classes
            .iter()
            .filter(|c| b.contains_key(handle_span(**c)))
            .map(|c| f(*c))
            .collect();
        mean(&v)
    };
    out.layer(
        "server.handle_us.view",
        mean_of(&[Class::OpenView, Class::ReadViewEntries], &handle),
        "us",
    );
    out.layer(
        "server.handle_us.doc",
        mean_of(&[Class::OpenDocument], &handle),
        "us",
    );
    out.layer(
        "server.handle_us.search",
        mean_of(&[Class::SearchView], &handle),
        "us",
    );
    out.layer(
        "server.handle_us.save",
        mean_of(&[Class::SaveDocument], &handle),
        "us",
    );

    // Per-class breakdown of the traced end-to-end mean. The socket tax
    // (client round trip minus `serve`) is measured on reads, which rarely
    // wait for one another; a write's excess over it is waiting on shared
    // locks and processors under concurrency, and stays unattributed.
    let classes = [
        Class::OpenView,
        Class::ReadViewEntries,
        Class::OpenDocument,
        Class::SearchView,
        Class::SaveDocument,
        Class::CreateDocument,
        Class::DeleteDocument,
    ];
    let traced_mean = |class: Class| {
        let v: Vec<f64> = traced
            .samples
            .iter()
            .filter(|s| s.0 == class)
            .map(|s| s.2 as f64 / 1e3)
            .collect();
        (v.len() as f64, mean(&v))
    };
    let measured = |c: Class| {
        traced_mean(c).0 > 0.0 && b.contains_key(handle_span(c)) && replay.serve.contains_key(&c)
    };
    let weighted = |v: &[(f64, f64)]| {
        let w: f64 = v.iter().map(|x| x.0).sum();
        ratio(v.iter().map(|x| x.0 * x.1).sum(), w)
    };
    let reads: Vec<Class> = classes
        .iter()
        .copied()
        .filter(|c| !c.is_write() && measured(*c))
        .collect();
    let tax = weighted(
        &reads
            .iter()
            .map(|c| (traced_mean(*c).0, traced_mean(*c).1 - serve(*c)))
            .collect::<Vec<_>>(),
    );
    let queue = weighted(
        &reads
            .iter()
            .map(|c| (traced_mean(*c).0, serve(*c) - handle(*c)))
            .collect::<Vec<_>>(),
    );
    out.layer("netio.http_tax_us", tax, "us");
    out.layer("server.queue_us", queue, "us");
    let mut parts = Vec::new();
    for class in classes.into_iter().filter(|c| measured(*c)) {
        let (n, e2e_us) = traced_mean(class);
        let (serve_us, handle_us) = (serve(class), handle(class));
        let mut part = Part {
            label: class.name(),
            weight: n,
            e2e_us,
            layers: Vec::new(),
        };
        if class.is_write() {
            part.add("netio", tax.min(e2e_us - serve_us));
        } else {
            part.add("netio", e2e_us - serve_us);
        }
        part.add("server", serve_us - handle_us);
        part.add("security", access);
        match class {
            Class::OpenView | Class::ReadViewEntries => {
                part.add("core", snapshot + rows);
                part.add("views", page);
                part.add("server", render_us);
            }
            Class::OpenDocument => part.add("core", (open_doc - access).max(0.0)),
            Class::SearchView => {
                part.add("core", snapshot);
                part.add("ftindex", ft_query);
            }
            Class::SaveDocument | Class::CreateDocument | Class::DeleteDocument => {
                let x = &b[handle_span(class)];
                let n = x.count.max(1) as f64;
                let layer = |l: &str| x.self_ns.get(l).copied().unwrap_or(0) as f64 / n / 1e3;
                let (views, ft) = shadow_us(class);
                let (sum, cnt) = replay.save_micros.get(&class).copied().unwrap_or((0, 0));
                // Database::save's own time, without the shadow copies.
                let save = (ratio(sum as f64, cnt as f64) - views - ft).max(0.0);
                let (wal, storage) = (layer("wal"), layer("storage"));
                part.add("wal", wal);
                part.add("storage", storage);
                part.add("views", views);
                part.add("ftindex", ft);
                let lookup = if class == Class::DeleteDocument {
                    0.0
                } else {
                    form
                };
                part.add(
                    "core",
                    (save - wal - storage - views - ft).max(0.0) + lookup,
                );
            }
        }
        parts.push(part);
    }
    layers::report_breakdown(out, &parts, untraced_mean_us, spans.len());
}

/// NSF plus log bytes right after a checkpoint, and the logical bytes of
/// live user items. The background checkpointer is stopped around the
/// checkpoint, which would otherwise fail whenever one of its own is in
/// flight.
fn space(dep: &mut Deployment) -> domino_types::Result<(u64, u64)> {
    if let Some(c) = dep.checkpointer.take() {
        c.stop();
    }
    let checkpointed = dep.db.checkpoint();
    dep.checkpointer = Some(
        dep.db
            .start_checkpointer(CHECKPOINT_EVERY, CHECKPOINT_PAGES_PER_STEP),
    );
    checkpointed?;
    let nsf = dep.dir.join("bench.nsf");
    let disk = file_len(&nsf) + file_len(&nsf.with_extension("txn"));
    Ok((disk, user_bytes(&dep.db)))
}

/// Logical bytes of the user items of every live document: all items but
/// the system's own (`$`-named), attachments included.
pub fn user_bytes(db: &Database) -> u64 {
    let mut bytes = 0u64;
    for note in db.snapshot().documents() {
        for it in note.items() {
            if !it.name.starts_with('$') || it.name == "$FILE" {
                bytes += it.value.to_text().len() as u64;
            }
        }
    }
    bytes
}

/// Reopen the crashed NSF and check every acknowledged write.
fn verify_reopen(nsf: &Path, model: &Model, all: &mut ConnLog) -> domino_types::Result<()> {
    let db = Database::open_path(nsf, db_config("Bench", 0xB1), LogicalClock::new())?;
    let mut last: HashMap<usize, &str> = HashMap::new();
    for (doc, rev) in &all.saved {
        last.insert(*doc, rev);
    }
    let mut failures = Vec::new();
    for (doc, rev) in &last {
        match db.open_by_unid(model.unids[*doc]) {
            Ok(n) if n.get_text("Rev").as_deref() == Some(*rev) => {}
            Ok(n) => failures.push(format!(
                "after reopen, document {doc} has Rev {:?}, acknowledged {rev}",
                n.get_text("Rev")
            )),
            Err(e) => failures.push(format!("after reopen, saved document {doc}: {e}")),
        }
    }
    for (unid, rev) in &all.created {
        match db.open_by_unid(*unid) {
            Ok(n) if n.get_text("Rev").as_deref() == Some(rev.as_str()) => {}
            _ => failures.push(format!(
                "after reopen, created document {unid} is missing or stale"
            )),
        }
    }
    for doc in &all.deleted {
        if db.open_by_unid(model.unids[*doc]).is_ok() {
            failures.push(format!("after reopen, deleted document {doc} is back"));
        }
    }
    for f in failures {
        all.fail(f);
    }
    Ok(())
}
