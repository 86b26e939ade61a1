//! The request executor: authentication, ACL enforcement, command
//! dispatch, the worker-pool front door, and the background agent
//! manager ("amgr") driver.
//!
//! One [`DominoServer`] hosts any number of registered databases. Every
//! request runs the same pipeline a Domino HTTP worker runs:
//!
//! 1. parse the URL command (`400` on anything malformed),
//! 2. authenticate the claimed identity against the user registry
//!    (`401` on a bad name/password; no header means `Anonymous`),
//! 3. resolve the database (`404`),
//! 4. execute under a [`Session`] so the ACL, `$Readers`, and
//!    protected-item rules all apply — denials map to `401` for
//!    anonymous callers (the browser should ask for credentials) and
//!    `403` for authenticated ones,
//! 5. render, consulting the command cache for view pages.

use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::{mpsc, Arc, OnceLock};
use std::time::{Duration, Instant};

use domino_core::{AgentScheduler, AgentTickReport, Database, Note, Session};
use domino_ftindex::FtIndex;
use domino_obs as obs;
use domino_security::acl::EffectiveAccess;
use domino_security::{can_read_document, Directory};
use domino_types::{Clock, DominoError, Result, Value};
use domino_views::{stored_designs, View, ViewDesign};
use parking_lot::Mutex;

use crate::cache::{CacheKey, CachedPage, CommandCache, PageKind};
use crate::http::{Credentials, Request, Response, Status};
use crate::pool::WorkerPool;
use crate::render::{self, Row};
use crate::url::{self, UrlCommand};

/// The identity of requests without credentials.
pub const ANONYMOUS: &str = "Anonymous";

struct Metrics {
    served: &'static obs::Counter,
    micros: &'static obs::Histogram,
    ok: &'static obs::Counter,
    denied: &'static obs::Counter,
    client_err: &'static obs::Counter,
    server_err: &'static obs::Counter,
    agent_runs: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        served: obs::counter("Http.Request.Served"),
        micros: obs::histogram("Http.Request.Micros"),
        ok: obs::counter("Http.Request.Ok"),
        denied: obs::counter("Http.Request.Denied"),
        client_err: obs::counter("Http.Request.ClientError"),
        server_err: obs::counter("Http.Request.Error"),
        agent_runs: obs::counter("Http.Amgr.AgentRuns"),
    })
}

/// Sizing knobs for the HTTP task (see OPERATIONS.md §"The HTTP task").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads serving requests (Domino: `HTTP.NumberOfWorkers`).
    pub workers: usize,
    /// Requests allowed to wait in the queue before load-shedding 503s.
    pub queue_bound: usize,
    /// Rendered view pages the command cache holds (0 disables caching).
    pub cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            queue_bound: 64,
            cache_capacity: 256,
        }
    }
}

/// One view attached at registration: its column titles plus the live
/// maintained index.
struct SiteView {
    name: String,
    columns: Vec<String>,
    view: View,
}

impl SiteView {
    fn attach(db: &Arc<Database>, design: ViewDesign) -> Result<SiteView> {
        Ok(SiteView {
            name: design.name.clone(),
            columns: design.columns.iter().map(|c| c.title.clone()).collect(),
            view: View::attach(db, design)?,
        })
    }
}

/// One registered database: the notes, its live views, its full-text
/// index, and its agent-manager state.
struct Site {
    name: String,
    db: Arc<Database>,
    views: Mutex<HashMap<String, Arc<SiteView>>>,
    ft: FtIndex,
    amgr: Mutex<AgentScheduler>,
}

impl Site {
    fn view(&self, name: &str) -> Option<Arc<SiteView>> {
        self.views.lock().get(&name.to_lowercase()).cloned()
    }
}

struct Inner {
    sites: Mutex<HashMap<String, Arc<Site>>>,
    users: Mutex<HashMap<String, String>>,
    directory: Mutex<Directory>,
    cache: CommandCache,
}

/// Strip a `.nsf` suffix and lowercase: the canonical database key.
fn normalize_db(path: &str) -> String {
    let lower = path.to_lowercase();
    lower
        .strip_suffix(".nsf")
        .unwrap_or(&lower)
        .trim_matches('/')
        .to_string()
}

/// Digest of everything the reader-field check consumes for a user: ACL
/// level, sorted roles, sorted alias set (which includes the user's own
/// name). Two users get the same class only if no `$Readers` list could
/// distinguish them. (`DefaultHasher` is deterministic per process.)
fn access_class(access: &EffectiveAccess, names: &[String]) -> u64 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    access.level.hash(&mut h);
    let mut roles: Vec<&str> = access.roles.iter().map(String::as_str).collect();
    roles.sort_unstable();
    roles.hash(&mut h);
    names.hash(&mut h);
    h.finish()
}

/// Map an execution error to a Domino status. Access denials become 401
/// for anonymous callers (authenticate and retry) and 403 for named ones.
fn error_response(anonymous: bool, e: &DominoError) -> Response {
    let status = match e {
        DominoError::AccessDenied(_) => {
            if anonymous {
                Status::Unauthorized
            } else {
                Status::Forbidden
            }
        }
        DominoError::NotFound(_) => Status::NotFound,
        DominoError::InvalidArgument(_)
        | DominoError::FormulaParse(_)
        | DominoError::FormulaEval(_) => Status::BadRequest,
        DominoError::UpdateConflict(_) => Status::Conflict,
        DominoError::Unavailable(_) => Status::Unavailable,
        _ => Status::ServerError,
    };
    Response::error(status, &e.to_string())
}

/// The Domino HTTP task. Cheap to clone (all clones share one server).
#[derive(Clone)]
pub struct DominoServer {
    inner: Arc<Inner>,
    // Outside `Inner` on purpose: queued jobs hold `Arc<Inner>`, so if the
    // pool lived inside `Inner` the last job could drop `Inner` *on a
    // worker thread* and the pool's Drop would join its own thread.
    pool: Arc<WorkerPool>,
}

impl DominoServer {
    /// Start the task: worker threads come up immediately.
    pub fn new(config: ServerConfig) -> DominoServer {
        DominoServer {
            inner: Arc::new(Inner {
                sites: Mutex::new(HashMap::new()),
                users: Mutex::new(HashMap::new()),
                directory: Mutex::new(Directory::new()),
                cache: CommandCache::new(config.cache_capacity),
            }),
            pool: Arc::new(WorkerPool::new(config.workers, config.queue_bound)),
        }
    }

    /// Serve a database at `/{path}.nsf/...`. All stored view designs are
    /// attached (built and kept current), the full-text index is built,
    /// and an agent scheduler is created for [`DominoServer::amgr_tick`].
    pub fn register_database(&self, path: &str, db: &Arc<Database>) -> Result<()> {
        let name = normalize_db(path);
        if name.is_empty() {
            return Err(DominoError::InvalidArgument(
                "database path must be non-empty".into(),
            ));
        }
        let mut views = HashMap::new();
        for design in stored_designs(db)? {
            let key = design.name.to_lowercase();
            views.insert(key, Arc::new(SiteView::attach(db, design)?));
        }
        let site = Site {
            name: name.clone(),
            db: db.clone(),
            views: Mutex::new(views),
            ft: FtIndex::attach(db)?,
            amgr: Mutex::new(AgentScheduler::new(db.clone(), "HTTP Amgr")),
        };
        self.inner.sites.lock().insert(name, Arc::new(site));
        Ok(())
    }

    /// Attach an additional (unstored) view design to a registered
    /// database.
    pub fn add_view(&self, db_path: &str, design: ViewDesign) -> Result<()> {
        let site = self
            .inner
            .site(&normalize_db(db_path))
            .ok_or_else(|| DominoError::NotFound(format!("no database {db_path:?}")))?;
        let sv = SiteView::attach(&site.db, design)?;
        site.views
            .lock()
            .insert(sv.name.to_lowercase(), Arc::new(sv));
        Ok(())
    }

    /// Register a user for basic authentication.
    pub fn register_user(&self, name: &str, password: &str) {
        self.inner
            .users
            .lock()
            .insert(name.to_lowercase(), password.to_string());
    }

    /// Install the group directory used for ACL evaluation.
    pub fn set_directory(&self, dir: Directory) {
        *self.inner.directory.lock() = dir;
    }

    /// Execute a request synchronously on the calling thread (bypasses
    /// the worker pool — used by tests and by the workers themselves).
    pub fn handle(&self, req: &Request) -> Response {
        self.inner.handle(req)
    }

    /// Enqueue a request on the worker pool; the response arrives on the
    /// returned channel. A full queue answers `503` immediately.
    pub fn submit(&self, req: Request) -> mpsc::Receiver<Response> {
        let (tx, rx) = mpsc::channel();
        let inner = self.inner.clone();
        let tx_job = tx.clone();
        let accepted = self.pool.try_execute(move || {
            let _ = tx_job.send(inner.handle(&req));
        });
        if !accepted {
            m().served.inc();
            m().server_err.inc();
            let _ = tx.send(Response::error(
                Status::Unavailable,
                "request queue is full — retry later",
            ));
        }
        rx
    }

    /// Enqueue a request and block for its response.
    pub fn serve(&self, req: Request) -> Response {
        self.submit(req)
            .recv()
            .unwrap_or_else(|_| Response::error(Status::ServerError, "worker dropped the request"))
    }

    /// Requests waiting in the pool queue right now.
    pub fn queue_depth(&self) -> usize {
        self.pool.queue_depth()
    }

    /// Block until every request accepted so far has finished executing
    /// (see [`WorkerPool::drain`]). The listener's graceful-shutdown
    /// path calls this after its last connection closes, so accepted
    /// work is never abandoned mid-drain.
    pub fn drain(&self) {
        self.pool.drain();
    }

    /// Rendered pages currently in the command cache.
    pub fn cached_pages(&self) -> usize {
        self.inner.cache.len()
    }

    /// Run one agent-manager pass over every registered database: due
    /// [`Scheduled`](domino_core::AgentTrigger::Scheduled) agents and —
    /// when the change sequence moved —
    /// [`OnUpdate`](domino_core::AgentTrigger::OnUpdate) agents run, at
    /// each database's current logical time.
    pub fn amgr_tick(&self) -> Result<Vec<(String, AgentTickReport)>> {
        self.inner.amgr_tick()
    }

    /// Drive [`DominoServer::amgr_tick`] from a background thread,
    /// `every` after the previous pass ended. The thread holds only a
    /// weak reference: dropping the last server clone ends it, as does
    /// dropping (or stopping) the handle, which wakes it at once.
    pub fn start_amgr(&self, every: Duration) -> AmgrHandle {
        let weak = Arc::downgrade(&self.inner);
        obs::spawn_periodic(
            "http-amgr",
            "Agent manager",
            every,
            move |task, wake| match (wake, weak.upgrade()) {
                (obs::Wake::Due, Some(inner)) => {
                    let _ = inner.amgr_tick();
                    task.beat();
                    ControlFlow::Continue(())
                }
                _ => ControlFlow::Break(()),
            },
        )
    }
}

/// Handle on the background agent-manager thread; stops it when dropped.
pub use obs::TaskThread as AmgrHandle;

impl Inner {
    fn site(&self, name: &str) -> Option<Arc<Site>> {
        self.sites.lock().get(name).cloned()
    }

    fn amgr_tick(&self) -> Result<Vec<(String, AgentTickReport)>> {
        let _span = obs::span!("Http.Amgr.Tick");
        let sites: Vec<Arc<Site>> = self.sites.lock().values().cloned().collect();
        let mut out = Vec::new();
        for site in sites {
            let now = site.db.clock().peek().0;
            let report = site.amgr.lock().tick(now)?;
            m().agent_runs.add(report.runs.len() as u64);
            out.push((site.name.clone(), report));
        }
        Ok(out)
    }

    fn handle(&self, req: &Request) -> Response {
        let _span = obs::span!("Http.Request");
        let started = Instant::now();
        m().served.inc();
        let resp = self.dispatch(req);
        let micros = started.elapsed().as_micros() as u64;
        m().micros.record_micros(started.elapsed());
        match resp.status {
            Status::Ok => m().ok.inc(),
            Status::Unauthorized | Status::Forbidden => m().denied.inc(),
            Status::BadRequest | Status::NotFound | Status::Conflict => m().client_err.inc(),
            Status::ServerError | Status::Unavailable => m().server_err.inc(),
        }
        let user = match &req.credentials {
            Credentials::Anonymous => "Anonymous".to_string(),
            Credentials::Basic { user, .. } => user.clone(),
        };
        // The domlog.nsf record: one event per request, whatever the
        // outcome. The logger task turns these into HttpRequest documents.
        obs::emit(
            obs::Event::new(obs::EventKind::Http, obs::Severity::Info, "Http.Request")
                .with("method", req.method.as_str())
                .with("command", req.target.clone())
                .with("status", u64::from(resp.status.code()))
                .with("micros", micros)
                .with("user", user.clone()),
        );
        if matches!(resp.status, Status::Unauthorized | Status::Forbidden) {
            obs::emit(
                obs::Event::new(
                    obs::EventKind::Security,
                    obs::Severity::Warning,
                    "Http.Denied",
                )
                .with("status", u64::from(resp.status.code()))
                .with("command", req.target.clone())
                .with("user", user),
            );
        }
        resp
    }

    fn dispatch(&self, req: &Request) -> Response {
        let cmd = match url::parse(&req.target) {
            Ok(c) => c,
            Err(e) => return Response::error(Status::BadRequest, &e.to_string()),
        };
        let anonymous = req.credentials == Credentials::Anonymous;
        let user = match self.authenticate(&req.credentials) {
            Ok(u) => u,
            Err(resp) => return resp,
        };
        let site = match self.site(cmd.db()) {
            Some(s) => s,
            None => {
                return Response::error(
                    Status::NotFound,
                    &format!("no database {:?} on this server", cmd.db()),
                )
            }
        };
        match self.execute(&site, &user, &cmd, req) {
            Ok(resp) => resp,
            Err(e) => error_response(anonymous, &e),
        }
    }

    fn authenticate(&self, cred: &Credentials) -> std::result::Result<String, Response> {
        match cred {
            Credentials::Anonymous => Ok(ANONYMOUS.to_string()),
            Credentials::Basic { user, password } => {
                let users = self.users.lock();
                match users.get(&user.to_lowercase()) {
                    Some(stored) if stored == password => Ok(user.clone()),
                    _ => Err(Response::error(
                        Status::Unauthorized,
                        "name and password do not match any registered user",
                    )),
                }
            }
        }
    }

    /// Effective ACL access plus the alias set used by reader-field
    /// checks (the session's own-author rule included: the user's plain
    /// name is always present). The ACL is read from the caller's pinned
    /// snapshot so the access decision and the page rows describe the
    /// same database state.
    fn access_of(
        &self,
        snap: &domino_core::Snapshot,
        user: &str,
    ) -> Result<(EffectiveAccess, Vec<String>)> {
        let dir = self.directory.lock().clone();
        let access = snap.acl()?.effective(&dir, user);
        let mut names = dir.names_of(user);
        names.push(user.to_lowercase());
        names.sort_unstable();
        names.dedup();
        Ok((access, names))
    }

    fn session(&self, site: &Site, user: &str) -> Session {
        Session::new(site.db.clone(), user, self.directory.lock().clone())
    }

    fn execute(
        &self,
        site: &Site,
        user: &str,
        cmd: &UrlCommand,
        req: &Request,
    ) -> Result<Response> {
        match cmd {
            UrlCommand::OpenView {
                view, start, count, ..
            } => self.view_page(site, user, view, *start, *count, PageKind::Html),
            UrlCommand::ReadViewEntries {
                view, start, count, ..
            } => self.view_page(site, user, view, *start, *count, PageKind::Json),
            UrlCommand::OpenDocument { unid, .. } => {
                let note = self.session(site, user).open_by_unid(*unid)?;
                Ok(Response::html(render::document_page(&site.name, &note)))
            }
            UrlCommand::EditDocument { unid, .. } => {
                let note = self.session(site, user).open_by_unid(*unid)?;
                Ok(Response::html(render::edit_page(&site.name, &note)))
            }
            UrlCommand::SaveDocument { unid, .. } => {
                let fields = url::parse_form(&req.body)?;
                if fields.is_empty() {
                    return Err(DominoError::InvalidArgument(
                        "SaveDocument body carries no fields".into(),
                    ));
                }
                let session = self.session(site, user);
                let mut note = session.open_by_unid(*unid)?;
                for (k, v) in fields {
                    note.set(&k, Value::text(v));
                }
                session.save(&mut note)?;
                Ok(Response::html(render::message_page(
                    "Document saved",
                    &note.unid().to_string(),
                )))
            }
            UrlCommand::CreateDocument { form, .. } => {
                let mut note = Note::document(form);
                for (k, v) in url::parse_form(&req.body)? {
                    if !k.eq_ignore_ascii_case("form") {
                        note.set(&k, Value::text(v));
                    }
                }
                self.session(site, user).save(&mut note)?;
                Ok(Response::html(render::message_page(
                    "Document created",
                    &note.unid().to_string(),
                )))
            }
            UrlCommand::DeleteDocument { unid, .. } => {
                let id = site
                    .db
                    .id_of_unid(*unid)?
                    .ok_or_else(|| DominoError::NotFound(format!("no document {unid}")))?;
                self.session(site, user).delete(id)?;
                Ok(Response::html(render::message_page(
                    "Document deleted",
                    &unid.to_string(),
                )))
            }
            UrlCommand::SearchView {
                view, query, count, ..
            } => self.search_view(site, user, view, query, *count),
        }
    }

    /// Render (or serve from cache) one `?OpenView`/`?ReadViewEntries`
    /// window. The whole read runs against a pinned snapshot and a single
    /// consistent view page ([`domino_views::ViewPage`]) — no writer lock
    /// is ever taken. The finished page is cached under the requester's
    /// access class, keyed by the `(view version, snapshot seq)` pair it
    /// was rendered from, so a hit is byte-identical by construction and
    /// any concurrent commit or index mutation expires it.
    fn view_page(
        &self,
        site: &Site,
        user: &str,
        view_name: &str,
        start: usize,
        count: usize,
        kind: PageKind,
    ) -> Result<Response> {
        let snap = site.db.snapshot();
        let (access, names) = self.access_of(&snap, user)?;
        if !access.level.can_read() {
            return Err(DominoError::AccessDenied(format!(
                "{user} may not open database {}",
                site.name
            )));
        }
        let key = CacheKey {
            db: site.name.clone(),
            view: view_name.to_lowercase(),
            start,
            count,
            kind,
            access_class: access_class(&access, &names),
        };
        let sv = site
            .view(view_name)
            .ok_or_else(|| DominoError::NotFound(format!("no view {view_name:?}")))?;
        // One shared-access read: rows, total, and version from the same
        // guard, so they are mutually consistent (satellite: no writer
        // lock, shared view access only).
        let page = sv.view.page(0, start - 1, count);
        if let Some(hit) = self.cache.lookup(&key, page.version, snap.seq()) {
            return Ok(Response {
                status: Status::Ok,
                content_type: hit.content_type,
                body: hit.body,
                from_cache: true,
            });
        }
        let _span = obs::span!("Http.View.Render");
        let total = page.total;
        let mut rows = Vec::new();
        for (i, entry) in page.rows.iter().enumerate() {
            // Reader fields are enforced per row: the view index itself is
            // not access-partitioned. Rows read from the snapshot, so a
            // commit between the index read and here cannot tear the page.
            let note = match snap.open_arc(entry.note_id) {
                Ok(n) => n,
                Err(_) => continue, // not visible at this snapshot
            };
            if !can_read_document(&access, &names, &note.readers()) {
                continue;
            }
            rows.push(Row {
                position: start + i,
                unid: entry.unid,
                response_level: entry.response_level,
                cells: entry.values.iter().map(|v| v.to_text()).collect(),
            });
        }
        let (body, content_type) = match kind {
            PageKind::Html => (
                render::view_page(
                    &site.name,
                    &sv.name,
                    &sv.columns,
                    &rows,
                    start,
                    count,
                    total,
                ),
                "text/html",
            ),
            PageKind::Json => (
                render::view_entries_json(&sv.columns, &rows, start, count, total),
                "application/json",
            ),
        };
        self.cache.insert(
            key,
            CachedPage {
                view_version: page.version,
                snapshot_seq: snap.seq(),
                body: body.clone(),
                content_type,
            },
        );
        Ok(Response {
            status: Status::Ok,
            content_type,
            body,
            from_cache: false,
        })
    }

    /// `?SearchView`: full-text hits restricted to documents that appear
    /// in the named view and that the user may read. Not cached (Domino
    /// doesn't command-cache search results either).
    fn search_view(
        &self,
        site: &Site,
        user: &str,
        view_name: &str,
        query: &str,
        count: usize,
    ) -> Result<Response> {
        let snap = site.db.snapshot();
        let (access, names) = self.access_of(&snap, user)?;
        if !access.level.can_read() {
            return Err(DominoError::AccessDenied(format!(
                "{user} may not search database {}",
                site.name
            )));
        }
        let sv = site
            .view(view_name)
            .ok_or_else(|| DominoError::NotFound(format!("no view {view_name:?}")))?;
        let _span = obs::span!("Http.Search");
        let mut hits = Vec::new();
        for hit in site.ft.search(query)? {
            if hits.len() >= count {
                break;
            }
            if sv.view.position_of(hit.unid).is_none() {
                continue;
            }
            let note = match snap.open_by_unid(hit.unid) {
                Ok(n) => n,
                Err(_) => continue,
            };
            if !can_read_document(&access, &names, &note.readers()) {
                continue;
            }
            let title = note
                .get_text("Subject")
                .unwrap_or_else(|| hit.unid.to_string());
            hits.push((hit.unid, hit.score, title));
        }
        Ok(Response::html(render::search_page(
            &site.name, &sv.name, query, &hits,
        )))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use domino_core::{AgentDesign, DbConfig};
    use domino_security::{AccessLevel, Acl, AclEntry};
    use domino_types::{LogicalClock, ReplicaId};
    use domino_views::design::ColumnSpec;

    fn discussion() -> (DominoServer, Arc<Database>) {
        let db = Arc::new(
            Database::open_in_memory(
                DbConfig::new("Discussion", ReplicaId(1), ReplicaId(9)),
                LogicalClock::new(),
            )
            .unwrap(),
        );
        let mut acl = Acl::new(AccessLevel::Reader); // Anonymous may read
        acl.set(
            "alice",
            AclEntry::new(AccessLevel::Editor).with_role("Admin"),
        );
        acl.set("bob", AclEntry::new(AccessLevel::Author));
        acl.set("rita", AclEntry::new(AccessLevel::Reader));
        db.set_acl(&acl).unwrap();
        for i in 0..8 {
            let mut n = Note::document("Topic");
            n.set("Subject", Value::text(format!("topic {i:02}")));
            n.set("Body", Value::text(format!("body text number {i}")));
            db.save(&mut n).unwrap();
        }
        let server = DominoServer::new(ServerConfig {
            workers: 2,
            queue_bound: 16,
            cache_capacity: 32,
        });
        server.register_database("disc", &db).unwrap();
        let mut design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#).unwrap();
        design.columns = vec![
            ColumnSpec::new("Subject", "Subject")
                .unwrap()
                .sorted(domino_views::SortDir::Ascending),
            ColumnSpec::new("From", "From").unwrap(),
        ];
        server.add_view("disc", design).unwrap();
        server.register_user("alice", "pw-a");
        server.register_user("bob", "pw-b");
        server.register_user("rita", "pw-r");
        (server, db)
    }

    #[test]
    fn open_view_renders_then_caches_then_invalidates() {
        let (server, db) = discussion();
        let req = Request::get("/disc.nsf/topics?OpenView&Count=5").as_user("alice", "pw-a");
        let first = server.handle(&req);
        assert_eq!(first.status, Status::Ok);
        assert!(!first.from_cache);
        assert!(first.body.contains("topic 00"));
        let second = server.handle(&req);
        assert!(second.from_cache);
        assert_eq!(second.body, first.body);
        // A write expires every cached page of the database.
        let mut n = Note::document("Topic");
        n.set("Subject", Value::text("topic 99"));
        db.save(&mut n).unwrap();
        let third = server.handle(&req);
        assert!(!third.from_cache);
    }

    #[test]
    fn read_view_entries_is_json_and_paged() {
        let (server, _db) = discussion();
        let req = Request::get("/disc.nsf/topics?ReadViewEntries&Start=3&Count=2")
            .as_user("alice", "pw-a");
        let resp = server.handle(&req);
        assert_eq!(resp.status, Status::Ok);
        assert_eq!(resp.content_type, "application/json");
        assert!(resp.body.contains("\"@toplevelentries\":8"));
        assert!(resp.body.contains("topic 02"));
        assert!(resp.body.contains("topic 03"));
        assert!(!resp.body.contains("topic 04"));
    }

    #[test]
    fn document_lifecycle_over_urls() {
        let (server, _db) = discussion();
        // Create...
        let create = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=fresh+topic")
            .as_user("bob", "pw-b");
        let resp = server.handle(&create);
        assert_eq!(resp.status, Status::Ok);
        // ...find it via the view...
        let page = server
            .handle(&Request::get("/disc.nsf/topics?OpenView&Count=30").as_user("alice", "pw-a"));
        assert!(page.body.contains("fresh topic"));
        let unid = page
            .body
            .split("/disc.nsf/topics/")
            .nth(1)
            .and_then(|s| s.split('?').next())
            .unwrap()
            .to_string();
        // ...open, edit, save...
        let open =
            server.handle(&Request::get(&format!("/disc.nsf/{unid}?OpenDocument")).anonymous());
        assert_eq!(open.status, Status::Ok);
        let save = Request::post(
            &format!("/disc.nsf/{unid}?SaveDocument"),
            "Subject=renamed+topic",
        )
        .as_user("alice", "pw-a");
        assert_eq!(server.handle(&save).status, Status::Ok);
        let reopened =
            server.handle(&Request::get(&format!("/disc.nsf/{unid}?OpenDocument")).anonymous());
        assert!(reopened.body.contains("renamed topic"));
        // ...and delete.
        let del = server.handle(
            &Request::get(&format!("/disc.nsf/{unid}?DeleteDocument")).as_user("alice", "pw-a"),
        );
        assert_eq!(del.status, Status::Ok);
        let gone =
            server.handle(&Request::get(&format!("/disc.nsf/{unid}?OpenDocument")).anonymous());
        assert_eq!(gone.status, Status::NotFound);
    }

    #[test]
    fn status_mapping_unknowns_and_auth() {
        let (server, _db) = discussion();
        // Unknown database / view / document.
        assert_eq!(
            server.handle(&Request::get("/other.nsf/v?OpenView")).status,
            Status::NotFound
        );
        assert_eq!(
            server
                .handle(&Request::get("/disc.nsf/nosuch?OpenView"))
                .status,
            Status::NotFound
        );
        // Malformed command.
        assert_eq!(
            server
                .handle(&Request::get("/disc.nsf/topics?Florp"))
                .status,
            Status::BadRequest
        );
        // Wrong password is 401 even before touching the database.
        assert_eq!(
            server
                .handle(&Request::get("/disc.nsf/topics?OpenView").as_user("alice", "wrong"))
                .status,
            Status::Unauthorized
        );
        // Anonymous writes are 401 (please log in), named reader writes 403.
        let anon_create = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=x");
        assert_eq!(server.handle(&anon_create).status, Status::Unauthorized);
        let rita_create =
            Request::post("/disc.nsf/Topic?CreateDocument", "Subject=x").as_user("rita", "pw-r");
        assert_eq!(server.handle(&rita_create).status, Status::Forbidden);
    }

    #[test]
    fn search_view_scopes_and_scores() {
        let (server, db) = discussion();
        let mut memo = Note::document("Memo"); // not in the topics view
        memo.set("Subject", Value::text("body text number 3"));
        db.save(&mut memo).unwrap();
        let resp = server.handle(
            &Request::get("/disc.nsf/topics?SearchView&Query=%22body+text+number+3%22")
                .as_user("alice", "pw-a"),
        );
        assert_eq!(resp.status, Status::Ok);
        assert!(resp.body.contains("topic 03"));
        assert!(!resp.body.contains(&memo.unid().to_string()));
    }

    #[test]
    fn amgr_runs_on_update_agents_after_requests_write() {
        let (server, db) = discussion();
        domino_core::save_agent(
            &db,
            &AgentDesign::new(
                "stamp",
                r#"SELECT Form = "Topic" & !@IsAvailable(Stamped); FIELD Stamped := "yes""#,
            )
            .unwrap()
            .on_update(),
        )
        .unwrap();
        // Re-register so the scheduler baseline predates our write.
        server.register_database("disc", &db).unwrap();
        let create = Request::post("/disc.nsf/Topic?CreateDocument", "Subject=agent+bait")
            .as_user("alice", "pw-a");
        assert_eq!(server.handle(&create).status, Status::Ok);
        let reports = server.amgr_tick().unwrap();
        let (_, tick) = reports.iter().find(|(n, _)| n == "disc").unwrap();
        assert_eq!(tick.runs.len(), 1);
        assert!(tick.runs[0].1.modified >= 1);
        // Quiescent now.
        let again = server.amgr_tick().unwrap();
        assert!(!again.iter().any(|(_, t)| t.fired()));
    }

    #[test]
    fn amgr_stop_does_not_wait_out_the_interval() {
        let (server, _db) = discussion();
        let amgr = server.start_amgr(Duration::from_secs(60));
        let began = Instant::now();
        amgr.stop();
        assert!(
            began.elapsed() < Duration::from_secs(1),
            "amgr stop took {:?}",
            began.elapsed()
        );
    }

    #[test]
    fn pool_front_door_serves_and_sheds() {
        let (server, _db) = discussion();
        let resp = server
            .serve(Request::get("/disc.nsf/topics?OpenView&Count=3").as_user("alice", "pw-a"));
        assert_eq!(resp.status, Status::Ok);
        // Flood a tiny server: some requests must shed with 503.
        let tiny = DominoServer::new(ServerConfig {
            workers: 1,
            queue_bound: 2,
            cache_capacity: 0,
        });
        let rxs: Vec<_> = (0..50)
            .map(|_| tiny.submit(Request::get("/disc.nsf/topics?OpenView")))
            .collect();
        let sheds = rxs
            .into_iter()
            .filter(|rx| rx.recv().unwrap().status == Status::Unavailable)
            .count();
        assert!(sheds > 0, "flooding a queue of 2 must shed");
    }
}
