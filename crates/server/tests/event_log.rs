//! Integration tests for the `log.nsf` loop: events emitted anywhere in
//! the process are filed as documents in a real Notes database, which is
//! then browsed over HTTP under its own ACL like any application data.
//!
//! Every test drains the *global* event bus, so they serialize on one
//! mutex and clear the bus before starting.

use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

use domino_core::{Database, DbConfig, Note};
use domino_obs as obs;
use domino_security::AccessLevel;
use domino_server::{
    Console, DominoServer, LoggerConfig, ProbeCondition, ProbeEngine, ProbeRule, Request,
    ServerConfig, ServerLog,
};
use domino_types::{LogicalClock, NoteClass, ReplicaId, Value};
use domino_views::{ColumnSpec, ViewDesign};

static BUS: Mutex<()> = Mutex::new(());

fn exclusive_bus() -> MutexGuard<'static, ()> {
    let guard = BUS.lock().unwrap_or_else(|e| e.into_inner());
    // Clear residue from earlier tests (and anything module setup emitted).
    obs::drain(usize::MAX);
    guard
}

fn quiet_logger_config() -> LoggerConfig {
    LoggerConfig {
        stats_every: 0,
        probe_every: 0,
        ..LoggerConfig::default()
    }
}

fn app_database() -> Arc<Database> {
    let db = Arc::new(
        Database::open_in_memory(
            DbConfig::new("Discussion", ReplicaId(71), ReplicaId(72)),
            LogicalClock::new(),
        )
        .unwrap(),
    );
    let mut topic = Note::document("Topic");
    topic.set("Subject", Value::text("welcome"));
    db.save(&mut topic).unwrap();
    db
}

/// Find the first document in `db` whose `Code` item equals `code`.
fn doc_with_code(db: &Database, code: &str) -> Option<Note> {
    for id in db.note_ids(Some(NoteClass::Document)).unwrap() {
        let doc = db.open_summary(id).unwrap();
        if doc.get_text("Code").as_deref() == Some(code) {
            return Some(doc);
        }
    }
    None
}

#[test]
fn requests_become_domlog_documents_browsable_under_acl() {
    let _bus = exclusive_bus();

    let disc = app_database();
    let server = DominoServer::new(ServerConfig::default());
    server.register_database("disc", &disc).unwrap();
    let design = ViewDesign::new("topics", r#"SELECT Form = "Topic""#)
        .unwrap()
        .column(ColumnSpec::new("Subject", "Subject").unwrap());
    server.add_view("disc", design).unwrap();
    server.register_user("ada", "pw");
    server.register_user("bob", "pw");

    let log = ServerLog::with_config(quiet_logger_config()).unwrap();
    log.grant("ada", AccessLevel::Reader).unwrap();
    server.register_database("log", log.database()).unwrap();

    // Traffic: a successful authed read, and an anonymous attempt at a
    // NoAccess database (a security denial).
    let ok = server.handle(&Request::get("/disc.nsf/topics?OpenView").as_user("ada", "pw"));
    assert_eq!(ok.status.code(), 200);
    let denied = server.handle(&Request::get("/log.nsf/events?OpenView"));
    assert_eq!(denied.status.code(), 401);

    // A replication-kind event rides the same bus (the replicator emits
    // these itself; synthesized here to keep the test hermetic).
    obs::emit(
        obs::Event::new(obs::EventKind::Replica, obs::Severity::Info, "Replica.Pass")
            .with("src", "a")
            .with("dst", "b")
            .with("added", 3u64),
    );

    let report = log.drain();
    assert!(report.drained >= 3, "expected >= 3 events, got {report:?}");
    assert_eq!(report.suppressed, 0);

    // The 200 request was filed as an HttpRequest document with the
    // domlog items.
    let db = log.database();
    let mut found_ok = false;
    for id in db.note_ids(Some(NoteClass::Document)).unwrap() {
        let doc = db.open_summary(id).unwrap();
        if doc.get_text("Form").as_deref() == Some("HttpRequest")
            && doc.get_text("Command").as_deref() == Some("/disc.nsf/topics?OpenView")
        {
            assert_eq!(doc.get_text("Method").as_deref(), Some("GET"));
            assert_eq!(doc.get_text("User").as_deref(), Some("ada"));
            assert_eq!(
                doc.get("Status").and_then(|v| v.as_number().ok()),
                Some(200.0)
            );
            assert!(doc.get("DurationMicros").is_some());
            found_ok = true;
        }
    }
    assert!(found_ok, "no HttpRequest document for the 200 request");

    // The 401 produced a Security event document too.
    let denial = doc_with_code(db, "Http.Denied").expect("Http.Denied event document");
    assert_eq!(denial.get_text("Kind").as_deref(), Some("Security"));
    assert_eq!(denial.get_text("Severity").as_deref(), Some("Warning"));

    // And the replica event was filed under the Replication form.
    let pass = doc_with_code(db, "Replica.Pass").expect("Replica.Pass event document");
    assert_eq!(pass.get_text("Form").as_deref(), Some("Replication"));

    // Now browse the log itself over HTTP. Ada (Reader) sees the views
    // and documents; anonymous gets 401; bob (no ACL entry) gets 403.
    let page = server.handle(&Request::get("/log.nsf/requests?OpenView").as_user("ada", "pw"));
    assert_eq!(page.status.code(), 200);
    assert!(
        page.body.contains("disc.nsf"),
        "view page lists the request"
    );

    let unid = doc_with_code(db, "Http.Denied").unwrap().unid();
    let doc_page = server.handle(
        &Request::get(&format!("/log.nsf/events/{unid}?OpenDocument")).as_user("ada", "pw"),
    );
    assert_eq!(doc_page.status.code(), 200);
    assert!(doc_page.body.contains("Http.Denied"));

    assert_eq!(
        server
            .handle(&Request::get("/log.nsf/requests?OpenView"))
            .status
            .code(),
        401
    );
    assert_eq!(
        server
            .handle(&Request::get("/log.nsf/requests?OpenView").as_user("bob", "pw"))
            .status
            .code(),
        403
    );
}

/// PINNED: the logger must never log its own writes. An observer on
/// `log.nsf` emits an event from inside the drain's write path; the
/// re-entrancy guard must discard it (emit returns false, counted in
/// `Obs.Event.Suppressed`), and it must never surface as a document.
#[test]
fn log_writes_never_emit_events_about_themselves() {
    let _bus = exclusive_bus();

    let log = ServerLog::with_config(quiet_logger_config()).unwrap();
    let results: Arc<Mutex<Vec<bool>>> = Arc::new(Mutex::new(Vec::new()));
    let sink = results.clone();
    log.database()
        .subscribe_batch(Arc::new(move |_events: &[domino_core::ChangeEvent]| {
            // This runs on the drainer thread, inside the write path — the
            // place a naive logger would recurse.
            let accepted = obs::emit(obs::Event::new(
                obs::EventKind::Misc,
                obs::Severity::Info,
                "Test.LogRecursion",
            ));
            sink.lock().unwrap().push(accepted);
        }));

    obs::emit(obs::Event::new(
        obs::EventKind::Misc,
        obs::Severity::Info,
        "Test.Outer",
    ));
    let report = log.drain();
    assert_eq!(report.drained, 1);
    assert_eq!(report.written, 1);

    let attempts = results.lock().unwrap().clone();
    assert!(!attempts.is_empty(), "observer never ran");
    assert!(
        attempts.iter().all(|accepted| !accepted),
        "an emit from inside the log write path was accepted: {attempts:?}"
    );
    assert!(report.suppressed >= 1, "guard did not count the recursion");
    assert_eq!(log.recursion_events(), report.suppressed);

    // The recursive event is gone: not on the bus, not in the log.
    assert!(obs::drain(usize::MAX).is_empty());
    assert!(doc_with_code(log.database(), "Test.LogRecursion").is_none());
    assert!(doc_with_code(log.database(), "Test.Outer").is_some());
}

#[test]
fn probe_verdicts_escalate_clear_and_reach_the_console() {
    let _bus = exclusive_bus();

    let counter = obs::counter("Http.Test.EventLogShed");
    let log = ServerLog::with_config(LoggerConfig {
        stats_every: 0,
        probe_every: 1,
        ..LoggerConfig::default()
    })
    .unwrap();
    log.set_probes(Some(ProbeEngine::new(vec![ProbeRule::new(
        "test.shed",
        ProbeCondition::CounterDeltaAtLeast {
            metric: "Http.Test.EventLogShed",
            threshold: 1,
        },
        obs::Severity::Warning,
    )
    .escalating_after(1)])));

    counter.add(5);
    log.drain(); // fires at Warning
    counter.add(5);
    log.drain(); // still firing: escalates to Failure
    log.drain(); // quiet: clears

    let db = log.database();
    let mut severities = Vec::new();
    for id in db.note_ids(Some(NoteClass::Document)).unwrap() {
        let doc = db.open_summary(id).unwrap();
        match doc.get_text("Code").as_deref() {
            Some("Ddm.Probe") => {
                assert_eq!(doc.get_text("Form").as_deref(), Some("Probe"));
                assert_eq!(doc.get_text("Probe").as_deref(), Some("test.shed"));
                severities.push(doc.get_text("Severity").unwrap());
            }
            Some("Ddm.Probe.Cleared") => {
                assert_eq!(doc.get_text("Probe").as_deref(), Some("test.shed"));
                severities.push("Cleared".to_string());
            }
            _ => {}
        }
    }
    let severities: Vec<&str> = severities.iter().map(String::as_str).collect();
    assert_eq!(
        severities,
        vec!["Warning", "Failure", "Cleared"],
        "probe lifecycle: fire, escalate, clear"
    );

    // The console surfaces the same story from the in-memory tail.
    let console = Console::new(log.clone());
    let shown = console.exec("show events warning");
    assert!(shown.contains("Ddm.Probe"), "{shown}");
    assert!(
        !shown.contains("Ddm.Probe.Cleared"),
        "the Normal clear is below the warning floor: {shown}"
    );
    let all = console.exec("show events");
    assert!(all.contains("Ddm.Probe.Cleared"), "{all}");
    assert!(console.exec("show tasks").contains("> show tasks"));
    assert!(console
        .exec("tell logger rotate")
        .contains("> tell logger rotate"));
    assert!(console.exec("show nonsense").contains("unknown command"));
}

#[test]
fn rotation_keeps_the_log_bounded_and_newest() {
    let _bus = exclusive_bus();

    let log = ServerLog::with_config(LoggerConfig {
        max_documents: 40,
        rotate_to: 20,
        stats_every: 0,
        probe_every: 0,
        tail: 8,
        ..LoggerConfig::default()
    })
    .unwrap();

    for round in 0..4 {
        for i in 0..15 {
            obs::emit(
                obs::Event::new(obs::EventKind::Misc, obs::Severity::Info, "Test.Fill")
                    .with("n", (round * 15 + i) as u64),
            );
        }
        log.drain();
    }
    // 60 events were filed; rotation kicked in past 40 and trimmed to 20,
    // so the count stays bounded.
    assert!(
        log.document_count() <= 40,
        "log grew past its ceiling: {}",
        log.document_count()
    );
    assert!(obs::counter("Logger.Rotations").get() >= 1);

    // Survivors are the newest events (highest LogSeq/fill numbers).
    let db = log.database();
    let mut max_n = 0u64;
    for id in db.note_ids(Some(NoteClass::Document)).unwrap() {
        let doc = db.open_summary(id).unwrap();
        if let Some(n) = doc.get("N").and_then(|v| v.as_number().ok()) {
            max_n = max_n.max(n as u64);
        }
    }
    assert_eq!(max_n, 59, "the newest event must survive rotation");
    // No deletion stubs linger — rotation purges them immediately.
    assert!(db.stubs().unwrap().is_empty());
}

#[test]
fn stopping_the_logger_files_what_is_on_the_bus() {
    let _bus = exclusive_bus();

    let log = ServerLog::with_config(quiet_logger_config()).unwrap();
    let handle = log.start(Duration::from_secs(60));
    obs::emit(obs::Event::new(
        obs::EventKind::Server,
        obs::Severity::Info,
        "Test.FinalDrain",
    ));
    // No interval has passed: only the final drain on stop can file it.
    handle.stop();
    assert!(
        doc_with_code(log.database(), "Test.FinalDrain").is_some(),
        "stop stranded an event on the bus"
    );
}

#[test]
fn background_logger_task_files_events_and_shows_in_roster() {
    let _bus = exclusive_bus();

    let log = ServerLog::with_config(quiet_logger_config()).unwrap();
    let handle = log.start(Duration::from_millis(10));
    obs::emit(obs::Event::new(
        obs::EventKind::Server,
        obs::Severity::Info,
        "Test.Background",
    ));
    // The drainer files it within a few intervals.
    let mut waited = 0;
    while doc_with_code(log.database(), "Test.Background").is_none() && waited < 200 {
        std::thread::sleep(Duration::from_millis(10));
        waited += 1;
    }
    assert!(
        doc_with_code(log.database(), "Test.Background").is_some(),
        "background drainer never filed the event"
    );
    assert!(
        obs::show_tasks().contains("logger"),
        "logger missing from show tasks: {}",
        obs::show_tasks()
    );
    handle.stop();
}
