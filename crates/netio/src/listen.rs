//! The listener skeleton both faces run on: bind, an accept thread on
//! the task roster, a connection cap, one thread per admitted
//! connection, and a graceful drain. A face hands in its [`Face`]
//! constants and the function that serves one connection; it keeps only
//! its protocol.

use std::io::{ErrorKind, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

use domino_obs as obs;
use domino_types::{DominoError, Result};

/// How often blocked reads wake to check deadlines and the stop flag.
const POLL_TICK: Duration = Duration::from_millis(25);

/// How long dropping a listener waits for its connections to finish.
pub(crate) const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

/// What a graceful drain accomplished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DrainReport {
    /// Connections open when the drain began.
    pub connections_at_start: usize,
    /// Connections still open when the wait gave up (0 = clean drain).
    pub remaining: usize,
}

/// The per-face constants of a listener.
pub(crate) struct Face {
    /// The accept thread and roster task are `{name}-listener` (status
    /// `Listen {name}://{addr}/`), connection threads `{name}-conn`.
    pub name: &'static str,
    /// Roster kind label of the accept task.
    pub title: &'static str,
    /// Kind of the face's lifecycle events.
    pub kind: obs::EventKind,
    /// Event codes: socket bound; connection opened (if announced),
    /// closed with its outcome, refused over the cap.
    pub listen_event: &'static str,
    pub open_event: Option<&'static str>,
    pub close_event: &'static str,
    pub rejected_event: &'static str,
    /// Admitted, open and refused connections.
    pub accepted: &'static obs::Counter,
    pub active: &'static obs::Gauge,
    pub rejected: &'static obs::Counter,
    /// Concurrent connections admitted; the next one is refused.
    pub max_connections: usize,
    /// Write deadline of every admitted connection.
    pub write_timeout: Duration,
    /// Last words to a refused connection before it is closed.
    pub refuse: fn(&mut TcpStream),
}

/// One admitted connection, as the face's serve function sees it.
pub(crate) struct Accepted<'a> {
    /// The socket; reads time out every [`POLL_TICK`].
    pub stream: TcpStream,
    stop: &'a AtomicBool,
}

impl Accepted<'_> {
    /// The listener is draining: finish up and return.
    pub fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// Read what arrives within one poll tick: `Ok(Some(n))` bytes,
    /// `Ok(None)` nothing yet (re-check [`Accepted::stopping`] and any
    /// deadline, then read again), `Err(outcome)` the connection is over.
    pub fn read(&mut self, buf: &mut [u8]) -> std::result::Result<Option<usize>, &'static str> {
        match self.stream.read(buf) {
            Ok(0) => Err("peer closed"),
            Ok(n) => Ok(Some(n)),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => Ok(None),
            Err(_) => Err("read error"),
        }
    }
}

/// Serves one connection to its end and names the outcome.
type Serve = dyn Fn(Accepted<'_>) -> &'static str + Send + Sync;

struct Shared {
    face: Face,
    serve: Box<Serve>,
    stop: AtomicBool,
    active: Mutex<usize>,
    all_idle: Condvar,
    /// Connection threads not yet joined: finished ones are joined at
    /// the next accept, the rest by a clean drain.
    conns: Mutex<Vec<JoinHandle<()>>>,
}

pub(crate) fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl Shared {
    /// Take a connection slot unless all are taken.
    fn admit(&self) -> bool {
        let mut active = lock(&self.active);
        if *active >= self.face.max_connections {
            return false;
        }
        *active += 1;
        self.face.active.add(1);
        true
    }

    fn release(&self) {
        self.face.active.add(-1);
        let mut active = lock(&self.active);
        *active -= 1;
        if *active == 0 {
            self.all_idle.notify_all();
        }
    }
}

/// A bound, accepting listener. Dropping it drains for up to
/// [`DRAIN_TIMEOUT`].
pub(crate) struct Listener {
    addr: SocketAddr,
    shared: Arc<Shared>,
    accept_thread: Mutex<Option<JoinHandle<()>>>,
}

impl Listener {
    /// Bind `addr` (port 0 picks an ephemeral port) and serve every
    /// admitted connection with `serve` on its own thread.
    pub fn start<F>(addr: &str, face: Face, serve: F) -> Result<Listener>
    where
        F: Fn(Accepted<'_>) -> &'static str + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)
            .map_err(|e| DominoError::Unavailable(format!("bind {addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| DominoError::Unavailable(format!("local_addr: {e}")))?;
        let name = format!("{}-listener", face.name);
        let shared = Arc::new(Shared {
            face,
            serve: Box::new(serve),
            stop: AtomicBool::new(false),
            active: Mutex::new(0),
            all_idle: Condvar::new(),
            conns: Mutex::new(Vec::new()),
        });
        let accept_shared = shared.clone();
        let accept_thread = std::thread::Builder::new()
            .name(name.clone())
            .spawn(move || accept_loop(&listener, &name, &accept_shared))
            .map_err(|e| DominoError::Unavailable(format!("spawn listener: {e}")))?;
        Ok(Listener {
            addr,
            shared,
            accept_thread: Mutex::new(Some(accept_thread)),
        })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn active(&self) -> usize {
        *lock(&self.shared.active)
    }

    /// Stop accepting, then wait up to `timeout` for every open
    /// connection to finish. A clean drain (`remaining == 0`) has joined
    /// every connection thread. Idempotent.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let connections_at_start = self.active();
        if !self.shared.stop.swap(true, Ordering::SeqCst) {
            // First drain: wake the blocking accept and retire it.
            let _ = TcpStream::connect(self.addr);
            if let Some(t) = lock(&self.accept_thread).take() {
                let _ = t.join();
            }
        }
        let remaining = *self
            .shared
            .all_idle
            .wait_timeout_while(lock(&self.shared.active), timeout, |active| *active > 0)
            .unwrap_or_else(PoisonError::into_inner)
            .0;
        if remaining == 0 {
            for t in std::mem::take(&mut *lock(&self.shared.conns)) {
                let _ = t.join();
            }
        }
        DrainReport {
            connections_at_start,
            remaining,
        }
    }
}

impl Drop for Listener {
    fn drop(&mut self) {
        self.drain(DRAIN_TIMEOUT);
    }
}

fn accept_loop(listener: &TcpListener, name: &str, shared: &Arc<Shared>) {
    let face = &shared.face;
    let addr = listener
        .local_addr()
        .map(|a| a.to_string())
        .unwrap_or_default();
    let task = obs::register_task(name, face.title);
    task.set_status(&format!("Listen {}://{addr}/", face.name));
    obs::emit(
        obs::Event::new(face.kind, obs::Severity::Normal, face.listen_event).with("addr", addr),
    );
    for stream in listener.incoming() {
        if shared.stop.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = stream else { continue };
        task.beat();
        for t in lock(&shared.conns).extract_if(.., |t| t.is_finished()) {
            let _ = t.join();
        }
        if !shared.admit() {
            face.rejected.inc();
            obs::emit(
                obs::Event::new(face.kind, obs::Severity::Warning, face.rejected_event)
                    .with("max", face.max_connections as u64),
            );
            (face.refuse)(&mut stream);
            continue;
        }
        face.accepted.inc();
        let _ = stream.set_nodelay(true);
        let _ = stream.set_read_timeout(Some(POLL_TICK));
        let _ = stream.set_write_timeout(Some(face.write_timeout));
        let conn_shared = shared.clone();
        match std::thread::Builder::new()
            .name(format!("{}-conn", face.name))
            .spawn(move || run_conn(&conn_shared, stream))
        {
            Ok(t) => lock(&shared.conns).push(t),
            // Could not spawn: undo the admission.
            Err(_) => shared.release(),
        }
    }
    task.set_status("Quit");
}

/// One admitted connection's thread: announce, serve, release, report.
fn run_conn(shared: &Shared, stream: TcpStream) {
    let face = &shared.face;
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".into());
    if let Some(code) = face.open_event {
        obs::emit(obs::Event::new(face.kind, obs::Severity::Info, code).with("peer", peer.clone()));
    }
    let outcome = (shared.serve)(Accepted {
        stream,
        stop: &shared.stop,
    });
    shared.release();
    obs::emit(
        obs::Event::new(face.kind, obs::Severity::Info, face.close_event)
            .with("peer", peer)
            .with("outcome", outcome),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Instant;

    fn test_face(max_connections: usize) -> Face {
        Face {
            name: "test",
            title: "Test listener",
            kind: obs::EventKind::Misc,
            listen_event: "Test.Listen",
            open_event: None,
            close_event: "Test.Conn.Closed",
            rejected_event: "Test.Conn.Rejected",
            accepted: obs::counter("Test.Conn.Accepted"),
            active: obs::gauge("Test.Conn.Active"),
            rejected: obs::counter("Test.Conn.Rejected"),
            max_connections,
            write_timeout: Duration::from_secs(1),
            refuse: |_| {},
        }
    }

    /// Serve by reading until the peer closes or the listener drains.
    fn read_until_closed(mut conn: Accepted<'_>) -> &'static str {
        let mut buf = [0u8; 64];
        while !conn.stopping() {
            if let Err(outcome) = conn.read(&mut buf) {
                return outcome;
            }
        }
        "listener stopped"
    }

    #[test]
    fn finished_connection_threads_are_reaped_on_accept() {
        let (served, closed) = std::sync::mpsc::channel();
        let listener = Listener::start("127.0.0.1:0", test_face(8), move |conn| {
            let outcome = read_until_closed(conn);
            let _ = served.send(());
            outcome
        })
        .unwrap();
        for i in 0..64 {
            drop(TcpStream::connect(listener.addr()).unwrap());
            closed.recv_timeout(Duration::from_secs(5)).unwrap();
            // At most this connection's thread and its predecessor's,
            // if that one was still exiting at this accept.
            let retained = lock(&listener.shared.conns).len();
            assert!(
                retained <= 2,
                "{retained} handles kept after {i} connections"
            );
            // Let both finish exiting, so the next accept reaps them.
            while !lock(&listener.shared.conns)
                .iter()
                .all(JoinHandle::is_finished)
            {
                std::thread::yield_now();
            }
        }
        let report = listener.drain(Duration::from_secs(5));
        assert_eq!(report.remaining, 0);
        assert!(lock(&listener.shared.conns).is_empty());
    }

    #[test]
    fn over_cap_connections_are_refused_and_drain_joins_the_rest() {
        let listener = Listener::start("127.0.0.1:0", test_face(2), read_until_closed).unwrap();
        let rejected = obs::counter("Test.Conn.Rejected").get();
        let clients: Vec<TcpStream> = (0..5)
            .map(|_| TcpStream::connect(listener.addr()).unwrap())
            .collect();
        let deadline = Instant::now() + Duration::from_secs(5);
        while obs::counter("Test.Conn.Rejected").get() < rejected + 3 {
            assert!(
                Instant::now() < deadline,
                "over-cap connections not refused"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(listener.active(), 2);
        let report = listener.drain(Duration::from_secs(5));
        assert_eq!(
            report,
            DrainReport {
                connections_at_start: 2,
                remaining: 0
            }
        );
        assert!(lock(&listener.shared.conns).is_empty());
        drop(clients);
    }
}
