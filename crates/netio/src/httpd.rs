//! The TCP front door: a real `std::net` HTTP/1.1 listener in front of
//! [`DominoServer`].
//!
//! Connection model (Domino's, scaled down, on the listener skeleton
//! the wire face shares): an accept thread admits up
//! to [`HttpConfig::max_connections`] concurrent connections — beyond
//! that it answers `503` on the spot and closes, the connection-level
//! twin of the worker pool's load shed. Each admitted connection gets a
//! thread that only does I/O: it feeds bytes to an incremental
//! [`HttpParser`] and hands every complete
//! request to [`DominoServer::serve`], which is the *bounded* worker-pool
//! front door — a full request queue still answers `503`, exactly as for
//! in-process callers. Keep-alive connections are closed after
//! [`HttpConfig::idle_timeout`] without a byte; a started request must
//! complete its I/O within [`HttpConfig::io_timeout`].
//!
//! Graceful drain ([`HttpListener::drain`], console `tell http quit`):
//! stop accepting, let in-flight requests finish, close idle keep-alive
//! connections, then wait for the worker pool's queue to empty
//! ([`DominoServer::drain`]). Accepted work is never dropped.

use std::io::Write;
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::{Duration, Instant};

use domino_obs as obs;
use domino_server::{DominoServer, Response};
use domino_types::Result;

pub use crate::listen::DrainReport;
use crate::listen::{Accepted, Face, Listener, DRAIN_TIMEOUT};
use crate::parser::{HttpParser, ParseError, ParserLimits};

struct Metrics {
    requests: &'static obs::Counter,
    bad_requests: &'static obs::Counter,
    drained: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        requests: obs::counter("Http.Conn.Requests"),
        bad_requests: obs::counter("Http.Conn.BadRequests"),
        drained: obs::counter("Http.Conn.Drained"),
    })
}

/// Sizing and timeout knobs for the listener (OPERATIONS.md §11).
#[derive(Debug, Clone)]
pub struct HttpConfig {
    /// `host:port` to bind; port 0 picks an ephemeral port.
    pub addr: String,
    /// Concurrent connections admitted before 503-and-close (the
    /// connection-level load shed; Domino: `Server_MaxSessions`).
    pub max_connections: usize,
    /// Close a keep-alive connection after this long without a byte.
    pub idle_timeout: Duration,
    /// A request that started must finish its socket I/O within this.
    pub io_timeout: Duration,
    /// Request head/body size caps (`400`/`413` beyond them).
    pub limits: ParserLimits,
}

impl Default for HttpConfig {
    fn default() -> HttpConfig {
        HttpConfig {
            addr: "127.0.0.1:0".into(),
            max_connections: 256,
            idle_timeout: Duration::from_secs(5),
            io_timeout: Duration::from_secs(5),
            limits: ParserLimits::default(),
        }
    }
}

/// The running HTTP listener task.
pub struct HttpListener {
    listen: Listener,
    server: DominoServer,
}

impl HttpListener {
    /// Bind and start serving `server` at `config.addr`.
    pub fn start(server: DominoServer, config: HttpConfig) -> Result<HttpListener> {
        let face = Face {
            name: "http",
            title: "HTTP listener",
            kind: obs::EventKind::Http,
            listen_event: "Http.Listen",
            open_event: None,
            close_event: "Http.Conn.Closed",
            rejected_event: "Http.Conn.Rejected",
            accepted: obs::counter("Http.Conn.Accepted"),
            active: obs::gauge("Http.Conn.Active"),
            rejected: obs::counter("Http.Conn.Rejected"),
            max_connections: config.max_connections,
            write_timeout: config.io_timeout,
            refuse: refuse_overloaded,
        };
        let conn_server = server.clone();
        let listen = Listener::start(&config.addr.clone(), face, move |conn| {
            serve_http_conn(conn, &conn_server, &config)
        })?;
        Ok(HttpListener { listen, server })
    }

    /// The bound address, e.g. `127.0.0.1:41237`.
    pub fn addr(&self) -> String {
        self.listen.addr().to_string()
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.listen.active()
    }

    /// Graceful shutdown: stop accepting, finish in-flight requests,
    /// close idle keep-alive connections, then drain the worker pool.
    /// Waits up to `timeout` for connections to finish; idempotent.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        let report = self.listen.drain(timeout);
        if report.remaining == 0 {
            // Finish whatever the connections queued before joining is
            // observable: the pool's explicit drain.
            self.server.drain();
        }
        obs::emit(
            obs::Event::new(obs::EventKind::Http, obs::Severity::Normal, "Http.Drain")
                .with("connections", report.connections_at_start as u64)
                .with("remaining", report.remaining as u64),
        );
        report
    }
}

impl Drop for HttpListener {
    fn drop(&mut self) {
        self.drain(DRAIN_TIMEOUT);
    }
}

/// Over the connection cap: answer 503 before the socket is closed.
fn refuse_overloaded(stream: &mut TcpStream) {
    let body = "server connection limit reached - retry later";
    let head = format!(
        "HTTP/1.1 503 Service Unavailable\r\nContent-Type: text/plain\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let _ = stream.write_all(head.as_bytes());
    let _ = stream.write_all(body.as_bytes());
}

/// One admitted connection: parse → serve → respond until close.
/// Returns a short outcome label for the close event.
fn serve_http_conn(
    mut conn: Accepted<'_>,
    server: &DominoServer,
    config: &HttpConfig,
) -> &'static str {
    let mut parser = HttpParser::new(config.limits);
    let mut buf = [0u8; 8192];
    let mut last_activity = Instant::now();
    let mut request_since: Option<Instant> = None;
    loop {
        if conn.stopping() && request_since.is_none() {
            m().drained.inc();
            return "drained";
        }
        match request_since {
            Some(t) if t.elapsed() > config.io_timeout => return "request deadline",
            None if last_activity.elapsed() > config.idle_timeout => return "idle timeout",
            _ => {}
        }
        let n = match conn.read(&mut buf) {
            Ok(Some(n)) => n,
            Ok(None) => continue,
            Err(outcome) => return outcome,
        };
        last_activity = Instant::now();
        let mut chunk = &buf[..n];
        loop {
            match parser.feed(chunk) {
                Ok(Some(parsed)) => {
                    chunk = &[];
                    m().requests.inc();
                    let resp = server.serve(parsed.request);
                    // Honour the client's keep-alive wish unless a drain
                    // is in progress — then close as soon as we're done.
                    let keep = parsed.keep_alive && !conn.stopping();
                    if write_response(&mut conn.stream, &resp, keep).is_err() {
                        return "write error";
                    }
                    request_since = None;
                    last_activity = Instant::now();
                    if !keep {
                        return "closed";
                    }
                }
                Ok(None) => {
                    request_since = if parser.buffered() > 0 {
                        Some(request_since.unwrap_or_else(Instant::now))
                    } else {
                        None
                    };
                    break;
                }
                Err(e) => {
                    m().bad_requests.inc();
                    obs::emit(
                        obs::Event::new(
                            obs::EventKind::Http,
                            obs::Severity::Warning,
                            "Http.Conn.BadRequest",
                        )
                        .with("status", u64::from(e.status_code()))
                        .with("detail", e.detail().to_string()),
                    );
                    let _ = write_parse_error(&mut conn.stream, &e);
                    return "bad request";
                }
            }
        }
    }
}

/// Serialize a typed [`Response`] back onto the wire. The
/// `X-Command-Cache` header surfaces the command-cache diagnostic the
/// in-process `Response` carries as a boolean.
fn write_response(
    stream: &mut TcpStream,
    resp: &Response,
    keep_alive: bool,
) -> std::io::Result<()> {
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n\
         X-Command-Cache: {}\r\nConnection: {}\r\n\r\n",
        resp.status.code(),
        resp.status.reason(),
        resp.content_type,
        resp.body.len(),
        if resp.from_cache { "hit" } else { "miss" },
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(resp.body.as_bytes())?;
    stream.flush()
}

/// A request the parser refused never reaches the executor; answer the
/// `400`/`413` directly and close.
fn write_parse_error(stream: &mut TcpStream, e: &ParseError) -> std::io::Result<()> {
    let body = format!("{} {}: {}\n", e.status_code(), e.reason(), e.detail());
    let head = format!(
        "HTTP/1.1 {} {}\r\nContent-Type: text/plain\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        e.status_code(),
        e.reason(),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}
