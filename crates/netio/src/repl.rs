//! Replication over a real socket: the NRPC stand-in port 1352.
//!
//! Two halves:
//!
//! * [`ReplicaListener`] — the server side. It accepts up to 64
//!   concurrent TCP connections (closing the rest at the door),
//!   answers the [`Frame::hello`] handshake, and acks every
//!   [`Opcode::Deliver`] frame (or nacks scripted ones — see
//!   [`ReplicaListener::fail_deliveries`], the socket analogue of
//!   `ScriptedTransport`).
//! * [`SocketTransport`] — the client side: a second `Transport` impl,
//!   so `Replicator::pull_via`/`pull_with_retry` run *unchanged* over a
//!   real connection. Every transport fault (refused connect, reset,
//!   timeout, corrupt frame, nack) maps to `DominoError::Unavailable`,
//!   the transient error the pull cursor parks on — exactly the contract
//!   the simulated transports implement. The next `deliver` call
//!   reconnects and re-handshakes transparently.
//!
//! Note application stays in-process (the `Replicator` holds both
//! databases); the socket carries the *message round-trips* — one
//! `Deliver`/`Ack` exchange per negotiation round or candidate batch,
//! the unit `Transport::deliver` models. That is what makes the PR 4
//! interrupt/resume proptests runnable over both transports: the fault
//! points line up one-to-one.

use std::io::{Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;

use domino_obs as obs;
use domino_replica::Transport;
use domino_types::{DominoError, Frame, FrameDecoder, Opcode, Result};

use crate::listen::{lock, Accepted, DrainReport, Face, Listener, DRAIN_TIMEOUT};

struct Metrics {
    frames: &'static obs::Counter,
    delivered: &'static obs::Counter,
    nacked: &'static obs::Counter,
    dropped: &'static obs::Counter,
}

fn m() -> &'static Metrics {
    static M: OnceLock<Metrics> = OnceLock::new();
    M.get_or_init(|| Metrics {
        frames: obs::counter("Net.Conn.Frames"),
        delivered: obs::counter("Net.Conn.Delivered"),
        nacked: obs::counter("Net.Conn.Nacked"),
        dropped: obs::counter("Net.Conn.Dropped"),
    })
}

/// How long socket reads/writes may stall before the peer is considered
/// gone (both sides use it as their I/O deadline).
const IO_DEADLINE: Duration = Duration::from_secs(5);

/// Concurrent replication connections admitted; the next one is closed
/// at the door (OPERATIONS.md §11).
const MAX_CONNECTIONS: usize = 64;

struct ListenerShared {
    /// Global 0-based index of the next `Deliver` frame, across all
    /// connections — the same counting `ScriptedTransport` does over its
    /// lifetime, so a fault plan written for one drives the other.
    deliver_seq: AtomicU64,
    fail_at: Mutex<Vec<u64>>,
}

/// The server side of the replication wire protocol.
///
/// Bound to an ephemeral loopback port by default; hand
/// [`ReplicaListener::addr`] to a [`SocketTransport`].
pub struct ReplicaListener {
    listen: Listener,
    shared: Arc<ListenerShared>,
}

impl ReplicaListener {
    /// Bind and start accepting. `addr` is a `host:port` string; port 0
    /// picks an ephemeral port (read it back with
    /// [`ReplicaListener::addr`]).
    pub fn bind(addr: &str) -> Result<ReplicaListener> {
        let face = Face {
            name: "replica",
            title: "Replication wire listener",
            kind: obs::EventKind::Replica,
            listen_event: "Net.Listen",
            open_event: Some("Net.Conn.Open"),
            close_event: "Net.Conn.Close",
            rejected_event: "Net.Conn.Rejected",
            accepted: obs::counter("Net.Conn.Accepted"),
            active: obs::gauge("Net.Conn.Active"),
            rejected: obs::counter("Net.Conn.Rejected"),
            max_connections: MAX_CONNECTIONS,
            write_timeout: IO_DEADLINE,
            refuse: |_| {},
        };
        let shared = Arc::new(ListenerShared {
            deliver_seq: AtomicU64::new(0),
            fail_at: Mutex::new(Vec::new()),
        });
        let conn_shared = shared.clone();
        let listen = Listener::start(addr, face, move |conn| serve_frames(conn, &conn_shared))?;
        Ok(ReplicaListener { listen, shared })
    }

    /// The bound address (connect a [`SocketTransport`] here).
    pub fn addr(&self) -> String {
        self.listen.addr().to_string()
    }

    /// Nack the `Deliver` frames whose global 0-based index appears in
    /// `fail_at` — the socket analogue of
    /// `ScriptedTransport::failing_at`. Indices count every `Deliver`
    /// received over the listener's lifetime, across reconnects, which
    /// is exactly how `ScriptedTransport` counts its own `sent`.
    pub fn fail_deliveries(&self, fail_at: Vec<u64>) {
        *lock(&self.shared.fail_at) = fail_at;
    }

    /// `Deliver` frames received so far (acked + nacked).
    pub fn deliveries(&self) -> u64 {
        self.shared.deliver_seq.load(Ordering::SeqCst)
    }

    /// Stop accepting and wait up to `timeout` for open connections to
    /// end; a clean drain (`remaining == 0`) has joined every
    /// connection thread. Idempotent.
    pub fn drain(&self, timeout: Duration) -> DrainReport {
        self.listen.drain(timeout)
    }

    /// Stop accepting and join every connection thread: a
    /// [`drain`](ReplicaListener::drain) with a 10 s limit.
    pub fn shutdown(&mut self) {
        self.drain(DRAIN_TIMEOUT);
    }
}

/// One accepted connection: handshake, then ack/nack deliveries until
/// the peer quits, errors, or the listener stops.
fn serve_frames(mut conn: Accepted<'_>, shared: &ListenerShared) -> &'static str {
    let mut dec = FrameDecoder::new();
    let mut buf = [0u8; 4096];
    let mut greeted = false;
    loop {
        if conn.stopping() {
            return "listener stopped";
        }
        match conn.read(&mut buf) {
            Ok(Some(n)) => dec.feed(&buf[..n]),
            Ok(None) => continue,
            Err(outcome) => return outcome,
        }
        loop {
            let frame = match dec.next_frame() {
                Ok(Some(f)) => f,
                Ok(None) => break,
                Err(_) => {
                    m().dropped.inc();
                    return "corrupt frame";
                }
            };
            m().frames.inc();
            let reply = match frame.opcode {
                Opcode::Hello => {
                    if !frame.handshake_ok() {
                        m().dropped.inc();
                        return "bad handshake";
                    }
                    greeted = true;
                    Frame::hello_ack()
                }
                Opcode::Deliver if greeted => {
                    let idx = shared.deliver_seq.fetch_add(1, Ordering::SeqCst);
                    if lock(&shared.fail_at).contains(&idx) {
                        m().nacked.inc();
                        Frame::nack(&format!("scripted message loss at delivery {idx}"))
                    } else {
                        m().delivered.inc();
                        Frame::bare(Opcode::Ack)
                    }
                }
                Opcode::Quit => return "peer quit",
                _ => {
                    m().dropped.inc();
                    return "protocol error";
                }
            };
            if conn.stream.write_all(&reply.encode()).is_err() {
                return "write error";
            }
            // A nacked delivery ends the exchange: the client parks its
            // cursor and reconnects for the resumed pass, mirroring a
            // dropped dial-up link.
            if reply.opcode == Opcode::Nack {
                let _ = conn.stream.shutdown(Shutdown::Both);
                return "nacked";
            }
        }
    }
}

/// `Transport` impl that ships every delivery as a `Deliver`/`Ack`
/// round-trip over a real TCP connection.
///
/// Connects lazily on the first `deliver` and re-connects after any
/// fault, so a parked pull cursor resumes over a fresh connection —
/// the socket equivalent of redialling the modem.
pub struct SocketTransport {
    addr: String,
    conn: Option<Conn>,
    /// Round-trips attempted (delivered + failed), mirroring
    /// `ScriptedTransport::sent`.
    sent: u64,
    /// Round-trips that came back failed.
    dropped: u64,
}

struct Conn {
    stream: TcpStream,
    dec: FrameDecoder,
}

impl SocketTransport {
    /// A transport that will dial `addr` (e.g. from
    /// [`ReplicaListener::addr`]) on first use.
    pub fn connect(addr: &str) -> SocketTransport {
        SocketTransport {
            addr: addr.to_string(),
            conn: None,
            sent: 0,
            dropped: 0,
        }
    }

    /// Deliveries attempted so far.
    pub fn sent(&self) -> u64 {
        self.sent
    }

    /// Deliveries that failed (connection faults or nacks).
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    fn ensure_conn(&mut self) -> Result<&mut Conn> {
        if self.conn.is_none() {
            let stream = TcpStream::connect(&self.addr)
                .map_err(|e| DominoError::Unavailable(format!("connect {}: {e}", self.addr)))?;
            let _ = stream.set_nodelay(true);
            stream
                .set_read_timeout(Some(IO_DEADLINE))
                .map_err(|e| DominoError::Unavailable(format!("set deadline: {e}")))?;
            let _ = stream.set_write_timeout(Some(IO_DEADLINE));
            let mut conn = Conn {
                stream,
                dec: FrameDecoder::new(),
            };
            let ack = round_trip(&mut conn, &Frame::hello())?;
            if ack.opcode != Opcode::HelloAck || !ack.handshake_ok() {
                return Err(DominoError::Unavailable(format!(
                    "handshake refused by {}",
                    self.addr
                )));
            }
            self.conn = Some(conn);
        }
        Ok(self.conn.as_mut().expect("connected above"))
    }
}

/// Send one frame and block for the peer's answer.
fn round_trip(conn: &mut Conn, frame: &Frame) -> Result<Frame> {
    conn.stream
        .write_all(&frame.encode())
        .map_err(|e| DominoError::Unavailable(format!("write: {e}")))?;
    let mut buf = [0u8; 4096];
    loop {
        if let Some(f) = conn
            .dec
            .next_frame()
            .map_err(|e| DominoError::Unavailable(format!("corrupt reply: {e}")))?
        {
            return Ok(f);
        }
        let n = conn
            .stream
            .read(&mut buf)
            .map_err(|e| DominoError::Unavailable(format!("read: {e}")))?;
        if n == 0 {
            return Err(DominoError::Unavailable(
                "connection closed mid-reply".into(),
            ));
        }
        conn.dec.feed(&buf[..n]);
    }
}

impl Transport for SocketTransport {
    fn deliver(&mut self, notes: u64) -> Result<()> {
        self.sent += 1;
        let result = (|| {
            let conn = self.ensure_conn()?;
            let reply = round_trip(conn, &Frame::deliver(notes))?;
            match reply.opcode {
                Opcode::Ack => Ok(()),
                Opcode::Nack => Err(DominoError::Unavailable(
                    String::from_utf8_lossy(&reply.payload).into_owned(),
                )),
                other => Err(DominoError::Unavailable(format!(
                    "unexpected reply {other:?} to a delivery"
                ))),
            }
        })();
        if result.is_err() {
            // Any fault poisons the connection: drop it so the next
            // delivery redials, and let the cursor park meanwhile.
            self.dropped += 1;
            self.conn = None;
        }
        result
    }
}

impl Drop for SocketTransport {
    fn drop(&mut self) {
        if let Some(mut conn) = self.conn.take() {
            let _ = conn.stream.write_all(&Frame::bare(Opcode::Quit).encode());
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_deliveries_ack_over_a_real_socket() {
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        let mut t = SocketTransport::connect(&listener.addr());
        for notes in [1, 1, 1, 16, 4] {
            t.deliver(notes).unwrap();
        }
        assert_eq!(t.sent(), 5);
        assert_eq!(t.dropped(), 0);
        drop(t);
        assert_eq!(listener.deliveries(), 5);
    }

    #[test]
    fn scripted_nacks_match_scripted_transport_semantics() {
        use domino_replica::ScriptedTransport;
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        listener.fail_deliveries(vec![1, 3]);
        let mut socket = SocketTransport::connect(&listener.addr());
        let mut scripted = ScriptedTransport::failing_at(vec![1, 3]);
        for _ in 0..5 {
            let a = socket.deliver(2).is_ok();
            let b = scripted.deliver(2).is_ok();
            assert_eq!(a, b, "socket and scripted transports must agree");
        }
        assert_eq!(socket.dropped(), scripted.dropped());
    }

    #[test]
    fn connection_faults_are_transient() {
        let addr = {
            let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
            listener.addr()
            // listener drops here: the port is closed.
        };
        let mut t = SocketTransport::connect(&addr);
        match t.deliver(1) {
            Err(DominoError::Unavailable(_)) => {}
            other => panic!("dead peer must be Unavailable, got {other:?}"),
        }
    }

    #[test]
    fn a_connection_flood_is_refused_at_the_cap() {
        let listener = ReplicaListener::bind("127.0.0.1:0").unwrap();
        let mut admitted = SocketTransport::connect(&listener.addr());
        admitted.deliver(1).unwrap();
        let rejected = obs::counter("Net.Conn.Rejected").get();
        let flood: Vec<TcpStream> = (0..MAX_CONNECTIONS + 8)
            .map(|_| TcpStream::connect(listener.addr()).unwrap())
            .collect();
        // `admitted` holds one slot, so the last nine of the flood are
        // closed at the door.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while obs::counter("Net.Conn.Rejected").get() < rejected + 9 {
            assert!(std::time::Instant::now() < deadline, "flood never refused");
            std::thread::sleep(Duration::from_millis(1));
        }
        let mut refused = SocketTransport::connect(&listener.addr());
        match refused.deliver(1) {
            Err(DominoError::Unavailable(_)) => {}
            other => panic!("a refused connection must be Unavailable, got {other:?}"),
        }
        admitted.deliver(1).unwrap();
        drop(flood);
        assert_eq!(listener.drain(Duration::from_secs(5)).remaining, 0);
        assert_eq!(listener.deliveries(), 2);
    }
}
