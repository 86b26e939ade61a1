//! The replication wire protocol: NRPC stand-in framing.
//!
//! Real Domino replicas speak NRPC over port 1352. This module defines
//! the compact binary stand-in this reproduction puts on a real TCP
//! socket (FORMAT.md §"Replication wire protocol"): a length-prefixed,
//! checksummed frame
//!
//! ```text
//! [len: u32 LE] [checksum: u32 LE] [opcode: u8] [payload: len-1 bytes]
//! ```
//!
//! where `len` counts the opcode byte plus the payload, and `checksum`
//! is FNV-1a-32 over those same bytes, so a torn or corrupted frame is
//! detected before its opcode is believed. A connection opens with a
//! version handshake ([`Opcode::Hello`] carrying [`WIRE_MAGIC`] +
//! [`WIRE_VERSION`]); replication messages then flow as
//! [`Opcode::Deliver`] frames — one per negotiation round or candidate
//! batch, exactly the unit the
//! `Transport` trait's `deliver` models — each answered by
//! [`Opcode::Ack`] (applied) or [`Opcode::Nack`] (transient refusal,
//! payload carries the reason).
//!
//! Encoding is manual (bincode-style little-endian puts/takes): the
//! protocol must stay byte-stable across builds, so every offset is a
//! named constant pinned by `frame_layout_matches_spec` — the same
//! discipline FORMAT.md applies to the NSF page format.

use crate::error::{DominoError, Result};
use crate::hash::fnv1a32;

/// Handshake magic: the first four payload bytes of a [`Opcode::Hello`].
pub const WIRE_MAGIC: [u8; 4] = *b"NRPC";

/// Wire-protocol version byte exchanged in the handshake. Bump on any
/// frame-layout or opcode change.
pub const WIRE_VERSION: u8 = 1;

/// Byte offset of the `len` field in an encoded frame.
pub const FRAME_LEN_OFFSET: usize = 0;
/// Byte offset of the `checksum` field.
pub const FRAME_CHECKSUM_OFFSET: usize = 4;
/// Byte offset of the `opcode` byte.
pub const FRAME_OPCODE_OFFSET: usize = 8;
/// Fixed bytes before the payload (`len` + `checksum` + `opcode`).
pub const FRAME_HEADER_LEN: usize = 9;

/// Ceiling on `len` (opcode + payload). Frames above this are rejected
/// as [`DominoError::Corrupt`] before any allocation, bounding memory
/// per connection no matter what arrives on the socket.
pub const MAX_FRAME_LEN: u32 = 1 << 20;

/// Message opcodes. Values are part of the wire format — never reuse or
/// renumber a released opcode; add new ones instead.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum Opcode {
    /// Client → server: `[WIRE_MAGIC][WIRE_VERSION]` version handshake.
    Hello = 0x01,
    /// Server → client: handshake accepted (same payload echoed back).
    HelloAck = 0x02,
    /// Client → server: one replication message — a negotiation round or
    /// a candidate batch. Payload: `[notes: u64 LE]`, the candidate count
    /// the batch carries (negotiation rounds carry 1).
    Deliver = 0x10,
    /// Server → client: the delivery was accepted.
    Ack = 0x11,
    /// Server → client: the delivery was refused (transient — the client
    /// should park its cursor and retry). Payload: UTF-8 reason.
    Nack = 0x12,
    /// Either side: orderly close; no further frames follow.
    Quit = 0x7F,
}

impl Opcode {
    /// Decode an opcode byte.
    pub fn from_u8(b: u8) -> Option<Opcode> {
        match b {
            0x01 => Some(Opcode::Hello),
            0x02 => Some(Opcode::HelloAck),
            0x10 => Some(Opcode::Deliver),
            0x11 => Some(Opcode::Ack),
            0x12 => Some(Opcode::Nack),
            0x7F => Some(Opcode::Quit),
            _ => None,
        }
    }
}

/// One decoded wire frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame says.
    pub opcode: Opcode,
    /// Opcode-specific bytes (see [`Opcode`] for each layout).
    pub payload: Vec<u8>,
}

impl Frame {
    /// A payload-free frame.
    pub fn bare(opcode: Opcode) -> Frame {
        Frame {
            opcode,
            payload: Vec::new(),
        }
    }

    /// The handshake frame a client opens with.
    pub fn hello() -> Frame {
        let mut payload = WIRE_MAGIC.to_vec();
        payload.push(WIRE_VERSION);
        Frame {
            opcode: Opcode::Hello,
            payload,
        }
    }

    /// The handshake acknowledgement (magic + version echoed back).
    pub fn hello_ack() -> Frame {
        Frame {
            opcode: Opcode::HelloAck,
            payload: Frame::hello().payload,
        }
    }

    /// A replication message carrying `notes` candidates.
    pub fn deliver(notes: u64) -> Frame {
        Frame {
            opcode: Opcode::Deliver,
            payload: notes.to_le_bytes().to_vec(),
        }
    }

    /// A transient refusal with a human-readable reason.
    pub fn nack(reason: &str) -> Frame {
        Frame {
            opcode: Opcode::Nack,
            payload: reason.as_bytes().to_vec(),
        }
    }

    /// Does this frame carry the correct `[magic][version]` handshake
    /// payload?
    pub fn handshake_ok(&self) -> bool {
        self.payload.len() == WIRE_MAGIC.len() + 1
            && self.payload[..WIRE_MAGIC.len()] == WIRE_MAGIC
            && self.payload[WIRE_MAGIC.len()] == WIRE_VERSION
    }

    /// The candidate count of a [`Opcode::Deliver`] payload.
    pub fn deliver_notes(&self) -> Result<u64> {
        let bytes: [u8; 8] = self
            .payload
            .as_slice()
            .try_into()
            .map_err(|_| DominoError::Corrupt("Deliver payload is not 8 bytes".into()))?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Serialize to `[len][checksum][opcode][payload]` bytes.
    pub fn encode(&self) -> Vec<u8> {
        let len = 1 + self.payload.len();
        let mut out = Vec::with_capacity(FRAME_HEADER_LEN - 1 + len);
        out.extend_from_slice(&(len as u32).to_le_bytes());
        let mut body = Vec::with_capacity(len);
        body.push(self.opcode as u8);
        body.extend_from_slice(&self.payload);
        out.extend_from_slice(&fnv1a32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// Incremental frame decoder: feed it bytes as they arrive off a socket
/// (at any split boundary) and take complete frames out. Buffered bytes
/// never exceed [`MAX_FRAME_LEN`] plus one header — memory per
/// connection is bounded by construction.
#[derive(Debug, Default)]
pub struct FrameDecoder {
    buf: Vec<u8>,
}

impl FrameDecoder {
    /// An empty decoder.
    pub fn new() -> FrameDecoder {
        FrameDecoder::default()
    }

    /// Append bytes read from the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes buffered but not yet consumed as frames.
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// Try to decode the next complete frame. `Ok(None)` means more
    /// bytes are needed; [`DominoError::Corrupt`] means the stream is
    /// unrecoverable (oversized length, bad checksum, unknown opcode)
    /// and the connection should be dropped.
    pub fn next_frame(&mut self) -> Result<Option<Frame>> {
        if self.buf.len() < FRAME_HEADER_LEN - 1 + 1 {
            // Not even `len` + `checksum` + opcode yet — but check what we
            // can: a hostile length prefix is rejectable at 4 bytes.
            if self.buf.len() >= 4 {
                let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
                if len == 0 || len > MAX_FRAME_LEN {
                    return Err(DominoError::Corrupt(format!(
                        "wire frame length {len} outside 1..={MAX_FRAME_LEN}"
                    )));
                }
            }
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(DominoError::Corrupt(format!(
                "wire frame length {len} outside 1..={MAX_FRAME_LEN}"
            )));
        }
        let total = FRAME_HEADER_LEN - 1 + len as usize;
        if self.buf.len() < total {
            return Ok(None);
        }
        let checksum = u32::from_le_bytes(self.buf[4..8].try_into().expect("4 bytes"));
        let body = &self.buf[8..total];
        if fnv1a32(body) != checksum {
            return Err(DominoError::Corrupt("wire frame checksum mismatch".into()));
        }
        let opcode = Opcode::from_u8(body[0]).ok_or_else(|| {
            DominoError::Corrupt(format!("unknown wire opcode 0x{:02x}", body[0]))
        })?;
        let payload = body[1..].to_vec();
        self.buf.drain(..total);
        Ok(Some(Frame { opcode, payload }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_layout_matches_spec() {
        // FORMAT.md §"Replication wire protocol" — every named constant.
        assert_eq!(WIRE_MAGIC, *b"NRPC");
        assert_eq!(WIRE_VERSION, 1);
        assert_eq!(FRAME_LEN_OFFSET, 0);
        assert_eq!(FRAME_CHECKSUM_OFFSET, 4);
        assert_eq!(FRAME_OPCODE_OFFSET, 8);
        assert_eq!(FRAME_HEADER_LEN, 9);
        assert_eq!(MAX_FRAME_LEN, 1_048_576);
        for (op, code) in [
            (Opcode::Hello, 0x01u8),
            (Opcode::HelloAck, 0x02),
            (Opcode::Deliver, 0x10),
            (Opcode::Ack, 0x11),
            (Opcode::Nack, 0x12),
            (Opcode::Quit, 0x7F),
        ] {
            assert_eq!(op as u8, code);
            assert_eq!(Opcode::from_u8(code), Some(op));
        }
        // The worked example in the spec: Deliver(16).
        let bytes = Frame::deliver(16).encode();
        assert_eq!(bytes.len(), FRAME_HEADER_LEN + 8);
        assert_eq!(&bytes[..4], &9u32.to_le_bytes()); // opcode + 8-byte payload
        assert_eq!(bytes[FRAME_OPCODE_OFFSET], 0x10);
        assert_eq!(&bytes[FRAME_OPCODE_OFFSET + 1..], &16u64.to_le_bytes());
    }

    #[test]
    fn roundtrip_at_any_split() {
        let frames = [
            Frame::hello(),
            Frame::hello_ack(),
            Frame::deliver(12345),
            Frame::nack("scripted loss"),
            Frame::bare(Opcode::Quit),
        ];
        let mut wire = Vec::new();
        for f in &frames {
            wire.extend_from_slice(&f.encode());
        }
        // Feed one byte at a time: every split boundary is exercised.
        let mut dec = FrameDecoder::new();
        let mut got = Vec::new();
        for b in &wire {
            dec.feed(&[*b]);
            while let Some(f) = dec.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, frames);
        assert_eq!(dec.buffered(), 0);
    }

    #[test]
    fn corrupt_frames_are_detected() {
        // Oversized length prefix.
        let mut dec = FrameDecoder::new();
        dec.feed(&(MAX_FRAME_LEN + 1).to_le_bytes());
        assert!(dec.next_frame().is_err());

        // Flipped payload byte fails the checksum.
        let mut bytes = Frame::deliver(7).encode();
        *bytes.last_mut().unwrap() ^= 0xFF;
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err());

        // Unknown opcode.
        let mut frame = Frame::deliver(7);
        frame.opcode = Opcode::Deliver;
        let mut bytes = frame.encode();
        bytes[FRAME_OPCODE_OFFSET] = 0x66;
        let body_len = bytes.len() - 8;
        let sum = fnv1a32(&bytes[8..8 + body_len]);
        bytes[4..8].copy_from_slice(&sum.to_le_bytes());
        let mut dec = FrameDecoder::new();
        dec.feed(&bytes);
        assert!(dec.next_frame().is_err());
    }

    #[test]
    fn handshake_and_deliver_payloads() {
        assert!(Frame::hello().handshake_ok());
        assert!(Frame::hello_ack().handshake_ok());
        let mut bad = Frame::hello();
        bad.payload[4] = WIRE_VERSION + 1;
        assert!(!bad.handshake_ok());
        assert_eq!(Frame::deliver(99).deliver_notes().unwrap(), 99);
        assert!(Frame::bare(Opcode::Ack).deliver_notes().is_err());
    }
}
