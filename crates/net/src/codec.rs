//! TCP framing, format v2: `len: u32 le`, `crc32(body): u32 le`, then
//! the message encoding from [`allconcur_core::message`] — the same
//! checksummed frame grammar the WAL speaks
//! ([`allconcur_core::wire::put_frame`] / [`allconcur_core::wire::read_frame`]),
//! parsed here by a streaming buffer over that one parser — plus the
//! versioned connection handshake (the connecting side announces the
//! wire format version and its server id so the receiver can attribute
//! frames).
//!
//! The CRC turns a flipped bit on the wire into a *detected* fault: the
//! reader rejects the frame with a typed [`FrameFault`] (distinct from
//! EOF), the runtime counts it in `LinkStats` and drops the connection,
//! and the reader-grace/reconnect path heals the link — the corrupted
//! payload is never delivered to the protocol.

use allconcur_core::message::{CodecError, Message};
use allconcur_core::wire::{self, FrameError, FRAME_HEADER_BYTES};
use allconcur_core::ServerId;
use bytes::Bytes;
use std::io::{self, Read};

/// Maximum accepted frame, guarding against corrupt length prefixes.
/// One constant for every checksummed framing path — re-exported from
/// [`allconcur_core::wire`] so the TCP transport and the WAL cannot
/// drift apart.
pub use allconcur_core::wire::MAX_FRAME;

/// Wire format version spoken by this build, carried in the handshake.
/// v1 was the unchecksummed `[len][body]` framing with a bare-id
/// handshake; v2 adds the CRC32 header field and this versioned
/// handshake. There is no v1 interop path — a v1 peer fails the magic
/// check and the connection is retried until both sides run v2.
pub const WIRE_VERSION: u8 = 2;

/// Handshake magic, so a stray (or corrupted) connection cannot be
/// mistaken for a peer speaking an unknown older format.
pub const HANDSHAKE_MAGIC: [u8; 2] = *b"AC";

/// Handshake length: magic, version, then the sender's `u32 le` id.
pub const HANDSHAKE_LEN: usize = 7;

/// Why an inbound frame (or handshake) was rejected — the typed payload
/// of an `InvalidData` [`io::Error`], distinct from `UnexpectedEof`.
/// Classify with [`frame_fault`] / [`is_corrupt_frame`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameFault {
    /// The body's CRC32 does not match the header — a flipped bit on
    /// the wire (or a desynchronised stream).
    CrcMismatch,
    /// The body passed its CRC but is not a valid message encoding —
    /// a sender-side corruption (flipped before the checksum was
    /// computed) or a protocol bug.
    Decode(CodecError),
    /// The length prefix exceeds [`MAX_FRAME`] — a corrupt header.
    Oversize {
        /// The claimed payload length.
        len: usize,
    },
    /// The connection preamble is not a v2 handshake (bad magic or an
    /// unsupported version byte).
    Handshake {
        /// The 3 preamble bytes received (magic + version).
        got: [u8; 3],
    },
}

impl std::fmt::Display for FrameFault {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameFault::CrcMismatch => write!(f, "frame checksum mismatch"),
            FrameFault::Decode(e) => write!(f, "frame body undecodable: {e}"),
            FrameFault::Oversize { len } => {
                write!(f, "oversized frame ({len} bytes > {MAX_FRAME})")
            }
            FrameFault::Handshake { got } => {
                write!(f, "bad handshake preamble {got:02x?} (want magic {HANDSHAKE_MAGIC:02x?} version {WIRE_VERSION})")
            }
        }
    }
}

impl std::error::Error for FrameFault {}

impl From<FrameFault> for io::Error {
    fn from(fault: FrameFault) -> io::Error {
        io::Error::new(io::ErrorKind::InvalidData, fault)
    }
}

/// Extract the typed [`FrameFault`] from an I/O error, if it carries
/// one. EOF and transport errors return `None`.
pub fn frame_fault(e: &io::Error) -> Option<&FrameFault> {
    e.get_ref().and_then(|inner| inner.downcast_ref::<FrameFault>())
}

/// Was this read error a *corrupt frame* (CRC mismatch, undecodable
/// body, corrupt length prefix) as opposed to EOF or a transport
/// failure? The runtime feeds these into `LinkStats::corrupt_frames`
/// and heals the link through the reader-grace/reconnect path.
pub fn is_corrupt_frame(e: &io::Error) -> bool {
    frame_fault(e).is_some()
}

/// Encode one message into its wire frame, bounds-checked.
///
/// The frame is refcounted [`Bytes`]: encode once, then hand the same
/// frame to every successor's link — the fan-out path of the protocol
/// loop never re-encodes per destination.
pub fn encode_frame(msg: &Message) -> io::Result<Bytes> {
    if msg.encoded_len() > MAX_FRAME {
        return Err(io::Error::new(io::ErrorKind::InvalidInput, "frame too large"));
    }
    Ok(msg.to_frame())
}

/// Streaming frame reader, one per inbound connection.
///
/// Pulls whole bursts into one buffer with a single `read` and parses
/// frames out of it with [`allconcur_core::wire::read_frame`]: a
/// `Truncated` frame means "read more", a `Corrupt` one is a typed
/// [`FrameFault`]. A read that would block (or times out) mid-frame
/// keeps the partial bytes buffered and resumes cleanly on the next
/// call. Every parsed frame is CRC-checked before its body is decoded.
#[derive(Debug)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameReader {
    fn default() -> Self {
        FrameReader::new()
    }
}

impl FrameReader {
    /// A reader with the default 64 KiB burst buffer.
    pub fn new() -> FrameReader {
        FrameReader { buf: vec![0u8; 64 * 1024], start: 0, end: 0 }
    }

    /// Read the next frame from `r`. `Ok(Some(msg))` on a complete,
    /// checksum-verified frame, `Ok(None)` when the underlying read
    /// timed out or would block (call again later — partial frames stay
    /// buffered), `Err` on EOF, I/O failure, or a corrupt frame (the
    /// latter carrying a typed [`FrameFault`]; see [`is_corrupt_frame`]).
    pub fn read_frame<R: Read>(&mut self, r: &mut R) -> io::Result<Option<Message>> {
        loop {
            let pending = &self.buf[self.start..self.end];
            match wire::read_frame(pending, 0) {
                Ok((body, used)) => {
                    let msg = Message::decode(&mut Bytes::copy_from_slice(body));
                    self.start += used;
                    return msg.map(Some).map_err(|e| FrameFault::Decode(e).into());
                }
                Err(FrameError::Corrupt) => return Err(FrameFault::CrcMismatch.into()),
                Err(FrameError::Truncated) => {}
            }
            // Peek the length prefix so a corrupt one is rejected before
            // the buffer grows to fit it.
            if let Some(len) = pending.first_chunk::<4>().map(|b| u32::from_le_bytes(*b) as usize) {
                if len > MAX_FRAME {
                    return Err(FrameFault::Oversize { len }.into());
                }
                if FRAME_HEADER_BYTES + len > self.buf.len() {
                    self.compact();
                    self.buf.resize(FRAME_HEADER_BYTES + len, 0);
                }
            }
            if self.end == self.buf.len() {
                self.compact();
            }
            match r.read(&mut self.buf[self.end..]) {
                Ok(0) => {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))
                }
                Ok(k) => self.end += k,
                Err(ref e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(ref e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
    }

    /// Slide the unparsed tail to the front of the buffer.
    fn compact(&mut self) {
        if self.start > 0 {
            self.buf.copy_within(self.start..self.end, 0);
            self.end -= self.start;
            self.start = 0;
        }
    }
}

/// Handshake sent by the connecting (predecessor) side: magic,
/// wire-format version, then the sender's id. Versioned so a future v3
/// can negotiate instead of desyncing against an old peer.
pub fn encode_handshake(id: ServerId) -> [u8; HANDSHAKE_LEN] {
    let mut buf = [0u8; HANDSHAKE_LEN];
    buf[..2].copy_from_slice(&HANDSHAKE_MAGIC);
    buf[2] = WIRE_VERSION;
    buf[3..].copy_from_slice(&id.to_le_bytes());
    buf
}

/// Parse the handshake the accepting (successor) side received: the
/// sender's id, or [`FrameFault::Handshake`] for a bad magic or an
/// unsupported version.
pub fn parse_handshake(buf: &[u8; HANDSHAKE_LEN]) -> Result<ServerId, FrameFault> {
    if buf[..2] != HANDSHAKE_MAGIC || buf[2] != WIRE_VERSION {
        return Err(FrameFault::Handshake { got: [buf[0], buf[1], buf[2]] });
    }
    Ok(ServerId::from_le_bytes([buf[3], buf[4], buf[5], buf[6]]))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn handshake_roundtrip() {
        assert_eq!(parse_handshake(&encode_handshake(42)), Ok(42));
    }

    #[test]
    fn handshake_rejects_v1_and_garbage() {
        // A v1 peer sent a bare 4-byte id; whatever those bytes are,
        // they cannot pass the magic check. (7 zero bytes stands in for
        // the prefix of any v1 stream plus padding.)
        assert_eq!(parse_handshake(&[0u8; 7]), Err(FrameFault::Handshake { got: [0, 0, 0] }));
        assert!(matches!(parse_handshake(b"GET / H"), Err(FrameFault::Handshake { .. })));
    }

    #[test]
    fn handshake_rejects_wrong_version() {
        let mut wrong_ver = encode_handshake(3);
        wrong_ver[2] = 99;
        assert!(
            matches!(parse_handshake(&wrong_ver), Err(FrameFault::Handshake { got }) if got[2] == 99)
        );
    }

    #[test]
    fn oversized_length_rejected_before_the_buffer_grows() {
        for len in [MAX_FRAME as u32 + 1, u32::MAX] {
            let mut wire = len.to_le_bytes().to_vec();
            wire.extend_from_slice(&[0u8; 16]);
            let mut reader = FrameReader::new();
            let err = reader.read_frame(&mut Cursor::new(wire)).unwrap_err();
            assert!(matches!(frame_fault(&err), Some(FrameFault::Oversize { .. })), "{err}");
            assert!(is_corrupt_frame(&err));
            assert_eq!(reader.buf.len(), 64 * 1024, "corrupt length must not allocate");
        }
    }

    #[test]
    fn corrupt_frames_are_typed_and_distinct_from_eof() {
        let msg = Message::Bcast { round: 4, origin: 1, payload: Bytes::from(vec![5u8; 32]) };
        let mut wire = encode_frame(&msg).unwrap().to_vec();
        let last = wire.len() - 1;
        wire[last] ^= 0x01;
        let err = FrameReader::new().read_frame(&mut Cursor::new(wire)).unwrap_err();
        assert!(matches!(frame_fault(&err), Some(FrameFault::CrcMismatch)), "{err}");
        // A body with a valid CRC that is not a message encoding.
        let mut garbage = Vec::new();
        wire::put_frame(&mut garbage, &[0xFF; 3]);
        let err = FrameReader::new().read_frame(&mut Cursor::new(garbage)).unwrap_err();
        assert!(matches!(frame_fault(&err), Some(FrameFault::Decode(_))), "{err}");
        // EOF carries no FrameFault.
        let eof = FrameReader::new().read_frame(&mut Cursor::new(Vec::new())).unwrap_err();
        assert_eq!(eof.kind(), io::ErrorKind::UnexpectedEof);
        assert!(!is_corrupt_frame(&eof));
    }
}
