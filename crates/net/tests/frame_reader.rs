//! Direct unit tests for `codec::FrameReader`: burst parsing, frames
//! split across arbitrarily small reads, and resumption after a read
//! that would block mid-frame (a blocking length-then-body read loses
//! the prefix when a timeout lands between the two and desynchronises
//! the stream; the buffered reader keeps the partial bytes).

use allconcur_core::message::Message;
use allconcur_net::codec::{encode_frame, FrameReader};
use bytes::Bytes;
use std::io::{self, Cursor, Read};

/// Messages with varied shapes: empty payloads, odd sizes, every
/// protocol message type.
fn mixed_messages() -> Vec<Message> {
    let mut msgs = Vec::new();
    for i in 0..40u64 {
        msgs.push(match i % 4 {
            0 => Message::Bcast {
                round: i,
                origin: (i % 7) as u32,
                payload: Bytes::from(vec![i as u8; (i as usize * 13) % 257]),
            },
            1 => Message::Bcast { round: i, origin: 1, payload: Bytes::new() },
            2 => Message::Fail { round: i, failed: (i % 5) as u32, detector: (i % 3) as u32 },
            _ => Message::Fwd { round: i, origin: (i % 6) as u32 },
        });
    }
    msgs
}

fn wire_of(msgs: &[Message]) -> Vec<u8> {
    msgs.iter().flat_map(|m| encode_frame(m).unwrap().to_vec()).collect()
}

/// Reader delivering at most `chunk` bytes per call, with scripted
/// timeouts: every `timeout_every`-th read fails `WouldBlock` (0 = never).
struct Chunked {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
    timeout_every: usize,
    reads: usize,
}

impl Chunked {
    fn new(data: Vec<u8>, chunk: usize, timeout_every: usize) -> Self {
        Chunked { data, pos: 0, chunk, timeout_every, reads: 0 }
    }
}

impl Read for Chunked {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.reads += 1;
        if self.timeout_every > 0 && self.reads.is_multiple_of(self.timeout_every) {
            return Err(io::Error::new(io::ErrorKind::WouldBlock, "scripted timeout"));
        }
        let k = self.chunk.min(self.data.len() - self.pos).min(buf.len());
        buf[..k].copy_from_slice(&self.data[self.pos..self.pos + k]);
        self.pos += k;
        Ok(k)
    }
}

/// Drain every frame from `src`, treating `Ok(None)` as "retry later".
fn drain<R: Read>(reader: &mut FrameReader, src: &mut R, expect: usize) -> Vec<Message> {
    let mut out = Vec::new();
    while out.len() < expect {
        match reader.read_frame(src) {
            Ok(Some(m)) => out.push(m),
            Ok(None) => continue,
            Err(e) => panic!("unexpected error after {} frames: {e}", out.len()),
        }
    }
    out
}

#[test]
fn burst_of_frames_parses_from_one_buffer_fill() {
    // The whole wire arrives in one read: every subsequent frame must
    // parse out of the buffer without touching the source again.
    let msgs = mixed_messages();
    let wire = wire_of(&msgs);
    let mut src = Chunked::new(wire, usize::MAX, 0);
    let mut reader = FrameReader::new();
    let out = drain(&mut reader, &mut src, msgs.len());
    assert_eq!(out, msgs);
    assert_eq!(src.reads, 1, "burst must cost one read syscall, not {}", src.reads);
}

#[test]
fn split_frames_survive_every_chunk_size() {
    // Byte-at-a-time up through sizes that straddle the 4-byte length
    // prefix in every possible alignment.
    let msgs = mixed_messages();
    let wire = wire_of(&msgs);
    for chunk in [1usize, 2, 3, 4, 5, 7, 16] {
        let mut src = Chunked::new(wire.clone(), chunk, 0);
        let mut reader = FrameReader::new();
        let out = drain(&mut reader, &mut src, msgs.len());
        assert_eq!(out, msgs, "chunk size {chunk}");
    }
}

#[test]
fn timeout_between_length_and_body_does_not_desync() {
    // The PR 4 regression: a read timeout landing exactly after the
    // 4-byte length prefix (and at every other offset — chunk 2 with a
    // timeout every 3rd read hits all alignments over 40 frames) must
    // resume cleanly with no lost or corrupt frames.
    let msgs = mixed_messages();
    let wire = wire_of(&msgs);
    for timeout_every in [2usize, 3, 4] {
        let mut src = Chunked::new(wire.clone(), 2, timeout_every);
        let mut reader = FrameReader::new();
        let out = drain(&mut reader, &mut src, msgs.len());
        assert_eq!(out, msgs, "timeout every {timeout_every} reads");
    }
}

#[test]
fn zero_length_payload_frames_roundtrip() {
    let msgs: Vec<Message> =
        (0..10).map(|i| Message::Bcast { round: i, origin: 0, payload: Bytes::new() }).collect();
    let wire = wire_of(&msgs);
    let mut src = Chunked::new(wire, 3, 2);
    let mut reader = FrameReader::new();
    assert_eq!(drain(&mut reader, &mut src, msgs.len()), msgs);
}

#[test]
fn frame_spanning_buffer_boundary_compacts_and_grows() {
    // A payload just over the reader's 64 KiB buffer, preceded by small
    // frames so the big frame starts mid-buffer: forces the compact +
    // grow path while partial bytes are buffered.
    let mut msgs: Vec<Message> =
        (0..5).map(|i| Message::Fwd { round: i, origin: i as u32 }).collect();
    msgs.push(Message::Bcast { round: 9, origin: 1, payload: Bytes::from(vec![7u8; 70_000]) });
    msgs.push(Message::Fwd { round: 10, origin: 2 });
    let wire = wire_of(&msgs);
    let mut src = Chunked::new(wire, 4_096, 5);
    let mut reader = FrameReader::new();
    assert_eq!(drain(&mut reader, &mut src, msgs.len()), msgs);
}

#[test]
fn eof_mid_frame_is_an_error_not_a_hang() {
    let msgs = mixed_messages();
    let mut wire = wire_of(&msgs);
    wire.truncate(wire.len() - 3);
    let mut cursor = Cursor::new(wire);
    let mut reader = FrameReader::new();
    let mut parsed = 0;
    loop {
        match reader.read_frame(&mut cursor) {
            Ok(Some(_)) => parsed += 1,
            Ok(None) => panic!("Cursor never times out"),
            Err(e) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                break;
            }
        }
    }
    assert_eq!(parsed, msgs.len() - 1, "all complete frames parse before the EOF error");
}

#[test]
fn interleaved_reads_alternate_sources_without_state_bleed() {
    // Two independent readers on two streams driven alternately — the
    // per-connection state the runtime relies on (one FrameReader per
    // inbound connection) must not require global coordination.
    let msgs_a = mixed_messages();
    let msgs_b: Vec<Message> =
        (0..40).map(|i| Message::Bwd { round: i, origin: (i % 4) as u32 }).collect();
    let mut src_a = Chunked::new(wire_of(&msgs_a), 5, 3);
    let mut src_b = Chunked::new(wire_of(&msgs_b), 3, 4);
    let (mut ra, mut rb) = (FrameReader::new(), FrameReader::new());
    let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
    while out_a.len() < msgs_a.len() || out_b.len() < msgs_b.len() {
        if out_a.len() < msgs_a.len() {
            if let Ok(Some(m)) = ra.read_frame(&mut src_a) {
                out_a.push(m);
            }
        }
        if out_b.len() < msgs_b.len() {
            if let Ok(Some(m)) = rb.read_frame(&mut src_b) {
                out_b.push(m);
            }
        }
    }
    assert_eq!(out_a, msgs_a);
    assert_eq!(out_b, msgs_b);
}
