//! Property: flipping **any single bit** of an encoded frame stream is
//! detected — the reader either raises a typed error (CRC mismatch,
//! undecodable body, corrupt length prefix, or a truncation surfacing
//! as EOF) before the stream completes, or at minimum never delivers a
//! message that differs from the original sequence. Every byte offset
//! of the generated wire is exercised exhaustively per case; CRC32
//! guarantees detection for flips inside the checksummed region, and
//! the length prefix is covered because a mis-sized read window cannot
//! reproduce the stored checksum.

use allconcur_core::message::Message;
use allconcur_net::codec::{encode_frame, FrameReader};
use bytes::Bytes;
use proptest::prelude::*;
use std::io::Cursor;

/// A small frame stream with varied message shapes, sized by the
/// generated payload lengths.
fn build_messages(payload_lens: &[usize]) -> Vec<Message> {
    payload_lens
        .iter()
        .enumerate()
        .map(|(i, &len)| match i % 3 {
            0 => Message::Bcast {
                round: i as u64,
                origin: (i % 5) as u32,
                payload: Bytes::from(vec![(i as u8).wrapping_mul(37); len]),
            },
            1 => Message::Fail { round: i as u64, failed: (i % 4) as u32, detector: 1 },
            _ => Message::Fwd { round: i as u64, origin: (i % 3) as u32 },
        })
        .collect()
}

fn wire_of(msgs: &[Message]) -> Vec<u8> {
    msgs.iter().flat_map(|m| encode_frame(m).expect("encode").to_vec()).collect()
}

/// Parse `wire` to completion: the messages recovered before the first
/// error (if any), and whether an error occurred. A `Cursor` never
/// blocks, so `Ok(None)` cannot recur forever — exhaustion surfaces as
/// an EOF error.
fn parse_all(wire: &[u8], expect: usize) -> (Vec<Message>, bool) {
    let mut cursor = Cursor::new(wire);
    let mut reader = FrameReader::new();
    let mut out = Vec::new();
    while out.len() < expect {
        match reader.read_frame(&mut cursor) {
            Ok(Some(m)) => out.push(m),
            Ok(None) => continue,
            Err(_) => return (out, true),
        }
    }
    (out, false)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// Exhaustive over the wire: one flipped bit at every byte offset,
    /// with the bit index and the frame shapes generated per case.
    #[test]
    fn single_bit_flip_is_detected_at_every_byte_offset(
        payload_lens in proptest::collection::vec(0usize..64, 1..4),
        bit in 0u8..8,
    ) {
        let msgs = build_messages(&payload_lens);
        let wire = wire_of(&msgs);
        // The intact stream parses completely and faithfully.
        let (clean, clean_err) = parse_all(&wire, msgs.len());
        prop_assert!(!clean_err, "intact wire must parse without error");
        prop_assert_eq!(&clean, &msgs);
        for byte in 0..wire.len() {
            let mut corrupt = wire.clone();
            corrupt[byte] ^= 1 << bit;
            let (parsed, errored) = parse_all(&corrupt, msgs.len());
            // Detection: the stream never completes silently...
            prop_assert!(
                errored,
                "flip at byte {} bit {} of {} went undetected",
                byte, bit, wire.len()
            );
            // ... and nothing delivered before the error is corrupt.
            prop_assert!(
                parsed.len() < msgs.len() && parsed[..] == msgs[..parsed.len()],
                "flip at byte {} bit {} delivered a corrupt prefix",
                byte, bit
            );
        }
    }
}
