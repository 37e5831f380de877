//! Property tests for the reactor's incremental frame assembler: a byte
//! stream of concatenated frames, delivered in arbitrary slices (1-byte
//! reads, frames split mid-prefix or mid-body, several frames coalesced
//! into one read), must reassemble into exactly the frame bodies the
//! blocking [`wire::read_frame`] codec yields from the same stream.

use proptest::prelude::*;
use std::time::{Duration, Instant};
use waterwheel_core::ServerId;
use waterwheel_net::envelope::{Envelope, Request, Response};
use waterwheel_net::reactor::FrameAssembler;
use waterwheel_net::wire;

/// Deterministic per-case generator (SplitMix64), same idiom as
/// `codec_hardening.rs`: the shim hands us a seed, plain code varies the
/// frames and split points.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        waterwheel_core::mix64(self.0)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }

    /// One encoded frame: a request or a response, with a payload whose
    /// size varies from empty-ish (Ping) to a few hundred bytes.
    fn frame(&mut self) -> Vec<u8> {
        let corr = self.next();
        match self.below(3) {
            0 => {
                let env = Envelope {
                    src: ServerId(self.next() as u32),
                    dst: ServerId(self.next() as u32),
                    rpc_id: self.next(),
                    deadline: Instant::now() + Duration::from_secs(1),
                    payload: Request::Ping,
                };
                wire::encode_request(corr, &env)
            }
            1 => wire::encode_response_ok(corr, &Response::Pong),
            _ => {
                let tuples = (0..self.below(16))
                    .map(|_| {
                        let len = self.below(48) as usize;
                        let payload: Vec<u8> = (0..len).map(|_| self.next() as u8).collect();
                        waterwheel_core::Tuple::new(self.next(), self.next(), payload)
                    })
                    .collect();
                wire::encode_response_ok(corr, &Response::Tuples(tuples))
            }
        }
    }
}

/// The oracle: run the blocking codec over the whole stream at once.
fn blocking_frames(stream: &[u8]) -> Vec<Vec<u8>> {
    let mut cursor = stream;
    let mut out = Vec::new();
    while let Some(body) = wire::read_frame(&mut cursor).unwrap() {
        out.push(body);
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_split_points_reassemble_exactly(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let frame_count = 1 + gen.below(8) as usize;
        let mut stream = Vec::new();
        for _ in 0..frame_count {
            stream.extend_from_slice(&gen.frame());
        }
        let expected = blocking_frames(&stream);
        prop_assert_eq!(expected.len(), frame_count);

        // Feed the same stream through the assembler in random slices:
        // chunk sizes from 1 byte (splitting the length prefix) to large
        // enough to coalesce several frames into one push.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < stream.len() {
            let chunk = 1 + gen.below(stream.len() as u64 + 64) as usize;
            let end = (pos + chunk).min(stream.len());
            asm.push(&stream[pos..end]);
            pos = end;
            while let Some(body) = asm.next_frame().unwrap() {
                got.push(body);
            }
        }
        prop_assert_eq!(&got, &expected);
        prop_assert_eq!(asm.buffered(), 0);
    }

    #[test]
    fn one_byte_at_a_time_reassembles_exactly(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let mut stream = Vec::new();
        for _ in 0..3 {
            stream.extend_from_slice(&gen.frame());
        }
        let expected = blocking_frames(&stream);
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for b in &stream {
            asm.push(std::slice::from_ref(b));
            while let Some(body) = asm.next_frame().unwrap() {
                got.push(body);
            }
        }
        prop_assert_eq!(got, expected);
    }

    #[test]
    fn truncated_streams_never_yield_a_partial_frame(seed in 0u64..u64::MAX) {
        let mut gen = Gen(seed);
        let frame = gen.frame();
        // Drop 1..=frame.len() trailing bytes: the assembler must hold the
        // incomplete frame back rather than emit a short body.
        let cut = 1 + gen.below(frame.len() as u64) as usize;
        let mut asm = FrameAssembler::new();
        asm.push(&frame[..frame.len() - cut]);
        prop_assert!(asm.next_frame().unwrap().is_none());
        // Completing the stream releases exactly the original body.
        asm.push(&frame[frame.len() - cut..]);
        let body = asm.next_frame().unwrap().expect("completed frame");
        prop_assert_eq!(&frame[4..], &body[..]);
    }
}
