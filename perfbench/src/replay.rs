//! Stages that run inside the client session — SHA-256 chunk ids, delta
//! encoding, frame encode/decode — cannot be timed from outside the
//! session. The traced run replays that run's own final `(previous,
//! latest)` image pairs through the same public functions instead.

use std::hint::black_box;
use std::time::Instant;

use bytes::Bytes;
use stdchk_chunker::delta::{delta_encode, ChunkSignature};
use stdchk_proto::frame::{encode_frame, FrameDecoder, MAX_FRAME};
use stdchk_proto::ids::{ChunkId, RequestId};
use stdchk_proto::msg::Msg;
use stdchk_util::sha256::Sha256;

use crate::workload::{Inputs, CHUNK};

/// Stage costs per MB of replayed image bytes.
#[derive(Clone, Copy, Debug, Default)]
pub struct Replay {
    /// `Sha256::digest` of every chunk.
    pub sha256_ms_per_mb: f64,
    /// `ChunkSignature::of` plus `delta_encode` of every changed chunk.
    pub delta_encode_ms_per_mb: f64,
    /// `encode_frame` plus `FrameDecoder::feed` of a `PutChunk` for every
    /// changed chunk (the chunks negotiation wants).
    pub frame_ms_per_mb: f64,
    /// Image bytes replayed.
    pub bytes: u64,
}

/// Replays the latest version of every path that has a kept predecessor.
pub fn replay(inputs: &Inputs) -> Replay {
    let (mut sha_s, mut delta_s, mut frame_s) = (0.0, 0.0, 0.0);
    let mut bytes = 0u64;
    let mut decoded = Vec::new();
    for p in 0..inputs.kind().paths() {
        let Some((prev, cur)) = inputs.pair(p) else {
            continue;
        };
        bytes += cur.len() as u64;
        for (i, chunk) in cur.chunks(CHUNK).enumerate() {
            let t = Instant::now();
            let id = ChunkId(black_box(Sha256::digest(black_box(chunk))));
            sha_s += t.elapsed().as_secs_f64();

            let old = prev.chunks(CHUNK).nth(i).unwrap_or_default();
            if old == chunk {
                continue; // negotiation reuses it: no signature, delta or frame
            }
            let basis = ChunkSignature::of(old);
            let t = Instant::now();
            black_box(ChunkSignature::of(black_box(chunk)));
            black_box(delta_encode(&basis, black_box(chunk)));
            delta_s += t.elapsed().as_secs_f64();

            let msg = Msg::PutChunk {
                req: RequestId(i as u64 + 1),
                chunk: id,
                size: chunk.len() as u32,
                data: Bytes::from(chunk.to_vec()),
                background: false,
            };
            let t = Instant::now();
            let frame = encode_frame(&msg);
            let mut dec = FrameDecoder::new(MAX_FRAME);
            decoded.clear();
            dec.feed(&frame, &mut decoded)
                .expect("replayed frame decodes");
            frame_s += t.elapsed().as_secs_f64();
            assert_eq!(decoded.len(), 1, "one frame in, one message out");
        }
    }
    let per_mb = |secs: f64| {
        if bytes == 0 {
            0.0
        } else {
            secs * 1e3 / (bytes as f64 / 1e6)
        }
    };
    Replay {
        sha256_ms_per_mb: per_mb(sha_s),
        delta_encode_ms_per_mb: per_mb(delta_s),
        frame_ms_per_mb: per_mb(frame_s),
        bytes,
    }
}
