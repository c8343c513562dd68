//! Rolling-checksum delta encoding for near-miss chunks (rsync-style).
//!
//! Have/want negotiation removes chunks that are *byte-identical* to ones
//! the pool already stores. Successive checkpoints also produce near
//! misses: a chunk at the same file offset whose content shifted or
//! mutated slightly. For those the client encodes the new chunk as a
//! delta against the previous version's chunk at the same position (the
//! *basis*), using the classic weak-then-strong scheme:
//!
//! 1. [`ChunkSignature::build`] splits the basis into fixed blocks and
//!    records a weak rolling checksum ([`RollingHash`]) plus a strong
//!    CRC-32C digest per block.
//! 2. [`delta_encode`] slides the weak hash over the new chunk one byte at
//!    a time (O(1) per position); on a weak match it confirms with the
//!    strong hash and emits a `Copy` op, otherwise the byte joins a
//!    `Literal` run. CRC-32C (hardware-accelerated where available) is
//!    strong *enough* here because the benefactor verifies the
//!    reconstructed chunk against its content-addressed id before storing
//!    it — a confirm collision costs one rejected delta and a full
//!    resend, never a corrupt store.
//! 3. [`delta_apply`] replays the ops against the basis to reconstruct
//!    the chunk byte-for-byte. The benefactor does this *before* the
//!    store append, so segments only ever hold full chunks and the read
//!    path never learns deltas exist.
//!
//! Most scans find nothing: a chunk negotiation wants is usually all new,
//! and the encoder only learns that after trying every position. So the
//! per-position test must be cheap. A signature keeps its weak hashes in a
//! flat table sorted by hash, fronted by a membership bitmap of about 16
//! bits per block in which each block sets two bits of one word. Each
//! position costs one rolling slide, one multiply and one word test; only
//! a hit (about one position in 60 on unrelated data) pays for a binary
//! search of the table, and only an equal weak hash pays for the CRC. The
//! bitmap never hides a block, and equal weak hashes stay in block order,
//! so the ops are exactly those of a plain hash-map lookup at every
//! position.
//!
//! The encoding is self-delimiting and intentionally simple:
//!
//! ```text
//! op   := 0x00 len:u32le bytes[len]          literal
//!       | 0x01 offset:u64le len:u32le        copy from basis
//! delta := op*
//! ```
//!
//! Adjacent copies of consecutive basis ranges merge into one op.
//! [`delta_encode`] returns `None` when the encoding would not beat
//! sending the chunk in full — the caller then falls back to `PutChunk`.

use stdchk_util::crc32::Crc32;
use stdchk_util::rolling::RollingHash;

/// Default signature block size. Small enough to find matches after
/// sub-chunk shifts, large enough that a signature is ~1% of the basis.
pub const DEFAULT_BLOCK: usize = 2048;

/// Membership-bitmap bits per signature block (the total rounds up to a
/// power of two): 2 bytes of signature per block buy about one false hit
/// per 60 scanned positions.
const FILTER_BITS_PER_BLOCK: usize = 16;

/// Op-code for a literal run.
const OP_LITERAL: u8 = 0x00;
/// Op-code for a copy from the basis.
const OP_COPY: u8 = 0x01;

/// Per-block checksums of a basis chunk, the client-side half of the
/// delta handshake. Built once when a chunk ships and cached for the next
/// version of the same file.
#[derive(Clone, Debug)]
pub struct ChunkSignature {
    /// Block size the signature was built with.
    block: usize,
    /// Basis length in bytes (whole blocks + ignored tail).
    basis_len: usize,
    /// Membership bitmap over the blocks' weak hashes: each block sets
    /// two bits of one 64-bit word (see [`filter_probe`]).
    filter: Box<[u64]>,
    /// Weak hash of every block ([`RollingHash::raw`]), sorted ascending.
    weak: Box<[u64]>,
    /// Block number of each `weak` entry (ascending among equal hashes).
    weak_block: Box<[u32]>,
    /// Strong digest (CRC-32C) per block, indexed by block number.
    strong: Box<[u32]>,
}

impl ChunkSignature {
    /// Builds the signature of `basis` with the given block size. Only
    /// whole blocks participate; a short tail is never matched (it is
    /// cheaper to ship it literally than to special-case it).
    ///
    /// # Panics
    ///
    /// Panics if `block == 0`.
    pub fn build(basis: &[u8], block: usize) -> Self {
        assert!(block > 0, "block size must be non-zero");
        let blocks = basis.len() / block;
        let mut table: Vec<(u64, u32)> = Vec::with_capacity(blocks);
        let mut strong = Vec::with_capacity(blocks);
        let mut rh = RollingHash::new(block);
        for (i, b) in basis.chunks_exact(block).enumerate() {
            rh.fill(b);
            table.push((rh.raw(), i as u32));
            strong.push(Crc32::checksum(b));
        }
        table.sort_unstable();
        let bits = (blocks * FILTER_BITS_PER_BLOCK).next_power_of_two().max(64);
        let mut filter = vec![0u64; bits / 64].into_boxed_slice();
        for &(w, _) in &table {
            let (word, mask) = filter_probe(w, filter.len());
            filter[word] |= mask;
        }
        ChunkSignature {
            block,
            basis_len: basis.len(),
            filter,
            weak: table.iter().map(|&(w, _)| w).collect(),
            weak_block: table.iter().map(|&(_, i)| i).collect(),
            strong: strong.into_boxed_slice(),
        }
    }

    /// Builds the signature with [`DEFAULT_BLOCK`].
    pub fn of(basis: &[u8]) -> Self {
        Self::build(basis, DEFAULT_BLOCK)
    }

    /// The block size this signature was built with.
    pub fn block(&self) -> usize {
        self.block
    }

    /// Length in bytes of the basis chunk.
    pub fn basis_len(&self) -> usize {
        self.basis_len
    }

    /// False when no block has weak hash `weak`; true when one may.
    #[inline]
    fn may_contain(&self, weak: u64) -> bool {
        let (word, mask) = filter_probe(weak, self.filter.len());
        self.filter[word] & mask == mask
    }

    /// Finds the basis block matching `window` (weak hash pre-computed by
    /// the caller's rolling scan), confirming with the strong digest. Of
    /// several blocks with the same content, the lowest-numbered wins.
    fn find(&self, weak: u64, window: &[u8]) -> Option<u32> {
        let lo = self.weak.partition_point(|&w| w < weak);
        let hits = self.weak[lo..].iter().take_while(|&&w| w == weak).count();
        if hits == 0 {
            return None;
        }
        let digest = Crc32::checksum(window);
        self.weak_block[lo..lo + hits]
            .iter()
            .copied()
            .find(|&i| self.strong[i as usize] == digest)
    }
}

/// The bitmap word and the two bits in it that stand for weak hash `weak`
/// in a bitmap of `words` words (a power of two). Two bits in one word
/// cost a single load per scanned position, and cut false positives from
/// about 1 in 16 to about 1 in 60 at 16 bits per block. One Fibonacci
/// multiply spreads the raw polynomial over the bits the probe reads.
#[inline]
fn filter_probe(weak: u64, words: usize) -> (usize, u64) {
    let key = weak.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    let word = (key >> 20) as usize & (words - 1);
    let mask = 1 << (key >> 58) | 1 << ((key >> 52) & 63);
    (word, mask)
}

/// Encodes `new` as a delta against the chunk `sig` describes.
///
/// Returns `None` when the delta would be at least as large as `new`
/// itself (plus when the signature has no blocks at all) — the caller
/// should ship the full chunk instead, so a returned delta is always a
/// strict win on the wire.
pub fn delta_encode(sig: &ChunkSignature, new: &[u8]) -> Option<Vec<u8>> {
    if sig.strong.is_empty() || new.len() < sig.block {
        return None;
    }
    let block = sig.block;
    let mut out = DeltaWriter::new(new.len());
    let mut rh = RollingHash::new(block);
    rh.fill(&new[..block]);
    // `pos` is the start of the current window; bytes before `emitted`
    // are already encoded.
    let mut pos = 0usize;
    let mut emitted = 0usize;
    // Slide past every position the bitmap rules out, then look up the
    // ones it admits.
    while let Some(next) = skip_filtered(sig, &mut rh, new, pos) {
        pos = next;
        if let Some(idx) = sig.find(rh.raw(), &new[pos..pos + block]) {
            out.literal(&new[emitted..pos]);
            out.copy(idx as u64 * block as u64, block as u32);
            pos += block;
            emitted = pos;
            if out.len() >= new.len() {
                return None; // already losing; bail before scanning more
            }
            if pos + block > new.len() {
                break;
            }
            rh.fill(&new[pos..pos + block]);
        } else {
            if pos + block >= new.len() {
                break;
            }
            rh.slide(new[pos], new[pos + block]);
            pos += 1;
        }
    }
    out.literal(&new[emitted..]);
    if out.len() >= new.len() {
        None
    } else {
        Some(out.into_bytes())
    }
}

/// Slides `rh` (the window at `pos`) forward to the first position at or
/// after `pos` whose weak hash passes the signature's bitmap, or returns
/// `None` if no position up to the last window of `new` does. This is the
/// loop every byte of an unrelated chunk goes through.
#[inline]
fn skip_filtered(
    sig: &ChunkSignature,
    rh: &mut RollingHash,
    new: &[u8],
    mut pos: usize,
) -> Option<usize> {
    let last = new.len() - sig.block;
    let outgoing = &new[pos..last];
    let incoming = &new[pos + sig.block..];
    for (&out, &inc) in outgoing.iter().zip(incoming) {
        if sig.may_contain(rh.raw()) {
            return Some(pos);
        }
        rh.slide(out, inc);
        pos += 1;
    }
    sig.may_contain(rh.raw()).then_some(last)
}

/// Error from [`delta_apply`]: the delta referenced bytes outside the
/// basis or was itself malformed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DeltaError(pub String);

impl std::fmt::Display for DeltaError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "bad delta: {}", self.0)
    }
}

impl std::error::Error for DeltaError {}

/// Reconstructs the full chunk from `basis` and a delta ops stream.
///
/// # Errors
///
/// Returns [`DeltaError`] on truncated ops, unknown op-codes, or copy
/// ranges that fall outside the basis. Never panics on untrusted input.
pub fn delta_apply(basis: &[u8], delta: &[u8]) -> Result<Vec<u8>, DeltaError> {
    let mut out = Vec::new();
    let mut d = delta;
    while !d.is_empty() {
        let op = d[0];
        d = &d[1..];
        match op {
            OP_LITERAL => {
                let len = read_u32(&mut d)? as usize;
                if d.len() < len {
                    return Err(DeltaError(format!(
                        "literal of {len} bytes but only {} remain",
                        d.len()
                    )));
                }
                out.extend_from_slice(&d[..len]);
                d = &d[len..];
            }
            OP_COPY => {
                let offset = read_u64(&mut d)? as usize;
                let len = read_u32(&mut d)? as usize;
                let end = offset
                    .checked_add(len)
                    .ok_or_else(|| DeltaError("copy range overflows".into()))?;
                if end > basis.len() {
                    return Err(DeltaError(format!(
                        "copy {offset}+{len} exceeds basis of {} bytes",
                        basis.len()
                    )));
                }
                out.extend_from_slice(&basis[offset..end]);
            }
            other => return Err(DeltaError(format!("unknown op {other:#04x}"))),
        }
    }
    Ok(out)
}

/// Builds the ops stream, merging adjacent copies of consecutive ranges.
struct DeltaWriter {
    buf: Vec<u8>,
    /// Offset in `buf` of the pending copy op, with its basis range, so a
    /// following contiguous copy can extend it in place.
    pending_copy: Option<(usize, u64, u32)>,
}

impl DeltaWriter {
    fn new(cap_hint: usize) -> Self {
        DeltaWriter {
            buf: Vec::with_capacity(cap_hint / 8),
            pending_copy: None,
        }
    }

    fn len(&self) -> usize {
        self.buf.len()
    }

    fn literal(&mut self, bytes: &[u8]) {
        if bytes.is_empty() {
            return;
        }
        self.pending_copy = None;
        self.buf.push(OP_LITERAL);
        self.buf
            .extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(bytes);
    }

    fn copy(&mut self, offset: u64, len: u32) {
        if let Some((at, start, run)) = self.pending_copy {
            if start + run as u64 == offset {
                let merged = run + len;
                self.buf[at + 9..at + 13].copy_from_slice(&merged.to_le_bytes());
                self.pending_copy = Some((at, start, merged));
                return;
            }
        }
        let at = self.buf.len();
        self.buf.push(OP_COPY);
        self.buf.extend_from_slice(&offset.to_le_bytes());
        self.buf.extend_from_slice(&len.to_le_bytes());
        self.pending_copy = Some((at, offset, len));
    }

    fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

fn read_u32(d: &mut &[u8]) -> Result<u32, DeltaError> {
    if d.len() < 4 {
        return Err(DeltaError("truncated u32".into()));
    }
    let v = u32::from_le_bytes([d[0], d[1], d[2], d[3]]);
    *d = &d[4..];
    Ok(v)
}

fn read_u64(d: &mut &[u8]) -> Result<u64, DeltaError> {
    if d.len() < 8 {
        return Err(DeltaError("truncated u64".into()));
    }
    let v = u64::from_le_bytes([d[0], d[1], d[2], d[3], d[4], d[5], d[6], d[7]]);
    *d = &d[8..];
    Ok(v)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;
    use stdchk_util::mix64;

    fn noise(len: usize, seed: u64) -> Vec<u8> {
        (0..len).map(|i| mix64(seed ^ i as u64) as u8).collect()
    }

    /// The plain rsync scan, kept as the oracle: a SipHash map from weak
    /// hash to block numbers, probed at every position, with no bitmap.
    fn reference_encode(basis: &[u8], block: usize, new: &[u8]) -> Option<Vec<u8>> {
        let blocks = basis.len() / block;
        let mut weak: HashMap<u64, Vec<u32>> = HashMap::with_capacity(blocks);
        let mut strong = Vec::with_capacity(blocks);
        for i in 0..blocks {
            let b = &basis[i * block..(i + 1) * block];
            let mut rh = RollingHash::new(block);
            for &byte in b {
                rh.push(byte);
            }
            weak.entry(rh.value()).or_default().push(i as u32);
            strong.push(Crc32::checksum(b));
        }
        let find = |w: u64, window: &[u8]| {
            let candidates = weak.get(&w)?;
            let digest = Crc32::checksum(window);
            candidates
                .iter()
                .copied()
                .find(|&i| strong[i as usize] == digest)
        };
        if strong.is_empty() || new.len() < block {
            return None;
        }
        let mut out = DeltaWriter::new(new.len());
        let mut rh = RollingHash::new(block);
        for &b in &new[..block] {
            rh.push(b);
        }
        let mut pos = 0usize;
        let mut emitted = 0usize;
        loop {
            if let Some(idx) = find(rh.value(), &new[pos..pos + block]) {
                out.literal(&new[emitted..pos]);
                out.copy(idx as u64 * block as u64, block as u32);
                pos += block;
                emitted = pos;
                if pos + block > new.len() {
                    break;
                }
                rh.reset();
                for &b in &new[pos..pos + block] {
                    rh.push(b);
                }
            } else {
                if pos + block >= new.len() {
                    break;
                }
                rh.slide(new[pos], new[pos + block]);
                pos += 1;
            }
            if out.len() >= new.len() {
                return None;
            }
        }
        out.literal(&new[emitted..]);
        if out.len() >= new.len() {
            None
        } else {
            Some(out.into_bytes())
        }
    }

    /// Asserts the filtered encoder emits exactly the oracle's bytes and
    /// that what it emits reconstructs `new`.
    fn assert_matches_reference(basis: &[u8], block: usize, new: &[u8]) {
        let sig = ChunkSignature::build(basis, block);
        let got = delta_encode(&sig, new);
        assert_eq!(got, reference_encode(basis, block, new), "block {block}");
        if let Some(delta) = got {
            assert_eq!(delta_apply(basis, &delta).unwrap(), new);
        }
    }

    fn small_block() -> impl Strategy<Value = usize> {
        prop_oneof![
            Just(1usize),
            Just(4),
            Just(8),
            Just(13),
            Just(64),
            Just(256)
        ]
    }

    proptest! {
        // Miri runs these ~1000x slower: a few cases still cover the code.
        #![proptest_config(ProptestConfig::with_cases(if cfg!(miri) { 8 } else { 64 }))]

        #[test]
        fn unrelated_matches_reference(
            block in small_block(),
            basis in prop::collection::vec(any::<u8>(), 0..3000),
            new in prop::collection::vec(any::<u8>(), 0..3000),
        ) {
            assert_matches_reference(&basis, block, &new);
        }

        #[test]
        fn shifted_matches_reference(
            block in small_block(),
            basis in prop::collection::vec(any::<u8>(), 1..3000),
            insert in prop::collection::vec(any::<u8>(), 1..300),
            at in any::<usize>(),
        ) {
            let at = at % basis.len();
            let mut new = basis[..at].to_vec();
            new.extend_from_slice(&insert);
            new.extend_from_slice(&basis[at..]);
            assert_matches_reference(&basis, block, &new);
        }

        #[test]
        fn scattered_edits_match_reference(
            block in small_block(),
            basis in prop::collection::vec(any::<u8>(), 1..3000),
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 1..12),
        ) {
            let mut new = basis.clone();
            for (at, b) in edits {
                new[at % basis.len()] ^= b | 1;
            }
            assert_matches_reference(&basis, block, &new);
        }

        #[test]
        fn shorter_than_a_block_matches_reference(
            basis in prop::collection::vec(any::<u8>(), 0..1024),
            new_len in 0usize..256,
        ) {
            let new = basis[..new_len.min(basis.len())].to_vec();
            assert_matches_reference(&basis, 256, &new);
        }

        #[test]
        fn non_block_multiples_match_reference(
            block in prop_oneof![Just(7usize), Just(13), Just(100)],
            whole in 0usize..20,
            basis_tail in 1usize..7,
            new_tail in 1usize..7,
            seed in any::<u64>(),
        ) {
            // Neither length is a whole number of blocks; `new` repeats
            // the basis so the tails sit next to matched blocks.
            let basis = noise(whole * block + basis_tail, seed);
            let mut new = basis.clone();
            new.extend_from_slice(&basis[..new_tail.min(basis.len())]);
            assert_matches_reference(&basis, block, &new);
        }

        #[test]
        fn repeated_blocks_pick_the_same_copy_as_reference(
            block in prop_oneof![Just(4usize), Just(8), Just(16)],
            motif_blocks in 1usize..4,
            reps in 2usize..40,
            edits in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
            seed in any::<u64>(),
        ) {
            // A basis made of one motif repeated holds many equal blocks:
            // every copy must name the same (lowest-numbered) one as the
            // oracle, or the merged copy runs come out different.
            let basis = noise(motif_blocks * block, seed).repeat(reps);
            let mut new = basis.clone();
            for (at, b) in edits {
                new[at % basis.len()] ^= b | 1;
            }
            assert_matches_reference(&basis, block, &new);
        }
    }

    #[test]
    fn bitmap_false_positives_fall_through_to_literals() {
        // One block sets at most two bits of a one-word bitmap, so about
        // one unrelated position in 1000 passes the bitmap test without
        // its weak hash being present.
        let block = 16;
        let basis = noise(block, 12);
        let new = noise(16 << 10, 13);
        let sig = ChunkSignature::build(&basis, block);
        let mut rh = RollingHash::new(block);
        rh.fill(&new[..block]);
        let mut false_positives = 0;
        for i in 0..new.len() - block {
            let weak = rh.raw();
            if sig.may_contain(weak) && !sig.weak.contains(&weak) {
                false_positives += 1;
            }
            rh.slide(new[i], new[i + block]);
        }
        assert!(false_positives > 0, "test input must hit the bitmap");
        assert_matches_reference(&basis, block, &new);
        // The same input with the basis block planted mid-way still finds it.
        let mut planted = new.clone();
        planted[4000..4000 + block].copy_from_slice(&basis);
        assert_matches_reference(&basis, block, &planted);
    }

    #[test]
    fn bitmap_is_sized_by_block_count() {
        let small = ChunkSignature::build(&noise(4 << 10, 14), 2048);
        assert_eq!(small.filter.len(), 1, "floor of one 64-bit word");
        let large = ChunkSignature::of(&noise(1 << 20, 15));
        assert_eq!(large.filter.len() * 64, 512 * FILTER_BITS_PER_BLOCK);
    }

    #[test]
    fn identical_chunk_encodes_to_one_copy() {
        let basis = noise(16 << 10, 1);
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &basis).expect("identical should win");
        // one merged copy op: 1 + 8 + 4 bytes
        assert_eq!(delta.len(), 13);
        assert_eq!(delta_apply(&basis, &delta).unwrap(), basis);
    }

    #[test]
    fn shifted_content_still_matches() {
        let basis = noise(16 << 10, 2);
        // Insert 100 bytes near the front: every later block shifts.
        let mut new = noise(100, 99);
        new.extend_from_slice(&basis);
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &new).expect("shifted content should win");
        assert!(delta.len() < new.len() / 4, "delta {} bytes", delta.len());
        assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
    }

    #[test]
    fn partial_overlap_roundtrips() {
        let basis = noise(32 << 10, 3);
        let mut new = basis.clone();
        // Mutate two scattered regions.
        for b in &mut new[5_000..6_000] {
            *b ^= 0xa5;
        }
        new[20_000..20_100].fill(0);
        let sig = ChunkSignature::build(&basis, 2048);
        let delta = delta_encode(&sig, &new).expect("mostly-same should win");
        assert!(delta.len() < new.len() / 2);
        assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
    }

    #[test]
    fn unrelated_content_declines() {
        let basis = noise(8 << 10, 4);
        let new = noise(8 << 10, 555);
        let sig = ChunkSignature::build(&basis, 2048);
        assert!(delta_encode(&sig, &new).is_none());
    }

    #[test]
    fn short_new_chunk_declines() {
        let basis = noise(8 << 10, 5);
        let sig = ChunkSignature::build(&basis, 2048);
        assert!(delta_encode(&sig, &noise(100, 6)).is_none());
    }

    #[test]
    fn empty_basis_declines() {
        let sig = ChunkSignature::build(&[], 2048);
        assert!(delta_encode(&sig, &noise(4096, 7)).is_none());
    }

    #[test]
    fn apply_rejects_out_of_range_copy() {
        let basis = noise(1024, 8);
        let mut delta = vec![OP_COPY];
        delta.extend_from_slice(&2048u64.to_le_bytes());
        delta.extend_from_slice(&100u32.to_le_bytes());
        assert!(delta_apply(&basis, &delta).is_err());
    }

    #[test]
    fn apply_rejects_garbage() {
        let basis = noise(1024, 9);
        assert!(delta_apply(&basis, &[0xff]).is_err());
        assert!(delta_apply(&basis, &[OP_LITERAL, 10, 0, 0, 0, 1]).is_err());
        assert!(delta_apply(&basis, &[OP_COPY, 1, 2]).is_err());
        // Empty delta reconstructs the empty chunk.
        assert_eq!(delta_apply(&basis, &[]).unwrap(), Vec::<u8>::new());
    }

    #[test]
    fn tail_bytes_ship_literally() {
        // Basis not a multiple of the block: tail never matches but the
        // roundtrip stays exact.
        let basis = noise(5000, 10);
        let mut new = basis.clone();
        new.extend_from_slice(&noise(300, 11));
        let sig = ChunkSignature::build(&basis, 2048);
        if let Some(delta) = delta_encode(&sig, &new) {
            assert_eq!(delta_apply(&basis, &delta).unwrap(), new);
        }
    }
}
