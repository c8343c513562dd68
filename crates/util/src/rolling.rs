//! Window hashes for content-based chunking (CbCH).
//!
//! The paper's CbCH heuristic (§IV.C) scans a checkpoint image with a window
//! of `m` bytes and computes a hash at each window position; a chunk boundary
//! is declared when the lowest `k` bits of the hash are zero. Two scanning
//! regimes exist:
//!
//! - **overlap**: the window advances 1 byte at a time (`p = 1`). The paper
//!   computes a *full* hash of the window at every position, which is why it
//!   measures ~1 MB/s.
//! - **no-overlap**: the window advances by its own size (`p = m`), hashing
//!   each byte once.
//!
//! [`WindowHash`] is the one-shot window hash used to reproduce the paper's
//! behaviour faithfully. [`RollingHash`] is an O(1)-slide Rabin–Karp variant
//! we ship as an extension: it makes the overlap regime cheap, and an
//! ablation benchmark shows the throughput gap closing.

use crate::mix64;

/// Multiplier for the polynomial hash. An odd constant with good bit
/// dispersion; the final [`mix64`] whitening is what boundary decisions rely
/// on, so the base only needs to avoid degenerate cycles.
const BASE: u64 = 0x0100_0000_01b3; // FNV-ish prime, 2^40 scale
/// `BASE^2..BASE^4`: weights of a 4-byte step in [`accumulate`].
const BASE2: u64 = BASE.wrapping_mul(BASE);
const BASE3: u64 = BASE2.wrapping_mul(BASE);
const BASE4: u64 = BASE3.wrapping_mul(BASE);

/// Folds `bytes` into the polynomial accumulator `acc`: the same value as
/// `acc = acc * BASE + (b + 1)` per byte, but four bytes per step, so the
/// serial multiply chain is a quarter as long (the other three products
/// are independent and overlap).
#[inline]
fn accumulate(mut acc: u64, bytes: &[u8]) -> u64 {
    let mut quads = bytes.chunks_exact(4);
    for q in &mut quads {
        acc = acc
            .wrapping_mul(BASE4)
            .wrapping_add((q[0] as u64 + 1).wrapping_mul(BASE3))
            .wrapping_add((q[1] as u64 + 1).wrapping_mul(BASE2))
            .wrapping_add((q[2] as u64 + 1).wrapping_mul(BASE))
            .wrapping_add(q[3] as u64 + 1);
    }
    for &b in quads.remainder() {
        acc = acc.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
    }
    acc
}

/// One-shot polynomial hash of a byte window.
///
/// `H(w) = mix64( Σ w[i] · BASE^(m-1-i) )` with wrapping arithmetic.
///
/// This is intentionally *recomputed from scratch per position* by the
/// paper-faithful CbCH overlap mode; see the module docs.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WindowHash;

impl WindowHash {
    /// Hashes an entire window.
    #[inline]
    pub fn hash(window: &[u8]) -> u64 {
        let mut acc: u64 = 0;
        for &b in window {
            acc = acc.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
        }
        mix64(acc)
    }
}

/// An O(1)-slide rolling hash over a fixed-size window (Rabin–Karp style).
///
/// Maintains the same polynomial accumulator as [`WindowHash`] — sliding the
/// window by one byte removes the oldest byte's term and appends the new
/// byte — so `RollingHash` over window `w` always equals
/// [`WindowHash::hash`]`(w)`. That equivalence is property-tested.
///
/// # Examples
///
/// ```
/// use stdchk_util::rolling::{RollingHash, WindowHash};
///
/// let data = b"the quick brown fox jumps over the lazy dog";
/// let m = 8;
/// let mut rh = RollingHash::new(m);
/// for &b in &data[..m] {
///     rh.push(b);
/// }
/// assert_eq!(rh.value(), WindowHash::hash(&data[..m]));
/// rh.slide(data[0], data[m]);
/// assert_eq!(rh.value(), WindowHash::hash(&data[1..m + 1]));
/// ```
#[derive(Clone, Debug)]
pub struct RollingHash {
    acc: u64,
    /// BASE^m: the outgoing byte's weight once the window has shifted.
    out_weight: u64,
    window: usize,
    filled: usize,
}

impl RollingHash {
    /// Creates a rolling hash for windows of `window` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `window == 0`.
    pub fn new(window: usize) -> Self {
        assert!(window > 0, "window must be non-empty");
        let mut w: u64 = 1;
        for _ in 0..window {
            w = w.wrapping_mul(BASE);
        }
        RollingHash {
            acc: 0,
            out_weight: w,
            window,
            filled: 0,
        }
    }

    /// The configured window size in bytes.
    pub fn window(&self) -> usize {
        self.window
    }

    /// True once `window` bytes have been pushed.
    pub fn is_full(&self) -> bool {
        self.filled == self.window
    }

    /// Appends a byte while the window is still filling.
    ///
    /// # Panics
    ///
    /// Panics if the window is already full (use [`RollingHash::slide`]).
    #[inline]
    pub fn push(&mut self, b: u8) {
        assert!(self.filled < self.window, "window full; use slide");
        self.acc = self.acc.wrapping_mul(BASE).wrapping_add(b as u64 + 1);
        self.filled += 1;
    }

    /// Replaces the window contents with `bytes` in one pass (no per-byte
    /// fill bookkeeping): the cheap way to hash a whole block or to
    /// restart a scan after a jump.
    ///
    /// # Panics
    ///
    /// Panics unless `bytes` is exactly one window long.
    #[inline]
    pub fn fill(&mut self, bytes: &[u8]) {
        assert_eq!(bytes.len(), self.window, "fill needs exactly one window");
        self.acc = accumulate(0, bytes);
        self.filled = self.window;
    }

    /// Slides the full window one byte: removes `out`, appends `inc`.
    ///
    /// # Panics
    ///
    /// Panics if the window is not yet full.
    #[inline]
    pub fn slide(&mut self, out: u8, inc: u8) {
        debug_assert!(self.is_full(), "window not full; use push");
        // (acc - out·BASE^(m-1))·BASE + inc, regrouped so the serial
        // dependency on `acc` is one multiply and one add.
        let delta = (inc as u64 + 1).wrapping_sub((out as u64 + 1).wrapping_mul(self.out_weight));
        self.acc = self.acc.wrapping_mul(BASE).wrapping_add(delta);
    }

    /// The unwhitened polynomial of the current window. [`mix64`] is a
    /// bijection, so two windows have equal `raw` values exactly when
    /// they have equal [`RollingHash::value`]s; a table keyed on `raw`
    /// skips the whitening on every lookup.
    #[inline]
    pub fn raw(&self) -> u64 {
        self.acc
    }

    /// The whitened hash of the current window contents.
    #[inline]
    pub fn value(&self) -> u64 {
        mix64(self.acc)
    }

    /// Clears the window so it can refill from scratch.
    pub fn reset(&mut self) {
        self.acc = 0;
        self.filled = 0;
    }
}

/// Returns true when the low `k` bits of `hash` are all zero — the CbCH
/// chunk-boundary predicate. Statistically this fires once every `2^k`
/// positions, so `k` controls the expected chunk size.
#[inline]
pub fn is_boundary(hash: u64, k: u32) -> bool {
    debug_assert!(k < 64);
    hash & ((1u64 << k) - 1) == 0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rolling_equals_oneshot_over_text() {
        let data: Vec<u8> = (0..4096u32).map(|i| mix64(i as u64) as u8).collect();
        for m in [1usize, 2, 7, 20, 32, 64] {
            let mut rh = RollingHash::new(m);
            for &b in &data[..m] {
                rh.push(b);
            }
            assert_eq!(rh.value(), WindowHash::hash(&data[..m]), "fill m={m}");
            for i in 0..data.len() - m - 1 {
                rh.slide(data[i], data[i + m]);
                assert_eq!(
                    rh.value(),
                    WindowHash::hash(&data[i + 1..i + 1 + m]),
                    "slide i={i} m={m}"
                );
            }
        }
    }

    #[test]
    fn fill_equals_oneshot_and_keeps_sliding() {
        let data: Vec<u8> = (0..512u64).map(|i| mix64(i ^ 0x55) as u8).collect();
        for m in [1usize, 3, 4, 5, 8, 63, 64, 255] {
            let mut rh = RollingHash::new(m);
            rh.fill(&data[..m]);
            assert!(rh.is_full());
            assert_eq!(rh.value(), WindowHash::hash(&data[..m]), "fill m={m}");
            rh.slide(data[0], data[m]);
            assert_eq!(rh.value(), WindowHash::hash(&data[1..m + 1]), "slide m={m}");
            rh.fill(&data[7..7 + m]);
            assert_eq!(
                rh.value(),
                WindowHash::hash(&data[7..7 + m]),
                "refill m={m}"
            );
        }
    }

    #[test]
    #[should_panic]
    fn fill_with_wrong_length_panics() {
        RollingHash::new(4).fill(b"abc");
    }

    #[test]
    fn boundary_rate_is_close_to_expected() {
        // With whitened hashes, boundaries should appear at roughly 2^-k.
        let data: Vec<u8> = (0..200_000u64).map(|i| mix64(i) as u8).collect();
        let m = 20;
        let k = 8;
        let mut rh = RollingHash::new(m);
        for &b in &data[..m] {
            rh.push(b);
        }
        let mut boundaries = 0u64;
        let mut positions = 0u64;
        for i in 0..data.len() - m - 1 {
            rh.slide(data[i], data[i + m]);
            positions += 1;
            if is_boundary(rh.value(), k) {
                boundaries += 1;
            }
        }
        let rate = boundaries as f64 / positions as f64;
        let expect = 1.0 / 2f64.powi(k as i32);
        assert!(
            (rate - expect).abs() < expect * 0.3,
            "rate {rate} vs expected {expect}"
        );
    }

    #[test]
    fn reset_refills_cleanly() {
        let mut rh = RollingHash::new(4);
        for b in b"abcd" {
            rh.push(*b);
        }
        let v = rh.value();
        rh.reset();
        assert!(!rh.is_full());
        for b in b"abcd" {
            rh.push(*b);
        }
        assert_eq!(rh.value(), v);
    }

    #[test]
    #[should_panic]
    fn push_past_full_panics() {
        let mut rh = RollingHash::new(2);
        rh.push(1);
        rh.push(2);
        rh.push(3);
    }
}
