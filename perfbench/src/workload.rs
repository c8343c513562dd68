//! Workload definitions and their seeded input generators.
//!
//! Every byte the pool sees is derived from the workload seed, so the same
//! seed replays the same checkpoint images; the pool receives only the
//! generated images.

use stdchk_util::mix64;

/// Chunk size of the pool under test (the paper's 1 MiB).
pub const CHUNK: usize = 1 << 20;

/// The three user paths the benchmark measures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Kind {
    /// Application-level checkpoints: every version is all-new bytes.
    Fresh,
    /// Incremental checkpoints: most chunks unchanged, the rest edited in
    /// place (near misses for the delta path).
    Incremental,
    /// Many small images: per-commit fixed cost dominates.
    Small,
}

impl Kind {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Kind> {
        match name {
            "fresh" => Some(Kind::Fresh),
            "incremental" => Some(Kind::Incremental),
            "small" => Some(Kind::Small),
            _ => None,
        }
    }

    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Fresh => "fresh",
            Kind::Incremental => "incremental",
            Kind::Small => "small",
        }
    }

    /// Number of checkpoint paths written round-robin.
    pub fn paths(self) -> usize {
        match self {
            Kind::Fresh | Kind::Incremental => 4,
            Kind::Small => 64,
        }
    }

    /// Bytes per checkpoint image.
    pub fn image_bytes(self) -> usize {
        match self {
            Kind::Fresh => 8 << 20,
            Kind::Incremental => 16 << 20,
            Kind::Small => 256 << 10,
        }
    }
}

/// Percentage of an incremental image's chunks edited per version.
const CHANGED_PERCENT: usize = 15;
/// Bytes overwritten inside each edited chunk (a near miss: the delta
/// against the previous version of the chunk stays small).
const EDIT_BYTES: usize = 4 << 10;

/// The directory every checkpoint path lives in.
pub const DIR: &str = "/app";

/// Path of checkpoint stream `p` (`/app/solver.nK`).
pub fn path(p: usize) -> String {
    format!("{DIR}/solver.n{p}")
}

/// Fills `buf` with bytes from a stream keyed by `key`.
fn fill(buf: &mut [u8], key: u64) {
    let mut state = mix64(key);
    let mut words = buf.chunks_exact_mut(8);
    for w in &mut words {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        w.copy_from_slice(&mix64(state).to_le_bytes());
    }
    let tail = words.into_remainder();
    let last = mix64(state ^ 0xa5a5).to_le_bytes();
    tail.copy_from_slice(&last[..tail.len()]);
}

/// Seeded image generator for one workload run.
#[derive(Clone)]
pub struct Inputs {
    kind: Kind,
    seed: u64,
    /// Latest committed image per path.
    committed: Vec<Vec<u8>>,
    /// Image committed before that, kept only when asked for (the traced
    /// run replays `(previous, latest)` pairs through the chunker).
    previous: Option<Vec<Vec<u8>>>,
    /// Versions generated per path so far.
    versions: Vec<u64>,
    /// Versions committed per path, the base image included.
    committed_versions: Vec<u64>,
}

impl Inputs {
    /// Generates the base image of every path.
    pub fn new(kind: Kind, seed: u64, keep_previous: bool) -> Inputs {
        let paths = kind.paths();
        let mut inputs = Inputs {
            kind,
            seed,
            committed: Vec::with_capacity(paths),
            previous: keep_previous.then(|| vec![Vec::new(); paths]),
            versions: vec![0; paths],
            committed_versions: vec![1; paths],
        };
        for p in 0..paths {
            let mut img = vec![0u8; kind.image_bytes()];
            fill(&mut img, inputs.key(p, 0, 0));
            inputs.committed.push(img);
        }
        inputs
    }

    fn key(&self, p: usize, version: u64, part: u64) -> u64 {
        mix64(self.seed ^ mix64((p as u64) << 40 ^ version << 8 ^ part))
    }

    /// The workload.
    pub fn kind(&self) -> Kind {
        self.kind
    }

    /// Latest committed image of path `p`.
    pub fn committed(&self, p: usize) -> &[u8] {
        &self.committed[p]
    }

    /// `(previous, latest)` committed images of path `p`, when kept.
    pub fn pair(&self, p: usize) -> Option<(&[u8], &[u8])> {
        let prev = self.previous.as_ref()?;
        (!prev[p].is_empty()).then(|| (&prev[p][..], &self.committed[p][..]))
    }

    /// Builds the next version of path `p` from its committed image.
    pub fn next(&mut self, p: usize) -> Vec<u8> {
        let v = self.versions[p] + 1;
        self.versions[p] = v;
        match self.kind {
            Kind::Fresh | Kind::Small => {
                let mut img = vec![0u8; self.kind.image_bytes()];
                fill(&mut img, self.key(p, v, 0));
                img
            }
            Kind::Incremental => {
                let mut img = self.committed[p].clone();
                let chunks = img.len() / CHUNK;
                // 15% of the chunks on average, spread evenly over versions.
                let changed = (v as usize * chunks * CHANGED_PERCENT / 100)
                    - ((v as usize - 1) * chunks * CHANGED_PERCENT / 100);
                let mut picked = Vec::with_capacity(changed);
                let mut draw = 0u64;
                while picked.len() < changed {
                    let c = (self.key(p, v, 1 + draw) % chunks as u64) as usize;
                    draw += 1;
                    if !picked.contains(&c) {
                        picked.push(c);
                    }
                }
                for (i, c) in picked.into_iter().enumerate() {
                    let at = c * CHUNK
                        + (self.key(p, v, 1000 + i as u64) % (CHUNK - EDIT_BYTES) as u64) as usize;
                    fill(
                        &mut img[at..at + EDIT_BYTES],
                        self.key(p, v, 2000 + i as u64),
                    );
                }
                img
            }
        }
    }

    /// Versions of path `p` committed so far, the base image included.
    pub fn committed_versions(&self, p: usize) -> u64 {
        self.committed_versions[p]
    }

    /// Records `img` as path `p`'s latest committed image.
    pub fn commit(&mut self, p: usize, img: Vec<u8>) {
        self.committed_versions[p] += 1;
        let old = std::mem::replace(&mut self.committed[p], img);
        if let Some(prev) = &mut self.previous {
            prev[p] = old;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_images() {
        let mut a = Inputs::new(Kind::Incremental, 7, false);
        let mut b = Inputs::new(Kind::Incremental, 7, false);
        assert_eq!(a.committed(1), b.committed(1));
        assert_eq!(a.next(1), b.next(1));
        let c = Inputs::new(Kind::Incremental, 8, false);
        assert_ne!(a.committed(1), c.committed(1));
    }

    #[test]
    fn incremental_versions_keep_most_chunks() {
        let mut inputs = Inputs::new(Kind::Incremental, 3, false);
        let mut changed = 0;
        let mut total = 0;
        for _ in 0..20 {
            let next = inputs.next(0);
            let base = inputs.committed(0);
            for (a, b) in next.chunks(CHUNK).zip(base.chunks(CHUNK)) {
                total += 1;
                changed += usize::from(a != b);
            }
            inputs.commit(0, next);
        }
        let frac = changed as f64 / total as f64;
        assert!((0.12..=0.16).contains(&frac), "changed fraction {frac}");
    }
}
