//! End-to-end checkpoint benchmark for stdchk.
//!
//! One client thread drives a real in-process pool in a closed loop: it
//! commits a new version of one checkpoint path through the file-system
//! facade, then restarts from it (reads the latest version back and
//! compares it byte for byte). See `perfbench/README.md` for the
//! workloads, the metrics and what each per-layer metric should move.

#![forbid(unsafe_code)]

pub mod pool;
pub mod probe;
pub mod replay;
pub mod sys;
pub mod workload;

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use stdchk_core::{DedupTotals, ManagerStats};
use stdchk_net::TransportStats;

use pool::{Pool, PoolSpec, KEEP_LAST};
use workload::{path, Inputs};

/// How long a pool shutdown may take before it counts as hung.
pub const STOP_LIMIT: Duration = Duration::from_secs(20);

/// Client-call spans of a traced run, in ms (empty when untraced).
#[derive(Debug, Default)]
pub struct Spans {
    /// `StdchkFs::create`.
    pub create: Vec<f64>,
    /// `WriteHandle::write_all`.
    pub write: Vec<f64>,
    /// `WriteHandle::finish`.
    pub finish: Vec<f64>,
    /// `StdchkFs::open`.
    pub open: Vec<f64>,
    /// `ReadHandle::read_all`.
    pub read: Vec<f64>,
}

/// What the closed loop observed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Client calls attempted (create, write, finish, open, read).
    pub attempted: u64,
    /// Client calls that returned an error.
    pub failed: u64,
    /// Restart reads whose bytes differ from the committed image.
    pub mismatches: u64,
    /// Versions committed.
    pub commits: u64,
    /// Application bytes committed.
    pub app_bytes: u64,
    /// Bytes read back by restarts.
    pub read_bytes: u64,
    /// Full plus delta payload bytes shipped (`WriteStats`).
    pub wire_bytes: u64,
    /// create → finish wall time per commit, in ms.
    pub commit_ms: Vec<f64>,
    /// open → last byte per restart, in ms.
    pub restart_ms: Vec<f64>,
    /// Metadata-WAL records appended (summed growth of the WAL tail).
    pub wal_records: u64,
    /// Per-call spans.
    pub spans: Spans,
}

/// Pool-wide counters sampled at the edges of the timed phase.
#[derive(Clone, Copy, Debug)]
pub struct Counters {
    /// Manager counters.
    pub mgr: ManagerStats,
    /// Wire-dedup ledger.
    pub dedup: DedupTotals,
    /// Summed benefactor transport counters.
    pub net: TransportStats,
    /// Summed group-commit syncs.
    pub syncs: u64,
    /// Process CPU, ms.
    pub cpu_ms: f64,
}

impl Counters {
    /// Samples `pool` now.
    pub fn sample(pool: &Pool) -> Counters {
        Counters {
            mgr: pool.mgr.stats(),
            dedup: pool.mgr.dedup_totals(),
            net: pool.transport(),
            syncs: pool.sync_count(),
            cpu_ms: sys::cpu_ms(),
        }
    }
}

/// Runs `f`, pushing its duration in ms onto `samples` when `on`.
fn timed<T>(on: bool, samples: &mut Vec<f64>, f: impl FnOnce() -> T) -> T {
    if !on {
        return f();
    }
    let start = Instant::now();
    let out = f();
    samples.push(start.elapsed().as_secs_f64() * 1e3);
    out
}

/// A pool with its inputs and the loop's tally.
pub struct Bench {
    /// The pool under test.
    pub pool: Pool,
    /// The workload's images.
    pub inputs: Inputs,
    /// Loop observations.
    pub tally: Tally,
    traced: bool,
    wal_tail: u64,
    next_op: usize,
}

impl Bench {
    /// Spawns a pool in the empty directory `dir` and writes the base
    /// version of every path. Returns the bench, its set-up time (spawn
    /// until ready for the first timed op) and its join time.
    pub fn setup(
        dir: &Path,
        spec: &PoolSpec,
        inputs: Inputs,
    ) -> Result<(Bench, Duration, Duration), String> {
        let start = Instant::now();
        let (pool, joined) =
            Pool::spawn(dir, spec, None).map_err(|e| format!("spawn pool: {e}"))?;
        for p in 0..inputs.kind().paths() {
            let mut w = pool
                .fs
                .create(&path(p))
                .map_err(|e| format!("warm-up create: {e}"))?;
            w.write_all(inputs.committed(p))
                .map_err(|e| format!("warm-up write: {e}"))?;
            w.finish().map_err(|e| format!("warm-up finish: {e}"))?;
        }
        // The base images are all-distinct bytes: set-up ends once both
        // replicas of every chunk are stored, so background replication
        // of the warm-up does not spill into the timed phase.
        let kind = inputs.kind();
        let replicated = (kind.paths() * kind.image_bytes()) as u64 * u64::from(pool::REPLICATION);
        if !pool.wait_stored(replicated, Duration::from_secs(30)) {
            return Err("warm-up never reached its replication target".into());
        }
        let setup = start.elapsed();
        let wal_tail = pool.mgr.meta_wal_tail().unwrap_or(0);
        let bench = Bench {
            pool,
            inputs,
            tally: Tally::default(),
            traced: spec.traced,
            wal_tail,
            next_op: 0,
        };
        Ok((bench, setup, joined))
    }

    /// One closed-loop step: commit the next version of the next path,
    /// then restart from it.
    pub fn step(&mut self) {
        let p = self.next_op % self.inputs.kind().paths();
        self.next_op += 1;
        let img = self.inputs.next(p);
        let name = path(p);
        let on = self.traced;
        let fs = &self.pool.fs;
        let t = &mut self.tally;

        // Commit: create → write → finish.
        let start = Instant::now();
        t.attempted += 1;
        let Ok(mut w) = timed(on, &mut t.spans.create, || fs.create(&name)) else {
            t.failed += 1;
            return;
        };
        t.attempted += 1;
        if timed(on, &mut t.spans.write, || w.write_all(&img)).is_err() {
            t.failed += 1;
            return;
        }
        t.attempted += 1;
        let Ok(stats) = timed(on, &mut t.spans.finish, || w.finish()) else {
            t.failed += 1;
            return;
        };
        t.commit_ms.push(start.elapsed().as_secs_f64() * 1e3);
        t.commits += 1;
        t.app_bytes += img.len() as u64;
        t.wire_bytes += stats.wire_full_bytes + stats.wire_delta_bytes;
        self.inputs.commit(p, img);
        if let Some(tail) = self.pool.mgr.meta_wal_tail() {
            // The tail restarts from zero when a snapshot is installed.
            t.wal_records += tail.checked_sub(self.wal_tail).unwrap_or(tail);
            self.wal_tail = tail;
        }

        // Restart: open → last byte.
        let start = Instant::now();
        t.attempted += 1;
        let Ok(r) = timed(on, &mut t.spans.open, || fs.open(&name)) else {
            t.failed += 1;
            return;
        };
        t.attempted += 1;
        let Ok(data) = timed(on, &mut t.spans.read, || r.read_all()) else {
            t.failed += 1;
            return;
        };
        t.restart_ms.push(start.elapsed().as_secs_f64() * 1e3);
        t.read_bytes += data.len() as u64;
        if data != self.inputs.committed(p) {
            t.mismatches += 1;
        }
    }

    /// Logical bytes the retention policy keeps: the last `KEEP_LAST`
    /// committed versions of every path, the base image included.
    pub fn retained_bytes(&self) -> u64 {
        let kind = self.inputs.kind();
        (0..kind.paths())
            .map(|p| {
                self.inputs.committed_versions(p).min(u64::from(KEEP_LAST))
                    * kind.image_bytes() as u64
            })
            .sum()
    }

    /// The correctness gate: stops the pool, reopens it from its
    /// directories (WAL replay plus segment recovery) on the same
    /// addresses and reads back the latest version of every path.
    /// Returns how many paths failed to read or differ from the committed
    /// image.
    pub fn gate(self, dir: &Path) -> Result<u64, String> {
        let Bench { pool, inputs, .. } = self;
        let addrs = pool.benefactor_addrs();
        if !pool::stop_all(vec![pool], STOP_LIMIT) {
            return Err("pool shutdown hung (a server thread missed its wake-up)".into());
        }
        let (pool, _) = Pool::spawn(dir, &PoolSpec::default(), Some(&addrs))
            .map_err(|e| format!("reopen pool: {e}"))?;
        let bad = (0..inputs.kind().paths())
            .filter(|&p| {
                let got = pool.fs.open(&path(p)).and_then(|r| r.read_all());
                if let Err(e) = &got {
                    eprintln!("perfbench: gate: {}: {e}", path(p));
                }
                !matches!(got, Ok(ref d) if d == inputs.committed(p))
            })
            .count() as u64;
        if !pool::stop_all(vec![pool], STOP_LIMIT) {
            // The check is done; the stuck threads end with the process.
            eprintln!("perfbench: reopened pool shutdown hung");
        }
        Ok(bad)
    }
}
