//! The pool under test: a durable manager plus three benefactors on
//! segment stores, all in this process, talking over loopback TCP.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use stdchk_core::{BenefactorConfig, PoolConfig};
use stdchk_fs::{MountOptions, StdchkFs};
use stdchk_net::metalog::MetaLogConfig;
use stdchk_net::store::{ChunkStore, SegmentStore, SegmentStoreConfig};
use stdchk_net::{
    Backend, BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, ServerOpts,
    TransportStats, WriteOptions,
};
use stdchk_proto::policy::RetentionPolicy;
use stdchk_util::Dur;

use crate::probe::{StoreCounts, TimedStore};
use crate::workload::{CHUNK, DIR};

/// Benefactors in the pool.
const BENEFACTORS: usize = 3;
/// Contributed space per benefactor (accounting only).
const TOTAL_SPACE: u64 = 64 << 30;
/// Stripe width of every checkpoint.
const STRIPE: u32 = 2;
/// Replica count of every checkpoint.
pub const REPLICATION: u32 = 2;
/// Versions each path keeps (`RetentionPolicy::AutomatedReplace`).
pub const KEEP_LAST: u32 = 2;
/// Maintenance cadence: policy sweeps, GC marks and benefactor GC each
/// run dozens of cycles per timed phase.
const MAINTAIN_EVERY: Dur = Dur::from_millis(1000);
/// Heartbeats carry the GC marks to the benefactors.
const HEARTBEAT_EVERY: Dur = Dur::from_millis(500);

/// How the pool is built.
#[derive(Clone, Debug, Default)]
pub struct PoolSpec {
    /// Wrap every segment store in a [`TimedStore`].
    pub traced: bool,
    /// Segment rotation size; `None` keeps the shipped default.
    pub segment_bytes: Option<u64>,
}

/// A running pool plus a mounted client.
pub struct Pool {
    /// Client facade (the user's entry point).
    pub fs: StdchkFs,
    /// The durable manager.
    pub mgr: ManagerServer,
    benefs: Vec<BenefactorServer>,
    segs: Vec<Arc<SegmentStore>>,
    probes: Vec<Arc<TimedStore>>,
}

fn pool_config() -> PoolConfig {
    PoolConfig {
        chunk_size: CHUNK as u32,
        default_stripe_width: STRIPE,
        default_replication: REPLICATION,
        heartbeat_every: HEARTBEAT_EVERY,
        gc_every: MAINTAIN_EVERY,
        policy_sweep_every: MAINTAIN_EVERY,
        ..PoolConfig::default()
    }
}

fn benefactor_config() -> BenefactorConfig {
    BenefactorConfig {
        heartbeat_every: HEARTBEAT_EVERY,
        gc_grace: MAINTAIN_EVERY,
        gc_min_interval: MAINTAIN_EVERY,
        ..BenefactorConfig::default()
    }
}

/// Write options of every checkpoint: stripe 2, replication 2, the
/// shipped session defaults otherwise.
fn write_options() -> WriteOptions {
    WriteOptions {
        stripe_width: STRIPE,
        replication: REPLICATION,
        ..WriteOptions::default()
    }
}

/// One reactor worker per server.
fn server_opts() -> ServerOpts {
    ServerOpts {
        backend: Backend::Reactor,
        workers: 1,
        ..ServerOpts::default()
    }
}

/// Retries `f` while a just-stopped predecessor still holds a directory
/// lock (its threads release their handles asynchronously).
fn retry<T>(mut f: impl FnMut() -> std::io::Result<T>) -> std::io::Result<T> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match f() {
            Err(_) if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(20)),
            res => return res,
        }
    }
}

impl Pool {
    /// Spawns (or, on existing directories, recovers) the pool rooted at
    /// `dir`. Benefactors listen on `listen` when given (a recovered pool
    /// reuses its predecessor's addresses, which the manager's log
    /// recorded), on fresh ports otherwise. Returns the pool and the join
    /// time: spawn until every benefactor is online.
    pub fn spawn(
        dir: &Path,
        spec: &PoolSpec,
        listen: Option<&[SocketAddr]>,
    ) -> std::io::Result<(Pool, Duration)> {
        let start = Instant::now();
        let mgr = retry(|| {
            ManagerServer::spawn_durable_tuned(
                "127.0.0.1:0",
                pool_config(),
                dir.join("meta"),
                MetaLogConfig::default(),
                server_opts(),
            )
        })?;
        let mut seg_cfg = SegmentStoreConfig::default();
        if let Some(bytes) = spec.segment_bytes {
            seg_cfg.segment_bytes = bytes;
        }
        let mut benefs = Vec::with_capacity(BENEFACTORS);
        let mut segs = Vec::with_capacity(BENEFACTORS);
        let mut probes = Vec::new();
        for i in 0..BENEFACTORS {
            let seg = Arc::new(retry(|| {
                SegmentStore::open_with(dir.join(format!("benefactor{i}")), seg_cfg)
            })?);
            let store: Arc<dyn ChunkStore> = if spec.traced {
                let probe = Arc::new(TimedStore::new(Arc::clone(&seg)));
                probes.push(Arc::clone(&probe));
                probe
            } else {
                Arc::clone(&seg) as Arc<dyn ChunkStore>
            };
            let listen = listen.map_or_else(|| "127.0.0.1:0".into(), |a| a[i].to_string());
            benefs.push(retry(|| {
                BenefactorServer::spawn_with(
                    BenefactorNetConfig {
                        manager_addr: mgr.addr().to_string(),
                        listen: listen.clone(),
                        total_space: TOTAL_SPACE,
                        cfg: benefactor_config(),
                        store: Arc::clone(&store),
                    },
                    server_opts(),
                )
            })?);
            segs.push(seg);
        }
        let deadline = Instant::now() + Duration::from_secs(30);
        while mgr.online_benefactors() < BENEFACTORS {
            if Instant::now() > deadline {
                return Err(std::io::Error::other("pool never came online"));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let joined = start.elapsed();
        let grid = Grid::connect(&mgr.addr().to_string()).map_err(std::io::Error::other)?;
        let fs = StdchkFs::mount(
            grid,
            MountOptions {
                write: write_options(),
                ..MountOptions::default()
            },
        );
        fs.set_policy(
            DIR,
            RetentionPolicy::AutomatedReplace {
                keep_last: KEEP_LAST,
            },
        )
        .map_err(std::io::Error::other)?;
        Ok((
            Pool {
                fs,
                mgr,
                benefs,
                segs,
                probes,
            },
            joined,
        ))
    }

    /// The benefactors' listen addresses.
    pub fn benefactor_addrs(&self) -> Vec<SocketAddr> {
        self.benefs.iter().map(|b| b.addr()).collect()
    }

    /// Σ indexed bytes over the benefactors (`total_space − free_space`).
    pub fn stored_bytes(&self) -> u64 {
        self.benefs
            .iter()
            .map(|b| TOTAL_SPACE - b.free_space())
            .sum()
    }

    /// Σ chunks stored over the benefactors.
    pub fn chunk_count(&self) -> usize {
        self.benefs.iter().map(|b| b.chunk_count()).sum()
    }

    /// Σ group-commit syncs over the segment stores.
    pub fn sync_count(&self) -> u64 {
        self.segs.iter().map(|s| s.sync_count()).sum()
    }

    /// Summed benefactor transport counters.
    pub fn transport(&self) -> TransportStats {
        let mut sum = TransportStats::default();
        for s in self.benefs.iter().filter_map(|b| b.transport_stats()) {
            sum.bytes_tx += s.bytes_tx;
            sum.bytes_rx += s.bytes_rx;
            sum.frames_tx += s.frames_tx;
            sum.frames_rx += s.frames_rx;
            sum.copied_payload_tx += s.copied_payload_tx;
            sum.zerocopy_payload_tx += s.zerocopy_payload_tx;
        }
        sum
    }

    /// Store counters summed over the benefactors since the previous call
    /// (all zero for an untraced pool).
    pub fn take_store_counts(&self) -> StoreCounts {
        let mut sum = StoreCounts::default();
        for p in &self.probes {
            let c = p.take();
            sum.put_busy_ns += c.put_busy_ns;
            sum.put_bytes += c.put_bytes;
            sum.put_chunks += c.put_chunks;
            sum.wait_ns.extend(c.wait_ns);
            sum.get_ns.extend(c.get_ns);
            sum.region_calls += c.region_calls;
            sum.region_hits += c.region_hits;
            sum.deletes += c.deletes;
        }
        sum
    }

    /// Puts one throwaway chunk straight into every segment store, so
    /// every earlier record sits in a sealed segment (servable by
    /// `sendfile`) once the active segment rotates past it.
    pub fn roll_segments(&self, bytes: usize) -> std::io::Result<()> {
        let roller = vec![0x5au8; bytes];
        for seg in &self.segs {
            seg.put(
                stdchk_proto::ids::ChunkId::for_content(b"perfbench-roller"),
                &roller,
            )?;
        }
        Ok(())
    }

    /// Waits until the benefactors index at least `bytes`, for at most
    /// `limit`. Returns whether they got there.
    pub fn wait_stored(&self, bytes: u64, limit: Duration) -> bool {
        let deadline = Instant::now() + limit;
        while self.stored_bytes() < bytes {
            if Instant::now() > deadline {
                return false;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        true
    }

    /// Waits until GC and replication have quiesced: the stored total has
    /// not changed for `still`, or `limit` passed. Returns the final total.
    pub fn quiesce(&self, still: Duration, limit: Duration) -> u64 {
        let deadline = Instant::now() + limit;
        let mut last = self.stored_bytes();
        let mut since = Instant::now();
        while Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(50));
            let now = self.stored_bytes();
            if now != last {
                last = now;
                since = Instant::now();
            } else if since.elapsed() >= still {
                break;
            }
        }
        last
    }

    /// Stops every server and waits for their threads.
    pub fn shutdown(self) {
        let Pool {
            fs, mgr, benefs, ..
        } = self;
        drop(fs);
        for b in &benefs {
            b.shutdown();
        }
        mgr.shutdown();
    }
}

/// Shuts `pools` down on a helper thread and waits at most `limit`.
/// Returns false if the shutdown did not finish: a server thread missed
/// its shutdown wake-up and its join never returns. The stuck threads
/// are left parked and end with the process.
pub fn stop_all(pools: Vec<Pool>, limit: Duration) -> bool {
    let (done, finished) = std::sync::mpsc::channel();
    let spawned = std::thread::Builder::new()
        .name("perfbench-stop".into())
        .spawn(move || {
            for pool in pools {
                pool.shutdown();
            }
            let _ = done.send(());
        });
    spawned.is_ok() && finished.recv_timeout(limit).is_ok()
}

/// A fresh, empty directory for one pool.
pub fn fresh_dir(root: &Path, name: &str) -> std::io::Result<PathBuf> {
    let dir = root.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir)?;
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
