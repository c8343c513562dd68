//! Real-network deployment of stdchk: threads + TCP + on-disk chunk store.
//!
//! This crate turns the sans-IO state machines of `stdchk-core` into a
//! runnable storage pool:
//!
//! - [`ManagerServer`] — the metadata manager as a TCP server. Runs
//!   volatile ([`ManagerServer::spawn`], the paper's soft-state manager)
//!   or durable ([`ManagerServer::spawn_durable`]): a
//!   [`metalog::MetaLog`] write-ahead log + snapshots replayed at open,
//!   so a restart serves `stat`/`list`/`open` immediately and benefactor
//!   re-offers demote to a consistency repair.
//! - [`BenefactorServer`] — a storage donor: joins the pool, heartbeats,
//!   serves chunks from a [`store::ChunkStore`] (the
//!   [`store::SegmentStore`] append-only segment log with group commit for
//!   production; one-file-per-chunk [`store::DiskStore`] and
//!   [`store::MemStore`] as alternatives), executes replication, runs GC.
//! - [`Grid`] — the client proxy: `create()`/`open()` handles implementing
//!   `std::io::{Write, Read}` plus metadata operations.
//!
//! Both durable structures — chunk segments and the metadata WAL — are
//! built on one [`log`] engine core: CRC-framed self-delimiting records,
//! a group-commit flusher, torn-tail recovery, and exclusive directory
//! locks.
//!
//! All three drive their state machines through the unified
//! [`Node`](stdchk_core::Node) API: the servers share one generic
//! [`NodeHost`] (actions drain in batches through a per-role [`Effects`]
//! executor), and the client pumps its sessions through the same
//! `poll_action` loop.
//!
//! Transport is the event-driven [`reactor`] by default: an epoll worker
//! pool owns every nonblocking socket, frames are decoded incrementally
//! ([`stdchk_proto::frame::FrameDecoder`], chunk payloads sliced
//! zero-copy), outbound buffers are bounded (slow/dead peers are
//! disconnected, never block the pump), idle connections are reaped, and
//! protocol timers fold into `epoll_wait` — thread count is O(workers),
//! not O(connections), so the manager absorbs checkpoint bursts from
//! whole pools. The legacy thread-per-connection transport remains
//! selectable ([`Backend::Threaded`], `STDCHK_NET_BACKEND=threaded`) as
//! the benchmark baseline. Outbound dials use connect/write timeouts and
//! handshakes bound their reads ([`conn::dial`]) so dead peers fail fast.
//!
//! # Example (in-process pool)
//!
//! ```no_run
//! use stdchk_net::{BenefactorNetConfig, BenefactorServer, Grid, ManagerServer, WriteOptions};
//! use stdchk_net::store::MemStore;
//! use std::io::Write;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let mgr = ManagerServer::spawn("127.0.0.1:0", Default::default())?;
//! let _benefactor = BenefactorServer::spawn(BenefactorNetConfig {
//!     manager_addr: mgr.addr().to_string(),
//!     listen: "127.0.0.1:0".into(),
//!     total_space: 1 << 30,
//!     cfg: Default::default(),
//!     store: Arc::new(MemStore::new()),
//! })?;
//! let grid = Grid::connect(&mgr.addr().to_string())?;
//! let mut file = grid.create("/app/ckpt.n0", WriteOptions::default())?;
//! file.write_all(b"checkpoint image")?;
//! file.finish()?;
//! # Ok(())
//! # }
//! ```

pub mod benefactor_server;
pub mod client;
pub mod conn;
pub mod driver;
pub mod iolane;
pub mod log;
pub mod manager_server;
pub mod metalog;
pub mod ranks;
pub mod reactor;
pub mod store;
pub mod uring;
#[cfg(test)]
mod wait_window;

pub use benefactor_server::{BenefactorNetConfig, BenefactorServer};
pub use client::{Grid, GridError, GridRuntime, ReadHandle, WriteHandle, WriteOptions};
pub use driver::{run_node, Effects, NodeHost};
pub use iolane::{IoLane, IoLaneConfig};
pub use log::SyncDelay;
pub use manager_server::ManagerServer;
pub use metalog::{MetaLog, MetaLogConfig};
pub use reactor::{
    CloseReason, ConnOpts, ConnToken, Reactor, ReactorApp, ReactorConfig, ReactorHandle,
    TransportStats, WeakHandle,
};

/// Which transport drives the servers and the client.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Readiness-based epoll reactor ([`reactor`]): worker-bounded
    /// threads, nonblocking sockets, incremental framing. The default.
    Reactor,
    /// Legacy thread-per-connection transport (blocking reads, 2+ OS
    /// threads per connection). Kept as the benchmark baseline and as an
    /// escape hatch (`STDCHK_NET_BACKEND=threaded`).
    Threaded,
}

impl Backend {
    /// Reads `STDCHK_NET_BACKEND` (`reactor` | `threaded`), defaulting to
    /// [`Backend::Reactor`].
    pub fn from_env() -> Backend {
        match std::env::var("STDCHK_NET_BACKEND").as_deref() {
            Ok("threaded") | Ok("thread") => Backend::Threaded,
            _ => Backend::Reactor,
        }
    }
}

/// Reads `STDCHK_DEDUP`, defaulting to on. When off, [`client::Grid`]
/// writes skip the have/want negotiation and delta encoding entirely and
/// ship every chunk in full — the A/B baseline for the dedup benchmarks.
pub fn dedup_enabled() -> bool {
    !matches!(
        std::env::var("STDCHK_DEDUP").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Reads `STDCHK_ZEROCOPY`, defaulting to on. When off, the reactor
/// transport flattens every outbound frame into a contiguous buffer
/// (copying chunk payloads) and benefactors serve `GetChunk` through the
/// pread-and-copy path instead of `sendfile` — the A/B baseline for the
/// zero-copy benchmarks.
pub fn zerocopy_enabled() -> bool {
    !matches!(
        std::env::var("STDCHK_ZEROCOPY").as_deref(),
        Ok("off") | Ok("0") | Ok("false")
    )
}

/// Transport tuning for [`ManagerServer`] / [`BenefactorServer`].
#[derive(Clone, Copy, Debug)]
pub struct ServerOpts {
    /// Which transport to run.
    pub backend: Backend,
    /// Reactor worker threads (ignored by [`Backend::Threaded`]).
    pub workers: usize,
    /// Reap inbound connections silent for this long (reactor only; the
    /// client side sends transport keepalives well inside this bound).
    pub idle_timeout: Option<std::time::Duration>,
    /// Run blocking durable waits — [`store::SegmentStore`] group
    /// commits, [`MetaLog`] flush waits, snapshot installs — on a
    /// dedicated disk [`IoLane`] instead of the pump thread that drained
    /// the triggering batch, so an fsync tail never stalls a reactor
    /// worker's other sockets. Defaults from `STDCHK_IO_LANE`
    /// (`off`/`0`/`false` disables — the pre-lane inline behavior, kept
    /// as the benchmark baseline).
    pub io_lane: bool,
}

impl ServerOpts {
    /// Reads `STDCHK_IO_LANE`, defaulting to on.
    pub fn io_lane_from_env() -> bool {
        !matches!(
            std::env::var("STDCHK_IO_LANE").as_deref(),
            Ok("off") | Ok("0") | Ok("false")
        )
    }
}

impl Default for ServerOpts {
    fn default() -> ServerOpts {
        ServerOpts {
            backend: Backend::from_env(),
            workers: 2,
            idle_timeout: Some(std::time::Duration::from_secs(60)),
            io_lane: ServerOpts::io_lane_from_env(),
        }
    }
}
