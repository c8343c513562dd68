//! Short fixed-size runs of the benchmark's closed loop.
//!
//! - A traced pool (every segment store behind the timing `TimedStore`)
//!   must do exactly the same work as an untraced one: same wire bytes,
//!   same stored chunks, same payload bytes served zero-copy. The wrapper
//!   must also keep the engine's fast paths: a fall-back to a trait
//!   default would move the durability wait back into the append
//!   (`submit_put_batch`/`wait_put`) or turn `sendfile` serving off
//!   (`read_region`).
//! - A second seed must reproduce the shape of the counts: what share of
//!   the offered chunks negotiation wants, and how many wire bytes an
//!   incremental version costs per application byte.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;
use std::sync::Mutex;
use std::time::Duration;

use stdchk_perfbench::pool::{fresh_dir, stop_all, PoolSpec};
use stdchk_perfbench::probe::StoreCounts;
use stdchk_perfbench::workload::{path, Inputs, Kind, CHUNK};
use stdchk_perfbench::{Bench, Counters, STOP_LIMIT};

/// One pool at a time: the runs compare work counts, and two pools on a
/// small machine would only slow each other down.
static SERIAL: Mutex<()> = Mutex::new(());

#[derive(Debug, PartialEq)]
struct Counts {
    wire_bytes: u64,
    stored_chunks: usize,
    zerocopy_bytes: u64,
    read_bytes: u64,
    offered: u64,
    wanted: u64,
    app_bytes: u64,
}

/// Runs `ops` closed-loop steps, waits for GC, then reads every path
/// once more from sealed segments. Returns the work counts and, for a
/// traced pool, the store calls of the loop and of the final read pass.
fn smoke(kind: Kind, seed: u64, traced: bool, ops: usize) -> (Counts, StoreCounts, StoreCounts) {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let root = PathBuf::from(env!("CARGO_TARGET_TMPDIR"));
    std::env::set_var("TMPDIR", &root);
    let dir = fresh_dir(&root, &format!("smoke-{}-{seed}-{traced}", kind.name())).expect("dir");
    let spec = PoolSpec {
        traced,
        // Small segments, so one roller put seals every data record.
        segment_bytes: Some(CHUNK as u64 / 4),
    };
    let inputs = Inputs::new(kind, seed, false);
    let (mut bench, _, _) = Bench::setup(&dir, &spec, inputs).expect("setup");
    let before = Counters::sample(&bench.pool);
    for _ in 0..ops {
        bench.step();
    }
    let t = &bench.tally;
    assert_eq!((t.failed, t.mismatches), (0, 0), "loop must be clean");
    bench
        .pool
        .quiesce(Duration::from_secs(3), Duration::from_secs(30));
    let after = Counters::sample(&bench.pool);
    let loop_calls = bench.pool.take_store_counts();

    // Seal everything, then read every path once more: each payload byte
    // must now leave a benefactor by sendfile.
    bench.pool.roll_segments(1).expect("roll");
    let net_before = bench.pool.transport();
    let mut read_bytes = 0u64;
    for p in 0..kind.paths() {
        let data = bench
            .pool
            .fs
            .open(&path(p))
            .and_then(|r| r.read_all())
            .expect("read");
        assert_eq!(data, bench.inputs.committed(p), "{} differs", path(p));
        read_bytes += data.len() as u64;
    }
    let net_after = bench.pool.transport();
    let read_calls = bench.pool.take_store_counts();
    let counts = Counts {
        wire_bytes: bench.tally.wire_bytes,
        stored_chunks: bench.pool.chunk_count(),
        zerocopy_bytes: net_after.zerocopy_payload_tx - net_before.zerocopy_payload_tx,
        read_bytes,
        offered: after.dedup.offered_chunks - before.dedup.offered_chunks,
        wanted: after.dedup.wanted_chunks - before.dedup.wanted_chunks,
        app_bytes: bench.tally.app_bytes,
    };
    assert!(stop_all(vec![bench.pool], STOP_LIMIT), "pool shutdown hung");
    std::fs::remove_dir_all(&dir).ok();
    (counts, loop_calls, read_calls)
}

#[test]
fn traced_and_untraced_runs_do_the_same_work() {
    let (plain, ..) = smoke(Kind::Fresh, 5, false, 4);
    let (traced, loop_calls, read_calls) = smoke(Kind::Fresh, 5, true, 4);
    assert_eq!(plain, traced);
    assert_eq!(
        plain.zerocopy_bytes, plain.read_bytes,
        "no payload byte is copied"
    );
    assert!(plain.zerocopy_bytes > 0);
    // The wrapper kept the engine's fast paths: durability waits ran
    // apart from their appends, and every sealed chunk went by sendfile.
    assert!(!loop_calls.wait_ns.is_empty(), "submit/wait split lost");
    let chunks_read = plain.read_bytes / CHUNK as u64;
    assert!(
        read_calls.region_hits >= chunks_read,
        "sendfile serving lost"
    );
    assert_eq!(read_calls.region_hits, read_calls.region_calls);
    assert!(
        read_calls.get_ns.is_empty(),
        "a sealed read fell back to get"
    );
}

#[test]
fn a_second_seed_keeps_the_shape_of_the_counts() {
    let (a, ..) = smoke(Kind::Incremental, 1, false, 8);
    let (b, ..) = smoke(Kind::Incremental, 2, false, 8);
    let want_frac = |c: &Counts| c.wanted as f64 / c.offered as f64;
    let wire_per_byte = |c: &Counts| c.wire_bytes as f64 / c.app_bytes as f64;
    // The number of edited chunks per version does not depend on the seed.
    assert_eq!(want_frac(&a), want_frac(&b));
    assert!(
        (0.1..0.2).contains(&want_frac(&a)),
        "want_frac {}",
        want_frac(&a)
    );
    let (wa, wb) = (wire_per_byte(&a), wire_per_byte(&b));
    assert!(wa > 0.0 && wa < 0.15, "wire_bytes_per_byte {wa}");
    assert!((wa - wb).abs() / wa < 0.1, "seeds disagree: {wa} vs {wb}");
}
