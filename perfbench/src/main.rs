//! Runs one workload of the end-to-end checkpoint benchmark and prints its
//! metrics: one line per metric (value, unit, sample count), then one JSON
//! object as the last line of standard output.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fresh --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off.
//! `--trace 1` spends half the time on an untraced run and half on a
//! traced one, and prints the per-layer metrics. All pool data lives in
//! `.bench_data/` under the working directory and is removed at exit.

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stdchk_perfbench::pool::{fresh_dir, stop_all, PoolSpec};
use stdchk_perfbench::probe::StoreCounts;
use stdchk_perfbench::replay::{replay, Replay};
use stdchk_perfbench::sys::{machine_lines, median, ns_to_ms, peak_rss_mb, quantile, windowed};
use stdchk_perfbench::workload::{Inputs, Kind};
use stdchk_perfbench::{Bench, Counters, Tally, STOP_LIMIT};

/// Pools set up per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;
/// GC counts as quiesced once the stored total holds still this long.
const QUIESCE_STILL: Duration = Duration::from_secs(3);
const QUIESCE_LIMIT: Duration = Duration::from_secs(30);
/// Hard cap on one run, set-up and correctness gate included.
const HARD_LIMIT: Duration = Duration::from_secs(170);

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    data_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut kind = None;
    let mut seed = 1u64;
    let mut seconds = 10.0;
    let mut trace = false;
    let mut data_dir = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                kind = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?,
            "--trace" => trace = value()? == "1",
            "--data-dir" => data_dir = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload fresh|incremental|small is required")?,
        seed,
        seconds,
        trace,
        data_dir,
    })
}

/// Everything one run of the workload measured.
struct Phase {
    setup_s: Vec<f64>,
    join_ms: Vec<f64>,
    tally: Tally,
    before: Counters,
    after: Counters,
    store: StoreCounts,
    stored_bytes: u64,
    retained_bytes: u64,
    replay: Option<Replay>,
    gate_failures: u64,
}

impl Phase {
    /// App MB committed per second of create→finish wall time. Every
    /// commit of a workload has the same size.
    fn ingest_mb_s(&self) -> f64 {
        let t = &self.tally;
        let mb_per_commit = ratio(t.app_bytes as f64, t.commits as f64) / 1e6;
        windowed(&t.commit_ms, |w| {
            w.len() as f64 * mb_per_commit / (w.iter().sum::<f64>() / 1e3)
        })
    }

    fn correct(&self) -> bool {
        self.tally.mismatches == 0 && self.gate_failures == 0 && self.tally.commits > 0
    }
}

/// Runs `setups` set-ups and one timed phase of `budget` on the last
/// pool, then the correctness gate.
fn run_phase(
    root: &Path,
    kind: Kind,
    seed: u64,
    budget: Duration,
    traced: bool,
    setups: usize,
) -> Result<Phase, String> {
    let spec = PoolSpec {
        traced,
        ..PoolSpec::default()
    };
    let io = |e: std::io::Error| e.to_string();
    let inputs = Inputs::new(kind, seed, traced);
    let (mut setup_s, mut join_ms) = (Vec::new(), Vec::new());
    let mut kept = None;
    for i in 0..setups {
        let dir = fresh_dir(root, &format!("pool-{}-{i}", u8::from(traced))).map_err(io)?;
        let (bench, setup, joined) = Bench::setup(&dir, &spec, inputs.clone())?;
        setup_s.push(setup.as_secs_f64());
        join_ms.push(joined.as_secs_f64() * 1e3);
        if let Some((earlier, _)) = kept.replace((bench, dir)) {
            if !stop_all(vec![earlier.pool], STOP_LIMIT) {
                eprintln!("perfbench: set-up pool shutdown hung");
            }
        }
    }
    let (mut bench, dir) = kept.ok_or("no setups")?;

    let before = Counters::sample(&bench.pool);
    bench.pool.take_store_counts();
    let start = Instant::now();
    while start.elapsed() < budget {
        bench.step();
    }
    let after = Counters::sample(&bench.pool);
    let store = bench.pool.take_store_counts();

    let stored_bytes = bench.pool.quiesce(QUIESCE_STILL, QUIESCE_LIMIT);
    let retained_bytes = bench.retained_bytes();
    let replay = traced.then(|| replay(&bench.inputs));
    let tally = std::mem::take(&mut bench.tally);
    let gate_failures = bench.gate(&dir)?;
    Ok(Phase {
        setup_s,
        join_ms,
        tally,
        before,
        after,
        store,
        stored_bytes,
        retained_bytes,
        replay,
        gate_failures,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
    samples: usize,
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

fn end_to_end(p: &Phase) -> Vec<Metric> {
    let t = &p.tally;
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let cpu_ms = p.after.cpu_ms - p.before.cpu_ms;
    let mb_moved = (t.app_bytes + t.read_bytes) as f64 / 1e6;
    let commits = t.commit_ms.len();
    vec![
        m("setup_s", median(&p.setup_s), "s", p.setup_s.len()),
        m("ingest_mb_s", p.ingest_mb_s(), "MB/s", commits),
        m(
            "commit_ms_p50",
            windowed(&t.commit_ms, median),
            "ms",
            commits,
        ),
        m(
            "commit_ms_p90",
            windowed(&t.commit_ms, |w| quantile(w, 0.9)),
            "ms",
            commits,
        ),
        m(
            "restart_ms_p50",
            windowed(&t.restart_ms, median),
            "ms",
            t.restart_ms.len(),
        ),
        m(
            "wire_bytes_per_byte",
            ratio(t.wire_bytes as f64, t.app_bytes as f64),
            "B/B",
            commits,
        ),
        m(
            "stored_bytes_per_byte",
            ratio(p.stored_bytes as f64, p.retained_bytes as f64),
            "B/B",
            1,
        ),
        m("cpu_ms_per_mb", ratio(cpu_ms, mb_moved), "ms/MB", 1),
        m("peak_rss_mb", peak_rss_mb(), "MB", 1),
        m(
            "ok_op_frac",
            ratio((t.attempted - t.failed) as f64, t.attempted as f64),
            "frac",
            t.attempted as usize,
        ),
    ]
}

fn per_layer(untraced: &Phase, p: &Phase) -> Vec<Metric> {
    let t = &p.tally;
    let (b, a) = (&p.before, &p.after);
    let m = |name, value, unit, samples| Metric {
        name,
        value,
        unit,
        samples,
    };
    let commits = t.commits as f64;
    let app = t.app_bytes as f64;
    let s = &t.spans;
    let st = &p.store;
    let syncs = (a.syncs - b.syncs) as f64;
    let net_rx = (a.net.bytes_rx - b.net.bytes_rx) as f64;
    let net_tx = (a.net.bytes_tx - b.net.bytes_tx) as f64;
    let frames = (a.net.frames_rx + a.net.frames_tx - b.net.frames_rx - b.net.frames_tx) as f64;
    let zc = (a.net.zerocopy_payload_tx - b.net.zerocopy_payload_tx) as f64;
    let copied = (a.net.copied_payload_tx - b.net.copied_payload_tx) as f64;
    let d = |f: fn(&stdchk_core::DedupTotals) -> u64| (f(&a.dedup) - f(&b.dedup)) as f64;
    let g = |f: fn(&stdchk_core::ManagerStats) -> u64| (f(&a.mgr) - f(&b.mgr)) as f64;
    let r = p.replay.unwrap_or_default();
    let gets_ms = ns_to_ms(&st.get_ns);
    let waits_ms = ns_to_ms(&st.wait_ns);
    let n = t.commits as usize;
    vec![
        m("fs.create_ms_p50", median(&s.create), "ms", s.create.len()),
        m("fs.write_ms_p50", median(&s.write), "ms", s.write.len()),
        m("fs.finish_ms_p50", median(&s.finish), "ms", s.finish.len()),
        m("fs.open_ms_p50", median(&s.open), "ms", s.open.len()),
        m("fs.read_ms_p50", median(&s.read), "ms", s.read.len()),
        m(
            "store.put_busy_ms_per_mb",
            ratio(st.put_busy_ns as f64 / 1e6, st.put_bytes as f64 / 1e6),
            "ms/MB",
            st.put_chunks as usize,
        ),
        m("store.wait_ms_p50", median(&waits_ms), "ms", waits_ms.len()),
        m("store.syncs_per_commit", ratio(syncs, commits), "count", n),
        m(
            "store.chunks_per_sync",
            ratio(st.put_chunks as f64, syncs),
            "count",
            syncs as usize,
        ),
        m(
            "store.put_bytes_per_byte",
            ratio(st.put_bytes as f64, app),
            "B/B",
            st.put_chunks as usize,
        ),
        m("store.get_ms_p50", median(&gets_ms), "ms", gets_ms.len()),
        m(
            "store.region_frac",
            ratio(st.region_hits as f64, st.region_calls as f64),
            "frac",
            st.region_calls as usize,
        ),
        m(
            "store.deletes_per_commit",
            ratio(st.deletes as f64, commits),
            "count",
            n,
        ),
        m(
            "manager.transactions_per_commit",
            ratio(g(|s| s.transactions), commits),
            "count",
            n,
        ),
        m(
            "manager.wal_records_per_commit",
            ratio(t.wal_records as f64, commits),
            "count",
            n,
        ),
        m(
            "manager.want_frac",
            ratio(d(|s| s.wanted_chunks), d(|s| s.offered_chunks)),
            "frac",
            d(|s| s.offered_chunks) as usize,
        ),
        m(
            "manager.reused_bytes_per_byte",
            ratio(d(|s| s.reused_bytes), app),
            "B/B",
            n,
        ),
        m(
            "manager.delta_bytes_per_byte",
            ratio(d(|s| s.delta_bytes), app),
            "B/B",
            n,
        ),
        m(
            "manager.replication_copies_per_commit",
            ratio(g(|s| s.replication_copies), commits),
            "count",
            n,
        ),
        m(
            "manager.policy_drops_per_commit",
            ratio(g(|s| s.policy_drops), commits),
            "count",
            n,
        ),
        m("net.rx_bytes_per_byte", ratio(net_rx, app), "B/B", n),
        m("net.tx_bytes_per_byte", ratio(net_tx, app), "B/B", n),
        m("net.frames_per_commit", ratio(frames, commits), "count", n),
        m(
            "net.zerocopy_frac",
            ratio(zc, zc + copied),
            "frac",
            (zc + copied) as usize,
        ),
        m(
            "util.sha256_ms_per_mb",
            r.sha256_ms_per_mb,
            "ms/MB",
            r.bytes as usize,
        ),
        m(
            "chunker.delta_encode_ms_per_mb",
            r.delta_encode_ms_per_mb,
            "ms/MB",
            r.bytes as usize,
        ),
        m(
            "proto.frame_ms_per_mb",
            r.frame_ms_per_mb,
            "ms/MB",
            r.bytes as usize,
        ),
        m("pool.join_ms", median(&p.join_ms), "ms", p.join_ms.len()),
        m(
            "trace.overhead",
            ratio(p.ingest_mb_s(), untraced.ingest_mb_s()),
            "ratio",
            n,
        ),
    ]
}

fn print_metrics(title: &str, metrics: &[Metric]) {
    println!("{title}");
    for m in metrics {
        println!(
            "  {:<38} {:>14.4} {:<6} n={}",
            m.name, m.value, m.unit, m.samples
        );
    }
}

fn print_tally(label: &str, p: &Phase) {
    let t = &p.tally;
    let beyond_p90 = t.commit_ms.len() - (t.commit_ms.len() * 9).div_ceil(10);
    println!(
        "{label}: commits={} restarts={} attempted={} failed={} failed_op_frac={} \
         mismatches={} gate_failures={} commits_beyond_p90={beyond_p90} \
         setups_s={:?} join_ms={:?}",
        t.commits,
        t.restart_ms.len(),
        t.attempted,
        t.failed,
        ratio(t.failed as f64, t.attempted as f64),
        t.mismatches,
        p.gate_failures,
        p.setup_s,
        p.join_ms,
    );
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() { m.value } else { 0.0 };
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args, root: &Path) -> Result<(bool, String), String> {
    let tmp = root.join("tmp");
    std::fs::create_dir_all(&tmp).map_err(|e| format!("{}: {e}", tmp.display()))?;
    // Client stage files go next to the pool data, not to the system tmp.
    std::env::set_var("TMPDIR", &tmp);

    println!(
        "perfbench: workload={} seed={} seconds={} trace={} loop=closed clients=1 \
         reactor_workers_per_server=1",
        args.kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    println!(
        "pool: durable manager + 3 benefactors on SegmentStore, chunk=1MiB stripe=2 \
         replication=2 keep_last=2; flush: SegmentStore sync=true, metadata WAL \
         group commit sync=true"
    );
    for line in machine_lines(root) {
        println!("{line}");
    }
    // Progress lines interleave with stderr in order.
    let _ = std::io::Write::flush(&mut std::io::stdout());

    let budget = Duration::from_secs_f64(args.seconds);
    if args.trace {
        let untraced = run_phase(root, args.kind, args.seed, budget / 2, false, 1)?;
        print_tally("untraced", &untraced);
        print_metrics("end-to-end (untraced half)", &end_to_end(&untraced));
        let traced = run_phase(root, args.kind, args.seed, budget / 2, true, 1)?;
        print_tally("traced", &traced);
        let metrics = per_layer(&untraced, &traced);
        print_metrics("per-layer (traced half)", &metrics);
        let correct = untraced.correct() && traced.correct();
        let (t, u) = (&traced.tally, &untraced.tally);
        let attempted = t.attempted + u.attempted;
        let failed = t.failed + u.failed;
        Ok((correct, json_line(correct, attempted, failed, &metrics)))
    } else {
        let phase = run_phase(root, args.kind, args.seed, budget, false, SETUPS)?;
        print_tally("run", &phase);
        let metrics = end_to_end(&phase);
        print_metrics("end-to-end", &metrics);
        let t = &phase.tally;
        let correct = phase.correct();
        Ok((correct, json_line(correct, t.attempted, t.failed, &metrics)))
    }
}

/// Ends the process if the run outlives `limit`, so a hang fails the run
/// instead of stalling it.
fn watchdog(limit: Duration, root: PathBuf) {
    let _ = std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("perfbench: run exceeded {} s; giving up", limit.as_secs());
            let _ = std::fs::remove_dir_all(&root);
            std::process::exit(3);
        });
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let base = match &args.data_dir {
        Some(d) => d.clone(),
        None => match std::env::current_dir() {
            Ok(cwd) => cwd.join(".bench_data"),
            Err(e) => {
                eprintln!("perfbench: {e}");
                return ExitCode::from(2);
            }
        },
    };
    let root = base.join(format!("{}-{}", args.kind.name(), std::process::id()));
    watchdog(HARD_LIMIT, root.clone());
    let outcome = run(&args, &root);
    let _ = std::fs::remove_dir_all(&root);
    let _ = std::fs::remove_dir(&base);
    match outcome {
        Ok((correct, line)) => {
            println!("{line}");
            if correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: correctness check failed");
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
