//! The Neptune benchmark: one command, one workload, one seed.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload browse|checkin|private_worlds --seed N --seconds S --trace 0|1
//! ```
//!
//! It builds a store through the library, checkpoints and reopens it,
//! serves it with `serve_sharded`, and drives a closed loop from two client
//! threads, one connection each, with no think time. Every answer is
//! checked against what the generator wrote; afterwards the store is
//! verified and every acknowledged check-in read back. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. With `--trace 0` the metrics are the end-to-end ones;
//! with `--trace 1` the per-layer ledger (see `METRICS.md`). The command
//! exits non-zero when any check fails.
//!
//! Stores live under `.perfbench_work/` in the current directory and are
//! removed on exit; the traced run leaves its spans there, in
//! `spans-<workload>.jsonl`.

mod backend;
mod gen;
mod layers;
mod ledger;
mod load;
mod stats;

use std::path::{Path, PathBuf};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use neptune_ham::types::MAIN_CONTEXT;
use neptune_ham::ShardedHam;
use neptune_server::{Client, ServerHandle};

use backend::{Class, Wire};
use gen::{fnv1a, Store};
use load::{Key, NodeLog, Tally, Worker, Workload};

/// Client threads, one connection each.
const CONNS: usize = 2;

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One worker per connection.
type Workers = Vec<Worker<Wire>>;

/// A reported metric: name, value, unit.
type Metric = (String, f64, &'static str);

struct Args {
    workload: Workload,
    name: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => trace = Some(value == "1"),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let name = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload: Workload::parse(&name).ok_or(format!("unknown workload {name}"))?,
        name,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10).max(1),
        trace: trace.unwrap_or(false),
    })
}

/// A served store and what set-up wrote into it.
struct Served {
    workload: Workload,
    dir: PathBuf,
    server: ServerHandle,
    store: Arc<Store>,
    setup_s: f64,
    checkpoint_ms: f64,
}

/// Build, checkpoint, reopen and serve one store.
fn setup(dir: &Path, w: Workload, seed: u64) -> Result<Served, String> {
    let _ = std::fs::remove_dir_all(dir);
    let start = Instant::now();
    let (ham, store) = gen::build(dir, &w.shape(), seed).map_err(|e| format!("build: {e}"))?;
    let cp = Instant::now();
    ham.checkpoint().map_err(|e| format!("checkpoint: {e}"))?;
    let checkpoint_ms = cp.elapsed().as_secs_f64() * 1e3;
    drop(ham);
    let (ham, _, _) = ShardedHam::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let server =
        neptune_server::serve_sharded(ham, "127.0.0.1:0").map_err(|e| format!("serve: {e}"))?;
    Ok(Served {
        workload: w,
        dir: dir.to_path_buf(),
        server,
        store: Arc::new(store),
        setup_s: start.elapsed().as_secs_f64(),
        checkpoint_ms,
    })
}

/// Steps each connection runs before measuring, so caches fill and lazy
/// set-up finishes.
fn warmup_steps(w: Workload) -> u64 {
    match w {
        Workload::Browse => 400,
        Workload::Checkin => 100,
        Workload::PrivateWorlds => 10,
    }
}

/// Run every worker for `steps` steps or until `window` ends, one thread
/// each, started together. Returns the workers and the wall time.
fn run_for(workers: Workers, steps: u64, window: Option<Duration>) -> (Workers, f64) {
    let barrier = Arc::new(Barrier::new(workers.len() + 1));
    let handles: Vec<_> = workers
        .into_iter()
        .map(|mut d| {
            let barrier = Arc::clone(&barrier);
            std::thread::spawn(move || {
                barrier.wait();
                let start = Instant::now();
                let mut n = 0;
                while n < steps && window.is_none_or(|w| start.elapsed() < w) {
                    d.step();
                    n += 1;
                }
                d
            })
        })
        .collect();
    barrier.wait();
    let start = Instant::now();
    let workers = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();
    (workers, start.elapsed().as_secs_f64())
}

/// The untraced measured window, in one-second slices with the logs
/// folded between them (see [`fold_wal`]). Returns the workers, the
/// window's tally and its end-to-end metrics.
fn measure(
    mut workers: Workers,
    served: &Served,
    w: Workload,
    seconds: u64,
) -> Result<(Workers, Tally, Vec<Metric>), String> {
    let mut slices = Vec::new();
    for _ in 0..seconds {
        let (mut d, s) = run_for(workers, u64::MAX, Some(Duration::from_secs(1)));
        slices.push((take_tallies(&mut d), s));
        workers = d;
        fold_wal(served)?;
    }
    let rates: Vec<String> = slices
        .iter()
        .map(|(t, secs)| format!("{:.0}", t.completed() as f64 / secs))
        .collect();
    println!("# slice ops/s: {}", rates.join(" "));
    let metrics = end_to_end(w, &slices)?;
    let mut measured = Tally::default();
    for (t, _) in slices {
        measured.absorb(t);
    }
    Ok((workers, measured, metrics))
}

/// The traced run's window: `seconds` pairs of one-second slices, first
/// untraced, then traced, so state that drifts over a run (versions pile
/// up) weighs on both sides of `trace.overhead` alike. Returns the
/// workers, the untraced slices' tally and length, and the traced ones.
fn measure_traced(
    mut workers: Workers,
    served: &Served,
    seconds: u64,
) -> Result<(Workers, Tally, f64, Traced), String> {
    let slice = Some(Duration::from_secs(1));
    let (mut untraced, mut secs, mut t) = (Tally::default(), 0.0, Traced::default());
    for _ in 0..seconds {
        let (mut d, s) = run_for(workers, u64::MAX, slice);
        secs += s;
        untraced.absorb(take_tallies(&mut d));
        fold_wal(served)?;
        let (d, _) = reconnect(d, served, true)?;
        let before = layers::Counters::now(&served.dir);
        let (mut d, s) = run_for(d, u64::MAX, slice);
        t.secs += s;
        t.tally.absorb(take_tallies(&mut d));
        // A metrics scrape refreshes the derived gauges (cache occupancy).
        Client::connect(served.server.addr())
            .and_then(|mut c| c.metrics().map_err(std::io::Error::other))
            .map_err(|e| format!("metrics scrape: {e}"))?;
        t.last = layers::Counters::now(&served.dir);
        t.window.add_window(&before, &t.last);
        fold_wal(served)?;
        let (d, tracers) = reconnect(d, served, false)?;
        t.tracers.extend(tracers);
        workers = d;
    }
    Ok((workers, untraced, secs, t))
}

/// Between slices of a workload that writes, checkpoint the store so its
/// write-ahead logs start again from empty. Forks and merges log much of
/// MAIN each time: `private_worlds` grows MAIN's log by tens of MB a
/// second, and a run that never folded it would pass a GiB. The
/// checkpoint runs outside every timed slice and between counter
/// samples, so no latency sample or counter delta includes it.
fn fold_wal(served: &Served) -> Result<(), String> {
    if served.workload == Workload::Browse {
        return Ok(());
    }
    checkpoint(served)
}

/// Checkpoint the served store over one fresh connection.
fn checkpoint(served: &Served) -> Result<(), String> {
    Client::connect(served.server.addr())
        .and_then(|mut c| c.checkpoint().map_err(std::io::Error::other))
        .map_err(|e| format!("checkpoint: {e}"))
}

/// The traced slices of a traced run.
#[derive(Default)]
struct Traced {
    tally: Tally,
    secs: f64,
    /// Counter deltas summed over the traced slices.
    window: layers::Counters,
    /// Counters at the end of the last traced slice.
    last: layers::Counters,
    tracers: Vec<ledger::Tracer>,
}

/// Move every worker's tally out, folded into one.
fn take_tallies(workers: &mut [Worker<Wire>]) -> Tally {
    let mut t = Tally::default();
    for d in workers {
        t.absorb(std::mem::take(&mut d.tally));
    }
    t
}

/// Host facts recorded with every result.
fn fingerprint(work: &Path) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").map_or_else(
        |_| std::env::consts::OS.to_string(),
        |s| s.trim().to_string(),
    );
    format!(
        "nproc={nproc} fs={} kernel={kernel} rustc=\"{}\"",
        fs_type(work),
        env!("PERFBENCH_RUSTC")
    )
}

/// Filesystem type of the mount holding `path`, from the kernel's mount
/// table (longest matching mount point).
fn fs_type(path: &Path) -> String {
    let Ok(abs) = std::fs::canonicalize(path) else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/self/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            abs.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, k)| k)
}

/// Bytes of the regular files under `dir`, only those named `name` when
/// one is given.
fn file_bytes(dir: &Path, name: Option<&str>) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.file_type() {
            Ok(t) if t.is_dir() => file_bytes(&e.path(), name),
            Ok(_) if name.is_none_or(|n| e.file_name() == n) => e.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Verify the stopped store and read back every acknowledged version.
/// Returns the failures and their first messages.
fn verify(dir: &Path, logs: &[NodeLog]) -> (u64, Vec<String>) {
    let findings = neptune_check::verify_store(dir);
    let mut failed = findings.len() as u64;
    let mut errors: Vec<String> = findings.iter().take(4).map(|f| format!("{f:?}")).collect();
    match ShardedHam::open(dir) {
        Ok((ham, _, _)) => {
            let view = ham.read_view(MAIN_CONTEXT);
            let (f, e) = load::read_back(logs, |node, t| {
                view.read_node(MAIN_CONTEXT, node, t, &[])
                    .map(|o| fnv1a(&o.contents))
                    .map_err(|e| e.to_string())
            });
            failed += f;
            errors.extend(e);
        }
        Err(e) => {
            failed += 1;
            errors.push(format!("reopen for read-back: {e}"));
        }
    }
    (failed, errors)
}

/// End-to-end metrics of a window measured in slices: throughput is
/// every completed RPC over the whole window, and each median comes from
/// [`stats::sliced_percentile`]. Tail percentiles are printed by
/// [`class_report`] but not bounded (see `METRICS.md`).
fn end_to_end(w: Workload, slices: &[(Tally, f64)]) -> Result<Vec<Metric>, String> {
    let completed: u64 = slices.iter().map(|(t, _)| t.completed()).sum();
    let secs: f64 = slices.iter().map(|(_, s)| s).sum();
    let median = |name: &str, key: Key| {
        let per_slice: Vec<&[f64]> = slices.iter().map(|(t, _)| t.samples(key)).collect();
        stats::sliced_percentile(&per_slice, 0.5).ok_or(format!(
            "{name}: {} samples cannot support a median",
            per_slice.iter().map(|s| s.len()).sum::<usize>(),
        ))
    };
    Ok(vec![
        ("ops_per_s".into(), completed as f64 / secs, "1/s"),
        (
            "open_p50_us".into(),
            median("open", Key::Class(Class::Open))?,
            "us",
        ),
        ("key_p50_us".into(), median("key", w.key())?, "us"),
    ])
}

/// Per-class latency lines for the human-readable report, named as in
/// `METRICS.md`: the median and the class's tail percentile (p99; p90 for
/// the tens-of-ms context operations), each only when the run issued the
/// class and holds ten samples beyond the percentile.
fn class_report(t: &Tally) -> Vec<String> {
    let mut series: Vec<(&str, &[f64], f64)> = Class::ALL
        .iter()
        .map(|c| {
            let tail = match c {
                Class::Fork | Class::Merge | Class::Destroy => 0.90,
                _ => 0.99,
            };
            (c.name(), &t.lat[c.index()][..], tail)
        })
        .collect();
    series.push(("world", &t.world[..], 0.90));
    let mut out = Vec::new();
    for (name, v, tail) in series {
        let mut v = v.to_vec();
        v.sort_by(f64::total_cmp);
        for q in [0.5, tail] {
            if let Some(x) = stats::percentile(&v, q) {
                let p = (q * 100.0).round();
                out.push(format!("# {name}_p{p}_us = {x:.1} us (n={})", v.len()));
            }
        }
    }
    out
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `+ 0.0` turns a negative zero from a zero delta into 0.
        format!("{}", v + 0.0)
    } else {
        "0".into()
    }
}

fn print_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body = metrics
        .iter()
        .map(|(k, v, u)| {
            format!(
                "\"{k}\": {{\"value\": {}, \"unit\": \"{u}\"}}",
                json_number(*v)
            )
        })
        .collect::<Vec<_>>()
        .join(", ");
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{body}}}}}"
    );
}

/// Connect the workload's workers to `server`, one connection each.
fn connect(served: &Served, w: Workload, seed: u64, traced: bool) -> Result<Workers, String> {
    (0..CONNS)
        .map(|c| {
            let client =
                Client::connect(served.server.addr()).map_err(|e| format!("connect: {e}"))?;
            Ok(Worker::new(
                Wire::new(client, traced),
                w,
                Arc::clone(&served.store),
                seed,
                1 + c as u64,
                c,
                CONNS,
            ))
        })
        .collect()
}

/// Swap every worker's connection for a fresh one (traced or not),
/// keeping its workload state.
fn reconnect(
    workers: Workers,
    served: &Served,
    traced: bool,
) -> Result<(Workers, Vec<ledger::Tracer>), String> {
    let mut tracers = Vec::new();
    let mut out = Vec::new();
    for mut d in workers {
        let client = Client::connect(served.server.addr()).map_err(|e| format!("connect: {e}"))?;
        let old = std::mem::replace(&mut d.backend, Wire::new(client, traced));
        tracers.extend(old.into_tracer());
        out.push(d);
    }
    Ok((out, tracers))
}

fn run(args: &Args, work: &Path) -> Result<(bool, u64, u64, Vec<Metric>), String> {
    let w = args.workload;
    let fp = fingerprint(work);
    println!(
        "# neptune perfbench workload={} seed={} seconds={} trace={} conns={} flush=wal-fsync-per-commit {fp}",
        args.name, args.seed, args.seconds, args.trace as u8, CONNS
    );

    let served = setup(&work.join("store"), w, args.seed)?;
    let mut times = vec![served.setup_s];

    let workers = connect(&served, w, args.seed, false)?;
    let (mut workers, _) = run_for(workers, warmup_steps(w), None);
    let warm = take_tallies(&mut workers);
    fold_wal(&served)?;

    let (workers, measured, secs, traced, e2e) = if args.trace {
        let (d, measured, secs, traced) = measure_traced(workers, &served, args.seconds)?;
        (d, measured, secs, Some(traced), Vec::new())
    } else {
        let (d, measured, metrics) = measure(workers, &served, w, args.seconds)?;
        (d, measured, 0.0, None, metrics)
    };

    // Final checkpoint, then stop serving.
    checkpoint(&served).map_err(|e| format!("final {e}"))?;
    let logs: Vec<NodeLog> = workers
        .iter()
        .flat_map(|d| d.owned.values().cloned())
        .collect();
    drop(workers);
    let store = Arc::clone(&served.store);
    let dir = served.dir.clone();
    let checkpoint_ms = served.checkpoint_ms;
    served.server.stop();

    let user_bytes = store.user_bytes
        + warm.user_bytes
        + measured.user_bytes
        + traced.as_ref().map_or(0, |t| t.tally.user_bytes);
    let stored = file_bytes(&dir, None);
    let snapshot_bytes = file_bytes(&dir, Some("graph.snap"));

    let (vfailed, verrors) = verify(&dir, &logs);

    // The remaining set-ups only time themselves. They run after the
    // measured window so their disk traffic cannot disturb it.
    let setups = if args.trace { 1 } else { SETUPS };
    for k in 1..setups {
        let s = setup(&work.join(format!("setup-{k}")), w, args.seed)?;
        times.push(s.setup_s);
        s.server.stop();
        let _ = std::fs::remove_dir_all(&s.dir);
    }
    let mut attempted = warm.attempted + measured.attempted;
    let mut failed = warm.failed + measured.failed + vfailed;
    let mut errors: Vec<String> = warm
        .errors
        .iter()
        .chain(&measured.errors)
        .cloned()
        .collect();
    errors.extend(verrors);

    for line in class_report(&measured) {
        println!("{line}");
    }

    let metrics = if let Some(t) = traced {
        attempted += t.tally.attempted;
        failed += t.tally.failed;
        errors.extend(t.tally.errors.iter().cloned());
        let ctx = layers::Context {
            workload: w,
            seed: args.seed,
            seconds: args.seconds,
            store: &store,
            logs: &logs,
            dir: &dir,
            untraced: &measured,
            untraced_secs: secs,
            traced: &t.tally,
            traced_secs: t.secs,
            window: &t.window,
            last: &t.last,
            wire_spans: &t.tracers,
            checkpoint_ms,
            snapshot_bytes,
            spans_path: &work
                .parent()
                .unwrap_or(work)
                .join(format!("spans-{}.jsonl", args.name)),
        };
        let (m, lfailed, lerrors) = layers::ledger(&ctx)?;
        attempted += lfailed.0;
        failed += lfailed.1;
        errors.extend(lerrors);
        m
    } else {
        let mut m = vec![(
            "setup_s".to_string(),
            stats::median(&times).expect("set-up ran"),
            "s",
        )];
        m.extend(e2e);
        m.push((
            "bytes_stored_per_user_byte".into(),
            stored as f64 / user_bytes.max(1) as f64,
            "B/B",
        ));
        m
    };
    let _ = std::fs::remove_dir_all(&dir);

    for (k, v, u) in &metrics {
        println!("# {k} = {v:.4} {u}");
    }
    println!("# attempted={attempted} failed={failed} setup_s_samples={times:?}");
    for e in &errors {
        println!("# failure: {e}");
    }
    Ok((failed == 0, attempted.max(1), failed, metrics))
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let work = PathBuf::from(".perfbench_work").join(format!(
        "{}-{}-{}",
        args.name,
        args.seed,
        std::process::id()
    ));
    if let Err(e) = std::fs::create_dir_all(&work) {
        eprintln!("perfbench: cannot create {}: {e}", work.display());
        std::process::exit(2);
    }
    let outcome = run(&args, &work);
    let _ = std::fs::remove_dir_all(&work);
    match outcome {
        Ok((correct, attempted, failed, metrics)) => {
            print_result(correct, attempted, failed, &metrics);
            if !correct {
                std::process::exit(1);
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
