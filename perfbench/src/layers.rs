//! The traced run's per-layer ledger.
//!
//! Three sources, each taken over measured work only:
//!
//! * counter and histogram deltas the program already exports, read
//!   around the traced wire window (server, shard, vcache, WAL, publish);
//! * the benchmark's own spans from an in-process replay of the same
//!   workload through the library's public functions (codec, shard, view,
//!   HAM), folded to self time;
//! * spans around `Archive::checkout` and `diff::differences` on a
//!   workload node's version sequence.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use neptune_ham::ShardedHam;
use neptune_storage::Archive;

use crate::backend::{Class, Local};
use crate::gen::{fnv1a, Rng, Store};
use crate::ledger::{self, Span, Tracer};
use crate::load::{NodeLog, Tally, Worker, Workload};

/// Exported program counters plus on-disk WAL bytes: absolute at one
/// instant, or summed over measured windows.
#[derive(Debug, Default, Clone)]
pub struct Counters {
    flat: BTreeMap<String, f64>,
    wal_bytes: u64,
}

impl Counters {
    /// Read them now, for the store at `dir`.
    pub fn now(dir: &Path) -> Counters {
        Counters {
            flat: neptune_obs::registry().flat_snapshot(),
            wal_bytes: crate::file_bytes(dir, Some("wal.log")),
        }
    }

    /// Add the window from `before` to `after` to these sums.
    pub fn add_window(&mut self, before: &Counters, after: &Counters) {
        for (k, v) in &after.flat {
            *self.flat.entry(k.clone()).or_default() += v - before.flat.get(k).unwrap_or(&0.0);
        }
        self.wal_bytes += after.wal_bytes.saturating_sub(before.wal_bytes);
    }

    /// The value at `key`, summed over every label set when `key` names
    /// a labelled family (`family{...}`).
    fn get(&self, key: &str) -> f64 {
        self.flat
            .range(key.to_string()..)
            .take_while(|(k, _)| k.starts_with(key))
            .filter(|(k, _)| k.len() == key.len() || k[key.len()..].starts_with('{'))
            .map(|(_, v)| v)
            .sum()
    }

    /// Mean of a histogram family over the window, divided by `scale`;
    /// 0 when nothing was observed.
    fn hist_mean(&self, family: &str, labels: &str, scale: f64) -> f64 {
        let n = self.get(&format!("{family}_count{labels}"));
        let s = self.get(&format!("{family}_sum{labels}"));
        ratio(s, n) / scale
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Spans written out per source (replay, wire).
const SPANS_KEPT: usize = 100_000;

/// Everything the ledger draws on.
pub struct Context<'a> {
    /// The workload measured.
    pub workload: Workload,
    /// Its seed.
    pub seed: u64,
    /// The run length.
    pub seconds: u64,
    /// What set-up wrote.
    pub store: &'a Store,
    /// Every owned node's acknowledged versions after the wire run.
    pub logs: &'a [NodeLog],
    /// The (stopped) store directory.
    pub dir: &'a Path,
    /// The untraced window.
    pub untraced: &'a Tally,
    /// Its length, s.
    pub untraced_secs: f64,
    /// The traced window.
    pub traced: &'a Tally,
    /// Its length, s.
    pub traced_secs: f64,
    /// Counter deltas summed over the traced windows.
    pub window: &'a Counters,
    /// Counters at the end of the last traced window (for gauges).
    pub last: &'a Counters,
    /// The client spans of the traced window, one tracer per connection.
    pub wire_spans: &'a [Tracer],
    /// Set-up's checkpoint time, ms.
    pub checkpoint_ms: f64,
    /// Snapshot file bytes after the final checkpoint.
    pub snapshot_bytes: u64,
    /// Where the span file goes.
    pub spans_path: &'a Path,
}

/// Per op-class root spans: count and mean inclusive duration (µs), and
/// mean summed self time of the spans below the root (µs).
fn roots(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let own = ledger::self_times(spans);
    let mut acc: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent.is_none() && s.name.starts_with("op.") {
            let e = acc.entry(s.name).or_default();
            e.0 += 1;
            e.1 += s.end - s.start;
            e.2 += (s.end - s.start) - own[i];
        }
    }
    acc.into_iter()
        .map(|(k, (n, incl, below))| {
            (
                k,
                (
                    n,
                    incl as f64 / n as f64 / 1e3,
                    below as f64 / n as f64 / 1e3,
                ),
            )
        })
        .collect()
}

/// Replay the workload in process for `seconds` one-second slices,
/// single-threaded, with a span around every library call. Returns the
/// worker's spans and tally.
fn replay(c: &Context<'_>, ham: &ShardedHam, seconds: u64) -> Result<(Vec<Span>, Tally), String> {
    let store = Arc::new(c.store.clone());
    let mut d = Worker::new(Local::new(ham), c.workload, store, c.seed, 99, 0, 1);
    d.owned = c
        .logs
        .iter()
        .map(|log| {
            let slot = c
                .store
                .nodes
                .iter()
                .position(|&n| n == log.node)
                .expect("design node");
            (slot, log.clone())
        })
        .collect();
    for _ in 0..seconds {
        let start = Instant::now();
        while start.elapsed() < Duration::from_secs(1) {
            d.step();
        }
        // Fold the logs between slices, as the wire run does.
        if c.workload != Workload::Browse {
            ham.checkpoint()
                .map_err(|e| format!("replay checkpoint: {e}"))?;
        }
    }
    Ok((
        d.backend.tracer.spans().to_vec(),
        std::mem::take(&mut d.tally),
    ))
}

/// Checkout and diff on the sample node's version sequence: the archive
/// is rebuilt from the versions set-up wrote, then read at times drawn
/// like the browse workload's history reads.
fn archive_layer(c: &Context<'_>) -> (Vec<(String, f64, &'static str)>, u64, u64) {
    let sample = &c.store.sample;
    let mut tracer = Tracer::new();
    let (t0, first) = &sample[0];
    let mut archive = Archive::new(first.clone(), t0.0);
    for (t, contents) in &sample[1..] {
        archive
            .checkin(contents.clone(), t.0)
            .expect("sample checks in");
    }
    for pair in sample.windows(2) {
        tracer.time("diff.differences", || {
            std::hint::black_box(neptune_storage::diff::differences(&pair[0].1, &pair[1].1))
        });
    }
    let depth = neptune_obs::registry().histogram("neptune_storage_delta_replay_depth");
    let buckets_before = depth.bucket_counts();
    let before = Counters::now(c.dir);
    let mut rng = Rng::new(c.seed, 0xa5c);
    let (mut attempted, mut failed) = (0, 0);
    for _ in 0..2000 {
        let age = (rng.unit().powi(3) * sample.len() as f64) as usize;
        let (t, contents) = &sample[sample.len() - 1 - age.min(sample.len() - 1)];
        attempted += 1;
        match tracer.time("archive.checkout", || archive.checkout(t.0)) {
            Ok(got) if fnv1a(&got) == fnv1a(contents) => {}
            _ => failed += 1,
        }
    }
    let mut w = Counters::default();
    w.add_window(&before, &Counters::now(c.dir));
    let buckets: Vec<u64> = depth
        .bucket_counts()
        .iter()
        .zip(buckets_before.iter())
        .map(|(a, b)| a - b)
        .collect();
    let total: u64 = buckets.iter().sum();
    let mut seen = 0;
    let mut p99 = 0.0;
    for (i, n) in buckets.iter().enumerate() {
        seen += n;
        if total > 0 && seen as f64 >= 0.99 * total as f64 {
            p99 = neptune_obs::metrics::bucket_upper_bound(i).map_or(f64::INFINITY, |b| b as f64);
            break;
        }
    }
    let t = ledger::layer_times(tracer.spans());
    let m = vec![
        (
            "diff.differences_us".into(),
            t["diff.differences"].mean_ns() / 1e3,
            "us",
        ),
        (
            "archive.checkout_us".into(),
            t["archive.checkout"].mean_ns() / 1e3,
            "us",
        ),
        (
            "archive.replay_depth_mean".into(),
            w.hist_mean("neptune_storage_delta_replay_depth", "", 1.0),
            "deltas",
        ),
        ("archive.replay_depth_p99".into(), p99, "deltas"),
        (
            "archive.index_hits".into(),
            w.get("neptune_storage_index_hits_total"),
            "count",
        ),
        (
            "archive.anchor_bytes".into(),
            archive.anchor_bytes() as f64,
            "B",
        ),
    ];
    (m, attempted, failed)
}

/// Build the per-layer metrics. Returns them, `(attempted, failed)` of
/// the replay's own checks, and failure messages.
#[allow(clippy::type_complexity)]
pub fn ledger(
    c: &Context<'_>,
) -> Result<(Vec<(String, f64, &'static str)>, (u64, u64), Vec<String>), String> {
    let w = c.window;
    let d = |k: &str| w.get(k);
    let traced_ops = c.traced.completed() as f64;
    let reads = c.traced.reads as f64;
    let untraced_rate = c.untraced.completed() as f64 / c.untraced_secs;
    let traced_rate = traced_ops / c.traced_secs;
    let traced_user: u64 = c.traced.user_bytes;

    let mut m: Vec<(String, f64, &'static str)> = vec![
        (
            "wire.bytes_per_op".into(),
            ratio(
                d("neptune_server_bytes_in_total") + d("neptune_server_bytes_out_total"),
                traced_ops,
            ),
            "B",
        ),
        (
            "server.gate_wait_us".into(),
            w.hist_mean("neptune_server_gate_wait_ns", "", 1e3),
            "us",
        ),
        (
            "server.gate_acquisitions".into(),
            d("neptune_server_gate_acquisitions_total"),
            "count",
        ),
        (
            "server.lockfree_read_ratio".into(),
            ratio(d("neptune_server_reads_lockfree_total"), reads),
            "ratio",
        ),
        (
            "server.read_bounces".into(),
            d("neptune_server_read_bounces_total"),
            "count",
        ),
        (
            "server.lock_timeouts".into(),
            d("neptune_server_lock_timeouts_total"),
            "count",
        ),
        (
            "server.rpc_errors".into(),
            d("neptune_server_rpc_errors_total"),
            "count",
        ),
        (
            "shard.skew_retries".into(),
            d("neptune_ham_view_skew_retries_total"),
            "count",
        ),
        (
            "shard.cross_shard_txns".into(),
            d("neptune_ham_cross_shard_txns_total"),
            "count",
        ),
        (
            "ham.publish_us".into(),
            w.hist_mean("neptune_ham_snapshot_publish_ns", "", 1e3),
            "us",
        ),
        (
            "vcache.hit_ratio".into(),
            ratio(
                d("neptune_storage_vcache_hits_total"),
                d("neptune_storage_vcache_hits_total") + d("neptune_storage_vcache_misses_total"),
            ),
            "ratio",
        ),
        (
            "vcache.bytes".into(),
            c.last.get("neptune_storage_vcache_bytes"),
            "B",
        ),
        (
            "wal.append_us".into(),
            w.hist_mean("neptune_storage_op_ns", "{op=\"wal_append\"}", 1e3),
            "us",
        ),
        (
            "wal.fsync_us".into(),
            w.hist_mean("neptune_storage_op_ns", "{op=\"wal_fsync\"}", 1e3),
            "us",
        ),
        (
            "wal.fsyncs_per_commit".into(),
            ratio(
                d("neptune_storage_op_ns_count{op=\"wal_fsync\"}"),
                d("neptune_ham_txn_commits_total"),
            ),
            "ratio",
        ),
        (
            "wal.bytes_per_user_byte".into(),
            ratio(w.wal_bytes as f64, traced_user as f64),
            "B/B",
        ),
        ("snapshot.checkpoint_ms".into(), c.checkpoint_ms, "ms"),
        ("snapshot.bytes".into(), c.snapshot_bytes as f64, "B"),
        (
            "trace.overhead".into(),
            ratio(traced_rate, untraced_rate),
            "ratio",
        ),
    ];

    // In-process replay through the library, with spans.
    let (ham, _, _) = ShardedHam::open(c.dir).map_err(|e| format!("reopen for replay: {e}"))?;
    let (spans, tally) = replay(c, &ham, c.seconds.clamp(1, 5))?;
    drop(ham);
    let t = ledger::layer_times(&spans);
    let mean = |name: &str, scale: f64| t.get(name).map_or(0.0, |x| x.mean_ns() / scale);
    m.extend([
        (
            "proto.encode_ns".to_string(),
            mean("proto.encode", 1.0),
            "ns",
        ),
        ("proto.decode_ns".into(), mean("proto.decode", 1.0), "ns"),
        (
            "shard.lock_wait_us".into(),
            mean("shard.lock_home", 1e3),
            "us",
        ),
        (
            "shard.view_load_ns".into(),
            mean("shard.read_view", 1.0),
            "ns",
        ),
        (
            "shard.fork_us".into(),
            mean("shard.create_context", 1e3),
            "us",
        ),
        (
            "shard.merge_us".into(),
            mean("shard.merge_context", 1e3),
            "us",
        ),
        (
            "shard.destroy_us".into(),
            mean("shard.destroy_context", 1e3),
            "us",
        ),
        (
            "shard.multi_view_us".into(),
            mean("shard.multi_view", 1e3),
            "us",
        ),
        (
            "view.read_head_ns".into(),
            mean("view.read_head", 1.0),
            "ns",
        ),
        (
            "view.read_past_us".into(),
            mean("view.read_past", 1e3),
            "us",
        ),
        (
            "view.linearize_us".into(),
            mean("view.linearize_graph", 1e3),
            "us",
        ),
        (
            "view.graph_query_us".into(),
            mean("view.get_graph_query", 1e3),
            "us",
        ),
        (
            "ham.modify_node_us".into(),
            mean("ham.modify_node", 1e3),
            "us",
        ),
        (
            "ham.commit_txn_us".into(),
            mean("shard.commit_transaction", 1e3),
            "us",
        ),
    ]);

    // Client-observed latency per class (traced wire window) against the
    // in-process time of the same class: the difference is the wire's
    // share; the layers' summed self time over the client latency is the
    // ledger's coverage.
    let wire_spans = ledger::concat(c.wire_spans.iter().map(Tracer::spans));
    let (wire, local) = (roots(&wire_spans), roots(&spans));
    let (mut overhead, mut weight) = (0.0, 0.0);
    for (name, &(n, rtt, _)) in &wire {
        if let Some(&(_, inproc, _)) = local.get(name) {
            overhead += n as f64 * (rtt - inproc);
            weight += n as f64;
        }
    }
    m.push(("wire.overhead_us".into(), ratio(overhead, weight), "us"));
    for class in [
        Class::Open,
        Class::History,
        Class::Browse,
        Class::Checkin,
        Class::Fork,
        Class::Merge,
    ] {
        let cover = match (wire.get(class.span()), local.get(class.span())) {
            (Some(&(_, rtt, _)), Some(&(_, _, below))) => ratio(below, rtt),
            _ => 0.0,
        };
        m.push((format!("ledger.coverage.{}", class.name()), cover, "ratio"));
    }

    let (archive, a_attempted, a_failed) = archive_layer(c);
    m.extend(archive);

    // The first spans of each source are plenty to inspect a trace by
    // hand; a whole browse run would be hundreds of MB.
    let all = ledger::concat([
        &spans[..spans.len().min(SPANS_KEPT)],
        &wire_spans[..wire_spans.len().min(SPANS_KEPT)],
    ]);
    let path = c.spans_path;
    ledger::write_spans(path, &all).map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("# spans written to {}", path.display());

    let mut errors = tally.errors.clone();
    if a_failed > 0 {
        errors.push(format!("{a_failed} archive checkouts did not match"));
    }
    Ok((
        m,
        (tally.attempted + a_attempted, tally.failed + a_failed),
        errors,
    ))
}
