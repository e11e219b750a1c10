//! Lock-free committed views under concurrent mutation.
//!
//! A published [`CommittedView`] is an immutable snapshot: a reader that
//! holds one across commits, checkpoints, and rollbacks must keep seeing
//! exactly the state it captured — stale, but internally consistent. The
//! property test drives context forks, merges, and destroys from the
//! writer while lock-free readers continuously load and read views,
//! checking that every observed value is one the writer actually
//! committed (the version-materialization cache must never serve bytes
//! from a different world).

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::types::{NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, ShardedHam};
use neptune_storage::testutil::TempDir;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("neptune-view-{name}"))
}

fn contents_of(ham: &Ham, node: NodeIndex) -> Vec<u8> {
    ham.read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
        .unwrap()
        .contents
        .to_vec()
}

fn view_contents(view: &neptune_ham::CommittedView, node: NodeIndex) -> Vec<u8> {
    view.read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
        .unwrap()
        .contents
        .to_vec()
}

/// A reader holding an old view across commit + checkpoint + rollback must
/// read consistent stale-but-valid state; each publication step must bump
/// the epoch.
#[test]
fn old_view_is_stable_across_commit_checkpoint_and_rollback() {
    let dir = tmpdir("stable");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, t0) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t0, &b"v1"[..], &[])
        .unwrap();

    let old = ham.committed_view();
    assert_eq!(view_contents(&old, node), b"v1");

    // Commit a new version: the old view must not move.
    let t1 = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t1, &b"v2"[..], &[])
        .unwrap();
    let newer = ham.committed_view();
    assert!(
        newer.epoch() > old.epoch(),
        "commit must publish a new view"
    );
    assert_eq!(view_contents(&old, node), b"v1");
    assert_eq!(view_contents(&newer, node), b"v2");

    // Checkpoint folds the WAL into a snapshot; no state changes, and the
    // old view keeps reading the same bytes.
    ham.checkpoint().unwrap();
    assert_eq!(view_contents(&old, node), b"v1");
    assert_eq!(view_contents(&newer, node), b"v2");

    // A rolled-back transaction truncates in-txn history and republishes;
    // both retained views are unaffected, and the fresh view shows the
    // last committed state.
    ham.begin_transaction().unwrap();
    let t2 = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t2, &b"doomed"[..], &[])
        .unwrap();
    assert_eq!(contents_of(&ham, node), b"doomed"); // owner read-your-writes
    ham.abort_transaction().unwrap();

    let after_abort = ham.committed_view();
    assert!(after_abort.epoch() > newer.epoch());
    assert_eq!(view_contents(&old, node), b"v1");
    assert_eq!(view_contents(&newer, node), b"v2");
    assert_eq!(view_contents(&after_abort, node), b"v2");

    // Historical reads through the old view replay from its own archive
    // clone and stay correct too.
    let (major, _) = old.get_node_versions(MAIN_CONTEXT, node).unwrap();
    let (major_new, _) = after_abort.get_node_versions(MAIN_CONTEXT, node).unwrap();
    // The newer view has exactly one more committed version (v2) than the
    // old one; the aborted "doomed" version appears in neither.
    assert_eq!(major_new.len(), major.len() + 1);

    assert!(neptune_ham::invariants::view_violations(&old).is_empty());
    assert!(neptune_ham::invariants::view_violations(&after_abort).is_empty());
}

/// Property test: fork/merge/destroy contexts and roll back transactions
/// while lock-free readers hammer the published views. Every contents a
/// reader observes must be a value the writer committed, current *or*
/// historical — never an uncommitted, torn, or cross-context value served
/// from a stale cache entry.
#[test]
fn forked_and_merged_contexts_under_concurrent_lockfree_readers() {
    const ROUNDS: u64 = 40;
    const READERS: usize = 4;

    let dir = tmpdir("fork-merge");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, t0) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t0, &b"round-0"[..], &[])
        .unwrap();

    let handle = ham.published_handle();
    let stop = Arc::new(AtomicBool::new(false));
    let max_round = Arc::new(AtomicU64::new(0));

    let is_legal = |contents: &[u8], bound: u64| -> bool {
        let Ok(text) = std::str::from_utf8(contents) else {
            return false;
        };
        let Some(n) = text
            .strip_prefix("round-")
            .and_then(|r| r.parse::<u64>().ok())
        else {
            return false;
        };
        n <= bound
    };

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let handle = Arc::clone(&handle);
        let stop = Arc::clone(&stop);
        let max_round = Arc::clone(&max_round);
        readers.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let view = handle.load();
                // The bound is read *after* the view: the writer is
                // sequential and stores `max_round = r` before starting
                // round r+1, so the view just loaded can show at most
                // round `max_round + 1` — and `max_round` only grows, so
                // a later read stays a sound (merely looser) bound. The
                // view itself is immutable, so nothing below races.
                let bound = max_round.load(Ordering::SeqCst) + 1;
                for ctx in view.contexts() {
                    // Current contents in any context the snapshot holds.
                    let opened = view.read_node(ctx, node, Time::CURRENT, &[]).unwrap();
                    assert!(
                        is_legal(&opened.contents, bound),
                        "illegal contents {:?} (bound {bound}, epoch {})",
                        String::from_utf8_lossy(&opened.contents),
                        view.epoch(),
                    );
                    // A historical read of the current version must agree
                    // byte-for-byte with the head read — this is the path
                    // that exercises the materialization cache, so a stale
                    // generation would surface here.
                    let again = view.read_node(ctx, node, opened.current_time, &[]).unwrap();
                    assert_eq!(again.contents, opened.contents);
                    reads += 2;
                }
                assert!(neptune_ham::invariants::view_violations(&view).is_empty());
            }
            reads
        }));
    }

    for round in 1..=ROUNDS {
        let body = format!("round-{round}").into_bytes();
        match round % 4 {
            // Fork, modify in the private world, merge back, destroy.
            0..=2 => {
                let fork = ham.create_context(MAIN_CONTEXT).unwrap();
                let t = ham.get_node_time_stamp(fork, node).unwrap();
                ham.modify_node(fork, node, t, &body[..], &[]).unwrap();
                ham.merge_context(fork, ConflictPolicy::PreferChild)
                    .unwrap();
                ham.destroy_context(fork).unwrap();
            }
            // Direct modify in main, then an aborted transaction whose
            // rollback must be invisible to every reader.
            _ => {
                let t = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
                ham.modify_node(MAIN_CONTEXT, node, t, &body[..], &[])
                    .unwrap();
                ham.begin_transaction().unwrap();
                let t = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
                ham.modify_node(MAIN_CONTEXT, node, t, &b"uncommitted"[..], &[])
                    .unwrap();
                ham.abort_transaction().unwrap();
            }
        }
        max_round.store(round, Ordering::SeqCst);
        if round % 8 == 0 {
            ham.checkpoint().unwrap();
        }
    }

    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for r in readers {
        total += r.join().unwrap();
    }
    assert!(total > 0, "readers made no progress");

    // The store itself is intact after the run.
    assert_eq!(
        contents_of(&ham, node),
        format!("round-{ROUNDS}").into_bytes()
    );
    assert!(neptune_ham::invariants::ham_violations(&ham).is_empty());
}

/// Same fork/merge/destroy property, but across a sharded store: the
/// writer forks contexts that land on *other* shards (global id
/// allocation spreads them round-robin), merges them back through the
/// two-phase cross-shard path, and destroys them — while readers assemble
/// [`MultiView`]s lock-free the whole time. Every value a reader observes
/// through any assembled view must be one the writer committed, and a
/// multi-view pinned mid-run must keep reading its exact snapshot after
/// later merges and destroys.
///
/// [`MultiView`]: neptune_ham::MultiView
#[test]
fn multi_shard_fork_merge_destroy_under_lockfree_readers() {
    const SHARDS: usize = 3;
    const ROUNDS: u64 = 30;
    const READERS: usize = 3;

    let dir = tmpdir("multi-shard");
    let (sharded, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, SHARDS).unwrap();
    let sharded = Arc::new(sharded);
    let node = {
        let mut main = sharded.lock_home(MAIN_CONTEXT).unwrap();
        let (node, t0) = main.add_node(MAIN_CONTEXT, true).unwrap();
        main.modify_node(MAIN_CONTEXT, node, t0, &b"round-0"[..], &[])
            .unwrap();
        node
    };

    let stop = Arc::new(AtomicBool::new(false));
    let max_round = Arc::new(AtomicU64::new(0));

    let is_legal = |contents: &[u8], bound: u64| -> bool {
        std::str::from_utf8(contents)
            .ok()
            .and_then(|text| text.strip_prefix("round-"))
            .and_then(|r| r.parse::<u64>().ok())
            .is_some_and(|n| n <= bound)
    };

    let mut readers = Vec::new();
    for _ in 0..READERS {
        let sharded = Arc::clone(&sharded);
        let stop = Arc::clone(&stop);
        let max_round = Arc::clone(&max_round);
        readers.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            let mut last_seq = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let mv = sharded.multi_view();
                // Published views only move forward, so the assembled
                // sequence ceiling must be monotonic per reader.
                assert!(mv.max_seq() >= last_seq, "multi-view went backwards");
                last_seq = mv.max_seq();
                // Bound read after the view, exactly as in the unsharded
                // test: the sequential writer stores `max_round = r`
                // before starting round r+1.
                let bound = max_round.load(Ordering::SeqCst) + 1;
                for ctx in mv.contexts() {
                    let opened = mv
                        .view_for(ctx)
                        .read_node(ctx, node, Time::CURRENT, &[])
                        .unwrap();
                    assert!(
                        is_legal(&opened.contents, bound),
                        "illegal contents {:?} in context {ctx:?} (bound {bound})",
                        String::from_utf8_lossy(&opened.contents),
                    );
                    reads += 1;
                }
            }
            reads
        }));
    }

    let mut pinned: Option<(neptune_ham::MultiView, Vec<u8>)> = None;
    for round in 1..=ROUNDS {
        let body = format!("round-{round}").into_bytes();
        // Fork (usually onto another shard), modify in the private world,
        // cross-shard merge back, destroy the fork.
        let fork = sharded.create_context(MAIN_CONTEXT).unwrap();
        {
            let mut guard = sharded.lock_home(fork).unwrap();
            let t = guard.get_node_time_stamp(fork, node).unwrap();
            guard.modify_node(fork, node, t, &body[..], &[]).unwrap();
        }
        sharded
            .merge_context(fork, ConflictPolicy::PreferChild)
            .unwrap();
        sharded.destroy_context(fork).unwrap();
        max_round.store(round, Ordering::SeqCst);
        if round == ROUNDS / 2 {
            // Pin a snapshot mid-run; later merges and destroys must not
            // move it.
            let mv = sharded.multi_view();
            let contents = mv
                .view_for(MAIN_CONTEXT)
                .read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
                .unwrap()
                .contents
                .to_vec();
            assert_eq!(contents, body);
            pinned = Some((mv, contents));
        }
        if round % 10 == 0 {
            sharded.checkpoint().unwrap();
        }
    }

    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for r in readers {
        total += r.join().unwrap();
    }
    assert!(total > 0, "readers made no progress");

    // The pinned mid-run snapshot still reads its exact bytes.
    let (pinned_mv, pinned_contents) = pinned.expect("mid-run snapshot was pinned");
    assert_eq!(
        pinned_mv
            .view_for(MAIN_CONTEXT)
            .read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents
            .to_vec(),
        pinned_contents
    );

    // The store is intact: only MAIN survives, holding the last round.
    assert_eq!(sharded.live_contexts(), vec![MAIN_CONTEXT]);
    let main = sharded.lock_home(MAIN_CONTEXT).unwrap();
    assert_eq!(
        contents_of(&main, node),
        format!("round-{ROUNDS}").into_bytes()
    );
    drop(main);
    assert!(sharded.violations().is_empty());
}

/// Metrics-proof stress: 4 writers commit on disjoint home shards (with
/// periodic cross-shard fork/merge pairs) while 4 readers assemble
/// [`MultiView`]s continuously. `neptune_ham_multiview_torn_total` — the
/// defensive counter behind the full-lock fallback — must not move: the
/// assembly protocol never hands out a view set in which a cross-shard
/// commit is half visible.
///
/// [`MultiView`]: neptune_ham::MultiView
#[test]
fn cross_shard_stress_produces_zero_torn_multiviews() {
    const SHARDS: usize = 4;
    const WRITERS: usize = 4;
    const READERS: usize = 4;
    const WRITER_ROUNDS: u64 = 40;

    neptune_obs::registry().set_enabled(true);
    let torn = neptune_obs::registry().counter("neptune_ham_multiview_torn_total");
    let cross = neptune_obs::registry().counter("neptune_ham_cross_shard_txns_total");
    let torn_before = torn.get();
    let cross_before = cross.get();

    let dir = tmpdir("torn-stress");
    let (sharded, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, SHARDS).unwrap();
    let sharded = Arc::new(sharded);
    let node = {
        let mut main = sharded.lock_home(MAIN_CONTEXT).unwrap();
        let (node, t0) = main.add_node(MAIN_CONTEXT, true).unwrap();
        main.modify_node(MAIN_CONTEXT, node, t0, &b"seed"[..], &[])
            .unwrap();
        node
    };
    // One context per writer; sequential global ids put them on distinct
    // home shards (ids 1..=4 → shards 1, 2, 3, 0).
    let ctxs: Vec<_> = (0..WRITERS)
        .map(|_| sharded.create_context(MAIN_CONTEXT).unwrap())
        .collect();
    let homes: std::collections::BTreeSet<usize> =
        ctxs.iter().map(|&c| sharded.shard_of(c)).collect();
    assert_eq!(homes.len(), WRITERS, "writer contexts must be disjoint");

    let stop = Arc::new(AtomicBool::new(false));
    let mut readers = Vec::new();
    for _ in 0..READERS {
        let sharded = Arc::clone(&sharded);
        let stop = Arc::clone(&stop);
        readers.push(std::thread::spawn(move || {
            let mut reads = 0u64;
            let mut last_seq = 0u64;
            while !stop.load(Ordering::SeqCst) {
                let mv = sharded.multi_view();
                assert!(mv.max_seq() >= last_seq, "multi-view went backwards");
                last_seq = mv.max_seq();
                for ctx in mv.contexts() {
                    let opened = mv
                        .view_for(ctx)
                        .read_node(ctx, node, Time::CURRENT, &[])
                        .unwrap();
                    assert!(!opened.contents.is_empty());
                    reads += 1;
                }
            }
            reads
        }));
    }

    let mut writers = Vec::new();
    for (i, &ctx) in ctxs.iter().enumerate() {
        let sharded = Arc::clone(&sharded);
        writers.push(std::thread::spawn(move || {
            for round in 1..=WRITER_ROUNDS {
                let body = format!("w{i}-r{round}").into_bytes();
                {
                    let mut guard = sharded.lock_home(ctx).unwrap();
                    let t = guard.get_node_time_stamp(ctx, node).unwrap();
                    guard.modify_node(ctx, node, t, &body[..], &[]).unwrap();
                }
                if round % 8 == 0 {
                    // Cross-shard pair: fork off this writer's context,
                    // modify, merge back (two shards commit under one
                    // sequence number), destroy the fork.
                    let fork = sharded.create_context(ctx).unwrap();
                    {
                        let mut guard = sharded.lock_home(fork).unwrap();
                        let t = guard.get_node_time_stamp(fork, node).unwrap();
                        guard.modify_node(fork, node, t, &body[..], &[]).unwrap();
                    }
                    sharded
                        .merge_context(fork, ConflictPolicy::PreferChild)
                        .unwrap();
                    sharded.destroy_context(fork).unwrap();
                }
            }
        }));
    }

    for w in writers {
        w.join().unwrap();
    }
    stop.store(true, Ordering::SeqCst);
    let mut total = 0;
    for r in readers {
        total += r.join().unwrap();
    }
    assert!(total > 0, "readers made no progress");

    // The run really exercised cross-shard commit pairs…
    assert!(
        cross.get() > cross_before,
        "stress produced no cross-shard transactions"
    );
    // …and not a single assembled view was torn.
    assert_eq!(
        torn.get(),
        torn_before,
        "multi-view assembly handed out a torn cross-shard snapshot"
    );
    assert!(sharded.violations().is_empty());
}
