//! `verify_sharded` against a *live* store under concurrent writers.
//!
//! The server serves `Request::Verify` from the read path while
//! registered writers keep appending to per-shard WALs. The file scans
//! therefore run under each shard's lock (writers append only inside
//! it) — otherwise a scan can catch an append mid-write and report a
//! torn WAL tail as corruption. This test hammers exactly that race:
//! without the locked scan phase it flakes with spurious `wal-checksum`
//! findings; with it, every scan is clean by construction.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use neptune_ham::types::{ContextId, Protections, MAIN_CONTEXT};
use neptune_ham::ShardedHam;

#[test]
fn verify_is_clean_under_concurrent_writers() {
    let dir = std::env::temp_dir().join(format!("neptune-verify-live-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
    let ham = Arc::new(ham);

    // One writer context homed on each shard.
    let mut ctxs: Vec<ContextId> = Vec::new();
    while {
        let covered: std::collections::BTreeSet<usize> =
            ctxs.iter().map(|c| ham.shard_of(*c)).collect();
        covered.len() < ham.shard_count()
    } {
        ctxs.push(ham.create_context(MAIN_CONTEXT).unwrap());
    }

    let stop = Arc::new(AtomicBool::new(false));
    let writers: Vec<_> = ctxs
        .into_iter()
        .map(|ctx| {
            let ham = Arc::clone(&ham);
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    let mut guard = ham.lock_home(ctx).unwrap();
                    let (node, t) = guard.add_node(ctx, true).unwrap();
                    guard
                        .modify_node(ctx, node, t, b"verify stress\n".to_vec(), &[])
                        .unwrap();
                }
            })
        })
        .collect();

    for round in 0..40 {
        let findings = neptune_check::verify_sharded(&ham);
        assert!(
            findings.is_empty(),
            "round {round}: spurious findings on a live store: {findings:?}"
        );
    }

    stop.store(true, Ordering::Relaxed);
    for w in writers {
        w.join().unwrap();
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A cross-shard fork holds the parent's shard only while it clones the
/// parent, so a destroy of that (non-MAIN) parent can land between the
/// clone and the child's adoption. Either order must leave a store
/// `verify_sharded` accepts: no child, or a child partitioned from its
/// destroyed parent — the same state as destroying a parent after forking.
#[test]
fn cross_shard_fork_racing_a_parent_destroy_stays_consistent() {
    use neptune_ham::invariants::RULE_CONTEXT_PARTITION;
    use neptune_storage::testutil::TempDir;

    let dir = TempDir::new("neptune-verify-fork-race");
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
    let ham = Arc::new(ham);
    for round in 0..48 {
        let parent = ham.create_context(MAIN_CONTEXT).unwrap();
        {
            let mut guard = ham.lock_home(parent).unwrap();
            let (node, t) = guard.add_node(parent, true).unwrap();
            guard
                .modify_node(parent, node, t, b"parent state\n".to_vec(), &[])
                .unwrap();
        }
        let before = ham.live_contexts();
        let start = Arc::new(std::sync::Barrier::new(2));
        let forker = {
            let (ham, start) = (Arc::clone(&ham), Arc::clone(&start));
            std::thread::spawn(move || {
                start.wait();
                ham.create_context(parent)
            })
        };
        start.wait();
        ham.destroy_context(parent).unwrap();
        let forked = forker.join().unwrap();

        let findings = neptune_check::verify_sharded(&ham);
        match forked {
            Ok(child) => {
                let child_entity = format!("context {}", child.0);
                assert!(
                    findings
                        .iter()
                        .all(|f| f.rule == RULE_CONTEXT_PARTITION && f.entity == child_entity),
                    "round {round}: unexpected findings {findings:?}"
                );
                assert!(
                    !findings.is_empty(),
                    "round {round}: child {child:?} of a destroyed parent is not reported partitioned"
                );
                // Ids are handed out in sequence, so the child is homed on
                // the next shard: this is the cross-shard fork path.
                assert_ne!(ham.shard_of(child), ham.shard_of(parent));
                ham.destroy_context(child).unwrap();
            }
            Err(e) => {
                assert!(
                    matches!(e, neptune_ham::HamError::NoSuchContext(c) if c == parent),
                    "round {round}: fork failed with {e}"
                );
                assert!(findings.is_empty(), "round {round}: {findings:?}");
                let after: Vec<ContextId> =
                    before.iter().copied().filter(|c| *c != parent).collect();
                assert_eq!(ham.live_contexts(), after, "round {round}: a child leaked");
            }
        }
        let findings = neptune_check::verify_sharded(&ham);
        assert!(findings.is_empty(), "round {round}: {findings:?}");
    }
}
