//! Recovery-equivalence harness: a fault injected at *every* I/O step of a
//! randomized workload must leave a store that recovers to exactly the
//! prefix of operations whose commits became durable, with a clean
//! `verify_store` report.
//!
//! The protocol, per (fault kind, fault index) cell:
//!
//! 1. Replay a seeded workload through a [`FaultVfs`] with the fault armed,
//!    stopping at the first error.
//! 2. Reopen the *working tree* (the crash where every issued write reached
//!    disk): the state must be the completed prefix, or the prefix plus the
//!    in-flight operation if its commit record made it out.
//! 3. Freeze the *durable image* (the crash where nothing unsynced
//!    survived), materialize it, and reopen: the state must be **exactly**
//!    the completed prefix — commits are synced before they report success.
//! 4. `verify_store` on the durable image must report nothing.
//!
//! Oracle fingerprints come from one fault-free run of the same workload.
//! Seed and workload size are overridable for reproduction:
//! `NEPTUNE_FAULT_SEED=0x5EED NEPTUNE_FAULT_OPS=220 cargo test -p
//! neptune-check --test crash_consistency`. Every assertion message carries
//! the seed.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

use neptune_check::verify_store;
use neptune_ham::context::ConflictPolicy;
use neptune_ham::ham::WAL_FILE;
use neptune_ham::types::{LinkPt, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, ShardedHam, Value};
use neptune_storage::fault::{FaultKind, FaultVfs};
use neptune_storage::testutil::XorShift;

/// Arm the flight recorder for the sweep: every fault cell runs under a
/// `check.cell` trace root (so the HAM/storage spans of the ops leading up
/// to a failure are in the recorder), and a panicking assertion dumps the
/// recorder to `NEPTUNE_TRACE_DUMP` (set by ci.sh / ci.yml) before the
/// test harness unwinds.
fn obs_cell(kind: FaultKind, at: u64) -> neptune_obs::LocalTrace {
    static HOOK: OnceLock<()> = OnceLock::new();
    HOOK.get_or_init(neptune_obs::install_panic_hook);
    neptune_obs::local_root("check.cell", &format!("{kind} at {at}"))
}

fn seed() -> u64 {
    match std::env::var("NEPTUNE_FAULT_SEED") {
        Ok(s) => {
            let s = s.trim();
            let parsed = match s.strip_prefix("0x") {
                Some(hex) => u64::from_str_radix(hex, 16),
                None => s.parse(),
            };
            parsed.unwrap_or_else(|_| panic!("NEPTUNE_FAULT_SEED not a u64: {s:?}"))
        }
        Err(_) => 0xC0FFEE,
    }
}

fn op_count() -> usize {
    match std::env::var("NEPTUNE_FAULT_OPS") {
        Ok(s) => s
            .trim()
            .parse()
            .unwrap_or_else(|_| panic!("NEPTUNE_FAULT_OPS not a usize: {s:?}")),
        Err(_) => 220,
    }
}

fn tmpdir(name: &str) -> PathBuf {
    // The sweep issues hundreds of thousands of real fsyncs; on a memory
    // filesystem they are free, on a disk they dominate the runtime.
    let base = Path::new("/dev/shm");
    let base = if base.is_dir() {
        base.to_path_buf()
    } else {
        std::env::temp_dir()
    };
    let dir = base.join(format!("neptune-crashc-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

// ===========================================================================
// Workload
// ===========================================================================

#[derive(Debug, Clone)]
enum Op {
    AddNode(bool),
    Modify(usize, Vec<u8>),
    DeleteNode(usize),
    AddLink(usize, usize, u8),
    SetAttr(usize, u8, i64),
    Txn(Vec<(usize, u8, i64)>, bool), // attr writes, commit?
    Checkpoint,
    Fork,
    Merge(usize),
}

const ATTRS: [&str; 3] = ["document", "status", "owner"];

fn gen_op(rng: &mut XorShift) -> Op {
    // Node births and deaths are nearly balanced: every live node is
    // re-mirrored by every checkpoint, so the population size multiplies
    // the whole sweep's fault-point count.
    match rng.below(48) {
        0..=5 => Op::AddNode(rng.chance(1, 2)),
        6..=15 => {
            let target = rng.next_u64() as usize;
            let len = rng.below(24) as usize;
            Op::Modify(target, rng.bytes(len))
        }
        16..=20 => Op::DeleteNode(rng.next_u64() as usize),
        21..=26 => Op::AddLink(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.below(256) as u8,
        ),
        27..=34 => Op::SetAttr(
            rng.next_u64() as usize,
            rng.below(3) as u8,
            rng.next_u64() as i64,
        ),
        35..=42 => {
            let count = 1 + rng.below(3) as usize;
            let writes = (0..count)
                .map(|_| {
                    (
                        rng.next_u64() as usize,
                        rng.below(3) as u8,
                        rng.next_u64() as i64,
                    )
                })
                .collect();
            Op::Txn(writes, rng.chance(5, 8))
        }
        43 => Op::Checkpoint,
        44..=45 => Op::Fork,
        _ => Op::Merge(rng.next_u64() as usize),
    }
}

fn gen_ops(seed: u64, count: usize) -> Vec<Op> {
    let mut rng = XorShift::new(seed);
    (0..count).map(|_| gen_op(&mut rng)).collect()
}

fn live_nodes(ham: &Ham) -> Vec<NodeIndex> {
    ham.graph(MAIN_CONTEXT)
        .unwrap()
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| n.id)
        .collect()
}

/// Run a step's operations inside one explicit transaction, so the step
/// commits (and becomes durable) atomically: outside a transaction, every
/// HAM call is its own auto-commit, and a fault landing between two of
/// them would leave a state *between* two step fingerprints.
fn step_txn(
    ham: &mut Ham,
    body: impl FnOnce(&mut Ham) -> neptune_ham::Result<()>,
) -> neptune_ham::Result<()> {
    ham.begin_transaction()?;
    match body(ham) {
        Ok(()) => ham.commit_transaction(),
        Err(e) => {
            // Aborting is pure in-memory rollback; keep the original error.
            let _ = ham.abort_transaction();
            Err(e)
        }
    }
}

/// Apply one workload step. Steps are total in a fault-free run (the oracle
/// unwraps nothing and never fails); under fault injection any error
/// propagates so the driver can stop at the failure point.
fn apply(ham: &mut Ham, op: &Op) -> neptune_ham::Result<()> {
    let nodes = live_nodes(ham);
    match op {
        Op::AddNode(keep) => {
            step_txn(ham, |ham| ham.add_node(MAIN_CONTEXT, *keep).map(|_| ()))?;
        }
        Op::Modify(i, contents) => {
            if nodes.is_empty() {
                return Ok(());
            }
            let node = nodes[i % nodes.len()];
            step_txn(ham, |ham| {
                let opened = ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])?;
                // Attachments must stay inside the (possibly shorter) new
                // contents; all workload links track the current version,
                // so moving them is allowed.
                let pts: Vec<LinkPt> = opened
                    .link_pts
                    .iter()
                    .map(|pt| {
                        let mut pt = *pt;
                        pt.position = pt.position.min(contents.len() as u64);
                        pt
                    })
                    .collect();
                ham.modify_node(
                    MAIN_CONTEXT,
                    node,
                    opened.current_time,
                    contents.clone(),
                    &pts,
                )?;
                Ok(())
            })?;
        }
        Op::DeleteNode(i) => {
            if !nodes.is_empty() {
                let node = nodes[i % nodes.len()];
                step_txn(ham, |ham| ham.delete_node(MAIN_CONTEXT, node))?;
            }
        }
        Op::AddLink(a, b, offset) => {
            if !nodes.is_empty() {
                let from = nodes[a % nodes.len()];
                let to = nodes[b % nodes.len()];
                step_txn(ham, |ham| {
                    let len = ham
                        .open_node(MAIN_CONTEXT, from, Time::CURRENT, &[])?
                        .contents
                        .len() as u64;
                    ham.add_link(
                        MAIN_CONTEXT,
                        LinkPt::current(from, (*offset as u64).min(len)),
                        LinkPt::current(to, 0),
                    )
                    .map(|_| ())
                })?;
            }
        }
        Op::SetAttr(i, a, v) => {
            if !nodes.is_empty() {
                let node = nodes[i % nodes.len()];
                step_txn(ham, |ham| {
                    let attr = ham.get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])?;
                    ham.set_node_attribute_value(MAIN_CONTEXT, node, attr, Value::Int(*v))?;
                    Ok(())
                })?;
            }
        }
        Op::Txn(writes, commit) => {
            ham.begin_transaction()?;
            let mut body = || -> neptune_ham::Result<()> {
                for (i, a, v) in writes {
                    let nodes = live_nodes(ham);
                    if nodes.is_empty() {
                        continue;
                    }
                    let attr = ham.get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])?;
                    ham.set_node_attribute_value(
                        MAIN_CONTEXT,
                        nodes[i % nodes.len()],
                        attr,
                        Value::Int(*v),
                    )?;
                }
                Ok(())
            };
            match body() {
                Ok(()) if *commit => ham.commit_transaction()?,
                Ok(()) => ham.abort_transaction()?,
                Err(e) => {
                    let _ = ham.abort_transaction();
                    return Err(e);
                }
            }
        }
        Op::Checkpoint => ham.checkpoint()?,
        Op::Fork => {
            step_txn(ham, |ham| {
                let ctx = ham.create_context(MAIN_CONTEXT)?;
                ham.add_node(ctx, true)?;
                Ok(())
            })?;
        }
        Op::Merge(i) => {
            let children: Vec<_> = ham
                .contexts()
                .into_iter()
                .filter(|c| *c != MAIN_CONTEXT)
                .collect();
            if !children.is_empty() {
                let child = children[i % children.len()];
                step_txn(ham, |ham| {
                    ham.merge_context(child, ConflictPolicy::PreferChild)
                        .map(|_| ())
                })?;
            }
        }
    }
    Ok(())
}

/// Full observable fingerprint of a Ham: every context, every node, link,
/// attribute, and demon at every historical time.
fn fingerprint(ham: &Ham) -> String {
    let mut out = String::new();
    for ctx in ham.contexts() {
        let graph = ham.graph(ctx).unwrap();
        out.push_str(&format!("context {} clock {}\n", ctx.0, graph.now().0));
        for t in 1..=graph.now().0 {
            let time = Time(t);
            for n in graph.nodes() {
                if !n.exists_at(time) {
                    continue;
                }
                out.push_str(&format!("t{t} node {} ", n.id.0));
                if n.is_archive() {
                    if let Ok(c) = n.contents_at(time) {
                        out.push_str(&format!("{c:?} "));
                    }
                }
                for (attr, value) in n.attrs.all_at(time) {
                    out.push_str(&format!("{}={} ", attr.0, value));
                }
                out.push('\n');
            }
            for l in graph.links() {
                if l.exists_at(time) {
                    out.push_str(&format!(
                        "t{t} link {} {}->{}\n",
                        l.id.0, l.from.node.0, l.to.node.0
                    ));
                }
            }
        }
    }
    out
}

/// One fault-free run of the workload, recording the fingerprint after
/// store creation and after each step. `oracle()[k]` is the expected state
/// of a store that completed exactly `k` steps.
fn oracle() -> &'static (Vec<Op>, Vec<String>) {
    static ORACLE: OnceLock<(Vec<Op>, Vec<String>)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let ops = gen_ops(seed(), op_count());
        let dir = tmpdir("oracle");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let mut fps = Vec::with_capacity(ops.len() + 1);
        fps.push(fingerprint(&ham));
        for (i, op) in ops.iter().enumerate() {
            apply(&mut ham, op)
                .unwrap_or_else(|e| panic!("oracle step {i} failed (seed {:#x}): {e}", seed()));
            fps.push(fingerprint(&ham));
        }
        drop(ham);
        // The workload itself must be clean, or every sweep cell inherits
        // the same findings and the harness tests nothing.
        assert_clean(&dir, "oracle final state");
        let _ = std::fs::remove_dir_all(&dir);
        (ops, fps)
    })
}

fn assert_clean(dir: &Path, what: &str) {
    let findings = verify_store(dir);
    assert!(
        findings.is_empty(),
        "{what} (seed {:#x}): verify_store found {:?}",
        seed(),
        findings
    );
}

// ===========================================================================
// The matrix sweep
// ===========================================================================

/// Run the whole workload with `kind` armed at matching-op index `at`.
/// Returns `None` once `at` is past every fault point (the run completed
/// without injecting anything).
fn fault_run(kind: FaultKind, at: u64) -> Option<()> {
    let _trace = obs_cell(kind, at);
    let (ops, fps) = oracle();
    let s = seed();
    let dir = tmpdir(&format!("run-{kind}-{at}"));
    let vfs = FaultVfs::new();
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT).unwrap();
    vfs.arm(kind, at);

    let mut completed = 0;
    let mut failed = false;
    for op in ops {
        match apply(&mut ham, op) {
            Ok(()) => completed += 1,
            Err(e) => {
                assert!(
                    vfs.injected() > 0,
                    "{kind} at {at} (seed {s:#x}): step {completed} failed \
                     without a fault being injected: {e}"
                );
                failed = true;
                break;
            }
        }
    }
    drop(ham);
    if vfs.injected() == 0 {
        // `at` outlasted every matching op in the workload: sweep is done.
        let _ = std::fs::remove_dir_all(&dir);
        assert!(!failed);
        return None;
    }

    // Crash image A: every issued write reached disk. Recovery may include
    // the in-flight operation iff its commit record got out, so the state
    // is one of the two adjacent prefixes.
    let (wham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
        panic!("{kind} at {at} (seed {s:#x}): working tree failed to reopen: {e}")
    });
    let wfp = fingerprint(&wham);
    drop(wham);
    let hi = (completed + 1).min(fps.len() - 1);
    if wfp != fps[completed] && wfp != fps[hi] {
        eprintln!("=== failing step: {:?}", ops[completed]);
        for (a, b) in wfp.lines().zip(fps[completed].lines()) {
            if a != b {
                eprintln!("  working: {a}\n  expect : {b}");
            }
        }
        panic!(
            "{kind} at {at} (seed {s:#x}): working-tree recovery is not a \
             prefix of the workload ({completed} steps completed)"
        );
    }

    // Crash image B: nothing unsynced survived. Commits sync before they
    // report success, so recovery must be exactly the completed prefix.
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    let (dham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
        panic!("{kind} at {at} (seed {s:#x}): durable image failed to reopen: {e}")
    });
    // verify_open_ham instead of verify_store: one open serves both the
    // integrity scan and the fingerprint. (The durable image never holds a
    // torn WAL tail — only synced bytes — so scanning after recovery does
    // not mask tail truncation.)
    let findings = neptune_check::verify_open_ham(&dham);
    assert!(
        findings.is_empty(),
        "{kind} at {at} durable image (seed {s:#x}): verify found {findings:?}"
    );
    let dfp = fingerprint(&dham);
    drop(dham);
    assert_eq!(
        dfp, fps[completed],
        "{kind} at {at} (seed {s:#x}): durable recovery lost or invented \
         committed state ({completed} steps completed)"
    );
    let _ = std::fs::remove_dir_all(&dir);
    Some(())
}

fn sweep(kind: FaultKind) {
    let mut at = 0;
    while fault_run(kind, at).is_some() {
        at += 1;
    }
    assert!(at > 0, "{kind}: workload produced no matching fault points");
}

#[test]
fn recovery_equivalence_fail_write() {
    sweep(FaultKind::FailWrite);
}

#[test]
fn recovery_equivalence_short_write() {
    sweep(FaultKind::ShortWrite);
}

#[test]
fn recovery_equivalence_fail_sync() {
    sweep(FaultKind::FailSync);
}

#[test]
fn recovery_equivalence_torn_rename() {
    sweep(FaultKind::TornRename);
}

#[test]
fn recovery_equivalence_power_cut() {
    sweep(FaultKind::PowerCut);
}

// ===========================================================================
// Checkpoint crash-point matrix
// ===========================================================================

/// Deterministic store with history, links, attributes, a forked context,
/// and committed-but-not-checkpointed transactions — the state every
/// checkpoint fault below must preserve.
fn build_checkpoint_store(dir: &Path, vfs: &FaultVfs) -> Ham {
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), dir, Protections::DEFAULT).unwrap();
    let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (c, _) = ham.add_node(MAIN_CONTEXT, false).unwrap();
    for (i, n) in [a, b].iter().enumerate() {
        let opened = ham.open_node(MAIN_CONTEXT, *n, Time::CURRENT, &[]).unwrap();
        ham.modify_node(
            MAIN_CONTEXT,
            *n,
            opened.current_time,
            format!("contents {i}").into_bytes(),
            &opened.link_pts,
        )
        .unwrap();
    }
    ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 3), LinkPt::current(b, 0))
        .unwrap();
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, a, attr, Value::Int(7))
        .unwrap();
    // Mid-history checkpoint so the store carries an earlier fold, then
    // more committed work on top of it, plus a deleted node and a fork.
    ham.checkpoint().unwrap();
    ham.delete_node(MAIN_CONTEXT, c).unwrap();
    let ctx = ham.create_context(MAIN_CONTEXT).unwrap();
    ham.add_node(ctx, true).unwrap();
    ham.begin_transaction().unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, b, attr, Value::Int(9))
        .unwrap();
    ham.commit_transaction().unwrap();
    ham
}

/// Satellite: fault at every I/O step of the checkpoint pipeline — the
/// snapshot write and rename, each blob-mirror put/chmod/delete, the blob
/// directory fsync, and the WAL truncate/record/sync — and assert the
/// store reopens to the same state with history intact, from both crash
/// images.
#[test]
fn checkpoint_crash_point_matrix() {
    for kind in FaultKind::ALL {
        let mut at = 0;
        loop {
            let _trace = obs_cell(kind, at);
            let dir = tmpdir(&format!("ckpt-{kind}-{at}"));
            let vfs = FaultVfs::new();
            let mut ham = build_checkpoint_store(&dir, &vfs);
            let before = fingerprint(&ham);
            vfs.arm(kind, at);
            let r = ham.checkpoint();
            drop(ham);
            if vfs.injected() == 0 {
                r.unwrap_or_else(|e| panic!("{kind}: clean checkpoint failed: {e}"));
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
            // A checkpoint changes representation, never state: both crash
            // images must reopen to the exact pre-checkpoint fingerprint.
            let (wham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
                panic!(
                    "{kind} at {at}: working tree failed to reopen after faulted checkpoint: {e}"
                )
            });
            assert_eq!(fingerprint(&wham), before, "{kind} at {at}: working tree");
            drop(wham);
            vfs.power_off();
            vfs.materialize_durable(&dir).unwrap();
            assert_clean(&dir, &format!("checkpoint {kind} at {at}"));
            let (dham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
                panic!(
                    "{kind} at {at}: durable image failed to reopen after faulted checkpoint: {e}"
                )
            });
            assert_eq!(fingerprint(&dham), before, "{kind} at {at}: durable image");
            drop(dham);
            let _ = std::fs::remove_dir_all(&dir);
            at += 1;
        }
    }
}

/// Satellite: sweep the anchor-persistence I/O. A node with a deep history
/// persists its skip-delta ladder inside the snapshot payload; fault every
/// I/O step of the checkpoint that rewrites it and assert that a torn
/// anchor write never makes the store unopenable and never changes
/// recovered contents (anchors are derived data — the unit delta chain is
/// the source of truth, and the fingerprint reads every version of every
/// node through the recovered archive).
#[test]
fn anchor_persistence_checkpoint_fault_sweep() {
    fn build_deep_store(dir: &Path, vfs: &FaultVfs) -> (Ham, NodeIndex) {
        let (mut ham, _, _) =
            Ham::create_graph_with(Arc::new(vfs.clone()), dir, Protections::DEFAULT).unwrap();
        let (n, mut t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        // 34 versions: deep enough for two level-0 skip rungs (span 16).
        for i in 0..34 {
            t = ham
                .modify_node(
                    MAIN_CONTEXT,
                    n,
                    t,
                    format!("deep history version {i}\n").into_bytes(),
                    &[],
                )
                .unwrap();
        }
        // First checkpoint persists the ladder; the swept checkpoint below
        // must atomically replace it.
        ham.checkpoint().unwrap();
        for i in 34..38 {
            t = ham
                .modify_node(
                    MAIN_CONTEXT,
                    n,
                    t,
                    format!("deep history version {i}\n").into_bytes(),
                    &[],
                )
                .unwrap();
        }
        (ham, n)
    }

    for kind in FaultKind::ALL {
        let mut at = 0;
        loop {
            let _trace = obs_cell(kind, at);
            let dir = tmpdir(&format!("anchor-{kind}-{at}"));
            let vfs = FaultVfs::new();
            let (mut ham, node) = build_deep_store(&dir, &vfs);
            let before = fingerprint(&ham);
            vfs.arm(kind, at);
            let r = ham.checkpoint();
            drop(ham);
            if vfs.injected() == 0 {
                r.unwrap_or_else(|e| panic!("{kind}: clean checkpoint failed: {e}"));
                // The clean run must actually exercise persisted anchors.
                let (ham, _, _) = Ham::open_existing(&dir).unwrap();
                let skips = ham
                    .graph(MAIN_CONTEXT)
                    .unwrap()
                    .node(node)
                    .unwrap()
                    .archive()
                    .expect("deep node is an archive")
                    .skip_count();
                assert!(skips > 0, "{kind}: snapshot should carry skip rungs");
                drop(ham);
                let _ = std::fs::remove_dir_all(&dir);
                break;
            }
            let (wham, _, _) = Ham::open_existing(&dir).unwrap_or_else(|e| {
                panic!("{kind} at {at}: torn anchor write made the store unopenable: {e}")
            });
            assert_eq!(fingerprint(&wham), before, "{kind} at {at}: working tree");
            drop(wham);
            vfs.power_off();
            vfs.materialize_durable(&dir).unwrap();
            assert_clean(&dir, &format!("anchor sweep {kind} at {at}"));
            let (dham, _, _) = Ham::open_existing(&dir)
                .unwrap_or_else(|e| panic!("{kind} at {at}: durable image failed to reopen: {e}"));
            assert_eq!(fingerprint(&dham), before, "{kind} at {at}: durable image");
            drop(dham);
            let _ = std::fs::remove_dir_all(&dir);
            at += 1;
        }
    }
}

// ===========================================================================
// Ordering-bug regressions
// ===========================================================================

/// Regression: the WAL must not be truncated until every checkpoint side
/// effect has succeeded. Before the reorder, `Ham::checkpoint` truncated
/// the log and *then* mirrored blobs, so a mirror failure left the store
/// with no way to retry from the full log.
#[test]
fn blob_mirror_failure_leaves_wal_untruncated() {
    // Dry run to locate the first blob-mirror write among the write-class
    // operations a checkpoint issues.
    let probe_dir = tmpdir("mirror-probe");
    let probe_vfs = FaultVfs::new();
    let mut probe = build_checkpoint_store(&probe_dir, &probe_vfs);
    probe_vfs.clear_op_log();
    probe.checkpoint().unwrap();
    const WRITE_OPS: [&str; 5] = ["create", "append", "set_len", "remove", "set_permissions"];
    let blob_put_at = probe_vfs
        .op_log()
        .iter()
        .filter(|op| WRITE_OPS.iter().any(|w| op.starts_with(w)))
        .position(|op| op.contains(".blob.tmp"))
        .expect("checkpoint must mirror blobs") as u64;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    let dir = tmpdir("mirror-keeps-wal");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    let wal_len = std::fs::metadata(dir.join(WAL_FILE)).unwrap().len();
    assert!(wal_len > 8, "expected committed records in the WAL");

    vfs.arm(FaultKind::FailWrite, blob_put_at);
    let err = ham.checkpoint().unwrap_err();
    assert!(err.to_string().contains("injected fault"), "{err}");
    let log = vfs.op_log();
    assert!(
        log.last().unwrap().contains(".blob.tmp"),
        "fault was meant to hit the blob mirror, hit {:?}",
        log.last()
    );
    drop(ham);

    assert_eq!(
        std::fs::metadata(dir.join(WAL_FILE)).unwrap().len(),
        wal_len,
        "a failed blob mirror must leave the WAL untruncated"
    );
    // And the failure is recoverable: reopen, retry, verify.
    let (mut ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(fingerprint(&ham), before);
    ham.checkpoint().unwrap();
    drop(ham);
    assert_clean(&dir, "retried checkpoint");
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a failed fsync of the graph directory after the snapshot
/// rename must fail the checkpoint. Before the fix it was swallowed, so
/// the WAL was truncated on the strength of a rename that a power cut
/// could undo — losing every committed transaction since the *previous*
/// checkpoint.
#[test]
fn swallowed_snapshot_dir_fsync_would_lose_commits() {
    let dir = tmpdir("dirsync-loss");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);

    // Sync-class ops in a checkpoint: 0 = snapshot tmp file, 1 = graph
    // directory (the rename's durability point).
    vfs.arm(FaultKind::FailSync, 1);
    let err = ham.checkpoint().unwrap_err();
    assert!(err.to_string().contains("fail_sync"), "{err}");
    assert!(
        vfs.op_log().last().unwrap().starts_with("sync_dir"),
        "fault was meant to hit the directory fsync, hit {:?}",
        vfs.op_log().last()
    );
    drop(ham);

    // Power dies. The snapshot rename was never durable; the full WAL must
    // still be, or the committed transactions above are gone.
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    assert_clean(&dir, "durable image after swallowed-sync crash");
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(
        fingerprint(&ham),
        before,
        "committed transactions lost: the checkpoint truncated the WAL \
         without the snapshot rename being durable"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Regression: a crash *between* the snapshot rename becoming durable and
/// the WAL truncation becoming durable must not replay the folded
/// transactions on top of the snapshot that already contains them. The
/// snapshot's embedded boundary LSN closes this window.
#[test]
fn crash_between_snapshot_and_truncate_does_not_double_apply() {
    // Dry run to locate the WAL truncation inside the checkpoint pipeline.
    let probe_dir = tmpdir("double-apply-probe");
    let probe_vfs = FaultVfs::new();
    let mut probe = build_checkpoint_store(&probe_dir, &probe_vfs);
    probe_vfs.clear_op_log();
    probe.checkpoint().unwrap();
    let set_len_at = probe_vfs
        .op_log()
        .iter()
        .position(|op| op.starts_with("set_len"))
        .expect("checkpoint must truncate the WAL") as u64;
    drop(probe);
    let _ = std::fs::remove_dir_all(&probe_dir);

    // Real run: power dies at exactly that operation. Every side effect —
    // including the snapshot rename and its directory fsync — is already
    // durable; the old WAL content still is too.
    let dir = tmpdir("double-apply");
    let vfs = FaultVfs::new();
    let mut ham = build_checkpoint_store(&dir, &vfs);
    let before = fingerprint(&ham);
    vfs.arm(FaultKind::PowerCut, set_len_at);
    ham.checkpoint().unwrap_err();
    assert!(vfs.is_powered_off());
    assert!(
        vfs.op_log().last().unwrap().starts_with("set_len"),
        "power cut was meant to hit the WAL truncation, hit {:?}",
        vfs.op_log().last()
    );
    drop(ham);

    vfs.materialize_durable(&dir).unwrap();
    assert_clean(&dir, "durable image in the snapshot/truncate window");
    let (ham, _, _) = Ham::open_existing(&dir).unwrap();
    assert_eq!(
        fingerprint(&ham),
        before,
        "WAL records already folded into the snapshot were applied again"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ===========================================================================
// Sharded recovery sweep
// ===========================================================================
//
// The single-machine matrix above proves exact prefix recovery. Sharding
// relaxes that in exactly one documented way (DESIGN.md §12): a cross-shard
// merge is two per-shard commits under one logical sequence number, and a
// crash between them may persist the parent half alone. So the sharded
// sweep asserts *per-context* prefix equivalence — every context recovers
// to its state at the completed prefix or at the next step — plus a clean
// `verify_sharded` report over the merged cross-shard topology.

/// Each sharded op is one logical commit (cross-shard merges: two commits
/// under one sequence), so per-context states line up with step indices.
/// The child-side edits give later merges every shape of footprint a
/// cross-shard merge journals (`context::merge_footprint`): new links to
/// untouched pre-fork nodes, deleted pre-fork nodes and links, and
/// attribute sets and deletes on pre-fork nodes.
#[derive(Debug, Clone)]
enum SOp {
    Fork(usize),
    AddNode(usize),
    ModifyNode(usize, Vec<u8>),
    /// Add a node and link it to a pre-fork one, in one transaction (in
    /// MAIN, to any node: that seeds pre-fork links for later forks).
    Link(usize),
    DeletePreforkNode(usize),
    DeletePreforkLink(usize),
    /// Set (`Some`) or delete (`None`) the `status` attribute of a node,
    /// pre-fork when there is one (in MAIN, any node).
    Attr(usize, Option<i64>),
    Merge(usize),
    Checkpoint,
}

fn gen_sharded_ops(seed: u64, count: usize) -> Vec<SOp> {
    let mut rng = XorShift::new(seed);
    // A scripted start: MAIN gets linked nodes and an attribute, then one
    // cross-shard private world makes every kind of change a merge
    // journals — a new node linked to an untouched pre-fork node, a
    // pre-fork node and a pre-fork link deleted, a pre-fork attribute
    // deleted and another set — and merges back. Random steps follow.
    let script = [
        SOp::AddNode(0),
        SOp::AddNode(0),
        SOp::Link(0),
        SOp::Link(1),
        SOp::Attr(0, Some(1)),
        SOp::Fork(0),
        SOp::Link(3),
        SOp::DeletePreforkNode(2),
        SOp::DeletePreforkLink(0),
        SOp::Attr(0, None),
        SOp::Attr(1, Some(5)),
        SOp::Merge(0),
    ];
    let random = (script.len()..count).map(|_| match rng.below(24) {
        0..=2 => SOp::Fork(rng.next_u64() as usize),
        3..=5 => SOp::Merge(rng.next_u64() as usize),
        6 => SOp::Checkpoint,
        7..=10 => SOp::AddNode(rng.next_u64() as usize),
        11..=13 => {
            let len = rng.below(16) as usize;
            SOp::ModifyNode(rng.next_u64() as usize, rng.bytes(len))
        }
        14..=16 => SOp::Link(rng.next_u64() as usize),
        17..=18 => SOp::DeletePreforkNode(rng.next_u64() as usize),
        19..=20 => SOp::DeletePreforkLink(rng.next_u64() as usize),
        21..=22 => SOp::Attr(rng.next_u64() as usize, Some(rng.below(100) as i64)),
        _ => SOp::Attr(rng.next_u64() as usize, None),
    });
    script.into_iter().chain(random).take(count).collect()
}

/// `ctx`'s live nodes, split into (created after its fork, pre-fork). MAIN
/// has no fork; all its nodes count as pre-fork.
fn split_nodes(
    ham: &Ham,
    ctx: neptune_ham::ContextId,
) -> neptune_ham::Result<(Vec<NodeIndex>, Vec<NodeIndex>)> {
    let fork = ham.context_forked_from(ctx)?.map(|(_, t)| t);
    let (new, old) = ham
        .graph(ctx)?
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .partition(|n| fork.is_some_and(|f| n.created > f));
    let ids = |v: Vec<&neptune_ham::node::Node>| v.iter().map(|n| n.id).collect();
    Ok((ids(new), ids(old)))
}

/// The contexts a sharded workload has forked so far. A child's first
/// merge carries everything it changed since its fork, so merges prefer
/// children that have not been merged yet.
struct Worlds {
    ctxs: Vec<neptune_ham::ContextId>,
    unmerged: Vec<neptune_ham::ContextId>,
}

impl Worlds {
    fn new() -> Worlds {
        Worlds {
            ctxs: vec![MAIN_CONTEXT],
            unmerged: Vec::new(),
        }
    }

    /// Any context.
    fn any(&self, i: usize) -> neptune_ham::ContextId {
        self.ctxs[i % self.ctxs.len()]
    }

    /// Where a child-side edit goes: a child awaiting its first merge, so
    /// the merge carries the edit; else any context.
    fn pending(&self, i: usize) -> neptune_ham::ContextId {
        match self.unmerged.len() {
            0 => self.any(i),
            n => self.unmerged[i % n],
        }
    }
}

/// Run `step` as one explicit transaction, so a step of several HAM ops
/// is still one commit.
fn one_commit(
    sharded: &ShardedHam,
    step: impl FnOnce() -> neptune_ham::Result<()>,
) -> neptune_ham::Result<()> {
    sharded.begin_transaction()?;
    match step() {
        Ok(()) => sharded.commit_transaction(),
        Err(e) => {
            let _ = sharded.abort_transaction();
            Err(e)
        }
    }
}

fn apply_sharded(sharded: &ShardedHam, worlds: &mut Worlds, op: &SOp) -> neptune_ham::Result<()> {
    match op {
        SOp::Fork(i) => {
            let child = sharded.create_context(worlds.any(*i))?;
            worlds.ctxs.push(child);
            worlds.unmerged.push(child);
        }
        SOp::AddNode(i) => {
            let ctx = worlds.any(*i);
            let mut guard = sharded.lock_home(ctx)?;
            guard.add_node(ctx, true)?;
        }
        SOp::ModifyNode(i, contents) => {
            let ctx = worlds.any(*i);
            let mut guard = sharded.lock_home(ctx)?;
            let nodes: Vec<NodeIndex> = guard
                .graph(ctx)?
                .nodes()
                .filter(|n| n.exists_at(Time::CURRENT))
                .map(|n| n.id)
                .collect();
            if nodes.is_empty() {
                return Ok(());
            }
            let node = nodes[i % nodes.len()];
            let opened = guard.open_node(ctx, node, Time::CURRENT, &[])?;
            // Attachments stay where they are (every workload link sits at
            // offset 0, inside any contents).
            guard.modify_node(
                ctx,
                node,
                opened.current_time,
                contents.clone(),
                &opened.link_pts,
            )?;
        }
        SOp::Link(i) => {
            let ctx = worlds.pending(*i);
            one_commit(sharded, || {
                let mut guard = sharded.lock_home(ctx)?;
                let (_, old) = split_nodes(&guard, ctx)?;
                if old.is_empty() {
                    return Ok(());
                }
                let (from, _) = guard.add_node(ctx, true)?;
                let to = old[i % old.len()];
                guard.add_link(ctx, LinkPt::current(from, 0), LinkPt::current(to, 0))?;
                Ok(())
            })?;
        }
        SOp::DeletePreforkNode(i) => {
            let ctx = worlds.pending(*i);
            let mut guard = sharded.lock_home(ctx)?;
            let (_, old) = split_nodes(&guard, ctx)?;
            if ctx == MAIN_CONTEXT || old.is_empty() {
                return Ok(());
            }
            guard.delete_node(ctx, old[i % old.len()])?;
        }
        SOp::DeletePreforkLink(i) => {
            let ctx = worlds.pending(*i);
            let mut guard = sharded.lock_home(ctx)?;
            let Some((_, fork)) = guard.context_forked_from(ctx)? else {
                return Ok(());
            };
            let old: Vec<_> = guard
                .graph(ctx)?
                .links()
                .filter(|l| l.exists_at(Time::CURRENT) && l.created <= fork)
                .map(|l| l.id)
                .collect();
            if old.is_empty() {
                return Ok(());
            }
            guard.delete_link(ctx, old[i % old.len()])?;
        }
        SOp::Attr(i, value) => {
            let ctx = worlds.pending(*i);
            // Interning the name and writing the value are two HAM ops.
            one_commit(sharded, || {
                let mut guard = sharded.lock_home(ctx)?;
                let (new, old) = split_nodes(&guard, ctx)?;
                let pool = if old.is_empty() { new } else { old };
                if pool.is_empty() {
                    return Ok(());
                }
                let node = pool[i % pool.len()];
                let status = guard.get_attribute_index(ctx, "status")?;
                match value {
                    Some(v) => guard.set_node_attribute_value(ctx, node, status, Value::Int(*v)),
                    None if guard
                        .get_node_attribute_value(ctx, node, status, Time::CURRENT)
                        .is_ok() =>
                    {
                        guard.delete_node_attribute(ctx, node, status)
                    }
                    None => Ok(()),
                }
            })?;
        }
        SOp::Merge(i) => {
            let child = if worlds.unmerged.is_empty() {
                match &worlds.ctxs[1..] {
                    [] => return Ok(()),
                    children => children[i % children.len()],
                }
            } else {
                worlds.unmerged.remove(i % worlds.unmerged.len())
            };
            sharded
                .merge_context(child, ConflictPolicy::PreferChild)
                .map(|_| ())?;
        }
        SOp::Checkpoint => sharded.checkpoint()?,
    }
    Ok(())
}

/// Per-context observable fingerprint of a sharded store's live machines.
fn sharded_fps(sharded: &ShardedHam) -> BTreeMap<u64, String> {
    let mut out = BTreeMap::new();
    for ctx in sharded.live_contexts() {
        let guard = sharded.lock_shard(sharded.shard_of(ctx));
        let graph = guard.graph(ctx).unwrap();
        let mut s = format!("clock {}\n", graph.now().0);
        for t in 1..=graph.now().0 {
            let time = Time(t);
            for n in graph.nodes() {
                if !n.exists_at(time) {
                    continue;
                }
                s.push_str(&format!("t{t} node {} ", n.id.0));
                for (attr, value) in n.attrs.all_at(time) {
                    s.push_str(&format!("{}={} ", attr.0, value));
                }
                s.push('\n');
            }
            for l in graph.links() {
                if l.exists_at(time) {
                    s.push_str(&format!(
                        "t{t} link {} {}->{}\n",
                        l.id.0, l.from.node.0, l.to.node.0
                    ));
                }
            }
        }
        out.insert(ctx.0, s);
    }
    out
}

const SHARD_SWEEP_SHARDS: usize = 3;
const SHARD_SWEEP_OPS: usize = 60;

/// Per-step fingerprints of every context, keyed by context id.
type ShardedFps = Vec<BTreeMap<u64, String>>;

fn sharded_oracle() -> &'static (Vec<SOp>, ShardedFps) {
    static ORACLE: OnceLock<(Vec<SOp>, ShardedFps)> = OnceLock::new();
    ORACLE.get_or_init(|| {
        let ops = gen_sharded_ops(seed() ^ 0x5AD, SHARD_SWEEP_OPS);
        let dir = tmpdir("sharded-oracle");
        let (sharded, _, _) =
            ShardedHam::create(&dir, Protections::DEFAULT, SHARD_SWEEP_SHARDS).unwrap();
        let mut worlds = Worlds::new();
        let mut fps = vec![sharded_fps(&sharded)];
        for (i, op) in ops.iter().enumerate() {
            apply_sharded(&sharded, &mut worlds, op).unwrap_or_else(|e| {
                panic!("sharded oracle step {i} failed (seed {:#x}): {e}", seed())
            });
            fps.push(sharded_fps(&sharded));
        }
        drop(sharded);
        assert_clean(&dir, "sharded oracle final state");
        let _ = std::fs::remove_dir_all(&dir);
        (ops, fps)
    })
}

/// Every recovered context must match its oracle state at the completed
/// prefix (`lo`) or one step later (`hi`), and no committed context may
/// vanish.
fn assert_per_context_prefix(
    recovered: &BTreeMap<u64, String>,
    lo: &BTreeMap<u64, String>,
    hi: &BTreeMap<u64, String>,
    what: &str,
) {
    for (ctx, fp) in recovered {
        let ok = lo.get(ctx) == Some(fp) || hi.get(ctx) == Some(fp);
        assert!(
            ok,
            "{what} (seed {:#x}): context {ctx} recovered to a state that is \
             neither the completed prefix nor the next step:\n{fp}",
            seed()
        );
    }
    for ctx in lo.keys() {
        assert!(
            recovered.contains_key(ctx),
            "{what} (seed {:#x}): committed context {ctx} vanished on recovery",
            seed()
        );
    }
}

fn sharded_fault_run(kind: FaultKind, at: u64) -> Option<()> {
    let _trace = obs_cell(kind, at);
    let (ops, fps) = sharded_oracle();
    let s = seed();
    let dir = tmpdir(&format!("sharded-{kind}-{at}"));
    let vfs = FaultVfs::new();
    let (sharded, _, _) = ShardedHam::create_with(
        Arc::new(vfs.clone()),
        &dir,
        Protections::DEFAULT,
        SHARD_SWEEP_SHARDS,
    )
    .unwrap();
    vfs.arm(kind, at);

    let mut worlds = Worlds::new();
    let mut completed = 0;
    for op in ops {
        match apply_sharded(&sharded, &mut worlds, op) {
            Ok(()) => completed += 1,
            Err(e) => {
                assert!(
                    vfs.injected() > 0,
                    "sharded {kind} at {at} (seed {s:#x}): step {completed} \
                     failed without a fault being injected: {e}"
                );
                break;
            }
        }
    }
    drop(sharded);
    if vfs.injected() == 0 {
        let _ = std::fs::remove_dir_all(&dir);
        return None;
    }

    let lo = &fps[completed];
    let hi = &fps[(completed + 1).min(fps.len() - 1)];

    // Crash image A: every issued write reached disk.
    {
        let (recovered, _, _) = ShardedHam::open(&dir).unwrap_or_else(|e| {
            panic!("sharded {kind} at {at} (seed {s:#x}): working tree failed to reopen: {e}")
        });
        assert_per_context_prefix(
            &sharded_fps(&recovered),
            lo,
            hi,
            &format!("sharded {kind} at {at} working tree"),
        );
    }

    // Crash image B: nothing unsynced survived.
    vfs.power_off();
    vfs.materialize_durable(&dir).unwrap();
    let (recovered, _, _) = ShardedHam::open(&dir).unwrap_or_else(|e| {
        panic!("sharded {kind} at {at} (seed {s:#x}): durable image failed to reopen: {e}")
    });
    let findings = neptune_check::verify_sharded(&recovered);
    assert!(
        findings.is_empty(),
        "sharded {kind} at {at} durable image (seed {s:#x}): verify found {findings:?}"
    );
    assert_per_context_prefix(
        &sharded_fps(&recovered),
        lo,
        hi,
        &format!("sharded {kind} at {at} durable image"),
    );
    drop(recovered);
    let _ = std::fs::remove_dir_all(&dir);
    Some(())
}

fn sharded_sweep(kind: FaultKind) {
    let mut at = 0;
    while sharded_fault_run(kind, at).is_some() {
        at += 1;
    }
    assert!(
        at > 0,
        "sharded {kind}: workload produced no matching fault points"
    );
}

#[test]
fn sharded_recovery_power_cut() {
    sharded_sweep(FaultKind::PowerCut);
}

#[test]
fn sharded_recovery_short_write() {
    sharded_sweep(FaultKind::ShortWrite);
}

#[test]
fn sharded_recovery_fail_sync() {
    sharded_sweep(FaultKind::FailSync);
}
