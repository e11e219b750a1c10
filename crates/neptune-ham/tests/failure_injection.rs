//! Failure injection: corrupted or missing durable state must surface as
//! errors (never panics, never silent corruption), and recovery must cope
//! with everything short of losing the snapshot itself.

use std::fs::{self, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::PathBuf;
use std::sync::Arc;

use neptune_ham::types::{Machine, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, HamError, Value};
use neptune_storage::testutil::TempDir;
use neptune_storage::{FaultKind, FaultVfs, StorageError};

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("neptune-fail-{name}"))
}

fn flip_byte(path: &PathBuf, from_end: u64) {
    let mut f = OpenOptions::new()
        .read(true)
        .write(true)
        .open(path)
        .unwrap();
    let len = f.metadata().unwrap().len();
    let pos = len.saturating_sub(from_end + 1);
    f.seek(SeekFrom::Start(pos)).unwrap();
    let mut b = [0u8; 1];
    f.read_exact(&mut b).unwrap();
    f.seek(SeekFrom::Start(pos)).unwrap();
    f.write_all(&[b[0] ^ 0xFF]).unwrap();
}

#[test]
fn corrupt_snapshot_is_detected_on_open() {
    let dir = tmpdir("snap");
    let (mut ham, pid, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.checkpoint().unwrap();
    drop(ham);
    flip_byte(&dir.path().join("graph.snap"), 0);
    let err = Ham::open_graph(pid, &Machine::local(), &dir);
    assert!(err.is_err(), "corrupt snapshot must not open");
}

#[test]
fn corrupt_meta_is_detected() {
    let dir = tmpdir("meta");
    let (ham, pid, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    drop(ham);
    flip_byte(&dir.path().join("graph.meta"), 0);
    assert!(Ham::open_graph(pid, &Machine::local(), &dir).is_err());
}

#[test]
fn torn_wal_tail_recovers_committed_prefix() {
    let dir = tmpdir("torn-wal");
    let pid;
    let node;
    {
        let (mut ham, p, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        pid = p;
        let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        node = n;
        ham.modify_node(MAIN_CONTEXT, n, t, b"survives\n".to_vec(), &[])
            .unwrap();
    }
    // Simulate a torn write at the end of the log.
    {
        let mut f = OpenOptions::new()
            .append(true)
            .open(dir.path().join("wal.log"))
            .unwrap();
        f.write_all(&[0xAB, 0xCD]).unwrap();
    }
    let (mut ham, ctx) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
    assert_eq!(
        ham.open_node(ctx, node, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"survives\n"[..]
    );
    // The machine keeps working after recovery.
    ham.add_node(ctx, true).unwrap();
    ham.checkpoint().unwrap();
}

#[test]
fn corrupted_wal_record_truncates_replay_to_prefix() {
    let dir = tmpdir("corrupt-wal");
    let pid;
    let first;
    {
        let (mut ham, p, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        pid = p;
        let (a, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        first = a;
        ham.modify_node(MAIN_CONTEXT, a, t, b"first txn\n".to_vec(), &[])
            .unwrap();
        let (b, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(MAIN_CONTEXT, b, t, b"second txn\n".to_vec(), &[])
            .unwrap();
    }
    // Corrupt a byte near the end: the last transaction's records die, the
    // earlier prefix must still replay.
    flip_byte(&dir.path().join("wal.log"), 4);
    let (mut ham, ctx) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
    assert_eq!(
        ham.open_node(ctx, first, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"first txn\n"[..]
    );
}

#[test]
fn missing_graph_directory_is_an_error() {
    let dir = tmpdir("missing");
    assert!(Ham::open_existing(&dir).is_err());
    assert!(Ham::destroy_graph(neptune_ham::ProjectId(1), &dir).is_err());
}

#[test]
fn double_begin_and_stray_commit_are_errors() {
    let dir = tmpdir("txn-state");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    assert!(ham.commit_transaction().is_err());
    assert!(ham.abort_transaction().is_err());
    ham.begin_transaction().unwrap();
    assert!(ham.begin_transaction().is_err());
    assert!(
        ham.checkpoint().is_err(),
        "no checkpoint inside a transaction"
    );
    ham.abort_transaction().unwrap();
    ham.checkpoint().unwrap();
}

#[test]
fn failing_op_inside_explicit_txn_leaves_txn_usable() {
    let dir = tmpdir("failing-op");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"base\n".to_vec(), &[])
        .unwrap();

    ham.begin_transaction().unwrap();
    let t = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"inside txn\n".to_vec(), &[])
        .unwrap();
    // A failing operation (stale time) does not poison the transaction...
    assert!(ham
        .modify_node(MAIN_CONTEXT, node, Time(1), b"stale\n".to_vec(), &[])
        .is_err());
    // ...and the earlier work still commits.
    ham.commit_transaction().unwrap();
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"inside txn\n"[..]
    );
}

#[test]
fn deleted_objects_reject_all_mutation() {
    let dir = tmpdir("deleted");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (l, _) = ham
        .add_link(
            MAIN_CONTEXT,
            neptune_ham::LinkPt::current(a, 0),
            neptune_ham::LinkPt::current(b, 0),
        )
        .unwrap();
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "x").unwrap();
    ham.delete_node(MAIN_CONTEXT, a).unwrap();
    // The node and its cascaded link are dead.
    assert!(ham
        .modify_node(MAIN_CONTEXT, a, Time::CURRENT, b"zombie".to_vec(), &[])
        .is_err());
    assert!(ham
        .set_node_attribute_value(MAIN_CONTEXT, a, attr, Value::Int(1))
        .is_err());
    assert!(ham
        .set_link_attribute_value(MAIN_CONTEXT, l, attr, Value::Int(1))
        .is_err());
    assert!(ham.delete_link(MAIN_CONTEXT, l).is_err());
    assert!(ham
        .set_node_demon(MAIN_CONTEXT, a, neptune_ham::Event::NodeOpened, None)
        .is_err());
    // But history stays readable.
    assert!(ham.get_node_versions(MAIN_CONTEXT, a).is_ok());
}

#[test]
fn wal_grows_then_checkpoint_shrinks_it() {
    let dir = tmpdir("wal-size");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "v").unwrap();
    for i in 0..50 {
        ham.set_node_attribute_value(MAIN_CONTEXT, node, attr, Value::Int(i))
            .unwrap();
    }
    let before = fs::metadata(dir.path().join("wal.log")).unwrap().len();
    ham.checkpoint().unwrap();
    let after = fs::metadata(dir.path().join("wal.log")).unwrap().len();
    assert!(
        after < before / 2,
        "checkpoint truncates the log ({before} -> {after})"
    );
    // And node blobs were mirrored with contents.
    assert!(dir.path().join("nodes").exists());
}

#[test]
fn failed_commit_sync_rolls_back_and_poisons_the_wal() {
    let dir = tmpdir("commit-sync");
    let vfs = FaultVfs::new();
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT).unwrap();
    let (node, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"durable\n".to_vec(), &[])
        .unwrap();

    // The next fsync is the commit's group sync: the transaction's records
    // reach the WAL file but their durability is unknown.
    ham.begin_transaction().unwrap();
    let t = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"lost\n".to_vec(), &[])
        .unwrap();
    vfs.arm(FaultKind::FailSync, 0);
    assert!(ham.commit_transaction().is_err());
    assert_eq!(vfs.injected(), 1, "fault must have hit the commit sync");
    vfs.disarm();

    // The failed commit rolled back: readers see the last durable state,
    // not changes a crash would lose.
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"durable\n"[..]
    );
    // The WAL is fail-stop after an unknown-durability sync: every further
    // mutation refuses until the log is reopened.
    assert!(matches!(
        ham.add_node(MAIN_CONTEXT, true),
        Err(HamError::Storage(StorageError::LogPoisoned))
    ));
    assert!(matches!(
        ham.checkpoint(),
        Err(HamError::Storage(StorageError::LogPoisoned))
    ));
    drop(ham);

    // Reopen clears the poisoning and recovers exactly the committed state.
    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs.clone()), &dir).unwrap();
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"durable\n"[..]
    );
    ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.checkpoint().unwrap();
}

#[test]
fn failed_checkpoint_side_effect_is_recoverable() {
    // A fault during the snapshot/blob-mirror phase surfaces as an error,
    // but the WAL is untouched: the store keeps accepting commits and a
    // retried checkpoint succeeds.
    let dir = tmpdir("ckpt-retry");
    let vfs = FaultVfs::new();
    let (mut ham, _, _) =
        Ham::create_graph_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT).unwrap();
    let (node, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"kept\n".to_vec(), &[])
        .unwrap();

    // The first create during checkpoint is the snapshot temp file.
    vfs.arm(FaultKind::FailWrite, 0);
    assert!(ham.checkpoint().is_err());
    assert_eq!(vfs.injected(), 1);
    vfs.disarm();

    let t = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"kept v2\n".to_vec(), &[])
        .unwrap();
    ham.checkpoint().unwrap();
    drop(ham);

    let (mut ham, _, _) = Ham::open_existing_with(Arc::new(vfs), &dir).unwrap();
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"kept v2\n"[..]
    );
}

#[test]
fn read_only_node_blob_still_checkpoints() {
    // changeNodeProtection to read-only must not wedge later checkpoints
    // (the blob store rewrites via a fresh temp file).
    let dir = tmpdir("ro-blob");
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"v1\n".to_vec(), &[])
        .unwrap();
    ham.change_node_protection(MAIN_CONTEXT, node, Protections::READ_ONLY)
        .unwrap();
    ham.checkpoint().unwrap();
    let t = ham.get_node_time_stamp(MAIN_CONTEXT, node).unwrap();
    ham.modify_node(MAIN_CONTEXT, node, t, b"v2\n".to_vec(), &[])
        .unwrap();
    ham.checkpoint().unwrap();
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"v2\n"[..]
    );
}
