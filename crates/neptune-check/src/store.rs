//! Store verification: on-disk file scanning plus in-memory rule checks.

use std::path::Path;

use neptune_ham::ham::{Ham, SNAPSHOT_FILE, WAL_FILE};
use neptune_ham::invariants;
use neptune_ham::ShardedHam;
use neptune_storage::checksum::crc32;
use neptune_storage::snapshot::SNAPSHOT_MAGIC;
use neptune_storage::wal::WAL_MAGIC;

use crate::{Finding, Severity, RULE_SNAPSHOT_CHECKSUM, RULE_STORE_UNOPENABLE, RULE_WAL_CHECKSUM};

/// Read-only scan of a graph directory's files: snapshot header and CRC,
/// WAL frame CRCs.
///
/// This runs *without* opening the store, so it can report damage that
/// recovery would otherwise silently repair (a torn WAL tail is truncated
/// away the moment the store opens) or that would prevent opening entirely
/// (a snapshot CRC mismatch).
pub fn scan_files(directory: impl AsRef<Path>) -> Vec<Finding> {
    let directory = directory.as_ref();
    let mut findings = Vec::new();
    scan_snapshot(directory, &mut findings);
    scan_wal(directory, &mut findings);
    findings
}

/// Verify the snapshot file's header, length, and CRC without decoding the
/// payload.
fn scan_snapshot(directory: &Path, findings: &mut Vec<Finding>) {
    let path = directory.join(SNAPSHOT_FILE);
    let entity = SNAPSHOT_FILE;
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            findings.push(Finding::new(
                Severity::Critical,
                RULE_SNAPSHOT_CHECKSUM,
                entity,
                format!("cannot read snapshot: {e}"),
            ));
            return;
        }
    };
    let header_len = SNAPSHOT_MAGIC.len() + 8 + 4;
    if bytes.len() < header_len || !bytes.starts_with(SNAPSHOT_MAGIC) {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            "bad snapshot header (wrong magic or truncated)",
        ));
        return;
    }
    let (Some(len), Some(expected)) = (
        neptune_storage::codec::read_u64_at(&bytes, SNAPSHOT_MAGIC.len()),
        neptune_storage::codec::read_u32_at(&bytes, SNAPSHOT_MAGIC.len() + 8),
    ) else {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            "bad snapshot header (wrong magic or truncated)",
        ));
        return;
    };
    let len = len as usize;
    let Some(payload) = bytes.get(header_len..header_len + len) else {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            format!(
                "snapshot truncated: header claims {len} payload bytes, file holds {}",
                bytes.len() - header_len
            ),
        ));
        return;
    };
    let actual = crc32(payload);
    if actual != expected {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_SNAPSHOT_CHECKSUM,
            entity,
            format!("snapshot CRC mismatch: stored {expected:#010x}, computed {actual:#010x}"),
        ));
    }
}

/// Walk the WAL frame by frame, checking each length/CRC envelope. Stops at
/// the first bad frame (everything after it is unreachable to recovery).
fn scan_wal(directory: &Path, findings: &mut Vec<Finding>) {
    let path = directory.join(WAL_FILE);
    let entity = WAL_FILE;
    let bytes = match std::fs::read(&path) {
        Ok(b) => b,
        Err(e) => {
            findings.push(Finding::new(
                Severity::Critical,
                RULE_WAL_CHECKSUM,
                entity,
                format!("cannot read write-ahead log: {e}"),
            ));
            return;
        }
    };
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        findings.push(Finding::new(
            Severity::Critical,
            RULE_WAL_CHECKSUM,
            entity,
            "bad WAL header (wrong magic or truncated)",
        ));
        return;
    }
    let mut pos = WAL_MAGIC.len();
    while pos < bytes.len() {
        if pos + 8 > bytes.len() {
            findings.push(Finding::new(
                Severity::Error,
                RULE_WAL_CHECKSUM,
                entity,
                format!(
                    "torn frame header at offset {pos}: {} trailing bytes",
                    bytes.len() - pos
                ),
            ));
            return;
        }
        let (Some(payload_len), Some(expected)) = (
            neptune_storage::codec::read_u32_at(&bytes, pos),
            neptune_storage::codec::read_u32_at(&bytes, pos + 4),
        ) else {
            // Unreachable given the torn-header check above, but the decode
            // path stays structurally panic-free (DESIGN.md §12).
            return;
        };
        let payload_len = payload_len as usize;
        let body_start = pos + 8;
        let Some(body_end) = body_start
            .checked_add(payload_len)
            .filter(|e| *e <= bytes.len())
        else {
            findings.push(Finding::new(
                Severity::Error,
                RULE_WAL_CHECKSUM,
                entity,
                format!(
                    "torn frame at offset {pos}: claims {payload_len} payload bytes, \
                     file ends first"
                ),
            ));
            return;
        };
        let actual = crc32(&bytes[body_start..body_end]);
        if actual != expected {
            findings.push(Finding::new(
                Severity::Error,
                RULE_WAL_CHECKSUM,
                entity,
                format!(
                    "frame CRC mismatch at offset {pos}: stored {expected:#010x}, \
                     computed {actual:#010x}; later records are unreachable"
                ),
            ));
            return;
        }
        pos = body_end;
    }
}

/// Run every in-memory integrity rule against an open machine. See
/// [`neptune_ham::invariants`] for the rules.
pub fn verify_ham(ham: &Ham) -> Vec<Finding> {
    invariants::ham_violations(ham)
        .into_iter()
        .map(Finding::from)
        .collect()
}

/// File scan plus in-memory verification of an already-open machine —
/// for callers (shell, server) that hold the store open and must not open
/// a second WAL appender on it.
pub fn verify_open_ham(ham: &Ham) -> Vec<Finding> {
    let mut findings = scan_files(ham.directory());
    findings.extend(verify_ham(ham));
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}

/// File scan plus in-memory verification of a published committed
/// snapshot — the server's lock-free `Verify` path, which must not touch
/// the live machine. The file scan reads the directory as it is *now*, so
/// a checkpoint racing this call is visible in file findings while the
/// in-memory rules check the immutable view.
pub fn verify_view(view: &neptune_ham::CommittedView) -> Vec<Finding> {
    let mut findings = scan_files(view.directory());
    findings.extend(
        invariants::view_violations(view)
            .into_iter()
            .map(Finding::from),
    );
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}

/// Verify the graph store in `directory` end to end: scan the files, then
/// open the store and re-check every semantic invariant.
///
/// Sharded stores (a `shards.meta` at the root) are verified shard by
/// shard — each shard directory gets the same file scan, and the open runs
/// through [`ShardedHam`] so the cross-shard fork topology is checked over
/// the union of all shards.
///
/// Note that opening the store runs recovery, which truncates a torn WAL
/// tail; the file scan happens first precisely so such damage is still
/// reported.
pub fn verify_store(directory: impl AsRef<Path>) -> Vec<Finding> {
    let directory = directory.as_ref();
    let nshards =
        neptune_ham::shard::read_shard_count(&neptune_storage::StdVfs, directory).unwrap_or(1);
    let mut findings = Vec::new();
    for k in 0..nshards {
        findings.extend(scan_files(neptune_ham::shard::shard_dir(directory, k)));
    }
    if nshards == 1 {
        match Ham::open_existing(directory) {
            Ok((ham, _, _)) => findings.extend(verify_ham(&ham)),
            Err(e) => findings.push(Finding::new(
                Severity::Critical,
                RULE_STORE_UNOPENABLE,
                directory.display().to_string(),
                format!("store cannot be opened: {e}"),
            )),
        }
    } else {
        match ShardedHam::open(directory) {
            Ok((sharded, _, _)) => {
                findings.extend(sharded.violations().into_iter().map(Finding::from));
            }
            Err(e) => findings.push(Finding::new(
                Severity::Critical,
                RULE_STORE_UNOPENABLE,
                directory.display().to_string(),
                format!("sharded store cannot be opened: {e}"),
            )),
        }
    }
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}

/// [`verify_ham`] for an already-open sharded machine: every shard's
/// graphs plus the merged cross-shard fork topology.
///
/// Each shard's files are scanned while holding that shard's lock: WAL
/// appends and checkpoints only happen inside the lock, so a scan under it
/// can never observe a partially-written tail (which would read as
/// torn-frame corruption while concurrent writers commit). Locks are taken
/// one at a time in ascending (hierarchy) order and released between
/// shards, so writers on the other shards keep committing during the scan.
pub fn verify_sharded(sharded: &ShardedHam) -> Vec<Finding> {
    let mut findings = Vec::new();
    for k in 0..sharded.shard_count() {
        let _guard = sharded.lock_shard(k);
        findings.extend(scan_files(neptune_ham::shard::shard_dir(
            sharded.directory(),
            k,
        )));
    }
    findings.extend(sharded.violations().into_iter().map(Finding::from));
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule.cmp(&b.rule))
    });
    findings
}
