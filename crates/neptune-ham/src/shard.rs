//! Sharded HAM: parallel disjoint-shard commits over N independent
//! [`Ham`] machines.
//!
//! The paper's HAM is a single *"transaction-based server"*; one machine
//! lock therefore serializes every commit. [`ShardedHam`] splits the
//! context-id space across `nshards` full machines — context `c` lives on
//! shard `c % nshards` (its *home shard*) — so transactions touching
//! disjoint shards validate, WAL-append, and epoch-publish with no shared
//! lock at all. Each shard is a complete store (own snapshot, own WAL
//! stream, own blob mirror, own version cache, own `Published` view slot),
//! so recovery "fan-in" is simply opening every shard.
//!
//! What crosses shards:
//!
//! * **A global commit sequence** — one shared `AtomicU64` stamped into
//!   every commit record, totally ordering commits across shards without
//!   coordinating them.
//! * **Cross-shard transactions** (fork onto / merge from another shard)
//!   — the minority path. A fork clones the parent under the parent
//!   shard's lock alone and commits on the child shard alone. A merge
//!   takes both shard locks in ascending index order (= ascending
//!   lockcheck rank, so inversions panic in debug builds), both halves
//!   stamp the *same* forced sequence, and the pair is noted in a small
//!   in-memory [`CrossLog`] so readers can detect half-visible pairs.
//! * **Consistent multi-shard reads** — [`ShardedHam::multi_view`]
//!   assembles a vector of per-shard published views and retries (bounded,
//!   counted) whenever the cross log shows a sequence published on one
//!   shard of a pair but not yet the other.
//!
//! ## Crash atomicity across shards
//!
//! Each shard's WAL commits independently, so a crash between the two
//! halves of a cross-shard transaction can persist one half (the parent's
//! merge) without the other (the child's re-fork). Both halves are
//! individually consistent stores — the surviving half is exactly the
//! prefix a single-shard crash would leave — and the cross log is rebuilt
//! empty on open, so readers see a consistent (if torn-in-history) pair.
//! This is the documented trade for independent per-shard commit paths
//! (DESIGN.md §12).

use std::collections::{BTreeSet, HashMap, VecDeque};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use neptune_storage::codec::{Reader, Writer};
use neptune_storage::snapshot::{read_snapshot_with, write_snapshot_with};
use neptune_storage::vcache::CacheStats;
use neptune_storage::vfs::{StdVfs, Vfs};

use crate::context::{merge_footprint, ConflictPolicy, MergeReport};
use crate::demons::DemonFireInfo;
use crate::error::{HamError, Result};
use crate::ham::Ham;
use crate::invariants::{thread_violations, Violation};
use crate::types::{ContextId, ProjectId, Protections, Time, MAIN_CONTEXT};
use crate::view::CommittedView;
use crate::Published;

/// File at the store root recording the shard count. Absent on stores
/// created before sharding (and on `nshards = 1` stores): both open as a
/// single-shard machine, so v1 directories stay readable unchanged.
pub const SHARDS_FILE: &str = "shards.meta";

/// Subdirectory of the root holding shard `k` (for `k >= 1`; shard 0 *is*
/// the root directory, keeping the layout v1-compatible).
pub fn shard_dir(root: &Path, index: usize) -> PathBuf {
    if index == 0 {
        root.to_path_buf()
    } else {
        root.join(format!("shard.{index}"))
    }
}

/// Most shards a store may declare. The cross log tracks participating
/// shards as a `u64` bitmask.
pub const MAX_SHARDS: usize = 64;

/// Bounded retries when assembling a consistent multi-shard view before
/// falling back to locking every shard.
const SKEW_RETRIES: usize = 8;

/// Soft cap on cross-log entries; beyond it, fully-published entries are
/// evicted from the front (unpublished ones keep the log growing until
/// their shards publish — correctness over the cap).
const CROSS_LOG_CAP: usize = 1024;

/// One cross-shard transaction: its commit sequence and the bitmask of
/// participating shards. Readers treat the sequence as torn while some
/// participant has published it and another has not.
#[derive(Debug, Clone, Copy)]
struct CrossEntry {
    seq: u64,
    mask: u64,
}

/// In-memory journal of recent cross-shard commits (the *cross log*).
/// Rebuilt empty on open: pre-restart pairs are either fully durable on
/// both shards or half-lost to the crash — neither can tear further.
#[derive(Debug, Default)]
struct CrossLog {
    entries: VecDeque<CrossEntry>,
}

/// An explicit transaction spanning whichever shards its operations touch.
#[derive(Debug, Default)]
struct TxnState {
    /// Shards holding an open per-shard transaction for this logical one.
    shards: BTreeSet<usize>,
}

/// One shard: a full machine behind its own lock, ranked
/// `lockcheck::shard(index)` so ascending-index acquisition is
/// ascending-rank acquisition.
struct ShardCell {
    ham: Mutex<Ham>,
    name: &'static str,
}

/// A locked shard: the machine guard plus its lock-order token.
pub struct ShardGuard<'a> {
    guard: MutexGuard<'a, Ham>,
    _held: neptune_obs::lockcheck::Held,
}

impl std::ops::Deref for ShardGuard<'_> {
    type Target = Ham;
    fn deref(&self) -> &Ham {
        &self.guard
    }
}

impl std::ops::DerefMut for ShardGuard<'_> {
    fn deref_mut(&mut self) -> &mut Ham {
        &mut self.guard
    }
}

/// A consistent cross-shard read snapshot: one published [`CommittedView`]
/// per shard, assembled so that no cross-shard transaction is visible on
/// one participating shard but not another.
#[derive(Clone)]
pub struct MultiView {
    views: Vec<Arc<CommittedView>>,
}

impl MultiView {
    /// How many shards this snapshot covers.
    pub fn shard_count(&self) -> usize {
        self.views.len()
    }

    /// The home shard of `context` under this snapshot's shard count.
    pub fn shard_of(&self, context: ContextId) -> usize {
        (context.0 % self.views.len() as u64) as usize
    }

    /// The published view of `context`'s home shard.
    pub fn view_for(&self, context: ContextId) -> &Arc<CommittedView> {
        &self.views[self.shard_of(context)]
    }

    /// The published view of shard `index`.
    pub fn view(&self, index: usize) -> &Arc<CommittedView> {
        &self.views[index]
    }

    /// The highest commit sequence visible anywhere in this snapshot.
    pub fn max_seq(&self) -> u64 {
        self.views.iter().map(|v| v.commit_seq()).max().unwrap_or(0)
    }

    /// All live contexts across every shard, sorted. Non-zero shards carry
    /// a vestigial main-context graph from their own creation; context 0's
    /// home is shard 0, so those are skipped.
    pub fn contexts(&self) -> Vec<ContextId> {
        let mut ids: Vec<ContextId> = Vec::new();
        for (k, view) in self.views.iter().enumerate() {
            ids.extend(
                view.contexts()
                    .into_iter()
                    .filter(|c| k == 0 || *c != MAIN_CONTEXT),
            );
        }
        ids.sort_unstable();
        ids
    }
}

/// The sharded machine. See the module docs for the design.
pub struct ShardedHam {
    shards: Vec<ShardCell>,
    /// Per-shard publication slots, cloned out of each machine at assembly
    /// so views load without touching any shard lock — the sharded read
    /// path is as lock-free as the single-machine one.
    published: Vec<Arc<Published<CommittedView>>>,
    /// The shared global commit-sequence source (also held by every shard).
    commit_seq: Arc<AtomicU64>,
    /// Global context-id allocator: ids are handed out here (not by the
    /// shards) so a context's home shard is a pure function of its id.
    next_context: Mutex<u64>,
    cross_log: Mutex<CrossLog>,
    /// The active explicit transaction, if any. Writers must be externally
    /// serialized while one is open (the server's gate does this), exactly
    /// as `&mut Ham` serializes the unsharded machine.
    txn: Mutex<Option<TxnState>>,
    /// Logical transaction-id allocator for [`ShardedHam::begin_transaction`],
    /// seeded above every id any shard has persisted — a real identifier,
    /// not a prediction of the commit sequence (which is only chosen at
    /// commit time).
    next_txn: AtomicU64,
    directory: PathBuf,
    project_id: ProjectId,
}

/// Names for lockcheck tokens (must be `&'static str`).
static SHARD_NAMES: [&str; MAX_SHARDS] = {
    // Indexed display names without runtime formatting.
    [
        "shard 0", "shard 1", "shard 2", "shard 3", "shard 4", "shard 5", "shard 6", "shard 7",
        "shard 8", "shard 9", "shard 10", "shard 11", "shard 12", "shard 13", "shard 14",
        "shard 15", "shard 16", "shard 17", "shard 18", "shard 19", "shard 20", "shard 21",
        "shard 22", "shard 23", "shard 24", "shard 25", "shard 26", "shard 27", "shard 28",
        "shard 29", "shard 30", "shard 31", "shard 32", "shard 33", "shard 34", "shard 35",
        "shard 36", "shard 37", "shard 38", "shard 39", "shard 40", "shard 41", "shard 42",
        "shard 43", "shard 44", "shard 45", "shard 46", "shard 47", "shard 48", "shard 49",
        "shard 50", "shard 51", "shard 52", "shard 53", "shard 54", "shard 55", "shard 56",
        "shard 57", "shard 58", "shard 59", "shard 60", "shard 61", "shard 62", "shard 63",
    ]
};

fn count_metric(name: &'static str) {
    if neptune_obs::enabled() {
        neptune_obs::registry().counter(name).inc();
    }
}

fn count_shard_commit(index: usize) {
    if neptune_obs::enabled() {
        neptune_obs::registry()
            .counter(&neptune_obs::labeled(
                "neptune_ham_shard_commits_total",
                "shard",
                SHARD_NAMES[index].trim_start_matches("shard "),
            ))
            .inc();
    }
}

impl ShardedHam {
    // =====================================================================
    // Lifecycle
    // =====================================================================

    /// Create a new sharded store: shard 0 at `directory` (v1-compatible
    /// layout), shards 1..n under `shard.<k>/`, and a `shards.meta` file
    /// recording the count. `nshards` must be in `1..=64`.
    pub fn create(
        directory: impl AsRef<Path>,
        protections: Protections,
        nshards: usize,
    ) -> Result<(ShardedHam, ProjectId, Time)> {
        Self::create_with(StdVfs::arc(), directory, protections, nshards)
    }

    /// [`ShardedHam::create`] on an explicit [`Vfs`] (fault injection).
    pub fn create_with(
        vfs: Arc<dyn Vfs>,
        directory: impl AsRef<Path>,
        protections: Protections,
        nshards: usize,
    ) -> Result<(ShardedHam, ProjectId, Time)> {
        if nshards == 0 || nshards > MAX_SHARDS {
            return Err(HamError::TransactionState {
                reason: "shard count must be between 1 and 64",
            });
        }
        let directory = directory.as_ref().to_path_buf();
        let mut hams = Vec::with_capacity(nshards);
        let mut project_id = ProjectId(0);
        let mut created = Time(0);
        for k in 0..nshards {
            let (ham, pid, t) =
                Ham::create_graph_with(Arc::clone(&vfs), shard_dir(&directory, k), protections)?;
            if k == 0 {
                project_id = pid;
                created = t;
            }
            hams.push(ham);
        }
        // Written last: a crash mid-create leaves a valid single-shard
        // store at the root and orphan shard directories that reopening
        // with the intended count would recreate.
        if nshards > 1 {
            let mut w = Writer::new();
            w.put_u64(nshards as u64);
            write_snapshot_with(vfs.as_ref(), directory.join(SHARDS_FILE), w.as_slice())?;
        }
        let sharded = Self::assemble(directory, project_id, hams);
        Ok((sharded, project_id, created))
    }

    /// Open an existing store, sharded or not: `shards.meta` (absent ⇒ 1)
    /// names the shard count; every shard recovers independently from its
    /// own snapshot + WAL, and the global commit sequence resumes from the
    /// maximum any shard persisted.
    pub fn open(directory: impl AsRef<Path>) -> Result<(ShardedHam, ContextId, ProjectId)> {
        Self::open_with(StdVfs::arc(), directory)
    }

    /// [`ShardedHam::open`] on an explicit [`Vfs`] (fault injection).
    pub fn open_with(
        vfs: Arc<dyn Vfs>,
        directory: impl AsRef<Path>,
    ) -> Result<(ShardedHam, ContextId, ProjectId)> {
        let directory = directory.as_ref().to_path_buf();
        let nshards = read_shard_count(vfs.as_ref(), &directory)?;
        let mut hams = Vec::with_capacity(nshards);
        let mut project_id = ProjectId(0);
        for k in 0..nshards {
            let (ham, _, pid) =
                Ham::open_existing_with(Arc::clone(&vfs), shard_dir(&directory, k))?;
            if k == 0 {
                project_id = pid;
            }
            hams.push(ham);
        }
        let sharded = Self::assemble(directory, project_id, hams);
        Ok((sharded, MAIN_CONTEXT, project_id))
    }

    /// Wrap an already-open single machine as a one-shard `ShardedHam` —
    /// the adapter embedders (the server, tests) use to run v1 stores
    /// through the sharded code paths without re-opening them.
    pub fn from_ham(ham: Ham) -> ShardedHam {
        let directory = ham.directory().to_path_buf();
        let project_id = ham.project_id();
        Self::assemble(directory, project_id, vec![ham])
    }

    fn assemble(directory: PathBuf, project_id: ProjectId, mut hams: Vec<Ham>) -> ShardedHam {
        let count = hams.len();
        let commit_seq = hams[0].commit_seq_handle();
        let mut next_context = 1;
        let mut next_txn = 1;
        for (k, ham) in hams.iter_mut().enumerate() {
            ham.set_shard_identity(k, count);
            ham.attach_commit_seq(Arc::clone(&commit_seq));
            next_context = next_context.max(ham.next_context_hint());
            next_txn = next_txn.max(ham.next_txn_hint());
        }
        // The identity/sequence rebinding above predates any publication a
        // reader could load through these handles, because nothing shares
        // the machines until this constructor returns — but the shard
        // identity must reach views, so republish once per shard.
        let published: Vec<Arc<Published<CommittedView>>> = hams
            .iter_mut()
            .map(|ham| {
                ham.republish();
                ham.published_handle()
            })
            .collect();
        ShardedHam {
            published,
            shards: hams
                .into_iter()
                .enumerate()
                .map(|(k, ham)| ShardCell {
                    ham: Mutex::new(ham),
                    name: SHARD_NAMES[k],
                })
                .collect(),
            commit_seq,
            next_context: Mutex::new(next_context),
            cross_log: Mutex::new(CrossLog::default()),
            txn: Mutex::new(None),
            next_txn: AtomicU64::new(next_txn),
            directory,
            project_id,
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The store's project id (shard 0's — the root store).
    pub fn project_id(&self) -> ProjectId {
        self.project_id
    }

    /// The store's root directory.
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// The home shard of `context`.
    pub fn shard_of(&self, context: ContextId) -> usize {
        (context.0 % self.shards.len() as u64) as usize
    }

    // =====================================================================
    // Locking
    // =====================================================================

    /// Lock shard `index` (rank `lockcheck::shard(index)`). Every
    /// acquisition is counted, so a test can prove a path takes none.
    pub fn lock_shard(&self, index: usize) -> ShardGuard<'_> {
        let cell = &self.shards[index];
        let held = neptune_obs::lockcheck::acquire(neptune_obs::lockcheck::shard(index), cell.name);
        count_metric("neptune_ham_shard_lock_acquisitions_total");
        let guard = cell.ham.lock().unwrap_or_else(PoisonError::into_inner);
        ShardGuard { guard, _held: held }
    }

    /// Lock `context`'s home shard. If an explicit transaction is open and
    /// this shard has not joined it yet, a per-shard transaction is begun
    /// so the shard's operations commit (or abort) with the logical one.
    pub fn lock_home(&self, context: ContextId) -> Result<ShardGuard<'_>> {
        let index = self.shard_of(context);
        let mut guard = self.lock_shard(index);
        self.join_txn(index, &mut guard)?;
        Ok(guard)
    }

    /// Join shard `index` (already locked by the caller, its machine at
    /// `guard`) to the open explicit transaction, if any: the first time
    /// the logical transaction touches a shard, a per-shard transaction is
    /// begun on it so the shard's operations defer and then commit (or
    /// abort) with the logical one. Returns whether a transaction is open.
    ///
    /// Brief txn-state peek *after* the caller took the shard lock; the
    /// commit path never waits on a shard lock while holding the txn
    /// state, so this ordering cannot deadlock.
    fn join_txn(&self, index: usize, guard: &mut Ham) -> Result<bool> {
        let mut txn = self.txn.lock().unwrap_or_else(PoisonError::into_inner);
        let Some(state) = txn.as_mut() else {
            return Ok(false);
        };
        if state.shards.insert(index) {
            guard.begin_transaction()?;
        }
        Ok(true)
    }

    /// Lock several shards deadlock-free: ascending index order is
    /// ascending lockcheck rank.
    fn lock_ascending(&self, indices: &BTreeSet<usize>) -> Vec<(usize, ShardGuard<'_>)> {
        indices.iter().map(|&k| (k, self.lock_shard(k))).collect()
    }

    // =====================================================================
    // Context operations (the machine-level ops the server routes here)
    // =====================================================================

    /// Fork a new context from `from`. The id is allocated globally, so
    /// the child's home shard is `id % nshards` — usually a different
    /// shard than the parent's, which is what spreads independent work
    /// across independent commit paths.
    pub fn create_context(&self, from: ContextId) -> Result<ContextId> {
        let parent_shard = self.shard_of(from);
        let id = {
            let mut next = self
                .next_context
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let id = ContextId(*next);
            *next += 1;
            id
        };
        let child_shard = self.shard_of(id);
        if child_shard == parent_shard {
            let mut guard = self.lock_home(from)?;
            guard.create_context_as(id, from)?;
            count_shard_commit(parent_shard);
            return Ok(id);
        }
        // Cross-shard fork: clone the parent graph (O(1) — persistent
        // tries) under the parent shard's lock alone, release it, then
        // adopt the clone on the child shard. The encode, WAL append and
        // fsync all run under the child shard's lock, so forks and merges
        // on the parent shard do not wait behind them. The two locks are
        // never held together; a parent destroyed in between leaves the
        // child partitioned, exactly as destroying it a moment after the
        // fork would. Only the child shard commits, so no cross-log entry
        // is needed — there is no pair to tear.
        let (graph, fork_time) = self.lock_shard(parent_shard).export_graph(from)?;
        let mut child = self.lock_shard(child_shard);
        // Join the open explicit transaction, if any. Only the child shard
        // writes (the parent is just read), so only it joins — the adopted
        // context then commits or rolls back with the logical transaction,
        // exactly as a fork inside a transaction does on the unsharded
        // machine. The commit counters move to commit_transaction in that
        // case, where the deferred work actually becomes durable.
        let deferred = self.join_txn(child_shard, &mut child)?;
        child.adopt_context(id, from, fork_time, graph)?;
        if !deferred {
            count_metric("neptune_ham_cross_shard_txns_total");
            count_shard_commit(child_shard);
        }
        Ok(id)
    }

    /// Merge `child` back into its parent. Same-shard pairs take the
    /// single-machine path; cross-shard pairs run the two-phase protocol:
    /// both shards locked in rank order, one forced commit sequence, the
    /// pair noted in the cross log before either half commits. Inside an
    /// open explicit transaction, a cross-shard pair instead joins the
    /// transaction (both halves defer), so the logical commit/abort
    /// resolves the merge with everything else.
    pub fn merge_context(&self, child: ContextId, policy: ConflictPolicy) -> Result<MergeReport> {
        let child_shard = self.shard_of(child);
        // Unlocked peek, only to find the parent and so the lock set. The
        // parent context itself can never change (merges re-fork from the
        // same parent), so the lock set stays valid; the fork time can, so
        // it is read again under both locks below.
        let (parent, _) = self
            .lock_shard(child_shard)
            .context_forked_from(child)?
            .ok_or(HamError::TransactionState {
                reason: "cannot merge the main context",
            })?;
        let parent_shard = self.shard_of(parent);
        if parent_shard == child_shard {
            let mut guard = self.lock_home(child)?;
            let report = guard.merge_context(child, policy)?;
            count_shard_commit(child_shard);
            return Ok(report);
        }
        let locks: BTreeSet<usize> = [parent_shard, child_shard].into_iter().collect();
        let mut guards = self.lock_ascending(&locks);
        // The merge and its WAL record see only the part of the child the
        // merge acts on (context::merge_footprint), not the whole graph.
        let (fork_time, child_export) = {
            let child_g = guards
                .iter()
                .find(|(k, _)| *k == child_shard)
                .expect("child shard locked");
            let parent_g = guards
                .iter()
                .find(|(k, _)| *k == parent_shard)
                .expect("parent shard locked");
            let (_, fork_time) =
                child_g
                    .1
                    .context_forked_from(child)?
                    .ok_or(HamError::TransactionState {
                        reason: "cannot merge the main context",
                    })?;
            let footprint = merge_footprint(
                parent_g.1.graph(parent)?,
                child_g.1.graph(child)?,
                fork_time,
            );
            (fork_time, footprint)
        };
        // An open explicit transaction absorbs the merge instead of the
        // immediate two-phase commit below: both shards join it, the two
        // halves defer into their per-shard transactions, and
        // commit_transaction later stamps one shared sequence (plus the
        // cross-log entry) for the whole logical transaction — so
        // abort_transaction rolls the merge back atomically, matching the
        // unsharded machine.
        let mut deferred = false;
        for (k, guard) in guards.iter_mut() {
            deferred = self.join_txn(*k, guard)?;
        }
        if deferred {
            let report = {
                let parent_g = guards
                    .iter_mut()
                    .find(|(k, _)| *k == parent_shard)
                    .expect("parent shard locked");
                parent_g
                    .1
                    .merge_foreign(parent, child_export, fork_time, policy)?
            };
            let new_fork = {
                let parent_g = guards
                    .iter()
                    .find(|(k, _)| *k == parent_shard)
                    .expect("parent shard locked");
                parent_g.1.graph(parent)?.now()
            };
            let child_g = guards
                .iter_mut()
                .find(|(k, _)| *k == child_shard)
                .expect("child shard locked");
            child_g.1.set_fork_point(child, parent, new_fork)?;
            return Ok(report);
        }
        let seq = self.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let mask = (1u64 << parent_shard) | (1u64 << child_shard);
        self.push_cross_entry(CrossEntry { seq, mask });

        // Phase 1: the parent folds the child in.
        let parent_result: Result<(MergeReport, Time)> = {
            let parent_g = guards
                .iter_mut()
                .find(|(k, _)| *k == parent_shard)
                .expect("parent shard locked");
            (|| {
                parent_g.1.begin_transaction()?;
                let report = match parent_g
                    .1
                    .merge_foreign(parent, child_export, fork_time, policy)
                {
                    Ok(r) => r,
                    Err(e) => {
                        let _ = parent_g.1.abort_transaction();
                        return Err(e);
                    }
                };
                parent_g.1.force_commit_seq(seq);
                parent_g.1.commit_transaction()?;
                let new_fork = parent_g.1.graph(parent)?.now();
                Ok((report, new_fork))
            })()
        };
        let (report, new_fork) = match parent_result {
            Ok(v) => v,
            Err(e) => {
                // Nothing committed anywhere: retract the pair.
                self.remove_cross_entry(seq);
                return Err(e);
            }
        };

        // Phase 2: the child re-forks from the merge point.
        let child_result: Result<()> = {
            let child_g = guards
                .iter_mut()
                .find(|(k, _)| *k == child_shard)
                .expect("child shard locked");
            (|| {
                child_g.1.begin_transaction()?;
                if let Err(e) = child_g.1.set_fork_point(child, parent, new_fork) {
                    let _ = child_g.1.abort_transaction();
                    return Err(e);
                }
                child_g.1.force_commit_seq(seq);
                child_g.1.commit_transaction()?;
                Ok(())
            })()
        };
        if let Err(e) = child_result {
            // The parent half is durable; the pair is now two independent
            // transactions (the child still forks from the old point, which
            // remains valid history on the parent). Stop advertising the
            // sequence as a pair so readers do not spin on it.
            self.remove_cross_entry(seq);
            return Err(e);
        }
        count_metric("neptune_ham_cross_shard_txns_total");
        count_shard_commit(parent_shard);
        count_shard_commit(child_shard);
        Ok(report)
    }

    /// Destroy `id` on its home shard. Children forked from it on other
    /// shards become partitioned — the same observable state the unsharded
    /// machine reports after destroying a forked parent.
    pub fn destroy_context(&self, id: ContextId) -> Result<()> {
        let shard = self.shard_of(id);
        let mut guard = self.lock_home(id)?;
        guard.destroy_context(id)?;
        count_shard_commit(shard);
        Ok(())
    }

    /// All live contexts across every shard, read from published views.
    pub fn contexts(&self) -> Vec<ContextId> {
        self.multi_view().contexts()
    }

    /// All live contexts read from the *live* machines (shards locked in
    /// rank order) — includes contexts created inside an open explicit
    /// transaction, which published views cannot show yet. The server's
    /// read-your-writes `ListContexts` path.
    pub fn live_contexts(&self) -> Vec<ContextId> {
        let mut ids: Vec<ContextId> = Vec::new();
        for k in 0..self.shards.len() {
            let guard = self.lock_shard(k);
            ids.extend(
                guard
                    .contexts()
                    .into_iter()
                    // Non-zero shards' own MAIN graphs are vestigial
                    // bootstrap state, not user-visible contexts.
                    .filter(|id| !(k != 0 && *id == MAIN_CONTEXT)),
            );
        }
        ids.sort_unstable_by_key(|id| id.0);
        ids
    }

    // =====================================================================
    // Explicit transactions
    // =====================================================================

    /// Begin an explicit transaction. Shards join lazily as
    /// [`ShardedHam::lock_home`] routes operations to them. Writers must
    /// be externally serialized while one is open (the server's gate).
    ///
    /// Returns the logical transaction id: a dedicated monotonic counter
    /// (mirroring the unsharded [`Ham::begin_transaction`]), *not* the
    /// commit sequence the transaction will eventually stamp — that is
    /// only chosen at commit time.
    pub fn begin_transaction(&self) -> Result<u64> {
        let mut txn = self.txn.lock().unwrap_or_else(PoisonError::into_inner);
        if txn.is_some() {
            return Err(HamError::TransactionState {
                reason: "transaction already active",
            });
        }
        *txn = Some(TxnState::default());
        Ok(self.next_txn.fetch_add(1, Ordering::Relaxed))
    }

    /// Commit the active explicit transaction on every shard it touched.
    /// Multi-shard transactions stamp one shared sequence and are noted in
    /// the cross log, like the internal two-phase ops.
    pub fn commit_transaction(&self) -> Result<()> {
        // Take the shard set and release the txn state *before* touching
        // any shard lock (the deadlock rule lock_home relies on).
        let state = {
            let mut txn = self.txn.lock().unwrap_or_else(PoisonError::into_inner);
            txn.take().ok_or(HamError::TransactionState {
                reason: "no active transaction",
            })?
        };
        if state.shards.is_empty() {
            return Ok(());
        }
        let mut guards = self.lock_ascending(&state.shards);
        let cross = state.shards.len() > 1;
        let mut entry_seq = None;
        if cross {
            let seq = self.commit_seq.fetch_add(1, Ordering::Relaxed) + 1;
            let mask = state.shards.iter().fold(0u64, |m, &k| m | (1u64 << k));
            self.push_cross_entry(CrossEntry { seq, mask });
            entry_seq = Some(seq);
        }
        let mut first_err = None;
        for (k, guard) in guards.iter_mut() {
            if first_err.is_some() {
                // An earlier shard's commit failed (and rolled itself
                // back): abort this shard's half so the logical transaction
                // fails whole on every not-yet-committed shard
                // (already-committed shards stay durable — the cross-shard
                // atomicity limit documented above).
                let _ = guard.abort_transaction();
                continue;
            }
            if let Some(seq) = entry_seq {
                guard.force_commit_seq(seq);
            }
            match guard.commit_transaction() {
                Ok(()) => count_shard_commit(*k),
                Err(e) => first_err = Some(e),
            }
        }
        if let Some(e) = first_err {
            if let Some(seq) = entry_seq {
                self.remove_cross_entry(seq);
            }
            return Err(e);
        }
        if cross {
            count_metric("neptune_ham_cross_shard_txns_total");
        }
        Ok(())
    }

    /// Abort the active explicit transaction on every shard it touched.
    pub fn abort_transaction(&self) -> Result<()> {
        let state = {
            let mut txn = self.txn.lock().unwrap_or_else(PoisonError::into_inner);
            txn.take().ok_or(HamError::TransactionState {
                reason: "no active transaction",
            })?
        };
        let mut guards = self.lock_ascending(&state.shards);
        let mut first_err = None;
        for (_, guard) in guards.iter_mut() {
            if let Err(e) = guard.abort_transaction() {
                if first_err.is_none() {
                    first_err = Some(e);
                }
            }
        }
        match first_err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    /// Whether an explicit transaction is open.
    pub fn in_transaction(&self) -> bool {
        self.txn
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .is_some()
    }

    /// Checkpoint every shard (ascending, one at a time — shards fold
    /// their WALs independently).
    pub fn checkpoint(&self) -> Result<()> {
        for k in 0..self.shards.len() {
            let mut guard = self.lock_shard(k);
            guard.checkpoint()?;
        }
        Ok(())
    }

    // =====================================================================
    // Reads
    // =====================================================================

    /// The published view of `context`'s home shard — the single-shard
    /// lock-free read path, identical to the unsharded one: one epoch
    /// check, no machine lock.
    pub fn read_view(&self, context: ContextId) -> Arc<CommittedView> {
        self.published[self.shard_of(context)].load()
    }

    /// The publication handle for shard `index` (lock-free loads).
    pub fn published_handle(&self, index: usize) -> Arc<Published<CommittedView>> {
        Arc::clone(&self.published[index])
    }

    /// Load every shard's published view — no machine lock.
    fn published_views(&self) -> Vec<Arc<CommittedView>> {
        self.published.iter().map(|p| p.load()).collect()
    }

    /// Assemble a consistent cross-shard snapshot: per-shard published
    /// views such that every cross-log pair is either fully visible or
    /// fully invisible. Bounded retry on skew (counted), then a full-lock
    /// fallback (counted) that cannot observe a half-published pair
    /// because publishes happen under the shard locks it holds.
    pub fn multi_view(&self) -> MultiView {
        let mut views = self.published_views();
        for _ in 0..SKEW_RETRIES {
            let lagging = self.torn_shards(&views);
            if lagging == 0 {
                return MultiView { views };
            }
            count_metric("neptune_ham_view_skew_retries_total");
            for (k, view) in views.iter_mut().enumerate() {
                if lagging & (1u64 << k) != 0 {
                    *view = self.published[k].load();
                }
            }
        }
        // Fallback: with every shard lock held, no cross-shard commit can
        // be between its two halves' publishes.
        count_metric("neptune_ham_multiview_fallbacks_total");
        let all: BTreeSet<usize> = (0..self.shards.len()).collect();
        let guards = self.lock_ascending(&all);
        let views: Vec<Arc<CommittedView>> =
            guards.iter().map(|(_, g)| g.committed_view()).collect();
        if self.torn_shards(&views) != 0 {
            // Defensive: must be unreachable. Metrics-proof tests assert
            // this counter stays zero.
            count_metric("neptune_ham_multiview_torn_total");
        }
        MultiView { views }
    }

    /// Bitmask of shards lagging behind some cross-log pair partially
    /// visible in `views` (0 = consistent).
    fn torn_shards(&self, views: &[Arc<CommittedView>]) -> u64 {
        let log = self
            .cross_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let mut lagging = 0u64;
        for entry in &log.entries {
            let mut seen = false;
            let mut missing = 0u64;
            for (k, view) in views.iter().enumerate() {
                if entry.mask & (1u64 << k) == 0 {
                    continue;
                }
                if view.commit_seq() >= entry.seq {
                    seen = true;
                } else {
                    missing |= 1u64 << k;
                }
            }
            if seen && missing != 0 {
                lagging |= missing;
            }
        }
        lagging
    }

    fn push_cross_entry(&self, entry: CrossEntry) {
        let mut log = self
            .cross_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        log.entries.push_back(entry);
        if log.entries.len() > CROSS_LOG_CAP {
            // Evict only pairs every participant has published: dropping an
            // unpublished pair would let a torn read through undetected, so
            // the log grows past the cap instead. Published seqs come from
            // the lock-free slots — this path runs while holding shard
            // locks, so it must not take any itself.
            let views: Vec<u64> = self
                .published
                .iter()
                .map(|p| p.load().commit_seq())
                .collect();
            while log.entries.len() > CROSS_LOG_CAP {
                let Some(front) = log.entries.front().copied() else {
                    break;
                };
                let fully_published = (0..views.len())
                    .filter(|k| front.mask & (1u64 << k) != 0)
                    .all(|k| views[k] >= front.seq);
                if fully_published {
                    log.entries.pop_front();
                } else {
                    break;
                }
            }
        }
    }

    fn remove_cross_entry(&self, seq: u64) {
        let mut log = self
            .cross_log
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        log.entries.retain(|e| e.seq != seq);
    }

    // =====================================================================
    // Integrity, demons, caches
    // =====================================================================

    /// Full cross-shard integrity check: every shard's graphs plus the
    /// *merged* fork topology — the check each shard must skip for foreign
    /// parents runs here over the union of all shards' threads.
    pub fn violations(&self) -> Vec<Violation> {
        let views = self.published_views();
        let mut merged = HashMap::new();
        for (k, view) in views.iter().enumerate() {
            for (id, thread) in view.threads() {
                if k != 0 && *id == MAIN_CONTEXT {
                    continue; // vestigial per-shard main graph
                }
                merged.insert(*id, thread.clone());
            }
        }
        thread_violations(&merged, (0, 1))
    }

    /// Register a demon callback on every shard (contexts live anywhere).
    pub fn register_demon_callback<F>(&self, name: impl Into<String>, callback: F)
    where
        F: Fn(&DemonFireInfo) + Clone + Send + Sync + 'static,
    {
        let name = name.into();
        for k in 0..self.shards.len() {
            let mut guard = self.lock_shard(k);
            guard.register_demon_callback(name.clone(), callback.clone());
        }
    }

    /// Aggregate version-cache statistics across shards.
    pub fn version_cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for k in 0..self.shards.len() {
            let s = self.lock_shard(k).version_cache_stats();
            total.hits += s.hits;
            total.misses += s.misses;
            total.entries += s.entries;
            total.bytes += s.bytes;
        }
        total
    }

    /// Enable or disable every shard's version cache.
    pub fn set_version_cache_enabled(&self, enabled: bool) {
        for k in 0..self.shards.len() {
            self.lock_shard(k).set_version_cache_enabled(enabled);
        }
    }

    /// Configure every shard's version cache bounds.
    pub fn configure_version_cache(&self, max_entries: usize, max_bytes: u64) {
        for k in 0..self.shards.len() {
            self.lock_shard(k)
                .configure_version_cache(max_entries, max_bytes);
        }
    }

    /// The last commit sequence handed out (monotonic across all shards).
    pub fn last_commit_seq(&self) -> u64 {
        self.commit_seq.load(Ordering::Relaxed)
    }
}

/// Read `shards.meta` (absent ⇒ 1 — v1 stores and unsharded creates).
pub fn read_shard_count(vfs: &dyn Vfs, directory: &Path) -> Result<usize> {
    let path = directory.join(SHARDS_FILE);
    if !vfs.exists(&path) {
        return Ok(1);
    }
    let bytes = read_snapshot_with(vfs, path)?;
    let mut r = Reader::new(&bytes);
    let n = r.get_u64()? as usize;
    if n == 0 || n > MAX_SHARDS {
        return Err(HamError::Storage(
            neptune_storage::StorageError::BadFileHeader {
                context: "shards.meta: shard count out of range",
            },
        ));
    }
    Ok(n)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::Time;
    use neptune_storage::testutil::TempDir;

    fn tmpdir(name: &str) -> TempDir {
        TempDir::new(&format!("neptune-shard-{name}"))
    }

    /// Fork enough contexts that at least one lands on every shard.
    fn fork_onto_every_shard(ham: &ShardedHam) -> Vec<ContextId> {
        let n = ham.shard_count();
        let mut ctxs = Vec::new();
        while {
            let covered: BTreeSet<usize> = ctxs.iter().map(|c| ham.shard_of(*c)).collect();
            covered.len() < n
        } {
            ctxs.push(ham.create_context(MAIN_CONTEXT).unwrap());
        }
        ctxs
    }

    #[test]
    fn contexts_spread_across_shards_and_commit_independently() {
        let dir = tmpdir("spread");
        let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
        let ctxs = fork_onto_every_shard(&ham);
        for &ctx in &ctxs {
            let mut guard = ham.lock_home(ctx).unwrap();
            let (node, t) = guard.add_node(ctx, true).unwrap();
            guard
                .modify_node(ctx, node, t, b"shard-local\n".to_vec(), &[])
                .unwrap();
        }
        let all = ham.contexts();
        assert!(all.contains(&MAIN_CONTEXT));
        for ctx in &ctxs {
            assert!(all.contains(ctx), "missing {ctx:?} in {all:?}");
        }
        assert_eq!(ham.violations(), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_shard_merge_folds_child_changes_into_parent() {
        let dir = tmpdir("xmerge");
        let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
        // Find a context whose home differs from the main context's shard 0.
        let child = loop {
            let c = ham.create_context(MAIN_CONTEXT).unwrap();
            if ham.shard_of(c) != 0 {
                break c;
            }
        };
        let (node, t) = {
            let mut guard = ham.lock_home(child).unwrap();
            let (node, t) = guard.add_node(child, true).unwrap();
            guard
                .modify_node(child, node, t, b"born on a far shard\n".to_vec(), &[])
                .unwrap();
            (node, t)
        };
        let _ = t;
        let report = ham.merge_context(child, ConflictPolicy::Fail).unwrap();
        assert!(report.conflicts.is_empty());
        // The node is now visible in the main context on shard 0.
        let main = ham.lock_home(MAIN_CONTEXT).unwrap();
        let opened = main
            .read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap();
        assert_eq!(&opened.contents[..], b"born on a far shard\n");
        drop(main);
        // The child re-forked from the merge point; full topology is clean.
        assert_eq!(ham.violations(), Vec::new());
        // Readers assemble a consistent pair.
        let mv = ham.multi_view();
        let (p, t) = mv
            .view_for(child)
            .context_forked_from(child)
            .unwrap()
            .unwrap();
        assert_eq!(p, MAIN_CONTEXT);
        let parent_now = mv.view_for(MAIN_CONTEXT).context_now(MAIN_CONTEXT).unwrap();
        assert!(
            t <= parent_now,
            "fork time {t:?} beyond parent clock {parent_now:?}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sharded_store_recovers_after_reopen() {
        let dir = tmpdir("reopen");
        let seq_before;
        let ctxs;
        {
            let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
            ctxs = fork_onto_every_shard(&ham);
            for &ctx in &ctxs {
                let mut guard = ham.lock_home(ctx).unwrap();
                let (node, t) = guard.add_node(ctx, true).unwrap();
                guard
                    .modify_node(ctx, node, t, format!("ctx {}\n", ctx.0).into_bytes(), &[])
                    .unwrap();
            }
            // One cross-shard merge so a forced sequence is on disk too.
            let far = ctxs
                .iter()
                .find(|c| ham.shard_of(**c) != 0)
                .copied()
                .unwrap();
            ham.merge_context(far, ConflictPolicy::Fail).unwrap();
            seq_before = ham.last_commit_seq();
        }
        let (ham, main, _) = ShardedHam::open(&dir).unwrap();
        assert_eq!(main, MAIN_CONTEXT);
        assert_eq!(ham.shard_count(), 4);
        let all = ham.contexts();
        for ctx in &ctxs {
            assert!(all.contains(ctx), "missing {ctx:?} after reopen");
        }
        // The global sequence resumes at (at least) where it left off.
        assert!(ham.last_commit_seq() >= seq_before);
        // New contexts don't collide with recovered ids.
        let fresh = ham.create_context(MAIN_CONTEXT).unwrap();
        assert!(!all.contains(&fresh));
        assert_eq!(ham.violations(), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn v1_store_opens_as_single_shard() {
        let dir = tmpdir("v1");
        let node;
        {
            let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
            let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
            ham.modify_node(MAIN_CONTEXT, n, t, b"plain store\n".to_vec(), &[])
                .unwrap();
            node = n;
        }
        let (ham, _, _) = ShardedHam::open(&dir).unwrap();
        assert_eq!(ham.shard_count(), 1);
        let guard = ham.lock_home(MAIN_CONTEXT).unwrap();
        let opened = guard
            .read_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
            .unwrap();
        assert_eq!(&opened.contents[..], b"plain store\n");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn explicit_transaction_spans_shards_and_aborts_whole() {
        let dir = tmpdir("txn");
        let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
        let ctxs = fork_onto_every_shard(&ham);
        let before: Vec<_> = ctxs
            .iter()
            .map(|&c| ham.read_view(c).context_now(c).unwrap())
            .collect();
        ham.begin_transaction().unwrap();
        for &ctx in &ctxs {
            let mut guard = ham.lock_home(ctx).unwrap();
            guard.add_node(ctx, true).unwrap();
        }
        ham.abort_transaction().unwrap();
        for (&ctx, &t) in ctxs.iter().zip(&before) {
            assert_eq!(
                ham.read_view(ctx).context_now(ctx).unwrap(),
                t,
                "abort must rewind {ctx:?} on its shard"
            );
        }
        // And a committed one lands everywhere with one shared sequence.
        ham.begin_transaction().unwrap();
        for &ctx in &ctxs {
            let mut guard = ham.lock_home(ctx).unwrap();
            guard.add_node(ctx, true).unwrap();
        }
        ham.commit_transaction().unwrap();
        let seqs: BTreeSet<u64> = ctxs
            .iter()
            .map(|&c| ham.read_view(c).commit_seq())
            .collect();
        assert_eq!(seqs.len(), 1, "all shards must publish the same sequence");
        assert_eq!(ham.violations(), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cross_shard_context_ops_join_explicit_transaction() {
        let dir = tmpdir("txncross");
        let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
        let child = loop {
            let c = ham.create_context(MAIN_CONTEXT).unwrap();
            if ham.shard_of(c) != 0 {
                break c;
            }
        };
        {
            let mut guard = ham.lock_home(child).unwrap();
            let (node, t) = guard.add_node(child, true).unwrap();
            guard
                .modify_node(child, node, t, b"txn fodder\n".to_vec(), &[])
                .unwrap();
        }
        let contexts_before = ham.contexts();
        let main_before = ham
            .read_view(MAIN_CONTEXT)
            .context_now(MAIN_CONTEXT)
            .unwrap();
        let fork_before = ham
            .read_view(child)
            .context_forked_from(child)
            .unwrap()
            .unwrap();

        // Abort: the cross-shard fork and both halves of the cross-shard
        // merge must roll back atomically, as on the unsharded machine.
        ham.begin_transaction().unwrap();
        let forked = loop {
            let c = ham.create_context(MAIN_CONTEXT).unwrap();
            if ham.shard_of(c) != 0 {
                break c;
            }
        };
        assert_ne!(ham.shard_of(forked), 0);
        ham.merge_context(child, ConflictPolicy::PreferChild)
            .unwrap();
        ham.abort_transaction().unwrap();
        assert_eq!(
            ham.live_contexts(),
            contexts_before,
            "contexts forked inside the aborted transaction must roll back"
        );
        assert_eq!(
            ham.read_view(MAIN_CONTEXT)
                .context_now(MAIN_CONTEXT)
                .unwrap(),
            main_before,
            "the parent half of the merge must roll back"
        );
        assert_eq!(
            ham.read_view(child)
                .context_forked_from(child)
                .unwrap()
                .unwrap(),
            fork_before,
            "the child's fork point must roll back"
        );
        assert_eq!(ham.violations(), Vec::new());

        // Commit: the same ops land, both merge halves publishing one
        // shared sequence like any multi-shard logical transaction.
        ham.begin_transaction().unwrap();
        let kept = loop {
            let c = ham.create_context(MAIN_CONTEXT).unwrap();
            if ham.shard_of(c) != 0 {
                break c;
            }
        };
        ham.merge_context(child, ConflictPolicy::PreferChild)
            .unwrap();
        ham.commit_transaction().unwrap();
        assert!(ham.contexts().contains(&kept));
        assert!(
            ham.read_view(MAIN_CONTEXT)
                .context_now(MAIN_CONTEXT)
                .unwrap()
                > main_before
        );
        let seqs: BTreeSet<u64> = [MAIN_CONTEXT, child]
            .iter()
            .map(|&c| ham.read_view(c).commit_seq())
            .collect();
        assert_eq!(
            seqs.len(),
            1,
            "both merge halves must publish the same forced sequence"
        );
        assert_eq!(ham.violations(), Vec::new());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn commit_failure_aborts_remaining_shards() {
        use neptune_storage::fault::{FaultKind, FaultVfs};
        let dir = tmpdir("txnfail");
        let vfs = FaultVfs::new();
        let (ham, _, _) =
            ShardedHam::create_with(Arc::new(vfs.clone()), &dir, Protections::DEFAULT, 4).unwrap();
        let ctxs = fork_onto_every_shard(&ham);
        let before: Vec<Time> = ctxs
            .iter()
            .map(|&c| ham.read_view(c).context_now(c).unwrap())
            .collect();
        ham.begin_transaction().unwrap();
        for &ctx in &ctxs {
            let mut guard = ham.lock_home(ctx).unwrap();
            guard.add_node(ctx, true).unwrap();
        }
        // The commit's first WAL append (the lowest-ranked shard's Begin
        // record) fails: that shard rolls back, and the remaining shards
        // must be *aborted*, not durably committed behind the error the
        // caller receives.
        vfs.arm(FaultKind::FailWrite, 0);
        let err = ham.commit_transaction();
        vfs.disarm();
        assert!(err.is_err(), "commit must surface the injected failure");
        assert!(vfs.injected() > 0, "the armed fault must actually fire");
        for (&ctx, &t) in ctxs.iter().zip(&before) {
            assert_eq!(
                ham.read_view(ctx).context_now(ctx).unwrap(),
                t,
                "no shard may durably commit a failed logical transaction ({ctx:?})"
            );
        }
        assert!(!ham.in_transaction());
        // The aborted shards hold no dangling per-shard transaction: a new
        // logical transaction can join (and commit on) them again. The
        // failing shard's WAL poisoned itself, so the new work stays off
        // shard 0.
        ham.begin_transaction().unwrap();
        let far = ctxs
            .iter()
            .find(|c| ham.shard_of(**c) != 0)
            .copied()
            .unwrap();
        {
            let mut guard = ham.lock_home(far).unwrap();
            guard.add_node(far, true).unwrap();
        }
        ham.commit_transaction().unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn transaction_ids_are_dedicated_monotonic_counters() {
        let dir = tmpdir("txnid");
        let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 2).unwrap();
        let a = ham.begin_transaction().unwrap();
        {
            let mut guard = ham.lock_home(MAIN_CONTEXT).unwrap();
            guard.add_node(MAIN_CONTEXT, true).unwrap();
        }
        ham.commit_transaction().unwrap();
        let b = ham.begin_transaction().unwrap();
        ham.abort_transaction().unwrap();
        let c = ham.begin_transaction().unwrap();
        ham.commit_transaction().unwrap();
        // A real identifier — distinct and monotonic per transaction, not
        // a prediction of whatever commit sequence the transaction might
        // end up stamping.
        assert!(a < b && b < c, "txn ids must be monotonic: {a} {b} {c}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn multi_view_is_internally_consistent() {
        let dir = tmpdir("mview");
        let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
        let child = loop {
            let c = ham.create_context(MAIN_CONTEXT).unwrap();
            if ham.shard_of(c) != 0 {
                break c;
            }
        };
        for _ in 0..5 {
            {
                let mut guard = ham.lock_home(child).unwrap();
                let (node, t) = guard.add_node(child, true).unwrap();
                guard
                    .modify_node(child, node, t, b"tick\n".to_vec(), &[])
                    .unwrap();
            }
            ham.merge_context(child, ConflictPolicy::PreferChild)
                .unwrap();
            let mv = ham.multi_view();
            let (p, t) = mv
                .view_for(child)
                .context_forked_from(child)
                .unwrap()
                .unwrap();
            let parent_now = mv.view_for(p).context_now(p).unwrap();
            assert!(
                t <= parent_now,
                "torn read: fork {t:?} > parent clock {parent_now:?}"
            );
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
