//! The workloads: what one connection does, step after step, and the
//! checks it makes on every answer.
//!
//! A [`Worker`] owns one connection's state. The same worker code runs
//! over the wire ([`crate::backend::Wire`]) for the measured closed loop
//! and in process ([`crate::backend::Local`]) for the traced replay.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

use neptune_ham::types::{ContextId, LinkIndex, LinkPt, NodeIndex, Time, MAIN_CONTEXT};
use neptune_ham::value::Value;

use crate::backend::{Backend, Class};
use crate::gen::{edit, fnv1a, Rng, Shape, Store};

/// The three traffic mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Read-only browsing of a deeply versioned design document.
    Browse,
    /// The edit-compile loop: open at head, check in a small edit.
    Checkin,
    /// Fork a private world, edit in it, merge it back, destroy it.
    PrivateWorlds,
}

impl Workload {
    /// Parse a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "browse" => Some(Workload::Browse),
            "checkin" => Some(Workload::Checkin),
            "private_worlds" => Some(Workload::PrivateWorlds),
            _ => None,
        }
    }

    /// The store this workload starts from.
    pub fn shape(self) -> Shape {
        match self {
            // 48 × 160 = 7680 versions of ~3 KiB: far more than the
            // version cache's 256 entries, and 160 versions of 3 KiB per
            // node exceed an archive's 256 KiB anchor budget.
            Workload::Browse => Shape {
                shards: 8,
                nodes: 48,
                versions: 160,
                node_bytes: 3072,
                edit_lines: 2,
                doc_fanout: 4,
                doc_depth: 4,
                kinds: 8,
            },
            // Head reads of 512 small nodes fit every cache. Check-ins
            // spread over them, so a node's history, and with it the cost
            // of a check-in, grows little over a run.
            Workload::Checkin => Shape {
                shards: 8,
                nodes: 512,
                versions: 2,
                node_bytes: 2048,
                edit_lines: 2,
                doc_fanout: 3,
                doc_depth: 3,
                kinds: 4,
            },
            // A fork exports all of MAIN's history onto another shard, and
            // every merge adds to it: 64 × 200 versions keep a run's merges
            // a small share of what each fork copies.
            Workload::PrivateWorlds => Shape {
                shards: 8,
                nodes: 64,
                versions: 200,
                node_bytes: 2048,
                edit_lines: 2,
                doc_fanout: 3,
                doc_depth: 3,
                kinds: 4,
            },
        }
    }

    /// The class whose latency this workload exists to measure: history
    /// reads, durable check-ins, or a private world's fork plus merge.
    pub fn key(self) -> Key {
        match self {
            Workload::Browse => Key::Class(Class::History),
            Workload::Checkin => Key::Class(Class::Checkin),
            Workload::PrivateWorlds => Key::World,
        }
    }
}

/// Reads in a private world between its edits and its merge.
const WORLD_READS: usize = 12;

/// Which samples make up a workload's key latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Key {
    /// One operation class.
    Class(Class),
    /// `createContext` plus `mergeContext` of one private world.
    World,
}

/// What one connection measured and checked.
#[derive(Debug, Default)]
pub struct Tally {
    /// Latency samples per class, µs.
    pub lat: [Vec<f64>; Class::ALL.len()],
    /// Fork + merge latency per private world, µs.
    pub world: Vec<f64>,
    /// RPCs issued.
    pub attempted: u64,
    /// RPCs that failed, plus answers that failed a check.
    pub failed: u64,
    /// The first few failure messages.
    pub errors: Vec<String>,
    /// Node-content bytes checked in (acknowledged).
    pub user_bytes: u64,
    /// Read RPCs issued outside explicit transactions (`openNode`,
    /// `linearizeGraph`, `getGraphQuery`): the ones the server may serve
    /// without a lock.
    pub reads: u64,
}

impl Tally {
    fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.errors.len() < 8 {
            self.errors.push(what);
        }
    }

    /// Fold another connection's tally into this one.
    pub fn absorb(&mut self, other: Tally) {
        for (a, b) in self.lat.iter_mut().zip(other.lat) {
            a.extend(b);
        }
        self.world.extend(other.world);
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.user_bytes += other.user_bytes;
        self.reads += other.reads;
        for e in other.errors {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }

    /// The latency samples `key` names.
    pub fn samples(&self, key: Key) -> &[f64] {
        match key {
            Key::Class(c) => &self.lat[c.index()],
            Key::World => &self.world,
        }
    }

    /// RPCs that succeeded.
    pub fn completed(&self) -> u64 {
        self.lat.iter().map(|v| v.len() as u64).sum()
    }
}

/// Per node the workload writes: head contents and every acknowledged
/// version as `(time, hash)`.
#[derive(Debug, Clone)]
pub struct NodeLog {
    /// The node.
    pub node: NodeIndex,
    /// Contents of the current version in MAIN.
    pub head: Vec<u8>,
    /// Every version, oldest first, set-up's included.
    pub versions: Vec<(Time, u64)>,
}

/// One connection's workload state.
pub struct Worker<B> {
    /// The connection.
    pub backend: B,
    workload: Workload,
    store: Arc<Store>,
    shape: Shape,
    rng: Rng,
    /// Nodes this connection owns (writes), by design-node slot.
    pub owned: BTreeMap<usize, NodeLog>,
    /// What was measured.
    pub tally: Tally,
    steps: u64,
    /// The link the last committed check-in transaction added; the next
    /// one deletes it, so attachments do not pile up over a run.
    link: Option<LinkIndex>,
}

/// Design-node slots owned by connection `conn` of `conns`: disjoint, so
/// writers never conflict.
pub fn owned_slots(store: &Store, conn: usize, conns: usize) -> Vec<usize> {
    (0..store.nodes.len())
        .filter(|i| i % conns == conn)
        .collect()
}

impl<B: Backend> Worker<B> {
    /// A worker for connection `conn` of `conns`, its randomness drawn
    /// from `(seed, stream)`.
    pub fn new(
        backend: B,
        workload: Workload,
        store: Arc<Store>,
        seed: u64,
        stream: u64,
        conn: usize,
        conns: usize,
    ) -> Worker<B> {
        let owned = owned_slots(&store, conn, conns)
            .into_iter()
            .map(|i| {
                (
                    i,
                    NodeLog {
                        node: store.nodes[i],
                        head: store.heads[i].clone(),
                        versions: store.history[i].clone(),
                    },
                )
            })
            .collect();
        Worker {
            backend,
            workload,
            shape: workload.shape(),
            store,
            rng: Rng::new(seed, stream),
            owned,
            tally: Tally::default(),
            steps: 0,
            link: None,
        }
    }

    /// Time one call as an operation of `class`; a failed call counts as
    /// failed and records no latency.
    fn op<T>(&mut self, class: Class, f: impl FnOnce(&mut B) -> Result<T, String>) -> Option<T> {
        self.tally.attempted += 1;
        self.backend.enter(class);
        let start = Instant::now();
        let out = f(&mut self.backend);
        let us = start.elapsed().as_nanos() as f64 / 1e3;
        self.backend.exit();
        match out {
            Ok(v) => {
                self.tally.lat[class.index()].push(us);
                Some(v)
            }
            Err(e) => {
                self.tally.fail(format!("{}: {e}", class.name()));
                None
            }
        }
    }

    /// [`Worker::op`] for a read RPC.
    fn read<T>(&mut self, class: Class, f: impl FnOnce(&mut B) -> Result<T, String>) -> Option<T> {
        self.tally.reads += 1;
        self.op(class, f)
    }

    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            let w = what();
            self.tally.fail(w);
        }
    }

    /// One step of the workload.
    pub fn step(&mut self) {
        self.steps += 1;
        match self.workload {
            Workload::Browse => self.browse_step(),
            Workload::Checkin => self.checkin_step(),
            Workload::PrivateWorlds => self.world_step(),
        }
    }

    fn random_slot(&mut self) -> usize {
        self.rng.below(self.store.nodes.len() as u64) as usize
    }

    fn browse_step(&mut self) {
        let r = self.rng.unit();
        let store = Arc::clone(&self.store);
        if r < 0.30 {
            let slot = self.random_slot();
            let node = store.nodes[slot];
            let &(t, h) = store.history[slot].last().expect("node has versions");
            if let Some(o) = self.read(Class::Open, |b| b.open(MAIN_CONTEXT, node, Time::CURRENT)) {
                let ok = fnv1a(&o.contents) == h && o.current_time == t;
                self.check(ok, || format!("head of node {} does not match", node.0));
            }
        } else if r < 0.70 {
            // Skewed toward recent versions, with a tail reaching the
            // oldest: the version's age is uniform³ over the history.
            let slot = self.random_slot();
            let node = store.nodes[slot];
            let versions = &store.history[slot];
            let age = (self.rng.unit().powi(3) * versions.len() as f64) as usize;
            let (t, h) = versions[versions.len() - 1 - age.min(versions.len() - 1)];
            if let Some(o) = self.read(Class::History, |b| b.open(MAIN_CONTEXT, node, t)) {
                let ok = fnv1a(&o.contents) == h;
                self.check(ok, || {
                    format!("node {} at time {} does not match", node.0, t.0)
                });
            }
        } else if r < 0.85 {
            let root = store.doc_root;
            if let Some(n) = self.read(Class::Browse, |b| b.linearize(MAIN_CONTEXT, root)) {
                let want = self.shape.doc_nodes();
                self.check(n == want, || format!("linearize returned {n} of {want}"));
            }
        } else if let Some(n) = self.read(Class::Browse, |b| b.query(MAIN_CONTEXT)) {
            let want = store.kind0;
            self.check(n == want, || format!("graph query returned {n} of {want}"));
        }
    }

    fn owned_slot(&mut self) -> usize {
        let i = self.rng.below(self.owned.len() as u64) as usize;
        *self.owned.keys().nth(i).expect("a connection owns nodes")
    }

    /// Open an owned node at head in `ctx` and check it against the
    /// expected head; returns what `modifyNode` needs.
    fn open_owned(
        &mut self,
        ctx: ContextId,
        slot: usize,
        head: u64,
    ) -> Option<(Time, Vec<LinkPt>)> {
        let node = self.owned[&slot].node;
        let o = self.read(Class::Open, |b| b.open(ctx, node, Time::CURRENT))?;
        let ok = fnv1a(&o.contents) == head;
        self.check(ok, || {
            format!(
                "head of node {} in context {} does not match",
                node.0, ctx.0
            )
        });
        ok.then_some((o.current_time, o.link_pts))
    }

    /// Record an acknowledged version of an owned node in MAIN; its time
    /// must be later than the node's previous version.
    fn acknowledge(&mut self, slot: usize, time: Time, contents: Vec<u8>) {
        let log = self.owned.get_mut(&slot).expect("owned slot");
        let last = log.versions.last().map_or(Time(0), |v| v.0);
        let node = log.node;
        log.versions.push((time, fnv1a(&contents)));
        log.head = contents;
        self.check(time > last, || {
            format!(
                "node {} check-in time {} not after {}",
                node.0, time.0, last.0
            )
        });
    }

    fn checkin_step(&mut self) {
        if self.rng.below(5) == 0 {
            self.checkin_txn();
            return;
        }
        let slot = self.owned_slot();
        let head = fnv1a(&self.owned[&slot].head);
        let Some((t, pts)) = self.open_owned(MAIN_CONTEXT, slot, head) else {
            return;
        };
        let next = edit(&mut self.rng, &self.owned[&slot].head, 2);
        let node = self.owned[&slot].node;
        let body = next.clone();
        if let Some(t2) = self.op(Class::Checkin, |b| {
            b.modify(MAIN_CONTEXT, node, t, body, pts)
        }) {
            self.tally.user_bytes += next.len() as u64;
            self.acknowledge(slot, t2, next);
        }
    }

    /// Three distinct owned slots.
    fn three_slots(&mut self) -> Vec<usize> {
        let mut slots = Vec::with_capacity(3);
        while slots.len() < 3 {
            let s = self.owned_slot();
            if !slots.contains(&s) {
                slots.push(s);
            }
        }
        slots
    }

    /// An explicit transaction: three check-ins, an attribute set and a
    /// link add (replacing the previous transaction's link), acknowledged
    /// together by the commit.
    fn checkin_txn(&mut self) {
        // Open the nodes before beginning: no other connection writes them,
        // so their heads cannot move before the commit, and the transaction
        // holds the gate only for its writes.
        let slots = self.three_slots();
        let mut heads = Vec::with_capacity(slots.len());
        for &slot in &slots {
            let head = fnv1a(&self.owned[&slot].head);
            let Some(read) = self.open_owned(MAIN_CONTEXT, slot, head) else {
                return;
            };
            heads.push((slot, read));
        }
        if self.op(Class::TxnStep, |b| b.begin()).is_none() {
            return;
        }
        let mut pending = Vec::new();
        for (slot, (time, pts)) in heads {
            let node = self.owned[&slot].node;
            let next = edit(&mut self.rng, &self.owned[&slot].head, 2);
            let body = next.clone();
            match self.op(Class::TxnStep, |b| {
                b.modify(MAIN_CONTEXT, node, time, body, pts)
            }) {
                Some(t) => pending.push((slot, t, next)),
                None => break,
            }
        }
        let (a, b2) = (self.owned[&slots[0]].node, self.owned[&slots[1]].node);
        let (status, step) = (self.store.status, self.steps as i64);
        let mut ok = pending.len() == slots.len()
            && self
                .op(Class::TxnStep, |b| {
                    b.set_attr(MAIN_CONTEXT, a, status, Value::Int(step))
                })
                .is_some();
        if let (true, Some(old)) = (ok, self.link) {
            ok = self
                .op(Class::TxnStep, |b| b.delete_link(MAIN_CONTEXT, old))
                .is_some();
        }
        let link = ok
            .then(|| {
                self.op(Class::TxnStep, |b| {
                    b.add_link(MAIN_CONTEXT, LinkPt::current(a, 0), LinkPt::current(b2, 0))
                })
            })
            .flatten();
        let Some(link) = link else {
            let _ = self.op(Class::TxnStep, |b| b.abort());
            return;
        };
        if self.op(Class::Checkin, |b| b.commit()).is_some() {
            self.link = Some(link);
            for (slot, t, contents) in pending {
                self.tally.user_bytes += contents.len() as u64;
                self.acknowledge(slot, t, contents);
            }
        }
    }

    /// One private world: fork MAIN, edit three owned nodes in it and read
    /// around, merge it into MAIN through the two-phase path, destroy it,
    /// then check MAIN shows the edits.
    fn world_step(&mut self) {
        let start = Instant::now();
        let Some(world) = self.op(Class::Fork, |b| b.fork(MAIN_CONTEXT)) else {
            return;
        };
        let fork_us = start.elapsed().as_nanos() as f64 / 1e3;
        let slots = self.three_slots();
        let mut edits = Vec::new();
        for &slot in &slots {
            let head = fnv1a(&self.owned[&slot].head);
            let Some((t, pts)) = self.open_owned(world, slot, head) else {
                continue;
            };
            let next = edit(&mut self.rng, &self.owned[&slot].head, 2);
            let node = self.owned[&slot].node;
            let body = next.clone();
            if self
                .op(Class::Checkin, |b| b.modify(world, node, t, body, pts))
                .is_some()
            {
                self.tally.user_bytes += next.len() as u64;
                edits.push((slot, next));
            }
        }
        // Look around the world: owned nodes, edited or not.
        for _ in 0..WORLD_READS {
            let slot = self.owned_slot();
            let h = match edits.iter().find(|(s, _)| *s == slot) {
                Some((_, contents)) => fnv1a(contents),
                None => fnv1a(&self.owned[&slot].head),
            };
            self.open_owned(world, slot, h);
        }
        let merge_start = Instant::now();
        let merged = self.op(Class::Merge, |b| b.merge(world));
        let merge_us = merge_start.elapsed().as_nanos() as f64 / 1e3;
        let _ = self.op(Class::Destroy, |b| b.destroy(world));
        let Some(modified) = merged else {
            return;
        };
        self.tally.world.push(fork_us + merge_us);
        for (slot, contents) in edits {
            let node = self.owned[&slot].node;
            self.check(modified.contains(&node), || {
                format!("merge of context {} did not carry node {}", world.0, node.0)
            });
            let h = fnv1a(&contents);
            if let Some(o) = self.read(Class::Open, |b| b.open(MAIN_CONTEXT, node, Time::CURRENT)) {
                let ok = fnv1a(&o.contents) == h;
                self.check(ok, || format!("merged node {} does not match", node.0));
                self.acknowledge(slot, o.current_time, contents);
            }
        }
    }
}

/// Re-read every acknowledged version of `logs`, and each node's head,
/// through `read`, counting mismatches. `read(node, time)` returns the
/// contents hash.
pub fn read_back(
    logs: &[NodeLog],
    mut read: impl FnMut(NodeIndex, Time) -> Result<u64, String>,
) -> (u64, Vec<String>) {
    let mut failed = 0;
    let mut errors = Vec::new();
    for log in logs {
        for &(t, h) in &log.versions {
            let got = read(log.node, t);
            if got.as_ref().ok() != Some(&h) {
                failed += 1;
                if errors.len() < 8 {
                    errors.push(format!(
                        "read-back of node {} at {}: {got:?}",
                        log.node.0, t.0
                    ));
                }
            }
        }
        let head = read(log.node, Time::CURRENT);
        if head.as_ref().ok() != Some(&fnv1a(&log.head)) {
            failed += 1;
            if errors.len() < 8 {
                errors.push(format!(
                    "head of node {} after reopen: {head:?}",
                    log.node.0
                ));
            }
        }
    }
    (failed, errors)
}
