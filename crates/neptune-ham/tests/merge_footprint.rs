//! A cross-shard merge journals `context::merge_footprint` — the part of
//! the child the merge acts on — instead of the child's whole graph. These
//! tests prove the two are interchangeable: for random child edit scripts,
//! under every conflict policy, merging the footprint leaves the parent
//! byte-identical and reports the same [`MergeReport`] as merging the
//! whole child, including after the footprint's WAL round trip and across
//! repeated merges of one child.

use neptune_ham::context::{merge_context, merge_footprint, ConflictPolicy, MergeReport};
use neptune_ham::graph::HamGraph;
use neptune_ham::types::{LinkIndex, LinkPt, NodeIndex, ProjectId, Time};
use neptune_ham::value::Value;
use neptune_storage::codec::{Decode, Encode};
use neptune_storage::testutil::XorShift;

const ATTRS: [&str; 3] = ["status", "owner", "kind"];
const POLICIES: [ConflictPolicy; 3] = [
    ConflictPolicy::Fail,
    ConflictPolicy::PreferChild,
    ConflictPolicy::PreferParent,
];

/// How often each shape of edit the footprint must handle was exercised.
#[derive(Default)]
struct Coverage {
    created_then_deleted: usize,
    prefork_node_deleted: usize,
    prefork_link_deleted: usize,
    prefork_node_attr_set: usize,
    prefork_node_attr_deleted: usize,
    prefork_link_attr_set: usize,
    prefork_link_attr_deleted: usize,
}

fn live_nodes(g: &HamGraph) -> Vec<NodeIndex> {
    g.nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| n.id)
        .collect()
}

fn live_links(g: &HamGraph) -> Vec<LinkIndex> {
    g.links()
        .filter(|l| l.exists_at(Time::CURRENT))
        .map(|l| l.id)
        .collect()
}

fn pick<T: Copy>(rng: &mut XorShift, items: &[T]) -> Option<T> {
    (!items.is_empty()).then(|| items[rng.index(items.len())])
}

fn modify(g: &mut HamGraph, id: NodeIndex, rng: &mut XorShift) {
    let now = g.tick();
    let len = 1 + rng.index(24);
    g.node_mut(id)
        .unwrap()
        .modify(rng.bytes(len), now, "edit")
        .unwrap();
}

/// A shared history for parent and child to fork from.
fn base_graph(rng: &mut XorShift) -> HamGraph {
    let mut g = HamGraph::new(ProjectId(1));
    for _ in 0..4 + rng.index(8) {
        let (id, _) = g.add_node(true);
        modify(&mut g, id, rng);
    }
    for _ in 0..rng.index(8) {
        let nodes = live_nodes(&g);
        let (a, b) = (pick(rng, &nodes).unwrap(), pick(rng, &nodes).unwrap());
        let (l, _) = g
            .add_link(LinkPt::current(a, 0), LinkPt::current(b, 0))
            .unwrap();
        if rng.chance(1, 2) {
            let attr = g.attribute_index(ATTRS[rng.index(ATTRS.len())]);
            g.set_link_attr(l, attr, Value::Int(0)).unwrap();
        }
    }
    for _ in 0..rng.index(6) {
        let id = pick(rng, &live_nodes(&g)).unwrap();
        let attr = g.attribute_index(ATTRS[rng.index(ATTRS.len())]);
        g.set_node_attr(id, attr, Value::str("base")).unwrap();
    }
    g
}

/// One random edit to `g`. `prefork` bounds the objects that existed at
/// the fork; edits on them are what the footprint must keep.
fn edit(g: &mut HamGraph, rng: &mut XorShift, prefork: Time, cov: &mut Coverage) {
    let nodes = live_nodes(g);
    let old_nodes: Vec<NodeIndex> = nodes
        .iter()
        .copied()
        .filter(|id| g.node(*id).unwrap().created <= prefork)
        .collect();
    let links = live_links(g);
    let old_links: Vec<LinkIndex> = links
        .iter()
        .copied()
        .filter(|id| g.link(*id).unwrap().created <= prefork)
        .collect();
    let attr_name = ATTRS[rng.index(ATTRS.len())];
    match rng.below(11) {
        0 => {
            let (id, _) = g.add_node(rng.chance(3, 4));
            if g.node(id).unwrap().is_archive() {
                modify(g, id, rng);
            }
            if rng.chance(1, 2) {
                let attr = g.attribute_index(attr_name);
                g.set_node_attr(id, attr, Value::Int(7)).unwrap();
            }
        }
        1 => {
            let (id, _) = g.add_node(true);
            modify(g, id, rng);
            g.delete_node(id).unwrap();
            cov.created_then_deleted += 1;
        }
        2 => {
            // A new link, often between pre-fork nodes the script leaves
            // otherwise untouched.
            let (Some(a), Some(b)) = (pick(rng, &nodes), pick(rng, &old_nodes)) else {
                return;
            };
            let (l, _) = g
                .add_link(LinkPt::current(a, 0), LinkPt::current(b, 0))
                .unwrap();
            if rng.chance(1, 2) {
                let attr = g.attribute_index(attr_name);
                g.set_link_attr(l, attr, Value::str("new")).unwrap();
            }
        }
        3 => {
            if let Some(id) = pick(rng, &nodes) {
                if g.node(id).unwrap().is_archive() {
                    modify(g, id, rng);
                }
            }
        }
        4 => {
            if let Some(id) = pick(rng, &old_nodes) {
                g.delete_node(id).unwrap();
                cov.prefork_node_deleted += 1;
            }
        }
        5 => {
            if let Some(id) = pick(rng, &old_links) {
                g.delete_link(id).unwrap();
                cov.prefork_link_deleted += 1;
            }
        }
        6 => {
            if let Some(id) = pick(rng, &old_nodes) {
                let attr = g.attribute_index(attr_name);
                g.set_node_attr(id, attr, Value::Int(rng.below(9) as i64))
                    .unwrap();
                cov.prefork_node_attr_set += 1;
            }
        }
        7 => {
            if let Some(id) = pick(rng, &old_nodes) {
                let attr = g.attribute_index(attr_name);
                if g.delete_node_attr(id, attr).is_ok() {
                    cov.prefork_node_attr_deleted += 1;
                }
            }
        }
        8 => {
            if let Some(id) = pick(rng, &old_links) {
                let attr = g.attribute_index(attr_name);
                g.set_link_attr(id, attr, Value::Int(rng.below(9) as i64))
                    .unwrap();
                cov.prefork_link_attr_set += 1;
            }
        }
        9 => {
            if let Some(id) = pick(rng, &old_links) {
                let attr = g.attribute_index(attr_name);
                if g.delete_link_attr(id, attr).is_ok() {
                    cov.prefork_link_attr_deleted += 1;
                }
            }
        }
        _ => {
            g.attribute_index(&format!("fresh{}", rng.below(4)));
        }
    }
}

/// Merge `child` into a copy of `parent` whole and as its footprint
/// (directly and after an encode/decode round trip, as WAL replay sees
/// it), and require identical outcomes. Returns the whole-child outcome.
fn check_equivalent(
    parent: &HamGraph,
    child: &HamGraph,
    fork: Time,
    policy: ConflictPolicy,
    what: &str,
) -> Option<(HamGraph, MergeReport)> {
    let mut whole = parent.clone();
    let expected = merge_context(&mut whole, child, fork, policy);

    let footprint = merge_footprint(parent, child, fork);
    let replayed = HamGraph::from_bytes(&footprint.to_bytes()).unwrap();
    for (label, graph) in [("footprint", &footprint), ("replayed footprint", &replayed)] {
        let mut restricted = parent.clone();
        let got = merge_context(&mut restricted, graph, fork, policy);
        match (&expected, &got) {
            (Ok(want), Ok(have)) => {
                assert_eq!(want, have, "{what}: {label} report differs ({policy:?})");
                assert!(
                    whole.to_bytes() == restricted.to_bytes(),
                    "{what}: {label} merge left a different parent ({policy:?})"
                );
            }
            (Err(want), Err(have)) => assert_eq!(
                format!("{want:?}"),
                format!("{have:?}"),
                "{what}: {label} merge failed differently ({policy:?})"
            ),
            _ => panic!("{what}: whole gave {expected:?}, {label} gave {got:?} ({policy:?})"),
        }
    }
    expected.ok().map(|report| (whole, report))
}

#[test]
fn footprint_merge_equals_whole_child_merge() {
    let mut cov = Coverage::default();
    let mut left_out_endpoints = 0usize;
    for case in 0..300u64 {
        let mut rng = XorShift::new(0xF00D ^ (case * 0x9E37_79B9));
        let base = base_graph(&mut rng);
        let fork = base.now();
        let mut child = base.clone();
        let mut parent = base;
        for _ in 0..1 + rng.index(14) {
            edit(&mut child, &mut rng, fork, &mut cov);
        }
        // Some parents move too, so every policy meets real conflicts.
        if rng.chance(1, 2) {
            for _ in 0..1 + rng.index(4) {
                edit(&mut parent, &mut rng, fork, &mut Coverage::default());
            }
        }
        let footprint = merge_footprint(&parent, &child, fork);
        left_out_endpoints += child
            .links()
            .filter(|l| l.created > fork && l.exists_at(Time::CURRENT))
            .flat_map(|l| [l.from.node, l.to.node])
            .filter(|n| footprint.node(*n).is_err())
            .count();
        for policy in POLICIES {
            let what = format!("case {case}");
            let Some((merged, _)) = check_equivalent(&parent, &child, fork, policy, &what) else {
                continue;
            };
            // Merge the same child again after it re-forks from the merge
            // point, as the machine does: its clock now trails the fork
            // time, the skew the footprint must not disturb.
            let refork = merged.now();
            let mut child2 = child.clone();
            for _ in 0..1 + rng.index(6) {
                edit(&mut child2, &mut rng, refork, &mut cov);
            }
            check_equivalent(
                &merged,
                &child2,
                refork,
                policy,
                &format!("{what} re-merge"),
            );
        }
    }
    for (shape, count) in [
        ("created then deleted", cov.created_then_deleted),
        ("pre-fork node deleted", cov.prefork_node_deleted),
        ("pre-fork link deleted", cov.prefork_link_deleted),
        ("pre-fork node attr set", cov.prefork_node_attr_set),
        ("pre-fork node attr deleted", cov.prefork_node_attr_deleted),
        ("pre-fork link attr set", cov.prefork_link_attr_set),
        ("pre-fork link attr deleted", cov.prefork_link_attr_deleted),
        ("new link to unchanged pre-fork node", left_out_endpoints),
    ] {
        assert!(count > 0, "the scripts never exercised: {shape}");
    }
}

#[test]
fn footprint_leaves_out_unchanged_history() {
    let mut g = HamGraph::new(ProjectId(1));
    let mut nodes = Vec::new();
    for i in 0..32u8 {
        let (id, _) = g.add_node(true);
        for v in 0..8u8 {
            let now = g.tick();
            g.node_mut(id)
                .unwrap()
                .modify(vec![i, v, b'\n'], now, "v")
                .unwrap();
        }
        nodes.push(id);
    }
    let fork = g.now();
    let mut child = g.clone();
    let now = child.tick();
    child
        .node_mut(nodes[3])
        .unwrap()
        .modify(b"edited\n".to_vec(), now, "edit")
        .unwrap();
    let (fresh, _) = child.add_node(true);
    child
        .add_link(LinkPt::current(fresh, 0), LinkPt::current(nodes[9], 0))
        .unwrap();

    let footprint = merge_footprint(&g, &child, fork);
    let kept: Vec<NodeIndex> = footprint.nodes().map(|n| n.id).collect();
    assert_eq!(kept, vec![nodes[3], fresh]);
    assert_eq!(footprint.links().count(), 1);
    assert!(footprint.to_bytes().len() * 8 < child.to_bytes().len());

    let report = check_equivalent(&g, &child, fork, ConflictPolicy::Fail, "small")
        .unwrap()
        .1;
    assert_eq!(report.nodes_modified, vec![nodes[3]]);
    assert_eq!(report.links_added.len(), 1);
}

/// A cross-shard fork+merge of a large MAIN logs the child's change on
/// MAIN's shard, not MAIN: after a one-node edit, shard 0's WAL grows by
/// less than a tenth of MAIN's encoded size.
#[test]
fn cross_shard_merge_logs_a_small_record_for_a_large_main() {
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_ham::ShardedHam;
    use neptune_storage::testutil::TempDir;

    let dir = TempDir::new("neptune-footprint-wal");
    let (ham, _, _) = ShardedHam::create(&dir, Protections::DEFAULT, 4).unwrap();
    let mut rng = XorShift::new(0xB16);
    let nodes: Vec<NodeIndex> = {
        let mut main = ham.lock_home(MAIN_CONTEXT).unwrap();
        (0..48)
            .map(|_| {
                let (node, t) = main.add_node(MAIN_CONTEXT, true).unwrap();
                main.modify_node(MAIN_CONTEXT, node, t, rng.bytes(24 * 1024), &[])
                    .unwrap();
                node
            })
            .collect()
    };
    let main_bytes = ham
        .lock_home(MAIN_CONTEXT)
        .unwrap()
        .graph(MAIN_CONTEXT)
        .unwrap()
        .to_bytes()
        .len();
    assert!(main_bytes >= 1 << 20, "MAIN encodes to only {main_bytes} B");
    ham.checkpoint().unwrap();

    let wal = dir.path().join("wal.log");
    let wal_len = || std::fs::metadata(&wal).map_or(0, |m| m.len());
    let child = loop {
        let c = ham.create_context(MAIN_CONTEXT).unwrap();
        if ham.shard_of(c) != 0 {
            break c;
        }
    };
    let before = wal_len();
    {
        let mut guard = ham.lock_home(child).unwrap();
        let opened = guard
            .open_node(child, nodes[7], Time::CURRENT, &[])
            .unwrap();
        guard
            .modify_node(
                child,
                nodes[7],
                opened.current_time,
                b"edited\n".to_vec(),
                &[],
            )
            .unwrap();
    }
    let report = ham.merge_context(child, ConflictPolicy::Fail).unwrap();
    assert_eq!(report.nodes_modified, vec![nodes[7]]);
    let grown = wal_len() - before;
    assert!(
        grown * 10 < main_bytes as u64,
        "the merge grew MAIN's WAL by {grown} B against MAIN's {main_bytes} B"
    );
}
