//! Recovery fuzzing (seeded, deterministic): any committed sequence of HAM
//! operations must survive a crash (drop without checkpoint) byte-for-byte
//! — WAL replay has to reproduce the exact observable state, including all
//! history.

use neptune_ham::types::{LinkPt, Machine, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, Value};
use neptune_storage::testutil::{TempDir, XorShift};

#[derive(Debug, Clone)]
enum Op {
    AddNode(bool),
    Modify(usize, Vec<u8>),
    DeleteNode(usize),
    AddLink(usize, usize, u8),
    SetAttr(usize, u8, i64),
    DeleteAttr(usize, u8),
    SetDemon(u8),
    Txn(Vec<OpInner>, bool), // ops, commit?
    Checkpoint,
    Fork,
}

#[derive(Debug, Clone)]
enum OpInner {
    AddNode,
    SetAttr(usize, u8, i64),
}

const ATTRS: [&str; 3] = ["document", "status", "owner"];

/// Weighted op choice mirroring the original generation frequencies.
fn gen_op(rng: &mut XorShift) -> Op {
    match rng.below(22) {
        0..=3 => Op::AddNode(rng.chance(1, 2)),
        4..=7 => {
            let target = rng.next_u64() as usize;
            let len = rng.below(24) as usize;
            Op::Modify(target, rng.bytes(len))
        }
        8 => Op::DeleteNode(rng.next_u64() as usize),
        9..=11 => Op::AddLink(
            rng.next_u64() as usize,
            rng.next_u64() as usize,
            rng.below(256) as u8,
        ),
        12..=15 => Op::SetAttr(
            rng.next_u64() as usize,
            rng.below(3) as u8,
            rng.next_u64() as i64,
        ),
        16 => Op::DeleteAttr(rng.next_u64() as usize, rng.below(3) as u8),
        17 => Op::SetDemon(rng.below(256) as u8),
        18..=19 => {
            let count = 1 + rng.below(4) as usize;
            let inner = (0..count)
                .map(|_| {
                    if rng.chance(1, 2) {
                        OpInner::AddNode
                    } else {
                        OpInner::SetAttr(
                            rng.next_u64() as usize,
                            rng.below(3) as u8,
                            rng.next_u64() as i64,
                        )
                    }
                })
                .collect();
            Op::Txn(inner, rng.chance(1, 2))
        }
        20 => Op::Checkpoint,
        _ => Op::Fork,
    }
}

fn live_nodes(ham: &Ham) -> Vec<NodeIndex> {
    ham.graph(MAIN_CONTEXT)
        .unwrap()
        .nodes()
        .filter(|n| n.exists_at(Time::CURRENT))
        .map(|n| n.id)
        .collect()
}

fn apply(ham: &mut Ham, op: &Op) {
    let nodes = live_nodes(ham);
    match op {
        Op::AddNode(keep) => {
            ham.add_node(MAIN_CONTEXT, *keep).unwrap();
        }
        Op::Modify(i, contents) => {
            if nodes.is_empty() {
                return;
            }
            let node = nodes[i % nodes.len()];
            let opened = ham
                .open_node(MAIN_CONTEXT, node, Time::CURRENT, &[])
                .unwrap();
            ham.modify_node(
                MAIN_CONTEXT,
                node,
                opened.current_time,
                contents.clone(),
                &opened.link_pts,
            )
            .unwrap();
        }
        Op::DeleteNode(i) => {
            if !nodes.is_empty() {
                ham.delete_node(MAIN_CONTEXT, nodes[i % nodes.len()])
                    .unwrap();
            }
        }
        Op::AddLink(a, b, offset) => {
            if !nodes.is_empty() {
                let from = nodes[a % nodes.len()];
                let to = nodes[b % nodes.len()];
                ham.add_link(
                    MAIN_CONTEXT,
                    LinkPt::current(from, *offset as u64),
                    LinkPt::current(to, 0),
                )
                .unwrap();
            }
        }
        Op::SetAttr(i, a, v) => {
            if !nodes.is_empty() {
                let attr = ham
                    .get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])
                    .unwrap();
                ham.set_node_attribute_value(
                    MAIN_CONTEXT,
                    nodes[i % nodes.len()],
                    attr,
                    Value::Int(*v),
                )
                .unwrap();
            }
        }
        Op::DeleteAttr(i, a) => {
            if !nodes.is_empty() {
                let attr = ham
                    .get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])
                    .unwrap();
                let _ = ham.delete_node_attribute(MAIN_CONTEXT, nodes[i % nodes.len()], attr);
            }
        }
        Op::SetDemon(tag) => {
            // Only durable (non-callback) demon kinds: callbacks are
            // process-local by design.
            let demon = if tag % 3 == 0 {
                None
            } else {
                Some(neptune_ham::DemonSpec::notify("fuzz", "fired"))
            };
            let event = neptune_ham::Event::ALL[(*tag as usize) % neptune_ham::Event::ALL.len()];
            ham.set_graph_demon_value(MAIN_CONTEXT, event, demon)
                .unwrap();
        }
        Op::Txn(inner, commit) => {
            ham.begin_transaction().unwrap();
            for op in inner {
                match op {
                    OpInner::AddNode => {
                        ham.add_node(MAIN_CONTEXT, true).unwrap();
                    }
                    OpInner::SetAttr(i, a, v) => {
                        let nodes = live_nodes(ham);
                        if !nodes.is_empty() {
                            let attr = ham
                                .get_attribute_index(MAIN_CONTEXT, ATTRS[*a as usize])
                                .unwrap();
                            ham.set_node_attribute_value(
                                MAIN_CONTEXT,
                                nodes[i % nodes.len()],
                                attr,
                                Value::Int(*v),
                            )
                            .unwrap();
                        }
                    }
                }
            }
            if *commit {
                ham.commit_transaction().unwrap();
            } else {
                ham.abort_transaction().unwrap();
            }
        }
        Op::Checkpoint => ham.checkpoint().unwrap(),
        Op::Fork => {
            // Contexts must also survive recovery.
            let ctx = ham.create_context(MAIN_CONTEXT).unwrap();
            ham.add_node(ctx, true).unwrap();
        }
    }
}

/// Full observable fingerprint of a Ham across all contexts and all times.
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
            for (event, demon) in graph.graph_demons.all_at(time) {
                out.push_str(&format!("t{t} demon {event} {}\n", demon.name));
            }
        }
    }
    out
}

#[test]
fn committed_state_survives_crash() {
    let mut rng = XorShift::new(0xF002);
    for case in 0..24 {
        let count = 1 + rng.below(24) as usize;
        let ops: Vec<Op> = (0..count).map(|_| gen_op(&mut rng)).collect();
        let dir = TempDir::new(&format!("neptune-fuzz-{case}"));
        let (mut ham, pid, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        for op in &ops {
            apply(&mut ham, op);
        }
        let before = fingerprint(&ham);
        drop(ham); // crash: no checkpoint

        let (ham, _) = Ham::open_graph(pid, &Machine::local(), &dir).unwrap();
        let after = fingerprint(&ham);
        assert_eq!(before, after, "case {case}");
    }
}
