//! Golden WAL bytes: one record of every `RedoOp` variant, plus a `Begin`
//! and a sequence-stamped `Commit`, pinned to its exact on-disk frame.
//!
//! Recovery replays logs that earlier builds wrote, so these bytes are a
//! format: a changed tag, field order, length prefix or frame header
//! changes the hex. Every field of a value gets a distinct number, so two
//! swapped fields show too. Each pinned frame must also parse back to its
//! record and its op, which pins the decoder.

use std::collections::BTreeSet;

use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::graph::HamGraph;
use neptune_ham::txn::RedoOp;
use neptune_ham::types::{ContextId, LinkIndex, LinkPt, NodeIndex, ProjectId, Protections, Time};
use neptune_ham::value::Value;
use neptune_storage::checksum::crc32;
use neptune_storage::codec::{read_u32_at, Decode, Encode};
use neptune_storage::testutil::TempDir;
use neptune_storage::wal::{RecordKind, Wal, WalRecord, WAL_MAGIC};

/// How many variants `RedoOp` has; a new variant needs a golden entry.
const VARIANTS: usize = 19;

/// Transaction id of every pinned record.
const TXN: u64 = 0x2a;

/// Commit sequence stamped into the pinned `Commit` record.
const SEQ: u64 = 0x0102_0304_0506_0708;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// The graph-carrying ops (`AdoptContext`, `MergeForeign`) journal a whole
/// `HamGraph`. `GraphField` fills that field from the one fixture graph
/// whether the variant holds the graph itself or its encoding, so the
/// pinned frames do not depend on that in-memory choice.
trait GraphField {
    fn from_graph(graph: HamGraph) -> Self;
}

impl GraphField for Vec<u8> {
    fn from_graph(graph: HamGraph) -> Self {
        graph.to_bytes()
    }
}

impl GraphField for HamGraph {
    fn from_graph(graph: HamGraph) -> Self {
        graph
    }
}

/// A small graph touching every part of the graph encoding: an archived
/// and a file node, contents, a link, an interned attribute and its value.
fn fixture_graph<T: GraphField>() -> T {
    let mut g = HamGraph::new(ProjectId(7));
    let (a, _) = g.add_node(true);
    let (b, _) = g.add_node(false);
    let t = g.tick();
    g.node_mut(a)
        .unwrap()
        .modify(b"abc".to_vec(), t, "edit")
        .unwrap();
    g.add_link(LinkPt::current(a, 1), LinkPt::pinned(b, 0, Time(3)))
        .unwrap();
    let status = g.attribute_index("status");
    g.set_node_attr(a, status, Value::str("draft")).unwrap();
    T::from_graph(g)
}

fn golden() -> Vec<(RedoOp, &'static str)> {
    use RedoOp::*;
    vec![
        (
            AddNode {
                context: ContextId(1),
                id: NodeIndex(2),
                time: Time(3),
                keep_history: true,
            },
            "09000000ef08e1b1022a01050001020301",
        ),
        (
            DeleteNode {
                context: ContextId(1),
                id: NodeIndex(2),
                time: Time(3),
            },
            "0800000057f5fdac032a010401010203",
        ),
        (
            AddLink {
                context: ContextId(1),
                id: LinkIndex(2),
                from: LinkPt::current(NodeIndex(3), 4),
                to: LinkPt::pinned(NodeIndex(5), 6, Time(7)),
                time: Time(8),
            },
            "1000000034223169042a010c020102030400010506070008",
        ),
        (
            DeleteLink {
                context: ContextId(1),
                id: LinkIndex(2),
                time: Time(3),
            },
            "080000005b349bc0052a010403010203",
        ),
        (
            ModifyNode {
                context: ContextId(1),
                id: NodeIndex(2),
                contents: b"node text".to_vec().into(),
                link_pts: vec![
                    LinkPt::current(NodeIndex(2), 3),
                    LinkPt::pinned(NodeIndex(2), 4, Time(5)),
                ],
                time: Time(6),
            },
            "1b000000a8da6c55062a0117040102096e6f6465207465787402020300010204050006",
        ),
        (
            SetNodeAttr {
                context: ContextId(1),
                node: NodeIndex(2),
                attr: "document".into(),
                value: Value::str("requirements"),
                time: Time(3),
            },
            "1f00000036affd66072a011b05010208646f63756d656e74000c726571756972656d656e747303",
        ),
        (
            DeleteNodeAttr {
                context: ContextId(1),
                node: NodeIndex(2),
                attr: "document".into(),
                time: Time(3),
            },
            "110000005ca935a6082a010d06010208646f63756d656e7403",
        ),
        (
            SetLinkAttr {
                context: ContextId(1),
                link: LinkIndex(2),
                attr: "relation".into(),
                value: Value::Int(-3),
                time: Time(4),
            },
            "1300000053ce9399092a010f0701020872656c6174696f6e010504",
        ),
        (
            DeleteLinkAttr {
                context: ContextId(1),
                link: LinkIndex(2),
                attr: "relation".into(),
                time: Time(3),
            },
            "11000000dbf8333e0a2a010d0801020872656c6174696f6e03",
        ),
        (
            InternAttr {
                context: ContextId(1),
                name: "icon".into(),
                time: Time(2),
            },
            "0c00000054c88df30b2a010809010469636f6e02",
        ),
        (
            SetGraphDemon {
                context: ContextId(1),
                event: Event::NodeModified,
                demon: Some(DemonSpec::notify("d", "msg")),
                time: Time(2),
            },
            "10000000237775390c2a010c0a010401016400036d736702",
        ),
        (
            SetNodeDemon {
                context: ContextId(1),
                node: NodeIndex(2),
                event: Event::AttributeChanged,
                demon: None,
                time: Time(3),
            },
            "0a000000988839cf0d2a01060b0102070003",
        ),
        (
            ChangeProtection {
                context: ContextId(1),
                node: NodeIndex(2),
                protections: Protections::PRIVATE,
            },
            "090000005ebc856c0e2a01050c01028003",
        ),
        (
            CreateContext {
                id: ContextId(1),
                from: ContextId(2),
                time: Time(3),
            },
            "08000000a05f84b10f2a01040d010203",
        ),
        (
            MergeContext {
                child: ContextId(1),
                into: ContextId(2),
                policy: 1,
            },
            "08000000e5b2a4e8102a01040e010201",
        ),
        (DestroyContext { id: ContextId(1) }, "060000006ad89eb9112a01020f01"),
        (
            AdoptContext {
                id: ContextId(1),
                from: ContextId(2),
                time: Time(3),
                graph: fixture_graph(),
            },
            "c40000003f4f23c3122a01bf0110010203b9010701070302020102010201010203616263040102000005040000000001000107010005647261667400a40301010202076372656174656404046564697402050a6c696e6b206164646564070d617474726962757465207365740203010301010100030000a40301010103076372656174656401050a6c696e6b20616464656401010501050101010105010100010201050100030000010507637265617465640106737461747573060001010d67726170682063726561746564",
        ),
        (
            MergeForeign {
                into: ContextId(1),
                policy: 2,
                fork_time: Time(3),
                graph: fixture_graph(),
            },
            "c4000000354d647b132a01bf0111010203b9010701070302020102010201010203616263040102000005040000000001000107010005647261667400a40301010202076372656174656404046564697402050a6c696e6b206164646564070d617474726962757465207365740203010301010100030000a40301010103076372656174656401050a6c696e6b20616464656401010501050101010105010100010201050100030000010507637265617465640106737461747573060001010d67726170682063726561746564",
        ),
        (
            RefixFork {
                child: ContextId(1),
                into: ContextId(2),
                time: Time(3),
            },
            "0800000014352f98142a010412010203",
        ),
    ]
}

/// The `Begin` record opening the pinned transaction (LSN 1).
const BEGIN: &str = "040000004f7b22ac012a0000";

/// The `Commit` record closing it, stamped with [`SEQ`] (LSN 21).
const COMMIT: &str = "0c000000b9cb9ef4152a02080807060504030201";

fn variant(op: &RedoOp) -> String {
    let debug = format!("{op:?}");
    debug
        .split([' ', '{', '('])
        .next()
        .unwrap_or_default()
        .to_string()
}

/// Split a log's bytes after the file header into its frames, checking
/// each frame's length and CRC.
fn frames(log: &[u8]) -> Vec<&[u8]> {
    assert!(log.starts_with(WAL_MAGIC));
    let mut out = Vec::new();
    let mut pos = WAL_MAGIC.len();
    while pos < log.len() {
        let len = read_u32_at(log, pos).unwrap() as usize;
        let crc = read_u32_at(log, pos + 4).unwrap();
        let end = pos + 8 + len;
        assert_eq!(crc32(&log[pos + 8..end]), crc, "frame at {pos}");
        out.push(&log[pos..end]);
        pos = end;
    }
    out
}

#[test]
fn every_record_kind_writes_its_pinned_frame() {
    let dir = TempDir::new("neptune-wal-golden");
    std::fs::create_dir_all(dir.path()).unwrap();
    let path = dir.path().join("wal.log");
    let cases = golden();
    {
        let mut wal = Wal::open(&path).unwrap();
        wal.append(TXN, RecordKind::Begin, Vec::new()).unwrap();
        for (op, _) in &cases {
            wal.append(TXN, RecordKind::Op, op.to_bytes()).unwrap();
        }
        wal.append_commit_with(TXN, SEQ.to_le_bytes().to_vec())
            .unwrap();
    }
    let log = std::fs::read(&path).unwrap();
    let frames = frames(&log);
    assert_eq!(frames.len(), cases.len() + 2);

    let mut want = vec![("Begin".to_string(), BEGIN)];
    want.extend(cases.iter().map(|(op, hex)| (variant(op), *hex)));
    want.push(("Commit".to_string(), COMMIT));
    let drifted: Vec<String> = frames
        .iter()
        .zip(&want)
        .filter_map(|(frame, (name, want))| {
            let got = hex(frame);
            (got != *want).then(|| format!("{name}: want {want}, got {got}"))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "WAL bytes drifted:\n{}",
        drifted.join("\n")
    );

    // Each frame parses back to its record, and each op record to its op.
    let records: Vec<WalRecord> = frames
        .iter()
        .map(|frame| WalRecord::from_bytes(&frame[8..]).unwrap())
        .collect();
    for (i, record) in records.iter().enumerate() {
        assert_eq!((record.lsn, record.txn_id), (i as u64 + 1, TXN));
    }
    let (begin, rest) = records.split_first().unwrap();
    let (commit, ops) = rest.split_last().unwrap();
    assert_eq!(begin.kind, RecordKind::Begin);
    assert!(begin.payload.is_empty());
    assert_eq!(commit.kind, RecordKind::Commit);
    assert_eq!(commit.payload, SEQ.to_le_bytes());
    for (record, (op, _)) in ops.iter().zip(&cases) {
        assert_eq!(record.kind, RecordKind::Op);
        assert_eq!(&RedoOp::from_bytes(&record.payload).unwrap(), op);
    }

    // Recovery hands back the same transaction.
    let mut wal = Wal::open(&path).unwrap();
    let committed = wal.recover_committed_after(0).unwrap();
    assert_eq!(committed.len(), 1);
    assert_eq!((committed[0].txn_id, committed[0].seq), (TXN, SEQ));
    assert_eq!(committed[0].ops.len(), cases.len());

    let tags: BTreeSet<u8> = ops.iter().map(|r| r.payload[0]).collect();
    assert_eq!(tags.len(), VARIANTS, "every variant needs a golden entry");
}
