//! Golden wire bytes: one fixed value of every `Request` variant, pinned
//! to its exact encoding.
//!
//! The roundtrip tests accept any self-consistent codec, so a reordered
//! field or a swapped tag would pass them. These bytes are the deployed
//! protocol: every field of a value gets a distinct number, so a change of
//! tag, field order or field framing changes the hex. Each pinned string
//! must also decode back to its value, which pins the decoder too.

use std::collections::BTreeSet;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::types::{
    AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Protections, Time,
};
use neptune_ham::value::Value;
use neptune_obs::TraceContext;
use neptune_server::{ObsSetting, Request, TracedRequest, TRACE_EXT_TAG};
use neptune_storage::codec::{Decode, Encode};

/// How many variants `Request` has; a new variant needs a golden entry.
const VARIANTS: usize = 46;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(text: &str) -> Vec<u8> {
    (0..text.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&text[i..i + 2], 16).unwrap())
        .collect()
}

fn pt(node: u64, position: u64, time: u64, track_current: bool) -> LinkPt {
    LinkPt {
        node: NodeIndex(node),
        position,
        time: Time(time),
        track_current,
    }
}

fn open(context: u64, node: u64) -> Request {
    Request::OpenNode {
        context: ContextId(context),
        node: NodeIndex(node),
        time: Time(3),
        attrs: vec![AttributeIndex(4), AttributeIndex(5)],
    }
}

fn golden() -> Vec<(Request, &'static str)> {
    use Request::*;
    vec![
        (
            AddNode {
                context: ContextId(1),
                keep_history: true,
            },
            "000101",
        ),
        (
            DeleteNode {
                context: ContextId(1),
                node: NodeIndex(2),
            },
            "010102",
        ),
        (
            AddLink {
                context: ContextId(1),
                from: pt(2, 3, 4, true),
                to: pt(5, 6, 7, false),
            },
            "02010203040105060700",
        ),
        (
            CopyLink {
                context: ContextId(1),
                link: LinkIndex(2),
                time: Time(3),
                keep_source: true,
                pt: pt(4, 5, 6, false),
            },
            "030102030104050600",
        ),
        (
            DeleteLink {
                context: ContextId(1),
                link: LinkIndex(2),
            },
            "040102",
        ),
        (
            LinearizeGraph {
                context: ContextId(1),
                start: NodeIndex(2),
                time: Time(3),
                node_pred: "doc = a".into(),
                link_pred: "true".into(),
                node_attrs: vec![AttributeIndex(4), AttributeIndex(5)],
                link_attrs: vec![AttributeIndex(6)],
            },
            "0501020307646f63203d206104747275650204050106",
        ),
        (
            GetGraphQuery {
                context: ContextId(1),
                time: Time(2),
                node_pred: "x".into(),
                link_pred: "yz".into(),
                node_attrs: vec![AttributeIndex(3)],
                link_attrs: vec![AttributeIndex(4), AttributeIndex(5)],
            },
            "060102017802797a0103020405",
        ),
        (open(1, 2), "07010203020405"),
        (
            ModifyNode {
                context: ContextId(1),
                node: NodeIndex(2),
                time: Time(3),
                contents: b"body\n".to_vec(),
                link_pts: vec![pt(4, 5, 6, true)],
            },
            "0801020305626f64790a0104050601",
        ),
        (
            GetNodeTimeStamp {
                context: ContextId(1),
                node: NodeIndex(2),
            },
            "090102",
        ),
        (
            ChangeNodeProtection {
                context: ContextId(1),
                node: NodeIndex(2),
                protections: Protections::PRIVATE,
            },
            "0a01028003",
        ),
        (
            GetNodeVersions {
                context: ContextId(1),
                node: NodeIndex(2),
            },
            "0b0102",
        ),
        (
            GetNodeDifferences {
                context: ContextId(1),
                node: NodeIndex(2),
                time1: Time(3),
                time2: Time(4),
            },
            "0c01020304",
        ),
        (
            GetToNode {
                context: ContextId(1),
                link: LinkIndex(2),
                time: Time(3),
            },
            "0d010203",
        ),
        (
            GetFromNode {
                context: ContextId(1),
                link: LinkIndex(2),
                time: Time(3),
            },
            "0e010203",
        ),
        (
            GetAttributes {
                context: ContextId(1),
                time: Time(2),
            },
            "0f0102",
        ),
        (
            GetAttributeValues {
                context: ContextId(1),
                attr: AttributeIndex(2),
                time: Time(3),
            },
            "10010203",
        ),
        (
            GetAttributeIndex {
                context: ContextId(1),
                name: "document".into(),
            },
            "110108646f63756d656e74",
        ),
        (
            SetNodeAttributeValue {
                context: ContextId(1),
                node: NodeIndex(2),
                attr: AttributeIndex(3),
                value: Value::str("spec"),
            },
            "12010203000473706563",
        ),
        (
            DeleteNodeAttribute {
                context: ContextId(1),
                node: NodeIndex(2),
                attr: AttributeIndex(3),
            },
            "13010203",
        ),
        (
            GetNodeAttributeValue {
                context: ContextId(1),
                node: NodeIndex(2),
                attr: AttributeIndex(3),
                time: Time(4),
            },
            "1401020304",
        ),
        (
            GetNodeAttributes {
                context: ContextId(1),
                node: NodeIndex(2),
                time: Time(3),
            },
            "15010203",
        ),
        (
            SetLinkAttributeValue {
                context: ContextId(1),
                link: LinkIndex(2),
                attr: AttributeIndex(3),
                value: Value::Int(-4),
            },
            "160102030107",
        ),
        (
            DeleteLinkAttribute {
                context: ContextId(1),
                link: LinkIndex(2),
                attr: AttributeIndex(3),
            },
            "17010203",
        ),
        (
            GetLinkAttributeValue {
                context: ContextId(1),
                link: LinkIndex(2),
                attr: AttributeIndex(3),
                time: Time(4),
            },
            "1801020304",
        ),
        (
            GetLinkAttributes {
                context: ContextId(1),
                link: LinkIndex(2),
                time: Time(3),
            },
            "19010203",
        ),
        (
            SetGraphDemonValue {
                context: ContextId(1),
                event: Event::NodeModified,
                demon: Some(DemonSpec::notify("d", "m")),
            },
            "1a010401016400016d",
        ),
        (
            GetGraphDemons {
                context: ContextId(1),
                time: Time(2),
            },
            "1b0102",
        ),
        (
            SetNodeDemon {
                context: ContextId(1),
                node: NodeIndex(2),
                event: Event::AttributeChanged,
                demon: None,
            },
            "1c01020700",
        ),
        (
            GetNodeDemons {
                context: ContextId(1),
                node: NodeIndex(2),
                time: Time(3),
            },
            "1d010203",
        ),
        (BeginTransaction, "1e"),
        (CommitTransaction, "1f"),
        (AbortTransaction, "20"),
        (CreateContext { from: ContextId(1) }, "2101"),
        (
            MergeContext {
                child: ContextId(2),
                policy: ConflictPolicy::PreferParent,
            },
            "220202",
        ),
        (DestroyContext { id: ContextId(3) }, "2303"),
        (ListContexts, "24"),
        (Checkpoint, "25"),
        (Ping, "26"),
        (Verify, "27"),
        (CacheStats, "28"),
        (Metrics, "29"),
        (Batch(vec![]), "2a00"),
        (
            Batch(vec![Ping, open(7, 8), Metrics]),
            "2a03260707080302040529",
        ),
        (FlightDump, "2c"),
        (
            Trace {
                trace_id: 0x1234_5678,
            },
            "2df8acd19101",
        ),
        (
            ObsControl {
                setting: ObsSetting::SlowOpMs(Some(300)),
            },
            "2e0001ac02",
        ),
        (
            ObsControl {
                setting: ObsSetting::SlowOpMs(None),
            },
            "2e0000",
        ),
        (
            ObsControl {
                setting: ObsSetting::Enabled(false),
            },
            "2e0100",
        ),
    ]
}

#[test]
fn every_request_variant_encodes_to_its_pinned_bytes() {
    let cases = golden();
    let drifted: Vec<String> = cases
        .iter()
        .filter_map(|(request, want)| {
            let got = hex(&request.to_bytes());
            (got != *want).then(|| format!("{}: want {want}, got {got}", request.name()))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "wire bytes drifted:\n{}",
        drifted.join("\n")
    );
    for (request, want) in &cases {
        assert_eq!(&Request::from_bytes(&unhex(want)).unwrap(), request);
    }
    let names: BTreeSet<&str> = cases.iter().map(|(r, _)| r.name()).collect();
    assert_eq!(names.len(), VARIANTS, "every variant needs a golden entry");
}

#[test]
fn traced_request_prefix_is_pinned() {
    let traced = TracedRequest {
        context: Some(TraceContext {
            trace_id: 0xabc,
            span_id: 0xdef,
            parent: None,
        }),
        request: open(1, 2),
    };
    let bytes = traced.to_bytes();
    assert_eq!(bytes[0], TRACE_EXT_TAG);
    assert_eq!(hex(&bytes), "2bbc15ef1b07010203020405");
    assert_eq!(TracedRequest::from_bytes(&bytes).unwrap(), traced);
}
