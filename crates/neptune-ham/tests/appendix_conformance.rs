//! Appendix conformance: one scenario exercising **every** operation of
//! the paper's Appendix, section by section, asserting the result shapes
//! the appendix specifies. This is the executable form of the claim "the
//! appendix is the contract this repository implements".

use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::types::{LinkPt, Machine, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, Predicate, Value};
use neptune_storage::testutil::TempDir;

#[test]
fn every_appendix_operation() {
    let tmp = TempDir::new("neptune-appendix");
    let dir = tmp.path();

    // =====================================================================
    // A.1 Graph Operations
    // =====================================================================

    // createGraph: Directory × Protections → ProjectId × Time
    let (ham, project_id, t_created) = Ham::create_graph(dir, Protections::DEFAULT).unwrap();
    assert_eq!(t_created, Time(1));

    // openGraph: ProjectId × Machine × Directory → Context
    drop(ham);
    let (mut ham, ctx) = Ham::open_graph(project_id, &Machine::local(), dir).unwrap();
    assert_eq!(ctx, MAIN_CONTEXT);

    // addNode: Context × Boolean → NodeIndex × Time
    let (archive_node, t_a) = ham.add_node(ctx, true).unwrap();
    let (file_node, _) = ham.add_node(ctx, false).unwrap();

    // modifyNode (here, to give link endpoints something to attach to).
    let t_a = ham
        .modify_node(ctx, archive_node, t_a, b"0123456789abcdef\n".to_vec(), &[])
        .unwrap();

    // A second archive node to pin a link end against (pinning needs
    // history, which file nodes by definition lack).
    let (pin_target, t_p) = ham.add_node(ctx, true).unwrap();
    let t_p = ham
        .modify_node(ctx, pin_target, t_p, b"pinned contents v1\n".to_vec(), &[])
        .unwrap();

    // addLink: Context × LinkPt1 × LinkPt2 → LinkIndex × Time
    // One end pinned to a specific version (the configuration-manager
    // primitive), the other tracking the current version.
    let (link, _) = ham
        .add_link(
            ctx,
            LinkPt::current(archive_node, 4),
            LinkPt::pinned(pin_target, 0, t_p),
        )
        .unwrap();

    // copyLink: Context × LinkIndex × Time × Boolean × LinkPt → LinkIndex × Time
    let (copied, _) = ham
        .copy_link(
            ctx,
            link,
            Time::CURRENT,
            true,
            LinkPt::current(archive_node, 9),
        )
        .unwrap();

    // deleteLink: Context × LinkIndex →
    ham.delete_link(ctx, copied).unwrap();

    // A node to delete, to exercise deleteNode's cascade.
    let (doomed, _) = ham.add_node(ctx, true).unwrap();
    let (doomed_link, _) = ham
        .add_link(
            ctx,
            LinkPt::current(doomed, 0),
            LinkPt::current(archive_node, 0),
        )
        .unwrap();
    // deleteNode: Context × NodeIndex →  ("All links into or out of the
    // node are deleted")
    ham.delete_node(ctx, doomed).unwrap();
    assert!(ham.get_to_node(ctx, doomed_link, Time::CURRENT).is_err());

    // Attributes used by the queries below.
    let doc_attr = ham.get_attribute_index(ctx, "document").unwrap();
    ham.set_node_attribute_value(ctx, archive_node, doc_attr, Value::str("requirements"))
        .unwrap();
    ham.set_node_attribute_value(ctx, pin_target, doc_attr, Value::str("requirements"))
        .unwrap();

    // linearizeGraph: Context × NodeIndex × Time × Predicate² ×
    //   AttributeIndexᵐ × AttributeIndexⁿ → (NodeIndex × Valueᵐ)* × (LinkIndex × Valueⁿ)*
    let pred = Predicate::parse("document = requirements").unwrap();
    let lin = ham
        .linearize_graph(
            ctx,
            archive_node,
            Time::CURRENT,
            &pred,
            &Predicate::True,
            &[doc_attr],
            &[],
        )
        .unwrap();
    assert_eq!(lin.nodes.len(), 2, "DFS reaches both requirement nodes");
    assert_eq!(lin.nodes[0].1, vec![Some(Value::str("requirements"))]);

    // getGraphQuery: the associative query (paper §3's example predicate).
    let q = ham
        .get_graph_query(
            ctx,
            Time::CURRENT,
            &pred,
            &Predicate::True,
            &[doc_attr],
            &[],
        )
        .unwrap();
    assert_eq!(q.nodes.len(), 2);
    assert_eq!(
        q.links.len(),
        1,
        "only the surviving link connects result nodes"
    );

    // =====================================================================
    // A.2 Node Operations
    // =====================================================================

    // openNode: NodeIndex × Time × AttributeIndexᵐ →
    //   Contents × LinkPt* × Valueᵐ × Time₂
    let opened = ham
        .open_node(ctx, archive_node, Time::CURRENT, &[doc_attr])
        .unwrap();
    assert_eq!(&opened.contents[..], b"0123456789abcdef\n");
    assert!(!opened.link_pts.is_empty());
    assert_eq!(opened.values, vec![Some(Value::str("requirements"))]);

    // modifyNode: NodeIndex × Time × Contents × LinkPt* →
    // ("Time must be equal to the version time of the current version";
    //  "There must be a LinkPt for each link associated with the current
    //   version")
    let t2 = ham
        .modify_node(
            ctx,
            archive_node,
            opened.current_time,
            b"0123456789abcdef extended\n".to_vec(),
            &opened.link_pts,
        )
        .unwrap();

    // getNodeTimeStamp: NodeIndex → Time
    assert_eq!(ham.get_node_time_stamp(ctx, archive_node).unwrap(), t2);

    // changeNodeProtection: NodeIndex × Protections →
    ham.change_node_protection(ctx, archive_node, Protections::PRIVATE)
        .unwrap();

    // getNodeVersions: NodeIndex → Version₁⁺ × Version₂*
    let (major, minor) = ham.get_node_versions(ctx, archive_node).unwrap();
    assert!(major.len() >= 3, "created + two checkins");
    assert!(
        !minor.is_empty(),
        "link/attribute changes recorded as minor versions"
    );

    // getNodeDifferences: NodeIndex × Time₁ × Time₂ → Difference*
    let diffs = ham
        .get_node_differences(ctx, archive_node, t_a, t2)
        .unwrap();
    assert_eq!(diffs.len(), 1);

    // Archives vs files: "only the current version is available for files".
    let tf = ham.get_node_time_stamp(ctx, file_node).unwrap();
    ham.modify_node(ctx, file_node, tf, b"file v2\n".to_vec(), &[])
        .unwrap();
    assert!(ham.open_node(ctx, file_node, tf, &[]).is_err());

    // Evolve the pinned target so the pin visibly refers to the past.
    let opened_p = ham.open_node(ctx, pin_target, Time::CURRENT, &[]).unwrap();
    ham.modify_node(
        ctx,
        pin_target,
        opened_p.current_time,
        b"pinned contents v2\n".to_vec(),
        &opened_p.link_pts,
    )
    .unwrap();

    // =====================================================================
    // A.3 Link Operations
    // =====================================================================

    // getToNode: LinkIndex × Time₁ → NodeIndex × Time₂ — the pinned end
    // answers with the pinned version even after the node moved on.
    let (to_node, to_version) = ham.get_to_node(ctx, link, Time::CURRENT).unwrap();
    assert_eq!(to_node, pin_target);
    assert_eq!(to_version, t_p, "pinned to the pre-modification version");
    assert_eq!(
        ham.open_node(ctx, pin_target, to_version, &[])
            .unwrap()
            .contents[..],
        b"pinned contents v1\n"[..]
    );

    // getFromNode: LinkIndex × Time₁ → NodeIndex × Time₂ — the tracking
    // end answers with the current version.
    let (from_node, from_version) = ham.get_from_node(ctx, link, Time::CURRENT).unwrap();
    assert_eq!(from_node, archive_node);
    assert_eq!(from_version, t2);

    // =====================================================================
    // A.4 Attribute Operations
    // =====================================================================

    // getAttributeIndex: Context × Attribute → AttributeIndex
    // ("If no attribute exists, then creates one")
    let status_attr = ham.get_attribute_index(ctx, "status").unwrap();
    assert_eq!(ham.get_attribute_index(ctx, "status").unwrap(), status_attr);

    // setNodeAttributeValue / getNodeAttributeValue (versioned).
    ham.set_node_attribute_value(ctx, archive_node, status_attr, Value::str("draft"))
        .unwrap();
    let t_draft = ham.graph(ctx).unwrap().now();
    ham.set_node_attribute_value(ctx, archive_node, status_attr, Value::str("final"))
        .unwrap();
    assert_eq!(
        ham.get_node_attribute_value(ctx, archive_node, status_attr, t_draft)
            .unwrap(),
        Value::str("draft")
    );
    assert_eq!(
        ham.get_node_attribute_value(ctx, archive_node, status_attr, Time::CURRENT)
            .unwrap(),
        Value::str("final")
    );

    // getNodeAttributes: NodeIndex × Time → (Attribute × AttributeIndex × Value)*
    let triples = ham
        .get_node_attributes(ctx, archive_node, Time::CURRENT)
        .unwrap();
    assert!(triples
        .iter()
        .any(|(n, i, v)| n == "status" && *i == status_attr && *v == Value::str("final")));

    // deleteNodeAttribute: history remains at earlier times.
    ham.delete_node_attribute(ctx, archive_node, status_attr)
        .unwrap();
    assert!(ham
        .get_node_attribute_value(ctx, archive_node, status_attr, Time::CURRENT)
        .is_err());
    assert!(ham
        .get_node_attribute_value(ctx, archive_node, status_attr, t_draft)
        .is_ok());

    // setLinkAttributeValue / getLinkAttributeValue / getLinkAttributes /
    // deleteLinkAttribute.
    let rel_attr = ham.get_attribute_index(ctx, "relation").unwrap();
    ham.set_link_attribute_value(ctx, link, rel_attr, Value::str("references"))
        .unwrap();
    assert_eq!(
        ham.get_link_attribute_value(ctx, link, rel_attr, Time::CURRENT)
            .unwrap(),
        Value::str("references")
    );
    let link_triples = ham.get_link_attributes(ctx, link, Time::CURRENT).unwrap();
    assert_eq!(link_triples.len(), 1);
    ham.delete_link_attribute(ctx, link, rel_attr).unwrap();
    assert!(ham
        .get_link_attribute_value(ctx, link, rel_attr, Time::CURRENT)
        .is_err());

    // getAttributes: Context × Time → (Attribute × AttributeIndex)*
    let attrs_now = ham.get_attributes(ctx, Time::CURRENT).unwrap();
    assert!(attrs_now.len() >= 3); // document, status, relation
    assert!(ham.get_attributes(ctx, Time(1)).unwrap().is_empty());

    // getAttributeValues: Context × AttributeIndex × Time → Value*
    let values = ham
        .get_attribute_values(ctx, doc_attr, Time::CURRENT)
        .unwrap();
    assert_eq!(values, vec![Value::str("requirements")]);

    // =====================================================================
    // A.5 Demon Operations
    // =====================================================================

    // setGraphDemonValue: Context × Event × Demon → (versioned; null
    // disables)
    ham.set_graph_demon_value(
        ctx,
        Event::NodeAdded,
        Some(DemonSpec::notify("g1", "added")),
    )
    .unwrap();
    let t_demon1 = ham.graph(ctx).unwrap().now();
    ham.set_graph_demon_value(
        ctx,
        Event::NodeAdded,
        Some(DemonSpec::notify("g2", "added!")),
    )
    .unwrap();

    // getGraphDemons: Context × Time → (Event × Demon)*
    assert_eq!(ham.get_graph_demons(ctx, t_demon1).unwrap()[0].1.name, "g1");
    assert_eq!(
        ham.get_graph_demons(ctx, Time::CURRENT).unwrap()[0].1.name,
        "g2"
    );
    ham.set_graph_demon_value(ctx, Event::NodeAdded, None)
        .unwrap();
    assert!(ham.get_graph_demons(ctx, Time::CURRENT).unwrap().is_empty());

    // setNodeDemon / getNodeDemons.
    ham.set_node_demon(
        ctx,
        archive_node,
        Event::NodeModified,
        Some(DemonSpec::notify("n1", "node changed")),
    )
    .unwrap();
    let node_demons = ham
        .get_node_demons(ctx, archive_node, Time::CURRENT)
        .unwrap();
    assert_eq!(node_demons.len(), 1);
    assert_eq!(node_demons[0].0, Event::NodeModified);

    // Demons actually fire with §5's parameters.
    let opened = ham
        .open_node(ctx, archive_node, Time::CURRENT, &[])
        .unwrap();
    ham.modify_node(
        ctx,
        archive_node,
        opened.current_time,
        b"fire!\n".to_vec(),
        &opened.link_pts,
    )
    .unwrap();
    let record = ham.demon_journal().last().unwrap();
    assert_eq!(record.demon, "n1");
    assert_eq!(record.info.event, Event::NodeModified);
    assert_eq!(record.info.node, Some(archive_node));

    // =====================================================================
    // destroyGraph: ProjectId × Directory →
    // ("ProjectId must have the same value as returned by createGraph")
    // =====================================================================
    ham.checkpoint().unwrap();
    drop(ham);
    Ham::destroy_graph(project_id, dir).unwrap();
    assert!(!dir.exists());
}
