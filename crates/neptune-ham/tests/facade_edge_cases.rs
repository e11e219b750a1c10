//! Edge cases of the HAM facade that the happy-path suites don't touch.

use neptune_ham::demons::{DemonSpec, Event};
use neptune_ham::types::{LinkPt, NodeIndex, Protections, Time, MAIN_CONTEXT};
use neptune_ham::{Ham, HamError, Predicate, Value};
use neptune_storage::testutil::TempDir;

fn fresh(name: &str) -> (TempDir, Ham) {
    let dir = TempDir::new(&format!("neptune-edge-{name}"));
    let ham = Ham::create_graph(dir.path(), Protections::DEFAULT)
        .unwrap()
        .0;
    (dir, ham)
}

#[test]
fn linearize_with_filtered_start_is_empty_not_error() {
    let (_dir, mut ham) = fresh("filtered-start");
    let (n, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let pred = Predicate::parse("exists(never_set)").unwrap();
    let sg = ham
        .linearize_graph(
            MAIN_CONTEXT,
            n,
            Time::CURRENT,
            &pred,
            &Predicate::True,
            &[],
            &[],
        )
        .unwrap();
    assert!(sg.nodes.is_empty());
    assert!(sg.links.is_empty());
}

#[test]
fn open_node_before_creation_time_fails() {
    let (_dir, mut ham) = fresh("before-creation");
    ham.add_node(MAIN_CONTEXT, true).unwrap(); // advance the clock
    let (late, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    assert!(ham.open_node(MAIN_CONTEXT, late, Time(1), &[]).is_err());
}

#[test]
fn copy_link_from_deleted_link_fails() {
    let (_dir, mut ham) = fresh("copy-deleted");
    let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (l, _) = ham
        .add_link(MAIN_CONTEXT, LinkPt::current(a, 0), LinkPt::current(b, 0))
        .unwrap();
    let t_alive = ham.graph(MAIN_CONTEXT).unwrap().now();
    ham.delete_link(MAIN_CONTEXT, l).unwrap();
    assert!(ham
        .copy_link(MAIN_CONTEXT, l, Time::CURRENT, true, LinkPt::current(a, 1))
        .is_err());
    // But copying from the time it was alive works: history is usable.
    let copied = ham.copy_link(MAIN_CONTEXT, l, t_alive, true, LinkPt::current(a, 1));
    assert!(copied.is_ok());
}

#[test]
fn pinned_attachments_may_not_move() {
    let (_dir, mut ham) = fresh("pin-fixed");
    let (target, tt) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let tt = ham
        .modify_node(MAIN_CONTEXT, target, tt, b"vv\n".to_vec(), &[])
        .unwrap();
    let (host, th) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, host, th, b"0123456789\n".to_vec(), &[])
        .unwrap();
    ham.add_link(
        MAIN_CONTEXT,
        LinkPt::pinned(host, 3, Time::CURRENT),
        LinkPt::pinned(target, 0, tt),
    )
    .unwrap();

    let opened = ham
        .open_node(MAIN_CONTEXT, host, Time::CURRENT, &[])
        .unwrap();
    assert_eq!(opened.link_pts.len(), 1);
    // Moving the pinned source end is rejected.
    let mut moved = opened.link_pts.clone();
    moved[0].position = 7;
    let err = ham.modify_node(
        MAIN_CONTEXT,
        host,
        opened.current_time,
        b"x\n".to_vec(),
        &moved,
    );
    assert!(matches!(err, Err(HamError::AttachmentMismatch { .. })));
    // Restating the same position succeeds.
    ham.modify_node(
        MAIN_CONTEXT,
        host,
        opened.current_time,
        b"x\n".to_vec(),
        &opened.link_pts,
    )
    .unwrap();
}

#[test]
fn modify_node_rejects_points_for_other_nodes() {
    let (_dir, mut ham) = fresh("foreign-pt");
    let (a, ta) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, a, ta, b"contents\n".to_vec(), &[])
        .unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.add_link(MAIN_CONTEXT, LinkPt::current(a, 0), LinkPt::current(b, 0))
        .unwrap();
    let opened = ham.open_node(MAIN_CONTEXT, a, Time::CURRENT, &[]).unwrap();
    let foreign = vec![LinkPt::current(b, 0)];
    assert_eq!(opened.link_pts.len(), foreign.len());
    let err = ham.modify_node(
        MAIN_CONTEXT,
        a,
        opened.current_time,
        b"x\n".to_vec(),
        &foreign,
    );
    assert!(matches!(err, Err(HamError::BadEndpoint { .. })));
}

#[test]
fn both_ends_on_same_node_appear_in_canonical_order() {
    let (_dir, mut ham) = fresh("self-link");
    let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, n, t, b"0123456789\n".to_vec(), &[])
        .unwrap();
    ham.add_link(MAIN_CONTEXT, LinkPt::current(n, 2), LinkPt::current(n, 8))
        .unwrap();
    let opened = ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[]).unwrap();
    assert_eq!(opened.link_pts.len(), 2, "both ends attach to the node");
    assert_eq!(opened.link_pts[0].position, 2, "from end first");
    assert_eq!(opened.link_pts[1].position, 8);
    // Moving both ends through modifyNode works.
    let moved = vec![LinkPt::current(n, 3), LinkPt::current(n, 9)];
    ham.modify_node(
        MAIN_CONTEXT,
        n,
        opened.current_time,
        b"0123456789x\n".to_vec(),
        &moved,
    )
    .unwrap();
    let reopened = ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[]).unwrap();
    assert_eq!(reopened.link_pts[0].position, 3);
    assert_eq!(reopened.link_pts[1].position, 9);
}

#[test]
fn attribute_values_include_link_attributes() {
    let (_dir, mut ham) = fresh("link-values");
    let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (l, _) = ham
        .add_link(MAIN_CONTEXT, LinkPt::current(a, 0), LinkPt::current(b, 0))
        .unwrap();
    let rel = ham.get_attribute_index(MAIN_CONTEXT, "relation").unwrap();
    ham.set_link_attribute_value(MAIN_CONTEXT, l, rel, Value::str("annotates"))
        .unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, a, rel, Value::str("nodeside"))
        .unwrap();
    let mut values = ham
        .get_attribute_values(MAIN_CONTEXT, rel, Time::CURRENT)
        .unwrap();
    values.sort_by_key(|v| v.to_string());
    assert_eq!(
        values,
        vec![Value::str("annotates"), Value::str("nodeside")]
    );
    // Historical query also sees both (scan path).
    let t = ham.graph(MAIN_CONTEXT).unwrap().now();
    let historical = ham.get_attribute_values(MAIN_CONTEXT, rel, t).unwrap();
    assert_eq!(historical.len(), 2);
}

#[test]
fn node_opened_demon_runs_in_auto_txn_and_survives_recovery() {
    let dir = TempDir::new("neptune-edge-opened");
    let pid;
    let node;
    {
        let (mut ham, p, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        pid = p;
        let (n, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        node = n;
        ham.set_node_demon(
            MAIN_CONTEXT,
            n,
            Event::NodeOpened,
            Some(DemonSpec::mark_node("reader-mark", "lastReader", "norm")),
        )
        .unwrap();
        // Opening fires the demon, whose attribute write is WAL-logged.
        ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[]).unwrap();
    }
    let (ham, _) = Ham::open_graph(pid, &neptune_ham::Machine::local(), &dir).unwrap();
    let graph = ham.graph(MAIN_CONTEXT).unwrap();
    let attr = graph.attr_table.lookup("lastReader").unwrap();
    assert_eq!(
        graph.node(node).unwrap().attrs.get(attr, Time::CURRENT),
        Some(&Value::str("norm"))
    );
}

#[test]
fn requested_attributes_resolve_per_object_in_queries() {
    let (_dir, mut ham) = fresh("query-attrs");
    let kind = ham.get_attribute_index(MAIN_CONTEXT, "kind").unwrap();
    let size = ham.get_attribute_index(MAIN_CONTEXT, "size").unwrap();
    let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, a, kind, Value::str("x"))
        .unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, b, kind, Value::str("x"))
        .unwrap();
    ham.set_node_attribute_value(MAIN_CONTEXT, b, size, Value::Int(9))
        .unwrap();
    let pred = Predicate::parse("kind = x").unwrap();
    let sg = ham
        .get_graph_query(
            MAIN_CONTEXT,
            Time::CURRENT,
            &pred,
            &Predicate::True,
            &[kind, size],
            &[],
        )
        .unwrap();
    let row_a = sg.nodes.iter().find(|(id, _)| *id == a).unwrap();
    let row_b = sg.nodes.iter().find(|(id, _)| *id == b).unwrap();
    assert_eq!(row_a.1, vec![Some(Value::str("x")), None]);
    assert_eq!(row_b.1, vec![Some(Value::str("x")), Some(Value::Int(9))]);
}

#[test]
fn context_ids_are_not_reused_after_destroy() {
    let (_dir, mut ham) = fresh("ctx-ids");
    let c1 = ham.create_context(MAIN_CONTEXT).unwrap();
    ham.destroy_context(c1).unwrap();
    let c2 = ham.create_context(MAIN_CONTEXT).unwrap();
    assert_ne!(c1, c2, "context ids are never recycled");
    // Operating on the destroyed context errors cleanly.
    assert!(matches!(
        ham.add_node(c1, true),
        Err(HamError::NoSuchContext(_))
    ));
}

#[test]
fn nested_context_forks() {
    let (_dir, mut ham) = fresh("nested-ctx");
    let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    ham.modify_node(MAIN_CONTEXT, n, t, b"base\n".to_vec(), &[])
        .unwrap();
    let child = ham.create_context(MAIN_CONTEXT).unwrap();
    let grandchild = ham.create_context(child).unwrap();
    let tg = ham.get_node_time_stamp(grandchild, n).unwrap();
    ham.modify_node(grandchild, n, tg, b"grandchild edit\n".to_vec(), &[])
        .unwrap();
    // Merge grandchild -> child, then child -> main.
    ham.merge_context(grandchild, neptune_ham::context::ConflictPolicy::Fail)
        .unwrap();
    assert_eq!(
        ham.open_node(child, n, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"grandchild edit\n"[..]
    );
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"base\n"[..]
    );
    ham.merge_context(child, neptune_ham::context::ConflictPolicy::Fail)
        .unwrap();
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        b"grandchild edit\n"[..]
    );
}

#[test]
fn empty_graph_queries_are_fine() {
    let (_dir, ham) = fresh("empty");
    let sg = ham
        .get_graph_query(
            MAIN_CONTEXT,
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[],
            &[],
        )
        .unwrap();
    assert!(sg.nodes.is_empty());
    assert!(ham
        .get_attributes(MAIN_CONTEXT, Time::CURRENT)
        .unwrap()
        .is_empty());
    assert!(ham
        .linearize_graph(
            MAIN_CONTEXT,
            NodeIndex(1),
            Time::CURRENT,
            &Predicate::True,
            &Predicate::True,
            &[],
            &[]
        )
        .is_err());
}

#[test]
fn huge_contents_roundtrip() {
    // A 2 MiB node: past any buffer-size assumptions.
    let (_dir, mut ham) = fresh("huge");
    let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let big: Vec<u8> = (0..2 * 1024 * 1024u32).map(|i| (i % 251) as u8).collect();
    ham.modify_node(MAIN_CONTEXT, n, t, big.clone(), &[])
        .unwrap();
    assert_eq!(
        ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[])
            .unwrap()
            .contents[..],
        big[..]
    );
}
