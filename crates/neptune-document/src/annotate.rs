//! The `annotate` command.
//!
//! Paper §4.1: *"There are special commands that bundle together several
//! primitive hypertext operations into a single transaction. For example,
//! an annotate command creates a new node, creates a link from the current
//! cursor position to the new node, attaches attribute values that
//! distinguish the new node and link as an annotation and finally, opens a
//! browser on the new annotation node."*

use neptune_ham::types::{ContextId, LinkIndex, LinkPt, NodeIndex, Time};
use neptune_ham::value::Value;
use neptune_ham::{Ham, Result};

use crate::conventions::{ANNOTATES, ICON, RELATION};

/// The objects an [`annotate`] call creates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Annotation {
    /// The new annotation node.
    pub node: NodeIndex,
    /// The link from the annotated position to the annotation.
    pub link: LinkIndex,
}

/// Attach an annotation at byte offset `cursor` inside `target`: one
/// transaction creating the node, the link, and the distinguishing
/// attributes (`relation = annotates` on the link, an `icon` on the node).
pub fn annotate(
    ham: &mut Ham,
    context: ContextId,
    target: NodeIndex,
    cursor: u64,
    text: &str,
) -> Result<Annotation> {
    ham.begin_transaction()?;
    let result = (|| {
        let (node, t) = ham.add_node(context, true)?;
        ham.modify_node(context, node, t, text.as_bytes().to_vec(), &[])?;
        let (link, _) = ham.add_link(
            context,
            LinkPt::current(target, cursor),
            LinkPt::current(node, 0),
        )?;
        let rel = ham.get_attribute_index(context, RELATION)?;
        ham.set_link_attribute_value(context, link, rel, Value::str(ANNOTATES))?;
        let icon = ham.get_attribute_index(context, ICON)?;
        let label: String = text
            .lines()
            .next()
            .unwrap_or("annotation")
            .chars()
            .take(24)
            .collect();
        ham.set_node_attribute_value(context, node, icon, Value::str(label))?;
        Ok(Annotation { node, link })
    })();
    match result {
        Ok(a) => {
            ham.commit_transaction()?;
            Ok(a)
        }
        Err(e) => {
            let _ = ham.abort_transaction();
            Err(e)
        }
    }
}

/// All annotations attached to `target` at `time`, in offset order.
pub fn annotations_of(
    ham: &Ham,
    context: ContextId,
    target: NodeIndex,
    time: Time,
) -> Result<Vec<(u64, Annotation)>> {
    let graph = ham.graph(context)?;
    let rel = graph.attr_table.lookup(RELATION);
    let node = graph.node(target)?;
    let mut out = Vec::new();
    for &link_id in &node.incident_links {
        let link = graph.link(link_id)?;
        if link.from.node != target || !link.exists_at(time) {
            continue;
        }
        let is_annotation = rel
            .and_then(|attr| link.attrs.get(attr, time))
            .map(|v| *v == Value::str(ANNOTATES))
            .unwrap_or(false);
        if !is_annotation {
            continue;
        }
        if let Some(offset) = link.from.position_at(time) {
            out.push((
                offset,
                Annotation {
                    node: link.to.node,
                    link: link_id,
                },
            ));
        }
    }
    out.sort_by_key(|(offset, a)| (*offset, a.link));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn fresh(name: &str) -> (TempDir, Ham, NodeIndex) {
        let dir = TempDir::new(&format!("neptune-annot-{name}"));
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(MAIN_CONTEXT, n, t, b"The quick brown fox.\n".to_vec(), &[])
            .unwrap();
        (dir, ham, n)
    }

    #[test]
    fn annotate_bundles_everything() {
        let (_dir, mut ham, target) = fresh("bundle");
        let a = annotate(
            &mut ham,
            MAIN_CONTEXT,
            target,
            4,
            "really? citation needed\n",
        )
        .unwrap();
        // The annotation node holds the text.
        let opened = ham
            .open_node(MAIN_CONTEXT, a.node, Time::CURRENT, &[])
            .unwrap();
        assert_eq!(&opened.contents[..], b"really? citation needed\n");
        // The link is tagged as an annotation at the cursor.
        let found = annotations_of(&ham, MAIN_CONTEXT, target, Time::CURRENT).unwrap();
        assert_eq!(found, vec![(4, a)]);
        // The annotation node has an icon derived from its first line.
        let icon = ham.get_attribute_index(MAIN_CONTEXT, ICON).unwrap();
        let v = ham
            .get_node_attribute_value(MAIN_CONTEXT, a.node, icon, Time::CURRENT)
            .unwrap();
        assert_eq!(v, Value::str("really? citation needed"));
    }

    #[test]
    fn annotations_sorted_by_offset() {
        let (_dir, mut ham, target) = fresh("sorted");
        let late = annotate(&mut ham, MAIN_CONTEXT, target, 15, "late\n").unwrap();
        let early = annotate(&mut ham, MAIN_CONTEXT, target, 2, "early\n").unwrap();
        let found = annotations_of(&ham, MAIN_CONTEXT, target, Time::CURRENT).unwrap();
        assert_eq!(found, vec![(2, early), (15, late)]);
    }

    #[test]
    fn annotate_on_missing_target_rolls_back() {
        let (_dir, mut ham, _) = fresh("missing");
        let before = ham.graph(MAIN_CONTEXT).unwrap().live_node_count();
        assert!(annotate(&mut ham, MAIN_CONTEXT, NodeIndex(404), 0, "nope").is_err());
        assert_eq!(ham.graph(MAIN_CONTEXT).unwrap().live_node_count(), before);
        assert!(!ham.in_transaction());
    }

    #[test]
    fn annotations_are_time_scoped() {
        let (_dir, mut ham, target) = fresh("time");
        let t_before = ham.graph(MAIN_CONTEXT).unwrap().now();
        annotate(&mut ham, MAIN_CONTEXT, target, 0, "new note\n").unwrap();
        assert!(annotations_of(&ham, MAIN_CONTEXT, target, t_before)
            .unwrap()
            .is_empty());
        assert_eq!(
            annotations_of(&ham, MAIN_CONTEXT, target, Time::CURRENT)
                .unwrap()
                .len(),
            1
        );
    }
}
