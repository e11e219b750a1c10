//! The node browser (paper Figure 3).
//!
//! §4.1: *"The node browser allows the contents of an individual node to
//! be edited and supports both navigation via links and the creation of
//! new links. … Within a node browser, a link appears as an icon composed
//! using the value of the node's icon attribute … otherwise a default icon
//! is used."*
//!
//! This model renders a node's contents with each outgoing link shown as
//! an inline `⟦icon⟧` marker at its attachment offset, and exposes link
//! following (the interactive "follow a link, view what it points to").

use neptune_ham::types::{ContextId, LinkIndex, NodeIndex, Time};
use neptune_ham::{Ham, Result};

use crate::conventions::ICON;

/// Default icon text for links whose target has no `icon` attribute.
pub const DEFAULT_ICON: &str = "link";

/// One inline link marker in a rendered node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InlineLink {
    /// Byte offset of the attachment within the node's contents.
    pub offset: u64,
    /// The link.
    pub link: LinkIndex,
    /// The destination node.
    pub target: NodeIndex,
    /// The icon shown.
    pub icon: String,
}

/// A rendered node: its text with markers, plus the marker table.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeView {
    /// The node being viewed.
    pub node: NodeIndex,
    /// Version time of the viewed contents.
    pub time: Time,
    /// Contents with `⟦icon⟧` markers spliced in at attachment offsets.
    pub text: String,
    /// The inline links, in offset order.
    pub links: Vec<InlineLink>,
}

/// Compute a node view at `time` (zero = current).
pub fn view_node(
    ham: &mut Ham,
    context: ContextId,
    node: NodeIndex,
    time: Time,
) -> Result<NodeView> {
    let opened = ham.open_node(context, node, time, &[])?;
    let contents = opened.contents;

    // Out-going attachments on this node, with target icons.
    let graph = ham.graph(context)?;
    let icon_attr = graph.attr_table.lookup(ICON);
    let n = graph.node(node)?;
    let mut links: Vec<InlineLink> = Vec::new();
    for &link_id in &n.incident_links {
        let link = graph.link(link_id)?;
        if link.from.node != node || !link.exists_at(time) {
            continue;
        }
        let Some(offset) = link.from.position_at(time) else {
            continue;
        };
        // Paper: the icon comes from the link's `icon` attribute if set,
        // else a default.
        let icon = icon_attr
            .and_then(|attr| link.attrs.get(attr, time))
            .map(|v| v.to_string())
            .unwrap_or_else(|| DEFAULT_ICON.to_string());
        links.push(InlineLink {
            offset,
            link: link_id,
            target: link.to.node,
            icon,
        });
    }
    links.sort_by_key(|l| (l.offset, l.link));

    // Splice markers in descending offset order so offsets stay valid.
    let mut text_bytes = contents.to_vec();
    for l in links.iter().rev() {
        let at = (l.offset as usize).min(text_bytes.len());
        let marker = format!("⟦{}⟧", l.icon);
        text_bytes.splice(at..at, marker.into_bytes());
    }
    Ok(NodeView {
        node,
        time,
        text: String::from_utf8_lossy(&text_bytes).into_owned(),
        links,
    })
}

/// Follow the `index`-th inline link of a view: returns the target's view —
/// the browser operation "if a link is followed, then the node at the end
/// of the link is made visible".
pub fn follow(
    ham: &mut Ham,
    context: ContextId,
    view: &NodeView,
    index: usize,
    time: Time,
) -> Result<NodeView> {
    let link = view
        .links
        .get(index)
        .ok_or(neptune_ham::HamError::NoSuchLink(neptune_ham::LinkIndex(
            u64::MAX,
        )))?;
    view_node(ham, context, link.target, time)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::annotate::annotate;
    use neptune_ham::types::{LinkPt, Protections, MAIN_CONTEXT};
    use neptune_ham::Value;
    use neptune_storage::testutil::TempDir;

    fn fresh(name: &str) -> (TempDir, Ham, NodeIndex) {
        let dir = TempDir::new(&format!("neptune-nv-{name}"));
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(MAIN_CONTEXT, n, t, b"hello world\n".to_vec(), &[])
            .unwrap();
        (dir, ham, n)
    }

    #[test]
    fn markers_appear_at_offsets() {
        let (_dir, mut ham, n) = fresh("markers");
        let (target, tt) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(MAIN_CONTEXT, target, tt, b"the target\n".to_vec(), &[])
            .unwrap();
        let (link, _) = ham
            .add_link(
                MAIN_CONTEXT,
                LinkPt::current(n, 5),
                LinkPt::current(target, 0),
            )
            .unwrap();
        let icon = ham.get_attribute_index(MAIN_CONTEXT, ICON).unwrap();
        ham.set_link_attribute_value(MAIN_CONTEXT, link, icon, Value::str("note"))
            .unwrap();

        let view = view_node(&mut ham, MAIN_CONTEXT, n, Time::CURRENT).unwrap();
        assert_eq!(view.text, "hello⟦note⟧ world\n");
        assert_eq!(view.links.len(), 1);
        assert_eq!(view.links[0].target, target);
    }

    #[test]
    fn default_icon_when_unset() {
        let (_dir, mut ham, n) = fresh("default");
        let (target, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.add_link(
            MAIN_CONTEXT,
            LinkPt::current(n, 0),
            LinkPt::current(target, 0),
        )
        .unwrap();
        let view = view_node(&mut ham, MAIN_CONTEXT, n, Time::CURRENT).unwrap();
        assert!(view.text.starts_with(&format!("⟦{DEFAULT_ICON}⟧")));
    }

    #[test]
    fn following_a_link_opens_the_target() {
        let (_dir, mut ham, n) = fresh("follow");
        let a = annotate(&mut ham, MAIN_CONTEXT, n, 6, "an aside\n").unwrap();
        let view = view_node(&mut ham, MAIN_CONTEXT, n, Time::CURRENT).unwrap();
        let target_view = follow(&mut ham, MAIN_CONTEXT, &view, 0, Time::CURRENT).unwrap();
        assert_eq!(target_view.node, a.node);
        assert!(target_view.text.contains("an aside"));
        // Out-of-range follow errors.
        assert!(follow(&mut ham, MAIN_CONTEXT, &view, 9, Time::CURRENT).is_err());
    }

    #[test]
    fn multiple_markers_keep_offset_order() {
        let (_dir, mut ham, n) = fresh("multi");
        let (t1, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        let (t2, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.add_link(MAIN_CONTEXT, LinkPt::current(n, 11), LinkPt::current(t2, 0))
            .unwrap();
        ham.add_link(MAIN_CONTEXT, LinkPt::current(n, 0), LinkPt::current(t1, 0))
            .unwrap();
        let view = view_node(&mut ham, MAIN_CONTEXT, n, Time::CURRENT).unwrap();
        assert_eq!(view.links[0].offset, 0);
        assert_eq!(view.links[1].offset, 11);
        assert_eq!(view.text, "⟦link⟧hello world⟦link⟧\n");
    }

    #[test]
    fn old_versions_render_without_later_links() {
        let (_dir, mut ham, n) = fresh("old");
        let t_before = ham.graph(MAIN_CONTEXT).unwrap().now();
        let (target, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.add_link(
            MAIN_CONTEXT,
            LinkPt::current(n, 3),
            LinkPt::current(target, 0),
        )
        .unwrap();
        let old = view_node(&mut ham, MAIN_CONTEXT, n, t_before).unwrap();
        assert_eq!(old.text, "hello world\n");
        assert!(old.links.is_empty());
    }
}
