//! Attribute, version, and demon browsers.
//!
//! Paper §4.1: *"Several other browsers are provided by Neptune including
//! attribute browsers, version browsers, node differences browsers and
//! demon browsers."* (The differences browser lives in
//! [`crate::diffview`].) These render the corresponding inspector views as
//! text over the same HAM calls the Smalltalk panes made.

use neptune_ham::types::{ContextId, NodeIndex, Time};
use neptune_ham::{Ham, Result};

/// The attribute browser: every attribute name known to the graph at
/// `time`, with its index and the set of values currently defined for it —
/// built from `getAttributes` and `getAttributeValues`.
pub fn attribute_browser(ham: &Ham, context: ContextId, time: Time) -> Result<String> {
    let mut out = String::from("+-- Attribute Browser ----\n");
    let mut attrs = ham.get_attributes(context, time)?;
    attrs.sort_by(|a, b| a.0.cmp(&b.0));
    if attrs.is_empty() {
        out.push_str("| (no attributes defined)\n");
    }
    for (name, idx) in attrs {
        let values = ham.get_attribute_values(context, idx, time)?;
        let rendered: Vec<String> = values.iter().take(8).map(|v| v.to_string()).collect();
        let suffix = if values.len() > 8 {
            format!(", … ({} values)", values.len())
        } else {
            String::new()
        };
        out.push_str(&format!(
            "| {name} (#{}) = {{{}{suffix}}}\n",
            idx.0,
            rendered.join(", ")
        ));
    }
    out.push_str("--------------------------\n");
    Ok(out)
}

/// The version browser for one node: its major (content) and minor
/// (link/attribute) version histories — `getNodeVersions` rendered.
pub fn version_browser(ham: &Ham, context: ContextId, node: NodeIndex) -> Result<String> {
    let (major, minor) = ham.get_node_versions(context, node)?;
    let mut out = format!("+-- Version Browser: node {} ----\n", node.0);
    out.push_str("| major versions (contents):\n");
    for v in &major {
        out.push_str(&format!("|   @ {:>5}  {}\n", v.time.0, v.explanation));
    }
    if minor.is_empty() {
        out.push_str("| minor versions: (none)\n");
    } else {
        out.push_str("| minor versions (links/attributes):\n");
        for v in &minor {
            out.push_str(&format!("|   @ {:>5}  {}\n", v.time.0, v.explanation));
        }
    }
    out.push_str("---------------------------------\n");
    Ok(out)
}

/// The demon browser: graph-level demons, optionally one node's demons,
/// and the most recent firings from the journal.
pub fn demon_browser(
    ham: &Ham,
    context: ContextId,
    node: Option<NodeIndex>,
    time: Time,
) -> Result<String> {
    let mut out = String::from("+-- Demon Browser ----\n");
    out.push_str("| graph demons:\n");
    let graph_demons = ham.get_graph_demons(context, time)?;
    if graph_demons.is_empty() {
        out.push_str("|   (none)\n");
    }
    for (event, demon) in graph_demons {
        out.push_str(&format!("|   on {event}: '{}'\n", demon.name));
    }
    if let Some(node) = node {
        out.push_str(&format!("| node {} demons:\n", node.0));
        let node_demons = ham.get_node_demons(context, node, time)?;
        if node_demons.is_empty() {
            out.push_str("|   (none)\n");
        }
        for (event, demon) in node_demons {
            out.push_str(&format!("|   on {event}: '{}'\n", demon.name));
        }
    }
    let journal = ham.demon_journal();
    out.push_str(&format!(
        "| journal ({} firings, newest last):\n",
        journal.len()
    ));
    for record in journal
        .iter()
        .rev()
        .take(5)
        .collect::<Vec<_>>()
        .into_iter()
        .rev()
    {
        out.push_str(&format!(
            "|   {} @ {:?} on {}{}\n",
            record.demon,
            record.info.time.0,
            record.info.event,
            record
                .message
                .as_deref()
                .map(|m| format!(": {m}"))
                .unwrap_or_default()
        ));
    }
    out.push_str("----------------------\n");
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::demons::{DemonSpec, Event};
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_ham::Value;
    use neptune_storage::testutil::TempDir;

    fn fixture() -> (TempDir, Ham, NodeIndex) {
        let dir = TempDir::new("neptune-inspect");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(MAIN_CONTEXT, n, t, b"content\n".to_vec(), &[])
            .unwrap();
        let status = ham.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
        ham.set_node_attribute_value(MAIN_CONTEXT, n, status, Value::str("draft"))
            .unwrap();
        (dir, ham, n)
    }

    #[test]
    fn attribute_browser_lists_names_and_values() {
        let (_dir, ham, _) = fixture();
        let text = attribute_browser(&ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        assert!(text.contains("status"));
        assert!(text.contains("draft"));
    }

    #[test]
    fn attribute_browser_respects_time() {
        let (_dir, ham, _) = fixture();
        // Time(1) predates the attribute's creation.
        let text = attribute_browser(&ham, MAIN_CONTEXT, Time(1)).unwrap();
        assert!(!text.contains("status"));
    }

    #[test]
    fn version_browser_shows_both_histories() {
        let (_dir, ham, n) = fixture();
        let text = version_browser(&ham, MAIN_CONTEXT, n).unwrap();
        assert!(text.contains("created"));
        assert!(text.contains("modifyNode"));
        assert!(text.contains("attribute set"));
    }

    #[test]
    fn demon_browser_shows_registrations_and_journal() {
        let (_dir, mut ham, n) = fixture();
        ham.set_graph_demon_value(
            MAIN_CONTEXT,
            Event::NodeModified,
            Some(DemonSpec::notify("watcher", "changed")),
        )
        .unwrap();
        ham.set_node_demon(
            MAIN_CONTEXT,
            n,
            Event::NodeOpened,
            Some(DemonSpec::notify("greeter", "opened")),
        )
        .unwrap();
        // Fire both.
        let opened = ham.open_node(MAIN_CONTEXT, n, Time::CURRENT, &[]).unwrap();
        ham.modify_node(
            MAIN_CONTEXT,
            n,
            opened.current_time,
            b"v2\n".to_vec(),
            &opened.link_pts,
        )
        .unwrap();
        let text = demon_browser(&ham, MAIN_CONTEXT, Some(n), Time::CURRENT).unwrap();
        assert!(text.contains("watcher"));
        assert!(text.contains("greeter"));
        assert!(text.contains("journal"));
        assert!(text.contains("changed") || text.contains("opened"));
    }
}
