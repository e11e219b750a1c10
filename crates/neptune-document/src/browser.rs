//! The graph browser (paper Figure 1).
//!
//! §4.1: *"The graph browser shows a pictorial view of a hyperdocument or
//! a portion of a hyperdocument … Each node is represented by an icon that
//! consists of a name enclosed in a rectangle. … The graph browser itself
//! has four panes: the upper pane contains the view of the graph, the
//! lower left pane is a scroll area …, the two panes on the lower right
//! contain text editors used to define the visibility predicates on nodes
//! and links."*
//!
//! This reproduction renders the same information textually: a layered
//! drawing of the visible sub-graph (each node a `[name]` box), the edge
//! list, and the two predicate panes.

use std::collections::HashMap;

use neptune_ham::predicate::Predicate;
use neptune_ham::types::{ContextId, LinkIndex, NodeIndex, Time};
use neptune_ham::{Ham, HamError, Result};

use crate::conventions::ICON;

/// The graph browser's state: its two visibility predicate panes.
#[derive(Debug, Clone)]
pub struct GraphBrowser {
    /// Node visibility predicate (lower-right pane, top).
    pub node_predicate: String,
    /// Link visibility predicate (lower-right pane, bottom).
    pub link_predicate: String,
}

impl Default for GraphBrowser {
    fn default() -> Self {
        GraphBrowser {
            node_predicate: "true".into(),
            link_predicate: "true".into(),
        }
    }
}

/// The computed view: visible nodes with labels and visible edges.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GraphView {
    /// Visible nodes with their icon labels, in index order.
    pub nodes: Vec<(NodeIndex, String)>,
    /// Visible edges `(link, from, to)` connecting visible nodes.
    pub edges: Vec<(LinkIndex, NodeIndex, NodeIndex)>,
}

impl GraphBrowser {
    /// A browser showing everything.
    pub fn new() -> Self {
        Self::default()
    }

    /// A browser with explicit visibility predicates.
    pub fn with_predicates(node_pred: &str, link_pred: &str) -> Self {
        GraphBrowser {
            node_predicate: node_pred.to_string(),
            link_predicate: link_pred.to_string(),
        }
    }

    /// Compute the visible sub-graph at `time` via `getGraphQuery` — the
    /// same HAM call the Smalltalk browser issues.
    pub fn view(&self, ham: &Ham, context: ContextId, time: Time) -> Result<GraphView> {
        let node_pred = parse(&self.node_predicate)?;
        let link_pred = parse(&self.link_predicate)?;
        let icon_attr = ham.graph(context)?.attr_table.lookup(ICON);
        let attrs: Vec<_> = icon_attr.into_iter().collect();
        let sg = ham.get_graph_query(context, time, &node_pred, &link_pred, &attrs, &[])?;
        let nodes: Vec<(NodeIndex, String)> = sg
            .nodes
            .iter()
            .map(|(id, values)| {
                let label = values
                    .first()
                    .and_then(|v| v.clone())
                    .map(|v| v.to_string())
                    .unwrap_or_else(|| format!("node-{}", id.0));
                (*id, label)
            })
            .collect();
        let graph = ham.graph(context)?;
        let edges = sg
            .links
            .iter()
            .map(|(id, _)| {
                let link = graph.link(*id)?;
                Ok((*id, link.from.node, link.to.node))
            })
            .collect::<Result<Vec<_>>>()?;
        Ok(GraphView { nodes, edges })
    }

    /// Render the four-pane browser as text: the layered graph pane, then
    /// the scroll pane placeholder and the two predicate panes.
    pub fn render(&self, ham: &Ham, context: ContextId, time: Time) -> Result<String> {
        let view = self.view(ham, context, time)?;
        let mut out = String::new();
        out.push_str("+-- Graph Browser ");
        out.push_str(&"-".repeat(44));
        out.push('\n');
        for row in layered_rows(&view) {
            out.push_str("| ");
            let boxes: Vec<String> = row.iter().map(|(_, label)| format!("[{label}]")).collect();
            out.push_str(&boxes.join("   "));
            out.push('\n');
        }
        if !view.edges.is_empty() {
            out.push_str("|\n");
            let labels: HashMap<NodeIndex, &str> =
                view.nodes.iter().map(|(id, l)| (*id, l.as_str())).collect();
            for (link, from, to) in &view.edges {
                out.push_str(&format!(
                    "|   {} --> {}   (link {})\n",
                    labels.get(from).copied().unwrap_or("?"),
                    labels.get(to).copied().unwrap_or("?"),
                    link.0
                ));
            }
        }
        out.push_str("+-- scroll: [zoom] [pan] ");
        out.push_str(&"-".repeat(37));
        out.push('\n');
        out.push_str(&format!("| node visibility: {}\n", self.node_predicate));
        out.push_str(&format!("| link visibility: {}\n", self.link_predicate));
        out.push_str(&"-".repeat(62));
        out.push('\n');
        Ok(out)
    }
}

fn parse(text: &str) -> Result<Predicate> {
    Predicate::parse(text).map_err(|message| HamError::BadPredicate { message })
}

/// Assign each visible node a layer (longest path from a root) and return
/// the rows top-down — a simple Sugiyama-style layering.
fn layered_rows(view: &GraphView) -> Vec<Vec<(NodeIndex, String)>> {
    let ids: Vec<NodeIndex> = view.nodes.iter().map(|(id, _)| *id).collect();
    let labels: HashMap<NodeIndex, &String> = view.nodes.iter().map(|(id, l)| (*id, l)).collect();
    let mut layer: HashMap<NodeIndex, usize> = ids.iter().map(|id| (*id, 0)).collect();
    // Relax longest-path layering; bounded by node count to survive cycles.
    for _ in 0..ids.len() {
        let mut changed = false;
        for (_, from, to) in &view.edges {
            if from == to {
                continue;
            }
            if let (Some(&lf), Some(&lt)) = (layer.get(from), layer.get(to)) {
                if lt < lf + 1 && lf + 1 < ids.len() {
                    layer.insert(*to, lf + 1);
                    changed = true;
                }
            }
        }
        if !changed {
            break;
        }
    }
    let max_layer = layer.values().copied().max().unwrap_or(0);
    let mut rows: Vec<Vec<(NodeIndex, String)>> = vec![Vec::new(); max_layer + 1];
    for id in ids {
        rows[layer[&id]].push((id, labels[&id].clone()));
    }
    rows.retain(|r| !r.is_empty());
    rows
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn sample() -> (TempDir, Ham, Document) {
        let dir = TempDir::new("neptune-gb");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "paper", "SIGMOD Paper").unwrap();
        let spec = doc.add_section(&mut ham, doc.root, 10, "Spec", "").unwrap();
        doc.add_section(&mut ham, doc.root, 20, "Design", "")
            .unwrap();
        doc.add_section(&mut ham, spec, 5, "Spec2", "").unwrap();
        (dir, ham, doc)
    }

    #[test]
    fn view_shows_labeled_nodes_and_edges() {
        let (_dir, ham, _) = sample();
        let view = GraphBrowser::new()
            .view(&ham, MAIN_CONTEXT, Time::CURRENT)
            .unwrap();
        assert_eq!(view.nodes.len(), 4);
        assert_eq!(view.edges.len(), 3);
        let labels: Vec<&str> = view.nodes.iter().map(|(_, l)| l.as_str()).collect();
        assert!(labels.contains(&"SIGMOD Paper"));
        assert!(labels.contains(&"Spec2"));
    }

    #[test]
    fn node_predicate_filters_view() {
        let (_dir, ham, _) = sample();
        let browser = GraphBrowser::with_predicates("icon = Spec", "true");
        let view = browser.view(&ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        assert_eq!(view.nodes.len(), 1);
        assert!(view.edges.is_empty(), "edges need both ends visible");
    }

    #[test]
    fn render_has_four_panes_and_layers() {
        let (_dir, ham, _) = sample();
        let text = GraphBrowser::new()
            .render(&ham, MAIN_CONTEXT, Time::CURRENT)
            .unwrap();
        assert!(text.contains("Graph Browser"));
        assert!(text.contains("[SIGMOD Paper]"));
        assert!(text.contains("node visibility: true"));
        assert!(text.contains("link visibility: true"));
        // Root is on a line above its children.
        let root_line = text
            .lines()
            .position(|l| l.contains("[SIGMOD Paper]"))
            .unwrap();
        let child_line = text.lines().position(|l| l.contains("[Spec]")).unwrap();
        let grandchild_line = text.lines().position(|l| l.contains("[Spec2]")).unwrap();
        assert!(
            root_line < child_line && child_line < grandchild_line,
            "{text}"
        );
        // Edges listed.
        assert!(text.contains("SIGMOD Paper --> Spec"));
    }

    #[test]
    fn cycles_do_not_hang_layout() {
        let (_dir, mut ham, doc) = sample();
        // Create a cycle back to the root.
        let spec = doc.children(&ham, doc.root, Time::CURRENT).unwrap()[0];
        ham.add_link(
            MAIN_CONTEXT,
            neptune_ham::LinkPt::current(spec, 0),
            neptune_ham::LinkPt::current(doc.root, 0),
        )
        .unwrap();
        let text = GraphBrowser::new()
            .render(&ham, MAIN_CONTEXT, Time::CURRENT)
            .unwrap();
        assert!(text.contains("[Spec]"));
    }

    #[test]
    fn bad_predicate_is_reported() {
        let (_dir, ham, _) = sample();
        let browser = GraphBrowser::with_predicates("icon = ", "true");
        assert!(matches!(
            browser.view(&ham, MAIN_CONTEXT, Time::CURRENT),
            Err(HamError::BadPredicate { .. })
        ));
    }
}
