//! The document browser (paper Figure 2).
//!
//! §4.1: *"It consists of five panes: the four upper panes contain lists
//! of names of nodes, the lower pane is a node browser which can be used
//! to view the contents of one of the nodes listed in the top panes. The
//! node-list in the upper-left pane is formed by executing a getGraphQuery
//! HAM operation. The node-list in each pane to the right is formed by
//! accessing the immediate descendents of the selected node in the left
//! adjacent pane via the linearizeGraph HAM operation. Commands are
//! available to shift the panes in order to view deeply nested
//! hierarchies."*

use neptune_ham::predicate::Predicate;
use neptune_ham::types::{ContextId, NodeIndex, Time};
use neptune_ham::{Ham, HamError, Result};

use crate::conventions::ICON;

/// Number of node-list panes (the paper's figure shows four).
pub const PANE_COUNT: usize = 4;

/// The document browser's state: the root query and the selection path.
#[derive(Debug, Clone)]
pub struct DocumentBrowser {
    /// Node predicate for the upper-left pane's `getGraphQuery`.
    pub query: String,
    /// Link predicate restricting which links count as structure.
    pub link_predicate: String,
    /// Selected entry index in each pane, left to right. Panes beyond the
    /// selection path are empty.
    pub selections: Vec<usize>,
    /// How many levels the panes have been shifted right (the "commands …
    /// to shift the panes" for deep hierarchies).
    pub shift: usize,
}

/// A computed five-pane view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OutlineView {
    /// The four node-list panes: `(node, name, selected)` rows.
    pub panes: Vec<Vec<(NodeIndex, String, bool)>>,
    /// The node shown in the lower (node browser) pane, if any.
    pub focus: Option<NodeIndex>,
    /// The focused node's contents.
    pub contents: String,
}

impl DocumentBrowser {
    /// A browser rooted at a query, following only structure links.
    pub fn new(query: &str) -> DocumentBrowser {
        DocumentBrowser {
            query: query.to_string(),
            link_predicate: crate::conventions::structure_predicate(),
            selections: Vec::new(),
            shift: 0,
        }
    }

    /// Select entry `index` in pane `pane` (0-based, after shift),
    /// clearing deeper selections.
    pub fn select(&mut self, pane: usize, index: usize) {
        self.selections.truncate(pane + self.shift);
        self.selections.push(index);
    }

    /// Shift the panes one level to the right (for deep hierarchies).
    pub fn shift_right(&mut self) {
        self.shift += 1;
    }

    /// Shift the panes back one level.
    pub fn shift_left(&mut self) {
        self.shift = self.shift.saturating_sub(1);
    }

    /// Compute the view at `time`. The first level is the `getGraphQuery`
    /// result; each subsequent level lists the selected node's immediate
    /// descendants via `linearizeGraph`.
    pub fn view(&self, ham: &mut Ham, context: ContextId, time: Time) -> Result<OutlineView> {
        let node_pred =
            Predicate::parse(&self.query).map_err(|message| HamError::BadPredicate { message })?;
        let link_pred = Predicate::parse(&self.link_predicate)
            .map_err(|message| HamError::BadPredicate { message })?;

        // Level 0: the associative query.
        let sg = ham.get_graph_query(context, time, &node_pred, &Predicate::True, &[], &[])?;
        let mut levels: Vec<Vec<NodeIndex>> = vec![sg.node_ids()];

        // Deeper levels: immediate descendants of the selection.
        let mut focus = None;
        for (depth, &selected) in self.selections.iter().enumerate() {
            let current = &levels[depth];
            let Some(&node) = current.get(selected) else {
                break;
            };
            focus = Some(node);
            let children = immediate_children(ham, context, node, time, &link_pred)?;
            if children.is_empty() {
                break;
            }
            levels.push(children);
        }

        // Window the levels through the shifted panes.
        let mut panes: Vec<Vec<(NodeIndex, String, bool)>> = Vec::with_capacity(PANE_COUNT);
        for pane in 0..PANE_COUNT {
            let level_idx = pane + self.shift;
            let rows = match levels.get(level_idx) {
                Some(nodes) => {
                    let selected = self.selections.get(level_idx).copied();
                    nodes
                        .iter()
                        .enumerate()
                        .map(|(i, &n)| {
                            Ok((n, node_name(ham, context, n, time)?, selected == Some(i)))
                        })
                        .collect::<Result<Vec<_>>>()?
                }
                None => Vec::new(),
            };
            panes.push(rows);
        }

        let contents = match focus {
            Some(node) => {
                String::from_utf8_lossy(&ham.open_node(context, node, time, &[])?.contents)
                    .into_owned()
            }
            None => String::new(),
        };
        Ok(OutlineView {
            panes,
            focus,
            contents,
        })
    }

    /// Render the five-pane browser as text: four columns side by side and
    /// the node browser below.
    pub fn render(&self, ham: &mut Ham, context: ContextId, time: Time) -> Result<String> {
        let view = self.view(ham, context, time)?;
        const W: usize = 18;
        let rows = view.panes.iter().map(|p| p.len()).max().unwrap_or(0);
        let mut out = String::new();
        out.push_str("+-- Document Browser ");
        out.push_str(&"-".repeat(PANE_COUNT * (W + 3) - 21));
        out.push('\n');
        for r in 0..rows.max(1) {
            out.push('|');
            for pane in &view.panes {
                let cell = match pane.get(r) {
                    Some((_, name, selected)) => {
                        let marker = if *selected { ">" } else { " " };
                        format!("{marker}{name}")
                    }
                    None => String::new(),
                };
                let mut cell: String = cell.chars().take(W).collect();
                while cell.chars().count() < W {
                    cell.push(' ');
                }
                out.push_str(&format!(" {cell} |"));
            }
            out.push('\n');
        }
        out.push_str(&format!("+{}\n", "-".repeat(PANE_COUNT * (W + 3) - 1)));
        for line in view.contents.lines() {
            out.push_str(&format!("| {line}\n"));
        }
        out.push_str(&"-".repeat(PANE_COUNT * (W + 3)));
        out.push('\n');
        Ok(out)
    }
}

/// A node's display name: its `icon` attribute or a fallback.
fn node_name(ham: &Ham, context: ContextId, node: NodeIndex, time: Time) -> Result<String> {
    let graph = ham.graph(context)?;
    let icon = graph.attr_table.lookup(ICON);
    Ok(icon
        .and_then(|attr| graph.node(node).ok().and_then(|n| n.attrs.get(attr, time)))
        .map(|v| v.to_string())
        .unwrap_or_else(|| format!("node-{}", node.0)))
}

/// The immediate descendants of `node` via links satisfying `link_pred`,
/// in offset order — one `linearizeGraph` level.
fn immediate_children(
    ham: &Ham,
    context: ContextId,
    node: NodeIndex,
    time: Time,
    link_pred: &Predicate,
) -> Result<Vec<NodeIndex>> {
    let graph = ham.graph(context)?;
    let n = graph.node(node)?;
    let mut out: Vec<(u64, NodeIndex)> = Vec::new();
    for &link_id in &n.incident_links {
        let link = graph.link(link_id)?;
        if link.from.node != node || !link.exists_at(time) {
            continue;
        }
        let lookup = graph.node_attr_lookup(&link.attrs, time);
        if !link_pred.matches(&lookup) {
            continue;
        }
        if let Some(offset) = link.from.position_at(time) {
            out.push((offset, link.to.node));
        }
    }
    out.sort_unstable();
    Ok(out.into_iter().map(|(_, n)| n).collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::doc::Document;
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn sample() -> (TempDir, Ham, Document) {
        let dir = TempDir::new("neptune-ob");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "paper", "Paper").unwrap();
        let h = doc
            .add_section(&mut ham, doc.root, 10, "Hypertext", "About hypertext.\n")
            .unwrap();
        doc.add_section(&mut ham, h, 1, "Existing Systems", "memex, NLS.\n")
            .unwrap();
        doc.add_section(&mut ham, h, 2, "Properties", "editing, traversal.\n")
            .unwrap();
        doc.add_section(&mut ham, doc.root, 20, "Overview", "HAM overview.\n")
            .unwrap();
        (dir, ham, doc)
    }

    #[test]
    fn first_pane_comes_from_query() {
        let (_dir, mut ham, _) = sample();
        let browser = DocumentBrowser::new("document = \"paper\"");
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        assert_eq!(
            view.panes[0].len(),
            5,
            "query pane lists all document nodes"
        );
        assert!(view.panes[1].is_empty(), "no selection yet");
        assert!(view.focus.is_none());
    }

    #[test]
    fn selections_open_descendant_panes() {
        let (_dir, mut ham, doc) = sample();
        let mut browser = DocumentBrowser::new("document = \"paper\"");
        // Find the root's index in pane 0 and select it.
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let root_idx = view.panes[0]
            .iter()
            .position(|(n, _, _)| *n == doc.root)
            .unwrap();
        browser.select(0, root_idx);
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let names: Vec<&str> = view.panes[1].iter().map(|(_, n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Hypertext", "Overview"]);
        assert_eq!(view.focus, Some(doc.root));
        assert!(view.contents.contains("Paper"));

        // Select "Hypertext" in pane 1 → its children in pane 2.
        browser.select(1, 0);
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let names: Vec<&str> = view.panes[2].iter().map(|(_, n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Existing Systems", "Properties"]);
        assert!(view.contents.contains("About hypertext."));
    }

    #[test]
    fn shift_windows_deep_hierarchies() {
        let (_dir, mut ham, doc) = sample();
        let mut browser = DocumentBrowser::new("document = \"paper\"");
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let root_idx = view.panes[0]
            .iter()
            .position(|(n, _, _)| *n == doc.root)
            .unwrap();
        browser.select(0, root_idx);
        browser.select(1, 0);
        browser.shift_right();
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        // After shifting, pane 0 shows what used to be pane 1.
        let names: Vec<&str> = view.panes[0].iter().map(|(_, n, _)| n.as_str()).collect();
        assert_eq!(names, vec!["Hypertext", "Overview"]);
        browser.shift_left();
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        assert_eq!(view.panes[0].len(), 5);
    }

    #[test]
    fn render_shows_columns_and_contents() {
        let (_dir, mut ham, doc) = sample();
        let mut browser = DocumentBrowser::new("document = \"paper\"");
        let view = browser.view(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let root_idx = view.panes[0]
            .iter()
            .position(|(n, _, _)| *n == doc.root)
            .unwrap();
        browser.select(0, root_idx);
        let text = browser
            .render(&mut ham, MAIN_CONTEXT, Time::CURRENT)
            .unwrap();
        assert!(text.contains("Document Browser"));
        assert!(text.contains(">Paper") || text.contains("> Paper") || text.contains(">Pape"));
        assert!(text.contains("Hypertext"));
    }
}
