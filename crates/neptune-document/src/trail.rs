//! Trails: saved traversal histories.
//!
//! Paper §2.2: *"As a hypertext reader follows link after link in reading
//! portions of hyperdocuments, he or she may want to keep a trail of which
//! links were followed. This trail allows other readers to follow the same
//! path and makes it easier to resume reading a document after a diversion
//! has been followed. A capability for saving a traversal history was a
//! key component of Bush's memex."*
//!
//! A trail is itself hypertext: a node whose contents record the path, so
//! trails persist with the graph, version like everything else, and are
//! sharable between readers. Each step records the link followed and the
//! node reached.

use neptune_ham::types::{ContextId, LinkIndex, NodeIndex, Time};
use neptune_ham::value::Value;
use neptune_ham::{Ham, HamError, Result};

use crate::conventions::ICON;

/// `contentType` value identifying trail nodes.
pub const TRAIL_CONTENT_TYPE: &str = "trail";

/// One recorded step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrailStep {
    /// The link that was followed (`None` for the starting node).
    pub link: Option<LinkIndex>,
    /// The node the reader arrived at.
    pub node: NodeIndex,
}

/// A reader's trail through a hyperdocument.
#[derive(Debug, Clone)]
pub struct Trail {
    /// The hypertext node storing this trail.
    pub node: NodeIndex,
    /// The reader's name (stored as the trail node's icon).
    pub name: String,
    steps: Vec<TrailStep>,
}

impl Trail {
    /// Start a new trail named `name` at `start`.
    pub fn start(ham: &mut Ham, context: ContextId, name: &str, start: NodeIndex) -> Result<Trail> {
        ham.graph(context)?.live_node(start, Time::CURRENT)?;
        ham.begin_transaction()?;
        let result = (|| {
            let (node, t) = ham.add_node(context, true)?;
            let mut trail = Trail {
                node,
                name: name.to_string(),
                steps: vec![TrailStep {
                    link: None,
                    node: start,
                }],
            };
            ham.modify_node(context, node, t, trail.serialize(), &[])?;
            let icon = ham.get_attribute_index(context, ICON)?;
            ham.set_node_attribute_value(context, node, icon, Value::str(name))?;
            let ct = ham.get_attribute_index(context, "contentType")?;
            ham.set_node_attribute_value(context, node, ct, Value::str(TRAIL_CONTENT_TYPE))?;
            trail.steps = vec![TrailStep {
                link: None,
                node: start,
            }];
            Ok(trail)
        })();
        match result {
            Ok(trail) => {
                ham.commit_transaction()?;
                Ok(trail)
            }
            Err(e) => {
                let _ = ham.abort_transaction();
                Err(e)
            }
        }
    }

    /// The node the reader is currently at (for resuming after a
    /// diversion).
    pub fn current(&self) -> NodeIndex {
        self.steps.last().expect("trails always have a start").node
    }

    /// The recorded steps, start first.
    pub fn steps(&self) -> &[TrailStep] {
        &self.steps
    }

    /// Follow `link` from the current node, recording the step and
    /// persisting the trail. The link must leave the current node and be
    /// alive now.
    pub fn follow(
        &mut self,
        ham: &mut Ham,
        context: ContextId,
        link: LinkIndex,
    ) -> Result<NodeIndex> {
        let (from, _) = ham.get_from_node(context, link, Time::CURRENT)?;
        if from != self.current() {
            return Err(HamError::BadEndpoint {
                node: from,
                time: Time::CURRENT,
            });
        }
        let (target, _) = ham.get_to_node(context, link, Time::CURRENT)?;
        self.steps.push(TrailStep {
            link: Some(link),
            node: target,
        });
        self.persist(ham, context)?;
        Ok(target)
    }

    /// Step back to the previous node (after a diversion), recording the
    /// retreat as a step with no link.
    pub fn back(&mut self, ham: &mut Ham, context: ContextId) -> Result<Option<NodeIndex>> {
        if self.steps.len() < 2 {
            return Ok(None);
        }
        let previous = self.steps[self.steps.len() - 2].node;
        self.steps.push(TrailStep {
            link: None,
            node: previous,
        });
        self.persist(ham, context)?;
        Ok(Some(previous))
    }

    fn persist(&self, ham: &mut Ham, context: ContextId) -> Result<()> {
        let opened = ham.open_node(context, self.node, Time::CURRENT, &[])?;
        ham.modify_node(
            context,
            self.node,
            opened.current_time,
            self.serialize(),
            &opened.link_pts,
        )?;
        Ok(())
    }

    fn serialize(&self) -> Vec<u8> {
        let mut out = format!("TRAIL {}\n", self.name);
        for step in &self.steps {
            match step.link {
                Some(link) => out.push_str(&format!("via {} -> node {}\n", link.0, step.node.0)),
                None => out.push_str(&format!("at node {}\n", step.node.0)),
            }
        }
        out.into_bytes()
    }

    /// Load a trail another reader saved, so their path can be replayed.
    pub fn load(ham: &mut Ham, context: ContextId, node: NodeIndex) -> Result<Trail> {
        let contents = ham.open_node(context, node, Time::CURRENT, &[])?.contents;
        let text = String::from_utf8_lossy(&contents);
        let mut lines = text.lines();
        let header = lines.next().unwrap_or("");
        let name = header
            .strip_prefix("TRAIL ")
            .unwrap_or("unnamed")
            .to_string();
        let mut steps = Vec::new();
        for line in lines {
            if let Some(rest) = line.strip_prefix("at node ") {
                if let Ok(id) = rest.trim().parse::<u64>() {
                    steps.push(TrailStep {
                        link: None,
                        node: NodeIndex(id),
                    });
                }
            } else if let Some(rest) = line.strip_prefix("via ") {
                let mut parts = rest.split(" -> node ");
                let link = parts.next().and_then(|p| p.trim().parse::<u64>().ok());
                let node_id = parts.next().and_then(|p| p.trim().parse::<u64>().ok());
                if let (Some(link), Some(node_id)) = (link, node_id) {
                    steps.push(TrailStep {
                        link: Some(LinkIndex(link)),
                        node: NodeIndex(node_id),
                    });
                }
            }
        }
        if steps.is_empty() {
            return Err(HamError::BadPredicate {
                message: format!("node {} does not contain a trail", node.0),
            });
        }
        Ok(Trail { node, name, steps })
    }

    /// Replay the trail: the sequence of nodes another reader visited, in
    /// order — "allows other readers to follow the same path".
    pub fn replay(&self) -> Vec<NodeIndex> {
        self.steps.iter().map(|s| s.node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::{LinkPt, Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn reading_graph() -> (TempDir, Ham, Vec<NodeIndex>, Vec<LinkIndex>) {
        let dir = TempDir::new("neptune-trail");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let mut nodes = Vec::new();
        for i in 0..4 {
            let (n, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
            ham.modify_node(MAIN_CONTEXT, n, t, format!("page {i}\n").into_bytes(), &[])
                .unwrap();
            nodes.push(n);
        }
        let mut links = Vec::new();
        for w in nodes.windows(2) {
            let (l, _) = ham
                .add_link(
                    MAIN_CONTEXT,
                    LinkPt::current(w[0], 0),
                    LinkPt::current(w[1], 0),
                )
                .unwrap();
            links.push(l);
        }
        (dir, ham, nodes, links)
    }

    #[test]
    fn trail_records_followed_links() {
        let (_dir, mut ham, nodes, links) = reading_graph();
        let mut trail = Trail::start(&mut ham, MAIN_CONTEXT, "norm", nodes[0]).unwrap();
        assert_eq!(trail.current(), nodes[0]);
        trail.follow(&mut ham, MAIN_CONTEXT, links[0]).unwrap();
        trail.follow(&mut ham, MAIN_CONTEXT, links[1]).unwrap();
        assert_eq!(trail.current(), nodes[2]);
        assert_eq!(trail.replay(), vec![nodes[0], nodes[1], nodes[2]]);
    }

    #[test]
    fn wrong_link_is_rejected() {
        let (_dir, mut ham, nodes, links) = reading_graph();
        let mut trail = Trail::start(&mut ham, MAIN_CONTEXT, "norm", nodes[0]).unwrap();
        // links[1] starts at nodes[1], not the current node.
        assert!(trail.follow(&mut ham, MAIN_CONTEXT, links[1]).is_err());
        assert_eq!(trail.current(), nodes[0], "failed follow does not move");
    }

    #[test]
    fn back_resumes_after_diversion() {
        let (_dir, mut ham, nodes, links) = reading_graph();
        let mut trail = Trail::start(&mut ham, MAIN_CONTEXT, "norm", nodes[0]).unwrap();
        trail.follow(&mut ham, MAIN_CONTEXT, links[0]).unwrap();
        let resumed = trail.back(&mut ham, MAIN_CONTEXT).unwrap();
        assert_eq!(resumed, Some(nodes[0]));
        assert_eq!(trail.current(), nodes[0]);
        // Backing past the start is a no-op... from the start of this trail
        // the previous node is nodes[1] (the step before the retreat).
        assert!(trail.back(&mut ham, MAIN_CONTEXT).unwrap().is_some());
    }

    #[test]
    fn another_reader_loads_and_replays() {
        let (_dir, mut ham, nodes, links) = reading_graph();
        let trail_node;
        {
            let mut trail = Trail::start(&mut ham, MAIN_CONTEXT, "norm", nodes[0]).unwrap();
            trail.follow(&mut ham, MAIN_CONTEXT, links[0]).unwrap();
            trail.follow(&mut ham, MAIN_CONTEXT, links[1]).unwrap();
            trail_node = trail.node;
        }
        let loaded = Trail::load(&mut ham, MAIN_CONTEXT, trail_node).unwrap();
        assert_eq!(loaded.name, "norm");
        assert_eq!(loaded.replay(), vec![nodes[0], nodes[1], nodes[2]]);
        assert_eq!(loaded.current(), nodes[2]);
    }

    #[test]
    fn loading_a_non_trail_node_fails() {
        let (_dir, mut ham, nodes, _) = reading_graph();
        assert!(Trail::load(&mut ham, MAIN_CONTEXT, nodes[0]).is_err());
    }

    #[test]
    fn trails_are_versioned_hypertext() {
        let (_dir, mut ham, nodes, links) = reading_graph();
        let mut trail = Trail::start(&mut ham, MAIN_CONTEXT, "norm", nodes[0]).unwrap();
        let t_short = ham.graph(MAIN_CONTEXT).unwrap().now();
        trail.follow(&mut ham, MAIN_CONTEXT, links[0]).unwrap();
        // The earlier, shorter trail is still visible at the earlier time.
        let old = ham
            .open_node(MAIN_CONTEXT, trail.node, t_short, &[])
            .unwrap();
        let old_text = String::from_utf8_lossy(&old.contents).into_owned();
        assert!(!old_text.contains("via"), "{old_text}");
        let new = ham
            .open_node(MAIN_CONTEXT, trail.node, Time::CURRENT, &[])
            .unwrap();
        assert!(String::from_utf8_lossy(&new.contents).contains("via"));
    }
}
