//! Hierarchical documents over the HAM.
//!
//! Paper §4.2: *"Documents are typically organized as a hierarchy of
//! sections and sub-sections. This structure can be directly expressed in
//! hypertext by using a node to represent each section or sub-section with
//! links connecting each node to its immediate descendent sections."*
//! [`Document`] wraps a HAM graph with those conventions: every section is
//! an archive node tagged with `document` and `icon` attributes, structure
//! links carry `relation = isPartOf`, and link offsets within a section
//! order its children.

use neptune_ham::predicate::Predicate;
use neptune_ham::types::{ContextId, LinkIndex, LinkPt, NodeIndex, Time};
use neptune_ham::value::Value;
use neptune_ham::{Ham, Result};

use crate::conventions::{DOCUMENT, ICON, IS_PART_OF, REFERENCES, RELATION};

/// A handle to one named document inside a HAM graph.
#[derive(Debug, Clone)]
pub struct Document {
    /// The context the document lives in.
    pub context: ContextId,
    /// The document's name (the value of every member node's `document`
    /// attribute).
    pub name: String,
    /// The root section node.
    pub root: NodeIndex,
}

impl Document {
    /// Create a new document: a root section node tagged with the document
    /// conventions. Bundled in one transaction.
    pub fn create(ham: &mut Ham, context: ContextId, name: &str, title: &str) -> Result<Document> {
        ham.begin_transaction()?;
        let result = (|| {
            let (root, t) = ham.add_node(context, true)?;
            ham.modify_node(context, root, t, format!("{title}\n").into_bytes(), &[])?;
            let doc_attr = ham.get_attribute_index(context, DOCUMENT)?;
            let icon_attr = ham.get_attribute_index(context, ICON)?;
            ham.set_node_attribute_value(context, root, doc_attr, Value::str(name))?;
            ham.set_node_attribute_value(context, root, icon_attr, Value::str(title))?;
            Ok(Document {
                context,
                name: name.to_string(),
                root,
            })
        })();
        match result {
            Ok(doc) => {
                ham.commit_transaction()?;
                Ok(doc)
            }
            Err(e) => {
                let _ = ham.abort_transaction();
                Err(e)
            }
        }
    }

    /// Add a section under `parent` at child position `order` (the
    /// structure link's offset within the parent — lower offsets come
    /// first in `linearizeGraph`).
    pub fn add_section(
        &self,
        ham: &mut Ham,
        parent: NodeIndex,
        order: u64,
        title: &str,
        body: &str,
    ) -> Result<NodeIndex> {
        ham.begin_transaction()?;
        let result = (|| {
            let ctx = self.context;
            let (section, t) = ham.add_node(ctx, true)?;
            let contents = format!("{title}\n{body}");
            ham.modify_node(ctx, section, t, contents.into_bytes(), &[])?;
            let doc_attr = ham.get_attribute_index(ctx, DOCUMENT)?;
            let icon_attr = ham.get_attribute_index(ctx, ICON)?;
            let rel_attr = ham.get_attribute_index(ctx, RELATION)?;
            ham.set_node_attribute_value(ctx, section, doc_attr, Value::str(&self.name))?;
            ham.set_node_attribute_value(ctx, section, icon_attr, Value::str(title))?;
            let (link, _) = ham.add_link(
                ctx,
                LinkPt::current(parent, order),
                LinkPt::current(section, 0),
            )?;
            ham.set_link_attribute_value(ctx, link, rel_attr, Value::str(IS_PART_OF))?;
            Ok(section)
        })();
        match result {
            Ok(section) => {
                ham.commit_transaction()?;
                Ok(section)
            }
            Err(e) => {
                let _ = ham.abort_transaction();
                Err(e)
            }
        }
    }

    /// Add a cross-reference link (`relation = references`) from a position
    /// inside `from` to a target section.
    pub fn add_reference(
        &self,
        ham: &mut Ham,
        from: NodeIndex,
        at: u64,
        target: NodeIndex,
    ) -> Result<LinkIndex> {
        ham.begin_transaction()?;
        let result = (|| {
            let ctx = self.context;
            let (link, _) =
                ham.add_link(ctx, LinkPt::current(from, at), LinkPt::current(target, 0))?;
            let rel_attr = ham.get_attribute_index(ctx, RELATION)?;
            ham.set_link_attribute_value(ctx, link, rel_attr, Value::str(REFERENCES))?;
            Ok(link)
        })();
        match result {
            Ok(link) => {
                ham.commit_transaction()?;
                Ok(link)
            }
            Err(e) => {
                let _ = ham.abort_transaction();
                Err(e)
            }
        }
    }

    /// The document's sections in reading order at `time` — the document
    /// extraction that `linearizeGraph` exists for, filtered to this
    /// document's nodes and `isPartOf` structure.
    pub fn sections(&self, ham: &Ham, time: Time) -> Result<Vec<NodeIndex>> {
        let node_pred = Predicate::parse(&crate::conventions::document_predicate(&self.name))
            .expect("convention predicates parse");
        let link_pred = Predicate::parse(&crate::conventions::structure_predicate())
            .expect("convention predicates parse");
        let sg = ham.linearize_graph(
            self.context,
            self.root,
            time,
            &node_pred,
            &link_pred,
            &[],
            &[],
        )?;
        Ok(sg.node_ids())
    }

    /// The immediate children of a section in order, following only
    /// structure links.
    pub fn children(&self, ham: &Ham, section: NodeIndex, time: Time) -> Result<Vec<NodeIndex>> {
        let graph = ham.graph(self.context)?;
        let rel_attr = graph.attr_table.lookup(RELATION);
        let mut out: Vec<(u64, NodeIndex)> = Vec::new();
        let node = graph.node(section)?;
        for &link_id in &node.incident_links {
            let link = graph.link(link_id)?;
            if link.from.node != section || !link.exists_at(time) {
                continue;
            }
            let is_structure = rel_attr
                .and_then(|attr| link.attrs.get(attr, time))
                .map(|v| *v == Value::str(IS_PART_OF))
                .unwrap_or(false);
            if !is_structure {
                continue;
            }
            if let Some(offset) = link.from.position_at(time) {
                out.push((offset, link.to.node));
            }
        }
        out.sort_unstable();
        Ok(out.into_iter().map(|(_, n)| n).collect())
    }

    /// A section's display title (its `icon` attribute, falling back to the
    /// node index).
    pub fn title(&self, ham: &Ham, section: NodeIndex, time: Time) -> Result<String> {
        let graph = ham.graph(self.context)?;
        let icon_attr = graph.attr_table.lookup(ICON);
        Ok(icon_attr
            .and_then(|attr| {
                graph
                    .node(section)
                    .ok()
                    .and_then(|n| n.attrs.get(attr, time))
            })
            .map(|v| v.to_string())
            .unwrap_or_else(|| format!("node-{}", section.0)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn fresh(name: &str) -> (TempDir, Ham) {
        let dir = TempDir::new(&format!("neptune-doc-{name}"));
        let ham = Ham::create_graph(&dir, Protections::DEFAULT).unwrap().0;
        (dir, ham)
    }

    #[test]
    fn build_and_linearize_a_document() {
        let (_dir, mut ham) = fresh("build");
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "paper", "Neptune").unwrap();
        let s1 = doc
            .add_section(&mut ham, doc.root, 10, "Introduction", "intro text\n")
            .unwrap();
        let s2 = doc
            .add_section(&mut ham, doc.root, 20, "Hypertext", "survey text\n")
            .unwrap();
        let s21 = doc
            .add_section(&mut ham, s2, 5, "Existing Systems", "memex...\n")
            .unwrap();

        let order = doc.sections(&ham, Time::CURRENT).unwrap();
        assert_eq!(order, vec![doc.root, s1, s2, s21]);
        assert_eq!(
            doc.children(&ham, doc.root, Time::CURRENT).unwrap(),
            vec![s1, s2]
        );
        assert_eq!(
            doc.title(&ham, s21, Time::CURRENT).unwrap(),
            "Existing Systems"
        );
    }

    #[test]
    fn child_order_follows_offsets_not_creation() {
        let (_dir, mut ham) = fresh("order");
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "d", "Doc").unwrap();
        let late = doc
            .add_section(&mut ham, doc.root, 30, "Third", "")
            .unwrap();
        let early = doc
            .add_section(&mut ham, doc.root, 10, "First", "")
            .unwrap();
        let mid = doc
            .add_section(&mut ham, doc.root, 20, "Second", "")
            .unwrap();
        assert_eq!(
            doc.children(&ham, doc.root, Time::CURRENT).unwrap(),
            vec![early, mid, late]
        );
    }

    #[test]
    fn references_are_not_structure() {
        let (_dir, mut ham) = fresh("refs");
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "d", "Doc").unwrap();
        let s1 = doc.add_section(&mut ham, doc.root, 10, "A", "").unwrap();
        let s2 = doc.add_section(&mut ham, doc.root, 20, "B", "").unwrap();
        doc.add_reference(&mut ham, s1, 0, s2).unwrap();
        // s2 is not a child of s1; it remains a child of root only.
        assert_eq!(
            doc.children(&ham, s1, Time::CURRENT).unwrap(),
            Vec::<NodeIndex>::new()
        );
        // And linearize with structure-only links doesn't duplicate s2.
        let order = doc.sections(&ham, Time::CURRENT).unwrap();
        assert_eq!(order, vec![doc.root, s1, s2]);
    }

    #[test]
    fn two_documents_are_disjoint() {
        let (_dir, mut ham) = fresh("twodocs");
        let a = Document::create(&mut ham, MAIN_CONTEXT, "a", "Doc A").unwrap();
        let b = Document::create(&mut ham, MAIN_CONTEXT, "b", "Doc B").unwrap();
        a.add_section(&mut ham, a.root, 10, "A1", "").unwrap();
        b.add_section(&mut ham, b.root, 10, "B1", "").unwrap();
        assert_eq!(a.sections(&ham, Time::CURRENT).unwrap().len(), 2);
        assert_eq!(b.sections(&ham, Time::CURRENT).unwrap().len(), 2);
    }

    #[test]
    fn failed_section_add_rolls_back() {
        let (_dir, mut ham) = fresh("rollback");
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "d", "Doc").unwrap();
        let before = ham.graph(MAIN_CONTEXT).unwrap().live_node_count();
        // Adding under a nonexistent parent fails atomically.
        let err = doc.add_section(&mut ham, NodeIndex(999), 0, "orphan", "");
        assert!(err.is_err());
        assert_eq!(ham.graph(MAIN_CONTEXT).unwrap().live_node_count(), before);
    }
}
