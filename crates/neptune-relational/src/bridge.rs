//! Materializing hypertext as relations.
//!
//! Paper §5: *"Hypertext can adequately capture the relationship between
//! all the major pieces of information … It could be very beneficial to
//! combine the advantages that hypertext provides with those provided by a
//! relational data base."* These functions project HAM state into
//! [`Relation`]s so relational expressions can range over nodes, links,
//! and attributes.

use neptune_ham::types::{ContextId, Time};
use neptune_ham::value::Value;
use neptune_ham::{Ham, HamError};

use crate::relation::Relation;

/// Errors from bridging.
#[derive(Debug)]
pub enum BridgeError {
    /// The HAM failed.
    Ham(HamError),
    /// The relational layer failed.
    Relation(crate::relation::RelError),
}

impl std::fmt::Display for BridgeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BridgeError::Ham(e) => write!(f, "ham: {e}"),
            BridgeError::Relation(e) => write!(f, "relation: {e}"),
        }
    }
}

impl std::error::Error for BridgeError {}

impl From<HamError> for BridgeError {
    fn from(e: HamError) -> Self {
        BridgeError::Ham(e)
    }
}
impl From<crate::relation::RelError> for BridgeError {
    fn from(e: crate::relation::RelError) -> Self {
        BridgeError::Relation(e)
    }
}

/// Result alias for bridge operations.
pub type Result<T> = std::result::Result<T, BridgeError>;

/// `nodes(node, <attr>...)` — one tuple per live node at `time`, with the
/// requested attribute values. Nodes lacking one of the attributes are
/// omitted (relational tuples are total; use several relations plus outer
/// combinations if partiality is wanted).
pub fn nodes_relation(
    ham: &Ham,
    context: ContextId,
    time: Time,
    attrs: &[&str],
) -> Result<Relation> {
    let graph = ham.graph(context)?;
    let mut schema = vec!["node"];
    schema.extend_from_slice(attrs);
    let indices: Vec<_> = attrs.iter().map(|a| graph.attr_table.lookup(a)).collect();
    let mut tuples = Vec::new();
    'next_node: for node in graph.nodes() {
        if !node.exists_at(time) {
            continue;
        }
        let mut row = vec![Value::Int(node.id.0 as i64)];
        for idx in &indices {
            match idx.and_then(|i| node.attrs.get(i, time)) {
                Some(v) => row.push(v.clone()),
                None => continue 'next_node,
            }
        }
        tuples.push(row);
    }
    Ok(Relation::new("nodes", schema, tuples)?)
}

/// `links(link, from, to, <attr>...)` — one tuple per live link at `time`.
pub fn links_relation(
    ham: &Ham,
    context: ContextId,
    time: Time,
    attrs: &[&str],
) -> Result<Relation> {
    let graph = ham.graph(context)?;
    let mut schema = vec!["link", "from", "to"];
    schema.extend_from_slice(attrs);
    let indices: Vec<_> = attrs.iter().map(|a| graph.attr_table.lookup(a)).collect();
    let mut tuples = Vec::new();
    'next_link: for link in graph.links() {
        if !link.exists_at(time) {
            continue;
        }
        let mut row = vec![
            Value::Int(link.id.0 as i64),
            Value::Int(link.from.node.0 as i64),
            Value::Int(link.to.node.0 as i64),
        ];
        for idx in &indices {
            match idx.and_then(|i| link.attrs.get(i, time)) {
                Some(v) => row.push(v.clone()),
                None => continue 'next_link,
            }
        }
        tuples.push(row);
    }
    Ok(Relation::new("links", schema, tuples)?)
}

/// `attributes(node, attribute, value)` — the fully general unpivoted view
/// of every node attribute at `time`.
pub fn attributes_relation(ham: &Ham, context: ContextId, time: Time) -> Result<Relation> {
    let graph = ham.graph(context)?;
    let mut tuples = Vec::new();
    for node in graph.nodes() {
        if !node.exists_at(time) {
            continue;
        }
        for (idx, value) in node.attrs.all_at(time) {
            if let Some(name) = graph.attr_table.name(idx) {
                tuples.push(vec![Value::Int(node.id.0 as i64), Value::str(name), value]);
            }
        }
    }
    Ok(Relation::new(
        "attributes",
        vec!["node", "attribute", "value"],
        tuples,
    )?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::{LinkPt, Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn fixture() -> (TempDir, Ham) {
        let dir = TempDir::new("neptune-rel");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let doc = ham.get_attribute_index(MAIN_CONTEXT, "document").unwrap();
        let rel = ham.get_attribute_index(MAIN_CONTEXT, "relation").unwrap();
        let (a, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        let (b, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        let (c, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.set_node_attribute_value(MAIN_CONTEXT, a, doc, Value::str("spec"))
            .unwrap();
        ham.set_node_attribute_value(MAIN_CONTEXT, b, doc, Value::str("spec"))
            .unwrap();
        ham.set_node_attribute_value(MAIN_CONTEXT, c, doc, Value::str("design"))
            .unwrap();
        let (l, _) = ham
            .add_link(MAIN_CONTEXT, LinkPt::current(a, 0), LinkPt::current(b, 0))
            .unwrap();
        ham.set_link_attribute_value(MAIN_CONTEXT, l, rel, Value::str("isPartOf"))
            .unwrap();
        (dir, ham)
    }

    #[test]
    fn nodes_relation_has_attr_columns() {
        let (_dir, ham) = fixture();
        let r = nodes_relation(&ham, MAIN_CONTEXT, Time::CURRENT, &["document"]).unwrap();
        assert_eq!(r.schema(), &["node", "document"]);
        assert_eq!(r.len(), 3);
        let spec = r.select_eq("document", &Value::str("spec")).unwrap();
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn nodes_missing_attrs_are_omitted() {
        let (_dir, ham) = fixture();
        let r = nodes_relation(&ham, MAIN_CONTEXT, Time::CURRENT, &["document", "ghost"]).unwrap();
        assert!(r.is_empty());
    }

    #[test]
    fn links_relation_joins_with_nodes() {
        let (_dir, ham) = fixture();
        let links = links_relation(&ham, MAIN_CONTEXT, Time::CURRENT, &["relation"]).unwrap();
        assert_eq!(links.len(), 1);
        // Join: which documents do structural links point into?
        let nodes = nodes_relation(&ham, MAIN_CONTEXT, Time::CURRENT, &["document"])
            .unwrap()
            .rename("node", "to")
            .unwrap();
        let joined = links.join(&nodes).unwrap();
        assert_eq!(joined.len(), 1);
        let doc_col = joined.column("document").unwrap();
        assert_eq!(joined.tuples()[0][doc_col], Value::str("spec"));
    }

    #[test]
    fn attributes_relation_unpivots() {
        let (_dir, ham) = fixture();
        let r = attributes_relation(&ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        assert_eq!(r.len(), 3); // three document attributes (link attrs excluded)
        let spec = r.select_eq("value", &Value::str("spec")).unwrap();
        assert_eq!(spec.len(), 2);
    }

    #[test]
    fn relations_respect_time() {
        let (_dir, mut ham) = fixture();
        let t_then = ham.graph(MAIN_CONTEXT).unwrap().now();
        let (extra, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        let doc = ham.get_attribute_index(MAIN_CONTEXT, "document").unwrap();
        ham.set_node_attribute_value(MAIN_CONTEXT, extra, doc, Value::str("late"))
            .unwrap();
        let now = nodes_relation(&ham, MAIN_CONTEXT, Time::CURRENT, &["document"]).unwrap();
        let then = nodes_relation(&ham, MAIN_CONTEXT, t_then, &["document"]).unwrap();
        assert_eq!(now.len(), 4);
        assert_eq!(then.len(), 3);
    }
}
