//! Cross-references: the paper's own example query.
//!
//! Paper §5: *"given such fine grained information as a symbol table, one
//! might want to find all references to a variable, not only in the code,
//! but in all the documentation as well."* Hypertext links capture coarse
//! structure; this module extracts the fine-grained definition/use
//! relation from node contents and exposes it relationally, so exactly
//! that question becomes a select/join.

use std::collections::HashMap;

use neptune_ham::types::{ContextId, Time};
use neptune_ham::value::Value;
use neptune_ham::Ham;

use crate::bridge::Result;
use crate::relation::Relation;

/// The extracted cross-reference database.
#[derive(Debug, Clone)]
pub struct Xref {
    /// `defs(symbol, node)` — where each symbol is defined (module name or
    /// `PROCEDURE` declaration in a Modula-2 source node).
    pub defs: Relation,
    /// `refs(symbol, node, kind)` — each occurrence of a defined symbol in
    /// some *other* node's contents; `kind` is `code` or `documentation`.
    pub refs: Relation,
}

fn identifiers(text: &str) -> Vec<&str> {
    let mut out = Vec::new();
    let mut start = None;
    for (i, c) in text.char_indices() {
        if c.is_alphanumeric() || c == '_' {
            if start.is_none() {
                start = Some(i);
            }
        } else if let Some(s) = start.take() {
            out.push(&text[s..i]);
        }
    }
    if let Some(s) = start {
        out.push(&text[s..]);
    }
    out
}

/// Extract definitions and references from every live node at `time`.
///
/// Definitions come from Modula-2 source nodes (`contentType =
/// modula2Source`): the module name and each declared procedure.
/// References are occurrences of any defined symbol in any *other* node's
/// contents — source nodes count as `code`, everything else as
/// `documentation`.
pub fn build_xref(ham: &mut Ham, context: ContextId, time: Time) -> Result<Xref> {
    // Gather node contents + whether each node is source code.
    let node_info: Vec<(u64, bool, String)> = {
        let graph = ham.graph(context)?;
        let ct = graph.attr_table.lookup("contentType");
        graph
            .nodes()
            .filter(|n| n.exists_at(time))
            .filter_map(|n| {
                let contents = n.contents_at(time).ok()?;
                let is_source = ct
                    .and_then(|attr| n.attrs.get(attr, time))
                    .map(|v| *v == Value::str("modula2Source"))
                    .unwrap_or(false);
                Some((
                    n.id.0,
                    is_source,
                    String::from_utf8_lossy(&contents).into_owned(),
                ))
            })
            .collect()
    };

    // Definitions from source nodes.
    let mut defined_in: HashMap<String, u64> = HashMap::new();
    for (id, is_source, text) in &node_info {
        if !is_source {
            continue;
        }
        for line in text.lines().map(str::trim) {
            if let Some(rest) = line.strip_prefix("PROCEDURE ") {
                if let Some(name) = identifiers(rest).first() {
                    defined_in.entry(name.to_string()).or_insert(*id);
                }
            }
            if let Some(pos) = line.find("MODULE ") {
                let rest = &line[pos + "MODULE ".len()..];
                if let Some(name) = identifiers(rest).first() {
                    defined_in.entry(name.to_string()).or_insert(*id);
                }
            }
        }
    }
    let defs_tuples: Vec<Vec<Value>> = defined_in
        .iter()
        .map(|(symbol, node)| vec![Value::str(symbol.clone()), Value::Int(*node as i64)])
        .collect();
    let defs = Relation::new("defs", vec!["symbol", "node"], defs_tuples)?;

    // References: defined symbols appearing in other nodes.
    let mut refs_tuples = Vec::new();
    for (id, is_source, text) in &node_info {
        let kind = if *is_source { "code" } else { "documentation" };
        let mut seen = std::collections::HashSet::new();
        for ident in identifiers(text) {
            if !seen.insert(ident) {
                continue;
            }
            if let Some(&def_node) = defined_in.get(ident) {
                if def_node != *id {
                    refs_tuples.push(vec![
                        Value::str(ident),
                        Value::Int(*id as i64),
                        Value::str(kind),
                    ]);
                }
            }
        }
    }
    let refs = Relation::new("refs", vec!["symbol", "node", "kind"], refs_tuples)?;
    Ok(Xref { defs, refs })
}

impl Xref {
    /// The paper's query: every node referring to `symbol`, in code *and*
    /// documentation.
    pub fn references_to(&self, symbol: &str) -> Result<Relation> {
        Ok(self.refs.select_eq("symbol", &Value::str(symbol))?)
    }

    /// References joined with node metadata (e.g. the `document` each
    /// referring node belongs to).
    pub fn references_with_context(
        &self,
        ham: &Ham,
        context: ContextId,
        time: Time,
        symbol: &str,
        node_attrs: &[&str],
    ) -> Result<Relation> {
        let hits = self.references_to(symbol)?;
        let nodes = crate::bridge::nodes_relation(ham, context, time, node_attrs)?;
        Ok(hits.join(&nodes)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_case::{parse_module, CaseProject};
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn fixture() -> (TempDir, Ham) {
        let dir = TempDir::new("neptune-xref");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let project = CaseProject::new(MAIN_CONTEXT);
        let lists =
            parse_module("DEFINITION MODULE Lists;\nPROCEDURE Insert;\nEND Insert;\nEND Lists.\n")
                .unwrap();
        let main = parse_module(
            "MODULE Main;\nIMPORT Lists;\nPROCEDURE Run;\n  Lists.Insert;\nEND Run;\nEND Main.\n",
        )
        .unwrap();
        project.ingest_module(&mut ham, &lists).unwrap();
        project.ingest_module(&mut ham, &main).unwrap();
        // Documentation mentioning the procedure by name.
        let (docnode, t) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        ham.modify_node(
            MAIN_CONTEXT,
            docnode,
            t,
            b"Design note: Insert must stay O(1); see Lists.\n".to_vec(),
            &[],
        )
        .unwrap();
        let doc = ham.get_attribute_index(MAIN_CONTEXT, "document").unwrap();
        ham.set_node_attribute_value(MAIN_CONTEXT, docnode, doc, Value::str("design"))
            .unwrap();
        (dir, ham)
    }

    #[test]
    fn definitions_are_extracted_from_source() {
        let (_dir, mut ham) = fixture();
        let xref = build_xref(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let symbols: Vec<String> = xref
            .defs
            .project(&["symbol"])
            .unwrap()
            .tuples()
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        for expected in ["Lists", "Insert", "Main", "Run"] {
            assert!(symbols.contains(&expected.to_string()), "{symbols:?}");
        }
    }

    #[test]
    fn paper_query_spans_code_and_documentation() {
        let (_dir, mut ham) = fixture();
        let xref = build_xref(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let hits = xref.references_to("Insert").unwrap();
        let kinds: Vec<String> = hits
            .project(&["kind"])
            .unwrap()
            .tuples()
            .iter()
            .map(|t| t[0].to_string())
            .collect();
        assert!(kinds.contains(&"code".to_string()), "{}", hits.render());
        assert!(
            kinds.contains(&"documentation".to_string()),
            "{}",
            hits.render()
        );
    }

    #[test]
    fn join_adds_document_context() {
        let (_dir, mut ham) = fixture();
        let xref = build_xref(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        let hits = xref
            .references_with_context(&ham, MAIN_CONTEXT, Time::CURRENT, "Insert", &["document"])
            .unwrap();
        // Only the documentation node carries a `document` attribute.
        assert_eq!(hits.len(), 1);
        let doc_col = hits.column("document").unwrap();
        assert_eq!(hits.tuples()[0][doc_col], Value::str("design"));
    }

    #[test]
    fn definition_site_does_not_reference_itself() {
        let (_dir, mut ham) = fixture();
        let xref = build_xref(&mut ham, MAIN_CONTEXT, Time::CURRENT).unwrap();
        // "Run" is defined in Main's procedure node and referenced nowhere else
        // except possibly the module node's text (which excludes procedures).
        let hits = xref.references_to("Run").unwrap();
        let def_node = xref
            .defs
            .select_eq("symbol", &Value::str("Run"))
            .unwrap()
            .tuples()[0][1]
            .clone();
        for t in hits.tuples() {
            assert_ne!(t[1], def_node);
        }
    }

    #[test]
    fn identifier_tokenizer() {
        assert_eq!(
            identifiers("Lists.Insert(x_1, 2)"),
            vec!["Lists", "Insert", "x_1", "2"]
        );
        assert_eq!(identifiers(""), Vec::<&str>::new());
        assert_eq!(identifiers("::"), Vec::<&str>::new());
    }
}
