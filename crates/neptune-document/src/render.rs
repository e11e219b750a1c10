//! Hardcopy rendering.
//!
//! Paper §4.2: *"The HAM's linearizeGraph operation can be used to extract
//! a document from the hypertext graph so that hardcopies can be
//! produced."* This module turns a [`Document`] into
//! flat text, numbering sections by their depth in the structure tree.

use neptune_ham::types::{NodeIndex, Time};
use neptune_ham::{Ham, Result};

use crate::doc::Document;

/// One rendered section.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RenderedSection {
    /// Hierarchical section number, e.g. "2.1.3" (empty for the root).
    pub number: String,
    /// Depth below the root (root = 0).
    pub depth: usize,
    /// The section node.
    pub node: NodeIndex,
    /// The section's contents.
    pub body: String,
}

/// Flatten the document at `time` into numbered sections, depth-first in
/// reading order.
pub fn flatten(ham: &mut Ham, doc: &Document, time: Time) -> Result<Vec<RenderedSection>> {
    let mut out = Vec::new();
    walk(ham, doc, doc.root, time, "", 0, &mut out)?;
    Ok(out)
}

fn walk(
    ham: &mut Ham,
    doc: &Document,
    node: NodeIndex,
    time: Time,
    prefix: &str,
    depth: usize,
    out: &mut Vec<RenderedSection>,
) -> Result<()> {
    let contents = ham.open_node(doc.context, node, time, &[])?.contents;
    out.push(RenderedSection {
        number: prefix.to_string(),
        depth,
        node,
        body: String::from_utf8_lossy(&contents).into_owned(),
    });
    for (i, child) in doc.children(ham, node, time)?.into_iter().enumerate() {
        let number = if prefix.is_empty() {
            format!("{}", i + 1)
        } else {
            format!("{prefix}.{}", i + 1)
        };
        walk(ham, doc, child, time, &number, depth + 1, out)?;
    }
    Ok(())
}

/// Produce a plain-text hardcopy of the document at `time`.
pub fn hardcopy(ham: &mut Ham, doc: &Document, time: Time) -> Result<String> {
    let sections = flatten(ham, doc, time)?;
    let mut out = String::new();
    for s in sections {
        if s.number.is_empty() {
            out.push_str(&s.body);
            if !s.body.ends_with('\n') {
                out.push('\n');
            }
            out.push('\n');
        } else {
            let mut lines = s.body.lines();
            let title = lines.next().unwrap_or("");
            out.push_str(&format!("{} {}\n", s.number, title));
            for line in lines {
                out.push_str(line);
                out.push('\n');
            }
            out.push('\n');
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn sample() -> (TempDir, Ham, Document) {
        let dir = TempDir::new("neptune-render");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let doc = Document::create(&mut ham, MAIN_CONTEXT, "paper", "Neptune Paper").unwrap();
        let intro = doc
            .add_section(
                &mut ham,
                doc.root,
                10,
                "Introduction",
                "Hypertext for CAD.\n",
            )
            .unwrap();
        doc.add_section(&mut ham, intro, 5, "Motivation", "Version control gaps.\n")
            .unwrap();
        doc.add_section(&mut ham, doc.root, 20, "Hypertext", "Nodes and links.\n")
            .unwrap();
        (dir, ham, doc)
    }

    #[test]
    fn numbering_reflects_structure() {
        let (_dir, mut ham, doc) = sample();
        let sections = flatten(&mut ham, &doc, Time::CURRENT).unwrap();
        let numbers: Vec<&str> = sections.iter().map(|s| s.number.as_str()).collect();
        assert_eq!(numbers, vec!["", "1", "1.1", "2"]);
        let depths: Vec<usize> = sections.iter().map(|s| s.depth).collect();
        assert_eq!(depths, vec![0, 1, 2, 1]);
    }

    #[test]
    fn hardcopy_contains_everything_in_order() {
        let (_dir, mut ham, doc) = sample();
        let text = hardcopy(&mut ham, &doc, Time::CURRENT).unwrap();
        let intro_pos = text.find("1 Introduction").unwrap();
        let motiv_pos = text.find("1.1 Motivation").unwrap();
        let hyper_pos = text.find("2 Hypertext").unwrap();
        assert!(intro_pos < motiv_pos && motiv_pos < hyper_pos, "{text}");
        assert!(text.contains("Version control gaps."));
    }

    #[test]
    fn hardcopy_of_old_version_omits_later_sections() {
        let (_dir, mut ham, doc) = sample();
        let t_before = ham.graph(MAIN_CONTEXT).unwrap().now();
        doc.add_section(&mut ham, doc.root, 30, "Conclusions", "Later addition.\n")
            .unwrap();
        let old = hardcopy(&mut ham, &doc, t_before).unwrap();
        assert!(!old.contains("Conclusions"));
        let new = hardcopy(&mut ham, &doc, Time::CURRENT).unwrap();
        assert!(new.contains("3 Conclusions"));
    }
}
