//! The node-differences browser.
//!
//! §4.1: *"A special browser called a node differences browser places two
//! node browsers side-by-side, each viewing a specific version of a node
//! with highlighting used to show differences between the two versions."*
//!
//! The textual analogue: two columns, one per version, with gutter markers
//! (`-` removed, `+` added, `~` replaced, space unchanged).

use neptune_ham::types::{ContextId, NodeIndex, Time};
use neptune_ham::{Ham, Result};
use neptune_storage::diff::{diff_lines, split_lines, HunkKind};

/// One row of the side-by-side view.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiffRow {
    /// Gutter marker: ' ' unchanged, '-' only in old, '+' only in new,
    /// '~' replaced.
    pub marker: char,
    /// The old version's line (empty when absent).
    pub left: String,
    /// The new version's line (empty when absent).
    pub right: String,
}

/// Compute the side-by-side comparison of a node's versions at `time1`
/// (left) and `time2` (right).
pub fn side_by_side(
    ham: &Ham,
    context: ContextId,
    node: NodeIndex,
    time1: Time,
    time2: Time,
) -> Result<Vec<DiffRow>> {
    // read_node goes through the HAM's version-materialization cache, so
    // browsing deep history repeatedly stays cheap.
    let old = ham.read_node(context, node, time1, &[])?.contents;
    let new = ham.read_node(context, node, time2, &[])?.contents;
    let old_lines = split_lines(&old);
    let new_lines = split_lines(&new);
    let line = |l: &[u8]| {
        String::from_utf8_lossy(l)
            .trim_end_matches('\n')
            .to_string()
    };

    let hunks = diff_lines(&old, &new);
    let mut rows = Vec::new();
    let mut i = 0;
    while i < hunks.len() {
        let h = hunks[i];
        match h.kind {
            HunkKind::Equal => {
                for k in 0..(h.a_range.1 - h.a_range.0) {
                    rows.push(DiffRow {
                        marker: ' ',
                        left: line(old_lines[h.a_range.0 + k]),
                        right: line(new_lines[h.b_range.0 + k]),
                    });
                }
                i += 1;
            }
            HunkKind::Delete => {
                // Pair with a following insert as a replacement.
                if i + 1 < hunks.len() && hunks[i + 1].kind == HunkKind::Insert {
                    let ins = hunks[i + 1];
                    let dels = h.a_range.1 - h.a_range.0;
                    let adds = ins.b_range.1 - ins.b_range.0;
                    for k in 0..dels.max(adds) {
                        rows.push(DiffRow {
                            marker: '~',
                            left: if k < dels {
                                line(old_lines[h.a_range.0 + k])
                            } else {
                                String::new()
                            },
                            right: if k < adds {
                                line(new_lines[ins.b_range.0 + k])
                            } else {
                                String::new()
                            },
                        });
                    }
                    i += 2;
                } else {
                    for l in &old_lines[h.a_range.0..h.a_range.1] {
                        rows.push(DiffRow {
                            marker: '-',
                            left: line(l),
                            right: String::new(),
                        });
                    }
                    i += 1;
                }
            }
            HunkKind::Insert => {
                for l in &new_lines[h.b_range.0..h.b_range.1] {
                    rows.push(DiffRow {
                        marker: '+',
                        left: String::new(),
                        right: line(l),
                    });
                }
                i += 1;
            }
        }
    }
    Ok(rows)
}

/// Render the browser as text: two labeled columns with gutter markers.
pub fn render(
    ham: &Ham,
    context: ContextId,
    node: NodeIndex,
    time1: Time,
    time2: Time,
) -> Result<String> {
    let rows = side_by_side(ham, context, node, time1, time2)?;
    const W: usize = 32;
    let clip = |s: &str| -> String {
        let mut c: String = s.chars().take(W).collect();
        while c.chars().count() < W {
            c.push(' ');
        }
        c
    };
    let mut out = String::new();
    out.push_str(&format!(
        "+-- Node Differences Browser: node {} @ {:?} vs @ {:?}\n",
        node.0, time1, time2
    ));
    out.push_str(&format!("| {} | {} |\n", clip("(old)"), clip("(new)")));
    out.push_str(&format!("|{}|\n", "-".repeat(2 * W + 5)));
    for row in rows {
        out.push_str(&format!(
            "|{}{} | {} |\n",
            row.marker,
            clip(&row.left),
            clip(&row.right)
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use neptune_ham::types::{Protections, MAIN_CONTEXT};
    use neptune_storage::testutil::TempDir;

    fn versioned_node() -> (TempDir, Ham, NodeIndex, Time, Time) {
        let dir = TempDir::new("neptune-dv");
        let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
        let (n, t0) = ham.add_node(MAIN_CONTEXT, true).unwrap();
        let t1 = ham
            .modify_node(MAIN_CONTEXT, n, t0, b"alpha\nbeta\ngamma\n".to_vec(), &[])
            .unwrap();
        let t2 = ham
            .modify_node(
                MAIN_CONTEXT,
                n,
                t1,
                b"alpha\nBETA!\ngamma\ndelta\n".to_vec(),
                &[],
            )
            .unwrap();
        (dir, ham, n, t1, t2)
    }

    #[test]
    fn rows_classify_changes() {
        let (_dir, ham, n, t1, t2) = versioned_node();
        let rows = side_by_side(&ham, MAIN_CONTEXT, n, t1, t2).unwrap();
        let markers: Vec<char> = rows.iter().map(|r| r.marker).collect();
        assert_eq!(markers, vec![' ', '~', ' ', '+']);
        assert_eq!(rows[1].left, "beta");
        assert_eq!(rows[1].right, "BETA!");
        assert_eq!(rows[3].right, "delta");
    }

    #[test]
    fn identical_versions_are_all_unchanged() {
        let (_dir, ham, n, t1, _) = versioned_node();
        let rows = side_by_side(&ham, MAIN_CONTEXT, n, t1, t1).unwrap();
        assert!(rows.iter().all(|r| r.marker == ' '));
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn render_is_side_by_side() {
        let (_dir, ham, n, t1, t2) = versioned_node();
        let text = render(&ham, MAIN_CONTEXT, n, t1, t2).unwrap();
        assert!(text.contains("Node Differences Browser"));
        let beta_row = text.lines().find(|l| l.contains("beta")).unwrap();
        assert!(
            beta_row.contains("BETA!"),
            "replacement on one row: {beta_row}"
        );
        assert!(text
            .lines()
            .any(|l| l.starts_with("|+") && l.contains("delta")));
    }
}
