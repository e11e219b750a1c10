//! # neptune-lint
//!
//! Architecture-enforcing static analysis for the Neptune workspace.
//!
//! PRs 1–5 established hard invariants — all durable I/O flows through
//! `Vfs`, a strict gate→HAM lock hierarchy, panic-free server request
//! paths, metric-name conventions — but until this crate they lived only in
//! prose (DESIGN.md §9/§12) and reviewer memory. `neptune-lint` walks every
//! crate's source as a token stream (see [`lexer`]; the build environment
//! has no crates.io access, so `syn` is not an option) and enforces each
//! invariant as a named, individually suppressable rule. DESIGN.md §13 is
//! the rule catalog.
//!
//! ## Rules
//!
//! | id | scope | invariant |
//! |----|-------|-----------|
//! | `vfs-bypass` | neptune-storage, neptune-ham | no direct `std::fs` / `File::` / `OpenOptions` outside `vfs.rs`/`fault.rs` |
//! | `lock-order` | neptune-server | view before gate before shard locks, never the reverse; no blocking calls under a held shard guard |
//! | `panic-path` | neptune-server (minus client.rs) | no `unwrap`/`expect`/panic macros/indexing in request-handling code |
//! | `metric-name` | whole workspace | metric literals match `neptune_<crate>_<noun>_<unit>` |
//! | `span-parent` | neptune-server/server.rs | the request-scoped trace root (`request_root`) is opened exactly once per request dispatch |
//!
//! ## Suppression
//!
//! A finding is suppressed by a comment on the same line or the line
//! directly above:
//!
//! ```text
//! // neptune-lint: allow(vfs-bypass): durable-image reconstruction is the fault model itself
//! ```
//!
//! `allow-file(rule-id)` anywhere in a file suppresses the rule for the
//! whole file. Suppressions that match no finding are themselves reported
//! (`unused-suppression`), so stale allowances cannot accumulate.

#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use lexer::{Comment, Kind, Token};
use std::fmt;
use std::path::{Path, PathBuf};

/// A single rule violation at a source position.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier, e.g. `vfs-bypass`.
    pub rule: &'static str,
    /// Path of the offending file, relative to the linted root.
    pub path: String,
    /// 1-based line of the offending token.
    pub line: u32,
    /// 1-based column of the offending token.
    pub col: u32,
    /// Human-readable description of the violation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}:{}: [{}] {}",
            self.path, self.line, self.col, self.rule, self.message
        )
    }
}

/// One source file prepared for rule passes: lexed, with `#[cfg(test)]`
/// items stripped from the token stream (test code may use `std::fs`,
/// `unwrap`, and friends freely).
pub struct SourceFile {
    /// Crate directory name (`neptune-storage`, ...); the root crate is
    /// `neptune`.
    pub crate_name: String,
    /// File name without directories (`wal.rs`).
    pub file_name: String,
    /// Path relative to the linted root, `/`-separated.
    pub rel_path: String,
    /// Token stream with test-only items removed.
    pub tokens: Vec<Token>,
    /// All comments, including those inside test items.
    pub comments: Vec<Comment>,
}

impl SourceFile {
    /// Lex and prepare one file's source text.
    pub fn parse(crate_name: &str, rel_path: &str, source: &str) -> SourceFile {
        let (tokens, comments) = lexer::lex(source);
        let file_name = rel_path.rsplit('/').next().unwrap_or(rel_path).to_string();
        SourceFile {
            crate_name: crate_name.to_string(),
            file_name,
            rel_path: rel_path.to_string(),
            tokens: strip_cfg_test(tokens),
            comments,
        }
    }
}

/// Remove every item annotated `#[cfg(test)]` (almost always `mod tests {
/// ... }`) from the token stream. The invariants the rules enforce are
/// production-path contracts; tests routinely violate them on purpose
/// (tempdir setup, `unwrap`, direct `std::fs` corruption of stores).
fn strip_cfg_test(tokens: Vec<Token>) -> Vec<Token> {
    let mut out = Vec::with_capacity(tokens.len());
    let mut i = 0;
    while i < tokens.len() {
        if is_cfg_test_attr(&tokens, i) {
            // Skip the attribute: # [ cfg ( test ) ]
            i += 7;
            // Skip any further attributes on the same item.
            while tokens.get(i).is_some_and(|t| t.text == "#")
                && tokens.get(i + 1).is_some_and(|t| t.text == "[")
            {
                let mut depth = 0i32;
                i += 1; // at '['
                loop {
                    match tokens.get(i) {
                        Some(t) if t.text == "[" => depth += 1,
                        Some(t) if t.text == "]" => {
                            depth -= 1;
                            if depth == 0 {
                                i += 1;
                                break;
                            }
                        }
                        None => break,
                        _ => {}
                    }
                    i += 1;
                }
            }
            // Skip the item itself: through the matching `}` of its first
            // brace, or through a top-level `;` for brace-less items
            // (`use ...;`, `mod tests;`).
            let mut depth = 0i32;
            while let Some(t) = tokens.get(i) {
                match t.text.as_str() {
                    "{" => depth += 1,
                    "}" => {
                        depth -= 1;
                        if depth == 0 {
                            i += 1;
                            break;
                        }
                    }
                    ";" if depth == 0 => {
                        i += 1;
                        break;
                    }
                    _ => {}
                }
                i += 1;
            }
        } else {
            out.push(tokens[i].clone());
            i += 1;
        }
    }
    out
}

fn is_cfg_test_attr(tokens: &[Token], i: usize) -> bool {
    let text = |k: usize| tokens.get(i + k).map(|t| t.text.as_str());
    text(0) == Some("#")
        && text(1) == Some("[")
        && text(2) == Some("cfg")
        && text(3) == Some("(")
        && text(4) == Some("test")
        && text(5) == Some(")")
        && text(6) == Some("]")
}

/// A suppression directive parsed from a comment.
struct Suppression {
    rule: String,
    /// Line the directive governs (`allow`: its own line and the next);
    /// `None` for `allow-file`.
    line: Option<u32>,
    used: std::cell::Cell<bool>,
    col: u32,
}

fn parse_suppressions(comments: &[Comment]) -> Vec<Suppression> {
    let mut out = Vec::new();
    for c in comments {
        // Directives live in plain `//` comments only; doc comments merely
        // *talk about* the syntax (as this crate's own docs do).
        if c.text.starts_with("///") || c.text.starts_with("//!") || c.text.starts_with("/**") {
            continue;
        }
        let Some(idx) = c.text.find("neptune-lint:") else {
            continue;
        };
        let rest = c.text[idx + "neptune-lint:".len()..].trim_start();
        let (file_wide, rest) = if let Some(r) = rest.strip_prefix("allow-file(") {
            (true, r)
        } else if let Some(r) = rest.strip_prefix("allow(") {
            (false, r)
        } else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            continue;
        };
        for rule in rest[..close].split(',') {
            out.push(Suppression {
                rule: rule.trim().to_string(),
                line: if file_wide { None } else { Some(c.line) },
                used: std::cell::Cell::new(false),
                col: 1,
            });
        }
    }
    out
}

/// Lint every crate under `root` (`crates/*/src/**/*.rs` plus the root
/// crate's `src/`), returning all unsuppressed findings sorted by path and
/// position. Unused suppression directives are reported as findings too.
pub fn lint_root(root: &Path) -> std::io::Result<Vec<Finding>> {
    let mut findings = Vec::new();
    for (crate_name, src_dir) in crate_src_dirs(root)? {
        let mut files = Vec::new();
        collect_rs_files(&src_dir, &mut files)?;
        files.sort();
        for path in files {
            let source = std::fs::read_to_string(&path)?;
            let rel = path
                .strip_prefix(root)
                .unwrap_or(&path)
                .to_string_lossy()
                .replace('\\', "/");
            let file = SourceFile::parse(&crate_name, &rel, &source);
            findings.extend(lint_file(&file));
        }
    }
    findings.sort_by(|a, b| {
        (a.path.as_str(), a.line, a.col, a.rule).cmp(&(b.path.as_str(), b.line, b.col, b.rule))
    });
    Ok(findings)
}

/// Run every applicable rule over one prepared file and apply suppressions.
pub fn lint_file(file: &SourceFile) -> Vec<Finding> {
    let raw = rules::run_all(file);
    let suppressions = parse_suppressions(&file.comments);
    let mut findings = Vec::new();
    for f in raw {
        let suppressed = suppressions.iter().any(|s| {
            s.rule == f.rule
                && match s.line {
                    None => true,
                    Some(line) => line == f.line || line + 1 == f.line,
                }
        });
        if suppressed {
            for s in &suppressions {
                if s.rule == f.rule
                    && s.line
                        .is_none_or(|line| line == f.line || line + 1 == f.line)
                {
                    s.used.set(true);
                }
            }
        } else {
            findings.push(f);
        }
    }
    for s in &suppressions {
        if !s.used.get() {
            findings.push(Finding {
                rule: "unused-suppression",
                path: file.rel_path.clone(),
                line: s.line.unwrap_or(1),
                col: s.col,
                message: format!("suppression for `{}` matches no finding; remove it", s.rule),
            });
        }
    }
    findings
}

fn crate_src_dirs(root: &Path) -> std::io::Result<Vec<(String, PathBuf)>> {
    let mut dirs = Vec::new();
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<_> = std::fs::read_dir(&crates)?
            .collect::<std::io::Result<Vec<_>>>()?
            .into_iter()
            .map(|e| e.path())
            .collect();
        entries.sort();
        for dir in entries {
            let src = dir.join("src");
            if src.is_dir() {
                let name = dir
                    .file_name()
                    .map(|n| n.to_string_lossy().into_owned())
                    .unwrap_or_default();
                dirs.push((name, src));
            }
        }
    }
    let root_src = root.join("src");
    if root_src.is_dir() {
        dirs.push(("neptune".to_string(), root_src));
    }
    Ok(dirs)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Render findings as a JSON array (hand-rolled; the workspace has no
/// external dependencies, serde included).
pub fn to_json(findings: &[Finding]) -> String {
    fn escape(s: &str) -> String {
        let mut out = String::with_capacity(s.len() + 2);
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\n' => out.push_str("\\n"),
                '\t' => out.push_str("\\t"),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out
    }
    let mut out = String::from("[\n");
    for (i, f) in findings.iter().enumerate() {
        out.push_str(&format!(
            "  {{\"rule\":\"{}\",\"path\":\"{}\",\"line\":{},\"col\":{},\"message\":\"{}\"}}{}\n",
            escape(f.rule),
            escape(&f.path),
            f.line,
            f.col,
            escape(&f.message),
            if i + 1 == findings.len() { "" } else { "," }
        ));
    }
    out.push(']');
    out
}

/// Token-stream helpers shared by the rules.
pub(crate) mod tokutil {
    use super::Token;

    /// Text of the token at `i`, or `""` past the end.
    pub fn text(tokens: &[Token], i: usize) -> &str {
        tokens.get(i).map_or("", |t| t.text.as_str())
    }
}
