//! The rule registry. Each rule is a pure function over one prepared
//! [`SourceFile`](crate::SourceFile); scoping (which crates and files a rule
//! applies to) lives with the rule, so the engine stays rule-agnostic.

mod lock_order;
mod metrics;
mod panic_path;
mod parse_path;
mod span_parent;
mod vfs_bypass;

use crate::{Finding, SourceFile};

/// Rule identifiers, in the order rules run. `--list` prints these.
pub const ALL_RULES: &[(&str, &str)] = &[
    (
        "vfs-bypass",
        "no direct std::fs/File/OpenOptions in neptune-storage or neptune-ham outside the Vfs layer (DESIGN.md \u{a7}12: FaultVfs sweeps must cover all durable I/O)",
    ),
    (
        "lock-order",
        "committed view before gate mutex before shard locks, never the reverse; no blocking calls while a shard guard is held (DESIGN.md \u{a7}9)",
    ),
    (
        "panic-path",
        "no unwrap/expect/panic!/indexing in neptune-server request-handling code; errors must become Response::Error",
    ),
    (
        "parse-path",
        "no unwrap/expect/panic!/indexing inside the decode functions of neptune-storage wal.rs and snapshot.rs; truncated input must become a StorageError, never a panic (DESIGN.md \u{a7}12)",
    ),
    (
        "metric-name",
        "metric name literals match neptune_<crate>_<noun>_<unit> (DESIGN.md \u{a7}10)",
    ),
    (
        "span-parent",
        "neptune-server/server.rs opens the request-scoped trace root (request_root) exactly once per request dispatch (DESIGN.md \u{a7}10)",
    ),
];

/// Run every rule applicable to `file`.
pub fn run_all(file: &SourceFile) -> Vec<Finding> {
    let mut findings = Vec::new();
    findings.extend(vfs_bypass::run(file));
    findings.extend(lock_order::run(file));
    findings.extend(panic_path::run(file));
    findings.extend(parse_path::run(file));
    findings.extend(metrics::run_metric_name(file));
    findings.extend(span_parent::run(file));
    findings
}
