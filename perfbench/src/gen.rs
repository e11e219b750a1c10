//! Deterministic inputs: the seeded generator, node bodies and edits, and
//! the store each workload starts from.
//!
//! Everything here depends only on the seed and the workload's shape, never
//! on the program under test, so two builds of the program receive exactly
//! the same inputs. The program's own answers (the version times it hands
//! out) are recorded next to the content hash the generator wrote, which is
//! what the output checks compare against.

use std::path::Path;

use neptune_ham::types::{
    AttributeIndex, ContextId, LinkPt, NodeIndex, Protections, Time, MAIN_CONTEXT,
};
use neptune_ham::value::Value;
use neptune_ham::ShardedHam;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream` (one stream per
    /// client thread or per purpose).
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// FNV-1a, the content fingerprint the output checks compare.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

const WORDS: [&str; 12] = [
    "gate", "net", "wire", "cell", "pin", "bus", "clock", "latch", "adder", "reg", "mux", "via",
];

/// One line of design text.
fn line(rng: &mut Rng, tag: &str) -> String {
    let mut l = String::from(tag);
    for _ in 0..4 + rng.below(6) {
        l.push(' ');
        l.push_str(WORDS[rng.below(WORDS.len() as u64) as usize]);
    }
    l.push('\n');
    l
}

/// A node body of about `bytes` bytes.
pub fn body(rng: &mut Rng, bytes: usize) -> Vec<u8> {
    let mut out = String::with_capacity(bytes + 64);
    let mut n = 0;
    while out.len() < bytes {
        out.push_str(&line(rng, &format!("{n:05}:")));
        n += 1;
    }
    out.into_bytes()
}

/// `contents` with `lines` of its lines rewritten: the edit-compile loop's
/// small check-in.
pub fn edit(rng: &mut Rng, contents: &[u8], lines: usize) -> Vec<u8> {
    let mut split: Vec<Vec<u8>> = contents
        .split_inclusive(|&b| b == b'\n')
        .map(<[u8]>::to_vec)
        .collect();
    for _ in 0..lines {
        let fresh = line(rng, "edit:").into_bytes();
        match rng.below(split.len().max(1) as u64) as usize {
            i if i < split.len() => split[i] = fresh,
            _ => split.push(fresh),
        }
    }
    split.concat()
}

/// The store a workload starts from.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Shards of the store (contexts hash to `id % shards`).
    pub shards: usize,
    /// Versioned design nodes in MAIN.
    pub nodes: usize,
    /// Versions checked in per design node at set-up.
    pub versions: usize,
    /// Approximate body size of a design node.
    pub node_bytes: usize,
    /// Lines rewritten per version.
    pub edit_lines: usize,
    /// Fan-out and depth of the document tree (§4.2 document browser).
    pub doc_fanout: usize,
    /// Levels of the document tree, the root included.
    pub doc_depth: usize,
    /// Values of the `kind` attribute spread over the design nodes.
    pub kinds: usize,
}

impl Shape {
    /// Sections in the document tree.
    pub fn doc_nodes(&self) -> usize {
        (0..self.doc_depth)
            .map(|d| self.doc_fanout.pow(d as u32))
            .sum()
    }
}

/// What set-up wrote: the design nodes, every version's time and content
/// hash, and the document tree.
#[derive(Debug, Clone)]
pub struct Store {
    /// Design nodes in creation order.
    pub nodes: Vec<NodeIndex>,
    /// Per design node, every version as `(time, fnv1a(contents))`,
    /// oldest first.
    pub history: Vec<Vec<(Time, u64)>>,
    /// Per design node, the head contents (the starting point of edits).
    pub heads: Vec<Vec<u8>>,
    /// Root of the document tree.
    pub doc_root: NodeIndex,
    /// Attribute `status`, set by check-in transactions.
    pub status: AttributeIndex,
    /// Design nodes whose `kind` is `k0` (what the graph query returns).
    pub kind0: usize,
    /// Node-content bytes checked in, all versions.
    pub user_bytes: u64,
    /// Every version of the first design node, `(time, contents)`: the
    /// sequence the archive and diff layers are measured on.
    pub sample: Vec<(Time, Vec<u8>)>,
}

/// Populate a fresh store at `dir` through the library. Each design node's
/// versions go in one explicit transaction, so set-up pays one durable
/// commit per node rather than one per version.
pub fn build(dir: &Path, shape: &Shape, seed: u64) -> neptune_ham::Result<(ShardedHam, Store)> {
    let (ham, _, _) = ShardedHam::create(dir, Protections::DEFAULT, shape.shards)?;
    let mut rng = Rng::new(seed, 0x5e7);
    let (kind, relation, status) = {
        let mut g = ham.lock_home(MAIN_CONTEXT)?;
        (
            g.get_attribute_index(MAIN_CONTEXT, "kind")?,
            g.get_attribute_index(MAIN_CONTEXT, "relation")?,
            g.get_attribute_index(MAIN_CONTEXT, "status")?,
        )
    };
    let mut store = Store {
        nodes: Vec::with_capacity(shape.nodes),
        history: Vec::with_capacity(shape.nodes),
        heads: Vec::with_capacity(shape.nodes),
        doc_root: NodeIndex(0),
        status,
        kind0: 0,
        user_bytes: 0,
        sample: Vec::new(),
    };
    for i in 0..shape.nodes {
        ham.begin_transaction()?;
        let mut g = ham.lock_home(MAIN_CONTEXT)?;
        let (node, mut t) = g.add_node(MAIN_CONTEXT, true)?;
        let k = i % shape.kinds;
        store.kind0 += usize::from(k == 0);
        g.set_node_attribute_value(MAIN_CONTEXT, node, kind, Value::str(format!("k{k}")))?;
        let mut contents = body(&mut rng, shape.node_bytes);
        let mut versions = Vec::with_capacity(shape.versions);
        for v in 0..shape.versions {
            if v > 0 {
                contents = edit(&mut rng, &contents, shape.edit_lines);
            }
            t = g.modify_node(MAIN_CONTEXT, node, t, contents.clone(), &[])?;
            store.user_bytes += contents.len() as u64;
            versions.push((t, fnv1a(&contents)));
            if i == 0 {
                store.sample.push((t, contents.clone()));
            }
        }
        drop(g);
        ham.commit_transaction()?;
        store.nodes.push(node);
        store.history.push(versions);
        store.heads.push(contents);
    }
    ham.begin_transaction()?;
    let mut g = ham.lock_home(MAIN_CONTEXT)?;
    let (root, bytes) = document_tree(&mut g, MAIN_CONTEXT, shape, relation, &mut rng)?;
    store.doc_root = root;
    store.user_bytes += bytes;
    drop(g);
    ham.commit_transaction()?;
    Ok((ham, store))
}

/// A document tree of sections joined by `relation = isPartOf` links,
/// each link attached at a distinct offset of its parent. Returns the root
/// and the content bytes written.
fn document_tree(
    g: &mut neptune_ham::Ham,
    ctx: ContextId,
    shape: &Shape,
    relation: AttributeIndex,
    rng: &mut Rng,
) -> neptune_ham::Result<(NodeIndex, u64)> {
    let mut bytes = 0;
    let mut section = |g: &mut neptune_ham::Ham, rng: &mut Rng| -> neptune_ham::Result<NodeIndex> {
        let (n, t) = g.add_node(ctx, true)?;
        let contents = body(rng, 256);
        bytes += contents.len() as u64;
        g.modify_node(ctx, n, t, contents, &[])?;
        Ok(n)
    };
    let root = section(g, rng)?;
    let mut frontier = vec![root];
    for _ in 1..shape.doc_depth {
        let mut next = Vec::new();
        for parent in frontier {
            for i in 0..shape.doc_fanout {
                let child = section(g, rng)?;
                let (link, _) = g.add_link(
                    ctx,
                    LinkPt::current(parent, i as u64),
                    LinkPt::current(child, 0),
                )?;
                g.set_link_attribute_value(ctx, link, relation, Value::str("isPartOf"))?;
                next.push(child);
            }
        }
        frontier = next;
    }
    Ok((root, bytes))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generator_is_deterministic_per_seed() {
        let draw = |seed| {
            let mut r = Rng::new(seed, 3);
            let b = body(&mut r, 2048);
            let e = edit(&mut r, &b, 2);
            (b, e, r.next_u64())
        };
        assert_eq!(draw(7), draw(7));
        assert_ne!(draw(7), draw(8));
    }

    #[test]
    fn streams_differ_for_one_seed() {
        assert_ne!(Rng::new(1, 0).next_u64(), Rng::new(1, 1).next_u64());
    }

    #[test]
    fn edit_rewrites_at_most_the_asked_lines() {
        let mut r = Rng::new(11, 0);
        let b = body(&mut r, 4096);
        let e = edit(&mut r, &b, 2);
        let changed = b
            .split(|&c| c == b'\n')
            .zip(e.split(|&c| c == b'\n'))
            .filter(|(x, y)| x != y)
            .count();
        assert!((1..=2).contains(&changed), "changed {changed} lines");
        assert_eq!(
            b.iter().filter(|&&c| c == b'\n').count(),
            e.iter().filter(|&&c| c == b'\n').count()
        );
    }

    #[test]
    fn built_store_is_deterministic_per_seed() {
        let shape = Shape {
            shards: 2,
            nodes: 3,
            versions: 4,
            node_bytes: 512,
            edit_lines: 2,
            doc_fanout: 2,
            doc_depth: 2,
            kinds: 2,
        };
        let dir = std::env::temp_dir().join(format!("perfbench-gen-{}", std::process::id()));
        let mut runs = Vec::new();
        for k in 0..2 {
            let d = dir.join(k.to_string());
            let (ham, store) = build(&d, &shape, 5).expect("build");
            drop(ham);
            runs.push((store.nodes, store.history, store.user_bytes));
        }
        let _ = std::fs::remove_dir_all(&dir);
        assert_eq!(runs[0], runs[1]);
        assert_eq!(runs[0].1[0].len(), 4);
    }
}
