//! The benchmark's own spans and the self-time ledger built from them.
//!
//! Spans are kept in memory while the traced run measures and written out
//! once it ends. A span's *self* time is its duration minus the part of
//! it covered by its children, so summing self times over a tree never
//! counts a nested call twice.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// The span's layer-qualified name, e.g. `view.read_node`.
    pub name: &'static str,
    /// Index of the parent span in the same [`Tracer`], if any.
    pub parent: Option<usize>,
    /// Start, in ns since the tracer's epoch.
    pub start: u64,
    /// End, in ns since the tracer's epoch.
    pub end: u64,
}

/// Records spans on one thread. Nesting follows `enter`/`exit` order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &'static str) {
        let start = self.now();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start,
            end: start,
        });
        self.open.push(self.spans.len() - 1);
    }

    /// Close the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now();
        let i = self.open.pop().expect("exit without a matching enter");
        self.spans[i].end = end;
    }

    /// Run `f` inside a span named `name`.
    pub fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.enter(name);
        let out = f();
        self.exit();
        out
    }

    /// The closed spans, in the order they were opened.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Join span lists recorded by separate tracers into one, re-basing
/// parent indices.
pub fn concat<'a>(lists: impl IntoIterator<Item = &'a [Span]>) -> Vec<Span> {
    let mut out: Vec<Span> = Vec::new();
    for list in lists {
        let base = out.len();
        out.extend(list.iter().map(|s| Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    out
}

/// Self time of every span: its duration minus the union of its
/// children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start, s.end));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(reach), b.min(s.end));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end - s.start).saturating_sub(covered)
        })
        .collect()
}

/// Per span name: calls and summed self time (ns).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct LayerTime {
    /// Spans with this name.
    pub calls: u64,
    /// Their summed self time, ns.
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per call, ns (0 when the layer was never called).
    pub fn mean_ns(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.calls as f64
        }
    }
}

/// Fold spans into per-name self times.
pub fn layer_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.self_ns += own;
    }
    out
}

/// Write spans as JSON lines (`name`, `parent`, `start_ns`, `end_ns`,
/// `self_ns`).
pub fn write_spans(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (i, (s, own)) in spans.iter().zip(self_times(spans)).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"id\": {i}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {own}}}",
            s.name, s.start, s.end
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, parent: Option<usize>, start: u64, end: u64) -> Span {
        Span {
            name,
            parent,
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        // root [0,100) with children [10,30) and [20,50) (overlapping) and
        // [60,70); grandchild [12,18) under the first child.
        let spans = vec![
            span("root", None, 0, 100),
            span("a", Some(0), 10, 30),
            span("a.x", Some(1), 12, 18),
            span("b", Some(0), 20, 50),
            span("c", Some(0), 60, 70),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - 40 - 10, 20 - 6, 6, 30, 10]);
        // Self times of a tree sum to the root's inclusive duration when
        // siblings do not overlap; overlapping siblings are each charged
        // their own full interval, never the parent twice.
        let t = layer_times(&spans);
        assert_eq!(t["root"].self_ns, 50);
        assert_eq!(t["a"].calls, 1);
    }

    #[test]
    fn nested_spans_sum_to_the_root() {
        let spans = vec![
            span("txn", None, 0, 1000),
            span("modify", Some(0), 100, 400),
            span("modify", Some(0), 400, 700),
            span("commit", Some(0), 700, 950),
            span("fsync", Some(3), 800, 900),
        ];
        let own = self_times(&spans);
        assert_eq!(own.iter().sum::<u64>(), 1000);
        let t = layer_times(&spans);
        assert_eq!(t["modify"].self_ns, 600);
        assert_eq!(t["commit"].self_ns, 150);
        assert_eq!(t["txn"].self_ns, 150);
    }

    #[test]
    fn concat_rebases_parents() {
        let a = [span("r", None, 0, 10), span("c", Some(0), 1, 2)];
        let b = [span("r", None, 0, 10), span("c", Some(0), 3, 4)];
        let all = concat([&a[..], &b[..]]);
        assert_eq!(all[3].parent, Some(2));
        assert_eq!(self_times(&all), vec![9, 1, 9, 1]);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span("p", None, 10, 20), span("c", Some(0), 5, 15)];
        assert_eq!(self_times(&spans), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_by_enter_exit_order() {
        let mut t = Tracer::new();
        t.enter("outer");
        t.time("inner", || std::hint::black_box(1 + 1));
        t.exit();
        let s = t.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert!(s[0].start <= s[1].start && s[1].end <= s[0].end);
    }
}
