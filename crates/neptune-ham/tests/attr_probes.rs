//! Depth-scaling regression for attribute point-gets.
//!
//! `AttrMap::get` binary-searches the sorted version vector and reports
//! every comparison to `neptune_ham_attr_probes_total` (paired with
//! `neptune_ham_attr_gets_total`). This test builds the same attribute at
//! two history depths 64x apart and asserts the mean probe count grows
//! logarithmically, not linearly — the metrics-level proof that a
//! regression back to a linear version-chain walk cannot land silently.
//!
//! Lives in its own integration-test binary so no concurrently running
//! test pollutes the process-global counters between the two windows.

use neptune_ham::types::{Protections, Time, MAIN_CONTEXT};
use neptune_ham::value::Value;
use neptune_ham::Ham;
use neptune_storage::testutil::TempDir;

fn tmpdir(name: &str) -> TempDir {
    TempDir::new(&format!("neptune-attr-probes-{name}"))
}

fn counter(name: &str) -> u64 {
    neptune_obs::registry().counter(name).get()
}

/// Build one node whose `status` attribute has `depth` versions (one
/// transaction, one fsync), returning the distinct historical times of
/// those versions.
fn deep_attr_ham(tag: &str, depth: usize) -> (TempDir, Ham, Vec<Time>) {
    let dir = tmpdir(tag);
    let (mut ham, _, _) = Ham::create_graph(&dir, Protections::DEFAULT).unwrap();
    let (node, _) = ham.add_node(MAIN_CONTEXT, true).unwrap();
    let attr = ham.get_attribute_index(MAIN_CONTEXT, "status").unwrap();
    ham.begin_transaction().unwrap();
    for i in 0..depth {
        ham.set_node_attribute_value(MAIN_CONTEXT, node, attr, Value::Int(i as i64))
            .unwrap();
    }
    ham.commit_transaction().unwrap();
    let (_, minor) = ham.get_node_versions(MAIN_CONTEXT, node).unwrap();
    let times: Vec<Time> = minor.iter().map(|v| v.time).collect();
    (dir, ham, times)
}

/// Mean probes per recorded get across `times.len()` historical lookups.
fn mean_probes(ham: &Ham, times: &[Time]) -> f64 {
    let (node, attr) = (
        neptune_ham::types::NodeIndex(1),
        neptune_ham::types::AttributeIndex(0),
    );
    let probes0 = counter("neptune_ham_attr_probes_total");
    let gets0 = counter("neptune_ham_attr_gets_total");
    // Stride through the whole history so lookups hit every region of the
    // version vector, not just the warm tail.
    let sample = 256.min(times.len());
    for k in 0..sample {
        let t = times[k * times.len() / sample];
        let _ = ham
            .get_node_attribute_value(MAIN_CONTEXT, node, attr, t)
            .unwrap();
    }
    let probes = counter("neptune_ham_attr_probes_total") - probes0;
    let gets = counter("neptune_ham_attr_gets_total") - gets0;
    assert!(gets >= sample as u64, "every lookup must be counted");
    probes as f64 / gets as f64
}

#[test]
fn attr_point_gets_scale_sublinearly_with_history_depth() {
    assert!(neptune_obs::enabled(), "probe metrics require obs enabled");
    let shallow_depth = 128;
    let deep_depth = 8192; // 64x deeper
    let (_sdir, shallow, shallow_times) = deep_attr_ham("shallow", shallow_depth);
    let (_ddir, deep, deep_times) = deep_attr_ham("deep", deep_depth);

    // The histories must really be that deep — each set got its own clock
    // tick, so a coalescing bug can't silently trivialize the test.
    assert!(shallow_times.len() >= shallow_depth);
    assert!(deep_times.len() >= deep_depth);
    // And historical reads really resolve distinct versions.
    let node = neptune_ham::types::NodeIndex(1);
    let attr = neptune_ham::types::AttributeIndex(0);
    let early = deep
        .get_node_attribute_value(MAIN_CONTEXT, node, attr, deep_times[0])
        .unwrap();
    let late = deep
        .get_node_attribute_value(MAIN_CONTEXT, node, attr, Time::CURRENT)
        .unwrap();
    assert_eq!(early, Value::Int(0));
    assert_eq!(late, Value::Int(deep_depth as i64 - 1));

    let shallow_mean = mean_probes(&shallow, &shallow_times);
    let deep_mean = mean_probes(&deep, &deep_times);

    // log2(8192)=13 vs log2(128)=7: the ratio should sit near 13/7 ≈ 1.9.
    // A linear walk would put the ratio near 64 and the deep mean near
    // 4096; both bounds have wide safety margins over the log behavior.
    assert!(
        deep_mean <= 24.0,
        "deep history mean probes {deep_mean:.1} exceeds O(log n) bound \
         (linear walk would be ~{})",
        deep_depth / 2
    );
    assert!(
        deep_mean / shallow_mean <= 4.0,
        "probe growth {deep_mean:.1}/{shallow_mean:.1} across a 64x depth \
         increase is super-logarithmic"
    );

    drop(shallow);
    drop(deep);
}
