//! Immutable committed snapshots of the HAM, and the shared read core.
//!
//! [`CommittedView`] is the artifact the lock-free read path serves from:
//! at every commit (and rollback) the writer clones the machine's context
//! threads — cheap, because [`crate::graph::HamGraph`]'s node and link maps
//! are persistent tries ([`crate::pmap::Pam`]) that share structure by
//! `Arc` — and publishes the clone through
//! [`crate::epoch::Published`]. Readers grab the current view with one
//! atomic load and keep reading it for as long as they like; the graph
//! inside never changes. Reclamation is plain `Arc` refcounting: a
//! superseded view lives exactly as long as its last holder.
//!
//! [`ReadCore`] is the one implementation of every read-only HAM
//! operation. Both entry points delegate to it:
//!
//! * [`crate::ham::Ham`]'s inherent read methods (live state, exclusive
//!   path — the transaction owner's read-your-writes view), and
//! * [`CommittedView`]'s inherent read methods (pinned snapshot,
//!   lock-free path).
//!
//! The only difference between the two is the materialization-cache
//! generation: a view is pinned to the generation current when it was
//! published, so a rollback (which rewinds version clocks and bumps the
//! generation) can never leak post-rollback cache entries into a
//! pre-rollback view or vice versa (DESIGN.md §9).

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::Instant;

use neptune_storage::diff::Difference;
use neptune_storage::vcache::{CacheStats, MaterializationCache};

use crate::demons::{DemonSpec, Event};
use crate::error::{HamError, Result};
use crate::graph::HamGraph;
use crate::ham::{canonical_attachments, endpoint_version, resolve_attr_names};
use crate::ham::{GraphThread, OpenedNode};
use crate::predicate::Predicate;
use crate::query::{get_graph_query, get_graph_query_scan, linearize_graph, SubGraph};
use crate::types::{AttributeIndex, ContextId, LinkIndex, NodeIndex, Time, Version};
use crate::value::Value;

/// The read-only core shared by the live machine and published views: a
/// borrowed set of context threads plus the shared materialization cache.
pub(crate) struct ReadCore<'a> {
    pub(crate) threads: &'a HashMap<ContextId, GraphThread>,
    pub(crate) vcache: &'a Mutex<MaterializationCache>,
    /// `None` = live state (use the cache's current generation);
    /// `Some(g)` = a published view pinned to generation `g`.
    pub(crate) generation: Option<u64>,
}

impl<'a> ReadCore<'a> {
    pub(crate) fn graph(&self, context: ContextId) -> Result<&'a HamGraph> {
        self.threads
            .get(&context)
            .map(|t| &t.graph)
            .ok_or(HamError::NoSuchContext(context))
    }

    fn lock_vcache(&self) -> MutexGuard<'a, MaterializationCache> {
        // Derived state only; recover from poison rather than failing
        // every future read after one panicked thread.
        self.vcache.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn contexts(&self) -> Vec<ContextId> {
        let mut ids: Vec<ContextId> = self.threads.keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    pub(crate) fn context_forked_from(
        &self,
        context: ContextId,
    ) -> Result<Option<(ContextId, Time)>> {
        self.threads
            .get(&context)
            .map(|t| t.forked_from)
            .ok_or(HamError::NoSuchContext(context))
    }

    /// Node contents at `time`, served from the materialization cache when
    /// possible. Head reads bypass the cache (the head is stored whole);
    /// historical reads are keyed by resolved version time, so every alias
    /// of a version shares one entry. With the cache disabled this is a
    /// full uncached delta replay — the baseline the read-scaling
    /// benchmarks compare against.
    pub(crate) fn cached_contents(
        &self,
        context: ContextId,
        n: &crate::node::Node,
        time: Time,
    ) -> Result<Arc<[u8]>> {
        let Some(archive) = n.archive() else {
            return n.contents_at(time); // file node: current version only
        };
        let resolved = archive.resolve_time(time.0)?;
        if resolved == archive.head_time() {
            return Ok(archive.head_shared());
        }
        let key = (context.0, n.id.0, resolved);
        {
            let mut cache = self.lock_vcache();
            if !cache.enabled() {
                drop(cache);
                return Ok(archive.checkout_uncached(resolved)?);
            }
            let hit = match self.generation {
                None => cache.get(&key),
                Some(g) => cache.get_pinned(g, &key),
            };
            if let Some(data) = hit {
                return Ok(data); // hit: refcount bump, no copy
            }
        }
        // Miss: materialize outside the lock (checkout may replay a chain
        // suffix), then publish the same allocation for the next reader —
        // unless this reader's generation has been superseded, in which
        // case the insert is silently dropped.
        let data = archive.checkout(resolved)?;
        {
            let mut cache = self.lock_vcache();
            match self.generation {
                None => cache.insert(key, data.clone()),
                Some(g) => cache.insert_pinned(g, key, data.clone()),
            }
        }
        Ok(data)
    }

    pub(crate) fn read_node(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        let graph = self.graph(context)?;
        let n = graph.live_node(node, time)?;
        let contents = self.cached_contents(context, n, time)?;
        let link_pts = canonical_attachments(graph, node, time)?
            .into_iter()
            .map(|(_, _, pt)| pt)
            .collect();
        let values = attrs
            .iter()
            .map(|a| n.attrs.get(*a, time).cloned())
            .collect();
        Ok(OpenedNode {
            contents,
            link_pts,
            values,
            current_time: n.current_time(),
        })
    }

    /// Whether any demon is registered for `event` (graph-level, or on the
    /// specific node).
    pub(crate) fn demon_registered(
        &self,
        context: ContextId,
        event: Event,
        node: Option<NodeIndex>,
    ) -> bool {
        let Ok(graph) = self.graph(context) else {
            return false;
        };
        if graph.graph_demons.get(event, Time::CURRENT).is_some() {
            return true;
        }
        if let Some(node) = node {
            if let Ok(n) = graph.node(node) {
                return n.demons.get(event, Time::CURRENT).is_some();
            }
        }
        false
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn linearize_graph(
        &self,
        context: ContextId,
        start: NodeIndex,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let graph = self.graph(context)?;
        linearize_graph(
            graph, start, time, node_pred, link_pred, node_attrs, link_attrs,
        )
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_graph_query(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let graph = self.graph(context)?;
        get_graph_query(graph, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn get_graph_query_scan(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let graph = self.graph(context)?;
        get_graph_query_scan(graph, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    pub(crate) fn get_node_time_stamp(&self, context: ContextId, node: NodeIndex) -> Result<Time> {
        Ok(self
            .graph(context)?
            .live_node(node, Time::CURRENT)?
            .current_time())
    }

    pub(crate) fn get_node_versions(
        &self,
        context: ContextId,
        node: NodeIndex,
    ) -> Result<(Vec<Version>, Vec<Version>)> {
        Ok(self.graph(context)?.node(node)?.versions())
    }

    pub(crate) fn get_node_differences(
        &self,
        context: ContextId,
        node: NodeIndex,
        time1: Time,
        time2: Time,
    ) -> Result<Vec<Difference>> {
        let graph = self.graph(context)?;
        let n = graph.node(node)?;
        let old = self.cached_contents(context, n, time1)?;
        let new = self.cached_contents(context, n, time2)?;
        Ok(neptune_storage::diff::differences(&old, &new))
    }

    pub(crate) fn get_to_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        let graph = self.graph(context)?;
        let l = graph.live_link(link, time1)?;
        endpoint_version(graph, &l.to, time1)
    }

    pub(crate) fn get_from_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        let graph = self.graph(context)?;
        let l = graph.live_link(link, time1)?;
        endpoint_version(graph, &l.from, time1)
    }

    pub(crate) fn get_attributes(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex)>> {
        Ok(self.graph(context)?.attr_table.attributes_at(time))
    }

    pub(crate) fn get_attribute_values(
        &self,
        context: ContextId,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Vec<Value>> {
        self.graph(context)?.attribute_values(attr, time)
    }

    pub(crate) fn get_node_attribute_value(
        &self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        let graph = self.graph(context)?;
        graph.attr_name(attr)?;
        graph
            .node(node)?
            .attrs
            .get(attr, time)
            .cloned()
            .ok_or(HamError::AttributeNotSet {
                attribute: attr,
                time,
            })
    }

    pub(crate) fn get_node_attributes(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        let graph = self.graph(context)?;
        let n = graph.node(node)?;
        Ok(resolve_attr_names(graph, n.attrs.all_at(time)))
    }

    pub(crate) fn get_link_attribute_value(
        &self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        let graph = self.graph(context)?;
        graph.attr_name(attr)?;
        graph
            .link(link)?
            .attrs
            .get(attr, time)
            .cloned()
            .ok_or(HamError::AttributeNotSet {
                attribute: attr,
                time,
            })
    }

    pub(crate) fn get_link_attributes(
        &self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        let graph = self.graph(context)?;
        let l = graph.link(link)?;
        Ok(resolve_attr_names(graph, l.attrs.all_at(time)))
    }

    pub(crate) fn get_graph_demons(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        Ok(self.graph(context)?.graph_demons.all_at(time))
    }

    pub(crate) fn get_node_demons(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        Ok(self.graph(context)?.node(node)?.demons.all_at(time))
    }

    pub(crate) fn version_cache_stats(&self) -> CacheStats {
        self.lock_vcache().stats()
    }
}

/// An immutable snapshot of the committed HAM state, published at every
/// commit and loaded by readers with one atomic load (see the module
/// docs). All read-only HAM operations are available directly on the view.
pub struct CommittedView {
    epoch: u64,
    /// Global commit sequence of the last durable commit folded into this
    /// view (0 for a freshly created store). Per-shard epochs are local;
    /// this sequence is what orders publishes *across* shards, so
    /// cross-shard readers can assemble a consistent cut (see
    /// [`crate::shard`]).
    commit_seq: u64,
    /// Materialization-cache generation current at publish time; every
    /// cache interaction through this view is pinned to it.
    generation: u64,
    /// Shard identity `(index, count)` of the machine that published this
    /// view; `(0, 1)` for unsharded stores. Invariant checkers use it to
    /// skip fork-topology rules whose parent context lives on another
    /// shard.
    shard: (u32, u32),
    directory: PathBuf,
    threads: HashMap<ContextId, GraphThread>,
    /// Shared with the live machine: view readers warm the same cache.
    vcache: Arc<Mutex<MaterializationCache>>,
    published_at: Instant,
}

impl std::fmt::Debug for CommittedView {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CommittedView")
            .field("epoch", &self.epoch)
            .field("generation", &self.generation)
            .field("contexts", &self.threads.len())
            .finish()
    }
}

impl CommittedView {
    pub(crate) fn new(
        epoch: u64,
        commit_seq: u64,
        shard: (u32, u32),
        threads: &HashMap<ContextId, GraphThread>,
        vcache: Arc<Mutex<MaterializationCache>>,
        directory: PathBuf,
    ) -> CommittedView {
        let generation = vcache
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .generation();
        CommittedView {
            epoch,
            commit_seq,
            generation,
            shard,
            directory,
            // Not O(graph): HamGraph's node, link and graph-version maps
            // are persistent tries, so this clone is Arc bumps plus the
            // small per-graph tables (attribute names, demons, the
            // creation-time index).
            threads: threads.clone(),
            vcache,
            published_at: Instant::now(),
        }
    }

    fn core(&self) -> ReadCore<'_> {
        ReadCore {
            threads: &self.threads,
            vcache: &self.vcache,
            generation: Some(self.generation),
        }
    }

    /// Invariant checkers (same crate) walk the raw threads.
    pub(crate) fn threads(&self) -> &HashMap<ContextId, GraphThread> {
        &self.threads
    }

    /// The publication epoch this view was installed at (monotonic across
    /// the machine's lifetime, starting at 1 for the freshly opened state).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The global commit sequence of the last commit folded into this view
    /// (0 until the first commit). Monotonic per shard; unique across
    /// shards except for cross-shard transactions, whose participants all
    /// stamp the same sequence.
    pub fn commit_seq(&self) -> u64 {
        self.commit_seq
    }

    /// Shard identity `(index, count)` of the publishing machine.
    pub(crate) fn shard(&self) -> (u32, u32) {
        self.shard
    }

    /// The logical clock of `context` as of this snapshot.
    pub fn context_now(&self, context: ContextId) -> Result<Time> {
        Ok(self.graph(context)?.now())
    }

    /// The materialization-cache generation this view is pinned to.
    pub fn cache_generation(&self) -> u64 {
        self.generation
    }

    /// How long ago this view was published — the staleness a reader still
    /// holding it observes.
    pub fn age(&self) -> std::time::Duration {
        self.published_at.elapsed()
    }

    /// The graph directory (for file-level verification).
    pub fn directory(&self) -> &Path {
        &self.directory
    }

    /// Read-only access to a context's graph as of this snapshot.
    pub fn graph(&self, context: ContextId) -> Result<&HamGraph> {
        self.core().graph(context)
    }

    /// All live context ids as of this snapshot (the main context first).
    pub fn contexts(&self) -> Vec<ContextId> {
        self.core().contexts()
    }

    /// Where `context` was forked from; see [`crate::ham::Ham::context_forked_from`].
    pub fn context_forked_from(&self, context: ContextId) -> Result<Option<(ContextId, Time)>> {
        self.core().context_forked_from(context)
    }

    /// Whether opening `node` would fire a `nodeOpened` demon — in which
    /// case the request must bounce to the exclusive path, where demons
    /// can run.
    pub fn open_demon_registered(&self, context: ContextId, node: NodeIndex) -> bool {
        self.core()
            .demon_registered(context, Event::NodeOpened, Some(node))
    }

    /// The read-only core of `openNode` against this snapshot; see
    /// [`crate::ham::Ham::read_node`].
    pub fn read_node(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
        attrs: &[AttributeIndex],
    ) -> Result<OpenedNode> {
        let _span = neptune_obs::span!("view.read_node", "context {} node {}", context.0, node.0);
        self.core().read_node(context, node, time, attrs)
    }

    /// `linearizeGraph` against this snapshot; see [`crate::ham::Ham::linearize_graph`].
    #[allow(clippy::too_many_arguments)]
    pub fn linearize_graph(
        &self,
        context: ContextId,
        start: NodeIndex,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let _span = neptune_obs::span!("view.linearize_graph", "context {}", context.0);
        self.core().linearize_graph(
            context, start, time, node_pred, link_pred, node_attrs, link_attrs,
        )
    }

    /// `getGraphQuery` against this snapshot; see [`crate::ham::Ham::get_graph_query`].
    #[allow(clippy::too_many_arguments)]
    pub fn get_graph_query(
        &self,
        context: ContextId,
        time: Time,
        node_pred: &Predicate,
        link_pred: &Predicate,
        node_attrs: &[AttributeIndex],
        link_attrs: &[AttributeIndex],
    ) -> Result<SubGraph> {
        let _span = neptune_obs::span!("view.get_graph_query", "context {}", context.0);
        self.core()
            .get_graph_query(context, time, node_pred, link_pred, node_attrs, link_attrs)
    }

    /// `getNodeTimeStamp` against this snapshot.
    pub fn get_node_time_stamp(&self, context: ContextId, node: NodeIndex) -> Result<Time> {
        self.core().get_node_time_stamp(context, node)
    }

    /// `getNodeVersions` against this snapshot.
    pub fn get_node_versions(
        &self,
        context: ContextId,
        node: NodeIndex,
    ) -> Result<(Vec<Version>, Vec<Version>)> {
        self.core().get_node_versions(context, node)
    }

    /// `getNodeDifferences` against this snapshot.
    pub fn get_node_differences(
        &self,
        context: ContextId,
        node: NodeIndex,
        time1: Time,
        time2: Time,
    ) -> Result<Vec<Difference>> {
        self.core()
            .get_node_differences(context, node, time1, time2)
    }

    /// `getToNode` against this snapshot.
    pub fn get_to_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        self.core().get_to_node(context, link, time1)
    }

    /// `getFromNode` against this snapshot.
    pub fn get_from_node(
        &self,
        context: ContextId,
        link: LinkIndex,
        time1: Time,
    ) -> Result<(NodeIndex, Time)> {
        self.core().get_from_node(context, link, time1)
    }

    /// `getAttributes` against this snapshot.
    pub fn get_attributes(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex)>> {
        self.core().get_attributes(context, time)
    }

    /// `getAttributeValues` against this snapshot.
    pub fn get_attribute_values(
        &self,
        context: ContextId,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Vec<Value>> {
        self.core().get_attribute_values(context, attr, time)
    }

    /// `getNodeAttributeValue` against this snapshot.
    pub fn get_node_attribute_value(
        &self,
        context: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        self.core()
            .get_node_attribute_value(context, node, attr, time)
    }

    /// `getNodeAttributes` against this snapshot.
    pub fn get_node_attributes(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        self.core().get_node_attributes(context, node, time)
    }

    /// `getLinkAttributeValue` against this snapshot.
    pub fn get_link_attribute_value(
        &self,
        context: ContextId,
        link: LinkIndex,
        attr: AttributeIndex,
        time: Time,
    ) -> Result<Value> {
        self.core()
            .get_link_attribute_value(context, link, attr, time)
    }

    /// `getLinkAttributes` against this snapshot.
    pub fn get_link_attributes(
        &self,
        context: ContextId,
        link: LinkIndex,
        time: Time,
    ) -> Result<Vec<(String, AttributeIndex, Value)>> {
        self.core().get_link_attributes(context, link, time)
    }

    /// `getGraphDemons` against this snapshot.
    pub fn get_graph_demons(
        &self,
        context: ContextId,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        self.core().get_graph_demons(context, time)
    }

    /// `getNodeDemons` against this snapshot.
    pub fn get_node_demons(
        &self,
        context: ContextId,
        node: NodeIndex,
        time: Time,
    ) -> Result<Vec<(Event, DemonSpec)>> {
        self.core().get_node_demons(context, node, time)
    }

    /// Hit/miss counters and occupancy of the shared materialization cache.
    pub fn version_cache_stats(&self) -> CacheStats {
        self.core().version_cache_stats()
    }
}
