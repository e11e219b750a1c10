//! The two ways a workload reaches the program: over the wire through the
//! `neptune-server` client, or in process through the library's public
//! functions. Both run the same workload code (see `load`), so the traced
//! in-process replay exercises exactly the calls the wire run made.

use std::sync::Arc;

use neptune_ham::context::ConflictPolicy;
use neptune_ham::types::{AttributeIndex, ContextId, LinkIndex, LinkPt, NodeIndex, Time};
use neptune_ham::value::Value;
use neptune_ham::{Predicate, ShardedHam};
use neptune_server::{Client, Request, Response};
use neptune_storage::codec::{Decode, Encode};

use crate::ledger::Tracer;

/// The link predicate of the document browser: follow the structure.
pub const STRUCTURE: &str = "relation = isPartOf";
/// The graph browser's node predicate.
pub const KIND0: &str = "kind = k0";
/// The always-true predicate.
pub const ANY: &str = "true";

/// Operation classes, as reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Class {
    /// `openNode` at the current time.
    Open,
    /// `openNode` at a past time.
    History,
    /// `linearizeGraph` or `getGraphQuery`.
    Browse,
    /// A durable check-in acknowledgement: a standalone `modifyNode`, or
    /// `commitTransaction`.
    Checkin,
    /// Work inside an explicit transaction, acknowledged only at commit.
    TxnStep,
    /// `createContext`.
    Fork,
    /// `mergeContext`.
    Merge,
    /// `destroyContext`.
    Destroy,
}

impl Class {
    /// Every class, in report order.
    pub const ALL: [Class; 8] = [
        Class::Open,
        Class::History,
        Class::Browse,
        Class::Checkin,
        Class::TxnStep,
        Class::Fork,
        Class::Merge,
        Class::Destroy,
    ];

    /// Report name.
    pub fn name(self) -> &'static str {
        match self {
            Class::Open => "open",
            Class::History => "history",
            Class::Browse => "browse",
            Class::Checkin => "checkin",
            Class::TxnStep => "txn_step",
            Class::Fork => "fork",
            Class::Merge => "merge",
            Class::Destroy => "destroy",
        }
    }

    /// Name of the benchmark span wrapping one operation of this class.
    pub fn span(self) -> &'static str {
        match self {
            Class::Open => "op.open",
            Class::History => "op.history",
            Class::Browse => "op.browse",
            Class::Checkin => "op.checkin",
            Class::TxnStep => "op.txn_step",
            Class::Fork => "op.fork",
            Class::Merge => "op.merge",
            Class::Destroy => "op.destroy",
        }
    }

    /// Index into per-class arrays.
    pub fn index(self) -> usize {
        self as usize
    }
}

/// What `openNode` returned, as far as the workload needs it.
pub struct Opened {
    /// Contents of the opened version.
    pub contents: Arc<[u8]>,
    /// Attachments, in the order `modifyNode` expects them back.
    pub link_pts: Vec<LinkPt>,
    /// Time of the node's current version.
    pub current_time: Time,
}

/// Result of a call, with the error flattened to text.
pub type Res<T> = Result<T, String>;

/// The operations the workloads issue.
pub trait Backend {
    /// Open an operation of `class` (a span root, when traced).
    fn enter(&mut self, class: Class);
    /// Close it.
    fn exit(&mut self);
    /// `openNode`.
    fn open(&mut self, ctx: ContextId, node: NodeIndex, time: Time) -> Res<Opened>;
    /// `modifyNode`.
    fn modify(
        &mut self,
        ctx: ContextId,
        node: NodeIndex,
        time: Time,
        contents: Vec<u8>,
        link_pts: Vec<LinkPt>,
    ) -> Res<Time>;
    /// `linearizeGraph` over the document structure; returns sections.
    fn linearize(&mut self, ctx: ContextId, root: NodeIndex) -> Res<usize>;
    /// `getGraphQuery` for `kind = k0`; returns nodes.
    fn query(&mut self, ctx: ContextId) -> Res<usize>;
    /// `beginTransaction`.
    fn begin(&mut self) -> Res<()>;
    /// `commitTransaction`.
    fn commit(&mut self) -> Res<()>;
    /// `abortTransaction`.
    fn abort(&mut self) -> Res<()>;
    /// `setNodeAttributeValue`.
    fn set_attr(
        &mut self,
        ctx: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        v: Value,
    ) -> Res<()>;
    /// `addLink`.
    fn add_link(&mut self, ctx: ContextId, from: LinkPt, to: LinkPt) -> Res<LinkIndex>;
    /// `deleteLink`.
    fn delete_link(&mut self, ctx: ContextId, link: LinkIndex) -> Res<()>;
    /// `createContext`.
    fn fork(&mut self, from: ContextId) -> Res<ContextId>;
    /// `mergeContext` (a conflict is an error); returns modified nodes.
    fn merge(&mut self, child: ContextId) -> Res<Vec<NodeIndex>>;
    /// `destroyContext`.
    fn destroy(&mut self, ctx: ContextId) -> Res<()>;
}

fn text<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// The wire: one `Client` connection. With a tracer, each call is a span.
pub struct Wire {
    client: Client,
    tracer: Option<Tracer>,
}

impl Wire {
    /// Wrap a connection; `traced` records a span per call.
    pub fn new(client: Client, traced: bool) -> Wire {
        Wire {
            client,
            tracer: traced.then(Tracer::new),
        }
    }

    /// The recorded spans (empty when untraced).
    pub fn into_tracer(self) -> Option<Tracer> {
        self.tracer
    }

    fn call<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Client) -> T) -> T {
        match self.tracer.as_mut() {
            Some(t) => {
                t.enter(name);
                let out = f(&mut self.client);
                t.exit();
                out
            }
            None => f(&mut self.client),
        }
    }
}

impl Backend for Wire {
    fn enter(&mut self, class: Class) {
        if let Some(t) = self.tracer.as_mut() {
            t.enter(class.span());
        }
    }
    fn exit(&mut self) {
        if let Some(t) = self.tracer.as_mut() {
            t.exit();
        }
    }
    fn open(&mut self, ctx: ContextId, node: NodeIndex, time: Time) -> Res<Opened> {
        let o = self
            .call("client.open_node", |c| c.open_node(ctx, node, time, vec![]))
            .map_err(text)?;
        Ok(Opened {
            contents: o.contents,
            link_pts: o.link_pts,
            current_time: o.current_time,
        })
    }
    fn modify(
        &mut self,
        ctx: ContextId,
        node: NodeIndex,
        time: Time,
        contents: Vec<u8>,
        link_pts: Vec<LinkPt>,
    ) -> Res<Time> {
        self.call("client.modify_node", |c| {
            c.modify_node(ctx, node, time, contents, link_pts)
        })
        .map_err(text)
    }
    fn linearize(&mut self, ctx: ContextId, root: NodeIndex) -> Res<usize> {
        self.call("client.linearize_graph", |c| {
            c.linearize_graph(ctx, root, Time::CURRENT, ANY, STRUCTURE, vec![], vec![])
        })
        .map(|sg| sg.nodes.len())
        .map_err(text)
    }
    fn query(&mut self, ctx: ContextId) -> Res<usize> {
        self.call("client.get_graph_query", |c| {
            c.get_graph_query(ctx, Time::CURRENT, KIND0, ANY, vec![], vec![])
        })
        .map(|sg| sg.nodes.len())
        .map_err(text)
    }
    fn begin(&mut self) -> Res<()> {
        self.call("client.begin_transaction", Client::begin_transaction)
            .map(|_| ())
            .map_err(text)
    }
    fn commit(&mut self) -> Res<()> {
        self.call("client.commit_transaction", Client::commit_transaction)
            .map_err(text)
    }
    fn abort(&mut self) -> Res<()> {
        self.call("client.abort_transaction", Client::abort_transaction)
            .map_err(text)
    }
    fn set_attr(
        &mut self,
        ctx: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        v: Value,
    ) -> Res<()> {
        self.call("client.set_node_attribute_value", |c| {
            c.set_node_attribute_value(ctx, node, attr, v)
        })
        .map_err(text)
    }
    fn add_link(&mut self, ctx: ContextId, from: LinkPt, to: LinkPt) -> Res<LinkIndex> {
        self.call("client.add_link", |c| c.add_link(ctx, from, to))
            .map(|(link, _)| link)
            .map_err(text)
    }
    fn delete_link(&mut self, ctx: ContextId, link: LinkIndex) -> Res<()> {
        self.call("client.delete_link", |c| c.delete_link(ctx, link))
            .map_err(text)
    }
    fn fork(&mut self, from: ContextId) -> Res<ContextId> {
        self.call("client.create_context", |c| c.create_context(from))
            .map_err(text)
    }
    fn merge(&mut self, child: ContextId) -> Res<Vec<NodeIndex>> {
        self.call("client.merge_context", |c| {
            c.merge_context(child, ConflictPolicy::Fail)
        })
        .map(|r| r.nodes_modified)
        .map_err(text)
    }
    fn destroy(&mut self, ctx: ContextId) -> Res<()> {
        self.call("client.destroy_context", |c| c.destroy_context(ctx))
            .map_err(text)
    }
}

/// In process: the library's public functions on an open store, each call
/// wrapped in a benchmark span named after the module it enters. Requests
/// and responses also go through the wire codec, as the server would
/// encode and decode them.
pub struct Local<'a> {
    ham: &'a ShardedHam,
    /// The spans recorded so far.
    pub tracer: Tracer,
    structure: Predicate,
    kind0: Predicate,
}

impl<'a> Local<'a> {
    /// Drive `ham` directly.
    pub fn new(ham: &'a ShardedHam) -> Local<'a> {
        Local {
            ham,
            tracer: Tracer::new(),
            structure: Predicate::parse(STRUCTURE).expect("structure predicate"),
            kind0: Predicate::parse(KIND0).expect("kind predicate"),
        }
    }

    fn encode(&mut self, req: Request) {
        self.tracer
            .time("proto.encode", || std::hint::black_box(req.to_bytes()));
    }

    fn decode(&mut self, resp: Response) {
        let bytes = resp.to_bytes();
        self.tracer.time("proto.decode", || {
            std::hint::black_box(Response::from_bytes(&bytes).expect("response round-trips"))
        });
    }

    fn locked<T>(
        &mut self,
        ctx: ContextId,
        name: &'static str,
        f: impl FnOnce(&mut neptune_ham::Ham) -> neptune_ham::Result<T>,
    ) -> Res<T> {
        let ham = self.ham;
        let mut guard = self
            .tracer
            .time("shard.lock_home", || ham.lock_home(ctx))
            .map_err(text)?;
        let out = self.tracer.time(name, || f(&mut guard)).map_err(text);
        drop(guard);
        out
    }

    fn ok(&mut self) {
        self.decode(Response::Ok);
    }
}

impl Backend for Local<'_> {
    fn enter(&mut self, class: Class) {
        self.tracer.enter(class.span());
    }
    fn exit(&mut self) {
        self.tracer.exit();
    }
    fn open(&mut self, ctx: ContextId, node: NodeIndex, time: Time) -> Res<Opened> {
        self.encode(Request::OpenNode {
            context: ctx,
            node,
            time,
            attrs: vec![],
        });
        let ham = self.ham;
        let view = self.tracer.time("shard.read_view", || ham.read_view(ctx));
        let name = if time.is_current() {
            "view.read_head"
        } else {
            "view.read_past"
        };
        let o = self
            .tracer
            .time(name, || view.read_node(ctx, node, time, &[]))
            .map_err(text)?;
        self.decode(Response::Opened {
            contents: o.contents.clone(),
            link_pts: o.link_pts.clone(),
            values: vec![],
            current_time: o.current_time,
        });
        Ok(Opened {
            contents: o.contents,
            link_pts: o.link_pts,
            current_time: o.current_time,
        })
    }
    fn modify(
        &mut self,
        ctx: ContextId,
        node: NodeIndex,
        time: Time,
        contents: Vec<u8>,
        link_pts: Vec<LinkPt>,
    ) -> Res<Time> {
        self.encode(Request::ModifyNode {
            context: ctx,
            node,
            time,
            contents: contents.clone(),
            link_pts: link_pts.clone(),
        });
        let t = self.locked(ctx, "ham.modify_node", |g| {
            g.modify_node(ctx, node, time, contents, &link_pts)
        })?;
        self.decode(Response::Time(t));
        Ok(t)
    }
    fn linearize(&mut self, ctx: ContextId, root: NodeIndex) -> Res<usize> {
        self.encode(Request::LinearizeGraph {
            context: ctx,
            start: root,
            time: Time::CURRENT,
            node_pred: ANY.to_string(),
            link_pred: STRUCTURE.to_string(),
            node_attrs: vec![],
            link_attrs: vec![],
        });
        let ham = self.ham;
        let view = self.tracer.time("shard.read_view", || ham.read_view(ctx));
        let structure = &self.structure;
        let sg = self
            .tracer
            .time("view.linearize_graph", || {
                view.linearize_graph(
                    ctx,
                    root,
                    Time::CURRENT,
                    &Predicate::True,
                    structure,
                    &[],
                    &[],
                )
            })
            .map_err(text)?;
        let n = sg.nodes.len();
        self.decode(Response::SubGraph(sg));
        Ok(n)
    }
    fn query(&mut self, ctx: ContextId) -> Res<usize> {
        self.encode(Request::GetGraphQuery {
            context: ctx,
            time: Time::CURRENT,
            node_pred: KIND0.to_string(),
            link_pred: ANY.to_string(),
            node_attrs: vec![],
            link_attrs: vec![],
        });
        let ham = self.ham;
        let view = self.tracer.time("shard.read_view", || ham.read_view(ctx));
        let kind0 = &self.kind0;
        let sg = self
            .tracer
            .time("view.get_graph_query", || {
                view.get_graph_query(ctx, Time::CURRENT, kind0, &Predicate::True, &[], &[])
            })
            .map_err(text)?;
        let n = sg.nodes.len();
        self.decode(Response::SubGraph(sg));
        Ok(n)
    }
    fn begin(&mut self) -> Res<()> {
        self.encode(Request::BeginTransaction);
        let ham = self.ham;
        let id = self
            .tracer
            .time("shard.begin_transaction", || ham.begin_transaction())
            .map_err(text)?;
        self.decode(Response::TxnStarted(id));
        Ok(())
    }
    fn commit(&mut self) -> Res<()> {
        self.encode(Request::CommitTransaction);
        let ham = self.ham;
        self.tracer
            .time("shard.commit_transaction", || ham.commit_transaction())
            .map_err(text)?;
        self.ok();
        Ok(())
    }
    fn abort(&mut self) -> Res<()> {
        self.encode(Request::AbortTransaction);
        let ham = self.ham;
        self.tracer
            .time("shard.abort_transaction", || ham.abort_transaction())
            .map_err(text)?;
        self.ok();
        Ok(())
    }
    fn set_attr(
        &mut self,
        ctx: ContextId,
        node: NodeIndex,
        attr: AttributeIndex,
        v: Value,
    ) -> Res<()> {
        self.encode(Request::SetNodeAttributeValue {
            context: ctx,
            node,
            attr,
            value: v.clone(),
        });
        self.locked(ctx, "ham.set_node_attribute_value", |g| {
            g.set_node_attribute_value(ctx, node, attr, v)
        })?;
        self.ok();
        Ok(())
    }
    fn add_link(&mut self, ctx: ContextId, from: LinkPt, to: LinkPt) -> Res<LinkIndex> {
        self.encode(Request::AddLink {
            context: ctx,
            from,
            to,
        });
        let (link, t) = self.locked(ctx, "ham.add_link", |g| g.add_link(ctx, from, to))?;
        self.decode(Response::LinkCreated(link, t));
        Ok(link)
    }
    fn delete_link(&mut self, ctx: ContextId, link: LinkIndex) -> Res<()> {
        self.encode(Request::DeleteLink { context: ctx, link });
        self.locked(ctx, "ham.delete_link", |g| g.delete_link(ctx, link))?;
        self.ok();
        Ok(())
    }
    fn fork(&mut self, from: ContextId) -> Res<ContextId> {
        self.encode(Request::CreateContext { from });
        let ham = self.ham;
        let id = self
            .tracer
            .time("shard.create_context", || ham.create_context(from))
            .map_err(text)?;
        self.decode(Response::Context(id));
        Ok(id)
    }
    fn merge(&mut self, child: ContextId) -> Res<Vec<NodeIndex>> {
        self.encode(Request::MergeContext {
            child,
            policy: ConflictPolicy::Fail,
        });
        let ham = self.ham;
        let report = self
            .tracer
            .time("shard.merge_context", || {
                ham.merge_context(child, ConflictPolicy::Fail)
            })
            .map_err(text)?;
        let nodes = report.nodes_modified.clone();
        self.decode(Response::Merged(report));
        // A cross-shard reader's consistent snapshot right after the
        // two-phase commit: what the server assembles for a global read.
        self.tracer.time("shard.multi_view", || {
            std::hint::black_box(ham.multi_view())
        });
        Ok(nodes)
    }
    fn destroy(&mut self, ctx: ContextId) -> Res<()> {
        self.encode(Request::DestroyContext { id: ctx });
        let ham = self.ham;
        self.tracer
            .time("shard.destroy_context", || ham.destroy_context(ctx))
            .map_err(text)?;
        self.ok();
        Ok(())
    }
}
