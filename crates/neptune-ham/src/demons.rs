//! Demons: application code invoked on HAM events.
//!
//! Paper §3: *"a demon mechanism is provided that invokes application or
//! user code when a specific HAM event occurs, such as an update to a
//! particular node."* §5 criticizes the original design as "very weak" and
//! asks for **parameterized demons** carrying "the demon invoking event, an
//! invocation time-stamp, or an identification of the invoking node or
//! graph" — this reproduction implements that extension: every firing
//! receives a [`DemonFireInfo`].
//!
//! A demon *value* must be durable (it is versioned and persisted with the
//! graph), so it is a [`DemonSpec`]: a name plus a [`DemonAction`]. Built-in
//! actions cover the paper's motivating examples (logging/mail, setting a
//! "dirty" attribute for checking code, touch-cascades for incremental
//! compilation); `Call` actions dispatch to Rust callbacks registered at
//! runtime in a [`DemonRegistry`] — the analogue of the paper's plan to
//! "allow parameterized demons to be written in Smalltalk, Modula-2, or C".

use std::collections::BTreeMap;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use neptune_storage::codec::{Decode, Encode, Reader, Writer};
use neptune_storage::error::{Result as StorageResult, StorageError};

use crate::history::Versioned;
use crate::types::{LinkIndex, NodeIndex, Time};
use crate::value::Value;

/// A HAM event that can trigger demons (the operations the appendix marks
/// "This operation can trigger a demon").
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Event {
    /// `openGraph` completed.
    GraphOpened,
    /// `addNode` created a node.
    NodeAdded,
    /// `deleteNode` removed a node.
    NodeDeleted,
    /// `openNode` read a node.
    NodeOpened,
    /// `modifyNode` checked in new contents.
    NodeModified,
    /// `addLink` or `copyLink` created a link.
    LinkAdded,
    /// `deleteLink` removed a link.
    LinkDeleted,
    /// An attribute value was set or deleted.
    AttributeChanged,
}

impl Event {
    /// All events, for iteration in tests and tooling.
    pub const ALL: [Event; 8] = [
        Event::GraphOpened,
        Event::NodeAdded,
        Event::NodeDeleted,
        Event::NodeOpened,
        Event::NodeModified,
        Event::LinkAdded,
        Event::LinkDeleted,
        Event::AttributeChanged,
    ];

    fn to_tag(self) -> u8 {
        match self {
            Event::GraphOpened => 0,
            Event::NodeAdded => 1,
            Event::NodeDeleted => 2,
            Event::NodeOpened => 3,
            Event::NodeModified => 4,
            Event::LinkAdded => 5,
            Event::LinkDeleted => 6,
            Event::AttributeChanged => 7,
        }
    }

    fn from_tag(tag: u8) -> StorageResult<Event> {
        Event::ALL
            .get(tag as usize)
            .copied()
            .ok_or(StorageError::InvalidTag {
                context: "Event",
                tag: tag as u64,
            })
    }
}

impl Encode for Event {
    fn encode(&self, w: &mut Writer) {
        w.put_u8(self.to_tag());
    }
}

impl Decode for Event {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        Event::from_tag(r.get_u8()?)
    }
}

impl fmt::Display for Event {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Event::GraphOpened => "graphOpened",
            Event::NodeAdded => "nodeAdded",
            Event::NodeDeleted => "nodeDeleted",
            Event::NodeOpened => "nodeOpened",
            Event::NodeModified => "nodeModified",
            Event::LinkAdded => "linkAdded",
            Event::LinkDeleted => "linkDeleted",
            Event::AttributeChanged => "attributeChanged",
        };
        write!(f, "{name}")
    }
}

/// The parameters handed to a demon when it fires — the §5 extension.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DemonFireInfo {
    /// The event that fired.
    pub event: Event,
    /// Invocation time-stamp (the graph's logical clock).
    pub time: Time,
    /// The invoking node, if the event concerns one.
    pub node: Option<NodeIndex>,
    /// The invoking link, if the event concerns one.
    pub link: Option<LinkIndex>,
}

/// The durable action a demon performs.
#[derive(Debug, Clone, PartialEq)]
pub enum DemonAction {
    /// Record a message in the fire journal (the paper's "sending mail to
    /// the person responsible for a node" reduces to a notification record).
    Notify(String),
    /// Attach `attr = value` to the invoking node — the "performing special
    /// checking code" pattern (e.g. marking a node `dirty = true` for a
    /// validator or incremental compiler to pick up).
    MarkNode {
        /// Attribute name to set.
        attr: String,
        /// Value to set it to.
        value: Value,
    },
    /// Invoke a named callback from the [`DemonRegistry`] — user code in
    /// the host language.
    Call(String),
}

/// A demon value: what the appendix's `Demon` domain holds.
#[derive(Debug, Clone, PartialEq)]
pub struct DemonSpec {
    /// Identifying name, shown in journals and used for debugging.
    pub name: String,
    /// What the demon does when fired.
    pub action: DemonAction,
}

impl DemonSpec {
    /// A notification demon.
    pub fn notify(name: impl Into<String>, message: impl Into<String>) -> DemonSpec {
        DemonSpec {
            name: name.into(),
            action: DemonAction::Notify(message.into()),
        }
    }

    /// A node-marking demon.
    pub fn mark_node(
        name: impl Into<String>,
        attr: impl Into<String>,
        value: impl Into<Value>,
    ) -> DemonSpec {
        DemonSpec {
            name: name.into(),
            action: DemonAction::MarkNode {
                attr: attr.into(),
                value: value.into(),
            },
        }
    }

    /// A callback demon dispatching to registered user code.
    pub fn call(name: impl Into<String>, callback: impl Into<String>) -> DemonSpec {
        DemonSpec {
            name: name.into(),
            action: DemonAction::Call(callback.into()),
        }
    }
}

impl Encode for DemonSpec {
    fn encode(&self, w: &mut Writer) {
        w.put_str(&self.name);
        match &self.action {
            DemonAction::Notify(msg) => {
                w.put_u8(0);
                w.put_str(msg);
            }
            DemonAction::MarkNode { attr, value } => {
                w.put_u8(1);
                w.put_str(attr);
                value.encode(w);
            }
            DemonAction::Call(cb) => {
                w.put_u8(2);
                w.put_str(cb);
            }
        }
    }
}

impl Decode for DemonSpec {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let name = r.get_str()?.to_owned();
        let action = match r.get_u8()? {
            0 => DemonAction::Notify(r.get_str()?.to_owned()),
            1 => DemonAction::MarkNode {
                attr: r.get_str()?.to_owned(),
                value: Value::decode(r)?,
            },
            2 => DemonAction::Call(r.get_str()?.to_owned()),
            tag => {
                return Err(StorageError::InvalidTag {
                    context: "DemonAction",
                    tag: tag as u64,
                })
            }
        };
        Ok(DemonSpec { name, action })
    }
}

/// A versioned event → demon table, used at graph level and per node.
///
/// `setGraphDemonValue`/`setNodeDemon` "create a new version of the demon";
/// a null demon disables the slot, which we record as a deletion entry.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DemonTable {
    slots: BTreeMap<Event, Versioned<DemonSpec>>,
}

impl DemonTable {
    /// An empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Set (or, with `None`, disable) the demon for `event` as of `now`.
    pub fn set(&mut self, event: Event, demon: Option<DemonSpec>, now: Time) {
        let slot = self.slots.entry(event).or_default();
        match demon {
            Some(d) => slot.set(now, d),
            None => slot.delete(now),
        }
    }

    /// The demon registered for `event` at `time`.
    pub fn get(&self, event: Event, time: Time) -> Option<&DemonSpec> {
        self.slots.get(&event).and_then(|v| v.get_at(time))
    }

    /// All `(event, demon)` pairs active at `time` — `getGraphDemons` /
    /// `getNodeDemons`.
    pub fn all_at(&self, time: Time) -> Vec<(Event, DemonSpec)> {
        self.slots
            .iter()
            .filter_map(|(e, v)| v.get_at(time).map(|d| (*e, d.clone())))
            .collect()
    }

    /// Every event slot's full versioned history, for integrity checking.
    pub fn histories(&self) -> impl Iterator<Item = (Event, &Versioned<DemonSpec>)> {
        self.slots.iter().map(|(e, v)| (*e, v))
    }

    /// Roll back changes after `time`.
    pub fn truncate_after(&mut self, time: Time) {
        self.slots.retain(|_, v| {
            v.truncate_after(time);
            !v.is_empty()
        });
    }

    /// Whether no demon was ever set.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }
}

impl Encode for DemonTable {
    fn encode(&self, w: &mut Writer) {
        w.put_u64(self.slots.len() as u64);
        for (event, versions) in &self.slots {
            event.encode(w);
            versions.encode(w);
        }
    }
}

impl Decode for DemonTable {
    fn decode(r: &mut Reader<'_>) -> StorageResult<Self> {
        let count = r.get_u64()? as usize;
        let mut slots = BTreeMap::new();
        for _ in 0..count {
            let event = Event::decode(r)?;
            let versions = Versioned::<DemonSpec>::decode(r)?;
            slots.insert(event, versions);
        }
        Ok(DemonTable { slots })
    }
}

/// A runtime callback invoked by `DemonAction::Call`.
pub type DemonCallback = Arc<dyn Fn(&DemonFireInfo) + Send + Sync>;

/// Runtime registry of named demon callbacks.
///
/// Callbacks are process-local (they cannot be persisted); a graph whose
/// demons `Call` an unregistered name records the firing in the journal and
/// carries on, so opening someone else's graph never fails on their demons.
#[derive(Default, Clone)]
pub struct DemonRegistry {
    callbacks: HashMap<String, DemonCallback>,
}

impl DemonRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register `callback` under `name`, replacing any previous registration.
    pub fn register<F>(&mut self, name: impl Into<String>, callback: F)
    where
        F: Fn(&DemonFireInfo) + Send + Sync + 'static,
    {
        self.callbacks.insert(name.into(), Arc::new(callback));
    }

    /// Look up a callback.
    pub fn get(&self, name: &str) -> Option<&DemonCallback> {
        self.callbacks.get(name)
    }

    /// Number of registered callbacks.
    pub fn len(&self) -> usize {
        self.callbacks.len()
    }

    /// Whether no callbacks are registered.
    pub fn is_empty(&self) -> bool {
        self.callbacks.is_empty()
    }
}

impl fmt::Debug for DemonRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut names: Vec<&str> = self.callbacks.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        f.debug_struct("DemonRegistry")
            .field("callbacks", &names)
            .finish()
    }
}

/// One recorded demon firing: the journal is how tests, tools, and the
/// demon browser observe demon activity.
#[derive(Debug, Clone, PartialEq)]
pub struct FireRecord {
    /// The demon that fired.
    pub demon: String,
    /// The parameters it received.
    pub info: DemonFireInfo,
    /// For `Notify` actions, the message; for `Call` actions that found no
    /// callback, a diagnostic.
    pub message: Option<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn event_tags_roundtrip() {
        for e in Event::ALL {
            assert_eq!(Event::from_tag(e.to_tag()).unwrap(), e);
        }
        assert!(Event::from_tag(99).is_err());
    }

    #[test]
    fn demon_spec_codec_roundtrip() {
        for spec in [
            DemonSpec::notify("mailer", "node changed"),
            DemonSpec::mark_node("dirtier", "dirty", true),
            DemonSpec::call("recompile", "compiler.incremental"),
        ] {
            assert_eq!(DemonSpec::from_bytes(&spec.to_bytes()).unwrap(), spec);
        }
    }

    #[test]
    fn table_versions_demons() {
        let mut t = DemonTable::new();
        t.set(
            Event::NodeModified,
            Some(DemonSpec::notify("v1", "a")),
            Time(1),
        );
        t.set(
            Event::NodeModified,
            Some(DemonSpec::notify("v2", "b")),
            Time(5),
        );
        t.set(Event::NodeModified, None, Time(9));
        assert_eq!(t.get(Event::NodeModified, Time(1)).unwrap().name, "v1");
        assert_eq!(t.get(Event::NodeModified, Time(7)).unwrap().name, "v2");
        assert!(t.get(Event::NodeModified, Time(9)).is_none());
        assert!(t.get(Event::NodeModified, Time::CURRENT).is_none());
        assert!(t.get(Event::NodeAdded, Time::CURRENT).is_none());
    }

    #[test]
    fn table_all_at_and_truncate() {
        let mut t = DemonTable::new();
        t.set(Event::NodeAdded, Some(DemonSpec::notify("a", "x")), Time(1));
        t.set(Event::LinkAdded, Some(DemonSpec::notify("b", "y")), Time(6));
        assert_eq!(t.all_at(Time(1)).len(), 1);
        assert_eq!(t.all_at(Time::CURRENT).len(), 2);
        t.truncate_after(Time(3));
        assert_eq!(t.all_at(Time::CURRENT).len(), 1);
    }

    #[test]
    fn table_codec_roundtrip() {
        let mut t = DemonTable::new();
        t.set(Event::NodeOpened, Some(DemonSpec::call("c", "cb")), Time(2));
        t.set(Event::NodeOpened, None, Time(4));
        let decoded = DemonTable::from_bytes(&t.to_bytes()).unwrap();
        assert_eq!(decoded, t);
    }

    #[test]
    fn registry_dispatches() {
        static FIRED: AtomicUsize = AtomicUsize::new(0);
        let mut reg = DemonRegistry::new();
        reg.register("count", |_info| {
            FIRED.fetch_add(1, Ordering::SeqCst);
        });
        let info = DemonFireInfo {
            event: Event::NodeModified,
            time: Time(3),
            node: Some(NodeIndex(1)),
            link: None,
        };
        (reg.get("count").unwrap())(&info);
        assert_eq!(FIRED.load(Ordering::SeqCst), 1);
        assert!(reg.get("missing").is_none());
        assert!(format!("{reg:?}").contains("count"));
    }
}
