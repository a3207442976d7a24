//! Trace events and the recorder.
//!
//! One [`Event`] corresponds to one line of a per-process trace file in
//! the original system (timestamp + call + arguments). Events carry:
//!
//! * the **layer** they were traced at ([`Layer`]) — ParaCrash projects
//!   the graph onto single layers to generate per-layer legal states;
//! * the **process** that executed them ([`Process`]);
//! * a **payload** — either an upper-layer call (with name/args, like
//!   `H5Dcreate(dataset)` or `MPI_File_write_at(fh, 800, 88)`), a
//!   lowermost-level local-FS or block operation, or a communication
//!   (`sendto` / `recvfrom`);
//! * an optional **parent** (caller–callee edge) and an optional semantic
//!   **object label** (which I/O-library data structure the bytes belong
//!   to — `superblock`, `btree`, `local heap`… — used by the semantic
//!   pruning of §5.3 and the bug aggregation of §5.2).

use simfs::{BlockOp, FsOp};
use std::fmt;

/// Index of an event in its [`Recorder`].
pub type EventId = usize;

/// The I/O-stack layer an event was traced at (Figure 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// The application / test program.
    App,
    /// Parallel I/O library (HDF5, NetCDF).
    IoLib,
    /// MPI-IO middleware.
    MpiIo,
    /// Parallel-file-system client call (POSIX API against the PFS mount).
    PfsClient,
    /// PFS server-side processing (RPC handlers).
    PfsServer,
    /// Lowermost level for user-level PFS: local-FS syscalls on a server.
    LocalFs,
    /// Lowermost level for kernel-level PFS: block commands on a server.
    Block,
}

impl Layer {
    /// `true` for the lowermost storage layers whose operations ParaCrash
    /// replays during crash emulation.
    pub fn is_lowermost(&self) -> bool {
        matches!(self, Layer::LocalFs | Layer::Block)
    }
}

impl fmt::Display for Layer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Layer::App => "app",
            Layer::IoLib => "iolib",
            Layer::MpiIo => "mpiio",
            Layer::PfsClient => "pfs-client",
            Layer::PfsServer => "pfs-server",
            Layer::LocalFs => "localfs",
            Layer::Block => "block",
        };
        f.write_str(s)
    }
}

/// A traced process: an application client (MPI rank) or a PFS server.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Process {
    /// Application client / MPI rank.
    Client(u32),
    /// PFS server process, indexed into the cluster's server table.
    Server(u32),
}

impl fmt::Display for Process {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Process::Client(r) => write!(f, "client#{r}"),
            Process::Server(s) => write!(f, "server#{s}"),
        }
    }
}

/// What an event records.
///
/// Fields are the traced call arguments (name/args), the executing
/// server and operation, or the communication peer and message.
#[allow(missing_docs)]
#[derive(Debug, Clone)]
pub enum Payload {
    /// Upper-layer function call (I/O library, MPI-IO, PFS client API).
    Call { name: String, args: Vec<String> },
    /// Lowermost POSIX operation on `server`'s local file system.
    Fs { server: u32, op: FsOp },
    /// Lowermost block command on `server`'s disk.
    Block { server: u32, op: BlockOp },
    /// `sendto(peer)` — message departure.
    Send { to: Process, msg: String },
    /// `recvfrom(peer)` — message arrival.
    Recv { from: Process, msg: String },
    /// Synchronization marker (e.g. `MPI_Barrier`).
    Sync { name: String },
}

impl Payload {
    /// `true` if this payload is a lowermost-level storage update
    /// (participates in crash-state generation).
    pub fn is_storage_update(&self) -> bool {
        match self {
            Payload::Fs { op, .. } => op.is_update(),
            Payload::Block { op, .. } => op.is_update(),
            _ => false,
        }
    }

    /// `true` if this payload is a lowermost-level commit operation.
    pub fn is_storage_sync(&self) -> bool {
        match self {
            Payload::Fs { op, .. } => op.is_sync(),
            Payload::Block { op, .. } => op.is_sync(),
            _ => false,
        }
    }
}

/// One trace entry.
#[derive(Debug, Clone)]
pub struct Event {
    /// Position in the recorder — also the global chronological timestamp
    /// (the simulation is deterministic and single-threaded).
    pub id: EventId,
    /// Layer the event was traced at.
    pub layer: Layer,
    /// Process that executed it.
    pub proc: Process,
    /// What happened.
    pub payload: Payload,
    /// Caller event (one layer up), if any — the caller–callee edge.
    pub parent: Option<EventId>,
    /// Semantic object label (I/O-library structure the bytes belong to).
    pub object: Option<String>,
}

impl Event {
    /// Short single-line rendering, mirroring trace-file lines.
    pub fn render(&self) -> String {
        let body = match &self.payload {
            Payload::Call { name, args } => format!("{name}({})", args.join(", ")),
            Payload::Fs { server, op } => format!("{op}@server#{server}"),
            Payload::Block { server, op } => format!("{op}@server#{server}"),
            Payload::Send { to, msg } => format!("sendto({to}, {msg})"),
            Payload::Recv { from, msg } => format!("recvfrom({from}, {msg})"),
            Payload::Sync { name } => format!("{name}()"),
        };
        match &self.object {
            Some(obj) => format!("[{}] {} {} <{obj}>", self.layer, self.proc, body),
            None => format!("[{}] {} {}", self.layer, self.proc, body),
        }
    }
}

/// Collects events from every simulated layer and the extra causal edges
/// that cannot be derived from program order (sender→receiver pairs,
/// barrier fan-in/fan-out).
#[derive(Debug, Default, Clone)]
pub struct Recorder {
    events: Vec<Event>,
    /// Additional happens-before edges `(from, to)`.
    extra_edges: Vec<(EventId, EventId)>,
}

impl Recorder {
    /// Fresh empty recorder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an event; returns its id.
    pub fn record(
        &mut self,
        layer: Layer,
        proc: Process,
        payload: Payload,
        parent: Option<EventId>,
    ) -> EventId {
        let id = self.events.len();
        self.events.push(Event {
            id,
            layer,
            proc,
            payload,
            parent,
            object: None,
        });
        id
    }

    /// Record an event with a semantic object label.
    pub fn record_labeled(
        &mut self,
        layer: Layer,
        proc: Process,
        payload: Payload,
        parent: Option<EventId>,
        object: impl Into<String>,
    ) -> EventId {
        let id = self.record(layer, proc, payload, parent);
        self.events[id].object = Some(object.into());
        id
    }

    /// Add an explicit happens-before edge (sender→receiver, sync).
    pub fn add_edge(&mut self, from: EventId, to: EventId) {
        self.extra_edges.push((from, to));
    }

    /// Attach / replace the semantic object label of an event.
    pub fn set_object(&mut self, id: EventId, object: impl Into<String>) {
        self.events[id].object = Some(object.into());
    }

    /// All events in chronological order.
    pub fn events(&self) -> &[Event] {
        &self.events
    }

    /// The explicit extra edges.
    pub fn extra_edges(&self) -> &[(EventId, EventId)] {
        &self.extra_edges
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// `true` if nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Event lookup.
    pub fn event(&self, id: EventId) -> &Event {
        &self.events[id]
    }

    /// Ids of all events at `layer`.
    pub fn layer_events(&self, layer: Layer) -> Vec<EventId> {
        self.events
            .iter()
            .filter(|e| e.layer == layer)
            .map(|e| e.id)
            .collect()
    }

    /// Ids of all lowermost-level events (local-FS + block), the input to
    /// Algorithm 1.
    pub fn lowermost_events(&self) -> Vec<EventId> {
        self.events
            .iter()
            .filter(|e| e.layer.is_lowermost())
            .map(|e| e.id)
            .collect()
    }

    /// The per-process trace files of §5.1: events grouped by process,
    /// preserving chronological order — what Recorder/strace would have
    /// produced, one file per process.
    pub fn per_process(&self) -> Vec<(Process, Vec<EventId>)> {
        let mut procs: Vec<Process> = self.events.iter().map(|e| e.proc).collect();
        procs.sort();
        procs.dedup();
        procs
            .into_iter()
            .map(|p| {
                (
                    p,
                    self.events
                        .iter()
                        .filter(|e| e.proc == p)
                        .map(|e| e.id)
                        .collect(),
                )
            })
            .collect()
    }

    /// Render the whole trace, one `#id [layer] proc call <object>` line
    /// per event: the Figure 9 listing and what `--dump-trace` writes.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for e in &self.events {
            out.push_str(&format!("#{:<4} {}\n", e.id, e.render()));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn call(name: &str) -> Payload {
        Payload::Call {
            name: name.into(),
            args: vec![],
        }
    }

    #[test]
    fn record_assigns_sequential_ids() {
        let mut r = Recorder::new();
        let a = r.record(Layer::App, Process::Client(0), call("open"), None);
        let b = r.record(Layer::App, Process::Client(0), call("close"), Some(a));
        assert_eq!((a, b), (0, 1));
        assert_eq!(r.event(b).parent, Some(a));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn layer_projection_and_lowermost() {
        let mut r = Recorder::new();
        r.record(Layer::App, Process::Client(0), call("x"), None);
        let fs = r.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Creat { path: "/f".into() },
            },
            None,
        );
        let blk = r.record(
            Layer::Block,
            Process::Server(1),
            Payload::Block {
                server: 1,
                op: BlockOp::SyncCache,
            },
            None,
        );
        assert_eq!(r.layer_events(Layer::App), vec![0]);
        assert_eq!(r.lowermost_events(), vec![fs, blk]);
        assert!(r.event(fs).payload.is_storage_update());
        assert!(!r.event(blk).payload.is_storage_update());
        assert!(r.event(blk).payload.is_storage_sync());
    }

    #[test]
    fn per_process_groups_in_order() {
        let mut r = Recorder::new();
        r.record(Layer::App, Process::Client(1), call("a"), None);
        r.record(Layer::App, Process::Client(0), call("b"), None);
        r.record(Layer::App, Process::Client(1), call("c"), None);
        let groups = r.per_process();
        assert_eq!(groups.len(), 2);
        assert_eq!(groups[0].0, Process::Client(0));
        assert_eq!(groups[0].1, vec![1]);
        assert_eq!(groups[1].1, vec![0, 2]);
    }

    #[test]
    fn labels_render() {
        let mut r = Recorder::new();
        let id = r.record_labeled(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Creat { path: "/c0".into() },
            },
            None,
            "btree",
        );
        assert!(r.event(id).render().contains("<btree>"));
        assert!(r.render().contains("creat(/c0)"));
    }
}
