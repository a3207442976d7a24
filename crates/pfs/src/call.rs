//! Client-level PFS calls — the "PFS operations" layer of the stack.
//!
//! These are the POSIX-style calls a test program (or the MPI-IO layer)
//! issues against the PFS mount point. ParaCrash generates *legal* PFS
//! states by replaying preserved subsets of exactly these calls on a
//! pristine stack (§4.4.2), so each call must be self-contained and
//! replayable.

use tracer::{EventId, Process};

/// One client call against the PFS mount point.
///
/// Variant fields are self-describing POSIX call arguments.
#[allow(missing_docs)]
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum PfsCall {
    /// `creat(path)`.
    Creat { path: String },
    /// `mkdir(path)`.
    Mkdir { path: String },
    /// `pwrite(path, offset, data)`.
    Pwrite {
        path: String,
        offset: u64,
        data: Vec<u8>,
    },
    /// `rename(src, dst)`.
    Rename { src: String, dst: String },
    /// `unlink(path)`.
    Unlink { path: String },
    /// `rmdir(path)`.
    Rmdir { path: String },
    /// `close(path)` — releases the handle; several PFSs flush here.
    Close { path: String },
    /// `fsync(path)` — explicit commit of one file.
    Fsync { path: String },
}

impl PfsCall {
    /// Call name as it appears in traces.
    pub fn name(&self) -> &'static str {
        match self {
            PfsCall::Creat { .. } => "creat",
            PfsCall::Mkdir { .. } => "mkdir",
            PfsCall::Pwrite { .. } => "pwrite",
            PfsCall::Rename { .. } => "rename",
            PfsCall::Unlink { .. } => "unlink",
            PfsCall::Rmdir { .. } => "rmdir",
            PfsCall::Close { .. } => "close",
            PfsCall::Fsync { .. } => "fsync",
        }
    }

    /// Render arguments for the trace event.
    pub fn args(&self) -> Vec<String> {
        match self {
            PfsCall::Creat { path }
            | PfsCall::Mkdir { path }
            | PfsCall::Unlink { path }
            | PfsCall::Rmdir { path }
            | PfsCall::Close { path }
            | PfsCall::Fsync { path } => vec![path.clone()],
            PfsCall::Pwrite { path, offset, data } => {
                vec![
                    path.clone(),
                    offset.to_string(),
                    format!("len={}", data.len()),
                ]
            }
            PfsCall::Rename { src, dst } => vec![src.clone(), dst.clone()],
        }
    }

    /// `true` for calls that change the namespace (several PFSs — notably
    /// Lustre — flush aggregated file data at these points).
    pub fn is_namespace_op(&self) -> bool {
        !matches!(self, PfsCall::Pwrite { .. } | PfsCall::Fsync { .. })
    }

    /// `true` for calls that persist nothing themselves.
    pub fn is_sync(&self) -> bool {
        matches!(self, PfsCall::Fsync { .. } | PfsCall::Close { .. })
    }

    /// The file the call primarily affects.
    pub fn primary_path(&self) -> &str {
        match self {
            PfsCall::Creat { path }
            | PfsCall::Mkdir { path }
            | PfsCall::Pwrite { path, .. }
            | PfsCall::Unlink { path }
            | PfsCall::Rmdir { path }
            | PfsCall::Close { path }
            | PfsCall::Fsync { path } => path,
            PfsCall::Rename { src, .. } => src,
        }
    }
}

/// The layer-level trace of a test program run: who issued which call
/// (`W`: the client process, or the rank at the I/O-library layer), and
/// the trace event id of the call. The consistency checker projects
/// preserved sets out of this. Calls are recorded as they are issued,
/// so entries are in ascending event-id order — what [`get`](Self::get)
/// and [`subset`](Self::subset) search by.
#[derive(Debug, Clone)]
pub struct CallTrace<W, C> {
    entries: Vec<(EventId, W, C)>,
}

/// The PFS-level trace: client processes and their [`PfsCall`]s.
pub type ClientTrace = CallTrace<Process, PfsCall>;

impl<W, C> Default for CallTrace<W, C> {
    fn default() -> Self {
        CallTrace {
            entries: Vec::new(),
        }
    }
}

impl<W: Copy, C: Clone> CallTrace<W, C> {
    /// Empty trace.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one issued call (`event` is its trace event).
    pub fn push(&mut self, event: EventId, who: W, call: C) {
        debug_assert!(self.entries.last().is_none_or(|(last, _, _)| *last < event));
        self.entries.push((event, who, call));
    }

    /// All entries in issue order.
    pub fn entries(&self) -> &[(EventId, W, C)] {
        &self.entries
    }

    /// Number of calls.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// `true` if no calls were recorded.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The call recorded as event `id`, borrowed (a `Pwrite` keeps its
    /// payload where it is).
    pub fn get(&self, id: EventId) -> Option<(W, &C)> {
        let at = self
            .entries
            .binary_search_by_key(&id, |(e, _, _)| *e)
            .ok()?;
        let (_, who, call) = &self.entries[at];
        Some((*who, call))
    }

    /// The calls whose event ids are in `ids`, in issue order: one merge
    /// over the two id-sorted sequences.
    pub fn subset(&self, ids: &[EventId]) -> Vec<(W, C)> {
        let mut ids = ids.to_vec();
        ids.sort_unstable();
        let mut ids = ids.into_iter().peekable();
        let mut out = Vec::new();
        for (e, who, call) in &self.entries {
            while ids.next_if(|id| id < e).is_some() {}
            if ids.peek() == Some(e) {
                out.push((*who, call.clone()));
            }
        }
        out
    }

    /// Event ids of all calls.
    pub fn event_ids(&self) -> Vec<EventId> {
        self.entries.iter().map(|(e, _, _)| *e).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn call_metadata() {
        let w = PfsCall::Pwrite {
            path: "/foo".into(),
            offset: 8,
            data: vec![0; 3],
        };
        assert_eq!(w.name(), "pwrite");
        assert_eq!(w.args(), vec!["/foo", "8", "len=3"]);
        assert!(!w.is_namespace_op());
        assert!(PfsCall::Creat { path: "/x".into() }.is_namespace_op());
        assert!(PfsCall::Fsync { path: "/x".into() }.is_sync());
        assert_eq!(
            PfsCall::Rename {
                src: "/a".into(),
                dst: "/b".into()
            }
            .primary_path(),
            "/a"
        );
    }

    #[test]
    fn trace_subset_preserves_order() {
        let mut t = ClientTrace::new();
        let c = Process::Client(0);
        t.push(10, c, PfsCall::Creat { path: "/a".into() });
        t.push(20, c, PfsCall::Creat { path: "/b".into() });
        t.push(30, c, PfsCall::Unlink { path: "/a".into() });
        let sub = t.subset(&[30, 10]);
        assert_eq!(sub.len(), 2);
        assert_eq!(sub[0].1, PfsCall::Creat { path: "/a".into() });
        assert_eq!(sub[1].1, PfsCall::Unlink { path: "/a".into() });
        assert_eq!(t.event_ids(), vec![10, 20, 30]);
        // Ids the trace never recorded, and repeated ones, select nothing more.
        assert_eq!(t.subset(&[5, 20, 20, 25, 99]).len(), 1);
        assert_eq!(t.get(20).unwrap().1, &PfsCall::Creat { path: "/b".into() });
        assert!(t.get(25).is_none());
    }
}
