//! Operation signatures and bug-report rendering in the paper's
//! Table 3 notation (`op(structure)@server-role`, `A → B` for ordering,
//! `[A, B]` for atomicity).

use simfs::BlockOp;
use simnet::{ClusterTopology, ServerRole};
use tracer::{EventId, Payload, Recorder};

/// The semantic object a trace event updates, if any — resolved by
/// walking the caller chain up to the nearest labelled ancestor (the
/// I/O-library layer labels its structure writes).
pub fn object_of(rec: &Recorder, e: EventId) -> Option<String> {
    let mut cur = Some(e);
    while let Some(id) = cur {
        let ev = rec.event(id);
        if let Some(obj) = &ev.object {
            return Some(obj.clone());
        }
        cur = ev.parent;
    }
    None
}

/// Strip the instance suffix from an object label:
/// `"local heap of g1"` → `"local heap"`, so that equivalent bugs on
/// different groups aggregate (§5.2).
pub fn normalize_object(label: &str) -> String {
    match label.find(" of ") {
        Some(i) => label[..i].to_string(),
        None => label.to_string(),
    }
}

/// Map a server-local path to the PFS structure kind it implements —
/// the vocabulary of Table 3's "Details" column. Delegates to
/// [`pfs::label::structure_kind`], the canonical label table for all
/// five models (kept there so the labels stay with the models that
/// define the namespaces).
pub fn path_kind(path: &str) -> &'static str {
    pfs::label::structure_kind(path)
}

/// Render the role of a server for signatures.
pub fn role_name(topo: &ClusterTopology, server: u32) -> &'static str {
    match topo.role(server) {
        Some(ServerRole::Metadata) => "metadata",
        Some(ServerRole::Storage) => "storage",
        Some(ServerRole::Combined) | None => "server",
    }
}

/// Aggregation signature of one lowermost event: object-label based
/// when the I/O library labelled it, path/tag based otherwise.
pub fn op_sig(rec: &Recorder, topo: &ClusterTopology, e: EventId) -> String {
    let ev = rec.event(e);
    match &ev.payload {
        Payload::Fs { server, op } => {
            if let Some(obj) = object_of(rec, e) {
                return format!("write({})", normalize_object(&obj));
            }
            let kind = op.primary_path().map(path_kind).unwrap_or("fs");
            format!("{}({kind})@{}", op.mnemonic(), role_name(topo, *server))
        }
        Payload::Block { server, op } => {
            if let Some(obj) = object_of(rec, e) {
                return format!("write({})", normalize_object(&obj));
            }
            match op {
                BlockOp::Write { tag, .. } => {
                    let kind = pfs::label::block_structure(tag);
                    format!("write({kind})@{}", role_name(topo, *server))
                }
                BlockOp::SyncCache => format!("scsi_sync@{}", role_name(topo, *server)),
            }
        }
        _ => "non-storage".to_string(),
    }
}

/// [`op_sig`] of every storage update of a trace, rendered once per
/// check: the pruner, the classifier and the witness renderer compare
/// the same few signatures for every crash state.
pub struct OpSigs {
    /// Indexed by event id; empty for events that are not updates.
    by_event: Vec<String>,
}

impl OpSigs {
    /// Render the signature of each of `updates`.
    pub fn build(rec: &Recorder, topo: &ClusterTopology, updates: &[EventId]) -> Self {
        let mut by_event = vec![String::new(); rec.len()];
        for &u in updates {
            by_event[u] = op_sig(rec, topo, u);
        }
        OpSigs { by_event }
    }

    /// The signature of update `e`.
    pub fn get(&self, e: EventId) -> &str {
        let sig = &self.by_event[e];
        debug_assert!(!sig.is_empty(), "event {e} is not a storage update");
        sig
    }
}

/// A fully-described event for bug reports (includes the concrete path /
/// LBA and server id, like the paper's `append(file chunk of tmp)@storage`).
pub fn op_detail(rec: &Recorder, topo: &ClusterTopology, e: EventId) -> String {
    let ev = rec.event(e);
    match &ev.payload {
        Payload::Fs { server, op } => {
            format!("{}@{}#{}", op, role_name(topo, *server), server)
        }
        Payload::Block { server, op } => {
            format!("{}@{}#{}", op, role_name(topo, *server), server)
        }
        _ => ev.render(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simfs::FsOp;
    use tracer::{Layer, Process};

    #[test]
    fn path_kinds_cover_all_models() {
        assert_eq!(path_kind("/chunks/f0.0"), "file chunk");
        assert_eq!(path_kind("/idfiles/f0"), "idfile");
        assert_eq!(path_kind("/dentries/root/foo"), "d_entry");
        assert_eq!(path_kind("/db/keyval.db"), "keyval.db");
        assert_eq!(path_kind("/bstreams/h0.0"), "bstream");
        assert_eq!(path_kind("/objects/o0.0"), "object");
        assert_eq!(path_kind("/mdt/foo"), "mdt entry");
        assert_eq!(path_kind("/data/foo"), "brick entry");
        assert_eq!(path_kind("/whatever"), "file");
    }

    #[test]
    fn normalization_strips_instances() {
        assert_eq!(normalize_object("local heap of g1"), "local heap");
        assert_eq!(normalize_object("superblock"), "superblock");
        assert_eq!(
            normalize_object("B-tree node of dataset g1/d1"),
            "B-tree node"
        );
    }

    #[test]
    fn signatures_use_roles_and_labels() {
        let topo = ClusterTopology::dedicated(2, 2, 1);
        let mut rec = Recorder::new();
        let labelled = rec.record_labeled(
            Layer::LocalFs,
            Process::Server(2),
            Payload::Fs {
                server: 2,
                op: FsOp::Append {
                    path: "/chunks/f0.0".into(),
                    data: vec![1],
                },
            },
            None,
            "data chunks of g1/d1",
        );
        let plain = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Rename {
                    src: "/dentries/root/tmp".into(),
                    dst: "/dentries/root/file".into(),
                },
            },
            None,
        );
        assert_eq!(op_sig(&rec, &topo, labelled), "write(data chunks)");
        assert_eq!(op_sig(&rec, &topo, plain), "rename(d_entry)@metadata");
        assert!(op_detail(&rec, &topo, plain).contains("@metadata#0"));
    }

    #[test]
    fn labels_inherit_through_parents() {
        let topo = ClusterTopology::combined(2, 1);
        let mut rec = Recorder::new();
        let top = rec.record_labeled(
            Layer::IoLib,
            Process::Client(0),
            Payload::Call {
                name: "H5Dcreate".into(),
                args: vec![],
            },
            None,
            "symbol table node of g1",
        );
        let low = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: FsOp::Pwrite {
                    path: "/data/f.h5".into(),
                    offset: 0,
                    data: vec![0],
                },
            },
            Some(top),
        );
        assert_eq!(
            object_of(&rec, low).as_deref(),
            Some("symbol table node of g1")
        );
        assert_eq!(op_sig(&rec, &topo, low), "write(symbol table node)");
    }
}
