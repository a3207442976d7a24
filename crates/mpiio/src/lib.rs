#![warn(missing_docs)]

//! # mpiio — simulated MPI-IO middleware
//!
//! The MPI-IO layer (MPICH 3.0.4 in the paper's stack, Table 2) sits
//! between the parallel I/O library and the PFS. For crash-consistency
//! analysis its essential contributions are (§4.2):
//!
//! * translating `MPI_File_*` calls into PFS client calls (open → creat,
//!   `MPI_File_write_at` → `pwrite` at an explicit offset — Figure 4);
//! * establishing **happens-before edges between ranks** through
//!   synchronization: `MPI_Barrier`, point-to-point send/recv, and the
//!   implicit synchronization of collective calls.
//!
//! Every MPI call is traced at [`Layer::MpiIo`] with a caller–callee link
//! to the I/O-library call above it and to the PFS client calls below.
//!
//! Besides the hand-written workloads, this layer is driven by the
//! fuzzer's generated MPI-IO call sequences (`workloads::generated`,
//! DESIGN.md §11): short bounded `write_at`/`sync`/`barrier`/`close`
//! programs enumerated exhaustively and replayed through the same
//! [`MpiIo`] adapter the fixed programs use.

use pfs::{ClientTrace, Pfs, PfsCall};
use tracer::{EventId, Layer, Payload, Process, Recorder};

/// The MPI-IO layer bound to a PFS instance and a trace recorder.
///
/// One `MpiIo` value represents the whole communicator; rank identity is
/// passed per call (the simulation interleaves ranks deterministically).
pub struct MpiIo<'a> {
    pfs: &'a mut dyn Pfs,
    rec: &'a mut Recorder,
    /// PFS-level calls recorded for preserved-set replay.
    trace: &'a mut ClientTrace,
}

impl<'a> MpiIo<'a> {
    /// Bind the layer to a PFS, a recorder and a PFS-call trace.
    pub fn new(pfs: &'a mut dyn Pfs, rec: &'a mut Recorder, trace: &'a mut ClientTrace) -> Self {
        MpiIo { pfs, rec, trace }
    }

    /// Access the underlying recorder.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.rec
    }

    fn mpi_event(
        &mut self,
        rank: u32,
        name: &str,
        args: Vec<String>,
        parent: Option<EventId>,
    ) -> EventId {
        self.rec.record(
            Layer::MpiIo,
            Process::Client(rank),
            Payload::Call {
                name: name.into(),
                args,
            },
            parent,
        )
    }

    fn dispatch(&mut self, rank: u32, call: PfsCall, parent: EventId) -> EventId {
        // MPI-IO only issues calls against files it opened itself, so a
        // dispatch error here is a broken replay, not bad user input. The
        // checker runs replays under catch_unwind and reports the panic as
        // a diagnostic.
        let ev = self
            .pfs
            .dispatch(self.rec, Process::Client(rank), &call, Some(parent))
            .unwrap_or_else(|e| panic!("MPI-IO dispatch of {}: {e}", call.name()));
        self.trace.push(ev, Process::Client(rank), call);
        ev
    }

    /// `MPI_File_open` — collective. With `create`, rank 0 performs the
    /// PFS create; all ranks then synchronize (collective semantics).
    pub fn file_open(
        &mut self,
        ranks: &[u32],
        path: &str,
        create: bool,
        parent: Option<EventId>,
    ) -> EventId {
        let mut events = Vec::new();
        for &r in ranks {
            let mode = if create { "MODE_CREATE" } else { "MODE_RDWR" };
            events.push(self.mpi_event(r, "MPI_File_open", vec![path.into(), mode.into()], parent));
        }
        if create {
            self.dispatch(ranks[0], PfsCall::Creat { path: path.into() }, events[0]);
        }
        self.sync_edges(&events);
        events[0]
    }

    /// `MPI_File_write_at` from one rank.
    pub fn file_write_at(
        &mut self,
        rank: u32,
        path: &str,
        offset: u64,
        data: &[u8],
        parent: Option<EventId>,
    ) -> EventId {
        let ev = self.mpi_event(
            rank,
            "MPI_File_write_at",
            vec![
                path.into(),
                offset.to_string(),
                format!("len={}", data.len()),
            ],
            parent,
        );
        self.dispatch(
            rank,
            PfsCall::Pwrite {
                path: path.into(),
                offset,
                data: data.to_vec(),
            },
            ev,
        );
        ev
    }

    /// `MPI_File_sync` from one rank.
    pub fn file_sync(&mut self, rank: u32, path: &str, parent: Option<EventId>) -> EventId {
        let ev = self.mpi_event(rank, "MPI_File_sync", vec![path.into()], parent);
        self.dispatch(rank, PfsCall::Fsync { path: path.into() }, ev);
        ev
    }

    /// `MPI_File_close` — collective; rank 0 performs the PFS close.
    pub fn file_close(&mut self, ranks: &[u32], path: &str, parent: Option<EventId>) -> EventId {
        let mut events = Vec::new();
        for &r in ranks {
            events.push(self.mpi_event(r, "MPI_File_close", vec![path.into()], parent));
        }
        self.dispatch(ranks[0], PfsCall::Close { path: path.into() }, events[0]);
        self.sync_edges(&events);
        events[0]
    }

    /// `MPI_Barrier`: all-to-all happens-before among the participants.
    pub fn barrier(&mut self, ranks: &[u32], parent: Option<EventId>) -> Vec<EventId> {
        let enters: Vec<EventId> = ranks
            .iter()
            .map(|&r| {
                self.rec.record(
                    Layer::MpiIo,
                    Process::Client(r),
                    Payload::Sync {
                        name: "MPI_Barrier".into(),
                    },
                    parent,
                )
            })
            .collect();
        let exits: Vec<EventId> = ranks
            .iter()
            .map(|&r| {
                self.rec.record(
                    Layer::MpiIo,
                    Process::Client(r),
                    Payload::Sync {
                        name: "MPI_Barrier_exit".into(),
                    },
                    None,
                )
            })
            .collect();
        for &e in &enters {
            for &x in &exits {
                self.rec.add_edge(e, x);
            }
        }
        exits
    }

    /// Collective synchronization: every listed event happens before a
    /// shared completion point (modelled as mutual edges).
    fn sync_edges(&mut self, events: &[EventId]) {
        if events.len() < 2 {
            return;
        }
        // All-to-all via the earliest event as hub exit would create
        // backward edges; instead add a fresh completion event per rank.
        let exits: Vec<EventId> = events
            .iter()
            .map(|&e| {
                let proc = self.rec.event(e).proc;
                self.rec.record(
                    Layer::MpiIo,
                    proc,
                    Payload::Sync {
                        name: "collective_complete".into(),
                    },
                    None,
                )
            })
            .collect();
        for &e in events {
            for &x in &exits {
                self.rec.add_edge(e, x);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pfs::beegfs::BeeGfs;
    use tracer::CausalityGraph;

    #[test]
    fn write_at_lowers_to_pfs_pwrite() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        mpi.file_open(&[0, 1], "/out.h5", true, None);
        mpi.file_write_at(0, "/out.h5", 0, b"head", None);
        mpi.file_close(&[0, 1], "/out.h5", None);
        assert!(trace
            .entries()
            .iter()
            .any(|(_, _, c)| matches!(c, PfsCall::Pwrite { offset: 0, .. })));
        let view = fs.client_view(fs.live());
        assert_eq!(view.read("/out.h5"), Some(&b"head"[..]));
    }

    #[test]
    fn barrier_orders_cross_rank_writes() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        mpi.file_open(&[0, 1], "/f", true, None);
        let w0 = mpi.file_write_at(0, "/f", 0, b"a", None);
        mpi.barrier(&[0, 1], None);
        let w1 = mpi.file_write_at(1, "/f", 1, b"b", None);
        let g = CausalityGraph::build(&rec);
        assert!(
            g.happens_before(w0, w1),
            "barrier must order rank 0 before rank 1"
        );
    }

    #[test]
    fn concurrent_writes_without_barrier() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        mpi.file_open(&[0, 1], "/f", true, None);
        let w0 = mpi.file_write_at(0, "/f", 0, b"a", None);
        let w1 = mpi.file_write_at(1, "/f", 1, b"b", None);
        let g = CausalityGraph::build(&rec);
        // Both causally follow the collective open, but not each other.
        assert!(g.concurrent(w0, w1));
    }

    #[test]
    fn collective_open_synchronizes_all_ranks() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        let open_ev = mpi.file_open(&[0, 1, 2], "/f", true, None);
        let w2 = mpi.file_write_at(2, "/f", 0, b"z", None);
        let g = CausalityGraph::build(&rec);
        // Rank 2's write follows the collective open (and hence rank 0's
        // create) even though rank 2 issued no create itself.
        assert!(g.happens_before(open_ev, w2));
    }

    #[test]
    fn reopen_without_create_issues_no_pfs_calls() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        {
            let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
            mpi.file_open(&[0, 1], "/pre", true, None);
        }
        let before = trace.len();
        {
            let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
            mpi.file_open(&[0, 1], "/pre", false, None);
        }
        assert_eq!(trace.len(), before, "reopen must not create");
    }

    #[test]
    fn collective_close_follows_every_rank() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        mpi.file_open(&[0, 1], "/f", true, None);
        let w1 = mpi.file_write_at(1, "/f", 0, b"a", None);
        mpi.file_close(&[0, 1], "/f", None);
        // Anything rank 0 does after the collective close is causally
        // after rank 1's pre-close write.
        let after = mpi.file_write_at(0, "/f", 1, b"b", None);
        let g = CausalityGraph::build(&rec);
        assert!(g.happens_before(w1, after));
    }

    #[test]
    fn barriers_chain_transitively() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        mpi.file_open(&[0, 1, 2], "/f", true, None);
        let w0 = mpi.file_write_at(0, "/f", 0, b"a", None);
        mpi.barrier(&[0, 1], None);
        let w1 = mpi.file_write_at(1, "/f", 1, b"b", None);
        mpi.barrier(&[1, 2], None);
        let w2 = mpi.file_write_at(2, "/f", 2, b"c", None);
        let g = CausalityGraph::build(&rec);
        assert!(g.happens_before(w0, w1));
        assert!(g.happens_before(w1, w2));
        assert!(g.happens_before(w0, w2), "barrier chains compose");
    }

    #[test]
    fn file_sync_lowers_to_pfs_fsync() {
        let mut fs = BeeGfs::paper_default();
        let mut rec = Recorder::new();
        let mut trace = ClientTrace::new();
        let mut mpi = MpiIo::new(&mut fs, &mut rec, &mut trace);
        mpi.file_open(&[0], "/f", true, None);
        mpi.file_write_at(0, "/f", 0, b"x", None);
        mpi.file_sync(0, "/f", None);
        assert!(rec.events().iter().any(|e| e.payload.is_storage_sync()));
    }
}
