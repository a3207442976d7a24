//! RPC tracing helper.
//!
//! Every client↔server interaction in the PFS models goes through
//! [`RpcNet`], which records the `sendto` / `recvfrom` event pair and the
//! sender→receiver causality edge — exactly the information ParaCrash
//! extracts from strace'd socket calls to "order the client events with
//! respect to the server events" (§4.2).

use tracer::{EventId, Layer, Payload, Process, Recorder};

/// Synchronous RPC recorder over a shared [`Recorder`].
///
/// RPCs are delivered immediately (the simulation is synchronous); what
/// matters for crash consistency is only the causal edge, not timing.
pub struct RpcNet<'r> {
    rec: &'r mut Recorder,
}

fn layer_of(p: Process) -> Layer {
    match p {
        Process::Client(_) => Layer::PfsClient,
        Process::Server(_) => Layer::PfsServer,
    }
}

impl<'r> RpcNet<'r> {
    /// Wrap a recorder.
    pub fn new(rec: &'r mut Recorder) -> Self {
        RpcNet { rec }
    }

    /// Access the underlying recorder.
    pub fn recorder(&mut self) -> &mut Recorder {
        self.rec
    }

    /// Record a one-way message `from → to`; returns `(send_id, recv_id)`.
    ///
    /// `parent` is the upper-layer call on the sending side that issued
    /// the message (caller–callee edge).
    pub fn message(
        &mut self,
        from: Process,
        to: Process,
        msg: &str,
        parent: Option<EventId>,
    ) -> (EventId, EventId) {
        // The rpc span ties each delivery to the ambient causal trace
        // id, so a Chrome-trace export groups the RPC flow under the
        // workload cell that caused it (one pid lane per check).
        let _rpc_span = pc_rt::obs::span_cat("rpc.message", "rpc");
        pc_rt::obs::count("rpc.messages", 1);
        pc_rt::pc_debug!("rpc {from:?} -> {to:?}: {msg}");
        let send = self.rec.record(
            layer_of(from),
            from,
            Payload::Send {
                to,
                msg: msg.to_string(),
            },
            parent,
        );
        // The recv's parent is the matching send: sender–receiver pairs
        // are both causal edges and caller–callee links (the ancestor
        // walk that associates server work with the client call that
        // caused it goes through them).
        let recv = self.rec.record(
            layer_of(to),
            to,
            Payload::Recv {
                from,
                msg: msg.to_string(),
            },
            Some(send),
        );
        (send, recv)
    }

    /// Record a request/..../reply round trip skeleton: request message
    /// now; call [`RpcNet::reply`] for the reply after recording the
    /// server-side work so the reply's send happens after it both in
    /// program order and via the caller edge.
    pub fn request(
        &mut self,
        client: Process,
        server: Process,
        msg: &str,
        parent: Option<EventId>,
    ) -> (EventId, EventId) {
        self.message(client, server, msg, parent)
    }

    /// Record the reply leg of a round trip. `parent` is the server-side
    /// work event that produced the reply, so the reply send is causally
    /// ordered after it (not just by same-process program order).
    pub fn reply(
        &mut self,
        server: Process,
        client: Process,
        msg: &str,
        parent: Option<EventId>,
    ) -> (EventId, EventId) {
        self.message(server, client, msg, parent)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tracer::CausalityGraph;

    #[test]
    fn round_trip_orders_client_and_server_work() {
        let mut rec = Recorder::new();
        let client = Process::Client(0);
        let server = Process::Server(0);
        let call = rec.record(
            Layer::PfsClient,
            client,
            Payload::Call {
                name: "creat".into(),
                args: vec!["/mnt/foo".into()],
            },
            None,
        );
        let mut net = RpcNet::new(&mut rec);
        let (_, recv) = net.request(client, server, "CREAT foo", Some(call));
        // Server-side local-FS work after receiving the request.
        let work = net.recorder().record(
            Layer::LocalFs,
            server,
            Payload::Fs {
                server: 0,
                op: simfs::FsOp::Creat {
                    path: "/meta/dentries/foo".into(),
                },
            },
            Some(recv),
        );
        let mut net = RpcNet::new(&mut rec);
        let (_, ack) = net.reply(server, client, "OK", Some(work));
        // Client continues after the ack.
        let after = rec.record(
            Layer::PfsClient,
            client,
            Payload::Call {
                name: "close".into(),
                args: vec![],
            },
            None,
        );
        let g = CausalityGraph::build(&rec);
        assert!(g.happens_before(call, work));
        assert!(g.happens_before(work, ack));
        assert!(g.happens_before(work, after));
    }

    /// Regression: `reply` must thread the server-side work's event id
    /// as the reply send's parent. Historically it hardcoded `None`, so
    /// the work→ack ordering held only through same-process program
    /// order — which evaporates for work recorded on a *different*
    /// server process than the replying one (e.g. a metadata server
    /// acking on behalf of forwarded storage work).
    #[test]
    fn reply_carries_the_causal_parent_across_processes() {
        let mut rec = Recorder::new();
        let client = Process::Client(0);
        let meta = Process::Server(0);
        let storage = Process::Server(1);
        let mut net = RpcNet::new(&mut rec);
        let (_, recv) = net.request(client, meta, "WRITE", None);
        let (_, fwd_recv) = net.message(meta, storage, "FWD WRITE", Some(recv));
        let work = net.recorder().record(
            Layer::LocalFs,
            storage,
            Payload::Fs {
                server: 1,
                op: simfs::FsOp::Creat {
                    path: "/chunk".into(),
                },
            },
            Some(fwd_recv),
        );
        // The *metadata* server replies after the storage-side work.
        let mut net = RpcNet::new(&mut rec);
        let (ack_send, _) = net.reply(meta, client, "OK", Some(work));
        assert_eq!(rec.event(ack_send).parent, Some(work));
        let g = CausalityGraph::build(&rec);
        assert!(
            g.happens_before(work, ack_send),
            "reply must be ordered after the work that produced it"
        );
    }

    #[test]
    fn two_servers_stay_concurrent_without_messages() {
        let mut rec = Recorder::new();
        let a = rec.record(
            Layer::LocalFs,
            Process::Server(0),
            Payload::Fs {
                server: 0,
                op: simfs::FsOp::Creat { path: "/a".into() },
            },
            None,
        );
        let b = rec.record(
            Layer::LocalFs,
            Process::Server(1),
            Payload::Fs {
                server: 1,
                op: simfs::FsOp::Creat { path: "/b".into() },
            },
            None,
        );
        let g = CausalityGraph::build(&rec);
        assert!(g.concurrent(a, b));
    }
}
