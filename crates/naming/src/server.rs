//! Network-facing naming server with transaction participation.
//!
//! `NameCreate`/`NameRemove` issued inside a transaction apply immediately
//! but stage an undo in the journal; abort reverses them, which is how the
//! checkpoint's name creation joins the same two-phase commit as the data
//! dumps (§4, Figure 8 line 9–11).

use std::sync::Arc;

use lwfs_portals::{spawn_service, Endpoint, Network, Service, ServiceHandle};
use lwfs_proto::{ContainerId, Error, ObjId, ProcessId, ReplyBody, Request, RequestBody};
use lwfs_txn::JournalStore;

use crate::namespace::Namespace;

enum NameUndo {
    /// A create is undone by removing the binding.
    Unbind(String),
    /// A remove is undone by restoring the binding.
    Rebind(String, ContainerId, ObjId),
}

/// The naming service.
pub struct NamingServer {
    namespace: Arc<Namespace>,
    journal: JournalStore<NameUndo>,
}

impl NamingServer {
    /// Spawn at `id`; returns the handle and the shared namespace.
    pub fn spawn(net: &Network, id: ProcessId) -> (ServiceHandle, Arc<Namespace>) {
        let namespace = Arc::new(Namespace::new());
        let svc = NamingServer { namespace: Arc::clone(&namespace), journal: JournalStore::new() };
        (spawn_service(net, id, svc), namespace)
    }
}

/// The `component.op` label a naming request is traced under.
fn op_label(body: &RequestBody) -> &'static str {
    match body {
        RequestBody::NameCreate { .. } => "naming.create",
        RequestBody::NameLookup { .. } => "naming.lookup",
        RequestBody::NameRemove { .. } => "naming.remove",
        RequestBody::NameList { .. } => "naming.list",
        RequestBody::TxnPrepare { .. }
        | RequestBody::TxnCommit { .. }
        | RequestBody::TxnAbort { .. } => "naming.txn",
        _ => "naming.other",
    }
}

impl Service for NamingServer {
    fn handle(&mut self, ep: &Endpoint, req: &Request) -> ReplyBody {
        let obs = ep.obs();
        obs.counter("naming.ops").inc();
        // The trace records a span + `naming.<op>.total_ns` latency sample
        // on drop, keyed by the request id threaded through the wire.
        let _trace = obs.trace(req.req_id, op_label(&req.body));
        self.dispatch(req)
    }
}

impl NamingServer {
    fn dispatch(&mut self, req: &Request) -> ReplyBody {
        match &req.body {
            RequestBody::NameCreate { txn, path, container, obj } => {
                match self.namespace.create(path, *container, *obj) {
                    Ok(()) => {
                        if let Some(txn) = txn {
                            if let Err(e) = self.journal.stage(*txn, NameUndo::Unbind(path.clone()))
                            {
                                // Could not journal: undo the visible effect
                                // so the failure is atomic.
                                let _ = self.namespace.remove(path);
                                return ReplyBody::Err(e);
                            }
                        }
                        ReplyBody::NameCreated
                    }
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::NameLookup { path } => match self.namespace.lookup(path) {
                Ok((container, obj)) => ReplyBody::NameObj { container, obj },
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::NameRemove { txn, path } => match self.namespace.remove(path) {
                Ok((container, obj)) => {
                    if let Some(txn) = txn {
                        if let Err(e) =
                            self.journal.stage(*txn, NameUndo::Rebind(path.clone(), container, obj))
                        {
                            let _ = self.namespace.create(path, container, obj);
                            return ReplyBody::Err(e);
                        }
                    }
                    ReplyBody::NameRemoved
                }
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::NameList { prefix } => match self.namespace.list(prefix) {
                Ok(names) => ReplyBody::Names(names),
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::TxnPrepare { txn } => ReplyBody::TxnVote(self.journal.prepare(*txn)),
            RequestBody::TxnCommit { txn } => match self.journal.commit(*txn) {
                Ok(_) => ReplyBody::TxnCommitted,
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::TxnAbort { txn } => {
                for undo in self.journal.abort(*txn).into_iter().rev() {
                    match undo {
                        NameUndo::Unbind(path) => {
                            let _ = self.namespace.remove(&path);
                        }
                        NameUndo::Rebind(path, container, obj) => {
                            let _ = self.namespace.create(&path, container, obj);
                        }
                    }
                }
                ReplyBody::TxnAborted
            }
            RequestBody::Ping => ReplyBody::Pong,
            other => {
                ReplyBody::Err(Error::Malformed(format!("naming service cannot handle {other:?}")))
            }
        }
    }
}

#[cfg(test)]
mod obs_tests {
    use super::*;
    use lwfs_portals::RpcClient;

    #[test]
    fn naming_ops_feed_fabric_registry() {
        let net = Network::default();
        let (handle, _ns) = NamingServer::spawn(&net, ProcessId::new(102, 0));
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        client
            .call(
                handle.id(),
                RequestBody::NameCreate {
                    txn: None,
                    path: "/obs/a".into(),
                    container: ContainerId(1),
                    obj: ObjId(1),
                },
            )
            .unwrap();
        client.call(handle.id(), RequestBody::NameLookup { path: "/obs/a".into() }).unwrap();
        handle.shutdown();
        let frame = net.obs().frame(0);
        assert_eq!(frame.counter("naming.ops"), Some(2));
        assert_eq!(frame.histogram("naming.create.total_ns").map(|h| h.count), Some(1));
        assert_eq!(frame.histogram("naming.lookup.total_ns").map(|h| h.count), Some(1));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_portals::RpcClient;
    use lwfs_proto::TxnId;

    fn boot() -> (Network, ServiceHandle, Arc<Namespace>) {
        let net = Network::default();
        let (handle, ns) = NamingServer::spawn(&net, ProcessId::new(102, 0));
        (net, handle, ns)
    }

    #[test]
    fn bind_lookup_list_remove_over_rpc() {
        let (net, handle, _ns) = boot();
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let srv = handle.id();

        assert_eq!(
            client
                .call(
                    srv,
                    RequestBody::NameCreate {
                        txn: None,
                        path: "/ckpt/1".into(),
                        container: ContainerId(3),
                        obj: ObjId(9),
                    },
                )
                .unwrap(),
            ReplyBody::NameCreated
        );
        assert_eq!(
            client.call(srv, RequestBody::NameLookup { path: "/ckpt/1".into() }).unwrap(),
            ReplyBody::NameObj { container: ContainerId(3), obj: ObjId(9) }
        );
        assert_eq!(
            client.call(srv, RequestBody::NameList { prefix: "/ckpt".into() }).unwrap(),
            ReplyBody::Names(vec!["/ckpt/1".into()])
        );
        assert_eq!(
            client
                .call(srv, RequestBody::NameRemove { txn: None, path: "/ckpt/1".into() })
                .unwrap(),
            ReplyBody::NameRemoved
        );
        assert_eq!(
            client.call(srv, RequestBody::NameLookup { path: "/ckpt/1".into() }).unwrap_err(),
            Error::NoSuchName
        );
        handle.shutdown();
    }

    #[test]
    fn txn_abort_unbinds() {
        let (net, handle, ns) = boot();
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let srv = handle.id();
        let txn = TxnId(1);

        client
            .call(
                srv,
                RequestBody::NameCreate {
                    txn: Some(txn),
                    path: "/ckpt/doomed".into(),
                    container: ContainerId(1),
                    obj: ObjId(1),
                },
            )
            .unwrap();
        assert_eq!(ns.len(), 1);
        client.call(srv, RequestBody::TxnAbort { txn }).unwrap();
        assert_eq!(ns.len(), 0, "aborted name must vanish");
        handle.shutdown();
    }

    #[test]
    fn txn_abort_rebinds_removed_names() {
        let (net, handle, ns) = boot();
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let srv = handle.id();
        let txn = TxnId(2);

        ns.create("/keep", ContainerId(5), ObjId(6)).unwrap();
        client.call(srv, RequestBody::NameRemove { txn: Some(txn), path: "/keep".into() }).unwrap();
        assert!(ns.lookup("/keep").is_err());
        client.call(srv, RequestBody::TxnAbort { txn }).unwrap();
        assert_eq!(ns.lookup("/keep").unwrap(), (ContainerId(5), ObjId(6)));
        handle.shutdown();
    }

    #[test]
    fn txn_commit_keeps_names() {
        let (net, handle, ns) = boot();
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let srv = handle.id();
        let txn = TxnId(3);

        client
            .call(
                srv,
                RequestBody::NameCreate {
                    txn: Some(txn),
                    path: "/ckpt/kept".into(),
                    container: ContainerId(1),
                    obj: ObjId(1),
                },
            )
            .unwrap();
        assert_eq!(
            client.call(srv, RequestBody::TxnPrepare { txn }).unwrap(),
            ReplyBody::TxnVote(true)
        );
        assert_eq!(
            client.call(srv, RequestBody::TxnCommit { txn }).unwrap(),
            ReplyBody::TxnCommitted
        );
        assert_eq!(ns.lookup("/ckpt/kept").unwrap(), (ContainerId(1), ObjId(1)));
        handle.shutdown();
    }
}
