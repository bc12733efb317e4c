//! Threaded service runner.
//!
//! Every LWFS component (authentication, authorization, storage, naming)
//! is a process that loops on its request queue. This module factors that
//! loop: implement [`Service::handle`] and call [`spawn_service`]; the
//! handler also receives the endpoint so it can perform one-sided bulk
//! transfers (the storage server's pull/push) while processing a request.
//! The loop answers the monitoring plane's scrapes itself
//! ([`telemetry::answer`](crate::telemetry::answer)), so every service
//! serves `GetTelemetry`/`GetFlightTraces` and no handler sees them.
//! Servers with their own loop (the storage server's workers) run it on
//! a thread from [`ServiceHandle::spawn`], the same handle type, and get
//! scrapes answered at their endpoint's intake
//! ([`Network::register_with_intake`](crate::Network::register_with_intake)).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use lwfs_proto::{ProcessId, ReplyBody, Request};

use crate::endpoint::Endpoint;
use crate::network::Network;
use crate::rpc::RpcServer;

/// A request handler run by [`spawn_service`].
pub trait Service: Send + 'static {
    /// Handle one request, returning the reply body.
    ///
    /// The endpoint is available for one-sided operations against the
    /// client (server-directed data movement).
    fn handle(&mut self, ep: &Endpoint, req: &Request) -> ReplyBody;
}

/// Handle to a running service thread.
pub struct ServiceHandle {
    id: ProcessId,
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Run `body` on a thread named `name` serving `id`; `body` must
    /// return once the stop flag it is handed is raised.
    pub fn spawn(
        id: ProcessId,
        name: String,
        body: impl FnOnce(&AtomicBool) + Send + 'static,
    ) -> ServiceHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let thread = std::thread::Builder::new()
            .name(name)
            .spawn(move || body(&flag))
            .expect("spawn service thread");
        ServiceHandle { id, stop, thread: Some(thread) }
    }

    pub fn id(&self) -> ProcessId {
        self.id
    }

    /// Request shutdown and join the thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Register `id` on the network and run `svc` on a dedicated thread.
pub fn spawn_service(net: &Network, id: ProcessId, mut svc: impl Service) -> ServiceHandle {
    let ep = net.register(id);
    ServiceHandle::spawn(id, format!("lwfs-svc-{id}"), move |stop| {
        let srv = RpcServer::new(&ep);
        while !stop.load(Ordering::SeqCst) {
            // A poll timeout, or a malformed request with no decodable
            // reply address: nothing to answer.
            let Ok(req) = srv.next_request(Duration::from_millis(5)) else { continue };
            // Scrapes answer before the handler, so a polling
            // monitor never inflates the series it is reading.
            let body = crate::telemetry::answer(ep.obs(), &req.body)
                .unwrap_or_else(|| svc.handle(&ep, &req));
            // A vanished client is not the server's problem; drop the reply.
            let _ = srv.reply(&req, body);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rpc::RpcClient;
    use lwfs_proto::{Error, RequestBody};

    struct Echo {
        count: u64,
    }

    impl Service for Echo {
        fn handle(&mut self, _ep: &Endpoint, req: &Request) -> ReplyBody {
            self.count += 1;
            match req.body {
                RequestBody::Ping => ReplyBody::Pong,
                _ => ReplyBody::Err(Error::Internal("echo only pings".into())),
            }
        }
    }

    #[test]
    fn spawned_service_answers() {
        let net = Network::default();
        let handle = spawn_service(&net, ProcessId::new(10, 0), Echo { count: 0 });
        let client_ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&client_ep);
        for _ in 0..5 {
            assert_eq!(client.call(handle.id(), RequestBody::Ping).unwrap(), ReplyBody::Pong);
        }
        handle.shutdown();
    }

    #[test]
    fn shutdown_stops_service() {
        let net = Network::default();
        let handle = spawn_service(&net, ProcessId::new(10, 0), Echo { count: 0 });
        let id = handle.id();
        handle.shutdown();
        // Service thread no longer drains: request sits, client times out.
        let client_ep = net.register(ProcessId::new(0, 0));
        let mut client = RpcClient::new(&client_ep);
        client.reply_timeout = Duration::from_millis(50);
        assert_eq!(client.call(id, RequestBody::Ping).unwrap_err(), Error::Timeout);
    }

    #[test]
    fn drop_joins_thread() {
        let net = Network::default();
        {
            let _handle = spawn_service(&net, ProcessId::new(11, 0), Echo { count: 0 });
        }
        // Dropping the handle must not leak the thread (join happened).
        // Re-registering the same id would panic if the endpoint had not
        // been released... endpoints stay registered; just assert no hang.
        assert_eq!(net.endpoint_count(), 1);
    }
}
