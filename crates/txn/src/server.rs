//! The transaction-id and lock service.
//!
//! A small service (one of the "client services" of Figure 3 — naming,
//! distribution, synchronization live *outside* the LWFS-core) that:
//!
//! * allocates transaction ids (`TxnBegin`),
//! * serves the lock protocol (`LockAcquire` / `LockRelease`) over a
//!   [`LockTable`], enforcing LOCK capabilities through the standard
//!   verify-through cache when security is configured.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lwfs_auth::Clock;
use lwfs_authz::CachedCapVerifier;
use lwfs_portals::{
    retry, spawn_service, Endpoint, Network, RetryPolicy, RpcClient, Service, ServiceHandle,
};
use lwfs_proto::{Error, OpMask, ProcessId, ReplyBody, Request, RequestBody, TxnId};

use crate::locks::LockTable;

/// Security configuration for the lock service: the verify-through cache
/// plus a protocol clock for expiry checks. `None` trusts every
/// structurally valid capability (single-tenant test deployments).
pub struct LockSecurity {
    pub verifier: CachedCapVerifier,
    pub clock: Arc<dyn Clock>,
}

/// The transaction-id + lock service.
pub struct TxnLockServer {
    locks: Arc<LockTable>,
    next_txn: AtomicU64,
    security: Option<LockSecurity>,
}

impl TxnLockServer {
    /// Spawn at `id` on `net`. Returns the handle and the shared lock
    /// table (tests inspect contention counters through it).
    pub fn spawn(
        net: &Network,
        id: ProcessId,
        security: Option<LockSecurity>,
    ) -> (ServiceHandle, Arc<LockTable>) {
        let locks = Arc::new(LockTable::new());
        let svc =
            TxnLockServer { locks: Arc::clone(&locks), next_txn: AtomicU64::new(1), security };
        (spawn_service(net, id, svc), locks)
    }

    fn check_cap(
        &self,
        ep: &Endpoint,
        cap: &lwfs_proto::Capability,
        need: OpMask,
    ) -> Result<(), Error> {
        match &self.security {
            None => {
                if cap.grants(need) {
                    Ok(())
                } else {
                    Err(Error::AccessDenied)
                }
            }
            Some(sec) => {
                let client = RpcClient::new(ep);
                sec.verifier.check(&client, cap, need, sec.clock.now())
            }
        }
    }
}

impl Service for TxnLockServer {
    fn handle(&mut self, ep: &Endpoint, req: &Request) -> ReplyBody {
        match &req.body {
            RequestBody::TxnBegin { cred: _ } => {
                // Transaction ids only need uniqueness within this service
                // instance; the credential is accepted as presented because
                // a transaction id grants nothing by itself.
                let id = TxnId(self.next_txn.fetch_add(1, Ordering::Relaxed));
                ReplyBody::TxnStarted(id)
            }
            RequestBody::LockAcquire { cap, resource, mode, wait } => {
                if let Err(e) = self.check_cap(ep, cap, OpMask::LOCK) {
                    return ReplyBody::Err(e);
                }
                // `wait` is honoured client-side with a retry loop; the
                // service never blocks its request queue.
                let _ = wait;
                match self.locks.try_acquire(req.reply_to, *resource, *mode) {
                    Ok(id) => ReplyBody::LockGranted(id),
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::LockRelease { cap, lock } => {
                if let Err(e) = self.check_cap(ep, cap, OpMask::LOCK) {
                    return ReplyBody::Err(e);
                }
                match self.locks.release(req.reply_to, *lock) {
                    Ok(()) => ReplyBody::LockReleased,
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::Ping => ReplyBody::Pong,
            other => ReplyBody::Err(Error::Malformed(format!(
                "txn/lock service cannot handle {other:?}"
            ))),
        }
    }
}

/// How a waiting lock request backs off on `WouldBlock`: 100 µs doubling
/// to 20 ms. A holder that never releases (it died) turns the wait into
/// [`Error::RetriesExhausted`] after 15 s instead of an endless retry.
const LOCK_WAIT: RetryPolicy = RetryPolicy {
    base: Duration::from_micros(100),
    cap: Duration::from_millis(20),
    deadline: Duration::from_secs(15),
};

/// Client helper: acquire a lock, retrying `WouldBlock` under
/// `LOCK_WAIT`. This is the client-side half of the non-blocking lock
/// protocol.
pub fn acquire_lock_waiting(
    client: &RpcClient<'_>,
    server: ProcessId,
    cap: lwfs_proto::Capability,
    resource: lwfs_proto::LockResource,
    mode: lwfs_proto::LockMode,
) -> Result<lwfs_proto::LockId, Error> {
    retry::with_backoff(
        &LOCK_WAIT,
        |e| matches!(e, Error::WouldBlock),
        || match client
            .call(server, RequestBody::LockAcquire { cap, resource, mode, wait: true })?
        {
            ReplyBody::LockGranted(id) => Ok(id),
            other => Err(Error::Internal(format!("bad lock reply {other:?}"))),
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_proto::{
        Capability, CapabilityBody, ContainerId, Lifetime, LockMode, LockResource, ObjId,
        PrincipalId, Signature,
    };

    fn lock_cap() -> Capability {
        Capability {
            body: CapabilityBody {
                container: ContainerId(1),
                ops: OpMask::LOCK,
                principal: PrincipalId(1),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial: 1,
            },
            sig: Signature([1; 16]),
        }
    }

    #[test]
    fn txn_ids_are_unique() {
        let net = Network::default();
        let (h, _locks) = TxnLockServer::spawn(&net, ProcessId::new(10, 0), None);
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let cred = lwfs_proto::Credential {
            body: lwfs_proto::CredentialBody {
                principal: PrincipalId(1),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial: 0,
            },
            sig: Signature([0; 16]),
        };
        let mut seen = std::collections::HashSet::new();
        for _ in 0..10 {
            match client.call(h.id(), RequestBody::TxnBegin { cred }).unwrap() {
                ReplyBody::TxnStarted(t) => assert!(seen.insert(t)),
                other => panic!("unexpected {other:?}"),
            }
        }
        h.shutdown();
    }

    #[test]
    fn lock_protocol_over_rpc() {
        let net = Network::default();
        let (h, locks) = TxnLockServer::spawn(&net, ProcessId::new(10, 0), None);
        let ep1 = net.register(ProcessId::new(1, 0));
        let ep2 = net.register(ProcessId::new(2, 0));
        let c1 = RpcClient::new(&ep1);
        let c2 = RpcClient::new(&ep2);
        let res = LockResource::range(ContainerId(1), ObjId(1), 0, 100);

        let id = match c1
            .call(
                h.id(),
                RequestBody::LockAcquire {
                    cap: lock_cap(),
                    resource: res,
                    mode: LockMode::Exclusive,
                    wait: false,
                },
            )
            .unwrap()
        {
            ReplyBody::LockGranted(id) => id,
            other => panic!("unexpected {other:?}"),
        };

        // The other client is refused.
        assert_eq!(
            c2.call(
                h.id(),
                RequestBody::LockAcquire {
                    cap: lock_cap(),
                    resource: res,
                    mode: LockMode::Shared,
                    wait: false,
                },
            )
            .unwrap_err(),
            Error::WouldBlock
        );

        // Releasing with the wrong owner fails, right owner succeeds.
        assert_eq!(
            c2.call(h.id(), RequestBody::LockRelease { cap: lock_cap(), lock: id }).unwrap_err(),
            Error::AccessDenied
        );
        assert_eq!(
            c1.call(h.id(), RequestBody::LockRelease { cap: lock_cap(), lock: id }).unwrap(),
            ReplyBody::LockReleased
        );
        assert_eq!(locks.held_count(), 0);
        h.shutdown();
    }

    #[test]
    fn waiting_client_eventually_acquires() {
        let net = Network::default();
        let (h, _locks) = TxnLockServer::spawn(&net, ProcessId::new(10, 0), None);
        let server = h.id();
        let res = LockResource::range(ContainerId(1), ObjId(1), 0, 100);

        let ep1 = net.register(ProcessId::new(1, 0));
        let c1 = RpcClient::new(&ep1);
        let id = acquire_lock_waiting(&c1, server, lock_cap(), res, LockMode::Exclusive).unwrap();

        let net2 = net.clone();
        let waiter = std::thread::spawn(move || {
            let ep2 = net2.register(ProcessId::new(2, 0));
            let c2 = RpcClient::new(&ep2);
            acquire_lock_waiting(&c2, server, lock_cap(), res, LockMode::Exclusive)
        });

        std::thread::sleep(std::time::Duration::from_millis(20));
        c1.call(server, RequestBody::LockRelease { cap: lock_cap(), lock: id }).unwrap();
        assert!(waiter.join().unwrap().is_ok());
        h.shutdown();
    }

    #[test]
    fn cap_without_lock_op_is_denied() {
        let net = Network::default();
        let (h, _locks) = TxnLockServer::spawn(&net, ProcessId::new(10, 0), None);
        let ep = net.register(ProcessId::new(1, 0));
        let client = RpcClient::new(&ep);
        let mut cap = lock_cap();
        cap.body.ops = OpMask::READ;
        let err = client
            .call(
                h.id(),
                RequestBody::LockAcquire {
                    cap,
                    resource: LockResource::whole_object(ContainerId(1), ObjId(1)),
                    mode: LockMode::Shared,
                    wait: false,
                },
            )
            .unwrap_err();
        assert_eq!(err, Error::AccessDenied);
        h.shutdown();
    }
}
