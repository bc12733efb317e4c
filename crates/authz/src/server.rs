//! Network-facing authorization server.
//!
//! Besides answering client RPCs, this adapter *originates* traffic on one
//! path: when a policy change revokes capabilities, it walks the back
//! pointers and sends `InvalidateCaps` to each caching storage server —
//! the only O(m) operation in the protocol, which the paper's design rules
//! (§2.3, rule 3) require to be rare. Policy changes are rare; data
//! operations never trigger it.

use std::sync::Arc;
use std::time::Duration;

use lwfs_portals::{spawn_service, Endpoint, Network, RpcClient, Service, ServiceHandle};
use lwfs_proto::{ProcessId, ReplyBody, Request, RequestBody};

use crate::service::{AuthzService, RevocationNotice};

/// How long a revocation push (invalidation or epoch update) waits for one
/// storage site: the pushes run inside the service loop, so a dead site
/// must cost a bounded stall, not the RPC default.
const PUSH_TIMEOUT: Duration = Duration::from_secs(2);

/// The RPC adapter for [`AuthzService`].
pub struct AuthzServer {
    service: Arc<AuthzService>,
}

impl AuthzServer {
    /// Spawn an authorization server at `id` on `net`.
    pub fn spawn(
        net: &Network,
        id: ProcessId,
        service: AuthzService,
    ) -> (ServiceHandle, Arc<AuthzService>) {
        let service = Arc::new(service);
        let handle = spawn_service(net, id, AuthzServer { service: Arc::clone(&service) });
        (handle, service)
    }

    /// Push invalidations to every caching site named in `notices`.
    ///
    /// Best-effort with a bounded timeout: a site that has crashed will
    /// re-verify (and be refused) when it comes back, so a lost
    /// invalidation cannot resurrect revoked access — the authorization
    /// service remains the source of truth.
    fn push_invalidations(&self, ep: &Endpoint, notices: Vec<RevocationNotice>) {
        let client = push_client(ep);
        for notice in notices {
            let body = RequestBody::InvalidateCaps {
                authz_epoch: self.service.epoch(),
                keys: notice.keys,
            };
            let _ = client.call(notice.site, body);
        }
    }

    /// Push revocation-epoch updates to every registered enforcement site.
    ///
    /// Best-effort, like invalidations: epochs are max-merged on receipt,
    /// and a site that misses a push learns the new epoch from the next
    /// one; until then it keeps honouring the tokens the bump revoked,
    /// bounded by their lifetime.
    fn push_epochs(&self, ep: &Endpoint, epochs: Vec<lwfs_proto::EpochBump>) {
        if epochs.is_empty() {
            return;
        }
        let sites = self.service.enforcement_sites();
        if sites.is_empty() {
            return;
        }
        ep.obs().events().record(
            ep.id().nid.0,
            "cap.epoch_bump",
            format!("{} container(s) to {} site(s)", epochs.len(), sites.len()),
        );
        let client = push_client(ep);
        for &site in sites {
            let _ = client.call(site, RequestBody::PushEpochs { epochs: epochs.clone() });
        }
    }

    /// The epoch bumps implied by a change to `container`, if any.
    fn bump_of(&self, container: lwfs_proto::ContainerId) -> Vec<lwfs_proto::EpochBump> {
        match self.service.revocation_epoch(container) {
            0 => Vec::new(),
            epoch => vec![lwfs_proto::EpochBump { container, epoch }],
        }
    }
}

/// The client revocation pushes go out on, bounded by [`PUSH_TIMEOUT`].
fn push_client(ep: &Endpoint) -> RpcClient<'_> {
    let mut client = RpcClient::new(ep);
    client.reply_timeout = PUSH_TIMEOUT;
    client
}

impl Service for AuthzServer {
    fn handle(&mut self, ep: &Endpoint, req: &Request) -> ReplyBody {
        match &req.body {
            RequestBody::CreateContainer { cred } => match self.service.create_container(cred) {
                Ok(cid) => ReplyBody::ContainerCreated(cid),
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::RemoveContainer { cap } => match self.service.remove_container(cap) {
                Ok(()) => {
                    self.push_epochs(ep, self.bump_of(cap.container()));
                    ReplyBody::ContainerRemoved
                }
                Err(e) => ReplyBody::Err(e),
            },
            RequestBody::GetCaps { cred, container, ops } => {
                match self.service.get_caps_with_tokens(cred, *container, *ops) {
                    Ok((caps, tokens)) => ReplyBody::Caps { caps, tokens },
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::VerifyCaps { caps, cache_site } => {
                match self.service.verify_caps(caps, *cache_site) {
                    Ok(valid) => ReplyBody::CapsVerified { valid },
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::ModPolicy { cap, container, principal, grant, revoke } => {
                match self.service.mod_policy(cap, *container, *principal, *grant, *revoke) {
                    Ok((notices, _new_ops)) => {
                        self.push_invalidations(ep, notices);
                        self.push_epochs(ep, self.bump_of(*container));
                        // Fresh capabilities are re-acquired by their owner
                        // with GetCaps; the policy change itself returns none.
                        ReplyBody::PolicyChanged { new_caps: vec![] }
                    }
                    Err(e) => ReplyBody::Err(e),
                }
            }
            RequestBody::RevokeCred { cred } => {
                self.service.forget_credential(cred);
                ReplyBody::CredRevoked
            }
            RequestBody::Ping => ReplyBody::Pong,
            other => ReplyBody::Err(lwfs_proto::Error::Malformed(format!(
                "authorization service cannot handle {other:?}"
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{AuthzConfig, CredVerifier};
    use lwfs_auth::{AuthConfig, AuthService, ManualClock, MockKerberos};
    use lwfs_proto::{Capability, ContainerId, Credential, Error, OpMask, PrincipalId};

    struct Fixture {
        net: Network,
        authz_handle: ServiceHandle,
        alice: Credential,
    }

    fn boot() -> Fixture {
        let net = Network::default();
        let kdc = Arc::new(MockKerberos::new("TEST", 1));
        kdc.add_user("alice", "pw", PrincipalId(1));
        let clock = Arc::new(ManualClock::new());
        let auth = Arc::new(AuthService::new(
            AuthConfig::default(),
            kdc.clone() as Arc<dyn lwfs_auth::AuthMechanism>,
            clock.clone(),
        ));
        let alice = auth.get_cred(&kdc.kinit("alice", "pw").unwrap()).unwrap();
        let authz = crate::service::AuthzService::new(
            AuthzConfig::default(),
            Arc::new(auth) as Arc<dyn CredVerifier>,
            clock,
        );
        let (authz_handle, _svc) = AuthzServer::spawn(&net, ProcessId::new(101, 0), authz);
        Fixture { net, authz_handle, alice }
    }

    fn get_caps(
        client: &RpcClient<'_>,
        server: ProcessId,
        cred: Credential,
        cid: ContainerId,
        ops: OpMask,
    ) -> Vec<Capability> {
        match client.call(server, RequestBody::GetCaps { cred, container: cid, ops }).unwrap() {
            ReplyBody::Caps { caps, .. } => caps,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn container_lifecycle_over_rpc() {
        let fx = boot();
        let ep = fx.net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let srv = fx.authz_handle.id();

        let cid = match client.call(srv, RequestBody::CreateContainer { cred: fx.alice }).unwrap() {
            ReplyBody::ContainerCreated(cid) => cid,
            other => panic!("unexpected {other:?}"),
        };

        let caps = get_caps(&client, srv, fx.alice, cid, OpMask::CHECKPOINT);
        assert_eq!(caps.len(), OpMask::CHECKPOINT.len() as usize);

        let admin = get_caps(&client, srv, fx.alice, cid, OpMask::ADMIN)[0];
        assert_eq!(
            client.call(srv, RequestBody::RemoveContainer { cap: admin }).unwrap(),
            ReplyBody::ContainerRemoved
        );
        // Caps on a removed container no longer verify.
        let valid = match client
            .call(srv, RequestBody::VerifyCaps { caps, cache_site: ProcessId::new(7, 0) })
            .unwrap()
        {
            ReplyBody::CapsVerified { valid } => valid,
            other => panic!("unexpected {other:?}"),
        };
        assert!(valid.is_empty());
    }

    #[test]
    fn mod_policy_pushes_invalidations_to_caching_site() {
        // A fake "storage server" endpoint that records InvalidateCaps.
        let fx = boot();
        let srv = fx.authz_handle.id();
        let ep = fx.net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);

        let cid = match client.call(srv, RequestBody::CreateContainer { cred: fx.alice }).unwrap() {
            ReplyBody::ContainerCreated(cid) => cid,
            other => panic!("unexpected {other:?}"),
        };
        let admin = get_caps(&client, srv, fx.alice, cid, OpMask::ADMIN)[0];
        let wcap = get_caps(&client, srv, fx.alice, cid, OpMask::WRITE)[0];

        // The fake storage site verifies (and thus registers a backpointer).
        let site = ProcessId::new(60, 0);
        let site_ep = fx.net.register(site);
        client.call(srv, RequestBody::VerifyCaps { caps: vec![wcap], cache_site: site }).unwrap();

        // Run the fake site: expect one InvalidateCaps after ModPolicy.
        let t = std::thread::spawn(move || {
            let rpc = lwfs_portals::RpcServer::new(&site_ep);
            let req = rpc.next_request(Duration::from_secs(5)).unwrap();
            let keys = match &req.body {
                RequestBody::InvalidateCaps { keys, .. } => keys.clone(),
                other => panic!("expected InvalidateCaps, got {other:?}"),
            };
            rpc.reply(&req, ReplyBody::CapsInvalidated { dropped: keys.len() as u64 }).unwrap();
            keys
        });

        let rep = client
            .call(
                srv,
                RequestBody::ModPolicy {
                    cap: admin,
                    container: cid,
                    principal: PrincipalId(1),
                    grant: OpMask::NONE,
                    revoke: OpMask::WRITE,
                },
            )
            .unwrap();
        assert!(matches!(rep, ReplyBody::PolicyChanged { .. }));

        let keys = t.join().unwrap();
        assert_eq!(keys, vec![wcap.cache_key()]);

        // And the revoked capability now fails verification.
        let err = client
            .call(srv, RequestBody::GetCaps { cred: fx.alice, container: cid, ops: OpMask::WRITE })
            .unwrap_err();
        assert_eq!(err, Error::AccessDenied, "policy now denies write");
    }
}
