//! Protocol-level integration tests: the Figure 4 message flows and the
//! §2.3 scalability rules, asserted by *counting messages* on the
//! transport rather than trusting the implementation's structure.

use std::sync::Arc;

use lwfs::prelude::*;
use lwfs::proto::{Decode as _, Encode as _};

fn boot(servers: usize) -> LwfsCluster {
    LwfsCluster::boot(ClusterConfig { storage_servers: servers, ..Default::default() })
}

#[test]
fn figure4a_one_getcaps_rpc_plus_log_tree_scatter() {
    // Rule 1 (§2.3): acquiring capabilities for n ranks must not be an
    // O(n) operation at any *system* component. One rank does one GetCaps
    // RPC; distribution is the application's log-tree scatter.
    let n = 16usize;
    let cluster = Arc::new(boot(2));
    let mut rank0 = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    rank0.get_cred(ticket).unwrap();
    let cid = rank0.create_container().unwrap();

    let mut clients = vec![rank0];
    for r in 1..n {
        clients.push(cluster.client(r as u32, 0));
    }
    let group = Group::new((0..n as u32).map(|i| ProcessId::new(i, 0)).collect());

    cluster.network().stats().reset();
    let handles: Vec<_> = clients
        .into_iter()
        .enumerate()
        .map(|(rank, client)| {
            let group = group.clone();
            std::thread::spawn(move || {
                if rank == 0 {
                    let caps = client.get_caps(cid, OpMask::CHECKPOINT).unwrap();
                    client.scatter_caps(&group, 0, 0, 7, Some(&caps)).unwrap()
                } else {
                    client.scatter_caps(&group, rank, 0, 7, None).unwrap()
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let stats = cluster.network().stats();
    // The authorization server sent exactly one message: the GetCaps
    // reply. (It received exactly one request.)
    assert_eq!(stats.sent_by(cluster.addrs().authz), 1, "authz must answer once, not per rank");
    // No rank sent more than ~log2(n)+1 messages (its scatter forwards
    // plus, for rank 0, the one RPC).
    let log_n = (usize::BITS - (n - 1).leading_zeros()) as u64;
    for rank in 0..n as u32 {
        let sent = stats.sent_by(ProcessId::new(rank, 0));
        assert!(sent <= log_n + 1, "rank {rank} sent {sent} messages (> log2(n)+1)");
    }
    // Total scatter traffic is exactly n-1 deliveries + 1 RPC exchange.
    assert_eq!(stats.messages.get(), (n - 1) as u64 + 2);
}

#[test]
fn figure4b_warm_cache_data_access_touches_only_the_storage_server() {
    let cluster = boot(1);
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    // Warm the write capability's cache entry.
    client.write(0, &caps, None, obj, 0, b"warmup").unwrap();

    let stats = cluster.network().stats();
    stats.reset();
    for i in 0..50u64 {
        client.write(0, &caps, None, obj, i * 8, b"steady!!").unwrap();
    }
    // Steady state: the authorization and authentication services see
    // ZERO traffic — enforcement is fully distributed (§2.4).
    assert_eq!(stats.sent_by(cluster.addrs().authz), 0, "authz contacted on warm path");
    assert_eq!(stats.sent_by(cluster.addrs().auth), 0, "auth contacted on warm path");
    // Each write is exactly: 1 request + 1 one-sided pull + 1 reply.
    let sent_by_server = stats.sent_by(cluster.addrs().storage[0]);
    assert_eq!(sent_by_server, 100, "server: 50 pulls + 50 replies, got {sent_by_server}");
}

#[test]
fn connectionless_requests_carry_full_context() {
    // Rule 2 (§2.3): no connection state. A request decoded from bytes
    // carries everything needed to authorize it: capability, object,
    // reply address. Spot-check by decoding a re-encoded request.
    use lwfs::proto::{
        Capability, CapabilityBody, ContainerId, Lifetime, MdHandle, ObjId, OpNum, Request,
        RequestBody, Signature,
    };
    let cap = Capability {
        body: CapabilityBody {
            container: ContainerId(1),
            ops: OpMask::WRITE,
            principal: PrincipalId(1),
            issuer_epoch: 1,
            lifetime: Lifetime::UNBOUNDED,
            serial: 5,
        },
        sig: Signature([1; 16]),
    };
    let req = Request::new(
        OpNum(9),
        ProcessId::new(3, 1),
        RequestBody::Write {
            txn: None,
            cap,
            obj: ObjId(4),
            offset: 128,
            len: 512,
            md: MdHandle { match_bits: 0xAB },
        },
    );
    let decoded = Request::from_bytes(req.to_bytes()).unwrap();
    assert_eq!(decoded, req);
    match decoded.body {
        RequestBody::Write { cap, .. } => {
            assert_eq!(cap.container(), ContainerId(1));
            assert!(cap.grants(OpMask::WRITE));
        }
        _ => unreachable!(),
    }
    assert_eq!(decoded.reply_to, ProcessId::new(3, 1));
}

#[test]
fn rule3_revocation_is_the_only_om_broadcast_and_it_is_bounded_by_m() {
    // Rule 3 (§2.3): O(m) inter-server operations must be rare. Verify
    // the revocation walk contacts exactly the m' ≤ m servers that cached
    // the capability — not every server, and never any client.
    let m = 4usize;
    let cluster = boot(m);
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::CREATE | OpMask::WRITE | OpMask::ADMIN).unwrap();

    // Cache the write capability at only two of the four servers.
    for server in 0..2 {
        let obj = client.create_obj(server, &caps, None, None).unwrap();
        client.write(server, &caps, None, obj, 0, b"cached here").unwrap();
    }

    let stats = cluster.network().stats();
    stats.reset();
    client.mod_policy(&caps, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();

    // The authz server sent: the ModPolicy reply + one InvalidateCaps per
    // *caching* site (2), not per server (4), not per client.
    let authz_sent = stats.sent_by(cluster.addrs().authz);
    assert!(
        authz_sent <= 1 + 2,
        "authz sent {authz_sent} messages; expected reply + ≤2 invalidations"
    );
    // Note: the create capability also lives at those two servers but was
    // not revoked, so exactly the write-cap entries are invalidated.
}

#[test]
fn revoked_credential_acquires_no_more_capabilities() {
    // §3.1: a credential is revocable at the authentication service, and
    // the revocation binds everyone it was transferred to — the copy a
    // second rank adopted dies with the original.
    let cluster = boot(1);
    let mut client = cluster.client(0, 0);
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    let cred = client.get_cred(ticket).unwrap();
    let cid = client.create_container().unwrap();
    client.get_caps(cid, OpMask::ALL).unwrap();
    let mut peer = cluster.client(1, 0);
    peer.adopt_cred(cred);
    peer.get_caps(cid, OpMask::READ).unwrap();

    client.revoke_cred().unwrap();

    assert_eq!(client.current_cred(), None, "the revoker keeps no credential");
    assert_eq!(client.get_caps(cid, OpMask::ALL).unwrap_err(), Error::BadCredential);
    assert_eq!(peer.get_caps(cid, OpMask::READ).unwrap_err(), Error::CredentialRevoked);
}
