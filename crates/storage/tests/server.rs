//! Integration tests for the storage server: the full Figure 6 data path,
//! transaction participation, and enforcement with a live authorization
//! service.

use std::sync::Arc;
use std::time::Duration;

use lwfs_auth::{AuthConfig, AuthService, ManualClock, MockKerberos};
use lwfs_authz::{AuthzConfig, AuthzServer, AuthzService, CachedCapVerifier, CredVerifier};
use lwfs_portals::{
    reply_match, Event, MdOptions, MemDesc, Network, RpcClient, BULK_SPACE, REQUEST_MATCH,
};
use lwfs_proto::{
    Capability, CapabilityBody, ContainerId, Credential, Decode as _, Encode as _, Error, Lifetime,
    MdHandle, ObjId, OpMask, OpNum, PrincipalId, ProcessId, Reply, ReplyBody, Request, RequestBody,
    Signature, TxnId,
};
use lwfs_storage::{StorageConfig, StorageServer};

/// A structurally valid capability the authorization service never
/// minted: its MAC is made up.
fn forged_cap(container: ContainerId, ops: OpMask) -> Capability {
    Capability {
        body: CapabilityBody {
            container,
            ops,
            principal: PrincipalId(1),
            issuer_epoch: 1,
            lifetime: Lifetime::UNBOUNDED,
            serial: 1,
        },
        sig: Signature([7; 16]),
    }
}

/// Genuine capabilities on one container — the authorization service
/// mints one per operation bit.
struct Caps(Vec<Capability>);

impl Caps {
    /// The capability granting `op`.
    fn op(&self, op: OpMask) -> Capability {
        self.0.iter().find(|c| c.grants(op)).copied().expect("capability for op")
    }

    fn container(&self) -> ContainerId {
        self.0[0].container()
    }
}

/// A live authorization service with one user, `alice`, owning the
/// containers tests create.
struct Authz {
    handle: lwfs_portals::ServiceHandle,
    service: Arc<AuthzService>,
    alice: Credential,
}

impl Authz {
    fn spawn(net: &Network, clock: Arc<ManualClock>) -> Self {
        let kdc = Arc::new(MockKerberos::new("TEST", 3));
        kdc.add_user("alice", "pw", PrincipalId(1));
        let auth = Arc::new(AuthService::new(
            AuthConfig::default(),
            kdc.clone() as Arc<dyn lwfs_auth::AuthMechanism>,
            clock.clone(),
        ));
        let alice = auth.get_cred(&kdc.kinit("alice", "pw").unwrap()).unwrap();
        let authz = AuthzService::new(
            AuthzConfig::default(),
            Arc::new(auth) as Arc<dyn CredVerifier>,
            clock,
        );
        let (handle, service) = AuthzServer::spawn(net, ProcessId::new(101, 0), authz);
        Self { handle, service, alice }
    }

    /// A fresh container of alice's, with capabilities for `ops` on it.
    fn container(&self, ops: OpMask) -> Caps {
        self.container_caps(self.service.create_container(&self.alice).unwrap(), ops)
    }

    /// Alice's capabilities for `ops` on `cid`.
    fn container_caps(&self, cid: ContainerId, ops: OpMask) -> Caps {
        Caps(self.service.get_caps(&self.alice, cid, ops).unwrap())
    }
}

/// Boot storage server 50 enforcing through a live authorization service.
fn boot(
    config: StorageConfig,
) -> (Network, lwfs_portals::ServiceHandle, Arc<StorageServer>, Authz) {
    let net = Network::default();
    let clock = Arc::new(ManualClock::new());
    let authz = Authz::spawn(&net, clock.clone());
    let id = ProcessId::new(50, 0);
    let verifier = CachedCapVerifier::new(id, authz.handle.id());
    let (handle, server) = StorageServer::spawn(&net, id, config, verifier, clock);
    (net, handle, server, authz)
}

fn boot_open() -> (Network, lwfs_portals::ServiceHandle, Arc<StorageServer>, Authz) {
    boot(StorageConfig::default())
}

fn create_obj(client: &RpcClient<'_>, srv: ProcessId, caps: &Caps) -> ObjId {
    let cap = caps.op(OpMask::CREATE);
    match client.call(srv, RequestBody::CreateObj { txn: None, cap, obj: None }).unwrap() {
        ReplyBody::ObjCreated(oid) => oid,
        other => panic!("unexpected {other:?}"),
    }
}

/// Client-side write: post an MD with the payload, send the small request,
/// let the server pull.
#[allow(clippy::too_many_arguments)]
fn write_obj(
    client: &RpcClient<'_>,
    ep: &lwfs_portals::Endpoint,
    srv: ProcessId,
    caps: &Caps,
    obj: ObjId,
    offset: u64,
    payload: &[u8],
    txn: Option<TxnId>,
) -> Result<u64, Error> {
    let cap = caps.op(OpMask::WRITE);
    let mb = ep.match_bits().alloc(BULK_SPACE);
    ep.post_md(mb, MemDesc::from_vec(payload.to_vec(), MdOptions::for_remote_get())).unwrap();
    let r = client.call(
        srv,
        RequestBody::Write {
            txn,
            cap,
            obj,
            offset,
            len: payload.len() as u64,
            md: MdHandle { match_bits: mb },
        },
    );
    ep.unlink_md(mb);
    match r? {
        ReplyBody::WriteDone { len } => Ok(len),
        other => panic!("unexpected {other:?}"),
    }
}

/// Client-side read: post a writable MD, server pushes into it.
fn read_obj(
    client: &RpcClient<'_>,
    ep: &lwfs_portals::Endpoint,
    srv: ProcessId,
    caps: &Caps,
    obj: ObjId,
    offset: u64,
    len: usize,
) -> Result<Vec<u8>, Error> {
    let cap = caps.op(OpMask::READ);
    let mb = ep.match_bits().alloc(BULK_SPACE);
    ep.post_md(mb, MemDesc::zeroed(len, MdOptions::for_remote_put())).unwrap();
    let r = client.call(
        srv,
        RequestBody::Read { cap, obj, offset, len: len as u64, md: MdHandle { match_bits: mb } },
    );
    let md = ep.unlink_md(mb).unwrap();
    match r? {
        ReplyBody::ReadDone { len } => {
            let mut data = md.snapshot();
            data.truncate(len as usize);
            Ok(data)
        }
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn write_then_read_roundtrip_server_directed() {
    let (net, handle, server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);

    let oid = create_obj(&client, handle.id(), &caps);
    // Payload larger than one chunk to exercise the chunk loop.
    let payload: Vec<u8> = (0..600 * 1024).map(|i| (i % 251) as u8).collect();
    let n = write_obj(&client, &ep, handle.id(), &caps, oid, 0, &payload, None).unwrap();
    assert_eq!(n, payload.len() as u64);

    let back = read_obj(&client, &ep, handle.id(), &caps, oid, 0, payload.len()).unwrap();
    assert_eq!(back, payload);

    // Data moved one-sidedly: the server performed gets (pull) and puts
    // (push), not inline request payloads.
    assert!(net.stats().gets.get() >= 3);
    assert!(net.stats().puts.get() >= 3);
    assert_eq!(server.stats().bytes_pulled.get(), payload.len() as u64);
    handle.shutdown();
}

#[test]
fn partial_read_and_offset_write() {
    let (net, handle, _server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);

    let oid = create_obj(&client, handle.id(), &caps);
    write_obj(&client, &ep, handle.id(), &caps, oid, 10, b"offset-write", None).unwrap();
    let back = read_obj(&client, &ep, handle.id(), &caps, oid, 0, 64).unwrap();
    assert_eq!(back.len(), 22, "short read stops at object end");
    assert_eq!(&back[10..], b"offset-write");
    assert!(back[..10].iter().all(|b| *b == 0), "gap zero-filled");
    handle.shutdown();
}

#[test]
fn getattr_sync_list() {
    let (net, handle, _server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);

    let a = create_obj(&client, handle.id(), &caps);
    let b = create_obj(&client, handle.id(), &caps);
    write_obj(&client, &ep, handle.id(), &caps, a, 0, &[9u8; 1000], None).unwrap();

    match client
        .call(handle.id(), RequestBody::GetAttr { cap: caps.op(OpMask::GETATTR), obj: a })
        .unwrap()
    {
        ReplyBody::Attr(attr) => assert_eq!(attr.size, 1000),
        other => panic!("unexpected {other:?}"),
    }
    assert_eq!(
        client
            .call(handle.id(), RequestBody::Sync { cap: caps.op(OpMask::WRITE), obj: Some(a) })
            .unwrap(),
        ReplyBody::Synced
    );
    match client.call(handle.id(), RequestBody::ListObjs { cap: caps.op(OpMask::GETATTR) }).unwrap()
    {
        ReplyBody::Objs(objs) => assert_eq!(objs, vec![a, b]),
        other => panic!("unexpected {other:?}"),
    }
    handle.shutdown();
}

#[test]
fn cap_without_needed_op_is_denied() {
    let (net, handle, _server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let read_only = authz.container(OpMask::READ).op(OpMask::READ);

    let err =
        client.call(handle.id(), RequestBody::CreateObj { txn: None, cap: read_only, obj: None });
    assert_eq!(err.unwrap_err(), Error::AccessDenied);
    handle.shutdown();
}

#[test]
fn container_scoping_blocks_cross_container_access() {
    let (net, handle, _server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps1 = authz.container(OpMask::ALL);
    let caps2 = authz.container(OpMask::ALL);

    let oid = create_obj(&client, handle.id(), &caps1);
    write_obj(&client, &ep, handle.id(), &caps1, oid, 0, b"mine", None).unwrap();
    // A capability for a different container cannot read the object.
    let err = read_obj(&client, &ep, handle.id(), &caps2, oid, 0, 4).unwrap_err();
    assert_eq!(err, Error::AccessDenied);
    let err = write_obj(&client, &ep, handle.id(), &caps2, oid, 0, b"nope", None).unwrap_err();
    assert_eq!(err, Error::AccessDenied);
    handle.shutdown();
}

#[test]
fn txn_abort_rolls_back_create_and_writes() {
    let (net, handle, server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);
    let txn = TxnId(42);

    // Pre-existing object with committed contents.
    let base = create_obj(&client, handle.id(), &caps);
    write_obj(&client, &ep, handle.id(), &caps, base, 0, b"stable", None).unwrap();

    // Transactional: new object + overwrite of the existing one.
    let fresh = match client
        .call(
            handle.id(),
            RequestBody::CreateObj { txn: Some(txn), cap: caps.op(OpMask::CREATE), obj: None },
        )
        .unwrap()
    {
        ReplyBody::ObjCreated(oid) => oid,
        other => panic!("unexpected {other:?}"),
    };
    write_obj(&client, &ep, handle.id(), &caps, fresh, 0, b"doomed", Some(txn)).unwrap();
    write_obj(&client, &ep, handle.id(), &caps, base, 0, b"mutate", Some(txn)).unwrap();

    assert_eq!(
        client.call(handle.id(), RequestBody::TxnAbort { txn }).unwrap(),
        ReplyBody::TxnAborted
    );

    // The fresh object is gone; the base object reads back unchanged.
    let err = read_obj(&client, &ep, handle.id(), &caps, fresh, 0, 6).unwrap_err();
    assert_eq!(err, Error::NoSuchObject(fresh));
    let back = read_obj(&client, &ep, handle.id(), &caps, base, 0, 6).unwrap();
    assert_eq!(back, b"stable");
    assert_eq!(server.stats().txn_aborts.get(), 1);
    handle.shutdown();
}

#[test]
fn txn_abort_restores_a_removed_object_byte_exact() {
    let (net, handle, server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);
    let srv = handle.id();
    // Spans several chunks, so the restore is not a one-buffer special case.
    let contents: Vec<u8> = (0..600 * 1024).map(|i| (i % 251) as u8).collect();
    let obj = create_obj(&client, srv, &caps);
    write_obj(&client, &ep, srv, &caps, obj, 0, &contents, None).unwrap();

    let remove = |txn| {
        client
            .call(srv, RequestBody::RemoveObj { txn: Some(txn), cap: caps.op(OpMask::REMOVE), obj })
    };
    let aborted = TxnId(7);
    assert_eq!(remove(aborted).unwrap(), ReplyBody::ObjRemoved);
    // The bytes left the store for the undo journal…
    assert_eq!(server.store().bytes_stored(), 0);
    let err = read_obj(&client, &ep, srv, &caps, obj, 0, 8).unwrap_err();
    assert_eq!(err, Error::NoSuchObject(obj));
    // …and come back whole on abort.
    client.call(srv, RequestBody::TxnAbort { txn: aborted }).unwrap();
    assert_eq!(read_obj(&client, &ep, srv, &caps, obj, 0, contents.len()).unwrap(), contents);

    // A removal staged after the transaction prepared is refused while the
    // object is still in the store, not after its bytes have been taken.
    let prepared = TxnId(8);
    assert_eq!(
        client.call(srv, RequestBody::TxnPrepare { txn: prepared }).unwrap(),
        ReplyBody::TxnVote(true)
    );
    assert!(matches!(remove(prepared).unwrap_err(), Error::Internal(_)));
    assert_eq!(server.store().bytes_stored(), contents.len() as u64);
    handle.shutdown();
}

#[test]
fn txn_prepare_commit_makes_effects_permanent() {
    let (net, handle, server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);
    let txn = TxnId(7);

    let oid = match client
        .call(
            handle.id(),
            RequestBody::CreateObj { txn: Some(txn), cap: caps.op(OpMask::CREATE), obj: None },
        )
        .unwrap()
    {
        ReplyBody::ObjCreated(oid) => oid,
        other => panic!("unexpected {other:?}"),
    };
    write_obj(&client, &ep, handle.id(), &caps, oid, 0, b"durable", Some(txn)).unwrap();

    assert_eq!(
        client.call(handle.id(), RequestBody::TxnPrepare { txn }).unwrap(),
        ReplyBody::TxnVote(true)
    );
    assert_eq!(
        client.call(handle.id(), RequestBody::TxnCommit { txn }).unwrap(),
        ReplyBody::TxnCommitted
    );
    let back = read_obj(&client, &ep, handle.id(), &caps, oid, 0, 7).unwrap();
    assert_eq!(back, b"durable");
    assert_eq!(server.stats().txn_commits.get(), 1);
    handle.shutdown();
}

#[test]
fn commit_without_prepare_is_rejected() {
    let (net, handle, _server, authz) = boot_open();
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);
    let txn = TxnId(8);
    client
        .call(
            handle.id(),
            RequestBody::CreateObj { txn: Some(txn), cap: caps.op(OpMask::CREATE), obj: None },
        )
        .unwrap();
    assert!(matches!(
        client.call(handle.id(), RequestBody::TxnCommit { txn }).unwrap_err(),
        Error::Internal(_)
    ));
    handle.shutdown();
}

/// Full security stack: auth + authz + storage, with verify-through
/// caching and revocation — the complete Figure 4-b protocol.
#[test]
fn enforcement_with_live_authorization_service() {
    let (net, storage_handle, server, authz) = boot_open();
    let storage_id = storage_handle.id();

    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);

    // Genuine capabilities work.
    let caps = authz.container(OpMask::CREATE | OpMask::WRITE);
    let cid = caps.container();

    let oid = create_obj(&client, storage_id, &caps);
    write_obj(&client, &ep, storage_id, &caps, oid, 0, b"secured", None).unwrap();

    // Forged capability rejected even though structurally plausible.
    let forged = Caps(vec![forged_cap(cid, OpMask::WRITE)]);
    let err = write_obj(&client, &ep, storage_id, &forged, oid, 0, b"forged", None).unwrap_err();
    assert_eq!(err, Error::BadCapability);

    // Cache works: repeated writes do one VerifyCaps total.
    for i in 0..10u64 {
        write_obj(&client, &ep, storage_id, &caps, oid, i * 8, b"cached!!", None).unwrap();
    }
    let cache = server.cap_cache_stats();
    // Exactly three misses so far: the create cap, the write cap's first
    // use, and the forged capability (which verified negative and was not
    // cached). All ten repeat writes must be hits.
    assert_eq!(cache.misses, 3, "one verify-through per distinct capability");
    assert!(cache.hits >= 10);

    // Revocation: chmod away write; the cached verdict is invalidated and
    // the next write fails.
    let admin = authz.container_caps(cid, OpMask::ADMIN).op(OpMask::ADMIN);
    let rep = client
        .call(
            authz.handle.id(),
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
    // Give the invalidation a moment to land (authz pushes synchronously
    // inside ModPolicy handling, so it has already happened; this is just
    // paranoia against scheduler jitter).
    std::thread::sleep(Duration::from_millis(10));
    let err = write_obj(&client, &ep, storage_id, &caps, oid, 0, b"revoked", None).unwrap_err();
    assert!(
        err == Error::BadCapability || err == Error::CapabilityRevoked,
        "expected security refusal, got {err:?}"
    );

    storage_handle.shutdown();
    authz.handle.shutdown();
}

// ----------------------------------------------------------------------
// Worker-pool concurrency
// ----------------------------------------------------------------------

/// Boot a storage server with an explicit worker count.
fn boot_workers(
    workers: usize,
) -> (Network, lwfs_portals::ServiceHandle, Arc<StorageServer>, Authz) {
    boot(StorageConfig { workers, pool_buffers: 16, ..StorageConfig::default() })
}

/// Fire a write request *without* waiting for the reply — several of these
/// back-to-back put genuinely concurrent requests in front of the worker
/// pool. Returns the MD's match bits for the later unlink.
fn send_write_pipelined(
    ep: &lwfs_portals::Endpoint,
    srv: ProcessId,
    opnum: u64,
    cap: Capability,
    obj: ObjId,
    offset: u64,
    payload: &[u8],
) -> u64 {
    let mb = ep.match_bits().alloc(BULK_SPACE);
    ep.post_md(mb, MemDesc::from_vec(payload.to_vec(), MdOptions::for_remote_get())).unwrap();
    let req = Request::new(
        OpNum(opnum),
        ep.id(),
        RequestBody::Write {
            txn: None,
            cap,
            obj,
            offset,
            len: payload.len() as u64,
            md: MdHandle { match_bits: mb },
        },
    );
    ep.send(srv, REQUEST_MATCH, req.to_bytes()).unwrap();
    mb
}

/// Fire a read request without waiting for the reply, like
/// [`send_write_pipelined`]. Returns the MD's match bits; unlinking them
/// after the reply yields the bytes read.
fn send_read_pipelined(
    ep: &lwfs_portals::Endpoint,
    srv: ProcessId,
    opnum: u64,
    cap: Capability,
    obj: ObjId,
    offset: u64,
    len: usize,
) -> u64 {
    let mb = ep.match_bits().alloc(BULK_SPACE);
    ep.post_md(mb, MemDesc::zeroed(len, MdOptions::for_remote_put())).unwrap();
    let body =
        RequestBody::Read { cap, obj, offset, len: len as u64, md: MdHandle { match_bits: mb } };
    ep.send(srv, REQUEST_MATCH, Request::new(OpNum(opnum), ep.id(), body).to_bytes()).unwrap();
    mb
}

/// Collect the reply for a pipelined request sent with `opnum`.
fn await_reply(ep: &lwfs_portals::Endpoint, opnum: u64) -> ReplyBody {
    let want = reply_match(opnum);
    let ev = ep
        .recv_match(
            Duration::from_secs(5),
            |e| matches!(e, Event::Message { match_bits, .. } if *match_bits == want),
        )
        .unwrap();
    Reply::from_bytes(ev.message_data().unwrap().clone()).unwrap().into_result().unwrap()
}

/// Collect the reply for a pipelined write sent with `opnum`.
fn await_write_done(ep: &lwfs_portals::Endpoint, opnum: u64) -> u64 {
    match await_reply(ep, opnum) {
        ReplyBody::WriteDone { len } => len,
        other => panic!("unexpected {other:?}"),
    }
}

#[test]
fn pipelined_overlapping_writes_execute_in_arrival_order() {
    overlapping_writes_execute_in_arrival_order(4);
}

#[test]
fn arrival_order_holds_with_one_two_and_eight_receivers() {
    // Workers take turns receiving, so every worker count is a different
    // set of receivers racing for the next request.
    for workers in [1, 2, 8] {
        overlapping_writes_execute_in_arrival_order(workers);
    }
}

fn overlapping_writes_execute_in_arrival_order(workers: usize) {
    // Three whole-object writes in flight at once against the worker pool:
    // they overlap, so the conflict tracker must run them in arrival
    // order, and the last arrival's bytes must win — every round. Payloads
    // span two chunks, so out-of-order or interleaved execution would
    // leave a visible mix of fill bytes.
    let (net, handle, server, authz) = boot_workers(workers);
    let ep = net.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let caps = authz.container(OpMask::ALL);
    let oid = create_obj(&client, handle.id(), &caps);

    let size = 300 * 1024;
    for round in 0..6u64 {
        let base = 10_000 + round * 3;
        let mbs: Vec<u64> = (0..3u64)
            .map(|k| {
                let payload = vec![(base + k) as u8; size];
                send_write_pipelined(
                    &ep,
                    handle.id(),
                    base + k,
                    caps.op(OpMask::WRITE),
                    oid,
                    0,
                    &payload,
                )
            })
            .collect();
        for k in 0..3u64 {
            assert_eq!(await_write_done(&ep, base + k), size as u64);
        }
        for mb in mbs {
            ep.unlink_md(mb);
        }
        let back = read_obj(&client, &ep, handle.id(), &caps, oid, 0, size).unwrap();
        let want = (base + 2) as u8;
        assert!(
            back.iter().all(|b| *b == want),
            "{workers} workers, round {round}: last arrival must win (got mix, expected {want})"
        );
    }
    assert_eq!(server.stats().writes.get(), 18);

    // An independent read between two dependent writes must not let the
    // later write overtake the earlier one: a write of [100K, 200K)
    // filled with A, then a write of [0, 200K) filled with B, then a read
    // of [50K, 60K). An elevator pass sorting by offset would release
    // B, the read, then A — which leaves A on top of B.
    const K: usize = 1024;
    for round in 0..50u64 {
        let base = 20_000 + round * 3;
        let (a, b) = (0xA0 ^ round as u8, 0xB0 ^ round as u8);
        let cap = caps.op(OpMask::WRITE);
        let mbs = [
            send_write_pipelined(&ep, handle.id(), base, cap, oid, 100 * K as u64, &[a; 100 * K]),
            send_write_pipelined(&ep, handle.id(), base + 1, cap, oid, 0, &[b; 200 * K]),
            send_read_pipelined(
                &ep,
                handle.id(),
                base + 2,
                caps.op(OpMask::READ),
                oid,
                50 * K as u64,
                10 * K,
            ),
        ];
        assert_eq!(await_write_done(&ep, base), 100 * K as u64);
        assert_eq!(await_write_done(&ep, base + 1), 200 * K as u64);
        assert_eq!(await_reply(&ep, base + 2), ReplyBody::ReadDone { len: 10 * K as u64 });
        let read = ep.unlink_md(mbs[2]).unwrap().into_vec();
        assert!(
            read.iter().all(|x| *x == b),
            "{workers} workers, round {round}: the read ran before write B"
        );
        for mb in &mbs[..2] {
            ep.unlink_md(*mb);
        }
        let back =
            read_obj(&client, &ep, handle.id(), &caps, oid, 100 * K as u64, 100 * K).unwrap();
        assert!(
            back.iter().all(|x| *x == b),
            "{workers} workers, round {round}: [100K, 200K) must hold the later write B"
        );
    }
}

#[test]
fn disjoint_objects_overlap_without_conflict_deferrals() {
    // Four client threads, each hammering its own object: with per-object
    // store locking and range-based conflict tracking, nothing ever
    // defers, and every byte lands where a serial run would put it.
    let (net, handle, server, authz) = boot_workers(4);
    let srv = handle.id();
    let caps = authz.container(OpMask::ALL);
    let setup_ep = net.register(ProcessId::new(0, 0));
    let setup = RpcClient::new(&setup_ep);
    let oids: Vec<ObjId> = (0..4).map(|_| create_obj(&setup, srv, &caps)).collect();
    // A worker retires its ticket *after* its reply is on the wire, and a
    // create is a barrier: each create above may have waited for the one
    // before it, and a write sent the moment the last create was acked
    // could — correctly — wait for that. Let the creates retire and count
    // from here, so every deferral counted is a cross-object one.
    let in_flight = net.obs().gauge("storage.in_flight");
    while in_flight.get() != 0 {
        std::thread::yield_now();
    }
    let defers_before = server.stats().conflict_defers.get();

    const STRIDE: usize = 8 * 1024;
    std::thread::scope(|s| {
        for (t, oid) in oids.iter().enumerate() {
            let (net, caps) = (&net, &caps);
            let oid = *oid;
            s.spawn(move || {
                let ep = net.register(ProcessId::new(10 + t as u32, 0));
                let client = RpcClient::new(&ep);
                for i in 0..20u64 {
                    let payload = vec![(t as u8) ^ (i as u8); STRIDE];
                    let n =
                        write_obj(&client, &ep, srv, caps, oid, i * STRIDE as u64, &payload, None)
                            .unwrap();
                    assert_eq!(n, STRIDE as u64);
                }
            });
        }
    });

    // Taken before the read-back: a whole-object read depends on that
    // object's last write.
    let defers = server.stats().conflict_defers.get() - defers_before;
    let ep = net.register(ProcessId::new(90, 0));
    let client = RpcClient::new(&ep);
    for (t, oid) in oids.iter().enumerate() {
        let back = read_obj(&client, &ep, srv, &caps, *oid, 0, 20 * STRIDE).unwrap();
        assert_eq!(back.len(), 20 * STRIDE);
        for i in 0..20usize {
            assert!(
                back[i * STRIDE..(i + 1) * STRIDE].iter().all(|b| *b == (t as u8) ^ (i as u8)),
                "object {t} stripe {i} corrupted"
            );
        }
    }
    assert_eq!(server.stats().writes.get(), 80);
    assert_eq!(defers, 0, "disjoint objects must never wait on each other");
}

#[test]
fn single_worker_reproduces_serial_semantics() {
    // `workers = 1` is the paper-faithful serial loop: two racing clients
    // writing the same multi-chunk range can never tear, and nothing can
    // ever defer (each request completes before the next is popped).
    let (net, handle, server, authz) = boot_workers(1);
    let srv = handle.id();
    let caps = authz.container(OpMask::ALL);
    let setup_ep = net.register(ProcessId::new(0, 0));
    let setup = RpcClient::new(&setup_ep);
    let oid = create_obj(&setup, srv, &caps);

    let size = 300 * 1024;
    std::thread::scope(|s| {
        for t in 0..2u32 {
            let (net, caps) = (&net, &caps);
            s.spawn(move || {
                let ep = net.register(ProcessId::new(10 + t, 0));
                let client = RpcClient::new(&ep);
                for i in 0..8u32 {
                    let payload = vec![(t * 16 + i) as u8; size];
                    write_obj(&client, &ep, srv, caps, oid, 0, &payload, None).unwrap();
                }
            });
        }
    });

    let ep = net.register(ProcessId::new(90, 0));
    let client = RpcClient::new(&ep);
    let back = read_obj(&client, &ep, srv, &caps, oid, 0, size).unwrap();
    let first = back[0];
    assert!(back.iter().all(|b| *b == first), "serial loop must never tear a write");
    assert_eq!(server.stats().writes.get(), 16);
    assert_eq!(server.stats().conflict_defers.get(), 0, "one worker never defers");
}
