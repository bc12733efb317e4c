//! Self-certifying capabilities, end to end (DESIGN §16).
//!
//! These tests boot full clusters in `Signed` mode and verify the mode's
//! load-bearing claims: signed writes reach storage without a single
//! authorization-server message on the data path; tampered and stale-epoch
//! tokens are refused locally; a request without a token is refused, never
//! downgraded to verify-through; and replication ships authenticate
//! cryptographically. The transport-sensitive invariants run over both
//! the in-process substrate and real sockets.

use lwfs::cap::CapMode;
use lwfs::core::TransportKind;
use lwfs::prelude::*;

fn boot(cap_mode: CapMode, transport: TransportKind, replication: usize) -> LwfsCluster {
    LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication,
        cap_mode,
        transport,
        ..Default::default()
    })
}

fn login(cluster: &LwfsCluster, client: &mut LwfsClient) {
    let ticket = cluster.kdc().kinit("app", "secret").unwrap();
    client.get_cred(ticket).unwrap();
}

/// The tentpole claim: in signed mode a write storm completes with ZERO
/// messages from the authorization server on the data path — every check
/// is a local ed25519 verify at storage.
fn signed_data_path_never_calls_authz(transport: TransportKind) {
    let cluster = boot(CapMode::Signed, transport, 1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    assert!(caps.has_tokens(), "signed issuer pairs every capability with a token");
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    let stats = cluster.network().stats();
    stats.reset();
    for i in 0..50u64 {
        client.write(0, &caps, None, obj, i * 8, b"no rpc!!").unwrap();
    }
    assert_eq!(client.read(0, &caps, obj, 0, 8).unwrap(), b"no rpc!!");
    assert_eq!(
        stats.sent_by(cluster.addrs().authz),
        0,
        "authorization server spoke during a signed write storm"
    );

    let frame = cluster.network().obs().frame(0);
    assert!(
        frame.counter("cap.cache.hits").unwrap_or(0) > 0,
        "repeat tokens hit the verdict cache"
    );
    assert!(frame.histogram("cap.verify_ns").is_some(), "verify cost is observable");
}

#[test]
fn signed_data_path_never_calls_authz_in_process() {
    signed_data_path_never_calls_authz(TransportKind::InProcess);
}

#[test]
fn signed_data_path_never_calls_authz_over_sockets() {
    signed_data_path_never_calls_authz(TransportKind::Tcp);
}

#[test]
fn tampered_token_is_refused_locally() {
    let cluster = boot(CapMode::Signed, TransportKind::InProcess, 1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    // Flip one bit in every token (ops field region) and re-pair: the
    // signature no longer covers the claims, so storage must refuse.
    let bent: Vec<bytes::Bytes> = caps
        .iter()
        .map(|c| {
            let mut t = caps.token_for_op(c.ops()).to_vec();
            t[40] ^= 0x01;
            bytes::Bytes::from(t)
        })
        .collect();
    let forged = CapSet::with_tokens(caps.iter().copied().collect(), bent);
    assert_eq!(
        client.write(0, &forged, None, obj, 0, b"forged").unwrap_err(),
        Error::BadCapability,
        "CRC/signature framing refuses the tampered blob"
    );
    // The genuine set still works — refusal was the token, not the state.
    client.write(0, &caps, None, obj, 0, b"honest").unwrap();
}

#[test]
fn signed_mode_closes_the_unsigned_downgrade() {
    let cluster = boot(CapMode::Signed, TransportKind::InProcess, 1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();

    // A client presents valid capabilities but no tokens: there is no
    // verify-through rescue, on the write path or the read path.
    let unsigned = CapSet::new(caps.iter().copied().collect());
    assert_eq!(
        client.write(0, &unsigned, None, obj, 0, b"naked").unwrap_err(),
        Error::AccessDenied,
        "a token-less write was downgraded to verify-through"
    );
    client.write(0, &caps, None, obj, 0, b"signed").unwrap();
    assert_eq!(client.read(0, &unsigned, obj, 0, 6).unwrap_err(), Error::AccessDenied);
    assert_eq!(client.read(0, &caps, obj, 0, 6).unwrap(), b"signed");
}

/// Revocation stays near-immediate (the paper's §5 claim) in signed mode:
/// a policy change that revokes bits bumps the container's epoch, the
/// bump is pushed to storage synchronously, and tokens minted before it
/// are refused on their next use — no waiting for expiry.
fn revocation_rejects_stale_tokens(transport: TransportKind) {
    let cluster = boot(CapMode::Signed, transport, 1);
    let mut owner = cluster.client(0, 0);
    login(&cluster, &mut owner);
    let cid = owner.create_container().unwrap();
    let caps = owner.get_caps(cid, OpMask::ALL).unwrap();
    let obj = owner.create_obj(0, &caps, None, None).unwrap();
    owner.write(0, &caps, None, obj, 0, b"pre-revocation").unwrap();

    // Revoking WRITE for this principal re-epochs the container…
    owner.mod_policy(&caps, PrincipalId(1), OpMask::NONE, OpMask::WRITE).unwrap();

    // …so the old token — cryptographically valid, lifetime unexpired —
    // is now refused locally for carrying a stale epoch.
    assert_eq!(
        owner.write(0, &caps, None, obj, 0, b"post-revocation").unwrap_err(),
        Error::CapabilityRevoked
    );
    let frame = cluster.network().obs().frame(0);
    assert!(
        frame.counter("cap.cache.stale_epoch").unwrap_or(0) > 0,
        "the refusal was the epoch check, and it is observable"
    );
}

#[test]
fn revocation_rejects_stale_tokens_in_process() {
    revocation_rejects_stale_tokens(TransportKind::InProcess);
}

#[test]
fn revocation_rejects_stale_tokens_over_sockets() {
    revocation_rejects_stale_tokens(TransportKind::Tcp);
}

/// Replication under signed mode: every ship carries the primary's
/// group-scoped holder-bound token, the backup verifies it locally, and
/// the write path works end to end — ship-before-ack preserved.
fn signed_ships_replicate(transport: TransportKind) {
    let cluster = boot(CapMode::Signed, transport, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"signed ship").unwrap();

    let backup = cluster.storage_server(1);
    assert!(backup.replica().is_backup());
    assert_eq!(backup.store().bytes_stored(), 11, "acked bytes are on the backup");
    let frame = cluster.network().obs().frame(0);
    assert_eq!(frame.counter("storage.ship_failures").unwrap_or(0), 0);
}

#[test]
fn signed_ships_replicate_in_process() {
    signed_ships_replicate(TransportKind::InProcess);
}

#[test]
fn signed_ships_replicate_over_sockets() {
    signed_ships_replicate(TransportKind::Tcp);
}

#[test]
fn rogue_ship_without_token_is_refused() {
    use lwfs::portals::RpcClient;
    use lwfs::proto::{OpNum, ProcessId, RequestBody};

    let cluster = boot(CapMode::Signed, TransportKind::InProcess, 2);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let cid = client.create_container().unwrap();
    let caps = client.get_caps(cid, OpMask::ALL).unwrap();
    let obj = client.create_obj(0, &caps, None, None).unwrap();
    client.write(0, &caps, None, obj, 0, b"real traffic").unwrap();

    // A rogue endpoint reads the topology and re-plays a plausible ship
    // at the backup — right group, right claimed epoch, no signed token.
    // The missing token is refused before anything is logged or applied.
    let ep = cluster.network().register(ProcessId::new(66, 0));
    let rogue = RpcClient::new(&ep);
    let backup = cluster.addrs().storage[1];
    let err = rogue
        .call(
            backup,
            RequestBody::ReplShip {
                group: 0,
                epoch: 1,
                seq: 999,
                origin: ProcessId::new(66, 0),
                origin_opnum: OpNum(1),
                records: vec![bytes::Bytes::from_static(b"junk")],
                reply: bytes::Bytes::new(),
            },
        )
        .unwrap_err();
    assert_eq!(err, Error::AccessDenied, "rogue ship applied!");
    assert_eq!(
        cluster.storage_server(1).store().bytes_stored(),
        12,
        "backup holds exactly the honest bytes"
    );
}

/// The authorization service's first-contact cache answers only for the
/// credential the authentication service verified. Once the genuine
/// credential has warmed it, the same body under a zero MAC, or with a
/// stretched lifetime, must still be judged — and refused.
fn altered_credentials_are_refused_past_the_cache(transport: TransportKind) {
    let cluster = boot(CapMode::Legacy, transport, 1);
    let mut client = cluster.client(0, 0);
    login(&cluster, &mut client);
    let genuine = client.current_cred().unwrap();
    let cid = client.create_container().unwrap();
    client.get_caps(cid, OpMask::READ).unwrap();

    let zero_mac = Credential { sig: lwfs::proto::Signature::ZERO, ..genuine };
    let mut stretched = genuine;
    stretched.body.lifetime.not_after = u64::MAX;
    for (what, cred) in [("zero MAC", zero_mac), ("stretched lifetime", stretched)] {
        client.adopt_cred(cred);
        assert_eq!(client.create_container().unwrap_err(), Error::BadCredential, "{what}");
        assert_eq!(client.get_caps(cid, OpMask::READ).unwrap_err(), Error::BadCredential, "{what}");
    }
    client.adopt_cred(genuine);
    client.get_caps(cid, OpMask::READ).unwrap();
}

#[test]
fn altered_credentials_are_refused_past_the_cache_in_process() {
    altered_credentials_are_refused_past_the_cache(TransportKind::InProcess);
}

#[test]
fn altered_credentials_are_refused_past_the_cache_over_sockets() {
    altered_credentials_are_refused_past_the_cache(TransportKind::Tcp);
}
