//! The `micro` and `cluster` rows of the per-layer table: each layer's
//! public API timed in isolation, as the median of 20 batches.
//!
//! These are what a layer costs with nothing else on the machine; the
//! workloads say how much of that reaches the user. The two `cluster`
//! groups re-measure the `BENCH_recovery` and `BENCH_replication` tables
//! (64 KiB writes, one client, one server) as medians instead of the
//! single shots those files hold.

use std::path::Path;
use std::sync::{Arc, OnceLock};
use std::time::Instant;

use bytes::Bytes;
use lwfs_auth::{AuthConfig, AuthService, ManualClock, MockKerberos};
use lwfs_authz::{AuthzConfig, AuthzService, CredVerifier};
use lwfs_cap::{CapClaims, CapIssuer, LocalCapVerifier};
use lwfs_core::{ClusterConfig, LwfsCluster};
use lwfs_fabric::frame::{FabricMsg, FrameReader};
use lwfs_fabric::{FabricConfig, Manifest, SocketFabric};
use lwfs_portals::{spawn_service, Endpoint, MdOptions, MemDesc, Network, RpcClient, Service};
use lwfs_proto::{
    Capability, CapabilityBody, ContainerId, Decode as _, Encode as _, Lifetime, MdHandle, NodeId,
    ObjId, OpMask, OpNum, PrincipalId, ProcessId, Reply, ReplyBody, Request, RequestBody,
    Signature,
};
use lwfs_storage::{ObjectStore, StorageConfig, StoreConfig};
use lwfs_wal::{SyncPolicy, Wal, WalConfig, WalRecord};

use crate::run::Budget;
use crate::workloads::{login, STORAGE_WORKERS};

/// Batches per row; the row is their median.
const BATCHES: usize = 20;
const KIB: usize = 1024;

type Rows = Vec<(&'static str, f64)>;

/// Iterations per batch, shrunk with `--scale` so the smoke test stays
/// quick. Timed runs always use the full count.
#[derive(Clone, Copy)]
struct Size(f64);

impl Size {
    fn iters(self, full: u64) -> u64 {
        ((full as f64 * self.0).ceil() as u64).max(1)
    }
}

/// Nanoseconds per call of `f`, over `iters` back-to-back calls.
fn per_iter_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    let t = Instant::now();
    for _ in 0..iters {
        f();
    }
    t.elapsed().as_nanos() as f64 / iters as f64
}

/// Median over [`BATCHES`] calls of `batch`, which returns ns per op.
fn median_of_batches(mut batch: impl FnMut() -> f64) -> f64 {
    let mut ns: Vec<f64> = (0..BATCHES).map(|_| batch()).collect();
    ns.sort_by(f64::total_cmp);
    (ns[BATCHES / 2 - 1] + ns[BATCHES / 2]) / 2.0
}

/// The common case: nothing to set up or tear down per batch.
fn median_ns(iters: u64, mut f: impl FnMut()) -> f64 {
    median_of_batches(|| per_iter_ns(iters, &mut f))
}

fn sample_cap() -> Capability {
    Capability {
        body: CapabilityBody {
            container: ContainerId(7),
            ops: OpMask::WRITE,
            principal: PrincipalId(1),
            issuer_epoch: 1,
            lifetime: Lifetime::UNBOUNDED,
            serial: 42,
        },
        sig: Signature([9; 16]),
    }
}

fn proto(size: Size, rows: &mut Rows) {
    let req = Request::new(
        OpNum(77),
        ProcessId::new(3, 0),
        RequestBody::Write {
            txn: None,
            cap: sample_cap(),
            obj: ObjId(12),
            offset: 0,
            len: 4 << 20,
            md: MdHandle { match_bits: 0xFEED },
        },
    );
    let wire = req.to_bytes();
    let reply = Reply::new(OpNum(77), ReplyBody::WriteDone { len: 4 << 20 });
    let reply_wire = reply.to_bytes();
    let n = size.iters(2000);
    let bb = std::hint::black_box::<Bytes>;
    rows.push(("proto.encode_write_req_ns", median_ns(n, || drop(bb(req.to_bytes())))));
    rows.push((
        "proto.decode_write_req_ns",
        median_ns(n, || drop(std::hint::black_box(Request::from_bytes(wire.clone())))),
    ));
    rows.push(("proto.encode_reply_ns", median_ns(n, || drop(bb(reply.to_bytes())))));
    rows.push((
        "proto.decode_reply_ns",
        median_ns(n, || drop(std::hint::black_box(Reply::from_bytes(reply_wire.clone())))),
    ));
}

struct Echo;

impl Service for Echo {
    fn handle(&mut self, _ep: &Endpoint, _req: &Request) -> ReplyBody {
        ReplyBody::Pong
    }
}

/// RPC round trip and 256 KiB one-sided moves between `near` and an echo
/// service plus a posted descriptor on `far` — the same network for the
/// portals rows, a socket-linked sibling for the fabric rows.
fn transport_rows(
    size: Size,
    near: &Network,
    far: &Network,
    (rtt, put, get): (&'static str, Option<&'static str>, &'static str),
    rows: &mut Rows,
) -> Result<(), String> {
    let svc = spawn_service(far, ProcessId::new(10, 0), Echo);
    let target = far.register(ProcessId::new(10, 1));
    let ep = near.register(ProcessId::new(0, 0));
    let client = RpcClient::new(&ep);
    let mut failed: Option<String> = None;
    let mut check = |what: &str, r: Result<(), lwfs_proto::Error>| {
        if let Err(e) = r {
            failed.get_or_insert(format!("{what}: {e}"));
        }
    };

    let ping = || client.call(svc.id(), RequestBody::Ping).map(drop);
    check(rtt, ping()); // dial and learn routes before timing
    rows.push((rtt, median_ns(size.iters(64), || check(rtt, ping())) / 1e3));

    let len = 256 * KIB;
    let mb = 0x256;
    let md =
        MemDesc::zeroed(len, MdOptions { deliver_events: false, ..MdOptions::read_write_events() });
    check("post_md", target.post_md(mb, md));
    let data = vec![7u8; len];
    let n = size.iters(8);
    if let Some(put) = put {
        rows.push((put, median_ns(n, || check(put, ep.put(target.id(), mb, 0, &data))) / 1e3));
    }
    rows.push((get, median_ns(n, || check(get, ep.get(target.id(), mb, 0, len).map(drop))) / 1e3));
    svc.shutdown();
    failed.map_or(Ok(()), Err)
}

fn portals(size: Size, rows: &mut Rows) -> Result<(), String> {
    let net = Network::default();
    let names = ("portals.rpc_rtt_us", Some("portals.put_256k_us"), "portals.get_256k_us");
    transport_rows(size, &net, &net, names, rows)
}

fn fabric(size: Size, rows: &mut Rows) -> Result<(), String> {
    let put = FabricMsg::Put {
        token: 1,
        from: ProcessId::new(0, 0),
        to: ProcessId::new(1100, 0),
        match_bits: 0x2000_0000_0000_0001,
        offset: 0,
        data: Bytes::from(vec![5u8; 64 * KIB]),
    };
    let send = FabricMsg::Send {
        from: ProcessId::new(0, 0),
        to: ProcessId::new(1100, 0),
        match_bits: 1,
        data: Bytes::from(vec![5u8; 128]),
    };
    let bb = std::hint::black_box::<Bytes>;
    rows.push((
        "fabric.frame_encode_64k_us",
        median_ns(size.iters(64), || drop(bb(put.to_frame()))) / 1e3,
    ));
    let frame = put.to_frame();
    let mut reader = FrameReader::new();
    let mut bad_frame = false;
    rows.push((
        "fabric.frame_decode_64k_us",
        median_ns(size.iters(64), || {
            reader.feed(&frame);
            bad_frame |= !matches!(reader.next_msg(), Ok(Some(_)));
        }) / 1e3,
    ));
    if bad_frame {
        return Err("fabric frame did not decode".into());
    }
    rows.push((
        "fabric.frame_encode_128b_ns",
        median_ns(size.iters(2000), || drop(bb(send.to_frame()))),
    ));

    // Two sibling networks over loopback, wired the way LwfsCluster wires
    // a service node and the compute node.
    let err = |e: lwfs_proto::Error| format!("fabric setup: {e}");
    let near = Network::default();
    let far = near.sibling();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let mut manifest = Manifest::new();
    manifest.insert(NodeId(10), listener.local_addr().map_err(|e| e.to_string())?);
    let cfg = FabricConfig::default;
    let far_fabric =
        SocketFabric::attach_with_listener(&far, NodeId(10), listener, manifest.clone(), cfg())
            .map_err(err)?;
    let near_fabric = SocketFabric::attach(&near, NodeId(999), manifest, cfg()).map_err(err)?;
    let names = ("fabric.rpc_rtt_us", None, "fabric.get_256k_us");
    let result = transport_rows(size, &near, &far, names, rows);
    near_fabric.shutdown();
    far_fabric.shutdown();
    result
}

fn security(size: Size, rows: &mut Rows) -> Result<(), String> {
    let issuer = CapIssuer::from_cluster_seed(1);
    let claims = CapClaims::container(ContainerId(7), OpMask::WRITE, Lifetime::UNBOUNDED);
    rows.push((
        "cap.mint_us",
        median_ns(size.iters(8), || drop(std::hint::black_box(issuer.mint(claims)))) / 1e3,
    ));
    let token = issuer.mint(claims);
    let verifier = LocalCapVerifier::new(issuer.public(), 0);
    let mut denied = false;
    let mut check = |v: &LocalCapVerifier| {
        denied |= v.check(&token, OpMask::WRITE, ContainerId(7), 12, 1, 0).is_err();
    };
    rows.push((
        "cap.verify_cold_us",
        median_ns(size.iters(8), || {
            verifier.invalidate_all();
            check(&verifier);
        }) / 1e3,
    ));
    rows.push(("cap.verify_cached_ns", median_ns(size.iters(2000), || check(&verifier))));
    if denied {
        return Err("a freshly minted token was refused".into());
    }

    let kdc = Arc::new(MockKerberos::new("BENCH", 1));
    kdc.add_user("app", "secret", PrincipalId(1));
    let clock = Arc::new(ManualClock::new());
    let auth = Arc::new(AuthService::new(
        AuthConfig::default(),
        Arc::clone(&kdc) as Arc<dyn lwfs_auth::AuthMechanism>,
        clock.clone(),
    ));
    let e = |what: &str| format!("security setup: {what}");
    let ticket = kdc.kinit("app", "secret").map_err(|_| e("kinit"))?;
    let cred = auth.get_cred(&ticket).map_err(|_| e("get_cred"))?;
    let authz = AuthzService::new(
        AuthzConfig::default(),
        Arc::new(Arc::clone(&auth)) as Arc<dyn CredVerifier>,
        clock,
    );
    let cid = authz.create_container(&cred).map_err(|_| e("create_container"))?;
    let mut refused = false;
    rows.push((
        "authz.get_caps_us",
        median_ns(size.iters(200), || {
            refused |= authz.get_caps(&cred, cid, OpMask::WRITE).is_err()
        }) / 1e3,
    ));
    let caps = authz.get_caps(&cred, cid, OpMask::WRITE).map_err(|_| e("get_caps"))?;
    let site = ProcessId::new(1100, 0);
    rows.push((
        "authz.verify_us",
        median_ns(size.iters(200), || refused |= authz.verify_caps(&caps, site).is_err()) / 1e3,
    ));
    if refused {
        return Err("the authorization service refused its own capability".into());
    }
    Ok(())
}

fn store(size: Size, rows: &mut Rows) -> Result<(), String> {
    let store = ObjectStore::new(StoreConfig::default());
    let cid = ContainerId(1);
    let chunk = vec![3u8; 256 * KIB];
    let mut failed = false;

    let n = size.iters(2000);
    rows.push((
        "storage.store_create_ns",
        median_of_batches(|| {
            let mut made = Vec::with_capacity(n as usize);
            let ns = per_iter_ns(n, || made.extend(store.create(cid, None, 0)));
            failed |= made.len() != n as usize;
            made.into_iter().for_each(|oid| failed |= store.remove(cid, oid).is_err());
            ns
        }),
    ));

    let obj = store.create(cid, None, 0).map_err(|e| e.to_string())?;
    store.write(cid, obj, 0, &chunk, 0).map_err(|e| e.to_string())?;
    rows.push((
        "storage.store_write_256k_us",
        median_ns(size.iters(32), || failed |= store.write(cid, obj, 0, &chunk, 1).is_err()) / 1e3,
    ));
    rows.push((
        "storage.store_read_256k_us",
        median_ns(size.iters(32), || {
            failed |= store
                .read(cid, obj, 0, chunk.len() as u64)
                .map_or(true, |d| d.len() != chunk.len());
        }) / 1e3,
    ));

    // A fresh object grown chunk by chunk: the path an epoch's write takes.
    let n = size.iters(2);
    rows.push((
        "storage.store_grow_4m_ms",
        median_of_batches(|| {
            let mut made = Vec::new();
            let ns = per_iter_ns(n, || {
                let Ok(oid) = store.create(cid, None, 0) else { return failed = true };
                for i in 0..16u64 {
                    failed |= store.write(cid, oid, i * chunk.len() as u64, &chunk, 1).is_err();
                }
                made.push(oid);
            });
            made.into_iter().for_each(|oid| failed |= store.remove(cid, oid).is_err());
            ns
        }) / 1e6,
    ));
    if failed {
        return Err("an object-store call failed in the micro table".into());
    }
    Ok(())
}

fn write_record(len: usize) -> WalRecord {
    WalRecord::Write {
        txn: None,
        container: ContainerId(1),
        obj: ObjId(1),
        offset: 0,
        data: Bytes::from(vec![0x5Au8; len]),
        now: 1,
    }
}

fn wal(size: Size, tmp: &Path, rows: &mut Rows) -> Result<(), String> {
    let rec64k = write_record(64 * KIB);
    let rec256 = write_record(256);
    rows.push((
        "wal.frame_64k_us",
        median_ns(size.iters(64), || drop(std::hint::black_box(lwfs_wal::frame_record(&rec64k))))
            / 1e3,
    ));
    let obs = lwfs_obs::Registry::new();
    let mut failed: Option<String> = None;
    let mut append_row = |name: &'static str, sync: SyncPolicy, rec: &WalRecord, iters: u64| {
        let dir = tmp.join(name);
        let us = Wal::open(WalConfig { sync, ..WalConfig::new(dir.clone()) }, &obs)
            .map(|wal| {
                median_ns(iters, || {
                    if let Err(e) = wal.append(rec) {
                        failed.get_or_insert(format!("{name}: {e}"));
                    }
                }) / 1e3
            })
            .unwrap_or_else(|e| {
                failed.get_or_insert(format!("{name}: {e}"));
                0.0
            });
        let _ = std::fs::remove_dir_all(dir);
        (name, us)
    };
    rows.push(append_row("wal.append_64k_os_us", SyncPolicy::Os, &rec64k, size.iters(16)));
    // One group of 64 per batch, so every full-size batch pays one fsync.
    let group = size.iters(64);
    rows.push(append_row("wal.append_64k_every64_us", SyncPolicy::EveryN(64), &rec64k, group));
    rows.push(append_row("wal.append_64k_always_us", SyncPolicy::Always, &rec64k, size.iters(4)));
    rows.push(append_row("wal.append_256b_os_us", SyncPolicy::Os, &rec256, size.iters(1000)));
    if let Some(e) = failed {
        return Err(e);
    }

    // Scan (CRC + decode) rate over a 4 MiB log.
    let dir = tmp.join("wal.replay");
    let records = size.iters(64);
    let replay = (|| -> Result<f64, lwfs_proto::Error> {
        let wal =
            Wal::open(WalConfig { sync: SyncPolicy::Os, ..WalConfig::new(dir.clone()) }, &obs)?;
        for _ in 0..records {
            wal.append(&rec64k)?;
        }
        wal.sync()?;
        let bytes = (records as usize * 64 * KIB) as f64;
        let mut short = false;
        let ns = median_ns(1, || {
            short |= lwfs_wal::read_log(&dir).map_or(true, |log| log.stats.records != records);
        });
        if short {
            return Err(lwfs_proto::Error::Internal("log scan lost records".into()));
        }
        Ok(bytes / 1e6 / (ns / 1e9))
    })();
    let _ = std::fs::remove_dir_all(dir);
    rows.push(("wal.replay_mb_s", replay.map_err(|e| format!("wal.replay_mb_s: {e}"))?));
    Ok(())
}

/// Median latency of a 64 KiB write from one client to one storage group.
fn cluster_write_us(
    size: Size,
    replication: usize,
    wal: Option<WalConfig>,
) -> Result<f64, lwfs_proto::Error> {
    const SLOTS: u64 = 64;
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication,
        storage: StorageConfig { workers: STORAGE_WORKERS, wal, ..Default::default() },
        ..Default::default()
    });
    let clients = login(&cluster, 0, 1)?;
    let client = &clients[0];
    let cid = client.create_container()?;
    let caps = client.get_caps(cid, OpMask::ALL)?;
    let obj = client.create_obj(0, &caps, None, None)?;
    let payload = vec![0x7Eu8; 64 * KIB];
    let mut i = 0u64;
    let mut failed = None;
    let mut write = || {
        // Cycle over a bounded object: the first lap grows it (as the old
        // single-shot benches did), later laps overwrite.
        let offset = (i % SLOTS) * payload.len() as u64;
        i += 1;
        if let Err(e) = client.write(0, &caps, None, obj, offset, &payload) {
            failed.get_or_insert(e);
        }
    };
    (0..4).for_each(|_| write());
    let us = median_ns(size.iters(8), write) / 1e3;
    failed.map_or(Ok(us), Err)
}

fn cluster_rows(size: Size, tmp: &Path, rows: &mut Rows) -> Result<(), String> {
    let policies = [
        ("wal.write_64k_none_us", None),
        ("wal.write_64k_os_us", Some(SyncPolicy::Os)),
        ("wal.write_64k_every64_us", Some(SyncPolicy::EveryN(64))),
        ("wal.write_64k_always_us", Some(SyncPolicy::Always)),
    ];
    for (name, sync) in policies {
        let dir = tmp.join(name);
        let wal = sync.map(|sync| WalConfig { sync, ..WalConfig::new(dir.clone()) });
        let us = cluster_write_us(size, 1, wal);
        let _ = std::fs::remove_dir_all(dir);
        rows.push((name, us.map_err(|e| format!("{name}: {e}"))?));
    }
    let factors = [
        ("replica.write_64k_r1_us", 1),
        ("replica.write_64k_r2_us", 2),
        ("replica.write_64k_r3_us", 3),
    ];
    for (name, r) in factors {
        rows.push((name, cluster_write_us(size, r, None).map_err(|e| format!("{name}: {e}"))?));
    }
    Ok(())
}

/// Every `micro` and `cluster` row. Measured once per process: the rows do
/// not depend on the workload, so a process that runs several (the smoke
/// test) reuses the first table.
pub fn table(tmp_root: &Path, budget: Budget) -> Result<Rows, String> {
    static TABLE: OnceLock<Result<Rows, String>> = OnceLock::new();
    TABLE.get_or_init(|| measure(tmp_root, budget)).clone()
}

fn measure(tmp_root: &Path, budget: Budget) -> Result<Rows, String> {
    let size = Size(budget.size_factor());
    let tmp = tmp_root.join(format!("lwfs-benchmark-micro-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&tmp);
    std::fs::create_dir_all(&tmp).map_err(|e| format!("creating {}: {e}", tmp.display()))?;
    let mut rows = Rows::new();
    let result = (|| {
        proto(size, &mut rows);
        portals(size, &mut rows)?;
        fabric(size, &mut rows)?;
        security(size, &mut rows)?;
        store(size, &mut rows)?;
        wal(size, &tmp, &mut rows)?;
        cluster_rows(size, &tmp, &mut rows)
    })();
    let _ = std::fs::remove_dir_all(&tmp);
    result.map(|()| rows)
}
