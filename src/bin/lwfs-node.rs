//! `lwfs-node` — one LWFS service as one OS process.
//!
//! [`ProcessCluster`](lwfs_core::ProcessCluster) spawns one of these per
//! service node: the child loads the cluster manifest, attaches a
//! [`SocketFabric`] on its own nid (binding its manifest address), spawns
//! the requested service behind it, prints `READY <nid>` on stdout, and
//! then serves until stdin reaches EOF — the launcher holds the write end
//! open for the child's lifetime, so an orphaned child exits when its
//! parent dies instead of lingering.
//!
//! ```text
//! lwfs-node --role storage --nid 1100 --index 0 --manifest /tmp/m \
//!           --groups 2 --replication 2 --users app:secret:1
//! ```
//!
//! Every process re-creates the deterministic mock KDC
//! ([`KDC_REALM`]/[`KDC_SEED`]) with the same user set, so tickets minted
//! by the launcher verify at the authentication node without any key
//! distribution.

#![forbid(unsafe_code)]

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use lwfs_auth::{AuthConfig, AuthServer, AuthService, Clock, MockKerberos, SystemClock};
use lwfs_authz::{AuthzConfig, AuthzServer, AuthzService, CachedCapVerifier, RemoteCredVerifier};
use lwfs_cap::{CapClaims, CapIssuer, CapMode};
use lwfs_core::cluster::{CAP_SEED, KDC_REALM, KDC_SEED};
use lwfs_core::{ClusterMonitor, MonitorConfig};
use lwfs_fabric::{FabricConfig, Manifest, SocketFabric};
use lwfs_naming::NamingServer;
use lwfs_portals::{Network, NetworkConfig};
use lwfs_proto::{GroupMap, NodeId, PrincipalId, ProcessId};
use lwfs_replica::ReplicaConfig;
use lwfs_storage::{SignedCapConfig, StorageConfig, StorageServer};
use lwfs_txn::TxnLockServer;
use lwfs_wal::WalConfig;

struct Args {
    role: String,
    nid: u32,
    manifest: PathBuf,
    groups: usize,
    replication: usize,
    index: usize,
    users: Vec<(String, String, PrincipalId)>,
    wal_dir: Option<PathBuf>,
    workers: Option<usize>,
    cap_mode: CapMode,
    clock_skew_ms: u64,
    flight_threshold_us: Option<u64>,
    flight_top_k: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut role = None;
    let mut nid = None;
    let mut manifest = None;
    let mut groups = 1usize;
    let mut replication = 1usize;
    let mut index = 0usize;
    let mut users = Vec::new();
    let mut wal_dir = None;
    let mut workers = None;
    let mut cap_mode = CapMode::default();
    let mut clock_skew_ms = 1000u64;
    let mut flight_threshold_us = None;
    let mut flight_top_k = None;

    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--role" => role = Some(value()?),
            "--nid" => nid = Some(value()?.parse::<u32>().map_err(|e| format!("--nid: {e}"))?),
            "--manifest" => manifest = Some(PathBuf::from(value()?)),
            "--groups" => groups = value()?.parse().map_err(|e| format!("--groups: {e}"))?,
            "--replication" => {
                replication = value()?.parse().map_err(|e| format!("--replication: {e}"))?
            }
            "--index" => index = value()?.parse().map_err(|e| format!("--index: {e}"))?,
            "--wal-dir" => wal_dir = Some(PathBuf::from(value()?)),
            "--workers" => workers = Some(value()?.parse().map_err(|e| format!("--workers: {e}"))?),
            "--cap-mode" => {
                let v = value()?;
                cap_mode = CapMode::parse(&v).ok_or(format!("--cap-mode: unknown mode {v:?}"))?;
            }
            "--clock-skew-ms" => {
                clock_skew_ms = value()?.parse().map_err(|e| format!("--clock-skew-ms: {e}"))?
            }
            "--flight-threshold-us" => {
                flight_threshold_us =
                    Some(value()?.parse().map_err(|e| format!("--flight-threshold-us: {e}"))?)
            }
            "--flight-top-k" => {
                flight_top_k = Some(value()?.parse().map_err(|e| format!("--flight-top-k: {e}"))?)
            }
            "--users" => {
                for entry in value()?.split(',').filter(|s| !s.is_empty()) {
                    let mut parts = entry.splitn(3, ':');
                    let (Some(name), Some(pw), Some(id)) =
                        (parts.next(), parts.next(), parts.next())
                    else {
                        return Err(format!("--users entry {entry:?} is not name:pw:principal"));
                    };
                    let id = id.parse::<u64>().map_err(|e| format!("--users principal: {e}"))?;
                    users.push((name.to_string(), pw.to_string(), PrincipalId(id)));
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        role: role.ok_or("--role is required")?,
        nid: nid.ok_or("--nid is required")?,
        manifest: manifest.ok_or("--manifest is required")?,
        groups,
        replication,
        index,
        users,
        wal_dir,
        workers,
        cap_mode,
        clock_skew_ms,
        flight_threshold_us,
        flight_top_k,
    })
}

/// Group-major physical storage addresses, identical to the layout the
/// launcher records in [`ClusterAddrs`](lwfs_core::ClusterAddrs).
fn storage_addrs(groups: usize, r: usize) -> Vec<ProcessId> {
    (0..groups * r).map(|i| ProcessId::new(1100 + i as u32, 0)).collect()
}

fn run(args: Args) -> Result<(), String> {
    let manifest = Manifest::load(&args.manifest).map_err(|e| format!("loading manifest: {e}"))?;
    // Flight-recorder knobs land on this process's registry: what the
    // monitor's `GetFlightTraces` scrape can recover from this node.
    let mut obs = lwfs_obs::ObsConfig::default();
    if let Some(us) = args.flight_threshold_us {
        obs.flight_threshold_ns = us.saturating_mul(1000);
    }
    if let Some(k) = args.flight_top_k {
        obs.flight_top_k = k;
    }
    let net = Network::new(NetworkConfig { obs, ..Default::default() });
    let fabric = SocketFabric::attach(&net, NodeId(args.nid), manifest, FabricConfig::default())
        .map_err(|e| format!("attaching fabric: {e}"))?;

    // Epoch-anchored: lifetimes minted by the authz process must compare
    // against the same timeline at every storage process. A per-process
    // `WallClock` (anchored at its own start) would make fresh capabilities
    // look not-yet-valid at later-started nodes.
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let r = args.replication.max(1);
    let authz_id = ProcessId::new(1001, 0);

    // Spawn the requested service; handles must live until shutdown, so
    // each arm parks its handle in this holder.
    let _service: Box<dyn std::any::Any> = match args.role.as_str() {
        "auth" => {
            let kdc = Arc::new(MockKerberos::new(KDC_REALM, KDC_SEED));
            for (name, pw, principal) in &args.users {
                kdc.add_user(name, pw, *principal);
            }
            let svc = AuthService::new(
                AuthConfig::default(),
                kdc as Arc<dyn lwfs_auth::AuthMechanism>,
                Arc::clone(&clock),
            );
            Box::new(AuthServer::spawn(&net, ProcessId::new(args.nid, 0), svc))
        }
        "authz" => {
            // First-contact credentials are verified at the authentication
            // *process* over the wire: pid 1 on this node is the verifier's
            // private client endpoint, distinct from the service at pid 0.
            let verifier = RemoteCredVerifier::new(
                net.register(ProcessId::new(args.nid, 1)),
                ProcessId::new(1000, 0),
            );
            let mut svc = AuthzService::new(
                AuthzConfig::default(),
                Arc::new(verifier) as Arc<dyn lwfs_authz::CredVerifier>,
                Arc::clone(&clock),
            );
            if args.cap_mode.signed() {
                // Seed-derived signing key, same determinism story as the
                // KDC: no key distribution step between processes.
                svc = svc.with_issuer(CapIssuer::from_cluster_seed(CAP_SEED), args.cap_mode);
            }
            let (handle, svc) = AuthzServer::spawn(&net, ProcessId::new(args.nid, 0), svc);
            if args.cap_mode.signed() {
                svc.set_enforcement_sites(storage_addrs(args.groups, r));
            }
            Box::new((handle, svc))
        }
        "naming" => Box::new(NamingServer::spawn(&net, ProcessId::new(args.nid, 0))),
        "txnlock" => Box::new(TxnLockServer::spawn(&net, ProcessId::new(args.nid, 0), None)),
        "directory" => {
            let map = GroupMap::grouped(&storage_addrs(args.groups, r), r);
            Box::new(lwfs_replica::spawn_directory(&net, ProcessId::new(args.nid, 0), map))
        }
        "storage" => {
            let addrs = storage_addrs(args.groups, r);
            let i = args.index;
            let sid = addrs[i];
            if sid.nid.0 != args.nid {
                return Err(format!(
                    "--index {i} maps to nid {}, not --nid {}",
                    sid.nid.0, args.nid
                ));
            }
            let mut config = StorageConfig::default();
            if let Some(workers) = args.workers {
                config.workers = workers;
            }
            if let Some(wal_root) = &args.wal_dir {
                config.wal = Some(WalConfig::new(wal_root.join(format!("srv{i}"))));
            }
            if r > 1 {
                let group = (i / r) as u32;
                let replica = if i.is_multiple_of(r) {
                    ReplicaConfig::primary(group, addrs[i + 1..(i / r + 1) * r].to_vec())
                } else {
                    ReplicaConfig::backup(group, addrs[(i / r) * r])
                }
                .with_directory(ProcessId::new(1004, 0));
                config.replica = Some(replica);
            }
            if args.cap_mode.signed() {
                let issuer = CapIssuer::from_cluster_seed(CAP_SEED);
                let ship_token = (r > 1).then(|| {
                    let group = (i / r) as u32;
                    bytes::Bytes::from(issuer.mint(CapClaims::repl_group(group, sid.nid.0)))
                });
                config.signed = Some(SignedCapConfig {
                    public_key: *issuer.public().as_bytes(),
                    ship_token,
                    clock_skew: std::time::Duration::from_millis(args.clock_skew_ms),
                });
            }
            let verifier = CachedCapVerifier::with_registry(sid, authz_id, net.obs());
            Box::new(StorageServer::spawn(&net, sid, config, Some(verifier), Arc::clone(&clock)))
        }
        "monitor" => {
            let mut targets = storage_addrs(args.groups, r);
            targets.push(ProcessId::new(1002, 0));
            targets.push(authz_id);
            if r > 1 {
                targets.push(ProcessId::new(1004, 0));
            }
            Box::new(ClusterMonitor::spawn(&net, targets, MonitorConfig::default()))
        }
        other => return Err(format!("unknown role {other:?}")),
    };

    // Readiness handshake: the launcher blocks on this exact line.
    println!("READY {}", args.nid);

    // Serve until the launcher closes our stdin (or dies, which closes it
    // too). Reading to EOF needs no polling thread.
    let mut sink = Vec::new();
    let _ = std::io::stdin().lock().read_to_end(&mut sink);

    fabric.shutdown();
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!(
                "lwfs-node: {e}\nusage: lwfs-node --role <auth|authz|naming|txnlock|directory|storage|monitor> \
                 --nid N --manifest PATH [--groups G] [--replication R] [--index I] \
                 [--users name:pw:principal,...] [--wal-dir PATH] [--workers N] \
                 [--cap-mode legacy|signed] [--clock-skew-ms MS] \
                 [--flight-threshold-us US] [--flight-top-k K]"
            );
            return ExitCode::FAILURE;
        }
    };
    let role = args.role.clone();
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lwfs-node ({role}): {e}");
            ExitCode::FAILURE
        }
    }
}
