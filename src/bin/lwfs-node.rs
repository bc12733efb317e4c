//! `lwfs-node` — one LWFS service as one OS process.
//!
//! [`ProcessCluster`](lwfs_core::ProcessCluster) spawns one of these per
//! service node: the child loads the cluster manifest, attaches a
//! [`SocketFabric`] on its own nid (binding its manifest address), spawns
//! its service behind it, prints `READY <nid>` on stdout, and then serves
//! until stdin reaches EOF — the launcher holds the write end open for the
//! child's lifetime, so an orphaned child exits when its parent dies
//! instead of lingering.
//!
//! ```text
//! lwfs-node --nid 1100 --manifest /tmp/m --groups 2 --replication 2
//! ```
//!
//! The node's role follows from its nid in the deployment's node table,
//! and its service is built by the same recipe
//! ([`ClusterConfig`]'s default configuration for `groups × replication`)
//! every cluster flavor boots from.

#![forbid(unsafe_code)]

use std::io::Read;
use std::path::PathBuf;
use std::process::ExitCode;
use std::str::FromStr;
use std::sync::Arc;

use lwfs_auth::{AuthConfig, AuthServer, AuthService, Clock, SystemClock};
use lwfs_authz::{AuthzServer, RemoteCredVerifier};
use lwfs_core::cluster::Role;
use lwfs_core::ClusterConfig;
use lwfs_fabric::{FabricConfig, Manifest, SocketFabric};
use lwfs_naming::NamingServer;
use lwfs_portals::{Network, NetworkConfig};
use lwfs_proto::{NodeId, ProcessId};
use lwfs_txn::TxnLockServer;

const USAGE: &str = "usage: lwfs-node --nid N --manifest PATH --groups G --replication R";

struct Args {
    nid: u32,
    manifest: PathBuf,
    groups: usize,
    replication: usize,
}

fn parse_args() -> Result<Args, String> {
    let (mut nid, mut manifest, mut groups, mut replication) = (None, None, None, None);
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let slot = match flag.as_str() {
            "--nid" => &mut nid,
            "--manifest" => &mut manifest,
            "--groups" => &mut groups,
            "--replication" => &mut replication,
            other => return Err(format!("unknown argument {other:?}")),
        };
        *slot = Some(argv.next().ok_or_else(|| format!("{flag} needs a value"))?);
    }
    fn required<T: FromStr>(flag: &str, value: Option<String>) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        value.ok_or(format!("{flag} is required"))?.parse().map_err(|e| format!("{flag}: {e}"))
    }
    Ok(Args {
        nid: required("--nid", nid)?,
        manifest: required("--manifest", manifest)?,
        groups: required("--groups", groups)?,
        replication: required("--replication", replication)?,
    })
}

fn run(args: Args) -> Result<(), String> {
    let config = ClusterConfig {
        storage_servers: args.groups,
        replication: args.replication,
        ..Default::default()
    };
    let (nid, role) = config
        .service_nodes()
        .into_iter()
        .find(|&(nid, _)| nid == args.nid)
        .ok_or_else(|| format!("nid {} is not a service node of this deployment", args.nid))?;
    let manifest = Manifest::load(&args.manifest).map_err(|e| format!("loading manifest: {e}"))?;
    let net = Network::new(NetworkConfig::default());
    let fabric = SocketFabric::attach(&net, NodeId(nid), manifest, FabricConfig::default())
        .map_err(|e| format!("attaching fabric: {e}"))?;

    // Epoch-anchored: lifetimes minted by the authz process must compare
    // against the same timeline at every storage process. A per-process
    // `WallClock` (anchored at its own start) would make fresh capabilities
    // look not-yet-valid at later-started nodes.
    let clock: Arc<dyn Clock> = Arc::new(SystemClock);
    let id = ProcessId::new(nid, 0);

    // Handles must live until shutdown, so each arm parks its handle in
    // this holder.
    let _service: Box<dyn std::any::Any> = match role {
        Role::Auth => {
            let svc = AuthService::new(AuthConfig::default(), config.kdc(), clock);
            Box::new(AuthServer::spawn(&net, id, svc))
        }
        Role::Authz => {
            // First-contact credentials are verified at the authentication
            // *process* over the wire: pid 1 on this node is the verifier's
            // private client endpoint, distinct from the service at pid 0.
            let creds =
                RemoteCredVerifier::new(net.register(ProcessId::new(nid, 1)), config.addrs().auth);
            Box::new(AuthzServer::spawn(&net, id, config.authz_service(Arc::new(creds), clock)))
        }
        Role::Naming => Box::new(NamingServer::spawn(&net, id)),
        Role::TxnLock => Box::new(TxnLockServer::spawn(&net, id, None)),
        Role::Directory => {
            Box::new(lwfs_replica::spawn_directory(&net, id, config.addrs().group_map()))
        }
        Role::Storage(i) => Box::new(config.spawn_storage(i, &net, clock)),
    };

    // Readiness handshake: the launcher blocks on this exact line.
    println!("READY {nid}");

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
            eprintln!("lwfs-node: {e}\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let nid = args.nid;
    match run(args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("lwfs-node ({nid}): {e}");
            ExitCode::FAILURE
        }
    }
}
