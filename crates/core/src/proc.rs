//! Process-mode deployment: the cluster as real OS processes.
//!
//! [`LwfsCluster`](crate::LwfsCluster) with the tcp transport runs every
//! service on its own socket, but still in one address space.
//! [`ProcessCluster`] goes the rest of the way: it allocates a loopback
//! port per service node, writes the [`Manifest`], and spawns one
//! `lwfs-node` child process per node — authentication, authorization,
//! naming, txn/lock, the group directory (under replication), the cluster
//! monitor, and every storage server. The launcher itself keeps only a
//! compute-side network + fabric, from which [`client`](ProcessCluster::client)
//! handles are built; every protocol round trip crosses a process
//! boundary over TCP.
//!
//! Two properties make this work without any key-distribution machinery:
//!
//! * The mock KDC is deterministic ([`KDC_REALM`]/[`KDC_SEED`]): the
//!   launcher's copy mints tickets the authentication child's copy
//!   verifies, because both derive the same MAC key.
//! * Servers never dial clients (learned routes), so the manifest only
//!   lists service nodes and the launcher's own fabric needs no entry.
//!
//! Crash injection is [`kill_storage`](ProcessCluster::kill_storage) —
//! SIGKILL, the real thing. Killing a **backup** exercises the full
//! on-wire eviction path: the primary's next ship fails, it reports the
//! drop to the directory, and the published map shrinks. Killing a
//! **primary** is supported but — unlike the in-process flavors, where
//! the harness's control plane elects a successor — process mode has no
//! external supervisor to run the election, so the group stays headless
//! and clients fail: use the tcp-transport `LwfsCluster` for failover
//! studies.

use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use lwfs_auth::MockKerberos;
use lwfs_fabric::{FabricConfig, Manifest, SocketFabric};
use lwfs_portals::{FaultPlan, Network, NetworkConfig, RpcConfig};
use lwfs_proto::{Error, NodeId, PrincipalId, ProcessId, Result};

use crate::client::LwfsClient;
use crate::cluster::{ClusterAddrs, KDC_REALM, KDC_SEED};
use crate::monitor::MONITOR_NID;

/// Distinguishes concurrently-launched clusters' scratch directories.
static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

/// Configuration for a process-mode cluster.
pub struct ProcessClusterConfig {
    /// Path to the `lwfs-node` binary. Integration tests of the root
    /// package use `env!("CARGO_BIN_EXE_lwfs-node")`; other callers can
    /// try [`ProcessCluster::node_bin_from_env`].
    pub node_bin: PathBuf,
    /// Number of storage groups (physical servers = groups × replication).
    pub storage_servers: usize,
    /// Replication factor per group; `1` disables the directory node.
    pub replication: usize,
    /// Users registered with the KDC in every process: (name, password,
    /// principal). Names must not contain `:` or `,` (they ride the child
    /// command line).
    pub users: Vec<(String, String, PrincipalId)>,
    /// When set, each storage child write-ahead-logs under
    /// `<wal_root>/srv<i>`.
    pub wal_root: Option<PathBuf>,
    /// Worker-pool size for each storage child (`None` keeps the storage
    /// default).
    pub workers: Option<usize>,
    /// Capability mode for every child: `Legacy` verifies through the
    /// authorization process; `Signed` verifies ed25519 tokens locally at
    /// storage (see `lwfs_cap::CapMode`).
    pub cap_mode: lwfs_cap::CapMode,
    /// Clock-skew tolerance each storage child grants token lifetimes —
    /// processes started seconds apart must not reject fresh tokens as
    /// not-yet-valid.
    pub clock_skew: std::time::Duration,
    /// Scratch directory for the manifest (default: a fresh subdirectory
    /// of the system temp dir, removed on shutdown).
    pub workdir: Option<PathBuf>,
    /// Also spawn the cluster monitor as its own process.
    pub monitor: bool,
    /// RPC knobs for launcher-built clients.
    pub rpc: RpcConfig,
    /// Flight-recorder pin threshold in microseconds for every child's
    /// registry (`None` keeps the `ObsConfig` default: pin anything).
    pub flight_threshold_us: Option<u64>,
    /// Flight-recorder pin capacity per child (`None` keeps the default).
    pub flight_top_k: Option<usize>,
}

impl Default for ProcessClusterConfig {
    fn default() -> Self {
        Self {
            node_bin: PathBuf::new(),
            storage_servers: 2,
            replication: 1,
            users: vec![("app".into(), "secret".into(), PrincipalId(1))],
            wal_root: None,
            workers: None,
            cap_mode: lwfs_cap::CapMode::default(),
            clock_skew: crate::cluster::default_clock_skew(),
            workdir: None,
            monitor: false,
            rpc: RpcConfig::default(),
            flight_threshold_us: None,
            flight_top_k: None,
        }
    }
}

struct NodeProc {
    nid: u32,
    role: String,
    child: Option<Child>,
    /// Held open for the child's lifetime; dropping it (EOF) asks the
    /// child to exit cleanly.
    stdin: Option<ChildStdin>,
}

/// A running multi-process LWFS deployment. See the module docs.
pub struct ProcessCluster {
    net: Network,
    fabric: Arc<SocketFabric>,
    addrs: ClusterAddrs,
    kdc: Arc<MockKerberos>,
    manifest: Manifest,
    children: Vec<NodeProc>,
    workdir: PathBuf,
    owns_workdir: bool,
    rpc: RpcConfig,
}

impl ProcessCluster {
    /// Locate the `lwfs-node` binary without compile-time knowledge of it:
    /// the `LWFS_NODE_BIN` environment variable, else next to (or one
    /// directory above) the current executable — which finds
    /// `target/<profile>/lwfs-node` from test and bench binaries in
    /// `target/<profile>/deps/`.
    pub fn node_bin_from_env() -> Option<PathBuf> {
        if let Ok(path) = std::env::var("LWFS_NODE_BIN") {
            let path = PathBuf::from(path);
            if path.is_file() {
                return Some(path);
            }
        }
        let exe = std::env::current_exe().ok()?;
        let name = format!("lwfs-node{}", std::env::consts::EXE_SUFFIX);
        for dir in exe.ancestors().skip(1).take(3) {
            let candidate = dir.join(&name);
            if candidate.is_file() {
                return Some(candidate);
            }
        }
        None
    }

    /// Allocate ports, write the manifest, spawn every node process, and
    /// wait until each reports ready.
    pub fn launch(config: ProcessClusterConfig) -> Result<Self> {
        if !config.node_bin.is_file() {
            return Err(Error::Internal(format!(
                "lwfs-node binary not found at {:?}; build it first (cargo build --bin lwfs-node)",
                config.node_bin
            )));
        }
        let r = config.replication.max(1);
        let groups = config.storage_servers;
        let physical = groups * r;

        let mut nodes: Vec<(u32, String)> = vec![
            (1000, "auth".into()),
            (1001, "authz".into()),
            (1002, "naming".into()),
            (1003, "txnlock".into()),
        ];
        if r > 1 {
            nodes.push((1004, "directory".into()));
        }
        if config.monitor {
            nodes.push((MONITOR_NID, "monitor".into()));
        }
        for i in 0..physical {
            nodes.push((1100 + i as u32, "storage".into()));
        }

        // Allocate every port first so the manifest is complete before any
        // child starts; children bind their own manifest address, so the
        // probe listeners are dropped just before the spawns.
        let mut manifest = Manifest::new();
        {
            let mut probes = Vec::with_capacity(nodes.len());
            for &(nid, _) in &nodes {
                let probe = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| Error::StorageIo(format!("allocating port: {e}")))?;
                let addr = probe.local_addr().unwrap();
                manifest.insert(NodeId(nid), addr);
                probes.push(probe);
            }
        }

        let seq = LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let (workdir, owns_workdir) = match &config.workdir {
            Some(dir) => (dir.clone(), false),
            None => {
                (std::env::temp_dir().join(format!("lwfs-proc-{}-{seq}", std::process::id())), true)
            }
        };
        std::fs::create_dir_all(&workdir)
            .map_err(|e| Error::StorageIo(format!("creating workdir: {e}")))?;
        let manifest_path = workdir.join("manifest");
        manifest.store(&manifest_path)?;

        let users_arg = config
            .users
            .iter()
            .map(|(n, p, id)| format!("{n}:{p}:{}", id.0))
            .collect::<Vec<_>>()
            .join(",");

        let mut children = Vec::with_capacity(nodes.len());
        for (nid, role) in nodes {
            let mut cmd = Command::new(&config.node_bin);
            cmd.arg("--role")
                .arg(&role)
                .arg("--nid")
                .arg(nid.to_string())
                .arg("--manifest")
                .arg(&manifest_path)
                .arg("--groups")
                .arg(groups.to_string())
                .arg("--replication")
                .arg(r.to_string())
                .arg("--users")
                .arg(&users_arg)
                .arg("--cap-mode")
                .arg(config.cap_mode.as_str())
                .arg("--clock-skew-ms")
                .arg(config.clock_skew.as_millis().to_string())
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit());
            // Flight knobs apply to every child: each process has its own
            // registry, and the monitor scrapes pins from all of them.
            if let Some(us) = config.flight_threshold_us {
                cmd.arg("--flight-threshold-us").arg(us.to_string());
            }
            if let Some(k) = config.flight_top_k {
                cmd.arg("--flight-top-k").arg(k.to_string());
            }
            if role == "storage" {
                cmd.arg("--index").arg((nid - 1100).to_string());
                if let Some(wal_root) = &config.wal_root {
                    cmd.arg("--wal-dir").arg(wal_root);
                }
                if let Some(workers) = config.workers {
                    cmd.arg("--workers").arg(workers.to_string());
                }
            }
            let mut child = cmd
                .spawn()
                .map_err(|e| Error::Internal(format!("spawning {role} node {nid}: {e}")))?;
            let stdin = child.stdin.take();
            children.push(NodeProc { nid, role, child: Some(child), stdin });
        }

        // Each child prints `READY <nid>` once its fabric is bound and its
        // service is serving. Children start concurrently; this loop just
        // confirms each one.
        for node in &mut children {
            let child = node.child.as_mut().unwrap();
            let stdout = child.stdout.take().expect("child stdout is piped");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line).map_err(|e| {
                Error::Internal(format!(
                    "reading readiness from {} node {}: {e}",
                    node.role, node.nid
                ))
            })?;
            if line.trim() != format!("READY {}", node.nid) {
                return Err(Error::Internal(format!(
                    "{} node {} failed to start: {:?}",
                    node.role, node.nid, line
                )));
            }
        }

        // The launcher's own plane: a network for client endpoints and a
        // fabric dialing services from the manifest. Nid 999 is the top of
        // the compute partition, used only for the connection handshake.
        let net = Network::new(NetworkConfig::default());
        let fabric =
            SocketFabric::attach(&net, NodeId(999), manifest.clone(), FabricConfig::default())?;

        let kdc = Arc::new(MockKerberos::new(KDC_REALM, KDC_SEED));
        for (name, pw, principal) in &config.users {
            kdc.add_user(name, pw, *principal);
        }

        let addrs = ClusterAddrs {
            auth: ProcessId::new(1000, 0),
            authz: ProcessId::new(1001, 0),
            naming: ProcessId::new(1002, 0),
            txnlock: ProcessId::new(1003, 0),
            storage: (0..physical).map(|i| ProcessId::new(1100 + i as u32, 0)).collect(),
            directory: (r > 1).then(|| ProcessId::new(1004, 0)),
        };

        Ok(Self {
            net,
            fabric,
            addrs,
            kdc,
            manifest,
            children,
            workdir,
            owns_workdir,
            rpc: config.rpc,
        })
    }

    pub fn addrs(&self) -> &ClusterAddrs {
        &self.addrs
    }

    pub fn kdc(&self) -> &MockKerberos {
        &self.kdc
    }

    /// The launcher-side network (client endpoints only — servers live in
    /// their own processes).
    pub fn network(&self) -> &Network {
        &self.net
    }

    pub fn manifest(&self) -> &Manifest {
        &self.manifest
    }

    /// Register an application process and build its client handle, as
    /// [`LwfsCluster::client`](crate::LwfsCluster::client).
    pub fn client(&self, nid: u32, pid: u32) -> LwfsClient {
        assert!(nid < 999, "compute nids are 0..999; {nid} is reserved");
        let ep = self.net.register(ProcessId::new(nid, pid));
        let mut client = LwfsClient::new(ep, self.addrs.clone());
        client.set_rpc_timeout(self.rpc.reply_timeout);
        client
    }

    /// SIGKILL storage server `idx` — crash injection with no cooperation
    /// from the victim. Returns whether the process was still running.
    pub fn kill_storage(&mut self, idx: usize) -> bool {
        let nid = 1100 + idx as u32;
        let node = self
            .children
            .iter_mut()
            .find(|n| n.nid == nid && n.role == "storage")
            .unwrap_or_else(|| panic!("no storage node {idx}"));
        let Some(mut child) = node.child.take() else { return false };
        node.stdin = None;
        let was_running = child.kill().is_ok();
        let _ = child.wait();
        was_running
    }

    /// How many node processes are currently live (not yet shut down or
    /// killed). The launcher's own process is not counted.
    pub fn live_processes(&mut self) -> usize {
        let mut live = 0;
        for node in self.children.iter_mut() {
            if let Some(child) = node.child.as_mut() {
                if matches!(child.try_wait(), Ok(None)) {
                    live += 1;
                }
            }
        }
        live
    }

    /// Degree of real OS-level parallelism this deployment runs with: the
    /// live node processes plus the launcher itself. This — not the
    /// launcher's core count — is what a multi-process benchmark reports
    /// as its host parallelism.
    pub fn host_parallelism(&mut self) -> usize {
        self.live_processes() + 1
    }

    /// Install `plan` on every node: applied locally and pushed to each
    /// manifest peer as a fabric control frame.
    pub fn set_faults(&self, plan: FaultPlan) {
        self.fabric.broadcast_faults(&plan);
    }

    /// Clear all fault injection, cluster-wide.
    pub fn heal(&self) {
        self.fabric.broadcast_faults(&FaultPlan::default());
    }

    /// Ask every child to exit (stdin EOF), then reap them; stragglers are
    /// killed. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        for node in &mut self.children {
            node.stdin = None;
        }
        for node in &mut self.children {
            if let Some(mut child) = node.child.take() {
                let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if std::time::Instant::now() < deadline => {
                            std::thread::sleep(std::time::Duration::from_millis(20));
                        }
                        _ => {
                            let _ = child.kill();
                            let _ = child.wait();
                            break;
                        }
                    }
                }
            }
        }
        self.fabric.shutdown();
        if self.owns_workdir {
            let _ = std::fs::remove_dir_all(&self.workdir);
        }
    }

    /// The scratch directory holding the manifest.
    pub fn workdir(&self) -> &Path {
        &self.workdir
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
