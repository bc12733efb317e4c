//! Process-mode deployment: the cluster as real OS processes.
//!
//! [`LwfsCluster`](crate::LwfsCluster) with the tcp transport runs every
//! service on its own socket, but still in one address space.
//! [`ProcessCluster`] goes the rest of the way: it allocates a loopback
//! port per service node, writes the [`Manifest`], and spawns one
//! `lwfs-node` child process per node of the recipe's node table —
//! authentication, authorization, naming, txn/lock, the group directory,
//! and every storage server. The launcher itself
//! keeps only a compute-side network + fabric, from which
//! [`client`](ProcessCluster::client) handles are built; every protocol
//! round trip crosses a process boundary over TCP.
//!
//! Process mode runs the recipe's default configuration (legacy caps, no
//! WAL, the default users) for `groups × replication` storage servers:
//! each child rebuilds its service from the same [`ClusterConfig`] the
//! launcher holds. Two properties make this work without any
//! key-distribution machinery:
//!
//! * The mock KDC is deterministic: the launcher's copy mints tickets the
//!   authentication child's copy verifies, because both derive the same
//!   MAC key.
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
//!
//! [`Manifest`]: lwfs_fabric::Manifest

use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use lwfs_auth::MockKerberos;
use lwfs_fabric::SocketFabric;
use lwfs_portals::{Network, NetworkConfig};
use lwfs_proto::{Error, Result};

use crate::client::LwfsClient;
use crate::cluster::{
    attach_compute, bind_manifest, compute_client, ClusterAddrs, ClusterConfig, Role,
};

/// Distinguishes concurrently-launched clusters' scratch directories.
static LAUNCH_SEQ: AtomicU64 = AtomicU64::new(0);

struct NodeProc {
    nid: u32,
    role: Role,
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
    children: Vec<NodeProc>,
    /// Scratch directory holding the manifest, removed on shutdown.
    workdir: PathBuf,
}

impl ProcessCluster {
    /// Launch `groups` storage groups of `replication` servers each from
    /// the `lwfs-node` binary at `node_bin`: allocate ports, write the
    /// manifest, spawn every node process, and wait until each reports
    /// ready.
    pub fn launch(node_bin: &Path, groups: usize, replication: usize) -> Result<Self> {
        if !node_bin.is_file() {
            return Err(Error::Internal(format!(
                "lwfs-node binary not found at {node_bin:?}; build it first (cargo build --bin lwfs-node)"
            )));
        }
        let config = ClusterConfig { storage_servers: groups, replication, ..Default::default() };

        // Children bind their own manifest addresses, so the probe
        // listeners close before the spawns.
        let (manifest, _) = bind_manifest(&config)
            .map_err(|e| Error::StorageIo(format!("allocating ports: {e}")))?;
        let seq = LAUNCH_SEQ.fetch_add(1, Ordering::Relaxed);
        let workdir = std::env::temp_dir().join(format!("lwfs-proc-{}-{seq}", std::process::id()));
        std::fs::create_dir_all(&workdir)
            .map_err(|e| Error::StorageIo(format!("creating workdir: {e}")))?;
        let manifest_path = workdir.join("manifest");
        manifest.store(&manifest_path)?;

        let mut children = Vec::new();
        for (nid, role) in config.service_nodes() {
            let mut child = Command::new(node_bin)
                .args(["--nid", &nid.to_string(), "--manifest"])
                .arg(&manifest_path)
                .args(["--groups", &groups.to_string(), "--replication", &replication.to_string()])
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| Error::Internal(format!("spawning {role:?} node {nid}: {e}")))?;
            let stdin = child.stdin.take();
            children.push(NodeProc { nid, role, child: Some(child), stdin });
        }

        // Each child prints `READY <nid>` once its fabric is bound and its
        // service is serving. Children start concurrently; this loop just
        // confirms each one.
        for node in &mut children {
            let (nid, role) = (node.nid, node.role);
            let child = node.child.as_mut().expect("just spawned");
            let stdout = child.stdout.take().expect("child stdout is piped");
            let mut line = String::new();
            BufReader::new(stdout).read_line(&mut line).map_err(|e| {
                Error::Internal(format!("reading readiness from {role:?} node {nid}: {e}"))
            })?;
            if line.trim() != format!("READY {nid}") {
                return Err(Error::Internal(format!(
                    "{role:?} node {nid} failed to start: {line:?}"
                )));
            }
        }

        // The launcher's own plane: a network for client endpoints and a
        // fabric dialing services from the manifest.
        let net = Network::new(NetworkConfig::default());
        let fabric = attach_compute(&net, manifest)?;
        Ok(Self { net, fabric, addrs: config.addrs(), kdc: config.kdc(), children, workdir })
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

    /// Register an application process and build its client handle, as
    /// [`LwfsCluster::client`](crate::LwfsCluster::client).
    pub fn client(&self, nid: u32, pid: u32) -> LwfsClient {
        compute_client(&self.net, &self.addrs, nid, pid)
    }

    /// SIGKILL storage server `idx` — crash injection with no cooperation
    /// from the victim. Returns whether the process was still running.
    pub fn kill_storage(&mut self, idx: usize) -> bool {
        let nid = self.addrs.storage[idx].nid.0;
        let node =
            self.children.iter_mut().find(|n| n.nid == nid).expect("a child per storage nid");
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

    /// Ask every child to exit (stdin EOF), then reap them; stragglers are
    /// killed. Idempotent; also runs on drop.
    pub fn shutdown(&mut self) {
        for node in &mut self.children {
            node.stdin = None;
        }
        for node in &mut self.children {
            if let Some(mut child) = node.child.take() {
                let deadline = Instant::now() + Duration::from_secs(5);
                loop {
                    match child.try_wait() {
                        Ok(Some(_)) => break,
                        Ok(None) if Instant::now() < deadline => {
                            std::thread::sleep(Duration::from_millis(20));
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
        let _ = std::fs::remove_dir_all(&self.workdir);
    }
}

impl Drop for ProcessCluster {
    fn drop(&mut self) {
        self.shutdown();
    }
}
