//! Cluster bootstrap — Figures 1 and 3 as code, and the one deployment
//! recipe every cluster flavor boots from.
//!
//! Node-id layout mirrors the partitioned architecture:
//!
//! | nid range  | partition                                          |
//! |------------|----------------------------------------------------|
//! | 0..1000    | compute nodes (application processes)              |
//! | 1000       | authentication server                              |
//! | 1001       | authorization server                               |
//! | 1002       | naming server (client-extension service)           |
//! | 1003       | transaction-id / lock server (client extension)    |
//! | 1004       | replication group directory                        |
//! | 1005       | cluster monitor ([`MONITOR_NID`])                  |
//! | 1006       | PFS baseline's metadata server ([`PFS_MDS_NID`])   |
//! | 1100..     | storage servers (one per simulated I/O node)       |
//!
//! The recipe is a set of functions of [`ClusterConfig`]: the node table
//! ([`ClusterConfig::service_nodes`], [`ClusterConfig::addrs`]), each
//! storage server ([`ClusterConfig::spawn_storage`]), the authorization
//! service, the KDC and the directory's boot map
//! ([`ClusterAddrs::group_map`]).
//! [`LwfsCluster::boot`] (both transports), [`ProcessCluster`] and the
//! `lwfs-node` binary all build their services from it, so the three
//! flavors cannot drift apart.
//!
//! [`ProcessCluster`]: crate::ProcessCluster

use std::collections::HashMap;
use std::net::TcpListener;
use std::sync::Arc;
use std::time::Duration;

use lwfs_auth::{AuthConfig, AuthServer, AuthService, Clock, ManualClock, MockKerberos, WallClock};
use lwfs_authz::{AuthzConfig, AuthzServer, AuthzService, CachedCapVerifier, CredVerifier};
use lwfs_cap::{CapClaims, CapIssuer, CapMode};
use lwfs_fabric::{FabricConfig, Manifest, SocketFabric};
use lwfs_naming::{Namespace, NamingServer};
use lwfs_portals::{Network, NetworkConfig, ServiceHandle};
use lwfs_proto::{GroupMap, NodeId, PrincipalId, ProcessId, Result};
use lwfs_replica::{DirectoryHandle, ReplicaConfig};
use lwfs_storage::{SignedCapConfig, StorageConfig, StorageServer};
use lwfs_txn::{LockTable, TxnLockServer};

use crate::client::LwfsClient;

/// Realm and key seed of the deterministic mock KDC: the same realm, seed
/// and user set yield the same MAC key, so every process of a deployment
/// builds an identical KDC and a ticket minted by one copy verifies at
/// another without any key exchange.
const KDC_REALM: &str = "LWFS.LOCAL";
const KDC_SEED: u64 = 0xFEED_F00D;

/// Seed of the cluster's capability signing key (KDC-style determinism:
/// every process of a deployment derives the same ed25519 keypair, so the
/// authorization node signs and every storage node — holding only the
/// *public* half — verifies, with no key-exchange step at boot).
const CAP_SEED: u64 = 0xCAB1_51D5;

/// The compute side's fabric identity under tcp: the top of the compute
/// partition, used only for the connection handshake.
const COMPUTE_NID: u32 = 999;
const AUTH_NID: u32 = 1000;
const AUTHZ_NID: u32 = 1001;
const NAMING_NID: u32 = 1002;
const TXNLOCK_NID: u32 = 1003;
const DIRECTORY_NID: u32 = 1004;
/// The [`ClusterMonitor`](crate::ClusterMonitor)'s own endpoint.
pub const MONITOR_NID: u32 = 1005;
/// The PFS baseline's metadata server, layered beside the LWFS services.
pub const PFS_MDS_NID: u32 = 1006;
const STORAGE_NID: u32 = 1100;

/// Well-known service addresses for a booted cluster.
#[derive(Debug, Clone)]
pub struct ClusterAddrs {
    pub auth: ProcessId,
    pub authz: ProcessId,
    pub naming: ProcessId,
    pub txnlock: ProcessId,
    /// Every *physical* storage server, group-major: with replication `R`,
    /// group `g` is `storage[g*R .. (g+1)*R]` at boot.
    pub storage: Vec<ProcessId>,
    /// The replication group directory, which every cluster runs. It
    /// publishes the epoch-numbered [`GroupMap`]; clients start from the
    /// boot map ([`group_map`](Self::group_map)) and ask the directory
    /// only after a routing failure in a group with another member.
    pub directory: ProcessId,
    /// Members per group (`R`), from the recipe.
    pub(crate) group_size: usize,
}

impl ClusterAddrs {
    /// The boot map: each group's members, head first, at epoch 1. The
    /// directory starts from it and every client routes by it until a
    /// failover tells it otherwise.
    pub fn group_map(&self) -> GroupMap {
        GroupMap::grouped(&self.storage, self.group_size)
    }

    /// Scrape targets for a [`ClusterMonitor`](crate::ClusterMonitor):
    /// every storage server, the naming and authorization services, and
    /// the group directory. (The authentication and txn-lock services
    /// answer `GetTelemetry` too, but every service of a cluster shares
    /// one registry, so the list stays the set the monitor's output has
    /// always reported on.)
    pub fn monitor_targets(&self) -> Vec<ProcessId> {
        let mut targets = self.storage.clone();
        targets.extend([self.naming, self.authz, self.directory]);
        targets
    }
}

/// What a service node runs, as the node table assigns it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    Auth,
    Authz,
    Naming,
    TxnLock,
    /// The replication group directory (every deployment runs one).
    Directory,
    /// Physical storage server `i`, a member of group `i / R`.
    Storage(usize),
}

/// Which fabric carries cross-node traffic.
///
/// Every protocol is transport-agnostic: the portals API is the seam, and
/// the cluster merely decides what sits under it. The default in-process
/// transport is byte-identical to previous builds (no socket code runs at
/// all); [`Tcp`](TransportKind::Tcp) gives each *service node* its own
/// [`Network`] and [`SocketFabric`] on a loopback port, so every
/// cross-node message — storage dispatch, WAL ships, verify-through,
/// telemetry scrapes — crosses a real socket as CRC-checked frames.
///
/// The per-node networks are [siblings](Network::sibling): they share the
/// metric registry, traffic counters and fault plan, so the harness keeps
/// its God's-eye view (`cluster.network().set_faults(..)` partitions the
/// whole cluster; benches read one set of counters) while the data path
/// runs over sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum TransportKind {
    /// All endpoints on one in-process network (the historical behavior).
    #[default]
    InProcess,
    /// One network + socket fabric per service node, linked over 127.0.0.1.
    Tcp,
}

impl TransportKind {
    /// Parse a `--transport` CLI value.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "inprocess" => Some(Self::InProcess),
            "tcp" => Some(Self::Tcp),
            _ => None,
        }
    }
}

/// Cluster bootstrap configuration.
pub struct ClusterConfig {
    /// Number of storage *groups* (the paper's dev cluster ran 2–16
    /// servers); the cluster boots `storage_servers × replication`
    /// physical servers.
    pub storage_servers: usize,
    /// Replication factor `R` per storage group. Every group's primary
    /// ships each mutation's WAL records to its `R-1` backups before
    /// acking, the group directory (nid 1004) publishes the
    /// epoch-numbered member map, and [`LwfsCluster::crash_storage`]
    /// promotes the most caught-up backup when a primary dies. `1` (the
    /// default) is a group of one: a primary with no backups, which ships
    /// nothing and whose crash leaves the map as it was.
    pub replication: usize,
    /// Per-storage-server configuration.
    pub storage: StorageConfig,
    /// Use a hand-advanced clock (tests) instead of wall time.
    pub manual_clock: bool,
    /// Override the authorization service's capability lifetime (protocol
    /// nanoseconds). `None` keeps the 8-hour default. Tests drive expiry
    /// with a manual clock and a short TTL.
    pub capability_ttl_ns: Option<u64>,
    /// Override how long a primary retries one WAL ship before dropping
    /// the backup and reporting it to the directory. `None` keeps the
    /// replica default (2s); fault tests shorten it so a partitioned
    /// backup is evicted quickly.
    pub ship_deadline: Option<Duration>,
    /// Users to pre-register with the mock KDC: (name, password, principal).
    pub users: Vec<(String, String, PrincipalId)>,
    /// Which fabric carries cross-node traffic. The default in-process
    /// transport preserves historical behavior exactly; `Tcp` runs every
    /// cross-node message over loopback sockets.
    pub transport: TransportKind,
    /// Capability enforcement mode. `Legacy` (the default) is the paper's
    /// verify-through scheme; `Signed` mints ed25519 tokens that storage
    /// servers verify locally, and refuses data operations without one.
    pub cap_mode: CapMode,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            storage_servers: 4,
            replication: 1,
            storage: StorageConfig::default(),
            manual_clock: false,
            capability_ttl_ns: None,
            ship_deadline: None,
            users: vec![("app".into(), "secret".into(), PrincipalId(1))],
            transport: TransportKind::default(),
            cap_mode: CapMode::default(),
        }
    }
}

/// The deployment recipe.
impl ClusterConfig {
    fn group_size(&self) -> usize {
        self.replication.max(1)
    }

    /// Every service address: the fixed services, the directory, and
    /// `groups × R` storage servers, group-major.
    pub fn addrs(&self) -> ClusterAddrs {
        let id = |nid: u32| ProcessId::new(nid, 0);
        let physical = self.storage_servers * self.group_size();
        ClusterAddrs {
            auth: id(AUTH_NID),
            authz: id(AUTHZ_NID),
            naming: id(NAMING_NID),
            txnlock: id(TXNLOCK_NID),
            storage: (0..physical).map(|i| id(STORAGE_NID + i as u32)).collect(),
            directory: id(DIRECTORY_NID),
            group_size: self.group_size(),
        }
    }

    /// The node table: every service node's nid and role, in boot order.
    /// A deployment's manifest lists exactly these nids.
    pub fn service_nodes(&self) -> Vec<(u32, Role)> {
        let a = self.addrs();
        let mut nodes = vec![
            (a.auth.nid.0, Role::Auth),
            (a.authz.nid.0, Role::Authz),
            (a.naming.nid.0, Role::Naming),
            (a.txnlock.nid.0, Role::TxnLock),
            (a.directory.nid.0, Role::Directory),
        ];
        nodes.extend(a.storage.iter().enumerate().map(|(i, s)| (s.nid.0, Role::Storage(i))));
        nodes
    }

    /// Storage server `i`'s configuration: the shared [`StorageConfig`]
    /// logging to its own WAL subdirectory (`srv<i>`), so a restart
    /// replays exactly that server's history; its place in group `i / R`
    /// (the first member leads, the rest back it up — at `R = 1` a
    /// primary with no backups); under signed caps, the issuer's public
    /// key and, with backups, a ship token bound to its own nid.
    fn storage_config(&self, i: usize) -> StorageConfig {
        let r = self.group_size();
        let addrs = self.addrs();
        let group = (i / r) as u32;
        let mut config = self.storage.clone();
        if let Some(wal) = &mut config.wal {
            wal.dir = wal.dir.join(format!("srv{i}"));
        }
        let head = i - i % r;
        let members = &addrs.storage[head..head + r];
        let replica = if i == head {
            ReplicaConfig::primary(group, members[1..].to_vec(), addrs.directory)
        } else {
            // A backup accepts ships only from its group's head.
            ReplicaConfig::backup(group, members[0], addrs.directory)
        };
        config.replica = match self.ship_deadline {
            Some(deadline) => replica.with_ship_deadline(deadline),
            None => replica,
        };
        if self.cap_mode.signed() {
            let issuer = CapIssuer::from_cluster_seed(CAP_SEED);
            // Each replicated member gets a group-scoped token bound to
            // its own node id: whichever member is (or becomes) primary
            // ships under its own identity, and a backup's token is
            // useless anywhere but on its own sends.
            let ship_token = (r > 1).then(|| {
                let claims = CapClaims::repl_group(group, addrs.storage[i].nid.0);
                bytes::Bytes::from(issuer.mint(claims))
            });
            config.signed =
                Some(SignedCapConfig { public_key: *issuer.public().as_bytes(), ship_token });
        }
        config
    }

    /// Spawn storage server `i` on `net`, enforcing policy through its
    /// own verify-through cache bound to the authorization service.
    pub fn spawn_storage(
        &self,
        i: usize,
        net: &Network,
        clock: Arc<dyn Clock>,
    ) -> (ServiceHandle, Arc<StorageServer>) {
        let addrs = self.addrs();
        let sid = addrs.storage[i];
        let verifier = CachedCapVerifier::with_registry(sid, addrs.authz, net.obs());
        StorageServer::spawn(net, sid, self.storage_config(i), verifier, clock)
    }

    /// The authorization service, trusting `creds` for first-contact
    /// credentials (Figure 5's trust arrow: the authentication service
    /// itself in one process, a `RemoteCredVerifier` across processes).
    /// Under signed caps it is the cluster's token issuer and pushes
    /// revocation epochs to every storage server; only the public half of
    /// its key ever reaches storage.
    pub fn authz_service(
        &self,
        creds: Arc<dyn CredVerifier>,
        clock: Arc<dyn Clock>,
    ) -> AuthzService {
        let defaults = AuthzConfig::default();
        let ttl = self.capability_ttl_ns.unwrap_or(defaults.capability_ttl);
        let service =
            AuthzService::new(AuthzConfig { capability_ttl: ttl, ..defaults }, creds, clock);
        if !self.cap_mode.signed() {
            return service;
        }
        service.with_issuer(CapIssuer::from_cluster_seed(CAP_SEED), self.addrs().storage)
    }

    /// The deterministic mock KDC with this deployment's users.
    pub fn kdc(&self) -> Arc<MockKerberos> {
        let kdc = MockKerberos::new(KDC_REALM, KDC_SEED);
        for (name, pw, principal) in &self.users {
            kdc.add_user(name, pw, *principal);
        }
        Arc::new(kdc)
    }
}

/// Bind a loopback listener per service node and record each address in a
/// manifest. Every port is allocated before any node attaches, so the
/// first cross-node call — whenever it happens — finds its peer dialable.
pub(crate) fn bind_manifest(
    config: &ClusterConfig,
) -> std::io::Result<(Manifest, Vec<(u32, TcpListener)>)> {
    let mut manifest = Manifest::new();
    let mut listeners = Vec::new();
    for (nid, _) in config.service_nodes() {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        manifest.insert(NodeId(nid), listener.local_addr()?);
        listeners.push((nid, listener));
    }
    Ok((manifest, listeners))
}

/// Attach the compute side's fabric to `net`: clients and the monitor
/// live there and dial services via the manifest; services answer over
/// learned routes, never dialing back, so the compute side needs no
/// manifest entry.
pub(crate) fn attach_compute(net: &Network, manifest: Manifest) -> Result<Arc<SocketFabric>> {
    SocketFabric::attach(net, NodeId(COMPUTE_NID), manifest, FabricConfig::default())
}

/// Register an application process on compute node `nid` of `net` and
/// build its client handle.
pub(crate) fn compute_client(
    net: &Network,
    addrs: &ClusterAddrs,
    nid: u32,
    pid: u32,
) -> LwfsClient {
    assert!(nid < AUTH_NID, "compute nids are 0..1000; {nid} is in the service partition");
    LwfsClient::new(net.register(ProcessId::new(nid, pid)), addrs.clone())
}

/// A running in-process LWFS deployment.
///
/// Storage servers can be individually [crashed](Self::crash_storage) and
/// [restarted](Self::restart_storage); a slot holding `None` is a crashed
/// server. With [`StorageConfig::wal`] set, each server gets its own
/// subdirectory of the configured log directory (`srv0`, `srv1`, …) so a
/// restart replays exactly that server's history.
pub struct LwfsCluster {
    net: Network,
    /// Per-service-node sibling networks (tcp transport only): nid → net.
    /// Empty under the in-process transport, where `net` hosts everything.
    node_nets: HashMap<u32, Network>,
    /// The recipe this cluster was booted from; a restarted server is
    /// rebuilt from it.
    config: ClusterConfig,
    addrs: ClusterAddrs,
    kdc: Arc<MockKerberos>,
    clock: Arc<dyn Clock>,
    manual_clock: Option<ManualClock>,
    auth_svc: Arc<AuthService>,
    authz_svc: Arc<AuthzService>,
    namespace: Arc<Namespace>,
    locks: Arc<LockTable>,
    storage_servers: Vec<Option<Arc<StorageServer>>>,
    /// Control-plane handle on the group directory.
    directory: DirectoryHandle,
    // Handles last: dropped (and joined) after the shared state above.
    _auth: ServiceHandle,
    _authz: ServiceHandle,
    _naming: ServiceHandle,
    _txnlock: ServiceHandle,
    _directory: ServiceHandle,
    _storage: Vec<Option<ServiceHandle>>,
    /// Socket fabrics (tcp transport only), shut down explicitly on drop:
    /// a fabric and its network hold each other, so waiting for refcounts
    /// would leak the acceptor and connection threads.
    fabrics: Vec<Arc<SocketFabric>>,
}

impl LwfsCluster {
    /// Boot every service of Figure 3.
    pub fn boot(config: ClusterConfig) -> Self {
        let net = Network::new(NetworkConfig::default());
        let addrs = config.addrs();

        // Under the tcp transport each service node gets its own sibling
        // network behind a socket fabric.
        let (node_nets, fabrics) = match config.transport {
            TransportKind::InProcess => (HashMap::new(), Vec::new()),
            TransportKind::Tcp => {
                let (manifest, listeners) =
                    bind_manifest(&config).expect("binding service listeners");
                let mut nets = HashMap::new();
                let mut fabrics = Vec::with_capacity(listeners.len() + 1);
                for (nid, listener) in listeners {
                    let node_net = net.sibling();
                    let fabric = SocketFabric::attach_with_listener(
                        &node_net,
                        NodeId(nid),
                        listener,
                        manifest.clone(),
                        FabricConfig::default(),
                    )
                    .expect("attaching service fabric");
                    nets.insert(nid, node_net);
                    fabrics.push(fabric);
                }
                fabrics.push(attach_compute(&net, manifest).expect("attaching compute fabric"));
                (nets, fabrics)
            }
        };
        let net_for = |id: ProcessId| -> Network {
            node_nets.get(&id.nid.0).cloned().unwrap_or_else(|| net.clone())
        };

        let manual = config.manual_clock.then(ManualClock::new);
        let clock: Arc<dyn Clock> = match &manual {
            Some(m) => Arc::new(m.clone()),
            None => Arc::new(WallClock::new()),
        };

        let kdc = config.kdc();
        let (auth_handle, auth_svc) = AuthServer::spawn(
            &net_for(addrs.auth),
            addrs.auth,
            AuthService::new(AuthConfig::default(), kdc.clone(), Arc::clone(&clock)),
        );
        let creds = Arc::new(Arc::clone(&auth_svc)) as Arc<dyn CredVerifier>;
        let (authz_handle, authz_svc) = AuthzServer::spawn(
            &net_for(addrs.authz),
            addrs.authz,
            config.authz_service(creds, Arc::clone(&clock)),
        );
        let (naming_handle, namespace) = NamingServer::spawn(&net_for(addrs.naming), addrs.naming);
        let (txnlock_handle, locks) =
            TxnLockServer::spawn(&net_for(addrs.txnlock), addrs.txnlock, None);
        let (storage_handles, storage_servers) = addrs
            .storage
            .iter()
            .enumerate()
            .map(|(i, &sid)| {
                let (h, s) = config.spawn_storage(i, &net_for(sid), Arc::clone(&clock));
                (Some(h), Some(s))
            })
            .unzip();
        let (directory_handle, directory) = lwfs_replica::spawn_directory(
            &net_for(addrs.directory),
            addrs.directory,
            addrs.group_map(),
        );

        LwfsCluster {
            net,
            node_nets,
            config,
            addrs,
            kdc,
            clock,
            manual_clock: manual,
            auth_svc,
            authz_svc,
            namespace,
            locks,
            storage_servers,
            directory,
            _auth: auth_handle,
            _authz: authz_handle,
            _naming: naming_handle,
            _txnlock: txnlock_handle,
            _directory: directory_handle,
            _storage: storage_handles,
            fabrics,
        }
    }

    /// The root network: the only network under the in-process transport;
    /// the compute-node network (clients, monitor) under tcp. Either way
    /// it carries the *shared* observability plane — metric registry,
    /// traffic counters, fault plan — for the whole cluster.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The transport this cluster was booted with.
    pub fn transport(&self) -> TransportKind {
        self.config.transport
    }

    /// The network hosting node `nid`'s endpoints (the root network under
    /// the in-process transport).
    fn node_net(&self, nid: u32) -> &Network {
        self.node_nets.get(&nid).unwrap_or(&self.net)
    }

    pub fn addrs(&self) -> &ClusterAddrs {
        &self.addrs
    }

    pub fn kdc(&self) -> &MockKerberos {
        &self.kdc
    }

    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// The manual clock, when booted with `manual_clock: true`.
    pub fn manual_clock(&self) -> Option<&ManualClock> {
        self.manual_clock.as_ref()
    }

    pub fn auth_service(&self) -> &Arc<AuthService> {
        &self.auth_svc
    }

    pub fn authz_service(&self) -> &Arc<AuthzService> {
        &self.authz_svc
    }

    pub fn namespace(&self) -> &Arc<Namespace> {
        &self.namespace
    }

    pub fn lock_table(&self) -> &Arc<LockTable> {
        &self.locks
    }

    /// # Panics
    /// Panics if storage server `idx` is currently crashed.
    pub fn storage_server(&self, idx: usize) -> &Arc<StorageServer> {
        self.storage_servers[idx]
            .as_ref()
            .unwrap_or_else(|| panic!("storage server {idx} is crashed"))
    }

    pub fn storage_count(&self) -> usize {
        self.storage_servers.len()
    }

    /// Whether storage server `idx` is currently up.
    pub fn storage_alive(&self, idx: usize) -> bool {
        self.storage_servers[idx].is_some()
    }

    /// Kill storage server `idx`: stop its worker threads and
    /// tear its endpoint off the fabric, so in-flight and future RPCs to it
    /// fail like they would against a dead node. In-memory state is lost —
    /// exactly what the write-ahead log exists to survive. No-op if the
    /// server is already down.
    pub fn crash_storage(&mut self, idx: usize) {
        if let Some(handle) = self._storage[idx].take() {
            let sid = handle.id();
            handle.shutdown();
            // The endpoint is not unregistered by shutdown (the handle does
            // not own it); remove it so senders see an unreachable node
            // instead of a silently-draining queue. Under tcp the node's
            // fabric stays up — frames addressed to the dead server are
            // dropped on delivery (no endpoint), which is what a dead
            // process looks like from the wire.
            self.node_net(sid.nid.0).unregister(sid);
        }
        self.storage_servers[idx] = None;
        self.repair_group(self.addrs.storage[idx]);
    }

    /// Replication control plane: after `dead` left the fabric, elect the
    /// most caught-up surviving backup (if the dead server led) or shrink
    /// the group (if it backed), then publish the bumped map. No-op when
    /// the server was already out of the map, and for a group of one,
    /// which has no member to promote.
    fn repair_group(&self, dead: ProcessId) {
        let dir = &self.directory;
        let mut map = dir.snapshot();
        let Some(group) = map.group_of(dead) else { return };
        // Control-plane decisions are journaled under the directory's nid:
        // it is the node whose published map makes them visible.
        let dir_nid = self.addrs.directory.nid.0;
        let events = self.net.obs().events();
        if map.groups[group].primary() == Some(dead) {
            // Election is sync-aware: promoting by seniority alone could
            // pick a member the primary dropped at a ship deadline,
            // silently losing acknowledged writes. Compare each survivor's
            // (epoch, applied ship sequence) and lead with the maximum;
            // peers exactly as caught up stay on as its backups, while a
            // member even one ship behind may be missing an acknowledged
            // write and leaves the map — without a re-sync protocol,
            // dropping it is the only safe disposition.
            let mut candidates: Vec<(u64, u64, ProcessId)> = map.groups[group]
                .backups()
                .iter()
                .filter_map(|&b| {
                    let repl = self.server_by_id(b)?.replica();
                    Some((repl.epoch(), repl.applied_seq(), b))
                })
                .collect();
            candidates.sort_unstable();
            let Some(&(best_epoch, best_seq, chosen)) = candidates.last() else {
                // No surviving backup: the group is lost. The map keeps
                // naming the dead primary and its clients keep failing —
                // correctly.
                return;
            };
            let followers: Vec<ProcessId> = candidates
                .iter()
                .filter(|&&(e, s, b)| b != chosen && e == best_epoch && s == best_seq)
                .map(|&(_, _, b)| b)
                .collect();
            lwfs_replica::install_primary(&mut map, group, chosen, &followers);
            events.record(
                dir_nid,
                "failover.promote",
                format!(
                    "group {group}: primary {dead} dead, promoting {chosen} at epoch {} \
                     with {} followers",
                    map.epoch,
                    followers.len()
                ),
            );
            // Members behind the winner may be missing acknowledged writes
            // and leave the map; journal each so the shrink is auditable.
            for &(e, s, b) in &candidates {
                if b != chosen && !(e == best_epoch && s == best_seq) {
                    events.record(
                        dir_nid,
                        "failover.drop_backup",
                        format!("group {group}: {b} out of sync (epoch {e}, seq {s}), dropped"),
                    );
                }
            }
            // Order matters: followers learn the new leadership first (so
            // the new primary's first ship is never refused as a foreign
            // sender), then the server is promoted *before* publishing, so
            // a client the new map redirects always finds a willing
            // primary.
            for &f in &followers {
                if let Some(srv) = self.server_by_id(f) {
                    srv.set_primary(map.epoch, chosen);
                }
            }
            if let Some(srv) = self.server_by_id(chosen) {
                srv.promote(map.epoch, followers.clone());
            }
            dir.publish(map);
            self.net.obs().gauge("storage.failovers").inc();
        } else if let Some(primary) = lwfs_replica::remove_backup(&mut map, dead) {
            events.record(
                dir_nid,
                "failover.drop_backup",
                format!("group {group}: backup {dead} dead, removed at epoch {}", map.epoch),
            );
            // Walk every survivor up to the new epoch before publishing:
            // the remaining backups would otherwise fence fresh-map reads
            // (their epoch only advances with the next ship), and the
            // primary re-promotes with the shrunken ship set.
            let backups = map.groups[group].backups().to_vec();
            for &b in &backups {
                if let Some(srv) = self.server_by_id(b) {
                    srv.set_primary(map.epoch, primary);
                }
            }
            if let Some(srv) = self.server_by_id(primary) {
                srv.promote(map.epoch, backups);
            }
            dir.publish(map);
        }
    }

    fn server_by_id(&self, id: ProcessId) -> Option<&Arc<StorageServer>> {
        let idx = self.addrs.storage.iter().position(|s| *s == id)?;
        self.storage_servers[idx].as_ref()
    }

    /// The directory's current group map.
    pub fn group_map(&self) -> GroupMap {
        self.directory.snapshot()
    }

    /// Restart a crashed storage server in the same network slot, with the
    /// per-server configuration the recipe gives it. With a WAL configured the new
    /// instance recovers its predecessor's acknowledged state before it
    /// starts serving; without one it comes back empty. Only a group of one
    /// can restart a member: its map never changed, so the restarted
    /// primary serves at the epoch its clients already route by.
    ///
    /// # Panics
    /// Panics if the server is still running — crash it first — or if its
    /// group has more than one member.
    pub fn restart_storage(&mut self, idx: usize) -> &Arc<StorageServer> {
        assert!(
            self.addrs.group_size == 1,
            "restart_storage is only supported without replication: a replicated \
             group heals by promotion, and a restarted stale member would need \
             re-synchronization this build does not implement"
        );
        assert!(
            self.storage_servers[idx].is_none(),
            "storage server {idx} is still running; crash_storage({idx}) first"
        );
        let net = self.node_net(self.addrs.storage[idx].nid.0);
        let (h, s) = self.config.spawn_storage(idx, net, Arc::clone(&self.clock));
        self._storage[idx] = Some(h);
        self.storage_servers[idx] = Some(s);
        self.storage_servers[idx].as_ref().unwrap()
    }

    /// Spawn a [`ClusterMonitor`](crate::ClusterMonitor) scraping this
    /// cluster's telemetry-capable services
    /// ([`ClusterAddrs::monitor_targets`]).
    pub fn spawn_monitor(&self, config: crate::MonitorConfig) -> crate::ClusterMonitor {
        crate::ClusterMonitor::spawn(&self.net, self.addrs.monitor_targets(), config)
    }

    /// Register an application process on compute node `nid` and build its
    /// client handle.
    ///
    /// # Panics
    /// Panics if `nid` collides with the service partition (≥1000).
    pub fn client(&self, nid: u32, pid: u32) -> LwfsClient {
        compute_client(&self.net, &self.addrs, nid, pid)
    }
}

impl Drop for LwfsCluster {
    fn drop(&mut self) {
        // Socket fabrics and their networks reference each other, so shut
        // the fabrics down explicitly (closing connections, stopping the
        // acceptor and reader/writer threads) instead of waiting for a
        // refcount that never reaches zero. No-op in-process.
        for fabric in &self.fabrics {
            fabric.shutdown();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cluster_boots_all_services() {
        let cluster = LwfsCluster::boot(ClusterConfig { storage_servers: 3, ..Default::default() });
        // auth + authz + naming + txnlock + directory + 3 storage endpoints.
        assert_eq!(cluster.network().endpoint_count(), 8);
        assert_eq!(cluster.addrs().storage.len(), 3);
        assert_eq!(cluster.storage_count(), 3);
    }

    #[test]
    #[should_panic(expected = "service partition")]
    fn client_nid_collision_panics() {
        let cluster = LwfsCluster::boot(ClusterConfig::default());
        let _ = cluster.client(1000, 0);
    }

    #[test]
    fn crash_and_restart_cycle_a_storage_slot() {
        let mut cluster =
            LwfsCluster::boot(ClusterConfig { storage_servers: 2, ..Default::default() });
        assert!(cluster.storage_alive(1));
        cluster.crash_storage(1);
        assert!(!cluster.storage_alive(1));
        // The endpoint is gone from the fabric …
        assert_eq!(cluster.network().endpoint_count(), 6);
        // … and comes back in the same slot on restart.
        cluster.restart_storage(1);
        assert!(cluster.storage_alive(1));
        assert_eq!(cluster.network().endpoint_count(), 7);
    }

    #[test]
    #[should_panic(expected = "is crashed")]
    fn crashed_server_accessor_panics() {
        let mut cluster = LwfsCluster::boot(ClusterConfig::default());
        cluster.crash_storage(0);
        let _ = cluster.storage_server(0);
    }

    #[test]
    #[should_panic(expected = "still running")]
    fn restart_of_running_server_panics() {
        let mut cluster = LwfsCluster::boot(ClusterConfig::default());
        cluster.restart_storage(0);
    }

    #[test]
    fn tcp_transport_serves_end_to_end_io() {
        let cluster = LwfsCluster::boot(ClusterConfig {
            storage_servers: 2,
            transport: TransportKind::Tcp,
            ..Default::default()
        });
        assert_eq!(cluster.transport(), TransportKind::Tcp);
        // Services live on their own per-node networks, not the root one.
        assert_eq!(cluster.network().endpoint_count(), 0);
        let mut client = cluster.client(1, 0);
        let ticket = cluster.kdc().kinit("app", "secret").unwrap();
        client.get_cred(ticket).unwrap();
        let cid = client.create_container().unwrap();
        let caps = client.get_caps(cid, lwfs_proto::OpMask::ALL).unwrap();
        let obj = client.create_obj(0, &caps, None, None).unwrap();
        client.write(0, &caps, None, obj, 0, b"over the wire").unwrap();
        assert_eq!(client.read(0, &caps, obj, 0, 13).unwrap(), b"over the wire");
    }

    #[test]
    fn tcp_transport_replicates_and_fails_over() {
        let mut cluster = LwfsCluster::boot(ClusterConfig {
            storage_servers: 1,
            replication: 2,
            transport: TransportKind::Tcp,
            ..Default::default()
        });
        let mut client = cluster.client(1, 0);
        let ticket = cluster.kdc().kinit("app", "secret").unwrap();
        client.get_cred(ticket).unwrap();
        let cid = client.create_container().unwrap();
        let caps = client.get_caps(cid, lwfs_proto::OpMask::ALL).unwrap();
        let obj = client.create_obj(0, &caps, None, None).unwrap();
        client.write(0, &caps, None, obj, 0, b"replicated").unwrap();
        // The WAL ship crossed a socket: the backup holds the bytes.
        assert!(cluster.storage_server(1).store().bytes_stored() > 0);
        // Kill the primary; the promoted backup serves the read.
        cluster.crash_storage(0);
        assert_eq!(client.read(0, &caps, obj, 0, 10).unwrap(), b"replicated");
    }

    #[test]
    fn recipe_lays_out_groups_logs_and_holder_bound_ship_tokens() {
        use lwfs_cap::{LocalCapVerifier, PublicKey};
        use lwfs_replica::ReplicaRole;

        for (groups, r) in [(1, 1), (3, 1), (1, 2), (2, 3)] {
            for cap_mode in [CapMode::Legacy, CapMode::Signed] {
                let config = ClusterConfig {
                    storage_servers: groups,
                    replication: r,
                    cap_mode,
                    storage: StorageConfig {
                        wal: Some(lwfs_wal::WalConfig::new("wal")),
                        ..Default::default()
                    },
                    ..Default::default()
                };
                let case = format!("{groups} groups x R={r}, {cap_mode:?}");
                let storage: Vec<ProcessId> =
                    (0..groups * r).map(|i| ProcessId::new(1100 + i as u32, 0)).collect();
                let directory = ProcessId::new(1004, 0);
                let addrs = config.addrs();
                assert_eq!(addrs.storage, storage, "{case}: group-major from nid 1100");
                assert_eq!(addrs.directory, directory, "{case}");
                let nodes = config.service_nodes();
                assert!(nodes.contains(&(1004, Role::Directory)), "{case}");
                let map = addrs.group_map();
                assert_eq!(map.epoch, 1, "{case}");
                assert_eq!(map.groups.len(), groups, "{case}");

                for (i, &sid) in storage.iter().enumerate() {
                    assert!(nodes.contains(&(sid.nid.0, Role::Storage(i))), "{case}: node {i}");
                    let sc = config.storage_config(i);
                    let wal_dir = &sc.wal.as_ref().unwrap().dir;
                    assert_eq!(*wal_dir, std::path::Path::new("wal").join(format!("srv{i}")));

                    // At R = 1 every member leads a group of one: a
                    // primary with no backups.
                    let group = &storage[i - i % r..i - i % r + r];
                    assert_eq!(map.groups[i / r].members, group, "{case}: member {i}");
                    let rc = &sc.replica;
                    assert_eq!(rc.group as usize, i / r, "{case}: member {i}");
                    assert_eq!(rc.directory, directory, "{case}: member {i}");
                    if i % r == 0 {
                        let want = ReplicaRole::Primary { backups: group[1..].to_vec() };
                        assert_eq!(rc.role, want, "{case}: member {i}");
                        assert_eq!(rc.primary, None, "{case}: member {i}");
                    } else {
                        assert_eq!(rc.role, ReplicaRole::Backup, "{case}: member {i}");
                        assert_eq!(rc.primary, Some(group[0]), "{case}: member {i}");
                    }

                    assert_eq!(sc.signed.is_some(), cap_mode.signed(), "{case}: member {i}");
                    let Some(signed) = &sc.signed else { continue };
                    assert_eq!(signed.ship_token.is_some(), r > 1, "{case}: member {i}");
                    let Some(token) = &signed.ship_token else { continue };
                    let public = PublicKey::from_bytes(&signed.public_key).unwrap();
                    let verifier = LocalCapVerifier::new(public, 0);
                    let g = (i / r) as u32;
                    assert_eq!(verifier.check_group(token, g, 0, sid.nid.0), Ok(()), "{case}");
                    for other in group.iter().filter(|&&m| m != sid) {
                        assert_eq!(
                            verifier.check_group(token, g, 0, other.nid.0),
                            Err(lwfs_proto::Error::AccessDenied),
                            "{case}: member {i}'s token must not ship for {other}"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn manual_clock_is_exposed() {
        let cluster = LwfsCluster::boot(ClusterConfig { manual_clock: true, ..Default::default() });
        let mc = cluster.manual_clock().unwrap();
        mc.advance(100);
        assert_eq!(cluster.clock().now(), 100);
    }
}
