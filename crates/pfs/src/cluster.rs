//! PFS deployment bootstrap: an LWFS cluster plus the Lustre-like layer —
//! one MDS and a DLM (lock service) co-located with every OST.

use std::sync::Arc;
use std::time::Duration;

use lwfs_core::{ClusterConfig, LwfsCluster, PFS_MDS_NID};
use lwfs_portals::ServiceHandle;
use lwfs_proto::{ContainerId, OpMask, PrincipalId, ProcessId};
use lwfs_txn::{LockTable, TxnLockServer};

use crate::mds::{MdsConfig, MdsServer, MdsStats};

/// PFS configuration.
pub struct PfsConfig {
    /// Underlying LWFS cluster (storage servers become OSTs). The baseline
    /// hands out legacy capabilities only, so leave `cap_mode` at `Legacy`:
    /// a `Signed` OST refuses its token-less requests.
    pub lwfs: ClusterConfig,
    /// Modeled MDS metadata-transaction time per create.
    pub mds_create_service: Duration,
    /// Modeled MDS service time per open.
    pub mds_open_service: Duration,
}

impl Default for PfsConfig {
    fn default() -> Self {
        Self {
            lwfs: ClusterConfig::default(),
            // ~650 creates/s, the order of magnitude of Figure 10-b.
            mds_create_service: Duration::from_micros(1500),
            mds_open_service: Duration::from_micros(300),
        }
    }
}

/// A running PFS deployment.
pub struct PfsCluster {
    lwfs: LwfsCluster,
    mds_id: ProcessId,
    dlm_ids: Vec<ProcessId>,
    container: ContainerId,
    mds_stats: Arc<MdsStats>,
    dlm_tables: Vec<Arc<LockTable>>,
    _mds: ServiceHandle,
    _dlms: Vec<ServiceHandle>,
}

impl PfsCluster {
    /// Boot the LWFS substrate, then layer the PFS services on top.
    pub fn boot(mut config: PfsConfig) -> Self {
        // The MDS authenticates as its own principal.
        config.lwfs.users.push(("pfs-mds".into(), "mds-secret".into(), PrincipalId(900)));
        let lwfs = LwfsCluster::boot(config.lwfs);

        // MDS bootstrap: credential, container, full capability set —
        // obtained in-process from the co-located services.
        let ticket = lwfs.kdc().kinit("pfs-mds", "mds-secret").expect("mds user registered");
        let cred = lwfs.auth_service().get_cred(&ticket).expect("mds credential");
        let container = lwfs.authz_service().create_container(&cred).expect("pfs container");
        let caps =
            lwfs.authz_service().get_caps(&cred, container, OpMask::ALL).expect("mds capabilities");

        let mds_id = ProcessId::new(PFS_MDS_NID, 0);
        let (mds_handle, mds_stats) = MdsServer::spawn(
            lwfs.network(),
            mds_id,
            MdsConfig {
                osts: lwfs.addrs().storage.clone(),
                container,
                caps,
                create_service: config.mds_create_service,
                open_service: config.mds_open_service,
            },
        );

        // One DLM per OST node (pid 1 on the storage node), matching
        // Lustre's per-OST lock namespaces.
        let mut dlm_ids = Vec::new();
        let mut dlm_handles = Vec::new();
        let mut dlm_tables = Vec::new();
        for ost in &lwfs.addrs().storage {
            let dlm_id = ProcessId { nid: ost.nid, pid: lwfs_proto::Pid(1) };
            let (h, table) = TxnLockServer::spawn(lwfs.network(), dlm_id, None);
            dlm_ids.push(dlm_id);
            dlm_handles.push(h);
            dlm_tables.push(table);
        }

        PfsCluster {
            lwfs,
            mds_id,
            dlm_ids,
            container,
            mds_stats,
            dlm_tables,
            _mds: mds_handle,
            _dlms: dlm_handles,
        }
    }

    pub fn lwfs(&self) -> &LwfsCluster {
        &self.lwfs
    }

    pub fn mds(&self) -> ProcessId {
        self.mds_id
    }

    pub fn dlms(&self) -> &[ProcessId] {
        &self.dlm_ids
    }

    pub fn container(&self) -> ContainerId {
        self.container
    }

    pub fn mds_stats(&self) -> &MdsStats {
        &self.mds_stats
    }

    /// Lock table of OST `idx`'s DLM (contention inspection).
    pub fn dlm_table(&self, idx: usize) -> &Arc<LockTable> {
        &self.dlm_tables[idx]
    }

    /// Build a PFS client on compute node `nid`.
    pub fn client(&self, nid: u32, pid: u32) -> crate::client::PfsClient {
        let lwfs_client = self.lwfs.client(nid, pid);
        crate::client::PfsClient::new(
            lwfs_client,
            self.mds_id,
            self.dlm_ids.clone(),
            self.container,
        )
    }
}
