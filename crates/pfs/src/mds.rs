//! The centralized metadata server (MDS).
//!
//! Every file create and open goes through this single service: it decides
//! the stripe layout, allocates each stripe object on the OSTs itself, and
//! records the namespace entry — "the file server manages the block layout
//! of files and decides on and enforces the access-control policy for
//! every access request" (Figure 7-a). The per-operation metadata
//! transaction cost is modeled with a configurable service time, matching
//! the hundreds-of-creates-per-second ceiling of Figure 10-b.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use lwfs_portals::{spawn_service, Endpoint, Network, RpcClient, Service, ServiceHandle};
use lwfs_proto::{
    Capability, ContainerId, Error, ObjId, OpMask, PfsLayout, ProcessId, ReplyBody, Request,
    RequestBody,
};
use parking_lot::Mutex;

/// MDS configuration.
pub struct MdsConfig {
    /// The OST storage servers (LWFS storage services) the MDS stripes
    /// over.
    pub osts: Vec<ProcessId>,
    /// The LWFS container holding all PFS objects.
    pub container: ContainerId,
    /// The MDS's capabilities on that container — handed to clients on
    /// open (the trusted-client model of §5).
    pub caps: Vec<Capability>,
    /// Modeled metadata-transaction service time per create (Lustre MDS
    /// creates commit a journal transaction; ~1.5 ms ⇒ ~650 creates/s).
    pub create_service: Duration,
    /// Service time for opens/stats (cheaper: no allocation).
    pub open_service: Duration,
}

/// MDS operation counters.
#[derive(Debug, Default)]
pub struct MdsStats {
    pub creates: AtomicU64,
    pub opens: AtomicU64,
    pub unlinks: AtomicU64,
    pub setsizes: AtomicU64,
}

struct FileMeta {
    layout: Vec<(u32, ObjId)>,
    stripe_size: u64,
    size: u64,
}

/// The metadata server service.
pub struct MdsServer {
    config: MdsConfig,
    files: Mutex<HashMap<String, FileMeta>>,
    /// Round-robin rotor for the first OST of each new file.
    rotor: AtomicU64,
    stats: Arc<MdsStats>,
}

impl MdsServer {
    /// Spawn the MDS at `id`; returns the handle and shared counters.
    pub fn spawn(
        net: &Network,
        id: ProcessId,
        config: MdsConfig,
    ) -> (ServiceHandle, Arc<MdsStats>) {
        assert!(!config.osts.is_empty(), "MDS needs at least one OST");
        let stats = Arc::new(MdsStats::default());
        let svc = MdsServer {
            config,
            files: Mutex::new(HashMap::new()),
            rotor: AtomicU64::new(0),
            stats: Arc::clone(&stats),
        };
        (spawn_service(net, id, svc), stats)
    }

    fn cap_for(&self, op: OpMask) -> Result<Capability, Error> {
        self.config.caps.iter().find(|c| c.grants(op)).copied().ok_or(Error::AccessDenied)
    }

    fn layout_reply(&self, meta: &FileMeta) -> ReplyBody {
        ReplyBody::PfsLayoutReply(PfsLayout {
            stripe_size: meta.stripe_size,
            size: meta.size,
            objects: meta.layout.clone(),
            caps: self.config.caps.clone(),
        })
    }

    fn do_create(
        &self,
        ep: &Endpoint,
        path: &str,
        stripe_count: u32,
        stripe_size: u64,
    ) -> Result<ReplyBody, Error> {
        if stripe_count == 0 || stripe_size == 0 {
            return Err(Error::Malformed("stripe_count and stripe_size must be positive".into()));
        }
        // The metadata transaction: journal update, attribute block, etc.
        std::thread::sleep(self.config.create_service);
        {
            let files = self.files.lock();
            if files.contains_key(path) {
                return Err(Error::NameExists);
            }
        }
        // Allocate one object per stripe column, round-robin from the
        // rotor — every allocation is an RPC from the MDS to an OST,
        // serialized through this single service (the bottleneck the
        // paper measures in Figure 10).
        let create_cap = self.cap_for(OpMask::CREATE)?;
        let client = RpcClient::new(ep);
        let start = self.rotor.fetch_add(1, Ordering::Relaxed) as usize;
        let k = self.config.osts.len();
        let mut layout = Vec::with_capacity(stripe_count as usize);
        for i in 0..stripe_count as usize {
            let ost_idx = (start + i) % k;
            let ost = self.config.osts[ost_idx];
            match client
                .call(ost, RequestBody::CreateObj { txn: None, cap: create_cap, obj: None })?
            {
                ReplyBody::ObjCreated(oid) => layout.push((ost_idx as u32, oid)),
                other => return Err(Error::Internal(format!("bad OST create reply {other:?}"))),
            }
        }
        let meta = FileMeta { layout, stripe_size, size: 0 };
        let reply = self.layout_reply(&meta);
        self.files.lock().insert(path.to_string(), meta);
        self.stats.creates.fetch_add(1, Ordering::Relaxed);
        Ok(reply)
    }

    fn do_open(&self, path: &str) -> Result<ReplyBody, Error> {
        std::thread::sleep(self.config.open_service);
        let files = self.files.lock();
        let meta = files.get(path).ok_or(Error::NoSuchName)?;
        self.stats.opens.fetch_add(1, Ordering::Relaxed);
        Ok(self.layout_reply(meta))
    }

    fn do_setsize(&self, path: &str, size: u64) -> Result<ReplyBody, Error> {
        let mut files = self.files.lock();
        let meta = files.get_mut(path).ok_or(Error::NoSuchName)?;
        meta.size = meta.size.max(size);
        self.stats.setsizes.fetch_add(1, Ordering::Relaxed);
        Ok(ReplyBody::PfsOk)
    }

    fn do_unlink(&self, ep: &Endpoint, path: &str) -> Result<ReplyBody, Error> {
        std::thread::sleep(self.config.create_service);
        let meta = self.files.lock().remove(path).ok_or(Error::NoSuchName)?;
        let remove_cap = self.cap_for(OpMask::REMOVE)?;
        let client = RpcClient::new(ep);
        for (ost_idx, oid) in meta.layout {
            let ost = self.config.osts[ost_idx as usize];
            let _ =
                client.call(ost, RequestBody::RemoveObj { txn: None, cap: remove_cap, obj: oid });
        }
        self.stats.unlinks.fetch_add(1, Ordering::Relaxed);
        Ok(ReplyBody::PfsOk)
    }
}

impl Service for MdsServer {
    fn handle(&mut self, ep: &Endpoint, req: &Request) -> ReplyBody {
        let result = match &req.body {
            RequestBody::PfsCreate { path, stripe_count, stripe_size } => {
                self.do_create(ep, path, *stripe_count, *stripe_size)
            }
            RequestBody::PfsOpen { path } => self.do_open(path),
            RequestBody::PfsSetSize { path, size } => self.do_setsize(path, *size),
            RequestBody::PfsUnlink { path } => self.do_unlink(ep, path),
            RequestBody::Ping => Ok(ReplyBody::Pong),
            other => Err(Error::Malformed(format!("MDS cannot handle {other:?}"))),
        };
        result.unwrap_or_else(ReplyBody::Err)
    }
}
