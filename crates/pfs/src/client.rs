//! The PFS client: POSIX-flavoured create/open/write/read/sync/close over
//! the MDS + OST architecture.
//!
//! Opened-shared files take an exclusive, *expanded* extent lock (the
//! whole per-OST stripe object) around every write — Lustre's lock
//! expansion under its distributed lock manager. This is the imposed
//! consistency machinery the paper's checkpoint does not need and cannot
//! switch off: "even though the processors write their process state to
//! non-overlapping regions, the file system's consistency and
//! synchronization semantics get in the way" (§4).

use lwfs_core::{CapSet, LwfsClient};
use lwfs_proto::{
    ContainerId, Error, LockMode, LockResource, ObjId, PfsLayout, ProcessId, ReplyBody,
    RequestBody, Result,
};

use crate::layout::stripe_map;

/// How a file is opened, selecting the consistency machinery.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpenMode {
    /// One writer (file-per-process): no write locks.
    Private,
    /// Many writers (shared file): exclusive expanded locks per write —
    /// POSIX-style imposed consistency (the Lustre behaviour of §4).
    Shared,
}

/// An open PFS file.
pub struct PfsFile {
    pub path: String,
    layout: PfsLayout,
    caps: CapSet,
    mode: OpenMode,
    /// Highest byte written through this handle (size-on-close).
    high_water: u64,
}

impl PfsFile {
    pub fn size(&self) -> u64 {
        self.layout.size.max(self.high_water)
    }

    pub fn stripe_count(&self) -> usize {
        self.layout.objects.len()
    }
}

/// A PFS client bound to one application process.
pub struct PfsClient {
    lwfs: LwfsClient,
    mds: ProcessId,
    dlms: Vec<ProcessId>,
    container: ContainerId,
}

impl PfsClient {
    pub fn new(
        lwfs: LwfsClient,
        mds: ProcessId,
        dlms: Vec<ProcessId>,
        container: ContainerId,
    ) -> Self {
        Self { lwfs, mds, dlms, container }
    }

    pub fn lwfs(&self) -> &LwfsClient {
        &self.lwfs
    }

    fn mds_call(&self, body: RequestBody) -> Result<ReplyBody> {
        // All metadata traffic funnels through the one MDS.
        let rpc = lwfs_portals::RpcClient::new(self.lwfs.endpoint());
        rpc.call(self.mds, body)
    }

    /// Create a striped file (every create serializes through the MDS).
    pub fn create(
        &self,
        path: &str,
        stripe_count: u32,
        stripe_size: u64,
        mode: OpenMode,
    ) -> Result<PfsFile> {
        match self.mds_call(RequestBody::PfsCreate {
            path: path.to_string(),
            stripe_count,
            stripe_size,
        })? {
            ReplyBody::PfsLayoutReply(layout) => Ok(PfsFile {
                path: path.to_string(),
                caps: CapSet::new(layout.caps.clone()),
                layout,
                mode,
                high_water: 0,
            }),
            other => Err(Error::Internal(format!("bad MDS reply {other:?}"))),
        }
    }

    /// Open an existing file.
    pub fn open(&self, path: &str, mode: OpenMode) -> Result<PfsFile> {
        match self.mds_call(RequestBody::PfsOpen { path: path.to_string() })? {
            ReplyBody::PfsLayoutReply(layout) => Ok(PfsFile {
                path: path.to_string(),
                caps: CapSet::new(layout.caps.clone()),
                layout,
                mode,
                high_water: 0,
            }),
            other => Err(Error::Internal(format!("bad MDS reply {other:?}"))),
        }
    }

    /// The expanded lock resource for a stripe object: the whole object.
    fn expanded_lock(&self, obj: ObjId) -> LockResource {
        LockResource::whole_object(self.container, obj)
    }

    /// Write `data` at file `offset`, striping across OSTs.
    pub fn write(&self, file: &mut PfsFile, offset: u64, data: &[u8]) -> Result<u64> {
        let objects: Vec<ObjId> = file.layout.objects.iter().map(|(_, o)| *o).collect();
        let slices = stripe_map(&objects, file.layout.stripe_size, offset, data.len() as u64);
        for slice in slices {
            let (ost_idx, obj) = file.layout.objects[slice.stripe_index];
            let ost = ost_idx as usize;
            let buf = &data[slice.buf_offset as usize..(slice.buf_offset + slice.len) as usize];
            match file.mode {
                OpenMode::Private => {
                    // No locks: a single writer owns the file.
                    self.lwfs.write(ost, &file.caps, None, obj, slice.obj_offset, buf)?;
                }
                OpenMode::Shared => {
                    // Exclusive expanded lock from the OST's DLM: the
                    // serialization the paper measures.
                    let dlm = self.dlms[ost];
                    let rpc = lwfs_portals::RpcClient::new(self.lwfs.endpoint());
                    let cap = file.caps.for_op(lwfs_proto::OpMask::LOCK)?;
                    let lock = lwfs_txn::server::acquire_lock_waiting(
                        &rpc,
                        dlm,
                        cap,
                        self.expanded_lock(obj),
                        LockMode::Exclusive,
                    )?;
                    let write_result =
                        self.lwfs.write(ost, &file.caps, None, obj, slice.obj_offset, buf);
                    let _ = rpc.call(dlm, RequestBody::LockRelease { cap, lock });
                    write_result?;
                }
            }
        }
        file.high_water = file.high_water.max(offset + data.len() as u64);
        Ok(data.len() as u64)
    }

    /// Read `len` bytes at file `offset`.
    pub fn read(&self, file: &PfsFile, offset: u64, len: usize) -> Result<Vec<u8>> {
        let objects: Vec<ObjId> = file.layout.objects.iter().map(|(_, o)| *o).collect();
        let slices = stripe_map(&objects, file.layout.stripe_size, offset, len as u64);
        let mut out = vec![0u8; len];
        let mut actual = 0usize;
        for slice in slices {
            let (ost_idx, obj) = file.layout.objects[slice.stripe_index];
            let data = self.lwfs.read(
                ost_idx as usize,
                &file.caps,
                obj,
                slice.obj_offset,
                slice.len as usize,
            )?;
            let start = slice.buf_offset as usize;
            out[start..start + data.len()].copy_from_slice(&data);
            actual = actual.max(start + data.len());
        }
        out.truncate(actual);
        Ok(out)
    }

    /// Flush every stripe object of the file.
    pub fn sync(&self, file: &PfsFile) -> Result<()> {
        for (ost_idx, obj) in &file.layout.objects {
            self.lwfs.sync(*ost_idx as usize, &file.caps, Some(*obj))?;
        }
        Ok(())
    }

    /// Close: report the size to the MDS (Lustre-style size-on-close).
    pub fn close(&self, file: PfsFile) -> Result<()> {
        match self
            .mds_call(RequestBody::PfsSetSize { path: file.path.clone(), size: file.size() })?
        {
            ReplyBody::PfsOk => Ok(()),
            other => Err(Error::Internal(format!("bad MDS reply {other:?}"))),
        }
    }

    /// Remove a file and its stripe objects.
    pub fn unlink(&self, path: &str) -> Result<()> {
        match self.mds_call(RequestBody::PfsUnlink { path: path.to_string() })? {
            ReplyBody::PfsOk => Ok(()),
            other => Err(Error::Internal(format!("bad MDS reply {other:?}"))),
        }
    }
}
