//! The seam between the in-process fabric and a real wire.
//!
//! A [`Network`](crate::Network) resolves every operation against its own
//! endpoint registry first — that is the in-process transport, and it is
//! the default. When a [`RemoteFabric`] is attached, operations addressed
//! to a process the registry does not know are handed to it instead of
//! failing with `Unreachable`. `lwfs-fabric` implements this trait over
//! TCP sockets; the portals semantics (one-sided MD access, eager sends
//! into a bounded queue, `ServerBusy` backpressure) are preserved on both
//! sides of the seam, so every protocol built on [`Endpoint`] runs
//! unchanged over either transport.
//!
//! The contract mirrors the local operations exactly:
//!
//! * [`send`](RemoteFabric::send) is fire-and-forget. Local backpressure
//!   (the connection's bounded write queue) surfaces synchronously as
//!   [`Error::ServerBusy`]; a full queue on the *remote* side loses the
//!   message silently, exactly like a NIC event-queue overflow, and the
//!   sender finds out via its reply timeout.
//! * [`put`](RemoteFabric::put) / [`get_into`](RemoteFabric::get_into) are
//!   blocking round trips: the remote side executes the one-sided access
//!   against its posted descriptor and returns the outcome (or the
//!   transfer), and a lost peer turns into [`Error::Timeout`].
//!
//! [`Endpoint`]: crate::Endpoint
//! [`Error::ServerBusy`]: lwfs_proto::Error::ServerBusy
//! [`Error::Timeout`]: lwfs_proto::Error::Timeout

use bytes::Bytes;
use lwfs_proto::{ProcessId, Result};

/// A transport for operations that leave the local endpoint registry.
///
/// Implementations are attached with
/// [`Network::set_remote`](crate::Network::set_remote); incoming traffic
/// re-enters the fabric through
/// [`Network::deliver_send`](crate::Network::deliver_send) /
/// [`deliver_put`](crate::Network::deliver_put) /
/// [`deliver_get`](crate::Network::deliver_get).
pub trait RemoteFabric: Send + Sync {
    /// Fire an eager message at a process on another node.
    fn send(&self, from: ProcessId, to: ProcessId, match_bits: u64, data: Bytes) -> Result<()>;

    /// One-sided write into a descriptor posted on a remote node.
    fn put(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        offset: u64,
        data: &[u8],
    ) -> Result<()>;

    /// One-sided read of `len` bytes from a descriptor posted on a remote
    /// node, appended to `dst`; on error `dst` is untouched.
    fn get_into(
        &self,
        from: ProcessId,
        to: ProcessId,
        match_bits: u64,
        offset: u64,
        len: usize,
        dst: &mut Vec<u8>,
    ) -> Result<()>;
}
