//! **lwfs-fabric** — the socket transport that lets an LWFS cluster run
//! as real OS processes.
//!
//! The portals substrate (`lwfs-portals`) reproduces the Portals 3.0
//! one-sided semantics in-process; this crate carries the *same*
//! operations — eager sends, one-sided put/get against posted memory
//! descriptors — across process boundaries over TCP:
//!
//! * [`frame`] — the wire format: length-prefixed, CRC-32-checked frames
//!   holding [`FabricMsg`] control/data messages encoded with the
//!   `lwfs_proto` codec (the same codec every RPC body uses).
//! * [`manifest`] — the peer directory bootstrapping a process cluster:
//!   `nid → host:port` for every dialable service node.
//! * [`fabric`] — [`SocketFabric`], the [`lwfs_portals::RemoteFabric`]
//!   implementation: one multiplexed connection per peer pair, a
//!   reader/writer thread pair per connection, bounded write queues
//!   surfacing backpressure as `Error::ServerBusy`, and learned routes so
//!   servers answer clients without ever dialing them.
//!
//! Every LWFS protocol — storage dispatch, WAL shipping, 2PC, authz
//! verify-through, trace propagation, telemetry scrapes — runs unchanged
//! over either transport, because the seam is below the RPC layer.

#![forbid(unsafe_code)]

pub mod fabric;
pub mod frame;
pub mod manifest;

pub use fabric::{FabricConfig, SocketFabric};
pub use frame::{FabricMsg, FrameReader};
pub use manifest::Manifest;
