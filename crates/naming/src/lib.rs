//! The **naming service** — a client-side extension, not part of the
//! LWFS-core (paper Figure 3: "Client Services — naming, distribution,
//! synchronization, consistency, …").
//!
//! The LWFS-core deliberately has no namespace: objects are named by id and
//! scoped by container. Applications that want paths — like the checkpoint
//! library, which "creates a name in the naming service and associates the
//! metadata object with that name" (§4) — layer this service on top. It
//! binds hierarchical paths to `(container, object)` pairs and participates
//! in distributed transactions so a checkpoint's name appears atomically
//! with its data.
//!
//! Because naming is *above* the core, alternative implementations
//! (per-application namespaces, directory-less flat stores, scalable
//! distributed namespaces — the "future work" of §6) can replace it without
//! touching the core.

#![forbid(unsafe_code)]

pub mod namespace;
pub mod server;

pub use namespace::{Namespace, NamespaceError};
pub use server::NamingServer;
