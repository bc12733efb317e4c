//! The LWFS **authentication service** (paper §3.1.2, Figure 3).
//!
//! The authentication service "interfaces with an external authentication
//! mechanism (e.g., Kerberos) to manage and verify identities of users". It
//! exchanges an external-mechanism token for an LWFS [`Credential`] — an
//! opaque, fully-transferable proof of authentication bounded by a
//! lifetime — and later verifies credentials presented by the authorization
//! service (Figure 4-a, step 2).
//!
//! Key properties reproduced from the paper:
//!
//! * **Opaque, hard to forge.** A credential carries a MAC minted with a
//!   key known only to this service instance; contents are meaningless to
//!   every other component.
//! * **Transient.** Credentials die with the issuing service instance
//!   (epoch check) and with their lifetime window.
//! * **Transferable.** Nothing binds a credential to a transport address;
//!   an application may hand it to every process acting for the principal.
//! * **Revocable.** "Immediate" revocation on application exit or a
//!   security event (§3.1.4) — implemented as a serial-number tombstone
//!   set consulted on every verify.
//!
//! [`Credential`]: lwfs_proto::Credential

#![forbid(unsafe_code)]

pub mod clock;
pub mod mechanism;
pub mod server;
pub mod service;

pub use clock::{Clock, ManualClock, SystemClock, WallClock};
pub use mechanism::{AuthMechanism, MechError, MockKerberos};
pub use server::AuthServer;
pub use service::{AuthConfig, AuthService};
