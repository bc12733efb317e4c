//! External authentication mechanisms.
//!
//! The paper treats the mechanism (Kerberos, GSS-API, SASL) as an opaque
//! component *outside* the LWFS-core trust boundary (Figure 5): the
//! authentication service trusts it to map tokens to identities, and
//! nothing else in the system talks to it. [`MockKerberos`] is the
//! deterministic stand-in used in this reproduction: it registers users,
//! issues "tickets", and verifies them — the same grant/verify/revoke
//! surface a Kerberos KDC provides to a consuming service.

use std::collections::HashMap;

use lwfs_proto::security::siphash::MacKey;
use lwfs_proto::PrincipalId;
use parking_lot::RwLock;

/// Errors an external mechanism can report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MechError {
    /// The token is not a ticket this mechanism issued (or was tampered
    /// with).
    InvalidToken,
    /// The named user does not exist.
    UnknownUser,
    /// The user exists but the proof (password) was wrong.
    BadProof,
}

impl std::fmt::Display for MechError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MechError::InvalidToken => write!(f, "invalid mechanism token"),
            MechError::UnknownUser => write!(f, "unknown user"),
            MechError::BadProof => write!(f, "bad proof of identity"),
        }
    }
}

impl std::error::Error for MechError {}

/// The interface the authentication service consumes.
pub trait AuthMechanism: Send + Sync + 'static {
    /// Verify a mechanism token; return the authenticated principal.
    fn verify_token(&self, token: &[u8]) -> Result<PrincipalId, MechError>;

    /// Human-readable mechanism name (for logs and reports).
    fn name(&self) -> &str;
}

/// A deterministic mock of a Kerberos-style KDC.
///
/// Users are registered with a password; `kinit` exchanges user+password
/// for a ticket (user name + MAC under the KDC key); `verify_token` checks
/// the MAC. The LWFS side never sees passwords — only tickets.
pub struct MockKerberos {
    key: MacKey,
    realm: String,
    users: RwLock<HashMap<String, (PrincipalId, String)>>,
}

impl MockKerberos {
    pub fn new(realm: impl Into<String>, key_seed: u64) -> Self {
        Self {
            key: MacKey::new(key_seed, key_seed.rotate_left(17) ^ 0x006B_6463_5F6B_6579),
            realm: realm.into(),
            users: RwLock::new(HashMap::new()),
        }
    }

    /// Register a user; returns their principal id.
    pub fn add_user(&self, name: &str, password: &str, principal: PrincipalId) {
        self.users.write().insert(name.to_string(), (principal, password.to_string()));
    }

    /// Exchange user+password for a ticket (the `kinit` analogue).
    pub fn kinit(&self, name: &str, password: &str) -> Result<Vec<u8>, MechError> {
        let users = self.users.read();
        let (_, stored) = users.get(name).ok_or(MechError::UnknownUser)?;
        if stored != password {
            return Err(MechError::BadProof);
        }
        let mut ticket = Vec::with_capacity(name.len() + 17);
        ticket.push(name.len() as u8);
        ticket.extend_from_slice(name.as_bytes());
        let mac = self.key.mac(name.as_bytes());
        ticket.extend_from_slice(&mac);
        Ok(ticket)
    }
}

impl AuthMechanism for MockKerberos {
    fn verify_token(&self, token: &[u8]) -> Result<PrincipalId, MechError> {
        if token.is_empty() {
            return Err(MechError::InvalidToken);
        }
        let name_len = token[0] as usize;
        if token.len() != 1 + name_len + 16 {
            return Err(MechError::InvalidToken);
        }
        let name_bytes = &token[1..1 + name_len];
        let mac: [u8; 16] = token[1 + name_len..].try_into().expect("length checked");
        if !self.key.verify(name_bytes, &mac) {
            return Err(MechError::InvalidToken);
        }
        let name = std::str::from_utf8(name_bytes).map_err(|_| MechError::InvalidToken)?;
        // A ticket authenticates only a registered user.
        self.users.read().get(name).map(|(p, _)| *p).ok_or(MechError::UnknownUser)
    }

    fn name(&self) -> &str {
        &self.realm
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kdc() -> MockKerberos {
        let k = MockKerberos::new("SANDIA.GOV", 0x5EC2E7);
        k.add_user("roldfield", "hunter2", PrincipalId(1001));
        k.add_user("maccabe", "lobo", PrincipalId(1002));
        k
    }

    #[test]
    fn kinit_and_verify() {
        let k = kdc();
        let ticket = k.kinit("roldfield", "hunter2").unwrap();
        assert_eq!(k.verify_token(&ticket).unwrap(), PrincipalId(1001));
    }

    #[test]
    fn wrong_password_rejected() {
        let k = kdc();
        assert_eq!(k.kinit("roldfield", "wrong").unwrap_err(), MechError::BadProof);
    }

    #[test]
    fn unknown_user_rejected() {
        let k = kdc();
        assert_eq!(k.kinit("nobody", "x").unwrap_err(), MechError::UnknownUser);
    }

    #[test]
    fn tampered_ticket_rejected() {
        let k = kdc();
        let mut ticket = k.kinit("roldfield", "hunter2").unwrap();
        // Flip a byte of the embedded name: MAC must fail.
        ticket[1] ^= 0xFF;
        assert_eq!(k.verify_token(&ticket).unwrap_err(), MechError::InvalidToken);
    }

    #[test]
    fn truncated_ticket_rejected() {
        let k = kdc();
        let ticket = k.kinit("roldfield", "hunter2").unwrap();
        assert_eq!(k.verify_token(&ticket[..5]).unwrap_err(), MechError::InvalidToken);
        assert_eq!(k.verify_token(&[]).unwrap_err(), MechError::InvalidToken);
    }

    #[test]
    fn ticket_from_other_kdc_rejected() {
        let k1 = kdc();
        let k2 = MockKerberos::new("SANDIA.GOV", 0xD1FF_E4E7);
        k2.add_user("roldfield", "hunter2", PrincipalId(1001));
        let foreign = k2.kinit("roldfield", "hunter2").unwrap();
        assert_eq!(k1.verify_token(&foreign).unwrap_err(), MechError::InvalidToken);
    }

    #[test]
    fn distinct_users_distinct_principals() {
        let k = kdc();
        let t1 = k.kinit("roldfield", "hunter2").unwrap();
        let t2 = k.kinit("maccabe", "lobo").unwrap();
        assert_ne!(k.verify_token(&t1).unwrap(), k.verify_token(&t2).unwrap());
    }
}
