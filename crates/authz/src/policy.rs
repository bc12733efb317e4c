//! Container access-control policies.
//!
//! A container's policy is a map from principal to the operations that
//! principal may be granted. The container creator receives
//! [`OpMask::ALL`], including `ADMIN` (the right to change the policy
//! itself). This is the "centralized definitions of access-control
//! policies" half of §2.4; enforcement is distributed to the storage
//! servers via capability caches.

use std::collections::HashMap;

use lwfs_proto::{ContainerId, Error, OpMask, PrincipalId, Result};

/// One principal's rights on a container.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AclEntry {
    pub principal: PrincipalId,
    pub ops: OpMask,
}

#[derive(Debug, Clone)]
struct ContainerPolicy {
    owner: PrincipalId,
    acl: HashMap<PrincipalId, OpMask>,
}

/// The policy store: every container's ACL.
#[derive(Debug, Default)]
pub struct PolicyStore {
    containers: HashMap<ContainerId, ContainerPolicy>,
    next_cid: u64,
}

impl PolicyStore {
    pub fn new() -> Self {
        Self::default()
    }

    /// Create a container owned by `principal`, who receives all rights.
    pub fn create_container(&mut self, principal: PrincipalId) -> ContainerId {
        let cid = ContainerId(self.next_cid);
        self.next_cid += 1;
        let mut acl = HashMap::new();
        acl.insert(principal, OpMask::ALL);
        self.containers.insert(cid, ContainerPolicy { owner: principal, acl });
        cid
    }

    /// Remove a container and its policy.
    pub fn remove_container(&mut self, cid: ContainerId) -> Result<()> {
        self.containers.remove(&cid).map(|_| ()).ok_or(Error::NoSuchContainer(cid))
    }

    pub fn exists(&self, cid: ContainerId) -> bool {
        self.containers.contains_key(&cid)
    }

    pub fn owner(&self, cid: ContainerId) -> Result<PrincipalId> {
        Ok(self.containers.get(&cid).ok_or(Error::NoSuchContainer(cid))?.owner)
    }

    /// The operations `principal` may currently be granted on `cid`.
    pub fn allowed_ops(&self, cid: ContainerId, principal: PrincipalId) -> Result<OpMask> {
        let pol = self.containers.get(&cid).ok_or(Error::NoSuchContainer(cid))?;
        Ok(pol.acl.get(&principal).copied().unwrap_or(OpMask::NONE))
    }

    /// Apply a policy change: grant `grant` and remove `revoke` for
    /// `principal`. Returns the principal's new rights.
    pub fn modify(
        &mut self,
        cid: ContainerId,
        principal: PrincipalId,
        grant: OpMask,
        revoke: OpMask,
    ) -> Result<OpMask> {
        let pol = self.containers.get_mut(&cid).ok_or(Error::NoSuchContainer(cid))?;
        let entry = pol.acl.entry(principal).or_insert(OpMask::NONE);
        *entry = entry.union(grant).difference(revoke);
        let new = *entry;
        if new.is_empty() {
            pol.acl.remove(&principal);
        }
        Ok(new)
    }

    /// Every ACL entry of a container (admin/debug surface).
    pub fn entries(&self, cid: ContainerId) -> Result<Vec<AclEntry>> {
        let pol = self.containers.get(&cid).ok_or(Error::NoSuchContainer(cid))?;
        let mut out: Vec<AclEntry> =
            pol.acl.iter().map(|(p, ops)| AclEntry { principal: *p, ops: *ops }).collect();
        out.sort_by_key(|e| e.principal);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creator_gets_all_rights() {
        let mut store = PolicyStore::new();
        let cid = store.create_container(PrincipalId(1));
        assert_eq!(store.allowed_ops(cid, PrincipalId(1)).unwrap(), OpMask::ALL);
        assert_eq!(store.owner(cid).unwrap(), PrincipalId(1));
    }

    #[test]
    fn strangers_get_nothing() {
        let mut store = PolicyStore::new();
        let cid = store.create_container(PrincipalId(1));
        assert_eq!(store.allowed_ops(cid, PrincipalId(2)).unwrap(), OpMask::NONE);
    }

    #[test]
    fn container_ids_are_unique() {
        let mut store = PolicyStore::new();
        let a = store.create_container(PrincipalId(1));
        let b = store.create_container(PrincipalId(1));
        assert_ne!(a, b);
    }

    #[test]
    fn grant_and_revoke() {
        let mut store = PolicyStore::new();
        let cid = store.create_container(PrincipalId(1));
        let new =
            store.modify(cid, PrincipalId(2), OpMask::READ | OpMask::WRITE, OpMask::NONE).unwrap();
        assert_eq!(new, OpMask::READ | OpMask::WRITE);
        // The chmod scenario: remove write, keep read.
        let new = store.modify(cid, PrincipalId(2), OpMask::NONE, OpMask::WRITE).unwrap();
        assert_eq!(new, OpMask::READ);
    }

    #[test]
    fn revoking_everything_drops_the_entry() {
        let mut store = PolicyStore::new();
        let cid = store.create_container(PrincipalId(1));
        store.modify(cid, PrincipalId(2), OpMask::READ, OpMask::NONE).unwrap();
        store.modify(cid, PrincipalId(2), OpMask::NONE, OpMask::ALL).unwrap();
        assert_eq!(store.entries(cid).unwrap().len(), 1, "only the owner remains");
    }

    #[test]
    fn missing_container_errors() {
        let mut store = PolicyStore::new();
        let ghost = ContainerId(99);
        assert!(matches!(store.allowed_ops(ghost, PrincipalId(1)), Err(Error::NoSuchContainer(_))));
        assert!(store.remove_container(ghost).is_err());
        assert!(store.modify(ghost, PrincipalId(1), OpMask::READ, OpMask::NONE).is_err());
    }

    #[test]
    fn remove_container_forgets_policy() {
        let mut store = PolicyStore::new();
        let cid = store.create_container(PrincipalId(1));
        store.remove_container(cid).unwrap();
        assert!(!store.exists(cid));
        assert!(store.allowed_ops(cid, PrincipalId(1)).is_err());
    }

    #[test]
    fn entries_sorted_by_principal() {
        let mut store = PolicyStore::new();
        let cid = store.create_container(PrincipalId(5));
        store.modify(cid, PrincipalId(2), OpMask::READ, OpMask::NONE).unwrap();
        store.modify(cid, PrincipalId(9), OpMask::WRITE, OpMask::NONE).unwrap();
        let entries = store.entries(cid).unwrap();
        let principals: Vec<_> = entries.iter().map(|e| e.principal.0).collect();
        assert_eq!(principals, vec![2, 5, 9]);
    }
}
