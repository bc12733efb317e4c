//! The cluster's **group-map directory**: a tiny service that publishes the
//! current [`GroupMap`] to anyone who asks.
//!
//! The directory is the single authority on replication-group membership.
//! The cluster control plane holds a [`DirectoryHandle`] and publishes a
//! new map (with a bumped epoch) on every promotion or backup loss.
//! Clients start from the same boot map the directory is seeded with and
//! fetch the current one only when a request to a group with another
//! member fails in a way that suggests stale routing (`NotPrimary`,
//! timeout, unreachable primary).
//!
//! This mirrors how the paper's services are composed: membership is just
//! another lightweight service reached over portals, not a special channel.

use std::sync::Arc;

use lwfs_portals::{spawn_service, Endpoint, Network, Service, ServiceHandle};
use lwfs_proto::{Error, GroupMap, ProcessId, ReplyBody, Request, RequestBody};
use parking_lot::RwLock;

/// Server side of the directory: answers `GetGroupMap` with the current map.
struct GroupDirectory {
    map: Arc<RwLock<GroupMap>>,
}

impl Service for GroupDirectory {
    fn handle(&mut self, ep: &Endpoint, req: &Request) -> ReplyBody {
        match &req.body {
            RequestBody::Ping => ReplyBody::Pong,
            RequestBody::GetGroupMap => ReplyBody::GroupMapReply(self.map.read().clone()),
            RequestBody::ReportDroppedBackup { group, epoch: _, backup } => {
                self.drop_backup(ep, req.reply_to, *group as usize, *backup)
            }
            _ => ReplyBody::Err(Error::Malformed(
                "group directory answers only group-map lookups".into(),
            )),
        }
    }
}

impl GroupDirectory {
    /// A primary reports that it dropped `backup` at the ship deadline:
    /// republish the map without the member so clients stop reading from
    /// the out-of-sync replica and a later promotion can never pick it.
    ///
    /// Only the group's *current primary* (per the published map) may
    /// shrink its group — a rogue endpoint that learned the topology from
    /// the public `GetGroupMap` gets `AccessDenied`. The removal is
    /// idempotent: re-reporting an already-removed member returns the
    /// current map without burning an epoch.
    fn drop_backup(
        &self,
        ep: &Endpoint,
        sender: ProcessId,
        group: usize,
        backup: ProcessId,
    ) -> ReplyBody {
        let mut map = self.map.write();
        let Some(g) = map.groups.get(group) else {
            return ReplyBody::Err(Error::Malformed(format!("no replication group {group}")));
        };
        if g.primary() != Some(sender) {
            return ReplyBody::Err(Error::AccessDenied);
        }
        if backup == sender {
            return ReplyBody::Err(Error::Malformed(
                "a primary cannot drop itself from its group".into(),
            ));
        }
        if let Some(pos) = g.members.iter().position(|m| *m == backup) {
            map.groups[group].members.remove(pos);
            map.epoch += 1;
            // Journal the membership change at the moment the shrunken map
            // becomes fetchable — sequenced after the primary's own
            // `repl.evict_backup` event, which fired before the report.
            ep.obs().events().record(
                ep.id().nid.0,
                "directory.republish",
                format!(
                    "group {group}: {backup} removed on report from {sender}, epoch {}",
                    map.epoch
                ),
            );
        }
        ReplyBody::GroupMapReply(map.clone())
    }
}

/// Control-plane handle for updating and inspecting the published map.
#[derive(Clone)]
pub struct DirectoryHandle {
    map: Arc<RwLock<GroupMap>>,
}

impl DirectoryHandle {
    /// Replace the published map. Epochs must move forward: a publish that
    /// does not advance the epoch is a control-plane bug (two concurrent
    /// membership changes racing), so it panics rather than letting clients
    /// observe an ABA view.
    pub fn publish(&self, next: GroupMap) {
        let mut cur = self.map.write();
        assert!(
            next.epoch > cur.epoch,
            "group-map epoch must advance: {} -> {}",
            cur.epoch,
            next.epoch
        );
        *cur = next;
    }

    /// The currently published map.
    pub fn snapshot(&self) -> GroupMap {
        self.map.read().clone()
    }
}

/// Spawn the directory service at `id`, seeded with `initial`.
pub fn spawn_directory(
    net: &Network,
    id: ProcessId,
    initial: GroupMap,
) -> (ServiceHandle, DirectoryHandle) {
    let map = Arc::new(RwLock::new(initial));
    let handle = spawn_service(net, id, GroupDirectory { map: Arc::clone(&map) });
    (handle, DirectoryHandle { map })
}

/// Promote the senior backup of `group` after its primary died: drop the
/// dead head, advance the epoch, and return the new primary. `None` (and
/// no map change) if the group has no surviving backup.
///
/// This is the selection-blind fallback; a control plane that can query
/// survivor sync state uses [`install_primary`] to pick the most
/// caught-up member instead.
pub fn promote(map: &mut GroupMap, group: usize) -> Option<ProcessId> {
    let g = &mut map.groups[group];
    if g.members.len() < 2 {
        return None;
    }
    g.members.remove(0);
    map.epoch += 1;
    g.members.first().copied()
}

/// Rebuild `group` around an elected primary: `chosen` leads, `followers`
/// are the members verified to be fully caught up with it, the epoch
/// advances. Members *not* listed (dead, unreachable, or behind on
/// applied ships) leave the map — without a re-sync protocol a stale
/// member must never serve reads or be promoted later, so dropping it is
/// the only safe disposition.
pub fn install_primary(
    map: &mut GroupMap,
    group: usize,
    chosen: ProcessId,
    followers: &[ProcessId],
) {
    let g = &mut map.groups[group];
    debug_assert!(g.members.contains(&chosen), "elected primary must be a group member");
    let mut members = Vec::with_capacity(1 + followers.len());
    members.push(chosen);
    members.extend(followers.iter().copied());
    g.members = members;
    map.epoch += 1;
}

/// Remove a dead *backup* from whichever group holds it, advancing the
/// epoch. Returns the group's surviving primary (so the caller can tell it
/// to stop shipping there). Refuses to remove a primary — that path is
/// [`promote`].
pub fn remove_backup(map: &mut GroupMap, id: ProcessId) -> Option<ProcessId> {
    let group = map.group_of(id)?;
    let g = &mut map.groups[group];
    let pos = g.members.iter().position(|m| *m == id)?;
    if pos == 0 {
        return None;
    }
    g.members.remove(pos);
    map.epoch += 1;
    g.primary()
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_portals::RpcClient;

    fn pid(n: u32) -> ProcessId {
        ProcessId::new(n, 0)
    }

    fn map4() -> GroupMap {
        GroupMap::grouped(&[pid(1), pid(2), pid(3), pid(4)], 2)
    }

    #[test]
    fn directory_serves_published_maps() {
        let net = Network::default();
        let (svc, dir) = spawn_directory(&net, pid(99), map4());
        let ep = net.register(pid(0));
        let client = RpcClient::new(&ep);

        let got = match client.call(pid(99), RequestBody::GetGroupMap).unwrap() {
            ReplyBody::GroupMapReply(m) => m,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(got, map4());

        let mut next = map4();
        promote(&mut next, 0).unwrap();
        dir.publish(next.clone());
        let got = match client.call(pid(99), RequestBody::GetGroupMap).unwrap() {
            ReplyBody::GroupMapReply(m) => m,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(got, next);
        assert_eq!(got.epoch, 2);
        svc.shutdown();
    }

    #[test]
    fn directory_rejects_foreign_requests() {
        let net = Network::default();
        let (svc, _dir) = spawn_directory(&net, pid(99), map4());
        let ep = net.register(pid(0));
        let client = RpcClient::new(&ep);
        assert!(matches!(client.call(pid(99), RequestBody::Ping).unwrap(), ReplyBody::Pong));
        assert!(matches!(
            client.call(pid(99), RequestBody::GetCred { mechanism_token: vec![] }),
            Err(Error::Malformed(_))
        ));
        svc.shutdown();
    }

    #[test]
    #[should_panic(expected = "epoch must advance")]
    fn stale_publish_panics() {
        let net = Network::default();
        let (_svc, dir) = spawn_directory(&net, pid(99), map4());
        dir.publish(map4()); // same epoch: refused
    }

    #[test]
    fn promote_drops_dead_primary_and_bumps_epoch() {
        let mut map = map4();
        let new_primary = promote(&mut map, 1).unwrap();
        assert_eq!(new_primary, pid(4));
        assert_eq!(map.epoch, 2);
        assert_eq!(map.groups[1].members, vec![pid(4)]);
        // Group 0 untouched.
        assert_eq!(map.groups[0].members, vec![pid(1), pid(2)]);
        // A singleton group has nobody left to promote.
        assert!(promote(&mut map, 1).is_none());
        assert_eq!(map.epoch, 2, "failed promotion must not burn an epoch");
    }

    #[test]
    fn install_primary_rebuilds_the_group_around_the_election() {
        let mut map = map4();
        // pid(4) won the election; pid(3) (the old senior) was behind and
        // is dropped from the map entirely.
        install_primary(&mut map, 1, pid(4), &[]);
        assert_eq!(map.epoch, 2);
        assert_eq!(map.groups[1].members, vec![pid(4)]);
        assert_eq!(map.groups[0].members, vec![pid(1), pid(2)], "group 0 untouched");
    }

    #[test]
    fn drop_report_from_the_primary_shrinks_the_group() {
        let net = Network::default();
        let (svc, dir) = spawn_directory(&net, pid(99), map4());
        // The report is only honored from the group's current primary.
        let primary = net.register(pid(1));
        let client = RpcClient::new(&primary);
        let got = match client
            .call(pid(99), RequestBody::ReportDroppedBackup { group: 0, epoch: 1, backup: pid(2) })
            .unwrap()
        {
            ReplyBody::GroupMapReply(m) => m,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(got.epoch, 2);
        assert_eq!(got.groups[0].members, vec![pid(1)]);
        assert_eq!(dir.snapshot(), got, "the published map is the replied map");

        // Idempotent: re-reporting the same member returns the current
        // map without burning another epoch.
        let again = match client
            .call(pid(99), RequestBody::ReportDroppedBackup { group: 0, epoch: 2, backup: pid(2) })
            .unwrap()
        {
            ReplyBody::GroupMapReply(m) => m,
            other => panic!("unexpected reply {other:?}"),
        };
        assert_eq!(again.epoch, 2);
        svc.shutdown();
    }

    #[test]
    fn drop_report_from_anyone_else_is_refused() {
        let net = Network::default();
        let (svc, dir) = spawn_directory(&net, pid(99), map4());
        // A backup (or any rogue endpoint) cannot shrink the group.
        let rogue = net.register(pid(2));
        let client = RpcClient::new(&rogue);
        assert_eq!(
            client
                .call(
                    pid(99),
                    RequestBody::ReportDroppedBackup { group: 0, epoch: 1, backup: pid(1) },
                )
                .unwrap_err(),
            Error::AccessDenied
        );
        // And a primary cannot drop itself.
        let primary = net.register(pid(1));
        let client = RpcClient::new(&primary);
        assert!(matches!(
            client
                .call(
                    pid(99),
                    RequestBody::ReportDroppedBackup { group: 0, epoch: 1, backup: pid(1) },
                )
                .unwrap_err(),
            Error::Malformed(_)
        ));
        assert_eq!(dir.snapshot().epoch, 1, "refused reports never change the map");
        svc.shutdown();
    }

    #[test]
    fn remove_backup_leaves_primary_in_place() {
        let mut map = map4();
        assert_eq!(remove_backup(&mut map, pid(2)), Some(pid(1)));
        assert_eq!(map.epoch, 2);
        assert_eq!(map.groups[0].members, vec![pid(1)]);
        // Primaries and strangers are refused.
        assert_eq!(remove_backup(&mut map, pid(1)), None);
        assert_eq!(remove_backup(&mut map, pid(77)), None);
        assert_eq!(map.epoch, 2);
    }
}
