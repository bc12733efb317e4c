//! Log-tree collective operations for SPMD application groups.
//!
//! The paper's capability-distribution protocol (Figure 4-a, step 3) has a
//! single rank fetch capabilities and then *scatter* them to the other
//! n − 1 ranks with a logarithmic tree — the system never performs an O(n)
//! operation (§2.3 rule 1); the O(n) work happens on the application's own
//! processors, in O(log n) rounds.
//!
//! Provided operations: [`broadcast`] (binomial tree), [`gather`] (reversed
//! binomial tree), and [`barrier`] (dissemination). Each invocation must use
//! a `tag` unique among concurrently outstanding collectives in the group.

use std::time::Duration;

use bytes::Bytes;
use lwfs_proto::{Decode, Encode, Error, ProcessId, Result};

use crate::endpoint::Endpoint;
use crate::event::Event;
use crate::{Group, COLLECTIVE_SPACE};

/// Default collective timeout: generous, because test machines are slow.
pub const COLLECTIVE_TIMEOUT: Duration = Duration::from_secs(10);

fn coll_match(tag: u64, round: u32) -> u64 {
    // tag in bits [16, 56), round in [0, 16).
    COLLECTIVE_SPACE | ((tag & 0xFF_FFFF_FFFF) << 16) | u64::from(round & 0xFFFF)
}

fn send_retry(ep: &Endpoint, to: ProcessId, match_bits: u64, data: Bytes) -> Result<()> {
    // Deadline-capped (a peer that never drains used to spin this loop
    // forever); the shape matches the historical 50 µs → 10 ms doubling.
    let policy = crate::retry::RetryPolicy::with_deadline(COLLECTIVE_TIMEOUT);
    crate::retry::send_with_backoff(ep, to, match_bits, data, &policy)
}

fn recv_from(ep: &Endpoint, from: ProcessId, match_bits: u64, timeout: Duration) -> Result<Bytes> {
    let ev = ep.recv_match(timeout, |e| {
        matches!(e, Event::Message { from: f, match_bits: m, .. } if *f == from && *m == match_bits)
    })?;
    Ok(ev.message_data().expect("message event").clone())
}

/// Binomial-tree broadcast of `data` from `root` to every rank.
///
/// Every rank calls this; non-root ranks pass `None` and receive the
/// broadcast value. Message rounds: ⌈log₂ n⌉; messages per rank: ≤ log₂ n.
pub fn broadcast(
    ep: &Endpoint,
    group: &Group,
    rank: usize,
    root: usize,
    tag: u64,
    data: Option<Bytes>,
) -> Result<Bytes> {
    let n = group.size();
    assert!(rank < n && root < n, "rank/root out of range");
    // Relabel so the root is relative rank 0 (MPICH binomial broadcast).
    let rel = (rank + n - root) % n;

    // Phase 1: non-root ranks receive from their parent. The parent of a
    // relative rank is obtained by clearing its lowest set bit; the round
    // tag is that bit's position, which both sides can compute locally.
    let mut mask = 1usize;
    let mut payload = if rel == 0 {
        data.ok_or_else(|| Error::Internal("root must supply broadcast data".into()))?
    } else {
        loop {
            if rel & mask != 0 {
                let parent = group.member((rel - mask + root) % n);
                break recv_from(
                    ep,
                    parent,
                    coll_match(tag, mask.trailing_zeros()),
                    COLLECTIVE_TIMEOUT,
                )?;
            }
            mask <<= 1;
        }
    };
    if rel == 0 {
        while mask < n {
            mask <<= 1;
        }
    }

    // Phase 2: forward to children at decreasing bit positions below the
    // bit we received on (or below n for the root).
    mask >>= 1;
    while mask > 0 {
        if rel + mask < n {
            let child = group.member((rel + mask + root) % n);
            send_retry(ep, child, coll_match(tag, mask.trailing_zeros()), payload.clone())?;
        }
        mask >>= 1;
    }
    Ok(std::mem::take(&mut payload))
}

/// Gather each rank's `data` to `root` along a reversed binomial tree.
///
/// Returns `Some(values)` (indexed by rank) at the root, `None` elsewhere.
pub fn gather(
    ep: &Endpoint,
    group: &Group,
    rank: usize,
    root: usize,
    tag: u64,
    data: Bytes,
) -> Result<Option<Vec<Bytes>>> {
    let n = group.size();
    assert!(rank < n && root < n, "rank/root out of range");
    let rel = (rank + n - root) % n;

    // Accumulate (relative_rank, bytes) pairs, starting with our own.
    // Reversed binomial tree: at round `mask`, ranks with the mask bit set
    // send their accumulated set to `rel - mask` and finish; ranks with the
    // bit clear receive from `rel + mask` if that child exists.
    let mut acc: Vec<(u32, Vec<u8>)> = vec![(rel as u32, data.to_vec())];
    let mut mask = 1usize;
    while mask < n {
        if rel & mask == 0 {
            if rel + mask < n {
                let child = group.member((rel + mask + root) % n);
                let raw = recv_from(
                    ep,
                    child,
                    coll_match(tag, mask.trailing_zeros()),
                    COLLECTIVE_TIMEOUT,
                )?;
                let mut chunk: Vec<(u32, Vec<u8>)> = Decode::from_bytes(raw)?;
                acc.append(&mut chunk);
            }
        } else {
            let parent = group.member((rel - mask + root) % n);
            send_retry(ep, parent, coll_match(tag, mask.trailing_zeros()), acc.to_bytes())?;
            return Ok(None);
        }
        mask <<= 1;
    }

    // Only relative rank 0 (the root) reaches here with the full set.
    let mut absolute: Vec<Option<Bytes>> = vec![None; n];
    for (relr, v) in acc {
        let abs = (relr as usize + root) % n;
        if absolute[abs].replace(Bytes::from(v)).is_some() {
            return Err(Error::Internal(format!("gather: duplicate contribution rank {abs}")));
        }
    }
    absolute
        .into_iter()
        .enumerate()
        .map(|(abs, slot)| {
            slot.ok_or_else(|| Error::Internal(format!("gather: missing rank {abs}")))
        })
        .collect::<Result<Vec<Bytes>>>()
        .map(Some)
}

/// Personalized all-to-all exchange: rank `i` sends `data[j]` to rank `j`
/// and receives one blob from every rank (its own entry is returned
/// untouched). The returned vector is indexed by source rank.
///
/// This is an *application-side* collective (two-phase I/O's shuffle step,
/// del Rosario et al., ref. 12, in the paper's references): each rank performs
/// O(n) sends of its own data — allowed, because the §2.3 rules constrain
/// *system-imposed* operations, not what the application does with its own
/// processors.
pub fn all_to_all(
    ep: &Endpoint,
    group: &Group,
    rank: usize,
    tag: u64,
    mut data: Vec<Bytes>,
) -> Result<Vec<Bytes>> {
    let n = group.size();
    assert_eq!(data.len(), n, "all_to_all needs one blob per destination rank");
    assert!(n <= 0xFFFF, "rank encoded in the 16-bit round field");

    // Send to peers in a rotated order (rank+1, rank+2, …) so that no
    // single destination absorbs everyone's first message at once.
    for k in 1..n {
        let dest = (rank + k) % n;
        send_retry(ep, group.member(dest), coll_match(tag, rank as u32), data[dest].clone())?;
    }
    let mine = std::mem::take(&mut data[rank]);
    let mut out: Vec<Option<Bytes>> = (0..n).map(|_| None).collect();
    out[rank] = Some(mine);
    for k in 1..n {
        let src = (rank + n - k) % n;
        let blob =
            recv_from(ep, group.member(src), coll_match(tag, src as u32), COLLECTIVE_TIMEOUT)?;
        out[src] = Some(blob);
    }
    Ok(out.into_iter().map(|b| b.expect("all sources received")).collect())
}

/// Dissemination barrier: ⌈log₂ n⌉ rounds, each rank sends one message and
/// receives one message per round.
pub fn barrier(ep: &Endpoint, group: &Group, rank: usize, tag: u64) -> Result<()> {
    let n = group.size();
    if n == 1 {
        return Ok(());
    }
    let rounds = usize::BITS - (n - 1).leading_zeros();
    for r in 0..rounds {
        let dist = 1usize << r;
        let to = group.member((rank + dist) % n);
        let from = group.member((rank + n - dist) % n);
        send_retry(ep, to, coll_match(tag, r), Bytes::new())?;
        recv_from(ep, from, coll_match(tag, r), COLLECTIVE_TIMEOUT)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::Network;
    use std::sync::Arc;

    fn spawn_group(n: usize) -> (Network, Vec<Endpoint>, Group) {
        let net = Network::default();
        let ids: Vec<ProcessId> = (0..n as u32).map(|i| ProcessId::new(i, 0)).collect();
        let eps: Vec<Endpoint> = ids.iter().map(|id| net.register(*id)).collect();
        let group = Group::new(ids);
        (net, eps, group)
    }

    fn run_all<F, T>(eps: Vec<Endpoint>, group: Group, f: F) -> Vec<T>
    where
        F: Fn(&Endpoint, &Group, usize) -> T + Send + Sync + 'static,
        T: Send + 'static,
    {
        let f = Arc::new(f);
        let group = Arc::new(group);
        let handles: Vec<_> = eps
            .into_iter()
            .enumerate()
            .map(|(rank, ep)| {
                let f = Arc::clone(&f);
                let group = Arc::clone(&group);
                std::thread::spawn(move || f(&ep, &group, rank))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn broadcast_reaches_all_ranks() {
        for n in [1usize, 2, 3, 4, 5, 8, 13, 16] {
            let (_net, eps, group) = spawn_group(n);
            let results = run_all(eps, group, move |ep, group, rank| {
                let data =
                    (rank == 0).then(|| Bytes::from_static(b"caps-from-authorization-server"));
                broadcast(ep, group, rank, 0, 1, data).unwrap()
            });
            for r in results {
                assert_eq!(r.as_ref(), b"caps-from-authorization-server", "n={n}");
            }
        }
    }

    #[test]
    fn broadcast_from_nonzero_root() {
        let n = 7;
        let (_net, eps, group) = spawn_group(n);
        let results = run_all(eps, group, move |ep, group, rank| {
            let data = (rank == 3).then(|| Bytes::from_static(b"root3"));
            broadcast(ep, group, rank, 3, 2, data).unwrap()
        });
        for r in results {
            assert_eq!(r.as_ref(), b"root3");
        }
    }

    #[test]
    fn broadcast_message_count_is_n_minus_1() {
        // Exactly n-1 messages total: the tree delivers once per non-root.
        let n = 16;
        let (net, eps, group) = spawn_group(n);
        net.stats().reset();
        run_all(eps, group, move |ep, group, rank| {
            let data = (rank == 0).then(|| Bytes::from_static(b"x"));
            broadcast(ep, group, rank, 0, 3, data).unwrap()
        });
        assert_eq!(net.stats().messages.get(), (n - 1) as u64);
    }

    #[test]
    fn broadcast_no_rank_sends_more_than_log_n() {
        // The root must not perform O(n) sends (paper §2.3 rule 1).
        let n = 32;
        let (net, eps, group) = spawn_group(n);
        net.stats().reset();
        run_all(eps, group, move |ep, group, rank| {
            let data = (rank == 0).then(|| Bytes::from_static(b"x"));
            broadcast(ep, group, rank, 0, 4, data).unwrap()
        });
        let log_n = (usize::BITS - (n - 1).leading_zeros()) as u64;
        for rank in 0..n as u32 {
            let sent = net.stats().sent_by(ProcessId::new(rank, 0));
            assert!(sent <= log_n, "rank {rank} sent {sent} > log2(n)={log_n}");
        }
    }

    #[test]
    fn gather_collects_all_contributions() {
        for n in [1usize, 2, 3, 4, 6, 8, 11] {
            let (_net, eps, group) = spawn_group(n);
            let results = run_all(eps, group, move |ep, group, rank| {
                let data = Bytes::from(format!("rank-{rank}"));
                gather(ep, group, rank, 0, 5, data).unwrap()
            });
            let root_result = results.into_iter().find(|r| r.is_some()).unwrap().unwrap();
            assert_eq!(root_result.len(), n);
            for (rank, v) in root_result.iter().enumerate() {
                assert_eq!(v.as_ref(), format!("rank-{rank}").as_bytes(), "n={n}");
            }
        }
    }

    #[test]
    fn all_to_all_exchanges_personalized_blobs() {
        for n in [1usize, 2, 3, 5, 8] {
            let (_net, eps, group) = spawn_group(n);
            let results = run_all(eps, group, move |ep, group, rank| {
                let outgoing: Vec<Bytes> =
                    (0..n).map(|dest| Bytes::from(format!("{rank}->{dest}"))).collect();
                all_to_all(ep, group, rank, 40, outgoing).unwrap()
            });
            for (rank, incoming) in results.into_iter().enumerate() {
                assert_eq!(incoming.len(), n);
                for (src, blob) in incoming.iter().enumerate() {
                    assert_eq!(blob.as_ref(), format!("{src}->{rank}").as_bytes(), "n={n}");
                }
            }
        }
    }

    #[test]
    fn barrier_synchronizes() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let n = 8;
        let (_net, eps, group) = spawn_group(n);
        let counter = Arc::new(AtomicUsize::new(0));
        let c2 = Arc::clone(&counter);
        run_all(eps, group, move |ep, group, rank| {
            c2.fetch_add(1, Ordering::SeqCst);
            barrier(ep, group, rank, 6).unwrap();
            // After the barrier, every rank must have incremented.
            assert_eq!(c2.load(Ordering::SeqCst), n);
        });
        assert_eq!(counter.load(Ordering::SeqCst), n);
    }

    #[test]
    fn barrier_single_rank_is_noop() {
        let (_net, eps, group) = spawn_group(1);
        let ep = &eps[0];
        barrier(ep, &group, 0, 7).unwrap();
    }

    #[test]
    fn collectives_with_different_tags_do_not_cross_talk() {
        let n = 4;
        let (_net, eps, group) = spawn_group(n);
        let results = run_all(eps, group, move |ep, group, rank| {
            // Two broadcasts back-to-back with different tags and values.
            let d1 = (rank == 0).then(|| Bytes::from_static(b"first"));
            let r1 = broadcast(ep, group, rank, 0, 100, d1).unwrap();
            let d2 = (rank == 0).then(|| Bytes::from_static(b"second"));
            let r2 = broadcast(ep, group, rank, 0, 101, d2).unwrap();
            (r1, r2)
        });
        for (r1, r2) in results {
            assert_eq!(r1.as_ref(), b"first");
            assert_eq!(r2.as_ref(), b"second");
        }
    }
}
