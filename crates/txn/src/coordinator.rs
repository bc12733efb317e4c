//! The client-side two-phase commit coordinator.
//!
//! The paper makes the client the coordinator ("A two-phase commit protocol
//! (part of the LWFS API) helps the client to preserve the atomicity
//! property because it requires all participating servers to agree on the
//! final state of the system before changes become permanent", §3.4).
//!
//! Message complexity per transaction is `2 × |participants|` RPCs —
//! participants number O(m) (storage/naming servers touched), never O(n),
//! in keeping with the scalability rules of §2.3.

use std::time::Instant;

use lwfs_portals::RpcClient;
use lwfs_proto::{Error, ProcessId, ReplyBody, RequestBody, Result, TraceContext, TxnId};

/// Outcome of a completed two-phase commit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TxnOutcome {
    Committed,
    /// Aborted, with the participants (if any) whose "no" votes or errors
    /// caused it.
    Aborted {
        no_votes: Vec<ProcessId>,
    },
}

impl TxnOutcome {
    pub fn is_committed(&self) -> bool {
        matches!(self, TxnOutcome::Committed)
    }
}

/// A two-phase commit driver bound to an RPC client.
pub struct Coordinator<'a, 'ep> {
    client: &'a RpcClient<'ep>,
    participants: Vec<ProcessId>,
}

impl<'a, 'ep> Coordinator<'a, 'ep> {
    pub fn new(client: &'a RpcClient<'ep>, participants: Vec<ProcessId>) -> Self {
        Self { client, participants }
    }

    /// Root the distributed trace at the transaction id: every prepare,
    /// commit, and abort RPC this coordinator issues carries
    /// `trace_id = txn.0`, so the participants' spans — including their
    /// WAL appends and, on replicated groups, their ships — assemble into
    /// one transaction-wide trace.
    fn trace_as(&self, txn: TxnId) {
        self.client.set_trace(TraceContext { trace_id: txn.0, parent_req_id: 0 });
    }

    pub fn participants(&self) -> &[ProcessId] {
        &self.participants
    }

    /// Run phase 1 (prepare) and phase 2 (commit or abort) for `txn`.
    ///
    /// Any participant voting no — or any transport error during phase 1 —
    /// aborts the whole transaction at every participant.
    ///
    /// Each run is traced on the fabric registry under op `txn` (keyed by
    /// the transaction id): a `prepare` span covering phase 1, a `commit`
    /// span covering phase 2, and the end-to-end total — which feed the
    /// `txn.prepare_ns` / `txn.commit_ns` / `txn.total_ns` histograms.
    pub fn commit(&self, txn: TxnId) -> Result<TxnOutcome> {
        let obs = self.client.endpoint().obs();
        self.trace_as(txn);
        let mut trace = obs.trace(txn.0, "txn").on_node(self.client.endpoint().id().nid.0);
        let mut no_votes = Vec::new();
        for p in &self.participants {
            match self.client.call(*p, RequestBody::TxnPrepare { txn }) {
                Ok(ReplyBody::TxnVote(true)) => {}
                Ok(ReplyBody::TxnVote(false)) => no_votes.push(*p),
                Ok(other) => return Err(Error::Internal(format!("bad prepare reply {other:?}"))),
                Err(_) => no_votes.push(*p),
            }
        }
        trace.stage("prepare");

        if no_votes.is_empty() {
            for p in &self.participants {
                match self.client.call(*p, RequestBody::TxnCommit { txn }) {
                    Ok(ReplyBody::TxnCommitted) => {}
                    Ok(other) => {
                        return Err(Error::Internal(format!("bad commit reply {other:?}")))
                    }
                    // A participant that prepared but is now unreachable
                    // must be retried by recovery; surface the error.
                    Err(e) => return Err(e),
                }
            }
            trace.stage("commit");
            obs.counter("txn.commits").inc();
            trace.finish();
            Ok(TxnOutcome::Committed)
        } else {
            // Abort latency and the abort count are recorded by `abort`
            // itself; the trace still captures the end-to-end total.
            self.abort(txn)?;
            trace.finish();
            Ok(TxnOutcome::Aborted { no_votes })
        }
    }

    /// Run **phase 1 only**: prepare `txn` at every participant and return
    /// the set of no-votes (empty means every participant is now durably
    /// prepared and holds the transaction *in doubt*).
    ///
    /// A coordinator that stops here — crash, test harness, or deliberate
    /// hand-off — leaves the decision to a later [`resolve`] call; prepared
    /// participants never unilaterally forget.
    ///
    /// [`resolve`]: Coordinator::resolve
    pub fn prepare(&self, txn: TxnId) -> Result<Vec<ProcessId>> {
        let obs = self.client.endpoint().obs();
        self.trace_as(txn);
        let mut trace = obs.trace(txn.0, "txn.phase1").on_node(self.client.endpoint().id().nid.0);
        let mut no_votes = Vec::new();
        for p in &self.participants {
            match self.client.call(*p, RequestBody::TxnPrepare { txn }) {
                Ok(ReplyBody::TxnVote(true)) => {}
                Ok(ReplyBody::TxnVote(false)) => no_votes.push(*p),
                Ok(other) => return Err(Error::Internal(format!("bad prepare reply {other:?}"))),
                Err(_) => no_votes.push(*p),
            }
        }
        trace.stage("prepare");
        trace.finish();
        Ok(no_votes)
    }

    /// Run **phase 2 only**, announcing an already-decided outcome to
    /// participants holding `txn` in doubt (e.g. after one of them
    /// restarted from its write-ahead log).
    ///
    /// `NoSuchTxn` replies are tolerated: a participant that already heard
    /// the verdict — or that aborted under presumed-abort — has nothing
    /// left to resolve.
    pub fn resolve(&self, txn: TxnId, commit: bool) -> Result<()> {
        let obs = self.client.endpoint().obs();
        self.trace_as(txn);
        let mut trace = obs.trace(txn.0, "txn.phase2").on_node(self.client.endpoint().id().nid.0);
        for p in &self.participants {
            let body =
                if commit { RequestBody::TxnCommit { txn } } else { RequestBody::TxnAbort { txn } };
            match self.client.call(*p, body) {
                Ok(ReplyBody::TxnCommitted) | Ok(ReplyBody::TxnAborted) => {}
                Err(Error::NoSuchTxn(_)) => {}
                Ok(other) => return Err(Error::Internal(format!("bad resolve reply {other:?}"))),
                Err(e) => return Err(e),
            }
        }
        trace.stage("resolve");
        trace.finish();
        Ok(())
    }

    /// Abort `txn` at every participant (also used directly by clients that
    /// hit an error before commit).
    pub fn abort(&self, txn: TxnId) -> Result<()> {
        let obs = self.client.endpoint().obs();
        self.trace_as(txn);
        let start = Instant::now();
        for p in &self.participants {
            // Best effort: an unreachable participant holds no prepared
            // state we committed to, and presumed-abort cleans it up.
            let _ = self.client.call(*p, RequestBody::TxnAbort { txn });
        }
        obs.histogram("txn.abort_ns").record_duration(start.elapsed());
        obs.counter("txn.aborts").inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lwfs_portals::{spawn_service, Endpoint, Network, Service, ServiceHandle};
    use lwfs_proto::Request;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::Arc;

    /// A scripted participant: votes as told, counts protocol messages.
    struct ScriptedParticipant {
        vote: bool,
        prepares: Arc<AtomicU64>,
        commits: Arc<AtomicU64>,
        aborts: Arc<AtomicU64>,
    }

    impl Service for ScriptedParticipant {
        fn handle(&mut self, _ep: &Endpoint, req: &Request) -> ReplyBody {
            match req.body {
                RequestBody::TxnPrepare { .. } => {
                    self.prepares.fetch_add(1, Ordering::SeqCst);
                    ReplyBody::TxnVote(self.vote)
                }
                RequestBody::TxnCommit { .. } => {
                    self.commits.fetch_add(1, Ordering::SeqCst);
                    ReplyBody::TxnCommitted
                }
                RequestBody::TxnAbort { .. } => {
                    self.aborts.fetch_add(1, Ordering::SeqCst);
                    ReplyBody::TxnAborted
                }
                _ => ReplyBody::Err(Error::Internal("unexpected".into())),
            }
        }
    }

    struct Counters {
        prepares: Arc<AtomicU64>,
        commits: Arc<AtomicU64>,
        aborts: Arc<AtomicU64>,
    }

    fn spawn_participant(net: &Network, nid: u32, vote: bool) -> (ServiceHandle, Counters) {
        let c = Counters {
            prepares: Arc::new(AtomicU64::new(0)),
            commits: Arc::new(AtomicU64::new(0)),
            aborts: Arc::new(AtomicU64::new(0)),
        };
        let svc = ScriptedParticipant {
            vote,
            prepares: c.prepares.clone(),
            commits: c.commits.clone(),
            aborts: c.aborts.clone(),
        };
        (spawn_service(net, ProcessId::new(nid, 0), svc), c)
    }

    #[test]
    fn all_yes_commits_everywhere() {
        let net = Network::default();
        let (h1, c1) = spawn_participant(&net, 1, true);
        let (h2, c2) = spawn_participant(&net, 2, true);
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let coord = Coordinator::new(&client, vec![h1.id(), h2.id()]);
        let out = coord.commit(TxnId(1)).unwrap();
        assert_eq!(out, TxnOutcome::Committed);
        for c in [&c1, &c2] {
            assert_eq!(c.prepares.load(Ordering::SeqCst), 1);
            assert_eq!(c.commits.load(Ordering::SeqCst), 1);
            assert_eq!(c.aborts.load(Ordering::SeqCst), 0);
        }
        h1.shutdown();
        h2.shutdown();
    }

    #[test]
    fn one_no_vote_aborts_everyone() {
        let net = Network::default();
        let (h1, c1) = spawn_participant(&net, 1, true);
        let (h2, c2) = spawn_participant(&net, 2, false);
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let coord = Coordinator::new(&client, vec![h1.id(), h2.id()]);
        let out = coord.commit(TxnId(1)).unwrap();
        assert_eq!(out, TxnOutcome::Aborted { no_votes: vec![h2.id()] });
        assert!(!out.is_committed());
        for c in [&c1, &c2] {
            assert_eq!(c.commits.load(Ordering::SeqCst), 0);
            assert_eq!(c.aborts.load(Ordering::SeqCst), 1);
        }
        h1.shutdown();
        h2.shutdown();
    }

    #[test]
    fn unreachable_participant_aborts() {
        let net = Network::default();
        let (h1, c1) = spawn_participant(&net, 1, true);
        let ghost = ProcessId::new(99, 0); // never registered
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let coord = Coordinator::new(&client, vec![h1.id(), ghost]);
        let out = coord.commit(TxnId(7)).unwrap();
        assert_eq!(out, TxnOutcome::Aborted { no_votes: vec![ghost] });
        assert_eq!(c1.aborts.load(Ordering::SeqCst), 1);
        h1.shutdown();
    }

    #[test]
    fn phase_latencies_and_outcomes_feed_registry() {
        let net = Network::default();
        let (h1, _c1) = spawn_participant(&net, 1, true);
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        let coord = Coordinator::new(&client, vec![h1.id()]);
        coord.commit(TxnId(1)).unwrap();
        let frame = net.obs().frame(0);
        assert_eq!(frame.counter("txn.commits"), Some(1));
        assert_eq!(frame.histogram("txn.prepare_ns").unwrap().count, 1);
        assert_eq!(frame.histogram("txn.commit_ns").unwrap().count, 1);
        assert_eq!(frame.histogram("txn.total_ns").unwrap().count, 1);

        let (h2, _c2) = spawn_participant(&net, 2, false);
        let coord = Coordinator::new(&client, vec![h1.id(), h2.id()]);
        assert!(!coord.commit(TxnId(2)).unwrap().is_committed());
        let frame = net.obs().frame(0);
        assert_eq!(frame.counter("txn.aborts"), Some(1));
        assert_eq!(frame.histogram("txn.abort_ns").unwrap().count, 1);
        h1.shutdown();
        h2.shutdown();
    }

    #[test]
    fn message_count_is_two_per_participant() {
        let net = Network::default();
        let (h1, _c1) = spawn_participant(&net, 1, true);
        let (h2, _c2) = spawn_participant(&net, 2, true);
        let (h3, _c3) = spawn_participant(&net, 3, true);
        let ep = net.register(ProcessId::new(0, 0));
        let client = RpcClient::new(&ep);
        net.stats().reset();
        let coord = Coordinator::new(&client, vec![h1.id(), h2.id(), h3.id()]);
        coord.commit(TxnId(1)).unwrap();
        // 3 prepare + 3 commit requests from the coordinator.
        assert_eq!(net.stats().sent_by(ep.id()), 6);
        h1.shutdown();
        h2.shutdown();
        h3.shutdown();
    }
}
