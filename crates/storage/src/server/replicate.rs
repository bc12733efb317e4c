//! Replication: a primary ships each mutation's frames to its backups
//! before the ack, and a backup logs and applies what it is shipped.

use std::time::{Duration, Instant};

use lwfs_obs::OpTrace;
use lwfs_portals::{retry, Endpoint, RetryPolicy, RpcClient};
use lwfs_proto::{Encode, Error, ProcessId, ReplyBody, Request, RequestBody, TraceContext};
use lwfs_wal::AppendTiming;

use super::{wal_spans, StorageServer};
use crate::buffers::WorkerBuffers;

/// What a ship or a drop report retries. `Unreachable` counts: a
/// partition may heal, and ship-before-ack means the client is not acked
/// until the backup has the records or is formally dropped.
fn ship_retryable(e: &Error) -> bool {
    matches!(e, Error::Timeout | Error::ServerBusy | Error::Unreachable)
}

impl StorageServer {
    /// How a primary retries a ship or a drop report: 200 µs doubling to
    /// 20 ms, within the group's ship deadline.
    fn ship_policy(&self) -> RetryPolicy {
        RetryPolicy {
            base: Duration::from_micros(200),
            cap: Duration::from_millis(20),
            deadline: self.replica.ship_deadline,
        }
    }

    /// Ship one completed mutation's WAL records to every backup and wait
    /// for their acks — *before* the caller sends the client reply, so an
    /// acknowledged mutation is always on every in-sync replica.
    ///
    /// A backup that cannot ack within the ship deadline is dropped from
    /// the group (availability over replication): the write completes on
    /// the surviving members and the primary reports the drop to the
    /// group directory ([`report_dropped_backup`](Self::report_dropped_backup))
    /// so the republished map stops routing reads to — and can never
    /// promote — the out-of-sync member.
    ///
    /// The frames are the ones the request logged, lent out of the
    /// worker's batch; each backup's ship is encoded once, at its exact
    /// size, into the worker's ship buffer, and every retry re-sends those
    /// bytes. Both buffers go back to the worker after the acks.
    pub(super) fn ship(
        &self,
        ep: &Endpoint,
        req: &Request,
        bufs: &mut WorkerBuffers,
        body: &ReplyBody,
        mut trace: Option<&mut OpTrace<'_>>,
    ) {
        let repl = &self.replica;
        let backups = repl.backups();
        if backups.is_empty() {
            return;
        }
        let seq = repl.alloc_seq();
        let lag = self.obs.gauge("storage.repl_lag");
        lag.set(repl.lag() as i64);
        // The frames are the very bytes our own log carries; the backup
        // re-verifies the same CRCs the disk format uses.
        let (batch, frames) = bufs.lend_frames();
        let reply = body.to_bytes();
        let epoch = repl.epoch();
        let start = Instant::now();
        // The ship is a child of the mutation being replicated: the backup
        // traces its apply under the same trace id.
        let trace_ctx = TraceContext { trace_id: req.trace.trace_id, parent_req_id: req.req_id };
        // Per-attempt reply timeout well under the total deadline, so a
        // dropped ship is re-sent (the backup's cache dedups) instead of
        // eating the whole budget in one wait.
        let mut ship_client = RpcClient::new(ep);
        ship_client.reply_timeout = (repl.ship_deadline / 4).max(Duration::from_millis(50));
        let token = self.signed.as_ref().map(|s| s.ship_token.clone()).unwrap_or_default();
        for backup in backups {
            let ship_body = RequestBody::ReplShip {
                group: repl.group(),
                epoch,
                seq,
                origin: req.reply_to,
                origin_opnum: req.opnum,
                records: frames.clone(),
                reply: reply.clone(),
            };
            // One request for every attempt: a re-sent ship keeps its opnum
            // and its bytes.
            let ship = Request::new(ep.next_opnum(), ep.id(), ship_body)
                .with_trace(trace_ctx)
                .with_token(token.clone());
            let wire = bufs.encode_ship(&ship);
            let mut attempts: u64 = 0;
            let backup_start = Instant::now();
            let outcome = retry::with_backoff(&self.ship_policy(), ship_retryable, || {
                attempts += 1;
                match ship_client.send_encoded(backup, ship.opnum, wire.clone())? {
                    ReplyBody::ReplAck { .. } => Ok(()),
                    other => Err(Error::Internal(format!("unexpected ship reply {other:?}"))),
                }
            });
            bufs.return_ship(wire);
            let ship_ns = backup_start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
            if let Some(t) = trace.as_deref_mut() {
                // One span per backup; the retry window gets its own span
                // so outlier traces show *where* the deadline went.
                t.span_with_duration("repl", "ship", ship_ns);
                if attempts > 1 {
                    t.span_with_duration("repl", "ship_retry", ship_ns);
                }
            }
            self.stats.repl_ships.inc();
            if attempts > 1 {
                self.stats.ship_retries.add(attempts - 1);
            }
            if outcome.is_err() {
                repl.drop_backup(backup);
                self.stats.ship_failures.inc();
                // Journal the eviction *before* reporting it: the event
                // order (evict → directory republish) is the causal story
                // an operator reads back after an availability incident.
                self.obs.events().record(
                    self.site.nid.0,
                    "repl.evict_backup",
                    format!(
                        "group {} epoch {epoch}: backup {backup} missed the ship deadline \
                         after {attempts} attempts",
                        repl.group()
                    ),
                );
                self.report_dropped_backup(ep, backup, trace_ctx);
            }
        }
        drop(frames);
        bufs.return_frames(batch);
        repl.record_acked(seq);
        lag.set(repl.lag() as i64);
        self.obs.histogram("storage.ship_ns").record(start.elapsed().as_nanos() as u64);
    }

    /// Tell the group directory that `backup` missed the ship deadline and
    /// left this primary's ship set, so the map is republished without it:
    /// clients stop sweeping reads to the out-of-sync replica, and a later
    /// election can never promote it over members that hold the
    /// acknowledged writes it missed.
    ///
    /// The republished map's epoch comes back in the reply and is folded
    /// in here; the next ship carries it to the surviving backups, while
    /// the dropped member — which no longer receives ships — stays behind
    /// and starts fencing fresh-map reads (see `handle`).
    fn report_dropped_backup(&self, ep: &Endpoint, backup: ProcessId, trace_ctx: TraceContext) {
        let repl = &self.replica;
        let dir = repl.directory;
        let body =
            RequestBody::ReportDroppedBackup { group: repl.group(), epoch: repl.epoch(), backup };
        // The drop report is a child of the mutation whose ship failed.
        let report = Request::new(ep.next_opnum(), ep.id(), body).with_trace(trace_ctx);
        let wire = report.to_bytes();
        let client = RpcClient::new(ep);
        let outcome = retry::with_backoff(&self.ship_policy(), ship_retryable, || {
            match client.send_encoded(dir, report.opnum, wire.clone())? {
                ReplyBody::GroupMapReply(map) => Ok(map.epoch),
                other => Err(Error::Internal(format!("unexpected directory reply {other:?}"))),
            }
        });
        match outcome {
            Ok(epoch) => {
                repl.observe_epoch(epoch);
                self.obs.counter("storage.drop_reports").inc();
            }
            // `AccessDenied` means the published map no longer names us
            // primary — we were deposed mid-ship and the new leadership
            // owns membership now. Either way the local ship set already
            // shrank; the report is best-effort.
            Err(_) => {
                self.obs.counter("storage.drop_report_failures").inc();
            }
        }
    }

    /// Backup side of the ship: verify, log, apply through the crash
    /// recovery machinery, cache the primary's reply for dedup, ack.
    ///
    /// The ship request arrives stamped with the originating mutation's
    /// [`TraceContext`], so the `log`/`apply` stages recorded here land in
    /// the *client's* trace — the backup is one more node on its timeline.
    pub(super) fn handle_repl_ship(
        &self,
        req: &Request,
        mut trace: Option<&mut OpTrace<'_>>,
    ) -> ReplyBody {
        let repl = &self.replica;
        let RequestBody::ReplShip { group, epoch, seq, origin, origin_opnum, records, reply } =
            &req.body
        else {
            unreachable!("caller matched ReplShip");
        };
        if *group != repl.group() {
            return ReplyBody::Err(Error::Malformed(format!(
                "ship for group {group} at a member of group {}",
                repl.group()
            )));
        }
        // Fencing: a ship from a deposed primary (older epoch) is refused;
        // so is any ship once *we* are the primary.
        if *epoch < repl.epoch() || repl.is_primary() {
            return ReplyBody::Err(Error::NotPrimary);
        }
        // Sender authorization. Ships apply WAL records without capability
        // checks, so the one acceptable sender is the group's current
        // primary — as installed by the control plane at spawn or
        // promotion, never learned from the wire. A rogue endpoint that
        // read the topology off the public `GetGroupMap` is refused before
        // anything is logged, applied, or cached.
        if repl.known_primary() != Some(req.reply_to) {
            return ReplyBody::Err(Error::AccessDenied);
        }
        // Cryptographic sender authentication: the ship must carry a
        // group-scoped token bound to the sending node. The known-primary
        // check above pins *which* process may ship; this one proves the
        // bytes actually come from a holder the issuer authorized for the
        // group, so a spoofed `reply_to` is not enough.
        if let Some(signed) = &self.signed {
            if req.token.is_empty() {
                return ReplyBody::Err(Error::AccessDenied);
            }
            if let Err(e) = signed.verifier.check_group(
                &req.token,
                *group,
                self.clock.now(),
                req.reply_to.nid.0,
            ) {
                return ReplyBody::Err(e);
            }
        }
        repl.observe_epoch(*epoch);
        // A re-shipped batch (our earlier ack was lost) is acked from the
        // cache, never re-applied.
        if repl.replies.get(*origin, *origin_opnum).is_some() {
            self.stats.dedup_hits.inc();
            repl.record_acked(*seq);
            return ReplyBody::ReplAck { seq: *seq };
        }
        let recs: Vec<_> = match records.iter().map(lwfs_wal::unframe_record).collect() {
            Ok(recs) => recs,
            Err(e) => return ReplyBody::Err(e),
        };
        // Our own log first (the records must survive *our* crash before
        // the primary treats them as replicated), then the same in-order
        // application crash replay uses — minus its end-of-log
        // presumed-abort pass, because the primary's log has not ended.
        // The log takes the frames as they arrived, CRC-verified when they
        // were decoded: no record is framed twice, and backups ship to
        // nobody.
        let mut timing = AppendTiming::default();
        if let Some(w) = &self.wal {
            for (frame, rec) in records.iter().zip(&recs) {
                match w.append_frame(frame, rec.forces_sync()) {
                    Ok(t) => {
                        timing.append_ns += t.append_ns;
                        timing.fsync_ns += t.fsync_ns;
                    }
                    Err(e) => return ReplyBody::Err(e),
                }
            }
        }
        if let Some(t) = trace.as_mut() {
            t.stage("log");
        }
        wal_spans(&mut trace, timing);
        if let Err(e) =
            crate::recovery::apply_records(&recs, &self.store, &self.journal, self.clock.now())
        {
            return ReplyBody::Err(e);
        }
        if let Some(t) = trace.as_mut() {
            t.stage("apply");
        }
        repl.replies.put(*origin, *origin_opnum, reply.clone());
        repl.record_acked(*seq);
        ReplyBody::ReplAck { seq: *seq }
    }
}
