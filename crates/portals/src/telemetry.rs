//! Wire side of the telemetry scrape, both directions: serialize a
//! fabric's [`Registry`] into the `GetTelemetry` reply shape, and decode a
//! scraped reply back into the [`MetricFrame`] the registry would have
//! captured ([`frame_of`]).
//!
//! [`spawn_service`](crate::spawn_service)'s loop passes each request
//! through [`answer`] first, and so does the delivery of each request to
//! an intake endpoint
//! ([`Network::register_with_intake`](crate::Network::register_with_intake)),
//! so every service answers the scrape, the two monitoring ops have
//! exactly one handler and the reply format exactly one producer. Histograms go out
//! in sparse bucket form — the mergeable representation the monitor's
//! windowed aggregation subtracts and merges exactly (see
//! `lwfs_obs::window`). Spans are deliberately excluded from
//! the snapshot: they are bulky, carry interned `&'static str` names that
//! cannot be decoded from the wire, and already have their own export path
//! through the trace collector. The *pinned* slow traces of the flight
//! recorder travel on their own op instead — `GetFlightTraces` returns the
//! node's current top-K, names re-encoded as owned strings.

use lwfs_obs::{HistogramInterval, MetricFrame, Registry};
use lwfs_proto::{
    FlightSpan, FlightTrace, ReplyBody, RequestBody, TelemetryEvent, TelemetryHistogram,
    TelemetrySnapshot,
};

/// Answer `body` if it is one of the monitoring plane's scrapes
/// (`GetTelemetry`, `GetFlightTraces`); `None` means it is the service's
/// own business. Scrapes are annotation ops: a service calls this before
/// it counts or traces the request, so a polling monitor never inflates
/// the series it is reading.
pub fn answer(reg: &Registry, body: &RequestBody) -> Option<ReplyBody> {
    match body {
        RequestBody::GetTelemetry { events_from } => {
            Some(ReplyBody::Telemetry(telemetry_snapshot(reg, *events_from)))
        }
        RequestBody::GetFlightTraces => Some(ReplyBody::FlightTraces(flight_traces(reg))),
        _ => None,
    }
}

/// Whether a request body with discriminant `tag` is one [`answer`]
/// serves, so that a delivery decodes no other request.
pub(crate) fn is_scrape(tag: u8) -> bool {
    tag == RequestBody::GetFlightTraces.tag()
        || tag == RequestBody::GetTelemetry { events_from: 0 }.tag()
}

/// Serialize `reg` for a `GetTelemetry` reply: cumulative counters and
/// gauges, bucket-level histograms, and the event-journal tail with
/// `seq >= events_from` (the scraper's cursor, so a polling monitor
/// ships the journal incrementally).
fn telemetry_snapshot(reg: &Registry, events_from: u64) -> TelemetrySnapshot {
    let frame = reg.frame(0);
    TelemetrySnapshot {
        counters: frame.counters,
        gauges: frame.gauges,
        histograms: frame
            .histograms
            .into_iter()
            .map(|(name, iv)| {
                (
                    name,
                    TelemetryHistogram {
                        count: iv.count,
                        sum: iv.sum,
                        max: iv.max,
                        buckets: iv.buckets,
                    },
                )
            })
            .collect(),
        events: reg
            .events()
            .from_seq(events_from)
            .into_iter()
            .map(|e| TelemetryEvent {
                seq: e.seq,
                ts_ns: e.ts_ns,
                nid: e.nid,
                kind: e.kind.to_string(),
                detail: e.detail,
            })
            .collect(),
    }
}

/// Rebuild a scraped wire snapshot as the cumulative [`MetricFrame`] its
/// node's registry captured, stamped `ts_ns` on the scraper's timeline —
/// the inverse of `telemetry_snapshot`'s metric half. Hostile bucket
/// lists are sanitized by [`HistogramInterval::from_parts`].
pub fn frame_of(snap: &TelemetrySnapshot, ts_ns: u64) -> MetricFrame {
    MetricFrame::new(
        ts_ns,
        snap.counters.clone(),
        snap.gauges.clone(),
        snap.histograms
            .iter()
            .map(|(name, h)| {
                (
                    name.clone(),
                    HistogramInterval::from_parts(h.count, h.sum, h.max, h.buckets.clone()),
                )
            })
            .collect(),
    )
}

/// Serialize `reg`'s flight-recorder pins for a `GetFlightTraces` reply.
/// Span timestamps stay on this node's span-log epoch; the scraper
/// applies its per-node offset at assembly. Bounded by the recorder's
/// configured top-K, so the reply stays scrape-sized.
fn flight_traces(reg: &Registry) -> Vec<FlightTrace> {
    reg.flight()
        .pinned()
        .into_iter()
        .map(|p| FlightTrace {
            trace_id: p.trace_id,
            total_ns: p.total_ns,
            spans: p
                .spans
                .into_iter()
                .map(|s| FlightSpan {
                    req_id: s.req_id,
                    nid: s.nid,
                    op: s.op.to_string(),
                    stage: s.stage.to_string(),
                    start_ns: s.start_ns,
                    dur_ns: s.dur_ns,
                })
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::{prop_assert_eq, proptest};

    proptest! {
        /// The wire round trip loses nothing: decoding a node's scrape
        /// yields exactly the frame its registry captures.
        #[test]
        fn scrape_decodes_to_the_registry_frame(
            counters in proptest::collection::vec((0usize..6, 0..u64::MAX), 0..12),
            gauges in proptest::collection::vec((0usize..6, 0..u64::MAX), 0..12),
            observations in proptest::collection::vec((0usize..6, 0u64..1 << 50), 0..80),
            empty in 0usize..6,
            ts_ns in 0..u64::MAX,
        ) {
            const NAMES: [&str; 6] = [
                "storage.writes",
                "storage.srv1100.in_flight",
                "storage.worker3.dispatch_ns",
                "wal.append_ns",
                "txn.prepare_ns",
                "authz.cache.hits",
            ];
            let reg = Registry::new();
            for (name, v) in counters {
                reg.counter(NAMES[name]).add(v);
            }
            for (name, v) in gauges {
                // Reinterpreted, so both signs occur.
                reg.gauge(NAMES[name]).set(v as i64);
            }
            for (name, v) in observations {
                reg.histogram(NAMES[name]).record(v);
            }
            reg.histogram(NAMES[empty]);
            prop_assert_eq!(frame_of(&telemetry_snapshot(&reg, 0), ts_ns), reg.frame(ts_ns));
        }
    }

    #[test]
    fn snapshot_carries_metrics_and_journal_tail() {
        let reg = Registry::new();
        reg.counter("storage.writes").add(9);
        reg.gauge("storage.repl_lag").set(4);
        reg.histogram("storage.write.total_ns").record(1234);
        reg.events().record(1100, "repl.evict_backup", "backup 1101");
        reg.events().record(1004, "directory.republish", "epoch 2");

        let snap = telemetry_snapshot(&reg, 0);
        assert!(snap.counters.contains(&("storage.writes".to_string(), 9)));
        assert!(snap.gauges.contains(&("storage.repl_lag".to_string(), 4)));
        let (_, h) = snap.histograms.iter().find(|(n, _)| n == "storage.write.total_ns").unwrap();
        assert_eq!(h.count, 1);
        assert_eq!(h.sum, 1234);
        assert!(!h.buckets.is_empty());
        assert_eq!(snap.events.len(), 2);
        assert_eq!(snap.events[0].kind, "repl.evict_backup");

        // The cursor skips already-shipped journal entries.
        let tail = telemetry_snapshot(&reg, snap.events[0].seq + 1);
        assert_eq!(tail.events.len(), 1);
        assert_eq!(tail.events[0].kind, "directory.republish");
        // Metrics are cumulative regardless of the cursor.
        assert_eq!(tail.counters, snap.counters);
    }

    #[test]
    fn answer_claims_exactly_the_two_scrapes() {
        let reg = Registry::new();
        reg.counter("naming.ops").add(3);
        let Some(ReplyBody::Telemetry(snap)) =
            answer(&reg, &RequestBody::GetTelemetry { events_from: 0 })
        else {
            panic!("GetTelemetry not answered");
        };
        assert!(snap.counters.contains(&("naming.ops".to_string(), 3)));
        assert_eq!(
            answer(&reg, &RequestBody::GetFlightTraces),
            Some(ReplyBody::FlightTraces(vec![]))
        );
        assert_eq!(answer(&reg, &RequestBody::Ping), None);
    }

    #[test]
    fn flight_traces_serialize_the_pins_with_owned_names() {
        use lwfs_obs::{SpanRecord, TOTAL_STAGE};
        let reg = Registry::new();
        let log = reg.spans();
        log.record(SpanRecord {
            req_id: 7,
            trace_id: 42,
            nid: 1100,
            op: "repl",
            stage: "ship",
            start_ns: 10,
            dur_ns: 90,
        });
        log.record(SpanRecord {
            req_id: 7,
            trace_id: 42,
            nid: 1100,
            op: "storage.write",
            stage: TOTAL_STAGE,
            start_ns: 0,
            dur_ns: 100,
        });
        reg.flight().observe(log, 7, 42, 100);

        let out = flight_traces(&reg);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].trace_id, 42);
        assert_eq!(out[0].total_ns, 100);
        assert_eq!(out[0].spans.len(), 2);
        let ship = out[0].spans.iter().find(|s| s.stage == "ship").unwrap();
        assert_eq!(ship.op, "repl");
        assert_eq!(ship.start_ns, 10);
    }
}
