//! Error, never panic: every decoder that reads bytes off a socket or a
//! disk is fed garbage, and every single-bit flip and every truncation
//! point of a valid input (ROADMAP aim 3). The frame splitter, CRC and
//! enum codecs each exist once (`lwfs_proto::frame`, `impl_codec_enum!`),
//! so this one suite covers the WAL, the fabric and the token with them.
//! A request that decodes cleanly can still lie about sizes: the
//! `a_write_that_lies…` test sends a live storage server — alone and as a
//! primary with a backup — `Write`s whose `len` it must refuse before it
//! pulls or reserves a byte. The artifacts
//! a post-mortem re-ingests go through the one JSON reader
//! (`lwfs::obs::json`), which gets the same treatment, plus exactness.

use bytes::Bytes;
use lwfs::cap::{CapClaims, CapIssuer, CapToken};
use lwfs::core::{ClusterConfig, LwfsCluster};
use lwfs::obs::export::{event_json, metrics_json, window_json};
use lwfs::obs::json::{Json, MAX_DEPTH};
use lwfs::obs::window::{MetricFrame, WindowTracker};
use lwfs::obs::{parse_chrome_spans, Registry, SpanRecord, TraceCollector};
use lwfs::portals::{MdOptions, MemDesc, RpcClient, BULK_SPACE};
use lwfs::proto::frame::{self, Split};
use lwfs::proto::message::derive_req_id;
use lwfs::proto::rng::ChaCha8;
use lwfs::proto::{
    ContainerId, Decode as _, Encode as _, Error, Lifetime, MdHandle, ObjId, OpMask, OpNum,
    ProcessId, Reply, ReplyBody, Request, RequestBody, TraceContext, TxnId,
};
use lwfs::storage::{StorageConfig, StoreConfig};
use lwfs::wal::{frame_record, read_log, unframe_record, Wal, WalConfig, WalRecord};
use lwfs_fabric::frame::{FabricMsg, FrameReader};

/// Feed `bytes` to every untrusted-bytes decoder; reaching the end of
/// this function without a panic is the property.
fn feed_all(bytes: &[u8]) {
    let _ = frame::split(bytes);
    let _ = Request::from_bytes(Bytes::copy_from_slice(bytes));
    let _ = Reply::from_bytes(Bytes::copy_from_slice(bytes));
    let _ = unframe_record(&Bytes::copy_from_slice(bytes));
    let _ = CapToken::decode(bytes);
    let mut reader = FrameReader::new();
    reader.feed(bytes);
    // A poisoned stream is dropped at the first error; until then every
    // call must terminate with a message, "incomplete", or an error.
    while let Ok(Some(_)) = reader.next_msg() {}
}

/// `valid` with each single bit flipped, then cut short at each length.
fn mutations(valid: &[u8]) -> impl Iterator<Item = Vec<u8>> + '_ {
    let flips = (0..valid.len() * 8).map(|bit| {
        let mut bad = valid.to_vec();
        bad[bit / 8] ^= 1 << (bit % 8);
        bad
    });
    let cuts = (0..valid.len()).map(|keep| valid[..keep].to_vec());
    flips.chain(cuts)
}

fn write_record(i: u64) -> WalRecord {
    WalRecord::Write {
        txn: i.is_multiple_of(2).then_some(TxnId(i)),
        container: ContainerId(1),
        obj: ObjId(i),
        offset: i * 8,
        data: Bytes::from(vec![i as u8; 24]),
        now: i,
    }
}

fn put_msg() -> FabricMsg {
    FabricMsg::Put {
        token: 7,
        from: ProcessId::new(1100, 0),
        to: ProcessId::new(3, 0),
        match_bits: 2,
        offset: 64,
        data: Bytes::from_static(b"bulk bytes"),
    }
}

fn token_blob() -> Vec<u8> {
    let claims = CapClaims::container(ContainerId(42), OpMask::ALL, Lifetime::UNBOUNDED);
    CapIssuer::from_cluster_seed(7).mint(claims)
}

#[test]
fn every_bit_flip_and_truncation_is_survived_by_every_decoder() {
    let request = Request::new(OpNum(3), ProcessId::new(5, 0), RequestBody::GetGroupMap)
        .with_trace(TraceContext { trace_id: 9, parent_req_id: 1 })
        .with_token(Bytes::from(token_blob()));
    let reply = Reply::new(OpNum(3), ReplyBody::Names(vec!["/a".into(), "/b".into()]));
    let valid: [Vec<u8>; 5] = [
        request.to_bytes().to_vec(),
        reply.to_bytes().to_vec(),
        frame_record(&write_record(1)).to_vec(),
        put_msg().to_frame().to_vec(),
        token_blob(),
    ];
    for input in &valid {
        for bad in mutations(input) {
            feed_all(&bad);
        }
    }
}

#[test]
fn a_damaged_frame_never_decodes() {
    // Stronger than "no panic" for the CRC-framed formats: no single-bit
    // flip and no truncation of a frame yields a message or a record.
    let wal = frame_record(&write_record(2));
    let fabric = put_msg().to_frame();
    for bad in mutations(&wal).map(Bytes::from) {
        assert!(unframe_record(&bad).is_err());
        assert!(!matches!(frame::split(&bad), Split::Complete { .. }));
    }
    for bad in mutations(&fabric) {
        let mut reader = FrameReader::new();
        reader.feed(&bad);
        assert!(!matches!(reader.next_msg(), Ok(Some(_))));
    }
    let token = token_blob();
    for bad in mutations(&token) {
        // A flip inside the claims or signature fails the trailer CRC; a
        // flip inside the trailer fails it too; no cut has the right length.
        assert!(CapToken::decode(&bad).is_err());
    }
}

#[test]
fn a_damaged_bulk_frame_never_splits() {
    // The frames above are tens of bytes; the bulk path ships 64 KiB and
    // 256 KiB chunks, which the CRC takes 64 bytes at a time. A block or a
    // tail dropped there would leave bytes no checksum covers.
    for len in [64 * 1024, 256 * 1024] {
        let mut rng = ChaCha8::seed_from_u64(len as u64);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let rec = WalRecord::Write {
            txn: None,
            container: ContainerId(1),
            obj: ObjId(2),
            offset: 0,
            data: data.into(),
            now: 3,
        };
        let mut wire = frame_record(&rec).to_vec();
        let whole = wire.len();
        assert!(
            matches!(frame::split(&wire), Split::Complete { consumed, .. } if consumed == whole)
        );

        // Every bit of the header and of the first and last 64 payload
        // bytes, and a seeded sample of the bits between.
        let header = frame::HEADER_LEN * 8;
        let (first, last) = (header..header + 512, whole * 8 - 512..whole * 8);
        let span = (last.start - first.end) as u64;
        let interior: Vec<usize> =
            (0..4096).map(|_| first.end + rng.below(span) as usize).collect();
        for bit in (0..header).chain(first).chain(last).chain(interior) {
            wire[bit / 8] ^= 1 << (bit % 8);
            match frame::split(&wire) {
                Split::Complete { .. } => panic!("{len}-byte frame split with bit {bit} flipped"),
                // Only a flipped length can leave the frame looking short.
                Split::Incomplete => assert!(bit < 32, "bit {bit}"),
                Split::Corrupt(_) => {}
            }
            wire[bit / 8] ^= 1 << (bit % 8);
        }

        let edges = [0, 1, frame::HEADER_LEN - 1, frame::HEADER_LEN, whole - 1];
        let sample = (0..256).map(|_| rng.below(whole as u64) as usize);
        for keep in edges.into_iter().chain(sample) {
            assert_eq!(frame::split(&wire[..keep]), Split::Incomplete, "cut to {keep} bytes");
        }
    }
}

/// A socket's view of `wire`: pieces of 1..=`max` bytes, then either the
/// end of the stream or, with `silent`, a peer that never sends again.
struct Trickle<'a> {
    wire: &'a [u8],
    rng: ChaCha8,
    max: u64,
    silent: bool,
}

impl std::io::Read for Trickle<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        if self.wire.is_empty() && self.silent {
            return Err(std::io::ErrorKind::WouldBlock.into());
        }
        let n = (1 + self.rng.below(self.max) as usize).min(out.len()).min(self.wire.len());
        out[..n].copy_from_slice(&self.wire[..n]);
        self.wire = &self.wire[n..];
        Ok(n)
    }
}

/// What a connection's reader makes of `wire` arriving in random pieces:
/// the messages before the end of the stream, or the poisoning error.
fn read_stream(wire: &[u8], seed: u64) -> lwfs::proto::Result<Vec<FabricMsg>> {
    let mut src = Trickle { wire, rng: ChaCha8::seed_from_u64(seed), max: 9000, silent: false };
    let mut reader = FrameReader::new();
    let mut got = Vec::new();
    while reader.read_from(&mut src).unwrap() > 0 {
        while let Some(msg) = reader.next_msg()? {
            got.push(msg);
        }
    }
    Ok(got)
}

#[test]
fn a_damaged_bulk_frame_read_off_a_stream_never_decodes() {
    // The stream reader reads a bulk frame's payload straight into a
    // buffer of its own; that path must be as strict as `split`.
    for len in [64 * 1024, 256 * 1024] {
        let mut rng = ChaCha8::seed_from_u64(len as u64);
        let mut data = vec![0u8; len];
        rng.fill_bytes(&mut data);
        let msg = FabricMsg::Put {
            token: 1,
            from: ProcessId::new(3, 0),
            to: ProcessId::new(1100, 0),
            match_bits: 2,
            offset: 0,
            data: data.into(),
        };
        let mut wire = msg.to_frame().to_vec();
        let whole = wire.len();
        assert_eq!(read_stream(&wire, 0).unwrap(), [msg]);

        // Every bit of the header and of the first and last 64 payload
        // bytes, and a seeded sample of the bits between.
        let header = frame::HEADER_LEN * 8;
        let (first, last) = (header..header + 512, whole * 8 - 512..whole * 8);
        let span = (last.start - first.end) as u64;
        let interior: Vec<usize> = (0..256).map(|_| first.end + rng.below(span) as usize).collect();
        for bit in (0..header).chain(first).chain(last).chain(interior) {
            wire[bit / 8] ^= 1 << (bit % 8);
            let got = read_stream(&wire, bit as u64);
            assert!(
                got.is_err() || got == Ok(vec![]),
                "{len}-byte frame decoded with bit {bit} flipped"
            );
            wire[bit / 8] ^= 1 << (bit % 8);
        }
        let edges = [0, 1, frame::HEADER_LEN - 1, frame::HEADER_LEN, whole - 1];
        let sample = (0..64).map(|_| rng.below(whole as u64) as usize);
        for keep in edges.into_iter().chain(sample) {
            assert_eq!(read_stream(&wire[..keep], keep as u64), Ok(vec![]), "cut to {keep} bytes");
        }
    }
}

#[test]
fn a_header_claiming_the_largest_frame_reserves_one_step_at_a_time() {
    // Eight unchecked bytes claim a 64 MiB payload; the peer then sends a
    // little of it and falls silent. The reader may reserve a step ahead
    // of what arrived, never the claim.
    use lwfs_fabric::frame::RESERVE_STEP;
    let mut wire = (frame::MAX_PAYLOAD as u32).to_le_bytes().to_vec();
    wire.extend_from_slice(&[0u8; 4]);
    wire.extend_from_slice(&[7u8; 3000]);
    let mut src = Trickle { wire: &wire, rng: ChaCha8::seed_from_u64(5), max: 700, silent: true };
    let mut reader = FrameReader::new();
    for call in 0..64 {
        match reader.read_from(&mut src) {
            Ok(n) => assert!(n > 0, "call {call}: the stream did not end"),
            Err(e) => assert_eq!(e.kind(), std::io::ErrorKind::WouldBlock, "call {call}"),
        }
        assert!(matches!(reader.next_msg(), Ok(None)), "call {call}");
        let reserved = reader.capacity();
        assert!(reserved <= reader.buffered() + RESERVE_STEP, "call {call}: {reserved} reserved");
    }
    assert_eq!(reader.buffered(), wire.len());
}

#[test]
fn wal_torn_tail_at_every_byte_offset_lands_on_the_previous_boundary() {
    let root = std::env::temp_dir().join(format!("lwfs-hostile-wal-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let obs = Registry::new();

    // A three-record segment, as the writer lays it out.
    let pristine = root.join("pristine");
    let wal = Wal::open(WalConfig::new(&pristine), &obs).unwrap();
    let records: Vec<WalRecord> = (0..3).map(write_record).collect();
    for rec in &records {
        wal.append(rec).unwrap();
    }
    drop(wal);
    let segment = std::fs::read_dir(&pristine).unwrap().next().unwrap().unwrap().file_name();
    let full = std::fs::read(pristine.join(&segment)).unwrap();
    let boundary = full.len() - frame_record(&records[2]).len();

    // Every way the last append can be torn or scribbled on.
    let cuts = (boundary..full.len()).map(|cut| full[..cut].to_vec());
    let flips = (boundary * 8..full.len() * 8).map(|bit| {
        let mut bad = full.clone();
        bad[bit / 8] ^= 1 << (bit % 8);
        bad
    });
    for (case, damaged) in cuts.chain(flips).enumerate() {
        let dir = root.join(format!("case-{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join(&segment);
        std::fs::write(&path, &damaged).unwrap();

        let log = read_log(&dir).unwrap();
        assert_eq!(log.records, records[..2], "case {case}: scan kept a damaged record");
        assert_eq!(log.stats.torn_tail, damaged.len() > boundary, "case {case}");

        // Reopening repairs: the segment is cut back to exactly the last
        // whole frame, and history continues after it.
        let wal = Wal::open(WalConfig::new(&dir), &obs).unwrap();
        assert_eq!(std::fs::metadata(&path).unwrap().len(), boundary as u64, "case {case}");
        wal.append(&records[2]).unwrap();
        drop(wal);
        assert_eq!(read_log(&dir).unwrap().records, records, "case {case}");
        std::fs::remove_dir_all(&dir).unwrap();
    }
    let _ = std::fs::remove_dir_all(&root);
}

/// Resident set size in bytes (Linux; `None` elsewhere).
fn rss_bytes() -> Option<u64> {
    let statm = std::fs::read_to_string("/proc/self/statm").ok()?;
    Some(statm.split_whitespace().nth(1)?.parse::<u64>().ok()? * 4096)
}

#[test]
fn a_write_that_lies_about_its_length_fails_before_anything_moves() {
    // A primary with backups also frames every chunk for the ship, and
    // sizes that batch from the claimed length too.
    for replication in [1, 2] {
        refuse_lying_writes(replication);
    }
}

fn refuse_lying_writes(replication: usize) {
    const MIB: usize = 1 << 20;
    // A real cluster with genuine capabilities: the capability checks
    // pass, so the length checks are what stands between the request and
    // the store. The object-size limit is raised far past what any
    // allocator can provide, so a reservation made from a claimed length
    // before the descriptor is proven would fail here, or abort.
    let cluster = LwfsCluster::boot(ClusterConfig {
        storage_servers: 1,
        replication,
        storage: StorageConfig {
            store: StoreConfig { max_object_size: 1 << 63 },
            ..Default::default()
        },
        ..Default::default()
    });
    let net = cluster.network();
    let (srv, server) = (cluster.addrs().storage[0], cluster.storage_server(0));
    let mut app = cluster.client(0, 0);
    app.get_cred(cluster.kdc().kinit("app", "secret").unwrap()).unwrap();
    let container = app.create_container().unwrap();
    let caps = app.get_caps(container, OpMask::ALL).unwrap();
    let cap = caps.for_op(OpMask::WRITE).unwrap();
    let ep = net.register(ProcessId::new(7, 0));
    let client = RpcClient::new(&ep);
    let create =
        RequestBody::CreateObj { txn: None, cap: caps.for_op(OpMask::CREATE).unwrap(), obj: None };
    let ReplyBody::ObjCreated(obj) = client.call(srv, create).unwrap() else {
        panic!("create refused");
    };
    let original = vec![0x5Au8; 4096];
    server.store().write(container, obj, 0, &original, 0).unwrap();

    // Each case posts a descriptor of `md_len` bytes (none for 0) and
    // claims `len` bytes at `offset`.
    let write = |md_len: usize, offset: u64, len: u64| {
        let mb = ep.match_bits().alloc(BULK_SPACE);
        if md_len > 0 {
            ep.post_md(mb, MemDesc::from_vec(vec![0xEE; md_len], MdOptions::for_remote_get()))
                .unwrap();
        }
        let body = RequestBody::Write {
            txn: None,
            cap,
            obj,
            offset,
            len,
            md: MdHandle { match_bits: mb },
        };
        let outcome = client.call(srv, body);
        ep.unlink_md(mb);
        outcome.expect_err("a lying write must be refused")
    };
    let rss_before = rss_bytes();
    let gets_before = net.stats().gets.get();
    // Past the object-size limit, with a real megabyte posted: refused
    // whole, not after the first four chunks have landed.
    assert_eq!(write(MIB, 0, u64::MAX), Error::ObjectTooLarge);
    // `offset + len` wraps.
    assert_eq!(write(MIB, u64::MAX - 10, 100), Error::ObjectTooLarge);
    assert_eq!(
        net.stats().gets.get(),
        gets_before,
        "an oversized write must be refused before the first pull"
    );
    // Within the limit but far beyond what was posted (or nothing posted):
    // the first pull fails, and nothing was reserved ahead of it.
    for lie in [1 << 30, 1 << 62] {
        for md_len in [1024, 0] {
            let err = write(md_len, original.len() as u64, lie);
            assert!(matches!(err, Error::Malformed(_)), "R={replication}: {err:?}");
        }
    }
    // A first chunk that is really there, behind a length no allocator
    // can hold: the reservation after the pull fails as an error.
    let err = write(MIB, original.len() as u64, 1 << 62);
    assert!(matches!(err, Error::StorageIo(_)), "R={replication}: {err:?}");

    assert_eq!(server.store().read(container, obj, 0, u64::MAX).unwrap(), original);
    assert_eq!(server.store().bytes_stored(), original.len() as u64);
    if let (Some(before), Some(after)) = (rss_before, rss_bytes()) {
        assert!(
            after.saturating_sub(before) < 64 * MIB as u64,
            "resident set jumped from {before} to {after} bytes"
        );
    }
    // Still serving.
    assert_eq!(client.call(srv, RequestBody::Ping).unwrap(), ReplyBody::Pong);
}

/// A request id as the RPC layer mints them, too wide for an `f64`.
fn wide_req_id() -> u64 {
    (0..)
        .map(|op| derive_req_id(ProcessId::new(1100, 3), OpNum(op)))
        .find(|&id| id as f64 as u64 != id)
        .unwrap()
}

/// The three JSON artifacts as their writers emit them, small but with
/// every value kind and an escaped string: a Chrome trace export with an
/// orphan root, a JSONL window carrying events, a metrics JSON.
fn json_artifacts() -> [String; 3] {
    let obs = Registry::new();
    obs.counter("storage.srv1100.writes").add(3);
    obs.gauge("storage.repl_lag").set(-2);
    obs.histogram("wal.append_ns").record(1500);
    let id = wide_req_id();
    let span = |req_id, nid, op, stage| SpanRecord {
        req_id,
        trace_id: req_id,
        nid,
        op,
        stage,
        start_ns: 14_123,
        dur_ns: 7,
    };
    obs.spans().record(span(id, 1100, "storage.write", "total"));
    obs.spans().record(span(9, 1101, "repl", "ship"));
    obs.events().record(1005, "alert.fire", "rule=x: \"p99\"\n\u{1}é");
    let mut windows = WindowTracker::new(2);
    windows.observe(MetricFrame::default());
    let window = windows.observe(obs.frame(1_000_000)).unwrap();
    let (spans, journal) = (obs.spans().recent(usize::MAX), obs.events().all());
    let events = journal.iter().map(|e| event_json(e.seq, e.ts_ns, e.nid, e.kind, &e.detail));
    let mut traces = TraceCollector::new();
    traces.add_spans(spans.iter().cloned());
    let meta = Json::obj([("unix_ts", Json::from(1u64))]);
    [
        traces.to_chrome_json().to_string(),
        window_json(window, events.collect()).to_string(),
        metrics_json(meta, &obs.frame(0), &spans, &journal).to_string(),
    ]
}

#[test]
fn json_nesting_past_the_cap_is_an_error_not_a_stack_overflow() {
    let nested = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(Json::parse(&nested(MAX_DEPTH)).is_ok());
    assert!(Json::parse(&nested(MAX_DEPTH + 1)).is_err());
    for open in ["[", "{\"a\": ", "[{\"k\":"] {
        assert!(Json::parse(&open.repeat(100_000)).is_err(), "{open}");
    }
}

#[test]
fn every_truncation_and_byte_substitution_of_a_json_artifact_is_survived() {
    for (i, artifact) in json_artifacts().iter().enumerate() {
        assert!(Json::parse(artifact).is_ok(), "artifact {i} does not parse: {artifact}");
        let read = |bad: &[u8]| {
            let text = String::from_utf8_lossy(bad);
            if i == 0 {
                let _ = parse_chrome_spans(&text);
            } else {
                let _ = Json::parse(&text);
            }
        };
        let mut bad = artifact.as_bytes().to_vec();
        for at in 0..bad.len() {
            read(&bad[..at]);
            let original = bad[at];
            // Every ASCII byte, and 0x80 for the rest: to a `&str` reader
            // every byte that breaks UTF-8 arrives as the same U+FFFD.
            for b in 0..=0x80 {
                bad[at] = b;
                read(&bad);
            }
            bad[at] = original;
        }
    }
}

#[test]
fn bad_unicode_escapes_are_errors_or_replacement_characters() {
    for bad in [r#""\u""#, r#""\u12""#, r#""\uZZZZ""#, r#""\u+123""#, r#""\ud800\u12""#] {
        assert!(Json::parse(bad).is_err(), "{bad}");
    }
    for (escaped, want) in [
        (r#""\ud800""#, "\u{fffd}"),
        (r#""\udfff x""#, "\u{fffd} x"),
        (r#""\ud800A""#, "\u{fffd}A"),
        (r#""\ud800\ud800""#, "\u{fffd}\u{fffd}"),
        (r#""\ud83d\ude00""#, "\u{1f600}"),
    ] {
        assert_eq!(Json::parse(escaped).unwrap().as_str(), Some(want), "{escaped}");
    }
}

#[test]
fn json_integers_round_trip_exactly_and_non_finite_floats_write_null() {
    let id = wide_req_id();
    for v in [Json::from(u64::MAX), Json::from(i64::MIN), Json::from(id)] {
        assert_eq!(Json::parse(&v.to_string()).unwrap(), v);
    }
    assert_eq!(Json::parse(&u64::MAX.to_string()).unwrap().as_u64(), Some(u64::MAX));
    assert_eq!(Json::parse(&i64::MIN.to_string()).unwrap().as_i64(), Some(i64::MIN));

    // Through the metrics JSON, as `probe metrics --out` writes it.
    let obs = Registry::new();
    obs.trace(id, "storage.write").finish();
    let spans = obs.spans().recent(usize::MAX);
    let json = metrics_json(Json::Null, &obs.frame(0), &spans, &[]);
    let back = Json::parse(&json.to_string()).unwrap();
    let span = &back.get("spans").map(Json::as_arr).unwrap()[0];
    assert_eq!(span.get("req_id").and_then(Json::as_u64), Some(id));
    assert_eq!(span.get("trace_id").and_then(Json::as_u64), Some(id));

    for n in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
        assert_eq!(Json::from(n).to_string(), "null");
    }
}

proptest::proptest! {
    #[test]
    fn arbitrary_bytes_never_panic_any_decoder(data: Vec<u8>) {
        feed_all(&data);
    }

    #[test]
    fn arbitrary_bytes_behind_a_valid_header_never_panic(data: Vec<u8>) {
        // Garbage that *passes* the frame check reaches the payload
        // decoders: give it a correct length and CRC.
        let mut wire = (data.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&frame::crc32(&data).to_le_bytes());
        wire.extend_from_slice(&data);
        proptest::prop_assert!(matches!(frame::split(&wire), Split::Complete { .. }));
        feed_all(&wire);
    }
}
