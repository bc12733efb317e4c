//! The LWFS request/reply message set.
//!
//! One request enum covers all four core services plus the naming extension.
//! Keeping the set in one place makes the *smallness* of the control plane
//! auditable: [`Request::encoded_len`](crate::Encode::encoded_len) of every
//! variant is a few hundred bytes at most (asserted in tests), because bulk
//! data never travels inside a request — the server moves it one-sidedly
//! through a [`MdHandle`] (paper §3.2, Figure 6).

use bytes::{Buf, Bytes, BytesMut};

use crate::codec::{Decode, Encode};
use crate::error::{Error, Result};
use crate::ids::{ContainerId, ObjId, OpNum, PrincipalId, ProcessId, TxnId};
use crate::ops::OpMask;
use crate::security::{Capability, CapabilityKey, Credential};
use crate::{impl_codec_enum, impl_codec_struct, PROTOCOL_VERSION};

/// Causal trace context carried in every request.
///
/// `trace_id` names the whole distributed operation: the originator (an
/// `LwfsClient` mutation or a txn coordinator) mints it once, and every
/// child request a server issues on the operation's behalf — ReplShip to
/// backups, drop reports to the directory, 2PC prepare/commit fan-out —
/// carries the *same* id, so one client write yields one trace spanning
/// every node it touched. `parent_req_id` is the `req_id` of the request
/// whose handling caused this one (0 at the root), giving the collector
/// the parent edge for tree assembly.
///
/// A zero `trace_id` means "untraced"; `Request::new` self-roots the
/// context at the request's own `req_id`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub struct TraceContext {
    /// Identity of the distributed operation this request belongs to.
    pub trace_id: u64,
    /// `req_id` of the causing request; 0 for trace roots.
    pub parent_req_id: u64,
}

impl_codec_struct!(TraceContext { trace_id, parent_req_id });

/// A handle naming a *memory descriptor* pinned on the requesting process.
///
/// For a write, the storage server issues a one-sided `get` against this
/// handle to pull the data; for a read it issues a `put` to push data into
/// it. The handle is just Portals match bits — no connection, no shared
/// state beyond the posted buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MdHandle {
    /// Match bits the target posted for this transfer.
    pub match_bits: u64,
}

impl_codec_struct!(MdHandle { match_bits });

/// Object attributes returned by `GetAttr`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ObjAttr {
    pub size: u64,
    /// Creation time (protocol nanoseconds).
    pub create_time: u64,
    /// Last-modification time.
    pub modify_time: u64,
}

impl_codec_struct!(ObjAttr { size, create_time, modify_time });

/// The stripe layout of a baseline-PFS file, as handed out by the MDS.
///
/// Note the trust model this reply encodes — deliberately reproducing the
/// design the paper criticizes (§5): "Lustre and PVFS extend the trust
/// domain all the way to the client". The MDS simply hands its own LWFS
/// capabilities to any client that opens the file.
#[derive(Debug, Clone, PartialEq)]
pub struct PfsLayout {
    pub stripe_size: u64,
    /// File size as known by the MDS.
    pub size: u64,
    /// One `(ost_index, object)` per stripe, round-robin order.
    pub objects: Vec<(u32, ObjId)>,
    /// Capabilities covering the PFS container (trusted-client model).
    pub caps: Vec<Capability>,
}

impl_codec_struct!(PfsLayout { stripe_size, size, objects, caps });

/// Lock modes for the lock service (§3.4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    Shared,
    Exclusive,
}

impl_codec_enum!(LockMode {
    0 => Shared,
    1 => Exclusive,
});

/// What a lock protects: either a whole object or a byte range of one.
/// Byte-range locks are what a POSIX-semantics file system built *above*
/// the LWFS-core uses to implement shared-file writes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockResource {
    pub container: ContainerId,
    pub obj: ObjId,
    /// Start of the locked byte range.
    pub start: u64,
    /// Exclusive end; `u64::MAX` means "to end of object".
    pub end: u64,
}

impl LockResource {
    pub fn whole_object(container: ContainerId, obj: ObjId) -> Self {
        Self { container, obj, start: 0, end: u64::MAX }
    }

    pub fn range(container: ContainerId, obj: ObjId, start: u64, end: u64) -> Self {
        Self { container, obj, start, end }
    }

    /// Do two resources conflict (same object, overlapping ranges)?
    pub fn overlaps(&self, other: &LockResource) -> bool {
        self.container == other.container
            && self.obj == other.obj
            && self.start < other.end
            && other.start < self.end
    }
}

impl_codec_struct!(LockResource { container, obj, start, end });

/// An opaque identifier for a granted lock.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LockId(pub u64);

crate::impl_codec_newtype!(LockId);

/// One replication group: `members[0]` is the current primary, the rest
/// are backups in seniority order (promotion takes `members[1]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaGroup {
    pub members: Vec<ProcessId>,
}

impl ReplicaGroup {
    /// The current primary, if the group still has any live member.
    pub fn primary(&self) -> Option<ProcessId> {
        self.members.first().copied()
    }

    /// The backups (everything after the primary).
    pub fn backups(&self) -> &[ProcessId] {
        self.members.get(1..).unwrap_or(&[])
    }
}

impl_codec_struct!(ReplicaGroup { members });

/// The cluster's replication-group directory: which servers form each
/// group and who currently leads it. `epoch` increments on every
/// membership change (promotion, backup loss); clients stamp it into
/// requests so stale routing is observable end to end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroupMap {
    pub epoch: u64,
    pub groups: Vec<ReplicaGroup>,
}

impl GroupMap {
    /// A map with `r` consecutive servers per group, primaries first:
    /// group `g` owns `servers[g*r .. (g+1)*r]`.
    pub fn grouped(servers: &[ProcessId], r: usize) -> Self {
        let r = r.max(1);
        assert!(
            servers.len().is_multiple_of(r),
            "server count {} not divisible by group size {r}",
            servers.len()
        );
        let groups = servers.chunks(r).map(|c| ReplicaGroup { members: c.to_vec() }).collect();
        GroupMap { epoch: 1, groups }
    }

    /// The group index a server belongs to, if any.
    pub fn group_of(&self, id: ProcessId) -> Option<usize> {
        self.groups.iter().position(|g| g.members.contains(&id))
    }
}

impl_codec_struct!(GroupMap { epoch, groups });

/// One histogram in on-wire, *mergeable* form: the sparse nonzero buckets
/// of the log-linear layout (`lwfs-obs`), not a fixed quantile summary.
/// Carrying buckets means a monitor can subtract two scrapes to get an
/// exact per-window interval and merge intervals across nodes without
/// quantile drift beyond the layout's own resolution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryHistogram {
    pub count: u64,
    pub sum: u64,
    pub max: u64,
    /// `(bucket_index, count)` pairs, nonzero buckets only, ascending index.
    pub buckets: Vec<(u32, u64)>,
}

impl_codec_struct!(TelemetryHistogram { count, sum, max, buckets });

/// One sequenced journal entry in on-wire form. Unlike the in-process
/// [`lwfs-obs` `Event`], `kind` is an owned string: static-str interning
/// doesn't survive the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryEvent {
    pub seq: u64,
    pub ts_ns: u64,
    pub nid: u32,
    pub kind: String,
    pub detail: String,
}

impl_codec_struct!(TelemetryEvent { seq, ts_ns, nid, kind, detail });

/// A node's answer to `GetTelemetry`: cumulative counters/gauges/histograms
/// plus the tail of the sequenced event journal. Span logs are deliberately
/// excluded — they are bulky and served by the trace-export path instead.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    pub counters: Vec<(String, u64)>,
    pub gauges: Vec<(String, i64)>,
    pub histograms: Vec<(String, TelemetryHistogram)>,
    pub events: Vec<TelemetryEvent>,
}

impl_codec_struct!(TelemetrySnapshot { counters, gauges, histograms, events });

/// One traced stage in on-wire form, as served by `GetFlightTraces`.
/// Like [`TelemetryEvent`], the op/stage names are owned strings: the
/// in-process `SpanRecord`'s static-str interning doesn't survive the
/// wire. `start_ns` stays on the *serving node's* span-log epoch; the
/// scraper applies its measured per-node offset at assembly
/// (`TraceCollector::add_node_spans`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightSpan {
    pub req_id: u64,
    pub nid: u32,
    pub op: String,
    pub stage: String,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl_codec_struct!(FlightSpan { req_id, nid, op, stage, start_ns, dur_ns });

/// One trace pinned by a node's flight recorder, in on-wire form: the
/// answer to `GetFlightTraces` is the node's current top-K of these.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlightTrace {
    pub trace_id: u64,
    /// Largest end-to-end duration the recorder observed for the trace.
    pub total_ns: u64,
    pub spans: Vec<FlightSpan>,
}

impl_codec_struct!(FlightTrace { trace_id, total_ns, spans });

/// One container's new revocation epoch, pushed issuer → enforcement point
/// after a revoking policy change or a container's removal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EpochBump {
    pub container: ContainerId,
    pub epoch: u64,
}

impl_codec_struct!(EpochBump { container, epoch });

/// Request bodies for every LWFS service.
#[derive(Debug, Clone, PartialEq)]
pub enum RequestBody {
    // ---- liveness ----
    /// No-op round trip; used by tests and by flow-control probing.
    Ping,

    // ---- authentication service (§3.1.2) ----
    /// Exchange an external-mechanism token (e.g. a Kerberos ticket) for an
    /// LWFS credential.
    GetCred { mechanism_token: Vec<u8> },
    /// Verify a credential (issued by this service instance).
    VerifyCred { cred: Credential },
    /// Revoke a credential (application exit or security event).
    RevokeCred { cred: Credential },

    // ---- authorization service (§3.1.1–3.1.4) ----
    /// Create a new container; the creator's principal receives ALL rights.
    CreateContainer { cred: Credential },
    /// Remove a container (requires an ADMIN capability).
    RemoveContainer { cap: Capability },
    /// Acquire capabilities for `ops` on `container` (Figure 4-a step 1).
    GetCaps { cred: Credential, container: ContainerId, ops: OpMask },
    /// A storage server asks the authorization service to verify
    /// capabilities it has not seen before (Figure 4-b step 2). The server
    /// identifies itself so the authz service can record a *back pointer*
    /// for revocation (§3.1.4).
    VerifyCaps { caps: Vec<Capability>, cache_site: ProcessId },
    /// Change the access policy of a container: grant and/or revoke
    /// operations for a principal. Requires ADMIN. Triggers the revocation
    /// protocol toward caching storage servers.
    ModPolicy {
        cap: Capability,
        container: ContainerId,
        principal: PrincipalId,
        grant: OpMask,
        revoke: OpMask,
    },
    /// Issuer → enforcement point: the current revocation epochs for
    /// recently bumped containers. Fire-and-forget semantics: enforcement
    /// points apply the maximum epoch they have seen, so reordered or
    /// re-sent pushes are harmless.
    PushEpochs { epochs: Vec<EpochBump> },

    // ---- storage service (§3.2, §3.3) ----
    /// Create an object in a container. The server picks the id unless the
    /// client supplies one (needed for deterministic restart layouts).
    CreateObj { txn: Option<TxnId>, cap: Capability, obj: Option<ObjId> },
    /// Remove an object.
    RemoveObj { txn: Option<TxnId>, cap: Capability, obj: ObjId },
    /// Write `len` bytes at `offset`; the server *pulls* the data from the
    /// client's memory descriptor (server-directed I/O, Figure 6).
    Write { txn: Option<TxnId>, cap: Capability, obj: ObjId, offset: u64, len: u64, md: MdHandle },
    /// Read `len` bytes at `offset`; the server *pushes* into the client's
    /// memory descriptor.
    Read { cap: Capability, obj: ObjId, offset: u64, len: u64, md: MdHandle },
    /// Fetch object attributes.
    GetAttr { cap: Capability, obj: ObjId },
    /// Flush an object (or the whole server if `obj` is `None`) to stable
    /// storage — the `sync` step of the checkpoint timing loop (§4).
    Sync { cap: Capability, obj: Option<ObjId> },
    /// Enumerate objects in a container (debug/admin; requires GETATTR).
    ListObjs { cap: Capability },
    /// Authorization service → storage server: drop cached verification
    /// results for these capabilities (revocation back-pointer walk).
    InvalidateCaps { authz_epoch: u64, keys: Vec<CapabilityKey> },

    // ---- naming service (client extension, Figure 3) ----
    /// Bind `path` to a (container, object) pair.
    NameCreate { txn: Option<TxnId>, path: String, container: ContainerId, obj: ObjId },
    /// Resolve a path.
    NameLookup { path: String },
    /// Remove a binding.
    NameRemove { txn: Option<TxnId>, path: String },
    /// List bindings under a prefix.
    NameList { prefix: String },

    // ---- traditional-PFS baseline (metadata server protocol, §4/§5) ----
    /// Create a striped file: the MDS allocates one object per stripe on
    /// the OSTs — the centralized step the paper's Figure 10 measures.
    PfsCreate { path: String, stripe_count: u32, stripe_size: u64 },
    /// Open an existing file and fetch its layout.
    PfsOpen { path: String },
    /// Report the file size at close (Lustre-style size-on-MDS update).
    PfsSetSize { path: String, size: u64 },
    /// Remove a file and its stripe objects.
    PfsUnlink { path: String },

    // ---- transactions & locks (§3.4) ----
    /// Begin a distributed transaction; the reply carries the TxnId.
    TxnBegin { cred: Credential },
    /// Two-phase commit, phase 1: participant must harden its journal and
    /// vote.
    TxnPrepare { txn: TxnId },
    /// Two-phase commit, phase 2: make effects permanent.
    TxnCommit { txn: TxnId },
    /// Roll back.
    TxnAbort { txn: TxnId },
    /// Acquire a lock; `wait=false` converts blocking into `WouldBlock`.
    LockAcquire { cap: Capability, resource: LockResource, mode: LockMode, wait: bool },
    /// Release a granted lock.
    LockRelease { cap: Capability, lock: LockId },

    // ---- replication (storage groups) ----
    /// Fetch the current replication group map from the group directory.
    GetGroupMap,
    /// Primary → backup: one acknowledged mutation's WAL records, in the
    /// exact CRC frames the primary appended to its own log, shipped
    /// *before* the client is acked. `reply` is the encoded [`ReplyBody`]
    /// the primary will send, cached on the backup under
    /// `(origin, origin_opnum)` so a failed-over client retry of an
    /// already-acked mutation is answered from the cache, not re-applied.
    ///
    /// This is the one server-to-server bulk message in the protocol: it
    /// deliberately carries record payloads inline (the log stream *is*
    /// the data), so it is exempt from the `MAX_REQUEST_INLINE` bound that
    /// keeps client requests tiny.
    ReplShip {
        group: u32,
        epoch: u64,
        /// Primary-local ship sequence number, echoed in the ack.
        seq: u64,
        /// The client whose mutation produced these records.
        origin: ProcessId,
        /// The client's request opnum — the dedup key.
        origin_opnum: OpNum,
        /// CRC-framed WAL records, byte-identical to the primary's log.
        records: Vec<Bytes>,
        /// Encoded `ReplyBody` the primary acks the client with.
        reply: Bytes,
    },
    /// Primary → directory: `backup` missed a ship past the deadline and
    /// was dropped from the sender's ship set; republish the map without
    /// it so clients stop reading from the now out-of-sync member and a
    /// later promotion can never pick it. The directory only honors this
    /// from the group's current primary (checked against `reply_to`), and
    /// the removal is idempotent — a re-sent report of an already-removed
    /// member returns the current map without burning an epoch.
    ReportDroppedBackup {
        group: u32,
        /// The epoch the primary observed when it dropped the member.
        epoch: u64,
        backup: ProcessId,
    },

    // ---- telemetry (monitoring plane) ----
    /// Ask any node for its current metrics snapshot and journal tail.
    ///
    /// This is the monitoring plane's scrape, deliberately shaped like
    /// every other LWFS control message (paper §2.3): tiny, connectionless,
    /// answerable by every service. Like verify-through it is an
    /// *annotation op* — it records no `total` span of its own, so a
    /// scraping monitor does not perturb the latency series it reads.
    GetTelemetry {
        /// Journal cursor: only events with `seq >= events_from` are
        /// returned (`0` = everything retained), so a polling monitor
        /// ships the journal incrementally instead of re-sending the
        /// whole ring every interval.
        events_from: u64,
    },
    /// Ask any node for the traces its flight recorder currently pins.
    ///
    /// The second scrape of the monitoring plane: a `ClusterMonitor` sweeps this each window to assemble and
    /// attribute the fleet's slow traces live. Like `GetTelemetry` it is
    /// an annotation op — answered before dispatch, no `total` span, so
    /// scraping never perturbs the tail it measures. The reply is
    /// bounded by the recorder's configured top-K.
    GetFlightTraces,
}

/// Reply bodies. `Err` is universal; the rest pair 1:1 with requests.
#[derive(Debug, Clone, PartialEq)]
pub enum ReplyBody {
    Err(Error),
    Pong,
    Cred(Credential),
    CredOk {
        principal: PrincipalId,
    },
    CredRevoked,
    ContainerCreated(ContainerId),
    ContainerRemoved,
    /// Minted capabilities, one per requested op bit, plus (signed mode
    /// only) one self-certifying token per cap. `tokens` is empty in
    /// legacy mode; when present it is parallel to `caps`.
    Caps {
        caps: Vec<Capability>,
        tokens: Vec<Bytes>,
    },
    /// The subset of submitted capabilities that verified, by cache key.
    CapsVerified {
        valid: Vec<CapabilityKey>,
    },
    /// `PushEpochs` ack.
    EpochsPushed,
    PolicyChanged {
        new_caps: Vec<Capability>,
    },
    ObjCreated(ObjId),
    ObjRemoved,
    WriteDone {
        len: u64,
    },
    ReadDone {
        len: u64,
    },
    Attr(ObjAttr),
    Synced,
    Objs(Vec<ObjId>),
    CapsInvalidated {
        dropped: u64,
    },
    NameCreated,
    NameObj {
        container: ContainerId,
        obj: ObjId,
    },
    NameRemoved,
    Names(Vec<String>),
    PfsLayoutReply(PfsLayout),
    PfsOk,
    TxnStarted(TxnId),
    /// Phase-1 vote: `true` = prepared/yes, `false` = no.
    TxnVote(bool),
    TxnCommitted,
    TxnAborted,
    LockGranted(LockId),
    LockReleased,
    /// The directory's current view of the replication groups.
    GroupMapReply(GroupMap),
    /// Backup → primary: the shipped records are durable and applied.
    ReplAck {
        seq: u64,
    },
    /// The node's metrics snapshot and journal tail.
    Telemetry(TelemetrySnapshot),
    /// The node's currently pinned slow traces.
    FlightTraces(Vec<FlightTrace>),
}

/// A complete request envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Request {
    /// Sender-side sequence number used to pair replies on the
    /// connectionless transport.
    pub opnum: OpNum,
    /// Where to send the reply.
    pub reply_to: ProcessId,
    /// Trace id carried end to end: services key their span records on
    /// it, so one operation's stages correlate across client and server
    /// (see `lwfs-obs`). Derived from `(reply_to, opnum)`, which the
    /// transport already guarantees unique per in-flight request.
    pub req_id: u64,
    /// The group-map epoch the sender routed by. `0` means "no
    /// replication view" — non-replicated clients and service-to-service
    /// traffic. Servers use it to spot stale routing after a failover.
    pub epoch: u64,
    /// Causal trace context: which distributed operation this request
    /// belongs to and which request caused it. `Request::new` self-roots
    /// it at `req_id`.
    pub trace: TraceContext,
    /// Self-certifying capability token: an `lwfs-cap` signed blob the
    /// receiver can verify locally against the issuer's public key, instead
    /// of the verify-through RPC the body's opaque `Capability` requires.
    /// Empty in `cap_mode = Legacy` clusters; the envelope (not the body)
    /// carries it so every authorized op — data path and replication ships
    /// alike — presents authority the same way.
    pub token: Bytes,
    pub body: RequestBody,
}

impl Request {
    pub fn new(opnum: OpNum, reply_to: ProcessId, body: RequestBody) -> Self {
        let req_id = derive_req_id(reply_to, opnum);
        let trace = TraceContext { trace_id: req_id, parent_req_id: 0 };
        Self { opnum, reply_to, req_id, epoch: 0, trace, token: Bytes::new(), body }
    }

    /// Stamp the sender's group-map epoch into the header.
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Stamp a propagated trace context over the self-rooted default.
    /// A zero `trace_id` is ignored — the request keeps its own root, so
    /// callers can pass through an "untraced" ambient context verbatim.
    pub fn with_trace(mut self, trace: TraceContext) -> Self {
        if trace.trace_id != 0 {
            self.trace = trace;
        }
        self
    }

    /// Attach a signed capability token to the envelope. An empty token is
    /// a no-op, so callers can pass through an ambient "no token" verbatim.
    pub fn with_token(mut self, token: Bytes) -> Self {
        if !token.is_empty() {
            self.token = token;
        }
        self
    }
}

/// The discriminant byte of the body an encoded request carries, read
/// past the envelope without decoding the body or copying the token: an
/// intake tests each delivery for a scrape with it.
pub fn body_tag(mut bytes: &[u8]) -> Result<u8> {
    let buf = &mut bytes;
    decode_version(buf)?;
    // `Request`'s envelope fields, in its codec's order below.
    OpNum::decode(buf)?;
    ProcessId::decode(buf)?;
    u64::decode(buf)?;
    u64::decode(buf)?;
    TraceContext::decode(buf)?;
    let token = u32::decode(buf)? as usize;
    crate::codec::need(buf, token, "token")?;
    buf.advance(token);
    u8::decode(buf)
}

/// Mix `(reply_to, opnum)` into a well-spread 64-bit trace id
/// (splitmix64 finalizer).
///
/// Public so trace originators (the client's retry loop) can pre-compute
/// the `req_id` a retried opnum will carry before building the request.
pub fn derive_req_id(reply_to: ProcessId, opnum: OpNum) -> u64 {
    let packed = ((reply_to.nid.0 as u64) << 32 | reply_to.pid.0 as u64) ^ opnum.0.rotate_left(17);
    let mut z = packed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A complete reply envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    /// Echo of the request's opnum.
    pub opnum: OpNum,
    pub body: ReplyBody,
}

impl Reply {
    pub fn new(opnum: OpNum, body: ReplyBody) -> Self {
        Self { opnum, body }
    }

    pub fn err(opnum: OpNum, e: Error) -> Self {
        Self::new(opnum, ReplyBody::Err(e))
    }

    /// Convert into a result, surfacing `Err` bodies as errors.
    pub fn into_result(self) -> Result<ReplyBody> {
        match self.body {
            ReplyBody::Err(e) => Err(e),
            other => Ok(other),
        }
    }
}

// ---------------------------------------------------------------------------
// Codec: the envelopes open with the version stamp; each enum states every
// variant's discriminant byte and field order exactly once.
// ---------------------------------------------------------------------------

/// Read an envelope's version stamp, refusing anything but the one
/// version this build speaks.
fn decode_version(buf: &mut impl Buf) -> Result<()> {
    match u16::decode(buf)? {
        PROTOCOL_VERSION => Ok(()),
        version => Err(Error::Malformed(format!("unsupported protocol version {version}"))),
    }
}

impl Encode for Request {
    fn encode(&self, buf: &mut BytesMut) {
        PROTOCOL_VERSION.encode(buf);
        self.opnum.encode(buf);
        self.reply_to.encode(buf);
        self.req_id.encode(buf);
        self.epoch.encode(buf);
        self.trace.encode(buf);
        self.token.encode(buf);
        self.body.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        PROTOCOL_VERSION.encoded_len()
            + self.opnum.encoded_len()
            + self.reply_to.encoded_len()
            + self.req_id.encoded_len()
            + self.epoch.encoded_len()
            + self.trace.encoded_len()
            + self.token.encoded_len()
            + self.body.encoded_len()
    }
}

impl Decode for Request {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        decode_version(buf)?;
        Ok(Request {
            opnum: Decode::decode(buf)?,
            reply_to: Decode::decode(buf)?,
            req_id: Decode::decode(buf)?,
            epoch: Decode::decode(buf)?,
            trace: Decode::decode(buf)?,
            token: Decode::decode(buf)?,
            body: Decode::decode(buf)?,
        })
    }
}

impl Encode for Reply {
    fn encode(&self, buf: &mut BytesMut) {
        PROTOCOL_VERSION.encode(buf);
        self.opnum.encode(buf);
        self.body.encode(buf);
    }
    fn encoded_len(&self) -> usize {
        PROTOCOL_VERSION.encoded_len() + self.opnum.encoded_len() + self.body.encoded_len()
    }
}

impl Decode for Reply {
    fn decode(buf: &mut impl Buf) -> Result<Self> {
        decode_version(buf)?;
        Ok(Reply { opnum: Decode::decode(buf)?, body: Decode::decode(buf)? })
    }
}

impl_codec_enum!(RequestBody {
    0 => Ping,
    1 => GetCred { mechanism_token },
    2 => VerifyCred { cred },
    3 => RevokeCred { cred },
    10 => CreateContainer { cred },
    11 => RemoveContainer { cap },
    12 => GetCaps { cred, container, ops },
    13 => VerifyCaps { caps, cache_site },
    14 => ModPolicy { cap, container, principal, grant, revoke },
    16 => PushEpochs { epochs },
    20 => CreateObj { txn, cap, obj },
    21 => RemoveObj { txn, cap, obj },
    22 => Write { txn, cap, obj, offset, len, md },
    23 => Read { cap, obj, offset, len, md },
    24 => GetAttr { cap, obj },
    25 => Sync { cap, obj },
    26 => ListObjs { cap },
    27 => InvalidateCaps { authz_epoch, keys },
    30 => NameCreate { txn, path, container, obj },
    31 => NameLookup { path },
    32 => NameRemove { txn, path },
    33 => NameList { prefix },
    35 => PfsCreate { path, stripe_count, stripe_size },
    36 => PfsOpen { path },
    37 => PfsSetSize { path, size },
    38 => PfsUnlink { path },
    40 => TxnBegin { cred },
    41 => TxnPrepare { txn },
    42 => TxnCommit { txn },
    43 => TxnAbort { txn },
    44 => LockAcquire { cap, resource, mode, wait },
    45 => LockRelease { cap, lock },
    50 => GetGroupMap,
    51 => ReplShip { group, epoch, seq, origin, origin_opnum, records, reply },
    52 => ReportDroppedBackup { group, epoch, backup },
    53 => GetTelemetry { events_from },
    54 => GetFlightTraces,
});

impl_codec_enum!(ReplyBody {
    0 => Err(e),
    1 => Pong,
    2 => Cred(c),
    3 => CredOk { principal },
    4 => CredRevoked,
    10 => ContainerCreated(c),
    11 => ContainerRemoved,
    12 => Caps { caps, tokens },
    13 => CapsVerified { valid },
    14 => PolicyChanged { new_caps },
    16 => EpochsPushed,
    20 => ObjCreated(o),
    21 => ObjRemoved,
    22 => WriteDone { len },
    23 => ReadDone { len },
    24 => Attr(a),
    25 => Synced,
    26 => Objs(objs),
    27 => CapsInvalidated { dropped },
    30 => NameCreated,
    31 => NameObj { container, obj },
    32 => NameRemoved,
    33 => Names(names),
    35 => PfsLayoutReply(layout),
    36 => PfsOk,
    40 => TxnStarted(t),
    41 => TxnVote(v),
    42 => TxnCommitted,
    43 => TxnAborted,
    44 => LockGranted(l),
    45 => LockReleased,
    50 => GroupMapReply(map),
    51 => ReplAck { seq },
    52 => Telemetry(snap),
    53 => FlightTraces(traces),
});

impl_codec_enum!(Error {
    0 => BadCredential,
    1 => CredentialExpired,
    2 => CredentialRevoked,
    3 => BadCapability,
    4 => CapabilityExpired,
    5 => CapabilityRevoked,
    6 => AccessDenied,
    7 => NoSuchContainer(c),
    8 => NoSuchObject(o),
    9 => ObjectExists(o),
    10 => NoSuchName,
    11 => NameExists,
    12 => ServerBusy,
    13 => NoSuchTxn(t),
    14 => TxnAborted(t),
    15 => WouldBlock,
    16 => Deadlock,
    17 => ObjectTooLarge,
    18 => Malformed(m),
    19 => Unreachable,
    20 => Timeout,
    21 => StorageIo(m),
    22 => Internal(m),
    23 => RetriesExhausted,
    24 => NotPrimary,
});

// CapabilityKey codec (used by VerifyCaps/InvalidateCaps).
impl_codec_struct!(CapabilityKey { serial, sig });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Lifetime;
    use crate::security::{CapabilityBody, CredentialBody, Signature};
    use bytes::BufMut;

    fn sample_cred() -> Credential {
        Credential {
            body: CredentialBody {
                principal: PrincipalId(42),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial: 7,
            },
            sig: Signature([3u8; 16]),
        }
    }

    fn sample_cap() -> Capability {
        Capability {
            body: CapabilityBody {
                container: ContainerId(9),
                ops: OpMask::CHECKPOINT,
                principal: PrincipalId(42),
                issuer_epoch: 1,
                lifetime: Lifetime::UNBOUNDED,
                serial: 8,
            },
            sig: Signature([4u8; 16]),
        }
    }

    fn all_request_bodies() -> Vec<RequestBody> {
        use RequestBody::*;
        vec![
            Ping,
            GetCred { mechanism_token: vec![1, 2, 3] },
            VerifyCred { cred: sample_cred() },
            RevokeCred { cred: sample_cred() },
            CreateContainer { cred: sample_cred() },
            RemoveContainer { cap: sample_cap() },
            GetCaps { cred: sample_cred(), container: ContainerId(9), ops: OpMask::READ },
            VerifyCaps { caps: vec![sample_cap()], cache_site: ProcessId::new(5, 0) },
            ModPolicy {
                cap: sample_cap(),
                container: ContainerId(9),
                principal: PrincipalId(42),
                grant: OpMask::READ,
                revoke: OpMask::WRITE,
            },
            CreateObj { txn: Some(TxnId(1)), cap: sample_cap(), obj: None },
            RemoveObj { txn: None, cap: sample_cap(), obj: ObjId(12) },
            Write {
                txn: None,
                cap: sample_cap(),
                obj: ObjId(12),
                offset: 0,
                len: 512 << 20,
                md: MdHandle { match_bits: 0xFEED },
            },
            Read {
                cap: sample_cap(),
                obj: ObjId(12),
                offset: 4096,
                len: 8192,
                md: MdHandle { match_bits: 0xBEEF },
            },
            GetAttr { cap: sample_cap(), obj: ObjId(12) },
            Sync { cap: sample_cap(), obj: Some(ObjId(12)) },
            ListObjs { cap: sample_cap() },
            InvalidateCaps { authz_epoch: 3, keys: vec![sample_cap().cache_key()] },
            PushEpochs {
                epochs: vec![
                    EpochBump { container: ContainerId(9), epoch: 4 },
                    EpochBump { container: ContainerId(10), epoch: 2 },
                ],
            },
            NameCreate {
                txn: None,
                path: "/ckpt/42".into(),
                container: ContainerId(9),
                obj: ObjId(1),
            },
            NameLookup { path: "/ckpt/42".into() },
            NameRemove { txn: None, path: "/ckpt/42".into() },
            NameList { prefix: "/ckpt".into() },
            PfsCreate { path: "/f".into(), stripe_count: 4, stripe_size: 1 << 20 },
            PfsOpen { path: "/f".into() },
            PfsSetSize { path: "/f".into(), size: 512 << 20 },
            PfsUnlink { path: "/f".into() },
            TxnBegin { cred: sample_cred() },
            TxnPrepare { txn: TxnId(4) },
            TxnCommit { txn: TxnId(4) },
            TxnAbort { txn: TxnId(4) },
            LockAcquire {
                cap: sample_cap(),
                resource: LockResource::range(ContainerId(9), ObjId(1), 0, 4096),
                mode: LockMode::Exclusive,
                wait: true,
            },
            LockRelease { cap: sample_cap(), lock: LockId(77) },
            GetGroupMap,
            ReplShip {
                group: 1,
                epoch: 3,
                seq: 42,
                origin: ProcessId::new(7, 0),
                origin_opnum: OpNum(99),
                records: vec![Bytes::from_static(b"frame-a"), Bytes::from_static(b"frame-b")],
                reply: Bytes::from_static(b"encoded-reply"),
            },
            ReportDroppedBackup { group: 1, epoch: 3, backup: ProcessId::new(1103, 0) },
            GetTelemetry { events_from: 17 },
            GetFlightTraces,
        ]
    }

    fn sample_telemetry() -> TelemetrySnapshot {
        TelemetrySnapshot {
            counters: vec![("storage.writes".into(), 42), ("wal.appends".into(), 7)],
            gauges: vec![("storage.repl_lag".into(), 3), ("storage.queue_depth".into(), -1)],
            histograms: vec![(
                "storage.write.total_ns".into(),
                TelemetryHistogram {
                    count: 9,
                    sum: 4500,
                    max: 900,
                    buckets: vec![(3, 4), (17, 5)],
                },
            )],
            events: vec![TelemetryEvent {
                seq: 18,
                ts_ns: 1_000_000,
                nid: 1100,
                kind: "repl.evict_backup".into(),
                detail: "group 0 epoch 3".into(),
            }],
        }
    }

    fn sample_flight_traces() -> Vec<FlightTrace> {
        vec![FlightTrace {
            trace_id: 0xdead_beef,
            total_ns: 104_000_000,
            spans: vec![
                FlightSpan {
                    req_id: 7,
                    nid: 1100,
                    op: "storage.write".into(),
                    stage: "total".into(),
                    start_ns: 1_000,
                    dur_ns: 104_000_000,
                },
                FlightSpan {
                    req_id: 7,
                    nid: 1100,
                    op: "repl".into(),
                    stage: "ship".into(),
                    start_ns: 2_000,
                    dur_ns: 100_000_000,
                },
            ],
        }]
    }

    fn sample_group_map() -> GroupMap {
        GroupMap::grouped(
            &[
                ProcessId::new(1100, 0),
                ProcessId::new(1101, 0),
                ProcessId::new(1102, 0),
                ProcessId::new(1103, 0),
            ],
            2,
        )
    }

    fn all_reply_bodies() -> Vec<ReplyBody> {
        use ReplyBody::*;
        vec![
            Err(Error::ServerBusy),
            Err(Error::Malformed("x".into())),
            Pong,
            Cred(sample_cred()),
            CredOk { principal: PrincipalId(42) },
            CredRevoked,
            ContainerCreated(ContainerId(9)),
            ContainerRemoved,
            Caps { caps: vec![sample_cap(), sample_cap()], tokens: vec![] },
            Caps {
                caps: vec![sample_cap()],
                tokens: vec![Bytes::from_static(b"signed-token-blob")],
            },
            CapsVerified { valid: vec![sample_cap().cache_key()] },
            PolicyChanged { new_caps: vec![sample_cap()] },
            EpochsPushed,
            ObjCreated(ObjId(12)),
            ObjRemoved,
            WriteDone { len: 512 },
            ReadDone { len: 17 },
            Attr(ObjAttr { size: 1, create_time: 2, modify_time: 3 }),
            Synced,
            Objs(vec![ObjId(1), ObjId(2)]),
            CapsInvalidated { dropped: 2 },
            NameCreated,
            NameObj { container: ContainerId(9), obj: ObjId(1) },
            NameRemoved,
            Names(vec!["/a".into(), "/b".into()]),
            PfsLayoutReply(PfsLayout {
                stripe_size: 1 << 20,
                size: 0,
                objects: vec![(0, ObjId(1)), (1, ObjId(2))],
                caps: vec![sample_cap()],
            }),
            PfsOk,
            TxnStarted(TxnId(4)),
            TxnVote(true),
            TxnCommitted,
            TxnAborted,
            LockGranted(LockId(77)),
            LockReleased,
            GroupMapReply(sample_group_map()),
            ReplAck { seq: 42 },
            Telemetry(sample_telemetry()),
            FlightTraces(sample_flight_traces()),
        ]
    }

    #[test]
    fn every_request_roundtrips() {
        for (i, body) in all_request_bodies().into_iter().enumerate() {
            let req = Request::new(OpNum(i as u64), ProcessId::new(1, 2), body);
            let back = Request::from_bytes(req.to_bytes()).expect("decode");
            assert_eq!(back, req, "variant {i}");
            let signed = req.with_token(Bytes::from_static(b"signed token"));
            assert_eq!(body_tag(&signed.to_bytes()), Ok(signed.body.tag()), "variant {i}");
        }
        let ping = Request::new(OpNum(1), ProcessId::new(1, 2), RequestBody::Ping).to_bytes();
        for cut in 0..ping.len() {
            assert!(body_tag(&ping[..cut]).is_err(), "a request cut at {cut} has no body tag");
        }
    }

    #[test]
    fn every_reply_roundtrips() {
        for (i, body) in all_reply_bodies().into_iter().enumerate() {
            let rep = Reply::new(OpNum(i as u64), body);
            let back = Reply::from_bytes(rep.to_bytes()).expect("decode");
            assert_eq!(back, rep, "variant {i}");
        }
    }

    #[test]
    fn requests_stay_small() {
        // The control plane must be small for server-directed I/O to work:
        // a 512 MB write is still a sub-200-byte request. ReplShip is the
        // deliberate exception: the primary→backup log stream carries the
        // WAL frames inline, so its size scales with the mutation.
        for body in all_request_bodies() {
            if matches!(body, RequestBody::ReplShip { .. }) {
                continue;
            }
            let req = Request::new(OpNum(0), ProcessId::new(0, 0), body.clone());
            assert!(
                req.encoded_len() <= crate::MAX_REQUEST_INLINE,
                "{body:?} encodes to {} bytes",
                req.encoded_len()
            );
        }
    }

    /// `encoded_len` is exact and `to_bytes` allocates once, at that size.
    fn assert_sized_once(x: &impl Encode, what: &str) {
        let only = x.to_bytes().try_into_mut().expect("to_bytes keeps no second handle");
        assert_eq!(x.encoded_len(), only.len(), "{what}: encoded_len is not exact");
        assert_eq!(only.capacity(), only.len(), "{what}: to_bytes allocated more than once");
    }

    /// Over the same samples `tag_tables_are_unique_and_fully_sampled`
    /// proves reach every variant.
    #[test]
    fn every_variant_knows_its_encoded_len() {
        for (i, body) in all_request_bodies().into_iter().enumerate() {
            assert_sized_once(&body, &format!("request body {i}"));
            let req = Request::new(OpNum(i as u64), ProcessId::new(1, 2), body)
                .with_epoch(3)
                .with_token(Bytes::from_static(b"token"));
            assert_sized_once(&req, &format!("request {i}"));
        }
        let errors = all_errors().into_iter().map(ReplyBody::Err);
        for (i, body) in all_reply_bodies().into_iter().chain(errors).enumerate() {
            assert_sized_once(&body, &format!("reply body {i}"));
            assert_sized_once(&Reply::new(OpNum(i as u64), body), &format!("reply {i}"));
        }
    }

    proptest::proptest! {
        #[test]
        fn prop_ship_request_knows_its_encoded_len(
            records in proptest::collection::vec(
                proptest::collection::vec(proptest::num::u8::ANY, 0..300), 0..5),
            reply in proptest::collection::vec(proptest::num::u8::ANY, 0..40),
            token in proptest::collection::vec(proptest::num::u8::ANY, 0..40),
            seq: u64,
            opnum: u64,
        ) {
            let body = RequestBody::ReplShip {
                group: 1,
                epoch: 2,
                seq,
                origin: ProcessId::new(3, 4),
                origin_opnum: OpNum(5),
                records: records.into_iter().map(Bytes::from).collect(),
                reply: Bytes::from(reply),
            };
            let req = Request::new(OpNum(opnum), ProcessId::new(6, 7), body)
                .with_token(Bytes::from(token));
            assert_sized_once(&req, "ship");
        }
    }

    #[test]
    fn req_id_is_deterministic_and_spread() {
        let a = Request::new(OpNum(7), ProcessId::new(1, 2), RequestBody::Ping);
        let b = Request::new(OpNum(7), ProcessId::new(1, 2), RequestBody::Ping);
        assert_eq!(a.req_id, b.req_id);
        // Different opnum or sender must produce a different trace id.
        let c = Request::new(OpNum(8), ProcessId::new(1, 2), RequestBody::Ping);
        let d = Request::new(OpNum(7), ProcessId::new(1, 3), RequestBody::Ping);
        assert_ne!(a.req_id, c.req_id);
        assert_ne!(a.req_id, d.req_id);
    }

    #[test]
    fn wrong_version_rejected() {
        // One version: every other stamp is refused, older and newer alike.
        let req = Request::new(OpNum(0), ProcessId::new(0, 0), RequestBody::Ping).to_bytes();
        let rep = Reply::new(OpNum(0), ReplyBody::Pong).to_bytes();
        for version in [2u16, 3, 4, 99] {
            for good in [&req, &rep] {
                let mut bad = BytesMut::new();
                bad.put_u16_le(version);
                bad.put_slice(&good[2..]);
                assert!(Request::from_bytes(bad.clone().freeze()).is_err(), "v{version}");
                assert!(Reply::from_bytes(bad.freeze()).is_err(), "v{version}");
            }
        }
        assert!(Request::from_bytes(req).is_ok());
        assert!(Reply::from_bytes(rep).is_ok());
    }

    #[test]
    fn token_travels_in_the_envelope() {
        let blob = Bytes::from_static(b"cap-token-blob");
        let req = Request::new(OpNum(3), ProcessId::new(5, 0), RequestBody::Ping)
            .with_token(blob.clone());
        assert_eq!(req.token, blob);
        let back = Request::from_bytes(req.to_bytes()).unwrap();
        assert_eq!(back.token, blob);
        // An empty token is a no-op pass-through.
        let plain = Request::new(OpNum(4), ProcessId::new(5, 0), RequestBody::Ping)
            .with_token(Bytes::new());
        assert!(plain.token.is_empty());
    }

    #[test]
    fn trace_defaults_to_self_root_and_propagates() {
        let req = Request::new(OpNum(7), ProcessId::new(1, 2), RequestBody::Ping);
        assert_eq!(req.trace, TraceContext { trace_id: req.req_id, parent_req_id: 0 });

        // A propagated context overrides the self-root and survives the
        // codec; a zero context is ignored.
        let ctx = TraceContext { trace_id: 0xDEAD_BEEF, parent_req_id: 42 };
        let child = Request::new(OpNum(8), ProcessId::new(3, 0), RequestBody::Ping).with_trace(ctx);
        assert_eq!(child.trace, ctx);
        let back = Request::from_bytes(child.to_bytes()).unwrap();
        assert_eq!(back.trace, ctx);

        let kept = Request::new(OpNum(9), ProcessId::new(3, 0), RequestBody::Ping)
            .with_trace(TraceContext::default());
        assert_eq!(kept.trace.trace_id, kept.req_id, "zero trace_id keeps the self-root");
    }

    #[test]
    fn unknown_tag_rejected() {
        let bytes = Bytes::from_static(&[200]);
        assert!(RequestBody::from_bytes(bytes).is_err());
    }

    #[test]
    fn reply_into_result_surfaces_errors() {
        let ok = Reply::new(OpNum(1), ReplyBody::Pong);
        assert_eq!(ok.into_result().unwrap(), ReplyBody::Pong);
        let err = Reply::err(OpNum(1), Error::AccessDenied);
        assert_eq!(err.into_result().unwrap_err(), Error::AccessDenied);
    }

    #[test]
    fn group_map_structure_and_epoch_stamp() {
        let map = sample_group_map();
        assert_eq!(map.epoch, 1);
        assert_eq!(map.groups.len(), 2);
        assert_eq!(map.groups[0].primary(), Some(ProcessId::new(1100, 0)));
        assert_eq!(map.groups[0].backups(), &[ProcessId::new(1101, 0)]);
        assert_eq!(map.group_of(ProcessId::new(1103, 0)), Some(1));
        assert_eq!(map.group_of(ProcessId::new(9, 9)), None);

        // Epoch travels in the request header and survives the codec.
        let req =
            Request::new(OpNum(1), ProcessId::new(1, 0), RequestBody::GetGroupMap).with_epoch(7);
        let back = Request::from_bytes(req.to_bytes()).unwrap();
        assert_eq!(back.epoch, 7);
        // Requests default to epoch 0 ("no replication view").
        assert_eq!(Request::new(OpNum(1), ProcessId::new(1, 0), RequestBody::Ping).epoch, 0);
    }

    #[test]
    fn lock_resource_overlap() {
        let c = ContainerId(1);
        let o = ObjId(1);
        let a = LockResource::range(c, o, 0, 100);
        let b = LockResource::range(c, o, 100, 200);
        assert!(!a.overlaps(&b));
        let covers = LockResource::whole_object(c, o);
        assert!(a.overlaps(&covers));
        let other_obj = LockResource::whole_object(c, ObjId(2));
        assert!(!a.overlaps(&other_obj));
    }

    fn all_errors() -> Vec<Error> {
        use Error::*;
        vec![
            BadCredential,
            CredentialExpired,
            CredentialRevoked,
            BadCapability,
            CapabilityExpired,
            CapabilityRevoked,
            AccessDenied,
            NoSuchContainer(ContainerId(5)),
            NoSuchObject(ObjId(6)),
            ObjectExists(ObjId(6)),
            NoSuchName,
            NameExists,
            ServerBusy,
            NoSuchTxn(TxnId(7)),
            TxnAborted(TxnId(7)),
            WouldBlock,
            Deadlock,
            ObjectTooLarge,
            Malformed("x".into()),
            Unreachable,
            Timeout,
            StorageIo("disk on fire".into()),
            Internal("bug".into()),
            RetriesExhausted,
            NotPrimary,
        ]
    }

    #[test]
    fn errors_roundtrip_through_reply() {
        for e in all_errors() {
            let rep = Reply::err(OpNum(1), e.clone());
            let back = Reply::from_bytes(rep.to_bytes()).unwrap();
            assert_eq!(back.into_result().unwrap_err(), e);
        }
    }

    /// The generated tables: no discriminant is stated twice, and the
    /// sample lists the round-trip tests walk reach every one of them.
    #[test]
    fn tag_tables_are_unique_and_fully_sampled() {
        use std::collections::BTreeSet;
        fn check<T: Encode>(name: &str, tags: &[u8], samples: &[T]) {
            let unique: BTreeSet<u8> = tags.iter().copied().collect();
            assert_eq!(unique.len(), tags.len(), "{name} states a tag twice");
            let sampled: BTreeSet<u8> = samples.iter().map(|s| s.to_bytes()[0]).collect();
            assert_eq!(sampled, unique, "{name} samples miss a variant");
        }
        check("RequestBody", RequestBody::TAGS, &all_request_bodies());
        check("ReplyBody", ReplyBody::TAGS, &all_reply_bodies());
        check("Error", Error::TAGS, &all_errors());
        check("LockMode", LockMode::TAGS, &[LockMode::Shared, LockMode::Exclusive]);
    }

    proptest::proptest! {
        #[test]
        fn prop_request_decode_never_panics(data: Vec<u8>) {
            let _ = Request::from_bytes(Bytes::from(data));
        }

        #[test]
        fn prop_reply_decode_never_panics(data: Vec<u8>) {
            let _ = Reply::from_bytes(Bytes::from(data));
        }
    }
}
