//! What the benchmark measures, by name: the workloads, the end-to-end
//! metrics with their bounds, and the per-layer table. `BENCHMARK.json` at
//! the repo root is the driver-facing copy (`lwfs-benchmark manifest`
//! prints it; a unit test keeps the two identical). The columns the
//! driver's schema has no room for — layer, kind, and the end-to-end metric
//! each per-layer row is expected to move — live only here and in the
//! README.

use crate::json::Json;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// How much worse `new` is than `base`, as a share of `base`
    /// (negative = better).
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return if new == base { 0.0 } else { f64::INFINITY };
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

/// The six workloads; names are the contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CkptDump,
    CkptCreate,
    CkptDumpTcp,
    CkptDurable,
    ReplWrite,
    CkptRestore,
}

impl Workload {
    pub const ALL: [Workload; 6] = [
        Workload::CkptDump,
        Workload::CkptCreate,
        Workload::CkptDumpTcp,
        Workload::CkptDurable,
        Workload::ReplWrite,
        Workload::CkptRestore,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CkptDump => "ckpt_dump",
            Workload::CkptCreate => "ckpt_create",
            Workload::CkptDumpTcp => "ckpt_dump_tcp",
            Workload::CkptDurable => "ckpt_durable",
            Workload::ReplWrite => "repl_write",
            Workload::CkptRestore => "ckpt_restore",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// One line on why the workload exists (which layers it loads and
    /// which it bypasses).
    pub fn why(self) -> &'static str {
        match self {
            Workload::CkptDump => {
                "Figure 9 on the paper-faithful config: 4 MiB/rank epochs, so the bulk path \
                 (portals get, chunked store write, payload copies) does the work; wal, replica \
                 and fabric counters read 0"
            }
            Workload::CkptCreate => {
                "Figure 10 create rate: 4 KiB/rank epochs with signed caps, about ten small RPCs \
                 and almost no bytes, so codec, RPC, dispatch, cap verify, txn and naming \
                 dominate and the bulk path idles"
            }
            Workload::CkptDumpTcp => {
                "The same epoch over lwfs-fabric loopback sockets at 1 MiB/rank: frame \
                 encode/CRC, write queues and reader hand-off carry every chunk; the only \
                 workload with fabric work"
            }
            Workload::CkptDurable => {
                "The WAL cliff: 512 KiB/rank epochs logged under every64 with forced fsync at \
                 prepare/commit, then both servers crash, restart and must restore the last \
                 acked epoch byte-exact"
            }
            Workload::ReplWrite => {
                "The ship cliff: 256 KiB write+sync at R=2 on a seeded 32-object ring per rank, \
                 so ship RTT and backup apply dominate; ends by killing both primaries and \
                 reading from the backups"
            }
            Workload::CkptRestore => {
                "The read side of ckpt_dump: restore of 8 preloaded 4 MiB/rank epochs in seeded \
                 order (lookup, getattr, broadcast, server push), so a write-side gain that \
                 costs reads shows"
            }
        }
    }
}

/// A metric a user of the system would see, with the share of the parent's
/// median by which it may worsen before a PR is rejected.
///
/// The timing bounds are the widest the driver allows, and that is the
/// host's doing, not the program's: the two-core VM these were sized on
/// changes speed by up to a fifth for minutes at a time (ten back-to-back
/// runs of one workload showed quartile spreads of 4 to 20 %, the same
/// runs within one speed regime 2 %). A tighter bound would reject the
/// benchmark itself on a bad quarter of an hour.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
    pub what: &'static str,
}

pub const END_TO_END: [EndToEnd; 8] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
        what: "boot, kinit/caps, preload and warm-up ops; median of the set-ups one run makes",
    },
    EndToEnd {
        name: "ops_s",
        unit: "1/s",
        better: Better::Higher,
        bound: 0.25,
        what: "ops / sum of op latency over the fastest 95 % of each slice's ops; median of slices",
    },
    EndToEnd {
        name: "goodput_mb_s",
        unit: "MB/s",
        better: Better::Higher,
        bound: 0.25,
        what: "ops_s x verified user payload bytes (10^6) per op",
    },
    EndToEnd {
        name: "op_ms_p50",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "median op latency (an op is the slower of the two ranks); median of slices",
    },
    EndToEnd {
        name: "cpu_ms_per_op",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
        what: "process user+sys CPU / ops; median of slices",
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.25,
        what: "VmHWM at a fixed op count into each round (memory at equal work); median of rounds",
    },
    EndToEnd {
        name: "stored_bytes_per_user_byte",
        unit: "ratio",
        better: Better::Lower,
        bound: 0.01,
        what: "log bytes added per user byte written in the window + store bytes held per \
               user byte retained after the final prune",
    },
    EndToEnd {
        name: "verified_frac",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.001,
        what: "1 - failed_frac: ops that returned, in time, the right bytes / ops attempted \
               (post-crash checks included)",
    },
];

/// How a per-layer number is obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Isolated timing loop on the layer's public API; median of batches.
    Micro,
    /// Median write latency on a one-client one-server cluster.
    Cluster,
    /// Benchmark-side span in the traced ops; mean ms per op on the
    /// slower rank, so the rows of one workload add up to its op mean.
    Span,
    /// Delta of a counter/histogram the program already exports, across
    /// the window.
    Reg,
}

impl Kind {
    pub fn as_str(self) -> &'static str {
        match self {
            Kind::Micro => "micro",
            Kind::Cluster => "cluster",
            Kind::Span => "span",
            Kind::Reg => "reg",
        }
    }
}

/// One per-layer row. The layer is the crate name the row is prefixed with.
#[derive(Debug, Clone, Copy)]
pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub kind: Kind,
    /// Which end-to-end metric, on which workload, the row should move —
    /// written down before measuring.
    pub moves: &'static str,
}

const fn row(
    name: &'static str,
    unit: &'static str,
    better: Better,
    kind: Kind,
    moves: &'static str,
) -> PerLayer {
    PerLayer { name, unit, better, kind, moves }
}

use Better::{Higher as Hi, Lower as Lo};
use Kind::{Cluster, Micro, Reg, Span};

const M_PROTO: &str = "ops_s on ckpt_create; none on ckpt_dump";
const M_BULK: &str = "goodput_mb_s on ckpt_dump (get) and ckpt_restore (put)";
const M_RPC: &str = "ops_s on ckpt_create";
const M_FABRIC: &str = "goodput_mb_s, cpu_ms_per_op on ckpt_dump_tcp only; 0 elsewhere";
const M_CAP: &str = "op_ms_p50 on ckpt_create (Signed)";
const M_AUTHZ: &str = "0 in steady state on every workload";
const M_STORE_W: &str = "goodput_mb_s on ckpt_dump";
const M_STORE_R: &str = "goodput_mb_s on ckpt_restore";
const M_DISPATCH: &str = "ops_s on ckpt_create";
const M_WAL: &str =
    "goodput_mb_s, cpu_ms_per_op, stored_bytes_per_user_byte on ckpt_durable; 0 elsewhere";
const M_FSYNC: &str = "core.op_ms_p95 (not op_ms_p50) on ckpt_durable; 0 elsewhere";
const M_REPL: &str = "ops_s, op_ms_p50 on repl_write; 0 elsewhere";
const M_TXN: &str = "op_ms_p50 on ckpt_create; carries the forced fsyncs on ckpt_durable";
const M_NAMING: &str = "ops_s on ckpt_create, ckpt_restore";
const M_CORE: &str = "the harness's own reconciliation rows";

pub const PER_LAYER: [PerLayer; 86] = [
    // proto
    row("proto.encode_write_req_ns", "ns", Lo, Micro, M_PROTO),
    row("proto.decode_write_req_ns", "ns", Lo, Micro, M_PROTO),
    row("proto.encode_reply_ns", "ns", Lo, Micro, M_PROTO),
    row("proto.decode_reply_ns", "ns", Lo, Micro, M_PROTO),
    // portals
    row("portals.rpc_rtt_us", "us", Lo, Micro, M_RPC),
    row("portals.put_256k_us", "us", Lo, Micro, M_BULK),
    row("portals.get_256k_us", "us", Lo, Micro, M_BULK),
    row("portals.msgs_per_op", "count", Lo, Reg, M_RPC),
    row("portals.bytes_per_op", "B", Lo, Reg, M_BULK),
    row("portals.gets_per_op", "count", Lo, Reg, M_BULK),
    row("portals.puts_per_op", "count", Lo, Reg, M_BULK),
    row("portals.rejected", "count", Lo, Reg, "failed ops; 0 on every workload"),
    row("portals.dropped", "count", Lo, Reg, "failed ops; 0 on every workload"),
    row("portals.gather_ms", "ms", Lo, Span, "op_ms_p50 on the checkpoint workloads"),
    row("portals.bcast_ms", "ms", Lo, Span, "op_ms_p50 on ckpt_restore"),
    // fabric
    row("fabric.frame_encode_64k_us", "us", Lo, Micro, M_FABRIC),
    row("fabric.frame_decode_64k_us", "us", Lo, Micro, M_FABRIC),
    row("fabric.frame_encode_128b_ns", "ns", Lo, Micro, M_FABRIC),
    row("fabric.rpc_rtt_us", "us", Lo, Micro, M_FABRIC),
    row("fabric.get_256k_us", "us", Lo, Micro, M_FABRIC),
    row("fabric.frames_per_op", "count", Lo, Reg, M_FABRIC),
    row("fabric.send_rejects", "count", Lo, Reg, M_FABRIC),
    row("fabric.stream_errors", "count", Lo, Reg, M_FABRIC),
    // auth / authz / cap
    row("cap.mint_us", "us", Lo, Micro, "setup_s under Signed caps"),
    row("cap.verify_cold_us", "us", Lo, Micro, "setup_s under Signed caps (first use of a token)"),
    row("cap.verify_cached_ns", "ns", Lo, Micro, M_CAP),
    row("authz.get_caps_us", "us", Lo, Micro, "setup_s"),
    row("authz.verify_us", "us", Lo, Micro, "setup_s under Legacy caps (verify-through)"),
    row("cap.verify_p50_ns", "ns", Lo, Reg, M_CAP),
    row("cap.cache_hit_ratio", "ratio", Hi, Reg, M_CAP),
    row("authz.cache_hit_ratio", "ratio", Hi, Reg, "op_ms_p50 under Legacy caps"),
    row("authz.verify_through_per_op", "count", Lo, Reg, M_AUTHZ),
    row("authz.msgs_per_op", "count", Lo, Reg, M_AUTHZ),
    // storage
    row("storage.store_create_ns", "ns", Lo, Micro, M_DISPATCH),
    row("storage.store_write_256k_us", "us", Lo, Micro, "ops_s on repl_write (existing object)"),
    row("storage.store_grow_4m_ms", "ms", Lo, Micro, M_STORE_W),
    row("storage.store_read_256k_us", "us", Lo, Micro, M_STORE_R),
    row("storage.create_ms", "ms", Lo, Span, M_DISPATCH),
    row("storage.write_ms", "ms", Lo, Span, M_STORE_W),
    row("storage.sync_ms", "ms", Lo, Span, M_DISPATCH),
    row("storage.read_ms", "ms", Lo, Span, M_STORE_R),
    row("storage.getattr_ms", "ms", Lo, Span, M_STORE_R),
    row("storage.dispatch_p50_ns", "ns", Lo, Reg, M_DISPATCH),
    row("storage.authorize_p50_ns", "ns", Lo, Reg, M_DISPATCH),
    row("storage.write_pull_p50_ns", "ns", Lo, Reg, M_STORE_W),
    row("storage.write_total_p50_ns", "ns", Lo, Reg, M_STORE_W),
    row("storage.conflict_defers", "count", Lo, Reg, "core.op_ms_p95 where requests share objects"),
    row("storage.busy_rejects", "count", Lo, Reg, "core.op_ms_p95; 0 on every workload"),
    // wal
    row("wal.frame_64k_us", "us", Lo, Micro, M_WAL),
    row("wal.append_64k_os_us", "us", Lo, Micro, M_WAL),
    row("wal.append_64k_every64_us", "us", Lo, Micro, M_WAL),
    row("wal.append_64k_always_us", "us", Lo, Micro, M_FSYNC),
    row("wal.append_256b_os_us", "us", Lo, Micro, M_WAL),
    row("wal.replay_mb_s", "MB/s", Hi, Micro, "wal.recovery_ms on ckpt_durable"),
    row("wal.write_64k_none_us", "us", Lo, Cluster, "the no-WAL baseline of the three below"),
    row("wal.write_64k_os_us", "us", Lo, Cluster, M_WAL),
    row("wal.write_64k_every64_us", "us", Lo, Cluster, M_WAL),
    row("wal.write_64k_always_us", "us", Lo, Cluster, M_FSYNC),
    row("wal.appends_per_op", "count", Lo, Reg, M_WAL),
    row("wal.fsyncs_per_op", "count", Lo, Reg, M_FSYNC),
    row("wal.bytes_per_user_byte", "ratio", Lo, Reg, M_WAL),
    row("wal.append_p50_ns", "ns", Lo, Reg, M_WAL),
    row("wal.fsync_p50_ns", "ns", Lo, Reg, M_FSYNC),
    row("wal.recovery_ms", "ms", Lo, Reg, "the post-crash check of ckpt_durable; 0 elsewhere"),
    row("wal.replay_records", "count", Lo, Reg, "wal.recovery_ms on ckpt_durable; 0 elsewhere"),
    // replica
    row("replica.write_64k_r1_us", "us", Lo, Cluster, "the R=1 baseline of the two below"),
    row("replica.write_64k_r2_us", "us", Lo, Cluster, M_REPL),
    row("replica.write_64k_r3_us", "us", Lo, Cluster, "what parallel fan-out must close vs r2"),
    row("replica.ships_per_op", "count", Lo, Reg, M_REPL),
    row("replica.ship_p50_ns", "ns", Lo, Reg, M_REPL),
    row("replica.ship_retries", "count", Lo, Reg, M_REPL),
    row("replica.ship_failures", "count", Lo, Reg, M_REPL),
    row("replica.dedup_hits", "count", Lo, Reg, M_REPL),
    row("replica.failover_first_read_ms", "ms", Lo, Span, "the post-crash check of repl_write"),
    // txn
    row("txn.begin_ms", "ms", Lo, Span, M_TXN),
    row("txn.commit_ms", "ms", Lo, Span, M_TXN),
    row("txn.prepare_p50_ns", "ns", Lo, Reg, M_TXN),
    row("txn.commit_p50_ns", "ns", Lo, Reg, M_TXN),
    row("txn.aborts", "count", Lo, Reg, "failed ops; 0 on every workload"),
    // naming
    row("naming.create_ms", "ms", Lo, Span, M_NAMING),
    row("naming.lookup_ms", "ms", Lo, Span, M_NAMING),
    // checkpoint / core
    row("checkpoint.self_ms", "ms", Lo, Span, "op total minus child spans: codec, copies, alloc"),
    row("checkpoint.retain_ms", "ms", Lo, Span, "setup-like cost kept out of op latency"),
    row("core.op_ms_p95", "ms", Lo, Span, "the tail an fsync group or a slow rank lands in"),
    row("core.op_ms_p99", "ms", Lo, Span, "as core.op_ms_p95, further out"),
    row("core.trace_overhead_frac", "ratio", Lo, Span, M_CORE),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// `BENCHMARK.json`, exactly the keys the driver's contract lists.
pub fn manifest(run_seconds: u64) -> Json {
    Json::obj([
        ("command", Json::Arr(COMMAND.into_iter().map(Json::str).collect())),
        ("paths", Json::Arr(vec![Json::str("crates/benchmark")])),
        ("run_seconds", Json::from(run_seconds)),
        (
            "workloads",
            Json::Arr(
                Workload::ALL
                    .iter()
                    .map(|w| {
                        Json::obj([("name", Json::str(w.name())), ("why", Json::str(w.why()))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(
                END_TO_END
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                            ("bound", Json::Num(m.bound)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            Json::Arr(
                PER_LAYER
                    .iter()
                    .map(|m| {
                        Json::obj([
                            ("name", Json::str(m.name)),
                            ("unit", Json::str(m.unit)),
                            ("better", Json::str(m.better.as_str())),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// `run_seconds` in `BENCHMARK.json`: how long one driver run measures.
pub const RUN_SECONDS: u64 = 10;

/// `command` in `BENCHMARK.json`; the driver appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: [&str; 7] =
    ["cargo", "run", "--release", "-q", "--manifest-path", "crates/benchmark/Cargo.toml", "--"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn name_ok(s: &str, extra: &str, max: usize) -> bool {
        !s.is_empty()
            && s.len() <= max
            && s.chars().all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
    }

    #[test]
    fn names_and_units_fit_the_driver_contract() {
        let mut seen = HashSet::new();
        let names = Workload::ALL
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name));
        for name in names {
            assert!(name_ok(name, "_.-", 64), "bad name {name}");
            assert!(name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(seen.insert(name), "{name} used twice");
        }
        let units = END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit));
        for unit in units {
            assert!(name_ok(unit, "_/%.-", 16), "bad unit {unit}");
        }
        for w in Workload::ALL {
            assert!(w.why().len() <= 200 && !w.why().contains('\n'), "{}", w.name());
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        for m in END_TO_END {
            assert!(m.bound > 0.0 && m.bound <= 0.25, "{}", m.name);
        }
        let setup = end_to_end("setup_s").unwrap();
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound), "setup_s has the largest bound");
    }

    #[test]
    fn benchmark_json_matches_the_spec() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert!(text.len() <= 64 * 1024);
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(on_disk, manifest(RUN_SECONDS), "regenerate with `lwfs-benchmark manifest`");
    }

    #[test]
    fn worsening_follows_direction() {
        assert!((Better::Lower.worsening(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(100.0, 110.0) < 0.0);
    }
}
