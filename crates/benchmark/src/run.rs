//! The harness: set-up, the closed two-rank op loop, the post-run checks,
//! and the reduction of one run to named metrics.
//!
//! Load shape, the same for every workload: one process, two rank threads,
//! a barrier before every op, so an op's latency is the slower rank's — the
//! reduction the paper uses. The loop ends after a fixed op count
//! (`--scale`, counters repeat exactly) or a fixed measuring time
//! (`--seconds`, what the driver passes).

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use lwfs_core::CapSet;
use lwfs_portals::Group;
use lwfs_proto::{Error, OpMask, Result as LwfsResult};

use crate::json::Json;
use crate::layers::{reg_rows, Boundary};
use crate::payload::{Payload, Tally};
use crate::spec::{Workload, END_TO_END, PER_LAYER};
use crate::trace::{critical_rank_means, Recorder, Span};
use crate::workloads::{
    checkpoint_stepped, checkpointer, def, group_of, login, repl_write, restore_epoch,
    restore_stepped, Def, Env, OpKind, RankState, PRELOADED, RANKS, RETAIN, RING,
};
use crate::{micro, sys};

/// How long a run measures.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Budget {
    /// The workload's op count times this factor; results compare only at
    /// equal scale.
    Scale(f64),
    /// Keep issuing ops for this many seconds of wall time.
    Seconds(f64),
}

impl Budget {
    /// How much smaller than a full-size run this is (1 for timed runs):
    /// what fixed-size side work — the micro table's iteration counts, the
    /// disk `ckpt_durable` asks for — is scaled by.
    pub fn size_factor(self) -> f64 {
        match self {
            Budget::Scale(f) => f.min(1.0),
            Budget::Seconds(_) => 1.0,
        }
    }
}

#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub budget: Budget,
    /// Untraced runs yield the end-to-end metrics; traced runs the
    /// per-layer ones.
    pub traced: bool,
    /// Where `ckpt_durable` may put its log (a fresh subdirectory is made
    /// and always removed).
    pub tmp_root: PathBuf,
    pub trace_out: Option<PathBuf>,
}

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

/// Everything one invocation measured.
#[derive(Debug, Clone)]
pub struct RunRecord {
    pub workload: Workload,
    pub seed: u64,
    pub traced: bool,
    pub tally: Tally,
    /// What went wrong, if anything: failed ops, failed checks.
    pub errors: Vec<String>,
    pub metrics: Vec<Metric>,
    /// Counts and times that explain the metrics (op and sample counts,
    /// wall time, budget).
    pub info: Vec<(&'static str, Json)>,
}

impl RunRecord {
    pub fn correct(&self) -> bool {
        self.tally.failed == 0 && self.errors.is_empty()
    }

    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|m| m.name == name).map(|m| m.value)
    }

    /// Turn measured per-layer rows into metrics, in declaration order. A
    /// declared row that was not measured, or a measured one that is not
    /// declared, is an error of the run.
    fn push_declared(&mut self, rows: &[(&'static str, f64)]) {
        for m in &PER_LAYER {
            let mut values = rows.iter().filter(|(name, _)| *name == m.name).map(|(_, v)| *v);
            match (values.next(), values.next()) {
                (Some(value), None) => {
                    self.metrics.push(Metric { name: m.name, value, unit: m.unit });
                }
                (None, _) => self.errors.push(format!("declared metric {} not measured", m.name)),
                (Some(_), Some(_)) => self.errors.push(format!("metric {} measured twice", m.name)),
            }
        }
        for (name, _) in rows {
            if !PER_LAYER.iter().any(|m| m.name == *name) {
                self.errors.push(format!("measured metric {name} is not declared"));
            }
        }
    }

    /// The object the driver reads from the last line of stdout.
    pub fn driver_line(&self) -> Json {
        Json::obj([
            ("correct", Json::Bool(self.correct())),
            ("attempted", Json::from(self.tally.attempted)),
            ("failed", Json::from(self.tally.failed)),
            (
                "metrics",
                Json::Obj(
                    self.metrics
                        .iter()
                        .map(|m| {
                            let v = Json::obj([
                                ("value", Json::Num(m.value)),
                                ("unit", Json::str(m.unit)),
                            ]);
                            (m.name.to_string(), v)
                        })
                        .collect(),
                ),
            ),
        ])
    }

    /// The full record, as `all` collects it into a result file.
    pub fn to_json(&self) -> Json {
        let mut members = vec![
            ("workload".to_string(), Json::str(self.workload.name())),
            ("seed".to_string(), Json::from(self.seed)),
            ("traced".to_string(), Json::Bool(self.traced)),
            ("failed_frac".to_string(), Json::Num(self.tally.failed_frac())),
            ("errors".to_string(), Json::Arr(self.errors.iter().map(Json::str).collect())),
        ];
        members.extend(self.info.iter().map(|(k, v)| (k.to_string(), v.clone())));
        members.extend(self.driver_line().members().iter().cloned());
        Json::Obj(members)
    }
}

/// In a traced run, ops alternate between the plain and the stepped form
/// in blocks of this many, so both see the same system state.
const TRACE_BLOCK: u64 = 8;
/// Share of `--seconds` a traced run spends in its window; the rest goes
/// to the micro table.
const TRACED_WINDOW_SHARE: f64 = 0.6;
/// An untraced run is this many rounds of set-up + window, each on a
/// cluster of its own, so `setup_s` is a median of several set-ups and the
/// windows sample more than one boot.
const ROUNDS: usize = 3;
/// Free disk `ckpt_durable` wants before it starts logging at full scale.
const DURABLE_FREE_BYTES: f64 = 4.0 * (1u64 << 30) as f64;
/// The stepped ops may differ from the plain ones by this share of the
/// median before the traced run fails.
const TRACE_OVERHEAD_LIMIT: f64 = 0.10;
/// ... provided each form has at least this many samples; a median of a
/// handful (the smoke test's scale) says nothing either way.
const TRACE_OVERHEAD_SAMPLES: usize = 100;
/// Warm-up ops per set-up, at least: enough epochs for the sweep that ends
/// the warm-up to have something to remove.
const MIN_WARM_OPS: u64 = RETAIN as u64 + 1;
/// Errors kept verbatim per window; the tally counts the rest.
const ERRORS_KEPT: usize = 8;
/// Every window is cut into this many slices of consecutive ops, and each
/// timing metric is the median over the slices of all rounds: the host
/// stalls for a second or two now and then, and a median over slices
/// forgets a stall where a mean over the window would not.
const SLICES: usize = 4;
/// Rank 0 notes the process CPU time every this many ops, so slices can
/// be given their own CPU cost.
const MARK_EVERY: u64 = 16;
/// A slice during which the hypervisor kept the CPUs for this many ticks
/// (10 ms each) or more measured the neighbours, not the program: at the
/// seed commit, runs with 1–3 % steal were 10 % slower than runs with
/// 0.1 %. Such slices are left out of the medians ...
const DISTURBED_STEAL_TICKS: u64 = 2;
/// ... unless fewer than this many calm ones remain, in which case this
/// many of the calmest are judged. The choice looks at the host's
/// counter only, never at how the ops went. Set-ups are judged alike.
const MIN_CALM_SLICES: usize = 4;

struct Plan {
    op: OpKind,
    first_op: u64,
    max_ops: Option<u64>,
    deadline: Option<Duration>,
    alternate: bool,
    /// Peak memory is read when the window has done this many ops — memory
    /// at equal work, whatever the speed — or at its end if it never does.
    rss_at: u64,
}

struct Shared<'a> {
    def: Def,
    seed: u64,
    caps: &'a CapSet,
    group: &'a Group,
    barrier: Barrier,
    /// The op count at which the window ends, published by rank 0. A count
    /// rather than a flag: rank 0 may finish its op and decide about the
    /// *next* one before a descheduled rank 1 has looked at this one.
    stop_at: AtomicU64,
    abort: AtomicBool,
    origin: Instant,
}

#[derive(Default)]
struct RankOut {
    lat_ns: Vec<u64>,
    ok: Vec<bool>,
    stepped: Vec<bool>,
    spans: Vec<Span>,
    prune_ns: Vec<u64>,
    errors: Vec<String>,
    /// Rank 0 only, every [`MARK_EVERY`] ops.
    marks: Vec<Mark>,
    peak_rss_mb: Option<f64>,
}

/// One window of ops, reduced over the ranks.
#[derive(Default)]
struct Window {
    /// Per op: the slower rank's latency.
    lat_ns: Vec<u64>,
    ok: Vec<bool>,
    stepped: Vec<bool>,
    spans: Vec<Vec<Span>>,
    prune_ns: Vec<u64>,
    errors: Vec<String>,
    marks: Vec<Mark>,
    peak_rss_mb: f64,
}

/// What rank 0 notes between ops, so slices can be given their own costs.
#[derive(Clone, Copy)]
struct Mark {
    ops_done: usize,
    /// Process CPU seconds so far.
    cpu_s: f64,
    /// Ticks the hypervisor has kept from this machine so far.
    steal_ticks: u64,
}

/// One slice of the window: what the end-to-end timing metrics are
/// computed on before the median over slices is taken.
struct Slice {
    /// Ticks the hypervisor gave to someone else while the slice ran.
    steal_ticks: u64,
    ops_s: f64,
    p50_ms: f64,
    cpu_ms_per_op: f64,
}

impl Window {
    fn tally(&self) -> Tally {
        Tally {
            attempted: self.ok.len() as u64,
            failed: self.ok.iter().filter(|ok| !**ok).count() as u64,
        }
    }

    fn ops(&self) -> u64 {
        self.lat_ns.len() as u64
    }

    /// Latencies of the plain (`stepped == false`) or stepped ops, sorted.
    fn sorted_lat(&self, stepped: bool) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .lat_ns
            .iter()
            .zip(&self.stepped)
            .filter(|(_, s)| **s == stepped)
            .map(|(l, _)| *l)
            .collect();
        v.sort_unstable();
        v
    }

    /// Cut the window at the CPU marks nearest to equal op counts.
    fn slices(&self) -> Vec<Slice> {
        let n = self.lat_ns.len();
        let mut cuts: Vec<Mark> = Vec::new();
        for j in 0..=SLICES {
            let want = n * j / SLICES;
            let Some(mark) = self.marks.iter().min_by_key(|m| m.ops_done.abs_diff(want)) else {
                return Vec::new();
            };
            if cuts.last().is_none_or(|last| mark.ops_done > last.ops_done) {
                cuts.push(*mark);
            }
        }
        cuts.windows(2)
            .map(|w| {
                let (a, b) = (w[0].ops_done, w[1].ops_done);
                let mut lat = self.lat_ns[a..b].to_vec();
                lat.sort_unstable();
                // Throughput of the typical path: the slowest twentieth of
                // a slice is where host stalls land, and it is reported on
                // its own (core.op_ms_p95 / p99).
                let kept = &lat[..(lat.len() * 19).div_ceil(20)];
                let sum_s = kept.iter().sum::<u64>() as f64 / 1e9;
                Slice {
                    steal_ticks: w[1].steal_ticks - w[0].steal_ticks,
                    ops_s: kept.len() as f64 / sum_s,
                    p50_ms: percentile_ms(&lat, 0.5),
                    cpu_ms_per_op: (w[1].cpu_s - w[0].cpu_s) * 1e3 / (b - a) as f64,
                }
            })
            .collect()
    }
}

/// Nearest-rank percentile of a sorted sample, in ms.
fn percentile_ms(sorted_ns: &[u64], q: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted_ns.len() as f64).ceil() as usize).clamp(1, sorted_ns.len());
    sorted_ns[rank - 1] as f64 / 1e6
}

/// The items the hypervisor left alone (fewer than
/// [`DISTURBED_STEAL_TICKS`] stolen while they ran) — or, where fewer than
/// `min_kept` of them are calm, the `min_kept` calmest.
fn calmest<T>(items: &[T], steal_ticks: impl Fn(&T) -> u64, min_kept: usize) -> Vec<&T> {
    let mut kept: Vec<&T> = items.iter().collect();
    kept.sort_by_key(|x| steal_ticks(x));
    let calm = kept.iter().filter(|x| steal_ticks(x) < DISTURBED_STEAL_TICKS).count();
    kept.truncate(calm.max(min_kept));
    kept
}

fn median(values: &mut [f64]) -> f64 {
    values.sort_by(f64::total_cmp);
    match values.len() {
        0 => 0.0,
        n if n % 2 == 1 => values[n / 2],
        n => (values[n / 2 - 1] + values[n / 2]) / 2.0,
    }
}

fn rank_loop(shared: &Shared<'_>, plan: &Plan, st: &mut RankState) -> RankOut {
    let RankState { rank, client, payload, ring, last_write } = st;
    let (rank, def) = (*rank, shared.def);
    let ck = checkpointer(client, shared.group, rank, shared.caps);
    let mut rec = Recorder::new(shared.origin, rank);
    let mut out = RankOut::default();
    let started = Instant::now();
    let mut i: u64 = 0;
    loop {
        if rank == 0 {
            let done = plan.max_ops.is_some_and(|m| i >= m)
                || plan.deadline.is_some_and(|d| started.elapsed() >= d)
                || shared.abort.load(Ordering::SeqCst);
            if done {
                shared.stop_at.store(i, Ordering::SeqCst);
            }
            if i.is_multiple_of(MARK_EVERY) || done {
                out.marks.push(Mark {
                    ops_done: i as usize,
                    cpu_s: sys::cpu_seconds(),
                    steal_ticks: sys::steal_ticks(),
                });
            }
            if (i == plan.rss_at || done) && out.peak_rss_mb.is_none() {
                out.peak_rss_mb = Some(sys::peak_rss_mb());
            }
        }
        let op = plan.first_op + i;
        if plan.op != OpKind::Restore {
            payload.stamp(op);
        }
        shared.barrier.wait();
        if i >= shared.stop_at.load(Ordering::SeqCst) {
            break;
        }
        let stepped = plan.alternate && (i / TRACE_BLOCK) % 2 == 1;
        let t0 = Instant::now();
        let result: LwfsResult<()> = match plan.op {
            OpKind::Epoch if stepped => {
                rec.op(op, |r| {
                    checkpoint_stepped(
                        r,
                        client,
                        shared.group,
                        rank,
                        shared.caps,
                        op,
                        payload.bytes(),
                    )
                })
                .0
            }
            OpKind::Epoch => ck.checkpoint(op, payload.bytes()).and_then(|report| {
                (report.bytes == payload.len() as u64).then_some(()).ok_or_else(|| {
                    Error::Internal(format!("epoch reported {} bytes", report.bytes))
                })
            }),
            OpKind::Restore => {
                let epoch = restore_epoch(shared.seed, op);
                let got = if stepped {
                    rec.op(op, |r| {
                        restore_stepped(r, client, shared.group, rank, shared.caps, epoch)
                    })
                    .0
                } else {
                    ck.restore(epoch)
                };
                got.and_then(|bytes| {
                    payload.matches_sampled(epoch, &bytes).then_some(()).ok_or_else(|| {
                        Error::Internal(format!("epoch {epoch} restored wrong bytes"))
                    })
                })
            }
            OpKind::ReplWrite => {
                let slot = (op % RING as u64) as usize;
                last_write[slot] = Some(op);
                let (obj, group_idx) = (ring[slot], rank % def.groups);
                if stepped {
                    rec.op(op, |r| {
                        repl_write(Some(r), client, shared.caps, group_idx, obj, payload.bytes())
                    })
                    .0
                } else {
                    repl_write(None, client, shared.caps, group_idx, obj, payload.bytes())
                }
            }
        };
        out.lat_ns.push(t0.elapsed().as_nanos() as u64);
        out.ok.push(result.is_ok());
        out.stepped.push(stepped);
        if let Err(e) = result {
            // A failed collective leaves the ranks out of step; stop the
            // window rather than time garbage.
            shared.abort.store(true, Ordering::SeqCst);
            if out.errors.len() < ERRORS_KEPT {
                out.errors.push(format!("{} op {op} rank {rank}: {e}", def.workload.name()));
            }
        }
        i += 1;
        if plan.op == OpKind::Epoch
            && def.prune_every > 0
            && (op + 1).is_multiple_of(def.prune_every)
        {
            // Both ranks are done with the epoch before old ones go; the
            // sweep's time stays out of every op's latency.
            shared.barrier.wait();
            if rank == 0 {
                let t = Instant::now();
                if let Err(e) = ck.retain_latest(RETAIN) {
                    shared.abort.store(true, Ordering::SeqCst);
                    out.errors.push(format!("retain_latest after epoch {op}: {e}"));
                }
                out.prune_ns.push(t.elapsed().as_nanos() as u64);
            }
        }
    }
    out.spans = rec.into_spans();
    out
}

/// Run `f` on a thread per item (one per rank) and collect the results in
/// item order.
fn on_threads<X: Send, T: Send>(
    items: impl IntoIterator<Item = X>,
    f: impl Fn(X) -> T + Sync,
) -> Vec<T> {
    std::thread::scope(|s| {
        let f = &f;
        let handles: Vec<_> = items.into_iter().map(|x| s.spawn(move || f(x))).collect();
        handles.into_iter().map(|h| h.join().expect("rank thread panicked")).collect()
    })
}

fn run_window(env: &mut Env, plan: Plan) -> Window {
    let Env { def, seed, caps, group, ranks, .. } = env;
    let shared = Shared {
        def: *def,
        seed: *seed,
        caps,
        group,
        barrier: Barrier::new(RANKS),
        stop_at: AtomicU64::new(u64::MAX),
        abort: AtomicBool::new(false),
        origin: Instant::now(),
    };
    let outs = on_threads(ranks.iter_mut(), |st| rank_loop(&shared, &plan, st));
    let mut win = Window::default();
    let n = outs.iter().map(|o| o.lat_ns.len()).min().unwrap_or(0);
    for i in 0..n {
        win.lat_ns.push(outs.iter().map(|o| o.lat_ns[i]).max().unwrap_or(0));
        win.ok.push(outs.iter().all(|o| o.ok[i]));
        win.stepped.push(outs[0].stepped[i]);
    }
    for out in outs {
        win.spans.push(out.spans);
        win.prune_ns.extend(out.prune_ns);
        win.errors.extend(out.errors);
        win.marks.extend(out.marks);
        win.peak_rss_mb = out.peak_rss_mb.unwrap_or(win.peak_rss_mb);
    }
    win
}

/// Both ranks restore each epoch through the program's own `restore` and
/// compare every byte. One tally entry per epoch.
fn verify_epochs(env: &mut Env, epochs: &[u64], errors: &mut Vec<String>) -> Tally {
    let Env { caps, group, ranks, .. } = env;
    let per_rank: Vec<Vec<Result<(), String>>> = on_threads(ranks.iter(), |st| {
        let ck = checkpointer(&st.client, group, st.rank, caps);
        epochs
            .iter()
            .map(|&e| match ck.restore(e) {
                Ok(got) if st.payload.matches_full(e, &got) => Ok(()),
                Ok(_) => Err(format!("epoch {e} rank {}: bytes differ", st.rank)),
                Err(err) => Err(format!("epoch {e} rank {}: {err}", st.rank)),
            })
            .collect()
    });
    let mut tally = Tally::default();
    for i in 0..epochs.len() {
        let failures: Vec<&String> = per_rank.iter().filter_map(|r| r[i].as_ref().err()).collect();
        tally.record(failures.is_empty());
        errors.extend(failures.into_iter().cloned());
    }
    tally
}

struct Counts {
    warm: u64,
    max_ops: Option<u64>,
    deadline: Option<Duration>,
}

/// Per-round op counts and deadline.
fn counts(def: &Def, opts: &Opts, rounds: usize) -> Counts {
    match opts.budget {
        Budget::Scale(f) => {
            let timed = ((def.timed_ops as f64 * f / rounds as f64).ceil() as u64).max(1);
            // The first tenth of a fixed-count window is warm-up.
            Counts { warm: (timed / 10).max(MIN_WARM_OPS), max_ops: Some(timed), deadline: None }
        }
        Budget::Seconds(s) => {
            let share = if opts.traced { TRACED_WINDOW_SHARE } else { 1.0 };
            Counts {
                warm: (def.timed_ops / 25).max(MIN_WARM_OPS),
                max_ops: None,
                deadline: Some(Duration::from_secs_f64(s * share / rounds as f64)),
            }
        }
    }
}

/// Boot, log in, preload and warm up: everything `setup_s` covers. The
/// warm-up uses op indices `0..warm`; the timed window continues from there.
fn set_up(
    opts: &Opts,
    def: Def,
    warm: u64,
    tally: &mut Tally,
    errors: &mut Vec<String>,
) -> Result<Env, String> {
    let wal_root = if def.wal {
        let dir = opts.tmp_root.join(format!("lwfs-benchmark-wal-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        Some(dir)
    } else {
        None
    };
    let mut env = Env::boot(def, opts.seed, wal_root).map_err(|e| format!("boot: {e}"))?;
    let plan = |op, first_op, n| Plan {
        op,
        first_op,
        max_ops: Some(n),
        deadline: None,
        alternate: false,
        rss_at: u64::MAX,
    };
    let mut absorb = |win: Window| {
        tally.add(win.tally());
        errors.extend(win.errors);
    };
    match def.op {
        OpKind::Epoch => {
            absorb(run_window(&mut env, plan(OpKind::Epoch, 0, warm)));
            tally.add(verify_epochs(&mut env, &[warm - 1], errors));
            // One sweep, so that every capability the window will use —
            // REMOVE included — has been seen by every server: the timed
            // window starts in steady state, off the authorization service.
            let ck = checkpointer(&env.ranks[0].client, &env.group, 0, &env.caps);
            if let Err(e) = ck.retain_latest(RETAIN) {
                errors.push(format!("warm-up retain_latest: {e}"));
            }
        }
        OpKind::Restore => {
            absorb(run_window(&mut env, plan(OpKind::Epoch, 0, PRELOADED)));
            absorb(run_window(&mut env, plan(OpKind::Restore, 0, warm)));
        }
        OpKind::ReplWrite => absorb(run_window(&mut env, plan(OpKind::ReplWrite, 0, warm))),
    }
    Ok(env)
}

/// What the checks after the window found.
#[derive(Default)]
struct Post {
    /// Store bytes held per user byte still retained (after the final
    /// prune, before any crash).
    store_per_retained: f64,
    recovery_ms: f64,
    replay_records: f64,
    failover_first_read_ms: f64,
}

fn post_checks(env: &mut Env, last_op: u64, tally: &mut Tally, errors: &mut Vec<String>) -> Post {
    let mut post = Post::default();
    let def = env.def;
    let epoch_bytes = (RANKS * def.bytes_per_rank) as f64;
    match def.op {
        OpKind::Epoch => {
            let ck = checkpointer(&env.ranks[0].client, &env.group, 0, &env.caps);
            if let Err(e) = ck.retain_latest(RETAIN) {
                errors.push(format!("final retain_latest: {e}"));
            }
            let kept: Vec<u64> = (last_op.saturating_sub(RETAIN as u64 - 1)..=last_op).collect();
            post.store_per_retained = env.store_bytes() as f64 / (kept.len() as f64 * epoch_bytes);
            tally.add(verify_epochs(env, &kept, errors));
            if def.wal {
                tally.record(crash_restart_restore(env, last_op, &mut post, errors));
            }
        }
        OpKind::Restore => {
            post.store_per_retained = env.store_bytes() as f64 / (PRELOADED as f64 * epoch_bytes);
            let all: Vec<u64> = (0..PRELOADED).collect();
            tally.add(verify_epochs(env, &all, errors));
        }
        OpKind::ReplWrite => {
            let written: usize =
                env.ranks.iter().map(|st| st.last_write.iter().flatten().count()).sum();
            post.store_per_retained =
                env.store_bytes() as f64 / (written.max(1) * def.bytes_per_rank) as f64;
            failover_and_read(env, &mut post, tally, errors);
        }
    }
    post
}

/// `ckpt_durable`'s check: kill both servers, restart them from their
/// logs, and have *fresh* clients restore the last acknowledged epoch. An
/// acked epoch that does not come back byte-exact is a failed op.
fn crash_restart_restore(
    env: &mut Env,
    epoch: u64,
    post: &mut Post,
    errors: &mut Vec<String>,
) -> bool {
    let replayed = |env: &Env| env.cluster.network().obs().counter("wal.replay_records").get();
    let before = replayed(env);
    let servers = env.cluster.storage_count();
    (0..servers).for_each(|i| env.cluster.crash_storage(i));
    let t = Instant::now();
    (0..servers).for_each(|i| {
        env.cluster.restart_storage(i);
    });
    post.recovery_ms = t.elapsed().as_secs_f64() * 1e3;
    post.replay_records = (replayed(env) - before) as f64;

    let restored = (|| -> LwfsResult<Vec<Vec<u8>>> {
        let clients = login(&env.cluster, 10, RANKS)?;
        let caps = clients[0].get_caps(env.caps.container()?, OpMask::ALL)?;
        let group = group_of(&clients);
        on_threads(clients.iter().enumerate(), |(rank, client)| {
            checkpointer(client, &group, rank, &caps).restore(epoch)
        })
        .into_iter()
        .collect()
    })();
    match restored {
        Ok(per_rank) => per_rank.iter().enumerate().all(|(rank, got)| {
            // Regenerated from the seed, not taken from the rank that wrote.
            let ok = Payload::new(env.seed, rank, env.def.bytes_per_rank).matches_full(epoch, got);
            if !ok {
                errors.push(format!("epoch {epoch} rank {rank}: wrong bytes after restart"));
            }
            ok
        }),
        Err(e) => {
            errors.push(format!("restore of epoch {epoch} after restart: {e}"));
            false
        }
    }
}

/// `repl_write`'s check: kill every group's primary and read each ring
/// object, byte-exact, from the promoted backup.
fn failover_and_read(env: &mut Env, post: &mut Post, tally: &mut Tally, errors: &mut Vec<String>) {
    let def = env.def;
    (0..def.groups).for_each(|g| env.cluster.crash_storage(g * def.replication));
    for st in &env.ranks {
        let mut first = true;
        for (slot, &obj) in st.ring.iter().enumerate() {
            let Some(op) = st.last_write[slot] else { continue };
            let t = Instant::now();
            let got = st.client.read(st.rank % def.groups, &env.caps, obj, 0, def.bytes_per_rank);
            if std::mem::take(&mut first) {
                post.failover_first_read_ms =
                    post.failover_first_read_ms.max(t.elapsed().as_secs_f64() * 1e3);
            }
            let ok = match got {
                Ok(bytes) if st.payload.matches_full(op, &bytes) => true,
                Ok(_) => {
                    errors.push(format!("ring object {obj:?}: wrong bytes after failover"));
                    false
                }
                Err(e) => {
                    errors.push(format!("ring object {obj:?} after failover: {e}"));
                    false
                }
            };
            tally.record(ok);
        }
    }
}

/// One round of a run: a set-up and the window measured on it.
struct Round {
    env: Env,
    win: Window,
    start: Boundary,
    end: Boundary,
    /// Bytes the window added under the WAL root.
    wal_added: u64,
}

fn mean_ms(ns: &[u64]) -> f64 {
    ns.iter().sum::<u64>() as f64 / 1e6 / ns.len().max(1) as f64
}

/// Run one workload once. `Err` is a harness failure (cannot boot, no
/// disk); op and verification failures are in the record.
pub fn run(opts: &Opts) -> Result<RunRecord, String> {
    let run_started = Instant::now();
    let def = def(opts.workload);
    let rounds = if opts.traced { 1 } else { ROUNDS };
    let counts = counts(&def, opts, rounds);
    if def.wal {
        let need = DURABLE_FREE_BYTES * opts.budget.size_factor();
        match sys::free_disk_bytes(&opts.tmp_root) {
            Some(free) if (free as f64) < need => {
                return Err(format!(
                    "{}: {free} bytes free under {}, want {need:.0}",
                    def.workload.name(),
                    opts.tmp_root.display()
                ));
            }
            _ => {}
        }
    }

    let mut tally = Tally::default();
    let mut errors = Vec::new();
    // Per set-up: its seconds, and the ticks stolen from the host meanwhile.
    let mut setups: Vec<(f64, u64)> = Vec::with_capacity(rounds);
    let mut slices = Vec::new();
    let mut lat = Vec::new();
    let mut peak_rss = Vec::with_capacity(rounds);
    let mut prune_ns = Vec::new();
    let (mut timed_ops, mut ok_ops) = (0u64, 0u64);
    let mut last: Option<Round> = None;
    for _ in 0..rounds {
        drop(last.take());
        sys::reset_peak_rss();
        let (t, stolen) = (Instant::now(), sys::steal_ticks());
        let mut env = set_up(opts, def, counts.warm, &mut tally, &mut errors)?;
        setups.push((t.elapsed().as_secs_f64(), sys::steal_ticks() - stolen));

        let authz = env.cluster.addrs().authz;
        let start = Boundary::capture(env.cluster.network(), authz);
        let wal_before = env.wal_bytes();
        let plan = Plan {
            op: def.op,
            first_op: counts.warm,
            max_ops: counts.max_ops,
            deadline: counts.deadline,
            alternate: opts.traced,
            rss_at: def.timed_ops / (7 * rounds as u64),
        };
        let win = run_window(&mut env, plan);
        let end = Boundary::capture(env.cluster.network(), authz);
        let wal_added = env.wal_bytes().saturating_sub(wal_before);

        tally.add(win.tally());
        errors.extend(win.errors.iter().cloned());
        timed_ops += win.ops();
        ok_ops += win.ok.iter().filter(|ok| **ok).count() as u64;
        slices.extend(win.slices());
        lat.extend(win.sorted_lat(false));
        peak_rss.push(win.peak_rss_mb);
        prune_ns.extend(win.prune_ns.iter().copied());
        last = Some(Round { env, win, start, end, wal_added });
    }
    let Round { mut env, win, start, end, wal_added } = last.expect("at least one round");

    // The checks that end a run are made on the last round's cluster.
    let n = win.ops();
    let epoch_bytes = (RANKS * def.bytes_per_rank) as u64;
    let written = |ops: u64| if def.op == OpKind::Restore { 0 } else { ops * epoch_bytes };
    let round_written = written(win.ok.iter().filter(|ok| **ok).count() as u64);
    // With no timed op (every op failed at once), fall back to the last
    // warm-up op so the checks still have an epoch to name.
    let last_op = (counts.warm + n).saturating_sub(1);
    let post = post_checks(&mut env, last_op, &mut tally, &mut errors);

    let mut record = RunRecord {
        workload: opts.workload,
        seed: opts.seed,
        traced: opts.traced,
        tally,
        errors,
        metrics: Vec::new(),
        info: vec![
            ("rounds", Json::from(rounds as u64)),
            ("timed_ops", Json::from(timed_ops)),
            ("warm_ops_per_round", Json::from(counts.warm)),
            ("bytes_per_rank", Json::from(def.bytes_per_rank as u64)),
            ("prunes", Json::from(prune_ns.len() as u64)),
        ],
    };

    if opts.traced {
        let plain = win.sorted_lat(false);
        let stepped = win.sorted_lat(true);
        let means = critical_rank_means(&win.spans)?;
        let (p50_plain, p50_stepped) = (percentile_ms(&plain, 0.5), percentile_ms(&stepped, 0.5));
        let overhead = if p50_plain > 0.0 && !stepped.is_empty() {
            p50_stepped / p50_plain - 1.0
        } else {
            0.0
        };
        let judged = plain.len().min(stepped.len()) >= TRACE_OVERHEAD_SAMPLES;
        if judged && overhead.abs() > TRACE_OVERHEAD_LIMIT {
            record.errors.push(format!(
                "stepped ops run at {p50_stepped:.4} ms median against {p50_plain:.4} ms plain \
                 ({:+.1} %): the step-by-step copy has drifted from LwfsCheckpointer",
                overhead * 100.0
            ));
        }
        let span_ms = |name: &str| means.by_name.get(name).copied().unwrap_or(0.0) / 1e6;
        let mut rows: Vec<(&'static str, f64)> = reg_rows(&start, &end, n, round_written);
        rows.extend([
            ("portals.gather_ms", span_ms("portals.gather")),
            ("portals.bcast_ms", span_ms("portals.bcast")),
            ("storage.create_ms", span_ms("storage.create")),
            ("storage.write_ms", span_ms("storage.write")),
            ("storage.sync_ms", span_ms("storage.sync")),
            ("storage.read_ms", span_ms("storage.read")),
            ("storage.getattr_ms", span_ms("storage.getattr")),
            ("txn.begin_ms", span_ms("txn.begin")),
            ("txn.commit_ms", span_ms("txn.commit")),
            ("naming.create_ms", span_ms("naming.create")),
            ("naming.lookup_ms", span_ms("naming.lookup")),
            ("checkpoint.self_ms", means.self_ns / 1e6),
            ("checkpoint.retain_ms", mean_ms(&prune_ns)),
            ("core.op_ms_p95", percentile_ms(&plain, 0.95)),
            ("core.op_ms_p99", percentile_ms(&plain, 0.99)),
            ("core.trace_overhead_frac", overhead),
            ("wal.recovery_ms", post.recovery_ms),
            ("wal.replay_records", post.replay_records),
            ("replica.failover_first_read_ms", post.failover_first_read_ms),
        ]);
        // The servers are idle from here on, so the isolated loops below
        // have the cores to themselves.
        rows.extend(micro::table(&opts.tmp_root, opts.budget)?);
        record.info.extend([
            ("plain_samples", Json::from(plain.len() as u64)),
            ("stepped_samples", Json::from(stepped.len() as u64)),
            ("span_op_mean_ms", Json::Num(means.total_ns / 1e6)),
        ]);
        record.push_declared(&rows);
        if let Some(path) = &opts.trace_out {
            std::fs::write(path, crate::trace::to_json(&win.spans).to_string())
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
        }
    } else {
        if slices.is_empty() {
            record.errors.push("the timed windows are empty".into());
        }
        lat.sort_unstable();
        let judged = calmest(&slices, |s| s.steal_ticks, MIN_CALM_SLICES);
        let calm_setups = calmest(&setups, |(_, steal)| *steal, 1);
        let over_slices =
            |f: fn(&Slice) -> f64| median(&mut judged.iter().map(|s| f(s)).collect::<Vec<_>>());
        let ops_s = over_slices(|s| s.ops_s);
        // Payload bytes per op, counting only ops that passed their check.
        let bytes_per_op = (ok_ops * epoch_bytes) as f64 / timed_ops.max(1) as f64;
        let log_per_written =
            if round_written > 0 { wal_added as f64 / round_written as f64 } else { 0.0 };
        let values = [
            ("setup_s", median(&mut calm_setups.iter().map(|(secs, _)| *secs).collect::<Vec<_>>())),
            ("ops_s", ops_s),
            ("goodput_mb_s", ops_s * bytes_per_op / 1e6),
            ("op_ms_p50", over_slices(|s| s.p50_ms)),
            ("cpu_ms_per_op", over_slices(|s| s.cpu_ms_per_op)),
            ("peak_rss_mb", median(&mut peak_rss)),
            ("stored_bytes_per_user_byte", log_per_written + post.store_per_retained),
            ("verified_frac", 1.0 - record.tally.failed_frac()),
        ];
        for (m, (name, value)) in END_TO_END.iter().zip(values) {
            assert_eq!(m.name, name, "END_TO_END order");
            record.metrics.push(Metric { name, value, unit: m.unit });
        }
        let nums = |v: &[f64]| Json::Arr(v.iter().map(|x| Json::Num(*x)).collect());
        record.info.extend([
            ("samples", Json::from(lat.len() as u64)),
            ("slices", Json::from(slices.len() as u64)),
            ("slices_judged", Json::from(judged.len() as u64)),
            (
                "slice_steal_ticks",
                nums(&slices.iter().map(|s| s.steal_ticks as f64).collect::<Vec<_>>()),
            ),
            ("slice_ops_s", nums(&slices.iter().map(|s| s.ops_s).collect::<Vec<_>>())),
            ("slice_op_ms_p50", nums(&slices.iter().map(|s| s.p50_ms).collect::<Vec<_>>())),
            ("setups_s", nums(&setups.iter().map(|(secs, _)| *secs).collect::<Vec<_>>())),
            ("setup_steal_ticks", nums(&setups.iter().map(|(_, t)| *t as f64).collect::<Vec<_>>())),
            ("peak_rss_mb_by_round", nums(&peak_rss)),
            ("window_op_ms_p50", Json::Num(percentile_ms(&lat, 0.5))),
            ("window_op_ms_p95", Json::Num(percentile_ms(&lat, 0.95))),
            ("window_op_ms_p99", Json::Num(percentile_ms(&lat, 0.99))),
            ("retain_ms_mean", Json::Num(mean_ms(&prune_ns))),
            ("log_bytes_per_user_byte", Json::Num(log_per_written)),
            ("store_bytes_per_retained_byte", Json::Num(post.store_per_retained)),
        ]);
    }
    for m in &record.metrics {
        if !m.value.is_finite() {
            record.errors.push(format!("metric {} is not finite", m.name));
        }
    }
    record.info.push(("run_wall_s", Json::Num(run_started.elapsed().as_secs_f64())));
    Ok(record)
}
