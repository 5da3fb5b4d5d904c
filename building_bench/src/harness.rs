//! What every workload shares: the run plan, the open- and closed-loop
//! load generators, set-up repetition, and the per-layer figures derived
//! from counters, replays and spans.

use crate::building::{Building, Delta};
use crate::stats::{self, ratio};
use crate::trace::{self, SpanId, SpanLog};
use ace_core::prelude::*;
use ace_core::{Authorizer, RegistrySnapshot};
use ace_security::cipher::{SecureChannel, SessionKey};
use ace_security::keynote::ActionEnv;
use rand::rngs::SmallRng;
use rand::Rng;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Load-generator threads (the host has two cores) and, with one
/// request outstanding per thread, the most requests in flight.
pub const LANES: usize = 2;

/// What one invocation runs.
#[derive(Debug, Clone)]
pub struct Plan {
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Record spans and report per-layer figures instead of end-to-end ones.
    pub trace: bool,
    /// Set-ups timed for `setup_s` (all but the last are torn down).
    pub setups: usize,
    /// Upper bound on the counter-gated warm-up.
    pub warmup_cap: Duration,
    /// Corrupt every n-th reply before it is checked (0: never).  Lets the
    /// tests show that the correctness checks catch a wrong answer.
    pub tamper_every: u64,
}

impl Plan {
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

/// Should the reply of operation `op` be corrupted, with corruption of
/// every `every`-th reply (0: none)?
pub fn tampers(every: u64, op: u64) -> bool {
    every > 0 && op % every == every - 1
}

/// A seeded generator for one purpose of one lane.
pub fn rng_for(seed: u64, lane: usize, purpose: u64) -> SmallRng {
    SmallRng::seed_from_u64(
        seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ (lane as u64 + 1).wrapping_mul(0xD1B5_4A32_D192_ED03)
            ^ purpose.wrapping_mul(0x8CB9_2BA7_2F3D_8DD7),
    )
}

/// State-changing operations report as `put`, reads as `get`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Put,
    Get,
}

/// One measured operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub latency_us: f64,
    /// Completion time, seconds after the drive started.
    pub done_s: f64,
    pub kind: Kind,
    pub ok: bool,
    pub traced: bool,
}

/// An operation's verdict: its kind, and why it failed if it did.
pub type OpResult = Result<Kind, (Kind, String)>;

/// Per-operation context handed to a workload's operation.
pub struct OpCtx<'a> {
    pub op: u64,
    /// Inputs of this lane, drawn from the seed only.
    pub rng: &'a mut SmallRng,
    log: &'a mut SpanLog,
    root: Option<SpanId>,
}

impl OpCtx<'_> {
    /// Run `f` as a call into layer `name`, recording a span when traced.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        match self.root {
            Some(root) => {
                let start = Instant::now();
                let out = f();
                self.log.child(root, name, start, Instant::now());
                out
            }
            None => f(),
        }
    }
}

/// How a generator paces its lane.
#[derive(Debug, Clone, Copy)]
pub enum Pace {
    /// Poisson arrivals at this rate per lane; latency counts from the
    /// intended send time.
    Open { per_lane_hz: f64 },
    /// Next request as soon as the previous reply is in.
    Closed,
}

/// What one lane did in one drive.
pub struct Lane<C> {
    pub client: C,
    pub samples: Vec<Sample>,
    /// Open loop: actual minus intended send time.  Closed loop: the
    /// generator's turnaround between a reply and the next request.
    pub late_us: Vec<f64>,
    pub log: SpanLog,
    pub failures: Vec<String>,
    /// Operation inputs continue across drives.
    rng: SmallRng,
    next_op: u64,
}

impl<C> Lane<C> {
    pub fn new(client: C, seed: u64, lane: usize, epoch: Instant) -> Lane<C> {
        Lane {
            client,
            samples: Vec::new(),
            late_us: Vec::new(),
            log: SpanLog::new(epoch),
            failures: Vec::new(),
            rng: rng_for(seed, lane, 1),
            next_op: 0,
        }
    }

    /// Forget the results so far (the warm-up's), keeping client and inputs.
    pub fn reset(&mut self, epoch: Instant) {
        self.samples.clear();
        self.late_us.clear();
        self.log = SpanLog::new(epoch);
        self.failures.clear();
    }
}

/// Drive every lane for `run_for` on its own thread.  `drive_no` keeps
/// the open-loop schedules of successive drives distinct.
pub fn drive<C: Send>(
    lanes: &mut [Lane<C>],
    pace: Pace,
    run_for: Duration,
    seed: u64,
    drive_no: u64,
    trace: bool,
    op: &(dyn Fn(&mut C, &mut OpCtx) -> OpResult + Sync),
) {
    let n_lanes = lanes.len() as u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (i, lane) in lanes.iter_mut().enumerate() {
            scope.spawn(move || {
                let mut sched = rng_for(seed, i, 1000 + drive_no);
                let end = start + run_for;
                let mut intended = start;
                let mut prev_done = start;
                loop {
                    let began = match pace {
                        Pace::Open { per_lane_hz } => {
                            let gap: f64 = -(1.0 - sched.gen::<f64>()).ln() / per_lane_hz;
                            intended += Duration::from_secs_f64(gap);
                            if intended >= end {
                                break;
                            }
                            let now = Instant::now();
                            if intended > now {
                                std::thread::sleep(intended - now);
                            }
                            Instant::now()
                        }
                        Pace::Closed => {
                            let now = Instant::now();
                            if now >= end {
                                break;
                            }
                            intended = now;
                            now
                        }
                    };
                    let late = match pace {
                        Pace::Open { .. } => began.saturating_duration_since(intended),
                        Pace::Closed => began.saturating_duration_since(prev_done),
                    };
                    let seq = lane.next_op;
                    lane.next_op += 1;
                    let op_id = seq * n_lanes + i as u64;
                    let traced = trace && seq % 2 == 0;
                    let root = traced.then(|| lane.log.open("op", op_id, intended));
                    if let Some(root) = root {
                        lane.log.child(root, "gen.late", intended, began);
                    }
                    let mut ctx = OpCtx {
                        op: op_id,
                        rng: &mut lane.rng,
                        log: &mut lane.log,
                        root,
                    };
                    let verdict = op(&mut lane.client, &mut ctx);
                    let done = Instant::now();
                    if let Some(root) = root {
                        lane.log.finish(root, done);
                    }
                    prev_done = done;
                    let (kind, ok) = match verdict {
                        Ok(kind) => (kind, true),
                        Err((kind, why)) => {
                            if lane.failures.len() < 8 {
                                lane.failures.push(format!("op {op_id}: {why}"));
                            }
                            (kind, false)
                        }
                    };
                    lane.late_us.push(late.as_secs_f64() * 1e6);
                    lane.samples.push(Sample {
                        latency_us: done.duration_since(intended).as_secs_f64() * 1e6,
                        done_s: done.duration_since(start).as_secs_f64(),
                        kind,
                        ok,
                        traced,
                    });
                }
            });
        }
    });
}

/// Process CPU seconds against seconds since a drive started.
pub type CpuTrace = Vec<(f64, f64)>;

/// The measured drive: [`drive`] for the plan's window, with process CPU
/// sampled every 50 ms so each sub-window's CPU can be told apart.
pub fn measure<C: Send>(
    lanes: &mut [Lane<C>],
    pace: Pace,
    plan: &Plan,
    op: &(dyn Fn(&mut C, &mut OpCtx) -> OpResult + Sync),
) -> CpuTrace {
    let stop = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let sampler = scope.spawn(|| {
            let start = Instant::now();
            let mut trace = Vec::new();
            loop {
                trace.push((start.elapsed().as_secs_f64(), crate::procfs::cpu_seconds()));
                if stop.load(Ordering::Relaxed) {
                    return trace;
                }
                std::thread::sleep(Duration::from_millis(50));
            }
        });
        drive(
            lanes,
            pace,
            plan.window(),
            plan.seed,
            u64::MAX,
            plan.trace,
            op,
        );
        stop.store(true, Ordering::Relaxed);
        sampler.join().expect("CPU sampler panicked")
    })
}

/// Process CPU seconds at `t`, interpolated between samples.
fn cpu_at(trace: &CpuTrace, t: f64) -> f64 {
    let i = trace.partition_point(|&(at, _)| at < t);
    match (i.checked_sub(1).map(|j| trace[j]), trace.get(i)) {
        (Some((t0, c0)), Some(&(t1, c1))) if t1 > t0 => c0 + (c1 - c0) * (t - t0) / (t1 - t0),
        (_, Some(&(_, c))) | (Some((_, c)), None) => c,
        (None, None) => 0.0,
    }
}

/// Warm up in one-second drives until `settled` says the counters it
/// watches are steady, or `plan.warmup_cap` passes.  Returns the seconds
/// spent and whether the gate opened.
pub fn warm_up<C: Send>(
    lanes: &mut [Lane<C>],
    pace: Pace,
    plan: &Plan,
    op: &(dyn Fn(&mut C, &mut OpCtx) -> OpResult + Sync),
    mut settled: impl FnMut(&mut [Lane<C>]) -> Result<bool, String>,
) -> Result<(f64, bool), String> {
    let started = Instant::now();
    let slice = Duration::from_secs(1).min(plan.warmup_cap);
    let mut drive_no = 0;
    loop {
        for lane in lanes.iter_mut() {
            lane.reset(started);
        }
        drive(lanes, pace, slice, plan.seed, drive_no, false, op);
        drive_no += 1;
        if let Some(why) = lanes.iter().flat_map(|l| l.failures.iter()).next() {
            return Err(format!("warm-up operation failed: {why}"));
        }
        let open = settled(lanes)?;
        if open || started.elapsed() >= plan.warmup_cap {
            return Ok((started.elapsed().as_secs_f64(), open));
        }
    }
}

/// Set up, run the workload on that set-up, and tear it down; then time
/// `plan.setups - 1` more set-ups, each torn down again, and report the
/// median of all set-up times as `setup_s`.
pub fn with_setups<T>(
    plan: &Plan,
    build: impl Fn() -> Result<T, String>,
    teardown: impl Fn(T),
    run: impl FnOnce(&T) -> Result<Report, String>,
) -> Result<Report, String> {
    let timed = || -> Result<(T, f64), String> {
        let started = Instant::now();
        let built = build()?;
        Ok((built, started.elapsed().as_secs_f64()))
    };
    let (first, took) = timed()?;
    let report = run(&first);
    teardown(first);
    let mut report = report?;
    let mut times = vec![took];
    for _ in 1..plan.setups.max(1) {
        let (extra, took) = timed()?;
        times.push(took);
        teardown(extra);
    }
    report.figures.insert(
        0,
        Figure {
            name: "setup_s",
            value: stats::median(&times),
            unit: "s",
            samples: times.len() as u64,
        },
    );
    let each: Vec<String> = times.iter().map(|s| format!("{s:.3}")).collect();
    report
        .notes
        .push(format!("set-ups took {} s", each.join(", ")));
    Ok(report)
}

/// Process CPU with no load applied, in cores, over `span`.
pub fn idle_cores(span: Duration) -> f64 {
    let (t0, c0) = (Instant::now(), crate::procfs::cpu_seconds());
    std::thread::sleep(span);
    (crate::procfs::cpu_seconds() - c0) / t0.elapsed().as_secs_f64()
}

/// How much a counter of a client-side registry grew between snapshots.
pub fn growth<'a>(
    before: &'a RegistrySnapshot,
    after: &'a RegistrySnapshot,
) -> impl Fn(&str) -> f64 + 'a {
    move |k| {
        let at = |s: &RegistrySnapshot| s.counters.get(k).copied().unwrap_or(0);
        at(after).saturating_sub(at(before)) as f64
    }
}

/// Named metric values, in insertion-independent order.
pub type Metrics = BTreeMap<&'static str, f64>;

/// What a workload leaves for the report: the window, the counters
/// around it, and the inputs its layer replays use.
pub struct Window<'a> {
    pub samples: Vec<Sample>,
    pub late_us: Vec<f64>,
    pub log: SpanLog,
    pub failures: Vec<String>,
    /// Checks made after the window (audits), and how many failed.
    pub audited: u64,
    pub audit_failed: u64,
    pub delta: Delta<'a>,
    /// Process CPU through the window, from [`measure`].
    pub cpu: CpuTrace,
    /// Resident memory at the end of the window.
    pub rss_mb: f64,
    /// `cmd.<verb>` histograms of the serving daemons that time the
    /// workload's own verbs.
    pub verbs: Vec<&'static str>,
    /// Client-side figures only the workload can read.
    pub client: Metrics,
    /// Request and reply lines as they travel, for the parse and seal
    /// replays.
    pub lines: Vec<String>,
    /// Directory names and store keys the workload routes.
    pub names: Vec<String>,
    pub keys: Vec<String>,
    /// An uncached authorizer and the decisions to replay through it.
    pub keynote: (Arc<Authorizer>, Vec<(String, ActionEnv)>),
}

impl Window<'_> {
    pub fn attempted(&self) -> u64 {
        self.samples.len() as u64 + self.audited
    }

    pub fn failed(&self) -> u64 {
        self.samples.iter().filter(|s| !s.ok).count() as u64 + self.audit_failed
    }

    fn ok_latencies(&self, kind: Option<Kind>, traced: Option<bool>) -> Vec<f64> {
        let mut v: Vec<f64> = self
            .samples
            .iter()
            .filter(|s| s.ok && kind.is_none_or(|k| s.kind == k))
            .filter(|s| traced.is_none_or(|t| s.traced == t))
            .map(|s| s.latency_us)
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    fn ok_ops(&self) -> f64 {
        self.samples.iter().filter(|s| s.ok).count() as f64
    }
}

/// A metric with its unit and the number of samples behind it, as the
/// report prints it.
pub struct Figure {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: u64,
}

/// Length of the sub-windows whose medians the gated throughput, latency
/// and CPU figures report.  The host's speed wanders by tens of percent
/// over seconds; a median over sub-windows keeps a passing slowdown from
/// moving a whole run.
pub const BIN_S: f64 = 2.0;

/// One sub-window: successful operations per second, CPU per successful
/// operation, and median latency by kind.
struct Bin {
    rate: f64,
    cpu_us_per_op: f64,
    put_p50: Option<f64>,
    get_p50: Option<f64>,
}

/// Split `[0, window_s)` into sub-windows of about [`BIN_S`] and describe
/// each by the operations that completed in it.
fn bins(w: &Window, window_s: f64) -> Vec<Bin> {
    let n = ((window_s / BIN_S).floor() as usize).max(1);
    let width = window_s / n as f64;
    (0..n)
        .map(|b| {
            let (lo, hi) = (b as f64 * width, (b + 1) as f64 * width);
            let ok: Vec<&Sample> = w
                .samples
                .iter()
                .filter(|s| s.ok && s.done_s >= lo && s.done_s < hi)
                .collect();
            let p50 = |kind: Kind| {
                let v: Vec<f64> = ok
                    .iter()
                    .filter(|s| s.kind == kind)
                    .map(|s| s.latency_us)
                    .collect();
                (!v.is_empty()).then(|| stats::median(&v))
            };
            Bin {
                rate: ok.len() as f64 / width,
                cpu_us_per_op: ratio(
                    (cpu_at(&w.cpu, hi) - cpu_at(&w.cpu, lo)) * 1e6,
                    ok.len() as f64,
                ),
                put_p50: p50(Kind::Put),
                get_p50: p50(Kind::Get),
            }
        })
        .collect()
}

/// End-to-end figures of the window.  The gated ones come first, then
/// the ones only printed.
pub fn end_to_end(w: &Window, window_s: f64) -> Vec<Figure> {
    let ok = w.ok_ops();
    let n = |v: &Vec<f64>| v.len() as u64;
    let all = w.ok_latencies(None, None);
    let put = w.ok_latencies(Some(Kind::Put), None);
    let get = w.ok_latencies(Some(Kind::Get), None);
    let bins = bins(w, window_s);
    let over_bins = |f: &dyn Fn(&Bin) -> Option<f64>| {
        stats::median(&bins.iter().filter_map(f).collect::<Vec<f64>>())
    };
    let fig = |name, value, unit, samples| Figure {
        name,
        value,
        unit,
        samples,
    };
    let mut figs = vec![
        fig("ops_s", over_bins(&|b| Some(b.rate)), "1/s", ok as u64),
        fig("put_p50_us", over_bins(&|b| b.put_p50), "us", n(&put)),
        fig("get_p50_us", over_bins(&|b| b.get_p50), "us", n(&get)),
        fig(
            "cpu_us_per_op",
            over_bins(&|b| Some(b.cpu_us_per_op)),
            "us",
            ok as u64,
        ),
        fig("rss_mb", w.rss_mb, "MB", 1),
        fig("p50_us", stats::quantile(&all, 0.5), "us", n(&all)),
        fig(
            "failed_frac",
            ratio(w.failed() as f64, w.attempted() as f64),
            "ratio",
            w.attempted(),
        ),
    ];
    for (name, v) in [("p99_us", &all), ("put_p99_us", &put), ("get_p99_us", &get)] {
        if let Some(p) = stats::p99(v) {
            figs.push(fig(name, p, "us", n(v)));
        }
    }
    figs
}

/// Names of the end-to-end figures `BENCHMARK.json` gates on.
pub const GATED: [&str; 6] = [
    "setup_s",
    "ops_s",
    "put_p50_us",
    "get_p50_us",
    "cpu_us_per_op",
    "rss_mb",
];

/// Per-layer figures: counters around the window, replays of the
/// workload's own inputs after it, and span self times.
pub fn per_layer(
    b: &Building,
    w: &Window,
    idle_cores: f64,
    probes: &mut dyn FnMut(&'static str) -> Result<f64, String>,
) -> Result<Metrics, String> {
    let d = &w.delta;
    let ops = w.ok_ops().max(1.0);
    let secs = d.seconds();
    let mut m = Metrics::new();
    let net = d.after.net.since(&d.before.net);
    m.insert("net.frames_per_op", net.frames as f64 / ops);
    m.insert("net.bytes_per_op", net.frame_bytes as f64 / ops);
    m.insert("net.connections_per_op", net.connections as f64 / ops);

    let full = d.counter("link.full_handshakes") as f64;
    let resumed = d.counter("link.resume_hits") as f64;
    m.insert("core.link.full_handshakes_per_op", full / ops);
    m.insert("core.link.resume_ratio", ratio(resumed, resumed + full));
    let (hits, misses) = (
        d.counter("auth.cache_hits") as f64,
        d.counter("auth.cache_misses") as f64,
    );
    m.insert("core.auth.cache_hit_ratio", ratio(hits, hits + misses));
    let wait = d.hist(&["control.queueWait"]);
    m.insert("core.admission.queue_wait_p50_us", wait.quantile(0.5));
    m.insert("core.admission.queue_wait_p99_us", wait.quantile(0.99));
    m.insert("core.admission.shed", d.counter_prefix("shed.") as f64);
    let verb_hists: Vec<String> = w.verbs.iter().map(|v| format!("cmd.{v}")).collect();
    let verb_refs: Vec<&str> = verb_hists.iter().map(String::as_str).collect();
    m.insert("core.daemon.service_us", d.hist(&verb_refs).quantile(0.5));
    m.insert(
        "core.runtime.polls_per_op",
        d.after.polls.saturating_sub(d.before.polls) as f64 / ops,
    );
    m.insert(
        "core.runtime.parks_per_op",
        d.after.parks.saturating_sub(d.before.parks) as f64 / ops,
    );
    m.insert(
        "core.runtime.long_polls",
        d.after.long_polls.saturating_sub(d.before.long_polls) as f64,
    );
    m.insert(
        "directory.renewals_per_s",
        d.counter("lease.renewals") as f64 / secs,
    );
    m.insert(
        "identity.authdb_fetches_per_op",
        d.hist_count("cmd.fetchCredentials") as f64 / ops,
    );
    m.insert(
        "store.wal.records_per_fsync",
        ratio(
            d.replicas(|r| r.wal_appends) as f64,
            d.replicas(|r| r.wal_fsyncs) as f64,
        ),
    );
    m.insert(
        "store.wal.compactions",
        d.replicas(|r| r.wal_compactions) as f64,
    );
    m.insert(
        "store.sync.rounds_per_s",
        d.replicas(|r| r.syncs) as f64 / secs,
    );
    m.insert("store.sync.pulled", d.replicas(|r| r.pulled) as f64);
    m.insert("proc.idle_cpu_cores", idle_cores);
    // Client-side figures the workload read; zero where its clients do
    // not use that layer.  A workload that renews directory leases of its
    // own adds them to the daemons' renewals.
    for name in CLIENT_METRICS {
        m.insert(name, 0.0);
    }
    for (k, v) in &w.client {
        *m.entry(k).or_insert(0.0) += v;
    }

    // Replays of the workload's own inputs.
    m.insert("lang.parse_ns", replay_parse_ns(&w.lines));
    let (seal, open) = replay_seal_open_ns(&w.lines);
    m.insert("security.seal_ns", seal);
    m.insert("security.open_ns", open);
    m.insert("security.keynote_check_us", replay_keynote_us(&w.keynote));
    let map = &b.dir.map;
    m.insert(
        "directory.shard_for_ns",
        per_item_ns(&w.names, |n| map.shard_for(n)),
    );
    let placement = &b.store.placement;
    m.insert(
        "store.placement.group_for_ns",
        per_item_ns(&w.keys, |k| placement.group_for(crate::app_state::NS, k)),
    );
    m.insert("store.sync.digest_ms", stats::median(&b.digest_ms()?));

    // Span self times, or a short probe where the window made no such call.
    let own = trace::self_times(w.log.spans());
    for (metric, span) in SPAN_METRICS {
        let value = match trace::median_self_us(w.log.spans(), &own, span) {
            Some(v) => v,
            None => probes(span)?,
        };
        m.insert(metric, value);
    }

    let late: Vec<f64> = {
        let mut v = w.late_us.clone();
        v.sort_by(f64::total_cmp);
        v
    };
    // A p99 with fewer than ten samples beyond it reads as 0.
    let p99 = |v: &[f64]| stats::p99(v).unwrap_or(0.0);
    m.insert("gen.late_p99_us", p99(&late));
    let all = w.ok_latencies(None, None);
    m.insert("tail.p99_us", p99(&all));
    m.insert(
        "tail.put_p99_us",
        p99(&w.ok_latencies(Some(Kind::Put), None)),
    );
    m.insert(
        "tail.get_p99_us",
        p99(&w.ok_latencies(Some(Kind::Get), None)),
    );
    m.insert("tail.samples", all.len() as f64);
    let traced = stats::quantile(&w.ok_latencies(None, Some(true)), 0.5);
    let plain = stats::quantile(&w.ok_latencies(None, Some(false)), 0.5);
    m.insert("trace.overhead_frac", ratio(traced - plain, plain));
    m.insert(
        "trace.unattributed_frac",
        trace::unattributed_fraction(w.log.spans(), &own),
    );
    Ok(m)
}

/// Figures read from the workload's own clients.
pub const CLIENT_METRICS: [&str; 4] = [
    "core.pool.reuse_ratio",
    "core.failover.resolve_hit_ratio",
    "directory.fanouts_per_op",
    "store.leased_read_ratio",
];

/// Span-timed layer metrics and the span each is read from.
pub const SPAN_METRICS: [(&str, &str); 5] = [
    ("core.failover.call_us", "core.failover.call"),
    ("security.handshake_us", "security.handshake"),
    ("directory.lookup_us", "directory.lookup"),
    ("store.put_us", "store.put"),
    ("store.get_us", "store.get"),
];

/// Repeat `f` over `items` until about 20 ms have passed; ns per item.
fn per_item_ns<T>(items: &[T], mut f: impl FnMut(&T) -> usize) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    let started = Instant::now();
    let mut calls = 0u64;
    let mut sink = 0usize;
    while started.elapsed() < Duration::from_millis(20) {
        for item in items {
            sink = sink.wrapping_add(f(std::hint::black_box(item)));
        }
        calls += items.len() as u64;
    }
    std::hint::black_box(sink);
    started.elapsed().as_nanos() as f64 / calls as f64
}

/// `ace_lang::parse` over the workload's lines, ns per line.
fn replay_parse_ns(lines: &[String]) -> f64 {
    per_item_ns(lines, |l| ace_lang::parse(l).map_or(0, |c| c.arg_count()))
}

/// Seal and open each line as a link frame, ns per frame each.
fn replay_seal_open_ns(lines: &[String]) -> (f64, f64) {
    if lines.is_empty() {
        return (0.0, 0.0);
    }
    let key = SessionKey::from_seed(0x5EA1);
    let (mut seal_ns, mut open_ns, mut frames) = (0u128, 0u128, 0u64);
    let started = Instant::now();
    while started.elapsed() < Duration::from_millis(40) {
        let mut tx = SecureChannel::new(key);
        let mut rx = SecureChannel::new(key);
        let t0 = Instant::now();
        let sealed: Vec<Vec<u8>> = lines.iter().map(|l| tx.seal(l.as_bytes())).collect();
        let t1 = Instant::now();
        for frame in &sealed {
            std::hint::black_box(rx.open(frame).expect("frame sealed just now"));
        }
        open_ns += t1.elapsed().as_nanos();
        seal_ns += t1.duration_since(t0).as_nanos();
        frames += lines.len() as u64;
    }
    (
        seal_ns as f64 / frames as f64,
        open_ns as f64 / frames as f64,
    )
}

/// Uncached compliance checks of the workload's own decisions, median µs.
fn replay_keynote_us(keynote: &(Arc<Authorizer>, Vec<(String, ActionEnv)>)) -> f64 {
    let (auth, decisions) = keynote;
    let us: Vec<f64> = decisions
        .iter()
        .map(|(principal, env)| {
            let started = Instant::now();
            std::hint::black_box(auth.check(principal, env));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    stats::median(&us)
}

/// Short closed-loop probes of the span-timed calls, for workloads whose
/// window does not make them: median µs of 64 calls against `b`.
pub fn probe(b: &Building, span: &str) -> Result<f64, String> {
    const N: usize = 64;
    let net = b.net();
    let admin = b.env.admin;
    let pool = Arc::new(LinkPool::new(net, "core", admin));
    let key = |i: usize| format!("probe{i}");
    let mut call: Box<dyn FnMut(usize) -> Result<(), String> + '_> = match span {
        "core.failover.call" => {
            let cache = Arc::new(ResolutionCache::new());
            let asd = b.env.fw.asd_addr.clone();
            let pool = Arc::clone(&pool);
            Box::new(move |_| {
                FailoverClient::bind(net.clone(), "core", admin, asd.clone(), "camera_hawk")
                    .with_pool(Arc::clone(&pool))
                    .with_resolution_cache(Arc::clone(&cache))
                    .call(&CmdLine::new("ptzStatus"))
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        }
        "security.handshake" => {
            let camera = b.env.addr_of("camera_hawk").ok_or("no camera_hawk")?;
            Box::new(move |_| {
                ServiceClient::connect(net, &"core".into(), camera.clone(), &admin)
                    .map(|c| c.close())
                    .map_err(|e| e.to_string())
            })
        }
        "directory.lookup" => {
            let mut dir = b.dir.client(Arc::clone(&pool));
            Box::new(move |_| {
                dir.lookup(None, Some("Service.Device"), Some("hawk"))
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        }
        "store.put" => {
            let mut store = b.store.client(net, "core", admin, Arc::clone(&pool));
            Box::new(move |i| {
                store
                    .put("probe", &key(i), key(i).as_bytes())
                    .map(drop)
                    .map_err(|e| e.to_string())
            })
        }
        "store.get" => {
            let mut store = b.store.client(net, "core", admin, Arc::clone(&pool));
            for i in 0..N {
                store
                    .put("probe", &key(i), key(i).as_bytes())
                    .map_err(|e| format!("store.get probe set-up: {e}"))?;
            }
            Box::new(move |i| match store.get("probe", &key(i)) {
                Ok(got) if got == key(i).as_bytes() => Ok(()),
                Ok(_) => Err(format!("read of {} returned another value", key(i))),
                Err(e) => Err(e.to_string()),
            })
        }
        other => return Err(format!("no probe for span {other}")),
    };
    let mut us = Vec::with_capacity(N);
    for i in 0..N {
        let started = Instant::now();
        call(i).map_err(|e| format!("{span} probe: {e}"))?;
        us.push(started.elapsed().as_secs_f64() * 1e6);
    }
    drop(call);
    pool.drain();
    Ok(stats::median(&us))
}

/// Everything one run prints.
pub struct Report {
    pub figures: Vec<Figure>,
    /// Per-layer figures, in traced runs.
    pub layers: Option<Metrics>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    pub notes: Vec<String>,
}

/// Turn a finished window into the run's report; a traced run also
/// writes its spans to `traces/<workload>.tsv` under the package.
pub fn finish(
    workload: &str,
    b: &Building,
    plan: &Plan,
    w: &Window,
    idle_cores: f64,
    notes: Vec<String>,
) -> Result<Report, String> {
    let layers = if plan.trace {
        let m = per_layer(b, w, idle_cores, &mut |span| probe(b, span))?;
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("traces")
            .join(format!("{workload}.tsv"));
        w.log
            .write_tsv(&path)
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        Some(m)
    } else {
        None
    };
    Ok(Report {
        figures: end_to_end(w, plan.seconds),
        layers,
        attempted: w.attempted(),
        failed: w.failed(),
        failures: w.failures.clone(),
        notes,
    })
}

/// Gather the lanes' results after the measured drive.
pub fn collect<C>(
    lanes: &mut [Lane<C>],
    epoch: Instant,
) -> (Vec<Sample>, Vec<f64>, SpanLog, Vec<String>) {
    let mut samples = Vec::new();
    let mut late = Vec::new();
    let mut log = SpanLog::new(epoch);
    let mut failures = Vec::new();
    for lane in lanes.iter_mut() {
        samples.append(&mut lane.samples);
        late.append(&mut lane.late_us);
        log.append(std::mem::replace(&mut lane.log, SpanLog::new(epoch)));
        failures.append(&mut lane.failures);
    }
    (samples, late, log, failures)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn op_sleeping(pause: Duration) -> impl Fn(&mut (), &mut OpCtx) -> OpResult + Sync {
        move |_: &mut (), _: &mut OpCtx| {
            std::thread::sleep(pause);
            Ok(Kind::Get)
        }
    }

    #[test]
    fn open_loop_latency_counts_from_the_intended_send_time() {
        // 1,000 arrivals/s served in 3 ms each: the backlog grows, and
        // every request's wait in it is charged to its latency.
        let epoch = Instant::now();
        let mut lanes = vec![Lane::new((), 5, 0, epoch)];
        let op = op_sleeping(Duration::from_millis(3));
        let pace = Pace::Open {
            per_lane_hz: 1000.0,
        };
        drive(
            &mut lanes,
            pace,
            Duration::from_millis(200),
            5,
            0,
            true,
            &op,
        );
        let lane = &lanes[0];
        let n = lane.samples.len();
        assert!(
            (140..=260).contains(&n),
            "{n} Poisson arrivals in 200 ms at 1 kHz"
        );
        for (s, late) in lane.samples.iter().zip(&lane.late_us) {
            assert!(
                s.latency_us >= late + 3000.0,
                "{} < {late} + 3 ms",
                s.latency_us
            );
        }
        let last_late = *lane.late_us.last().expect("ran");
        assert!(
            last_late > 200_000.0,
            "backlog of ~{n} × 3 ms − 200 ms, got {last_late} µs"
        );
        // Every second operation was traced: an op span and its lateness.
        let roots = lane.log.spans().iter().filter(|s| s.name == "op").count();
        assert_eq!(roots, n.div_ceil(2));
    }

    #[test]
    fn closed_loop_sends_on_the_previous_reply() {
        let epoch = Instant::now();
        let mut lanes: Vec<Lane<()>> = (0..2).map(|i| Lane::new((), 5, i, epoch)).collect();
        let op = op_sleeping(Duration::from_millis(2));
        drive(
            &mut lanes,
            Pace::Closed,
            Duration::from_millis(100),
            5,
            0,
            false,
            &op,
        );
        for lane in &lanes {
            let n = lane.samples.len();
            assert!(
                (30..=51).contains(&n),
                "{n} back-to-back 2 ms ops in 100 ms"
            );
            assert!(
                lane.late_us.iter().all(|&l| l < 2000.0),
                "turnaround stays short"
            );
            assert!(lane.log.spans().is_empty(), "untraced");
        }
    }

    #[test]
    fn lanes_draw_distinct_seeded_inputs() {
        let mut a = rng_for(9, 0, 1);
        let mut b = rng_for(9, 1, 1);
        let mut a2 = rng_for(9, 0, 1);
        let x: u64 = a.gen();
        assert_eq!(x, a2.gen::<u64>(), "same seed, same inputs");
        assert_ne!(x, b.gen::<u64>(), "lanes differ");
        assert!(tampers(3, 2) && !tampers(3, 3) && !tampers(0, 5));
    }
}
