//! `device_control`: occupants drive room devices, as an open loop.
//!
//! A Poisson schedule sends 2,000 commands/s from two generator threads
//! to 32 PTZ cameras and projectors in 4 rooms, every one enforcing
//! local KeyNote policy.  Commands go through `FailoverClient` with a
//! shared link pool and resolution cache, and their arguments come from a
//! small set, so the resolution cache, the pool and each device's
//! decision cache stay hot.  This is the interactive path: its cost is
//! the command language, sealing, the session, admission and waking
//! parked runtime workers; directory, KeyNote evaluation, handshakes and
//! the store are bypassed.

use crate::building::{Building, Delta};
use crate::harness::{
    self, Kind, Lane, Metrics, OpCtx, OpResult, Pace, Plan, Report, Window, LANES,
};
use ace_core::prelude::*;
use ace_core::{action_env_for, Authorizer};
use ace_env::{CameraModel, Projector, PtzCamera};
use ace_security::keynote::{Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use rand::rngs::SmallRng;
use rand::Rng;
use std::sync::Arc;
use std::time::{Duration, Instant};

const ROOMS: usize = 4;
const DEVICES: usize = 32;
const RATE_HZ: f64 = 2000.0;
const PAN: [f64; 5] = [-40.0, -20.0, 0.0, 20.0, 40.0];
const TILT: [f64; 3] = [-10.0, 0.0, 10.0];
const ZOOM: [f64; 3] = [1.0, 2.0, 4.0];
const SOURCES: [&str; 4] = ["workspace", "camera", "laptop", "document"];
/// Replies and decisions kept for the layer replays.
const KEEP: usize = 256;

struct Device {
    name: String,
    class: &'static str,
    room: String,
    camera: bool,
}

/// What a panel last set on a device, so status replies can be checked.
#[derive(Debug, Clone, PartialEq)]
enum Expect {
    Ptz(f64, f64, f64),
    Source(String),
}

/// One occupant panel: a generator lane owning every second device, so
/// it knows what each of its devices must report.
struct Panel {
    net: SimNet,
    identity: KeyPair,
    asd: Addr,
    pool: Arc<LinkPool>,
    cache: Arc<ResolutionCache>,
    devices: Vec<(Arc<Device>, Expect)>,
    tamper_every: u64,
    lines: Vec<String>,
    decisions: Vec<(usize, CmdLine)>,
}

struct Setup {
    b: Building,
    devices: Vec<Arc<Device>>,
    panel: KeyPair,
    engine: KeyNoteEngine,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut b = Building::build()?;
    let panel = KeyPair::generate(&mut harness::rng_for(seed, 0, 10));
    let mut engine = KeyNoteEngine::new();
    engine
        .add_policy(
            Assertion::new(
                POLICY,
                Licensees::Principal(panel.principal()),
                "app_domain == \"ace\"",
            )
            .map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;
    let mut devices = Vec::new();
    for i in 0..DEVICES {
        let room = format!("room{}", i % ROOMS);
        let camera = i % 2 == 0;
        let host = b.net().add_host(format!("{room}_devices"));
        let (name, class, behavior): (String, &'static str, Box<dyn ServiceBehavior>) = if camera {
            (
                format!("dc_camera{i}"),
                CameraModel::Vcc4.class_path(),
                Box::new(PtzCamera::new(CameraModel::Vcc4)),
            )
        } else {
            (
                format!("dc_projector{i}"),
                Projector::CLASS,
                Box::new(Projector::new()),
            )
        };
        let auth = AuthMode::Local(Arc::new(Authorizer::local(engine.clone())));
        let config = b
            .env
            .fw
            .service_config(&name, class, &room, host, 7000 + i as u16)
            .with_auth(auth);
        let handle =
            Daemon::spawn(b.net(), config, behavior).map_err(|e| format!("{name}: {e}"))?;
        let mut client =
            ServiceClient::connect(b.net(), &"core".into(), handle.addr().clone(), &panel)
                .map_err(|e| format!("{name}: {e}"))?;
        client
            .call_ok(&CmdLine::new(if camera { "ptzOn" } else { "projOn" }))
            .map_err(|e| format!("{name} power on: {e}"))?;
        client.close();
        b.devices.push(handle);
        devices.push(Arc::new(Device {
            name,
            class,
            room,
            camera,
        }));
    }
    Ok(Setup {
        b,
        devices,
        panel,
        engine,
    })
}

fn initial(d: &Device) -> Expect {
    if d.camera {
        Expect::Ptz(0.0, 0.0, 1.0)
    } else {
        Expect::Source("none".into())
    }
}

/// Corrupt a reply the way a faulty device or link would: every field
/// reads differently.
fn tamper(reply: &CmdLine) -> CmdLine {
    let mut out = CmdLine::new(reply.name());
    for (k, v) in reply.args() {
        let v = match v {
            Value::Float(f) => Value::Float(f + 1.0),
            Value::Int(i) => Value::Int(i + 1),
            Value::Word(_) | Value::Str(_) => Value::Word("corrupted".into()),
            other => other.clone(),
        };
        out.push_arg(k, v);
    }
    out
}

/// A device command from the small argument set: a set (`ptzMove`,
/// `projInput`) or a status read, half each.
pub fn command(camera: bool, rng: &mut SmallRng) -> (CmdLine, Kind) {
    match (camera, rng.gen::<bool>()) {
        (true, true) => (
            CmdLine::new("ptzMove")
                .arg("x", PAN[rng.gen_range(0..PAN.len())])
                .arg("y", TILT[rng.gen_range(0..TILT.len())])
                .arg("zoom", ZOOM[rng.gen_range(0..ZOOM.len())]),
            Kind::Put,
        ),
        (false, true) => (
            CmdLine::new("projInput").arg("source", SOURCES[rng.gen_range(0..SOURCES.len())]),
            Kind::Put,
        ),
        (true, false) => (CmdLine::new("ptzStatus"), Kind::Get),
        (false, false) => (CmdLine::new("projStatus"), Kind::Get),
    }
}

fn ptz(line: &CmdLine) -> Option<Expect> {
    Some(Expect::Ptz(
        line.get_f64("x")?,
        line.get_f64("y")?,
        line.get_f64("zoom")?,
    ))
}

/// The state a set command asks for.
fn requested(cmd: &CmdLine) -> Option<Expect> {
    match cmd.name() {
        "ptzMove" => ptz(cmd),
        "projInput" => cmd.get_text("source").map(|s| Expect::Source(s.into())),
        _ => None,
    }
}

/// The state a reply reports (`projInput` answers a bare `ok`: the
/// source it set).
fn reported(cmd: &CmdLine, reply: &CmdLine) -> Option<Expect> {
    match cmd.name() {
        "projInput" => requested(cmd),
        "projStatus" => reply.get_text("input").map(|s| Expect::Source(s.into())),
        _ => ptz(reply),
    }
}

/// Check a reply against its command alone: a set reports what it asked
/// for, a status read reports some state.
pub fn check_reply(cmd: &CmdLine, reply: &CmdLine) -> Result<(), String> {
    match (requested(cmd), reported(cmd, reply)) {
        (Some(want), Some(seen)) if want == seen => Ok(()),
        (None, Some(_)) => Ok(()),
        (want, _) => Err(format!("expected {want:?}, reply `{}`", reply.to_wire())),
    }
}

fn op(panel: &mut Panel, ctx: &mut OpCtx) -> OpResult {
    let slot = ctx.rng.gen_range(0..panel.devices.len());
    let device = Arc::clone(&panel.devices[slot].0);
    let (cmd, kind) = command(device.camera, ctx.rng);
    let mut client = FailoverClient::bind(
        panel.net.clone(),
        "core",
        panel.identity,
        panel.asd.clone(),
        device.name.as_str(),
    )
    .with_pool(Arc::clone(&panel.pool))
    .with_resolution_cache(Arc::clone(&panel.cache));
    let reply = ctx
        .span("core.failover.call", || client.call(&cmd))
        .map_err(|e| (kind, format!("{} {}: {e}", device.name, cmd.name())))?;
    drop(client);
    let reply = if harness::tampers(panel.tamper_every, ctx.op) {
        tamper(&reply)
    } else {
        reply
    };
    if panel.lines.len() < KEEP {
        panel.lines.push(cmd.to_wire());
        panel.lines.push(reply.to_wire());
        panel.decisions.push((slot, cmd.clone()));
    }
    // A set must report what it set; a read, what this panel last set.
    let next = requested(&cmd);
    let want = next.as_ref().unwrap_or(&panel.devices[slot].1);
    if reported(&cmd, &reply).as_ref() != Some(want) {
        return Err((
            kind,
            format!(
                "{} {}: expected {want:?}, reply `{}`",
                device.name,
                cmd.name(),
                reply.to_wire()
            ),
        ));
    }
    if let Some(next) = next {
        panel.devices[slot].1 = next;
    }
    Ok(kind)
}

pub fn run(plan: &Plan) -> Result<Report, String> {
    harness::with_setups(
        plan,
        || setup(plan.seed),
        |s| s.b.shutdown(),
        |s| exercise(plan, s),
    )
}

fn exercise(plan: &Plan, s: &Setup) -> Result<Report, String> {
    let idle = harness::idle_cores(Duration::from_secs(1));
    let metrics = MetricsRegistry::new();
    let pool = Arc::new(LinkPool::with_metrics(s.b.net(), "core", s.panel, &metrics));
    let cache = Arc::new(ResolutionCache::with_metrics(&metrics));
    let epoch = Instant::now();
    let mut lanes: Vec<Lane<Panel>> = (0..LANES)
        .map(|lane| {
            let panel = Panel {
                net: s.b.net().clone(),
                identity: s.panel,
                asd: s.b.env.fw.asd_addr.clone(),
                pool: Arc::clone(&pool),
                cache: Arc::clone(&cache),
                devices: s
                    .devices
                    .iter()
                    .skip(lane)
                    .step_by(LANES)
                    .map(|d| (Arc::clone(d), initial(d)))
                    .collect(),
                tamper_every: 0,
                lines: Vec::new(),
                decisions: Vec::new(),
            };
            Lane::new(panel, plan.seed, lane, epoch)
        })
        .collect();
    let pace = Pace::Open {
        per_lane_hz: RATE_HZ / LANES as f64,
    };
    let op: &(dyn Fn(&mut Panel, &mut OpCtx) -> OpResult + Sync) = &op;

    // Warm-up ends once every device is resolved and a whole second
    // passed without a new pool dial and with at most 1% decision-cache
    // misses.  (The client stamps each command with its remaining
    // deadline, so rare new decision keys keep arriving.)
    let device_refs: Vec<&DaemonHandle> = s.b.devices.iter().collect();
    let auth = || -> (u64, u64) {
        device_refs.iter().fold((0, 0), |(h, m), d| {
            let r = d.metrics();
            (
                h + r.counter("auth.cache_hits").get(),
                m + r.counter("auth.cache_misses").get(),
            )
        })
    };
    let dials = || metrics.counter("pool.dials").get();
    let mut last = (auth(), dials());
    let (warmup_s, settled) = harness::warm_up(&mut lanes, pace, plan, op, |_| {
        let now = (auth(), dials());
        let (hits, misses) = (now.0 .0 - last.0 .0, now.0 .1 - last.0 .1);
        let steady = cache.len() == DEVICES && now.1 == last.1 && misses * 100 <= hits + misses;
        last = now;
        Ok(steady)
    })?;

    for lane in lanes.iter_mut() {
        lane.reset(epoch);
        // Corruption, when asked for, applies to the measured window only.
        lane.client.tamper_every = plan.tamper_every;
    }
    let client_before = metrics.snapshot();
    let before = s.b.read(&device_refs)?;
    let cpu = harness::measure(&mut lanes, pace, plan, op);
    let after = s.b.read(&device_refs)?;
    let rss_mb = crate::procfs::rss_mb();
    let client_after = metrics.snapshot();
    let (samples, late_us, log, failures) = harness::collect(&mut lanes, epoch);

    let c = harness::growth(&client_before, &client_after);
    let mut client = Metrics::new();
    client.insert(
        "core.pool.reuse_ratio",
        crate::stats::ratio(c("pool.reused"), c("pool.checkouts")),
    );
    client.insert(
        "core.failover.resolve_hit_ratio",
        crate::stats::ratio(
            c("resolve.cache_hits"),
            c("resolve.cache_hits") + c("resolve.cache_misses"),
        ),
    );
    let mut lines = Vec::new();
    let mut decisions = Vec::new();
    for lane in &lanes {
        lines.extend(lane.client.lines.iter().cloned());
        for (slot, cmd) in &lane.client.decisions {
            let d = &lane.client.devices[*slot].0;
            decisions.push((
                s.panel.principal(),
                action_env_for(&d.name, d.class, &d.room, cmd),
            ));
        }
    }
    let names: Vec<String> = s.devices.iter().map(|d| d.name.clone()).collect();
    let window = Window {
        samples,
        late_us,
        log,
        failures,
        audited: 0,
        audit_failed: 0,
        cpu,
        rss_mb,
        delta: Delta {
            before: &before,
            after: &after,
        },
        verbs: vec!["ptzMove", "ptzStatus", "projInput", "projStatus"],
        client,
        lines,
        keys: names.clone(),
        names,
        keynote: (
            Arc::new(Authorizer::local(s.engine.clone()).without_cache()),
            decisions,
        ),
    };
    let mut notes = vec![format!(
        "open loop, Poisson {RATE_HZ} cmds/s from {LANES} generator threads; \
         {DEVICES} devices in {ROOMS} rooms; warm-up {warmup_s:.1} s"
    )];
    if !settled {
        notes.push("warm-up cap reached before the caches settled".into());
    }
    let report = harness::finish("device_control", &s.b, plan, &window, idle, notes);
    pool.drain();
    report
}
