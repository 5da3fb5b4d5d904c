//! `arrival_burst`: users arrive at two door kiosks, as a closed loop.
//!
//! 1,024 enrolled users and about 5% strangers arrive one after another
//! at each of two kiosks.  64 devices sit in 16 rooms of the sharded
//! directory beside 10,000 background registrations, and authorize
//! through the Fig. 10 path: a local policy root plus admin-signed
//! credentials fetched from the environment's AuthDB per decision.
//! Users × devices far exceeds a device's 4,096-entry decision cache.
//! Each arrival looks the device up (a fan-out over every directory
//! shard), dials it with the user's own ticket cache, issues one command
//! and closes the link.  This is the cold path `device_control` bypasses:
//! directory fan-out, full handshake or resumption, KeyNote plus AuthDB.

use crate::building::{Building, Delta};
use crate::device_control::{check_reply, command};
use crate::harness::{self, Lane, Metrics, OpCtx, OpResult, Pace, Plan, Report, Window, LANES};
use ace_core::prelude::*;
use ace_core::{action_env_for, Authorizer};
use ace_directory::ShardedAsdClient;
use ace_env::{CameraModel, Projector, PtzCamera};
use ace_identity::{AuthDbClient, RemoteCredentials};
use ace_security::keynote::{Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use rand::Rng;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const ROOMS: usize = 16;
const USERS: usize = 1024;
/// About 5% of the enrolled population.
const STRANGERS: usize = 52;
const BACKGROUND: usize = 10_000;
/// One pass renews every directory registration, well inside the
/// environment's 10 s lease.
const RENEW_PASS: Duration = Duration::from_secs(6);
const RENEW_BATCH: usize = 16;
const KEEP: usize = 256;
/// Grants of an enrolled user, as the administrator signs them.
const GRANT: &str = "app_domain == \"ace\" && (cmd == \"ptzMove\" || cmd == \"ptzStatus\" \
                     || cmd == \"projInput\" || cmd == \"projStatus\")";

struct Device {
    name: String,
    class: &'static str,
    room: String,
    camera: bool,
}

struct Person {
    key: KeyPair,
    tickets: TicketCache,
    enrolled: bool,
}

/// Keeps every directory registration alive: the lease loop of the
/// building's services, paced evenly over [`RENEW_PASS`].
struct Renewer {
    stop: Arc<AtomicBool>,
    renewed: Arc<AtomicU64>,
    errors: Arc<AtomicU64>,
    handle: JoinHandle<()>,
}

impl Renewer {
    fn start(clients: Vec<(ShardedAsdClient, Vec<String>)>) -> Renewer {
        let stop = Arc::new(AtomicBool::new(false));
        let renewed = Arc::new(AtomicU64::new(0));
        let errors = Arc::new(AtomicU64::new(0));
        let (s, r, e) = (Arc::clone(&stop), Arc::clone(&renewed), Arc::clone(&errors));
        let handle = std::thread::Builder::new()
            .name("lease-renewer".into())
            .spawn(move || {
                let mut clients = clients;
                let work: Vec<(usize, String)> = clients
                    .iter()
                    .enumerate()
                    .flat_map(|(c, (_, names))| names.iter().map(move |n| (c, n.clone())))
                    .collect();
                while !s.load(Ordering::Relaxed) {
                    let pass = Instant::now();
                    for (j, batch) in work.chunks(RENEW_BATCH).enumerate() {
                        if s.load(Ordering::Relaxed) {
                            return;
                        }
                        let due =
                            pass + RENEW_PASS.mul_f64((j * RENEW_BATCH) as f64 / work.len() as f64);
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        for (c, name) in batch {
                            match clients[*c].0.renew(name) {
                                Ok(()) => r.fetch_add(1, Ordering::Relaxed),
                                Err(_) => e.fetch_add(1, Ordering::Relaxed),
                            };
                        }
                    }
                }
            })
            .expect("spawn the lease renewer");
        Renewer {
            stop,
            renewed,
            errors,
            handle,
        }
    }

    fn stop(self) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("lease renewer panicked");
    }
}

struct Setup {
    b: Building,
    devices: Arc<Vec<Device>>,
    people: Arc<Vec<Person>>,
    /// Device names the directory must return per (class, room), sorted.
    expected: Arc<HashMap<(String, String), Vec<String>>>,
    engine: KeyNoteEngine,
    background: Vec<String>,
    renewer: Renewer,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut b = Building::build()?;
    let admin = b.env.admin;
    let authdb = b.env.addr_of("authdb").ok_or("no authdb")?;
    let mut engine = KeyNoteEngine::new();
    engine
        .add_policy(
            Assertion::new(
                POLICY,
                Licensees::Principal(admin.principal()),
                "app_domain == \"ace\"",
            )
            .map_err(|e| e.to_string())?,
        )
        .map_err(|e| e.to_string())?;

    // The population and its admin-signed grants in the AuthDB.
    let mut rng = harness::rng_for(seed, 0, 20);
    let mut db = AuthDbClient::connect(b.net(), &"core".into(), authdb.clone(), &admin)
        .map_err(|e| format!("authdb: {e}"))?;
    let mut people = Vec::with_capacity(USERS + STRANGERS);
    for i in 0..USERS + STRANGERS {
        let key = KeyPair::generate(&mut rng);
        let enrolled = i < USERS;
        if enrolled {
            let grant = Assertion::new(
                admin.principal(),
                Licensees::Principal(key.principal()),
                GRANT,
            )
            .and_then(|a| a.sign(&admin))
            .map_err(|e| e.to_string())?;
            db.store(&format!("grant{i}"), &grant)
                .map_err(|e| format!("store grant {i}: {e}"))?;
        }
        people.push(Person {
            key,
            tickets: TicketCache::new(),
            enrolled,
        });
    }

    // Devices, each authorizing through the AuthDB.
    let mut devices = Vec::new();
    let mut entries = Vec::new();
    for r in 0..ROOMS {
        let room = format!("floor{r}");
        let host = b.net().add_host(format!("floor{r}_devices"));
        let kinds: [(&str, &'static str, bool); 4] = [
            ("cam4", CameraModel::Vcc4.class_path(), true),
            ("cam3", CameraModel::Vcc3.class_path(), true),
            ("proja", Projector::CLASS, false),
            ("projb", Projector::CLASS, false),
        ];
        for (k, (tag, class, camera)) in kinds.into_iter().enumerate() {
            let name = format!("ab_{tag}_r{r}");
            let behavior: Box<dyn ServiceBehavior> = match (camera, k) {
                (true, 0) => Box::new(PtzCamera::new(CameraModel::Vcc4)),
                (true, _) => Box::new(PtzCamera::new(CameraModel::Vcc3)),
                (false, _) => Box::new(Projector::new()),
            };
            let source = RemoteCredentials::new(
                b.net().clone(),
                host.clone(),
                authdb.clone(),
                KeyPair::generate(&mut rand::thread_rng()),
            );
            let auth = Authorizer::with_source(engine.clone(), Arc::new(source));
            let port = 7100 + (r * kinds.len() + k) as u16;
            let config = b
                .env
                .fw
                .service_config(&name, class, &room, host.clone(), port)
                .with_auth(AuthMode::Local(Arc::new(auth)));
            let handle =
                Daemon::spawn(b.net(), config, behavior).map_err(|e| format!("{name}: {e}"))?;
            let mut client =
                ServiceClient::connect(b.net(), &"core".into(), handle.addr().clone(), &admin)
                    .map_err(|e| format!("{name}: {e}"))?;
            client
                .call_ok(&CmdLine::new(if camera { "ptzOn" } else { "projOn" }))
                .map_err(|e| format!("{name} power on: {e}"))?;
            client.close();
            entries.push(ServiceEntry {
                name: name.clone(),
                addr: handle.addr().clone(),
                class: class.into(),
                room: room.clone(),
            });
            b.devices.push(handle);
            devices.push(Device {
                name,
                class,
                room: room.clone(),
                camera,
            });
        }
    }
    let mut expected: HashMap<(String, String), Vec<String>> = HashMap::new();
    for d in &devices {
        expected
            .entry((d.class.to_string(), d.room.clone()))
            .or_default()
            .push(d.name.clone());
    }
    expected.values_mut().for_each(|v| v.sort());

    // Register devices and the background population on the sharded
    // directory from two writers; the renewer then keeps them alive.
    let background: Vec<String> = (0..BACKGROUND).map(|i| format!("bg{i}")).collect();
    entries.extend(background.iter().enumerate().map(|(i, name)| ServiceEntry {
        name: name.clone(),
        addr: Addr::new("apps", 20_000 + (i % 40_000) as u16),
        class: format!("Service.App.Background.Kind{}", i % 8),
        room: format!("floor{}", i % ROOMS),
    }));
    let pool = Arc::new(LinkPool::new(b.net(), "core", admin));
    let writers: Vec<(ShardedAsdClient, Vec<String>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..LANES)
            .map(|w| {
                let mut client = b.dir.client(Arc::clone(&pool));
                let mine: Vec<&ServiceEntry> = entries.iter().skip(w).step_by(LANES).collect();
                scope.spawn(move || -> Result<_, String> {
                    let mut names = Vec::with_capacity(mine.len());
                    for e in mine {
                        client
                            .register(e, 1)
                            .map_err(|err| format!("register {}: {err}", e.name))?;
                        names.push(e.name.clone());
                    }
                    Ok((client, names))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("register thread panicked"))
            .collect::<Result<Vec<_>, String>>()
    })?;
    let renewer = Renewer::start(writers);
    Ok(Setup {
        b,
        devices: Arc::new(devices),
        people: Arc::new(people),
        expected: Arc::new(expected),
        engine,
        background,
        renewer,
    })
}

/// A door kiosk: a generator lane with its own directory client.
struct Kiosk {
    net: SimNet,
    host: HostId,
    dir: ShardedAsdClient,
    devices: Arc<Vec<Device>>,
    people: Arc<Vec<Person>>,
    expected: Arc<HashMap<(String, String), Vec<String>>>,
    tamper_every: u64,
    /// Dial times since the warm-up last looked.
    dial_us: Vec<f64>,
    lines: Vec<String>,
    decisions: Vec<(usize, usize, CmdLine)>,
}

fn op(k: &mut Kiosk, ctx: &mut OpCtx) -> OpResult {
    let p = if ctx.rng.gen_range(0..100) < 5 {
        USERS + ctx.rng.gen_range(0..STRANGERS)
    } else {
        ctx.rng.gen_range(0..USERS)
    };
    let d = ctx.rng.gen_range(0..k.devices.len());
    let (cmd, kind) = command(k.devices[d].camera, ctx.rng);
    let (devices, people) = (Arc::clone(&k.devices), Arc::clone(&k.people));
    let (device, person) = (&devices[d], &people[p]);
    let fail = |what: String| (kind, format!("{} at {}: {what}", cmd.name(), device.name));

    let mut found = ctx
        .span("directory.lookup", || {
            k.dir.lookup(None, Some(device.class), Some(&device.room))
        })
        .map_err(|e| fail(format!("lookup: {e}")))?;
    if harness::tampers(k.tamper_every, ctx.op) {
        // A corrupted answer: the directory loses the device.
        found.retain(|e| e.name != device.name);
    }
    let mut names: Vec<&str> = found.iter().map(|e| e.name.as_str()).collect();
    names.sort_unstable();
    let want = &k.expected[&(device.class.to_string(), device.room.clone())];
    if names != *want {
        return Err(fail(format!(
            "lookup returned {names:?}, registered {want:?}"
        )));
    }
    let addr = found
        .iter()
        .find(|e| e.name == device.name)
        .map(|e| e.addr.clone())
        .ok_or_else(|| fail("device missing from lookup".into()))?;

    let dial_started = Instant::now();
    let mut client = ctx
        .span("security.handshake", || {
            ServiceClient::connect_resumable(&k.net, &k.host, addr, &person.key, &person.tickets)
        })
        .map_err(|e| fail(format!("dial: {e}")))?;
    k.dial_us.push(dial_started.elapsed().as_secs_f64() * 1e6);
    let reply = ctx.span("core.daemon.call", || client.call(&cmd));
    ctx.span("core.link.close", || client.close());
    if k.lines.len() < KEEP {
        if let Ok(r) = &reply {
            k.lines.push(cmd.to_wire());
            k.lines.push(r.to_wire());
        }
        k.decisions.push((p, d, cmd.clone()));
    }
    match (person.enrolled, reply) {
        (true, Ok(r)) => check_reply(&cmd, &r).map_err(fail)?,
        (
            false,
            Err(ClientError::Service {
                code: ErrorCode::Denied,
                ..
            }),
        ) => {}
        (true, Err(e)) => return Err(fail(format!("enrolled user refused: {e}"))),
        (false, other) => return Err(fail(format!("stranger not denied: {other:?}"))),
    }
    Ok(kind)
}

pub fn run(plan: &Plan) -> Result<Report, String> {
    harness::with_setups(
        plan,
        || setup(plan.seed),
        |s| {
            s.renewer.stop();
            s.b.shutdown();
        },
        |s| exercise(plan, s),
    )
}

fn exercise(plan: &Plan, s: &Setup) -> Result<Report, String> {
    let idle = harness::idle_cores(Duration::from_secs(1));
    let metrics = MetricsRegistry::new();
    let epoch = Instant::now();
    let mut lanes: Vec<Lane<Kiosk>> = (0..LANES)
        .map(|lane| {
            let host = s.b.net().add_host(format!("kiosk{lane}"));
            let identity = KeyPair::generate(&mut harness::rng_for(plan.seed, lane, 30));
            let pool = Arc::new(LinkPool::with_metrics(
                s.b.net(),
                host.clone(),
                identity,
                &metrics,
            ));
            let kiosk = Kiosk {
                net: s.b.net().clone(),
                host,
                dir: s.b.dir.client(pool),
                devices: Arc::clone(&s.devices),
                people: Arc::clone(&s.people),
                expected: Arc::clone(&s.expected),
                tamper_every: 0,
                dial_us: Vec::new(),
                lines: Vec::new(),
                decisions: Vec::new(),
            };
            Lane::new(kiosk, plan.seed, lane, epoch)
        })
        .collect();
    let op: &(dyn Fn(&mut Kiosk, &mut OpCtx) -> OpResult + Sync) = &op;

    // Warm-up ends when the devices' ticket vaults stop growing and the
    // dial time of the last second matches the one before.  Tickets live
    // 30 s and every full handshake walks the vault, so until expiry
    // balances issue the vault, its walk and the resumption ratio all
    // still grow: before that, a second adds at least 1/30 of the vault.
    let vaults = || -> usize { s.b.devices.iter().map(|d| d.ticket_vault().len()).sum() };
    let mut last: Option<(usize, f64)> = None;
    let (warmup_s, settled) = harness::warm_up(&mut lanes, Pace::Closed, plan, op, |lanes| {
        let dials: Vec<f64> = lanes
            .iter_mut()
            .flat_map(|l| std::mem::take(&mut l.client.dial_us))
            .collect();
        let now = (vaults(), crate::stats::median(&dials));
        let steady = last.is_some_and(|(tickets, dial)| {
            now.0 as f64 <= tickets as f64 * 1.005 && (now.1 - dial).abs() <= dial * 0.10
        });
        last = Some(now);
        Ok(steady)
    })?;

    let device_refs: Vec<&DaemonHandle> = s.b.devices.iter().collect();
    for lane in lanes.iter_mut() {
        lane.reset(epoch);
        // Corruption, when asked for, applies to the measured window only.
        lane.client.tamper_every = plan.tamper_every;
    }
    let fanouts = |lanes: &[Lane<Kiosk>]| lanes.iter().map(|l| l.client.dir.fanouts()).sum::<u64>();
    let fanouts_before = fanouts(&lanes);
    let renewed_before = s.renewer.renewed.load(Ordering::Relaxed);
    let client_before = metrics.snapshot();
    let before = s.b.read(&device_refs)?;
    let cpu = harness::measure(&mut lanes, Pace::Closed, plan, op);
    let after = s.b.read(&device_refs)?;
    let rss_mb = crate::procfs::rss_mb();
    let client_after = metrics.snapshot();
    let renewed = s.renewer.renewed.load(Ordering::Relaxed) - renewed_before;
    let fanouts = fanouts(&lanes) - fanouts_before;
    let (samples, late_us, log, failures) = harness::collect(&mut lanes, epoch);

    let delta = Delta {
        before: &before,
        after: &after,
    };
    let ops = samples.iter().filter(|s| s.ok).count().max(1) as f64;
    let c = harness::growth(&client_before, &client_after);
    let mut client = Metrics::new();
    client.insert(
        "core.pool.reuse_ratio",
        crate::stats::ratio(c("pool.reused"), c("pool.checkouts")),
    );
    client.insert("directory.fanouts_per_op", fanouts as f64 / ops);
    client.insert("directory.renewals_per_s", renewed as f64 / delta.seconds());

    let mut lines = Vec::new();
    let mut decisions = Vec::new();
    for lane in &lanes {
        lines.extend(lane.client.lines.iter().cloned());
        for (p, d, cmd) in &lane.client.decisions {
            let dev = &s.devices[*d];
            decisions.push((
                s.people[*p].key.principal(),
                action_env_for(&dev.name, dev.class, &dev.room, cmd),
            ));
        }
    }
    let authdb = s.b.env.addr_of("authdb").ok_or("no authdb")?;
    let replay_source = RemoteCredentials::new(
        s.b.net().clone(),
        "core".into(),
        authdb,
        KeyPair::generate(&mut rand::thread_rng()),
    );
    let mut names: Vec<String> = s.devices.iter().map(|d| d.name.clone()).collect();
    let keys = names.clone();
    names.extend(s.background.iter().cloned());
    let window = Window {
        samples,
        late_us,
        log,
        failures,
        audited: 0,
        audit_failed: 0,
        delta,
        cpu,
        rss_mb,
        verbs: vec!["ptzMove", "ptzStatus", "projInput", "projStatus"],
        client,
        lines,
        names,
        keys,
        keynote: (
            Arc::new(
                Authorizer::with_source(s.engine.clone(), Arc::new(replay_source)).without_cache(),
            ),
            decisions,
        ),
    };
    let mut notes = vec![format!(
        "closed loop, {LANES} kiosks; {USERS} users + {STRANGERS} strangers; {} devices in \
         {ROOMS} rooms beside {BACKGROUND} background registrations; warm-up {warmup_s:.1} s",
        s.devices.len()
    )];
    if !settled {
        notes.push("warm-up cap reached before the ticket vaults settled".into());
    }
    let renew_errors = s.renewer.errors.load(Ordering::Relaxed);
    if renew_errors > 0 {
        notes.push(format!("{renew_errors} directory renewals failed"));
    }
    harness::finish("arrival_burst", &s.b, plan, &window, idle, notes)
}
