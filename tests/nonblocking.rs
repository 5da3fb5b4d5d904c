//! Steady-state daemon work never holds a shared-runtime worker while a
//! peer on the same pool answers: on a single-worker pool, lease renewals
//! to the ASD and stats events to the Network Logger keep flowing with no
//! long poll and no injected worker.  (A blocking call from the only
//! worker would stall until the watchdog injected a second one.)  The
//! non-blocking renewal still re-registers a lease the ASD has lost.

use ace_core::prelude::*;
use ace_core::protocol::{ASD_PORT, LOGGER_PORT};
use ace_directory::{Asd, AsdClient, LoggerClient, NetLogger};
use ace_env::{CameraModel, PtzCamera};
use ace_security::keys::KeyPair;
use std::time::{Duration, Instant};

fn runtime_gauge(rt: &Runtime, name: &str) -> i64 {
    let registry = MetricsRegistry::new();
    rt.publish_into(&registry);
    registry.snapshot().gauges[name]
}

fn assert_never_blocked(rt: &Runtime) {
    assert_eq!(runtime_gauge(rt, "runtime.longPolls"), 0, "a poll blocked");
    assert_eq!(
        runtime_gauge(rt, "runtime.workersInjected"),
        0,
        "the pool stalled"
    );
}

fn camera(name: &str, port: u16, rt: &Runtime) -> DaemonConfig {
    DaemonConfig::new(name, "Service.Device.PTZCamera", "hawk", "core", port)
        .with_runtime_pool(rt.clone())
}

#[test]
fn lease_renewal_runs_on_one_worker_beside_its_asd() {
    let rt = Runtime::new(1);
    let net = SimNet::new();
    net.add_host("core");
    let asd = Daemon::spawn(
        &net,
        DaemonConfig::new("asd", "Service.Directory.ASD", "machine", "core", ASD_PORT)
            .with_runtime_pool(rt.clone()),
        Box::new(Asd::new(Duration::from_secs(60))),
    )
    .unwrap();
    let cam = Daemon::spawn(
        &net,
        camera("cam1", 4410, &rt)
            .with_asd(asd.addr().clone())
            .with_lease_renew(Duration::from_millis(20))
            .with_stats_interval(Duration::ZERO),
        Box::new(PtzCamera::new(CameraModel::Vcc4)),
    )
    .unwrap();

    let renewals = cam.metrics().counter("lease.renewals");
    let before = renewals.get();
    std::thread::sleep(Duration::from_secs(1));
    let renewed = renewals.get() - before;
    assert!(
        renewed >= 20,
        "only {renewed} renewals in 1 s at a 20 ms period"
    );
    assert_eq!(cam.metrics().counter("lease.failures").get(), 0);
    assert_never_blocked(&rt);

    cam.shutdown();
    asd.shutdown();
    rt.shutdown();
}

#[test]
fn stats_events_reach_a_logger_on_the_same_worker() {
    let rt = Runtime::new(1);
    let net = SimNet::new();
    net.add_host("core");
    let logger = Daemon::spawn(
        &net,
        DaemonConfig::new(
            "netlogger",
            "Service.Logger",
            "machine",
            "core",
            LOGGER_PORT,
        )
        .with_runtime_pool(rt.clone()),
        Box::new(NetLogger::new(1000)),
    )
    .unwrap();
    let cam = Daemon::spawn(
        &net,
        camera("cam1", 4411, &rt)
            .with_logger(logger.addr().clone())
            .with_stats_interval(Duration::from_millis(10)),
        Box::new(PtzCamera::new(CameraModel::Vcc4)),
    )
    .unwrap();

    let delivered = cam.metrics().counter("notify.delivered");
    let end = Instant::now() + Duration::from_secs(5);
    while delivered.get() < 20 && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        delivered.get() >= 20,
        "only {} stats events delivered",
        delivered.get()
    );
    assert_eq!(cam.metrics().counter("notify.drops").get(), 0);
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut log = LoggerClient::connect(&net, &"core".into(), logger.addr().clone(), &me).unwrap();
    let rows = log.query_events("cam1", Some("stats"), 5).unwrap();
    assert_eq!(rows.len(), 5, "logger holds too few stats events");
    assert_never_blocked(&rt);

    cam.shutdown();
    logger.shutdown();
    rt.shutdown();
}

#[test]
fn lapsed_lease_re_registers_with_a_restarted_asd() {
    let rt = Runtime::new(1);
    let net = SimNet::new();
    net.add_host("core");
    let spawn_asd = || {
        Daemon::spawn(
            &net,
            DaemonConfig::new("asd", "Service.Directory.ASD", "machine", "core", ASD_PORT)
                .with_runtime_pool(rt.clone()),
            Box::new(Asd::new(Duration::from_secs(60))),
        )
        .unwrap()
    };
    let asd = spawn_asd();
    let cam = Daemon::spawn(
        &net,
        camera("cam1", 4412, &rt)
            .with_asd(asd.addr().clone())
            .with_lease_renew(Duration::from_millis(20)),
        Box::new(PtzCamera::new(CameraModel::Vcc4)),
    )
    .unwrap();
    // The restarted ASD has no record of cam1: its next renewal is refused
    // with NotFound, and it registers again.
    asd.shutdown();
    let asd = spawn_asd();
    let reregisters = cam.metrics().counter("lease.reregisters");
    let end = Instant::now() + Duration::from_secs(10);
    while reregisters.get() == 0 && Instant::now() < end {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(reregisters.get() >= 1, "lapsed lease never re-registered");
    let me = KeyPair::generate(&mut rand::thread_rng());
    let mut client = AsdClient::connect(&net, &"core".into(), asd.addr().clone(), &me).unwrap();
    let mut found = false;
    while !found && Instant::now() < end {
        found = !client.lookup(Some("cam1"), None, None).unwrap().is_empty();
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(found, "cam1 missing from the restarted ASD");

    cam.shutdown();
    asd.shutdown();
    rt.shutdown();
}
