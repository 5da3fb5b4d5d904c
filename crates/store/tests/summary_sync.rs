//! Summary-first anti-entropy between two live replicas: converged peers
//! exchange only their 64-bucket summaries, and a replica that missed
//! writes fetches the digest rows of exactly the buckets they fall in.

use ace_core::prelude::*;
use ace_security::keys::KeyPair;
use ace_store::{bucket_of, DiskImage, StoreKey, StoreReplica, Versioned};
use std::time::{Duration, Instant};

/// A sync interval no test outlives: rounds run only when nudged.
const NEVER: Duration = Duration::from_secs(3600);

struct Pair {
    net: SimNet,
    daemons: Vec<DaemonHandle>,
    disks: [DiskImage; 2],
    client: KeyPair,
}

/// Two replicas peering only with each other, on hosts `a` and `b`.
fn pair(port: u16) -> Pair {
    let net = SimNet::new();
    for h in ["a", "b", "c"] {
        net.add_host(h);
    }
    let addrs = [Addr::new("a", port), Addr::new("b", port)];
    let disks = [DiskImage::new(), DiskImage::new()];
    let daemons = (0..2)
        .map(|i| {
            Daemon::spawn(
                &net,
                DaemonConfig::new(
                    format!("store-{i}"),
                    "Service.Database.PersistentStoreShard",
                    "machineroom",
                    addrs[i].host.clone(),
                    port,
                ),
                Box::new(
                    StoreReplica::new(disks[i].clone(), NEVER)
                        .with_peers(vec![addrs[1 - i].clone()]),
                ),
            )
            .unwrap()
        })
        .collect();
    Pair {
        net,
        daemons,
        disks,
        client: KeyPair::generate(&mut rand::thread_rng()),
    }
}

impl Pair {
    fn call(&self, i: usize, cmd: &CmdLine) -> CmdLine {
        let addr = self.daemons[i].addr().clone();
        ServiceClient::connect(&self.net, &"c".into(), addr, &self.client)
            .unwrap()
            .call(cmd)
            .unwrap()
    }

    /// Nudge replica `i` and wait for its round to finish; returns its
    /// `psStats` afterwards.
    fn sync(&self, i: usize) -> CmdLine {
        let syncs = |s: &CmdLine| s.get_int("syncs").unwrap();
        let before = syncs(&self.call(i, &CmdLine::new("psStats")));
        self.call(i, &CmdLine::new("psSync"));
        let end = Instant::now() + Duration::from_secs(10);
        loop {
            let stats = self.call(i, &CmdLine::new("psStats"));
            if syncs(&stats) > before {
                return stats;
            }
            assert!(Instant::now() < end, "sync round never finished");
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn shutdown(self) {
        for d in self.daemons {
            d.shutdown();
        }
    }
}

fn value(version: u64, writer: &str) -> Versioned {
    Versioned {
        data: vec![7; 64],
        version,
        writer: writer.into(),
        deleted: false,
    }
}

fn key(k: &str) -> StoreKey {
    ("app".into(), k.into())
}

/// The same 256 keys on both disks.
fn preload(p: &Pair) {
    for i in 0..256 {
        for disk in &p.disks {
            disk.apply(key(&format!("k{i}")), value(1, "w1")).unwrap();
        }
    }
}

/// The first candidate key whose bucket is not in `used` yet; records it.
fn pick(used: &mut Vec<usize>, mut candidates: impl Iterator<Item = String>) -> String {
    let k = candidates
        .find(|k| !used.contains(&bucket_of("app", k)))
        .unwrap();
    used.push(bucket_of("app", &k));
    k
}

#[test]
fn converged_replicas_exchange_summaries_only() {
    let p = pair(6400);
    preload(&p);
    let stats = p.sync(0);
    assert_eq!(stats.get_int("digestRows"), Some(0), "{stats:?}");
    assert_eq!(stats.get_int("syncSkipped"), Some(1), "{stats:?}");
    assert_eq!(stats.get_int("pulled"), Some(0), "{stats:?}");
    // A second round between still-converged replicas skips again.
    let stats = p.sync(0);
    assert_eq!(stats.get_int("digestRows"), Some(0), "{stats:?}");
    assert_eq!(stats.get_int("syncSkipped"), Some(2), "{stats:?}");
    p.shutdown();
}

#[test]
fn missed_writes_fetch_exactly_their_buckets() {
    let p = pair(6410);
    preload(&p);
    let [a, b] = &p.disks;
    // Pick keys in four distinct buckets, each differing from replica a
    // in a different field: a new key, a newer version, a higher writer
    // at the same version, and a new tombstone.
    let mut used = Vec::new();
    let fresh = pick(&mut used, (0..).map(|i| format!("new{i}")));
    let newer = pick(&mut used, (0..256).map(|i| format!("k{i}")));
    let rewritten = pick(&mut used, (0..256).map(|i| format!("k{i}")));
    let tombstone = pick(&mut used, (0..).map(|i| format!("gone{i}")));
    b.apply(key(&fresh), value(1, "w1")).unwrap();
    b.apply(key(&newer), value(2, "w1")).unwrap();
    b.apply(key(&rewritten), value(1, "w2")).unwrap();
    b.apply(
        key(&tombstone),
        Versioned {
            deleted: true,
            ..value(1, "w1")
        },
    )
    .unwrap();
    used.sort_unstable();
    assert_eq!(a.summary().differing(&b.summary()), used);

    let expected_rows = b.digest_buckets(&used).len() as i64;
    let stats = p.sync(0);
    assert_eq!(
        stats.get_int("digestRows"),
        Some(expected_rows),
        "{stats:?}"
    );
    assert_eq!(stats.get_int("pulled"), Some(4), "{stats:?}");
    assert_eq!(stats.get_int("syncSkipped"), Some(0), "{stats:?}");
    assert_eq!(a.checksum(), b.checksum(), "replica a converged");
    assert_eq!(a.digest(), b.digest());
    // Converged now: the next round fetches nothing.
    let stats = p.sync(0);
    assert_eq!(
        stats.get_int("digestRows"),
        Some(expected_rows),
        "{stats:?}"
    );
    assert_eq!(stats.get_int("syncSkipped"), Some(1), "{stats:?}");
    p.shutdown();
}
