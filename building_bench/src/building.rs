//! The production topology every workload runs on, and the readings of
//! the counters its daemons already publish.

use ace_core::metrics::HistogramSnapshot;
use ace_core::prelude::*;
use ace_core::{MetricsRegistry, Runtime};
use ace_directory::ShardedDirectory;
use ace_env::{AceEnvironment, EnvConfig};
use ace_net::MetricsSnapshot;
use ace_store::ShardedStoreCluster;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Shards and replicas per shard of the directory and store planes.
pub const SHARDS: usize = 4;
pub const REPLICAS: usize = 3;

/// `AceEnvironment::build(EnvConfig::default())` on the shared runtime,
/// plus 4×3 sharded directory and store planes.  No wire delay is
/// injected: latency is processor time only.
pub struct Building {
    pub env: AceEnvironment,
    pub dir: ShardedDirectory,
    pub store: ShardedStoreCluster,
    /// Daemons a workload adds (room devices).
    pub devices: Vec<DaemonHandle>,
    /// The benchmark's own link pool for reading replica counters.
    observer: Arc<LinkPool>,
}

impl Building {
    pub fn build() -> Result<Building, String> {
        let env = AceEnvironment::build(EnvConfig::default()).map_err(|e| format!("env: {e}"))?;
        let dir = env
            .spawn_sharded_directory(SHARDS, REPLICAS)
            .map_err(|e| format!("sharded directory: {e}"))?;
        let store = env
            .spawn_sharded_store(SHARDS, REPLICAS)
            .map_err(|e| format!("sharded store: {e}"))?;
        let observer = Arc::new(LinkPool::new(&env.net, "core", env.admin));
        Ok(Building {
            env,
            dir,
            store,
            devices: Vec::new(),
            observer,
        })
    }

    pub fn net(&self) -> &SimNet {
        &self.env.net
    }

    /// Every daemon of the building.
    pub fn daemons(&self) -> Vec<&DaemonHandle> {
        let fw = &self.env.fw;
        let mut all: Vec<&DaemonHandle> = vec![&fw.asd, &fw.roomdb, &fw.logger];
        all.extend(self.env.daemons.values());
        if let Some(cluster) = &self.env.store {
            all.extend(cluster.replicas.iter().map(|(h, _)| h));
        }
        all.extend(self.dir.handles.iter().flatten());
        all.extend(self.store.groups.iter().flatten().map(|(h, _)| h));
        all.extend(self.devices.iter());
        all
    }

    /// Call `cmd` on one daemon as the administrator.
    fn call(&self, addr: &Addr, cmd: &CmdLine) -> Result<CmdLine, ClientError> {
        self.observer.checkout(addr)?.call(cmd)
    }

    /// Anti-entropy and WAL counters of every sharded store replica.
    pub fn replica_stats(&self) -> Result<Vec<ReplicaStats>, String> {
        self.store
            .placement
            .all_replicas()
            .map(|addr| {
                let reply = self
                    .call(addr, &CmdLine::new("psStats"))
                    .map_err(|e| format!("psStats {addr}: {e}"))?;
                let n = |k: &str| reply.get_int(k).unwrap_or(0).max(0) as u64;
                Ok(ReplicaStats {
                    syncs: n("syncs"),
                    pulled: n("pulled"),
                    wal_appends: n("walAppends"),
                    wal_fsyncs: n("walFsyncs"),
                    wal_compactions: n("walCompactions"),
                })
            })
            .collect()
    }

    /// Time one `psDigest` call on every sharded replica, in ms.
    pub fn digest_ms(&self) -> Result<Vec<f64>, String> {
        self.store
            .placement
            .all_replicas()
            .map(|addr| {
                let started = Instant::now();
                self.call(addr, &CmdLine::new("psDigest"))
                    .map_err(|e| format!("psDigest {addr}: {e}"))?;
                Ok(started.elapsed().as_secs_f64() * 1e3)
            })
            .collect()
    }

    /// Read every counter the building publishes.  `serving` names the
    /// daemons whose histograms describe the workload's own verbs.
    pub fn read(&self, serving: &[&DaemonHandle]) -> Result<Reading, String> {
        let mut counters: BTreeMap<String, u64> = BTreeMap::new();
        let mut hist_counts: BTreeMap<String, u64> = BTreeMap::new();
        for d in self.daemons() {
            let snap = d.metrics().snapshot();
            for (k, v) in snap.counters {
                *counters.entry(k).or_default() += v;
            }
            for (k, h) in snap.histograms {
                *hist_counts.entry(k).or_default() += h.count;
            }
        }
        let mut hists: BTreeMap<String, HistogramSnapshot> = BTreeMap::new();
        for d in serving {
            for (k, h) in d.metrics().snapshot().histograms {
                match hists.get_mut(&k) {
                    Some(sum) => crate::stats::hist_merge(sum, &h),
                    None => {
                        hists.insert(k, h);
                    }
                }
            }
        }
        let rt = Runtime::global();
        let gauges = MetricsRegistry::new();
        rt.publish_into(&gauges);
        let parks = gauges.snapshot().gauges["runtime.workerParks"].max(0) as u64;
        Ok(Reading {
            at: Instant::now(),
            net: self.net().metrics().snapshot(),
            counters,
            hist_counts,
            hists,
            polls: rt.polls(),
            parks,
            long_polls: rt.long_polls(),
            replicas: self.replica_stats()?,
        })
    }

    /// Stop every daemon, devices first.
    pub fn shutdown(self) {
        for d in &self.devices {
            d.shutdown();
        }
        self.observer.drain();
        self.dir.shutdown();
        self.store.shutdown();
        self.env.shutdown();
    }
}

/// `psStats` counters of one store replica.
#[derive(Debug, Clone, Copy, Default)]
pub struct ReplicaStats {
    pub syncs: u64,
    pub pulled: u64,
    pub wal_appends: u64,
    pub wal_fsyncs: u64,
    pub wal_compactions: u64,
}

/// A point-in-time reading of the building's published counters.
pub struct Reading {
    pub at: Instant,
    pub net: MetricsSnapshot,
    /// Counters summed over every daemon.
    pub counters: BTreeMap<String, u64>,
    /// Histogram sample counts summed over every daemon.
    pub hist_counts: BTreeMap<String, u64>,
    /// Histograms summed over the serving daemons.
    pub hists: BTreeMap<String, HistogramSnapshot>,
    pub polls: u64,
    pub parks: u64,
    pub long_polls: u64,
    pub replicas: Vec<ReplicaStats>,
}

impl Reading {
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.hist_counts.get(name).copied().unwrap_or(0)
    }

    /// Sum of counters whose name starts with `prefix`.
    pub fn counter_prefix(&self, prefix: &str) -> u64 {
        self.counters
            .range(prefix.to_string()..)
            .take_while(|(k, _)| k.starts_with(prefix))
            .map(|(_, v)| v)
            .sum()
    }
}

/// Differences between two readings of the same building.
pub struct Delta<'a> {
    pub before: &'a Reading,
    pub after: &'a Reading,
}

impl Delta<'_> {
    pub fn seconds(&self) -> f64 {
        self.after.at.duration_since(self.before.at).as_secs_f64()
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.after
            .counter(name)
            .saturating_sub(self.before.counter(name))
    }

    pub fn counter_prefix(&self, prefix: &str) -> u64 {
        self.after
            .counter_prefix(prefix)
            .saturating_sub(self.before.counter_prefix(prefix))
    }

    pub fn hist_count(&self, name: &str) -> u64 {
        self.after
            .hist_count(name)
            .saturating_sub(self.before.hist_count(name))
    }

    /// The serving daemons' histograms `names`, window part only, merged.
    pub fn hist(&self, names: &[&str]) -> HistogramSnapshot {
        let mut sum = crate::stats::hist_empty();
        for name in names {
            if let Some(after) = self.after.hists.get(*name) {
                let window = match self.before.hists.get(*name) {
                    Some(before) => crate::stats::hist_delta(after, before),
                    None => after.clone(),
                };
                crate::stats::hist_merge(&mut sum, &window);
            }
        }
        sum
    }

    /// Sum over store replicas of `field(after) - field(before)`.
    pub fn replicas(&self, field: impl Fn(&ReplicaStats) -> u64) -> u64 {
        self.after
            .replicas
            .iter()
            .zip(&self.before.replicas)
            .map(|(a, b)| field(a).saturating_sub(field(b)))
            .sum()
    }
}
