//! `app_state`: applications persist state, as a closed loop.
//!
//! Two `ShardedStoreClient`s each run a 50/50 mix of `get` and `put` over
//! 4,096 prefilled keys of 256 bytes, keys drawn uniformly.  This
//! exercises quorum writes, WAL group commit, read leases and
//! anti-entropy (every replica pulls each peer's full-keyspace digest
//! every 200 ms), and puts writes beside reads.  Values encode key,
//! writer and sequence number, so every read can be traced to the write
//! that produced it, and a quorum audit after the window checks that
//! every key holds its last acknowledged value.

use crate::building::{Building, Delta, ReplicaStats};
use crate::harness::{
    self, Kind, Lane, Metrics, OpCtx, OpResult, Pace, Plan, Report, Window, LANES,
};
use ace_core::prelude::*;
use ace_core::protocol::hex_encode;
use ace_core::{action_env_for, Authorizer};
use ace_security::keynote::{Assertion, KeyNoteEngine, Licensees, POLICY};
use ace_security::keys::KeyPair;
use ace_store::{ShardedStoreClient, SHARD_CLASS};
use rand::Rng;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Namespace of the application state.
pub const NS: &str = "app";
const KEYS: usize = 4096;
const VALUE_BYTES: usize = 256;
const PREFILL_BATCH: usize = 512;
/// Writer id of the prefill; lanes write as `0`, `1`, …
const PREFILL: u32 = u32::MAX;
const KEEP: usize = 128;

pub fn key(i: usize) -> String {
    format!("k{i}")
}

/// A value naming its key, writer and sequence number, padded to
/// [`VALUE_BYTES`] with filler derived from all three.
pub fn encode(key: usize, writer: u32, seq: u64) -> Vec<u8> {
    let mut v = format!("{key}|{writer}|{seq}|").into_bytes();
    let fill = b'a' + ((key as u64 * 31 + writer as u64 * 7 + seq) % 26) as u8;
    v.resize(VALUE_BYTES, fill);
    v
}

/// `(key, writer, seq)` of a well-formed value.
pub fn decode(v: &[u8]) -> Option<(usize, u32, u64)> {
    let text = std::str::from_utf8(v).ok()?;
    let mut parts = text.splitn(4, '|');
    let key = parts.next()?.parse().ok()?;
    let writer = parts.next()?.parse().ok()?;
    let seq = parts.next()?.parse().ok()?;
    (encode(key, writer, seq) == v).then_some((key, writer, seq))
}

/// One put as its writer issued it: which key, and when it started and
/// was acknowledged (ns since the run's epoch; `None` until acked).
#[derive(Debug, Clone, Copy)]
struct PutRecord {
    key: u32,
    start_ns: u64,
    acked_ns: Option<u64>,
}

/// Every put of every writer, indexed by writer then sequence number.
type PutLog = Arc<Vec<Mutex<Vec<PutRecord>>>>;

fn puts_of(log: &PutLog, writer: usize) -> Option<MutexGuard<'_, Vec<PutRecord>>> {
    log.get(writer)
        .map(|l| l.lock().expect("a writer panicked holding the put log"))
}

struct Writer {
    id: u32,
    principal: String,
    store: ShardedStoreClient,
    log: PutLog,
    epoch: Instant,
    tamper_every: u64,
    lines: Vec<String>,
}

/// Was `value`, read from `key`, written by this run?
fn written(log: &PutLog, key: usize, value: &[u8]) -> Result<(), String> {
    let (k, writer, seq) = decode(value).ok_or("malformed value")?;
    let ok = k == key
        && match writer {
            PREFILL => seq == 0,
            w => puts_of(log, w as usize)
                .and_then(|puts| puts.get(seq as usize).copied())
                .is_some_and(|r| r.key as usize == key),
        };
    if ok {
        Ok(())
    } else {
        Err(format!(
            "{key} read value of key {k}, writer {writer}, seq {seq}"
        ))
    }
}

fn op(w: &mut Writer, ctx: &mut OpCtx) -> OpResult {
    let k = ctx.rng.gen_range(0..KEYS);
    let name = key(k);
    if ctx.rng.gen::<bool>() {
        let seq = {
            let mut mine = puts_of(&w.log, w.id as usize).expect("own log");
            mine.push(PutRecord {
                key: k as u32,
                start_ns: w.epoch.elapsed().as_nanos() as u64,
                acked_ns: None,
            });
            mine.len() as u64 - 1
        };
        let value = encode(k, w.id, seq);
        let version = ctx
            .span("store.put", || w.store.put(NS, &name, &value))
            .map_err(|e| (Kind::Put, format!("put {name}: {e}")))?;
        puts_of(&w.log, w.id as usize).expect("own log")[seq as usize].acked_ns =
            Some(w.epoch.elapsed().as_nanos() as u64);
        if w.lines.len() < KEEP {
            w.lines.push(
                CmdLine::new("psPut")
                    .arg("ns", NS)
                    .arg("key", Value::Str(name.clone()))
                    .arg("data", hex_encode(&value))
                    .arg("version", version as i64)
                    .arg("writer", Value::Str(w.principal.clone()))
                    .to_wire(),
            );
        }
        Ok(Kind::Put)
    } else {
        let mut value = ctx
            .span("store.get", || w.store.get(NS, &name))
            .map_err(|e| (Kind::Get, format!("get {name}: {e}")))?;
        if harness::tampers(w.tamper_every, ctx.op) {
            value[0] ^= 1;
        }
        if w.lines.len() < KEEP {
            w.lines.push(
                CmdLine::new("psGet")
                    .arg("ns", NS)
                    .arg("key", Value::Str(name.clone()))
                    .to_wire(),
            );
            w.lines
                .push(CmdLine::new("ok").arg("data", hex_encode(&value)).to_wire());
        }
        written(&w.log, k, &value).map_err(|e| (Kind::Get, e))?;
        Ok(Kind::Get)
    }
}

/// A quorum read of every key must find a value acknowledged to its
/// writer, and not one a later-started acknowledged put overwrote.
/// Returns the keys audited and the ones that failed, with a sample.
fn audit(b: &Building, log: &PutLog) -> Result<(u64, u64, Vec<String>), String> {
    // Per key: the latest start of an acknowledged put (the prefill
    // counts as acknowledged at time zero).
    let mut latest_start = vec![0u64; KEYS];
    for writer in 0..log.len() {
        for r in puts_of(log, writer)
            .expect("writer in range")
            .iter()
            .filter(|r| r.acked_ns.is_some())
        {
            let s = &mut latest_start[r.key as usize];
            *s = (*s).max(r.start_ns);
        }
    }
    let admin = b.env.admin;
    let pool = Arc::new(LinkPool::new(b.net(), "core", admin));
    let mut store = b.store.client(b.net(), "core", admin, Arc::clone(&pool));
    let (mut failed, mut notes) = (0u64, Vec::new());
    for (k, &latest) in latest_start.iter().enumerate() {
        let name = key(k);
        let g = store.group_for(NS, &name);
        let verdict = match store.group_client(g).get(NS, &name) {
            Err(e) => Err(format!("audit {name}: {e}")),
            Ok(v) => match decode(&v) {
                Some((kk, PREFILL, 0)) if kk == k => Ok(latest == 0),
                Some((kk, w, seq)) if kk == k => Ok(puts_of(log, w as usize)
                    .and_then(|puts| puts.get(seq as usize).copied())
                    .and_then(|r| r.acked_ns)
                    .is_some_and(|acked| acked >= latest)),
                _ => Err(format!("audit {name}: value not written by this run")),
            }
            .and_then(|fresh| {
                if fresh {
                    Ok(())
                } else {
                    Err(format!("audit {name}: a later acknowledged put was lost"))
                }
            }),
        };
        if let Err(e) = verdict {
            failed += 1;
            if notes.len() < 8 {
                notes.push(e);
            }
        }
    }
    pool.drain();
    Ok((KEYS as u64, failed, notes))
}

struct Setup {
    b: Building,
    writers: Vec<KeyPair>,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let b = Building::build()?;
    let admin = b.env.admin;
    let mut store = b.env.sharded_store_client(&b.store, admin);
    let values: Vec<(String, Vec<u8>)> =
        (0..KEYS).map(|k| (key(k), encode(k, PREFILL, 0))).collect();
    for batch in values.chunks(PREFILL_BATCH) {
        store
            .put_many(NS, batch)
            .map_err(|e| format!("prefill: {e}"))?;
    }
    let writers = (0..LANES)
        .map(|lane| KeyPair::generate(&mut harness::rng_for(seed, lane, 40)))
        .collect();
    Ok(Setup { b, writers })
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
    let epoch = Instant::now();
    let log: PutLog = Arc::new((0..LANES).map(|_| Mutex::new(Vec::new())).collect());
    let mut lanes: Vec<Lane<Writer>> = s
        .writers
        .iter()
        .enumerate()
        .map(|(lane, identity)| {
            let pool = Arc::new(LinkPool::with_metrics(
                s.b.net(),
                "core",
                *identity,
                &metrics,
            ));
            let writer = Writer {
                id: lane as u32,
                principal: identity.principal(),
                store: s.b.store.client(s.b.net(), "core", *identity, pool),
                log: Arc::clone(&log),
                epoch,
                tamper_every: 0,
                lines: Vec::new(),
            };
            Lane::new(writer, plan.seed, lane, epoch)
        })
        .collect();
    let op: &(dyn Fn(&mut Writer, &mut OpCtx) -> OpResult + Sync) = &op;

    // Warm-up ends once every replica finished an anti-entropy round that
    // started after the prefill (two completed rounds), and both clients
    // read through leases.
    let prefilled = s.b.replica_stats()?;
    let leased = |lanes: &[Lane<Writer>]| -> Vec<(u64, u64)> {
        lanes
            .iter()
            .map(|l| {
                let st = l.client.store.stats();
                (st.leased_reads, st.quorum_fallbacks)
            })
            .collect()
    };
    let mut last_leases = leased(&lanes);
    let (warmup_s, settled) = harness::warm_up(&mut lanes, Pace::Closed, plan, op, |lanes| {
        let synced =
            s.b.replica_stats()?
                .iter()
                .zip(&prefilled)
                .all(|(now, then): (&ReplicaStats, &ReplicaStats)| now.syncs >= then.syncs + 2);
        let now = leased(lanes);
        let leasing = now.iter().zip(&last_leases).all(|(n, l)| {
            let (reads, fallbacks) = (n.0 - l.0, n.1 - l.1);
            reads > 0 && fallbacks * 10 <= reads
        });
        last_leases = now;
        Ok(synced && leasing)
    })?;

    let serving: Vec<&DaemonHandle> = s.b.store.groups.iter().flatten().map(|(h, _)| h).collect();
    for lane in lanes.iter_mut() {
        lane.reset(epoch);
        // Corruption, when asked for, applies to the measured window only.
        lane.client.tamper_every = plan.tamper_every;
    }
    let stats_before = leased(&lanes);
    let client_before = metrics.snapshot();
    let before = s.b.read(&serving)?;
    let cpu = harness::measure(&mut lanes, Pace::Closed, plan, op);
    let after = s.b.read(&serving)?;
    let rss_mb = crate::procfs::rss_mb();
    let client_after = metrics.snapshot();
    let stats_after = leased(&lanes);
    let (samples, late_us, span_log, mut failures) = harness::collect(&mut lanes, epoch);
    let (audited, audit_failed, audit_notes) = audit(&s.b, &log)?;
    failures.extend(audit_notes);

    let c = harness::growth(&client_before, &client_after);
    let (leased_reads, fallbacks) = stats_after
        .iter()
        .zip(&stats_before)
        .fold((0.0, 0.0), |(r, f), (a, b)| {
            (r + (a.0 - b.0) as f64, f + (a.1 - b.1) as f64)
        });
    let mut client = Metrics::new();
    client.insert(
        "core.pool.reuse_ratio",
        crate::stats::ratio(c("pool.reused"), c("pool.checkouts")),
    );
    client.insert(
        "store.leased_read_ratio",
        crate::stats::ratio(leased_reads, leased_reads + fallbacks),
    );

    // The store authorizes openly; the replay asks what a KeyNote policy
    // over the same commands would cost.
    let mut engine = KeyNoteEngine::new();
    for w in &s.writers {
        engine
            .add_policy(
                Assertion::new(
                    POLICY,
                    Licensees::Principal(w.principal()),
                    "app_domain == \"ace\" && (cmd == \"psGet\" || cmd == \"psPut\")",
                )
                .map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?;
    }
    let mut lines = Vec::new();
    for lane in &lanes {
        lines.extend(lane.client.lines.iter().cloned());
    }
    let decisions = lines
        .iter()
        .filter_map(|l| ace_lang::parse(l).ok())
        .filter(|cmd| cmd.name() != "ok")
        .enumerate()
        .map(|(i, cmd)| {
            (
                s.writers[i % LANES].principal(),
                action_env_for("store-s0r0", SHARD_CLASS, "machineroom", &cmd),
            )
        })
        .collect();
    let keys: Vec<String> = (0..KEYS).map(key).collect();
    let window = Window {
        samples,
        late_us,
        log: span_log,
        failures,
        audited,
        audit_failed,
        cpu,
        rss_mb,
        delta: Delta {
            before: &before,
            after: &after,
        },
        verbs: vec!["psPut", "psGet", "psGetLeased"],
        client,
        lines,
        names: keys.clone(),
        keys,
        keynote: (
            Arc::new(Authorizer::local(engine).without_cache()),
            decisions,
        ),
    };
    let mut notes = vec![format!(
        "closed loop, {LANES} store clients, 50% get / 50% put over {KEYS} keys of \
         {VALUE_BYTES} B; warm-up {warmup_s:.1} s"
    )];
    if !settled {
        notes.push("warm-up cap reached before anti-entropy and leases settled".into());
    }
    harness::finish("app_state", &s.b, plan, &window, idle, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_name_their_write() {
        let v = encode(17, 1, 42);
        assert_eq!(v.len(), VALUE_BYTES);
        assert_eq!(decode(&v), Some((17, 1, 42)));
        let mut bad = v.clone();
        bad[VALUE_BYTES - 1] ^= 1;
        assert_eq!(decode(&bad), None, "filler is checked too");
        assert_eq!(decode(&encode(3, PREFILL, 0)), Some((3, PREFILL, 0)));
    }

    #[test]
    fn reads_must_match_a_logged_put() {
        let log: PutLog = Arc::new(vec![Mutex::new(vec![PutRecord {
            key: 5,
            start_ns: 0,
            acked_ns: None,
        }])]);
        assert!(
            written(&log, 5, &encode(5, 0, 0)).is_ok(),
            "in-flight puts count"
        );
        assert!(
            written(&log, 6, &encode(6, 0, 0)).is_err(),
            "seq 0 was for key 5"
        );
        assert!(written(&log, 5, &encode(5, 0, 1)).is_err(), "never issued");
        assert!(
            written(&log, 5, &encode(5, 1, 0)).is_err(),
            "no such writer"
        );
        assert!(written(&log, 9, &encode(9, PREFILL, 0)).is_ok());
    }
}
