//! One persistent-store replica (§6, Fig. 17).
//!
//! "Three completely redundant storage systems guarantee safe and up to
//! date storage of information … the three storage systems perform constant
//! data synchronization."
//!
//! Each replica daemon owns a [`DiskImage`] — shared state standing in for
//! the machine's disk, so a crashed replica that restarts on the same host
//! finds its data again.  Anti-entropy runs on a dedicated *sync worker
//! thread*, not the daemon's control thread: replicas synchronously query
//! each other, and two control threads calling each other would deadlock —
//! the worker keeps command service and synchronization independent,
//! mirroring the paper's separation of command and data paths.
//!
//! Anti-entropy is summary-first.  Every image keeps a [`Summary`]: 64
//! buckets, chosen by a hash of `ns\0key`, each holding the XOR of the
//! hashes of the `(ns, key, version, writer)` entries that fall in it,
//! maintained incrementally as writes publish.  A sync round fetches each
//! peer's summary (`psDigest summary=true`); a peer whose buckets all match
//! is skipped, otherwise only the differing buckets' digest rows are
//! fetched (`psDigest buckets={…}`) and newer versions pulled with
//! `psGet`.  Converged replicas thus exchange one small reply per peer per
//! round instead of the whole keyspace's digest.

use crate::client::StoreError;
use crate::placement::StorePlacement;
use crate::version::{StoreKey, Versioned};
use crate::wal::{RecoveryReport, StorageHandle, Wal, WalConfig, WalStats};
use ace_core::prelude::*;
use ace_core::protocol::{hex_decode, hex_encode};
use ace_security::hash::Fnv64Stream;
use parking_lot::Mutex;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How many recently applied writes a replica remembers for WAL-tail
/// catch-up.  A rebuilding peer whose snapshot cut falls off this window
/// re-fetches the snapshot instead (the shipper reports a gap).
const TAIL_CAP: usize = 4096;

/// Sequence-numbered ring of recently applied writes, feeding `psWalTail`.
#[derive(Debug, Default)]
struct TailRing {
    /// Sequence number the next applied write will get.
    next_seq: u64,
    /// `(seq, key, value)` for the last [`TAIL_CAP`] applied writes.
    ring: VecDeque<(u64, StoreKey, Versioned)>,
}

impl TailRing {
    fn push(&mut self, key: StoreKey, value: Versioned) {
        let seq = self.next_seq;
        self.next_seq += 1;
        if self.ring.len() == TAIL_CAP {
            self.ring.pop_front();
        }
        self.ring.push_back((seq, key, value));
    }
}

/// One digest row: `(ns, key, version, writer)`.
pub type DigestRow = (String, String, u64, String);

/// Buckets in a replica's anti-entropy [`Summary`].
pub const SUMMARY_BUCKETS: usize = 64;

/// Seed of the summary's key and entry hashes.
const SUMMARY_SEED: u64 = 0x6a09_e667_f3bc_c908;

/// The hash stream after absorbing `ns\0key\0`: finishing it picks the
/// key's bucket, continuing it with the version and writer hashes the
/// entry, so both cost one pass over the key bytes.
fn key_stream(ns: &str, key: &str) -> Fnv64Stream {
    let mut h = Fnv64Stream::keyed(SUMMARY_SEED);
    h.update(ns.as_bytes());
    h.update(&[0]);
    h.update(key.as_bytes());
    h.update(&[0]);
    h
}

fn bucket_from(prefix: Fnv64Stream) -> usize {
    (prefix.finish() % SUMMARY_BUCKETS as u64) as usize
}

fn entry_hash(mut prefix: Fnv64Stream, version: u64, writer: &str) -> u64 {
    prefix.update(&version.to_le_bytes());
    prefix.update(writer.as_bytes());
    prefix.finish()
}

/// The summary bucket a key falls in.
pub fn bucket_of(ns: &str, key: &str) -> usize {
    bucket_from(key_stream(ns, key))
}

/// Per-bucket XOR of the hashes of every `(ns, key, version, writer)` an
/// image holds.  Two images with equal digests have equal summaries; two
/// whose digests differ in any bucket's rows differ in that bucket's sum,
/// except with probability 2⁻⁶⁴ per bucket compare.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Summary([u64; SUMMARY_BUCKETS]);

impl Default for Summary {
    fn default() -> Summary {
        Summary([0; SUMMARY_BUCKETS])
    }
}

impl Summary {
    /// Summary of a whole map, computed from scratch.
    fn of(map: &HashMap<StoreKey, Versioned>) -> Summary {
        let mut summary = Summary::default();
        for ((ns, key), v) in map {
            let prefix = key_stream(ns, key);
            summary.0[bucket_from(prefix)] ^= entry_hash(prefix, v.version, &v.writer);
        }
        summary
    }

    /// Indices of the buckets whose sums differ from `other`'s.
    pub fn differing(&self, other: &Summary) -> Vec<usize> {
        (0..SUMMARY_BUCKETS)
            .filter(|&b| self.0[b] != other.0[b])
            .collect()
    }

    /// Wire form: a vector of the 64 sums, each bit-cast to `i64`.
    pub fn to_value(&self) -> Value {
        Value::Vector(self.0.iter().map(|&s| Scalar::Int(s as i64)).collect())
    }

    /// Strict parse of [`Summary::to_value`]; `None` unless exactly 64
    /// integers.
    pub fn from_value(value: &Value) -> Option<Summary> {
        let sums = value.as_vector()?;
        if sums.len() != SUMMARY_BUCKETS {
            return None;
        }
        let mut summary = Summary::default();
        for (slot, sum) in summary.0.iter_mut().zip(sums) {
            let Scalar::Int(sum) = sum else { return None };
            *slot = *sum as u64;
        }
        Some(summary)
    }
}

/// What the image's map lock guards: the entries and their summary, kept
/// in step by [`Image::insert`].
#[derive(Debug, Default)]
struct Image {
    entries: HashMap<StoreKey, Versioned>,
    summary: Summary,
}

impl Image {
    fn new(entries: HashMap<StoreKey, Versioned>) -> Image {
        let summary = Summary::of(&entries);
        Image { entries, summary }
    }

    /// Store `value` under `key` unconditionally (callers check `beats`
    /// first): XOR the replaced entry's hash out of its bucket, the new
    /// one's in.
    fn insert(&mut self, key: StoreKey, value: Versioned) {
        let prefix = key_stream(&key.0, &key.1);
        let mut delta = entry_hash(prefix, value.version, &value.writer);
        if let Some(old) = self.entries.insert(key, value) {
            delta ^= entry_hash(prefix, old.version, &old.writer);
        }
        self.summary.0[bucket_from(prefix)] ^= delta;
    }
}

/// The disk of one replica: survives daemon crash/restart.  A volatile
/// image ([`DiskImage::new`]) survives by being handed to the respawned
/// daemon; a durable one ([`DiskImage::open`]) additionally recovers from
/// its write-ahead log + snapshot, so it survives the *process* dying with
/// the image unreferenced.
///
/// The map and the WAL are deliberately *not* behind one lock: appenders
/// log first (where the WAL's group-commit engine batches them across
/// threads) and only then take the map lock to publish, so concurrent
/// writers share fsyncs instead of serialising on the image.
#[derive(Debug, Clone, Default)]
pub struct DiskImage {
    map: Arc<Mutex<Image>>,
    /// `None` for a volatile image (unit tests, benchmarks); durable
    /// images log every applied write here *before* it becomes visible.
    wal: Option<Arc<Wal>>,
    /// Writes durably in the log but not yet published to `map`.
    /// Compaction snapshots the map and truncates the log, so it must
    /// not run while this is non-zero (see [`Wal::maybe_compact_when`]).
    in_flight: Arc<AtomicU64>,
    /// Recently applied writes by sequence number (snapshot shipping's
    /// catch-up source).  Lock order: `map` before `tail` — never the
    /// reverse — so snapshot cuts see a (state, seq) pair no applied
    /// write can slip between.
    tail: Arc<Mutex<TailRing>>,
}

impl DiskImage {
    /// A volatile, empty image (no WAL).
    pub fn new() -> DiskImage {
        DiskImage::default()
    }

    /// Open a durable image: recover state from the snapshot + log behind
    /// `handle`, then log every further applied write.  Refuses with
    /// [`StoreError::Corrupt`] when validation fails mid-log or in a
    /// snapshot slot.
    pub fn open(
        handle: &StorageHandle,
        config: WalConfig,
    ) -> Result<(DiskImage, RecoveryReport), StoreError> {
        let (wal, map, report) = Wal::open(handle, config)?;
        Ok((
            DiskImage {
                map: Arc::new(Mutex::new(Image::new(map))),
                wal: Some(Arc::new(wal)),
                in_flight: Arc::new(AtomicU64::new(0)),
                tail: Arc::new(Mutex::new(TailRing::default())),
            },
            report,
        ))
    }

    /// [`DiskImage::open`], but detected corruption resets the storage to
    /// empty (reported via `reset = true`) instead of failing — the
    /// controlled response for a replica with peers: never serve
    /// corrupt data, rebuild from anti-entropy instead.
    pub fn open_or_reset(
        handle: &StorageHandle,
        config: WalConfig,
    ) -> Result<(DiskImage, RecoveryReport), StoreError> {
        match DiskImage::open(handle, config.clone()) {
            Err(StoreError::Corrupt { .. }) => {
                Wal::reset(handle)?;
                let (disk, mut report) = DiskImage::open(handle, config)?;
                report.reset = true;
                Ok((disk, report))
            }
            other => other,
        }
    }

    /// Apply a versioned write if it beats the current entry.  Returns
    /// `Ok(true)` if applied — for a durable image, only after the write
    /// is in the log (and synced, per [`WalConfig`]).  An `Err` means the
    /// write is *not* durable and must not be acknowledged.
    pub fn apply(&self, key: StoreKey, value: Versioned) -> Result<bool, StoreError> {
        // Cheap staleness pre-check: losing the race to a concurrent
        // newer write is fine — the authoritative check repeats under
        // the map lock after logging.
        {
            let map = self.map.lock();
            if let Some(existing) = map.entries.get(&key) {
                if !value.beats(existing) {
                    return Ok(false);
                }
            }
        }
        if let Some(wal) = &self.wal {
            // Log before visibility.  `in_flight` brackets the window in
            // which the record is durable but not yet published, keeping
            // compaction from truncating it out from under us.
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if let Err(e) = wal.append(&key, &value) {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(e);
            }
        }
        let mut map = self.map.lock();
        let applied = match map.entries.get(&key) {
            Some(existing) if !value.beats(existing) => false,
            _ => {
                self.tail.lock().push(key.clone(), value.clone());
                map.insert(key, value);
                true
            }
        };
        if let Some(wal) = &self.wal {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            wal.maybe_compact_when(&map.entries, || self.in_flight.load(Ordering::SeqCst) == 0);
        }
        Ok(applied)
    }

    /// Apply a run of versioned writes, sharing one WAL batch (one fsync,
    /// batch size permitting) across all of them.  Stale entries are
    /// filtered; the survivors are logged contiguously and then published
    /// together.  Returns how many entries were applied.  An `Err` means
    /// *none* of the writes may be acknowledged.
    pub fn apply_batch(&self, entries: Vec<(StoreKey, Versioned)>) -> Result<usize, StoreError> {
        let fresh: Vec<(StoreKey, Versioned)> = {
            let map = self.map.lock();
            entries
                .into_iter()
                .filter(|(key, value)| match map.entries.get(key) {
                    Some(existing) => value.beats(existing),
                    None => true,
                })
                .collect()
        };
        if fresh.is_empty() {
            return Ok(0);
        }
        if let Some(wal) = &self.wal {
            self.in_flight.fetch_add(1, Ordering::SeqCst);
            if let Err(e) = wal.append_batch(&fresh) {
                self.in_flight.fetch_sub(1, Ordering::SeqCst);
                return Err(e);
            }
        }
        let mut map = self.map.lock();
        let mut applied = 0;
        for (key, value) in fresh {
            match map.entries.get(&key) {
                Some(existing) if !value.beats(existing) => {}
                _ => {
                    self.tail.lock().push(key.clone(), value.clone());
                    map.insert(key, value);
                    applied += 1;
                }
            }
        }
        if let Some(wal) = &self.wal {
            self.in_flight.fetch_sub(1, Ordering::SeqCst);
            wal.maybe_compact_when(&map.entries, || self.in_flight.load(Ordering::SeqCst) == 0);
        }
        Ok(applied)
    }

    /// Read a key (tombstones included).
    pub fn get(&self, key: &StoreKey) -> Option<Versioned> {
        self.map.lock().entries.get(key).cloned()
    }

    /// A key's `(version, writer)` without cloning its value.
    pub fn version_of(&self, key: &StoreKey) -> Option<(u64, String)> {
        self.map
            .lock()
            .entries
            .get(key)
            .map(|v| (v.version, v.writer.clone()))
    }

    /// Live (non-tombstone) keys in a namespace, sorted.
    pub fn list(&self, ns: &str) -> Vec<String> {
        let mut keys: Vec<String> = self
            .map
            .lock()
            .entries
            .iter()
            .filter(|((n, _), v)| n == ns && !v.deleted)
            .map(|((_, k), _)| k.clone())
            .collect();
        keys.sort();
        keys
    }

    /// Digest of everything held, sorted.
    pub fn digest(&self) -> Vec<DigestRow> {
        self.rows_where(|_| true)
    }

    /// Digest rows of the keys in the given summary buckets, sorted.
    /// Indices past [`SUMMARY_BUCKETS`] select nothing.
    pub fn digest_buckets(&self, buckets: &[usize]) -> Vec<DigestRow> {
        let mut wanted = [false; SUMMARY_BUCKETS];
        for &b in buckets {
            if let Some(w) = wanted.get_mut(b) {
                *w = true;
            }
        }
        self.rows_where(|(ns, key)| wanted[bucket_of(ns, key)])
    }

    fn rows_where(&self, keep: impl Fn(&StoreKey) -> bool) -> Vec<DigestRow> {
        let mut out: Vec<_> = self
            .map
            .lock()
            .entries
            .iter()
            .filter(|(key, _)| keep(key))
            .map(|((ns, k), v)| (ns.clone(), k.clone(), v.version, v.writer.clone()))
            .collect();
        out.sort();
        out
    }

    /// The incrementally kept anti-entropy summary.
    pub fn summary(&self) -> Summary {
        self.map.lock().summary
    }

    /// The summary recomputed from scratch over the current entries — an
    /// audit of the incrementally kept [`DiskImage::summary`].
    pub fn recomputed_summary(&self) -> Summary {
        Summary::of(&self.map.lock().entries)
    }

    /// Number of entries (including tombstones).
    pub fn len(&self) -> usize {
        self.map.lock().entries.len()
    }

    /// `true` when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.lock().entries.is_empty()
    }

    /// WAL counters (`None` for a volatile image).
    pub fn wal_stats(&self) -> Option<WalStats> {
        self.wal.as_ref().map(|w| w.stats())
    }

    /// Cut a consistent shippable snapshot: the encoded full state plus
    /// the tail sequence number the fetcher must catch up from.  The
    /// snapshot's generation field carries that sequence cut, so the
    /// fetcher reads it straight out of the validated bytes.
    pub fn snapshot_cut(&self) -> (u64, Vec<u8>) {
        let map = self.map.lock();
        let seq = self.tail.lock().next_seq;
        (seq, crate::wal::encode_snapshot(seq, &map.entries))
    }

    /// Applied writes with sequence number `>= since`, capped at `max`,
    /// plus the next sequence number this replica will assign.  `None`
    /// means `since` has fallen off the tail ring — a **gap**: the fetcher
    /// must re-ship a snapshot instead of catching up record by record.
    #[allow(clippy::type_complexity)]
    pub fn tail_since(
        &self,
        since: u64,
        max: usize,
    ) -> Option<(Vec<(u64, StoreKey, Versioned)>, u64)> {
        let tail = self.tail.lock();
        let oldest = tail.next_seq - tail.ring.len() as u64;
        if since < oldest {
            return None;
        }
        let entries = tail
            .ring
            .iter()
            .filter(|(seq, _, _)| *seq >= since)
            .take(max)
            .cloned()
            .collect();
        Some((entries, tail.next_seq))
    }

    /// Install a shipped snapshot: merge `entries` newest-wins, then (for
    /// a durable image) commit the merged state as one snapshot-slot write
    /// — the whole keyspace costs one slot replace + sync instead of
    /// re-appending every record through the log.  Returns how many
    /// entries won.
    pub fn install_snapshot(
        &self,
        entries: Vec<(StoreKey, Versioned)>,
    ) -> Result<usize, StoreError> {
        let mut map = self.map.lock();
        let mut applied = 0;
        for (key, value) in entries {
            match map.entries.get(&key) {
                Some(existing) if !value.beats(existing) => {}
                _ => {
                    map.insert(key, value);
                    applied += 1;
                }
            }
        }
        if let Some(wal) = &self.wal {
            wal.install_snapshot(&map.entries)?;
        }
        Ok(applied)
    }

    /// Checksum folded from the summary's bucket sums — equal checksums
    /// mean replicas have converged.
    pub fn checksum(&self) -> u64 {
        let summary = self.summary();
        let mut h = Fnv64Stream::keyed(SUMMARY_SEED);
        for sum in summary.0 {
            h.update(&sum.to_le_bytes());
        }
        h.finish()
    }
}

/// Counters shared between the daemon and its sync worker.
#[derive(Debug, Default)]
struct SyncStats {
    syncs: AtomicU64,
    pulled: AtomicU64,
    /// Peers skipped in a round because their summary matched ours.
    sync_skipped: AtomicU64,
    /// Digest rows fetched from peers' differing buckets.
    digest_rows: AtomicU64,
    /// Pulled values the local disk refused (WAL append failed): the
    /// entry stays missing locally and a later round retries it.
    pull_errors: AtomicU64,
}

/// The shard read lease one replica may hold: clients grant it through
/// the quorum path, and only the live holder serves `psGetLeased`.
#[derive(Debug, Clone)]
struct ReadLease {
    /// Holder address as `host:port` — compared against the replica's own
    /// bound address when serving leased reads.
    holder: String,
    /// Grant epoch: a newer grant supersedes, an older one is fenced.
    epoch: u64,
    until: Instant,
}

/// The replica daemon behavior.
pub struct StoreReplica {
    disk: DiskImage,
    sync_interval: Duration,
    stats: Arc<SyncStats>,
    stop: Arc<AtomicBool>,
    worker: Option<std::thread::JoinHandle<()>>,
    /// Nudges the worker to sync immediately (`psSync`).
    nudge: Option<crossbeam_channel::Sender<()>>,
    /// Fixed anti-entropy peer list (sharded deployments).  `None` keeps
    /// the classic behaviour: discover peers via the ASD class lookup.
    peers: Option<Vec<Addr>>,
    /// Shard placement map served via `psPlacement` (sharded deployments).
    placement: Option<StorePlacement>,
    /// Cached encoded snapshot for chunked `psSnapFetch`: `(seq, bytes)`.
    /// Cut fresh on every offset-0 fetch; later offsets read the cache so
    /// one rebuild streams one consistent snapshot.
    snap_cache: Option<(u64, Arc<Vec<u8>>)>,
    /// The shard read lease, if any client granted one.
    lease: Option<ReadLease>,
    /// `psGetLeased` requests served as the holder.
    leased_gets: u64,
    /// `psGetLeased` requests refused (not holder / lease expired).
    leased_refusals: u64,
}

impl StoreReplica {
    pub fn new(disk: DiskImage, sync_interval: Duration) -> StoreReplica {
        StoreReplica {
            disk,
            sync_interval,
            stats: Arc::new(SyncStats::default()),
            stop: Arc::new(AtomicBool::new(false)),
            worker: None,
            nudge: None,
            peers: None,
            placement: None,
            snap_cache: None,
            lease: None,
            leased_gets: 0,
            leased_refusals: 0,
        }
    }

    /// Anti-entropy against a fixed peer list (this replica's shard group)
    /// instead of an ASD class lookup — a sharded replica must never pull
    /// keys that belong to another shard's group.
    pub fn with_peers(mut self, peers: Vec<Addr>) -> StoreReplica {
        self.peers = Some(peers);
        self
    }

    /// Serve the shard placement map via `psPlacement`, so clients can
    /// bootstrap routing from any replica.
    pub fn with_placement(mut self, placement: StorePlacement) -> StoreReplica {
        self.placement = Some(placement);
        self
    }
}

/// One anti-entropy round from the worker thread: pull newer versions
/// from every peer replica — either the fixed shard-group list, or every
/// `PersistentStore` found in the ASD.  Per peer, summaries are compared
/// first; only the differing buckets' digest rows cross the wire.
#[allow(clippy::too_many_arguments)]
fn sync_round(
    net: &SimNet,
    host: &HostId,
    identity: &ace_security::keys::KeyPair,
    asd: Option<&Addr>,
    fixed_peers: Option<&[Addr]>,
    own_name: &str,
    disk: &DiskImage,
    stats: &SyncStats,
    clients: &mut HashMap<Addr, ServiceClient>,
) {
    let call = |clients: &mut HashMap<Addr, ServiceClient>,
                addr: &Addr,
                cmd: &CmdLine|
     -> Option<CmdLine> {
        for attempt in 0..2 {
            if !clients.contains_key(addr) {
                match ServiceClient::connect(net, host, addr.clone(), identity) {
                    Ok(c) => {
                        clients.insert(addr.clone(), c);
                    }
                    Err(_) => return None,
                }
            }
            match clients.get_mut(addr).expect("present").call(cmd) {
                Ok(r) => return Some(r),
                Err(ClientError::Service { .. }) => return None,
                Err(ClientError::Link(_)) => {
                    clients.remove(addr);
                    if attempt == 1 {
                        return None;
                    }
                }
            }
        }
        None
    };

    let peer_addrs: Vec<Addr> = match fixed_peers {
        // Sharded deployment: the group membership is fixed at spawn, and
        // pulling from the ASD class instead would drag other shards'
        // keys into this group.
        Some(list) => list.to_vec(),
        None => {
            let Some(asd) = asd else { return };
            let Some(reply) = call(
                clients,
                asd,
                &CmdLine::new("lookup").arg("class", Value::Str("PersistentStore".into())),
            ) else {
                return;
            };
            let Some(peers) = reply
                .get("services")
                .and_then(ace_core::protocol::entries_from_value)
            else {
                return;
            };
            peers
                .into_iter()
                .filter(|p| p.name != own_name)
                .map(|p| p.addr)
                .collect()
        }
    };
    let summary_cmd = CmdLine::new("psDigest").arg("summary", true);
    for peer_addr in peer_addrs {
        let Some(reply) = call(clients, &peer_addr, &summary_cmd) else {
            continue; // peer down: catch up later
        };
        let Some(remote) = reply.get("sums").and_then(Summary::from_value) else {
            continue;
        };
        let differing = disk.summary().differing(&remote);
        if differing.is_empty() {
            stats.sync_skipped.fetch_add(1, Ordering::Relaxed);
            continue;
        }
        let buckets = differing.iter().map(|&b| Scalar::Int(b as i64)).collect();
        let Some(reply) = call(
            clients,
            &peer_addr,
            &CmdLine::new("psDigest").arg("buckets", Value::Vector(buckets)),
        ) else {
            continue;
        };
        let Some(rows) = digest_from_reply(&reply) else {
            continue;
        };
        stats
            .digest_rows
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        for (ns, key, version, writer) in rows {
            let key_pair = (ns.clone(), key.clone());
            let newer_remote = match disk.version_of(&key_pair) {
                None => true,
                Some((local_version, local_writer)) => {
                    (version, writer.as_str()) > (local_version, local_writer.as_str())
                }
            };
            if !newer_remote {
                continue;
            }
            let Some(got) = call(
                clients,
                &peer_addr,
                &CmdLine::new("psGet")
                    .arg("ns", ns.as_str())
                    .arg("key", Value::Str(key.clone())),
            ) else {
                continue;
            };
            if let Some(value) = versioned_from_reply(&got) {
                match disk.apply(key_pair, value) {
                    Ok(true) => {
                        stats.pulled.fetch_add(1, Ordering::Relaxed);
                    }
                    Ok(false) => {}
                    Err(_) => {
                        stats.pull_errors.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        }
    }
    stats.syncs.fetch_add(1, Ordering::Relaxed);
}

/// Strictly parse a `psGet`-style reply; `None` when any field is missing
/// or malformed (callers treat that as a corrupt reply, never as defaults).
pub(crate) fn versioned_from_reply(reply: &CmdLine) -> Option<Versioned> {
    Some(Versioned {
        data: hex_decode(reply.get_text("data")?)?,
        version: reply.get_int("version")? as u64,
        writer: reply.get_text("writer")?.to_string(),
        deleted: reply.get_bool("deleted")?,
    })
}

pub(crate) fn digest_from_reply(reply: &CmdLine) -> Option<Vec<DigestRow>> {
    let rows = match reply.get("entries")? {
        v if v.as_vector().is_some_and(|s| s.is_empty()) => return Some(Vec::new()),
        v => v.as_array()?,
    };
    let mut out = Vec::with_capacity(rows.len());
    for row in rows {
        if row.len() != 4 {
            return None;
        }
        let cell = |i: usize| row[i].as_text();
        out.push((
            cell(0)?.to_string(),
            cell(1)?.to_string(),
            cell(2)?.parse().ok()?,
            cell(3)?.to_string(),
        ));
    }
    Some(out)
}

/// What a `psDigest` asks for.
enum DigestQuery {
    /// Every row (bare `psDigest`).
    Full,
    /// The 64 bucket sums (`summary=true`).
    Summary,
    /// The rows in these buckets (`buckets={…}`).
    Buckets(Vec<usize>),
}

/// Strict parse of `psDigest`'s optional arguments.
fn digest_query(cmd: &CmdLine) -> Result<DigestQuery, &'static str> {
    let summary = match cmd.get("summary") {
        None => false,
        Some(_) => cmd
            .get_bool("summary")
            .ok_or("summary must be true or false")?,
    };
    let buckets = match cmd.get("buckets") {
        None => None,
        Some(v) => Some(bucket_list(v).ok_or("buckets must be integers in 0..63")?),
    };
    match (summary, buckets) {
        (true, Some(_)) => Err("summary and buckets are exclusive"),
        (true, None) => Ok(DigestQuery::Summary),
        (false, Some(buckets)) => Ok(DigestQuery::Buckets(buckets)),
        (false, None) => Ok(DigestQuery::Full),
    }
}

/// Strict parse of a `buckets={…}` argument: every index an integer in
/// `0..SUMMARY_BUCKETS`.
fn bucket_list(value: &Value) -> Option<Vec<usize>> {
    value
        .as_vector()?
        .iter()
        .map(|b| match b {
            Scalar::Int(i) => usize::try_from(*i).ok().filter(|&i| i < SUMMARY_BUCKETS),
            _ => None,
        })
        .collect()
}

impl ServiceBehavior for StoreReplica {
    fn semantics(&self) -> Semantics {
        Semantics::new()
            .inheriting(&ace_core::protocol::store_scaleout_semantics())
            .with(
                CmdSpec::new("psPut", "store a versioned value")
                    .required("ns", ArgType::Word, "namespace")
                    .required("key", ArgType::Str, "key within the namespace")
                    .required("data", ArgType::Word, "hex value bytes")
                    .required("version", ArgType::Int, "client-assigned version")
                    .required("writer", ArgType::Str, "writer id (tie-break)"),
            )
            .with(
                CmdSpec::new("psPutBatch", "store many versioned values in one commit")
                    .required("ns", ArgType::Word, "namespace")
                    .required(
                        "items",
                        ArgType::Array(ace_lang::ScalarType::Str),
                        "rows of {key, data-hex, version, writer}",
                    ),
            )
            .with(
                CmdSpec::new("psGet", "read a key")
                    .required("ns", ArgType::Word, "namespace")
                    .required("key", ArgType::Str, "key")
                    .optional(
                        "digest",
                        ArgType::Word,
                        "true for version/writer/deleted only, no value bytes",
                    ),
            )
            .with(
                CmdSpec::new("psDelete", "tombstone a key")
                    .required("ns", ArgType::Word, "namespace")
                    .required("key", ArgType::Str, "key")
                    .required("version", ArgType::Int, "client-assigned version")
                    .required("writer", ArgType::Str, "writer id"),
            )
            .with(CmdSpec::new("psList", "live keys in a namespace").required(
                "ns",
                ArgType::Word,
                "namespace",
            ))
            .with(
                CmdSpec::new("psDigest", "full (ns,key,version,writer) digest")
                    .optional(
                        "summary",
                        ArgType::Word,
                        "true for the 64 bucket sums instead of rows",
                    )
                    .optional(
                        "buckets",
                        ArgType::Vector(ace_lang::ScalarType::Int),
                        "only the rows in these summary buckets (0..63)",
                    ),
            )
            .with(CmdSpec::new("psSync", "nudge the sync worker to run now"))
            .with(CmdSpec::new("psStats", "replica counters"))
    }

    fn on_start(&mut self, ctx: &mut ServiceCtx) {
        let asd = ctx.asd_addr().cloned();
        let fixed_peers = self.peers.clone();
        if asd.is_none() && fixed_peers.is_none() {
            // Standalone replica (unit tests): no peers to sync with.
            return;
        }
        let (nudge_tx, nudge_rx) = crossbeam_channel::unbounded::<()>();
        self.nudge = Some(nudge_tx);
        let net = ctx.net().clone();
        let host = ctx.host().clone();
        let identity = *ctx.identity();
        let own_name = ctx.name().to_string();
        let disk = self.disk.clone();
        let stats = Arc::clone(&self.stats);
        let stop = Arc::clone(&self.stop);
        let interval = self.sync_interval;
        self.worker = Some(
            std::thread::Builder::new()
                .name(format!("{own_name}-sync"))
                .spawn(move || {
                    let mut clients = HashMap::new();
                    while !stop.load(Ordering::SeqCst) {
                        // Wait one interval or until nudged.
                        let _ = nudge_rx.recv_timeout(interval);
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                        sync_round(
                            &net,
                            &host,
                            &identity,
                            asd.as_ref(),
                            fixed_peers.as_deref(),
                            &own_name,
                            &disk,
                            &stats,
                            &mut clients,
                        );
                    }
                })
                .expect("spawn sync worker"),
        );
    }

    fn snapshot_state(&self) -> Option<Vec<u8>> {
        // The data itself lives in the [`DiskImage`], which the upgrade
        // factory hands to the replacement (it is `Arc`-shared, and the
        // WAL epoch fences the superseded instance).  The snapshot carries
        // the replica *configuration* plus the key count at quiesce time
        // so the replacement can sanity-log what it inherited.
        let state = CmdLine::new("replicaState")
            .arg("syncIntervalMs", self.sync_interval.as_millis() as i64)
            .arg("keys", self.disk.len() as i64);
        Some(ace_core::protocol::seal_snapshot("storeReplica", state))
    }

    fn restore_state(&mut self, snapshot: &[u8]) -> Result<(), String> {
        let state = ace_core::protocol::open_snapshot("storeReplica", snapshot)?;
        let interval_ms = state
            .get_int("syncIntervalMs")
            .filter(|&ms| ms > 0)
            .ok_or_else(|| "replica snapshot: malformed syncIntervalMs".to_string())?;
        state
            .get_int("keys")
            .filter(|&k| k >= 0)
            .ok_or_else(|| "replica snapshot: malformed keys".to_string())?;
        self.sync_interval = Duration::from_millis(interval_ms as u64);
        Ok(())
    }

    fn on_stop(&mut self, _ctx: &mut ServiceCtx) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(nudge) = &self.nudge {
            let _ = nudge.send(());
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }

    fn handle(&mut self, ctx: &mut ServiceCtx, cmd: &CmdLine, _from: &ClientInfo) -> Reply {
        match cmd.name() {
            "psPut" | "psDelete" => {
                // Arguments passed semantics validation, but a malformed
                // payload must degrade to an error reply, never a panic
                // that takes the whole replica down.
                let parts = (
                    cmd.get_text("ns"),
                    cmd.get_text("key"),
                    cmd.get_int("version"),
                    cmd.get_text("writer"),
                );
                let (Some(ns), Some(key), Some(version), Some(writer)) = parts else {
                    return Reply::err(ErrorCode::Semantics, "malformed put/delete arguments");
                };
                let Some(data) = (if cmd.name() == "psPut" {
                    cmd.get_text("data").and_then(hex_decode)
                } else {
                    Some(Vec::new())
                }) else {
                    return Reply::err(ErrorCode::Semantics, "data is not valid hex");
                };
                let value = Versioned {
                    data,
                    version: version.max(0) as u64,
                    writer: writer.to_string(),
                    deleted: cmd.name() == "psDelete",
                };
                match self.disk.apply((ns.to_string(), key.to_string()), value) {
                    Ok(applied) => Reply::ok_with(|c| c.arg("applied", applied)),
                    // Log-before-ack: a write the WAL refused is not
                    // durable, so the client must not count this ack.
                    Err(e) => Reply::err(ErrorCode::Internal, format!("write not durable: {e}")),
                }
            }
            "psPutBatch" => {
                let (Some(ns), Some(rows)) = (
                    cmd.get_text("ns").map(str::to_string),
                    cmd.get("items").and_then(Value::as_array),
                ) else {
                    return Reply::err(ErrorCode::Semantics, "malformed batch arguments");
                };
                let mut entries = Vec::with_capacity(rows.len());
                for row in rows {
                    // Homogeneous-array wire format: every cell is a Str,
                    // version travels as its decimal rendering (psDigest
                    // does the same).
                    let parsed = (|| {
                        if row.len() != 4 {
                            return None;
                        }
                        let key = row[0].as_text()?;
                        let data = hex_decode(row[1].as_text()?)?;
                        let version: u64 = row[2].as_text()?.parse().ok()?;
                        let writer = row[3].as_text()?;
                        Some((
                            (ns.clone(), key.to_string()),
                            Versioned {
                                data,
                                version,
                                writer: writer.to_string(),
                                deleted: false,
                            },
                        ))
                    })();
                    let Some(entry) = parsed else {
                        return Reply::err(
                            ErrorCode::Semantics,
                            "batch rows must be {key, data-hex, version, writer}",
                        );
                    };
                    entries.push(entry);
                }
                match self.disk.apply_batch(entries) {
                    Ok(applied) => Reply::ok_with(|c| c.arg("applied", applied as i64)),
                    Err(e) => Reply::err(ErrorCode::Internal, format!("batch not durable: {e}")),
                }
            }
            "psGet" => {
                let (Some(ns), Some(k)) = (cmd.get_text("ns"), cmd.get_text("key")) else {
                    return Reply::err(ErrorCode::Semantics, "malformed get arguments");
                };
                let key = (ns.to_string(), k.to_string());
                let digest_only = cmd.get_bool("digest").unwrap_or(false);
                match self.disk.get(&key) {
                    // Digest mode answers the version question without
                    // shipping the value: the read fan-out pays full-value
                    // transfer at exactly one replica.
                    Some(v) if digest_only => Reply::ok_with(|c| {
                        c.arg("version", v.version as i64)
                            .arg("writer", Value::Str(v.writer.clone()))
                            .arg("deleted", v.deleted)
                    }),
                    Some(v) => Reply::ok_with(|c| {
                        c.arg("data", hex_encode(&v.data))
                            .arg("version", v.version as i64)
                            .arg("writer", Value::Str(v.writer.clone()))
                            .arg("deleted", v.deleted)
                    }),
                    None => Reply::err(ErrorCode::NotFound, "no such key"),
                }
            }
            "psGetLeased" => {
                let (Some(ns), Some(k)) = (cmd.get_text("ns"), cmd.get_text("key")) else {
                    return Reply::err(ErrorCode::Semantics, "malformed get arguments");
                };
                let own = format!("{}:{}", ctx.addr().host, ctx.addr().port);
                let holds = self
                    .lease
                    .as_ref()
                    .is_some_and(|l| l.holder == own && Instant::now() < l.until);
                if !holds {
                    self.leased_refusals += 1;
                    return Reply::err(
                        ErrorCode::BadState,
                        "not the live leaseholder; read via quorum",
                    );
                }
                self.leased_gets += 1;
                let key = (ns.to_string(), k.to_string());
                match self.disk.get(&key) {
                    Some(v) => Reply::ok_with(|c| {
                        c.arg("data", hex_encode(&v.data))
                            .arg("version", v.version as i64)
                            .arg("writer", Value::Str(v.writer.clone()))
                            .arg("deleted", v.deleted)
                    }),
                    None => Reply::err(ErrorCode::NotFound, "no such key"),
                }
            }
            "psLeaseGrant" => {
                let parts = (
                    cmd.get_text("holder"),
                    cmd.get_int("epoch"),
                    cmd.get_int("ttlMs"),
                );
                let (Some(holder), Some(epoch), Some(ttl_ms)) = parts else {
                    return Reply::err(ErrorCode::Semantics, "malformed lease grant");
                };
                let epoch = epoch.max(0) as u64;
                let now = Instant::now();
                // A live lease held by someone else at an equal-or-newer
                // epoch fences this grant: the granter must adopt or
                // outbid, never split the shard between two holders.
                if let Some(cur) = &self.lease {
                    if cur.holder != holder && now < cur.until && cur.epoch >= epoch {
                        let (h, e) = (cur.holder.clone(), cur.epoch as i64);
                        return Reply::err(
                            ErrorCode::BadState,
                            format!("lease held by {h} at epoch {e}"),
                        );
                    }
                }
                self.lease = Some(ReadLease {
                    holder: holder.to_string(),
                    epoch,
                    until: now + Duration::from_millis(ttl_ms.max(0) as u64),
                });
                Reply::ok_with(|c| c.arg("epoch", epoch as i64))
            }
            "psLeaseRevoke" => {
                let (Some(holder), Some(epoch)) = (cmd.get_text("holder"), cmd.get_int("epoch"))
                else {
                    return Reply::err(ErrorCode::Semantics, "malformed lease revoke");
                };
                // Idempotent: revoking a lease we do not hold is success —
                // the desired end state (no such lease) already holds.
                if self
                    .lease
                    .as_ref()
                    .is_some_and(|l| l.holder == holder && l.epoch <= epoch.max(0) as u64)
                {
                    self.lease = None;
                }
                Reply::ok()
            }
            "psSnapFetch" => {
                let Some(offset) = cmd.get_int("offset").filter(|&o| o >= 0) else {
                    return Reply::err(ErrorCode::Semantics, "malformed snapshot offset");
                };
                let chunk = cmd
                    .get_int("chunk")
                    .filter(|&c| c > 0)
                    .unwrap_or(32 * 1024)
                    .min(256 * 1024) as usize;
                if offset == 0 {
                    // Offset 0 cuts a fresh consistent snapshot and caches
                    // it, so one rebuild streams one immutable byte image
                    // while writes keep landing.
                    let (seq, bytes) = self.disk.snapshot_cut();
                    self.snap_cache = Some((seq, Arc::new(bytes)));
                }
                let Some((seq, bytes)) = self.snap_cache.clone() else {
                    return Reply::err(
                        ErrorCode::BadState,
                        "no snapshot cut; fetch offset 0 first",
                    );
                };
                let offset = offset as usize;
                if offset > bytes.len() {
                    return Reply::err(ErrorCode::Semantics, "offset past end of snapshot");
                }
                let end = (offset + chunk).min(bytes.len());
                let total = bytes.len() as i64;
                Reply::ok_with(|c| {
                    c.arg("total", total)
                        .arg("seq", seq as i64)
                        .arg("offset", offset as i64)
                        .arg("data", hex_encode(&bytes[offset..end]))
                })
            }
            "psWalTail" => {
                let Some(since) = cmd.get_int("since").filter(|&s| s >= 0) else {
                    return Reply::err(ErrorCode::Semantics, "malformed tail sequence");
                };
                let max = cmd.get_int("max").filter(|&m| m > 0).unwrap_or(512) as usize;
                match self.disk.tail_since(since as u64, max.min(4096)) {
                    None => Reply::ok_with(|c| {
                        // The cut fell off the tail ring: report the gap so
                        // the fetcher re-ships a snapshot instead of
                        // silently missing writes.
                        c.arg("gap", true).arg("latest", 0i64).arg("count", 0i64)
                    }),
                    Some((entries, latest)) => {
                        let rows: Vec<Vec<Scalar>> = entries
                            .into_iter()
                            .map(|(seq, (ns, key), v)| {
                                vec![
                                    Scalar::Str(seq.to_string()),
                                    Scalar::Str(ns),
                                    Scalar::Str(key),
                                    Scalar::Str(hex_encode(&v.data)),
                                    Scalar::Str(v.version.to_string()),
                                    Scalar::Str(v.writer),
                                    Scalar::Str(if v.deleted { "1" } else { "0" }.into()),
                                ]
                            })
                            .collect();
                        Reply::ok_with(|c| {
                            c.arg("gap", false)
                                .arg("latest", latest as i64)
                                .arg("count", rows.len() as i64)
                                .arg("entries", Value::Array(rows))
                        })
                    }
                }
            }
            "psPlacement" => match &self.placement {
                Some(placement) => placement.to_reply(),
                None => Reply::err(ErrorCode::NotFound, "replica carries no placement map"),
            },
            "psList" => {
                let Some(ns) = cmd.get_text("ns") else {
                    return Reply::err(ErrorCode::Semantics, "malformed list arguments");
                };
                let keys: Vec<Scalar> = self.disk.list(ns).into_iter().map(Scalar::Str).collect();
                Reply::ok_with(|c| {
                    c.arg("count", keys.len() as i64)
                        .arg("keys", Value::Vector(keys))
                })
            }
            "psDigest" => {
                let rows = match digest_query(cmd) {
                    Err(why) => return Reply::err(ErrorCode::Semantics, why),
                    Ok(DigestQuery::Summary) => {
                        return Reply::ok_with(|c| c.arg("sums", self.disk.summary().to_value()))
                    }
                    Ok(DigestQuery::Buckets(buckets)) => self.disk.digest_buckets(&buckets),
                    Ok(DigestQuery::Full) => self.disk.digest(),
                };
                let rows: Vec<Vec<Scalar>> = rows
                    .into_iter()
                    .map(|(ns, k, version, writer)| {
                        vec![
                            Scalar::Str(ns),
                            Scalar::Str(k),
                            Scalar::Str(version.to_string()),
                            Scalar::Str(writer),
                        ]
                    })
                    .collect();
                Reply::ok_with(|c| {
                    c.arg("count", rows.len() as i64)
                        .arg("entries", Value::Array(rows))
                })
            }
            "psSync" => {
                if let Some(nudge) = &self.nudge {
                    let _ = nudge.send(());
                }
                Reply::ok()
            }
            "psStats" => {
                let wal = self.disk.wal_stats().unwrap_or_default();
                Reply::ok_with(|c| {
                    c.arg("entries", self.disk.len() as i64)
                        .arg("syncs", self.stats.syncs.load(Ordering::Relaxed) as i64)
                        .arg("pulled", self.stats.pulled.load(Ordering::Relaxed) as i64)
                        .arg(
                            "syncSkipped",
                            self.stats.sync_skipped.load(Ordering::Relaxed) as i64,
                        )
                        .arg(
                            "digestRows",
                            self.stats.digest_rows.load(Ordering::Relaxed) as i64,
                        )
                        .arg(
                            "pullErrors",
                            self.stats.pull_errors.load(Ordering::Relaxed) as i64,
                        )
                        .arg("walAppends", wal.appends as i64)
                        .arg("walCompactions", wal.compactions as i64)
                        .arg("walAppendFailures", wal.append_failures as i64)
                        .arg("walBatches", wal.batches as i64)
                        .arg("walFsyncs", wal.fsyncs as i64)
                        .arg("walFsyncsSaved", wal.fsyncs_saved as i64)
                        .arg("walMaxBatch", wal.max_batch_records as i64)
                        .arg("leasedGets", self.leased_gets as i64)
                        .arg("leasedRefusals", self.leased_refusals as i64)
                        .arg(
                            "checksum",
                            Value::Word(format!("x{:016x}", self.disk.checksum())),
                        )
                })
            }
            other => Reply::err(ErrorCode::Internal, format!("unrouted command `{other}`")),
        }
    }

    /// Re-export WAL batch and sync state into the daemon's unified metrics
    /// registry, so `aceStats` and the periodic stats events carry them
    /// alongside the framework's own counters.  Series are keyed by the
    /// daemon name (`store.<name>.entries`): co-located replicas whose
    /// stats land in one registry (or one downstream aggregation) must
    /// stay distinct series, not overwrite each other.
    fn on_stats(&mut self, ctx: &mut ServiceCtx) {
        let name = ctx.name().to_string();
        let m = ctx.metrics();
        let gauge = |suffix: &str| m.gauge(&format!("store.{name}.{suffix}"));
        gauge("entries").set(self.disk.len() as i64);
        gauge("syncs").set(self.stats.syncs.load(Ordering::Relaxed) as i64);
        gauge("pulled").set(self.stats.pulled.load(Ordering::Relaxed) as i64);
        gauge("syncSkipped").set(self.stats.sync_skipped.load(Ordering::Relaxed) as i64);
        gauge("digestRows").set(self.stats.digest_rows.load(Ordering::Relaxed) as i64);
        gauge("pullErrors").set(self.stats.pull_errors.load(Ordering::Relaxed) as i64);
        gauge("leasedGets").set(self.leased_gets as i64);
        if let Some(wal) = self.disk.wal_stats() {
            let gauge = |suffix: &str| m.gauge(&format!("wal.{name}.{suffix}"));
            gauge("appends").set(wal.appends as i64);
            gauge("compactions").set(wal.compactions as i64);
            gauge("appendFailures").set(wal.append_failures as i64);
            gauge("batches").set(wal.batches as i64);
            gauge("fsyncs").set(wal.fsyncs as i64);
            gauge("fsyncsSaved").set(wal.fsyncs_saved as i64);
            gauge("maxBatchRecords").set(wal.max_batch_records as i64);
        }
    }
}

impl Drop for StoreReplica {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(nudge) = &self.nudge {
            let _ = nudge.send(());
        }
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disk_applies_only_newer() {
        let disk = DiskImage::new();
        let key = ("ns".to_string(), "k".to_string());
        let v1 = Versioned {
            data: b"one".to_vec(),
            version: 1,
            writer: "a".into(),
            deleted: false,
        };
        let v2 = Versioned {
            data: b"two".to_vec(),
            version: 2,
            writer: "a".into(),
            deleted: false,
        };
        assert!(disk.apply(key.clone(), v1.clone()).unwrap());
        assert!(disk.apply(key.clone(), v2.clone()).unwrap());
        assert!(
            !disk.apply(key.clone(), v1).unwrap(),
            "stale write rejected"
        );
        assert_eq!(disk.get(&key).unwrap().data, b"two");
    }

    #[test]
    fn tombstones_hide_from_list_but_stay_in_digest() {
        let disk = DiskImage::new();
        disk.apply(
            ("ns".into(), "k".into()),
            Versioned {
                data: b"x".to_vec(),
                version: 1,
                writer: "a".into(),
                deleted: false,
            },
        )
        .unwrap();
        assert_eq!(disk.list("ns"), vec!["k".to_string()]);
        disk.apply(
            ("ns".into(), "k".into()),
            Versioned {
                data: vec![],
                version: 2,
                writer: "a".into(),
                deleted: true,
            },
        )
        .unwrap();
        assert!(disk.list("ns").is_empty());
        assert_eq!(disk.digest().len(), 1);
    }

    #[test]
    fn checksum_tracks_convergence() {
        let a = DiskImage::new();
        let b = DiskImage::new();
        assert_eq!(a.checksum(), b.checksum());
        let value = Versioned {
            data: b"v".to_vec(),
            version: 1,
            writer: "w".into(),
            deleted: false,
        };
        a.apply(("n".into(), "k".into()), value.clone()).unwrap();
        assert_ne!(a.checksum(), b.checksum());
        b.apply(("n".into(), "k".into()), value).unwrap();
        assert_eq!(a.checksum(), b.checksum());
    }

    #[test]
    fn durable_image_recovers_and_resets_on_corruption() {
        use crate::wal::MemStorage;
        let storage = MemStorage::new();
        let handle = StorageHandle::Memory(storage.clone());
        let (disk, report) = DiskImage::open(&handle, WalConfig::default()).unwrap();
        assert!(!report.reset);
        disk.apply(
            ("ns".into(), "k".into()),
            Versioned {
                data: b"v".to_vec(),
                version: 1,
                writer: "w".into(),
                deleted: false,
            },
        )
        .unwrap();
        // Reopen (crash + respawn): the write is still there.
        let (disk2, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
        assert_eq!(report.replayed_records, 1);
        assert_eq!(disk2.get(&("ns".into(), "k".into())).unwrap().data, b"v");
        // Corrupt the log in place: open refuses, open_or_reset resets.
        let mut bytes = storage.log_bytes();
        bytes[10] ^= 0x40;
        storage.set_log_bytes(bytes);
        assert!(matches!(
            DiskImage::open(&handle, WalConfig::default()),
            Err(StoreError::Corrupt { .. })
        ));
        let (disk3, report) = DiskImage::open_or_reset(&handle, WalConfig::default()).unwrap();
        assert!(report.reset);
        assert!(
            disk3.is_empty(),
            "reset image starts empty for anti-entropy"
        );
    }

    fn versioned(version: u64, writer: &str) -> Versioned {
        Versioned {
            data: vec![0xAB; 256],
            version,
            writer: writer.into(),
            deleted: false,
        }
    }

    #[test]
    fn summary_follows_overwrites_and_isolates_buckets() {
        let disk = DiskImage::new();
        assert_eq!(disk.summary(), Summary::default());
        for i in 0..200 {
            disk.apply(("ns".into(), format!("k{i}")), versioned(1, "a"))
                .unwrap();
        }
        assert_eq!(disk.summary(), disk.recomputed_summary());
        let before = disk.summary();
        let key: StoreKey = ("ns".into(), "k7".into());
        disk.apply(key.clone(), versioned(2, "a")).unwrap();
        assert_eq!(disk.summary(), disk.recomputed_summary());
        assert_eq!(
            disk.summary().differing(&before),
            vec![bucket_of("ns", "k7")],
            "an overwrite moves exactly its own bucket"
        );
        // The version-only accessor agrees with the full read.
        assert_eq!(disk.version_of(&key), Some((2, "a".to_string())));
        assert_eq!(disk.version_of(&("ns".into(), "absent".into())), None);
        // Bucket rows partition the full digest.
        let all: Vec<usize> = (0..SUMMARY_BUCKETS).collect();
        assert_eq!(disk.digest_buckets(&all), disk.digest());
        let one = disk.digest_buckets(&[bucket_of("ns", "k7")]);
        assert!(one
            .iter()
            .all(|(ns, k, _, _)| bucket_of(ns, k) == bucket_of("ns", "k7")));
        assert!(one.iter().any(|(_, k, v, _)| k == "k7" && *v == 2));
        assert!(disk.digest_buckets(&[SUMMARY_BUCKETS]).is_empty());
    }

    #[test]
    fn summary_wire_form_roundtrips_and_rejects_malformed() {
        let disk = DiskImage::new();
        for i in 0..50 {
            disk.apply(("ns".into(), format!("k{i}")), versioned(i, "w"))
                .unwrap();
        }
        let summary = disk.summary();
        let wire = CmdLine::new("ok").arg("sums", summary.to_value()).to_wire();
        let parsed = ace_lang::parse(&wire).unwrap();
        assert_eq!(
            Summary::from_value(parsed.get("sums").unwrap()),
            Some(summary)
        );
        let short = Value::Vector(vec![Scalar::Int(0); SUMMARY_BUCKETS - 1]);
        assert_eq!(Summary::from_value(&short), None);
        let mut words = vec![Scalar::Int(0); SUMMARY_BUCKETS];
        words[3] = Scalar::Word("x".into());
        assert_eq!(Summary::from_value(&Value::Vector(words)), None);
        assert_eq!(Summary::from_value(&Value::Int(1)), None);
    }
}
