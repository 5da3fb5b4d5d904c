//! Property tests on the store's convergence model: for any interleaving of
//! writes across replicas, pairwise anti-entropy converges every disk to
//! the same contents, and the winner of each key is the globally maximal
//! `(version, writer)` pair.

use ace_store::{DiskImage, Versioned};
use proptest::prelude::*;

/// One generated write.
#[derive(Debug, Clone)]
struct Op {
    replica: usize,
    key: u8,
    version: u64,
    writer: u8,
    delete: bool,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    // The real system guarantees that a (version, writer) pair uniquely
    // determines a write (writers are distinct principals and bump their
    // own versions), so content derives deterministically from the pair.
    (0usize..3, any::<u8>(), 1u64..16, 0u8..4).prop_map(|(replica, key, version, writer)| Op {
        replica,
        key: key % 8,
        version,
        writer,
        delete: (version + writer as u64).is_multiple_of(3),
    })
}

/// Pull-based pairwise sync: `a` pulls everything newer from `b` (the same
/// rule the replica daemon's sync worker applies).
fn pull(a: &DiskImage, b: &DiskImage) {
    for (ns, key, _, _) in b.digest() {
        let k = (ns, key);
        let remote = b.get(&k).expect("digested");
        a.apply(k, remote).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Any write sequence + enough sync rounds ⇒ all replicas identical,
    /// and each key holds the maximal (version, writer) value.
    #[test]
    fn anti_entropy_converges(ops in prop::collection::vec(op_strategy(), 1..64)) {
        let disks = [DiskImage::new(), DiskImage::new(), DiskImage::new()];
        for op in &ops {
            disks[op.replica].apply(
                ("ns".into(), format!("k{}", op.key)),
                Versioned {
                    data: format!("v{}w{}", op.version, op.writer).into_bytes(),
                    version: op.version,
                    writer: format!("w{}", op.writer),
                    deleted: op.delete,
                },
            ).unwrap();
        }
        // Two full rounds of pairwise pulls guarantee propagation through
        // any 3-node topology.
        for _ in 0..2 {
            for i in 0..3 {
                for j in 0..3 {
                    if i != j {
                        pull(&disks[i], &disks[j]);
                    }
                }
            }
        }
        prop_assert_eq!(disks[0].checksum(), disks[1].checksum());
        prop_assert_eq!(disks[1].checksum(), disks[2].checksum());

        // Winner per key = maximal (version, writer) among all ops on it.
        for key in 0u8..8 {
            let expected = ops
                .iter()
                .filter(|o| o.key == key)
                .max_by_key(|o| (o.version, format!("w{}", o.writer)));
            let stored = disks[0].get(&("ns".into(), format!("k{key}")));
            match (expected, stored) {
                (None, None) => {}
                (Some(op), Some(v)) => {
                    prop_assert_eq!(v.version, op.version);
                    prop_assert_eq!(v.writer, format!("w{}", op.writer));
                    prop_assert_eq!(v.deleted, op.delete);
                }
                (e, s) => prop_assert!(false, "mismatch: {e:?} vs {s:?}"),
            }
        }
    }

    /// Applying the same set of writes in any order yields the same disk.
    #[test]
    fn apply_order_irrelevant(
        ops in prop::collection::vec(op_strategy(), 1..32),
        seed in any::<u64>(),
    ) {
        let value = |op: &Op| Versioned {
            data: vec![op.version as u8],
            version: op.version,
            writer: format!("w{}", op.writer),
            deleted: op.delete,
        };
        let a = DiskImage::new();
        for op in &ops {
            a.apply(("ns".into(), format!("k{}", op.key)), value(op)).unwrap();
        }
        // A deterministic shuffle of the same ops.
        let mut shuffled = ops.clone();
        let mut state = seed | 1;
        for i in (1..shuffled.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            shuffled.swap(i, (state as usize) % (i + 1));
        }
        let b = DiskImage::new();
        for op in &shuffled {
            b.apply(("ns".into(), format!("k{}", op.key)), value(op)).unwrap();
        }
        prop_assert_eq!(a.checksum(), b.checksum());
    }

    /// `beats` is a strict total order on distinct (version, writer) pairs.
    #[test]
    fn beats_total_order(v1 in 0u64..8, w1 in 0u8..4, v2 in 0u64..8, w2 in 0u8..4) {
        let a = Versioned { data: vec![], version: v1, writer: format!("w{w1}"), deleted: false };
        let b = Versioned { data: vec![], version: v2, writer: format!("w{w2}"), deleted: false };
        if (v1, w1) == (v2, w2) {
            prop_assert!(!a.beats(&b) && !b.beats(&a));
        } else {
            prop_assert!(a.beats(&b) ^ b.beats(&a));
        }
    }

    /// Antisymmetry: `beats` never holds in both directions — the payload
    /// (data, tombstone flag) must not influence the order.
    #[test]
    fn beats_antisymmetric(
        v1 in 0u64..8, w1 in 0u8..4, d1 in any::<bool>(),
        v2 in 0u64..8, w2 in 0u8..4, d2 in any::<bool>(),
        data in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let a = Versioned { data, version: v1, writer: format!("w{w1}"), deleted: d1 };
        let b = Versioned { data: vec![0xFF], version: v2, writer: format!("w{w2}"), deleted: d2 };
        prop_assert!(!(a.beats(&b) && b.beats(&a)));
    }

    /// Read-max-plus-one monotonicity: the client's versioning rule (read
    /// the maximal version visible anywhere, write max+1) always produces
    /// a value that beats every value it read past — regardless of the
    /// writer id — and successive rounds are strictly increasing.
    #[test]
    fn read_max_plus_one_is_monotone(
        existing in prop::collection::vec((0u64..32, 0u8..4, any::<bool>()), 1..16),
        writer in 0u8..4,
        rounds in 1usize..5,
    ) {
        let mut seen: Vec<Versioned> = existing
            .into_iter()
            .map(|(version, w, deleted)| Versioned {
                data: vec![],
                version,
                writer: format!("w{w}"),
                deleted,
            })
            .collect();
        let mut last: Option<Versioned> = None;
        for _ in 0..rounds {
            let max = seen.iter().map(|v| v.version).max().unwrap_or(0);
            let new = Versioned {
                data: vec![],
                version: max + 1,
                writer: format!("w{writer}"),
                deleted: false,
            };
            for old in &seen {
                prop_assert!(new.beats(old), "{new:?} must beat visible {old:?}");
            }
            if let Some(prev) = &last {
                prop_assert!(new.beats(prev), "successive writes must be monotone");
            }
            last = Some(new.clone());
            seen.push(new);
        }
    }
}

// ---------------------------------------------------------------------------
// Anti-entropy summary properties
// ---------------------------------------------------------------------------

mod summary_props {
    use super::*;
    use ace_store::{MemStorage, StorageHandle, StoreKey, WalConfig, SUMMARY_BUCKETS};

    fn entry_strategy() -> impl Strategy<Value = (StoreKey, Versioned)> {
        (0u8..2, 0u8..24, 1u64..16, 0u8..4, any::<bool>()).prop_map(
            |(ns, key, version, writer, deleted)| {
                (
                    (format!("ns{ns}"), format!("k{key}")),
                    Versioned {
                        data: format!("v{version}w{writer}").into_bytes(),
                        version,
                        writer: format!("w{writer}"),
                        deleted,
                    },
                )
            },
        )
    }

    /// One mutation of a durable image.
    #[derive(Debug, Clone)]
    enum Step {
        Apply((StoreKey, Versioned)),
        Batch(Vec<(StoreKey, Versioned)>),
        Snapshot(Vec<(StoreKey, Versioned)>),
        /// Drop the image, cut `tear` bytes off the log tail (0 = a clean
        /// restart), and reopen from snapshot + log.
        Reopen {
            tear: u8,
        },
    }

    fn step_strategy() -> impl Strategy<Value = Step> {
        // Weighted by `pick`: half single applies, then batches,
        // snapshot installs and reopens.
        (
            0u8..8,
            prop::collection::vec(entry_strategy(), 1..6),
            any::<u8>(),
        )
            .prop_map(|(pick, mut entries, tear)| match pick {
                0..=3 => Step::Apply(entries.remove(0)),
                4 | 5 => Step::Batch(entries),
                6 => Step::Snapshot(entries),
                _ => Step::Reopen { tear },
            })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// After any interleaving of `apply`, `apply_batch`,
        /// `install_snapshot` and WAL reopen (torn tail included), the
        /// incrementally kept summary equals one recomputed from the map.
        #[test]
        fn summary_tracks_every_mutation(steps in prop::collection::vec(step_strategy(), 1..40)) {
            let storage = MemStorage::new();
            let handle = StorageHandle::Memory(storage.clone());
            // A small threshold so compaction (snapshot + truncate) runs
            // inside the sequence too.
            let config = WalConfig { compact_threshold: 1024, ..WalConfig::default() };
            let (mut disk, _) = DiskImage::open(&handle, config.clone()).unwrap();
            for step in steps {
                match step {
                    Step::Apply((key, value)) => {
                        disk.apply(key, value).unwrap();
                    }
                    Step::Batch(entries) => {
                        disk.apply_batch(entries).unwrap();
                    }
                    Step::Snapshot(entries) => {
                        disk.install_snapshot(entries).unwrap();
                    }
                    Step::Reopen { tear } => {
                        drop(disk);
                        let log = storage.log_bytes();
                        let cut = log.len() - (tear as usize).min(log.len());
                        storage.set_log_bytes(log[..cut].to_vec());
                        disk = DiskImage::open(&handle, config.clone()).unwrap().0;
                    }
                }
                prop_assert_eq!(disk.summary(), disk.recomputed_summary());
            }
        }

        /// Two images agree on a bucket's sum exactly when they hold the
        /// same `(ns, key, version, writer)` rows in it: repair never
        /// misses a difference the summary should have shown.
        #[test]
        fn buckets_differ_exactly_where_rows_differ(
            ops in prop::collection::vec((entry_strategy(), 0usize..3), 0..48),
        ) {
            let (a, b) = (DiskImage::new(), DiskImage::new());
            for ((key, value), target) in ops {
                if target != 1 {
                    a.apply(key.clone(), value.clone()).unwrap();
                }
                if target != 0 {
                    b.apply(key, value).unwrap();
                }
            }
            let differing = a.summary().differing(&b.summary());
            for bucket in 0..SUMMARY_BUCKETS {
                let rows_differ = a.digest_buckets(&[bucket]) != b.digest_buckets(&[bucket]);
                prop_assert_eq!(differing.contains(&bucket), rows_differ);
            }
            prop_assert_eq!(a.digest() == b.digest(), a.checksum() == b.checksum());
        }
    }
}

// ---------------------------------------------------------------------------
// WAL record codec properties
// ---------------------------------------------------------------------------

mod wal_props {
    use super::*;
    use ace_store::wal::{frame_record, replay_bytes};
    use ace_store::{StoreError, StoreKey};

    fn entry_strategy() -> impl Strategy<Value = (StoreKey, Versioned)> {
        (
            0u8..4,
            any::<u8>(),
            1u64..1000,
            0u8..4,
            any::<bool>(),
            prop::collection::vec(any::<u8>(), 0..32),
        )
            .prop_map(|(ns, key, version, writer, deleted, data)| {
                (
                    (format!("ns{ns}"), format!("k{key}")),
                    Versioned {
                        data,
                        version,
                        writer: format!("w{writer}"),
                        deleted,
                    },
                )
            })
    }

    fn concat(entries: &[(StoreKey, Versioned)]) -> Vec<u8> {
        let mut bytes = Vec::new();
        for (k, v) in entries {
            bytes.extend_from_slice(&frame_record(k, v));
        }
        bytes
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Encode → replay is the identity on any record sequence.
        #[test]
        fn records_roundtrip(entries in prop::collection::vec(entry_strategy(), 0..16)) {
            let bytes = concat(&entries);
            let replay = replay_bytes(&bytes).unwrap();
            prop_assert_eq!(replay.entries, entries);
            prop_assert_eq!(replay.good_len, bytes.len() as u64);
            prop_assert_eq!(replay.torn_bytes, 0);
        }

        /// Cutting the log at ANY byte never panics and always replays a
        /// strict prefix of the original records (the crash-tear model).
        #[test]
        fn truncation_replays_a_strict_prefix(
            entries in prop::collection::vec(entry_strategy(), 1..12),
            cut in any::<u16>(),
        ) {
            let bytes = concat(&entries);
            let full = replay_bytes(&bytes).unwrap();
            let cut = (cut as usize) % (bytes.len() + 1);
            let replay = replay_bytes(&bytes[..cut]).unwrap();
            prop_assert!(replay.entries.len() <= full.entries.len());
            prop_assert_eq!(
                replay.entries.as_slice(),
                &full.entries[..replay.entries.len()]
            );
            prop_assert_eq!(replay.good_len + replay.torn_bytes, cut as u64);
        }

        /// Flipping ANY single bit never panics and never fabricates data:
        /// replay either refuses with `Corrupt`, or (when the flip turned
        /// the tail into an apparent tear) yields a strict prefix of the
        /// original records, byte-identical to what was written.
        #[test]
        fn bit_flip_never_panics_and_never_fabricates(
            entries in prop::collection::vec(entry_strategy(), 1..12),
            flip in any::<u32>(),
        ) {
            let mut bytes = concat(&entries);
            let full = replay_bytes(&bytes).unwrap();
            let bit = (flip as usize) % (bytes.len() * 8);
            bytes[bit / 8] ^= 1 << (bit % 8);
            match replay_bytes(&bytes) {
                Err(StoreError::Corrupt { offset, .. }) => {
                    prop_assert!(offset <= bytes.len() as u64);
                }
                Err(e) => prop_assert!(false, "unexpected error class: {e}"),
                Ok(replay) => {
                    prop_assert!(replay.entries.len() <= full.entries.len());
                    prop_assert_eq!(
                        replay.entries.as_slice(),
                        &full.entries[..replay.entries.len()]
                    );
                }
            }
        }
    }
}
