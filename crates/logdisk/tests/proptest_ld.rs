//! Property tests for the Logical Disk facility, driven by a seeded RNG
//! (no network deps).

use std::collections::{BTreeMap, HashMap};

use graft_rng::{Rng, SmallRng};
use logdisk::{
    cleaner::CleaningDisk, workload, LdConfig, LogicalDisk, MapEntry, Replayer, UNMAPPED,
};

/// The map always reflects the most recent write of each block, and
/// physical addresses are handed out sequentially.
#[test]
fn map_matches_a_hashmap_model() {
    let mut rng = SmallRng::seed_from_u64(0x10D);
    for _case in 0..32 {
        let nwrites = rng.gen_range(0usize..600);
        let writes: Vec<u64> = (0..nwrites).map(|_| rng.gen_range(0u64..256)).collect();
        let config = LdConfig { blocks: 256, segment_blocks: 16 };
        let mut ld = LogicalDisk::new(config);
        let mut model: HashMap<u64, u64> = HashMap::new();
        for (seq, &w) in writes.iter().enumerate() {
            ld.write(w);
            model.insert(w, seq as u64);
        }
        for b in 0..256u64 {
            assert_eq!(ld.read(b), model.get(&b).copied());
        }
        assert_eq!(ld.physical_used(), writes.len() as u64);
        // Unwritten blocks stay unmapped in the raw map too.
        for (b, &p) in ld.map().iter().enumerate() {
            assert_eq!(p == UNMAPPED, !model.contains_key(&(b as u64)));
        }
    }
}

/// Segments flush exactly every `segment_blocks` writes.
#[test]
fn flush_cadence_is_exact() {
    let mut rng = SmallRng::seed_from_u64(0xF1);
    for _case in 0..32 {
        let nwrites = rng.gen_range(0usize..400);
        let config = LdConfig { blocks: 128, segment_blocks: 16 };
        let mut ld = LogicalDisk::new(config);
        let mut flushes = 0u64;
        for i in 0..nwrites {
            let f = ld.write(rng.gen_range(0u64..128));
            assert_eq!(f.is_some(), (i + 1) % 16 == 0);
            if f.is_some() {
                flushes += 1;
            }
        }
        assert_eq!(ld.stats().segments_flushed, flushes);
    }
}

/// Crash-at-every-point: a 10,000-write trace where the disk crashes
/// after *every single write*, rebuilds its map from the checksummed
/// sealed records (paying the full audit each time), redoes the lost
/// tail, and must be observationally equal to a hashmap model at every
/// point. This is the recovery invariant the paper's Logical Disk
/// leans on, tested exhaustively rather than at sampled points.
#[test]
fn rebuild_is_observationally_exact_at_every_crash_point() {
    let config = LdConfig {
        blocks: 1024,
        segment_blocks: 16,
    };
    let trace: Vec<u64> = workload::trace(config.blocks, 10_000, 0xC8A5, 800, 200).collect();
    let mut ld = LogicalDisk::new(config);
    let mut model: HashMap<u64, ()> = HashMap::new();
    for &l in &trace {
        ld.write(l);
        model.insert(l, ());
        // Crash here: in-memory map and open segment are gone.
        let pending = ld.crash();
        ld.rebuild_map();
        for p in pending {
            ld.write(p); // redo-tail replay of the lost writes
        }
        for b in 0..config.blocks as u64 {
            assert_eq!(
                ld.read(b).is_some(),
                model.contains_key(&b),
                "block {b} after crash at write #{}",
                ld.stats().crashes
            );
        }
    }
    assert_eq!(ld.stats().crashes, trace.len() as u64);
    assert_eq!(ld.stats().rebuilds, trace.len() as u64);
    assert_eq!(ld.stats().checksum_failures, 0);
}

/// `crash_with_unpersisted(n)` clamps to the sealed-segment count and,
/// for every n, rebuild + redo of the returned writes restores
/// observational equality with the model.
#[test]
fn unpersisted_crashes_redo_to_the_model_for_every_depth() {
    let mut rng = SmallRng::seed_from_u64(0xDEAD);
    for _case in 0..16 {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let nwrites = rng.gen_range(1usize..800);
        let writes: Vec<u64> = (0..nwrites).map(|_| rng.gen_range(0u64..256)).collect();
        // Lose up to everything — including n far beyond what exists.
        let depth = rng.gen_range(0usize..80);
        let mut ld = LogicalDisk::new(config);
        let mut model: HashMap<u64, ()> = HashMap::new();
        for &w in &writes {
            ld.write(w);
            model.insert(w, ());
        }
        let sealed = ld.segments().len();
        let lost = ld.crash_with_unpersisted(depth);
        assert!(
            lost.len() <= depth.min(sealed) * 16 + 16,
            "clamp: at most min(n, sealed) segments plus the open tail"
        );
        ld.rebuild_map();
        for l in lost {
            ld.write(l); // redo
        }
        for b in 0..256u64 {
            assert_eq!(ld.read(b).is_some(), model.contains_key(&b), "block {b}");
        }
    }
}

/// The replayer is idempotent: replaying any prefix twice — or
/// restarting the whole replay over a half-applied map, as a crash in
/// the middle of recovery would — converges to the same map.
#[test]
fn replay_is_idempotent_under_repeats_and_mid_replay_crashes() {
    let mut rng = SmallRng::seed_from_u64(0x1DE9);
    for _case in 0..16 {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: 8,
        };
        let nwrites = rng.gen_range(8usize..600);
        let mut ld = LogicalDisk::new(config);
        for _ in 0..nwrites {
            ld.write(rng.gen_range(0u64..128));
        }
        let segments = ld.segments();

        // Ground truth: one clean pass.
        let mut clean = Replayer::new(config.blocks);
        for s in segments {
            clean.apply_segment(s);
        }

        // Replaying every prefix twice never moves the map backwards.
        let mut twice = Replayer::new(config.blocks);
        for s in segments {
            twice.apply_segment(s);
            let advanced_before = twice.advanced();
            twice.apply_segment(s);
            assert_eq!(twice.advanced(), advanced_before, "re-replay must no-op");
        }
        assert_eq!(twice.map(), clean.map());

        // Crash mid-replay: apply a random prefix of entries, then
        // restart the full replay over the same half-applied state.
        let cut = rng.gen_range(0usize..segments.len().max(1));
        let mut crashed = Replayer::new(config.blocks);
        for s in &segments[..cut] {
            crashed.apply_segment(s);
        }
        for s in segments {
            crashed.apply_segment(s);
        }
        assert_eq!(crashed.map(), clean.map(), "restarted replay diverged");
    }
}

/// Point-in-time restore is exact at every retained LSN, before and
/// after multi-version merges at random watermarks: the restored map
/// always equals a fresh disk that only ever saw the trace prefix.
#[test]
fn restore_is_exact_at_every_retained_lsn_across_random_merges() {
    let mut rng = SmallRng::seed_from_u64(0x9E57);
    for _case in 0..8 {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: 8,
        };
        let nwrites = rng.gen_range(64usize..400);
        let stream: Vec<u64> = (0..nwrites).map(|_| rng.gen_range(0u64..128)).collect();
        let mut ld = LogicalDisk::new(config);
        for &l in &stream {
            ld.write(l);
        }
        // A couple of merges at random watermarks, compounding.
        for _ in 0..rng.gen_range(0usize..3) {
            let watermark = rng.gen_range(0u64..ld.durable_lsn() + 1);
            ld.merge_below_watermark(watermark).unwrap();
        }
        for lsn in ld.retention_floor()..=ld.durable_lsn() {
            let restored = ld.restore_to_lsn(lsn).unwrap();
            let mut oracle = LogicalDisk::new(config);
            for &l in &stream[..lsn as usize] {
                oracle.write(l);
            }
            assert_eq!(restored.as_slice(), oracle.map(), "restore to LSN {lsn} diverged");
        }
    }
}

/// A merge folds exactly what a `BTreeMap` model says: among the
/// segments wholly below the watermark, the newest entry per logical
/// block, in LSN order, sealed into one merged segment in front of the
/// untouched remainder. Repeated merges fold the previous merged
/// segment in too.
#[test]
fn merge_matches_a_newest_entry_model() {
    let mut rng = SmallRng::seed_from_u64(0x3E46);
    for _case in 0..48 {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: [4, 8, 16][rng.gen_range(0usize..3)],
        };
        let nwrites = rng.gen_range(0usize..1200);
        let domain = rng.gen_range(1u64..129);
        let mut ld = LogicalDisk::new(config);
        for _ in 0..nwrites {
            ld.write(rng.gen_range(0..domain));
        }
        for _ in 0..rng.gen_range(1usize..4) {
            let watermark = rng.gen_range(0u64..ld.durable_lsn() + 8);
            let before = ld.segments().to_vec();
            let floor = ld.retention_floor();
            let clamped = watermark.min(ld.durable_lsn());
            // Candidates: every segment wholly below the watermark;
            // history is in LSN order, so they lead the list.
            let n = before.iter().filter(|s| s.end_lsn() <= clamped).count();
            assert!(before[..n].iter().all(|s| s.end_lsn() <= clamped));
            let mut newest: BTreeMap<u64, MapEntry> = BTreeMap::new();
            for e in before[..n].iter().flat_map(|s| &s.entries) {
                let slot = newest.entry(e.logical).or_insert(*e);
                if e.lsn > slot.lsn {
                    *slot = *e;
                }
            }
            let mut survivors: Vec<MapEntry> = newest.into_values().collect();
            survivors.sort_by_key(|e| e.lsn);
            let total: usize = before[..n].iter().map(|s| s.entries.len()).sum();

            let report = ld.merge_below_watermark(watermark).unwrap();
            assert_eq!(ld.retention_floor(), floor.max(clamped));
            assert_eq!(report.merged_segments, n as u64);
            if n == 0 {
                assert_eq!(ld.segments(), &before[..]);
                continue;
            }
            assert_eq!(report.pruned_entries, (total - survivors.len()) as u64);
            let merged = &ld.segments()[0];
            assert!(merged.merged);
            assert_eq!(merged.entries, survivors);
            assert_eq!(merged.base_lsn, survivors[0].lsn);
            assert_eq!(
                merged.physical_start,
                survivors.iter().map(|e| e.physical).min().unwrap()
            );
            assert!(merged.verify(ld.checksum_seed()));
            assert_eq!(&ld.segments()[1..], &before[n..]);
        }
    }
}

/// With the cleaner, every written block stays readable no matter how
/// far the workload outruns the disk.
#[test]
fn cleaner_preserves_all_live_blocks() {
    let mut rng = SmallRng::seed_from_u64(0xC1EA);
    for _case in 0..24 {
        let nwrites = rng.gen_range(1usize..1500);
        let config = LdConfig { blocks: 64, segment_blocks: 8 };
        let mut disk = CleaningDisk::new(config, 2);
        let mut written = std::collections::HashSet::new();
        for _ in 0..nwrites {
            let w = rng.gen_range(0u64..64);
            disk.write(w);
            written.insert(w);
        }
        for &b in &written {
            assert!(disk.disk().read(b).is_some(), "block {} lost", b);
        }
    }
}
