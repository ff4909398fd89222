//! Differential test of the cleaner against a naive model: the same
//! greedy policy, but every victim's live blocks come from a scan of
//! the whole map by segment (a log address modulo the disk) instead of
//! the cleaner's per-segment index. Both must produce the same flush
//! stream, statistics, map and retained history, write for write.

use graft_rng::{Rng, SmallRng};
use logdisk::cleaner::{CleanerStats, CleaningDisk};
use logdisk::{workload, LdConfig, LogicalDisk, SegmentFlush};

/// The cleaner's policy with a full-map victim scan.
struct NaiveCleaner {
    ld: LogicalDisk,
    config: LdConfig,
    live: Vec<u32>,
    free_segments: usize,
    reserve_segments: usize,
    retention_window: Option<u64>,
    stats: CleanerStats,
}

impl NaiveCleaner {
    fn new(config: LdConfig, reserve_segments: usize, retention_window: Option<u64>) -> Self {
        NaiveCleaner {
            ld: LogicalDisk::new(config),
            config,
            live: vec![0; config.segments()],
            free_segments: config.segments(),
            reserve_segments,
            retention_window,
            stats: CleanerStats::default(),
        }
    }

    fn segment_of(&self, physical: u64) -> usize {
        (physical as usize / self.config.segment_blocks) % self.config.segments()
    }

    fn write(&mut self, logical: u64) -> Vec<SegmentFlush> {
        let mut flushes = Vec::new();
        if self.free_segments <= self.reserve_segments {
            self.clean(&mut flushes);
        }
        let old = self.ld.read(logical);
        if let Some(f) = self.ld.write(logical) {
            self.note_flush(&f);
            flushes.push(f);
        }
        if let Some(p) = old {
            let seg = self.segment_of(p);
            self.live[seg] = self.live[seg].saturating_sub(1);
        }
        flushes
    }

    fn note_flush(&mut self, f: &SegmentFlush) {
        let seg = self.segment_of(f.physical_start);
        let live = f
            .logical
            .iter()
            .filter(|&&l| self.ld.read(l).is_some_and(|p| self.segment_of(p) == seg))
            .count() as u32;
        self.live[seg] = live.min(self.config.segment_blocks as u32);
        self.free_segments = self.free_segments.saturating_sub(1);
    }

    fn clean(&mut self, flushes: &mut Vec<SegmentFlush>) {
        self.stats.passes += 1;
        let target = self.reserve_segments.max(self.config.segments() / 4);
        let mut order: Vec<usize> = (0..self.live.len()).collect();
        order.sort_by_key(|&s| self.live[s]);
        for seg in order {
            if self.free_segments >= target {
                break;
            }
            let victims: Vec<u64> = (0..self.config.blocks as u64)
                .filter(|&l| self.ld.read(l).is_some_and(|p| self.segment_of(p) == seg))
                .collect();
            for l in victims {
                self.stats.live_copied += 1;
                if let Some(f) = self.ld.write(l) {
                    self.note_flush(&f);
                    flushes.push(f);
                }
            }
            self.live[seg] = 0;
            self.free_segments += 1;
            self.stats.segments_reclaimed += 1;
        }
        if let Some(window) = self.retention_window {
            let watermark = self.ld.durable_lsn().saturating_sub(window);
            if watermark > self.ld.retention_floor() {
                if let Ok(report) = self.ld.merge_below_watermark(watermark) {
                    self.stats.retention_merges += 1;
                    self.stats.retention_pruned += report.pruned_entries;
                }
            }
        }
    }
}

/// Runs `stream` through both cleaners, comparing every write's
/// flushes, and the statistics and maps along the way.
fn check(config: LdConfig, reserve: usize, window: Option<u64>, stream: &[u64]) {
    let mut fast = CleaningDisk::with_retention(config, reserve, window);
    let mut naive = NaiveCleaner::new(config, reserve, window);
    for (i, &l) in stream.iter().enumerate() {
        assert_eq!(fast.write(l), naive.write(l), "flushes of write #{i}");
        if i % 1024 == 0 {
            assert_eq!(fast.stats(), naive.stats, "stats at write #{i}");
            assert_eq!(fast.disk().map(), naive.ld.map(), "map at write #{i}");
        }
    }
    assert_eq!(fast.stats(), naive.stats);
    assert_eq!(fast.disk().map(), naive.ld.map());
    assert_eq!(fast.disk().segments(), naive.ld.segments());
    assert_eq!(fast.disk().stats(), naive.ld.stats());
}

fn uniform(domain: u64, n: usize, seed: u64) -> Vec<u64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n).map(|_| rng.gen_range(0..domain)).collect()
}

/// The durable-log benchmark's shape: 4096 blocks, 16-block segments,
/// writes over half the disk, reserve 8, long enough for the log to
/// wrap several times.
#[test]
fn indexed_cleaner_matches_a_full_map_scan_on_the_benchmark_shape() {
    let config = LdConfig {
        blocks: 4096,
        segment_blocks: 16,
    };
    for seed in 0..3u64 {
        let n = 6 * config.blocks;
        let skewed: Vec<u64> = workload::skewed(2048, n as u64, 0x5EED ^ seed).collect();
        check(config, 8, Some(4 * config.blocks as u64), &skewed);
        check(config, 8, None, &uniform(2048, n, 0xA11 ^ seed));
    }
}

/// Small disks, where victims often hold blocks from several laps and
/// the index lists compact often.
#[test]
fn indexed_cleaner_matches_a_full_map_scan_on_small_disks() {
    let mut rng = SmallRng::seed_from_u64(0xC1EA);
    for case in 0..24u64 {
        let config = LdConfig {
            blocks: 64 << rng.gen_range(0..3),
            segment_blocks: [4, 8][rng.gen_range(0..2)],
        };
        let domain = config.blocks as u64 / [1, 2][rng.gen_range(0..2)];
        let n = rng.gen_range(1..40 * config.blocks);
        let reserve = rng.gen_range(1..4);
        let window = [None, Some(config.blocks as u64)][rng.gen_range(0..2)];
        let stream = if case % 2 == 0 {
            workload::skewed(domain as usize, n as u64, case).collect()
        } else {
            uniform(domain, n, case)
        };
        check(config, reserve, window, &stream);
    }
}
