//! A greedy segment cleaner — the component the paper's simulation
//! explicitly omits ("Because our simulation does not include a cleaner,
//! we run it for 262144 iterations"). Provided as an extension so the
//! Logical Disk can run indefinitely; the `ablation_ld_cleaner` bench
//! measures what it would have cost.

use crate::{LdConfig, LogicalDisk, SegmentFlush};

/// A segment's index list is compacted once it holds this many times
/// `segment_blocks` entries (or twice its size after the last
/// compaction, whichever is larger).
const COMPACT_FACTOR: usize = 4;

/// Statistics from cleaning activity.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CleanerStats {
    /// Cleaning passes run.
    pub passes: u64,
    /// Live blocks copied forward.
    pub live_copied: u64,
    /// Segments reclaimed.
    pub segments_reclaimed: u64,
    /// Retention merges driven by cleaning passes (refused merges are
    /// not counted).
    pub retention_merges: u64,
    /// History entries pruned by those merges.
    pub retention_pruned: u64,
}

/// Where each logical block's current copy lives, by segment, and per
/// segment the logical blocks written into it, so a cleaning pass finds
/// a victim's live blocks without scanning the whole map. The lists are
/// appended on every write and copy; they may hold stale entries
/// (blocks that moved on) and repeats (blocks rewritten into the same
/// segment), which lookups filter out against `home`.
struct SegmentIndex {
    /// Segment of each block's current copy, [`NOWHERE`] if never
    /// written.
    home: Vec<u32>,
    lists: Vec<Vec<u64>>,
    /// Length past which each list is next compacted.
    bounds: Vec<usize>,
    /// Smallest compaction bound.
    floor: usize,
}

/// `home` of a block never written.
const NOWHERE: u32 = u32::MAX;

impl SegmentIndex {
    fn new(config: LdConfig) -> Self {
        let floor = COMPACT_FACTOR * config.segment_blocks;
        SegmentIndex {
            home: vec![NOWHERE; config.blocks],
            lists: vec![Vec::new(); config.segments()],
            bounds: vec![floor; config.segments()],
            floor,
        }
    }

    /// The segment holding `logical`'s current copy, if it was written.
    fn home(&self, logical: u64) -> Option<usize> {
        match self.home[logical as usize] {
            NOWHERE => None,
            seg => Some(seg as usize),
        }
    }

    /// Records that `logical` was just written into `seg`.
    fn push(&mut self, seg: usize, logical: u64) {
        self.home[logical as usize] = seg as u32;
        let list = &mut self.lists[seg];
        list.push(logical);
        if list.len() > self.bounds[seg] {
            retain_live(list, seg, &self.home);
            self.bounds[seg] = self.floor.max(2 * list.len());
        }
    }

    /// Takes `seg`'s list, reduced to exactly the blocks whose current
    /// copy is in `seg`, in ascending logical order. The caller moves
    /// every one of them, so the segment starts over with an empty
    /// list.
    fn take_live(&mut self, seg: usize) -> Vec<u64> {
        let mut list = std::mem::take(&mut self.lists[seg]);
        self.bounds[seg] = self.floor;
        retain_live(&mut list, seg, &self.home);
        list
    }
}

/// Keeps the blocks of `list` whose current copy is in `seg`, sorted
/// and without repeats.
fn retain_live(list: &mut Vec<u64>, seg: usize, home: &[u32]) {
    list.retain(|&l| home[l as usize] == seg as u32);
    list.sort_unstable();
    list.dedup();
}

/// A Logical Disk with a greedy cleaner layered on top.
///
/// Physical space is tracked per segment; when fewer than
/// `reserve_segments` are free, the cleaner repeatedly picks the segment
/// with the fewest live blocks, rewrites its live blocks (through the
/// normal write path, so they re-batch), and reclaims it. A segment is
/// a log address modulo the disk, so every lap of the log maps back
/// onto the same segments.
pub struct CleaningDisk {
    ld: LogicalDisk,
    config: LdConfig,
    /// Live-block count per physical segment.
    live: Vec<u32>,
    /// Which segment each block lives in, and which blocks each segment
    /// may hold.
    index: SegmentIndex,
    /// The segment the disk's open segment will flush into: its log
    /// address modulo the disk, advanced on every flush.
    open: usize,
    /// Free physical segments available for reuse.
    free_segments: usize,
    /// Cleaning threshold.
    reserve_segments: usize,
    /// When set, every cleaning pass also merges durable history older
    /// than `durable_lsn - window` (multi-version merge), bounding how
    /// much restore history the disk retains.
    retention_window: Option<u64>,
    stats: CleanerStats,
}

impl CleaningDisk {
    /// Wraps a fresh Logical Disk; `reserve_segments` is the low-water
    /// mark that triggers cleaning. Durable history is retained
    /// unboundedly (every LSN stays restorable).
    pub fn new(config: LdConfig, reserve_segments: usize) -> Self {
        CleaningDisk::with_retention(config, reserve_segments, None)
    }

    /// Like [`new`](CleaningDisk::new), but each cleaning pass also
    /// folds segment history older than `window` LSNs behind the
    /// durable head into a merged segment
    /// ([`LogicalDisk::merge_below_watermark`]), so point-in-time
    /// restore reaches back exactly `window` writes while physical
    /// retention stays bounded. `None` keeps everything. A merge
    /// refused over a corrupt segment leaves the history unmerged;
    /// later passes retry it, and succeed once a scrub has quarantined
    /// the rot.
    pub fn with_retention(
        config: LdConfig,
        reserve_segments: usize,
        retention_window: Option<u64>,
    ) -> Self {
        CleaningDisk {
            ld: LogicalDisk::new(config),
            config,
            live: vec![0; config.segments()],
            index: SegmentIndex::new(config),
            open: 0,
            free_segments: config.segments(),
            reserve_segments,
            retention_window,
            stats: CleanerStats::default(),
        }
    }

    /// Accumulated cleaner statistics.
    pub fn stats(&self) -> CleanerStats {
        self.stats
    }

    /// The underlying Logical Disk.
    pub fn disk(&self) -> &LogicalDisk {
        &self.ld
    }

    /// Mutable access to the underlying disk for durability operations
    /// (scrub, restore, merge). These touch only the sealed history and
    /// its statistics, never the live map, so the cleaner's live-block
    /// accounting and segment index stay valid. Writes, crashes and
    /// rebuilds must not go through this handle: they move the map
    /// behind the cleaner's back.
    pub fn disk_mut(&mut self) -> &mut LogicalDisk {
        &mut self.ld
    }

    /// Writes one logical block, cleaning first if space is low.
    pub fn write(&mut self, logical: u64) -> Vec<SegmentFlush> {
        let mut flushes = Vec::new();
        if self.free_segments <= self.reserve_segments {
            self.clean(&mut flushes);
        }
        let old = self.index.home(logical);
        flushes.extend(self.put(logical));
        if let Some(seg) = old {
            self.live[seg] = self.live[seg].saturating_sub(1);
        }
        flushes
    }

    /// Writes `logical` through the disk, indexes it in the open
    /// segment, and accounts the flush it completes, if any.
    fn put(&mut self, logical: u64) -> Option<SegmentFlush> {
        let flush = self.ld.write(logical);
        self.index.push(self.open, logical);
        if let Some(f) = &flush {
            self.note_flush(f);
            self.open = (self.open + 1) % self.config.segments();
        }
        flush
    }

    fn note_flush(&mut self, f: &SegmentFlush) {
        let seg = self.open;
        // Count only blocks whose current copy is in this segment (a
        // block rewritten within the segment is live once).
        let live = f
            .logical
            .iter()
            .filter(|&&l| self.index.home(l) == Some(seg))
            .count() as u32;
        // Rewrites within the segment can double-count; clamp.
        self.live[seg] = live.min(self.config.segment_blocks as u32);
        self.free_segments = self.free_segments.saturating_sub(1);
    }

    /// One greedy cleaning pass: reclaim the emptiest flushed segments
    /// until the reserve is met.
    fn clean(&mut self, flushes: &mut Vec<SegmentFlush>) {
        // Span-timed: a run artifact shows what fraction of wall-clock
        // the cleaner (which the paper's simulation omits) would cost.
        let _span = graft_telemetry::span!("ld_clean_pass");
        self.stats.passes += 1;
        // Reclaim up to a quarter of the disk per pass.
        let target = self.reserve_segments.max(self.config.segments() / 4);
        let mut order: Vec<usize> = (0..self.live.len()).collect();
        order.sort_by_key(|&s| self.live[s]);
        for seg in order {
            if self.free_segments >= target {
                break;
            }
            for l in self.index.take_live(seg) {
                self.stats.live_copied += 1;
                flushes.extend(self.put(l));
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

impl Drop for CleaningDisk {
    /// Flushes cleaner statistics to the global telemetry counters at
    /// teardown (the write path itself stays atomic-free).
    fn drop(&mut self) {
        if !graft_telemetry::enabled() {
            return;
        }
        let s = self.stats;
        graft_telemetry::counter!("cleaner.passes").add(s.passes);
        graft_telemetry::counter!("cleaner.live_copied").add(s.live_copied);
        graft_telemetry::counter!("cleaner.segments_reclaimed").add(s.segments_reclaimed);
        graft_telemetry::counter!("cleaner.retention_merges").add(s.retention_merges);
        graft_telemetry::counter!("cleaner.retention_pruned").add(s.retention_pruned);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload;

    #[test]
    fn cleaner_lets_the_disk_outlive_its_capacity() {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let mut d = CleaningDisk::new(config, 2);
        // Write 4x the disk's capacity — impossible without cleaning.
        for logical in workload::skewed(config.blocks, 4 * config.blocks as u64, 3) {
            d.write(logical);
        }
        let s = d.stats();
        assert!(s.passes > 0, "cleaner must have run");
        assert!(s.segments_reclaimed > 0);
    }

    #[test]
    fn reads_survive_cleaning() {
        let config = LdConfig {
            blocks: 128,
            segment_blocks: 8,
        };
        let mut d = CleaningDisk::new(config, 2);
        for round in 0..6u64 {
            for logical in 0..config.blocks as u64 {
                d.write(logical);
                let _ = round;
            }
        }
        // Every block was written; every block must still translate.
        for logical in 0..config.blocks as u64 {
            assert!(d.disk().read(logical).is_some(), "block {logical} lost");
        }
    }

    #[test]
    fn cleaner_copies_live_blocks_after_the_log_wraps() {
        // graftperf's durable-log shape: a 2048-block domain on a
        // 4096-block disk.
        let config = LdConfig {
            blocks: 4096,
            segment_blocks: 16,
        };
        let mut d = CleaningDisk::new(config, 8);
        let mut stream = workload::skewed(2048, u64::MAX, 7);
        // Eight laps of the log: by then no live block is left at a
        // first-lap address, so only victims chosen by their
        // modulo-disk segment can yield blocks to copy.
        while d.disk().physical_used() < 8 * config.blocks as u64 {
            d.write(stream.next().unwrap());
        }
        let wrapped = d.stats();
        for l in stream.take(4 * config.blocks) {
            d.write(l);
        }
        let s = d.stats();
        assert!(s.passes > wrapped.passes, "cleaner must run after the wrap");
        assert!(
            s.live_copied > wrapped.live_copied,
            "victims after the first lap must yield their live blocks"
        );
    }

    #[test]
    fn retention_merges_refuse_rot_until_a_scrub_quarantines_it() {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let mut stream = workload::skewed(config.blocks, u64::MAX, 21);
        let mut d = CleaningDisk::with_retention(config, 2, Some(128));
        while d.stats().retention_merges < 2 {
            d.write(stream.next().unwrap());
        }
        // Rot the oldest fresh segment, which the next merge would fold.
        assert!(d.disk().segments()[0].merged);
        let rotted = d
            .disk_mut()
            .corrupt_segment(1, false, 2 + (3 << 8))
            .unwrap();
        let floor = d.disk().retention_floor();
        let merges = d.stats().retention_merges;
        let passes = d.stats().passes;
        while d.stats().passes < passes + 4 {
            d.write(stream.next().unwrap());
        }
        // Every pass since the rot refused its merge and counted it.
        assert_eq!(d.stats().retention_merges, merges);
        assert_eq!(d.disk().retention_floor(), floor);
        assert!(d.disk().stats().checksum_failures >= 4);
        assert_eq!(d.disk().stats().quarantined_segments, 0);
        // The rot is still in the history for a scrub to find.
        let r = d.disk_mut().scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(r.redo_spans, vec![(rotted, rotted + 16)]);
        // With the rot quarantined, merges resume and stay clean.
        let passes = d.stats().passes;
        while d.stats().passes < passes + 2 {
            d.write(stream.next().unwrap());
        }
        assert!(d.stats().retention_merges > merges);
        assert!(d.disk().retention_floor() > floor);
        assert!(d.disk_mut().scrub().clean());
    }

    #[test]
    fn retention_window_bounds_history_without_changing_reads() {
        let config = LdConfig {
            blocks: 256,
            segment_blocks: 16,
        };
        let stream: Vec<u64> =
            workload::trace(config.blocks, 6 * config.blocks as u64, 13, 900, 100).collect();
        let mut bounded = CleaningDisk::with_retention(config, 2, Some(128));
        let mut unbounded = CleaningDisk::new(config, 2);
        for &l in &stream {
            bounded.write(l);
            unbounded.write(l);
        }
        assert!(bounded.stats().retention_merges > 0, "merges must run");
        assert!(bounded.stats().retention_pruned > 0);
        assert!(
            bounded.disk().retained_entries() < unbounded.disk().retained_entries(),
            "retention must shrink the durable history"
        );
        // Merging touches only the sealed history, never the live map.
        for l in 0..config.blocks as u64 {
            assert_eq!(bounded.disk().read(l), unbounded.disk().read(l));
        }
        // Restores inside the window still work and stay exact.
        let head = bounded.disk().durable_lsn();
        let floor = bounded.disk().retention_floor();
        assert!(head - floor >= 128 - config.segment_blocks as u64);
        let at_head = bounded.disk_mut().restore_to_lsn(head).unwrap();
        // Blocks with a write still pending in the open segment have
        // moved past the durable head; all others must match exactly.
        let pending: std::collections::HashSet<u64> =
            bounded.disk().pending().iter().copied().collect();
        for (l, &p) in at_head.iter().enumerate() {
            if !pending.contains(&(l as u64)) {
                assert_eq!(p, bounded.disk().map()[l], "block {l}");
            }
        }
    }
}
