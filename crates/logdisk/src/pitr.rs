//! Point-in-time restore: multi-version segment history, idempotent
//! replay, and retention merging.
//!
//! The sealed-segment records ([`SealedSegment`]) already keep every
//! mapping generation — a rewrite appends a new `(lsn, logical,
//! physical)` entry instead of erasing the old one — so the durable
//! history is a full version chain down to the **retention floor**.
//! [`LogicalDisk::restore_to_lsn`] rebuilds the exact logical→physical
//! map as of *any* retained LSN by replaying entries below the target
//! through an idempotent [`Replayer`]; replaying a prefix twice (or
//! resuming after a mid-replay crash) is a no-op, because every slot is
//! guarded by the LSN that last advanced it.
//!
//! Unbounded history would explode physical use, so
//! [`LogicalDisk::merge_below_watermark`] audits the segments wholly
//! below a watermark and folds them into one *merged* segment keeping
//! only the newest entry per logical block — exactly the state any
//! restore at or above the watermark can still observe — and raises
//! the retention floor; a candidate that fails its audit refuses the
//! merge instead.
//! The cleaner drives this from its normal passes
//! ([`CleaningDisk::with_retention`]), making retention pressure part
//! of the measured workload rather than a free lunch.
//!
//! [`CleaningDisk::with_retention`]: crate::cleaner::CleaningDisk::with_retention

use crate::{LogicalDisk, MapEntry, SealedSegment, UNMAPPED};

/// Why a [`LogicalDisk::restore_to_lsn`] request (or, with
/// [`CorruptSegment`](RestoreError::CorruptSegment) only, a
/// [`LogicalDisk::merge_below_watermark`] pass) was refused.
///
/// Refusal is loud by design: a restore that cannot be exact returns an
/// error, never an approximate map.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RestoreError {
    /// The target LSN predates the retention floor (merged away).
    BelowRetention {
        /// Lowest restorable LSN.
        floor: u64,
    },
    /// The target LSN is past the durable head (those writes were never
    /// sealed, so no exact map for them exists on disk).
    BeyondDurable {
        /// One past the newest restorable LSN.
        durable: u64,
    },
    /// A retained segment failed its checksum audit; restoring through
    /// corrupt history would risk a silently wrong map, so the restore
    /// refuses. Scrub (quarantine + redo-tail replay) and retry.
    CorruptSegment {
        /// Index of the offending segment in [`LogicalDisk::segments`].
        index: usize,
    },
}

impl std::fmt::Display for RestoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RestoreError::BelowRetention { floor } => {
                write!(f, "target LSN below retention floor {floor}")
            }
            RestoreError::BeyondDurable { durable } => {
                write!(f, "target LSN beyond durable head {durable}")
            }
            RestoreError::CorruptSegment { index } => {
                write!(f, "segment {index} failed checksum audit")
            }
        }
    }
}

impl std::error::Error for RestoreError {}

/// Result of one [`LogicalDisk::merge_below_watermark`] pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MergeReport {
    /// Segments folded into the merged record this pass.
    pub merged_segments: u64,
    /// History entries dropped (superseded below the watermark).
    pub pruned_entries: u64,
    /// Mapping entries retained across the whole history after the pass.
    pub retained_entries: u64,
}

/// An idempotent mapping replayer: entries can arrive in any order, any
/// number of times, and the newest LSN per logical block always wins.
///
/// Each slot remembers the LSN that last advanced it, so re-applying a
/// prefix — or resuming a replay that crashed halfway — changes
/// nothing. This is the engine under [`LogicalDisk::rebuild_map`] and
/// [`LogicalDisk::restore_to_lsn`].
#[derive(Debug, Clone)]
pub struct Replayer {
    map: Vec<i64>,
    /// Per-slot guard: `lsn + 1` of the entry that set it (0 = never).
    applied: Vec<u64>,
    advanced: u64,
}

impl Replayer {
    /// A fresh replayer over a disk of `blocks` logical blocks.
    pub fn new(blocks: usize) -> Self {
        Replayer {
            map: vec![UNMAPPED; blocks],
            applied: vec![0; blocks],
            advanced: 0,
        }
    }

    /// Applies one entry; returns whether it advanced the map (false
    /// when an equal-or-newer entry already holds the slot, or the
    /// logical block is out of range).
    #[inline]
    pub fn apply(&mut self, e: &MapEntry) -> bool {
        let Some(guard) = self.applied.get_mut(e.logical as usize) else {
            return false;
        };
        if e.lsn < *guard {
            return false;
        }
        *guard = e.lsn + 1;
        self.map[e.logical as usize] = e.physical as i64;
        self.advanced += 1;
        true
    }

    /// Applies every entry of a segment; returns how many advanced.
    pub fn apply_segment(&mut self, s: &SealedSegment) -> u64 {
        let mut n = 0;
        for e in &s.entries {
            n += self.apply(e) as u64;
        }
        n
    }

    /// Entries that have advanced the map so far.
    pub fn advanced(&self) -> u64 {
        self.advanced
    }

    /// The replayed map (read-only view).
    pub fn map(&self) -> &[i64] {
        &self.map
    }

    /// Consumes the replayer, yielding the replayed map.
    pub fn into_map(self) -> Vec<i64> {
        self.map
    }
}

impl LogicalDisk {
    /// One past the newest durably sealed LSN (the durable head).
    pub fn durable_lsn(&self) -> u64 {
        self.durable_lsn
    }

    /// The next LSN a write would receive (the log clock).
    pub fn head_lsn(&self) -> u64 {
        self.stats.writes
    }

    /// Lowest LSN still restorable. Starts at 0; raised by
    /// [`merge_below_watermark`](LogicalDisk::merge_below_watermark).
    pub fn retention_floor(&self) -> u64 {
        self.retention_floor
    }

    /// Mapping entries retained across the whole durable history.
    pub fn retained_entries(&self) -> u64 {
        self.segments.iter().map(|s| s.entries.len() as u64).sum()
    }

    /// Modelled bytes of the retained history: 24 bytes per entry
    /// (three u64 words) plus a 40-byte summary block per segment.
    pub fn retained_bytes(&self) -> u64 {
        self.retained_entries() * 24 + self.segments.len() as u64 * 40
    }

    /// Rebuilds the exact logical→physical map **as of LSN `lsn`** —
    /// the map an observer would have seen after the first `lsn` writes
    /// — from the retained multi-version history. `lsn` may point
    /// mid-segment: physical addresses are assigned at write time and
    /// only sealed later, so the prefix below `lsn` is exact.
    ///
    /// Every retained segment is checksum-audited first; a mismatch
    /// refuses the restore ([`RestoreError::CorruptSegment`]) rather
    /// than replaying through corrupt history, and every mismatching
    /// segment the audit found is counted in
    /// [`LdStats::checksum_failures`](crate::LdStats::checksum_failures)
    /// so corruption first noticed by a restore still reaches
    /// telemetry. (Each audit counts what it finds, so a scrub after a
    /// refused restore counts — and quarantines — the same rot again.)
    /// The live disk is not modified (only statistics move): the
    /// returned map can be adopted via [`LogicalDisk::with_map`] or
    /// handed to a graft.
    pub fn restore_to_lsn(&mut self, lsn: u64) -> Result<Vec<i64>, RestoreError> {
        if lsn < self.retention_floor {
            return Err(RestoreError::BelowRetention {
                floor: self.retention_floor,
            });
        }
        if lsn > self.durable_lsn {
            return Err(RestoreError::BeyondDurable {
                durable: self.durable_lsn,
            });
        }
        // Audit everything before believing anything: a rotted segment
        // cannot even be trusted about which LSNs it claims to hold.
        // A refusal is loud in telemetry too, but read-only: the
        // mismatches are counted, nothing is quarantined here.
        let seed = self.checksum_seed;
        let mut corrupt = self
            .segments
            .iter()
            .enumerate()
            .filter(|(_, s)| !s.verify(seed))
            .map(|(i, _)| i);
        if let Some(index) = corrupt.next() {
            self.stats.checksum_failures += 1 + corrupt.count() as u64;
            return Err(RestoreError::CorruptSegment { index });
        }
        let mut replayer = Replayer::new(self.config.blocks);
        for s in &self.segments {
            if s.base_lsn >= lsn {
                continue; // wholly after the target
            }
            for e in s.entries.iter().filter(|e| e.lsn < lsn) {
                replayer.apply(e);
            }
        }
        self.stats.restores += 1;
        self.stats.restored_mappings += replayer.advanced();
        Ok(replayer.into_map())
    }

    /// Folds every segment wholly below `watermark` into one *merged*
    /// segment that keeps only the newest entry per logical block —
    /// precisely the state any restore at or above the watermark can
    /// still observe — then raises the retention floor to the watermark
    /// (clamped to the durable head). Restores in
    /// `[watermark, durable_lsn]` are bit-for-bit unchanged by the
    /// merge; restores below it now refuse with
    /// [`RestoreError::BelowRetention`].
    ///
    /// Segments are kept in LSN order, so the candidates are the
    /// prefix of [`LogicalDisk::segments`] whose records end at or
    /// below the watermark, and the pass costs in proportion to the
    /// entries it folds. Every candidate is checksum-audited first:
    /// sealing a fold of rotted entries under a fresh checksum would
    /// launder the rot into history that later audits trust. On a
    /// mismatch the merge refuses ([`RestoreError::CorruptSegment`],
    /// the first offending index): nothing is folded, the retention
    /// floor stays, and the mismatching candidates are counted in
    /// [`LdStats::checksum_failures`](crate::LdStats::checksum_failures)
    /// — read-only, as a refused restore does; a later
    /// [`scrub`](LogicalDisk::scrub) quarantines them.
    ///
    /// The merged segment is sealed under the same checksum family as
    /// fresh ones and participates in later merges, so repeated passes
    /// compound instead of stacking.
    pub fn merge_below_watermark(&mut self, watermark: u64) -> Result<MergeReport, RestoreError> {
        let watermark = watermark.min(self.durable_lsn);
        let n = self
            .segments
            .iter()
            .take_while(|s| s.end_lsn() <= watermark)
            .count();
        let candidates = &self.segments[..n];
        // Newest entry per logical block among the candidates survives:
        // stamp each block with `lsn + 1` of its newest entry (the
        // `Replayer` guard), then keep the entries that carry the
        // stamp. Stamping rides along with the audit, and is thrown
        // away if the audit refuses; it skips out-of-range blocks,
        // which only rot can produce.
        let seed = self.checksum_seed;
        let mut newest = vec![0u64; self.config.blocks];
        let mut total = 0u64;
        let mut first_corrupt = None;
        let mut failures = 0u64;
        for (i, s) in candidates.iter().enumerate() {
            total += s.entries.len() as u64;
            let sum = s.digest(seed, |e| {
                if let Some(stamp) = newest.get_mut(e.logical as usize) {
                    *stamp = (*stamp).max(e.lsn + 1);
                }
            });
            if sum != s.checksum {
                first_corrupt.get_or_insert(i);
                failures += 1;
            }
        }
        if let Some(index) = first_corrupt {
            self.stats.checksum_failures += failures;
            return Err(RestoreError::CorruptSegment { index });
        }
        self.retention_floor = self.retention_floor.max(watermark);
        self.stats.merge_passes += 1;
        if n == 0 {
            return Ok(MergeReport {
                retained_entries: self.retained_entries(),
                ..MergeReport::default()
            });
        }
        // The candidates are in LSN order, so the survivors come out in
        // LSN order; clearing a stamp once used keeps one per block.
        let mut survivors = Vec::new();
        for e in candidates.iter().flat_map(|s| &s.entries) {
            let stamp = &mut newest[e.logical as usize];
            if *stamp == e.lsn + 1 {
                *stamp = 0;
                survivors.push(*e);
            }
        }
        let pruned = total - survivors.len() as u64;
        let mut merged = SealedSegment {
            base_lsn: survivors.first().map(|e| e.lsn).unwrap_or(watermark),
            physical_start: survivors.iter().map(|e| e.physical).min().unwrap_or(0),
            merged: true,
            entries: survivors,
            checksum: 0,
        };
        merged.seal(seed);
        // The merged record takes the last candidate's place; the rest
        // of the prefix goes in one shift.
        self.segments[n - 1] = merged;
        self.segments.drain(..n - 1);
        self.stats.merged_segments += n as u64;
        self.stats.pruned_entries += pruned;
        Ok(MergeReport {
            merged_segments: n as u64,
            pruned_entries: pruned,
            retained_entries: self.retained_entries(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{workload, LdConfig};

    fn config() -> LdConfig {
        LdConfig {
            blocks: 128,
            segment_blocks: 8,
        }
    }

    /// The oracle map as of `lsn`: replay the stream prefix by hand.
    fn oracle_prefix(cfg: LdConfig, stream: &[u64], lsn: u64) -> Vec<i64> {
        let mut m = vec![UNMAPPED; cfg.blocks];
        for (i, &l) in stream.iter().take(lsn as usize).enumerate() {
            m[l as usize] = i as i64;
        }
        m
    }

    #[test]
    fn restore_is_exact_at_every_retained_lsn() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 200, 11).collect();
        let mut d = LogicalDisk::new(cfg);
        for &l in &stream {
            d.write(l);
        }
        let durable = d.durable_lsn();
        // 200 writes over 8-block segments: all 25 segments sealed.
        assert_eq!(durable, 200);
        for lsn in 0..=durable {
            let restored = d.restore_to_lsn(lsn).unwrap();
            assert_eq!(
                restored,
                oracle_prefix(cfg, &stream, lsn),
                "restore to LSN {lsn} diverged"
            );
        }
        let s = d.stats();
        assert_eq!(s.restores, durable + 1);
    }

    #[test]
    fn restore_refuses_beyond_the_durable_head() {
        let mut d = LogicalDisk::new(config());
        for l in 0..12u64 {
            d.write(l);
        }
        assert_eq!(d.durable_lsn(), 8);
        assert!(d.restore_to_lsn(8).is_ok());
        assert_eq!(
            d.restore_to_lsn(9),
            Err(RestoreError::BeyondDurable { durable: 8 })
        );
    }

    #[test]
    fn restore_refuses_corrupt_history_loudly() {
        let mut d = LogicalDisk::new(config());
        for l in 0..32u64 {
            d.write(l % 16);
        }
        d.corrupt_segment(1, false, 0xDEAD).unwrap();
        assert_eq!(
            d.restore_to_lsn(24),
            Err(RestoreError::CorruptSegment { index: 1 })
        );
        // The refusal reaches telemetry (read-only: counted, nothing
        // quarantined yet)...
        assert_eq!(d.stats().checksum_failures, 1);
        assert_eq!(d.stats().quarantined_segments, 0);
        // ...then scrub quarantines (its own audit counts the same rot
        // again); the remaining history restores again (the quarantined
        // span's mappings are absent — reported, not wrong).
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(d.stats().checksum_failures, 2);
        assert_eq!(d.stats().quarantined_segments, 1);
        assert!(d.restore_to_lsn(24).is_ok());
    }

    #[test]
    fn merge_refuses_to_launder_rotted_history() {
        let cfg = LdConfig {
            blocks: 64,
            segment_blocks: 4,
        };
        let mut d = LogicalDisk::new(cfg);
        for w in 0..32u64 {
            d.write(w % 16);
        }
        let oracle = d.restore_to_lsn(16).unwrap();
        // Rot the physical word of segment 1's first entry (LSN 4,
        // block 4, physical 4 -> 12): the newest copy of block 4 below
        // the watermark, so a fold would keep it.
        d.corrupt_segment(1, false, 2 + (3 << 8)).unwrap();
        let segments = d.segments().to_vec();
        assert_eq!(
            d.merge_below_watermark(16),
            Err(RestoreError::CorruptSegment { index: 1 })
        );
        // Refused: nothing folded, the floor stays, the rot is counted
        // but not quarantined.
        assert_eq!(d.segments(), &segments[..]);
        assert_eq!(d.retention_floor(), 0);
        let s = d.stats();
        assert_eq!(s.checksum_failures, 1);
        assert_eq!(s.quarantined_segments, 0);
        assert_eq!((s.merge_passes, s.merged_segments), (0, 0));
        // A scrub still finds the rot and brackets it by its trusted
        // neighbours; the merge then goes through.
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(r.redo_spans, vec![(4, 8)]);
        assert!(d.merge_below_watermark(16).is_ok());
        assert_eq!(d.retention_floor(), 16);
        assert!(d.scrub().clean());
        // The quarantined span's mappings are absent, never wrong.
        let restored = d.restore_to_lsn(16).unwrap();
        for (b, (&got, &want)) in restored.iter().zip(&oracle).enumerate() {
            if (4..8).contains(&b) {
                assert_eq!(got, UNMAPPED, "block {b}");
            } else {
                assert_eq!(got, want, "block {b}");
            }
        }
    }

    #[test]
    fn merge_refuses_rot_that_names_a_block_beyond_the_disk() {
        let mut d = LogicalDisk::new(config());
        for w in 0..32u64 {
            d.write(w % 16);
        }
        // Flip bit 40 of an entry's logical block: folding it would
        // index past the disk, so the audit's verdict must come first.
        d.corrupt_segment(2, false, 1 + (40 << 8)).unwrap();
        assert_eq!(
            d.merge_below_watermark(32),
            Err(RestoreError::CorruptSegment { index: 2 })
        );
        assert_eq!(d.retention_floor(), 0);
    }

    #[test]
    fn corrupt_merged_history_is_reported_as_lost_not_an_empty_span() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 400, 23) {
            d.write(l);
        }
        d.merge_below_watermark(200).unwrap();
        assert!(d.segments()[0].merged);
        d.corrupt_segment(0, false, 0xF00D).unwrap();
        let r = d.scrub();
        assert_eq!(r.failures, 1);
        assert_eq!(r.lost_below_floor, 1);
        assert!(
            r.redo_spans.is_empty(),
            "pre-floor loss has no redoable span in the caller's log"
        );
        assert!(!r.clean());
        // The rest of the history still audits clean, and restores at
        // or above the floor still answer — with the merged mappings
        // absent: reported, never silently wrong.
        assert!(d.scrub().clean());
        assert!(d.restore_to_lsn(d.durable_lsn()).is_ok());
    }

    #[test]
    fn merge_preserves_every_restore_at_or_above_the_watermark() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 400, 23).collect();
        let mut d = LogicalDisk::new(cfg);
        for &l in &stream {
            d.write(l);
        }
        let durable = d.durable_lsn();
        let watermark = 200;
        let before: Vec<Vec<i64>> = (watermark..=durable)
            .map(|lsn| d.restore_to_lsn(lsn).unwrap())
            .collect();
        let entries_before = d.retained_entries();
        let report = d.merge_below_watermark(watermark).unwrap();
        assert!(report.merged_segments > 0);
        assert!(report.pruned_entries > 0, "a skewed stream must supersede");
        assert_eq!(
            d.retained_entries(),
            entries_before - report.pruned_entries
        );
        assert_eq!(d.retention_floor(), watermark);
        for (i, lsn) in (watermark..=durable).enumerate() {
            assert_eq!(
                d.restore_to_lsn(lsn).unwrap(),
                before[i],
                "merge changed restore at LSN {lsn}"
            );
        }
        assert_eq!(
            d.restore_to_lsn(watermark - 1),
            Err(RestoreError::BelowRetention { floor: watermark })
        );
        // The merged record passes audits like any other.
        assert!(d.scrub().clean());
        assert!(d.segments()[0].merged);
    }

    #[test]
    fn merges_compound_instead_of_stacking() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 600, 5) {
            d.write(l);
        }
        d.merge_below_watermark(200).unwrap();
        let after_first = d.segments().len();
        d.merge_below_watermark(400).unwrap();
        // The first merged segment was itself folded into the second.
        assert_eq!(d.segments().iter().filter(|s| s.merged).count(), 1);
        assert!(d.segments().len() < after_first);
        assert_eq!(d.retention_floor(), 400);
    }

    #[test]
    fn rebuild_map_works_over_merged_history() {
        let cfg = config();
        let stream: Vec<u64> = workload::skewed(cfg.blocks, 320, 9).collect();
        let mut oracle = LogicalDisk::new(cfg);
        let mut victim = LogicalDisk::new(cfg);
        for &l in &stream {
            oracle.write(l);
            victim.write(l);
        }
        victim.merge_below_watermark(160).unwrap();
        victim.crash();
        victim.rebuild_map();
        for b in 0..cfg.blocks as u64 {
            assert_eq!(victim.read(b), oracle.read(b), "block {b}");
        }
    }

    #[test]
    fn replayer_is_idempotent_over_prefixes() {
        let cfg = config();
        let mut d = LogicalDisk::new(cfg);
        for l in workload::skewed(cfg.blocks, 160, 3) {
            d.write(l);
        }
        let segs = d.segments();
        let mut once = Replayer::new(cfg.blocks);
        for s in segs {
            once.apply_segment(s);
        }
        // Replay a prefix twice, then the remainder: identical result.
        let mut twice = Replayer::new(cfg.blocks);
        for s in &segs[..10] {
            twice.apply_segment(s);
        }
        for s in segs {
            twice.apply_segment(s);
        }
        assert_eq!(once.map(), twice.map());
        assert_eq!(once.advanced(), twice.advanced());
    }

    #[test]
    fn replayer_ignores_out_of_range_entries() {
        let mut r = Replayer::new(4);
        assert!(!r.apply(&MapEntry {
            lsn: 0,
            logical: 99,
            physical: 0
        }));
        assert_eq!(r.advanced(), 0);
    }

    #[test]
    fn retained_bytes_track_entries_and_summaries() {
        let mut d = LogicalDisk::new(config());
        for l in 0..16u64 {
            d.write(l);
        }
        assert_eq!(d.retained_entries(), 16);
        assert_eq!(d.retained_bytes(), 16 * 24 + 2 * 40);
    }
}
