//! Oracles written from the specification of each operation, sharing
//! no code with the mechanisms they judge. A mismatch is a failed op,
//! never an abort.

use std::collections::HashSet;

use grafts::eviction::MAX_QUEUE;
use kernsim::vm::LruQueue;

/// The eviction rule the paper states: walk the resident pages from
/// least recently used and take the first one not on the hot list
/// (only the first `MAX_QUEUE` are offered); if all are hot, the LRU
/// head. Kept as a plain `Vec` in LRU order.
pub struct LruMirror {
    frames: usize,
    order: Vec<u64>,
    hot: HashSet<u64>,
}

impl LruMirror {
    /// An empty mirror of a pager with `frames` frames and this hot list.
    pub fn new(frames: usize, hot: &[u64]) -> Self {
        LruMirror {
            frames,
            order: Vec::with_capacity(frames + 1),
            hot: hot.iter().copied().collect(),
        }
    }

    /// Whether `page` is resident.
    pub fn resident(&self, page: u64) -> bool {
        self.order.contains(&page)
    }

    /// Applies one access; returns the victim the rule demands.
    pub fn access(&mut self, page: u64) -> Option<u64> {
        if let Some(i) = self.order.iter().position(|&p| p == page) {
            self.order.remove(i);
            self.order.push(page);
            return None;
        }
        let mut victim = None;
        if self.order.len() >= self.frames {
            let v = self
                .order
                .iter()
                .take(MAX_QUEUE)
                .copied()
                .find(|p| !self.hot.contains(p))
                .unwrap_or(self.order[0]);
            self.order.retain(|&p| p != v);
            victim = Some(v);
        }
        self.order.push(page);
        victim
    }

    /// Re-reads the resident set after a mismatch, so one wrong answer
    /// is counted once instead of poisoning every later comparison.
    pub fn resync(&mut self, queue: &LruQueue) {
        self.order = queue.iter_lru().collect();
    }
}

/// RFC 1321 appendix A.5: (message, digest in hex).
const RFC1321: [(&str, &str); 7] = [
    ("", "d41d8cd98f00b204e9800998ecf8427e"),
    ("a", "0cc175b9c0f1b6a831c399e269772661"),
    ("abc", "900150983cd24fb0d6963f7d28e17f72"),
    ("message digest", "f96b697d7cb7938d525a2f31aaf161d0"),
    (
        "abcdefghijklmnopqrstuvwxyz",
        "c3fcd3d76192e4007dfb496cca67e13b",
    ),
    (
        "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789",
        "d174ab98d277d9f5a5611c2c9f419d9f",
    ),
    (
        "12345678901234567890123456789012345678901234567890123456789012345678901234567890",
        "57edf4a22be3c955ac49da2e2107b67a",
    ),
];

fn hex(d: &[u8; 16]) -> String {
    d.iter().map(|b| format!("{b:02x}")).collect()
}

/// Checks the reference MD5 against the RFC vectors; the benchmark
/// refuses to run on a wrong reference.
pub fn md5_reference_ok() -> bool {
    RFC1321
        .iter()
        .all(|(msg, want)| hex(&graft_md5::digest(msg.as_bytes())) == *want)
}

/// Whether a graft's digest matches the reference digest of `data`.
pub fn md5_ok(data: &[u8], got: &[u8; 16]) -> bool {
    graft_md5::digest(data) == *got
}

/// The Logical Disk graft's specification: every write maps the block
/// to the next physical slot, and every 16th write fills a segment.
pub struct LdMirror {
    writes: u64,
    segment: u64,
    map: Vec<i64>,
}

impl LdMirror {
    /// An empty disk of `blocks` logical blocks.
    pub fn new(blocks: usize, segment: u64) -> Self {
        LdMirror {
            writes: 0,
            segment,
            map: vec![-1; blocks],
        }
    }

    /// Applies one write; returns whether it must report a flush.
    pub fn write(&mut self, logical: u64) -> bool {
        self.map[logical as usize] = self.writes as i64;
        self.writes += 1;
        self.writes.is_multiple_of(self.segment)
    }

    /// The physical slot the block must map to.
    pub fn physical(&self, logical: u64) -> i64 {
        self.map[logical as usize]
    }
}

/// The tag a tenant's graft must answer with: a fixed odd multiplier
/// spread over the tenant id, so two tenants never share a tag.
pub fn tenant_tag(tenant: u64) -> i64 {
    (tenant.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 24) as i64
}

/// The value a tenant's tag graft must return for argument `arg`.
pub fn tag_reply(tenant: u64, arg: i64) -> i64 {
    tenant_tag(tenant) ^ arg
}

/// The device's view of the log: which logical block landed at each
/// LSN (physical slot), as reported by segment flushes, replayed into
/// maps by plain assignment. LSNs below `base` have been forgotten.
#[derive(Default)]
pub struct DeviceLog {
    base: u64,
    history: Vec<u64>,
    prev: Vec<i64>,
    head_map: Vec<i64>,
}

impl DeviceLog {
    /// An empty log over `blocks` logical blocks.
    pub fn new(blocks: usize) -> Self {
        DeviceLog {
            head_map: vec![-1; blocks],
            ..DeviceLog::default()
        }
    }

    /// LSNs recorded so far.
    pub fn len(&self) -> u64 {
        self.base + self.history.len() as u64
    }

    /// Records a flushed segment. Returns false if it does not continue
    /// the log exactly where the previous one ended.
    pub fn record(&mut self, physical_start: u64, logical: &[u64]) -> bool {
        if physical_start != self.len() {
            return false;
        }
        for &l in logical {
            let lsn = self.len() as i64;
            self.prev.push(self.head_map[l as usize]);
            self.head_map[l as usize] = lsn;
            self.history.push(l);
        }
        true
    }

    /// The map after the first `lsn` writes, if `base <= lsn <= len()`.
    pub fn map_at(&self, lsn: u64) -> Option<Vec<i64>> {
        if lsn < self.base || lsn > self.len() {
            return None;
        }
        let mut m = self.head_map.clone();
        let from = (lsn - self.base) as usize;
        for j in (from..self.history.len()).rev() {
            m[self.history[j] as usize] = self.prev[j];
        }
        Some(m)
    }

    /// Drops the undo records below `lsn`; maps before it can no longer
    /// be rebuilt. Trims in large steps to keep the cost amortized.
    pub fn forget_below(&mut self, lsn: u64) {
        let drop = lsn.saturating_sub(self.base) as usize;
        if drop > 0 && drop >= self.history.len() / 2 {
            let drop = drop.min(self.history.len());
            self.history.drain(..drop);
            self.prev.drain(..drop);
            self.base += drop as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_mirror_skips_hot_pages_and_catches_a_wrong_victim() {
        let mut m = LruMirror::new(3, &[1]);
        for p in [1, 2, 3] {
            assert_eq!(m.access(p), None);
        }
        // Head 1 is hot, so 2 goes.
        assert_eq!(m.access(4), Some(2));
        // A pager that had evicted the LRU head would disagree.
        assert_ne!(m.access(5), Some(1));
        let mut q = LruQueue::new();
        for p in [7, 8, 9] {
            q.insert(p);
        }
        m.resync(&q);
        assert!(m.resident(7) && !m.resident(1));
    }

    #[test]
    fn lru_mirror_falls_back_to_the_head_when_all_are_hot() {
        let mut m = LruMirror::new(2, &[1, 2]);
        m.access(1);
        m.access(2);
        assert_eq!(m.access(3), Some(1));
    }

    #[test]
    fn md5_oracle_holds_the_rfc_and_rejects_a_flipped_bit() {
        assert!(md5_reference_ok());
        let data = b"graft";
        let mut d = graft_md5::digest(data);
        assert!(md5_ok(data, &d));
        d[3] ^= 1;
        assert!(!md5_ok(data, &d));
    }

    #[test]
    fn ld_mirror_flushes_every_segment_and_tracks_slots() {
        let mut m = LdMirror::new(8, 4);
        let flushes: Vec<bool> = [1, 2, 1, 3, 5].iter().map(|&l| m.write(l)).collect();
        assert_eq!(flushes, vec![false, false, false, true, false]);
        assert_eq!(m.physical(1), 2);
        assert_eq!(m.physical(7), -1);
        // A corrupted read-back differs from the mirror.
        assert_ne!(m.physical(3), 2);
    }

    #[test]
    fn tags_are_distinct_and_a_foreign_tag_fails() {
        let tags: HashSet<i64> = (0..10_000).map(tenant_tag).collect();
        assert_eq!(tags.len(), 10_000);
        assert_ne!(tag_reply(1, 5), tag_reply(2, 5));
    }

    #[test]
    fn device_log_replays_any_prefix_and_rejects_gaps() {
        let mut log = DeviceLog::new(4);
        assert!(log.record(0, &[0, 1]));
        assert!(log.record(2, &[0, 3]));
        assert!(!log.record(5, &[2]));
        assert_eq!(log.map_at(4), Some(vec![2, 1, -1, 3]));
        assert_eq!(log.map_at(2), Some(vec![0, 1, -1, -1]));
        assert_eq!(log.map_at(0), Some(vec![-1; 4]));
        assert_eq!(log.map_at(5), None);
        let mut wrong = log.map_at(3).unwrap();
        wrong[1] = 0;
        assert_ne!(Some(wrong), log.map_at(3));
        log.forget_below(2);
        assert_eq!(log.map_at(1), None);
        assert_eq!(log.map_at(3), Some(vec![2, 1, -1, -1]));
        assert!(log.record(4, &[1]));
        assert_eq!(log.map_at(5), Some(vec![2, 4, -1, 3]));
    }
}
