//! Durable-log writes beside restores: a `CleaningDisk` with a
//! retention window takes a write trace in batches; after each batch a
//! seeded `scrub()` or `restore_to_lsn()` runs at a seeded distance
//! into the restorable history. No engine or server runs here.
//!
//! The disk is in memory and makes no device flushes, so every latency
//! here is the sandbox's CPU and memory, not a device's.

use std::time::{Duration, Instant};

use logdisk::cleaner::CleaningDisk;
use logdisk::{LdConfig, LdStats, SegmentFlush};

use crate::gen::{self, Chooser, Spread};
use crate::oracle::DeviceLog;
use crate::report::{ratio, Report};
use crate::stats;
use crate::trace::{self, Tracer};

/// Physical (and logical) blocks of the disk.
pub const BLOCKS: usize = 4096;
/// Logical blocks the trace writes: half the disk, so the cleaner
/// always has dead space to reclaim.
pub const DOMAIN: u64 = BLOCKS as u64 / 2;
/// Blocks per segment.
pub const SEGMENT: usize = 16;
/// Free segments below which the cleaner runs.
pub const RESERVE: usize = 8;
/// Restorable history, in LSNs.
pub const WINDOW: u64 = 4 * BLOCKS as u64;
/// Cleaning passes (each with a retention merge) the prefill must run.
pub const PREFILL_PASSES: u64 = 8;
/// Writes per timed batch.
pub const BATCH: usize = 2048;
/// Untraced batches per measured write rate: about 16 k writes, so
/// each group spans many cleaning passes and carries the same mix of
/// appends, seals and cleans.
pub const GROUP: u64 = 8;
/// Percentile of the group write rates reported as `ld_write_mblk_s`:
/// the fastest tenth of the run, which the host's busy spells (they
/// slow every group they overlap) do not reach.
const RATE_PCT: f64 = 90.0;
/// Share of events that are scrubs; the rest are restores.
pub const SCRUB_SHARE: f64 = 0.1;
/// Pre-generated trace length (cycled).
const TRACE: usize = 1 << 20;
/// Pre-generated events (cycled).
const EVENTS: usize = 1 << 14;

#[derive(Clone, Copy)]
enum Event {
    Scrub,
    /// Restore to this fraction of the way from the retention floor to
    /// the durable head.
    Restore(f64),
}

/// The prefilled disk, its device log, and the pre-generated inputs.
pub struct Durable {
    disk: CleaningDisk,
    log: DeviceLog,
    trace: Vec<u64>,
    cursor: usize,
    events: Vec<Event>,
    /// Log records that did not continue the log (must stay 0).
    log_breaks: u64,
    measured: Measured,
}

/// Hands a batch's segment flushes to the device log; false if any
/// does not continue the log.
fn record(log: &mut DeviceLog, flushes: &[SegmentFlush]) -> bool {
    let mut ok = true;
    for f in flushes {
        ok &= log.record(f.physical_start, &f.logical);
    }
    ok
}

/// Builds the disk and writes until cleaning and retention merges have
/// cycled [`PREFILL_PASSES`] times.
pub fn setup(seed: u64, spread: Spread) -> Durable {
    let mut pick = Chooser::new(gen::sub_seed(seed, 300), DOMAIN, spread);
    let trace = pick.take(TRACE);
    let events = (0..EVENTS)
        .map(|_| {
            if pick.unit() < SCRUB_SHARE {
                Event::Scrub
            } else {
                Event::Restore(pick.unit())
            }
        })
        .collect();
    let config = LdConfig {
        blocks: BLOCKS,
        segment_blocks: SEGMENT,
    };
    let mut s = Durable {
        disk: CleaningDisk::with_retention(config, RESERVE, Some(WINDOW)),
        log: DeviceLog::new(BLOCKS),
        trace,
        cursor: 0,
        events,
        log_breaks: 0,
        measured: Measured::default(),
    };
    while s.disk.stats().passes < PREFILL_PASSES || s.disk.stats().retention_merges < PREFILL_PASSES
    {
        let l = s.trace[s.cursor % s.trace.len()];
        s.cursor += 1;
        let flushes = s.disk.write(l);
        if !record(&mut s.log, &flushes) {
            s.log_breaks += 1;
        }
    }
    s
}

/// What the timed slices have measured so far.
#[derive(Default)]
struct Measured {
    /// Ops and notes so far.
    ops: Report,
    /// Disk counters before the first timed batch.
    ld0: Option<LdStats>,
    /// Events (and batches) so far; even ones are traced in a traced run.
    events: usize,
    user_writes: u64,
    write_ns_plain: u64,
    batches_plain: u64,
    /// The untraced batches of the group being filled: (ns, batches).
    group: (u64, u64),
    /// Write rate of each full group, Mblk/s.
    group_rates: Vec<f64>,
    write_ns_traced: u64,
    batches_traced: u64,
    restores_ms: Vec<f64>,
    scrubs: u64,
    /// Retained bytes per mapped block, sampled after every event.
    space: Vec<f64>,
    /// Per-class write time from traced batches: (ns, writes).
    append: (u64, u64),
    seal: (u64, u64),
    clean: (u64, u64),
}

/// Writes and restores for `window` (at least two restores).
pub fn run_slice(s: &mut Durable, window: Duration, trace_on: bool, tracer: &mut Tracer) {
    let m = &mut s.measured;
    m.ld0.get_or_insert(s.disk.disk().stats());
    let mut flushes = Vec::new();
    let mut restores = 0;
    let start = Instant::now();
    while restores < 2 || start.elapsed() < window {
        // Batches alternate traced and untraced in a traced run.
        tracer.set_on(trace_on && m.events.is_multiple_of(2));
        let op = tracer.op();
        let run: Vec<u64> = (0..BATCH)
            .map(|i| s.trace[(s.cursor + i) % s.trace.len()])
            .collect();
        s.cursor += BATCH;
        flushes.clear();
        let t0 = Instant::now();
        if tracer.on() {
            let root = tracer.open("logdisk.write_batch", 0, t0, None, op);
            for &l in &run {
                let passes = s.disk.stats().passes;
                let a = Instant::now();
                let sealed = s.disk.write(l);
                let b = Instant::now();
                let class = if s.disk.stats().passes != passes {
                    tracer.record("logdisk.clean", 0, a, b, root, op);
                    &mut m.clean
                } else if !sealed.is_empty() {
                    tracer.record("logdisk.seal", 0, a, b, root, op);
                    &mut m.seal
                } else {
                    &mut m.append
                };
                class.0 += (b - a).as_nanos() as u64;
                class.1 += 1;
                flushes.extend(sealed);
            }
            let t1 = Instant::now();
            tracer.close(root, t1);
            m.write_ns_traced += (t1 - t0).as_nanos() as u64;
            m.batches_traced += 1;
        } else {
            for &l in &run {
                flushes.extend(s.disk.write(l));
            }
            let ns = t0.elapsed().as_nanos() as u64;
            m.write_ns_plain += ns;
            m.batches_plain += 1;
            m.group = (m.group.0 + ns, m.group.1 + 1);
            if m.group.1 == GROUP {
                let writes = (GROUP * BATCH as u64) as f64;
                m.group_rates.push(writes / m.group.0 as f64 * 1e3);
                m.group = (0, 0);
            }
        }
        m.user_writes += BATCH as u64;
        m.ops.op(record(&mut s.log, &flushes));

        let op = tracer.op();
        match s.events[m.events % s.events.len()] {
            Event::Scrub => {
                let a = Instant::now();
                let r = s.disk.disk_mut().scrub();
                let b = Instant::now();
                tracer.record("logdisk.scrub", 0, a, b, None, op);
                m.scrubs += 1;
                m.ops.op(r.failures == 0);
            }
            Event::Restore(frac) => {
                let d = s.disk.disk();
                let floor = d.retention_floor();
                let lsn = floor + ((d.durable_lsn() - floor) as f64 * frac) as u64;
                let a = Instant::now();
                let got = s.disk.disk_mut().restore_to_lsn(lsn);
                let b = Instant::now();
                tracer.record("logdisk.restore", 0, a, b, None, op);
                m.restores_ms.push((b - a).as_secs_f64() * 1e3);
                restores += 1;
                let ok = got.is_ok_and(|map| s.log.map_at(lsn) == Some(map));
                m.ops.op(ok);
                s.log.forget_below(floor);
            }
        }
        m.events += 1;
        let mapped = s.disk.disk().map().iter().filter(|&&p| p >= 0).count();
        m.space
            .push(ratio(s.disk.disk().retained_bytes() as f64, mapped as f64));
    }
    tracer.set_on(false);
}

/// The phase's metrics over every slice run so far.
pub fn finish(s: &mut Durable, trace_on: bool, tracer: &Tracer) -> Report {
    let m = std::mem::take(&mut s.measured);
    let mut report = m.ops;
    for _ in 0..s.log_breaks {
        report.op(false);
    }
    let ld0 = m.ld0.unwrap_or_default();
    let ld = s.disk.disk().stats();
    // Every slice writes at least two batches, so even a one-second
    // traced run fills two groups.
    let rates = stats::sorted(&m.group_rates);
    report.e2e(
        "ld_write_mblk_s",
        stats::percentile(&rates, RATE_PCT),
        "Mblk/s",
    );
    let restores = stats::sorted(&m.restores_ms);
    report.e2e("restore_p50_ms", stats::percentile(&restores, 50.0), "ms");
    report.e2e("restore_p90_ms", stats::percentile(&restores, 90.0), "ms");
    // Retained history saw-tooths between merges; its mean over the
    // run is the steady footprint.
    report.e2e(
        "space_amp",
        m.space.iter().sum::<f64>() / m.space.len().max(1) as f64,
        "B/blk",
    );
    report.notes.push(format!(
        "durable-log: {} writes, {} restores, {} scrubs, {} rate groups, mean rate {:.3} Mblk/s",
        m.user_writes,
        restores.len(),
        m.scrubs,
        rates.len(),
        ratio(
            (m.batches_plain * BATCH as u64) as f64,
            m.write_ns_plain as f64 / 1e3
        ),
    ));

    if trace_on {
        let mean = |(ns, n): (u64, u64)| ratio(ns as f64, n as f64);
        report.layer("logdisk.append_ns", mean(m.append), "ns");
        report.layer("logdisk.seal_ns", mean(m.seal), "ns");
        report.layer("logdisk.clean_ns", mean(m.clean), "ns");
        report.layer(
            "logdisk.write_amp",
            ratio((ld.writes - ld0.writes) as f64, m.user_writes as f64),
            "ratio",
        );
        report.layer(
            "logdisk.segments_flushed",
            (ld.segments_flushed - ld0.segments_flushed) as f64,
            "count",
        );
        report.layer(
            "logdisk.merge_passes",
            (ld.merge_passes - ld0.merge_passes) as f64,
            "count",
        );
        let spans = trace::totals(tracer.spans(), 0);
        let get = |name: &'static str| spans.get(&(name, 0)).copied().unwrap_or_default();
        let scrub = get("logdisk.scrub");
        let restore = get("logdisk.restore");
        let audit_ms = ratio(scrub.total_ns as f64, scrub.count as f64) / 1e6;
        report.layer("logdisk.audit_ms", audit_ms, "ms");
        report.layer(
            "logdisk.replay_ms",
            ratio(restore.total_ns as f64, restore.count as f64) / 1e6 - audit_ms,
            "ms",
        );
        // The p99 tail is reported here, unbounded: on a shared 2-core
        // host it moves with scheduling stalls far more than any bound.
        report.layer(
            "logdisk.restore_p99_ms",
            stats::percentile(&restores, 99.0),
            "ms",
        );
        report.layer(
            "logdisk.mappings_per_restore",
            ratio(
                (ld.restored_mappings - ld0.restored_mappings) as f64,
                (ld.restores - ld0.restores) as f64,
            ),
            "count",
        );
        report.layer(
            "logdisk.retained_entries",
            s.disk.disk().retained_entries() as f64,
            "count",
        );
        report.layer(
            "logdisk.checksum_failures",
            (ld.checksum_failures - ld0.checksum_failures) as f64,
            "count",
        );
        let traced = ratio(m.write_ns_traced as f64, m.batches_traced as f64);
        let plain = ratio(m.write_ns_plain as f64, m.batches_plain as f64);
        report.layer(
            "trace.overhead_pct.durable",
            (ratio(traced, plain) - 1.0) * 100.0,
            "%",
        );
    }
    report
}
