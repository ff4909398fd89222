//! The paper's three grafts under every technology, one closed-loop
//! client, technologies interleaved round-robin.
//!
//! One round for one technology has three parts:
//! (a) page faults through a `Pager` whose policy is `HostedEviction`
//!     over a `GraftHost`, so `GraftHost::dispatch` is on the path;
//! (b) MD5 of a chunk through `grafts::md5::digest_via`;
//! (c) a logical-disk write run through `HostedWritePath::write_batch`
//!     over the handle of a one-shard `ShardedHost` (the fused
//!     `dispatch_batch` path). Script has no LD graft, as in the paper.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::{Duration, Instant};

use graft_api::{ExtensionEngine, GraftError, RegionId, Technology};
use graft_core::GraftManager;
use graft_kernel::{
    shared, AttachPoint, GraftHost, GraftId, HostStats, HostedEviction, HostedWritePath,
    ShardHandle, ShardedHost, SharedHost,
};
use kernsim::vm::Pager;

use crate::gen::{self, Chooser, Spread};
use crate::oracle::{self, LdMirror, LruMirror};
use crate::report::{ratio, Report};
use crate::stats;
use crate::trace::{self, Tracer};

/// Pager frames.
pub const FRAMES: usize = 64;
/// Distinct pages the fault stream touches.
pub const PAGES: u64 = 512;
/// Pages on the application's hot list.
pub const HOT: usize = 16;
/// Logical blocks of the LD graft's disk.
pub const LD_BLOCKS: usize = 4096;
/// Pre-generated references per technology (cycled).
const STREAM: usize = 1 << 16;
/// Bytes of seeded MD5 input per technology (chunks slide over it).
const MD5_POOL: usize = 1 << 18;
/// Percentile of the rounds reported as `round_us.<tech>`. On a shared
/// host the other tenants' load comes and goes for seconds at a time
/// and slows every round it overlaps: the median follows how much of
/// the run that load covered, while the p10 round reads the quiet
/// spells, which every run has.
const ROUND_PCT: f64 = 10.0;

/// The reported round time. User-level rounds are bimodal instead:
/// every upcall wakes the server thread and back, which takes about a
/// third longer when the other core sits idle than when it is awake,
/// and which of the two a round sees follows the host, not the
/// program. Any percentile jumps between the modes as their mix
/// shifts; the interquartile mean moves only as far as the mix does.
fn round_figure(tech: Technology, sorted: &[f64]) -> f64 {
    match tech {
        Technology::UserLevel => stats::interquartile_mean(sorted),
        _ => stats::percentile(sorted, ROUND_PCT),
    }
}

/// Work in one round.
#[derive(Debug, Clone, Copy)]
pub struct Sizes {
    /// Pager accesses.
    pub accesses: usize,
    /// MD5 input bytes.
    pub md5_bytes: usize,
    /// LD block writes (0 = no LD part).
    pub ld_writes: usize,
}

/// Round sizes. Each part is about a third of a compiled-unchecked
/// round. Script and user-level are scaled down, as the experiment
/// runners scale them, and script has no LD graft.
pub fn sizes(tech: Technology) -> Sizes {
    match tech {
        Technology::Script => Sizes {
            accesses: 6,
            md5_bytes: 64,
            ld_writes: 0,
        },
        Technology::UserLevel => Sizes {
            accesses: 12,
            md5_bytes: 1536,
            ld_writes: 128,
        },
        _ => Sizes {
            accesses: 48,
            md5_bytes: 1536,
            ld_writes: 1536,
        },
    }
}

fn label(tech: Technology) -> u8 {
    Technology::ALL
        .iter()
        .position(|&t| t == tech)
        .expect("every technology is in ALL") as u8
}

struct LdRig {
    _host: ShardedHost,
    handle: Rc<RefCell<ShardHandle>>,
    id: GraftId,
    map: RegionId,
    path: HostedWritePath<Rc<RefCell<ShardHandle>>>,
    mirror: LdMirror,
    stream: Vec<u64>,
    cursor: usize,
}

struct Rig {
    tech: Technology,
    sizes: Sizes,
    host: SharedHost,
    evict_id: GraftId,
    pager: Pager<HostedEviction>,
    mirror: LruMirror,
    pages: Vec<u64>,
    page_cursor: usize,
    md5: Box<dyn ExtensionEngine>,
    md5_pool: Vec<u8>,
    md5_cursor: usize,
    ld: Option<LdRig>,
}

/// Everything the phase needs, built before the first timed op, and
/// what its timed slices have measured so far.
pub struct Paper {
    rigs: Vec<Rig>,
    /// `GraftManager::load` time per technology, ns (last set-up).
    load_ns: Vec<u64>,
    accs: Vec<Acc>,
    /// Ops and notes so far.
    ops: Report,
    /// Host counters before the first timed round.
    stats0: Option<HostStats>,
    /// Round-robin passes so far.
    passes: usize,
}

fn setup_tech(
    manager: &GraftManager,
    tech: Technology,
    seed: u64,
    spread: Spread,
    load_ns: &mut u64,
) -> Result<Rig, GraftError> {
    let sizes = sizes(tech);
    let mut timed_load = |spec: &graft_api::GraftSpec| {
        let t = Instant::now();
        let engine = manager.load(spec, tech);
        *load_ns += t.elapsed().as_nanos() as u64;
        engine
    };
    let evict = timed_load(&grafts::eviction::spec())?;
    let md5 = timed_load(&grafts::md5::spec())?;
    let ld_engine = if sizes.ld_writes > 0 {
        Some(timed_load(&grafts::logdisk::spec_sized(LD_BLOCKS))?)
    } else {
        None
    };

    let lbl = u64::from(label(tech));
    let mut chooser = Chooser::new(gen::sub_seed(seed, 10 + lbl), PAGES, spread);
    let hot: Vec<u64> = {
        let pool = chooser.hot_set().to_vec();
        (0..HOT)
            .map(|_| pool[chooser.below(pool.len() as u64) as usize])
            .collect()
    };
    let mut sim = LruMirror::new(FRAMES, &hot);
    for p in PAGES..PAGES + FRAMES as u64 {
        sim.access(p);
    }
    // Every access of the stream faults (until it wraps), so each round
    // does the same number of evictions.
    let pages: Vec<u64> = (0..STREAM)
        .map(|_| {
            let mut page = chooser.next();
            while sim.resident(page) {
                page = chooser.next();
            }
            sim.access(page);
            page
        })
        .collect();

    let host = shared(GraftHost::new());
    let evict_id = host
        .borrow_mut()
        .install(AttachPoint::VmEvict, "evict", evict)?;
    let mut policy = HostedEviction::new(host.clone());
    policy.set_hot(hot.clone());
    let mut pager = Pager::new(FRAMES, policy);
    let mut mirror = LruMirror::new(FRAMES, &hot);
    // Fill every frame with pages outside the stream's domain, so from
    // the first round on a miss is an eviction through the chain.
    for p in PAGES..PAGES + FRAMES as u64 {
        pager.access(p);
        mirror.access(p);
    }

    let ld = match ld_engine {
        None => None,
        Some(mut engine) => {
            grafts::logdisk::init_map(engine.as_mut(), LD_BLOCKS)?;
            let mut sharded = ShardedHost::new(1);
            let id = sharded.install(AttachPoint::DiskWrite, "ld", engine)?;
            let handle = Rc::new(RefCell::new(
                sharded.take_handle(0).expect("one-shard host has shard 0"),
            ));
            // The install reaches the shard at its next dispatch; a
            // zero-length batch syncs it so the map region can be bound.
            handle
                .borrow_mut()
                .dispatch_batch(AttachPoint::DiskWrite, 0, |_, _| Ok(vec![]));
            let map = handle
                .borrow_mut()
                .engine_mut(id)
                .ok_or_else(|| GraftError::Unavailable {
                    graft: "ld".into(),
                    missing: "installed engine".into(),
                })?
                .bind_region("map")?;
            let path = HostedWritePath::new(handle.clone(), LD_BLOCKS);
            let stream =
                Chooser::new(gen::sub_seed(seed, 20 + lbl), LD_BLOCKS as u64, spread).take(STREAM);
            Some(LdRig {
                _host: sharded,
                handle,
                id,
                map,
                path,
                mirror: LdMirror::new(LD_BLOCKS, grafts::logdisk::SEGMENT_BLOCKS as u64),
                stream,
                cursor: 0,
            })
        }
    };

    Ok(Rig {
        tech,
        sizes,
        host,
        evict_id,
        pager,
        mirror,
        pages,
        page_cursor: 0,
        md5,
        md5_pool: gen::bytes(gen::sub_seed(seed, 30 + lbl), MD5_POOL),
        md5_cursor: 0,
        ld,
    })
}

/// Loads the three grafts under every technology and wires them into
/// their substrates.
pub fn setup(seed: u64, spread: Spread) -> Result<Paper, GraftError> {
    let manager = GraftManager::new();
    let mut rigs = Vec::new();
    let mut load_ns = Vec::new();
    for tech in Technology::ALL {
        let mut ns = 0;
        rigs.push(setup_tech(&manager, tech, seed, spread, &mut ns)?);
        load_ns.push(ns);
    }
    Ok(Paper {
        accs: vec![Acc::default(); rigs.len()],
        rigs,
        load_ns,
        ops: Report::default(),
        stats0: None,
        passes: 0,
    })
}

/// Per-technology accumulators for the per-layer report.
#[derive(Default, Clone)]
struct Acc {
    rounds_traced: Vec<f64>,
    rounds_plain: Vec<f64>,
    evict_ledger_ns: u64,
    evict_ledger_inv: u64,
    ld_ledger_ns: u64,
    ld_ledger_inv: u64,
    ld_writes: u64,
    md5_bytes: u64,
}

/// What one round left for its oracle.
struct RoundOut {
    accessed: Vec<u64>,
    victims: Vec<Option<u64>>,
    md5: (usize, usize, Result<[u8; 16], GraftError>),
    ld: Option<(Vec<u64>, Vec<bool>)>,
}

fn run_round(rig: &mut Rig, tracer: &mut Tracer, acc: &mut Acc) -> (Duration, RoundOut) {
    let lbl = label(rig.tech);
    let op = tracer.op();
    let s = rig.sizes;
    let accessed: Vec<u64> = (0..s.accesses)
        .map(|i| rig.pages[(rig.page_cursor + i) % rig.pages.len()])
        .collect();
    rig.page_cursor = (rig.page_cursor + s.accesses) % rig.pages.len();
    let md5_at = rig.md5_cursor;
    rig.md5_cursor = (rig.md5_cursor + 4099) % (rig.md5_pool.len() - s.md5_bytes);
    let ld_run: Option<Vec<u64>> = rig.ld.as_mut().map(|ld| {
        let run = (0..s.ld_writes)
            .map(|i| ld.stream[(ld.cursor + i) % ld.stream.len()])
            .collect();
        ld.cursor = (ld.cursor + s.ld_writes) % ld.stream.len();
        run
    });
    let traced = tracer.on();
    let ledger_before = traced.then(|| {
        let e = rig
            .host
            .borrow()
            .ledger(rig.evict_id)
            .copied()
            .unwrap_or_default();
        let l = rig
            .ld
            .as_ref()
            .and_then(|ld| ld.handle.borrow().local_ledger(ld.id).copied())
            .unwrap_or_default();
        (e, l)
    });

    let mut victims = Vec::with_capacity(accessed.len());
    let t0 = Instant::now();
    let root = tracer.open("paper.round", lbl, t0, None, op);
    // (a) page faults.
    if traced {
        let part = tracer.open("paper.faults", lbl, Instant::now(), root, op);
        for &page in &accessed {
            let a = Instant::now();
            let v = rig.pager.access(page);
            let b = Instant::now();
            if v.is_some() {
                tracer.record("kernsim.fault", lbl, a, b, part, op);
            }
            victims.push(v);
        }
        tracer.close(part, Instant::now());
    } else {
        for &page in &accessed {
            victims.push(rig.pager.access(page));
        }
    }
    // (b) MD5.
    let chunk = &rig.md5_pool[md5_at..md5_at + s.md5_bytes];
    let a = Instant::now();
    let digest = grafts::md5::digest_via(rig.md5.as_mut(), chunk);
    tracer.record("grafts.md5", lbl, a, Instant::now(), root, op);
    // (c) LD write run.
    let ld_out = match (rig.ld.as_mut(), ld_run) {
        (Some(ld), Some(run)) => {
            let a = Instant::now();
            let flushes = ld.path.write_batch(&run);
            tracer.record("kernel.ld_write", lbl, a, Instant::now(), root, op);
            Some((run, flushes))
        }
        _ => None,
    };
    let t1 = Instant::now();
    tracer.close(root, t1);

    let round = t1 - t0;
    if let Some((e0, l0)) = ledger_before {
        let e = rig
            .host
            .borrow()
            .ledger(rig.evict_id)
            .copied()
            .unwrap_or_default();
        acc.evict_ledger_ns += e.cum_ns - e0.cum_ns;
        acc.evict_ledger_inv += e.invocations - e0.invocations;
        if let Some(ld) = rig.ld.as_ref() {
            let l = ld
                .handle
                .borrow()
                .local_ledger(ld.id)
                .copied()
                .unwrap_or_default();
            acc.ld_ledger_ns += l.cum_ns - l0.cum_ns;
            acc.ld_ledger_inv += l.invocations - l0.invocations;
            acc.ld_writes += s.ld_writes as u64;
        }
        acc.md5_bytes += s.md5_bytes as u64;
    }
    (
        round,
        RoundOut {
            accessed,
            victims,
            md5: (md5_at, s.md5_bytes, digest),
            ld: ld_out,
        },
    )
}

/// Checks one round against the oracles; true when every part agrees.
fn check_round(rig: &mut Rig, out: RoundOut) -> bool {
    let mut ok = true;
    for (&page, &got) in out.accessed.iter().zip(&out.victims) {
        if rig.mirror.access(page) != got {
            ok = false;
            rig.mirror.resync(rig.pager.queue());
            break;
        }
    }
    let (at, len, digest) = out.md5;
    ok &= matches!(digest, Ok(d) if oracle::md5_ok(&rig.md5_pool[at..at + len], &d));
    if let (Some(ld), Some((run, flushes))) = (rig.ld.as_mut(), out.ld) {
        let want: Vec<bool> = run.iter().map(|&l| ld.mirror.write(l)).collect();
        ok &= want == flushes && ld.path.fallback_writes == 0;
        let mut handle = ld.handle.borrow_mut();
        match handle.engine_mut(ld.id) {
            Some(engine) => {
                for &l in &run {
                    ok &= engine.read_region_id(ld.map, l as usize).ok()
                        == Some(ld.mirror.physical(l));
                }
            }
            None => ok = false,
        }
    }
    ok
}

fn host_stats(rigs: &[Rig]) -> HostStats {
    let mut total = HostStats::default();
    for rig in rigs {
        total.merge(&rig.host.borrow().stats());
        if let Some(ld) = rig.ld.as_ref() {
            total.merge(&ld.handle.borrow().stats());
        }
    }
    total
}

/// Runs rounds round-robin over the technologies for `window` (at
/// least two passes). The first slice starts with two untimed rounds
/// per technology to reach steady state.
pub fn run_slice(p: &mut Paper, window: Duration, trace_on: bool, tracer: &mut Tracer) {
    if p.stats0.is_none() {
        let mut scratch = Tracer::new(false);
        for rig in p.rigs.iter_mut() {
            for _ in 0..2 {
                let (_, out) = run_round(rig, &mut scratch, &mut Acc::default());
                let ok = check_round(rig, out);
                p.ops.op(ok);
            }
        }
        p.stats0 = Some(host_stats(&p.rigs));
    }
    let start = Instant::now();
    let mut k = 0usize;
    while k < 2 || start.elapsed() < window {
        for (rig, acc) in p.rigs.iter_mut().zip(p.accs.iter_mut()) {
            // In a traced run every other round is traced, so the run
            // prices its own tracing.
            tracer.set_on(trace_on && p.passes.is_multiple_of(2));
            let (dt, out) = run_round(rig, tracer, acc);
            let us = dt.as_secs_f64() * 1e6;
            if tracer.on() {
                acc.rounds_traced.push(us);
            } else {
                acc.rounds_plain.push(us);
            }
            let ok = check_round(rig, out);
            p.ops.op(ok);
        }
        k += 1;
        p.passes += 1;
    }
    tracer.set_on(false);
}

/// The phase's metrics over every slice run so far.
pub fn finish(p: &mut Paper, trace_on: bool, tracer: &Tracer) -> Report {
    let mut report = std::mem::take(&mut p.ops);
    let stats0 = p.stats0.unwrap_or_default();
    let delta = host_stats(&p.rigs).delta_since(&stats0);

    let mut traced_sum = 0.0;
    let mut plain_sum = 0.0;
    let spans = trace::totals(tracer.spans(), 0);
    for ((rig, acc), &load_ns) in p.rigs.iter().zip(&p.accs).zip(&p.load_ns) {
        let tech = rig.tech;
        let lbl = label(tech);
        let plain = stats::sorted(&acc.rounds_plain);
        report.e2e(format!("round_us.{tech}"), round_figure(tech, &plain), "us");
        report.notes.push(format!(
            "paper-grafts {tech}: {} rounds, median {:.1} us, p10 {:.1} us, interquartile mean {:.1} us",
            plain.len(),
            stats::median(&plain),
            stats::percentile(&plain, 10.0),
            stats::interquartile_mean(&plain)
        ));
        if !trace_on {
            continue;
        }
        // Too few rounds for any tail with 10 beyond: the slowest round.
        let (pct, v) = stats::tail(&plain).unwrap_or((100.0, plain[plain.len() - 1]));
        report.layer(format!("round_tail_us.{tech}"), v, "us");
        report.notes.push(format!(
            "round_tail_us.{tech} = p{pct} of {} rounds",
            plain.len()
        ));
        let traced = stats::sorted(&acc.rounds_traced);
        traced_sum += stats::median(&traced);
        plain_sum += stats::median(&plain);
        report.layer(format!("core.load_ms.{tech}"), load_ns as f64 / 1e6, "ms");
        let fault = spans
            .get(&("kernsim.fault", lbl))
            .copied()
            .unwrap_or_default();
        report.layer(
            format!("kernsim.fault_ns.{tech}"),
            ratio(fault.total_ns as f64, fault.count as f64),
            "ns",
        );
        report.layer(
            format!("engine.evict_ns.{tech}"),
            ratio(acc.evict_ledger_ns as f64, acc.evict_ledger_inv as f64),
            "ns",
        );
        report.layer(
            format!("kernel.evict_self_ns.{tech}"),
            ratio(
                fault.total_ns as f64 - acc.evict_ledger_ns as f64,
                fault.count as f64,
            ),
            "ns",
        );
        let md5 = spans.get(&("grafts.md5", lbl)).copied().unwrap_or_default();
        report.layer(
            format!("grafts.md5_ns_per_byte.{tech}"),
            ratio(md5.total_ns as f64, acc.md5_bytes as f64),
            "ns/B",
        );
        if rig.ld.is_some() {
            let ld = spans
                .get(&("kernel.ld_write", lbl))
                .copied()
                .unwrap_or_default();
            report.layer(
                format!("kernel.ld_write_ns.{tech}"),
                ratio(ld.total_ns as f64, acc.ld_writes as f64),
                "ns",
            );
            report.layer(
                format!("engine.ld_write_ns.{tech}"),
                ratio(acc.ld_ledger_ns as f64, acc.ld_ledger_inv as f64),
                "ns",
            );
        }
    }
    if trace_on {
        report.layer(
            "kernel.overrides_per_dispatch",
            ratio(delta.overrides as f64, delta.dispatches as f64),
            "ratio",
        );
        report.layer("kernel.traps", delta.traps as f64, "count");
        report.layer(
            "trace.overhead_pct.paper",
            (ratio(traced_sum, plain_sum) - 1.0) * 100.0,
            "%",
        );
        // Self time of the round spans: the share of a round no layer
        // span covers (page hits, loop and timer overhead).
        let (own, all) = spans
            .iter()
            .filter(|((name, _), _)| *name == "paper.round")
            .fold((0, 0), |(o, a), (_, t)| (o + t.self_ns, a + t.total_ns));
        report.layer(
            "bench.round_uncovered_pct",
            ratio(own as f64, all as f64) * 100.0,
            "%",
        );
    }
    report
}
