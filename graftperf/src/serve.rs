//! Open-loop multi-tenant serving: one `GraftServer` with one shard and
//! one drain worker thread. This thread is both the load generator and
//! the pump, over in-process byte connections (no sockets, no pipes).
//!
//! Requests are timed from when they were *due* under the seeded
//! Poisson schedule to when the client decoded the reply, so a stall
//! also charges every request queued behind it.

use std::time::{Duration, Instant};

use graft_api::{
    GraftClass, GraftError, GraftSpec, Motivation, NativeGraft, RegionStore, Technology,
};
use graft_core::GraftManager;
use graft_kernel::{AttachPoint, QueueStats, StealPolicy};
use graft_server::{GraftClient, GraftServer, Reply, ServerConfig, ServerStats, TenantQuotas};

use crate::gen::{self, Chooser, Spread};
use crate::oracle::tag_reply;
use crate::report::{ratio, Report};
use crate::stats;
use crate::trace::{self, Tracer};

/// Tenants installed during set-up.
pub const TENANTS: u64 = 2000;
/// One tenant in this many runs its tag graft safe-compiled; the rest
/// are rust-native.
pub const SAFE_EVERY: u64 = 5;
/// Share of requests sent as `InvokeBatch`.
pub const BATCH_SHARE: f64 = 0.2;
/// Calls per `InvokeBatch`.
pub const BATCH_CALLS: usize = 8;
/// The fixed offered rate, requests per second (about a third of the
/// saturation rate on a 2-core host).
pub const RATE: f64 = 20_000.0;
/// Percentile of the fixed-rate windows' median latencies reported as
/// `req_p50_us`. A window that meets one of the host's busy spells,
/// when another program holds a core the pump or the drain worker
/// needs, reads ten times slower; the low windows read the quiet
/// spells, which every run has.
const WINDOW_PCT: f64 = 10.0;
/// Untimed warm-up at the fixed rate before the timed window.
pub const WARMUP: Duration = Duration::from_millis(300);
/// First ladder rate, requests per second.
pub const LADDER_BASE: f64 = 100_000.0;
/// Ratio between coarse ladder rates.
pub const COARSE_STEP: f64 = 1.25;
/// Coarse rungs at most.
pub const COARSE_RUNGS: i32 = 12;
/// Ratio between fine ladder rates, which split the last coarse step.
pub const FINE_STEP: f64 = 1.05;
/// Fine rungs inside one coarse step (1.05^4 < 1.25 < 1.05^5).
pub const FINE_RUNGS: i32 = 4;
/// The p90 latency limit a ladder rung must meet, us.
pub const LIMIT_US: f64 = 10_000.0;
/// Percentile of the run's climbs reported as `max_rate_kops`: with
/// eight climbs, the third best.
const CLIMB_PCT: f64 = 75.0;
/// Length of one ladder rung.
pub const RUNG: Duration = Duration::from_millis(120);
/// Backlog growth between the second and the last quarter of a rung
/// that fails it, in milliseconds of arrivals at the rung's rate.
pub const BACKLOG_SLACK_MS: f64 = 5.0;
/// Attach point whose entry (`ra_next`, arity 1) the tag graft exports.
const POINT: AttachPoint = AttachPoint::CacheReadAhead;

/// The benchmark's own tag graft: answers `tag ^ x`.
struct TagGraft(i64);

impl NativeGraft for TagGraft {
    fn call(&mut self, _entry: &str, args: &[i64], _: &mut RegionStore) -> Result<i64, GraftError> {
        Ok(self.0 ^ args[0])
    }
}

fn tag_spec(tenant: u64) -> GraftSpec {
    let tag = tag_reply(tenant, 0);
    GraftSpec::new("tag", GraftClass::Prioritization, Motivation::Policy)
        .entry(POINT.entry(), 1)
        .with_grail(&format!(
            "fn ra_next(x: int) -> int {{ return x ^ {tag}; }}"
        ))
        .with_native(Box::new(move || Box::new(TagGraft(tag))))
}

fn tech_of(tenant: u64) -> Technology {
    if tenant.is_multiple_of(SAFE_EVERY) {
        Technology::SafeCompiled
    } else {
        Technology::RustNative
    }
}

fn tech_code(tech: Technology) -> u8 {
    Technology::ALL
        .iter()
        .position(|&t| t == tech)
        .expect("every technology is in ALL") as u8
}

/// One scheduled request.
#[derive(Clone)]
struct Arrival {
    due_ns: u64,
    tenant: u64,
    /// Arguments; more than one means an `InvokeBatch`.
    args: Vec<i64>,
}

fn schedule(seed: u64, stream: u64, spread: Spread, rate: f64, window: Duration) -> Vec<Arrival> {
    let times = gen::poisson(gen::sub_seed(seed, stream), rate, window.as_nanos() as u64);
    let mut pick = Chooser::new(gen::sub_seed(seed, stream + 1), TENANTS, spread);
    times
        .into_iter()
        .map(|due_ns| {
            let tenant = pick.next();
            let calls = if pick.unit() < BATCH_SHARE {
                BATCH_CALLS
            } else {
                1
            };
            let args = (0..calls).map(|_| pick.below(1 << 20) as i64).collect();
            Arrival {
                due_ns,
                tenant,
                args,
            }
        })
        .collect()
}

struct Tenant {
    client: GraftClient,
    graft: u64,
    outstanding: u32,
}

/// The server with every tenant installed, the pre-generated arrival
/// schedules, and what the timed windows have measured so far.
pub struct Serve {
    server: GraftServer,
    tenants: Vec<Tenant>,
    warmup: Vec<Arrival>,
    /// One fixed-rate schedule per slice, each `slice_window` long.
    fixed: Vec<Vec<Arrival>>,
    slice_window: Duration,
    seed: u64,
    spread: Spread,
    measured: Measured,
}

/// Accumulated over the fixed-rate slices and the ladder climbs.
#[derive(Default)]
struct Measured {
    ops: Report,
    stats0: ServerStats,
    q0: QueueStats,
    /// Latency of requests due in untraced and in traced time, us.
    plain: Vec<f64>,
    /// Median latency of each untraced fixed-rate window, us.
    window_p50: Vec<f64>,
    traced: Vec<f64>,
    late: Vec<f64>,
    service: Vec<f64>,
    fixed_requests: usize,
    fixed_slices: u32,
    fixed_failed: u64,
    /// `max_rate_kops` of each climb.
    climbs: Vec<f64>,
    ladder_attempts: u64,
    /// Drain-worker idle spins and jobs over the timed slices.
    idle_spins: u64,
    worker_served: u64,
}

fn exchange(server: &mut GraftServer, client: &mut GraftClient, bytes: &[u8]) -> Vec<Reply> {
    server.ingest(client.conn, bytes);
    server.pump_conn(client.conn);
    let out = server.take_outbound(client.conn);
    client.on_bytes(&out).unwrap_or_default()
}

/// Builds the server and installs every tenant over the wire. The
/// fixed-rate schedules are generated for `slices` windows of
/// `slice_window` each.
pub fn setup(
    seed: u64,
    spread: Spread,
    slices: usize,
    slice_window: Duration,
) -> Result<Serve, String> {
    let mut server = GraftServer::new(ServerConfig {
        shards: 1,
        steal: StealPolicy {
            queue_cap: 1 << 16,
            ..StealPolicy::default()
        },
        quotas: TenantQuotas {
            max_in_flight: 1 << 16,
            ..TenantQuotas::default()
        },
        ..ServerConfig::default()
    });
    let manager = GraftManager::new();
    let mut tenants = Vec::with_capacity(TENANTS as usize);
    for t in 0..TENANTS {
        let name = format!("tag{t}");
        server.register_spec(
            &name,
            Box::new(move |tech| manager.load(&tag_spec(t), tech)),
        );
        let mut client = GraftClient::new(server.connect());
        let hello = client.hello(t);
        let install = client.install(POINT as u8, tech_code(tech_of(t)), &name);
        let mut bytes = hello;
        bytes.extend(install);
        let replies = exchange(&mut server, &mut client, &bytes);
        let graft = match replies.as_slice() {
            [Reply::Welcome { .. }, Reply::Installed { graft, .. }] => *graft,
            other => return Err(format!("tenant {t}: install replied {other:?}")),
        };
        let bind = client.bind(graft, POINT.entry());
        match exchange(&mut server, &mut client, &bind).as_slice() {
            [Reply::Bound { entry: 0, .. }] => {}
            other => return Err(format!("tenant {t}: bind replied {other:?}")),
        }
        tenants.push(Tenant {
            client,
            graft,
            outstanding: 0,
        });
    }
    server.collect_latency(true);
    let fixed = (0..slices as u64)
        .map(|i| schedule(seed, 100 + 2 * i, spread, RATE, slice_window))
        .collect();
    let warmup = schedule(seed, 90, spread, RATE, WARMUP);
    Ok(Serve {
        server,
        tenants,
        warmup,
        fixed,
        slice_window,
        seed,
        spread,
        measured: Measured::default(),
    })
}

/// What one open-loop window measured.
#[derive(Default)]
struct Window {
    /// Due-to-decode latency per request, us.
    latency: Vec<f64>,
    /// Due-to-send lateness per request, us.
    late: Vec<f64>,
    /// Requests answered wrongly or refused.
    failed: u64,
    /// Mean plane backlog (`in_flight` + `backlog`) over the second
    /// and the last quarter of the window.
    backlog_mid: u64,
    backlog_end: u64,
}

struct Pending {
    due_ns: u64,
    tenant: u64,
    args: Vec<i64>,
}

/// Runs one open-loop window over `arrivals`, then waits for every
/// reply. When `traced`, spans are recorded until the window ends.
fn drive(
    s: &mut Serve,
    arrivals: &[Arrival],
    window: Duration,
    traced: bool,
    tracer: &mut Tracer,
) -> Window {
    let mut w = Window::default();
    let mut pending: Vec<std::collections::HashMap<u32, Pending>> =
        (0..s.tenants.len()).map(|_| Default::default()).collect();
    let mut active: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut in_air = 0usize;
    // (sum, samples) of the backlog in the second and last quarters.
    let mut quarters = [(0u64, 0u64); 2];
    let window_ns = window.as_nanos() as u64;
    let start = Instant::now();
    loop {
        let now_ns = start.elapsed().as_nanos() as u64;
        tracer.set_on(traced && now_ns < window_ns);
        let loop_op = tracer.op();
        let mut sent = 0;
        while next < arrivals.len() && arrivals[next].due_ns <= now_ns {
            let a = &arrivals[next];
            next += 1;
            let t = &mut s.tenants[a.tenant as usize];
            let op = tracer.op();
            let e0 = Instant::now();
            let (seq, bytes) = if a.args.len() == 1 {
                t.client.invoke(t.graft, 0, &a.args)
            } else {
                t.client.invoke_batch(t.graft, 0, 1, &a.args)
            };
            let e1 = Instant::now();
            tracer.record("server.wire.encode", 0, e0, e1, None, op);
            s.server.ingest(t.client.conn, &bytes);
            let e2 = Instant::now();
            tracer.record("server.ingest", 0, e1, e2, None, op);
            let sent_ns = start.elapsed().as_nanos() as u64;
            w.late.push(sent_ns.saturating_sub(a.due_ns) as f64 / 1e3);
            pending[a.tenant as usize].insert(
                seq,
                Pending {
                    due_ns: a.due_ns,
                    tenant: a.tenant,
                    args: a.args.clone(),
                },
            );
            if t.outstanding == 0 {
                active.push(a.tenant as usize);
            }
            t.outstanding += 1;
            in_air += 1;
            sent += 1;
        }
        if sent > 0 {
            let p0 = Instant::now();
            s.server.pump();
            tracer.record("server.pump", 0, p0, Instant::now(), None, loop_op);
        }
        let r0 = Instant::now();
        if s.server.reap() > 0 {
            tracer.record("server.reap", 0, r0, Instant::now(), None, loop_op);
        }
        let mut i = 0;
        while i < active.len() {
            let tenant = active[i];
            let t = &mut s.tenants[tenant];
            let o0 = Instant::now();
            let out = s.server.take_outbound(t.client.conn);
            if out.is_empty() {
                i += 1;
                continue;
            }
            let o1 = Instant::now();
            tracer.record("server.outbound", 0, o0, o1, None, loop_op);
            let replies = t.client.on_bytes(&out);
            let done_ns = start.elapsed().as_nanos() as u64;
            tracer.record("server.wire.decode", 0, o1, Instant::now(), None, loop_op);
            for reply in replies.unwrap_or_default() {
                let (seq, ok) = match &reply {
                    Reply::Value { seq, value } => (*seq, Some(vec![*value])),
                    Reply::Batch {
                        seq,
                        values,
                        error: None,
                    } => (*seq, Some(values.clone())),
                    Reply::Batch { seq, .. } | Reply::Error { seq, .. } => (*seq, None),
                    _ => (0, None),
                };
                let Some(p) = pending[tenant].remove(&seq) else {
                    w.failed += 1;
                    continue;
                };
                let want: Vec<i64> = p.args.iter().map(|&x| tag_reply(p.tenant, x)).collect();
                if ok.as_ref() != Some(&want) {
                    w.failed += 1;
                }
                w.latency
                    .push(done_ns.saturating_sub(p.due_ns) as f64 / 1e3);
                t.outstanding -= 1;
                in_air -= 1;
            }
            if t.outstanding == 0 {
                active.swap_remove(i);
            } else {
                i += 1;
            }
        }
        let quarter = match (4 * now_ns / window_ns.max(1)) as usize {
            1 => Some(0),
            3 => Some(1),
            _ => None,
        };
        if let Some(q) = quarter {
            quarters[q].0 += s.server.in_flight() + s.server.backlog() as u64;
            quarters[q].1 += 1;
        }
        if next == arrivals.len() && now_ns >= window_ns && in_air == 0 {
            break;
        }
    }
    let [mid, end] = quarters.map(|(sum, n)| sum / n.max(1));
    w.backlog_mid = mid;
    w.backlog_end = end;
    tracer.set_on(false);
    w
}

/// Whether a ladder rung meets the limit with no growing backlog.
pub fn rung_passes(
    rate: f64,
    p90_us: f64,
    failed: u64,
    backlog_mid: u64,
    backlog_end: u64,
) -> bool {
    let slack = (rate * BACKLOG_SLACK_MS / 1e3) as u64;
    p90_us <= LIMIT_US && failed == 0 && backlog_end <= backlog_mid + slack
}

/// Climbs the fixed ladder: coarse rates `LADDER_BASE * COARSE_STEP^i`
/// until one fails, then fine rates `FINE_STEP^j` above the last
/// passing coarse rate. A rung counts as failed only if it fails twice
/// in a row, so one transient stall does not end the climb. Returns the
/// highest passing rate.
pub fn climb(mut try_rung: impl FnMut(f64) -> bool) -> Option<f64> {
    let mut passes = |rate: f64| try_rung(rate) || try_rung(rate);
    let mut best = None;
    let mut ceiling = None;
    for i in 0..COARSE_RUNGS {
        let rate = LADDER_BASE * COARSE_STEP.powi(i);
        if !passes(rate) {
            ceiling = Some(rate);
            break;
        }
        best = Some(rate);
    }
    let (Some(base), Some(ceiling)) = (best, ceiling) else {
        return best;
    };
    for j in 1..=FINE_RUNGS {
        let rate = base * FINE_STEP.powi(j);
        if rate >= ceiling || !passes(rate) {
            break;
        }
        best = Some(rate);
    }
    best
}

fn count_ops(ops: &mut Report, requests: usize, failed: u64) {
    for i in 0..requests as u64 {
        ops.op(i >= failed);
    }
}

/// Runs the untimed warm-up (with its own drain worker).
pub fn warm_up(s: &mut Serve, tracer: &mut Tracer) {
    let plane = s.server.spawn_workers();
    let warmup = std::mem::take(&mut s.warmup);
    let w = drive(s, &warmup, WARMUP, false, tracer);
    count_ops(&mut s.measured.ops, warmup.len(), w.failed);
    plane.join(&mut s.server);
    let _ = s.server.take_latencies();
    s.measured.stats0 = s.server.stats();
    s.measured.q0 = s.server.queue_stats();
}

/// Runs the next fixed-rate slice, then, if `climb`, one ladder climb.
/// The drain worker runs only for the slice, so it is not runnable
/// while the other phases measure. In a traced run, every other
/// fixed-rate window is traced, so the run prices its own tracing.
pub fn run_slice(s: &mut Serve, climb: bool, trace_on: bool, tracer: &mut Tracer) {
    let Some(fixed) = s.fixed.pop() else {
        return;
    };
    let plane = s.server.spawn_workers();
    let traced = trace_on && s.measured.fixed_slices.is_multiple_of(2);
    fixed_window(s, &fixed, traced, tracer);
    if climb {
        climb_once(s, tracer);
    }
    for w in plane.join(&mut s.server) {
        s.measured.idle_spins += w.idle_spins;
        s.measured.worker_served += w.served;
    }
}

fn fixed_window(s: &mut Serve, fixed: &[Arrival], traced: bool, tracer: &mut Tracer) {
    let w = drive(s, fixed, s.slice_window, traced, tracer);
    let m = &mut s.measured;
    count_ops(&mut m.ops, fixed.len(), w.failed);
    m.fixed_requests += fixed.len();
    m.fixed_slices += 1;
    m.fixed_failed += w.failed;
    if traced {
        m.traced.extend(w.latency);
    } else {
        let sorted = stats::sorted(&w.latency);
        if !sorted.is_empty() {
            m.window_p50.push(stats::median(&sorted));
        }
        m.plain.extend(w.latency);
    }
    m.late.extend(w.late);
    m.service.extend(
        s.server
            .take_latencies()
            .iter()
            .map(|&(_, ns)| ns as f64 / 1e3),
    );
}

/// Climbs the ladder once and records the highest passing rung's
/// realized arrival rate (the schedule is seeded Poisson, so it carries
/// the digits of this run's inputs).
fn climb_once(s: &mut Serve, tracer: &mut Tracer) {
    let mut achieved = Vec::new();
    let best = climb(|rate| {
        s.measured.ladder_attempts += 1;
        let stream = 200 + 2 * s.measured.ladder_attempts;
        let arrivals = schedule(s.seed, stream, s.spread, rate, RUNG);
        let rw = drive(s, &arrivals, RUNG, false, tracer);
        let _ = s.server.take_latencies();
        let lat = stats::sorted(&rw.latency);
        let p90 = stats::percentile(&lat, 90.0);
        let ok = rung_passes(rate, p90, rw.failed, rw.backlog_mid, rw.backlog_end);
        let m = &mut s.measured;
        count_ops(&mut m.ops, arrivals.len(), rw.failed);
        m.ops.notes.push(format!(
            "serve-open rung {rate:.0} req/s: p90 {p90:.1} us, backlog {}->{}, failed {}, {}",
            rw.backlog_mid,
            rw.backlog_end,
            rw.failed,
            if ok { "pass" } else { "fail" }
        ));
        if ok {
            achieved.push((rate, arrivals.len() as f64 / RUNG.as_secs_f64() / 1e3));
        }
        ok
    });
    let kops = achieved
        .iter()
        .rev()
        .find(|(r, _)| Some(*r) == best)
        .map_or(0.0, |&(_, kops)| kops);
    s.measured.climbs.push(kops);
}

/// The phase's metrics over every slice run so far.
pub fn finish(s: &mut Serve, trace_on: bool, tracer: &Tracer) -> Report {
    let m = std::mem::take(&mut s.measured);
    let mut report = m.ops;
    let plain = stats::sorted(&m.plain);
    report.e2e(
        "req_p50_us",
        stats::percentile(&stats::sorted(&m.window_p50), WINDOW_PCT),
        "us",
    );
    report.notes.push(format!(
        "serve-open fixed {RATE} req/s: {} requests, p50 {:.1} us, p90 {:.1} us, p99 {:.1} us, failed {}",
        m.fixed_requests,
        stats::percentile(&plain, 50.0),
        stats::percentile(&plain, 90.0),
        stats::percentile(&plain, 99.0),
        m.fixed_failed,
    ));
    // Near the top of the climbs: a climb that meets one of the host's
    // busy spells stops early, and the best ones may have passed a rung
    // just above the capacity by luck.
    report.e2e(
        "max_rate_kops",
        stats::percentile(&stats::sorted(&m.climbs), CLIMB_PCT),
        "kops",
    );
    report
        .notes
        .push(format!("serve-open climbs (kops): {:?}", m.climbs));

    if trace_on {
        let spans = trace::totals(tracer.spans(), 0);
        let get = |name: &'static str| spans.get(&(name, 0)).copied().unwrap_or_default();
        let reqs = get("server.ingest").count as f64;
        let traced_slices = m.fixed_slices.div_ceil(2);
        let traced_wall_ns = (s.slice_window.as_nanos() as f64 * f64::from(traced_slices)).max(1.0);
        let mut busy = 0.0;
        for (metric, span) in [
            ("server.ingest_ns_per_req", "server.ingest"),
            ("server.pump_ns_per_req", "server.pump"),
            ("server.reap_ns_per_req", "server.reap"),
            ("server.outbound_ns_per_req", "server.outbound"),
        ] {
            let t = get(span);
            busy += t.total_ns as f64;
            report.layer(metric, ratio(t.total_ns as f64, reqs), "ns");
        }
        report.layer("server.pump_busy_frac", busy / traced_wall_ns, "ratio");
        let svc = stats::sorted(&m.service);
        report.layer("server.service_p50_us", stats::percentile(&svc, 50.0), "us");
        report.layer("server.service_p99_us", stats::percentile(&svc, 99.0), "us");
        let enc = get("server.wire.encode");
        let dec = get("server.wire.decode");
        report.layer(
            "server.wire.encode_ns",
            ratio(enc.total_ns as f64, enc.count as f64),
            "ns",
        );
        report.layer(
            "server.wire.decode_ns",
            ratio(dec.total_ns as f64, reqs),
            "ns",
        );
        let (st, st0) = (s.server.stats(), m.stats0);
        let served = st.served - st0.served;
        let overloaded = st.rejected_overloaded - st0.rejected_overloaded;
        let quota = st.rejected_quota - st0.rejected_quota;
        let quarantined = st.rejected_quarantined - st0.rejected_quarantined;
        report.layer(
            "server.admitted_ratio",
            ratio(
                served as f64,
                (served + overloaded + quota + quarantined) as f64,
            ),
            "ratio",
        );
        report.layer("server.rejected.overloaded", overloaded as f64, "count");
        report.layer("server.rejected.quota", quota as f64, "count");
        report.layer("server.rejected.quarantined", quarantined as f64, "count");
        report.layer("server.inflight_peak", st.inflight_peak as f64, "count");
        let (q, q0) = (s.server.queue_stats(), m.q0);
        report.layer(
            "kernel.shard.batch_width",
            ratio(
                (q.batched_items - q0.batched_items) as f64,
                (q.batches - q0.batches) as f64,
            ),
            "items",
        );
        report.layer(
            "kernel.shard.steals",
            (q.steals - q0.steals) as f64,
            "count",
        );
        report.layer(
            "server.worker.idle_spins_per_req",
            ratio(m.idle_spins as f64, m.worker_served as f64),
            "ratio",
        );
        // The tail is reported here, unbounded: on a shared 2-core host
        // it moves with scheduling stalls far more than any bound.
        report.layer("serve.req_p90_us", stats::percentile(&plain, 90.0), "us");
        report.layer("serve.req_p99_us", stats::percentile(&plain, 99.0), "us");
        let late = stats::sorted(&m.late);
        report.layer("bench.late_p99_us", stats::percentile(&late, 99.0), "us");
        let on = stats::sorted(&m.traced);
        report.layer(
            "trace.overhead_pct.serve",
            (ratio(stats::median(&on), stats::median(&plain)) - 1.0) * 100.0,
            "%",
        );
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A synthetic server: p90 grows with load and explodes past
    /// `capacity`, where the backlog also grows.
    fn synthetic(rate: f64, capacity: f64, p90_per_kops: f64) -> bool {
        let (p90, mid, end) = if rate <= capacity {
            (300.0 + rate / 1000.0 * p90_per_kops, 10, 12)
        } else {
            (50_000.0, 100, 5_000)
        };
        rung_passes(rate, p90, 0, mid, end)
    }

    #[test]
    fn ladder_climb_finds_the_last_rung_under_capacity() {
        let close = |a: Option<f64>, b: f64| (a.unwrap() - b).abs() < 1e-6;
        // Coarse: 100k, 125k, 156.25k, 195.3k pass, 244.1k fails; fine
        // above 195.3k: 205.1k, 215.3k pass, 226.1k fails.
        assert!(close(
            climb(|r| synthetic(r, 220_000.0, 0.1)),
            195_312.5 * 1.05 * 1.05
        ));
        // Latency-limited: p90 = 300 + 50 us per kop/s meets 10 ms up to
        // 194k; 156.25k passes coarse, 195.3k fails; fine 164.1k, 172.3k,
        // 180.9k, 189.9k pass.
        assert!(close(
            climb(|r| synthetic(r, 1e9, 50.0)),
            156_250.0 * 1.05f64.powi(4)
        ));
        assert!(close(
            climb(|r| synthetic(r, 1e12, 0.0)),
            100_000.0 * 1.25f64.powi(11)
        ));
        assert_eq!(climb(|r| synthetic(r, 10.0, 0.0)), None);
    }

    #[test]
    fn a_rung_is_retried_once_before_it_fails() {
        let mut calls = 0;
        // Every first try at each rate stalls; the retry passes.
        assert!(climb(|_| {
            calls += 1;
            calls % 2 == 0
        })
        .is_some());
        let mut tries = Vec::new();
        climb(|r| {
            tries.push(r);
            r < 110_000.0
        });
        // 100k passes; 125k fails twice; fine 105k passes, 110.25k fails twice.
        assert_eq!(tries.len(), 1 + 2 + 1 + 2);
    }

    #[test]
    fn a_rung_fails_on_refusals_growth_or_latency() {
        // 5 ms of arrivals at 100k/s is 500 requests of slack.
        assert!(rung_passes(100_000.0, 100.0, 0, 10, 510));
        assert!(!rung_passes(100_000.0, 100.0, 1, 10, 10));
        assert!(!rung_passes(100_000.0, 100.0, 0, 10, 511));
        assert!(!rung_passes(100_000.0, LIMIT_US + 1.0, 0, 10, 10));
    }

    #[test]
    fn a_foreign_tag_is_a_wrong_reply() {
        let mine = tag_reply(7, 99);
        assert_ne!(mine, tag_reply(8, 99));
        let mut g = TagGraft(tag_reply(7, 0));
        let mut regions = RegionStore::default();
        assert_eq!(g.call("ra_next", &[99], &mut regions).unwrap(), mine);
    }
}
