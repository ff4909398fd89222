//! The dispatch core shared by [`GraftHost`](crate::GraftHost) and
//! [`ShardHandle`](crate::ShardHandle): one chain walk, one direct
//! invoke, one per-call charge and one detach ladder.
//!
//! The paper's safety argument rests on one host rule: charge each trap
//! to the graft that raised it, and detach a graft that keeps trapping.
//! That rule lives here once. What differs between the hosts is only
//! where a graft's supervisor state is kept, so the core is generic over
//! a per-graft [`Book`]: the scalar host keeps plain fields, the shards
//! keep one `Arc<SharedGraft>` of atomics that every shard's replica
//! points at. Monomorphisation keeps the scalar path free of atomics.
//!
//! The entry points keep only what really differs between the hosts:
//! the shard's mailbox sync, its fused `invoke_batch` prefix (which
//! charges each call through [`Meter::charge`]), the telemetry sink a
//! flush publishes to, and the trace-mint source.

use std::collections::BTreeMap;
use std::time::Instant;

use graft_api::{EntryId, ExtensionEngine, GraftError, GraftLedger, Technology, TrapKind, Verdict};
use graft_telemetry::{TraceBuffer, TraceEvent, TraceId, TRACE_SHARD_SCALAR};

use crate::host::{GraftState, HostConfig, HostStats};
use crate::point::AttachPoint;
use crate::postmortem::PostmortemReport;
use crate::recovery::{self, SalvagedState};

/// Chain depths recorded in the `kernel.chain_depth` histogram are
/// clamped to this many slots (depth 16+ shares the last slot).
pub(crate) const DEPTH_SLOTS: usize = 17;

/// What a graft was installed as: fixed for its lifetime.
pub(crate) struct Ident {
    pub(crate) name: String,
    pub(crate) tech: Technology,
    /// Region names the supervisor salvages at detach (empty = none).
    pub(crate) plan: Vec<String>,
}

/// One graft's supervisor state, as the core reads and updates it.
///
/// The rules (when to quarantine, how the backoff window is sized, the
/// order of the detach ladder) live in [`Meter`]; a book supplies only
/// the state updates, plain or atomic.
pub(crate) trait Book {
    /// Host-wide state the updates need: the scalar host's policy and
    /// postmortem log, or the sharded control plane.
    type Ctx;
    fn config(ctx: &Self::Ctx) -> &HostConfig;
    fn ident(&self) -> &Ident;
    fn state(&self) -> GraftState;
    /// The dispatch gate: neither quarantined nor banned.
    fn dispatchable(&self) -> bool {
        !matches!(
            self.state(),
            GraftState::Quarantined { .. } | GraftState::Banned
        )
    }
    /// One clean invocation: walks probation back toward `Active`.
    fn note_clean(&mut self);
    /// Counts one strike; returns the strikes since (re-)admission.
    fn add_strike(&mut self) -> u32;
    fn strikes(&self) -> u32;
    /// Quarantines the graft; `false` when another shard already has.
    fn quarantine(&mut self, by: TrapKind, ctx: &Self::Ctx) -> bool;
    /// Counts one lifetime quarantine trip; returns the new count.
    fn add_trip(&mut self) -> u32;
    fn ban(&mut self);
    fn set_backoff(&mut self, window: u64);
    fn backoff_remaining(&self) -> u64;
    /// Counts one dispatch served without a quarantined graft; `true`
    /// when this call emptied its backoff window.
    fn tick_backoff(&mut self) -> bool;
    /// Puts a quarantined graft on probation; `false` unless it was
    /// quarantined.
    fn readmit(&mut self, ctx: &Self::Ctx) -> bool;
    /// The ledger a postmortem freezes, given the caller's `local` one.
    fn settle(&mut self, local: &mut GraftLedger) -> GraftLedger;
    /// Files a detach's outcome: the state salvaged at it, replacing the
    /// previous detach's (`None` when salvage failed, so a stale map is
    /// never handed back), and its postmortem.
    fn file(
        &mut self,
        ctx: &mut Self::Ctx,
        salvage: Option<SalvagedState>,
        report: PostmortemReport,
    );
}

/// One installed graft on one host: its engine, pre-bound entry, the
/// host-local ledger, and its supervisor book.
pub(crate) struct Slot<B> {
    pub(crate) engine: Box<dyn ExtensionEngine>,
    pub(crate) entry: EntryId,
    pub(crate) ledger: GraftLedger,
    pub(crate) book: B,
}

impl<B> Slot<B> {
    pub(crate) fn new(engine: Box<dyn ExtensionEngine>, entry: EntryId, book: B) -> Self {
        Slot {
            engine,
            entry,
            ledger: GraftLedger::default(),
            book,
        }
    }

    /// Invokes the graft through its pre-bound entry and fills in the
    /// call's duration and fuel.
    fn run(&mut self, args: &[i64], call: &mut Call) -> Result<i64, GraftError> {
        let result = if call.trace != TraceId::NONE {
            self.engine.invoke_id_traced(self.entry, args, call.trace)
        } else {
            self.engine.invoke_id(self.entry, args)
        };
        call.ns = ns_since(call.started);
        call.fuel = self.engine.fuel_used();
        result
    }
}

/// One graft call as [`Meter::charge`] accounts it.
pub(crate) struct Call {
    /// The attach point, or `None` for a direct invocation.
    pub(crate) point: Option<AttachPoint>,
    /// The dispatch's causal id; [`TraceId::NONE`] when not recording.
    pub(crate) trace: TraceId,
    /// Position in the chain walk.
    pub(crate) seq: u32,
    pub(crate) started: Instant,
    pub(crate) ns: u64,
    pub(crate) fuel: Option<u64>,
}

impl Call {
    /// A call starting now; [`Slot::run`] fills in its cost.
    pub(crate) fn new(point: Option<AttachPoint>, trace: TraceId, seq: u32) -> Self {
        Call {
            point,
            trace,
            seq,
            started: Instant::now(),
            ns: 0,
            fuel: None,
        }
    }
}

pub(crate) fn ns_since(started: Instant) -> u64 {
    started.elapsed().as_nanos().min(u64::MAX as u128) as u64
}

pub(crate) fn no_such_graft(id: u64) -> GraftError {
    GraftError::Unavailable {
        graft: format!("graft#{id}"),
        missing: "installation (no such graft)".into(),
    }
}

/// A host's per-call accounting: statistics, chain-depth counts, the
/// flight recorder, and the context its books update.
pub(crate) struct Meter<C> {
    pub(crate) ctx: C,
    pub(crate) stats: HostStats,
    /// Counts already published by a flush.
    pub(crate) published: HostStats,
    pub(crate) depth_counts: [u64; DEPTH_SLOTS],
    published_depth: [u64; DEPTH_SLOTS],
    /// The flight recorder: one [`TraceEvent`] per consulted graft when
    /// recording is armed. Thread-confined, lock-free; published to the
    /// global trace ring by a flush.
    pub(crate) recorder: TraceBuffer,
    /// Dispatches traced so far, the sequence [`TraceId::mint`] takes.
    trace_seq: u64,
    /// The worker shard, `None` on the scalar host: the trace-mint
    /// source and the shard stamped on events and postmortems.
    shard: Option<u32>,
}

impl<C> Meter<C> {
    /// A causal id for the next dispatch or direct invocation, when
    /// recording is armed ([`TraceId::NONE`] otherwise). The shard index
    /// is the mint source, so ids are unique without a shared atomic.
    fn mint(&mut self) -> TraceId {
        if !graft_telemetry::tracing() {
            return TraceId::NONE;
        }
        self.trace_seq += 1;
        TraceId::mint(self.shard.unwrap_or(0) as u16, self.trace_seq)
    }

    fn record(&mut self, id: u64, tech: Technology, call: &Call, verdict: u8, value: i64) {
        self.recorder.record(TraceEvent {
            ts_ns: graft_telemetry::since_epoch_ns(call.started),
            trace: call.trace,
            seq: call.seq,
            graft: id,
            shard: self.shard.unwrap_or(TRACE_SHARD_SCALAR),
            point: call.point.map_or(u8::MAX, |p| p as u8),
            tech: tech as u8,
            verdict,
            value,
            duration_ns: call.ns,
            fuel: call.fuel.unwrap_or(0),
        });
    }

    /// Charges one finished call to its graft: trace event, ledger,
    /// statistics, probation credit or strike. A non-trap error is the
    /// framework's fault, not the graft's: it counts as a marshal
    /// failure and never as an invocation.
    #[inline]
    pub(crate) fn charge<B: Book<Ctx = C>>(
        &mut self,
        id: u64,
        slot: &mut Slot<B>,
        call: &Call,
        result: &Result<i64, GraftError>,
    ) {
        if call.trace != TraceId::NONE {
            // A direct invocation has no attach point; its `Ok` records
            // the return value under the override verdict.
            let (verdict, value) = match (result, call.point) {
                (Ok(ret), None) => (graft_telemetry::TRACE_VERDICT_OVERRIDE, *ret),
                (Ok(ret), Some(point)) => match point.decode(*ret) {
                    Verdict::Override(v) => (graft_telemetry::TRACE_VERDICT_OVERRIDE, v),
                    Verdict::Continue => (graft_telemetry::TRACE_VERDICT_CONTINUE, 0),
                },
                (Err(GraftError::Trap(trap)), _) => (
                    graft_telemetry::TRACE_VERDICT_TRAP,
                    trap.kind() as usize as i64,
                ),
                (Err(_), _) => (graft_telemetry::TRACE_VERDICT_MARSHAL_FAIL, 0),
            };
            self.record(id, slot.book.ident().tech, call, verdict, value);
        }
        match result {
            Ok(_) => {
                slot.ledger.record_ok(call.ns, call.fuel);
                slot.book.note_clean();
                self.stats.invocations += 1;
            }
            Err(GraftError::Trap(trap)) => {
                slot.ledger.record_trap(call.ns, call.fuel, trap);
                self.stats.invocations += 1;
                self.stats.traps += 1;
                let strikes = slot.book.add_strike();
                let kind = trap.kind();
                // One fuel exhaustion, or any trap on probation, detaches
                // at once; otherwise the threshold does.
                let instant = kind == TrapKind::FuelExhausted
                    || matches!(slot.book.state(), GraftState::Probation { .. });
                if (instant || strikes >= B::config(&self.ctx).trap_threshold)
                    && slot.book.quarantine(kind, &self.ctx)
                {
                    self.detach(id, slot, kind);
                }
            }
            Err(_) => self.stats.marshal_failures += 1,
        }
    }

    /// The detach ladder, run once per quarantine by the caller that won
    /// it: salvage the planned regions out of the still-reachable engine,
    /// then ban at the ceiling or arm the backoff window, then file the
    /// postmortem. Cold path.
    fn detach<B: Book<Ctx = C>>(&mut self, id: u64, slot: &mut Slot<B>, reason: TrapKind) {
        self.stats.quarantine_trips += 1;
        let trips = slot.book.add_trip();
        let ident = slot.book.ident();
        let salvage = if ident.plan.is_empty() {
            None
        } else {
            recovery::salvage(&ident.name, ident.tech, slot.engine.as_ref(), &ident.plan)
        };
        let salvaged_words = salvage.as_ref().map(SalvagedState::words);
        if let Some(words) = salvaged_words {
            self.stats.salvages += 1;
            self.stats.salvaged_words += words as u64;
        }
        let cfg = *B::config(&self.ctx);
        if cfg.backoff_base > 0 {
            if trips >= cfg.ban_ceiling.max(1) {
                slot.book.ban();
                self.stats.bans += 1;
            } else {
                // The window doubles with each trip: base << (trips - 1).
                let shift = u64::from(trips - 1).min(62);
                slot.book
                    .set_backoff(cfg.backoff_base.saturating_mul(1u64 << shift));
            }
        }
        let mut report = PostmortemReport {
            graft: slot.book.ident().name.clone(),
            graft_id: id,
            tech: slot.book.ident().tech,
            reason,
            state: slot.book.state(),
            ledger: slot.book.settle(&mut slot.ledger),
            strikes: slot.book.strikes(),
            quarantines: trips,
            backoff_remaining: slot.book.backoff_remaining(),
            salvaged_words,
            events: Vec::new(),
            detached_at_ns: graft_telemetry::now_ns(),
            shard: self.shard,
        };
        // The tail only sees this host's recorder; a sharded caller can
        // re-attach a merged timeline with `adopt_tail`.
        report.adopt_tail(&self.recorder.events());
        slot.book.file(&mut self.ctx, salvage, report);
    }

    /// One dispatch served without a quarantined graft: counts down its
    /// backoff window, and the call that empties it re-admits the graft
    /// on probation.
    fn tick_backoff<B: Book<Ctx = C>>(&mut self, book: &mut B) {
        if B::config(&self.ctx).backoff_base > 0 && book.tick_backoff() && book.readmit(&self.ctx) {
            self.stats.readmits += 1;
            self.stats.auto_readmits += 1;
        }
    }

    /// Statistics gathered since the previous call, which a flush
    /// publishes to its sink.
    pub(crate) fn take_delta(&mut self) -> HostStats {
        let delta = self.stats.delta_since(&self.published);
        self.published = self.stats;
        delta
    }

    /// Publishes the chain-depth counts gathered since the previous call
    /// to the `kernel.chain_depth` histogram.
    pub(crate) fn publish_depth(&mut self) {
        let prev = std::mem::replace(&mut self.published_depth, self.depth_counts);
        if !graft_telemetry::enabled() {
            return;
        }
        let depth = graft_telemetry::histogram!("kernel.chain_depth");
        for (d, (&n, &p)) in self.depth_counts.iter().zip(prev.iter()).enumerate() {
            depth.record_n(d as u64, n.saturating_sub(p));
        }
    }
}

/// The chains, the grafts they reference, and the meter charging them.
pub(crate) struct Core<B: Book> {
    pub(crate) grafts: BTreeMap<u64, Slot<B>>,
    pub(crate) chains: [Vec<u64>; AttachPoint::COUNT],
    pub(crate) meter: Meter<B::Ctx>,
}

impl<B: Book> Core<B> {
    pub(crate) fn new(ctx: B::Ctx, shard: Option<u32>) -> Self {
        Core {
            grafts: BTreeMap::new(),
            chains: std::array::from_fn(|_| Vec::new()),
            meter: Meter {
                ctx,
                stats: HostStats::default(),
                published: HostStats::default(),
                depth_counts: [0; DEPTH_SLOTS],
                published_depth: [0; DEPTH_SLOTS],
                recorder: TraceBuffer::new(graft_telemetry::TRACE_BUFFER_CAPACITY),
                trace_seq: 0,
                shard,
            },
        }
    }

    pub(crate) fn config(&self) -> &HostConfig {
        B::config(&self.meter.ctx)
    }

    /// Links an installed graft into `point`'s chain at `at` (clamped).
    pub(crate) fn link(&mut self, point: AttachPoint, id: u64, at: usize, slot: Slot<B>) {
        self.grafts.insert(id, slot);
        let chain = &mut self.chains[point as usize];
        chain.insert(at.min(chain.len()), id);
    }

    /// Removes a graft from every chain; returns its slot.
    pub(crate) fn unlink(&mut self, id: u64) -> Option<Slot<B>> {
        let slot = self.grafts.remove(&id)?;
        for chain in &mut self.chains {
            chain.retain(|&g| g != id);
        }
        Some(slot)
    }

    pub(crate) fn chain(&self, point: AttachPoint) -> Vec<crate::GraftId> {
        self.chains[point as usize]
            .iter()
            .map(|&id| crate::GraftId(id))
            .collect()
    }

    pub(crate) fn active_len(&self, point: AttachPoint) -> usize {
        self.chains[point as usize]
            .iter()
            .filter(|id| self.grafts[id].book.dispatchable())
            .count()
    }

    /// Walks `point`'s chain: marshals each dispatchable graft, invokes
    /// it, charges the call, and returns the first `Override`. Traps and
    /// marshalling failures are charged to the offending graft (or the
    /// host) and the walk continues; a chain that declines entirely
    /// counts one default.
    pub(crate) fn dispatch<F>(&mut self, point: AttachPoint, mut marshal: F) -> Verdict
    where
        F: FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        let depth = self.active_len(point);
        let Core {
            grafts,
            chains,
            meter,
        } = self;
        meter.stats.dispatches += 1;
        meter.depth_counts[depth.min(DEPTH_SLOTS - 1)] += 1;
        // One causal id per dispatch, threaded through every invocation
        // it causes (including across the upcall wire).
        let trace = meter.mint();
        let mut seq: u32 = 0;
        for &id in &chains[point as usize] {
            let Some(slot) = grafts.get_mut(&id) else {
                continue;
            };
            if !slot.book.dispatchable() {
                meter.tick_backoff(&mut slot.book);
                continue;
            }
            let mut call = Call::new(Some(point), trace, seq);
            seq += 1;
            let result = match marshal(slot.engine.as_mut()) {
                Ok(args) => slot.run(&args, &mut call),
                // Kernel-side marshalling failed for this tenant (e.g. a
                // dead upcall transport): a non-trap error, charged to
                // the host's failure count, never to the graft's ledger.
                Err(e) => {
                    call.ns = ns_since(call.started);
                    Err(e)
                }
            };
            meter.charge(id, slot, &call, &result);
            if let Ok(ret) = result {
                match point.decode(ret) {
                    v @ Verdict::Override(_) => {
                        meter.stats.overrides += 1;
                        return v;
                    }
                    Verdict::Continue => meter.stats.continues += 1,
                }
            }
        }
        meter.stats.defaults += 1;
        Verdict::Continue
    }

    /// Invokes one graft directly, with the same charge as a chain walk
    /// and the quarantine gate: a detached graft returns a deterministic
    /// [`GraftError::Unavailable`], never a panic.
    pub(crate) fn invoke(&mut self, id: u64, args: &[i64]) -> Result<i64, GraftError> {
        let Some(slot) = self.grafts.get_mut(&id) else {
            return Err(no_such_graft(id));
        };
        if !slot.book.dispatchable() {
            let missing = if slot.book.state() == GraftState::Banned {
                "permanently banned at the backoff ceiling"
            } else {
                "detached by quarantine supervisor"
            };
            return Err(GraftError::Unavailable {
                graft: slot.book.ident().name.clone(),
                missing: missing.into(),
            });
        }
        let mut call = Call::new(None, self.meter.mint(), 0);
        let result = slot.run(args, &mut call);
        self.meter.charge(id, slot, &call, &result);
        result
    }
}
