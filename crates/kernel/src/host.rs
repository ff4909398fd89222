//! The multi-tenant graft host: chains, ledgers, and the quarantine
//! supervisor.

use graft_api::{ExtensionEngine, GraftError, GraftLedger, Technology, TrapKind, Verdict};
use graft_telemetry::TraceEvent;

use crate::dispatch::{no_such_graft, Book, Core, Ident, Slot};
use crate::point::AttachPoint;
use crate::postmortem::PostmortemReport;
use crate::recovery::{self, SalvagedState};

/// Supervisor policy knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HostConfig {
    /// Trapped invocations before a graft is quarantined (the paper's
    /// "unload the extension" containment response). A single
    /// [`Trap::FuelExhausted`](graft_api::Trap::FuelExhausted)
    /// quarantines immediately regardless.
    pub trap_threshold: u32,
    /// Execution budget applied to every installed engine that meters
    /// fuel (`None` leaves engines unmetered).
    pub fuel_budget: Option<u64>,
    /// Clean invocations a re-admitted graft must complete on probation
    /// before returning to full `Active` standing. Any trap while on
    /// probation re-quarantines instantly.
    pub probation_clean: u64,
    /// Exponential-backoff re-admission: after its first quarantine a
    /// graft is automatically re-admitted (on probation) once this many
    /// dispatches have been served *without* it — the clean built-in
    /// window. The window doubles on each re-quarantine. `0` disables
    /// automatic re-admission entirely (the default): detach is final
    /// until an explicit [`GraftHost::readmit`].
    pub backoff_base: u64,
    /// Quarantine trips after which a graft on the backoff ladder is
    /// permanently banned instead of re-admitted. Only consulted when
    /// `backoff_base > 0`.
    pub ban_ceiling: u32,
}

impl Default for HostConfig {
    fn default() -> Self {
        HostConfig {
            trap_threshold: 3,
            fuel_budget: Some(4_000_000),
            probation_clean: 8,
            backoff_base: 0,
            ban_ceiling: 5,
        }
    }
}

/// Lifecycle state of one installed graft.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GraftState {
    /// In the chain, dispatching normally.
    Active,
    /// Re-admitted after quarantine; dispatching, but one more trap
    /// detaches it immediately.
    Probation {
        /// Clean invocations still required to regain `Active`.
        remaining_clean: u64,
    },
    /// Detached by the supervisor; skipped by dispatch, and direct
    /// invocation returns a deterministic [`GraftError::Unavailable`].
    Quarantined {
        /// The kind of trap that tripped the supervisor.
        by: TrapKind,
    },
    /// Hit the backoff ladder's permanent-ban ceiling: detached for
    /// good — never auto-readmitted, and [`GraftHost::readmit`]
    /// refuses it.
    Banned,
}

/// Handle to one installed graft.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraftId(pub u64);

/// Aggregate host statistics (flushed to `kernel.*` telemetry counters
/// by [`GraftHost::flush`], and on drop for whatever remains).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HostStats {
    /// Chain dispatches requested by substrates.
    pub dispatches: u64,
    /// Graft invocations performed (successful or trapped).
    pub invocations: u64,
    /// Invocations that ended in a trap.
    pub traps: u64,
    /// Dispatches decided by a graft's `Override`.
    pub overrides: u64,
    /// Per-graft `Continue` verdicts (the chain kept walking).
    pub continues: u64,
    /// Dispatches that fell through to the built-in kernel policy.
    pub defaults: u64,
    /// Quarantine trips.
    pub quarantine_trips: u64,
    /// Grafts installed.
    pub installs: u64,
    /// Grafts uninstalled.
    pub uninstalls: u64,
    /// Quarantined grafts re-admitted on probation.
    pub readmits: u64,
    /// Marshalling or non-trap framework failures skipped over.
    pub marshal_failures: u64,
    /// Detaches at which the supervisor salvaged the graft's planned
    /// regions into a [`SalvagedState`](crate::recovery::SalvagedState).
    pub salvages: u64,
    /// Total words lifted out of trapped grafts by salvage.
    pub salvaged_words: u64,
    /// Re-admissions performed by the backoff ladder (a subset of
    /// `readmits`).
    pub auto_readmits: u64,
    /// Grafts permanently banned at the backoff ceiling.
    pub bans: u64,
}

impl HostStats {
    /// Field-by-field saturating difference (`self - prev`), used to
    /// publish only the counts not yet flushed to telemetry.
    pub fn delta_since(&self, prev: &HostStats) -> HostStats {
        HostStats {
            dispatches: self.dispatches.saturating_sub(prev.dispatches),
            invocations: self.invocations.saturating_sub(prev.invocations),
            traps: self.traps.saturating_sub(prev.traps),
            overrides: self.overrides.saturating_sub(prev.overrides),
            continues: self.continues.saturating_sub(prev.continues),
            defaults: self.defaults.saturating_sub(prev.defaults),
            quarantine_trips: self.quarantine_trips.saturating_sub(prev.quarantine_trips),
            installs: self.installs.saturating_sub(prev.installs),
            uninstalls: self.uninstalls.saturating_sub(prev.uninstalls),
            readmits: self.readmits.saturating_sub(prev.readmits),
            marshal_failures: self.marshal_failures.saturating_sub(prev.marshal_failures),
            salvages: self.salvages.saturating_sub(prev.salvages),
            salvaged_words: self.salvaged_words.saturating_sub(prev.salvaged_words),
            auto_readmits: self.auto_readmits.saturating_sub(prev.auto_readmits),
            bans: self.bans.saturating_sub(prev.bans),
        }
    }

    /// Field-by-field accumulation.
    pub fn merge(&mut self, other: &HostStats) {
        self.dispatches += other.dispatches;
        self.invocations += other.invocations;
        self.traps += other.traps;
        self.overrides += other.overrides;
        self.continues += other.continues;
        self.defaults += other.defaults;
        self.quarantine_trips += other.quarantine_trips;
        self.installs += other.installs;
        self.uninstalls += other.uninstalls;
        self.readmits += other.readmits;
        self.marshal_failures += other.marshal_failures;
        self.salvages += other.salvages;
        self.salvaged_words += other.salvaged_words;
        self.auto_readmits += other.auto_readmits;
        self.bans += other.bans;
    }
}

/// `GraftHost`'s supervisor book: plain fields, no atomics.
pub(crate) struct ScalarBook {
    ident: Ident,
    state: GraftState,
    /// Trapped invocations since the last (re-)admission.
    strikes: u32,
    /// State salvaged at the most recent detach, if any.
    salvage: Option<SalvagedState>,
    /// Lifetime quarantine trips (the backoff ladder's rung).
    quarantines: u32,
    /// Dispatches still to be served without this graft before the
    /// backoff ladder re-admits it (0 = not armed).
    backoff_remaining: u64,
}

/// What `GraftHost`'s books update besides themselves.
pub(crate) struct ScalarCtx {
    config: HostConfig,
    /// Postmortems captured at quarantine trips, oldest first.
    postmortems: Vec<PostmortemReport>,
}

impl Book for ScalarBook {
    type Ctx = ScalarCtx;

    fn config(ctx: &ScalarCtx) -> &HostConfig {
        &ctx.config
    }

    fn ident(&self) -> &Ident {
        &self.ident
    }

    fn state(&self) -> GraftState {
        self.state
    }

    fn note_clean(&mut self) {
        if let GraftState::Probation { remaining_clean } = &mut self.state {
            *remaining_clean = remaining_clean.saturating_sub(1);
            if *remaining_clean == 0 {
                self.state = GraftState::Active;
            }
        }
    }

    fn add_strike(&mut self) -> u32 {
        self.strikes += 1;
        self.strikes
    }

    fn strikes(&self) -> u32 {
        self.strikes
    }

    fn quarantine(&mut self, by: TrapKind, _: &ScalarCtx) -> bool {
        self.state = GraftState::Quarantined { by };
        true
    }

    fn add_trip(&mut self) -> u32 {
        self.quarantines = self.quarantines.saturating_add(1);
        self.quarantines
    }

    fn ban(&mut self) {
        self.state = GraftState::Banned;
    }

    fn set_backoff(&mut self, window: u64) {
        self.backoff_remaining = window;
    }

    fn backoff_remaining(&self) -> u64 {
        self.backoff_remaining
    }

    fn tick_backoff(&mut self) -> bool {
        if self.backoff_remaining == 0 || !matches!(self.state, GraftState::Quarantined { .. }) {
            return false;
        }
        self.backoff_remaining -= 1;
        self.backoff_remaining == 0
    }

    fn readmit(&mut self, ctx: &ScalarCtx) -> bool {
        if !matches!(self.state, GraftState::Quarantined { .. }) {
            return false;
        }
        self.strikes = 0;
        self.backoff_remaining = 0;
        self.state = GraftState::Probation {
            remaining_clean: ctx.config.probation_clean.max(1),
        };
        true
    }

    fn settle(&mut self, local: &mut GraftLedger) -> GraftLedger {
        *local
    }

    fn file(
        &mut self,
        ctx: &mut ScalarCtx,
        salvage: Option<SalvagedState>,
        report: PostmortemReport,
    ) {
        self.salvage = salvage;
        ctx.postmortems.push(report);
    }
}

/// The extension kernel: a registry of attach-point chains over
/// installed, individually-accounted grafts.
///
/// Dispatch walks a point's chain in install order. Each graft is
/// marshalled and invoked through its pre-bound [`EntryId`]; the first
/// `Override` wins, traps are charged to the offending graft's ledger
/// (and only that graft), and a chain that declines entirely yields
/// [`Verdict::Continue`] so the substrate's built-in policy applies.
pub struct GraftHost {
    core: Core<ScalarBook>,
    next_id: u64,
}

impl Default for GraftHost {
    fn default() -> Self {
        Self::new()
    }
}

impl GraftHost {
    /// A host with the default supervisor policy (3-trap threshold).
    pub fn new() -> Self {
        Self::with_config(HostConfig::default())
    }

    /// A host with an explicit supervisor policy.
    pub fn with_config(config: HostConfig) -> Self {
        let ctx = ScalarCtx {
            config,
            postmortems: Vec::new(),
        };
        GraftHost {
            core: Core::new(ctx, None),
            next_id: 1,
        }
    }

    /// The supervisor policy in force.
    pub fn config(&self) -> HostConfig {
        *self.core.config()
    }

    /// Aggregate statistics so far.
    pub fn stats(&self) -> HostStats {
        self.core.meter.stats
    }

    /// Installs `engine` at the end of `point`'s chain, binding the
    /// point's entry and applying the fuel budget. The engine's regions
    /// should already be marshalled with any install-time state (access
    /// plans, logical-disk maps, ...).
    pub fn install(
        &mut self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
    ) -> Result<GraftId, GraftError> {
        self.install_at(point, name, engine, usize::MAX)
    }

    /// Installs at the *front* of the chain — the hot-install path a
    /// hostile tenant would take to shadow everyone else.
    pub fn install_front(
        &mut self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
    ) -> Result<GraftId, GraftError> {
        self.install_at(point, name, engine, 0)
    }

    fn install_at(
        &mut self,
        point: AttachPoint,
        name: &str,
        mut engine: Box<dyn ExtensionEngine>,
        at: usize,
    ) -> Result<GraftId, GraftError> {
        // Bind once, up front: dispatch never does a string lookup.
        let entry = engine.bind_entry(point.entry())?;
        engine.set_fuel(self.core.config().fuel_budget);
        let id = self.next_id;
        self.next_id += 1;
        let book = ScalarBook {
            ident: Ident {
                name: name.to_string(),
                tech: engine.technology(),
                plan: Vec::new(),
            },
            state: GraftState::Active,
            strikes: 0,
            salvage: None,
            quarantines: 0,
            backoff_remaining: 0,
        };
        self.core
            .link(point, id, at, Slot::new(engine, entry, book));
        self.core.meter.stats.installs += 1;
        Ok(GraftId(id))
    }

    /// Removes a graft from its chain and drops its engine. Returns
    /// `false` for an unknown id.
    pub fn uninstall(&mut self, id: GraftId) -> bool {
        if self.core.unlink(id.0).is_none() {
            return false;
        }
        self.core.meter.stats.uninstalls += 1;
        true
    }

    /// Re-admits a quarantined graft on probation. Returns `false`
    /// unless the graft exists and is currently quarantined.
    pub fn readmit(&mut self, id: GraftId) -> bool {
        let Some(g) = self.core.grafts.get_mut(&id.0) else {
            return false;
        };
        if !g.book.readmit(&self.core.meter.ctx) {
            return false;
        }
        self.core.meter.stats.readmits += 1;
        true
    }

    /// Registers the regions the supervisor must salvage out of this
    /// graft when it detaches it (the Logical Disk graft's `map`, for
    /// example). Each name is validated against the engine now, so a
    /// typo fails at configure time, not at detach time.
    pub fn set_salvage_plan(&mut self, id: GraftId, regions: &[&str]) -> Result<(), GraftError> {
        let g = self
            .core
            .grafts
            .get_mut(&id.0)
            .ok_or_else(|| no_such_graft(id.0))?;
        for name in regions {
            g.engine.bind_region(name)?;
        }
        g.book.ident.plan = regions.iter().map(|s| s.to_string()).collect();
        Ok(())
    }

    fn book(&self, id: GraftId) -> Option<&ScalarBook> {
        self.core.grafts.get(&id.0).map(|g| &g.book)
    }

    /// The state salvaged at this graft's most recent detach, if the
    /// supervisor managed to lift it out.
    pub fn salvage_ref(&self, id: GraftId) -> Option<&SalvagedState> {
        self.book(id).and_then(|b| b.salvage.as_ref())
    }

    /// Takes ownership of the salvaged state (e.g. to re-seed a
    /// replacement graft or the built-in policy).
    pub fn take_salvage(&mut self, id: GraftId) -> Option<SalvagedState> {
        self.core
            .grafts
            .get_mut(&id.0)
            .and_then(|g| g.book.salvage.take())
    }

    /// Snapshots the graft's salvage plan from its *live* engine right
    /// now, without detaching — an explicit checkpoint.
    pub fn salvage_now(&mut self, id: GraftId) -> Option<SalvagedState> {
        let g = self.core.grafts.get(&id.0)?;
        let Ident { name, tech, plan } = &g.book.ident;
        if plan.is_empty() {
            return None;
        }
        let s = recovery::salvage(name, *tech, g.engine.as_ref(), plan)?;
        self.core.meter.stats.salvages += 1;
        self.core.meter.stats.salvaged_words += s.words() as u64;
        Some(s)
    }

    /// Lifetime quarantine trips for one graft (the backoff rung).
    pub fn quarantine_count(&self, id: GraftId) -> Option<u32> {
        self.book(id).map(|b| b.quarantines)
    }

    /// The ledger of one graft.
    pub fn ledger(&self, id: GraftId) -> Option<&GraftLedger> {
        self.core.grafts.get(&id.0).map(|g| &g.ledger)
    }

    /// The lifecycle state of one graft.
    pub fn state(&self, id: GraftId) -> Option<GraftState> {
        self.book(id).map(|b| b.state)
    }

    /// Whether the supervisor has detached this graft.
    pub fn is_quarantined(&self, id: GraftId) -> bool {
        matches!(self.state(id), Some(GraftState::Quarantined { .. }))
    }

    /// The technology a graft was installed under.
    pub fn technology(&self, id: GraftId) -> Option<Technology> {
        self.book(id).map(|b| b.ident.tech)
    }

    /// The name a graft was installed under.
    pub fn name(&self, id: GraftId) -> Option<&str> {
        self.book(id).map(|b| b.ident.name.as_str())
    }

    /// Direct engine access, e.g. to re-marshal state after re-admission.
    pub fn engine_mut(&mut self, id: GraftId) -> Option<&mut (dyn ExtensionEngine + '_)> {
        self.core
            .grafts
            .get_mut(&id.0)
            .map(|g| g.engine.as_mut() as _)
    }

    /// The chain installed at `point`, in dispatch order.
    pub fn chain(&self, point: AttachPoint) -> Vec<GraftId> {
        self.core.chain(point)
    }

    /// Grafts at `point` that dispatch would actually consult.
    pub fn active_len(&self, point: AttachPoint) -> usize {
        self.core.active_len(point)
    }

    /// Walks `point`'s chain: marshals each non-quarantined graft with
    /// `marshal` (which loads the graft's regions and returns the
    /// argument vector), invokes it through the pre-bound handle, and
    /// returns the first `Override`. Traps and marshalling failures are
    /// charged to the offending graft and the walk continues — one bad
    /// tenant never takes the attach point down.
    pub fn dispatch<F>(&mut self, point: AttachPoint, marshal: F) -> Verdict
    where
        F: FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        self.core.dispatch(point, marshal)
    }

    /// Invokes one graft directly through the host, with full ledger
    /// accounting and the quarantine gate: a detached graft returns a
    /// deterministic [`GraftError::Unavailable`], never a panic.
    pub fn invoke(&mut self, id: GraftId, args: &[i64]) -> Result<i64, GraftError> {
        self.core.invoke(id.0, args)
    }

    /// Flushes statistics accumulated since the last flush into the
    /// global telemetry counters.
    ///
    /// Dispatch — the measured path — never touches an atomic; counts
    /// accumulate in plain fields and reach telemetry only here.
    /// Historically this ran *only* from `Drop`, which silently lost
    /// every count when a host was leaked (`std::mem::forget`, an
    /// `Rc` cycle) — and left nothing persisted if a run aborted after
    /// hours of dispatching. `flush` is idempotent (it publishes only
    /// the delta since the previous flush, and `Drop` publishes only
    /// what an explicit flush has not already pushed), so callers can
    /// checkpoint at will: call it before a risky section, before
    /// snapshotting telemetry, or never — `Drop` still covers the
    /// normal teardown *and* unwinding out of a panicking dispatch.
    pub fn flush(&mut self) {
        let meter = &mut self.core.meter;
        let s = meter.take_delta();
        meter.publish_depth();
        // Publishes only events not yet flushed, and accounts every
        // overwritten-unpublished event to `telemetry.trace.dropped`.
        meter.recorder.flush();
        if !graft_telemetry::enabled() {
            return;
        }
        graft_telemetry::counter!("kernel.dispatches").add(s.dispatches);
        graft_telemetry::counter!("kernel.invocations").add(s.invocations);
        graft_telemetry::counter!("kernel.traps").add(s.traps);
        graft_telemetry::counter!("kernel.verdict_override").add(s.overrides);
        graft_telemetry::counter!("kernel.verdict_continue").add(s.continues);
        graft_telemetry::counter!("kernel.verdict_default").add(s.defaults);
        graft_telemetry::counter!("kernel.quarantine_trips").add(s.quarantine_trips);
        graft_telemetry::counter!("kernel.installs").add(s.installs);
        graft_telemetry::counter!("kernel.uninstalls").add(s.uninstalls);
        graft_telemetry::counter!("kernel.readmits").add(s.readmits);
        graft_telemetry::counter!("kernel.marshal_failures").add(s.marshal_failures);
        graft_telemetry::counter!("kernel.recovery.salvages").add(s.salvages);
        graft_telemetry::counter!("kernel.recovery.salvaged_words").add(s.salvaged_words);
        graft_telemetry::counter!("kernel.recovery.auto_readmits").add(s.auto_readmits);
        graft_telemetry::counter!("kernel.recovery.bans").add(s.bans);
    }

    /// Every trace event still retained by this host's flight recorder,
    /// oldest first (empty unless recording was armed).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.core.meter.recorder.events()
    }

    /// Postmortem reports captured at quarantine trips, oldest first.
    pub fn postmortems(&self) -> &[PostmortemReport] {
        &self.core.meter.ctx.postmortems
    }

    /// Takes ownership of the captured postmortems (e.g. to embed them
    /// in a run artifact).
    pub fn take_postmortems(&mut self) -> Vec<PostmortemReport> {
        std::mem::take(&mut self.core.meter.ctx.postmortems)
    }
}

impl Drop for GraftHost {
    fn drop(&mut self) {
        // Publishes only what explicit flushes have not already pushed;
        // this also runs while unwinding out of a panicking dispatch,
        // so counts up to the fault survive into telemetry.
        self.flush();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::{EntryPoint, NativeEngine, RegionSpec, RegionStore, Trap};

    /// A tiny native engine exporting `select_victim/2` whose body is
    /// the given closure.
    fn victim_engine<F>(body: F) -> Box<dyn ExtensionEngine>
    where
        F: FnMut(&str, &[i64], &mut RegionStore) -> Result<i64, GraftError> + Send + 'static,
    {
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        Box::new(NativeEngine::with_entries(&specs, &entries, Box::new(body)).unwrap())
    }

    fn constant(v: i64) -> Box<dyn ExtensionEngine> {
        victim_engine(move |_, _, _| Ok(v))
    }

    fn declining() -> Box<dyn ExtensionEngine> {
        victim_engine(|_, _, _| Ok(-1))
    }

    fn trapping() -> Box<dyn ExtensionEngine> {
        victim_engine(|_, _, _| Err(Trap::DivByZero.into()))
    }

    fn dispatch_once(host: &mut GraftHost) -> Verdict {
        host.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]))
    }

    #[test]
    fn empty_chain_yields_continue() {
        let mut host = GraftHost::new();
        assert_eq!(dispatch_once(&mut host), Verdict::Continue);
        assert_eq!(host.stats().defaults, 1);
        assert_eq!(host.active_len(AttachPoint::VmEvict), 0);
    }

    #[test]
    fn first_override_wins_in_chain_order() {
        let mut host = GraftHost::new();
        let a = host.install(AttachPoint::VmEvict, "decline", declining()).unwrap();
        let b = host.install(AttachPoint::VmEvict, "forty-two", constant(42)).unwrap();
        let c = host.install(AttachPoint::VmEvict, "seven", constant(7)).unwrap();
        assert_eq!(host.chain(AttachPoint::VmEvict), vec![a, b, c]);
        assert_eq!(dispatch_once(&mut host), Verdict::Override(42));
        // The decliner was consulted, the shadowed graft was not.
        assert_eq!(host.ledger(a).unwrap().invocations, 1);
        assert_eq!(host.ledger(b).unwrap().invocations, 1);
        assert_eq!(host.ledger(c).unwrap().invocations, 0);
        assert_eq!(host.stats().overrides, 1);
        assert_eq!(host.stats().continues, 1);
    }

    #[test]
    fn install_front_shadows_and_uninstall_restores() {
        let mut host = GraftHost::new();
        let back = host.install(AttachPoint::VmEvict, "back", constant(1)).unwrap();
        let front = host.install_front(AttachPoint::VmEvict, "front", constant(2)).unwrap();
        assert_eq!(host.chain(AttachPoint::VmEvict), vec![front, back]);
        assert_eq!(dispatch_once(&mut host), Verdict::Override(2));
        assert!(host.uninstall(front));
        assert!(!host.uninstall(front));
        assert_eq!(dispatch_once(&mut host), Verdict::Override(1));
    }

    #[test]
    fn supervisor_quarantines_after_threshold_traps() {
        let mut host = GraftHost::new();
        let bad = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        let good = host.install(AttachPoint::VmEvict, "good", constant(9)).unwrap();
        for _ in 0..5 {
            // The hostile front graft traps, the chain still serves.
            assert_eq!(dispatch_once(&mut host), Verdict::Override(9));
        }
        assert!(host.is_quarantined(bad));
        assert_eq!(
            host.state(bad),
            Some(GraftState::Quarantined {
                by: TrapKind::DivByZero
            })
        );
        // Exactly trap_threshold trapped invocations before detach.
        assert_eq!(host.ledger(bad).unwrap().traps, 3);
        assert_eq!(host.ledger(bad).unwrap().invocations, 3);
        assert_eq!(host.stats().quarantine_trips, 1);
        // The well-behaved tenant is untouched.
        assert_eq!(host.state(good), Some(GraftState::Active));
        assert_eq!(host.ledger(good).unwrap().invocations, 5);
    }

    #[test]
    fn quarantined_graft_invoked_directly_is_a_deterministic_error() {
        let mut host = GraftHost::new();
        let bad = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        for _ in 0..3 {
            let _ = host.invoke(bad, &[0, 0]);
        }
        assert!(host.is_quarantined(bad));
        let err = host.invoke(bad, &[0, 0]).unwrap_err();
        match err {
            GraftError::Unavailable { graft, missing } => {
                assert_eq!(graft, "hostile");
                assert!(missing.contains("quarantine"));
            }
            other => panic!("expected Unavailable, got {other}"),
        }
        // The gate holds on repeat.
        assert!(matches!(
            host.invoke(bad, &[0, 0]),
            Err(GraftError::Unavailable { .. })
        ));
    }

    #[test]
    fn fuel_exhaustion_quarantines_immediately() {
        let mut host = GraftHost::new();
        let bad = host
            .install(
                AttachPoint::VmEvict,
                "spinner",
                victim_engine(|_, _, _| Err(Trap::FuelExhausted.into())),
            )
            .unwrap();
        assert_eq!(dispatch_once(&mut host), Verdict::Continue);
        assert!(host.is_quarantined(bad), "one FuelExhausted must detach");
        assert_eq!(host.ledger(bad).unwrap().traps, 1);
        assert_eq!(
            host.ledger(bad)
                .unwrap()
                .trap_counts
                .get(TrapKind::FuelExhausted),
            1
        );
    }

    #[test]
    fn probation_readmits_and_one_more_trap_detaches() {
        let mut host = GraftHost::new();
        // Trap twice, then behave — below threshold, never quarantined.
        let mut calls = 0;
        let flaky = victim_engine(move |_, _, _| {
            calls += 1;
            if calls <= 3 {
                Err(Trap::DivByZero.into())
            } else {
                Ok(5)
            }
        });
        let id = host.install(AttachPoint::VmEvict, "flaky", flaky).unwrap();
        for _ in 0..3 {
            dispatch_once(&mut host);
        }
        assert!(host.is_quarantined(id));
        assert!(!host.readmit(GraftId(999)), "unknown id");
        assert!(host.readmit(id));
        assert!(!host.readmit(id), "only quarantined grafts re-admit");
        assert_eq!(
            host.state(id),
            Some(GraftState::Probation { remaining_clean: 8 })
        );
        // Clean invocations walk it back to Active.
        for _ in 0..8 {
            assert_eq!(dispatch_once(&mut host), Verdict::Override(5));
        }
        assert_eq!(host.state(id), Some(GraftState::Active));
    }

    #[test]
    fn trap_on_probation_requarantines_instantly() {
        let mut host = GraftHost::new();
        let id = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        for _ in 0..3 {
            dispatch_once(&mut host);
        }
        assert!(host.is_quarantined(id));
        assert!(host.readmit(id));
        dispatch_once(&mut host);
        assert!(host.is_quarantined(id), "probation tolerates zero traps");
        assert_eq!(host.stats().quarantine_trips, 2);
        assert_eq!(host.stats().readmits, 1);
    }

    #[test]
    fn chains_are_per_attach_point() {
        let mut host = GraftHost::new();
        host.install(AttachPoint::VmEvict, "evict", constant(1)).unwrap();
        assert_eq!(host.active_len(AttachPoint::VmEvict), 1);
        assert_eq!(host.active_len(AttachPoint::SchedPick), 0);
        assert_eq!(
            host.dispatch(AttachPoint::SchedPick, |_| Ok(vec![1])),
            Verdict::Continue
        );
    }

    #[test]
    fn install_rejects_missing_entry_at_bind_time() {
        let mut host = GraftHost::new();
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "something_else".into(),
            arity: 0,
        }];
        let engine: Box<dyn ExtensionEngine> = Box::new(
            NativeEngine::with_entries(&specs, &entries, Box::new(|_: &str, _: &[i64], _: &mut RegionStore| Ok(0)))
                .unwrap(),
        );
        let err = host.install(AttachPoint::VmEvict, "bad", engine);
        assert!(err.is_err(), "binding select_victim must fail");
        assert_eq!(host.active_len(AttachPoint::VmEvict), 0);
    }

    #[test]
    fn marshal_failure_skips_tenant_without_charging_it() {
        let mut host = GraftHost::new();
        let a = host.install(AttachPoint::VmEvict, "a", constant(3)).unwrap();
        let mut first = true;
        let verdict = host.dispatch(AttachPoint::VmEvict, move |_| {
            if first {
                first = false;
                Err(GraftError::UpcallFailed("dead transport".into()))
            } else {
                Ok(vec![0, 0])
            }
        });
        assert_eq!(verdict, Verdict::Continue);
        assert_eq!(host.ledger(a).unwrap().invocations, 0);
        assert_eq!(host.stats().marshal_failures, 1);
    }

    #[test]
    fn detach_salvages_the_planned_regions() {
        let mut host = GraftHost::new();
        // The saboteur maintains state in `scratch`, then starts
        // trapping: the supervisor must lift the pre-trap state out.
        let mut calls = 0;
        let engine = victim_engine(move |_, _, regions: &mut RegionStore| {
            calls += 1;
            if calls <= 2 {
                let id = regions.id("scratch").unwrap();
                regions.write_id(id, 0, 40 + calls)?;
                Ok(-1)
            } else {
                Err(Trap::DivByZero.into())
            }
        });
        let id = host.install(AttachPoint::VmEvict, "stateful", engine).unwrap();
        assert!(host.set_salvage_plan(id, &["nope"]).is_err(), "typo fails early");
        host.set_salvage_plan(id, &["scratch"]).unwrap();
        for _ in 0..5 {
            dispatch_once(&mut host);
        }
        assert!(host.is_quarantined(id));
        let s = host.salvage_ref(id).expect("salvaged at detach");
        assert_eq!(s.graft, "stateful");
        assert_eq!(s.region("scratch").unwrap()[0], 42, "last pre-trap state");
        assert_eq!(host.stats().salvages, 1);
        assert_eq!(host.stats().salvaged_words, 8);
        let taken = host.take_salvage(id).unwrap();
        assert_eq!(taken.region("scratch").unwrap()[0], 42);
        assert!(host.take_salvage(id).is_none(), "taken once");
    }

    #[test]
    fn salvage_now_checkpoints_without_detaching() {
        let mut host = GraftHost::new();
        let engine = victim_engine(|_, _, regions: &mut RegionStore| {
            let id = regions.id("scratch").unwrap();
            regions.write_id(id, 1, 7)?;
            Ok(-1)
        });
        let id = host.install(AttachPoint::VmEvict, "live", engine).unwrap();
        assert!(host.salvage_now(id).is_none(), "no plan, no checkpoint");
        host.set_salvage_plan(id, &["scratch"]).unwrap();
        dispatch_once(&mut host);
        let s = host.salvage_now(id).unwrap();
        assert_eq!(s.region("scratch").unwrap()[1], 7);
        assert_eq!(host.state(id), Some(GraftState::Active));
    }

    #[test]
    fn backoff_ladder_readmits_after_clean_window_and_doubles() {
        let mut host = GraftHost::with_config(HostConfig {
            backoff_base: 4,
            ban_ceiling: 3,
            probation_clean: 1,
            ..HostConfig::default()
        });
        // Traps on its first three calls after each re-admission, then
        // behaves — so every incarnation is re-quarantined until the
        // ladder runs out.
        let id = host.install(AttachPoint::VmEvict, "flaky", trapping()).unwrap();
        host.install(AttachPoint::VmEvict, "good", constant(1)).unwrap();
        for _ in 0..3 {
            dispatch_once(&mut host);
        }
        assert!(host.is_quarantined(id));
        assert_eq!(host.quarantine_count(id), Some(1));
        // First window: 4 dispatches served without it, then probation.
        for _ in 0..3 {
            dispatch_once(&mut host);
            assert!(host.is_quarantined(id));
        }
        dispatch_once(&mut host);
        assert!(matches!(
            host.state(id),
            Some(GraftState::Probation { .. })
        ));
        assert_eq!(host.stats().auto_readmits, 1);
        // Second strike: probation tolerates zero traps → trip #2,
        // window doubles to 8.
        dispatch_once(&mut host);
        assert!(host.is_quarantined(id));
        assert_eq!(host.quarantine_count(id), Some(2));
        for _ in 0..7 {
            dispatch_once(&mut host);
            assert!(host.is_quarantined(id));
        }
        dispatch_once(&mut host);
        assert!(matches!(
            host.state(id),
            Some(GraftState::Probation { .. })
        ));
        assert_eq!(host.stats().auto_readmits, 2);
        // Third strike hits the ceiling: permanent ban.
        dispatch_once(&mut host);
        assert_eq!(host.state(id), Some(GraftState::Banned));
        assert_eq!(host.stats().bans, 1);
        assert!(!host.readmit(id), "banned grafts never re-admit");
        for _ in 0..64 {
            dispatch_once(&mut host);
        }
        assert_eq!(host.state(id), Some(GraftState::Banned));
        let err = host.invoke(id, &[0, 0]).unwrap_err();
        match err {
            GraftError::Unavailable { missing, .. } => {
                assert!(missing.contains("banned"), "{missing}");
            }
            other => panic!("expected Unavailable, got {other}"),
        }
    }

    #[test]
    fn backoff_disabled_by_default_keeps_detach_final() {
        let mut host = GraftHost::new();
        let id = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        for _ in 0..3 {
            dispatch_once(&mut host);
        }
        assert!(host.is_quarantined(id));
        for _ in 0..200 {
            dispatch_once(&mut host);
        }
        assert!(host.is_quarantined(id), "no ladder unless configured");
        assert_eq!(host.stats().auto_readmits, 0);
    }

    #[test]
    fn flush_is_idempotent_and_survives_mem_forget() {
        // The regression this guards: telemetry used to publish *only*
        // from `Drop`, so a leaked host (`std::mem::forget`, an `Rc`
        // cycle) silently lost every count. An explicit `flush()`
        // checkpoints the counts; a later flush or drop publishes only
        // the delta, never double-counting.
        let before = graft_telemetry::snapshot().counter("kernel.dispatches");
        let mut host = GraftHost::new();
        host.install(AttachPoint::VmEvict, "c", constant(4)).unwrap();
        for _ in 0..5 {
            dispatch_once(&mut host);
        }
        host.flush();
        // Everything accumulated so far is now published: the pending
        // delta is zero, so a second flush (or Drop) adds nothing.
        let meter = &host.core.meter;
        assert_eq!(meter.stats.delta_since(&meter.published), HostStats::default());
        host.flush();
        assert_eq!(host.core.meter.published.dispatches, 5);
        // Leak the host. Without the explicit flush above these five
        // dispatches would never reach telemetry.
        std::mem::forget(host);
        if graft_telemetry::enabled() {
            let after = graft_telemetry::snapshot().counter("kernel.dispatches");
            // Other tests run in parallel and also publish, so the
            // global counter is only monotonically bounded below.
            assert!(after >= before + 5, "flushed counts lost: {before} -> {after}");
        }
    }

    #[test]
    fn drop_during_panic_unwind_publishes_counts() {
        let before = graft_telemetry::snapshot().counter("kernel.dispatches");
        let result = std::panic::catch_unwind(|| {
            let mut host = GraftHost::new();
            host.install(AttachPoint::VmEvict, "c", constant(4)).unwrap();
            for _ in 0..7 {
                dispatch_once(&mut host);
            }
            // The eighth dispatch faults in kernel-side marshalling
            // code; the host unwinds out of `dispatch` and its Drop
            // impl must still publish all eight dispatch counts.
            host.dispatch(AttachPoint::VmEvict, |_| -> Result<Vec<i64>, GraftError> {
                panic!("marshal bug")
            });
        });
        assert!(result.is_err(), "the marshal closure must have panicked");
        if graft_telemetry::enabled() {
            let after = graft_telemetry::snapshot().counter("kernel.dispatches");
            assert!(after >= before + 8, "counts lost on unwind: {before} -> {after}");
        }
    }
}
