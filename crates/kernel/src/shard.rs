//! Sharded multi-core graft dispatch: per-shard engine replicas, a
//! cross-shard quarantine supervisor, and lock-free ledger merging.
//!
//! The single-threaded [`GraftHost`] serializes every dispatch through
//! one set of engines. Production extension runtimes don't: eBPF scales
//! by giving every CPU its own program state and per-CPU maps, so the
//! hot path never takes a cross-CPU lock. [`ShardedHost`] applies the
//! same shape to grafts:
//!
//! * **Thread-confined replicas.** `install` binds the attach point's
//!   entry once, then clones the engine per worker shard via
//!   [`ExtensionEngine::fork_for_shard`]. Each shard owns its replicas
//!   outright — dispatch touches no lock, ever.
//! * **Shard handles.** Workers receive a [`ShardHandle`] (it is
//!   `Send`; move it into a `std::thread`) and dispatch inline on their
//!   own thread, exactly like per-CPU program invocation.
//! * **Hot install/uninstall.** The control plane stays usable while
//!   shards dispatch: membership ops are queued to per-shard mailboxes
//!   and stamped with a bumped *epoch*. A dispatching shard pays one
//!   relaxed epoch load when nothing changed, and drains its mailbox
//!   only when the epoch moved.
//! * **One supervisor, all shards.** Strikes are a single shared atomic
//!   per graft, so "3 traps or one `FuelExhausted`" means three traps
//!   *anywhere*, same as the single-shard host. The losing CAS never
//!   double-detaches; the winning shard stamps the graft's detach
//!   epoch, and every shard's next dispatch observes the quarantine
//!   before invoking — a detached graft never runs again.
//! * **Lock-free ledger merge.** Each shard accounts into a private,
//!   plain-field [`GraftLedger`]; [`ShardHandle::flush`] folds it into
//!   the graft's shared [`AtomicLedger`] with `fetch_add` — no mutex on
//!   either side, and totals equal the single-shard host's exactly.
//!
//! * **Adaptive dispatch plane.** Work routed through [`RunQueues`]
//!   lands on a bounded per-shard queue keyed by hash, with
//!   graft-affinity diversion when a home queue is full and work
//!   stealing when a shard runs dry ([`crate::steal`]). Shards drain
//!   batches that widen with backlog ([`ShardHandle::drain_queue`]) and
//!   fuse single-graft chains through the engine's `invoke_batch` when
//!   that is accounting-safe ([`ShardHandle::dispatch_batch`]). A
//!   stolen dispatch still counts toward the 3-strike supervisor
//!   exactly once: the handoff carries the enqueue-time epoch, and the
//!   draining shard syncs its mailbox past it before invoking.
//!
//! For deterministic concurrency testing there is a *virtual scheduler*
//! ([`VirtualShards`]): all shard handles held on one thread and
//! stepped in a seeded, reshuffled round-robin, so cross-shard
//! quarantine races replay exactly from a seed in CI.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};

use graft_api::{ExtensionEngine, GraftError, GraftLedger, Technology, TrapKind, Verdict};
use graft_rng::{SliceRandom, SmallRng};
use graft_telemetry::{TraceEvent, TraceId};

use crate::dispatch::{ns_since, Book, Call, Core, Ident, Slot};
use crate::host::{GraftHost, GraftId, GraftState, HostConfig, HostStats};
use crate::point::AttachPoint;
use crate::postmortem::PostmortemReport;
use crate::recovery::SalvagedState;
use crate::steal::{RunQueues, StealPolicy, WorkItem};

const STATE_ACTIVE: u32 = 0;
const STATE_PROBATION: u32 = 1;
const STATE_QUARANTINED: u32 = 2;
const STATE_BANNED: u32 = 3;

/// A [`GraftLedger`] whose fields are atomics: the merge target shared
/// by every shard's private ledger. `fetch_add`-only, so merging is
/// lock-free and totals are exact.
#[derive(Debug, Default)]
pub struct AtomicLedger {
    invocations: AtomicU64,
    traps: AtomicU64,
    cum_ns: AtomicU64,
    fuel_used: AtomicU64,
    trap_counts: [AtomicU64; TrapKind::COUNT],
}

impl AtomicLedger {
    /// Folds one shard's private ledger into the shared totals.
    pub fn merge(&self, local: &GraftLedger) {
        if local.invocations == 0 && local.traps == 0 {
            return;
        }
        self.invocations
            .fetch_add(local.invocations, Ordering::Relaxed);
        self.traps.fetch_add(local.traps, Ordering::Relaxed);
        self.cum_ns.fetch_add(local.cum_ns, Ordering::Relaxed);
        self.fuel_used.fetch_add(local.fuel_used, Ordering::Relaxed);
        for kind in TrapKind::ALL {
            let n = local.trap_counts.get(kind);
            if n > 0 {
                self.trap_counts[kind as usize].fetch_add(n, Ordering::Relaxed);
            }
        }
    }

    /// A plain-field snapshot of the merged totals.
    pub fn snapshot(&self) -> GraftLedger {
        let mut ledger = GraftLedger {
            invocations: self.invocations.load(Ordering::Relaxed),
            traps: self.traps.load(Ordering::Relaxed),
            cum_ns: self.cum_ns.load(Ordering::Relaxed),
            fuel_used: self.fuel_used.load(Ordering::Relaxed),
            ..GraftLedger::default()
        };
        for kind in TrapKind::ALL {
            let n = self.trap_counts[kind as usize].load(Ordering::Relaxed);
            if n > 0 {
                ledger.trap_counts.add(kind, n);
            }
        }
        ledger
    }
}

/// The cross-shard face of one installed graft: supervisor state and
/// merged accounting. Everything here is atomic; nothing on the
/// dispatch path takes a lock.
struct SharedGraft {
    id: u64,
    ident: Ident,
    /// Trapped invocations since (re-)admission, summed over shards.
    strikes: AtomicU32,
    state: AtomicU32,
    /// Clean invocations still required while on probation.
    remaining_clean: AtomicU64,
    /// `TrapKind as u32` of the trap that tripped the supervisor.
    quarantined_by: AtomicU32,
    /// Global epoch stamped by the winning detach.
    detach_epoch: AtomicU64,
    ledger: AtomicLedger,
    /// State salvaged by the most recent winning detach. Mutex, not an
    /// atomic: only the winning shard writes it, only the control plane
    /// reads it — strictly off the dispatch path.
    salvage: Mutex<Option<SalvagedState>>,
    /// Lifetime quarantine trips (the backoff ladder's rung).
    quarantines: AtomicU32,
    /// Dispatches still to be served without this graft before the
    /// ladder re-admits it (0 = not armed). Shards CAS-decrement; the
    /// shard that moves 1 → 0 performs the atomic re-admission.
    backoff_remaining: AtomicU64,
    /// Postmortems captured by winning detaches, oldest first. Mutex,
    /// not an atomic: only the winning shard appends, only the control
    /// plane drains — strictly off the dispatch path.
    postmortems: Mutex<Vec<PostmortemReport>>,
}

impl SharedGraft {
    fn new(id: u64, ident: Ident) -> Self {
        SharedGraft {
            id,
            ident,
            strikes: AtomicU32::new(0),
            state: AtomicU32::new(STATE_ACTIVE),
            remaining_clean: AtomicU64::new(0),
            quarantined_by: AtomicU32::new(0),
            detach_epoch: AtomicU64::new(0),
            ledger: AtomicLedger::default(),
            salvage: Mutex::new(None),
            quarantines: AtomicU32::new(0),
            backoff_remaining: AtomicU64::new(0),
            postmortems: Mutex::new(Vec::new()),
        }
    }

    /// Detached for any reason (quarantined or banned): the dispatch
    /// gate, one Acquire load.
    fn is_detached(&self) -> bool {
        self.state.load(Ordering::Acquire) >= STATE_QUARANTINED
    }

    fn state(&self) -> GraftState {
        match self.state.load(Ordering::Acquire) {
            STATE_ACTIVE => GraftState::Active,
            STATE_PROBATION => GraftState::Probation {
                remaining_clean: self.remaining_clean.load(Ordering::Acquire),
            },
            STATE_BANNED => GraftState::Banned,
            _ => GraftState::Quarantined {
                by: TrapKind::ALL
                    [self.quarantined_by.load(Ordering::Acquire) as usize % TrapKind::COUNT],
            },
        }
    }

    /// Re-admits a quarantined graft on probation, as a new incarnation
    /// visible to every shard at its next dispatch.
    fn readmit(&self, control: &Control) -> bool {
        if self.state.load(Ordering::Acquire) != STATE_QUARANTINED {
            return false; // active, on probation, or permanently banned
        }
        self.strikes.store(0, Ordering::Release);
        self.backoff_remaining.store(0, Ordering::Release);
        self.remaining_clean
            .store(control.config.probation_clean.max(1), Ordering::Release);
        if self
            .state
            .compare_exchange(
                STATE_QUARANTINED,
                STATE_PROBATION,
                Ordering::AcqRel,
                Ordering::Acquire,
            )
            .is_err()
        {
            return false;
        }
        control.epoch.fetch_add(1, Ordering::AcqRel);
        true
    }
}

/// Decrement-if-positive, so concurrent shards never wrap a counter
/// below zero; returns the value this call moved down from (0 = none).
fn take_one(counter: &AtomicU64) -> u64 {
    let mut left = counter.load(Ordering::Acquire);
    while left > 0 {
        match counter.compare_exchange_weak(left, left - 1, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => return left,
            Err(now) => left = now,
        }
    }
    0
}

/// The shards' supervisor book: every shard's replica of a graft points
/// at the same atomics, so strikes, detach and the backoff window are
/// counted globally and exactly one shard wins each transition.
impl Book for Arc<SharedGraft> {
    type Ctx = Arc<Control>;

    fn config(ctx: &Arc<Control>) -> &HostConfig {
        &ctx.config
    }

    fn ident(&self) -> &Ident {
        &self.ident
    }

    fn state(&self) -> GraftState {
        SharedGraft::state(self)
    }

    /// One Acquire load, not a full state decode.
    fn dispatchable(&self) -> bool {
        !self.is_detached()
    }

    fn note_clean(&mut self) {
        if self.state.load(Ordering::Acquire) == STATE_PROBATION
            && take_one(&self.remaining_clean) == 1
        {
            // Last required clean call: back to full standing.
            let _ = self.state.compare_exchange(
                STATE_PROBATION,
                STATE_ACTIVE,
                Ordering::AcqRel,
                Ordering::Acquire,
            );
        }
    }

    fn add_strike(&mut self) -> u32 {
        self.strikes.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn strikes(&self) -> u32 {
        self.strikes.load(Ordering::Acquire)
    }

    /// The single winning transition stamps a freshly bumped global
    /// epoch, so the detach is totally ordered against membership
    /// traffic. A CAS loop (not a bare swap) so a late trap racing a
    /// permanent ban can never demote `Banned` back to `Quarantined`.
    fn quarantine(&mut self, by: TrapKind, ctx: &Arc<Control>) -> bool {
        let mut cur = self.state.load(Ordering::Acquire);
        loop {
            if cur >= STATE_QUARANTINED {
                return false; // another shard already won (or banned)
            }
            match self.state.compare_exchange_weak(
                cur,
                STATE_QUARANTINED,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(now) => cur = now,
            }
        }
        self.quarantined_by.store(by as u32, Ordering::Release);
        let epoch = ctx.epoch.fetch_add(1, Ordering::AcqRel) + 1;
        self.detach_epoch.store(epoch, Ordering::Release);
        true
    }

    fn add_trip(&mut self) -> u32 {
        self.quarantines.fetch_add(1, Ordering::AcqRel) + 1
    }

    fn ban(&mut self) {
        self.state.store(STATE_BANNED, Ordering::Release);
    }

    fn set_backoff(&mut self, window: u64) {
        self.backoff_remaining.store(window, Ordering::Release);
    }

    fn backoff_remaining(&self) -> u64 {
        self.backoff_remaining.load(Ordering::Acquire)
    }

    fn tick_backoff(&mut self) -> bool {
        self.state.load(Ordering::Acquire) == STATE_QUARANTINED
            && take_one(&self.backoff_remaining) == 1
    }

    fn readmit(&mut self, ctx: &Arc<Control>) -> bool {
        SharedGraft::readmit(self, ctx)
    }

    /// Merges the winner's unflushed ledger into the shared totals first,
    /// so the report covers every invocation this shard accounted.
    fn settle(&mut self, local: &mut GraftLedger) -> GraftLedger {
        self.ledger.merge(local);
        *local = GraftLedger::default();
        self.ledger.snapshot()
    }

    fn file(
        &mut self,
        _: &mut Arc<Control>,
        salvage: Option<SalvagedState>,
        report: PostmortemReport,
    ) {
        *self.salvage.lock().expect("salvage lock") = salvage;
        self.postmortems
            .lock()
            .expect("postmortem lock")
            .push(report);
    }
}

/// Membership traffic from the control plane to one shard.
enum ShardOp {
    /// Link this shard's replica into `point`'s chain at `at`.
    Install(AttachPoint, usize, Slot<Arc<SharedGraft>>),
    Uninstall(u64),
}

/// Control-plane state shared by the [`ShardedHost`] and every
/// [`ShardHandle`].
struct Control {
    config: HostConfig,
    shards: usize,
    /// Membership epoch: bumped after every install/uninstall/readmit
    /// and by every winning detach. The only thing a dispatching shard
    /// reads when nothing changed.
    epoch: AtomicU64,
    next_id: AtomicU64,
    registry: Mutex<BTreeMap<u64, Arc<SharedGraft>>>,
    mailboxes: Mutex<Vec<Sender<ShardOp>>>,
    /// Control-plane counts plus everything the shards have flushed.
    /// Only flushes and membership changes take the lock, never a
    /// dispatch.
    stats: Mutex<HostStats>,
    /// Per-shard dispatch totals (merged on flush), for the
    /// shard-imbalance histogram.
    shard_dispatches: Vec<AtomicU64>,
}

impl Control {
    fn registry(&self) -> std::sync::MutexGuard<'_, BTreeMap<u64, Arc<SharedGraft>>> {
        self.registry.lock().expect("registry lock")
    }

    /// Adds to the aggregate statistics.
    fn count(&self, add: impl FnOnce(&mut HostStats)) {
        add(&mut self.stats.lock().expect("stats lock"));
    }
}

/// The sharded extension kernel: the [`GraftHost`] chains replicated
/// over N worker shards.
///
/// `ShardedHost` is the control plane: install, uninstall, readmit,
/// and observe. Dispatch happens on [`ShardHandle`]s, taken once with
/// [`take_handles`](ShardedHost::take_handles) and moved onto worker
/// threads (or driven cooperatively through [`VirtualShards`]).
/// Control-plane calls take `&self` and stay fully usable while every
/// shard is dispatching.
pub struct ShardedHost {
    inner: Arc<Control>,
    handles: Vec<Option<ShardHandle>>,
    published: bool,
}

impl ShardedHost {
    /// A host with `shards` worker shards and the default supervisor
    /// policy.
    pub fn new(shards: usize) -> Self {
        Self::with_config(shards, HostConfig::default())
    }

    /// A host with `shards` worker shards and an explicit policy.
    pub fn with_config(shards: usize, config: HostConfig) -> Self {
        let shards = shards.max(1);
        let mut senders = Vec::with_capacity(shards);
        let mut receivers = Vec::with_capacity(shards);
        for _ in 0..shards {
            let (tx, rx) = channel();
            senders.push(tx);
            receivers.push(rx);
        }
        let inner = Arc::new(Control {
            config,
            shards,
            epoch: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            registry: Mutex::new(BTreeMap::new()),
            mailboxes: Mutex::new(senders),
            stats: Mutex::new(HostStats::default()),
            shard_dispatches: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        });
        let handles = receivers
            .into_iter()
            .enumerate()
            .map(|(shard, rx)| {
                Some(ShardHandle {
                    shard,
                    core: Core::new(Arc::clone(&inner), Some(shard as u32)),
                    rx,
                    seen_epoch: 0,
                    epoch_syncs: 0,
                    mailbox_ops: 0,
                })
            })
            .collect();
        ShardedHost {
            inner,
            handles,
            published: false,
        }
    }

    /// Number of worker shards.
    pub fn shards(&self) -> usize {
        self.inner.shards
    }

    /// The supervisor policy in force.
    pub fn config(&self) -> HostConfig {
        self.inner.config
    }

    /// Takes ownership of one shard's handle (at most once per shard).
    pub fn take_handle(&mut self, shard: usize) -> Option<ShardHandle> {
        self.handles.get_mut(shard).and_then(Option::take)
    }

    /// Takes every remaining handle, in shard order.
    pub fn take_handles(&mut self) -> Vec<ShardHandle> {
        self.handles.iter_mut().filter_map(Option::take).collect()
    }

    /// Installs `engine` at the end of `point`'s chain on every shard.
    ///
    /// Binds the point's entry once on the source engine, forks one
    /// thread-confined replica per additional shard (shard 0 receives
    /// the source itself), and queues the install to every shard's
    /// mailbox under a bumped epoch. Shards pick it up at their next
    /// dispatch — the chain stays hot throughout. Fails atomically: if
    /// any fork fails, nothing is installed anywhere.
    pub fn install(
        &self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
    ) -> Result<GraftId, GraftError> {
        self.install_at(point, name, engine, usize::MAX, &[])
    }

    /// Installs at the *front* of every shard's chain.
    pub fn install_front(
        &self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
    ) -> Result<GraftId, GraftError> {
        self.install_at(point, name, engine, 0, &[])
    }

    /// Installs with a salvage plan: when the supervisor detaches this
    /// graft, the winning shard lifts the named regions out of *its*
    /// replica into a [`SalvagedState`] (readable via
    /// [`take_salvage`](Self::take_salvage)). Region names are
    /// validated against the engine before anything is forked.
    pub fn install_with_salvage(
        &self,
        point: AttachPoint,
        name: &str,
        engine: Box<dyn ExtensionEngine>,
        salvage_regions: &[&str],
    ) -> Result<GraftId, GraftError> {
        for region in salvage_regions {
            engine.bind_region(region)?;
        }
        self.install_at(point, name, engine, usize::MAX, salvage_regions)
    }

    fn install_at(
        &self,
        point: AttachPoint,
        name: &str,
        mut engine: Box<dyn ExtensionEngine>,
        at: usize,
        salvage_regions: &[&str],
    ) -> Result<GraftId, GraftError> {
        let entry = engine.bind_entry(point.entry())?;
        // Fork all replicas *before* registering anything, so a
        // non-forkable engine fails the install cleanly on every shard.
        let mut engines: Vec<Box<dyn ExtensionEngine>> = Vec::with_capacity(self.inner.shards);
        for shard in 1..self.inner.shards {
            engines.push(engine.fork_for_shard(shard)?);
        }
        engine.set_fuel(self.inner.config.fuel_budget);
        for replica in &mut engines {
            replica.set_fuel(self.inner.config.fuel_budget);
        }
        engines.insert(0, engine);

        let id = self.inner.next_id.fetch_add(1, Ordering::AcqRel);
        let ident = Ident {
            name: name.to_string(),
            tech: engines[0].technology(),
            plan: salvage_regions.iter().map(|s| s.to_string()).collect(),
        };
        let shared = Arc::new(SharedGraft::new(id, ident));
        self.inner.registry().insert(id, Arc::clone(&shared));
        {
            let mailboxes = self.inner.mailboxes.lock().expect("mailbox lock");
            for (tx, replica) in mailboxes.iter().zip(engines) {
                // A send only fails when the shard handle is gone; the
                // remaining shards still serve.
                let slot = Slot::new(replica, entry, Arc::clone(&shared));
                let _ = tx.send(ShardOp::Install(point, at, slot));
            }
        }
        self.inner.count(|s| s.installs += 1);
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        Ok(GraftId(id))
    }

    /// Uninstalls a graft from every shard. Returns `false` for an
    /// unknown id. Shards drop their replicas (merging any unflushed
    /// ledger counts) at their next dispatch.
    pub fn uninstall(&self, id: GraftId) -> bool {
        if self.inner.registry().remove(&id.0).is_none() {
            return false;
        }
        {
            let mailboxes = self.inner.mailboxes.lock().expect("mailbox lock");
            for tx in mailboxes.iter() {
                let _ = tx.send(ShardOp::Uninstall(id.0));
            }
        }
        self.inner.count(|s| s.uninstalls += 1);
        self.inner.epoch.fetch_add(1, Ordering::AcqRel);
        true
    }

    /// Re-admits a quarantined graft on probation, across all shards at
    /// once (shards read the shared supervisor state inline, so the
    /// re-admission is visible at every shard's very next dispatch).
    pub fn readmit(&self, id: GraftId) -> bool {
        let readmitted = self.graft(id, |g| g.readmit(&self.inner)) == Some(true);
        if readmitted {
            self.inner.count(|s| s.readmits += 1);
        }
        readmitted
    }

    /// Reads one graft's shared record under the registry lock.
    fn graft<R>(&self, id: GraftId, read: impl FnOnce(&SharedGraft) -> R) -> Option<R> {
        self.inner.registry().get(&id.0).map(|g| read(g))
    }

    /// Merged cross-shard ledger of one graft. Complete once shards
    /// have flushed (a [`ShardHandle`] flushes explicitly or on drop).
    pub fn ledger(&self, id: GraftId) -> Option<GraftLedger> {
        self.graft(id, |g| g.ledger.snapshot())
    }

    /// The lifecycle state of one graft.
    pub fn state(&self, id: GraftId) -> Option<GraftState> {
        self.graft(id, SharedGraft::state)
    }

    /// Whether the supervisor has detached this graft (on all shards —
    /// detach is global by construction).
    pub fn is_quarantined(&self, id: GraftId) -> bool {
        matches!(self.state(id), Some(GraftState::Quarantined { .. }))
    }

    /// Takes ownership of the state the winning detach shard salvaged
    /// out of its replica (e.g. to re-seed a replacement graft or the
    /// built-in policy).
    pub fn take_salvage(&self, id: GraftId) -> Option<SalvagedState> {
        self.graft(id, |g| g.salvage.lock().expect("salvage lock").take())
            .flatten()
    }

    /// Lifetime quarantine trips for one graft (the backoff rung).
    pub fn quarantine_count(&self, id: GraftId) -> Option<u32> {
        self.graft(id, |g| g.quarantines.load(Ordering::Acquire))
    }

    /// The epoch stamped by the supervisor when it detached this graft
    /// (0 if never detached). Strictly greater than the graft's install
    /// generation, and totally ordered against membership changes.
    pub fn detach_epoch(&self, id: GraftId) -> Option<u64> {
        self.graft(id, |g| g.detach_epoch.load(Ordering::Acquire))
    }

    /// The current membership epoch.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::Acquire)
    }

    /// Drains every postmortem captured by winning detaches so far,
    /// oldest first per graft. A shard-local report's event tail only
    /// covers the winning shard's recorder; re-attach a merged timeline
    /// with [`PostmortemReport::adopt_tail`] for the cross-shard view.
    pub fn take_postmortems(&self) -> Vec<PostmortemReport> {
        let mut out = Vec::new();
        for g in self.inner.registry().values() {
            out.append(&mut g.postmortems.lock().expect("postmortem lock"));
        }
        out
    }

    /// The technology a graft was installed under.
    pub fn technology(&self, id: GraftId) -> Option<Technology> {
        self.graft(id, |g| g.ident.tech)
    }

    /// The name a graft was installed under.
    pub fn name(&self, id: GraftId) -> Option<String> {
        self.graft(id, |g| g.ident.name.clone())
    }

    /// Aggregate statistics: control-plane counts plus everything the
    /// shards have flushed so far.
    pub fn stats(&self) -> HostStats {
        *self.inner.stats.lock().expect("stats lock")
    }

    /// Per-shard dispatch totals flushed so far, in shard order.
    pub fn shard_loads(&self) -> Vec<u64> {
        self.inner
            .shard_dispatches
            .iter()
            .map(|d| d.load(Ordering::Relaxed))
            .collect()
    }

    /// A run-queue plane sized for this host's shards — the adaptive
    /// data plane ([`crate::steal`]). Submitters feed it through
    /// [`enqueue`]; each [`ShardHandle`] drains it with
    /// [`ShardHandle::drain_queue_with`].
    ///
    /// [`enqueue`]: ShardedHost::enqueue
    pub fn run_queues<T>(&self, policy: StealPolicy) -> RunQueues<T> {
        RunQueues::new(self.inner.shards, policy)
    }

    /// Stamps one work item with the current host epoch and submits it
    /// to the plane (see [`RunQueues::submit`]). `graft` steers
    /// affinity placement; `Err` returns the payload on backpressure.
    pub fn enqueue<T>(
        &self,
        queues: &RunQueues<T>,
        key: u64,
        graft: Option<GraftId>,
        payload: T,
    ) -> Result<usize, T> {
        queues
            .submit(WorkItem {
                key,
                graft: graft.map_or(0, |g| g.0),
                epoch: self.epoch(),
                payload,
            })
            .map_err(|w| w.payload)
    }

    /// Publishes control-plane telemetry: `kernel.shard.*` counters and
    /// the shard-imbalance histogram. Idempotent-by-construction only
    /// for the imbalance snapshot; called once from `Drop`.
    fn publish_telemetry(&mut self) {
        if self.published || !graft_telemetry::enabled() {
            return;
        }
        self.published = true;
        let s = self.stats();
        graft_telemetry::counter!("kernel.shard.count").add(self.inner.shards as u64);
        graft_telemetry::counter!("kernel.shard.installs").add(s.installs);
        graft_telemetry::counter!("kernel.shard.uninstalls").add(s.uninstalls);
        graft_telemetry::counter!("kernel.shard.readmits").add(s.readmits);
        graft_telemetry::counter!("kernel.shard.epoch").add(self.epoch());
        graft_telemetry::counter!("kernel.recovery.salvages").add(s.salvages);
        graft_telemetry::counter!("kernel.recovery.salvaged_words").add(s.salvaged_words);
        graft_telemetry::counter!("kernel.recovery.auto_readmits").add(s.auto_readmits);
        graft_telemetry::counter!("kernel.recovery.bans").add(s.bans);
        let loads = self.shard_loads();
        let total: u64 = loads.iter().sum();
        if total > 0 && loads.len() > 1 {
            let max = *loads.iter().max().unwrap();
            let min = *loads.iter().min().unwrap();
            let mean = total as f64 / loads.len() as f64;
            // Spread of per-shard load around the mean, in percent:
            // 0 = perfectly balanced, 100 = the busiest shard saw one
            // mean-load more than the idlest.
            let imbalance = ((max - min) as f64 / mean * 100.0).round() as u64;
            graft_telemetry::histogram!("kernel.shard.imbalance_pct").record(imbalance);
        }
    }
}

impl Drop for ShardedHost {
    fn drop(&mut self) {
        // Drop any never-taken handles first so their ledgers and
        // shard counters flush before the imbalance snapshot.
        for h in &mut self.handles {
            h.take();
        }
        self.publish_telemetry();
    }
}

/// One worker shard's thread-confined half of a [`ShardedHost`].
///
/// `Send` but not `Sync`: move it into the worker thread that owns the
/// shard, then dispatch inline. All engines reached through a handle
/// are private to it; the only shared traffic is the per-graft atomic
/// supervisor state, one epoch load per dispatch, and the mailbox drain
/// when membership changed.
pub struct ShardHandle {
    shard: usize,
    /// Chains over this shard's replicas. The meter's context is the
    /// control plane; its flight recorder is thread-confined like the
    /// engines, merged across shards by
    /// [`VirtualShards::merged_timeline`] (or by collecting
    /// [`ShardHandle::trace_events`] from worker threads).
    core: Core<Arc<SharedGraft>>,
    rx: Receiver<ShardOp>,
    seen_epoch: u64,
    epoch_syncs: u64,
    mailbox_ops: u64,
}

impl ShardHandle {
    /// This handle's shard index.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Catches up with membership: one epoch load when nothing
    /// changed; otherwise drain the mailbox.
    fn sync(&mut self) {
        let epoch = self.core.meter.ctx.epoch.load(Ordering::Acquire);
        if epoch == self.seen_epoch {
            return;
        }
        self.seen_epoch = epoch;
        self.epoch_syncs += 1;
        while let Ok(op) = self.rx.try_recv() {
            self.mailbox_ops += 1;
            match op {
                ShardOp::Install(point, at, slot) => {
                    self.core.link(point, slot.book.id, at, slot);
                }
                ShardOp::Uninstall(id) => {
                    if let Some(g) = self.core.unlink(id) {
                        // Merge before dropping so no counts are lost.
                        g.book.ledger.merge(&g.ledger);
                    }
                }
            }
        }
    }

    /// The chain this shard would dispatch at `point`, in order.
    pub fn chain(&mut self, point: AttachPoint) -> Vec<GraftId> {
        self.sync();
        self.core.chain(point)
    }

    /// Grafts at `point` this shard's dispatch would actually consult.
    pub fn active_len(&mut self, point: AttachPoint) -> usize {
        self.sync();
        self.core.active_len(point)
    }

    /// This shard's replica engine for a graft (e.g. to marshal
    /// shard-local state after install).
    pub fn engine_mut(&mut self, id: GraftId) -> Option<&mut (dyn ExtensionEngine + '_)> {
        self.sync();
        self.core
            .grafts
            .get_mut(&id.0)
            .map(|g| g.engine.as_mut() as _)
    }

    /// This shard's private (unflushed) ledger for a graft.
    pub fn local_ledger(&self, id: GraftId) -> Option<&GraftLedger> {
        self.core.grafts.get(&id.0).map(|g| &g.ledger)
    }

    /// This shard's dispatch-path statistics (unflushed view).
    pub fn stats(&self) -> HostStats {
        self.core.meter.stats
    }

    /// Walks `point`'s chain on this shard — the same verdict, ledger,
    /// and supervisor semantics as [`GraftHost::dispatch`], with the
    /// quarantine gate read from the *shared* supervisor state so a
    /// detach by any shard suppresses invocation here immediately.
    pub fn dispatch<F>(&mut self, point: AttachPoint, marshal: F) -> Verdict
    where
        F: FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        self.sync();
        self.core.dispatch(point, marshal)
    }

    /// Dispatches `calls` chain walks at `point` as one batch — the
    /// adaptive-dispatch fast path. Returns one verdict per call, in
    /// call order.
    ///
    /// When the chain at `point` is a single attached graft, tracing
    /// is off, and the graft's engine does not meter fuel
    /// ([`ExtensionEngine::fuel_metered`]), the calls fuse into one
    /// [`ExtensionEngine::invoke_batch`] (the PR 2 path): every call is
    /// marshalled first, then the engine runs the whole batch without
    /// re-crossing the chain-walk machinery per call. Accounting stays
    /// call-exact — each call counts one dispatch, one invocation, its
    /// own verdict statistics, and its own supervisor strike. On a
    /// mid-batch trap the faulting call is charged exactly once (ledger
    /// trap, strike, possible winning detach) and the remaining calls
    /// fall back to per-call dispatch, which observes any detach the
    /// trap just caused — exactly like back-to-back scalar dispatches.
    ///
    /// Everything else — deeper or empty chains, tracing runs (each
    /// dispatch needs its own causal id), metered engines (a fused
    /// batch can only report the last call's fuel), ragged arities,
    /// marshal failures — takes the per-call path, whose semantics are
    /// [`dispatch`] in a loop. The `marshal` closure must be pure per
    /// call: the fused path marshals every call before the first
    /// invocation and re-marshals when degrading to per-call dispatch
    /// (see [`ChainDispatch::dispatch_batch`]).
    ///
    /// [`dispatch`]: ShardHandle::dispatch
    pub fn dispatch_batch<F>(
        &mut self,
        point: AttachPoint,
        calls: usize,
        mut marshal: F,
    ) -> Vec<Verdict>
    where
        F: FnMut(usize, &mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        self.sync();
        let Core {
            grafts,
            chains,
            meter,
        } = &mut self.core;
        let lone = match chains[point as usize][..] {
            [id] if calls > 1 && !graft_telemetry::tracing() => {
                grafts.get_mut(&id).map(|g| (id, g))
            }
            _ => None,
        };
        // Marshal every call up front (the dispatch_batch purity
        // contract allows it); a failure or ragged arity degrades to
        // the per-call path, re-marshalling from scratch.
        let mut args_flat: Vec<i64> = Vec::new();
        let fused = lone.and_then(|(id, g)| {
            if !g.book.dispatchable() || g.engine.fuel_metered() {
                return None;
            }
            let mut arity = None;
            for i in 0..calls {
                match marshal(i, g.engine.as_mut()) {
                    Ok(args) if *arity.get_or_insert(args.len()) == args.len() => {
                        args_flat.extend_from_slice(&args);
                    }
                    _ => return None,
                }
            }
            Some((id, g))
        });
        let Some((id, g)) = fused else {
            return (0..calls)
                .map(|i| self.dispatch(point, |e| marshal(i, e)))
                .collect();
        };
        let mut call = Call::new(Some(point), TraceId::NONE, 0);
        let mut out = Vec::with_capacity(calls);
        let result = g.engine.invoke_batch(g.entry, calls, &args_flat, &mut out);
        // Wall-clock attribution per call (an even share; `cum_ns` is
        // the one machine-dependent ledger field). No fuel: fused
        // batches only run unmetered engines.
        call.ns = ns_since(call.started) / calls as u64;
        let mut verdicts = Vec::with_capacity(calls);
        // The completed prefix: each result is one full dispatch.
        for &ret in &out {
            meter.stats.dispatches += 1;
            meter.depth_counts[1] += 1;
            meter.charge(id, g, &call, &Ok(ret));
            let v = point.decode(ret);
            match v {
                Verdict::Override(_) => meter.stats.overrides += 1,
                Verdict::Continue => {
                    meter.stats.continues += 1;
                    meter.stats.defaults += 1;
                }
            }
            verdicts.push(v);
        }
        if let Err(err) = result {
            // The faulting call, charged exactly once; then the batch
            // degrades to per-call dispatch for the remainder, which
            // observes any detach the trap just caused.
            meter.stats.dispatches += 1;
            meter.depth_counts[1] += 1;
            meter.charge(id, g, &call, &Err(err));
            meter.stats.defaults += 1;
            verdicts.push(Verdict::Continue);
            for i in verdicts.len()..calls {
                let v = self.dispatch(point, |e| marshal(i, e));
                verdicts.push(v);
            }
        }
        debug_assert_eq!(verdicts.len(), calls);
        verdicts
    }

    /// Drains one adaptively sized batch from `queues` for this shard
    /// and dispatches each item's chain walk at `point`; returns the
    /// number of items dispatched (0 = nothing runnable).
    ///
    /// The steal-safe handoff: the handle syncs membership *before*
    /// dispatching and checks it has caught up with every drained
    /// item's submit-time epoch (monotone, so a mailbox sync after the
    /// drain always suffices) — a stolen item never runs against a
    /// staler chain than its submitter saw. Items executed here mark
    /// this shard warm for their graft, steering future placement and
    /// theft ([`RunQueues::mark_warm`]).
    ///
    /// `to_args` marshals an item's payload into its argument vector;
    /// it must be pure (it may run more than once per item, per the
    /// [`ChainDispatch::dispatch_batch`] contract). `on_result`
    /// observes every `(item, verdict)` pair in execution order.
    pub fn drain_queue_with<T, A, F>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        mut to_args: A,
        mut on_result: F,
    ) -> usize
    where
        A: FnMut(&T) -> Vec<i64>,
        F: FnMut(&WorkItem<T>, Verdict),
    {
        let mut batch = Vec::new();
        if queues.take(self.shard, &mut batch) == 0 {
            return 0;
        }
        self.sync();
        debug_assert!(
            batch.iter().all(|w| w.epoch <= self.seen_epoch),
            "drained an item stamped past the shard's synced epoch"
        );
        for w in &batch {
            queues.mark_warm(self.shard, w.graft);
        }
        let verdicts = self.dispatch_batch(point, batch.len(), |i, _engine| {
            Ok(to_args(&batch[i].payload))
        });
        for (w, v) in batch.iter().zip(verdicts) {
            on_result(w, v);
        }
        batch.len()
    }

    /// [`drain_queue_with`] discarding the per-item verdicts.
    ///
    /// [`drain_queue_with`]: ShardHandle::drain_queue_with
    pub fn drain_queue<T, A>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        to_args: A,
    ) -> usize
    where
        A: FnMut(&T) -> Vec<i64>,
    {
        self.drain_queue_with(queues, point, to_args, |_, _| {})
    }

    /// Invokes one graft directly on this shard's replica, with ledger
    /// accounting and the shared quarantine gate: a detached graft
    /// deterministically returns [`GraftError::Unavailable`] — on every
    /// shard, not just the one that observed the traps.
    pub fn invoke(&mut self, id: GraftId, args: &[i64]) -> Result<i64, GraftError> {
        self.sync();
        self.core.invoke(id.0, args)
    }

    /// Merges this shard's private ledgers and statistics into the
    /// shared totals (pure `fetch_add` — lock-free on both sides) and
    /// publishes `kernel.shard.*` telemetry deltas. Idempotent: each
    /// count merges exactly once, and `Drop` flushes whatever remains,
    /// including when the worker thread unwinds out of a panic.
    pub fn flush(&mut self) {
        let Core { grafts, meter, .. } = &mut self.core;
        // Publishes only events not yet flushed, and accounts every
        // overwritten-unpublished event to `telemetry.trace.dropped`.
        meter.recorder.flush();
        for g in grafts.values_mut() {
            g.book.ledger.merge(&g.ledger);
            g.ledger = GraftLedger::default();
        }
        let delta = meter.take_delta();
        meter.publish_depth();
        let control = &meter.ctx;
        control.count(|s| s.merge(&delta));
        control.shard_dispatches[self.shard].fetch_add(delta.dispatches, Ordering::Relaxed);
        if !graft_telemetry::enabled() {
            return;
        }
        graft_telemetry::counter!("kernel.shard.dispatches").add(delta.dispatches);
        graft_telemetry::counter!("kernel.shard.invocations").add(delta.invocations);
        graft_telemetry::counter!("kernel.shard.traps").add(delta.traps);
        graft_telemetry::counter!("kernel.shard.detaches").add(delta.quarantine_trips);
        graft_telemetry::counter!("kernel.shard.marshal_failures").add(delta.marshal_failures);
        graft_telemetry::counter!("kernel.shard.epoch_syncs").add(self.epoch_syncs);
        graft_telemetry::counter!("kernel.shard.mailbox_ops").add(self.mailbox_ops);
        graft_telemetry::counter!("kernel.shard.flushes").incr();
        self.epoch_syncs = 0;
        self.mailbox_ops = 0;
    }

    /// Every trace event still retained by this shard's flight
    /// recorder, oldest first (empty unless recording was armed).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.core.meter.recorder.events()
    }
}

impl Drop for ShardHandle {
    fn drop(&mut self) {
        self.flush();
        if graft_telemetry::enabled() {
            // Lifetime per-shard load, one histogram entry per shard:
            // the distribution graftstat summarizes as shard balance.
            graft_telemetry::histogram!("kernel.shard.load").record(self.stats().dispatches);
        }
    }
}

/// Deterministic cooperative driver for a [`ShardedHost`]'s handles —
/// the loom-style interleaving mode.
///
/// All shard handles are held on one thread and stepped in a seeded
/// round-robin: each full round visits every shard once, in an order
/// reshuffled from the seed, so cross-shard supervisor races (two
/// shards observing a graft's third strike, a detach landing between
/// another shard's gate check and its invoke, ...) are explored
/// *deterministically* — the same seed replays the same interleaving,
/// which is what CI needs.
pub struct VirtualShards {
    handles: Vec<ShardHandle>,
    order: Vec<usize>,
    cursor: usize,
    rng: SmallRng,
}

impl VirtualShards {
    /// Takes every remaining handle from `host` and builds a seeded
    /// driver over them.
    pub fn new(host: &mut ShardedHost, seed: u64) -> Self {
        let handles = host.take_handles();
        assert!(!handles.is_empty(), "all shard handles already taken");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut order: Vec<usize> = (0..handles.len()).collect();
        order.shuffle(&mut rng);
        VirtualShards {
            handles,
            order,
            cursor: 0,
            rng,
        }
    }

    /// Number of shards driven.
    pub fn len(&self) -> usize {
        self.handles.len()
    }

    /// True when driving no shards (never, by construction).
    pub fn is_empty(&self) -> bool {
        self.handles.is_empty()
    }

    /// The next shard in the seeded round-robin (reshuffles the visit
    /// order at the end of each round).
    pub fn next_shard(&mut self) -> &mut ShardHandle {
        if self.cursor >= self.order.len() {
            self.cursor = 0;
            self.order.shuffle(&mut self.rng);
        }
        let idx = self.order[self.cursor];
        self.cursor += 1;
        &mut self.handles[idx]
    }

    /// A specific shard, for tests that script exact placements.
    pub fn shard_mut(&mut self, shard: usize) -> &mut ShardHandle {
        &mut self.handles[shard]
    }

    /// Dispatches on the next shard in the seeded rotation.
    pub fn dispatch<F>(&mut self, point: AttachPoint, marshal: F) -> Verdict
    where
        F: FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError>,
    {
        self.next_shard().dispatch(point, marshal)
    }

    /// Drains one adaptive batch on the next shard of the seeded
    /// rotation — the deterministic steal-interleaving step. Which
    /// shard drains (and therefore which steals happen) is a pure
    /// function of the seed and the queue state, so the same seed
    /// replays the same steal schedule. Returns items dispatched.
    pub fn drive_queue<T, A>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        to_args: A,
    ) -> usize
    where
        A: FnMut(&T) -> Vec<i64>,
    {
        self.next_shard().drain_queue(queues, point, to_args)
    }

    /// [`drive_queue`] with a per-item observer, for harnesses that
    /// record execution order.
    ///
    /// [`drive_queue`]: VirtualShards::drive_queue
    pub fn drive_queue_with<T, A, F>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        to_args: A,
        on_result: F,
    ) -> usize
    where
        A: FnMut(&T) -> Vec<i64>,
        F: FnMut(&WorkItem<T>, Verdict),
    {
        self.next_shard()
            .drain_queue_with(queues, point, to_args, on_result)
    }

    /// Steps the seeded rotation until the plane is empty; returns the
    /// total items dispatched. Terminates because a shard with queued
    /// work always drains at least one item when visited.
    pub fn drain_queue_to_empty<T, A>(
        &mut self,
        queues: &RunQueues<T>,
        point: AttachPoint,
        mut to_args: A,
    ) -> usize
    where
        A: FnMut(&T) -> Vec<i64>,
    {
        let mut total = 0;
        while queues.total_depth() > 0 {
            total += self.drive_queue(queues, point, &mut to_args);
        }
        total
    }

    /// Flushes every shard's ledgers and statistics.
    pub fn flush_all(&mut self) {
        for h in &mut self.handles {
            h.flush();
        }
    }

    /// The causally ordered merge of every shard's flight recorder —
    /// one timeline in which each dispatch's events appear in chain
    /// order and cross-shard events interleave by monotonic time.
    pub fn merged_timeline(&self) -> Vec<TraceEvent> {
        graft_telemetry::merge_timelines(self.handles.iter().map(ShardHandle::trace_events))
    }
}

/// Object-safe chain-dispatch seam: what a substrate adapter needs from
/// "something that hosts graft chains". Implemented by the single-
/// threaded [`SharedHost`](crate::adapters::SharedHost), by a bare
/// [`GraftHost`], and by [`ShardHandle`] (each worker thread's shard),
/// so the same adapters serve both the scalar and the sharded kernels.
pub trait ChainDispatch {
    /// Walks the chain at `point`; see [`GraftHost::dispatch`].
    fn dispatch_chain(&mut self, point: AttachPoint, marshal: &mut MarshalFn<'_>) -> Verdict;

    /// Dispatches `calls` chain walks at `point` as one batch,
    /// returning one verdict per call, in call order.
    ///
    /// `marshal(i, engine)` builds call `i`'s argument vector. The
    /// contract beyond [`dispatch_chain`]: marshalling must be **pure
    /// per call** — implementations may marshal every call before the
    /// first invocation runs (the PR 2 `invoke_batch` shape) and may
    /// re-marshal a call when falling back to per-call dispatch, so a
    /// closure that writes per-call engine state (regions) or has
    /// observable side effects must not be batched. Each call still
    /// counts as its own dispatch: ledgers, verdict statistics, and the
    /// 3-strike supervisor advance exactly as if the calls had been
    /// dispatched one by one.
    ///
    /// The default loops [`dispatch_chain`]; [`ShardHandle`] overrides
    /// it with a fused [`ExtensionEngine::invoke_batch`] path when the
    /// chain shape makes that accounting-safe.
    ///
    /// [`dispatch_chain`]: ChainDispatch::dispatch_chain
    fn dispatch_batch(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut BatchMarshalFn<'_>,
    ) -> Vec<Verdict> {
        (0..calls)
            .map(|i| self.dispatch_chain(point, &mut |engine| marshal(i, engine)))
            .collect()
    }
}

/// The kernel-side marshalling callback a chain walk applies to each
/// engine before invoking it: loads the graft's regions and returns
/// the argument vector (or a kernel-side failure, charged to the
/// host's failure counter, not the graft).
pub type MarshalFn<'a> = dyn FnMut(&mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError> + 'a;

/// Per-call marshalling for [`ChainDispatch::dispatch_batch`]: builds
/// call `i`'s argument vector against the engine about to run it. Must
/// be pure per call (see the `dispatch_batch` contract).
pub type BatchMarshalFn<'a> =
    dyn FnMut(usize, &mut dyn ExtensionEngine) -> Result<Vec<i64>, GraftError> + 'a;

impl ChainDispatch for GraftHost {
    fn dispatch_chain(&mut self, point: AttachPoint, marshal: &mut MarshalFn<'_>) -> Verdict {
        self.dispatch(point, marshal)
    }
}

impl ChainDispatch for ShardHandle {
    fn dispatch_chain(&mut self, point: AttachPoint, marshal: &mut MarshalFn<'_>) -> Verdict {
        self.dispatch(point, marshal)
    }

    fn dispatch_batch(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut BatchMarshalFn<'_>,
    ) -> Vec<Verdict> {
        // The inherent method: fuses through `invoke_batch` when the
        // chain shape makes that accounting-safe.
        ShardHandle::dispatch_batch(self, point, calls, |i, e| marshal(i, e))
    }
}

/// Shared single-threaded handles (`Rc<RefCell<GraftHost>>` — the
/// [`SharedHost`](crate::adapters::SharedHost) alias — and
/// `Rc<RefCell<ShardHandle>>`) dispatch through a runtime borrow, so
/// several substrate adapters can take turns on one host.
impl<T: ChainDispatch> ChainDispatch for std::rc::Rc<std::cell::RefCell<T>> {
    fn dispatch_chain(&mut self, point: AttachPoint, marshal: &mut MarshalFn<'_>) -> Verdict {
        self.borrow_mut().dispatch_chain(point, marshal)
    }

    fn dispatch_batch(
        &mut self,
        point: AttachPoint,
        calls: usize,
        marshal: &mut BatchMarshalFn<'_>,
    ) -> Vec<Verdict> {
        self.borrow_mut().dispatch_batch(point, calls, marshal)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graft_api::Trap;
    use graft_api::{EntryPoint, NativeEngine, RegionSpec, RegionStore};
    use graft_api::spec::SharedNativeFactory;

    /// A forkable native engine exporting `select_victim/2` built from
    /// a shared factory (every shard gets a fresh closure instance).
    fn victim_engine_factory<F>(make: F) -> Box<dyn ExtensionEngine>
    where
        F: Fn() -> Box<dyn graft_api::NativeGraft> + Send + Sync + 'static,
    {
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        let factory: SharedNativeFactory = Arc::new(make);
        Box::new(NativeEngine::from_factory(&specs, &entries, factory).unwrap())
    }

    fn constant(v: i64) -> Box<dyn ExtensionEngine> {
        victim_engine_factory(move || {
            Box::new(move |_: &str, _: &[i64], _: &mut RegionStore| Ok(v))
        })
    }

    fn trapping() -> Box<dyn ExtensionEngine> {
        victim_engine_factory(|| {
            Box::new(|_: &str, _: &[i64], _: &mut RegionStore| {
                Err(Trap::DivByZero.into())
            })
        })
    }

    #[test]
    fn install_replicates_to_every_shard_and_dispatch_is_local() {
        let mut host = ShardedHost::new(4);
        let id = host
            .install(AttachPoint::VmEvict, "forty-two", constant(42))
            .unwrap();
        let mut shards = VirtualShards::new(&mut host, 7);
        for _ in 0..12 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Override(42)
            );
        }
        shards.flush_all();
        let ledger = host.ledger(id).unwrap();
        assert_eq!(ledger.invocations, 12);
        assert_eq!(host.stats().dispatches, 12);
        assert_eq!(host.stats().overrides, 12);
        // Round-robin: every shard saw exactly 3 of the 12 dispatches.
        assert_eq!(host.shard_loads(), vec![3, 3, 3, 3]);
    }

    #[test]
    fn third_trap_on_any_shard_detaches_globally() {
        let mut host = ShardedHost::new(4);
        let bad = host
            .install(AttachPoint::VmEvict, "hostile", trapping())
            .unwrap();
        let good = host
            .install(AttachPoint::VmEvict, "good", constant(9))
            .unwrap();
        let epoch_before = host.epoch();
        let mut shards = VirtualShards::new(&mut host, 3);
        // Traps land on *different* shards; the third — wherever it
        // lands — detaches the graft for everyone.
        for _ in 0..3 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Override(9)
            );
        }
        assert!(host.is_quarantined(bad));
        assert!(host.detach_epoch(bad).unwrap() > epoch_before);
        // No shard invokes it afterwards: ledger total stays at 3.
        for _ in 0..8 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        }
        shards.flush_all();
        assert_eq!(host.ledger(bad).unwrap().traps, 3);
        assert_eq!(host.ledger(bad).unwrap().invocations, 3);
        assert_eq!(host.stats().quarantine_trips, 1);
        assert_eq!(host.state(good), Some(GraftState::Active));
        // Every shard refuses a direct re-invoke deterministically.
        for s in 0..4 {
            let err = shards.shard_mut(s).invoke(bad, &[0, 0]).unwrap_err();
            assert!(matches!(err, GraftError::Unavailable { .. }));
        }
    }

    #[test]
    fn hot_install_and_uninstall_under_dispatch() {
        let mut host = ShardedHost::new(2);
        let mut shards = VirtualShards::new(&mut host, 11);
        // Chain empty on both shards.
        assert_eq!(
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
            Verdict::Continue
        );
        // Install lands while shards keep dispatching.
        let id = host.install(AttachPoint::VmEvict, "late", constant(5)).unwrap();
        for _ in 0..4 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Override(5)
            );
        }
        assert!(host.uninstall(id));
        assert!(!host.uninstall(id));
        for _ in 0..4 {
            assert_eq!(
                shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
                Verdict::Continue
            );
        }
        shards.flush_all();
        assert_eq!(host.stats().installs, 1);
        assert_eq!(host.stats().uninstalls, 1);
    }

    #[test]
    fn readmit_probation_is_global_and_requarantines() {
        let mut host = ShardedHost::with_config(
            2,
            HostConfig {
                trap_threshold: 3,
                fuel_budget: None,
                probation_clean: 2,
                ..HostConfig::default()
            },
        );
        let id = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        let mut shards = VirtualShards::new(&mut host, 5);
        for _ in 0..3 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        }
        assert!(host.is_quarantined(id));
        let first_detach = host.detach_epoch(id).unwrap();
        assert!(host.readmit(id));
        assert!(!host.readmit(id), "only quarantined grafts re-admit");
        assert!(matches!(
            host.state(id),
            Some(GraftState::Probation { remaining_clean: 2 })
        ));
        // One further trap — observed by whichever shard dispatches
        // next — re-quarantines instantly, with a later detach epoch.
        shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        assert!(host.is_quarantined(id));
        assert!(host.detach_epoch(id).unwrap() > first_detach);
        shards.flush_all();
        assert_eq!(host.stats().readmits, 1);
        assert_eq!(host.stats().quarantine_trips, 2);
    }

    #[test]
    fn real_threads_smoke_concurrent_dispatch_and_detach() {
        // The non-virtual path: four OS threads dispatch concurrently
        // while a saboteur trips the supervisor on some shard; totals
        // still merge exactly and the detach is globally visible.
        let shards_n = 4;
        let per_shard = 200u64;
        let mut host = ShardedHost::new(shards_n);
        // The saboteur goes first in the chain: it declines (-1) except
        // on arg 13, where it traps; the well-behaved tenant behind it
        // serves every dispatch.
        let bad = host
            .install(
                AttachPoint::VmEvict,
                "hostile",
                victim_engine_factory(|| {
                    Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
                        if args[0] == 13 {
                            Err(Trap::DivByZero.into())
                        } else {
                            Ok(-1)
                        }
                    })
                }),
            )
            .unwrap();
        let good = host.install(AttachPoint::VmEvict, "good", constant(1)).unwrap();
        let handles = host.take_handles();
        let workers: Vec<_> = handles
            .into_iter()
            .map(|mut h| {
                std::thread::spawn(move || {
                    for i in 0..per_shard {
                        // arg 13 traps; each shard raises it a few times.
                        let arg = (i % 20) as i64;
                        h.dispatch(AttachPoint::VmEvict, |_| Ok(vec![arg, 0]));
                    }
                    // handle drops here → flush
                })
            })
            .collect();
        for w in workers {
            w.join().unwrap();
        }
        assert!(host.is_quarantined(bad));
        let bad_ledger = host.ledger(bad).unwrap();
        // At least the three strikes landed; after the detach became
        // visible no shard invoked it again (visibility is immediate in
        // program order per shard, so the count is bounded by one
        // in-flight invocation per shard).
        assert!(bad_ledger.traps >= 3);
        assert!(bad_ledger.traps <= 3 + shards_n as u64);
        // Before detach the saboteur also declined a lot; every one of
        // those invocations was accounted.
        assert!(bad_ledger.invocations >= bad_ledger.traps);
        assert!(bad_ledger.invocations <= shards_n as u64 * per_shard);
        assert_eq!(host.stats().dispatches, shards_n as u64 * per_shard);
        assert_eq!(host.stats().quarantine_trips, 1);
        // The well-behaved tenant served every dispatch.
        assert_eq!(
            host.ledger(good).unwrap().invocations,
            shards_n as u64 * per_shard
        );
        let loads = host.shard_loads();
        assert_eq!(loads, vec![per_shard; shards_n]);
    }

    #[test]
    fn install_fails_atomically_when_fork_is_refused() {
        let mut host = ShardedHost::new(2);
        // NativeEngine::with_entries has no factory → fork refuses.
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        let engine: Box<dyn ExtensionEngine> = Box::new(
            NativeEngine::with_entries(
                &specs,
                &entries,
                Box::new(|_: &str, _: &[i64], _: &mut RegionStore| Ok(0)),
            )
            .unwrap(),
        );
        let err = host.install(AttachPoint::VmEvict, "unforkable", engine);
        assert!(matches!(err, Err(GraftError::Unavailable { .. })));
        let mut shards = VirtualShards::new(&mut host, 1);
        assert_eq!(shards.shard_mut(0).active_len(AttachPoint::VmEvict), 0);
        assert_eq!(shards.shard_mut(1).active_len(AttachPoint::VmEvict), 0);
        assert_eq!(host.stats().installs, 0);
    }

    #[test]
    fn one_shard_host_matches_single_host_semantics_without_forking() {
        // shards=1 never calls fork_for_shard, so even a factory-less
        // engine installs (parity with GraftHost for the scalar case).
        let specs = [RegionSpec::data("scratch", 8)];
        let entries = [EntryPoint {
            name: "select_victim".into(),
            arity: 2,
        }];
        let engine: Box<dyn ExtensionEngine> = Box::new(
            NativeEngine::with_entries(
                &specs,
                &entries,
                Box::new(|_: &str, _: &[i64], _: &mut RegionStore| Ok(7)),
            )
            .unwrap(),
        );
        let mut host = ShardedHost::new(1);
        host.install(AttachPoint::VmEvict, "scalar", engine).unwrap();
        let mut shards = VirtualShards::new(&mut host, 0);
        assert_eq!(
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0])),
            Verdict::Override(7)
        );
    }

    #[test]
    fn winning_detach_shard_salvages_its_replica() {
        let mut host = ShardedHost::new(4);
        // Every replica writes its call count into scratch[0], then
        // traps on call 3: whichever shard wins the detach salvages a
        // scratch holding that shard's last pre-trap state (2).
        let bad = host
            .install_with_salvage(
                AttachPoint::VmEvict,
                "stateful",
                victim_engine_factory(|| {
                    let mut calls = 0i64;
                    Box::new(move |_: &str, _: &[i64], regions: &mut RegionStore| {
                        calls += 1;
                        let id = regions.id("scratch").unwrap();
                        regions.write_id(id, 0, calls)?;
                        if calls >= 3 {
                            Err(Trap::DivByZero.into())
                        } else {
                            Ok(-1)
                        }
                    })
                }),
                &["scratch"],
            )
            .unwrap();
        host.install(AttachPoint::VmEvict, "good", constant(1)).unwrap();
        let mut shards = VirtualShards::new(&mut host, 17);
        // Each replica needs 3 calls to reach its first trap; traps
        // accumulate globally, 3 strikes detach.
        for _ in 0..64 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
            if host.is_quarantined(bad) {
                break;
            }
        }
        assert!(host.is_quarantined(bad));
        shards.flush_all();
        let s = host.take_salvage(bad).expect("winner salvaged");
        assert_eq!(s.graft, "stateful");
        // The winning shard's replica trapped on its own call 3, after
        // writing 3 into scratch[0] (region writes land before the
        // trap decision in this native graft).
        assert_eq!(s.region("scratch").unwrap()[0], 3);
        assert!(host.take_salvage(bad).is_none(), "taken once");
        assert_eq!(host.stats().salvages, 1);
        // Unknown salvage regions fail the install atomically.
        let err = host.install_with_salvage(
            AttachPoint::VmEvict,
            "typo",
            constant(2),
            &["missing"],
        );
        assert!(err.is_err());
    }

    #[test]
    fn backoff_ladder_is_shared_atomic_across_shards() {
        let mut host = ShardedHost::with_config(
            4,
            HostConfig {
                backoff_base: 4,
                ban_ceiling: 2,
                probation_clean: 1,
                ..HostConfig::default()
            },
        );
        let bad = host
            .install(AttachPoint::VmEvict, "hostile", trapping())
            .unwrap();
        host.install(AttachPoint::VmEvict, "good", constant(1)).unwrap();
        let mut shards = VirtualShards::new(&mut host, 23);
        for _ in 0..3 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        }
        assert!(host.is_quarantined(bad));
        assert_eq!(host.quarantine_count(bad), Some(1));
        // The clean built-in window counts dispatches from *any* shard.
        for _ in 0..3 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
            assert!(host.is_quarantined(bad));
        }
        shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        assert!(matches!(
            host.state(bad),
            Some(GraftState::Probation { .. })
        ));
        // Second strike is the ceiling: permanent ban, everywhere.
        shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        assert_eq!(host.state(bad), Some(GraftState::Banned));
        assert!(!host.readmit(bad), "banned grafts never re-admit");
        for _ in 0..32 {
            shards.dispatch(AttachPoint::VmEvict, |_| Ok(vec![0, 0]));
        }
        assert_eq!(host.state(bad), Some(GraftState::Banned));
        for s in 0..4 {
            let err = shards.shard_mut(s).invoke(bad, &[0, 0]).unwrap_err();
            match err {
                GraftError::Unavailable { missing, .. } => {
                    assert!(missing.contains("banned"), "{missing}");
                }
                other => panic!("expected Unavailable, got {other}"),
            }
        }
        shards.flush_all();
        assert_eq!(host.stats().auto_readmits, 1);
        assert_eq!(host.stats().bans, 1);
        assert_eq!(host.stats().readmits, 1, "auto-readmit counted once");
    }

    #[test]
    fn virtual_scheduler_is_deterministic_per_seed() {
        let run = |seed: u64| -> Vec<usize> {
            let mut host = ShardedHost::new(4);
            let mut shards = VirtualShards::new(&mut host, seed);
            (0..16).map(|_| shards.next_shard().shard()).collect()
        };
        assert_eq!(run(42), run(42), "same seed, same interleaving");
        assert_ne!(run(42), run(43), "different seed explores differently");
        // Every round visits each shard exactly once.
        let order = run(9);
        for round in order.chunks(4) {
            let mut sorted = round.to_vec();
            sorted.sort_unstable();
            assert_eq!(sorted, vec![0, 1, 2, 3]);
        }
    }

    /// An engine echoing its first argument (negative = Continue,
    /// non-negative = Override at eviction points), so batch verdicts
    /// can be scripted per call.
    fn echo() -> Box<dyn ExtensionEngine> {
        victim_engine_factory(|| {
            Box::new(|_: &str, args: &[i64], _: &mut RegionStore| Ok(args[0]))
        })
    }

    #[test]
    fn fused_batch_matches_per_call_dispatch_exactly() {
        // Same calls through the fused invoke_batch path and through a
        // per-call dispatch loop: identical verdicts, stats, and
        // ledgers (the native echo engine is unmetered, single-graft
        // chain, tracing off — the fusable shape).
        let args: Vec<[i64; 2]> = (0..13).map(|i| [if i % 3 == 0 { i } else { -1 }, 0]).collect();
        let run = |batched: bool| {
            let mut host = ShardedHost::new(2);
            let id = host.install(AttachPoint::VmEvict, "echo", echo()).unwrap();
            let mut vs = VirtualShards::new(&mut host, 5);
            let h = vs.shard_mut(0);
            let verdicts: Vec<Verdict> = if batched {
                h.dispatch_batch(AttachPoint::VmEvict, args.len(), |i, _| Ok(args[i].to_vec()))
            } else {
                args.iter().map(|a| h.dispatch(AttachPoint::VmEvict, |_| Ok(a.to_vec()))).collect()
            };
            vs.flush_all();
            let mut stats = host.stats();
            stats.installs = 0; // control-plane, not dispatch-path
            (verdicts, stats, host.ledger(id).map(|l| (l.invocations, l.traps)))
        };
        let (v1, s1, l1) = run(true);
        let (v2, s2, l2) = run(false);
        assert_eq!(v1, v2, "verdicts diverge");
        assert_eq!(s1, s2, "host stats diverge");
        assert_eq!(l1, l2, "ledgers diverge");
        assert_eq!(v1[0], Verdict::Override(0));
        assert_eq!(v1[1], Verdict::Continue);
    }

    #[test]
    fn mid_batch_trap_strikes_exactly_once_and_detaches() {
        let mut host = ShardedHost::new(2);
        let bad = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        let mut vs = VirtualShards::new(&mut host, 3);
        // An 8-call batch against an always-trapping graft: the fused
        // path charges the first trap once, then degrades to per-call
        // dispatch — strikes 2 and 3 detach, calls 4-8 run against the
        // detached chain and charge nothing.
        let verdicts = vs
            .shard_mut(0)
            .dispatch_batch(AttachPoint::VmEvict, 8, |_, _| Ok(vec![0, 0]));
        assert_eq!(verdicts, vec![Verdict::Continue; 8]);
        assert!(host.is_quarantined(bad), "three strikes did not detach");
        vs.flush_all();
        let ledger = host.ledger(bad).unwrap();
        assert_eq!(ledger.traps, 3, "a mid-batch strike was double-counted");
        assert_eq!(ledger.invocations, 3);
        let stats = host.stats();
        assert_eq!(stats.dispatches, 8);
        assert_eq!(stats.defaults, 8);
        assert_eq!(stats.quarantine_trips, 1);
    }

    #[test]
    fn drain_queue_runs_every_item_once_and_marks_warm() {
        let mut host = ShardedHost::new(4);
        let id = host.install(AttachPoint::VmEvict, "decline", constant(-1)).unwrap();
        let q: RunQueues<Vec<i64>> = host.run_queues(StealPolicy::default());
        let n = 300u64;
        for k in 0..n {
            host.enqueue(&q, k, Some(id), vec![k as i64, 0]).expect("room");
        }
        assert_eq!(q.stats().enqueued, n);
        let mut vs = VirtualShards::new(&mut host, 42);
        let ran = vs.drain_queue_to_empty(&q, AttachPoint::VmEvict, |p| p.clone());
        assert_eq!(ran as u64, n, "items lost or double-run");
        vs.flush_all();
        assert_eq!(host.ledger(id).unwrap().invocations, n);
        assert_eq!(host.stats().dispatches, n);
        // Every shard that executed work went warm for the graft.
        let st = q.stats();
        assert!(st.batches > 0);
        assert!((0..4).any(|s| q.is_warm(s, id.0)));
        // Adaptive widths realized: more items than batches.
        assert!(st.batched_items / st.batches >= 1);
    }

    #[test]
    fn drain_queue_replays_identically_from_the_same_seed() {
        let run = |seed: u64| -> (Vec<(usize, u64)>, u64, u64) {
            let mut host = ShardedHost::new(4);
            let id = host.install(AttachPoint::VmEvict, "decline", constant(-1)).unwrap();
            let q: RunQueues<u64> = host.run_queues(StealPolicy::default());
            for k in 0..200u64 {
                host.enqueue(&q, k % 7, Some(id), k).expect("room");
            }
            let mut vs = VirtualShards::new(&mut host, seed);
            let mut order = Vec::new();
            while q.total_depth() > 0 {
                let h = vs.next_shard();
                let s = h.shard();
                h.drain_queue_with(&q, AttachPoint::VmEvict, |&k| vec![k as i64, 0], |w, _| {
                    order.push((s, w.payload));
                });
            }
            let st = q.stats();
            (order, st.steals, st.diverted)
        };
        assert_eq!(run(7), run(7), "same seed, same steal schedule");
        let (order, steals, _) = run(7);
        assert_eq!(order.len(), 200);
        assert!(steals > 0, "a 7-hot-key trace on 4 shards must steal");
    }

    #[test]
    fn graft_quarantined_mid_steal_charges_the_thief_exactly_once() {
        let mut host = ShardedHost::new(2);
        let bad = host.install(AttachPoint::VmEvict, "hostile", trapping()).unwrap();
        let q: RunQueues<u64> = host.run_queues(StealPolicy::default());
        // All work homes to one hot key's shard; the other shard will
        // steal its share and execute the traps itself.
        let hot = 1u64;
        let home = q.home(hot);
        let thief = 1 - home;
        for k in 0..10u64 {
            host.enqueue(&q, hot, Some(bad), k).expect("room");
        }
        // The thief drains first: its own queue is empty, so it steals
        // the back half and the traps happen on the *stealing* shard.
        let mut vs = VirtualShards::new(&mut host, 1);
        let to_args = |&k: &u64| vec![k as i64, 0];
        let stolen = vs.shard_mut(thief).drain_queue(&q, AttachPoint::VmEvict, to_args);
        assert_eq!(q.stats().steals, 5);
        assert_eq!(stolen, 5);
        assert!(host.is_quarantined(bad), "stolen traps did not strike");
        // The home shard drains the rest against a detached chain.
        let mut rest = 0;
        while q.total_depth() > 0 {
            rest += vs.shard_mut(home).drain_queue(&q, AttachPoint::VmEvict, to_args);
        }
        assert_eq!(rest, 5);
        vs.flush_all();
        let ledger = host.ledger(bad).unwrap();
        assert_eq!(ledger.traps, 3, "strikes must count exactly once");
        assert_eq!(ledger.invocations, 3);
        // The postmortem names the thief as the detaching shard.
        let pm = host.take_postmortems();
        assert_eq!(pm.len(), 1);
        assert_eq!(pm[0].shard, Some(thief as u32));
    }
}
