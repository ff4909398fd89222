//! An independent reference model of one graft host, for the property
//! suites.
//!
//! `GraftHost` and `ShardedHost` share their dispatch core, so checking
//! one against the other proves only that the sharded plumbing adds
//! nothing; it cannot catch a wrong rule in the shared code. This model
//! restates the documented rules from scratch, with a naive `Vec` chain
//! and plain counters, and the suites check both hosts against it:
//!
//! * Dispatch walks the chain in order. The first `Override` wins; a
//!   chain that declines entirely counts one default.
//! * A quarantined or banned graft is skipped. Each dispatch that skips
//!   it counts down its backoff window; the dispatch that empties the
//!   window re-admits it on probation.
//! * `trap_threshold` traps quarantine a graft, and so does a single
//!   `FuelExhausted` or any trap while on probation. Each trip counts one
//!   rung; with `backoff_base > 0` the graft is banned at `ban_ceiling`
//!   rungs, otherwise it waits `base << (rungs - 1)` dispatches.
//! * A marshal failure or a non-trap engine error is charged to the
//!   host's failure counter, never to the graft: no ledger entry, no
//!   invocation, no probation credit.

use graftbench::api::{TrapKind, Verdict};
use graftbench::kernel::{GraftState, HostConfig, HostStats};

/// What one invocation of the modelled graft does.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Returned a value.
    Ret(i64),
    /// Trapped with this kind.
    Trap(TrapKind),
    /// Failed with a non-trap framework error.
    Fail,
}

/// How a direct invocation ends in the model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Invoked {
    /// The graft ran: its outcome.
    Ran(Outcome),
    /// Refused: unknown, quarantined or banned graft.
    Refused,
}

/// One graft's modelled supervisor state and ledger counters.
#[derive(Debug, Clone)]
pub struct ModelGraft {
    pub key: u64,
    pub state: GraftState,
    pub strikes: u32,
    pub rungs: u32,
    pub window: u64,
    pub invocations: u64,
    pub traps: u64,
    pub kinds: [u64; TrapKind::COUNT],
}

/// The modelled host: one chain at one attach point.
pub struct Model {
    cfg: HostConfig,
    graft: fn(i64, i64) -> Outcome,
    next_key: u64,
    pub chain: Vec<ModelGraft>,
    pub stats: HostStats,
    /// `(reason, strikes)` of every quarantine trip, oldest first.
    pub trips: Vec<(TrapKind, u32)>,
}

impl Model {
    /// A model whose every graft computes `graft(a, b)`.
    pub fn new(cfg: HostConfig, graft: fn(i64, i64) -> Outcome) -> Self {
        Model {
            cfg,
            graft,
            next_key: 1,
            chain: Vec::new(),
            stats: HostStats::default(),
            trips: Vec::new(),
        }
    }

    /// Installs a graft at either chain end; returns its model key.
    pub fn install(&mut self, front: bool) -> u64 {
        let key = self.next_key;
        let g = ModelGraft {
            key,
            state: GraftState::Active,
            strikes: 0,
            rungs: 0,
            window: 0,
            invocations: 0,
            traps: 0,
            kinds: [0; TrapKind::COUNT],
        };
        self.next_key += 1;
        if front {
            self.chain.insert(0, g);
        } else {
            self.chain.push(g);
        }
        self.stats.installs += 1;
        key
    }

    pub fn uninstall(&mut self, key: u64) -> bool {
        let before = self.chain.len();
        self.chain.retain(|g| g.key != key);
        let removed = self.chain.len() < before;
        if removed {
            self.stats.uninstalls += 1;
        }
        removed
    }

    pub fn graft(&self, key: u64) -> Option<&ModelGraft> {
        self.chain.iter().find(|g| g.key == key)
    }

    fn at(&self, key: u64) -> Option<usize> {
        self.chain.iter().position(|g| g.key == key)
    }

    /// Explicit re-admission: only a quarantined (not banned) graft.
    pub fn readmit(&mut self, key: u64) -> bool {
        let Some(i) = self.at(key) else {
            return false;
        };
        if !matches!(self.chain[i].state, GraftState::Quarantined { .. }) {
            return false;
        }
        self.put_on_probation(i);
        self.stats.readmits += 1;
        true
    }

    fn put_on_probation(&mut self, i: usize) {
        let g = &mut self.chain[i];
        g.strikes = 0;
        g.window = 0;
        g.state = GraftState::Probation {
            remaining_clean: self.cfg.probation_clean.max(1),
        };
    }

    fn detached(g: &ModelGraft) -> bool {
        matches!(g.state, GraftState::Quarantined { .. } | GraftState::Banned)
    }

    /// Grafts a dispatch would consult.
    pub fn active_len(&self) -> usize {
        self.chain.iter().filter(|g| !Self::detached(g)).count()
    }

    /// Runs the graft at chain slot `i` and charges the outcome.
    fn run(&mut self, i: usize, a: i64, b: i64) -> Outcome {
        let outcome = (self.graft)(a, b);
        match outcome {
            Outcome::Ret(_) => {
                self.stats.invocations += 1;
                let g = &mut self.chain[i];
                g.invocations += 1;
                if let GraftState::Probation { remaining_clean } = g.state {
                    g.state = if remaining_clean <= 1 {
                        GraftState::Active
                    } else {
                        GraftState::Probation {
                            remaining_clean: remaining_clean - 1,
                        }
                    };
                }
            }
            Outcome::Trap(kind) => {
                self.stats.invocations += 1;
                self.stats.traps += 1;
                let g = &mut self.chain[i];
                g.invocations += 1;
                g.traps += 1;
                g.kinds[kind as usize] += 1;
                g.strikes += 1;
                let on_probation = matches!(g.state, GraftState::Probation { .. });
                if kind == TrapKind::FuelExhausted
                    || on_probation
                    || g.strikes >= self.cfg.trap_threshold
                {
                    self.trip(i, kind);
                }
            }
            Outcome::Fail => self.stats.marshal_failures += 1,
        }
        outcome
    }

    fn trip(&mut self, i: usize, kind: TrapKind) {
        let cfg = self.cfg;
        let g = &mut self.chain[i];
        g.state = GraftState::Quarantined { by: kind };
        g.rungs += 1;
        self.stats.quarantine_trips += 1;
        if cfg.backoff_base > 0 {
            if g.rungs >= cfg.ban_ceiling.max(1) {
                g.state = GraftState::Banned;
                self.stats.bans += 1;
            } else {
                let mut window = cfg.backoff_base;
                for _ in 1..g.rungs {
                    window = window.saturating_mul(2);
                }
                g.window = window;
            }
        }
        self.trips.push((kind, g.strikes));
    }

    /// One chain walk with arguments `(a, b)`; `marshal_ok == false`
    /// fails marshalling for every consulted graft.
    pub fn dispatch(&mut self, marshal_ok: bool, a: i64, b: i64) -> Verdict {
        self.stats.dispatches += 1;
        for i in 0..self.chain.len() {
            if Self::detached(&self.chain[i]) {
                let g = &mut self.chain[i];
                if matches!(g.state, GraftState::Quarantined { .. }) && g.window > 0 {
                    g.window -= 1;
                    if g.window == 0 {
                        self.put_on_probation(i);
                        self.stats.readmits += 1;
                        self.stats.auto_readmits += 1;
                    }
                }
                continue;
            }
            if !marshal_ok {
                self.stats.marshal_failures += 1;
                continue;
            }
            if let Outcome::Ret(ret) = self.run(i, a, b) {
                // Eviction points decline with a negative value.
                if ret >= 0 {
                    self.stats.overrides += 1;
                    return Verdict::Override(ret);
                }
                self.stats.continues += 1;
            }
        }
        self.stats.defaults += 1;
        Verdict::Continue
    }

    /// A direct invocation of one graft.
    pub fn invoke(&mut self, key: u64, a: i64, b: i64) -> Invoked {
        match self.at(key) {
            Some(i) if !Self::detached(&self.chain[i]) => Invoked::Ran(self.run(i, a, b)),
            _ => Invoked::Refused,
        }
    }
}
