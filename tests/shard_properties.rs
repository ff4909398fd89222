//! Property harness for the sharded extension kernel: for every
//! technology, a `ShardedHost` driven through [`VirtualShards`] (the
//! deterministic loom-style interleaving mode) must be observationally
//! equivalent to a single [`GraftHost`] fed the same operation
//! sequence — same verdicts, same ledger totals, same quarantine
//! decisions, same control-plane statistics.
//!
//! Each interleaving is a short random program over the host API
//! (install at either chain end, uninstall, readmit, chain dispatch,
//! direct invoke, marshalling failure) generated from a seeded
//! [`SmallRng`], so every run of the suite replays the exact same
//! programs — the property is checked over >= 200 interleavings per
//! technology and stays reproducible in CI.
//!
//! Both hosts are also checked against an independent reference model
//! of the documented supervisor rules ([`model`]), so a rule the two
//! hosts share cannot be wrong in both without the suite noticing. The
//! default policy runs at the historical seed counts; a seeded variant
//! climbs the backoff ladder to its ban ceiling.
//!
//! The second half is the fault-injection harness: an rng-scheduled
//! saboteur traps on chosen (shard, invocation) slots, and the suite
//! asserts the quarantine detach propagates to every shard (no
//! post-detach invocations anywhere, deterministic `Unavailable` on
//! re-invoke, epoch stamped against the membership order).

mod model;

use graft_rng::SmallRng;
use graftbench::api::GraftLedger;
use graftbench::api::{
    GraftClass, GraftError, GraftSpec, Motivation, RegionStore, Technology, Trap, TrapKind, Verdict,
};
use graftbench::core::GraftManager;
use graftbench::kernel::{
    AttachPoint, GraftHost, GraftId, HostConfig, RunQueues, ShardedHost, StealPolicy, VirtualShards,
};
use model::{Invoked, Model, ModelGraft, Outcome};

const POINT: AttachPoint = AttachPoint::VmEvict;

/// Every technology row of the paper's tables.
const ALL_TECHS: [Technology; 7] = [
    Technology::CompiledUnchecked,
    Technology::SafeCompiled,
    Technology::Sfi,
    Technology::Bytecode,
    Technology::Script,
    Technology::RustNative,
    Technology::UserLevel,
];

/// A *pure* graft: `select_victim(a, b)` depends only on its arguments,
/// so a per-shard replica computes exactly what the scalar host's
/// single engine computes — the precondition for sharded/scalar
/// equivalence. `b == 0` divides by zero (the one trap every safe
/// technology and the unchecked one agree on); `b < 0` spins until the
/// fuel meter preempts it (only dispatched by the metered fault tests).
fn pure_spec() -> GraftSpec {
    let grail = r#"
        fn select_victim(a: int, b: int) -> int {
            if b == 0 { return a / b; }
            if b < 0 { let i = 0; while true { i = i + 1; } return i; }
            return (a + b) % 7 - 3;
        }
    "#;
    let tickle = r#"
        proc select_victim {a b} {
            if {$b == 0} { return [expr $a / $b] }
            if {$b < 0} { while {1} { } }
            return [expr ($a + $b) % 7 - 3]
        }
    "#;
    GraftSpec::new("pure-pick", GraftClass::Prioritization, Motivation::Policy)
        .entry("select_victim", 2)
        .with_grail(grail)
        .with_tickle(tickle)
        .with_native(Box::new(|| {
            Box::new(|entry: &str, args: &[i64], _regions: &mut RegionStore| {
                if entry != "select_victim" {
                    return Err(GraftError::Unavailable {
                        graft: "pure-pick".into(),
                        missing: format!("entry {entry}"),
                    });
                }
                let (a, b) = (args[0], args[1]);
                if b == 0 {
                    return Err(GraftError::Trap(Trap::DivByZero));
                }
                if b < 0 {
                    return Err(GraftError::Trap(Trap::FuelExhausted));
                }
                Ok((a + b) % 7 - 3)
            })
        }))
}

/// What [`pure_spec`]'s graft computes, restated for the model.
fn pure_outcome(a: i64, b: i64) -> Outcome {
    if b == 0 {
        Outcome::Trap(TrapKind::DivByZero)
    } else if b < 0 {
        Outcome::Trap(TrapKind::FuelExhausted)
    } else {
        Outcome::Ret((a + b) % 7 - 3)
    }
}

/// Whether a host's invoke result is the one the model predicts.
fn matches_model(r: &Result<i64, GraftError>, m: Invoked) -> bool {
    match (r, m) {
        (Ok(x), Invoked::Ran(Outcome::Ret(y))) => *x == y,
        (Err(e), Invoked::Ran(Outcome::Trap(k))) => e.as_trap().map(Trap::kind) == Some(k),
        (Err(e), Invoked::Ran(Outcome::Fail)) => e.as_trap().is_none(),
        (Err(e), Invoked::Refused) => matches!(e, GraftError::Unavailable { .. }),
        _ => false,
    }
}

/// Asserts a host ledger carries the model's countable totals.
fn assert_ledger(l: &GraftLedger, m: &ModelGraft, ctx: &str) {
    assert_eq!(l.invocations, m.invocations, "model invocations, {ctx}");
    assert_eq!(l.traps, m.traps, "model traps, {ctx}");
    for kind in TrapKind::ALL {
        assert_eq!(
            l.trap_counts.get(kind),
            m.kinds[kind as usize],
            "model {kind:?} traps, {ctx}"
        );
    }
}

/// A backoff-ladder policy drawn from `seed`: short windows and a low
/// ban ceiling, so a short random program climbs the ladder, gets
/// re-admitted on probation, and reaches the permanent ban.
fn backoff_config(seed: u64) -> HostConfig {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xBAC0_FF00);
    HostConfig {
        trap_threshold: 1 + rng.bounded_u64(2) as u32,
        probation_clean: 1 + rng.bounded_u64(3),
        backoff_base: 1 + rng.bounded_u64(4),
        ban_ceiling: 2 + rng.bounded_u64(2) as u32,
        ..HostConfig::default()
    }
}

/// [`pure_spec`] plus a native-only failure mode: `b == 3` returns a
/// non-trap framework error, which the host must charge as a failure,
/// never as an invocation.
fn flaky_spec() -> GraftSpec {
    GraftSpec::new("flaky-pick", GraftClass::Prioritization, Motivation::Policy)
        .entry("select_victim", 2)
        .with_native(Box::new(|| {
            Box::new(|_: &str, args: &[i64], _: &mut RegionStore| {
                let (a, b) = (args[0], args[1]);
                match b {
                    0 => Err(GraftError::Trap(Trap::DivByZero)),
                    3 => Err(marshal_err()),
                    _ => Ok((a + b) % 7 - 3),
                }
            })
        }))
}

fn flaky_outcome(a: i64, b: i64) -> Outcome {
    if b == 3 {
        Outcome::Fail
    } else {
        pure_outcome(a, b)
    }
}

fn marshal_err() -> GraftError {
    GraftError::Unavailable {
        graft: "pure-pick".into(),
        missing: "kernel-side marshalling (injected)".into(),
    }
}

/// Flattens a verdict into the replay trace.
fn encode_verdict(v: Verdict) -> i64 {
    match v {
        Verdict::Continue => -500,
        Verdict::Override(x) => x,
    }
}

/// Flattens an invoke result into the replay trace.
fn encode_result(r: &Result<i64, GraftError>) -> i64 {
    match r {
        Ok(v) => *v,
        Err(e) => match e.as_trap() {
            Some(t) => -1000 - t.kind() as i64,
            None => -2000,
        },
    }
}

/// Errors compare by observable class: same trap kind, or both
/// `Unavailable` (the ids embedded in the messages legitimately differ
/// between the two hosts).
fn same_error(a: &GraftError, b: &GraftError) -> bool {
    match (a.as_trap(), b.as_trap()) {
        (Some(x), Some(y)) => x.kind() == y.kind(),
        (None, None) => {
            matches!(a, GraftError::Unavailable { .. })
                == matches!(b, GraftError::Unavailable { .. })
        }
        _ => false,
    }
}

/// Runs one random interleaving of host operations against a scalar
/// `GraftHost`, a `ShardedHost` with 1-4 shards, and the reference
/// model, all under policy `cfg`, asserting observational equivalence
/// at every step and over the final ledgers, states, and statistics.
/// Returns the replay trace so the determinism test can compare two
/// runs of the same seed.
fn check_one(
    manager: &GraftManager,
    spec: &GraftSpec,
    tech: Technology,
    seed: u64,
    cfg: HostConfig,
    graft: fn(i64, i64) -> Outcome,
) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shards = 1 + rng.bounded_u64(4) as usize;
    let mut single = GraftHost::with_config(cfg);
    let mut sharded = ShardedHost::with_config(shards, cfg);
    let mut model = Model::new(cfg, graft);
    let mut vs = VirtualShards::new(&mut sharded, seed ^ 0xA5A5_5A5A);
    // Parallel id map: (scalar id, sharded id, model key), in install
    // order.
    let mut installed: Vec<(GraftId, GraftId, u64)> = Vec::new();
    let mut trace = vec![shards as i64];
    let ctx = |seed: u64| format!("{tech} seed {seed:#x}");

    let mut uninstalled = false;
    let ops = 12 + rng.bounded_u64(20) as usize;
    for _ in 0..ops {
        let roll = if installed.is_empty() {
            0
        } else {
            rng.bounded_u64(100)
        };
        if roll < 15 && installed.len() < 3 {
            // Install the same pure graft into both hosts, at the same
            // chain end.
            let e1 = manager.load(spec, tech).expect("scalar load");
            let e2 = manager.load(spec, tech).expect("sharded load");
            let front = rng.bounded_u64(2) == 0;
            let m = model.install(front);
            let pair = if front {
                let a = single.install_front(POINT, "pure", e1).expect("install");
                let b = vs_install_front(&sharded, e2);
                installed.insert(0, (a, b, m));
                (a, b)
            } else {
                let a = single.install(POINT, "pure", e1).expect("install");
                let b = sharded.install(POINT, "pure", e2).expect("install");
                installed.push((a, b, m));
                (a, b)
            };
            trace.push(100 + pair.0 .0 as i64);
        } else if roll < 25 {
            let k = rng.bounded_u64(installed.len() as u64) as usize;
            let (a, b, m) = installed.remove(k);
            uninstalled = true;
            let removed = single.uninstall(a);
            assert_eq!(
                removed,
                sharded.uninstall(b),
                "uninstall parity, {}",
                ctx(seed)
            );
            assert_eq!(
                removed,
                model.uninstall(m),
                "model uninstall, {}",
                ctx(seed)
            );
            trace.push(200);
        } else if roll < 33 {
            let k = rng.bounded_u64(installed.len() as u64) as usize;
            let (a, b, m) = installed[k];
            let readmitted = single.readmit(a);
            assert_eq!(
                readmitted,
                sharded.readmit(b),
                "readmit parity, {}",
                ctx(seed)
            );
            assert_eq!(readmitted, model.readmit(m), "model readmit, {}", ctx(seed));
            trace.push(300);
        } else if roll < 43 {
            // Direct invocation through the host, on whichever shard
            // the rotation lands on.
            let k = rng.bounded_u64(installed.len() as u64) as usize;
            let (a, b, m) = installed[k];
            let aa = rng.bounded_u64(1000) as i64;
            let bb = rng.bounded_u64(4) as i64;
            let r1 = single.invoke(a, &[aa, bb]);
            let r2 = vs.next_shard().invoke(b, &[aa, bb]);
            let rm = model.invoke(m, aa, bb);
            assert!(
                matches_model(&r1, rm),
                "model invoke {rm:?} vs {r1:?}, {}",
                ctx(seed)
            );
            match (&r1, &r2) {
                (Ok(x), Ok(y)) => assert_eq!(x, y, "invoke value, {}", ctx(seed)),
                (Err(x), Err(y)) => {
                    assert!(same_error(x, y), "invoke error {x} vs {y}, {}", ctx(seed))
                }
                _ => panic!("invoke divergence {r1:?} vs {r2:?}, {}", ctx(seed)),
            }
            trace.push(encode_result(&r1));
        } else if roll < 48 {
            // Kernel-side marshalling failure: charged to the host's
            // failure counter, never to the graft.
            let v1 = single.dispatch(POINT, |_| Err(marshal_err()));
            let v2 = vs.dispatch(POINT, |_| Err(marshal_err()));
            assert_eq!(v1, v2, "marshal-failure verdict, {}", ctx(seed));
            assert_eq!(
                v1,
                model.dispatch(false, 0, 0),
                "model verdict, {}",
                ctx(seed)
            );
            trace.push(400);
        } else {
            let aa = rng.bounded_u64(1000) as i64;
            let bb = rng.bounded_u64(5) as i64;
            let v1 = single.dispatch(POINT, |_| Ok(vec![aa, bb]));
            let v2 = vs.dispatch(POINT, |_| Ok(vec![aa, bb]));
            assert_eq!(v1, v2, "dispatch verdict ({aa},{bb}), {}", ctx(seed));
            let vm = model.dispatch(true, aa, bb);
            assert_eq!(v1, vm, "model verdict ({aa},{bb}), {}", ctx(seed));
            trace.push(encode_verdict(v1));
        }
    }

    // Merge every shard's private ledgers before reading the totals.
    vs.flush_all();

    // Control-plane statistics agree exactly, field for field.
    assert_eq!(single.stats(), sharded.stats(), "host stats, {}", ctx(seed));
    assert_eq!(single.stats(), model.stats, "model stats, {}", ctx(seed));

    // Per-graft ledgers and lifecycle states agree for every graft
    // still installed (wall-clock ns is the one legitimately
    // machine-dependent field; everything countable must match).
    for &(a, b, m) in &installed {
        let l1 = *single.ledger(a).expect("scalar ledger");
        let l2 = sharded.ledger(b).expect("sharded ledger");
        assert_eq!(l1.invocations, l2.invocations, "invocations, {}", ctx(seed));
        assert_eq!(l1.traps, l2.traps, "traps, {}", ctx(seed));
        assert_eq!(l1.fuel_used, l2.fuel_used, "fuel, {}", ctx(seed));
        assert_eq!(l1.trap_counts, l2.trap_counts, "trap kinds, {}", ctx(seed));
        assert_eq!(single.state(a), sharded.state(b), "state, {}", ctx(seed));
        let mg = model.graft(m).expect("model graft");
        assert_ledger(&l1, mg, &ctx(seed));
        assert_eq!(
            single.state(a),
            Some(mg.state),
            "model state, {}",
            ctx(seed)
        );
        assert_eq!(
            single.quarantine_count(a),
            Some(mg.rungs),
            "model rung, {}",
            ctx(seed)
        );
        trace.push(l1.invocations as i64);
        trace.push(l1.traps as i64);
    }

    // `HostStats::invocations` counts successful or trapped calls only,
    // exactly what the ledgers count: with every graft still installed
    // the two totals agree.
    if !uninstalled {
        let charged: u64 = installed
            .iter()
            .map(|&(a, _, _)| single.ledger(a).expect("scalar ledger").invocations)
            .sum();
        assert_eq!(
            single.stats().invocations,
            charged,
            "invocations vs ledgers, {}",
            ctx(seed)
        );
    }

    // Every shard sees the same membership as the scalar host, and the
    // scalar host the model's.
    assert_eq!(
        single.active_len(POINT),
        model.active_len(),
        "model chain, {}",
        ctx(seed)
    );
    for s in 0..vs.len() {
        assert_eq!(
            single.active_len(POINT),
            vs.shard_mut(s).active_len(POINT),
            "shard {s} active chain, {}",
            ctx(seed)
        );
        assert_eq!(
            single.chain(POINT).len(),
            vs.shard_mut(s).chain(POINT).len(),
            "shard {s} chain length, {}",
            ctx(seed)
        );
    }
    trace
}

/// `ShardedHost::install_front` with the same shape as the scalar call.
fn vs_install_front(
    host: &ShardedHost,
    engine: Box<dyn graftbench::api::ExtensionEngine>,
) -> GraftId {
    host.install_front(POINT, "pure", engine)
        .expect("install front")
}

/// >= 200 seeded interleavings for one technology.
fn run_equivalence(tech: Technology, base_seed: u64) {
    const INTERLEAVINGS: usize = 200;
    let manager = GraftManager::new();
    let spec = pure_spec();
    let cfg = HostConfig::default();
    for i in 0..INTERLEAVINGS {
        let seed = base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        check_one(&manager, &spec, tech, seed, cfg, pure_outcome);
    }
}

#[test]
fn non_trap_errors_count_as_failures_not_invocations() {
    // A direct invoke that fails without trapping is the framework's
    // fault: one marshal failure, no invocation, no ledger entry, the
    // same as the same failure inside a chain walk.
    let manager = GraftManager::new();
    let spec = flaky_spec();
    for i in 0..200u64 {
        let seed = 0xF1A4 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cfg = HostConfig::default();
        check_one(
            &manager,
            &spec,
            Technology::RustNative,
            seed,
            cfg,
            flaky_outcome,
        );
    }
}

#[test]
fn backoff_ladder_matches_the_model_on_every_technology() {
    // The default policy never auto-readmits (`backoff_base` 0), so the
    // default-policy suites above never climb the ladder. Here every
    // seed draws a short window and a low ban ceiling.
    const INTERLEAVINGS: u64 = 40;
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in ALL_TECHS {
        for i in 0..INTERLEAVINGS {
            let seed = 0xB0FF ^ (tech as u64) << 32 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            check_one(
                &manager,
                &spec,
                tech,
                seed,
                backoff_config(seed),
                pure_outcome,
            );
        }
    }
}

#[test]
fn sharded_matches_scalar_compiled_unchecked() {
    run_equivalence(Technology::CompiledUnchecked, 0xC0);
}

#[test]
fn sharded_matches_scalar_safe_compiled() {
    run_equivalence(Technology::SafeCompiled, 0x53);
}

#[test]
fn sharded_matches_scalar_sfi() {
    run_equivalence(Technology::Sfi, 0x5F1);
}

#[test]
fn sharded_matches_scalar_bytecode() {
    run_equivalence(Technology::Bytecode, 0xB1);
}

#[test]
fn sharded_matches_scalar_script() {
    run_equivalence(Technology::Script, 0x7C1);
}

#[test]
fn sharded_matches_scalar_rust_native() {
    run_equivalence(Technology::RustNative, 0x4A);
}

#[test]
fn sharded_matches_scalar_user_level() {
    run_equivalence(Technology::UserLevel, 0x0E);
}

#[test]
fn interleavings_replay_identically_from_the_same_seed() {
    // The harness is only as good as its reproducibility: the same
    // seed must replay the same program with the same observable
    // outcomes, or a CI failure could never be investigated.
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..32u64 {
        let seed = 0xD00D_F00D ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cfg = HostConfig::default();
        let first = check_one(
            &manager,
            &spec,
            Technology::SafeCompiled,
            seed,
            cfg,
            pure_outcome,
        );
        let again = check_one(
            &manager,
            &spec,
            Technology::SafeCompiled,
            seed,
            cfg,
            pure_outcome,
        );
        assert_eq!(first, again, "seed {seed:#x} did not replay");
    }
}

// ---------------------------------------------------------------------
// Fault injection: rng-scheduled saboteur on (shard, invocation) slots.
// ---------------------------------------------------------------------

#[test]
fn scheduled_saboteur_detach_propagates_to_every_shard() {
    const SHARDS: usize = 4;
    const ROUNDS: usize = 12;
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in ALL_TECHS {
        let mut rng = SmallRng::seed_from_u64(0xFA01_7000 + tech as u64);
        let mut host = ShardedHost::new(SHARDS);
        let threshold = host.config().trap_threshold as u64;
        let engine = manager.load(&spec, tech).expect("load saboteur");
        let id = host.install(POINT, "saboteur", engine).expect("install");
        let epoch_at_install = host.epoch();
        let mut vs = VirtualShards::new(&mut host, 0xBEEF);

        // The trap schedule: exactly `threshold` distinct
        // (shard, round) slots drawn from the seeded rng. Every other
        // slot dispatches clean arguments that decode to Continue, so
        // the chain keeps being consulted until the supervisor trips.
        let mut plan = [[false; ROUNDS]; SHARDS];
        let mut placed = 0;
        while placed < threshold {
            let s = rng.bounded_u64(SHARDS as u64) as usize;
            let k = rng.bounded_u64(ROUNDS as u64) as usize;
            if !plan[s][k] {
                plan[s][k] = true;
                placed += 1;
            }
        }

        let mut expected_invocations = 0u64;
        let mut expected_traps = 0u64;
        for k in 0..ROUNDS {
            for (s, shard_plan) in plan.iter().enumerate() {
                let live = !host.is_quarantined(id);
                let b = if shard_plan[k] { 0 } else { 1 };
                if live {
                    expected_invocations += 1;
                    if b == 0 {
                        expected_traps += 1;
                    }
                }
                let v = vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, b]));
                // (7 + 1) % 7 - 3 = -2: the graft always declines, so
                // every dispatch falls through to the kernel default.
                assert_eq!(v, Verdict::Continue, "{tech} shard {s} round {k}");
            }
        }

        // The third scheduled trap detached the graft — globally.
        assert!(host.is_quarantined(id), "{tech}: saboteur still attached");
        assert_eq!(expected_traps, threshold, "{tech}: schedule under-fired");
        let detach = host.detach_epoch(id).expect("detach epoch");
        assert!(
            detach >= epoch_at_install && detach <= host.epoch(),
            "{tech}: detach epoch {detach} outside [{epoch_at_install}, {}]",
            host.epoch()
        );

        // Ledger totals match the deterministic schedule exactly.
        vs.flush_all();
        let ledger = host.ledger(id).expect("ledger");
        assert_eq!(ledger.traps, threshold, "{tech}");
        assert_eq!(ledger.invocations, expected_invocations, "{tech}");

        // No post-detach invocation on *any* shard: more dispatches
        // leave the ledger untouched and the active chain empty.
        for s in 0..SHARDS {
            for _ in 0..3 {
                let v = vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, 1]));
                assert_eq!(v, Verdict::Continue, "{tech} shard {s}");
            }
            assert_eq!(vs.shard_mut(s).active_len(POINT), 0, "{tech} shard {s}");
        }
        vs.flush_all();
        assert_eq!(
            host.ledger(id).expect("ledger").invocations,
            expected_invocations,
            "{tech}: a detached graft was invoked"
        );

        // Re-invoking the detached graft refuses deterministically on
        // every shard, with the same message everywhere, and the
        // refusal is never charged to the ledger.
        let mut messages = Vec::new();
        for s in 0..SHARDS {
            let e1 = vs.shard_mut(s).invoke(id, &[1, 1]).unwrap_err();
            let e2 = vs.shard_mut(s).invoke(id, &[1, 1]).unwrap_err();
            assert!(
                matches!(&e1, GraftError::Unavailable { .. }),
                "{tech} shard {s}: {e1}"
            );
            assert_eq!(e1.to_string(), e2.to_string(), "{tech} shard {s}");
            messages.push(e1.to_string());
        }
        messages.dedup();
        assert_eq!(messages.len(), 1, "{tech}: refusals differ across shards");
        vs.flush_all();
        assert_eq!(
            host.ledger(id).expect("ledger").invocations,
            expected_invocations,
            "{tech}: refusal charged the ledger"
        );
    }
}

#[test]
fn scheduled_saboteur_replays_identically() {
    // Same seed, same schedule, same detach point: run the scheduled
    // saboteur twice and compare where the supervisor tripped.
    let manager = GraftManager::new();
    let spec = pure_spec();
    let run = |seed: u64| -> (u64, u64) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut host = ShardedHost::new(3);
        let id = host
            .install(
                POINT,
                "saboteur",
                manager.load(&spec, Technology::Bytecode).unwrap(),
            )
            .unwrap();
        let mut vs = VirtualShards::new(&mut host, seed);
        let mut step = 0u64;
        let mut tripped_at = 0u64;
        while !host.is_quarantined(id) {
            step += 1;
            let b = i64::from(rng.bounded_u64(3) != 0);
            vs.dispatch(POINT, |_| Ok(vec![7, b]));
            tripped_at = step;
            assert!(step < 10_000, "saboteur never tripped");
        }
        vs.flush_all();
        (tripped_at, host.ledger(id).unwrap().invocations)
    };
    for seed in [1u64, 0xFEED, 0x1234_5678] {
        assert_eq!(run(seed), run(seed), "seed {seed:#x}");
    }
}

// ---------------------------------------------------------------------
// Flight-recorder properties: the merged cross-shard timeline is
// causally ordered and semantically identical to the scalar host's
// event stream over the same operation sequence.
// ---------------------------------------------------------------------

/// Arms the flight recorder. The toggles are process-global, so every
/// trace test arms and none disarms — harmless for the rest of this
/// binary (the equivalence properties read ledgers and stats, which
/// are host state, not telemetry).
fn arm_recorder() -> bool {
    graftbench::telemetry::set_enabled(true);
    graftbench::telemetry::set_tracing(true);
    // False in a noop-telemetry build: nothing to assert there.
    graftbench::telemetry::tracing()
}

#[test]
fn merged_timeline_is_causally_ordered_per_trace() {
    if !arm_recorder() {
        return;
    }
    let manager = GraftManager::new();
    let spec = pure_spec();
    for seed in [0x7EA5u64, 0xACE0_FBA5u64, 0x5EED_CAFEu64] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut host = ShardedHost::new(4);
        let front = manager.load(&spec, Technology::SafeCompiled).expect("load");
        let back = manager.load(&spec, Technology::Bytecode).expect("load");
        host.install(POINT, "front", front).expect("install");
        host.install(POINT, "back", back).expect("install");
        let mut vs = VirtualShards::new(&mut host, seed);
        for _ in 0..48 {
            let a = rng.bounded_u64(100) as i64;
            let b = 1 + rng.bounded_u64(3) as i64; // never traps
            vs.dispatch(POINT, |_| Ok(vec![a, b]));
        }
        let merged = vs.merged_timeline();
        assert!(!merged.is_empty(), "recorder armed but timeline empty");

        // Total order: strictly ascending (ts, trace, seq) keys, so the
        // merge is deterministic and duplicate-free.
        for w in merged.windows(2) {
            assert!(
                w[0].key() < w[1].key(),
                "timeline out of order: {:?} then {:?}",
                w[0],
                w[1]
            );
        }

        // Per-trace happens-before: in timeline order every trace's
        // seqs read 0, 1, ... with no gaps, and one dispatch's events
        // never span shards (the chain runs where the dispatch landed).
        use std::collections::HashMap;
        let mut next_seq: HashMap<u64, u32> = HashMap::new();
        let mut shard_of: HashMap<u64, u32> = HashMap::new();
        for e in &merged {
            let want = next_seq.entry(e.trace.0).or_insert(0);
            assert_eq!(e.seq, *want, "trace {:#x} skipped a seq", e.trace.0);
            *want += 1;
            let s = shard_of.entry(e.trace.0).or_insert(e.shard);
            assert_eq!(*s, e.shard, "trace {:#x} spans shards", e.trace.0);
        }
        // A two-graft chain yields one or two events per dispatch: two
        // when the front graft declines, one when it overrides and the
        // walk stops.
        assert!(
            next_seq.values().all(|&n| (1..=2).contains(&n)),
            "seed {seed:#x}: trace lengths {:?}",
            next_seq.values().collect::<Vec<_>>()
        );
    }
}

#[test]
fn merged_timeline_matches_the_scalar_event_stream() {
    if !arm_recorder() {
        return;
    }
    let manager = GraftManager::new();
    let spec = pure_spec();
    for seed in [1u64, 0xBEEF, 0x1234_5678] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut single = GraftHost::new();
        let mut sharded = ShardedHost::new(4);
        let e1 = manager.load(&spec, Technology::SafeCompiled).expect("load");
        let e2 = manager.load(&spec, Technology::SafeCompiled).expect("load");
        single.install(POINT, "pure", e1).expect("install");
        sharded.install(POINT, "pure", e2).expect("install");
        let mut vs = VirtualShards::new(&mut sharded, seed);
        for _ in 0..40 {
            let a = rng.bounded_u64(1000) as i64;
            let b = rng.bounded_u64(4) as i64; // b == 0 traps
            let v1 = single.dispatch(POINT, |_| Ok(vec![a, b]));
            let v2 = vs.dispatch(POINT, |_| Ok(vec![a, b]));
            assert_eq!(v1, v2, "verdict parity, seed {seed:#x}");
        }
        single.flush();
        vs.flush_all();
        // Same dispatches, same chain, same traps: the merged sharded
        // timeline carries exactly the scalar host's event sequence —
        // (point, tech, verdict, value) for every invocation, in the
        // same order (trace ids and shard stamps legitimately differ).
        let scalar: Vec<_> = single
            .trace_events()
            .iter()
            .map(|e| e.semantics())
            .collect();
        let merged: Vec<_> = vs.merged_timeline().iter().map(|e| e.semantics()).collect();
        assert!(
            !scalar.is_empty(),
            "seed {seed:#x}: scalar recorded nothing"
        );
        assert_eq!(scalar, merged, "event streams diverge, seed {seed:#x}");
    }
}

#[test]
fn one_fuel_exhaustion_detaches_globally() {
    // FuelExhausted is a single-strike offence: one preempted
    // invocation on one shard detaches the graft everywhere, even
    // though the trap threshold has not been reached.
    let cfg = HostConfig {
        fuel_budget: Some(20_000),
        ..HostConfig::default()
    };
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in [
        Technology::SafeCompiled,
        Technology::Sfi,
        Technology::Bytecode,
        Technology::Script,
    ] {
        let mut host = ShardedHost::with_config(4, cfg);
        let engine = manager.load(&spec, tech).expect("load");
        let id = host.install(POINT, "spinner", engine).expect("install");
        let mut vs = VirtualShards::new(&mut host, 0x10E1);

        // A clean dispatch on every shard first: all attached.
        for s in 0..4 {
            vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, 1]));
            assert_eq!(vs.shard_mut(s).active_len(POINT), 1, "{tech} shard {s}");
        }
        assert!(!host.is_quarantined(id), "{tech}");

        // One runaway invocation on shard 2.
        let v = vs.shard_mut(2).dispatch(POINT, |_| Ok(vec![7, -1]));
        assert_eq!(v, Verdict::Continue, "{tech}");
        assert!(host.is_quarantined(id), "{tech}: fuel trap did not detach");

        // Every shard observes the detach at its very next dispatch.
        for s in 0..4 {
            vs.shard_mut(s).dispatch(POINT, |_| Ok(vec![7, 1]));
            assert_eq!(vs.shard_mut(s).active_len(POINT), 0, "{tech} shard {s}");
        }
        vs.flush_all();
        let ledger = host.ledger(id).expect("ledger");
        assert_eq!(ledger.traps, 1, "{tech}");
        assert_eq!(ledger.invocations, 5, "{tech}");
    }
}

// ---------------------------------------------------------------------
// Adaptive dispatch plane: work-stealing interleavings replayed against
// the scalar host. The sharded run drives a keyed trace through
// [`RunQueues`] with stealing on, recording the order items actually
// completed (home drains, diversions, and steals included); the scalar
// host then replays the identical items in that completion order, one
// dispatch each. Verdict-for-verdict equality plus ledger, lifecycle,
// and postmortem parity proves a stolen dispatch is charged exactly
// once and quarantine semantics survive cross-shard handoff.
// ---------------------------------------------------------------------

/// One stealing interleaving under policy `cfg` against the scalar and
/// model replays. Returns the replay trace so determinism can be
/// asserted over repeated runs.
fn check_one_stealing(
    manager: &GraftManager,
    spec: &GraftSpec,
    tech: Technology,
    seed: u64,
    cfg: HostConfig,
) -> Vec<i64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    let shards = 2 + rng.bounded_u64(3) as usize; // stealing needs a peer
    let mut sharded = ShardedHost::with_config(shards, cfg);
    let engine = manager.load(spec, tech).expect("sharded load");
    let id = sharded.install(POINT, "pure", engine).expect("install");
    let q: RunQueues<(i64, i64)> = sharded.run_queues(StealPolicy::default());
    let mut vs = VirtualShards::new(&mut sharded, seed ^ 0x57EA_1000);
    let ctx = format!("{tech} seed {seed:#x}");

    // A keyed trace over a small hot key space: half the items hit one
    // hot key, so the plane genuinely diverts and steals; `b == 0`
    // traps, so some seeds quarantine the graft mid-trace (including
    // mid-steal, when the trapping item was pulled from another
    // shard's queue).
    let total = 24 + rng.bounded_u64(40) as usize;
    let mut submitted = 0usize;
    let mut order: Vec<((i64, i64), Verdict)> = Vec::new();
    let to_args = |&(a, b): &(i64, i64)| vec![a, b];
    while submitted < total || q.total_depth() > 0 {
        if submitted < total && rng.bounded_u64(3) != 0 {
            let key = if rng.bounded_u64(2) == 0 {
                0
            } else {
                rng.bounded_u64(8)
            };
            let a = rng.bounded_u64(1000) as i64;
            let b = if rng.bounded_u64(24) == 0 {
                0 // div-by-zero trap
            } else {
                1 + rng.bounded_u64(3) as i64
            };
            if sharded.enqueue(&q, key, Some(id), (a, b)).is_ok() {
                submitted += 1;
                continue;
            }
            // Backpressure: fall through to a drain.
        }
        vs.drive_queue_with(&q, POINT, to_args, |w, v| order.push((w.payload, v)));
    }
    vs.flush_all();
    assert_eq!(order.len(), total, "plane lost or duplicated items, {ctx}");

    // Scalar and model replays in the sharded plane's completion order.
    let mut single = GraftHost::with_config(cfg);
    let sid = single
        .install(
            POINT,
            "pure",
            manager.load(spec, tech).expect("scalar load"),
        )
        .expect("install");
    let mut model = Model::new(cfg, pure_outcome);
    let mid = model.install(false);
    let mut trace = vec![shards as i64];
    for (i, ((a, b), sharded_verdict)) in order.iter().enumerate() {
        let v = single.dispatch(POINT, |_| Ok(vec![*a, *b]));
        assert_eq!(v, *sharded_verdict, "verdict {i}/{total}, {ctx}");
        assert_eq!(
            v,
            model.dispatch(true, *a, *b),
            "model verdict {i}/{total}, {ctx}"
        );
        trace.push(encode_verdict(v));
    }
    let mg = model.graft(mid).expect("model graft");
    assert_ledger(single.ledger(sid).expect("scalar ledger"), mg, &ctx);
    assert_eq!(single.state(sid), Some(mg.state), "model state, {ctx}");
    assert_eq!(
        single.stats().dispatches,
        model.stats.dispatches,
        "model dispatches, {ctx}"
    );
    assert_eq!(sharded.stats(), model.stats, "model stats, {ctx}");

    // Ledger parity: every stolen dispatch charged exactly once.
    let l1 = *single.ledger(sid).expect("scalar ledger");
    let l2 = sharded.ledger(id).expect("sharded ledger");
    assert_eq!(l1.invocations, l2.invocations, "invocations, {ctx}");
    assert_eq!(l1.traps, l2.traps, "traps, {ctx}");
    assert_eq!(l1.fuel_used, l2.fuel_used, "fuel, {ctx}");
    assert_eq!(l1.trap_counts, l2.trap_counts, "trap kinds, {ctx}");
    trace.push(l1.invocations as i64);
    trace.push(l1.traps as i64);

    // Lifecycle parity: a trace with >= 3 traps quarantined both hosts
    // at the same completion index, or neither.
    assert_eq!(single.state(sid), sharded.state(id), "state, {ctx}");
    assert_eq!(
        single.is_quarantined(sid),
        sharded.is_quarantined(id),
        "quarantine, {ctx}"
    );

    // Postmortem parity, tail included: same reason, same strike count,
    // same frozen ledger, and the fatal event at the end of the tail
    // carries the same semantics. The sharded report additionally names
    // the shard that tripped the supervisor — which, mid-steal, is the
    // thief, not the item's home.
    let pm2 = sharded.take_postmortems();
    let pm1 = single.postmortems();
    assert_eq!(pm1.len(), pm2.len(), "postmortem count, {ctx}");
    assert_eq!(pm1.len(), model.trips.len(), "model trips, {ctx}");
    for ((x, y), &(reason, strikes)) in pm1.iter().zip(&pm2).zip(&model.trips) {
        assert_eq!(x.reason, y.reason, "postmortem reason, {ctx}");
        assert_eq!(x.strikes, y.strikes, "postmortem strikes, {ctx}");
        assert_eq!(
            (x.reason, x.strikes),
            (reason, strikes),
            "model trip, {ctx}"
        );
        // The sharded report freezes the *detaching shard's* local
        // ledger: it saw at least the fatal strike, never more than
        // the scalar (global) total — strikes on other shards merge at
        // flush time, after the report is cut.
        assert!(
            (1..=x.ledger.traps).contains(&y.ledger.traps),
            "postmortem ledger traps {} outside [1, {}], {ctx}",
            y.ledger.traps,
            x.ledger.traps
        );
        assert!(
            y.shard.is_some(),
            "sharded postmortem lost its shard, {ctx}"
        );
        if let (Some(ex), Some(ey)) = (x.events.last(), y.events.last()) {
            assert_eq!(
                ex.semantics(),
                ey.semantics(),
                "postmortem tail diverges, {ctx}"
            );
        }
        trace.push(i64::from(x.strikes));
    }
    trace
}

/// >= 200 seeded stealing interleavings for one technology.
fn run_steal_equivalence(tech: Technology, base_seed: u64) {
    const INTERLEAVINGS: usize = 200;
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..INTERLEAVINGS {
        let seed = base_seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        check_one_stealing(&manager, &spec, tech, seed, HostConfig::default());
    }
}

#[test]
fn stealing_backoff_ladder_matches_the_model() {
    // Stolen and fused dispatches must tick the backoff window and
    // climb to the ban exactly like scalar ones.
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in [
        Technology::SafeCompiled,
        Technology::Bytecode,
        Technology::RustNative,
    ] {
        for i in 0..40u64 {
            let seed = 0x5BAC ^ (tech as u64) << 32 ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            check_one_stealing(&manager, &spec, tech, seed, backoff_config(seed));
        }
    }
}

#[test]
fn stealing_matches_scalar_compiled_unchecked() {
    run_steal_equivalence(Technology::CompiledUnchecked, 0x5C0);
}

#[test]
fn stealing_matches_scalar_safe_compiled() {
    run_steal_equivalence(Technology::SafeCompiled, 0x553);
}

#[test]
fn stealing_matches_scalar_sfi() {
    run_steal_equivalence(Technology::Sfi, 0x55F1);
}

#[test]
fn stealing_matches_scalar_bytecode() {
    run_steal_equivalence(Technology::Bytecode, 0x5B1);
}

#[test]
fn stealing_matches_scalar_script() {
    run_steal_equivalence(Technology::Script, 0x57C1);
}

#[test]
fn stealing_matches_scalar_rust_native() {
    run_steal_equivalence(Technology::RustNative, 0x54A);
}

#[test]
fn stealing_matches_scalar_user_level() {
    run_steal_equivalence(Technology::UserLevel, 0x50E);
}

#[test]
fn stealing_interleavings_replay_identically_from_the_same_seed() {
    let manager = GraftManager::new();
    let spec = pure_spec();
    for i in 0..16u64 {
        let seed = 0x57EA_D00D ^ i.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let cfg = HostConfig::default();
        let first = check_one_stealing(&manager, &spec, Technology::Bytecode, seed, cfg);
        let again = check_one_stealing(&manager, &spec, Technology::Bytecode, seed, cfg);
        assert_eq!(first, again, "seed {seed:#x} did not replay");
    }
}

#[test]
fn saboteur_quarantined_mid_steal_names_the_thief_and_counts_once() {
    // All work homes on one shard; the trapping items sit in the back
    // half of its queue — exactly the slice a thief steals. The
    // supervisor must trip on the thief (the postmortem names it), the
    // strikes must count exactly once despite the cross-shard handoff,
    // and the scalar replay of the completion order must agree verdict
    // for verdict.
    let manager = GraftManager::new();
    let spec = pure_spec();
    for tech in [
        Technology::SafeCompiled,
        Technology::Bytecode,
        Technology::RustNative,
    ] {
        let mut host = ShardedHost::new(2);
        let threshold = host.config().trap_threshold as u64;
        let id = host
            .install(POINT, "saboteur", manager.load(&spec, tech).expect("load"))
            .expect("install");
        let q: RunQueues<(i64, i64)> = host.run_queues(StealPolicy::default());
        let home = q.home(0);
        let thief = 1 - home;
        // Ten items keyed to the home shard: seven clean, then
        // `threshold` trapping ones at the back. A steal takes the back
        // half (five items), which contains every trap.
        for i in 0..10u64 {
            let b = if i >= 10 - threshold { 0 } else { 1 };
            host.enqueue(&q, 0, Some(id), (7i64, b)).expect("room");
        }
        let mut vs = VirtualShards::new(&mut host, 0x7EEF);
        let to_args = |&(a, b): &(i64, i64)| vec![a, b];
        let mut order: Vec<((i64, i64), Verdict)> = Vec::new();
        let stolen = vs
            .shard_mut(thief)
            .drain_queue_with(&q, POINT, to_args, |w, v| {
                order.push((w.payload, v));
            });
        assert_eq!(stolen, 5, "{tech}: thief did not steal the back half");
        assert!(host.is_quarantined(id), "{tech}: saboteur survived");
        // The home shard mops up its remaining front half against a
        // detached chain.
        let mut rest = 0;
        while q.total_depth() > 0 {
            rest += vs
                .shard_mut(home)
                .drain_queue_with(&q, POINT, to_args, |w, v| {
                    order.push((w.payload, v));
                });
        }
        assert_eq!(rest, 5, "{tech}: home lost its front half");
        vs.flush_all();

        let ledger = host.ledger(id).expect("ledger");
        assert_eq!(ledger.traps, threshold, "{tech}: strikes double-counted");
        assert_eq!(ledger.invocations, 5, "{tech}: stolen batch miscounted");
        let pm = host.take_postmortems();
        assert_eq!(pm.len(), 1, "{tech}");
        assert_eq!(
            pm[0].shard,
            Some(thief as u32),
            "{tech}: wrong shard blamed"
        );
        assert_eq!(pm[0].strikes as u64, threshold, "{tech}");

        // Scalar replay in completion order.
        let mut single = GraftHost::new();
        let sid = single
            .install(POINT, "saboteur", manager.load(&spec, tech).expect("load"))
            .expect("install");
        for (i, ((a, b), sharded_verdict)) in order.iter().enumerate() {
            let v = single.dispatch(POINT, |_| Ok(vec![*a, *b]));
            assert_eq!(v, *sharded_verdict, "{tech}: verdict {i}");
        }
        let l1 = single.ledger(sid).expect("scalar ledger");
        assert_eq!(l1.traps, ledger.traps, "{tech}");
        assert_eq!(l1.invocations, ledger.invocations, "{tech}");
        assert!(single.is_quarantined(sid), "{tech}");
    }
}
