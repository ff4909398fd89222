//! graftperf: graftbench's wall-clock benchmark.
//!
//! ```text
//! cargo run --release --manifest-path graftperf/Cargo.toml -- \
//!     --workload skewed --seed 1 --seconds 45 --trace 0
//! ```
//!
//! One run sets everything up (several times; `setup_s` is the median),
//! then measures three phases — the paper's grafts per technology,
//! open-loop serving, and durable-log writes beside restores — in
//! interleaved slices, and prints one JSON result line last. See
//! README.md.

mod durable;
mod gen;
mod oracle;
mod paper;
mod report;
mod serve;
mod stats;
mod trace;

use std::process::ExitCode;
use std::time::{Duration, Instant};

use gen::Spread;
use report::Report;
use trace::Tracer;

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;

struct Args {
    spread: Spread,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let spread = match workload.as_deref() {
        Some("skewed") => Spread::Skewed,
        Some("uniform") => Spread::Uniform,
        Some(w) => return Err(format!("unknown workload {w} (skewed, uniform)")),
        None => return Err("--workload is required".into()),
    };
    let seconds = seconds.unwrap_or(45);
    if seconds == 0 {
        return Err("--seconds must be positive".into());
    }
    Ok(Args {
        spread,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Everything built before the first timed op.
struct Rig {
    paper: paper::Paper,
    serve: serve::Serve,
    durable: durable::Durable,
}

/// Each phase is measured in this many slices, interleaved with the
/// others, so every phase samples the host's quiet and busy spells
/// over the whole run.
const CYCLES: u32 = 16;

/// Shares of `--seconds` per slice: paper grafts 40% of the run, the
/// fixed-rate serving window and the durable log 10% each. Every other
/// serving slice also climbs the ladder once (about 2 s, the other 40%
/// of the run).
fn slices(args: &Args) -> (Duration, Duration, Duration) {
    let unit = Duration::from_secs(args.seconds) / (40 * CYCLES);
    (unit * 16, unit * 4, unit * 4)
}

fn setup(args: &Args) -> Result<Rig, String> {
    let err = |e: &dyn std::fmt::Display| e.to_string();
    Ok(Rig {
        paper: paper::setup(args.seed, args.spread).map_err(|e| err(&e))?,
        serve: serve::setup(args.seed, args.spread, CYCLES as usize, slices(args).1)?,
        durable: durable::setup(args.seed, args.spread),
    })
}

fn run(args: &Args) -> Result<Report, String> {
    if !oracle::md5_reference_ok() {
        return Err("reference MD5 fails the RFC 1321 vectors".into());
    }
    // The program's own telemetry and flight recorder stay off: the
    // benchmark's spans are its only instrumentation.
    graft_telemetry::set_enabled(false);
    graft_telemetry::set_tracing(false);

    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut rig = None;
    for _ in 0..SETUPS {
        drop(rig.take());
        let t = Instant::now();
        rig = Some(setup(args)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let mut rig = rig.expect("at least one set-up");
    let mut report = Report::default();
    report.e2e("setup_s", stats::median(&stats::sorted(&setup_s)), "s");

    let (paper_slice, _, durable_slice) = slices(args);
    let mut tracer = Tracer::new(false);
    serve::warm_up(&mut rig.serve, &mut tracer);
    for cycle in 0..CYCLES {
        paper::run_slice(&mut rig.paper, paper_slice, args.trace, &mut tracer);
        let climb = cycle % 2 == 1;
        serve::run_slice(&mut rig.serve, climb, args.trace, &mut tracer);
        durable::run_slice(&mut rig.durable, durable_slice, args.trace, &mut tracer);
    }
    let (paper, serve, durable) = (
        paper::finish(&mut rig.paper, args.trace, &tracer),
        serve::finish(&mut rig.serve, args.trace, &tracer),
        durable::finish(&mut rig.durable, args.trace, &tracer),
    );
    report.absorb("paper-grafts", paper);
    report.absorb("serve-open", serve);
    report.absorb("durable-log", durable);
    if args.trace {
        write_spans(&tracer);
    }
    Ok(report)
}

/// Writes the spans next to the build output once the run is over.
fn write_spans(tracer: &Tracer) {
    let dir = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "graftperf/target".into());
    let path = std::path::Path::new(&dir).join("graftperf-spans.tsv");
    let written = std::fs::create_dir_all(&dir).and_then(|()| std::fs::write(&path, tracer.dump()));
    match written {
        Ok(()) => eprintln!("spans: {} ({} spans)", path.display(), tracer.spans().len()),
        Err(e) => eprintln!("spans not written to {}: {e}", path.display()),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("graftperf: {e}");
            return ExitCode::from(2);
        }
    };
    let report = match run(&args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("graftperf: {e}");
            return ExitCode::FAILURE;
        }
    };
    for note in &report.notes {
        println!("# {note}");
    }
    let metrics = if args.trace {
        &report.layer
    } else {
        &report.e2e
    };
    println!(
        "{}",
        report::result_json(report.failed == 0, report.attempted, report.failed, metrics)
    );
    ExitCode::SUCCESS
}
