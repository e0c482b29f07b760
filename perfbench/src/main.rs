//! End-to-end and per-layer benchmark of the CBI pipeline.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fleet|ingest|triage|all --seed N --seconds S --trace 0|1
//! ```
//!
//! Each workload runs in a process of its own (`all` starts one child
//! per workload).  With `--trace 0` a run reports the end-to-end
//! metrics; with `--trace 1` it replays every stage under the
//! benchmark's spans with program telemetry on and reports the
//! per-layer metrics.  Either way the last line of standard output is
//! one JSON object, and the exit code is non-zero if a correctness check
//! failed.  Journal and trace files go to `.perfbench/` under the
//! working directory.

mod layers;
mod report;
mod stages;
mod stats;
mod trace;
mod workloads;

use layers::{Counts, Pass};
use report::{Pick, RunReport};
use stages::StageResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};
use trace::Tracer;
use workloads::{Fleet, Ingest, Triage, Workload};

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Where journals and traces are written, under the working directory.
const WORK_DIR: &str = ".perfbench";
const WORKLOADS: [&str; 3] = ["fleet", "ingest", "triage"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = |v: &str| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag} takes a whole number, got {v:?}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(number(&value)?),
            "--seconds" => seconds = Some(number(&value)?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; expected one of {WORKLOADS:?} or all"
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
fn peak_rss_mib() -> StageResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("read /proc/self/status: {e}"))?;
    let kib = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// The end-to-end run: set up [`SETUPS`] times, then alternate main
/// iterations with probes of the other stages (keeping each to its share
/// of the time) until the seconds are spent, then check.
fn end_to_end<W: Workload>(
    args: &Args,
    started: Instant,
    work_dir: &Path,
) -> StageResult<RunReport> {
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut workload = None;
    for k in 0..SETUPS {
        drop(workload.take());
        // The first set-up counts from process start.
        let start = if k == 0 { started } else { Instant::now() };
        workload = Some(W::setup(args.seed, work_dir)?);
        setup_s.push(start.elapsed().as_secs_f64());
    }
    let mut w = workload.expect("at least one set-up");
    let budget = Duration::from_secs(args.seconds);
    let probe_per_main = (1.0 - W::MAIN_SHARE) / W::MAIN_SHARE;
    let mut tracer = Tracer::new(false);
    let mut counts = Counts::new();
    let (mut main_s, mut probe_s, mut cycles) = (0.0, 0.0, 0u32);
    let start = Instant::now();
    // Stop before a cycle of the average length would overrun the budget.
    while cycles == 0 || start.elapsed() + start.elapsed() / cycles <= budget {
        let t = Instant::now();
        w.iteration(&mut tracer, &mut counts)?;
        main_s += t.elapsed().as_secs_f64();
        while probe_s == 0.0 || probe_s < main_s * probe_per_main {
            let t = Instant::now();
            w.probe()?;
            probe_s += t.elapsed().as_secs_f64();
        }
        cycles += 1;
    }
    let mut report = RunReport::default();
    report.samples("setup_s", "s", &setup_s, Pick::Median);
    w.report(&mut report);
    report.value("peak_rss_mib", "MiB", peak_rss_mib()?);
    w.checks(&mut report)?;
    Ok(report)
}

/// The traced run: two traced passes (main iteration plus the per-stage
/// replay), the counter-repeat self-check, and the tracing overhead.
fn traced<W: Workload>(args: &Args, name: &str, work_dir: &Path) -> StageResult<RunReport> {
    let start = Instant::now();
    let mut w = W::setup(args.seed, work_dir)?;
    let mut passes = Vec::with_capacity(2);
    let mut first_trace = None;
    for _ in 0..2 {
        let mut tracer = Tracer::new(true);
        let mut counts = Counts::new();
        let ((), telemetry) = layers::with_telemetry(|| {
            w.iteration(&mut tracer, &mut counts)?;
            layers::replay(&w.layer_input(), &mut tracer, &mut counts, work_dir)
        })?;
        let input = w.layer_input();
        let fleet = if input.covered.fleet {
            telemetry.clone()
        } else {
            layers::with_telemetry(|| layers::fleet_replay(&input))?.1
        };
        passes.push(Pass::new(&tracer, telemetry, fleet, counts));
        first_trace.get_or_insert(tracer);
    }

    // Tracing overhead: the main iteration untraced and traced, alternately.
    let budget = Duration::from_secs(args.seconds);
    let (mut off, mut on) = (Vec::new(), Vec::new());
    while on.is_empty() || start.elapsed() < budget {
        let mut counts = Counts::new();
        let t = Instant::now();
        w.iteration(&mut Tracer::new(false), &mut counts)?;
        off.push(t.elapsed().as_secs_f64());
        let mut tracer = Tracer::new(true);
        let (elapsed, _) = layers::with_telemetry(|| {
            let t = Instant::now();
            w.iteration(&mut tracer, &mut counts)?;
            Ok(t.elapsed().as_secs_f64())
        })?;
        on.push(elapsed);
    }
    let fastest = |v: &[f64]| v.iter().copied().fold(f64::INFINITY, f64::min);
    let overhead_pct = (fastest(&on) / fastest(&off) - 1.0) * 100.0;

    let mut report = RunReport::default();
    layers::report_layers(&mut report, &passes[0], &passes[1], overhead_pct);
    let a = passes[0].repeat_counters();
    let b = passes[1].repeat_counters();
    report.check(
        format!(
            "counter repeat: two traced passes at seed {} give identical counters",
            args.seed
        ),
        a == b,
    );
    if a != b {
        report.note(format!("counter repeat: first {a:?}, second {b:?}"));
    }
    w.checks(&mut report)?;
    let path = work_dir.join(format!("trace-{name}-seed{}.jsonl", args.seed));
    let file = std::fs::File::create(&path).map_err(stages::ctx("create trace file"))?;
    first_trace
        .expect("two passes ran")
        .write_jsonl(std::io::BufWriter::new(file))
        .map_err(stages::ctx("write trace file"))?;
    report.note(format!(
        "spans of the first traced pass: {}",
        path.display()
    ));
    Ok(report)
}

fn run_one(args: &Args, started: Instant) -> StageResult<RunReport> {
    let work_dir = PathBuf::from(WORK_DIR);
    std::fs::create_dir_all(&work_dir).map_err(stages::ctx("create .perfbench"))?;
    match (args.workload.as_str(), args.trace) {
        ("fleet", false) => end_to_end::<Fleet>(args, started, &work_dir),
        ("ingest", false) => end_to_end::<Ingest>(args, started, &work_dir),
        ("triage", false) => end_to_end::<Triage>(args, started, &work_dir),
        ("fleet", true) => traced::<Fleet>(args, "fleet", &work_dir),
        ("ingest", true) => traced::<Ingest>(args, "ingest", &work_dir),
        ("triage", true) => traced::<Triage>(args, "triage", &work_dir),
        _ => unreachable!("workload names are validated"),
    }
}

/// Runs every workload in a child process of its own, forwarding its
/// output; fails if any child does.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("perfbench: cannot find own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut failed = Vec::new();
    for name in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", name])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status();
        if !status.is_ok_and(|s| s.success()) {
            failed.push(name);
        }
    }
    if failed.is_empty() {
        println!("all workloads passed their checks");
        ExitCode::SUCCESS
    } else {
        println!("workloads failing: {failed:?}");
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload fleet|ingest|triage|all --seed N \
                 [--seconds S] [--trace 0|1]"
            );
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    match run_one(&args, started) {
        Ok(report) => {
            print!("{}", report.render(&args.workload, args.trace));
            println!("{}", report.json());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {} failed: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}
