//! Campaign driver: instrument once, run many randomized trials, emit
//! reports into a sink — the client half of the deployment loop of §1.
//!
//! The driver is built for throughput (§2.5 contemplates millions of
//! runs): the program is lowered to slot form once and shared by every
//! trial, trial inputs are borrowed rather than cloned, each worker
//! reseeds one countdown bank instead of allocating a fresh one per run,
//! and trials shard across `jobs` scoped threads.  Because trial `i` is
//! fully determined by `(program, trials[i], seed + i)`, workers fill
//! private report buffers over contiguous trial ranges and the driver
//! drains them in run-id order — the emitted sequence is bit-identical
//! to serial execution at any job count.
//!
//! Collection policy is a parameter: [`run_campaign_into`] feeds any
//! [`ReportSink`] — an in-memory [`Collector`], a spool file, a live
//! socket, or a streaming analyzer.  With `jobs <= 1` each report goes
//! straight from the VM into the sink with no intermediate buffering, so
//! memory use is bounded by the sink, not the trial count.

use crate::WorkloadError;
use cbi_instrument::{
    apply_sampling, instrument, Instrumented, Scheme, SiteTable, TransformOptions,
};
use cbi_minic::Program;
use cbi_reports::{Collector, Label, Report, ReportLayout, ReportSink};
use cbi_sampler::{LazyBank, SamplingDensity};
use cbi_telemetry as telemetry;
use cbi_vm::{bytecode::BcProgram, Engine, RunOutcome, Vm};
use std::borrow::Cow;

/// Configuration of one report-collection campaign.
#[derive(Debug, Clone, Copy)]
pub struct CampaignConfig {
    /// Which observations to instrument.
    pub scheme: Scheme,
    /// Sampling transformation options.
    pub transform: TransformOptions,
    /// Sampling density, or `None` to run unconditional instrumentation.
    pub density: Option<SamplingDensity>,
    /// Pre-generated countdown bank size per run (§3.1.1 uses 1024).
    pub bank_size: usize,
    /// Master seed for per-run countdown banks.
    pub seed: u64,
    /// Per-run operation budget.
    pub op_limit: u64,
    /// Heap slack per allocation (overrun tolerance).
    pub heap_slack: usize,
    /// Worker threads to shard trials over (`0` and `1` both mean
    /// serial).  Any value produces bit-identical results.
    pub jobs: usize,
    /// Interpreter engine for every trial.  The default is
    /// [`Engine::Bytecode`] — the program is compiled once and every run
    /// executes straight-line instructions; both engines produce
    /// bit-identical reports, so this is purely a throughput knob.
    pub engine: Engine,
}

impl CampaignConfig {
    /// A sampled campaign at the given density with sensible defaults.
    pub fn sampled(scheme: Scheme, density: SamplingDensity) -> Self {
        CampaignConfig {
            scheme,
            transform: TransformOptions::default(),
            density: Some(density),
            bank_size: 1024,
            seed: 0x5eed,
            op_limit: cbi_vm::DEFAULT_OP_LIMIT,
            heap_slack: cbi_vm::heap::DEFAULT_SLACK,
            jobs: 1,
            engine: Engine::Bytecode,
        }
    }

    /// The same campaign sharded over `jobs` worker threads.
    pub fn with_jobs(self, jobs: usize) -> Self {
        CampaignConfig { jobs, ..self }
    }

    /// The same campaign executed by `engine`.
    pub fn with_engine(self, engine: Engine) -> Self {
        CampaignConfig { engine, ..self }
    }

    /// An unconditional-instrumentation campaign.
    pub fn unconditional(scheme: Scheme) -> Self {
        CampaignConfig {
            density: None,
            ..CampaignConfig::sampled(scheme, SamplingDensity::always())
        }
    }
}

/// The outcome of a campaign.
#[derive(Debug)]
pub struct CampaignResult {
    /// The instrumented program and its site table.
    pub instrumented: Instrumented,
    /// The collected reports.
    pub collector: Collector,
    /// Runs dropped because they exhausted the operation budget.
    pub dropped: usize,
}

impl CampaignResult {
    /// Site `(counter_base, arity)` groups, as the elimination strategies
    /// expect them.
    pub fn site_groups(&self) -> Vec<(usize, usize)> {
        self.instrumented
            .sites
            .iter()
            .map(|s| (s.counter_base, s.kind.arity()))
            .collect()
    }
}

/// The outcome of a campaign emitted into an external sink: everything
/// [`CampaignResult`] records except the reports themselves, which went
/// wherever the sink sent them.
#[derive(Debug)]
pub struct CampaignRun {
    /// The instrumented program and its site table.
    pub instrumented: Instrumented,
    /// Runs dropped because they exhausted the operation budget.
    pub dropped: usize,
    /// Reports accepted by the sink.
    pub emitted: usize,
}

impl CampaignRun {
    /// Site `(counter_base, arity)` groups, as the elimination strategies
    /// expect them.
    pub fn site_groups(&self) -> Vec<(usize, usize)> {
        self.instrumented
            .sites
            .iter()
            .map(|s| (s.counter_base, s.kind.arity()))
            .collect()
    }
}

/// Instruments `program` with `config.scheme`, transforms it (when a
/// density is given), runs every trial, and collects one report per run
/// into an in-memory [`Collector`].
///
/// Equivalent to [`run_campaign_into`] with a `Collector` sink; see that
/// function for the sharding and ordering contract.
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation, transformation, or VM
/// configuration fails.  Individual run crashes are data, not errors.
pub fn run_campaign(
    program: &Program,
    trials: &[Vec<i64>],
    config: &CampaignConfig,
) -> Result<CampaignResult, WorkloadError> {
    // Layout is adopted from the sink's `begin`, so the counter width
    // here is provisional and overwritten before the first report.
    let mut collector = Collector::new(0);
    let run = run_campaign_into(program, trials, config, &mut collector)?;
    Ok(CampaignResult {
        instrumented: run.instrumented,
        collector,
        dropped: run.dropped,
    })
}

/// Instruments `program` with `config.scheme`, transforms it (when a
/// density is given), runs every trial, and emits one report per run
/// into `sink`.
///
/// The sink's [`begin`](ReportSink::begin) is called with the site
/// table's layout (counter count and layout hash) before any report, and
/// [`finish`](ReportSink::finish) after the last one.  Trials shard over
/// `config.jobs` scoped worker threads; the report sequence the sink
/// observes is bit-identical to serial execution at any job count (see
/// the module docs).  With `jobs <= 1` reports flow straight from the VM
/// into the sink, one at a time, with no intermediate buffering.
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation, transformation, or VM
/// configuration fails, or if the sink rejects a report (I/O failure,
/// layout mismatch).  Individual run crashes are data, not errors.
pub fn run_campaign_into<S: ReportSink>(
    program: &Program,
    trials: &[Vec<i64>],
    config: &CampaignConfig,
    sink: &mut S,
) -> Result<CampaignRun, WorkloadError> {
    let instrumented =
        telemetry::time("campaign.instrument", || instrument(program, config.scheme))?;
    let executable: Cow<'_, Program> = match config.density {
        Some(_) => Cow::Owned(
            telemetry::time("campaign.transform", || {
                apply_sampling(&instrumented.program, &config.transform)
            })?
            .0,
        ),
        None => Cow::Borrowed(&instrumented.program),
    };
    // Under the bytecode engine, lower and compile once to flat
    // instructions — the campaign then never touches the AST on the
    // execution path.  The name-map reference runs the AST directly.
    let bytecode = (config.engine == Engine::Bytecode).then(|| {
        let slots = telemetry::time("campaign.lower", || cbi_minic::lower(&executable));
        telemetry::time("campaign.compile", || cbi_vm::bytecode::compile(&slots))
    });
    let exe = match &bytecode {
        Some(bc) => Exe::Bytecode(bc),
        None => Exe::Ast(&executable),
    };

    sink.begin(ReportLayout {
        counters: instrumented.sites.total_counters(),
        layout_hash: instrumented.sites.layout_hash(),
    })?;

    let jobs = config.jobs.clamp(1, trials.len().max(1));
    let mut dropped = 0;
    let mut emitted = 0usize;

    if jobs <= 1 {
        let _execute = telemetry::span("campaign.execute");
        dropped = run_shard(exe, &instrumented.sites, trials, 0, config, &mut |r| {
            emitted += 1;
            sink.accept(r).map_err(WorkloadError::from)
        })?;
    } else {
        let chunk = trials.len().div_ceil(jobs);
        let shards: Vec<Result<(Vec<Report>, usize), WorkloadError>> = {
            let _execute = telemetry::span("campaign.execute");
            let tm_on = telemetry::enabled();
            std::thread::scope(|s| {
                let handles: Vec<_> = trials
                    .chunks(chunk)
                    .enumerate()
                    .map(|(w, shard)| {
                        let sites = &instrumented.sites;
                        // Spawn-to-start latency per worker: how long a
                        // shard waited for the scheduler ("queue wait").
                        let spawned_ns = tm_on.then(telemetry::now_ns);
                        s.spawn(move || {
                            if let Some(t0) = spawned_ns {
                                telemetry::set_worker(w as u32 + 1);
                                // A counter (not a histogram) so the wait
                                // stays attributed to its worker label.
                                telemetry::count(
                                    "campaign.queue_wait_ns",
                                    telemetry::now_ns().saturating_sub(t0),
                                );
                            }
                            let _shard_span = telemetry::span("campaign.shard");
                            let mut reports = Vec::with_capacity(shard.len());
                            let dropped =
                                run_shard(exe, sites, shard, w * chunk, config, &mut |r| {
                                    reports.push(r);
                                    Ok(())
                                })?;
                            Ok((reports, dropped))
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("campaign worker panicked"))
                    .collect()
            })
        };
        // Shards cover contiguous, increasing trial ranges, so draining
        // them in order reproduces the serial report sequence exactly.
        let _merge = telemetry::span("campaign.merge");
        for shard in shards {
            let (reports, d) = shard?;
            for report in reports {
                emitted += 1;
                sink.accept(report)?;
            }
            dropped += d;
        }
    }

    sink.finish()?;
    Ok(CampaignRun {
        instrumented,
        dropped,
        emitted,
    })
}

/// The shared executable form every trial runs: compiled once per
/// campaign for the configured engine, borrowed by every worker.
#[derive(Clone, Copy)]
enum Exe<'a> {
    Ast(&'a Program),
    Bytecode(&'a BcProgram),
}

impl<'a> Exe<'a> {
    fn vm(self) -> Vm<'a> {
        match self {
            Exe::Ast(p) => {
                let mut vm = Vm::new(p);
                vm.with_engine(Engine::NameMap);
                vm
            }
            Exe::Bytecode(p) => Vm::from_bytecode(p),
        }
    }
}

/// Runs trials `base..base + shard.len()`, passing each surviving report
/// to `emit` in run-id order; returns the dropped-run count.
fn run_shard(
    exe: Exe<'_>,
    sites: &SiteTable,
    shard: &[Vec<i64>],
    base: usize,
    config: &CampaignConfig,
    emit: &mut dyn FnMut(Report) -> Result<(), WorkloadError>,
) -> Result<usize, WorkloadError> {
    let mut dropped = 0;
    // One lazy bank per worker, reseeded per trial: the countdown sequence
    // is identical to `CountdownBank::generate(d, n, seed + i)`, but draws
    // happen on demand, so a trial with few refills skips most of the
    // generation cost.
    let mut bank = config
        .density
        .map(|d| LazyBank::new(d, config.bank_size, config.seed.wrapping_add(base as u64)));
    for (offset, input) in shard.iter().enumerate() {
        let i = base + offset;
        let mut vm = exe.vm();
        vm.with_sites(sites)
            .with_input(&input[..])
            .with_op_limit(config.op_limit)
            .with_heap_slack(config.heap_slack);
        if let Some(bank) = bank.as_mut() {
            if offset > 0 {
                let density = config.density.expect("bank implies density");
                bank.reseed(density, config.seed.wrapping_add(i as u64));
            }
            vm.with_sampling_ref(bank);
        }
        let result = vm.run()?;
        let label = match result.outcome {
            RunOutcome::Success(_) => Label::Success,
            RunOutcome::Crash(_) | RunOutcome::AssertionFailure(_) => Label::Failure,
            RunOutcome::OpLimit => {
                dropped += 1;
                continue;
            }
        };
        emit(Report::new(i as u64, label, result.counters))?;
    }
    // Attributed to the calling thread's worker label, so the per-worker
    // breakdown shows how trials and drops spread across the shards.
    telemetry::count("campaign.trials", shard.len() as u64);
    telemetry::count("campaign.dropped", dropped as u64);
    Ok(dropped)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bc::{bc_trials, BcTrialConfig};
    use crate::benchmarks::{bc_program, ccrypt_program};
    use crate::ccrypt::{ccrypt_trials, CcryptTrialConfig};

    #[test]
    fn ccrypt_campaign_collects_labeled_reports() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(300, 11, &CcryptTrialConfig::default());
        let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(10));
        let result = run_campaign(&program, &trials, &config).unwrap();
        assert_eq!(result.collector.len(), 300);
        assert!(result.collector.failure_count() > 0, "some runs crash");
        assert!(result.collector.success_count() > 250);
        assert_eq!(result.dropped, 0);
        assert!(!result.site_groups().is_empty());
    }

    #[test]
    fn unconditional_campaign_observes_every_crossing() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(50, 5, &CcryptTrialConfig::default());
        let sampled = run_campaign(
            &program,
            &trials,
            &CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(1000)),
        )
        .unwrap();
        let uncond = run_campaign(
            &program,
            &trials,
            &CampaignConfig::unconditional(Scheme::Returns),
        )
        .unwrap();
        let total = |c: &Collector| -> u64 {
            c.reports()
                .iter()
                .map(|r| r.counters.iter().sum::<u64>())
                .sum()
        };
        assert!(total(&uncond.collector) > 50 * total(&sampled.collector));
    }

    #[test]
    fn bc_campaign_with_scalar_pairs() {
        let program = bc_program();
        let trials = bc_trials(120, 3, &BcTrialConfig::default());
        let config = CampaignConfig::sampled(Scheme::ScalarPairs, SamplingDensity::one_in(10));
        let result = run_campaign(&program, &trials, &config).unwrap();
        assert_eq!(result.collector.len(), 120);
        let failures = result.collector.failure_count();
        assert!(
            (10..=60).contains(&failures),
            "bc failure count {failures} out of band"
        );
        // Scalar pairs generate a large counter space.
        assert!(result.instrumented.sites.total_counters() > 300);
    }

    #[test]
    fn campaigns_are_deterministic() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(60, 21, &CcryptTrialConfig::default());
        let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(100));
        let a = run_campaign(&program, &trials, &config).unwrap();
        let b = run_campaign(&program, &trials, &config).unwrap();
        assert_eq!(a.collector.reports(), b.collector.reports());
    }

    #[test]
    fn parallel_matches_serial() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(200, 33, &CcryptTrialConfig::default());
        let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(10));
        let serial = run_campaign(&program, &trials, &config.with_jobs(1)).unwrap();
        let parallel = run_campaign(&program, &trials, &config.with_jobs(8)).unwrap();
        assert_eq!(serial.collector.reports(), parallel.collector.reports());
        assert_eq!(serial.dropped, parallel.dropped);
        assert_eq!(
            serial.collector.success_count(),
            parallel.collector.success_count()
        );
        assert_eq!(
            serial.collector.failure_count(),
            parallel.collector.failure_count()
        );
    }

    #[test]
    fn parallel_preserves_oplimit_drop_accounting() {
        // A tiny op budget drops many trials; the dropped count and the
        // surviving run-id sequence must be identical at any job count.
        let program = ccrypt_program();
        let trials = ccrypt_trials(96, 7, &CcryptTrialConfig::default());
        let mut config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(10));
        config.op_limit = 2_000;
        let serial = run_campaign(&program, &trials, &config).unwrap();
        assert!(serial.dropped > 0, "op limit must actually drop runs");
        assert!(serial.collector.len() < trials.len());
        for jobs in [2, 3, 8, 96, 200] {
            let parallel = run_campaign(&program, &trials, &config.with_jobs(jobs)).unwrap();
            assert_eq!(
                serial.collector.reports(),
                parallel.collector.reports(),
                "jobs {jobs}"
            );
            assert_eq!(serial.dropped, parallel.dropped, "jobs {jobs}");
        }
    }

    #[test]
    fn unconditional_campaign_borrows_instrumented_program() {
        // jobs > 1 with density None exercises the borrowed-executable
        // path under sharding.
        let program = ccrypt_program();
        let trials = ccrypt_trials(40, 3, &CcryptTrialConfig::default());
        let config = CampaignConfig::unconditional(Scheme::Returns);
        let serial = run_campaign(&program, &trials, &config).unwrap();
        let parallel = run_campaign(&program, &trials, &config.with_jobs(4)).unwrap();
        assert_eq!(serial.collector.reports(), parallel.collector.reports());
    }
}
