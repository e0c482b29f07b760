//! The traced run: replays each pipeline stage on a workload's own
//! inputs under the benchmark's spans, reads the counters the program
//! records through `cbi_telemetry`, and turns both into the per-layer
//! metrics.

use crate::report::RunReport;
use crate::stages::{self, ctx, Envelopes, StageResult, FSYNC};
use crate::trace::{self_time_by_name, self_times, Tracer};
use cbi::prelude::*;
use cbi::reports::frame::take_envelope;
use cbi::reports::{decode_batch, wire, BatchEnvelope};
use cbi::sampler::LazyBank;
use cbi::telemetry::{self, Metrics};
use cbi::vm::bytecode;
use cbi_fleet::{run_fleet, FleetSpec};
use cbi_scoring::{all_scorers, isolate, FailureIndex, SCORER_NAMES};
use cbi_serve::{IngestCore, Journal};
use std::collections::BTreeMap;
use std::path::Path;

/// Countdown draws timed for `sampler.draw_ns`.
const DRAWS: u64 = 200_000;

/// Benchmark-side counts gathered during a traced pass (the program's
/// own counters come from telemetry).
pub type Counts = BTreeMap<&'static str, f64>;

/// Adds `v` to a benchmark-side count.
pub fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

/// Stages a workload's main iteration already performs under the same
/// span names, so the replay leaves them out.
#[derive(Debug, Clone, Copy, Default)]
pub struct Covered {
    /// The iteration runs a serial campaign (`workloads.campaign`), the
    /// uninstrumented baseline (`vm.baseline_run`) and the analysis
    /// (elimination, isolation, regression).
    pub campaign_and_analysis: bool,
    /// The iteration runs the fleet simulator (`fleet.*` spans).
    pub fleet: bool,
}

/// A workload's inputs, as the replay sees them.
pub struct LayerInput<'a> {
    /// MiniC source of the client program.
    pub source: &'a str,
    /// Instrumentation scheme.
    pub scheme: Scheme,
    /// Sampling density denominator of the replay.
    pub density: u64,
    /// Replayed client inputs.
    pub trials: &'a [Vec<i64>],
    /// Workload seed.
    pub seed: u64,
    /// Client ids envelopes are spread over.
    pub clients: u64,
    /// Runs per epoch snapshot in the server's analysis.
    pub epoch_len: u64,
    /// The workload's own envelopes; built from the replay's reports
    /// when `None`.
    pub envelopes: Option<&'a Envelopes>,
    /// Stages the main iteration covers.
    pub covered: Covered,
}

/// Replays every stage the main iteration does not cover, recording
/// spans into `tracer` and benchmark-side counts into `counts`.
/// `work_dir` is a directory for journal files.
pub fn replay(
    input: &LayerInput<'_>,
    tracer: &mut Tracer,
    counts: &mut Counts,
    work_dir: &Path,
) -> StageResult<()> {
    let density = SamplingDensity::one_in(input.density);
    let program = tracer
        .span("minic.parse", 0, || parse(input.source))
        .map_err(ctx("parse"))?;
    let inst = tracer
        .span("instrument.instrument", 0, || {
            instrument(&program, input.scheme)
        })
        .map_err(ctx("instrument"))?;
    let (sampled, _) = tracer
        .span("instrument.transform", 0, || {
            apply_sampling(&inst.program, &TransformOptions::default())
        })
        .map_err(ctx("transform"))?;
    let (slots, base_slots) = tracer.span("minic.lower", 0, || {
        (cbi::minic::lower(&sampled), cbi::minic::lower(&program))
    });
    let (bc, base_bc) = tracer.span("bytecode.compile", 0, || {
        (bytecode::compile(&slots), bytecode::compile(&base_slots))
    });
    add(counts, "instrument.sites", inst.sites.len() as f64);
    add(
        counts,
        "instrument.counters",
        inst.sites.total_counters() as f64,
    );

    // Client runs, one span per trial.
    let mut reports = Vec::with_capacity(input.trials.len());
    let mut bank = LazyBank::new(density, 1024, input.seed);
    for (i, trial) in input.trials.iter().enumerate() {
        bank.reseed(density, input.seed.wrapping_add(i as u64));
        let result = tracer
            .span("vm.run", i as u64, || {
                Vm::from_bytecode(&bc)
                    .with_sites(&inst.sites)
                    .with_input(&trial[..])
                    .with_sampling_ref(&mut bank)
                    .run()
            })
            .map_err(ctx("sampled run"))?;
        let label = match result.outcome {
            RunOutcome::Success(_) => Label::Success,
            RunOutcome::Crash(_) | RunOutcome::AssertionFailure(_) => Label::Failure,
            RunOutcome::OpLimit => continue,
        };
        reports.push(Report::new(i as u64, label, result.counters));
    }
    if !input.covered.campaign_and_analysis {
        traced_baseline(&base_bc, input.trials, tracer)?;
    }
    let mut draws = cbi::sampler::Geometric::new(density, input.seed);
    let drawn = tracer.span("sampler.draw", 0, || {
        (0..DRAWS).fold(0u64, |acc, _| acc.wrapping_add(draws.draw()))
    });
    std::hint::black_box(drawn);
    add(counts, "sampler.draws", DRAWS as f64);

    if !input.covered.campaign_and_analysis {
        tracer.span("workloads.campaign", 0, || {
            stages::campaign(&program, input.trials, input.scheme, density, input.seed, 1)
        })?;
    }
    // Two workers, so the campaign records its worker queue wait.
    tracer.span("workloads.campaign_parallel", 0, || {
        stages::campaign(&program, input.trials, input.scheme, density, input.seed, 2)
    })?;

    let built;
    let env = match input.envelopes {
        Some(env) => env,
        None => {
            let count = reports.len().div_ceil(stages::BATCH_SIZE).max(1);
            built = stages::make_envelopes(
                &reports,
                stages::layout_of(&inst.sites),
                count,
                input.clients,
                input.seed,
            )?;
            &built
        }
    };
    let batches = replay_reports_layer(env, tracer, counts)?;
    replay_serve_layer(&inst.sites, env, input.epoch_len, tracer, counts, work_dir)?;

    let aggregator = tracer.span("core.fold", 0, || {
        stages::fold(
            &inst.sites,
            env.layout,
            batches.into_iter().map(Ok),
            input.epoch_len,
        )
    })?;
    add(counts, "core.epochs", aggregator.snapshots().len() as f64);

    if !input.covered.campaign_and_analysis {
        let groups: Vec<(usize, usize)> = inst
            .sites
            .iter()
            .map(|s| (s.counter_base, s.kind.arity()))
            .collect();
        let mut collector = Collector::new(inst.sites.total_counters());
        for r in reports {
            collector.add(r).map_err(ctx("collect"))?;
        }
        let result = CampaignResult {
            instrumented: inst,
            collector,
            dropped: 0,
        };
        analysis(&result, &groups, 0, tracer, counts)?;
    }
    Ok(())
}

/// The uninstrumented baseline, one `vm.baseline_run` span per trial.
pub fn traced_baseline(
    program: &bytecode::BcProgram,
    trials: &[Vec<i64>],
    tracer: &mut Tracer,
) -> StageResult<()> {
    for (i, trial) in trials.iter().enumerate() {
        let result = tracer
            .span("vm.baseline_run", i as u64, || {
                Vm::from_bytecode(program).with_input(&trial[..]).run()
            })
            .map_err(ctx("baseline run"))?;
        std::hint::black_box(result.ops);
    }
    Ok(())
}

/// What one analysis pass concluded.
pub struct Analysis {
    /// Regression ranking, best first.
    pub study: cbi::RegressionStudy,
    /// `(scorer, iterations, complete, first cluster counter)` per scorer.
    pub isolations: Vec<(&'static str, usize, bool, Option<usize>)>,
    /// Combined elimination survivors.
    pub survivors: Vec<usize>,
}

/// The paper's analysis of a campaign: elimination, a `FailureIndex`
/// with `isolate` for every scorer, and regression.  `pass` is the
/// request id of the spans.
pub fn analysis(
    result: &CampaignResult,
    groups: &[(usize, usize)],
    pass: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> StageResult<Analysis> {
    let eliminated = tracer.span("stats.eliminate", pass, || cbi::eliminate(result));
    let index = tracer.span("scoring.index", pass, || -> StageResult<FailureIndex> {
        let mut index = FailureIndex::new();
        index
            .begin(stages::layout_of(&result.instrumented.sites))
            .map_err(ctx("index begin"))?;
        for r in result.collector.reports() {
            index.accept(r.clone()).map_err(ctx("index"))?;
        }
        Ok(index)
    })?;
    let mut isolations = Vec::new();
    for (s, scorer) in all_scorers().into_iter().enumerate() {
        let run = tracer.span("scoring.isolate", s as u64, || {
            isolate(&index, groups, scorer)
        });
        add(counts, "scoring.iterations", run.iterations() as f64);
        isolations.push((
            scorer.name(),
            run.iterations(),
            run.is_complete(),
            run.steps.first().map(|step| step.cluster.counter),
        ));
    }
    let runs = result.collector.len();
    let study = tracer
        .span("stats.regress", pass, || {
            cbi::regress(result, &cbi::RegressionConfig::paper_proportions(runs))
        })
        .map_err(ctx("regress"))?;
    add(counts, "stats.features", study.effective_features as f64);
    Ok(Analysis {
        study,
        isolations,
        survivors: eliminated.combined,
    })
}

/// Frames, unframes, decodes and re-encodes every envelope; returns the
/// decoded batches in the server's fold order.
fn replay_reports_layer(
    env: &Envelopes,
    tracer: &mut Tracer,
    counts: &mut Counts,
) -> StageResult<Vec<Vec<Report>>> {
    let mut order: Vec<(usize, &BatchEnvelope)> = env.envelopes.iter().enumerate().collect();
    order.sort_by_key(|(_, e)| (e.seq, e.client));
    let mut stream = Vec::new();
    for (i, e) in &order {
        let at = stream.len();
        tracer.span("reports.frame", *i as u64, || e.encode_into(&mut stream));
        let mut pos = at;
        let read = tracer
            .span("reports.frame", *i as u64, || {
                take_envelope(&stream, &mut pos)
            })
            .map_err(ctx("unframe"))?;
        if !read.is_some_and(|r| r.crc_ok && r.envelope == **e) {
            return Err("an envelope did not survive framing".to_string());
        }
    }
    let mut batches = Vec::with_capacity(order.len());
    let mut payload_bytes = 0u64;
    for (i, e) in &order {
        let (reports, _, _) = tracer
            .span("reports.decode", *i as u64, || {
                decode_batch(&e.payload, Some(env.layout))
            })
            .map_err(ctx("decode"))?;
        let again = tracer
            .span("reports.encode", *i as u64, || {
                wire::encode_reports(&reports, env.layout.layout_hash, env.layout.counters)
            })
            .map_err(ctx("encode"))?;
        if again != e.payload {
            return Err("re-encoding a decoded batch changed its bytes".to_string());
        }
        payload_bytes += e.payload.len() as u64;
        batches.push(reports);
    }
    add(counts, "reports.payload_bytes", payload_bytes as f64);
    add(counts, "reports.reports", env.reports as f64);
    Ok(batches)
}

/// In-process submit and finish through `IngestCore`, bare journal
/// appends, and one socket pass for the transport share.
fn replay_serve_layer(
    sites: &SiteTable,
    env: &Envelopes,
    epoch_len: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    work_dir: &Path,
) -> StageResult<()> {
    let path = work_dir.join(format!("replay-{}.cbij", std::process::id()));
    let mut core = IngestCore::new(sites.clone(), stages::serve_config(epoch_len))
        .map_err(ctx("ingest core"))?
        .with_journal(&path, FSYNC)
        .map_err(ctx("journal"))?;
    for (i, e) in env.envelopes.iter().enumerate() {
        let mut sends = vec![e.clone()];
        if env.resend[i].is_some() {
            let mut again = e.clone();
            again.attempt = 1;
            sends.push(again);
        }
        for envelope in sends {
            tracer
                .span("serve.submit", i as u64, || {
                    core.submit(None, envelope, true)
                })
                .map_err(ctx("submit"))?;
        }
    }
    let outcome = tracer
        .span("serve.finish", 0, || core.finish())
        .map_err(ctx("finish"))?;
    add(
        counts,
        "serve.duplicates",
        outcome.summary.duplicates as f64,
    );
    std::fs::remove_file(&path).map_err(ctx("remove journal"))?;

    let mut journal =
        Journal::create(&path, env.layout.layout_hash, FSYNC).map_err(ctx("journal"))?;
    for (i, e) in env.envelopes.iter().enumerate() {
        tracer
            .span("journal.append", i as u64, || journal.append(e))
            .map_err(ctx("append"))?;
    }
    journal.sync().map_err(ctx("journal sync"))?;
    drop(journal);
    std::fs::remove_file(&path).map_err(ctx("remove journal"))?;

    let run = tracer.span("serve.socket", 0, || {
        stages::ingest_pass(sites, env, epoch_len, &path)
    })?;
    add(counts, "serve.socket_ns", run.elapsed_s * 1e9);
    add(counts, "serve.shed", run.shed as f64);
    let high = run
        .summary
        .queue_high_water
        .iter()
        .copied()
        .max()
        .unwrap_or(0);
    add(counts, "serve.queue_high_water", high as f64);
    Ok(())
}

/// Runs the fleet simulator on a workload's program and inputs, for the
/// `fleet.*` layer of workloads whose iteration runs no fleet.
pub fn fleet_replay(input: &LayerInput<'_>) -> StageResult<()> {
    let program = parse(input.source).map_err(ctx("parse"))?;
    let mut spec = FleetSpec::new(16, input.trials.len());
    spec.densities = vec![(input.density, 1.0)];
    spec.scheme = input.scheme;
    spec.channel = stages::lossy_channel();
    spec.seed = input.seed;
    spec.jobs = 2;
    run_fleet(&program, input.trials, &spec, None).map_err(ctx("fleet"))?;
    Ok(())
}

/// Everything one traced pass recorded.
pub struct Pass {
    /// Self time per span name, in nanoseconds.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Self time of `scoring.isolate` per scorer, in nanoseconds.
    pub isolate_ns: Vec<u64>,
    /// The program's telemetry for the pass.
    pub telemetry: Metrics,
    /// The program's telemetry for the fleet layer.
    pub fleet: Metrics,
    /// Benchmark-side counts.
    pub counts: Counts,
}

impl Pass {
    /// Collects a finished pass.
    pub fn new(tracer: &Tracer, telemetry: Metrics, fleet: Metrics, counts: Counts) -> Pass {
        let self_ns = self_time_by_name(tracer.spans());
        let mut isolate_ns = vec![0; SCORER_NAMES.len()];
        for (span, t) in tracer.spans().iter().zip(self_times(tracer.spans())) {
            if span.name == "scoring.isolate" {
                isolate_ns[span.request as usize] += t;
            }
        }
        Pass {
            self_ns,
            isolate_ns,
            telemetry,
            fleet,
            counts,
        }
    }

    fn secs(&self, span: &str) -> f64 {
        self.self_ns.get(span).copied().unwrap_or(0) as f64 / 1e9
    }

    fn count(&self, name: &str) -> f64 {
        self.counts.get(name).copied().unwrap_or(0.0)
    }

    /// The counters that must repeat exactly at a fixed seed.
    pub fn repeat_counters(&self) -> Vec<(&'static str, u64)> {
        vec![
            ("vm.ops", self.telemetry.counter("vm.ops")),
            ("sampler.refills", self.telemetry.counter("sampler.refills")),
            ("wire.bytes_out", self.telemetry.counter("wire.bytes_out")),
            ("journal.bytes", self.telemetry.counter("journal.bytes")),
            (
                "scoring.iterations",
                self.count("scoring.iterations") as u64,
            ),
            ("stats.features", self.count("stats.features") as u64),
        ]
    }
}

/// Self time of a program span (no benchmark spans nest inside it).
fn program_span_s(m: &Metrics, name: &str) -> f64 {
    m.span_total_ns(name) as f64 / 1e9
}

/// Adds every per-layer metric to `report`.  Times are the lower of the
/// two passes (see [`crate::report::Pick`]); counts come from the first.
pub fn report_layers(report: &mut RunReport, a: &Pass, b: &Pass, overhead_pct: f64) {
    let best = |f: &dyn Fn(&Pass) -> f64| f(a).min(f(b));
    let secs = |name: &'static str| best(&move |p: &Pass| p.secs(name));
    let tm = &a.telemetry;

    report.value("minic.parse_s", "s", secs("minic.parse"));
    report.value("minic.lower_s", "s", secs("minic.lower"));
    report.value(
        "instrument.instrument_s",
        "s",
        secs("instrument.instrument"),
    );
    report.value("instrument.transform_s", "s", secs("instrument.transform"));
    report.value("bytecode.compile_s", "s", secs("bytecode.compile"));
    report.value("instrument.sites", "count", a.count("instrument.sites"));
    report.value(
        "instrument.counters",
        "count",
        a.count("instrument.counters"),
    );

    report.value("vm.run_s", "s", secs("vm.run"));
    report.value("vm.baseline_run_s", "s", secs("vm.baseline_run"));
    report.value("vm.runs", "count", tm.counter("vm.runs") as f64);
    report.value("vm.ops", "count", tm.counter("vm.ops") as f64);
    let fast = tm.counter("vm.region.fast_entries") as f64;
    report.value("vm.region.fast_entries", "count", fast);
    let slow = tm.counter("vm.region.slow_entries") as f64;
    report.value("vm.region.slow_entries", "count", slow);

    report.value(
        "sampler.refills",
        "count",
        tm.counter("sampler.refills") as f64,
    );
    let reseeds = tm.counter("sampler.bank_reseeds") as f64;
    report.value("sampler.bank_reseeds", "count", reseeds);
    let draw_ns = best(&|p: &Pass| p.secs("sampler.draw") * 1e9 / p.count("sampler.draws"));
    report.value("sampler.draw_ns", "ns", draw_ns);

    report.value("workloads.campaign_s", "s", secs("workloads.campaign"));
    let wait = best(&|p: &Pass| p.telemetry.counter("campaign.queue_wait_ns") as f64);
    report.value("campaign.queue_wait_ns", "ns", wait);

    let fleet_s = |name: &'static str| best(&move |p: &Pass| program_span_s(&p.fleet, name));
    report.value("fleet.setup_s", "s", fleet_s("fleet.setup"));
    report.value("fleet.execute_s", "s", fleet_s("fleet.execute"));
    report.value("fleet.merge_s", "s", fleet_s("fleet.merge"));
    report.value(
        "fleet.bytes_sent",
        "B",
        a.fleet.counter("fleet.bytes_sent") as f64,
    );
    report.value(
        "fleet.retries",
        "count",
        a.fleet.counter("fleet.retries") as f64,
    );
    let lost = a.fleet.counter("fleet.lost_batches") as f64;
    report.value("fleet.lost_batches", "count", lost);

    report.value("reports.encode_s", "s", secs("reports.encode"));
    report.value("reports.frame_s", "s", secs("reports.frame"));
    report.value("reports.decode_s", "s", secs("reports.decode"));
    report.value("wire.bytes_out", "B", tm.counter("wire.bytes_out") as f64);
    report.value(
        "wire.frames_in",
        "count",
        tm.counter("wire.frames_in") as f64,
    );
    let per_report = a.count("reports.payload_bytes") / a.count("reports.reports").max(1.0);
    report.value("reports.bytes_per_report", "B/report", per_report);

    let submit_s = secs("serve.submit");
    report.value("serve.submit_s", "s", submit_s);
    report.value("serve.finish_s", "s", secs("serve.finish"));
    let socket_s = best(&|p: &Pass| p.count("serve.socket_ns") / 1e9);
    report.value("serve.transport_s", "s", socket_s - submit_s);
    report.value("journal.append_s", "s", secs("journal.append"));
    report.value("serve.duplicates", "count", a.count("serve.duplicates"));
    report.value("serve.shed", "count", a.count("serve.shed"));
    report.value(
        "serve.queue_high_water",
        "count",
        a.count("serve.queue_high_water"),
    );
    let resident = tm
        .histogram("serve.shard_resident_high_water")
        .map_or(0, |h| h.max);
    report.value("serve.shard_resident_high_water", "count", resident as f64);
    report.value("journal.bytes", "B", tm.counter("journal.bytes") as f64);
    report.value("journal.syncs", "count", tm.counter("journal.syncs") as f64);

    report.value("core.fold_s", "s", secs("core.fold"));
    report.value("core.epochs", "count", a.count("core.epochs"));

    report.value("scoring.index_s", "s", secs("scoring.index"));
    report.value("scoring.isolate_s", "s", secs("scoring.isolate"));
    for (s, name) in SCORER_NAMES.iter().enumerate() {
        let t = best(&|p: &Pass| p.isolate_ns[s] as f64 / 1e9);
        report.value(&format!("scoring.isolate.{name}_s"), "s", t);
    }
    report.value("scoring.iterations", "count", a.count("scoring.iterations"));

    report.value("stats.eliminate_s", "s", secs("stats.eliminate"));
    report.value("stats.regress_s", "s", secs("stats.regress"));
    report.value("stats.features", "count", a.count("stats.features"));

    report.value("telemetry.overhead_pct", "%", overhead_pct);
}

/// Runs `f` with program telemetry on and returns what it recorded.
pub fn with_telemetry<T>(f: impl FnOnce() -> StageResult<T>) -> StageResult<(T, Metrics)> {
    telemetry::reset();
    telemetry::enable();
    let out = f();
    telemetry::disable();
    let metrics = telemetry::collect();
    Ok((out?, metrics))
}
