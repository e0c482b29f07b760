//! The three workloads.  Each drives every stage — client runs, ingest,
//! analysis — on its own seeded inputs, and spends most of its run on
//! the stage it was chosen for:
//!
//! * `fleet`: the fleet simulator's many short client runs;
//! * `ingest`: stop-and-wait batches into the sharded, journaled server;
//! * `triage`: the bc study's campaign and its analysis.
//!
//! The other stages run as probes on the same workload's data, between
//! main iterations, so every end-to-end metric is measured on every
//! workload and every metric samples the whole run.

use crate::layers::{self, Counts, Covered, LayerInput};
use crate::report::{Pick, RunReport};
use crate::stages::{
    self, ctx, ClientBuilds, ClientGroup, ClientSamples, IngestProbe, IngestSamples, StageResult,
};
use crate::trace::Tracer;
use cbi::prelude::*;
use cbi::sampler::{Pcg32, Zipf};
use cbi::workloads::{bc_trials, ccrypt_trials, BcTrialConfig, CcryptTrialConfig};
use cbi::workloads::{BC_SOURCE, CCRYPT_SOURCE};
use cbi_corpus::{generate_corpus, CorpusEntry, GenerateConfig};
use cbi_fleet::{corpus_pool, render_summary, run_corpus_fleet, FleetSpec};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Inputs replayed by the traced run's per-stage replay.
const REPLAY_TRIALS: usize = 1024;
/// Envelopes in the ingest probe of the `fleet` and `triage` workloads.
const PROBE_ENVELOPES: usize = 1024;
/// Client ids the `ingest` and `triage` envelopes are spread over.
const INGEST_CLIENTS: u64 = 10_000;

/// One workload: seeded set-up, a repeatable main iteration, a probe of
/// the other stages, and its correctness checks.
pub trait Workload: Sized {
    /// Share of the measured time the main iteration gets; probes get
    /// the rest.
    const MAIN_SHARE: f64;

    /// Builds every input from `seed`; `work_dir` holds journal files.
    fn setup(seed: u64, work_dir: &Path) -> StageResult<Self>;

    /// One main-loop iteration, recording spans into `tracer`.
    fn iteration(&mut self, tracer: &mut Tracer, counts: &mut Counts) -> StageResult<()>;

    /// One sample of every probed stage.
    fn probe(&mut self) -> StageResult<()>;

    /// Reports every end-to-end metric except `setup_s` and
    /// `peak_rss_mib`, with the probes' checks.
    fn report(&self, report: &mut RunReport);

    /// Adds the main iteration's checks and operation counts.
    fn checks(&mut self, report: &mut RunReport) -> StageResult<()>;

    /// The inputs of the traced run's per-stage replay.
    fn layer_input(&self) -> LayerInput<'_>;
}

/// Reports the ingest stage's throughput and ack latency.
fn report_ingest_metrics(report: &mut RunReport, s: &IngestSamples) {
    let rate = &s.reports_per_s;
    report.samples("ingest_reports_per_s", "reports/s", rate, Pick::Highest);
    report.samples("ack_p50_us", "us", &s.ack_p50_us, Pick::Lowest);
    report.samples("ack_p99_us", "us", &s.ack_p99_us, Pick::Lowest);
}

/// Reports the ingest stage's checks.
fn report_ingest_checks(report: &mut RunReport, s: &IngestSamples, what: &str) {
    report.check(
        format!("{what}: every sent batch committed exactly once"),
        s.committed_once && s.failed == 0,
    );
    report.check(
        format!("{what}: rendered analysis equals an in-process fold of the same envelopes"),
        s.matches_reference,
    );
    report.note(format!(
        "{what}: {} batches in {} passes, {} overloaded NACKs retried, shard queue high water {}",
        s.batches,
        s.reports_per_s.len(),
        s.shed,
        s.queue_high_water
    ));
}

/// Reports the client stage's throughput and overhead.
fn report_client_metrics(report: &mut RunReport, runs_per_s: &[f64], overhead_x: &[f64]) {
    report.samples("client_runs_per_s", "runs/s", runs_per_s, Pick::Highest);
    report.samples("client_overhead_x", "ratio", overhead_x, Pick::Median);
}

fn journal_path(work_dir: &Path, tag: &str) -> PathBuf {
    work_dir.join(format!("{tag}-{}.cbij", std::process::id()))
}

// ---------------------------------------------------------------- fleet

const FLEET_CLIENTS: usize = 256;
const FLEET_RUNS: usize = 65_536;
const FLEET_POOL: usize = 256;

/// `fleet`: `run_corpus_fleet` on a planted-bug corpus entry.
pub struct Fleet {
    seed: u64,
    entry: CorpusEntry,
    program: Program,
    builds: ClientBuilds,
    groups: Vec<ClientGroup>,
    replay: Vec<Vec<i64>>,
    client: ClientSamples,
    ingest: IngestProbe,
    runs_per_s: Vec<f64>,
    runs: u64,
    dropped: u64,
    first: Option<String>,
    same_summary: bool,
    accounted: bool,
    detected: bool,
    latency: Vec<usize>,
}

fn fleet_spec(seed: u64, jobs: usize) -> FleetSpec {
    let mut spec = FleetSpec::new(FLEET_CLIENTS, FLEET_RUNS);
    spec.densities = vec![(100, 1.0), (1000, 3.0)];
    spec.zipf_exponent = 1.0;
    spec.batch_size = stages::BATCH_SIZE;
    spec.epoch_len = (FLEET_RUNS / 8) as u64;
    spec.channel = stages::lossy_channel();
    spec.seed = seed;
    spec.jobs = jobs;
    spec
}

impl Workload for Fleet {
    const MAIN_SHARE: f64 = 0.6;

    fn setup(seed: u64, work_dir: &Path) -> StageResult<Fleet> {
        // The corpus seed is fixed: every workload seed runs the same
        // planted bug, and the seed varies the community and its inputs.
        let corpus = generate_corpus(&GenerateConfig {
            size: 4,
            seed: 7,
            trials: 32,
        })
        .map_err(ctx("corpus"))?;
        let entry = corpus
            .entries
            .into_iter()
            .find(|e| e.bug.deterministic())
            .ok_or("the corpus has no deterministic planted bug")?;
        let program = parse(&entry.source).map_err(ctx("parse"))?;
        let pool = corpus_pool(&entry.bug, FLEET_POOL, seed ^ 0xc0_70_01);
        let zipf = Zipf::new(pool.len(), 1.0).map_err(ctx("zipf"))?;
        let mut rng = Pcg32::with_stream(seed, 0x9e0b);
        let replay: Vec<Vec<i64>> = (0..REPLAY_TRIALS)
            .map(|_| pool[zipf.sample(&mut rng)].clone())
            .collect();
        // The density mix of the fleet: one part 1/100, three parts 1/1000.
        let split = replay.len() / 4;
        let groups = vec![
            ClientGroup {
                density: SamplingDensity::one_in(100),
                trials: replay[..split].to_vec(),
            },
            ClientGroup {
                density: SamplingDensity::one_in(1000),
                trials: replay[split..].to_vec(),
            },
        ];
        let builds = stages::client_builds(&program, Scheme::Checks)?;
        let sampled = stages::campaign(
            &program,
            &replay,
            Scheme::Checks,
            SamplingDensity::one_in(100),
            seed,
            2,
        )?;
        let sites = sampled.instrumented.sites.clone();
        let envelopes = stages::make_envelopes(
            sampled.collector.reports(),
            stages::layout_of(&sites),
            PROBE_ENVELOPES,
            FLEET_CLIENTS as u64,
            seed,
        )?;
        Ok(Fleet {
            seed,
            entry,
            program,
            builds,
            groups,
            replay,
            client: ClientSamples::default(),
            ingest: IngestProbe::new(sites, envelopes, journal_path(work_dir, "fleet")),
            runs_per_s: Vec::new(),
            runs: 0,
            dropped: 0,
            first: None,
            same_summary: true,
            accounted: true,
            detected: true,
            latency: Vec::new(),
        })
    }

    fn iteration(&mut self, tracer: &mut Tracer, _counts: &mut Counts) -> StageResult<()> {
        let spec = fleet_spec(self.seed, 2);
        let start = Instant::now();
        let report = tracer
            .span("fleet.run", self.runs_per_s.len() as u64, || {
                run_corpus_fleet(&self.entry, FLEET_POOL, &spec)
            })
            .map_err(ctx("fleet"))?;
        let s = &report.summary;
        self.runs_per_s
            .push(s.runs as f64 / start.elapsed().as_secs_f64());
        self.runs += s.runs as u64;
        self.dropped += s.dropped_runs as u64;
        // Every run is accepted, dropped, or inside a lost batch.
        let lost_reports = s.spooled_reports - s.accepted_reports;
        self.accounted &= s.runs as u64 == s.spooled_reports + s.dropped_runs as u64
            && s.accepted_batches + s.lost_batches + s.stale_batches == s.batches
            && s.accepted_reports == report.aggregator.runs()
            && lost_reports >= s.lost_batches
            && lost_reports <= s.lost_batches * spec.batch_size as u64;
        self.detected &= s.target_latency.is_some();
        self.latency.extend(s.target_latency);
        let rendered = render_summary(s, &report.epochs);
        match &self.first {
            None => self.first = Some(rendered),
            Some(first) => self.same_summary &= *first == rendered,
        }
        Ok(())
    }

    fn probe(&mut self) -> StageResult<()> {
        stages::client_pass(
            &self.program,
            &self.builds,
            Scheme::Checks,
            &self.groups,
            self.seed,
            &mut self.client,
        )?;
        self.ingest.step(&mut Tracer::new(false))
    }

    fn report(&self, report: &mut RunReport) {
        report_client_metrics(report, &self.runs_per_s, &self.client.overhead_x);
        let ingest = &self.ingest.samples;
        report_ingest_metrics(report, ingest);
        report.samples("analysis_s", "s", &ingest.analysis_s, Pick::Lowest);
        report_ingest_checks(report, ingest, "ingest probe");
    }

    fn checks(&mut self, report: &mut RunReport) -> StageResult<()> {
        report.attempted = self.runs;
        report.failed = self.dropped;
        report.check(
            "fleet: every community run is accepted, dropped, or in a lost batch",
            self.accounted,
        );
        report.check("fleet: the planted predicate is detected", self.detected);
        let serial = run_corpus_fleet(&self.entry, FLEET_POOL, &fleet_spec(self.seed, 1))
            .map_err(ctx("fleet jobs 1"))?;
        let serial = render_summary(&serial.summary, &serial.epochs);
        report.check(
            "fleet: rendered summary equals an untimed jobs-1 run",
            self.same_summary && self.first.as_ref() == Some(&serial),
        );
        report.note(format!(
            "fleet: entry {}, {} iterations, detection latency {:?} runs",
            self.entry.bug.id,
            self.runs_per_s.len(),
            self.latency.first()
        ));
        Ok(())
    }

    fn layer_input(&self) -> LayerInput<'_> {
        LayerInput {
            source: &self.entry.source,
            scheme: Scheme::Checks,
            density: 100,
            trials: &self.replay,
            seed: self.seed,
            clients: FLEET_CLIENTS as u64,
            epoch_len: self.ingest.epoch_len(),
            envelopes: Some(self.ingest.envelopes()),
            covered: Covered {
                campaign_and_analysis: false,
                fleet: true,
            },
        }
    }
}

// ---------------------------------------------------------------- ingest

const INGEST_TRIALS: usize = 1024;
/// Batches per pass: short passes give many samples per run, so the
/// fast edge of the samples finds the machine's quiet moments.
const INGEST_ENVELOPES: usize = 4096;
/// Trials of the client probe.
const CLIENT_PROBE_TRIALS: usize = 256;

/// `ingest`: the ccrypt analogue's reports, sent stop-and-wait over two
/// connections into the sharded, journaled TCP server.
pub struct Ingest {
    seed: u64,
    program: Program,
    builds: ClientBuilds,
    trials: Vec<Vec<i64>>,
    groups: Vec<ClientGroup>,
    client: ClientSamples,
    main: IngestProbe,
}

impl Workload for Ingest {
    const MAIN_SHARE: f64 = 0.7;

    fn setup(seed: u64, work_dir: &Path) -> StageResult<Ingest> {
        let program = parse(CCRYPT_SOURCE).map_err(ctx("parse"))?;
        let density = SamplingDensity::one_in(100);
        let trials = ccrypt_trials(INGEST_TRIALS, seed, &CcryptTrialConfig::default());
        let sampled = stages::campaign(&program, &trials, Scheme::Returns, density, seed, 2)?;
        let sites = sampled.instrumented.sites.clone();
        let envelopes = stages::make_envelopes(
            sampled.collector.reports(),
            stages::layout_of(&sites),
            INGEST_ENVELOPES,
            INGEST_CLIENTS,
            seed,
        )?;
        Ok(Ingest {
            seed,
            builds: stages::client_builds(&program, Scheme::Returns)?,
            program,
            groups: vec![ClientGroup {
                density,
                trials: trials[..CLIENT_PROBE_TRIALS].to_vec(),
            }],
            trials,
            client: ClientSamples::default(),
            main: IngestProbe::new(sites, envelopes, journal_path(work_dir, "ingest")),
        })
    }

    fn iteration(&mut self, tracer: &mut Tracer, _counts: &mut Counts) -> StageResult<()> {
        self.main.step(tracer)
    }

    fn probe(&mut self) -> StageResult<()> {
        stages::client_pass(
            &self.program,
            &self.builds,
            Scheme::Returns,
            &self.groups,
            self.seed,
            &mut self.client,
        )
    }

    fn report(&self, report: &mut RunReport) {
        report_client_metrics(report, &self.client.runs_per_s, &self.client.overhead_x);
        let ingest = &self.main.samples;
        report_ingest_metrics(report, ingest);
        report.samples("analysis_s", "s", &ingest.analysis_s, Pick::Lowest);
    }

    fn checks(&mut self, report: &mut RunReport) -> StageResult<()> {
        report.attempted = self.main.samples.batches;
        report.failed = self.main.samples.failed;
        report_ingest_checks(report, &self.main.samples, "ingest");
        Ok(())
    }

    fn layer_input(&self) -> LayerInput<'_> {
        LayerInput {
            source: CCRYPT_SOURCE,
            scheme: Scheme::Returns,
            density: 100,
            trials: &self.trials,
            seed: self.seed,
            clients: INGEST_CLIENTS,
            epoch_len: self.main.epoch_len(),
            envelopes: Some(self.main.envelopes()),
            covered: Covered::default(),
        }
    }
}

// ---------------------------------------------------------------- triage

const TRIAGE_RUNS: usize = 4390;

/// `triage`: the paper's §3.3.3 bc study — a sampled campaign, the same
/// trials interleaved with the uninstrumented build, then elimination,
/// isolation and regression.
pub struct Triage {
    seed: u64,
    work_dir: PathBuf,
    program: Program,
    builds: ClientBuilds,
    trials: Vec<ClientGroup>,
    /// Every other trial: the overhead ratio's sample.
    overhead_trials: Vec<ClientGroup>,
    groups: Vec<(usize, usize)>,
    runs_per_s: Vec<f64>,
    overhead_x: Vec<f64>,
    analysis_s: Vec<f64>,
    /// The first campaign's reports, which the ingest probe carries.
    probe_reports: Option<(SiteTable, Vec<Report>)>,
    ingest: Option<IngestProbe>,
    passes: u64,
    failed: u64,
    first: Option<String>,
    same_analysis: bool,
    top5_positive_indx: bool,
    paper_top5: Vec<bool>,
    lambdas: Vec<f64>,
}

/// The predicate the paper's bc study points at.
fn names_indx_in_more_arrays(name: &str) -> bool {
    name.contains("more_arrays") && name.contains("indx")
}

impl Workload for Triage {
    const MAIN_SHARE: f64 = 0.8;

    fn setup(seed: u64, work_dir: &Path) -> StageResult<Triage> {
        let program = parse(BC_SOURCE).map_err(ctx("parse"))?;
        let builds = stages::client_builds(&program, Scheme::ScalarPairs)?;
        let groups = builds
            .sites
            .iter()
            .map(|s| (s.counter_base, s.kind.arity()))
            .collect();
        let density = SamplingDensity::one_in(100);
        let trials = bc_trials(TRIAGE_RUNS, seed, &BcTrialConfig::default());
        let overhead_trials = vec![ClientGroup {
            density,
            trials: trials.iter().step_by(2).cloned().collect(),
        }];
        Ok(Triage {
            seed,
            work_dir: work_dir.to_path_buf(),
            program,
            builds,
            trials: vec![ClientGroup { density, trials }],
            overhead_trials,
            groups,
            runs_per_s: Vec::new(),
            overhead_x: Vec::new(),
            analysis_s: Vec::new(),
            probe_reports: None,
            ingest: None,
            passes: 0,
            failed: 0,
            first: None,
            same_analysis: true,
            top5_positive_indx: true,
            paper_top5: Vec::new(),
            lambdas: Vec::new(),
        })
    }

    fn iteration(&mut self, tracer: &mut Tracer, counts: &mut Counts) -> StageResult<()> {
        let pass = self.passes;
        let group = &self.trials[0];
        let start = Instant::now();
        let result = tracer.span("workloads.campaign", pass, || {
            stages::campaign(
                &self.program,
                &group.trials,
                Scheme::ScalarPairs,
                group.density,
                self.seed,
                1,
            )
        })?;
        let campaign_s = start.elapsed().as_secs_f64();
        self.runs_per_s.push(group.trials.len() as f64 / campaign_s);
        let overhead = stages::overhead(&self.builds, &self.overhead_trials, self.seed, tracer)?;
        self.overhead_x.push(overhead);

        let start = Instant::now();
        let analysis = layers::analysis(&result, &self.groups, pass, tracer, counts);
        self.analysis_s.push(start.elapsed().as_secs_f64());
        self.passes += 1;
        if self.probe_reports.is_none() && self.ingest.is_none() {
            let sites = result.instrumented.sites.clone();
            self.probe_reports = Some((sites, result.collector.reports().to_vec()));
        }
        let analysis = match analysis {
            Ok(a) if a.isolations.iter().any(|i| i.2) => a,
            _ => {
                self.failed += 1;
                return Ok(());
            }
        };
        let top5 = analysis.study.top(5);
        self.top5_positive_indx &= top5
            .iter()
            .filter(|(_, beta)| *beta > 0.0)
            .all(|(name, _)| names_indx_in_more_arrays(name));
        self.paper_top5
            .push(top5.iter().all(|(name, _)| names_indx_in_more_arrays(name)));
        self.lambdas.push(analysis.study.lambda);
        let fingerprint = format!(
            "{:?} {:?} {:?} {}",
            analysis.study.top(10),
            analysis.isolations,
            analysis.survivors,
            analysis.study.lambda
        );
        match &self.first {
            None => self.first = Some(fingerprint),
            Some(first) => self.same_analysis &= *first == fingerprint,
        }
        Ok(())
    }

    fn probe(&mut self) -> StageResult<()> {
        if self.ingest.is_none() {
            let (sites, reports) = self
                .probe_reports
                .take()
                .ok_or("the ingest probe needs a campaign first")?;
            let envelopes = stages::make_envelopes(
                &reports,
                stages::layout_of(&sites),
                PROBE_ENVELOPES,
                INGEST_CLIENTS,
                self.seed,
            )?;
            let journal = journal_path(&self.work_dir, "triage");
            self.ingest = Some(IngestProbe::new(sites, envelopes, journal));
        }
        let ingest = self.ingest.as_mut().expect("built above");
        ingest.step(&mut Tracer::new(false))
    }

    fn report(&self, report: &mut RunReport) {
        report_client_metrics(report, &self.runs_per_s, &self.overhead_x);
        let empty = IngestSamples::new();
        let ingest = self.ingest.as_ref().map_or(&empty, |p| &p.samples);
        report_ingest_metrics(report, ingest);
        report.samples("analysis_s", "s", &self.analysis_s, Pick::Lowest);
        report_ingest_checks(report, ingest, "ingest probe");
    }

    fn checks(&mut self, report: &mut RunReport) -> StageResult<()> {
        report.attempted = self.passes;
        report.failed = self.failed;
        report.check(
            "triage: regress and isolate (at least one scorer completes) succeed on every pass",
            self.failed == 0,
        );
        report.check(
            "triage: every positive-coefficient predicate in the regression's top five names \
             indx in more_arrays()",
            self.top5_positive_indx,
        );
        report.check(
            "triage: every pass gives the same analysis",
            self.same_analysis,
        );
        let holds = self.paper_top5.iter().filter(|&&h| h).count();
        report.note(format!(
            "triage: paper result (all top five name indx in more_arrays()) held on {holds} of {} \
             passes; cross-validated lambda {:?}",
            self.paper_top5.len(),
            self.lambdas.first()
        ));
        Ok(())
    }

    fn layer_input(&self) -> LayerInput<'_> {
        LayerInput {
            source: BC_SOURCE,
            scheme: Scheme::ScalarPairs,
            density: 100,
            trials: &self.trials[0].trials[..REPLAY_TRIALS],
            seed: self.seed,
            clients: INGEST_CLIENTS,
            epoch_len: (REPLAY_TRIALS / 8) as u64,
            envelopes: None,
            covered: Covered {
                campaign_and_analysis: true,
                fleet: false,
            },
        }
    }
}
