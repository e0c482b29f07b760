//! The pipeline stages every workload drives: client runs (sampled and
//! uninstrumented), batch envelopes, and stop-and-wait ingest into the
//! sharded, journaled TCP server.

use crate::stats::percentile;
use crate::trace::Tracer;
use cbi::prelude::*;
use cbi::reports::frame::read_ack;
use cbi::reports::{decode_batch, wire, AckVerdict, BatchEnvelope};
use cbi::sampler::{LazyBank, Pcg32};
use cbi::vm::bytecode::{self, BcProgram};
use cbi::EpochAggregator;
use cbi_fleet::ChannelSpec;
use cbi_serve::{
    render_analysis, FsyncPolicy, IngestCore, ServeConfig, ServeSummary, ServerOptions,
    TcpIngestServer,
};
use std::io::{BufReader, Write as _};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Reports per batch, as a client spools them.
pub const BATCH_SIZE: usize = 16;
/// Ingest connections; each is a stop-and-wait client.
pub const CONNECTIONS: usize = 2;
/// Server worker shards.
pub const SHARDS: usize = 2;
/// Journal fsync policy of the ingest server.
pub const FSYNC: FsyncPolicy = FsyncPolicy::EveryN(4096);
/// Predicates in the rendered analysis.
pub const TOP: usize = 10;

/// The fleet's in-memory channel: one retry after a 14% drop, so about
/// 2% of batches are lost.
pub fn lossy_channel() -> ChannelSpec {
    ChannelSpec {
        drop: 0.14,
        max_retries: 1,
        ..ChannelSpec::default()
    }
}

/// Error type of the stages: a description of what went wrong.
pub type StageResult<T> = Result<T, String>;

/// Maps any displayable error into a stage error with context.
pub fn ctx<E: std::fmt::Display>(what: &'static str) -> impl Fn(E) -> String {
    move |e| format!("{what}: {e}")
}

/// A client program compiled to bytecode twice: instrumented and
/// sampled, and uninstrumented (what a user's run costs without CBI).
pub struct ClientBuilds {
    /// Site table of the instrumented build.
    pub sites: SiteTable,
    /// The instrumented, sampled build.
    pub sampled: BcProgram,
    /// The uninstrumented build.
    pub base: BcProgram,
}

/// Compiles both builds of `program`.
pub fn client_builds(program: &Program, scheme: Scheme) -> StageResult<ClientBuilds> {
    let inst = instrument(program, scheme).map_err(ctx("instrument"))?;
    let (sampled, _) =
        apply_sampling(&inst.program, &TransformOptions::default()).map_err(ctx("transform"))?;
    Ok(ClientBuilds {
        sites: inst.sites,
        sampled: bytecode::compile(&cbi::minic::lower(&sampled)),
        base: bytecode::compile(&cbi::minic::lower(program)),
    })
}

/// Sampled client runs: a serial campaign at one density, collected into
/// an in-memory `Collector`.
pub fn campaign(
    program: &Program,
    trials: &[Vec<i64>],
    scheme: Scheme,
    density: SamplingDensity,
    seed: u64,
    jobs: usize,
) -> StageResult<CampaignResult> {
    let mut config = CampaignConfig::sampled(scheme, density).with_jobs(jobs);
    config.seed = seed;
    run_campaign(program, trials, &config).map_err(ctx("campaign"))
}

/// Sampled time ÷ uninstrumented time over the same trials, serially on
/// the bytecode engine.  The two builds alternate run by run (and which
/// goes first alternates too), so a slow spell of the machine hits both
/// sides alike.  Uninstrumented runs are recorded as `vm.baseline_run`
/// spans.
pub fn overhead(
    builds: &ClientBuilds,
    groups: &[ClientGroup],
    seed: u64,
    tracer: &mut Tracer,
) -> StageResult<f64> {
    let (mut sampled_s, mut base_s) = (0.0, 0.0);
    for g in groups {
        let mut bank = LazyBank::new(g.density, 1024, seed);
        for (i, trial) in g.trials.iter().enumerate() {
            bank.reseed(g.density, seed.wrapping_add(i as u64));
            let mut sampled = || -> StageResult<f64> {
                let start = Instant::now();
                Vm::from_bytecode(&builds.sampled)
                    .with_sites(&builds.sites)
                    .with_input(&trial[..])
                    .with_sampling_ref(&mut bank)
                    .run()
                    .map_err(ctx("sampled run"))?;
                Ok(start.elapsed().as_secs_f64())
            };
            let mut base = || -> StageResult<f64> {
                let start = Instant::now();
                tracer
                    .span("vm.baseline_run", i as u64, || {
                        Vm::from_bytecode(&builds.base).with_input(&trial[..]).run()
                    })
                    .map_err(ctx("baseline run"))?;
                Ok(start.elapsed().as_secs_f64())
            };
            if i % 2 == 0 {
                sampled_s += sampled()?;
                base_s += base()?;
            } else {
                base_s += base()?;
                sampled_s += sampled()?;
            }
        }
    }
    Ok(sampled_s / base_s)
}

/// One group of client trials sampled at one density.
pub struct ClientGroup {
    /// Sampling density of the group.
    pub density: SamplingDensity,
    /// The group's inputs.
    pub trials: Vec<Vec<i64>>,
}

/// What the client stage measured.
#[derive(Debug, Default)]
pub struct ClientSamples {
    /// Sampled runs per second, one sample per pass.
    pub runs_per_s: Vec<f64>,
    /// Sampled time ÷ uninstrumented time, one sample per pass.
    pub overhead_x: Vec<f64>,
}

/// One client sample: a timed campaign over every group, then an
/// [`overhead`] pass over the same trials.
pub fn client_pass(
    program: &Program,
    builds: &ClientBuilds,
    scheme: Scheme,
    groups: &[ClientGroup],
    seed: u64,
    out: &mut ClientSamples,
) -> StageResult<()> {
    let runs: usize = groups.iter().map(|g| g.trials.len()).sum();
    let start = Instant::now();
    for g in groups {
        std::hint::black_box(campaign(program, &g.trials, scheme, g.density, seed, 1)?);
    }
    out.runs_per_s
        .push(runs as f64 / start.elapsed().as_secs_f64());
    let overhead = overhead(builds, groups, seed, &mut Tracer::new(false))?;
    out.overhead_x.push(overhead);
    Ok(())
}

/// A stream of batch envelopes, pre-encoded for the wire.
pub struct Envelopes {
    /// Counter layout of every payload.
    pub layout: ReportLayout,
    /// The envelopes, in send order.
    pub envelopes: Vec<BatchEnvelope>,
    /// Wire bytes of each envelope's first send.
    pub wire: Vec<Vec<u8>>,
    /// Wire bytes of the second send, for envelopes sent twice.
    pub resend: Vec<Option<Vec<u8>>>,
    /// Reports inside all envelopes.
    pub reports: u64,
}

impl Envelopes {
    /// Envelopes sent twice (lost acks).
    pub fn resent(&self) -> u64 {
        self.resend.iter().filter(|r| r.is_some()).count() as u64
    }
}

/// Builds `count` envelopes of [`BATCH_SIZE`] reports each, cycling
/// through `reports` and renumbering run ids so each report is distinct.
/// Envelopes belong to seeded client ids below `clients`, each client
/// numbering its batches from 0; a seeded 1% are sent twice.
pub fn make_envelopes(
    reports: &[Report],
    layout: ReportLayout,
    count: usize,
    clients: u64,
    seed: u64,
) -> StageResult<Envelopes> {
    if reports.is_empty() {
        return Err("no reports to batch".to_string());
    }
    let mut rng = Pcg32::with_stream(seed, 0xba7c);
    let mut next_seq = vec![0u64; clients as usize];
    let mut out = Envelopes {
        layout,
        envelopes: Vec::with_capacity(count),
        wire: Vec::with_capacity(count),
        resend: Vec::with_capacity(count),
        reports: 0,
    };
    let mut batch = Vec::with_capacity(BATCH_SIZE);
    for e in 0..count {
        batch.clear();
        for i in 0..BATCH_SIZE {
            let run = (e * BATCH_SIZE + i) as u64;
            let mut r = reports[run as usize % reports.len()].clone();
            r.run_id = run;
            batch.push(r);
        }
        let payload = wire::encode_reports(&batch, layout.layout_hash, layout.counters)
            .map_err(ctx("encode batch"))?;
        let client = rng.below(clients);
        let seq = next_seq[client as usize];
        next_seq[client as usize] += 1;
        let envelope = BatchEnvelope::new(client, seq, 0, payload);
        let resend = (rng.below(100) == 0).then(|| {
            let mut again = envelope.clone();
            again.attempt = 1;
            again.encode()
        });
        out.wire.push(envelope.encode());
        out.resend.push(resend);
        out.envelopes.push(envelope);
        out.reports += BATCH_SIZE as u64;
    }
    Ok(out)
}

/// The layout of an instrumented site table.
pub fn layout_of(sites: &SiteTable) -> ReportLayout {
    ReportLayout {
        counters: sites.total_counters(),
        layout_hash: sites.layout_hash(),
    }
}

/// The server configuration every ingest pass uses.
pub fn serve_config(epoch_len: u64) -> ServeConfig {
    ServeConfig {
        shards: SHARDS,
        epoch_len,
        ..ServeConfig::default()
    }
}

/// What one ingest pass measured.
#[derive(Debug)]
pub struct IngestRun {
    /// First send to last ack, in seconds.
    pub elapsed_s: f64,
    /// Send-to-accept time of every batch, in microseconds.
    pub ack_us: Vec<f64>,
    /// Last ack to rendered analysis, in seconds.
    pub analysis_s: f64,
    /// The rendered analysis.
    pub rendered: String,
    /// The server's ingest accounting.
    pub summary: ServeSummary,
    /// Batches whose final verdict was neither accepted nor duplicate.
    pub failed: u64,
    /// Overloaded NACKs the clients retried.
    pub shed: u64,
}

/// One client connection: stop-and-wait over every `CONNECTIONS`-th
/// envelope starting at `conn`.
struct ConnResult {
    ack_us: Vec<f64>,
    failed: u64,
    shed: u64,
    last_ack: Instant,
}

fn client_connection(addr: SocketAddr, env: &Envelopes, conn: usize) -> StageResult<ConnResult> {
    let mut stream = TcpStream::connect(addr).map_err(ctx("connect"))?;
    stream.set_nodelay(true).map_err(ctx("nodelay"))?;
    let mut reader = BufReader::new(stream.try_clone().map_err(ctx("clone stream"))?);
    let mut out = ConnResult {
        ack_us: Vec::with_capacity(env.wire.len() / CONNECTIONS + 1),
        failed: 0,
        shed: 0,
        last_ack: Instant::now(),
    };
    for i in (conn..env.wire.len()).step_by(CONNECTIONS) {
        let start = Instant::now();
        let mut ok = true;
        for bytes in [Some(&env.wire[i]), env.resend[i].as_ref()]
            .into_iter()
            .flatten()
        {
            while ok {
                stream.write_all(bytes).map_err(ctx("send"))?;
                let ack = read_ack(&mut reader)
                    .map_err(ctx("read ack"))?
                    .ok_or("server closed before acking")?;
                match ack.verdict {
                    AckVerdict::Accepted | AckVerdict::Duplicate => break,
                    AckVerdict::Overloaded => out.shed += 1,
                    _ => {
                        ok = false;
                        break;
                    }
                }
            }
        }
        out.last_ack = Instant::now();
        // A batch that fails misses any latency limit.
        let us = (out.last_ack - start).as_secs_f64() * 1e6;
        out.ack_us.push(if ok { us } else { f64::INFINITY });
        out.failed += u64::from(!ok);
    }
    Ok(out)
}

/// Serves `env` once: binds a fresh server with a journal at `journal`,
/// sends every envelope over [`CONNECTIONS`] stop-and-wait clients, waits
/// for the shutdown fold and renders the analysis.
pub fn ingest_pass(
    sites: &SiteTable,
    env: &Envelopes,
    epoch_len: u64,
    journal: &Path,
) -> StageResult<IngestRun> {
    let core = IngestCore::new(sites.clone(), serve_config(epoch_len))
        .map_err(ctx("ingest core"))?
        .with_journal(journal, FSYNC)
        .map_err(ctx("journal"))?;
    let server = TcpIngestServer::bind(
        core,
        "127.0.0.1:0",
        ServerOptions {
            acceptors: CONNECTIONS,
            max_clients: CONNECTIONS as u64,
        },
    )
    .map_err(ctx("bind"))?;
    let addr = server.local_addr().map_err(ctx("local addr"))?;
    // The server runs on this thread, so its shutdown fold always
    // allocates from the same heap and the peak resident size repeats.
    let (start, conns, outcome) = std::thread::scope(|s| {
        let start = Instant::now();
        let conns: Vec<_> = (0..CONNECTIONS)
            .map(|conn| s.spawn(move || client_connection(addr, env, conn)))
            .collect();
        let outcome = server.run();
        let conns: Vec<StageResult<ConnResult>> = conns
            .into_iter()
            .map(|h| h.join().unwrap_or_else(|_| Err("client panicked".into())))
            .collect();
        (start, conns, outcome)
    });
    let outcome = outcome.map_err(ctx("serve"))?;
    let rendered = render_analysis(&outcome.aggregator, TOP);
    let done = Instant::now();
    std::fs::remove_file(journal).map_err(ctx("remove journal"))?;
    let mut run = IngestRun {
        elapsed_s: 0.0,
        ack_us: Vec::with_capacity(env.wire.len()),
        analysis_s: 0.0,
        rendered,
        summary: outcome.summary,
        failed: 0,
        shed: 0,
    };
    let mut last_ack = start;
    for conn in conns {
        let conn = conn?;
        last_ack = last_ack.max(conn.last_ack);
        run.ack_us.extend(conn.ack_us);
        run.failed += conn.failed;
        run.shed += conn.shed;
    }
    run.elapsed_s = (last_ack - start).as_secs_f64();
    run.analysis_s = (done - last_ack).as_secs_f64();
    Ok(run)
}

/// Folds decoded batches into a fresh `EpochAggregator` the way the
/// server's shutdown fold does, with no shards, transport or journal.
pub fn fold(
    sites: &SiteTable,
    layout: ReportLayout,
    batches: impl IntoIterator<Item = StageResult<Vec<Report>>>,
    epoch_len: u64,
) -> StageResult<EpochAggregator> {
    let config = serve_config(epoch_len);
    let mut aggregator = EpochAggregator::new(sites.clone(), epoch_len, config.streaming, None);
    aggregator.begin(layout).map_err(ctx("fold begin"))?;
    for batch in batches {
        for report in batch? {
            aggregator.accept(report).map_err(ctx("fold"))?;
        }
    }
    if !aggregator.runs().is_multiple_of(epoch_len) || aggregator.snapshots().is_empty() {
        aggregator.snapshot_now();
    }
    Ok(aggregator)
}

/// The analysis an ingest pass must render: an in-process fold of the
/// same envelopes, decoded one at a time.
pub fn reference_render(sites: &SiteTable, env: &Envelopes, epoch_len: u64) -> StageResult<String> {
    let mut order: Vec<&BatchEnvelope> = env.envelopes.iter().collect();
    order.sort_by_key(|e| (e.seq, e.client));
    let batches = order.into_iter().map(|e| {
        decode_batch(&e.payload, Some(env.layout))
            .map(|(reports, _, _)| reports)
            .map_err(ctx("decode batch"))
    });
    let aggregator = fold(sites, env.layout, batches, epoch_len)?;
    Ok(render_analysis(&aggregator, TOP))
}

/// Samples from repeated ingest passes.
#[derive(Debug)]
pub struct IngestSamples {
    /// Reports committed per second, one sample per pass.
    pub reports_per_s: Vec<f64>,
    /// Median send-to-accept time of each pass, in microseconds.
    pub ack_p50_us: Vec<f64>,
    /// 99th-percentile send-to-accept time of each pass, in microseconds.
    pub ack_p99_us: Vec<f64>,
    /// Last ack to rendered analysis, one sample per pass.
    pub analysis_s: Vec<f64>,
    /// Batches sent (distinct envelopes), over all passes.
    pub batches: u64,
    /// Batches that failed.
    pub failed: u64,
    /// Overloaded NACKs retried.
    pub shed: u64,
    /// Every pass committed each batch exactly once.
    pub committed_once: bool,
    /// Every pass rendered the reference analysis.
    pub matches_reference: bool,
    /// Highest shard queue depth seen.
    pub queue_high_water: u64,
}

impl IngestSamples {
    /// No passes yet.
    pub fn new() -> IngestSamples {
        IngestSamples {
            reports_per_s: Vec::new(),
            ack_p50_us: Vec::new(),
            ack_p99_us: Vec::new(),
            analysis_s: Vec::new(),
            batches: 0,
            failed: 0,
            shed: 0,
            committed_once: true,
            matches_reference: true,
            queue_high_water: 0,
        }
    }

    /// Adds one pass over `env`, which must have rendered `reference`.
    pub fn record(&mut self, mut run: IngestRun, env: &Envelopes, reference: &str) {
        self.reports_per_s
            .push(run.summary.reports as f64 / run.elapsed_s);
        run.ack_us.sort_by(f64::total_cmp);
        self.ack_p50_us.push(percentile(&run.ack_us, 5000));
        self.ack_p99_us.push(percentile(&run.ack_us, 9900));
        self.analysis_s.push(run.analysis_s);
        self.batches += env.envelopes.len() as u64;
        self.failed += run.failed;
        self.shed += run.shed;
        self.committed_once &= run.summary.batches == env.envelopes.len() as u64
            && run.summary.duplicates == env.resent()
            && run.summary.reports == env.reports;
        self.matches_reference &= run.rendered == reference;
        let high = run
            .summary
            .queue_high_water
            .iter()
            .copied()
            .max()
            .unwrap_or(0);
        self.queue_high_water = self.queue_high_water.max(high);
    }
}

/// Repeated ingest passes over one envelope set, each checked against
/// an in-process fold of the same envelopes.
pub struct IngestProbe {
    sites: SiteTable,
    env: Envelopes,
    epoch_len: u64,
    journal: PathBuf,
    reference: Option<String>,
    /// What the passes measured.
    pub samples: IngestSamples,
}

impl IngestProbe {
    /// A probe serving `env` for `sites`, journaling at `journal`.
    pub fn new(sites: SiteTable, env: Envelopes, journal: PathBuf) -> IngestProbe {
        IngestProbe {
            sites,
            epoch_len: env.reports / 8,
            env,
            journal,
            reference: None,
            samples: IngestSamples::new(),
        }
    }

    /// The envelopes served.
    pub fn envelopes(&self) -> &Envelopes {
        &self.env
    }

    /// Runs per epoch snapshot in the served analysis.
    pub fn epoch_len(&self) -> u64 {
        self.epoch_len
    }

    /// One ingest pass, recorded into `tracer` as `ingest.pass`.  The
    /// reference fold is computed, untimed, before the first pass.
    pub fn step(&mut self, tracer: &mut Tracer) -> StageResult<()> {
        if self.reference.is_none() {
            let reference = reference_render(&self.sites, &self.env, self.epoch_len)?;
            self.reference = Some(reference);
        }
        let pass = self.samples.reports_per_s.len() as u64;
        let run = tracer.span("ingest.pass", pass, || {
            ingest_pass(&self.sites, &self.env, self.epoch_len, &self.journal)
        })?;
        let reference = self.reference.as_deref().expect("computed above");
        self.samples.record(run, &self.env, reference);
        Ok(())
    }
}
