//! Campaign throughput: the seed's serial name-map campaign loop against
//! the compiled, sharded `run_campaign` (§2.5 contemplates millions
//! of runs, so driver throughput is the experiment bottleneck).
//!
//! The baseline reconstructs the pre-optimization code path exactly: the
//! name-map interpreter, a cloned input vector per trial, and a freshly
//! allocated boxed countdown bank per trial.  Both paths must produce
//! bit-identical report streams; wall-clock times and the speedup land in
//! `BENCH_campaign.json` at the repository root.

use cbi::instrument::{apply_sampling, instrument, Scheme};
use cbi::reports::{Collector, Label, Report};
use cbi::sampler::{CountdownBank, SamplingDensity};
use cbi::vm::{Engine, RunOutcome, Vm};
use cbi::workloads::{
    ccrypt_program, ccrypt_trials, run_campaign, CampaignConfig, CcryptTrialConfig,
};
use std::time::{Duration, Instant};

const TRIALS: usize = 2000;
const JOBS: usize = 8;
/// Wall-clock repetitions per path; the minimum is reported, which
/// discards scheduler noise on shared machines.
const REPS: usize = 5;

/// The seed's `run_campaign` inner loop, verbatim in spirit: name-map
/// engine, `input.clone()` per trial, `Box<CountdownBank>` per trial.
fn baseline_campaign(
    program: &cbi::minic::Program,
    trials: &[Vec<i64>],
    config: &CampaignConfig,
) -> (Collector, usize) {
    let inst = instrument(program, config.scheme).expect("instrument");
    let (executable, _) = apply_sampling(&inst.program, &config.transform).expect("transform");
    let mut collector = Collector::new(inst.sites.total_counters());
    let mut dropped = 0;
    for (i, input) in trials.iter().enumerate() {
        let bank = CountdownBank::generate(
            config.density.expect("sampled config"),
            config.bank_size,
            config.seed.wrapping_add(i as u64),
        );
        let result = Vm::new(&executable)
            .with_engine(Engine::NameMap)
            .with_sites(&inst.sites)
            .with_input(input.clone())
            .with_op_limit(config.op_limit)
            .with_heap_slack(config.heap_slack)
            .with_sampling(Box::new(bank))
            .run()
            .expect("vm config");
        let label = match result.outcome {
            RunOutcome::Success(_) => Label::Success,
            RunOutcome::Crash(_) | RunOutcome::AssertionFailure(_) => Label::Failure,
            RunOutcome::OpLimit => {
                dropped += 1;
                continue;
            }
        };
        collector
            .add(Report::new(i as u64, label, result.counters))
            .expect("one layout");
    }
    (collector, dropped)
}

fn main() {
    let program = ccrypt_program();
    let trials = ccrypt_trials(TRIALS, 77, &CcryptTrialConfig::default());
    let config = CampaignConfig::sampled(Scheme::Returns, SamplingDensity::one_in(100));

    // Interleave the two paths so machine-load drift hits both equally,
    // and keep the minimum of each: the cleanest wall-clock estimate a
    // shared box allows.
    let mut baseline = Duration::MAX;
    let mut parallel = Duration::MAX;
    let mut baseline_out = None;
    let mut result = None;
    for _ in 0..REPS {
        let start = Instant::now();
        let out = baseline_campaign(&program, &trials, &config);
        baseline = baseline.min(start.elapsed());
        baseline_out = Some(out);

        let start = Instant::now();
        let out = run_campaign(&program, &trials, &config.with_jobs(JOBS)).expect("campaign");
        parallel = parallel.min(start.elapsed());
        result = Some(out);
    }
    let (baseline_reports, baseline_dropped) = baseline_out.expect("REPS > 0");
    let result = result.expect("REPS > 0");

    assert_eq!(
        baseline_reports.reports(),
        result.collector.reports(),
        "optimized campaign must reproduce the seed report stream"
    );
    assert_eq!(baseline_dropped, result.dropped);

    let speedup = baseline.as_secs_f64() / parallel.as_secs_f64();
    println!("campaign_throughput: {TRIALS} ccrypt trials, returns @ 1/100, jobs={JOBS}");
    println!(
        "  seed baseline {:>9.3} s   optimized {:>9.3} s   speedup {speedup:.2}x",
        baseline.as_secs_f64(),
        parallel.as_secs_f64()
    );

    // Engine comparison: the identical serial campaign on every engine.
    // The streams must be bit-identical — only the wall clock may move.
    let serial = config.with_jobs(1);
    let mut engine_times: Vec<(Engine, Duration)> = Vec::new();
    for engine in [Engine::NameMap, Engine::Bytecode] {
        let mut best = Duration::MAX;
        for _ in 0..REPS {
            let start = Instant::now();
            let out =
                run_campaign(&program, &trials, &serial.with_engine(engine)).expect("campaign");
            best = best.min(start.elapsed());
            assert_eq!(
                baseline_reports.reports(),
                out.collector.reports(),
                "{} campaign must reproduce the seed report stream",
                engine.name()
            );
        }
        engine_times.push((engine, best));
    }
    let secs_of = |needle: Engine| {
        engine_times
            .iter()
            .find(|(e, _)| *e == needle)
            .expect("measured")
            .1
            .as_secs_f64()
    };
    let namemap_secs = secs_of(Engine::NameMap);
    let mut engine_rows = String::new();
    for (engine, t) in &engine_times {
        let secs = t.as_secs_f64();
        println!(
            "  engine {:>8}: {secs:>9.3} s   {:>9.0} runs/s   {:.2}x vs namemap",
            engine.name(),
            TRIALS as f64 / secs,
            namemap_secs / secs,
        );
        if !engine_rows.is_empty() {
            engine_rows.push_str(",\n");
        }
        engine_rows.push_str(&format!(
            "    {{\"engine\": \"{}\", \"seconds\": {secs:.6}, \"runs_per_sec\": {:.0}, \"speedup_vs_namemap\": {:.3}}}",
            engine.name(),
            TRIALS as f64 / secs,
            namemap_secs / secs,
        ));
    }
    let bytecode_vs_namemap = namemap_secs / secs_of(Engine::Bytecode);

    // Instrumented vs stripped: the same trials through the
    // observation-free binary (sites stripped — the paper's baseline
    // build), namemap vs bytecode.  This isolates the dispatch-loop gain
    // from instrumentation and sampling bookkeeping.
    let stripped = cbi::instrument::strip_sites(
        &instrument(&program, config.scheme)
            .expect("instrument")
            .program,
    );
    let stripped_bc = cbi::vm::bytecode::compile(&cbi::minic::lower(&stripped));
    let mut stripped_rows = String::new();
    let mut stripped_namemap_secs = 0.0f64;
    for engine in [Engine::NameMap, Engine::Bytecode] {
        let mut best = Duration::MAX;
        for _ in 0..REPS {
            let start = Instant::now();
            for input in &trials {
                let mut vm = match engine {
                    Engine::Bytecode => Vm::from_bytecode(&stripped_bc),
                    Engine::NameMap => Vm::new(&stripped),
                };
                vm.with_engine(engine)
                    .with_input(&input[..])
                    .with_op_limit(config.op_limit)
                    .with_heap_slack(config.heap_slack)
                    .run()
                    .expect("vm config");
            }
            best = best.min(start.elapsed());
        }
        let secs = best.as_secs_f64();
        if engine == Engine::NameMap {
            stripped_namemap_secs = secs;
        }
        println!(
            "  stripped {:>8}: {secs:>9.3} s   {:>9.0} runs/s   {:.2}x vs namemap",
            engine.name(),
            TRIALS as f64 / secs,
            stripped_namemap_secs / secs,
        );
        if !stripped_rows.is_empty() {
            stripped_rows.push_str(",\n");
        }
        stripped_rows.push_str(&format!(
            "    {{\"engine\": \"{}\", \"seconds\": {secs:.6}, \"runs_per_sec\": {:.0}, \"speedup_vs_namemap\": {:.3}}}",
            engine.name(),
            TRIALS as f64 / secs,
            stripped_namemap_secs / secs,
        ));
    }

    // Telemetry overhead: the same campaign with the sink off vs on, at
    // each job level.  The off timing is the tax every ordinary run pays
    // (one relaxed atomic load per record site); the issue budget is <2%.
    let mut telemetry_rows = String::new();
    for jobs in [1usize, JOBS] {
        let jobs_config = config.with_jobs(jobs);
        let mut off = Duration::MAX;
        let mut on = Duration::MAX;
        for _ in 0..REPS {
            let start = Instant::now();
            let out_off = run_campaign(&program, &trials, &jobs_config).expect("campaign");
            off = off.min(start.elapsed());

            cbi::telemetry::reset();
            cbi::telemetry::enable();
            let start = Instant::now();
            let out_on = run_campaign(&program, &trials, &jobs_config).expect("campaign");
            on = on.min(start.elapsed());
            cbi::telemetry::disable();
            cbi::telemetry::collect(); // drain the buffers between reps

            assert_eq!(
                out_off.collector.reports(),
                out_on.collector.reports(),
                "telemetry recording must not change the report stream"
            );
        }
        let overhead = (on.as_secs_f64() / off.as_secs_f64() - 1.0) * 100.0;
        println!(
            "  telemetry jobs={jobs}: off {:>9.3} s   on {:>9.3} s   overhead {overhead:+.1}%",
            off.as_secs_f64(),
            on.as_secs_f64()
        );
        if !telemetry_rows.is_empty() {
            telemetry_rows.push_str(",\n");
        }
        telemetry_rows.push_str(&format!(
            "    {{\"jobs\": {jobs}, \"off_seconds\": {:.6}, \"on_seconds\": {:.6}, \"overhead_pct\": {overhead:.2}}}",
            off.as_secs_f64(),
            on.as_secs_f64(),
        ));
    }

    // Wire codec throughput: encode/decode the campaign's report stream
    // and compare against the JSONL archive format on both size and
    // speed.  These are the numbers that decide whether remote
    // collection can keep up with the campaign driver.
    let reports = result.collector.reports();
    let layout_hash = result.instrumented.sites.layout_hash();
    let counters = result.instrumented.sites.total_counters();

    let mut encode = Duration::MAX;
    let mut decode = Duration::MAX;
    let mut jsonl_encode = Duration::MAX;
    let mut wire_bytes = 0usize;
    let mut jsonl_bytes = 0usize;
    for _ in 0..REPS {
        let start = Instant::now();
        let bytes =
            cbi::reports::wire::encode_reports(reports, layout_hash, counters).expect("encode");
        encode = encode.min(start.elapsed());
        wire_bytes = bytes.len();

        let start = Instant::now();
        let (decoded, _) = cbi::reports::wire::read_collector(bytes.as_slice()).expect("decode");
        decode = decode.min(start.elapsed());
        assert_eq!(decoded.reports(), reports, "wire must round-trip exactly");

        let mut jsonl = Vec::new();
        let start = Instant::now();
        result.collector.write_jsonl(&mut jsonl).expect("jsonl");
        jsonl_encode = jsonl_encode.min(start.elapsed());
        jsonl_bytes = jsonl.len();
    }
    let n = reports.len() as f64;
    let encode_rps = n / encode.as_secs_f64();
    let decode_rps = n / decode.as_secs_f64();
    let jsonl_rps = n / jsonl_encode.as_secs_f64();
    let wire_bpr = wire_bytes as f64 / n;
    let jsonl_bpr = jsonl_bytes as f64 / n;
    println!(
        "  wire encode {encode_rps:>11.0} rep/s   ingest {decode_rps:>11.0} rep/s   {wire_bpr:.1} B/report"
    );
    println!(
        "  jsonl encode {jsonl_rps:>10.0} rep/s   {jsonl_bpr:.1} B/report   binary is {:.2}x smaller",
        jsonl_bpr / wire_bpr
    );
    let wire_rows = format!(
        "    {{\"format\": \"binary\", \"encode_reports_per_sec\": {encode_rps:.0}, \"ingest_reports_per_sec\": {decode_rps:.0}, \"bytes_per_report\": {wire_bpr:.2}}},\n    {{\"format\": \"jsonl\", \"encode_reports_per_sec\": {jsonl_rps:.0}, \"bytes_per_report\": {jsonl_bpr:.2}}}"
    );

    let json = format!(
        "{{\n  \"benchmark\": \"ccrypt\",\n  \"scheme\": \"returns\",\n  \"density\": \"1/100\",\n  \"trials\": {TRIALS},\n  \"jobs\": {JOBS},\n  \"reports\": {},\n  \"dropped\": {},\n  \"baseline_seconds\": {:.6},\n  \"optimized_seconds\": {:.6},\n  \"speedup\": {speedup:.3},\n  \"bytecode_vs_namemap\": {bytecode_vs_namemap:.3},\n  \"engines\": [\n{engine_rows}\n  ],\n  \"stripped\": [\n{stripped_rows}\n  ],\n  \"telemetry\": [\n{telemetry_rows}\n  ],\n  \"wire\": [\n{wire_rows}\n  ]\n}}\n",
        result.collector.len(),
        result.dropped,
        baseline.as_secs_f64(),
        parallel.as_secs_f64(),
    );
    let out = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_campaign.json");
    std::fs::write(out, json).expect("write BENCH_campaign.json");
    println!("  wrote {out}");
}
