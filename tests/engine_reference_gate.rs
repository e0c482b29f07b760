//! Engine reference gate: the bytecode dispatch VM must be
//! byte-identical to the name-map reference interpreter over
//! the whole in-tree corpus — the `examples/` programs plus every
//! workload analogue — across all four observation schemes, both
//! unconditional and sampled, with trace capture on.  Full [`RunResult`]
//! equality: outcome, op count, counter vector, program output, and the
//! bounded observation trace.

use cbi::prelude::*;
use cbi::workloads::{BC_SOURCE, BENCHMARK_SOURCES, CCRYPT_SOURCE};
use cbi_vm::Engine;

const SCHEMES: [Scheme; 4] = [
    Scheme::Checks,
    Scheme::Returns,
    Scheme::ScalarPairs,
    Scheme::Branches,
];

/// Every MiniC source the repository ships, by name.
fn corpus() -> Vec<(String, String)> {
    let mut sources = Vec::new();
    let examples = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../examples");
    let mut entries: Vec<_> = std::fs::read_dir(&examples)
        .expect("examples directory")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "mc"))
        .collect();
    entries.sort();
    assert!(!entries.is_empty(), "examples corpus must not be empty");
    for path in entries {
        let name = path.file_name().unwrap().to_string_lossy().into_owned();
        let src = std::fs::read_to_string(&path).expect("read example");
        sources.push((name, src));
    }
    for (name, src) in BENCHMARK_SOURCES {
        sources.push((format!("bench/{name}"), (*src).to_string()));
    }
    sources.push(("ccrypt".into(), CCRYPT_SOURCE.to_string()));
    sources.push(("bc".into(), BC_SOURCE.to_string()));
    sources
}

/// Runs `program` under both engines with identical configuration and
/// asserts full result equality.  Crashes are fine — the engines must
/// crash identically.
fn assert_engines_agree(
    label: &str,
    program: &Program,
    sites: &SiteTable,
    density: Option<SamplingDensity>,
) {
    let input = [5i64, 3, 7, 2, 9, 1, 4, 8, 6, 10];
    let bytecode = cbi_vm::bytecode::compile(&cbi::minic::lower(program));

    let mut reference = Vm::new(program);
    reference
        .with_engine(Engine::NameMap)
        .with_sites(sites)
        .with_input(&input[..])
        .with_trace(16);
    let mut dispatch = Vm::from_bytecode(&bytecode);
    dispatch
        .with_sites(sites)
        .with_input(&input[..])
        .with_trace(16);
    if let Some(d) = density {
        reference.with_sampling(Box::new(Geometric::new(d, 0xabc)));
        dispatch.with_sampling(Box::new(Geometric::new(d, 0xabc)));
    }

    let r = reference.run().expect("vm config");
    let b = dispatch.run().expect("vm config");
    assert_eq!(r, b, "{label}: bytecode engine diverged from reference");
}

#[test]
fn engines_match_reference_across_corpus_and_schemes() {
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        for scheme in SCHEMES {
            let inst = instrument(&program, scheme).expect("instrument");
            assert_engines_agree(
                &format!("{name} {scheme:?} unconditional"),
                &inst.program,
                &inst.sites,
                None,
            );
            let (transformed, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            assert_engines_agree(
                &format!("{name} {scheme:?} sampled"),
                &transformed,
                &inst.sites,
                Some(SamplingDensity::one_in(3)),
            );
        }
    }
}

#[test]
fn engines_match_across_sampling_density_sweep() {
    // Density shifts which region entries take the slow path, so it
    // exercises different fast/slow block interleavings of the same
    // compiled dual-path bytecode.
    let densities = [1u64, 3, 13, 101, 1009];
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inst = instrument(&program, Scheme::Branches).expect("instrument");
        let (transformed, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
        for d in densities {
            assert_engines_agree(
                &format!("{name} density 1/{d}"),
                &transformed,
                &inst.sites,
                Some(SamplingDensity::one_in(d)),
            );
        }
    }
}

#[test]
fn campaign_reports_identical_across_engines_and_jobs() {
    // The whole pipeline, not just one VM: a ccrypt campaign must emit a
    // bit-identical report stream whichever engine executes the trials,
    // at any job count, for every scheme.
    use cbi::workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};
    let program = ccrypt_program();
    let trials = ccrypt_trials(90, 17, &CcryptTrialConfig::default());
    for scheme in SCHEMES {
        let config = CampaignConfig::sampled(scheme, SamplingDensity::one_in(10));
        let baseline = run_campaign(&program, &trials, &config.with_engine(Engine::NameMap))
            .expect("namemap campaign");
        for engine in [Engine::Bytecode, Engine::NameMap] {
            for jobs in [1usize, 2, 4] {
                let run = run_campaign(
                    &program,
                    &trials,
                    &config.with_engine(engine).with_jobs(jobs),
                )
                .expect("campaign");
                assert_eq!(
                    baseline.collector.reports(),
                    run.collector.reports(),
                    "{scheme:?} {} jobs={jobs}: report stream diverged",
                    engine.name()
                );
                assert_eq!(baseline.dropped, run.dropped, "{scheme:?} jobs={jobs}");
            }
        }
    }
}

#[test]
fn corpus_scores_identical_across_engines() {
    // The isolation-quality harness replays campaigns per corpus entry;
    // its rendered report must not depend on the engine.
    use cbi_corpus::{evaluate, generate_corpus, render_report, EvalConfig, GenerateConfig};
    let entries = generate_corpus(&GenerateConfig {
        size: 3,
        seed: 11,
        trials: 24,
    })
    .expect("corpus")
    .entries;
    let eval = |engine: Engine| {
        let report = evaluate(
            &entries,
            &EvalConfig {
                densities: vec![1, 100],
                jobs: 2,
                engine,
                ..EvalConfig::default()
            },
        )
        .expect("evaluate");
        render_report(&report)
    };
    assert_eq!(
        eval(Engine::NameMap),
        eval(Engine::Bytecode),
        "bytecode corpus eval diverged"
    );
}

#[test]
fn engines_agree_on_empty_input() {
    // The no-input path exercises `has_input() == 0` branches (the ccrypt
    // EOF crash among them); both engines must take them identically.
    for (name, src) in corpus() {
        let program = parse(&src).unwrap_or_else(|e| panic!("{name}: {e}"));
        let inst = instrument(&program, Scheme::Returns).expect("instrument");
        let bytecode = cbi_vm::bytecode::compile(&cbi::minic::lower(&inst.program));
        let r = Vm::new(&inst.program)
            .with_engine(Engine::NameMap)
            .with_sites(&inst.sites)
            .with_trace(16)
            .run()
            .expect("vm config");
        let b = Vm::from_bytecode(&bytecode)
            .with_sites(&inst.sites)
            .with_trace(16)
            .run()
            .expect("vm config");
        assert_eq!(r, b, "{name}: bytecode engine diverged on empty input");
    }
}
