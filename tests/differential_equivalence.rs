//! Differential tests over randomly generated MiniC programs: the whole
//! instrumentation/sampling stack must be semantically transparent,
//! sampled observation counts must stay within the unconditional
//! envelope, and the bytecode engine must agree with the name-map
//! reference engine end to end.
//!
//! Driven by `cbi-testgen`'s seeded generator, so every failing case is
//! reproducible from its seed.

use cbi::prelude::*;
use cbi_testgen::program_for_seed;
use cbi_vm::Engine;

const CASES: u64 = 48;

fn run_plain(program: &cbi::minic::Program) -> Vec<i64> {
    let r = Vm::new(program).run().expect("vm config");
    assert!(
        r.outcome.is_success(),
        "generated program must run clean, got {:?}",
        r.outcome
    );
    r.output
}

/// Sampling never changes what the program computes — for every scheme,
/// at multiple densities.
#[test]
fn transformed_programs_compute_identically() {
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        let expected = run_plain(&p);
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&p, scheme).expect("instrument");

            // Unconditional build.
            let r = Vm::new(&inst.program)
                .with_sites(&inst.sites)
                .run()
                .expect("vm config");
            assert!(
                r.outcome.is_success(),
                "seed {seed} {scheme}: {:?}",
                r.outcome
            );
            assert_eq!(&r.output, &expected, "seed {seed} unconditional {scheme}");

            // Sampled build.
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            for density in [1u64, 3, 50] {
                let r = Vm::new(&sampled)
                    .with_sites(&inst.sites)
                    .with_sampling(Box::new(Geometric::new(
                        SamplingDensity::one_in(density),
                        seed,
                    )))
                    .run()
                    .expect("vm config");
                assert!(
                    r.outcome.is_success(),
                    "seed {seed} {scheme} 1/{density}: {:?}",
                    r.outcome
                );
                assert_eq!(
                    &r.output, &expected,
                    "seed {seed} sampled {scheme} 1/{density}"
                );
            }
        }
    }
}

/// Sampled counters are bounded by unconditional counters, and at
/// density 1 the sampled build observes exactly what the unconditional
/// build observes.
#[test]
fn sampled_counts_within_unconditional_envelope() {
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        let inst = instrument(&p, Scheme::Checks).expect("instrument");
        let uncond = Vm::new(&inst.program)
            .with_sites(&inst.sites)
            .run()
            .expect("vm config");

        let (sampled, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");

        let always = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::always(), seed)))
            .run()
            .expect("vm config");
        assert_eq!(
            &always.counters, &uncond.counters,
            "seed {seed}: density 1 must observe everything"
        );

        let sparse = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(10), seed)))
            .run()
            .expect("vm config");
        for (i, (&s, &u)) in sparse.counters.iter().zip(&uncond.counters).enumerate() {
            assert!(
                s <= u,
                "seed {seed} counter {i}: sampled {s} > unconditional {u}"
            );
        }
    }
}

/// Transformation options never change semantics, only cost.
#[test]
fn all_transform_variants_agree() {
    use cbi::instrument::CountdownStorage;
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        let expected = run_plain(&p);
        let inst = instrument(&p, Scheme::Checks).expect("instrument");
        let variants = [
            TransformOptions::default(),
            TransformOptions {
                coalesce: false,
                ..TransformOptions::default()
            },
            TransformOptions {
                countdown: CountdownStorage::Global,
                ..TransformOptions::default()
            },
            TransformOptions {
                regions: false,
                ..TransformOptions::default()
            },
            TransformOptions {
                interprocedural: false,
                ..TransformOptions::default()
            },
        ];
        for (vi, options) in variants.iter().enumerate() {
            let (sampled, _) = apply_sampling(&inst.program, options).expect("transform");
            let r = Vm::new(&sampled)
                .with_sites(&inst.sites)
                .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(7), 3)))
                .run()
                .expect("vm config");
            assert!(
                r.outcome.is_success(),
                "seed {seed} variant {vi}: {:?}",
                r.outcome
            );
            assert_eq!(&r.output, &expected, "seed {seed} variant {vi}");
        }
    }
}

/// The pretty-printed transformed program re-parses and still computes
/// the same results — the transformation emits genuine MiniC.
#[test]
fn transformed_source_is_real_minic() {
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        let expected = run_plain(&p);
        let inst = instrument(&p, Scheme::Returns).expect("instrument");
        let (sampled, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
        let reparsed = parse(&pretty(&sampled)).expect("transformed source parses");
        cbi::minic::resolve_relaxed(&reparsed).expect("transformed source resolves");
        let r = Vm::new(&reparsed)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(5), 11)))
            .run()
            .expect("vm config");
        assert_eq!(&r.output, &expected, "seed {seed}");
    }
}

/// The full sampled pipeline produces identical reports under both
/// interpreter engines: lowering and compiling to bytecode is invisible
/// to the analyses.
#[test]
fn bytecode_engine_is_transparent_through_the_pipeline() {
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        let inst = instrument(&p, Scheme::ScalarPairs).expect("instrument");
        let (sampled, _) =
            apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
        let bc = cbi_vm::bytecode::compile(&cbi::minic::lower(&sampled));

        let reference = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(3), seed)))
            .with_engine(Engine::NameMap)
            .run()
            .expect("vm config");
        let fast = Vm::from_bytecode(&bc)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(3), seed)))
            .run()
            .expect("vm config");
        assert_eq!(reference, fast, "seed {seed}");
    }
}
