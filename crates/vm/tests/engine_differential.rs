//! Differential equivalence of the bytecode hot-path engine against the
//! name-map reference engine.
//!
//! For every random program from `cbi-testgen` — plain, unconditionally
//! instrumented, and sampling-transformed — both engines must produce the
//! *entire* [`cbi_vm::RunResult`] identically: outcome, op count, counter
//! vector, output, and trace.  Op-count equality is the strongest check:
//! it fails if the two engines disagree about a single charge anywhere.

use cbi_instrument::{apply_sampling, instrument, Scheme, TransformOptions};
use cbi_minic::{lower, Program};
use cbi_sampler::{CountdownBank, SamplingDensity};
use cbi_testgen::program_for_seed;
use cbi_vm::bytecode::{compile, BcProgram};
use cbi_vm::{Engine, RunOutcome, Vm};

fn build(p: &Program) -> BcProgram {
    compile(&lower(p))
}

const SEEDS: u64 = 150;

#[test]
fn engines_agree_on_plain_programs() {
    for seed in 0..SEEDS {
        let p = program_for_seed(seed);
        let reference = Vm::new(&p)
            .with_engine(Engine::NameMap)
            .with_trace(16)
            .run()
            .unwrap();
        let bc = build(&p);
        let fast = Vm::from_bytecode(&bc).with_trace(16).run().unwrap();
        assert_eq!(reference, fast, "seed {seed}");
        assert_eq!(reference.outcome, RunOutcome::Success(0), "seed {seed}");
    }
}

#[test]
fn engines_agree_on_instrumented_programs() {
    let schemes = [
        Scheme::Checks,
        Scheme::Returns,
        Scheme::ScalarPairs,
        Scheme::Branches,
    ];
    for seed in 0..SEEDS {
        let p = program_for_seed(seed);
        let scheme = schemes[(seed % 4) as usize];
        let inst = instrument(&p, scheme).unwrap();
        let reference = Vm::new(&inst.program)
            .with_sites(&inst.sites)
            .with_engine(Engine::NameMap)
            .with_trace(16)
            .run()
            .unwrap();
        let bc = build(&inst.program);
        let fast = Vm::from_bytecode(&bc)
            .with_sites(&inst.sites)
            .with_trace(16)
            .run()
            .unwrap();
        assert_eq!(reference, fast, "seed {seed} scheme {scheme}");
    }
}

#[test]
fn engines_agree_on_sampled_programs() {
    let density = SamplingDensity::one_in(10);
    for seed in 0..SEEDS {
        let p = program_for_seed(seed);
        let inst = instrument(&p, Scheme::Branches).unwrap();
        let (sampled, _) = apply_sampling(&inst.program, &TransformOptions::default()).unwrap();

        let bank = CountdownBank::generate(density, 256, seed);
        let reference = Vm::new(&sampled)
            .with_sites(&inst.sites)
            .with_sampling(Box::new(bank.clone()))
            .with_engine(Engine::NameMap)
            .run()
            .unwrap();

        // The bytecode engine additionally exercises the borrowed-source
        // and borrowed-input paths of the builder.
        let bc = build(&sampled);
        let mut shared_bank = bank;
        let input: Vec<i64> = Vec::new();
        let fast = Vm::from_bytecode(&bc)
            .with_sites(&inst.sites)
            .with_sampling_ref(&mut shared_bank)
            .with_input(&input[..])
            .run()
            .unwrap();
        assert_eq!(reference, fast, "seed {seed}");
    }
}

/// The bytecode engine preserves the *dynamic* name-lookup semantics of
/// the reference engine on programs the static resolver would reject.
#[test]
fn engines_agree_on_unchecked_name_lookup_edge_cases() {
    let cases = [
        // Use before declaration traps.
        "fn main() -> int { int y = x; int x = 1; return y; }",
        // Use before declaration falls back to a same-named global.
        "int x = 7; fn main() -> int { int y = x; int x = 1; return y + x; }",
        // Assignment before declaration writes the global.
        "int x = 1; fn main() -> int { x = 5; int x = 2; return x; }",
        // Entirely undefined names trap on read and write.
        "fn main() -> int { return ghost; }",
        "fn main() -> int { ghost = 1; return 0; }",
        // Undefined callee traps after arguments-free dispatch.
        "fn main() -> int { ghost(1); return 0; }",
        // Duplicate functions: later definition wins for calls.
        "fn f() -> int { return 1; } fn f() -> int { return 2; } \
         fn main() -> int { print(f()); return 0; }",
        // Declaration persists past its block (function-flat frames).
        "fn main() -> int { if (1) { int x = 3; } return x; }",
    ];
    for (i, src) in cases.iter().enumerate() {
        let p = cbi_minic::parse(src).unwrap();
        let reference = Vm::new(&p).with_engine(Engine::NameMap).run().unwrap();
        let bc = build(&p);
        let fast = Vm::from_bytecode(&bc).run().unwrap();
        assert_eq!(reference, fast, "case {i}: {src}");
    }
}

/// `Engine::NameMap` cannot run a bytecode-only VM: that is a
/// configuration error, not a panic.
#[test]
fn namemap_engine_rejects_bytecode_programs() {
    let p = cbi_minic::parse("fn main() -> int { return 0; }").unwrap();
    let bc = build(&p);
    let err = Vm::from_bytecode(&bc)
        .with_engine(Engine::NameMap)
        .run()
        .unwrap_err();
    assert!(err.to_string().contains("name-map engine"), "{err}");
}
