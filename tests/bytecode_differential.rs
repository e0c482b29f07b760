//! Seeded differential fuzzing of the bytecode dispatch engine against
//! the name-map reference walker: over random generated programs, every
//! scheme, and a density sweep, the two engines must produce bit-equal
//! [`cbi_vm::RunResult`]s — outcome, op count, counters, output, trace.
//!
//! Trap behaviour is fuzzed separately with handwritten programs that
//! crash in every category (the generator only emits clean programs).

use cbi::prelude::*;
use cbi_testgen::program_for_seed;

const CASES: u64 = 48;

fn run_both(
    label: &str,
    program: &Program,
    sites: Option<&SiteTable>,
    density: Option<(u64, u64)>,
    input: &[i64],
) {
    let bytecode = cbi_vm::bytecode::compile(&cbi::minic::lower(program));

    let mut reference = Vm::new(program);
    reference.with_engine(Engine::NameMap);
    let mut bc_vm = Vm::from_bytecode(&bytecode);
    for vm in [&mut reference, &mut bc_vm] {
        vm.with_input(input.to_vec()).with_trace(16);
        if let Some(t) = sites {
            vm.with_sites(t);
        }
        if let Some((d, seed)) = density {
            vm.with_sampling(Box::new(Geometric::new(SamplingDensity::one_in(d), seed)));
        }
    }

    let r = reference.run().expect("namemap vm config");
    let b = bc_vm.run().expect("bytecode vm config");
    assert_eq!(
        r, b,
        "{label}: bytecode engine diverged from namemap engine"
    );
}

#[test]
fn generated_programs_agree_across_schemes_and_densities() {
    for seed in 0..CASES {
        let p = program_for_seed(seed);
        run_both(&format!("seed {seed} plain"), &p, None, None, &[]);
        for scheme in [
            Scheme::Checks,
            Scheme::Returns,
            Scheme::ScalarPairs,
            Scheme::Branches,
        ] {
            let inst = instrument(&p, scheme).expect("instrument");
            run_both(
                &format!("seed {seed} {scheme} unconditional"),
                &inst.program,
                Some(&inst.sites),
                None,
                &[],
            );
            let (sampled, _) =
                apply_sampling(&inst.program, &TransformOptions::default()).expect("transform");
            for density in [1u64, 7, 100] {
                run_both(
                    &format!("seed {seed} {scheme} 1/{density}"),
                    &sampled,
                    Some(&inst.sites),
                    Some((density, seed)),
                    &[],
                );
            }
        }
    }
}

#[test]
fn trap_programs_agree() {
    // One program per crash category, plus type errors that only dynamic
    // (unresolved) programs can reach.  Both engines must produce the
    // same outcome, op count, and partial output.
    let cases: &[(&str, &str)] = &[
        ("null_deref", "fn main() -> int { ptr p = null; return p[0]; }"),
        ("div_zero", "fn main() -> int { int a = read(); return 10 / (a - a); }"),
        ("mod_zero", "fn main() -> int { return 3 % 0; }"),
        (
            "oob_store",
            "fn main() -> int { ptr p = alloc(2); p[57] = 1; free(p); return 0; }",
        ),
        (
            "use_after_free",
            "fn main() -> int { ptr p = alloc(4); free(p); return p[0]; }",
        ),
        (
            "double_free",
            "fn main() -> int { ptr p = alloc(4); free(p); free(p); return 0; }",
        ),
        (
            "index_non_pointer",
            "fn main() -> int { int a = 4; print(1); return a[0]; }",
        ),
        (
            "store_non_pointer",
            "fn main() -> int { int a = 4; a[1] = 2; return 0; }",
        ),
        (
            "ptr_arith_mismatch",
            "fn main() -> int { ptr p = alloc(2); ptr q = alloc(2); int d = p - q; free(p); free(q); return d; }",
        ),
        (
            "compare_ptr_int",
            "fn main() -> int { ptr p = alloc(1); if (p < 3) { print(1); } free(p); return 0; }",
        ),
        (
            "exit_mid_loop",
            "fn main() -> int { int i = 0; while (1) { i = i + 1; if (i > 3) { exit(42); } } return 0; }",
        ),
        (
            "explicit_exit_code",
            "fn main() -> int { print(9); exit(7); return 0; }",
        ),
        (
            "free_non_pointer",
            "fn main() -> int { free(12); return 0; }",
        ),
        (
            "len_null",
            "fn main() -> int { return len(null); }",
        ),
        (
            "logical_non_int",
            "fn main() -> int { ptr p = alloc(1); if (p && 1) { print(1); } free(p); return 0; }",
        ),
        (
            "unary_non_int",
            "fn main() -> int { return -null; }",
        ),
        (
            "deferred_obs_arg_error",
            // `__cmp` evaluates every argument and reports the first
            // error afterwards: the print side effect must land even
            // though the middle argument crashed.
            "fn boom() -> int { return 1 / 0; } fn main() -> int { __cmp(0, boom(), print(5)); return 0; }",
        ),
        (
            "deferred_obs_both_error",
            "fn main() -> int { ptr p = null; __cmp(0, p[0], p[1]); return 0; }",
        ),
        (
            "obs_sign_arg_error",
            "fn main() -> int { __obs_sign(0, 1 / 0); print(3); return 0; }",
        ),
    ];
    for (name, src) in cases {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        run_both(name, &program, None, None, &[3, 1]);
    }
}

#[test]
fn stack_overflow_agrees() {
    // Depth-limited rather than default: the debug-build walker eats
    // far more Rust stack per MiniC frame than the test thread has at
    // the 256-frame default, while the bytecode engine never recurses.
    let src = "fn f(int n) -> int { return f(n + 1); } fn main() -> int { return f(0); }";
    let program = parse(src).expect("parse");
    let bytecode = cbi_vm::bytecode::compile(&cbi::minic::lower(&program));
    for depth in [1usize, 2, 64] {
        let s = Vm::new(&program)
            .with_engine(Engine::NameMap)
            .with_max_depth(depth)
            .run()
            .expect("vm config");
        let b = Vm::from_bytecode(&bytecode)
            .with_max_depth(depth)
            .run()
            .expect("vm config");
        assert_eq!(s, b, "depth {depth}");
        assert!(
            matches!(
                s.outcome,
                RunOutcome::Crash(cbi_vm::CrashKind::StackOverflow)
            ),
            "depth {depth}: {:?}",
            s.outcome
        );
    }
}

#[test]
fn op_limit_aborts_agree_on_outcome() {
    // Charge fusion may alter the exact op count of a run that dies at
    // the limit (the fused charge lands at once where the walker trickles
    // it), but the outcome and everything the pipeline consumes must
    // match.
    let src = "fn main() -> int { int i = 0; while (1) { i = i + 1; } return 0; }";
    let program = parse(src).expect("parse");
    let bytecode = cbi_vm::bytecode::compile(&cbi::minic::lower(&program));
    for limit in [10u64, 1_000, 54_321] {
        let s = Vm::new(&program)
            .with_engine(Engine::NameMap)
            .with_op_limit(limit)
            .run()
            .expect("vm config");
        let b = Vm::from_bytecode(&bytecode)
            .with_op_limit(limit)
            .run()
            .expect("vm config");
        assert_eq!(s.outcome, b.outcome, "limit {limit}");
        assert_eq!(s.counters, b.counters, "limit {limit}");
        assert_eq!(s.output, b.output, "limit {limit}");
    }
}

#[test]
fn dynamic_name_semantics_agree() {
    // Unchecked programs lean on dynamic lookup: use-before-declaration,
    // locals shadowing globals only after their declaration executes,
    // undefined variables and functions.  `resolve` would reject these;
    // the engines must trap (or not) identically.
    let cases: &[(&str, &str)] = &[
        (
            "use_before_decl",
            "fn main() -> int { print(x); int x = 3; return 0; }",
        ),
        (
            "shadow_after_decl",
            "int g = 10; fn main() -> int { print(g); int g = 1; print(g); return 0; }",
        ),
        (
            "assign_before_decl",
            "fn main() -> int { x = 5; int x = 1; return 0; }",
        ),
        (
            "undefined_function",
            "fn main() -> int { print(1); return nope(3); }",
        ),
        (
            "undefined_global_write",
            "int g = 1; fn main() -> int { h = 2; return 0; }",
        ),
        (
            "arity_mismatch_extra",
            "fn f(int a) -> int { return a; } fn main() -> int { return f(1, 2, 3); }",
        ),
        (
            "arity_mismatch_missing",
            "fn f(int a, int b) -> int { return b; } fn main() -> int { return f(1); }",
        ),
    ];
    for (name, src) in cases {
        let program = parse(src).unwrap_or_else(|e| panic!("{name}: {e}"));
        run_both(name, &program, None, None, &[]);
    }
}
