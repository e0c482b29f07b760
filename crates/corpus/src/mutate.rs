//! AST mutation operators that plant a single labeled bug.
//!
//! Every store-indexing operator rewrites a candidate `p[i] = v;` into
//!
//! ```text
//! fault_t = <mutated index>;
//! p[fault_t] = v;
//! ```
//!
//! (possibly behind a broken guard), with `int fault_t = 0;` declared at
//! the top of the enclosing function.  Routing the faulty index through
//! the fresh `fault_t` temporary is what makes the ground truth
//! *identifiable*: the `checks` instrumentation scheme synthesizes a
//! bounds site per pure-indexed store, so the mutated program contains
//! exactly one site whose subject reads `0 <= fault_t < len(p)` — its
//! violated counter is the true predicate, and its text is stable under
//! the pretty-print/re-parse normalization the corpus applies before
//! recording an entry.
//!
//! The loop operator instead widens the program's buffer-digest loop
//! bound (`lc0 < len` → `lc0 <= len`), turning the digest load's
//! existing bounds site into the ground truth.  That read of one cell
//! past the end lands in heap slack, so it never crashes an
//! *uninstrumented* run — the bug only surfaces when sampling happens to
//! observe the violation, which is exactly the non-deterministic regime
//! the paper's sparse-sampling story is about.

use cbi_minic::ast::{BinOp, Block, Expr, Program, Stmt, UnOp};
use cbi_minic::{pretty, Span};

/// Name of the temporary a single-bug mutation routes its faulty index
/// through.  Multi-bug planting gives each fault its own temporary from
/// [`MULTI_FAULT_VARS`] so every planted site stays distinguishable.
pub const FAULT_VAR: &str = "fault_t";

/// Fault temporaries for multi-bug entries, in planting order.
pub const MULTI_FAULT_VARS: &[&str] = &["fault_t", "fault_u", "fault_v"];

/// A fault-injection operator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Operator {
    /// Widen the index clamp from `% len` to `% (len + 1)`: the index is
    /// valid except when it lands exactly one past the end.
    OffByOneIndex,
    /// Drop the clamp entirely: the raw generated expression indexes the
    /// buffer.
    DroppedBoundsCheck,
    /// Keep the clamp but add a constant offset to the result.  An
    /// offset smaller than the buffer makes the bug input-conditioned;
    /// an offset of at least the buffer length fires on every execution
    /// of the store.
    BadPointerOffset(i64),
    /// Guard the store with `0 <= i && i > len` — the comparison is
    /// flipped from `<`, so the store runs exactly when it is unsafe.
    FlippedComparison,
    /// Guard the store with `!(0 <= i && i < len)` — the right bounds
    /// check with the wrong polarity.
    WrongGuardPolarity,
    /// Widen the digest loop bound from `<` to `<=`, reading one cell
    /// past the buffer on the final iteration.
    OffByOneLoop,
}

impl Operator {
    /// Manifest name of the operator.
    pub fn name(&self) -> String {
        match self {
            Operator::OffByOneIndex => "off_by_one_index".to_string(),
            Operator::DroppedBoundsCheck => "dropped_bounds_check".to_string(),
            Operator::BadPointerOffset(k) => format!("bad_pointer_offset_{k}"),
            Operator::FlippedComparison => "flipped_comparison".to_string(),
            Operator::WrongGuardPolarity => "wrong_guard_polarity".to_string(),
            Operator::OffByOneLoop => "off_by_one_loop".to_string(),
        }
    }

    /// Whether, on testgen programs, a violation implies the run fails
    /// even without instrumentation.  True for every store operator: an
    /// out-of-bounds store either corrupts heap slack (caught at
    /// `free(buf)`) or faults outright.  False for the loop operator,
    /// whose out-of-bounds *read* is absorbed by heap slack.
    pub fn deterministic(&self) -> bool {
        !matches!(self, Operator::OffByOneLoop)
    }
}

/// A planted bug: the mutated program plus what identifies the ground
/// truth in its instrumented form.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The mutated program (not yet normalized).
    pub program: Program,
    /// Subject text of the unique bounds site guarding the fault; its
    /// violated counter is the true predicate.
    pub site_text: String,
    /// Whether a violation deterministically fails the run without
    /// instrumentation (see [`Operator::deterministic`]).
    pub deterministic: bool,
}

fn sp() -> Span {
    Span::new(1, 1)
}

fn is_int(e: &Expr, v: i64) -> bool {
    matches!(e, Expr::Int { value, .. } if *value == v)
}

/// Matches the testgen index clamp `((e % len + len) % len)` and returns
/// the raw inner expression `e`.
fn clamp_inner(e: &Expr, len: i64) -> Option<&Expr> {
    let Expr::Binary {
        op: BinOp::Mod,
        lhs,
        rhs,
        ..
    } = e
    else {
        return None;
    };
    if !is_int(rhs, len) {
        return None;
    }
    let Expr::Binary {
        op: BinOp::Add,
        lhs: sum_lhs,
        rhs: sum_rhs,
        ..
    } = &**lhs
    else {
        return None;
    };
    if !is_int(sum_rhs, len) {
        return None;
    }
    match &**sum_lhs {
        Expr::Binary {
            op: BinOp::Mod,
            lhs: inner,
            rhs: inner_rhs,
            ..
        } if is_int(inner_rhs, len) => Some(inner),
        _ => None,
    }
}

/// `((e % len + len) % len)` — the generator's own index clamp.
fn clamp_expr(e: Expr, len: i64) -> Expr {
    let m = Expr::binary(BinOp::Mod, e, Expr::int(len));
    let plus = Expr::binary(BinOp::Add, m, Expr::int(len));
    Expr::binary(BinOp::Mod, plus, Expr::int(len))
}

fn expr_is_pure(e: &Expr) -> bool {
    match e {
        Expr::Int { .. } | Expr::Null { .. } | Expr::Var { .. } => true,
        Expr::Call { .. } => false,
        Expr::Load { ptr, index, .. } => expr_is_pure(ptr) && expr_is_pure(index),
        Expr::Unary { expr, .. } => expr_is_pure(expr),
        Expr::Binary { lhs, rhs, .. } => expr_is_pure(lhs) && expr_is_pure(rhs),
    }
}

fn assign_fault(var: &str, value: Expr, span: Span) -> Stmt {
    Stmt::Assign {
        name: var.to_string(),
        value,
        span,
    }
}

fn fault_store(var: &str, target: String, value: Expr, span: Span) -> Stmt {
    Stmt::Store {
        target,
        index: Expr::var(var),
        value,
        span,
    }
}

/// `0 <= <var> && <var> <cmp> len`
fn range_guard(var: &str, cmp: BinOp, len: i64) -> Expr {
    Expr::binary(
        BinOp::And,
        Expr::binary(BinOp::Le, Expr::int(0), Expr::var(var)),
        Expr::binary(cmp, Expr::var(var), Expr::int(len)),
    )
}

type StoreBuilder<'a> = dyn Fn(String, Expr, Expr, Span) -> Vec<Stmt> + 'a;

/// Walks `stmts` (recursing into `if`/`while` bodies), replacing the
/// statement at global candidate index `nth` with the builder's output.
fn rewrite_nth_store(
    stmts: &mut Vec<Stmt>,
    counter: &mut usize,
    nth: usize,
    is_candidate: &dyn Fn(&Expr) -> bool,
    build: &StoreBuilder,
) -> Option<String> {
    let mut i = 0;
    while i < stmts.len() {
        let matched = matches!(&stmts[i], Stmt::Store { index, .. } if is_candidate(index));
        if matched {
            if *counter == nth {
                let Stmt::Store {
                    target,
                    index,
                    value,
                    span,
                } = stmts.remove(i)
                else {
                    unreachable!("matched a non-store");
                };
                let replacement = build(target.clone(), index, value, span);
                for (j, s) in replacement.into_iter().enumerate() {
                    stmts.insert(i + j, s);
                }
                return Some(target);
            }
            *counter += 1;
            i += 1;
            continue;
        }
        let found = match &mut stmts[i] {
            Stmt::If {
                then_block,
                else_block,
                ..
            } => rewrite_nth_store(&mut then_block.stmts, counter, nth, is_candidate, build)
                .or_else(|| {
                    else_block.as_mut().and_then(|b| {
                        rewrite_nth_store(&mut b.stmts, counter, nth, is_candidate, build)
                    })
                }),
            Stmt::While { body, .. } => {
                rewrite_nth_store(&mut body.stmts, counter, nth, is_candidate, build)
            }
            _ => None,
        };
        if found.is_some() {
            return found;
        }
        i += 1;
    }
    None
}

/// Counts candidate statements without mutating anything.
fn count_stores(block: &Block, is_candidate: &dyn Fn(&Expr) -> bool) -> usize {
    block
        .stmts
        .iter()
        .map(|s| match s {
            Stmt::Store { index, .. } if is_candidate(index) => 1,
            Stmt::If {
                then_block,
                else_block,
                ..
            } => {
                count_stores(then_block, is_candidate)
                    + else_block
                        .as_ref()
                        .map_or(0, |b| count_stores(b, is_candidate))
            }
            Stmt::While { body, .. } => count_stores(body, is_candidate),
            _ => 0,
        })
        .sum()
}

/// Plants at the `nth` candidate store anywhere in the program and
/// declares the `var` temporary in the enclosing function.  Returns
/// the mutated program and the store's target pointer name.
fn plant_at_store(
    program: &Program,
    nth: usize,
    var: &str,
    is_candidate: &dyn Fn(&Expr) -> bool,
    build: &StoreBuilder,
) -> Option<(Program, String)> {
    let mut mutated = program.clone();
    let mut counter = 0usize;
    for function in &mut mutated.functions {
        if let Some(target) = rewrite_nth_store(
            &mut function.body.stmts,
            &mut counter,
            nth,
            is_candidate,
            build,
        ) {
            function.body.stmts.insert(
                0,
                Stmt::Decl {
                    ty: cbi_minic::ast::Type::Int,
                    name: var.to_string(),
                    init: Some(Expr::int(0)),
                    span: sp(),
                },
            );
            return Some((mutated, target));
        }
    }
    None
}

/// Conservative name-collision guard: refuses programs that already
/// mention the given fault temporary anywhere.
fn mentions_var(program: &Program, var: &str) -> bool {
    pretty(program).contains(var)
}

/// Number of testgen-clamped stores (`p[((e % len + len) % len)] = v;`)
/// available as mutation candidates.
pub fn store_candidates(program: &Program, buf_len: i64) -> usize {
    let is_candidate = |index: &Expr| clamp_inner(index, buf_len).is_some();
    program
        .functions
        .iter()
        .map(|f| count_stores(&f.body, &is_candidate))
        .sum()
}

/// Number of pure-indexed stores available as workload mutation
/// candidates (the same purity rule the instrumenter uses to decide
/// which stores get bounds sites).
pub fn workload_candidates(program: &Program) -> usize {
    let is_candidate = |index: &Expr| expr_is_pure(index);
    program
        .functions
        .iter()
        .map(|f| count_stores(&f.body, &is_candidate))
        .sum()
}

/// Plants `op` into a testgen program at its `nth` candidate store (the
/// candidate index is ignored by [`Operator::OffByOneLoop`], which has a
/// single target).  Returns `None` when no candidate matches or the
/// program already uses the fault temporary.
pub fn plant_testgen(
    program: &Program,
    op: &Operator,
    nth: usize,
    buf_len: i64,
) -> Option<Mutation> {
    plant_testgen_named(program, op, nth, buf_len, FAULT_VAR)
}

/// [`plant_testgen`] with an explicit fault-temporary name, so a
/// multi-bug generator can plant several faults into one program and
/// keep each planted bounds site distinguishable by its variable.
pub fn plant_testgen_named(
    program: &Program,
    op: &Operator,
    nth: usize,
    buf_len: i64,
    var: &str,
) -> Option<Mutation> {
    if mentions_var(program, var) {
        return None;
    }
    if matches!(op, Operator::OffByOneLoop) {
        return plant_loop(program, buf_len);
    }
    let is_candidate = |index: &Expr| clamp_inner(index, buf_len).is_some();
    let deterministic = op.deterministic();
    let op = op.clone();
    let fv = var.to_string();
    let build = move |target: String, index: Expr, value: Expr, span: Span| -> Vec<Stmt> {
        let inner = clamp_inner(&index, buf_len)
            .expect("candidate store must carry the clamp")
            .clone();
        match &op {
            Operator::OffByOneIndex => vec![
                assign_fault(&fv, clamp_expr(inner, buf_len + 1), span),
                fault_store(&fv, target, value, span),
            ],
            Operator::DroppedBoundsCheck => {
                vec![
                    assign_fault(&fv, inner, span),
                    fault_store(&fv, target, value, span),
                ]
            }
            Operator::BadPointerOffset(k) => vec![
                assign_fault(
                    &fv,
                    Expr::binary(BinOp::Add, clamp_expr(inner, buf_len), Expr::int(*k)),
                    span,
                ),
                fault_store(&fv, target, value, span),
            ],
            Operator::FlippedComparison => vec![
                assign_fault(&fv, inner, span),
                Stmt::If {
                    cond: range_guard(&fv, BinOp::Gt, buf_len),
                    then_block: Block::new(vec![fault_store(&fv, target, value, span)]),
                    else_block: None,
                    span,
                },
            ],
            Operator::WrongGuardPolarity => vec![
                assign_fault(&fv, inner, span),
                Stmt::If {
                    cond: Expr::Unary {
                        op: UnOp::Not,
                        expr: Box::new(range_guard(&fv, BinOp::Lt, buf_len)),
                        span,
                    },
                    then_block: Block::new(vec![fault_store(&fv, target, value, span)]),
                    else_block: None,
                    span,
                },
            ],
            Operator::OffByOneLoop => unreachable!("handled above"),
        }
    };
    let (program, target) = plant_at_store(program, nth, var, &is_candidate, &build)?;
    Some(Mutation {
        program,
        site_text: format!("0 <= {var} < len({target})"),
        deterministic,
    })
}

/// Does the block contain a load `ptr_name[counter_name]`?
fn block_loads(block: &Block, ptr_name: &str, counter_name: &str) -> bool {
    fn expr_loads(e: &Expr, p: &str, c: &str) -> bool {
        match e {
            Expr::Load { ptr, index, .. } => {
                let direct = matches!(&**ptr, Expr::Var { name, .. } if name == p)
                    && matches!(&**index, Expr::Var { name, .. } if name == c);
                direct || expr_loads(ptr, p, c) || expr_loads(index, p, c)
            }
            Expr::Call { args, .. } => args.iter().any(|a| expr_loads(a, p, c)),
            Expr::Unary { expr, .. } => expr_loads(expr, p, c),
            Expr::Binary { lhs, rhs, .. } => expr_loads(lhs, p, c) || expr_loads(rhs, p, c),
            _ => false,
        }
    }
    fn stmt_loads(s: &Stmt, p: &str, c: &str) -> bool {
        match s {
            Stmt::Decl { init, .. } => init.as_ref().is_some_and(|e| expr_loads(e, p, c)),
            Stmt::Assign { value, .. } => expr_loads(value, p, c),
            Stmt::Store { index, value, .. } => expr_loads(index, p, c) || expr_loads(value, p, c),
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                expr_loads(cond, p, c)
                    || block_loads(then_block, p, c)
                    || else_block.as_ref().is_some_and(|b| block_loads(b, p, c))
            }
            Stmt::While { cond, body, .. } => expr_loads(cond, p, c) || block_loads(body, p, c),
            Stmt::Return { value, .. } => value.as_ref().is_some_and(|e| expr_loads(e, p, c)),
            Stmt::Expr { expr, .. } => expr_loads(expr, p, c),
            Stmt::Check { cond, .. } => expr_loads(cond, p, c),
            _ => false,
        }
    }
    block
        .stmts
        .iter()
        .any(|s| stmt_loads(s, ptr_name, counter_name))
}

/// Widens the unique digest loop `while (c < buf_len) { … p[c] … }` to
/// `<=`.  The digest load's own bounds site becomes the ground truth.
fn plant_loop(program: &Program, buf_len: i64) -> Option<Mutation> {
    // First pass: find every matching loop and what it loads.
    fn digest_loops(block: &Block, buf_len: i64, found: &mut Vec<(String, String)>) {
        for s in &block.stmts {
            match s {
                Stmt::While { cond, body, .. } => {
                    if let Expr::Binary {
                        op: BinOp::Lt,
                        lhs,
                        rhs,
                        ..
                    } = cond
                    {
                        if let (Expr::Var { name, .. }, true) = (&**lhs, is_int(rhs, buf_len)) {
                            // The loop must actually read ptr[counter].
                            let ptrs: Vec<String> = ptr_names(body);
                            for p in ptrs {
                                if block_loads(body, &p, name) {
                                    found.push((name.clone(), p));
                                    break;
                                }
                            }
                        }
                    }
                    digest_loops(body, buf_len, found);
                }
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    digest_loops(then_block, buf_len, found);
                    if let Some(b) = else_block {
                        digest_loops(b, buf_len, found);
                    }
                }
                _ => {}
            }
        }
    }
    fn ptr_names(block: &Block) -> Vec<String> {
        // Testgen programs have one heap pointer; collect load targets.
        fn exprs(e: &Expr, out: &mut Vec<String>) {
            match e {
                Expr::Load { ptr, index, .. } => {
                    if let Expr::Var { name, .. } = &**ptr {
                        if !out.contains(name) {
                            out.push(name.clone());
                        }
                    }
                    exprs(ptr, out);
                    exprs(index, out);
                }
                Expr::Call { args, .. } => args.iter().for_each(|a| exprs(a, out)),
                Expr::Unary { expr, .. } => exprs(expr, out),
                Expr::Binary { lhs, rhs, .. } => {
                    exprs(lhs, out);
                    exprs(rhs, out);
                }
                _ => {}
            }
        }
        let mut out = Vec::new();
        for s in &block.stmts {
            if let Stmt::Expr { expr, .. } = s {
                exprs(expr, &mut out);
            }
        }
        out
    }
    let mut found = Vec::new();
    for f in &program.functions {
        digest_loops(&f.body, buf_len, &mut found);
    }
    // The ground truth must be unambiguous: exactly one digest loop.
    if found.len() != 1 {
        return None;
    }
    let (counter_name, ptr_name) = found.remove(0);
    // Second pass: flip the unique loop's comparison in a clone.
    fn widen(block: &mut Block, counter: &str, buf_len: i64) -> bool {
        for s in &mut block.stmts {
            match s {
                Stmt::While { cond, body, .. } => {
                    if let Expr::Binary { op, lhs, rhs, .. } = cond {
                        if *op == BinOp::Lt
                            && matches!(&**lhs, Expr::Var { name, .. } if name == counter)
                            && is_int(rhs, buf_len)
                        {
                            *op = BinOp::Le;
                            return true;
                        }
                    }
                    if widen(body, counter, buf_len) {
                        return true;
                    }
                }
                Stmt::If {
                    then_block,
                    else_block,
                    ..
                } => {
                    if widen(then_block, counter, buf_len) {
                        return true;
                    }
                    if let Some(b) = else_block {
                        if widen(b, counter, buf_len) {
                            return true;
                        }
                    }
                }
                _ => {}
            }
        }
        false
    }
    let mut mutated = program.clone();
    let mut done = false;
    for f in &mut mutated.functions {
        if widen(&mut f.body, &counter_name, buf_len) {
            done = true;
            break;
        }
    }
    if !done {
        return None;
    }
    Some(Mutation {
        program: mutated,
        site_text: format!("0 <= {counter_name} < len({ptr_name})"),
        deterministic: false,
    })
}

/// Plants a bad-pointer-offset bug into a workload program (`ccrypt`,
/// `bc`): the `nth` pure-indexed store has `offset` added to its index
/// via the fault temporary.  Violations are input-conditioned and not
/// guaranteed to crash uninstrumented runs, so the mutation is marked
/// non-deterministic; corpus validation decides empirically whether the
/// planted bug actually manifests.
pub fn plant_workload(program: &Program, nth: usize, offset: i64) -> Option<Mutation> {
    if mentions_var(program, FAULT_VAR) {
        return None;
    }
    let is_candidate = |index: &Expr| expr_is_pure(index);
    let build = move |target: String, index: Expr, value: Expr, span: Span| -> Vec<Stmt> {
        vec![
            assign_fault(
                FAULT_VAR,
                Expr::binary(BinOp::Add, index, Expr::int(offset)),
                span,
            ),
            fault_store(FAULT_VAR, target, value, span),
        ]
    };
    let (program, target) = plant_at_store(program, nth, FAULT_VAR, &is_candidate, &build)?;
    Some(Mutation {
        program,
        site_text: format!("0 <= {FAULT_VAR} < len({target})"),
        deterministic: false,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::{parse, resolve};
    use cbi_testgen::program_for_seed;

    fn seed_with_store() -> (u64, Program) {
        for seed in 0..64 {
            let p = program_for_seed(seed);
            if store_candidates(&p, 8) > 0 {
                return (seed, p);
            }
        }
        panic!("no seed in 0..64 generates a store");
    }

    #[test]
    fn store_operators_plant_and_resolve() {
        let (_, p) = seed_with_store();
        for op in [
            Operator::OffByOneIndex,
            Operator::DroppedBoundsCheck,
            Operator::BadPointerOffset(4),
            Operator::BadPointerOffset(8),
            Operator::FlippedComparison,
            Operator::WrongGuardPolarity,
        ] {
            let m = plant_testgen(&p, &op, 0, 8).expect("plant must succeed");
            assert_eq!(m.site_text, "0 <= fault_t < len(buf)");
            assert!(m.deterministic, "{op:?} is a deterministic store bug");
            let src = pretty(&m.program);
            assert!(src.contains(FAULT_VAR), "mutation must route via fault_t");
            let reparsed = parse(&src).expect("mutant must parse");
            resolve(&reparsed).expect("mutant must resolve");
            assert_ne!(src, pretty(&p), "mutation must change the program");
        }
    }

    #[test]
    fn loop_operator_widens_the_digest_loop() {
        let p = program_for_seed(0);
        let m = plant_testgen(&p, &Operator::OffByOneLoop, 0, 8).expect("digest loop exists");
        assert!(!m.deterministic, "slack read never crashes uninstrumented");
        assert_eq!(m.site_text, "0 <= lc0 < len(buf)");
        let src = pretty(&m.program);
        assert!(src.contains("lc0 <= 8"), "loop bound must widen: {src}");
        resolve(&parse(&src).unwrap()).expect("mutant must resolve");
    }

    #[test]
    fn candidate_indices_address_distinct_stores() {
        let mut seen = std::collections::HashSet::new();
        let (_, p) = seed_with_store();
        let n = store_candidates(&p, 8);
        for nth in 0..n {
            let m = plant_testgen(&p, &Operator::DroppedBoundsCheck, nth, 8).unwrap();
            assert!(
                seen.insert(pretty(&m.program)),
                "candidate {nth} duplicated"
            );
        }
        assert!(plant_testgen(&p, &Operator::DroppedBoundsCheck, n, 8).is_none());
    }

    #[test]
    fn workload_planting_targets_pure_stores() {
        let p = cbi_workloads::ccrypt_program();
        let n = workload_candidates(&p);
        assert!(n > 0, "ccrypt must expose pure-indexed stores");
        let m = plant_workload(&p, 0, 4).expect("plant must succeed");
        assert!(!m.deterministic);
        let src = pretty(&m.program);
        resolve(&parse(&src).unwrap()).expect("mutant must resolve");
        assert!(m.site_text.starts_with("0 <= fault_t < len("));
    }

    #[test]
    fn named_planting_stacks_distinct_faults_in_one_program() {
        // Find a program with at least two candidate stores.
        let p = (0..256)
            .map(program_for_seed)
            .find(|p| store_candidates(p, 8) >= 2)
            .expect("some seed in 0..256 generates two stores");
        let n = store_candidates(&p, 8);
        // Plant descending: the rewritten store leaves the candidate
        // list, so lower indices stay valid for the second plant.
        let m1 =
            plant_testgen_named(&p, &Operator::DroppedBoundsCheck, n - 1, 8, "fault_u").unwrap();
        assert_eq!(m1.site_text, "0 <= fault_u < len(buf)");
        assert_eq!(store_candidates(&m1.program, 8), n - 1);
        let m2 =
            plant_testgen_named(&m1.program, &Operator::OffByOneIndex, 0, 8, "fault_v").unwrap();
        assert_eq!(m2.site_text, "0 <= fault_v < len(buf)");
        let src = pretty(&m2.program);
        assert!(src.contains("fault_u") && src.contains("fault_v"));
        resolve(&parse(&src).unwrap()).expect("stacked mutant must resolve");
        // Re-planting an already-used temporary is refused.
        assert!(
            plant_testgen_named(&m2.program, &Operator::OffByOneIndex, 0, 8, "fault_u").is_none()
        );
    }

    #[test]
    fn planting_refuses_fault_var_collisions() {
        let p = parse(
            "fn main() -> int { int fault_t = 0; ptr b = alloc(8);
              b[((fault_t % 8 + 8) % 8)] = 1; free(b); return 0; }",
        )
        .unwrap();
        assert!(plant_testgen(&p, &Operator::DroppedBoundsCheck, 0, 8).is_none());
    }
}
