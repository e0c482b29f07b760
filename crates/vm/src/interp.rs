//! The MiniC interpreter.
//!
//! A deterministic tree-walking evaluator with:
//!
//! * function-level flat frames (sound because the resolver forbids
//!   shadowing; required because the sampling transformation clones
//!   declarations into both arms of threshold checks);
//! * the corruptible [`crate::heap::Heap`];
//! * scripted integer input (`read`/`has_input`) and an output log;
//! * the sampling runtime: observation builtins update the report counter
//!   vector, `__next_cd()` refills from a [`CountdownSource`], and the
//!   `__gcd` global is seeded at startup;
//! * op-cost accounting per [`CostModel`] for the overhead experiments.
//!
//! Two engines share this front end: the bytecode dispatch loop
//! ([`crate::bytecode_interp`], the default) executing compiled
//! [`BcProgram`]s, and the name-map tree walker in this module, kept as
//! the reference implementation for differential testing and
//! benchmarking.  Both share the engine-independent run state and value
//! semantics in [`crate::runtime`].

use crate::cost::CostModel;
use crate::heap::DEFAULT_SLACK;
use crate::outcome::{CrashKind, RunOutcome};
use crate::runtime::{saturating_i64, Flow, RunCore, Trap};
use crate::value::Value;
use cbi_bytecode::BcProgram;
use cbi_instrument::SiteTable;
use cbi_minic::ast::*;
use cbi_minic::builtins::GLOBAL_COUNTDOWN;
use cbi_minic::Builtin;
use cbi_sampler::CountdownSource;
use std::borrow::Cow;
use std::collections::HashMap;
use std::error::Error;
use std::fmt;

/// Default operation budget per run.
pub const DEFAULT_OP_LIMIT: u64 = 50_000_000;

/// Default call-depth limit.
pub const DEFAULT_MAX_DEPTH: usize = 256;

/// A configuration error detected before execution starts.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VmError {
    message: String,
}

impl VmError {
    pub(crate) fn new(message: impl Into<String>) -> Self {
        VmError {
            message: message.into(),
        }
    }

    /// The error message.
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for VmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vm configuration error: {}", self.message)
    }
}

impl Error for VmError {}

/// The result of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunResult {
    /// How the run ended.
    pub outcome: RunOutcome,
    /// Total abstract operation units consumed — the run's "time".
    pub ops: u64,
    /// The counter vector (report payload), laid out per the site table.
    pub counters: Vec<u64>,
    /// Values printed by the program.
    pub output: Vec<i64>,
    /// The last observations in execution order (newest last), when trace
    /// capture was enabled with [`Vm::with_trace`]: `(counter index,
    /// observed-true flag)` per executed observation.  Empty otherwise.
    ///
    /// This is the "partial traces (with ordering information)" the paper
    /// leaves to future work in §2.5, bounded so client-side memory stays
    /// constant.
    pub trace: Vec<(usize, bool)>,
}

/// Which interpreter engine a [`Vm`] executes with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Engine {
    /// The name-map tree walker (`HashMap` frames).  Kept as the
    /// reference engine for differential tests and overhead baselines.
    NameMap,
    /// The bytecode dispatch loop (the default): the slot-resolved
    /// program is compiled to flat instructions with resolved jumps and
    /// fused countdown ops, then executed by a `loop { match op }` engine.
    #[default]
    Bytecode,
}

impl Engine {
    /// Parses an engine name as accepted by the CLI `--engine` flag.
    pub fn parse(name: &str) -> Option<Engine> {
        match name {
            "namemap" | "name-map" => Some(Engine::NameMap),
            "bytecode" | "bc" => Some(Engine::Bytecode),
            _ => None,
        }
    }

    /// The canonical CLI name of this engine.
    pub fn name(self) -> &'static str {
        match self {
            Engine::NameMap => "namemap",
            Engine::Bytecode => "bytecode",
        }
    }
}

/// The program representation a [`Vm`] was constructed from.
#[derive(Clone, Copy)]
enum ProgramSrc<'a> {
    Ast(&'a Program),
    Bytecode(&'a BcProgram),
}

/// The countdown source, owned or borrowed.  Borrowing lets a campaign
/// worker reseed and reuse one bank across thousands of trials instead of
/// boxing a fresh allocation per run.
enum Sampling<'a> {
    None,
    Owned(Box<dyn CountdownSource>),
    Borrowed(&'a mut (dyn CountdownSource + 'static)),
}

impl Sampling<'_> {
    fn get(&mut self) -> Option<&mut (dyn CountdownSource + 'static)> {
        match self {
            Sampling::None => None,
            Sampling::Owned(b) => Some(&mut **b),
            Sampling::Borrowed(r) => Some(&mut **r),
        }
    }

    fn is_configured(&self) -> bool {
        !matches!(self, Sampling::None)
    }
}

/// A configured MiniC virtual machine (non-consuming builder).
///
/// # Example
///
/// ```
/// use cbi_vm::Vm;
///
/// let program = cbi_minic::parse(
///     "fn main() -> int { print(40 + 2); return 0; }",
/// )?;
/// let result = Vm::new(&program).run()?;
/// assert!(result.outcome.is_success());
/// assert_eq!(result.output, vec![42]);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
///
/// On a hot path, compile once and share the borrowed pieces across runs:
///
/// ```
/// use cbi_vm::Vm;
///
/// let program = cbi_minic::parse(
///     "fn main() -> int { return read(); }",
/// )?;
/// let slots = cbi_minic::lower(&program);
/// let bc = cbi_bytecode::compile(&slots);
/// let input = vec![7];
/// for _ in 0..3 {
///     let r = Vm::from_bytecode(&bc).with_input(&input[..]).run()?;
///     assert_eq!(r.outcome, cbi_vm::RunOutcome::Success(7));
/// }
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub struct Vm<'a> {
    program: ProgramSrc<'a>,
    sites: Option<&'a SiteTable>,
    sampling: Sampling<'a>,
    input: Cow<'a, [i64]>,
    engine: Engine,
    op_limit: u64,
    max_depth: usize,
    costs: CostModel,
    heap_slack: usize,
    trace_limit: usize,
}

impl fmt::Debug for Vm<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let functions = match self.program {
            ProgramSrc::Ast(p) => p.functions.len(),
            ProgramSrc::Bytecode(p) => p.functions.len(),
        };
        f.debug_struct("Vm")
            .field("functions", &functions)
            .field("engine", &self.engine)
            .field("has_sites", &self.sites.is_some())
            .field("has_sampling", &self.sampling.is_configured())
            .field("input_len", &self.input.len())
            .field("op_limit", &self.op_limit)
            .finish()
    }
}

impl<'a> Vm<'a> {
    /// Creates a VM for a program with default settings.
    pub fn new(program: &'a Program) -> Self {
        Vm::with_src(ProgramSrc::Ast(program))
    }

    /// Creates a VM for a compiled bytecode program (see
    /// [`cbi_bytecode::compile`]) and selects the bytecode engine.
    ///
    /// Compiling once and constructing per-run VMs from the shared
    /// [`BcProgram`] amortizes both name resolution and code generation
    /// across a whole campaign — the fastest configuration.
    pub fn from_bytecode(program: &'a BcProgram) -> Self {
        let mut vm = Vm::with_src(ProgramSrc::Bytecode(program));
        vm.engine = Engine::Bytecode;
        vm
    }

    fn with_src(program: ProgramSrc<'a>) -> Self {
        Vm {
            program,
            sites: None,
            sampling: Sampling::None,
            input: Cow::Borrowed(&[]),
            engine: Engine::default(),
            op_limit: DEFAULT_OP_LIMIT,
            max_depth: DEFAULT_MAX_DEPTH,
            costs: CostModel::default(),
            heap_slack: DEFAULT_SLACK,
            trace_limit: 0,
        }
    }

    /// Attaches the site table defining the counter layout; required when
    /// the program contains observation builtins.
    pub fn with_sites(&mut self, sites: &'a SiteTable) -> &mut Self {
        self.sites = Some(sites);
        self
    }

    /// Attaches the countdown source used by `__next_cd()` and the initial
    /// `__gcd` seed; required for sampled programs.
    pub fn with_sampling(&mut self, source: Box<dyn CountdownSource>) -> &mut Self {
        self.sampling = Sampling::Owned(source);
        self
    }

    /// Like [`Vm::with_sampling`], but borrows the source, so a caller can
    /// reseed and reuse one countdown bank across many runs without
    /// re-boxing it each time.
    pub fn with_sampling_ref(
        &mut self,
        source: &'a mut (dyn CountdownSource + 'static),
    ) -> &mut Self {
        self.sampling = Sampling::Borrowed(source);
        self
    }

    /// Selects the interpreter engine (default [`Engine::Bytecode`]).
    pub fn with_engine(&mut self, engine: Engine) -> &mut Self {
        self.engine = engine;
        self
    }

    /// Sets the scripted input consumed by `read()`.
    ///
    /// Accepts an owned `Vec<i64>` or a borrowed `&[i64]`; borrowing lets
    /// hot loops share one input buffer across trials without cloning.
    pub fn with_input(&mut self, input: impl Into<Cow<'a, [i64]>>) -> &mut Self {
        self.input = input.into();
        self
    }

    /// Sets the operation budget (default [`DEFAULT_OP_LIMIT`]).
    pub fn with_op_limit(&mut self, limit: u64) -> &mut Self {
        self.op_limit = limit;
        self
    }

    /// Sets the call-depth limit (default [`DEFAULT_MAX_DEPTH`]).
    pub fn with_max_depth(&mut self, depth: usize) -> &mut Self {
        self.max_depth = depth;
        self
    }

    /// Sets the cost model.
    pub fn with_costs(&mut self, costs: CostModel) -> &mut Self {
        self.costs = costs;
        self
    }

    /// Sets the heap slack (overrun tolerance) per allocation.
    pub fn with_heap_slack(&mut self, slack: usize) -> &mut Self {
        self.heap_slack = slack;
        self
    }

    /// Enables bounded trace capture: the run result will carry the last
    /// `limit` observations in execution order (a ring buffer, so client
    /// memory stays constant — the §2.5 future-work extension).
    pub fn with_trace(&mut self, limit: usize) -> &mut Self {
        self.trace_limit = limit;
        self
    }

    /// Executes `main` and returns the run result.
    ///
    /// # Errors
    ///
    /// Returns [`VmError`] if the program has no `main` function or `main`
    /// takes parameters.  Runtime failures are *not* errors: they are
    /// reported in [`RunResult::outcome`].
    pub fn run(&mut self) -> Result<RunResult, VmError> {
        let mut counter_layout = Vec::new();
        let total_counters = match self.sites {
            Some(t) => {
                counter_layout = t.iter().map(|s| (s.counter_base, s.kind.arity())).collect();
                t.total_counters()
            }
            None => 0,
        };

        match (self.engine, self.program) {
            (Engine::NameMap, ProgramSrc::Ast(program)) => {
                self.run_namemap(program, counter_layout, total_counters)
            }
            (Engine::NameMap, ProgramSrc::Bytecode(_)) => Err(VmError::new(
                "name-map engine requires an AST program (construct with Vm::new)",
            )),
            (Engine::Bytecode, ProgramSrc::Bytecode(program)) => {
                self.run_bytecode(program, counter_layout, total_counters)
            }
            (Engine::Bytecode, ProgramSrc::Ast(program)) => {
                // One-shot convenience path: lower and compile, then run.
                // Hot loops compile once and use `Vm::from_bytecode`.
                let compiled = cbi_bytecode::compile_with(
                    &cbi_minic::lower(program),
                    crate::bytecode_interp::mirror(self.costs),
                );
                self.run_bytecode(&compiled, counter_layout, total_counters)
            }
        }
    }

    fn core(&mut self, counter_layout: Vec<(usize, usize)>, total_counters: usize) -> RunCore<'_> {
        RunCore::new(
            self.heap_slack,
            self.input.as_ref(),
            total_counters,
            counter_layout,
            self.sampling.get(),
            self.op_limit,
            self.costs,
            self.max_depth,
            self.trace_limit,
        )
    }

    fn run_bytecode(
        &mut self,
        program: &BcProgram,
        counter_layout: Vec<(usize, usize)>,
        total_counters: usize,
    ) -> Result<RunResult, VmError> {
        let core = self.core(counter_layout, total_counters);
        crate::bytecode_interp::run(program, core)
    }

    fn run_namemap(
        &mut self,
        program: &Program,
        counter_layout: Vec<(usize, usize)>,
        total_counters: usize,
    ) -> Result<RunResult, VmError> {
        let main = program
            .function("main")
            .ok_or_else(|| VmError::new("program has no `main` function"))?;
        if !main.params.is_empty() {
            return Err(VmError::new("`main` must take no parameters"));
        }

        let mut funcs: HashMap<&str, &Function> = HashMap::new();
        for f in &program.functions {
            funcs.insert(&f.name, f);
        }

        let mut globals: HashMap<String, Value> = HashMap::new();
        for g in &program.globals {
            let v = match g.ty {
                Type::Int => Value::Int(g.init),
                Type::Ptr => Value::Null,
            };
            globals.insert(g.name.clone(), v);
        }

        let mut exec = Exec {
            funcs,
            core: self.core(counter_layout, total_counters),
            globals,
        };

        // Seed the global countdown before the first instruction (§2.1):
        // the instrumented program starts with a fresh next-sample distance.
        if exec.globals.contains_key(GLOBAL_COUNTDOWN) {
            let seed = match exec.core.sampling.as_deref_mut() {
                Some(src) => saturating_i64(src.next_countdown()),
                None => {
                    return Err(VmError::new(
                        "sampled program requires a countdown source (with_sampling)",
                    ))
                }
            };
            exec.globals
                .insert(GLOBAL_COUNTDOWN.to_string(), Value::Int(seed));
        }

        let outcome = RunCore::outcome_of(exec.call_function(main, Vec::new()));
        Ok(exec.core.finish(outcome))
    }
}

type Frame = HashMap<String, Value>;

struct Exec<'a> {
    funcs: HashMap<&'a str, &'a Function>,
    core: RunCore<'a>,
    globals: HashMap<String, Value>,
}

impl Exec<'_> {
    /// Evaluates countdown-arithmetic expressions of synthesized
    /// statements without per-node charges (they model register ops); a
    /// flat bookkeeping charge is applied by the caller.
    fn eval_uncharged(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, Trap> {
        self.core.free_depth += 1;
        let r = self.eval(e, frame);
        self.core.free_depth -= 1;
        r
    }

    fn call_function(&mut self, f: &Function, args: Vec<Value>) -> Result<Option<Value>, Trap> {
        if self.core.depth >= self.core.max_depth {
            return Err(Trap::Crash(CrashKind::StackOverflow));
        }
        self.core.depth += 1;
        self.core.charge(self.core.costs.call)?;
        let mut frame: Frame = HashMap::with_capacity(f.params.len() + 8);
        // Arity mismatches only occur in unchecked programs; the zip binds
        // the shorter of the two lists (the bytecode engine matches).
        for (p, v) in f.params.iter().zip(args) {
            frame.insert(p.name.clone(), v);
        }
        let flow = self.exec_block(&f.body, &mut frame)?;
        self.core.depth -= 1;
        match flow {
            Flow::Return(v) => Ok(v),
            // Falling off the end returns the zero value for the declared
            // return type (or nothing for procedures).
            _ => Ok(f.ret.map(Value::zero_of)),
        }
    }

    fn exec_block(&mut self, b: &Block, frame: &mut Frame) -> Result<Flow, Trap> {
        for s in &b.stmts {
            match self.exec_stmt(s, frame)? {
                Flow::Normal => {}
                other => return Ok(other),
            }
        }
        Ok(Flow::Normal)
    }

    fn exec_stmt(&mut self, s: &Stmt, frame: &mut Frame) -> Result<Flow, Trap> {
        // Synthesized countdown bookkeeping (decrements, threshold checks,
        // imports/exports) costs a flat unit: in a native build these are
        // register operations (§2.4).  Branch bodies of synthesized
        // conditionals still charge normally — they contain real code.
        if self.core.tm.on {
            self.core.tm.steps += 1;
        }
        if s.span().is_synthesized() {
            match s {
                Stmt::Decl { ty, name, init, .. } => {
                    self.core.charge(self.core.costs.bookkeeping)?;
                    let v = match init {
                        Some(e) => self.eval_uncharged(e, frame)?,
                        None => Value::zero_of(*ty),
                    };
                    frame.insert(name.clone(), v);
                    return Ok(Flow::Normal);
                }
                Stmt::Assign { name, value, .. } => {
                    self.core.charge(self.core.costs.bookkeeping)?;
                    let v = self.eval_uncharged(value, frame)?;
                    self.assign(name, v, frame)?;
                    return Ok(Flow::Normal);
                }
                Stmt::If {
                    cond,
                    then_block,
                    else_block,
                    ..
                } => {
                    self.core.charge(self.core.costs.bookkeeping)?;
                    let taken = match self.eval_uncharged(cond, frame)? {
                        Value::Int(v) => v != 0,
                        other => {
                            return Err(self
                                .core
                                .type_error(format!("synthesized condition evaluated to {other}")))
                        }
                    };
                    if self.core.tm.on {
                        if let Expr::Binary { op, .. } = cond {
                            self.core.tm.synthesized_if(*op, taken);
                        }
                    }
                    if taken {
                        return self.exec_block(then_block, frame);
                    } else if let Some(e) = else_block {
                        return self.exec_block(e, frame);
                    }
                    return Ok(Flow::Normal);
                }
                _ => {}
            }
        }
        self.core.charge(self.core.costs.stmt)?;
        match s {
            Stmt::Decl { ty, name, init, .. } => {
                let v = match init {
                    Some(e) => self.eval(e, frame)?,
                    None => Value::zero_of(*ty),
                };
                frame.insert(name.clone(), v);
                Ok(Flow::Normal)
            }
            Stmt::Assign { name, value, .. } => {
                let v = self.eval(value, frame)?;
                self.assign(name, v, frame)?;
                Ok(Flow::Normal)
            }
            Stmt::Store {
                target,
                index,
                value,
                ..
            } => {
                let ptr = match self.lookup(target, frame)? {
                    Value::Ptr(p) => p,
                    Value::Null => return Err(Trap::Crash(CrashKind::NullDeref)),
                    other => {
                        return Err(self
                            .core
                            .type_error(format!("store through non-pointer `{target}` = {other}")))
                    }
                };
                let idx = self.eval_int(index, frame)?;
                let v = self.eval(value, frame)?;
                self.core.charge(self.core.costs.mem)?;
                self.core.heap.store(ptr, idx, v).map_err(Trap::Crash)?;
                Ok(Flow::Normal)
            }
            Stmt::If {
                cond,
                then_block,
                else_block,
                ..
            } => {
                if self.eval_bool(cond, frame)? {
                    self.exec_block(then_block, frame)
                } else if let Some(e) = else_block {
                    self.exec_block(e, frame)
                } else {
                    Ok(Flow::Normal)
                }
            }
            Stmt::While { cond, body, .. } => {
                while self.eval_bool(cond, frame)? {
                    match self.exec_block(body, frame)? {
                        Flow::Normal | Flow::Continue => {}
                        Flow::Break => break,
                        ret @ Flow::Return(_) => return Ok(ret),
                    }
                }
                Ok(Flow::Normal)
            }
            Stmt::Return { value, .. } => {
                let v = match value {
                    Some(e) => Some(self.eval(e, frame)?),
                    None => None,
                };
                Ok(Flow::Return(v))
            }
            Stmt::Break { .. } => Ok(Flow::Break),
            Stmt::Continue { .. } => Ok(Flow::Continue),
            // Un-lowered assertion markers are inert: only the `checks`
            // scheme turns them into real observations.
            Stmt::Check { .. } => Ok(Flow::Normal),
            Stmt::Expr { expr, .. } => {
                self.eval(expr, frame)?;
                Ok(Flow::Normal)
            }
        }
    }

    fn lookup(&self, name: &str, frame: &Frame) -> Result<Value, Trap> {
        if let Some(v) = frame.get(name) {
            return Ok(*v);
        }
        if let Some(v) = self.globals.get(name) {
            return Ok(*v);
        }
        Err(self.core.type_error(format!("undefined variable `{name}`")))
    }

    fn assign(&mut self, name: &str, v: Value, frame: &mut Frame) -> Result<(), Trap> {
        if let Some(slot) = frame.get_mut(name) {
            *slot = v;
            return Ok(());
        }
        if let Some(slot) = self.globals.get_mut(name) {
            *slot = v;
            return Ok(());
        }
        Err(self
            .core
            .type_error(format!("assignment to undefined variable `{name}`")))
    }

    fn eval_int(&mut self, e: &Expr, frame: &mut Frame) -> Result<i64, Trap> {
        match self.eval(e, frame)? {
            Value::Int(v) => Ok(v),
            other => Err(self
                .core
                .type_error(format!("expected integer, got {other}"))),
        }
    }

    fn eval_bool(&mut self, e: &Expr, frame: &mut Frame) -> Result<bool, Trap> {
        Ok(self.eval_int(e, frame)? != 0)
    }

    fn eval(&mut self, e: &Expr, frame: &mut Frame) -> Result<Value, Trap> {
        self.core.charge(self.core.costs.expr)?;
        match e {
            Expr::Int { value, .. } => Ok(Value::Int(*value)),
            Expr::Null { .. } => Ok(Value::Null),
            Expr::Var { name, .. } => self.lookup(name, frame),
            Expr::Load { ptr, index, .. } => {
                let p = match self.eval(ptr, frame)? {
                    Value::Ptr(p) => p,
                    Value::Null => return Err(Trap::Crash(CrashKind::NullDeref)),
                    other => {
                        return Err(self
                            .core
                            .type_error(format!("indexing non-pointer value {other}")))
                    }
                };
                let idx = self.eval_int(index, frame)?;
                self.core.charge(self.core.costs.mem)?;
                self.core.heap.load(p, idx).map_err(Trap::Crash)
            }
            Expr::Call { name, args, .. } => self.eval_call(name, args, frame),
            Expr::Unary { op, expr, .. } => {
                let v = self.eval_int(expr, frame)?;
                Ok(Value::Int(RunCore::unary_value(*op, v)))
            }
            Expr::Binary { op, lhs, rhs, .. } => self.eval_binary(*op, lhs, rhs, frame),
        }
    }

    fn eval_binary(
        &mut self,
        op: BinOp,
        lhs: &Expr,
        rhs: &Expr,
        frame: &mut Frame,
    ) -> Result<Value, Trap> {
        // Short-circuit operators evaluate the right side conditionally.
        if op == BinOp::And {
            return Ok(Value::Int(i64::from(
                self.eval_bool(lhs, frame)? && self.eval_bool(rhs, frame)?,
            )));
        }
        if op == BinOp::Or {
            return Ok(Value::Int(i64::from(
                self.eval_bool(lhs, frame)? || self.eval_bool(rhs, frame)?,
            )));
        }

        let a = self.eval(lhs, frame)?;
        let b = self.eval(rhs, frame)?;
        self.core.binary_values(op, a, b)
    }

    fn eval_call(&mut self, name: &str, args: &[Expr], frame: &mut Frame) -> Result<Value, Trap> {
        if let Some(b) = Builtin::from_name(name) {
            return self.eval_builtin(b, args, frame);
        }
        let f = *self.funcs.get(name).ok_or_else(|| {
            self.core
                .type_error(format!("call to undefined function `{name}`"))
        })?;
        let mut vals = Vec::with_capacity(args.len());
        for a in args {
            vals.push(self.eval(a, frame)?);
        }
        let ret = self.call_function(f, vals)?;
        // Procedure results are only legal in statement position; the
        // resolver guarantees the value is never consumed.
        Ok(ret.unwrap_or(Value::Int(0)))
    }

    fn eval_builtin(
        &mut self,
        b: Builtin,
        args: &[Expr],
        frame: &mut Frame,
    ) -> Result<Value, Trap> {
        match b {
            Builtin::Alloc => {
                let n = self.eval_int(&args[0], frame)?;
                self.core.alloc_value(n)
            }
            Builtin::Free => {
                let v = self.eval(&args[0], frame)?;
                self.core.free_value(v)
            }
            Builtin::Len => {
                let v = self.eval(&args[0], frame)?;
                self.core.len_value(v)
            }
            Builtin::Read => Ok(self.core.read_value()),
            Builtin::HasInput => Ok(self.core.has_input_value()),
            Builtin::Print => {
                let v = self.eval_int(&args[0], frame)?;
                Ok(self.core.print_value(v))
            }
            Builtin::Exit => {
                let code = self.eval_int(&args[0], frame)?;
                Err(Trap::Exit(code))
            }
            Builtin::ObsCheck => {
                let site = self.eval_int(&args[0], frame)?;
                let ok = self.eval_bool(&args[1], frame)?;
                self.core.obs_check(site, ok)
            }
            Builtin::ObsCmp => {
                // A three-way compare plus one counter bump is a handful of
                // native instructions; charge it flat (unlike `__check`,
                // which evaluates a real predicate).
                self.core.charge(self.core.costs.observe)?;
                self.core.free_depth += 1;
                let site = self.eval_int(&args[0], frame);
                let a = self.eval(&args[1], frame);
                let b = self.eval(&args[2], frame);
                self.core.free_depth -= 1;
                let (site, a, b) = (site?, a?, b?);
                self.core.obs_cmp(site, a, b)
            }
            Builtin::ObsSign => {
                self.core.charge(self.core.costs.observe)?;
                self.core.free_depth += 1;
                let site = self.eval_int(&args[0], frame);
                let v = self.eval(&args[1], frame);
                self.core.free_depth -= 1;
                let (site, v) = (site?, v?);
                self.core.obs_sign(site, v)
            }
            Builtin::NextCountdown => self.core.next_countdown_value(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_minic::parse;

    fn run(src: &str) -> RunResult {
        let p = parse(src).unwrap();
        cbi_minic::resolve(&p).unwrap_or_else(|e| panic!("{e}"));
        Vm::new(&p).run().unwrap()
    }

    fn run_with_input(src: &str, input: Vec<i64>) -> RunResult {
        let p = parse(src).unwrap();
        Vm::new(&p).with_input(input).run().unwrap()
    }

    #[test]
    fn arithmetic_and_output() {
        let r = run("fn main() -> int { print(2 + 3 * 4); print(10 / 3); print(10 % 3); print(-7); return 0; }");
        assert_eq!(r.output, vec![14, 3, 1, -7]);
        assert_eq!(r.outcome, RunOutcome::Success(0));
        assert!(r.ops > 0);
    }

    #[test]
    fn comparisons_and_logic() {
        let r = run(
            "fn main() -> int { print(1 < 2); print(2 <= 1); print(3 == 3); print(3 != 3); \
             print(1 && 0); print(1 || 0); print(!5); print(!0); return 0; }",
        );
        assert_eq!(r.output, vec![1, 0, 1, 0, 0, 1, 0, 1]);
    }

    #[test]
    fn short_circuit_avoids_crash() {
        let r =
            run("fn main() -> int { ptr p; if (p != null && p[0] == 1) { print(1); } return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(0));
    }

    #[test]
    fn control_flow_while_break_continue() {
        let r = run(
            "fn main() -> int { int i = 0; int s = 0; while (1) { i = i + 1; \
             if (i % 2 == 0) { continue; } if (i > 9) { break; } s = s + i; } print(s); return 0; }",
        );
        assert_eq!(r.output, vec![1 + 3 + 5 + 7 + 9]);
    }

    #[test]
    fn functions_recursion_and_globals() {
        let r = run(
            "int calls = 0;\n\
             fn fib(int n) -> int { calls = calls + 1; if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }\n\
             fn main() -> int { print(fib(10)); print(calls); return 0; }",
        );
        assert_eq!(r.output[0], 55);
        assert!(r.output[1] > 100);
    }

    #[test]
    fn heap_programs_work() {
        let r = run(
            "fn main() -> int { ptr a = alloc(5); int i = 0; while (i < 5) { a[i] = i * i; i = i + 1; } \
             int s = 0; i = 0; while (i < len(a)) { s = s + a[i]; i = i + 1; } free(a); print(s); return 0; }",
        );
        assert_eq!(r.output, vec![1 + 4 + 9 + 16]);
    }

    #[test]
    fn pointer_arithmetic() {
        let r = run(
            "fn main() -> int { ptr a = alloc(4); ptr b = a + 2; b[0] = 7; print(a[2]); print(b - a); return 0; }",
        );
        assert_eq!(r.output, vec![7, 2]);
    }

    #[test]
    fn null_deref_crashes() {
        let r = run("fn main() -> int { ptr p; return p[0]; }");
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::NullDeref));
    }

    #[test]
    fn divide_by_zero_crashes() {
        let r = run("fn main() -> int { int z = 0; return 1 / z; }");
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::DivideByZero));
    }

    #[test]
    fn overrun_then_free_crashes_later() {
        let r =
            run("fn main() -> int { ptr a = alloc(4); a[5] = 1; print(99); free(a); return 0; }");
        // The overrun itself is silent (99 printed), the free crashes.
        assert_eq!(r.output, vec![99]);
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::HeapCorruption));
    }

    #[test]
    fn overrun_without_free_gets_lucky() {
        let r = run("fn main() -> int { ptr a = alloc(4); a[5] = 1; return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(0));
    }

    #[test]
    fn stack_overflow_detected() {
        let p = parse(
            "fn loop_(int n) -> int { return loop_(n + 1); } fn main() -> int { return loop_(0); }",
        )
        .unwrap();
        let r = Vm::new(&p).with_max_depth(50).run().unwrap();
        assert_eq!(r.outcome, RunOutcome::Crash(CrashKind::StackOverflow));
    }

    #[test]
    fn op_limit_bounds_infinite_loops() {
        let p = parse("fn main() -> int { while (1) { } return 0; }").unwrap();
        let r = Vm::new(&p).with_op_limit(10_000).run().unwrap();
        assert_eq!(r.outcome, RunOutcome::OpLimit);
        assert!(r.ops >= 10_000);
    }

    #[test]
    fn scripted_input() {
        let r = run_with_input(
            "fn main() -> int { int s = 0; while (has_input()) { s = s + read(); } print(s); print(read()); return 0; }",
            vec![5, 6, 7],
        );
        assert_eq!(r.output, vec![18, 0], "read() at EOF yields 0");
    }

    #[test]
    fn exit_terminates_successfully() {
        let r = run("fn main() -> int { print(1); exit(3); print(2); return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(3));
        assert_eq!(r.output, vec![1]);
    }

    #[test]
    fn missing_main_is_config_error() {
        let p = parse("fn f() { }").unwrap();
        assert!(Vm::new(&p).run().is_err());
    }

    #[test]
    fn main_with_params_is_config_error() {
        let p = parse("fn main(int x) -> int { return x; }").unwrap();
        assert!(Vm::new(&p).run().is_err());
    }

    #[test]
    fn check_markers_are_inert() {
        let r = run("fn main() -> int { check(0); return 0; }");
        assert_eq!(r.outcome, RunOutcome::Success(0));
    }

    #[test]
    fn fall_through_returns_zero() {
        let r = run("fn f() -> int { } fn main() -> int { print(f()); return 0; }");
        assert_eq!(r.output, vec![0]);
    }

    #[test]
    fn ops_scale_with_work() {
        let small = run("fn main() -> int { int i = 0; while (i < 10) { i = i + 1; } return 0; }");
        let large =
            run("fn main() -> int { int i = 0; while (i < 1000) { i = i + 1; } return 0; }");
        assert!(large.ops > small.ops * 50);
    }

    #[test]
    fn determinism() {
        let src = "fn main() -> int { int i = 0; int s = 0; while (i < 100) { s = s + i * i; i = i + 1; } print(s); return 0; }";
        let a = run(src);
        let b = run(src);
        assert_eq!(a, b);
    }

    #[test]
    fn custom_costs_apply_on_the_default_engine() {
        // `Vm::new` compiles per run, so the compiled charges must follow
        // the VM's cost model rather than the default one.
        let p =
            parse("fn f() -> int { return 1; } fn main() -> int { return f() + f(); }").unwrap();
        let costs = CostModel {
            stmt: 3,
            call: 20,
            ..CostModel::default()
        };
        let reference = Vm::new(&p)
            .with_engine(Engine::NameMap)
            .with_costs(costs)
            .run()
            .unwrap();
        let compiled = Vm::new(&p).with_costs(costs).run().unwrap();
        assert_eq!(reference, compiled);
        assert_ne!(compiled.ops, Vm::new(&p).run().unwrap().ops);
    }
}
