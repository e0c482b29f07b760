//! Overhead measurement for Table 2 and Figure 4.
//!
//! Each benchmark runs in three builds — baseline (checks stripped),
//! unconditional instrumentation, and sampling-transformed at several
//! densities — and we report the ratio of operation counts relative to the
//! baseline (1.00 = no overhead; the paper's 2.81 for `bh` means a 181%
//! slowdown).  Sampled numbers average four runs with different
//! pre-generated countdown banks, as in §3.1.1.

use crate::WorkloadError;
use cbi_instrument::{
    apply_sampling, instrument, strip_sites, Instrumented, Scheme, SiteTable, TransformOptions,
};
use cbi_minic::Program;
use cbi_sampler::{LazyBank, SamplingDensity};
use cbi_vm::bytecode::{self, BcProgram};
use cbi_vm::Vm;

/// Overhead ratios for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct OverheadMeasurement {
    /// Benchmark name.
    pub name: String,
    /// Baseline op count (checks removed).
    pub baseline_ops: u64,
    /// Unconditional-instrumentation ratio (the "always" column).
    pub unconditional: f64,
    /// `(density, ratio)` per sampled density, in input order.
    pub sampled: Vec<(SamplingDensity, f64)>,
}

/// Configuration for overhead measurement.
#[derive(Debug, Clone, Copy)]
pub struct OverheadConfig {
    /// Instrumentation scheme (Table 2 uses CCured-style checks).
    pub scheme: Scheme,
    /// Sampling transformation options.
    pub transform: TransformOptions,
    /// Runs (each with a fresh countdown bank) averaged per density.
    pub runs_per_density: u64,
    /// Countdown bank size.
    pub bank_size: usize,
    /// Master seed for banks.
    pub seed: u64,
    /// Per-run operation budget.
    pub op_limit: u64,
    /// Worker threads to shard the sampled-run grid over (`0` and `1`
    /// both mean serial).  Any value produces identical measurements:
    /// every `(density, run)` cell draws its bank from its own seed.
    pub jobs: usize,
}

impl Default for OverheadConfig {
    fn default() -> Self {
        OverheadConfig {
            scheme: Scheme::Checks,
            transform: TransformOptions::default(),
            runs_per_density: 4,
            bank_size: 1024,
            seed: 97,
            op_limit: 2_000_000_000,
            jobs: 1,
        }
    }
}

impl OverheadConfig {
    /// Sets the worker-thread count for sampled runs.
    #[must_use]
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }
}

/// Measures overhead ratios for one program at the given densities, using
/// a fixed input script for every run.
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation or any run fails — the
/// overhead benchmarks must run to completion ("all programs run to
/// completion; we are simply measuring the overhead").
pub fn measure_overhead(
    name: &str,
    program: &Program,
    input: &[i64],
    densities: &[SamplingDensity],
    config: &OverheadConfig,
) -> Result<OverheadMeasurement, WorkloadError> {
    let inst = instrument(program, config.scheme)?;
    measure_overhead_instrumented(name, &inst, input, densities, config)
}

/// Like [`measure_overhead`], but for an already instrumented program —
/// used by the statically-selective experiments that share one site table
/// across many variants.
///
/// # Errors
///
/// Returns [`WorkloadError`] if transformation or any run fails.
pub fn measure_overhead_instrumented(
    name: &str,
    inst: &Instrumented,
    input: &[i64],
    densities: &[SamplingDensity],
    config: &OverheadConfig,
) -> Result<OverheadMeasurement, WorkloadError> {
    let compile = |p: &Program| bytecode::compile(&cbi_minic::lower(p));
    let baseline = compile(&strip_sites(&inst.program));
    let baseline_ops = run_ops(&baseline, &inst.sites, input, name, None, config)?;
    let unconditional = compile(&inst.program);
    let unconditional_ops = run_ops(&unconditional, &inst.sites, input, name, None, config)?;

    let (sampled_program, _) = apply_sampling(&inst.program, &config.transform)?;
    let sampled = compile(&sampled_program);

    // One grid cell per (density, run); each cell's bank comes from its
    // own seed, so cells are independent and shardable.
    let cells: Vec<(usize, SamplingDensity, u64)> = densities
        .iter()
        .enumerate()
        .flat_map(|(di, &density)| {
            (0..config.runs_per_density).map(move |run| {
                let bank_seed = config.seed.wrapping_add(di as u64 * 1000).wrapping_add(run);
                (di, density, bank_seed)
            })
        })
        .collect();

    let jobs = config.jobs.clamp(1, cells.len().max(1));
    let mut totals = vec![0u64; densities.len()];
    if jobs <= 1 {
        for &(di, ops) in &run_cells(&sampled, &inst.sites, input, name, &cells, config)? {
            totals[di] += ops;
        }
    } else {
        let chunk = cells.len().div_ceil(jobs);
        let sampled = &sampled;
        let sites = &inst.sites;
        let results = std::thread::scope(|scope| {
            let handles: Vec<_> = cells
                .chunks(chunk)
                .map(|shard| {
                    scope.spawn(move || run_cells(sampled, sites, input, name, shard, config))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("overhead worker panicked"))
                .collect::<Vec<_>>()
        });
        for shard in results {
            for (di, ops) in shard? {
                totals[di] += ops;
            }
        }
    }

    let sampled = densities
        .iter()
        .zip(&totals)
        .map(|(&density, &total)| {
            let mean = total as f64 / config.runs_per_density as f64;
            (density, mean / baseline_ops as f64)
        })
        .collect();

    Ok(OverheadMeasurement {
        name: name.to_string(),
        baseline_ops,
        unconditional: unconditional_ops as f64 / baseline_ops as f64,
        sampled,
    })
}

/// Runs one shard of the sampled grid, reusing a single countdown bank
/// across cells via [`LazyBank::reseed`] (bit-identical to a fresh bank
/// per cell).  Returns `(density index, ops)` per cell.
fn run_cells(
    program: &BcProgram,
    sites: &SiteTable,
    input: &[i64],
    name: &str,
    cells: &[(usize, SamplingDensity, u64)],
    config: &OverheadConfig,
) -> Result<Vec<(usize, u64)>, WorkloadError> {
    let mut out = Vec::with_capacity(cells.len());
    let mut bank: Option<LazyBank> = None;
    for &(di, density, bank_seed) in cells {
        if let Some(bank) = bank.as_mut() {
            bank.reseed(density, bank_seed);
        } else {
            bank = Some(LazyBank::new(density, config.bank_size, bank_seed));
        }
        let ops = run_ops(program, sites, input, name, bank.as_mut(), config)?;
        out.push((di, ops));
    }
    Ok(out)
}

/// Executes one run of a compiled program with a borrowed input script
/// and an optional borrowed countdown bank; returns the op count.
fn run_ops(
    program: &BcProgram,
    sites: &SiteTable,
    input: &[i64],
    name: &str,
    bank: Option<&mut LazyBank>,
    config: &OverheadConfig,
) -> Result<u64, WorkloadError> {
    let mut vm = Vm::from_bytecode(program);
    vm.with_sites(sites)
        .with_input(input)
        .with_op_limit(config.op_limit);
    if let Some(bank) = bank {
        vm.with_sampling_ref(bank);
    }
    let result = vm.run()?;
    if !result.outcome.is_success() {
        return Err(WorkloadError::new(format!(
            "overhead run of `{name}` did not complete: {}",
            result.outcome
        )));
    }
    Ok(result.ops)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::benchmarks::benchmark;

    fn densities() -> Vec<SamplingDensity> {
        vec![
            SamplingDensity::one_in(100),
            SamplingDensity::one_in(1000),
            SamplingDensity::one_in(1_000_000),
        ]
    }

    #[test]
    fn overhead_ordering_holds_for_treeadd() {
        let b = benchmark("treeadd").unwrap();
        let m = measure_overhead(
            b.name,
            &b.program,
            &[],
            &densities(),
            &OverheadConfig::default(),
        )
        .unwrap();
        assert!(m.unconditional > 1.0, "always-on must cost: {m:?}");
        for &(_, ratio) in &m.sampled {
            assert!(ratio > 1.0, "sampling floor is above baseline: {m:?}");
            assert!(
                ratio < m.unconditional * 1.05,
                "sampling should not exceed unconditional much: {m:?}"
            );
        }
        // Monotone: sparser sampling is never more expensive.
        for w in m.sampled.windows(2) {
            assert!(w[1].1 <= w[0].1 + 1e-9, "{m:?}");
        }
    }

    #[test]
    fn dense_programs_benefit_most() {
        // ijpeg is check-dense: unconditional overhead is large, sparse
        // sampling recovers most of it (paper: 2.46 -> 1.03).
        let b = benchmark("ijpeg").unwrap();
        let m = measure_overhead(
            b.name,
            &b.program,
            &[],
            &densities(),
            &OverheadConfig::default(),
        )
        .unwrap();
        assert!(m.unconditional > 1.5, "{m:?}");
        let sparse = m.sampled.last().unwrap().1;
        assert!(
            sparse - 1.0 < (m.unconditional - 1.0) / 2.0,
            "sparse sampling must reclaim most overhead: {m:?}"
        );
    }

    #[test]
    fn measurements_are_deterministic() {
        let b = benchmark("power").unwrap();
        let cfg = OverheadConfig::default();
        let a = measure_overhead(b.name, &b.program, &[], &densities(), &cfg).unwrap();
        let c = measure_overhead(b.name, &b.program, &[], &densities(), &cfg).unwrap();
        assert_eq!(a, c);
    }

    #[test]
    fn jobs_do_not_change_measurements() {
        let b = benchmark("power").unwrap();
        let serial = measure_overhead(
            b.name,
            &b.program,
            &[],
            &densities(),
            &OverheadConfig::default(),
        )
        .unwrap();
        for jobs in [2, 4, 99] {
            let sharded = measure_overhead(
                b.name,
                &b.program,
                &[],
                &densities(),
                &OverheadConfig::default().with_jobs(jobs),
            )
            .unwrap();
            assert_eq!(serial, sharded, "jobs {jobs}");
        }
    }
}
