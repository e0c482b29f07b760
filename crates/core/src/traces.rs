//! Partial traces with ordering information — the §2.5 future-work
//! extension.
//!
//! The deployed system discards observation order to keep reports compact;
//! the paper notes "we expect there are interesting applications that
//! require ordering information" and leaves them open.  This module
//! implements the most obvious one: **crash proximity**.  With a bounded
//! client-side trace ring buffer ([`cbi_vm::Vm::with_trace`]), a failure
//! report carries the last few observations in execution order, and
//! ranking predicates by how often they are the *final* observation before
//! a crash points directly at the failure site.

use cbi_instrument::{instrument, Scheme};
use cbi_sampler::{LazyBank, SamplingDensity};
use cbi_vm::{bytecode, Vm};
use cbi_workloads::WorkloadError;
use std::collections::HashMap;

/// One ranked entry of the crash-proximity analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ProximityEntry {
    /// Counter index of the predicate.
    pub counter: usize,
    /// Human-readable predicate name.
    pub predicate: String,
    /// In how many crashed runs this predicate was the last observation.
    pub last_in_crashes: usize,
}

/// Crash-proximity analysis results.
#[derive(Debug, Clone)]
pub struct ProximityReport {
    /// Crashed runs that carried a nonempty trace.
    pub crashes_with_traces: usize,
    /// Entries ranked by `last_in_crashes`, descending.
    pub ranked: Vec<ProximityEntry>,
}

/// Configuration for [`crash_proximity`].
#[derive(Debug, Clone, Copy)]
pub struct ProximityConfig {
    /// Observation scheme.
    pub scheme: Scheme,
    /// Sampling density (ordering data is most useful when dense).
    pub density: SamplingDensity,
    /// Client-side trace ring-buffer size.
    pub trace_limit: usize,
    /// Countdown bank seed base.
    pub seed: u64,
}

impl Default for ProximityConfig {
    fn default() -> Self {
        ProximityConfig {
            scheme: Scheme::Returns,
            density: SamplingDensity::always(),
            trace_limit: 8,
            seed: 7,
        }
    }
}

/// Runs `trials` with bounded trace capture and ranks predicates by how
/// often they are the final observation of a crashing run.
///
/// # Errors
///
/// Returns [`WorkloadError`] if instrumentation or VM setup fails.
pub fn crash_proximity(
    program: &cbi_minic::Program,
    trials: &[Vec<i64>],
    config: &ProximityConfig,
) -> Result<ProximityReport, WorkloadError> {
    let inst = instrument(program, config.scheme)?;
    let (executable, _) = cbi_instrument::apply_sampling(
        &inst.program,
        &cbi_instrument::TransformOptions::default(),
    )?;
    let compiled = bytecode::compile(&cbi_minic::lower(&executable));

    let mut last_counts: HashMap<usize, usize> = HashMap::new();
    let mut crashes_with_traces = 0;
    let mut bank = LazyBank::new(config.density, 1024, config.seed);
    for (i, input) in trials.iter().enumerate() {
        if i > 0 {
            bank.reseed(config.density, config.seed + i as u64);
        }
        let result = Vm::from_bytecode(&compiled)
            .with_sites(&inst.sites)
            .with_sampling_ref(&mut bank)
            .with_input(&input[..])
            .with_trace(config.trace_limit)
            .run()?;
        if result.outcome.is_failure() {
            if let Some(&(counter, _)) = result.trace.last() {
                crashes_with_traces += 1;
                *last_counts.entry(counter).or_insert(0) += 1;
            }
        }
    }

    let mut ranked: Vec<ProximityEntry> = last_counts
        .into_iter()
        .map(|(counter, n)| ProximityEntry {
            counter,
            predicate: inst.sites.predicate_name(counter),
            last_in_crashes: n,
        })
        .collect();
    ranked.sort_by(|a, b| {
        b.last_in_crashes
            .cmp(&a.last_in_crashes)
            .then(a.counter.cmp(&b.counter))
    });
    Ok(ProximityReport {
        crashes_with_traces,
        ranked,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbi_workloads::{ccrypt_program, ccrypt_trials, CcryptTrialConfig};

    #[test]
    fn last_observation_before_ccrypt_crash_is_the_null_readline() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(800, 42, &CcryptTrialConfig::default());
        let report = crash_proximity(&program, &trials, &ProximityConfig::default()).unwrap();

        assert!(report.crashes_with_traces > 10);
        let top = &report.ranked[0];
        assert!(
            top.predicate.contains("xreadline() == 0"),
            "top proximity predicate should be the EOF return: {:?}",
            report.ranked.iter().take(3).collect::<Vec<_>>()
        );
        // Ordering information is strictly sharper than the unordered
        // analysis here: every crash ends at the same predicate.
        assert_eq!(top.last_in_crashes, report.crashes_with_traces);
    }

    #[test]
    fn trace_ring_buffer_is_bounded() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(40, 3, &CcryptTrialConfig::default());
        let inst = instrument(&program, Scheme::Returns).unwrap();
        let (executable, _) = cbi_instrument::apply_sampling(
            &inst.program,
            &cbi_instrument::TransformOptions::default(),
        )
        .unwrap();
        for input in trials {
            let bank = LazyBank::new(SamplingDensity::always(), 64, 1);
            let r = Vm::new(&executable)
                .with_sites(&inst.sites)
                .with_sampling(Box::new(bank))
                .with_input(input)
                .with_trace(5)
                .run()
                .unwrap();
            assert!(r.trace.len() <= 5);
        }
    }

    #[test]
    fn traces_disabled_by_default() {
        let program = ccrypt_program();
        let trials = ccrypt_trials(5, 3, &CcryptTrialConfig::default());
        let inst = instrument(&program, Scheme::Returns).unwrap();
        for input in trials {
            let r = Vm::new(&inst.program)
                .with_sites(&inst.sites)
                .with_input(input)
                .run()
                .unwrap();
            assert!(r.trace.is_empty());
        }
    }
}
