//! Multi-bug isolation evaluation: cluster purity, per-bug rank, and
//! iterations-to-isolation against planted ground truth.
//!
//! For each v2 corpus entry, scorer, and sampling density the harness
//! streams a campaign into a [`FailureIndex`] and runs the §3.3
//! isolation loop, then scores the emitted clusters against the
//! manifest's fault list:
//!
//! * **cluster purity** — each cluster is matched to the planted bug
//!   owning the plurality of its runs (ties toward the earlier fault);
//!   purity is the matched fraction in per-mille, and the entry purity
//!   is the run-weighted mean over clusters.
//! * **per-bug first rank** — the 0-based position of each fault's true
//!   predicate in the pre-isolation whole-corpus ranking, measuring how
//!   badly the bugs shadow each other before elimination starts.
//! * **iterations-to-isolation** — the iteration at which the loop
//!   chose the fault's own predicate, if it ever did.
//!
//! Ground-truth run attribution comes from a density-1 replay: with the
//! `checks` scheme at density 1 a violated check aborts the run on the
//! spot, so every failing run observes exactly one planted counter —
//! the fault that killed it.  Planted faults are deterministic store
//! bugs (validated `baseline == failures`), so the same trials fail at
//! every density and the attribution carries across the sweep.
//!
//! Every metric is an integer (per-mille purity, ranks, iteration
//! counts), so summaries are byte-identical across runs, `--jobs`
//! settings, and platforms.

use crate::generate::{trials_for, CorpusEntry};
use crate::CorpusError;
use cbi_instrument::{instrument, Scheme, SiteTable};
use cbi_minic::parse;
use cbi_sampler::SamplingDensity;
use cbi_scoring::{isolate, rank_of, scorer_by_name, FailureIndex, IsolationRun, Scorer};
use cbi_workloads::{run_campaign_into, CampaignConfig};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Multi-bug evaluation knobs.
#[derive(Debug, Clone)]
pub struct MultiEvalConfig {
    /// Sampling densities to sweep (`1/d` denominators).
    pub densities: Vec<u64>,
    /// Scorer registry names to drive the isolation loop with.
    pub scorers: Vec<String>,
    /// Campaign worker threads (metrics are identical at any value).
    pub jobs: usize,
    /// Interpreter engine for every campaign.
    pub engine: cbi_vm::Engine,
}

impl Default for MultiEvalConfig {
    fn default() -> Self {
        MultiEvalConfig {
            densities: vec![1, 10, 100],
            scorers: vec!["ochiai".to_string(), "importance".to_string()],
            jobs: 1,
            engine: cbi_vm::Engine::Bytecode,
        }
    }
}

/// Isolation outcome for one planted fault.
#[derive(Debug, Clone)]
pub struct BugOutcome {
    /// Mutation operator of the fault.
    pub operator: String,
    /// The fault's true counter.
    pub true_counter: usize,
    /// 0-based rank of the true predicate in the pre-isolation ranking.
    pub first_rank: usize,
    /// Iteration at which the loop chose this fault's predicate, if it
    /// ever did.
    pub isolated_at: Option<usize>,
    /// Whether some cluster's plurality of runs belongs to this fault.
    pub recovered: bool,
}

/// Metrics for one entry × scorer × density.
#[derive(Debug, Clone)]
pub struct MultiEntryScore {
    /// Entry id.
    pub id: String,
    /// Scorer registry name.
    pub scorer: String,
    /// Density denominator.
    pub density: u64,
    /// Planted faults in the entry.
    pub bugs: usize,
    /// Failing runs the index retained.
    pub failures: u64,
    /// Successful runs folded into aggregates.
    pub successes: u64,
    /// Iterations the isolation loop executed.
    pub iterations: usize,
    /// Failing runs no cluster explained.
    pub unexplained: usize,
    /// Run-weighted mean cluster purity, per-mille (1000 = every
    /// cluster pure).  0 when no cluster formed.
    pub purity_mille: u64,
    /// Per-fault outcomes, in manifest fault order.
    pub outcomes: Vec<BugOutcome>,
}

impl MultiEntryScore {
    /// Faults recovered as the plurality owner of some cluster.
    pub fn recovered(&self) -> usize {
        self.outcomes.iter().filter(|o| o.recovered).count()
    }

    /// Sum of per-fault first ranks (integer stand-in for mean rank).
    pub fn rank_sum(&self) -> usize {
        self.outcomes.iter().map(|o| o.first_rank).sum()
    }
}

/// All metrics from a multi-bug evaluation sweep.
#[derive(Debug, Clone)]
pub struct MultiEvalReport {
    /// Entries evaluated.
    pub entries: usize,
    /// The density sweep.
    pub densities: Vec<u64>,
    /// The scorer sweep.
    pub scorers: Vec<String>,
    /// One score per entry × scorer × density.
    pub scores: Vec<MultiEntryScore>,
}

/// Site layout as `(counter_base, arity)` groups.
fn site_groups(sites: &SiteTable) -> Vec<(usize, usize)> {
    sites
        .iter()
        .map(|s| (s.counter_base, s.kind.arity()))
        .collect()
}

/// Scores one isolation trace against the entry's fault list.
/// `attribution` maps failing trial id → fault index.
fn score_run(
    entry: &CorpusEntry,
    scorer_name: &str,
    density: u64,
    index: &FailureIndex,
    run: &IsolationRun,
    attribution: &BTreeMap<u64, usize>,
) -> MultiEntryScore {
    let bug = &entry.bug;
    let n_bugs = bug.faults.len();
    // Match each cluster to the fault owning the plurality of its runs.
    let mut matched_overlap = 0u64;
    let mut total_clustered = 0u64;
    let mut plurality_of: Vec<Option<usize>> = Vec::new();
    for cluster in run.clusters() {
        let mut per_bug = vec![0u64; n_bugs];
        for trial in &cluster.trials {
            if let Some(&b) = attribution.get(trial) {
                per_bug[b] += 1;
            }
        }
        let winner = (0..n_bugs).max_by_key(|&b| (per_bug[b], n_bugs - b));
        let winner = winner.filter(|&b| per_bug[b] > 0);
        if let Some(b) = winner {
            matched_overlap += per_bug[b];
        }
        total_clustered += cluster.trials.len() as u64;
        plurality_of.push(winner);
    }
    let purity_mille = (matched_overlap * 1000)
        .checked_div(total_clustered)
        .unwrap_or(0);
    let outcomes = bug
        .faults
        .iter()
        .enumerate()
        .map(|(b, fault)| BugOutcome {
            operator: fault.operator.clone(),
            true_counter: fault.true_counter,
            first_rank: rank_of(&run.initial_ranking, fault.true_counter)
                .expect("ranking is total over the layout"),
            isolated_at: run.isolated_at(fault.true_counter),
            recovered: plurality_of.contains(&Some(b)),
        })
        .collect();
    MultiEntryScore {
        id: bug.id.clone(),
        scorer: scorer_name.to_string(),
        density,
        bugs: n_bugs,
        failures: index.failure_runs(),
        successes: index.success_runs(),
        iterations: run.iterations(),
        unexplained: run.unexplained.len(),
        purity_mille,
        outcomes,
    }
}

/// Runs the multi-bug evaluation sweep over `entries`.
pub fn evaluate_multi(
    entries: &[CorpusEntry],
    cfg: &MultiEvalConfig,
) -> Result<MultiEvalReport, CorpusError> {
    let scorers: Vec<(&str, &'static dyn Scorer)> = cfg
        .scorers
        .iter()
        .map(|name| {
            scorer_by_name(name)
                .map(|s| (name.as_str(), s))
                .ok_or_else(|| CorpusError::Config {
                    message: format!("unknown scorer {name:?}"),
                })
        })
        .collect::<Result<_, _>>()?;
    let mut scores = Vec::new();
    for entry in entries {
        let bug = &entry.bug;
        let program = parse(&entry.source).map_err(|e| CorpusError::Parse {
            id: bug.id.clone(),
            message: e.to_string(),
        })?;
        let instrumented =
            instrument(&program, Scheme::Checks).map_err(|e| CorpusError::Instrument {
                id: bug.id.clone(),
                message: e.to_string(),
            })?;
        let sites = &instrumented.sites;
        if sites.layout_hash() != bug.layout_hash || sites.total_counters() != bug.counters {
            return Err(CorpusError::LayoutDrift {
                id: bug.id.clone(),
                expected: bug.layout_hash,
                got: sites.layout_hash(),
            });
        }
        for fault in &bug.faults {
            let named = sites.predicate_name(fault.true_counter);
            if named != fault.true_predicate {
                return Err(CorpusError::PredicateDrift {
                    id: bug.id.clone(),
                    expected: fault.true_predicate.clone(),
                    got: named,
                });
            }
        }
        let groups = site_groups(sites);
        let trials = trials_for(bug);
        // Ground-truth attribution from a density-1 replay: each
        // failing run observes exactly one planted counter (the
        // violated check aborts the run before another can fire).
        let attribution = {
            let config = CampaignConfig::sampled(Scheme::Checks, SamplingDensity::one_in(1))
                .with_jobs(cfg.jobs.max(1))
                .with_engine(cfg.engine);
            let mut index = FailureIndex::new();
            run_campaign_into(&program, &trials, &config, &mut index).map_err(|e| {
                CorpusError::Campaign {
                    id: bug.id.clone(),
                    message: e.to_string(),
                }
            })?;
            let mut map = BTreeMap::new();
            for failing in index.failures() {
                let owners: Vec<usize> = bug
                    .faults
                    .iter()
                    .enumerate()
                    .filter(|(_, f)| failing.nonzero.contains(&(f.true_counter as u32)))
                    .map(|(b, _)| b)
                    .collect();
                if let [only] = owners[..] {
                    map.insert(failing.trial, only);
                }
            }
            map
        };
        for &density in &cfg.densities {
            let config = CampaignConfig::sampled(Scheme::Checks, SamplingDensity::one_in(density))
                .with_jobs(cfg.jobs.max(1))
                .with_engine(cfg.engine);
            let mut index = FailureIndex::new();
            run_campaign_into(&program, &trials, &config, &mut index).map_err(|e| {
                CorpusError::Campaign {
                    id: bug.id.clone(),
                    message: e.to_string(),
                }
            })?;
            for &(name, scorer) in &scorers {
                let run = isolate(&index, &groups, scorer);
                scores.push(score_run(entry, name, density, &index, &run, &attribution));
            }
        }
    }
    Ok(MultiEvalReport {
        entries: entries.len(),
        densities: cfg.densities.clone(),
        scorers: cfg.scorers.clone(),
        scores,
    })
}

/// Aggregate over one (scorer, density) cell.
#[derive(Default)]
struct Cell {
    entries: usize,
    bugs: usize,
    recovered: usize,
    purity_weighted: u64,
    clustered_runs: u64,
    iterations: usize,
    unexplained: usize,
    rank_sum: usize,
}

fn aggregate(report: &MultiEvalReport) -> BTreeMap<(usize, u64), Cell> {
    let mut cells: BTreeMap<(usize, u64), Cell> = BTreeMap::new();
    for s in &report.scores {
        let scorer_idx = report
            .scorers
            .iter()
            .position(|n| *n == s.scorer)
            .expect("score names a configured scorer");
        let cell = cells.entry((scorer_idx, s.density)).or_default();
        cell.entries += 1;
        cell.bugs += s.bugs;
        cell.recovered += s.recovered();
        // Re-weight entry purity by its clustered-run count so the cell
        // purity is the run-weighted mean, still in integers.
        let clustered: u64 = s.failures - s.unexplained as u64;
        cell.purity_weighted += s.purity_mille * clustered;
        cell.clustered_runs += clustered;
        cell.iterations += s.iterations;
        cell.unexplained += s.unexplained;
        cell.rank_sum += s.rank_sum();
    }
    cells
}

/// Renders the per-entry trace plus the scorer × density aggregate, all
/// integer columns.
pub fn render_multi_report(report: &MultiEvalReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "multi-bug evaluation: {} entries x densities {:?} x scorers {:?}",
        report.entries, report.densities, report.scorers
    );
    let _ = writeln!(out);
    let _ = writeln!(
        out,
        "{:<9} {:<11} {:>8} {:>4} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9} {:>8}",
        "id",
        "scorer",
        "density",
        "bugs",
        "fail",
        "iter",
        "unexpl",
        "purity",
        "recov",
        "ranksum",
        "isolated"
    );
    for s in &report.scores {
        let isolated = s
            .outcomes
            .iter()
            .filter(|o| o.isolated_at.is_some())
            .count();
        let _ = writeln!(
            out,
            "{:<9} {:<11} {:>8} {:>4} {:>5} {:>5} {:>6} {:>7} {:>7} {:>9} {:>8}",
            s.id,
            s.scorer,
            format!("1/{}", s.density),
            s.bugs,
            s.failures,
            s.iterations,
            s.unexplained,
            s.purity_mille,
            s.recovered(),
            s.rank_sum(),
            isolated
        );
    }
    out.push_str(&render_multi_summary(report));
    out
}

/// Renders the integer-only scorer × density aggregate used for golden
/// comparisons: purity in per-mille, counts, and rank sums — no floats
/// anywhere.
pub fn render_multi_summary(report: &MultiEvalReport) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "multi-bug summary: {} entries x densities {:?} x scorers {:?}",
        report.entries, report.densities, report.scorers
    );
    let _ = writeln!(
        out,
        "{:<11} {:>8} {:>7} {:>5} {:>9} {:>7} {:>6} {:>7} {:>8}",
        "scorer", "density", "entries", "bugs", "recovered", "purity", "iters", "unexpl", "ranksum"
    );
    let cells = aggregate(report);
    for (scorer_idx, scorer) in report.scorers.iter().enumerate() {
        for &density in &report.densities {
            let Some(c) = cells.get(&(scorer_idx, density)) else {
                continue;
            };
            let purity = c.purity_weighted.checked_div(c.clustered_runs).unwrap_or(0);
            let _ = writeln!(
                out,
                "{:<11} {:>8} {:>7} {:>5} {:>9} {:>7} {:>6} {:>7} {:>8}",
                scorer,
                format!("1/{density}"),
                c.entries,
                c.bugs,
                c.recovered,
                purity,
                c.iterations,
                c.unexplained,
                c.rank_sum
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{generate_multi_corpus, MultiGenerateConfig};

    fn small_multi_corpus() -> Vec<CorpusEntry> {
        generate_multi_corpus(&MultiGenerateConfig {
            size: 2,
            seed: 31,
            trials: 48,
            bugs_per_entry: 2,
        })
        .unwrap()
        .entries
    }

    #[test]
    fn density_one_recovers_every_bug_into_a_pure_cluster() {
        let entries = small_multi_corpus();
        let report = evaluate_multi(
            &entries,
            &MultiEvalConfig {
                densities: vec![1],
                scorers: vec!["ochiai".to_string()],
                jobs: 1,
                ..MultiEvalConfig::default()
            },
        )
        .unwrap();
        for s in &report.scores {
            assert_eq!(s.purity_mille, 1000, "{}: clusters must be pure", s.id);
            assert_eq!(s.unexplained, 0, "{}: every failure explained", s.id);
            assert_eq!(s.recovered(), s.bugs, "{}: every bug recovered", s.id);
            // The loop may carve a bug's cluster with a perfectly
            // correlated predicate (e.g. an ok-slot check reached by
            // exactly the crashing inputs) rather than the planted
            // violated slot itself, so `isolated_at` is not asserted —
            // cluster purity is the recovery criterion, per §3.3.
            assert_eq!(s.iterations, s.bugs, "{}: one iteration per bug", s.id);
        }
    }

    #[test]
    fn multi_summary_is_identical_at_any_jobs() {
        let entries = small_multi_corpus();
        let render = |jobs: usize| {
            let report = evaluate_multi(
                &entries,
                &MultiEvalConfig {
                    densities: vec![1, 10],
                    scorers: vec!["ochiai".to_string(), "tarantula".to_string()],
                    jobs,
                    ..MultiEvalConfig::default()
                },
            )
            .unwrap();
            render_multi_report(&report)
        };
        let solo = render(1);
        assert_eq!(solo, render(2), "jobs 1 vs 2");
        assert_eq!(solo, render(4), "jobs 1 vs 4");
    }

    #[test]
    fn unknown_scorer_is_a_config_error() {
        let err = evaluate_multi(
            &[],
            &MultiEvalConfig {
                scorers: vec!["nope".to_string()],
                ..MultiEvalConfig::default()
            },
        )
        .unwrap_err();
        assert!(matches!(err, CorpusError::Config { .. }), "{err}");
    }
}
