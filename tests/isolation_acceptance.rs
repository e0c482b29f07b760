//! Acceptance gate for the multi-bug iterative isolation engine.
//!
//! Pins the ISSUE-level guarantee: on a generated multi-bug corpus at
//! sampling density 1, the §3.3 elimination loop recovers every planted
//! bug into its own cluster with purity 1000‰ for the Ochiai scorer,
//! and the full rendered evaluation is byte-identical at any `--jobs`
//! setting and under either interpreter engine.

use cbi_corpus::{
    evaluate_multi, generate_multi_corpus, render_multi_report, MultiEvalConfig,
    MultiGenerateConfig,
};

fn corpus() -> Vec<cbi_corpus::CorpusEntry> {
    generate_multi_corpus(&MultiGenerateConfig {
        size: 3,
        seed: 0xc0de,
        trials: 64,
        bugs_per_entry: 2,
    })
    .expect("generate multi-bug corpus")
    .entries
}

fn config(jobs: usize) -> MultiEvalConfig {
    MultiEvalConfig {
        densities: vec![1],
        scorers: vec!["ochiai".to_string()],
        jobs,
        ..MultiEvalConfig::default()
    }
}

#[test]
fn density_one_isolates_every_planted_bug_with_pure_clusters() {
    let entries = corpus();
    assert!(!entries.is_empty(), "corpus generation produced no entries");
    let report = evaluate_multi(&entries, &config(1)).expect("evaluate");
    assert_eq!(report.scores.len(), entries.len());
    for s in &report.scores {
        assert_eq!(
            s.purity_mille, 1000,
            "{}: every cluster must contain a single bug's runs",
            s.id
        );
        assert_eq!(s.unexplained, 0, "{}: every failing run attributed", s.id);
        assert_eq!(
            s.recovered(),
            s.bugs,
            "{}: every planted bug owns a cluster",
            s.id
        );
        assert_eq!(
            s.iterations, s.bugs,
            "{}: exactly one elimination iteration per bug",
            s.id
        );
    }
}

#[test]
fn isolation_report_is_byte_identical_at_any_jobs() {
    let entries = corpus();
    let render = |jobs: usize| {
        render_multi_report(&evaluate_multi(&entries, &config(jobs)).expect("evaluate"))
    };
    let solo = render(1);
    assert_eq!(solo, render(2), "jobs 1 vs 2 diverged");
    assert_eq!(solo, render(4), "jobs 1 vs 4 diverged");
}

#[test]
fn isolation_report_is_engine_independent() {
    let entries = corpus();
    let render = |engine| {
        let cfg = MultiEvalConfig {
            engine,
            ..config(2)
        };
        render_multi_report(&evaluate_multi(&entries, &cfg).expect("evaluate"))
    };
    assert_eq!(
        render(cbi::vm::Engine::Bytecode),
        render(cbi::vm::Engine::NameMap),
        "bytecode vs namemap engines diverged"
    );
}
