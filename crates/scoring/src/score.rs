//! The [`Scorer`] trait and the scorer suite.
//!
//! A scorer maps one predicate's [`Contingency`] table to a score in
//! **fixed-point per-mille**: an `i64` where 1000 represents 1.0.  All
//! arithmetic is integer (`u128` intermediates, integer square root for
//! Ochiai), so two machines — or two worker counts — that fold the same
//! report stream produce bit-identical rankings.  Ties in score break
//! by counter index, ascending, which pins the reported rank of every
//! predicate even when a measure assigns the same value to many.
//!
//! The suite:
//!
//! | name         | formula (per-mille)                                   |
//! |--------------|-------------------------------------------------------|
//! | `ochiai`     | `ef / √(F·(ef+ep))`                                   |
//! | `tarantula`  | `ef·S / (ef·S + ep·F)`                                |
//! | `jaccard`    | `ef / (F + ep)`                                       |
//! | `increase`   | `ef/(ef+ep) − obs_f/(obs_f+obs_s)` (§3.2 Increase)    |
//! | `importance` | harmonic mean of `increase` and recall `ef/F`         |
//! | `posterior`  | Laplace-smoothed `P(fail │ P)`: `(ef+1)/(ef+ep+2)`    |
//! | `odds`       | smoothed odds ratio, normalised to `x/(1+x)`          |
//!
//! `posterior` and `odds` are Doric-style probabilistic measures: both
//! read the table as Bayesian evidence about `P(fail | P observed)`
//! with a uniform prior, which keeps them defined (and bounded) on the
//! degenerate tables frequency ratios blow up on.  Every scorer returns
//! 0 for a predicate never observed in a failing run — a predicate that
//! cannot explain any failure must never outrank one that can.

use cbi_stats::Contingency;

/// One unit on the fixed-point score scale (1.0 == 1000 per-mille).
pub const SCORE_ONE: i64 = 1000;

/// A statistical fault-localisation measure over contingency tables.
///
/// Implementations must be pure integer functions of the table: no
/// floating point, no interior state, no randomness.  That contract is
/// what makes every ranking byte-identical at any `--jobs` setting.
pub trait Scorer: Sync {
    /// Stable registry name (also the CLI spelling).
    fn name(&self) -> &'static str;
    /// The predicate's score in fixed-point per-mille.  Higher is more
    /// failure-predictive; negative values are allowed (Increase).
    fn score(&self, t: &Contingency) -> i64;
}

/// Integer square root (floor) over `u128`.
fn isqrt(v: u128) -> u128 {
    if v < 2 {
        return v;
    }
    let mut x = 1u128 << (v.ilog2() / 2 + 1);
    loop {
        let y = (x + v / x) / 2;
        if y >= x {
            return x;
        }
        x = y;
    }
}

/// `ef / √(F·(ef+ep))` — geometric mean of recall and precision.
pub struct Ochiai;

impl Scorer for Ochiai {
    fn name(&self) -> &'static str {
        "ochiai"
    }

    fn score(&self, t: &Contingency) -> i64 {
        let denom = t.f as u128 * (t.ef + t.ep) as u128;
        if t.ef == 0 || denom == 0 {
            return 0;
        }
        let scaled = (t.ef as u128 * t.ef as u128) * 1_000_000 / denom;
        (isqrt(scaled) as i64).min(SCORE_ONE)
    }
}

/// `(ef/F) / (ef/F + ep/S)`, cleared of divisions: `ef·S / (ef·S + ep·F)`.
pub struct Tarantula;

impl Scorer for Tarantula {
    fn name(&self) -> &'static str {
        "tarantula"
    }

    fn score(&self, t: &Contingency) -> i64 {
        let num = t.ef as u128 * t.s as u128;
        let denom = num + t.ep as u128 * t.f as u128;
        if t.ef == 0 || denom == 0 {
            return 0;
        }
        (num * SCORE_ONE as u128 / denom) as i64
    }
}

/// `ef / (F + ep)` — set overlap between "P observed true" and "run failed".
pub struct Jaccard;

impl Scorer for Jaccard {
    fn name(&self) -> &'static str {
        "jaccard"
    }

    fn score(&self, t: &Contingency) -> i64 {
        let denom = t.f + t.ep;
        if t.ef == 0 || denom == 0 {
            return 0;
        }
        (t.ef as u128 * SCORE_ONE as u128 / denom as u128) as i64
    }
}

/// The paper's §3.2 Increase statistic: how much more likely is failure
/// when the predicate is observed *true* than when its site is merely
/// *reached*?  `Failure(P) − Context(P)`, each term in per-mille; the
/// only scorer that can go negative (a predicate whose truth makes
/// failure *less* likely).
pub struct Increase;

impl Scorer for Increase {
    fn name(&self) -> &'static str {
        "increase"
    }

    fn score(&self, t: &Contingency) -> i64 {
        let observed = t.ef + t.ep;
        if observed == 0 {
            return 0;
        }
        let failure = (t.ef as u128 * SCORE_ONE as u128 / observed as u128) as i64;
        let reached = t.obs_f + t.obs_s;
        let context = if reached == 0 {
            0
        } else {
            (t.obs_f as u128 * SCORE_ONE as u128 / reached as u128) as i64
        };
        failure - context
    }
}

/// Importance: the harmonic mean of [`Increase`] and recall `ef/F`,
/// balancing "predicts failure when true" against "covers many
/// failures" — the §3.2 ranking made a single number.
pub struct Importance;

impl Scorer for Importance {
    fn name(&self) -> &'static str {
        "importance"
    }

    fn score(&self, t: &Contingency) -> i64 {
        let increase = Increase.score(t);
        let recall = if t.f == 0 {
            0
        } else {
            (t.ef as u128 * SCORE_ONE as u128 / t.f as u128) as i64
        };
        if increase <= 0 || recall <= 0 {
            return 0;
        }
        2 * increase * recall / (increase + recall)
    }
}

/// Doric-style posterior: Laplace-smoothed `P(fail | P observed true)`
/// = `(ef+1)/(ef+ep+2)` — a Beta(1,1) prior keeps the estimate defined
/// and shrinks single-observation predicates toward ½.
pub struct Posterior;

impl Scorer for Posterior {
    fn name(&self) -> &'static str {
        "posterior"
    }

    fn score(&self, t: &Contingency) -> i64 {
        if t.ef == 0 {
            return 0;
        }
        ((t.ef + 1) as u128 * SCORE_ONE as u128 / (t.ef + t.ep + 2) as u128) as i64
    }
}

/// Doric-style odds ratio with add-one smoothing, normalised to
/// `x/(1+x)` so it stays in per-mille: compares the odds of observing
/// the predicate in a failing run against a successful one.
pub struct OddsRatio;

impl Scorer for OddsRatio {
    fn name(&self) -> &'static str {
        "odds"
    }

    fn score(&self, t: &Contingency) -> i64 {
        if t.ef == 0 {
            return 0;
        }
        let a = (t.ef + 1) as u128 * (t.s.saturating_sub(t.ep) + 1) as u128;
        let b = (t.ep + 1) as u128 * (t.f.saturating_sub(t.ef) + 1) as u128;
        (a * SCORE_ONE as u128 / (a + b)) as i64
    }
}

/// Registry order: the CLI spelling of every scorer in the suite.
pub const SCORER_NAMES: &[&str] = &[
    "ochiai",
    "tarantula",
    "jaccard",
    "increase",
    "importance",
    "posterior",
    "odds",
];

/// Looks a scorer up by registry name.
pub fn scorer_by_name(name: &str) -> Option<&'static dyn Scorer> {
    match name {
        "ochiai" => Some(&Ochiai),
        "tarantula" => Some(&Tarantula),
        "jaccard" => Some(&Jaccard),
        "increase" => Some(&Increase),
        "importance" => Some(&Importance),
        "posterior" => Some(&Posterior),
        "odds" => Some(&OddsRatio),
        _ => None,
    }
}

/// The whole suite, in registry order.
pub fn all_scorers() -> Vec<&'static dyn Scorer> {
    SCORER_NAMES
        .iter()
        .map(|n| scorer_by_name(n).expect("registry names resolve"))
        .collect()
}

/// Ranks every counter by score, descending, breaking ties by counter
/// index ascending.  The tie-break is part of the determinism contract:
/// measures like Tarantula assign identical scores to whole families of
/// predicates, and without a total order their reported ranks would be
/// free to permute between runs or scorers.
pub fn rank_tables(scorer: &dyn Scorer, tables: &[Contingency]) -> Vec<(usize, i64)> {
    let mut ranked: Vec<(usize, i64)> = tables
        .iter()
        .enumerate()
        .map(|(i, t)| (i, scorer.score(t)))
        .collect();
    ranked.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    ranked
}

/// 0-based position of `counter` in a ranking from [`rank_tables`].
pub fn rank_of(ranking: &[(usize, i64)], counter: usize) -> Option<usize> {
    ranking.iter().position(|&(c, _)| c == counter)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ef: u64, ep: u64, f: u64, s: u64, obs_f: u64, obs_s: u64) -> Contingency {
        Contingency {
            ef,
            ep,
            f,
            s,
            obs_f,
            obs_s,
        }
    }

    /// Closed-form checks on a hand-built table:
    /// ef=3, ep=1, F=4, S=6, site reached in 4 failing / 3 successful runs.
    #[test]
    fn closed_form_scores_on_a_mixed_table() {
        let mixed = t(3, 1, 4, 6, 4, 3);
        // √(9·10⁶ / (4·4)) = √562500 = 750
        assert_eq!(Ochiai.score(&mixed), 750);
        // 18·1000 / (18 + 4) = 818
        assert_eq!(Tarantula.score(&mixed), 818);
        // 3000 / (4 + 1) = 600
        assert_eq!(Jaccard.score(&mixed), 600);
        // 3000/4 − 4000/7 = 750 − 571 = 179
        assert_eq!(Increase.score(&mixed), 179);
        // recall 3000/4 = 750; harmonic(179, 750) = 2·179·750/929 = 289
        assert_eq!(Importance.score(&mixed), 289);
        // (3+1)·1000 / (3+1+2) = 666
        assert_eq!(Posterior.score(&mixed), 666);
        // a = 4·(6−1+1) = 24, b = 2·(4−3+1) = 4 → 24000/28 = 857
        assert_eq!(OddsRatio.score(&mixed), 857);
    }

    /// A perfect deterministic-bug predicate: observed in every failing
    /// run, never in a success, site reached in both classes.
    #[test]
    fn perfect_predicate_saturates_the_similarity_scores() {
        let perfect = t(5, 0, 5, 5, 5, 5);
        assert_eq!(Ochiai.score(&perfect), 1000);
        assert_eq!(Tarantula.score(&perfect), 1000);
        assert_eq!(Jaccard.score(&perfect), 1000);
        // Failure(P)=1000, Context(P)=500 → 500; recall 1000.
        assert_eq!(Increase.score(&perfect), 500);
        assert_eq!(Importance.score(&perfect), 666);
        assert_eq!(Posterior.score(&perfect), 857);
        // a = 6·6 = 36, b = 1·1 = 1 → 36000/37 = 972
        assert_eq!(OddsRatio.score(&perfect), 972);
    }

    /// Zero failing runs: every scorer is 0 for every predicate (there
    /// is nothing to explain), and nothing divides by zero.
    #[test]
    fn zero_failing_runs_scores_zero_everywhere() {
        let no_failures = t(0, 7, 0, 10, 0, 8);
        for scorer in all_scorers() {
            assert_eq!(
                scorer.score(&no_failures),
                0,
                "{} must be 0 with no failing runs",
                scorer.name()
            );
        }
    }

    /// An always-true predicate (observed in every run of both classes)
    /// scores the base failure rate, not a false signal.
    #[test]
    fn always_true_predicate_tracks_the_base_rate() {
        let always = t(4, 6, 4, 6, 4, 6);
        // √(16·10⁶/40) = √400000 = 632
        assert_eq!(Ochiai.score(&always), 632);
        assert_eq!(Tarantula.score(&always), 500);
        assert_eq!(Jaccard.score(&always), 400);
        // Failure(P) == Context(P): truth adds nothing over reaching the site.
        assert_eq!(Increase.score(&always), 0);
        assert_eq!(Importance.score(&always), 0);
        assert_eq!(Posterior.score(&always), 416);
        // a = 5·1 = 5, b = 7·1 = 7 → 5000/12 = 416
        assert_eq!(OddsRatio.score(&always), 416);
    }

    /// A never-observed predicate scores 0 under every measure — the
    /// probabilistic priors must not float unobserved predicates above
    /// observed ones.
    #[test]
    fn unobserved_predicate_scores_zero() {
        let unobserved = t(0, 0, 4, 6, 0, 0);
        for scorer in all_scorers() {
            assert_eq!(scorer.score(&unobserved), 0, "{}", scorer.name());
        }
    }

    /// A protective predicate (fires only in successes) goes negative
    /// under Increase and 0 everywhere else.
    #[test]
    fn protective_predicate_is_negative_increase() {
        let protective = t(0, 5, 4, 6, 2, 5);
        assert_eq!(Increase.score(&protective), -285);
        assert_eq!(Importance.score(&protective), 0);
        assert_eq!(Ochiai.score(&protective), 0);
    }

    #[test]
    fn ranking_breaks_ties_by_counter_index() {
        // Counters 1 and 3 tie at 1000 under Tarantula (both ep=0);
        // counter 0 is unobserved; counter 2 is weaker.
        let tables = vec![
            t(0, 0, 4, 6, 0, 0),
            t(2, 0, 4, 6, 2, 0),
            t(3, 2, 4, 6, 3, 2),
            t(1, 0, 4, 6, 1, 0),
        ];
        let ranking = rank_tables(&Tarantula, &tables);
        let order: Vec<usize> = ranking.iter().map(|&(c, _)| c).collect();
        assert_eq!(order, vec![1, 3, 2, 0], "tie at 1000 must order 1 before 3");
        assert_eq!(rank_of(&ranking, 3), Some(1));
        assert_eq!(rank_of(&ranking, 0), Some(3));
    }

    #[test]
    fn registry_is_total() {
        for name in SCORER_NAMES {
            assert_eq!(scorer_by_name(name).unwrap().name(), *name);
        }
        assert!(scorer_by_name("regress").is_none());
        assert_eq!(all_scorers().len(), SCORER_NAMES.len());
    }

    #[test]
    fn isqrt_is_floor_sqrt() {
        for v in [
            0u128,
            1,
            2,
            3,
            4,
            15,
            16,
            999_999,
            1_000_000,
            u64::MAX as u128,
        ] {
            let r = isqrt(v);
            assert!(r * r <= v);
            assert!((r + 1) * (r + 1) > v);
        }
    }
}
