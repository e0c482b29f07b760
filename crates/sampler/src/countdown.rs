//! Countdown sources: how an instrumented program refills its next-sample
//! countdown when it reaches zero.
//!
//! The paper's deployment pre-generates a bank of 1024 geometric countdowns
//! per run (§3.1.1); [`CountdownBank`] models this.  [`Periodic`] and
//! [`UniformInterval`] model the prior art the paper contrasts against in
//! §2.1 and §4: strictly periodic triggers (Arnold–Ryder) and uniformly
//! jittered intervals (Digital Continuous Profiling Infrastructure).  Both
//! fail the fairness checks in [`crate::fairness`].

use crate::geometric::Geometric;
use crate::rng::Pcg32;
use crate::SamplingDensity;

/// Anything that can supply the next-sample countdown for the instrumented
/// runtime.
///
/// A countdown of `k` means: skip `k - 1` sampling opportunities, then
/// sample the `k`-th.  Implementations must return values `>= 1`.
pub trait CountdownSource {
    /// Produces the next countdown (always `>= 1`).
    fn next_countdown(&mut self) -> u64;
}

impl<T: CountdownSource + ?Sized> CountdownSource for Box<T> {
    fn next_countdown(&mut self) -> u64 {
        (**self).next_countdown()
    }
}

impl<T: CountdownSource + ?Sized> CountdownSource for &mut T {
    fn next_countdown(&mut self) -> u64 {
        (**self).next_countdown()
    }
}

/// A pre-generated, cycling bank of countdowns.
///
/// §3.1.1: "each run used a different pre-generated bank of 1024
/// geometrically distributed random countdowns."  A bank of `n` countdowns
/// for `1/d` sampling encodes on average `n·d` coin tosses, so modest banks
/// last a long time (§2.1).
///
/// Every run path draws from [`LazyBank`], which yields the same sequence
/// on demand.  This eager bank is kept as the reference that the sampler
/// and VM tests compare against (the benches' seed-baseline paths
/// reproduce it too), and for explicit countdown values
/// ([`CountdownBank::from_values`]).
///
/// ```
/// use cbi_sampler::{CountdownBank, CountdownSource, SamplingDensity};
/// let mut bank = CountdownBank::generate(SamplingDensity::one_in(10), 1024, 7);
/// assert_eq!(bank.len(), 1024);
/// let first = bank.next_countdown();
/// assert!(first >= 1);
/// ```
#[derive(Debug, Clone)]
pub struct CountdownBank {
    values: Vec<u64>,
    cursor: usize,
}

impl CountdownBank {
    /// Builds a bank from explicit countdown values.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a zero (a zero countdown can
    /// never be consumed and would wedge the runtime).
    pub fn from_values(values: Vec<u64>) -> Self {
        assert!(!values.is_empty(), "countdown bank must be nonempty");
        assert!(
            values.iter().all(|&v| v >= 1),
            "countdowns must be at least 1"
        );
        CountdownBank { values, cursor: 0 }
    }

    /// Generates a bank of `n` geometric countdowns for the given density.
    pub fn generate(density: SamplingDensity, n: usize, seed: u64) -> Self {
        let mut g = Geometric::new(density, seed);
        let values = (0..n.max(1)).map(|_| g.draw()).collect();
        CountdownBank::from_values(values)
    }

    /// Regenerates this bank in place from a fresh seed, reusing the
    /// existing allocation.  Equivalent to
    /// `*self = CountdownBank::generate(density, self.len(), seed)` but
    /// without reallocating; campaign workers use this to recycle one bank
    /// buffer across thousands of trials.
    pub fn reseed(&mut self, density: SamplingDensity, seed: u64) {
        cbi_telemetry::count("sampler.bank_reseeds", 1);
        let mut g = Geometric::new(density, seed);
        for v in &mut self.values {
            *v = g.draw();
        }
        self.cursor = 0;
    }

    /// Number of countdowns in the bank.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the bank is empty (never true for a constructed bank).
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// The underlying countdown values.
    pub fn values(&self) -> &[u64] {
        &self.values
    }
}

impl CountdownSource for CountdownBank {
    fn next_countdown(&mut self) -> u64 {
        // Each refill marks one sample boundary: the runtime only asks for
        // a new countdown after taking (or seeding) a sample.
        cbi_telemetry::count("sampler.refills", 1);
        let v = self.values[self.cursor];
        self.cursor = (self.cursor + 1) % self.values.len();
        v
    }
}

/// A [`CountdownBank`] that draws its values on first use instead of up
/// front.
///
/// The countdown sequence is identical to an eagerly generated bank of the
/// same density, capacity, and seed — the first `cap` refills come from the
/// same [`Geometric`] stream, and the bank cycles after that — but a run
/// that consumes only a handful of refills (the common case at 1/100
/// sampling) never pays for the draws it doesn't use.  Campaign workers
/// recycle one `LazyBank` across thousands of trials via [`reseed`].
///
/// [`reseed`]: LazyBank::reseed
#[derive(Debug, Clone)]
pub struct LazyBank {
    gen: Geometric,
    values: Vec<u64>,
    cap: usize,
    cursor: usize,
}

impl LazyBank {
    /// Creates a lazy bank of (up to) `cap` geometric countdowns,
    /// equivalent to `CountdownBank::generate(density, cap, seed)`.
    pub fn new(density: SamplingDensity, cap: usize, seed: u64) -> Self {
        LazyBank {
            gen: Geometric::new(density, seed),
            values: Vec::new(),
            cap: cap.max(1),
            cursor: 0,
        }
    }

    /// Restarts this bank from a fresh seed, reusing the value buffer;
    /// equivalent to [`CountdownBank::reseed`] on an eager bank.
    pub fn reseed(&mut self, density: SamplingDensity, seed: u64) {
        cbi_telemetry::count("sampler.bank_reseeds", 1);
        self.gen = Geometric::new(density, seed);
        self.values.clear();
        self.cursor = 0;
    }
}

impl CountdownSource for LazyBank {
    fn next_countdown(&mut self) -> u64 {
        cbi_telemetry::count("sampler.refills", 1);
        let v = if self.cursor < self.values.len() {
            self.values[self.cursor]
        } else {
            // `Geometric::draw` is telemetry-free, so the refill count
            // matches the eager bank draw for draw.
            let v = self.gen.draw();
            self.values.push(v);
            v
        };
        self.cursor += 1;
        if self.cursor == self.cap {
            self.cursor = 0;
        }
        v
    }
}

/// Strictly periodic countdowns: exactly one sample per `period`
/// opportunities, in the style of Arnold–Ryder counter-based sampling.
///
/// This is the "trivially periodic" strategy the paper rejects in §2.1: if
/// two sites alternate in a loop, one of them is sampled on every period-th
/// iteration and the other never.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Periodic {
    period: u64,
}

impl Periodic {
    /// Creates a periodic source with the given period.
    ///
    /// # Panics
    ///
    /// Panics if `period == 0`.
    pub fn new(period: u64) -> Self {
        assert!(period > 0, "period must be nonzero");
        Periodic { period }
    }

    /// The sampling period.
    pub fn period(self) -> u64 {
        self.period
    }
}

impl CountdownSource for Periodic {
    fn next_countdown(&mut self) -> u64 {
        self.period
    }
}

/// Uniformly jittered intervals, as in the Digital Continuous Profiling
/// Infrastructure (§4): one sample every `lo..=hi` opportunities, uniform.
///
/// Samples produced this way are not independent: after one sample there is
/// zero probability of another within `lo - 1` opportunities.
#[derive(Debug, Clone)]
pub struct UniformInterval {
    lo: u64,
    hi: u64,
    rng: Pcg32,
}

impl UniformInterval {
    /// Creates a source drawing intervals uniformly from `lo..=hi`.
    ///
    /// # Panics
    ///
    /// Panics if `lo == 0` or `lo > hi`.
    pub fn new(lo: u64, hi: u64, seed: u64) -> Self {
        assert!(lo >= 1, "interval lower bound must be at least 1");
        assert!(lo <= hi, "interval must be nonempty");
        UniformInterval {
            lo,
            hi,
            rng: Pcg32::new(seed),
        }
    }
}

impl CountdownSource for UniformInterval {
    fn next_countdown(&mut self) -> u64 {
        self.lo + self.rng.below(self.hi - self.lo + 1)
    }
}

/// A direct per-site Bernoulli coin, the naïve strategy of §2.1
/// (`if (rnd(100) == 0) check(...)`).
///
/// Statistically identical to [`Geometric`] but with per-site cost; kept as
/// the reference implementation for fairness testing.
#[derive(Debug, Clone)]
pub struct Bernoulli {
    density: SamplingDensity,
    rng: Pcg32,
}

impl Bernoulli {
    /// Creates a reference coin-tosser for the given density.
    pub fn new(density: SamplingDensity, seed: u64) -> Self {
        Bernoulli {
            density,
            rng: Pcg32::new(seed),
        }
    }

    /// Tosses the biased coin once: `true` means "sample this site".
    pub fn toss(&mut self) -> bool {
        self.rng.next_f64() < self.density.probability()
    }
}

impl CountdownSource for Bernoulli {
    /// Expands coin tosses into the equivalent countdown representation.
    fn next_countdown(&mut self) -> u64 {
        let mut k = 1;
        while !self.toss() {
            k += 1;
        }
        k
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bank_cycles_through_values() {
        let mut bank = CountdownBank::from_values(vec![3, 1, 4]);
        let got: Vec<u64> = (0..7).map(|_| bank.next_countdown()).collect();
        assert_eq!(got, vec![3, 1, 4, 3, 1, 4, 3]);
    }

    #[test]
    fn generated_bank_has_requested_size() {
        let bank = CountdownBank::generate(SamplingDensity::one_in(100), 1024, 9);
        assert_eq!(bank.len(), 1024);
        assert!(!bank.is_empty());
        assert!(bank.values().iter().all(|&v| v >= 1));
    }

    #[test]
    fn generated_bank_mean_near_density_inverse() {
        let bank = CountdownBank::generate(SamplingDensity::one_in(50), 4096, 13);
        let mean: f64 = bank.values().iter().map(|&v| v as f64).sum::<f64>() / bank.len() as f64;
        assert!((mean - 50.0).abs() < 5.0, "bank mean {mean}");
    }

    #[test]
    fn reseed_matches_fresh_generate() {
        let mut bank = CountdownBank::generate(SamplingDensity::one_in(10), 64, 1);
        bank.next_countdown(); // advance the cursor so reseed must rewind it
        bank.reseed(SamplingDensity::one_in(10), 2);
        let fresh = CountdownBank::generate(SamplingDensity::one_in(10), 64, 2);
        assert_eq!(bank.values(), fresh.values());
        let a: Vec<u64> = {
            let mut b = bank.clone();
            (0..5).map(|_| b.next_countdown()).collect()
        };
        let b: Vec<u64> = {
            let mut f = fresh.clone();
            (0..5).map(|_| f.next_countdown()).collect()
        };
        assert_eq!(a, b, "reseed must rewind the cursor");
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn empty_bank_panics() {
        let _ = CountdownBank::from_values(vec![]);
    }

    #[test]
    #[should_panic(expected = "at least 1")]
    fn zero_countdown_panics() {
        let _ = CountdownBank::from_values(vec![1, 0, 2]);
    }

    #[test]
    fn periodic_is_constant() {
        let mut p = Periodic::new(100);
        assert_eq!(p.period(), 100);
        for _ in 0..5 {
            assert_eq!(p.next_countdown(), 100);
        }
    }

    #[test]
    #[should_panic(expected = "nonzero")]
    fn periodic_zero_panics() {
        let _ = Periodic::new(0);
    }

    #[test]
    fn uniform_interval_in_bounds() {
        let mut u = UniformInterval::new(60, 64, 3);
        for _ in 0..1000 {
            let v = u.next_countdown();
            assert!((60..=64).contains(&v));
        }
    }

    #[test]
    #[should_panic(expected = "nonempty")]
    fn uniform_interval_reversed_panics() {
        let _ = UniformInterval::new(10, 5, 0);
    }

    #[test]
    fn bernoulli_countdown_mean_matches() {
        let mut b = Bernoulli::new(SamplingDensity::one_in(20), 77);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| b.next_countdown() as f64).sum::<f64>() / n as f64;
        assert!((mean - 20.0).abs() < 1.0, "mean {mean}");
    }

    #[test]
    fn boxed_source_dispatches() {
        let mut boxed: Box<dyn CountdownSource> = Box::new(Periodic::new(7));
        assert_eq!(boxed.next_countdown(), 7);
    }

    #[test]
    fn mut_ref_source_dispatches() {
        let mut p = Periodic::new(9);
        let mut r = &mut p;
        assert_eq!(CountdownSource::next_countdown(&mut r), 9);
    }
}
