//! Arrival processes: when the next request enters the system.
//!
//! Open-loop arrivals are what "millions of users" look like to a
//! replicated service: requests arrive on the users' schedule, not the
//! service's. [`Poisson`] models a large population of independent
//! sessions exactly — by the superposition theorem, N independent
//! Poisson streams of rate λ are one Poisson stream of rate Nλ, so the
//! session table draws one aggregate exponential gap per arrival and
//! picks the issuing session uniformly, instead of maintaining a
//! million per-session clocks.

use rand::rngs::SmallRng;
use rand::Rng;
use simnet::time::Dur;

/// A deterministic Poisson arrival process: exponential inter-arrival
/// gaps by inverse-CDF sampling from the caller's RNG. Feeding it the
/// actor's per-node RNG stream makes the arrival sequence a pure
/// function of the simulation seed, which is what the determinism gate
/// pins.
#[derive(Clone, Copy, Debug)]
pub struct Poisson {
    mean_gap: Dur,
}

impl Poisson {
    /// A process with `rate` arrivals per second (aggregate).
    ///
    /// # Panics
    /// Panics unless `rate` is positive and finite.
    pub fn with_rate(rate: f64) -> Poisson {
        assert!(rate > 0.0 && rate.is_finite(), "arrival rate must be positive");
        Poisson { mean_gap: Dur::from_secs_f64(1.0 / rate) }
    }

    /// Mean inter-arrival gap (1/λ).
    pub fn mean_gap(&self) -> Dur {
        self.mean_gap
    }

    /// Draws the gap to the next arrival: `-ln(U)/λ`, `U ∈ (0, 1]`.
    pub fn next_gap(&self, rng: &mut SmallRng) -> Dur {
        // `gen::<f64>()` is uniform on [0, 1); flip to (0, 1] so ln is
        // finite.
        let u = 1.0 - rng.gen::<f64>();
        Dur::from_secs_f64(-u.ln() * self.mean_gap.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn mean_gap_matches_rate() {
        let p = Poisson::with_rate(1000.0);
        let mut rng = SmallRng::seed_from_u64(7);
        let n = 20_000;
        let total: f64 = (0..n).map(|_| p.next_gap(&mut rng).as_secs_f64()).sum();
        let mean_ms = total / n as f64 * 1000.0;
        // E[gap] = 1 ms; 20k samples put the sample mean well within 5%.
        assert!((0.95..1.05).contains(&mean_ms), "mean gap {mean_ms:.4} ms");
    }

    #[test]
    fn gaps_are_exponential_not_constant() {
        let p = Poisson::with_rate(1000.0);
        let mut rng = SmallRng::seed_from_u64(8);
        let gaps: Vec<f64> = (0..10_000).map(|_| p.next_gap(&mut rng).as_secs_f64()).collect();
        let mean = gaps.iter().sum::<f64>() / gaps.len() as f64;
        let var = gaps.iter().map(|g| (g - mean).powi(2)).sum::<f64>() / gaps.len() as f64;
        // Exponential: std dev == mean (CV = 1).
        let cv = var.sqrt() / mean;
        assert!((0.9..1.1).contains(&cv), "coefficient of variation {cv:.3}");
        // Memoryless draws include both sub-mean and multi-mean gaps.
        assert!(gaps.iter().any(|&g| g < mean / 4.0));
        assert!(gaps.iter().any(|&g| g > mean * 3.0));
    }

    #[test]
    fn sequence_is_a_pure_function_of_the_seed() {
        let p = Poisson::with_rate(500.0);
        let a: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..100).map(|_| p.next_gap(&mut rng).as_nanos()).collect()
        };
        let b: Vec<u64> = {
            let mut rng = SmallRng::seed_from_u64(42);
            (0..100).map(|_| p.next_gap(&mut rng).as_nanos()).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_rate_rejected() {
        let _ = Poisson::with_rate(0.0);
    }
}
