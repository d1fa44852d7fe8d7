//! Zipf-distributed sampling over a finite rank space.

use rand::Rng;

/// A Zipf(s) distribution over ranks `0..n` (rank 0 is the most frequent).
///
/// Sampling uses the inverse-CDF method over precomputed cumulative
/// weights, O(log n) per draw.
///
/// # Examples
///
/// ```
/// use corpus::zipf::Zipf;
/// use rand::SeedableRng;
///
/// let z = Zipf::new(100, 1.0);
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let r = z.sample(&mut rng);
/// assert!(r < 100);
/// ```
#[derive(Clone, Debug)]
pub struct Zipf {
    cumulative: Vec<f64>,
}

impl Zipf {
    /// Creates a Zipf distribution over `n` ranks with exponent `s`.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or `s` is not finite and non-negative.
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "rank space must be non-empty");
        assert!(
            s.is_finite() && s >= 0.0,
            "exponent must be finite and >= 0"
        );
        let mut cumulative = Vec::with_capacity(n);
        let mut total = 0.0;
        for k in 1..=n {
            total += 1.0 / (k as f64).powf(s);
            cumulative.push(total);
        }
        for c in &mut cumulative {
            *c /= total;
        }
        Zipf { cumulative }
    }

    /// Number of ranks.
    pub fn len(&self) -> usize {
        self.cumulative.len()
    }

    /// Whether the rank space is empty (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.cumulative.is_empty()
    }

    /// Probability mass of `rank`.
    pub fn pmf(&self, rank: usize) -> f64 {
        if rank == 0 {
            self.cumulative[0]
        } else {
            self.cumulative[rank] - self.cumulative[rank - 1]
        }
    }

    /// Draws a rank.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.gen();
        match self
            .cumulative
            .binary_search_by(|c| c.partial_cmp(&u).expect("weights are finite"))
        {
            Ok(i) => i,
            Err(i) => i.min(self.cumulative.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn pmf_sums_to_one() {
        let z = Zipf::new(50, 1.2);
        let total: f64 = (0..50).map(|r| z.pmf(r)).sum();
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rank_zero_most_likely() {
        let z = Zipf::new(20, 1.0);
        for r in 1..20 {
            assert!(z.pmf(0) > z.pmf(r));
        }
    }

    #[test]
    fn uniform_when_s_is_zero() {
        let z = Zipf::new(10, 0.0);
        for r in 0..10 {
            assert!((z.pmf(r) - 0.1).abs() < 1e-9);
        }
    }

    #[test]
    fn empirical_frequencies_track_pmf() {
        let z = Zipf::new(10, 1.0);
        let mut rng = StdRng::seed_from_u64(42);
        let mut counts = [0usize; 10];
        let n = 200_000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (r, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(r)).abs() < 0.01,
                "rank {r}: empirical {emp} vs pmf {}",
                z.pmf(r)
            );
        }
    }

    #[test]
    fn samples_in_range() {
        let z = Zipf::new(3, 2.0);
        let mut rng = StdRng::seed_from_u64(7);
        for _ in 0..1000 {
            assert!(z.sample(&mut rng) < 3);
        }
    }
}
