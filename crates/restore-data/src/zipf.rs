//! Zipf-distributed sampling (used for attribute skew in Exp. 1 and for
//! realistic fan-out distributions in the housing/movies generators).

use rand::Rng;

/// A Zipf distribution over `{0, …, n−1}` with exponent `s`.
///
/// `s = 0` degenerates to the uniform distribution; larger `s` concentrates
/// mass on small indices (the paper sweeps `zipf(1.0)`–`zipf(3.0)`).
#[derive(Clone, Debug)]
pub(crate) struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub(crate) fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "zipf needs a non-empty domain");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    /// Probability of index `k` — the reference the sampling tests compare
    /// against.
    #[cfg(test)]
    fn pmf(&self, k: usize) -> f64 {
        if k == 0 {
            self.cdf[0]
        } else {
            self.cdf[k] - self.cdf[k - 1]
        }
    }

    pub(crate) fn sample<R: Rng>(&self, rng: &mut R) -> usize {
        let u: f64 = rng.random();
        // Binary search the CDF.
        match self.cdf.binary_search_by(|p| p.partial_cmp(&u).unwrap()) {
            Ok(i) => (i + 1).min(self.cdf.len() - 1),
            Err(i) => i.min(self.cdf.len() - 1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn zero_exponent_is_uniform() {
        let z = Zipf::new(4, 0.0);
        for k in 0..4 {
            assert!((z.pmf(k) - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn higher_exponent_concentrates_mass() {
        let z1 = Zipf::new(10, 1.0);
        let z3 = Zipf::new(10, 3.0);
        assert!(z3.pmf(0) > z1.pmf(0));
        assert!(z3.pmf(9) < z1.pmf(9));
    }

    #[test]
    fn samples_follow_pmf() {
        let z = Zipf::new(5, 1.5);
        let mut rng = StdRng::seed_from_u64(7);
        let mut counts = [0usize; 5];
        let n = 20000;
        for _ in 0..n {
            counts[z.sample(&mut rng)] += 1;
        }
        for (k, &count) in counts.iter().enumerate() {
            let emp = count as f64 / n as f64;
            assert!(
                (emp - z.pmf(k)).abs() < 0.02,
                "index {k}: empirical {emp} vs pmf {}",
                z.pmf(k)
            );
        }
    }
}
