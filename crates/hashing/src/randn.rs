//! Gaussian sampling helpers (Box–Muller), shared by SimHash, p-stable LSH,
//! and the dataset generators — kept in-house so the workspace needs no
//! `rand_distr` dependency.

use rand::Rng;

/// One sample from the standard normal distribution N(0, 1).
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Box–Muller; resample u1 to avoid ln(0).
    let u1: f64 = loop {
        let u: f64 = rng.gen();
        if u > 0.0 {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

/// One sample from N(mean, std²).
pub fn normal<R: Rng + ?Sized>(rng: &mut R, mean: f64, std: f64) -> f64 {
    mean + std * standard_normal(rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn box_muller_moments() {
        let mut rng = StdRng::seed_from_u64(99);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "variance {var}");
    }

    #[test]
    fn shifted_normal_moments() {
        let mut rng = StdRng::seed_from_u64(5);
        let n = 50_000;
        let samples: Vec<f64> = (0..n).map(|_| normal(&mut rng, 10.0, 3.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var - 9.0).abs() < 0.5, "variance {var}");
    }
}
