//! Input generators. Everything here is a pure function of
//! `(workload, seed)`: the benchmark's own splitmix64 / xoshiro256**
//! PRNG, no program RNG, no program data generator. Codes are kept as raw
//! big-endian words (bit 0 = MSB of word 0, the layout
//! `BinaryCode::from_words` takes) so the oracle can popcount them without
//! touching the program.

/// xoshiro256** seeded through splitmix64.
pub struct Rng {
    s: [u64; 4],
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl Rng {
    /// One independent stream per `(seed, label)`, so adding a stream to a
    /// workload never shifts the inputs of another.
    pub fn stream(seed: u64, label: &str) -> Rng {
        let mut st = label.bytes().fold(seed ^ 0xCBF2_9CE4_8422_2325, |h, b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
        });
        Rng {
            s: std::array::from_fn(|_| splitmix(&mut st)),
        }
    }

    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let out = s[1].wrapping_mul(5).rotate_left(7).wrapping_mul(9);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        out
    }

    /// Uniform in `0..n` (multiply-shift; bias < 2⁻⁴⁰ for the sizes used).
    pub fn below(&mut self, n: usize) -> usize {
        ((u128::from(self.next_u64()) * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Standard normal (Box–Muller, one draw per call).
    pub fn gauss(&mut self) -> f64 {
        let u = 1.0 - self.unit();
        let v = self.unit();
        (-2.0 * u.ln()).sqrt() * (std::f64::consts::TAU * v).cos()
    }
}

/// A set of equal-length codes as flat words; the id of row `i` is `i`.
#[derive(Clone)]
pub struct Codes {
    pub bits: usize,
    pub words: Vec<u64>,
}

impl Codes {
    pub fn width(&self) -> usize {
        self.bits / 64
    }
    pub fn len(&self) -> usize {
        self.words.len() / self.width()
    }
    pub fn row(&self, i: usize) -> &[u64] {
        let w = self.width();
        &self.words[i * w..(i + 1) * w]
    }
    fn push_flipped(&mut self, base: &[u64], flips: usize, rng: &mut Rng) {
        let at = self.words.len();
        self.words.extend_from_slice(base);
        for _ in 0..flips {
            let bit = rng.below(self.bits);
            self.words[at + bit / 64] ^= 1u64 << (63 - bit % 64);
        }
    }
    /// Count + wrapping sum over every word: the generator-determinism
    /// digest the unit tests compare across seeds.
    #[cfg(test)]
    pub fn digest(&self) -> (u64, u64) {
        (
            self.words.len() as u64,
            self.words.iter().fold(0u64, |a, &w| a.wrapping_add(w)),
        )
    }
}

/// `n` codes: `centres` random centres, each row a centre with `flips`
/// random bit flips, rows of a centre contiguous in groups of
/// `n / centres`. Few centres + wide codes gives the dense regime, many
/// centres of few members the sparse near-duplicate regime.
pub fn clustered(bits: usize, n: usize, centres: usize, flips: usize, rng: &mut Rng) -> Codes {
    let w = bits / 64;
    let centre_words: Vec<u64> = (0..centres.max(1) * w).map(|_| rng.next_u64()).collect();
    let per = n.div_ceil(centres.max(1));
    let mut out = Codes {
        bits,
        words: Vec::with_capacity(n * w),
    };
    for i in 0..n {
        let c = i / per;
        out.push_flipped(&centre_words[c * w..(c + 1) * w], flips, rng);
    }
    out
}

/// `count` codes, each a uniformly drawn row of `data` with
/// `U{0..=max_flips}` extra flips: queries that land inside populated
/// neighbourhoods.
pub fn near(data: &Codes, count: usize, max_flips: usize, rng: &mut Rng) -> Codes {
    let mut out = Codes {
        bits: data.bits,
        words: Vec::with_capacity(count * data.width()),
    };
    for _ in 0..count {
        let row = rng.below(data.len());
        let flips = rng.below(max_flips + 1);
        out.push_flipped(data.row(row), flips, rng);
    }
    out
}

/// `count` draws from `0..pool` with P(k) ∝ 1/(k+1)^s (inverse-CDF table).
pub fn zipf(pool: usize, s: f64, count: usize, rng: &mut Rng) -> Vec<u32> {
    let mut cdf = Vec::with_capacity(pool);
    let mut acc = 0.0;
    for k in 0..pool {
        acc += 1.0 / ((k + 1) as f64).powf(s);
        cdf.push(acc);
    }
    (0..count)
        .map(|_| {
            let u = rng.unit() * acc;
            cdf.partition_point(|&c| c <= u).min(pool - 1) as u32
        })
        .collect()
}

/// `n` vectors of a `clusters`-component isotropic Gaussian mixture in
/// `dim` dimensions (centres uniform in the unit cube, std-dev `sigma`).
pub fn mixture(
    dim: usize,
    clusters: usize,
    sigma: f64,
    n: usize,
    centres: &mut Rng,
    rng: &mut Rng,
) -> Vec<Vec<f64>> {
    let c: Vec<f64> = (0..clusters * dim).map(|_| centres.unit()).collect();
    (0..n)
        .map(|_| {
            let k = rng.below(clusters);
            (0..dim)
                .map(|d| c[k * dim + d] + sigma * rng.gauss())
                .collect()
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_different_seed_different_inputs() {
        let make = |seed| {
            let data = clustered(128, 500, 10, 3, &mut Rng::stream(seed, "t/data"));
            let q = near(&data, 50, 2, &mut Rng::stream(seed, "t/q"));
            let z = zipf(64, 1.0, 200, &mut Rng::stream(seed, "t/z"));
            (data.digest(), q.digest(), z)
        };
        assert!(make(7) == make(7));
        assert!(make(7) != make(8));
        let a = Rng::stream(7, "a").next_u64();
        assert_ne!(a, Rng::stream(7, "b").next_u64(), "streams are independent");
    }

    #[test]
    fn clustered_rows_stay_within_the_flip_budget_of_their_centre() {
        let data = clustered(64, 64, 2, 2, &mut Rng::stream(1, "c"));
        // Rows 0..32 share a centre: pairwise distance <= 2 + 2.
        for i in 1..32 {
            assert!((data.row(0)[0] ^ data.row(i)[0]).count_ones() <= 4);
        }
        assert!(
            (data.row(0)[0] ^ data.row(40)[0]).count_ones() > 4,
            "other centre is far"
        );
    }

    #[test]
    fn zipf_favours_low_ranks_and_stays_in_range() {
        let z = zipf(1000, 1.0, 20_000, &mut Rng::stream(3, "z"));
        let low = z.iter().filter(|&&k| k < 10).count();
        let high = z.iter().filter(|&&k| k >= 990).count();
        assert!(low > 20 * high.max(1));
        assert!(z.iter().all(|&k| k < 1000));
    }

    #[test]
    fn gauss_has_unit_scale() {
        let mut r = Rng::stream(5, "g");
        let xs: Vec<f64> = (0..20_000).map(|_| r.gauss()).collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / xs.len() as f64;
        assert!(
            mean.abs() < 0.05 && (var - 1.0).abs() < 0.05,
            "mean {mean} var {var}"
        );
    }
}
