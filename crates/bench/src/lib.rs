//! Shared harness of the experiment suite: dataset preparation through the
//! real hash pipeline, timing helpers, and table rendering.
//!
//! Every module in [`exp`] regenerates one table or figure of the paper's
//! §6 (see DESIGN.md's per-experiment index). Sizes default to
//! laptop-scale and multiply with the `HA_SCALE` environment variable —
//! `HA_SCALE=10 cargo run --release -p ha-bench --bin experiments -- all`
//! approaches the paper's full workloads.

pub mod exp;

use std::time::{Duration, Instant};

use ha_bitcode::BinaryCode;
use ha_core::TupleId;
use ha_datagen::{generate, DatasetProfile};
use ha_hashing::{SimilarityHasher, SpectralHasher};

/// Experiment sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct Scale {
    /// Multiplier applied to every base dataset size (env `HA_SCALE`).
    pub factor: f64,
    /// Number of query repetitions for timing.
    pub queries: usize,
}

impl Scale {
    /// Reads `HA_SCALE` (default 1.0) from the environment.
    pub fn from_env() -> Self {
        let factor = std::env::var("HA_SCALE")
            .ok()
            .and_then(|s| s.parse::<f64>().ok())
            .unwrap_or(1.0)
            .max(0.01);
        Scale {
            factor,
            queries: 100,
        }
    }

    /// Scales a base size.
    pub fn n(&self, base: usize) -> usize {
        ((base as f64 * self.factor) as usize).max(16)
    }
}

/// A dataset pushed through the real pipeline: vectors generated from the
/// profile, a Spectral hasher learned on a sample, all vectors hashed.
pub struct HashedDataset {
    /// Profile name.
    pub name: &'static str,
    /// Original vectors with ids.
    pub vectors: Vec<(Vec<f64>, TupleId)>,
    /// Hashed `(code, id)` pairs.
    pub codes: Vec<(BinaryCode, TupleId)>,
    /// The learned hash function.
    pub hasher: SpectralHasher,
}

/// Prepares a hashed dataset of `n` tuples from `profile` with `code_len`
/// bit codes.
pub fn hashed_dataset(
    profile: &DatasetProfile,
    n: usize,
    code_len: usize,
    seed: u64,
) -> HashedDataset {
    let raw = generate(profile, n, seed);
    // Learn on a sample (mirrors the paper's preprocessing).
    let sample: Vec<Vec<f64>> = raw.iter().step_by((n / 2000).max(1)).cloned().collect();
    let hasher = SpectralHasher::fit_vectors(&sample, code_len, code_len);
    let codes: Vec<(BinaryCode, TupleId)> = raw
        .iter()
        .enumerate()
        .map(|(i, v)| (hasher.hash(v), i as TupleId))
        .collect();
    let vectors: Vec<(Vec<f64>, TupleId)> = raw
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as TupleId))
        .collect();
    HashedDataset {
        name: profile.name,
        vectors,
        codes,
        hasher,
    }
}

/// Query codes drawn near the data (perturbed data codes) — realistic
/// range-query workloads hit the populated region of code space.
pub fn query_workload(data: &[(BinaryCode, TupleId)], count: usize, seed: u64) -> Vec<BinaryCode> {
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let len = data[0].0.len();
    (0..count)
        .map(|_| {
            let mut q = data[rng.gen_range(0..data.len())].0.clone();
            for _ in 0..rng.gen_range(0..4) {
                q.flip(rng.gen_range(0..len));
            }
            q
        })
        .collect()
}

/// Times a closure.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, Duration) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed())
}

/// Mean wall-clock per call of `f` over `reps` calls (≥ 1).
pub fn time_per_call(reps: usize, mut f: impl FnMut()) -> Duration {
    let reps = reps.max(1);
    let t = Instant::now();
    for _ in 0..reps {
        f();
    }
    t.elapsed() / reps as u32
}

/// Formats a duration compactly (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.2}µs")
    } else if us < 1e6 {
        format!("{:.2}ms", us / 1000.0)
    } else {
        format!("{:.2}s", us / 1e6)
    }
}

/// Formats a byte count compactly.
pub fn fmt_bytes(b: usize) -> String {
    const KB: f64 = 1024.0;
    let b = b as f64;
    if b < KB {
        format!("{b:.0}B")
    } else if b < KB * KB {
        format!("{:.1}KB", b / KB)
    } else if b < KB * KB * KB {
        format!("{:.1}MB", b / KB / KB)
    } else {
        format!("{:.2}GB", b / KB / KB / KB)
    }
}

/// Renders an aligned text table (the experiment outputs mirror the
/// paper's tables).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n=== {title} ===");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let line = |cells: &[String]| {
        let parts: Vec<String> = cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect();
        println!("  {}", parts.join("  "));
    };
    line(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>());
    line(&widths.iter().map(|w| "-".repeat(*w)).collect::<Vec<_>>());
    for row in rows {
        line(row);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_reads_env_shape() {
        let s = Scale {
            factor: 2.0,
            queries: 10,
        };
        assert_eq!(s.n(100), 200);
        assert_eq!(s.n(1), 16, "floor keeps experiments meaningful");
    }

    #[test]
    fn hashed_dataset_pipeline() {
        let ds = hashed_dataset(&DatasetProfile::tiny(8, 2), 200, 32, 1);
        assert_eq!(ds.codes.len(), 200);
        assert_eq!(ds.vectors.len(), 200);
        assert_eq!(ds.codes[0].0.len(), 32);
        // Hash is consistent with the stored vectors.
        assert_eq!(ds.hasher.hash(&ds.vectors[5].0), ds.codes[5].0);
    }

    #[test]
    fn formatting() {
        assert_eq!(fmt_duration(Duration::from_micros(500)), "500.00µs");
        assert_eq!(fmt_duration(Duration::from_millis(20)), "20.00ms");
        assert_eq!(fmt_bytes(512), "512B");
        assert_eq!(fmt_bytes(2048), "2.0KB");
        assert_eq!(fmt_bytes(3 * 1024 * 1024), "3.0MB");
    }

    #[test]
    fn query_workload_matches_code_length() {
        let ds = hashed_dataset(&DatasetProfile::tiny(8, 2), 100, 32, 2);
        let qs = query_workload(&ds.codes, 10, 3);
        assert_eq!(qs.len(), 10);
        assert!(qs.iter().all(|q| q.len() == 32));
    }
}
