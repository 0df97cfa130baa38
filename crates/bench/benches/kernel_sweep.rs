//! HA-Kern kernel sweep: every `Kernel` × `GroupLayout` pair over packed
//! sibling groups (docs/KERNELS.md). The 64-bit wide/clustered group is
//! the acceptance workload — the lane-chunked kernel must clear ≥1.3×
//! over the scalar reference there. Every kernel is forced in turn, so
//! on an AVX-512 host the `avx2` rows show what a CPU without it would
//! run; a kernel the host lacks is skipped (it would alias `lanes`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ha_bitcode::{masked_distance_group, GroupLayout, Kernel};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Packs one sibling group in both layouts. `near` controls whether the
/// sweep keeps siblings live (clustered) or prunes early (sparse).
fn packed_group(
    words: usize,
    group: usize,
    near: bool,
    seed: u64,
) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let query: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
    let mut soa = vec![0u64; 2 * words * group];
    let mut aos = vec![0u64; 2 * words * group];
    for s in 0..group {
        for w in 0..words {
            let bits = if near {
                query[w] ^ (1u64 << rng.gen_range(0..64))
            } else {
                rng.gen()
            };
            let mask: u64 = rng.gen();
            soa[2 * w * group + s] = bits;
            soa[2 * w * group + group + s] = mask;
            aos[s * 2 * words + w] = bits;
            aos[s * 2 * words + words + w] = mask;
        }
    }
    (query, soa, aos)
}

fn bench_kernels(c: &mut Criterion) {
    for (words, group, near, limit, seed) in [
        // 64-bit wide clustered group (the acceptance workload).
        (1usize, 48usize, true, 24u32, 12_000u64),
        // 512-bit narrow sparse group (the historical regression shape).
        (8, 6, false, 48, 12_010),
    ] {
        let (query, soa, aos) = packed_group(words, group, near, seed);
        let bits = 64 * words;
        let shape = if near { "wide" } else { "narrow" };
        let mut acc = vec![0u32; group];

        let mut g = c.benchmark_group(format!("kernel_sweep_{bits}bit_{shape}"));
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
            for layout in GroupLayout::ALL {
                let planes = match layout {
                    GroupLayout::Soa => &soa,
                    GroupLayout::Aos => &aos,
                };
                g.bench_function(BenchmarkId::new(kernel.name(), layout.name()), |b| {
                    b.iter(|| {
                        acc.iter_mut().for_each(|a| *a = 0);
                        masked_distance_group(
                            kernel, layout, &query, planes, group, limit, &mut acc,
                        );
                        std::hint::black_box(&mut acc);
                    })
                });
            }
        }
        g.finish();
    }
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench_kernels
}
criterion_main!(benches);
