//! The `kernels` experiment — HA-Kern distance kernels and the adaptive
//! freeze policy (no counterpart figure in the paper; see docs/KERNELS.md
//! and DESIGN.md, "When freezing pays").
//!
//! Three tables:
//!
//! * a kernel-level microbenchmark sweeping every [`Kernel`] ×
//!   [`GroupLayout`] pair over packed sibling groups, against the scalar
//!   SoA reference as the 1.00× baseline (kernels the host CPU lacks are
//!   skipped). The headline is the 64-bit *wide* row: the lane-chunked
//!   kernel must clear ≥1.3×.
//!   Group shapes mirror what freezing actually produces: `wide` is a
//!   clustered root group where most siblings survive the whole sweep,
//!   `narrow` is a sparse internal group where the limit kills siblings
//!   early (the shape behind the historical 512-bit regression);
//! * an end-to-end H-Search comparison on the exact datasets pinned in
//!   BENCH_flat.json: arena BFS vs the frozen snapshot under
//!   [`FreezePolicy::always_soa`] (the pre-policy ablation that lost at
//!   512-bit sparse) vs [`FreezePolicy::adaptive`] (the default, which
//!   must hold ≥1.0× everywhere). The `aos%` column shows how much of
//!   the forest the policy actually transposed;
//! * every kernel timed on one frozen H-Search workload through
//!   `FlatStoreView::with_kernel`, with the runtime probe's per-process
//!   pick marked.

use ha_bitcode::{masked_distance_group, GroupLayout, Kernel};
use ha_core::testkit::clustered_dataset;
use ha_core::{DynamicHaIndex, FreezePolicy, HammingIndex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::{fmt_duration, print_table, query_workload, time_per_call, Scale};

const THRESHOLDS: [u32; 2] = [3, 6];

/// Runs the kernel microbenchmark, the freeze-policy end-to-end sweep
/// and the per-kernel H-Search table.
pub fn run(scale: &Scale) {
    kernel_table(scale);
    policy_table(scale);
    dispatch_table(scale);
}

/// One synthetic sibling-group workload: the same groups packed in both
/// layouts, plus the limit that shapes the sweep.
struct GroupBench {
    /// Sweep shape label (`wide` ≈ clustered root, `narrow` ≈ sparse).
    shape: &'static str,
    words: usize,
    group: usize,
    limit: u32,
    /// Per-group planes, SoA-packed (`[bits w | mask w]` per word).
    soa: Vec<Vec<u64>>,
    /// The same groups AoS-packed (`[bits.. mask..]` per sibling).
    aos: Vec<Vec<u64>>,
    query: Vec<u64>,
}

impl GroupBench {
    /// Builds `count` groups of `group` siblings over `words` 64-bit
    /// word-planes. `near` flips few query bits per sibling (clustered,
    /// survivors everywhere); far siblings are random (sparse, the limit
    /// prunes early).
    fn new(
        shape: &'static str,
        words: usize,
        group: usize,
        limit: u32,
        near: bool,
        count: usize,
        seed: u64,
    ) -> GroupBench {
        let mut rng = StdRng::seed_from_u64(seed);
        let query: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
        let mut soa = Vec::with_capacity(count);
        let mut aos = Vec::with_capacity(count);
        for _ in 0..count {
            // Sibling patterns: (bits, mask) per sibling. Masks keep
            // roughly half the bits live, like mid-tree HA-Index nodes.
            let siblings: Vec<(Vec<u64>, Vec<u64>)> = (0..group)
                .map(|_| {
                    let bits: Vec<u64> = if near {
                        query
                            .iter()
                            .map(|&w| w ^ (1u64 << rng.gen_range(0..64)))
                            .collect()
                    } else {
                        (0..words).map(|_| rng.gen()).collect()
                    };
                    let mask: Vec<u64> = (0..words).map(|_| rng.gen()).collect();
                    (bits, mask)
                })
                .collect();
            let mut s_planes = vec![0u64; 2 * words * group];
            let mut a_planes = vec![0u64; 2 * words * group];
            for (s, (bits, mask)) in siblings.iter().enumerate() {
                for w in 0..words {
                    s_planes[2 * w * group + s] = bits[w];
                    s_planes[2 * w * group + group + s] = mask[w];
                    a_planes[s * 2 * words + w] = bits[w];
                    a_planes[s * 2 * words + words + w] = mask[w];
                }
            }
            soa.push(s_planes);
            aos.push(a_planes);
        }
        GroupBench {
            shape,
            words,
            group,
            limit,
            soa,
            aos,
            query,
        }
    }
}

fn kernel_table(scale: &Scale) {
    // Enough sweeps that per-call overhead amortises; scaled so
    // `HA_SCALE` also deepens the microbench.
    let reps = (scale.n(20_000)).max(4096);
    let configs = [
        // 64-bit clustered root group: wide, generous limit, all live.
        GroupBench::new("wide", 1, 48, 24, true, 128, 9200),
        // 64-bit sparse internal group: narrow, tight limit.
        GroupBench::new("narrow", 1, 6, 8, false, 128, 9201),
        // 512-bit clustered: wide groups of long codes.
        GroupBench::new("wide", 8, 48, 160, true, 64, 9210),
        // 512-bit sparse: the regression shape — narrow groups, long
        // codes, early pruning.
        GroupBench::new("narrow", 8, 6, 48, false, 64, 9211),
    ];

    // Each cell is best-of-3 — on a loaded or single-core host a single
    // sample is mostly scheduler noise.
    const SAMPLES: usize = 3;
    let mut rows = Vec::new();
    for b in &configs {
        let mut acc = vec![0u32; b.group];
        let mut sweep = |f: &mut dyn FnMut(&mut [u32], usize)| {
            let mut best = std::time::Duration::MAX;
            for _ in 0..SAMPLES {
                let mut gi = 0usize;
                best = best.min(time_per_call(reps, || {
                    acc.iter_mut().for_each(|a| *a = 0);
                    f(&mut acc, gi % b.soa.len());
                    std::hint::black_box(&mut acc);
                    gi += 1;
                }));
            }
            best
        };
        let bits = 64 * b.words;
        let mut reference = None;
        for kernel in Kernel::ALL.into_iter().filter(|k| k.is_available()) {
            for layout in GroupLayout::ALL {
                let per = sweep(&mut |acc, gi| {
                    let planes = match layout {
                        GroupLayout::Soa => &b.soa[gi],
                        GroupLayout::Aos => &b.aos[gi],
                    };
                    masked_distance_group(kernel, layout, &b.query, planes, b.group, b.limit, acc);
                });
                // `Kernel::ALL` starts with Scalar and `GroupLayout::ALL`
                // with Soa, so the first cell timed is the baseline.
                let base = *reference.get_or_insert(per);
                rows.push(vec![
                    format!("{bits}"),
                    b.shape.to_string(),
                    format!("{}", b.group),
                    kernel.name().to_string(),
                    layout.name().to_string(),
                    fmt_duration(per),
                    format!("{:.2}x", base.as_secs_f64() / per.as_secs_f64().max(1e-12)),
                ]);
            }
        }
    }
    print_table(
        "HA-Kern microbenchmark: one masked-distance group sweep (vs scalar soa)",
        &["bits", "shape", "group", "kernel", "layout", "per sweep", "speedup"],
        &rows,
    );
}

fn policy_table(scale: &Scale) {
    let mut rows = Vec::new();
    for (code_len, base_n, clusters, spread, seed) in
        [(64usize, 30_000usize, 24usize, 4usize, 9000u64), (512, 6_000, 12, 8, 9010)]
    {
        let n = scale.n(base_n);
        let data = clustered_dataset(n, code_len, clusters, spread, seed);
        let queries = query_workload(&data, scale.queries.min(64), seed + 1);

        let idx = DynamicHaIndex::build(data);
        let mut soa = idx.clone();
        soa.freeze_with(FreezePolicy::always_soa());
        let mut adaptive = idx.clone();
        adaptive.freeze_with(FreezePolicy::adaptive());
        let mut thawed = idx;
        thawed.thaw();

        let aos_pct = adaptive
            .flat()
            .map(|f| f.aos_fraction() * 100.0)
            .unwrap_or(0.0);

        for &h in &THRESHOLDS {
            // Exactness guard: all three paths must agree before any
            // of them is worth timing.
            let consistent = queries.iter().all(|q| {
                let expect = thawed.search(q, h);
                soa.search(q, h) == expect && adaptive.search(q, h) == expect
            });

            let timed = |index: &DynamicHaIndex| {
                let mut qi = 0usize;
                time_per_call(queries.len(), || {
                    std::hint::black_box(index.search(&queries[qi % queries.len()], h));
                    qi += 1;
                })
            };
            let arena = timed(&thawed);
            let soa_t = timed(&soa);
            let ada_t = timed(&adaptive);
            rows.push(vec![
                format!("{code_len}"),
                format!("{n}"),
                format!("{h}"),
                fmt_duration(arena),
                fmt_duration(soa_t),
                format!("{:.2}x", arena.as_secs_f64() / soa_t.as_secs_f64().max(1e-12)),
                fmt_duration(ada_t),
                format!("{:.2}x", arena.as_secs_f64() / ada_t.as_secs_f64().max(1e-12)),
                format!("{aos_pct:.0}%"),
                if consistent { "yes" } else { "NO" }.to_string(),
            ]);
        }
    }
    print_table(
        &format!(
            "Freeze policy end-to-end: arena vs frozen SoA-only (ablation) vs adaptive \
             (kernel: {})",
            Kernel::detect().name()
        ),
        &[
            "bits", "n", "h", "arena", "flat soa", "soa spd", "flat adaptive", "ada spd", "aos%",
            "identical",
        ],
        &rows,
    );
}

/// Every kernel on the same frozen workload, with the runtime probe's
/// pick marked — the dispatch decision the process makes once at start.
/// Each cell is best-of-3.
fn dispatch_table(scale: &Scale) {
    let code_len = 64;
    let n = scale.n(30_000);
    let data = clustered_dataset(n, code_len, 24, 4, 9330);
    let queries = query_workload(&data, scale.queries.min(64), 9331);
    let mut idx = DynamicHaIndex::build(data);
    let flat = idx.freeze();
    let h = 6u32;
    let detected = Kernel::detect();

    let mut rows = Vec::new();
    for kernel in Kernel::ALL {
        let view = flat.view().with_kernel(kernel);
        let per = (0..3)
            .map(|_| {
                let mut qi = 0usize;
                time_per_call(queries.len(), || {
                    std::hint::black_box(view.search(&queries[qi % queries.len()], h));
                    qi += 1;
                })
            })
            .min()
            .unwrap_or_default();
        rows.push(vec![
            kernel.name().to_string(),
            if kernel.is_available() { "yes" } else { "no (=lanes)" }.to_string(),
            fmt_duration(per),
            if kernel == detected { "<- detected" } else { "" }.to_string(),
        ]);
    }
    print_table(
        &format!(
            "Runtime kernel dispatch: per-kernel H-Search \
             (bits={code_len}, n={n}, h={h}; Kernel::detect() = {})",
            detected.name()
        ),
        &["kernel", "available", "per query", "dispatch"],
        &rows,
    );
}
