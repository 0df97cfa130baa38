//! Per-layer numbers of the traced run that do not come from spans:
//! (b) the structs the program already returns and (c) short probe
//! sections that call a lower layer directly on the workload's own data.
//! None of this runs in the untraced (end-to-end) run.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use crate::gen::Rng;
use crate::layers::{self as l, Code, Item};
use crate::stats;
use crate::trace::Tracer;

pub type Values = BTreeMap<&'static str, f64>;

/// Queries a probe section replays: an even subsample of the workload's own.
const PROBE_QUERIES: usize = 128;

pub fn probe_queries(all: &[Code]) -> Vec<Code> {
    let stride = (all.len() / PROBE_QUERIES).max(1);
    all.iter().step_by(stride).cloned().collect()
}
const PROBE_REPS: usize = 3;

fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// The timing rule of `drive`: the median over `PROBE_REPS` replays (after
/// one untimed replay) of each replay's p50 latency, in µs; plus the mean
/// answer size.
fn replay_us(queries: &[Code], mut search: impl FnMut(&Code) -> usize) -> (f64, f64) {
    let mut results = 0usize;
    for q in queries {
        results += search(q);
    }
    let p50_ns: Vec<f64> = (0..PROBE_REPS)
        .map(|_| {
            let lat: Vec<f64> = queries
                .iter()
                .map(|q| {
                    let t = Instant::now();
                    black_box(search(black_box(q)));
                    t.elapsed().as_nanos() as f64
                })
                .collect();
            stats::percentile(&stats::sorted(&lat), 50.0)
        })
        .collect();
    let p50 = stats::median(&p50_ns) / 1e3;
    (p50, results as f64 / queries.len().max(1) as f64)
}

/// `core.*` and `store.*`: build cost of each structure, every backend
/// forced over the same queries, the planner's route and its regret, and
/// the persistent snapshot written, opened and searched.
pub fn index_layers(
    items: Vec<Item>,
    queries: &[Code],
    h: u32,
    index: Option<&l::Index>,
    out: &mut Values,
) {
    let n = items.len().max(1) as f64;
    let bits = items.first().map_or(64, |(c, _)| l::code_bits(c));
    let (mut dha, secs) = timed(|| l::hbuild(items.clone()));
    out.insert("core.hbuild_s", secs);
    out.insert("core.freeze_s", timed(|| l::freeze(&mut dha)).1);
    drop(dha);
    out.insert(
        "core.mih_build_s",
        timed(|| drop(l::mih_build(bits, items.clone()))).1,
    );

    let built;
    let index = match index {
        Some(i) => i,
        None => {
            built = l::index_build(&mut Tracer::new(), bits, items);
            &built
        }
    };
    let route = l::index_route(index, h);
    let mut best = f64::INFINITY;
    for (backend, (share_key, search_key)) in l::BACKENDS.into_iter().zip(BACKEND_KEYS) {
        out.insert(share_key, if backend == route { 1.0 } else { 0.0 });
        if l::index_search_forced(index, backend, &queries[0], h).is_some() {
            let us = replay_us(queries, |q| {
                l::index_search_forced(index, backend, q, h).map_or(0, |a| a.len())
            })
            .0;
            out.insert(search_key, us);
            best = best.min(us);
        }
    }
    let off = &mut Tracer::new();
    let (routed_us, results) =
        replay_us(queries, |q| l::index_search(off, 0, 0, index, q, h).len());
    out.insert("core.planner_regret", routed_us / best);
    out.insert("core.results_per_query", results);
    out.insert(
        "core.index_bytes_per_tuple",
        l::index_memory_bytes(index) as f64 / n,
    );

    let (blob, secs) = timed(|| l::index_store_bytes(index));
    let Some(blob) = blob else { return };
    out.insert("store.write_s", secs);
    out.insert("store.bytes_per_tuple", blob.len() as f64 / n);
    let (store, secs) = timed(|| l::store_open(blob));
    out.insert("store.open_us", secs * 1e6);
    if let Some(store) = store {
        out.insert(
            "store.view_search_us",
            replay_us(queries, |q| l::store_view_search(&store, q, h).len()).0,
        );
    }
}

/// `(core.route_share.*, core.search_us.*)` in `layers::BACKENDS` order.
const BACKEND_KEYS: [(&str, &str); 4] = [
    ("core.route_share.ha-flat", "core.search_us.ha-flat"),
    ("core.route_share.arena-bfs", "core.search_us.arena-bfs"),
    ("core.route_share.mih", "core.search_us.mih"),
    ("core.route_share.linear", "core.search_us.linear"),
];

/// `bitcode.*`: the distance kernels on synthetic inputs — a 256-sibling
/// SoA group sweep without pruning, and the pair distance a linear scan
/// or an MIH verify pays — at 64 and 512 bits. The same on every workload.
pub fn bitcode_layers(out: &mut Values) {
    const GROUP: usize = 256;
    const GROUPS: usize = 64;
    const REPS: usize = 21;
    let mut rng = Rng::stream(0, "bitcode/probe");
    for (w, sweep_key, pair_key) in [
        (
            1usize,
            "bitcode.group_sweep_ns_per_row_w1",
            "bitcode.hamming_ns_w1",
        ),
        (
            8,
            "bitcode.group_sweep_ns_per_row_w8",
            "bitcode.hamming_ns_w8",
        ),
    ] {
        let query: Vec<u64> = (0..w).map(|_| rng.next_u64()).collect();
        let planes: Vec<u64> = (0..GROUPS * 2 * w * GROUP)
            .map(|_| rng.next_u64())
            .collect();
        let mut acc = vec![0u32; GROUP];
        let per_row: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                for g in planes.chunks_exact(2 * w * GROUP) {
                    acc.fill(0);
                    l::group_sweep(black_box(&query), g, GROUP, &mut acc);
                    black_box(&acc);
                }
                t.elapsed().as_nanos() as f64 / (GROUPS * GROUP) as f64
            })
            .collect();
        out.insert(sweep_key, stats::median(&per_row));

        let codes: Vec<Code> = (0..4096)
            .map(|_| l::code(&(0..w).map(|_| rng.next_u64()).collect::<Vec<_>>(), w * 64))
            .collect();
        let per_pair: Vec<f64> = (0..REPS)
            .map(|_| {
                let t = Instant::now();
                let mut sum = 0u32;
                for pair in codes.windows(2) {
                    sum = sum.wrapping_add(l::hamming(black_box(&pair[0]), black_box(&pair[1])));
                }
                black_box(sum);
                t.elapsed().as_nanos() as f64 / (codes.len() - 1) as f64
            })
            .collect();
        out.insert(pair_key, stats::median(&per_pair));
    }
}

/// `hashing.*` on the join's own vectors (fit on a 10 % sample, encode R),
/// then the `core.*` / `store.*` probes on the resulting 32-bit codes at
/// the join's radius, S as queries.
pub fn hashing_and_index_layers(r: &[l::VecTuple], s: &[l::VecTuple], out: &mut Values) {
    let sample: Vec<Vec<f64>> = r
        .iter()
        .chain(s)
        .step_by(10)
        .map(|(v, _)| v.clone())
        .collect();
    let (hasher, secs) = timed(|| l::spectral_fit(&sample, l::JOIN_CODE_LEN));
    out.insert("hashing.fit_s", secs);
    let (items, secs) = timed(|| {
        r.iter()
            .map(|(v, id)| (l::encode(&hasher, v), *id))
            .collect::<Vec<Item>>()
    });
    out.insert(
        "hashing.encode_ns_per_vec",
        secs * 1e9 / r.len().max(1) as f64,
    );
    let queries: Vec<Code> = s
        .iter()
        .take(PROBE_QUERIES)
        .map(|(v, _)| l::encode(&hasher, v))
        .collect();
    index_layers(items, &queries, l::JOIN_H, None, out);
}

/// `service.*` counters over the `passes` passes between two snapshots.
pub fn serve_layers(
    a: &l::ServeCounters,
    b: &l::ServeCounters,
    passes: usize,
    client_p50_us: f64,
    out: &mut Values,
) {
    let passes = passes.max(1) as f64;
    let hits = (a.cache_hits - b.cache_hits) as f64;
    let looked = hits + (a.cache_misses - b.cache_misses) as f64;
    out.insert(
        "service.cache_hit_ratio",
        if looked > 0.0 { hits / looked } else { 0.0 },
    );
    let old: BTreeMap<usize, u64> = b.batch_sizes.iter().copied().collect();
    let (mut queries, mut batches) = (0.0, 0.0);
    for &(size, count) in &a.batch_sizes {
        let d = (count - old.get(&size).copied().unwrap_or(0)) as f64;
        queries += size as f64 * d;
        batches += d;
    }
    out.insert(
        "service.mean_batch",
        if batches > 0.0 {
            queries / batches
        } else {
            0.0
        },
    );
    out.insert(
        "service.batches",
        (a.batches_formed - b.batches_formed) as f64 / passes,
    );
    out.insert(
        "service.merges",
        (a.merges_completed - b.merges_completed) as f64 / passes,
    );
    out.insert("service.rejected", (a.rejected - b.rejected) as f64);
    out.insert("service.shed", (a.shed - b.shed) as f64);
    let appends = (a.wal_appends - b.wal_appends) as f64;
    if appends > 0.0 {
        out.insert(
            "service.wal_bytes_per_write",
            (a.dfs_bytes - b.dfs_bytes) as f64 / appends,
        );
    }
    // Queue + ticket + hand-off: what the client sees beyond the program's
    // own shard-probe p50.
    out.insert(
        "service.overhead_us",
        client_p50_us - a.probe_p50.as_secs_f64() * 1e6,
    );
}

/// One traced join pass: its wall-clock, pair count and reported numbers.
pub struct JoinRun {
    pub wall_s: f64,
    pub pairs: usize,
    pub numbers: l::JoinNumbers,
}

/// `distributed.*` and `mapreduce.*`: medians over the traced passes.
pub fn join_layers(runs: &[JoinRun], tuples: f64, out: &mut Values) {
    if runs.is_empty() {
        return;
    }
    let mut med = |key: &'static str, f: &dyn Fn(&JoinRun) -> f64| {
        let v = stats::median(&runs.iter().map(f).collect::<Vec<_>>());
        out.insert(key, v);
    };
    med("distributed.sampling_s", &|r| r.numbers.phases[0]);
    med("distributed.hash_learning_s", &|r| r.numbers.phases[1]);
    med("distributed.index_build_s", &|r| r.numbers.phases[2]);
    med("distributed.join_s", &|r| r.numbers.phases[3]);
    // DFS reads/writes and glue: time no phase accounts for.
    med("distributed.unattributed_share", &|r| {
        1.0 - r.numbers.phases.iter().sum::<f64>() / r.wall_s
    });
    med("distributed.pairs", &|r| r.pairs as f64);
    med("mapreduce.shuffle_bytes", &|r| {
        r.numbers.shuffle_bytes as f64
    });
    med("mapreduce.broadcast_bytes", &|r| {
        r.numbers.broadcast_bytes as f64
    });
    med("mapreduce.traffic_bytes_per_tuple", &|r| {
        r.numbers.traffic_bytes as f64 / tuples
    });
    med("mapreduce.map_busy_s", &|r| r.numbers.map_busy_s);
    med("mapreduce.reduce_busy_s", &|r| r.numbers.reduce_busy_s);
    med("mapreduce.reduce_skew", &|r| r.numbers.reduce_skew);
    med("mapreduce.task_retries", &|r| {
        f64::from(r.numbers.task_retries)
    });
}

/// Span-derived layer numbers: per-position self time of each call the
/// request path makes, and the p50 duration of the write-path calls.
pub fn span_layers(tr: &Tracer, positions: f64, pass_ns: f64, out: &mut Values) {
    let by = tr.by_name();
    for (span, key) in [
        ("core.search", "core.search_self_us"),
        ("service.submit", "service.submit_us"),
        ("service.pump", "service.pump_us"),
        ("service.wait", "service.wait_us"),
    ] {
        if let Some((self_ns, _)) = by.get(span) {
            out.insert(key, *self_ns as f64 / positions / 1e3);
        }
    }
    for (span, key, scale) in [
        ("service.insert", "service.insert_us", 1e3),
        ("service.delete", "service.delete_us", 1e3),
        ("service.merge_now", "service.merge_ms", 1e6),
    ] {
        if let Some((_, durations)) = by.get(span) {
            out.insert(key, stats::median(durations) / scale);
        }
    }
    if let Some((_, durations)) = by.get("service.merge_now") {
        out.insert(
            "service.merge_share",
            durations.iter().sum::<f64>() / pass_ns,
        );
    }
}
