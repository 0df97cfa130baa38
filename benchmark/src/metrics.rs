//! The names: workloads, end-to-end metrics (with the bound a later change
//! may worsen them by) and per-layer metrics. `BENCHMARK.json` at the
//! repository root is generated from these tables (`hab
//! --emit-benchmark-json`) and a unit test keeps the committed file equal
//! to them, so there is one source of truth.

pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
}

pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`. For exact counts the direction is nominal.
    pub better: &'static str,
    /// End-to-end only: share of the parent's median the metric may worsen by.
    pub bound: f64,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: 0.0,
    }
}

pub const RUN_SECONDS: u64 = 20;

pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "select_dense",
        why: "library select, 512-bit codes in 12 dense clusters: planner routes ha-flat, so view traversal and the group kernel do the work and MIH none",
    },
    Workload {
        name: "select_sparse",
        why: "library select, 64-bit near-duplicate groups: planner routes mih, memory-bound probe+verify does the work, flat traversal none; per-query fixed costs weigh most",
    },
    Workload {
        name: "serve_read",
        why: "threaded HaServe, one client keeps 8 selects in flight over a Zipf query pool 4x the result cache: queue, tickets, batching, cache and fan-out dominate",
    },
    Workload {
        name: "serve_mixed",
        why: "durable manual-drive HaServe with 5% inserts/deletes and foreground merges: WAL, delta overlay, epoch-invalidated cache, freeze/merge/publish, recovery",
    },
    Workload {
        name: "mr_join",
        why: "the paper's MapReduce Hamming-join through the DFS (sample, spectral hash, partitioned H-Build, Option-A join): hashing, distributed, mapreduce; no serving",
    },
];

pub const END_TO_END: [Metric; 4] = [
    e2e("setup_s", "s", "lower", 0.25),
    e2e("ops_s", "1/s", "higher", 0.25),
    e2e("p50_us", "us", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.10),
];

pub const PER_LAYER: [Metric; 60] = [
    layer("client.p99_us", "us", "lower"),
    layer("bitcode.group_sweep_ns_per_row_w1", "ns", "lower"),
    layer("bitcode.group_sweep_ns_per_row_w8", "ns", "lower"),
    layer("bitcode.hamming_ns_w1", "ns", "lower"),
    layer("bitcode.hamming_ns_w8", "ns", "lower"),
    layer("store.view_search_us", "us", "lower"),
    layer("store.open_us", "us", "lower"),
    layer("store.write_s", "s", "lower"),
    layer("store.bytes_per_tuple", "B", "lower"),
    layer("core.hbuild_s", "s", "lower"),
    layer("core.freeze_s", "s", "lower"),
    layer("core.mih_build_s", "s", "lower"),
    layer("core.search_us.ha-flat", "us", "lower"),
    layer("core.search_us.arena-bfs", "us", "lower"),
    layer("core.search_us.mih", "us", "lower"),
    layer("core.search_us.linear", "us", "lower"),
    layer("core.route_share.ha-flat", "ratio", "higher"),
    layer("core.route_share.arena-bfs", "ratio", "higher"),
    layer("core.route_share.mih", "ratio", "higher"),
    layer("core.route_share.linear", "ratio", "higher"),
    layer("core.planner_regret", "ratio", "lower"),
    layer("core.results_per_query", "count", "lower"),
    layer("core.index_bytes_per_tuple", "B", "lower"),
    layer("core.search_self_us", "us", "lower"),
    layer("service.overhead_us", "us", "lower"),
    layer("service.submit_us", "us", "lower"),
    layer("service.pump_us", "us", "lower"),
    layer("service.wait_us", "us", "lower"),
    layer("service.cache_hit_ratio", "ratio", "higher"),
    layer("service.mean_batch", "count", "higher"),
    layer("service.batches", "count", "lower"),
    layer("service.insert_us", "us", "lower"),
    layer("service.delete_us", "us", "lower"),
    layer("service.merge_ms", "ms", "lower"),
    layer("service.merge_share", "ratio", "lower"),
    layer("service.merges", "count", "lower"),
    layer("service.wal_bytes_per_write", "B", "lower"),
    layer("service.recover_s", "s", "lower"),
    layer("service.rejected", "count", "lower"),
    layer("service.shed", "count", "lower"),
    layer("distributed.sampling_s", "s", "lower"),
    layer("distributed.hash_learning_s", "s", "lower"),
    layer("distributed.index_build_s", "s", "lower"),
    layer("distributed.join_s", "s", "lower"),
    layer("distributed.unattributed_share", "ratio", "lower"),
    layer("distributed.pairs", "count", "lower"),
    layer("mapreduce.shuffle_bytes", "B", "lower"),
    layer("mapreduce.broadcast_bytes", "B", "lower"),
    layer("mapreduce.traffic_bytes_per_tuple", "B", "lower"),
    layer("mapreduce.map_busy_s", "s", "lower"),
    layer("mapreduce.reduce_busy_s", "s", "lower"),
    layer("mapreduce.reduce_skew", "ratio", "lower"),
    layer("mapreduce.task_retries", "count", "lower"),
    layer("mapreduce.dfs_put_mb_s", "MB/s", "higher"),
    layer("mapreduce.dfs_get_mb_s", "MB/s", "higher"),
    layer("hashing.fit_s", "s", "lower"),
    layer("hashing.encode_ns_per_vec", "ns", "lower"),
    layer("obs.on_slowdown", "ratio", "lower"),
    layer("bench.trace_overhead", "ratio", "lower"),
    layer("bench.self_share", "ratio", "lower"),
];

pub fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .find(|m| m.name == name)
        .map(|m| m.unit)
}

pub fn bound_of(name: &str) -> f64 {
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.bound)
}

/// The contents of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from(
        "{\n  \"command\": [\"bash\", \"benchmark/run.sh\"],\n  \"paths\": [\"benchmark\"],\n",
    );
    s += &format!("  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": [\n");
    let rows: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"end_to_end\": [\n";
    let rows: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name, m.unit, m.better, m.bound
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ],\n  \"per_layer\": [\n";
    let rows: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name, m.unit, m.better
            )
        })
        .collect();
    s += &rows.join(",\n");
    s += "\n  ]\n}\n";
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn committed_benchmark_json_is_generated_from_these_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let committed =
            std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with `hab --emit-benchmark-json`"
        );
    }

    #[test]
    fn names_units_and_bounds_stay_inside_the_contract() {
        let ok_name = |s: &str| {
            s.len() <= 64
                && s.starts_with(|c: char| c.is_ascii_alphanumeric())
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |s: &str| {
            s.len() <= 16
                && s.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(
                ok_name(m.name) && ok_unit(m.unit),
                "{} [{}]",
                m.name,
                m.unit
            );
            assert!(matches!(m.better, "lower" | "higher"));
            assert!(seen.insert(m.name), "duplicate {}", m.name);
        }
        for w in &WORKLOADS {
            assert!(
                ok_name(w.name) && w.why.len() <= 200 && !w.why.contains('\n'),
                "{}",
                w.name
            );
            assert!(seen.insert(w.name));
        }
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
        assert!(benchmark_json().len() < 64 * 1024);
    }
}
