//! Storage-robustness tests: the replicated, checksummed DFS under
//! injected storage faults, alone and jointly with task-level fault
//! injection.
//!
//! The headline property (DESIGN.md, "Storage fault tolerance"): because
//! replicas are byte-identical, ANY storage fault plan that leaves every
//! block at least one healthy replica is invisible — reads return exactly
//! the written data, and a full MapReduce pipeline running over the
//! degraded store produces output byte-identical to a fault-free run.
//! Destroying every replica of any block fails closed with a typed error,
//! never a panic and never silently-corrupt data.

use std::time::Duration;

use hamming_suite::datagen::{generate, DatasetProfile};
use hamming_suite::distributed::{try_mrha_hamming_join_on_dfs, MrHaConfig, VecTuple};
use hamming_suite::mapreduce::{
    DfsConfig, DfsError, FaultInjector, FaultPlan, InMemoryDfs, JobError, StorageFaultPlan,
};
use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};

fn dataset(n: usize, seed: u64, base: u64) -> Vec<VecTuple> {
    generate(&DatasetProfile::tiny(10, 3), n, seed)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, base + i as u64))
        .collect()
}

fn cfg() -> MrHaConfig {
    MrHaConfig {
        partitions: 4,
        workers: 4,
        ..MrHaConfig::default()
    }
}

/// Loads the pipeline inputs into a DFS (small blocks, so every file has
/// several blocks and replica failover is exercised per block).
fn load_inputs(dfs: &InMemoryDfs, r: &[VecTuple], s: &[VecTuple]) {
    dfs.put_with_blocks("r", r.to_vec(), 32, 88);
    dfs.put_with_blocks("s", s.to_vec(), 32, 88);
}

// ---------------------------------------------------------------------------
// End-to-end chaos: storage faults + task faults, jointly
// ---------------------------------------------------------------------------

#[test]
fn pipeline_output_is_byte_identical_under_joint_storage_and_task_chaos() {
    // Overlapping generator seeds guarantee a non-trivial join result —
    // byte-identity over an empty set proves nothing.
    let r = dataset(160, 61, 0);
    let s = dataset(200, 61, 1_000_000);
    let c = cfg();

    // Reference: fault-free store, fault-free tasks.
    let clean_dfs = InMemoryDfs::new();
    load_inputs(&clean_dfs, &r, &s);
    let clean =
        try_mrha_hamming_join_on_dfs(&clean_dfs, "r", "s", "out", &c, &FaultInjector::none())
            .expect("job runs");
    assert!(
        clean.pairs.len() >= 100,
        "workload must produce pairs (got {})",
        clean.pairs.len()
    );
    assert!(clean_dfs.metrics().is_clean(), "no faults, no recovery");

    // Chaos: the primary replica of EVERY block is corrupted, one
    // datanode is dead, and the first attempt of EVERY map and reduce
    // task panics — all at once.
    let plan = StorageFaultPlan::new()
        .corrupt_primaries_everywhere()
        .kill_node(2);
    let chaos_dfs = InMemoryDfs::with_faults(DfsConfig::default(), plan);
    load_inputs(&chaos_dfs, &r, &s);
    let injector = FaultInjector::new(FaultPlan::panic_first_attempt_everywhere(4, 4));
    let chaotic = try_mrha_hamming_join_on_dfs(&chaos_dfs, "r", "s", "out", &c, &injector)
        .expect("every block keeps a healthy replica and every task a clean retry");

    // Recovery must be invisible: same pairs, same persisted output.
    assert_eq!(chaotic.pairs, clean.pairs);
    let clean_out: Vec<(u64, u64)> = clean_dfs.try_get("out").expect("clean output persisted");
    let chaos_out: Vec<(u64, u64)> = chaos_dfs.try_get("out").expect("chaos output persisted");
    assert_eq!(chaos_out, clean_out);
    assert_eq!(clean_out, clean.pairs);

    // …and loudly accounted for: the store detected the corruption,
    // failed over, served degraded reads, and healed itself.
    let m = chaos_dfs.metrics();
    assert!(m.corrupt_blocks_detected > 0, "{m:?}");
    assert!(m.failovers > 0, "{m:?}");
    assert!(m.degraded_reads > 0, "{m:?}");
    assert!(m.re_replications > 0, "{m:?}");
    assert!(!m.is_clean());
    assert!(!chaos_dfs.storage_faults_delivered().is_empty());

    // The task layer recovered too (both pipeline jobs retried every
    // task once).
    assert!(chaotic.metrics.total_failures() > 0);
    assert!(!injector.delivered().is_empty());
}

#[test]
fn losing_every_datanode_is_a_typed_job_error_not_a_panic() {
    let r = dataset(80, 62, 0);
    let s = dataset(80, 63, 10_000);
    let plan = (0..DfsConfig::default().num_nodes)
        .fold(StorageFaultPlan::new(), |p, n| p.kill_node(n));
    let dfs = InMemoryDfs::with_faults(DfsConfig::default(), plan);
    load_inputs(&dfs, &r, &s);
    let err = match try_mrha_hamming_join_on_dfs(&dfs, "r", "s", "out", &cfg(), &FaultInjector::none())
    {
        Err(e) => e,
        Ok(_) => panic!("no replica can survive a full cluster loss"),
    };
    match err {
        JobError::StorageFailed(DfsError::AllReplicasLost { ref path, .. }) => {
            assert_eq!(path, "r", "the first DFS read fails");
        }
        ref other => panic!("expected StorageFailed(AllReplicasLost), got {other:?}"),
    }
    assert!(err.to_string().contains("storage failed"), "{err}");
}

#[test]
fn corrupting_every_replica_of_one_block_fails_closed_at_the_dfs() {
    let dfs = InMemoryDfs::new();
    dfs.put_with_blocks("f", (0..500u64).collect::<Vec<_>>(), 64, 8);
    let victim = 3usize;
    let plan = dfs
        .replica_nodes("f", victim)
        .into_iter()
        .fold(StorageFaultPlan::new(), |p, n| p.corrupt(n, "f", victim));
    dfs.install_fault_plan(plan);
    let err = dfs.try_get::<u64>("f").expect_err("no healthy replica left");
    assert_eq!(
        err,
        DfsError::ChecksumMismatch {
            path: "f".to_string(),
            block: victim,
        }
    );
    assert_eq!(dfs.metrics().corrupt_blocks_detected, 3, "all three caught");
}

// ---------------------------------------------------------------------------
// Property: fault plans that spare one replica per block are invisible
// ---------------------------------------------------------------------------

const RECORDS: u64 = 400;
const BLOCK: usize = 32;

/// Derives a survivable storage fault plan from `seed`: up to two dead
/// datanodes, plus — per block — corruption of a strict subset of the
/// replicas on *surviving* nodes, plus an occasional read delay (which is
/// not a fault at all). Returns the plan and, per block, the number of
/// replicas the read path must skip (the leading dead-or-corrupt run of
/// the placement order) and how many of those are corruptions.
fn survivable_plan(seed: u64, dfs: &InMemoryDfs, path: &str) -> (StorageFaultPlan, Vec<(u64, u64)>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = StorageFaultPlan::new();
    let num_nodes = dfs.config().num_nodes;
    let dead: Vec<usize> = (0..num_nodes)
        .filter(|_| rng.gen_bool(0.2))
        .take(2)
        .collect();
    for &n in &dead {
        plan = plan.kill_node(n);
    }
    let mut expected = Vec::new();
    for b in 0..dfs.block_count(path) {
        let replicas = dfs.replica_nodes(path, b);
        let survivors: Vec<usize> = replicas
            .iter()
            .copied()
            .filter(|n| !dead.contains(n))
            .collect();
        // Strict subset: at least one surviving replica stays pristine.
        let n_corrupt = rng.gen_range(0..survivors.len());
        let corrupted: Vec<usize> = survivors[..n_corrupt].to_vec();
        for &n in &corrupted {
            plan = plan.corrupt(n, path, b);
        }
        if rng.gen_bool(0.15) {
            plan = plan.delay_read(path, b, Duration::from_micros(100));
        }
        // The read path walks the placement order and stops at the first
        // node that is neither dead nor corrupted; only that leading run
        // is skipped (corruption of a replica behind a healthy head never
        // even fires).
        let mut skipped = 0u64;
        let mut detected = 0u64;
        for n in &replicas {
            if dead.contains(n) {
                skipped += 1;
            } else if corrupted.contains(n) {
                skipped += 1;
                detected += 1;
            } else {
                break;
            }
        }
        expected.push((skipped, detected));
    }
    (plan, expected)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any storage fault plan that leaves every block at least one healthy
    /// replica is invisible in the data — and every skipped replica is
    /// accounted for, exactly, in the recovery metrics.
    #[test]
    fn plans_sparing_one_replica_per_block_are_invisible(seed in any::<u64>()) {
        let data: Vec<u64> = (0..RECORDS).collect();
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("data", data.clone(), BLOCK, 8);
        let (plan, expected) = survivable_plan(seed, &dfs, "data");
        dfs.install_fault_plan(plan);

        prop_assert_eq!(dfs.try_get::<u64>("data").expect("survivable"), data.clone());

        let m = dfs.metrics();
        let skipped: u64 = expected.iter().map(|(s, _)| s).sum();
        let detected: u64 = expected.iter().map(|(_, d)| d).sum();
        let degraded = expected.iter().filter(|(s, _)| *s > 0).count() as u64;
        prop_assert_eq!(m.failovers, skipped);
        prop_assert_eq!(m.corrupt_blocks_detected, detected);
        prop_assert_eq!(m.degraded_reads, degraded);
        // Six nodes, three replicas, at most two dead: a healthy standby
        // always exists, so every skipped replica is re-created.
        prop_assert_eq!(m.re_replications, skipped);

        // The store healed itself: re-reading through split reads is
        // clean and still exact.
        let splits = dfs.try_splits::<u64>("data").expect("healed");
        let rejoined: Vec<u64> = splits.into_iter().flatten().collect();
        prop_assert_eq!(rejoined, data);
    }

    /// Destroying every replica of any one block — kills, corruption, or a
    /// mix — surfaces as a typed error, never a panic and never wrong data.
    #[test]
    fn destroying_any_full_block_fails_closed(seed in any::<u64>(), kill_some in any::<bool>()) {
        let data: Vec<u64> = (0..RECORDS).collect();
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("data", data, BLOCK, 8);
        let blocks = dfs.block_count("data");
        let victim = (seed % blocks as u64) as usize;
        let replicas = dfs.replica_nodes("data", victim);
        let mut plan = StorageFaultPlan::new();
        let mut any_corrupt = false;
        for (i, &n) in replicas.iter().enumerate() {
            // Mix kill and corruption across the victim's replicas; at
            // least the last one is corruption when `kill_some` kills.
            if kill_some && i + 1 < replicas.len() {
                plan = plan.kill_node(n);
            } else {
                plan = plan.corrupt(n, "data", victim);
                any_corrupt = true;
            }
        }
        dfs.install_fault_plan(plan);
        let err = dfs.try_get::<u64>("data").expect_err("victim block is gone");
        match err {
            DfsError::ChecksumMismatch { ref path, block } => {
                prop_assert!(any_corrupt);
                prop_assert_eq!(path.as_str(), "data");
                prop_assert_eq!(block, victim);
            }
            DfsError::AllReplicasLost { ref path, block } => {
                prop_assert_eq!(path.as_str(), "data");
                prop_assert_eq!(block, victim);
            }
            ref other => panic!("expected a block-loss error, got {other:?}"),
        }
    }
}
