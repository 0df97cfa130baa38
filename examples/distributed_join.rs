//! The full MapReduce Hamming-join pipeline (§5, Figure 5) end to end:
//! preprocessing, distributed global HA-Index construction, and the join —
//! run under both Option A (broadcast leafy index) and Option B (leafless
//! index + post hash-join), with the PMH baseline for contrast.
//!
//! ```text
//! cargo run --release --example distributed_join
//! ```

use hamming_suite::datagen::{generate, DatasetProfile};
use hamming_suite::distributed::pipeline::{try_mrha_hamming_join, MrHaConfig};
use hamming_suite::distributed::pmh::try_pmh_hamming_join;
use hamming_suite::distributed::JoinOption;
use hamming_suite::mapreduce::{FaultInjector, JobError};

fn main() -> Result<(), JobError> {
    // Two image collections to join (NUS-WIDE-shaped; spread over more
    // clusters so the join selectivity matches real collections).
    let profile = DatasetProfile {
        clusters: DatasetProfile::nuswide().clusters * 16,
        ..DatasetProfile::nuswide()
    };
    let r: Vec<(Vec<f64>, u64)> = generate(&profile, 3_000, 1)
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, i as u64))
        .collect();
    let s: Vec<(Vec<f64>, u64)> = generate(&profile, 5_000, 1) // same distribution
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, 1_000_000 + i as u64))
        .collect();
    println!(
        "joining |R| = {} with |S| = {} ({}-d features, h = 3, N = 8 partitions)\n",
        r.len(),
        s.len(),
        profile.dim
    );

    let base = MrHaConfig {
        partitions: 8,
        h: 3,
        ..MrHaConfig::default()
    };

    let report = |name: &str, outcome: &hamming_suite::distributed::JoinOutcome| {
        println!("{name}");
        println!("  result pairs     : {}", outcome.pairs.len());
        println!("  shuffle bytes    : {}", outcome.metrics.shuffle_bytes);
        println!("  broadcast bytes  : {}", outcome.metrics.broadcast_bytes);
        println!(
            "  total traffic    : {}",
            outcome.metrics.total_traffic_bytes()
        );
        println!("  reduce skew      : {:.2}", outcome.metrics.reduce_skew());
        println!(
            "  phases           : sample {:?} | learn {:?} | build {:?} | join {:?}\n",
            outcome.times.sampling,
            outcome.times.hash_learning,
            outcome.times.index_build,
            outcome.times.join
        );
    };

    let a = try_mrha_hamming_join(
        &r,
        &s,
        &MrHaConfig {
            option: JoinOption::A,
            ..base.clone()
        },
        &FaultInjector::none(),
    )?;
    report("MRHA-Index, Option A (broadcast leafy index)", &a);

    let b = try_mrha_hamming_join(
        &r,
        &s,
        &MrHaConfig {
            option: JoinOption::B,
            ..base.clone()
        },
        &FaultInjector::none(),
    )?;
    report("MRHA-Index, Option B (leafless index + post hash-join)", &b);

    let pmh = try_pmh_hamming_join(&r, &s, 10, &base, &FaultInjector::none())?;
    report("PMH-10 (broadcast all of R, multi-hash-table)", &pmh);

    assert_eq!(a.pairs, b.pairs, "both options compute the same join");
    assert_eq!(a.pairs, pmh.pairs, "PMH agrees within its guarantee");
    assert!(
        pmh.metrics.total_traffic_bytes() > a.metrics.total_traffic_bytes(),
        "broadcasting raw R must cost more than broadcasting the index"
    );
    println!(
        "traffic ratio PMH / MRHA-A = {:.1}×",
        pmh.metrics.total_traffic_bytes() as f64 / a.metrics.total_traffic_bytes() as f64
    );
    Ok(())
}
