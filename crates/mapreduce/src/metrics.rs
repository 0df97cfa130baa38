//! Job metrics: shuffle volume, task timings, and load-balance statistics.
//!
//! §5 argues two things drive MapReduce join performance: the shuffle/IO
//! volume between mappers and reducers, and load balance ("the slowest
//! mapper or reducer determines the job running time"). These are exactly
//! the quantities recorded here and plotted in Figures 7 and 9.

use std::time::Duration;

/// Timing and volume of one map or reduce task.
///
/// `duration`, `records_in`, and `records_out` describe the successful
/// attempt; `attempts` and `failures` describe what it cost to get there.
#[derive(Clone, Debug, Default)]
pub struct TaskMetrics {
    /// Wall-clock time the successful attempt ran for.
    pub duration: Duration,
    /// Records consumed.
    pub records_in: usize,
    /// Records produced.
    pub records_out: usize,
    /// Attempts launched for this task (≥ 1; failed attempts included).
    pub attempts: u32,
    /// Attempts that failed (panicked or hit a transient error). In a
    /// completed job every counted failure was retried, so this is also
    /// the task's retry count.
    pub failures: u32,
}

/// Aggregated metrics of one MapReduce job.
#[derive(Clone, Debug, Default)]
pub struct JobMetrics {
    /// Human-readable job name.
    pub job_name: String,
    /// Per-map-task metrics.
    pub map_tasks: Vec<TaskMetrics>,
    /// Per-reduce-task metrics.
    pub reduce_tasks: Vec<TaskMetrics>,
    /// Bytes of intermediate key/value data crossing the shuffle.
    pub shuffle_bytes: usize,
    /// Bytes broadcast through the distributed cache (counted once per
    /// receiving worker, like Hadoop's per-node cache materialization).
    pub broadcast_bytes: usize,
    /// Total wall-clock of the job end to end.
    pub elapsed: Duration,
}

impl JobMetrics {
    /// Straggler factor of the reduce phase: slowest task over mean task
    /// input volume (1.0 = perfectly balanced). Returns 1.0 with no tasks.
    pub fn reduce_skew(&self) -> f64 {
        skew(self.reduce_tasks.iter().map(|t| t.records_in))
    }

    /// Total records entering the reduce phase.
    pub fn reduce_input_records(&self) -> usize {
        self.reduce_tasks.iter().map(|t| t.records_in).sum()
    }

    /// Sum of shuffle and broadcast traffic — the "data shuffling cost"
    /// axis of Figure 7.
    pub fn total_traffic_bytes(&self) -> usize {
        self.shuffle_bytes + self.broadcast_bytes
    }

    /// Attempts launched across all tasks (≥ the task count; the excess
    /// is recovery cost).
    pub fn total_attempts(&self) -> u32 {
        self.all_tasks().map(|t| t.attempts).sum()
    }

    /// Failed map-task attempts.
    pub fn map_failures(&self) -> u32 {
        self.map_tasks.iter().map(|t| t.failures).sum()
    }

    /// Failed reduce-task attempts.
    pub fn reduce_failures(&self) -> u32 {
        self.reduce_tasks.iter().map(|t| t.failures).sum()
    }

    /// Failed attempts across both phases.
    pub fn total_failures(&self) -> u32 {
        self.map_failures() + self.reduce_failures()
    }

    /// Retries across both phases. In a job that completed, every failed
    /// attempt was retried, so this equals [`JobMetrics::total_failures`].
    pub fn total_retries(&self) -> u32 {
        self.total_failures()
    }

    /// Recovery overhead factor: attempts per task (1.0 = no task ever
    /// failed — the fault-tolerance analogue of
    /// [`JobMetrics::reduce_skew`]). Returns 1.0 with no tasks.
    pub fn attempt_overhead(&self) -> f64 {
        let tasks = self.map_tasks.len() + self.reduce_tasks.len();
        if tasks == 0 {
            1.0
        } else {
            self.total_attempts() as f64 / tasks as f64
        }
    }

    fn all_tasks(&self) -> impl Iterator<Item = &TaskMetrics> {
        self.map_tasks.iter().chain(self.reduce_tasks.iter())
    }

    /// Folds another job's metrics into this one (multi-job pipelines
    /// report pipeline totals).
    pub fn absorb(&mut self, other: &JobMetrics) {
        self.shuffle_bytes += other.shuffle_bytes;
        self.broadcast_bytes += other.broadcast_bytes;
        self.elapsed += other.elapsed;
        self.map_tasks.extend(other.map_tasks.iter().cloned());
        self.reduce_tasks.extend(other.reduce_tasks.iter().cloned());
    }
}

/// Snapshot of the DFS storage-recovery counters — what it cost the
/// replicated store to keep serving reads (the storage analogue of the
/// attempts/failures counters on [`TaskMetrics`]). Reported
/// next to the shuffle accounting in the fig7/fig9 experiment output.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DfsMetrics {
    /// Replicas that failed read-time checksum verification and were
    /// quarantined.
    pub corrupt_blocks_detected: u64,
    /// Replica switches: copies skipped (dead or corrupt) before a block
    /// read found a healthy one.
    pub failovers: u64,
    /// Copies re-created to bring degraded blocks back to target
    /// replication factor.
    pub re_replications: u64,
    /// Block reads that succeeded despite skipping at least one replica.
    pub degraded_reads: u64,
    /// Total logical bytes written (per caller-supplied record sizes).
    pub bytes_written: usize,
}

impl DfsMetrics {
    /// Recovery actions performed (corruption quarantines + failovers +
    /// re-replications) — 0 means storage never had to hide a fault.
    fn recovery_actions(&self) -> u64 {
        self.corrupt_blocks_detected + self.failovers + self.re_replications
    }

    /// True when no read ever needed recovery.
    pub fn is_clean(&self) -> bool {
        self.recovery_actions() == 0 && self.degraded_reads == 0
    }
}

fn skew(volumes: impl Iterator<Item = usize>) -> f64 {
    let v: Vec<usize> = volumes.collect();
    if v.is_empty() {
        return 1.0;
    }
    let max = *v.iter().max().expect("non-empty") as f64;
    let mean = v.iter().sum::<usize>() as f64 / v.len() as f64;
    if mean == 0.0 {
        1.0
    } else {
        max / mean
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn task(records_in: usize) -> TaskMetrics {
        TaskMetrics {
            records_in,
            ..TaskMetrics::default()
        }
    }

    #[test]
    fn balanced_skew_is_one() {
        let m = JobMetrics {
            reduce_tasks: vec![task(100), task(100), task(100)],
            ..JobMetrics::default()
        };
        assert!((m.reduce_skew() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn skewed_reduce_detected() {
        let m = JobMetrics {
            reduce_tasks: vec![task(10), task(10), task(280)],
            ..JobMetrics::default()
        };
        assert!(m.reduce_skew() > 2.5, "skew {}", m.reduce_skew());
        assert_eq!(m.reduce_input_records(), 300);
    }

    #[test]
    fn empty_job_skew_defaults() {
        let m = JobMetrics::default();
        assert_eq!(m.reduce_skew(), 1.0);
        assert_eq!(m.total_traffic_bytes(), 0);
    }

    #[test]
    fn recovery_counters_aggregate_across_phases() {
        let m = JobMetrics {
            map_tasks: vec![
                TaskMetrics {
                    attempts: 2,
                    failures: 1,
                    ..TaskMetrics::default()
                },
                TaskMetrics {
                    attempts: 1,
                    ..TaskMetrics::default()
                },
            ],
            reduce_tasks: vec![TaskMetrics {
                attempts: 3,
                failures: 1,
                ..TaskMetrics::default()
            }],
            ..JobMetrics::default()
        };
        assert_eq!(m.total_attempts(), 6);
        assert_eq!(m.map_failures(), 1);
        assert_eq!(m.reduce_failures(), 1);
        assert_eq!(m.total_failures(), 2);
        assert_eq!(m.total_retries(), 2);
        assert!((m.attempt_overhead() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn fault_free_job_has_unit_overhead() {
        let clean = TaskMetrics {
            attempts: 1,
            ..TaskMetrics::default()
        };
        let m = JobMetrics {
            map_tasks: vec![clean.clone(), clean.clone()],
            reduce_tasks: vec![clean],
            ..JobMetrics::default()
        };
        assert_eq!(m.total_failures(), 0);
        assert!((m.attempt_overhead() - 1.0).abs() < 1e-12);
        assert!((JobMetrics::default().attempt_overhead() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn absorb_accumulates() {
        let mut a = JobMetrics {
            shuffle_bytes: 100,
            broadcast_bytes: 5,
            ..JobMetrics::default()
        };
        let b = JobMetrics {
            shuffle_bytes: 50,
            broadcast_bytes: 10,
            reduce_tasks: vec![task(1)],
            ..JobMetrics::default()
        };
        a.absorb(&b);
        assert_eq!(a.shuffle_bytes, 150);
        assert_eq!(a.broadcast_bytes, 15);
        assert_eq!(a.reduce_tasks.len(), 1);
    }
}
