//! HA-Par — the scoped work-stealing search executor.
//!
//! The kernel layer (HA-Kern) runs a single sibling-group sweep near the
//! hardware limit; what remained sequential was everything *around* the
//! sweeps: `HaServe` probed its shards one after another on the worker
//! thread that claimed the batch, and a frozen-frontier level was walked
//! group by group on one core. This module is the execution layer that
//! closes the gap:
//!
//! * [`SearchExecutor::fan_out`] turns per-shard probes (or any `n`
//!   independent tasks over borrowed state) into stealable tasks on
//!   [`ha_bitcode::pool::fan_out`]'s scoped pool. Results come back in
//!   task order, so callers merge exactly as their sequential loops did
//!   — answers stay byte-identical (DESIGN.md, "Why shard fan-out
//!   preserves exactness").
//! * [`ExecConfig`] is the one knob bundle: executor width, a pinned
//!   sweep [`Kernel`] (default: the one-time runtime probe
//!   [`Kernel::detect`]), and the frontier prefetch distance. `HaServe`
//!   embeds it in `ServeConfig` and forwards the kernel/prefetch knobs
//!   into the [`FreezePolicy`](crate::FreezePolicy) its generations are
//!   frozen under.
//!
//! Observability: every parallel fan-out opens an `exec.fan_out` span
//! and bumps `exec.tasks` / `exec.parallel_fanouts`; the executor
//! records its resolved kernel once at construction under
//! `exec.kernel.<name>`, so a trace shows what the process actually
//! dispatched to, not what was compiled in.

use ha_bitcode::pool;
use ha_bitcode::Kernel;

/// Execution knobs for query-time parallelism — how wide to fan out,
/// which kernel to sweep with, how far ahead to prefetch. Carried by
/// `ServeConfig` and mapped into the `FreezePolicy` of every generation
/// the service freezes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ExecConfig {
    /// Worker threads for shard fan-out; `<= 1` runs tasks inline on
    /// the calling thread with zero pool overhead.
    pub workers: usize,
    /// Pinned sweep kernel for frozen snapshots; `None` defers to the
    /// runtime CPU-feature probe ([`Kernel::detect`]). Every kernel
    /// computes identical distances — this is purely a speed knob.
    pub kernel: Option<Kernel>,
    /// Frontier prefetch look-ahead in entries; `None` takes the
    /// measured default, `Some(0)` disables the hints.
    pub prefetch: Option<usize>,
}

impl ExecConfig {
    /// The sequential executor: every task inline, in order — the
    /// oracle configuration the equivalence suite compares against.
    pub fn sequential() -> ExecConfig {
        ExecConfig { workers: 1, kernel: None, prefetch: None }
    }

    /// Same config with a different fan-out width.
    pub fn with_workers(mut self, workers: usize) -> ExecConfig {
        self.workers = workers;
        self
    }

    /// Same config sweeping on `kernel` instead of the runtime probe.
    pub fn with_kernel(mut self, kernel: Kernel) -> ExecConfig {
        self.kernel = Some(kernel);
        self
    }

    /// Same config with an explicit prefetch distance (0 disables).
    pub fn with_prefetch(mut self, distance: usize) -> ExecConfig {
        self.prefetch = Some(distance);
        self
    }

    /// The kernel this config resolves to at runtime.
    pub fn resolved_kernel(&self) -> Kernel {
        self.kernel.unwrap_or_else(Kernel::detect)
    }
}

impl Default for ExecConfig {
    /// As many workers as the host exposes, runtime-probed kernel,
    /// default prefetch. On a single-core host this degenerates to the
    /// sequential executor — the pool is never spun up.
    fn default() -> ExecConfig {
        let workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        ExecConfig::sequential().with_workers(workers)
    }
}

/// The fan-out engine built from an [`ExecConfig`] — cheap to construct,
/// held by `HaServe` for the process lifetime.
#[derive(Clone, Copy, Debug)]
pub struct SearchExecutor {
    workers: usize,
}

impl SearchExecutor {
    /// Builds the executor and records the config's resolved kernel in
    /// the counter registry (`exec.kernel.<name>`), so traces show the
    /// per-process dispatch decision.
    pub fn new(cfg: &ExecConfig) -> SearchExecutor {
        ha_obs::add(&format!("exec.kernel.{}", cfg.resolved_kernel().name()), 1);
        SearchExecutor { workers: cfg.workers.max(1) }
    }

    /// Fan-out width this executor runs at.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f(0..tasks)` across the executor's workers and returns the
    /// results **in task order** — the exact output of the sequential
    /// `(0..tasks).map(f).collect()`, which is what lets callers keep
    /// their merge code unchanged. Tasks may borrow caller state (read
    /// guards, views): the pool uses scoped threads.
    pub fn fan_out<R, F>(&self, tasks: usize, f: F) -> Vec<R>
    where
        R: Send,
        F: Fn(usize) -> R + Sync,
    {
        if self.workers <= 1 || tasks <= 1 {
            return (0..tasks).map(f).collect();
        }
        let _span = ha_obs::span_labeled("exec.fan_out", || {
            format!("tasks={tasks} workers={}", self.workers)
        });
        ha_obs::add("exec.parallel_fanouts", 1);
        ha_obs::add("exec.tasks", tasks as u64);
        pool::fan_out(self.workers, tasks, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_matches_sequential_map() {
        let data: Vec<u32> = (0..100).map(|i| i * 7).collect();
        let expect: Vec<u32> = data.iter().map(|&v| v + 1).collect();
        for workers in [1, 2, 8] {
            let exec = SearchExecutor::new(&ExecConfig::sequential().with_workers(workers));
            assert_eq!(exec.fan_out(data.len(), |i| data[i] + 1), expect);
        }
    }

    #[test]
    fn config_resolution_and_builders() {
        let seq = ExecConfig::sequential();
        assert_eq!(seq.workers, 1);
        assert_eq!(seq.resolved_kernel(), Kernel::detect());
        let pinned = seq.with_kernel(Kernel::Scalar).with_prefetch(0).with_workers(4);
        assert_eq!(pinned.resolved_kernel(), Kernel::Scalar);
        assert_eq!(pinned.prefetch, Some(0));
        assert_eq!(pinned.workers, 4);
        assert!(ExecConfig::default().workers >= 1);
        // Zero-worker configs clamp to 1: an executor always runs.
        assert_eq!(SearchExecutor::new(&seq.with_workers(0)).workers(), 1);
    }

    #[test]
    fn fan_out_borrows_non_static_state() {
        let exec = SearchExecutor::new(&ExecConfig::sequential().with_workers(3));
        let rows = vec![vec![1u64, 2, 3], vec![4], vec![], vec![5, 6]];
        let sums = exec.fan_out(rows.len(), |i| rows[i].iter().sum::<u64>());
        assert_eq!(sums, vec![6, 4, 0, 11]);
    }
}
