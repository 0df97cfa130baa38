//! Deterministic fault injection for the job runner.
//!
//! Hadoop's operational premise is that tasks fail: attempts panic, nodes
//! stall, transient errors appear and disappear. Testing recovery paths
//! against *real* nondeterminism is hopeless, so this module makes every
//! failure reproducible: a [`FaultPlan`] maps `(task, attempt)` pairs to
//! faults, and a [`FaultInjector`] hands those faults to the runner at the
//! moment the chosen attempt starts. Because attempt numbers are assigned
//! deterministically (0, 1, 2, … per task, one attempt after another),
//! the same plan always hits the same execution points — every test of the
//! retry machinery replays exactly.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// Identity of one task in a job: which phase, and the task's index within
/// that phase (map task = split index, reduce task = partition index).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId {
    /// Phase the task belongs to.
    pub phase: Phase,
    /// Index of the task within its phase.
    pub index: usize,
}

impl TaskId {
    /// The `i`-th map task.
    pub fn map(index: usize) -> Self {
        TaskId {
            phase: Phase::Map,
            index,
        }
    }

    /// The `i`-th reduce task.
    pub fn reduce(index: usize) -> Self {
        TaskId {
            phase: Phase::Reduce,
            index,
        }
    }
}

impl std::fmt::Display for TaskId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.phase {
            Phase::Map => write!(f, "map[{}]", self.index),
            Phase::Reduce => write!(f, "reduce[{}]", self.index),
        }
    }
}

/// Which phase of the job a task runs in.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Phase {
    Map,
    Reduce,
}

/// A fault injected into one task attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// The attempt panics (exercises the `catch_unwind` isolation path).
    Panic,
    /// The attempt sleeps this long before doing its work: a straggler,
    /// which must not change the job's output (it is not a failure and
    /// consumes no attempt).
    Delay(Duration),
    /// The attempt reports a transient error without unwinding (a failed
    /// RPC, a lost intermediate file).
    TransientError,
}

/// A reproducible schedule of faults, keyed by `(task, attempt)`.
///
/// Plans are built with a fluent API and are plain data — clone them, ship
/// them to tests, print them on failure:
///
/// ```
/// use ha_mapreduce::fault::{FaultPlan, TaskId};
/// use std::time::Duration;
///
/// let plan = FaultPlan::new()
///     .panic_on(TaskId::map(0), 0)
///     .delay(TaskId::reduce(1), 0, Duration::from_millis(40))
///     .transient(TaskId::map(2), 1);
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    faults: HashMap<(TaskId, u32), Fault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Injects `fault` into attempt `attempt` of `task`.
    pub fn inject(mut self, task: TaskId, attempt: u32, fault: Fault) -> Self {
        self.faults.insert((task, attempt), fault);
        self
    }

    /// Panics attempt `attempt` of `task`.
    pub fn panic_on(self, task: TaskId, attempt: u32) -> Self {
        self.inject(task, attempt, Fault::Panic)
    }

    /// Delays attempt `attempt` of `task` by `delay`.
    pub fn delay(self, task: TaskId, attempt: u32, delay: Duration) -> Self {
        self.inject(task, attempt, Fault::Delay(delay))
    }

    /// Fails attempt `attempt` of `task` with a transient error.
    pub fn transient(self, task: TaskId, attempt: u32) -> Self {
        self.inject(task, attempt, Fault::TransientError)
    }

    /// The chaos-matrix staple: first attempt of **every** task panics, so
    /// the job only completes if every single task recovers.
    pub fn panic_first_attempt_everywhere(map_tasks: usize, reduce_tasks: usize) -> Self {
        let mut plan = FaultPlan::new();
        for i in 0..map_tasks {
            plan = plan.panic_on(TaskId::map(i), 0);
        }
        for i in 0..reduce_tasks {
            plan = plan.panic_on(TaskId::reduce(i), 0);
        }
        plan
    }

    /// Fault scheduled for this `(task, attempt)`, if any.
    fn fault_for(&self, task: TaskId, attempt: u32) -> Option<&Fault> {
        self.faults.get(&(task, attempt))
    }

    /// Number of scheduled faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Largest number of faults scheduled on any single task — a plan
    /// survives a runner configured with `max_attempts > max_faults_per_task()`
    /// (delays don't consume attempts, only panics/transients do).
    pub fn max_failures_per_task(&self) -> u32 {
        let mut per_task: HashMap<TaskId, u32> = HashMap::new();
        for ((task, _), fault) in &self.faults {
            if !matches!(fault, Fault::Delay(_)) {
                *per_task.entry(*task).or_default() += 1;
            }
        }
        per_task.into_values().max().unwrap_or(0)
    }
}

/// One fault actually delivered to a running attempt.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FaultEvent {
    /// Task the fault hit.
    pub task: TaskId,
    /// Attempt number the fault hit.
    pub attempt: u32,
    /// The fault delivered.
    pub fault: Fault,
}

/// Delivers a [`FaultPlan`] to a running job and records what fired.
///
/// The runner consults the injector at the start of every task attempt;
/// the injector logs each delivered fault so tests can assert not only on
/// outputs and metrics but on the exact failure schedule that executed.
#[derive(Debug, Default)]
pub struct FaultInjector {
    plan: FaultPlan,
    delivered: Mutex<Vec<FaultEvent>>,
}

impl FaultInjector {
    /// An injector that never fires — the production configuration.
    pub fn none() -> Self {
        FaultInjector::default()
    }

    /// An injector delivering `plan`.
    pub fn new(plan: FaultPlan) -> Self {
        FaultInjector {
            plan,
            delivered: Mutex::new(Vec::new()),
        }
    }

    /// The plan this injector delivers.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Called by the runner as attempt `attempt` of `task` starts; returns
    /// the fault to apply, recording the delivery.
    pub(crate) fn deliver(&self, task: TaskId, attempt: u32) -> Option<Fault> {
        let fault = self.plan.fault_for(task, attempt).cloned()?;
        self.delivered
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(FaultEvent {
                task,
                attempt,
                fault: fault.clone(),
            });
        Some(fault)
    }

    /// Everything delivered so far, in delivery order per task (order
    /// across tasks depends on scheduling; sort before comparing).
    pub fn delivered(&self) -> Vec<FaultEvent> {
        self.delivered
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plan_builder_schedules_and_looks_up() {
        let plan = FaultPlan::new()
            .panic_on(TaskId::map(3), 0)
            .transient(TaskId::map(3), 1)
            .delay(TaskId::reduce(0), 0, Duration::from_millis(5));
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.fault_for(TaskId::map(3), 0), Some(&Fault::Panic));
        assert_eq!(
            plan.fault_for(TaskId::map(3), 1),
            Some(&Fault::TransientError)
        );
        assert_eq!(plan.fault_for(TaskId::map(3), 2), None);
        assert_eq!(plan.fault_for(TaskId::reduce(1), 0), None);
        assert_eq!(plan.max_failures_per_task(), 2, "delay is not a failure");
    }

    #[test]
    fn chaos_matrix_covers_every_task() {
        let plan = FaultPlan::panic_first_attempt_everywhere(4, 3);
        assert_eq!(plan.len(), 7);
        for i in 0..4 {
            assert_eq!(plan.fault_for(TaskId::map(i), 0), Some(&Fault::Panic));
        }
        for i in 0..3 {
            assert_eq!(plan.fault_for(TaskId::reduce(i), 0), Some(&Fault::Panic));
        }
        assert_eq!(plan.max_failures_per_task(), 1);
    }

    #[test]
    fn injector_logs_deliveries() {
        let injector = FaultInjector::new(FaultPlan::new().panic_on(TaskId::map(0), 0));
        assert_eq!(injector.deliver(TaskId::map(0), 1), None);
        assert_eq!(injector.deliver(TaskId::map(0), 0), Some(Fault::Panic));
        let log = injector.delivered();
        assert_eq!(log.len(), 1);
        assert_eq!(log[0].task, TaskId::map(0));
        assert_eq!(log[0].attempt, 0);
    }

    #[test]
    fn none_never_fires() {
        let injector = FaultInjector::none();
        assert_eq!(injector.deliver(TaskId::map(0), 0), None);
        assert!(injector.delivered().is_empty());
        assert!(injector.plan().is_empty());
    }

    #[test]
    fn task_ids_display_readably() {
        assert_eq!(TaskId::map(2).to_string(), "map[2]");
        assert_eq!(TaskId::reduce(0).to_string(), "reduce[0]");
    }
}
