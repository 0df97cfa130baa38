//! Deterministic storage-fault injection for the replicated DFS.
//!
//! The task layer got its reproducible failure machinery in [`crate::fault`];
//! this module is the same philosophy applied to storage: a
//! [`StorageFaultPlan`] maps `(node, path, block)` coordinates to
//! kill-node / corrupt-replica / delay faults, the DFS consults the plan
//! on every block read, and every delivered fault is logged as a
//! [`StorageFaultEvent`]. Because replica placement is a pure function of
//! `(path, block)` and faults are applied at deterministic points (first
//! read that touches the replica), the same plan always produces the same
//! failovers, quarantines, and re-replications — storage chaos tests
//! replay exactly, like the task-fault chaos matrix does.

use std::collections::{BTreeSet, HashMap};
use std::time::Duration;

/// A fault injected into the storage layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum StorageFault {
    /// The datanode is dead: every replica it hosts is unreadable
    /// (discovered lazily, at the first read that tries the replica —
    /// like a heartbeat timeout surfacing on access).
    KillNode,
    /// One replica's stored bytes rot: its stored checksum no longer
    /// matches the data, so read-time verification quarantines it.
    CorruptReplica,
    /// The block read stalls this long before returning (a slow disk /
    /// hot spindle).
    DelayRead(Duration),
}

/// One storage fault actually delivered during a read.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StorageFaultEvent {
    /// Datanode involved (the dead node, the corrupt replica's host, or
    /// the node that served the delayed read).
    pub node: usize,
    /// File path of the affected block.
    pub path: String,
    /// Block index within the file.
    pub block: usize,
    /// The fault delivered.
    pub fault: StorageFault,
}

/// A reproducible schedule of storage faults.
///
/// Built with the same fluent style as [`crate::fault::FaultPlan`] and
/// equally plain data — clone it, install it on a DFS, print it when a
/// test fails:
///
/// ```
/// use ha_mapreduce::storage_fault::StorageFaultPlan;
/// use std::time::Duration;
///
/// let plan = StorageFaultPlan::new()
///     .kill_node(2)
///     .corrupt(0, "input/r", 3)
///     .delay_read("input/r", 0, Duration::from_millis(10));
/// assert_eq!(plan.len(), 3);
/// ```
#[derive(Clone, Debug, Default)]
pub struct StorageFaultPlan {
    dead_nodes: BTreeSet<usize>,
    corrupt: BTreeSet<(usize, String, usize)>,
    corrupt_primaries: bool,
    delays: HashMap<(String, usize), Duration>,
}

impl StorageFaultPlan {
    /// An empty plan (healthy storage).
    pub fn new() -> Self {
        StorageFaultPlan::default()
    }

    /// Kills datanode `node`: all replicas it hosts become unreadable.
    pub fn kill_node(mut self, node: usize) -> Self {
        self.dead_nodes.insert(node);
        self
    }

    /// Corrupts the replica of `path`'s block `block` hosted on `node`
    /// (applied once, at the first read that inspects the replica).
    pub fn corrupt(mut self, node: usize, path: &str, block: usize) -> Self {
        self.corrupt.insert((node, path.to_string(), block));
        self
    }

    /// The storage chaos staple: the first-listed replica of **every**
    /// block of **every** file is corrupted once, so every block read must
    /// detect the corruption and fail over — the storage analogue of
    /// [`crate::fault::FaultPlan::panic_first_attempt_everywhere`].
    pub fn corrupt_primaries_everywhere(mut self) -> Self {
        self.corrupt_primaries = true;
        self
    }

    /// Delays every read of `path`'s block `block` by `delay`.
    pub fn delay_read(mut self, path: &str, block: usize, delay: Duration) -> Self {
        self.delays.insert((path.to_string(), block), delay);
        self
    }

    /// Whether `node` is scheduled dead.
    pub(crate) fn is_dead(&self, node: usize) -> bool {
        self.dead_nodes.contains(&node)
    }

    /// Whether the replica of `path`:`block` on `node` is scheduled for
    /// corruption by a targeted [`StorageFaultPlan::corrupt`] entry.
    pub(crate) fn corrupts(&self, node: usize, path: &str, block: usize) -> bool {
        self.corrupt
            .contains(&(node, path.to_string(), block))
    }

    /// Whether [`StorageFaultPlan::corrupt_primaries_everywhere`] is on.
    pub(crate) fn corrupt_primaries(&self) -> bool {
        self.corrupt_primaries
    }

    /// Scheduled read delay for `path`:`block`, if any.
    pub(crate) fn delay_for(&self, path: &str, block: usize) -> Option<Duration> {
        self.delays.get(&(path.to_string(), block)).copied()
    }

    /// Number of scheduled fault entries (the blanket primary-corruption
    /// switch counts as one).
    pub fn len(&self) -> usize {
        self.dead_nodes.len()
            + self.corrupt.len()
            + self.delays.len()
            + usize::from(self.corrupt_primaries)
    }

    /// True when no faults are scheduled.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_schedules_and_looks_up() {
        let plan = StorageFaultPlan::new()
            .kill_node(1)
            .kill_node(4)
            .corrupt(2, "f", 0)
            .delay_read("g", 1, Duration::from_millis(3));
        assert_eq!(plan.len(), 4);
        assert!(plan.is_dead(1) && plan.is_dead(4) && !plan.is_dead(0));
        assert!(plan.corrupts(2, "f", 0));
        assert!(!plan.corrupts(2, "f", 1));
        assert!(!plan.corrupts(2, "g", 0));
        assert_eq!(plan.delay_for("g", 1), Some(Duration::from_millis(3)));
        assert_eq!(plan.delay_for("g", 0), None);
        assert!(!plan.corrupt_primaries());
    }

    #[test]
    fn empty_plan_is_empty() {
        let plan = StorageFaultPlan::new();
        assert!(plan.is_empty());
        assert_eq!(plan.len(), 0);
        assert!(!StorageFaultPlan::new().corrupt_primaries_everywhere().is_empty());
    }

    #[test]
    fn duplicate_entries_collapse() {
        let plan = StorageFaultPlan::new()
            .kill_node(3)
            .kill_node(3)
            .corrupt(0, "f", 2)
            .corrupt(0, "f", 2);
        assert_eq!(plan.len(), 2);
    }
}
