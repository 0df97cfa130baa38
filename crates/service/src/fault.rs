//! Deterministic fault injection for the generational serving layer,
//! mirroring `ha_mapreduce::FaultPlan` (task faults) and
//! `StorageFaultPlan` (replica faults): a test scripts *exactly* which
//! merge attempt panics, which publish is delayed, and which mutation
//! the "process" dies at — and the injector logs every delivery so the
//! test can assert the plan actually fired.
//!
//! Two keying schemes, matching the two places a generational service
//! can be hurt:
//!
//! * **Merge faults** are keyed by `(shard, attempt)` where `attempt`
//!   is the shard's 0-based lifetime merge-attempt counter — so "panic
//!   the first two attempts on shard 1, succeed on the third" is one
//!   line of plan and exercises the retry/backoff path deterministically.
//! * **Crash faults** are keyed by the 0-based *global mutation
//!   ordinal* (every accepted H-Insert/H-Delete increments it), with a
//!   before/after-WAL-append polarity. Crash-before models a process
//!   killed between accepting a request and making it durable (the
//!   mutation must be absent after recovery); crash-after models death
//!   between durability and acknowledgment (the mutation must be
//!   *present* after recovery — the WAL is the truth, not the ack).
//!
//! A delivered crash flips the service into shutdown and surfaces
//! `ServiceError::CrashInjected`; the test then recovers a fresh
//! service from the same DFS, which is as close to `kill -9` as an
//! in-process harness gets.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Duration;

/// A scripted merge-worker fault.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeFault {
    /// Panic inside the merge attempt, after the delta capture but
    /// before anything is published — the worker's `catch_unwind`
    /// contains it and retries (or poisons the shard on exhaustion).
    PanicMidMerge,
    /// Sleep for the given duration between building the next
    /// generation and swapping it in — widens the publish window so
    /// races between readers and the swap become schedulable.
    DelayPublish(Duration),
}

/// Which side of the WAL append a scripted crash lands on.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CrashPoint {
    /// Die before the mutation reaches the WAL: not durable, must be
    /// absent after recovery.
    BeforeWalAck,
    /// Die after the WAL append but before the acknowledgment (and
    /// before the in-memory apply): durable, must be present after
    /// recovery even though no client ever saw an `Ok`.
    AfterWalAck,
}

/// One delivered fault, as logged by the injector.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MergeFaultEvent {
    /// A merge fault fired on `(shard, attempt)`.
    Merge {
        /// Shard whose merge attempt was faulted.
        shard: usize,
        /// The shard's 0-based lifetime merge-attempt counter.
        attempt: u32,
        /// What was delivered.
        fault: MergeFault,
    },
    /// A crash fault fired on the mutation with this global ordinal.
    Crash {
        /// 0-based global mutation ordinal the crash landed on.
        ordinal: u64,
        /// Which side of the WAL append it hit.
        point: CrashPoint,
    },
}

/// A deterministic fault schedule, built fluently:
///
/// ```
/// use std::time::Duration;
/// use ha_service::{MergeFault, MergeFaultPlan};
///
/// let plan = MergeFaultPlan::new()
///     .panic_on_merge(1, 0)               // shard 1's first attempt dies
///     .panic_on_merge(1, 1)               // …and the retry
///     .delay_publish(0, 0, Duration::from_millis(2))
///     .crash_after_wal_ack(7);            // mutation #7 is durable-unacked
/// assert_eq!(plan.len(), 4);
/// ```
#[derive(Clone, Debug, Default)]
pub struct MergeFaultPlan {
    merge: HashMap<(usize, u32), MergeFault>,
    crash: HashMap<u64, CrashPoint>,
}

impl MergeFaultPlan {
    /// An empty plan (no faults).
    pub fn new() -> Self {
        MergeFaultPlan::default()
    }

    /// Schedules `fault` for shard `shard`'s `attempt`-th merge attempt
    /// (0-based, counted over the shard's lifetime). Replaces any fault
    /// already scheduled there.
    fn inject_merge(mut self, shard: usize, attempt: u32, fault: MergeFault) -> Self {
        self.merge.insert((shard, attempt), fault);
        self
    }

    /// Shorthand: panic shard `shard`'s `attempt`-th merge attempt.
    pub fn panic_on_merge(self, shard: usize, attempt: u32) -> Self {
        self.inject_merge(shard, attempt, MergeFault::PanicMidMerge)
    }

    /// Shorthand: delay the publish of shard `shard`'s `attempt`-th
    /// merge attempt by `by`.
    pub fn delay_publish(self, shard: usize, attempt: u32, by: Duration) -> Self {
        self.inject_merge(shard, attempt, MergeFault::DelayPublish(by))
    }

    /// Schedules a process crash *before* the WAL append of the
    /// mutation with global ordinal `ordinal` (0-based over all
    /// accepted mutations).
    pub fn crash_before_wal_ack(mut self, ordinal: u64) -> Self {
        self.crash.insert(ordinal, CrashPoint::BeforeWalAck);
        self
    }

    /// Schedules a process crash *after* the WAL append but before the
    /// acknowledgment of the mutation with global ordinal `ordinal`.
    pub fn crash_after_wal_ack(mut self, ordinal: u64) -> Self {
        self.crash.insert(ordinal, CrashPoint::AfterWalAck);
        self
    }

    /// The merge fault scheduled for `(shard, attempt)`, if any.
    fn merge_fault_for(&self, shard: usize, attempt: u32) -> Option<MergeFault> {
        self.merge.get(&(shard, attempt)).copied()
    }

    /// The crash scheduled for mutation `ordinal`, if any.
    fn crash_for(&self, ordinal: u64) -> Option<CrashPoint> {
        self.crash.get(&ordinal).copied()
    }

    /// Total scheduled faults.
    pub fn len(&self) -> usize {
        self.merge.len() + self.crash.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.merge.is_empty() && self.crash.is_empty()
    }
}

/// Consults a [`MergeFaultPlan`] at runtime and logs deliveries. Lives
/// inside the service; tests read the log back through
/// `HaServe::merge_faults_delivered`.
#[derive(Debug, Default)]
pub struct MergeFaultInjector {
    plan: MergeFaultPlan,
    delivered: Mutex<Vec<MergeFaultEvent>>,
}

impl MergeFaultInjector {
    /// An injector driven by `plan`.
    pub fn new(plan: MergeFaultPlan) -> Self {
        MergeFaultInjector {
            plan,
            delivered: Mutex::new(Vec::new()),
        }
    }

    /// Looks up (and logs) the merge fault for `(shard, attempt)`. The
    /// caller enacts it — this only decides and records.
    pub(crate) fn deliver_merge(&self, shard: usize, attempt: u32) -> Option<MergeFault> {
        let fault = self.plan.merge_fault_for(shard, attempt)?;
        self.log(MergeFaultEvent::Merge {
            shard,
            attempt,
            fault,
        });
        Some(fault)
    }

    /// Looks up (and logs) a crash scheduled for mutation `ordinal` at
    /// polarity `point`.
    pub(crate) fn deliver_crash(&self, ordinal: u64, point: CrashPoint) -> bool {
        if self.plan.crash_for(ordinal) == Some(point) {
            self.log(MergeFaultEvent::Crash { ordinal, point });
            true
        } else {
            false
        }
    }

    fn log(&self, ev: MergeFaultEvent) {
        self.delivered
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .push(ev);
    }

    /// Everything delivered so far, in delivery order.
    pub fn delivered(&self) -> Vec<MergeFaultEvent> {
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
    fn plan_is_keyed_by_shard_attempt_and_ordinal() {
        let plan = MergeFaultPlan::new()
            .panic_on_merge(0, 0)
            .delay_publish(2, 1, Duration::from_millis(5))
            .crash_before_wal_ack(3)
            .crash_after_wal_ack(9);
        assert_eq!(plan.len(), 4);
        assert!(!plan.is_empty());
        assert_eq!(plan.merge_fault_for(0, 0), Some(MergeFault::PanicMidMerge));
        assert_eq!(plan.merge_fault_for(0, 1), None);
        assert_eq!(
            plan.merge_fault_for(2, 1),
            Some(MergeFault::DelayPublish(Duration::from_millis(5)))
        );
        assert_eq!(plan.crash_for(3), Some(CrashPoint::BeforeWalAck));
        assert_eq!(plan.crash_for(9), Some(CrashPoint::AfterWalAck));
        assert_eq!(plan.crash_for(4), None);
    }

    #[test]
    fn injector_logs_exactly_what_fires() {
        let inj = MergeFaultInjector::new(
            MergeFaultPlan::new()
                .panic_on_merge(1, 0)
                .crash_after_wal_ack(2),
        );
        assert_eq!(inj.deliver_merge(0, 0), None);
        assert_eq!(inj.deliver_merge(1, 0), Some(MergeFault::PanicMidMerge));
        assert!(!inj.deliver_crash(2, CrashPoint::BeforeWalAck), "wrong polarity");
        assert!(inj.deliver_crash(2, CrashPoint::AfterWalAck));
        assert_eq!(
            inj.delivered(),
            vec![
                MergeFaultEvent::Merge {
                    shard: 1,
                    attempt: 0,
                    fault: MergeFault::PanicMidMerge
                },
                MergeFaultEvent::Crash {
                    ordinal: 2,
                    point: CrashPoint::AfterWalAck
                },
            ]
        );
        assert!(MergeFaultInjector::default().delivered().is_empty());
    }
}
