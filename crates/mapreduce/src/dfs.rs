//! An in-memory distributed file system stand-in.
//!
//! The 3-phase Hamming-join pipeline (Figure 5) reads inputs from DFS,
//! writes the partitioned data and the local HA-Indexes back, and feeds
//! them to the next job. This store provides the pieces that matter for
//! the simulation: named files, typed records, fixed-size **block splits**
//! (one map task per block), and read/write accounting — plus the two
//! HDFS properties the pipeline's fault tolerance rests on:
//!
//! * **replication** — every block is placed on [`DfsConfig::replication`]
//!   simulated datanodes (default 3), chosen deterministically from
//!   `(path, block)`, so losing a node loses no data;
//! * **integrity** — every block carries an FNV-1a checksum
//!   ([`crate::checksum`]) recorded at write time and verified against
//!   every replica on every read. A mismatching replica is quarantined,
//!   the read fails over to a healthy copy, and the block is
//!   re-replicated back to target factor — all counted in [`DfsMetrics`].
//!
//! Failures are injected deterministically through a
//! [`StorageFaultPlan`] (see [`crate::storage_fault`]) and unrecoverable
//! ones surface as typed [`DfsError`]s through the `try_*` entry points.
//! The one panicking entry point is [`InMemoryDfs::put_with_blocks`],
//! kept because the benchmark harness calls it.
//!
//! Replica choice is unobservable in results: replicas are byte-identical
//! (same `Vec<T>` behind an `Arc`), so a degraded read returns exactly
//! the bytes a healthy read would — the storage analogue of the runner's
//! "recovery is invisible" determinism argument.

use std::any::Any;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use ha_bitcode::fnv::fnv64;

use crate::checksum::{block_checksum, Checksum};
use crate::metrics::DfsMetrics;
use crate::storage_fault::{StorageFault, StorageFaultEvent, StorageFaultPlan};

/// A block size, in records, for writers with no reason to pick another.
pub const DEFAULT_BLOCK_RECORDS: usize = 4096;

/// XOR mask applied to a replica's stored checksum when a corruption
/// fault fires — simulated bit rot that read-time verification catches.
const CORRUPTION_MASK: u64 = 0xDEAD_BEEF_0BAD_B10C;

/// Cluster shape of the simulated store.
#[derive(Clone, Copy, Debug)]
pub struct DfsConfig {
    /// Replicas per block (HDFS default: 3). Clamped to `num_nodes`.
    pub replication: usize,
    /// Simulated datanodes blocks are placed across.
    pub num_nodes: usize,
}

impl Default for DfsConfig {
    fn default() -> Self {
        DfsConfig {
            replication: 3,
            num_nodes: 6,
        }
    }
}

/// Why a DFS operation failed. Every variant is a *recoverable* error
/// surfaced to the caller — the `try_*` paths never panic on data loss.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DfsError {
    /// No file at this path.
    FileNotFound {
        /// The missing path.
        path: String,
    },
    /// The file exists but was written with a different record type.
    TypeMismatch {
        /// The mistyped path.
        path: String,
    },
    /// Every replica of a block is on a dead node — the data is gone.
    AllReplicasLost {
        /// File the block belongs to.
        path: String,
        /// Block index within the file.
        block: usize,
    },
    /// Every surviving replica of a block failed checksum verification.
    ChecksumMismatch {
        /// File the block belongs to.
        path: String,
        /// Block index within the file.
        block: usize,
    },
    /// A write asked for a non-positive block size.
    InvalidBlockSize {
        /// Destination path of the rejected write.
        path: String,
        /// The offending block size.
        block_records: usize,
    },
}

impl std::fmt::Display for DfsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DfsError::FileNotFound { path } => write!(f, "DFS file not found: {path}"),
            DfsError::TypeMismatch { path } => {
                write!(f, "DFS file {path} holds a different record type")
            }
            DfsError::AllReplicasLost { path, block } => {
                write!(f, "DFS file {path}: all replicas of block {block} lost")
            }
            DfsError::ChecksumMismatch { path, block } => write!(
                f,
                "DFS file {path}: block {block} failed checksum verification on every replica"
            ),
            DfsError::InvalidBlockSize {
                path,
                block_records,
            } => write!(
                f,
                "DFS write to {path}: block size must be >= 1 (got {block_records})"
            ),
        }
    }
}

impl std::error::Error for DfsError {}

/// One placed copy of a block on a simulated datanode.
struct Replica {
    node: usize,
    /// Checksum of the bytes this replica holds. Equals the canonical
    /// block checksum unless a corruption fault flipped it.
    stored_checksum: u64,
    /// Whether an injected corruption already hit this replica (faults
    /// fire once, at the first read that inspects the copy).
    corrupted: bool,
}

/// Integrity and placement state of one block.
struct BlockMeta {
    /// Canonical write-time checksum — what re-replication restores.
    checksum: u64,
    /// Live replicas in placement order (quarantined copies removed).
    replicas: Vec<Replica>,
    /// Whether [`StorageFaultPlan::corrupt_primaries_everywhere`] already
    /// claimed its one corruption on this block.
    primary_corrupted: bool,
}

struct File {
    /// Type-erased `Vec<Vec<T>>` of blocks. Shared by all replicas:
    /// copies are byte-identical by construction, so one buffer stands in
    /// for all of them and only the per-replica checksums diverge under
    /// injected corruption.
    blocks: Arc<dyn Any + Send + Sync>,
    /// Per-block placement + integrity state, mutated by reads (replica
    /// quarantine, re-replication).
    meta: Mutex<Vec<BlockMeta>>,
    records: usize,
    block_count: usize,
}

/// A concurrent, typed, in-memory file store with block splits,
/// replication, and read-time integrity checking.
pub struct InMemoryDfs {
    config: DfsConfig,
    files: RwLock<HashMap<String, Arc<File>>>,
    bytes_written: AtomicUsize,
    plan: RwLock<StorageFaultPlan>,
    delivered: Mutex<Vec<StorageFaultEvent>>,
    corrupt_blocks_detected: AtomicU64,
    failovers: AtomicU64,
    re_replications: AtomicU64,
    degraded_reads: AtomicU64,
}

impl Default for InMemoryDfs {
    fn default() -> Self {
        InMemoryDfs::with_config(DfsConfig::default())
    }
}

impl InMemoryDfs {
    /// Fresh empty store with the default cluster shape (3-way
    /// replication over 6 datanodes).
    pub fn new() -> Self {
        Self::default()
    }

    /// Fresh empty store with an explicit cluster shape. `num_nodes` is
    /// clamped to at least 1 and `replication` to `1..=num_nodes`.
    fn with_config(config: DfsConfig) -> Self {
        let num_nodes = config.num_nodes.max(1);
        let config = DfsConfig {
            num_nodes,
            replication: config.replication.clamp(1, num_nodes),
        };
        InMemoryDfs {
            config,
            files: RwLock::new(HashMap::new()),
            bytes_written: AtomicUsize::new(0),
            plan: RwLock::new(StorageFaultPlan::new()),
            delivered: Mutex::new(Vec::new()),
            corrupt_blocks_detected: AtomicU64::new(0),
            failovers: AtomicU64::new(0),
            re_replications: AtomicU64::new(0),
            degraded_reads: AtomicU64::new(0),
        }
    }

    /// Fresh store with a storage-fault plan pre-installed.
    pub fn with_faults(config: DfsConfig, plan: StorageFaultPlan) -> Self {
        let dfs = Self::with_config(config);
        dfs.install_fault_plan(plan);
        dfs
    }

    /// Installs (replaces) the storage-fault plan consulted by reads.
    pub fn install_fault_plan(&self, plan: StorageFaultPlan) {
        *self.plan.write() = plan;
    }

    /// The cluster shape.
    pub fn config(&self) -> DfsConfig {
        self.config
    }

    /// Deterministic placement of `(path, block)`: `replication`
    /// consecutive nodes starting at an FNV-derived offset.
    fn placement(&self, path: &str, block: usize) -> impl Iterator<Item = usize> {
        let n = self.config.num_nodes;
        let start = (fnv64(path.as_bytes()) as usize).wrapping_add(block) % n;
        (0..self.config.replication).map(move |i| (start + i) % n)
    }

    /// Writes `records` to `path` in blocks of `block_records`, replacing
    /// any existing file. `approx_record_bytes` feeds the write-volume
    /// counter (logical bytes, counted once regardless of replication).
    pub fn try_put_with_blocks<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        path: &str,
        records: Vec<T>,
        block_records: usize,
        approx_record_bytes: usize,
    ) -> Result<(), DfsError> {
        let _write_span = ha_obs::span_labeled("dfs.write", || path.to_string());
        if block_records < 1 {
            return Err(DfsError::InvalidBlockSize {
                path: path.to_string(),
                block_records,
            });
        }
        let n = records.len();
        let mut blocks: Vec<Vec<T>> = Vec::with_capacity(n.div_ceil(block_records).max(1));
        let mut rest = records;
        while rest.len() > block_records {
            let tail = rest.split_off(block_records);
            blocks.push(rest);
            rest = tail;
        }
        blocks.push(rest);
        let meta: Vec<BlockMeta> = blocks
            .iter()
            .enumerate()
            .map(|(b, block)| {
                let checksum = block_checksum(block);
                BlockMeta {
                    checksum,
                    replicas: self
                        .placement(path, b)
                        .map(|node| Replica {
                            node,
                            stored_checksum: checksum,
                            corrupted: false,
                        })
                        .collect(),
                    primary_corrupted: false,
                }
            })
            .collect();
        let file = File {
            block_count: blocks.len(),
            records: n,
            meta: Mutex::new(meta),
            blocks: Arc::new(blocks),
        };
        self.files.write().insert(path.to_string(), Arc::new(file));
        self.bytes_written
            .fetch_add(n * approx_record_bytes, Ordering::Relaxed);
        ha_obs::add("dfs.bytes_written", (n * approx_record_bytes) as u64);
        Ok(())
    }

    /// Panicking wrapper over [`InMemoryDfs::try_put_with_blocks`].
    pub fn put_with_blocks<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        path: &str,
        records: Vec<T>,
        block_records: usize,
        approx_record_bytes: usize,
    ) {
        self.try_put_with_blocks(path, records, block_records, approx_record_bytes)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Reads the whole file back as one vector.
    pub fn try_get<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        path: &str,
    ) -> Result<Vec<T>, DfsError> {
        Ok(self.try_splits::<T>(path)?.into_iter().flatten().collect())
    }

    /// Reads the file as block splits — one `Vec<T>` per block, the unit
    /// a map task consumes. Every block is checksum-verified against its
    /// replicas: corrupt or dead copies are quarantined, the read fails
    /// over, and the block is re-replicated back to target factor.
    pub fn try_splits<T: Clone + Send + Sync + Checksum + 'static>(
        &self,
        path: &str,
    ) -> Result<Vec<Vec<T>>, DfsError> {
        let _read_span = ha_obs::span_labeled("dfs.read", || path.to_string());
        let file = self
            .files
            .read()
            .get(path)
            .cloned()
            .ok_or_else(|| DfsError::FileNotFound {
                path: path.to_string(),
            })?;
        let blocks = file
            .blocks
            .downcast_ref::<Vec<Vec<T>>>()
            .ok_or_else(|| DfsError::TypeMismatch {
                path: path.to_string(),
            })?;
        let plan = self.plan.read().clone();
        let mut meta = file.meta.lock();
        let mut out = Vec::with_capacity(blocks.len());
        for (b, block) in blocks.iter().enumerate() {
            out.push(self.read_block(&plan, path, b, block, &mut meta[b])?);
        }
        Ok(out)
    }

    /// One block read: deliver scheduled faults, verify replicas in
    /// placement order, serve the first healthy copy, repair afterwards.
    fn read_block<T: Clone + Checksum>(
        &self,
        plan: &StorageFaultPlan,
        path: &str,
        b: usize,
        block: &[T],
        meta: &mut BlockMeta,
    ) -> Result<Vec<T>, DfsError> {
        let computed = block_checksum(block);
        let mut skipped = 0u64;
        let mut checksum_failures = 0u64;
        let mut served: Option<usize> = None;
        // Try replicas in placement order; a bad head is removed, so the
        // head is always the next candidate.
        while served.is_none() && !meta.replicas.is_empty() {
            let node = meta.replicas[0].node;
            // Dead datanode: the copy is unreachable — drop it and move on.
            if plan.is_dead(node) {
                self.log_event(node, path, b, StorageFault::KillNode);
                meta.replicas.remove(0);
                skipped += 1;
                continue;
            }
            // Scheduled corruption fires the first time a read inspects
            // the replica (targeted entries, or the blanket
            // corrupt-primaries switch which claims one replica per block).
            let blanket = plan.corrupt_primaries() && !meta.primary_corrupted;
            if !meta.replicas[0].corrupted && (blanket || plan.corrupts(node, path, b)) {
                if blanket {
                    meta.primary_corrupted = true;
                }
                meta.replicas[0].stored_checksum ^= CORRUPTION_MASK;
                meta.replicas[0].corrupted = true;
                self.log_event(node, path, b, StorageFault::CorruptReplica);
            }
            // Read-time verification: quarantine any copy whose stored
            // checksum disagrees with the recomputed one.
            if meta.replicas[0].stored_checksum != computed {
                self.corrupt_blocks_detected.fetch_add(1, Ordering::Relaxed);
                ha_obs::add("dfs.corrupt_blocks_detected", 1);
                ha_obs::emit(|| ha_obs::Event::DfsCorruptReplica {
                    path: path.to_string(),
                    block: b,
                    node,
                });
                meta.replicas.remove(0);
                skipped += 1;
                checksum_failures += 1;
                continue;
            }
            served = Some(node);
        }
        let Some(node) = served else {
            return Err(if checksum_failures > 0 {
                DfsError::ChecksumMismatch {
                    path: path.to_string(),
                    block: b,
                }
            } else {
                DfsError::AllReplicasLost {
                    path: path.to_string(),
                    block: b,
                }
            });
        };
        if let Some(delay) = plan.delay_for(path, b) {
            self.log_event(node, path, b, StorageFault::DelayRead(delay));
            std::thread::sleep(delay);
        }
        if skipped > 0 {
            self.failovers.fetch_add(skipped, Ordering::Relaxed);
            self.degraded_reads.fetch_add(1, Ordering::Relaxed);
            ha_obs::add("dfs.failovers", skipped);
            ha_obs::add("dfs.degraded_reads", 1);
            ha_obs::emit(|| ha_obs::Event::DfsFailover {
                path: path.to_string(),
                block: b,
                skipped,
            });
            // Repair: copy back onto the lowest-numbered alive nodes not
            // already hosting the block, up to target factor. New copies
            // carry the canonical checksum — they are clones of the
            // healthy replica just served.
            let mut added = 0u64;
            for cand in 0..self.config.num_nodes {
                if meta.replicas.len() >= self.config.replication {
                    break;
                }
                if plan.is_dead(cand) || meta.replicas.iter().any(|r| r.node == cand) {
                    continue;
                }
                meta.replicas.push(Replica {
                    node: cand,
                    stored_checksum: meta.checksum,
                    corrupted: false,
                });
                added += 1;
            }
            self.re_replications.fetch_add(added, Ordering::Relaxed);
            ha_obs::add("dfs.re_replications", added);
            if added > 0 {
                ha_obs::emit(|| ha_obs::Event::DfsReReplication {
                    path: path.to_string(),
                    block: b,
                    copies: added,
                });
            }
        }
        Ok(block.to_vec())
    }

    fn log_event(&self, node: usize, path: &str, block: usize, fault: StorageFault) {
        self.delivered.lock().push(StorageFaultEvent {
            node,
            path: path.to_string(),
            block,
            fault,
        });
    }

    /// True if `path` exists.
    pub fn exists(&self, path: &str) -> bool {
        self.files.read().contains_key(path)
    }

    /// Record count of `path` (0 if missing).
    pub fn record_count(&self, path: &str) -> usize {
        self.files.read().get(path).map_or(0, |f| f.records)
    }

    /// Number of block splits of `path` (0 if missing).
    pub fn block_count(&self, path: &str) -> usize {
        self.files.read().get(path).map_or(0, |f| f.block_count)
    }

    /// Nodes currently hosting live replicas of `path`'s block `block`,
    /// in placement order (empty if the file or block does not exist).
    /// Reflects quarantines and repairs from earlier reads.
    pub fn replica_nodes(&self, path: &str, block: usize) -> Vec<usize> {
        self.files.read().get(path).map_or_else(Vec::new, |f| {
            f.meta
                .lock()
                .get(block)
                .map_or_else(Vec::new, |m| m.replicas.iter().map(|r| r.node).collect())
        })
    }

    /// Deletes a file; returns whether it existed.
    pub fn delete(&self, path: &str) -> bool {
        self.files.write().remove(path).is_some()
    }

    /// All file paths, sorted.
    pub fn list(&self) -> Vec<String> {
        let mut v: Vec<String> = self.files.read().keys().cloned().collect();
        v.sort();
        v
    }

    /// Total bytes written (per the caller-supplied record sizes).
    pub fn bytes_written(&self) -> usize {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Snapshot of the storage-recovery counters.
    pub fn metrics(&self) -> DfsMetrics {
        DfsMetrics {
            corrupt_blocks_detected: self.corrupt_blocks_detected.load(Ordering::Relaxed),
            failovers: self.failovers.load(Ordering::Relaxed),
            re_replications: self.re_replications.load(Ordering::Relaxed),
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            bytes_written: self.bytes_written(),
        }
    }

    /// Every storage fault delivered so far, in delivery order.
    pub fn storage_faults_delivered(&self) -> Vec<StorageFaultEvent> {
        self.delivered.lock().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn put_get_roundtrip() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("data/r", vec![1u32, 2, 3, 4, 5], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(dfs.try_get::<u32>("data/r").unwrap(), vec![1, 2, 3, 4, 5]);
        assert_eq!(dfs.record_count("data/r"), 5);
        assert!(dfs.exists("data/r"));
        assert!(!dfs.exists("data/s"));
        assert!(dfs.metrics().is_clean(), "healthy reads leave no recovery trace");
    }

    #[test]
    fn blocks_split_at_requested_size() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", (0..10u8).collect(), 4, 1);
        assert_eq!(dfs.block_count("f"), 3);
        let splits = dfs.try_splits::<u8>("f").unwrap();
        assert_eq!(splits[0], vec![0, 1, 2, 3]);
        assert_eq!(splits[2], vec![8, 9]);
        assert_eq!(dfs.bytes_written(), 10, "logical bytes, not x replication");
    }

    #[test]
    fn empty_file_has_one_empty_block() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks::<u64>("empty", vec![], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(dfs.block_count("empty"), 1);
        assert!(dfs.try_get::<u64>("empty").unwrap().is_empty());
    }

    #[test]
    fn overwrite_replaces() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", vec![1u8], DEFAULT_BLOCK_RECORDS, 0);
        dfs.put_with_blocks("f", vec![9u8, 9], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(dfs.try_get::<u8>("f").unwrap(), vec![9, 9]);
    }

    #[test]
    fn typed_errors_for_every_failure_mode() {
        let dfs = InMemoryDfs::new();
        assert_eq!(
            dfs.try_get::<u8>("nope"),
            Err(DfsError::FileNotFound {
                path: "nope".into()
            })
        );
        dfs.put_with_blocks("f", vec![1u8], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(
            dfs.try_get::<u64>("f"),
            Err(DfsError::TypeMismatch { path: "f".into() })
        );
        assert_eq!(
            dfs.try_put_with_blocks("g", vec![1u8], 0, 1),
            Err(DfsError::InvalidBlockSize {
                path: "g".into(),
                block_records: 0
            })
        );
        assert!(!dfs.exists("g"), "rejected write leaves nothing behind");
    }

    #[test]
    fn blocks_are_replicated_on_distinct_nodes() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", (0..20u8).collect(), 8, 1);
        for b in 0..dfs.block_count("f") {
            let nodes = dfs.replica_nodes("f", b);
            assert_eq!(nodes.len(), 3, "default replication factor");
            let mut uniq = nodes.clone();
            uniq.sort_unstable();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas on distinct nodes: {nodes:?}");
        }
        // Placement is deterministic: a second identical store agrees.
        let dfs2 = InMemoryDfs::new();
        dfs2.put_with_blocks("f", (0..20u8).collect(), 8, 1);
        for b in 0..3 {
            assert_eq!(dfs.replica_nodes("f", b), dfs2.replica_nodes("f", b));
        }
    }

    #[test]
    fn corrupt_replica_is_detected_quarantined_and_repaired() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", (0..100u32).collect(), 50, 4);
        let victim = dfs.replica_nodes("f", 0)[0];
        dfs.install_fault_plan(StorageFaultPlan::new().corrupt(victim, "f", 0));

        assert_eq!(
            dfs.try_get::<u32>("f").unwrap(),
            (0..100).collect::<Vec<_>>()
        );
        let m = dfs.metrics();
        assert_eq!(m.corrupt_blocks_detected, 1);
        assert_eq!(m.failovers, 1);
        assert_eq!(m.re_replications, 1, "repaired back to factor 3");
        assert_eq!(m.degraded_reads, 1);
        assert_eq!(dfs.replica_nodes("f", 0).len(), 3);
        assert!(
            !dfs.replica_nodes("f", 0).contains(&victim),
            "bad copy stays quarantined"
        );

        // The fault fired once; subsequent reads are clean.
        assert_eq!(
            dfs.try_get::<u32>("f").unwrap(),
            (0..100).collect::<Vec<_>>()
        );
        assert_eq!(dfs.metrics().corrupt_blocks_detected, 1);

        let events = dfs.storage_faults_delivered();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].node, victim);
        assert_eq!(events[0].fault, StorageFault::CorruptReplica);
    }

    #[test]
    fn dead_node_triggers_failover_and_re_replication() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", vec![7u64; 10], DEFAULT_BLOCK_RECORDS, 0);
        let victim = dfs.replica_nodes("f", 0)[0];
        dfs.install_fault_plan(StorageFaultPlan::new().kill_node(victim));
        assert_eq!(dfs.try_get::<u64>("f").unwrap(), vec![7u64; 10]);
        let m = dfs.metrics();
        assert_eq!(m.failovers, 1);
        assert_eq!(m.re_replications, 1);
        assert_eq!(m.corrupt_blocks_detected, 0);
        assert!(!dfs.replica_nodes("f", 0).contains(&victim));
    }

    #[test]
    fn all_replicas_on_dead_nodes_is_typed_loss() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", vec![1u8, 2, 3], DEFAULT_BLOCK_RECORDS, 0);
        let mut plan = StorageFaultPlan::new();
        for node in 0..dfs.config().num_nodes {
            plan = plan.kill_node(node);
        }
        dfs.install_fault_plan(plan);
        assert_eq!(
            dfs.try_get::<u8>("f"),
            Err(DfsError::AllReplicasLost {
                path: "f".into(),
                block: 0
            })
        );
    }

    #[test]
    fn all_replicas_corrupt_is_typed_checksum_mismatch() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", vec![1u8, 2, 3], DEFAULT_BLOCK_RECORDS, 0);
        let mut plan = StorageFaultPlan::new();
        for node in dfs.replica_nodes("f", 0) {
            plan = plan.corrupt(node, "f", 0);
        }
        dfs.install_fault_plan(plan);
        assert_eq!(
            dfs.try_get::<u8>("f"),
            Err(DfsError::ChecksumMismatch {
                path: "f".into(),
                block: 0
            })
        );
        assert_eq!(dfs.metrics().corrupt_blocks_detected, 3);
    }

    #[test]
    fn corrupt_primaries_everywhere_hits_each_block_once() {
        let dfs = InMemoryDfs::with_faults(
            DfsConfig::default(),
            StorageFaultPlan::new().corrupt_primaries_everywhere(),
        );
        dfs.put_with_blocks("f", (0..30u8).collect(), 10, 1);
        dfs.put_with_blocks("g", vec![5u64; 4], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(dfs.try_get::<u8>("f").unwrap().len(), 30);
        assert_eq!(dfs.try_get::<u64>("g").unwrap(), vec![5u64; 4]);
        let m = dfs.metrics();
        assert_eq!(m.corrupt_blocks_detected, 4, "3 blocks of f + 1 of g");
        assert_eq!(m.degraded_reads, 4);
        // Once per block: re-reading corrupts nothing new.
        dfs.try_get::<u8>("f").unwrap();
        assert_eq!(dfs.metrics().corrupt_blocks_detected, 4);
    }

    #[test]
    fn delayed_read_is_logged_and_served() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("f", vec![1u32], DEFAULT_BLOCK_RECORDS, 0);
        dfs.install_fault_plan(
            StorageFaultPlan::new().delay_read("f", 0, Duration::from_millis(5)),
        );
        let t0 = std::time::Instant::now();
        assert_eq!(dfs.try_get::<u32>("f").unwrap(), vec![1]);
        assert!(t0.elapsed() >= Duration::from_millis(5));
        assert!(matches!(
            dfs.storage_faults_delivered()[0].fault,
            StorageFault::DelayRead(_)
        ));
        assert!(dfs.metrics().is_clean(), "a delay is not a recovery event");
    }

    #[test]
    fn single_node_cluster_clamps_replication() {
        let dfs = InMemoryDfs::with_config(DfsConfig {
            replication: 3,
            num_nodes: 1,
        });
        dfs.put_with_blocks("f", vec![9u8], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(dfs.replica_nodes("f", 0), vec![0]);
        assert_eq!(dfs.try_get::<u8>("f").unwrap(), vec![9]);
    }

    #[test]
    fn delete_and_list() {
        let dfs = InMemoryDfs::new();
        dfs.put_with_blocks("b", vec![1u8], DEFAULT_BLOCK_RECORDS, 0);
        dfs.put_with_blocks("a", vec![2u8], DEFAULT_BLOCK_RECORDS, 0);
        assert_eq!(dfs.list(), vec!["a".to_string(), "b".to_string()]);
        assert!(dfs.delete("a"));
        assert!(!dfs.delete("a"));
        assert_eq!(dfs.list(), vec!["b".to_string()]);
    }

    #[test]
    fn concurrent_access() {
        let dfs = std::sync::Arc::new(InMemoryDfs::new());
        std::thread::scope(|s| {
            for t in 0..8 {
                let dfs = dfs.clone();
                s.spawn(move || {
                    dfs.put_with_blocks(
                        &format!("f{t}"),
                        vec![t as u32; 100],
                        DEFAULT_BLOCK_RECORDS,
                        0,
                    );
                    assert_eq!(dfs.try_get::<u32>(&format!("f{t}")).unwrap().len(), 100);
                });
            }
        });
        assert_eq!(dfs.list().len(), 8);
    }
}
