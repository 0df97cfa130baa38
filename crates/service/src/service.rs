//! HA-Serve: the concurrent, sharded, *generational* query service.
//!
//! The global HA-Index (built offline by the MapReduce pipeline and
//! persisted through the replicated DFS) is loaded into `shards`
//! partitions. Queries fan out to every shard (codes are partitioned by
//! hash, so any code within distance `h` of a query may live anywhere)
//! and the per-shard answers are unioned — exact, because the shards
//! hold disjoint code sets.
//!
//! Each shard is served **generationally** (LSM-style over the paper's
//! §5 H-Insert/H-Delete): an immutable, `Arc`-swapped frozen
//! [`PlannedIndex`] *generation* plus a small mutable
//! [`DeltaIndex`] overlay searched alongside it. Mutations land in the
//! delta in O(delta) — never a re-freeze of the shard — and a background
//! **freeze/merge worker** absorbs the delta in batches, builds the
//! next generation off-lock, and publishes it with one O(1) pointer swap
//! under a brief write lock. Readers never observe a half-applied
//! mutation and are never blocked by an index rebuild.
//!
//! Crash tolerance (durable mode, [`HaServe::bootstrap_durable`] /
//! [`HaServe::recover`]): every mutation is appended to a checksummed
//! write-ahead log on the DFS **before** it is applied or acknowledged;
//! each published generation persists its rows (code words and ids, in
//! build input order, under a checksum footer) plus a `CURRENT` manifest
//! recording the WAL sequence it absorbed, after which the WAL prefix is
//! truncated. Recovery rebuilds the last durable generation from its rows
//! through the same [`PlannedIndex::build_with`] that bootstrap and
//! merges call — so it gets the MIH, profile and routes the generation
//! was published with — and replays the WAL suffix, reaching exactly the
//! state every acknowledged mutation implies. The merge worker runs under
//! `catch_unwind` with bounded retries and backoff; a poisoned merge
//! degrades the shard to delta-only serving (still exact) instead of
//! taking it down.
//!
//! Serving mechanisms on top of plain H-Search:
//!
//! * **Micro-batching** — queued selects with the same radius are grouped
//!   into one batch: one queue pop, one cache pass, and each shard's
//!   locks taken once per batch. Each query then probes and is routed
//!   alone: no traversal is shared between queries.
//! * **Admission control** — the request queue is bounded; a full queue
//!   rejects with [`ServiceError::Overloaded`]. Requests may also carry a
//!   **deadline**: work whose deadline expired while queued is shed at
//!   dequeue with [`ServiceError::DeadlineExceeded`] rather than
//!   executed — under overload, capacity goes to answers somebody still
//!   wants.
//! * **Epoch-validated result caching** — every successful H-Insert /
//!   H-Delete bumps a global epoch *while holding the mutated shard's
//!   write lock*; cached answers are only served back at the exact epoch
//!   they were computed at. Generation swaps do **not** bump the epoch:
//!   a merge is content-preserving (`next_gen ⊎ rebased_delta` is the
//!   same live multiset as `gen ⊎ delta`), so equal epochs still imply
//!   identical answers — the cache stays exact across swaps. See
//!   DESIGN.md, "Generational serving".
//!
//! With `workers == 0` the service runs in manual-drive mode: nothing is
//! processed until [`HaServe::pump`] is called and merges happen only
//! via [`HaServe::merge_now`], which makes scheduling, overload, and
//! swap behaviour exactly reproducible in tests.

use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex as StdMutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ha_bitcode::{BinaryCode, Kernel};
use ha_core::delta::{DeltaIndex, DeltaOp};
use ha_core::planner::{PlanConfig, PlannedIndex};
use ha_core::select::knn_by_radius;
use ha_core::{CostModel, DhaConfig, HammingIndex, TupleId};
use ha_mapreduce::wal::{DfsWal, WalError};
use ha_mapreduce::{BlockHasher, DfsError, InMemoryDfs};
use parking_lot::{Mutex, RwLock};

use crate::cache::ResultCache;
use crate::error::{RowsError, ServiceError};
use crate::fault::{CrashPoint, MergeFault, MergeFaultEvent, MergeFaultInjector, MergeFaultPlan};
use crate::metrics::{LatencyHistogram, ServeMetrics, ShardMetrics};

/// Tuning knobs of the serving layer.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Index shards the dataset is hash-partitioned across. Queries probe
    /// all of them; mutations lock only the owning one.
    pub shards: usize,
    /// Worker threads draining the request queue. `0` = manual-drive
    /// mode: requests queue up until [`HaServe::pump`] processes them on
    /// the calling thread, and merges run only via
    /// [`HaServe::merge_now`] (deterministic tests, overload
    /// experiments). With `workers > 0` a dedicated freeze/merge thread
    /// also runs.
    pub workers: usize,
    /// Bound of the request queue; a full queue rejects new requests
    /// with [`ServiceError::Overloaded`].
    pub queue_capacity: usize,
    /// Largest micro-batch one worker will assemble from same-radius
    /// queued selects. `1` disables batching.
    pub max_batch: usize,
    /// Result-cache capacity in entries; `0` disables the cache.
    pub cache_capacity: usize,
    /// HA-Index construction parameters for the shards. `keep_leaf_ids`
    /// must stay `true` — the service answers with tuple ids.
    pub dha: DhaConfig,
    /// Cost model the per-shard query planner routes with (HA-Flat vs
    /// MIH vs arena vs scan). The default carries the constants fitted by
    /// the `planner` experiment; routing only affects latency, never
    /// answers.
    pub model: CostModel,
    /// Seed for the deterministic shard probe rotation (spreads which
    /// shard is probed first across batches).
    pub seed: u64,
    /// Delta size (in applied mutations) at which a background merge is
    /// requested for the shard. Smaller = fresher generations and more
    /// merge churn.
    pub delta_cap: usize,
    /// Merge attempts before a shard's merge is declared poisoned and
    /// the shard degrades to delta-only serving.
    pub max_merge_attempts: u32,
    /// Sleep between failed merge attempts (deterministic backoff).
    pub merge_backoff: Duration,
    /// Deterministic fault schedule for chaos tests: scripted merge
    /// panics/delays and scripted process crashes around the WAL append.
    /// Empty by default (no faults).
    pub merge_faults: MergeFaultPlan,
    /// Threads a cache-missed select batch or a kNN round fans its
    /// per-shard probes across; `<= 1` probes the shards inline on the
    /// calling thread. Answers are identical at any width. The default
    /// is the host's `available_parallelism`.
    pub fan_out: usize,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            shards: 4,
            workers: 4,
            queue_capacity: 1024,
            max_batch: 64,
            cache_capacity: 4096,
            dha: DhaConfig::default(),
            model: CostModel::default(),
            seed: 0,
            delta_cap: 512,
            max_merge_attempts: 3,
            merge_backoff: Duration::from_millis(1),
            merge_faults: MergeFaultPlan::new(),
            fan_out: std::thread::available_parallelism().map_or(1, |n| n.get()),
        }
    }
}

/// Shard owning `code` under FNV-1a hash partitioning. Hashes the
/// packed wire form straight off the code's words
/// ([`BinaryCode::packed_fnv64`] equals `fnv64(&to_packed_bytes())`
/// exactly, so routing matches services persisted before the
/// alloc-free path) — this runs once per routed mutation *and* once
/// per cache-missed query, where the old per-call `Vec` showed up in
/// profiles.
fn owner(code: &BinaryCode, shards: usize) -> usize {
    (code.packed_fnv64() % shards as u64) as usize
}

/// DFS layout of a durable service rooted at `base`.
fn gen_blob_path(base: &str, shard: usize, gen_no: u64) -> String {
    format!("{base}/gen/shard{shard}/{gen_no:020}.rows")
}
fn manifest_path(base: &str, shard: usize) -> String {
    format!("{base}/gen/shard{shard}/CURRENT")
}

/// First word of a generation blob: `"HAROWS01"`, little-endian.
const ROWS_MAGIC: u64 = u64::from_le_bytes(*b"HAROWS01");
/// Bytes before the first row: magic, `code_len`, row count.
const ROWS_HEADER: usize = 24;

/// The durable form of a generation: its rows, read off the MIH in build
/// input order. [`HaServe::recover`] hands them back to
/// [`PlannedIndex::build_with`], which therefore rebuilds the MIH,
/// profile and routes of the generation that was published — and, like
/// every build, runs H-Build only when the flat layout can win.
///
/// ```text
/// [ magic: u64 ][ code_len: u64 ][ n: u64 ]
/// n × [ ⌈code_len / 64⌉ code words: u64 ][ id: u64 ]
/// [ footer: BlockHasher digest of everything before it: u64 ]
/// ```
///
/// Every field is little-endian.
fn gen_rows_blob(index: &PlannedIndex) -> Vec<u8> {
    encode_rows(index.code_len(), index.items())
}

/// Encodes `rows` in the [`gen_rows_blob`] layout.
fn encode_rows(code_len: usize, rows: impl Iterator<Item = (BinaryCode, TupleId)>) -> Vec<u8> {
    let row_bytes = 8 * (code_len.div_ceil(64) + 1);
    let mut out = Vec::with_capacity(ROWS_HEADER + row_bytes * rows.size_hint().0 + 8);
    out.extend_from_slice(&ROWS_MAGIC.to_le_bytes());
    out.extend_from_slice(&(code_len as u64).to_le_bytes());
    out.extend_from_slice(&0u64.to_le_bytes());
    let mut n = 0u64;
    for (code, id) in rows {
        for w in code.words() {
            out.extend_from_slice(&w.to_le_bytes());
        }
        out.extend_from_slice(&id.to_le_bytes());
        n += 1;
    }
    out[16..ROWS_HEADER].copy_from_slice(&n.to_le_bytes());
    let mut digest = BlockHasher::new();
    digest.write(&out);
    out.extend_from_slice(&digest.finish().to_le_bytes());
    out
}

/// Inverse of [`encode_rows`] for a service of `code_len`-bit codes: the
/// rows in the order they were written, or the typed reason the blob is
/// refused.
fn decode_rows(blob: &[u8], code_len: usize) -> Result<Vec<(BinaryCode, TupleId)>, RowsError> {
    let Some((body, footer)) = blob.split_last_chunk::<8>() else {
        return Err(RowsError::Truncated);
    };
    let Some((header, rows)) = body.split_at_checked(ROWS_HEADER) else {
        return Err(RowsError::Truncated);
    };
    let mut fields = [0u64; 3];
    for (field, bytes) in fields.iter_mut().zip(header.chunks_exact(8)) {
        *field = le_u64(bytes);
    }
    let [magic, got, n] = fields;
    if magic != ROWS_MAGIC {
        return Err(RowsError::BadMagic);
    }
    let got = got as usize;
    if got != code_len || BinaryCode::try_zero(got).is_err() {
        return Err(RowsError::CodeLength { expected: code_len, got });
    }
    let words = code_len.div_ceil(64);
    let row_bytes = 8 * (words + 1);
    let want = usize::try_from(n).ok().and_then(|n| n.checked_mul(row_bytes));
    match want.map(|want| rows.len().cmp(&want)) {
        None | Some(std::cmp::Ordering::Less) => return Err(RowsError::Truncated),
        Some(std::cmp::Ordering::Greater) => return Err(RowsError::TrailingBytes),
        Some(std::cmp::Ordering::Equal) => {}
    }
    let mut digest = BlockHasher::new();
    digest.write(body);
    if digest.finish() != u64::from_le_bytes(*footer) {
        return Err(RowsError::ChecksumMismatch);
    }
    let mut code_words = vec![0u64; words];
    let mut out = Vec::with_capacity(rows.len() / row_bytes);
    for row in rows.chunks_exact(row_bytes) {
        let Some((code, id)) = row.split_last_chunk::<8>() else {
            return Err(RowsError::Truncated);
        };
        for (w, bytes) in code_words.iter_mut().zip(code.chunks_exact(8)) {
            *w = le_u64(bytes);
        }
        out.push((BinaryCode::from_words(&code_words, code_len), u64::from_le_bytes(*id)));
    }
    Ok(out)
}

/// The little-endian `u64` in `bytes` (at most 8 of them).
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    for (w, b) in word.iter_mut().zip(bytes) {
        *w = *b;
    }
    u64::from_le_bytes(word)
}

fn meta_path(base: &str) -> String {
    format!("{base}/META")
}
fn wal_path(base: &str, shard: usize) -> String {
    format!("{base}/wal/shard{shard}")
}

/// WAL record encoding of one mutation:
/// `[tag: u8][id: u64 LE][packed code bytes]`.
fn encode_op(op: &DeltaOp) -> Vec<u8> {
    let (tag, code, id) = match op {
        DeltaOp::Insert(c, id) => (0u8, c, *id),
        DeltaOp::Delete(c, id) => (1u8, c, *id),
    };
    let mut out = Vec::with_capacity(9 + code.len().div_ceil(8));
    out.push(tag);
    out.extend_from_slice(&id.to_le_bytes());
    out.extend_from_slice(&code.to_packed_bytes());
    out
}

/// Inverse of [`encode_op`]; `None` on any framing violation.
fn decode_op(bytes: &[u8], code_len: usize) -> Option<DeltaOp> {
    let nbytes = code_len.div_ceil(8);
    if bytes.len() != 9 + nbytes {
        return None;
    }
    let mut idb = [0u8; 8];
    idb.copy_from_slice(&bytes[1..9]);
    let id = u64::from_le_bytes(idb);
    let code = BinaryCode::from_packed_bytes(&bytes[9..], code_len);
    match bytes[0] {
        0 => Some(DeltaOp::Insert(code, id)),
        1 => Some(DeltaOp::Delete(code, id)),
        _ => None,
    }
}

/// One published, immutable generation of a shard. Readers hold it via
/// `Arc` clone; the merge worker replaces the pointer atomically under
/// the shard's write lock.
struct GenerationSnapshot {
    /// Monotone generation number (0 = the build/bootstrap generation).
    gen_no: u64,
    /// Highest WAL/delta sequence number this generation has absorbed.
    through_seq: u64,
    /// The frozen index answering for everything `<= through_seq`.
    index: PlannedIndex,
}

/// The swappable read state of one shard.
struct ShardState {
    gen: Arc<GenerationSnapshot>,
    delta: DeltaIndex,
    /// Set when the merge worker exhausted its retries; the shard keeps
    /// serving exactly from `gen ⊎ delta`, the delta just stops being
    /// absorbed.
    merge_poisoned: bool,
}

/// The serialized ingest side of one shard: WAL appends and sequence
/// assignment happen under this lock, *before* the read state is
/// touched — the WAL-before-ack ordering.
struct IngestState {
    wal: Option<DfsWal>,
    next_seq: u64,
}

struct Shard {
    state: RwLock<ShardState>,
    ingest: Mutex<IngestState>,
    /// Lifetime merge-attempt counter — the key `MergeFaultPlan` faults
    /// are scheduled against.
    merge_attempts: AtomicU32,
}

/// Durable-mode handles: where generations, manifests, and WALs live.
struct Durable {
    dfs: Arc<InMemoryDfs>,
    base: String,
}

/// Where a select's answer (or its error) is sent.
type SelectReply = mpsc::Sender<Result<Vec<TupleId>, ServiceError>>;

/// A queued request. `queued` carries the admission timestamp when
/// tracing is on (`None` otherwise); a select's `deadline` is the instant
/// after which the answer is worthless and the work is shed at dequeue.
enum Work {
    Select {
        code: BinaryCode,
        h: u32,
        queued: Option<Instant>,
        deadline: Option<Instant>,
        tx: SelectReply,
    },
    Knn {
        code: BinaryCode,
        k: usize,
        queued: Option<Instant>,
        tx: mpsc::Sender<Result<Vec<(TupleId, u32)>, ServiceError>>,
    },
}

/// Timestamp for [`Work::Select::queued`]: taken only when tracing is on.
fn queued_stamp() -> Option<Instant> {
    ha_obs::is_enabled().then(Instant::now)
}

/// Records queue wait (admission → start of processing) for every
/// stamped request in a batch.
fn observe_queue_wait(queued: &[Option<Instant>]) {
    for q in queued.iter().flatten() {
        ha_obs::observe("serve.queue_wait_ns", q.elapsed());
    }
}

/// A batch a worker pulled off the queue: either one kNN or a group of
/// same-radius selects.
enum Batch {
    Select {
        h: u32,
        codes: Vec<BinaryCode>,
        queued: Vec<Option<Instant>>,
        txs: Vec<SelectReply>,
    },
    Knn {
        code: BinaryCode,
        k: usize,
        queued: Option<Instant>,
        tx: mpsc::Sender<Result<Vec<(TupleId, u32)>, ServiceError>>,
    },
}

/// Pops the next batch: the frontmost request, plus (for selects) every
/// other queued select with the same radius, up to `max_batch`. Scanning
/// the whole queue keeps batches dense under mixed-radius load while
/// preserving FIFO order *within* a radius class.
fn take_batch(queue: &mut VecDeque<Work>, max_batch: usize) -> Option<Batch> {
    match queue.pop_front()? {
        Work::Knn {
            code,
            k,
            queued,
            tx,
            ..
        } => Some(Batch::Knn {
            code,
            k,
            queued,
            tx,
        }),
        Work::Select {
            code,
            h,
            queued,
            tx,
            ..
        } => {
            let mut codes = vec![code];
            let mut queued_at = vec![queued];
            let mut txs = vec![tx];
            let mut i = 0;
            while i < queue.len() && codes.len() < max_batch.max(1) {
                let same = matches!(queue.get(i), Some(Work::Select { h: qh, .. }) if *qh == h);
                if same {
                    if let Some(Work::Select {
                        code, queued, tx, ..
                    }) = queue.remove(i)
                    {
                        codes.push(code);
                        queued_at.push(queued);
                        txs.push(tx);
                    }
                } else {
                    i += 1;
                }
            }
            Some(Batch::Select {
                h,
                codes,
                queued: queued_at,
                txs,
            })
        }
    }
}

/// Removes expired selects from the queue (their reply channels are
/// returned for out-of-lock replies), then forms the next batch from
/// what survives. The expiry scan runs only when some queued select
/// actually carries a deadline, so deadline-free workloads pay nothing.
fn dequeue(queue: &mut VecDeque<Work>, max_batch: usize) -> (Vec<SelectReply>, Option<Batch>) {
    let mut shed = Vec::new();
    if queue.iter().any(|w| matches!(w, Work::Select { deadline: Some(_), .. })) {
        let now = Instant::now();
        let mut i = 0;
        while i < queue.len() {
            let expired =
                matches!(queue.get(i), Some(Work::Select { deadline: Some(d), .. }) if *d <= now);
            if expired {
                if let Some(Work::Select { tx, .. }) = queue.remove(i) {
                    shed.push(tx);
                }
            } else {
                i += 1;
            }
        }
    }
    let batch = take_batch(queue, max_batch);
    (shed, batch)
}

/// Mutable counters behind one lock; folded into [`ServeMetrics`]
/// snapshots.
struct MetricsState {
    selects: u64,
    knns: u64,
    inserts: u64,
    deletes: u64,
    cache_hits: u64,
    cache_misses: u64,
    rejected: u64,
    deadline_shed: u64,
    wal_appends: u64,
    wal_replayed: u64,
    merge_attempts: u64,
    merge_panics: u64,
    merges_completed: u64,
    batches_formed: u64,
    batch_sizes: BTreeMap<usize, u64>,
    shard_searches: Vec<u64>,
    shard_latency: Vec<LatencyHistogram>,
}

impl MetricsState {
    fn new(shards: usize) -> Self {
        MetricsState {
            selects: 0,
            knns: 0,
            inserts: 0,
            deletes: 0,
            cache_hits: 0,
            cache_misses: 0,
            rejected: 0,
            deadline_shed: 0,
            wal_appends: 0,
            wal_replayed: 0,
            merge_attempts: 0,
            merge_panics: 0,
            merges_completed: 0,
            batches_formed: 0,
            batch_sizes: BTreeMap::new(),
            shard_searches: vec![0; shards],
            shard_latency: vec![LatencyHistogram::new(); shards],
        }
    }
}

struct Inner {
    code_len: usize,
    shards: Vec<Shard>,
    /// Global mutation epoch. Bumped while holding the mutated shard's
    /// write lock, so a reader holding *all* shard read locks observes a
    /// frozen epoch — the invariant the result cache's exactness rests
    /// on. Generation swaps do *not* bump it: merges are
    /// content-preserving.
    epoch: AtomicU64,
    queue: StdMutex<VecDeque<Work>>,
    available: Condvar,
    merge_queue: StdMutex<VecDeque<usize>>,
    merge_available: Condvar,
    shutdown: AtomicBool,
    cache: Mutex<ResultCache>,
    state: Mutex<MetricsState>,
    started: Instant,
    batch_seq: AtomicU64,
    /// Global 0-based mutation ordinal — the key crash faults are
    /// scheduled against.
    mutation_ordinal: AtomicU64,
    faults: MergeFaultInjector,
    durable: Option<Durable>,
    cfg: ServeConfig,
}

/// A pending Hamming-select; [`SelectTicket::wait`] blocks until a worker
/// (or a [`HaServe::pump`] call) answers it.
#[derive(Debug)]
pub struct SelectTicket {
    rx: mpsc::Receiver<Result<Vec<TupleId>, ServiceError>>,
}

impl SelectTicket {
    /// Blocks for the answer: all ids within the requested radius, sorted
    /// ascending — or the typed reason none will come
    /// ([`ServiceError::DeadlineExceeded`] for shed work,
    /// [`ServiceError::Shutdown`] if the service died first).
    pub fn wait(self) -> Result<Vec<TupleId>, ServiceError> {
        self.rx.recv().map_err(|_| ServiceError::Shutdown)?
    }
}

/// The serving handle. Dropping it shuts the workers down after draining
/// the queue (every accepted request is answered).
pub struct HaServe {
    inner: Arc<Inner>,
    workers: Vec<JoinHandle<()>>,
    merger: Option<JoinHandle<()>>,
}

impl HaServe {
    /// Builds an in-memory service over `items`, hash-partitioned into
    /// `cfg.shards` shards (one [`PlannedIndex`] build each). Generation 0 of
    /// every shard is the build output; no WAL is kept — use
    /// [`HaServe::bootstrap_durable`] for crash tolerance.
    pub fn build(
        code_len: usize,
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
        cfg: ServeConfig,
    ) -> Result<HaServe, ServiceError> {
        let parts = partition(code_len, items, &cfg)?;
        let shards = parts
            .into_iter()
            .map(|p| {
                let index = PlannedIndex::build_with(code_len, p, plan_config(&cfg));
                fresh_shard(index, 0, 0, None)
            })
            .collect();
        Ok(Self::start(code_len, shards, None, cfg))
    }

    /// Builds a **durable** service: generation 0 of every shard is
    /// persisted to `dfs` under `base` (its rows + `CURRENT` manifest +
    /// top-level `META`), and an initially-empty WAL is opened per
    /// shard. Every subsequent mutation is WAL-appended before it is
    /// acknowledged; [`HaServe::recover`] restores the exact
    /// acknowledged state from `dfs` after a crash.
    pub fn bootstrap_durable(
        dfs: &Arc<InMemoryDfs>,
        base: &str,
        code_len: usize,
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
        cfg: ServeConfig,
    ) -> Result<HaServe, ServiceError> {
        let base = base.trim_end_matches('/').to_string();
        let parts = partition(code_len, items, &cfg)?;
        let nshards = parts.len();
        let mut shards = Vec::with_capacity(nshards);
        for (s, p) in parts.into_iter().enumerate() {
            let index = PlannedIndex::build_with(code_len, p, plan_config(&cfg));
            dfs.try_put_with_blocks(&gen_blob_path(&base, s, 0), gen_rows_blob(&index), usize::MAX, 1)?;
            dfs.try_put_with_blocks(&manifest_path(&base, s), vec![(0u64, 0u64)], usize::MAX, 16)?;
            let wal = DfsWal::open(Arc::clone(dfs), &wal_path(&base, s));
            shards.push(fresh_shard(index, 0, 0, Some(wal)));
        }
        dfs.try_put_with_blocks(&meta_path(&base), vec![code_len as u64, nshards as u64], usize::MAX, 8)?;
        let durable = Durable {
            dfs: Arc::clone(dfs),
            base,
        };
        Ok(Self::start(code_len, shards, Some(durable), cfg))
    }

    /// Recovers a durable service from `dfs`: per shard, rebuilds the
    /// last published generation (per its `CURRENT` manifest) from its
    /// persisted rows with [`PlannedIndex::build_with`] — the MIH,
    /// profile and routes it was published with — replays the WAL
    /// suffix beyond the manifest's absorbed watermark onto the delta,
    /// and resumes serving. A generation blob that fails to decode is
    /// [`ServiceError::CorruptGeneration`]. The recovered state is
    /// exactly the state every WAL-durable mutation implies — which
    /// includes every acknowledged one (WAL-before-ack), and possibly a
    /// durable-but-unacknowledged tail.
    pub fn recover(
        dfs: &Arc<InMemoryDfs>,
        base: &str,
        cfg: ServeConfig,
    ) -> Result<HaServe, ServiceError> {
        let base = base.trim_end_matches('/').to_string();
        let meta: Vec<u64> = dfs.try_get(&meta_path(&base))?;
        let (code_len, nshards) = match meta.as_slice() {
            [len, n, ..] if *n >= 1 => (*len as usize, *n as usize),
            _ => {
                return Err(ServiceError::Storage(DfsError::ChecksumMismatch {
                    path: meta_path(&base),
                    block: 0,
                }))
            }
        };
        let mut shards = Vec::with_capacity(nshards);
        let mut replayed_total = 0u64;
        for s in 0..nshards {
            let manifest: Vec<(u64, u64)> = dfs.try_get(&manifest_path(&base, s))?;
            let Some(&(gen_no, through_seq)) = manifest.first() else {
                return Err(ServiceError::Storage(DfsError::ChecksumMismatch {
                    path: manifest_path(&base, s),
                    block: 0,
                }));
            };
            let blob: Vec<u8> = dfs.try_get(&gen_blob_path(&base, s, gen_no))?;
            let items = decode_rows(&blob, code_len)?;
            let index = PlannedIndex::build_with(code_len, items, plan_config(&cfg));
            let mut wal = DfsWal::open(Arc::clone(dfs), &wal_path(&base, s));
            wal.skip_to(through_seq + 1);
            let mut delta = DeltaIndex::new();
            {
                let _replay_span =
                    ha_obs::span_labeled("serve.gen.replay", || format!("shard={s}"));
                for (seq, payload) in wal.replay().map_err(wal_to_service)? {
                    if seq <= through_seq {
                        continue;
                    }
                    let Some(op) = decode_op(&payload, code_len) else {
                        return Err(ServiceError::Storage(DfsError::ChecksumMismatch {
                            path: wal_path(&base, s),
                            block: seq as usize,
                        }));
                    };
                    delta.apply(&index, seq, op);
                    replayed_total += 1;
                }
            }
            let shard = Shard {
                ingest: Mutex::new(IngestState {
                    next_seq: wal.next_seq(),
                    wal: Some(wal),
                }),
                state: RwLock::new(ShardState {
                    gen: Arc::new(GenerationSnapshot {
                        gen_no,
                        through_seq,
                        index,
                    }),
                    delta,
                    merge_poisoned: false,
                }),
                merge_attempts: AtomicU32::new(0),
            };
            shards.push(shard);
        }
        ha_obs::add("serve.gen.wal_replayed", replayed_total);
        let durable = Durable {
            dfs: Arc::clone(dfs),
            base,
        };
        let serve = Self::start(code_len, shards, Some(durable), cfg);
        serve.inner.state.lock().wal_replayed = replayed_total;
        Ok(serve)
    }

    fn start(
        code_len: usize,
        shards: Vec<Shard>,
        durable: Option<Durable>,
        cfg: ServeConfig,
    ) -> HaServe {
        // The group kernel every generation's flat sweeps dispatch to, as
        // resolved for this process — a trace shows what ran, not what
        // was compiled in.
        ha_obs::add(&format!("exec.kernel.{}", Kernel::detect().name()), 1);
        let inner = Arc::new(Inner {
            code_len,
            state: Mutex::new(MetricsState::new(shards.len())),
            shards,
            epoch: AtomicU64::new(0),
            queue: StdMutex::new(VecDeque::new()),
            available: Condvar::new(),
            merge_queue: StdMutex::new(VecDeque::new()),
            merge_available: Condvar::new(),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(ResultCache::new(cfg.cache_capacity)),
            started: Instant::now(),
            batch_seq: AtomicU64::new(0),
            mutation_ordinal: AtomicU64::new(0),
            faults: MergeFaultInjector::new(cfg.merge_faults.clone()),
            durable,
            cfg,
        });
        let workers: Vec<JoinHandle<()>> = (0..inner.cfg.workers)
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || worker_loop(&inner))
            })
            .collect();
        let merger = (inner.cfg.workers > 0).then(|| {
            let inner = Arc::clone(&inner);
            std::thread::spawn(move || merge_loop(&inner))
        });
        HaServe {
            inner,
            workers,
            merger,
        }
    }

    /// Code length this service answers queries for.
    pub fn code_len(&self) -> usize {
        self.inner.code_len
    }

    /// Number of index shards.
    pub fn shard_count(&self) -> usize {
        self.inner.shards.len()
    }

    /// Tuples live across all shards (generation plus delta, minus
    /// tombstones).
    pub fn len(&self) -> usize {
        self.inner
            .shards
            .iter()
            .map(|s| {
                let st = s.state.read();
                st.delta.live_len(&st.gen.index)
            })
            .sum()
    }

    /// True when nothing is indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Current global mutation epoch (0 at start; +1 per applied
    /// mutation; unchanged by generation swaps).
    pub fn epoch(&self) -> u64 {
        self.inner.epoch.load(Ordering::SeqCst)
    }

    /// Published generation number of `shard` (0 at build/bootstrap).
    pub fn generation(&self, shard: usize) -> u64 {
        match self.inner.shards.get(shard) {
            Some(s) => s.state.read().gen.gen_no,
            None => 0,
        }
    }

    /// Shard that owns `code` under the hash partitioning.
    pub fn shard_of(&self, code: &BinaryCode) -> usize {
        owner(code, self.inner.shards.len())
    }

    /// Every fault the configured [`MergeFaultPlan`] has delivered so
    /// far, in delivery order.
    pub fn merge_faults_delivered(&self) -> Vec<MergeFaultEvent> {
        self.inner.faults.delivered()
    }

    fn check_len(&self, code: &BinaryCode) -> Result<(), ServiceError> {
        if code.len() != self.inner.code_len {
            return Err(ServiceError::WrongCodeLength {
                expected: self.inner.code_len,
                got: code.len(),
            });
        }
        Ok(())
    }

    fn enqueue(&self, work: Work) -> Result<(), ServiceError> {
        if self.inner.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::Shutdown);
        }
        {
            let mut q = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if q.len() >= self.inner.cfg.queue_capacity {
                drop(q);
                self.inner.state.lock().rejected += 1;
                ha_obs::add("serve.rejected", 1);
                return Err(ServiceError::Overloaded {
                    capacity: self.inner.cfg.queue_capacity,
                });
            }
            q.push_back(work);
        }
        self.inner.available.notify_one();
        Ok(())
    }

    /// Enqueues a Hamming-select (Definition 1) without waiting; the
    /// returned ticket resolves once a worker answers the batch it lands
    /// in.
    pub fn submit_select(&self, code: &BinaryCode, h: u32) -> Result<SelectTicket, ServiceError> {
        self.submit_select_inner(code, h, None)
    }

    /// Like [`HaServe::submit_select`], but the request is only worth
    /// answering for `budget` from now: if it is still queued when the
    /// budget expires, it is shed at dequeue and the ticket resolves to
    /// [`ServiceError::DeadlineExceeded`].
    pub fn submit_select_with_deadline(
        &self,
        code: &BinaryCode,
        h: u32,
        budget: Duration,
    ) -> Result<SelectTicket, ServiceError> {
        self.submit_select_inner(code, h, Some(Instant::now() + budget))
    }

    fn submit_select_inner(
        &self,
        code: &BinaryCode,
        h: u32,
        deadline: Option<Instant>,
    ) -> Result<SelectTicket, ServiceError> {
        self.check_len(code)?;
        let (tx, rx) = mpsc::channel();
        self.enqueue(Work::Select {
            code: code.clone(),
            h,
            queued: queued_stamp(),
            deadline,
            tx,
        })?;
        Ok(SelectTicket { rx })
    }

    /// Hamming-select, blocking: all ids within distance `h` of `code`,
    /// sorted ascending. In manual-drive mode (`workers == 0`) the queue
    /// is pumped on the calling thread.
    pub fn select(&self, code: &BinaryCode, h: u32) -> Result<Vec<TupleId>, ServiceError> {
        let ticket = self.submit_select(code, h)?;
        if self.inner.cfg.workers == 0 {
            self.pump_all();
        }
        ticket.wait()
    }

    /// kNN-select, blocking: the `k` nearest `(id, distance)` pairs
    /// ordered by `(distance, id)`, found by H-Search at growing radii
    /// ([`ha_core::select::knn_by_radius`]).
    pub fn knn(&self, code: &BinaryCode, k: usize) -> Result<Vec<(TupleId, u32)>, ServiceError> {
        self.check_len(code)?;
        let (tx, rx) = mpsc::channel();
        self.enqueue(Work::Knn {
            code: code.clone(),
            k,
            queued: queued_stamp(),
            tx,
        })?;
        if self.inner.cfg.workers == 0 {
            self.pump_all();
        }
        rx.recv().map_err(|_| ServiceError::Shutdown)?
    }

    /// Applies one H-Insert: WAL-append first (durable mode), then into
    /// the owning shard's delta — O(delta), never a shard re-freeze —
    /// and bumps the mutation epoch (invalidating the result cache).
    pub fn insert(&self, code: BinaryCode, id: TupleId) -> Result<(), ServiceError> {
        self.check_len(&code)?;
        self.inner.apply_mutation(DeltaOp::Insert(code, id))?;
        self.inner.state.lock().inserts += 1;
        ha_obs::add("serve.inserts", 1);
        Ok(())
    }

    /// Applies one H-Delete to the owning shard's delta; returns whether
    /// the pair was live. Only a successful delete bumps the epoch.
    pub fn delete(&self, code: &BinaryCode, id: TupleId) -> Result<bool, ServiceError> {
        self.check_len(code)?;
        let removed = self
            .inner
            .apply_mutation(DeltaOp::Delete(code.clone(), id))?;
        if removed {
            self.inner.state.lock().deletes += 1;
            ha_obs::add("serve.deletes", 1);
        }
        Ok(removed)
    }

    /// Runs one merge of `shard` on the calling thread (the manual-drive
    /// counterpart of the background freeze/merge worker): absorbs the
    /// current delta into the next generation and publishes it. Returns
    /// whether a generation was published (`false` when the delta was
    /// empty or the shard's merge is poisoned).
    pub fn merge_now(&self, shard: usize) -> Result<bool, ServiceError> {
        if shard >= self.inner.shards.len() {
            return Ok(false);
        }
        self.inner.merge_shard(shard)
    }

    /// [`HaServe::merge_now`] over every shard; returns how many
    /// generations were published.
    pub fn merge_all_now(&self) -> Result<usize, ServiceError> {
        let mut published = 0;
        for s in 0..self.inner.shards.len() {
            if self.inner.merge_shard(s)? {
                published += 1;
            }
        }
        Ok(published)
    }

    /// Processes one pending batch on the calling thread (after shedding
    /// any expired work); returns whether there was anything to do. The
    /// manual-drive counterpart of the worker loop.
    pub fn pump(&self) -> bool {
        let (shed, batch) = {
            let mut q = self
                .inner
                .queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            dequeue(&mut q, self.inner.cfg.max_batch)
        };
        let did = !shed.is_empty() || batch.is_some();
        self.inner.reply_shed(shed);
        if let Some(b) = batch {
            self.inner.process(b);
        }
        did
    }

    /// Pumps until the queue is empty; returns the number of pump steps
    /// that found work.
    pub fn pump_all(&self) -> usize {
        let mut n = 0;
        while self.pump() {
            n += 1;
        }
        n
    }

    /// Pending (accepted, unanswered) requests.
    pub fn queue_depth(&self) -> usize {
        self.inner
            .queue
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Snapshot of the serving counters.
    pub fn metrics(&self) -> ServeMetrics {
        let shard_views: Vec<(usize, u64, usize, bool)> = self
            .inner
            .shards
            .iter()
            .map(|s| {
                let st = s.state.read();
                (
                    st.delta.live_len(&st.gen.index),
                    st.gen.gen_no,
                    st.delta.ops_len(),
                    st.merge_poisoned,
                )
            })
            .collect();
        let cache_evictions = self.inner.cache.lock().evictions();
        let st = self.inner.state.lock();
        let per_shard = shard_views
            .into_iter()
            .zip(st.shard_searches.iter())
            .zip(st.shard_latency.iter())
            .map(
                |(((items, generation, delta_ops, merge_poisoned), &searches), latency)| {
                    ShardMetrics {
                        searches,
                        items,
                        latency: *latency,
                        generation,
                        delta_ops,
                        merge_poisoned,
                    }
                },
            )
            .collect();
        ServeMetrics {
            selects: st.selects,
            knns: st.knns,
            inserts: st.inserts,
            deletes: st.deletes,
            cache_hits: st.cache_hits,
            cache_misses: st.cache_misses,
            cache_evictions,
            rejected: st.rejected,
            deadline_shed: st.deadline_shed,
            wal_appends: st.wal_appends,
            wal_replayed: st.wal_replayed,
            merge_attempts: st.merge_attempts,
            merge_panics: st.merge_panics,
            merges_completed: st.merges_completed,
            batches_formed: st.batches_formed,
            batch_sizes: st.batch_sizes.iter().map(|(&s, &c)| (s, c)).collect(),
            per_shard,
            elapsed: self.inner.started.elapsed(),
        }
    }
}

/// Hash-partitions `items` into `cfg.shards` parts, validating code
/// lengths and the leafful-config requirement.
fn partition(
    code_len: usize,
    items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    cfg: &ServeConfig,
) -> Result<Vec<Vec<(BinaryCode, TupleId)>>, ServiceError> {
    if !cfg.dha.keep_leaf_ids {
        return Err(ServiceError::Leafless);
    }
    let nshards = cfg.shards.max(1);
    let mut parts: Vec<Vec<(BinaryCode, TupleId)>> = vec![Vec::new(); nshards];
    for (code, id) in items {
        if code.len() != code_len {
            return Err(ServiceError::WrongCodeLength {
                expected: code_len,
                got: code.len(),
            });
        }
        parts[owner(&code, nshards)].push((code, id));
    }
    Ok(parts)
}

fn plan_config(cfg: &ServeConfig) -> PlanConfig {
    PlanConfig {
        dha: cfg.dha.clone(),
        model: cfg.model.clone(),
    }
}

/// Runs `f(0..tasks)` and returns the results **in task order** — the
/// exact output of `(0..tasks).map(f).collect()`, so callers merge as a
/// sequential loop would. Inline when `width <= 1` or there is at most
/// one task; otherwise the tasks are stolen by up to `width` scoped
/// threads ([`ha_bitcode::pool::fan_out`]), which may borrow caller
/// state (read guards). A parallel fan-out opens an `exec.fan_out` span
/// and bumps `exec.parallel_fanouts` / `exec.tasks`.
fn fan_out<R, F>(width: usize, tasks: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    if width <= 1 || tasks <= 1 {
        return (0..tasks).map(f).collect();
    }
    let _span = ha_obs::span_labeled("exec.fan_out", || format!("tasks={tasks} workers={width}"));
    ha_obs::add("exec.parallel_fanouts", 1);
    ha_obs::add("exec.tasks", tasks as u64);
    ha_bitcode::pool::fan_out(width, tasks, f)
}

fn fresh_shard(index: PlannedIndex, gen_no: u64, through_seq: u64, wal: Option<DfsWal>) -> Shard {
    let next_seq = wal.as_ref().map_or(1, DfsWal::next_seq);
    Shard {
        state: RwLock::new(ShardState {
            gen: Arc::new(GenerationSnapshot {
                gen_no,
                through_seq,
                index,
            }),
            delta: DeltaIndex::new(),
            merge_poisoned: false,
        }),
        ingest: Mutex::new(IngestState { wal, next_seq }),
        merge_attempts: AtomicU32::new(0),
    }
}

fn wal_to_service(e: WalError) -> ServiceError {
    match e {
        WalError::Storage(e) => ServiceError::Storage(e),
        WalError::Corrupt { path, .. } => {
            ServiceError::Storage(DfsError::ChecksumMismatch { path, block: 0 })
        }
    }
}

impl std::fmt::Debug for HaServe {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HaServe")
            .field("code_len", &self.inner.code_len)
            .field("shards", &self.inner.shards.len())
            .field("workers", &self.workers.len())
            .field("epoch", &self.epoch())
            .field("durable", &self.inner.durable.is_some())
            .finish_non_exhaustive()
    }
}

impl Drop for HaServe {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.available.notify_all();
        self.inner.merge_available.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
        if let Some(h) = self.merger.take() {
            let _ = h.join();
        }
        // Manual-drive mode has no workers; answer what is left so no
        // accepted ticket is dropped unresolved.
        if self.inner.cfg.workers == 0 {
            self.pump_all();
        }
    }
}

fn worker_loop(inner: &Inner) {
    loop {
        let (shed, batch) = {
            let mut q = inner.queue.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                let (shed, batch) = dequeue(&mut q, inner.cfg.max_batch);
                if !shed.is_empty() || batch.is_some() {
                    break (shed, batch);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = inner
                    .available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        inner.reply_shed(shed);
        if let Some(b) = batch {
            inner.process(b);
        }
    }
}

/// The background freeze/merge worker: waits for shards whose deltas
/// crossed `delta_cap` and publishes their next generation.
fn merge_loop(inner: &Inner) {
    loop {
        let shard = {
            let mut q = inner
                .merge_queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            loop {
                if let Some(s) = q.pop_front() {
                    break Some(s);
                }
                if inner.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                q = inner
                    .merge_available
                    .wait(q)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        match shard {
            // A failed merge already poisoned the shard (or logged its
            // storage error into the attempt counters); the worker keeps
            // serving the others.
            Some(s) => {
                let _ = inner.merge_shard(s);
            }
            None => return,
        }
    }
}

impl Inner {
    /// The WAL-before-ack ingest path: assign a sequence number and make
    /// the op durable under the shard's ingest lock, then apply it to
    /// the delta (and bump the epoch) under the shard's write lock.
    /// Returns whether the op changed the live multiset.
    fn apply_mutation(&self, op: DeltaOp) -> Result<bool, ServiceError> {
        if self.shutdown.load(Ordering::SeqCst) {
            return Err(ServiceError::Shutdown);
        }
        let code = match &op {
            DeltaOp::Insert(c, _) | DeltaOp::Delete(c, _) => c,
        };
        let s = owner(code, self.shards.len());
        let shard = &self.shards[s];
        let ordinal = self.mutation_ordinal.fetch_add(1, Ordering::SeqCst);
        let mut ing = shard.ingest.lock();
        if self.faults.deliver_crash(ordinal, CrashPoint::BeforeWalAck) {
            drop(ing);
            self.crash();
            return Err(ServiceError::CrashInjected);
        }
        let seq = match ing.wal.as_mut() {
            Some(wal) => {
                let _wal_span = ha_obs::span("serve.gen.wal_append");
                let seq = wal.append(&encode_op(&op)).map_err(ServiceError::Storage)?;
                self.state.lock().wal_appends += 1;
                ha_obs::add("serve.gen.wal_appends", 1);
                seq
            }
            None => ing.next_seq,
        };
        ing.next_seq = seq + 1;
        if self.faults.deliver_crash(ordinal, CrashPoint::AfterWalAck) {
            // Durable but never acknowledged and never applied: the
            // recovery replay must still surface it — the WAL is the
            // truth, not the ack.
            drop(ing);
            self.crash();
            return Err(ServiceError::CrashInjected);
        }
        let (applied, pending, poisoned) = {
            let mut st = shard.state.write();
            let gen = Arc::clone(&st.gen);
            let applied = st.delta.apply(&gen.index, seq, op);
            if applied {
                self.epoch.fetch_add(1, Ordering::SeqCst);
            }
            (applied, st.delta.ops_len(), st.merge_poisoned)
        };
        drop(ing);
        if pending >= self.cfg.delta_cap && !poisoned {
            self.request_merge(s);
        }
        Ok(applied)
    }

    /// Flips the service into the post-crash state: no further requests
    /// are accepted; a fresh service must [`HaServe::recover`] from the
    /// DFS.
    fn crash(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.available.notify_all();
        self.merge_available.notify_all();
    }

    /// Asks the background merge worker to absorb shard `s` (no-op in
    /// manual-drive mode, where tests call [`HaServe::merge_now`]).
    fn request_merge(&self, s: usize) {
        if self.cfg.workers == 0 {
            return;
        }
        {
            let mut q = self
                .merge_queue
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if !q.contains(&s) {
                q.push_back(s);
            }
        }
        self.merge_available.notify_one();
    }

    /// One full merge of shard `s`: capture the delta under a read lock,
    /// build the next generation off-lock under panic isolation (with
    /// bounded retries and backoff), persist it (durable mode), and
    /// publish with an O(1) snapshot swap. The epoch is *not* bumped —
    /// the swap is content-preserving, which is exactly why the result
    /// cache stays exact across it.
    fn merge_shard(&self, s: usize) -> Result<bool, ServiceError> {
        let shard = &self.shards[s];
        let (gen, delta) = {
            let st = shard.state.read();
            if st.merge_poisoned || st.delta.is_empty() {
                return Ok(false);
            }
            (Arc::clone(&st.gen), st.delta.clone())
        };
        let through = delta.last_seq();
        let next_gen_no = gen.gen_no + 1;
        let _merge_span =
            ha_obs::span_labeled("serve.gen.merge", || format!("shard={s} gen={next_gen_no}"));
        let mut last_err = None;
        for _ in 0..self.cfg.max_merge_attempts.max(1) {
            let attempt = shard.merge_attempts.fetch_add(1, Ordering::SeqCst);
            self.state.lock().merge_attempts += 1;
            ha_obs::add("serve.gen.merge_attempts", 1);
            let fault = self.faults.deliver_merge(s, attempt);
            let built = catch_unwind(AssertUnwindSafe(|| -> Result<PlannedIndex, ServiceError> {
                if fault == Some(MergeFault::PanicMidMerge) {
                    // The injector's *deliberate* panic (budgeted in the
                    // panic audit, like the MapReduce task injector's):
                    // proves merge failures are contained, retried, and
                    // degrade to delta-only serving.
                    panic!("injected merge fault: shard {s} attempt {attempt}");
                }
                let items = delta.materialize(&gen.index);
                let next = PlannedIndex::build_with(self.code_len, items, plan_config(&self.cfg));
                if let Some(d) = &self.durable {
                    // Blob first, manifest second: a crash between the
                    // two leaves `CURRENT` pointing at the old (intact)
                    // generation and the WAL un-truncated — recovery
                    // replays over the old generation instead.
                    let blob_path = gen_blob_path(&d.base, s, next_gen_no);
                    d.dfs
                        .try_put_with_blocks(&blob_path, gen_rows_blob(&next), usize::MAX, 1)?;
                    d.dfs.try_put_with_blocks(
                        &manifest_path(&d.base, s),
                        vec![(next_gen_no, through)],
                        usize::MAX,
                        16,
                    )?;
                }
                Ok(next)
            }));
            match built {
                Err(_) => {
                    self.state.lock().merge_panics += 1;
                    ha_obs::add("serve.gen.merge_panics", 1);
                    std::thread::sleep(self.cfg.merge_backoff);
                }
                Ok(Err(e)) => {
                    last_err = Some(e);
                    std::thread::sleep(self.cfg.merge_backoff);
                }
                Ok(Ok(next)) => {
                    if let Some(MergeFault::DelayPublish(by)) = fault {
                        std::thread::sleep(by);
                    }
                    {
                        let _swap_span = ha_obs::span_labeled("serve.gen.swap", || {
                            format!("shard={s} gen={next_gen_no}")
                        });
                        let snapshot = GenerationSnapshot {
                            gen_no: next_gen_no,
                            through_seq: through,
                            index: next,
                        };
                        let mut st = shard.state.write();
                        // Rebase: ops that arrived after the capture are
                        // re-applied onto the new generation; the
                        // absorbed prefix is already inside it. No epoch
                        // bump — the live multiset is unchanged.
                        st.delta = st.delta.rebase(&snapshot.index, snapshot.through_seq);
                        st.gen = Arc::new(snapshot);
                    }
                    if let Some(d) = &self.durable {
                        {
                            let mut ing = shard.ingest.lock();
                            if let Some(wal) = ing.wal.as_mut() {
                                wal.truncate_through(through);
                            }
                        }
                        d.dfs.delete(&gen_blob_path(&d.base, s, gen.gen_no));
                    }
                    self.state.lock().merges_completed += 1;
                    ha_obs::add("serve.gen.published", 1);
                    return Ok(true);
                }
            }
        }
        // Retries exhausted: degrade this shard to delta-only serving.
        shard.state.write().merge_poisoned = true;
        ha_obs::add("serve.gen.poisoned", 1);
        match last_err {
            Some(e) => Err(e),
            None => Ok(false),
        }
    }

    /// Answers shed selects with the typed deadline error, outside any
    /// queue lock.
    fn reply_shed(&self, shed: Vec<SelectReply>) {
        if shed.is_empty() {
            return;
        }
        let n = shed.len() as u64;
        self.state.lock().deadline_shed += n;
        ha_obs::add("serve.deadline_shed", n);
        for tx in shed {
            let _ = tx.send(Err(ServiceError::DeadlineExceeded));
        }
    }

    fn process(&self, batch: Batch) {
        match batch {
            Batch::Select {
                h,
                codes,
                queued,
                txs,
            } => {
                observe_queue_wait(&queued);
                self.process_select_batch(h, codes, txs)
            }
            Batch::Knn {
                code,
                k,
                queued,
                tx,
            } => {
                observe_queue_wait(&[queued]);
                self.process_knn(&code, k, tx)
            }
        }
    }

    fn process_select_batch(
        &self,
        h: u32,
        codes: Vec<BinaryCode>,
        txs: Vec<SelectReply>,
    ) {
        let _batch_span =
            ha_obs::span_labeled("serve.batch", || format!("h={h} size={}", codes.len()));
        // Cache pass: answers computed at the current epoch serve
        // directly; the rest form the executed batch.
        let mut hit_replies: Vec<(SelectReply, Vec<TupleId>)> = Vec::new();
        let mut miss_codes: Vec<BinaryCode> = Vec::new();
        let mut miss_txs: Vec<SelectReply> = Vec::new();
        {
            let _cache_span = ha_obs::span("serve.cache_lookup");
            let epoch = self.epoch.load(Ordering::SeqCst);
            let mut cache = self.cache.lock();
            for (code, tx) in codes.into_iter().zip(txs) {
                match cache.get(&code, h, epoch) {
                    Some(ids) => hit_replies.push((tx, ids)),
                    None => {
                        miss_codes.push(code);
                        miss_txs.push(tx);
                    }
                }
            }
        }

        let mut merged: Vec<Vec<TupleId>> = Vec::new();
        let mut probe_times: Vec<(usize, Duration)> = Vec::new();
        if !miss_codes.is_empty() {
            let _exec_span = ha_obs::span("serve.exec");
            // Hold every shard read lock for the whole batch: mutations
            // bump the epoch under a shard *write* lock, so the epoch is
            // frozen here and the answers (and the cache entries tagged
            // with it) describe one consistent index state. Generation
            // swaps also need the write lock, so each guard pins one
            // coherent (generation, delta) pair — and because a swap
            // preserves content, even a swap between this batch and the
            // cache lookup cannot change what the answers would be.
            let guards: Vec<_> = self.shards.iter().map(|s| s.state.read()).collect();
            let e0 = self.epoch.load(Ordering::SeqCst);
            let nshards = guards.len();
            let seq = self.batch_seq.fetch_add(1, Ordering::SeqCst);
            let start = (self.cfg.seed.wrapping_add(seq) % nshards as u64) as usize;
            merged = vec![Vec::new(); miss_codes.len()];
            // Per-shard probes are independent reads under the guards
            // held above, so they fan out as stealable tasks. Results
            // come back in rotation order — exactly the order a
            // sequential loop produces — and the merge below is
            // shard-order-insensitive anyway (ids are sorted after the
            // union), so answers are byte-identical at any width (see
            // DESIGN.md).
            let probes = fan_out(self.cfg.fan_out, nshards, |off| {
                let s = (start + off) % nshards;
                let t0 = Instant::now();
                let per_query: Vec<Vec<TupleId>> = {
                    let _probe_span =
                        ha_obs::span_labeled("serve.shard_probe", || format!("shard={s}"));
                    let shard = &guards[s];
                    miss_codes.iter().map(|q| shard.delta.search(&shard.gen.index, q, h)).collect()
                };
                (s, t0.elapsed(), per_query)
            });
            for (s, elapsed, per_query) in probes {
                probe_times.push((s, elapsed));
                for (qi, ids) in per_query.into_iter().enumerate() {
                    merged[qi].extend(ids);
                }
            }
            for ids in &mut merged {
                ids.sort_unstable();
            }
            // Cache before replying (still under the read locks, so `e0`
            // is still the current epoch): a closed-loop client that saw
            // its answer is guaranteed its repeat query can hit.
            let mut cache = self.cache.lock();
            for (code, ids) in miss_codes.iter().zip(&merged) {
                cache.insert(code.clone(), h, e0, ids.clone());
            }
        }

        {
            let mut st = self.state.lock();
            st.selects += (hit_replies.len() + miss_codes.len()) as u64;
            st.cache_hits += hit_replies.len() as u64;
            st.cache_misses += miss_codes.len() as u64;
            if !miss_codes.is_empty() {
                st.batches_formed += 1;
                *st.batch_sizes.entry(miss_codes.len()).or_insert(0) += 1;
                for &(s, dt) in &probe_times {
                    st.shard_searches[s] += 1;
                    st.shard_latency[s].record(dt);
                }
            }
        }
        if ha_obs::is_enabled() {
            ha_obs::add("serve.selects", (hit_replies.len() + miss_codes.len()) as u64);
            ha_obs::add("serve.cache_hits", hit_replies.len() as u64);
            ha_obs::add("serve.cache_misses", miss_codes.len() as u64);
            if !miss_codes.is_empty() {
                ha_obs::add("serve.batches_formed", 1);
                for &(_, dt) in &probe_times {
                    ha_obs::observe("serve.shard_probe_ns", dt);
                }
            }
            ha_obs::emit(|| ha_obs::Event::ServeBatch {
                h,
                executed: miss_codes.len(),
                cache_hits: hit_replies.len(),
            });
        }

        for (tx, ids) in hit_replies {
            let _ = tx.send(Ok(ids));
        }
        for (tx, ids) in miss_txs.into_iter().zip(merged) {
            let _ = tx.send(Ok(ids));
        }
    }

    /// kNN by [`knn_by_radius`] over every shard: each round fans one
    /// H-Search at that radius out to the shards and concatenates the
    /// hits. Exact distances come free off the HA-Index path sums; the
    /// delta overlay contributes (and tombstones) candidates exactly like
    /// the select path.
    fn process_knn(
        &self,
        code: &BinaryCode,
        k: usize,
        tx: mpsc::Sender<Result<Vec<(TupleId, u32)>, ServiceError>>,
    ) {
        let _knn_span = ha_obs::span_labeled("serve.knn", || format!("k={k}"));
        let guards: Vec<_> = self.shards.iter().map(|s| s.state.read()).collect();
        let total: usize = guards.iter().map(|g| g.delta.live_len(&g.gen.index)).sum();
        let result = knn_by_radius(k.min(total), self.code_len as u32, |r| {
            let per_shard = fan_out(self.cfg.fan_out, guards.len(), |s| {
                guards[s].delta.search_with_distances(&guards[s].gen.index, code, r)
            });
            per_shard.into_iter().flatten().collect()
        });
        drop(guards);
        self.state.lock().knns += 1;
        ha_obs::add("serve.knns", 1);
        ha_obs::emit(|| ha_obs::Event::ServeKnn { k });
        let _ = tx.send(Ok(result));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ha_core::{Backend, HammingIndex, LinearScanIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn dataset(n: usize, len: usize, seed: u64) -> Vec<(BinaryCode, TupleId)> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|i| (BinaryCode::random(len, &mut rng), i as TupleId))
            .collect()
    }

    fn oracle(data: &[(BinaryCode, TupleId)], q: &BinaryCode, h: u32) -> Vec<TupleId> {
        let mut ids: Vec<TupleId> = data
            .iter()
            .filter(|(c, _)| c.hamming(q) <= h)
            .map(|&(_, id)| id)
            .collect();
        ids.sort_unstable();
        ids
    }

    #[test]
    fn select_matches_linear_oracle() {
        let data = dataset(300, 32, 11);
        let serve = HaServe::build(32, data.clone(), ServeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(12);
        for h in [0, 2, 5, 9] {
            let q = BinaryCode::random(32, &mut rng);
            assert_eq!(serve.select(&q, h).unwrap(), oracle(&data, &q, h), "h={h}");
        }
    }

    #[test]
    fn knn_matches_linear_index() {
        let data = dataset(200, 24, 21);
        let serve = HaServe::build(24, data.clone(), ServeConfig::default()).unwrap();
        let lin = LinearScanIndex::build(data.clone());
        let mut rng = StdRng::seed_from_u64(22);
        for k in [1, 5, 17, 200, 500] {
            let q = BinaryCode::random(24, &mut rng);
            let got = serve.knn(&q, k).unwrap();
            assert_eq!(got.len(), k.min(200), "k={k}");
            // Distances must be the k smallest the oracle can produce.
            let mut want: Vec<(TupleId, u32)> = lin
                .search(&q, 24)
                .into_iter()
                .map(|id| (id, data[id as usize].0.hamming(&q)))
                .collect();
            want.sort_unstable_by_key(|&(id, d)| (d, id));
            want.truncate(k.min(200));
            assert_eq!(got, want, "k={k}");
        }
    }

    #[test]
    fn mutations_route_to_owner_and_bump_epoch() {
        let data = dataset(50, 16, 31);
        let serve = HaServe::build(16, data.clone(), ServeConfig::default()).unwrap();
        assert_eq!(serve.epoch(), 0);
        let mut rng = StdRng::seed_from_u64(32);
        let fresh = BinaryCode::random(16, &mut rng);
        serve.insert(fresh.clone(), 777).unwrap();
        assert_eq!(serve.epoch(), 1);
        assert!(serve.select(&fresh, 0).unwrap().contains(&777));
        assert!(serve.delete(&fresh, 777).unwrap());
        assert_eq!(serve.epoch(), 2);
        assert!(!serve.delete(&fresh, 777).unwrap(), "double delete");
        assert_eq!(serve.epoch(), 2, "failed delete must not bump the epoch");
        assert_eq!(serve.len(), 50);
    }

    #[test]
    fn single_insert_lands_in_delta_not_a_refreeze() {
        // Regression pin for the PR 5 behavior where every mutation
        // re-froze the whole shard (O(n)) inside the write lock: an
        // insert must now land in the owning shard's delta, leave the
        // generation untouched, and still be immediately visible.
        let data = dataset(200, 16, 33);
        let serve = HaServe::build(16, data, ServeConfig::default()).unwrap();
        let mut rng = StdRng::seed_from_u64(34);
        let fresh = BinaryCode::random(16, &mut rng);
        serve.insert(fresh.clone(), 9001).unwrap();
        let m = serve.metrics();
        assert_eq!(m.merges_completed, 0, "no merge was triggered");
        assert_eq!(m.merge_attempts, 0, "no freeze/H-Build ran");
        assert_eq!(
            m.per_shard.iter().map(|s| s.generation).max(),
            Some(0),
            "every shard still serves its build-time generation"
        );
        assert_eq!(
            m.per_shard.iter().map(|s| s.delta_ops).sum::<usize>(),
            1,
            "the mutation sits in exactly one delta"
        );
        assert!(serve.select(&fresh, 0).unwrap().contains(&9001));
    }

    #[test]
    fn merge_now_publishes_without_epoch_bump_and_preserves_answers() {
        let data = dataset(150, 16, 35);
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let serve = HaServe::build(16, data.clone(), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(36);
        let mut live = data;
        for i in 0..20u64 {
            let c = BinaryCode::random(16, &mut rng);
            serve.insert(c.clone(), 5000 + i).unwrap();
            live.push((c, 5000 + i));
        }
        let (code0, id0) = live.remove(3);
        assert!(serve.delete(&code0, id0).unwrap());
        let epoch_before = serve.epoch();
        let published = serve.merge_all_now().unwrap();
        assert!(published >= 1, "at least one shard had a delta to absorb");
        assert_eq!(serve.epoch(), epoch_before, "swap must not bump the epoch");
        let m = serve.metrics();
        assert_eq!(m.merges_completed, published as u64);
        assert_eq!(
            m.per_shard.iter().filter(|s| s.generation == 1).count(),
            published,
            "each publish advanced exactly one shard's generation"
        );
        assert_eq!(
            m.per_shard.iter().map(|s| s.delta_ops).sum::<usize>(),
            0,
            "all deltas were absorbed"
        );
        assert_eq!(serve.len(), live.len());
        for h in [0u32, 3] {
            let q = live[7].0.clone();
            assert_eq!(serve.select(&q, h).unwrap(), oracle(&live, &q, h));
        }
        // Nothing left: merging again is a no-op.
        assert_eq!(serve.merge_all_now().unwrap(), 0);
    }

    #[test]
    fn expired_deadline_is_shed_not_executed() {
        let data = dataset(80, 16, 37);
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let serve = HaServe::build(16, data.clone(), cfg).unwrap();
        let q = data[5].0.clone();
        let doomed = serve
            .submit_select_with_deadline(&q, 2, Duration::ZERO)
            .unwrap();
        std::thread::sleep(Duration::from_millis(1));
        let fine = serve.submit_select(&q, 2).unwrap();
        serve.pump_all();
        assert_eq!(doomed.wait().unwrap_err(), ServiceError::DeadlineExceeded);
        assert_eq!(fine.wait().unwrap(), oracle(&data, &q, 2));
        let m = serve.metrics();
        assert_eq!(m.deadline_shed, 1);
        assert_eq!(m.selects, 1, "shed work is not counted as answered");
    }

    #[test]
    fn cache_hits_after_repeat_and_invalidates_on_mutation() {
        let data = dataset(120, 16, 41);
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let serve = HaServe::build(16, data.clone(), cfg).unwrap();
        let q = data[7].0.clone();
        let first = serve.select(&q, 3).unwrap();
        let second = serve.select(&q, 3).unwrap();
        assert_eq!(first, second);
        let m = serve.metrics();
        assert_eq!(m.cache_misses, 1);
        assert_eq!(m.cache_hits, 1);
        assert_eq!(m.batches_formed, 1, "the hit formed no batch");
        // A mutation invalidates; the next repeat is a miss and sees the
        // new tuple.
        serve.insert(q.clone(), 9999).unwrap();
        let third = serve.select(&q, 3).unwrap();
        assert!(third.contains(&9999), "no stale hit after insert");
        let m = serve.metrics();
        assert_eq!(m.cache_misses, 2);
        assert_eq!(m.cache_hits, 1);
    }

    #[test]
    fn manual_drive_overload_rejects_then_drains() {
        let data = dataset(60, 16, 51);
        let cfg = ServeConfig {
            workers: 0,
            queue_capacity: 3,
            cache_capacity: 0,
            ..ServeConfig::default()
        };
        let serve = HaServe::build(16, data.clone(), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(52);
        let qs: Vec<BinaryCode> = (0..4).map(|_| BinaryCode::random(16, &mut rng)).collect();
        let t0 = serve.submit_select(&qs[0], 2).unwrap();
        let t1 = serve.submit_select(&qs[1], 2).unwrap();
        let t2 = serve.submit_select(&qs[2], 5).unwrap();
        let err = serve.submit_select(&qs[3], 2).unwrap_err();
        assert_eq!(err, ServiceError::Overloaded { capacity: 3 });
        assert_eq!(serve.queue_depth(), 3);
        // Draining forms two batches: the radius-2 pair, then the lone
        // radius-5 select.
        assert_eq!(serve.pump_all(), 2);
        for (t, q) in [(t0, &qs[0]), (t1, &qs[1])] {
            assert_eq!(t.wait().unwrap(), oracle(&data, q, 2));
        }
        assert_eq!(t2.wait().unwrap(), oracle(&data, &qs[2], 5));
        let m = serve.metrics();
        assert_eq!(m.rejected, 1);
        assert_eq!(m.batches_formed, 2);
        assert_eq!(m.batch_sizes, vec![(1, 1), (2, 1)]);
    }

    #[test]
    fn durable_bootstrap_recover_round_trips() {
        let data = dataset(90, 16, 63);
        let dfs = Arc::new(InMemoryDfs::new());
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let mut live = data.clone();
        let mut rng = StdRng::seed_from_u64(64);
        {
            let serve =
                HaServe::bootstrap_durable(&dfs, "/srv", 16, data, cfg.clone()).unwrap();
            for i in 0..12u64 {
                let c = BinaryCode::random(16, &mut rng);
                serve.insert(c.clone(), 7000 + i).unwrap();
                live.push((c, 7000 + i));
            }
            let (c, id) = live.remove(20);
            assert!(serve.delete(&c, id).unwrap());
            assert_eq!(serve.metrics().wal_appends, 13);
            // The service is dropped without any merge: the WAL is the
            // only durable record of the mutations.
        }
        let serve = HaServe::recover(&dfs, "/srv", cfg).unwrap();
        assert_eq!(serve.metrics().wal_replayed, 13);
        assert_eq!(serve.len(), live.len());
        for h in [0u32, 2] {
            let q = live[live.len() - 3].0.clone();
            assert_eq!(serve.select(&q, h).unwrap(), oracle(&live, &q, h));
        }
    }

    /// What a generation's planner decides with (profile and MIH chunk
    /// count, the route at each `h`), plus its rows.
    type ShardPlan = (String, Vec<Backend>, Vec<(BinaryCode, TupleId)>);

    /// The [`ShardPlan`] of every shard's published generation.
    fn shard_plans(serve: &HaServe, hs: &[u32]) -> Vec<ShardPlan> {
        serve
            .inner
            .shards
            .iter()
            .map(|s| {
                let st = s.state.read();
                let index = &st.gen.index;
                (
                    format!("{:?} chunks={}", index.profile(), index.mih().chunks()),
                    hs.iter().map(|&h| index.backend_for(h)).collect(),
                    index.items().collect(),
                )
            })
            .collect()
    }

    #[test]
    fn recovered_shards_are_planned_and_answer_exactly() {
        let data = dataset(120, 16, 65);
        let dfs = Arc::new(InMemoryDfs::new());
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        let hs: Vec<u32> = (0..=16).collect();
        let mut live = data.clone();
        let mut rng = StdRng::seed_from_u64(66);
        let published = {
            let serve =
                HaServe::bootstrap_durable(&dfs, "/srv", 16, data, cfg.clone()).unwrap();
            for i in 0..10u64 {
                let c = BinaryCode::random(16, &mut rng);
                serve.insert(c.clone(), 8000 + i).unwrap();
                live.push((c, 8000 + i));
            }
            let (c, id) = live.remove(4);
            assert!(serve.delete(&c, id).unwrap());
            assert!(serve.merge_all_now().unwrap() >= 1);
            shard_plans(&serve, &hs)
        };
        // Recovery rebuilds every shard from its rows, in the order they
        // were published: same MIH, profile and routes as before the drop.
        let serve = HaServe::recover(&dfs, "/srv", cfg).unwrap();
        assert_eq!(shard_plans(&serve, &hs), published);
        assert_eq!(serve.len(), live.len());
        for h in [0u32, 2, 5] {
            let q = BinaryCode::random(16, &mut rng);
            assert_eq!(serve.select(&q, h).unwrap(), oracle(&live, &q, h), "h={h}");
        }
        assert_eq!(serve.knn(&live[3].0, 1).unwrap()[0].1, 0);
        let fresh = BinaryCode::random(16, &mut rng);
        serve.insert(fresh.clone(), 9999).unwrap();
        live.push((fresh.clone(), 9999));
        let s = serve.shard_of(&fresh);
        let gen_before = serve.generation(s);
        assert!(serve.merge_now(s).unwrap());
        assert_eq!(serve.generation(s), gen_before + 1);
        assert_eq!(serve.len(), live.len());
        for h in [0u32, 3] {
            assert_eq!(serve.select(&fresh, h).unwrap(), oracle(&live, &fresh, h), "h={h}");
        }
    }

    #[test]
    fn rows_blob_round_trips_byte_for_byte() {
        for code_len in [16usize, 64, 65, 512] {
            for n in [0usize, 1, 37] {
                let mut data = dataset(n, code_len, 200 + n as u64);
                if let Some(first) = data.first().cloned() {
                    data.push((first.0, u64::MAX));
                }
                let blob = encode_rows(code_len, data.iter().cloned());
                let rows = decode_rows(&blob, code_len).unwrap();
                assert_eq!(rows, data, "bits={code_len} n={n}");
                assert_eq!(encode_rows(code_len, rows.into_iter()), blob, "bits={code_len} n={n}");
                // A built generation persists its rows in build input order.
                let index = PlannedIndex::build(code_len, data.clone());
                assert_eq!(gen_rows_blob(&index), blob, "bits={code_len} n={n}");
            }
        }
    }

    #[test]
    fn damaged_rows_blob_is_a_typed_error() {
        for code_len in [16usize, 65] {
            let blob = encode_rows(code_len, dataset(5, code_len, 210).into_iter());
            for i in 0..blob.len() {
                let mut bad = blob.clone();
                bad[i] ^= 0x20;
                assert!(decode_rows(&bad, code_len).is_err(), "bits={code_len} byte {i}");
            }
            for len in 0..blob.len() {
                assert!(decode_rows(&blob[..len], code_len).is_err(), "truncated to {len}");
            }
            for extra in [1usize, 8, 24] {
                let mut long = blob.clone();
                long.extend(std::iter::repeat_n(0u8, extra));
                assert!(decode_rows(&long, code_len).is_err(), "extended by {extra}");
            }
            assert_eq!(
                decode_rows(&blob, code_len + 1),
                Err(RowsError::CodeLength { expected: code_len + 1, got: code_len })
            );
        }
        let blob = encode_rows(16, dataset(5, 16, 211).into_iter());
        let mut bad = blob.clone();
        bad[0] ^= 1;
        assert_eq!(decode_rows(&bad, 16), Err(RowsError::BadMagic));
        let mut bad = blob.clone();
        bad[ROWS_HEADER + 3] ^= 1;
        assert_eq!(decode_rows(&bad, 16), Err(RowsError::ChecksumMismatch));
        assert_eq!(decode_rows(&blob[..blob.len() - 16], 16), Err(RowsError::Truncated));
        let mut long = blob[..blob.len() - 8].to_vec();
        long.extend_from_slice(&[0; 16]);
        assert_eq!(decode_rows(&long, 16), Err(RowsError::TrailingBytes));
        assert_eq!(decode_rows(&blob, 0), Err(RowsError::CodeLength { expected: 0, got: 16 }));
    }

    #[test]
    fn corrupt_rows_blob_recovers_with_typed_error() {
        let data = dataset(50, 16, 68);
        let dfs = Arc::new(InMemoryDfs::new());
        let cfg = ServeConfig {
            workers: 0,
            ..ServeConfig::default()
        };
        drop(HaServe::bootstrap_durable(&dfs, "/srv", 16, data, cfg.clone()).unwrap());
        // Flip one byte inside shard 0's rows: recovery must surface a
        // typed rejection, never serve corrupt answers.
        let mut blob: Vec<u8> = dfs.try_get(&gen_blob_path("/srv", 0, 0)).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
        dfs.try_put_with_blocks(&gen_blob_path("/srv", 0, 0), blob, usize::MAX, 1)
            .unwrap();
        let err = HaServe::recover(&dfs, "/srv", cfg).unwrap_err();
        assert_eq!(err, ServiceError::CorruptGeneration(RowsError::ChecksumMismatch));
    }

    #[test]
    fn wrong_code_length_is_typed() {
        let data = dataset(20, 16, 81);
        let serve = HaServe::build(16, data, ServeConfig::default()).unwrap();
        let q = BinaryCode::zero(32);
        let err = serve.select(&q, 1).unwrap_err();
        assert_eq!(
            err,
            ServiceError::WrongCodeLength {
                expected: 16,
                got: 32
            }
        );
        assert!(serve.insert(BinaryCode::zero(8), 1).is_err());
    }

    #[test]
    fn leafless_config_is_rejected() {
        let cfg = ServeConfig {
            dha: DhaConfig {
                keep_leaf_ids: false,
                ..DhaConfig::default()
            },
            ..ServeConfig::default()
        };
        let err = HaServe::build(16, dataset(10, 16, 91), cfg).unwrap_err();
        assert_eq!(err, ServiceError::Leafless);
    }

    #[test]
    fn sharding_is_a_partition() {
        let data = dataset(200, 24, 101);
        let serve = HaServe::build(24, data.clone(), ServeConfig::default()).unwrap();
        let m = serve.metrics();
        assert_eq!(m.per_shard.len(), 4);
        assert_eq!(m.per_shard.iter().map(|s| s.items).sum::<usize>(), 200);
        assert!(
            m.per_shard.iter().filter(|s| s.items > 0).count() > 1,
            "hash partitioning should spread 200 items over multiple shards"
        );
        for (c, _) in &data {
            assert!(serve.shard_of(c) < 4);
        }
    }

    #[test]
    fn concurrent_clients_get_exact_answers() {
        let data = dataset(400, 32, 111);
        let cfg = ServeConfig {
            workers: 4,
            max_batch: 8,
            ..ServeConfig::default()
        };
        let serve = HaServe::build(32, data.clone(), cfg).unwrap();
        let mut rng = StdRng::seed_from_u64(112);
        let queries: Vec<(BinaryCode, u32)> = (0..64)
            .map(|_| (BinaryCode::random(32, &mut rng), rng.gen_range(0..8)))
            .collect();
        let serve = &serve;
        let data = &data;
        std::thread::scope(|scope| {
            for chunk in queries.chunks(16) {
                scope.spawn(move || {
                    for (q, h) in chunk {
                        assert_eq!(serve.select(q, *h).unwrap(), oracle(data, q, *h));
                    }
                });
            }
        });
        let m = serve.metrics();
        assert_eq!(m.selects, 64);
        assert_eq!(m.cache_hits + m.cache_misses, 64);
    }
}
