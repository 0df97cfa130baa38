//! Allocation regression pins for MIH and the planned build — no timing
//! involved.
//!
//! An MIH select must cost O(probes + candidates): after one warm-up
//! query has sized the thread's seen-set, a search allocates its answer
//! and nothing proportional to the row count `n`, and routing
//! (`PlannedIndex::backend_for`, run on every routed query) allocates
//! nothing at all. An MIH build allocates per chunk, never per bucket,
//! and a planned build whose flat layout cannot win allocates only that
//! and the rank sort: the HA-Index waits until something asks for it. A
//! planned build whose flat layout can win holds, at its peak, what it
//! keeps plus H-Build's compact build forest, never the arena, and keeps
//! no chunk directories: its first MIH search builds them, per chunk. A
//! counting `#[global_allocator]` measures the bytes and the allocations
//! requested on the calling thread, and the bytes live on it (freed
//! bytes subtracted) with their peak; the per-thread tally keeps the
//! parallel test harness out of the numbers. A planned build also runs on
//! a helper thread it spawns, so its pins also count the threads no test
//! runs on: every test marks its own thread first ([`test_thread`]).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::planner::PlannedIndex;
use hamming_suite::index::testkit::{clustered_dataset, random_dataset, random_within};
use hamming_suite::index::{
    Backend, DynamicHaIndex, HammingIndex, MihIndex, SegmentIndex, SegmentScheme,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
    /// Bytes allocated minus bytes freed on this thread (negative once it
    /// frees what another thread allocated).
    static LIVE: Cell<isize> = const { Cell::new(0) };
    /// The highest [`LIVE`] reached since [`peak_live_by`] reset it.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    static TEST_THREAD: Cell<bool> = const { Cell::new(false) };
}

/// Whether [`OTHER_THREADS`] is counting.
static COUNT_OTHERS: AtomicBool = AtomicBool::new(false);
/// Bytes requested on threads no test runs on while [`COUNT_OTHERS`] is on.
static OTHER_THREADS: AtomicUsize = AtomicUsize::new(0);

fn tally(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
    if COUNT_OTHERS.load(Ordering::Relaxed) && !TEST_THREAD.try_with(Cell::get).unwrap_or(true) {
        OTHER_THREADS.fetch_add(bytes, Ordering::Relaxed);
    }
}

/// Moves this thread's live byte count by `delta` and raises its peak.
fn live(delta: isize) {
    let _ = LIVE.try_with(|live| {
        let now = live.get() + delta;
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
    });
}

/// Marks the calling thread as one a test runs on, so that its
/// allocations stay out of [`allocated_by_every_thread`]'s count of the
/// threads a build spawns. Every test calls it first.
fn test_thread() {
    TEST_THREAD.with(|t| t.set(true));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is thread-local byte, call and live-byte tallies and a global byte
// counter (const-initialised, no destructor, so touching them never
// allocates or re-enters the allocator).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        live(layout.size() as isize);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        live(-(layout.size() as isize));
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
        live(new_size as isize - layout.size() as isize);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Bytes this thread requested from the allocator while `f` ran.
fn allocated_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATED.with(Cell::get);
    let r = f();
    (ALLOCATED.with(Cell::get) - before, r)
}

/// Bytes requested while `f` ran on this thread, and on the threads no
/// test runs on: the helper threads `f` spawned (and the test harness's
/// main thread, which only reports finished tests).
fn allocated_by_every_thread<R>(f: impl FnOnce() -> R) -> (usize, usize, R) {
    OTHER_THREADS.store(0, Ordering::Relaxed);
    COUNT_OTHERS.store(true, Ordering::Relaxed);
    let (own, r) = allocated_by(f);
    COUNT_OTHERS.store(false, Ordering::Relaxed);
    (own, OTHER_THREADS.load(Ordering::Relaxed), r)
}

/// The most bytes live on this thread while `f` ran, above what was live
/// when it started.
fn peak_live_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let start = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(start));
    let r = f();
    (PEAK.with(Cell::get).abs_diff(start), r)
}

/// Allocation and reallocation calls this thread made while `f` ran.
fn allocations_by<R>(f: impl FnOnce() -> R) -> (usize, R) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (ALLOCATIONS.with(Cell::get) - before, r)
}

const N: usize = 200_000;
const H: u32 = 3;

fn queries(data: &[(BinaryCode, u64)]) -> Vec<BinaryCode> {
    let mut rng = StdRng::seed_from_u64(5);
    data.iter()
        .step_by(data.len() / 16)
        .map(|(c, _)| random_within(c, H, &mut rng))
        .collect()
}

#[test]
fn mih_search_allocates_nothing_proportional_to_n() {
    test_thread();
    let data = random_dataset(N, 64, 17);
    let queries = queries(&data);
    let mih = MihIndex::build(64, data.clone());
    assert!(!mih.would_scan(H), "the pin is about the probe path");
    let warm = mih.search(&queries[0], H);
    assert!(!warm.is_empty());
    for q in &queries {
        let (bytes, hits) = allocated_by(|| mih.search(q, H));
        assert!(!hits.is_empty());
        assert!(
            bytes < N / 8,
            "MihIndex::search allocated {bytes} bytes at n = {N}"
        );
        let (bytes, _) = allocated_by(|| mih.search_with_distances(q, H));
        assert!(
            bytes < N / 8,
            "search_with_distances allocated {bytes} bytes at n = {N}"
        );
    }

    let planned = PlannedIndex::build(64, data);
    assert_eq!(
        planned.backend_for(H),
        Backend::Mih,
        "sparse 64-bit data routes to MIH"
    );
    planned.search(&queries[0], H);
    for q in &queries {
        let (bytes, (backend, hits)) = allocated_by(|| planned.search_routed(q, H));
        assert_eq!(backend, Backend::Mih);
        assert!(!hits.is_empty());
        assert!(
            bytes < N / 8,
            "PlannedIndex::search allocated {bytes} bytes at n = {N}"
        );
    }
    for h in [0, H, 9, 40] {
        let (bytes, _) = allocated_by(|| planned.backend_for(h));
        assert_eq!(bytes, 0, "backend_for({h}) must not allocate");
    }
}

/// A build is one counting sort per chunk: at n = 200 000 (four 16-bit
/// chunks, ~63k distinct values each) it makes a few allocations per
/// chunk, where one heap bucket per distinct value would make ~250k.
#[test]
fn mih_build_allocates_per_chunk_not_per_bucket() {
    test_thread();
    let data = random_dataset(N, 64, 23);
    let (allocations, mih) = allocations_by(|| MihIndex::build(64, data));
    assert_eq!(mih.len(), N);
    assert!(
        allocations <= 4 * mih.chunks() + 8,
        "MihIndex::build made {allocations} allocations for {} chunks",
        mih.chunks()
    );
}

/// On 200 000 random 64-bit codes no threshold routes to the flat layout,
/// so a planned build allocates the MIH build's bytes plus H-Build's rank
/// sort (one `(u64, u32)` pair per row) and a small constant: no
/// HA-Index, no snapshot. An eager H-Build and freeze on top allocate
/// ~155 MB, 17× the MIH's 9 MB. The count covers every thread the build
/// uses, and the helper that sorts beside the MIH allocates nothing: the
/// caller sizes its buffer, since glibc would keep what the helper
/// allocated in the helper's own malloc arena.
#[test]
fn a_build_the_flat_layout_cannot_win_allocates_no_ha_index() {
    test_thread();
    let data = random_dataset(N, 64, 29);
    let copy = data.clone();
    let (mih_bytes, mih) = allocated_by(|| MihIndex::build(64, copy));
    let (own, helpers, planned) = allocated_by_every_thread(|| PlannedIndex::build(64, data));
    let bytes = own + helpers;
    let rank_sort = N * std::mem::size_of::<(u64, u32)>();
    assert!(
        bytes <= mih_bytes + rank_sort + 64 * 1024,
        "PlannedIndex::build allocated {bytes} bytes: MIH {mih_bytes} + rank sort {rank_sort}"
    );
    // The harness's main thread may report a finished test meanwhile.
    assert!(
        helpers <= 16 * 1024,
        "the build's helper thread allocated {helpers} bytes: it must fill the buffer the caller sized"
    );
    assert!(!planned.flat_can_win(0), "a deferred build");
    assert_eq!(planned.memory_bytes(), mih.memory_bytes());
}

/// Bytes a build forest spends per node beside its `2 · words` pattern
/// words, with the compile's BFS queue: sibling links, child ends, leaf
/// runs and the room taken ahead for parents the levels did not make.
const FOREST_NODE_BYTES: usize = 24;

/// On `select_dense`-shaped data (512-bit codes, a few centres, 4 flips)
/// the flat layout wins, so a planned build makes its snapshot — from a
/// build forest over the MIH's rows, not from the arena. Its peak live
/// bytes stay within what the index keeps (the MIH and the snapshot —
/// all `memory_bytes` counts), the forest, the rank sort (16 B a row) and
/// a small constant. The arena the build used to hold costs ≈540 B a leaf on these
/// codes, more than the forest and the rank sort together. The helper
/// thread allocates nothing (pinned above), so the calling thread's count
/// is the build's.
#[test]
fn a_flat_routed_build_never_holds_the_arena() {
    test_thread();
    const N: usize = 20_000;
    const BITS: usize = 512;
    let data = clustered_dataset(N, BITS, 12, 4, 31);
    let mut arena = DynamicHaIndex::build(data.clone());
    let snapshot = arena.freeze();
    let (nodes, snapshot) = (snapshot.node_count(), snapshot.memory_bytes());
    drop(arena);
    let (peak, planned) = peak_live_by(|| PlannedIndex::build(BITS, data));
    assert_eq!(planned.backend_for(6), Backend::HaFlat, "the pin is about a flat-routed build");
    let kept = planned.mih().memory_bytes() + snapshot;
    assert_eq!(planned.memory_bytes(), kept, "memory_bytes counts the MIH and the snapshot");
    let forest = nodes * (2 * BITS / 64 * 8 + FOREST_NODE_BYTES);
    let rank_sort = N * std::mem::size_of::<(u64, u32)>();
    assert!(
        peak <= kept + forest + rank_sort + 64 * 1024,
        "a flat-routed PlannedIndex::build peaked at {peak} live bytes: kept {kept} + forest \
         {forest} + rank sort {rank_sort}"
    );
}

/// A flat-routed planned build keeps no chunk directories, so its first
/// MIH search builds them: a few allocations per chunk (36 chunks of
/// ~14 bits here), where one heap bucket per distinct value would make
/// thousands. The MIH searches after it allocate only their answers, which
/// grow by doubling.
#[test]
fn an_on_demand_directory_build_allocates_per_chunk_not_per_bucket() {
    test_thread();
    const N: usize = 20_000;
    const BITS: usize = 512;
    const H: u32 = 6;
    let data = clustered_dataset(N, BITS, 12, 4, 37);
    let queries = queries(&data);
    let planned = PlannedIndex::build(BITS, data);
    assert_eq!(planned.backend_for(H), Backend::HaFlat, "the pin is about a flat-routed build");
    assert!(!planned.mih().would_scan(H), "the pin is about the probe path");
    let rows_and_ids = planned.mih().memory_bytes();
    let chunks = planned.mih().chunks();
    let (allocations, first) =
        allocations_by(|| planned.search_with_backend(Backend::Mih, &queries[0], H));
    assert!(first.is_some_and(|hits| !hits.is_empty()));
    assert!(planned.mih().memory_bytes() > rows_and_ids, "the search built the directories");
    assert!(
        allocations <= 4 * chunks + 8,
        "the on-demand build made {allocations} allocations for {chunks} chunks"
    );
    for q in &queries {
        let (bytes, hits) = allocated_by(|| planned.search_with_backend(Backend::Mih, q, H));
        let hits = hits.unwrap_or_default();
        assert!(!hits.is_empty());
        let answer = hits.capacity() * std::mem::size_of::<u64>();
        assert!(bytes <= 2 * answer, "an MIH search allocated {bytes} bytes for a {answer}-byte answer");
    }
}

/// The three paper baselines share the same seen-set helper.
#[test]
fn baseline_searches_allocate_nothing_proportional_to_n() {
    test_thread();
    // HmSearch links every row under 33 signatures per 32-bit segment, so
    // at the suite's n the debug-build inserts alone take tens of seconds:
    // this pin runs at a smaller n, with a proportionally smaller allowance.
    const N: usize = 30_000;
    let data = random_dataset(N, 64, 19);
    let queries = queries(&data);
    let indexes = [
        (SegmentScheme::Manku, 4),
        (SegmentScheme::HEngine, 2),
        (SegmentScheme::HmSearch, 2),
    ]
    .map(|(scheme, t)| SegmentIndex::build(scheme, 64, t, data.clone()));
    for idx in &indexes {
        idx.search(&queries[0], H);
        for q in &queries {
            let (bytes, hits) = allocated_by(|| idx.search(q, H));
            assert!(!hits.is_empty());
            assert!(
                bytes < N / 8,
                "{}::search allocated {bytes} bytes at n = {N}",
                idx.name()
            );
        }
    }
}
