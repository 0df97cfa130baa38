//! Allocation regression pins for MIH — no timing involved.
//!
//! An MIH select must cost O(probes + candidates): after one warm-up
//! query has sized the thread's seen-set, a search allocates its answer
//! and nothing proportional to the row count `n`, and routing
//! (`PlannedIndex::backend_for`, run on every routed query) allocates
//! nothing at all. An MIH build allocates per chunk, never per bucket. A
//! counting `#[global_allocator]` measures the bytes and the allocations
//! requested on the calling thread; the per-thread tally keeps the
//! parallel test harness out of the numbers.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hamming_suite::bitcode::BinaryCode;
use hamming_suite::index::planner::PlannedIndex;
use hamming_suite::index::testkit::{random_dataset, random_within};
use hamming_suite::index::{Backend, HammingIndex, MihIndex, SegmentIndex, SegmentScheme};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

fn tally(bytes: usize) {
    let _ = ALLOCATED.try_with(|a| a.set(a.get() + bytes));
    let _ = ALLOCATIONS.try_with(|a| a.set(a.get() + 1));
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local byte and call tally (const-initialised, no destructor,
// so touching it never allocates or re-enters the allocator).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        tally(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        tally(new_size);
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
    let data = random_dataset(N, 64, 23);
    let (allocations, mih) = allocations_by(|| MihIndex::build(64, data));
    assert_eq!(mih.len(), N);
    assert!(
        allocations <= 4 * mih.chunks() + 8,
        "MihIndex::build made {allocations} allocations for {} chunks",
        mih.chunks()
    );
}

/// The three paper baselines share the same seen-set helper.
#[test]
fn baseline_searches_allocate_nothing_proportional_to_n() {
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
