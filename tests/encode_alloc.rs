//! Allocation pin for the encoders — no timing involved.
//!
//! Every map task of the distributed join hashes each of its tuples, so
//! `SpectralHasher::hash` and `SimHasher::hash` must not touch the heap:
//! the projection kernel folds its blocks into stack state, and the only
//! bytes a call may request are the returned code's own words (codes
//! wider than `INLINE_BITS` keep them on the heap). This holds for every
//! dimension and code length, including many blocks of directions and
//! more bits than directions. A counting `#[global_allocator]` measures
//! the bytes requested on the calling thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use hamming_suite::bitcode::{BinaryCode, INLINE_BITS};
use hamming_suite::hashing::{SimHasher, SimilarityHasher, SpectralHasher};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Counting;

thread_local! {
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded unchanged to `System`; the only addition
// is a thread-local byte tally (const-initialised, no destructor, so
// touching it never allocates or re-enters the allocator).
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + layout.size()));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATED.try_with(|a| a.set(a.get() + new_size));
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

fn vectors(n: usize, dim: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dim).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect()
}

/// Hashes every vector and checks each call requested exactly its
/// code's heap words — none at all up to `INLINE_BITS` bits.
fn assert_hash_allocates_only_its_code(hasher: &dyn SimilarityHasher, data: &[Vec<f64>]) {
    hasher.hash(&data[0]); // one-time set-up (the kernel's CPU probe)
    for v in data {
        let (bytes, code): (usize, BinaryCode) = allocated_by(|| hasher.hash(v));
        assert_eq!(
            bytes,
            code.heap_bytes(),
            "d = {}, L = {}: hash allocated beyond its code",
            hasher.dim(),
            hasher.code_len()
        );
        if hasher.code_len() <= INLINE_BITS {
            assert_eq!(bytes, 0);
        }
    }
}

#[test]
fn spectral_hash_allocates_nothing_but_its_code() {
    // (dim, code_len, max_pca): the join's shape, one direction, several
    // blocks of directions, more bits than directions, a heap code.
    for (dim, code_len, max_pca) in [
        (64, 32, 32),
        (1, 8, 8),
        (48, 64, 40),
        (6, 100, 6),
        (200, 130, 4),
    ] {
        let data = vectors(60, dim, dim as u64);
        let hasher = SpectralHasher::fit_vectors(&data, code_len, max_pca);
        assert_hash_allocates_only_its_code(&hasher, &data);
    }
}

#[test]
fn simhash_allocates_nothing_but_its_code() {
    for (dim, code_len) in [(8, 64), (1, 1), (600, 130), (33, 1024)] {
        let hasher = SimHasher::new(code_len, dim, 7);
        assert_hash_allocates_only_its_code(&hasher, &vectors(20, dim, 3));
    }
}
