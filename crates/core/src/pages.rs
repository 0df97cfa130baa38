//! Transparent huge pages for the frozen snapshot's large arrays.
//!
//! A flat H-Search reads the snapshot's pattern planes and leaf code rows
//! at random: 42 MB of them on 200 000 × 512-bit codes. Over 4 KiB pages
//! its speed moved with where the build's page faults happened to land: a
//! snapshot compiled right after the MIH searched ~8 % slower than the
//! same bytes compiled after 200 MB of other faults (EXPERIMENTS.md
//! "Bulk-load to frozen"). Backing those arrays with 2 MiB pages took the
//! difference away. Where the kernel declines the advice (transparent
//! huge pages off, another platform) nothing changes; no byte and no
//! answer ever depends on it.
//!
//! The advice is one glibc call, `madvise`, declared directly like
//! `overlap.rs`'s affinity calls (no `libc` crate is vendored; `std`
//! already links the C library). It reads no memory and frees none, and
//! its failure only leaves the pages as they were.

/// Asks the kernel to back every whole 2 MiB page inside `v`'s allocation
/// with a transparent huge page. Call it before writing to `v`: a page
/// already faulted in stays as it is.
pub(crate) fn advise_huge<T>(v: &Vec<T>) {
    #[cfg(target_os = "linux")]
    {
        use core::ffi::{c_int, c_void};

        const HUGE_PAGE: usize = 2 << 20;
        const MADV_HUGEPAGE: c_int = 14;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }

        let start = v.as_ptr() as usize;
        let end = start + v.capacity() * std::mem::size_of::<T>();
        let (lo, hi) = (start.next_multiple_of(HUGE_PAGE), end / HUGE_PAGE * HUGE_PAGE);
        if lo < hi {
            // SAFETY: `[lo, hi)` lies inside `v`'s live allocation, and
            // MADV_HUGEPAGE changes only how the kernel backs those pages,
            // never their contents or the mapping's permissions; an error
            // return is ignored (the pages stay small).
            unsafe { madvise(lo as *mut c_void, hi - lo, MADV_HUGEPAGE) };
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = v;
}
