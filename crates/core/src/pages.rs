//! Transparent huge pages for the frozen snapshot's large arrays.
//!
//! A flat H-Search reads the snapshot's pattern planes and leaf code rows
//! at random: 16.5 MB of them on 200 000 × 512-bit codes (42 MB while
//! leaves still carried patterns). Over 4 KiB pages its speed moved with
//! where the build's page faults happened to land: a snapshot compiled
//! right after the MIH searched ~8 % slower than the same bytes compiled
//! after 200 MB of other faults (EXPERIMENTS.md "Bulk-load to frozen").
//! Backing those arrays with 2 MiB pages took the difference away. Where
//! the kernel declines the advice (transparent huge pages off, another
//! platform) nothing changes; no byte and no answer ever depends on it.
//! With tracing on, a refusal counts as `core.pages.advise_refused`.
//!
//! The advice is one glibc call, `madvise`, declared directly like
//! `overlap.rs`'s affinity calls (no `libc` crate is vendored; `std`
//! already links the C library). It reads no memory and frees none, and
//! its failure only leaves the pages as they were.

/// Bytes in one transparent huge page.
const HUGE_PAGE: usize = 2 << 20;

/// The whole huge pages inside the `len` bytes at address `start`, as
/// their first address and their length in bytes, or `None` when the
/// range holds no whole huge page.
fn huge_interior(start: usize, len: usize) -> Option<(usize, usize)> {
    let lo = start.checked_next_multiple_of(HUGE_PAGE)?;
    let hi = start.checked_add(len)? / HUGE_PAGE * HUGE_PAGE;
    (lo < hi).then(|| (lo, hi - lo))
}

/// Asks the kernel to back every whole 2 MiB page inside `v`'s allocation
/// with a transparent huge page. Call it before writing to `v`: a page
/// already faulted in stays as it is.
pub(crate) fn advise_huge<T>(v: &Vec<T>) {
    let Some((lo, len)) = huge_interior(v.as_ptr() as usize, v.capacity() * size_of::<T>()) else {
        return;
    };
    #[cfg(target_os = "linux")]
    {
        use core::ffi::{c_int, c_void};

        const MADV_HUGEPAGE: c_int = 14;
        extern "C" {
            fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
        }

        // SAFETY: `[lo, lo + len)` lies inside `v`'s live allocation
        // (`huge_interior` only shrinks the range), and MADV_HUGEPAGE
        // changes only how the kernel backs those pages, never their
        // contents or the mapping's permissions.
        if unsafe { madvise(lo as *mut c_void, len, MADV_HUGEPAGE) } != 0 {
            ha_obs::add("core.pages.advise_refused", 1);
        }
    }
    #[cfg(not(target_os = "linux"))]
    let _ = (lo, len);
}

#[cfg(test)]
mod tests {
    use super::{huge_interior, HUGE_PAGE};

    #[test]
    fn an_allocation_under_one_huge_page_is_left_alone() {
        assert_eq!(huge_interior(0, HUGE_PAGE - 1), None);
        assert_eq!(huge_interior(HUGE_PAGE, HUGE_PAGE - 1), None);
        assert_eq!(huge_interior(4096, HUGE_PAGE), None);
        assert_eq!(huge_interior(HUGE_PAGE, 0), None);
    }

    #[test]
    fn an_unaligned_start_rounds_in_on_both_sides() {
        let start = HUGE_PAGE + 4096;
        assert_eq!(huge_interior(start, 3 * HUGE_PAGE), Some((2 * HUGE_PAGE, 2 * HUGE_PAGE)));
        assert_eq!(huge_interior(start, 2 * HUGE_PAGE), Some((2 * HUGE_PAGE, HUGE_PAGE)));
        assert_eq!(huge_interior(start, 2 * HUGE_PAGE - 8192), None);
    }

    #[test]
    fn an_exact_multiple_is_advised_whole() {
        assert_eq!(huge_interior(2 * HUGE_PAGE, 3 * HUGE_PAGE), Some((2 * HUGE_PAGE, 3 * HUGE_PAGE)));
        assert_eq!(huge_interior(usize::MAX - 1, 2), None, "no overflow at the top");
    }
}
