//! Two independent phases of a build on two cores: [`join`] runs one on
//! the calling thread and the other on one scoped helper thread.
//!
//! Where the helper runs decides whether the overlap pays. A kernel may
//! start a new thread on its parent's CPU and rebalance only lazily: on
//! the 2-core reference host a helper started that way shared the
//! caller's core for the whole build while the other core sat idle, and
//! the overlap read no faster than running the phases in turn. So on
//! Linux the helper first narrows its own CPU affinity to every CPU it
//! may use except the one the caller was running on, when there is one.
//! The affinity dies with the helper; the caller's is never touched.
//!
//! The placement is one of the crate's two `unsafe` sites (the other is
//! `pages.rs`'s huge-page advice): two glibc calls, `sched_getcpu` and
//! `sched_{get,set}affinity`, declared directly (no `libc` crate is
//! vendored; `std` already links the C library). Their failure only
//! leaves the helper where the kernel put it.

/// Runs `here` on the calling thread and `beside` on one scoped helper
/// thread at the same time, and returns both results once both are done.
/// A panic on the helper is re-raised on the caller, with its payload,
/// after `here` returns; a panic in `here` propagates once the helper is
/// joined.
pub(crate) fn join<A, B>(here: impl FnOnce() -> A, beside: impl FnOnce() -> B + Send) -> (A, B)
where
    B: Send,
{
    let origin = cpu::current();
    std::thread::scope(|scope| {
        let helper = scope.spawn(move || {
            cpu::leave(origin);
            beside()
        });
        let a = here();
        match helper.join() {
            Ok(b) => (a, b),
            Err(panic) => std::panic::resume_unwind(panic),
        }
    })
}

#[cfg(target_os = "linux")]
mod cpu {
    use core::ffi::c_int;

    /// glibc's `cpu_set_t`: a mask of 1 024 CPUs.
    type CpuSet = [u64; 16];

    extern "C" {
        fn sched_getcpu() -> c_int;
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    /// The CPU the calling thread is running on, if the kernel says.
    pub(super) fn current() -> Option<usize> {
        // SAFETY: takes no arguments and returns -1 on failure.
        usize::try_from(unsafe { sched_getcpu() }).ok()
    }

    /// Lets the calling thread run on every CPU it may use except `cpu`,
    /// when that leaves at least one; otherwise changes nothing.
    pub(super) fn leave(cpu: Option<usize>) {
        let Some(cpu) = cpu.filter(|&c| c < 64 * 16) else { return };
        let mut set: CpuSet = [0; 16];
        let size = std::mem::size_of::<CpuSet>();
        // SAFETY: `set` is a writable mask of exactly `size` bytes; pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
            return;
        }
        set[cpu / 64] &= !(1u64 << (cpu % 64));
        if set.iter().any(|&w| w != 0) {
            // SAFETY: `set` is a readable mask of exactly `size` bytes,
            // naming only CPUs the thread was already allowed; a refusal
            // leaves the thread's affinity as it was.
            unsafe { sched_setaffinity(0, size, &set) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod cpu {
    pub(super) fn current() -> Option<usize> {
        None
    }

    pub(super) fn leave(_cpu: Option<usize>) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn returns_both_results_and_runs_beside_on_another_thread() {
        let caller = std::thread::current().id();
        let data: Vec<u64> = (0..1000).collect();
        let (sum, (odd, helper)) = join(
            || data.iter().sum::<u64>(),
            || (data.iter().filter(|&&v| v % 2 == 1).count(), std::thread::current().id()),
        );
        assert_eq!((sum, odd), (499_500, 500));
        assert_ne!(helper, caller);
    }

    #[test]
    fn a_helper_panic_reaches_the_caller_with_its_payload() {
        let caught = std::panic::catch_unwind(|| join(|| 1, || -> u32 { panic!("beside failed") }));
        let payload = caught.expect_err("the helper's panic is re-raised");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"beside failed"));
    }

    #[test]
    fn a_caller_panic_propagates_after_the_helper_is_joined() {
        let caught = std::panic::catch_unwind(|| join(|| -> u32 { panic!("here failed") }, || 2));
        assert!(caught.is_err());
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn leaving_a_cpu_moves_the_thread_when_another_is_allowed() {
        std::thread::spawn(|| {
            let Some(start) = cpu::current() else { return };
            let allowed = std::thread::available_parallelism().map_or(1, |n| n.get());
            cpu::leave(Some(start));
            if allowed > 1 {
                assert_ne!(cpu::current(), Some(start), "still on CPU {start}");
            }
        })
        .join()
        .expect("the probe thread");
    }
}
