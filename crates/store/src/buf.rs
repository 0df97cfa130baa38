//! The snapshot's backing memory — and the crate's **only** `unsafe`
//! region, kept in one module so the invariants can be audited in one
//! place (see `tests/panic_audit.rs`, which holds this crate to a zero
//! panic budget on top).
//!
//! # Safety argument
//!
//! Three `unsafe` operations live here; everything else in the crate is
//! safe code over the slices they hand out.
//!
//! 1. **`mmap`/`munmap` FFI** ([`Mapping`]). The mapping is created
//!    `PROT_READ | MAP_PRIVATE` over a whole regular file, so the kernel
//!    guarantees the pages are readable, never written through, and
//!    private to this process. The pointer is checked against
//!    `MAP_FAILED` before use; `len > 0` is checked before the call
//!    (mapping zero bytes is EINVAL). The mapping is unmapped exactly
//!    once, in `Drop`. `Mapping` is `Send + Sync` because the memory is
//!    immutable for the mapping's lifetime — the store is opened
//!    read-only and nothing mutates through it. The one hazard `mmap`
//!    cannot rule out is the *file* being truncated by another process
//!    while mapped (SIGBUS on touch); snapshot files are immutable once
//!    published (`write_store_file` writes → renames, never rewrites in
//!    place), which is the same contract every mmap-based store
//!    (LMDB, LevelDB tables) relies on.
//! 2. **`&[u64]` → `&[u8]` view** ([`OwnedBytes::as_bytes`]). Widening
//!    alignment (8 → 1) over memory we own; `len <= words.len() * 8` is
//!    upheld at construction.
//! 3. **`&[u8]` → `&[u32]` / `&[u64]` reinterpretation** ([`cast_u32s`],
//!    [`cast_u64s`]). Only performed after checking pointer alignment
//!    and exact length divisibility at runtime — the functions return
//!    `None` instead of casting when either fails. The byte source is
//!    either a page-aligned mapping or an 8-byte-aligned owned buffer,
//!    and section offsets are validated 64-byte-aligned at open, so in
//!    practice the checks never fire. Reinterpreting little-endian file
//!    bytes as native integers is only meaningful on little-endian
//!    targets; [`native_is_little_endian`] gates the open path.

/// True when the zero-copy reinterpretation of the (always
/// little-endian) file payload is valid on this target.
pub(crate) const fn native_is_little_endian() -> bool {
    cfg!(target_endian = "little")
}

/// Reinterprets `bytes` as a `u32` slice, if aligned and exact.
pub(crate) fn cast_u32s(bytes: &[u8]) -> Option<&[u32]> {
    if bytes.as_ptr().align_offset(std::mem::align_of::<u32>()) != 0 || !bytes.len().is_multiple_of(4) {
        return None;
    }
    // SAFETY: pointer alignment and length divisibility checked above;
    // the lifetime is inherited from `bytes`; u32 has no invalid bit
    // patterns. See the module-level safety argument, item 3.
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u32>(), bytes.len() / 4) })
}

/// Reinterprets `bytes` as a `u64` slice, if aligned and exact.
pub(crate) fn cast_u64s(bytes: &[u8]) -> Option<&[u64]> {
    if bytes.as_ptr().align_offset(std::mem::align_of::<u64>()) != 0 || !bytes.len().is_multiple_of(8) {
        return None;
    }
    // SAFETY: as in `cast_u32s` (module safety argument, item 3).
    Some(unsafe { std::slice::from_raw_parts(bytes.as_ptr().cast::<u64>(), bytes.len() / 8) })
}

/// Owned, 8-byte-aligned copy of a snapshot — the fallback when the OS
/// mapping is unavailable (non-unix targets, `mmap` failure) or when the
/// snapshot arrives as bytes rather than a file (DFS blobs).
pub(crate) struct OwnedBytes {
    words: Box<[u64]>,
    len: usize,
}

impl OwnedBytes {
    /// Copies `bytes` into fresh 8-aligned storage.
    pub(crate) fn from_vec(bytes: Vec<u8>) -> OwnedBytes {
        let len = bytes.len();
        let mut words = vec![0u64; len.div_ceil(8)].into_boxed_slice();
        // SAFETY: widening a `&mut [u64]` to its underlying bytes
        // (alignment 8 → 1) over storage we own; `words` spans at least
        // `len` bytes by construction. Module safety argument, item 2.
        let dst = unsafe {
            std::slice::from_raw_parts_mut(words.as_mut_ptr().cast::<u8>(), words.len() * 8)
        };
        dst[..len].copy_from_slice(&bytes);
        OwnedBytes { words, len }
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        // SAFETY: module safety argument, item 2.
        unsafe { std::slice::from_raw_parts(self.words.as_ptr().cast::<u8>(), self.len) }
    }
}

/// A read-only OS file mapping (unix only).
#[cfg(unix)]
pub(crate) struct Mapping {
    ptr: *mut core::ffi::c_void,
    len: usize,
}

#[cfg(unix)]
mod sys {
    //! Minimal libc surface, declared directly: the build environment
    //! vendors no `libc` crate, and `std` already links the platform C
    //! library these symbols live in.
    use core::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_PRIVATE: c_int = 2;

    extern "C" {
        pub(super) fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub(super) fn munmap(addr: *mut c_void, len: usize) -> c_int;
    }
}

#[cfg(unix)]
impl Mapping {
    /// Maps the whole of `file` read-only. Returns `None` when the file
    /// is empty or the kernel refuses the mapping — callers fall back to
    /// an owned read.
    pub(crate) fn of_file(file: &std::fs::File) -> Option<Mapping> {
        use std::os::fd::AsRawFd;
        let len = usize::try_from(file.metadata().ok()?.len()).ok()?;
        if len == 0 {
            return None;
        }
        // SAFETY: module safety argument, item 1 — read-only private
        // mapping of a regular file, result checked against MAP_FAILED.
        let ptr = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd(),
                0,
            )
        };
        if ptr as usize == usize::MAX {
            return None;
        }
        Some(Mapping { ptr, len })
    }

    pub(crate) fn as_bytes(&self) -> &[u8] {
        // SAFETY: the mapping covers `len` readable bytes for as long as
        // it lives (module safety argument, item 1).
        unsafe { std::slice::from_raw_parts(self.ptr.cast::<u8>(), self.len) }
    }
}

// SAFETY: the mapping is read-only and immutable for its lifetime —
// shared references to it are as safe as to any `&[u8]`.
#[cfg(unix)]
unsafe impl Send for Mapping {}
#[cfg(unix)]
unsafe impl Sync for Mapping {}

#[cfg(unix)]
impl Drop for Mapping {
    fn drop(&mut self) {
        // SAFETY: `ptr`/`len` are exactly what mmap returned; unmapped
        // once (module safety argument, item 1).
        unsafe {
            sys::munmap(self.ptr, self.len);
        }
    }
}

/// Backing memory of an open snapshot: a zero-copy OS mapping when
/// available, an owned aligned copy otherwise. Both expose the same
/// borrowed byte view.
pub(crate) enum StoreBuf {
    #[cfg(unix)]
    Mapped(Mapping),
    Owned(OwnedBytes),
}

impl StoreBuf {
    pub(crate) fn as_bytes(&self) -> &[u8] {
        match self {
            #[cfg(unix)]
            StoreBuf::Mapped(m) => m.as_bytes(),
            StoreBuf::Owned(o) => o.as_bytes(),
        }
    }

    /// True when this snapshot is served straight off the page cache.
    pub(crate) fn is_mapped(&self) -> bool {
        match self {
            #[cfg(unix)]
            StoreBuf::Mapped(_) => true,
            StoreBuf::Owned(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn owned_round_trips_and_is_aligned() {
        for n in [0usize, 1, 7, 8, 9, 63, 64, 65] {
            let src: Vec<u8> = (0..n as u32).map(|i| (i * 7) as u8).collect();
            let owned = OwnedBytes::from_vec(src.clone());
            assert_eq!(owned.as_bytes(), &src[..]);
            assert_eq!(owned.as_bytes().as_ptr().align_offset(8), 0);
        }
    }

    #[test]
    fn casts_check_alignment_and_length() {
        let owned = OwnedBytes::from_vec(vec![0u8; 64]);
        let b = owned.as_bytes();
        assert_eq!(cast_u32s(b).map(<[u32]>::len), Some(16));
        assert_eq!(cast_u64s(b).map(<[u64]>::len), Some(8));
        assert!(cast_u32s(&b[..63]).is_none(), "ragged length");
        assert!(cast_u64s(&b[1..]).is_none(), "misaligned base");
        let le = cast_u64s(&b[..8]);
        assert_eq!(le, Some(&[0u64][..]));
    }

    #[cfg(unix)]
    #[test]
    fn mapping_reads_whole_file() {
        let path = std::env::temp_dir().join(format!("ha-store-map-{}", std::process::id()));
        let payload: Vec<u8> = (0..5000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &payload).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        let map = Mapping::of_file(&file).expect("mmap of a regular file");
        assert_eq!(map.as_bytes(), &payload[..]);
        drop(map);
        std::fs::remove_file(&path).ok();
    }
}
