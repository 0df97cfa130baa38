//! `HaStore` — an open snapshot: validated once, searched zero-copy.
//!
//! Opening runs three gates in order, each with a typed failure:
//!
//! 1. [`layout::parse`] — envelope integrity: magic, version,
//!    endianness tag, the FNV-1a footer over the whole body, and a
//!    section table whose entries are aligned, ordered, in-bounds and
//!    exactly sized for the declared counts.
//! 2. Zero-copy casts of each section to its element type — guaranteed
//!    to succeed by the 64-byte section alignment the parse just
//!    checked, but still verified, never assumed.
//! 3. [`FlatStoreView::new`] — structural validation of the array
//!    *contents* (CSR shape, termination invariant, bounds, sort
//!    order, and the path invariant the leaf row sweep trusts), over
//!    parts carrying the all-leaf suffix bound derived here.
//!
//! After the three gates pass, every search is infallible: the store
//! re-derives its borrowed [`FlatStoreView`] on demand straight over
//! the backing bytes, with no decode step and no allocation
//! proportional to index size. Cold-start cost is the checksum scan —
//! one sequential pass — instead of the legacy decode path's
//! parse + per-node allocation + invariant walk + H-Build.

use crate::buf::{self, StoreBuf};
use crate::error::StoreError;
use crate::layout::{self, section, SectionRanges, StoreMeta};
use crate::view::{leaf_suffix_start, FlatParts, FlatStoreView};

/// An open, validated HA-Store snapshot (see module docs).
pub struct HaStore {
    buf: StoreBuf,
    meta: StoreMeta,
    sections: SectionRanges,
    /// [`FlatParts::leaf_suffix`], derived at open: the file does not
    /// store it.
    leaf_suffix: usize,
}

/// Runs gates 1–3 over `bytes` and returns the parsed envelope and the
/// all-leaf suffix bound.
fn validate(bytes: &[u8]) -> Result<(StoreMeta, SectionRanges, usize), StoreError> {
    if !buf::native_is_little_endian() {
        return Err(StoreError::UnsupportedPlatform(
            "zero-copy open requires a little-endian host",
        ));
    }
    let (meta, sections) = layout::parse(bytes)?;
    let mut parts = parts_of(bytes, &meta, &sections, 0)?;
    parts.leaf_suffix = leaf_suffix_start(parts.leaf_slot);
    FlatStoreView::new(parts)?;
    Ok((meta, sections, parts.leaf_suffix))
}

/// Casts the table-addressed sections of `bytes` to typed slices.
fn parts_of<'a>(
    bytes: &'a [u8],
    meta: &StoreMeta,
    sections: &SectionRanges,
    leaf_suffix: usize,
) -> Result<FlatParts<'a>, StoreError> {
    let u32s = |i: usize| {
        buf::cast_u32s(&bytes[sections[i].clone()])
            .ok_or(StoreError::Corrupt("section not u32-addressable"))
    };
    let u64s = |i: usize| {
        buf::cast_u64s(&bytes[sections[i].clone()])
            .ok_or(StoreError::Corrupt("section not u64-addressable"))
    };
    Ok(FlatParts {
        code_len: meta.code_len,
        words: meta.words,
        root_count: meta.root_count,
        tuple_count: meta.tuple_count,
        epoch: meta.epoch,
        child_start: u32s(section::CHILD_START)?,
        children: u32s(section::CHILDREN)?,
        planes: u64s(section::PLANES)?,
        leaf_slot: u32s(section::LEAF_SLOT)?,
        leaf_code_words: u64s(section::LEAF_CODES)?,
        leaf_ids_start: u32s(section::LEAF_IDS_START)?,
        leaf_ids: u64s(section::LEAF_IDS)?,
        leaf_sorted: u32s(section::LEAF_SORTED)?,
        // Byte-addressed, so no cast.
        group_layout: &bytes[sections[section::GROUP_LAYOUT].clone()],
        leaf_suffix,
    })
}

impl HaStore {
    /// Opens a snapshot held in memory (e.g. a DFS blob). The bytes are
    /// moved into 8-byte-aligned owned storage; all views borrow from
    /// there.
    pub fn open_bytes(bytes: Vec<u8>) -> Result<HaStore, StoreError> {
        let buf = StoreBuf::Owned(buf::OwnedBytes::from_vec(bytes));
        let (meta, sections, leaf_suffix) = validate(buf.as_bytes())?;
        Ok(HaStore { buf, meta, sections, leaf_suffix })
    }

    /// Opens a snapshot file, `mmap`-ing it read-only when the platform
    /// allows so the OS pages the index in on demand — cold start does
    /// one checksum scan and touches nothing else. Falls back to an
    /// owned in-memory read when the mapping is unavailable.
    pub fn open_file(path: &std::path::Path) -> Result<HaStore, StoreError> {
        #[cfg(unix)]
        {
            let file = std::fs::File::open(path)?;
            if let Some(map) = buf::Mapping::of_file(&file) {
                let buf = StoreBuf::Mapped(map);
                let (meta, sections, leaf_suffix) = validate(buf.as_bytes())?;
                return Ok(HaStore { buf, meta, sections, leaf_suffix });
            }
        }
        Self::open_bytes(std::fs::read(path)?)
    }

    /// True when this snapshot is served straight off the page cache
    /// rather than an owned copy.
    pub fn is_mapped(&self) -> bool {
        self.buf.is_mapped()
    }

    /// Parsed header fields.
    pub fn meta(&self) -> &StoreMeta {
        &self.meta
    }

    /// Total bytes of the backing file or buffer.
    fn file_bytes(&self) -> usize {
        self.buf.as_bytes().len()
    }

    /// The zero-copy search view. Cheap — a bundle of borrowed slices
    /// re-derived from the already-validated sections; build one per
    /// call site or hold one across a batch, as convenient.
    pub fn view(&self) -> FlatStoreView<'_> {
        let bytes = self.buf.as_bytes();
        // The casts were proven good in `validate` and the buffer is
        // immutable, so this cannot fail; the fallback view over empty
        // arrays exists only to keep the path panic-free by inspection.
        match parts_of(bytes, &self.meta, &self.sections, self.leaf_suffix) {
            Ok(parts) => FlatStoreView::from_parts_unchecked(parts),
            Err(_) => FlatStoreView::from_parts_unchecked(EMPTY_PARTS),
        }
    }
}

/// Inert zero-item parts for the unreachable `view()` fallback.
const EMPTY_PARTS: FlatParts<'static> = FlatParts {
    code_len: 1,
    words: 1,
    root_count: 0,
    tuple_count: 0,
    epoch: 0,
    child_start: &[0],
    children: &[],
    planes: &[],
    leaf_slot: &[],
    leaf_code_words: &[],
    leaf_ids_start: &[0],
    leaf_ids: &[],
    leaf_sorted: &[],
    group_layout: &[],
    leaf_suffix: 0,
};

impl std::fmt::Debug for HaStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HaStore")
            .field("meta", &self.meta)
            .field("mapped", &self.is_mapped())
            .field("file_bytes", &self.file_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::write::{store_bytes, write_store_file};
    use ha_bitcode::BinaryCode;

    /// Same tiny two-leaf snapshot as the view tests, serialized.
    fn tiny_bytes() -> Vec<u8> {
        let a = BinaryCode::from_u64(0b1010_0000, 8);
        let b = BinaryCode::from_u64(0b1111_0000, 8);
        let full = BinaryCode::from_u64(0xFF, 8).words()[0];
        let child_start = [0u32, 2, 2, 2];
        let children = [1u32, 2];
        let planes = [0, 0, a.words()[0], b.words()[0], full, full];
        let leaf_slot = [u32::MAX, 0, 1];
        let leaf_code_words = [a.words()[0], b.words()[0]];
        let leaf_ids_start = [0u32, 2, 3];
        let leaf_ids = [10u64, 11, 20];
        let leaf_sorted = [0u32, 1];
        store_bytes(&FlatParts {
            code_len: 8,
            words: 1,
            root_count: 1,
            tuple_count: 3,
            epoch: 7,
            child_start: &child_start,
            children: &children,
            planes: &planes,
            leaf_slot: &leaf_slot,
            leaf_code_words: &leaf_code_words,
            leaf_ids_start: &leaf_ids_start,
            leaf_ids: &leaf_ids,
            leaf_sorted: &leaf_sorted,
            group_layout: &[],
            leaf_suffix: 1,
        })
    }

    #[test]
    fn open_bytes_round_trips_and_serves() {
        let store = HaStore::open_bytes(tiny_bytes()).expect("opens");
        assert!(!store.is_mapped());
        assert_eq!(store.meta().code_len, 8);
        assert_eq!(store.meta().epoch, 7);
        let view = store.view();
        let q = BinaryCode::from_u64(0b1010_0000, 8);
        assert_eq!(view.search(&q, 0), vec![10, 11]);
        assert_eq!(view.ids_for_code(&BinaryCode::from_u64(0b1111_0000, 8)), &[20]);
    }

    #[test]
    fn open_file_maps_on_unix() {
        let child_start = [0u32];
        let leaf_ids_start = [0u32];
        let dir = std::env::temp_dir();
        let path = dir.join(format!("ha-store-open-{}.hst", std::process::id()));
        let parts = FlatParts {
            code_len: 8,
            words: 1,
            root_count: 0,
            tuple_count: 0,
            epoch: 1,
            child_start: &child_start,
            children: &[],
            planes: &[],
            leaf_slot: &[],
            leaf_code_words: &[],
            leaf_ids_start: &leaf_ids_start,
            leaf_ids: &[],
            leaf_sorted: &[],
            group_layout: &[],
            leaf_suffix: 0,
        };
        write_store_file(&parts, &path).expect("writes");
        let store = HaStore::open_file(&path).expect("opens");
        #[cfg(unix)]
        assert!(store.is_mapped(), "unix open should mmap");
        assert_eq!(store.meta().epoch, 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn damaged_bytes_yield_typed_errors() {
        let good = tiny_bytes();

        let mut wrong_magic = good.clone();
        wrong_magic[0] = b'X';
        assert_eq!(
            HaStore::open_bytes(wrong_magic).err(),
            Some(StoreError::BadMagic)
        );

        // Version is checked before the checksum: a file of any other
        // format version — the retired version 1 or a future one — should
        // say "unsupported version", not "corrupt".
        for version in [1u8, 9] {
            let mut wrong_version = good.clone();
            wrong_version[8] = version;
            assert_eq!(
                HaStore::open_bytes(wrong_version).err(),
                Some(StoreError::BadVersion(u16::from(version)))
            );
        }

        let mut flipped = good.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x40;
        assert_eq!(
            HaStore::open_bytes(flipped).err(),
            Some(StoreError::ChecksumMismatch)
        );

        assert_eq!(
            HaStore::open_bytes(good[..40].to_vec()).err(),
            Some(StoreError::Truncated)
        );
    }
}
