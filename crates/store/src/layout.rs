//! Byte layout of the HA-Store snapshot format, version 2.
//!
//! The file is a **section-table** container: a fixed 64-byte header, a
//! table of `(offset, byte_len)` entries — one per section, offsets
//! relative to the file start and 64-byte aligned — the section payloads
//! themselves (zero-padded between sections), and an 8-byte FNV-1a
//! footer over everything before it. All integers are little-endian.
//!
//! ```text
//! offset  size  field
//! 0       8     magic            b"HASTORE1"
//! 8       2     version          u16 = 2
//! 10      2     endian tag       u16 = 0x1A2B (detects byte-order swaps)
//! 12      4     section count    u32 = 9
//! 16      4     code_len         u32 (bits per code, 1..=1024)
//! 20      4     words            u32 = ceil(code_len / 64)
//! 24      4     root_count       u32
//! 28      4     flags            u32 (reserved, 0)
//! 32      8     node_count       u64
//! 40      8     leaf_count       u64
//! 48      8     tuple_count      u64 (ids with multiplicity)
//! 56      8     epoch            u64 (arena epoch the snapshot froze at)
//! 64      144   section table    9 × { offset u64, byte_len u64 }
//! …       …     sections         each offset 64-byte aligned
//! EOF-8   8     checksum         FNV-1a 64 over bytes [0, EOF-8)
//! ```
//!
//! Section order (fixed):
//!
//! | # | section        | element | count               |
//! |---|----------------|---------|---------------------|
//! | 0 | `CHILD_START`  | u32     | node_count + 1      |
//! | 1 | `CHILDREN`     | u32     | node_count − root_count |
//! | 2 | `PLANES`       | u64     | 2 · words · node_count |
//! | 3 | `LEAF_SLOT`    | u32     | node_count          |
//! | 4 | `LEAF_CODES`   | u64     | leaf_count · words  |
//! | 5 | `LEAF_IDS_START` | u32   | leaf_count + 1      |
//! | 6 | `LEAF_IDS`     | u64     | leaf_ids total      |
//! | 7 | `LEAF_SORTED`  | u32     | leaf_count          |
//! | 8 | `GROUP_LAYOUT` | u8      | node_count + 1      |
//!
//! `GROUP_LAYOUT` holds one byte per sibling group recording the layout
//! the freeze chose for it — entry 0 is the root group, entry `1 + p` is
//! node `p`'s child group; `0` = SoA word-planes, `1` = row-major (AoS).
//! Both layouts occupy the same `2 · words · g` words inside `PLANES`,
//! so nothing else in the format depends on the choice. Version 2 is the
//! only version read or written; any other version byte is
//! [`StoreError::BadVersion`].
//!
//! The format is *relocatable*: nothing in it depends on the address the
//! file is mapped at (all references are array indices), which is what
//! makes the zero-copy `mmap` open sound.

use crate::error::StoreError;

/// File magic, first 8 bytes.
pub const MAGIC: [u8; 8] = *b"HASTORE1";
/// Format version, the only one read or written.
pub const VERSION: u16 = 2;
/// Endianness canary: written as the little-endian encoding of this
/// constant. A byte-order mismatch (or a swapped file) decodes to a
/// different value and is rejected before any zero-copy reinterpretation.
pub const ENDIAN_TAG: u16 = 0x1A2B;
/// Number of sections in a file.
pub const SECTION_COUNT: usize = 9;
/// Fixed header bytes before the section table.
pub const HEADER_BYTES: usize = 64;
/// Section-table bytes.
pub const TABLE_BYTES: usize = SECTION_COUNT * 16;
/// Alignment of every section offset. 64 bytes keeps any element type
/// (u32/u64) aligned and starts each section on its own cache line.
pub const ALIGN: usize = 64;
/// Trailing FNV-1a checksum bytes.
pub const FOOTER_BYTES: usize = 8;
/// Smallest possible well-formed file: the header, the section table and
/// the footer.
pub const MIN_FILE_BYTES: usize = HEADER_BYTES + TABLE_BYTES + FOOTER_BYTES;

/// Section indices, in file order.
pub mod section {
    pub const CHILD_START: usize = 0;
    pub const CHILDREN: usize = 1;
    pub const PLANES: usize = 2;
    pub const LEAF_SLOT: usize = 3;
    pub const LEAF_CODES: usize = 4;
    pub const LEAF_IDS_START: usize = 5;
    pub const LEAF_IDS: usize = 6;
    pub const LEAF_SORTED: usize = 7;
    /// Per-group layout flags.
    pub const GROUP_LAYOUT: usize = 8;
}

/// Rounds `x` up to the next [`ALIGN`] boundary.
pub(crate) const fn align_up(x: usize) -> usize {
    (x + ALIGN - 1) & !(ALIGN - 1)
}

/// Parsed fixed-header fields of a snapshot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StoreMeta {
    /// Bits per indexed code.
    pub code_len: usize,
    /// `u64` words per code (`code_len.div_ceil(64)`).
    pub words: usize,
    /// Roots occupy flat node ids `0 .. root_count`.
    pub root_count: usize,
    /// Total nodes of the frozen forest.
    pub node_count: usize,
    /// Distinct leaf codes.
    pub leaf_count: usize,
    /// Indexed tuples, with multiplicity.
    pub tuple_count: usize,
    /// Arena mutation epoch the snapshot was frozen at (informational).
    pub epoch: u64,
}

fn read_u16(b: &[u8], at: usize) -> u16 {
    u16::from_le_bytes([b[at], b[at + 1]])
}

fn read_u32(b: &[u8], at: usize) -> u32 {
    u32::from_le_bytes([b[at], b[at + 1], b[at + 2], b[at + 3]])
}

fn read_u64(b: &[u8], at: usize) -> u64 {
    u64::from_le_bytes([
        b[at],
        b[at + 1],
        b[at + 2],
        b[at + 3],
        b[at + 4],
        b[at + 5],
        b[at + 6],
        b[at + 7],
    ])
}

fn to_usize(v: u64, what: &'static str) -> Result<usize, StoreError> {
    usize::try_from(v).map_err(|_| StoreError::Corrupt(what))
}

/// Byte ranges of the nine sections, relative to the file start.
pub type SectionRanges = [std::ops::Range<usize>; SECTION_COUNT];

/// Parses and validates the header + section table of `bytes` (a whole
/// snapshot file, footer included). Verifies, in order: size floor,
/// magic, version, endianness tag, the FNV-1a footer over the full body,
/// header-field consistency, and that every section is 64-byte aligned,
/// in order, non-overlapping, inside the file body, and exactly the byte
/// length its element count dictates. Structural validation of the array
/// *contents* is the view's job ([`crate::view::FlatStoreView::new`]).
pub fn parse(bytes: &[u8]) -> Result<(StoreMeta, SectionRanges), StoreError> {
    if bytes.len() < MIN_FILE_BYTES {
        return Err(StoreError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(StoreError::BadMagic);
    }
    let version = read_u16(bytes, 8);
    if version != VERSION {
        return Err(StoreError::BadVersion(version));
    }
    if read_u16(bytes, 10) != ENDIAN_TAG {
        return Err(StoreError::EndianMismatch);
    }
    // Integrity before structure: any bit flip anywhere in the file —
    // header, padding, payload, or footer — is reported as corruption,
    // not as whichever structural error it happens to masquerade as.
    let (body, footer) = bytes.split_at(bytes.len() - FOOTER_BYTES);
    let declared = read_u64(footer, 0);
    if ha_bitcode::fnv::fnv64(body) != declared {
        return Err(StoreError::ChecksumMismatch);
    }

    if read_u32(bytes, 12) as usize != SECTION_COUNT {
        return Err(StoreError::BadSectionTable("wrong section count"));
    }
    let code_len = read_u32(bytes, 16) as usize;
    let words = read_u32(bytes, 20) as usize;
    let root_count = read_u32(bytes, 24) as usize;
    let _flags = read_u32(bytes, 28);
    let node_count = to_usize(read_u64(bytes, 32), "node count overflow")?;
    let leaf_count = to_usize(read_u64(bytes, 40), "leaf count overflow")?;
    let tuple_count = to_usize(read_u64(bytes, 48), "tuple count overflow")?;
    let epoch = read_u64(bytes, 56);

    if code_len == 0 || code_len > ha_bitcode::MAX_BITS {
        return Err(StoreError::Corrupt("code length out of range"));
    }
    if words != code_len.div_ceil(64) {
        return Err(StoreError::Corrupt("word count does not match code length"));
    }
    if root_count > node_count {
        return Err(StoreError::Corrupt("more roots than nodes"));
    }
    // `u32::MAX` is the NONE sentinel in leaf_slot/child arrays; counts
    // must stay below it so every real index is representable.
    if node_count >= u32::MAX as usize || leaf_count >= u32::MAX as usize {
        return Err(StoreError::Corrupt("count exceeds u32 index space"));
    }
    let children_len = node_count - root_count;

    // Expected element counts per section (element size 4 or 8 bytes).
    let plane_words = 2usize
        .checked_mul(words)
        .and_then(|x| x.checked_mul(node_count))
        .ok_or(StoreError::Corrupt("plane size overflow"))?;
    let leaf_code_words = leaf_count
        .checked_mul(words)
        .ok_or(StoreError::Corrupt("leaf code size overflow"))?;
    let expected: [(usize, usize); SECTION_COUNT] = [
        (node_count + 1, 4), // CHILD_START
        (children_len, 4),   // CHILDREN
        (plane_words, 8),    // PLANES
        (node_count, 4),     // LEAF_SLOT
        (leaf_code_words, 8), // LEAF_CODES
        (leaf_count + 1, 4), // LEAF_IDS_START
        (usize::MAX, 8),     // LEAF_IDS (count taken from the table)
        (leaf_count, 4),     // LEAF_SORTED
        (node_count + 1, 1), // GROUP_LAYOUT
    ];

    let body_len = body.len();
    let mut ranges: SectionRanges = std::array::from_fn(|_| 0..0);
    let mut prev_end = HEADER_BYTES + TABLE_BYTES;
    for (i, &(count, elem)) in expected.iter().enumerate() {
        let at = HEADER_BYTES + 16 * i;
        let offset = to_usize(read_u64(bytes, at), "section offset overflow")?;
        let byte_len = to_usize(read_u64(bytes, at + 8), "section length overflow")?;
        if offset % ALIGN != 0 {
            return Err(StoreError::BadSectionTable("misaligned section offset"));
        }
        if offset < prev_end {
            return Err(StoreError::BadSectionTable("overlapping sections"));
        }
        let end = offset
            .checked_add(byte_len)
            .ok_or(StoreError::BadSectionTable("section end overflow"))?;
        if end > body_len {
            return Err(StoreError::BadSectionTable("section outside file body"));
        }
        if byte_len % elem != 0 {
            return Err(StoreError::BadSectionTable("ragged section length"));
        }
        if count != usize::MAX {
            let want = count
                .checked_mul(elem)
                .ok_or(StoreError::BadSectionTable("section size overflow"))?;
            if byte_len != want {
                return Err(StoreError::BadSectionTable(
                    "section length disagrees with declared counts",
                ));
            }
        }
        ranges[i] = offset..end;
        prev_end = end;
    }

    Ok((
        StoreMeta {
            code_len,
            words,
            root_count,
            node_count,
            leaf_count,
            tuple_count,
            epoch,
        },
        ranges,
    ))
}
