//! Serializer for the HA-Store snapshot format.
//!
//! The writer is the mirror of [`crate::layout::parse`]: it lays the
//! nine sections out 64-byte aligned in the fixed order, zero-pads the
//! gaps, and seals the file with the FNV-1a footer. Everything is
//! little-endian regardless of host byte order, so files written here
//! open zero-copy on any little-endian machine and are rejected with a
//! typed error (never misread) elsewhere.

use ha_bitcode::fnv::fnv64;
use ha_bitcode::{BinaryCode, GroupLayout};

use crate::error::StoreError;
use crate::layout::{
    align_up, section, ENDIAN_TAG, FOOTER_BYTES, HEADER_BYTES, MAGIC, SECTION_COUNT, TABLE_BYTES,
    VERSION,
};
use crate::view::{pattern_word_at, FlatParts, NONE};

fn put_u32s(out: &mut [u8], at: usize, vals: &[u32]) {
    let mut o = at;
    for &v in vals {
        out[o..o + 4].copy_from_slice(&v.to_le_bytes());
        o += 4;
    }
}

fn put_u64s(out: &mut [u8], at: usize, vals: &[u64]) {
    let mut o = at;
    for &v in vals {
        out[o..o + 8].copy_from_slice(&v.to_le_bytes());
        o += 8;
    }
}

/// Writes into `planes`, the file's plane section, the leaf patterns
/// `parts.planes` leaves out: those of every group that starts at or past
/// its end, the pattern bound ([`FlatParts::planes`]). Such a group holds
/// only leaves, and a leaf's pattern is its row under the bits its path
/// leaves free, the complement of its parent's accumulated mask. The
/// groups come up in node-id order, as the internal nodes that own them
/// do, so each internal node's accumulated mask is kept in that order.
///
/// # Panics
///
/// If a group past the end of `parts.planes` holds an internal node.
fn put_implicit_patterns(planes: &mut [u8], parts: &FlatParts<'_>, layout: &[u8]) {
    let w = parts.words;
    let rc = parts.root_count;
    let n = parts.leaf_slot.len();
    if parts.planes.len() >= 2 * w * n {
        return;
    }
    let covered = parts.planes.len() / (2 * w);
    let full = BinaryCode::ones(parts.code_len);
    let mut acc: Vec<u64> = Vec::new();
    let mut parent = vec![0u64; w];
    let mut expanded = 0usize;
    for gi in 0..=n {
        let (first, g) = if gi == 0 {
            (0, rc)
        } else {
            let p = gi - 1;
            if parts.leaf_slot[p] != NONE {
                continue;
            }
            parent.copy_from_slice(&acc[w * expanded..w * (expanded + 1)]);
            expanded += 1;
            let lo = parts.child_start[p] as usize;
            (rc + lo, parts.child_start[p + 1] as usize - lo)
        };
        let base = 2 * w * first;
        let layout = GroupLayout::from_flag(layout[gi]);
        for s in 0..g {
            let slot = parts.leaf_slot[first + s];
            if first < covered {
                if slot == NONE {
                    acc.extend((0..w).map(|i| {
                        parent[i] | parts.planes[base + pattern_word_at(layout, w, g, s, i).1]
                    }));
                }
                continue;
            }
            assert!(slot != NONE, "the planes end before the pattern bound");
            let row = &parts.leaf_code_words[slot as usize * w..(slot as usize + 1) * w];
            for i in 0..w {
                let mask = full.words()[i] & !parent[i];
                let (bits_at, mask_at) = pattern_word_at(layout, w, g, s, i);
                for (at, word) in [(base + bits_at, row[i] & mask), (base + mask_at, mask)] {
                    planes[8 * at..8 * at + 8].copy_from_slice(&word.to_le_bytes());
                }
            }
        }
    }
}

/// Serializes one frozen snapshot into the wire format. The file's plane
/// section covers every node: patterns `parts.planes` leaves out past the
/// pattern bound are regenerated from the leaf rows.
pub fn store_bytes(parts: &FlatParts<'_>) -> Vec<u8> {
    // Hand-built parts may carry an empty layout slice (all-SoA);
    // normalize to the explicit byte-per-group form the file holds.
    let node_count = parts.leaf_slot.len();
    let default_layout;
    let layout: &[u8] = if parts.group_layout.len() == node_count + 1 {
        parts.group_layout
    } else {
        default_layout = vec![0u8; node_count + 1];
        &default_layout
    };

    // Section byte lengths, in file order (see layout docs).
    let mut lens = [0usize; SECTION_COUNT];
    lens[section::CHILD_START] = parts.child_start.len() * 4;
    lens[section::CHILDREN] = parts.children.len() * 4;
    lens[section::PLANES] = parts.planes.len().max(2 * parts.words * node_count) * 8;
    lens[section::LEAF_SLOT] = parts.leaf_slot.len() * 4;
    lens[section::LEAF_CODES] = parts.leaf_code_words.len() * 8;
    lens[section::LEAF_IDS_START] = parts.leaf_ids_start.len() * 4;
    lens[section::LEAF_IDS] = parts.leaf_ids.len() * 8;
    lens[section::LEAF_SORTED] = parts.leaf_sorted.len() * 4;
    lens[section::GROUP_LAYOUT] = layout.len();

    let mut offsets = [0usize; SECTION_COUNT];
    let mut at = align_up(HEADER_BYTES + TABLE_BYTES);
    for (o, &len) in offsets.iter_mut().zip(&lens) {
        *o = at;
        at = align_up(at + len);
    }
    let body_len = at;
    let mut out = vec![0u8; body_len + FOOTER_BYTES];

    // Fixed header.
    out[0..8].copy_from_slice(&MAGIC);
    out[8..10].copy_from_slice(&VERSION.to_le_bytes());
    out[10..12].copy_from_slice(&ENDIAN_TAG.to_le_bytes());
    out[12..16].copy_from_slice(&(SECTION_COUNT as u32).to_le_bytes());
    out[16..20].copy_from_slice(&(parts.code_len as u32).to_le_bytes());
    out[20..24].copy_from_slice(&(parts.words as u32).to_le_bytes());
    out[24..28].copy_from_slice(&(parts.root_count as u32).to_le_bytes());
    // bytes 28..32: flags, reserved zero.
    out[32..40].copy_from_slice(&(parts.leaf_slot.len() as u64).to_le_bytes());
    out[40..48].copy_from_slice(&(parts.leaf_sorted.len() as u64).to_le_bytes());
    out[48..56].copy_from_slice(&(parts.tuple_count as u64).to_le_bytes());
    out[56..64].copy_from_slice(&parts.epoch.to_le_bytes());

    // Section table.
    for i in 0..SECTION_COUNT {
        let at = HEADER_BYTES + 16 * i;
        out[at..at + 8].copy_from_slice(&(offsets[i] as u64).to_le_bytes());
        out[at + 8..at + 16].copy_from_slice(&(lens[i] as u64).to_le_bytes());
    }

    // Section payloads (gaps stay zero).
    put_u32s(&mut out, offsets[section::CHILD_START], parts.child_start);
    put_u32s(&mut out, offsets[section::CHILDREN], parts.children);
    let o = offsets[section::PLANES];
    put_u64s(&mut out, o, parts.planes);
    put_implicit_patterns(&mut out[o..o + lens[section::PLANES]], parts, layout);
    put_u32s(&mut out, offsets[section::LEAF_SLOT], parts.leaf_slot);
    put_u64s(&mut out, offsets[section::LEAF_CODES], parts.leaf_code_words);
    put_u32s(&mut out, offsets[section::LEAF_IDS_START], parts.leaf_ids_start);
    put_u64s(&mut out, offsets[section::LEAF_IDS], parts.leaf_ids);
    put_u32s(&mut out, offsets[section::LEAF_SORTED], parts.leaf_sorted);
    let o = offsets[section::GROUP_LAYOUT];
    out[o..o + layout.len()].copy_from_slice(layout);

    // Seal: FNV-1a over everything before the footer.
    let sum = fnv64(&out[..body_len]);
    out[body_len..].copy_from_slice(&sum.to_le_bytes());
    out
}

/// Serializes `parts` and writes the snapshot to `path` atomically: the
/// bytes land in a same-directory temp file first, then `rename` into
/// place, so readers only ever observe complete snapshots — the
/// contract the mmap open path relies on.
pub fn write_store_file(parts: &FlatParts<'_>, path: &std::path::Path) -> Result<(), StoreError> {
    let bytes = store_bytes(parts);
    let tmp = path.with_extension("tmp");
    std::fs::write(&tmp, &bytes)?;
    std::fs::rename(&tmp, path)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout;

    fn empty_parts<'a>(child_start: &'a [u32], leaf_ids_start: &'a [u32]) -> FlatParts<'a> {
        FlatParts {
            code_len: 96,
            words: 2,
            root_count: 0,
            tuple_count: 0,
            epoch: 42,
            child_start,
            children: &[],
            planes: &[],
            leaf_slot: &[],
            leaf_code_words: &[],
            leaf_ids_start,
            leaf_ids: &[],
            leaf_sorted: &[],
            group_layout: &[],
            leaf_suffix: 0,
        }
    }

    #[test]
    fn written_bytes_parse_back_to_the_same_meta() {
        let child_start = [0u32];
        let leaf_ids_start = [0u32];
        let parts = empty_parts(&child_start, &leaf_ids_start);
        let bytes = store_bytes(&parts);
        let (meta, ranges) = layout::parse(&bytes).expect("round-trips");
        assert_eq!(meta.code_len, 96);
        assert_eq!(meta.words, 2);
        assert_eq!(meta.epoch, 42);
        assert_eq!(meta.node_count, 0);
        for r in &ranges {
            assert_eq!(r.start % layout::ALIGN, 0);
        }
        // The file always carries the explicit layout section: one byte
        // (the root-group flag) even for an empty forest.
        assert_eq!(ranges[layout::section::GROUP_LAYOUT].len(), 1);
    }
}
