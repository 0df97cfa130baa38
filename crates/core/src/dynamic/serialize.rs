//! Binary wire format for the Dynamic HA-Index.
//!
//! §5.2 broadcasts the global HA-Index to every worker through the
//! distributed cache; this module is the actual encoder/decoder backing
//! that step (and persistence in general). The format is deliberately
//! simple and versioned:
//!
//! ```text
//! "HAIX" | version:u8 | flags:u8 | code_len:u16 | node_count:u32
//! per node (alive nodes only, densely re-indexed, children-before-use
//! not required — ids are resolved after the full table is read):
//!   pattern bits  : ceil(code_len/8) bytes (MSB-first)
//!   pattern mask  : ceil(code_len/8) bytes
//!   frequency     : u32
//!   child_count   : u32, then child ids : u32 each
//!   kind          : u8 (0 = internal, 1 = leaf)
//!   if leaf: full code bytes, id_count:u32, ids:u64 each
//! root_count:u32, root ids:u32 each
//! buffered_count:u32, then (code bytes, id:u64) each
//! checksum:u64 — FNV-1a over every preceding byte (version 2)
//! ```
//!
//! All integers little-endian. Flag bit 0 = leaf id lists present
//! (Option A); the leafless Option B index simply has empty id lists.
//! The trailing checksum footer (added in version 2) is verified before
//! any structural parsing: a blob corrupted on the broadcast or the DFS
//! hop is rejected with [`DecodeError::ChecksumMismatch`] before
//! H-Search can trust it.

use std::collections::HashMap;
use std::fmt;

use ha_bitcode::fnv::fnv64;
use ha_bitcode::{BinaryCode, MaskedCode};

use super::node::{LeafData, Node, NodeId};
use super::{DhaConfig, DynamicHaIndex};

const MAGIC: &[u8; 4] = b"HAIX";
const VERSION: u8 = 2;
/// Bytes of the FNV-1a footer appended in version 2.
const FOOTER_LEN: usize = 8;

/// Decoding failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Input does not start with the `HAIX` magic.
    BadMagic,
    /// Unknown format version.
    BadVersion(u8),
    /// Input ended prematurely or a length field is inconsistent.
    Truncated,
    /// The FNV-1a footer does not match the blob body — the index was
    /// corrupted in transit or at rest.
    ChecksumMismatch,
    /// A node/root reference points outside the node table.
    DanglingReference(u32),
    /// Structural validation failed after decoding.
    Corrupt(&'static str),
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DecodeError::BadMagic => write!(f, "not an HA-Index blob (bad magic)"),
            DecodeError::BadVersion(v) => write!(f, "unsupported HA-Index version {v}"),
            DecodeError::Truncated => write!(f, "truncated HA-Index blob"),
            DecodeError::ChecksumMismatch => {
                write!(f, "HA-Index blob failed checksum verification")
            }
            DecodeError::DanglingReference(id) => {
                write!(f, "dangling node reference {id}")
            }
            DecodeError::Corrupt(what) => write!(f, "corrupt HA-Index blob: {what}"),
        }
    }
}

impl std::error::Error for DecodeError {}

struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn code(&mut self, c: &BinaryCode) {
        self.buf.extend_from_slice(&c.to_packed_bytes());
    }
}

struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.pos + n > self.buf.len() {
            return Err(DecodeError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.take(1)?[0])
    }
    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }
    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }
    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }
    fn code(&mut self, len: usize) -> Result<BinaryCode, DecodeError> {
        let bytes = self.take(len.div_ceil(8))?;
        Ok(BinaryCode::from_packed_bytes(bytes, len))
    }
}

impl DynamicHaIndex {
    /// Encodes the index into its wire format (see module docs). Dead
    /// arena slots are compacted away.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer { buf: Vec::new() };
        w.buf.extend_from_slice(MAGIC);
        w.u8(VERSION);
        w.u8(u8::from(self.config.keep_leaf_ids));
        w.u16(self.code_len as u16);

        // Dense re-numbering of live nodes.
        let mut remap: HashMap<NodeId, u32> = HashMap::new();
        let live: Vec<NodeId> = (0..self.nodes.len() as NodeId)
            .filter(|&i| self.nodes[i as usize].alive)
            .collect();
        for (dense, &old) in live.iter().enumerate() {
            remap.insert(old, dense as u32);
        }

        w.u32(live.len() as u32);
        for &old in &live {
            let node = &self.nodes[old as usize];
            w.code(node.pattern.bits());
            w.code(node.pattern.mask());
            w.u32(node.frequency);
            w.u32(node.children.len() as u32);
            for c in &node.children {
                w.u32(remap[c]);
            }
            match &node.leaf {
                None => w.u8(0),
                Some(leaf) => {
                    w.u8(1);
                    w.code(&leaf.code);
                    w.u32(leaf.ids.len() as u32);
                    for id in &leaf.ids {
                        w.u64(*id);
                    }
                }
            }
        }
        w.u32(self.roots.len() as u32);
        for r in &self.roots {
            w.u32(remap[r]);
        }
        w.u32(self.buffer.len() as u32);
        for (code, id) in &self.buffer {
            w.code(code);
            w.u64(*id);
        }
        // Version 2 integrity footer: FNV-1a over everything above. The
        // blob crosses the distributed cache and the DFS hop of Figure 5;
        // the footer lets a corrupted copy be rejected *before* H-Search
        // trusts its pruning structure.
        let digest = fnv64(&w.buf);
        w.u64(digest);
        w.buf
    }

    /// Decodes an index from its wire format, validating all references
    /// and the path invariant. The decoded index uses `config` for future
    /// maintenance operations (`keep_leaf_ids` is taken from the blob).
    pub fn from_bytes(bytes: &[u8], config: DhaConfig) -> Result<Self, DecodeError> {
        let mut r = Reader { buf: bytes, pos: 0 };
        if r.take(4)? != MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let version = r.u8()?;
        if version != VERSION {
            return Err(DecodeError::BadVersion(version));
        }
        // Verify the integrity footer (checked right after the header so
        // corruption is reported as such, not as some downstream
        // structural error), then parse only the body before it.
        if bytes.len() < r.pos + FOOTER_LEN {
            return Err(DecodeError::Truncated);
        }
        let (body, footer) = bytes.split_at(bytes.len() - FOOTER_LEN);
        let declared = u64::from_le_bytes(footer.try_into().expect("footer is 8 bytes"));
        if fnv64(body) != declared {
            return Err(DecodeError::ChecksumMismatch);
        }
        let mut r = Reader {
            buf: body,
            pos: r.pos,
        };
        let keep_leaf_ids = r.u8()? != 0;
        let code_len = r.u16()? as usize;
        if code_len == 0 {
            return Err(DecodeError::Corrupt("zero code length"));
        }

        let node_count = r.u32()? as usize;
        let mut nodes: Vec<Node> = Vec::with_capacity(node_count);
        let mut len_total = 0usize;
        for _ in 0..node_count {
            let bits = r.code(code_len)?;
            let mask = r.code(code_len)?;
            let pattern =
                MaskedCode::new(bits, mask).map_err(|_| DecodeError::Corrupt("pattern"))?;
            let frequency = r.u32()?;
            let child_count = r.u32()? as usize;
            if child_count > node_count {
                return Err(DecodeError::Corrupt("child count"));
            }
            let mut children = Vec::with_capacity(child_count);
            for _ in 0..child_count {
                children.push(r.u32()?);
            }
            let leaf = match r.u8()? {
                0 => None,
                1 => {
                    let code = r.code(code_len)?;
                    let id_count = r.u32()? as usize;
                    let mut ids = Vec::with_capacity(id_count.min(1 << 20));
                    for _ in 0..id_count {
                        ids.push(r.u64()?);
                    }
                    Some(LeafData { code, ids })
                }
                _ => return Err(DecodeError::Corrupt("node kind")),
            };
            nodes.push(Node {
                pattern,
                children,
                frequency,
                leaf,
                alive: true,
            });
        }
        // Validate child references.
        for n in &nodes {
            for &c in &n.children {
                if c as usize >= node_count {
                    return Err(DecodeError::DanglingReference(c));
                }
            }
        }
        let root_count = r.u32()? as usize;
        let mut roots = Vec::with_capacity(root_count);
        for _ in 0..root_count {
            let id = r.u32()?;
            if id as usize >= node_count {
                return Err(DecodeError::DanglingReference(id));
            }
            roots.push(id);
        }
        let buffered = r.u32()? as usize;
        let mut buffer = Vec::with_capacity(buffered.min(1 << 20));
        for _ in 0..buffered {
            let code = r.code(code_len)?;
            let id = r.u64()?;
            buffer.push((code, id));
        }
        if r.pos != body.len() {
            return Err(DecodeError::Corrupt("trailing bytes"));
        }

        // Rebuild the leaf map and the tuple count from the decoded forest.
        let mut leaves = HashMap::new();
        for (i, n) in nodes.iter().enumerate() {
            if let Some(leaf) = &n.leaf {
                len_total += n.frequency as usize;
                if keep_leaf_ids {
                    leaves.insert(leaf.code.clone(), i as NodeId);
                }
            }
        }

        let idx = DynamicHaIndex {
            code_len,
            nodes,
            roots,
            leaves,
            buffer,
            config: DhaConfig {
                keep_leaf_ids,
                ..config
            },
            len: len_total,
            epoch: 0,
            flat: None,
        };
        // Structural validation (disjoint masks, full coverage, code
        // reconstruction) — a corrupted blob must not produce an index
        // that silently returns wrong answers.
        idx.try_check_invariants().map_err(DecodeError::Corrupt)?;
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, clustered_dataset, random_dataset};
    use crate::{HammingIndex, MutableIndex};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn roundtrip_preserves_results_and_structure() {
        let data = clustered_dataset(500, 32, 5, 3, 201);
        let idx = DynamicHaIndex::build(data.clone());
        let blob = idx.to_bytes();
        let back = DynamicHaIndex::from_bytes(&blob, DhaConfig::default()).unwrap();
        back.check_invariants();
        assert_eq!(back.len(), idx.len());
        assert_eq!(back.leaf_count(), idx.leaf_count());
        assert_eq!(back.internal_node_count(), idx.internal_node_count());
        let mut rng = StdRng::seed_from_u64(202);
        for _ in 0..8 {
            let q = ha_bitcode::BinaryCode::random(32, &mut rng);
            let h = rng.gen_range(0..8);
            assert_matches_oracle(back.search(&q, h), &data, &q, h, "decoded");
        }
    }

    #[test]
    fn roundtrip_after_maintenance_compacts_dead_slots() {
        let data = random_dataset(200, 24, 203);
        let mut idx = DynamicHaIndex::build(data.clone());
        for (c, id) in data.iter().take(80) {
            assert!(idx.delete(c, *id));
        }
        let blob = idx.to_bytes();
        let back = DynamicHaIndex::from_bytes(&blob, DhaConfig::default()).unwrap();
        assert_eq!(back.len(), 120);
        // Dead slots are gone: arena is exactly the live node count.
        assert_eq!(
            back.nodes.len(),
            back.leaf_count() + back.internal_node_count()
        );
        let live: Vec<_> = data[80..].to_vec();
        let mut rng = StdRng::seed_from_u64(204);
        let q = ha_bitcode::BinaryCode::random(24, &mut rng);
        assert_matches_oracle(back.search(&q, 5), &live, &q, 5, "compacted");
    }

    #[test]
    fn leafless_roundtrip() {
        let data = random_dataset(150, 32, 205);
        let idx = DynamicHaIndex::build_with(
            data.clone(),
            DhaConfig {
                keep_leaf_ids: false,
                ..DhaConfig::default()
            },
        );
        let blob = idx.to_bytes();
        let back = DynamicHaIndex::from_bytes(&blob, DhaConfig::default()).unwrap();
        assert!(!back.config().keep_leaf_ids, "flag travels in the blob");
        let q = data[3].0.clone();
        let got = back.search_codes(&q, 0);
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, q);
    }

    #[test]
    fn buffered_inserts_roundtrip() {
        let data = random_dataset(50, 16, 206);
        let mut idx = DynamicHaIndex::build(data.clone());
        let fresh = ha_bitcode::BinaryCode::from_u64(0xABCD, 16);
        idx.insert(fresh.clone(), 999);
        assert!(!idx.buffer.is_empty());
        let back = DynamicHaIndex::from_bytes(&idx.to_bytes(), DhaConfig::default()).unwrap();
        assert!(back.search(&fresh, 0).contains(&999));
        assert_eq!(back.len(), 51);
    }

    #[test]
    fn estimated_size_tracks_actual_size() {
        let data = clustered_dataset(1000, 32, 4, 2, 207);
        let idx = DynamicHaIndex::build(data);
        let actual = idx.to_bytes().len();
        let estimate = idx.serialized_bytes(true);
        let ratio = actual as f64 / estimate as f64;
        assert!(
            (0.5..=2.0).contains(&ratio),
            "estimate {estimate} vs actual {actual} (ratio {ratio:.2})"
        );
    }

    #[test]
    fn rejects_garbage() {
        assert!(matches!(
            DynamicHaIndex::from_bytes(b"nope", DhaConfig::default()),
            Err(DecodeError::BadMagic)
        ));
        let idx = DynamicHaIndex::build(random_dataset(20, 16, 208));
        let mut blob = idx.to_bytes();
        // Wrong version.
        let mut v = blob.clone();
        v[4] = 99;
        assert!(matches!(
            DynamicHaIndex::from_bytes(&v, DhaConfig::default()),
            Err(DecodeError::BadVersion(99))
        ));
        // Truncation anywhere must error, never panic.
        for cut in [5usize, 10, blob.len() / 2, blob.len() - 1] {
            let r = DynamicHaIndex::from_bytes(&blob[..cut], DhaConfig::default());
            assert!(r.is_err(), "cut at {cut}");
        }
        // Trailing garbage.
        blob.push(0);
        assert!(DynamicHaIndex::from_bytes(&blob, DhaConfig::default()).is_err());
    }

    #[test]
    fn checksum_footer_detects_body_corruption() {
        let idx = DynamicHaIndex::build(random_dataset(40, 16, 211));
        let blob = idx.to_bytes();
        // Any single-byte flip in the body (past the header, before the
        // footer) must be caught by the footer, reported as corruption.
        for pos in [5usize, 7, blob.len() / 3, blob.len() - FOOTER_LEN - 1] {
            let mut bad = blob.clone();
            bad[pos] ^= 0x40;
            assert!(
                matches!(
                    DynamicHaIndex::from_bytes(&bad, DhaConfig::default()),
                    Err(DecodeError::ChecksumMismatch)
                ),
                "flip at {pos}"
            );
        }
        // A flipped footer byte is equally fatal.
        let mut bad = blob.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        assert!(matches!(
            DynamicHaIndex::from_bytes(&bad, DhaConfig::default()),
            Err(DecodeError::ChecksumMismatch)
        ));
        // The pristine blob still decodes.
        assert!(DynamicHaIndex::from_bytes(&blob, DhaConfig::default()).is_ok());
    }

    #[test]
    fn rejects_inconsistent_frequencies() {
        // A blob whose checksum is intact but whose frequencies are not
        // conserved: one bumped internal node, then one bumped leaf.
        let idx = DynamicHaIndex::build(clustered_dataset(500, 32, 5, 3, 212));
        let internal = idx.nodes.iter().position(|n| n.leaf.is_none()).expect("some sharing");
        let leaf = idx.nodes.iter().position(|n| n.leaf.is_some()).expect("a leaf");
        for (node, want) in [
            (internal, "internal frequency is not its children's sum"),
            (leaf, "leaf frequency is not its id count"),
        ] {
            let mut bad = idx.clone();
            bad.nodes[node].frequency += 1;
            assert!(matches!(
                DynamicHaIndex::from_bytes(&bad.to_bytes(), DhaConfig::default()),
                Err(DecodeError::Corrupt(what)) if what == want
            ));
        }
        assert!(DynamicHaIndex::from_bytes(&idx.to_bytes(), DhaConfig::default()).is_ok());
    }

    #[test]
    fn byte_flip_fuzz_never_panics_and_never_lies() {
        // Flip single bytes all over the blob: decoding must either error
        // out or yield a structurally valid index (check_invariants runs
        // inside from_bytes) — never panic, never a silently-corrupt tree.
        let data = random_dataset(60, 24, 209);
        let idx = DynamicHaIndex::build(data);
        let blob = idx.to_bytes();
        let mut rng = StdRng::seed_from_u64(210);
        for _ in 0..200 {
            let mut mutated = blob.clone();
            let pos = rng.gen_range(0..mutated.len());
            mutated[pos] ^= 1u8 << rng.gen_range(0..8u32);
            if let Ok(decoded) = DynamicHaIndex::from_bytes(&mutated, DhaConfig::default()) {
                // Valid decode: the invariant held; searching must not
                // panic either.
                let q = ha_bitcode::BinaryCode::zero(24);
                let _ = decoded.search_codes(&q, 24);
            }
        }
    }
}
