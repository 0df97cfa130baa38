//! # ha-core — Hamming-distance range-query indexes
//!
//! The paper's primary contribution and all of its centralized competitors,
//! behind one trait:
//!
//! | type | paper name | § |
//! |---|---|---|
//! | [`LinearScanIndex`] | Nested-Loops | 3.1 |
//! | [`RadixTreeIndex`] | Radix-Tree / PATRICIA | 4.2 |
//! | [`StaticHaIndex`] | Static HA-Index | 4.3 |
//! | [`DynamicHaIndex`] | Dynamic HA-Index (H-Build/H-Search/…) | 4.4–4.6 |
//! | [`SegmentIndex`] | Manku et al. (MH-4 / MH-10), HEngine, HmSearch — one [`SegmentScheme`] each | 2 |
//! | [`MihIndex`] | Multi-Index Hashing (Norouzi et al.) | 2 |
//! | [`planner::PlannedIndex`] | adaptive backend routing | — |
//!
//! Every index answers the **Hamming-select** of Definition 1 through
//! [`HammingIndex::search`]; [`select`] adds the **Hamming-join**
//! (Definition 2) built on top of any index, plus the nested-loop join used
//! as the quadratic baseline.
//!
//! ## Correctness contract
//!
//! `search(q, h)` must return *exactly* the ids of indexed codes `U` with
//! `hamming(q, U) <= h` — the same set a linear scan produces — provided
//! `h` is within the structure's completeness guarantee
//! ([`HammingIndex::complete_up_to`]). The HA-Index and Radix-Tree are
//! complete for every `h`; the segment-pigeonhole schemes (MH, HEngine,
//! HmSearch) are complete only below a threshold fixed at construction,
//! which is the sensitivity the paper criticises them for.

pub mod delta;
pub mod dynamic;
mod linear;
mod memory;
mod mih;
mod overlap;
mod pages;
pub mod planner;
mod radix;
mod seen;
mod segment_index;
pub mod select;
mod static_ha;
pub mod testkit;

pub use delta::{DeltaIndex, DeltaOp};
pub use dynamic::{DhaConfig, DynamicHaIndex, FlatHaIndex};
pub use linear::LinearScanIndex;
pub use memory::MemoryReport;
pub use mih::MihIndex;
pub use planner::{Backend, CostModel, PlannedIndex};
pub use radix::RadixTreeIndex;
pub use segment_index::{SegmentIndex, SegmentScheme};
pub use static_ha::StaticHaIndex;

use ha_bitcode::BinaryCode;

/// Identifier of an indexed tuple. The index stores ids, not payloads;
/// callers keep the id → tuple mapping (in MapReduce runs the post-join of
/// Option B resolves ids via a hash-join).
pub type TupleId = u64;

/// A Hamming-distance range-query index over binary codes
/// (Definition 1: Hamming-select).
pub trait HammingIndex {
    /// Human-readable name used in experiment tables.
    fn name(&self) -> &'static str;

    /// Number of indexed tuples (with multiplicity).
    fn len(&self) -> usize;

    /// True if nothing is indexed.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Length in bits of the indexed codes.
    fn code_len(&self) -> usize;

    /// All ids whose code is within Hamming distance `h` of `query`
    /// (order unspecified).
    ///
    /// # Panics
    /// If `query.len() != self.code_len()`.
    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId>;

    /// Largest threshold for which `search` is guaranteed complete;
    /// `None` means complete for every `h`.
    fn complete_up_to(&self) -> Option<u32> {
        None
    }

    /// Bytes of memory attributable to the index structure (the space
    /// column of Table 4).
    fn memory_bytes(&self) -> usize;
}

/// An index supporting online maintenance (the update column of Table 4:
/// "delete one tuple, then insert the same tuple back").
///
/// ```
/// use ha_core::{DynamicHaIndex, HammingIndex, MutableIndex};
/// use ha_bitcode::BinaryCode;
///
/// let mut index = DynamicHaIndex::build(
///     (0..16u64).map(|i| (BinaryCode::from_u64(i, 8), i)));
/// let five = BinaryCode::from_u64(5, 8);
///
/// assert!(index.delete(&five, 5));          // H-Delete…
/// assert!(!index.search(&five, 0).contains(&5));
/// index.insert(five.clone(), 5);            // …then H-Insert restores it
/// assert_eq!(index.search(&five, 0), vec![5]);
/// ```
pub trait MutableIndex: HammingIndex {
    /// Adds a `(code, id)` pair.
    fn insert(&mut self, code: BinaryCode, id: TupleId);

    /// Removes one `(code, id)` pair; returns whether it was present.
    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool;
}
