//! # HA-Store — persistent, zero-copy snapshots of the HA-Index
//!
//! The frozen HA-Flat search layout (CSR adjacency + word-plane SoA +
//! leaf SoA) is already position-independent: every reference in it is
//! an array index. HA-Store turns that observation into a durability
//! story — a **versioned, relocatable, alignment-aware wire format**
//! that is the flat layout, laid out section by section in a file, so
//! that opening a snapshot is *mapping* it, not decoding it:
//!
//! * **Write** ([`store_bytes`] / [`write_store_file`]): fixed 64-byte
//!   header (magic, version, endianness tag, code geometry, counts), a
//!   section table, nine 64-byte-aligned sections (the last holds the
//!   per-group layout flags the freeze chose), FNV-1a footer. All
//!   little-endian, atomically published via temp-file + rename. Version
//!   2 is the only version read or written.
//! * **Open** ([`HaStore::open_file`] / [`HaStore::open_bytes`]):
//!   `mmap` the file read-only (owned aligned buffer as the fallback),
//!   verify the checksum in one sequential pass, validate the section
//!   table and the structural invariants — then hand out a borrowed
//!   [`FlatStoreView`] whose slices point **into the mapping**. First
//!   query runs straight off the page cache; nothing is parsed into
//!   owned nodes, ever.
//! * **Search** ([`FlatStoreView`]): the level-synchronous, group-at-a-time
//!   masked-distance traversal, shared — this crate hosts the single
//!   implementation and `ha-core`'s `FlatHaIndex` delegates to it, so
//!   mapped answers are byte-for-byte identical to in-memory ones.
//!
//! Corruption is a first-class input: every way a file can be damaged
//! surfaces as a typed [`StoreError`], never a panic, never UB, never a
//! wrong answer. The envelope checksum rejects any bit flip; the
//! structural validator rejects anything a checksum can't express
//! (see `FlatStoreView::new`).
//!
//! ```
//! use ha_bitcode::BinaryCode;
//! use ha_store::{FlatParts, HaStore, store_bytes};
//!
//! // An empty 16-bit snapshot, serialized and re-opened zero-copy.
//! let child_start = [0u32];
//! let leaf_ids_start = [0u32];
//! let parts = FlatParts {
//!     code_len: 16, words: 1, root_count: 0, tuple_count: 0, epoch: 0,
//!     child_start: &child_start, children: &[], planes: &[],
//!     leaf_slot: &[], leaf_code_words: &[], leaf_ids_start: &leaf_ids_start,
//!     leaf_ids: &[], leaf_sorted: &[], group_layout: &[], leaf_suffix: 0,
//! };
//! let store = HaStore::open_bytes(store_bytes(&parts)).unwrap();
//! assert!(store.view().search(&BinaryCode::zero(16), 16).is_empty());
//! ```

mod buf;
pub mod error;
pub mod layout;
pub mod store;
pub mod view;
pub mod write;

pub use error::StoreError;
pub use layout::{StoreMeta, MAGIC, VERSION};
pub use store::HaStore;
pub use view::{FlatParts, FlatStoreView};
pub use write::{store_bytes, write_store_file};
