//! # hamming-suite
//!
//! One-stop facade for the HA-Index reproduction of *"Efficient Processing
//! of Hamming-Distance-Based Similarity-Search Queries Over MapReduce"*
//! (Tang, Yu, Aref, Malluhi, Ouzzani — EDBT 2015).
//!
//! The workspace is layered bottom-up; this crate re-exports each layer
//! under a stable module name so applications depend on one crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`bitcode`] | `ha-bitcode` | binary codes, Gray order, masked patterns |
//! | [`hashing`] | `ha-hashing` | learned similarity hash functions |
//! | [`index`] | `ha-core` | HA-Index (static/dynamic) + all baselines |
//! | [`store`] | `ha-store` | HA-Store: mmap-able persistent snapshots, zero-copy cold starts |
//! | [`knn`] | `ha-knn` | approximate kNN-select/join, LSH & LSB-Tree |
//! | [`mapreduce`] | `ha-mapreduce` | the MapReduce runtime + metrics |
//! | [`datagen`] | `ha-datagen` | dataset profiles, sampling, scale-up |
//! | [`distributed`] | `ha-distributed` | MR Hamming-join, PMH & PGBJ |
//! | [`service`] | `ha-service` | HA-Serve: online sharded query serving |
//! | [`obs`] | `ha-obs` | HA-Trace: spans, events, metrics, sinks |
//!
//! ## Quickstart
//!
//! ```
//! use hamming_suite::bitcode::BinaryCode;
//! use hamming_suite::index::{DynamicHaIndex, HammingIndex};
//!
//! // Index the running example of the paper (Table 2a)…
//! let codes: Vec<BinaryCode> = [
//!     "001001010", "001011101", "011001100", "101001010",
//!     "101110110", "101011101", "101101010", "111001100",
//! ].iter().map(|s| s.parse().unwrap()).collect();
//! let index = DynamicHaIndex::build(codes.iter().cloned().enumerate()
//!     .map(|(i, c)| (c, i as u64)));
//!
//! // …and run the paper's Hamming-select: query 101100010 with h = 3.
//! let query: BinaryCode = "101100010".parse().unwrap();
//! let mut hits = index.search(&query, 3);
//! hits.sort_unstable();
//! assert_eq!(hits, vec![0, 3, 4, 6]); // t0, t3, t4, t6
//! ```

#![forbid(unsafe_code)]

pub use ha_bitcode as bitcode;
pub use ha_core as index;
pub use ha_datagen as datagen;
pub use ha_distributed as distributed;
pub use ha_hashing as hashing;
pub use ha_knn as knn;
pub use ha_mapreduce as mapreduce;
pub use ha_obs as obs;
pub use ha_service as service;
pub use ha_store as store;

// Compile-check the `rust` code blocks of the README and the docs/
// pages as doctests, so the documentation can't drift from the API it
// shows. (Blocks not meant to compile are fenced `text`/`bash`/
// `console`; rustdoc only builds `rust`/unannotated fences.)
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
pub struct ReadmeDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/ARCHITECTURE.md")]
pub struct ArchitectureDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/OBSERVABILITY.md")]
pub struct ObservabilityDoctests;

#[cfg(doctest)]
#[doc = include_str!("../docs/KERNELS.md")]
pub struct KernelsDoctests;
