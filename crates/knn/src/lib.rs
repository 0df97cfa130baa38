//! # ha-knn — k-nearest-neighbour search over hashed codes
//!
//! §2 and §6.1.4 of the paper: approximate kNN-select/kNN-join ride on
//! Hamming-select — hash the data, run a Hamming range query, enlarge the
//! threshold until `k` answers accumulate, rank, return. Any
//! [`HammingIndex`](ha_core::HammingIndex) accelerates it; the HA-Index is
//! what makes the repeated range probes cheap.
//!
//! Baselines for the Table 5 comparison:
//!
//! * [`E2Lsh`] — the classic data-independent p-stable LSH
//!   (Andoni–Indyk, the paper's reference \[18\]), 20 tables in the paper's
//!   setup;
//! * [`LsbTree`] — Tao et al.'s LSB-Tree (reference \[26\]): Z-order the LSH
//!   projections, index the Z-values in B-trees, probe by locality.
//!
//! [`exact`] supplies ground truth and the precision/recall metrics used
//! in Figure 10b.

#![forbid(unsafe_code)]

pub mod e2lsh;
pub mod exact;
pub mod knn_select;
pub mod lsb_tree;

pub use e2lsh::E2Lsh;
pub use exact::{exact_knn, precision_recall, Neighbour};
pub use knn_select::{knn_join, knn_select};
pub use lsb_tree::LsbTree;
