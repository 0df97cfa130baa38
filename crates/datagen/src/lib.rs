//! # ha-datagen — the evaluation datasets, synthesized
//!
//! The paper evaluates on three real collections: NUS-WIDE (269,648 web
//! images, 225-d color moments), a 1M-image Flickr crawl (512-d GIST), and
//! 1M DBPedia documents (250 LDA topics). None of those are redistributable
//! here, so this crate generates **shape-matched substitutes** (see
//! DESIGN.md's substitution table): Gaussian-mixture clouds with each
//! dataset's dimensionality, clusteredness, and skew profile — the
//! properties the experiments actually exercise through the hash → code →
//! index pipeline.
//!
//! Also implemented, directly from §6:
//!
//! * the paper's **“×s” scale-up**: enlarge a dataset while keeping its
//!   per-dimension value distribution, by frequency-rank value stepping
//!   ([`scaleup`]);
//! * **reservoir sampling** (Vitter's Algorithm R, the paper's reference
//!   \[22\]) used by the preprocessing phase ([`sample`]).

#![forbid(unsafe_code)]

pub mod generate;
pub mod profile;
pub mod sample;
pub mod scaleup;

pub use generate::{generate, generate_with_labels};
pub use profile::DatasetProfile;
pub use sample::reservoir_sample;
pub use scaleup::scale_up;
