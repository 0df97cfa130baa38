//! Binary-code substrate for Hamming-distance similarity search.
//!
//! This crate provides the data representations that every layer above it
//! (the HA-Index, the baselines, the MapReduce join) is built on:
//!
//! * [`BinaryCode`] — a fixed-length string of bits (the output of a learned
//!   similarity hash function), packed into machine words, with
//!   XOR+popcount Hamming distance and bit-level accessors.
//! * [`gray`] — binary-reflected Gray-code encode/decode and the *Gray
//!   rank*, the sort key that gives Gray ordering its clustering property
//!   (Proposition 2 of the paper): consecutive codes in Gray order differ
//!   in few bits and therefore share long common subsequences.
//! * [`MaskedCode`] — a bit pattern with *don't-care* positions. This is the
//!   paper's FLSS ("fixed-length substring": the cared positions are
//!   contiguous) and FLSSeq ("fixed-length subsequence": the cared positions
//!   are arbitrary) unified in one type. Masked Hamming distance against a
//!   query is a lower bound for every code matching the pattern — the
//!   *Hamming downward-closure property* (Proposition 1) that lets an index
//!   discard whole groups of tuples with a single distance computation.
//! * [`segment`] — fixed-width segmentation helpers used by the Static
//!   HA-Index, the segment-signature baselines (Manku's multi-hash tables,
//!   HEngine, HmSearch) and MIH.
//! * [`chunk`] — chunked-probe kernels for Multi-Index Hashing: exact
//!   neighborhood sizes, deterministic neighborhood enumeration (also the
//!   radius-1 signature ball of the segment-signature baselines), and the
//!   early-exit word-slice distance used for candidate verification.
//! * [`kernels`] — HA-Kern: the sibling-group distance kernels behind
//!   every frozen-snapshot search path ([`Kernel`] × [`GroupLayout`]
//!   dispatched through [`masked_distance_group`]), with AVX-512
//!   `VPOPCNTQ` / AVX2 kernels selected once per process from the CPU's
//!   feature flags ([`Kernel::detect`]) — the only code in a default
//!   build that reaches the hardware popcount. See `docs/KERNELS.md` for
//!   the tuning guide.
//! * [`mix`] — the splitmix64 finalizer [`mix::mix64`] that slots chunk
//!   values in MIH's hashed bucket directories.
//! * [`pool`] — the scoped work-stealing [`pool::fan_out`]: the one
//!   fan-out primitive behind `HaServe` shard probes, with results reassembled in task order so parallel merges
//!   stay byte-identical to sequential ones.
//!
//! # Bit-order convention
//!
//! Bit `0` is the **leftmost / most significant** bit, matching the string
//! notation of the paper (`"001001010"` has bit 0 = `0`). Codes therefore
//! compare lexicographically exactly like their string forms, and the Gray
//! rank of a code is itself a code of the same width that compares in Gray
//! order.
//!
//! ```
//! use ha_bitcode::BinaryCode;
//!
//! let a: BinaryCode = "001001010".parse().unwrap();
//! let b: BinaryCode = "101100010".parse().unwrap();
//! assert_eq!(a.hamming(&b), 3);
//! ```

pub mod chunk;
mod code;
mod error;
pub mod fnv;
pub mod gray;
pub mod kernels;
mod masked;
pub mod mix;
pub mod pool;
pub mod segment;
mod words;

pub use code::BinaryCode;
pub use error::BitCodeError;
pub use kernels::{masked_distance_group, GroupLayout, Kernel};
pub use masked::MaskedCode;

/// Maximum supported code length in bits.
///
/// The paper evaluates 32- and 64-bit codes; we allow up to 1024 so that
/// long experimental codes (e.g. 512-bit GIST-style hashes) fit.
pub const MAX_BITS: usize = 1024;

/// Number of bits stored inline (without heap allocation) by [`BinaryCode`].
pub const INLINE_BITS: usize = 128;
