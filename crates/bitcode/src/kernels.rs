//! HA-Kern — the distance-kernel layer behind every frozen-snapshot
//! search path.
//!
//! One sibling group is `2 · words · group` contiguous words, and the
//! sweep over it is XOR + AND + popcount + add per word. Three things
//! decide how fast that goes:
//!
//! * **Which popcount.** The workspace builds for baseline x86-64, which
//!   has no `popcnt` instruction: every `count_ones()` in portable code
//!   lowers to a ~12-instruction bit-twiddling expansion (`objdump -d` of
//!   a release binary shows no `popcnt` outside this module). The
//!   `#[target_feature]` kernels in the private `x86` module are the only
//!   code that reaches the hardware popcount — AVX-512 `VPOPCNTQ`, 8 words
//!   per instruction, or the scalar `popcnt` the AVX2 tier re-compiles
//!   the lane bodies with — and they are picked at run time from what the
//!   CPU reports ([`Kernel::detect`]), so one portable binary runs the
//!   fastest kernel of whichever host it lands on.
//! * **Wide groups, narrow codes** (clustered 64-bit data): the sweep is
//!   popcount-throughput-bound and a per-sibling `a <= limit` branch plus
//!   the load→xor→popcount→add dependency chain serialize it. The
//!   *lane-chunked* kernels process siblings in fixed-size lanes with the
//!   branch hoisted to lane granularity, so several popcounts stay in
//!   flight; the AVX-512 kernel is the same shape with one lane per
//!   vector.
//! * **Narrow groups, wide codes** (sparse 512-bit data): most siblings
//!   die on their first word or two, and the SoA plane order forces the
//!   kernel to come back to every sibling once per word-plane anyway. A
//!   *row-major* (AoS) group layout — each sibling's `bits` row then
//!   `mask` row, contiguous — lets the kernel finish one sibling with a
//!   single early-exiting streak, exactly like the arena's
//!   `MaskedCode::distance_to`, but over contiguous memory. A 512-bit
//!   AoS row is two cache lines, i.e. two whole vectors for AVX-512.
//! * **Groups of leaves.** Along any root-to-leaf path the masks are
//!   disjoint, cover every bit and spell the leaf's code, so a leaf's
//!   accumulated masked distance is exactly the full Hamming distance
//!   from the query to its code. A group whose children are all leaves
//!   therefore needs no pattern at all: [`hamming_distance_rows`] sweeps
//!   the leaves' stored code rows — one `words`-word row per leaf instead
//!   of a `2 · words` `bits‖mask` pattern, i.e. one cache line instead of
//!   two for 512-bit codes — and ignores the parent's accumulator. At 8
//!   words AVX-512 loads each row as one vector; at 1 word it counts 8
//!   rows per `VPOPCNTQ`.
//!
//! Both layouts occupy the **same** `2 · words · group` words per group,
//! so a snapshot can choose per group (`ha-core`'s freeze lays narrow
//! groups of multi-word codes out AoS) without disturbing any base-offset
//! arithmetic; the choice travels as one byte per group ([`GroupLayout`]).
//!
//! [`masked_distance_group`] is the single, safe, length-checked dispatch
//! point: a [`Kernel`] (runtime choice) × [`GroupLayout`] (per-group
//! data) pair selects the implementation. Every [`Kernel`] is nameable on
//! every host; one the CPU cannot run ([`Kernel::is_available`]) is
//! served by [`Kernel::Lanes`], so the test and bench matrices iterate
//! [`Kernel::ALL`] unconditionally.
//!
//! # Contract (all kernels)
//!
//! `acc[s]` carries sibling `s`'s accumulated parent-path distance on
//! entry. On exit, `acc[s] <= limit` implies `acc[s]` is the exact
//! accumulated distance including sibling `s`'s own pattern (saturating
//! at `u32::MAX`); `acc[s] > limit` means pruned, and the value may be
//! partial — kernels are free to stop work on a sibling, a lane, or the
//! whole group once everything in it is over budget. With
//! `limit == u32::MAX` nothing can be pruned, so every kernel returns
//! bit-exact distances (the property the trace renderer relies on).
//!
//! [`hamming_distance_rows`] keeps the same contract with no accumulator
//! on entry: `out[s] <= limit` implies `out[s]` is the exact Hamming
//! distance from the query to row `s`; `out[s] > limit` means pruned.

/// Physical order of one sibling group's pattern words.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GroupLayout {
    /// Structure-of-arrays word-planes (the original HA-Flat layout; best
    /// for wide groups of narrow codes): for each word index `w` of the
    /// code, first the *bits* word `w` of every sibling, then the *mask*
    /// word `w` of every sibling.
    ///
    /// ```text
    /// [ bits w0 of s0..s(g-1) | mask w0 of s0..s(g-1) |
    ///   bits w1 of s0..s(g-1) | mask w1 of s0..s(g-1) | … ]
    /// ```
    Soa,
    /// Row-major: sibling 0's bits words then mask words, sibling 1's,
    /// … (best for small groups of wide codes, where per-sibling early
    /// exit beats plane sweeping and transposition buys nothing).
    Aos,
}

impl GroupLayout {
    /// Both layouts, in dispatch order.
    pub const ALL: [GroupLayout; 2] = [GroupLayout::Soa, GroupLayout::Aos];

    /// Wire encoding of the layout flag (one byte per group in the
    /// HA-Store v2 format): `Soa` = 0, `Aos` = 1.
    pub fn flag(self) -> u8 {
        match self {
            GroupLayout::Soa => 0,
            GroupLayout::Aos => 1,
        }
    }

    /// Decodes a wire flag; any nonzero byte reads as `Aos` (the store
    /// validator rejects flags outside {0, 1} before search ever runs).
    pub fn from_flag(flag: u8) -> GroupLayout {
        if flag == 0 {
            GroupLayout::Soa
        } else {
            GroupLayout::Aos
        }
    }

    /// Stable lower-case name used in benches and tables.
    pub fn name(self) -> &'static str {
        match self {
            GroupLayout::Soa => "soa",
            GroupLayout::Aos => "aos",
        }
    }
}

/// Which kernel implementation services a group.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Kernel {
    /// The one reference: branchy per-sibling scalar loops every other
    /// kernel is tested against. SoA bails out of a sibling as soon as
    /// its accumulator exceeds the limit and out of the group once no
    /// sibling is within budget; AoS is one early-exiting streak per
    /// sibling.
    Scalar,
    /// Portable lane-chunked kernels, the fallback on every CPU: siblings
    /// processed in lanes of [`LANES`] (SoA) / words in unrolled blocks
    /// of 4 (AoS), liveness checked per lane, popcounts unrolled so they
    /// pipeline.
    Lanes,
    /// The lane-chunked bodies compiled a second time with AVX2 and the
    /// scalar `popcnt` instruction enabled (x86-64 CPUs since ~2013).
    Avx2,
    /// Hand-written AVX-512 `VPOPCNTQ` kernels: 8 siblings per vector
    /// (SoA) / 8 words of one row per vector (AoS); leaf rows one per
    /// vector at 8 words, 8 per vector at 1 word. Needs `avx512f`,
    /// `avx512vl` and `avx512vpopcntdq` (Ice Lake / Zen 4 and later).
    Avx512,
}

impl Kernel {
    /// Every kernel, slowest first — the bench/test matrix.
    pub const ALL: [Kernel; 4] = [Kernel::Scalar, Kernel::Lanes, Kernel::Avx2, Kernel::Avx512];

    /// The fastest kernel the CPU this process is *running on* can
    /// execute, probed once (`is_x86_feature_detected!`) and cached:
    /// [`Kernel::Avx512`], else [`Kernel::Avx2`], else the portable
    /// [`Kernel::Lanes`]. The build itself assumes nothing beyond
    /// baseline x86-64 — no `-C target-cpu`, no Cargo feature — so the
    /// same binary runs everywhere and this probe is the only thing that
    /// decides which instructions sweep a group.
    ///
    /// Every kernel computes identical distances, so the choice is pure
    /// performance: callers (freeze, serve) may cache or override it
    /// freely without affecting results.
    pub fn detect() -> Kernel {
        static DETECTED: std::sync::OnceLock<Kernel> = std::sync::OnceLock::new();
        *DETECTED.get_or_init(|| {
            #[cfg(target_arch = "x86_64")]
            {
                use std::arch::is_x86_feature_detected as has;
                if has!("avx2") && has!("popcnt") {
                    // The AVX-512 kernels hand small shapes to the AVX2
                    // ones, so that tier is part of what they need.
                    if has!("avx512f") && has!("avx512vl") && has!("avx512vpopcntdq") {
                        return Kernel::Avx512;
                    }
                    return Kernel::Avx2;
                }
            }
            Kernel::Lanes
        })
    }

    /// Whether this CPU can run the kernel natively: the portable two
    /// always, a vector kernel up to the tier [`Kernel::detect`] found.
    /// Naming an unavailable kernel is allowed: [`masked_distance_group`]
    /// serves it with [`Kernel::Lanes`].
    pub fn is_available(self) -> bool {
        match self {
            Kernel::Scalar | Kernel::Lanes => true,
            Kernel::Avx2 => matches!(Kernel::detect(), Kernel::Avx2 | Kernel::Avx512),
            Kernel::Avx512 => Kernel::detect() == Kernel::Avx512,
        }
    }

    /// The kernel that runs when `self` is named: itself where the CPU
    /// has it (`available`), the portable lanes otherwise.
    fn or_lanes(self, available: bool) -> Kernel {
        if available {
            self
        } else {
            Kernel::Lanes
        }
    }

    /// Stable lower-case name used in benches, tables and the
    /// `exec.kernel.<name>` counter.
    pub fn name(self) -> &'static str {
        match self {
            Kernel::Scalar => "scalar",
            Kernel::Lanes => "lanes",
            Kernel::Avx2 => "avx2",
            Kernel::Avx512 => "avx512",
        }
    }
}

/// Sibling-lane width of the lane-chunked and AVX-512 SoA kernels:
/// 8 × u64 = one 64-byte cache line (one `zmm`) of plane data per step.
pub const LANES: usize = 8;

/// Words per unrolled block of the lane-chunked AoS kernel.
const AOS_UNROLL: usize = 4;

#[inline(always)]
fn pop(q: u64, bits: u64, mask: u64) -> u32 {
    ((q ^ bits) & mask).count_ones()
}

/// Whether any accumulator of a lane is still within budget.
#[inline(always)]
fn any_live(lane: &[u32; LANES], limit: u32) -> bool {
    lane.iter().any(|&a| a <= limit)
}

/// Batch masked-distance over one sibling group — the single dispatch
/// point of HA-Kern (see module docs for the contract).
///
/// `planes` holds the group's `2 * query.len() * group` pattern words in
/// `layout` order; `kernel` picks the implementation at runtime.
///
/// # Panics
/// If `planes.len() != 2 * query.len() * group` or `acc.len() != group`.
/// Both are checked in every build: the vector kernels read `planes` and
/// write `acc` through raw pointers, and these two checks are what keeps
/// every such access in bounds.
pub fn masked_distance_group(
    kernel: Kernel,
    layout: GroupLayout,
    query: &[u64],
    planes: &[u64],
    group: usize,
    limit: u32,
    acc: &mut [u32],
) {
    assert_eq!(
        planes.len(),
        2 * query.len() * group,
        "planes must hold bits+mask words for every sibling"
    );
    assert_eq!(acc.len(), group, "one accumulator per sibling");
    if group == 0 || query.is_empty() {
        return;
    }
    match (kernel.or_lanes(kernel.is_available()), layout) {
        (Kernel::Scalar, GroupLayout::Soa) => soa_scalar(query, planes, group, limit, acc),
        (Kernel::Scalar, GroupLayout::Aos) => aos_scalar(query, planes, limit, acc),
        // The vector kernels. `or_lanes` returns one only when
        // `is_available` found its CPU features, and the two asserts
        // above are the lengths the AVX-512 pair requires.
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CPU features and both lengths checked above.
        (Kernel::Avx512, GroupLayout::Soa) => unsafe {
            x86::soa_avx512(query, planes, group, limit, acc)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CPU features and both lengths checked above.
        (Kernel::Avx512, GroupLayout::Aos) => unsafe { x86::aos_avx512(query, planes, limit, acc) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CPU features checked above.
        (Kernel::Avx2, GroupLayout::Soa) => unsafe {
            x86::soa_avx2(query, planes, group, limit, acc)
        },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CPU features checked above.
        (Kernel::Avx2, GroupLayout::Aos) => unsafe { x86::aos_avx2(query, planes, limit, acc) },
        // `Lanes` — and, off x86-64, the variants `or_lanes` never returns.
        (_, GroupLayout::Soa) => soa_lanes(query, planes, group, limit, acc),
        (_, GroupLayout::Aos) => aos_lanes(query, planes, limit, acc),
    }
}

/// Full Hamming distances from `query` to `out.len()` consecutive
/// `query.len()`-word code rows — the leaf row sweep (see module docs
/// for why a group of leaves needs no pattern, and for the contract).
/// `out` is written, never read: the parent's accumulator is not needed.
///
/// # Panics
/// If `rows.len() != query.len() * out.len()`. Checked in every build:
/// the vector kernels read `rows` and write `out` through raw pointers,
/// and this check is what keeps every such access in bounds.
pub fn hamming_distance_rows(
    kernel: Kernel,
    query: &[u64],
    rows: &[u64],
    limit: u32,
    out: &mut [u32],
) {
    assert_eq!(
        rows.len(),
        query.len() * out.len(),
        "rows must hold one code row per output"
    );
    if query.is_empty() {
        out.fill(0);
        return;
    }
    match kernel.or_lanes(kernel.is_available()) {
        Kernel::Scalar => rows_scalar(query, rows, limit, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CPU features and the length checked above.
        Kernel::Avx512 => unsafe { x86::rows_avx512(query, rows, limit, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: CPU features checked above.
        Kernel::Avx2 => unsafe { x86::rows_avx2(query, rows, limit, out) },
        // `Lanes` — and, off x86-64, the variants `or_lanes` never returns.
        _ => rows_lanes(query, rows, limit, out),
    }
}

/// Scalar row sweep: one early-exiting xor + popcount streak per row.
fn rows_scalar(query: &[u64], rows: &[u64], limit: u32, out: &mut [u32]) {
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(query.len())) {
        let mut d = 0u32;
        for (&q, &r) in query.iter().zip(row) {
            d = d.saturating_add((q ^ r).count_ones());
            if d > limit {
                break;
            }
        }
        *o = d;
    }
}

/// Lane-chunked row sweep: one-word rows in a branch-free pass; wider
/// rows as a streak of unrolled blocks of [`AOS_UNROLL`] words with the
/// budget checked once per block, so the popcounts pipeline.
#[inline(always)]
fn rows_lanes(query: &[u64], rows: &[u64], limit: u32, out: &mut [u32]) {
    if let [q] = query {
        for (o, &r) in out.iter_mut().zip(rows) {
            *o = (q ^ r).count_ones();
        }
        return;
    }
    let w = query.len();
    let x = |q: u64, r: u64| (q ^ r).count_ones();
    for (o, row) in out.iter_mut().zip(rows.chunks_exact(w)) {
        let mut d = 0u32;
        let mut i = 0;
        while i + AOS_UNROLL <= w {
            let block = x(query[i], row[i])
                + x(query[i + 1], row[i + 1])
                + x(query[i + 2], row[i + 2])
                + x(query[i + 3], row[i + 3]);
            d = d.saturating_add(block);
            if d > limit {
                break;
            }
            i += AOS_UNROLL;
        }
        while i < w && d <= limit {
            d = d.saturating_add(x(query[i], row[i]));
            i += 1;
        }
        *o = d;
    }
}

/// Scalar SoA sweep: one branchy step per sibling per word-plane; a
/// sibling over budget is skipped from then on, and once a plane ends
/// with nobody within budget the remaining planes are skipped.
fn soa_scalar(query: &[u64], planes: &[u64], group: usize, limit: u32, acc: &mut [u32]) {
    for (plane, &q) in planes.chunks_exact(2 * group).zip(query) {
        let (bits, mask) = plane.split_at(group);
        let mut live = false;
        for s in 0..group {
            let a = acc[s];
            if a <= limit {
                let d = a.saturating_add(pop(q, bits[s], mask[s]));
                acc[s] = d;
                live |= d <= limit;
            }
        }
        if !live {
            return;
        }
    }
}

/// Lane-chunked SoA sweep: per word-plane, siblings go by in lanes of
/// [`LANES`]; a lane whose accumulators are all over budget is skipped
/// whole (the scalar kernel's per-sibling branch, at 1/8 the frequency),
/// a live lane runs branch-free with its popcounts unrolled. Group-level
/// bail-out is unchanged: once a plane ends with nobody within budget,
/// the remaining planes are skipped.
#[inline(always)]
fn soa_lanes(query: &[u64], planes: &[u64], group: usize, limit: u32, acc: &mut [u32]) {
    // Single word-plane (64-bit codes): there is no next plane to bail
    // out of, so liveness tracking buys nothing — run one branch-free
    // pass. Dead-on-entry accumulators only grow (saturating), so they
    // stay over budget, and live ones get their exact distance.
    if let [q] = query {
        let (bits, mask) = planes.split_at(group);
        for (a, (&b, &m)) in acc.iter_mut().zip(bits.iter().zip(mask)) {
            *a = a.saturating_add(pop(*q, b, m));
        }
        return;
    }
    for (plane, &q) in planes.chunks_exact(2 * group).zip(query) {
        let (bits, mask) = plane.split_at(group);
        let (bits, bits_tail) = bits.as_chunks::<LANES>();
        let (mask, mask_tail) = mask.as_chunks::<LANES>();
        let (lanes, tail) = acc.as_chunks_mut::<LANES>();
        let mut live = false;
        for ((b, m), a) in bits.iter().zip(mask).zip(lanes) {
            if !any_live(a, limit) {
                continue;
            }
            for i in 0..LANES {
                let d = a[i].saturating_add(pop(q, b[i], m[i]));
                a[i] = d;
                live |= d <= limit;
            }
        }
        for ((&b, &m), a) in bits_tail.iter().zip(mask_tail).zip(tail) {
            if *a <= limit {
                *a = a.saturating_add(pop(q, b, m));
                live |= *a <= limit;
            }
        }
        if !live {
            return;
        }
    }
}

/// Scalar AoS sweep: one early-exiting streak per sibling over its
/// contiguous `[bits…, mask…]` row — the arena's per-child distance
/// loop, minus the pointer chase.
fn aos_scalar(query: &[u64], planes: &[u64], limit: u32, acc: &mut [u32]) {
    let w = query.len();
    for (a, row) in acc.iter_mut().zip(planes.chunks_exact(2 * w)) {
        if *a > limit {
            continue;
        }
        let (bits, mask) = row.split_at(w);
        let mut d = *a;
        for i in 0..w {
            d = d.saturating_add(pop(query[i], bits[i], mask[i]));
            if d > limit {
                break;
            }
        }
        *a = d;
    }
}

/// Lane-chunked AoS sweep: like [`aos_scalar`], but each sibling's row
/// is consumed in unrolled blocks of [`AOS_UNROLL`] words with the
/// budget check once per block, so the popcounts pipeline.
#[inline(always)]
fn aos_lanes(query: &[u64], planes: &[u64], limit: u32, acc: &mut [u32]) {
    let w = query.len();
    for (a, row) in acc.iter_mut().zip(planes.chunks_exact(2 * w)) {
        if *a > limit {
            continue;
        }
        let (bits, mask) = row.split_at(w);
        let mut d = *a;
        let mut i = 0;
        while i + AOS_UNROLL <= w {
            let block = pop(query[i], bits[i], mask[i])
                + pop(query[i + 1], bits[i + 1], mask[i + 1])
                + pop(query[i + 2], bits[i + 2], mask[i + 2])
                + pop(query[i + 3], bits[i + 3], mask[i + 3]);
            d = d.saturating_add(block);
            if d > limit {
                break;
            }
            i += AOS_UNROLL;
        }
        while i < w && d <= limit {
            d = d.saturating_add(pop(query[i], bits[i], mask[i]));
            i += 1;
        }
        *a = d;
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    //! The kernels that reach the hardware popcount. Each is compiled
    //! with CPU features the rest of the binary does not assume, so each
    //! may only be called after [`Kernel::is_available`](super::Kernel)
    //! found them — `masked_distance_group` is the only caller.

    use core::arch::x86_64::*;

    use super::LANES;

    /// [`soa_lanes`](super::soa_lanes) with `count_ones()` lowered to the
    /// `popcnt` instruction (and AVX2 open to the auto-vectorizer).
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn soa_avx2(
        query: &[u64],
        planes: &[u64],
        group: usize,
        limit: u32,
        acc: &mut [u32],
    ) {
        super::soa_lanes(query, planes, group, limit, acc)
    }

    /// [`aos_lanes`](super::aos_lanes), compiled like [`soa_avx2`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn aos_avx2(query: &[u64], planes: &[u64], limit: u32, acc: &mut [u32]) {
        super::aos_lanes(query, planes, limit, acc)
    }

    /// [`rows_lanes`](super::rows_lanes), compiled like [`soa_avx2`].
    #[target_feature(enable = "avx2,popcnt")]
    pub(super) fn rows_avx2(query: &[u64], rows: &[u64], limit: u32, out: &mut [u32]) {
        super::rows_lanes(query, rows, limit, out)
    }

    /// AVX-512 SoA sweep: siblings go by in blocks of 8, and one block's
    /// accumulators stay in a register (as `u64` lanes, so nothing can
    /// overflow before the final saturating narrow) across all its
    /// word-planes. A block leaves its plane loop as soon as none of its
    /// lanes is within budget, which subsumes the scalar kernel's
    /// group-level bail-out. The last block of a group that is not a
    /// multiple of 8 runs the same code under a lane mask.
    ///
    /// # Safety
    /// The CPU must have the enabled features, `planes.len()` must be
    /// `2 * query.len() * group` and `acc.len()` must be `group`.
    #[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq,avx2,popcnt")]
    pub(super) unsafe fn soa_avx512(
        query: &[u64],
        planes: &[u64],
        group: usize,
        limit: u32,
        acc: &mut [u32],
    ) {
        // One block of one plane — 64-bit-or-shorter codes in groups of up
        // to 8, the join's whole workload — is too little work for a
        // vector: the caller has just filled `acc` with narrow stores a
        // 32-byte load cannot forward from, and waiting for them to drain
        // costs more than 8 scalar `popcnt`s.
        if query.len() == 1 && group <= LANES {
            return soa_avx2(query, planes, group, limit, acc);
        }
        let lim = _mm512_set1_epi64(i64::from(limit));
        // Sweeps the block of siblings `s ..` that lane mask `k` selects.
        // (Called directly, never through an iterator adaptor: the closure
        // carries this function's target features, and code compiled
        // without them could not inline it.)
        let mut block = |s: usize, k: __mmask8| {
            let a = acc[s..].as_mut_ptr();
            // SAFETY: `k` selects lanes inside `s .. group`, all inside
            // `acc` (`acc.len() == group`); masked-off lanes are not
            // accessed.
            let mut d = _mm512_cvtepu32_epi64(unsafe { _mm256_maskz_loadu_epi32(k, a.cast()) });
            for (w, &q) in query.iter().enumerate() {
                if k & _mm512_cmple_epu64_mask(d, lim) == 0 {
                    break;
                }
                // SAFETY: plane `w` is `planes[2 * w * group ..][.. 2 * group]`
                // (bits then mask, `group` words each) and `w < query.len()`,
                // so both loads stay inside `planes` for the lanes `k` selects.
                let (b, m) = unsafe {
                    let bits = planes.as_ptr().add(2 * w * group + s);
                    (
                        _mm512_maskz_loadu_epi64(k, bits.cast()),
                        _mm512_maskz_loadu_epi64(k, bits.add(group).cast()),
                    )
                };
                let x = _mm512_and_si512(_mm512_xor_si512(_mm512_set1_epi64(q as i64), b), m);
                d = _mm512_add_epi64(d, _mm512_popcnt_epi64(x));
            }
            // SAFETY: same lanes of `acc` as the load above.
            unsafe { _mm256_mask_storeu_epi32(a.cast(), k, _mm512_cvtusepi64_epi32(d)) };
        };
        // Full blocks get a constant all-ones mask, which the compiler
        // folds into plain loads and stores.
        let full = group - group % LANES;
        for s in (0..full).step_by(LANES) {
            block(s, 0xFF);
        }
        if full < group {
            block(full, (1 << (group - full)) - 1);
        }
    }

    /// AVX-512 AoS sweep for 512-bit codes — the shape the freeze policy
    /// stores row-major. A row is exactly one `bits` vector and one `mask`
    /// vector (the two cache lines even the scalar streak touches on its
    /// first word), loaded whole with the query held in a register; the 8
    /// count vectors of a block of 8 siblings are summed by one
    /// transposing add tree (14 shuffles) instead of 8 horizontal
    /// reductions, straight into the block's accumulators. At any other
    /// width a row is not a whole number of vectors, and masked loads plus
    /// a reduction per row measured slower than the scalar `popcnt`
    /// streak, so those go to [`aos_avx2`].
    ///
    /// # Safety
    /// The CPU must have the enabled features and `planes.len()` must be
    /// `2 * query.len() * acc.len()`.
    #[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq,avx2,popcnt")]
    pub(super) unsafe fn aos_avx512(query: &[u64], planes: &[u64], limit: u32, acc: &mut [u32]) {
        if query.len() != LANES {
            return aos_avx2(query, planes, limit, acc);
        }
        // SAFETY: `query` holds exactly 8 words.
        let q = unsafe { _mm512_loadu_si512(query.as_ptr().cast()) };
        // SAFETY: for `s < acc.len()`, row `s` is `planes[16 * s ..][.. 16]`,
        // inside `planes` because `planes.len() == 16 * acc.len()`.
        let counts = |s: usize| unsafe {
            let row = planes.as_ptr().add(2 * LANES * s);
            let b = _mm512_loadu_si512(row.cast());
            let m = _mm512_loadu_si512(row.add(LANES).cast());
            _mm512_popcnt_epi64(_mm512_and_si512(_mm512_xor_si512(q, b), m))
        };
        // [x0+x1, y0+y1, x2+x3, y2+y3, …]: halves each vector, interleaved.
        let pair =
            |x, y| _mm512_add_epi64(_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y));
        // Sums the 128-bit quarters of `x` and of `y` pairwise into the
        // low and the high half of the result.
        let fold = |x, y| {
            _mm512_add_epi64(
                _mm512_shuffle_i64x2::<0x88>(x, y),
                _mm512_shuffle_i64x2::<0xDD>(x, y),
            )
        };
        // (These closures carry this function's target features, so an
        // iterator adaptor compiled without them could not inline them:
        // they are only ever called directly.)
        let (blocks, tail) = acc.as_chunks_mut::<LANES>();
        let mut s = 0;
        for a in blocks {
            if super::any_live(a, limit) {
                // Lane `i` of `sums` is the total of row `s + i`'s counts.
                let sums = fold(
                    fold(
                        pair(counts(s), counts(s + 1)),
                        pair(counts(s + 2), counts(s + 3)),
                    ),
                    fold(
                        pair(counts(s + 4), counts(s + 5)),
                        pair(counts(s + 6), counts(s + 7)),
                    ),
                );
                // SAFETY: `a` is exactly 8 `u32`s. (Loaded only now, after
                // the rows: the caller's narrow stores that filled `acc`
                // cannot be forwarded to a 32-byte load, but have drained
                // by the time the counts are in.)
                unsafe {
                    let d = _mm512_cvtepu32_epi64(_mm256_loadu_si256(a.as_ptr().cast()));
                    let d = _mm512_cvtusepi64_epi32(_mm512_add_epi64(d, sums));
                    _mm256_storeu_si256(a.as_mut_ptr().cast(), d);
                }
            }
            s += LANES;
        }
        for a in tail {
            if *a <= limit {
                *a = a.saturating_add(_mm512_reduce_add_epi64(counts(s)) as u32);
            }
            s += 1;
        }
    }

    /// AVX-512 row sweep, for the two widths where a row fills vectors
    /// exactly. At 8 words (512-bit codes) each row is one vector, and
    /// a block of 8 rows is summed by [`aos_avx512`]'s transposing add
    /// tree straight into 8 outputs. At 1 word (64-bit codes) one
    /// `VPOPCNTQ` counts 8 rows, the last partial block under a lane
    /// mask. Neither reads `out` nor stops early: every distance is
    /// exact. Every other width goes to [`rows_avx2`].
    ///
    /// # Safety
    /// The CPU must have the enabled features and `rows.len()` must be
    /// `query.len() * out.len()`.
    #[target_feature(enable = "avx512f,avx512vl,avx512vpopcntdq,avx2,popcnt")]
    pub(super) unsafe fn rows_avx512(query: &[u64], rows: &[u64], limit: u32, out: &mut [u32]) {
        let g = out.len();
        let o = out.as_mut_ptr();
        match query.len() {
            1 => {
                let q = _mm512_set1_epi64(query[0] as i64);
                // Counts rows `s ..` under lane mask `k` into `out[s ..]`.
                let block = |s: usize, k: __mmask8| {
                    // SAFETY: `k` selects lanes inside `s .. g`, and with
                    // one word per row `rows.len() == out.len() == g`;
                    // masked-off lanes are not accessed.
                    unsafe {
                        let r = _mm512_maskz_loadu_epi64(k, rows.as_ptr().add(s).cast());
                        let c = _mm512_popcnt_epi64(_mm512_xor_si512(q, r));
                        _mm256_mask_storeu_epi32(o.add(s).cast(), k, _mm512_cvtepi64_epi32(c));
                    }
                };
                let full = g - g % LANES;
                for s in (0..full).step_by(LANES) {
                    block(s, 0xFF);
                }
                if full < g {
                    block(full, (1 << (g - full)) - 1);
                }
            }
            LANES => {
                // SAFETY: `query` holds exactly 8 words.
                let q = unsafe { _mm512_loadu_si512(query.as_ptr().cast()) };
                // SAFETY: for `s < g`, row `s` is `rows[8 * s ..][.. 8]`,
                // inside `rows` because `rows.len() == 8 * g`.
                let counts = |s: usize| unsafe {
                    let r = _mm512_loadu_si512(rows.as_ptr().add(LANES * s).cast());
                    _mm512_popcnt_epi64(_mm512_xor_si512(q, r))
                };
                // The add tree of `aos_avx512`; called directly for the
                // same inlining reason.
                let pair =
                    |x, y| _mm512_add_epi64(_mm512_unpacklo_epi64(x, y), _mm512_unpackhi_epi64(x, y));
                let fold = |x, y| {
                    _mm512_add_epi64(
                        _mm512_shuffle_i64x2::<0x88>(x, y),
                        _mm512_shuffle_i64x2::<0xDD>(x, y),
                    )
                };
                let full = g - g % LANES;
                for s in (0..full).step_by(LANES) {
                    let sums = fold(
                        fold(
                            pair(counts(s), counts(s + 1)),
                            pair(counts(s + 2), counts(s + 3)),
                        ),
                        fold(
                            pair(counts(s + 4), counts(s + 5)),
                            pair(counts(s + 6), counts(s + 7)),
                        ),
                    );
                    // SAFETY: `out[s .. s + 8]` is inside `out` (`s + 8 <= full <= g`).
                    unsafe { _mm256_storeu_si256(o.add(s).cast(), _mm512_cvtepi64_epi32(sums)) };
                }
                for (s, d) in out.iter_mut().enumerate().skip(full) {
                    *d = _mm512_reduce_add_epi64(counts(s)) as u32;
                }
            }
            _ => rows_avx2(query, rows, limit, out),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random words (splitmix-style mixer).
    fn rng(seed: u64) -> impl FnMut() -> u64 {
        let mut state = seed;
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    /// Packs per-sibling (bits, mask) rows into `layout` order.
    fn pack(group: &[(Vec<u64>, Vec<u64>)], layout: GroupLayout) -> Vec<u64> {
        let words = group.first().map_or(0, |(b, _)| b.len());
        let mut planes = Vec::new();
        match layout {
            GroupLayout::Soa => {
                for w in 0..words {
                    for (bits, _) in group {
                        planes.push(bits[w]);
                    }
                    for (_, mask) in group {
                        planes.push(mask[w]);
                    }
                }
            }
            GroupLayout::Aos => {
                for (bits, mask) in group {
                    planes.extend_from_slice(bits);
                    planes.extend_from_slice(mask);
                }
            }
        }
        planes
    }

    fn naive(query: &[u64], bits: &[u64], mask: &[u64]) -> u32 {
        query
            .iter()
            .zip(bits)
            .zip(mask)
            .map(|((q, b), m)| ((q ^ b) & m).count_ones())
            .sum()
    }

    #[test]
    fn every_kernel_and_layout_matches_naive() {
        let mut next = rng(0x1234_5678);
        for words in [1usize, 2, 4, 8, 16] {
            for group in [1usize, 2, 7, 8, 9, 33] {
                let query: Vec<u64> = (0..words).map(|_| next()).collect();
                let sibs: Vec<(Vec<u64>, Vec<u64>)> = (0..group)
                    .map(|_| {
                        (
                            (0..words).map(|_| next()).collect(),
                            (0..words).map(|_| next()).collect(),
                        )
                    })
                    .collect();
                for layout in GroupLayout::ALL {
                    let planes = pack(&sibs, layout);
                    for kernel in Kernel::ALL {
                        for limit in [0u32, 3, 17, 64, u32::MAX] {
                            for init in [0u32, 2] {
                                let mut acc = vec![init; group];
                                masked_distance_group(
                                    kernel, layout, &query, &planes, group, limit, &mut acc,
                                );
                                for (s, (bits, mask)) in sibs.iter().enumerate() {
                                    let exact = init + naive(&query, bits, mask);
                                    if exact <= limit {
                                        assert_eq!(
                                            acc[s],
                                            exact,
                                            "kernel={} layout={} words={words} group={group} \
                                             limit={limit} sibling={s}",
                                            kernel.name(),
                                            layout.name()
                                        );
                                    } else {
                                        assert!(
                                            acc[s] > limit,
                                            "pruned sibling must stay over budget \
                                             (kernel={} layout={})",
                                            kernel.name(),
                                            layout.name()
                                        );
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    /// Stands in for Miri, which the toolchain here lacks: every small
    /// shape the vector kernels branch on — `words` on both sides of the
    /// 8-word whole-row path, `group` through 0–3 full vectors plus every
    /// tail — at every load/store alignment, with guard words around
    /// `acc`, against the scalar reference.
    #[test]
    fn available_kernels_match_scalar_on_every_small_shape() {
        const CANARY: u32 = 0xDEAD_BEEF;
        let mut next = rng(0xA5A5_0F0F);
        let kernels: Vec<Kernel> = Kernel::ALL
            .into_iter()
            .filter(|k| *k != Kernel::Scalar && k.is_available())
            .collect();
        for words in 1usize..=9 {
            for group in 0usize..=26 {
                let query: Vec<u64> = (0..words).map(|_| next()).collect();
                // Siblings from exact matches to far misses, so every
                // limit has survivors, boundary cases and early exits.
                let sibs: Vec<(Vec<u64>, Vec<u64>)> = (0..group)
                    .map(|s| {
                        let mut bits = query.clone();
                        let flips = [0, 1, 3, 4, 40][s % 5];
                        for _ in 0..flips {
                            let bit = next() as usize % (64 * words);
                            bits[bit / 64] ^= 1 << (bit % 64);
                        }
                        let mask = (0..words).map(|_| next() | next()).collect();
                        (bits, mask)
                    })
                    .collect();
                for limit in [0u32, 3, u32::MAX] {
                    // Seeds: fresh, exactly at the limit, dead on entry,
                    // and one short of saturation.
                    let seeds = [0, limit, limit.saturating_add(1), u32::MAX - 1];
                    let seed: Vec<u32> = (0..group).map(|s| seeds[(s / 5 + s) % 4]).collect();
                    for layout in GroupLayout::ALL {
                        let packed = pack(&sibs, layout);
                        let mut want = seed.clone();
                        masked_distance_group(
                            Kernel::Scalar,
                            layout,
                            &query,
                            &packed,
                            group,
                            limit,
                            &mut want,
                        );
                        for off in 0..8 {
                            let mut qbuf = vec![0u64; off];
                            qbuf.extend_from_slice(&query);
                            let mut pbuf = vec![0u64; off];
                            pbuf.extend_from_slice(&packed);
                            for &kernel in &kernels {
                                let mut abuf = vec![CANARY; off];
                                abuf.extend_from_slice(&seed);
                                abuf.extend_from_slice(&[CANARY; 8]);
                                masked_distance_group(
                                    kernel,
                                    layout,
                                    &qbuf[off..],
                                    &pbuf[off..],
                                    group,
                                    limit,
                                    &mut abuf[off..off + group],
                                );
                                let ctx = format!(
                                    "kernel={} layout={} words={words} group={group} \
                                     limit={limit} offset={off}",
                                    kernel.name(),
                                    layout.name()
                                );
                                assert!(abuf[..off].iter().all(|&c| c == CANARY), "{ctx}");
                                assert!(abuf[off + group..].iter().all(|&c| c == CANARY), "{ctx}");
                                for s in 0..group {
                                    let got = abuf[off + s];
                                    if want[s] <= limit {
                                        assert_eq!(got, want[s], "{ctx} sibling={s}");
                                    } else {
                                        assert!(got > limit, "{ctx} sibling={s}");
                                    }
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn unlimited_budget_is_bit_exact_everywhere() {
        // limit == u32::MAX disables pruning: every kernel × layout must
        // agree exactly, which is what the trace renderer relies on.
        let mut next = rng(99);
        let words = 8;
        let group = 13;
        let query: Vec<u64> = (0..words).map(|_| next()).collect();
        let sibs: Vec<(Vec<u64>, Vec<u64>)> = (0..group)
            .map(|_| {
                (
                    (0..words).map(|_| next()).collect(),
                    (0..words).map(|_| next()).collect(),
                )
            })
            .collect();
        let expect: Vec<u32> = sibs.iter().map(|(b, m)| naive(&query, b, m)).collect();
        for layout in GroupLayout::ALL {
            let planes = pack(&sibs, layout);
            for kernel in Kernel::ALL {
                let mut acc = vec![0u32; group];
                masked_distance_group(kernel, layout, &query, &planes, group, u32::MAX, &mut acc);
                assert_eq!(
                    acc,
                    expect,
                    "kernel={} layout={}",
                    kernel.name(),
                    layout.name()
                );
            }
        }
    }

    #[test]
    fn dead_on_entry_siblings_stay_dead() {
        // An accumulator already over budget must never come back under
        // it, even at the saturation boundary.
        let query = [u64::MAX];
        let planes = [0u64, u64::MAX]; // bits=0, mask=all → popcount 64
        for kernel in Kernel::ALL {
            for layout in GroupLayout::ALL {
                let mut acc = [u32::MAX];
                masked_distance_group(kernel, layout, &query, &planes, 1, 5, &mut acc);
                assert!(
                    acc[0] > 5,
                    "kernel={} layout={}",
                    kernel.name(),
                    layout.name()
                );
            }
        }
    }

    #[test]
    fn degenerate_shapes_do_not_panic() {
        for kernel in Kernel::ALL {
            for layout in GroupLayout::ALL {
                masked_distance_group(kernel, layout, &[0u64; 2], &[], 0, 5, &mut []);
                masked_distance_group(kernel, layout, &[], &[], 3, 5, &mut [0, 1, 2]);
            }
        }
    }

    /// One group of 9 siblings × 8 words with `acc` one short.
    fn short_acc(layout: GroupLayout) {
        let mut acc = [0u32; 8];
        masked_distance_group(Kernel::detect(), layout, &[0; 8], &[0; 144], 9, 5, &mut acc);
    }

    /// The same group with `planes` one word short.
    fn short_planes(layout: GroupLayout) {
        let mut acc = [0u32; 9];
        masked_distance_group(Kernel::detect(), layout, &[0; 8], &[0; 143], 9, 5, &mut acc);
    }

    #[test]
    #[should_panic(expected = "one accumulator per sibling")]
    fn short_acc_panics_soa() {
        short_acc(GroupLayout::Soa);
    }

    #[test]
    #[should_panic(expected = "one accumulator per sibling")]
    fn short_acc_panics_aos() {
        short_acc(GroupLayout::Aos);
    }

    #[test]
    #[should_panic(expected = "planes must hold")]
    fn short_planes_panics_soa() {
        short_planes(GroupLayout::Soa);
    }

    #[test]
    #[should_panic(expected = "planes must hold")]
    fn short_planes_panics_aos() {
        short_planes(GroupLayout::Aos);
    }

    /// The row sweep against a naive xor + popcount sum: every kernel
    /// (one the host lacks runs the lanes), every width either side of
    /// the AVX-512 one- and eight-word bodies, every group through full
    /// vectors plus tails, every limit; rows from exact matches to far
    /// misses, at several alignments, with guard words around `out`.
    #[test]
    fn hamming_rows_match_naive_under_every_kernel() {
        const CANARY: u32 = 0xDEAD_BEEF;
        let mut next = rng(0x0BAD_5EED);
        for words in [1usize, 2, 3, 4, 7, 8, 9, 16] {
            for group in [0usize, 1, 7, 8, 9, 33] {
                let query: Vec<u64> = (0..words).map(|_| next()).collect();
                let rows: Vec<u64> = (0..group)
                    .flat_map(|s| {
                        let mut row = query.clone();
                        for _ in 0..[0, 1, 3, 17, 200][s % 5] {
                            let bit = next() as usize % (64 * words);
                            row[bit / 64] ^= 1 << (bit % 64);
                        }
                        row
                    })
                    .collect();
                let exact: Vec<u32> = rows
                    .chunks_exact(words)
                    .map(|r| query.iter().zip(r).map(|(q, r)| (q ^ r).count_ones()).sum())
                    .collect();
                for kernel in Kernel::ALL {
                    for limit in [0u32, 3, 17, 64, u32::MAX] {
                        for off in [0usize, 1, 3] {
                            let mut rbuf = vec![0u64; off];
                            rbuf.extend_from_slice(&rows);
                            let mut out = vec![CANARY; off];
                            out.extend(std::iter::repeat_n(7u32, group));
                            out.extend_from_slice(&[CANARY; 8]);
                            hamming_distance_rows(
                                kernel,
                                &query,
                                &rbuf[off..],
                                limit,
                                &mut out[off..off + group],
                            );
                            let ctx = format!(
                                "kernel={} words={words} group={group} limit={limit} offset={off}",
                                kernel.name()
                            );
                            assert!(out[..off].iter().all(|&c| c == CANARY), "{ctx}");
                            assert!(out[off + group..].iter().all(|&c| c == CANARY), "{ctx}");
                            for (s, &want) in exact.iter().enumerate() {
                                let got = out[off + s];
                                if want <= limit {
                                    assert_eq!(got, want, "{ctx} row={s}");
                                } else {
                                    assert!(got > limit, "{ctx} row={s}");
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn hamming_rows_of_an_empty_query_are_zero() {
        for kernel in Kernel::ALL {
            let mut out = [9u32; 3];
            hamming_distance_rows(kernel, &[], &[], 5, &mut out);
            assert_eq!(out, [0; 3], "kernel={}", kernel.name());
        }
    }

    #[test]
    #[should_panic(expected = "rows must hold one code row per output")]
    fn short_rows_panic() {
        let mut out = [0u32; 9];
        hamming_distance_rows(Kernel::detect(), &[0; 8], &[0; 71], 5, &mut out);
    }

    #[test]
    #[should_panic(expected = "rows must hold one code row per output")]
    fn short_out_panics() {
        let mut out = [0u32; 8];
        hamming_distance_rows(Kernel::detect(), &[0; 8], &[0; 72], 5, &mut out);
    }

    #[test]
    fn layout_flags_round_trip() {
        assert_eq!(GroupLayout::from_flag(0), GroupLayout::Soa);
        assert_eq!(GroupLayout::from_flag(1), GroupLayout::Aos);
        assert_eq!(GroupLayout::Aos.flag(), 1);
    }

    #[test]
    fn detect_is_available_and_unavailable_kernels_fall_back() {
        // The probe picks the fastest kernel this CPU has, never the
        // reference, and the OnceLock cache makes repeated probes equal.
        let k = Kernel::detect();
        assert!(k.is_available());
        assert_ne!(k, Kernel::Scalar);
        assert_eq!(Kernel::detect(), k);
        assert!(Kernel::ALL
            .into_iter()
            .skip_while(|&a| a != k)
            .skip(1)
            .all(|a| !a.is_available()));

        // A kernel the CPU lacks is served by the portable lanes. Hosts
        // that have it cannot take that branch through the public entry
        // point, so drive the substitution directly, then check that
        // naming any kernel — available here or not — answers like the
        // reference.
        let query = [0x0123_4567_89AB_CDEFu64; 3];
        let planes: Vec<u64> = (0..2 * 3 * 11)
            .map(|i| (i as u64).wrapping_mul(0x9E37_79B9))
            .collect();
        for kernel in Kernel::ALL {
            assert_eq!(kernel.or_lanes(true), kernel);
            assert_eq!(kernel.or_lanes(false), Kernel::Lanes);
            for layout in GroupLayout::ALL {
                let mut want = [1u32; 11];
                masked_distance_group(
                    Kernel::Scalar,
                    layout,
                    &query,
                    &planes,
                    11,
                    u32::MAX,
                    &mut want,
                );
                let mut got = [1u32; 11];
                masked_distance_group(kernel, layout, &query, &planes, 11, u32::MAX, &mut got);
                assert_eq!(
                    got,
                    want,
                    "kernel={} layout={}",
                    kernel.name(),
                    layout.name()
                );
            }
        }
    }
}
