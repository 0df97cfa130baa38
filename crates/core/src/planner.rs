//! Adaptive query planner: route each Hamming-select to the cheapest
//! exact backend.
//!
//! No single layout wins everywhere — HA-Flat is fastest on clustered
//! narrow codes, while sparse wide codes favour chunked probing
//! ([`crate::MihIndex`]) and tiny datasets are fastest to just scan. This
//! module turns that observation into a routing decision: a [`CostModel`]
//! (its constants held to account by the benchmark's per-backend
//! `core.search_us.*` timings and its `core.planner_regret`, its routing
//! pinned by `tests/planner_decisions.rs`) estimates nanoseconds per query for every available [`Backend`] from a
//! [`DataProfile`] — code width, row count, and a sampled *clusteredness*
//! estimate — plus the query threshold, and [`choose`] picks the minimum.
//!
//! One integration surface sits on top: [`PlannedIndex`] routes every
//! query over the structures indexing the same rows — a [`MihIndex`],
//! whose rows are always built, and the HA-Index's frozen snapshot
//! ([`FlatHaIndex`]). When the cost model lets the flat layout win some
//! threshold, a build bulk-loads the snapshot straight from the MIH's rows
//! and leaves the MIH's chunk directories to the first probe; otherwise it
//! builds the directories and defers the snapshot to the first call that
//! names it. The choice is costed *before* building,
//! from the MIH's rows and H-Build's own rank sort, so routes are the same
//! either way, and no structure changes once built. The mutable arena
//! ([`DynamicHaIndex`]) is built only for the arena backend. HA-Serve
//! shards build one planned index per generation
//! ([`PlannedIndex::build_with`]); the distributed join's reducers adopt
//! the broadcast HA-Index as one ([`PlannedIndex::from_dha`]) — the MIH
//! is a function of the shipped HA-Index's items, so each worker derives
//! it (≈3 ms at 20k rows, against ≈280 ms of flat probes it replaces on
//! the join's own data) and nothing extra travels.
//!
//! Every routed entry point returns **canonically sorted** answers (ids
//! ascending; distance pairs by `(id, d)`), so the choice of backend is
//! unobservable in results — the property `tests/planner_decisions.rs`
//! pins down.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::OnceLock;

use ha_bitcode::chunk::neighborhood_size;
use ha_bitcode::BinaryCode;

use crate::dynamic::{bulk_freeze, DhaConfig, DynamicHaIndex, GrayOrder};
use crate::mih::{MihIndex, MihRows};
use crate::overlap;
use crate::{FlatHaIndex, HammingIndex, TupleId};

/// The exact search backends the planner can route to.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Backend {
    /// Mutable HA-Index arena BFS (H-Search).
    ArenaBfs,
    /// Frozen CSR/SoA snapshot of the HA-Index.
    HaFlat,
    /// Multi-Index Hashing chunk tables.
    Mih,
    /// Linear scan over flat row storage.
    Linear,
}

impl Backend {
    /// All backends, in the deterministic tie-break order used by
    /// [`choose`] (earlier wins on exactly equal estimates).
    pub const ALL: [Backend; 4] = [Backend::HaFlat, Backend::Mih, Backend::ArenaBfs, Backend::Linear];

    /// Single-letter code used in pinned decision tables (`F`, `M`, `A`, `L`).
    pub fn letter(self) -> char {
        match self {
            Backend::ArenaBfs => 'A',
            Backend::HaFlat => 'F',
            Backend::Mih => 'M',
            Backend::Linear => 'L',
        }
    }
}

impl std::fmt::Display for Backend {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Backend::ArenaBfs => "arena-bfs",
            Backend::HaFlat => "ha-flat",
            Backend::Mih => "mih",
            Backend::Linear => "linear",
        })
    }
}

/// What the planner knows about a dataset when costing a query.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DataProfile {
    /// Code width in bits.
    pub bits: usize,
    /// Number of live rows.
    pub n: usize,
    /// Sampled clusteredness in `[0, 1]`: 0 ≈ uniform random codes,
    /// 1 ≈ heavy near-duplicate clustering. See [`estimate_clusteredness`].
    pub clusteredness: f64,
}

/// Clusteredness estimate: mean nearest-neighbour distance over a strided
/// sample of at most 256 codes, normalized against `bits / 2` (the
/// expected pairwise distance of uniform random codes) and inverted —
/// uniform data lands near `1 − 2·E[nn]/bits ≈ 0.2–0.4` depending on
/// width, clustered data (many near-duplicates) approaches 1. Returns 0
/// for fewer than two codes. O(sample²) distance computations, so at most
/// ~32k `hamming` calls regardless of dataset size; the codes are walked
/// twice (once to count them), and the sample is held on the stack, so
/// the estimate allocates nothing.
pub fn estimate_clusteredness<'a, I>(codes: I) -> f64
where
    I: IntoIterator<Item = &'a BinaryCode>,
    I::IntoIter: Clone,
{
    let codes = codes.into_iter();
    let bits = codes.clone().next().map_or(0, BinaryCode::len);
    clusteredness_of_rows(bits, codes.map(BinaryCode::words))
}

/// [`estimate_clusteredness`] of `bits`-bit codes given by their words.
fn clusteredness_of_rows<'a>(bits: usize, rows: impl Iterator<Item = &'a [u64]> + Clone) -> f64 {
    let len = rows.clone().count();
    let Some(first) = rows.clone().next().filter(|_| len >= 2 && bits > 0) else { return 0.0 };
    // On the stack: the planner samples on a thread that must not allocate.
    let mut slots = [first; 256];
    let mut taken = 0;
    for (slot, row) in slots.iter_mut().zip(rows.step_by(len.div_ceil(256))) {
        *slot = row;
        taken += 1;
    }
    let sample = &slots[..taken];
    let hamming = |a: &[u64], b: &[u64]| -> u32 {
        a.iter().zip(b).map(|(x, y)| (x ^ y).count_ones()).sum()
    };
    let mut sum = 0.0;
    for (i, a) in sample.iter().enumerate() {
        let mut best = u32::MAX;
        for (j, b) in sample.iter().enumerate() {
            if i != j {
                best = best.min(hamming(a, b));
            }
        }
        sum += f64::from(best);
    }
    let mean_nn = sum / sample.len() as f64;
    (1.0 - mean_nn / (bits as f64 / 2.0)).clamp(0.0, 1.0)
}

/// Per-backend cost estimates in nanoseconds per query.
///
/// The shapes are analytical (rows scanned, BFS work per row and
/// threshold, probe enumerations and expected candidates); the constants
/// are **fitted**, not derived: the defaults below were tuned until
/// [`choose`] picked the measured winner in every cell of a grid timing
/// all four backends; the benchmark's `core.search_us.*` and
/// `core.planner_regret` measure them today, and
/// `tests/planner_decisions.rs` pins the resulting routes. Absolute
/// nanoseconds are therefore
/// machine-specific; the *ratios* are what routing depends on.
#[derive(Clone, Debug, PartialEq)]
pub struct CostModel {
    /// Linear scan: ns per row-word compared.
    pub linear_word_ns: f64,
    /// Arena BFS: ns per row per `(h+1)` unit of traversal depth.
    pub arena_row_h_ns: f64,
    /// Flat BFS: ns per row per `(h+1)`, before the sparsity penalty.
    pub flat_row_h_ns: f64,
    /// Multiplier on flat cost as clusteredness falls — the frozen
    /// layout's prefix-sharing advantage evaporates on sparse data.
    pub flat_sparse_penalty: f64,
    /// MIH: ns per enumerated bucket probe.
    pub mih_probe_ns: f64,
    /// MIH: ns per candidate verification, per row-word.
    pub mih_candidate_ns: f64,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            linear_word_ns: 1.6,
            arena_row_h_ns: 0.26,
            flat_row_h_ns: 0.115,
            flat_sparse_penalty: 2.1,
            mih_probe_ns: 42.0,
            mih_candidate_ns: 0.7,
        }
    }
}

impl CostModel {
    fn words(bits: usize) -> f64 {
        bits.div_ceil(64) as f64
    }

    /// Estimated ns for a linear scan.
    fn linear_cost(&self, p: &DataProfile) -> f64 {
        self.linear_word_ns * p.n as f64 * Self::words(p.bits)
    }

    /// Estimated ns for the mutable arena's BFS.
    fn arena_cost(&self, p: &DataProfile, h: u32) -> f64 {
        self.arena_row_h_ns * p.n as f64 * f64::from(h + 1)
    }

    /// Estimated ns for the frozen flat layout's BFS.
    fn flat_cost(&self, p: &DataProfile, h: u32) -> f64 {
        let sparsity = 1.0 + self.flat_sparse_penalty * (1.0 - p.clusteredness);
        self.flat_row_h_ns * p.n as f64 * f64::from(h + 1) * sparsity
    }

    /// Estimated ns for the frozen flat layout's BFS over a snapshot whose
    /// compile laid `aos_fraction` of its sibling groups out row-major. The
    /// sparse penalty models the SoA stride tax on narrow groups — exactly the
    /// groups of multi-word codes a freeze lays out AoS, whose per-sibling
    /// early exit behaves like the arena — so the penalty scales down
    /// with the fraction converted: at `aos_fraction = 1.0` no stride
    /// tax remains. [`PlannedIndex`], which has access to a live
    /// snapshot, costs the flat backend this way; the context-free
    /// [`choose`] keeps the conservative all-SoA estimate.
    pub fn flat_cost_adaptive(&self, p: &DataProfile, h: u32, aos_fraction: f64) -> f64 {
        let soa_share = 1.0 - aos_fraction.clamp(0.0, 1.0);
        let sparsity = 1.0 + self.flat_sparse_penalty * (1.0 - p.clusteredness) * soa_share;
        self.flat_row_h_ns * p.n as f64 * f64::from(h + 1) * sparsity
    }

    /// Estimated ns for MIH: exact probe count (the same pigeonhole
    /// budget [`MihIndex::probe_estimate`] computes) plus expected
    /// candidate verifications, assuming per-chunk bucket occupancy
    /// `n / 2^(w·(1−clusteredness))` — clustering concentrates rows into
    /// fewer chunk values, fattening buckets. When the probe enumeration
    /// alone reaches `n`, MIH would take its scan fallback, so the
    /// estimate becomes the linear cost plus 5%.
    fn mih_cost(&self, p: &DataProfile, h: u32) -> f64 {
        if p.n == 0 {
            return 0.0;
        }
        let m = MihIndex::auto_chunks(p.bits, p.n);
        // `Segmentation::new(bits, m)`'s balanced widths, computed in
        // place: routing runs per query and must not allocate.
        let (base, extra) = (p.bits / m, p.bits % m);
        let r = h / m as u32;
        let a = h % m as u32;
        let mut probes = 0.0f64;
        let mut candidates = 0.0f64;
        for k in 0..m {
            let radius = if (k as u32) <= a { r } else if r == 0 { continue } else { r - 1 };
            let width = base + usize::from(k < extra);
            let chunk_probes = neighborhood_size(width as u32, radius) as f64;
            probes += chunk_probes;
            let effective_bits = (width as f64 * (1.0 - p.clusteredness)).min(60.0);
            candidates += chunk_probes * p.n as f64 / effective_bits.exp2();
        }
        if probes >= p.n as f64 {
            return self.linear_cost(p) * 1.05;
        }
        self.mih_probe_ns * probes
            + self.mih_candidate_ns * candidates.min(p.n as f64) * Self::words(p.bits)
    }

    /// Estimated ns for `backend` on this profile and threshold.
    pub fn cost(&self, backend: Backend, p: &DataProfile, h: u32) -> f64 {
        match backend {
            Backend::ArenaBfs => self.arena_cost(p, h),
            Backend::HaFlat => self.flat_cost(p, h),
            Backend::Mih => self.mih_cost(p, h),
            Backend::Linear => self.linear_cost(p),
        }
    }
}

/// Picks the cheapest backend among `available`. Fully deterministic:
/// costs are pure `f64` arithmetic over the inputs, and exact ties go to
/// the backend appearing earliest in [`Backend::ALL`] order. Returns
/// [`Backend::Linear`] when `available` is empty (a scan needs no
/// structure).
pub fn choose(model: &CostModel, profile: &DataProfile, h: u32, available: &[Backend]) -> Backend {
    choose_with_aos(model, profile, h, available, 0.0)
}

/// [`choose`] with snapshot-layout context: the flat backend is costed
/// via [`CostModel::flat_cost_adaptive`] at the given AoS group
/// fraction (`FlatHaIndex::aos_fraction`). At `aos_fraction = 0.0` this
/// is exactly [`choose`] — all-SoA is the conservative baseline the
/// pinned decision table is built on.
fn choose_with_aos(
    model: &CostModel,
    profile: &DataProfile,
    h: u32,
    available: &[Backend],
    aos_fraction: f64,
) -> Backend {
    let mut best = Backend::Linear;
    let mut best_cost = f64::INFINITY;
    for b in Backend::ALL {
        if !available.contains(&b) {
            continue;
        }
        let c = match b {
            Backend::HaFlat => model.flat_cost_adaptive(profile, h, aos_fraction),
            _ => model.cost(b, profile, h),
        };
        if c < best_cost {
            best = b;
            best_cost = c;
        }
    }
    best
}

/// Configuration for a [`PlannedIndex`].
#[derive(Clone, Debug, Default)]
pub struct PlanConfig {
    /// Configuration of the inner [`DynamicHaIndex`].
    pub dha: DhaConfig,
    /// Cost model driving routing decisions.
    pub model: CostModel,
}

/// An exact Hamming index that routes every query to the cheapest backend
/// it can serve.
///
/// The structures index the same rows. The [`MihIndex`]'s rows are always
/// built: they serve the linear scan (the flat row store doubles as the
/// scan target, so the "four backends" cost two structures, not four) and
/// answer every read that needs the stored pairs ([`PlannedIndex::items`]).
/// Its chunk directories serve chunked probing. A build whose flat layout
/// can win some threshold keeps none, and the first probe builds them,
/// once: a routed or forced [`Backend::Mih`] search, or a delta overlay's
/// delete or tombstone read. The HA-Index's frozen snapshot ([`FlatHaIndex`])
/// serves the flat path. [`PlannedIndex::build_with`] bulk-loads it from
/// the MIH's rows only when the flat layout can win some threshold;
/// otherwise it is *deferred* and built, once, by the first call that
/// names it ([`PlannedIndex::search_with_backend`] with
/// [`Backend::HaFlat`], [`PlannedIndex::store_bytes`]). The mutable
/// arena ([`DynamicHaIndex`]) is never built to make the snapshot: only
/// the arena backend reads it, so the first call that needs it
/// ([`Backend::ArenaBfs`], forced or routed, or [`PlannedIndex::dha`])
/// builds it, once, from the MIH's rows — an index adopted by
/// [`PlannedIndex::from_dha`] keeps the arena it was given. Routing never
/// depends on what has been built. No structure changes after it is
/// built (serving layers mutations over it with a [`crate::DeltaIndex`])
/// except through [`PlannedIndex::freeze`], which compiles a missing flat
/// snapshot.
///
/// ```
/// use ha_core::planner::PlannedIndex;
/// use ha_core::HammingIndex;
/// use ha_bitcode::BinaryCode;
///
/// let index = PlannedIndex::build(
///     16, (0..64u64).map(|i| (BinaryCode::from_u64(i, 16), i)).collect());
/// let q = BinaryCode::from_u64(5, 16);
/// let (backend, hits) = index.search_routed(&q, 1);
/// assert_eq!(hits, vec![1, 4, 5, 7, 13, 21, 37]); // ids ascending, any backend
/// assert_eq!(index.len(), 64);
/// let _ = backend; // which backend won is a performance detail only
/// ```
#[derive(Clone, Debug)]
pub struct PlannedIndex {
    code_len: usize,
    mih: MihIndex,
    model: CostModel,
    clusteredness: f64,
    route: FlatRoute,
    /// The frozen snapshot: filled at construction unless the build
    /// deferred it ([`FlatRoute::Deferred`]), then on first demand; empty
    /// while the flat backend is [`FlatRoute::Absent`].
    flat: OnceLock<FlatHaIndex>,
    /// The mutable arena: an adopted one, or built on first demand.
    arena: OnceLock<DynamicHaIndex>,
    /// The configuration the HA-Index is built with.
    dha_config: DhaConfig,
}

/// How the flat backend enters routing. Fixed at construction and changed
/// only by [`PlannedIndex::freeze`] — never by building a deferred
/// snapshot or the arena, so a route cannot depend on which call came
/// first.
#[derive(Clone, Copy, Debug)]
enum FlatRoute {
    /// No current snapshot (an adopted index before its `freeze`): the
    /// flat backend is unavailable.
    Absent,
    /// A current snapshot with this AoS group fraction, which feeds the
    /// flat estimate ([`CostModel::flat_cost_adaptive`]).
    Frozen(f64),
    /// The build skipped the snapshot because the flat layout loses at
    /// every threshold even in its best case ([`flat_wins_somewhere`]).
    /// The flat backend stays available and is costed at that best case,
    /// so it is never picked.
    Deferred,
}

/// Whether some threshold routes to the flat backend for a snapshot of
/// some layout: [`choose_with_aos`] over every backend at AoS fractions 0
/// and 1 (the flat estimate is affine in the fraction, so no layout in
/// between does better than both). Exact ties count as wins, since the
/// flat backend takes them. The scan stops once the flat estimate exceeds
/// the linear scan's at both fractions: the flat estimate only grows with
/// `h` and the scan's does not, so no larger threshold can pick it.
fn flat_wins_somewhere(model: &CostModel, profile: &DataProfile) -> bool {
    let linear = model.linear_cost(profile);
    for h in 0..u32::MAX {
        let mut below_linear = false;
        for aos in [0.0, 1.0] {
            if choose_with_aos(model, profile, h, &Backend::ALL, aos) == Backend::HaFlat {
                return true;
            }
            below_linear |= model.flat_cost_adaptive(profile, h, aos) <= linear;
        }
        if !below_linear {
            return false;
        }
    }
    false
}

/// The frozen snapshot H-Build and freeze make of the MIH's rows, which
/// hold the build input in its order, reusing their Gray `order`
/// ([`GrayOrder::sort_rows`] of those rows): byte for byte the snapshot
/// `DynamicHaIndex::build_with(input, config).freeze()` compiles, built
/// without the arena.
fn snapshot_of(mih: &MihIndex, order: &GrayOrder, config: &DhaConfig) -> FlatHaIndex {
    bulk_freeze(mih.code_len(), mih.row_words(), mih.ids(), order, config)
}

impl PlannedIndex {
    /// Builds from `(code, id)` pairs with the default [`PlanConfig`].
    pub fn build(code_len: usize, items: Vec<(BinaryCode, TupleId)>) -> Self {
        Self::build_with(code_len, items, PlanConfig::default())
    }

    /// Builds with explicit configuration: the MIH's rows (each code's
    /// words, stored once), then at the same time its auto-sized chunk
    /// directories on the calling thread and, on one scoped helper
    /// thread, the profile: H-Build's rank sort of those
    /// rows, whose distinct codes the clusteredness is sampled from, and
    /// whether the flat backend can win some threshold. The helper
    /// allocates nothing: it sorts into a buffer sized here. A panic on it
    /// is re-raised on the caller. When the flat backend can win, the
    /// helper tells the caller to stop before its next chunk, the index
    /// keeps no directories (however many were done), H-Build reuses that
    /// sort over a compact build forest read straight off the MIH's rows,
    /// and the forest is compiled to the snapshot (with the per-group
    /// layouts [`DynamicHaIndex::freeze`] picks) and dropped: no arena is
    /// built. Otherwise the index keeps every directory and the snapshot
    /// is deferred (see [`PlannedIndex`]).
    ///
    /// With tracing on, the build is one `core.plan.build` span whose
    /// children are the phases: `core.plan.mih` and `core.plan.profile`
    /// (holding `core.hbuild.rank_sort`), which may overlap in time, then,
    /// when the snapshot is built, `core.hbuild.leaves`,
    /// `core.hbuild.levels` and `core.plan.freeze`.
    /// A deferred snapshot is built inside one `core.plan.materialize`
    /// span holding `core.hbuild.*` and `core.plan.freeze`; the arena,
    /// whenever it is built, inside one holding `core.hbuild.*` only;
    /// directories the build did not keep, inside one
    /// `core.plan.directories`.
    pub fn build_with(code_len: usize, items: Vec<(BinaryCode, TupleId)>, cfg: PlanConfig) -> Self {
        let _build = ha_obs::span("core.plan.build");
        let n = items.len();
        let ctx = ha_obs::current_context();
        let mih_span = ha_obs::span("core.plan.mih");
        let rows = MihRows::copy(code_len, n, items.iter().map(|(code, id)| (code, *id)));
        // Every later step reads the MIH's rows; freeing the input first
        // lets the sort's buffer take its place.
        drop(items);
        // The helper fills a buffer allocated here: glibc gives each thread
        // its own malloc arena, and what the helper allocated could stay
        // resident there after it is freed.
        let pairs = Vec::with_capacity(n);
        let seg = rows.segmentation(MihIndex::auto_chunks(code_len, n));
        // Set once the profile shows the flat layout wins somewhere: the
        // MIH then routes only past flat's thresholds, if ever, and its
        // directories wait for the first probe. It publishes no other data
        // (`Relaxed`); the read that decides what is kept follows the join.
        let flat_wins = AtomicBool::new(false);
        let (dirs, (order, clusteredness)) = overlap::join(
            || {
                let _span = mih_span;
                rows.directories(&seg, &flat_wins)
            },
            || {
                let _span = ha_obs::span_under("core.plan.profile", &ctx);
                let order = GrayOrder::sort_rows(rows.words(), code_len, pairs);
                let distinct = order.distinct_rows(rows.words(), code_len.div_ceil(64));
                let clusteredness = clusteredness_of_rows(code_len, distinct);
                let profile = DataProfile { bits: code_len, n, clusteredness };
                if flat_wins_somewhere(&cfg.model, &profile) {
                    flat_wins.store(true, Ordering::Relaxed);
                }
                (order, clusteredness)
            },
        );
        // Joined, the flag is final, and it alone decides what the index
        // keeps, however far the directories got before it was set.
        let flat_wins = flat_wins.into_inner();
        let mih = rows.index(seg, dirs.filter(|_| !flat_wins));
        let (route, flat) = if flat_wins {
            let flat = snapshot_of(&mih, &order, &cfg.dha);
            (FlatRoute::Frozen(flat.aos_fraction()), OnceLock::from(flat))
        } else {
            (FlatRoute::Deferred, OnceLock::new())
        };
        PlannedIndex {
            code_len,
            mih,
            model: cfg.model,
            clusteredness,
            route,
            flat,
            arena: OnceLock::new(),
            dha_config: cfg.dha,
        }
    }

    /// Adopts an already-built HA-Index — the distributed join's decoded
    /// broadcast — without re-running H-Build. The MIH is derived from
    /// [`DynamicHaIndex::items`] (leaf ids with multiplicity plus any
    /// buffered inserts), clusteredness is sampled from the leaf codes as
    /// in [`PlannedIndex::build_with`], and a current snapshot `dha`
    /// carries moves to the planned index; none is compiled here — call
    /// [`PlannedIndex::freeze`] when [`PlannedIndex::flat_can_win`] says
    /// it is worth it. `dha` must keep its leaf ids
    /// ([`DhaConfig::keep_leaf_ids`]): a leafless index holds no ids for
    /// any backend to answer with.
    ///
    /// ```
    /// use ha_core::planner::PlannedIndex;
    /// use ha_core::{CostModel, DynamicHaIndex, HammingIndex};
    /// use ha_bitcode::BinaryCode;
    ///
    /// let items: Vec<_> = (0..64u64).map(|i| (BinaryCode::from_u64(i, 16), i)).collect();
    /// let blob = DynamicHaIndex::build(items.clone()).to_bytes();
    /// let shipped = DynamicHaIndex::from_bytes(&blob, Default::default()).unwrap();
    /// let adopted = PlannedIndex::from_dha(shipped, CostModel::default());
    /// let q = BinaryCode::from_u64(5, 16);
    /// assert_eq!(adopted.search(&q, 1), PlannedIndex::build(16, items).search(&q, 1));
    /// ```
    pub fn from_dha(mut dha: DynamicHaIndex, model: CostModel) -> Self {
        let code_len = dha.code_len();
        let n = dha.len();
        let mih = MihIndex::bulk(code_len, MihIndex::auto_chunks(code_len, n), n, dha.item_refs());
        let clusteredness = estimate_clusteredness(dha.leaf_codes());
        let flat = dha.take_current_snapshot();
        let route = flat.as_ref().map_or(FlatRoute::Absent, |f| FlatRoute::Frozen(f.aos_fraction()));
        let dha_config = dha.config().clone();
        PlannedIndex {
            code_len,
            mih,
            model,
            clusteredness,
            route,
            flat: flat.map(OnceLock::from).unwrap_or_default(),
            arena: OnceLock::from(dha),
            dha_config,
        }
    }

    /// The profile the planner currently costs queries against. The
    /// clusteredness component is sampled at build and refreshed by
    /// [`PlannedIndex::freeze`].
    pub fn profile(&self) -> DataProfile {
        DataProfile {
            bits: self.code_len,
            n: self.mih.len(),
            clusteredness: self.clusteredness,
        }
    }

    /// Backends able to answer: all four, except that the flat path drops
    /// out while an index adopted by [`PlannedIndex::from_dha`] has no
    /// current snapshot (until its [`PlannedIndex::freeze`]). A deferred
    /// snapshot and an unbuilt arena count as available: naming them
    /// builds them.
    pub fn available(&self) -> Vec<Backend> {
        self.available_slice().to_vec()
    }

    fn available_slice(&self) -> &'static [Backend] {
        const ALL: [Backend; 4] =
            [Backend::HaFlat, Backend::ArenaBfs, Backend::Mih, Backend::Linear];
        match self.route {
            FlatRoute::Absent => &ALL[1..],
            FlatRoute::Frozen(_) | FlatRoute::Deferred => &ALL,
        }
    }

    /// The backend [`HammingIndex::search`] would use at threshold `h`.
    /// When a current snapshot exists, its recorded layout mix feeds the
    /// flat estimate ([`CostModel::flat_cost_adaptive`]); a deferred
    /// snapshot is costed at its best case, which loses at every `h`.
    /// Runs on every routed query, so it allocates nothing.
    pub fn backend_for(&self, h: u32) -> Backend {
        let aos = match self.route {
            FlatRoute::Absent => 0.0,
            FlatRoute::Frozen(aos) => aos,
            FlatRoute::Deferred => 1.0,
        };
        choose_with_aos(&self.model, &self.profile(), h, self.available_slice(), aos)
    }

    /// Whether the flat backend could win at threshold `h`: true when a
    /// current snapshot exists, otherwise the flat backend costed at its
    /// best case (every sibling group row-major,
    /// [`CostModel::flat_cost_adaptive`] at `1.0`) against the backend
    /// [`PlannedIndex::backend_for`] picks without it. An index adopted
    /// by [`PlannedIndex::from_dha`] freezes only when this holds; for a
    /// build that deferred its snapshot it holds at no `h`.
    pub fn flat_can_win(&self, h: u32) -> bool {
        if let FlatRoute::Frozen(_) = self.route {
            return true;
        }
        let p = self.profile();
        self.model.flat_cost_adaptive(&p, h, 1.0) < self.model.cost(self.backend_for(h), &p, h)
    }

    /// Routed search that also reports which backend answered.
    pub fn search_routed(&self, query: &BinaryCode, h: u32) -> (Backend, Vec<TupleId>) {
        let backend = self.backend_for(h);
        let hits = self
            .search_with_backend(backend, query, h)
            .unwrap_or_else(|| self.mih.scan(query, h));
        (backend, hits)
    }

    /// Forces the query through one specific backend; `None` if that
    /// backend is unavailable (the flat path without a current snapshot).
    /// Forcing the flat path builds a deferred snapshot first, and forcing
    /// the arena path an unbuilt arena.
    /// Answers are canonically sorted, so all `Some` results are equal —
    /// the equivalence `tests/planner_decisions.rs` asserts.
    pub fn search_with_backend(
        &self,
        backend: Backend,
        query: &BinaryCode,
        h: u32,
    ) -> Option<Vec<TupleId>> {
        let mut hits = match backend {
            Backend::HaFlat => self.snapshot()?.search(query, h),
            Backend::ArenaBfs => self.dha().search(query, h),
            Backend::Mih => return Some(self.mih.search(query, h)),
            Backend::Linear => return Some(self.mih.scan(query, h)),
        };
        hits.sort_unstable();
        Some(hits)
    }

    /// Routed search with exact distances, sorted by `(id, distance)`. A
    /// route to the flat or the arena backend reads the snapshot, and the
    /// arena only while the flat backend is unavailable.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        let mut hits = match self.backend_for(h) {
            Backend::HaFlat | Backend::ArenaBfs => match self.snapshot() {
                Some(f) => f.search_with_distances(query, h),
                None => self.dha().search_with_distances(query, h),
            },
            Backend::Mih => return self.mih.search_with_distances(query, h),
            Backend::Linear => return self.mih.scan_with_distances(query, h),
        };
        hits.sort_unstable_by_key(|&(id, d)| (id, d));
        hits
    }

    /// Compiles a current flat snapshot if there is none: a deferred one
    /// from the MIH's rows, an adopted arena's by freezing the arena
    /// (which flushes its insert buffer, so the clusteredness estimate is
    /// refreshed from its leaves). Idempotent, like
    /// [`DynamicHaIndex::freeze`].
    pub fn freeze(&mut self) {
        if self.flat.get().is_none() {
            let flat = match self.arena.get_mut() {
                Some(arena) => {
                    let flat = arena.take_frozen();
                    self.clusteredness = estimate_clusteredness(arena.leaf_codes());
                    flat
                }
                None => self.materialize_snapshot(),
            };
            self.flat = OnceLock::from(flat);
        }
        self.route = FlatRoute::Frozen(self.flat.get().map_or(0.0, FlatHaIndex::aos_fraction));
    }

    /// The snapshot the flat backend reads, built first if the build
    /// deferred it; `None` while the flat backend is unavailable.
    /// Concurrent first calls build it once.
    fn snapshot(&self) -> Option<&FlatHaIndex> {
        match self.route {
            FlatRoute::Absent => None,
            FlatRoute::Frozen(_) | FlatRoute::Deferred => {
                Some(self.flat.get_or_init(|| self.materialize_snapshot()))
            }
        }
    }

    /// The mutable arena (read-only), which only the arena backend reads:
    /// the adopted one, or built on first demand from the MIH's rows,
    /// without a snapshot — exactly what
    /// `DynamicHaIndex::build_with(input, config)` builds. Concurrent first
    /// calls build it once. It never holds a current snapshot
    /// ([`PlannedIndex::from_dha`] and [`PlannedIndex::freeze`] move it
    /// out), so its search entry points run the arena BFS.
    pub fn dha(&self) -> &DynamicHaIndex {
        self.arena.get_or_init(|| {
            let _span = ha_obs::span("core.plan.materialize");
            let order = self.rank_sort();
            let config = self.dha_config.clone();
            DynamicHaIndex::build_rows(self.code_len, self.mih.row_words(), self.mih.ids(), &order, config)
        })
    }

    /// A deferred snapshot, bulk-loaded from the MIH's rows: the one an
    /// eager build makes.
    fn materialize_snapshot(&self) -> FlatHaIndex {
        let _span = ha_obs::span("core.plan.materialize");
        snapshot_of(&self.mih, &self.rank_sort(), &self.dha_config)
    }

    /// H-Build's rank sort of the MIH's rows.
    fn rank_sort(&self) -> GrayOrder {
        let pairs = Vec::with_capacity(self.mih.len());
        GrayOrder::sort_rows(self.mih.row_words(), self.code_len, pairs)
    }

    /// Serializes the frozen flat snapshot into the persistent HA-Store
    /// format, if one is current: `Some` for every build (a deferred
    /// snapshot is built here), `None` for an index adopted by
    /// [`PlannedIndex::from_dha`] and not frozen since.
    pub fn store_bytes(&self) -> Option<Vec<u8>> {
        self.snapshot().map(FlatHaIndex::store_bytes)
    }

    /// The inner MIH index (read-only).
    pub fn mih(&self) -> &MihIndex {
        &self.mih
    }

    /// Every stored `(code, id)` pair, from the MIH's rows in build input
    /// order (it builds nothing).
    pub fn items(&self) -> impl Iterator<Item = (BinaryCode, TupleId)> + '_ {
        self.mih.items()
    }
}

impl HammingIndex for PlannedIndex {
    fn name(&self) -> &'static str {
        "Planned"
    }

    fn len(&self) -> usize {
        self.mih.len()
    }

    fn code_len(&self) -> usize {
        self.code_len
    }

    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        self.search_routed(query, h).1
    }

    /// What the index holds: the MIH, the snapshot and the arena, each
    /// once built (a deferred one holds nothing).
    fn memory_bytes(&self) -> usize {
        self.mih.memory_bytes()
            + self.flat.get().map_or(0, FlatHaIndex::memory_bytes)
            + self.arena.get().map_or(0, HammingIndex::memory_bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, clustered_dataset, random_dataset, random_within};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn clusteredness_orders_regimes() {
        let uniform64 = random_dataset(800, 64, 1);
        let clustered64 = clustered_dataset(800, 64, 4, 3, 2);
        let uniform512 = random_dataset(800, 512, 3);
        let clustered512 = clustered_dataset(800, 512, 4, 8, 4);
        let rho = |d: &[(BinaryCode, TupleId)]| {
            estimate_clusteredness(d.iter().map(|(c, _)| c))
        };
        let (u64r, c64r) = (rho(&uniform64), rho(&clustered64));
        let (u512r, c512r) = (rho(&uniform512), rho(&clustered512));
        assert!(c64r > u64r + 0.1, "clustered 64-bit ({c64r}) vs uniform ({u64r})");
        assert!(c512r > u512r + 0.1, "clustered 512-bit ({c512r}) vs uniform ({u512r})");
        assert!((0.0..=1.0).contains(&u512r));
        // Degenerate inputs.
        assert_eq!(estimate_clusteredness(std::iter::empty()), 0.0);
        let one = BinaryCode::from_u64(1, 16);
        assert_eq!(estimate_clusteredness(std::iter::once(&one)), 0.0);
    }

    #[test]
    fn choose_is_deterministic_and_respects_availability() {
        let model = CostModel::default();
        let p = DataProfile { bits: 512, n: 6000, clusteredness: 0.2 };
        let full = choose(&model, &p, 3, &Backend::ALL);
        assert_eq!(full, choose(&model, &p, 3, &Backend::ALL), "same inputs, same choice");
        // Remove the winner: the choice must fall back, never pick the
        // unavailable backend.
        let rest: Vec<Backend> = Backend::ALL.iter().copied().filter(|&b| b != full).collect();
        assert_ne!(choose(&model, &p, 3, &rest), full);
        assert_eq!(choose(&model, &p, 3, &[]), Backend::Linear);
    }

    #[test]
    fn cost_model_prefers_mih_on_sparse_wide_and_flat_on_clustered_narrow() {
        let model = CostModel::default();
        let sparse_wide = DataProfile { bits: 512, n: 6000, clusteredness: 0.18 };
        assert_eq!(choose(&model, &sparse_wide, 3, &Backend::ALL), Backend::Mih);
        let clustered_narrow = DataProfile { bits: 64, n: 30_000, clusteredness: 0.75 };
        let pick = choose(&model, &clustered_narrow, 6, &Backend::ALL);
        assert!(
            pick == Backend::HaFlat || pick == Backend::Mih,
            "clustered narrow at h=6 must not scan or BFS the arena (got {pick})"
        );
        // Tiny dataset: scanning wins.
        let tiny = DataProfile { bits: 64, n: 24, clusteredness: 0.3 };
        assert_eq!(choose(&model, &tiny, 30, &Backend::ALL), Backend::Linear);
    }

    #[test]
    fn aos_fraction_discounts_the_flat_sparse_penalty() {
        let model = CostModel::default();
        let p = DataProfile { bits: 512, n: 6000, clusteredness: 0.2 };
        // Zero fraction is exactly the context-free estimate — the
        // invariant that keeps the pinned decision table valid.
        assert_eq!(model.flat_cost_adaptive(&p, 3, 0.0), model.flat_cost(&p, 3));
        assert_eq!(choose_with_aos(&model, &p, 3, &Backend::ALL, 0.0),
                   choose(&model, &p, 3, &Backend::ALL));
        // A fully converted snapshot sheds the whole stride tax.
        let full = model.flat_cost_adaptive(&p, 3, 1.0);
        assert!(full < model.flat_cost(&p, 3));
        assert_eq!(full, model.flat_row_h_ns * 6000.0 * 4.0);
        // Out-of-range fractions clamp instead of extrapolating.
        assert_eq!(model.flat_cost_adaptive(&p, 3, 2.0), full);
        assert_eq!(model.flat_cost_adaptive(&p, 3, -1.0), model.flat_cost(&p, 3));
    }

    #[test]
    fn planned_index_answers_match_oracle_on_every_backend() {
        let data = clustered_dataset(250, 64, 3, 3, 55);
        let idx = PlannedIndex::build(64, data.clone());
        let mut rng = StdRng::seed_from_u64(8);
        for trial in 0..3 {
            let q = BinaryCode::random(64, &mut rng);
            for h in [0u32, 2, 5, 12] {
                let (_, routed) = idx.search_routed(&q, h);
                assert_matches_oracle(routed.clone(), &data, &q, h, "routed");
                for b in Backend::ALL {
                    if let Some(forced) = idx.search_with_backend(b, &q, h) {
                        assert_eq!(forced, routed, "trial={trial} h={h} backend={b}");
                    }
                }
            }
        }
    }

    #[test]
    fn distances_are_canonical() {
        let data = clustered_dataset(150, 128, 2, 4, 21);
        let idx = PlannedIndex::build(128, data.clone());
        let queries: Vec<BinaryCode> = data.iter().take(4).map(|(c, _)| c.clone()).collect();
        for h in [1u32, 4, 9] {
            for q in &queries {
                let dists = idx.search_with_distances(q, h);
                assert_eq!(
                    dists.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                    idx.search(q, h),
                    "distance ids ≡ select ids at h={h}"
                );
                assert!(dists.windows(2).all(|w| w[0] <= w[1]), "sorted by (id, d)");
            }
        }
    }

    #[test]
    fn adopted_index_answers_as_built_on_every_backend() {
        use crate::testkit::{oracle_select, random_at_distance, random_outside};
        // Every fifth code again under a fresh id: leaf id lists carry
        // several ids.
        let mut data = clustered_dataset(300, 32, 4, 3, 91);
        let dups: Vec<_> = data.iter().step_by(5).map(|(c, id)| (c.clone(), id + 10_000)).collect();
        data.extend(dups);
        let built = PlannedIndex::build(32, data.clone());
        let blob = crate::DynamicHaIndex::build(data.clone()).to_bytes();
        let shipped = crate::DynamicHaIndex::from_bytes(&blob, DhaConfig::default())
            .unwrap_or_else(|e| panic!("decode: {e:?}"));
        let mut adopted = PlannedIndex::from_dha(shipped, CostModel::default());
        assert!(!adopted.available().contains(&Backend::HaFlat), "from_dha compiles nothing");
        assert!(!adopted.dha().flat_is_current(), "from_dha leaves no snapshot in the arena");
        assert_eq!(adopted.len(), data.len());
        assert_eq!(adopted.profile(), built.profile());
        let mut rng = StdRng::seed_from_u64(14);
        for round in 0..2 {
            for (code, _) in data.iter().step_by(23) {
                for h in [0u32, 2, 3, 6] {
                    let mut queries = vec![random_at_distance(code, h, &mut rng)];
                    queries.push(random_outside(code, h, &mut rng));
                    queries.push(random_at_distance(code, h + 1, &mut rng));
                    for q in &queries {
                        let want = oracle_select(&data, q, h);
                        assert_eq!(adopted.search(q, h), want, "round={round} h={h}");
                        assert_eq!(built.search(q, h), want, "built h={h}");
                        for b in Backend::ALL {
                            if let Some(forced) = adopted.search_with_backend(b, q, h) {
                                assert_eq!(forced, want, "round={round} h={h} backend={b}");
                            }
                        }
                    }
                }
            }
            // Second round: every backend, the flat one included.
            adopted.freeze();
            assert_eq!(adopted.available().len(), Backend::ALL.len());
            assert!(!adopted.dha().flat_is_current(), "freeze moves the snapshot out");
        }
        // An adopted arena's current snapshot moves to the planned index.
        let mut frozen = crate::DynamicHaIndex::build(data.clone());
        frozen.freeze();
        let adopted = PlannedIndex::from_dha(frozen, CostModel::default());
        assert!(adopted.available().contains(&Backend::HaFlat), "the snapshot moved over");
        assert!(!adopted.dha().flat_is_current(), "from_dha leaves no snapshot in the arena");
        // A built index's arena, built by a forced arena search, has none.
        let q = &data[0].0;
        let forced = built.search_with_backend(Backend::ArenaBfs, q, 2);
        assert_eq!(forced, Some(oracle_select(&data, q, 2)));
        assert!(!built.dha().flat_is_current(), "a forced arena search builds no snapshot");
    }

    #[test]
    fn the_deferral_scan_covers_every_threshold_that_could_pick_flat() {
        let model = CostModel::default();
        let picks_flat = |p: &DataProfile, h: u32| {
            [0.0, 1.0]
                .into_iter()
                .any(|aos| choose_with_aos(&model, p, h, &Backend::ALL, aos) == Backend::HaFlat)
        };
        for bits in [8usize, 16, 32, 64, 128, 512] {
            // Past `2L + 64` flat's estimate exceeds the scan's at every
            // width, so checking to there is exhaustive.
            let bound = 2 * bits as u32 + 64;
            for n in [0usize, 1, 64, 4096, 1_000_000] {
                for rho in [0.1, 0.5, 1.0] {
                    let p = DataProfile { bits, n, clusteredness: rho };
                    let exhaustive = (0..=bound).any(|h| picks_flat(&p, h));
                    assert_eq!(flat_wins_somewhere(&model, &p), exhaustive, "{p:?}");
                    if n > 0 {
                        let flat = model.flat_cost_adaptive(&p, bound + 1, 1.0);
                        assert!(flat > model.linear_cost(&p), "{p:?}");
                        // Arena never beats flat's best case: a deferred
                        // build never routes to the arena either.
                        for h in [0, 3, 17, bound] {
                            let best = model.flat_cost_adaptive(&p, h, 1.0);
                            assert!(model.arena_cost(&p, h) > best, "{p:?} h={h}");
                        }
                    }
                }
            }
        }
        // Flat's best case loses to the scan past h = L from 16 bits up,
        // but at 8 bits it still beats the scan at h = L + 1: the scan runs
        // to that crossover, not to L.
        let loses_past_l = |bits: usize| {
            let p = DataProfile { bits, n: 1000, clusteredness: 0.5 };
            model.flat_cost_adaptive(&p, bits as u32 + 1, 1.0) > model.linear_cost(&p)
        };
        assert!([16, 32, 64, 65, 128, 512].into_iter().all(loses_past_l));
        assert!(!loses_past_l(8));
    }

    /// Bytes a planned index's MIH holds without its directories: the
    /// rows (one word per 64 bits a code) and the ids.
    fn rows_and_ids(index: &PlannedIndex) -> usize {
        index.len() * (index.code_len().div_ceil(64) * 8 + std::mem::size_of::<TupleId>())
    }

    /// A flat-winning build keeps no chunk directories: it holds the rows,
    /// the ids and the snapshot. The first forced MIH search builds them,
    /// answers as the oracle at `h` and `h + 1`, and leaves the index
    /// holding what an eager MIH holds.
    #[test]
    fn a_flat_winning_build_defers_its_directories_to_the_first_probe() {
        let data = clustered_dataset(3_000, 128, 3, 2, 5);
        let index = PlannedIndex::build(128, data.clone());
        assert!(matches!(index.route, FlatRoute::Frozen(_)), "the pin is about a flat-winning build");
        assert!(!index.mih().has_directories());
        let snapshot = index.flat.get().map_or(0, FlatHaIndex::memory_bytes);
        assert!(snapshot > 0);
        assert_eq!(index.memory_bytes(), rows_and_ids(&index) + snapshot);

        let mut rng = StdRng::seed_from_u64(12);
        for (code, _) in data.iter().step_by(301) {
            for h in [5u32, 6] {
                assert!(!index.mih().would_scan(h), "the pin is about the probe path");
                let q = random_within(code, h, &mut rng);
                let got = index.search_with_backend(Backend::Mih, &q, h).unwrap_or_default();
                assert_matches_oracle(got, &data, &q, h, &format!("forced MIH at h={h}"));
            }
        }
        assert!(index.mih().has_directories());
        let eager = MihIndex::with_chunks(128, index.mih().chunks(), data);
        assert_eq!(index.mih().memory_bytes(), eager.memory_bytes());
        assert_eq!(index.memory_bytes(), eager.memory_bytes() + snapshot);
    }

    /// Four threads force the first MIH search of a flat-winning build at
    /// once: one `core.plan.directories` span under the test's root, and
    /// four equal answers.
    #[test]
    fn racing_first_mih_searches_build_the_directories_once() {
        const THREADS: usize = 4;
        let data = clustered_dataset(3_000, 64, 3, 2, 7);
        let index = PlannedIndex::build(64, data.clone());
        assert!(!index.mih().has_directories());
        let q = random_within(&data[11].0, 4, &mut StdRng::seed_from_u64(3));
        let want = crate::testkit::oracle_select(&data, &q, 4);

        ha_obs::reset();
        let root = ha_obs::span("test.race");
        let ctx = ha_obs::current_context();
        let start = std::sync::Barrier::new(THREADS);
        let answers: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let _thread = ha_obs::span_under("test.thread", &ctx);
                        start.wait();
                        index.search_with_backend(Backend::Mih, &q, 4)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        drop(root);
        let trace = ha_obs::take_trace();
        ha_obs::disable();

        let race = trace.last_named("test.race").expect("root span");
        let builds = trace
            .subtree(race.id)
            .into_iter()
            .filter(|s| s.name == "core.plan.directories")
            .count();
        assert_eq!(builds, 1, "one directory build for {THREADS} racing threads");
        for got in answers {
            assert_eq!(got.as_ref(), Some(&want));
        }
    }

    /// Where no threshold routes flat, the MIH is the index: a 64-bit build
    /// holds every directory from construction on, as an eager MIH does.
    #[test]
    fn an_mih_routed_build_holds_its_directories_from_construction() {
        let data = random_dataset(3_000, 64, 9);
        let model = CostModel { flat_row_h_ns: 100.0, arena_row_h_ns: 200.0, ..CostModel::default() };
        let index = PlannedIndex::build_with(64, data.clone(), PlanConfig { model, ..PlanConfig::default() });
        assert!(matches!(index.route, FlatRoute::Deferred));
        assert_eq!(index.backend_for(3), Backend::Mih);
        assert!(index.mih().has_directories());
        let eager = MihIndex::with_chunks(64, index.mih().chunks(), data);
        assert_eq!(index.memory_bytes(), eager.memory_bytes());
        assert!(index.memory_bytes() > rows_and_ids(&index));
    }

    #[test]
    fn flat_can_win_only_where_the_model_allows_it() {
        let model = CostModel::default();
        // Clustered narrow codes at a wide radius: flat's best case wins.
        let dense = PlannedIndex::from_dha(
            crate::DynamicHaIndex::build(clustered_dataset(3000, 64, 3, 2, 5)),
            model.clone(),
        );
        // Sparse wide codes at a small radius: MIH wins outright.
        let sparse = PlannedIndex::from_dha(
            crate::DynamicHaIndex::build(random_dataset(3000, 256, 6)),
            model,
        );
        assert!(dense.flat_can_win(12));
        assert!(!sparse.flat_can_win(2));
        assert_eq!(sparse.backend_for(2), Backend::Mih);
        // A current snapshot is always eligible.
        let mut frozen = sparse;
        frozen.freeze();
        assert!(frozen.flat_can_win(2));
    }
}
