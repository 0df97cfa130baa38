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
//! One integration surface sits on top: [`PlannedIndex`] owns both
//! physical structures (a [`DynamicHaIndex`] and a [`MihIndex`] over the
//! same rows) and routes every query. HA-Serve shards build one
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

use ha_bitcode::chunk::neighborhood_size;
use ha_bitcode::BinaryCode;

use crate::dynamic::{DhaConfig, DynamicHaIndex};
use crate::mih::MihIndex;
use crate::{HammingIndex, MutableIndex, TupleId};

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
/// ~32k `hamming` calls regardless of dataset size.
pub fn estimate_clusteredness<'a, I>(codes: I) -> f64
where
    I: IntoIterator<Item = &'a BinaryCode>,
{
    let all: Vec<&BinaryCode> = codes.into_iter().collect();
    if all.len() < 2 {
        return 0.0;
    }
    let bits = all[0].len();
    if bits == 0 {
        return 0.0;
    }
    let stride = all.len().div_ceil(256);
    let sample: Vec<&BinaryCode> = all.iter().step_by(stride).copied().take(256).collect();
    let mut sum = 0.0;
    for (i, a) in sample.iter().enumerate() {
        let mut best = u32::MAX;
        for (j, b) in sample.iter().enumerate() {
            if i != j {
                best = best.min(a.hamming(b));
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
    pub fn linear_cost(&self, p: &DataProfile) -> f64 {
        self.linear_word_ns * p.n as f64 * Self::words(p.bits)
    }

    /// Estimated ns for the mutable arena's BFS.
    pub fn arena_cost(&self, p: &DataProfile, h: u32) -> f64 {
        self.arena_row_h_ns * p.n as f64 * f64::from(h + 1)
    }

    /// Estimated ns for the frozen flat layout's BFS.
    pub fn flat_cost(&self, p: &DataProfile, h: u32) -> f64 {
        let sparsity = 1.0 + self.flat_sparse_penalty * (1.0 - p.clusteredness);
        self.flat_row_h_ns * p.n as f64 * f64::from(h + 1) * sparsity
    }

    /// [`CostModel::flat_cost`] for a snapshot whose freeze policy laid
    /// `aos_fraction` of its sibling groups out row-major. The sparse
    /// penalty models the SoA stride tax on narrow groups — exactly the
    /// groups the adaptive policy converts to AoS, whose per-sibling
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
    pub fn mih_cost(&self, p: &DataProfile, h: u32) -> f64 {
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
pub fn choose_with_aos(
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

/// An exact Hamming index that owns every backend and routes per query.
///
/// Both structures index the same rows: the [`DynamicHaIndex`] serves the
/// arena and flat paths, the [`MihIndex`] serves chunked probing and the
/// linear scan (its flat row store doubles as the scan target, so the
/// "four backends" cost two structures, not four). Mutations go to both;
/// [`PlannedIndex::freeze`] refreshes the flat snapshot *and* the
/// clusteredness estimate.
///
/// ```
/// use ha_core::planner::PlannedIndex;
/// use ha_core::{HammingIndex, MutableIndex};
/// use ha_bitcode::BinaryCode;
///
/// let mut index = PlannedIndex::build(
///     16, (0..64u64).map(|i| (BinaryCode::from_u64(i, 16), i)).collect());
/// let q = BinaryCode::from_u64(5, 16);
/// let (backend, hits) = index.search_routed(&q, 1);
/// assert_eq!(hits, vec![1, 4, 5, 7, 13, 21, 37]); // ids ascending, any backend
/// index.insert(BinaryCode::from_u64(999, 16), 999);
/// assert_eq!(index.len(), 65);
/// let _ = backend; // which backend won is a performance detail only
/// ```
#[derive(Clone, Debug)]
pub struct PlannedIndex {
    code_len: usize,
    dha: DynamicHaIndex,
    mih: MihIndex,
    model: CostModel,
    clusteredness: f64,
}

impl PlannedIndex {
    /// Builds from `(code, id)` pairs with the default [`PlanConfig`],
    /// freezing the flat snapshot immediately.
    pub fn build(code_len: usize, items: Vec<(BinaryCode, TupleId)>) -> Self {
        Self::build_with(code_len, items, PlanConfig::default())
    }

    /// Builds with explicit configuration: the MIH with
    /// [`MihIndex::auto_chunks`] tables, and the flat snapshot frozen
    /// under [`FreezePolicy::adaptive`](crate::FreezePolicy::adaptive).
    /// With tracing on, the build is one `core.plan.build` span whose
    /// children are the phases: `core.plan.mih`, H-Build's
    /// `core.hbuild.*`, `core.plan.freeze` and `core.plan.profile`.
    pub fn build_with(code_len: usize, items: Vec<(BinaryCode, TupleId)>, cfg: PlanConfig) -> Self {
        let _build = ha_obs::span("core.plan.build");
        let mih = {
            let _span = ha_obs::span("core.plan.mih");
            let n = items.len();
            let chunks = MihIndex::auto_chunks(code_len, n);
            MihIndex::bulk(code_len, chunks, n, items.iter().map(|(code, id)| (code, *id)))
        };
        let mut dha = if items.is_empty() {
            DynamicHaIndex::empty(code_len, cfg.dha)
        } else {
            DynamicHaIndex::build_with(items, cfg.dha)
        };
        {
            let _span = ha_obs::span("core.plan.freeze");
            dha.freeze();
        }
        let clusteredness = {
            let _span = ha_obs::span("core.plan.profile");
            estimate_clusteredness(dha.leaf_codes())
        };
        PlannedIndex { code_len, dha, mih, model: cfg.model, clusteredness }
    }

    /// Adopts an already-built HA-Index — the distributed join's decoded
    /// broadcast — without re-running H-Build. The MIH is derived from
    /// [`DynamicHaIndex::items`] (leaf ids with multiplicity plus any
    /// buffered inserts), clusteredness is sampled from the leaf codes as
    /// in [`PlannedIndex::build_with`], and a snapshot `dha` already
    /// carries is kept; none is compiled here — call
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
    pub fn from_dha(dha: DynamicHaIndex, model: CostModel) -> Self {
        let code_len = dha.code_len();
        let n = dha.len();
        let mih = MihIndex::bulk(code_len, MihIndex::auto_chunks(code_len, n), n, dha.item_refs());
        let clusteredness = estimate_clusteredness(dha.leaf_codes());
        PlannedIndex { code_len, dha, mih, model, clusteredness }
    }

    /// The profile the planner currently costs queries against. The
    /// clusteredness component is sampled at build and refreshed by
    /// [`PlannedIndex::freeze`] — it goes stale (not wrong: only routing,
    /// never answers, depends on it) across unfrozen mutations.
    pub fn profile(&self) -> DataProfile {
        DataProfile {
            bits: self.code_len,
            n: self.mih.len(),
            clusteredness: self.clusteredness,
        }
    }

    /// Backends currently able to answer (the flat path drops out while
    /// the snapshot is stale).
    pub fn available(&self) -> Vec<Backend> {
        self.available_slice().to_vec()
    }

    fn available_slice(&self) -> &'static [Backend] {
        const ALL: [Backend; 4] =
            [Backend::HaFlat, Backend::ArenaBfs, Backend::Mih, Backend::Linear];
        if self.dha.flat_is_current() {
            &ALL
        } else {
            &ALL[1..]
        }
    }

    /// The backend [`HammingIndex::search`] would use at threshold `h`.
    /// When a current snapshot exists, its recorded layout mix feeds the
    /// flat estimate ([`CostModel::flat_cost_adaptive`]). Runs on every
    /// routed query, so it allocates nothing.
    pub fn backend_for(&self, h: u32) -> Backend {
        let aos = self.dha.flat().map_or(0.0, crate::FlatHaIndex::aos_fraction);
        choose_with_aos(&self.model, &self.profile(), h, self.available_slice(), aos)
    }

    /// Whether the flat backend could win at threshold `h`: true when a
    /// current snapshot exists, otherwise the flat backend costed at its
    /// best case (every sibling group row-major,
    /// [`CostModel::flat_cost_adaptive`] at `1.0`) against the backend
    /// [`PlannedIndex::backend_for`] picks without it. An index adopted
    /// by [`PlannedIndex::from_dha`] freezes only when this holds.
    pub fn flat_can_win(&self, h: u32) -> bool {
        if self.dha.flat_is_current() {
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
    /// Answers are canonically sorted, so all `Some` results are equal —
    /// the equivalence `tests/planner_decisions.rs` asserts.
    pub fn search_with_backend(
        &self,
        backend: Backend,
        query: &BinaryCode,
        h: u32,
    ) -> Option<Vec<TupleId>> {
        let mut hits = match backend {
            Backend::HaFlat => self.dha.flat()?.search(query, h),
            Backend::ArenaBfs => self.dha.search_arena(query, h),
            Backend::Mih => return Some(self.mih.search(query, h)),
            Backend::Linear => return Some(self.mih.scan(query, h)),
        };
        hits.sort_unstable();
        Some(hits)
    }

    /// Routed search with exact distances, sorted by `(id, distance)`.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        let mut hits = match self.backend_for(h) {
            Backend::HaFlat | Backend::ArenaBfs => {
                if let Some(f) = self.dha.flat() {
                    f.search_with_distances(query, h)
                } else {
                    self.dha.search_with_distances_arena(query, h)
                }
            }
            Backend::Mih => return self.mih.search_with_distances(query, h),
            Backend::Linear => return self.mih.scan_with_distances(query, h),
        };
        hits.sort_unstable_by_key(|&(id, d)| (id, d));
        hits
    }

    /// Routed batch search: one routing decision for the whole batch
    /// (same profile, same `h`), answers per query in canonical order.
    pub fn batch_search(&self, queries: &[BinaryCode], h: u32) -> Vec<Vec<TupleId>> {
        match self.backend_for(h) {
            Backend::HaFlat | Backend::ArenaBfs => {
                let mut answers = if let Some(f) = self.dha.flat() {
                    f.batch_search(queries, h)
                } else {
                    self.dha.batch_search_arena(queries, h)
                };
                for a in &mut answers {
                    a.sort_unstable();
                }
                answers
            }
            Backend::Mih => self.mih.batch_search(queries, h),
            Backend::Linear => queries.iter().map(|q| self.mih.scan(q, h)).collect(),
        }
    }

    /// Refreshes the flat snapshot and the clusteredness estimate.
    /// Idempotent while the epoch is unchanged, like
    /// [`DynamicHaIndex::freeze`].
    pub fn freeze(&mut self) {
        self.dha.freeze();
        self.clusteredness = estimate_clusteredness(self.dha.leaf_codes());
    }

    /// Epoch of the inner HA-Index (bumped by every mutation) — what the
    /// serving layer keys its result cache on.
    pub fn epoch(&self) -> u64 {
        self.dha.epoch()
    }

    /// The inner HA-Index (read-only).
    pub fn dha(&self) -> &DynamicHaIndex {
        &self.dha
    }

    /// Serializes the frozen flat snapshot into the persistent HA-Store
    /// format, if one is current (`build`/`build_with` freeze, so this is
    /// `Some` unless a mutation has landed since).
    pub fn store_bytes(&self) -> Option<Vec<u8>> {
        self.dha.flat().map(crate::FlatHaIndex::store_bytes)
    }

    /// The inner MIH index (read-only).
    pub fn mih(&self) -> &MihIndex {
        &self.mih
    }

    /// Every stored `(code, id)` pair, via the inner HA-Index.
    pub fn items(&self) -> impl Iterator<Item = (BinaryCode, TupleId)> + '_ {
        self.dha.items()
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

    fn memory_bytes(&self) -> usize {
        self.dha.memory_bytes() + self.mih.memory_bytes()
    }
}

impl MutableIndex for PlannedIndex {
    fn insert(&mut self, code: BinaryCode, id: TupleId) {
        self.mih.insert(code.clone(), id);
        self.dha.insert(code, id);
    }

    fn delete(&mut self, code: &BinaryCode, id: TupleId) -> bool {
        let a = self.dha.delete(code, id);
        let b = self.mih.delete(code, id);
        debug_assert_eq!(a, b, "backends must agree on membership");
        a && b
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, clustered_dataset, random_dataset};
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
        let mut idx = PlannedIndex::build(64, data.clone());
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
        // Stale snapshot: HaFlat drops out, answers stay exact.
        idx.insert(BinaryCode::from_u64(77, 64), 9_001);
        assert!(!idx.available().contains(&Backend::HaFlat));
        assert_eq!(idx.search_with_backend(Backend::HaFlat, &data[0].0, 2), None);
        let mut data = data;
        data.push((BinaryCode::from_u64(77, 64), 9_001));
        let q = BinaryCode::from_u64(77, 64);
        assert_matches_oracle(idx.search(&q, 1), &data, &q, 1, "stale window");
        idx.freeze();
        assert!(idx.available().contains(&Backend::HaFlat));
        assert_matches_oracle(idx.search(&q, 1), &data, &q, 1, "after refreeze");
    }

    #[test]
    fn planned_index_mutations_keep_backends_in_lockstep() {
        let data = random_dataset(120, 32, 12);
        let mut idx = PlannedIndex::build(32, data.clone());
        let (code, id) = data[7].clone();
        assert!(idx.delete(&code, id));
        assert!(!idx.delete(&code, id));
        assert_eq!(idx.len(), 119);
        idx.insert(code.clone(), id);
        idx.freeze();
        let live = data;
        for h in [0u32, 3] {
            assert_matches_oracle(idx.search(&code, h), &live, &code, h, "lockstep");
        }
        assert_eq!(idx.dha().len(), idx.mih().len());
    }

    #[test]
    fn batch_and_distances_are_canonical() {
        let data = clustered_dataset(150, 128, 2, 4, 21);
        let idx = PlannedIndex::build(128, data.clone());
        let queries: Vec<BinaryCode> = data.iter().take(4).map(|(c, _)| c.clone()).collect();
        for h in [1u32, 4, 9] {
            let batch = idx.batch_search(&queries, h);
            for (q, got) in queries.iter().zip(&batch) {
                assert_eq!(got, &idx.search(q, h), "batch ≡ solo at h={h}");
                let dists = idx.search_with_distances(q, h);
                assert_eq!(
                    dists.iter().map(|&(id, _)| id).collect::<Vec<_>>(),
                    *got,
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
        }
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
