//! Multi-Index Hashing (Norouzi, Punjani & Fleet) — the second exact
//! search backend beside the HA-Index.
//!
//! The code is split into `m` chunks ([`Segmentation`] — balanced widths,
//! remainder bits front-loaded) and each chunk has one bucket directory
//! from chunk value to rows. A query with threshold `h = m·r + a`
//! (`0 <= a < m`) probes the first `a + 1` chunks at radius `r` and the
//! rest at `r − 1`: the generalized pigeonhole principle (see
//! [`ha_bitcode::chunk`]) guarantees every answer lands in at least one
//! probed bucket, so — unlike Manku's multi-hash tables
//! ([`crate::SegmentScheme::Manku`]), which are complete only up to the
//! table count fixed at build time — MIH
//! is complete for **every** `h`. Probing enumerates all chunk values
//! within the per-chunk radius ([`for_each_neighbor`]); candidates are
//! deduplicated with the per-thread epoch-stamped seen-set (`seen.rs`: a
//! mark equals the current stamp ⇔ the row was reached earlier in *this*
//! query; stamp wrap-around clears) and verified against the full code
//! with an early-exit word-slice distance ([`distance_within_words`]). A
//! select therefore costs O(probes + candidates) and allocates only its
//! answer — nothing proportional to `n` (`tests/mih_alloc.rs` pins that).
//!
//! **Layout.** Built once, never mutated (serving layers mutations on an
//! immutable generation with [`crate::DeltaIndex`]). Each chunk has a CSR
//! directory, `2^b + 1` `starts` into one `rows` array of length `n` (slot
//! `s` owns `rows[starts[s]..starts[s + 1]]`, ascending), filled by one
//! counting sort: a build allocates per chunk, never per bucket. With `D`
//! distinct values in a `w`-bit chunk, `b = min(w, ⌈log₂ D⌉ + 3)`. At
//! `b = w` a slot is the value itself; below, it is the top `b` bits of
//! [`mix64`], and values sharing a slot share its rows. That only adds
//! candidates: each is verified against the full code, and a slot reached
//! twice in one query finds its rows already marked in the seen-set, so
//! answers stay exact at every `h`.
//!
//! The enumeration cost `Σ_k Σ_i C(w_k, i)` is known exactly before any
//! directory is touched ([`MihIndex::probe_estimate`]); when it reaches the
//! row count the index falls back to scanning its own flat row storage,
//! so the worst case is a linear scan, never a combinatorial blowup. This
//! is the regime structure the query planner's cost model rides on: few
//! wide chunks (large `n`) keep buckets selective, and the probe budget
//! `⌊h/m⌋` stays small exactly when `h` is small relative to the code
//! width — sparse, wide codes, where the HA-Flat traversal loses steam.

use ha_bitcode::chunk::{chunk_value, distance_within_words, for_each_neighbor, neighborhood_size};
use ha_bitcode::mix::mix64;
use ha_bitcode::segment::Segmentation;
use ha_bitcode::BinaryCode;

use crate::memory::{vec_bytes, MemoryReport};
use crate::seen::with_seen;
use crate::{HammingIndex, TupleId};

/// Multi-Index Hashing over fixed-length binary codes.
///
/// Rows live in a flat structure-of-arrays store (`stride` words per code,
/// the exact [`BinaryCode::words`] layout); the `m` chunk directories hold
/// row indexes, so codes are stored once no matter how many chunks there
/// are — the replication the paper criticises Manku's method for is
/// avoided by construction.
///
/// ```
/// use ha_core::{HammingIndex, MihIndex};
/// use ha_bitcode::BinaryCode;
///
/// let index = MihIndex::build(16, (0..64u64).map(|i| (BinaryCode::from_u64(i, 16), i)));
/// let q = BinaryCode::from_u64(5, 16);
/// let mut hits = index.search(&q, 1);
/// hits.sort_unstable();
/// assert_eq!(hits, vec![1, 4, 5, 7, 13, 21, 37]); // distance <= 1 from 5
/// assert_eq!(index.complete_up_to(), None);       // exact at EVERY h
/// ```
#[derive(Clone, Debug)]
pub struct MihIndex {
    code_len: usize,
    stride: usize,
    seg: Segmentation,
    dirs: Vec<Directory>,
    /// Flat row storage, `stride` words per row.
    row_words: Vec<u64>,
    ids: Vec<TupleId>,
}

/// An MIH's rows before its directories: every code's words, stored
/// once at `stride` words a row, and its id, in build input order. The
/// planner sorts these rows in Gray order while [`MihRows::directories`]
/// indexes them, then [`MihRows::index`] makes the two one index.
pub(crate) struct MihRows {
    code_len: usize,
    stride: usize,
    row_words: Vec<u64>,
    ids: Vec<TupleId>,
}

/// The chunk directories [`MihRows::directories`] built.
pub(crate) struct Directories {
    seg: Segmentation,
    dirs: Vec<Directory>,
}

impl MihRows {
    /// Copies `rows` borrowed pairs.
    ///
    /// # Panics
    /// If `code_len` is 0 or any code's length differs from it.
    pub(crate) fn copy<'a>(
        code_len: usize,
        rows: usize,
        items: impl IntoIterator<Item = (&'a BinaryCode, TupleId)>,
    ) -> Self {
        assert!(code_len >= 1, "code_len must be >= 1");
        let stride = code_len.div_ceil(64);
        let mut row_words = Vec::with_capacity(rows * stride);
        let mut ids = Vec::with_capacity(rows);
        for (code, id) in items {
            assert_eq!(code.len(), code_len, "code length mismatch");
            row_words.extend_from_slice(code.words());
            ids.push(id);
        }
        assert!(ids.len() < 1 << 29, "row indexes and directory slots must fit a u32");
        MihRows { code_len, stride, row_words, ids }
    }

    /// The rows' words, `code_len.div_ceil(64)` per row.
    pub(crate) fn words(&self) -> &[u64] {
        &self.row_words
    }

    /// One counting-sorted directory per chunk over these rows.
    ///
    /// # Panics
    /// If `chunks` is outside `[ceil(code_len / 64), code_len]`.
    pub(crate) fn directories(&self, chunks: usize) -> Directories {
        let code_len = self.code_len;
        assert!(
            chunks >= code_len.div_ceil(64),
            "{chunks} chunks over {code_len} bits would exceed the 64-bit \
             chunk-key width; need at least {}",
            code_len.div_ceil(64)
        );
        let seg = Segmentation::new(code_len, chunks);
        let mut values = vec![0u64; self.ids.len()];
        let dirs = (0..chunks)
            .map(|k| {
                let (start, width) = seg.bounds(k);
                for (v, row) in values.iter_mut().zip(self.row_words.chunks_exact(self.stride)) {
                    *v = chunk_value(row, start, width);
                }
                Directory::build(width as u32, &values)
            })
            .collect();
        Directories { seg, dirs }
    }

    /// The index of these rows under `dirs`, which must be their
    /// [`MihRows::directories`].
    pub(crate) fn index(self, Directories { seg, dirs }: Directories) -> MihIndex {
        let MihRows { code_len, stride, row_words, ids } = self;
        MihIndex { code_len, stride, seg, dirs, row_words, ids }
    }
}

/// One chunk's CSR bucket directory (see the module docs).
#[derive(Clone, Debug)]
struct Directory {
    /// Slot bits `b`.
    bits: u32,
    /// `b` is below the chunk width: slots come from [`mix64`].
    hashed: bool,
    starts: Vec<u32>,
    rows: Vec<u32>,
}

impl Directory {
    /// Counting-sorts rows by the slot of their `width`-bit chunk value
    /// `values[row]`.
    fn build(width: u32, values: &[u64]) -> Self {
        let bits = directory_bits(width, distinct(width, values));
        let hashed = bits < width;
        let mut starts = vec![0u32; (1 << bits) + 1];
        let mut rows = vec![0u32; values.len()];
        let in_order =
            values.iter().enumerate().map(|(row, &v)| (slot_of(hashed, bits, v), row as u32));
        counting_sort(in_order, &mut starts, &mut rows);
        Directory { bits, hashed, starts, rows }
    }

    /// The rows whose chunk value is `value`, plus, in a hashed directory,
    /// those of values sharing its slot.
    #[inline]
    fn bucket(&self, value: u64) -> &[u32] {
        let s = slot_of(self.hashed, self.bits, value);
        &self.rows[self.starts[s] as usize..self.starts[s + 1] as usize]
    }
}

/// Stable counting sort of `(key, row)` pairs into `out`, leaving the
/// CSR offsets of each key in the zeroed `starts` (one longer than the
/// key range): histogram, prefix sum, then a scatter in input order.
fn counting_sort(
    items: impl Iterator<Item = (usize, u32)> + Clone,
    starts: &mut [u32],
    out: &mut [u32],
) {
    for (key, _) in items.clone() {
        starts[key + 1] += 1;
    }
    for k in 1..starts.len() {
        starts[k] += starts[k - 1];
    }
    // `starts[key]` is the key's cursor; afterwards it holds the key's
    // end, i.e. the next key's start, so shift by one.
    for (key, item) in items {
        out[starts[key] as usize] = item;
        starts[key] += 1;
    }
    starts.copy_within(..starts.len() - 1, 1);
    starts[0] = 0;
}

#[inline]
fn slot_of(hashed: bool, bits: u32, value: u64) -> usize {
    (if hashed { mix64(value) >> (64 - bits) } else { value }) as usize
}

/// Slot bits for a `width`-bit chunk holding `distinct` distinct values:
/// `min(width, ⌈log₂ distinct⌉ + 3)`.
fn directory_bits(width: u32, distinct: usize) -> u32 {
    let ceil_log2 = usize::BITS - distinct.saturating_sub(1).leading_zeros();
    width.min(ceil_log2 + 3)
}

/// Distinct `width`-bit values: a bitmap when the value space is at most
/// 64 bits per value, a hash set otherwise.
fn distinct(width: u32, values: &[u64]) -> usize {
    if width < 64 && 1u64 << width <= 64 * values.len().max(64) as u64 {
        let mut marks = vec![0u64; (1usize << width).div_ceil(64)];
        for &v in values {
            marks[(v >> 6) as usize] |= 1 << (v & 63);
        }
        marks.iter().map(|w| w.count_ones() as usize).sum()
    } else {
        values.iter().collect::<std::collections::HashSet<_>>().len()
    }
}

impl MihIndex {
    /// Chunk count minimising probe cost for an expected dataset size:
    /// `m ≈ bits / log2(n)` (Norouzi et al. §3.3 — chunk width near
    /// `log2 n` keeps expected bucket occupancy at O(1)), clamped so every
    /// chunk fits a `u64` key and no chunk is empty.
    pub(crate) fn auto_chunks(code_len: usize, expected_len: usize) -> usize {
        assert!(code_len >= 1, "code_len must be >= 1");
        let lg = (expected_len.max(2) as f64).log2();
        let m = (code_len as f64 / lg).round() as usize;
        m.clamp(code_len.div_ceil(64), code_len)
    }

    /// Builds from an iterator of `(code, id)` pairs, sizing the chunk
    /// count from the actual item count.
    ///
    /// # Panics
    /// If any code's length differs from `code_len`.
    pub fn build(code_len: usize, items: impl IntoIterator<Item = (BinaryCode, TupleId)>) -> Self {
        let items: Vec<_> = items.into_iter().collect();
        Self::with_chunks(code_len, Self::auto_chunks(code_len, items.len()), items)
    }

    /// Builds with an explicit chunk count.
    ///
    /// # Panics
    /// If `code_len` is 0, if `chunks` is outside
    /// `[ceil(code_len / 64), code_len]` (a chunk wider than 64 bits cannot
    /// key a `u64` directory; the count is rejected, never adjusted), or
    /// if any code's length differs from `code_len`.
    pub fn with_chunks(
        code_len: usize,
        chunks: usize,
        items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    ) -> Self {
        let items: Vec<_> = items.into_iter().collect();
        Self::bulk(code_len, chunks, items.len(), items.iter().map(|(code, id)| (code, *id)))
    }

    /// The one loader behind [`MihIndex::with_chunks`] and the planner's
    /// builds: a `chunks`-directory index over `rows` borrowed pairs.
    pub(crate) fn bulk<'a>(
        code_len: usize,
        chunks: usize,
        rows: usize,
        items: impl IntoIterator<Item = (&'a BinaryCode, TupleId)>,
    ) -> Self {
        let rows = MihRows::copy(code_len, rows, items);
        let dirs = rows.directories(chunks);
        rows.index(dirs)
    }

    /// Number of chunks.
    pub fn chunks(&self) -> usize {
        self.seg.count()
    }

    /// Per-chunk probe radii for threshold `h`: the first `h % m + 1`
    /// chunks get `⌊h/m⌋`, the rest `⌊h/m⌋ − 1` (`None` = not probed,
    /// which happens exactly when `⌊h/m⌋ = 0`).
    fn probe_radii(&self, h: u32) -> impl Iterator<Item = (usize, Option<u32>)> + '_ {
        let m = self.seg.count() as u32;
        let r = h / m;
        let a = h % m;
        (0..self.seg.count()).map(move |k| {
            let radius = if (k as u32) <= a {
                Some(r)
            } else {
                r.checked_sub(1)
            };
            (k, radius)
        })
    }

    /// Exact number of bucket lookups a `search(…, h)` performs before
    /// verification — `Σ` over probed chunks of the chunk-neighborhood
    /// size, saturating. Query-independent; the planner's probe-cost term.
    pub fn probe_estimate(&self, h: u32) -> u64 {
        let mut total = 0u64;
        for (k, radius) in self.probe_radii(h) {
            if let Some(radius) = radius {
                let (_, width) = self.seg.bounds(k);
                total = total.saturating_add(neighborhood_size(width as u32, radius));
            }
        }
        total
    }

    /// True if `search(…, h)` would take the linear-scan fallback because
    /// the probe enumeration alone costs as much as scanning every row.
    pub fn would_scan(&self, h: u32) -> bool {
        self.probe_estimate(h) >= self.ids.len() as u64
    }

    fn row(&self, row: usize) -> &[u64] {
        &self.row_words[row * self.stride..(row + 1) * self.stride]
    }

    /// Every row within `h` of `query`, each exactly once, mapped through
    /// `make(id, distance)` and sorted — the canonical order of every
    /// entry point.
    fn collect_sorted<T: Ord>(
        &self,
        query: &BinaryCode,
        h: u32,
        scan_only: bool,
        make: impl Fn(TupleId, u32) -> T,
    ) -> Vec<T> {
        let mut out = Vec::new();
        self.for_each_match(query, h, scan_only, |row, d| out.push(make(self.ids[row], d)));
        out.sort_unstable();
        out
    }

    /// Calls `emit(row, distance)` once per row within `h` of `query`.
    /// Rows come from the linear scan when `scan_only` is set or the probe
    /// enumeration alone would cost a scan, from chunk probing otherwise.
    fn for_each_match(
        &self,
        query: &BinaryCode,
        h: u32,
        scan_only: bool,
        emit: impl FnMut(usize, u32),
    ) {
        if scan_only || self.would_scan(h) {
            self.scan_rows(query, h, emit);
        } else {
            self.probe_rows(query, h, emit);
        }
    }

    fn scan_rows(&self, query: &BinaryCode, h: u32, mut emit: impl FnMut(usize, u32)) {
        assert_eq!(query.len(), self.code_len, "query length mismatch");
        let qw = query.words();
        for row in 0..self.ids.len() {
            if let Some(d) = distance_within_words(qw, self.row(row), h) {
                emit(row, d);
            }
        }
    }

    fn probe_rows(&self, query: &BinaryCode, h: u32, mut emit: impl FnMut(usize, u32)) {
        assert_eq!(query.len(), self.code_len, "query length mismatch");
        let qw = query.words();
        // The Norouzi quantities, accumulated in locals and flushed once.
        let (mut probes, mut candidates, mut dedup_hits) = (0u64, 0u64, 0u64);
        with_seen(self.ids.len(), |seen| {
            for (k, radius) in self.probe_radii(h) {
                let Some(radius) = radius else { continue };
                let value = self.seg.extract(query, k);
                let (_, width) = self.seg.bounds(k);
                let dir = &self.dirs[k];
                for_each_neighbor(value, width as u32, radius, &mut |v| {
                    probes += 1;
                    let bucket = dir.bucket(v);
                    candidates += bucket.len() as u64;
                    for &row in bucket {
                        let row = row as usize;
                        if seen.test_and_set(row) {
                            dedup_hits += 1;
                            continue;
                        }
                        if let Some(d) = distance_within_words(qw, self.row(row), h) {
                            emit(row, d);
                        }
                    }
                });
            }
        });
        if ha_obs::is_enabled() {
            ha_obs::add_many(&[
                ("mih.probes", probes),
                ("mih.candidates", candidates),
                ("mih.dedup_hits", dedup_hits),
                ("mih.verified", candidates - dedup_hits),
            ]);
        }
    }

    /// Linear scan over the flat row storage — the fallback path, also
    /// exposed as the planner's "linear scan" backend so that routing to
    /// `Linear` needs no second copy of the data.
    pub(crate) fn scan_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        self.collect_sorted(query, h, true, |id, d| (id, d))
    }

    /// Linear scan over the flat row storage, returning ids sorted by id.
    pub fn scan(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        self.collect_sorted(query, h, true, |id, _| id)
    }

    /// Search returning `(id, exact distance)` pairs, sorted by id — the
    /// canonical order every entry point of this index produces, so probe
    /// order never leaks into answers.
    pub fn search_with_distances(&self, query: &BinaryCode, h: u32) -> Vec<(TupleId, u32)> {
        self.collect_sorted(query, h, false, |id, d| (id, d))
    }

    /// The distinct codes within `h` of `query` with their exact
    /// distances (order free): the rows [`HammingIndex::search`] finds,
    /// with the rows of one code collapsed to one entry.
    pub(crate) fn search_codes(&self, query: &BinaryCode, h: u32) -> Vec<(BinaryCode, u32)> {
        let mut rows: Vec<(&[u64], u32)> = Vec::new();
        self.for_each_match(query, h, false, |row, d| rows.push((self.row(row), d)));
        rows.sort_unstable();
        rows.dedup();
        rows.into_iter()
            .map(|(words, d)| (BinaryCode::from_words(words, self.code_len), d))
            .collect()
    }

    /// The stored codes' words, one row of `code_len.div_ceil(64)` words
    /// per [`MihIndex::items`] pair, in the same order.
    pub(crate) fn row_words(&self) -> &[u64] {
        &self.row_words
    }

    /// The stored ids, one per row of [`MihIndex::row_words`].
    pub(crate) fn ids(&self) -> &[TupleId] {
        &self.ids
    }

    /// Every stored `(code, id)` pair, in build input order.
    pub(crate) fn items(&self) -> impl Iterator<Item = (BinaryCode, TupleId)> + '_ {
        (0..self.ids.len())
            .map(|row| (BinaryCode::from_words(self.row(row), self.code_len), self.ids[row]))
    }

    /// Itemized memory usage (Table 4's space column).
    pub fn memory_report(&self) -> MemoryReport {
        let starts: usize = self.dirs.iter().map(|d| vec_bytes(&d.starts)).sum();
        let rows: usize = self.dirs.iter().map(|d| vec_bytes(&d.rows)).sum();
        MemoryReport {
            structure_bytes: vec_bytes(&self.dirs) + starts,
            code_bytes: vec_bytes(&self.row_words),
            payload_bytes: vec_bytes(&self.ids) + rows,
        }
    }
}

impl HammingIndex for MihIndex {
    fn name(&self) -> &'static str {
        "MIH"
    }

    fn len(&self) -> usize {
        self.ids.len()
    }

    fn code_len(&self) -> usize {
        self.code_len
    }

    /// Ids ascending, with multiplicity.
    fn search(&self, query: &BinaryCode, h: u32) -> Vec<TupleId> {
        self.collect_sorted(query, h, false, |id, _| id)
    }

    fn memory_bytes(&self) -> usize {
        self.memory_report().total()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, clustered_dataset, random_dataset};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn auto_chunks_tracks_dataset_size() {
        // 64-bit codes, 30k rows: log2(30000) ≈ 14.9 → m ≈ 4.
        assert_eq!(MihIndex::auto_chunks(64, 30_000), 4);
        // 512-bit codes, 6k rows: log2(6000) ≈ 12.6 → m ≈ 41.
        assert_eq!(MihIndex::auto_chunks(512, 6_000), 41);
        // Tiny datasets want chunk width ≈ log2(n) → ~1-bit chunks.
        assert_eq!(MihIndex::auto_chunks(512, 2), 512);
        assert_eq!(MihIndex::auto_chunks(32, 0), 32);
        // Huge n drives m down to the one-chunk-per-u64-word floor.
        assert_eq!(MihIndex::auto_chunks(64, usize::MAX), 1);
        assert_eq!(MihIndex::auto_chunks(512, usize::MAX), 8);
    }

    #[test]
    #[should_panic(expected = "64-bit")]
    fn too_few_chunks_for_wide_codes_panics() {
        MihIndex::with_chunks(512, 5, Vec::new()); // 103-bit chunks cannot key a u64
    }

    #[test]
    fn probe_estimate_matches_pigeonhole_budget() {
        let idx = MihIndex::with_chunks(64, 4, Vec::new()); // 16-bit chunks
        // h=3, m=4: r=0, a=3 → all four chunks at radius 0 → 4 probes.
        assert_eq!(idx.probe_estimate(3), 4);
        // h=4: r=1, a=0 → chunk 0 at radius 1 (17), chunks 1..4 at 0 (1).
        assert_eq!(idx.probe_estimate(4), 17 + 3);
        // h=0: a single exact probe on chunk 0.
        assert_eq!(idx.probe_estimate(0), 1);
    }

    #[test]
    fn search_matches_oracle_across_regimes() {
        for (code_len, n, clustered) in
            [(32usize, 400usize, true), (64, 400, false), (128, 200, true), (512, 120, false)]
        {
            let data = if clustered {
                clustered_dataset(n, code_len, 4, 3, 77)
            } else {
                random_dataset(n, code_len, 77)
            };
            let idx = MihIndex::build(code_len, data.clone());
            assert_eq!(idx.len(), n);
            let mut rng = StdRng::seed_from_u64(123);
            for trial in 0..4 {
                let q = if trial % 2 == 0 {
                    data[trial * 7 % n].0.clone()
                } else {
                    BinaryCode::random(code_len, &mut rng)
                };
                for h in [0u32, 1, 3, 8, code_len as u32] {
                    assert_matches_oracle(
                        idx.search(&q, h),
                        &data,
                        &q,
                        h,
                        &format!("bits={code_len} trial={trial}"),
                    );
                }
            }
        }
    }

    #[test]
    fn scan_fallback_engages_and_agrees() {
        let data = random_dataset(60, 32, 5);
        let idx = MihIndex::build(32, data.clone());
        let h = 30; // probe estimate dwarfs 60 rows
        assert!(idx.would_scan(h));
        let q = BinaryCode::random(32, &mut StdRng::seed_from_u64(6));
        assert_eq!(idx.search_with_distances(&q, h), idx.scan_with_distances(&q, h));
        assert_matches_oracle(idx.search(&q, h), &data, &q, h, "fallback");
    }

    /// The slot-bit rule `b = min(w, ⌈log₂ D⌉ + 3)`, with `D` the distinct
    /// values of a chunk (each stored twice here, so rows are not values):
    /// over a bitmap-counted 16-bit chunk, where `D = 4096` is the last
    /// hashed directory, and over one hash-set-counted 64-bit chunk.
    #[test]
    fn directory_bits_follow_the_distinct_count_rule() {
        let rule = [(1u64, 3u32), (2, 4), (3, 5), (4, 5), (5, 6), (100, 10), (4096, 15), (4097, 16)];
        for (d, bits) in rule {
            assert_eq!(directory_bits(16, d as usize), bits, "w = 16, D = {d}");
            let narrow = (0..2 * d).map(|i| (BinaryCode::from_u64((i % d) << 16, 32), i));
            let mih = MihIndex::with_chunks(32, 2, narrow);
            assert_eq!(mih.dirs[0].bits, bits, "16-bit chunk, D = {d}");
            assert_eq!(mih.dirs[0].hashed, bits < 16, "16-bit chunk, D = {d}");
            assert_eq!(mih.dirs[1].bits, 3, "a chunk holding one value");
            let spread = |v: u64| v.wrapping_mul(0x9e37_79b9_7f4a_7c15); // a bijection
            let wide = (0..2 * d).map(|i| (BinaryCode::from_u64(spread(i % d), 64), i));
            let mih = MihIndex::with_chunks(64, 1, wide);
            assert_eq!(mih.dirs[0].bits, bits, "64-bit chunk, D = {d}");
            assert!(mih.dirs[0].hashed);
        }
    }

    #[test]
    fn duplicate_codes_under_distinct_ids_coexist() {
        let code = BinaryCode::from_u64(42, 32);
        let idx = MihIndex::with_chunks(32, 4, vec![(code.clone(), 1), (code.clone(), 2)]);
        assert_eq!(idx.search(&code, 0), vec![1, 2]);
    }

    #[test]
    fn results_are_id_sorted_regardless_of_path() {
        let data = clustered_dataset(300, 64, 3, 2, 31);
        let idx = MihIndex::build(64, data.clone());
        let q = data[5].0.clone();
        for h in [2u32, 6, 40] {
            let got = idx.search(&q, h);
            let mut sorted = got.clone();
            sorted.sort_unstable();
            assert_eq!(got, sorted, "h={h}: canonical id order");
        }
    }

    #[test]
    fn memory_report_counts_all_arenas() {
        let idx = MihIndex::build(128, random_dataset(200, 128, 3));
        let r = idx.memory_report();
        assert!(r.code_bytes >= 200 * 16, "flat rows: 2 words per code");
        assert!(r.structure_bytes > 0 && r.payload_bytes > 0);
        assert_eq!(idx.memory_bytes(), r.total());
    }

    #[test]
    fn empty_index_answers_empty() {
        let idx = MihIndex::with_chunks(64, 4, Vec::new());
        assert!(idx.is_empty());
        let q = BinaryCode::from_u64(1, 64);
        assert!(idx.search(&q, 64).is_empty());
    }
}
