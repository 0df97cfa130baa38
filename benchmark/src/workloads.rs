//! The five workloads. Each is a fixed sequence of op positions (a
//! *pass*) over inputs that are a pure function of `(workload, seed)`;
//! `drive.rs` replays the pass and owns all timing policy. A workload
//! here only says how to stage inputs, set the system up, run one pass,
//! and check answers against the benchmark's own oracle.

use std::collections::VecDeque;
use std::time::Instant;

use crate::gen::{self, Codes, Rng};
use crate::layers::{self as l, Code, Item};
use crate::probes::{self, Values};
use crate::trace::{Tracer, NO_PARENT, ROOT};

/// Requests the serving workloads keep in flight from the one client
/// thread (8 concurrent callers without 8 threads).
pub const WINDOW: usize = 8;
/// Warm-up positions checked against the oracle.
const CHECKED: usize = 256;

#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct Digest {
    pub count: u64,
    pub sum: u64,
}

impl Digest {
    fn fold(&mut self, ids: &[u64]) {
        self.count += ids.len() as u64;
        self.sum = ids.iter().fold(self.sum, |a, &id| a.wrapping_add(id));
    }
}

#[derive(Default)]
pub struct PassOut {
    pub digest: Digest,
    pub failed: u64,
}

/// What `drive` knows and `layer_values` needs.
pub struct LayerCtx {
    /// Passes run since `mark`.
    pub passes: usize,
    pub client_p50_us: f64,
}

#[derive(Default)]
pub struct FinishOut {
    pub attempted: u64,
    pub failed: u64,
    pub values: Vec<(&'static str, f64)>,
}

pub trait Workload {
    /// Inputs of one set-up, cloned outside the timed region.
    type Staged;
    type Sys;
    fn name(&self) -> &'static str;
    /// Op positions in a pass.
    fn positions(&self) -> usize;
    /// Units of work a pass completes (`ops_s` = this / pass time).
    fn work(&self) -> f64 {
        self.positions() as f64
    }
    /// Whether position `pos` enters the latency percentiles.
    fn timed(&self, _pos: usize) -> bool {
        true
    }
    /// Timed passes of an untraced run.
    fn passes(&self) -> usize;
    /// Set-ups of an untraced run.
    fn setups(&self) -> usize {
        3
    }
    /// Prefixes of the per-layer metrics this workload gives no work to.
    fn idle(&self) -> &'static [&'static str];
    fn stage(&self) -> Self::Staged;
    fn setup(&self, tr: &mut Tracer, staged: Self::Staged) -> Result<Self::Sys, String>;
    /// Runs the pass, stamping every position's reply on `tl`. With `verify`
    /// sampled answers are compared with the oracle.
    fn pass(
        &self,
        sys: &mut Self::Sys,
        tr: &mut Tracer,
        tl: &mut Timeline,
        verify: bool,
    ) -> PassOut;
    /// Exact counts that must repeat bit-for-bit for a given seed, however
    /// many passes the run had time for (`passes_run` includes the warm-up).
    fn exact(&self, sys: &Self::Sys, passes_run: u64) -> Vec<(&'static str, u64)>;
    /// Checks that need the system torn down (recovery); consumes it.
    fn finish(&self, _sys: Self::Sys, _tr: &mut Tracer) -> FinishOut {
        FinishOut::default()
    }
    /// Traced run only: called once before the passes whose counters
    /// `layer_values` reports.
    fn mark(&self, _sys: &mut Self::Sys) {}
    /// Traced run only: per-layer metrics taken from the structs the
    /// program returns and from probe sections on this workload's data.
    fn layer_values(&self, sys: &mut Self::Sys, ctx: &LayerCtx, out: &mut Values);
}

/// Sizes ÷ 100 in smoke mode.
#[derive(Clone, Copy)]
pub struct Scale {
    pub smoke: bool,
}

impl Scale {
    fn of(self, full: usize) -> usize {
        if self.smoke {
            (full / 100).max(32)
        } else {
            full
        }
    }
}

/// The benchmark's own answer: popcount linear scan, ids ascending.
fn oracle_scan(data: &Codes, q: &[u64], h: u32, first_id: u64, out: &mut Vec<u64>) {
    let w = data.width();
    for (i, row) in data.words.chunks_exact(w).enumerate() {
        let d: u32 = row.iter().zip(q).map(|(a, b)| (a ^ b).count_ones()).sum();
        if d <= h {
            out.push(first_id + i as u64);
        }
    }
}

fn check(answer: &[u64], data: &Codes, q: &[u64], h: u32) -> bool {
    let mut want = Vec::new();
    oracle_scan(data, q, h, 0, &mut want);
    answer == want
}

/// The clock of one pass and each position's latency.
pub struct Timeline {
    start: Instant,
    /// Submit → reply, ns.
    pub lat: Vec<u64>,
}

impl Timeline {
    /// Starts the pass clock.
    pub fn start(positions: usize) -> Timeline {
        Timeline {
            lat: vec![0; positions],
            start: Instant::now(),
        }
    }

    fn reply(&mut self, pos: usize, submitted: Instant) {
        self.lat[pos] = submitted.elapsed().as_nanos() as u64;
    }

    /// Pass start → now, ns.
    pub fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

// ---- select_dense / select_sparse ------------------------------------

pub struct Select {
    name: &'static str,
    passes: usize,
    h: u32,
    data: Codes,
    query_words: Codes,
    queries: Vec<Code>,
}

impl Select {
    /// 512-bit, 12 centres × 4 flips; queries = data row + U{0..3} flips.
    pub fn dense(seed: u64, scale: Scale) -> Select {
        let data = gen::clustered(
            512,
            scale.of(200_000),
            12,
            4,
            &mut Rng::stream(seed, "select_dense/data"),
        );
        Select::new("select_dense", 15, 6, data, scale.of(4096), 3, seed)
    }

    /// 64-bit near-duplicate groups of 32 (2 flips); queries = row + U{0..2}.
    pub fn sparse(seed: u64, scale: Scale) -> Select {
        let n = scale.of(1_000_000);
        let data = gen::clustered(
            64,
            n,
            n / 32,
            2,
            &mut Rng::stream(seed, "select_sparse/data"),
        );
        Select::new("select_sparse", 41, 4, data, scale.of(8192), 2, seed)
    }

    fn new(
        name: &'static str,
        passes: usize,
        h: u32,
        data: Codes,
        positions: usize,
        flips: usize,
        seed: u64,
    ) -> Select {
        let query_words = gen::near(
            &data,
            positions,
            flips,
            &mut Rng::stream(seed, &format!("{name}/queries")),
        );
        let queries = l::codes(&query_words);
        Select {
            name,
            passes,
            h,
            data,
            query_words,
            queries,
        }
    }
}

impl Workload for Select {
    type Staged = Vec<Item>;
    type Sys = l::Index;

    fn name(&self) -> &'static str {
        self.name
    }
    fn positions(&self) -> usize {
        self.queries.len()
    }
    fn passes(&self) -> usize {
        self.passes
    }
    fn idle(&self) -> &'static [&'static str] {
        &["service.", "distributed.", "mapreduce.", "hashing."]
    }
    fn stage(&self) -> Vec<Item> {
        l::items(&self.data, 0)
    }
    fn setup(&self, tr: &mut Tracer, staged: Vec<Item>) -> Result<l::Index, String> {
        Ok(l::index_build(tr, self.data.bits, staged))
    }

    fn pass(
        &self,
        index: &mut l::Index,
        tr: &mut Tracer,
        tl: &mut Timeline,
        verify: bool,
    ) -> PassOut {
        let mut out = PassOut::default();
        let stride = (self.positions() / CHECKED).max(1);
        for (pos, q) in self.queries.iter().enumerate() {
            let t = Instant::now();
            let root = tr.open(ROOT, NO_PARENT, pos as u32);
            let answer = l::index_search(tr, root, pos as u32, index, q, self.h);
            tr.close(root);
            tl.reply(pos, t);
            out.digest.fold(&answer);
            if verify
                && pos % stride == 0
                && !check(&answer, &self.data, self.query_words.row(pos), self.h)
            {
                out.failed += 1;
            }
        }
        out
    }

    fn exact(&self, index: &l::Index, _passes_run: u64) -> Vec<(&'static str, u64)> {
        let route = l::index_route(index, self.h);
        let routed = l::BACKENDS
            .iter()
            .position(|&b| b == route)
            .unwrap_or(usize::MAX);
        vec![
            ("index_bytes", l::index_memory_bytes(index) as u64),
            ("route", routed as u64),
        ]
    }

    fn layer_values(&self, index: &mut l::Index, _ctx: &LayerCtx, out: &mut Values) {
        let sample = probes::probe_queries(&self.queries);
        probes::index_layers(self.stage(), &sample, self.h, Some(index), out);
    }
}

// ---- serve_read -------------------------------------------------------

/// Data, query pool and Zipf draw shared by the two serving workloads.
struct ServeInputs {
    h: u32,
    data: Codes,
    pool_words: Codes,
    pool: Vec<Code>,
}

impl ServeInputs {
    fn new(seed: u64, scale: Scale) -> ServeInputs {
        let n = scale.of(400_000);
        let data = gen::clustered(64, n, n / 32, 2, &mut Rng::stream(seed, "serve/data"));
        let pool_words = gen::near(
            &data,
            scale.of(16_384),
            2,
            &mut Rng::stream(seed, "serve/pool"),
        );
        let pool = l::codes(&pool_words);
        ServeInputs {
            h: 4,
            data,
            pool_words,
            pool,
        }
    }

    fn layer_values(&self, out: &mut Values) {
        let sample = probes::probe_queries(&self.pool);
        probes::index_layers(l::items(&self.data, 0), &sample, self.h, None, out);
    }
}

pub struct ServeRead {
    inp: ServeInputs,
    seq: Vec<u32>,
}

impl ServeRead {
    pub fn new(seed: u64, scale: Scale) -> ServeRead {
        let inp = ServeInputs::new(seed, scale);
        let seq = gen::zipf(
            inp.pool.len(),
            1.0,
            scale.of(32_768),
            &mut Rng::stream(seed, "serve_read/seq"),
        );
        ServeRead { inp, seq }
    }
}

pub struct ReadSys {
    serve: l::Serve,
    marked: Option<l::ServeCounters>,
}

impl Workload for ServeRead {
    type Staged = Vec<Item>;
    type Sys = ReadSys;

    fn name(&self) -> &'static str {
        "serve_read"
    }
    fn positions(&self) -> usize {
        self.seq.len()
    }
    fn passes(&self) -> usize {
        21
    }
    fn idle(&self) -> &'static [&'static str] {
        &[
            "core.search_self_us",
            "service.pump_us",
            "service.insert_us",
            "service.delete_us",
            "service.merge_",
            "service.wal_bytes_per_write",
            "service.recover_s",
            "distributed.",
            "mapreduce.",
            "hashing.",
        ]
    }
    fn stage(&self) -> Vec<Item> {
        l::items(&self.inp.data, 0)
    }
    fn setup(&self, tr: &mut Tracer, staged: Vec<Item>) -> Result<ReadSys, String> {
        Ok(ReadSys {
            serve: l::serve_build(tr, 64, staged, 1)?,
            marked: None,
        })
    }

    fn pass(&self, sys: &mut ReadSys, tr: &mut Tracer, tl: &mut Timeline, verify: bool) -> PassOut {
        let mut out = PassOut::default();
        let stride = (self.positions() / CHECKED).max(1);
        let mut inflight: VecDeque<(usize, u32, Instant, Option<l::Ticket>)> =
            VecDeque::with_capacity(WINDOW);
        let mut reap =
            |tr: &mut Tracer, (pos, root, t, ticket): (usize, u32, Instant, Option<l::Ticket>)| {
                let answer = ticket.and_then(|tk| l::wait(tr, root, pos as u32, tk));
                tr.close(root);
                tl.reply(pos, t);
                match answer {
                    Some(ids) => {
                        out.digest.fold(&ids);
                        let q = self.inp.pool_words.row(self.seq[pos] as usize);
                        if verify
                            && pos % stride == 0
                            && !check(&ids, &self.inp.data, q, self.inp.h)
                        {
                            out.failed += 1;
                        }
                    }
                    None => out.failed += 1,
                }
            };
        for (pos, &qi) in self.seq.iter().enumerate() {
            if inflight.len() == WINDOW {
                reap(tr, inflight.pop_front().expect("window is full"));
            }
            let t = Instant::now();
            let root = tr.open(ROOT, NO_PARENT, pos as u32);
            let ticket = l::submit(
                tr,
                root,
                pos as u32,
                &sys.serve,
                &self.inp.pool[qi as usize],
                self.inp.h,
            );
            inflight.push_back((pos, root, t, ticket));
        }
        for entry in inflight {
            reap(tr, entry);
        }
        out
    }

    fn exact(&self, _sys: &ReadSys, _passes_run: u64) -> Vec<(&'static str, u64)> {
        Vec::new()
    }

    fn mark(&self, sys: &mut ReadSys) {
        sys.marked = Some(l::serve_counters(&sys.serve, None));
    }

    fn layer_values(&self, sys: &mut ReadSys, ctx: &LayerCtx, out: &mut Values) {
        if let Some(before) = &sys.marked {
            let now = l::serve_counters(&sys.serve, None);
            probes::serve_layers(&now, before, ctx.passes, ctx.client_p50_us, out);
        }
        self.inp.layer_values(out);
    }
}

// ---- serve_mixed ------------------------------------------------------

#[derive(Clone, Copy)]
enum Op {
    Select(u32),
    Insert(u32),
    Delete(u32),
}

pub struct ServeMixed {
    inp: ServeInputs,
    ops: Vec<Op>,
    /// Tuples the passes insert and delete again (ids above the data).
    extras_words: Codes,
    extras: Vec<Item>,
    /// Tuples inserted after the last pass and never deleted: the
    /// acknowledged writes recovery must bring back.
    tail_words: Codes,
    tail: Vec<Item>,
}

/// Inserts that stay live before the pass starts deleting the oldest.
const LAG: usize = 64;

impl ServeMixed {
    pub fn new(seed: u64, scale: Scale) -> ServeMixed {
        let inp = ServeInputs::new(seed, scale);
        let positions = scale.of(24_576);
        // 5 % of positions mutate: K inserts and K deletes, alternating
        // once LAG inserts are live, so the pass leaves the data as it
        // found it and every pass replays the same live multiset.
        let k = (positions / 40).max(2);
        let lag = LAG.min(k / 2);
        let mut mutations = Vec::with_capacity(2 * k);
        for i in 0..k {
            mutations.push(Op::Insert(i as u32));
            if i >= lag {
                mutations.push(Op::Delete((i - lag) as u32));
            }
        }
        mutations.extend((k - lag..k).map(|i| Op::Delete(i as u32)));
        let mut rng = Rng::stream(seed, "serve_mixed/ops");
        let mut is_mutation = vec![false; positions];
        let mut placed = 0;
        while placed < mutations.len() {
            let at = rng.below(positions);
            if !is_mutation[at] {
                is_mutation[at] = true;
                placed += 1;
            }
        }
        let draws = gen::zipf(inp.pool.len(), 1.0, positions, &mut rng);
        let mut next = mutations.into_iter();
        let ops = (0..positions)
            .map(|p| {
                if is_mutation[p] {
                    next.next().expect("one per flag")
                } else {
                    Op::Select(draws[p])
                }
            })
            .collect();
        let n = inp.data.len() as u64;
        let extras_words = gen::near(
            &inp.data,
            k,
            2,
            &mut Rng::stream(seed, "serve_mixed/extras"),
        );
        let extras = l::items(&extras_words, n);
        let tail_words = gen::near(
            &inp.data,
            lag,
            2,
            &mut Rng::stream(seed, "serve_mixed/tail"),
        );
        let tail = l::items(&tail_words, n + k as u64);
        ServeMixed {
            inp,
            ops,
            extras_words,
            extras,
            tail_words,
            tail,
        }
    }

    /// Expected answer at a moment when `live` extras are inserted.
    fn expected(&self, q: &[u64], live: &[u32], tail_live: bool) -> Vec<u64> {
        let mut want = Vec::new();
        oracle_scan(&self.inp.data, q, self.inp.h, 0, &mut want);
        let first = self.inp.data.len() as u64;
        let mut extra = Vec::new();
        oracle_scan(&self.extras_words, q, self.inp.h, first, &mut extra);
        want.extend(
            extra
                .into_iter()
                .filter(|id| live.contains(&((id - first) as u32))),
        );
        if tail_live {
            oracle_scan(
                &self.tail_words,
                q,
                self.inp.h,
                first + self.extras.len() as u64,
                &mut want,
            );
        }
        want.sort_unstable();
        want
    }
}

pub struct MixedSys {
    serve: l::Serve,
    dfs: l::Dfs,
    marked: Option<l::ServeCounters>,
}

/// Mutable state of one `serve_mixed` pass.
struct MixedPass<'a> {
    w: &'a ServeMixed,
    serve: &'a l::Serve,
    tl: &'a mut Timeline,
    out: PassOut,
    window: Vec<(usize, u32, Instant, Option<l::Ticket>)>,
    live: Vec<u32>,
    verify: bool,
    stride: usize,
}

impl MixedPass<'_> {
    /// 8 submits → `pump_all()` → 8 waits: micro-batches are the same in
    /// every pass.
    fn flush(&mut self, tr: &mut Tracer) {
        let Some(&(first_pos, first_root, ..)) = self.window.first() else {
            return;
        };
        l::pump_all(tr, first_root, first_pos as u32, self.serve);
        for (pos, root, t, ticket) in std::mem::take(&mut self.window) {
            let answer = ticket.and_then(|tk| l::wait(tr, root, pos as u32, tk));
            tr.close(root);
            self.tl.reply(pos, t);
            let Some(ids) = answer else {
                self.out.failed += 1;
                continue;
            };
            self.out.digest.fold(&ids);
            if self.verify && pos % self.stride == 0 {
                let Op::Select(qi) = self.w.ops[pos] else {
                    unreachable!("only selects are windowed")
                };
                if ids
                    != self
                        .w
                        .expected(self.w.inp.pool_words.row(qi as usize), &self.live, false)
                {
                    self.out.failed += 1;
                }
            }
        }
    }

    fn mutate(&mut self, tr: &mut Tracer, pos: usize, item: &Item, insert: bool) {
        self.flush(tr);
        let t = Instant::now();
        let root = tr.open(ROOT, NO_PARENT, pos as u32);
        let ok = if insert {
            l::insert(tr, root, pos as u32, self.serve, item)
        } else {
            l::delete(tr, root, pos as u32, self.serve, item)
        };
        if !ok {
            self.out.failed += 1;
        }
        tr.close(root);
        self.tl.reply(pos, t);
    }
}

impl Workload for ServeMixed {
    type Staged = Vec<Item>;
    type Sys = MixedSys;

    fn name(&self) -> &'static str {
        "serve_mixed"
    }
    fn positions(&self) -> usize {
        self.ops.len()
    }
    fn passes(&self) -> usize {
        9
    }
    fn idle(&self) -> &'static [&'static str] {
        &[
            "core.search_self_us",
            "distributed.",
            "mapreduce.",
            "hashing.",
        ]
    }
    fn timed(&self, pos: usize) -> bool {
        matches!(self.ops[pos], Op::Select(_))
    }
    fn stage(&self) -> Vec<Item> {
        l::items(&self.inp.data, 0)
    }
    fn setup(&self, tr: &mut Tracer, staged: Vec<Item>) -> Result<MixedSys, String> {
        let dfs = l::dfs_new();
        let serve = l::serve_bootstrap(tr, &dfs, 64, staged)?;
        Ok(MixedSys {
            serve,
            dfs,
            marked: None,
        })
    }

    fn pass(
        &self,
        sys: &mut MixedSys,
        tr: &mut Tracer,
        tl: &mut Timeline,
        verify: bool,
    ) -> PassOut {
        let mut p = MixedPass {
            w: self,
            serve: &sys.serve,
            tl,
            out: PassOut::default(),
            window: Vec::with_capacity(WINDOW),
            live: Vec::new(),
            verify,
            stride: (self.positions() / CHECKED).max(1),
        };
        for (pos, &op) in self.ops.iter().enumerate() {
            match op {
                Op::Select(qi) => {
                    let t = Instant::now();
                    let root = tr.open(ROOT, NO_PARENT, pos as u32);
                    let ticket = l::submit(
                        tr,
                        root,
                        pos as u32,
                        p.serve,
                        &self.inp.pool[qi as usize],
                        self.inp.h,
                    );
                    p.window.push((pos, root, t, ticket));
                    if p.window.len() == WINDOW {
                        p.flush(tr);
                    }
                }
                Op::Insert(k) => {
                    p.mutate(tr, pos, &self.extras[k as usize], true);
                    p.live.push(k);
                }
                Op::Delete(k) => {
                    p.mutate(tr, pos, &self.extras[k as usize], false);
                    p.live.retain(|&x| x != k);
                }
            }
        }
        p.flush(tr);
        // Manual-drive merges run only when asked for. One merge per shard
        // ends every pass (its ~310 mutations per shard stay under the
        // default `delta_cap` of 512), so the next pass starts from the
        // state this one started from: empty deltas, same live multiset.
        for shard in 0..l::shard_count(&sys.serve) {
            if !l::merge_now(tr, NO_PARENT, u32::MAX, &sys.serve, shard) {
                p.out.failed += 1;
            }
        }
        p.out
    }

    fn exact(&self, sys: &MixedSys, passes_run: u64) -> Vec<(&'static str, u64)> {
        let c = l::serve_counters(&sys.serve, Some(&sys.dfs));
        vec![
            ("merges_per_pass", c.merges_completed / passes_run),
            ("wal_appends_per_pass", c.wal_appends / passes_run),
        ]
    }

    /// Crash-recovery check: acknowledge `tail` inserts, record answers,
    /// drop the service, recover from the DFS alone, and demand the same
    /// answers — with every acknowledged write in them.
    fn finish(&self, sys: MixedSys, tr: &mut Tracer) -> FinishOut {
        let mut fin = FinishOut::default();
        let MixedSys { serve, dfs, .. } = sys;
        for item in &self.tail {
            fin.attempted += 1;
            if !l::insert(tr, NO_PARENT, u32::MAX, &serve, item) {
                fin.failed += 1;
            }
        }
        let stride = (self.inp.pool.len() / CHECKED).max(1);
        let queries: Vec<(&Code, &[u64])> = (0..self.inp.pool.len())
            .step_by(stride)
            .map(|i| (&self.inp.pool[i], self.inp.pool_words.row(i)))
            .chain((0..self.tail.len()).map(|i| (&self.tail[i].0, self.tail_words.row(i))))
            .collect();
        let ask = |tr: &mut Tracer, s: &l::Serve| -> Vec<Option<Vec<u64>>> {
            queries
                .iter()
                .map(|(q, _)| {
                    let ticket = l::submit(tr, NO_PARENT, u32::MAX, s, q, self.inp.h);
                    l::pump_all(tr, NO_PARENT, u32::MAX, s);
                    ticket.and_then(|tk| l::wait(tr, NO_PARENT, u32::MAX, tk))
                })
                .collect()
        };
        let before = ask(tr, &serve);
        drop(serve);
        let t = Instant::now();
        let recovered = l::serve_recover(tr, &dfs);
        fin.values
            .push(("service.recover_s", t.elapsed().as_secs_f64()));
        fin.attempted += queries.len() as u64;
        match recovered {
            Ok(serve) => {
                let after = ask(tr, &serve);
                for (((_, words), b), a) in queries.iter().zip(&before).zip(&after) {
                    let want = self.expected(words, &[], true);
                    if a.is_none() || a != b || a.as_deref() != Some(&want[..]) {
                        fin.failed += 1;
                    }
                }
            }
            Err(e) => {
                eprintln!("hab: recover failed: {e}");
                fin.failed += queries.len() as u64;
            }
        }
        fin
    }

    fn mark(&self, sys: &mut MixedSys) {
        sys.marked = Some(l::serve_counters(&sys.serve, Some(&sys.dfs)));
    }

    fn layer_values(&self, sys: &mut MixedSys, ctx: &LayerCtx, out: &mut Values) {
        if let Some(before) = &sys.marked {
            let now = l::serve_counters(&sys.serve, Some(&sys.dfs));
            probes::serve_layers(&now, before, ctx.passes, ctx.client_p50_us, out);
        }
        self.inp.layer_values(out);
    }
}

// ---- mr_join ----------------------------------------------------------

pub struct MrJoin {
    r: Vec<l::VecTuple>,
    s: Vec<l::VecTuple>,
}

const DIM: usize = 64;
/// First id of S (R ids start at 0), so a pair names its sides.
const S_BASE: u64 = 1 << 32;

impl MrJoin {
    /// R and S from one 512-cluster Gaussian mixture in 64 dimensions. The
    /// cluster centres belong to the workload (one fixed stream): the
    /// result size follows them, and the seed should vary the tuples, not
    /// how much work the join is. The draws come from the seed.
    pub fn new(seed: u64, scale: Scale) -> MrJoin {
        let n = scale.of(20_000);
        let side = |label: &str, base: u64| -> Vec<l::VecTuple> {
            let mut centres = Rng::stream(0, "mr_join/centres");
            gen::mixture(
                DIM,
                512,
                SIGMA,
                n,
                &mut centres,
                &mut Rng::stream(seed, label),
            )
            .into_iter()
            .zip(base..)
            .collect()
        };
        MrJoin {
            r: side("mr_join/r", 0),
            s: side("mr_join/s", S_BASE),
        }
    }

    fn record_bytes() -> usize {
        DIM * 8 + 8
    }
}

/// Mixture std-dev, tuned once so the result has 0.2–2 × |S| pairs.
const SIGMA: f64 = 0.2;

pub struct JoinSys {
    dfs: l::Dfs,
    put_s: f64,
    runs: Vec<probes::JoinRun>,
    pairs: u64,
    traffic: u64,
}

impl Workload for MrJoin {
    type Staged = (Vec<l::VecTuple>, Vec<l::VecTuple>);
    type Sys = JoinSys;

    fn name(&self) -> &'static str {
        "mr_join"
    }
    fn positions(&self) -> usize {
        1
    }
    fn passes(&self) -> usize {
        40
    }
    fn setups(&self) -> usize {
        7
    }
    fn idle(&self) -> &'static [&'static str] {
        &["core.search_self_us", "service.", "client.p99_us"]
    }
    fn work(&self) -> f64 {
        (self.r.len() + self.s.len()) as f64
    }
    fn stage(&self) -> Self::Staged {
        (self.r.clone(), self.s.clone())
    }
    fn setup(&self, tr: &mut Tracer, (r, s): Self::Staged) -> Result<JoinSys, String> {
        let dfs = l::dfs_new();
        let t = Instant::now();
        l::dfs_put(tr, &dfs, l::R_PATH, r, Self::record_bytes());
        l::dfs_put(tr, &dfs, l::S_PATH, s, Self::record_bytes());
        Ok(JoinSys {
            dfs,
            put_s: t.elapsed().as_secs_f64(),
            runs: Vec::new(),
            pairs: 0,
            traffic: 0,
        })
    }

    /// One pass = one whole pipeline through the DFS.
    fn pass(&self, sys: &mut JoinSys, tr: &mut Tracer, tl: &mut Timeline, verify: bool) -> PassOut {
        let mut out = PassOut::default();
        let t = Instant::now();
        let root = tr.open(ROOT, NO_PARENT, 0);
        let joined = l::join_on_dfs(tr, root, 0, &sys.dfs);
        tr.close(root);
        tl.reply(0, t);
        let (pairs, numbers) = match joined {
            Ok(o) => o,
            Err(e) => {
                eprintln!("hab: join failed: {e}");
                out.failed += 1;
                return out;
            }
        };
        out.digest.count = pairs.len() as u64;
        out.digest.sum = pairs.iter().fold(0u64, |a, &(r, s)| {
            a.wrapping_add(r.wrapping_mul(31)).wrapping_add(s)
        });
        sys.pairs = pairs.len() as u64;
        sys.traffic = numbers.traffic_bytes as u64;
        if verify {
            let sorted_unique = pairs.windows(2).all(|w| w[0] < w[1]);
            let on_dfs = l::dfs_get_pairs(&sys.dfs, l::OUT_PATH);
            let reference = l::join_in_memory_b(&self.r, &self.s);
            let ok = sorted_unique
                && on_dfs.as_ref() == Some(&pairs)
                && reference.as_ref() == Ok(&pairs)
                && l::dfs_is_clean(&sys.dfs);
            if !ok {
                out.failed += 1;
            }
        }
        if tr.on {
            sys.runs.push(probes::JoinRun {
                wall_s: tl.lat[0] as f64 / 1e9,
                pairs: pairs.len(),
                numbers,
            });
        }
        out
    }

    fn exact(&self, sys: &JoinSys, _passes_run: u64) -> Vec<(&'static str, u64)> {
        vec![("pairs", sys.pairs), ("traffic_bytes", sys.traffic)]
    }

    fn layer_values(&self, sys: &mut JoinSys, _ctx: &LayerCtx, out: &mut Values) {
        probes::join_layers(&sys.runs, self.work(), out);
        let bytes = (self.r.len() + self.s.len()) as f64 * Self::record_bytes() as f64;
        out.insert("mapreduce.dfs_put_mb_s", bytes / 1e6 / sys.put_s);
        let t = Instant::now();
        let read = l::dfs_get_vectors(&sys.dfs, l::R_PATH).map_or(0, |v| v.len());
        out.insert(
            "mapreduce.dfs_get_mb_s",
            (read * Self::record_bytes()) as f64 / 1e6 / t.elapsed().as_secs_f64(),
        );
        probes::hashing_and_index_layers(&self.r, &self.s, out);
    }
}
