//! H-Build (Algorithm 1): bulk-loading the Dynamic HA-Index.
//!
//! 1. Group tuples by distinct code and sort the codes in **Gray order**
//!    (non-decreasing Gray rank) so neighbours share long FLSSeqs.
//! 2. Slide a `w`-slot window over the current level; each window's members
//!    either share a non-vacuous maximal FLSSeq — which becomes their
//!    parent, the members keeping only residual bits — or they are linked
//!    to the top level of the index directly (Algorithm 1 line 16).
//! 3. Parents with identical patterns are consolidated into one node with
//!    summed frequency (lines 6–11).
//! 4. Repeat on the freshly created parents until the requested depth is
//!    reached or no further sharing exists; whatever remains forms the top
//!    level.

use std::collections::HashMap;

use ha_bitcode::gray::gray_rank;
use ha_bitcode::{BinaryCode, MaskedCode};

use super::{DhaConfig, DynamicHaIndex, Node, NodeId};
use crate::memory::seed_bulk;
use crate::TupleId;

/// Groups tuples by distinct code and sorts the codes in Gray order
/// (Algorithm 1 line 1). Returns `(code_len, total, sorted distinct)`.
fn gray_grouped(
    items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
) -> (usize, usize, Vec<(BinaryCode, Vec<TupleId>)>) {
    let mut groups: HashMap<BinaryCode, Vec<TupleId>> = HashMap::new();
    let mut total = 0usize;
    let mut code_len = 0usize;
    for (code, id) in items {
        if code_len == 0 {
            code_len = code.len();
        } else {
            assert_eq!(code.len(), code_len, "mixed code lengths");
        }
        groups.entry(code).or_default().push(id);
        total += 1;
    }
    let mut distinct: Vec<(BinaryCode, Vec<TupleId>)> = groups.into_iter().collect();
    distinct.sort_by_cached_key(|(c, _)| gray_rank(c));
    (code_len, total, distinct)
}

pub(super) fn h_build(
    items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    config: DhaConfig,
) -> DynamicHaIndex {
    let (code_len, total, distinct) = gray_grouped(items);
    let mut idx = DynamicHaIndex::empty(code_len, config);
    idx.len = total;
    if total == 0 {
        return idx;
    }
    build_sorted(&mut idx, distinct);
    idx
}

/// The extraction half of H-Build: runs the sliding-window levels over an
/// already Gray-sorted distinct-code list, into a fresh empty index.
fn build_sorted(idx: &mut DynamicHaIndex, distinct: Vec<(BinaryCode, Vec<TupleId>)>) {
    // Leaf level.
    let keep_ids = idx.config.keep_leaf_ids;
    let mut current: Vec<NodeId> = Vec::with_capacity(distinct.len());
    seed_bulk(&mut idx.nodes, distinct.len());
    if keep_ids {
        idx.leaves.reserve(distinct.len());
    }
    for (code, ids) in &distinct {
        let nid = alloc(idx, leaf_node(keep_ids, code, ids));
        if keep_ids {
            idx.leaves.insert(code.clone(), nid);
        }
        current.push(nid);
    }

    // Extraction levels (lines 3–24), windows analysed in window order.
    extract_levels(idx, current, |idx, current| {
        let window = idx.config.window.max(2);
        current
            .chunks(window)
            .map(|members| plan_window(&idx.nodes, members))
            .collect()
    });
}

/// One leaf of the forest (Algorithm 1 line 2): full pattern, the code
/// itself, and the tuple ids (kept only when the config says so).
fn leaf_node(keep_ids: bool, code: &BinaryCode, ids: &[TupleId]) -> Node {
    let stored_ids = if keep_ids { ids.to_vec() } else { Vec::new() };
    Node::leaf(
        MaskedCode::full(code.clone()),
        code.clone(),
        stored_ids,
        ids.len() as u32,
    )
}

/// What one window of an extraction level resolved to. Planning a window
/// only *reads* the arena, so any number of windows can be planned
/// concurrently; every order-sensitive effect lives in [`apply_level`].
enum WindowPlan {
    /// A lone trailing node just rides up to the next level.
    Ride,
    /// No shared FLSSeq: members link to the top level (line 16).
    TopLevel,
    /// The window shares `common`; members keep only their residual bits
    /// (line 5's child update).
    Extract {
        common: MaskedCode,
        residuals: Vec<MaskedCode>,
        frequency: u32,
    },
}

/// Analyses one window: the maximal shared FLSSeq and, when it is
/// non-vacuous, the members' residual patterns and summed frequency.
fn plan_window(nodes: &[Node], members: &[NodeId]) -> WindowPlan {
    if members.len() == 1 {
        return WindowPlan::Ride;
    }
    let common = MaskedCode::common_of(members.iter().map(|&n| &nodes[n as usize].pattern))
        .expect("non-empty window");
    if common.is_vacuous() {
        return WindowPlan::TopLevel;
    }
    let residuals = members
        .iter()
        .map(|&n| nodes[n as usize].pattern.subtract(common.mask()))
        .collect();
    let frequency = members.iter().map(|&n| nodes[n as usize].frequency).sum();
    WindowPlan::Extract {
        common,
        residuals,
        frequency,
    }
}

/// Runs the extraction levels over the leaf level `current`, obtaining each
/// level's window plans from `plan_level` and applying them in window
/// order. Both the sequential and the parallel H-Build funnel through this
/// one apply pass, so their arenas come out identical.
fn extract_levels(
    idx: &mut DynamicHaIndex,
    mut current: Vec<NodeId>,
    plan_level: impl Fn(&DynamicHaIndex, &[NodeId]) -> Vec<WindowPlan>,
) {
    let max_depth = idx.config.max_depth.max(1);
    for _depth in 0..max_depth {
        if current.len() <= 1 {
            break;
        }
        let plans = plan_level(idx, &current);
        let next = apply_level(idx, &current, plans);
        if next.is_empty() {
            current = next;
            break;
        }
        current = next;
    }
    idx.roots.extend(current);
}

/// Applies one level's window plans: mutates member patterns to their
/// residuals, consolidates pattern-equal parents (lines 6–11) and
/// allocates new parents in window order.
fn apply_level(
    idx: &mut DynamicHaIndex,
    current: &[NodeId],
    plans: Vec<WindowPlan>,
) -> Vec<NodeId> {
    let window = idx.config.window.max(2);
    let mut next: Vec<NodeId> = Vec::new();
    // Consolidation map for this level (lines 6–11).
    let mut intern: HashMap<MaskedCode, NodeId> = HashMap::with_capacity(plans.len());
    for (chunk, plan) in current.chunks(window).zip(plans) {
        match plan {
            WindowPlan::Ride => next.push(chunk[0]),
            WindowPlan::TopLevel => idx.roots.extend_from_slice(chunk),
            WindowPlan::Extract {
                common,
                residuals,
                frequency,
            } => {
                for (&member, residual) in chunk.iter().zip(residuals) {
                    idx.nodes[member as usize].pattern = residual;
                }
                match intern.entry(common) {
                    std::collections::hash_map::Entry::Occupied(e) => {
                        let pid = *e.get();
                        let parent = &mut idx.nodes[pid as usize];
                        parent.children.extend_from_slice(chunk);
                        parent.frequency += frequency;
                    }
                    std::collections::hash_map::Entry::Vacant(e) => {
                        let mut parent = Node::internal(e.key().clone());
                        parent.children.extend_from_slice(chunk);
                        parent.frequency = frequency;
                        let pid = alloc_raw(&mut idx.nodes, parent);
                        e.insert(pid);
                        next.push(pid);
                    }
                }
            }
        }
    }
    next
}

/// Items per fork-join task — small enough that trailing tasks keep every
/// worker busy, large enough that the per-task channel send is noise.
const PAR_TASK: usize = 2048;

/// Parallel H-Build, byte-identical to the sequential [`h_build`].
///
/// The sequential algorithm's only order-sensitive effects are arena
/// allocation and per-level parent consolidation — both cheap. Everything
/// expensive is a pure function of data that exists before the pass needs
/// it: Gray ranks (per code), leaf nodes (per distinct code), and each
/// level's window analysis (per window; windows partition the level, and
/// planning only reads patterns written by the *previous* level). Those
/// three run on a scoped worker pool; the apply pass is the very code the
/// sequential build runs, so the arenas come out identical for every
/// worker count.
///
/// (The coarser split — chunk the sorted input, H-Build each chunk, fold
/// with the §5.2 merge — was tried and rejected: the merge consolidates
/// top-down by pattern equality, which preserves *answers* but not the
/// arena layout, because sequential windows and consolidation cross chunk
/// boundaries. Byte-identity is the property the freeze/serialize stack
/// leans on, so it wins.)
pub(super) fn h_build_parallel(
    items: impl IntoIterator<Item = (BinaryCode, TupleId)>,
    config: DhaConfig,
    workers: usize,
) -> DynamicHaIndex {
    let items: Vec<(BinaryCode, TupleId)> = items.into_iter().collect();
    let code_len = items.first().map_or(0, |(c, _)| c.len());
    let mut idx = DynamicHaIndex::empty(code_len, config);
    idx.len = items.len();
    if items.is_empty() {
        return idx;
    }
    let workers = workers.max(1);

    // Gray ranks, one per input tuple (Algorithm 1 line 1), in parallel.
    let ranks: Vec<BinaryCode> = fork_join(&items, PAR_TASK, workers, |slice| {
        slice
            .iter()
            .map(|(code, _)| {
                assert_eq!(code.len(), code_len, "mixed code lengths");
                gray_rank(code)
            })
            .collect()
    });

    // Sort tuple indices by (rank, input position). The rank is a
    // bijection, so equal ranks mean equal codes and the position
    // tiebreak keeps each code's ids in input order — exactly the order
    // `gray_grouped` produces.
    let order = sorted_indices(&ranks, workers);

    // Group adjacent equal codes into the distinct-code runs.
    let mut distinct: Vec<(BinaryCode, Vec<TupleId>)> = Vec::new();
    for &i in &order {
        let (code, id) = &items[i as usize];
        match distinct.last_mut() {
            Some((last, ids)) if last == code => ids.push(*id),
            _ => distinct.push((code.clone(), vec![*id])),
        }
    }
    drop(items);

    // Leaf level, constructed in parallel and appended in order.
    let keep_ids = idx.config.keep_leaf_ids;
    let leaves: Vec<Node> = fork_join(&distinct, PAR_TASK, workers, |slice| {
        slice
            .iter()
            .map(|(code, ids)| leaf_node(keep_ids, code, ids))
            .collect()
    });
    let mut current: Vec<NodeId> = Vec::with_capacity(distinct.len());
    if keep_ids {
        idx.leaves.reserve(distinct.len());
    }
    for (i, (code, _)) in distinct.iter().enumerate() {
        let nid = i as NodeId;
        if keep_ids {
            idx.leaves.insert(code.clone(), nid);
        }
        current.push(nid);
    }
    idx.nodes = leaves;

    // Extraction levels: windows planned in parallel, applied in order.
    extract_levels(&mut idx, current, |idx, current| {
        let window = idx.config.window.max(2);
        let bounds: Vec<(usize, usize)> = (0..current.len())
            .step_by(window)
            .map(|lo| (lo, (lo + window).min(current.len())))
            .collect();
        fork_join(&bounds, PAR_TASK / 8, workers, |slice| {
            slice
                .iter()
                .map(|&(lo, hi)| plan_window(&idx.nodes, &current[lo..hi]))
                .collect()
        })
    });
    idx
}

/// Indices `0..keys.len()` sorted by `(keys[i], i)`: contiguous runs are
/// sorted on scoped threads, then folded with pairwise merge rounds (each
/// round merges disjoint pairs concurrently). The comparator is a strict
/// total order, so the merged result does not depend on the run grid or
/// the merge schedule.
fn sorted_indices(keys: &[BinaryCode], workers: usize) -> Vec<u32> {
    let n = keys.len();
    let by_key = |a: &u32, b: &u32| {
        keys[*a as usize]
            .cmp(&keys[*b as usize])
            .then(a.cmp(b))
    };
    let mut order: Vec<u32> = (0..n as u32).collect();
    let run_len = n.div_ceil(workers).max(PAR_TASK);
    if workers <= 1 || n <= run_len {
        order.sort_unstable_by(by_key);
        return order;
    }
    std::thread::scope(|scope| {
        for run in order.chunks_mut(run_len) {
            scope.spawn(move || run.sort_unstable_by(by_key));
        }
    });
    let mut runs: Vec<Vec<u32>> = order.chunks(run_len).map(<[u32]>::to_vec).collect();
    while runs.len() > 1 {
        let mut paired = runs.into_iter();
        let mut round: Vec<(Vec<u32>, Option<Vec<u32>>)> = Vec::new();
        while let Some(a) = paired.next() {
            round.push((a, paired.next()));
        }
        runs = std::thread::scope(|scope| {
            let handles: Vec<_> = round
                .into_iter()
                .map(|(a, b)| scope.spawn(move || merge_sorted(a, b, by_key)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("merge thread panicked"))
                .collect()
        });
    }
    runs.pop().unwrap_or_default()
}

/// Two-pointer merge of two sorted runs (the second may be absent when a
/// round has an odd run out).
fn merge_sorted(
    a: Vec<u32>,
    b: Option<Vec<u32>>,
    by_key: impl Fn(&u32, &u32) -> std::cmp::Ordering,
) -> Vec<u32> {
    let Some(b) = b else { return a };
    let mut merged = Vec::with_capacity(a.len() + b.len());
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        if by_key(&a[i], &b[j]).is_lt() {
            merged.push(a[i]);
            i += 1;
        } else {
            merged.push(b[j]);
            j += 1;
        }
    }
    merged.extend_from_slice(&a[i..]);
    merged.extend_from_slice(&b[j..]);
    merged
}

/// Scoped fork-join over contiguous `chunk`-sized tasks: applies `f` to
/// each task on up to `workers` threads (work-stealing over
/// [`ha_bitcode::pool::fan_out`]'s shared cursor) and returns the
/// concatenated results **in task order** — task *assignment* varies
/// with scheduling, the output never does.
fn fork_join<T: Sync, R: Send>(
    items: &[T],
    chunk: usize,
    workers: usize,
    f: impl Fn(&[T]) -> Vec<R> + Sync,
) -> Vec<R> {
    let tasks: Vec<&[T]> = items.chunks(chunk.max(1)).collect();
    ha_bitcode::pool::fan_out(workers, tasks.len(), |i| f(tasks[i]))
        .into_iter()
        .flatten()
        .collect()
}

fn alloc(idx: &mut DynamicHaIndex, node: Node) -> NodeId {
    alloc_raw(&mut idx.nodes, node)
}

pub(super) fn alloc_raw(nodes: &mut Vec<Node>, node: Node) -> NodeId {
    let id = nodes.len() as NodeId;
    nodes.push(node);
    id
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{clustered_dataset, paper_table_s, random_dataset};
    use crate::HammingIndex;

    #[test]
    fn build_paper_example_and_check_invariants() {
        let idx = DynamicHaIndex::build(paper_table_s());
        idx.check_invariants();
        assert_eq!(idx.len(), 8);
        assert_eq!(idx.leaf_count(), 8);
        assert!(idx.internal_node_count() >= 1, "some sharing must occur");
    }

    #[test]
    fn build_with_small_window_mimics_figure_3() {
        // Window of 2 over the Gray-sorted running example: adjacent pairs
        // (t0-like neighbours) must share parents, giving a multi-level
        // forest like Figure 3.
        let idx = DynamicHaIndex::build_with(
            paper_table_s(),
            DhaConfig {
                window: 2,
                max_depth: 4,
                ..DhaConfig::default()
            },
        );
        idx.check_invariants();
        assert!(idx.depth() >= 2, "depth {}", idx.depth());
        assert!(idx.internal_node_count() >= 3);
    }

    #[test]
    fn build_groups_duplicate_codes_into_one_leaf() {
        let c: BinaryCode = "10101010".parse().unwrap();
        let d: BinaryCode = "10101011".parse().unwrap();
        let idx = DynamicHaIndex::build([
            (c.clone(), 1),
            (c.clone(), 2),
            (d.clone(), 3),
        ]);
        idx.check_invariants();
        assert_eq!(idx.leaf_count(), 2, "two distinct codes");
        assert_eq!(idx.len(), 3, "three tuples");
        // Frequencies: the duplicate leaf counts 2.
        let leaf = idx.leaves[&c];
        assert_eq!(idx.nodes[leaf as usize].frequency, 2);
    }

    #[test]
    fn depth_respects_max_depth() {
        let data = clustered_dataset(500, 32, 4, 2, 3);
        for md in [1usize, 2, 4] {
            let idx = DynamicHaIndex::build_with(
                data.clone(),
                DhaConfig {
                    window: 4,
                    max_depth: md,
                    ..DhaConfig::default()
                },
            );
            idx.check_invariants();
            assert!(
                idx.depth() <= md + 1,
                "max_depth {md} produced depth {}",
                idx.depth()
            );
        }
    }

    #[test]
    fn empty_build() {
        let idx = DynamicHaIndex::build(std::iter::empty());
        assert!(idx.is_empty());
        assert_eq!(idx.leaf_count(), 0);
    }

    #[test]
    fn leafless_build_keeps_counts_not_ids() {
        let data = random_dataset(100, 32, 44);
        let idx = DynamicHaIndex::build_with(
            data,
            DhaConfig {
                keep_leaf_ids: false,
                ..DhaConfig::default()
            },
        );
        idx.check_invariants();
        assert_eq!(idx.len(), 100);
        assert!(idx.leaves.is_empty(), "no leaf hash table in leafless mode");
        // Memory split: payload (ids + hash table) must be tiny.
        let report = idx.memory_report();
        assert!(report.payload_bytes < report.structure_bytes);
    }

    #[test]
    fn clustered_data_builds_fewer_internal_nodes_than_leaves() {
        let data = clustered_dataset(2000, 32, 8, 2, 5);
        let idx = DynamicHaIndex::build(data);
        idx.check_invariants();
        assert!(
            idx.internal_node_count() < idx.leaf_count(),
            "internal {} vs leaves {}",
            idx.internal_node_count(),
            idx.leaf_count()
        );
    }

    #[test]
    fn uniform_random_data_still_valid() {
        let data = random_dataset(1000, 64, 91);
        let idx = DynamicHaIndex::build(data);
        idx.check_invariants();
        assert_eq!(idx.leaf_count(), 1000); // collisions vanishingly unlikely
    }

    #[test]
    fn parallel_build_byte_identical_to_sequential() {
        // Enough distinct codes for several PAR_TASK tasks per pass.
        let data = clustered_dataset(6000, 32, 10, 3, 13);
        let reference = DynamicHaIndex::build(data.clone());
        reference.check_invariants();
        let bytes = reference.to_bytes();
        for workers in [1usize, 2, 4, 8] {
            let par = DynamicHaIndex::build_parallel(data.clone(), workers);
            par.check_invariants();
            assert_eq!(par.epoch(), 0, "fresh build starts at epoch 0");
            assert_eq!(
                par.to_bytes(),
                bytes,
                "workers={workers} must reproduce the sequential build"
            );
        }
    }

    #[test]
    fn parallel_build_byte_identical_in_leafless_mode() {
        let data = clustered_dataset(3000, 32, 6, 3, 17);
        let config = DhaConfig {
            keep_leaf_ids: false,
            window: 4,
            ..DhaConfig::default()
        };
        let seq = DynamicHaIndex::build_with(data.clone(), config.clone());
        let par = DynamicHaIndex::build_parallel_with(data, config, 4);
        par.check_invariants();
        assert_eq!(seq.to_bytes(), par.to_bytes());
    }

    #[test]
    fn parallel_build_answers_like_sequential_build() {
        use crate::testkit::assert_matches_oracle;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let data = clustered_dataset(3000, 64, 8, 3, 19);
        let par = DynamicHaIndex::build_parallel(data.clone(), 4);
        par.check_invariants();
        assert_eq!(par.len(), data.len());
        let mut rng = StdRng::seed_from_u64(20);
        for h in [0u32, 3, 6] {
            let q = ha_bitcode::BinaryCode::random(64, &mut rng);
            assert_matches_oracle(par.search(&q, h), &data, &q, h, "parallel-build");
        }
    }

    #[test]
    fn parallel_build_small_and_empty_inputs() {
        let empty = DynamicHaIndex::build_parallel(std::iter::empty(), 8);
        assert!(empty.is_empty());
        // A sub-task input takes the single-threaded fork-join path and
        // still equals the plain sequential H-Build.
        let data = random_dataset(50, 16, 23);
        let seq = DynamicHaIndex::build(data.clone());
        let par = DynamicHaIndex::build_parallel(data, 8);
        assert_eq!(seq.to_bytes(), par.to_bytes());
    }
}
