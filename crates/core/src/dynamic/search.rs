//! H-Search (Algorithm 3): breadth-first traversal with downward-closure
//! pruning, plus the instrumented variant that reproduces the Table 3
//! execution trace.
//!
//! The BFS frontier is two swapped `Vec`s (level-synchronous) rather than a
//! `VecDeque`: a BFS visits nodes level by level either way, so the visit
//! and emission order is identical, but the two-vector form reuses its
//! buffers across levels instead of churning a ring buffer.

use ha_bitcode::BinaryCode;

use super::{DynamicHaIndex, NodeId};
use crate::TupleId;

/// One queue entry: a node plus the Hamming distance accumulated along the
/// path leading to it (`m.h` of Algorithm 3).
#[derive(Clone, Copy, Debug)]
struct Entry {
    node: NodeId,
    acc: u32,
}

/// Core BFS shared by all three search flavours. Calls `emit` for each
/// qualifying leaf with its exact distance.
fn bfs(idx: &DynamicHaIndex, query: &BinaryCode, h: u32, mut emit: impl FnMut(NodeId, u32)) {
    assert_eq!(query.len(), idx.code_len, "query length mismatch");
    let mut frontier: Vec<Entry> = Vec::new();
    let mut next: Vec<Entry> = Vec::new();
    // Lines 2–7: admit qualifying top-level entries.
    for &root in &idx.roots {
        let node = &idx.nodes[root as usize];
        if !node.alive {
            continue;
        }
        let Some(d) = node.pattern.distance_within(query, h) else {
            continue;
        };
        if node.is_leaf() {
            emit(root, d);
        } else {
            frontier.push(Entry { node: root, acc: d });
        }
    }
    // Lines 8–27, one level per pass.
    while !frontier.is_empty() {
        next.clear();
        for &Entry { node, acc } in &frontier {
            for &child_id in &idx.nodes[node as usize].children {
                let child = &idx.nodes[child_id as usize];
                if !child.alive {
                    continue;
                }
                // Line 13: hdis(tq, c) + n.h ≤ h — the downward-closure
                // prune, bailing mid-scan once the budget is blown.
                let Some(d) = child.pattern.distance_within(query, h.saturating_sub(acc)) else {
                    continue;
                };
                let total = acc + d;
                if child.is_leaf() {
                    // Path masks partition all bit positions, so `total` is
                    // the exact Hamming distance of the leaf's code.
                    emit(child_id, total);
                } else {
                    next.push(Entry {
                        node: child_id,
                        acc: total,
                    });
                }
            }
        }
        std::mem::swap(&mut frontier, &mut next);
    }
}

/// H-Search returning tuple ids (requires `keep_leaf_ids`).
pub(super) fn h_search(idx: &DynamicHaIndex, query: &BinaryCode, h: u32) -> Vec<TupleId> {
    let mut out = Vec::new();
    bfs(idx, query, h, |leaf, _| {
        let data = idx.nodes[leaf as usize]
            .leaf
            .as_ref()
            .expect("emit on leaf");
        out.extend_from_slice(&data.ids);
    });
    // The insert buffer holds tuples not yet in the tree.
    for (code, id) in &idx.buffer {
        if code.hamming_within(query, h).is_some() {
            out.push(*id);
        }
    }
    out
}

/// H-Search returning `(id, exact distance)` pairs — the kNN layers rank
/// by distance, and the path invariant delivers it for free.
pub(super) fn h_search_with_distances(
    idx: &DynamicHaIndex,
    query: &BinaryCode,
    h: u32,
) -> Vec<(TupleId, u32)> {
    let mut out = Vec::new();
    bfs(idx, query, h, |leaf, d| {
        let data = idx.nodes[leaf as usize]
            .leaf
            .as_ref()
            .expect("emit on leaf");
        out.extend(data.ids.iter().map(|&id| (id, d)));
    });
    for (code, id) in &idx.buffer {
        if let Some(d) = code.hamming_within(query, h) {
            out.push((*id, d));
        }
    }
    out
}

/// H-Search returning distinct qualifying codes with exact distances
/// (Option B of the MapReduce join — works without leaf id lists).
pub(super) fn h_search_codes(
    idx: &DynamicHaIndex,
    query: &BinaryCode,
    h: u32,
) -> Vec<(BinaryCode, u32)> {
    let mut out = Vec::new();
    bfs(idx, query, h, |leaf, d| {
        let data = idx.nodes[leaf as usize]
            .leaf
            .as_ref()
            .expect("emit on leaf");
        out.push((data.code.clone(), d));
    });
    for (code, _) in &idx.buffer {
        if let Some(d) = code.hamming_within(query, h) {
            if !out.iter().any(|(c, _)| c == code) {
                out.push((code.clone(), d));
            }
        }
    }
    out
}

/// What happened to one node during a traced H-Search round.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceEvent {
    /// Node admitted to the queue with this accumulated distance.
    Enqueued {
        /// Rendered node pattern.
        pattern: String,
        /// Accumulated path distance.
        acc: u32,
    },
    /// Node discarded because the accumulated lower bound exceeded `h` —
    /// its entire subtree skipped.
    Pruned {
        /// Rendered node pattern.
        pattern: String,
        /// The violating accumulated distance.
        acc: u32,
    },
    /// Qualifying leaf: tuples reported.
    Reported {
        /// The leaf's full binary code.
        code: String,
        /// Exact Hamming distance to the query.
        distance: u32,
        /// Ids collected (empty in leafless mode).
        ids: Vec<TupleId>,
    },
}

/// One BFS round of a traced search: the events of the round plus the
/// queue and result-set snapshots afterwards — the columns of Table 3.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TraceStep {
    /// Events processed this round.
    pub events: Vec<TraceEvent>,
    /// Patterns of the entries still queued after the round.
    pub queue_after: Vec<String>,
    /// Ids reported so far (the `ret` column).
    pub results_so_far: Vec<TupleId>,
}

/// Instrumented H-Search (drives the Table 3 experiment and the
/// `h_search_trace` integration test).
pub(super) fn h_search_trace(
    idx: &DynamicHaIndex,
    query: &BinaryCode,
    h: u32,
) -> (Vec<TupleId>, Vec<TraceStep>) {
    assert_eq!(query.len(), idx.code_len, "query length mismatch");
    let mut steps = Vec::new();
    let mut results: Vec<TupleId> = Vec::new();
    // FIFO as a cursor over a grow-only Vec: same visit order as a
    // VecDeque, but the snapshot of "still queued" is just a subslice.
    let mut queue: Vec<Entry> = Vec::new();
    let mut cursor = 0usize;

    // Round 0: the top level.
    let mut events = Vec::new();
    for &root in &idx.roots {
        let node = &idx.nodes[root as usize];
        if !node.alive {
            continue;
        }
        let d = node.pattern.distance_to(query);
        if d <= h {
            if let Some(leaf) = &node.leaf {
                events.push(TraceEvent::Reported {
                    code: leaf.code.to_string(),
                    distance: d,
                    ids: leaf.ids.clone(),
                });
                results.extend_from_slice(&leaf.ids);
            } else {
                events.push(TraceEvent::Enqueued {
                    pattern: node.pattern.to_string(),
                    acc: d,
                });
                queue.push(Entry { node: root, acc: d });
            }
        } else {
            events.push(TraceEvent::Pruned {
                pattern: node.pattern.to_string(),
                acc: d,
            });
        }
    }
    steps.push(TraceStep {
        events,
        queue_after: snapshot(idx, &queue[cursor..]),
        results_so_far: results.clone(),
    });

    while cursor < queue.len() {
        let Entry { node, acc } = queue[cursor];
        cursor += 1;
        let mut events = Vec::new();
        for &child_id in &idx.nodes[node as usize].children {
            let child = &idx.nodes[child_id as usize];
            if !child.alive {
                continue;
            }
            let d = child.pattern.distance_to(query);
            let total = acc + d;
            if total > h {
                events.push(TraceEvent::Pruned {
                    pattern: child.pattern.to_string(),
                    acc: total,
                });
            } else if let Some(leaf) = &child.leaf {
                events.push(TraceEvent::Reported {
                    code: leaf.code.to_string(),
                    distance: total,
                    ids: leaf.ids.clone(),
                });
                results.extend_from_slice(&leaf.ids);
            } else {
                events.push(TraceEvent::Enqueued {
                    pattern: child.pattern.to_string(),
                    acc: total,
                });
                queue.push(Entry {
                    node: child_id,
                    acc: total,
                });
            }
        }
        steps.push(TraceStep {
            events,
            queue_after: snapshot(idx, &queue[cursor..]),
            results_so_far: results.clone(),
        });
    }

    for (code, id) in &idx.buffer {
        if code.hamming_within(query, h).is_some() {
            results.push(*id);
        }
    }
    (results, steps)
}

fn snapshot(idx: &DynamicHaIndex, queued: &[Entry]) -> Vec<String> {
    queued
        .iter()
        .map(|e| idx.nodes[e.node as usize].pattern.to_string())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::{assert_matches_oracle, clustered_dataset, paper_table_s, random_dataset};
    use crate::{DhaConfig, HammingIndex};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn paper_example_1_select() {
        let data = paper_table_s();
        let idx = DynamicHaIndex::build(data.clone());
        let q: BinaryCode = "101100010".parse().unwrap();
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "dha");
    }

    #[test]
    fn table_3_query_returns_exactly_t0() {
        // §4.6: query 010001011, h = 3 over Table 2a → only t0 qualifies.
        let data = paper_table_s();
        let idx = DynamicHaIndex::build_with(
            data.clone(),
            DhaConfig {
                window: 2,
                max_depth: 4,
                ..DhaConfig::default()
            },
        );
        let q: BinaryCode = "010001011".parse().unwrap();
        let (ids, steps) = idx.search_trace(&q, 3);
        assert_eq!(ids, vec![0], "only t0");
        // The trace must show real pruning (discarded subtrees) and end
        // with t0 in the result column, mirroring Table 3's final row.
        let pruned = steps
            .iter()
            .flat_map(|s| &s.events)
            .filter(|e| matches!(e, TraceEvent::Pruned { .. }))
            .count();
        assert!(pruned > 0, "expected pruning in the trace");
        assert_eq!(steps.last().unwrap().results_so_far, vec![0]);
        // And a full search agrees with the oracle.
        assert_matches_oracle(idx.search(&q, 3), &data, &q, 3, "dha-trace");
    }

    #[test]
    fn matches_oracle_random_data_every_threshold() {
        let data = random_dataset(300, 32, 71);
        let idx = DynamicHaIndex::build(data.clone());
        idx.check_invariants();
        let mut rng = StdRng::seed_from_u64(6);
        for h in [0, 1, 2, 3, 5, 8, 16, 32] {
            let q = BinaryCode::random(32, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "dha");
        }
    }

    #[test]
    fn matches_oracle_clustered_data() {
        let data = clustered_dataset(600, 64, 6, 3, 29);
        let idx = DynamicHaIndex::build(data.clone());
        idx.check_invariants();
        let mut rng = StdRng::seed_from_u64(30);
        for h in [0, 2, 4, 8] {
            let mut q = data[rng.gen_range(0..data.len())].0.clone();
            for _ in 0..2 {
                q.flip(rng.gen_range(0..64));
            }
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "dha-clustered");
        }
    }

    #[test]
    fn window_and_depth_do_not_change_results() {
        let data = clustered_dataset(300, 32, 5, 3, 41);
        let mut rng = StdRng::seed_from_u64(42);
        let q = BinaryCode::random(32, &mut rng);
        let want = crate::testkit::oracle_select(&data, &q, 4);
        for window in [2usize, 3, 4, 8, 16, 64] {
            for depth in [1usize, 2, 4, 8] {
                let idx = DynamicHaIndex::build_with(
                    data.clone(),
                    DhaConfig {
                        window,
                        max_depth: depth,
                        ..DhaConfig::default()
                    },
                );
                idx.check_invariants();
                let mut got = idx.search(&q, 4);
                got.sort_unstable();
                assert_eq!(got, want, "window={window} depth={depth}");
            }
        }
    }

    #[test]
    fn search_codes_agrees_with_search_ids() {
        let data = random_dataset(200, 32, 51);
        let idx = DynamicHaIndex::build(data.clone());
        let mut rng = StdRng::seed_from_u64(52);
        let q = BinaryCode::random(32, &mut rng);
        let by_code: Vec<(BinaryCode, u32)> = idx.search_codes(&q, 5);
        // Every reported code's distance is exact…
        for (code, d) in &by_code {
            assert_eq!(code.hamming(&q), *d);
        }
        // …and expanding codes to ids matches the id search.
        let mut expanded: Vec<u64> = by_code
            .iter()
            .flat_map(|(code, _)| {
                data.iter()
                    .filter(move |(c, _)| c == code)
                    .map(|&(_, id)| id)
            })
            .collect();
        expanded.sort_unstable();
        let mut ids = idx.search(&q, 5);
        ids.sort_unstable();
        assert_eq!(expanded, ids);
    }

    #[test]
    fn leafless_mode_searches_codes() {
        let data = random_dataset(150, 32, 61);
        let idx = DynamicHaIndex::build_with(
            data.clone(),
            DhaConfig {
                keep_leaf_ids: false,
                ..DhaConfig::default()
            },
        );
        let mut rng = StdRng::seed_from_u64(62);
        let q = BinaryCode::random(32, &mut rng);
        let got: Vec<BinaryCode> = idx
            .search_codes(&q, 6)
            .into_iter()
            .map(|(c, _)| c)
            .collect();
        let mut got_sorted = got.clone();
        got_sorted.sort();
        let mut want: Vec<BinaryCode> = data
            .iter()
            .filter(|(c, _)| c.hamming(&q) <= 6)
            .map(|(c, _)| c.clone())
            .collect();
        want.sort();
        want.dedup();
        assert_eq!(got_sorted, want);
    }

    #[test]
    fn deep_narrow_trees_prune_heavily() {
        // On tightly clustered data a far-away query should visit almost
        // nothing: the traced search must prune at the top level.
        let data = clustered_dataset(500, 64, 1, 2, 77);
        let idx = DynamicHaIndex::build_with(
            data,
            DhaConfig {
                window: 4,
                max_depth: 6,
                ..DhaConfig::default()
            },
        );
        // Query = complement of the cluster centre region: all distances
        // huge.
        let far = idx.nodes[idx.leaves.values().next().copied().unwrap() as usize]
            .leaf
            .as_ref()
            .unwrap()
            .code
            .not();
        let (ids, steps) = idx.search_trace(&far, 3);
        assert!(ids.is_empty());
        let visited: usize = steps.iter().map(|s| s.events.len()).sum();
        assert!(
            visited < 60,
            "far query should touch few nodes, visited {visited}"
        );
    }

    #[test]
    fn epoch_tracks_mutations_only() {
        use crate::MutableIndex;
        let data = paper_table_s();
        let mut idx = DynamicHaIndex::build(data.clone());
        assert_eq!(idx.epoch(), 0, "fresh build starts at epoch 0");
        let q: BinaryCode = "101100010".parse().unwrap();
        let _ = idx.search(&q, 3);
        assert_eq!(idx.epoch(), 0, "searches do not advance the epoch");
        idx.insert("101100011".parse().unwrap(), 50);
        let e1 = idx.epoch();
        assert!(e1 > 0, "insert advances the epoch");
        assert!(!idx.delete(&q, 999), "absent tuple");
        assert_eq!(idx.epoch(), e1, "failed delete leaves the epoch alone");
        assert!(idx.delete(&data[0].0, 0));
        assert!(idx.epoch() > e1, "delete advances the epoch");
    }

    #[test]
    fn items_roundtrips_the_dataset() {
        use crate::MutableIndex;
        let data = random_dataset(120, 24, 95);
        let mut idx = DynamicHaIndex::build(data.clone());
        idx.insert(data[0].0.clone(), 7777); // buffered or fast-path
        let mut got: Vec<(BinaryCode, u64)> = idx.items().collect();
        let mut want = data;
        want.push((want[0].0.clone(), 7777));
        got.sort();
        want.sort();
        assert_eq!(got, want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]
        #[test]
        fn prop_dha_equals_oracle(seed in any::<u64>(), h in 0u32..12, window in 2usize..12) {
            let data = random_dataset(120, 28, seed);
            let idx = DynamicHaIndex::build_with(
                data.clone(),
                DhaConfig { window, ..DhaConfig::default() },
            );
            idx.check_invariants();
            let mut rng = StdRng::seed_from_u64(seed ^ 0xD15EA5E);
            let q = BinaryCode::random(28, &mut rng);
            assert_matches_oracle(idx.search(&q, h), &data, &q, h, "dha-prop");
        }
    }
}
