//! LSB-Tree (Tao, Yi, Sheng, Kalnis — TODS 2010; the paper's reference
//! \[26\] and the "LSB-Tree(25)" row of Table 5).
//!
//! Each of `m` trees projects vectors through its own p-stable LSH family,
//! quantizes every projection to a grid cell, interleaves the cell
//! coordinates' bits into a **Z-order value**, and indexes the Z-values in
//! a B-tree. Near vectors receive near Z-values, so a query walks the tree
//! outward from its own Z-value position and ranks the encountered
//! candidates by true Euclidean distance.
//!
//! The structural costs the paper reports — long build times and a large
//! index (25 trees, each carrying quantized copies of the data) — are
//! inherent to the design and visible here.

use std::collections::BTreeMap;

use ha_core::TupleId;
use ha_hashing::randn::standard_normal;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::exact::{sq_euclidean, Neighbour};

/// Projections per tree (Z-value = `PROJ_DIMS × BITS_PER_DIM` bits).
const PROJ_DIMS: usize = 12;
/// Quantization bits per projected dimension.
const BITS_PER_DIM: usize = 8;

/// One LSB tree: an LSH family plus a B-tree over Z-values.
#[derive(Clone, Debug)]
struct Tree {
    /// `PROJ_DIMS × dim` projection matrix, flattened.
    proj: Vec<f64>,
    offsets: Vec<f64>,
    /// Z-value → rows.
    btree: BTreeMap<u128, Vec<u32>>,
}

/// The LSB-Tree forest.
#[derive(Clone, Debug)]
pub struct LsbTree {
    dim: usize,
    width: f64,
    trees: Vec<Tree>,
    rows: Vec<(Vec<f64>, TupleId)>,
}

impl LsbTree {
    /// Builds a forest of `num_trees` LSB trees over `data` (the paper
    /// uses 25).
    pub fn build(data: Vec<(Vec<f64>, TupleId)>, num_trees: usize, seed: u64) -> Self {
        assert!(!data.is_empty(), "LsbTree::build needs at least one vector");
        assert!(num_trees >= 1);
        let dim = data[0].0.len();
        // Grid width scaled to the data spread so quantization is
        // informative: ~1/8 of the mean coordinate magnitude.
        let spread = data
            .iter()
            .flat_map(|(v, _)| v.iter())
            .fold(0.0f64, |acc, &x| acc.max(x.abs()))
            .max(1e-9);
        let width = spread / 8.0;

        let mut rng = StdRng::seed_from_u64(seed);
        let mut trees: Vec<Tree> = (0..num_trees)
            .map(|_| Tree {
                proj: (0..PROJ_DIMS * dim).map(|_| standard_normal(&mut rng)).collect(),
                offsets: (0..PROJ_DIMS).map(|_| rng.gen_range(0.0..width)).collect(),
                btree: BTreeMap::new(),
            })
            .collect();
        for (row, (v, _)) in data.iter().enumerate() {
            assert_eq!(v.len(), dim, "ragged input");
            for tree in &mut trees {
                let z = z_value(tree, v, dim, width);
                tree.btree.entry(z).or_default().push(row as u32);
            }
        }
        LsbTree {
            dim,
            width,
            trees,
            rows: data,
        }
    }

    /// Approximate kNN: per tree, visit the `probe` B-tree entries nearest
    /// to the query's Z-value (both directions); rank the union by true
    /// distance.
    pub fn knn(&self, query: &[f64], k: usize) -> Vec<Neighbour> {
        assert_eq!(query.len(), self.dim, "dimension mismatch");
        // Visit enough entries to gather ~4k candidates per tree.
        let probe = (4 * k).max(16);
        let mut seen = vec![false; self.rows.len()];
        let mut candidates: Vec<u32> = Vec::new();
        for tree in &self.trees {
            let z = z_value(tree, query, self.dim, self.width);
            let mut collected = 0usize;
            let fwd = tree.btree.range(z..).flat_map(|(_, rows)| rows);
            let bwd = tree.btree.range(..z).rev().flat_map(|(_, rows)| rows);
            // Interleave both directions (nearest Z-values first-ish).
            let mut fwd = fwd.peekable();
            let mut bwd = bwd.peekable();
            while collected < probe && (fwd.peek().is_some() || bwd.peek().is_some()) {
                for it in [&mut fwd as &mut dyn Iterator<Item = &u32>, &mut bwd] {
                    if collected >= probe {
                        break;
                    }
                    if let Some(&row) = it.next() {
                        collected += 1;
                        if !seen[row as usize] {
                            seen[row as usize] = true;
                            candidates.push(row);
                        }
                    }
                }
            }
        }
        let mut ranked: Vec<Neighbour> = candidates
            .into_iter()
            .map(|row| {
                let (v, id) = &self.rows[row as usize];
                Neighbour {
                    id: *id,
                    distance: sq_euclidean(v, query).sqrt(),
                }
            })
            .collect();
        ranked.sort_by(|a, b| a.distance.total_cmp(&b.distance).then(a.id.cmp(&b.id)));
        ranked.truncate(k);
        ranked
    }

    /// Bytes attributable to the forest (Table 5's "extensive disk space"
    /// observation: 25 trees of Z-value entries).
    pub fn memory_bytes(&self) -> usize {
        let trees: usize = self
            .trees
            .iter()
            .map(|t| {
                t.proj.capacity() * 8
                    + t.offsets.capacity() * 8
                    + t.btree.len() * (16 + 48) // key + node overhead
                    + t.btree.values().map(|v| v.capacity() * 4).sum::<usize>()
            })
            .sum();
        let rows: usize = self.rows.iter().map(|(v, _)| v.capacity() * 8 + 32).sum();
        trees + rows
    }
}

/// Quantize-and-interleave: the Z-order value of `v` under `tree`'s family.
fn z_value(tree: &Tree, v: &[f64], dim: usize, width: f64) -> u128 {
    let mut cells = [0u32; PROJ_DIMS];
    for (j, cell) in cells.iter_mut().enumerate() {
        let a = &tree.proj[j * dim..(j + 1) * dim];
        let dot: f64 = a.iter().zip(v).map(|(x, y)| x * y).sum();
        let q = ((dot + tree.offsets[j]) / width).floor();
        // Clamp into BITS_PER_DIM bits around 0 (bias to unsigned).
        let bias = (1i64 << (BITS_PER_DIM - 1)) as f64;
        *cell = (q + bias).clamp(0.0, (1u64 << BITS_PER_DIM) as f64 - 1.0) as u32;
    }
    // Bit interleave, most significant bit first across dimensions.
    let mut z: u128 = 0;
    for bit in (0..BITS_PER_DIM).rev() {
        for cell in cells {
            z = (z << 1) | u128::from((cell >> bit) & 1);
        }
    }
    z
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::{exact_knn, precision_recall};
    use ha_datagen::{generate, DatasetProfile};

    fn dataset(n: usize, seed: u64) -> Vec<(Vec<f64>, TupleId)> {
        generate(&DatasetProfile::tiny(16, 4), n, seed)
            .into_iter()
            .enumerate()
            .map(|(i, v)| (v, i as TupleId))
            .collect()
    }

    #[test]
    fn self_query_finds_itself() {
        let data = dataset(200, 21);
        let lsb = LsbTree::build(data.clone(), 5, 1);
        for i in [0usize, 99, 199] {
            let got = lsb.knn(&data[i].0, 1);
            assert_eq!(got[0].id, data[i].1);
        }
    }

    #[test]
    fn recall_reasonable_on_clustered_data() {
        let data = dataset(500, 22);
        let lsb = LsbTree::build(data.clone(), 10, 2);
        let mut recall_sum = 0.0;
        let queries = 20;
        for qi in 0..queries {
            let q = &data[qi * 13].0;
            let truth: Vec<TupleId> = exact_knn(&data, q, 10).iter().map(|n| n.id).collect();
            let got: Vec<TupleId> = lsb.knn(q, 10).iter().map(|n| n.id).collect();
            recall_sum += precision_recall(&got, &truth).1;
        }
        let recall = recall_sum / queries as f64;
        assert!(recall > 0.5, "mean recall {recall}");
    }

    #[test]
    fn z_values_of_identical_vectors_match() {
        let data = dataset(10, 23);
        let lsb = LsbTree::build(data.clone(), 1, 3);
        let t = &lsb.trees[0];
        let z1 = z_value(t, &data[0].0, lsb.dim, lsb.width);
        let z2 = z_value(t, &data[0].0, lsb.dim, lsb.width);
        assert_eq!(z1, z2);
    }

    #[test]
    fn more_trees_cost_more_memory() {
        let data = dataset(200, 24);
        let m5 = LsbTree::build(data.clone(), 5, 4).memory_bytes();
        let m25 = LsbTree::build(data, 25, 4).memory_bytes();
        assert!(m25 > 2 * m5, "25 trees {m25}B vs 5 trees {m5}B");
    }

    #[test]
    fn returns_at_most_k() {
        let data = dataset(100, 25);
        let lsb = LsbTree::build(data.clone(), 5, 5);
        assert!(lsb.knn(&data[0].0, 7).len() <= 7);
        // Sorted by distance.
        let got = lsb.knn(&data[3].0, 20);
        for w in got.windows(2) {
            assert!(w[0].distance <= w[1].distance);
        }
    }
}
