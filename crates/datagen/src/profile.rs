//! Dataset profiles mirroring the paper's three evaluation collections.

/// Shape parameters of a synthetic dataset: dimensionality, cluster
/// structure, and skew. The three constructors correspond to the paper's
/// §6 datasets.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetProfile {
    /// Short name used in experiment tables.
    pub name: &'static str,
    /// Feature dimensionality `d`.
    pub dim: usize,
    /// Number of Gaussian mixture components.
    pub clusters: usize,
    /// Zipf exponent over cluster weights (0 = uniform; larger = more
    /// skewed — the load-balancing stressor of §5.1).
    pub skew: f64,
    /// Spread of cluster centres in each dimension.
    pub centre_spread: f64,
    /// Within-cluster standard deviation.
    pub cluster_std: f64,
    /// Default tuple count used by the experiments at scale ×1.
    pub default_n: usize,
}

impl DatasetProfile {
    /// NUS-WIDE shape: 225-d block-wise color moments, 269,648 images.
    /// Image features cluster moderately by scene type.
    pub fn nuswide() -> Self {
        DatasetProfile {
            name: "NUS-WIDE",
            dim: 225,
            clusters: 24,
            skew: 0.8,
            centre_spread: 10.0,
            cluster_std: 1.2,
            default_n: 269_648,
        }
    }

    /// Flickr shape: 512-d GIST descriptors of 1M crawled images. GIST is
    /// higher dimensional with broader, overlapping scene clusters.
    pub fn flickr() -> Self {
        DatasetProfile {
            name: "Flickr",
            dim: 512,
            clusters: 32,
            skew: 0.7,
            centre_spread: 8.0,
            cluster_std: 1.6,
            default_n: 1_000_000,
        }
    }

    /// DBPedia shape: 250 LDA topic proportions of 1M documents. Topic
    /// vectors are heavily skewed — a few topics dominate the corpus.
    pub fn dbpedia() -> Self {
        DatasetProfile {
            name: "DBPedia",
            dim: 250,
            clusters: 40,
            skew: 1.2,
            centre_spread: 6.0,
            cluster_std: 0.8,
            default_n: 1_000_000,
        }
    }

    /// All three evaluation profiles, in the paper's order.
    pub fn all() -> Vec<DatasetProfile> {
        vec![Self::nuswide(), Self::flickr(), Self::dbpedia()]
    }

    /// A small profile for unit tests and examples.
    pub fn tiny(dim: usize, clusters: usize) -> Self {
        DatasetProfile {
            name: "tiny",
            dim,
            clusters,
            skew: 0.5,
            centre_spread: 5.0,
            cluster_std: 0.8,
            default_n: 1_000,
        }
    }

    /// Normalized Zipf weights over the clusters.
    pub(crate) fn cluster_weights(&self) -> Vec<f64> {
        let raw: Vec<f64> = (1..=self.clusters)
            .map(|r| 1.0 / (r as f64).powf(self.skew))
            .collect();
        let total: f64 = raw.iter().sum();
        raw.into_iter().map(|w| w / total).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_dimensions() {
        assert_eq!(DatasetProfile::nuswide().dim, 225);
        assert_eq!(DatasetProfile::flickr().dim, 512);
        assert_eq!(DatasetProfile::dbpedia().dim, 250);
        assert_eq!(DatasetProfile::nuswide().default_n, 269_648);
    }

    #[test]
    fn weights_sum_to_one_and_descend() {
        for p in DatasetProfile::all() {
            let w = p.cluster_weights();
            assert_eq!(w.len(), p.clusters);
            let sum: f64 = w.iter().sum();
            assert!((sum - 1.0).abs() < 1e-12, "{}: sum {sum}", p.name);
            for pair in w.windows(2) {
                assert!(pair[0] >= pair[1], "{}: weights must descend", p.name);
            }
        }
    }

    #[test]
    fn skew_ordering() {
        // DBPedia is the most skewed: its top cluster weight dominates.
        let db = DatasetProfile::dbpedia().cluster_weights()[0];
        let fl = DatasetProfile::flickr().cluster_weights()[0];
        assert!(db > fl);
    }

    #[test]
    fn zero_skew_uniform() {
        let mut p = DatasetProfile::tiny(4, 5);
        p.skew = 0.0;
        let w = p.cluster_weights();
        for &x in &w {
            assert!((x - 0.2).abs() < 1e-12);
        }
    }
}
