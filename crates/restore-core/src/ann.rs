//! Approximate nearest neighbors for the euclidean replacement step of the
//! incompleteness join (§4.2, Fig. 3).
//!
//! The paper notes that exact nearest-neighbor replacement "would come at a
//! high cost" and employs "approximate nearest neighbor approaches and
//! batching". This module implements signed-random-projection LSH with
//! multiple hash tables: candidates are collected from matching buckets and
//! re-ranked exactly; a linear scan is the fallback when the buckets are
//! empty, so a neighbor is always found.

use std::collections::HashMap;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// LSH index over `f32` feature vectors.
pub(crate) struct AnnIndex {
    points: Vec<Vec<f32>>,
    dim: usize,
    /// One hyperplane set per table: `planes[t][b]` is a d-vector.
    planes: Vec<Vec<Vec<f32>>>,
    tables: Vec<HashMap<u64, Vec<u32>>>,
}

impl AnnIndex {
    /// Builds an index with `n_tables` hash tables of `bits` hyperplanes.
    pub(crate) fn build(points: Vec<Vec<f32>>, bits: usize, n_tables: usize, seed: u64) -> Self {
        assert!(!points.is_empty(), "cannot index an empty point set");
        let dim = points[0].len();
        assert!(
            points.iter().all(|p| p.len() == dim),
            "ragged feature vectors"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let bits = bits.clamp(1, 24);
        let mut planes = Vec::with_capacity(n_tables);
        let mut tables = Vec::with_capacity(n_tables);
        for _ in 0..n_tables.max(1) {
            let set: Vec<Vec<f32>> = (0..bits)
                .map(|_| (0..dim).map(|_| rng.random_range(-1.0..1.0f32)).collect())
                .collect();
            let mut table: HashMap<u64, Vec<u32>> = HashMap::new();
            for (i, p) in points.iter().enumerate() {
                table.entry(Self::hash(&set, p)).or_default().push(i as u32);
            }
            planes.push(set);
            tables.push(table);
        }
        Self {
            points,
            dim,
            planes,
            tables,
        }
    }

    fn hash(planes: &[Vec<f32>], point: &[f32]) -> u64 {
        let mut h = 0u64;
        for (b, plane) in planes.iter().enumerate() {
            let dot: f32 = plane.iter().zip(point).map(|(a, b)| a * b).sum();
            if dot >= 0.0 {
                h |= 1 << b;
            }
        }
        h
    }

    fn distance2(a: &[f32], b: &[f32]) -> f32 {
        a.iter().zip(b).map(|(x, y)| (x - y) * (x - y)).sum()
    }

    /// Index of (approximately) the nearest stored point.
    pub(crate) fn nearest(&self, query: &[f32]) -> usize {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let mut best = usize::MAX;
        let mut best_d = f32::INFINITY;
        let mut seen_any = false;
        for (set, table) in self.planes.iter().zip(&self.tables) {
            if let Some(bucket) = table.get(&Self::hash(set, query)) {
                for &i in bucket {
                    seen_any = true;
                    let d = Self::distance2(query, &self.points[i as usize]);
                    if d < best_d {
                        best_d = d;
                        best = i as usize;
                    }
                }
            }
        }
        if !seen_any {
            // Fallback: exact scan — rare when bits/tables are sized sanely.
            for (i, p) in self.points.iter().enumerate() {
                let d = Self::distance2(query, p);
                if d < best_d {
                    best_d = d;
                    best = i;
                }
            }
        }
        best
    }

    /// Batched variant of [`AnnIndex::nearest`].
    pub(crate) fn nearest_batch(&self, queries: &[Vec<f32>]) -> Vec<usize> {
        queries.iter().map(|q| self.nearest(q)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_points(n: usize) -> Vec<Vec<f32>> {
        (0..n)
            .map(|i| vec![i as f32, (i * 2) as f32 % 17.0])
            .collect()
    }

    #[test]
    fn exact_match_is_found() {
        let pts = grid_points(200);
        let idx = AnnIndex::build(pts.clone(), 8, 4, 1);
        for probe in [0usize, 57, 121, 199] {
            assert_eq!(idx.nearest(&pts[probe]), probe);
        }
    }

    #[test]
    fn approximate_neighbor_is_close() {
        let pts = grid_points(500);
        let idx = AnnIndex::build(pts.clone(), 10, 6, 2);
        let mut total_err = 0.0f32;
        for probe in (0..500).step_by(37) {
            let q: Vec<f32> = pts[probe].iter().map(|v| v + 0.25).collect();
            let found = idx.nearest(&q);
            let exact = pts
                .iter()
                .enumerate()
                .min_by(|a, b| {
                    AnnIndex::distance2(&q, a.1)
                        .partial_cmp(&AnnIndex::distance2(&q, b.1))
                        .unwrap()
                })
                .unwrap()
                .0;
            let err = AnnIndex::distance2(&q, &pts[found]) - AnnIndex::distance2(&q, &pts[exact]);
            total_err += err;
        }
        assert!(
            total_err < 10.0,
            "ANN answers drift too far from exact: {total_err}"
        );
    }

    #[test]
    fn fallback_scan_when_buckets_miss() {
        // A single point forces any query into the fallback path eventually.
        let idx = AnnIndex::build(vec![vec![1000.0, -1000.0]], 12, 2, 3);
        assert_eq!(idx.nearest(&[-1000.0, 1000.0]), 0);
    }

    #[test]
    fn batch_matches_single_queries() {
        let pts = grid_points(100);
        let idx = AnnIndex::build(pts.clone(), 8, 4, 4);
        let queries: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32 + 0.1, i as f32]).collect();
        let batch = idx.nearest_batch(&queries);
        for (q, &b) in queries.iter().zip(&batch) {
            assert_eq!(idx.nearest(q), b);
        }
    }

    #[test]
    #[should_panic(expected = "empty point set")]
    fn empty_index_panics() {
        let _ = AnnIndex::build(Vec::new(), 8, 4, 5);
    }
}
