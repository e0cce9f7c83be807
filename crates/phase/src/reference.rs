//! Naive reference implementations, kept as executable specifications.
//!
//! [`LoopMonitor`] and [`BoundaryProfiler`] are unsegmented per-block
//! observers; the segment walks' merged products ([`crate::shard`])
//! must equal theirs bit-for-bit at every segment count.
//!
//! The clustering references are the pre-optimisation `Vec<Vec<f64>>`
//! code paths: [`lloyd_naive`] allocates its accumulators
//! afresh every iteration and scans every centroid for every point, with
//! no pruning and no scratch reuse. The optimised kernels in
//! [`crate::kmeans`] are required to produce **identical** output —
//! a `#[cfg(test)]` assertion inside `kmeans_with` compares every
//! restart against [`lloyd_naive`], and `kernel_properties.rs` pins the
//! equivalence on randomised inputs. The bench harness also uses this
//! module as the "before" side of the `phase_pipeline` comparison.
//!
//! One deliberate deviation from the historical code: the empty-cluster
//! re-seed here measures each candidate against its **own** assigned
//! centroid. The original measured every candidate against the first
//! point's centroid — a bug, fixed in both this reference and the
//! optimised path so they stay comparable.

use crate::bic::KSelection;
use crate::interval::{Accumulator, Interval};
use crate::kmeans::{KMeansConfig, KMeansResult};
use crate::loops::{CyclicStructure, LoopProfile};
use crate::matrix::Matrix;
use crate::project::{distance_sq, RandomProjection};
use mlpa_isa::rng::SplitMix64;
use mlpa_isa::{BlockId, Instruction, Program};
use mlpa_sim::functional::Observer;
use std::collections::HashMap;

/// Naive k-means: k-means++ seeding, plain Lloyd's, multiple restarts.
/// Same contract (and same output) as [`crate::kmeans::kmeans`].
///
/// # Panics
///
/// Panics if `data` is empty or `k` is zero.
pub fn kmeans_naive(data: &[Vec<f64>], k: usize, cfg: &KMeansConfig) -> KMeansResult {
    assert!(!data.is_empty(), "kmeans needs at least one point");
    assert!(k > 0, "k must be positive");

    if k >= data.len() {
        return KMeansResult {
            assignments: (0..data.len()).collect(),
            centroids: Matrix::from_rows(data),
            inertia: 0.0,
            k: data.len(),
        };
    }

    let mut best: Option<KMeansResult> = None;
    let base = SplitMix64::new(cfg.seed);
    for r in 0..cfg.restarts.max(1) {
        let mut rng = base.fork(r as u64);
        let result = lloyd_naive(data, k, cfg.max_iters, &mut rng);
        if best.as_ref().is_none_or(|b| result.inertia < b.inertia) {
            best = Some(result);
        }
    }
    best.expect("at least one restart ran")
}

/// One naive Lloyd's run: fresh `vec![vec![0.0; dim]; k]` accumulators
/// every iteration, full nearest-centroid scan for every point.
pub fn lloyd_naive(
    data: &[Vec<f64>],
    k: usize,
    max_iters: usize,
    rng: &mut SplitMix64,
) -> KMeansResult {
    let mut centroids = plus_plus_seed_naive(data, k, rng);
    let mut assignments = vec![0usize; data.len()];

    for _ in 0..max_iters {
        let mut changed = false;
        // Assign.
        for (i, p) in data.iter().enumerate() {
            let a = nearest_naive(p, &centroids).0;
            if a != assignments[i] {
                assignments[i] = a;
                changed = true;
            }
        }
        // Update.
        let dim = data[0].len();
        let mut sums = vec![vec![0.0; dim]; k];
        let mut counts = vec![0usize; k];
        for (p, &a) in data.iter().zip(&assignments) {
            counts[a] += 1;
            for (s, &x) in sums[a].iter_mut().zip(p) {
                *s += x;
            }
        }
        for c in 0..k {
            if counts[c] == 0 {
                // Re-seed an empty cluster with the point farthest from
                // its own assigned centroid (last maximum wins on ties).
                let mut far = 0;
                let mut best = f64::NEG_INFINITY;
                for (i, &a) in assignments.iter().enumerate() {
                    let d = distance_sq(&data[i], &centroids[a]);
                    if d >= best {
                        best = d;
                        far = i;
                    }
                }
                centroids[c] = data[far].clone();
                changed = true;
            } else {
                let cnt = counts[c] as f64;
                for (j, s) in sums[c].iter().enumerate() {
                    centroids[c][j] = s / cnt;
                }
            }
        }
        if !changed {
            break;
        }
    }

    let inertia = data.iter().zip(&assignments).map(|(p, &a)| distance_sq(p, &centroids[a])).sum();
    KMeansResult { assignments, centroids: Matrix::from_rows(&centroids), inertia, k }
}

/// k-means++ seeding over nested vectors; consumes the RNG in exactly
/// the same sequence as the optimised seeding.
fn plus_plus_seed_naive(data: &[Vec<f64>], k: usize, rng: &mut SplitMix64) -> Vec<Vec<f64>> {
    let mut centroids = Vec::with_capacity(k);
    centroids.push(data[rng.range_usize(data.len())].clone());
    let mut d2: Vec<f64> = data.iter().map(|p| distance_sq(p, &centroids[0])).collect();
    while centroids.len() < k {
        let total: f64 = d2.iter().sum();
        let idx = if total <= 0.0 {
            rng.range_usize(data.len())
        } else {
            let mut target = rng.next_f64() * total;
            let mut pick = data.len() - 1;
            for (i, &d) in d2.iter().enumerate() {
                if target < d {
                    pick = i;
                    break;
                }
                target -= d;
            }
            pick
        };
        centroids.push(data[idx].clone());
        for (i, p) in data.iter().enumerate() {
            let d = distance_sq(p, centroids.last().expect("just pushed"));
            if d < d2[i] {
                d2[i] = d;
            }
        }
    }
    centroids
}

/// Nearest centroid over nested vectors (strict `<`: lowest index wins).
fn nearest_naive(p: &[f64], centroids: &[Vec<f64>]) -> (usize, f64) {
    let mut best = (0usize, f64::INFINITY);
    for (i, c) in centroids.iter().enumerate() {
        let d = distance_sq(p, c);
        if d < best.1 {
            best = (i, d);
        }
    }
    best
}

/// BIC score with the same formula as [`crate::bic::bic`], evaluated
/// against nested-vector data.
pub fn bic_naive(data: &[Vec<f64>], result: &KMeansResult) -> f64 {
    assert!(!data.is_empty(), "bic needs data");
    assert_eq!(data.len(), result.assignments.len(), "result does not match data");
    let r = data.len() as f64;
    let m = data[0].len() as f64;
    let k = result.k as f64;

    let sse: f64 = data
        .iter()
        .zip(&result.assignments)
        .map(|(p, &a)| distance_sq(p, result.centroids.row(a)))
        .sum();
    let denom = (r - k).max(1.0) * m;
    let sigma2 = (sse / denom).max(1e-12);

    let sizes = result.sizes();
    let mut loglik = 0.0;
    for &n in &sizes {
        if n == 0 {
            continue;
        }
        let rn = n as f64;
        loglik += rn * (rn.ln() - r.ln())
            - rn * m / 2.0 * (2.0 * std::f64::consts::PI * sigma2).ln()
            - (rn - 1.0) * m / 2.0;
    }
    let params = (k - 1.0) + k * m + 1.0;
    loglik - params / 2.0 * r.ln()
}

/// Naive k-selection sweep with the same selection rule as
/// [`crate::bic::choose_k`], built on [`kmeans_naive`] / [`bic_naive`].
pub fn choose_k_naive(
    data: &[Vec<f64>],
    k_max: usize,
    threshold: f64,
    cfg: &KMeansConfig,
) -> KSelection {
    assert!(!data.is_empty(), "choose_k needs data");
    assert!(k_max > 0, "k_max must be positive");
    assert!((0.0..=1.0).contains(&threshold), "threshold must be in [0, 1]");

    let k_hi = k_max.min(data.len());
    let mut candidates: Vec<(KMeansResult, f64)> = Vec::with_capacity(k_hi);
    for k in 1..=k_hi {
        let r = kmeans_naive(data, k, cfg);
        let s = bic_naive(data, &r);
        candidates.push((r, s));
    }
    let lo = candidates.iter().map(|(_, s)| *s).fold(f64::INFINITY, f64::min);
    let hi = candidates.iter().map(|(_, s)| *s).fold(f64::NEG_INFINITY, f64::max);
    let cut = if hi > 0.0 {
        threshold * hi
    } else if (hi - lo).abs() < 1e-12 {
        lo
    } else {
        lo + threshold * (hi - lo)
    };

    let scores: Vec<f64> = candidates.iter().map(|(_, s)| *s).collect();
    let pick =
        candidates.iter().position(|(_, s)| *s >= cut).expect("at least the max clears the cut");
    let (result, _) = candidates.swap_remove(pick);
    KSelection { k: result.k, result, scores }
}

#[derive(Debug)]
struct Frame {
    header: BlockId,
    header_addr: u64,
}

/// The unsegmented loop-profiling observer: the oracle of the segment
/// walk's [`LoopStackTracker`](crate::shard::LoopStackTracker) and
/// [`ShardLoopMonitor`](crate::shard::ShardLoopMonitor).
#[derive(Debug)]
pub struct LoopMonitor<'p> {
    program: &'p Program,
    stack: Vec<Frame>,
    stats: HashMap<BlockId, CyclicStructure>,
    prev: Option<BlockId>,
    total_insts: u64,
}

impl<'p> LoopMonitor<'p> {
    /// Create a monitor for `program`.
    pub fn new(program: &'p Program) -> LoopMonitor<'p> {
        LoopMonitor {
            program,
            stack: Vec::new(),
            stats: HashMap::new(),
            prev: None,
            total_insts: 0,
        }
    }

    /// Finish profiling and return all detected structures, outermost
    /// (then most-covering) first.
    pub fn finish(self) -> LoopProfile {
        let mut structures: Vec<CyclicStructure> = self.stats.into_values().collect();
        structures.sort_by(|a, b| {
            a.min_depth
                .cmp(&b.min_depth)
                .then(b.coverage_insts.cmp(&a.coverage_insts))
                .then(a.header.cmp(&b.header))
        });
        LoopProfile { structures, total_insts: self.total_insts }
    }
}

impl Observer for LoopMonitor<'_> {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], _first: u64) {
        let n = insts.len() as u64;
        self.total_insts += n;

        if let Some(prev) = self.prev {
            if self.program.is_backward(prev, id) {
                let target_addr = self.program.block(id).addr;
                // Pop every loop whose header lies above the target.
                while let Some(top) = self.stack.last() {
                    if top.header_addr > target_addr {
                        self.stack.pop();
                    } else {
                        break;
                    }
                }
                match self.stack.last() {
                    Some(top) if top.header == id => {
                        // New iteration of the current loop.
                        if let Some(s) = self.stats.get_mut(&id) {
                            s.back_edges += 1;
                        }
                    }
                    _ => {
                        // New loop discovered (or re-entered).
                        let depth = self.stack.len();
                        let entry = self.stats.entry(id).or_insert_with(|| CyclicStructure {
                            header: id,
                            coverage_insts: 0,
                            back_edges: 0,
                            entries: 0,
                            min_depth: depth,
                        });
                        entry.entries += 1;
                        entry.back_edges += 1;
                        entry.min_depth = entry.min_depth.min(depth);
                        self.stack
                            .push(Frame { header: id, header_addr: self.program.block(id).addr });
                    }
                }
            }
        }

        // Attribute this block's instructions to every live loop.
        for f in &self.stack {
            if let Some(s) = self.stats.get_mut(&f.header) {
                s.coverage_insts += n;
            }
        }
        self.prev = Some(id);
    }
}

/// Unsegmented profiler for variable-length intervals cut at every
/// entry of a chosen header block (the coarse, loop-iteration
/// granularity of COASTS): the oracle of the segment walk's
/// [`ShardBoundaryProfiler`](crate::shard::ShardBoundaryProfiler).
///
/// The prologue before the first header entry becomes the first
/// interval; the epilogue after the last entry becomes the last.
#[derive(Debug)]
pub struct BoundaryProfiler<'a> {
    proj: &'a RandomProjection,
    header: BlockId,
    acc: Accumulator,
    seen_header: bool,
    has_prologue: bool,
}

impl<'a> BoundaryProfiler<'a> {
    /// Create a profiler cutting at every execution of `header`.
    pub fn new(proj: &'a RandomProjection, header: BlockId) -> BoundaryProfiler<'a> {
        BoundaryProfiler {
            proj,
            header,
            acc: Accumulator::new(proj.dim()),
            seen_header: false,
            has_prologue: false,
        }
    }

    /// Record one executed block of `insts` instructions — the raw form
    /// of the [`Observer`] hook (see
    /// [`FixedLengthProfiler::record`](crate::interval::FixedLengthProfiler::record)).
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        if id == self.header {
            if !self.seen_header {
                self.seen_header = true;
                self.has_prologue = self.acc.count > 0;
            }
            self.acc.flush();
        }
        self.acc.add(self.proj, id, insts);
    }

    /// Whether instructions executed before the first header entry, i.e.
    /// whether the first interval is a prologue rather than an iteration
    /// instance. COASTS excludes the prologue from phase classification:
    /// it is not an iteration of the cyclic structure, and selecting it
    /// as a representative would let a few thousand setup instructions
    /// stand in for a whole phase.
    pub fn has_prologue(&self) -> bool {
        self.has_prologue
    }

    /// Flush the trailing interval and return all intervals.
    pub fn finish(mut self) -> Vec<Interval> {
        self.acc.flush();
        self.acc.intervals
    }
}

impl Observer for BoundaryProfiler<'_> {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], _first: u64) {
        self.record(id, insts.len() as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn naive_kmeans_matches_optimised() {
        // The cfg(test) hook inside kmeans_with already cross-checks
        // per restart; this checks end-to-end best-of-restarts too.
        let mut rng = SplitMix64::new(4242);
        let data: Vec<Vec<f64>> =
            (0..60).map(|_| (0..4).map(|_| rng.next_gauss()).collect()).collect();
        let cfg = KMeansConfig::default();
        assert_eq!(kmeans_naive(&data, 4, &cfg), crate::kmeans::kmeans(&data, 4, &cfg));
    }

    #[test]
    fn naive_choose_k_matches_optimised() {
        let mut rng = SplitMix64::new(7);
        let mut data: Vec<Vec<f64>> =
            (0..25).map(|_| vec![rng.next_gauss(), rng.next_gauss()]).collect();
        data.extend((0..25).map(|_| vec![40.0 + rng.next_gauss(), rng.next_gauss()]));
        let cfg = KMeansConfig::default();
        let naive = choose_k_naive(&data, 5, 0.9, &cfg);
        let fast = crate::bic::choose_k(&Matrix::from_rows(&data), 5, 0.9, &cfg);
        assert_eq!(naive, fast);
    }
}
