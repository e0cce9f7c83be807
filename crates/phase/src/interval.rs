//! Interval profiling: slicing an execution into intervals and
//! collecting one (projected, normalised) basic-block vector per
//! interval.
//!
//! [`FixedLengthProfiler`] cuts fixed-size intervals (SimPoint's 10 M /
//! our scaled 10 k instructions) from `(block, length)` records; the
//! pipeline's segment walks ([`crate::shard`]) produce the same
//! intervals, and the loop-iteration slicer of COASTS, piecewise. The
//! unsegmented loop-iteration slicer survives as a test oracle,
//! [`crate::reference::BoundaryProfiler`].

use crate::project::RandomProjection;
use mlpa_isa::{BlockId, Instruction};
use mlpa_sim::functional::Observer;

/// One profiled interval: where it lies in the trace and its signature
/// vector (projected, L1-normalised BBV).
#[derive(Debug, Clone, PartialEq)]
pub struct Interval {
    /// Position in execution order (0-based).
    pub index: usize,
    /// First instruction (global index).
    pub start: u64,
    /// Length in instructions.
    pub len: u64,
    /// Projected, normalised BBV signature.
    pub vector: Vec<f64>,
}

impl Interval {
    /// One-past-the-end instruction index.
    pub fn end(&self) -> u64 {
        self.start + self.len
    }

    /// The paper's "position": the interval's *end* over the program's
    /// total instruction count.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn position(&self, total: u64) -> f64 {
        assert!(total > 0, "total instruction count must be positive");
        self.end() as f64 / total as f64
    }
}

/// Shared accumulation machinery for the unsegmented profilers.
///
/// The signature is accumulated **directly in the projected space**:
/// `add` performs `dim` fused multiply-adds against the block's cached
/// projection row instead of bumping one slot of a raw
/// `num_blocks`-dimensional BBV. Projection is linear, so this is
/// bit-identical to materialising the raw BBV and projecting at flush
/// (all contributions are integer instruction counts, which `f64` sums
/// exactly in any order — `kernel_properties.rs` pins the equivalence).
/// The payoff: profiler state shrinks from `O(num_blocks)` to
/// `O(dim)` and a flush costs `O(dim)` instead of the old
/// `O(num_blocks × dim)` projection sweep.
///
/// Normalisation to relative frequencies (SimPoint's treatment)
/// happens *after* projection: dividing the projected vector by the
/// interval length equals projecting the normalised BBV, again by
/// linearity.
#[derive(Debug)]
pub(crate) struct Accumulator {
    /// Projected-space accumulator (`dim` floats).
    acc: Vec<f64>,
    pub(crate) count: u64,
    start: u64,
    pub(crate) intervals: Vec<Interval>,
}

impl Accumulator {
    pub(crate) fn new(dim: usize) -> Accumulator {
        Accumulator { acc: vec![0.0; dim], count: 0, start: 0, intervals: Vec::new() }
    }

    #[inline]
    pub(crate) fn add(&mut self, proj: &RandomProjection, id: BlockId, insts: u64) {
        proj.accumulate(id.index(), insts as f64, &mut self.acc);
        self.count += insts;
    }

    pub(crate) fn flush(&mut self) {
        if self.count == 0 {
            return;
        }
        let inv = 1.0 / self.count as f64;
        let vector: Vec<f64> = self.acc.iter().map(|v| v * inv).collect();
        self.intervals.push(Interval {
            index: self.intervals.len(),
            start: self.start,
            len: self.count,
            vector,
        });
        self.start += self.count;
        self.count = 0;
        self.acc.fill(0.0);
    }
}

/// Profiler for fixed-length intervals (block-granular: an interval ends
/// at the first block boundary at or past the target length).
///
/// # Example
///
/// ```
/// use mlpa_phase::{interval::FixedLengthProfiler, project::RandomProjection};
/// use mlpa_sim::FunctionalSim;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
/// let mut prof = FixedLengthProfiler::new(&proj, 10_000);
/// FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
/// let intervals = prof.finish();
/// assert!(intervals.len() > 10);
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct FixedLengthProfiler<'a> {
    proj: &'a RandomProjection,
    interval_len: u64,
    acc: Accumulator,
}

impl<'a> FixedLengthProfiler<'a> {
    /// Create a profiler cutting intervals of `interval_len`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval_len` is zero.
    pub fn new(proj: &'a RandomProjection, interval_len: u64) -> FixedLengthProfiler<'a> {
        assert!(interval_len > 0, "interval length must be positive");
        FixedLengthProfiler { proj, interval_len, acc: Accumulator::new(proj.dim()) }
    }

    /// Record one executed block of `insts` instructions — the raw form
    /// of the [`Observer`] hook, usable without constructing instruction
    /// slices (benchmarks, synthetic streams, property tests).
    #[inline]
    pub fn record(&mut self, id: BlockId, insts: u64) {
        self.acc.add(self.proj, id, insts);
        if self.acc.count >= self.interval_len {
            self.acc.flush();
        }
    }

    /// Flush the trailing partial interval and return all intervals.
    pub fn finish(mut self) -> Vec<Interval> {
        self.acc.flush();
        self.acc.intervals
    }
}

impl Observer for FixedLengthProfiler<'_> {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], _first: u64) {
        self.record(id, insts.len() as u64);
    }
}

/// Check the structural invariants of a profiled interval list: dense
/// 0-based indices, contiguous coverage starting at 0, positive lengths.
///
/// # Errors
///
/// Returns a message describing the first violation.
pub fn validate_intervals(intervals: &[Interval]) -> Result<(), String> {
    let mut expect_start = 0u64;
    for (i, iv) in intervals.iter().enumerate() {
        if iv.index != i {
            return Err(format!("interval {i} has index {}", iv.index));
        }
        if iv.len == 0 {
            return Err(format!("interval {i} is empty"));
        }
        if iv.start != expect_start {
            return Err(format!(
                "interval {i} starts at {} but previous ended at {expect_start}",
                iv.start
            ));
        }
        expect_start = iv.end();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_sim::FunctionalSim;
    use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};

    fn compiled() -> CompiledBenchmark {
        CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap()
    }

    fn total_insts(cb: &CompiledBenchmark) -> u64 {
        let mut f = FunctionalSim::new(cb.program());
        f.run(WorkloadStream::new(cb), &mut ()).instructions
    }

    #[test]
    fn fixed_profiler_covers_whole_trace() {
        let cb = compiled();
        let total = total_insts(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut prof = FixedLengthProfiler::new(&proj, 10_000);
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
        let ivs = prof.finish();
        validate_intervals(&ivs).unwrap();
        assert_eq!(ivs.iter().map(|i| i.len).sum::<u64>(), total);
        // Roughly total/10k intervals (block-boundary overshoot aside).
        let expect = total / 10_000;
        assert!((ivs.len() as i64 - expect as i64).unsigned_abs() <= expect / 5 + 2);
        // Every interval at least the target length except possibly last.
        for iv in &ivs[..ivs.len() - 1] {
            assert!(iv.len >= 10_000);
            assert!(iv.len < 10_200, "overshoot bounded by a block");
        }
    }

    #[test]
    fn vectors_are_normalised() {
        // The projected vector of an interval equals the projection of
        // its relative-frequency BBV; its magnitude is bounded by the
        // max |±1| row sums, i.e. each component lies in [-1, 1].
        let cb = compiled();
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut prof = FixedLengthProfiler::new(&proj, 5_000);
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
        for iv in prof.finish() {
            for &v in &iv.vector {
                assert!((-1.0..=1.0).contains(&v), "component {v} out of range");
            }
        }
    }

    #[test]
    fn boundary_profiler_cuts_at_header_entries() {
        let cb = compiled();
        let total = total_insts(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut prof = crate::reference::BoundaryProfiler::new(&proj, cb.outer_header());
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
        let ivs = prof.finish();
        validate_intervals(&ivs).unwrap();
        assert_eq!(ivs.iter().map(|i| i.len).sum::<u64>(), total);
        // One interval per script entry plus the init prologue; the tail
        // (no header entry after it) merges into the final iteration.
        let outer = cb.spec().script.len();
        assert_eq!(ivs.len(), outer + 1, "prologue + iterations (tail merged)");
    }

    #[test]
    fn interval_position_uses_end() {
        let iv = Interval { index: 0, start: 50, len: 50, vector: vec![] };
        assert!((iv.position(200) - 0.5).abs() < 1e-12);
        assert_eq!(iv.end(), 100);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_len_rejected() {
        let proj = RandomProjection::new(4, 2, 0);
        let _ = FixedLengthProfiler::new(&proj, 0);
    }

    #[test]
    fn validate_catches_gaps() {
        let good = vec![
            Interval { index: 0, start: 0, len: 10, vector: vec![] },
            Interval { index: 1, start: 10, len: 5, vector: vec![] },
        ];
        validate_intervals(&good).unwrap();
        let gap = vec![
            Interval { index: 0, start: 0, len: 10, vector: vec![] },
            Interval { index: 1, start: 11, len: 5, vector: vec![] },
        ];
        assert!(validate_intervals(&gap).is_err());
        let empty = vec![Interval { index: 0, start: 0, len: 0, vector: vec![] }];
        assert!(validate_intervals(&empty).is_err());
    }

    #[test]
    fn same_phase_intervals_have_similar_vectors() {
        // Coarse intervals of a single-phase benchmark should cluster
        // tightly: compare consecutive outer iterations.
        let cb = compiled();
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let mut prof = crate::reference::BoundaryProfiler::new(&proj, cb.outer_header());
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
        let ivs = prof.finish();
        // Skip prologue and epilogue.
        let body = &ivs[1..ivs.len() - 1];
        let d = crate::project::distance_sq(&body[1].vector, &body[2].vector);
        // Distance between same-phase iterations is small relative to
        // the vectors' own norms.
        let norm: f64 = body[1].vector.iter().map(|v| v * v).sum();
        assert!(d < norm * 0.1, "same-phase distance {d} vs norm {norm}");
    }
}
