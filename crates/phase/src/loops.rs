//! Dynamic detection of cyclic program structures (loops) from the
//! block trace, following the classic backward-branch loop-stack
//! technique (as used by the profiling stages of SPM [Lau et al., CGO
//! 2006] and positional adaptation [Huang et al., ISCA 2003]).
//!
//! The detector watches block-to-block transitions:
//!
//! * a transition to a block at a **lower or equal address** is a back
//!   edge; its target is a loop header;
//! * on a back edge to `H`, every loop on the stack whose header lies at
//!   a higher address than `H` has necessarily been exited (a loop is a
//!   contiguous address range in our layouts) and is popped;
//! * if `H` is then on top of the stack this is a **new iteration** of
//!   that loop, otherwise `H` starts a **new loop**.
//!
//! Instructions are attributed to every loop currently on the stack, so
//! an outer loop's coverage includes its nested loops. COASTS selects
//! the *outermost* structure (minimum observed depth, maximum coverage)
//! among those with coverage ≥ 1 %, then slices the program at every
//! entry of that structure's header. The pipeline runs the detector as
//! a segment walk ([`crate::shard::ShardLoopMonitor`]) tested against
//! the unsegmented per-block oracle
//! [`crate::reference::LoopMonitor`].

use mlpa_isa::BlockId;

/// Statistics for one detected cyclic structure.
#[derive(Debug, Clone, PartialEq)]
pub struct CyclicStructure {
    /// The loop-header block.
    pub header: BlockId,
    /// Instructions executed while this loop was live (nested loops
    /// included).
    pub coverage_insts: u64,
    /// Back-edge count (≈ iterations − 1 per entry).
    pub back_edges: u64,
    /// Number of distinct times the loop was entered.
    pub entries: u64,
    /// Minimum nesting depth at which this header was pushed (0 =
    /// outermost).
    pub min_depth: usize,
}

impl CyclicStructure {
    /// Coverage as a fraction of `total` instructions.
    ///
    /// # Panics
    ///
    /// Panics if `total` is zero.
    pub fn coverage(&self, total: u64) -> f64 {
        assert!(total > 0, "total must be positive");
        self.coverage_insts as f64 / total as f64
    }
}

/// The result of loop profiling.
#[derive(Debug, Clone, PartialEq)]
pub struct LoopProfile {
    /// Detected structures, outermost / most-covering first.
    pub structures: Vec<CyclicStructure>,
    /// Total instructions in the profiled trace.
    pub total_insts: u64,
}

impl LoopProfile {
    /// Structures with coverage at least `min_coverage` (the paper
    /// discards those under 1 %).
    pub fn significant(&self, min_coverage: f64) -> Vec<&CyclicStructure> {
        self.structures
            .iter()
            .filter(|s| self.total_insts > 0 && s.coverage(self.total_insts) >= min_coverage)
            .collect()
    }

    /// The structure COASTS slices at: the outermost (min depth), then
    /// most-covering, significant structure. `None` if nothing clears
    /// `min_coverage`.
    pub fn select_outermost(&self, min_coverage: f64) -> Option<&CyclicStructure> {
        // `structures` is already sorted outermost/most-covering first.
        self.significant(min_coverage).into_iter().next()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::LoopMonitor;
    use mlpa_sim::FunctionalSim;
    use mlpa_workloads::{
        spec::{BenchmarkSpec, PhaseSpec, ScriptEntry},
        CompiledBenchmark, WorkloadStream,
    };

    fn profile(cb: &CompiledBenchmark) -> LoopProfile {
        let mut mon = LoopMonitor::new(cb.program());
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(cb), &mut mon);
        mon.finish()
    }

    #[test]
    fn detects_the_outer_loop_as_dominant() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let prof = profile(&cb);
        let sel = prof.select_outermost(0.01).expect("outer loop found");
        assert_eq!(sel.header, cb.outer_header(), "outer header dominates");
        assert_eq!(sel.min_depth, 0);
        assert!(
            sel.coverage(prof.total_insts) > 0.9,
            "outer loop covers most of the run: {}",
            sel.coverage(prof.total_insts)
        );
    }

    #[test]
    fn iteration_count_matches_script() {
        let spec = BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 50_000); 12],
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let prof = profile(&cb);
        let sel = prof.select_outermost(0.01).unwrap();
        // One entry, then a back edge per remaining outer iteration.
        assert_eq!(sel.entries, 1);
        assert_eq!(sel.back_edges, 12, "11 iteration back-edges + entry edge");
    }

    #[test]
    fn nested_structures_have_higher_depth() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let prof = profile(&cb);
        // Phase inner-loop headers sit at depth 1 under the outer loop.
        let inner = cb.phases()[0].header;
        let s = prof.structures.iter().find(|s| s.header == inner).expect("inner loop detected");
        assert!(s.min_depth >= 1, "inner loop depth {}", s.min_depth);
    }

    #[test]
    fn coverage_filter_discards_noise() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let prof = profile(&cb);
        let all = prof.structures.len();
        let sig = prof.significant(0.01).len();
        assert!(sig <= all);
        assert!(sig >= 1);
        // With an absurd threshold nothing survives.
        assert!(prof.select_outermost(1.1).is_none());
    }

    #[test]
    fn multi_phase_benchmark_still_selects_outer_header() {
        let spec = BenchmarkSpec {
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..10).map(|i| ScriptEntry::new(i % 2, 40_000)).collect(),
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let prof = profile(&cb);
        assert_eq!(prof.select_outermost(0.01).unwrap().header, cb.outer_header());
    }

    #[test]
    fn total_insts_matches_functional_count() {
        let cb = CompiledBenchmark::compile(&BenchmarkSpec::default()).unwrap();
        let mut mon = LoopMonitor::new(cb.program());
        let stats = FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut mon);
        assert_eq!(mon.finish().total_insts, stats.instructions);
    }
}
