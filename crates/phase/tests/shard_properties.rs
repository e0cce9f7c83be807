//! Property tests: segment-sharded profiling merges **bit-identical**
//! to the monolithic passes across random segment counts and
//! boundaries — including boundaries that split a fine interval and
//! segments far shorter than one interval.
//!
//! Randomness is driven by the repo's own `SplitMix64` (seeded, so
//! failures reproduce exactly), following the pattern of
//! `kernel_properties.rs`.

use mlpa_isa::rng::SplitMix64;
use mlpa_isa::stream::InstructionStream;
use mlpa_isa::BlockId;
use mlpa_phase::interval::{validate_intervals, FixedLengthProfiler, Interval};
use mlpa_phase::loops::LoopProfile;
use mlpa_phase::project::RandomProjection;
use mlpa_phase::reference::{BoundaryProfiler, LoopMonitor};
use mlpa_phase::shard::{
    merge_boundary, merge_fine, merge_loops, BoundaryTracker, FineCutTracker, LoopStackTracker,
    ShardBoundaryProfiler, ShardFineProfiler, ShardLoopMonitor,
};
use mlpa_sim::functional::Observer;
use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

fn specs() -> Vec<BenchmarkSpec> {
    vec![
        BenchmarkSpec::default(),
        BenchmarkSpec {
            name: "shard-prop-multi".into(),
            seed: 11,
            init_insts: 2_000,
            tail_insts: 1_500,
            phases: vec![
                PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
                PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
            ],
            script: (0..6).map(|i| ScriptEntry::new(i % 2, 30_000)).collect(),
        },
        BenchmarkSpec {
            name: "shard-prop-tiny".into(),
            seed: 3,
            init_insts: 100,
            tail_insts: 50,
            phases: vec![PhaseSpec::default()],
            script: vec![ScriptEntry::new(0, 4_000); 2],
        },
    ]
}

fn block_seq(cb: &CompiledBenchmark) -> Vec<(BlockId, u64)> {
    let mut s = WorkloadStream::new(cb);
    let mut scratch = Vec::new();
    let mut seq = Vec::new();
    while let Some(m) = s.next_block_meta(&mut scratch) {
        seq.push((m.id, m.insts));
    }
    seq
}

/// Random cut positions (block indices) — may repeat (empty segments)
/// and may land anywhere, including mid-interval.
fn random_bounds(rng: &mut SplitMix64, n_blocks: usize) -> Vec<usize> {
    let n_cuts = rng.range_usize(9); // 0..=8 cuts -> 1..=9 segments
    let mut cuts: Vec<usize> = (0..n_cuts).map(|_| rng.range_usize(n_blocks + 1)).collect();
    cuts.sort_unstable();
    let mut bounds = vec![0];
    bounds.extend(cuts);
    bounds.push(n_blocks);
    bounds
}

fn mono_fine(seq: &[(BlockId, u64)], proj: &RandomProjection, len: u64) -> Vec<Interval> {
    let mut p = FixedLengthProfiler::new(proj, len);
    for &(id, n) in seq {
        p.record(id, n);
    }
    p.finish()
}

fn mono_loops(cb: &CompiledBenchmark, seq: &[(BlockId, u64)]) -> LoopProfile {
    let mut m = LoopMonitor::new(cb.program());
    for &(id, n) in seq {
        let insts = vec![mlpa_isa::Instruction::nop(); n as usize];
        m.on_block(id, &insts, 0);
    }
    m.finish()
}

fn mono_boundary(
    seq: &[(BlockId, u64)],
    proj: &RandomProjection,
    header: BlockId,
) -> (Vec<Interval>, bool) {
    let mut p = BoundaryProfiler::new(proj, header);
    for &(id, n) in seq {
        p.record(id, n);
    }
    let prologue = p.has_prologue();
    (p.finish(), prologue)
}

#[test]
fn sharded_profiling_equals_monolithic_for_random_boundaries() {
    let mut rng = SplitMix64::new(0x5348_4152_4450_524F);
    for spec in specs() {
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let seq = block_seq(&cb);
        let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
        let header = cb.outer_header();
        // Interval lengths chosen to exercise both "many blocks per
        // interval" and "interval spans many segments".
        for interval_len in [1_000u64, 10_000, 100_000] {
            let expect_fine = mono_fine(&seq, &proj, interval_len);
            validate_intervals(&expect_fine).unwrap();
            let expect_loops = mono_loops(&cb, &seq);
            let (expect_biv, expect_prologue) = mono_boundary(&seq, &proj, header);

            for _round in 0..6 {
                let bounds = random_bounds(&mut rng, seq.len());
                let mut fine_shards = Vec::new();
                let mut loop_shards = Vec::new();
                let mut boundary_shards = Vec::new();
                for w in bounds.windows(2) {
                    let (lo, hi) = (w[0], w[1]);
                    let mut fine_t = FineCutTracker::new(interval_len);
                    let mut loop_t = LoopStackTracker::new(cb.program());
                    let mut bnd_t = BoundaryTracker::new(header);
                    for &(id, n) in &seq[..lo] {
                        fine_t.record(n);
                        loop_t.record(id);
                        bnd_t.record(id, n);
                    }
                    let mut fine_p = ShardFineProfiler::new(&proj, interval_len, &fine_t);
                    let mut loop_m = ShardLoopMonitor::new(loop_t);
                    let mut bnd_p = ShardBoundaryProfiler::new(&proj, &bnd_t);
                    for &(id, n) in &seq[lo..hi] {
                        fine_p.record(id, n);
                        loop_m.record(id, n);
                        bnd_p.record(id, n);
                    }
                    fine_shards.push(fine_p.finish());
                    loop_shards.push(loop_m.finish());
                    boundary_shards.push(bnd_p.finish());
                }
                let bounds_dbg = bounds.clone();
                assert_eq!(
                    merge_fine(fine_shards),
                    expect_fine,
                    "fine mismatch: spec {} interval {interval_len} bounds {bounds_dbg:?}",
                    spec.name
                );
                assert_eq!(
                    merge_loops(loop_shards),
                    expect_loops,
                    "loop mismatch: spec {} bounds {bounds_dbg:?}",
                    spec.name
                );
                let (got_biv, got_prologue) = merge_boundary(boundary_shards);
                assert_eq!(
                    (got_biv, got_prologue),
                    (expect_biv.clone(), expect_prologue),
                    "boundary mismatch: spec {} bounds {bounds_dbg:?}",
                    spec.name
                );
            }
        }
    }
}

#[test]
fn single_block_segments_split_every_interval() {
    // The adversarial extreme: every segment holds exactly one block,
    // so every interval is assembled purely by piece coalescing.
    let cb = CompiledBenchmark::compile(&specs()[2]).unwrap();
    let seq = block_seq(&cb);
    let proj = RandomProjection::new(cb.program().num_blocks(), 15, 1);
    let interval_len = 1_000;
    let expect = mono_fine(&seq, &proj, interval_len);

    let mut shards = Vec::new();
    let mut tracker = FineCutTracker::new(interval_len);
    for &(id, n) in &seq {
        let mut p = ShardFineProfiler::new(&proj, interval_len, &tracker);
        p.record(id, n);
        shards.push(p.finish());
        tracker.record(n);
    }
    assert_eq!(merge_fine(shards), expect);
}
