//! The segment walk against its oracles: `ProfilingContext` must
//! produce profiles **bit-identical** to the unsegmented reference
//! observers at every segment count, whether `prepare()` runs first or
//! the lazy getters run alone (the serve path's call order); selections
//! must not see the count; and per-segment checkpoints in the cache must
//! let a killed run resume without re-profiling completed segments.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use mlpa_core::artifact::ProfileShardArtifact;
use mlpa_core::cache::{ArtifactCache, CacheKey};
use mlpa_core::pipeline::{ProfilingContext, ProjectionSettings, FINE_INTERVAL};
use mlpa_core::prelude::*;
use mlpa_phase::interval::{FixedLengthProfiler, Interval};
use mlpa_phase::loops::LoopProfile;
use mlpa_phase::reference::{BoundaryProfiler, LoopMonitor};
use mlpa_sim::FunctionalSim;
use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// Loop profile, fine intervals, boundary intervals, prologue flag.
type Profiles = (LoopProfile, Vec<Interval>, Vec<Interval>, bool);

fn two_phase_cb() -> CompiledBenchmark {
    let spec = BenchmarkSpec {
        phases: vec![
            PhaseSpec { name: "a".into(), ..PhaseSpec::default() },
            PhaseSpec { name: "b".into(), ..PhaseSpec::default() },
        ],
        script: (0..8).map(|i| ScriptEntry::new(i % 2, 500_000)).collect(),
        ..BenchmarkSpec::default()
    };
    CompiledBenchmark::compile(&spec).unwrap()
}

fn tmp_root(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("mlpa-shard-profiling-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

/// The oracle walk: the reference observers under `FunctionalSim::run`.
fn oracle(cb: &CompiledBenchmark) -> Profiles {
    let proj = ProjectionSettings::default().build(cb);
    let mut monitor = LoopMonitor::new(cb.program());
    let mut fine = FixedLengthProfiler::new(&proj, FINE_INTERVAL);
    FunctionalSim::new(cb.program()).run(WorkloadStream::new(cb), &mut (&mut monitor, &mut fine));
    let mut boundary = BoundaryProfiler::new(&proj, cb.outer_header());
    FunctionalSim::new(cb.program()).run(WorkloadStream::new(cb), &mut boundary);
    let prologue = boundary.has_prologue();
    (monitor.finish(), fine.finish(), boundary.finish(), prologue)
}

/// The context's products at `shards` segments; `prepare` selects
/// whether the combined walk runs up front or from the first getter.
fn profiles_with(
    cb: &CompiledBenchmark,
    shards: usize,
    prepare: bool,
    cache: Option<Arc<ArtifactCache>>,
) -> Profiles {
    let mut ctx = ProfilingContext::new(cb, ProjectionSettings::default(), FINE_INTERVAL);
    ctx.set_shards(shards);
    if let Some(c) = cache {
        ctx.set_cache(c);
    }
    if prepare {
        ctx.prepare();
    }
    let profile = ctx.loop_profile().clone();
    let fine = ctx.fine_intervals().to_vec();
    let header = cb.outer_header();
    let (biv, prologue) = ctx.boundary_intervals(header);
    (profile, fine, biv.to_vec(), prologue)
}

#[test]
fn segment_walk_matches_the_oracles_at_every_count() {
    let cb = two_phase_cb();
    let expect = oracle(&cb);
    for shards in [1, 2, 3, 5, 8] {
        for prepare in [true, false] {
            assert_eq!(
                profiles_with(&cb, shards, prepare, None),
                expect,
                "shards={shards} (prepare first: {prepare}) diverged from the oracle walk"
            );
        }
    }
}

#[test]
fn sharded_context_flows_through_full_pipeline_identically() {
    let cb = two_phase_cb();
    let mcfg = MultilevelConfig::default();
    let run = |shards: usize| {
        let mut ctx = ProfilingContext::new(&cb, mcfg.coasts.projection, mcfg.fine_interval);
        ctx.set_shards(shards);
        ctx.prepare();
        let fine = simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m()).unwrap();
        let co = coasts_with(&mut ctx, &mcfg.coasts).unwrap();
        let multi = multilevel_with(&mut ctx, &mcfg).unwrap();
        (fine, co, multi)
    };
    assert_eq!(run(8), run(1), "downstream selection must not see the shard count");
}

/// Reconstructs the private per-shard cache key (the key material is
/// the public contract pinned here; if this breaks, bump the cache
/// schema).
fn shard0_key(cb: &CompiledBenchmark, shards: usize) -> CacheKey {
    CacheKey::new()
        .field("spec", cb.spec())
        .field("projection", &ProjectionSettings::default())
        .field("interval", &FINE_INTERVAL)
        .field("shards", &shards)
        .field("shard", &0usize)
}

#[test]
fn shard_artifacts_resume_an_interrupted_run() {
    let cb = two_phase_cb();
    let shards = 4;
    let root = tmp_root("resume");
    let cache = Arc::new(ArtifactCache::open(&root).unwrap());

    let pristine = profiles_with(&cb, shards, true, Some(cache.clone()));

    // The cold run deposited one artifact per shard.
    for kind in ["profile-shard", "boundary-shard"] {
        let n = fs::read_dir(root.join(kind)).unwrap().count();
        assert_eq!(n, shards, "expected {shards} {kind} artifacts");
    }

    // Simulate a crash after the shards completed but before the merge
    // landed: drop the merged artifacts, keep the per-shard ones.
    let drop_merged = || {
        for kind in ["loop-profile", "intervals", "boundary"] {
            let _ = fs::remove_dir_all(root.join(kind));
        }
    };

    // Prove the resumed run *consumes* the cached shards rather than
    // silently re-profiling: tamper with shard 0 (valid encoding, wrong
    // tallies) and observe the merge change.
    let key = shard0_key(&cb, shards);
    let original: ProfileShardArtifact = cache.get(&key).expect("shard 0 artifact");
    let mut tampered = original.clone();
    tampered.loops.total_insts += 1_000_000;
    cache.put(&key, &tampered);
    drop_merged();
    let poisoned = profiles_with(&cb, shards, true, Some(cache.clone()));
    assert_ne!(poisoned.0, pristine.0, "resume must read the cached shard artifacts");

    // With the real artifact restored, resume reproduces the cold run
    // bit-for-bit.
    cache.put(&key, &original);
    drop_merged();
    let resumed = profiles_with(&cb, shards, true, Some(cache.clone()));
    assert_eq!(resumed, pristine, "resumed run must match the uninterrupted one");

    let _ = fs::remove_dir_all(&root);
}
