//! End-to-end artifact-cache integration: a warm-cache pipeline run
//! must reproduce the cold run's outcomes bit-for-bit, config changes
//! must miss, and corrupted entries must be regenerated transparently.

use std::fs;
use std::path::PathBuf;
use std::sync::Arc;

use mlpa_core::cache::ArtifactCache;
use mlpa_core::prelude::*;
use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};
use mlpa_workloads::CompiledBenchmark;

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
        std::env::temp_dir().join(format!("mlpa-cache-pipeline-{tag}-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn run_pipeline(
    cb: &CompiledBenchmark,
    cache: Option<Arc<ArtifactCache>>,
) -> (mlpa_core::FineOutcome, mlpa_core::CoastsOutcome, mlpa_core::MultilevelOutcome) {
    let mcfg = MultilevelConfig::default();
    let mut ctx = ProfilingContext::new(cb, mcfg.coasts.projection, mcfg.fine_interval);
    if let Some(c) = cache {
        ctx.set_cache(c);
    }
    ctx.prepare();
    let fine = simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m()).unwrap();
    let co = coasts_with(&mut ctx, &mcfg.coasts).unwrap();
    let multi = multilevel_with(&mut ctx, &mcfg).unwrap();
    (fine, co, multi)
}

#[test]
fn warm_run_reproduces_cold_run_exactly() {
    let cb = two_phase_cb();
    let root = tmp_root("warm");
    let cache = Arc::new(ArtifactCache::open(&root).unwrap());

    let uncached = run_pipeline(&cb, None);
    let cold = run_pipeline(&cb, Some(cache.clone()));
    let warm = run_pipeline(&cb, Some(cache.clone()));

    assert_eq!(cold, uncached, "caching must not change results");
    assert_eq!(warm, cold, "warm run must be bit-identical to cold");

    // The store holds every artifact family the pipeline produced.
    let kinds: Vec<String> = fs::read_dir(&root)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    for expected in [
        "loop-profile",
        "intervals",
        "boundary",
        "fine-outcome",
        "coasts-outcome",
        "multilevel-outcome",
    ] {
        assert!(kinds.iter().any(|k| k == expected), "missing artifact kind {expected}: {kinds:?}");
    }
    // A one-segment walk writes no per-segment checkpoints: they would
    // duplicate the merged artifacts.
    for absent in ["profile-shard", "boundary-shard"] {
        assert!(!kinds.iter().any(|k| k == absent), "unexpected artifact kind {absent}");
    }

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn config_change_is_a_miss_not_a_wrong_hit() {
    let cb = two_phase_cb();
    let root = tmp_root("keys");
    let cache = Arc::new(ArtifactCache::open(&root).unwrap());

    let base = run_pipeline(&cb, Some(cache.clone()));

    // A different projection seed must re-profile, not reuse: its fine
    // selection differs from the cached one whenever clustering is
    // seed-sensitive, and crucially it must *never* return the old
    // projection's intervals. We assert on the interval vectors, which
    // are guaranteed to change with the projection matrix.
    let mcfg = MultilevelConfig::default();
    let other = ProjectionSettings { seed: 0xDEAD_BEEF, ..mcfg.coasts.projection };
    let mut ctx = ProfilingContext::new(&cb, other, mcfg.fine_interval);
    ctx.set_cache(cache.clone());
    ctx.prepare();
    let cfg2 = CoastsConfig { projection: other, ..mcfg.coasts };
    let co2 = coasts_with(&mut ctx, &cfg2).unwrap();
    assert_ne!(
        co2.intervals[0].vector, base.1.intervals[0].vector,
        "projection change must not reuse old interval signatures"
    );

    let _ = fs::remove_dir_all(&root);
}

#[test]
fn corrupted_entries_are_regenerated() {
    let cb = two_phase_cb();
    let root = tmp_root("corrupt");
    let cache = Arc::new(ArtifactCache::open(&root).unwrap());

    let cold = run_pipeline(&cb, Some(cache.clone()));

    // Corrupt every stored entry: flip a payload byte in one file per
    // kind, truncate the rest.
    let mut corrupted = 0usize;
    for kind in fs::read_dir(&root).unwrap() {
        for (i, entry) in fs::read_dir(kind.unwrap().path()).unwrap().enumerate() {
            let path = entry.unwrap().path();
            let mut bytes = fs::read(&path).unwrap();
            if i % 2 == 0 {
                let last = bytes.len() - 2;
                bytes[last] ^= 0x40;
                fs::write(&path, &bytes).unwrap();
            } else {
                fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
            }
            corrupted += 1;
        }
    }
    assert!(corrupted >= 6, "expected one entry per artifact family, saw {corrupted}");

    // Every lookup must reject its corrupt entry and recompute; the
    // results are again identical, and the store is repopulated with
    // verifiable entries for the next (clean) warm run.
    let regen = run_pipeline(&cb, Some(cache.clone()));
    assert_eq!(regen, cold, "regenerated results must match the cold run");
    let warm = run_pipeline(&cb, Some(cache.clone()));
    assert_eq!(warm, cold, "entries rewritten after corruption must verify");

    let _ = fs::remove_dir_all(&root);
}

/// Regression: COASTS and multi-level outcomes are keyed on the
/// context's projection settings, which their signatures depend on, so
/// two contexts with different projections sharing one store never get
/// each other's outcome.
#[test]
fn outcomes_are_keyed_on_the_context_projection() {
    let cb = two_phase_cb();
    let root = tmp_root("projection");
    let cache = Arc::new(ArtifactCache::open(&root).unwrap());
    let mcfg = MultilevelConfig::default();
    let run = |seed: u64, cache: Option<Arc<ArtifactCache>>| {
        let settings = ProjectionSettings { seed, ..mcfg.coasts.projection };
        let mut ctx = ProfilingContext::new(&cb, settings, mcfg.fine_interval);
        if let Some(c) = cache {
            ctx.set_cache(c);
        }
        let co = coasts_with(&mut ctx, &mcfg.coasts).unwrap();
        let multi = multilevel_with(&mut ctx, &mcfg).unwrap();
        (co, multi)
    };
    let seed = mcfg.coasts.projection.seed;
    let first = run(seed, Some(cache.clone()));
    let other = seed ^ 0x9E37_79B9;
    let second = run(other, Some(cache.clone()));
    let uncached = run(other, None);
    assert_ne!(first.0, uncached.0, "precondition: the projections give different signatures");
    assert_eq!(second.0, uncached.0, "COASTS outcome served across projections");
    assert_eq!(second.1, uncached.1, "multi-level outcome served across projections");

    let _ = fs::remove_dir_all(&root);
}
