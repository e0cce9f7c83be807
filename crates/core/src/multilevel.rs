//! Multi-level sampling (the paper's §IV-B): COASTS first, then
//! fine-grained re-sampling of every coarse simulation point larger
//! than a threshold.
//!
//! The fine points inside a coarse point represent only *that point*,
//! not the whole program, so far fewer are needed than pure fine-grained
//! SimPoint selects — that is where the detailed-simulation savings come
//! from. Weights compose multiplicatively: a fine point with weight `w_f`
//! inside a coarse point of weight `w_c` carries `w_c · w_f` in the
//! whole-program estimate.

use crate::cache::CacheKey;
use crate::coasts::{coasts_with, CoastsConfig, CoastsOutcome};
use crate::pipeline::{ProfilingContext, FINE_INTERVAL, RESAMPLE_THRESHOLD};
use crate::plan::{PlanPoint, SimulationPlan};
use mlpa_isa::stream::InstructionStream;
use mlpa_phase::interval::{FixedLengthProfiler, Interval};
use mlpa_phase::project::RandomProjection;
use mlpa_phase::simpoint::{select, SimPointConfig, SimPoints};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};

/// Multi-level sampling parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultilevelConfig {
    /// First-level (coarse) parameters.
    pub coasts: CoastsConfig,
    /// Second-level (fine) clustering/selection parameters.
    pub fine: SimPointConfig,
    /// Fine interval length (the paper's 10 M, scaled).
    pub fine_interval: u64,
    /// Re-sample threshold: coarse points larger than this get
    /// re-sampled (the paper's 10 M × Kmax = 300 M, scaled).
    pub threshold: u64,
}

impl Default for MultilevelConfig {
    fn default() -> Self {
        MultilevelConfig {
            coasts: CoastsConfig::default(),
            fine: SimPointConfig::fine_10m(),
            fine_interval: FINE_INTERVAL,
            threshold: RESAMPLE_THRESHOLD,
        }
    }
}

/// Diagnostics for one re-sampled coarse point.
#[derive(Debug, Clone, PartialEq)]
pub struct ResampledPoint {
    /// Start of the coarse point in the trace.
    pub coarse_start: u64,
    /// Length of the coarse point.
    pub coarse_len: u64,
    /// The fine selection inside it (starts are relative to
    /// `coarse_start`).
    pub fine: SimPoints,
}

/// Everything multi-level sampling produces for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct MultilevelOutcome {
    /// The executable multi-level plan.
    pub plan: SimulationPlan,
    /// The first-level outcome.
    pub coasts: CoastsOutcome,
    /// Which coarse points were re-sampled, with their fine selections.
    pub resampled: Vec<ResampledPoint>,
}

/// Run multi-level sampling on a compiled benchmark.
///
/// # Errors
///
/// Propagates COASTS errors (no significant cyclic structure / empty
/// trace).
///
/// # Example
///
/// ```
/// use mlpa_core::multilevel::{multilevel, MultilevelConfig};
/// use mlpa_workloads::{suite, CompiledBenchmark};
///
/// let spec = suite::benchmark("lucas").unwrap().scaled(0.05);
/// let cb = CompiledBenchmark::compile(&spec)?;
/// let out = multilevel(&cb, &MultilevelConfig::default())?;
/// // Multi-level detail volume never exceeds the coarse plan's.
/// assert!(out.plan.detailed_insts() <= out.coasts.plan.detailed_insts());
/// # Ok::<(), String>(())
/// ```
pub fn multilevel(
    cb: &CompiledBenchmark,
    cfg: &MultilevelConfig,
) -> Result<MultilevelOutcome, String> {
    let mut ctx = ProfilingContext::new(cb, cfg.coasts.projection, cfg.fine_interval);
    multilevel_with(&mut ctx, cfg)
}

/// [`multilevel`] on a shared [`ProfilingContext`]: the first-level
/// COASTS selection reuses the context's cached passes (so a harness
/// that already ran [`coasts_with`](crate::coasts::coasts_with) pays
/// nothing extra for the first level), and the re-sampling windows
/// reuse the context's projection matrix.
///
/// # Errors
///
/// Same failure modes as [`multilevel`].
pub fn multilevel_with(
    ctx: &mut ProfilingContext<'_>,
    cfg: &MultilevelConfig,
) -> Result<MultilevelOutcome, String> {
    let cache = ctx.cache();
    // The signatures come from the context's projection, so its
    // settings are part of the outcome's identity.
    let key = cache.as_ref().map(|_| {
        CacheKey::new()
            .field("spec", ctx.benchmark().spec())
            .field("projection", &ctx.settings())
            .field("multilevel", cfg)
    });
    if let (Some(c), Some(k)) = (&cache, &key) {
        if let Some(out) = c.get::<MultilevelOutcome>(k) {
            return Ok(out);
        }
    }
    let first = coasts_with(ctx, &cfg.coasts)?;
    let _span = mlpa_obs::span("core.select.multilevel");
    let mut points: Vec<PlanPoint> = Vec::new();
    let mut resampled = Vec::new();

    let windows: Vec<(u64, u64)> = first
        .plan
        .points()
        .iter()
        .filter(|cp| cp.len > cfg.threshold)
        .map(|cp| (cp.start, cp.len))
        .collect();
    let mut profiled =
        profile_windows(ctx.benchmark(), ctx.projection(), cfg.fine_interval, &windows).into_iter();

    for cp in first.plan.points() {
        if cp.len <= cfg.threshold {
            points.push(*cp);
            continue;
        }
        let intervals = profiled.next().expect("one profile per window");
        if intervals.is_empty() {
            points.push(*cp);
            continue;
        }
        // The window's first fine interval carries the inter-phase
        // transition (predictor/L1 re-warm after the previous coarse
        // phase) — behaviour that occurs once per window, not per
        // phase. Like COASTS's prologue rule, it is excluded from
        // classification so it can neither be selected as a
        // representative nor skew the weights (its ~1/50 window share
        // is simply fast-forwarded). The exclusion applies whenever a
        // steady-state interval remains to classify — including the
        // exactly-2-interval window, where the second interval alone
        // represents the phase; only a 1-interval window (nothing but
        // transition) is classified as-is.
        let body = if intervals.len() >= 2 { &intervals[1..] } else { &intervals[..] };
        let fine = select(body, &cfg.fine);
        for fp in &fine.points {
            points.push(PlanPoint {
                start: cp.start + fp.start,
                len: fp.len,
                weight: cp.weight * fp.weight,
            });
        }
        resampled.push(ResampledPoint { coarse_start: cp.start, coarse_len: cp.len, fine });
    }
    mlpa_obs::add("core.select.resampled_points", resampled.len() as u64);

    points.sort_by_key(|p| p.start);
    let plan = SimulationPlan::new(points, first.plan.total_insts())?;
    let out = MultilevelOutcome { plan, coasts: first, resampled };
    if let (Some(c), Some(k)) = (&cache, &key) {
        c.put(k, &out);
    }
    Ok(out)
}

/// Profile fine intervals inside each `(start, len)` window in one
/// metadata walk over the trace (no instruction is materialised).
/// Windows must be sorted and disjoint. Cuts are block-granular: the
/// skip to a window and the window itself each end at the first block
/// boundary at or past their target, and a window running past the
/// trace end comes back short, or empty. A profiler holds O(dim) state
/// (it accumulates in projected space), so one per window is cheap even
/// when `num_blocks` is large.
fn profile_windows(
    cb: &CompiledBenchmark,
    projection: &RandomProjection,
    fine_interval: u64,
    windows: &[(u64, u64)],
) -> Vec<Vec<Interval>> {
    let mut stream = WorkloadStream::new(cb);
    let mut scratch = Vec::new();
    let mut pos = 0u64;
    let mut out = Vec::with_capacity(windows.len());
    for &(start, len) in windows {
        while pos < start {
            let Some(m) = stream.next_block_meta(&mut scratch) else { break };
            pos += m.insts;
        }
        let mut prof = FixedLengthProfiler::new(projection, fine_interval);
        let end = pos + len;
        while pos < end {
            let Some(m) = stream.next_block_meta(&mut scratch) else { break };
            prof.record(m.id, m.insts);
            pos += m.insts;
        }
        out.push(prof.finish());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};

    /// A benchmark whose outer iterations (≈ 500 k) exceed the 300 k
    /// threshold, so every coarse point gets re-sampled.
    fn big_iteration_cb() -> CompiledBenchmark {
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

    /// A benchmark with small iterations: nothing to re-sample.
    fn small_iteration_cb() -> CompiledBenchmark {
        let spec = BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 50_000); 8],
            ..BenchmarkSpec::default()
        };
        CompiledBenchmark::compile(&spec).unwrap()
    }

    #[test]
    fn resamples_only_above_threshold() {
        let cfg = MultilevelConfig::default();

        let big = multilevel(&big_iteration_cb(), &cfg).unwrap();
        assert!(!big.resampled.is_empty(), "500k points must be re-sampled");

        let small = multilevel(&small_iteration_cb(), &cfg).unwrap();
        assert!(small.resampled.is_empty(), "50k points stay whole");
        assert_eq!(small.plan, small.coasts.plan, "plan unchanged when nothing re-sampled");
    }

    #[test]
    fn fine_points_stay_inside_their_coarse_point() {
        let out = multilevel(&big_iteration_cb(), &MultilevelConfig::default()).unwrap();
        for r in &out.resampled {
            for fp in &r.fine.points {
                assert!(fp.start + fp.len <= r.coarse_len + 200, "fine point escapes window");
            }
        }
        // Every plan point lies inside some coarse point.
        for p in out.plan.points() {
            let inside = out
                .coasts
                .plan
                .points()
                .iter()
                .any(|cp| p.start >= cp.start && p.start + p.len <= cp.end() + 200);
            assert!(inside, "plan point at {} outside all coarse points", p.start);
        }
    }

    #[test]
    fn weights_compose_to_one() {
        let out = multilevel(&big_iteration_cb(), &MultilevelConfig::default()).unwrap();
        let sum: f64 = out.plan.points().iter().map(|p| p.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
    }

    #[test]
    fn detail_volume_shrinks_dramatically() {
        let out = multilevel(&big_iteration_cb(), &MultilevelConfig::default()).unwrap();
        assert!(
            out.plan.detailed_insts() * 4 < out.coasts.plan.detailed_insts(),
            "multi-level detail {} vs coarse {}",
            out.plan.detailed_insts(),
            out.coasts.plan.detailed_insts()
        );
    }

    #[test]
    fn functional_no_worse_than_last_coarse_end() {
        let out = multilevel(&big_iteration_cb(), &MultilevelConfig::default()).unwrap();
        assert!(out.plan.last_end() <= out.coasts.plan.last_end() + 200);
    }

    #[test]
    fn threshold_zero_resamples_everything() {
        let cfg = MultilevelConfig { threshold: 0, ..MultilevelConfig::default() };
        let out = multilevel(&small_iteration_cb(), &cfg).unwrap();
        assert_eq!(out.resampled.len(), out.coasts.plan.len());
    }

    #[test]
    fn deterministic() {
        let cfg = MultilevelConfig::default();
        let a = multilevel(&big_iteration_cb(), &cfg).unwrap();
        let b = multilevel(&big_iteration_cb(), &cfg).unwrap();
        assert_eq!(a.plan, b.plan);
    }

    /// Edge case: a coarse point whose length is *exactly* the
    /// threshold is kept whole (`len <= threshold` never re-samples),
    /// and only strictly longer points are broken up. Pinned by running
    /// the same benchmark with the threshold set at, and just below,
    /// the longest coarse point.
    #[test]
    fn coarse_point_exactly_at_threshold_is_kept_whole() {
        let cb = big_iteration_cb();
        let coarse = multilevel(&cb, &MultilevelConfig::default()).unwrap().coasts;
        let max_len = coarse.plan.points().iter().map(|p| p.len).max().unwrap();

        // Threshold equal to the longest point: nothing may re-sample.
        let cfg = MultilevelConfig { threshold: max_len, ..MultilevelConfig::default() };
        let out = multilevel(&cb, &cfg).unwrap();
        assert!(out.resampled.is_empty(), "len == threshold must stay whole");
        assert_eq!(out.plan, out.coasts.plan);
        let sum: f64 = out.plan.points().iter().map(|p| p.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
        assert!(out.plan.detailed_insts() <= out.coasts.plan.detailed_insts());

        // One instruction below: the longest point crosses the strict
        // `>` boundary and must now be re-sampled.
        let cfg = MultilevelConfig { threshold: max_len - 1, ..MultilevelConfig::default() };
        let out = multilevel(&cb, &cfg).unwrap();
        assert!(
            out.resampled.iter().any(|r| r.coarse_len == max_len),
            "len == threshold + 1 must re-sample"
        );
        assert!(
            out.resampled.iter().all(|r| r.coarse_len > cfg.threshold),
            "only strictly-above-threshold points re-sample"
        );
        let sum: f64 = out.plan.points().iter().map(|p| p.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
        assert!(out.plan.detailed_insts() <= out.coasts.plan.detailed_insts());
    }

    /// Edge case: a re-sampled coarse point whose tail is shorter than
    /// `fine_interval` (the window length is not a multiple of the fine
    /// grid). The short trailing interval must not break weight
    /// normalisation or the detail-volume bound, and any fine point
    /// selected from it must stay inside the window.
    #[test]
    fn resampled_window_with_short_tail_interval() {
        let cb = big_iteration_cb();
        // 500 k-instruction iterations on a 7 k grid: 71 whole fine
        // intervals plus a ~3 k tail.
        let cfg = MultilevelConfig { fine_interval: 7_000, ..MultilevelConfig::default() };
        let out = multilevel(&cb, &cfg).unwrap();
        assert!(!out.resampled.is_empty(), "500k points must be re-sampled");
        for r in &out.resampled {
            assert!(
                r.coarse_len % cfg.fine_interval != 0,
                "precondition: window of {} must leave a short tail on the {} grid",
                r.coarse_len,
                cfg.fine_interval
            );
            for fp in &r.fine.points {
                // Intervals are cut at block boundaries, so a point may
                // overshoot the grid by at most one block.
                assert!(fp.len <= cfg.fine_interval + 200, "fine point longer than the grid");
                assert!(fp.start + fp.len <= r.coarse_len + 200, "fine point escapes window");
            }
        }
        let sum: f64 = out.plan.points().iter().map(|p| p.weight).sum();
        assert!((sum - 1.0).abs() < 1e-6, "weights sum to {sum}");
        assert!(out.plan.detailed_insts() <= out.coasts.plan.detailed_insts());
    }

    /// The window walk reproduces the code it replaced: the functional
    /// simulator fast-forwarding to each window and running a
    /// `FixedLengthProfiler` across it — on windows at the trace start,
    /// mid-trace, running past the trace end, and wholly beyond it.
    #[test]
    fn window_walk_matches_functional_fast_forward() {
        use mlpa_sim::functional::Warming;
        use mlpa_sim::FunctionalSim;
        let cb = big_iteration_cb();
        let proj = crate::pipeline::ProjectionSettings::default().build(&cb);
        let total = crate::pipeline::trace_insts(&cb);
        let windows =
            [(0, 25_000), (total / 2 - 3_333, 123_457), (total - 40_000, 1_000_000), (total, 9)];
        let mut stream = WorkloadStream::new(&cb);
        let mut func = FunctionalSim::new(cb.program());
        let mut pos = 0;
        let expect: Vec<Vec<Interval>> = windows
            .iter()
            .map(|&(start, len)| {
                let skip = start.saturating_sub(pos);
                pos += func.fast_forward(&mut stream, skip, &mut (), Warming::None, None);
                let mut prof = FixedLengthProfiler::new(&proj, 7_000);
                pos += func.fast_forward(&mut stream, len, &mut prof, Warming::None, None);
                prof.finish()
            })
            .collect();
        let got = profile_windows(&cb, &proj, 7_000, &windows);
        assert_eq!(got, expect);
        assert!(got[..3].iter().all(|w| !w.is_empty()), "the first three windows hold blocks");
        let covered = |w: &[Interval]| w.iter().map(|iv| iv.len).sum::<u64>();
        assert!(covered(&got[0]) >= 25_000 && covered(&got[1]) >= 123_457);
        assert!(covered(&got[2]) <= 40_000, "the trace end cuts the third window short");
        assert!(got[3].is_empty(), "a window beyond the trace end is empty");
    }

    /// Regression: a re-sampled window holding *exactly two* fine
    /// intervals must still exclude the transition-carrying first
    /// interval from classification — the phase representative is the
    /// steady-state second interval, never the window start. (The
    /// exclusion used to require three or more intervals, letting the
    /// two-interval window select its own inter-phase transition.)
    #[test]
    fn two_interval_window_excludes_transition() {
        let spec = BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 30_000); 6],
            ..BenchmarkSpec::default()
        };
        let cb = CompiledBenchmark::compile(&spec).unwrap();
        let cfg =
            MultilevelConfig { fine_interval: 20_000, threshold: 0, ..MultilevelConfig::default() };
        let out = multilevel(&cb, &cfg).unwrap();
        assert!(!out.resampled.is_empty(), "threshold 0 must re-sample");
        for r in &out.resampled {
            // Precondition this regression pins: each ~30 k iteration
            // splits into exactly two fine intervals on the 20 k grid.
            assert!(r.coarse_len > cfg.fine_interval, "window of {} too small", r.coarse_len);
            assert!(r.coarse_len < 3 * cfg.fine_interval, "window of {} too big", r.coarse_len);
            for fp in &r.fine.points {
                assert!(fp.start > 0, "transition interval selected at window start");
            }
        }
    }
}
