//! COASTS — COarse-grained Accurately Sampling Technique for Simulators
//! (the paper's first-level sampling, §IV-A).
//!
//! Three steps, exactly as the paper describes:
//!
//! 1. **Boundary collection** — profile the trace's cyclic structures
//!    dynamically and discard those covering < 1 % of execution;
//! 2. **Metrics collection** — slice the trace into variable-length
//!    intervals at the iterations of the selected *outermost* structure
//!    and collect a 15-dimensional projected, normalised BBV per
//!    iteration instance;
//! 3. **Coarse sampling** — k-means the signatures (`Kmax = 3` by
//!    default) and pick the **earliest** instance of each coarse phase
//!    as its simulation point.
//!
//! Picking earliest instances is what collapses functional fast-forward
//! time: the last coarse point sits at ~17 % of the run on average
//! (paper §III-B), versus ~94 % for fine-grained SimPoint.

use crate::cache::CacheKey;
use crate::pipeline::{ProfilingContext, ProjectionSettings, FINE_INTERVAL};
use crate::plan::SimulationPlan;
use mlpa_phase::interval::Interval;
use mlpa_phase::loops::LoopProfile;
use mlpa_phase::simpoint::{select, SimPointConfig, SimPoints};
use mlpa_workloads::CompiledBenchmark;

/// COASTS parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoastsConfig {
    /// Minimum coverage for a cyclic structure to be considered (the
    /// paper discards < 1 %).
    pub min_coverage: f64,
    /// Clustering/selection parameters (defaults: `Kmax = 3`,
    /// earliest-instance selection).
    pub selection: SimPointConfig,
    /// Projection settings.
    pub projection: ProjectionSettings,
}

impl Default for CoastsConfig {
    fn default() -> Self {
        CoastsConfig {
            min_coverage: 0.01,
            selection: SimPointConfig::coasts(),
            projection: ProjectionSettings::default(),
        }
    }
}

/// Everything COASTS produces for one benchmark.
#[derive(Debug, Clone, PartialEq)]
pub struct CoastsOutcome {
    /// The executable coarse plan.
    pub plan: SimulationPlan,
    /// The raw coarse selection.
    pub simpoints: SimPoints,
    /// The coarse iteration intervals (kept for re-sampling and
    /// Fig.-1-style visualisation).
    pub intervals: Vec<Interval>,
    /// The loop profile of pass 1.
    pub profile: LoopProfile,
    /// Header block of the selected outermost structure.
    pub header: mlpa_isa::BlockId,
    /// Index in `intervals` of the first *classified* interval: the
    /// slice `simpoints.assignments` indexes is
    /// `intervals[body_start .. body_start + assignments.len()]` (the
    /// prologue/epilogue exclusion documented on the classification
    /// body). Accuracy attribution uses this to align cluster
    /// assignments with the full interval list.
    pub body_start: usize,
}

/// Run COASTS on a compiled benchmark.
///
/// # Errors
///
/// Returns an error if no cyclic structure clears `min_coverage` (a
/// straight-line program — not meaningful to sample coarsely) or the
/// trace is empty.
///
/// # Example
///
/// ```
/// use mlpa_core::coasts::{coasts, CoastsConfig};
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let out = coasts(&cb, &CoastsConfig::default())?;
/// assert!(out.plan.len() <= 3, "Kmax = 3 coarse phases");
/// # Ok::<(), String>(())
/// ```
pub fn coasts(cb: &CompiledBenchmark, cfg: &CoastsConfig) -> Result<CoastsOutcome, String> {
    let mut ctx = ProfilingContext::new(cb, cfg.projection, FINE_INTERVAL);
    coasts_with(&mut ctx, cfg)
}

/// [`coasts`] on a shared [`ProfilingContext`]: reuses the context's
/// loop profile and boundary intervals (populating them if absent), so
/// a harness that also runs the fine baseline and multi-level sampling
/// streams the trace once per *kind* of information rather than once
/// per method. The context's projection is used for the signatures
/// (its settings come from the same [`CoastsConfig::projection`] in
/// every in-repo caller), and it is part of the cached outcome's key.
///
/// # Errors
///
/// Same failure modes as [`coasts`].
pub fn coasts_with(
    ctx: &mut ProfilingContext<'_>,
    cfg: &CoastsConfig,
) -> Result<CoastsOutcome, String> {
    let _span = mlpa_obs::span("core.select.coasts");
    let cb = ctx.benchmark();
    let cache = ctx.cache();
    // The signatures come from the context's projection, so its
    // settings are part of the outcome's identity.
    let key = cache.as_ref().map(|_| {
        CacheKey::new()
            .field("spec", cb.spec())
            .field("projection", &ctx.settings())
            .field("coasts", cfg)
    });
    if let (Some(c), Some(k)) = (&cache, &key) {
        if let Some(out) = c.get::<CoastsOutcome>(k) {
            return Ok(out);
        }
    }
    // Pass 1: boundary information.
    let profile = ctx.loop_profile().clone();
    let header = profile
        .select_outermost(cfg.min_coverage)
        .ok_or_else(|| {
            format!(
                "benchmark {}: no cyclic structure covers >= {:.0}% of execution",
                cb.spec().name,
                cfg.min_coverage * 100.0
            )
        })?
        .header;

    // Pass 2: metrics information per iteration instance.
    let (intervals, has_prologue) = ctx.boundary_intervals(header);
    if intervals.is_empty() {
        return Err(format!("benchmark {} produced an empty trace", cb.spec().name));
    }

    mlpa_obs::add("core.profile.coarse_intervals", intervals.len() as u64);
    let (body_start, body) = classification_body(intervals, has_prologue);
    // `select` copies the signatures into contiguous row-major storage
    // and clusters with the pruned k-means (see DESIGN.md, "Kernel
    // layout").
    let simpoints = select(body, &cfg.selection);
    let total_insts: u64 = intervals.iter().map(|iv| iv.len).sum();
    let points = simpoints
        .points
        .iter()
        .map(|p| crate::plan::PlanPoint { start: p.start, len: p.len, weight: p.weight })
        .collect();
    let plan = SimulationPlan::new(points, total_insts)?;
    let intervals = intervals.to_vec();
    let out = CoastsOutcome { plan, simpoints, intervals, profile, header, body_start };
    if let (Some(c), Some(k)) = (&cache, &key) {
        c.put(k, &out);
    }
    Ok(out)
}

/// Coarse-grained sampling classifies *iteration instances only*: the
/// prologue (code before the loop is first entered) is not an iteration
/// of the cyclic structure, and the final interval absorbs the
/// program's epilogue (there is no header entry after it), so neither
/// is a pure iteration instance. Both are excluded from classification —
/// they must neither be selected as representatives nor counted in
/// phase weights; their few instructions are simply fast-forwarded (or
/// never reached), as in the paper.
///
/// Degenerate traces cannot honour both exclusions and still leave
/// something to classify, so the rule is applied best-effort, never
/// returning an empty body:
///
/// * one interval — it is prologue, iterations, and epilogue at once;
///   classify it as-is;
/// * two intervals without a prologue — the first is a pure iteration;
///   only the epilogue-absorbing final interval is dropped;
/// * two intervals with a prologue — the prologue is dropped and the
///   final interval (the loop's only iteration instance, epilogue
///   included) is kept: a partial iteration beats non-loop code as the
///   phase representative.
fn classification_body(intervals: &[Interval], has_prologue: bool) -> (usize, &[Interval]) {
    let start = usize::from(has_prologue && intervals.len() > 1);
    let after_prologue = &intervals[start..];
    if after_prologue.len() > 1 {
        (start, &after_prologue[..after_prologue.len() - 1])
    } else {
        (start, after_prologue)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};

    fn multi_phase_cb(phases: usize, iters: usize) -> CompiledBenchmark {
        let spec = BenchmarkSpec {
            phases: (0..phases)
                .map(|i| PhaseSpec { name: format!("p{i}"), ..PhaseSpec::default() })
                .collect(),
            script: (0..iters).map(|i| ScriptEntry::new(i % phases, 60_000)).collect(),
            ..BenchmarkSpec::default()
        };
        CompiledBenchmark::compile(&spec).unwrap()
    }

    #[test]
    fn selects_earliest_instances() {
        let cb = multi_phase_cb(2, 10);
        let out = coasts(&cb, &CoastsConfig::default()).unwrap();
        // Earliest instances of both phases are within the first few
        // intervals, so the last point sits very early.
        assert!(
            out.plan.last_position() < 0.45,
            "last coarse point at {:.2}",
            out.plan.last_position()
        );
        assert!(out.plan.len() <= 3);
        assert_eq!(out.header, cb.outer_header());
    }

    #[test]
    fn coarse_points_are_iteration_sized() {
        let cb = multi_phase_cb(2, 10);
        let out = coasts(&cb, &CoastsConfig::default()).unwrap();
        for p in out.plan.points() {
            // Points are whole outer iterations (~60 k) or the prologue.
            assert!(p.len > 500, "point of len {} too small", p.len);
        }
        let mean = out.plan.mean_point_len();
        assert!(mean > 10_000.0, "mean coarse point len {mean}");
    }

    #[test]
    fn functional_fraction_is_small() {
        // With early phase first-occurrences, fast-forward is tiny
        // compared to fine-grained SimPoint's ~94 %.
        let cb = multi_phase_cb(3, 30);
        let out = coasts(&cb, &CoastsConfig::default()).unwrap();
        assert!(
            out.plan.functional_fraction() < 0.30,
            "functional fraction {:.2}",
            out.plan.functional_fraction()
        );
    }

    #[test]
    fn deterministic() {
        let cb = multi_phase_cb(2, 8);
        let cfg = CoastsConfig::default();
        let a = coasts(&cb, &cfg).unwrap();
        let b = coasts(&cb, &cfg).unwrap();
        assert_eq!(a.plan, b.plan);
    }

    #[test]
    fn respects_kmax() {
        let cb = multi_phase_cb(5, 25);
        let mut cfg = CoastsConfig::default();
        cfg.selection.k_max = 2;
        let out = coasts(&cb, &cfg).unwrap();
        assert!(out.plan.len() <= 2);
    }

    #[test]
    fn impossible_coverage_errors() {
        let cb = multi_phase_cb(1, 4);
        let cfg = CoastsConfig { min_coverage: 1.5, ..CoastsConfig::default() };
        let err = coasts(&cb, &cfg).unwrap_err();
        assert!(err.contains("no cyclic structure"), "{err}");
    }

    fn iv(index: usize, start: u64, len: u64) -> Interval {
        Interval { index, start, len, vector: vec![1.0] }
    }

    /// Pins the prologue/epilogue exclusion rule on every degenerate
    /// interval count (the doc comment on [`classification_body`] is
    /// the specification; these are its executable form).
    #[test]
    fn classification_body_edge_cases() {
        let three = [iv(0, 0, 10), iv(1, 10, 20), iv(2, 30, 5)];

        // >= 3 intervals: both exclusions apply (or just the epilogue
        // when there is no prologue).
        assert_eq!(classification_body(&three, true), (1, &three[1..2]));
        assert_eq!(classification_body(&three, false), (0, &three[..2]));

        // Exactly 2 with a prologue: drop the prologue, keep the final
        // interval even though it absorbs the epilogue — a partial
        // iteration beats non-loop code as the representative.
        assert_eq!(classification_body(&three[..2], true), (1, &three[1..2]));
        // Exactly 2 without a prologue: the first is a pure iteration;
        // drop only the epilogue-absorbing final interval.
        assert_eq!(classification_body(&three[..2], false), (0, &three[..1]));

        // A single interval is prologue, body, and epilogue at once:
        // classified as-is regardless of the prologue flag.
        assert_eq!(classification_body(&three[..1], true), (0, &three[..1]));
        assert_eq!(classification_body(&three[..1], false), (0, &three[..1]));
    }

    #[test]
    fn classification_body_never_empty() {
        let mut intervals = Vec::new();
        for n in 1..6 {
            intervals.push(iv(n - 1, (n as u64 - 1) * 10, 10));
            for has_prologue in [false, true] {
                let (start, body) = classification_body(&intervals, has_prologue);
                assert!(!body.is_empty(), "n={n} prologue={has_prologue}");
                // Everything classified is a real interval of the input,
                // and `start` locates the body within it.
                assert!(body.iter().all(|b| intervals.contains(b)));
                assert_eq!(&intervals[start..start + body.len()], body);
            }
        }
    }

    #[test]
    fn intervals_cover_trace() {
        let cb = multi_phase_cb(2, 6);
        let out = coasts(&cb, &CoastsConfig::default()).unwrap();
        mlpa_phase::interval::validate_intervals(&out.intervals).unwrap();
        let total: u64 = out.intervals.iter().map(|iv| iv.len).sum();
        assert_eq!(total, out.plan.total_insts());
    }

    /// `body_start` aligns the assignment vector with the full interval
    /// list: each selected point's interval (a body index) maps back to
    /// a real interval with the point's start offset.
    #[test]
    fn body_start_aligns_assignments_with_intervals() {
        let cb = multi_phase_cb(2, 10);
        let out = coasts(&cb, &CoastsConfig::default()).unwrap();
        let n = out.simpoints.assignments.len();
        assert!(out.body_start + n <= out.intervals.len());
        for p in &out.simpoints.points {
            let iv = &out.intervals[out.body_start + p.interval];
            assert_eq!(iv.start, p.start);
            assert_eq!(iv.len, p.len);
        }
    }
}
