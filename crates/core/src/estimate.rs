//! Plan execution: fast-forward to each simulation point, simulate it
//! in detail, and combine the weighted per-point metrics into a
//! whole-program estimate.
//!
//! Execution is available serially ([`execute_plan`]) or across a
//! bounded worker pool ([`execute_plan_jobs`]). Both paths produce
//! bit-identical [`ExecutionOutcome`]s: plan points are independent
//! regions of a deterministic trace, and warm microarchitectural state
//! is defined as *functional warming of the whole prefix* — a property
//! each worker can reconstruct on its own from the start of the trace.
//!
//! Ground truth ([`ground_truth`], [`ground_truth_segmented`]) is also
//! available in two steps: [`prepare_ground_truth`] resolves the
//! request on the calling thread (cache lookup, simulator allocation)
//! and [`TruthTask::run`] executes it, on any thread.

use crate::artifact::Artifact;
use crate::cache::{ArtifactCache, CacheKey};
use crate::plan::SimulationPlan;
use mlpa_sim::functional::Warming;
use mlpa_sim::{
    BranchUnit, DetailedSim, FunctionalSim, MachineConfig, MemoryHierarchy, MetricEstimate,
    SimMetrics,
};
use mlpa_workloads::{CompiledBenchmark, WorkloadStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;

/// Microarchitectural-state policy at each simulation point.
///
/// The default is [`WarmupMode::Warmed`]. At this repo's 1000×
/// instruction scale-down the caches keep their Table I sizes, so a
/// cold-started sample pays its compulsory misses over 1000× fewer
/// instructions than the paper's setup — cold-start bias is amplified
/// three orders of magnitude and would swamp every accuracy comparison.
/// Warming restores the paper's regime (where a 10 M-instruction sample
/// amortises cold misses to the ~1 % level). [`WarmupMode::Cold`]
/// remains available; the `ablation_warmup` bench uses it to show the
/// Table II pattern in amplified form — fine-grained sampling degrades
/// drastically without warm state while coarse-grained sampling barely
/// notices, which is exactly why the paper's SimPoint column shows L2
/// deviations up to 23 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum WarmupMode {
    /// Cold caches and predictor at every point — SimpleScalar's raw
    /// `-fastfwd` behaviour.
    Cold,
    /// Functionally warm caches and predictor over each point's entire
    /// prefix (checkpoint/warming methodology). The warm state a point
    /// sees is a pure function of its start offset, so points can be
    /// simulated independently — and therefore in parallel — while
    /// staying bit-identical to serial execution.
    #[default]
    Warmed,
}

/// What executing a plan cost, in actually-executed instructions.
///
/// Parallel execution reports the *serial-equivalent* accounting (the
/// gaps between consecutive points), not the per-worker prefix replays,
/// so outcomes compare across job counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecutionCost {
    /// Instructions fast-forwarded functionally.
    pub functional_insts: u64,
    /// Instructions simulated in detail.
    pub detailed_insts: u64,
}

/// Result of executing a plan.
#[derive(Debug, Clone, PartialEq)]
pub struct ExecutionOutcome {
    /// The whole-program estimate (weighted combination).
    pub estimate: MetricEstimate,
    /// Per-point raw metrics, in plan order.
    pub per_point: Vec<SimMetrics>,
    /// Cost accounting.
    pub cost: ExecutionCost,
}

/// Execute `plan` on `config` serially, producing the sampled estimate.
///
/// With [`WarmupMode::Cold`] every point starts from a cold simulator
/// (separate `sim-outorder -fastfwd` invocations, as the paper's
/// baseline); with [`WarmupMode::Warmed`] the caches and predictor are
/// functionally warmed over each point's prefix before detailed
/// simulation begins.
///
/// Equivalent to [`execute_plan_jobs`] with `jobs = 1`.
///
/// # Example
///
/// ```
/// use mlpa_core::estimate::{execute_plan, WarmupMode};
/// use mlpa_core::plan::{PlanPoint, SimulationPlan};
/// use mlpa_sim::MachineConfig;
/// use mlpa_workloads::{spec::BenchmarkSpec, CompiledBenchmark};
///
/// let cb = CompiledBenchmark::compile(&BenchmarkSpec::default())?;
/// let plan = SimulationPlan::new(
///     vec![PlanPoint { start: 0, len: 20_000, weight: 1.0 }],
///     500_000,
/// )?;
/// let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
/// assert!(out.estimate.cpi > 0.0);
/// # Ok::<(), String>(())
/// ```
pub fn execute_plan(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> ExecutionOutcome {
    execute_plan_jobs(cb, config, plan, mode, 1)
}

/// Execute `plan` across up to `jobs` worker threads.
///
/// `jobs = 0` uses every available core, `jobs = 1` runs serially on
/// the calling thread; the pool never exceeds the number of plan
/// points. The outcome — estimate, per-point metrics, and cost — is
/// bit-identical for every job count: each worker rebuilds its point's
/// trace position (and, in [`WarmupMode::Warmed`], its functional warm
/// state) independently from the start of the deterministic trace, and
/// per-point results are recombined in plan order.
///
/// Plan points produced by this repo's selectors start on profiled
/// interval boundaries, which is what makes a point's stream position
/// reconstructible from its start offset alone.
pub fn execute_plan_jobs(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
    jobs: usize,
) -> ExecutionOutcome {
    let _span = mlpa_obs::span("core.plan.execute");
    let workers = effective_jobs(jobs).min(plan.len());
    let raw = if workers <= 1 {
        execute_points_serial(cb, config, plan, mode)
    } else {
        execute_points_parallel(cb, config, plan, mode, workers)
    };
    let out = combine(plan, raw);
    if mlpa_obs::is_enabled() {
        mlpa_obs::add("core.plan.points", plan.len() as u64);
        mlpa_obs::add("core.plan.functional_insts", out.cost.functional_insts);
        mlpa_obs::add("core.plan.detailed_insts", out.cost.detailed_insts);
    }
    out
}

/// Resolve a `jobs` request: `0` means all available cores.
pub fn effective_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    } else {
        jobs
    }
}

/// Per-point raw result: the stream position the detailed region
/// started at, and its metrics.
type PointRun = (u64, SimMetrics);

fn execute_points_serial(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
) -> Vec<PointRun> {
    let mut stream = WorkloadStream::new(cb);
    let mut func = FunctionalSim::new(cb.program());
    let mut runs = Vec::with_capacity(plan.len());
    let mut pos = 0u64;
    // A single-worker guard so serial runs still report utilization.
    let mut worker = mlpa_obs::worker("plan", 0);
    // One job in flight for the whole serial traversal.
    mlpa_obs::gauge_set("core.plan.inflight", 1);

    // Warm mode keeps one continuously-warmed state for the whole
    // traversal; each point receives a snapshot of it.
    let mut warm = matches!(mode, WarmupMode::Warmed)
        .then(|| (MemoryHierarchy::new(config), BranchUnit::new(&config.predictor)));

    for (i, p) in plan.points().iter().enumerate() {
        let _span = mlpa_obs::span_labeled("core.plan.point", &format!("point {i}"));
        let run = worker.busy(|| {
            let skip = p.start.saturating_sub(pos);
            pos += match &mut warm {
                Some((hier, bu)) => {
                    // Functional warming over the gap since the last
                    // point: most of a warmed plan's time.
                    let _span = mlpa_obs::span("core.plan.warm");
                    let warmed = func.fast_forward(
                        &mut stream,
                        skip,
                        &mut (),
                        Warming::Warm,
                        Some((hier, bu)),
                    );
                    mlpa_obs::add("core.plan.warm_insts", warmed);
                    warmed
                }
                None => func.fast_forward(&mut stream, skip, &mut (), Warming::None, None),
            };
            let start_pos = pos;

            let metrics = match &mut warm {
                Some((hier, bu)) => {
                    // The detailed simulator runs on a fork of the stream
                    // with a snapshot of the warm state, while the primary
                    // stream warms functionally *through* the point region —
                    // so the next point's prefix state is a pure functional
                    // warm of [0, start), exactly what a parallel worker
                    // reconstructs.
                    let mut fork = stream.clone();
                    let mut sim = DetailedSim::with_warm_state(
                        *config,
                        cb.program(),
                        hier.clone(),
                        bu.clone(),
                    );
                    let m = sim.simulate(&mut fork, p.len);
                    let advanced = func.fast_forward(
                        &mut stream,
                        m.instructions,
                        &mut (),
                        Warming::Warm,
                        Some((hier, bu)),
                    );
                    debug_assert_eq!(advanced, m.instructions, "fork and primary stream diverged");
                    m
                }
                None => {
                    let mut sim = DetailedSim::new(*config, cb.program());
                    sim.simulate(&mut stream, p.len)
                }
            };
            pos += metrics.instructions;
            (start_pos, metrics)
        });
        runs.push(run);
    }
    mlpa_obs::gauge_set("core.plan.inflight", 0);
    runs
}

fn execute_points_parallel(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
    workers: usize,
) -> Vec<PointRun> {
    let points = plan.points();
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, Result<PointRun, String>)>();

    std::thread::scope(|s| {
        for w in 0..workers {
            let tx = tx.clone();
            let next = &next;
            s.spawn(move || {
                let mut guard = mlpa_obs::worker("plan", w);
                // Claim points dynamically: early points have short
                // prefixes, late points long ones, so static chunking
                // would load-imbalance badly.
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(p) = points.get(i) else { break };
                    let span = mlpa_obs::span_labeled("core.plan.point", &format!("point {i}"));
                    let span_id = span.id();
                    // Single atomic op on the gauge itself: a separate
                    // counter plus gauge_set can interleave so a stale
                    // larger value is stored last and the level sticks
                    // nonzero after the parallel section drains.
                    mlpa_obs::gauge_add("core.plan.inflight", 1);
                    // A panicking job must not be swallowed into the
                    // joined results: capture the payload and report it
                    // with the job's identity attached.
                    let run = guard.busy(|| {
                        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                            simulate_point_standalone(cb, config, p.start, p.len, mode)
                        }))
                    });
                    mlpa_obs::gauge_add("core.plan.inflight", -1);
                    drop(span);
                    let run = run.map_err(|payload| {
                        // `&*payload`, not `&payload`: a `Box<dyn Any>`
                        // is itself `Any`, so the un-derefed reference
                        // would downcast against the box, never the
                        // payload inside it.
                        let msg = panic_message(&*payload);
                        if span_id != 0 {
                            format!("{msg} [obs span {span_id}]")
                        } else {
                            msg
                        }
                    });
                    if tx.send((i, run)).is_err() {
                        break;
                    }
                }
            });
        }
        drop(tx);

        let mut runs: Vec<Option<PointRun>> = vec![None; points.len()];
        let mut failure: Option<(usize, String)> = None;
        for (i, run) in rx {
            match run {
                Ok(r) => runs[i] = Some(r),
                // Report the lowest-index failure so the error is
                // deterministic regardless of worker interleaving.
                Err(msg) => {
                    if failure.as_ref().is_none_or(|(j, _)| i < *j) {
                        failure = Some((i, msg));
                    }
                }
            }
        }
        if let Some((i, msg)) = failure {
            let p = &points[i];
            panic!("plan point {i} (start={}, len={}) panicked: {msg}", p.start, p.len);
        }
        runs.into_iter().map(|r| r.expect("worker pool completed every claimed point")).collect()
    })
}

/// Render a `catch_unwind` payload (the common `&str`/`String` cases).
///
/// Shared by every worker pool that must attach a job label to a
/// propagated panic (plan execution here, the experiment suite in
/// `mlpa-bench`). Pass `&*payload`, not `&payload`: a `Box<dyn Any>` is
/// itself `Any`.
pub fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Simulate one plan point from a cold start of the trace: fast-forward
/// (warming if requested) over the prefix, then run the detailed region.
fn simulate_point_standalone(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    start: u64,
    len: u64,
    mode: WarmupMode,
) -> PointRun {
    let mut stream = WorkloadStream::new(cb);
    let mut func = FunctionalSim::new(cb.program());
    match mode {
        WarmupMode::Cold => {
            let prefix = func.fast_forward(&mut stream, start, &mut (), Warming::None, None);
            let mut sim = DetailedSim::new(*config, cb.program());
            (prefix, sim.simulate(&mut stream, len))
        }
        WarmupMode::Warmed => {
            let mut hier = MemoryHierarchy::new(config);
            let mut bu = BranchUnit::new(&config.predictor);
            // Same span and work counter as the serial path's warming,
            // so a pooled run's warming is attributed too.
            let prefix = {
                let _span = mlpa_obs::span("core.plan.warm");
                func.fast_forward(
                    &mut stream,
                    start,
                    &mut (),
                    Warming::Warm,
                    Some((&mut hier, &mut bu)),
                )
            };
            mlpa_obs::add("core.plan.warm_insts", prefix);
            let mut sim = DetailedSim::with_warm_state(*config, cb.program(), hier, bu);
            (prefix, sim.simulate(&mut stream, len))
        }
    }
}

/// Fold per-point runs into the outcome, reconstructing the
/// serial-equivalent cost accounting from the recorded positions.
fn combine(plan: &SimulationPlan, runs: Vec<PointRun>) -> ExecutionOutcome {
    let mut cost = ExecutionCost::default();
    let mut end_of_prev = 0u64;
    let mut per_point = Vec::with_capacity(runs.len());
    for (start_pos, m) in runs {
        cost.functional_insts += start_pos.saturating_sub(end_of_prev);
        cost.detailed_insts += m.instructions;
        end_of_prev = start_pos + m.instructions;
        per_point.push(m);
    }
    let estimate = SimMetrics::weighted_estimate(
        plan.points().iter().zip(&per_point).map(|(p, m)| (p.weight, *m)),
    );
    ExecutionOutcome { estimate, per_point, cost }
}

/// Simulate the entire benchmark in detail — the ground truth the
/// paper's Table II deviations are measured against.
pub fn ground_truth(cb: &CompiledBenchmark, config: &MachineConfig) -> SimMetrics {
    prepare_ground_truth(None, cb, config).run()
}

/// Ground truth measured in segments: one persistent-state detailed
/// pass over the trace, slicing the *statistics* at the cumulative
/// boundaries of `lens`. Microarchitectural state persists across
/// `simulate` calls while statistics reset, and cycles are counted as
/// commit-cycle deltas, so the per-segment metrics sum exactly to the
/// single-pass [`ground_truth`] totals — accuracy attribution gets the
/// per-interval truth without paying a second full pass.
///
/// Each segment runs to the cumulative target, so a segment that
/// overshoots its boundary (blocks are atomic) shortens the next one
/// rather than letting drift accumulate. Segments whose target was
/// already covered, or that start past the end of the trace, come back
/// empty. Instructions past the last boundary are not simulated.
pub fn ground_truth_segmented(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
) -> Vec<SimMetrics> {
    prepare_ground_truth_segmented(None, cb, config, lens).run()
}

/// [`ground_truth`] behind the artifact cache: reuse a stored result
/// when the cache holds one, simulate (and store) otherwise. With
/// `cache = None` this is exactly [`ground_truth`].
pub fn ground_truth_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
) -> SimMetrics {
    prepare_ground_truth(cache, cb, config).run()
}

/// [`ground_truth_segmented`] behind the artifact cache. The segment
/// boundaries are part of the key, so the same benchmark measured with
/// different `lens` gets distinct entries.
pub fn ground_truth_segmented_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
) -> Vec<SimMetrics> {
    prepare_ground_truth_segmented(cache, cb, config, lens).run()
}

/// Resolve a [`ground_truth_cached`] request on the calling thread:
/// look the result up, and on a miss build the detailed pass that
/// [`TruthTask::run`] will execute, possibly on another thread.
///
/// # Panics
///
/// Panics if `config` is invalid (see [`MachineConfig::validate`]) and
/// the cache does not hold the result.
pub fn prepare_ground_truth<'a>(
    cache: Option<&'a ArtifactCache>,
    cb: &'a CompiledBenchmark,
    config: &MachineConfig,
) -> TruthTask<'a, SimMetrics> {
    let key = cache.map(|_| CacheKey::new().field("spec", cb.spec()).field("config", config));
    // The whole trace is one segment with an unbounded target.
    TruthTask::resolve(cache, key, cb, config, vec![u64::MAX], "core.truth.full", |mut segs| {
        segs.pop().expect("one segment")
    })
}

/// Resolve a [`ground_truth_segmented_cached`] request on the calling
/// thread; see [`prepare_ground_truth`].
///
/// # Panics
///
/// Panics if `config` is invalid and the cache does not hold the
/// result.
pub fn prepare_ground_truth_segmented<'a>(
    cache: Option<&'a ArtifactCache>,
    cb: &'a CompiledBenchmark,
    config: &MachineConfig,
    lens: &[u64],
) -> TruthTask<'a, Vec<SimMetrics>> {
    let key = cache.map(|_| {
        CacheKey::new().field("spec", cb.spec()).field("config", config).field("lens", &lens)
    });
    TruthTask::resolve(cache, key, cb, config, lens.to_vec(), "core.truth.segmented", |segs| segs)
}

/// A ground-truth request resolved on the thread that made it: either
/// the result the artifact cache already held, or a detailed pass that
/// is built and ready to run.
///
/// The split lets a caller hand the expensive part to a helper thread
/// while every large allocation stays its own. The simulator's cache
/// arrays (about a megabyte for a 2 MB L2) are allocated when the task
/// is prepared, so they come from — and are freed back to — the
/// caller's malloc arena. glibc keeps a thread's own arena, so a pass
/// built on the helper would leave that memory resident there, beside
/// the caller's, once freed.
pub struct TruthTask<'a, T> {
    state: TruthState<'a, T>,
}

enum TruthState<'a, T> {
    Stored(T),
    Pass(Box<TruthPass<'a, T>>),
}

/// A built detailed pass: simulator and stream at the start of the
/// trace, the segment lengths to slice its statistics at, and where to
/// store the result.
struct TruthPass<'a, T> {
    sim: DetailedSim<'a>,
    stream: WorkloadStream<'a>,
    lens: Vec<u64>,
    span: &'static str,
    finish: fn(Vec<SimMetrics>) -> T,
    store: Option<(&'a ArtifactCache, CacheKey)>,
}

impl<'a, T: Artifact> TruthTask<'a, T> {
    fn resolve(
        cache: Option<&'a ArtifactCache>,
        key: Option<CacheKey>,
        cb: &'a CompiledBenchmark,
        config: &MachineConfig,
        lens: Vec<u64>,
        span: &'static str,
        finish: fn(Vec<SimMetrics>) -> T,
    ) -> TruthTask<'a, T> {
        let store = cache.zip(key);
        if let Some((c, k)) = &store {
            if let Some(stored) = c.get::<T>(k) {
                return TruthTask { state: TruthState::Stored(stored) };
            }
        }
        let sim = DetailedSim::new(*config, cb.program());
        let stream = WorkloadStream::new(cb);
        let pass = TruthPass { sim, stream, lens, span, finish, store };
        TruthTask { state: TruthState::Pass(Box::new(pass)) }
    }

    /// The result: the stored one, or the pass's (then stored).
    pub fn run(self) -> T {
        match self.state {
            TruthState::Stored(stored) => stored,
            TruthState::Pass(pass) => pass.run(),
        }
    }
}

impl<T: Artifact> TruthPass<'_, T> {
    fn run(mut self: Box<Self>) -> T {
        let result = {
            let _span = mlpa_obs::span(self.span);
            mlpa_obs::add("core.truth.passes", 1);
            let mut pos = 0u64;
            let mut target = 0u64;
            let mut segments = Vec::with_capacity(self.lens.len());
            for &len in &self.lens {
                target = target.saturating_add(len);
                let m = self.sim.simulate(&mut self.stream, target.saturating_sub(pos));
                pos += m.instructions;
                segments.push(m);
            }
            (self.finish)(segments)
        };
        if let Some((c, k)) = &self.store {
            c.put(k, &result);
        }
        result
    }
}

/// [`execute_plan_jobs`] behind the artifact cache. The key covers the
/// benchmark, machine config, warmup mode, and the full plan contents;
/// `jobs` is deliberately excluded because execution is bit-identical
/// across worker counts (see [`execute_plan_jobs`]).
pub fn execute_plan_cached(
    cache: Option<&ArtifactCache>,
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
    jobs: usize,
) -> ExecutionOutcome {
    let key = cache.map(|_| {
        CacheKey::new()
            .field("spec", cb.spec())
            .field("config", config)
            .field("mode", &mode)
            .field("plan", plan)
    });
    if let (Some(c), Some(k)) = (cache, &key) {
        if let Some(out) = c.get::<ExecutionOutcome>(k) {
            return out;
        }
    }
    let out = execute_plan_jobs(cb, config, plan, mode, jobs);
    if let (Some(c), Some(k)) = (cache, &key) {
        c.put(k, &out);
    }
    out
}

/// Execute a plan that did not come from profiling this benchmark in
/// this process — e.g. one loaded via [`crate::files::load`] — after
/// verifying it actually belongs to this trace.
///
/// A plan file records only its `total=` instruction count, so nothing
/// stops it from being replayed against a benchmark whose trace length
/// differs; the weights would then silently misrepresent the program
/// and produce wrong-but-plausible metrics. This entry point measures
/// the stream's real length (one metadata walk — control-flow draws
/// only, no instruction materialisation, see
/// [`crate::pipeline::trace_insts`]) and refuses to execute on a
/// mismatch.
///
/// # Errors
///
/// Returns an error naming both lengths when `plan.total_insts()` does
/// not equal the benchmark's trace length.
pub fn execute_plan_checked(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    plan: &SimulationPlan,
    mode: WarmupMode,
    jobs: usize,
) -> Result<ExecutionOutcome, String> {
    let actual = crate::pipeline::trace_insts(cb);
    if plan.total_insts() != actual {
        return Err(format!(
            "plan/trace mismatch: plan covers total={} instructions but benchmark {} \
             generates {actual}; this plan belongs to a different benchmark or scale",
            plan.total_insts(),
            cb.spec().name,
        ));
    }
    Ok(execute_plan_jobs(cb, config, plan, mode, jobs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::PlanPoint;
    use mlpa_workloads::spec::{BenchmarkSpec, ScriptEntry};

    fn cb() -> CompiledBenchmark {
        // A working set with genuine L2 traffic so the L2 metrics are
        // informative.
        use mlpa_workloads::behavior::{InstMix, MemoryPattern};
        use mlpa_workloads::spec::{BlockSpec, PhaseSpec};
        CompiledBenchmark::compile(&BenchmarkSpec {
            phases: vec![PhaseSpec {
                blocks: vec![
                    BlockSpec {
                        mix: InstMix { load: 0.35, store: 0.1, ..InstMix::default() },
                        mem: MemoryPattern::RandomInSet { working_set: 128 * 1024 },
                        ..BlockSpec::default()
                    },
                    BlockSpec::default(),
                ],
                ..PhaseSpec::default()
            }],
            script: vec![ScriptEntry::new(0, 60_000); 5],
            ..BenchmarkSpec::default()
        })
        .unwrap()
    }

    /// Like [`cb`] but ~6× longer, so whole-run truth is dominated by
    /// steady state rather than the warmup ramp.
    fn long_cb() -> CompiledBenchmark {
        let short = cb();
        CompiledBenchmark::compile(&BenchmarkSpec {
            script: vec![ScriptEntry::new(0, 60_000); 30],
            ..short.spec().clone()
        })
        .unwrap()
    }

    fn plan_of(cb: &CompiledBenchmark, frac: &[(f64, f64, f64)]) -> SimulationPlan {
        // (start_frac, len_frac, weight) over the actual trace length.
        let total = ground_truth_len(cb);
        SimulationPlan::new(
            frac.iter()
                .map(|&(s, l, w)| PlanPoint {
                    start: (total as f64 * s) as u64,
                    len: ((total as f64 * l) as u64).max(1_000),
                    weight: w,
                })
                .collect(),
            total,
        )
        .unwrap()
    }

    fn ground_truth_len(cb: &CompiledBenchmark) -> u64 {
        let mut f = FunctionalSim::new(cb.program());
        f.run(WorkloadStream::new(cb), &mut ()).instructions
    }

    /// Regression (plan/trace mismatch): a plan saved from one
    /// benchmark and loaded via `files::load` carries only `total=` in
    /// its header, so nothing used to stop it from executing against a
    /// benchmark whose trace length differs — silently misweighted,
    /// wrong-but-plausible metrics. The checked entry point must refuse
    /// the pair and accept the matching one.
    #[test]
    fn checked_execution_rejects_plan_from_different_benchmark() {
        let short = cb();
        let long = long_cb();
        let plan = plan_of(&short, &[(0.1, 0.05, 0.5), (0.6, 0.05, 0.5)]);

        // Round-trip through the on-disk format, as a real cross-run
        // reuse would.
        let dir = std::env::temp_dir().join("mlpa-checked-exec-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("plan.txt");
        crate::files::save(&plan, &path).unwrap();
        let loaded = crate::files::load(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let config = MachineConfig::table1_base();
        let err = execute_plan_checked(&long, &config, &loaded, WarmupMode::Warmed, 1)
            .expect_err("mismatched plan accepted");
        assert!(err.contains("mismatch"), "unclear error: {err}");
        assert!(
            err.contains(&loaded.total_insts().to_string()),
            "error must name the plan total: {err}"
        );

        // The matching benchmark executes and agrees with the unchecked
        // path exactly.
        let checked = execute_plan_checked(&short, &config, &loaded, WarmupMode::Warmed, 1)
            .expect("matching plan rejected");
        let unchecked = execute_plan(&short, &config, &loaded, WarmupMode::Warmed);
        assert_eq!(checked, unchecked);
    }

    /// The cached execution wrappers are exact: a warm lookup returns
    /// bit-identical results to the computation that stored it, and
    /// `cache = None` degrades to the plain paths.
    #[test]
    fn cached_wrappers_roundtrip_exactly() {
        let bench = cb();
        let config = MachineConfig::table1_base();
        let plan = plan_of(&bench, &[(0.1, 0.05, 0.5), (0.6, 0.05, 0.5)]);
        let root =
            std::env::temp_dir().join(format!("mlpa-estimate-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = crate::cache::ArtifactCache::open(&root).unwrap();
        let c = Some(&cache);

        let truth_cold = ground_truth_cached(c, &bench, &config);
        let truth_warm = ground_truth_cached(c, &bench, &config);
        assert_eq!(truth_cold, truth_warm);
        assert_eq!(truth_cold, ground_truth_cached(None, &bench, &config));

        let lens = [100_000u64, 100_000, 100_000];
        let seg_cold = ground_truth_segmented_cached(c, &bench, &config, &lens);
        let seg_warm = ground_truth_segmented_cached(c, &bench, &config, &lens);
        assert_eq!(seg_cold, seg_warm);

        let exec_cold = execute_plan_cached(c, &bench, &config, &plan, WarmupMode::Warmed, 1);
        let exec_warm = execute_plan_cached(c, &bench, &config, &plan, WarmupMode::Warmed, 1);
        assert_eq!(exec_cold, exec_warm);
        assert_eq!(exec_cold, execute_plan(&bench, &config, &plan, WarmupMode::Warmed));

        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn cost_matches_plan_accounting() {
        let cb = cb();
        let plan = plan_of(&cb, &[(0.1, 0.05, 0.5), (0.5, 0.05, 0.5)]);
        let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
        // Executed counts match the plan's theoretical accounting up to
        // block-boundary overshoot.
        let tol = 500;
        assert!(
            out.cost.detailed_insts.abs_diff(plan.detailed_insts()) < tol,
            "detailed {} vs plan {}",
            out.cost.detailed_insts,
            plan.detailed_insts()
        );
        assert!(
            out.cost.functional_insts.abs_diff(plan.functional_insts()) < tol,
            "functional {} vs plan {}",
            out.cost.functional_insts,
            plan.functional_insts()
        );
        assert_eq!(out.per_point.len(), 2);
    }

    #[test]
    fn single_phase_estimate_tracks_ground_truth() {
        // One phase, homogeneous behaviour: a single decent-sized warmed
        // sample should estimate CPI within a few percent. The benchmark
        // must be long enough that the initial cache-warmup ramp (which
        // a mid-run sample deliberately excludes) is a small share of
        // the whole-run truth.
        let cb = long_cb();
        let truth = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        let plan = plan_of(&cb, &[(0.3, 0.2, 1.0)]);
        let out = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed);
        let dev = out.estimate.deviation_from(&truth);
        assert!(dev.cpi < 0.10, "CPI deviation {:.3}", dev.cpi);
        assert!(dev.l1_hit_rate < 0.05, "L1 deviation {:.3}", dev.l1_hit_rate);
    }

    #[test]
    fn warming_reduces_cold_start_bias_on_tiny_points() {
        let cb = cb();
        let truth = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        // Many tiny points: cold-start bias should be visible.
        let total = ground_truth_len(&cb);
        let tiny: Vec<PlanPoint> = (0..8)
            .map(|i| PlanPoint { start: total / 10 * (i + 1), len: 2_000, weight: 0.125 })
            .collect();
        let plan = SimulationPlan::new(tiny, total).unwrap();
        let cold = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Cold);
        let warm = execute_plan(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed);
        let cold_dev = cold.estimate.deviation_from(&truth);
        let warm_dev = warm.estimate.deviation_from(&truth);
        assert!(
            warm_dev.cpi <= cold_dev.cpi + 0.01,
            "warming should not hurt: cold {:.3} warm {:.3}",
            cold_dev.cpi,
            warm_dev.cpi
        );
        assert!(
            warm_dev.l2_hit_rate <= cold_dev.l2_hit_rate + 0.01,
            "L2: cold {:.3} warm {:.3}",
            cold_dev.l2_hit_rate,
            warm_dev.l2_hit_rate
        );
    }

    /// The segmented pass is an exact refinement of the single-pass
    /// truth: summing every per-segment statistic telescopes to the
    /// whole-run result, field for field.
    #[test]
    fn segmented_truth_telescopes_to_ground_truth() {
        let cb = cb();
        let config = MachineConfig::table1_base();
        let whole = ground_truth(&cb, &config);
        let total = ground_truth_len(&cb);
        // Uneven segments plus a catch-all tail past the trace end.
        let lens = [total / 7, total / 3, total / 5, u64::MAX];
        let segs = ground_truth_segmented(&cb, &config, &lens);
        assert_eq!(segs.len(), lens.len());
        let mut sum = SimMetrics::default();
        for s in &segs {
            sum += *s;
        }
        assert_eq!(sum, whole, "segment sums must telescope exactly");
        // Each bounded segment landed at (or just past) its target.
        assert!(segs[0].instructions >= lens[0]);
    }

    /// Segments whose cumulative target is already covered (zero
    /// length, or a trace that ended early) come back empty rather
    /// than stealing instructions from their successors.
    #[test]
    fn segmented_truth_handles_empty_segments() {
        let cb = cb();
        let config = MachineConfig::table1_base();
        let total = ground_truth_len(&cb);
        let segs = ground_truth_segmented(&cb, &config, &[total / 2, 0, u64::MAX, 1_000]);
        assert_eq!(segs[1], SimMetrics::default(), "zero-length segment is empty");
        assert_eq!(segs[3], SimMetrics::default(), "past-the-end segment is empty");
        let sum: u64 = segs.iter().map(|s| s.instructions).sum();
        assert_eq!(sum, ground_truth(&cb, &config).instructions);
    }

    #[test]
    fn ground_truth_is_deterministic() {
        let cb = cb();
        let a = ground_truth(&cb, &MachineConfig::table1_base());
        let b = ground_truth(&cb, &MachineConfig::table1_base());
        assert_eq!(a, b);
    }

    #[test]
    fn parallel_matches_serial_cold_and_warm() {
        let cb = cb();
        let plan = plan_of(
            &cb,
            &[(0.05, 0.03, 0.2), (0.2, 0.04, 0.2), (0.45, 0.03, 0.3), (0.7, 0.05, 0.3)],
        );
        for mode in [WarmupMode::Cold, WarmupMode::Warmed] {
            let serial = execute_plan_jobs(&cb, &MachineConfig::table1_base(), &plan, mode, 1);
            for jobs in [2, 4, 0] {
                let par = execute_plan_jobs(&cb, &MachineConfig::table1_base(), &plan, mode, jobs);
                assert_eq!(serial, par, "jobs={jobs} mode={mode:?} diverged from serial");
            }
        }
    }

    /// The pooled path's standalone points warm their whole prefix, and
    /// that warming is counted like the serial path's.
    #[test]
    fn pooled_warming_is_counted() {
        let _lock = crate::testobs::counter_lock();
        let cb = cb();
        let plan = plan_of(
            &cb,
            &[(0.05, 0.03, 0.2), (0.2, 0.04, 0.2), (0.45, 0.03, 0.3), (0.7, 0.05, 0.3)],
        );
        let starts: u64 = plan.points().iter().map(|p| p.start).sum();
        let before = mlpa_obs::counter_value("core.plan.warm_insts");
        execute_plan_jobs(&cb, &MachineConfig::table1_base(), &plan, WarmupMode::Warmed, 4);
        let warmed = mlpa_obs::counter_value("core.plan.warm_insts") - before;
        assert!(warmed >= starts, "warmed {warmed} instructions, points start at {starts} total");
    }

    #[test]
    fn effective_jobs_resolves_zero_to_cores() {
        assert!(effective_jobs(0) >= 1);
        assert_eq!(effective_jobs(3), 3);
    }

    /// Regression: worker panics used to be swallowed into the joined
    /// results (the collector just hit its `expect` on a `None` slot,
    /// losing the payload). They must surface with the failing point's
    /// label and the original message attached.
    #[test]
    #[should_panic(expected = "plan point 0")]
    fn worker_panics_propagate_with_point_label() {
        let cb = cb();
        let plan = plan_of(&cb, &[(0.1, 0.03, 0.5), (0.5, 0.03, 0.5)]);
        let mut bad = MachineConfig::table1_base();
        bad.width = 0; // DetailedSim::new panics: "invalid machine config"
        let _ = execute_plan_jobs(&cb, &bad, &plan, WarmupMode::Cold, 2);
    }

    /// The propagated message keeps the worker's original panic text.
    #[test]
    fn worker_panic_message_includes_payload() {
        let cb = cb();
        let plan = plan_of(&cb, &[(0.1, 0.03, 0.5), (0.5, 0.03, 0.5)]);
        let mut bad = MachineConfig::table1_base();
        bad.width = 0;
        let err = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            execute_plan_jobs(&cb, &bad, &plan, WarmupMode::Cold, 2)
        }))
        .expect_err("invalid config must panic");
        let msg = panic_message(&*err);
        assert!(msg.contains("plan point 0"), "missing point label: {msg}");
        assert!(msg.contains("invalid machine config"), "missing payload: {msg}");
    }
}
