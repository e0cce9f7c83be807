//! The shared experiment driver: runs every sampling method on every
//! benchmark under both Table I configurations, producing the result
//! set all tables and figures are derived from.

use mlpa_core::prelude::*;
use mlpa_core::{
    attribute_segments, execute_plan_cached, prepare_ground_truth, prepare_ground_truth_segmented,
    AccuracyAttribution, CoastsOutcome, ExecutionOutcome, FineOutcome, MultilevelOutcome,
};
use mlpa_sim::{MachineConfig, MetricDeviation, MetricEstimate, SimMetrics};
use mlpa_workloads::{BenchmarkSpec, CompiledBenchmark, Suite};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc;

/// The three methods the paper compares.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// 10 M (scaled 10 k) fixed-interval SimPoint, `Kmax = 30`.
    SimPoint,
    /// Coarse-grained earliest-instance sampling, `Kmax = 3`.
    Coasts,
    /// COASTS + fine re-sampling above the 300 k threshold.
    Multilevel,
}

impl Method {
    /// All methods, baseline first.
    pub const ALL: [Method; 3] = [Method::SimPoint, Method::Coasts, Method::Multilevel];

    /// Display name as used in the paper's tables.
    pub fn name(self) -> &'static str {
        match self {
            Method::SimPoint => "10M SimPoint",
            Method::Coasts => "COASTS",
            Method::Multilevel => "Multi-level Sampling",
        }
    }
}

/// Per-benchmark, per-method outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct MethodResult {
    /// The executable plan.
    pub plan: SimulationPlan,
    /// Estimates under Config A and Config B.
    pub estimates: [MetricEstimate; 2],
    /// Deviations from ground truth under Config A and Config B.
    pub deviations: [MetricDeviation; 2],
    /// Number of simulation points.
    pub points: usize,
    /// Mean point (interval) size in instructions.
    pub mean_interval: f64,
}

/// Everything measured for one benchmark.
#[derive(Debug, Clone)]
pub struct BenchResult {
    /// Benchmark name.
    pub name: String,
    /// Trace length in instructions.
    pub total_insts: u64,
    /// Ground truth under Config A and Config B.
    pub truths: [MetricEstimate; 2],
    /// Results in [`Method::ALL`] order.
    pub methods: [MethodResult; 3],
    /// Number of coarse phases COASTS's BIC sweep settled on.
    pub coarse_k: usize,
    /// Position of the last coarse simulation point.
    pub coarse_last_position: f64,
    /// Fine SimPoint cluster count.
    pub fine_k: usize,
    /// Per-coarse-phase error decomposition of the COASTS estimate
    /// under Config A (the segmented-truth pass that produces it also
    /// supplies `truths[0]`, so attribution costs no extra simulation).
    pub attribution: AccuracyAttribution,
    /// Wall-clock seconds spent on this benchmark.
    pub elapsed: f64,
}

/// Experiment-wide settings.
#[derive(Debug, Clone)]
pub struct Experiment {
    /// Benchmarks to run.
    pub suite: Suite,
    /// Machine configurations (Config A, Config B).
    pub configs: [MachineConfig; 2],
    /// Warm-up policy during fast-forward (default: warmed; see
    /// [`WarmupMode`] docs for the scale argument).
    pub warmup: WarmupMode,
    /// COASTS parameters.
    pub coasts: CoastsConfig,
    /// Multi-level parameters.
    pub multilevel: MultilevelConfig,
    /// Fine-grained baseline parameters.
    pub fine: SimPointConfig,
    /// Fine interval length.
    pub fine_interval: u64,
    /// Benchmarks in flight for [`Experiment::run`]; each uses up to two
    /// lanes (see [`Experiment::run_benchmark`]). `1` = one at a time
    /// (the default), `0` = one per available core, `n` = a pool of
    /// `n`. Results are bit-identical for every value.
    pub jobs: usize,
    /// Trace segments per profiling pass (1 = monolithic). Each shard
    /// fast-forwards to its segment without materialising instructions
    /// and profiles only its slice; the merge is bit-identical to the
    /// monolithic pass, so this is purely a wall-clock/streaming knob
    /// for paper-scale traces.
    pub shards: usize,
    /// Optional artifact cache: profiling passes, selections, ground
    /// truths, and plan executions consult and populate it, so a
    /// repeated or resumed run skips completed work. Results are
    /// bit-identical with and without a cache.
    pub cache: Option<std::sync::Arc<mlpa_core::ArtifactCache>>,
}

impl Default for Experiment {
    fn default() -> Self {
        Experiment {
            suite: Suite::spec2000(),
            configs: [MachineConfig::table1_base(), MachineConfig::table1_sensitivity()],
            warmup: WarmupMode::Warmed,
            coasts: CoastsConfig::default(),
            multilevel: MultilevelConfig::default(),
            fine: SimPointConfig::fine_10m(),
            fine_interval: FINE_INTERVAL,
            jobs: 1,
            shards: 1,
            cache: None,
        }
    }
}

impl Experiment {
    /// A scaled-down experiment for quick runs and Criterion benches:
    /// the full 26-benchmark suite at reduced iteration counts and
    /// sizes. Keeps every structural knob identical.
    pub fn quick() -> Experiment {
        let suite: Suite = mlpa_workloads::suite::SPEC2000_NAMES
            .iter()
            .map(|n| {
                mlpa_workloads::suite::benchmark_with_iters(n, 2).expect("known name").scaled(0.5)
            })
            .collect();
        Experiment { suite, ..Experiment::default() }
    }

    /// Restrict to the named benchmarks.
    #[must_use]
    pub fn select(mut self, names: &[&str]) -> Experiment {
        self.suite = self.suite.select(names);
        self
    }

    /// Run one benchmark through every method and both configs.
    ///
    /// The work runs on two lanes: this thread, and a helper thread
    /// that runs the ground-truth detailed passes beside it. The plans
    /// are architecture-independent, so Config B's truth needs nothing
    /// from selection and Config A's segmented truth needs only the
    /// COASTS interval lengths. The schedule is fixed:
    ///
    /// 1. Config B ground truth ∥ profiling and the three selections;
    /// 2. Config A segmented ground truth ∥ Config A's plan executions;
    /// 3. Config B's plan executions, alone — they hold the run's peak
    ///    memory (the warm 2 MB-L2 hierarchy plus a per-point clone).
    ///
    /// Each truth pass is built on this thread and only run on the
    /// helper (see [`mlpa_core::TruthTask`]). Results are bit-identical
    /// to running the same calls one after another, and a panic on
    /// either lane resurfaces here with its original payload.
    ///
    /// # Errors
    ///
    /// Propagates compilation and selection errors (invalid spec, no
    /// cyclic structure).
    pub fn run_benchmark(&self, spec: &BenchmarkSpec) -> Result<BenchResult, String> {
        let _span = mlpa_obs::span_labeled("bench.benchmark", &spec.name);
        let t0 = std::time::Instant::now();
        let cb = CompiledBenchmark::compile(spec)?;
        let cache = self.cache.as_deref();
        let [config_a, config_b] = &self.configs;
        let execute = |config: &MachineConfig, sel: &Selection| {
            sel.plans().map(|plan| execute_plan_cached(cache, &cb, config, plan, self.warmup, 1))
        };

        // Phase 1. Truth passes are prepared here and run on the helper.
        let truth_b = prepare_ground_truth(cache, &cb, config_b);
        let (truth_b, sel) = beside(|| truth_b.run(), || self.select_plans(&cb));
        let sel = sel?;

        // Phase 2. Under Config A the truth comes from a *segmented*
        // detailed pass sliced at the coarse interval boundaries: its
        // per-segment statistics telescope exactly to the single-pass
        // totals (same cost, same result) and additionally feed the
        // accuracy attribution.
        let lens: Vec<u64> = sel.coasts.intervals.iter().map(|iv| iv.len).collect();
        let segments_a = prepare_ground_truth_segmented(cache, &cb, config_a, &lens);
        let (segments_a, runs_a) = beside(|| segments_a.run(), || execute(config_a, &sel));

        // Phase 3, alone: the peak-memory step.
        let runs_b = execute(config_b, &sel);
        Ok(assemble(spec, sel, &segments_a, truth_b, [runs_a, runs_b], t0.elapsed().as_secs_f64()))
    }

    /// Profile `cb` once and derive all three plans from the shared
    /// context: the loop profile and fine intervals come from a single
    /// combined functional pass, the boundary pass runs once, and
    /// multi-level reuses the COASTS selection instead of recomputing it.
    fn select_plans(&self, cb: &CompiledBenchmark) -> Result<Selection, String> {
        let mut ctx = ProfilingContext::new(cb, self.coasts.projection, self.fine_interval);
        ctx.set_shards(self.shards);
        if let Some(cache) = &self.cache {
            ctx.set_cache(cache.clone());
        }
        ctx.prepare();
        let fine = simpoint_baseline_with(&mut ctx, &self.fine)?;
        let coasts = coasts_with(&mut ctx, &self.coasts)?;
        let multilevel = multilevel_with(&mut ctx, &self.multilevel)?;
        Ok(Selection { fine, coasts, multilevel })
    }

    /// Run the whole suite, calling `progress` after each benchmark.
    ///
    /// With [`Experiment::jobs`] > 1 (or 0 = all cores) benchmarks fan
    /// out across a bounded worker pool. Results are returned in suite
    /// order and are bit-identical to a serial run; `progress` is
    /// always invoked on the calling thread, in suite order, as soon as
    /// the corresponding prefix of benchmarks has completed.
    ///
    /// # Errors
    ///
    /// Fails on the first benchmark error in suite order (serially this
    /// also aborts later benchmarks; in parallel, already-started ones
    /// finish but their results are discarded).
    pub fn run(&self, mut progress: impl FnMut(&BenchResult)) -> Result<Vec<BenchResult>, String> {
        let _span = mlpa_obs::span("bench.suite");
        let workers = mlpa_core::effective_jobs(self.jobs).min(self.suite.len().max(1));
        // Progress gauges feed the live telemetry sampler and the
        // status server's benchmarks done/total fields.
        mlpa_obs::gauge_set("bench.total", self.suite.len() as u64);
        mlpa_obs::gauge_set("bench.done", 0);
        if workers <= 1 {
            // A single-worker guard so serial runs still report
            // utilization.
            let mut guard = mlpa_obs::worker("suite", 0);
            let mut out = Vec::with_capacity(self.suite.len());
            for spec in &self.suite {
                let r = guard
                    .busy(|| self.run_benchmark(spec))
                    .map_err(|e| format!("{}: {e}", spec.name))?;
                progress(&r);
                mlpa_obs::gauge_set("bench.done", out.len() as u64 + 1);
                // A counter snapshot per completed benchmark gives the
                // trace converter its counter-series timeline.
                mlpa_obs::emit_counters_snapshot();
                out.push(r);
            }
            return Ok(out);
        }

        let specs: Vec<&BenchmarkSpec> = self.suite.iter().collect();
        let next = AtomicUsize::new(0);
        let stop = AtomicBool::new(false);
        let (tx, rx) = mpsc::channel::<(usize, Outcome)>();

        std::thread::scope(|s| {
            for w in 0..workers {
                let tx = tx.clone();
                let (next, stop) = (&next, &stop);
                let specs = &specs;
                s.spawn(move || {
                    let mut guard = mlpa_obs::worker("suite", w);
                    loop {
                        // Claim benchmarks in suite order; stop claiming
                        // new ones once any benchmark has failed. Claim
                        // order guarantees the lowest-indexed failure is
                        // always executed, so the reported error is
                        // deterministic.
                        if stop.load(Ordering::Relaxed) {
                            break;
                        }
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        // A panicking benchmark must not be swallowed by
                        // the scope join: capture the payload and report
                        // it with the benchmark's name attached.
                        let r = guard.busy(|| {
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                self.run_benchmark(spec).map_err(|e| format!("{}: {e}", spec.name))
                            }))
                        });
                        let r = match r {
                            Ok(Ok(res)) => Outcome::Done(Box::new(res)),
                            Ok(Err(e)) => Outcome::Error(e),
                            Err(payload) => Outcome::Panic(format!(
                                "suite benchmark {} panicked: {}",
                                spec.name,
                                mlpa_core::panic_message(&*payload)
                            )),
                        };
                        if !matches!(r, Outcome::Done(_)) {
                            stop.store(true, Ordering::Relaxed);
                        }
                        if tx.send((i, r)).is_err() {
                            break;
                        }
                    }
                });
            }
            drop(tx);

            let mut slots: Vec<Option<BenchResult>> = (0..specs.len()).map(|_| None).collect();
            let mut emitted = 0usize;
            // Keep the lowest-indexed failure of each kind so the
            // outcome is deterministic regardless of interleaving; a
            // panic (a bug) outranks an error (a bad benchmark).
            let mut first_err: Option<(usize, String)> = None;
            let mut first_panic: Option<(usize, String)> = None;
            for (i, r) in rx {
                match r {
                    Outcome::Done(res) => slots[i] = Some(*res),
                    Outcome::Error(e) => {
                        if first_err.as_ref().is_none_or(|(fi, _)| i < *fi) {
                            first_err = Some((i, e));
                        }
                    }
                    Outcome::Panic(msg) => {
                        if first_panic.as_ref().is_none_or(|(fi, _)| i < *fi) {
                            first_panic = Some((i, msg));
                        }
                    }
                }
                // Stream progress for the completed prefix, in order.
                while let Some(Some(done)) = slots.get(emitted) {
                    progress(done);
                    emitted += 1;
                    mlpa_obs::gauge_set("bench.done", emitted as u64);
                    mlpa_obs::emit_counters_snapshot();
                }
            }

            if let Some((_, msg)) = first_panic {
                panic!("{msg}");
            }
            if let Some((_, e)) = first_err {
                return Err(e);
            }
            slots
                .into_iter()
                .map(|r| r.ok_or_else(|| "worker pool dropped a benchmark".to_string()))
                .collect()
        })
    }
}

/// Channel payload of the parallel suite pool: a finished benchmark, a
/// benchmark error, or a captured worker panic.
enum Outcome {
    Done(Box<BenchResult>),
    Error(String),
    Panic(String),
}

/// The three plans of one benchmark, with what selection learned.
struct Selection {
    fine: FineOutcome,
    coasts: CoastsOutcome,
    multilevel: MultilevelOutcome,
}

impl Selection {
    /// The plans in [`Method::ALL`] order.
    fn plans(&self) -> [&SimulationPlan; 3] {
        [&self.fine.plan, &self.coasts.plan, &self.multilevel.plan]
    }
}

/// Run `helper` on a second thread while `main` runs on this one, and
/// return both results. The helper's spans nest under this thread's
/// innermost span. A panic on either side resurfaces here with its
/// original payload once both sides have stopped.
fn beside<H: Send, M>(helper: impl FnOnce() -> H + Send, main: impl FnOnce() -> M) -> (H, M) {
    let parent = mlpa_obs::span_parent();
    std::thread::scope(|s| {
        let lane = s.spawn(move || {
            let _parent = mlpa_obs::adopt_parent(parent);
            helper()
        });
        let m = main();
        match lane.join() {
            Ok(h) => (h, m),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    })
}

/// Fold one benchmark's measurements into its [`BenchResult`]: truths
/// (Config A's telescoped from its segments), estimates and deviations
/// per method and config, and the COASTS/Config-A attribution.
fn assemble(
    spec: &BenchmarkSpec,
    sel: Selection,
    segments_a: &[SimMetrics],
    truth_b: SimMetrics,
    runs: [[ExecutionOutcome; 3]; 2],
    elapsed: f64,
) -> BenchResult {
    let mut whole_a = SimMetrics::default();
    for s in segments_a {
        whole_a += *s;
    }
    let truths = [whole_a.estimate(), truth_b.estimate()];
    let attribution = attribute_segments(&spec.name, &sel.coasts, &runs[0][1], segments_a);
    let methods = std::array::from_fn(|mi| {
        let plan = sel.plans()[mi];
        let estimates = [runs[0][mi].estimate, runs[1][mi].estimate];
        MethodResult {
            plan: plan.clone(),
            estimates,
            deviations: [0, 1].map(|ci| estimates[ci].deviation_from(&truths[ci])),
            points: plan.len(),
            mean_interval: plan.mean_point_len(),
        }
    });
    BenchResult {
        name: spec.name.clone(),
        total_insts: sel.fine.plan.total_insts(),
        truths,
        methods,
        coarse_k: sel.coasts.simpoints.k,
        coarse_last_position: sel.coasts.plan.last_position(),
        fine_k: sel.fine.simpoints.k,
        attribution,
        elapsed,
    }
}

/// Index of a method in [`BenchResult::methods`].
pub fn method_index(m: Method) -> usize {
    match m {
        Method::SimPoint => 0,
        Method::Coasts => 1,
        Method::Multilevel => 2,
    }
}

/// Speedup of `method` over the SimPoint baseline for one benchmark
/// under a cost model.
pub fn speedup(result: &BenchResult, method: Method, model: &CostModel) -> f64 {
    let base = &result.methods[0].plan;
    let plan = &result.methods[method_index(method)].plan;
    model.speedup(base, plan)
}

/// Geometric-mean speedup across a result set.
pub fn geomean_speedup(results: &[BenchResult], method: Method, model: &CostModel) -> f64 {
    let v: Vec<f64> = results.iter().map(|r| speedup(r, method, model)).collect();
    geometric_mean(&v)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Experiment {
        let suite: Suite = ["eon", "twolf"]
            .iter()
            .map(|n| mlpa_workloads::suite::benchmark_with_iters(n, 1).expect("known").scaled(0.15))
            .collect();
        Experiment { suite, ..Experiment::default() }
    }

    #[test]
    fn runs_methods_and_orders_speedups() {
        let exp = tiny();
        let results = exp.run(|_| {}).unwrap();
        assert_eq!(results.len(), 2);
        let model = CostModel::paper_implied();
        for r in &results {
            for m in &r.methods {
                assert_eq!(m.plan.total_insts(), r.total_insts);
            }
            // Coarse methods slash functional time.
            let sp = &r.methods[0].plan;
            let co = &r.methods[1].plan;
            assert!(co.functional_fraction() < sp.functional_fraction());
            // Multi-level detail volume <= COASTS detail volume.
            assert!(r.methods[2].plan.detailed_insts() <= r.methods[1].plan.detailed_insts());
            // Attribution decomposes the COASTS/Config-A estimate, and
            // its telescoped truth *is* truths[0].
            assert_eq!(r.attribution.benchmark, r.name);
            assert_eq!(r.attribution.truth, r.truths[0]);
            assert_eq!(r.attribution.estimate, r.methods[1].estimates[0]);
            assert!(!r.attribution.phases.is_empty());
        }
        let g = geomean_speedup(&results, Method::Multilevel, &model);
        assert!(g > 1.0, "multi-level should beat SimPoint, geomean {g:.2}");
    }

    #[test]
    fn method_metadata() {
        assert_eq!(Method::ALL.len(), 3);
        assert_eq!(method_index(Method::SimPoint), 0);
        assert_eq!(Method::Coasts.name(), "COASTS");
    }

    #[test]
    fn select_filters_suite() {
        let exp = Experiment::default().select(&["gzip"]);
        assert_eq!(exp.suite.len(), 1);
    }

    /// Everything a `BenchResult` derives from the trace must be
    /// bit-identical across worker counts; only `elapsed` (wall clock)
    /// may differ.
    fn assert_same_results(a: &[BenchResult], b: &[BenchResult]) {
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(b) {
            assert_eq!(x.name, y.name);
            assert_eq!(x.total_insts, y.total_insts);
            assert_eq!(x.truths, y.truths);
            assert_eq!(x.methods, y.methods);
            assert_eq!(x.coarse_k, y.coarse_k);
            assert_eq!(x.coarse_last_position, y.coarse_last_position);
            assert_eq!(x.fine_k, y.fine_k);
            assert_eq!(x.attribution, y.attribution);
        }
    }

    #[test]
    fn parallel_run_is_bit_identical_and_ordered() {
        let serial = tiny().run(|_| {}).unwrap();
        for jobs in [4, 0] {
            let mut streamed = Vec::new();
            let results =
                Experiment { jobs, ..tiny() }.run(|r| streamed.push(r.name.clone())).unwrap();
            assert_same_results(&serial, &results);
            // Progress streams on the calling thread in suite order.
            let order: Vec<String> = results.iter().map(|r| r.name.clone()).collect();
            assert_eq!(streamed, order, "jobs={jobs} progress order");
        }
    }

    #[test]
    fn sharded_run_is_bit_identical() {
        let serial = tiny().run(|_| {}).unwrap();
        let sharded = Experiment { shards: 6, ..tiny() }.run(|_| {}).unwrap();
        assert_same_results(&serial, &sharded);
    }

    #[test]
    fn parallel_run_reports_lowest_index_error() {
        // An empty script fails compilation at index 0; the parallel
        // pool must report exactly that error even though later
        // benchmarks succeed (claim order guarantees index 0 runs).
        let mut exp = tiny();
        let mut specs: Vec<_> = exp.suite.iter().cloned().collect();
        let mut bad = specs[0].clone();
        bad.name = "bad".into();
        bad.script.clear();
        specs.insert(0, bad);
        exp.suite = specs.into_iter().collect();
        exp.jobs = 4;
        let serial_err = Experiment { jobs: 1, ..exp.clone() }.run(|_| {}).unwrap_err();
        let parallel_err = exp.run(|_| {}).unwrap_err();
        assert_eq!(serial_err, parallel_err);
        assert!(parallel_err.starts_with("bad:"), "{parallel_err}");
    }

    /// The serial schedule the two lanes replace, composed from the
    /// public single-threaded calls: selection, Config A's segmented
    /// truth, Config B's truth, every plan under each config, then the
    /// attribution. `elapsed` is zeroed.
    fn serial_oracle(exp: &Experiment, spec: &BenchmarkSpec) -> BenchResult {
        use mlpa_core::{execute_plan, ground_truth, ground_truth_segmented};
        let cb = CompiledBenchmark::compile(spec).unwrap();
        let mut ctx = ProfilingContext::new(&cb, exp.coasts.projection, exp.fine_interval);
        ctx.prepare();
        let fine = simpoint_baseline_with(&mut ctx, &exp.fine).unwrap();
        let co = coasts_with(&mut ctx, &exp.coasts).unwrap();
        let ml = multilevel_with(&mut ctx, &exp.multilevel).unwrap();
        let plans = [&fine.plan, &co.plan, &ml.plan];

        let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
        let segments_a = ground_truth_segmented(&cb, &exp.configs[0], &lens);
        let mut whole_a = SimMetrics::default();
        for s in &segments_a {
            whole_a += *s;
        }
        let truths = [whole_a.estimate(), ground_truth(&cb, &exp.configs[1]).estimate()];
        let runs = exp.configs.map(|c| plans.map(|p| execute_plan(&cb, &c, p, exp.warmup)));
        let attribution = attribute_segments(&spec.name, &co, &runs[0][1], &segments_a);
        let methods = std::array::from_fn(|mi| {
            let est = [runs[0][mi].estimate, runs[1][mi].estimate];
            MethodResult {
                plan: plans[mi].clone(),
                estimates: est,
                deviations: [est[0].deviation_from(&truths[0]), est[1].deviation_from(&truths[1])],
                points: plans[mi].len(),
                mean_interval: plans[mi].mean_point_len(),
            }
        });
        BenchResult {
            name: spec.name.clone(),
            total_insts: fine.plan.total_insts(),
            truths,
            methods,
            coarse_k: co.simpoints.k,
            coarse_last_position: co.plan.last_position(),
            fine_k: fine.simpoints.k,
            attribution,
            elapsed: 0.0,
        }
    }

    /// `run_benchmark`'s lanes change only when work happens: every
    /// result is byte-equal to the serial composition, without a cache
    /// and with one (both the run that records it and the one that
    /// reuses it).
    #[test]
    fn lanes_match_the_serial_oracle_with_and_without_cache() {
        let root =
            std::env::temp_dir().join(format!("mlpa-harness-oracle-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let cache = std::sync::Arc::new(mlpa_core::ArtifactCache::open(&root).unwrap());
        let cached = Experiment { cache: Some(cache), ..tiny() };
        let exp = tiny();
        for spec in &exp.suite {
            let oracle = format!("{:?}", serial_oracle(&exp, spec));
            for (what, e) in [("uncached", &exp), ("cold cache", &cached), ("warm cache", &cached)]
            {
                let got = BenchResult { elapsed: 0.0, ..e.run_benchmark(spec).unwrap() };
                assert_eq!(format!("{got:?}"), oracle, "{} {what}", spec.name);
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    /// A panic on either lane resurfaces with its original payload,
    /// not a generic join error, and only after both lanes stopped.
    #[test]
    fn lane_panics_keep_their_payload() {
        #[derive(Debug, PartialEq)]
        struct Payload(u32);
        let finished = AtomicBool::new(false);
        let helper = std::panic::catch_unwind(|| {
            beside(|| std::panic::panic_any(Payload(7)), || finished.store(true, Ordering::Relaxed))
        })
        .expect_err("helper panic must propagate");
        assert_eq!(helper.downcast_ref::<Payload>(), Some(&Payload(7)));
        assert!(finished.load(Ordering::Relaxed), "the main lane ran to completion");

        let main = std::panic::catch_unwind(|| {
            beside(
                || finished.store(false, Ordering::Relaxed),
                || std::panic::panic_any(Payload(8)),
            )
        })
        .expect_err("main panic must propagate");
        assert_eq!(main.downcast_ref::<Payload>(), Some(&Payload(8)));
        assert!(!finished.load(Ordering::Relaxed), "the helper lane ran to completion");
    }

    /// Width 0 passes compilation and selection but makes `DetailedSim`
    /// panic ("invalid machine config") under either config. Serial
    /// runs surface that message; pooled runs must capture the worker's
    /// panic and re-raise it with the benchmark's name attached
    /// (regression: it used to resurface only at the scope join, with
    /// no indication of which benchmark died).
    #[test]
    fn invalid_config_panics_name_their_cause_under_every_schedule() {
        for ci in [0, 1] {
            for (jobs, expected) in
                [(1, "invalid machine config"), (2, "suite benchmark eon panicked")]
            {
                let mut exp = Experiment { jobs, ..tiny() };
                exp.configs[ci].width = 0;
                let payload =
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exp.run(|_| {})))
                        .expect_err("width 0 must panic");
                let msg = mlpa_core::panic_message(&*payload);
                assert!(msg.contains(expected), "configs[{ci}] jobs={jobs}: {msg}");
            }
        }
    }
}
