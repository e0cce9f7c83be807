//! `reproduce`: the paper experiment as its users run it —
//! `Experiment::run` with one job and no cache over eon, twolf and lucas
//! in series (profiling, all three selections, ground truth under both
//! Table I configs, 3 plans x 2 configs).
//!
//! The traced run makes the same calls `Experiment::run_benchmark`
//! makes, one by one, each inside a layer timer, and must produce the
//! same outputs as an untraced `Experiment::run` pass of the same run.

use std::time::Instant;

use mlpa_bench::harness::{BenchResult, Experiment};
use mlpa_core::prelude::*;
use mlpa_core::{
    attribute_segments, execute_plan_cached, ground_truth_cached, ground_truth_segmented_cached,
};
use mlpa_sim::{MetricEstimate, SimMetrics};
use mlpa_workloads::{suite, BenchmarkSpec, CompiledBenchmark};

use crate::layers::Layers;
use crate::{another_pass, timed_setup, Args, OutputCheck, Report};

const BENCHES: [&str; 3] = ["eon", "twolf", "lucas"];

const ZERO: MetricEstimate =
    MetricEstimate { cpi: 0.0, l1_hit_rate: 0.0, l2_hit_rate: 0.0, mispredict_rate: 0.0 };

/// Specs of [`BENCHES`] at `Experiment::quick`'s scale (0.5) with half
/// its phase iterations, with the workload seed mixed into each
/// benchmark's own seed. Half the iterations keep a pass near 5 s, so a
/// run takes the median of about ten passes and a few slow seconds of a
/// shared host do not move it; the phase structure, and with it the
/// plan shapes (lucas still re-samples), stays the quick experiment's.
fn specs(seed: u64) -> Result<Vec<BenchmarkSpec>, String> {
    BENCHES
        .iter()
        .map(|name| {
            let mut spec = suite::benchmark_with_iters(name, 1)
                .ok_or_else(|| format!("unknown benchmark {name}"))?
                .scaled(0.5);
            spec.seed ^= seed;
            Ok(spec)
        })
        .collect()
}

/// The outputs of one benchmark that the check compares.
struct BenchOut {
    name: String,
    total_insts: u64,
    truths: [MetricEstimate; 2],
    /// SimPoint, COASTS, multi-level.
    plans: [SimulationPlan; 3],
    estimates: [[MetricEstimate; 2]; 3],
    coarse_k: usize,
    fine_k: usize,
}

impl From<&BenchResult> for BenchOut {
    fn from(r: &BenchResult) -> BenchOut {
        BenchOut {
            name: r.name.clone(),
            total_insts: r.total_insts,
            truths: r.truths,
            plans: r.methods.clone().map(|m| m.plan),
            estimates: r.methods.clone().map(|m| m.estimates),
            coarse_k: r.coarse_k,
            fine_k: r.fine_k,
        }
    }
}

impl BenchOut {
    fn line(&self) -> String {
        let mut s = format!(
            "{} total={} coarse_k={} fine_k={} truth={};{}",
            self.name,
            self.total_insts,
            self.coarse_k,
            self.fine_k,
            crate::fmt_est(&self.truths[0]),
            crate::fmt_est(&self.truths[1])
        );
        for (name, (plan, est)) in
            ["simpoint", "coasts", "multilevel"].iter().zip(self.plans.iter().zip(&self.estimates))
        {
            s += &format!(
                " | {name} points={} detailed={} functional={} last_end={} est={};{}",
                plan.len(),
                plan.detailed_insts(),
                plan.functional_insts(),
                plan.last_end(),
                crate::fmt_est(&est[0]),
                crate::fmt_est(&est[1])
            );
        }
        s
    }

    /// Relative CPI error of the multi-level estimate per config.
    fn multilevel_cpi_err(&self) -> [f64; 2] {
        [0, 1].map(|c| self.estimates[2][c].deviation_from(&self.truths[c]).cpi)
    }

    /// Paper-implied speed-up of multi-level over SimPoint.
    fn speedup(&self) -> f64 {
        CostModel::paper_implied().speedup(&self.plans[0], &self.plans[2])
    }
}

/// Work counted while tracing one pass.
#[derive(Default)]
struct PassWork {
    functional: u64,
    detailed: u64,
}

/// `Experiment::run_benchmark`'s calls, each timed as its layer.
fn traced_benchmark(
    exp: &Experiment,
    spec: &BenchmarkSpec,
    layers: &Layers,
    work: &mut PassWork,
) -> Result<BenchOut, String> {
    let cb = layers.time("workloads.compile", || CompiledBenchmark::compile(spec))?;
    let mut ctx = layers.time("pipeline.prepare", || {
        let mut ctx = ProfilingContext::new(&cb, exp.coasts.projection, exp.fine_interval);
        ctx.set_shards(exp.shards);
        ctx.prepare();
        ctx
    });
    let fine = layers.time("pipeline.simpoint", || simpoint_baseline_with(&mut ctx, &exp.fine))?;
    let total = fine.plan.total_insts();
    layers.work("pipeline.prepare", total);
    layers.work("pipeline.simpoint", ctx.fine_intervals().len() as u64);
    let co = layers.time("coasts.select", || coasts_with(&mut ctx, &exp.coasts))?;
    let ml = layers.time("multilevel.select", || multilevel_with(&mut ctx, &exp.multilevel))?;

    let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
    let plans = [fine.plan, co.plan.clone(), ml.plan];
    let mut truths = [ZERO; 2];
    let mut estimates = [[ZERO; 2]; 3];
    let mut segments_a = Vec::new();
    let mut coasts_a = None;
    for (ci, config) in exp.configs.iter().enumerate() {
        let truth = layers.time("estimate.truth", || {
            if ci == 0 {
                segments_a = ground_truth_segmented_cached(None, &cb, config, &lens);
                let mut whole = SimMetrics::default();
                for s in &segments_a {
                    whole += *s;
                }
                whole
            } else {
                ground_truth_cached(None, &cb, config)
            }
        });
        layers.work("estimate.truth", truth.instructions);
        truths[ci] = truth.estimate();
        for (mi, plan) in plans.iter().enumerate() {
            let out = layers.time("estimate.plan", || {
                execute_plan_cached(None, &cb, config, plan, exp.warmup, 1)
            });
            crate::check_cost(&out.cost, plan).map_err(|e| format!("{}: {e}", spec.name))?;
            layers.work("estimate.plan", out.cost.functional_insts + out.cost.detailed_insts);
            work.functional += out.cost.functional_insts;
            work.detailed += out.cost.detailed_insts;
            estimates[mi][ci] = out.estimate;
            if ci == 0 && mi == 1 {
                coasts_a = Some(out);
            }
        }
    }
    attribute_segments(&spec.name, &co, &coasts_a.expect("COASTS ran under Config A"), &segments_a);
    Ok(BenchOut {
        name: spec.name.clone(),
        total_insts: total,
        truths,
        plans,
        estimates,
        coarse_k: co.simpoints.k,
        fine_k: fine.simpoints.k,
    })
}

/// Everything one pass over the suite produced.
struct Pass {
    outs: Vec<Result<BenchOut, String>>,
    secs: f64,
}

impl Pass {
    fn lines(&self) -> Vec<String> {
        self.outs
            .iter()
            .map(|o| o.as_ref().map_or_else(|e| format!("error: {e}"), BenchOut::line))
            .collect()
    }

    /// Benchmarks whose plans do not all cover exactly the trace
    /// measured at set-up.
    fn mismatched_lengths(&self, lens: &[u64]) -> u64 {
        let ok = |o: &BenchOut, len: u64| {
            o.total_insts == len && o.plans.iter().all(|p| p.total_insts() == len)
        };
        self.outs.iter().zip(lens).filter(|(o, &len)| !o.as_ref().is_ok_and(|o| ok(o, len))).count()
            as u64
    }

    fn trace_insts(&self) -> u64 {
        self.outs.iter().flatten().map(|o| o.total_insts).sum()
    }
}

fn untraced_pass(exp: &Experiment) -> Pass {
    let t0 = Instant::now();
    let res = exp.run(|_| {});
    let secs = t0.elapsed().as_secs_f64();
    let outs = match res {
        Ok(results) => results.iter().map(|r| Ok(BenchOut::from(r))).collect(),
        Err(e) => exp.suite.iter().map(|_| Err(e.clone())).collect(),
    };
    Pass { outs, secs }
}

fn traced_pass(exp: &Experiment, layers: &Layers, work: &mut PassWork) -> Pass {
    let t0 = Instant::now();
    let outs = exp.suite.iter().map(|spec| traced_benchmark(exp, spec, layers, work)).collect();
    Pass { outs, secs: t0.elapsed().as_secs_f64() }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let layers = Layers::new(args.trace);
    let ((exp, trace_lens), setup_s) = timed_setup(|| {
        let specs = specs(args.seed)?;
        let lens = crate::trace_lengths(&specs, &layers)?;
        let exp =
            Experiment { suite: specs.into_iter().collect(), jobs: 1, ..Experiment::default() };
        Ok((exp, lens))
    })?;
    let mut check = OutputCheck::new(&format!("reproduce-{}.txt", args.seed), args.write_expected)?;
    let covered_at_start = layers.covered_seconds();

    let start = Instant::now();
    let mut untraced: Vec<Pass> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let mut work = PassWork::default();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut pass_secs = Vec::new();
    // The traced run alternates traced and untraced passes so the two
    // compare on the same machine state; it needs one of each.
    let min_passes = if args.trace { 2 } else { 1 };
    while another_pass(start, args.seconds, &pass_secs, min_passes) {
        let is_traced = args.trace && pass_secs.len().is_multiple_of(2);
        let pass =
            if is_traced { traced_pass(&exp, &layers, &mut work) } else { untraced_pass(&exp) };
        attempted += pass.outs.len() as u64;
        failed += check.failures(&pass.lines())?;
        failed += pass.mismatched_lengths(&trace_lens);
        crate::log_pass(pass_secs.len(), pass.secs, is_traced);
        pass_secs.push(pass.secs);
        if is_traced {
            traced.push(pass);
        } else {
            untraced.push(pass);
        }
    }

    let metrics = if args.trace {
        let n = traced.len();
        let mut metrics = crate::pipeline_layer_metrics(&layers, n);
        let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();
        let untraced_secs: Vec<f64> = untraced.iter().map(|p| p.secs).collect();
        let covered = layers.covered_seconds() - covered_at_start;
        let first = &traced[0];
        let outs: Vec<&BenchOut> = first.outs.iter().flatten().collect();
        let errs: Vec<f64> = outs.iter().flat_map(|o| o.multilevel_cpi_err()).collect();
        let speedups: Vec<f64> = outs.iter().map(|o| o.speedup()).collect();
        metrics.extend([
            ("bench.trace_overhead_frac", crate::trace_overhead(&traced_secs, &untraced_secs)?),
            ("bench.layer_coverage_frac", covered / traced_secs.iter().sum::<f64>()),
            ("trace_minst", first.trace_insts() as f64 / 1e6),
            ("estimate.plan_functional_minst", work.functional as f64 / 1e6 / n as f64),
            ("estimate.plan_detailed_minst", work.detailed as f64 / 1e6 / n as f64),
            ("estimate.cpi_err_pct", 100.0 * errs.iter().sum::<f64>() / errs.len() as f64),
            ("timing.speedup_x", geometric_mean(&speedups)),
        ]);
        metrics
    } else {
        let passes: Vec<(f64, u64, u64)> =
            untraced.iter().map(|p| (p.secs, p.outs.len() as u64, p.trace_insts())).collect();
        crate::batch_metrics(&passes, setup_s)?
    };
    Ok(Report { correct: failed == 0, attempted, failed, metrics })
}
