//! Accuracy attribution: decompose a sampled estimate's error into
//! per-coarse-phase contributions.
//!
//! Table II reports one deviation number per benchmark; when it is
//! large the table cannot say *which* phase the sampler misjudged.
//! Attribution answers that by comparing, for every coarse phase `c`,
//!
//! * the **estimated** behaviour — the detailed metrics of the phase's
//!   selected representative point, and
//! * the **measured** behaviour — the ground-truth metrics of *all* the
//!   phase's iteration intervals, obtained from one segmented detailed
//!   pass ([`ground_truth_segmented`]) whose statistics telescope
//!   exactly to the whole-run truth,
//!
//! and weighting the difference by the phase's instruction-mass share.
//! The signed **error shares** then sum (up to the unclassified
//! prologue/epilogue remainder) to the whole-benchmark error:
//!
//! * CPI: `w_c * (est_c - meas_c) / truth_cpi` — relative, so the
//!   shares are directly comparable to the headline relative CPI error;
//! * hit rates: `w_c * (est_c - meas_c)` — absolute, matching how the
//!   paper reports cache deviations.
//!
//! A phase with a large share is *the* phase whose representative is
//! unrepresentative; a benchmark whose shares cancel is accurate by
//! luck, not by construction — both are invisible in the aggregate
//! deviation.

use crate::coasts::CoastsOutcome;
use crate::estimate::{ground_truth_segmented, ExecutionOutcome};
use mlpa_obs::json::Value;
use mlpa_sim::{MachineConfig, MetricEstimate, SimMetrics};
use mlpa_workloads::CompiledBenchmark;
use std::collections::BTreeMap;

/// One coarse phase's contribution to the benchmark's estimation error.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseAttribution {
    /// Cluster id of the phase.
    pub cluster: usize,
    /// Instruction-mass share of the classified intervals (the weight
    /// the estimate combined this phase with; weights sum to 1).
    pub weight: f64,
    /// Number of iteration intervals assigned to the phase.
    pub instances: usize,
    /// Instructions the phase's intervals cover in the trace.
    pub measured_insts: u64,
    /// What the sampler *estimated* for the phase: metrics of its
    /// selected representative point.
    pub est: MetricEstimate,
    /// What the phase *actually* did: ground-truth metrics aggregated
    /// over every interval assigned to it.
    pub measured: MetricEstimate,
    /// Signed share of the whole-benchmark relative CPI error,
    /// `weight * (est_cpi - meas_cpi) / truth_cpi`.
    pub cpi_err_share: f64,
    /// Signed share of the absolute L1D hit-rate error.
    pub l1_err_share: f64,
    /// Signed share of the absolute L2 hit-rate error.
    pub l2_err_share: f64,
}

/// The full error decomposition of one benchmark under one machine
/// configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyAttribution {
    /// Benchmark name.
    pub benchmark: String,
    /// Per-phase decomposition, sorted by cluster id.
    pub phases: Vec<PhaseAttribution>,
    /// Instruction-mass share of the trace that classification excluded
    /// (prologue/epilogue intervals); error incurred there is not
    /// attributable to any phase.
    pub unclassified_weight: f64,
    /// Whole-run ground truth (from the segmented pass's telescoped
    /// totals — bit-identical to [`crate::estimate::ground_truth`]).
    pub truth: MetricEstimate,
    /// The sampled whole-program estimate being attributed.
    pub estimate: MetricEstimate,
    /// Signed headline error, `(est_cpi - truth_cpi) / truth_cpi`.
    pub total_cpi_rel_err: f64,
}

impl AccuracyAttribution {
    /// Residual of the CPI decomposition: the part of the headline
    /// error the per-phase shares do *not* explain (unclassified mass
    /// plus the weighting-scheme mismatch between per-phase CPI means
    /// and the cycles-over-instructions truth). Near zero when the
    /// prologue/epilogue share is small.
    pub fn cpi_residual(&self) -> f64 {
        self.total_cpi_rel_err - self.phases.iter().map(|p| p.cpi_err_share).sum::<f64>()
    }

    /// Render as a JSON object matching the `attribution` entry
    /// contract `mlpa-obs check` validates (`benchmark` + `phases` with
    /// numeric `cluster`/`weight`/`cpi_err_share`).
    pub fn to_json(&self) -> Value {
        let est = |e: &MetricEstimate| {
            Value::Obj(BTreeMap::from([
                ("cpi".to_string(), Value::Num(e.cpi)),
                ("l1_hit_rate".to_string(), Value::Num(e.l1_hit_rate)),
                ("l2_hit_rate".to_string(), Value::Num(e.l2_hit_rate)),
            ]))
        };
        let phases = self
            .phases
            .iter()
            .map(|p| {
                Value::Obj(BTreeMap::from([
                    ("cluster".to_string(), Value::Num(p.cluster as f64)),
                    ("weight".to_string(), Value::Num(p.weight)),
                    ("instances".to_string(), Value::Num(p.instances as f64)),
                    ("measured_insts".to_string(), Value::Num(p.measured_insts as f64)),
                    ("est".to_string(), est(&p.est)),
                    ("measured".to_string(), est(&p.measured)),
                    ("cpi_err_share".to_string(), Value::Num(p.cpi_err_share)),
                    ("l1_err_share".to_string(), Value::Num(p.l1_err_share)),
                    ("l2_err_share".to_string(), Value::Num(p.l2_err_share)),
                ]))
            })
            .collect();
        Value::Obj(BTreeMap::from([
            ("benchmark".to_string(), Value::Str(self.benchmark.clone())),
            ("phases".to_string(), Value::Arr(phases)),
            ("unclassified_weight".to_string(), Value::Num(self.unclassified_weight)),
            ("truth".to_string(), est(&self.truth)),
            ("estimate".to_string(), est(&self.estimate)),
            ("total_cpi_rel_err".to_string(), Value::Num(self.total_cpi_rel_err)),
        ]))
    }
}

/// Attribute a COASTS estimate's error to its coarse phases.
///
/// Runs the segmented ground-truth pass over `co.intervals` (one full
/// detailed simulation — the same cost as a [`crate::ground_truth`]
/// call, which this subsumes: the telescoped segment totals *are* the
/// whole-run truth) and folds the per-interval measurements into
/// per-cluster aggregates via `co.simpoints.assignments`.
///
/// `out` must be the execution outcome of `co.plan` under `config` —
/// its `per_point` metrics are matched positionally to
/// `co.simpoints.points`.
pub fn attribute(
    cb: &CompiledBenchmark,
    config: &MachineConfig,
    co: &CoastsOutcome,
    out: &ExecutionOutcome,
) -> AccuracyAttribution {
    let lens: Vec<u64> = co.intervals.iter().map(|iv| iv.len).collect();
    let segments = ground_truth_segmented(cb, config, &lens);
    attribute_segments(&cb.spec().name, co, out, &segments)
}

/// [`attribute`] on a precomputed segmented-truth pass, one segment per
/// entry of `co.intervals`. A harness that already pays the segmented
/// pass (its telescoped totals double as the whole-run ground truth)
/// uses this to attribute without a second detailed simulation.
pub fn attribute_segments(
    benchmark: &str,
    co: &CoastsOutcome,
    out: &ExecutionOutcome,
    segments: &[SimMetrics],
) -> AccuracyAttribution {
    let _span = mlpa_obs::span("core.attribution");
    assert_eq!(
        out.per_point.len(),
        co.simpoints.points.len(),
        "outcome does not match the COASTS plan"
    );
    assert_eq!(segments.len(), co.intervals.len(), "one truth segment per coarse interval");

    // Telescoped totals = whole-run truth.
    let mut whole = SimMetrics::default();
    for s in segments {
        whole += *s;
    }
    let truth = whole.estimate();

    // Fold segment truth into per-cluster aggregates through the
    // assignment map (body indices offset by `body_start`).
    let k = co.simpoints.k;
    let mut measured = vec![SimMetrics::default(); k];
    let mut instances = vec![0usize; k];
    for (b, &c) in co.simpoints.assignments.iter().enumerate() {
        measured[c] += segments[co.body_start + b];
        instances[c] += 1;
    }
    let classified_insts: u64 = measured.iter().map(|m| m.instructions).sum();
    let total_insts: u64 = whole.instructions;

    let mut phases: Vec<PhaseAttribution> = co
        .simpoints
        .points
        .iter()
        .zip(&out.per_point)
        .map(|(p, m)| {
            let est = m.estimate();
            let meas = measured[p.cluster].estimate();
            let cpi_err_share =
                if truth.cpi > 0.0 { p.weight * (est.cpi - meas.cpi) / truth.cpi } else { 0.0 };
            PhaseAttribution {
                cluster: p.cluster,
                weight: p.weight,
                instances: instances[p.cluster],
                measured_insts: measured[p.cluster].instructions,
                est,
                measured: meas,
                cpi_err_share,
                l1_err_share: p.weight * (est.l1_hit_rate - meas.l1_hit_rate),
                l2_err_share: p.weight * (est.l2_hit_rate - meas.l2_hit_rate),
            }
        })
        .collect();
    phases.sort_by_key(|p| p.cluster);

    let total_cpi_rel_err =
        if truth.cpi > 0.0 { (out.estimate.cpi - truth.cpi) / truth.cpi } else { 0.0 };
    AccuracyAttribution {
        benchmark: benchmark.to_string(),
        phases,
        unclassified_weight: if total_insts > 0 {
            1.0 - classified_insts as f64 / total_insts as f64
        } else {
            0.0
        },
        truth,
        estimate: out.estimate,
        total_cpi_rel_err,
    }
}

/// Render a set of attributions as the `attribution` JSON array
/// injected into `RUN_REPORT.json` (and validated by `mlpa-obs check`).
pub fn render_attribution_json(attrs: &[AccuracyAttribution]) -> String {
    Value::Arr(attrs.iter().map(AccuracyAttribution::to_json).collect()).to_string()
}

/// Render a human-readable error-decomposition report
/// (`results/accuracy_report.txt`).
pub fn render_report(attrs: &[AccuracyAttribution]) -> String {
    let mut s = String::new();
    s.push_str("Accuracy attribution: per-coarse-phase error decomposition\n");
    s.push_str("==========================================================\n");
    s.push_str(
        "\nShares are signed contributions to the benchmark error \
         (CPI relative to truth, hit rates absolute); shares of \
         opposite sign cancel in the aggregate deviation.\n",
    );
    for a in attrs {
        s.push_str(&format!(
            "\n{}: truth CPI {:.4}, estimate {:.4} ({:+.2}%); unclassified {:.2}% of trace\n",
            a.benchmark,
            a.truth.cpi,
            a.estimate.cpi,
            a.total_cpi_rel_err * 100.0,
            a.unclassified_weight * 100.0,
        ));
        s.push_str(
            "  phase weight insts       est/meas CPI    CPI share     \
             est/meas L1%     L1 share     est/meas L2%     L2 share\n",
        );
        for p in &a.phases {
            s.push_str(&format!(
                "  {:>5} {:>5.1}% {:>5}  {:>7.4}/{:<7.4} {:>+9.4}%  \
                 {:>6.2}/{:<6.2} {:>+9.4}%  {:>6.2}/{:<6.2} {:>+9.4}%\n",
                p.cluster,
                p.weight * 100.0,
                p.instances,
                p.est.cpi,
                p.measured.cpi,
                p.cpi_err_share * 100.0,
                p.est.l1_hit_rate * 100.0,
                p.measured.l1_hit_rate * 100.0,
                p.l1_err_share * 100.0,
                p.est.l2_hit_rate * 100.0,
                p.measured.l2_hit_rate * 100.0,
                p.l2_err_share * 100.0,
            ));
        }
        s.push_str(&format!("  CPI residual (unattributed): {:+.4}%\n", a.cpi_residual() * 100.0));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::coasts::{coasts, CoastsConfig};
    use crate::estimate::{execute_plan, ground_truth, WarmupMode};
    use mlpa_workloads::spec::{BenchmarkSpec, PhaseSpec, ScriptEntry};

    fn multi_phase_cb() -> CompiledBenchmark {
        use mlpa_workloads::behavior::{InstMix, MemoryPattern};
        use mlpa_workloads::spec::BlockSpec;
        let hot = PhaseSpec {
            name: "hot".into(),
            blocks: vec![BlockSpec {
                mix: InstMix { load: 0.35, store: 0.1, ..InstMix::default() },
                mem: MemoryPattern::RandomInSet { working_set: 64 * 1024 },
                ..BlockSpec::default()
            }],
            ..PhaseSpec::default()
        };
        let cold = PhaseSpec { name: "cold".into(), ..PhaseSpec::default() };
        CompiledBenchmark::compile(&BenchmarkSpec {
            phases: vec![hot, cold],
            script: (0..10).map(|i| ScriptEntry::new(i % 2, 60_000)).collect(),
            ..BenchmarkSpec::default()
        })
        .unwrap()
    }

    fn attributed() -> (CompiledBenchmark, AccuracyAttribution) {
        let cb = multi_phase_cb();
        let config = MachineConfig::table1_base();
        let co = coasts(&cb, &CoastsConfig::default()).unwrap();
        let out = execute_plan(&cb, &config, &co.plan, WarmupMode::Warmed);
        let attr = attribute(&cb, &config, &co, &out);
        (cb, attr)
    }

    #[test]
    fn phases_partition_the_classified_mass() {
        let (_, a) = attributed();
        assert!(!a.phases.is_empty());
        // Clusters are distinct and sorted.
        assert!(a.phases.windows(2).all(|w| w[0].cluster < w[1].cluster));
        // Weights sum to 1 (they are the estimate's combination
        // weights over the classified mass).
        let w: f64 = a.phases.iter().map(|p| p.weight).sum();
        assert!((w - 1.0).abs() < 1e-9, "weights sum to {w}");
        assert!(a.unclassified_weight >= 0.0 && a.unclassified_weight < 0.5);
        // Every classified instance is counted exactly once.
        let n: usize = a.phases.iter().map(|p| p.instances).sum();
        assert!(n >= 1);
    }

    #[test]
    fn truth_matches_single_pass_ground_truth() {
        let (cb, a) = attributed();
        let whole = ground_truth(&cb, &MachineConfig::table1_base()).estimate();
        assert_eq!(a.truth, whole, "telescoped truth must be bit-identical");
        let signed = (a.estimate.cpi - whole.cpi) / whole.cpi;
        assert!((a.total_cpi_rel_err - signed).abs() < 1e-12);
    }

    #[test]
    fn shares_reconstruct_the_phase_level_error() {
        let (_, a) = attributed();
        // The shares are an exact decomposition of the *estimate vs
        // per-phase-measured* gap, by construction.
        let recon: f64 =
            a.phases.iter().map(|p| p.weight * (p.est.cpi - p.measured.cpi) / a.truth.cpi).sum();
        let share_sum: f64 = a.phases.iter().map(|p| p.cpi_err_share).sum();
        assert!((recon - share_sum).abs() < 1e-12);
        // And the residual accounts for whatever they do not explain.
        assert!((share_sum + a.cpi_residual() - a.total_cpi_rel_err).abs() < 1e-12);
    }

    #[test]
    fn deterministic() {
        let (_, a) = attributed();
        let (_, b) = attributed();
        assert_eq!(a, b);
    }

    #[test]
    fn json_round_trips_and_matches_contract() {
        let (_, a) = attributed();
        let rendered = render_attribution_json(std::slice::from_ref(&a));
        let v = mlpa_obs::json::parse(&rendered).expect("valid JSON");
        let arr = v.as_arr().expect("array");
        assert_eq!(arr.len(), 1);
        let e = &arr[0];
        assert_eq!(e.get("benchmark").and_then(Value::as_str), Some(a.benchmark.as_str()));
        let phases = e.get("phases").and_then(Value::as_arr).expect("phases array");
        assert_eq!(phases.len(), a.phases.len());
        for (pv, p) in phases.iter().zip(&a.phases) {
            assert_eq!(pv.get("cluster").and_then(Value::as_f64), Some(p.cluster as f64));
            assert_eq!(pv.get("weight").and_then(Value::as_f64), Some(p.weight));
            assert_eq!(pv.get("cpi_err_share").and_then(Value::as_f64), Some(p.cpi_err_share));
        }
    }

    #[test]
    fn report_mentions_every_phase() {
        let (_, a) = attributed();
        let text = render_report(std::slice::from_ref(&a));
        assert!(text.contains(&a.benchmark));
        for p in &a.phases {
            assert!(text.contains(&format!("  {:>5} ", p.cluster)), "phase {} row", p.cluster);
        }
        assert!(text.contains("residual"));
    }
}
