//! Rendering of the paper's tables and figures from a result set.

use crate::harness::{geomean_speedup, method_index, speedup, BenchResult, Method};
use mlpa_core::prelude::*;
use std::fmt::Write as _;

/// Fig. 3 / Fig. 4: per-benchmark speedup of a method over 10 M
/// SimPoint, plus the geometric mean — as text rows and an ASCII bar
/// chart.
pub fn figure_speedup(results: &[BenchResult], method: Method, model: &CostModel) -> String {
    let mut out = String::new();
    let fig = match method {
        Method::Coasts => "Figure 3: Speedup of COASTS over SimPoint",
        Method::Multilevel => "Figure 4: Speedup of the multi-level sampling over SimPoint",
        Method::SimPoint => "Speedup of SimPoint over itself",
    };
    let _ = writeln!(out, "{fig}  (cost ratio r = {:.1})", model.ratio());
    let max = results.iter().map(|r| speedup(r, method, model)).fold(1.0_f64, f64::max);
    for r in results {
        let s = speedup(r, method, model);
        let bars = ((s / max) * 50.0).round() as usize;
        let _ = writeln!(out, "{:>9} {:>7.2}x |{}", r.name, s, "#".repeat(bars.max(1)));
    }
    let g = geomean_speedup(results, method, model);
    let _ = writeln!(out, "{:>9} {:>7.2}x  (geometric mean)", "GEOMEAN", g);
    out
}

/// CSV companion of [`figure_speedup`].
pub fn figure_speedup_csv(results: &[BenchResult], method: Method, model: &CostModel) -> String {
    let mut out = String::from("benchmark,speedup\n");
    for r in results {
        let _ = writeln!(out, "{},{:.4}", r.name, speedup(r, method, model));
    }
    let _ = writeln!(out, "geomean,{:.4}", geomean_speedup(results, method, model));
    out
}

/// Table II: CPI / L1-hit / L2-hit deviation (average and worst) per
/// method under both configurations.
pub fn table2(results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table II: DEVIATION COMPARISON (AVG = geometric-style mean of per-benchmark deviations; Worst = max)");
    let _ = writeln!(
        out,
        "{:<22} | {:>10} {:>10} | {:>10} {:>10}",
        "", "A: AVG", "A: Worst", "B: AVG", "B: Worst"
    );
    for (metric_name, pick) in [("CPI", 0usize), ("L1 Cache Hit", 1), ("L2 Cache Hit", 2)] {
        let _ = writeln!(out, "--- {metric_name} ---");
        for m in Method::ALL {
            let mi = method_index(m);
            let mut cells = Vec::new();
            for ci in 0..2 {
                let vals: Vec<f64> = results
                    .iter()
                    .map(|r| {
                        let d = &r.methods[mi].deviations[ci];
                        match pick {
                            0 => d.cpi,
                            1 => d.l1_hit_rate,
                            _ => d.l2_hit_rate,
                        }
                    })
                    .collect();
                cells.push((mean(&vals), worst(&vals)));
            }
            let _ = writeln!(
                out,
                "{:<22} | {:>9.2}% {:>9.2}% | {:>9.2}% {:>9.2}%",
                m.name(),
                cells[0].0 * 100.0,
                cells[0].1 * 100.0,
                cells[1].0 * 100.0,
                cells[1].1 * 100.0
            );
        }
    }
    out
}

/// Table III: mean interval size, mean sample number, mean detail %,
/// mean functional % per method (geometric means, as in the paper).
pub fn table3(results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Table III: SIMULATION POINTS STATISTICS (geometric means)");
    let _ = writeln!(
        out,
        "{:<22} | {:>14} {:>12} {:>12} {:>14}",
        "Algorithm", "Mean Interval", "Mean Sample", "Mean Detail", "Mean Functional"
    );
    for m in Method::ALL {
        let mi = method_index(m);
        let interval: Vec<f64> = results.iter().map(|r| r.methods[mi].mean_interval).collect();
        let samples: Vec<f64> = results.iter().map(|r| r.methods[mi].points as f64).collect();
        let detail: Vec<f64> =
            results.iter().map(|r| r.methods[mi].plan.detail_fraction().max(1e-9)).collect();
        let func: Vec<f64> =
            results.iter().map(|r| r.methods[mi].plan.functional_fraction().max(1e-9)).collect();
        let _ = writeln!(
            out,
            "{:<22} | {:>12.0}k… {:>12.1} {:>11.3}% {:>13.2}%",
            m.name(),
            geometric_mean(&interval) / 1_000.0,
            geometric_mean(&samples),
            geometric_mean(&detail) * 100.0,
            geometric_mean(&func) * 100.0
        );
    }
    let _ = writeln!(
        out,
        "(interval sizes are in scaled instructions; multiply by 1000 for paper-equivalent units)"
    );
    out
}

/// §III-B motivation: per-benchmark coarse phase counts and last-point
/// positions.
pub fn motivation(results: &[BenchResult]) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "Motivation (paper §III-B): coarse-grained phase structure");
    let _ = writeln!(out, "{:>9} {:>9} {:>12} {:>8}", "bench", "coarse-k", "last-pos(%)", "fine-k");
    for r in results {
        let _ = writeln!(
            out,
            "{:>9} {:>9} {:>12.1} {:>8}",
            r.name,
            r.coarse_k,
            r.coarse_last_position * 100.0,
            r.fine_k
        );
    }
    let ks: Vec<f64> = results.iter().map(|r| r.coarse_k as f64).collect();
    let pos: Vec<f64> = results.iter().map(|r| r.coarse_last_position).collect();
    let _ = writeln!(
        out,
        "mean coarse phases {:.1}; mean last position {:.1}%  (paper: ~3 phases, ~17 %)",
        mean(&ks),
        mean(&pos) * 100.0
    );
    out
}

/// The per-coarse-phase error decomposition of every benchmark's
/// COASTS estimate under Config A (`results/accuracy_report.txt`).
pub fn accuracy_report(results: &[BenchResult]) -> String {
    let attrs: Vec<mlpa_core::AccuracyAttribution> =
        results.iter().map(|r| r.attribution.clone()).collect();
    mlpa_core::render_report(&attrs)
}

/// The `attribution` JSON section of `RUN_REPORT.json` (validated by
/// `mlpa-obs check`).
pub fn accuracy_json(results: &[BenchResult]) -> String {
    let attrs: Vec<mlpa_core::AccuracyAttribution> =
        results.iter().map(|r| r.attribution.clone()).collect();
    mlpa_core::render_attribution_json(&attrs)
}

/// Full per-benchmark dump (appendix-style) — everything in one CSV.
pub fn full_csv(results: &[BenchResult], model: &CostModel) -> String {
    let mut out = String::from(
        "benchmark,total_insts,method,points,mean_interval,detail_pct,functional_pct,last_pos_pct,\
         speedup,cpi_dev_a,l1_dev_a,l2_dev_a,cpi_dev_b,l1_dev_b,l2_dev_b\n",
    );
    for r in results {
        for m in Method::ALL {
            let mi = method_index(m);
            let mr = &r.methods[mi];
            let _ = writeln!(
                out,
                "{},{},{},{},{:.0},{:.4},{:.3},{:.2},{:.3},{:.4},{:.4},{:.4},{:.4},{:.4},{:.4}",
                r.name,
                r.total_insts,
                m.name(),
                mr.points,
                mr.mean_interval,
                mr.plan.detail_fraction() * 100.0,
                mr.plan.functional_fraction() * 100.0,
                mr.plan.last_position() * 100.0,
                speedup(r, m, model),
                mr.deviations[0].cpi * 100.0,
                mr.deviations[0].l1_hit_rate * 100.0,
                mr.deviations[0].l2_hit_rate * 100.0,
                mr.deviations[1].cpi * 100.0,
                mr.deviations[1].l1_hit_rate * 100.0,
                mr.deviations[1].l2_hit_rate * 100.0,
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::Experiment;
    use mlpa_workloads::Suite;

    fn small_results() -> Vec<BenchResult> {
        let suite: Suite = ["eon"]
            .iter()
            .map(|n| mlpa_workloads::suite::benchmark_with_iters(n, 1).expect("known").scaled(0.15))
            .collect();
        Experiment { suite, ..Experiment::default() }.run(|_| {}).unwrap()
    }

    #[test]
    fn reports_render() {
        let rs = small_results();
        let model = CostModel::paper_implied();
        let f3 = figure_speedup(&rs, Method::Coasts, &model);
        assert!(f3.contains("GEOMEAN"));
        assert!(f3.contains("eon"));
        let f4 = figure_speedup(&rs, Method::Multilevel, &model);
        assert!(f4.contains("Figure 4"));
        let t2 = table2(&rs);
        assert!(t2.contains("L2 Cache Hit") && t2.contains("COASTS"));
        let t3 = table3(&rs);
        assert!(t3.contains("Mean Functional"));
        let m = motivation(&rs);
        assert!(m.contains("coarse-k"));
        let csv = full_csv(&rs, &model);
        assert_eq!(csv.lines().count(), 1 + 3, "header + 3 method rows");
        let scsv = figure_speedup_csv(&rs, Method::Coasts, &model);
        assert!(scsv.starts_with("benchmark,speedup"));
        let acc = accuracy_report(&rs);
        assert!(acc.contains("eon") && acc.contains("residual"));
        let aj = accuracy_json(&rs);
        let v = mlpa_obs::json::parse(&aj).expect("attribution JSON parses");
        assert_eq!(v.as_arr().map(<[_]>::len), Some(1));
    }
}
