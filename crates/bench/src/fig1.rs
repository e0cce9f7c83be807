//! Fig. 1: how granularity changes the phase curves — first principal
//! component of per-interval BBV signatures at fine (10 k) versus
//! coarse (outer-loop iteration) granularity, with the selected
//! simulation points marked.

use mlpa_core::prelude::*;
use mlpa_phase::pca::principal_components;
use mlpa_workloads::{BenchmarkSpec, CompiledBenchmark};
use std::fmt::Write as _;

/// One curve point: interval number, first-PC score, and whether this
/// interval was selected as a simulation point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Interval number in execution order.
    pub index: usize,
    /// First principal component of the interval's signature.
    pub pc1: f64,
    /// Selected as a simulation point?
    pub selected: bool,
}

/// Both curves of Fig. 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Fig1Data {
    /// Fine-grained (fixed 10 k) curve, SimPoint selection marks.
    pub fine: Vec<CurvePoint>,
    /// Coarse-grained (iteration) curve, COASTS selection marks.
    pub coarse: Vec<CurvePoint>,
}

/// Compute Fig. 1's curves for a benchmark (the paper uses `lucas`).
///
/// # Errors
///
/// Propagates compilation/selection errors.
pub fn fig1(spec: &BenchmarkSpec) -> Result<Fig1Data, String> {
    let cb = CompiledBenchmark::compile(spec)?;
    let coasts_cfg = CoastsConfig::default();
    let mut ctx = ProfilingContext::new(&cb, coasts_cfg.projection, FINE_INTERVAL);

    // Fine curve + SimPoint marks.
    let fine_out = simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m())?;
    let fine = curve(
        ctx.fine_intervals(),
        &fine_out.simpoints.points.iter().map(|p| p.interval).collect::<Vec<_>>(),
    );

    // Coarse curve + COASTS marks.
    let co = coasts_with(&mut ctx, &coasts_cfg)?;
    let marks: Vec<usize> = co
        .plan
        .points()
        .iter()
        .filter_map(|p| co.intervals.iter().position(|iv| iv.start == p.start))
        .collect();
    let coarse = curve(&co.intervals, &marks);

    Ok(Fig1Data { fine, coarse })
}

fn curve(intervals: &[mlpa_phase::Interval], marks: &[usize]) -> Vec<CurvePoint> {
    let data: Vec<Vec<f64>> = intervals.iter().map(|iv| iv.vector.clone()).collect();
    let pca = principal_components(&data, 1, 0);
    let scores = pca.scores(&data, 0);
    scores
        .into_iter()
        .enumerate()
        .map(|(i, pc1)| CurvePoint { index: i, pc1, selected: marks.contains(&i) })
        .collect()
}

/// CSV rendering: `granularity,interval,pc1,selected`.
pub fn to_csv(data: &Fig1Data) -> String {
    let mut out = String::from("granularity,interval,pc1,selected\n");
    for (label, pts) in [("fine", &data.fine), ("coarse", &data.coarse)] {
        for p in pts {
            let _ = writeln!(out, "{label},{},{:.6},{}", p.index, p.pc1, u8::from(p.selected));
        }
    }
    out
}

/// ASCII rendering of one curve: a down-sampled strip chart with `*`
/// marking selected simulation points.
pub fn to_ascii(points: &[CurvePoint], width: usize, height: usize) -> String {
    if points.is_empty() {
        return String::from("(empty curve)\n");
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for p in points {
        lo = lo.min(p.pc1);
        hi = hi.max(p.pc1);
    }
    if (hi - lo).abs() < 1e-12 {
        hi = lo + 1.0;
    }
    let cols = width.min(points.len()).max(1);
    let per_col = points.len().div_ceil(cols);
    let mut grid = vec![vec![' '; cols]; height];
    for (c, chunk) in points.chunks(per_col).enumerate() {
        let avg: f64 = chunk.iter().map(|p| p.pc1).sum::<f64>() / chunk.len() as f64;
        let any_sel = chunk.iter().any(|p| p.selected);
        let row = ((hi - avg) / (hi - lo) * (height - 1) as f64).round() as usize;
        grid[row.min(height - 1)][c] = if any_sel { '*' } else { '.' };
    }
    let mut out = String::new();
    for row in grid {
        let line: String = row.into_iter().collect();
        let _ = writeln!(out, "|{line}");
    }
    let _ = writeln!(out, "+{}", "-".repeat(cols));
    let _ = writeln!(out, " x: interval number (downsampled), y: PC1; '*' = selected point");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_workloads::suite;

    fn lucas_small() -> BenchmarkSpec {
        suite::benchmark_with_iters("lucas", 4).expect("known").scaled(0.2)
    }

    #[test]
    fn fig1_computes_both_curves() {
        let d = fig1(&lucas_small()).unwrap();
        assert!(d.fine.len() > d.coarse.len() * 2, "fine curve must be denser");
        assert!(d.fine.iter().any(|p| p.selected));
        assert!(d.coarse.iter().any(|p| p.selected));
        // Smooth-coarse / chaotic-fine, the paper's Fig. 1 contrast:
        // the coarse curve is piecewise-flat (consecutive same-phase
        // iterations nearly identical — tiny *median* step), while the
        // fine curve carries persistent noise at every step.
        let median_step = |pts: &[CurvePoint]| {
            let spread = pts.iter().map(|p| p.pc1).fold(f64::NEG_INFINITY, f64::max)
                - pts.iter().map(|p| p.pc1).fold(f64::INFINITY, f64::min);
            let mut d: Vec<f64> = pts.windows(2).map(|w| (w[1].pc1 - w[0].pc1).abs()).collect();
            d.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            d[d.len() / 2] / spread.max(1e-12)
        };
        let fine_m = median_step(&d.fine);
        let coarse_m = median_step(&d.coarse);
        assert!(
            fine_m > coarse_m,
            "fine median step {fine_m:.4} should exceed coarse {coarse_m:.4}"
        );
        // And the coarse selection sits earlier in the run than the
        // fine selection's last point.
        let last_sel = |pts: &[CurvePoint]| {
            pts.iter().rev().find(|p| p.selected).map(|p| p.index as f64 / pts.len() as f64)
        };
        let fine_last = last_sel(&d.fine).expect("fine has marks");
        let coarse_last = last_sel(&d.coarse).expect("coarse has marks");
        assert!(
            coarse_last < fine_last,
            "coarse last mark {coarse_last:.2} vs fine {fine_last:.2}"
        );
    }

    #[test]
    fn renderings_are_nonempty() {
        let d = fig1(&lucas_small()).unwrap();
        let csv = to_csv(&d);
        assert!(csv.lines().count() > d.coarse.len());
        assert!(csv.contains("fine,"));
        let art = to_ascii(&d.coarse, 60, 12);
        assert!(art.contains('*'));
        assert_eq!(to_ascii(&[], 10, 4), "(empty curve)\n");
    }
}
