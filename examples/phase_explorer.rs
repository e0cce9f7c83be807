//! Explore a benchmark's phase structure the way the paper's Fig. 1
//! does: detect its cyclic structures, profile coarse and fine
//! intervals, and print the first-principal-component curves with the
//! selected simulation points marked.
//!
//! ```text
//! cargo run --release --example phase_explorer [benchmark]
//! ```

use mlpa::phase::pca::principal_components;
use mlpa::prelude::*;
use mlpa::workloads::{suite, CompiledBenchmark};

fn main() -> Result<(), String> {
    let name = std::env::args().nth(1).unwrap_or_else(|| "lucas".into());
    let spec = suite::benchmark_with_iters(&name, 2)
        .ok_or_else(|| format!("unknown benchmark {name}"))?
        .scaled(0.3);
    let cb = CompiledBenchmark::compile(&spec)?;
    let coasts_cfg = CoastsConfig::default();
    let mut ctx = ProfilingContext::new(&cb, coasts_cfg.projection, FINE_INTERVAL);

    // 1. Cyclic structures (COASTS boundary collection).
    let profile = ctx.loop_profile().clone();
    println!("cyclic structures of {name} (coverage >= 1%):");
    for s in profile.significant(0.01) {
        println!(
            "  header {:>6}  depth {}  coverage {:>5.1}%  back-edges {}",
            s.header.to_string(),
            s.min_depth,
            s.coverage(profile.total_insts) * 100.0,
            s.back_edges
        );
    }

    // 2. Coarse intervals + COASTS selection.
    let co = coasts_with(&mut ctx, &coasts_cfg)?;
    println!(
        "\ncoarse granularity: {} iteration intervals, {} phases, last point at {:.1}%",
        co.intervals.len(),
        co.simpoints.k,
        co.plan.last_position() * 100.0
    );
    print_curve(&co.intervals, co.plan.points().iter().map(|p| p.start).collect());

    // 3. Fine intervals + SimPoint selection.
    let fine = simpoint_baseline_with(&mut ctx, &SimPointConfig::fine_10m())?;
    let fine_ivs = ctx.fine_intervals();
    println!(
        "\nfine granularity: {} intervals of 10k, {} phases, last point at {:.1}%",
        fine_ivs.len(),
        fine.simpoints.k,
        fine.plan.last_position() * 100.0
    );
    print_curve(fine_ivs, fine.plan.points().iter().map(|p| p.start).collect());
    Ok(())
}

/// Down-sampled ASCII strip chart of the PC1 curve; `*` marks intervals
/// containing a selected simulation point.
fn print_curve(intervals: &[mlpa::phase::Interval], marks: Vec<u64>) {
    let data: Vec<Vec<f64>> = intervals.iter().map(|iv| iv.vector.clone()).collect();
    let pca = principal_components(&data, 1, 0);
    let scores = pca.scores(&data, 0);
    let (lo, hi) =
        scores.iter().fold((f64::INFINITY, f64::NEG_INFINITY), |(l, h), &s| (l.min(s), h.max(s)));
    let span = (hi - lo).max(1e-12);
    let width = 100usize;
    let height = 12usize;
    let per_col = intervals.len().div_ceil(width);
    let mut grid = vec![vec![' '; width.min(intervals.len())]; height];
    for (col, chunk) in scores.chunks(per_col).enumerate() {
        let avg = chunk.iter().sum::<f64>() / chunk.len() as f64;
        let row = (((hi - avg) / span) * (height - 1) as f64).round() as usize;
        let base = col * per_col;
        let selected = (base..base + chunk.len())
            .any(|i| marks.iter().any(|&m| m >= intervals[i].start && m < intervals[i].end()));
        grid[row.min(height - 1)][col] = if selected { '*' } else { '.' };
    }
    for row in grid {
        println!("|{}", row.into_iter().collect::<String>());
    }
    println!("+{}", "-".repeat(width.min(intervals.len())));
}
