//! `mlpa-obs gate`: machine-calibrated perf regression gate over
//! `mlpa-bench-suite-v2` `BENCH.json` trajectories (the CI `perf-gate`
//! job).
//!
//! Compares one candidate snapshot against one baseline snapshot on
//! **machine-normalized** ratios (`mean_ns / probe_ns`, both sides
//! divided by their own host's calibration probe), so a fast CI runner
//! gating against a baseline recorded on a slow dev box — or vice
//! versa — judges the *code*, not the machine. Thresholds are adaptive:
//! the tolerance band for each bench widens with the measured
//! calibration dispersion of both hosts and with the bench's own
//! min–max sample spread. One band over baseline warns; two bands fail
//! the gate (`GateConfig::default()` in `mlpa_obs::calibrate`).
//! Within-run derived speedups (`speedups` in each snapshot) gate the
//! same way in the other direction: a speedup that shrank past the band
//! is a regression of the optimized path relative to its in-process
//! reference.
//!
//! The baseline is the last snapshot of the baseline file; the
//! candidate is the last snapshot of the candidate file, or the one
//! `--cand-label` names.
//!
//! `--inflate KEY=FACTOR` multiplies the candidate timings of every
//! bench whose `group` or `group/id` equals KEY before gating — the
//! planted-regression self-test: CI inflates one group by 1.5× and
//! asserts the gate fails, proving the gate can catch what it exists to
//! catch on the very host where it just passed.

use crate::{load, number, Args, Fail, Spec};
use mlpa_obs::calibrate::{
    gate, parse_trajectory, trajectory_table, GateConfig, Snapshot, Verdict,
};

pub(crate) const SPEC: Spec = Spec {
    usage: "<baseline.json> <candidate.json> [--cand-label L] [--inflate GROUP[/ID]=FACTOR]... \
            [--no-trajectory]",
    flags: &[("--cand-label", 1), ("--inflate", 1), ("--no-trajectory", 0)],
    files: 2,
    run,
};

pub(crate) fn run(args: &Args) -> Result<(), Fail> {
    let inflate = args
        .all("--inflate")
        .map(|v| {
            let spec = &v[0];
            let (key, factor) = spec
                .split_once('=')
                .ok_or_else(|| Fail::Error(format!("--inflate `{spec}`: expected KEY=FACTOR")))?;
            Ok((key.to_string(), number(factor, "a positive factor", |f| f > 0.0)?))
        })
        .collect::<Result<Vec<_>, Fail>>()?;
    let [base_path, cand_path] = [&args.files[0], &args.files[1]];
    let base_snaps = snapshots(base_path)?;
    let cand_snaps = snapshots(cand_path)?;
    let base = base_snaps
        .last()
        .ok_or_else(|| Fail::Error(format!("{base_path} has no snapshot to use as baseline")))?;
    let mut cand = match args.value("--cand-label") {
        Some(l) => cand_snaps.iter().rfind(|s| s.label == l),
        None => cand_snaps.last(),
    }
    .ok_or_else(|| Fail::Error(format!("{cand_path} has no such candidate snapshot")))?
    .clone();
    for (key, factor) in &inflate {
        // Scale the matching benches' timings and their stored
        // normalized costs (timings in probe units).
        for b in cand.benches.iter_mut().filter(|b| *key == b.group || *key == b.key()) {
            b.mean_ns *= factor;
            b.min_ns *= factor;
            b.max_ns *= factor;
            b.normalized *= factor;
        }
        println!("inflated candidate `{key}` timings by {factor}x (planted regression)");
    }

    for (role, snap) in [("baseline", base), ("candidate", &cand)] {
        let cal = &snap.calibration;
        println!(
            "{role}: `{}` on {} (probe {:.2} ns/unit, dispersion {:.1}%, {} cpus)",
            snap.label,
            cal.fingerprint,
            cal.probe_ns,
            cal.dispersion * 100.0,
            cal.cpus
        );
    }
    let report = gate(base, &cand, &GateConfig::default());
    println!("\n{}", report.table());
    for note in &report.notes {
        println!("note: {note}");
    }

    if args.all("--no-trajectory").next().is_none() {
        // The full per-group trajectory: every baseline-file snapshot
        // plus the gated candidate.
        let mut all = base_snaps.clone();
        all.push(cand);
        println!("\nper-group normalized trajectory (geomean of probe-unit costs):");
        println!("{}", trajectory_table(&all));
    }

    let count = |v| report.rows.iter().filter(|r| r.verdict == v).count();
    match report.worst() {
        Verdict::Ok => println!("perf gate PASSED ({} metrics)", report.rows.len()),
        Verdict::Warn => println!(
            "perf gate PASSED with {} warning(s) — one dispersion band over baseline",
            count(Verdict::Warn)
        ),
        Verdict::Fail => {
            return Err(Fail::Violation(format!(
                "perf gate FAILED: {} metric(s) beyond two bands",
                count(Verdict::Fail)
            )))
        }
    }
    Ok(())
}

fn snapshots(path: &str) -> Result<Vec<Snapshot>, Fail> {
    parse_trajectory(&load(path)?).map_err(|e| Fail::Error(format!("{path}: {e}")))
}
