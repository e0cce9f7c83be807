//! Property tests for the calibrated perf gate: synthetic
//! baseline/candidate snapshot pairs drawn from a seeded RNG must
//! behave like the CI `perf-gate` job expects — measurement noise
//! within the adaptive band never fails, a planted slowdown beyond two
//! bands always does, and the verdict is one-sided (faster never
//! regresses). Mirrors the SplitMix64-based property-test idiom the
//! rest of the workspace uses in place of proptest (offline build).

use mlpa_obs::calibrate::{
    calibrate_with, gate, BenchPoint, CalibrationConfig, GateConfig, MachineCalibration,
    ProbeTimer, Snapshot, Verdict,
};
use std::collections::BTreeMap;

/// SplitMix64 (the workspace's offline stand-in for a property RNG).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[lo, hi)`.
    fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }
}

fn calibration(probe_ns: f64, dispersion: f64) -> MachineCalibration {
    MachineCalibration {
        probe_ns,
        min_ns: probe_ns * (1.0 - dispersion),
        dispersion,
        repeats: 9,
        units: 1 << 17,
        cpus: 4,
        fingerprint: "prop-test".into(),
    }
}

/// A random bench set: 3–8 benches across 2–4 groups, means between
/// 0.5 ms and 50 ms (all above the gate's duration floor), each with a
/// small (≤ ±1%) min–max spread — the scale a multi-sample bench on a
/// usable perf host actually shows. Wider spreads widen the adaptive
/// band, by design: a host too noisy for the band to stay under half
/// the planted factor cannot honestly gate a 1.5× plant at all.
fn random_benches(rng: &mut SplitMix64) -> Vec<BenchPoint> {
    let groups = 2 + (rng.next() % 3) as usize;
    let n = 3 + (rng.next() % 6) as usize;
    (0..n)
        .map(|i| {
            let mean = rng.range(5e5, 5e7);
            let spread = rng.range(0.0, 0.01);
            BenchPoint {
                group: format!("g{}", i % groups),
                id: format!("b{i}"),
                mean_ns: mean,
                min_ns: mean * (1.0 - spread),
                max_ns: mean * (1.0 + spread),
                samples: 10,
                // Stamped from the host's calibration by `snapshot`.
                normalized: 0.0,
            }
        })
        .collect()
}

/// Wrap benches into a calibrated snapshot, stamping each bench's
/// `normalized` cost from the calibration the way the bench harness
/// does when it records a snapshot.
fn snapshot(label: &str, mut benches: Vec<BenchPoint>, cal: MachineCalibration) -> Snapshot {
    for b in &mut benches {
        b.normalized = b.mean_ns / cal.probe_ns;
    }
    Snapshot { label: label.into(), benches, speedups: BTreeMap::new(), calibration: cal }
}

/// A candidate on a (possibly different-speed) host: every bench
/// re-timed with multiplicative noise `noise`, on a machine `machine`×
/// the baseline's speed. The machine factor moves raw nanoseconds AND
/// the probe, so normalized costs only see `noise`.
fn derive_candidate(
    base: &Snapshot,
    machine: f64,
    noise: impl Fn(&mut SplitMix64) -> f64,
    rng: &mut SplitMix64,
    dispersion: f64,
) -> Snapshot {
    let base_cal = &base.calibration;
    let benches = base
        .benches
        .iter()
        .map(|b| {
            let f = machine * noise(rng);
            BenchPoint {
                mean_ns: b.mean_ns * f,
                min_ns: b.min_ns * f,
                max_ns: b.max_ns * f,
                ..b.clone()
            }
        })
        .collect();
    snapshot("cand", benches, calibration(base_cal.probe_ns * machine, dispersion))
}

/// Noise inside the adaptive band — across 200 random pairs spanning
/// 100× machine-speed differences — never fails the gate, and a
/// uniformly faster candidate is always clean.
#[test]
fn noise_within_dispersion_is_tolerated() {
    let cfg = GateConfig::default();
    let mut rng = SplitMix64(0x0b5e_c0de);
    for case in 0..200 {
        let disp_b = rng.range(0.005, 0.05);
        let disp_c = rng.range(0.005, 0.05);
        let base = snapshot("base", random_benches(&mut rng), calibration(100.0, disp_b));
        // The candidate host is up to 10x faster or slower; per-bench
        // noise stays inside the minimum band (spreads only widen it).
        let machine = rng.range(0.1, 10.0);
        let band = cfg.min_band + disp_b + disp_c;
        let cand = derive_candidate(
            &base,
            machine,
            |r| 1.0 + r.range(-band, band) * 0.9,
            &mut rng,
            disp_c,
        );
        let report = gate(&base, &cand, &cfg);
        assert_ne!(
            report.worst(),
            Verdict::Fail,
            "case {case} (machine {machine:.2}x): clean noise failed\n{}",
            report.table()
        );

        // One-sided: a candidate that is strictly faster (normalized)
        // is Ok regardless of how big the improvement is.
        let faster = derive_candidate(&base, machine, |r| r.range(0.2, 0.95), &mut rng, disp_c);
        let report = gate(&base, &faster, &cfg);
        assert_eq!(report.worst(), Verdict::Ok, "case {case}: speedup flagged");
    }
}

/// A planted 1.5× slowdown of one bench group always fails the gate —
/// on the same host and across machine-speed changes — while the same
/// run without the plant passes. This is the executable form of the CI
/// planted-regression check.
#[test]
fn planted_regression_is_caught_where_unmodified_run_passes() {
    let cfg = GateConfig::default();
    let mut rng = SplitMix64(0x5eed_cafe);
    for case in 0..200 {
        // Dispersions ≤ 2.5% a side: worst-case band is then
        // 0.1 + 0.05 (dispersion) + 0.04 (spreads) = 0.19, so the fail
        // threshold tops out at 1.38 — comfortably under the plant's
        // minimum observable ratio of 1.5 × 0.98.
        let disp_b = rng.range(0.005, 0.025);
        let disp_c = rng.range(0.005, 0.025);
        let base = snapshot("base", random_benches(&mut rng), calibration(100.0, disp_b));
        let machine = rng.range(0.25, 4.0);
        // Honest re-measurement: ±2% noise.
        let cand =
            derive_candidate(&base, machine, |r| 1.0 + r.range(-0.02, 0.02), &mut rng, disp_c);
        assert_ne!(
            gate(&base, &cand, &cfg).worst(),
            Verdict::Fail,
            "case {case}: unmodified run failed"
        );

        // Same run with one group slowed 1.5x: must FAIL, and the
        // failing rows must all belong to the planted group.
        let planted_group =
            base.benches[(rng.next() % base.benches.len() as u64) as usize].group.clone();
        let mut planted = cand.clone();
        for b in &mut planted.benches {
            if b.group == planted_group {
                b.mean_ns *= 1.5;
                b.min_ns *= 1.5;
                b.max_ns *= 1.5;
                b.normalized *= 1.5;
            }
        }
        let report = gate(&base, &planted, &cfg);
        assert_eq!(
            report.worst(),
            Verdict::Fail,
            "case {case} (machine {machine:.2}x, group {planted_group}): plant survived\n{}",
            report.table()
        );
        for row in report.rows.iter().filter(|r| r.verdict == Verdict::Fail) {
            assert!(
                row.name.starts_with(&format!("{planted_group}/")),
                "case {case}: innocent metric `{}` failed\n{}",
                row.name,
                report.table()
            );
        }
    }
}

/// Derived within-run speedups gate downward: shrinking a speedup past
/// two bands fails even when every bench timing is clean.
#[test]
fn speedup_collapse_fails_even_with_clean_timings() {
    let cfg = GateConfig::default();
    let mut rng = SplitMix64(0xdead_10cc);
    for _ in 0..50 {
        let mut base = snapshot("base", random_benches(&mut rng), calibration(100.0, 0.02));
        base.speedups.insert("detailed_sim".into(), 2.2);
        let mut cand = derive_candidate(&base, 1.0, |_| 1.0, &mut rng, 0.02);
        // Within a band: tolerated.
        cand.speedups.insert("detailed_sim".into(), 2.2 / 1.05);
        assert_ne!(gate(&base, &cand, &cfg).worst(), Verdict::Fail);
        // Collapsed to 1.0 (the optimization is gone): fails.
        cand.speedups.insert("detailed_sim".into(), 1.0);
        let report = gate(&base, &cand, &cfg);
        assert_eq!(report.worst(), Verdict::Fail, "{}", report.table());
        assert!(report
            .rows
            .iter()
            .any(|r| r.name == "speedup:detailed_sim" && r.verdict == Verdict::Fail));
    }
}

/// End-to-end sanity on the real probe: two back-to-back calibrated
/// snapshots of the same synthetic benches on this host gate clean.
#[test]
fn back_to_back_real_calibrations_gate_clean() {
    // Small probe config so the test stays quick on a loaded host.
    let cfg = CalibrationConfig {
        min_probe_ns: 2_000_000,
        start_units: 256,
        repeats: 7,
        trim: 2,
        ..CalibrationConfig::default()
    };
    let mut rng = SplitMix64(0x2b);
    let benches = random_benches(&mut rng);
    let c1 = calibrate_with(&mut mlpa_obs::calibrate::RealProbe::new(), &cfg);
    let c2 = calibrate_with(&mut mlpa_obs::calibrate::RealProbe::new(), &cfg);
    assert_eq!(c1.fingerprint, c2.fingerprint);
    let base = snapshot("run1", benches.clone(), c1);
    let cand = snapshot("run2", benches, c2);
    // Identical raw timings, probes measured seconds apart: normalized
    // ratios must stay inside the fail band (warn is acceptable on a
    // pathologically noisy host, a fail would mean the probe itself is
    // unstable enough to poison every future gate).
    let report = gate(&base, &cand, &GateConfig::default());
    assert_ne!(report.worst(), Verdict::Fail, "{}", report.table());
}

/// A timer that returns a scripted sequence of ns-per-unit rates for
/// every call (scale-up and repeats alike), for pinning the scale-up
/// call count from the outside.
struct ScriptTimer {
    rates: Vec<f64>,
    calls: usize,
}

impl ProbeTimer for ScriptTimer {
    fn time_units(&mut self, units: u64) -> u64 {
        let rate = self.rates[self.calls.min(self.rates.len() - 1)];
        self.calls += 1;
        (rate * units as f64) as u64
    }
}

/// Random timer rates over five orders of magnitude: the scale-up
/// always terminates within the configured step budget and always ends
/// with a repeat long enough to satisfy the minimum probe duration
/// (or pinned at the unit cap).
#[test]
fn scale_up_terminates_for_arbitrary_timer_rates() {
    let mut rng = SplitMix64(0x7e57);
    for case in 0..100 {
        let cfg = CalibrationConfig {
            min_probe_ns: 1_000_000,
            start_units: 1 + rng.next() % 1024,
            max_units: 1 << 30,
            max_scale_steps: 24,
            repeats: 5,
            trim: 1,
        };
        // Rate per call drawn from [0.01, 1000) ns/unit; occasionally a
        // zero-elapsed lying timer.
        let rates: Vec<f64> = (0..64)
            .map(|_| if rng.next().is_multiple_of(8) { 0.0 } else { rng.range(0.01, 1e3) })
            .collect();
        let mut timer = ScriptTimer { rates, calls: 0 };
        let cal = calibrate_with(&mut timer, &cfg);
        assert!(
            timer.calls <= cfg.max_scale_steps + cfg.repeats,
            "case {case}: {} calls exceeds the step budget",
            timer.calls
        );
        assert!(cal.units >= 1 && cal.units <= cfg.max_units, "case {case}: units {}", cal.units);
        assert_eq!(cal.repeats, cfg.repeats);
    }
}
