//! Phase-*sequence* analysis: once intervals are classified into phases,
//! the label sequence itself carries structure — run lengths, a
//! transition matrix, and next-phase predictability. This is the
//! phase-behaviour tooling of the literature the paper builds on (Hind
//! et al.'s phase-shift classification [2]; Sherwood et al.'s phase
//! prediction), and it is what the suite's calibration tests use to
//! verify that generated programs *have* the run structure the paper's
//! benchmarks exhibit.

use std::collections::HashMap;

/// Summary of a classified phase sequence.
#[derive(Debug, Clone, PartialEq)]
pub struct SequenceAnalysis {
    /// Number of phases (max label + 1).
    pub num_phases: usize,
    /// Total sequence length.
    pub len: usize,
    /// Number of maximal same-phase runs.
    pub num_runs: usize,
    /// Mean run length.
    pub mean_run_len: f64,
    /// Transition counts: `transitions[from][to]`, self-transitions
    /// excluded.
    pub transitions: Vec<Vec<u64>>,
    /// Per-phase occupancy (fraction of intervals).
    pub occupancy: Vec<f64>,
}

impl SequenceAnalysis {
    /// Analyse a phase-label sequence.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use mlpa_phase::sequence::SequenceAnalysis;
    ///
    /// let a = SequenceAnalysis::of(&[0, 0, 1, 1, 0, 0]);
    /// assert_eq!(a.num_phases, 2);
    /// assert_eq!(a.num_runs, 3);
    /// assert_eq!(a.mean_run_len, 2.0);
    /// ```
    pub fn of(labels: &[usize]) -> SequenceAnalysis {
        assert!(!labels.is_empty(), "cannot analyse an empty sequence");
        let num_phases = labels.iter().copied().max().expect("non-empty") + 1;
        let mut transitions = vec![vec![0u64; num_phases]; num_phases];
        let mut occupancy = vec![0f64; num_phases];
        let mut num_runs = 1usize;
        for (i, &l) in labels.iter().enumerate() {
            occupancy[l] += 1.0;
            if i > 0 && labels[i - 1] != l {
                transitions[labels[i - 1]][l] += 1;
                num_runs += 1;
            }
        }
        for o in &mut occupancy {
            *o /= labels.len() as f64;
        }
        SequenceAnalysis {
            num_phases,
            len: labels.len(),
            num_runs,
            mean_run_len: labels.len() as f64 / num_runs as f64,
            transitions,
            occupancy,
        }
    }

    /// Stationarity check: whether each phase's earliest occurrence lies
    /// within the first `frac` of the sequence — the structural property
    /// COASTS's earliest-instance selection depends on.
    pub fn phases_recur_early(&self, labels: &[usize], frac: f64) -> bool {
        let cutoff = (labels.len() as f64 * frac).ceil() as usize;
        let mut firsts = vec![usize::MAX; self.num_phases];
        for (i, &l) in labels.iter().enumerate() {
            if firsts[l] == usize::MAX {
                firsts[l] = i;
            }
        }
        firsts.into_iter().filter(|&f| f != usize::MAX).all(|f| f < cutoff)
    }
}

/// A last-value / Markov hybrid next-phase predictor (Sherwood et al.,
/// ISCA 2003 style): predicts the next interval's phase from the current
/// one using learned transition frequencies, defaulting to "same phase
/// again" until evidence accumulates.
#[derive(Debug, Clone, Default)]
pub struct PhasePredictor {
    counts: HashMap<(usize, usize), u64>,
    last: Option<usize>,
}

impl PhasePredictor {
    /// New, untrained predictor.
    pub fn new() -> PhasePredictor {
        PhasePredictor::default()
    }

    /// Predict the phase of the next interval (before observing it).
    /// Untrained or unseen states predict "same as current".
    pub fn predict(&self) -> Option<usize> {
        let cur = self.last?;
        let mut best = (cur, 0u64);
        for (&(from, to), &n) in &self.counts {
            if from == cur && n > best.1 {
                best = (to, n);
            }
        }
        // "Stay" is the default hypothesis: it must strictly lose to a
        // learned transition to be overridden.
        let stay = self.counts.get(&(cur, cur)).copied().unwrap_or(0);
        Some(if best.1 > stay { best.0 } else { cur })
    }

    /// Observe the actual phase of the next interval; returns whether
    /// the prediction (if any) was correct.
    pub fn observe(&mut self, phase: usize) -> Option<bool> {
        let correct = self.predict().map(|p| p == phase);
        if let Some(last) = self.last {
            *self.counts.entry((last, phase)).or_insert(0) += 1;
        }
        self.last = Some(phase);
        correct
    }

    /// Run over a whole sequence, returning prediction accuracy over the
    /// second half (after warm-up).
    ///
    /// # Panics
    ///
    /// Panics if `labels` has fewer than four elements.
    pub fn accuracy_on(labels: &[usize]) -> f64 {
        assert!(labels.len() >= 4, "sequence too short to evaluate");
        let mut p = PhasePredictor::new();
        let half = labels.len() / 2;
        let mut correct = 0usize;
        let mut total = 0usize;
        for (i, &l) in labels.iter().enumerate() {
            if let Some(ok) = p.observe(l) {
                if i >= half {
                    total += 1;
                    correct += usize::from(ok);
                }
            }
        }
        correct as f64 / total.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn analysis_counts_runs_and_occupancy() {
        let a = SequenceAnalysis::of(&[0, 0, 0, 1, 1, 2, 0, 0]);
        assert_eq!(a.num_phases, 3);
        assert_eq!(a.num_runs, 4);
        assert!((a.mean_run_len - 2.0).abs() < 1e-12);
        assert!((a.occupancy[0] - 5.0 / 8.0).abs() < 1e-12);
        assert_eq!(a.transitions[0][1], 1);
        assert_eq!(a.transitions[1][2], 1);
        assert_eq!(a.transitions[2][0], 1);
        assert_eq!(a.transitions[1][0], 0);
    }

    #[test]
    fn early_recurrence_check() {
        let labels = [0, 1, 2, 0, 1, 2, 0, 1, 2];
        let a = SequenceAnalysis::of(&labels);
        assert!(a.phases_recur_early(&labels, 0.34));
        let late = [0, 0, 0, 0, 0, 0, 0, 0, 1];
        let b = SequenceAnalysis::of(&late);
        assert!(!b.phases_recur_early(&late, 0.5));
    }

    #[test]
    fn predictor_learns_cyclic_pattern() {
        // A strict cycle 0,1,2,0,1,2… is fully predictable.
        let labels: Vec<usize> = (0..60).map(|i| i % 3).collect();
        let acc = PhasePredictor::accuracy_on(&labels);
        assert!(acc > 0.95, "cyclic accuracy {acc}");
    }

    #[test]
    fn predictor_exploits_run_structure() {
        // Runs of 8 (the suite's widened structure): "stay" is right
        // 7/8 of the time; the learned transitions handle the rest
        // imperfectly but accuracy must clear the stay-only baseline.
        let labels: Vec<usize> = (0..160).map(|i| (i / 8) % 4).collect();
        let acc = PhasePredictor::accuracy_on(&labels);
        assert!(acc >= 7.0 / 8.0 - 0.02, "run-structured accuracy {acc}");
    }

    #[test]
    fn untrained_predictor_is_honest() {
        let mut p = PhasePredictor::new();
        assert_eq!(p.predict(), None);
        assert_eq!(p.observe(1), None);
        assert_eq!(p.predict(), Some(1), "defaults to stay");
    }

    #[test]
    fn works_on_real_coasts_assignments() {
        // End-to-end: classify a real suite benchmark's coarse intervals
        // and verify the designed run structure shows through.
        use crate::simpoint::SimPointConfig;
        use mlpa_sim::FunctionalSim;
        use mlpa_workloads::{suite, CompiledBenchmark, WorkloadStream};

        let spec = suite::benchmark_with_iters("swim", 4).expect("swim").scaled(0.1);
        let cb = CompiledBenchmark::compile(&spec).expect("compiles");
        let proj = crate::project::RandomProjection::new(cb.program().num_blocks(), 15, 7);
        let mut prof = crate::reference::BoundaryProfiler::new(&proj, cb.outer_header());
        FunctionalSim::new(cb.program()).run(WorkloadStream::new(&cb), &mut prof);
        let intervals = prof.finish();
        let body = &intervals[1..intervals.len() - 1];
        let mut data = crate::matrix::Matrix::with_capacity(body.len(), 15);
        for iv in body {
            data.push_row(&iv.vector);
        }
        let sel = crate::bic::choose_k(&data, 4, 0.9, &SimPointConfig::fine_10m().kmeans);
        let a = SequenceAnalysis::of(&sel.result.assignments);
        // swim cycles three phases in runs of 4 (widen factor).
        assert!(a.mean_run_len >= 3.0, "mean run length {}", a.mean_run_len);
        assert!(a.phases_recur_early(&sel.result.assignments, 0.4));
        let acc = PhasePredictor::accuracy_on(&sel.result.assignments);
        assert!(acc > 0.6, "real-sequence predictability {acc}");
    }
}
