//! Per-layer timing from the benchmark's side: each call the driver
//! makes into a layer's public function can be wrapped in
//! [`Layers::time`]. With tracing off the wrapper only calls the
//! function, so the untraced run measures the program alone.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Accumulated calls into one layer.
#[derive(Debug, Default, Clone)]
pub struct LayerStats {
    /// Seconds of every call.
    pub calls: Vec<f64>,
    /// Work the calls processed (instructions or intervals).
    pub work: u64,
}

impl LayerStats {
    /// Total seconds over all calls.
    pub fn seconds(&self) -> f64 {
        self.calls.iter().sum()
    }
}

/// Layer timers keyed by metric prefix (`pipeline.prepare`, ...).
#[derive(Debug)]
pub struct Layers {
    enabled: bool,
    stats: Mutex<BTreeMap<&'static str, LayerStats>>,
}

impl Layers {
    /// Timers that record only when `enabled`.
    pub fn new(enabled: bool) -> Layers {
        Layers { enabled, stats: Mutex::new(BTreeMap::new()) }
    }

    /// Run `f` as one call into `layer`, recording its wall time when
    /// tracing is on.
    pub fn time<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        let secs = t0.elapsed().as_secs_f64();
        self.stats.lock().expect("layer stats poisoned").entry(layer).or_default().calls.push(secs);
        out
    }

    /// Credit `work` units to `layer`'s throughput denominator.
    pub fn work(&self, layer: &'static str, work: u64) {
        if self.enabled {
            self.stats.lock().expect("layer stats poisoned").entry(layer).or_default().work += work;
        }
    }

    /// A copy of everything recorded so far.
    pub fn snapshot(&self) -> BTreeMap<&'static str, LayerStats> {
        self.stats.lock().expect("layer stats poisoned").clone()
    }

    /// Total seconds over every layer.
    pub fn covered_seconds(&self) -> f64 {
        self.snapshot().values().map(LayerStats::seconds).sum()
    }
}
