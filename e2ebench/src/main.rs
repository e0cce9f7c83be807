//! End-to-end benchmark driver for the mlpa reproduction.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path e2ebench/Cargo.toml -- \
//!     --workload <reproduce|serve-mix> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload builds its inputs from `--seed`, measures for
//! `--seconds`, checks its outputs, and prints one JSON line with the
//! metrics `BENCHMARK.json` lists: the end-to-end ones with `--trace 0`,
//! the per-layer ones with `--trace 1`. See `e2ebench/README.md`.

mod layers;
mod reproduce;
mod serve_mix;
mod stats;

use std::collections::BTreeMap;
use std::time::Instant;

use layers::Layers;
use mlpa_core::{ExecutionCost, SimulationPlan};
use mlpa_obs::json::{self, Value};
use mlpa_sim::MetricEstimate;
use mlpa_workloads::{BenchmarkSpec, CompiledBenchmark};

/// Where the metric names and units are defined.
const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// Outputs stored with the benchmark, one file per workload and seed.
pub const EXPECTED_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/expected");

/// The default workload seed. Outputs are stored for it and for the
/// held-out seed 12345 under [`EXPECTED_DIR`].
pub const DEFAULT_SEED: u64 = 7;

/// Set-up repetitions per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// Parsed command line.
#[derive(Debug)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement budget in seconds.
    pub seconds: f64,
    /// Per-layer (traced) run instead of the end-to-end run.
    pub trace: bool,
    /// Write the outputs of this run as the stored expected outputs.
    pub write_expected: bool,
}

/// What one run measured.
#[derive(Debug)]
pub struct Report {
    /// Every checked output matched.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or produced a wrong output.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        write_expected: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--write-expected" {
            args.write_expected = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !(args.seconds > 0.0 && args.seconds.is_finite()) {
        return Err(format!("--seconds must be positive, got {}", args.seconds));
    }
    Ok(args)
}

/// `(name, unit)` of every metric `BENCHMARK.json` lists under `section`.
fn declared_metrics(section: &str) -> Result<Vec<(String, String)>, String> {
    let text = std::fs::read_to_string(BENCHMARK_JSON)
        .map_err(|e| format!("reading {BENCHMARK_JSON}: {e}"))?;
    let doc = json::parse(&text).map_err(|e| format!("parsing BENCHMARK.json: {e}"))?;
    let list = doc
        .get(section)
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("BENCHMARK.json has no {section} list"))?;
    list.iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Value::as_str).map(str::to_string);
            Ok((field("name").ok_or("metric without name")?, field("unit").ok_or("no unit")?))
        })
        .collect()
}

/// Run `f` [`SETUP_REPS`] times; return the last result and the median
/// seconds one set-up took.
pub fn timed_setup<T>(mut f: impl FnMut() -> Result<T, String>) -> Result<(T, f64), String> {
    let mut secs = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let t0 = Instant::now();
        last = Some(f()?);
        secs.push(t0.elapsed().as_secs_f64());
    }
    Ok((last.expect("SETUP_REPS > 0"), stats::median(&secs)?))
}

/// Whether to start another pass: always until `min_passes` are done,
/// then only while the mean pass still fits in the budget.
pub fn another_pass(start: Instant, budget: f64, pass_secs: &[f64], min_passes: usize) -> bool {
    if pass_secs.len() < min_passes {
        return true;
    }
    let mean = pass_secs.iter().sum::<f64>() / pass_secs.len() as f64;
    start.elapsed().as_secs_f64() + mean <= budget
}

/// Report one finished pass (a round in `serve-mix`) on standard error,
/// so a run's pass-to-pass spread can be read from its log.
pub fn log_pass(index: usize, secs: f64, traced: bool) {
    let kind = if traced { "traced" } else { "untraced" };
    eprintln!("e2ebench: pass {index} ({kind}) {secs:.3} s");
}

/// Host peak resident set (VmHWM) in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Checks one line of output per operation: against the outputs stored
/// with the benchmark for this workload and seed (when a file exists),
/// and against the run's first pass, so every later pass must repeat it.
pub struct OutputCheck {
    path: String,
    write: bool,
    stored: Option<Vec<String>>,
    first: Option<Vec<String>>,
}

impl OutputCheck {
    /// Load `EXPECTED_DIR/<file>`; with `write`, the first pass is
    /// stored there instead.
    pub fn new(file: &str, write: bool) -> Result<OutputCheck, String> {
        let path = format!("{EXPECTED_DIR}/{file}");
        let stored = if write {
            None
        } else {
            match std::fs::read_to_string(&path) {
                Ok(text) => Some(text.lines().map(str::to_string).collect()),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => None,
                Err(e) => return Err(format!("reading {path}: {e}")),
            }
        };
        Ok(OutputCheck { path, write, stored, first: None })
    }

    /// Number of operations in `lines` whose output differs from the
    /// stored or first-pass output (a missing or extra line counts).
    pub fn failures(&mut self, lines: &[String]) -> Result<u64, String> {
        if self.first.is_none() {
            if self.write {
                let mut text = lines.join("\n");
                text.push('\n');
                std::fs::write(&self.path, text)
                    .map_err(|e| format!("writing {}: {e}", self.path))?;
            }
            self.first = Some(lines.to_vec());
        }
        let mut failed = 0;
        for refs in [self.stored.as_ref(), self.first.as_ref()].into_iter().flatten() {
            let n = refs.len().max(lines.len());
            let bad = (0..n).filter(|&i| refs.get(i) != lines.get(i)).count();
            if bad > 0 {
                eprintln!("{}: {bad} of {n} outputs differ", self.path);
            }
            failed = failed.max(bad as u64);
        }
        Ok(failed)
    }
}

/// End-to-end metrics of a batch workload from its untraced passes,
/// each `(seconds, operations, trace instructions analysed)`. A pass's
/// latency is the time to its whole result set.
pub fn batch_metrics(
    passes: &[(f64, u64, u64)],
    setup_s: f64,
) -> Result<BTreeMap<&'static str, f64>, String> {
    let minst: Vec<f64> = passes
        .iter()
        .map(|&(s, _, insts)| stats::rate(insts as f64 / 1e6, s))
        .collect::<Result<_, _>>()?;
    let ops: Vec<f64> =
        passes.iter().map(|&(s, n, _)| stats::rate(n as f64, s)).collect::<Result<_, _>>()?;
    let secs: Vec<f64> = passes.iter().map(|p| p.0).collect();
    Ok(BTreeMap::from([
        ("setup_s", setup_s),
        ("minst_per_s", stats::median(&minst)?),
        ("req_per_s", stats::median(&ops)?),
        ("latency_p50_ms", stats::median(&secs)? * 1e3),
        ("peak_rss_mb", peak_rss_mb()?),
    ]))
}

/// `bench.trace_overhead_frac`: the median traced pass against the
/// median untraced pass of the same run.
pub fn trace_overhead(traced_secs: &[f64], untraced_secs: &[f64]) -> Result<f64, String> {
    Ok(stats::median(traced_secs)? / stats::median(untraced_secs)? - 1.0)
}

/// Execution cost is a property of the plan, whatever the executor:
/// the instructions a plan execution warmed and simulated must equal the
/// plan's own accounting.
pub fn check_cost(cost: &ExecutionCost, plan: &SimulationPlan) -> Result<(), String> {
    let planned = (plan.functional_insts(), plan.detailed_insts());
    if (cost.functional_insts, cost.detailed_insts) == planned {
        Ok(())
    } else {
        Err(format!(
            "executed {}+{} instructions, plan accounts {}+{}",
            cost.functional_insts, cost.detailed_insts, planned.0, planned.1
        ))
    }
}

/// One estimate as an output field, every digit kept.
pub fn fmt_est(e: &MetricEstimate) -> String {
    format!("{:?}/{:?}/{:?}/{:?}", e.cpi, e.l1_hit_rate, e.l2_hit_rate, e.mispredict_rate)
}

/// Set-up shared by the workloads: compile each spec and measure its
/// trace length with one metadata walk, which the workloads check every
/// plan and result against.
pub fn trace_lengths(specs: &[BenchmarkSpec], layers: &Layers) -> Result<Vec<u64>, String> {
    specs
        .iter()
        .map(|spec| {
            let cb = layers.time("workloads.compile", || CompiledBenchmark::compile(spec))?;
            Ok(layers.time("pipeline.trace_len", || mlpa_core::trace_insts(&cb)))
        })
        .collect()
}

/// Per-layer metrics of the pipeline layers, from the calls `layers`
/// recorded over `passes` traced passes. A layer the workload never
/// calls reads 0.
pub fn pipeline_layer_metrics(layers: &Layers, passes: usize) -> BTreeMap<&'static str, f64> {
    let snap = layers.snapshot();
    let per_pass = |name: &str| snap.get(name).map_or(0.0, |s| s.seconds() / passes as f64);
    let ns = |name: &str| snap.get(name).map_or(0.0, |s| stats::ns_per_inst(s.seconds(), s.work));
    let median_ms = |name: &str| {
        snap.get(name).and_then(|s| stats::median(&s.calls).ok()).map_or(0.0, |m| m * 1e3)
    };
    BTreeMap::from([
        ("workloads.compile_ms", median_ms("workloads.compile")),
        ("pipeline.trace_len_ms", median_ms("pipeline.trace_len")),
        ("pipeline.prepare_s", per_pass("pipeline.prepare")),
        ("pipeline.prepare_ns_per_inst", ns("pipeline.prepare")),
        ("pipeline.simpoint_s", per_pass("pipeline.simpoint")),
        // The fine sweep's work unit is an interval, not an instruction.
        ("pipeline.simpoint_us_per_interval", ns("pipeline.simpoint") / 1e3),
        ("coasts.select_s", per_pass("coasts.select")),
        ("multilevel.select_s", per_pass("multilevel.select")),
        ("estimate.truth_s", per_pass("estimate.truth")),
        ("estimate.truth_ns_per_inst", ns("estimate.truth")),
        ("estimate.plan_s", per_pass("estimate.plan")),
        ("estimate.plan_ns_per_inst", ns("estimate.plan")),
    ])
}

fn run(args: &Args) -> Result<Report, String> {
    match args.workload.as_str() {
        "reproduce" => reproduce::run(args),
        "serve-mix" => serve_mix::run(args),
        w => Err(format!("unknown workload {w:?} (reproduce | serve-mix)")),
    }
}

fn main() {
    let result = parse_args().and_then(|args| {
        let section = if args.trace { "per_layer" } else { "end_to_end" };
        let declared = declared_metrics(section)?;
        let report = run(&args)?;
        let mut metrics = Vec::with_capacity(declared.len());
        for (name, unit) in &declared {
            // A layer the workload makes no call into reads 0; every
            // end-to-end metric must be measured.
            let value = match report.metrics.get(name.as_str()) {
                Some(v) => *v,
                None if args.trace => 0.0,
                None => return Err(format!("workload {} did not measure {name}", args.workload)),
            };
            if !value.is_finite() {
                return Err(format!("{name} is not finite: {value}"));
            }
            metrics.push(format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                json::escape(name),
                json::escape(unit)
            ));
        }
        Ok(format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            report.correct,
            report.attempted,
            report.failed,
            metrics.join(", ")
        ))
    });
    match result {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("e2ebench: {e}");
            std::process::exit(2);
        }
    }
}
