//! The `mlpa-obs` exit-code contract, driven through the real binary:
//! 0 when the input passes, 1 on a contract violation or a regression,
//! 2 on a usage error, an unreadable input or an unsupported schema.
//! CI steps that must fail (`! mlpa-obs ...`) depend on the 1, and a
//! stale artifact must fail loudly with its schema named rather than
//! pass or fail as if it were a regression.

use mlpa_obs::calibrate::MachineCalibration;
use std::path::PathBuf;
use std::process::Command;
use std::sync::atomic::{AtomicU64, Ordering};

/// A fresh scratch directory for one test's fixtures.
fn scratch_dir(name: &str) -> PathBuf {
    static SEQ: AtomicU64 = AtomicU64::new(0);
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let dir =
        std::env::temp_dir().join(format!("mlpa-obs-cli-{}-{seq}-{name}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Write `text` to `dir/name` and return the path as a string argument.
fn fixture(dir: &std::path::Path, name: &str, text: &str) -> String {
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

/// Run `mlpa-obs` with `args`; returns the exit code and stderr.
fn mlpa_obs(args: &[&str]) -> (i32, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mlpa-obs")).args(args).output().unwrap();
    (out.status.code().expect("exited normally"), String::from_utf8_lossy(&out.stderr).into())
}

fn assert_exit(args: &[&str], code: i32, stderr_has: &str) {
    let (got, stderr) = mlpa_obs(args);
    assert_eq!(got, code, "mlpa-obs {args:?} exited {got}, expected {code}; stderr:\n{stderr}");
    assert!(
        stderr.contains(stderr_has),
        "mlpa-obs {args:?}: stderr lacks `{stderr_has}`:\n{stderr}"
    );
}

const EVENTS: &str = concat!(
    "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
    "{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"tid\":0,\"t_us\":1,\"dur_us\":5}\n",
    "{\"ev\":\"worker\",\"pool\":\"p\",\"index\":0,\"tid\":1,\"busy_us\":3,\"wall_us\":4,\"jobs\":1}\n",
    "{\"ev\":\"counters\",\"t_us\":5,\"counters\":{\"sim.instructions\":10}}\n",
    "{\"ev\":\"run_end\",\"t_us\":9}\n",
);

fn report(instructions: u64) -> String {
    let required = [
        "phase.kmeans.iterations",
        "sim.instructions",
        "sim.l1d.hits",
        "sim.l1d.misses",
        "sim.l2.hits",
        "sim.l2.misses",
    ];
    mlpa_obs::Report {
        wall_s: 1.0,
        phases: vec![mlpa_obs::PhaseStat { name: "core.profile".into(), count: 2, total_s: 0.5 }],
        workers: vec![mlpa_obs::WorkerStat {
            pool: "plan".into(),
            index: 0,
            busy_s: 0.4,
            wall_s: 0.5,
            jobs: 3,
            busy_fraction: 0.8,
        }],
        counters: required
            .iter()
            .map(|n| (n.to_string(), if *n == "sim.instructions" { instructions } else { 1 }))
            .collect(),
        gauges: vec![("sim.rob.occupancy".into(), 12)],
        histograms: vec![mlpa_obs::HistogramStat {
            name: "sim.rob.occupancy".into(),
            unit: "n".into(),
            count: 4,
            sum: 20,
            min: 2,
            max: 8,
            p50: 7,
            p90: 8,
            p99: 8,
        }],
        self_profile: None,
    }
    .to_json()
}

fn trajectory() -> String {
    let cal = MachineCalibration {
        probe_ns: 100.0,
        min_ns: 98.0,
        dispersion: 0.02,
        repeats: 15,
        units: 1 << 17,
        cpus: 2,
        fingerprint: "x86_64-linux-c2".into(),
    };
    format!(
        "{{\"schema\": \"mlpa-bench-suite-v2\", \"snapshots\": [{{\"label\": \"base\", \
         \"calibration\": {}, \"benches\": [{{\"group\": \"substrate\", \"id\": \"detailed_sim\", \
         \"mean_ns\": 2000000, \"min_ns\": 1990000, \"max_ns\": 2010000, \"samples\": 10, \
         \"normalized\": 20000.0}}], \"speedups\": {{\"detailed_sim\": 2.0}}}}]}}\n",
        cal.to_json()
    )
}

#[test]
fn check_exit_codes() {
    let dir = scratch_dir("check");
    let events = fixture(&dir, "events.jsonl", EVENTS);
    let rep = fixture(&dir, "RUN_REPORT.json", &report(10));
    assert_exit(&["check", "--events", &events, "--report", &rep], 0, "");

    let planted = EVENTS.replacen("\"ev\":\"worker\"", "\"ev\":\"telemetry2\"", 1);
    let planted = fixture(&dir, "planted.jsonl", &planted);
    assert_exit(&["check", "--events", &planted], 1, "unknown event kind `telemetry2`");
    assert_exit(&["check", "--report", &rep, "--require-zero", "sim.l2.hits"], 1, "sim.l2.hits");

    let v2 = fixture(&dir, "v2.jsonl", &EVENTS.replace("mlpa-events-v3", "mlpa-events-v2"));
    assert_exit(&["check", "--events", &v2], 2, "mlpa-events-v2");
    let old = report(10).replacen("mlpa-run-report-v3", "mlpa-run-report-v2", 1);
    let old = fixture(&dir, "v2-report.json", &old);
    assert_exit(&["check", "--report", &old], 2, "mlpa-run-report-v2");
    assert_exit(&["check", "--events", &dir.join("absent").to_string_lossy()], 2, "absent");
}

#[test]
fn diff_exit_codes() {
    let dir = scratch_dir("diff");
    let base = fixture(&dir, "base.json", &report(10));
    assert_exit(&["diff", &base, &base], 0, "");
    let drifted = fixture(&dir, "drifted.json", &report(11));
    assert_exit(&["diff", &base, &drifted], 1, "sim.instructions");
    assert_exit(&["diff", &base, &drifted, "--only", "attribution"], 0, "");

    let old = report(10).replacen("mlpa-run-report-v3", "mlpa-run-report-v2", 1);
    let old = fixture(&dir, "v2.json", &old);
    assert_exit(&["diff", &old, &base], 2, "mlpa-run-report-v2");
    assert_exit(&["diff", &base, &old], 2, "mlpa-run-report-v2");
    assert_exit(&["diff", &base, &base, "--only", "wall"], 2, "unknown section `wall`");
}

#[test]
fn gate_exit_codes() {
    let dir = scratch_dir("gate");
    let traj = fixture(&dir, "BENCH.json", &trajectory());
    assert_exit(&["gate", &traj, &traj, "--no-trajectory"], 0, "");
    assert_exit(&["gate", &traj, &traj, "--cand-label", "base"], 0, "");
    assert_exit(&["gate", &traj, &traj, "--inflate", "substrate=1.5"], 1, "perf gate FAILED");
    assert_exit(&["gate", &traj, &traj, "--cand-label", "nope"], 2, "candidate");

    let v1 = trajectory().replacen("mlpa-bench-suite-v2", "mlpa-bench-suite-v1", 1);
    let v1 = fixture(&dir, "v1.json", &v1);
    assert_exit(&["gate", &v1, &traj], 2, "mlpa-bench-suite-v1");
}

#[test]
fn trace_exit_codes() {
    let dir = scratch_dir("trace");
    let events = fixture(&dir, "events.jsonl", EVENTS);
    let out = dir.join("trace.json").to_string_lossy().into_owned();
    assert_exit(&["trace", "--events", &events, "--out", &out], 0, "");
    let doc = mlpa_obs::json::parse(&std::fs::read_to_string(&out).unwrap()).unwrap();
    assert!(doc.get("traceEvents").and_then(|t| t.as_arr()).is_some_and(|t| !t.is_empty()));

    let planted = EVENTS.replacen("\"ev\":\"worker\"", "\"ev\":\"telemetry2\"", 1);
    let planted = fixture(&dir, "planted.jsonl", &planted);
    assert_exit(&["trace", "--events", &planted], 1, "telemetry2");
    let v2 = fixture(&dir, "v2.jsonl", &EVENTS.replace("mlpa-events-v3", "mlpa-events-v2"));
    assert_exit(&["trace", "--events", &v2], 2, "mlpa-events-v2");
}

#[test]
fn usage_errors_exit_2() {
    assert_exit(&[], 2, "unknown subcommand");
    assert_exit(&["inspect"], 2, "unknown subcommand `inspect`");
    assert_exit(&["check", "--bogus", "x"], 2, "unknown flag `--bogus`");
    assert_exit(&["diff", "a.json", "b.json", "--tol-counter", "0.1"], 2, "--tol-counter");
    assert_exit(&["gate", "a.json", "b.json", "--base-label", "x"], 2, "--base-label");
    assert_exit(&["check", "--events"], 2, "`--events` needs 1 value(s)");
    assert_exit(&["check", "--metrics-counter-min", "serve.requests"], 2, "needs 2 value(s)");
    assert_exit(&["trace", "--out"], 2, "`--out` needs 1 value(s)");
    assert_exit(&["check"], 2, "nothing to do");
    assert_exit(&["diff", "only-one.json"], 2, "expected 2 file argument(s)");
}
