//! `serve-mix`: an in-process `mlpa-serve` daemon (one worker, fresh
//! cache directory per round) under a closed-loop client. The
//! client POSTs `/analyze`, polls `/jobs/N` and fetches the result
//! before sending its next request. One client keeps the load within
//! one core of a small host, so a run measures the daemon rather than
//! the scheduler.
//!
//! Every key of a small pool (all three methods, both configs, four
//! benchmarks at reduced scale) is requested [`REPEATS`] times per
//! round in a seeded order, so most requests are cache hits and one per
//! key computes and stores. Request bodies carry no seed, so the seed
//! only orders the requests.
//!
//! The traced run starts alternate rounds through
//! `Daemon::start_with_executor` with `serve::analyze` wrapped in a
//! timer, which gives queue wait and service time per computation.

use std::collections::BTreeMap;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use mlpa_core::serve::{self, AnalyzeRequest, Daemon, ServeOptions};
use mlpa_core::ArtifactCache;
use mlpa_obs::http;
use mlpa_obs::json::{self, Value};
use mlpa_workloads::suite;

use crate::layers::Layers;
use crate::{another_pass, stats, timed_setup, Args, OutputCheck, Report};

const BENCHES: [&str; 4] = ["eon", "twolf", "lucas", "gzip"];
const METHODS: [&str; 3] = ["simpoint", "coasts", "multilevel"];
const CONFIGS: [&str; 2] = ["base", "sensitivity"];
const ITERS: usize = 1;
const SCALE: f64 = 0.25;
/// Requests per key per round.
const REPEATS: usize = 4;
/// A request not answered within this is a failed operation.
const REQUEST_TIMEOUT: Duration = Duration::from_secs(60);
/// A job is polled back to back for this long, then after an eighth
/// of the time waited so far, at most [`POLL_MAX`] apart.
const POLL_SPIN: Duration = Duration::from_millis(1);
const POLL_MAX: Duration = Duration::from_millis(2);
/// Traced rounds continue until this many computations were timed, so
/// the p90 of queue wait and service time has ten samples beyond it.
const MIN_TRACED_COMPUTES: usize = 100;

/// Scratch space for cache directories, inside the checkout.
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../.e2ebench-work");

/// The pool of distinct request bodies.
fn pool() -> Vec<String> {
    let mut bodies = Vec::new();
    for bench in BENCHES {
        for method in METHODS {
            for config in CONFIGS {
                bodies.push(format!(
                    "{{\"benchmark\":\"{bench}\",\"method\":\"{method}\",\"config\":\"{config}\",\
                     \"iters\":{ITERS},\"scale\":{SCALE}}}"
                ));
            }
        }
    }
    bodies
}

/// SplitMix64: a small deterministic generator for the request order.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Round `round`'s request order: every key [`REPEATS`] times,
/// Fisher-Yates shuffled from the workload seed.
fn sequence(keys: usize, seed: u64, round: u64) -> Vec<usize> {
    let mut seq: Vec<usize> = (0..keys).flat_map(|k| std::iter::repeat_n(k, REPEATS)).collect();
    let mut state = seed ^ round.wrapping_mul(0xD6E8_FEB8_6659_FD93);
    for i in (1..seq.len()).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        seq.swap(i, j);
    }
    seq
}

/// One client request as the client saw it.
struct Sent {
    key: usize,
    sent: Instant,
    /// When the 202 admission reply arrived.
    admitted: Option<Instant>,
    done: Instant,
    /// Seconds spent inside HTTP calls to the daemon.
    in_http: f64,
    result: Result<String, String>,
}

/// One call of the wrapped executor (traced rounds only).
struct Compute {
    key: usize,
    start: Instant,
    end: Instant,
}

fn job_field(body: &str, field: &str) -> Result<Value, String> {
    let v = json::parse(body).map_err(|e| format!("bad reply {body:?}: {e}"))?;
    v.get(field).cloned().ok_or_else(|| format!("reply without {field}: {body}"))
}

/// POST, poll until settled, fetch the result.
fn request(addr: SocketAddr, body: &str, key: usize) -> Sent {
    let sent = Instant::now();
    let mut admitted = None;
    let mut in_http = 0.0;
    let mut call = |f: &dyn Fn() -> std::io::Result<(u16, String)>| {
        let t = Instant::now();
        let r = f().map_err(|e| format!("HTTP: {e}"));
        in_http += t.elapsed().as_secs_f64();
        r
    };
    let result = (|| {
        let (code, reply) = call(&|| http::post(addr, "/analyze", "application/json", body))?;
        if code != 202 {
            return Err(format!("POST /analyze answered {code}: {reply}"));
        }
        admitted = Some(Instant::now());
        let id = job_field(&reply, "job")?.as_f64().ok_or("job id is not a number")? as u64;
        loop {
            let (code, reply) = call(&|| http::get(addr, &format!("/jobs/{id}")))?;
            if code != 200 {
                return Err(format!("GET /jobs/{id} answered {code}: {reply}"));
            }
            match job_field(&reply, "state")?.as_str() {
                Some("done") => break,
                Some("failed") => return Err(format!("job {id} failed: {reply}")),
                _ => {}
            }
            if sent.elapsed() > REQUEST_TIMEOUT {
                return Err(format!("job {id} timed out"));
            }
            // A hit settles within a few poll round trips, so sleeping
            // early would round its latency up to the sleep granularity
            // and a median near a step flips between steps run to run.
            let waited = sent.elapsed();
            if waited >= POLL_SPIN {
                std::thread::sleep((waited / 8).min(POLL_MAX));
            }
        }
        let (code, result) = call(&|| http::get(addr, &format!("/jobs/{id}/result")))?;
        if code != 200 {
            return Err(format!("GET /jobs/{id}/result answered {code}: {result}"));
        }
        Ok(result)
    })();
    Sent { key, sent, admitted, done: Instant::now(), in_http, result }
}

struct Round {
    sent: Vec<Sent>,
    computes: Vec<Compute>,
    /// First request sent to last result received.
    secs: f64,
    cache_bytes: u64,
}

fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

/// The daemon's options: the default queue on a cache directory, and
/// one worker. The one client never has two jobs in flight, so a second
/// worker would only take turns with the first, splitting the
/// computations' heap over two allocator arenas and making peak RSS
/// depend on which worker happened to compute which key.
fn options(dir: &Path) -> ServeOptions {
    ServeOptions { cache_dir: Some(dir.to_path_buf()), workers: 1, ..ServeOptions::default() }
}

fn start_daemon(
    dir: &Path,
    requests: &[AnalyzeRequest],
    computes: Option<Arc<Mutex<Vec<Compute>>>>,
) -> Result<Daemon, String> {
    let opts = options(dir);
    let Some(computes) = computes else { return Daemon::start(opts) };
    // The same wiring as `Daemon::start` (cache opened on the directory,
    // no budget), with the executor timed.
    let cache = Arc::new(ArtifactCache::open(dir)?);
    let exec_cache = Arc::clone(&cache);
    let requests = requests.to_vec();
    Daemon::start_with_executor(
        opts,
        Some(cache),
        Box::new(move |req| {
            let start = Instant::now();
            let out = serve::analyze(req, Some(Arc::clone(&exec_cache)));
            let end = Instant::now();
            let key = requests.iter().position(|r| r == req).unwrap_or(usize::MAX);
            computes.lock().expect("compute log poisoned").push(Compute { key, start, end });
            out
        }),
    )
}

fn round(
    bodies: &[String],
    requests: &[AnalyzeRequest],
    seq: &[usize],
    dir: &Path,
    traced: bool,
) -> Result<Round, String> {
    let _ = std::fs::remove_dir_all(dir);
    let log = traced.then(|| Arc::new(Mutex::new(Vec::new())));
    let daemon = start_daemon(dir, requests, log.clone())?;
    let addr = daemon.addr();
    let t0 = Instant::now();
    let sent: Vec<Sent> = seq.iter().map(|&key| request(addr, &bodies[key], key)).collect();
    let secs = t0.elapsed().as_secs_f64();
    daemon.stop();
    let cache_bytes = dir_bytes(dir);
    let _ = std::fs::remove_dir_all(dir);
    let computes = log
        .map_or_else(Vec::new, |l| std::mem::take(&mut *l.lock().expect("compute log poisoned")));
    Ok(Round { sent, computes, secs, cache_bytes })
}

/// Outputs of one round: the first body per key (the check compares
/// these with the stored and first-round bodies) and the number of
/// requests that failed or returned a body differing from their key's.
/// A result must also cover exactly its benchmark's trace.
fn round_outputs(r: &Round, keys: usize, trace_lens: &[u64]) -> (Vec<String>, u64) {
    let per_bench = keys / BENCHES.len();
    let mut first: Vec<Option<&str>> = vec![None; keys];
    let mut failed = 0;
    for s in &r.sent {
        match (&s.result, first[s.key]) {
            (Err(e), _) => {
                eprintln!("serve-mix: request for key {} failed: {e}", s.key);
                failed += 1;
            }
            (Ok(body), _) if total_insts(body) != trace_lens[s.key / per_bench] as f64 => {
                eprintln!("serve-mix: key {} result does not cover its trace: {body}", s.key);
                failed += 1;
            }
            (Ok(body), None) => first[s.key] = Some(body),
            (Ok(body), Some(f)) => failed += u64::from(body != f),
        }
    }
    let lines = first.iter().map(|b| b.unwrap_or("missing").to_string()).collect();
    (lines, failed)
}

fn total_insts(body: &str) -> f64 {
    job_field(body, "total_insts").ok().and_then(|v| v.as_f64()).unwrap_or(0.0)
}

/// Validate the pool, measure each benchmark's trace length, and check
/// that a daemon starts on a fresh cache directory and answers.
fn setup(
    bodies: &[String],
    layers: &Layers,
    dir: &Path,
) -> Result<(Vec<AnalyzeRequest>, Vec<u64>), String> {
    let requests =
        bodies.iter().map(|b| AnalyzeRequest::from_json(b)).collect::<Result<Vec<_>, _>>()?;
    let specs = BENCHES
        .iter()
        .map(|b| {
            suite::benchmark_with_iters(b, ITERS)
                .map(|s| s.scaled(SCALE))
                .ok_or_else(|| format!("unknown benchmark {b}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let lens = crate::trace_lengths(&specs, layers)?;
    let _ = std::fs::remove_dir_all(dir);
    let daemon = Daemon::start(options(dir))?;
    let health = http::get(daemon.addr(), "/healthz").map_err(|e| format!("GET /healthz: {e}"));
    daemon.stop();
    let _ = std::fs::remove_dir_all(dir);
    match health? {
        (200, _) => Ok((requests, lens)),
        (code, body) => Err(format!("GET /healthz answered {code}: {body}")),
    }
}

/// Run the workload.
pub fn run(args: &Args) -> Result<Report, String> {
    let work = PathBuf::from(WORK_DIR).join(format!("serve-{}", std::process::id()));
    std::fs::create_dir_all(&work).map_err(|e| format!("creating {}: {e}", work.display()))?;
    let result = run_in(args, &work);
    let _ = std::fs::remove_dir_all(&work);
    let _ = std::fs::remove_dir(WORK_DIR);
    result
}

fn run_in(args: &Args, work: &Path) -> Result<Report, String> {
    let layers = Layers::new(args.trace);
    let bodies = pool();
    let ((requests, trace_lens), setup_s) =
        timed_setup(|| setup(&bodies, &layers, &work.join("setup")))?;
    let mut check = OutputCheck::new("serve-mix.txt", args.write_expected)?;

    let start = Instant::now();
    let mut rounds: Vec<(bool, Round)> = Vec::new();
    let mut round_secs = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let traced_computes = |rounds: &[(bool, Round)]| {
        rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r.computes.len()).sum::<usize>()
    };
    loop {
        let more_traced = args.trace && traced_computes(&rounds) < MIN_TRACED_COMPUTES;
        if !more_traced && !another_pass(start, args.seconds, &round_secs, 2) {
            break;
        }
        let i = rounds.len() as u64;
        let traced = args.trace && i.is_multiple_of(2);
        let seq = sequence(bodies.len(), args.seed, i);
        let r = round(&bodies, &requests, &seq, &work.join(format!("round-{i}")), traced)?;
        let (lines, bad) = round_outputs(&r, bodies.len(), &trace_lens);
        attempted += r.sent.len() as u64;
        failed += bad + check.failures(&lines)?;
        crate::log_pass(round_secs.len(), r.secs, traced);
        round_secs.push(r.secs);
        rounds.push((traced, r));
    }

    let all: Vec<&Sent> = rounds.iter().flat_map(|(_, r)| &r.sent).collect();
    let latency_ms: Vec<f64> = all.iter().map(|s| (s.done - s.sent).as_secs_f64() * 1e3).collect();
    let metrics = if args.trace {
        let traced: Vec<&Round> = rounds.iter().filter(|(t, _)| *t).map(|(_, r)| r).collect();
        let untraced: Vec<f64> = rounds.iter().filter(|(t, _)| !*t).map(|(_, r)| r.secs).collect();
        let traced_secs: Vec<f64> = traced.iter().map(|r| r.secs).collect();
        let mut post_ms = Vec::new();
        let mut hit_ms = Vec::new();
        let mut wait_ms = Vec::new();
        let mut analyze_s = Vec::new();
        let (mut requests_n, mut computes_n, mut in_http, mut client_secs) = (0, 0, 0.0, 0.0);
        for r in &traced {
            requests_n += r.sent.len();
            computes_n += r.computes.len();
            for s in &r.sent {
                in_http += s.in_http;
                client_secs += (s.done - s.sent).as_secs_f64();
                if let Some(a) = s.admitted {
                    post_ms.push((a - s.sent).as_secs_f64() * 1e3);
                }
                if r.computes.iter().any(|c| c.key == s.key && c.end <= s.sent) {
                    hit_ms.push((s.done - s.sent).as_secs_f64() * 1e3);
                }
            }
            for c in &r.computes {
                analyze_s.push((c.end - c.start).as_secs_f64());
                // The computation was started by the earliest request
                // for its key sent before it began.
                if let Some(first) = r
                    .sent
                    .iter()
                    .filter(|s| s.key == c.key && s.sent <= c.start)
                    .map(|s| s.sent)
                    .min()
                {
                    wait_ms.push((c.start - first).as_secs_f64() * 1e3);
                }
            }
        }
        // Only the set-up's compile and trace-length calls are timed
        // here; the pipeline runs inside the daemon's `serve::analyze`.
        let mut metrics = crate::pipeline_layer_metrics(&layers, traced.len());
        metrics.extend([
            ("serve.post_ms", stats::percentile(&post_ms, 50.0)?),
            ("serve.hit_latency_ms", stats::percentile(&hit_ms, 50.0)?),
            ("serve.queue_wait_p50_ms", stats::percentile(&wait_ms, 50.0)?),
            ("serve.queue_wait_p90_ms", stats::percentile(&wait_ms, 90.0)?),
            ("serve.analyze_p50_s", stats::percentile(&analyze_s, 50.0)?),
            ("serve.analyze_p90_s", stats::percentile(&analyze_s, 90.0)?),
            ("serve.computes", computes_n as f64 / traced.len() as f64),
            ("serve.reuse_ratio", 1.0 - computes_n as f64 / requests_n as f64),
            ("serve.latency_p90_ms", stats::percentile(&latency_ms, 90.0)?),
            ("cache.bytes", traced.last().map_or(0, |r| r.cache_bytes) as f64),
            ("bench.trace_overhead_frac", crate::trace_overhead(&traced_secs, &untraced)?),
            // Client time not inside a call to the daemon is the
            // client waiting between polls.
            ("bench.layer_coverage_frac", in_http / client_secs),
        ]);
        metrics
    } else {
        // Per round: (completed requests, their trace instructions).
        let done = |r: &Round| {
            let ok: Vec<&String> = r.sent.iter().filter_map(|s| s.result.as_ref().ok()).collect();
            (ok.len() as f64, ok.iter().map(|b| total_insts(b)).sum::<f64>())
        };
        let minst: Vec<f64> = rounds
            .iter()
            .map(|(_, r)| stats::rate(done(r).1 / 1e6, r.secs))
            .collect::<Result<_, _>>()?;
        let reqs: Vec<f64> =
            rounds.iter().map(|(_, r)| stats::rate(done(r).0, r.secs)).collect::<Result<_, _>>()?;
        BTreeMap::from([
            ("setup_s", setup_s),
            ("minst_per_s", stats::median(&minst)?),
            ("req_per_s", stats::median(&reqs)?),
            ("latency_p50_ms", stats::percentile(&latency_ms, 50.0)?),
            ("peak_rss_mb", crate::peak_rss_mb()?),
        ])
    };
    Ok(Report { correct: failed == 0, attempted, failed, metrics })
}
