//! `mlpa-obs check`: schema checks for obs output, used by the CI
//! obs-, telemetry-, cache-, streaming- and serve-smoke jobs.
//!
//! Validates (with no external tools) that:
//!
//! * an `mlpa-events-v3` JSONL event stream (`--events`) holds exactly
//!   one well-formed JSON object per line, each with a known `ev` tag
//!   and that tag's required fields (`tid` on span, worker and log
//!   events). The sampler's `sample` events must carry their own
//!   `mlpa-sample-v1` schema tag, a strictly increasing `tick`, and
//!   counter totals that never decrease between samples. An unknown
//!   event kind fails with a line-numbered, named error;
//! * a `RUN_REPORT.json` (`--report`) matches the `mlpa-run-report-v3`
//!   schema — including the gauge section, the optional span-aggregated
//!   self-profile, the histogram section and, when present, the
//!   accuracy attribution section — and reports the counters the
//!   acceptance criteria name (k-means iterations, cache hits/misses
//!   per level, instructions simulated);
//! * a `/metrics` scrape parses under the strict Prometheus text
//!   checker (`--metrics`), with counters monotone non-decreasing
//!   against an earlier scrape of the same run (`--metrics-prev`), and
//!   any `--metrics-counter-min NAME MIN` thresholds met (NAME is the
//!   dotted counter name, e.g. `serve.inflight_dedup` — the CI
//!   serve-smoke job uses this to prove concurrent identical requests
//!   actually deduplicated);
//! * a `/status` body matches the `mlpa-status-v1` schema (`--status`).
//!
//! Warm-cache mode (`--min-cache-hit-rate R`, used by the CI cache-smoke
//! job) changes what a valid report looks like: a fully warm resume run
//! performs no simulation at all, so the usual required sim counters and
//! non-empty histogram requirement are waived; instead the report must
//! show `core.cache.hits / (hits + misses) >= R`. Independently,
//! `--require-zero NAME` (repeatable) asserts a counter is absent or
//! zero — e.g. `core.truth.passes` on a resumed run.

use crate::{
    arr_field, expect_schema, field, load, num_field, number, obj_field, read, str_field, Args,
    Fail, Spec,
};
use mlpa_obs::json::{self, Value};
use mlpa_obs::promtext;
use std::collections::BTreeMap;

pub(crate) const SPEC: Spec = Spec {
    usage: "[--events F] [--report F] [--status F] \
            [--metrics F [--metrics-prev F] [--metrics-counter-min NAME MIN]...] \
            [--require-zero NAME]... [--require-nonzero NAME]... [--min-cache-hit-rate R]",
    flags: &[
        ("--events", 1),
        ("--report", 1),
        ("--metrics", 1),
        ("--metrics-prev", 1),
        ("--metrics-counter-min", 2),
        ("--status", 1),
        ("--require-zero", 1),
        ("--require-nonzero", 1),
        ("--min-cache-hit-rate", 1),
    ],
    files: 0,
    run,
};

/// Counters a complete instrumented run must have recorded.
const REQUIRED_COUNTERS: &[&str] = &[
    "phase.kmeans.iterations",
    "sim.instructions",
    "sim.l1d.hits",
    "sim.l1d.misses",
    "sim.l2.hits",
    "sim.l2.misses",
];

/// What `check_report` should enforce beyond the base schema.
#[derive(Default)]
struct ReportChecks {
    /// Counters that must be absent or exactly zero.
    require_zero: Vec<String>,
    /// `--require-nonzero NAME` (repeatable) asserts a counter is
    /// present with a nonzero total — e.g. the CI streaming-smoke job
    /// requires `core.profile.shard_resumes` after a resumed run, to
    /// prove it actually consumed checkpointed shard artifacts.
    require_nonzero: Vec<String>,
    /// Warm-cache mode: waive the required sim counters and the
    /// non-empty-histogram rule (a fully warm run records neither), and
    /// require `core.cache.hits / (hits + misses)` to reach this value.
    min_cache_hit_rate: Option<f64>,
}

pub(crate) fn run(args: &Args) -> Result<(), Fail> {
    let names = |flag| args.all(flag).map(|v| v[0].clone()).collect();
    let checks = ReportChecks {
        require_zero: names("--require-zero"),
        require_nonzero: names("--require-nonzero"),
        min_cache_hit_rate: args
            .value("--min-cache-hit-rate")
            .map(|r| number(r, "a rate in [0, 1]", |r| (0.0..=1.0).contains(&r)))
            .transpose()?,
    };
    let counter_min = args
        .all("--metrics-counter-min")
        .map(|v| Ok((v[0].clone(), number(&v[1], "a non-negative threshold", |m| m >= 0.0)?)))
        .collect::<Result<Vec<_>, Fail>>()?;
    let [events, report, metrics, status] =
        ["--events", "--report", "--metrics", "--status"].map(|flag| args.value(flag));
    if events.is_none() && report.is_none() && metrics.is_none() && status.is_none() {
        return Err(Fail::Error(
            "nothing to do (pass --events, --report, --metrics or --status)".into(),
        ));
    }
    let prev = args.value("--metrics-prev");
    if metrics.is_none() && (prev.is_some() || !counter_min.is_empty()) {
        return Err(Fail::Error("--metrics-prev / --metrics-counter-min need --metrics".into()));
    }

    if let Some(path) = events {
        let n = check_events(&read(path)?).map_err(|f| f.at(path))?;
        println!("mlpa-obs check: {path}: {n} events OK");
    }
    if let Some(path) = report {
        check_doc(&load(path)?, mlpa_obs::RUN_REPORT_SCHEMA, |v| check_report(v, &checks))
            .map_err(|f| f.at(path))?;
        println!("mlpa-obs check: {path}: report OK");
    }
    if let Some(path) = metrics {
        let prev = prev.map(read).transpose()?;
        let n = check_metrics(&read(path)?, prev.as_deref(), &counter_min)
            .map_err(|e| Fail::Violation(format!("{path}: {e}")))?;
        println!("mlpa-obs check: {path}: {n} metric samples OK");
    }
    if let Some(path) = status {
        check_doc(&load(path)?, mlpa_obs::STATUS_SCHEMA, check_status).map_err(|f| f.at(path))?;
        println!("mlpa-obs check: {path}: status OK");
    }
    Ok(())
}

/// Check a JSON document: refuse a foreign schema, then hold it to
/// `body`'s contract.
fn check_doc(
    v: &Value,
    schema: &str,
    body: impl FnOnce(&Value) -> Result<(), String>,
) -> Result<(), Fail> {
    expect_schema(v, schema)?;
    body(v).map_err(Fail::Violation)
}

/// Require the string fields `strs` and the numeric fields `nums`.
fn require(v: &Value, strs: &[&str], nums: &[&str]) -> Result<(), String> {
    strs.iter().try_for_each(|k| str_field(v, k).map(drop))?;
    nums.iter().try_for_each(|k| num_field(v, k).map(drop))
}

/// [`require`] on every item of the array field `key`; errors name the
/// item as `ctx[i]`.
fn require_each<'a>(
    v: &'a Value,
    key: &str,
    ctx: &str,
    strs: &[&str],
    nums: &[&str],
) -> Result<&'a [Value], String> {
    let items = arr_field(v, key)?;
    for (i, item) in items.iter().enumerate() {
        require(item, strs, nums).map_err(|e| format!("{ctx}[{i}]: {e}"))?;
    }
    Ok(items)
}

/// Require every value of an object to be a number.
fn all_numbers(map: &BTreeMap<String, Value>, what: &str) -> Result<(), String> {
    map.iter().try_for_each(|(name, value)| {
        value.as_f64().map(drop).ok_or_else(|| format!("{what} `{name}` is not a number"))
    })
}

/// Walk an `mlpa-events-v3` JSONL stream, the reader `check` and
/// `trace` share: one JSON object per line, each with an `ev` tag,
/// starting with a `run_start`. `each` sees every event in order; its
/// errors, like malformed lines, are violations numbered with their
/// line. A `run_start` that declares another schema — or none, as
/// streams before v2 did — is an unsupported-schema error. Returns the
/// number of events.
pub(crate) fn read_events(
    text: &str,
    mut each: impl FnMut(&str, &Value) -> Result<(), String>,
) -> Result<usize, Fail> {
    let mut count = 0;
    for (i, line) in text.lines().enumerate() {
        let at = |e: String| Fail::Violation(format!("line {}: {e}", i + 1));
        let v = json::parse(line).map_err(at)?;
        let ev = str_field(&v, "ev").map_err(at)?;
        if ev == "run_start" {
            expect_schema(&v, mlpa_obs::EVENTS_SCHEMA)
                .map_err(|f| f.at(&format!("line {}", i + 1)))?;
        } else if count == 0 {
            return Err(at("stream must begin with run_start".into()));
        }
        each(&ev, &v).map_err(at)?;
        count += 1;
    }
    if count == 0 {
        return Err(Fail::Violation("empty event stream".into()));
    }
    Ok(count)
}

/// Validate one `sample` event against the telemetry contract: the
/// payload schema must be [`mlpa_obs::SAMPLE_SCHEMA`], ticks strictly
/// increase, and no counter total may ever decrease between samples.
fn check_sample(
    v: &Value,
    last_tick: &mut Option<f64>,
    prev_counters: &mut Vec<(String, f64)>,
) -> Result<(), String> {
    let schema = str_field(v, "schema")?;
    if schema != mlpa_obs::SAMPLE_SCHEMA {
        return Err(format!("unknown sample schema `{schema}`"));
    }
    require(v, &[], &["t_us", "rss_bytes"])?;
    let tick = num_field(v, "tick")?;
    if let Some(prev) = *last_tick {
        if tick <= prev {
            return Err(format!("sample tick {tick} not greater than previous tick {prev}"));
        }
    }
    *last_tick = Some(tick);

    let counters = obj_field(v, "counters")?;
    all_numbers(counters, "counter")?;
    let mut current = Vec::with_capacity(counters.len());
    for (name, value) in counters {
        let value = value.as_f64().expect("checked");
        if let Some((_, prev)) = prev_counters.iter().find(|(n, _)| n == name) {
            if value < *prev {
                return Err(format!(
                    "counter `{name}` decreased between samples ({prev} -> {value})"
                ));
            }
        }
        current.push((name.clone(), value));
    }
    *prev_counters = current;

    all_numbers(obj_field(v, "gauges")?, "gauge")?;
    require_each(v, "pools", "pools", &["pool"], &["live", "jobs", "busy_ms", "busy_frac"])?;
    Ok(())
}

/// Validate a JSONL event stream; returns the number of events.
fn check_events(text: &str) -> Result<usize, Fail> {
    let mut saw_end = false;
    let mut last_tick: Option<f64> = None;
    let mut prev_sample_counters: Vec<(String, f64)> = Vec::new();
    let count = read_events(text, |ev, v| match ev {
        "run_start" => require(v, &[], &["t_us"]),
        "run_end" => {
            saw_end = true;
            require(v, &[], &["t_us"])
        }
        "span" => {
            require(v, &["name"], &["id", "tid", "t_us", "dur_us"])?;
            match field(v, "parent")? {
                Value::Null | Value::Num(_) => Ok(()),
                _ => Err("field `parent` is not a number or null".into()),
            }
        }
        "worker" => require(v, &["pool"], &["index", "tid", "busy_us", "wall_us", "jobs"]),
        "log" => require(v, &["level", "target", "msg"], &["t_us", "tid"]),
        "hist" => require(
            v,
            &["name", "unit"],
            &["t_us", "count", "sum", "min", "max", "p50", "p90", "p99"],
        ),
        "counters" => {
            require(v, &[], &["t_us"])?;
            all_numbers(obj_field(v, "counters")?, "counter")
        }
        "sample" => check_sample(v, &mut last_tick, &mut prev_sample_counters),
        other => Err(format!("unknown event kind `{other}`")),
    })?;
    if !saw_end {
        return Err(Fail::Violation("no run_end event".into()));
    }
    Ok(count)
}

/// Validate the optional span-aggregated self-profile section. Only
/// shape and internal consistency are checked here; which span names
/// and call counts are *expected* is `diff`'s job.
fn check_self_profile(sp: &Value) -> Result<(), String> {
    let spans = require_each(
        sp,
        "spans",
        "self_profile.spans",
        &["name"],
        &["calls", "total_s", "self_s", "p50_us", "p99_us"],
    )?;
    for (i, s) in spans.iter().enumerate() {
        let (total, own) = (num_field(s, "total_s")?, num_field(s, "self_s")?);
        if own < 0.0 || own > total + 1e-6 {
            return Err(format!(
                "self_profile.spans[{i}]: self_s {own} outside [0, total_s {total}]"
            ));
        }
    }
    let tree = require_each(sp, "tree", "self_profile.tree", &["name"], &["calls", "total_s"])?;
    for (i, e) in tree.iter().enumerate() {
        if !matches!(field(e, "parent")?, Value::Null | Value::Str(_)) {
            return Err(format!("self_profile.tree[{i}]: `parent` is not a string or null"));
        }
    }
    require_each(
        sp,
        "pools",
        "self_profile.pools",
        &["pool"],
        &["workers", "jobs", "busy_s", "wall_s", "utilization"],
    )?;
    match field(sp, "critical_path")? {
        Value::Null => Ok(()),
        c => require(
            c,
            &["pool"],
            &["workers", "wall_s", "max_busy_s", "mean_busy_s", "imbalance", "speedup_limit"],
        )
        .map_err(|e| format!("self_profile.critical_path: {e}")),
    }
}

/// Validate the body of an `mlpa-run-report-v3` document against the
/// base schema plus any extra `checks`.
fn check_report(v: &Value, checks: &ReportChecks) -> Result<(), String> {
    let wall_s = num_field(v, "wall_s")?;
    if wall_s <= 0.0 {
        return Err(format!("wall_s is {wall_s}, expected > 0"));
    }
    if require_each(v, "phases", "phases", &["name"], &["count", "total_s"])?.is_empty() {
        return Err("no phases recorded".into());
    }
    let workers = require_each(
        v,
        "workers",
        "workers",
        &["pool"],
        &["index", "busy_s", "wall_s", "jobs", "busy_fraction"],
    )?;
    if workers.is_empty() {
        return Err("no workers recorded".into());
    }
    for (i, w) in workers.iter().enumerate() {
        let frac = num_field(w, "busy_fraction")?;
        if !(0.0..=1.0 + 1e-6).contains(&frac) {
            return Err(format!("workers[{i}]: busy_fraction {frac} out of [0, 1]"));
        }
    }

    let counters = require_each(v, "counters", "counters", &["name"], &["value"])?;
    let values = counters
        .iter()
        .map(|c| Ok((str_field(c, "name")?, num_field(c, "value")?)))
        .collect::<Result<Vec<_>, String>>()?;
    // A fully warm resume run performs no simulation, so the sim counter
    // requirement only applies outside warm-cache mode.
    if checks.min_cache_hit_rate.is_none() {
        if let Some(missing) =
            REQUIRED_COUNTERS.iter().find(|r| !values.iter().any(|(n, _)| n == *r))
        {
            return Err(format!("missing required counter `{missing}`"));
        }
    }
    let counter = |name: &str| values.iter().find(|(n, _)| n == name).map(|(_, v)| *v);
    for name in &checks.require_zero {
        if let Some(value) = counter(name).filter(|&v| v != 0.0) {
            return Err(format!("counter `{name}` is {value}, expected 0 or absent"));
        }
    }
    for name in &checks.require_nonzero {
        match counter(name) {
            None => return Err(format!("counter `{name}` is absent, expected nonzero")),
            Some(0.0) => return Err(format!("counter `{name}` is 0, expected nonzero")),
            Some(_) => {}
        }
    }
    if let Some(min_rate) = checks.min_cache_hit_rate {
        let hits = counter("core.cache.hits").unwrap_or(0.0);
        let misses = counter("core.cache.misses").unwrap_or(0.0);
        if hits + misses <= 0.0 {
            return Err("no core.cache.hits/misses recorded; was the run cached at all?".into());
        }
        let rate = hits / (hits + misses);
        if rate < min_rate {
            return Err(format!(
                "cache hit rate {rate:.3} ({hits} hits / {misses} misses) below required \
                 {min_rate:.3}"
            ));
        }
    }

    require_each(v, "gauges", "gauges", &["name"], &["value"])?;
    let hists = require_each(
        v,
        "histograms",
        "histograms",
        &["name", "unit"],
        &["count", "sum", "min", "max", "p50", "p90", "p99"],
    )?;
    if hists.is_empty() && checks.min_cache_hit_rate.is_none() {
        return Err("no histograms recorded".into());
    }
    for (i, h) in hists.iter().enumerate() {
        let count = num_field(h, "count")?;
        if count <= 0.0 {
            return Err(format!("histograms[{i}]: count {count}, expected > 0"));
        }
        let (min, max) = (num_field(h, "min")?, num_field(h, "max")?);
        if min > max {
            return Err(format!("histograms[{i}]: min {min} > max {max}"));
        }
        for q in ["p50", "p90", "p99"] {
            let p = num_field(h, q)?;
            if p < min || p > max {
                return Err(format!("histograms[{i}]: {q} {p} outside [min, max]"));
            }
        }
    }

    // The self-profile section is optional (absent when no spans were
    // collected) but must be well-formed when present.
    match v.get("self_profile") {
        None | Some(Value::Null) => {}
        Some(sp) => check_self_profile(sp)?,
    }

    // The accuracy attribution section is optional (only emitted by the
    // experiment harness with --attrib) but must be well-formed when
    // present.
    if v.get("attribution").is_some() {
        let attrib = require_each(v, "attribution", "attribution", &["benchmark"], &[])?;
        for (i, a) in attrib.iter().enumerate() {
            let ctx = format!("attribution[{i}].phases");
            require_each(a, "phases", &ctx, &[], &["cluster", "weight", "cpi_err_share"])
                .map_err(|e| format!("attribution[{i}]: {e}"))?;
        }
    }
    Ok(())
}

/// Validate a `/metrics` scrape under the strict Prometheus text
/// checker; with an earlier scrape of the same run, additionally
/// require every counter series to be monotone non-decreasing; with
/// `counter_min` thresholds (dotted counter names), require each named
/// counter to reach its minimum. Returns the number of samples in the
/// current scrape.
fn check_metrics(
    current: &str,
    prev: Option<&str>,
    counter_min: &[(String, f64)],
) -> Result<usize, String> {
    let cur = promtext::check(current)?;
    if let Some(prev_text) = prev {
        let prev = promtext::check(prev_text).map_err(|e| format!("previous scrape: {e}"))?;
        let cur_counters = cur.counter_values();
        for (name, pv) in prev.counter_values() {
            let cv = *cur_counters
                .get(name)
                .ok_or_else(|| format!("counter `{name}` disappeared between scrapes"))?;
            if cv < pv {
                return Err(format!("counter `{name}` decreased between scrapes ({pv} -> {cv})"));
            }
        }
    }
    for (name, min) in counter_min {
        // Accept the dotted registry name and map it to the rendered
        // series name, so CI asserts on the same spelling the code uses.
        let series = format!("mlpa_counter_{}_total", promtext::sanitize(name));
        let value = *cur
            .samples
            .get(series.as_str())
            .ok_or_else(|| format!("counter `{name}` (`{series}`) missing from scrape"))?;
        if value < *min {
            return Err(format!("counter `{name}` is {value}, expected at least {min}"));
        }
    }
    Ok(cur.samples.len())
}

/// Validate the body of a `GET /status` document (`mlpa-status-v1`).
fn check_status(v: &Value) -> Result<(), String> {
    require(
        v,
        &["phase"],
        &["benchmarks_done", "benchmarks_total", "segment", "uptime_ticks", "rss_bytes"],
    )?;
    all_numbers(obj_field(v, "gauges")?, "gauge")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn events_err(stream: &str) -> Fail {
        check_events(stream).unwrap_err()
    }

    #[test]
    fn rejects_bad_event_lines() {
        let start = "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n";
        assert!(check_events("").is_err());
        assert!(check_events(&format!("{start}not json\n")).is_err());
        assert!(check_events(&format!("{start}\n{{\"ev\":\"run_end\",\"t_us\":1}}\n")).is_err());
        assert!(check_events("{\"ev\":\"mystery\"}\n").is_err());
        // Missing run_end.
        assert!(check_events(start).is_err());
        // First event must be run_start.
        assert!(check_events("{\"ev\":\"run_end\",\"t_us\":0}\n").is_err());
    }

    #[test]
    fn unknown_event_kinds_are_named_in_the_error() {
        // A bogus event planted mid-stream must fail with the kind
        // named and the line numbered, not be silently skipped.
        let planted = concat!(
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
            "{\"ev\":\"telemetry2\",\"t_us\":1}\n",
            "{\"ev\":\"run_end\",\"t_us\":9}\n",
        );
        let err = events_err(planted);
        assert!(matches!(err, Fail::Violation(_)), "{err:?}");
        let err = err.to_string();
        assert!(
            err.starts_with("line 2:") && err.contains("unknown event kind `telemetry2`"),
            "{err}"
        );
    }

    fn sample_line(tick: u64, insts: u64) -> String {
        format!(
            "{{\"ev\":\"sample\",\"schema\":\"mlpa-sample-v1\",\"tick\":{tick},\"t_us\":{},\
             \"rss_bytes\":1048576,\"counters\":{{\"sim.instructions\":{insts}}},\
             \"gauges\":{{\"sim.rob.occupancy\":12}},\
             \"pools\":[{{\"pool\":\"plan\",\"live\":2,\"jobs\":3,\"busy_ms\":40,\
             \"busy_frac\":1.7321}}]}}\n",
            tick * 250_000,
        )
    }

    #[test]
    fn accepts_a_complete_v3_stream() {
        let stream = format!(
            concat!(
                "{{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}}\n",
                "{s0}",
                "{{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"tid\":0,\
                 \"t_us\":1,\"dur_us\":5}}\n",
                "{{\"ev\":\"log\",\"t_us\":2,\"tid\":0,\"level\":\"info\",\"target\":\"t\",\
                 \"msg\":\"m\"}}\n",
                "{{\"ev\":\"worker\",\"pool\":\"p\",\"index\":0,\"tid\":1,\"busy_us\":3,\
                 \"wall_us\":4,\"jobs\":1}}\n",
                "{{\"ev\":\"counters\",\"t_us\":5,\"counters\":{{\"sim.instructions\":10}}}}\n",
                "{{\"ev\":\"hist\",\"t_us\":8,\"name\":\"sim.rob.occupancy\",\"unit\":\"n\",\
                 \"count\":4,\"sum\":20,\"min\":2,\"max\":8,\"p50\":7,\"p90\":8,\"p99\":8}}\n",
                "{s1}",
                "{{\"ev\":\"run_end\",\"t_us\":9}}\n",
            ),
            s0 = sample_line(0, 100),
            s1 = sample_line(1, 250),
        );
        assert_eq!(check_events(&stream).unwrap(), 9);
    }

    #[test]
    fn sample_contract_is_enforced() {
        let wrap = |middle: &str| {
            format!(
                "{{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}}\n\
                 {middle}{{\"ev\":\"run_end\",\"t_us\":9}}\n"
            )
        };

        // The payload must declare the sample schema this checker knows.
        let bad_schema = sample_line(0, 100).replace("mlpa-sample-v1", "mlpa-sample-v9");
        let err = events_err(&wrap(&bad_schema)).to_string();
        assert!(err.contains("unknown sample schema `mlpa-sample-v9`"), "{err}");

        // Ticks must strictly increase.
        let stuck = format!("{}{}", sample_line(3, 100), sample_line(3, 200));
        let err = events_err(&wrap(&stuck)).to_string();
        assert!(err.starts_with("line 3:") && err.contains("tick"), "{err}");

        // Counter totals never decrease between samples.
        let shrinking = format!("{}{}", sample_line(0, 500), sample_line(1, 400));
        let err = events_err(&wrap(&shrinking)).to_string();
        assert!(err.starts_with("line 3:") && err.contains("decreased between samples"), "{err}");
    }

    #[test]
    fn spans_workers_and_logs_need_a_thread_id() {
        let no_tid = concat!(
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
            "{\"ev\":\"span\",\"name\":\"a\",\"id\":1,\"parent\":null,\"t_us\":1,\"dur_us\":5}\n",
            "{\"ev\":\"run_end\",\"t_us\":9}\n",
        );
        let err = events_err(no_tid).to_string();
        assert!(err.starts_with("line 2:") && err.contains("tid"), "{err}");
    }

    #[test]
    fn streams_of_other_generations_are_refused_by_schema() {
        // A v2 stream (and a v4 one) is refused by name, as an input
        // error rather than a contract violation.
        for schema in ["mlpa-events-v2", "mlpa-events-v4"] {
            let stream = format!(
                "{{\"ev\":\"run_start\",\"schema\":\"{schema}\",\"t_us\":0}}\n\
                 {{\"ev\":\"run_end\",\"t_us\":9}}\n"
            );
            let err = events_err(&stream);
            assert!(matches!(err, Fail::Error(_)), "{err:?}");
            assert!(err.to_string().contains(schema), "{err}");
        }
        // Streams before v2 declared no schema at all.
        let v1 = "{\"ev\":\"run_start\",\"t_us\":0}\n{\"ev\":\"run_end\",\"t_us\":9}\n";
        let err = events_err(v1);
        assert!(matches!(err, Fail::Error(_)) && err.to_string().contains("schema"), "{err:?}");
        // A second run of another generation appended to a v3 stream.
        let appended = concat!(
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v3\",\"t_us\":0}\n",
            "{\"ev\":\"run_end\",\"t_us\":1}\n",
            "{\"ev\":\"run_start\",\"schema\":\"mlpa-events-v2\",\"t_us\":0}\n",
            "{\"ev\":\"run_end\",\"t_us\":1}\n",
        );
        let err = events_err(appended).to_string();
        assert!(err.starts_with("line 3:") && err.contains("mlpa-events-v2"), "{err}");
    }

    fn sample_report() -> mlpa_obs::Report {
        mlpa_obs::Report {
            wall_s: 1.0,
            phases: vec![mlpa_obs::PhaseStat {
                name: "core.profile".into(),
                count: 2,
                total_s: 0.5,
            }],
            workers: vec![mlpa_obs::WorkerStat {
                pool: "plan".into(),
                index: 0,
                busy_s: 0.4,
                wall_s: 0.5,
                jobs: 3,
                busy_fraction: 0.8,
            }],
            counters: REQUIRED_COUNTERS.iter().map(|n| (n.to_string(), 1)).collect(),
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
    }

    fn base() -> ReportChecks {
        ReportChecks::default()
    }

    fn report(doc: &str, checks: &ReportChecks) -> Result<(), String> {
        check_report(&json::parse(doc).unwrap(), checks)
    }

    #[test]
    fn report_schema_is_enforced() {
        let mut r = sample_report();
        assert!(report(&r.to_json(), &base()).is_ok());
        r.counters.remove(0);
        let err = report(&r.to_json(), &base()).unwrap_err();
        assert!(err.contains("phase.kmeans.iterations"), "{err}");
    }

    #[test]
    fn reports_of_other_generations_are_refused_by_schema() {
        let v2 = sample_report().to_json().replacen("mlpa-run-report-v3", "mlpa-run-report-v2", 1);
        let err = check_doc(&json::parse(&v2).unwrap(), mlpa_obs::RUN_REPORT_SCHEMA, |v| {
            check_report(v, &base())
        })
        .unwrap_err();
        assert!(matches!(err, Fail::Error(_)), "{err:?}");
        assert!(err.to_string().contains("mlpa-run-report-v2"), "{err}");
    }

    #[test]
    fn report_histograms_are_validated() {
        let mut r = sample_report();
        r.histograms.clear();
        assert!(report(&r.to_json(), &base()).unwrap_err().contains("histograms"));
        let mut r = sample_report();
        r.histograms[0].p99 = 9; // outside [min, max]
        let err = report(&r.to_json(), &base()).unwrap_err();
        assert!(err.contains("p99"), "{err}");
    }

    #[test]
    fn report_self_profile_is_validated_when_present() {
        use mlpa_obs::selfprofile::{SelfProfile, SpanAgg, SpanEdge};
        let mut r = sample_report();
        r.self_profile = Some(SelfProfile {
            spans: vec![SpanAgg {
                name: "core.profile".into(),
                calls: 2,
                total_s: 0.5,
                self_s: 0.3,
                p50_us: 100,
                p99_us: 400,
            }],
            tree: vec![SpanEdge {
                parent: None,
                name: "core.profile".into(),
                calls: 2,
                total_s: 0.5,
            }],
            ..SelfProfile::default()
        });
        assert!(report(&r.to_json(), &base()).is_ok(), "{:?}", report(&r.to_json(), &base()));
        // A span whose self time exceeds its total is inconsistent.
        r.self_profile.as_mut().unwrap().spans[0].self_s = 0.9;
        let err = report(&r.to_json(), &base()).unwrap_err();
        assert!(err.contains("self_s"), "{err}");
    }

    #[test]
    fn report_attribution_section_is_validated_when_present() {
        let r = sample_report();
        let good = "[{\"benchmark\": \"eon\", \"phases\": [{\"cluster\": 0, \"weight\": 1.0, \
                    \"cpi_err_share\": -0.01}]}]";
        let doc = r.to_json_with(&[("attribution".to_string(), good.to_string())]);
        assert!(report(&doc, &base()).is_ok(), "{:?}", report(&doc, &base()));
        let bad = "[{\"phases\": []}]";
        let doc = r.to_json_with(&[("attribution".to_string(), bad.to_string())]);
        assert!(report(&doc, &base()).unwrap_err().contains("benchmark"));
    }

    #[test]
    fn require_zero_accepts_absent_or_zero_and_rejects_nonzero() {
        let mut r = sample_report();
        let checks = ReportChecks {
            require_zero: vec!["core.truth.passes".into(), "core.profile.base_passes".into()],
            ..ReportChecks::default()
        };
        // Absent counters pass.
        assert!(report(&r.to_json(), &checks).is_ok());
        // Present-but-zero passes.
        r.counters.push(("core.truth.passes".into(), 0));
        assert!(report(&r.to_json(), &checks).is_ok());
        // Nonzero fails with the counter named.
        r.counters.push(("core.profile.base_passes".into(), 3));
        let err = report(&r.to_json(), &checks).unwrap_err();
        assert!(err.contains("core.profile.base_passes") && err.contains("expected 0"), "{err}");
    }

    #[test]
    fn require_nonzero_demands_a_present_nonzero_counter() {
        let mut r = sample_report();
        let checks = ReportChecks {
            require_nonzero: vec!["core.profile.shard_resumes".into()],
            ..ReportChecks::default()
        };
        // Absent fails.
        let err = report(&r.to_json(), &checks).unwrap_err();
        assert!(err.contains("core.profile.shard_resumes") && err.contains("absent"), "{err}");
        // Present-but-zero fails.
        r.counters.push(("core.profile.shard_resumes".into(), 0));
        let err = report(&r.to_json(), &checks).unwrap_err();
        assert!(err.contains("expected nonzero"), "{err}");
        // Nonzero passes.
        r.counters.last_mut().unwrap().1 = 7;
        assert!(report(&r.to_json(), &checks).is_ok());
    }

    #[test]
    fn warm_cache_mode_waives_sim_requirements_and_gates_hit_rate() {
        // A fully warm run: no sim counters, no histograms, only cache
        // traffic. The base checks reject it; warm-cache mode accepts it
        // when the hit rate clears the bar.
        let mut r = sample_report();
        r.counters = vec![("core.cache.hits".into(), 19), ("core.cache.misses".into(), 1)];
        r.histograms.clear();
        assert!(report(&r.to_json(), &base()).is_err());
        let warm = ReportChecks { min_cache_hit_rate: Some(0.9), ..ReportChecks::default() };
        assert!(report(&r.to_json(), &warm).is_ok(), "{:?}", report(&r.to_json(), &warm));

        // Too many misses: rejected with the measured rate.
        r.counters = vec![("core.cache.hits".into(), 1), ("core.cache.misses".into(), 1)];
        let err = report(&r.to_json(), &warm).unwrap_err();
        assert!(err.contains("hit rate") && err.contains("0.5"), "{err}");

        // No cache traffic at all: a warm-cache check must not pass
        // vacuously (0/0 is not a 100% hit rate).
        r.counters.clear();
        let err = report(&r.to_json(), &warm).unwrap_err();
        assert!(err.contains("cached at all"), "{err}");
    }

    fn scrape(insts: u64) -> String {
        format!(
            "# HELP mlpa_counter_sim_instructions_total Monotonic counter.\n\
             # TYPE mlpa_counter_sim_instructions_total counter\n\
             mlpa_counter_sim_instructions_total {insts}\n\
             # HELP mlpa_gauge_sim_rob_occupancy Last-write-wins gauge.\n\
             # TYPE mlpa_gauge_sim_rob_occupancy gauge\n\
             mlpa_gauge_sim_rob_occupancy 12\n"
        )
    }

    #[test]
    fn metrics_scrapes_must_parse_and_counters_must_grow() {
        assert_eq!(check_metrics(&scrape(100), None, &[]).unwrap(), 2);
        // Counters up or flat between scrapes: fine. Gauges may move
        // either way and are not compared.
        assert!(check_metrics(&scrape(250), Some(&scrape(100)), &[]).is_ok());
        assert!(check_metrics(&scrape(100), Some(&scrape(100)), &[]).is_ok());
        // A shrinking counter is a torn or restarted registry.
        let err = check_metrics(&scrape(100), Some(&scrape(250)), &[]).unwrap_err();
        assert!(err.contains("decreased between scrapes"), "{err}");
        // A malformed exposition is rejected outright.
        assert!(check_metrics("mlpa_counter_x_total 1\n", None, &[]).is_err());
    }

    #[test]
    fn counter_thresholds_accept_dotted_names() {
        let met = [("sim.instructions".to_string(), 100.0)];
        assert!(check_metrics(&scrape(100), None, &met).is_ok());
        let unmet = [("sim.instructions".to_string(), 101.0)];
        let err = check_metrics(&scrape(100), None, &unmet).unwrap_err();
        assert!(err.contains("at least 101"), "{err}");
        let missing = [("serve.inflight_dedup".to_string(), 1.0)];
        let err = check_metrics(&scrape(100), None, &missing).unwrap_err();
        assert!(err.contains("serve.inflight_dedup") && err.contains("missing"), "{err}");
    }

    #[test]
    fn status_body_is_validated() {
        let good = "{\"schema\":\"mlpa-status-v1\",\"phase\":\"benchmarks\",\
                    \"benchmarks_done\":1,\"benchmarks_total\":3,\"segment\":7,\
                    \"uptime_ticks\":12,\"rss_bytes\":1048576,\
                    \"gauges\":{\"bench.done\":1}}";
        let status = |doc: &str| {
            check_doc(&json::parse(doc).unwrap(), mlpa_obs::STATUS_SCHEMA, check_status)
        };
        assert!(status(good).is_ok(), "{:?}", status(good));
        let err = status(&good.replace("mlpa-status-v1", "mlpa-status-v9")).unwrap_err();
        assert!(err.to_string().contains("mlpa-status-v9"), "{err}");
        let err = status(&good.replace(",\"uptime_ticks\":12", "")).unwrap_err();
        assert!(err.to_string().contains("uptime_ticks"), "{err}");
    }
}
