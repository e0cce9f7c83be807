//! `mlpa-obs diff`: cross-run regression gate over two
//! `mlpa-run-report-v3` documents.
//!
//! Only *deterministic* metrics — identical across machines for the
//! same inputs — are compared, and exactly: counter totals, span
//! counts, value-histogram (`"n"`-unit) contents, per-pool worker row
//! counts and job totals, gauge names, self-profile span call counts
//! and call-tree edges, and the accuracy attribution's weights and
//! error shares. *Timing* metrics (`wall_s`, span `total_s`, worker
//! `busy_s`, `"us"`-unit histogram quantiles, gauge values) are never
//! compared: CI machines vary too much for a hard gate, and the
//! calibrated `gate` subcommand owns performance.
//!
//! A metric present in the baseline but missing from the current run is
//! always a failure; new metrics in the current run are reported but
//! pass (instrumentation is expected to grow).
//!
//! `--only` restricts the diff to the named sections (`phases`,
//! `counters`, `workers`, `histograms`, `gauges`, `self_profile`,
//! `attribution`). The CI cache-smoke job uses `--only attribution` to
//! compare a cold run against a warm `--resume` run: the accuracy
//! outputs must be identical, while phase/counter/worker traffic
//! legitimately collapses to almost nothing when every artifact is
//! served from the cache.

use crate::{arr_field, expect_schema, load, num_field, str_field, Args, Fail, Spec};
use mlpa_obs::json::Value;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Display;

pub(crate) const SPEC: Spec = Spec {
    usage: "<baseline RUN_REPORT.json> <current RUN_REPORT.json> [--only SECTION[,SECTION]...]",
    flags: &[("--only", 1)],
    files: 2,
    run,
};

/// Run-report sections `--only` can select.
const SECTIONS: &[&str] =
    &["phases", "counters", "workers", "histograms", "gauges", "self_profile", "attribution"];

pub(crate) fn run(args: &Args) -> Result<(), Fail> {
    let mut only: Option<BTreeSet<&str>> = None;
    for list in args.all("--only") {
        let set = only.get_or_insert_with(BTreeSet::new);
        for section in list[0].split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let known = SECTIONS.iter().find(|s| **s == section).ok_or_else(|| {
                Fail::Error(format!(
                    "unknown section `{section}` (expected one of: {})",
                    SECTIONS.join(", ")
                ))
            })?;
            set.insert(known);
        }
    }
    if only.as_ref().is_some_and(BTreeSet::is_empty) {
        return Err(Fail::Error("--only needs at least one section".into()));
    }
    let docs = args
        .files
        .iter()
        .map(|path| {
            let v = load(path)?;
            expect_schema(&v, mlpa_obs::RUN_REPORT_SCHEMA).map_err(|f| f.at(path))?;
            Ok(v)
        })
        .collect::<Result<Vec<_>, Fail>>()?;
    let d = diff(&docs[0], &docs[1], only.as_ref()).map_err(Fail::Error)?;
    for note in &d.notes {
        println!("mlpa-obs diff: note: {note}");
    }
    for f in &d.failures {
        eprintln!("mlpa-obs diff: FAIL: {f}");
    }
    let pair = format!("{} vs {}", args.files[0], args.files[1]);
    if d.failures.is_empty() {
        println!("mlpa-obs diff: {pair}: OK");
        Ok(())
    } else {
        Err(Fail::Violation(format!("{pair}: {} regression(s)", d.failures.len())))
    }
}

/// Accumulates mismatches (fail the gate) and notes (informational).
#[derive(Debug, Default)]
struct Diff {
    failures: Vec<String>,
    notes: Vec<String>,
}

impl Diff {
    /// Deterministic metrics must match exactly.
    fn check_eq(&mut self, what: &str, base: f64, cur: f64) {
        if (cur - base).abs() > 1e-12 {
            self.failures.push(format!("{what}: baseline {base}, current {cur}"));
        }
    }

    /// Walk baseline/current maps in parallel: every baseline entry must
    /// exist in current (missing = fail); entries only in current are
    /// noted. `f` compares the matched pairs.
    fn matched<K: Ord + Display, T>(
        &mut self,
        what: &str,
        base: &BTreeMap<K, T>,
        cur: &BTreeMap<K, T>,
        mut f: impl FnMut(&mut Diff, &str, &T, &T) -> Result<(), String>,
    ) -> Result<(), String> {
        for (key, b) in base {
            let name = format!("{what} `{key}`");
            match cur.get(key) {
                None => self.failures.push(format!("{name} missing from current run")),
                Some(c) => f(self, &name, b, c)?,
            }
        }
        for key in cur.keys().filter(|k| !base.contains_key(k)) {
            self.notes.push(format!("{what} `{key}` is new in current run"));
        }
        Ok(())
    }
}

/// Index an array of objects by a string key.
fn by_key<'a>(
    v: &'a Value,
    section: &str,
    key: &str,
) -> Result<BTreeMap<String, &'a Value>, String> {
    arr_field(v, section)?
        .iter()
        .map(|item| Ok((str_field(item, key).map_err(|e| format!("{section}: {e}"))?, item)))
        .collect()
}

fn diff(base: &Value, cur: &Value, only: Option<&BTreeSet<&str>>) -> Result<Diff, String> {
    let wants = |section: &str| only.is_none_or(|s| s.contains(section));
    let mut diff = Diff::default();

    // Spans: the set of phases and how often each ran is deterministic;
    // total_s is timing.
    if wants("phases") {
        let (b, c) = (by_key(base, "phases", "name")?, by_key(cur, "phases", "name")?);
        diff.matched("phase", &b, &c, |diff, name, b, c| {
            diff.check_eq(&format!("{name} count"), num_field(b, "count")?, num_field(c, "count")?);
            Ok(())
        })?;
    }

    // Counters are exact totals.
    if wants("counters") {
        let (b, c) = (by_key(base, "counters", "name")?, by_key(cur, "counters", "name")?);
        diff.matched("counter", &b, &c, |diff, name, b, c| {
            diff.check_eq(name, num_field(b, "value")?, num_field(c, "value")?);
            Ok(())
        })?;
    }

    // Workers: per-pool row counts and job totals are deterministic
    // (which worker got which job is not — dynamic claiming).
    if wants("workers") {
        let pool_totals = |v: &Value| -> Result<BTreeMap<String, (f64, f64)>, String> {
            let mut map: BTreeMap<String, (f64, f64)> = BTreeMap::new();
            for w in arr_field(v, "workers")? {
                let entry = map.entry(str_field(w, "pool")?).or_default();
                entry.0 += 1.0;
                entry.1 += num_field(w, "jobs")?;
            }
            Ok(map)
        };
        let (b, c) = (pool_totals(base)?, pool_totals(cur)?);
        diff.matched("worker pool", &b, &c, |diff, name, b, c| {
            diff.check_eq(&format!("{name} workers"), b.0, c.0);
            diff.check_eq(&format!("{name} jobs"), b.1, c.1);
            Ok(())
        })?;
    }

    // Value histograms are deterministic; time (`"us"`) histograms are
    // timing and only their sample counts are compared.
    if wants("histograms") {
        let (b, c) = (by_key(base, "histograms", "name")?, by_key(cur, "histograms", "name")?);
        diff.matched("histogram", &b, &c, |diff, name, b, c| {
            let keys: &[&str] = match str_field(b, "unit")?.as_str() {
                "us" => &["count"],
                _ => &["count", "sum", "min", "max", "p50", "p90", "p99"],
            };
            for k in keys {
                diff.check_eq(&format!("{name} {k}"), num_field(b, k)?, num_field(c, k)?);
            }
            Ok(())
        })?;
    }

    // Which gauges exist is deterministic for a fixed configuration;
    // their last-written values depend on scheduling and are never
    // compared.
    if wants("gauges") {
        let (b, c) = (by_key(base, "gauges", "name")?, by_key(cur, "gauges", "name")?);
        diff.matched("gauge", &b, &c, |_, _, _, _| Ok(()))?;
    }

    // Self-profile: span names, call counts, and call-tree edges are
    // deterministic; all wall times, pool utilization, and the
    // critical-path summary are timing and never compared. The section
    // is null when a run collected no spans.
    if wants("self_profile") {
        let non_null = |v: &Value| v.get("self_profile").filter(|sp| **sp != Value::Null).cloned();
        match (non_null(base), non_null(cur)) {
            (Some(b), Some(c)) => diff_self_profile(&mut diff, &b, &c)?,
            (Some(_), None) => {
                diff.failures.push("self_profile section missing from current run".into())
            }
            (None, Some(_)) => diff.notes.push("self_profile section is new in current run".into()),
            (None, None) => {}
        }
    }

    // Accuracy attribution: per-phase weights and error shares are
    // deterministic model outputs, so any drift is a real change. The
    // section is only written with --attrib.
    if wants("attribution") {
        if let Some(b_attr) = base.get("attribution") {
            match cur.get("attribution") {
                None => diff.failures.push("attribution section missing from current run".into()),
                Some(c_attr) => diff_attribution(&mut diff, b_attr, c_attr)?,
            }
        }
    }
    Ok(diff)
}

/// Compare the structural half of two self-profile sections: spans by
/// name and tree edges by `(parent, name)`, call counts exact. Timing
/// fields are deliberately not read.
fn diff_self_profile(diff: &mut Diff, base: &Value, cur: &Value) -> Result<(), String> {
    let calls = |diff: &mut Diff, name: &str, b: &&Value, c: &&Value| {
        diff.check_eq(&format!("{name} calls"), num_field(b, "calls")?, num_field(c, "calls")?);
        Ok(())
    };
    let (b, c) = (by_key(base, "spans", "name")?, by_key(cur, "spans", "name")?);
    diff.matched("self_profile span", &b, &c, calls)?;

    let (b, c) = (edges(base)?, edges(cur)?);
    diff.matched("self_profile edge", &b, &c, calls)
}

/// Index self-profile call-tree edges as `parent -> name`.
fn edges(sp: &Value) -> Result<BTreeMap<String, &Value>, String> {
    arr_field(sp, "tree")?
        .iter()
        .map(|e| {
            let parent = e.get("parent").and_then(Value::as_str).unwrap_or("(root)");
            Ok((format!("{parent} -> {}", str_field(e, "name")?), e))
        })
        .collect()
}

fn diff_attribution(diff: &mut Diff, base: &Value, cur: &Value) -> Result<(), String> {
    let index = |v: &Value| -> Result<BTreeMap<String, Value>, String> {
        let arr = v.as_arr().ok_or("`attribution` is not an array")?;
        arr.iter().map(|a| Ok((str_field(a, "benchmark")?, a.clone()))).collect()
    };
    let phases = |v: &Value| -> Result<BTreeMap<u64, Value>, String> {
        arr_field(v, "phases")?
            .iter()
            .map(|p| Ok((num_field(p, "cluster")? as u64, p.clone())))
            .collect()
    };
    let (b, c) = (index(base)?, index(cur)?);
    diff.matched("attribution for", &b, &c, |diff, bench, ba, ca| {
        let (bp, cp) = (phases(ba)?, phases(ca)?);
        if bp.len() != cp.len() {
            let counts = format!("baseline {} phases, current {}", bp.len(), cp.len());
            diff.failures.push(format!("{bench}: {counts}"));
            return Ok(());
        }
        diff.matched(&format!("{bench} cluster"), &bp, &cp, |diff, cluster, bph, cph| {
            for k in ["weight", "cpi_err_share"] {
                diff.check_eq(&format!("{cluster} {k}"), num_field(bph, k)?, num_field(cph, k)?);
            }
            Ok(())
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mlpa_obs::json;

    fn report(counter: u64, hist_sum: u64) -> String {
        let r = mlpa_obs::Report {
            wall_s: 2.0,
            phases: vec![mlpa_obs::PhaseStat {
                name: "sim.detailed".into(),
                count: 4,
                total_s: 1.0,
            }],
            workers: vec![
                mlpa_obs::WorkerStat {
                    pool: "plan".into(),
                    index: 0,
                    busy_s: 0.5,
                    wall_s: 0.6,
                    jobs: 3,
                    busy_fraction: 0.83,
                },
                mlpa_obs::WorkerStat {
                    pool: "plan".into(),
                    index: 1,
                    busy_s: 0.4,
                    wall_s: 0.6,
                    jobs: 1,
                    busy_fraction: 0.67,
                },
            ],
            counters: vec![("sim.instructions".into(), counter)],
            gauges: vec![("sim.rob.occupancy".into(), 12)],
            histograms: vec![mlpa_obs::HistogramStat {
                name: "sim.rob.occupancy".into(),
                unit: "n".into(),
                count: 8,
                sum: hist_sum,
                min: 1,
                max: 16,
                p50: 7,
                p90: 15,
                p99: 16,
            }],
            self_profile: Some(mlpa_obs::selfprofile::SelfProfile {
                spans: vec![mlpa_obs::selfprofile::SpanAgg {
                    name: "sim.detailed".into(),
                    calls: 4,
                    total_s: 1.0,
                    self_s: 1.0,
                    p50_us: 100,
                    p99_us: 900,
                }],
                tree: vec![mlpa_obs::selfprofile::SpanEdge {
                    parent: None,
                    name: "sim.detailed".into(),
                    calls: 4,
                    total_s: 1.0,
                }],
                ..mlpa_obs::selfprofile::SelfProfile::default()
            }),
        };
        r.to_json()
    }

    fn run_only(base: &str, cur: &str, only: Option<&[&str]>) -> Diff {
        let only: Option<BTreeSet<&str>> = only.map(|s| s.iter().copied().collect());
        diff(&json::parse(base).unwrap(), &json::parse(cur).unwrap(), only.as_ref()).unwrap()
    }

    fn run(base: &str, cur: &str) -> Diff {
        run_only(base, cur, None)
    }

    #[test]
    fn identical_reports_pass() {
        let d = run(&report(100, 40), &report(100, 40));
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn perturbed_counter_fails() {
        let d = run(&report(100, 40), &report(101, 40));
        assert!(d.failures.iter().any(|f| f.contains("sim.instructions")), "{:?}", d.failures);
    }

    #[test]
    fn value_histogram_contents_are_gated() {
        let d = run(&report(100, 40), &report(100, 41));
        assert!(d.failures.iter().any(|f| f.contains("sim.rob.occupancy")), "{:?}", d.failures);
    }

    #[test]
    fn worker_job_totals_are_gated() {
        let moved = report(100, 40).replacen("\"jobs\": 1", "\"jobs\": 2", 1);
        let d = run(&report(100, 40), &moved);
        assert!(
            d.failures.iter().any(|f| f.contains("worker pool `plan` jobs")),
            "{:?}",
            d.failures
        );
    }

    #[test]
    fn missing_metric_fails_and_new_metric_notes() {
        let two = report(100, 40);
        let one = two.replacen(
            "{\"name\": \"sim.instructions\", \"value\": 100}",
            "{\"name\": \"sim.instructions\", \"value\": 100}, \
             {\"name\": \"sim.cycles\", \"value\": 7}",
            1,
        );
        // Baseline has the extra counter, current doesn't: fail.
        let d = run(&one, &two);
        assert!(d.failures.iter().any(|f| f.contains("sim.cycles")), "{:?}", d.failures);
        // Current has the extra counter: pass with a note.
        let d = run(&two, &one);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        assert!(d.notes.iter().any(|n| n.contains("sim.cycles")), "{:?}", d.notes);
    }

    #[test]
    fn timing_is_never_gated() {
        let slow = report(100, 40)
            .replace("\"wall_s\": 2.000000", "\"wall_s\": 9.000000")
            .replace("\"total_s\": 1.000000", "\"total_s\": 7.000000");
        assert_ne!(slow, report(100, 40));
        let d = run(&report(100, 40), &slow);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
    }

    #[test]
    fn only_filter_skips_unselected_sections() {
        // A counter drift fails a full diff but passes one restricted to
        // the attribution section...
        let d = run(&report(100, 40), &report(101, 40));
        assert!(!d.failures.is_empty());
        let d = run_only(&report(100, 40), &report(101, 40), Some(&["attribution"]));
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // ...and still fails one that selects counters.
        let d = run_only(&report(100, 40), &report(101, 40), Some(&["counters", "attribution"]));
        assert!(d.failures.iter().any(|f| f.contains("sim.instructions")), "{:?}", d.failures);
    }

    #[test]
    fn only_attribution_still_gates_attribution_drift() {
        let attr = |share: f64| {
            format!(
                "[{{\"benchmark\": \"eon\", \"phases\": [{{\"cluster\": 0, \"weight\": 1.0, \
                 \"cpi_err_share\": {share}}}]}}]"
            )
        };
        let with_attr = |counter: u64, share: f64| {
            report(counter, 40).replacen(
                "\"histograms\":",
                &format!("\"attribution\": {}, \"histograms\":", attr(share)),
                1,
            )
        };
        let only = Some(&["attribution"][..]);
        // Counter noise between a cold and a warm run is ignored; an
        // attribution change is not.
        let d = run_only(&with_attr(100, 0.5), &with_attr(3, 0.5), only);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        let d = run_only(&with_attr(100, 0.5), &with_attr(3, 0.6), only);
        assert!(d.failures.iter().any(|f| f.contains("cpi_err_share")), "{:?}", d.failures);
        // Attribution missing from current is a failure even filtered.
        let d = run_only(&with_attr(100, 0.5), &report(3, 40), only);
        assert!(d.failures.iter().any(|f| f.contains("attribution")), "{:?}", d.failures);
    }

    #[test]
    fn gauge_names_are_gated_but_values_are_not() {
        // A gauge value is whatever was last written: drift passes.
        let moved = report(100, 40).replacen(
            "{\"name\": \"sim.rob.occupancy\", \"value\": 12}",
            "{\"name\": \"sim.rob.occupancy\", \"value\": 97}",
            1,
        );
        let d = run(&report(100, 40), &moved);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // A gauge disappearing means instrumentation was lost: fail.
        let gone = report(100, 40).replacen(
            "{\"name\": \"sim.rob.occupancy\", \"value\": 12}",
            "{\"name\": \"sim.lsq.occupancy\", \"value\": 12}",
            1,
        );
        let d = run(&report(100, 40), &gone);
        assert!(
            d.failures.iter().any(|f| f.contains("gauge `sim.rob.occupancy`")),
            "{:?}",
            d.failures
        );
        assert!(d.notes.iter().any(|n| n.contains("sim.lsq.occupancy")), "{:?}", d.notes);
    }

    #[test]
    fn self_profile_structure_is_gated_but_timing_is_not() {
        // Wall-time drift in the profile passes.
        let slower = report(100, 40).replace("\"self_s\": 1.000000", "\"self_s\": 0.250000");
        let d = run(&report(100, 40), &slower);
        assert!(d.failures.is_empty(), "{:?}", d.failures);
        // A changed call count is a structural regression.
        let fewer =
            report(100, 40).replace("\"calls\": 4, \"total_s\"", "\"calls\": 3, \"total_s\"");
        let d = run(&report(100, 40), &fewer);
        assert!(
            d.failures.iter().any(|f| f.contains("self_profile") && f.contains("calls")),
            "{:?}",
            d.failures
        );
        // A re-parented edge is a structural regression too.
        let reparented = report(100, 40).replace(
            "{\"parent\": null, \"name\": \"sim.detailed\"",
            "{\"parent\": \"core.profile\", \"name\": \"sim.detailed\"",
        );
        let d = run(&report(100, 40), &reparented);
        assert!(d.failures.iter().any(|f| f.contains("self_profile edge")), "{:?}", d.failures);
    }
}
