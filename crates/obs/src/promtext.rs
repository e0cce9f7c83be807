//! Prometheus text exposition (version 0.0.4) for the `/metrics`
//! endpoint, plus a strict parser used by `mlpa-obs check` and CI to
//! validate scrapes and check counter monotonicity between them.
//!
//! Mapping of obs instruments onto Prometheus families:
//!
//! * counters -> `mlpa_counter_<name>_total` (`counter`)
//! * gauges   -> `mlpa_gauge_<name>` (`gauge`)
//! * log2 histograms -> `mlpa_hist_<name>_<unit>` (`histogram`) with
//!   cumulative `le` buckets at the log2 upper bounds
//!   ([`crate::hist_bucket_max`]): only non-empty buckets are emitted
//!   (Prometheus permits sparse bucket layouts) plus the mandatory
//!   `le="+Inf"`, `_sum`, and `_count` series.
//!
//! The kind prefix is load-bearing, not decoration: a counter named
//! `sim.rob.occupancy_sum` would otherwise collide with the `_sum`
//! series synthesized for a histogram named `sim.rob.occupancy`.

use crate::HistBuckets;
use std::collections::BTreeMap;

/// Sanitize an obs instrument name into a Prometheus metric-name
/// fragment: every character outside `[a-zA-Z0-9_]` becomes `_`.
pub fn sanitize(name: &str) -> String {
    name.chars().map(|c| if c.is_ascii_alphanumeric() || c == '_' { c } else { '_' }).collect()
}

fn push_family(out: &mut String, name: &str, kind: &str, source: &str) {
    out.push_str(&format!("# HELP {name} mlpa {kind} {source}\n"));
    out.push_str(&format!("# TYPE {name} {kind}\n"));
}

/// Render one exposition document from explicit snapshots. Pure
/// function — [`render_current`] feeds it the live registries.
pub fn render(
    counters: &[(String, u64)],
    gauges: &[(String, u64)],
    hists: &[HistBuckets],
) -> String {
    let mut out = String::with_capacity(4096);
    for (name, value) in counters {
        let metric = format!("mlpa_counter_{}_total", sanitize(name));
        push_family(&mut out, &metric, "counter", name);
        out.push_str(&format!("{metric} {value}\n"));
    }
    for (name, value) in gauges {
        let metric = format!("mlpa_gauge_{}", sanitize(name));
        push_family(&mut out, &metric, "gauge", name);
        out.push_str(&format!("{metric} {value}\n"));
    }
    for h in hists {
        let metric = format!("mlpa_hist_{}_{}", sanitize(&h.name), sanitize(&h.unit));
        push_family(&mut out, &metric, "histogram", &h.name);
        let mut cum = 0u64;
        for (b, &c) in h.buckets.iter().enumerate() {
            if c == 0 {
                continue;
            }
            cum += c;
            out.push_str(&format!(
                "{metric}_bucket{{le=\"{}\"}} {cum}\n",
                crate::hist_bucket_max(b)
            ));
        }
        out.push_str(&format!("{metric}_bucket{{le=\"+Inf\"}} {}\n", h.count));
        out.push_str(&format!("{metric}_sum {}\n", h.sum));
        out.push_str(&format!("{metric}_count {}\n", h.count));
    }
    out
}

/// Render the current state of the live registries (empty document
/// when the `enabled` feature is compiled out or nothing is
/// registered).
pub fn render_current() -> String {
    render(&crate::counters_snapshot(), &crate::gauges_snapshot(), &crate::hist_buckets_snapshot())
}

/// A parsed, validated exposition document.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Exposition {
    /// Declared family -> type (`counter`, `gauge`, `histogram`, ...).
    pub types: BTreeMap<String, String>,
    /// Every sample, keyed by its full series name (including the
    /// `{le="..."}` label clause for buckets), in document order of
    /// first appearance is not preserved — keys are sorted.
    pub samples: BTreeMap<String, f64>,
}

impl Exposition {
    /// The values of all `counter`-typed samples, keyed by family
    /// name — the series CI compares across scrapes for monotonicity.
    pub fn counter_values(&self) -> BTreeMap<&str, f64> {
        self.samples
            .iter()
            .filter(|(name, _)| {
                self.types.get(name.as_str()).map(String::as_str) == Some("counter")
            })
            .map(|(name, v)| (name.as_str(), *v))
            .collect()
    }
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

/// Split a sample series into (bare metric name, label clause).
fn split_series(series: &str) -> Result<(&str, Option<&str>), String> {
    match series.find('{') {
        None => Ok((series, None)),
        Some(open) => {
            let close =
                series.rfind('}').ok_or_else(|| format!("unterminated labels in `{series}`"))?;
            if close != series.len() - 1 {
                return Err(format!("trailing characters after labels in `{series}`"));
            }
            Ok((&series[..open], Some(&series[open + 1..close])))
        }
    }
}

/// The family a sample belongs to, given the declared types: its own
/// name, or for histograms the name with `_bucket`/`_sum`/`_count`
/// stripped.
fn family_of<'a>(name: &'a str, types: &BTreeMap<String, String>) -> Option<(&'a str, String)> {
    if let Some(t) = types.get(name) {
        return Some((name, t.clone()));
    }
    for suffix in ["_bucket", "_sum", "_count"] {
        if let Some(stem) = name.strip_suffix(suffix) {
            if types.get(stem).map(String::as_str) == Some("histogram") {
                return Some((stem, "histogram".to_string()));
            }
        }
    }
    None
}

/// Strictly parse and validate an exposition document.
///
/// Enforced rules (a superset of what a Prometheus scraper requires):
/// every sample's family must be declared with `# TYPE` *before* the
/// sample; no duplicate `TYPE` lines or duplicate series; metric names
/// must be well-formed; values must parse as finite floats (`+Inf`
/// only on `le="+Inf"` bucket labels, not values); counter values must
/// be non-negative; histogram buckets must be cumulative
/// (non-decreasing in document order), end with `le="+Inf"`, and agree
/// with the `_count` series.
///
/// # Errors
///
/// Returns `Err` with the 1-based line number and reason for the first
/// violation.
pub fn check(text: &str) -> Result<Exposition, String> {
    let mut exp = Exposition::default();
    // Per-histogram bucket state: family -> (last cumulative value,
    // saw +Inf, +Inf value).
    let mut hist_state: BTreeMap<String, (f64, bool, f64)> = BTreeMap::new();
    for (idx, line) in text.lines().enumerate() {
        let lineno = idx + 1;
        let line = line.trim_end();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let keyword = parts.next().unwrap_or("");
            match keyword {
                "TYPE" => {
                    let name = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: TYPE without metric name"))?;
                    let kind = parts
                        .next()
                        .ok_or_else(|| format!("line {lineno}: TYPE without a type"))?;
                    if !valid_metric_name(name) {
                        return Err(format!("line {lineno}: invalid metric name `{name}`"));
                    }
                    if !matches!(kind, "counter" | "gauge" | "histogram" | "summary" | "untyped") {
                        return Err(format!("line {lineno}: unknown type `{kind}`"));
                    }
                    if exp.types.insert(name.to_string(), kind.to_string()).is_some() {
                        return Err(format!("line {lineno}: duplicate TYPE for `{name}`"));
                    }
                }
                "HELP" => {}
                other => return Err(format!("line {lineno}: unknown comment keyword `{other}`")),
            }
            continue;
        }
        if line.starts_with('#') {
            return Err(format!("line {lineno}: malformed comment (expected `# `)"));
        }
        // Sample line: `<series> <value>`.
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {lineno}: sample without a value"))?;
        let (name, labels) = split_series(series).map_err(|e| format!("line {lineno}: {e}"))?;
        if !valid_metric_name(name) {
            return Err(format!("line {lineno}: invalid metric name `{name}`"));
        }
        let v: f64 = value
            .parse()
            .map_err(|_| format!("line {lineno}: unparseable sample value `{value}`"))?;
        if !v.is_finite() {
            return Err(format!("line {lineno}: non-finite sample value `{value}`"));
        }
        let (family, kind) = family_of(name, &exp.types)
            .ok_or_else(|| format!("line {lineno}: sample `{name}` precedes its TYPE line"))?;
        if kind == "counter" && v < 0.0 {
            return Err(format!("line {lineno}: negative counter value on `{name}`"));
        }
        if name.ends_with("_bucket") && kind == "histogram" {
            let le = labels
                .and_then(|l| l.strip_prefix("le=\""))
                .and_then(|l| l.strip_suffix('"'))
                .ok_or_else(|| format!("line {lineno}: bucket without an `le` label"))?;
            if le != "+Inf" && le.parse::<f64>().is_err() {
                return Err(format!("line {lineno}: unparseable `le` bound `{le}`"));
            }
            let state = hist_state.entry(family.to_string()).or_insert((0.0, false, 0.0));
            if state.1 {
                return Err(format!("line {lineno}: bucket after `le=\"+Inf\"` on `{family}`"));
            }
            if v < state.0 {
                return Err(format!(
                    "line {lineno}: non-cumulative bucket on `{family}` ({v} < {})",
                    state.0
                ));
            }
            state.0 = v;
            if le == "+Inf" {
                state.1 = true;
                state.2 = v;
            }
        }
        if exp.samples.insert(series.to_string(), v).is_some() {
            return Err(format!("line {lineno}: duplicate series `{series}`"));
        }
    }
    for (family, kind) in &exp.types {
        if kind != "histogram" {
            continue;
        }
        let Some(&(_, saw_inf, inf_v)) = hist_state.get(family) else {
            // Declared but no samples: tolerated (a family can be empty).
            continue;
        };
        if !saw_inf {
            return Err(format!("histogram `{family}` lacks an `le=\"+Inf\"` bucket"));
        }
        let count = exp
            .samples
            .get(&format!("{family}_count"))
            .ok_or_else(|| format!("histogram `{family}` lacks a `_count` series"))?;
        if !exp.samples.contains_key(&format!("{family}_sum")) {
            return Err(format!("histogram `{family}` lacks a `_sum` series"));
        }
        if (*count - inf_v).abs() > f64::EPSILON {
            return Err(format!(
                "histogram `{family}`: le=\"+Inf\" bucket ({inf_v}) != _count ({count})"
            ));
        }
    }
    Ok(exp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::HIST_BUCKETS;

    fn hist(name: &str, unit: &str, values: &[u64]) -> HistBuckets {
        let mut buckets = [0u64; HIST_BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            buckets[crate::hist_bucket(v)] += 1;
            sum += v;
        }
        HistBuckets {
            name: name.to_string(),
            unit: unit.to_string(),
            buckets,
            count: values.len() as u64,
            sum,
        }
    }

    #[test]
    fn render_output_passes_strict_check() {
        let counters = vec![("sim.instructions".to_string(), 42u64)];
        let gauges = vec![("sim.rob.occupancy".to_string(), 17u64)];
        let hists = vec![hist("core.kmeans.iters", "n", &[1, 2, 2, 9, 1000])];
        let text = render(&counters, &gauges, &hists);
        let exp = check(&text).expect("own exposition must be strictly valid");
        assert_eq!(exp.samples.get("mlpa_counter_sim_instructions_total").copied(), Some(42.0));
        assert_eq!(exp.samples.get("mlpa_gauge_sim_rob_occupancy").copied(), Some(17.0));
        assert_eq!(exp.samples.get("mlpa_hist_core_kmeans_iters_n_count").copied(), Some(5.0));
        assert_eq!(exp.samples.get("mlpa_hist_core_kmeans_iters_n_sum").copied(), Some(1014.0));
        assert_eq!(exp.counter_values().len(), 1);
    }

    #[test]
    fn histogram_buckets_are_cumulative_at_log2_bounds() {
        let text = render(&[], &[], &[hist("h", "us", &[1, 2, 3, 1000])]);
        // Values 1 -> bucket 1 (le=1); 2,3 -> bucket 2 (le=3);
        // 1000 -> bucket 10 (le=1023).
        assert!(text.contains("mlpa_hist_h_us_bucket{le=\"1\"} 1\n"), "{text}");
        assert!(text.contains("mlpa_hist_h_us_bucket{le=\"3\"} 3\n"), "{text}");
        assert!(text.contains("mlpa_hist_h_us_bucket{le=\"1023\"} 4\n"), "{text}");
        assert!(text.contains("mlpa_hist_h_us_bucket{le=\"+Inf\"} 4\n"), "{text}");
        check(&text).unwrap();
    }

    #[test]
    fn kind_prefixes_prevent_counter_histogram_collisions() {
        // Without prefixes, counter `x_sum` and histogram `x` would
        // both emit a series named `x_sum`.
        let text = render(&[("x_sum".to_string(), 1)], &[], &[hist("x", "n", &[5])]);
        check(&text).expect("prefixed families must not collide");
    }

    #[test]
    fn check_rejects_sample_before_type() {
        assert!(check("foo 1\n").unwrap_err().contains("precedes its TYPE"));
    }

    #[test]
    fn check_rejects_non_cumulative_buckets() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"1\"} 5\n\
                    h_bucket{le=\"3\"} 3\n";
        assert!(check(text).unwrap_err().contains("non-cumulative"));
    }

    #[test]
    fn check_rejects_inf_count_mismatch() {
        let text = "# TYPE h histogram\n\
                    h_bucket{le=\"+Inf\"} 4\n\
                    h_sum 10\n\
                    h_count 5\n";
        assert!(check(text).unwrap_err().contains("_count"));
    }

    #[test]
    fn check_rejects_malformed_lines() {
        for (bad, why) in [
            ("# TYPE h wibble\nh 1\n", "unknown type"),
            ("# TYPE 9bad counter\n", "invalid metric name"),
            ("# TYPE c counter\nc -1\n", "negative counter"),
            ("# TYPE c counter\nc 1\nc 2\n", "duplicate series"),
            ("# TYPE c counter\n# TYPE c gauge\n", "duplicate TYPE"),
            ("# TYPE c counter\nc abc\n", "unparseable sample value"),
            ("#TYPE c counter\n", "malformed comment"),
        ] {
            let err = check(bad).unwrap_err();
            assert!(err.contains(why), "`{bad}` gave `{err}`, wanted `{why}`");
        }
    }

    #[test]
    fn sanitize_flattens_punctuation() {
        assert_eq!(sanitize("core.plan.points"), "core_plan_points");
        assert_eq!(sanitize("span.core-x/y"), "span_core_x_y");
    }

    #[test]
    fn empty_registries_render_an_empty_valid_document() {
        let text = render(&[], &[], &[]);
        assert!(check(&text).unwrap().samples.is_empty());
    }
}
