//! `mlpa-obs`: the command-line tool over the obs artifacts.
//!
//! ```text
//! mlpa-obs check [--events F] [--report F] [--status F]
//!                [--metrics F [--metrics-prev F] [--metrics-counter-min NAME MIN]...]
//!                [--require-zero NAME]... [--require-nonzero NAME]... [--min-cache-hit-rate R]
//! mlpa-obs diff  <baseline RUN_REPORT.json> <current RUN_REPORT.json> [--only SECTION[,SECTION]...]
//! mlpa-obs gate  <baseline BENCH.json> <candidate BENCH.json>
//!                [--cand-label L] [--inflate GROUP[/ID]=FACTOR]... [--no-trajectory]
//! mlpa-obs trace --events F [--out F]
//! ```
//!
//! * `check` validates event streams, run reports, `/metrics` scrapes
//!   and `/status` bodies against their contracts (see `check.rs`);
//! * `diff` compares the deterministic sections of two run reports
//!   exactly (`diff.rs`);
//! * `gate` is the machine-calibrated perf gate over `BENCH.json`
//!   trajectories (`gate.rs`);
//! * `trace` converts an event stream into Chrome `trace_event` JSON
//!   for Perfetto (`trace.rs`).
//!
//! Every subcommand reads only the current generation of its input —
//! `mlpa-events-v3` streams, `mlpa-run-report-v3` reports and
//! `mlpa-bench-suite-v2` trajectories — and refuses any other declared
//! schema by name.
//!
//! Exit codes, shared by all subcommands: 0 pass; 1 the input breaks
//! its contract or the current run regressed; 2 usage error, unreadable
//! input, or an unsupported schema. CI steps that must fail (`! mlpa-obs
//! ...`) rely on the 1.

mod check;
mod diff;
mod gate;
mod trace;

use mlpa_obs::json::{self, Value};
use std::collections::BTreeMap;
use std::fmt;
use std::process::ExitCode;

/// Why a subcommand did not pass; the variant picks the exit code.
#[derive(Debug)]
enum Fail {
    /// The input breaks its contract, or the current run regressed
    /// (exit 1).
    Violation(String),
    /// Bad usage, an unreadable input, or an unsupported schema (exit 2).
    Error(String),
}

impl Fail {
    /// Prefix the message with where it happened (a path, a line).
    fn at(self, place: &str) -> Fail {
        match self {
            Fail::Violation(m) => Fail::Violation(format!("{place}: {m}")),
            Fail::Error(m) => Fail::Error(format!("{place}: {m}")),
        }
    }
}

impl fmt::Display for Fail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Fail::Violation(m) | Fail::Error(m) => f.write_str(m),
        }
    }
}

/// A subcommand: its command line (each flag with the number of values
/// it takes, the number of file arguments, the usage shown on error)
/// and the function that runs it.
struct Spec {
    usage: &'static str,
    flags: &'static [(&'static str, usize)],
    files: usize,
    run: fn(&Args) -> Result<(), Fail>,
}

/// A parsed command line: every flag occurrence with its values, in
/// order, and the file arguments.
struct Args {
    flags: Vec<(&'static str, Vec<String>)>,
    files: Vec<String>,
}

impl Args {
    fn parse(spec: &Spec, mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
        let mut args = Args { flags: Vec::new(), files: Vec::new() };
        while let Some(arg) = argv.next() {
            if !arg.starts_with("--") {
                args.files.push(arg);
                continue;
            }
            let &(flag, n) = spec
                .flags
                .iter()
                .find(|(f, _)| *f == arg)
                .ok_or_else(|| format!("unknown flag `{arg}`"))?;
            let values: Vec<String> = argv.by_ref().take(n).collect();
            if values.len() < n {
                return Err(format!("`{flag}` needs {n} value(s)"));
            }
            args.flags.push((flag, values));
        }
        if args.files.len() != spec.files {
            return Err(format!(
                "expected {} file argument(s), got {}",
                spec.files,
                args.files.len()
            ));
        }
        Ok(args)
    }

    /// The values of every occurrence of `flag`, in command-line order.
    fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a [String]> + 'a {
        self.flags.iter().filter(move |(f, _)| *f == flag).map(|(_, v)| v.as_slice())
    }

    /// The value of the last occurrence of a one-value `flag`.
    fn value<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.all(flag).last().map(|v| v[0].as_str())
    }
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    let cmd = argv.next().unwrap_or_default();
    let spec = match cmd.as_str() {
        "check" => &check::SPEC,
        "diff" => &diff::SPEC,
        "gate" => &gate::SPEC,
        "trace" => &trace::SPEC,
        _ => {
            eprintln!("mlpa-obs: unknown subcommand `{cmd}`");
            eprintln!("usage: mlpa-obs <check|diff|gate|trace> [ARGS]");
            return ExitCode::from(2);
        }
    };
    let result = Args::parse(spec, argv)
        .map_err(|e| Fail::Error(format!("{e}\nusage: mlpa-obs {cmd} {}", spec.usage)))
        .and_then(|args| (spec.run)(&args));
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(fail) => {
            eprintln!("mlpa-obs {cmd}: {fail}");
            ExitCode::from(match fail {
                Fail::Violation(_) => 1,
                Fail::Error(_) => 2,
            })
        }
    }
}

/// Parse a numeric flag value that must satisfy `ok` (`what` describes
/// the accepted values).
fn number(s: &str, what: &str, ok: impl Fn(f64) -> bool) -> Result<f64, Fail> {
    s.parse::<f64>()
        .ok()
        .filter(|&v| ok(v))
        .ok_or_else(|| Fail::Error(format!("`{s}` is not {what}")))
}

/// Read a whole input file.
fn read(path: &str) -> Result<String, Fail> {
    std::fs::read_to_string(path).map_err(|e| Fail::Error(format!("{path}: {e}")))
}

/// Read and parse a JSON input file.
fn load(path: &str) -> Result<Value, Fail> {
    json::parse(&read(path)?).map_err(|e| Fail::Error(format!("{path}: {e}")))
}

/// Refuse a document whose `schema` is not `want`, naming what it
/// declares instead.
fn expect_schema(v: &Value, want: &str) -> Result<(), Fail> {
    match v.get("schema") {
        Some(Value::Str(s)) if s == want => Ok(()),
        Some(Value::Str(s)) => {
            Err(Fail::Error(format!("unsupported schema `{s}` (expected `{want}`)")))
        }
        _ => Err(Fail::Error(format!("no `schema` string (expected `{want}`)"))),
    }
}

fn field<'a>(v: &'a Value, key: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("missing field `{key}`"))
}

fn str_field(v: &Value, key: &str) -> Result<String, String> {
    field(v, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("field `{key}` is not a string"))
}

fn num_field(v: &Value, key: &str) -> Result<f64, String> {
    field(v, key)?.as_f64().ok_or_else(|| format!("field `{key}` is not a number"))
}

fn arr_field<'a>(v: &'a Value, key: &str) -> Result<&'a [Value], String> {
    field(v, key)?.as_arr().ok_or_else(|| format!("field `{key}` is not an array"))
}

fn obj_field<'a>(v: &'a Value, key: &str) -> Result<&'a BTreeMap<String, Value>, String> {
    field(v, key)?.as_obj().ok_or_else(|| format!("field `{key}` is not an object"))
}
