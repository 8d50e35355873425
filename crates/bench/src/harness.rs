//! The gate harness shared by the bench binaries that check a claim
//! against a bound (`pool_bench`, `pack_bench`, `chaos_bench`,
//! `chaos_pool_bench`, `tune_bench`, `replay_bench`).
//!
//! Every such binary emits one [`BenchDoc`]: a flat list of
//! [`Record`]s, each a named value with its unit and, when the value
//! is checked, a [`Gate`] — the operator, the bound and the verdict.
//! [`BenchArgs`] parses each binary's declared flags, and [`finish`]
//! writes the document, prints one `FAIL:` line per failed gate and
//! sets the exit status. The serving helpers ([`serve_stream`],
//! [`bits_eq`], [`reference`]) are the pieces the serving benches
//! share.

use std::fmt;
use std::str::FromStr;
use std::time::Instant;

use ks_blas::{Layout, Matrix};
use ks_core::problem::KernelSumProblem;
use ks_core::{solve_multi_fused, FusedCpuConfig, GaussianKernel};
use ks_serve::{Query, ServeConfig, ServeError, ServeReport, Server, Submit, Ticket};
use serde::value::Value;
use serde::{Deserialize, Serialize};

/// Version stamped into every [`BenchDoc`]. The gate binaries' earlier
/// per-binary documents were stamped 1.
pub const BENCH_DOC_VERSION: u64 = 2;

/// How a gated value is compared with its bound.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Op {
    /// Passes when `value >= bound`.
    Ge,
    /// Passes when `value <= bound`.
    Le,
    /// Passes when `value == bound`.
    Eq,
}

impl fmt::Display for Op {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Op::Ge => ">=",
            Op::Le => "<=",
            Op::Eq => "==",
        })
    }
}

/// What a value counts, named the way `BENCHMARK.json` names clocks
/// (see [`Unit::name`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Unit {
    /// Simulated seconds (`sim_s`).
    SimS,
    /// Host milliseconds (`ms`).
    Ms,
    /// Host seconds (`s`).
    S,
    /// An event or item count, also problem sizes (`count`).
    Count,
    /// A ratio of two times (`x`).
    X,
    /// A fraction or rate in `[0, 1]` (`frac`).
    Frac,
    /// Modelled joules (`J`).
    J,
    /// A truth value, 1 or 0 (`bool`).
    Bool,
}

impl Unit {
    const ALL: [Unit; 8] = [
        Unit::SimS,
        Unit::Ms,
        Unit::S,
        Unit::Count,
        Unit::X,
        Unit::Frac,
        Unit::J,
        Unit::Bool,
    ];

    /// The unit as written in the document.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Unit::SimS => "sim_s",
            Unit::Ms => "ms",
            Unit::S => "s",
            Unit::Count => "count",
            Unit::X => "x",
            Unit::Frac => "frac",
            Unit::J => "J",
            Unit::Bool => "bool",
        }
    }
}

impl Serialize for Unit {
    fn to_value(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Deserialize for Unit {
    fn from_value(v: &Value) -> Result<Self, serde::de::Error> {
        let name = v.as_str().unwrap_or_default();
        Unit::ALL
            .into_iter()
            .find(|u| u.name() == name)
            .ok_or_else(|| serde::de::Error::custom(format!("unknown unit {v:?}")))
    }
}

/// A bound on one record and whether the value met it.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// The comparison.
    pub op: Op,
    /// The bound the value is compared with.
    pub bound: f64,
    /// The verdict (a NaN value never passes).
    pub passed: bool,
}

impl Gate {
    /// Checks `value` against `bound`.
    #[must_use]
    pub fn check(value: f64, op: Op, bound: f64) -> Self {
        let passed = match op {
            Op::Ge => value >= bound,
            Op::Le => value <= bound,
            Op::Eq => value == bound,
        };
        Self { op, bound, passed }
    }
}

/// One measured value. Metric names are dotted with a pass or layer
/// prefix (`pooled.sim_time`, `faulted.sick_trips`); a string-valued
/// fact goes into the name (`pick.384x256x96[32x32/4x4/k16/d2].speedup`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Record {
    /// Dotted metric name.
    pub metric: String,
    /// The value (counts and booleans as exact integers).
    pub value: f64,
    /// What the value counts.
    pub unit: Unit,
    /// The bound the value is checked against, if any.
    pub gate: Option<Gate>,
}

/// The document every gate binary writes with `--json PATH`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchDoc {
    /// Document schema version (see [`BENCH_DOC_VERSION`]).
    pub schema_version: u64,
    /// The binary that produced the document.
    pub bench: String,
    /// Master seed of the run (`None` for unseeded benches).
    pub seed: Option<u64>,
    /// Whether the CI-sized profile ran.
    pub smoke: bool,
    /// Every measured value, in the order the bench recorded them.
    pub records: Vec<Record>,
}

impl BenchDoc {
    /// An empty document.
    #[must_use]
    pub fn new(bench: &str, seed: Option<u64>, smoke: bool) -> Self {
        Self {
            schema_version: BENCH_DOC_VERSION,
            bench: bench.to_string(),
            seed,
            smoke,
            records: Vec::new(),
        }
    }

    /// Adds an ungated value.
    pub fn record(&mut self, metric: impl Into<String>, value: f64, unit: Unit) {
        self.records.push(Record {
            metric: metric.into(),
            value,
            unit,
            gate: None,
        });
    }

    /// Adds a value checked against `bound`; returns the verdict.
    pub fn gate(
        &mut self,
        metric: impl Into<String>,
        value: f64,
        unit: Unit,
        op: Op,
        bound: f64,
    ) -> bool {
        let gate = Gate::check(value, op, bound);
        self.records.push(Record {
            metric: metric.into(),
            value,
            unit,
            gate: Some(gate),
        });
        gate.passed
    }

    /// Adds a property that must hold (`bool` record gated `== 1`).
    pub fn require(&mut self, metric: impl Into<String>, holds: bool) -> bool {
        self.gate(metric, f64::from(u8::from(holds)), Unit::Bool, Op::Eq, 1.0)
    }

    /// The records whose gate failed.
    pub fn failures(&self) -> impl Iterator<Item = &Record> {
        self.records
            .iter()
            .filter(|r| r.gate.is_some_and(|g| !g.passed))
    }

    /// Pretty-printed JSON document.
    #[must_use]
    pub fn to_json(&self) -> String {
        serde_json::to_string_pretty(self).expect("bench document serialises")
    }

    /// Parses a document produced by [`BenchDoc::to_json`].
    ///
    /// # Errors
    /// Returns the underlying parse/shape error.
    pub fn from_json(s: &str) -> Result<Self, serde_json::Error> {
        serde_json::from_str(s)
    }
}

/// A flag a gate binary accepts besides the shared `--smoke` switch
/// and `--json PATH`: its name and the value placeholder shown in the
/// usage line.
pub type Flag = (&'static str, &'static str);

/// Parsed command line of a gate binary: `--smoke`, `--json PATH` and
/// the binary's declared value flags. Every flag is optional; the
/// binary supplies each default when it reads the value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BenchArgs {
    usage: String,
    /// Whether `--smoke` was given.
    pub smoke: bool,
    /// The `--json` output path, if given.
    pub json: Option<String>,
    values: Vec<(&'static str, String)>,
}

impl BenchArgs {
    /// Parses `argv` (without the program name) against `flags`.
    ///
    /// # Errors
    /// Returns a message for an unknown flag or a flag missing its
    /// value.
    pub fn parse<I: IntoIterator<Item = String>>(
        bench: &str,
        flags: &[Flag],
        argv: I,
    ) -> Result<Self, String> {
        let mut out = Self {
            usage: usage_line(bench, flags),
            smoke: false,
            json: None,
            values: Vec::new(),
        };
        let mut argv = argv.into_iter();
        while let Some(arg) = argv.next() {
            if arg == "--smoke" {
                out.smoke = true;
                continue;
            }
            let name = if arg == "--json" {
                "--json"
            } else {
                flags
                    .iter()
                    .map(|(n, _)| *n)
                    .find(|n| *n == arg)
                    .ok_or_else(|| format!("unknown argument {arg}"))?
            };
            let value = argv
                .next()
                .filter(|v| !v.starts_with("--"))
                .ok_or_else(|| format!("{name} needs a value"))?;
            if name == "--json" {
                out.json = Some(value);
            } else {
                out.values.retain(|(n, _)| *n != name);
                out.values.push((name, value));
            }
        }
        Ok(out)
    }

    /// Parses the process arguments; prints the error and the usage
    /// line and exits 2 on failure.
    #[must_use]
    pub fn from_env(bench: &str, flags: &[Flag]) -> Self {
        Self::parse(bench, flags, std::env::args().skip(1))
            .unwrap_or_else(|e| usage_exit(&e, &usage_line(bench, flags)))
    }

    /// The value of `flag`, if it was given.
    ///
    /// # Errors
    /// Returns a message when the given value does not parse as `T`.
    pub fn try_opt<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        self.values
            .iter()
            .find(|(n, _)| *n == flag)
            .map(|(_, v)| v.parse().map_err(|_| format!("invalid {flag} value {v}")))
            .transpose()
    }

    /// [`BenchArgs::try_opt`], printing the usage line and exiting 2 on
    /// a malformed value.
    #[must_use]
    pub fn opt<T: FromStr>(&self, flag: &str) -> Option<T> {
        self.try_opt(flag)
            .unwrap_or_else(|e| usage_exit(&e, &self.usage))
    }

    /// The value of `flag`, or `default` when it was not given; exits 2
    /// on a malformed value.
    #[must_use]
    pub fn get<T: FromStr>(&self, flag: &str, default: T) -> T {
        self.opt(flag).unwrap_or(default)
    }

    /// Prints `message` and the usage line, then exits 2.
    pub fn usage_error(&self, message: &str) -> ! {
        usage_exit(message, &self.usage)
    }
}

fn usage_line(bench: &str, flags: &[Flag]) -> String {
    let mut usage = format!("usage: {bench} [--smoke]");
    for (name, meta) in flags {
        usage.push_str(&format!(" [{name} {meta}]"));
    }
    usage + " [--json PATH]"
}

fn usage_exit(message: &str, usage: &str) -> ! {
    eprintln!("error: {message}");
    eprintln!("{usage}");
    std::process::exit(2);
}

/// Ends a gate binary: writes `doc` to `json_path` when given (exit 1
/// if it cannot be written), prints `FAIL: <metric> <value> <op>
/// <bound>` for every failed gate, and exits 1 if any gate failed.
pub fn finish(doc: &BenchDoc, json_path: Option<&str>) {
    if let Some(path) = json_path {
        std::fs::write(path, doc.to_json()).unwrap_or_else(|e| {
            eprintln!("error: cannot write {path}: {e}");
            std::process::exit(1);
        });
        eprintln!("wrote {path}");
    }
    let mut failed = false;
    for r in doc.failures() {
        let g = r.gate.expect("failures are gated");
        eprintln!("FAIL: {} {} {} {}", r.metric, r.value, g.op, g.bound);
        failed = true;
    }
    if failed {
        std::process::exit(1);
    }
    let gates = doc.records.iter().filter(|r| r.gate.is_some()).count();
    eprintln!("{}: all {gates} gates passed", doc.bench);
}

/// Per-query outcomes of one served stream, in submit order.
pub type Outcomes = Vec<Result<Vec<f32>, ServeError>>;

/// Serves the whole stream through one server paused during
/// submission (so batch composition depends only on submit order) and
/// returns every per-query outcome, the shutdown report and the host
/// wall time in milliseconds. The queue is sized for the stream.
#[must_use]
pub fn serve_stream(cfg: ServeConfig, stream: &[Query]) -> (Outcomes, ServeReport, f64) {
    let t0 = Instant::now();
    let mut srv = Server::start(ServeConfig {
        queue_capacity: stream.len(),
        start_paused: true,
        ..cfg
    });
    let tickets: Vec<Ticket> = stream
        .iter()
        .map(|q| match srv.submit(q.clone()) {
            Submit::Accepted(t) => t,
            Submit::Rejected(_) => {
                eprintln!("error: queue sized for the stream rejected a query");
                std::process::exit(1);
            }
        })
        .collect();
    srv.resume();
    let results = tickets.iter().map(Ticket::wait).collect();
    let report = srv.shutdown();
    (results, report, t0.elapsed().as_secs_f64() * 1e3)
}

/// Whether every query completed in both runs with bit-identical
/// results.
#[must_use]
pub fn bits_eq(a: &Outcomes, b: &Outcomes) -> bool {
    a.len() == b.len()
        && a.iter().zip(b).all(|(x, y)| match (x, y) {
            (Ok(x), Ok(y)) => {
                x.len() == y.len() && x.iter().zip(y).all(|(p, q)| p.to_bits() == q.to_bits())
            }
            _ => false,
        })
}

/// Whether `got` is within the GPU tolerance of `want` (relative
/// `tol`, absolute below magnitude 1).
#[must_use]
pub fn within_tol(got: &[f32], want: &[f32], tol: f32) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| (g - w).abs() <= tol * w.abs().max(1.0))
}

/// The single-shot CPU fused answer for one query — the solver
/// configuration the serving safe harbor runs, so CPU-recovered
/// completions match it bit for bit.
#[must_use]
pub fn reference(q: &Query) -> Vec<f32> {
    let p = KernelSumProblem::builder()
        .sources(q.sources.points().clone())
        .targets((*q.targets).clone())
        .unit_weights()
        .kernel(GaussianKernel { h: q.h })
        .build();
    let w = Matrix::from_fn(q.weights.len(), 1, Layout::RowMajor, |j, _| q.weights[j]);
    let v = solve_multi_fused(&p, &w, &FusedCpuConfig::default());
    (0..v.rows()).map(|i| v.get(i, 0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &[&str]) -> Vec<String> {
        s.iter().map(|a| (*a).to_string()).collect()
    }

    const FLAGS: &[Flag] = &[("--devices", "N"), ("--seed", "S")];

    #[test]
    fn unknown_flag_is_an_error() {
        let e = BenchArgs::parse("pool_bench", FLAGS, argv(&["--devcies", "8"])).unwrap_err();
        assert!(e.contains("--devcies"), "{e}");
        assert!(BenchArgs::parse("b", FLAGS, argv(&["stray"])).is_err());
    }

    #[test]
    fn flag_without_value_is_an_error() {
        assert!(BenchArgs::parse("b", FLAGS, argv(&["--seed"])).is_err());
        assert!(BenchArgs::parse("b", FLAGS, argv(&["--json", "--smoke"])).is_err());
    }

    #[test]
    fn malformed_value_is_an_error() {
        let a = BenchArgs::parse("b", FLAGS, argv(&["--devices", "four"])).unwrap();
        assert!(a.try_opt::<usize>("--devices").is_err());
        let a = BenchArgs::parse("b", FLAGS, argv(&["--seed", "-1"])).unwrap();
        assert!(a.try_opt::<u64>("--seed").is_err());
    }

    #[test]
    fn defaults_apply_when_a_flag_is_absent() {
        let a = BenchArgs::parse("b", FLAGS, argv(&[])).unwrap();
        assert!(!a.smoke);
        assert_eq!(a.json, None);
        assert_eq!(a.try_opt::<usize>("--devices"), Ok(None));
        assert_eq!(a.get("--devices", 4usize), 4);
        let a = BenchArgs::parse(
            "b",
            FLAGS,
            argv(&[
                "--smoke",
                "--devices",
                "8",
                "--json",
                "o.json",
                "--devices",
                "6",
            ]),
        )
        .unwrap();
        assert!(a.smoke);
        assert_eq!(a.json.as_deref(), Some("o.json"));
        assert_eq!(a.get("--devices", 4usize), 6, "later flag wins");
        assert_eq!(a.get("--seed", 42u64), 42);
    }

    #[test]
    fn each_op_passes_at_its_bound() {
        assert!(Gate::check(2.0, Op::Ge, 2.0).passed);
        assert!(Gate::check(0.25, Op::Le, 0.25).passed);
        assert!(Gate::check(0.0, Op::Eq, 0.0).passed);
        assert!(!Gate::check(1.999, Op::Ge, 2.0).passed);
        assert!(!Gate::check(0.2501, Op::Le, 0.25).passed);
        assert!(!Gate::check(1.0, Op::Eq, 0.0).passed);
        for op in [Op::Ge, Op::Le, Op::Eq] {
            assert!(!Gate::check(f64::NAN, op, 1.0).passed, "{op} NaN");
        }
    }

    #[test]
    fn failures_lists_only_failed_gates() {
        let mut d = BenchDoc::new("t", Some(1), true);
        d.record("n", 3.0, Unit::Count);
        assert!(d.gate("speedup", 2.5, Unit::X, Op::Ge, 2.0));
        assert!(!d.require("bit_identical", false));
        let failed: Vec<&str> = d.failures().map(|r| r.metric.as_str()).collect();
        assert_eq!(failed, ["bit_identical"]);
    }

    #[test]
    fn bench_doc_json_round_trip_is_lossless() {
        let mut d = BenchDoc::new("pool_bench", Some(42), true);
        d.record("queries", 12.0, Unit::Count);
        d.record("pooled.sim_time", 1.25e-4, Unit::SimS);
        d.gate("speedup", 3.1, Unit::X, Op::Ge, 2.0);
        d.require("bit_identical", true);
        d.gate("silent_wrong", 0.0, Unit::Count, Op::Eq, 0.0);
        let json = d.to_json();
        assert!(json.contains("\"unit\": \"sim_s\""), "{json}");
        assert!(json.contains("\"op\": \"Ge\""), "{json}");
        assert_eq!(BenchDoc::from_json(&json).expect("parses"), d);
        let unseeded = BenchDoc::new("replay_bench", None, false);
        assert_eq!(BenchDoc::from_json(&unseeded.to_json()).unwrap(), unseeded);
    }
}
