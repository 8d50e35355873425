//! The repository's benchmark: four seeded workloads against the public
//! APIs of `ks-core`, `ks-gpu-kernels`/`ks-gpu-sim`, `ks-energy` and
//! `ks-serve`, every output checked, every metric printed on both
//! clocks. See README.md in this directory for the metric table, why
//! each workload exists, and how to read a traced run.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name|all> --seed <n> --seconds <s> --trace <0|1>
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --emit-manifest BENCHMARK.json
//! ```
//!
//! The last line of standard output is the result object; exit code 0
//! means every output check and the determinism guard passed.

mod metrics;
mod paper;
mod serve;
mod trace;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use metrics::{median, quantile, END_TO_END, PER_LAYER, WORKLOADS};
use trace::Tracer;

/// `run_seconds` written into the manifest.
const RUN_SECONDS: u64 = 10;
/// A run measures at least this many iterations, so the determinism
/// guard always has two to compare.
const MIN_ITERATIONS: usize = 2;
/// Set-ups timed per iteration: one feeds the iteration, the others are
/// dropped. Spreading the samples over the whole run, rather than taking
/// them in one burst, keeps the median from reflecting a single moment of
/// a shared machine whose speed drifts over seconds.
const SETUPS_PER_ITERATION: usize = 5;
/// Where traced runs write their spans, relative to the checkout root.
const TRACE_DIR: &str = "perfbench/out";

/// One measured iteration of a workload.
pub struct Iteration {
    /// Host seconds of the measured phase.
    pub wall_s: f64,
    /// Operations attempted (solves, profiles or queries).
    pub ops: u64,
    /// Host latency of each operation that produced a result.
    pub op_latency_s: Vec<f64>,
    /// Operations that failed, were refused or gave a wrong output.
    pub failed: u64,
    /// What went wrong, one line each.
    pub problems: Vec<String>,
    /// Simulated seconds × 1e3 of everything the iteration ran.
    pub sim_time_ms: f64,
    pub dram_transactions: u64,
    pub energy_mj: f64,
    /// Simulated counters and output hashes that every iteration of
    /// one workload and seed must repeat exactly.
    pub signature: Vec<(String, u64)>,
    /// Per-layer metrics this iteration measured.
    pub layer: BTreeMap<&'static str, f64>,
}

impl Iteration {
    pub fn new(wall_s: f64) -> Self {
        Self {
            wall_s,
            ops: 0,
            op_latency_s: Vec::new(),
            failed: 0,
            problems: Vec::new(),
            sim_time_ms: 0.0,
            dram_transactions: 0,
            energy_mj: 0.0,
            signature: Vec::new(),
            layer: BTreeMap::new(),
        }
    }
}

/// A benchmark workload: `setup` builds everything one measured
/// iteration consumes (seeded inputs, fresh devices or a paused
/// server); `run` is the measured phase, traced when given a tracer.
pub trait Workload {
    type State;
    fn setup(&self) -> Self::State;
    fn run(&self, state: Self::State, tracer: Option<&Tracer>) -> Result<Iteration, String>;
}

/// FNV-1a over the bit patterns of an output vector.
pub fn bits_hash(v: &[f32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for x in v {
        for b in x.to_bits().to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

const USAGE: &str =
    "usage: perfbench --workload <paper_solve|paper_profile|serve_coalesce|serve_packed_pool|all> \
--seed <n> --seconds <s> --trace <0|1>\n       perfbench --emit-manifest <path>";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => {
                seed = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seed {value}: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds {value}: {e}"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(format!("--seconds {value}: must be in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace {value}: must be 0 or 1")),
                });
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        return Err(format!("unknown workload {workload}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(RUN_SECONDS as f64),
        trace: trace.unwrap_or(false),
    })
}

/// The commit the checkout came from, when it is a git checkout.
fn git_commit() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown (not a git checkout)".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r)).map_or_else(
            |_| format!("unknown ({r} is packed)"),
            |c| c.trim().to_string(),
        ),
        None => head,
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// Everything one run measured, reduced to the reported metrics.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
}

/// Runs one warm-up iteration, then set-up plus the measured phase until
/// `seconds` have passed (and at least [`MIN_ITERATIONS`] ran),
/// alternating traced and untraced iterations when tracing; then checks
/// determinism and reduces.
fn measure<W: Workload>(w: &W, args: &Args, tracer: &Tracer) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let timed_setup = |setups: &mut Vec<f64>| {
        let mut time_one = || {
            let t = Instant::now();
            let state = w.setup();
            setups.push(t.elapsed().as_secs_f64());
            state
        };
        for _ in 1..SETUPS_PER_ITERATION {
            drop(time_one());
        }
        time_one()
    };
    // The warm-up lets lazy initialisation and allocator state settle
    // before timing. It is not timed, but it is checked like any other
    // iteration and is the reference of the determinism guard.
    let mut iters: Vec<(bool, Iteration)> = vec![(false, w.run(timed_setup(&mut setups), None)?)];
    let start = Instant::now();
    let mut peak_rss = None;
    loop {
        let traced = args.trace && iters.len() % 2 == 1;
        let it = w.run(timed_setup(&mut setups), traced.then_some(tracer))?;
        iters.push((traced, it));
        if iters.len() == MIN_ITERATIONS + 1 {
            // Read after a fixed amount of work, so the peak does not
            // depend on how many iterations fit in the window.
            peak_rss = Some(peak_rss_mb()?);
        }
        if iters.len() > MIN_ITERATIONS && start.elapsed().as_secs_f64() >= args.seconds {
            break;
        }
    }

    let mut correct = true;
    let (mut attempted, mut failed) = (0u64, 0u64);
    for (i, (_, it)) in iters.iter().enumerate() {
        attempted += it.ops;
        failed += it.failed;
        for p in &it.problems {
            correct = false;
            eprintln!("check failed (iteration {i}): {p}");
        }
    }
    // Determinism guard: the simulated counters and output bits of
    // every iteration, traced or not, must equal the first's.
    let first = &iters[0].1;
    for (i, (traced, it)) in iters.iter().enumerate().skip(1) {
        let same_totals = it.sim_time_ms.to_bits() == first.sim_time_ms.to_bits()
            && it.dram_transactions == first.dram_transactions
            && it.energy_mj.to_bits() == first.energy_mj.to_bits();
        if !same_totals || it.signature != first.signature {
            correct = false;
            let diff = it
                .signature
                .iter()
                .zip(&first.signature)
                .find(|(a, b)| a != b)
                .map_or("signature length or totals".to_string(), |(a, b)| {
                    format!("{} = {} vs {}", a.0, a.1, b.1)
                });
            eprintln!(
                "determinism guard: iteration {i}{} differs from iteration 0: {diff}",
                if *traced { " (traced)" } else { "" }
            );
            failed += it.ops;
        }
    }

    let untraced: Vec<&Iteration> = iters[1..]
        .iter()
        .filter(|(t, _)| !t)
        .map(|(_, it)| it)
        .collect();
    let walls: Vec<f64> = untraced.iter().map(|it| it.wall_s).collect();
    let lat_ms: Vec<f64> = untraced
        .iter()
        .flat_map(|it| it.op_latency_s.iter().map(|s| s * 1e3))
        .collect();
    let ops: u64 = untraced.iter().map(|it| it.ops).sum();
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&setups));
    e2e.insert("wall_s", median(&walls));
    e2e.insert(
        "peak_rss_mb",
        peak_rss.expect("at least MIN_ITERATIONS measured iterations ran"),
    );
    let failed = failed.min(attempted);
    e2e.insert("ok_frac", 1.0 - failed as f64 / attempted as f64);
    e2e.insert("sim_time_ms", first.sim_time_ms);
    e2e.insert("dram_transactions", first.dram_transactions as f64);
    e2e.insert("energy_mj", first.energy_mj);
    e2e.insert("queries_per_s", ops as f64 / walls.iter().sum::<f64>());
    e2e.insert("latency_p50_ms", median(&lat_ms));
    e2e.insert("latency_p95_ms", quantile(&lat_ms, 0.95));

    // Per-layer: the median over the iterations that measured each
    // metric (host-time spans exist only on traced iterations).
    let mut layer = BTreeMap::new();
    for m in &PER_LAYER {
        let vals: Vec<f64> = iters
            .iter()
            .filter_map(|(_, it)| it.layer.get(m.name).copied())
            .collect();
        layer.insert(m.name, if vals.is_empty() { 0.0 } else { median(&vals) });
    }
    if args.trace {
        let traced_walls: Vec<f64> = iters
            .iter()
            .filter(|(t, _)| *t)
            .map(|(_, it)| it.wall_s)
            .collect();
        layer.insert(
            "trace.overhead_frac",
            median(&traced_walls) / median(&walls) - 1.0,
        );
        layer.insert("trace.spans", tracer.len() as f64);
    }

    let fmt = |xs: &mut dyn Iterator<Item = f64>| {
        xs.map(|x| format!("{x:.4}")).collect::<Vec<_>>().join(" ")
    };
    println!(
        "warm-up plus {} measured iterations ({} traced), wall_s (warm-up first) {}; {} set-ups, setup_s {}",
        iters.len() - 1,
        iters.iter().filter(|(t, _)| *t).count(),
        fmt(&mut iters.iter().map(|(_, it)| it.wall_s)),
        setups.len(),
        fmt(&mut setups.iter().copied()),
    );
    println!(
        "{ops} untraced operations; latency samples {}, p95 has {} samples beyond it",
        lat_ms.len(),
        lat_ms.len() - (0.95 * lat_ms.len() as f64).ceil() as usize,
    );
    Ok(Outcome {
        correct,
        attempted,
        failed,
        e2e,
        layer,
    })
}

fn run_workload(args: &Args) -> Result<Outcome, String> {
    let tracer = Tracer::new();
    let outcome = match args.workload.as_str() {
        "paper_solve" => measure(&paper::PaperSolve { seed: args.seed }, args, &tracer)?,
        "paper_profile" => measure(&paper::PaperProfile, args, &tracer)?,
        "serve_coalesce" => measure(&serve::Burst::coalesce(args.seed), args, &tracer)?,
        "serve_packed_pool" => measure(&serve::Burst::packed_pool(args.seed), args, &tracer)?,
        other => return Err(format!("unknown workload {other}")),
    };
    if args.workload == "paper_profile" {
        for line in paper::model_vs_paper(&outcome.layer) {
            println!("{line}");
        }
    }
    if args.trace {
        write_trace(args, &tracer)?;
    }
    Ok(outcome)
}

fn context(args: &Args) -> Vec<(&'static str, String)> {
    vec![
        ("workload", args.workload.clone()),
        ("seed", args.seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", u8::from(args.trace).to_string()),
        ("commit", git_commit()),
        ("nproc", nproc().to_string()),
        ("rayon_threads", rayon::current_num_threads().to_string()),
        (
            "profile",
            if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }
            .to_string(),
        ),
    ]
}

fn write_trace(args: &Args, tracer: &Tracer) -> Result<(), String> {
    std::fs::create_dir_all(TRACE_DIR).map_err(|e| format!("{TRACE_DIR}: {e}"))?;
    let path = format!("{TRACE_DIR}/trace-{}-seed{}.json", args.workload, args.seed);
    std::fs::write(&path, tracer.to_json(&context(args))).map_err(|e| format!("{path}: {e}"))?;
    println!(
        "trace: {} spans written to {path}; per span name: count, summed self time",
        tracer.len()
    );
    let counts = tracer.counts();
    for (name, s) in tracer.self_times() {
        println!("  {name:<28} {:>6} {s:>12.6} s", counts[name]);
    }
    Ok(())
}

fn print_table(title: &str, values: &BTreeMap<&'static str, f64>, registry: &[metrics::Metric]) {
    println!("{title}:");
    for m in registry {
        println!(
            "  {:<36} {:>18.6} {:<8} ({} is better)",
            m.name,
            values[m.name],
            m.unit,
            m.better.as_str()
        );
    }
}

/// `--workload all`: each workload in its own process (so `peak_rss_mb`
/// is per workload), one after another.
fn run_all(args: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut all_ok = true;
    let mut merged = Vec::new();
    for (name, _) in WORKLOADS {
        let out = Command::new(&exe)
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("running {name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        all_ok &= out.status.success();
        let last = stdout.lines().last().unwrap_or_default().to_string();
        merged.push(format!("{}: {last}", metrics::json_str(name)));
    }
    println!("{{{}}}", merged.join(", "));
    Ok(all_ok)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("--emit-manifest") {
        let Some(path) = argv.get(1) else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match std::fs::write(path, metrics::manifest_json(RUN_SECONDS)) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {path}: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ctx = context(&args);
    println!(
        "context: {}",
        ctx.iter()
            .map(|(k, v)| format!("{k}={v}"))
            .collect::<Vec<_>>()
            .join(" ")
    );
    if args.workload == "all" {
        return match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::FAILURE
            }
        };
    }
    let outcome = match run_workload(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    print_table(
        "end-to-end (untraced iterations)",
        &outcome.e2e,
        &END_TO_END,
    );
    print_table("per-layer", &outcome.layer, &PER_LAYER);
    let line = if args.trace {
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            PER_LAYER.iter(),
            &outcome.layer,
        )
    } else {
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            END_TO_END.iter(),
            &outcome.e2e,
        )
    };
    match line {
        Ok(l) => {
            println!("{l}");
            let _ = std::io::stdout().flush();
            if outcome.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
