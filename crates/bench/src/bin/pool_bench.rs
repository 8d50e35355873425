//! Multi-device pool serving benchmark (`BENCH_pool.json`).
//!
//! Serves one deterministic query stream four ways:
//!
//! 1. **unpooled** single-device serving — the bit-exactness golden;
//! 2. a **1-device pool** — the simulated-time baseline (same shard
//!    machinery, no parallelism);
//! 3. an **N-device pool** (default 4) — must be bit-identical to the
//!    golden and at least 2× faster in simulated time;
//! 4. the N-device pool with one device **permanently faulted** — the
//!    pool must degrade shard-locally (only the sick device's breaker
//!    trips, its shards recover on the CPU) and still complete every
//!    query correctly.
//!
//! Any bit drift, counter drift between the passes, a speedup below
//! the floor, or pool-wide degradation fails the run.
//!
//! ```text
//! pool_bench [--smoke] [--devices N] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 24 queries over `M = 32768` corpora; `--smoke`
//!   halves the stream (CI-sized) at the same corpus shape, so the
//!   speedup gate still means something;
//! * `--devices N`: pooled device count (default 4, minimum 2);
//! * `--seed S`: master workload seed (default 42);
//! * `--json PATH`: write the [`BenchDoc`].

use ks_bench::harness::{bits_eq, finish, serve_stream, within_tol, BenchArgs, BenchDoc, Op, Unit};
use ks_gpu_sim::{FaultSpec, Interconnect};
use ks_serve::{generate_queries, PoolConfig, ServeConfig, ServeReport, WorkloadConfig};

/// Simulated-time speedup floor for the N-device pool over the
/// 1-device baseline.
const SPEEDUP_FLOOR: f64 = 2.0;

/// Relative tolerance for the degraded pass, whose sick-device shards
/// recover on the (bit-exact but differently-ordered) CPU path.
const TOL: f32 = 5e-3;

/// Index of the device given a permanent launch fault in the degraded
/// pass.
const SICK: usize = 2;

/// Records one pooled pass under `pass.`. Panics if the pass was not
/// actually pooled.
fn record_pass(doc: &mut BenchDoc, pass: &str, report: &ServeReport, wall_ms: f64) {
    let pool = report.pool.as_ref().expect("pooled pass carries a report");
    let transfer_bytes: u64 = pool.devices.iter().map(|d| d.transfer_bytes).sum();
    for (name, value) in [
        ("devices", pool.devices.len() as u64),
        ("completed", report.completed),
        ("failed", report.failed),
        ("batches", report.batches),
        ("batched_queries", report.batched_queries),
        ("fallbacks", report.fallbacks),
        ("shard_tasks", pool.shard_tasks),
        ("stolen_tasks", pool.stolen_tasks),
        ("breaker_trips", pool.total_trips()),
        ("transfer_bytes", transfer_bytes),
    ] {
        doc.record(format!("{pass}.{name}"), value as f64, Unit::Count);
    }
    doc.record(format!("{pass}.sim_time"), pool.sim_time_s, Unit::SimS);
    doc.record(format!("{pass}.wall_time"), wall_ms, Unit::Ms);
}

fn main() {
    let args = BenchArgs::from_env(
        "pool_bench",
        &[("--devices", "N"), ("--queries", "N"), ("--seed", "S")],
    );
    let seed: u64 = args.get("--seed", 42);
    let devices: usize = args.get("--devices", 4);
    if devices < 2 {
        args.usage_error(&format!("--devices must be at least 2 (got {devices})"));
    }
    let queries: usize = args.get("--queries", if args.smoke { 12 } else { 24 });

    // Corpora are sized so per-shard kernel time dominates the
    // modelled PCIe cost at 4 shards: M = 32768 keeps each 8192-row
    // shard well past the alignment floor, and the smoke profile
    // shortens the *stream*, not the corpus, so the speedup gate
    // measures the same shard economics CI-sized.
    let wl = WorkloadConfig {
        clients: 1,
        queries_per_client: queries,
        corpora: 2,
        shared_ratio: 0.8,
        large_ratio: 0.0,
        m: 32_768,
        n: 128,
        k: 16,
        h: 1.0,
        deadline: None,
        seed,
    };
    let stream = generate_queries(&wl);
    let pooled_cfg = |n: usize| {
        let mut cfg = ServeConfig::default();
        cfg.pool = Some(PoolConfig::homogeneous(
            n,
            cfg.device.clone(),
            Interconnect::pcie3_x16(),
        ));
        cfg
    };

    eprintln!("serving {} queries unpooled (golden)...", stream.len());
    let (golden, golden_report, golden_wall) = serve_stream(ServeConfig::default(), &stream);
    eprintln!("serving through a 1-device pool...");
    let (single_res, single_report, single_wall) = serve_stream(pooled_cfg(1), &stream);
    eprintln!("serving through a {devices}-device pool...");
    let (pooled_res, pooled_report, pooled_wall) = serve_stream(pooled_cfg(devices), &stream);

    eprintln!("serving with device {SICK} permanently faulted...");
    let mut sick_cfg = pooled_cfg(devices);
    if let Some(pool) = sick_cfg.pool.as_mut() {
        pool.devices[SICK].device.fault = Some(FaultSpec {
            seed: seed ^ 0xDEAD_DE5B,
            smem_rate: 0.0,
            reg_rate: 0.0,
            dram_rate: 0.0,
            sm_loss_rate: 1.0,
            watchdog_rate: 0.0,
        });
    }
    let (faulted_res, faulted_report, faulted_wall) = serve_stream(sick_cfg, &stream);

    let mut doc = BenchDoc::new("pool_bench", Some(seed), args.smoke);
    doc.record("m", wl.m as f64, Unit::Count);
    doc.record("n", wl.n as f64, Unit::Count);
    doc.record("k", wl.k as f64, Unit::Count);
    doc.record("queries", stream.len() as f64, Unit::Count);
    doc.record("shared_ratio", wl.shared_ratio, Unit::Frac);
    record_pass(&mut doc, "single", &single_report, single_wall);
    record_pass(&mut doc, "pooled", &pooled_report, pooled_wall);
    record_pass(&mut doc, "faulted", &faulted_report, faulted_wall);

    let single_sim = single_report.pool.as_ref().expect("pooled").sim_time_s;
    let pooled_sim = pooled_report.pool.as_ref().expect("pooled").sim_time_s;
    let speedup = single_sim / pooled_sim;
    doc.gate("speedup", speedup, Unit::X, Op::Ge, SPEEDUP_FLOOR);
    doc.require(
        "bit_identical",
        bits_eq(&golden, &single_res) && bits_eq(&golden, &pooled_res),
    );
    let counters_match = [&single_report, &pooled_report, &faulted_report]
        .iter()
        .all(|r| {
            r.completed == golden_report.completed
                && r.batches == golden_report.batches
                && r.batched_queries == golden_report.batched_queries
                && r.failed == 0
                && r.rejected == 0
                && r.internal_errors == 0
        })
        && golden_report.failed == 0;
    doc.require("counters_match", counters_match);

    // The degraded pass: every query still completes, within tolerance
    // of the golden (sick shards recover on the CPU, which is bit-exact
    // to the reference but not to the healthy GPU shards it replaces),
    // and only the sick device degrades.
    let mut faulted_correct = true;
    for (qi, (got, want)) in faulted_res.iter().zip(&golden).enumerate() {
        let (Ok(got), Ok(want)) = (got, want) else {
            eprintln!("degraded pass: query {qi} did not complete");
            faulted_correct = false;
            continue;
        };
        if !within_tol(got, want, TOL) {
            eprintln!("degraded pass: query {qi} outside tolerance");
            faulted_correct = false;
        }
    }
    let faulted_pool = faulted_report.pool.as_ref().expect("pooled");
    let sick = &faulted_pool.devices[SICK];
    let healthy_fallbacks: u64 = faulted_pool
        .devices
        .iter()
        .enumerate()
        .filter(|(d, _)| *d != SICK)
        .map(|(_, r)| r.cpu_fallbacks)
        .sum();
    doc.require("faulted.within_tolerance", faulted_correct);
    let trips = sick.breaker_trips as f64;
    doc.gate("faulted.sick_trips", trips, Unit::Count, Op::Ge, 1.0);
    let sick_fallbacks = sick.cpu_fallbacks as f64;
    doc.gate(
        "faulted.sick_fallbacks",
        sick_fallbacks,
        Unit::Count,
        Op::Ge,
        1.0,
    );
    let healthy = healthy_fallbacks as f64;
    doc.gate(
        "faulted.healthy_fallbacks",
        healthy,
        Unit::Count,
        Op::Eq,
        0.0,
    );

    eprintln!(
        "sim time: {single_sim:.6} s at 1 device, {pooled_sim:.6} s at {devices} \
         ({speedup:.2}x, floor {SPEEDUP_FLOOR}x)"
    );
    eprintln!(
        "wall: golden {golden_wall:.0} ms, pool1 {single_wall:.0} ms, \
         pool{devices} {pooled_wall:.0} ms, degraded {faulted_wall:.0} ms"
    );
    finish(&doc, args.json.as_deref());
}
