//! Horizontal-fusion serving benchmark (`BENCH_pack.json`).
//!
//! Serves one deterministic heterogeneous small-query stream twice:
//!
//! 1. **pack off** — every small batch launches back-to-back, each
//!    underfilling the device (the bit-exactness golden);
//! 2. **pack on** — mutually-unrelated small batches from one
//!    scheduling wave fuse into a single routed launch.
//!
//! Any bit drift, a simulated-time speedup below the floor, no DRAM
//! saving, or a pass where packing never fired fails the run.
//!
//! ```text
//! pack_bench [--smoke] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 128 queries in waves of 16 mutually-unrelated
//!   `(M, N, K) = (256, 256, 32)` pairs over 4 shared corpora × 4
//!   shared target sets; `--smoke` shortens the stream to 64 queries
//!   (CI-sized) at the same wave shape, so the speedup gate measures
//!   the same packing economics;
//! * `--seed S`: master workload seed (default 11);
//! * `--json PATH`: write the [`BenchDoc`].

use ks_bench::harness::{bits_eq, finish, serve_stream, BenchArgs, BenchDoc, Op, Unit};
use ks_gpu_sim::config::DeviceConfig;
use ks_serve::{generate_small_queries, packed_smoke_workload, ServeConfig, ServeReport};

/// Simulated-time speedup floor for the packed pass over back-to-back
/// serving (the paper-level target is 2×; the smoke stream must still
/// clear 1.5×).
const SPEEDUP_FLOOR: f64 = 1.5;

/// Mean utilized fraction of a full resident wave across the fused
/// kernels of a run: `grid_blocks / (num_sms · blocks_per_sm)`,
/// capped at 1 per kernel. Back-to-back small launches sit far below
/// 1; packing exists to push this up.
fn fused_wave_fill(report: &ServeReport, dev: &DeviceConfig) -> f64 {
    let fills: Vec<f64> = report
        .profiles
        .iter()
        .flat_map(|p| &p.kernels)
        .filter(|k| k.name.starts_with("fused_multi"))
        .map(|k| {
            let resident = f64::from(dev.num_sms) * f64::from(k.occupancy.blocks_per_sm);
            (k.launch.grid.count() as f64 / resident).min(1.0)
        })
        .collect();
    if fills.is_empty() {
        0.0
    } else {
        fills.iter().sum::<f64>() / fills.len() as f64
    }
}

/// Records one pass under `pass.`.
fn record_pass(doc: &mut BenchDoc, pass: &str, report: &ServeReport, dev: &DeviceConfig, ms: f64) {
    for (name, value) in [
        ("completed", report.completed),
        ("failed", report.failed),
        ("batches", report.batches),
        ("launches", report.launches),
        ("packed_launches", report.packed_launches),
        ("packed_segments", report.packed_segments),
        ("dram_transactions", report.total_dram_transactions()),
    ] {
        doc.record(format!("{pass}.{name}"), value as f64, Unit::Count);
    }
    doc.record(
        format!("{pass}.fused_wave_fill"),
        fused_wave_fill(report, dev),
        Unit::Frac,
    );
    doc.record(format!("{pass}.sim_time"), sim_time(report), Unit::SimS);
    doc.record(format!("{pass}.wall_time"), ms, Unit::Ms);
}

/// Simulated serving time summed over every completed profile.
fn sim_time(report: &ServeReport) -> f64 {
    report.profiles.iter().map(|p| p.total_time_s()).sum()
}

fn main() {
    let args = BenchArgs::from_env("pack_bench", &[("--queries", "N"), ("--seed", "S")]);
    let seed: u64 = args.get("--seed", 11);
    let queries: usize = args.get("--queries", if args.smoke { 64 } else { 128 });

    let mut wl = packed_smoke_workload();
    wl.queries = queries;
    wl.seed = seed;
    let stream = generate_small_queries(&wl);
    let cfg = |pack: bool| ServeConfig {
        pack,
        ..ServeConfig::default()
    };
    let device = cfg(false).device;

    eprintln!("serving {} queries back-to-back (golden)...", stream.len());
    let (golden, unpacked, unpacked_wall) = serve_stream(cfg(false), &stream);
    eprintln!("serving with horizontal fusion...");
    let (packed_res, packed, packed_wall) = serve_stream(cfg(true), &stream);

    let mut doc = BenchDoc::new("pack_bench", Some(seed), args.smoke);
    for (name, value) in [
        ("queries", stream.len()),
        ("m", wl.m),
        ("n", wl.n),
        ("k", wl.k),
        ("corpora", wl.corpora),
        ("target_sets", wl.target_sets),
    ] {
        doc.record(name, value as f64, Unit::Count);
    }
    record_pass(&mut doc, "unpacked", &unpacked, &device, unpacked_wall);
    record_pass(&mut doc, "packed", &packed, &device, packed_wall);

    let speedup = sim_time(&unpacked) / sim_time(&packed);
    let dram_saved =
        unpacked.total_dram_transactions() as f64 - packed.total_dram_transactions() as f64;
    doc.gate("speedup", speedup, Unit::X, Op::Ge, SPEEDUP_FLOOR);
    doc.gate("dram_saved", dram_saved, Unit::Count, Op::Ge, 1.0);
    doc.require("bit_identical", bits_eq(&golden, &packed_res));
    doc.require(
        "packing_fired",
        packed.packed_launches > 0
            && packed.packed_segments >= 2 * packed.packed_launches
            && unpacked.packed_launches == 0,
    );
    doc.require(
        "counters_clean",
        packed.completed == unpacked.completed
            && packed.failed == 0
            && unpacked.failed == 0
            && packed.launches < unpacked.launches,
    );

    eprintln!(
        "sim time: {:.6} s back-to-back, {:.6} s packed ({speedup:.2}x, floor {SPEEDUP_FLOOR}x)",
        sim_time(&unpacked),
        sim_time(&packed)
    );
    eprintln!(
        "launches: {} -> {} ({} packed waves carrying {} segments); {dram_saved} DRAM saved",
        unpacked.launches, packed.launches, packed.packed_launches, packed.packed_segments,
    );
    eprintln!("wall: golden {unpacked_wall:.0} ms, packed {packed_wall:.0} ms");
    finish(&doc, args.json.as_deref());
}
