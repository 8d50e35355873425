//! Seeded chaos soak of the resilient serving backend
//! (`BENCH_chaos.json`).
//!
//! Drives a query stream through [`ServeBackend::GpuResilient`] on a
//! device with an *active* fault model — SMEM/register upsets plus
//! launch-level SM losses and watchdog timeouts, all drawn from a
//! fixed seed — and checks every single outcome against the CPU fused
//! reference:
//!
//! * a completion must be bit-identical to the reference (CPU rung) or
//!   within the GPU tolerance (healthy GPU rungs);
//! * anything else must have surfaced as an error on the ticket.
//!
//! A completion outside tolerance with no error is **silently wrong**
//! — the failure mode the ABFT ladder exists to prevent — and fails
//! the soak, as does any inconsistency in the report's retry/breaker/
//! degradation accounting.
//!
//! ```text
//! chaos_bench [--smoke] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 2000 queries; `--smoke`: 500 (CI-sized);
//! * `--seed S`: master seed of the workload and fault schedule
//!   (default 42);
//! * `--json PATH`: write the [`BenchDoc`].

use ks_bench::harness::{
    finish, reference, serve_stream, within_tol, BenchArgs, BenchDoc, Op, Unit,
};
use ks_gpu_sim::FaultSpec;
use ks_serve::{generate_queries, ServeBackend, ServeConfig, WorkloadConfig};

/// Per-launch fault rates of the soak: expected data flips well above
/// a 1e-3/launch floor, plus launch-level faults so the retry and
/// breaker paths actually run.
const SMEM_RATE: f64 = 0.05;
const REG_RATE: f64 = 0.05;
const SM_LOSS_RATE: f64 = 0.01;
const WATCHDOG_RATE: f64 = 0.005;

fn main() {
    let args = BenchArgs::from_env("chaos_bench", &[("--queries", "N"), ("--seed", "S")]);
    let seed: u64 = args.get("--seed", 42);
    let queries: usize = args.get("--queries", if args.smoke { 500 } else { 2000 });

    let wl = WorkloadConfig {
        clients: 1,
        queries_per_client: queries,
        corpora: 3,
        shared_ratio: 0.9,
        large_ratio: 0.0,
        m: 256,
        n: 128,
        k: 16,
        h: 1.0,
        deadline: None,
        seed,
    };
    let stream = generate_queries(&wl);

    let mut cfg = ServeConfig {
        backend: ServeBackend::GpuResilient,
        ..ServeConfig::default()
    };
    cfg.device.fault = Some(FaultSpec {
        seed: seed ^ 0xC4A0_5BAD,
        smem_rate: SMEM_RATE,
        reg_rate: REG_RATE,
        sm_loss_rate: SM_LOSS_RATE,
        watchdog_rate: WATCHDOG_RATE,
        // DRAM exponent flips stay off: flips landing in the norm
        // intermediates *before* the checksummed kernel are outside
        // ABFT coverage by design (DESIGN.md §11).
        dram_rate: 0.0,
    });
    let (outcomes, report, wall_ms) = serve_stream(cfg, &stream);

    let (mut bit_exact, mut tolerant, mut silent_wrong, mut errors) = (0u64, 0u64, 0u64, 0u64);
    for (qi, (q, outcome)) in stream.iter().zip(&outcomes).enumerate() {
        match outcome {
            Ok(got) => {
                let want = reference(q);
                assert_eq!(got.len(), want.len(), "query {qi}: result length");
                if got
                    .iter()
                    .zip(&want)
                    .all(|(g, w)| g.to_bits() == w.to_bits())
                {
                    bit_exact += 1;
                } else if within_tol(got, &want, 5e-3) {
                    tolerant += 1;
                } else {
                    silent_wrong += 1;
                    eprintln!("SILENT WRONG: query {qi} completed outside tolerance");
                }
            }
            Err(e) => {
                errors += 1;
                eprintln!("query {qi} surfaced: {e}");
            }
        }
    }

    let counters_consistent = report.attempts == report.batches + report.retries
        && report.submitted == report.accepted + report.rejected
        && report.accepted == report.completed + report.expired + report.shed + report.failed
        && report.completed == bit_exact + tolerant + silent_wrong
        && report.expired + report.shed + report.failed == errors
        && report.internal_errors == 0;

    let mut doc = BenchDoc::new("chaos_bench", Some(seed), args.smoke);
    for (name, rate) in [
        ("smem_rate", SMEM_RATE),
        ("reg_rate", REG_RATE),
        ("sm_loss_rate", SM_LOSS_RATE),
        ("watchdog_rate", WATCHDOG_RATE),
    ] {
        doc.record(name, rate, Unit::Frac);
    }
    for (name, value) in [
        ("submitted", report.submitted),
        ("rejected", report.rejected),
        ("completed", report.completed),
        ("errors", errors),
        ("bit_exact", bit_exact),
        ("tolerant", tolerant),
        ("batches", report.batches),
        ("attempts", report.attempts),
        ("retries", report.retries),
        ("fallbacks", report.fallbacks),
        ("degraded_completions", report.degraded_completions),
        ("corruption_detected", report.corruption_detected),
        ("injected_faults", report.injected_faults),
        ("undetected_injected", report.undetected_injected),
        ("breaker_trips", report.breaker_trips),
        ("breaker_resets", report.breaker_resets),
        ("internal_errors", report.internal_errors),
    ] {
        doc.record(name, value as f64, Unit::Count);
    }
    doc.record("wall_time", wall_ms, Unit::Ms);
    let wrong = silent_wrong as f64;
    doc.gate("silent_wrong", wrong, Unit::Count, Op::Eq, 0.0);
    doc.require("counters_consistent", counters_consistent);
    if !counters_consistent {
        eprintln!("ServeReport accounting is inconsistent: {report:?}");
    }

    eprintln!(
        "{} queries in {wall_ms:.0} ms: {bit_exact} bit-exact, {tolerant} in-tolerance, \
         {errors} surfaced, {silent_wrong} silently wrong",
        report.submitted
    );
    eprintln!(
        "ladder: {} batches, {} attempts ({} retries), {} corruption detections, \
         {} injected fault events, {} breaker trips / {} resets, {} CPU fallbacks",
        report.batches,
        report.attempts,
        report.retries,
        report.corruption_detected,
        report.injected_faults,
        report.breaker_trips,
        report.breaker_resets,
        report.fallbacks
    );
    finish(&doc, args.json.as_deref());
}
