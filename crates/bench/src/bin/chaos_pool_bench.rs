//! Seeded lifecycle + link-fault soak of the self-healing device pool
//! (`BENCH_chaos_pool.json`).
//!
//! Three passes over one deterministic query stream:
//!
//! 1. **Chaos** — a 4-device pool with a flapping member (certain
//!    hang, certain recovery: it alternates sick/healthy every epoch)
//!    and a second member behind a lossy link (corruption + timeouts).
//!    Every completion is checked against the CPU fused reference;
//!    anything outside tolerance without a surfaced error is
//!    **silently wrong** and fails the soak. The health loop must
//!    actually cycle (evictions > 0 *and* readmissions > 0), no shard
//!    may be dropped across drain/evict/readmit (`executed` summed
//!    over devices equals the coordinator's dispatch count), and the
//!    brownout accounting identity must hold.
//! 2. **Degraded throughput** — the same pool with one member
//!    permanently lost at epoch one. After eviction the survivors
//!    carry the stream; simulated serving time is gated at ≥ 2× the
//!    single-device baseline.
//! 3. **Quiet** — lifecycle and link specs present but all-zero must
//!    serve bit-identically to spec-free serving, with every
//!    fault counter untouched.
//!
//! ```text
//! chaos_pool_bench [--smoke] [--queries N] [--seed S] [--json PATH]
//! ```
//!
//! * default stream: 240 queries; `--smoke`: 96 (CI-sized);
//! * `--seed S`: master seed of the workload and both fault schedules
//!   (default 42);
//! * `--json PATH`: write the [`BenchDoc`].

use ks_bench::harness::{
    bits_eq, finish, reference, serve_stream, within_tol, BenchArgs, BenchDoc, Op, Outcomes, Unit,
};
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::{LifecycleSpec, LinkFaultSpec};
use ks_serve::{
    generate_queries, HealthConfig, PoolConfig, PoolDevice, PoolReport, Query, ServeBackend,
    ServeConfig, ServeReport, WorkloadConfig,
};

const DEVICES: usize = 4;
/// Index of the flapping member (chaos pass) / lost member
/// (throughput pass).
const SICK: usize = 1;
/// Index of the member behind the lossy link (chaos pass).
const LOSSY: usize = 2;

/// `n` fault-free GTX970 pool members behind `link`.
fn devices(n: usize, link: &Interconnect) -> Vec<PoolDevice> {
    (0..n)
        .map(|_| PoolDevice {
            device: DeviceConfig::gtx970(),
            interconnect: link.clone(),
            lifecycle: None,
        })
        .collect()
}

/// Serves the stream through one pooled server, one batch per query
/// so every batch advances a lifecycle epoch.
fn serve(
    devices: Vec<PoolDevice>,
    health: HealthConfig,
    stream: &[Query],
) -> (Outcomes, ServeReport) {
    let cfg = ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        wave: 1,
        pool: Some(PoolConfig {
            devices,
            queue_capacity: stream.len(),
            plan_cache_capacity: 8,
            shard_align: 128,
            health,
        }),
        ..ServeConfig::default()
    };
    let (outcomes, report, _) = serve_stream(cfg, stream);
    (outcomes, report)
}

fn pool_report(report: &ServeReport) -> &PoolReport {
    report.pool.as_ref().unwrap_or_else(|| {
        eprintln!("error: pooled serving produced no pool report");
        std::process::exit(1);
    })
}

fn main() {
    let args = BenchArgs::from_env("chaos_pool_bench", &[("--queries", "N"), ("--seed", "S")]);
    let seed: u64 = args.get("--seed", 42);
    let queries: usize = args.get("--queries", if args.smoke { 96 } else { 240 });
    let t0 = std::time::Instant::now();

    // Corpora sized so a 4-device pool shards every batch across all
    // members (640 rows = five 128-row tiles).
    let wl = WorkloadConfig {
        clients: 1,
        queries_per_client: queries,
        corpora: 2,
        shared_ratio: 0.9,
        large_ratio: 0.0,
        m: 640,
        n: 96,
        k: 8,
        h: 1.0,
        deadline: None,
        seed,
    };
    let stream = generate_queries(&wl);

    // ---- Pass 1: chaos ------------------------------------------------
    let pcie = Interconnect::pcie3_x16();
    let mut chaos = devices(DEVICES, &pcie);
    chaos[SICK].lifecycle = Some(LifecycleSpec {
        seed: seed ^ 0xF1A9,
        hang_rate: 1.0,
        recover_rate: 1.0,
        ..LifecycleSpec::default()
    });
    chaos[LOSSY].interconnect.fault = Some(LinkFaultSpec {
        seed: seed ^ 0x11F7,
        corrupt_rate: 0.3,
        timeout_rate: 0.1,
    });
    let health = HealthConfig {
        evict_threshold: 1,
        // Odd cooldown: probes land on the flapper's healthy parity.
        probe_cooldown: 3,
    };
    let (outcomes, report) = serve(chaos, health, &stream);
    let mut silent_wrong = 0u64;
    for (qi, (q, outcome)) in stream.iter().zip(&outcomes).enumerate() {
        let Ok(got) = outcome else { continue };
        let want = reference(q);
        assert_eq!(got.len(), want.len(), "query {qi}: result length");
        if !within_tol(got, &want, 5e-3) {
            silent_wrong += 1;
            eprintln!("SILENT WRONG: query {qi} completed outside tolerance");
        }
    }
    let pool = pool_report(&report);
    let sum = |f: fn(&ks_serve::DeviceReport) -> u64| pool.devices.iter().map(f).sum::<u64>();

    let mut doc = BenchDoc::new("chaos_pool_bench", Some(seed), args.smoke);
    doc.record("devices", DEVICES as f64, Unit::Count);
    doc.record("queries", stream.len() as f64, Unit::Count);
    for (name, value) in [
        ("completed", report.completed),
        ("shed", report.shed),
        ("expired", report.expired),
        ("lifecycle_hangs", sum(|d| d.lifecycle_hangs)),
        ("lifecycle_losses", sum(|d| d.lifecycle_losses)),
        ("link_timeouts", pool.total_link_timeouts()),
        ("shards_dispatched", pool.shard_tasks),
        ("cpu_fallbacks", pool.total_fallbacks()),
    ] {
        doc.record(format!("chaos.{name}"), value as f64, Unit::Count);
    }
    let count = |doc: &mut BenchDoc, name: &str, value: u64, op: Op, bound: f64| {
        doc.gate(
            format!("chaos.{name}"),
            value as f64,
            Unit::Count,
            op,
            bound,
        );
    };
    count(&mut doc, "silent_wrong", silent_wrong, Op::Eq, 0.0);
    // The pool never fails a batch.
    count(&mut doc, "failed", report.failed, Op::Eq, 0.0);
    // No shard is dropped across drain/evict/readmit.
    let executed = sum(|d| d.executed);
    count(
        &mut doc,
        "shards_executed",
        executed,
        Op::Eq,
        pool.shard_tasks as f64,
    );
    // The flapping device is evicted and readmitted.
    count(&mut doc, "evictions", pool.total_evictions(), Op::Ge, 1.0);
    count(
        &mut doc,
        "readmissions",
        pool.total_readmissions(),
        Op::Ge,
        1.0,
    );
    // The lossy link trips the CRC ledger.
    count(
        &mut doc,
        "link_crc_detected",
        sum(|d| d.link_crc_detected),
        Op::Ge,
        1.0,
    );
    count(
        &mut doc,
        "link_retransmits",
        sum(|d| d.link_retransmits),
        Op::Ge,
        1.0,
    );
    doc.require(
        "chaos.accounting_consistent",
        report.submitted == report.accepted + report.rejected
            && report.accepted == report.completed + report.expired + report.shed + report.failed
            && report.internal_errors == 0,
    );

    // ---- Pass 2: degraded throughput ----------------------------------
    // A compute-dominated stream (big corpus, few queries): at small
    // `M` the per-transfer link latency sets the pace and pool size
    // barely moves simulated time, which would make the gate
    // meaningless.
    let throughput_wl = WorkloadConfig {
        clients: 1,
        queries_per_client: if args.smoke { 12 } else { 20 },
        corpora: 1,
        shared_ratio: 1.0,
        large_ratio: 0.0,
        m: 32_768,
        n: 128,
        k: 16,
        h: 1.0,
        deadline: None,
        seed: seed ^ 0x7492,
    };
    let throughput_stream = generate_queries(&throughput_wl);
    // Throughput-pass devices sit on the fast fabric: at `r = 1` per
    // batch the PCIe setup latency is a fixed per-shard charge that
    // pool size cannot amortize, and the gate would measure the link,
    // not the pool.
    let nvlink = Interconnect::nvlink();
    let mut degraded = devices(DEVICES, &nvlink);
    degraded[SICK].lifecycle = Some(LifecycleSpec {
        seed: seed ^ 0xDEAD,
        loss_rate: 1.0, // lost at the first epoch, absorbing
        ..LifecycleSpec::default()
    });
    let never_probe = HealthConfig {
        evict_threshold: 1,
        probe_cooldown: u64::MAX / 2,
    };
    let (_, degraded_report) = serve(degraded, never_probe, &throughput_stream);
    let (_, single_report) = serve(
        devices(1, &nvlink),
        HealthConfig::default(),
        &throughput_stream,
    );
    let degraded_sim = pool_report(&degraded_report).sim_time_s;
    let single_sim = pool_report(&single_report).sim_time_s;
    doc.record("single.sim_time", single_sim, Unit::SimS);
    doc.record("degraded.sim_time", degraded_sim, Unit::SimS);
    // The degraded pool sustains 2x single-device throughput.
    let speedup = single_sim / degraded_sim;
    doc.gate("degraded.speedup", speedup, Unit::X, Op::Ge, 2.0);

    // ---- Pass 3: quiet specs are exactly inert ------------------------
    let mut quiet_specced = devices(DEVICES, &pcie);
    for d in &mut quiet_specced {
        d.lifecycle = Some(LifecycleSpec {
            seed,
            ..LifecycleSpec::default() // all-zero rates
        });
        d.interconnect.fault = Some(LinkFaultSpec {
            seed: seed ^ 0x1,
            corrupt_rate: 0.0,
            timeout_rate: 0.0,
        });
    }
    let (specced_out, specced_report) = serve(quiet_specced, HealthConfig::default(), &stream);
    let (bare_out, _) = serve(devices(DEVICES, &pcie), HealthConfig::default(), &stream);
    let specced = pool_report(&specced_report);
    let quiet_counters_untouched = specced.total_evictions() == 0
        && specced.total_link_timeouts() == 0
        && specced.devices.iter().all(|d| {
            d.lifecycle_hangs == 0
                && d.lifecycle_losses == 0
                && d.link_crc_detected == 0
                && d.link_retransmits == 0
        });
    doc.require(
        "quiet.bit_identical",
        quiet_counters_untouched && bits_eq(&specced_out, &bare_out),
    );
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    doc.record("wall_time", wall_ms, Unit::Ms);

    eprintln!(
        "chaos: {} completed / {} shed / {} expired / {} failed; \
         {} evictions, {} readmissions; {executed}/{} shards executed",
        report.completed,
        report.shed,
        report.expired,
        report.failed,
        pool.total_evictions(),
        pool.total_readmissions(),
        pool.shard_tasks,
    );
    eprintln!(
        "throughput: single {single_sim:.4}s sim vs degraded {degraded_sim:.4}s sim = {speedup:.2}x"
    );
    finish(&doc, args.json.as_deref());
}
