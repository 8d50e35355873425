//! Horizontal-fusion differential harness.
//!
//! Packing mutually-unrelated small batches into one routed launch is
//! a *scheduling* change: every segment's blocks execute the unpacked
//! kernel body at the same local coordinates against the same padded
//! buffers, and segments write disjoint outputs. These tests pin the
//! resulting invariant — packed serving is **bit-identical** to
//! unpacked serving, cold and warm, unpooled and pooled, on the plain
//! and ABFT-verified GPU backends — plus the fusion bookkeeping: a
//! packed run spends strictly fewer simulated launches and reports
//! its packed counters, while an unpacked run reports zero.

use ks_serve::{
    generate_small_queries, packed_smoke_workload, PoolConfig, Query, ServeBackend, ServeConfig,
    Server, Submit, Ticket,
};

use ks_gpu_sim::config::{DeviceConfig, Interconnect};

/// The packing smoke stream: waves of 16 mutually-unrelated
/// `(256, 256, 32)` queries over shared corpora and target sets.
fn small_queries() -> Vec<Query> {
    generate_small_queries(&packed_smoke_workload())
}

/// Serves the stream twice through one server — a cold pass and a
/// plan-warm pass, each submitted with the worker paused so wave
/// composition is deterministic — and returns both result sets plus
/// the report.
fn serve_two_passes(
    mut cfg: ServeConfig,
    queries: &[Query],
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>, ks_serve::ServeReport) {
    cfg.start_paused = true;
    cfg.queue_capacity = cfg.queue_capacity.max(queries.len());
    let mut srv = Server::start(cfg);
    let submit_all = |srv: &mut Server| -> Vec<Ticket> {
        queries
            .iter()
            .map(|q| match srv.submit(q.clone()) {
                Submit::Accepted(t) => t,
                Submit::Rejected(_) => panic!("queue sized for the stream"),
            })
            .collect()
    };
    let cold = submit_all(&mut srv);
    srv.resume();
    let cold: Vec<Vec<f32>> = cold.iter().map(|t| t.wait().expect("completes")).collect();
    srv.pause();
    let warm = submit_all(&mut srv);
    srv.resume();
    let warm: Vec<Vec<f32>> = warm.iter().map(|t| t.wait().expect("completes")).collect();
    (cold, warm, srv.shutdown())
}

fn assert_bits_eq(got: &[f32], want: &[f32], ctx: &str) {
    assert_eq!(got.len(), want.len(), "{ctx}: length");
    for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
        assert_eq!(g.to_bits(), w.to_bits(), "{ctx}: row {i}: {g} vs {w}");
    }
}

fn gpu_cfg(pack: bool) -> ServeConfig {
    ServeConfig {
        backend: ServeBackend::GpuFused { cpu_fallback: true },
        pack,
        ..ServeConfig::default()
    }
}

#[test]
fn packed_gpu_serving_is_bit_identical_to_unpacked_cold_and_warm() {
    let queries = small_queries();
    let (base_cold, base_warm, base) = serve_two_passes(gpu_cfg(false), &queries);
    let (cold, warm, packed) = serve_two_passes(gpu_cfg(true), &queries);
    for (qi, (g, w)) in cold.iter().zip(&base_cold).enumerate() {
        assert_bits_eq(g, w, &format!("cold query {qi}"));
    }
    for (qi, (g, w)) in warm.iter().zip(&base_warm).enumerate() {
        assert_bits_eq(g, w, &format!("warm query {qi}"));
    }
    // Fusion bookkeeping: the packed run actually packed...
    assert!(packed.packed_launches > 0, "the smoke stream must pack");
    assert!(
        packed.packed_segments >= 2 * packed.packed_launches,
        "a packed launch carries at least two segments"
    );
    // ...the unpacked run reports zero...
    assert_eq!(base.packed_launches, 0);
    assert_eq!(base.packed_segments, 0);
    // ...and fusion is the whole point: strictly fewer launches for
    // the same stream (16 fused kernels per cold wave become 1).
    assert!(
        packed.launches < base.launches,
        "packed {} vs unpacked {} launches",
        packed.launches,
        base.launches
    );
    assert_eq!(packed.failed, 0);
    assert_eq!(packed.completed, base.completed);
    assert_eq!(packed.attempts, packed.batches + packed.retries);
}

#[test]
fn packed_pooled_serving_is_bit_identical_to_unpacked() {
    let queries = small_queries();
    let (base_cold, base_warm, _) = serve_two_passes(gpu_cfg(false), &queries);
    for devices in [1usize, 2, 4] {
        let mut cfg = gpu_cfg(true);
        cfg.pool = Some(PoolConfig::homogeneous(
            devices,
            DeviceConfig::gtx970(),
            Interconnect::pcie3_x16(),
        ));
        let (cold, warm, report) = serve_two_passes(cfg, &queries);
        for (qi, (g, w)) in cold.iter().zip(&base_cold).enumerate() {
            assert_bits_eq(g, w, &format!("pooled N={devices} cold query {qi}"));
        }
        for (qi, (g, w)) in warm.iter().zip(&base_warm).enumerate() {
            assert_bits_eq(g, w, &format!("pooled N={devices} warm query {qi}"));
        }
        assert!(
            report.packed_launches > 0,
            "N={devices}: pooled packing must fire"
        );
        assert!(report.packed_segments >= 2 * report.packed_launches);
        assert_eq!(report.failed, 0);
        let pool = report.pool.expect("pooled run reports the pool");
        assert_eq!(pool.total_fallbacks(), 0, "healthy pool never falls back");
        assert_eq!(pool.total_trips(), 0);
    }
}

#[test]
fn packed_resilient_serving_is_bit_identical_to_unpacked() {
    let queries = small_queries();
    let mut base_cfg = ServeConfig {
        backend: ServeBackend::GpuResilient,
        ..ServeConfig::default()
    };
    let mut pack_cfg = base_cfg.clone();
    pack_cfg.pack = true;
    base_cfg.pack = false;
    let (base_cold, base_warm, base) = serve_two_passes(base_cfg, &queries);
    let (cold, warm, packed) = serve_two_passes(pack_cfg, &queries);
    for (qi, (g, w)) in cold.iter().zip(&base_cold).enumerate() {
        assert_bits_eq(g, w, &format!("resilient cold query {qi}"));
    }
    for (qi, (g, w)) in warm.iter().zip(&base_warm).enumerate() {
        assert_bits_eq(g, w, &format!("resilient warm query {qi}"));
    }
    assert!(packed.packed_launches > 0);
    assert!(packed.launches < base.launches);
    // Healthy device: the verified path ran and found nothing.
    assert_eq!(packed.corruption_detected, 0);
    assert_eq!(packed.failed, 0);
    assert_eq!(packed.attempts, packed.batches + packed.retries);
}

/// Sweep-scale data faults under packed resilient serving: corruption
/// in a packed launch degrades only its own segments (to the tainted
/// ladder ending at the bit-exact CPU harbor) and every served value
/// stays correct-or-surfaced.
#[test]
fn packed_resilient_corruption_degrades_only_affected_segments() {
    let queries = small_queries();
    let mut cfg = ServeConfig {
        backend: ServeBackend::GpuResilient,
        pack: true,
        ..ServeConfig::default()
    };
    cfg.device.fault = Some(ks_gpu_sim::FaultSpec {
        seed: 13,
        smem_rate: 2.0,
        dram_rate: 1.0,
        ..Default::default()
    });
    let (results, _, report) = serve_two_passes(cfg.clone(), &queries);
    assert_eq!(report.failed, 0, "the ladder always completes");
    assert!(report.packed_launches > 0, "faults must not stop packing");
    assert!(
        report.corruption_detected > 0,
        "sweep-scale flips must trip the per-segment ABFT checks"
    );
    assert!(report.injected_faults > 0);
    assert_eq!(report.attempts, report.batches + report.retries);
    // Correct-or-surfaced: detected corruption was re-served through
    // the tainted ladder, so values match CPU serving within the
    // healthy-GPU tolerance unless an undetected fault was surfaced.
    let (cpu_results, _, _) = serve_two_passes(
        ServeConfig {
            backend: ServeBackend::CpuFused,
            ..ServeConfig::default()
        },
        &queries,
    );
    let mut strayed = 0u64;
    for (got, want) in results.iter().zip(&cpu_results) {
        for (g, w) in got.iter().zip(want.iter()) {
            let diff = (g - w).abs();
            if diff.is_nan() || diff >= 5e-3 * w.abs().max(1.0) {
                strayed += 1;
            }
        }
    }
    assert!(
        strayed == 0 || report.undetected_injected > 0,
        "{strayed} values strayed with no undetected-fault surfacing"
    );
}
