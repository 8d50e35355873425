//! Golden determinism of the parallel replay engine at the export
//! layer: a smoke-sized sweep profiled with a 1-thread pool and an
//! 8-thread pool must produce **byte-identical** `BENCH_sweep.json`
//! documents once the (nondeterministic) host wall-time fields are
//! zeroed. This is the end-to-end form of the per-counter invariance
//! tests in `ks-gpu-sim`: any drift in cache state, counter merging,
//! or memoized translation would surface here as a JSON diff.
//!
//! The same holds for functional execution: a `gpu-fused` solve's `V`
//! bits must not depend on the thread count, whether it runs on the
//! block-native path or, under a fault model, on the warp interpreter.

use kernel_summation::core::gpu::try_solve_gpu_on;
use kernel_summation::gpu_kernels::GpuVariant;
use kernel_summation::gpu_sim::config::DeviceConfig;
use kernel_summation::gpu_sim::{FaultCounters, FaultSpec, GpuDevice};
use kernel_summation::prelude::*;
use ks_bench::metrics::SweepMetrics;
use ks_bench::{Sweep, SweepData};

fn sweep() -> Sweep {
    Sweep {
        k_values: vec![32, 64],
        m_values: vec![1024, 2048, 4096, 8192],
        n: 1024,
    }
}

/// Profiles the sweep inside a pool of `threads` workers and zeroes
/// the wall-time fields (the only nondeterministic part of the
/// schema).
fn metrics_with(threads: usize) -> SweepMetrics {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    let mut m = pool.install(|| {
        SweepMetrics::collect(&SweepData::compute(sweep()).expect("sweep profiles cleanly"))
    });
    for p in &mut m.points {
        p.wall_time_ms = 0.0;
    }
    m
}

#[test]
fn sweep_json_is_byte_identical_across_thread_counts() {
    let one = metrics_with(1);
    let eight = metrics_with(8);
    assert_eq!(one, eight, "sweep metrics differ between 1 and 8 threads");
    assert_eq!(
        one.to_json(),
        eight.to_json(),
        "serialised sweep JSON differs between 1 and 8 threads"
    );
}

// ---- Functional execution: V bits at any thread count ----------------

/// Runs one `gpu-fused` solve inside a pool of `threads` workers on a
/// fresh GTX970 (with `faults` configured, when given) and returns the
/// bits of `V` plus the injected-fault tally.
fn fused_solve_bits(threads: usize, faults: Option<&str>) -> (Vec<u32>, FaultCounters) {
    // Eight column blocks per row group, so a partition that split a
    // grid row would race atomics into the same V rows.
    let (m, n, k) = (512, 1024, 32);
    let p = KernelSumProblem::builder()
        .sources(PointSet::uniform_cube(m, k, 11))
        .targets(PointSet::uniform_cube(n, k, 12))
        .weights(
            PointSet::uniform_cube(n, 1, 13)
                .coords()
                .iter()
                .map(|v| v * 2.0 - 1.0)
                .collect(),
        )
        .kernel(GaussianKernel { h: 0.8 })
        .build();
    let mut cfg = DeviceConfig::gtx970();
    cfg.fault = faults.map(|s| FaultSpec::parse(s).expect("valid fault spec"));
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    pool.install(|| {
        let mut dev = GpuDevice::new(cfg);
        let out = try_solve_gpu_on(&mut dev, &p, GpuVariant::Fused).expect("solve succeeds");
        (
            out.v.iter().map(|x| x.to_bits()).collect(),
            dev.take_fault_counters(),
        )
    })
}

#[test]
fn gpu_fused_v_bits_are_independent_of_thread_count() {
    let (one, _) = fused_solve_bits(1, None);
    for threads in [2, 3, 7] {
        let (v, _) = fused_solve_bits(threads, None);
        assert!(v == one, "V bits differ between 1 and {threads} threads");
    }
}

#[test]
fn fault_plan_v_bits_are_independent_of_thread_count() {
    // A fault model sends every launch down the warp interpreter; the
    // register and DRAM flips are a function of the seed and the
    // launch-order block index, never of the host partition.
    let spec = "seed=5,reg=3,dram=1";
    let (one, tally) = fused_solve_bits(1, Some(spec));
    assert!(tally.reg_flips > 0, "no register faults landed: {tally:?}");
    for threads in [2, 3, 7] {
        let (v, t) = fused_solve_bits(threads, Some(spec));
        assert!(v == one, "V bits differ between 1 and {threads} threads");
        assert_eq!(t, tally, "{threads} threads");
    }
}
