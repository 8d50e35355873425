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

// ---- Single-row-group launches: atomics fold in ascending bx --------

use kernel_summation::gpu_kernels::aux_kernels::Bandwidth;
use kernel_summation::gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use kernel_summation::gpu_kernels::{
    FusedKernelSummation, FusedMultiPacked, VerifyBufs, CHECKSUM_SLOT_WORDS,
};
use kernel_summation::gpu_sim::buffer::BufId;

fn lcg_vec(len: usize, seed: u64) -> Vec<f32> {
    let mut state = seed | 1;
    (0..len)
        .map(|_| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        })
        .collect()
}

/// Uploads one verified fused problem with `r` weight columns and
/// returns its kernel (the paper constructor at `r = 1`) plus the
/// buffers whose bits must not depend on the thread count.
fn verified_kernel(
    dev: &mut GpuDevice,
    shape: GemmShape,
    r: usize,
    seed: u64,
) -> (FusedKernelSummation, Vec<BufId>) {
    let (m, n, k) = (shape.m, shape.n, shape.k);
    let a = lcg_vec(m * k, seed);
    let b = lcg_vec(k * n, seed + 1);
    let norms = |pts: &[f32], rows: usize| -> Vec<f32> {
        (0..rows)
            .map(|i| pts[i * k..(i + 1) * k].iter().map(|v| v * v).sum())
            .collect()
    };
    let ops = GemmOperands {
        a: dev.upload(&a),
        b: dev.upload(&b),
    };
    let a2 = dev.upload(&norms(&a, m));
    let b2 = dev.upload(&norms(&b, n));
    let w = dev.upload(&lcg_vec(n * r, seed + 2));
    let v = dev.alloc(m * r);
    let vb = VerifyBufs {
        checksum: dev.alloc(r * (m / 128) * CHECKSUM_SLOT_WORDS),
        flag: dev.alloc(CHECKSUM_SLOT_WORDS),
    };
    let bw = Bandwidth { h: 0.9 };
    let kern = if r == 1 {
        FusedKernelSummation::new(ops, a2, b2, w, v, shape, bw)
    } else {
        FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, bw, r)
    };
    (kern.with_verify(vb), vec![v, vb.checksum])
}

/// Runs `launch` in a pool of `threads` workers on a fresh GTX970 and
/// returns the bits of the buffers it names.
fn run_bits(
    threads: usize,
    launch: impl Fn(&mut GpuDevice) -> Vec<BufId> + Send + Sync,
) -> Vec<Vec<u32>> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .expect("thread pool builds");
    pool.install(|| {
        let mut dev = GpuDevice::gtx970();
        let outs = launch(&mut dev);
        outs.iter()
            .map(|&buf| dev.download(buf).iter().map(|x| x.to_bits()).collect())
            .collect()
    })
}

#[test]
fn single_row_group_verified_v_bits_are_independent_of_thread_count() {
    // M = block_m: one grid row of 16 column blocks, all folding into
    // the same 128 V rows. ABFT sends the launch down the interpreter.
    let shape = GemmShape {
        m: 128,
        n: 2048,
        k: 32,
    };
    let launch = |dev: &mut GpuDevice| {
        let (kern, outs) = verified_kernel(dev, shape, 1, 21);
        dev.run(&kern).expect("launch succeeds");
        outs
    };
    let one = run_bits(1, launch);
    for threads in [2, 3, 7] {
        assert!(
            run_bits(threads, launch) == one,
            "V bits differ between 1 and {threads} threads"
        );
    }
}

#[test]
fn packed_verified_v_bits_are_independent_of_thread_count() {
    // Packed segments with many column blocks per row: each segment
    // row is a contiguous run of the packed launch's linear blocks.
    let shapes = [
        (
            GemmShape {
                m: 128,
                n: 1024,
                k: 16,
            },
            2,
        ),
        (
            GemmShape {
                m: 256,
                n: 768,
                k: 32,
            },
            1,
        ),
    ];
    let launch = |dev: &mut GpuDevice| {
        let mut kernels = Vec::new();
        let mut outs = Vec::new();
        for (i, &(shape, r)) in shapes.iter().enumerate() {
            let (kern, bufs) = verified_kernel(dev, shape, r, 40 + 10 * i as u64);
            kernels.push(kern);
            outs.extend(bufs);
        }
        dev.run(&FusedMultiPacked::new(kernels))
            .expect("launch succeeds");
        outs
    };
    let one = run_bits(1, launch);
    for threads in [2, 3, 7] {
        assert!(
            run_bits(threads, launch) == one,
            "V bits differ between 1 and {threads} threads"
        );
    }
}
