//! Differential harness over the tile-geometry lattice: every
//! feasible [`TileGeometry`] must produce results bit-identical to the
//! geometry-aware CPU oracle under the sequential (`run_counted`)
//! schedule — the same reduction-order contract the serving ladder's
//! CPU/GPU cross-checks rely on.
//!
//! At every lattice point the multi-weight constructor at `R = 1` must
//! also build the paper kernel's launch exactly: the same `V` bits,
//! counters, memory traffic and resources.
//!
//! The shapes here are compact so the sweep stays debug-build fast;
//! the CI `tune-bench` job repeats the same check on the full smoke
//! grid in release through the tuner's admission gate
//! (`ks_tune::admit_geometry`), which refuses to ship any geometry
//! that fails it.

use ks_gpu_kernels::aux_kernels::Bandwidth;
use ks_gpu_kernels::fused::FusedKernelSummation;
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{fused_multi_oracle, fused_oracle, TileGeometry};
use ks_gpu_sim::buffer::BufId;
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::kernel::Kernel;
use ks_gpu_sim::GpuDevice;

fn rand_vec(len: usize, seed: u64) -> Vec<f32> {
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

fn host_norms(pts: &[f32], rows: usize, k: usize) -> Vec<f32> {
    (0..rows)
        .map(|i| pts[i * k..(i + 1) * k].iter().map(|v| v * v).sum())
        .collect()
}

/// Runs every feasible lattice geometry that divides `shape` through
/// the full-device sequential schedule and asserts bit-identity with
/// the oracle, and that the multi-weight constructor at `R = 1` builds
/// the identical launch. Returns how many geometries were exercised.
fn sweep_shape(shape: GemmShape, seed: u64) -> usize {
    let bw = Bandwidth { h: 1.0 };
    let a = rand_vec(shape.m * shape.k, seed);
    let b = rand_vec(shape.k * shape.n, seed + 1);
    let w = rand_vec(shape.n, seed + 2);
    let a2 = host_norms(&a, shape.m, shape.k);
    let b2 = host_norms(&b, shape.n, shape.k);

    let mut exercised = 0;
    for geo in TileGeometry::lattice(&DeviceConfig::gtx970()) {
        if !geo.divides(shape.m, shape.n, shape.k) {
            continue;
        }
        // Runs the kernel `build` makes on a fresh device; returns it
        // with its counted profile and `V`.
        let run = |build: &dyn Fn(GemmOperands, [BufId; 4]) -> FusedKernelSummation| {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.upload(&a),
                b: dev.upload(&b),
            };
            let bufs = [
                dev.upload(&a2),
                dev.upload(&b2),
                dev.upload(&w),
                dev.alloc(shape.m),
            ];
            let kern = build(ops, bufs).with_geometry(geo);
            let prof = dev.run_counted(&kern).unwrap();
            (kern, prof, dev.download(bufs[3]))
        };
        let (paper, paper_prof, got) =
            run(&|ops, [a2, b2, w, v]| FusedKernelSummation::new(ops, a2, b2, w, v, shape, bw));
        let want = fused_oracle(&geo, &a, &b, &a2, &b2, &w, shape.m, shape.n, shape.k, bw.h);
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(
                g.to_bits(),
                x.to_bits(),
                "{geo} shape {}x{}x{} row {i}: {g} vs {x}",
                shape.m,
                shape.n,
                shape.k
            );
        }

        // R = 1 through the multi-weight constructor: the same launch.
        let (multi, multi_prof, multi_v) = run(&|ops, [a2, b2, w, v]| {
            FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, bw, 1)
        });
        let ctx = format!("{geo} shape {}x{}x{}", shape.m, shape.n, shape.k);
        assert!(
            multi_v
                .iter()
                .map(|x| x.to_bits())
                .eq(got.iter().map(|x| x.to_bits())),
            "{ctx}: R=1 V bits differ"
        );
        assert_eq!(multi_prof.counters, paper_prof.counters, "{ctx}");
        assert_eq!(multi_prof.mem, paper_prof.mem, "{ctx}");
        assert_eq!(multi.resources(), paper.resources(), "{ctx}");
        exercised += 1;
    }
    exercised
}

#[test]
fn every_feasible_geometry_matches_the_oracle_bit_for_bit() {
    let n = sweep_shape(
        GemmShape {
            m: 256,
            n: 256,
            k: 16,
        },
        101,
    );
    // The lattice must be a real sweep, not a handful of near-paper
    // points — a feasibility regression that silently empties it would
    // otherwise pass vacuously.
    assert!(n >= 10, "only {n} feasible geometries divided the shape");
}

#[test]
fn non_square_shapes_are_covered_too() {
    let n = sweep_shape(
        GemmShape {
            m: 512,
            n: 256,
            k: 32,
        },
        202,
    );
    assert!(n >= 10, "only {n} feasible geometries divided the shape");
}

#[test]
fn multi_weight_lattice_matches_the_multi_oracle() {
    // The R-column variant under a few non-paper geometries: same
    // contract, column-major output.
    let shape = GemmShape {
        m: 256,
        n: 256,
        k: 16,
    };
    let r = 3;
    let bw = Bandwidth { h: 1.0 };
    let a = rand_vec(shape.m * shape.k, 303);
    let b = rand_vec(shape.k * shape.n, 304);
    let w_flat = rand_vec(shape.n * r, 305);
    let a2 = host_norms(&a, shape.m, shape.k);
    let b2 = host_norms(&b, shape.n, shape.k);

    let mut exercised = 0;
    for geo in TileGeometry::lattice(&DeviceConfig::gtx970()) {
        if !geo.divides(shape.m, shape.n, shape.k) || geo.tile_k < r {
            continue;
        }
        // Keep the debug-build sweep quick: multi-weight only differs
        // from the single-weight path in the per-column epilogue, so a
        // microtile-8 block-diverse subset is representative.
        if geo.micro_m != 8 || geo.micro_n != 8 {
            continue;
        }
        let mut dev = GpuDevice::gtx970();
        let ops = GemmOperands {
            a: dev.upload(&a),
            b: dev.upload(&b),
        };
        let (ba2, bb2, bw_buf, bv) = (
            dev.upload(&a2),
            dev.upload(&b2),
            dev.upload(&w_flat),
            dev.alloc(shape.m * r),
        );
        dev.run_counted(
            &FusedKernelSummation::new_multi(ops, ba2, bb2, bw_buf, bv, shape, bw, r)
                .with_geometry(geo),
        )
        .unwrap();
        let got = dev.download(bv);
        let want = fused_multi_oracle(
            &geo, &a, &b, &a2, &b2, &w_flat, shape.m, shape.n, shape.k, bw.h, r,
        );
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g.to_bits(), x.to_bits(), "{geo} multi elem {i}: {g} vs {x}");
        }
        exercised += 1;
    }
    assert!(exercised >= 4, "only {exercised} multi geometries swept");
}
