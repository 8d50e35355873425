//! Batched multi-weight serving entry.
//!
//! [`execute_fused_multi`] runs one coalesced batch of `R` queries
//! that share a corpus, target set and bandwidth end to end: the norms
//! passes, then one [`FusedKernelSummation::new_multi`] launch that
//! evaluates each Gaussian value once and folds it into `R` weight
//! columns (see [`crate::fused`] for the kernel and its register
//! economy).
//!
//! Layouts: `W` is `N×R` **column-major** (each weight column
//! contiguous), `V` is `M×R` column-major (each output column receives
//! coalesced atomics).

use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::kernel::{Kernel, LaunchError};
use ks_gpu_sim::profiler::PipelineProfile;

use crate::aux_kernels::{Bandwidth, NormsKernel};
use crate::fused::{FusedKernelSummation, VerifyBufs, VerifyReport, CHECKSUM_SLOT_WORDS};
use crate::gemm_engine::{GemmOperands, GemmShape};
use crate::geometry::TileGeometry;

/// Label under which served batches appear in profiles and metrics.
pub const FUSED_MULTI_PIPELINE: &str = "Fused-Multi";

/// Pipeline label of the ABFT-verified serving path.
pub const FUSED_MULTI_VERIFIED_PIPELINE: &str = "Fused-Multi-ABFT";

/// Batched serving entry: runs the multi-weight pipeline end to end on
/// `dev` at `geometry` — `norms(B)`, `norms(A)` **unless** precomputed
/// row norms are supplied (the plan-cache hit path uploads them instead
/// of relaunching the kernel), then the fused multi-weight kernel — and
/// returns the `M×R` column-major result, the pipeline profile and,
/// when `verify`, the ABFT [`VerifyReport`].
///
/// `w_cols` is `N×R` column-major (column `c` of query `c` contiguous
/// at offset `c·N`); the result places query `c` at `c·M..c·M+M`.
///
/// With `verify` the fused kernel runs in its checksum-augmented
/// variant and the host compares the per-row-group checksum column
/// against `V` before returning. The report says whether any
/// corruption was detected; the result must not be used when it was.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults from any kernel.
///
/// # Panics
/// Panics if the shape does not divide `geometry`, buffer lengths
/// disagree with the shape, `w_cols` is not a whole number of columns,
/// or the column count is outside `1..=MAX_WEIGHT_COLUMNS` or exceeds
/// the geometry's `tile_k`.
#[allow(clippy::too_many_arguments)]
pub fn execute_fused_multi(
    dev: &mut GpuDevice,
    geometry: &TileGeometry,
    shape: GemmShape,
    h: f32,
    a: &[f32],
    b: &[f32],
    w_cols: &[f32],
    a2: Option<&[f32]>,
    verify: bool,
) -> Result<(Vec<f32>, PipelineProfile, Option<VerifyReport>), LaunchError> {
    shape.validate_for(geometry);
    let (m, n, k) = (shape.m, shape.n, shape.k);
    assert_eq!(a.len(), m * k, "A must be M·K elements");
    assert_eq!(b.len(), k * n, "B must be K·N elements");
    assert_eq!(w_cols.len() % n, 0, "W must be a whole number of columns");
    let r = w_cols.len() / n;
    if let Some(norms) = a2 {
        assert_eq!(norms.len(), m, "precomputed row norms must be M elements");
    }
    let bw = Bandwidth { h };
    let _ = bw.inv_2h2(); // validates h

    let ops = GemmOperands {
        a: dev.upload(a),
        b: dev.upload(b),
    };
    let a2_buf = match a2 {
        Some(norms) => dev.upload(norms),
        None => dev.alloc(m),
    };
    let b2_buf = dev.alloc(n);
    let w_buf = dev.upload(w_cols);
    let v_buf = dev.alloc(m * r);
    let verify_bufs = verify.then(|| {
        let checksum = dev.alloc(r * (m / geometry.block_m) * CHECKSUM_SLOT_WORDS);
        let flag = dev.alloc(CHECKSUM_SLOT_WORDS);
        VerifyBufs { checksum, flag }
    });
    dev.invalidate_l2();
    dev.memset_zero(v_buf); // cudaMemset before the atomic reduction
    if let Some(vb) = verify_bufs {
        dev.memset_zero(vb.checksum);
        dev.memset_zero(vb.flag);
    }

    let mut kernels: Vec<Box<dyn Kernel>> = Vec::with_capacity(3);
    if a2.is_none() {
        kernels.push(Box::new(NormsKernel::new(ops.a, a2_buf, m, k, "a")));
    }
    kernels.push(Box::new(NormsKernel::new(ops.b, b2_buf, n, k, "b")));
    let mut fused =
        FusedKernelSummation::new_multi(ops, a2_buf, b2_buf, w_buf, v_buf, shape, bw, r)
            .with_geometry(*geometry);
    if let Some(vb) = verify_bufs {
        fused = fused.with_verify(vb);
    }
    kernels.push(Box::new(fused));

    let mut prof = PipelineProfile::new(if verify {
        FUSED_MULTI_VERIFIED_PIPELINE
    } else {
        FUSED_MULTI_PIPELINE
    });
    for kern in kernels {
        let mut kp = dev.launch(kern.as_ref())?;
        dev.run(kern.as_ref())?;
        // The launch replay schedules upsets; the functional run
        // applies them — fold the applied tally into the profile.
        kp.faults.merge(&dev.take_fault_counters());
        prof.kernels.push(kp);
    }
    let v = dev.download(v_buf);
    let report = verify_bufs.map(|vb| {
        VerifyReport::from_outputs(
            &v,
            &dev.download(vb.checksum),
            &dev.download(vb.flag),
            m,
            r,
            geometry.block_m,
        )
    });
    Ok((v, prof, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_gpu_sim::buffer::BufId;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        }
    }

    struct Setup {
        dev: GpuDevice,
        a: Vec<f32>,
        b: Vec<f32>,
        w: Vec<f32>,
        kern_inputs: (GemmOperands, BufId, BufId, BufId, BufId),
        shape: GemmShape,
        bw: Bandwidth,
        r: usize,
    }

    fn setup(shape: GemmShape, r: usize, seed: u64) -> Setup {
        let mut next = lcg(seed);
        let a: Vec<f32> = (0..shape.m * shape.k).map(|_| next()).collect();
        let b: Vec<f32> = (0..shape.k * shape.n).map(|_| next()).collect();
        let w: Vec<f32> = (0..shape.n * r).map(|_| next()).collect();
        let a2: Vec<f32> = (0..shape.m)
            .map(|i| {
                a[i * shape.k..(i + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        let b2: Vec<f32> = (0..shape.n)
            .map(|j| {
                b[j * shape.k..(j + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        let mut dev = GpuDevice::gtx970();
        let ops = GemmOperands {
            a: dev.upload(&a),
            b: dev.upload(&b),
        };
        let (ba2, bb2) = (dev.upload(&a2), dev.upload(&b2));
        let bw_buf = dev.upload(&w);
        let bv = dev.alloc(shape.m * r);
        Setup {
            dev,
            a,
            b,
            w,
            kern_inputs: (ops, ba2, bb2, bw_buf, bv),
            shape,
            bw: Bandwidth { h: 1.0 },
            r,
        }
    }

    fn reference(s: &Setup) -> Vec<f32> {
        let scale = s.bw.inv_2h2() as f64;
        let (m, n, k) = (s.shape.m, s.shape.n, s.shape.k);
        let mut out = vec![0.0f32; m * s.r];
        for c in 0..s.r {
            for i in 0..m {
                let mut acc = 0.0f64;
                for j in 0..n {
                    let d: f64 = (0..k)
                        .map(|t| (s.a[i * k + t] as f64 - s.b[j * k + t] as f64).powi(2))
                        .sum();
                    acc += (-d * scale).exp() * s.w[c * n + j] as f64;
                }
                out[c * m + i] = acc as f32;
            }
        }
        out
    }

    #[test]
    fn functional_matches_reference_for_r2_and_r4() {
        for r in [2usize, 4] {
            let mut s = setup(
                GemmShape {
                    m: 128,
                    n: 256,
                    k: 16,
                },
                r,
                7 + r as u64,
            );
            let (ops, a2, b2, w, v) = s.kern_inputs;
            let kern = FusedKernelSummation::new_multi(ops, a2, b2, w, v, s.shape, s.bw, r);
            s.dev.run(&kern).unwrap();
            let got = s.dev.download(v);
            let want = reference(&s);
            for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
                assert!(
                    (g - x).abs() < 3e-3 * x.abs().max(1.0),
                    "r={r} idx {i}: {g} vs {x}"
                );
            }
        }
    }

    #[test]
    fn non_default_geometry_matches_the_multi_oracle_bit_for_bit() {
        let (mr, nr, kr, r) = (128usize, 128usize, 16usize, 2usize);
        let shape = GemmShape {
            m: mr,
            n: nr,
            k: kr,
        };
        let s = setup(shape, r, 77);
        let a2: Vec<f32> = (0..mr)
            .map(|i| s.a[i * kr..(i + 1) * kr].iter().map(|v| v * v).sum())
            .collect();
        let b2: Vec<f32> = (0..nr)
            .map(|j| s.b[j * kr..(j + 1) * kr].iter().map(|v| v * v).sum())
            .collect();
        let geo = TileGeometry {
            block_m: 64,
            block_n: 64,
            ..TileGeometry::paper_default()
        };
        let mut dev = GpuDevice::gtx970();
        let ops = GemmOperands {
            a: dev.upload(&s.a),
            b: dev.upload(&s.b),
        };
        let (ba2, bb2) = (dev.upload(&a2), dev.upload(&b2));
        let bw_buf = dev.upload(&s.w);
        let bv = dev.alloc(mr * r);
        dev.run_counted(
            &FusedKernelSummation::new_multi(ops, ba2, bb2, bw_buf, bv, shape, s.bw, r)
                .with_geometry(geo),
        )
        .unwrap();
        let got = dev.download(bv);
        let want = crate::oracle::fused_multi_oracle(
            &geo, &s.a, &s.b, &a2, &b2, &s.w, mr, nr, kr, s.bw.h, r,
        );
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert_eq!(g.to_bits(), x.to_bits(), "idx {i}: {g} vs {x}");
        }
    }

    #[test]
    fn extra_columns_halve_occupancy() {
        // §III-A register economy: R = 2 needs >128 regs/thread and
        // drops to one block per SM.
        let mut s = setup(
            GemmShape {
                m: 128,
                n: 128,
                k: 8,
            },
            2,
            31,
        );
        let (ops, a2, b2, w, v) = s.kern_inputs;
        let p = s
            .dev
            .launch(&FusedKernelSummation::new_multi(
                ops, a2, b2, w, v, s.shape, s.bw, 2,
            ))
            .unwrap();
        assert_eq!(p.occupancy.blocks_per_sm, 1);
    }

    #[test]
    fn multi_weight_beats_repeated_single_weight_runs() {
        // The whole point: folding R columns into one pass costs far
        // less than R full fused passes (each redoing the GEMM).
        let r = 4usize;
        let shape = GemmShape {
            m: 4096,
            n: 1024,
            k: 64,
        };
        let multi_time = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(shape.m * shape.k),
                b: dev.alloc_virtual(shape.k * shape.n),
            };
            let (a2, b2) = (dev.alloc_virtual(shape.m), dev.alloc_virtual(shape.n));
            let w = dev.alloc_virtual(shape.n * r);
            let v = dev.alloc_virtual(shape.m * r);
            let p = dev
                .launch(&FusedKernelSummation::new_multi(
                    ops,
                    a2,
                    b2,
                    w,
                    v,
                    shape,
                    Bandwidth { h: 1.0 },
                    r,
                ))
                .unwrap();
            p.timing.time_s
        };
        let single_time = {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(shape.m * shape.k),
                b: dev.alloc_virtual(shape.k * shape.n),
            };
            let (a2, b2) = (dev.alloc_virtual(shape.m), dev.alloc_virtual(shape.n));
            let w = dev.alloc_virtual(shape.n);
            let v = dev.alloc_virtual(shape.m);
            let p = dev
                .launch(&FusedKernelSummation::new(
                    ops,
                    a2,
                    b2,
                    w,
                    v,
                    shape,
                    Bandwidth { h: 1.0 },
                ))
                .unwrap();
            p.timing.time_s
        };
        assert!(
            multi_time < 0.5 * r as f64 * single_time,
            "multi {multi_time} vs {r}x single {}",
            r as f64 * single_time
        );
    }

    #[test]
    fn batched_entry_matches_reference_and_profiles_every_kernel() {
        let shape = GemmShape {
            m: 128,
            n: 256,
            k: 16,
        };
        let s = setup(shape, 3, 91);
        let mut dev = GpuDevice::gtx970();
        let (got, prof, _) = execute_fused_multi(
            &mut dev,
            &TileGeometry::paper_default(),
            shape,
            1.0,
            &s.a,
            &s.b,
            &s.w,
            None,
            false,
        )
        .unwrap();
        assert_eq!(prof.name, FUSED_MULTI_PIPELINE);
        assert_eq!(prof.kernels.len(), 3, "norms(A), norms(B), fused-multi");
        let want = reference(&s);
        for (i, (g, x)) in got.iter().zip(want.iter()).enumerate() {
            assert!(
                (g - x).abs() < 3e-3 * x.abs().max(1.0),
                "idx {i}: {g} vs {x}"
            );
        }
    }

    #[test]
    fn precomputed_norms_skip_a_kernel_and_save_dram() {
        // The DRAM saving shows up when the corpus does not stay
        // L2-resident between the norms pass and the fused pass — the
        // production-serving regime. Model inter-request cache
        // pressure with a 64 KB effective L2 (A alone is 128 KB).
        let small_l2 = || {
            let mut cfg = ks_gpu_sim::config::DeviceConfig::gtx970();
            cfg.l2_bytes = 64 * 1024;
            GpuDevice::new(cfg)
        };
        let shape = GemmShape {
            m: 1024,
            n: 128,
            k: 32,
        };
        let s = setup(shape, 2, 101);
        let a2: Vec<f32> = (0..shape.m)
            .map(|i| {
                s.a[i * shape.k..(i + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        let mut d_cold = small_l2();
        let (v_cold, p_cold, _) = execute_fused_multi(
            &mut d_cold,
            &TileGeometry::paper_default(),
            shape,
            1.0,
            &s.a,
            &s.b,
            &s.w,
            None,
            false,
        )
        .unwrap();
        let mut d_hit = small_l2();
        let (v_hit, p_hit, _) = execute_fused_multi(
            &mut d_hit,
            &TileGeometry::paper_default(),
            shape,
            1.0,
            &s.a,
            &s.b,
            &s.w,
            Some(&a2),
            false,
        )
        .unwrap();
        assert_eq!(p_cold.kernels.len(), 3);
        assert_eq!(p_hit.kernels.len(), 2, "norms(A) skipped on a plan hit");
        assert!(
            p_hit.total_mem().dram_transactions() < p_cold.total_mem().dram_transactions(),
            "plan reuse must save DRAM: {} vs {}",
            p_hit.total_mem().dram_transactions(),
            p_cold.total_mem().dram_transactions()
        );
        for (i, (a, b)) in v_cold.iter().zip(v_hit.iter()).enumerate() {
            assert!(
                (a - b).abs() < 2e-3 * a.abs().max(1.0),
                "idx {i}: {a} vs {b}"
            );
        }
    }

    // ---- ABFT verification -------------------------------------------

    use ks_gpu_sim::{DeviceConfig, FaultSpec};

    fn faulty_device(spec: &str, seed: u64) -> GpuDevice {
        let mut fs = FaultSpec::parse(spec).expect("valid fault spec");
        fs.seed = seed;
        let mut cfg = DeviceConfig::gtx970();
        cfg.fault = Some(fs);
        GpuDevice::new(cfg)
    }

    #[test]
    fn verified_entry_matches_unverified_and_reports_clean() {
        let shape = GemmShape {
            m: 128,
            n: 256,
            k: 16,
        };
        let s = setup(shape, 3, 92);
        let mut d1 = GpuDevice::gtx970();
        let (plain, _, _) = execute_fused_multi(
            &mut d1,
            &TileGeometry::paper_default(),
            shape,
            1.0,
            &s.a,
            &s.b,
            &s.w,
            None,
            false,
        )
        .unwrap();
        let mut d2 = GpuDevice::gtx970();
        let (got, prof, report) = execute_fused_multi(
            &mut d2,
            &TileGeometry::paper_default(),
            shape,
            1.0,
            &s.a,
            &s.b,
            &s.w,
            None,
            true,
        )
        .unwrap();
        assert_eq!(prof.name, FUSED_MULTI_VERIFIED_PIPELINE);
        assert_eq!(prof.kernels.len(), 3);
        assert!(
            prof.kernels[2].name.contains("_abft"),
            "{}",
            prof.kernels[2].name
        );
        let report = report.expect("verified entry builds a report");
        assert!(!report.corruption_detected(), "{report:?}");
        assert_eq!(report.checksum_groups, 3 * (shape.m / 128));
        for (g, p) in got.iter().zip(plain.iter()) {
            assert!((g - p).abs() < 1e-4 * p.abs().max(1.0), "{g} vs {p}");
        }
    }

    /// In-flight fault sweep over the batched verified entry. The
    /// interpreter folds each row group's blocks into `V` in launch
    /// order at any thread count, so the baseline comparison is exact.
    #[test]
    fn verified_entry_flags_injected_faults() {
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let s = setup(shape, 2, 93);
        let mut clean = GpuDevice::gtx970();
        let (base, _, clean_report) = execute_fused_multi(
            &mut clean,
            &TileGeometry::paper_default(),
            shape,
            1.0,
            &s.a,
            &s.b,
            &s.w,
            None,
            true,
        )
        .unwrap();
        assert!(!clean_report.unwrap().corruption_detected());

        let mut corrupted = 0u32;
        let mut injected_total = 0u64;
        for seed in 0..10u64 {
            let mut dev = faulty_device("smem=3,reg=2", seed);
            let (got, prof, report) = execute_fused_multi(
                &mut dev,
                &TileGeometry::paper_default(),
                shape,
                1.0,
                &s.a,
                &s.b,
                &s.w,
                None,
                true,
            )
            .unwrap();
            let injected: u64 = prof
                .kernels
                .iter()
                .map(|k| k.faults.smem_flips + k.faults.reg_flips)
                .sum();
            injected_total += injected;
            let changed = got
                .iter()
                .zip(base.iter())
                .any(|(g, b)| g.to_bits() != b.to_bits());
            if changed {
                corrupted += 1;
                assert!(
                    report.as_ref().unwrap().blocks_flagged > 0,
                    "seed {seed}: silent corruption ({injected} flips applied)"
                );
            }
        }
        assert!(injected_total > 0, "no faults were applied");
        assert!(corrupted >= 1, "no seed corrupted V — sweep is vacuous");
    }

    #[test]
    fn multi_verification_adds_at_most_two_percent_dram_traffic() {
        let r = 4usize;
        let shape = GemmShape {
            m: 4096,
            n: 1024,
            k: 32,
        };
        let launch = |verify: bool| {
            let mut dev = GpuDevice::gtx970();
            let ops = GemmOperands {
                a: dev.alloc_virtual(shape.m * shape.k),
                b: dev.alloc_virtual(shape.k * shape.n),
            };
            let (a2, b2) = (dev.alloc_virtual(shape.m), dev.alloc_virtual(shape.n));
            let w = dev.alloc_virtual(shape.n * r);
            let v = dev.alloc_virtual(shape.m * r);
            let mut kern =
                FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, r);
            if verify {
                kern = kern.with_verify(crate::fused::VerifyBufs {
                    checksum: dev.alloc_virtual(r * (shape.m / 128) * CHECKSUM_SLOT_WORDS),
                    flag: dev.alloc_virtual(CHECKSUM_SLOT_WORDS),
                });
            }
            dev.launch(&kern).unwrap()
        };
        let plain = launch(false);
        let verified = launch(true);
        let ratio = verified.mem.dram_transactions() as f64 / plain.mem.dram_transactions() as f64;
        assert!(
            (1.0..=1.02).contains(&ratio),
            "verified/plain DRAM ratio {ratio}"
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn rejects_too_many_columns() {
        let mut dev = GpuDevice::gtx970();
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let ops = GemmOperands {
            a: dev.alloc_virtual(128 * 8),
            b: dev.alloc_virtual(8 * 128),
        };
        let (a2, b2, w, v) = (
            dev.alloc_virtual(128),
            dev.alloc_virtual(128),
            dev.alloc_virtual(128 * 9),
            dev.alloc_virtual(128 * 9),
        );
        let _ = FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 9);
    }

    #[test]
    #[should_panic(expected = "two-pass reduction takes one weight column")]
    fn rejects_two_pass_with_several_columns() {
        let mut dev = GpuDevice::gtx970();
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let ops = GemmOperands {
            a: dev.alloc_virtual(128 * 8),
            b: dev.alloc_virtual(8 * 128),
        };
        let (a2, b2, w, v, partials) = (
            dev.alloc_virtual(128),
            dev.alloc_virtual(128),
            dev.alloc_virtual(128 * 2),
            dev.alloc_virtual(128 * 2),
            dev.alloc_virtual(128),
        );
        let _ = FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 2)
            .with_reduction(crate::fused::Reduction::TwoPass { partials });
    }

    #[test]
    #[should_panic(expected = "exceed the T scratch")]
    fn rejects_columns_beyond_the_geometry_scratch() {
        let mut dev = GpuDevice::gtx970();
        let shape = GemmShape {
            m: 128,
            n: 128,
            k: 8,
        };
        let ops = GemmOperands {
            a: dev.alloc_virtual(128 * 8),
            b: dev.alloc_virtual(8 * 128),
        };
        let (a2, b2, w, v) = (
            dev.alloc_virtual(128),
            dev.alloc_virtual(128),
            dev.alloc_virtual(128 * 6),
            dev.alloc_virtual(128 * 6),
        );
        let geo = TileGeometry {
            tile_k: 4,
            ..TileGeometry::paper_default()
        };
        let _ = FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 6)
            .with_geometry(geo);
    }
}
