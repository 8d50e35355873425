//! Differential suite: the block-native executor against the warp
//! interpreter.
//!
//! `GpuDevice::run` takes the native path for unverified fused
//! launches without a fault plan; `GpuDevice::run_counted` always
//! interprets, walking the grid sequentially in launch order. Every
//! case below runs the same launch both ways on identical devices and
//! requires bit-identical outputs: `V`, and the per-block partials of
//! the two-pass reduction.
//!
//! The sweep is too slow for a debug build (the interpreter runs every
//! warp instruction of ~500 launches); CI runs it in release:
//! `cargo test -p ks-gpu-kernels --release --test native_differential`.

use ks_gpu_kernels::aux_kernels::Bandwidth;
use ks_gpu_kernels::fused::{FusedKernelSummation, Reduction};
use ks_gpu_kernels::fused_multi_packed::FusedMultiPacked;
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{SmemLayout, TileGeometry, VerifyBufs, CHECKSUM_SLOT_WORDS};
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

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Host inputs of one fused problem with `r` weight columns.
struct Problem {
    shape: GemmShape,
    bw: Bandwidth,
    r: usize,
    a: Vec<f32>,
    b: Vec<f32>,
    w: Vec<f32>,
}

impl Problem {
    fn new(shape: GemmShape, r: usize, h: f32, seed: u64) -> Self {
        Self {
            shape,
            bw: Bandwidth { h },
            r,
            a: rand_vec(shape.m * shape.k, seed),
            b: rand_vec(shape.k * shape.n, seed + 1),
            w: rand_vec(shape.n * r, seed + 2),
        }
    }
}

/// Device buffers of one uploaded [`Problem`].
#[derive(Clone, Copy)]
struct Bufs {
    ops: GemmOperands,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
}

fn upload(dev: &mut GpuDevice, p: &Problem) -> Bufs {
    let GemmShape { m, n, k } = p.shape;
    Bufs {
        ops: GemmOperands {
            a: dev.upload(&p.a),
            b: dev.upload(&p.b),
        },
        a2: dev.upload(&host_norms(&p.a, m, k)),
        b2: dev.upload(&host_norms(&p.b, n, k)),
        w: dev.upload(&p.w),
        v: dev.alloc(m * p.r),
    }
}

/// Builds the same launch on two fresh devices, runs it natively on
/// one and through the counted interpreter on the other, and returns
/// the downloaded `outputs` of each.
fn native_and_interpreted<K: Kernel>(
    build: impl Fn(&mut GpuDevice) -> (K, Vec<BufId>),
) -> (Vec<Vec<f32>>, Vec<Vec<f32>>) {
    let mut native = GpuDevice::gtx970();
    let (kn, outs_n) = build(&mut native);
    native.run(&kn).unwrap();
    let mut interp = GpuDevice::gtx970();
    let (ki, outs_i) = build(&mut interp);
    interp.run_counted(&ki).unwrap();
    (
        outs_n.iter().map(|&b| native.download(b)).collect(),
        outs_i.iter().map(|&b| interp.download(b)).collect(),
    )
}

fn assert_bit_identical(native: &[Vec<f32>], interp: &[Vec<f32>], what: &str) {
    assert_eq!(native.len(), interp.len());
    for (o, (n, i)) in native.iter().zip(interp).enumerate() {
        assert_eq!(bits(n), bits(i), "{what}: output {o} differs");
    }
}

#[cfg_attr(debug_assertions, ignore = "release only: interprets ~450 launches")]
#[test]
fn native_matches_the_interpreter_on_every_lattice_point() {
    let (m, n) = (512, 256);
    // Three K (every tile_k divides each), both layouts, both
    // reductions; the lattice itself spans both buffering depths.
    let cases = [
        (16, SmemLayout::Swizzled, false),
        (32, SmemLayout::NaiveRowMajor, false),
        (48, SmemLayout::Swizzled, true),
    ];
    let problems: Vec<Problem> = cases
        .iter()
        .map(|&(k, _, _)| Problem::new(GemmShape { m, n, k }, 1, 1.0, 400 + k as u64))
        .collect();
    let mut exercised = 0;
    let mut depths = [0usize; 2];
    for geo in TileGeometry::lattice(&DeviceConfig::gtx970()) {
        if !geo.divides(m, n, 48) {
            continue;
        }
        depths[geo.double_buffer_depth - 1] += 1;
        for (&(k, layout, two_pass), p) in cases.iter().zip(&problems) {
            let (got, want) = native_and_interpreted(|dev| {
                let bufs = upload(dev, p);
                let mut kern = FusedKernelSummation::new(
                    bufs.ops, bufs.a2, bufs.b2, bufs.w, bufs.v, p.shape, p.bw,
                )
                .with_geometry(geo)
                .with_layout(layout);
                let mut outs = vec![bufs.v];
                if two_pass {
                    let partials = dev.alloc((n / geo.block_n) * m);
                    kern = kern.with_reduction(Reduction::TwoPass { partials });
                    outs.push(partials);
                }
                (kern, outs)
            });
            assert_bit_identical(
                &got,
                &want,
                &format!("{geo} K={k} {layout:?} two_pass={two_pass}"),
            );
            exercised += 1;
        }
    }
    assert!(exercised >= 100, "only {exercised} lattice cases ran");
    assert!(depths.iter().all(|&d| d > 0), "both depths: {depths:?}");
}

#[cfg_attr(debug_assertions, ignore = "release only: interprets every launch")]
#[test]
fn multi_weight_native_matches_the_interpreter() {
    let shape = GemmShape {
        m: 512,
        n: 384,
        k: 32,
    };
    let geos = [
        TileGeometry::paper_default(),
        TileGeometry {
            block_m: 64,
            block_n: 64,
            micro_n: 4,
            tile_k: 16,
            double_buffer_depth: 1,
            ..TileGeometry::paper_default()
        },
    ];
    for geo in geos {
        geo.feasibility(&DeviceConfig::gtx970()).unwrap();
        for r in [1, 2, 3, 8] {
            let p = Problem::new(shape, r, 0.7, 500 + r as u64);
            let (got, want) = native_and_interpreted(|dev| {
                let bufs = upload(dev, &p);
                let kern = FusedKernelSummation::new_multi(
                    bufs.ops, bufs.a2, bufs.b2, bufs.w, bufs.v, p.shape, p.bw, r,
                )
                .with_geometry(geo);
                (kern, vec![bufs.v])
            });
            assert_bit_identical(&got, &want, &format!("{geo} R={r}"));
        }
    }
}

#[cfg_attr(debug_assertions, ignore = "release only: interprets every launch")]
#[test]
fn packed_native_matches_the_interpreter() {
    // Mixed segment shapes, column counts and bandwidths in one launch
    // (the packed kernel is a 1-D grid routed to 2-D segment grids).
    let segs = [
        (
            GemmShape {
                m: 256,
                n: 256,
                k: 32,
            },
            1,
            1.0,
        ),
        (
            GemmShape {
                m: 128,
                n: 512,
                k: 16,
            },
            3,
            0.5,
        ),
        (
            GemmShape {
                m: 384,
                n: 128,
                k: 40,
            },
            8,
            2.0,
        ),
        (
            GemmShape {
                m: 128,
                n: 128,
                k: 8,
            },
            2,
            0.3,
        ),
    ];
    let problems: Vec<Problem> = segs
        .iter()
        .enumerate()
        .map(|(i, &(shape, r, h))| Problem::new(shape, r, h, 600 + 10 * i as u64))
        .collect();
    let (got, want) = native_and_interpreted(|dev| {
        let mut kernels = Vec::new();
        let mut outs = Vec::new();
        for p in &problems {
            let bufs = upload(dev, p);
            kernels.push(FusedKernelSummation::new_multi(
                bufs.ops, bufs.a2, bufs.b2, bufs.w, bufs.v, p.shape, p.bw, p.r,
            ));
            outs.push(bufs.v);
        }
        (FusedMultiPacked::new(kernels), outs)
    });
    assert_bit_identical(&got, &want, "packed");
}

/// A debug-build guard: unverified fused kernels accept the native
/// path (and match the interpreter at the paper geometry), verified
/// ones decline it.
#[test]
fn unverified_kernels_take_the_native_path_and_verified_ones_decline() {
    let p = Problem::new(
        GemmShape {
            m: 256,
            n: 384,
            k: 16,
        },
        1,
        1.0,
        700,
    );
    let build = |dev: &mut GpuDevice| {
        let bufs = upload(dev, &p);
        let kern =
            FusedKernelSummation::new(bufs.ops, bufs.a2, bufs.b2, bufs.w, bufs.v, p.shape, p.bw);
        (kern, bufs)
    };
    let mut native = GpuDevice::gtx970();
    let (kern, bufs) = build(&mut native);
    assert!(kern.execute_native(native.mem()));
    let mut interp = GpuDevice::gtx970();
    let (kern_i, bufs_i) = build(&mut interp);
    interp.run_counted(&kern_i).unwrap();
    assert_eq!(
        bits(&native.download(bufs.v)),
        bits(&interp.download(bufs_i.v))
    );

    let vb = VerifyBufs {
        checksum: native.alloc(2 * CHECKSUM_SLOT_WORDS),
        flag: native.alloc(CHECKSUM_SLOT_WORDS),
    };
    assert!(!kern.with_verify(vb).execute_native(native.mem()));
}
