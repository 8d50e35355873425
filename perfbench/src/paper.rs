//! The paper-shape workloads: one functional solve at the reference
//! shape, and the traffic-only Fig. 6/8 profile sweep.
//!
//! The untraced run calls the public solver entry points
//! (`ks_core::gpu::try_solve_gpu_on`, `ks_core::gpu::try_profile_gpu_on`).
//! The traced run rebuilds the same pipelines from the public kernel
//! types and drives each kernel through `GpuDevice::launch` (traffic
//! replay plus timing) and `GpuDevice::run` (functional execution)
//! itself, so the host time of each simulator layer gets its own span.
//! Buffers are allocated in the order the library allocates them, so
//! the traced run reproduces every counter and every output bit; the
//! determinism guard checks that it does.

use std::collections::BTreeMap;
use std::time::Instant;

use ks_core::cpu_fused::{self, FusedCpuConfig};
use ks_core::gpu::{try_profile_gpu_on, try_solve_gpu_on};
use ks_core::{max_rel_error, GaussianKernel, KernelSumProblem, PointSet};
use ks_energy::{pipeline_energy, EnergyBreakdown, EnergyParams};
use ks_gpu_kernels::aux_kernels::{EvalSumKernel, NormsKernel};
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{
    CudaSgemm, FusedKernelSummation, GpuKernelSummation, GpuVariant, SmemLayout, TileGeometry,
    VendorSgemm,
};
use ks_gpu_sim::kernel::Kernel;
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::{BufId, GpuDevice};

use crate::trace::Tracer;
use crate::{bits_hash, Iteration, Workload};

/// Gaussian bandwidth of both paper workloads.
const H: f32 = 1.0;
/// The GPU tests' tolerance for simulated-GPU V against a CPU solver.
const GPU_CPU_TOLERANCE: f32 = 5e-3;

/// `paper_solve`: the reference shape of the fused-kernel speed work.
const SOLVE_SHAPE: (usize, usize, usize) = (65536, 1024, 32);
/// `paper_profile`: M and N of the Fig. 6/8 crossover sweep.
const PROFILE_MN: (usize, usize) = (16384, 1024);
const PROFILE_KS: [usize; 2] = [32, 256];

fn problem(seed: u64) -> KernelSumProblem {
    let (m, n, k) = SOLVE_SHAPE;
    let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    KernelSumProblem::builder()
        .sources(PointSet::uniform_cube(m, k, s))
        .targets(PointSet::uniform_cube(n, k, s ^ 1))
        // Positive weights: kernel sums without cancellation, so the
        // relative-error check compares like with like.
        .weights(PointSet::uniform_cube(n, 1, s ^ 2).coords().to_vec())
        .kernel(GaussianKernel { h: H })
        .build()
}

/// Counters and simulated results a correct, deterministic run repeats
/// exactly: per kernel, its event counts, traffic and modelled time.
fn profile_signature(
    sig: &mut Vec<(String, u64)>,
    tag: &str,
    p: &PipelineProfile,
    e: &EnergyBreakdown,
) {
    for (i, k) in p.kernels.iter().enumerate() {
        let key = |what: &str| format!("{tag}.{i}.{}.{what}", k.name);
        sig.push((key("warp_insts"), k.counters.warp_insts()));
        sig.push((key("flops"), k.counters.flops));
        sig.push((
            key("smem_tx"),
            k.counters.smem.load_transactions + k.counters.smem.store_transactions,
        ));
        sig.push((key("l2_tx"), k.mem.l2_transactions()));
        sig.push((key("dram_tx"), k.mem.dram_transactions()));
        sig.push((key("time_bits"), k.timing.time_s.to_bits()));
    }
    sig.push((format!("{tag}.energy_bits"), e.total_j().to_bits()));
}

/// Simulated-layer counters of a set of pipelines.
fn gpu_layer(
    layer: &mut BTreeMap<&'static str, f64>,
    profiles: &[&PipelineProfile],
    peak_gflops: f64,
) {
    let (mut warp, mut l2, mut dram, mut conflicts) = (0u64, 0u64, 0u64, 0u64);
    for p in profiles {
        for k in &p.kernels {
            warp += k.counters.warp_insts();
            l2 += k.mem.l2_transactions();
            dram += k.mem.dram_transactions();
            let s = &k.counters.smem;
            conflicts += (s.load_transactions - s.load_instructions)
                + (s.store_transactions - s.store_instructions);
        }
    }
    layer.insert("gpu_sim.warp_instructions", warp as f64);
    layer.insert("gpu_sim.l2_transactions", l2 as f64);
    layer.insert("gpu_sim.dram_transactions", dram as f64);
    layer.insert("gpu_sim.smem_bank_conflicts", conflicts as f64);
    // The paper's fused kernel, first pipeline that has it.
    if let Some(k) = profiles
        .iter()
        .flat_map(|p| p.kernels.iter())
        .find(|k| k.name.starts_with("fused"))
    {
        layer.insert("gpu_sim.fused.occupancy", k.occupancy.fraction);
        layer.insert(
            "gpu_sim.fused.flop_efficiency",
            k.flop_efficiency(peak_gflops),
        );
        layer.insert("gpu_sim.fused.sim_ms", k.timing.time_s * 1e3);
    }
}

/// Host time of the simulator layers, from the spans of one traced
/// iteration that started at span index `from`.
fn traced_layer(layer: &mut BTreeMap<&'static str, f64>, t: &Tracer, from: usize) {
    let run_s = t.total_s("gpu_sim.run", from);
    let launch_s = t.total_s("gpu_sim.launch", from);
    let warp = layer["gpu_sim.warp_instructions"];
    let l2 = layer["gpu_sim.l2_transactions"];
    layer.insert("gpu_sim.run_s", run_s);
    layer.insert("gpu_sim.launch_s", launch_s);
    // A traffic-only workload runs nothing functionally: no rate.
    layer.insert(
        "gpu_sim.run_ns_per_warp_inst",
        if run_s > 0.0 { run_s * 1e9 / warp } else { 0.0 },
    );
    layer.insert("gpu_sim.launch_ns_per_l2_txn", launch_s * 1e9 / l2);
    layer.insert("energy.model_s", t.total_s("energy.pipeline_energy", from));
}

/// Device buffers of one pipeline, allocated in the library's order
/// (`GpuKernelSummation`'s allocation: A, B, |A|², |B|², W, V, C).
struct Bufs {
    ops: GemmOperands,
    a2: BufId,
    b2: BufId,
    w: BufId,
    v: BufId,
    c: Option<BufId>,
}

/// The kernels `GpuKernelSummation` launches for `variant`, at the
/// paper's default options.
fn pipeline_kernels(p: &GpuKernelSummation, variant: GpuVariant, b: &Bufs) -> Vec<Box<dyn Kernel>> {
    let d = p.dims;
    let shape = GemmShape {
        m: d.m,
        n: d.n,
        k: d.k,
    };
    let mut ks: Vec<Box<dyn Kernel>> = vec![
        Box::new(NormsKernel::new(b.ops.a, b.a2, d.m, d.k, "a")),
        Box::new(NormsKernel::new(b.ops.b, b.b2, d.n, d.k, "b")),
    ];
    match variant {
        GpuVariant::Fused => ks.push(Box::new(
            FusedKernelSummation::new(b.ops, b.a2, b.b2, b.w, b.v, shape, p.bw)
                .with_geometry(TileGeometry::paper_default())
                .with_layout(SmemLayout::default())
                .with_double_buffer(true),
        )),
        GpuVariant::CudaUnfused | GpuVariant::CublasUnfused => {
            let c = b.c.expect("unfused pipelines materialise C");
            if variant == GpuVariant::CudaUnfused {
                ks.push(Box::new(
                    CudaSgemm::new(b.ops, c, shape)
                        .with_layout(SmemLayout::default())
                        .with_double_buffer(true),
                ));
            } else {
                ks.push(Box::new(VendorSgemm::new(b.ops, c, shape)));
            }
            ks.push(Box::new(EvalSumKernel::new(
                c, b.a2, b.b2, b.w, b.v, d.m, d.n, p.bw,
            )));
        }
    }
    ks
}

fn check_default_options(p: &GpuKernelSummation) -> Result<(), String> {
    if p.layout != SmemLayout::default()
        || !p.double_buffer
        || p.geometry != TileGeometry::paper_default()
    {
        return Err(
            "the library's pipeline defaults changed; the traced pipeline no longer mirrors them"
                .into(),
        );
    }
    Ok(())
}

// ---------------------------------------------------------------- solve

pub struct PaperSolve {
    pub seed: u64,
}

pub struct SolveState {
    problem: KernelSumProblem,
    dev: GpuDevice,
}

impl Workload for PaperSolve {
    type State = SolveState;

    fn setup(&self) -> SolveState {
        SolveState {
            problem: problem(self.seed),
            dev: GpuDevice::gtx970(),
        }
    }

    fn run(&self, st: SolveState, tracer: Option<&Tracer>) -> Result<Iteration, String> {
        let SolveState {
            problem: p,
            mut dev,
        } = st;
        let (m, n, k) = p.dims();
        let from = tracer.map_or(0, Tracer::len);
        let t0 = Instant::now();
        let (v_gpu, profile, energy) = match tracer {
            None => {
                let out = try_solve_gpu_on(&mut dev, &p, GpuVariant::Fused)
                    .map_err(|e| format!("GPU solve failed: {e}"))?;
                (out.v, out.report.profile, out.report.energy)
            }
            Some(t) => {
                let _s = t.span("core.gpu_solve", "Fused", Some(0));
                traced_solve(t, &mut dev, &p)?
            }
        };
        let t_cpu = Instant::now();
        let v_cpu = {
            let _s = tracer.map(|t| t.span("core.cpu_fused.solve", "", Some(0)));
            cpu_fused::solve(&p, &FusedCpuConfig::default())
        };
        let end = Instant::now();
        let wall_s = (end - t0).as_secs_f64();
        let cpu_s = (end - t_cpu).as_secs_f64();

        let err = max_rel_error(&v_gpu, &v_cpu);
        let mut it = Iteration::new(wall_s);
        it.ops = 1;
        it.op_latency_s.push(wall_s);
        if err.is_nan() || err >= GPU_CPU_TOLERANCE {
            it.failed += 1;
            it.problems.push(format!(
                "GPU V vs CPU-fused V: max rel error {err} >= {GPU_CPU_TOLERANCE}"
            ));
        }
        it.sim_time_ms = profile.total_time_s() * 1e3;
        it.dram_transactions = profile.total_mem().dram_transactions();
        it.energy_mj = energy.total_j() * 1e3;
        let mut sig = Vec::new();
        profile_signature(&mut sig, "gpu", &profile, &energy);
        sig.push(("v_gpu_bits".into(), bits_hash(&v_gpu)));
        sig.push(("v_cpu_bits".into(), bits_hash(&v_cpu)));
        it.signature = sig;

        let peak = dev.config().peak_sp_gflops();
        gpu_layer(&mut it.layer, &[&profile], peak);
        it.layer.insert("energy.j_per_query", energy.total_j());
        it.layer.insert("core.cpu_fused_s", cpu_s);
        it.layer.insert(
            "core.cpu_fused_gflops",
            2.0 * (m * n * k) as f64 / cpu_s / 1e9,
        );
        if let Some(t) = tracer {
            traced_layer(&mut it.layer, t, from);
        }
        Ok(it)
    }
}

/// `try_solve_gpu_on` for the paper's aligned shape, kernel by kernel.
fn traced_solve(
    t: &Tracer,
    dev: &mut GpuDevice,
    p: &KernelSumProblem,
) -> Result<(Vec<f32>, PipelineProfile, EnergyBreakdown), String> {
    let (m, n, k) = p.dims();
    if m % 128 != 0 || n % 128 != 0 || k % 8 != 0 {
        return Err("the traced solve needs a tile-aligned shape (no padding)".into());
    }
    // The library recovers h from the kernel the same way.
    let e = p.kernel().eval(1.0, 0.0, 0.0);
    let h = (-1.0 / (2.0 * e.ln())).sqrt();
    let pipe = GpuKernelSummation::new(m, n, k, h);
    check_default_options(&pipe)?;
    let bufs = {
        let _s = t.span("gpu_sim.upload", "", Some(0));
        Bufs {
            ops: GemmOperands {
                a: dev.upload(p.sources().coords()),
                b: dev.upload(p.targets().coords()),
            },
            a2: dev.alloc(m),
            b2: dev.alloc(n),
            w: dev.upload(p.weights()),
            v: dev.alloc(m),
            c: None,
        }
    };
    dev.invalidate_l2();
    dev.memset_zero(bufs.v);
    let mut prof = PipelineProfile::new(GpuVariant::Fused.label());
    for kernel in pipeline_kernels(&pipe, GpuVariant::Fused, &bufs) {
        let name = kernel.name();
        {
            let _s = t.span("gpu_sim.launch", &name, Some(0));
            prof.kernels.push(
                dev.launch(kernel.as_ref())
                    .map_err(|e| format!("launch {name}: {e}"))?,
            );
        }
        let _s = t.span("gpu_sim.run", &name, Some(0));
        dev.run(kernel.as_ref())
            .map_err(|e| format!("run {name}: {e}"))?;
    }
    let v = dev.download(bufs.v);
    let energy = {
        let _s = t.span("energy.pipeline_energy", "", Some(0));
        pipeline_energy(&EnergyParams::default(), &prof)
    };
    Ok((v, prof, energy))
}

// -------------------------------------------------------------- profile

pub struct PaperProfile;

/// One fresh (cold-cache) device per profiled pipeline.
pub struct ProfileState {
    devices: Vec<GpuDevice>,
}

/// `(K, variant)` in sweep order.
fn sweep() -> impl Iterator<Item = (usize, GpuVariant)> {
    PROFILE_KS
        .into_iter()
        .flat_map(|k| GpuVariant::ALL.into_iter().map(move |v| (k, v)))
}

/// One profiled pipeline's simulated results.
struct Point {
    k: usize,
    variant: GpuVariant,
    profile: PipelineProfile,
    energy: EnergyBreakdown,
}

impl Workload for PaperProfile {
    type State = ProfileState;

    fn setup(&self) -> ProfileState {
        ProfileState {
            devices: sweep().map(|_| GpuDevice::gtx970()).collect(),
        }
    }

    fn run(&self, st: ProfileState, tracer: Option<&Tracer>) -> Result<Iteration, String> {
        let (m, n) = PROFILE_MN;
        let from = tracer.map_or(0, Tracer::len);
        let peak = st.devices[0].config().peak_sp_gflops();
        let t0 = Instant::now();
        let mut points = Vec::new();
        for (q, ((k, variant), mut dev)) in sweep().zip(st.devices).enumerate() {
            let (profile, energy) = match tracer {
                None => {
                    let r = try_profile_gpu_on(&mut dev, m, n, k, H, variant)
                        .map_err(|e| format!("profile {} K={k}: {e}", variant.label()))?;
                    (r.profile, r.energy)
                }
                Some(tr) => {
                    let _s = tr.span(
                        "core.gpu_profile",
                        &format!("{} K={k}", variant.label()),
                        Some(q as u64),
                    );
                    traced_profile(tr, &mut dev, m, n, k, variant, q as u64)?
                }
            };
            points.push(Point {
                k,
                variant,
                profile,
                energy,
            });
        }
        let wall_s = t0.elapsed().as_secs_f64();

        // One operation is the whole sweep: the six profiles differ in
        // size by an order of magnitude, so their individual latencies
        // are no sample of one distribution.
        let mut it = Iteration::new(wall_s);
        it.ops = 1;
        it.op_latency_s.push(wall_s);
        let mut sig = Vec::new();
        for pt in &points {
            // A profile is correct when every kernel ran and the
            // GEMM-bearing kernels counted at least the 2·M·N·K FLOPs
            // the problem needs.
            let flops = pt.profile.total_counters().flops;
            let want_kernels = if pt.variant == GpuVariant::Fused {
                3
            } else {
                4
            };
            if pt.profile.kernels.len() != want_kernels
                || flops < 2 * (m * n * pt.k) as u64
                || pt.profile.total_time_s().is_nan()
                || pt.profile.total_time_s() <= 0.0
            {
                it.failed = 1;
                it.problems.push(format!(
                    "{} K={}: {} kernels, {flops} FLOPs, {} s simulated",
                    pt.variant.label(),
                    pt.k,
                    pt.profile.kernels.len(),
                    pt.profile.total_time_s()
                ));
            }
            it.sim_time_ms += pt.profile.total_time_s() * 1e3;
            it.dram_transactions += pt.profile.total_mem().dram_transactions();
            it.energy_mj += pt.energy.total_j() * 1e3;
            profile_signature(
                &mut sig,
                &format!("{}.k{}", pt.variant.label(), pt.k),
                &pt.profile,
                &pt.energy,
            );
        }
        it.signature = sig;

        let find = |k: usize, v: GpuVariant| {
            points
                .iter()
                .find(|p| p.k == k && p.variant == v)
                .expect("the sweep covers every (K, variant)")
        };
        let speedup = |k, base| {
            find(k, base).profile.total_time_s() / find(k, GpuVariant::Fused).profile.total_time_s()
        };
        let fused32 = find(32, GpuVariant::Fused);
        let cublas32 = find(32, GpuVariant::CublasUnfused);
        let l = &mut it.layer;
        l.insert(
            "sim_speedup_vs_cublas.k32",
            speedup(32, GpuVariant::CublasUnfused),
        );
        l.insert(
            "sim_speedup_vs_cublas.k256",
            speedup(256, GpuVariant::CublasUnfused),
        );
        l.insert(
            "sim_speedup_vs_cuda.k32",
            speedup(32, GpuVariant::CudaUnfused),
        );
        l.insert(
            "dram_frac_vs_cublas.k32",
            fused32.profile.total_mem().dram_transactions() as f64
                / cublas32.profile.total_mem().dram_transactions() as f64,
        );
        l.insert(
            "energy_saving_vs_cublas.k32",
            fused32.energy.saving_vs(&cublas32.energy),
        );
        l.insert(
            "energy_saving_vs_cublas.k256",
            find(256, GpuVariant::Fused)
                .energy
                .saving_vs(&find(256, GpuVariant::CublasUnfused).energy),
        );
        let profiles: Vec<&PipelineProfile> = points.iter().map(|p| &p.profile).collect();
        gpu_layer(l, &profiles, peak);
        if let Some(t) = tracer {
            traced_layer(l, t, from);
        }
        Ok(it)
    }
}

/// `GpuKernelSummation::profile`, kernel by kernel, over virtual buffers.
fn traced_profile(
    t: &Tracer,
    dev: &mut GpuDevice,
    m: usize,
    n: usize,
    k: usize,
    variant: GpuVariant,
    query: u64,
) -> Result<(PipelineProfile, EnergyBreakdown), String> {
    let pipe = GpuKernelSummation::new(m, n, k, H);
    check_default_options(&pipe)?;
    let bufs = Bufs {
        ops: GemmOperands {
            a: dev.alloc_virtual(m * k),
            b: dev.alloc_virtual(k * n),
        },
        a2: dev.alloc_virtual(m),
        b2: dev.alloc_virtual(n),
        w: dev.alloc_virtual(n),
        v: dev.alloc_virtual(m),
        c: (variant != GpuVariant::Fused).then(|| dev.alloc_virtual(m * n)),
    };
    dev.invalidate_l2();
    let mut prof = PipelineProfile::new(variant.label());
    for kernel in pipeline_kernels(&pipe, variant, &bufs) {
        let name = kernel.name();
        let _s = t.span("gpu_sim.launch", &name, Some(query));
        prof.kernels.push(
            dev.launch(kernel.as_ref())
                .map_err(|e| format!("launch {name}: {e}"))?,
        );
    }
    let energy = {
        let _s = t.span("energy.pipeline_energy", "", Some(query));
        pipeline_energy(&EnergyParams::default(), &prof)
    };
    Ok((prof, energy))
}

/// The paper's reported figures beside the model's, with the deviation.
/// The model is calibrated to the paper but not validated point by
/// point, so a deviation is a modelling gap, not a measurement error.
pub fn model_vs_paper(layer: &BTreeMap<&'static str, f64>) -> Vec<String> {
    // (label, metric, paper low, paper high, unit)
    let rows: [(&str, &str, f64, f64, &str); 6] = [
        (
            "speed-up vs cuBLAS-unfused, K=32 (paper: up to 1.8x at K<128)",
            "sim_speedup_vs_cublas.k32",
            0.0,
            1.8,
            "x",
        ),
        (
            "speed-up vs cuBLAS-unfused, K=256 (paper: below 1x at high K)",
            "sim_speedup_vs_cublas.k256",
            0.0,
            1.0,
            "x",
        ),
        (
            "speed-up vs CUDA-unfused, K=32 (paper: up to 3.7x, projected)",
            "sim_speedup_vs_cuda.k32",
            0.0,
            3.7,
            "x",
        ),
        (
            "fused DRAM / cuBLAS-unfused DRAM, K=32 (paper: < 10%)",
            "dram_frac_vs_cublas.k32",
            0.0,
            0.10,
            "frac",
        ),
        (
            "energy saving vs cuBLAS-unfused, K=32 (paper: 3-33%)",
            "energy_saving_vs_cublas.k32",
            0.03,
            0.33,
            "frac",
        ),
        (
            "energy saving vs cuBLAS-unfused, K=256 (paper: 3-33%)",
            "energy_saving_vs_cublas.k256",
            0.03,
            0.33,
            "frac",
        ),
    ];
    let mut out = vec![format!(
        "model-vs-paper (M={} N={}; simulated GTX970, calibrated to the paper but unvalidated per point):",
        PROFILE_MN.0, PROFILE_MN.1
    )];
    for (label, key, lo, hi, unit) in rows {
        let v = layer[key];
        let dev = if v > hi {
            v - hi
        } else if v < lo {
            v - lo
        } else {
            0.0
        };
        let within = if dev == 0.0 {
            "within the paper's range".to_string()
        } else {
            format!("deviation {dev:+.3} {unit} outside it")
        };
        out.push(format!("  {label}: model {v:.3} {unit}, {within}"));
    }
    out
}
