//! Trace recording and the lint driver.
//!
//! [`record_traces`] replays a kernel's `block_traffic` with a
//! [`TraceSink`] attached and returns the per-block warp traces.
//! [`lint_kernel`] runs every check over those traces;
//! [`lint_report`] does so for the whole registry of shipped
//! kernel/variant probes on a small probe problem.

use ks_gpu_sim::buffer::GlobalMem;
use ks_gpu_sim::cache::Cache;
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::kernel::Kernel;
use ks_gpu_sim::trace::{BlockTrace, TraceSink};
use ks_gpu_sim::traffic::TrafficSink;

use ks_gpu_kernels::aux_kernels::{
    Bandwidth, EvalKernel, EvalSumCoalescedKernel, EvalSumKernel, GemvKernel, NormsKernel,
};
use ks_gpu_kernels::fused::{ReducePartialsKernel, Reduction};
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{
    CudaSgemm, FusedKernelSummation, Sgemm4x4, SmemLayout, TileGeometry, VendorSgemm,
};

use crate::checks;
use crate::report::Report;

/// Blocks traced per kernel. The workspace kernels are
/// traffic-homogeneous, so a handful of blocks (covering every
/// grid-position-dependent address pattern) suffices.
pub const MAX_TRACED_BLOCKS: usize = 4;

/// Replays up to `max_blocks` blocks of `kernel` through a traffic
/// sink with a trace recorder attached, returning the recorded
/// per-block traces.
#[must_use]
pub fn record_traces(kernel: &dyn Kernel, mem: &GlobalMem, max_blocks: usize) -> Vec<BlockTrace> {
    let lc = kernel.launch_config();
    let mut trace = TraceSink::new();
    let mut l2 = Cache::new(64 * 1024, 16, 32);
    {
        let mut sink = TrafficSink::new(mem, &mut l2, 32, 32);
        sink.set_trace(&mut trace);
        for block in lc.grid.iter_indices().take(max_blocks) {
            sink.begin_block(block.linear_in(lc.grid));
            kernel.block_traffic(block, &mut sink);
        }
    }
    trace.into_blocks()
}

/// Runs every static check against one kernel: trace-based checks
/// (races, bank conflicts, barrier divergence, bounds) on up to
/// [`MAX_TRACED_BLOCKS`] blocks, plus the whole-kernel budget checks
/// (buffer overlap, occupancy).
#[must_use]
pub fn lint_kernel(dev: &DeviceConfig, kernel: &dyn Kernel, mem: &GlobalMem) -> Report {
    let name = kernel.name();
    let budget = kernel.analysis_budget();
    let warps = kernel.launch_config().warps_per_block();
    let mut findings = Vec::new();
    findings.extend(checks::buffer_overlap(&name, &budget));
    findings.extend(checks::occupancy_budget(dev, kernel));
    for t in record_traces(kernel, mem, MAX_TRACED_BLOCKS) {
        findings.extend(checks::shared_races(&name, &t));
        findings.extend(checks::bank_conflicts(
            &name,
            &t,
            budget.smem_conflict_budget,
            32,
        ));
        findings.extend(checks::barrier_divergence(&name, &t, warps));
        findings.extend(checks::global_bounds(&name, &t, &budget));
    }
    Report {
        findings,
        checked: vec![name],
    }
}

/// A registered kernel/variant plus the (virtual) device memory its
/// buffers live in.
pub struct Probe {
    /// Short registry name (stable across kernel renames).
    pub name: &'static str,
    /// Memory holding the probe's buffer allocations.
    pub mem: GlobalMem,
    /// The kernel under lint.
    pub kernel: Box<dyn Kernel>,
}

/// Probe problem edge: small enough to trace in milliseconds, large
/// enough for a multi-block grid. Derived from the probes' (default)
/// tile geometry, not a hardcoded 128.
const PROBE_MN: usize = 2 * TileGeometry::paper_default().block_n;

struct FusedBufs {
    ops: GemmOperands,
    a2: ks_gpu_sim::buffer::BufId,
    b2: ks_gpu_sim::buffer::BufId,
    w: ks_gpu_sim::buffer::BufId,
    v: ks_gpu_sim::buffer::BufId,
}

fn fused_bufs(mem: &mut GlobalMem, shape: GemmShape) -> FusedBufs {
    FusedBufs {
        ops: GemmOperands {
            a: mem.alloc_virtual(shape.m * shape.k),
            b: mem.alloc_virtual(shape.k * shape.n),
        },
        a2: mem.alloc_virtual(shape.m),
        b2: mem.alloc_virtual(shape.n),
        w: mem.alloc_virtual(shape.n),
        v: mem.alloc_virtual(shape.m),
    }
}

fn fused_probe(
    name: &'static str,
    k: usize,
    build: impl Fn(FusedKernelSummation) -> FusedKernelSummation,
) -> Probe {
    let shape = GemmShape {
        m: PROBE_MN,
        n: PROBE_MN,
        k,
    };
    let mut mem = GlobalMem::new();
    let b = fused_bufs(&mut mem, shape);
    let kernel = build(FusedKernelSummation::new(
        b.ops,
        b.a2,
        b.b2,
        b.w,
        b.v,
        shape,
        Bandwidth { h: 1.0 },
    ));
    Probe {
        name,
        mem,
        kernel: Box::new(kernel),
    }
}

/// The registry of shipped kernels/variants, each on a probe problem
/// (`M = N = 256`, both double-buffer parities of `K` for the fused
/// kernels). `ksum lint` and the CI `lint-kernels` job run every
/// entry.
#[must_use]
pub fn shipped_probes() -> Vec<Probe> {
    let shape16 = GemmShape {
        m: PROBE_MN,
        n: PROBE_MN,
        k: 16,
    };
    let bw = Bandwidth { h: 1.0 };
    let mut probes = vec![
        // K = 16 (even tile count) and K = 24 (odd): both parities of
        // the double-buffered pipeline, covering the T-scratch parity.
        fused_probe("fused", 16, |k| k),
        fused_probe("fused_k24", 24, |k| k),
        fused_probe("fused_naive_layout", 16, |k| {
            k.with_layout(SmemLayout::NaiveRowMajor)
        }),
        fused_probe("fused_single_buffer", 24, |k| k.with_double_buffer(false)),
    ];

    // Two-pass reduction: the fused kernel writing partials plus the
    // reduce kernel consuming them.
    {
        let mut mem = GlobalMem::new();
        let b = fused_bufs(&mut mem, shape16);
        let n_blocks_x = shape16.n / TileGeometry::paper_default().block_n;
        let partials = mem.alloc_virtual(n_blocks_x * shape16.m);
        let kernel = FusedKernelSummation::new(b.ops, b.a2, b.b2, b.w, b.v, shape16, bw)
            .with_reduction(Reduction::TwoPass { partials });
        probes.push(Probe {
            name: "fused_two_pass",
            mem,
            kernel: Box::new(kernel),
        });
        let mut mem2 = GlobalMem::new();
        let p2 = mem2.alloc_virtual(n_blocks_x * shape16.m);
        let v2 = mem2.alloc_virtual(shape16.m);
        probes.push(Probe {
            name: "reduce_partials",
            mem: mem2,
            kernel: Box::new(ReducePartialsKernel::new(p2, v2, shape16.m, n_blocks_x)),
        });
    }

    // Multi-weight fused kernel, R = 2 (the r >= 2 occupancy point).
    for (name, k) in [("fused_multi_r2", 16), ("fused_multi_r2_k24", 24)] {
        let shape = GemmShape {
            m: PROBE_MN,
            n: PROBE_MN,
            k,
        };
        let mut mem = GlobalMem::new();
        let b = fused_bufs(&mut mem, shape);
        let w = mem.alloc_virtual(shape.n * 2);
        let v = mem.alloc_virtual(shape.m * 2);
        probes.push(Probe {
            name,
            mem,
            kernel: Box::new(FusedKernelSummation::new_multi(
                b.ops, b.a2, b.b2, w, v, shape, bw, 2,
            )),
        });
    }

    // Plain GEMM kernels.
    {
        let mut mem = GlobalMem::new();
        let ops = GemmOperands {
            a: mem.alloc_virtual(shape16.m * shape16.k),
            b: mem.alloc_virtual(shape16.k * shape16.n),
        };
        let c = mem.alloc_virtual(shape16.m * shape16.n);
        probes.push(Probe {
            name: "sgemm_cuda",
            mem,
            kernel: Box::new(CudaSgemm::new(ops, c, shape16)),
        });
        let mut mem = GlobalMem::new();
        let ops = GemmOperands {
            a: mem.alloc_virtual(shape16.m * shape16.k),
            b: mem.alloc_virtual(shape16.k * shape16.n),
        };
        let c = mem.alloc_virtual(shape16.m * shape16.n);
        probes.push(Probe {
            name: "sgemm_vendor",
            mem,
            kernel: Box::new(VendorSgemm::new(ops, c, shape16)),
        });
        let mut mem = GlobalMem::new();
        let ops = GemmOperands {
            a: mem.alloc_virtual(shape16.m * shape16.k),
            b: mem.alloc_virtual(shape16.k * shape16.n),
        };
        let c = mem.alloc_virtual(shape16.m * shape16.n);
        probes.push(Probe {
            name: "sgemm_4x4_small",
            mem,
            kernel: Box::new(Sgemm4x4::new(ops, c, shape16)),
        });
    }

    // Unfused pipeline stages.
    let (m, n, dim) = (PROBE_MN, PROBE_MN, 16);
    {
        let mut mem = GlobalMem::new();
        let pts = mem.alloc_virtual(m * dim);
        let out = mem.alloc_virtual(m);
        probes.push(Probe {
            name: "norms",
            mem,
            kernel: Box::new(NormsKernel::new(pts, out, m, dim, "a")),
        });
    }
    for coalesced in [false, true] {
        let mut mem = GlobalMem::new();
        let c = mem.alloc_virtual(m * n);
        let (a2, b2, w, v) = (
            mem.alloc_virtual(m),
            mem.alloc_virtual(n),
            mem.alloc_virtual(n),
            mem.alloc_virtual(m),
        );
        let kernel: Box<dyn Kernel> = if coalesced {
            Box::new(EvalSumCoalescedKernel::new(c, a2, b2, w, v, m, n, bw))
        } else {
            Box::new(EvalSumKernel::new(c, a2, b2, w, v, m, n, bw))
        };
        probes.push(Probe {
            name: if coalesced {
                "eval_sum_coalesced"
            } else {
                "eval_sum"
            },
            mem,
            kernel,
        });
    }
    {
        let mut mem = GlobalMem::new();
        let c = mem.alloc_virtual(m * n);
        let kmat = mem.alloc_virtual(m * n);
        let (a2, b2) = (mem.alloc_virtual(m), mem.alloc_virtual(n));
        probes.push(Probe {
            name: "eval",
            mem,
            kernel: Box::new(EvalKernel::new(c, kmat, a2, b2, m, n, bw)),
        });
        let mut mem = GlobalMem::new();
        let kmat = mem.alloc_virtual(m * n);
        let (w, v) = (mem.alloc_virtual(n), mem.alloc_virtual(m));
        probes.push(Probe {
            name: "gemv",
            mem,
            kernel: Box::new(GemvKernel::new(kmat, w, v, m, n)),
        });
    }
    probes
}

/// Lints every shipped probe on `dev`, returning one merged report.
#[must_use]
pub fn lint_report(dev: &DeviceConfig) -> Report {
    let mut report = Report::default();
    for probe in shipped_probes() {
        let mut r = lint_kernel(dev, probe.kernel.as_ref(), &probe.mem);
        // Label by registry name: kernel names collide across variants
        // (e.g. the swizzled and naive-layout probes share one name).
        r.checked = vec![probe.name.to_string()];
        for f in &mut r.findings {
            f.kernel = probe.name.to_string();
        }
        report.merge(r);
    }
    // The registry trips the same (kernel, check, detail) once per
    // traced block; report each once with an occurrence count.
    report.dedup();
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_cover_blocks_and_epochs() {
        let probes = shipped_probes();
        let fused = &probes[0];
        let traces = record_traces(fused.kernel.as_ref(), &fused.mem, MAX_TRACED_BLOCKS);
        assert_eq!(traces.len(), 4, "2x2 grid fully traced");
        for t in &traces {
            // k=16 double-buffered: 2 GEMM barriers (one per tile)
            // plus the reduction-phase barriers.
            assert!(t.barriers.len() >= 2, "{} barriers", t.barriers.len());
            assert!(!t.shared.is_empty());
            assert!(!t.global.is_empty());
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let probes = shipped_probes();
        let mut names: Vec<_> = probes.iter().map(|p| p.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), probes.len());
    }
}
