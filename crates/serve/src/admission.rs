//! Plan-time static admission for GPU batches.
//!
//! Before a batch's first GPU attempt, the server proves the *exact*
//! kernel it is about to launch clean — bank conflicts, coalescing,
//! bounds, barriers, occupancy — from the kernel's declared access
//! spec alone (`ks_analyze::static_`; zero trace replay, zero
//! execution). A kernel that fails the proof never reaches a device:
//! the batch is served on the bit-exact CPU path instead.
//!
//! A verdict depends only on the padded launch geometry
//! ([`AdmissionKey`]) and the device model, both fixed per server, so
//! verdicts are memoized next to the plan cache
//! ([`crate::cache::PlanCache::admission`]): warm shapes pay one hash
//! lookup, satisfying the serve-bench throughput budget.

use ks_analyze::static_::analyze_spec;
use ks_gpu_kernels::aux_kernels::Bandwidth;
use ks_gpu_kernels::gemm_engine::{GemmOperands, GemmShape};
use ks_gpu_kernels::{FusedKernelSummation, TileGeometry};
use ks_gpu_sim::buffer::GlobalMem;
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::kernel::Kernel;

/// Everything a static admission verdict depends on besides the
/// device model: the GEMM shape *after* padding to the tiling
/// constraints, the weight-column count (which sets the register
/// footprint and the epilogue's access pattern), and the tile
/// geometry the kernel would launch with (which sets everything
/// else — occupancy, staging layout, coalescing width).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct AdmissionKey {
    /// Padded source count (`M`, multiple of the geometry's block_m).
    pub m: usize,
    /// Padded target count (`N`, multiple of the geometry's block_n).
    pub n: usize,
    /// Padded point dimension (`K`, multiple of the geometry's
    /// tile_k).
    pub k: usize,
    /// Weight columns in the batch.
    pub r: usize,
    /// The tile geometry of the launch being proved.
    pub geometry: TileGeometry,
}

impl AdmissionKey {
    /// Key for a batch of `r` queries over an `m × k` corpus and `n`
    /// targets at `geometry`, applying the same padding
    /// `executor::pad_batch` does.
    #[must_use]
    pub fn for_batch(m: usize, n: usize, k: usize, r: usize, geometry: &TileGeometry) -> Self {
        Self {
            m: m.next_multiple_of(geometry.block_m),
            n: n.next_multiple_of(geometry.block_n),
            k: k.next_multiple_of(geometry.tile_k),
            r,
            geometry: *geometry,
        }
    }
}

/// Outcome of one static admission check.
#[derive(Debug, Clone)]
pub struct AdmissionVerdict {
    /// True when the kernel proved clean (or was unprovable — see
    /// [`check_shape`]); false when the analyzer found a violation.
    pub admitted: bool,
    /// Rendered findings behind a rejection (empty when admitted).
    pub findings: Vec<String>,
}

/// Memo counters for the admission path.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionStats {
    /// Fresh verdicts computed (one static analysis each).
    pub checks: u64,
    /// Verdicts served from the memo (warm shapes; no analysis ran).
    pub hits: u64,
    /// Batches denied the GPU and served on the CPU path.
    pub rejects: u64,
}

/// Statically lints the fused multi-weight kernel at the given launch
/// geometry. The shadow kernel is built over virtual buffers sized
/// exactly as `executor::pad_batch` would allocate them, so the proof
/// covers the launch the server would actually make.
///
/// Admission only rejects on a *positive* proof of a violation. An
/// unprovable spec (missing or non-affine) admits: the fused-multi
/// kernel declares an affine spec so that arm is dead in practice,
/// but the policy stays honest if the spec is ever dropped — dynamic
/// replay at serve time is exactly what this check exists to avoid.
#[must_use]
pub fn check_shape(dev: &DeviceConfig, key: AdmissionKey) -> AdmissionVerdict {
    let shape = GemmShape {
        m: key.m,
        n: key.n,
        k: key.k,
    };
    let mut mem = GlobalMem::new();
    let ops = GemmOperands {
        a: mem.alloc_virtual(shape.m * shape.k),
        b: mem.alloc_virtual(shape.k * shape.n),
    };
    let a2 = mem.alloc_virtual(shape.m);
    let b2 = mem.alloc_virtual(shape.n);
    let w = mem.alloc_virtual(shape.n * key.r);
    let v = mem.alloc_virtual(shape.m * key.r);
    let kernel =
        FusedKernelSummation::new_multi(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, key.r)
            .with_geometry(key.geometry);
    match kernel.access_spec() {
        Some(spec) if spec.is_affine() => {
            let (report, _) = analyze_spec(dev, &kernel, &spec);
            AdmissionVerdict {
                admitted: report.is_clean(),
                findings: report.findings.iter().map(ToString::to_string).collect(),
            }
        }
        _ => AdmissionVerdict {
            admitted: true,
            findings: Vec::new(),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn padded_shapes_admit_on_the_reference_device() {
        let dev = DeviceConfig::gtx970();
        let geo = TileGeometry::paper_default();
        for r in [1, 2, 8] {
            let key = AdmissionKey::for_batch(100, 70, 5, r, &geo);
            assert_eq!((key.m, key.n, key.k), (128, 128, 8));
            let verdict = check_shape(&dev, key);
            assert!(verdict.admitted, "r={r}: {:?}", verdict.findings);
        }
    }

    #[test]
    fn starved_device_is_rejected_with_findings() {
        let mut dev = DeviceConfig::gtx970();
        // Halving the register file breaks the kernel's declared
        // occupancy expectation — a provable mismatch.
        dev.regs_per_sm /= 2;
        let verdict = check_shape(
            &dev,
            AdmissionKey::for_batch(256, 256, 16, 2, &TileGeometry::paper_default()),
        );
        assert!(!verdict.admitted);
        assert!(!verdict.findings.is_empty());
    }
}
