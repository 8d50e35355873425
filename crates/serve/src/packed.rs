//! Horizontal fusion: the `PackedBatch` planner and the packed-wave
//! executor.
//!
//! The worker only coalesces queries that share one
//! `(corpus, h, targets)` key, so at serving scale a wave of mutually
//! *unrelated* small queries launches back-to-back with most SMs idle
//! — a 256×256 batch fills 4 of the GTX 970's 26 resident block slots
//! per wave. This module packs those launches horizontally: prepared
//! chunks whose resolved [`TileGeometry`] matches and whose grids are
//! small are grouped into one
//! [`ks_gpu_kernels::FusedMultiPacked`] launch, where a per-block
//! routing table maps each thread block to its own segment's buffers.
//!
//! Results are **bit-identical** to serving every chunk unpacked: a
//! segment's blocks execute the unpacked kernel body at the same local
//! coordinates against the same padded data, and segments write
//! disjoint outputs (the differential suite in
//! `tests/packed_differential.rs` pins this).
//!
//! Eligibility is conservative by construction:
//!
//! * `gx ≤ 2` column blocks per segment ([`PACK_MAX_COL_BLOCKS`]) —
//!   packing targets narrow queries. Result bits do not depend on
//!   this bound: the packed kernel folds each segment row group into
//!   `V` in launch order at any thread count.
//! * a small per-segment block budget ([`PACK_MAX_SEGMENT_BLOCKS`]) —
//!   packing exists to fuse *underfilling* launches; a grid that
//!   already saturates the device gains nothing and only delays its
//!   wave-mates.

use std::sync::Arc;

use ks_core::plan::SourcePlan;
use ks_core::problem::PointSet;
use ks_gpu_kernels::{
    execute_fused_multi_packed_with, PackedSegmentSpec, TileGeometry, VerifyReport,
};
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::kernel::LaunchError;
use ks_gpu_sim::profiler::PipelineProfile;

use crate::executor::{pad_batch, PaddedBatch};

/// Largest per-segment grid (in thread blocks, after padding) the
/// planner will pack. Segments above this already occupy a meaningful
/// fraction of the device and serve better back-to-back.
pub const PACK_MAX_SEGMENT_BLOCKS: usize = 16;

/// Largest per-segment column-block count (`gx`) the planner packs:
/// packing targets narrow queries. Result bits do not depend on it,
/// since packed launches fold each segment row group in launch order.
pub const PACK_MAX_COL_BLOCKS: usize = 2;

/// Whether a batch of raw shape `(m, n)` is pack-eligible under `geo`.
#[must_use]
pub fn packable(m: usize, n: usize, geo: &TileGeometry) -> bool {
    let gy = m.div_ceil(geo.block_m);
    let gx = n.div_ceil(geo.block_n);
    gx <= PACK_MAX_COL_BLOCKS && gx * gy <= PACK_MAX_SEGMENT_BLOCKS
}

/// The horizontal-fusion plan over one wave of prepared chunks:
/// `groups` are packed waves (≥ 2 chunks sharing a resolved geometry,
/// wave order preserved within a group); everything else serves
/// unpacked.
pub(crate) struct PackedBatch {
    /// Chunk indices per packed wave, in first-arrival order.
    pub(crate) groups: Vec<Vec<usize>>,
}

impl PackedBatch {
    /// Plans one wave. `classes[i]` is `Some(geometry)` when chunk `i`
    /// is pack-eligible (admitted, small, determinism envelope) and
    /// `None` otherwise. Chunks grouped together always share a
    /// geometry bit-for-bit; singleton classes stay unpacked.
    pub(crate) fn plan(classes: &[Option<TileGeometry>]) -> Self {
        let mut groups: Vec<(TileGeometry, Vec<usize>)> = Vec::new();
        for (i, class) in classes.iter().enumerate() {
            let Some(geo) = class else { continue };
            match groups.iter_mut().find(|(g, _)| g == geo) {
                Some((_, members)) => members.push(i),
                None => groups.push((*geo, vec![i])),
            }
        }
        Self {
            groups: groups
                .into_iter()
                .filter(|(_, m)| m.len() >= 2)
                .map(|(_, m)| m)
                .collect(),
        }
    }
}

/// One segment of a packed wave, as the server prepares it: the
/// chunk's plan, targets, bandwidth and weight columns, plus whether
/// its plan arrived warm (precomputed norms ship instead of a norms
/// launch — exactly the unpacked plan-hit path).
pub(crate) struct PackedSegment {
    pub(crate) plan: Arc<SourcePlan>,
    pub(crate) targets: Arc<PointSet>,
    pub(crate) h: f32,
    pub(crate) weights: Vec<Vec<f32>>,
    pub(crate) warm: bool,
}

/// What one packed wave hands back: per-segment per-column results,
/// the wave's single pipeline profile, and per-segment ABFT reports
/// when the verified path ran.
pub(crate) struct PackedOutcome {
    pub(crate) results: Vec<Vec<Vec<f32>>>,
    pub(crate) profile: PipelineProfile,
    pub(crate) verify: Option<Vec<VerifyReport>>,
}

/// Runs one packed wave on `dev`: pads every segment exactly as the
/// unpacked executor would, keys upload deduplication on the plan and
/// target-set identities (clones of one `Arc` are byte-identical, and
/// all `Arc`s are alive for the whole call, so pointer keys cannot
/// alias), and unpads each segment's result slice.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults; the server degrades the affected segments individually.
pub(crate) fn execute_gpu_packed(
    dev: &mut GpuDevice,
    segs: &[PackedSegment],
    geo: &TileGeometry,
    verify: bool,
) -> Result<PackedOutcome, LaunchError> {
    let padded: Vec<PaddedBatch> = segs
        .iter()
        .map(|s| pad_batch(&s.plan, &s.targets, &s.weights, s.warm, geo))
        .collect();
    let specs: Vec<PackedSegmentSpec> = segs
        .iter()
        .zip(&padded)
        .map(|(s, p)| PackedSegmentSpec {
            shape: p.shape,
            h: s.h,
            a: &p.a,
            b: &p.b,
            w_cols: &p.w_cols,
            a2: p.a2.as_deref(),
            a_key: Some(Arc::as_ptr(&s.plan) as u64),
            b_key: Some(Arc::as_ptr(&s.targets) as u64),
        })
        .collect();
    let (vs, profile, verify) = execute_fused_multi_packed_with(dev, geo, &specs, verify)?;
    let results = padded.iter().zip(&vs).map(|(p, v)| p.unpad(v)).collect();
    Ok(PackedOutcome {
        results,
        profile,
        verify,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn packable_enforces_the_determinism_envelope_and_block_budget() {
        let geo = TileGeometry::paper_default();
        assert!(packable(256, 256, &geo), "2×2 blocks, gx = 2");
        assert!(packable(1, 1, &geo), "1×1 after padding");
        assert!(!packable(256, 512, &geo), "gx = 4 exceeds the envelope");
        assert!(
            !packable(2048, 256, &geo),
            "32 blocks exceed the per-segment budget"
        );
    }

    #[test]
    fn planner_groups_by_geometry_and_drops_singletons() {
        let a = TileGeometry::paper_default();
        let mut b = a;
        b.double_buffer_depth = if a.double_buffer_depth == 2 { 1 } else { 2 };
        let classes = [Some(a), None, Some(b), Some(a), Some(a), Some(b)];
        let plan = PackedBatch::plan(&classes);
        assert_eq!(plan.groups, vec![vec![0, 3, 4], vec![2, 5]]);

        let lonely = [Some(a), None, Some(b)];
        assert!(
            PackedBatch::plan(&lonely).groups.is_empty(),
            "singleton classes never pack"
        );
    }
}
