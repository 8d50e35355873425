//! Horizontally-fused packed kernel: many unrelated small fused
//! queries in **one** launch.
//!
//! At serving scale traffic is dominated by small `(source, target, h)`
//! queries that each underfill the grid — a 256×256 query at the paper
//! geometry launches 4 blocks onto a 13-SM device that seats 26 blocks
//! per wave, so every back-to-back launch pays a near-empty tail wave
//! plus a full launch overhead. Horizontal fusion (Li et al.,
//! "Automatic Horizontal Fusion for GPU Kernels") remaps thread blocks
//! instead: a single 1-D grid covers the **concatenation** of the
//! segments' 2-D grids and a per-block routing table maps each linear
//! block index back to (segment, local block), so each block executes
//! the *existing* fused microkernel against its own segment's buffers.
//!
//! ## Routing table
//! Segment `i` owns the half-open linear block range
//! `prefix[i]..prefix[i+1]` where `prefix` is the running sum of
//! per-segment grid sizes `gx·gy`. Inside a range the local block is
//! recovered exactly as CUDA linearizes a 2-D grid (x fastest):
//! `bx = (linear − prefix[i]) % gx`, `by = (linear − prefix[i]) / gx`.
//! The ranges partition `0..total` by construction — every block is
//! assigned to exactly one segment and every segment block is covered.
//!
//! ## Bit-exactness
//! A packed launch is bit-identical to running the segments back to
//! back: each block runs the one [`FusedKernelSummation`] body with the
//! same local coordinates and the same buffer contents it would see
//! unpacked, and the segments write disjoint output buffers. Each
//! segment row group is a contiguous run of linear blocks, declared
//! through [`Kernel::block_rows`], so the interpreter folds its atomics
//! in launch order exactly as the unpacked launch does.
//!
//! ## Admission
//! The packed kernel deliberately returns `access_spec() = None` — an
//! honest dynamic-lint downgrade. Each segment's access pattern is
//! affine in its *own* 2-D grid, but the packed launch is a 1-D grid
//! whose block → offset map is piecewise (one piece per segment), which
//! the single-affine `AccessSpec` language cannot express. Static
//! admission still gates packed serving: the serve layer admits every
//! segment *individually* (same `AdmissionKey` as unpacked) before it
//! is eligible for packing, so no un-admitted shape can ride in.

use std::collections::HashMap;
use std::ops::Range;

use ks_gpu_sim::access::AccessSpec;
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BlockClass, BufferUse, Kernel, KernelResources, LaunchError, TimingHints,
};
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::traffic::TrafficSink;

use crate::aux_kernels::{Bandwidth, NormsKernel};
use crate::fused::{
    geometry_tag, row_groups, FusedKernelSummation, VerifyBufs, VerifyReport, CHECKSUM_SLOT_WORDS,
};
use crate::gemm_engine::{GemmOperands, GemmShape, SmemMap};
use crate::geometry::TileGeometry;
use crate::machine::{FunctionalMachine, TrafficMachine};
use crate::native;

/// Block-index → segment routing for a packed launch.
///
/// Public (and separate from the kernel) so the partition property —
/// every linear block maps to exactly one segment with in-range local
/// coordinates — can be property-tested directly.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    grids: Vec<(u32, u32)>,
    /// `prefix[i]` = first linear block of segment `i`;
    /// `prefix[len]` = total blocks.
    prefix: Vec<u32>,
}

impl RoutingTable {
    /// Builds the table from per-segment `(gx, gy)` grids.
    ///
    /// # Panics
    /// Panics on an empty segment list or a zero-sized grid.
    #[must_use]
    pub fn new(grids: &[(u32, u32)]) -> Self {
        assert!(
            !grids.is_empty(),
            "packed launch needs at least one segment"
        );
        let mut prefix = Vec::with_capacity(grids.len() + 1);
        let mut total = 0u32;
        prefix.push(0);
        for &(gx, gy) in grids {
            assert!(gx > 0 && gy > 0, "segment grid must be non-empty");
            total = total
                .checked_add(gx.checked_mul(gy).expect("grid size overflow"))
                .expect("packed grid overflow");
            prefix.push(total);
        }
        Self {
            grids: grids.to_vec(),
            prefix,
        }
    }

    /// Total linear blocks in the packed grid.
    #[must_use]
    pub fn total_blocks(&self) -> u32 {
        *self.prefix.last().expect("prefix never empty")
    }

    /// Number of segments.
    #[must_use]
    pub fn segments(&self) -> usize {
        self.grids.len()
    }

    /// The `(gx, gy)` grid of segment `seg`.
    #[must_use]
    pub fn grid(&self, seg: usize) -> (u32, u32) {
        self.grids[seg]
    }

    /// First linear block of segment `seg` (its block-range start).
    #[must_use]
    pub fn segment_start(&self, seg: usize) -> u32 {
        self.prefix[seg]
    }

    /// Maps a linear block index to `(segment, local 2-D block)`.
    ///
    /// # Panics
    /// Panics when `linear` is outside the packed grid.
    #[must_use]
    pub fn route(&self, linear: u32) -> (usize, Dim3) {
        assert!(
            linear < self.total_blocks(),
            "block {linear} outside packed grid of {}",
            self.total_blocks()
        );
        // prefix is strictly increasing; find the owning range.
        let seg = self.prefix.partition_point(|&p| p <= linear) - 1;
        let local = linear - self.prefix[seg];
        let (gx, _) = self.grids[seg];
        (seg, Dim3::new_2d(local % gx, local / gx))
    }
}

/// The horizontally-fused packed kernel: one 1-D launch over the
/// concatenated grids of many [`FusedKernelSummation`] segments (see
/// the module docs for routing and bit-exactness).
pub struct FusedMultiPacked {
    segments: Vec<FusedKernelSummation>,
    table: RoutingTable,
    geometry: TileGeometry,
    max_r: usize,
    verified: bool,
}

impl FusedMultiPacked {
    /// Packs `segments` into one launch.
    ///
    /// # Panics
    /// Panics when `segments` is empty, the segments do not share one
    /// tile geometry (one launch has one block shape / smem footprint),
    /// or ABFT verification is not uniform across segments.
    #[must_use]
    pub fn new(segments: Vec<FusedKernelSummation>) -> Self {
        assert!(!segments.is_empty(), "packed launch needs segments");
        let geometry = *segments[0].geometry();
        let verified = segments[0].verify.is_some();
        for seg in &segments {
            assert_eq!(
                *seg.geometry(),
                geometry,
                "packed segments must share one tile geometry"
            );
            assert_eq!(
                seg.verify.is_some(),
                verified,
                "packed segments must uniformly enable or disable ABFT"
            );
        }
        let grids: Vec<(u32, u32)> = segments
            .iter()
            .map(|s| s.shape.grid_for(&geometry))
            .collect();
        let max_r = segments.iter().map(|s| s.r).max().expect("non-empty");
        Self {
            segments,
            table: RoutingTable::new(&grids),
            geometry,
            max_r,
            verified,
        }
    }

    /// The per-block routing table.
    #[must_use]
    pub fn table(&self) -> &RoutingTable {
        &self.table
    }

    /// The shared tile geometry.
    #[must_use]
    pub fn geometry(&self) -> &TileGeometry {
        &self.geometry
    }
}

impl Kernel for FusedMultiPacked {
    fn name(&self) -> String {
        let tag = if self.verified { "_abft" } else { "" };
        format!(
            "fused_multi_packed{}w{}{tag}{}_{}b",
            self.segments.len(),
            self.max_r,
            geometry_tag(&self.geometry),
            self.table.total_blocks()
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        LaunchConfig::new(
            Dim3::new_1d(self.table.total_blocks()),
            Dim3::new_2d(
                self.geometry.threads_x() as u32,
                self.geometry.threads_y() as u32,
            ),
        )
    }

    fn resources(&self) -> KernelResources {
        // One launch, one register/smem budget: the occupancy cost is
        // set by the widest segment (max column count).
        KernelResources {
            threads_per_block: self.geometry.threads_per_block() as u32,
            regs_per_thread: self.geometry.regs_per_thread_multi(self.max_r).min(255),
            smem_bytes_per_block: SmemMap::for_geometry(&self.geometry).bytes(),
        }
    }

    fn timing_hints(&self) -> TimingHints {
        // Same execution model as the segments it hosts.
        self.segments[0].timing_hints()
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        let (seg, local) = self.table.route(block.x);
        self.segments[seg].body(local, &mut FunctionalMachine::new(ctx));
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        let (seg, local) = self.table.route(block.x);
        self.segments[seg].body(local, &mut TrafficMachine::new(sink));
    }

    fn execute_native(&self, mem: &GlobalMem) -> bool {
        if self.verified {
            return false;
        }
        let jobs: Vec<_> = self
            .segments
            .iter()
            .map(FusedKernelSummation::native_job)
            .collect();
        native::run(mem, &jobs);
        true
    }

    fn block_rows(&self) -> Option<Vec<Range<u64>>> {
        // Segment by segment, the row groups of its solo grid, shifted
        // to the segment's first linear block.
        Some(
            (0..self.table.segments())
                .flat_map(|seg| {
                    row_groups(
                        u64::from(self.table.segment_start(seg)),
                        self.table.grid(seg),
                    )
                })
                .collect(),
        )
    }

    fn traffic_homogeneous(&self) -> bool {
        // Blocks of different segments run different shapes/column
        // counts — never scale one block's counters by the grid.
        false
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        // Honest dynamic-lint downgrade (see module docs): per-segment
        // patterns are affine in the segment-local grid, not in the
        // packed linear grid, so no single AccessSpec describes this
        // launch. Serve-side admission gates each segment individually
        // before it may be packed.
        None
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Within a segment all blocks share one instruction stream and
        // differ only by the segment's own per-buffer anchors (the
        // unpacked kernel's class, key 0). Across segments streams
        // differ, so the class key is the segment index.
        let (seg, local) = self.table.route(block.x);
        let inner = self.segments[seg]
            .block_class(local)
            .expect("segment kernels always classify");
        Some(BlockClass {
            key: seg as u64,
            anchors: inner.anchors,
        })
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        // Merge the per-segment buffer inventories; shared buffers
        // (deduplicated corpora uploads) keep their widest extent.
        let mut merged: Vec<BufferUse> = Vec::new();
        let mut index: HashMap<BufId, usize> = HashMap::new();
        for seg in &self.segments {
            for us in seg.analysis_budget().buffers {
                match index.get(&us.buf) {
                    Some(&i) => {
                        let slot: &mut BufferUse = &mut merged[i];
                        slot.len = slot.len.max(us.len);
                        slot.writes |= us.writes;
                    }
                    None => {
                        index.insert(us.buf, merged.len());
                        merged.push(us);
                    }
                }
            }
        }
        let occ = ks_gpu_sim::occupancy::occupancy(&DeviceConfig::gtx970(), &self.resources());
        AnalysisBudget {
            smem_conflict_budget: 0,
            expected_blocks_per_sm: Some(occ.blocks_per_sm),
            expected_limiter: Some(occ.limiter),
            buffers: merged,
        }
    }
}

/// Label under which packed batches appear in profiles and metrics.
pub const FUSED_MULTI_PACKED_PIPELINE: &str = "Fused-Multi-Packed";

/// Pipeline label of the ABFT-verified packed path.
pub const FUSED_MULTI_PACKED_VERIFIED_PIPELINE: &str = "Fused-Multi-Packed-ABFT";

/// One query's slice of a packed launch, as the host sees it.
///
/// `a_key`/`b_key` enable plan-cache-aware upload deduplication:
/// segments carrying equal keys promise **byte-identical** `a` (resp.
/// `b`) slices and share one uploaded buffer. Norms sharing splits by
/// warmth — cold sharers share one norms pass, warm sharers share the
/// first uploaded `a2` (equal keys promise byte-identical norms too)
/// — but warmth never migrates between sharers: host-precomputed
/// norms are not bit-identical to the kernel's, so upgrading a cold
/// segment would break the bit-identity contract. `None` keys never
/// share.
pub struct PackedSegmentSpec<'a> {
    /// Padded GEMM shape of this segment (must divide the geometry).
    pub shape: GemmShape,
    /// Gaussian bandwidth.
    pub h: f32,
    /// `M×K` row-major source corpus.
    pub a: &'a [f32],
    /// `N×K` row-major target points (stored `K×N` GEMM-wise).
    pub b: &'a [f32],
    /// `N×R` column-major weights.
    pub w_cols: &'a [f32],
    /// Precomputed `‖aᵢ‖²` row norms (plan-cache hit): skips norms(A).
    pub a2: Option<&'a [f32]>,
    /// Upload-dedup key for `a` (e.g. the plan's identity).
    pub a_key: Option<u64>,
    /// Upload-dedup key for `b` (e.g. the target set's identity).
    pub b_key: Option<u64>,
}

/// Per-corpus upload slot shared by all segments with one dedup key.
///
/// The *data* upload is shared unconditionally (equal keys promise
/// byte-identical slices), but norms are split by warmth: precomputed
/// norms are **not** bit-identical to the norms kernel's output (the
/// host accumulates in f64, the kernel in f32), so a warm segment's
/// upload must never serve a cold sharer — each class keeps its own
/// buffer and a mixed slot carries both.
struct CorpusSlot {
    buf: BufId,
    /// Uploaded precomputed norms, shared by the slot's warm segments.
    sq_warm: Option<BufId>,
    /// Kernel-computed norms, shared by the slot's cold segments; a
    /// norms kernel fills this before the packed launch.
    sq_cold: Option<BufId>,
    points: usize,
    dim: usize,
    /// Norms-kernel label ("a" or "b"), matching the unpacked pipeline.
    label: &'static str,
}

/// Resolves the slot for `(key, data)` and the norms buffer this
/// segment reads, uploading data/norms or allocating the cold norms
/// buffer on first use.
#[allow(clippy::too_many_arguments)]
fn corpus_slot(
    dev: &mut GpuDevice,
    slots: &mut Vec<CorpusSlot>,
    index: &mut HashMap<u64, usize>,
    key: Option<u64>,
    data: &[f32],
    norms: Option<&[f32]>,
    points: usize,
    dim: usize,
    label: &'static str,
) -> (usize, BufId) {
    let i = match key.and_then(|k| index.get(&k).copied()) {
        Some(i) => {
            assert_eq!(
                (slots[i].points, slots[i].dim),
                (points, dim),
                "segments sharing an upload key must share the padded corpus shape"
            );
            i
        }
        None => {
            let buf = dev.upload(data);
            let i = slots.len();
            slots.push(CorpusSlot {
                buf,
                sq_warm: None,
                sq_cold: None,
                points,
                dim,
                label,
            });
            if let Some(k) = key {
                index.insert(k, i);
            }
            i
        }
    };
    let slot = &mut slots[i];
    let sq = match norms {
        Some(nm) => {
            assert_eq!(nm.len(), points, "row norms must match the corpus rows");
            *slot.sq_warm.get_or_insert_with(|| dev.upload(nm))
        }
        None => *slot.sq_cold.get_or_insert_with(|| dev.alloc(points)),
    };
    (i, sq)
}

/// What a packed wave hands back: per-segment `M×R` column-major
/// results, the wave's single pipeline profile, and (when verified)
/// one report per segment.
pub type PackedWaveOutput = (Vec<Vec<f32>>, PipelineProfile, Option<Vec<VerifyReport>>);

/// Runs a horizontally-fused packed wave end to end on `dev`: one
/// norms pass per **unique** cold corpus slot (warm segments upload
/// their precomputed norms exactly as the unpacked plan-hit path
/// does, and never lend them to cold sharers — see
/// [`PackedSegmentSpec`]), then **one** packed fused launch over
/// every segment. Returns
/// each segment's `M×R` column-major result, the pipeline profile, and
/// (when `verify`) one [`VerifyReport`] per segment so a corrupted
/// launch degrades only the affected segments.
///
/// Results are bit-identical to running each segment through
/// [`crate::fused_multi::execute_fused_multi`] on its own: every
/// block executes the same body at the same local coordinates against
/// the same data, and segments write disjoint outputs.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults from any kernel.
///
/// # Panics
/// Panics on shape/geometry violations, buffer-length mismatches,
/// column counts outside `1..=MAX_WEIGHT_COLUMNS`, or segments that
/// share a dedup key but disagree on the padded corpus shape.
pub fn execute_fused_multi_packed_with(
    dev: &mut GpuDevice,
    geometry: &TileGeometry,
    segs: &[PackedSegmentSpec],
    verify: bool,
) -> Result<PackedWaveOutput, LaunchError> {
    assert!(!segs.is_empty(), "packed wave needs segments");
    let mut slots: Vec<CorpusSlot> = Vec::new();
    let mut a_index: HashMap<u64, usize> = HashMap::new();
    let mut b_index: HashMap<u64, usize> = HashMap::new();
    let mut kernels: Vec<FusedKernelSummation> = Vec::with_capacity(segs.len());
    let mut v_bufs = Vec::with_capacity(segs.len());
    let mut verify_bufs: Vec<VerifyBufs> = Vec::new();

    for seg in segs {
        seg.shape.validate_for(geometry);
        let (m, n, k) = (seg.shape.m, seg.shape.n, seg.shape.k);
        assert_eq!(seg.a.len(), m * k, "A must be M·K elements");
        assert_eq!(seg.b.len(), k * n, "B must be K·N elements");
        assert_eq!(
            seg.w_cols.len() % n,
            0,
            "W must be a whole number of columns"
        );
        let r = seg.w_cols.len() / n;
        let bw = Bandwidth { h: seg.h };
        let _ = bw.inv_2h2(); // validates h

        let (ai, a2_buf) = corpus_slot(
            dev,
            &mut slots,
            &mut a_index,
            seg.a_key,
            seg.a,
            seg.a2,
            m,
            k,
            "a",
        );
        let (bi, b2_buf) = corpus_slot(
            dev,
            &mut slots,
            &mut b_index,
            seg.b_key,
            seg.b,
            None,
            n,
            k,
            "b",
        );
        let ops = GemmOperands {
            a: slots[ai].buf,
            b: slots[bi].buf,
        };
        let w_buf = dev.upload(seg.w_cols);
        let v_buf = dev.alloc(m * r);
        v_bufs.push((v_buf, m, r));
        let mut kern =
            FusedKernelSummation::new_multi(ops, a2_buf, b2_buf, w_buf, v_buf, seg.shape, bw, r)
                .with_geometry(*geometry);
        if verify {
            let vb = VerifyBufs {
                checksum: dev.alloc(r * (m / geometry.block_m) * CHECKSUM_SLOT_WORDS),
                flag: dev.alloc(CHECKSUM_SLOT_WORDS),
            };
            verify_bufs.push(vb);
            kern = kern.with_verify(vb);
        }
        kernels.push(kern);
    }

    // One cold-cache point per packed wave — the whole point of the
    // fusion: segments sharing corpora hit L2 instead of re-reading
    // DRAM between back-to-back launches.
    dev.invalidate_l2();
    for &(v_buf, _, _) in &v_bufs {
        dev.memset_zero(v_buf);
    }
    for vb in &verify_bufs {
        dev.memset_zero(vb.checksum);
        dev.memset_zero(vb.flag);
    }

    let mut prof = PipelineProfile::new(if verify {
        FUSED_MULTI_PACKED_VERIFIED_PIPELINE
    } else {
        FUSED_MULTI_PACKED_PIPELINE
    });
    let launch_run = |dev: &mut GpuDevice,
                      kern: &dyn Kernel,
                      prof: &mut PipelineProfile|
     -> Result<(), LaunchError> {
        let mut kp = dev.launch(kern)?;
        dev.run(kern)?;
        kp.faults.merge(&dev.take_fault_counters());
        prof.kernels.push(kp);
        Ok(())
    };
    for slot in &slots {
        if let Some(sq) = slot.sq_cold {
            let norms = NormsKernel::new(slot.buf, sq, slot.points, slot.dim, slot.label);
            launch_run(dev, &norms, &mut prof)?;
        }
    }
    let packed = FusedMultiPacked::new(kernels);
    launch_run(dev, &packed, &mut prof)?;

    let mut outputs = Vec::with_capacity(v_bufs.len());
    for &(v_buf, _, _) in &v_bufs {
        outputs.push(dev.download(v_buf));
    }
    let reports = verify.then(|| {
        verify_bufs
            .iter()
            .zip(outputs.iter())
            .zip(v_bufs.iter())
            .map(|((vb, v), &(_, m, r))| {
                VerifyReport::from_outputs(
                    v,
                    &dev.download(vb.checksum),
                    &dev.download(vb.flag),
                    m,
                    r,
                    geometry.block_m,
                )
            })
            .collect::<Vec<_>>()
    });
    Ok((outputs, prof, reports))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused_multi::execute_fused_multi;

    fn lcg(seed: u64) -> impl FnMut() -> f32 {
        let mut state = seed | 1;
        move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            ((state >> 33) as f32 / (1u64 << 31) as f32) * 0.5
        }
    }

    struct SegData {
        shape: GemmShape,
        h: f32,
        a: Vec<f32>,
        b: Vec<f32>,
        w: Vec<f32>,
    }

    fn seg(shape: GemmShape, r: usize, h: f32, seed: u64) -> SegData {
        let mut next = lcg(seed);
        SegData {
            shape,
            h,
            a: (0..shape.m * shape.k).map(|_| next()).collect(),
            b: (0..shape.k * shape.n).map(|_| next()).collect(),
            w: (0..shape.n * r).map(|_| next()).collect(),
        }
    }

    fn spec(s: &SegData) -> PackedSegmentSpec<'_> {
        PackedSegmentSpec {
            shape: s.shape,
            h: s.h,
            a: &s.a,
            b: &s.b,
            w_cols: &s.w,
            a2: None,
            a_key: None,
            b_key: None,
        }
    }

    #[test]
    fn routing_table_partitions_and_routes_boundaries() {
        let t = RoutingTable::new(&[(2, 2), (1, 3), (2, 1)]);
        assert_eq!(t.total_blocks(), 9);
        assert_eq!(t.route(0), (0, Dim3::new_2d(0, 0)));
        assert_eq!(t.route(3), (0, Dim3::new_2d(1, 1)));
        assert_eq!(t.route(4), (1, Dim3::new_2d(0, 0)));
        assert_eq!(t.route(6), (1, Dim3::new_2d(0, 2)));
        assert_eq!(t.route(7), (2, Dim3::new_2d(0, 0)));
        assert_eq!(t.route(8), (2, Dim3::new_2d(1, 0)));
    }

    #[test]
    #[should_panic(expected = "outside packed grid")]
    fn routing_table_rejects_out_of_range_blocks() {
        let _ = RoutingTable::new(&[(2, 2)]).route(4);
    }

    /// The tentpole invariant: a heterogeneous packed wave (distinct
    /// shapes, bandwidths, and column counts) is bit-identical to
    /// serving each segment through the unpacked entry.
    #[test]
    fn packed_wave_is_bit_identical_to_unpacked_segments() {
        let geo = TileGeometry::paper_default();
        let segs = [
            seg(
                GemmShape {
                    m: 128,
                    n: 128,
                    k: 16,
                },
                1,
                1.0,
                11,
            ),
            seg(
                GemmShape {
                    m: 256,
                    n: 256,
                    k: 32,
                },
                2,
                0.7,
                12,
            ),
            seg(
                GemmShape {
                    m: 128,
                    n: 256,
                    k: 16,
                },
                3,
                1.3,
                13,
            ),
        ];
        let specs: Vec<_> = segs.iter().map(spec).collect();
        let mut dev = GpuDevice::gtx970();
        let (packed, prof, _) =
            execute_fused_multi_packed_with(&mut dev, &geo, &specs, false).unwrap();
        assert_eq!(prof.name, FUSED_MULTI_PACKED_PIPELINE);
        // 2 norms per segment (all cold, no shared keys) + 1 packed.
        assert_eq!(prof.kernels.len(), 2 * segs.len() + 1);
        for (i, s) in segs.iter().enumerate() {
            let mut solo = GpuDevice::gtx970();
            let (want, _, _) =
                execute_fused_multi(&mut solo, &geo, s.shape, s.h, &s.a, &s.b, &s.w, None, false)
                    .unwrap();
            assert_eq!(packed[i].len(), want.len());
            for (j, (g, x)) in packed[i].iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "seg {i} idx {j}: {g} vs {x}");
            }
        }
    }

    #[test]
    fn verified_packed_wave_matches_unpacked_and_reports_per_segment() {
        let geo = TileGeometry::paper_default();
        let segs = [
            seg(
                GemmShape {
                    m: 256,
                    n: 256,
                    k: 32,
                },
                2,
                1.0,
                21,
            ),
            seg(
                GemmShape {
                    m: 128,
                    n: 128,
                    k: 32,
                },
                1,
                0.9,
                22,
            ),
        ];
        let specs: Vec<_> = segs.iter().map(spec).collect();
        let mut dev = GpuDevice::gtx970();
        let (packed, prof, reports) =
            execute_fused_multi_packed_with(&mut dev, &geo, &specs, true).unwrap();
        assert_eq!(prof.name, FUSED_MULTI_PACKED_VERIFIED_PIPELINE);
        let reports = reports.expect("verified path builds reports");
        assert_eq!(reports.len(), segs.len());
        for (i, s) in segs.iter().enumerate() {
            assert!(
                !reports[i].corruption_detected(),
                "seg {i}: {:?}",
                reports[i]
            );
            let mut solo = GpuDevice::gtx970();
            let (want, _, rep) =
                execute_fused_multi(&mut solo, &geo, s.shape, s.h, &s.a, &s.b, &s.w, None, true)
                    .unwrap();
            assert!(!rep
                .expect("verified entry builds a report")
                .corruption_detected());
            for (j, (g, x)) in packed[i].iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "seg {i} idx {j}");
            }
        }
    }

    /// Plan-cache-aware packing: segments sharing a corpus key share
    /// one upload, cold sharers share one norms pass, and a warm
    /// sharer keeps its own uploaded norms (warmth never migrates:
    /// host norms are f64-accumulated, kernel norms f32, so lending
    /// them to a cold segment would move its bits).
    #[test]
    fn shared_corpus_segments_dedup_uploads_and_norms() {
        let geo = TileGeometry::paper_default();
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let base = seg(shape, 1, 1.0, 31);
        let other = seg(shape, 1, 1.0, 32);
        let a2: Vec<f32> = (0..shape.m)
            .map(|i| {
                base.a[i * shape.k..(i + 1) * shape.k]
                    .iter()
                    .map(|v| v * v)
                    .sum()
            })
            .collect();
        // Segments 0 and 2 share the corpus (key 7); 1 is unrelated.
        // Segment 2 arrives warm; segment 0 stays cold on the shared
        // slot, so both norms variants coexist.
        let specs = vec![
            PackedSegmentSpec {
                a_key: Some(7),
                ..spec(&base)
            },
            spec(&other),
            PackedSegmentSpec {
                a_key: Some(7),
                a2: Some(&a2),
                b: &other.b,
                w_cols: &other.w,
                ..spec(&base)
            },
        ];
        let mut dev = GpuDevice::gtx970();
        let (packed, prof, _) =
            execute_fused_multi_packed_with(&mut dev, &geo, &specs, false).unwrap();
        // Norms: the shared A slot runs one cold pass for segment 0
        // (segment 2's warm upload does not serve it), segment 1's A
        // runs its own, and the three distinct B slots (no b_key) run
        // one each: 5 norms + 1 packed.
        let names: Vec<&str> = prof.kernels.iter().map(|k| k.name.as_str()).collect();
        assert_eq!(prof.kernels.len(), 6, "{names:?}");
        for (i, (s, my_b, my_w, my_a2)) in [
            (&base, &base.b, &base.w, None),
            (&other, &other.b, &other.w, None),
            (&base, &other.b, &other.w, Some(a2.as_slice())),
        ]
        .iter()
        .enumerate()
        {
            let mut solo = GpuDevice::gtx970();
            let (want, _, _) = execute_fused_multi(
                &mut solo, &geo, s.shape, s.h, &s.a, my_b, my_w, *my_a2, false,
            )
            .unwrap();
            for (j, (g, x)) in packed[i].iter().zip(want.iter()).enumerate() {
                assert_eq!(g.to_bits(), x.to_bits(), "seg {i} idx {j}");
            }
        }
    }

    /// The perf claim at the launch level: 16 small heterogeneous
    /// queries packed into one launch beat 16 back-to-back launches on
    /// simulated time, and corpus sharing saves DRAM transactions.
    #[test]
    fn packed_wave_beats_back_to_back_small_launches() {
        let geo = TileGeometry::paper_default();
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        // 4 distinct corpora × 4 target sets = 16 queries.
        let corpora: Vec<SegData> = (0..4).map(|i| seg(shape, 1, 1.0, 41 + i)).collect();
        let targets: Vec<SegData> = (0..4).map(|i| seg(shape, 1, 1.0, 51 + i)).collect();
        let mut specs = Vec::new();
        for (ci, c) in corpora.iter().enumerate() {
            for (ti, t) in targets.iter().enumerate() {
                specs.push(PackedSegmentSpec {
                    a_key: Some(ci as u64),
                    b_key: Some(1000 + ti as u64),
                    b: &t.b,
                    w_cols: &t.w,
                    ..spec(c)
                });
            }
        }
        let mut dev = GpuDevice::gtx970();
        let (_, packed_prof, _) =
            execute_fused_multi_packed_with(&mut dev, &geo, &specs, false).unwrap();
        let packed_time: f64 = packed_prof.kernels.iter().map(|k| k.timing.time_s).sum();
        let packed_dram: u64 = packed_prof
            .kernels
            .iter()
            .map(|k| k.mem.dram_transactions())
            .sum();

        let mut solo_time = 0.0f64;
        let mut solo_dram = 0u64;
        for sp in &specs {
            let mut solo = GpuDevice::gtx970();
            let (_, p, _) = execute_fused_multi(
                &mut solo, &geo, sp.shape, sp.h, sp.a, sp.b, sp.w_cols, None, false,
            )
            .unwrap();
            solo_time += p.kernels.iter().map(|k| k.timing.time_s).sum::<f64>();
            solo_dram += p
                .kernels
                .iter()
                .map(|k| k.mem.dram_transactions())
                .sum::<u64>();
        }
        assert!(
            solo_time >= 2.0 * packed_time,
            "packed wave must be ≥2× faster: packed {packed_time}s vs solo {solo_time}s"
        );
        assert!(
            packed_dram < solo_dram,
            "corpus sharing must save DRAM: packed {packed_dram} vs solo {solo_dram}"
        );
    }
}
