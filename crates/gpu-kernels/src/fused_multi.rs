//! Multi-weight fused kernel summation (extension experiment).
//!
//! Kernel regression evaluates `V = K·W` for several weight columns at
//! once. The fused structure extends naturally: each Gaussian value is
//! computed **once** in registers and folded into `R` per-column
//! accumulators — the incremental cost is `micro_m·micro_n·(R−1)`
//! FFMAs per thread against the GEMM's own FFMA stream.
//!
//! The catch is the paper's §III-A register economy: each extra column
//! costs ~`2·micro_n` registers per thread (`micro_n` accumulator
//! partials + `micro_n` staged weights), so at the paper geometry
//! `R = 2` pushes the kernel past the 128-register line where
//! occupancy halves to **one block per SM**. Whether reuse beats
//! occupancy is exactly the kind of question the simulator answers —
//! the alternative (running the single-weight kernel `R` times) redoes
//! the entire GEMM per column. See the `multi_weight` rows of the
//! ablation bench and this module's tests.
//!
//! Layouts: `W` is `N×R` **column-major** (each weight column
//! contiguous), `V` is `M×R` column-major (each output column receives
//! coalesced atomics).

use ks_gpu_sim::access::{
    affine_lanes, masked_lanes, AccessSpec, BarrierSpec, GlobalPattern, SharedPattern,
};
use ks_gpu_sim::buffer::{BufId, GlobalMem};
use ks_gpu_sim::config::DeviceConfig;
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::dim::{Dim3, LaunchConfig};
use ks_gpu_sim::exec::BlockCtx;
use ks_gpu_sim::kernel::VecWidth;
use ks_gpu_sim::kernel::{
    AnalysisBudget, BlockClass, BufferUse, ExecModel, Kernel, KernelResources, LaunchError,
    TimingHints,
};
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::trace::AccessDir;
use ks_gpu_sim::traffic::{TrafficSink, WarpIdx};

use ks_gpu_sim::smem::flip_bit;

use crate::aux_kernels::{gaussian, Bandwidth, NormsKernel};
use crate::fused::{VerifyBufs, VerifyReport, CHECKSUM_SLOT_WORDS};
use crate::gemm_engine::{
    gemm_access_spec, gemm_block, gemm_block_verified, syncs_per_block, AccGrid, GemmOperands,
    GemmShape, SmemMap, MAX_MICRO,
};
use crate::geometry::TileGeometry;
use crate::layout::SmemLayout;
use crate::machine::{FunctionalMachine, TrafficMachine, WarpMachine};
use crate::native::{self, Drain, FusedJob};

/// Maximum weight columns: the `T` scratch (which reuses an idle GEMM
/// A-tile buffer of `block_m·tile_k` words) holds `block_m·R`
/// partials, so `R ≤ tile_k`; the paper geometry's rank-8 tiles give
/// this serving-batch ceiling.
pub const MAX_WEIGHT_COLUMNS: usize = 8;

/// The multi-weight fused kernel (see module docs).
///
/// Fields are `pub(crate)` so the horizontally-fused packed kernel
/// ([`crate::fused_multi_packed`]) can reuse this kernel's block body
/// and per-block metadata as its segment descriptor.
pub struct FusedMultiWeight {
    pub(crate) ops: GemmOperands,
    pub(crate) a2: BufId,
    pub(crate) b2: BufId,
    /// `N×R` column-major weights.
    pub(crate) w: BufId,
    /// `M×R` column-major output (must be zeroed before launch).
    pub(crate) v: BufId,
    pub(crate) shape: GemmShape,
    pub(crate) bw: Bandwidth,
    pub(crate) geometry: TileGeometry,
    pub(crate) r: usize,
    pub(crate) verify: Option<VerifyBufs>,
}

impl FusedMultiWeight {
    /// Creates the kernel with `r` weight columns at the paper-default
    /// geometry.
    ///
    /// # Panics
    /// Panics if the shape violates the tiling constraints or
    /// `r ∉ 1..=MAX_WEIGHT_COLUMNS`.
    #[must_use]
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        ops: GemmOperands,
        a2: BufId,
        b2: BufId,
        w: BufId,
        v: BufId,
        shape: GemmShape,
        bw: Bandwidth,
        r: usize,
    ) -> Self {
        shape.validate();
        assert!(
            (1..=MAX_WEIGHT_COLUMNS).contains(&r),
            "weight columns {r} out of range 1..={MAX_WEIGHT_COLUMNS}"
        );
        Self {
            ops,
            a2,
            b2,
            w,
            v,
            shape,
            bw,
            geometry: TileGeometry::paper_default(),
            r,
            verify: None,
        }
    }

    /// Selects the tile geometry. The shape must divide it, and the
    /// column count must fit its `T` scratch (`r ≤ tile_k`).
    ///
    /// # Panics
    /// Panics if the shape violates the geometry's tiling constraints
    /// or `r > geometry.tile_k`.
    #[must_use]
    pub fn with_geometry(mut self, geometry: TileGeometry) -> Self {
        self.shape.validate_for(&geometry);
        assert!(
            self.r <= geometry.tile_k,
            "{} weight columns exceed the T scratch of {geometry} (tile_k {})",
            self.r,
            geometry.tile_k
        );
        self.geometry = geometry;
        self
    }

    /// The kernel's tile geometry.
    #[must_use]
    pub fn geometry(&self) -> &TileGeometry {
        &self.geometry
    }

    /// Enables ABFT verification (see [`crate::fused`]). The checksum
    /// buffer must hold `R·(M/block_m)·CHECKSUM_SLOT_WORDS` zeroed
    /// words (slot `(c·(M/block_m) + by)·CHECKSUM_SLOT_WORDS` for
    /// column `c`, row group `by`) and the flag buffer
    /// `CHECKSUM_SLOT_WORDS` zeroed words.
    #[must_use]
    pub fn with_verify(mut self, bufs: VerifyBufs) -> Self {
        self.verify = Some(bufs);
        self
    }

    /// Registers per thread as a function of the column count at the
    /// paper geometry: the single-weight kernel's 128 plus ~16 per
    /// extra column.
    #[must_use]
    pub fn regs_per_thread(r: usize) -> u32 {
        TileGeometry::paper_default().regs_per_thread_multi(r)
    }

    /// This launch as a job of the block-native executor.
    pub(crate) fn native_job(&self) -> FusedJob {
        FusedJob {
            ops: self.ops,
            a2: self.a2,
            b2: self.b2,
            w: self.w,
            shape: self.shape,
            geometry: self.geometry,
            inv_2h2: self.bw.inv_2h2(),
            r: self.r,
            drain: Drain::Atomic(self.v),
        }
    }

    pub(crate) fn body<M: WarpMachine>(&self, block: Dim3, mach: &mut M) {
        let (bx, by) = (block.x as usize, block.y as usize);
        let s = self.bw.inv_2h2();
        let geo = &self.geometry;
        let warps = geo.warps_per_block();
        let (mm, mn) = (geo.micro_m, geo.micro_n);
        let txn = geo.threads_x();
        let rpw = geo.rows_per_warp();
        let threads = geo.threads_per_block();
        let r = self.r;
        let (n, m) = (self.shape.n, self.shape.m);

        // --- GEMM phase -------------------------------------------------
        let mut acc = if M::FUNCTIONAL {
            AccGrid::for_geometry(geo)
        } else {
            AccGrid::empty(geo)
        };
        let mut corrupt = if self.verify.is_some() {
            gemm_block_verified(
                mach,
                geo,
                &self.ops,
                &self.shape,
                SmemLayout::Swizzled,
                bx,
                by,
                &mut acc,
            )
        } else {
            gemm_block(
                mach,
                geo,
                &self.ops,
                &self.shape,
                SmemLayout::Swizzled,
                bx,
                by,
                &mut acc,
            );
            false
        };

        // Register upsets land on the γ partials (data only; see the
        // single-weight kernel).
        let mut reg_flips: Vec<(usize, usize, usize, u8)> = Vec::new();
        if M::FUNCTIONAL {
            let span = (threads * mm * r) as u64;
            for (pick, bit) in mach.accumulator_faults() {
                let elem = (pick % span) as usize;
                let tid = elem / (mm * r);
                let rest = elem % (mm * r);
                reg_flips.push((tid, rest / mm, rest % mm, bit));
            }
        }

        // --- Evaluation + per-column intra-thread fold -------------------
        // T reuses the A tile buffer the final `compute_ktile` is NOT
        // still reading in this epoch (see `fused.rs`): that compute
        // reads `a[(tiles−1) % 2]`, so T parks in `a[tiles % 2]`.
        let tiles = geo.tiles(self.shape.k);
        let t_off = SmemMap::for_geometry(geo).a[tiles % 2];
        // gamma[(tid·r + col)·micro_m + row]
        let mut gamma = vec![0.0f32; if M::FUNCTIONAL { threads * mm * r } else { 0 }];
        let mut gamma_clean_xor = 0u32;
        let mut gamma_parked_xor = 0u32;
        let mut t_store_xor = 0u32;
        let (cm, cn) = (mm / 4, mn / 4);
        for wp in 0..warps {
            mach.begin_warp(wp as u32);
            mach.alu(2);
            let row0 = |lane: usize| (rpw * wp + lane / txn) * mm;
            let col0 = |lane: usize| (lane % txn) * mn;
            let mut a2_chunks = vec![[[0.0f32; 4]; 32]; cm];
            for (chunk, dst) in a2_chunks.iter_mut().enumerate() {
                let idx: WarpIdx =
                    std::array::from_fn(|lane| Some(by * geo.block_m + row0(lane) + 4 * chunk));
                let v = mach.ld_global(self.a2, &idx, VecWidth::V4);
                if M::FUNCTIONAL {
                    *dst = v;
                }
            }
            let mut b2_chunks = vec![[[0.0f32; 4]; 32]; cn];
            for (chunk, dst) in b2_chunks.iter_mut().enumerate() {
                let idx: WarpIdx =
                    std::array::from_fn(|lane| Some(bx * geo.block_n + col0(lane) + 4 * chunk));
                let v = mach.ld_global(self.b2, &idx, VecWidth::V4);
                if M::FUNCTIONAL {
                    *dst = v;
                }
            }
            // Stage all R weight slices (column-major: column c at
            // offset c·N).
            let mut w_chunks = vec![vec![[[0.0f32; 4]; 32]; cn]; r];
            for (c, col_chunks) in w_chunks.iter_mut().enumerate() {
                for (chunk, dst) in col_chunks.iter_mut().enumerate() {
                    let idx: WarpIdx = std::array::from_fn(|lane| {
                        Some(c * n + bx * geo.block_n + col0(lane) + 4 * chunk)
                    });
                    let v = mach.ld_global(self.w, &idx, VecWidth::V4);
                    if M::FUNCTIONAL {
                        *dst = v;
                    }
                }
            }

            // Evaluation once; fold R times.
            let elems = (mm * mn) as u64;
            mach.falu(elems);
            mach.ffma(2 * elems);
            mach.sfu(elems);
            mach.ffma(elems * r as u64);
            if M::FUNCTIONAL {
                for lane in 0..32 {
                    let tid = wp * 32 + lane;
                    let a2row: [f32; MAX_MICRO] = std::array::from_fn(|i| {
                        if i < mm {
                            a2_chunks[i / 4][lane][i % 4]
                        } else {
                            0.0
                        }
                    });
                    let b2col: [f32; MAX_MICRO] = std::array::from_fn(|c| {
                        if c < mn {
                            b2_chunks[c / 4][lane][c % 4]
                        } else {
                            0.0
                        }
                    });
                    for row in 0..mm {
                        for cc in 0..mn {
                            let d = a2row[row] + b2col[cc] - 2.0 * acc.at(tid, row, cc);
                            let kv = gaussian(d, s);
                            for c in 0..r {
                                let wv = w_chunks[c][cc / 4][lane][cc % 4];
                                gamma[(tid * r + c) * mm + row] += kv * wv;
                            }
                        }
                    }
                }
            }

            if self.verify.is_some() {
                // DMR on the R folds (see the single-weight kernel).
                mach.ffma(elems * r as u64);
                mach.falu(mm as u64);
                if M::FUNCTIONAL {
                    for lane in 0..32 {
                        let tid = wp * 32 + lane;
                        for g in &gamma[tid * r * mm..(tid + 1) * r * mm] {
                            gamma_clean_xor ^= g.to_bits();
                        }
                    }
                }
            }
            if M::FUNCTIONAL {
                for &(tid, col, row, bit) in reg_flips.iter().filter(|f| f.0 / 32 == wp) {
                    let idx = (tid * r + col) * mm + row;
                    gamma[idx] = flip_bit(gamma[idx], bit);
                }
                if self.verify.is_some() {
                    for lane in 0..32 {
                        let tid = wp * 32 + lane;
                        for g in &gamma[tid * r * mm..(tid + 1) * r * mm] {
                            gamma_parked_xor ^= g.to_bits();
                        }
                    }
                }
            }

            // Intra-block shuffle reduction per column.
            let shuffle_ops = (txn.trailing_zeros() as u64) * (mm * r) as u64;
            mach.alu(shuffle_ops);
            mach.falu(shuffle_ops);
            // T scratch: column c parks at word offset t_off + c·block_m.
            for c in 0..r {
                let t_base: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    (lane % txn == 0).then_some(t_off + (c * geo.block_m + row0(lane)) as u32)
                });
                for row in 0..mm {
                    let words: [Option<u32>; 32] =
                        std::array::from_fn(|lane| t_base[lane].map(|b| b + row as u32));
                    let mut vals = [[0.0f32; 4]; 32];
                    if M::FUNCTIONAL {
                        for h in 0..rpw {
                            let mut sum = 0.0f32;
                            for tx in 0..txn {
                                let tid = wp * 32 + h * txn + tx;
                                sum += gamma[(tid * r + c) * mm + row];
                            }
                            vals[h * txn][0] = sum;
                            if self.verify.is_some() {
                                t_store_xor ^= sum.to_bits();
                            }
                        }
                    }
                    mach.st_shared(&words, VecWidth::V1, &vals);
                }
            }
        }
        mach.syncthreads(warps as u64);

        // --- Atomic drain, one coalesced pass per column -----------------
        let mut t_drain_xor = 0u32;
        let mut sigma = [0.0f32; MAX_WEIGHT_COLUMNS];
        for p in 0..geo.drain_phases() {
            mach.begin_warp((p % warps) as u32);
            for c in 0..r {
                let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    Some(t_off + (c * geo.block_m + p * 32 + lane) as u32)
                });
                let t_vals = mach.ld_shared(&words, VecWidth::V1);
                let vidx: WarpIdx =
                    std::array::from_fn(|lane| Some(c * m + by * geo.block_m + p * 32 + lane));
                let lane_vals: [f32; 32] = std::array::from_fn(|lane| t_vals[lane][0]);
                if M::FUNCTIONAL && self.verify.is_some() {
                    for v in &lane_vals {
                        t_drain_xor ^= v.to_bits();
                        sigma[c] += v;
                    }
                }
                mach.atomic_add(self.v, &vidx, &lane_vals);
            }
        }

        // --- ABFT epilogue (see the single-weight kernel) ----------------
        if let Some(vb) = self.verify {
            corrupt |= gamma_clean_xor != gamma_parked_xor;
            corrupt |= t_store_xor != t_drain_xor;
            let gy = m / geo.block_m;
            mach.begin_warp(0);
            mach.falu(2);
            // One atomic with R active lanes: lane c updates the slot
            // of (column c, row group by) — distinct sectors.
            let cidx: WarpIdx = std::array::from_fn(|lane| {
                (lane < r).then_some((lane * gy + by) * CHECKSUM_SLOT_WORDS)
            });
            let mut cvals = [0.0f32; 32];
            cvals[..r].copy_from_slice(&sigma[..r]);
            mach.atomic_add(vb.checksum, &cidx, &cvals);
            let fidx: WarpIdx = std::array::from_fn(|lane| (lane == 0).then_some(0));
            let mut fvals = [0.0f32; 32];
            fvals[0] = if corrupt { 1.0 } else { 0.0 };
            mach.atomic_add(vb.flag, &fidx, &fvals);
        }
    }
}

impl Kernel for FusedMultiWeight {
    fn name(&self) -> String {
        let tag = if self.verify.is_some() { "_abft" } else { "" };
        let gtag = if self.geometry == TileGeometry::paper_default() {
            String::new()
        } else {
            let g = &self.geometry;
            format!(
                "_g{}x{}u{}x{}k{}d{}",
                g.block_m, g.block_n, g.micro_m, g.micro_n, g.tile_k, g.double_buffer_depth
            )
        };
        format!(
            "fused_multiw{}{tag}{gtag}_{}x{}x{}",
            self.r, self.shape.m, self.shape.n, self.shape.k
        )
    }

    fn launch_config(&self) -> LaunchConfig {
        let (gx, gy) = self.shape.grid_for(&self.geometry);
        LaunchConfig::new(
            Dim3::new_2d(gx, gy),
            Dim3::new_2d(
                self.geometry.threads_x() as u32,
                self.geometry.threads_y() as u32,
            ),
        )
    }

    fn resources(&self) -> KernelResources {
        KernelResources {
            threads_per_block: self.geometry.threads_per_block() as u32,
            regs_per_thread: self.geometry.regs_per_thread_multi(self.r).min(255),
            smem_bytes_per_block: SmemMap::for_geometry(&self.geometry).bytes(),
        }
    }

    fn timing_hints(&self) -> TimingHints {
        TimingHints {
            exec_model: ExecModel::CudaC,
            mlp: if self.geometry.double_buffer_depth == 2 {
                8.0
            } else {
                3.0
            },
        }
    }

    fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
        self.body(block, &mut FunctionalMachine::new(ctx));
    }

    fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
        self.body(block, &mut TrafficMachine::new(sink));
    }

    fn execute_native(&self, mem: &GlobalMem) -> bool {
        if self.verify.is_some() {
            return false;
        }
        native::run(mem, &[self.native_job()]);
        true
    }

    fn traffic_homogeneous(&self) -> bool {
        true
    }

    fn access_spec(&self) -> Option<AccessSpec> {
        let geo = &self.geometry;
        let (mm, mn) = (geo.micro_m, geo.micro_n);
        let txn = geo.threads_x();
        let rpw = geo.rows_per_warp();
        let warps = geo.warps_per_block();
        let mut spec = AccessSpec::default();
        gemm_access_spec(
            &mut spec,
            geo,
            &self.ops,
            &self.shape,
            SmemLayout::Swizzled,
            self.verify.is_some(),
        );
        let (n, m, r) = (self.shape.n, self.shape.m, self.r);
        let tiles = geo.tiles(self.shape.k);
        let t_off = SmemMap::for_geometry(geo).a[tiles % 2];
        let (cm, cn) = (mm / 4, mn / 4);
        for wp in 0..warps {
            let row = |lane: usize| ((rpw * wp + lane / txn) * mm) as i64;
            let col = |lane: usize| ((lane % txn) * mn) as i64;
            for chunk in 0..cm {
                spec.global.push(
                    GlobalPattern::new(
                        self.a2,
                        "a2",
                        AccessDir::Read,
                        VecWidth::V4,
                        affine_lanes(|lane| row(lane) + 4 * chunk as i64),
                    )
                    .with_by(geo.block_m as i64),
                );
            }
            for chunk in 0..cn {
                spec.global.push(
                    GlobalPattern::new(
                        self.b2,
                        "b2",
                        AccessDir::Read,
                        VecWidth::V4,
                        affine_lanes(|lane| col(lane) + 4 * chunk as i64),
                    )
                    .with_bx(geo.block_n as i64),
                );
            }
            // Column-major weight slices: column c at offset c·N.
            for c in 0..r {
                for chunk in 0..cn {
                    spec.global.push(
                        GlobalPattern::new(
                            self.w,
                            "w",
                            AccessDir::Read,
                            VecWidth::V4,
                            affine_lanes(|lane| (c * n) as i64 + col(lane) + 4 * chunk as i64),
                        )
                        .with_bx(geo.block_n as i64),
                    );
                }
            }
            for c in 0..r {
                for row_w in 0..mm {
                    let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                        (lane % txn == 0).then_some(
                            t_off + (c * geo.block_m) as u32 + row(lane) as u32 + row_w as u32,
                        )
                    });
                    spec.shared
                        .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Write));
                }
            }
        }
        for p in 0..geo.drain_phases() {
            for c in 0..r {
                let words: [Option<u32>; 32] = std::array::from_fn(|lane| {
                    Some(t_off + (c * geo.block_m + p * 32 + lane) as u32)
                });
                spec.shared
                    .push(SharedPattern::new(words, VecWidth::V1, AccessDir::Read));
                spec.global.push(
                    GlobalPattern::new(
                        self.v,
                        "v",
                        AccessDir::Atomic,
                        VecWidth::V1,
                        affine_lanes(|lane| (c * m + p * 32 + lane) as i64),
                    )
                    .with_by(geo.block_m as i64),
                );
            }
        }
        if let Some(vb) = self.verify {
            let gy = m / geo.block_m;
            spec.global.push(
                GlobalPattern::new(
                    vb.checksum,
                    "chk",
                    AccessDir::Atomic,
                    VecWidth::V1,
                    masked_lanes(|lane| {
                        (lane < r).then_some((lane * gy * CHECKSUM_SLOT_WORDS) as i64)
                    }),
                )
                .with_by(CHECKSUM_SLOT_WORDS as i64),
            );
            spec.global.push(GlobalPattern::new(
                vb.flag,
                "flag",
                AccessDir::Atomic,
                VecWidth::V1,
                masked_lanes(|lane| (lane == 0).then_some(0)),
            ));
        }
        spec.barriers = Some(BarrierSpec {
            count: syncs_per_block(geo, self.shape.k) + 1,
            warps: warps as u64,
        });
        Some(spec)
    }

    fn block_class(&self, block: Dim3) -> Option<BlockClass> {
        // Same affine structure as the single-weight kernel: the
        // column-major weight reads (c·n + bx·block_n + …) and atomic
        // drains (c·m + by·block_m + …) shift with bx·block_n /
        // by·block_m; the c·n / c·m column offsets are
        // block-independent.
        let (bx, by) = (block.x as usize, block.y as usize);
        let geo = &self.geometry;
        let mut anchors = vec![
            (self.ops.a, by * geo.block_m * self.shape.k),
            (self.ops.b, bx * geo.block_n * self.shape.k),
            (self.a2, by * geo.block_m),
            (self.b2, bx * geo.block_n),
            (self.w, bx * geo.block_n),
            (self.v, by * geo.block_m),
        ];
        if let Some(vb) = self.verify {
            // Checksum slots shift by one sector-aligned slot per row
            // group (the c·gy·8 column offsets are block-invariant,
            // like the w/v column offsets above); the flag never moves.
            anchors.push((vb.checksum, by * CHECKSUM_SLOT_WORDS));
            anchors.push((vb.flag, 0));
        }
        Some(BlockClass { key: 0, anchors })
    }

    fn analysis_budget(&self) -> AnalysisBudget {
        let (m, n, k) = (self.shape.m, self.shape.n, self.shape.k);
        let mut extra = Vec::new();
        if let Some(vb) = self.verify {
            extra.push(BufferUse {
                buf: vb.checksum,
                len: self.r * (m / self.geometry.block_m) * CHECKSUM_SLOT_WORDS,
                writes: true,
                label: "chk",
            });
            extra.push(BufferUse {
                buf: vb.flag,
                len: CHECKSUM_SLOT_WORDS,
                writes: true,
                label: "flag",
            });
        }
        // §III-A register economy, computed from the geometry: at the
        // paper point R ≥ 2 exceeds 128 regs/thread and halves
        // occupancy to one block per SM.
        let occ = ks_gpu_sim::occupancy::occupancy(&DeviceConfig::gtx970(), &self.resources());
        AnalysisBudget {
            smem_conflict_budget: 0,
            expected_blocks_per_sm: Some(occ.blocks_per_sm),
            expected_limiter: Some(occ.limiter),
            buffers: vec![
                BufferUse {
                    buf: self.ops.a,
                    len: m * k,
                    writes: false,
                    label: "a",
                },
                BufferUse {
                    buf: self.ops.b,
                    len: k * n,
                    writes: false,
                    label: "b",
                },
                BufferUse {
                    buf: self.a2,
                    len: m,
                    writes: false,
                    label: "a2",
                },
                BufferUse {
                    buf: self.b2,
                    len: n,
                    writes: false,
                    label: "b2",
                },
                BufferUse {
                    buf: self.w,
                    len: n * self.r,
                    writes: false,
                    label: "w",
                },
                BufferUse {
                    buf: self.v,
                    len: m * self.r,
                    writes: true,
                    label: "v",
                },
            ]
            .into_iter()
            .chain(extra)
            .collect(),
        }
    }
}

/// Label under which served batches appear in profiles and metrics.
pub const FUSED_MULTI_PIPELINE: &str = "Fused-Multi";

/// Pipeline label of the ABFT-verified serving path.
pub const FUSED_MULTI_VERIFIED_PIPELINE: &str = "Fused-Multi-ABFT";

/// Batched serving entry: runs the multi-weight pipeline end to end on
/// `dev` — `norms(B)`, `norms(A)` **unless** precomputed row norms are
/// supplied (the plan-cache hit path uploads them instead of
/// relaunching the kernel), then the fused multi-weight kernel — and
/// returns the `M×R` column-major result plus the pipeline profile.
///
/// `w_cols` is `N×R` column-major (column `c` of query `c` contiguous
/// at offset `c·N`); the result places query `c` at `c·M..c·M+M`.
///
/// # Errors
/// Propagates launch-validation failures from any kernel.
///
/// # Panics
/// Panics if the shape violates the tiling constraints, buffer
/// lengths disagree with the shape, `w_cols` is not a whole number of
/// columns, or the column count is outside `1..=MAX_WEIGHT_COLUMNS`.
pub fn execute_fused_multi(
    dev: &mut GpuDevice,
    shape: GemmShape,
    h: f32,
    a: &[f32],
    b: &[f32],
    w_cols: &[f32],
    a2: Option<&[f32]>,
) -> Result<(Vec<f32>, PipelineProfile), LaunchError> {
    execute_fused_multi_with(
        dev,
        &TileGeometry::paper_default(),
        shape,
        h,
        a,
        b,
        w_cols,
        a2,
    )
}

/// [`execute_fused_multi`] at an explicit tile geometry (the tuned
/// serving path).
///
/// # Errors
/// Propagates launch-validation failures from any kernel.
///
/// # Panics
/// As [`execute_fused_multi`]; additionally if the shape does not
/// divide `geometry` or the column count exceeds its `tile_k`.
#[allow(clippy::too_many_arguments)]
pub fn execute_fused_multi_with(
    dev: &mut GpuDevice,
    geometry: &TileGeometry,
    shape: GemmShape,
    h: f32,
    a: &[f32],
    b: &[f32],
    w_cols: &[f32],
    a2: Option<&[f32]>,
) -> Result<(Vec<f32>, PipelineProfile), LaunchError> {
    let (v, prof, _) = execute_fused_multi_inner(dev, geometry, shape, h, a, b, w_cols, a2, false)?;
    Ok((v, prof))
}

/// [`execute_fused_multi`] with ABFT verification enabled: the fused
/// kernel runs in its checksum-augmented variant and the host compares
/// the per-row-group checksum column against `V` before returning.
/// The returned [`VerifyReport`] says whether any corruption was
/// detected; the result vector must not be used when it was.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults from any kernel.
///
/// # Panics
/// As [`execute_fused_multi`].
pub fn execute_fused_multi_verified(
    dev: &mut GpuDevice,
    shape: GemmShape,
    h: f32,
    a: &[f32],
    b: &[f32],
    w_cols: &[f32],
    a2: Option<&[f32]>,
) -> Result<(Vec<f32>, PipelineProfile, VerifyReport), LaunchError> {
    execute_fused_multi_verified_with(
        dev,
        &TileGeometry::paper_default(),
        shape,
        h,
        a,
        b,
        w_cols,
        a2,
    )
}

/// [`execute_fused_multi_verified`] at an explicit tile geometry.
///
/// # Errors
/// Propagates launch-validation failures and injected launch-level
/// faults from any kernel.
///
/// # Panics
/// As [`execute_fused_multi_with`].
#[allow(clippy::too_many_arguments)]
pub fn execute_fused_multi_verified_with(
    dev: &mut GpuDevice,
    geometry: &TileGeometry,
    shape: GemmShape,
    h: f32,
    a: &[f32],
    b: &[f32],
    w_cols: &[f32],
    a2: Option<&[f32]>,
) -> Result<(Vec<f32>, PipelineProfile, VerifyReport), LaunchError> {
    let (v, prof, report) =
        execute_fused_multi_inner(dev, geometry, shape, h, a, b, w_cols, a2, true)?;
    Ok((
        v,
        prof,
        report.expect("verified path always builds a report"),
    ))
}

#[allow(clippy::too_many_arguments)]
fn execute_fused_multi_inner(
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
    let mut fused = FusedMultiWeight::new(ops, a2_buf, b2_buf, w_buf, v_buf, shape, bw, r)
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
    use ks_gpu_sim::GpuDevice;

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
            let kern = FusedMultiWeight::new(ops, a2, b2, w, v, s.shape, s.bw, r);
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
    fn r1_matches_the_single_weight_kernel() {
        let mut s = setup(
            GemmShape {
                m: 128,
                n: 128,
                k: 16,
            },
            1,
            21,
        );
        let (ops, a2, b2, w, v) = s.kern_inputs;
        s.dev
            .run(&FusedMultiWeight::new(ops, a2, b2, w, v, s.shape, s.bw, 1))
            .unwrap();
        let multi = s.dev.download(v);
        let v2 = s.dev.alloc(s.shape.m);
        s.dev
            .run(&crate::fused::FusedKernelSummation::new(
                ops, a2, b2, w, v2, s.shape, s.bw,
            ))
            .unwrap();
        let single = s.dev.download(v2);
        for (a, b) in multi.iter().zip(single.iter()) {
            assert!((a - b).abs() < 1e-4 * a.abs().max(1.0), "{a} vs {b}");
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
            &FusedMultiWeight::new(ops, ba2, bb2, bw_buf, bv, shape, s.bw, r).with_geometry(geo),
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
            .launch(&FusedMultiWeight::new(ops, a2, b2, w, v, s.shape, s.bw, 2))
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
                .launch(&FusedMultiWeight::new(
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
                .launch(&crate::fused::FusedKernelSummation::new(
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
        let (got, prof) =
            execute_fused_multi(&mut dev, shape, 1.0, &s.a, &s.b, &s.w, None).unwrap();
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
        let (v_cold, p_cold) =
            execute_fused_multi(&mut d_cold, shape, 1.0, &s.a, &s.b, &s.w, None).unwrap();
        let mut d_hit = small_l2();
        let (v_hit, p_hit) =
            execute_fused_multi(&mut d_hit, shape, 1.0, &s.a, &s.b, &s.w, Some(&a2)).unwrap();
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
        let (plain, _) = execute_fused_multi(&mut d1, shape, 1.0, &s.a, &s.b, &s.w, None).unwrap();
        let mut d2 = GpuDevice::gtx970();
        let (got, prof, report) =
            execute_fused_multi_verified(&mut d2, shape, 1.0, &s.a, &s.b, &s.w, None).unwrap();
        assert_eq!(prof.name, FUSED_MULTI_VERIFIED_PIPELINE);
        assert_eq!(prof.kernels.len(), 3);
        assert!(
            prof.kernels[2].name.contains("_abft"),
            "{}",
            prof.kernels[2].name
        );
        assert!(!report.corruption_detected(), "{report:?}");
        assert_eq!(report.checksum_groups, 3 * (shape.m / 128));
        for (g, p) in got.iter().zip(plain.iter()) {
            assert!((g - p).abs() < 1e-4 * p.abs().max(1.0), "{g} vs {p}");
        }
    }

    /// In-flight fault sweep over the batched verified entry. With
    /// `n = 256` only two blocks atomically fold into each `V` row, so
    /// the parallel `run` stays bit-deterministic (two-operand float
    /// addition is commutative) and the baseline comparison is exact.
    #[test]
    fn verified_entry_flags_injected_faults() {
        let shape = GemmShape {
            m: 256,
            n: 256,
            k: 32,
        };
        let s = setup(shape, 2, 93);
        let mut clean = GpuDevice::gtx970();
        let (base, _, clean_report) =
            execute_fused_multi_verified(&mut clean, shape, 1.0, &s.a, &s.b, &s.w, None).unwrap();
        assert!(!clean_report.corruption_detected());

        let mut corrupted = 0u32;
        let mut injected_total = 0u64;
        for seed in 0..10u64 {
            let mut dev = faulty_device("smem=3,reg=2", seed);
            let (got, prof, report) =
                execute_fused_multi_verified(&mut dev, shape, 1.0, &s.a, &s.b, &s.w, None).unwrap();
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
                    report.blocks_flagged > 0,
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
            let mut kern = FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, r);
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
        let _ = FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 9);
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
        let _ = FusedMultiWeight::new(ops, a2, b2, w, v, shape, Bandwidth { h: 1.0 }, 6)
            .with_geometry(geo);
    }
}
