//! # ks-gpu-kernels — the paper's GPU kernels on the simulator
//!
//! Implements §III of the paper:
//!
//! * [`geometry`] — the [`geometry::TileGeometry`] tiling space: the
//!   paper's 128×128/16×16/8×8/rank-8 configuration as one point of a
//!   feasibility-pruned lattice; every derived quantity (thread shape,
//!   loader schedule, swizzle, register/SMEM footprint) is a function
//!   of the geometry.
//! * [`layout`] — the Fig 5 thread→track mapping and the swizzled
//!   shared-memory placement that eliminates both store and load bank
//!   conflicts (plus the naive placement, kept for the ablation bench);
//!   the paper-default specialization of [`geometry::TileSide`].
//! * [`machine`] — the [`machine::WarpMachine`] abstraction: kernels
//!   are written once and run either *functionally* (numerics on device
//!   buffers) or in *traffic* mode (pure access-pattern replay at
//!   paper-scale sizes). Both paths issue the identical warp-level
//!   instruction stream by construction.
//! * [`gemm_engine`] — the shared block-tile GEMM engine (Fig 4),
//!   parameterized over [`geometry::TileGeometry`]: register
//!   microtiles, rank-`tile_k` updates, optional double buffering.
//! * [`sgemm`] — the CUDA-C SGEMM kernel and the cuBLAS-class
//!   [`sgemm::VendorSgemm`] model.
//! * [`aux_kernels`] — squared-norm, kernel-evaluation and
//!   evaluation+summation kernels (the unfused pipeline stages).
//! * [`fused`] — Algorithm 2: the one fused kernel,
//!   [`FusedKernelSummation`], with the three-level reduction
//!   (intra-thread, intra-block, atomic inter-block) over `R` weight
//!   columns, plus the ABFT-verified variant (checksum column,
//!   shared-memory audit, γ re-fold; DESIGN.md §11). Two
//!   constructors: the paper's single-weight `new` and the
//!   multi-weight `new_multi`.
//! * [`fused_multi`] — the `execute_fused_multi` batched serving entry.
//! * [`fused_multi_packed`] — horizontal fusion: many unrelated small
//!   queries packed into one launch behind a per-block routing table
//!   (block index → segment kernel), with plan-cache-aware upload
//!   deduplication and per-segment ABFT reports.
//! * [`oracle`] — the geometry-aware bit-exact CPU replay of the fused
//!   kernel's reduction order (the differential-test contract).
//! * [`pipelines`] — the three end-to-end implementations of §IV:
//!   `Fused`, `CUDA-Unfused`, `cuBLAS-Unfused`.

#![warn(missing_docs)]
// Kernel bodies index explicit lane/row/column loops to mirror the
// CUDA code they model; iterator adaptors would obscure the mapping
// the paper's figures describe.
#![allow(clippy::needless_range_loop)]

pub mod aux_kernels;
pub mod fused;
pub mod fused_multi;
pub mod fused_multi_packed;
pub mod gemm_engine;
pub mod geometry;
pub mod layout;
pub mod machine;
mod native;
pub mod oracle;
pub mod pipelines;
pub mod sgemm;
pub mod small_micro;

pub use fused::{
    FusedKernelSummation, VerifyBufs, VerifyReport, CHECKSUM_SLOT_WORDS, MAX_WEIGHT_COLUMNS,
};
pub use fused_multi::{execute_fused_multi, FUSED_MULTI_PIPELINE, FUSED_MULTI_VERIFIED_PIPELINE};
pub use fused_multi_packed::{
    execute_fused_multi_packed_with, FusedMultiPacked, PackedSegmentSpec, RoutingTable,
    FUSED_MULTI_PACKED_PIPELINE, FUSED_MULTI_PACKED_VERIFIED_PIPELINE,
};
pub use geometry::{TileGeometry, TileSide};
pub use layout::SmemLayout;
pub use oracle::{fused_multi_oracle, fused_oracle};
pub use pipelines::{GpuKernelSummation, GpuVariant, ProblemDims, FUSED_VERIFIED_PIPELINE};
pub use sgemm::{CudaSgemm, VendorSgemm};
pub use small_micro::Sgemm4x4;

// The paper-point constants below are retained for doc references and
// external callers; the kernel modules themselves are parameterized
// over [`TileGeometry`] and must not use them (a lint test enforces
// this). They are pinned equal to `TileGeometry::paper_default()`.

/// Block tile edge: each thread block computes a 128×128 `submatrixC`.
pub const BLOCK_TILE: usize = 128;
/// Depth of one rank-update step (`tileA` is 128×8, `tileB` is 8×128).
pub const K_TILE: usize = 8;
/// Threads per block dimension (16×16 grid).
pub const THREADS_XY: usize = 16;
/// Microtile edge: each thread computes 8×8 elements of `submatrixC`.
pub const MICRO_TILE: usize = 8;
/// Threads per block.
pub const THREADS_PER_BLOCK: usize = THREADS_XY * THREADS_XY;
/// Warps per block.
pub const WARPS_PER_BLOCK: usize = THREADS_PER_BLOCK / 32;
/// Words in one shared tile (128×8).
pub const TILE_WORDS: usize = BLOCK_TILE * K_TILE;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_constants_equal_the_default_geometry() {
        let g = TileGeometry::paper_default();
        assert_eq!(BLOCK_TILE, g.block_m);
        assert_eq!(BLOCK_TILE, g.block_n);
        assert_eq!(K_TILE, g.tile_k);
        assert_eq!(MICRO_TILE, g.micro_m);
        assert_eq!(MICRO_TILE, g.micro_n);
        assert_eq!(THREADS_XY, g.threads_x());
        assert_eq!(THREADS_PER_BLOCK, g.threads_per_block());
        assert_eq!(WARPS_PER_BLOCK, g.warps_per_block());
        assert_eq!(TILE_WORDS, g.a_tile_words());
    }

    /// Lint-style guard (the "latent assumption hunt" satellite):
    /// once parameterized, the geometry-generalized modules must not
    /// reach for the paper-point constants again — a reappearing
    /// `BLOCK_TILE`/`K_TILE`/`MICRO_TILE`/`THREADS_XY` literal in one
    /// of them means a hardcoded 128/16/8 assumption crept back in.
    #[test]
    fn generalized_modules_do_not_use_paper_constants() {
        let banned = [
            "BLOCK_TILE",
            "K_TILE",
            "MICRO_TILE",
            "THREADS_XY",
            "THREADS_PER_BLOCK",
            "WARPS_PER_BLOCK",
            "TILE_WORDS",
        ];
        for (name, src) in [
            ("geometry.rs", include_str!("geometry.rs")),
            ("gemm_engine.rs", include_str!("gemm_engine.rs")),
            ("fused.rs", include_str!("fused.rs")),
            ("fused_multi.rs", include_str!("fused_multi.rs")),
            ("oracle.rs", include_str!("oracle.rs")),
        ] {
            for b in banned {
                assert!(
                    !src.contains(b),
                    "{name} references paper-point constant {b}; \
                     use TileGeometry fields instead"
                );
            }
        }
    }
}
