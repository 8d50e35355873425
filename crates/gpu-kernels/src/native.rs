//! Block-native functional execution of the fused kernel family.
//!
//! The warp interpreter runs every warp instruction of Algorithm 2
//! through `[[f32; 4]; 32]` lane arrays. Without a fault plan, counters
//! or ABFT there is nothing to observe per warp, so
//! [`FusedKernelSummation`](crate::fused::FusedKernelSummation) and
//! [`FusedMultiPacked`](crate::fused_multi_packed::FusedMultiPacked)
//! hand their launches to [`run`] instead (through
//! `Kernel::execute_native`). It computes one row group (`by`) at a
//! time on contiguous `f32` slices the compiler can vectorise, with
//! the interpreter's exact per-element operation sequence:
//!
//! 1. every GEMM accumulator is `0.0 + Σ_k a·b` in ascending `k`, a
//!    separate multiply then add (Rust never contracts to FMA), as
//!    `compute_ktile` accumulates for every `tile_k` and depth;
//! 2. `d = (‖a‖² + ‖b‖²) − 2·dot`, then `exp(−d·s)`, the same
//!    [`gaussian`] call;
//! 3. each thread's γ folds its `micro_n` columns in column order from
//!    `0.0`, per weight column;
//! 4. the row sum folds the `threads_x` γ's in `tx` order from `0.0`;
//! 5. the drain adds into `V` in ascending `bx` (atomic) or stores the
//!    block's partial (two-pass).
//!
//! Vectorising across output columns keeps every element's own chain
//! intact, and a row group owns its `V` rows, so the result is the
//! sequential launch-order schedule's bits at any thread count.
//! DESIGN.md ("Native functional execution") gives the full argument;
//! `tests/native_differential.rs` checks it against the interpreter.

use rayon::prelude::*;

use ks_gpu_sim::buffer::{BufId, GlobalMem};

use crate::aux_kernels::gaussian;
use crate::gemm_engine::{GemmOperands, GemmShape};
use crate::geometry::TileGeometry;

/// Rows per register tile of the dot-product kernel.
const ROWS: usize = 4;
/// Columns per register tile of the dot-product kernel.
const COLS: usize = 8;

/// Where a block's row partials go.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Drain {
    /// `atomicAdd` into `V` (`M×R` column-major), in ascending `bx`.
    Atomic(BufId),
    /// Store block `bx`'s partial at `partials[bx·M + row]` (`R = 1`).
    Partials(BufId),
}

/// One fused launch, or one segment of a packed launch, as the
/// row-group routine sees it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FusedJob {
    pub ops: GemmOperands,
    pub a2: BufId,
    pub b2: BufId,
    /// `N×R` column-major weights.
    pub w: BufId,
    pub shape: GemmShape,
    pub geometry: TileGeometry,
    /// The Gaussian's `1/(2h²)`.
    pub inv_2h2: f32,
    /// Weight columns.
    pub r: usize,
    pub drain: Drain,
}

/// Runs every row group of every job, in parallel over `(job, by)`
/// with `bx` sequential inside each. Jobs must write disjoint outputs.
///
/// # Panics
/// Panics unless every job's `block_m` is a multiple of 4 and its
/// `block_n` a multiple of 8 (true of every lattice geometry).
pub(crate) fn run(mem: &GlobalMem, jobs: &[FusedJob]) {
    for job in jobs {
        assert!(
            job.geometry.block_m % ROWS == 0 && job.geometry.block_n % COLS == 0,
            "{} does not fit the {ROWS}x{COLS} register tile",
            job.geometry
        );
    }
    let groups: Vec<(usize, usize)> = jobs
        .iter()
        .enumerate()
        .flat_map(|(j, job)| (0..job.shape.m / job.geometry.block_m).map(move |by| (j, by)))
        .collect();
    groups
        .into_par_iter()
        .for_each(|(j, by)| row_group(mem, &jobs[j], by));
}

/// Computes row group `by` of `job`: stages its A rows and norms once,
/// then for each `bx` stages that block's B tile (k-major), norms and
/// weight slices, evaluates the tile and drains it.
fn row_group(mem: &GlobalMem, job: &FusedJob, by: usize) {
    let geo = &job.geometry;
    let GemmShape { m, n, k } = job.shape;
    let (bm, bn, mn, r) = (geo.block_m, geo.block_n, geo.micro_n, job.r);
    let row0 = by * bm;

    let mut a = vec![0.0f32; bm * k];
    mem.read_range(job.ops.a, row0 * k, &mut a);
    let mut a2 = vec![0.0f32; bm];
    mem.read_range(job.a2, row0, &mut a2);
    let mut b = vec![0.0f32; bn * k];
    let mut bt = vec![0.0f32; k * bn];
    let mut b2 = vec![0.0f32; bn];
    let mut w = vec![0.0f32; r * bn];
    let mut dots = vec![0.0f32; ROWS * bn];
    let mut kv = vec![0.0f32; bn];
    // part[c·bm + i]: block bx's row partial of row i, column c.
    let mut part = vec![0.0f32; r * bm];

    for bx in 0..n / bn {
        let col0 = bx * bn;
        mem.read_range(job.ops.b, col0 * k, &mut b);
        for (j, point) in b.chunks_exact(k).enumerate() {
            for (t, &x) in point.iter().enumerate() {
                bt[t * bn + j] = x;
            }
        }
        mem.read_range(job.b2, col0, &mut b2);
        for (c, wc) in w.chunks_exact_mut(bn).enumerate() {
            mem.read_range(job.w, c * n + col0, wc);
        }

        for i0 in (0..bm).step_by(ROWS) {
            dot_tile(&a[i0 * k..(i0 + ROWS) * k], &bt, k, bn, &mut dots);
            for (q, dq) in dots.chunks_exact(bn).enumerate() {
                let i = i0 + q;
                for ((kj, &dot), &b2j) in kv.iter_mut().zip(dq).zip(&b2) {
                    *kj = gaussian(a2[i] + b2j - 2.0 * dot, job.inv_2h2);
                }
                for (c, wc) in w.chunks_exact(bn).enumerate() {
                    let mut sum = 0.0f32;
                    for (kt, wt) in kv.chunks_exact(mn).zip(wc.chunks_exact(mn)) {
                        let mut g = 0.0f32;
                        for (&kj, &wj) in kt.iter().zip(wt) {
                            g += kj * wj;
                        }
                        sum += g;
                    }
                    part[c * bm + i] = sum;
                }
            }
        }

        match job.drain {
            Drain::Atomic(v) => {
                for (c, pc) in part.chunks_exact(bm).enumerate() {
                    for (i, &p) in pc.iter().enumerate() {
                        mem.atomic_add(v, c * m + row0 + i, p);
                    }
                }
            }
            Drain::Partials(partials) => {
                for (i, &p) in part.iter().enumerate() {
                    mem.store(partials, bx * m + row0 + i, p);
                }
            }
        }
    }
}

/// `dots[q·bn + j] = 0.0 + Σ_t a[q·k + t]·bt[t·bn + j]` in ascending
/// `t` for the `ROWS` rows of `a`, register-tiled `ROWS × COLS`.
fn dot_tile(a: &[f32], bt: &[f32], k: usize, bn: usize, dots: &mut [f32]) {
    for j0 in (0..bn).step_by(COLS) {
        let mut acc = [[0.0f32; COLS]; ROWS];
        for t in 0..k {
            let b: &[f32; COLS] = bt[t * bn + j0..t * bn + j0 + COLS]
                .try_into()
                .expect("COLS divides block_n");
            for (q, acc_q) in acc.iter_mut().enumerate() {
                let aq = a[q * k + t];
                for (x, &bj) in acc_q.iter_mut().zip(b) {
                    *x += aq * bj;
                }
            }
        }
        for (q, acc_q) in acc.iter().enumerate() {
            dots[q * bn + j0..q * bn + j0 + COLS].copy_from_slice(acc_q);
        }
    }
}
