//! Functional block-synchronous execution engine.
//!
//! A kernel's `execute_block` runs the numerics of one thread block
//! against real device buffers. Code is written *warp-synchronously*:
//! memory traffic is issued through warp-level [`BlockCtx`] calls
//! (which also feed the [`TrafficSink`] when profiling), and
//! per-thread compute is ordinary Rust between those calls. Because
//! the engine interprets one block at a time with explicit barriers,
//! `__syncthreads()` semantics hold trivially; blocks themselves may
//! run in parallel across host threads (rayon), mirroring independent
//! CTAs on different SMs.

use std::ops::Range;

use rayon::prelude::*;

use crate::buffer::{BufId, GlobalMem};
use crate::dim::Dim3;
use crate::fault::{BlockFaults, LaunchFaultPlan};
use crate::kernel::Kernel;
use crate::smem::flip_bit;
use crate::traffic::{TrafficSink, WarpIdx};

/// Execution context of one thread block (functional mode).
pub struct BlockCtx<'a, 'b> {
    mem: &'a GlobalMem,
    smem: Vec<f32>,
    sink: Option<&'b mut TrafficSink<'a>>,
    /// Faults scheduled against this block (see [`crate::fault`]).
    faults: Option<BlockFaults>,
    /// `__syncthreads()` ordinal, counted so scheduled shared-memory
    /// flips can target a specific barrier.
    sync_seen: u32,
}

impl<'a, 'b> BlockCtx<'a, 'b> {
    /// Creates a context with `smem_words` words of shared memory.
    #[must_use]
    pub fn new(
        mem: &'a GlobalMem,
        smem_words: usize,
        sink: Option<&'b mut TrafficSink<'a>>,
    ) -> Self {
        Self {
            mem,
            smem: vec![0.0; smem_words],
            sink,
            faults: None,
            sync_seen: 0,
        }
    }

    /// Arms this block with its scheduled faults. Shared-memory flips
    /// fire at their targeted barrier; register flips wait in the
    /// context until the kernel drains them with
    /// [`BlockCtx::take_accumulator_faults`].
    pub fn arm_faults(&mut self, faults: BlockFaults) {
        self.faults = Some(faults);
    }

    /// Drains every accumulator-register fault scheduled against this
    /// block as `(element draw, bit)` pairs, tallying them as applied.
    /// Kernels that keep partial sums in registers call this once,
    /// after their accumulate phase, and map each element draw onto
    /// their accumulator layout (modulo the accumulator count).
    /// Returns an empty vector when the block is not under attack —
    /// and always in traffic mode, where no data exists to corrupt.
    #[must_use]
    pub fn take_accumulator_faults(&mut self) -> Vec<(u64, u8)> {
        let Some(faults) = self.faults.as_mut() else {
            return Vec::new();
        };
        let drained: Vec<(u64, u8)> = faults.reg.drain(..).map(|f| (f.elem_pick, f.bit)).collect();
        if !drained.is_empty() {
            faults.tally.add_reg(drained.len() as u64);
        }
        drained
    }

    /// Shared-memory size in words.
    #[must_use]
    pub fn smem_words(&self) -> usize {
        self.smem.len()
    }

    /// Announces the warp issuing subsequent events (trace-only; no
    /// counter or functional effect).
    pub fn begin_warp(&mut self, warp: u32) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.begin_warp(warp);
        }
    }

    /// Warp global load, one word per active lane.
    ///
    /// # Panics
    /// Panics if a lane's index is out of bounds (a device fault).
    #[must_use]
    pub fn warp_ld_global(&mut self, buf: BufId, idx: &WarpIdx) -> [f32; 32] {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_read(buf, idx, 1);
        }
        std::array::from_fn(|l| idx[l].map_or(0.0, |i| self.mem.load(buf, i)))
    }

    /// Warp global vector load: lane `l` reads `VL` consecutive words
    /// starting at `idx[l]` (VL = 4 models LDG.128 / `float4`).
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    #[must_use]
    pub fn warp_ld_global_vec<const VL: usize>(
        &mut self,
        buf: BufId,
        idx: &WarpIdx,
    ) -> [[f32; VL]; 32] {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_read(buf, idx, VL as u32);
        }
        std::array::from_fn(|l| match idx[l] {
            Some(i) => std::array::from_fn(|j| self.mem.load(buf, i + j)),
            None => [0.0; VL],
        })
    }

    /// Warp global store, one word per active lane.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn warp_st_global(&mut self, buf: BufId, idx: &WarpIdx, vals: &[f32; 32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_write(buf, idx, 1);
        }
        for (l, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                self.mem.store(buf, *i, vals[l]);
            }
        }
    }

    /// Warp global vector store (`float4` for VL = 4).
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn warp_st_global_vec<const VL: usize>(
        &mut self,
        buf: BufId,
        idx: &WarpIdx,
        vals: &[[f32; VL]; 32],
    ) {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_write(buf, idx, VL as u32);
        }
        for (l, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                for j in 0..VL {
                    self.mem.store(buf, *i + j, vals[l][j]);
                }
            }
        }
    }

    /// Warp `atomicAdd`, one word per active lane.
    ///
    /// # Panics
    /// Panics on out-of-bounds access.
    pub fn warp_atomic_add(&mut self, buf: BufId, idx: &WarpIdx, vals: &[f32; 32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.global_atomic(buf, idx);
        }
        for (l, i) in idx.iter().enumerate() {
            if let Some(i) = i {
                self.mem.atomic_add(buf, *i, vals[l]);
            }
        }
    }

    /// Warp shared load, one word per active lane.
    ///
    /// # Panics
    /// Panics if a word index exceeds the block's shared memory.
    #[must_use]
    pub fn warp_ld_shared(&mut self, word: &[Option<u32>; 32]) -> [f32; 32] {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_read(word, 1);
        }
        std::array::from_fn(|l| word[l].map_or(0.0, |w| self.smem[w as usize]))
    }

    /// Warp shared vector load (LDS.128 for VL = 4).
    ///
    /// # Panics
    /// Panics on out-of-bounds shared access.
    #[must_use]
    pub fn warp_ld_shared_vec<const VL: usize>(
        &mut self,
        word: &[Option<u32>; 32],
    ) -> [[f32; VL]; 32] {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_read(word, VL as u32);
        }
        std::array::from_fn(|l| match word[l] {
            Some(w) => std::array::from_fn(|j| self.smem[w as usize + j]),
            None => [0.0; VL],
        })
    }

    /// Warp shared store, one word per active lane.
    ///
    /// # Panics
    /// Panics on out-of-bounds shared access.
    pub fn warp_st_shared(&mut self, word: &[Option<u32>; 32], vals: &[f32; 32]) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_write(word, 1);
        }
        for (l, w) in word.iter().enumerate() {
            if let Some(w) = w {
                self.smem[*w as usize] = vals[l];
            }
        }
    }

    /// Warp shared vector store (STS.128 for VL = 4).
    ///
    /// # Panics
    /// Panics on out-of-bounds shared access.
    pub fn warp_st_shared_vec<const VL: usize>(
        &mut self,
        word: &[Option<u32>; 32],
        vals: &[[f32; VL]; 32],
    ) {
        debug_assert!(matches!(VL, 1 | 2 | 4));
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.shared_write(word, VL as u32);
        }
        for (l, w) in word.iter().enumerate() {
            if let Some(w) = w {
                for j in 0..VL {
                    self.smem[*w as usize + j] = vals[l][j];
                }
            }
        }
    }

    /// Records `n` full-warp FFMA instructions.
    pub fn ffma(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.ffma(n);
        }
    }

    /// Records `n` full-warp FADD/FMUL instructions.
    pub fn falu(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.falu(n);
        }
    }

    /// Records `n` full-warp integer/addressing instructions.
    pub fn alu(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.alu(n);
        }
    }

    /// Records `n` full-warp special-function instructions.
    pub fn sfu(&mut self, n: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.sfu(n);
        }
    }

    /// Block-wide barrier executed by `warps` warps. (The interpreter
    /// runs warps to completion between barriers, so this is purely a
    /// counting event; ordering is enforced by program structure.)
    ///
    /// When the block is armed with faults, scheduled shared-memory
    /// bit flips targeting this barrier ordinal are applied here —
    /// data only, never counters.
    pub fn syncthreads(&mut self, warps: u64) {
        if let Some(sink) = self.sink.as_deref_mut() {
            sink.syncthreads(warps);
        }
        let sync_idx = self.sync_seen;
        self.sync_seen += 1;
        if let Some(faults) = self.faults.as_ref() {
            if self.smem.is_empty() {
                return;
            }
            let mut applied = 0u64;
            for f in faults.smem.iter().filter(|f| f.sync_idx == sync_idx) {
                let word = (f.word_pick % self.smem.len() as u64) as usize;
                self.smem[word] = flip_bit(self.smem[word], f.bit);
                applied += 1;
            }
            if applied > 0 {
                faults.tally.add_smem(applied);
            }
        }
    }
}

/// Runs `f(linear, block)` over every block of `grid` in parallel,
/// where `linear` is the block's launch-order index.
///
/// Each work item runs one row of blocks in ascending launch order:
/// the kernel's declared [`Kernel::block_rows`] if any, else the grid
/// rows of a 2-D (or 3-D) grid and single blocks of a 1-D grid. The
/// fused kernels declare one row per row group (`by`), whose blocks
/// all `atomicAdd` into the same `V` rows, so their fold order is the
/// sequential launch order at any thread count, whether the grid has
/// one row (and looks 1-D) or is a packed launch of many segments.
/// Undeclared 1-D kernels write disjoint outputs.
fn for_each_block(grid: Dim3, rows: Option<Vec<Range<u64>>>, f: impl Fn(u64, Dim3) + Sync + Send) {
    let (gx, gy) = (u64::from(grid.x), u64::from(grid.y));
    let rows = rows.unwrap_or_else(|| {
        let len = if gy == 1 && grid.z == 1 { 1 } else { gx };
        (0..gx * gy * u64::from(grid.z))
            .step_by(len as usize)
            .map(|start| start..start + len)
            .collect()
    });
    debug_assert_eq!(
        rows.iter().map(|row| row.end - row.start).sum::<u64>(),
        gx * gy * u64::from(grid.z),
        "block rows must partition the grid"
    );
    rows.into_par_iter().for_each(|row| {
        for i in row {
            let (x, y, z) = (i % gx, i / gx % gy, i / (gx * gy));
            f(i, Dim3::new(x as u32, y as u32, z as u32));
        }
    });
}

/// Runs every block of `kernel` functionally, in parallel over host
/// threads (see [`for_each_block`] for the partition). No counters are
/// collected (use [`crate::device::GpuDevice::run_counted`] for that).
pub fn run_functional(mem: &GlobalMem, kernel: &dyn Kernel, smem_words: usize) {
    for_each_block(kernel.launch_config().grid, kernel.block_rows(), |_, b| {
        let mut ctx = BlockCtx::new(mem, smem_words, None);
        kernel.execute_block(b, &mut ctx);
    });
}

/// [`run_functional`] with a fault schedule: each block is armed with
/// the faults aimed at its launch-order (linear) index before it
/// executes, whatever the host partition.
pub fn run_functional_with_faults(
    mem: &GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    plan: &LaunchFaultPlan,
) {
    for_each_block(kernel.launch_config().grid, kernel.block_rows(), |i, b| {
        let mut ctx = BlockCtx::new(mem, smem_words, None);
        if let Some(f) = plan.block_faults(i) {
            ctx.arm_faults(f);
        }
        kernel.execute_block(b, &mut ctx);
    });
}

/// Runs every block sequentially in launch order, feeding `sink` —
/// functional execution with full profiling (slow; for validation).
pub fn run_functional_counted<'a>(
    mem: &'a GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    sink: &mut TrafficSink<'a>,
) {
    let lc = kernel.launch_config();
    for (i, b) in lc.grid.iter_indices().enumerate() {
        sink.begin_block(i as u64);
        let mut ctx = BlockCtx::new(mem, smem_words, Some(sink));
        kernel.execute_block(b, &mut ctx);
    }
}

/// Like [`run_functional_counted`], but harvests each block's counters
/// separately (the sink's running counters are reset per block), so
/// the caller can merge them through the same deterministic grid-order
/// reduction the traffic replay engine uses.
pub fn run_functional_counted_per_block<'a>(
    mem: &'a GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    sink: &mut TrafficSink<'a>,
) -> Vec<crate::profiler::Counters> {
    let lc = kernel.launch_config();
    let mut per_block = Vec::with_capacity(lc.total_blocks() as usize);
    for (i, b) in lc.grid.iter_indices().enumerate() {
        sink.counters = crate::profiler::Counters::default();
        sink.begin_block(i as u64);
        let mut ctx = BlockCtx::new(mem, smem_words, Some(sink));
        kernel.execute_block(b, &mut ctx);
        per_block.push(sink.counters);
    }
    per_block
}

/// [`run_functional_counted_per_block`] with a fault schedule (see
/// [`run_functional_with_faults`]). Faults perturb data, never the
/// harvested counters: the per-block counter vector is bit-identical
/// to a fault-free run because every kernel's instruction stream is
/// data-independent.
pub fn run_functional_counted_per_block_with_faults<'a>(
    mem: &'a GlobalMem,
    kernel: &dyn Kernel,
    smem_words: usize,
    sink: &mut TrafficSink<'a>,
    plan: &LaunchFaultPlan,
) -> Vec<crate::profiler::Counters> {
    let lc = kernel.launch_config();
    let mut per_block = Vec::with_capacity(lc.total_blocks() as usize);
    for (i, b) in lc.grid.iter_indices().enumerate() {
        sink.counters = crate::profiler::Counters::default();
        sink.begin_block(i as u64);
        let mut ctx = BlockCtx::new(mem, smem_words, Some(sink));
        if let Some(f) = plan.block_faults(i as u64) {
            ctx.arm_faults(f);
        }
        kernel.execute_block(b, &mut ctx);
        per_block.push(sink.counters);
    }
    per_block
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Cache;
    use crate::dim::LaunchConfig;
    use crate::kernel::KernelResources;
    use crate::traffic::full_warp_idx;

    /// y[i] = 2 * x[i] over one warp per block.
    struct Doubler {
        x: BufId,
        y: BufId,
        n: usize,
    }

    impl Kernel for Doubler {
        fn name(&self) -> String {
            "doubler".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d((self.n as u32).div_ceil(32)), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 8,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let base = block.x as usize * 32;
            let idx: WarpIdx = std::array::from_fn(|l| {
                let i = base + l;
                (i < self.n).then_some(i)
            });
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.falu(1);
            let out: [f32; 32] = std::array::from_fn(|l| v[l] * 2.0);
            ctx.warp_st_global(self.y, &idx, &out);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut TrafficSink) {
            let base = block.x as usize * 32;
            let idx: WarpIdx = std::array::from_fn(|l| {
                let i = base + l;
                (i < self.n).then_some(i)
            });
            sink.global_read(self.x, &idx, 1);
            sink.falu(1);
            sink.global_write(self.y, &idx, 1);
        }
    }

    #[test]
    fn functional_run_computes_correct_values() {
        let mut mem = GlobalMem::new();
        let n = 100;
        let x = mem.upload(&(0..n).map(|i| i as f32).collect::<Vec<_>>());
        let y = mem.alloc(n);
        let k = Doubler { x, y, n };
        run_functional(&mem, &k, 0);
        let out = mem.download(y);
        for (i, v) in out.iter().enumerate() {
            assert_eq!(*v, 2.0 * i as f32);
        }
    }

    #[test]
    fn counted_run_matches_traffic_replay() {
        let mut mem = GlobalMem::new();
        let n = 100;
        let x = mem.upload(&vec![1.0; n]);
        let y = mem.alloc(n);
        let k = Doubler { x, y, n };

        let mut l2a = Cache::new(64 * 1024, 16, 32);
        let mut sink_a = TrafficSink::new(&mem, &mut l2a, 32, 32);
        run_functional_counted(&mem, &k, 0, &mut sink_a);

        let mut l2b = Cache::new(64 * 1024, 16, 32);
        let mut sink_b = TrafficSink::new(&mem, &mut l2b, 32, 32);
        for b in k.launch_config().grid.iter_indices() {
            k.block_traffic(b, &mut sink_b);
        }

        assert_eq!(sink_a.counters, sink_b.counters);
        assert_eq!(l2a.stats(), l2b.stats());
    }

    #[test]
    fn shared_memory_round_trip() {
        let mem = GlobalMem::new();
        let mut ctx = BlockCtx::new(&mem, 64, None);
        let words = crate::traffic::full_warp_words(|l| l as u32);
        let vals: [f32; 32] = std::array::from_fn(|l| l as f32 * 1.5);
        ctx.warp_st_shared(&words, &vals);
        let back = ctx.warp_ld_shared(&words);
        assert_eq!(back, vals);
    }

    #[test]
    fn vector_shared_round_trip() {
        let mem = GlobalMem::new();
        let mut ctx = BlockCtx::new(&mem, 256, None);
        let words = crate::traffic::full_warp_words(|l| 4 * l as u32);
        let vals: [[f32; 4]; 32] =
            std::array::from_fn(|l| std::array::from_fn(|j| (l * 4 + j) as f32));
        ctx.warp_st_shared_vec(&words, &vals);
        assert_eq!(ctx.warp_ld_shared_vec::<4>(&words), vals);
    }

    #[test]
    fn vector_global_round_trip() {
        let mut mem = GlobalMem::new();
        let buf = mem.alloc(128);
        let mut ctx = BlockCtx::new(&mem, 0, None);
        let idx = full_warp_idx(|l| 4 * l);
        let vals: [[f32; 4]; 32] = std::array::from_fn(|l| std::array::from_fn(|j| (l + j) as f32));
        ctx.warp_st_global_vec(buf, &idx, &vals);
        assert_eq!(ctx.warp_ld_global_vec::<4>(buf, &idx), vals);
    }

    #[test]
    fn partition_visits_every_block_once_with_its_launch_index() {
        for grid in [Dim3::new_1d(37), Dim3::new_2d(5, 7), Dim3::new(3, 4, 2)] {
            for threads in [1, 2, 3, 7] {
                let seen = std::sync::Mutex::new(Vec::new());
                let pool = rayon::ThreadPoolBuilder::new()
                    .num_threads(threads)
                    .build()
                    .unwrap();
                pool.install(|| {
                    for_each_block(grid, None, |i, b| seen.lock().unwrap().push((i, b)));
                });
                let mut seen = seen.into_inner().unwrap();
                seen.sort_by_key(|&(i, _)| i);
                let want: Vec<(u64, Dim3)> = grid
                    .iter_indices()
                    .enumerate()
                    .map(|(i, b)| (i as u64, b))
                    .collect();
                assert_eq!(seen, want, "{grid:?} at {threads} threads");
            }
        }
    }

    /// Blocks `(x, y)` add `[1e8, 1, -1e8, 1, …][x]` into row `y`'s
    /// 32 words: float addition is not associative, so the result
    /// exposes the order in which a grid row's blocks ran.
    /// With `declare_rows`, the probe declares its grid rows through
    /// [`Kernel::block_rows`].
    struct OrderProbe {
        acc: BufId,
        grid: Dim3,
        declare_rows: bool,
    }

    impl Kernel for OrderProbe {
        fn name(&self) -> String {
            "order_probe".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(self.grid, 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 8,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, b: Dim3, ctx: &mut BlockCtx) {
            let v = [1e8f32, 1.0, -1e8, 1.0][b.x as usize % 4];
            let idx = full_warp_idx(|l| b.y as usize * 32 + l);
            ctx.warp_atomic_add(self.acc, &idx, &[v; 32]);
        }
        fn block_traffic(&self, b: Dim3, sink: &mut TrafficSink) {
            sink.global_atomic(self.acc, &full_warp_idx(|l| b.y as usize * 32 + l));
        }
        fn block_rows(&self) -> Option<Vec<Range<u64>>> {
            let gx = u64::from(self.grid.x);
            self.declare_rows.then(|| {
                (0..u64::from(self.grid.y))
                    .map(|y| y * gx..(y + 1) * gx)
                    .collect()
            })
        }
    }

    /// Runs the probe at every thread count and checks each row folded
    /// in launch order: 1e8 absorbs the 1 before it and cancels, so
    /// each group of four leaves 1 (reordered, up to 8 survive).
    fn assert_launch_order_folds(grid: Dim3, declare_rows: bool) {
        let run = |threads: usize| {
            let mut mem = GlobalMem::new();
            let acc = mem.alloc(32 * grid.y as usize);
            let pool = rayon::ThreadPoolBuilder::new()
                .num_threads(threads)
                .build()
                .unwrap();
            let probe = OrderProbe {
                acc,
                grid,
                declare_rows,
            };
            pool.install(|| run_functional(&mem, &probe, 0));
            mem.download(acc)
        };
        let want = vec![1.0f32; 32 * grid.y as usize];
        for threads in [1, 2, 3, 5, 7] {
            assert_eq!(run(threads), want, "{grid:?} at {threads} threads");
        }
    }

    #[test]
    fn grid_rows_fold_in_launch_order_at_any_thread_count() {
        assert_launch_order_folds(Dim3::new_2d(16, 6), false);
        // A 2-D grid of one row is a 1-D grid to the executor; only the
        // kernel's declaration keeps its blocks on one thread.
        assert_launch_order_folds(Dim3::new_2d(16, 1), true);
    }

    #[test]
    fn atomic_add_accumulates_across_blocks() {
        let mut mem = GlobalMem::new();
        let acc = mem.alloc(32);
        struct AtomicK {
            acc: BufId,
        }
        impl Kernel for AtomicK {
            fn name(&self) -> String {
                "atomic".into()
            }
            fn launch_config(&self) -> LaunchConfig {
                LaunchConfig::new(10u32, 32u32)
            }
            fn resources(&self) -> KernelResources {
                KernelResources {
                    threads_per_block: 32,
                    regs_per_thread: 8,
                    smem_bytes_per_block: 0,
                }
            }
            fn execute_block(&self, _: Dim3, ctx: &mut BlockCtx) {
                let idx = full_warp_idx(|l| l);
                ctx.warp_atomic_add(self.acc, &idx, &[1.0; 32]);
            }
            fn block_traffic(&self, _: Dim3, sink: &mut TrafficSink) {
                sink.global_atomic(self.acc, &full_warp_idx(|l| l));
            }
        }
        run_functional(&mem, &AtomicK { acc }, 0);
        assert_eq!(mem.download(acc), vec![10.0; 32]);
    }
}
