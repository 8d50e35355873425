//! The simulated GPU device: memory, L2 state, launches, profiles.
//!
//! [`GpuDevice`] ties the pieces together. A *launch* walks the grid
//! in CUDA block-enumeration order (x fastest — the CTA scheduler's
//! dispatch order), replays each block's traffic through the coalescer,
//! bank model and the persistent L2, then runs the timing model on the
//! harvested counters. Dirty L2 lines are flushed (and charged as DRAM
//! writes) at the kernel boundary, so every kernel's DRAM write count
//! reflects the data it actually produced.

use crate::buffer::{BufId, GlobalMem};
use crate::cache::Cache;
use crate::config::DeviceConfig;
use crate::exec;
use crate::fault::{FaultCounters, FaultState, LaunchFault, LaunchFaultPlan};
use crate::kernel::{validate_launch, Kernel, LaunchError};
use crate::occupancy::occupancy;
use crate::profiler::{KernelProfile, MemTraffic};
use crate::replay::{self, ReplayStrategy};
use crate::smem::flip_bit;
use crate::timing::{self, TimingParams};
use crate::traffic::TrafficSink;

/// A simulated GPU: configuration, global memory and L2 state.
pub struct GpuDevice {
    cfg: DeviceConfig,
    mem: GlobalMem,
    l2: Cache,
    /// Per-SM L1s (only when `cfg.l1_cache_global_loads`).
    l1s: Vec<Cache>,
    timing_params: TimingParams,
    replay: ReplayStrategy,
    /// Fault generator (only when `cfg.fault` is set).
    faults: Option<FaultState>,
    /// Applied injections since the last [`GpuDevice::take_fault_counters`].
    fault_counters: FaultCounters,
}

impl GpuDevice {
    /// Creates a device from a configuration.
    #[must_use]
    pub fn new(cfg: DeviceConfig) -> Self {
        let l2 = Cache::new(cfg.l2_bytes as u64, cfg.l2_assoc, cfg.sector_bytes);
        let l1s = if cfg.l1_cache_global_loads {
            (0..cfg.num_sms)
                .map(|_| Cache::new_hashed(cfg.l1_bytes as u64, cfg.l1_assoc, cfg.sector_bytes))
                .collect()
        } else {
            Vec::new()
        };
        let faults = cfg.fault.map(FaultState::new);
        Self {
            cfg,
            mem: GlobalMem::new(),
            l2,
            l1s,
            timing_params: TimingParams::default(),
            replay: ReplayStrategy::default(),
            faults,
            fault_counters: FaultCounters::default(),
        }
    }

    /// A GTX970 device (the paper's machine).
    #[must_use]
    pub fn gtx970() -> Self {
        Self::new(DeviceConfig::gtx970())
    }

    /// Device configuration.
    #[must_use]
    pub fn config(&self) -> &DeviceConfig {
        &self.cfg
    }

    /// Replaces the timing-model constants (ablation studies).
    pub fn set_timing_params(&mut self, p: TimingParams) {
        self.timing_params = p;
    }

    /// Current timing-model constants.
    #[must_use]
    pub fn timing_params(&self) -> &TimingParams {
        &self.timing_params
    }

    /// Selects how launches replay traffic (see
    /// [`ReplayStrategy`]). Every strategy produces bit-identical
    /// counters and cache state; only wall-clock differs.
    pub fn set_replay_strategy(&mut self, s: ReplayStrategy) {
        self.replay = s;
    }

    /// Current replay strategy.
    #[must_use]
    pub fn replay_strategy(&self) -> ReplayStrategy {
        self.replay
    }

    /// Read access to global memory.
    #[must_use]
    pub fn mem(&self) -> &GlobalMem {
        &self.mem
    }

    /// Allocates `len` zeroed `f32` cells.
    pub fn alloc(&mut self, len: usize) -> BufId {
        self.mem.alloc(len)
    }

    /// Reserves address space with no backing data (traffic-only
    /// profiling of paper-scale problems).
    pub fn alloc_virtual(&mut self, len: usize) -> BufId {
        self.mem.alloc_virtual(len)
    }

    /// Allocates and uploads host data.
    pub fn upload(&mut self, src: &[f32]) -> BufId {
        self.mem.upload(src)
    }

    /// Downloads a buffer to the host.
    #[must_use]
    pub fn download(&self, id: BufId) -> Vec<f32> {
        self.mem.download(id)
    }

    /// Zeroes a buffer (like `cudaMemset`).
    pub fn memset_zero(&self, id: BufId) {
        self.mem.fill(id, 0.0);
    }

    /// Invalidates L2 contents (cold-cache start) without touching
    /// statistics.
    pub fn invalidate_l2(&mut self) {
        self.l2.invalidate();
        for l1 in &mut self.l1s {
            l1.invalidate();
        }
    }

    /// Injected-fault counters accumulated since the last call,
    /// resetting them. Includes launch-level faults (which surface as
    /// [`LaunchError`]s and therefore never appear on a profile).
    pub fn take_fault_counters(&mut self) -> FaultCounters {
        std::mem::take(&mut self.fault_counters)
    }

    /// Draws the next launch's fault schedule, charging a launch-level
    /// fault as an error. `None` means the device is fault-free.
    fn draw_faults(&mut self, kernel: &dyn Kernel) -> Result<Option<LaunchFaultPlan>, LaunchError> {
        let Some(state) = self.faults.as_mut() else {
            return Ok(None);
        };
        let total_blocks = kernel.launch_config().total_blocks();
        let draw = state.next_draw(total_blocks, self.cfg.num_sms);
        if let Some(lf) = draw.launch_fault {
            self.fault_counters.launch_faults += 1;
            return Err(match lf {
                LaunchFault::SmLost { sm } => LaunchError::SmLost { sm },
                LaunchFault::Watchdog { limit_ms } => LaunchError::WatchdogTimeout { limit_ms },
            });
        }
        Ok(Some(draw.plan))
    }

    /// Applies the plan's DRAM word flips over the kernel's declared
    /// writable, materialised buffers (a kernel that declares no
    /// [`crate::kernel::BufferUse`] extents cannot be hit). Returns
    /// the number of flips applied.
    fn apply_dram_faults(&self, kernel: &dyn Kernel, plan: &LaunchFaultPlan) -> u64 {
        if plan.dram.is_empty() {
            return 0;
        }
        let targets: Vec<(BufId, u64)> = kernel
            .analysis_budget()
            .buffers
            .iter()
            .filter(|b| b.writes && !self.mem.is_virtual(b.buf))
            .map(|b| (b.buf, b.len.min(self.mem.len(b.buf)) as u64))
            .filter(|&(_, len)| len > 0)
            .collect();
        let total: u64 = targets.iter().map(|&(_, len)| len).sum();
        if total == 0 {
            return 0;
        }
        let mut applied = 0u64;
        for &(word_pick, bit) in &plan.dram {
            let mut idx = word_pick % total;
            for &(buf, len) in &targets {
                if idx < len {
                    let v = self.mem.load(buf, idx as usize);
                    self.mem.store(buf, idx as usize, flip_bit(v, bit));
                    applied += 1;
                    break;
                }
                idx -= len;
            }
        }
        applied
    }

    /// Profiles a kernel: replays its traffic (no numerics) through
    /// the memory system and runs the timing model.
    ///
    /// # Errors
    /// Returns a [`LaunchError`] if the launch violates device limits.
    pub fn launch(&mut self, kernel: &dyn Kernel) -> Result<KernelProfile, LaunchError> {
        validate_launch(&self.cfg, kernel)?;
        // Launch-level faults can kill a profiling launch too; the
        // bit-flip schedule is irrelevant here (replay touches no
        // functional data) but the draw still advances the epoch so
        // profiling and functional runs stay in lockstep.
        let _plan = self.draw_faults(kernel)?;
        let before = self.l2.stats();
        // L1s are not coherent across kernels: invalidate at launch.
        for l1 in &mut self.l1s {
            l1.invalidate();
        }
        let counters = replay::replay(
            &self.mem,
            &mut self.l2,
            &mut self.l1s,
            &self.cfg,
            kernel,
            self.replay,
        );
        self.l2.flush_dirty();
        let after = self.l2.stats();
        Ok(self.finish_profile(kernel, counters, before, after))
    }

    /// Runs a kernel functionally (parallel, no counters). A launch
    /// without a fault plan first offers the kernel its block-native
    /// path ([`Kernel::execute_native`]); everything else, and every
    /// kernel that declines, runs on the warp interpreter.
    ///
    /// # Errors
    /// Returns a [`LaunchError`] if the launch violates device limits.
    pub fn run(&mut self, kernel: &dyn Kernel) -> Result<(), LaunchError> {
        validate_launch(&self.cfg, kernel)?;
        let plan = self.draw_faults(kernel)?;
        let smem_words = kernel.resources().smem_bytes_per_block as usize / 4;
        match plan {
            None => {
                if !kernel.execute_native(&self.mem) {
                    exec::run_functional(&self.mem, kernel, smem_words);
                }
            }
            Some(plan) => {
                exec::run_functional_with_faults(&self.mem, kernel, smem_words, &plan);
                self.fault_counters.merge(&FaultCounters {
                    smem_flips: plan.applied_smem(),
                    reg_flips: plan.applied_reg(),
                    dram_flips: self.apply_dram_faults(kernel, &plan),
                    launch_faults: 0,
                });
            }
        }
        Ok(())
    }

    /// Runs a kernel functionally **and** profiles it — used to
    /// validate that `block_traffic` replays exactly what
    /// `execute_block` does.
    ///
    /// Functional counting always walks blocks **sequentially**
    /// regardless of the device's [`ReplayStrategy`]: the numerics
    /// mutate shared global memory, so blocks must observe each
    /// other's writes in launch order. The per-block counters are
    /// still harvested individually and folded through the same
    /// grid-order merge the traffic replay engine uses, so the totals
    /// agree with [`GpuDevice::launch`] by construction.
    ///
    /// # Errors
    /// Returns a [`LaunchError`] if the launch violates device limits.
    pub fn run_counted(&mut self, kernel: &dyn Kernel) -> Result<KernelProfile, LaunchError> {
        validate_launch(&self.cfg, kernel)?;
        let plan = self.draw_faults(kernel)?;
        let smem_words = kernel.resources().smem_bytes_per_block as usize / 4;
        let before = self.l2.stats();
        for l1 in &mut self.l1s {
            l1.invalidate();
        }
        let mut sink = TrafficSink::new(
            &self.mem,
            &mut self.l2,
            self.cfg.sector_bytes,
            self.cfg.smem_banks,
        );
        if !self.l1s.is_empty() {
            sink.set_l1s(&mut self.l1s);
        }
        let per_block = match plan.as_ref() {
            None => {
                exec::run_functional_counted_per_block(&self.mem, kernel, smem_words, &mut sink)
            }
            Some(plan) => exec::run_functional_counted_per_block_with_faults(
                &self.mem, kernel, smem_words, &mut sink, plan,
            ),
        };
        let counters = replay::merge_grid_order(&per_block);
        self.l2.flush_dirty();
        let after = self.l2.stats();
        let mut prof = self.finish_profile(kernel, counters, before, after);
        if let Some(plan) = plan {
            prof.faults = FaultCounters {
                smem_flips: plan.applied_smem(),
                reg_flips: plan.applied_reg(),
                dram_flips: self.apply_dram_faults(kernel, &plan),
                launch_faults: 0,
            };
            self.fault_counters.merge(&prof.faults);
        }
        Ok(prof)
    }

    fn finish_profile(
        &self,
        kernel: &dyn Kernel,
        counters: crate::profiler::Counters,
        before: crate::cache::CacheStats,
        after: crate::cache::CacheStats,
    ) -> KernelProfile {
        let mem = MemTraffic::from_delta(&before, &after);
        let res = kernel.resources();
        let occ = occupancy(&self.cfg, &res);
        let lc = kernel.launch_config();
        let hints = kernel.timing_hints();
        let timing = timing::estimate(
            &self.cfg,
            &self.timing_params,
            &hints,
            &counters,
            &mem,
            &occ,
            lc.total_blocks(),
        );
        KernelProfile {
            name: kernel.name(),
            launch: lc,
            resources: res,
            occupancy: occ,
            counters,
            mem,
            timing,
            faults: FaultCounters::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dim::{Dim3, LaunchConfig};
    use crate::exec::BlockCtx;
    use crate::kernel::KernelResources;
    use crate::traffic::full_warp_idx;

    /// Streams `n` words: read x, write y, one warp per block.
    struct Streamer {
        x: BufId,
        y: BufId,
        n: usize,
    }

    impl Kernel for Streamer {
        fn name(&self) -> String {
            "streamer".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d((self.n as u32).div_ceil(32)), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let base = block.x as usize * 32;
            let idx = full_warp_idx(|l| base + l);
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.warp_st_global(self.y, &idx, &v);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let base = block.x as usize * 32;
            let idx = full_warp_idx(|l| base + l);
            sink.global_read(self.x, &idx, 1);
            sink.global_write(self.y, &idx, 1);
        }
    }

    #[test]
    fn launch_counts_cold_misses_and_writebacks() {
        let mut dev = GpuDevice::gtx970();
        let n = 32 * 1024;
        let x = dev.alloc(n);
        let y = dev.alloc(n);
        let p = dev.launch(&Streamer { x, y, n }).unwrap();
        // 4KB... n*4 bytes = 128KB each; sectors = n*4/32 = 4096.
        assert_eq!(p.mem.dram_reads(), 4096);
        assert_eq!(
            p.mem.dram_writes, 4096,
            "flush at kernel boundary charges the writes"
        );
        assert_eq!(p.counters.global_load_insts, 1024);
        assert!(p.timing.time_s > 0.0);
    }

    #[test]
    fn l2_persists_across_launches() {
        let mut dev = GpuDevice::gtx970();
        let n = 8 * 1024; // 32KB < L2
        let x = dev.alloc(n);
        let y = dev.alloc(n);
        let k = Streamer { x, y, n };
        let p1 = dev.launch(&k).unwrap();
        let p2 = dev.launch(&k).unwrap();
        assert!(
            p2.mem.dram_reads() < p1.mem.dram_reads() / 10,
            "second pass should hit residual L2 lines: {} vs {}",
            p2.mem.dram_reads(),
            p1.mem.dram_reads()
        );
    }

    #[test]
    fn invalidate_l2_restores_cold_behaviour() {
        let mut dev = GpuDevice::gtx970();
        let n = 8 * 1024;
        let x = dev.alloc(n);
        let y = dev.alloc(n);
        let k = Streamer { x, y, n };
        let p1 = dev.launch(&k).unwrap();
        dev.invalidate_l2();
        let p2 = dev.launch(&k).unwrap();
        assert_eq!(p1.mem.dram_reads(), p2.mem.dram_reads());
    }

    #[test]
    fn run_counted_agrees_with_launch_on_memory_counters() {
        let n = 4096;
        let mk = |dev: &mut GpuDevice| {
            let x = dev.upload(&vec![1.0; n]);
            let y = dev.alloc(n);
            Streamer { x, y, n }
        };
        let mut d1 = GpuDevice::gtx970();
        let k1 = mk(&mut d1);
        let p1 = d1.launch(&k1).unwrap();
        let mut d2 = GpuDevice::gtx970();
        let k2 = mk(&mut d2);
        let p2 = d2.run_counted(&k2).unwrap();
        assert_eq!(p1.counters, p2.counters);
        assert_eq!(p1.mem, p2.mem);
        // And the functional path actually moved the data.
        assert_eq!(d2.download(k2.y), vec![1.0; n]);
    }

    /// Homogeneous tiled kernel declaring a block class: every block
    /// reads/writes a 32-element tile at `block.x * stride`.
    struct Tiled {
        x: BufId,
        y: BufId,
        blocks: u32,
        /// Element stride between consecutive block tiles. 32 keeps
        /// translations sector-aligned; 3 forces the sub-sector
        /// fallback.
        stride: usize,
    }

    impl Kernel for Tiled {
        fn name(&self) -> String {
            "tiled".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d(self.blocks), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn traffic_homogeneous(&self) -> bool {
            true
        }
        fn execute_block(&self, block: Dim3, ctx: &mut BlockCtx) {
            let base = block.x as usize * self.stride;
            let idx = full_warp_idx(|l| base + l);
            let v = ctx.warp_ld_global(self.x, &idx);
            ctx.warp_st_global(self.y, &idx, &v);
        }
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            let base = block.x as usize * self.stride;
            let idx = full_warp_idx(|l| base + l);
            sink.global_read(self.x, &idx, 1);
            sink.ffma(1);
            sink.global_write(self.y, &idx, 1);
        }
        fn block_class(&self, block: Dim3) -> Option<crate::kernel::BlockClass> {
            let base = block.x as usize * self.stride;
            Some(crate::kernel::BlockClass {
                key: 0,
                anchors: vec![(self.x, base), (self.y, base)],
            })
        }
    }

    fn profile_with(strategy: ReplayStrategy, stride: usize) -> KernelProfile {
        let mut dev = GpuDevice::gtx970();
        dev.set_replay_strategy(strategy);
        let x = dev.alloc(64 * 64);
        let y = dev.alloc(64 * 64);
        dev.launch(&Tiled {
            x,
            y,
            blocks: 64,
            stride,
        })
        .unwrap()
    }

    #[test]
    fn parallel_replay_matches_serial_on_homogeneous_kernel() {
        for stride in [32usize, 3] {
            let serial = profile_with(ReplayStrategy::Serial, stride);
            for threads in [1, 2, 7, 16] {
                for memoize in [false, true] {
                    let par = profile_with(
                        ReplayStrategy::Parallel {
                            memoize,
                            threads: Some(threads),
                        },
                        stride,
                    );
                    assert_eq!(
                        serial.counters, par.counters,
                        "stride {stride}, {threads} threads, memoize {memoize}"
                    );
                    assert_eq!(serial.mem, par.mem, "stride {stride}, {threads} threads");
                }
            }
        }
    }

    #[test]
    fn parallel_replay_matches_serial_on_heterogeneous_kernel() {
        let n = 32 * 1024;
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(n);
            let y = dev.alloc(n);
            dev.launch(&Streamer { x, y, n }).unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        let par = run(ReplayStrategy::Parallel {
            memoize: true,
            threads: Some(5),
        });
        assert_eq!(serial.counters, par.counters);
        assert_eq!(serial.mem, par.mem);
    }

    #[test]
    fn parallel_replay_matches_serial_with_l1s() {
        let mut cfg = crate::config::DeviceConfig::gtx970();
        cfg.l1_cache_global_loads = true;
        let n = 16 * 1024;
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::new(cfg.clone());
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(n);
            let y = dev.alloc(n);
            dev.launch(&Streamer { x, y, n }).unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        for threads in [1, 4] {
            let par = run(ReplayStrategy::Parallel {
                memoize: true,
                threads: Some(threads),
            });
            assert_eq!(serial.counters, par.counters, "{threads} threads");
            assert_eq!(serial.mem, par.mem, "{threads} threads");
        }
    }

    /// A kernel that mis-declares its class (all blocks claim the
    /// same key and anchors, but block 1 actually strides
    /// differently): the per-class spot-check must catch it and fall
    /// back to direct replay, keeping parallel == serial.
    struct Liar {
        x: BufId,
    }

    impl Kernel for Liar {
        fn name(&self) -> String {
            "liar".into()
        }
        fn launch_config(&self) -> LaunchConfig {
            LaunchConfig::new(Dim3::new_1d(4), 32u32)
        }
        fn resources(&self) -> KernelResources {
            KernelResources {
                threads_per_block: 32,
                regs_per_thread: 16,
                smem_bytes_per_block: 0,
            }
        }
        fn traffic_homogeneous(&self) -> bool {
            true
        }
        fn execute_block(&self, _: Dim3, _: &mut BlockCtx) {}
        fn block_traffic(&self, block: Dim3, sink: &mut crate::traffic::TrafficSink) {
            // Block 1 secretly reads with a gather the others don't.
            let mul = if block.x == 1 { 2 } else { 1 };
            let idx = full_warp_idx(|l| l * mul);
            sink.global_read(self.x, &idx, 1);
        }
        fn block_class(&self, _: Dim3) -> Option<crate::kernel::BlockClass> {
            Some(crate::kernel::BlockClass {
                key: 7,
                anchors: vec![(self.x, 0)],
            })
        }
    }

    #[test]
    fn memo_spot_check_catches_mis_declared_class() {
        let run = |strategy: ReplayStrategy| {
            let mut dev = GpuDevice::gtx970();
            dev.set_replay_strategy(strategy);
            let x = dev.alloc(256);
            dev.launch(&Liar { x }).unwrap()
        };
        let serial = run(ReplayStrategy::Serial);
        let par = run(ReplayStrategy::Parallel {
            memoize: true,
            threads: Some(4),
        });
        assert_eq!(serial.counters, par.counters);
        assert_eq!(serial.mem, par.mem);
    }

    #[test]
    fn launch_rejects_invalid_kernel() {
        struct Bad;
        impl Kernel for Bad {
            fn name(&self) -> String {
                "bad".into()
            }
            fn launch_config(&self) -> LaunchConfig {
                LaunchConfig::new(1u32, 2048u32)
            }
            fn resources(&self) -> KernelResources {
                KernelResources {
                    threads_per_block: 2048,
                    regs_per_thread: 8,
                    smem_bytes_per_block: 0,
                }
            }
            fn execute_block(&self, _: Dim3, _: &mut BlockCtx) {}
            fn block_traffic(&self, _: Dim3, _: &mut crate::traffic::TrafficSink) {}
        }
        let mut dev = GpuDevice::gtx970();
        assert!(matches!(
            dev.launch(&Bad),
            Err(LaunchError::TooManyThreads { .. })
        ));
    }

    #[test]
    fn profile_carries_occupancy() {
        let mut dev = GpuDevice::gtx970();
        let x = dev.alloc(32);
        let y = dev.alloc(32);
        let p = dev.launch(&Streamer { x, y, n: 32 }).unwrap();
        assert_eq!(p.occupancy.blocks_per_sm, 32); // tiny kernel, block-limited
    }
}
