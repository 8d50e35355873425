//! Multi-device sharded serving: the `ks-pool` routing tier.
//!
//! Kernel summation is a pure sum over the source set, so a row-wise
//! partition of `A` across devices merges *exactly*: output row `i`
//! depends only on its own `A` row (plus all of `B`/`W`), and both
//! backends evaluate that row in a fixed order independent of the
//! partition. The pool exploits this: each batch is sharded over `N`
//! simulated devices with [`shard_ranges`] (128-row aligned, matching
//! the GPU block tile), the per-device partial `V` slices are merged
//! by concatenation in shard order, and the pooled result is
//! **bit-identical** to the single-device solve — the invariant
//! `tests/pool_differential.rs` pins.
//!
//! Architecture:
//!
//! * The **coordinator** (the server's worker thread) owns the
//!   per-device shard-plan caches and all placement decisions, made
//!   synchronously at enqueue time via [`crate::router::place`] —
//!   cache-first, then load-aware. Keeping routing out of the device
//!   threads makes warm/cold accounting (and therefore transfer bytes
//!   and simulated time) deterministic.
//! * Each device has a bounded task queue and a host thread. Idle
//!   threads **steal** from other queues (deterministic ring scan),
//!   but a stolen task still executes against its *owner's* device
//!   model, breaker and interconnect — stealing parallelises the
//!   host-side simulation without changing any modelled outcome.
//! * Each device has its own [`DeviceConfig`] (including an optional
//!   fault spec) and circuit breaker. A shard attempt that fails to
//!   launch or trips ABFT verification records a failure on *its own*
//!   breaker and completes on the bit-exact CPU fused path, so a sick
//!   device degrades without taking the pool down — and without ever
//!   failing a batch.
//! * Host↔device traffic is charged per shard through the owner's
//!   [`Interconnect`]: the shard's `A`-pack + norms upload on a cold
//!   placement, the `B`/`W` uploads and the `V` download always. The
//!   costs land as transfer entries on the shard's pipeline profile
//!   and in the per-device report.
//!
//! Simulated batch latency is the **max** over shard pipelines
//! (kernels + transfers): devices run concurrently, so the slowest
//! shard sets the pace. [`PoolReport::sim_time_s`] accumulates that
//! per-batch max — the quantity `pool_bench` compares across pool
//! sizes.

use std::collections::{HashMap, HashSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use ks_core::plan::{shard_ranges, SourcePlan};
use ks_core::problem::PointSet;
use ks_core::FusedCpuConfig;
use ks_gpu_kernels::{TileGeometry, VerifyReport};
use ks_gpu_sim::config::{DeviceConfig, Interconnect};
use ks_gpu_sim::device::GpuDevice;
use ks_gpu_sim::fault::{DevicePhase, LifecycleSpec, LifecycleState, LinkFaultState};
use ks_gpu_sim::profiler::PipelineProfile;
use ks_gpu_sim::timing::{estimate_transfer, estimate_transfer_faulted};

use crate::cache::{PlanCacheStats, PlanKey};
use crate::executor;
use crate::health::{lifecycle_counter, HealthConfig, HealthMonitor, ShardHealth};
use crate::packed::{self, PackedSegment};
use crate::queue::BoundedQueue;
use crate::server::{
    injected_data_faults, splitmix64, Breaker, Query, ResilienceConfig, ServeBackend,
};

/// Rows per shard-alignment tile: the GPU block tile, so shard
/// boundaries never split a 128-row block and padding stays minimal.
pub const SHARD_ALIGN: usize = 128;

/// One slot of the pool: a device model plus the link it sits on.
#[derive(Debug, Clone)]
pub struct PoolDevice {
    /// The simulated device (its own fault spec, clocks, caches).
    pub device: DeviceConfig,
    /// The host↔device link shard traffic is charged through (its own
    /// optional link-fault spec — see
    /// [`ks_gpu_sim::fault::LinkFaultSpec`]).
    pub interconnect: Interconnect,
    /// Device-lifecycle fault injection (hang/loss/recovery per pool
    /// batch), or `None` for a device that never flaps. A property of
    /// the *slot*, like the interconnect.
    pub lifecycle: Option<LifecycleSpec>,
}

/// Pool shape and sizing.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// The devices; shard count per batch is at most `devices.len()`.
    pub devices: Vec<PoolDevice>,
    /// Per-device task queue bound.
    pub queue_capacity: usize,
    /// Per-device shard-plan cache capacity (entries).
    pub plan_cache_capacity: usize,
    /// Shard alignment in rows. Keep it a multiple of [`SHARD_ALIGN`]
    /// (the GPU block tile) for the bit-identity argument to cover the
    /// GPU backend.
    pub shard_align: usize,
    /// Eviction/readmission policy of the pool's health monitor.
    pub health: HealthConfig,
}

impl PoolConfig {
    /// `n` identical devices on identical links, with defaults sized
    /// so one batch's shards never deadlock on queue backpressure.
    ///
    /// # Panics
    /// Panics if `n == 0`.
    #[must_use]
    pub fn homogeneous(n: usize, device: DeviceConfig, interconnect: Interconnect) -> Self {
        assert!(n > 0, "pool needs at least one device");
        Self {
            devices: vec![
                PoolDevice {
                    device,
                    interconnect,
                    lifecycle: None,
                };
                n
            ],
            queue_capacity: (2 * n).max(4),
            plan_cache_capacity: 8,
            shard_align: SHARD_ALIGN,
            health: HealthConfig::default(),
        }
    }
}

/// Per-device accounting, reported at shutdown.
#[derive(Debug, Clone, Default)]
pub struct DeviceReport {
    /// Device name (from its config).
    pub name: String,
    /// Shard tasks placed on (owned by) this device.
    pub shard_tasks: u64,
    /// Tasks this device's thread executed (own or stolen).
    pub executed: u64,
    /// Of `executed`: tasks stolen from another device's queue.
    pub stolen: u64,
    /// Shards completed on this device's GPU model.
    pub gpu_shards: u64,
    /// Shards recovered on the bit-exact CPU path (launch failure,
    /// detected corruption, or an open breaker).
    pub cpu_fallbacks: u64,
    /// ABFT verification failures on this device's attempts.
    pub corruption_detected: u64,
    /// Injected data-fault events observed in completed profiles.
    pub injected_faults: u64,
    /// Circuit-breaker transitions to open.
    pub breaker_trips: u64,
    /// Circuit-breaker recoveries.
    pub breaker_resets: u64,
    /// Health-monitor evictions (flaps count each time).
    pub evictions: u64,
    /// Health-monitor readmissions after a successful probe.
    pub readmissions: u64,
    /// Attempts that hit a lifecycle hang on this device.
    pub lifecycle_hangs: u64,
    /// Attempts that hit a (permanent) lifecycle loss.
    pub lifecycle_losses: u64,
    /// Transfers over this device's link that timed out (each fails
    /// its shard attempt; the shard recovers on the CPU path).
    pub link_timeouts: u64,
    /// In-flight corruptions the link CRC check caught.
    pub link_crc_detected: u64,
    /// Retransmissions recovering those corruptions.
    pub link_retransmits: u64,
    /// Shard-plan cache counters (coordinator-resolved).
    pub plan_cache: PlanCacheStats,
    /// Bytes moved over this device's interconnect.
    pub transfer_bytes: u64,
    /// Modelled time spent moving them, in seconds.
    pub transfer_time_s: f64,
    /// Summed simulated pipeline time of this device's GPU shards
    /// (kernels + transfers).
    pub busy_time_s: f64,
}

/// Pool-level accounting, attached to
/// [`crate::server::ServeReport::pool`].
#[derive(Debug, Clone, Default)]
pub struct PoolReport {
    /// Per-device reports, in device order.
    pub devices: Vec<DeviceReport>,
    /// Batches the pool executed.
    pub batches: u64,
    /// Shard tasks across all batches.
    pub shard_tasks: u64,
    /// Tasks executed by a thread other than their owner's.
    pub stolen_tasks: u64,
    /// Simulated serving time: Σ over batches of the slowest shard's
    /// pipeline time (devices run concurrently).
    pub sim_time_s: f64,
}

impl PoolReport {
    /// Total shards recovered on the CPU path across devices.
    #[must_use]
    pub fn total_fallbacks(&self) -> u64 {
        self.devices.iter().map(|d| d.cpu_fallbacks).sum()
    }

    /// Total breaker trips across devices.
    #[must_use]
    pub fn total_trips(&self) -> u64 {
        self.devices.iter().map(|d| d.breaker_trips).sum()
    }

    /// Total health-monitor evictions across devices.
    #[must_use]
    pub fn total_evictions(&self) -> u64 {
        self.devices.iter().map(|d| d.evictions).sum()
    }

    /// Total readmissions across devices.
    #[must_use]
    pub fn total_readmissions(&self) -> u64 {
        self.devices.iter().map(|d| d.readmissions).sum()
    }

    /// Total link timeouts across devices.
    #[must_use]
    pub fn total_link_timeouts(&self) -> u64 {
        self.devices.iter().map(|d| d.link_timeouts).sum()
    }
}

/// What one batch hands back to the server loop.
pub(crate) struct PoolBatch {
    /// Per-query result columns, merged to full `M` length.
    pub results: Vec<Vec<f32>>,
    /// Shard pipeline profiles in shard order (pure-CPU shards have
    /// none).
    pub profiles: Vec<PipelineProfile>,
    /// ABFT verification failures across the batch's shards.
    pub corruption_detected: u64,
    /// Injected data faults observed across the batch's shards.
    pub injected_faults: u64,
    /// Shards that recovered on the CPU path this batch.
    pub fallback_shards: u64,
    /// Shards whose completed GPU attempt recorded injected faults
    /// the checks (if any) did not catch — masked flips or faults
    /// outside ABFT coverage.
    pub undetected_shards: u64,
}

/// Result of one shard task.
struct ShardOutcome {
    /// Per-query columns over the shard's rows.
    results: Vec<Vec<f32>>,
    profile: Option<PipelineProfile>,
    fallback: bool,
    corruption: u64,
    injected: u64,
    /// What the attempt revealed about the owner device's health.
    health: ShardHealth,
    /// Lifecycle fault that forced the fallback, if any.
    lifecycle: Option<DevicePhase>,
}

/// Rendezvous for one batch's tasks (row shards or packed
/// sub-launches).
struct BatchMerge<T> {
    slots: Mutex<Vec<Option<T>>>,
    done: Condvar,
}

impl<T> BatchMerge<T> {
    fn new(slots: usize) -> Self {
        Self {
            slots: Mutex::new((0..slots).map(|_| None).collect()),
            done: Condvar::new(),
        }
    }

    fn complete(&self, slot: usize, outcome: T) {
        let mut g = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        debug_assert!(g[slot].is_none(), "merge slot filled twice");
        g[slot] = Some(outcome);
        drop(g);
        self.done.notify_all();
    }

    /// Blocks until every slot is filled; returns outcomes in slot
    /// order.
    fn wait(&self) -> Vec<T> {
        let mut g = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        loop {
            if g.iter().all(Option::is_some) {
                return g
                    .iter_mut()
                    .map(|s| s.take().expect("all filled"))
                    .collect();
            }
            g = self.done.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// One unit of device work: a shard of one coalesced batch, bound at
/// placement time to its owner device's model, link, warmth and
/// breaker — so a steal changes *which host thread* runs the
/// simulation, never what is simulated.
struct ShardTask {
    plan: Arc<SourcePlan>,
    targets: Arc<PointSet>,
    h: f32,
    weights: Arc<Vec<Vec<f32>>>,
    warm: bool,
    /// The tile geometry the server resolved (and admitted) for the
    /// batch.
    geometry: TileGeometry,
    owner: usize,
    device: DeviceConfig,
    interconnect: Interconnect,
    /// The owner's lifecycle phase this batch, drawn by the
    /// coordinator and bound here so a steal never re-draws it.
    phase: DevicePhase,
    batch_idx: u64,
    slot: usize,
    merge: Arc<BatchMerge<ShardOutcome>>,
}

/// One device's slice of a horizontally-fused wave: the segments
/// placed on `owner`, executed as a single packed launch on its
/// device model (see [`crate::packed`]). Like [`ShardTask`], bound at
/// placement time so a steal never changes what is simulated.
struct PackedTask {
    /// The owner's segments, warm flags resolved against its history.
    segments: Vec<PackedSegment>,
    /// Wave-level index of each segment (for the merge).
    seg_indices: Vec<usize>,
    /// The tile geometry the server resolved for the packed group.
    geometry: TileGeometry,
    owner: usize,
    device: DeviceConfig,
    interconnect: Interconnect,
    /// The owner's lifecycle phase this wave (coordinator-drawn).
    phase: DevicePhase,
    batch_idx: u64,
    slot: usize,
    merge: Arc<BatchMerge<PackedTaskOutcome>>,
}

/// Result of one packed sub-launch.
struct PackedTaskOutcome {
    /// Wave-level index of each segment, matching `results`/`fallback`.
    seg_indices: Vec<usize>,
    /// Per-segment per-query result columns.
    results: Vec<Vec<Vec<f32>>>,
    /// Per-segment CPU-recovery flags (launch failure, detected
    /// corruption, or an open breaker).
    fallback: Vec<bool>,
    profile: Option<PipelineProfile>,
    corruption: u64,
    injected: u64,
    /// Whether a fused GPU launch completed on the owner's device.
    gpu_launch: bool,
    /// What the sub-launch revealed about the owner's health.
    health: ShardHealth,
    /// Lifecycle fault that forced the recovery, if any.
    lifecycle: Option<DevicePhase>,
}

/// A unit of device work: a row shard of one coalesced batch, or one
/// device's packed sub-launch of a horizontally-fused wave.
enum PoolTask {
    Shard(ShardTask),
    Packed(PackedTask),
}

/// Execution policy shared by every device thread.
struct PoolPolicy {
    /// Serve shards on the CPU fused path only (no GPU, no breaker).
    cpu_only: bool,
    /// Run GPU shard attempts through the ABFT-verified pipeline.
    verify: bool,
    cpu: FusedCpuConfig,
}

/// State shared between the coordinator and the device threads.
struct Shared {
    queues: Vec<Arc<BoundedQueue<PoolTask>>>,
    breakers: Vec<Mutex<Breaker>>,
    stats: Vec<Mutex<DeviceReport>>,
    policy: PoolPolicy,
    /// Bumped (under the lock) whenever work is enqueued.
    work_seq: Mutex<u64>,
    work: Condvar,
    closed: AtomicBool,
}

/// Key of the per-device shard-plan caches: the batch-level plan key
/// plus the shard's full row range. Both endpoints matter — shards of
/// one corpus share a start row whenever an eviction or readmission
/// re-plans the shard count (`0..128` in a four-way split, `0..256`
/// in the three-way split that replaces it), and equal-length shards
/// share an extent — so either alone would alias.
#[derive(PartialEq, Eq, Hash, Clone, Copy)]
struct ShardKey {
    plan: PlanKey,
    row0: usize,
    rows: usize,
}

const NIL: usize = usize::MAX;

/// A small O(1) LRU map for shard plans — same intrusive-list design
/// as [`crate::cache::PlanCache`], private to the pool because its
/// key carries the shard offset.
struct ShardPlanCache {
    capacity: usize,
    map: HashMap<ShardKey, usize>,
    slab: Vec<(ShardKey, Arc<SourcePlan>, usize, usize)>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
    stats: PlanCacheStats,
}

impl ShardPlanCache {
    fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "shard-plan cache capacity must be positive");
        Self {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            stats: PlanCacheStats::default(),
        }
    }

    fn contains(&self, key: &ShardKey) -> bool {
        self.map.contains_key(key)
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.slab[idx].2, self.slab[idx].3);
        if prev == NIL {
            self.head = next;
        } else {
            self.slab[prev].3 = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slab[next].2 = prev;
        }
    }

    fn push_mru(&mut self, idx: usize) {
        self.slab[idx].2 = self.tail;
        self.slab[idx].3 = NIL;
        if self.tail == NIL {
            self.head = idx;
        } else {
            self.slab[self.tail].3 = idx;
        }
        self.tail = idx;
    }

    /// Returns `(shard plan, was_hit)`, building by slicing `full` on
    /// a miss.
    fn get_or_slice(
        &mut self,
        key: ShardKey,
        full: &SourcePlan,
        rows: std::ops::Range<usize>,
    ) -> (Arc<SourcePlan>, bool) {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_mru(idx);
            self.stats.hits += 1;
            return (Arc::clone(&self.slab[idx].1), true);
        }
        self.stats.misses += 1;
        if self.map.len() >= self.capacity {
            let victim = self.head;
            self.unlink(victim);
            self.map.remove(&self.slab[victim].0);
            self.free.push(victim);
            self.stats.evictions += 1;
        }
        let plan = Arc::new(full.shard(rows));
        let entry = (key, Arc::clone(&plan), NIL, NIL);
        let idx = match self.free.pop() {
            Some(slot) => {
                self.slab[slot] = entry;
                slot
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.push_mru(idx);
        self.map.insert(key, idx);
        (plan, false)
    }
}

/// The device pool. Owned by the server's worker thread; one instance
/// lives for the server's lifetime so breakers and shard-plan caches
/// persist across batches.
pub(crate) struct DevicePool {
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    /// Immutable device table (model + link per slot).
    devices: Vec<PoolDevice>,
    /// Coordinator-owned per-device shard-plan caches.
    caches: Vec<ShardPlanCache>,
    /// Per-device corpus warmth for packed placement: plan identities
    /// this device has already uploaded (so a repeat segment routes
    /// warm and skips the `A`+norms transfer, mirroring the shard
    /// caches).
    packed_warm: Vec<HashSet<u64>>,
    shard_align: usize,
    /// Per-device lifecycle generators (`None` = never flaps),
    /// advanced once per batch/wave on the coordinator so the phase
    /// trajectory is deterministic and evicted devices keep aging
    /// (a hung device can recover while out of the placement set).
    lifecycles: Vec<Option<LifecycleState>>,
    /// Membership authority: drain → evict → readmit.
    health: HealthMonitor,
    report: PoolReport,
}

/// What one horizontally-fused wave hands back to the server loop.
pub(crate) struct PackedPoolBatch {
    /// Per-segment per-query result columns, in segment order.
    pub results: Vec<Vec<Vec<f32>>>,
    /// Per-segment CPU-recovery flags.
    pub fallback_segments: Vec<bool>,
    /// Sub-launch pipeline profiles (CPU-recovered sub-waves have
    /// none).
    pub profiles: Vec<PipelineProfile>,
    /// ABFT verification failures across the wave's segments.
    pub corruption_detected: u64,
    /// Injected data faults observed across the wave's sub-launches.
    pub injected_faults: u64,
    /// Completed fused sub-launches whose faults went undetected.
    pub undetected: u64,
    /// Fused GPU launches that completed (≤ devices touched).
    pub packed_launches: u64,
    /// Segments served through those launches.
    pub packed_segments: u64,
}

impl DevicePool {
    /// Spawns the device threads.
    ///
    /// # Panics
    /// Panics on an empty device list or zero sizing.
    pub(crate) fn start(
        pool: &PoolConfig,
        backend: ServeBackend,
        resilience: &ResilienceConfig,
        cpu: FusedCpuConfig,
    ) -> Self {
        assert!(!pool.devices.is_empty(), "pool needs at least one device");
        assert!(
            pool.queue_capacity > 0,
            "pool queue capacity must be positive"
        );
        assert!(pool.shard_align > 0, "shard alignment must be positive");
        let n = pool.devices.len();
        let policy = PoolPolicy {
            cpu_only: matches!(backend, ServeBackend::CpuFused),
            verify: matches!(backend, ServeBackend::GpuResilient) && resilience.verify,
            cpu,
        };
        let shared = Arc::new(Shared {
            queues: (0..n)
                .map(|_| Arc::new(BoundedQueue::new(pool.queue_capacity)))
                .collect(),
            breakers: (0..n)
                .map(|_| Mutex::new(Breaker::new(resilience)))
                .collect(),
            stats: pool
                .devices
                .iter()
                .map(|d| {
                    Mutex::new(DeviceReport {
                        name: d.device.name.clone(),
                        ..DeviceReport::default()
                    })
                })
                .collect(),
            policy,
            work_seq: Mutex::new(0),
            work: Condvar::new(),
            closed: AtomicBool::new(false),
        });
        let threads = (0..n)
            .map(|me| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || device_loop(me, &shared))
            })
            .collect();
        Self {
            shared,
            threads,
            devices: pool.devices.clone(),
            caches: (0..n)
                .map(|_| ShardPlanCache::new(pool.plan_cache_capacity.max(1)))
                .collect(),
            packed_warm: (0..n).map(|_| HashSet::new()).collect(),
            shard_align: pool.shard_align,
            lifecycles: pool
                .devices
                .iter()
                .map(|d| d.lifecycle.map(LifecycleState::new))
                .collect(),
            health: HealthMonitor::new(n, pool.health),
            report: PoolReport::default(),
        }
    }

    /// Advances every device's lifecycle one epoch (evicted devices
    /// included — a hung device must keep aging toward recovery) and
    /// returns the drawn phases.
    fn advance_lifecycles(&mut self) -> Vec<DevicePhase> {
        self.lifecycles
            .iter_mut()
            .map(|l| match l {
                Some(st) => st.advance(),
                None => DevicePhase::Healthy,
            })
            .collect()
    }

    /// Number of devices.
    pub(crate) fn len(&self) -> usize {
        self.devices.len()
    }

    /// Executes one coalesced batch across the pool and merges the
    /// shard results in shard order. Blocks the coordinator until
    /// every shard completes; never fails (sick shards land on the
    /// bit-exact CPU path). Only health-eligible devices receive
    /// shards — the shard count shrinks with the active set, and
    /// because the merge concatenates in slot order the pooled result
    /// stays bit-identical for *any* active count.
    pub(crate) fn run_batch(
        &mut self,
        plan: &SourcePlan,
        proto: &Query,
        weights: &[Vec<f32>],
        geometry: &TileGeometry,
        batch_idx: u64,
    ) -> PoolBatch {
        let phases = self.advance_lifecycles();
        let eligible = self.health.eligible(batch_idx);
        let active = eligible.iter().filter(|&&e| e).count();
        let (m, _) = plan.dims();
        let ranges = shard_ranges(m, active, self.shard_align);
        let key = PlanKey::new(&proto.sources, proto.h);
        let merge = Arc::new(BatchMerge::new(ranges.len()));
        let weights = Arc::new(weights.to_vec());
        // Placement load = queue depth plus what this batch already
        // placed (queues may drain faster than we enqueue).
        let mut placed = vec![0usize; self.len()];
        let mut owners = Vec::with_capacity(ranges.len());
        for (slot, rows) in ranges.iter().enumerate() {
            let skey = ShardKey {
                plan: key,
                row0: rows.start,
                rows: rows.len(),
            };
            let warm: Vec<bool> = self.caches.iter().map(|c| c.contains(&skey)).collect();
            let depth: Vec<usize> = self
                .shared
                .queues
                .iter()
                .zip(&placed)
                .map(|(q, p)| q.len() + p)
                .collect();
            let owner = crate::router::place_masked(&warm, &depth, &eligible);
            placed[owner] += 1;
            owners.push(owner);
            let (shard_plan, hit) = self.caches[owner].get_or_slice(skey, plan, rows.clone());
            self.shared.stats[owner]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .shard_tasks += 1;
            let item = PoolTask::Shard(ShardTask {
                plan: shard_plan,
                targets: Arc::clone(&proto.targets),
                h: proto.h,
                weights: Arc::clone(&weights),
                warm: hit,
                geometry: *geometry,
                owner,
                device: self.devices[owner].device.clone(),
                interconnect: self.devices[owner].interconnect.clone(),
                phase: phases[owner],
                batch_idx,
                slot,
                merge: Arc::clone(&merge),
            });
            self.enqueue(owner, item);
        }
        let outcomes = merge.wait();

        // Merge: concatenate shard rows in shard order — the fixed
        // deterministic order the bit-identity invariant needs.
        let r = weights.len();
        let mut results: Vec<Vec<f32>> = (0..r).map(|_| Vec::with_capacity(m)).collect();
        let mut profiles = Vec::new();
        let mut corruption = 0u64;
        let mut injected = 0u64;
        let mut fallback_shards = 0u64;
        let mut undetected_shards = 0u64;
        let mut batch_sim = 0.0f64;
        for (slot, o) in outcomes.into_iter().enumerate() {
            // Score health in slot order, after every in-flight shard
            // has drained: evictions are deterministic and never race
            // a live batch.
            self.health.note_outcome(owners[slot], o.health, batch_idx);
            for (c, col) in o.results.iter().enumerate() {
                results[c].extend_from_slice(col);
            }
            if let Some(p) = o.profile {
                batch_sim = batch_sim.max(p.total_time_s());
                profiles.push(p);
            }
            corruption += o.corruption;
            injected += o.injected;
            fallback_shards += u64::from(o.fallback);
            undetected_shards += u64::from(!o.fallback && o.injected > 0);
        }
        self.report.batches += 1;
        self.report.shard_tasks += ranges.len() as u64;
        self.report.sim_time_s += batch_sim;
        PoolBatch {
            results,
            profiles,
            corruption_detected: corruption,
            injected_faults: injected,
            fallback_shards,
            undetected_shards,
        }
    }

    /// Pushes one task to `owner`'s queue (spinning through
    /// backpressure — the device threads are draining) and wakes the
    /// pool.
    fn enqueue(&self, owner: usize, item: PoolTask) {
        let mut item = item;
        loop {
            match self.shared.queues[owner].try_push(item) {
                Ok(()) => break,
                Err(back) => {
                    item = back;
                    std::thread::yield_now();
                }
            }
        }
        let mut seq = self
            .shared
            .work_seq
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        *seq += 1;
        drop(seq);
        self.shared.work.notify_all();
    }

    /// Executes one horizontally-fused wave across the pool: each
    /// segment is placed whole on one device (cache-first on corpus
    /// warmth, then load-aware — the same policy as row shards), and
    /// every device owning segments runs them as **one** packed
    /// launch. Blocks until all sub-launches complete; never fails (a
    /// sick sub-launch recovers its own segments on the bit-exact CPU
    /// path, leaving the rest of the wave intact).
    pub(crate) fn run_packed(
        &mut self,
        segs: &[PackedSegment],
        geometry: &TileGeometry,
        batch_idx: u64,
    ) -> PackedPoolBatch {
        // Place each segment; a segment is "warm" on a device that
        // has already uploaded its corpus — including earlier in this
        // wave, so wave-mates sharing a corpus cluster on one device
        // and dedup its upload inside one fused launch. Only
        // health-eligible devices are considered, so an eviction
        // re-routes exactly the evicted device's segments and leaves
        // the rest of the wave's placement policy unchanged.
        let phases = self.advance_lifecycles();
        let eligible = self.health.eligible(batch_idx);
        let mut placed = vec![0usize; self.len()];
        let mut owner_of = Vec::with_capacity(segs.len());
        let mut wave_seen: Vec<HashSet<u64>> = (0..self.len()).map(|_| HashSet::new()).collect();
        for seg in segs {
            let ptr = Arc::as_ptr(&seg.plan) as u64;
            let warm: Vec<bool> = self
                .packed_warm
                .iter()
                .zip(&wave_seen)
                .map(|(seen, wave)| seen.contains(&ptr) || wave.contains(&ptr))
                .collect();
            let depth: Vec<usize> = self
                .shared
                .queues
                .iter()
                .zip(&placed)
                .map(|(q, p)| q.len() + p)
                .collect();
            let owner = crate::router::place_masked(&warm, &depth, &eligible);
            placed[owner] += 1;
            wave_seen[owner].insert(ptr);
            owner_of.push(owner);
        }
        // One sub-wave per owning device, segment order preserved.
        let mut groups: Vec<(usize, Vec<usize>)> = Vec::new();
        for (i, &owner) in owner_of.iter().enumerate() {
            match groups.iter_mut().find(|(d, _)| *d == owner) {
                Some((_, members)) => members.push(i),
                None => groups.push((owner, vec![i])),
            }
        }
        let merge = Arc::new(BatchMerge::new(groups.len()));
        for (slot, (owner, members)) in groups.iter().enumerate() {
            let owner = *owner;
            let mut segments = Vec::with_capacity(members.len());
            for &i in members {
                let s = &segs[i];
                let ptr = Arc::as_ptr(&s.plan) as u64;
                // Warm if the server's plan cache hit *or* this device
                // saw the corpus before (cold ≡ warm bitwise, so the
                // upgrade only changes modelled traffic).
                let warm = s.warm || self.packed_warm[owner].contains(&ptr);
                self.packed_warm[owner].insert(ptr);
                segments.push(PackedSegment {
                    plan: Arc::clone(&s.plan),
                    targets: Arc::clone(&s.targets),
                    h: s.h,
                    weights: s.weights.clone(),
                    warm,
                });
            }
            self.shared.stats[owner]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .shard_tasks += members.len() as u64;
            let item = PoolTask::Packed(PackedTask {
                segments,
                seg_indices: members.clone(),
                geometry: *geometry,
                owner,
                device: self.devices[owner].device.clone(),
                interconnect: self.devices[owner].interconnect.clone(),
                phase: phases[owner],
                batch_idx,
                slot,
                merge: Arc::clone(&merge),
            });
            self.enqueue(owner, item);
        }
        let outcomes = merge.wait();

        let mut results: Vec<Vec<Vec<f32>>> = (0..segs.len()).map(|_| Vec::new()).collect();
        let mut fallback_segments = vec![false; segs.len()];
        let mut profiles = Vec::new();
        let mut corruption = 0u64;
        let mut injected = 0u64;
        let mut undetected = 0u64;
        let mut packed_launches = 0u64;
        let mut packed_segments = 0u64;
        let mut batch_sim = 0.0f64;
        for (slot, o) in outcomes.into_iter().enumerate() {
            self.health
                .note_outcome(groups[slot].0, o.health, batch_idx);
            if o.gpu_launch {
                packed_launches += 1;
                packed_segments += o.seg_indices.len() as u64;
            }
            if o.injected > 0 && o.corruption == 0 && o.gpu_launch {
                undetected += 1;
            }
            corruption += o.corruption;
            injected += o.injected;
            if let Some(p) = o.profile {
                batch_sim = batch_sim.max(p.total_time_s());
                profiles.push(p);
            }
            for ((i, r), fb) in o.seg_indices.into_iter().zip(o.results).zip(o.fallback) {
                results[i] = r;
                fallback_segments[i] = fb;
            }
        }
        self.report.batches += 1;
        self.report.shard_tasks += segs.len() as u64;
        self.report.sim_time_s += batch_sim;
        PackedPoolBatch {
            results,
            fallback_segments,
            profiles,
            corruption_detected: corruption,
            injected_faults: injected,
            undetected,
            packed_launches,
            packed_segments,
        }
    }

    /// Joins the device threads and assembles the final report.
    pub(crate) fn shutdown(mut self) -> PoolReport {
        self.shared.closed.store(true, Ordering::SeqCst);
        for q in &self.shared.queues {
            q.close();
        }
        {
            let mut seq = self
                .shared
                .work_seq
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            *seq += 1;
        }
        self.shared.work.notify_all();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        let mut report = std::mem::take(&mut self.report);
        for (d, stat) in self.shared.stats.iter().enumerate() {
            let mut dr = stat.lock().unwrap_or_else(PoisonError::into_inner).clone();
            let b = self.shared.breakers[d]
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            dr.breaker_trips = b.trips;
            dr.breaker_resets = b.resets;
            dr.plan_cache = self.caches[d].stats;
            dr.evictions = self.health.evictions[d];
            dr.readmissions = self.health.readmissions[d];
            report.stolen_tasks += dr.stolen;
            report.devices.push(dr);
        }
        report
    }
}

/// Device-thread main loop: drain the own queue, steal when idle,
/// park when the pool is quiet, exit when closed and fully drained.
fn device_loop(me: usize, shared: &Arc<Shared>) {
    let n = shared.queues.len();
    loop {
        if let Some(task) = shared.queues[me].try_pop() {
            run_task(task, me, false, shared);
            continue;
        }
        // Deterministic steal scan: ring-wise from the next device.
        let mut stole = false;
        for off in 1..n {
            let victim = (me + off) % n;
            if let Some(task) = shared.queues[victim].try_pop() {
                run_task(task, me, true, shared);
                stole = true;
                break;
            }
        }
        if stole {
            continue;
        }
        if shared.closed.load(Ordering::SeqCst) {
            // Queues are closed: nothing new arrives, and the scans
            // above found them all empty.
            return;
        }
        // Park until the coordinator enqueues more work (with a
        // timeout so a lost wakeup only costs latency, not liveness).
        let seq = shared
            .work_seq
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let before = *seq;
        let mut seq = seq;
        while *seq == before && !shared.closed.load(Ordering::SeqCst) {
            let (g, timeout) = shared
                .work
                .wait_timeout(seq, std::time::Duration::from_millis(5))
                .unwrap_or_else(PoisonError::into_inner);
            seq = g;
            if timeout.timed_out() {
                break;
            }
        }
    }
}

/// Executes one pool task on the executing thread `me` (`stolen` says
/// it differs from the owner).
fn run_task(task: PoolTask, me: usize, stolen: bool, shared: &Shared) {
    match task {
        PoolTask::Shard(t) => run_shard_task(t, me, stolen, shared),
        PoolTask::Packed(t) => run_packed_task(t, me, stolen, shared),
    }
}

/// Executes one shard task on behalf of its owner device and posts the
/// outcome to the batch merge. `me` is the executing thread's device
/// index; `stolen` says it differs from the owner.
fn run_shard_task(task: ShardTask, me: usize, stolen: bool, shared: &Shared) {
    let policy = &shared.policy;
    let outcome = if policy.cpu_only {
        ShardOutcome {
            results: executor::execute_cpu(
                &task.plan,
                &task.targets,
                task.h,
                &task.weights,
                &policy.cpu,
            ),
            profile: None,
            fallback: false,
            corruption: 0,
            injected: 0,
            health: ShardHealth::Passive,
            lifecycle: None,
        }
    } else {
        run_gpu_shard(&task, shared)
    };
    {
        let mut mine = shared.stats[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        mine.executed += 1;
        if stolen {
            mine.stolen += 1;
        }
    }
    {
        let mut owner = shared.stats[task.owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if outcome.fallback {
            owner.cpu_fallbacks += 1;
        } else if outcome.profile.is_some() {
            owner.gpu_shards += 1;
        }
        owner.corruption_detected += outcome.corruption;
        owner.injected_faults += outcome.injected;
        match outcome.lifecycle {
            Some(DevicePhase::Hung) => owner.lifecycle_hangs += 1,
            Some(DevicePhase::Lost) => owner.lifecycle_losses += 1,
            _ => {}
        }
        if let Some(p) = &outcome.profile {
            owner.transfer_bytes += p.transfer_bytes();
            owner.transfer_time_s += p.transfer_time_s();
            owner.busy_time_s += p.total_time_s();
            for t in &p.transfers {
                owner.link_crc_detected += t.crc_detected;
                owner.link_retransmits += t.retransmits;
                owner.link_timeouts += u64::from(t.timed_out);
            }
        }
    }
    task.merge.complete(task.slot, outcome);
}

/// One GPU shard attempt: per-column results, the shard's pipeline
/// profile and the ABFT report when the verified path ran.
type GpuAttempt =
    Result<(Vec<Vec<f32>>, PipelineProfile, Option<VerifyReport>), ks_gpu_sim::LaunchError>;

/// The per-shard resilience ladder: (verified) GPU on the owner's
/// device, else the bit-exact CPU fused path; every failure is
/// recorded on the owner's breaker only. A lifecycle fault (hang or
/// loss drawn by the coordinator) or a link timeout fails the attempt
/// the same way a launch error does — the shard is never dropped, it
/// recovers bit-exactly on the CPU and the evidence feeds the health
/// monitor.
fn run_gpu_shard(task: &ShardTask, shared: &Shared) -> ShardOutcome {
    let policy = &shared.policy;
    let allowed = shared.breakers[task.owner]
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .allow(task.batch_idx);
    let cpu_shard = |fallback: bool,
                     corruption: u64,
                     injected: u64,
                     profile,
                     health: ShardHealth,
                     lifecycle: Option<DevicePhase>| ShardOutcome {
        results: executor::execute_cpu(
            &task.plan,
            &task.targets,
            task.h,
            &task.weights,
            &policy.cpu,
        ),
        profile,
        fallback,
        corruption,
        injected,
        health,
        lifecycle,
    };
    if !allowed {
        // Open breaker: a passive fallback, no new health evidence.
        return cpu_shard(true, 0, 0, None, ShardHealth::Passive, None);
    }
    if !task.phase.is_healthy() {
        // The coordinator drew a hang or loss for this batch: the
        // launch never starts.
        shared.breakers[task.owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_failure(task.batch_idx);
        return cpu_shard(
            true,
            0,
            0,
            None,
            ShardHealth::Failure,
            lifecycle_counter(task.phase),
        );
    }
    // Decorrelate the fault schedule per (batch, shard): a fresh
    // device restarts the launch-epoch counter, so without the reseed
    // every shard of every batch would redraw identical faults.
    let mut dev_cfg = task.device.clone();
    if let Some(f) = &mut dev_cfg.fault {
        f.seed ^= splitmix64(task.batch_idx ^ ((task.slot as u64) << 48));
    }
    let mut dev = GpuDevice::new(dev_cfg);
    let attempt: GpuAttempt = if policy.verify {
        executor::execute_gpu_verified(
            &mut dev,
            &task.plan,
            &task.targets,
            task.h,
            &task.weights,
            task.warm,
            &task.geometry,
        )
        .map(|(r, p, v)| (r, p, Some(v)))
    } else {
        executor::execute_gpu(
            &mut dev,
            &task.plan,
            &task.targets,
            task.h,
            &task.weights,
            task.warm,
            &task.geometry,
        )
        .map(|(r, p)| (r, p, None))
    };
    match attempt {
        Ok((results, mut prof, verify)) => {
            let injected = injected_data_faults(&prof);
            attach_transfers(&mut prof, task);
            if prof.transfers.iter().any(|t| t.timed_out) {
                // A link timeout: the shard's data never (fully)
                // moved, so the attempt fails like a launch error.
                // The profile is kept — the time was spent — and the
                // CRC ledger records what happened on the wire.
                shared.breakers[task.owner]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record_failure(task.batch_idx);
                return cpu_shard(true, 0, injected, Some(prof), ShardHealth::Failure, None);
            }
            if verify
                .as_ref()
                .is_some_and(VerifyReport::corruption_detected)
            {
                // Surfaced corruption: discard the shard result, fail
                // the owner's breaker, recover bit-exactly on the CPU.
                // The attempt's profile is kept — its transfers and
                // kernel time were spent.
                shared.breakers[task.owner]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record_failure(task.batch_idx);
                return cpu_shard(true, 1, injected, Some(prof), ShardHealth::Failure, None);
            }
            shared.breakers[task.owner]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_success();
            ShardOutcome {
                results,
                profile: Some(prof),
                fallback: false,
                corruption: 0,
                injected,
                health: ShardHealth::CleanGpu,
                lifecycle: None,
            }
        }
        Err(_) => {
            shared.breakers[task.owner]
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .record_failure(task.batch_idx);
            cpu_shard(true, 0, 0, None, ShardHealth::Failure, None)
        }
    }
}

/// Seed salt decorrelating the link-fault stream from the device's
/// soft-error stream of the same `(batch, slot)`.
const LINK_FAULT_SALT: u64 = 0x11f7_ab1e << 24;

/// Builds the per-task link-fault generator, if the task's link
/// carries a fault spec. Task-scoped on purpose (see
/// [`LinkFaultState`]): the seed is decorrelated by `(batch, slot)`
/// so the transfer draws are a pure function of the task identity, no
/// matter which host thread (owner or thief) executes it.
fn task_link_state(
    ic: &Interconnect,
    batch_idx: u64,
    slot: usize,
    salt: u64,
) -> Option<LinkFaultState> {
    ic.fault.map(|mut spec| {
        spec.seed ^= splitmix64(batch_idx ^ ((slot as u64) << 48) ^ LINK_FAULT_SALT ^ salt);
        LinkFaultState::new(spec)
    })
}

/// Charges one transfer, drawing from the link-fault stream when the
/// link carries one.
fn charge_transfer(
    prof: &mut PipelineProfile,
    ic: &Interconnect,
    link: &mut Option<LinkFaultState>,
    label: &str,
    bytes: u64,
) {
    let entry = match link {
        Some(st) => estimate_transfer_faulted(ic, label, bytes, st.next_draw()),
        None => estimate_transfer(ic, label, bytes),
    };
    prof.transfers.push(entry);
}

/// Charges the shard's host↔device traffic to its pipeline profile:
/// `A`-pack + norms upload on a cold placement, `B`/`W` uploads and
/// the `V` download always (logical payload sizes; padding is
/// device-side). With a quiet (or absent) link-fault spec the entries
/// are byte-identical to the fault-free model.
fn attach_transfers(prof: &mut PipelineProfile, task: &ShardTask) {
    const F32: u64 = 4;
    let (rows, k) = task.plan.dims();
    let n = task.targets.len();
    let r = task.weights.len();
    let ic = &task.interconnect;
    let mut link = task_link_state(ic, task.batch_idx, task.slot, 0);
    if !task.warm {
        charge_transfer(
            prof,
            ic,
            &mut link,
            "shard A+norms",
            (rows * k + rows) as u64 * F32,
        );
    }
    charge_transfer(prof, ic, &mut link, "targets B", (n * k) as u64 * F32);
    charge_transfer(prof, ic, &mut link, "weights W", (n * r) as u64 * F32);
    charge_transfer(prof, ic, &mut link, "result V", (rows * r) as u64 * F32);
}

/// Seed salt decorrelating a packed sub-launch's fault schedule from
/// the row-shard schedules of the same `(batch, slot)`.
const PACKED_POOL_SALT: u64 = 0x9a0c_4ed5 << 16;

/// Executes one packed sub-launch on behalf of its owner device: the
/// owner's breaker gates the fused attempt; a launch failure recovers
/// **all** of the task's segments on the bit-exact CPU path, detected
/// corruption recovers **only** the flagged segments (the rest of the
/// launch's results are kept — segments write disjoint outputs).
fn run_packed_task(task: PackedTask, me: usize, stolen: bool, shared: &Shared) {
    let policy = &shared.policy;
    let n_segs = task.segments.len();
    let cpu_seg = |seg: &PackedSegment| {
        executor::execute_cpu(&seg.plan, &seg.targets, seg.h, &seg.weights, &policy.cpu)
    };
    let all_cpu = |outcome_profile: Option<PipelineProfile>,
                   health: ShardHealth,
                   lifecycle: Option<DevicePhase>| PackedTaskOutcome {
        seg_indices: task.seg_indices.clone(),
        results: task.segments.iter().map(cpu_seg).collect(),
        fallback: vec![true; n_segs],
        profile: outcome_profile,
        corruption: 0,
        injected: 0,
        gpu_launch: false,
        health,
        lifecycle,
    };
    let allowed = !policy.cpu_only
        && shared.breakers[task.owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .allow(task.batch_idx);
    let outcome = if !allowed {
        all_cpu(None, ShardHealth::Passive, None)
    } else if !task.phase.is_healthy() {
        // Coordinator-drawn hang or loss: the fused launch never
        // starts; every segment recovers on the CPU path.
        shared.breakers[task.owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .record_failure(task.batch_idx);
        all_cpu(None, ShardHealth::Failure, lifecycle_counter(task.phase))
    } else {
        let mut dev_cfg = task.device.clone();
        if let Some(f) = &mut dev_cfg.fault {
            f.seed ^= splitmix64(task.batch_idx ^ ((task.slot as u64) << 48) ^ PACKED_POOL_SALT);
        }
        let mut dev = GpuDevice::new(dev_cfg);
        match packed::execute_gpu_packed(&mut dev, &task.segments, &task.geometry, policy.verify) {
            Ok(out) => {
                let injected = injected_data_faults(&out.profile);
                let mut prof = out.profile;
                attach_packed_transfers(&mut prof, &task);
                if prof.transfers.iter().any(|t| t.timed_out) {
                    // A link timeout fails the whole sub-launch: the
                    // wave's data never (fully) moved. The profile —
                    // with its CRC ledger — is kept; every segment
                    // recovers bit-exactly on the CPU.
                    shared.breakers[task.owner]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner)
                        .record_failure(task.batch_idx);
                    all_cpu(Some(prof), ShardHealth::Failure, None)
                } else {
                    let corrupt: Vec<bool> = match &out.verify {
                        Some(reports) => reports
                            .iter()
                            .map(VerifyReport::corruption_detected)
                            .collect(),
                        None => vec![false; n_segs],
                    };
                    let corruption = corrupt.iter().filter(|&&c| c).count() as u64;
                    {
                        let mut b = shared.breakers[task.owner]
                            .lock()
                            .unwrap_or_else(PoisonError::into_inner);
                        if corruption > 0 {
                            b.record_failure(task.batch_idx);
                        } else {
                            b.record_success();
                        }
                    }
                    let mut results = out.results;
                    for (i, flagged) in corrupt.iter().enumerate() {
                        if *flagged {
                            results[i] = cpu_seg(&task.segments[i]);
                        }
                    }
                    PackedTaskOutcome {
                        seg_indices: task.seg_indices.clone(),
                        results,
                        fallback: corrupt,
                        profile: Some(prof),
                        corruption,
                        injected,
                        gpu_launch: true,
                        health: if corruption > 0 {
                            ShardHealth::Failure
                        } else {
                            ShardHealth::CleanGpu
                        },
                        lifecycle: None,
                    }
                }
            }
            Err(_) => {
                shared.breakers[task.owner]
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .record_failure(task.batch_idx);
                all_cpu(None, ShardHealth::Failure, None)
            }
        }
    };
    {
        let mut mine = shared.stats[me]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        mine.executed += 1;
        if stolen {
            mine.stolen += 1;
        }
    }
    {
        let mut owner = shared.stats[task.owner]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let fallbacks = outcome.fallback.iter().filter(|&&f| f).count() as u64;
        owner.cpu_fallbacks += fallbacks;
        if outcome.gpu_launch {
            owner.gpu_shards += n_segs as u64 - fallbacks;
        }
        owner.corruption_detected += outcome.corruption;
        owner.injected_faults += outcome.injected;
        match outcome.lifecycle {
            Some(DevicePhase::Hung) => owner.lifecycle_hangs += 1,
            Some(DevicePhase::Lost) => owner.lifecycle_losses += 1,
            _ => {}
        }
        if let Some(p) = &outcome.profile {
            owner.transfer_bytes += p.transfer_bytes();
            owner.transfer_time_s += p.transfer_time_s();
            owner.busy_time_s += p.total_time_s();
            for t in &p.transfers {
                owner.link_crc_detected += t.crc_detected;
                owner.link_retransmits += t.retransmits;
                owner.link_timeouts += u64::from(t.timed_out);
            }
        }
    }
    task.merge.complete(task.slot, outcome);
}

/// Charges a packed sub-launch's host↔device traffic: `A`-pack +
/// norms once per **unique cold** corpus (device-side upload dedup is
/// mirrored on the link), `B` once per unique target set, `W` and `V`
/// per segment. Link faults draw from the packed-salted stream so a
/// packed wave and a row-shard batch of the same `(batch, slot)`
/// never share a schedule.
fn attach_packed_transfers(prof: &mut PipelineProfile, task: &PackedTask) {
    const F32: u64 = 4;
    let ic = &task.interconnect;
    let mut link = task_link_state(ic, task.batch_idx, task.slot, PACKED_POOL_SALT);
    let mut a_seen = HashSet::new();
    let mut b_seen = HashSet::new();
    for seg in &task.segments {
        let (rows, k) = seg.plan.dims();
        let n = seg.targets.len();
        let r = seg.weights.len();
        if a_seen.insert(Arc::as_ptr(&seg.plan) as u64) && !seg.warm {
            charge_transfer(
                prof,
                ic,
                &mut link,
                "segment A+norms",
                (rows * k + rows) as u64 * F32,
            );
        }
        if b_seen.insert(Arc::as_ptr(&seg.targets) as u64) {
            charge_transfer(prof, ic, &mut link, "segment B", (n * k) as u64 * F32);
        }
        charge_transfer(prof, ic, &mut link, "weights W", (n * r) as u64 * F32);
        charge_transfer(prof, ic, &mut link, "result V", (rows * r) as u64 * F32);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ks_core::plan::SourceSet;
    use ks_core::problem::PointSet;

    #[test]
    fn homogeneous_pool_config_sizes_sanely() {
        let cfg = PoolConfig::homogeneous(4, DeviceConfig::gtx970(), Interconnect::pcie3_x16());
        assert_eq!(cfg.devices.len(), 4);
        assert_eq!(cfg.queue_capacity, 8);
        assert_eq!(cfg.shard_align, SHARD_ALIGN);
    }

    #[test]
    #[should_panic(expected = "at least one device")]
    fn zero_device_pool_is_rejected() {
        let _ = PoolConfig::homogeneous(0, DeviceConfig::gtx970(), Interconnect::nvlink());
    }

    #[test]
    fn shard_plan_cache_is_lru_and_range_keyed() {
        let pts = PointSet::uniform_cube(8, 3, 7);
        let full = SourcePlan::build(&pts);
        let source = PlanKey::new(&SourceSet::new(pts), 1.0);
        let mut cache = ShardPlanCache::new(3);
        let k0 = ShardKey {
            plan: source,
            row0: 0,
            rows: 4,
        };
        let k4 = ShardKey {
            plan: source,
            row0: 4,
            rows: 4,
        };
        // Equal-length shards at different offsets are distinct keys.
        let (_, hit) = cache.get_or_slice(k0, &full, 0..4);
        assert!(!hit);
        let (_, hit) = cache.get_or_slice(k4, &full, 4..8);
        assert!(!hit, "same length, different offset: no aliasing");
        let (p, hit) = cache.get_or_slice(k0, &full, 0..4);
        assert!(hit);
        assert_eq!(p.dims(), (4, 3));
        // Same start, different extent — what an eviction's re-plan
        // produces — must miss, not serve the stale shorter plan.
        let k0_wide = ShardKey {
            plan: source,
            row0: 0,
            rows: 8,
        };
        let (p, hit) = cache.get_or_slice(k0_wide, &full, 0..8);
        assert!(!hit, "same offset, different extent: no aliasing");
        assert_eq!(p.dims(), (8, 3));
        assert_eq!(cache.stats.evictions, 0);
    }

    #[test]
    fn transfer_charges_scale_with_shard_and_warmth() {
        let pts = PointSet::uniform_cube(256, 4, 3);
        let full = SourcePlan::build(&pts);
        let targets = Arc::new(PointSet::uniform_cube(32, 4, 4));
        let weights = Arc::new(vec![vec![1.0f32; 32]; 2]);
        let mk = |warm: bool| ShardTask {
            plan: Arc::new(full.shard(0..128)),
            targets: Arc::clone(&targets),
            h: 1.0,
            weights: Arc::clone(&weights),
            warm,
            geometry: TileGeometry::paper_default(),
            owner: 0,
            device: DeviceConfig::gtx970(),
            interconnect: Interconnect::pcie3_x16(),
            phase: DevicePhase::Healthy,
            batch_idx: 0,
            slot: 0,
            merge: Arc::new(BatchMerge::new(1)),
        };
        let mut cold = PipelineProfile::new("t");
        attach_transfers(&mut cold, &mk(false));
        let mut warm = PipelineProfile::new("t");
        attach_transfers(&mut warm, &mk(true));
        assert_eq!(cold.transfers.len(), 4, "A+norms, B, W, V");
        assert_eq!(warm.transfers.len(), 3, "warm placement skips A");
        let a_bytes = (128 * 4 + 128) * 4;
        assert_eq!(
            cold.transfer_bytes() - warm.transfer_bytes(),
            a_bytes,
            "the cold surcharge is exactly the shard's A-pack + norms"
        );
        assert!(cold.transfer_time_s() > warm.transfer_time_s());
    }
}
