//! The serving workloads: closed, deterministic bursts through a paused
//! `ks_serve::Server`. Every query is submitted before the worker is
//! resumed, so batch composition depends only on submit order.
//!
//! The traced run records one span per query with `submit` and `wait`
//! children, plus `shutdown`. The worker's own split (coalescing, plan,
//! execute, merge) is inside `ks-serve` and is not visible from here.

use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;
use std::time::Instant;

use ks_blas::{Layout, Matrix};
use ks_core::{
    max_rel_error, solve_multi_planned, FusedCpuConfig, GaussianKernel, PointSet, SourcePlan,
    SourceSet,
};
use ks_gpu_sim::{DeviceConfig, Interconnect};
use ks_serve::{
    generate_queries, generate_small_queries, PoolConfig, Query, ServeConfig, ServeError,
    ServeReport, Server, SmallQueryWorkloadConfig, Submit, Ticket, WorkloadConfig,
};

use crate::trace::Tracer;
use crate::{bits_hash, Iteration, Workload};

/// Queries per burst: p95 keeps 12 samples beyond it.
const QUERIES: usize = 256;
/// The GPU tests' tolerance for simulated-GPU results against a CPU
/// solver (the GPU kernels reduce in another order than the CPU oracle).
const ORACLE_TOLERANCE: f32 = 5e-3;
/// Devices of the pooled workload.
const POOL_DEVICES: usize = 2;

/// A query's result and when it was first seen, once it has been.
type Seen = Option<(Result<Vec<f32>, ServeError>, Instant)>;

/// Stream seed of the coalescing burst's mix (see [`Mix`]).
const MIX_SEED: u64 = 0x6b73_2d6d_6978;

/// One query's place in the coalescing mix: which corpus and target set
/// it uses (indices in first-use order) and the corpus size.
struct Slot {
    corpus: usize,
    targets: usize,
    m: usize,
}

/// The coalescing burst's mix — which queries share a corpus and target
/// set, which use the large variant, which mint a private corpus — as
/// `generate_queries` draws it at a fixed stream seed. The run's seed
/// draws every coordinate and weight. Simulated counters depend on the
/// mix and not on the values, so every seed serves the same batches and
/// the simulated metrics do not vary from seed to seed.
struct Mix {
    slots: Vec<Slot>,
    n: usize,
    k: usize,
}

impl Mix {
    fn new(cfg: &WorkloadConfig) -> Self {
        let stream = generate_queries(cfg);
        let mut corpora = HashMap::new();
        let mut targets = HashMap::new();
        let slots = stream
            .iter()
            .map(|q| {
                let next = corpora.len();
                let corpus = *corpora.entry(q.sources.id()).or_insert(next);
                let next = targets.len();
                let t = *targets.entry(Arc::as_ptr(&q.targets)).or_insert(next);
                Slot {
                    corpus,
                    targets: t,
                    m: q.sources.len(),
                }
            })
            .collect();
        Self {
            slots,
            n: cfg.n,
            k: cfg.k,
        }
    }

    /// The burst with every value drawn from `seed`.
    fn queries(&self, seed: u64) -> Vec<Query> {
        let s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut corpora: Vec<SourceSet> = Vec::new();
        let mut targets: Vec<Arc<PointSet>> = Vec::new();
        self.slots
            .iter()
            .enumerate()
            .map(|(i, slot)| {
                if slot.corpus == corpora.len() {
                    let c = slot.corpus as u64;
                    corpora.push(SourceSet::new(PointSet::uniform_cube(
                        slot.m,
                        self.k,
                        s ^ (c << 20),
                    )));
                }
                if slot.targets == targets.len() {
                    let t = slot.targets as u64;
                    targets.push(Arc::new(PointSet::uniform_cube(
                        self.n,
                        self.k,
                        s ^ (t << 20) ^ 1,
                    )));
                }
                let w = PointSet::uniform_cube(self.n, 1, s ^ ((i as u64) << 20) ^ 2);
                Query {
                    sources: corpora[slot.corpus].clone(),
                    targets: Arc::clone(&targets[slot.targets]),
                    weights: w.coords().iter().map(|x| x - 0.5).collect(),
                    h: 1.0,
                    deadline: None,
                }
            })
            .collect()
    }
}

/// Which burst a [`Burst`] serves.
enum Kind {
    Coalesce(Mix),
    PackedPool,
}

/// One burst workload plus its untimed oracle.
pub struct Burst {
    kind: Kind,
    seed: u64,
    /// Expected output of each query, by submit index.
    oracle: Vec<Vec<f32>>,
}

pub struct BurstState {
    queries: Vec<Query>,
    server: Server,
}

/// The single-shot answer for one query: `solve_multi_planned` with
/// just this query's weight column.
fn single_shot(q: &Query) -> Vec<f32> {
    let plan = SourcePlan::build(q.sources.points());
    let w = Matrix::from_fn(q.weights.len(), 1, Layout::RowMajor, |j, _| q.weights[j]);
    let v = solve_multi_planned(
        &plan,
        &q.targets,
        &GaussianKernel { h: q.h },
        &w,
        &FusedCpuConfig::default(),
    );
    (0..v.rows()).map(|i| v.get(i, 0)).collect()
}

impl Burst {
    pub fn coalesce(seed: u64) -> Self {
        let mix = Mix::new(&WorkloadConfig {
            clients: 1,
            queries_per_client: QUERIES,
            corpora: 4,
            shared_ratio: 0.9,
            large_ratio: 0.25,
            m: 2048,
            n: 256,
            k: 32,
            h: 1.0,
            deadline: None,
            seed: MIX_SEED,
        });
        Self::new(Kind::Coalesce(mix), seed)
    }

    pub fn packed_pool(seed: u64) -> Self {
        Self::new(Kind::PackedPool, seed)
    }

    fn new(kind: Kind, seed: u64) -> Self {
        let mut b = Self {
            kind,
            seed,
            oracle: Vec::new(),
        };
        b.oracle = b.queries().iter().map(single_shot).collect();
        b
    }

    fn queries(&self) -> Vec<Query> {
        match &self.kind {
            Kind::Coalesce(mix) => mix.queries(self.seed),
            Kind::PackedPool => generate_small_queries(&SmallQueryWorkloadConfig {
                queries: QUERIES,
                corpora: 4,
                target_sets: 4,
                m: 256,
                n: 256,
                k: 32,
                skew: 0.0,
                deadline_range: None,
                seed: self.seed,
                ..SmallQueryWorkloadConfig::default()
            }),
        }
    }

    fn config(&self) -> ServeConfig {
        let base = ServeConfig {
            queue_capacity: QUERIES,
            start_paused: true,
            ..ServeConfig::default()
        };
        match self.kind {
            Kind::Coalesce(_) => ServeConfig {
                pack: false,
                ..base
            },
            Kind::PackedPool => ServeConfig {
                pack: true,
                pool: Some(PoolConfig::homogeneous(
                    POOL_DEVICES,
                    DeviceConfig::gtx970(),
                    Interconnect::pcie3_x16(),
                )),
                ..base
            },
        }
    }
}

impl Workload for Burst {
    type State = BurstState;

    fn setup(&self) -> BurstState {
        BurstState {
            queries: self.queries(),
            server: Server::start(self.config()),
        }
    }

    fn run(&self, st: BurstState, tracer: Option<&Tracer>) -> Result<Iteration, String> {
        let BurstState {
            queries,
            mut server,
        } = st;
        let n = queries.len();
        let root = tracer.map(|t| t.span("serve.burst", "", None));
        let root_id = tracer.and_then(Tracer::current);
        let t0 = Instant::now();
        let mut submit_spans = Vec::with_capacity(n);
        let mut tickets = Vec::with_capacity(n);
        for q in queries {
            let t = Instant::now();
            let s = server.submit(q);
            submit_spans.push((t, Instant::now()));
            tickets.push(match s {
                Submit::Accepted(ticket) => Some(ticket),
                Submit::Rejected(_) => None,
            });
        }
        server.resume();
        let resumed = Instant::now();
        // Wait in submit order; after each wait, sweep the later tickets
        // so a query finished out of order is stamped when first seen,
        // not when its turn to be waited on comes.
        let mut done: Vec<Seen> = (0..n).map(|_| None).collect();
        for i in 0..n {
            if done[i].is_none() {
                if let Some(t) = &tickets[i] {
                    let r = t.wait();
                    done[i] = Some((r, Instant::now()));
                }
            }
            for (j, slot) in done.iter_mut().enumerate().skip(i + 1) {
                if slot.is_none() {
                    if let Some(r) = tickets[j].as_ref().and_then(Ticket::try_take) {
                        *slot = Some((r, Instant::now()));
                    }
                }
            }
        }
        let t_shut = Instant::now();
        let report = {
            let _s = tracer.map(|t| t.span("serve.shutdown", "", None));
            server.shutdown()
        };
        let end = Instant::now();
        drop(root);
        let wall_s = (end - t0).as_secs_f64();
        if let Some(t) = tracer {
            // One span per query, from submit to its result being seen,
            // with its submit call and its wait for the worker as children.
            for (i, ((s0, s1), slot)) in submit_spans.iter().zip(&done).enumerate() {
                let seen = slot.as_ref().map_or(*s1, |(_, at)| *at);
                let q = Some(i as u64);
                let id = t.record("serve.query", *s0, seen, root_id, q);
                t.record("serve.submit", *s0, *s1, Some(id), q);
                t.record("serve.wait", resumed.max(*s1), seen, Some(id), q);
            }
        }

        let mut it = Iteration::new(wall_s);
        it.ops = n as u64;
        let mut sig = Vec::new();
        let (mut max_err, mut exact) = (0.0f32, 0u64);
        for (i, slot) in done.iter().enumerate() {
            let Some((result, at)) = slot else {
                it.failed += 1;
                it.problems.push(format!(
                    "query {i}: rejected by a queue sized for the burst"
                ));
                continue;
            };
            it.op_latency_s
                .push((*at - submit_spans[i].0).as_secs_f64());
            match result {
                Ok(v) => {
                    sig.push((format!("q{i}.bits"), bits_hash(v)));
                    let err = max_rel_error(v, &self.oracle[i]);
                    max_err = max_err.max(err);
                    exact += u64::from(
                        v.iter()
                            .zip(&self.oracle[i])
                            .all(|(a, b)| a.to_bits() == b.to_bits()),
                    );
                    if v.len() != self.oracle[i].len() || err.is_nan() || err >= ORACLE_TOLERANCE {
                        it.failed += 1;
                        it.problems.push(format!(
                            "query {i}: max rel error {err} vs the single-shot oracle"
                        ));
                    }
                }
                Err(e) => {
                    it.failed += 1;
                    it.problems.push(format!("query {i}: {e}"));
                }
            }
        }
        println!("oracle: max rel error {max_err:e}, {exact} of {n} bit-identical");
        check_accounting(&report, n as u64, &mut it);
        summarise(&report, &mut it, &mut sig);
        it.signature = sig;
        let l = &mut it.layer;
        let submit_s: Vec<f64> = submit_spans
            .iter()
            .map(|(a, b)| (*b - *a).as_secs_f64())
            .collect();
        l.insert("serve.submit_us", crate::metrics::median(&submit_s) * 1e6);
        l.insert("serve.wait_ms", (t_shut - resumed).as_secs_f64() * 1e3);
        l.insert("serve.shutdown_ms", (end - t_shut).as_secs_f64() * 1e3);
        Ok(it)
    }
}

/// The report's identities: every accepted query is accounted for once,
/// and every batch made exactly one first attempt.
fn check_accounting(r: &ServeReport, n: u64, it: &mut Iteration) {
    let mut bad = |what: String| {
        it.failed += 1;
        it.problems.push(what);
    };
    if r.submitted != n || r.accepted + r.rejected != r.submitted {
        bad(format!(
            "submitted {} accepted {} rejected {} of {n}",
            r.submitted, r.accepted, r.rejected
        ));
    }
    if r.accepted != r.completed + r.expired + r.shed + r.failed {
        bad(format!(
            "accepted {} != completed {} + expired {} + shed {} + failed {}",
            r.accepted, r.completed, r.expired, r.shed, r.failed
        ));
    }
    if r.attempts != r.batches + r.retries {
        bad(format!(
            "attempts {} != batches {} + retries {}",
            r.attempts, r.batches, r.retries
        ));
    }
    if r.internal_errors != 0 {
        bad(format!("{} internal worker errors", r.internal_errors));
    }
}

/// End-to-end simulated totals, the determinism signature and the
/// serve-layer counters of one burst.
fn summarise(r: &ServeReport, it: &mut Iteration, sig: &mut Vec<(String, u64)>) {
    let sim_s = match &r.pool {
        // Pooled: the makespan (slowest shard per batch, transfers included).
        Some(p) => p.sim_time_s,
        None => r
            .profiles
            .iter()
            .map(ks_gpu_sim::PipelineProfile::total_time_s)
            .sum(),
    };
    it.sim_time_ms = sim_s * 1e3;
    it.dram_transactions = r.total_dram_transactions();
    it.energy_mj = r.energy_j * 1e3;
    let mut warp = 0u64;
    let mut l2 = 0u64;
    let mut conflicts = 0u64;
    let mut fill = Vec::new();
    let dev = DeviceConfig::gtx970();
    for p in &r.profiles {
        for k in &p.kernels {
            warp += k.counters.warp_insts();
            l2 += k.mem.l2_transactions();
            let s = &k.counters.smem;
            conflicts += (s.load_transactions - s.load_instructions)
                + (s.store_transactions - s.store_instructions);
            if k.name.starts_with("fused_multi") {
                // Share of one full resident wave the launch's grid fills.
                let resident = f64::from(dev.num_sms) * f64::from(k.occupancy.blocks_per_sm);
                fill.push((k.launch.grid.count() as f64 / resident).min(1.0));
            }
        }
    }
    let (shard_tasks, stolen, transfer_bytes) = r.pool.as_ref().map_or((0, 0, 0), |p| {
        (
            p.shard_tasks,
            p.stolen_tasks,
            p.devices.iter().map(|d| d.transfer_bytes).sum::<u64>(),
        )
    });
    for (key, v) in [
        ("sim_time_bits", sim_s.to_bits()),
        ("dram", it.dram_transactions),
        ("energy_bits", r.energy_j.to_bits()),
        ("batches", r.batches),
        ("launches", r.launches),
        ("packed_launches", r.packed_launches),
        ("packed_segments", r.packed_segments),
        ("cache_hits", r.plan_cache.hits),
        ("cache_misses", r.plan_cache.misses),
        ("shard_tasks", shard_tasks),
        ("transfer_bytes", transfer_bytes),
    ] {
        sig.push((key.to_string(), v));
    }
    let per = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    let l: &mut BTreeMap<&'static str, f64> = &mut it.layer;
    l.insert("gpu_sim.warp_instructions", warp as f64);
    l.insert("gpu_sim.l2_transactions", l2 as f64);
    l.insert("gpu_sim.dram_transactions", it.dram_transactions as f64);
    l.insert("gpu_sim.smem_bank_conflicts", conflicts as f64);
    l.insert("energy.j_per_query", r.j_per_query());
    l.insert("serve.batches", r.batches as f64);
    l.insert("serve.batched_queries", r.batched_queries as f64);
    l.insert("serve.batch_width", per(r.batched_queries, r.batches));
    l.insert("serve.launches", r.launches as f64);
    l.insert("serve.launches_per_batch", per(r.launches, r.batches));
    l.insert("serve.cache.hits", r.plan_cache.hits as f64);
    l.insert("serve.cache.misses", r.plan_cache.misses as f64);
    l.insert("serve.cache.evictions", r.plan_cache.evictions as f64);
    l.insert("serve.cache.hit_rate", r.hit_rate());
    l.insert("serve.admission.checks", r.static_admission.checks as f64);
    l.insert("serve.admission.memo_hits", r.static_admission.hits as f64);
    l.insert("serve.admission.denied", r.static_admission.rejects as f64);
    l.insert("serve.packed.launches", r.packed_launches as f64);
    l.insert("serve.packed.segments", r.packed_segments as f64);
    l.insert(
        "serve.packed.wave_fill",
        if fill.is_empty() {
            0.0
        } else {
            fill.iter().sum::<f64>() / fill.len() as f64
        },
    );
    l.insert("serve.pool.shard_tasks", shard_tasks as f64);
    l.insert("serve.pool.stolen_tasks_timing", stolen as f64);
    l.insert("serve.pool.transfer_bytes", transfer_bytes as f64);
    l.insert("serve.queue_high_water", r.queue_high_water as f64);
    l.insert("serve.attempts", r.attempts as f64);
    l.insert("serve.retries", r.retries as f64);
    l.insert("serve.fallbacks", r.fallbacks as f64);
}
