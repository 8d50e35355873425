//! The metric registry: every workload, end-to-end metric and
//! per-layer metric the benchmark reports, with unit, direction and
//! (end-to-end only) regression bound. `BENCHMARK.json` is generated
//! from this table (`--emit-manifest`), and the result line is checked
//! against it, so the two cannot drift apart.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Which way a metric improves.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may
    /// worsen before a change counts as a regression (`None` for
    /// per-layer metrics, which carry no bound).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// `(name, why)` of each workload.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "paper_solve",
        "one Gaussian GPU solve at M=65536 N=1024 K=32 plus its CPU-fused check; functional warp execution dominates host time",
    ),
    (
        "paper_profile",
        "traffic-only profiles of fused, CUDA- and cuBLAS-unfused at M=16384 N=1024 K=32,256; replay and timing are all the work",
    ),
    (
        "serve_coalesce",
        "256-query burst over 4 shared corpora plus private ones on one GPU; coalescing, plan-cache misses/evictions, admission memo",
    ),
    (
        "serve_packed_pool",
        "256 distinct small queries packed into horizontally fused launches sharded over a 2-device PCIe pool; nothing coalesces",
    ),
];

/// End-to-end metrics, reported on every workload with `--trace 0`.
/// Host-clock metrics are `s`/`ms`/`MB`/`1/s`; the simulated clock
/// has its own unit `sim_ms` so the two clocks never mix.
pub const END_TO_END: [Metric; 10] = [
    e2e("setup_s", "s", Lower, 0.25),
    e2e("wall_s", "s", Lower, 0.24),
    e2e("peak_rss_mb", "MB", Lower, 0.15),
    e2e("ok_frac", "frac", Higher, 0.01),
    e2e("sim_time_ms", "sim_ms", Lower, 0.01),
    e2e("dram_transactions", "count", Lower, 0.01),
    e2e("energy_mj", "mJ", Lower, 0.01),
    e2e("queries_per_s", "1/s", Higher, 0.24),
    e2e("latency_p50_ms", "ms", Lower, 0.24),
    e2e("latency_p95_ms", "ms", Lower, 0.24),
];

/// Per-layer metrics, reported on every workload with `--trace 1`.
/// A layer a workload does not exercise (or that the benchmark cannot
/// see into from outside the program) reads 0; README.md lists which.
pub const PER_LAYER: [Metric; 48] = [
    // Simulator (ks-gpu-sim), host clock, from trace spans.
    layer("gpu_sim.run_s", "s", Lower),
    layer("gpu_sim.run_ns_per_warp_inst", "ns", Lower),
    layer("gpu_sim.launch_s", "s", Lower),
    layer("gpu_sim.launch_ns_per_l2_txn", "ns", Lower),
    // Simulator, simulated counters.
    layer("gpu_sim.warp_instructions", "count", Lower),
    layer("gpu_sim.l2_transactions", "count", Lower),
    layer("gpu_sim.dram_transactions", "count", Lower),
    layer("gpu_sim.smem_bank_conflicts", "count", Lower),
    layer("gpu_sim.fused.occupancy", "frac", Higher),
    layer("gpu_sim.fused.flop_efficiency", "frac", Higher),
    layer("gpu_sim.fused.sim_ms", "sim_ms", Lower),
    // The paper's figures, simulated clock (paper_profile).
    layer("sim_speedup_vs_cublas.k32", "x", Higher),
    layer("sim_speedup_vs_cublas.k256", "x", Higher),
    layer("sim_speedup_vs_cuda.k32", "x", Higher),
    layer("dram_frac_vs_cublas.k32", "frac", Lower),
    layer("energy_saving_vs_cublas.k32", "frac", Higher),
    layer("energy_saving_vs_cublas.k256", "frac", Higher),
    // Energy model (ks-energy).
    layer("energy.model_s", "s", Lower),
    layer("energy.j_per_query", "J", Lower),
    // CPU safe harbor (ks-core cpu_fused).
    layer("core.cpu_fused_s", "s", Lower),
    layer("core.cpu_fused_gflops", "GFLOP/s", Higher),
    // Serving (ks-serve).
    layer("serve.batches", "count", Lower),
    layer("serve.batched_queries", "count", Higher),
    layer("serve.batch_width", "queries", Higher),
    layer("serve.launches", "count", Lower),
    layer("serve.launches_per_batch", "ratio", Lower),
    layer("serve.cache.hits", "count", Higher),
    layer("serve.cache.misses", "count", Lower),
    layer("serve.cache.evictions", "count", Lower),
    layer("serve.cache.hit_rate", "frac", Higher),
    layer("serve.admission.checks", "count", Lower),
    layer("serve.admission.memo_hits", "count", Higher),
    layer("serve.admission.denied", "count", Lower),
    layer("serve.packed.launches", "count", Lower),
    layer("serve.packed.segments", "count", Higher),
    layer("serve.packed.wave_fill", "frac", Higher),
    layer("serve.pool.shard_tasks", "count", Lower),
    layer("serve.pool.stolen_tasks_timing", "count", Lower),
    layer("serve.pool.transfer_bytes", "B", Lower),
    layer("serve.submit_us", "us", Lower),
    layer("serve.wait_ms", "ms", Lower),
    layer("serve.shutdown_ms", "ms", Lower),
    layer("serve.queue_high_water", "count", Lower),
    layer("serve.attempts", "count", Lower),
    layer("serve.retries", "count", Lower),
    layer("serve.fallbacks", "count", Lower),
    // Tracing's own cost.
    layer("trace.overhead_frac", "frac", Lower),
    layer("trace.spans", "count", Lower),
];

/// `s` as a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `BENCHMARK.json` manifest, generated from the registry.
pub fn manifest_json(run_seconds: u64) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"perfbench/Cargo.toml\", \"--\"],\n");
    s.push_str("  \"paths\": [\"perfbench\"],\n");
    let _ = writeln!(s, "  \"run_seconds\": {run_seconds},");
    s.push_str("  \"workloads\": [\n");
    for (i, (name, why)) in WORKLOADS.iter().enumerate() {
        let comma = if i + 1 < WORKLOADS.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"why\": {}}}{comma}",
            json_str(name),
            json_str(why)
        );
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}, \"bound\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str()),
            m.bound.expect("end-to-end metrics carry a bound")
        );
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        let _ = writeln!(
            s,
            "    {{\"name\": {}, \"unit\": {}, \"better\": {}}}{comma}",
            json_str(m.name),
            json_str(m.unit),
            json_str(m.better.as_str())
        );
    }
    s.push_str("  ]\n}\n");
    s
}

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Linear-interpolation quantile (`q` in `[0, 1]`) of a non-empty sample.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`
/// with exactly the registry's metrics of the selected kind, in
/// registry order.
///
/// # Errors
/// A registry metric the run did not produce, or a non-finite value —
/// both bugs in the benchmark, reported instead of printing a malformed
/// result line.
pub fn result_line<'a>(
    correct: bool,
    attempted: u64,
    failed: u64,
    registry: impl Iterator<Item = &'a Metric>,
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in registry.enumerate() {
        let v = *values
            .get(m.name)
            .ok_or_else(|| format!("metric {} was not measured", m.name))?;
        if !v.is_finite() {
            return Err(format!("metric {} is not finite: {v}", m.name));
        }
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "{}: {{\"value\": {v}, \"unit\": {}}}",
            json_str(m.name),
            json_str(m.unit)
        );
    }
    s.push_str("}}");
    Ok(s)
}
