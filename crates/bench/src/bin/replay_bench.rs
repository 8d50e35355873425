//! Serial-vs-parallel replay benchmark over the fused pipeline
//! (`BENCH_replay.json`).
//!
//! For each sweep point the fused pipeline is profiled twice on fresh
//! devices — once with [`ReplayStrategy::Serial`], once with the
//! default memoized parallel strategy — and the wall-clock of each
//! replay, their ratio, and whether the two profiles agree on every
//! counter are recorded.
//!
//! ```text
//! replay_bench [--smoke] [--gate MIN_SPEEDUP] [--threads N] [--json PATH]
//! ```
//!
//! * default grid: `M ∈ {8192, 65536, 524288}`, `K = 32`, `N = 1024`;
//! * `--smoke`: `M ∈ {8192, 65536}` only (CI-sized);
//! * `--gate X`: exit 1 unless the **largest** point's speedup ≥ X
//!   (and always exit 1 on a counter mismatch);
//! * `--threads N`: worker count for the parallel runs (default: the
//!   machine's cores);
//! * `--json PATH`: write the [`BenchDoc`] (records `m<M>.…` per point).

use std::time::Instant;

use ks_bench::harness::{finish, BenchArgs, BenchDoc, Op, Unit};
use ks_gpu_kernels::{GpuKernelSummation, GpuVariant};
use ks_gpu_sim::{GpuDevice, ReplayStrategy};

const K: usize = 32;
const N: usize = 1024;

fn profile_ms(m: usize, strategy: ReplayStrategy) -> (f64, ks_gpu_sim::PipelineProfile, u64) {
    let pipeline = GpuKernelSummation::new(m, N, K, 1.0);
    let mut dev = GpuDevice::gtx970();
    dev.set_replay_strategy(strategy);
    let t = Instant::now();
    let prof = pipeline
        .profile(&mut dev, GpuVariant::Fused)
        .unwrap_or_else(|e| {
            eprintln!("error: cannot profile M={m}: {e}");
            std::process::exit(1);
        });
    let ms = t.elapsed().as_secs_f64() * 1e3;
    let blocks = prof
        .kernels
        .iter()
        .map(|k| k.launch.total_blocks())
        .max()
        .unwrap_or(0);
    (ms, prof, blocks)
}

fn main() {
    let args = BenchArgs::from_env(
        "replay_bench",
        &[("--gate", "MIN_SPEEDUP"), ("--threads", "N")],
    );
    let gate: Option<f64> = args.opt("--gate");
    let threads: Option<usize> = args.opt("--threads");
    let m_values: &[usize] = if args.smoke {
        &[8192, 65_536]
    } else {
        &[8192, 65_536, 524_288]
    };

    let mut doc = BenchDoc::new("replay_bench", None, args.smoke);
    doc.record("k", K as f64, Unit::Count);
    doc.record("n", N as f64, Unit::Count);
    doc.record("threads", threads.unwrap_or(0) as f64, Unit::Count);
    for (i, &m) in m_values.iter().enumerate() {
        let (serial_ms, serial_prof, blocks) = profile_ms(m, ReplayStrategy::Serial);
        let (parallel_ms, parallel_prof, _) = profile_ms(
            m,
            ReplayStrategy::Parallel {
                memoize: true,
                threads,
            },
        );
        let counters_match = serial_prof == parallel_prof;
        let speedup = serial_ms / parallel_ms;
        eprintln!(
            "M={m:>7} blocks={blocks:>6}: serial {serial_ms:>9.1} ms, parallel {parallel_ms:>9.1} ms, speedup {speedup:.2}x, counters {}",
            if counters_match { "match" } else { "MISMATCH" }
        );
        doc.record(format!("m{m}.blocks"), blocks as f64, Unit::Count);
        doc.record(format!("m{m}.serial"), serial_ms, Unit::Ms);
        doc.record(format!("m{m}.parallel"), parallel_ms, Unit::Ms);
        // Only the largest point's speedup is gated.
        match gate {
            Some(min) if i + 1 == m_values.len() => {
                doc.gate(format!("m{m}.speedup"), speedup, Unit::X, Op::Ge, min);
            }
            _ => doc.record(format!("m{m}.speedup"), speedup, Unit::X),
        }
        doc.require(format!("m{m}.counters_match"), counters_match);
    }
    finish(&doc, args.json.as_deref());
}
