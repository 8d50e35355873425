//! Autotuner benchmark and gate (`BENCH_tune.json`).
//!
//! Runs the full [`ks_tune`] sweep — legal-lattice enumeration,
//! static-analyzer pruning, differential admission against the CPU
//! fused oracle, exact-counter profiling — fits the log-linear cost
//! model, takes the model's picks, and only *then* replays each pick
//! and the paper default once to validate the decisions the model
//! made blind. Gates:
//!
//! 1. **fit quality** — the holdout's worst relative time error stays
//!    under [`HOLDOUT_ERR_CEILING`];
//! 2. **never worse** — every pick's replayed simulated time is at
//!    most the default's × (1 + [`REPLAY_TOL`]);
//! 3. **a real win** — at least one non-paper shape's pick strictly
//!    beats the default in replay;
//! 4. **model-only selection** — structural: picks come out of
//!    [`ks_tune::tune`] before any validation replay runs.
//!
//! ```text
//! tune_bench [--smoke] [--seed S] [--json PATH]
//! ```
//!
//! * default: the smoke grid (7 training shapes, 6 pick shapes, full
//!   150-geometry lattice);
//! * `--smoke`: a compact 4-train/3-pick grid, CI-sized;
//! * `--json PATH`: write the [`BenchDoc`]; each pick's records are
//!   named `pick.<shape>[<geometry>].…`.

use ks_bench::harness::{finish, BenchArgs, BenchDoc, Op, Unit};
use ks_gpu_kernels::TileGeometry;
use ks_gpu_sim::config::DeviceConfig;
use ks_tune::{profile_geometry, tune, ProblemShape, TuneConfig};

/// Ceiling on the holdout's worst relative time error.
const HOLDOUT_ERR_CEILING: f64 = 0.25;

/// Replay tolerance for the "never worse than default" gate.
const REPLAY_TOL: f64 = 1e-9;

fn main() {
    let args = BenchArgs::from_env("tune_bench", &[("--seed", "S")]);
    let seed: u64 = args.get("--seed", 0x5EED);

    let mut cfg = TuneConfig::smoke(DeviceConfig::gtx970());
    cfg.seed = seed;
    if args.smoke {
        cfg.train_shapes = vec![
            ProblemShape::new(1024, 1024, 32),
            ProblemShape::new(512, 512, 32),
            ProblemShape::new(256, 256, 64),
            ProblemShape::new(2048, 512, 128),
        ];
        cfg.pick_shapes = vec![
            ProblemShape::new(1024, 1024, 32),
            ProblemShape::new(256, 256, 64),
            ProblemShape::new(384, 256, 96),
        ];
    }

    let wall = std::time::Instant::now();
    let lattice = TileGeometry::lattice(&cfg.device).len();
    eprintln!(
        "tune_bench: sweeping {lattice} geometries x {} shapes on {}",
        cfg.train_shapes.len(),
        cfg.device.name
    );
    let out = tune(&cfg);
    let mut doc = BenchDoc::new("tune_bench", Some(seed), args.smoke);
    for (name, value) in [
        ("lattice", lattice),
        ("admitted", out.admitted.len()),
        ("rejected", out.rejected.len()),
        ("samples", out.samples.len()),
        ("train_count", out.fit.train_count),
        ("holdout_count", out.fit.holdout_count),
    ] {
        doc.record(name, value as f64, Unit::Count);
    }
    for (name, value) in [
        ("holdout_mape_time", out.fit.holdout_mape_time),
        ("holdout_mape_energy", out.fit.holdout_mape_energy),
        ("holdout_max_rel_energy", out.fit.holdout_max_rel_energy),
        ("advertised_rel_err", out.fit.advertised_rel_err()),
    ] {
        doc.record(name, value, Unit::Frac);
    }
    let max_rel = out.fit.holdout_max_rel_time;
    doc.gate(
        "holdout_max_rel_time",
        max_rel,
        Unit::Frac,
        Op::Le,
        HOLDOUT_ERR_CEILING,
    );

    // Validation replay — strictly after the picks were made.
    let default = TileGeometry::paper_default();
    let mut wins = 0u64;
    for p in &out.picks {
        let shape = ProblemShape::new(p.m, p.n, p.k);
        let geo = &p.choice.geometry;
        let picked = profile_geometry(&cfg.device, geo, &shape)
            .unwrap_or_else(|e| panic!("replaying pick at {shape}: {e}"));
        let base = profile_geometry(&cfg.device, &default, &shape)
            .unwrap_or_else(|e| panic!("replaying default at {shape}: {e}"));
        let speedup = base.time_s / picked.time_s;
        let non_paper = (p.m, p.n, p.k) != (128, 128, 8);
        if non_paper && speedup > 1.0 && *geo != default {
            wins += 1;
        }
        eprintln!(
            "tune_bench: {shape}: pick {geo} ({:.3e}s pred) replays {speedup:.2}x vs default",
            p.choice.pred_time_s
        );
        let pick = format!("pick.{shape}[{geo}]");
        doc.record(
            format!("{pick}.pred_time"),
            p.choice.pred_time_s,
            Unit::SimS,
        );
        doc.record(
            format!("{pick}.pred_energy"),
            p.choice.pred_energy_j,
            Unit::J,
        );
        // Never worse: the pick replays no slower than the default.
        doc.gate(
            format!("{pick}.picked_time"),
            picked.time_s,
            Unit::SimS,
            Op::Le,
            base.time_s * (1.0 + REPLAY_TOL),
        );
        doc.record(format!("{pick}.default_time"), base.time_s, Unit::SimS);
        doc.record(format!("{pick}.speedup"), speedup, Unit::X);
        let low = p.choice.low_power.map_or("none".into(), |g| g.to_string());
        let energy = p.choice.low_power_energy_j;
        doc.record(format!("{pick}.low_power[{low}].energy"), energy, Unit::J);
    }
    // A real win: some non-paper shape's pick strictly beats the default.
    doc.gate("wins", wins as f64, Unit::Count, Op::Ge, 1.0);
    let wall_s = wall.elapsed().as_secs_f64();
    doc.record("host_wall", wall_s, Unit::S);
    eprintln!(
        "tune_bench: {} admitted, {} picks, {wins} strict wins, holdout max {max_rel:.4}, {wall_s:.1}s",
        out.admitted.len(),
        out.picks.len()
    );
    finish(&doc, args.json.as_deref());
}
