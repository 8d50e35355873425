//! # ks-bench — experiment harness
//!
//! Regenerates **every table and figure** of the paper's evaluation
//! (§V). One binary per exhibit (`fig1_energy_breakdown`,
//! `fig2_l2_mpki`, `fig6_speedup`, `fig7_gemm_compare`,
//! `fig8_transactions`, `fig9_energy_compare`, `table1_config`,
//! `table2_flop_efficiency`, `table3_energy_savings`, `ablations`),
//! plus `run_all`, which profiles the sweep once and prints every
//! exhibit from the shared data.
//!
//! Sweeps (`--full` = the paper's exact grid up to `M = 524288`,
//! default = a scaled grid up to `M = 65536`, `--smoke` = CI-sized)
//! are defined in [`sweep`]; the shared profiling engine in [`data`];
//! the per-exhibit computations in [`exhibits`] (returned as
//! structured rows so the integration tests can assert the paper's
//! claims without parsing stdout). The gate binaries (`pool_bench`,
//! `pack_bench`, `chaos_bench`, `chaos_pool_bench`, `tune_bench`,
//! `replay_bench`) share the runner and record document in
//! [`harness`].

#![warn(missing_docs)]

pub mod data;
pub mod exhibits;
pub mod harness;
pub mod metrics;
pub mod regress;
pub mod sweep;
pub mod table;

pub use data::{profile_or_exit, PointData, SweepData};
pub use harness::{BenchArgs, BenchDoc};
pub use metrics::{ServeMetrics, SweepMetrics};
pub use sweep::Sweep;
pub use table::TextTable;
