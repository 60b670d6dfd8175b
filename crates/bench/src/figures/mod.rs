//! The paper's artefacts, one module each. Every module exposes
//! `run(quick, results)`, which measures, prints its table and writes
//! its JSON rows to `results`, and `report(md, results)`, which renders
//! its EXPERIMENTS.md section back from those rows — so a row's keys
//! are written and read in one file.

pub mod balance_ablation;
pub mod fig10_pricing;
pub mod fig11_mixes;
pub mod fig12_recovery;
pub mod fig13_block_recovery;
pub mod fig16_availability;
pub mod fig2_reliability;
pub mod fig7_latency;
pub mod fig7c_baselines;
pub mod fig8_move;
pub mod fig9_throughput;
pub mod spc_replay;
pub mod table1;
