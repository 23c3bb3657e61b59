#![warn(missing_docs)]

//! # matgpt-frontier-sim
//!
//! An analytic + discrete-event simulator of LLM training on the Frontier
//! supercomputer (AMD MI250X), substituting for the hardware the paper ran
//! on. It prices one optimizer step from first principles — FLOP counts and
//! matrix shapes (`matgpt-model::count`), ring-collective α-β costs, memory
//! footprints, overlap windows — with a handful of constants calibrated
//! once against the paper's headline numbers.
//!
//! Modules map onto the paper's measurement tooling:
//!
//! * [`machine`] — Frontier topology and bandwidth hierarchy (Sec. IV-A);
//! * [`kernels`] — GEMM/attention efficiency incl. flash v1/v2 (Fig. 4);
//! * [`memory`] — the 12×-params rule plus activation terms (Fig. 5);
//! * [`collectives`] — the RCCL cost substitute;
//! * [`parallel`] — DP / ZeRO-1 / TP / PP step simulation (Figs. 7, 8, 11);
//! * [`gridsearch`] — architecture search under Eqs. (1)–(5) (Fig. 4);
//! * [`power`] — phase-dependent power/energy (Table IV);
//! * [`faults`] — failure injection and checkpoint-restart goodput;
//! * [`trace`] — OmniTrace/rocm-smi-style timelines (Figs. 9, 12).

pub mod collectives;
pub mod faults;
pub mod gridsearch;
pub mod inference;
pub mod kernels;
pub mod machine;
pub mod memory;
pub mod parallel;
pub mod power;
pub mod trace;

pub use collectives::{collective_time, Collective};
pub use faults::{
    goodput_sweep, interval_agreement, resilient_training_run, FaultModel, IntervalAgreement,
    ResilientTrainingRun,
};
pub use gridsearch::{one_b_grid, Constraints, GridCell};
pub use inference::{simulate_inference, InferenceReport, InferenceSetup};
pub use kernels::{FlashVersion, KernelModel};
pub use machine::MachineConfig;
pub use memory::{fits, max_seq_len, peak_memory_gib, Partitioning};
pub use parallel::{simulate_step, MsgRecord, StepReport, Strategy, TpMapping, TrainSetup};
pub use power::{training_run, PowerModel, TrainingRun};
pub use trace::{device_trace, step_timeline, DeviceSample, PhaseKind, TraceEvent};
