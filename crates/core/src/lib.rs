#![warn(missing_docs)]

//! # matgpt-core
//!
//! The end-to-end MatGPT pipeline — the paper's primary contribution glued
//! together: corpus construction, controlled pre-training recipes
//! (Table III), the seven-experiment loss study (Fig. 13), the BERT
//! surrogate, and the LLM-release-history dataset (Fig. 1).
//!
//! Downstream crates provide the substrates (`matgpt-tensor`,
//! `matgpt-model`, `matgpt-tokenizer`, `matgpt-corpus`, `matgpt-optim`,
//! `matgpt-frontier-sim`); this crate provides the orchestration the
//! examples and the bench harness drive.

pub mod parallel;
pub mod pipeline;
pub mod pretrain;
pub mod recipes;
pub mod releases;

pub use parallel::resilience::{
    FailureCause, FaultKind, FaultPlan, PlannedFault, RecoveryEvent, RecoveryPolicy,
    ResilienceConfig, ResilienceReport, ResilientOutcome,
};
pub use parallel::{
    reference_topology, train_topology, CollectiveError, DataParallel, ParallelConfig,
    ParallelOutcome, ParallelReport, ShardPlanError, Topology, TopologyError, TopologyOutcome,
    TopologyReport,
};
pub use pipeline::{
    experiment_matrix, pretrain_bert, train_suite, MatGptSuite, SuiteScale, TrainedBert,
};
pub use pretrain::{
    pretrain, pretrain_resume, pretrain_with_checkpoints, pretrain_with_tokenizer, train_tokenizer,
    validation_loss, validation_loss_on, LossCurves, Pretrained, ResumeError, Trainer,
};
pub use recipes::{OptChoice, PaperRecipe, PretrainConfig, SizeRole, TABLE_III};
pub use releases::{counts_by_year, Branch, Release, RELEASES};
