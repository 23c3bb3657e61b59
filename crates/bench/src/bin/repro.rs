//! `repro list | <name>… | all [--smoke]`: regenerate the paper's
//! tables and figures, the ablations and the extension studies.

use matgpt_bench::experiments::{cli, REGISTRY};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    ExitCode::from(cli(REGISTRY, &args))
}
