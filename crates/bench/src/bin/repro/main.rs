//! `repro`: the paper's tables, figures and ablations, one regenerator
//! per name (DESIGN.md Sec. 5 is the index).
//!
//! ```text
//! repro <name> [flags]   print one table/figure to stdout
//! repro --list           print the names
//! repro all              run every regenerator in a child process and
//!                        write its stdout to results/<name>.txt
//! ```
//!
//! Nothing here gates anything: correctness is `cargo test`, performance
//! is `gwbench` (`benchmark/`).

mod ablation_gemm_tuning;
mod ablation_io;
mod ablation_nvblock;
mod ablation_pseudobands;
mod ablation_subspace;
mod fig1_workflow;
mod fig3_weak_ff_epsilon;
mod fig4_strong_ff_sigma;
mod fig5_weak_gpp;
mod fig6_strong_gpp;
mod fig7_throughput;
mod gwpt_scaling;
mod roofline_kernels;
mod table1_params;
mod table2_systems;
mod table3_flops;
mod table4_portability;
mod table5_best;

use std::process::{Command, ExitCode};

/// Every regenerator: its name (also the stem of its `results/` file)
/// and its entry point.
const REGENERATORS: &[(&str, fn())] = &[
    ("ablation_gemm_tuning", ablation_gemm_tuning::run),
    ("ablation_io", ablation_io::run),
    ("ablation_nvblock", ablation_nvblock::run),
    ("ablation_pseudobands", ablation_pseudobands::run),
    ("ablation_subspace", ablation_subspace::run),
    ("fig1_workflow", fig1_workflow::run),
    ("fig3_weak_ff_epsilon", fig3_weak_ff_epsilon::run),
    ("fig4_strong_ff_sigma", fig4_strong_ff_sigma::run),
    ("fig5_weak_gpp", fig5_weak_gpp::run),
    ("fig6_strong_gpp", fig6_strong_gpp::run),
    ("fig7_throughput", fig7_throughput::run),
    ("gwpt_scaling", gwpt_scaling::run),
    ("roofline_kernels", roofline_kernels::run),
    ("table1_params", table1_params::run),
    ("table2_systems", table2_systems::run),
    ("table3_flops", table3_flops::run),
    ("table4_portability", table4_portability::run),
    ("table5_best", table5_best::run),
];

/// Runs every regenerator as `repro <name>` in a child process (stdout
/// cannot be captured in-process) and writes exactly that stdout to
/// `results/<name>.txt` under the current directory.
fn regenerate_all() -> std::io::Result<()> {
    let exe = std::env::current_exe()?;
    for (name, _) in REGENERATORS {
        eprintln!("repro {name} -> results/{name}.txt");
        let out = Command::new(&exe).arg(name).output()?;
        if !out.status.success() {
            return Err(std::io::Error::other(format!(
                "repro {name} failed with {}:\n{}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            )));
        }
        std::fs::write(format!("results/{name}.txt"), out.stdout)?;
    }
    Ok(())
}

fn main() -> ExitCode {
    let name = std::env::args().nth(1).unwrap_or_default();
    if name == "--list" {
        for (n, _) in REGENERATORS {
            println!("{n}");
        }
    } else if name == "all" {
        if let Err(e) = regenerate_all() {
            eprintln!("repro all: {e} (run it from the repository root)");
            return ExitCode::FAILURE;
        }
    } else if let Some((_, run)) = REGENERATORS.iter().find(|(n, _)| *n == name) {
        run();
    } else {
        eprintln!("usage: repro <name> | all | --list");
        return ExitCode::from(2);
    }
    ExitCode::SUCCESS
}
