//! `bgw-bench`: the paper-reproduction regenerators.
//!
//! One `repro <name>` per table, figure and ablation of the paper's
//! evaluation (see DESIGN.md Sec. 5 for the index). Performance is
//! measured by `gwbench` (`benchmark/`), correctness by `cargo test`;
//! nothing here gates either. A regenerator that needs a GW setup gets it
//! from the spine (`bgw_core::build_screening` + `sigma_context`); this
//! library holds what is left to share: the scaled roster and a timing
//! helper.

#![warn(missing_docs)]

use bgw_pwdft::ModelSystem;
use std::time::Instant;

/// Times a closure, returning `(result, seconds)`.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64())
}

/// The scaled benchmark roster: `(paper name, scaled system, N_Sigma)`.
/// Cutoffs are sized for minutes-not-hours runtimes on one node.
pub fn bench_roster() -> Vec<(&'static str, ModelSystem, usize)> {
    let mut si510 = bgw_pwdft::si_divacancy(2, 2.6);
    // cap N_b so full-workflow benches stay in the seconds range
    si510.n_bands = si510.n_valence() + 76;
    vec![
        ("Si214", bgw_pwdft::si_divacancy(1, 4.2), 8),
        ("Si510", si510, 8),
        ("LiH998", bgw_pwdft::lih_defect(1, 4.0), 6),
        ("BN867", bgw_pwdft::bn_defect_sheet(2, 12.0, 5.0), 6),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roster_has_table2_shape() {
        for (name, sys, n_sigma) in bench_roster() {
            assert!(!name.is_empty());
            assert!(sys.n_bands > sys.n_valence(), "{name}");
            assert!(n_sigma >= 2);
        }
    }
}
