//! Quickstart: a complete G0W0(GPP) calculation on the bulk-silicon model
//! in ~20 lines — mean field, screening, plasmon-pole self-energy,
//! quasiparticle gap — traced, so it ends with the span tree of where the
//! time and FLOPs went.
//!
//! Run with: `cargo run --release --example quickstart`

use berkeleygw_rs::core::{run_gpp_gw, GwConfig};
use berkeleygw_rs::num::RYDBERG_EV;
use berkeleygw_rs::pwdft::si_bulk;
use berkeleygw_rs::trace;

fn main() {
    // An 8-atom diamond-Si cell with a 2.6 Ry wavefunction cutoff.
    let mut system = si_bulk(1, 2.6);
    system.n_bands = 40;

    // Span collection is off by default; switch it on around the run.
    trace::set_enabled(true);
    let results = run_gpp_gw(&system, &GwConfig::default());
    trace::set_enabled(false);

    println!(
        "system: {} ({} atoms)",
        system.name,
        system.crystal.n_atoms()
    );
    println!("macroscopic dielectric constant: {:.2}", results.eps_macro);
    println!(
        "mean-field gap: {:.3} eV   GW quasiparticle gap: {:.3} eV",
        results.gap_mf_ry * RYDBERG_EV,
        results.gap_qp_ry * RYDBERG_EV
    );
    println!("\nband   E_MF (eV)   Sigma (eV)     Z    E_QP (eV)");
    for (band, st) in results.sigma_bands.iter().zip(&results.states) {
        println!(
            "{band:>4}   {:>9.3}   {:>10.3}   {:.2}   {:>9.3}",
            st.e_mf * RYDBERG_EV,
            st.sigma_mf * RYDBERG_EV,
            st.z,
            st.e_qp * RYDBERG_EV
        );
    }
    println!("\n{}", trace::report().render_tree());
    assert!(results.gap_qp_ry > results.gap_mf_ry, "GW opens the gap");
}
