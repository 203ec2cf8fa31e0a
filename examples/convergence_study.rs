//! A production-style convergence study: sweep the band sum and the
//! dielectric cutoff and watch the quasiparticle gap settle — the
//! workflow behind every published GW number (and the reason the paper's
//! Table 2 lists tens of thousands of bands).
//!
//! Run with: `cargo run --release --example convergence_study`

use berkeleygw_rs::core::{run_gpp_gw, GwConfig};
use berkeleygw_rs::num::RYDBERG_EV;
use berkeleygw_rs::pwdft::si_bulk;

fn main() {
    let sys = si_bulk(1, 2.6);
    let cfg = GwConfig::default();

    println!("band-sum convergence (N_b sweep):");
    println!("  N_b    QP gap (eV)   step (meV)");
    let mut prev: Option<f64> = None;
    for n_bands in [22, 28, 36, 44, 52] {
        let mut s = sys.clone();
        s.n_bands = n_bands;
        let gap = run_gpp_gw(&s, &cfg).gap_qp_ry * RYDBERG_EV;
        let step = prev.map_or("     -".to_string(), |q| {
            format!("{:>6.1}", (gap - q).abs() * 1000.0)
        });
        println!("  {n_bands:>3}    {gap:>10.4}   {step}");
        prev = Some(gap);
    }

    println!("\ndielectric-cutoff convergence (ecut_eps sweep, N_b = 36):");
    println!("  ecut (Ry)   QP gap (eV)");
    for ecut in [0.45, 0.6, 0.8, 1.0] {
        let mut s = sys.clone();
        s.n_bands = 36;
        s.ecut_eps_ry = ecut;
        let gap = run_gpp_gw(&s, &cfg).gap_qp_ry * RYDBERG_EV;
        println!("  {ecut:>8.2}   {gap:>10.4}");
    }
    println!(
        "\nThe slow 1/N_b tail of the band sweep is why the paper's Parabands\n\
         module generates tens of thousands of empty states — and why the\n\
         pseudobands compression of Sec. 5.3 pays off."
    );
}
