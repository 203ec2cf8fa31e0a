//! Pseudobands: compressing the band sum (paper Sec. 5.3).
//!
//! Demonstrates the mixed stochastic-deterministic method end to end:
//! compress a band set with exponentially growing energy slices, compare
//! the GPP self-energy from compressed vs exact band sums, and show the
//! Chebyshev-Jackson construction of a slice state without
//! diagonalization.
//!
//! Run with: `cargo run --release --example pseudobands_scaling`

use berkeleygw_rs::core::pseudobands::{chebyshev_pseudoband, compress, PseudobandsConfig};
use berkeleygw_rs::core::sigma::diag::{gpp_sigma_diag, KernelVariant};
use berkeleygw_rs::core::sigma::SigmaContext;
use berkeleygw_rs::core::{mtxel::Mtxel, testkit};
use berkeleygw_rs::num::RYDBERG_EV;
use berkeleygw_rs::pwdft::Hamiltonian;

fn main() {
    let (ctx, setup) = testkit::small_context();
    // Solve the full spectrum so there is a deep tail worth compressing.
    let wf =
        &berkeleygw_rs::pwdft::solve_bands(&setup.crystal, &setup.wfn_sph, setup.wfn_sph.len());
    let mtxel = Mtxel::new(&setup.wfn_sph, &setup.eps_sph);
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let full_ctx = SigmaContext::build(
        wf,
        &mtxel,
        ctx.gpp.clone(),
        &setup.vsqrt,
        &ctx.sigma_bands,
        setup.coulomb.q0,
    );
    let exact = gpp_sigma_diag(&full_ctx, &grids, KernelVariant::Optimized);

    println!("exact band set: N_b = {}", wf.n_bands());
    println!("\nN_xi  N_b(compressed)  compression  Sigma_HOMO err (meV)");
    for n_xi in [1usize, 2, 4] {
        let cfg = PseudobandsConfig {
            protection_ry: 0.2,
            n_xi,
            first_slice_ry: 0.4,
            growth: 1.6,
            seed: 42,
        };
        let pb = compress(wf, &cfg);
        let pctx = SigmaContext::build(
            &pb.wf,
            &mtxel,
            ctx.gpp.clone(),
            &setup.vsqrt,
            &ctx.sigma_bands,
            setup.coulomb.q0,
        );
        let r = gpp_sigma_diag(&pctx, &grids, KernelVariant::Optimized);
        let h = full_ctx.homo_pos();
        let err = (r.sigma[h][0] - exact.sigma[h][0]).abs();
        println!(
            "{n_xi:>4}  {:>15}  {:>10.2}x  {:>19.1}",
            pb.wf.n_bands(),
            pb.n_original as f64 / pb.wf.n_bands() as f64,
            err * RYDBERG_EV * 1000.0
        );
    }

    // Chebyshev-Jackson slice construction, no diagonalization.
    let h = Hamiltonian::new(&setup.crystal, &setup.wfn_sph);
    let (lo, hi) = h.spectral_bounds();
    let xi = chebyshev_pseudoband(&h, 0.8, 1.4, (lo, hi), 400, 7);
    let norm: f64 = xi.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt();
    println!(
        "\nChebyshev-Jackson slice state for [0.8, 1.4] Ry built from a\n\
         random vector with {} matrix-vector products (norm {:.3});\n\
         construction scales as O(N)-O(N^2) instead of the O(N^3) full\n\
         diagonalization (paper Sec. 5.3).",
        400, norm
    );
}
