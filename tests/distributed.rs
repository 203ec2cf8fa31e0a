//! Integration tests of the paper's parallel decompositions, run in one
//! process through the public API: every share of the work is computed by
//! the same serial kernel, and the shares must reproduce the serial result
//! and partition its work.

use berkeleygw_rs::core::chi::{ChiConfig, ChiEngine, ChiTimings};
use berkeleygw_rs::core::coulomb::Coulomb;
use berkeleygw_rs::core::mtxel::Mtxel;
use berkeleygw_rs::core::sigma::diag::{gpp_sigma_diag, gpp_sigma_diag_partial, KernelVariant};
use berkeleygw_rs::core::testkit;
use berkeleygw_rs::linalg::CMatrix;
use berkeleygw_rs::num::Complex64;
use berkeleygw_rs::pwdft::{si_bulk, solve_bands};

#[test]
fn distributed_chi_equals_serial_for_any_world_size() {
    // Bulk Si with the Coulomb q0 head: valence bands dealt round-robin
    // over `world` shares (Sec. 5.2) sum to the serial static chi.
    let sys = si_bulk(1, 2.2);
    let wfn = sys.wfn_sphere();
    let eps = sys.eps_sphere();
    let wf = solve_bands(&sys.crystal, &wfn, 24);
    let coulomb = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
    let cfg = ChiConfig {
        q0: coulomb.q0,
        ..ChiConfig::default()
    };
    let mtxel = Mtxel::new(&wfn, &eps);
    let engine = ChiEngine::new(&wf, &mtxel, cfg);
    let serial = engine.chi_static();
    for world in [1usize, 2, 5] {
        let mut chi = CMatrix::zeros(serial.nrows(), serial.ncols());
        for rank in 0..world {
            let mine: Vec<usize> = (0..wf.n_valence).filter(|v| v % world == rank).collect();
            let mut t = ChiTimings::default();
            let part = engine.chi_freqs_subset(&[0.0], Some(&mine), &mut t);
            chi.axpy(Complex64::ONE, &part[0]);
        }
        assert!(
            chi.max_abs_diff(&serial) < 1e-10,
            "world {world}: {}",
            chi.max_abs_diff(&serial)
        );
    }
}

#[test]
fn sigma_pool_decomposition_is_exact_and_balanced() {
    // A four-rank self-energy pool (Sec. 5.5): even G' slices partition
    // the counted flops exactly, no slice exceeds 1.5x an even share, and
    // the slices sum to the serial Sigma.
    let (ctx, _) = testkit::small_context();
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let serial = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
    let ng = ctx.n_g();
    let per_rank = ng.div_ceil(4);
    let results: Vec<_> = (0..4)
        .map(|rank| {
            let lo = (rank * per_rank).min(ng);
            let hi = (lo + per_rank).min(ng);
            gpp_sigma_diag_partial(&ctx, &grids, lo, hi)
        })
        .collect();
    let total_flops: u64 = results.iter().map(|r| r.flops).sum();
    assert_eq!(total_flops, serial.flops, "work must partition exactly");
    let max_flops = results.iter().map(|r| r.flops).max().unwrap();
    assert!(
        (max_flops as f64) < serial.flops as f64 / 4.0 * 1.5,
        "imbalanced: {max_flops} of {}",
        serial.flops
    );
    for (s, refrow) in serial.sigma.iter().enumerate() {
        let summed: f64 = results.iter().map(|r| r.sigma[s][0]).sum();
        assert!(
            (summed - refrow[0]).abs() < 1e-9 * (1.0 + refrow[0].abs()),
            "band {s}: {summed} vs {}",
            refrow[0]
        );
    }
}
