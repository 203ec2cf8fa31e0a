//! Integration tests of the distributed (simulated-MPI) execution paths:
//! the parallel decompositions must reproduce serial results exactly and
//! account their communication.

use berkeleygw_rs::comm::{run_world, Comm, CommStats};
use berkeleygw_rs::core::chi::{try_chi_distributed, ChiConfig, ChiEngine};
use berkeleygw_rs::core::coulomb::Coulomb;
use berkeleygw_rs::core::mtxel::Mtxel;
use berkeleygw_rs::core::sigma::diag::{
    gpp_sigma_diag, try_gpp_sigma_diag_distributed, KernelVariant,
};
use berkeleygw_rs::core::testkit;
use berkeleygw_rs::dist::{
    try_invert_epsilon_distributed, try_newton_schulz_inverse, DistError, DistMatrix,
};
use berkeleygw_rs::linalg::{matmul, CMatrix, Op};
use berkeleygw_rs::num::Xoshiro256StarStar;
use berkeleygw_rs::pwdft::{si_bulk, solve_bands};

/// `run_world` for a fallible rank body. These worlds are unarmed, so a
/// communicator error (or a failed inversion) is a test failure.
fn run_ranks<R: Send>(
    size: usize,
    f: impl Fn(&Comm) -> Result<R, DistError> + Send + Sync,
) -> (Vec<R>, Vec<CommStats>) {
    run_world(size, |c| f(c).expect("unarmed world"))
}

#[test]
fn distributed_chi_equals_serial_for_any_world_size() {
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
    let serial = ChiEngine::new(&wf, &mtxel, cfg).chi_static();
    for world in [1usize, 2, 5] {
        let (results, stats) = run_ranks(world, |comm| {
            let mtxel = Mtxel::new(&wfn, &eps);
            let chis = try_chi_distributed(comm, &wf, &mtxel, cfg, &[0.0])?;
            Ok(chis[0].as_slice().to_vec())
        });
        for r in results {
            let chi = CMatrix::from_vec(serial.nrows(), serial.ncols(), r);
            assert!(
                chi.max_abs_diff(&serial) < 1e-10,
                "world {world}: {}",
                chi.max_abs_diff(&serial)
            );
        }
        if world > 1 {
            assert!(stats.iter().all(|s| s.bytes_sent > 0));
        }
    }
}

#[test]
fn sigma_pool_decomposition_is_exact_and_balanced() {
    let (ctx, _) = testkit::small_context();
    let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
    let serial = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
    let (results, _) = run_ranks(4, |comm| {
        let r = try_gpp_sigma_diag_distributed(comm, &ctx, &grids)?;
        Ok((r.sigma, r.flops))
    });
    let total_flops: u64 = results.iter().map(|(_, f)| f).sum();
    assert_eq!(total_flops, serial.flops, "work must partition exactly");
    // load balance: no rank does more than ceil-share of the pair work
    let max_flops = results.iter().map(|(_, f)| *f).max().unwrap();
    assert!(
        (max_flops as f64) < serial.flops as f64 / 4.0 * 1.5,
        "imbalanced: {max_flops} of {}",
        serial.flops
    );
    for (sigma, _) in &results {
        for (srow, refrow) in sigma.iter().zip(&serial.sigma) {
            assert!((srow[0] - refrow[0]).abs() < 1e-9 * (1.0 + refrow[0].abs()));
        }
    }
}

#[test]
fn communication_volume_scales_with_matrix_size() {
    // allreduce volume of chi must grow ~ N_G^2.
    let sys = si_bulk(1, 2.2);
    let wfn = sys.wfn_sphere();
    let wf = solve_bands(&sys.crystal, &wfn, 20);
    let coulomb = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
    let cfg = ChiConfig {
        q0: coulomb.q0,
        ..ChiConfig::default()
    };
    let mut volumes = Vec::new();
    for ecut in [0.55, 1.1] {
        let eps = berkeleygw_rs::pwdft::GSphere::new(&sys.crystal.lattice, ecut);
        let n_g = eps.len();
        let (_, stats) = run_ranks(2, |comm| {
            let mtxel = Mtxel::new(&wfn, &eps);
            try_chi_distributed(comm, &wf, &mtxel, cfg, &[0.0])?;
            Ok(())
        });
        volumes.push((n_g, stats[0].bytes_sent));
    }
    let (n0, v0) = volumes[0];
    let (n1, v1) = volumes[1];
    let expected = (n1 as f64 / n0 as f64).powi(2);
    let measured = v1 as f64 / v0 as f64;
    assert!(
        (measured / expected - 1.0).abs() < 0.05,
        "comm volume ratio {measured} vs N_G^2 ratio {expected}"
    );
}

// ---------------------------------------------------------------------------
// DistMatrix property sweeps: seeded random shapes across world sizes 1-5,
// deliberately including dimensions the world size does not divide, checked
// against serial oracles.
// ---------------------------------------------------------------------------

#[test]
fn dist_replication_roundtrip_property_sweep() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xD157);
    for world in 1usize..=5 {
        for _ in 0..3 {
            let n = 1 + rng.next_below(12);
            let m = 1 + rng.next_below(12);
            let a = CMatrix::random(n, m, rng.next_u64());
            let (results, _) = run_ranks(world, |comm| {
                let back = DistMatrix::from_replicated(comm, &a).try_to_replicated(comm)?;
                Ok(back.as_slice().to_vec())
            });
            for r in results {
                let back = CMatrix::from_vec(n, m, r);
                assert_eq!(
                    back.max_abs_diff(&a),
                    0.0,
                    "roundtrip must be exact (world {world}, {n}x{m})"
                );
            }
        }
    }
}

#[test]
fn dist_matmul_matches_serial_oracle_sweep() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xBEEF);
    for world in 1usize..=5 {
        for _ in 0..2 {
            let n = 2 + rng.next_below(9);
            let k = 1 + rng.next_below(9);
            let m = 2 + rng.next_below(9);
            let a = CMatrix::random(n, k, rng.next_u64());
            let b = CMatrix::random(k, m, rng.next_u64());
            let oracle = matmul(&a, Op::None, &b, Op::None);
            let (results, _) = run_ranks(world, |comm| {
                let ad = DistMatrix::from_replicated(comm, &a);
                let bd = DistMatrix::from_replicated(comm, &b);
                let c = ad
                    .try_matmul_pipelined(comm, &bd, 2)?
                    .try_to_replicated(comm)?;
                Ok(c.as_slice().to_vec())
            });
            for r in results {
                let c = CMatrix::from_vec(n, m, r);
                assert!(
                    c.max_abs_diff(&oracle) < 1e-12 * (k as f64),
                    "world {world}, {n}x{k}x{m}: {}",
                    c.max_abs_diff(&oracle)
                );
            }
        }
    }
}

#[test]
fn dist_inversion_agrees_across_world_sizes() {
    // Newton-Schulz on a diagonally dominant (well-conditioned) matrix:
    // every world size 1-5 must agree with the serial LU inverse, sizes
    // not dividing the world size included.
    let mut rng = Xoshiro256StarStar::seed_from_u64(0x1437);
    for world in 1usize..=5 {
        let n = 5 + rng.next_below(7); // 5..=11, rarely divisible by world
        let mut a = CMatrix::random_hermitian(n, rng.next_u64());
        for d in 0..n {
            a[(d, d)] += berkeleygw_rs::num::c64(3.0 + n as f64 * 0.5, 0.0);
        }
        let lu = berkeleygw_rs::linalg::invert(&a).unwrap();
        let (results, _) = run_ranks(world, |comm| {
            let ad = DistMatrix::from_replicated(comm, &a);
            let (inv, iters) = try_newton_schulz_inverse(comm, &ad, 1e-13, 60)?;
            Ok((inv.try_to_replicated(comm)?.as_slice().to_vec(), iters))
        });
        for (r, iters) in results {
            let inv = CMatrix::from_vec(n, n, r);
            assert!(iters > 0);
            assert!(
                inv.max_abs_diff(&lu) < 1e-10,
                "world {world}, n {n}: {}",
                inv.max_abs_diff(&lu)
            );
        }
    }
}

#[test]
fn dist_epsilon_inversion_matches_serial_epsilon_sweep() {
    // try_invert_epsilon_distributed against the serial EpsilonInverse (LU)
    // on the real chi(0) of the test fixture, across world sizes 1-5.
    let (_, setup) = testkit::small_context();
    let serial = setup.eps_inv.static_inv().clone();
    let n = serial.nrows();
    for world in 1usize..=5 {
        let (results, _) = run_ranks(world, |comm| {
            let chi = DistMatrix::from_replicated(comm, &setup.chi0);
            let (inv, _) = try_invert_epsilon_distributed(comm, &chi, &setup.vsqrt, 1e-13)?;
            Ok(inv.try_to_replicated(comm)?.as_slice().to_vec())
        });
        for r in results {
            let inv = CMatrix::from_vec(n, n, r);
            assert!(
                inv.max_abs_diff(&serial) < 1e-9,
                "world {world}: {}",
                inv.max_abs_diff(&serial)
            );
        }
    }
}
