//! Second property-style suite: physics-layer invariants (lattices,
//! spheres, pseudopotentials, Pade continuation, matrix elements) under
//! deterministic randomized sweeps.

use berkeleygw_rs::num::pade::PadeApproximant;
use berkeleygw_rs::num::{c64, Complex64, Xoshiro256StarStar};
use berkeleygw_rs::pwdft::{Crystal, GSphere, Lattice, Species};

#[test]
fn lattice_volume_scales_with_supercell() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA5A5_0001);
    for case in 0..16 {
        let a0 = 5.0 + 10.0 * rng.next_f64();
        let (n1, n2, n3) = (
            1 + rng.next_below(3),
            1 + rng.next_below(3),
            1 + rng.next_below(3),
        );
        let c = Crystal::diamond(Species::Si, a0);
        let s = c.supercell([n1, n2, n3]);
        let expect = c.lattice.volume() * (n1 * n2 * n3) as f64;
        assert!(
            (s.lattice.volume() - expect).abs() < 1e-6 * expect,
            "case {case}"
        );
        assert_eq!(s.n_atoms(), 8 * n1 * n2 * n3);
        // electron counting is extensive
        assert_eq!(s.n_electrons(), c.n_electrons() * n1 * n2 * n3);
    }
}

#[test]
fn gsphere_invariants() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA5A5_0002);
    for case in 0..16 {
        let a0 = 6.0 + 8.0 * rng.next_f64();
        let ecut = 1.0 + 4.0 * rng.next_f64();
        let lat = Lattice::cubic(a0);
        let sph = GSphere::new(&lat, ecut);
        // all inside cutoff, sorted, inversion-symmetric
        assert!(sph.norm2.iter().all(|&n2| n2 <= ecut + 1e-9), "case {case}");
        assert!(sph.norm2.windows(2).all(|w| w[0] <= w[1] + 1e-12));
        for (i, m) in sph.miller.iter().enumerate() {
            let j = sph
                .find([-m[0], -m[1], -m[2]])
                .expect("inversion-symmetric sphere");
            assert!((sph.norm2[i] - sph.norm2[j]).abs() < 1e-9);
        }
        // count grows monotonically with cutoff
        let bigger = GSphere::new(&lat, ecut * 1.5);
        assert!(bigger.len() >= sph.len());
    }
}

#[test]
fn form_factors_are_bounded_and_decay() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA5A5_0003);
    for case in 0..64 {
        let q = 30.0 * rng.next_f64();
        for sp in [
            Species::Si,
            Species::Li,
            Species::H,
            Species::B,
            Species::N,
            Species::C,
        ] {
            let u = sp.form_factor(q);
            assert!(u.is_finite(), "case {case}");
            assert!(u.abs() < 500.0, "{sp:?} at q={q}: {u}");
            // beyond the tabulated range everything is exactly zero
            if q > 10.0 {
                assert_eq!(u, 0.0);
            }
        }
    }
}

#[test]
fn displacement_roundtrip() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA5A5_0004);
    for case in 0..16 {
        let d: Vec<f64> = (0..3).map(|_| 0.4 * rng.next_f64() - 0.2).collect();
        let c = Crystal::diamond(Species::Si, 10.26);
        let moved = c.with_displacement(3, [d[0], d[1], d[2]]);
        let back = moved.with_displacement(3, [-d[0], -d[1], -d[2]]);
        for (a, b) in c.atoms.iter().zip(&back.atoms) {
            for k in 0..3 {
                assert!((a.frac[k] - b.frac[k]).abs() < 1e-12, "case {case}");
            }
        }
    }
}

#[test]
fn pade_exactness_for_moebius() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xA5A5_0006);
    for case in 0..16 {
        // f(z) = (a z + 1) / (z + b): 4 samples determine it exactly.
        let a = c64(4.0 * rng.next_f64() - 2.0, 4.0 * rng.next_f64() - 2.0);
        let b = c64(0.5 + 1.5 * rng.next_f64(), 0.3);
        let f = |z: Complex64| (a * z + 1.0) / (z + b);
        let nodes: Vec<Complex64> = (1..=4).map(|k| c64(0.0, k as f64)).collect();
        let vals: Vec<Complex64> = nodes.iter().map(|&z| f(z)).collect();
        let p = PadeApproximant::new(&nodes, &vals);
        let z = c64(0.7, 0.2);
        assert!((p.eval(z) - f(z)).abs() < 1e-7, "case {case}");
    }
}

#[test]
fn mtxel_g0_is_overlap_for_random_band_pairs() {
    use berkeleygw_rs::core::mtxel::Mtxel;
    use berkeleygw_rs::pwdft::solve_bands;
    let c = Crystal::diamond(Species::Si, 10.26);
    let wfn = GSphere::new(&c.lattice, 2.2);
    let eps = GSphere::new(&c.lattice, 0.8);
    let wf = solve_bands(&c, &wfn, 24);
    let eng = Mtxel::new(&wfn, &eps);
    // pseudo-random pair sweep
    let mut rng = Xoshiro256StarStar::seed_from_u64(12345);
    for _ in 0..12 {
        let m = rng.next_below(24);
        let n = rng.next_below(24);
        let real = eng.to_real_space_many(&wf, &[m, n]);
        let row = eng.pair_from_real(&real[0], &real[1]);
        let expect = if m == n { 1.0 } else { 0.0 };
        assert!(
            (row[0] - c64(expect, 0.0)).abs() < 1e-9,
            "pair ({m},{n}): {}",
            row[0]
        );
    }
}
