//! Property-style tests over the numerical substrates, driven through the
//! root crate's public API. Each property is checked over a deterministic
//! seeded sweep of randomized inputs (no external property-test crates, so
//! the suite builds fully offline and failures reproduce exactly).

use berkeleygw_rs::fft::{dft_reference, Direction, Fft3d};
use berkeleygw_rs::linalg::{eigh, invert, matmul, zgemm_reference, CMatrix, Op};
use berkeleygw_rs::num::{c64, Complex64, Xoshiro256StarStar};

fn signal(rng: &mut Xoshiro256StarStar, n: usize) -> Vec<Complex64> {
    (0..n)
        .map(|_| c64(rng.next_f64() * 2.0 - 1.0, rng.next_f64() * 2.0 - 1.0))
        .collect()
}

/// Every 5-smooth length up to 140 (the only lengths a plan accepts)
/// round-trips through `Fft3d`'s batched kernel.
#[test]
fn fft_roundtrip_any_size() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0001);
    let smooth = |mut m: usize| {
        for r in [2, 3, 5] {
            while m.is_multiple_of(r) {
                m /= r;
            }
        }
        m == 1
    };
    for n in (1..=140).filter(|&n| smooth(n)) {
        let x = signal(&mut rng, n);
        let plan = Fft3d::new(1, 1, n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        let err = x
            .iter()
            .zip(&y)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "n = {n}, err = {err}");
    }
}

#[test]
fn fft_matches_reference_small() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0002);
    let plan = Fft3d::new(1, 1, 48);
    for case in 0..24 {
        let x = signal(&mut rng, 48);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        let r = dft_reference(&x, Direction::Forward);
        let err = y
            .iter()
            .zip(&r)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-9, "case {case}: err = {err}");
    }
}

/// The blocked, pooled `zgemm` agrees with the triple-loop reference on
/// random shapes.
#[test]
fn gemm_backends_agree() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0003);
    for case in 0..24 {
        let m = 1 + rng.next_below(23);
        let k = 1 + rng.next_below(23);
        let n = 1 + rng.next_below(23);
        let seed = rng.next_u64();
        let a = CMatrix::random(m, k, seed);
        let b = CMatrix::random(k, n, seed.wrapping_add(1));
        let mut reference = CMatrix::zeros(m, n);
        let (one, zero) = (Complex64::ONE, Complex64::ZERO);
        zgemm_reference(one, &a, Op::None, &b, Op::None, zero, &mut reference);
        let c = matmul(&a, Op::None, &b, Op::None);
        assert!(
            c.max_abs_diff(&reference) < 1e-10,
            "case {case}: {m}x{k}x{n}"
        );
    }
}

#[test]
fn gemm_adjoint_identity() {
    // (A B)^dagger = B^dagger A^dagger
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0004);
    for case in 0..24 {
        let m = 1 + rng.next_below(15);
        let k = 1 + rng.next_below(15);
        let seed = rng.next_u64();
        let a = CMatrix::random(m, k, seed);
        let b = CMatrix::random(k, m, seed.wrapping_add(7));
        let ab_h = matmul(&a, Op::None, &b, Op::None).adjoint();
        let bh_ah = matmul(&b, Op::Adj, &a, Op::Adj);
        assert!(ab_h.max_abs_diff(&bh_ah) < 1e-10, "case {case}: {m}x{k}");
    }
}

#[test]
fn inverse_roundtrip() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0005);
    for case in 0..24 {
        let n = 1 + rng.next_below(15);
        let a = CMatrix::random(n, n, rng.next_u64());
        // random complex matrices are almost surely invertible
        if let Ok(inv) = invert(&a) {
            let prod = matmul(&a, Op::None, &inv, Op::None);
            assert!(
                prod.max_abs_diff(&CMatrix::identity(n)) < 1e-7,
                "case {case}: n = {n}"
            );
        }
    }
}

#[test]
fn eigh_reconstructs() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0006);
    for case in 0..24 {
        let n = 1 + rng.next_below(13);
        let a = CMatrix::random_hermitian(n, rng.next_u64());
        let e = eigh(&a);
        // A = V W V^dagger
        let mut vw = e.vectors.clone();
        for j in 0..n {
            for i in 0..n {
                vw[(i, j)] = vw[(i, j)].scale(e.values[j]);
            }
        }
        let back = matmul(&vw, Op::None, &e.vectors, Op::Adj);
        assert!(
            back.max_abs_diff(&a) < 1e-8 * (1.0 + a.max_abs()),
            "case {case}: n = {n}"
        );
    }
}

#[test]
fn eigh_eigenvalues_bound_rayleigh_quotients() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0007);
    for case in 0..24 {
        let n = 2 + rng.next_below(10);
        let seed = rng.next_u64();
        let a = CMatrix::random_hermitian(n, seed);
        let e = eigh(&a);
        // Rayleigh quotient of a random vector lies within [w_min, w_max]
        let x: Vec<Complex64> = (0..n)
            .map(|i| Complex64::cis(i as f64 * 0.9 + (seed % 1024) as f64))
            .collect();
        let ax = a.matvec(&x);
        let num: f64 = x.iter().zip(&ax).map(|(u, v)| (u.conj() * *v).re).sum();
        let den: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let q = num / den;
        assert!(
            q >= e.values[0] - 1e-9 && q <= e.values[n - 1] + 1e-9,
            "case {case}: n = {n}, q = {q}"
        );
    }
}

#[test]
fn parseval_for_3d() {
    let mut rng = Xoshiro256StarStar::seed_from_u64(0xF0F0_0008);
    for case in 0..24 {
        let nx = 1 + rng.next_below(4);
        let ny = 1 + rng.next_below(4);
        let nz = 1 + rng.next_below(4);
        let plan = Fft3d::new(nx, ny, nz);
        let n = plan.len();
        let x = signal(&mut rng, n);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        let ex: f64 = x.iter().map(|z| z.norm_sqr()).sum();
        let ey: f64 = y.iter().map(|z| z.norm_sqr()).sum::<f64>() / n as f64;
        assert!(
            (ex - ey).abs() < 1e-9 * ex.max(1.0),
            "case {case}: {nx}x{ny}x{nz}"
        );
    }
}
