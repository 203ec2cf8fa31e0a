//! `bgw-dist`: distributed dense linear algebra over the simulated MPI
//! runtime.
//!
//! The paper's Epsilon module inverts `N_G x N_G` dielectric matrices too
//! large for one device, dispatching to ScaLAPACK-class distributed
//! solvers. This crate is that substrate at reproduction scale: matrices
//! are distributed by *row blocks* over the ranks of a communicator,
//! products run as local GEMMs against all-gathered panels, and the
//! inversion uses the Newton-Schulz iteration
//! `X_{k+1} = X_k (2 I - A X_k)` — quadratically convergent and built
//! entirely from the distributed GEMM, which is exactly why it suits
//! accelerator fleets.
//!
//! Every rank holds `rows(rank) = ceil-split of n` contiguous rows; all
//! collective calls must be made by every rank of the communicator in the
//! same order (MPI semantics, enforced by `bgw-comm`).

#![warn(missing_docs)]

use bgw_comm::{Comm, CommError};
use bgw_linalg::{matmul, zgemm, CMatrix, Op};
use bgw_num::Complex64;

/// How a distributed linear-algebra operation fails: a communicator
/// fault, or a numerical condition of the operation itself.
///
/// The Newton-Schulz non-convergence case used to be an `assert!` —
/// one ill-conditioned local panel aborted the whole pool instead of
/// letting the resilient drivers degrade to their typed-error recovery
/// path. It is data now, not a crash.
#[derive(Clone, Debug, PartialEq)]
pub enum DistError {
    /// A runtime fault of the underlying communicator.
    Comm(CommError),
    /// The Newton-Schulz iteration failed to contract within its sweep
    /// budget: the matrix is outside the iteration's convergence domain
    /// (singular or too ill-conditioned). Deterministic — every rank
    /// computes the same residual, so every rank reports the same error
    /// and no collective is left half-entered.
    NotConverged {
        /// Last observed `||I - A X||_max` residual.
        residual: f64,
        /// Sweeps performed before giving up.
        iterations: usize,
    },
}

impl std::fmt::Display for DistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DistError::Comm(e) => write!(f, "communicator fault: {e:?}"),
            DistError::NotConverged {
                residual,
                iterations,
            } => write!(
                f,
                "Newton-Schulz failed to converge after {iterations} sweeps \
                 (residual {residual:.3e}); use the serial LU fallback"
            ),
        }
    }
}

impl std::error::Error for DistError {}

impl From<CommError> for DistError {
    fn from(e: CommError) -> Self {
        DistError::Comm(e)
    }
}

/// The rows of a global `n x n`-ish matrix owned by one rank.
#[derive(Clone, Debug)]
pub struct DistMatrix {
    /// Global row count.
    pub n_rows: usize,
    /// Global column count.
    pub n_cols: usize,
    /// First global row owned by this rank.
    pub row_offset: usize,
    /// The local row block (`local_rows x n_cols`).
    pub local: CMatrix,
}

/// Rows owned by `rank` in a ceil-split of `n` over `size` ranks.
pub fn row_range(n: usize, size: usize, rank: usize) -> (usize, usize) {
    let per = n.div_ceil(size.max(1));
    let lo = (rank * per).min(n);
    let hi = (lo + per).min(n);
    (lo, hi)
}

impl DistMatrix {
    /// Distributes a replicated matrix: each rank keeps its row block.
    pub fn from_replicated(comm: &Comm, a: &CMatrix) -> Self {
        let (lo, hi) = row_range(a.nrows(), comm.size(), comm.rank());
        Self {
            n_rows: a.nrows(),
            n_cols: a.ncols(),
            row_offset: lo,
            local: a.submatrix(lo, hi, 0, a.ncols()),
        }
    }

    /// A distributed identity matrix.
    pub fn identity(comm: &Comm, n: usize) -> Self {
        let (lo, hi) = row_range(n, comm.size(), comm.rank());
        let local = CMatrix::from_fn(hi - lo, n, |i, j| {
            if lo + i == j {
                Complex64::ONE
            } else {
                Complex64::ZERO
            }
        });
        Self {
            n_rows: n,
            n_cols: n,
            row_offset: lo,
            local,
        }
    }

    /// Number of locally owned rows.
    pub fn local_rows(&self) -> usize {
        self.local.nrows()
    }

    /// Gathers the full matrix on every rank (an allgather of row
    /// blocks). Faults in the underlying allgather surface as typed errors,
    /// which is what the crash-recovery drivers in `bgw-core` build on.
    pub fn try_to_replicated(&self, comm: &Comm) -> Result<CMatrix, CommError> {
        let blocks = comm.try_allgather(self.local.as_slice().to_vec())?;
        let mut out = CMatrix::zeros(self.n_rows, self.n_cols);
        let mut row = 0usize;
        for block in blocks {
            let rows = block.len() / self.n_cols.max(1);
            for r in 0..rows {
                out.row_mut(row + r)
                    .copy_from_slice(&block[r * self.n_cols..(r + 1) * self.n_cols]);
            }
            row += rows;
        }
        assert_eq!(row, self.n_rows, "row blocks must tile the matrix");
        Ok(out)
    }

    /// Pipelined distributed product `self * b`: instead of one
    /// whole-matrix allgather followed by one local GEMM, `b` is gathered
    /// and consumed in `n_panels` column panels. Each collective posts as
    /// early as possible — a rank finishing its GEMM on panel `p` enters
    /// the rendezvous for panel `p+1` while slower ranks still compute,
    /// so communication of the next panel overlaps compute of the current
    /// one across the world (and the replicated footprint drops from
    /// `n x n` to `n x panel`). Column panels see the full contraction
    /// dimension, so the result does not depend on `n_panels`; one panel
    /// is the plain row-panel product (one allgather of all of `b`).
    pub fn try_matmul_pipelined(
        &self,
        comm: &Comm,
        b: &DistMatrix,
        n_panels: usize,
    ) -> Result<DistMatrix, CommError> {
        let _span = bgw_trace::span!("dist.matmul_pipelined");
        assert_eq!(self.n_cols, b.n_rows, "distributed dims disagree");
        let k = n_panels.clamp(1, b.n_cols.max(1));
        let mut local = CMatrix::zeros(self.local_rows(), b.n_cols);
        for p in 0..k {
            let lo = p * b.n_cols / k;
            let hi = (p + 1) * b.n_cols / k;
            if lo == hi {
                continue;
            }
            // Gather this column panel of `b` (each rank contributes the
            // panel slice of its row block).
            let panel_block = b.local.submatrix(0, b.local_rows(), lo, hi);
            let blocks = comm.try_allgather(panel_block.as_slice().to_vec())?;
            let width = hi - lo;
            let mut panel = CMatrix::zeros(b.n_rows, width);
            let mut row = 0usize;
            for block in blocks {
                let rows = block.len() / width.max(1);
                for r in 0..rows {
                    panel
                        .row_mut(row + r)
                        .copy_from_slice(&block[r * width..(r + 1) * width]);
                }
                row += rows;
            }
            assert_eq!(row, b.n_rows, "row blocks must tile the panel");
            let c_panel = matmul(&self.local, Op::None, &panel, Op::None);
            for r in 0..self.local_rows() {
                local.row_mut(r)[lo..hi].copy_from_slice(c_panel.row(r));
            }
        }
        Ok(DistMatrix {
            n_rows: self.n_rows,
            n_cols: b.n_cols,
            row_offset: self.row_offset,
            local,
        })
    }

    /// Global max-abs (allreduced).
    pub fn max_abs(&self, comm: &Comm) -> Result<f64, CommError> {
        let local = self.local.max_abs();
        comm.try_allreduce(local, f64::max)
    }
}

/// How many column panels the Newton-Schulz products pipeline through
/// [`DistMatrix::try_matmul_pipelined`]: enough to overlap collectives
/// with compute without shrinking the per-panel GEMM below useful size.
const NS_PIPELINE_PANELS: usize = 4;

/// Distributed Newton-Schulz inversion of a square matrix.
///
/// Converges quadratically when seeded with `X_0 = A^dagger / (||A||_1
/// ||A||_inf)`; iteration stops when `||I - A X||_max < tol` or after
/// `max_iter` sweeps. Returns `(inverse, iterations)`. Communication
/// faults surface as [`DistError::Comm`]; a residual that fails to drop
/// below `0.9` within the budget (a singular or ill-conditioned matrix)
/// surfaces as [`DistError::NotConverged`] — resilient callers degrade to
/// their typed-error recovery path.
pub fn try_newton_schulz_inverse(
    comm: &Comm,
    a: &DistMatrix,
    tol: f64,
    max_iter: usize,
) -> Result<(DistMatrix, usize), DistError> {
    assert_eq!(a.n_rows, a.n_cols, "inversion needs a square matrix");
    let n = a.n_rows;
    // Norm estimates need global column sums: compute on the replicated
    // copy once (the seed is cheap relative to the iteration).
    let a_full = a.try_to_replicated(comm)?;
    let norm_1 = (0..n)
        .map(|j| (0..n).map(|i| a_full[(i, j)].abs()).sum::<f64>())
        .fold(0.0, f64::max);
    let norm_inf = (0..n)
        .map(|i| a_full.row(i).iter().map(|z| z.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    let scale = 1.0 / (norm_1 * norm_inf).max(1e-300);
    // X_0 = scale * A^dagger, distributed by rows.
    let (lo, hi) = row_range(n, comm.size(), comm.rank());
    let x0_local = CMatrix::from_fn(hi - lo, n, |i, j| a_full[(j, lo + i)].conj().scale(scale));
    let mut x = DistMatrix {
        n_rows: n,
        n_cols: n,
        row_offset: lo,
        local: x0_local,
    };

    let mut iterations = 0;
    for it in 0..max_iter {
        iterations = it + 1;
        // R = A X (distributed, pipelined so the panel collectives post
        // early and overlap the per-panel GEMMs), residual = ||I - R||_max
        let ax = a.try_matmul_pipelined(comm, &x, NS_PIPELINE_PANELS)?;
        let mut residual: f64 = 0.0;
        for i in 0..ax.local_rows() {
            for j in 0..n {
                let target = if ax.row_offset + i == j {
                    Complex64::ONE
                } else {
                    Complex64::ZERO
                };
                residual = residual.max((ax.local[(i, j)] - target).abs());
            }
        }
        let residual = comm.try_allreduce(residual, f64::max)?;
        if residual < tol {
            break;
        }
        // X <- X (2I - A X): build M = 2I - AX (replicated), then local GEMM.
        let mut m = ax.try_to_replicated(comm)?;
        m.scale_inplace(Complex64::new(-1.0, 0.0));
        for d in 0..n {
            m[(d, d)] += Complex64::new(2.0, 0.0);
        }
        let mut new_local = CMatrix::zeros(x.local_rows(), n);
        zgemm(
            Complex64::ONE,
            &x.local,
            Op::None,
            &m,
            Op::None,
            Complex64::ZERO,
            &mut new_local,
        );
        x.local = new_local;
        if it == max_iter - 1 && residual >= 0.9 {
            // Outside the iteration's contraction domain. Every rank
            // computed the same allreduced residual, so every rank takes
            // this branch together — the world stays collectively
            // consistent while the caller falls back or recovers.
            return Err(DistError::NotConverged {
                residual,
                iterations,
            });
        }
    }
    Ok((x, iterations))
}

/// Distributed build-and-invert of the symmetrized dielectric matrix:
/// `eps~ = I - v^{1/2} chi v^{1/2}` from a distributed `chi`, inverted by
/// Newton-Schulz — the distributed Epsilon path.
pub fn try_invert_epsilon_distributed(
    comm: &Comm,
    chi: &DistMatrix,
    vsqrt: &[f64],
    tol: f64,
) -> Result<(DistMatrix, usize), DistError> {
    assert_eq!(chi.n_rows, chi.n_cols);
    assert_eq!(vsqrt.len(), chi.n_rows);
    let mut eps = chi.clone();
    for i in 0..eps.local_rows() {
        let gi = eps.row_offset + i;
        for j in 0..eps.n_cols {
            let v = vsqrt[gi] * vsqrt[j];
            eps.local[(i, j)] = -chi.local[(i, j)].scale(v);
        }
        eps.local[(i, gi)] += Complex64::ONE;
    }
    try_newton_schulz_inverse(comm, &eps, tol, 60)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bgw_comm::run_world;
    use bgw_linalg::invert;

    /// `run_world` for a fallible rank body on a fault-free world.
    fn world<R: Send>(
        size: usize,
        f: impl Fn(&Comm) -> Result<R, DistError> + Send + Sync,
    ) -> Vec<R> {
        run_world(size, |c| f(c).expect("fault-free world")).0
    }

    #[test]
    fn row_ranges_tile() {
        for (n, size) in [(10usize, 3usize), (7, 7), (5, 8), (100, 6)] {
            let mut total = 0;
            for r in 0..size {
                let (lo, hi) = row_range(n, size, r);
                assert!(lo <= hi && hi <= n);
                total += hi - lo;
            }
            assert_eq!(total, n, "n={n}, size={size}");
        }
    }

    #[test]
    fn scatter_gather_roundtrip() {
        let a = CMatrix::random(13, 9, 1);
        let out = world(4, |comm| {
            let d = DistMatrix::from_replicated(comm, &a);
            Ok(d.try_to_replicated(comm)?.as_slice().to_vec())
        });
        for flat in out {
            let b = CMatrix::from_vec(13, 9, flat);
            assert_eq!(b.max_abs_diff(&a), 0.0);
        }
    }

    #[test]
    fn newton_schulz_matches_lu_inverse() {
        // well-conditioned test matrix: diagonally dominant
        let n = 16;
        let mut a = CMatrix::random(n, n, 5);
        for d in 0..n {
            a[(d, d)] += Complex64::new(4.0, 0.0);
        }
        let reference = invert(&a).unwrap();
        let out = world(4, |comm| {
            let da = DistMatrix::from_replicated(comm, &a);
            let (inv, iters) = try_newton_schulz_inverse(comm, &da, 1e-12, 60)?;
            Ok((inv.try_to_replicated(comm)?.as_slice().to_vec(), iters))
        });
        for (flat, iters) in out {
            let inv = CMatrix::from_vec(n, n, flat);
            assert!(
                inv.max_abs_diff(&reference) < 1e-9,
                "{}",
                inv.max_abs_diff(&reference)
            );
            assert!(iters > 1 && iters < 60);
        }
    }

    #[test]
    fn distributed_epsilon_inversion_matches_serial_build() {
        // synthetic negative-definite chi (screening-like)
        let n = 12;
        let h = CMatrix::random_hermitian(n, 9);
        let chi = CMatrix::from_fn(n, n, |i, j| {
            let mut v = h[(i, j)].scale(0.05);
            if i == j {
                v -= Complex64::new(0.4, 0.0);
            }
            v
        });
        let vsqrt: Vec<f64> = (0..n).map(|i| 1.0 / (1.0 + i as f64 * 0.3)).collect();
        // serial reference
        let mut eps = CMatrix::identity(n);
        for i in 0..n {
            for j in 0..n {
                eps[(i, j)] -= chi[(i, j)].scale(vsqrt[i] * vsqrt[j]);
            }
        }
        let reference = invert(&eps).unwrap();
        let out = world(3, |comm| {
            let dchi = DistMatrix::from_replicated(comm, &chi);
            let (inv, _) = try_invert_epsilon_distributed(comm, &dchi, &vsqrt, 1e-12)?;
            Ok(inv.try_to_replicated(comm)?.as_slice().to_vec())
        });
        for flat in out {
            let inv = CMatrix::from_vec(n, n, flat);
            assert!(inv.max_abs_diff(&reference) < 1e-8);
        }
    }

    #[test]
    fn pipelined_matmul_matches_plain() {
        let a = CMatrix::random(11, 7, 21);
        let b = CMatrix::random(7, 5, 22);
        let serial = matmul(&a, Op::None, &b, Op::None);
        for panels in [1usize, 2, 4, 9] {
            let out = world(3, |comm| {
                let da = DistMatrix::from_replicated(comm, &a);
                let db = DistMatrix::from_replicated(comm, &b);
                let c = da.try_matmul_pipelined(comm, &db, panels)?;
                Ok(c.try_to_replicated(comm)?.as_slice().to_vec())
            });
            for flat in out {
                let c = CMatrix::from_vec(11, 5, flat);
                assert!(
                    c.max_abs_diff(&serial) < 1e-12,
                    "panels={panels}: {}",
                    c.max_abs_diff(&serial)
                );
            }
        }
    }

    #[test]
    fn singular_matrix_yields_typed_nonconvergence_on_every_rank() {
        // The zero matrix is maximally outside the Newton-Schulz domain:
        // the residual stays pinned at 1. Every rank must get the same
        // typed error — no panic, no rank left waiting in a collective.
        let a = CMatrix::zeros(8, 8);
        let (out, _) = run_world(3, |comm| {
            let da = DistMatrix::from_replicated(comm, &a);
            try_newton_schulz_inverse(comm, &da, 1e-12, 5)
        });
        for r in out {
            match r {
                Err(DistError::NotConverged {
                    residual,
                    iterations,
                }) => {
                    assert!(residual >= 0.9, "residual {residual}");
                    assert_eq!(iterations, 5);
                }
                other => panic!("expected NotConverged, got {other:?}"),
            }
        }
    }

    #[test]
    fn norms_are_global() {
        let a = CMatrix::random(10, 10, 11);
        let serial_m = a.max_abs();
        let out = world(4, |comm| {
            let d = DistMatrix::from_replicated(comm, &a);
            Ok(d.max_abs(comm)?)
        });
        for m in out {
            assert!((m - serial_m).abs() < 1e-15);
        }
    }
}
