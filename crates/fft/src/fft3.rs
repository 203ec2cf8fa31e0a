//! Three-dimensional complex FFT over row-major `[nx][ny][nz]` grids.
//!
//! This is the transform behind the MTXEL kernel: wavefunctions are scattered
//! from the plane-wave sphere onto the FFT box, transformed to real space,
//! multiplied pointwise, and transformed back (paper Sec. 5.2, ref 8).
//!
//! The hot path executes each axis as *batched* line transforms: lines are
//! gathered [`LINE_BATCH`] at a time into split re/im `f64` panels, pushed
//! through [`FftPlan::process_batch_split`] (table-driven butterflies
//! compiled per ISA and dispatched at runtime, twiddle lookups amortized
//! over the batch, the batch dimension vectorized) and scattered back.
//! z-lines are contiguous; y and x lines are strided gathers.
//!
//! Three drivers share that line-group loop. [`Fft3d::process_with`] runs
//! one grid on the calling thread with caller-owned [`FftScratch`] — the
//! unit one pool participant executes; [`Fft3d::process_many`] distributes
//! whole grids over the `bgw-par` pool, one scratch per participant (the
//! shape the MTXEL band loops and the SCF density sum feed);
//! [`Fft3d::process`] offers each axis pass of a single grid to the pool,
//! which takes it only when the pass is worth a wake-up (every driver
//! states its work by the `5 n log2 n` count; `bgw-par` owns the floor).
//! The tests hold all three to the O(n^2) [`crate::dft_reference`]
//! applied along each axis.

use crate::plan::{cached_plan, Direction, FftPlan, LINE_BATCH};
use bgw_num::Complex64;
use bgw_par::{Flops, SendPtr};
use bgw_trace::SpanSite;
use std::sync::Arc;
use std::time::Instant;

/// A reusable 3-D FFT plan. Cheap to clone: the per-axis 1-D plans are
/// process-wide cached [`Arc`]s shared between all engines with a common
/// axis length (see [`cached_plan`]).
#[derive(Clone, Debug)]
pub struct Fft3d {
    nx: usize,
    ny: usize,
    nz: usize,
    plan_x: Arc<FftPlan>,
    plan_y: Arc<FftPlan>,
    plan_z: Arc<FftPlan>,
}

/// The buffers one thread needs to transform grids: split re/im line
/// panels and butterfly scratch for [`LINE_BATCH`] lines of the longest
/// axis. Owned by whoever runs the transforms ([`Fft3d::scratch`]), so a
/// loop over many grids allocates once per thread, not per axis pass.
pub struct FftScratch {
    panel_re: Vec<f64>,
    panel_im: Vec<f64>,
    work: Vec<f64>,
}

impl FftScratch {
    fn for_plan(plan: &FftPlan) -> Self {
        Self {
            panel_re: vec![0.0; plan.len() * LINE_BATCH],
            panel_im: vec![0.0; plan.len() * LINE_BATCH],
            work: vec![0.0; plan.batch_scratch_split_len()],
        }
    }
}

/// One axis pass of a grid: `n_lines` lines of `plan.len()` elements
/// `stride` apart, line `l` starting at flat offset
/// `(l / block) * block_stride + l % block`.
struct AxisPass<'a> {
    plan: &'a FftPlan,
    n_lines: usize,
    stride: usize,
    block: usize,
    block_stride: usize,
    span: &'static SpanSite,
}

impl Fft3d {
    /// Creates a plan for an `nx x ny x nz` grid.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Self {
            nx,
            ny,
            nz,
            plan_x: cached_plan(nx),
            plan_y: cached_plan(ny),
            plan_z: cached_plan(nz),
        }
    }

    /// Grid dimensions `(nx, ny, nz)`.
    pub fn dims(&self) -> (usize, usize, usize) {
        (self.nx, self.ny, self.nz)
    }

    /// Total number of grid points.
    pub fn len(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// `true` if the grid has no points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of 1-D line transforms in one 3-D pass.
    pub fn line_count(&self) -> usize {
        self.nx * self.ny + self.nx * self.nz + self.ny * self.nz
    }

    /// Operation count of one 3-D pass: every line at the `5 n log2 n`
    /// convention. What a caller handing whole grids to the pool states
    /// as the cost of one.
    pub fn flops(&self) -> u64 {
        self.passes()
            .iter()
            .map(|p| p.n_lines as u64 * p.plan.line_flops())
            .sum()
    }

    /// Flat index of grid point `(ix, iy, iz)`.
    #[inline]
    pub fn index(&self, ix: usize, iy: usize, iz: usize) -> usize {
        (ix * self.ny + iy) * self.nz + iz
    }

    /// z lines are contiguous (line `l` starts at `l * nz`), y lines
    /// stride `nz` within each x-plane, x lines stride `ny * nz`.
    fn passes(&self) -> [AxisPass<'_>; 3] {
        static AXIS_Z: SpanSite = SpanSite::new("fft.axis_z");
        static AXIS_Y: SpanSite = SpanSite::new("fft.axis_y");
        static AXIS_X: SpanSite = SpanSite::new("fft.axis_x");
        let (nx, ny, nz) = (self.nx, self.ny, self.nz);
        [
            AxisPass {
                plan: &self.plan_z,
                n_lines: nx * ny,
                stride: 1,
                block: 1,
                block_stride: nz,
                span: &AXIS_Z,
            },
            AxisPass {
                plan: &self.plan_y,
                n_lines: nx * nz,
                stride: nz,
                block: nz,
                block_stride: ny * nz,
                span: &AXIS_Y,
            },
            AxisPass {
                plan: &self.plan_x,
                n_lines: ny * nz,
                stride: ny * nz,
                block: ny * nz,
                block_stride: 0,
                span: &AXIS_X,
            },
        ]
    }

    /// The frame every batched driver shares: one `fft.grid` span, the
    /// three axis passes in z, y, x order through `run`, one
    /// `record_fft_pass`.
    fn transform(
        &self,
        data: &mut [Complex64],
        mut run: impl FnMut(&AxisPass<'_>, SendPtr<Complex64>),
    ) {
        assert_eq!(data.len(), self.len(), "grid buffer length mismatch");
        let _span = bgw_trace::span!("fft.grid");
        let t0 = Instant::now();
        let ptr = SendPtr::new(data.as_mut_ptr());
        for pass in self.passes() {
            if pass.plan.len() > 1 && pass.n_lines > 0 {
                let _axis = bgw_trace::enter(pass.span);
                run(&pass, ptr);
            }
        }
        bgw_perf::counters::record_fft_pass(
            self.line_count() as u64,
            t0.elapsed().as_nanos() as u64,
        );
    }

    /// Transforms `data` (length `nx*ny*nz`, row-major) in place, offering
    /// each axis pass to the worker pool.
    pub fn process(&self, data: &mut [Complex64], dir: Direction) {
        self.transform(data, |pass, ptr| pass.pooled(ptr, dir));
    }

    /// Allocates the per-thread buffers [`Fft3d::process_with`] needs.
    pub fn scratch(&self) -> FftScratch {
        let longest = [&self.plan_x, &self.plan_y, &self.plan_z]
            .into_iter()
            .max_by_key(|p| p.len())
            .expect("three axes");
        FftScratch::for_plan(longest)
    }

    /// Transforms `data` in place on the calling thread, reusing the
    /// caller's `scratch` (from [`Fft3d::scratch`] of a plan whose longest
    /// axis is at least this one's). No pool interaction: this is what one
    /// participant of a region over many grids runs per grid.
    pub fn process_with(&self, data: &mut [Complex64], scratch: &mut FftScratch, dir: Direction) {
        self.transform(data, |pass, ptr| {
            // SAFETY: `ptr` spans the exclusively borrowed `data`, whose
            // length `transform` checked, and this thread is the only one
            // touching it.
            unsafe { pass.groups(ptr, 0, pass.n_groups(), scratch, dir) }
        });
    }

    /// Transforms every grid in `grids` in place, distributing whole grids
    /// over the worker pool: each participant transforms its share with
    /// one [`FftScratch`] of its own.
    pub fn process_many(&self, grids: &mut [Vec<Complex64>], dir: Direction) {
        let _span = bgw_trace::span!("fft.batch");
        for g in grids.iter() {
            assert_eq!(g.len(), self.len(), "grid buffer length mismatch");
        }
        let n = grids.len();
        let chunk = bgw_par::auto_chunk(n, bgw_par::num_threads(), 1);
        let ptr = SendPtr::new(grids.as_mut_ptr());
        bgw_par::parallel_for_chunked(n, chunk, Flops(self.flops()), move |lo, hi| {
            let mut scratch = self.scratch();
            for g in lo..hi {
                // SAFETY: chunks [lo, hi) are disjoint across participants,
                // so each grid has exactly one writer.
                let grid = unsafe { &mut *ptr.get().add(g) };
                self.process_with(grid, &mut scratch, dir);
            }
        });
    }

    /// [`Fft3d::process_many`] in the forward direction.
    pub fn forward_many(&self, grids: &mut [Vec<Complex64>]) {
        self.process_many(grids, Direction::Forward);
    }

    /// [`Fft3d::process_many`] in the inverse direction.
    pub fn inverse_many(&self, grids: &mut [Vec<Complex64>]) {
        self.process_many(grids, Direction::Inverse);
    }
}

impl AxisPass<'_> {
    /// Lines are transformed [`LINE_BATCH`] at a time; group `g` holds
    /// lines `g * LINE_BATCH..` — a function of the grid alone, so every
    /// driver and every pool width runs the same batches.
    fn n_groups(&self) -> usize {
        self.n_lines.div_ceil(LINE_BATCH)
    }

    /// Offers the pass's line groups to the pool, each participant with
    /// scratch of its own; the cost of one group is its lines' FFTs.
    fn pooled(&self, ptr: SendPtr<Complex64>, dir: Direction) {
        let groups = self.n_groups();
        let chunk = bgw_par::auto_chunk(groups, bgw_par::num_threads(), 1);
        let cost = Flops(LINE_BATCH as u64 * self.plan.line_flops());
        bgw_par::parallel_for_chunked(groups, chunk, cost, move |glo, ghi| {
            let mut scratch = FftScratch::for_plan(self.plan);
            // SAFETY: `Fft3d::transform` hands out a pointer to a grid of
            // the plan's size; group ranges are disjoint across
            // participants and distinct lines occupy disjoint offsets.
            unsafe { self.groups(ptr, glo, ghi, &mut scratch, dir) }
        });
    }

    /// Transforms line groups `glo..ghi`: each group is gathered straight
    /// into the split re/im panels (the strided gather doubles as the
    /// complex-to-split-plane conversion, so the layout change costs
    /// nothing extra), pushed through [`FftPlan::process_batch_split`] and
    /// scattered back.
    ///
    /// # Safety
    /// `ptr` must point to a grid this pass was built for, and no other
    /// thread may access the lines of groups `glo..ghi` during the call.
    unsafe fn groups(
        &self,
        ptr: SendPtr<Complex64>,
        glo: usize,
        ghi: usize,
        scratch: &mut FftScratch,
        dir: Direction,
    ) {
        let n = self.plan.len();
        let line_base = |l: usize| (l / self.block) * self.block_stride + l % self.block;
        let panel_re = &mut scratch.panel_re[..n * LINE_BATCH];
        let panel_im = &mut scratch.panel_im[..n * LINE_BATCH];
        let work = &mut scratch.work[..self.plan.batch_scratch_split_len()];
        for g in glo..ghi {
            let lo = g * LINE_BATCH;
            let b = LINE_BATCH.min(self.n_lines - lo);
            for (j, l) in (lo..lo + b).enumerate() {
                let base = line_base(l);
                for k in 0..n {
                    // SAFETY: the caller owns these lines (see above); the
                    // offset is inside the grid by construction of the pass.
                    let z = unsafe { *ptr.get().add(base + k * self.stride) };
                    panel_re[k * b + j] = z.re;
                    panel_im[k * b + j] = z.im;
                }
            }
            self.plan.process_batch_split(
                &mut panel_re[..n * b],
                &mut panel_im[..n * b],
                b,
                work,
                dir,
            );
            for (j, l) in (lo..lo + b).enumerate() {
                let base = line_base(l);
                for k in 0..n {
                    let z = Complex64::new(panel_re[k * b + j], panel_im[k * b + j]);
                    // SAFETY: as above — one writer per element.
                    unsafe { *ptr.get().add(base + k * self.stride) = z };
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::dft_reference;
    use bgw_num::c64;
    use bgw_num::simd::Isa;

    fn rand_grid(n: usize, seed: u64) -> Vec<Complex64> {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64 - 0.5
        };
        (0..n).map(|_| c64(next(), next())).collect()
    }

    /// Brute-force 3-D DFT by applying the 1-D reference along each axis.
    fn dft3_reference(
        x: &[Complex64],
        (nx, ny, nz): (usize, usize, usize),
        dir: Direction,
    ) -> Vec<Complex64> {
        let mut data = x.to_vec();
        // z
        for line in data.chunks_exact_mut(nz) {
            let t = dft_reference(line, dir);
            line.copy_from_slice(&t);
        }
        // y
        for ix in 0..nx {
            for iz in 0..nz {
                let mut line = Vec::with_capacity(ny);
                for iy in 0..ny {
                    line.push(data[(ix * ny + iy) * nz + iz]);
                }
                let t = dft_reference(&line, dir);
                for iy in 0..ny {
                    data[(ix * ny + iy) * nz + iz] = t[iy];
                }
            }
        }
        // x
        for iy in 0..ny {
            for iz in 0..nz {
                let mut line = Vec::with_capacity(nx);
                for ix in 0..nx {
                    line.push(data[(ix * ny + iy) * nz + iz]);
                }
                let t = dft_reference(&line, dir);
                for ix in 0..nx {
                    data[(ix * ny + iy) * nz + iz] = t[ix];
                }
            }
        }
        data
    }

    fn max_diff(a: &[Complex64], b: &[Complex64]) -> f64 {
        a.iter()
            .zip(b)
            .map(|(x, y)| (*x - *y).abs())
            .fold(0.0, f64::max)
    }

    #[test]
    fn matches_reference_small_grids() {
        // The pooled batched path against the direct sum along each axis:
        // ragged line groups, a single-line axis, both directions.
        for dims in [
            (2usize, 3usize, 4usize),
            (4, 4, 4),
            (3, 5, 8),
            (6, 5, 4),
            (16, 16, 16),
            (12, 10, 9),
            (1, 5, 8),
            (20, 1, 1),
        ] {
            let n = dims.0 * dims.1 * dims.2;
            let plan = Fft3d::new(dims.0, dims.1, dims.2);
            for dir in [Direction::Forward, Direction::Inverse] {
                let x = rand_grid(n, 7 * n as u64 + 1);
                let mut y = x.clone();
                plan.process(&mut y, dir);
                let err = max_diff(&y, &dft3_reference(&x, dims, dir));
                assert!(err < 1e-9, "dims {dims:?} dir {dir:?}: err {err}");
            }
        }
    }

    #[test]
    fn process_many_matches_individual() {
        let plan = Fft3d::new(6, 5, 4);
        let grids: Vec<Vec<Complex64>> = (0..5)
            .map(|g| rand_grid(plan.len(), 1000 + g as u64))
            .collect();
        let mut batched = grids.clone();
        plan.forward_many(&mut batched);
        for (g, grid) in grids.iter().enumerate() {
            let mut want = grid.clone();
            plan.process(&mut want, Direction::Forward);
            let err = batched[g]
                .iter()
                .zip(&want)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert_eq!(err, 0.0, "grid {g}");
        }
        let mut back = batched;
        plan.inverse_many(&mut back);
        for (g, grid) in grids.iter().enumerate() {
            let err = back[g]
                .iter()
                .zip(grid)
                .map(|(a, b)| (*a - *b).abs())
                .fold(0.0, f64::max);
            assert!(err < 1e-11, "grid {g}: roundtrip err {err}");
        }
    }

    #[test]
    fn every_supported_isa_returns_the_scalar_bits() {
        // `forward_many` / `inverse_many` on grids exercising the radix-3
        // and radix-5 butterflies (9*5*15 = 3^3 * 5^2 per-axis mix) with
        // each host-supported ISA's butterfly set forced in turn. Every
        // version runs the one scalar body's IEEE operations, so each must
        // return the scalar bits; the scalar run itself is held to the
        // direct sum. This is the only test in the binary that calls
        // `simd::force`, so the global override cannot race another
        // test's expectations.
        for dims in [(9usize, 5usize, 15usize), (16, 3, 5), (25, 27, 4)] {
            let plan = Fft3d::new(dims.0, dims.1, dims.2);
            let grids: Vec<Vec<Complex64>> = (0..3)
                .map(|g| rand_grid(plan.len(), 500 + 31 * g as u64))
                .collect();
            // Butterfly passes of `isa`'s set so far: the forced set must
            // be the one that ran, or equal bits would prove nothing.
            let lane = |isa: Isa| {
                let s = bgw_perf::counters::snapshot();
                [
                    s.fft_mk_calls_scalar,
                    s.fft_mk_calls_neon,
                    s.fft_mk_calls_avx2,
                    s.fft_mk_calls_avx512,
                ][isa.index()]
            };
            let run = |isa| {
                assert!(bgw_num::simd::force(Some(isa)), "{isa:?} must force");
                let ran = lane(isa);
                let mut fwd = grids.clone();
                plan.forward_many(&mut fwd);
                let mut back = fwd.clone();
                plan.inverse_many(&mut back);
                assert!(lane(isa) > ran, "{isa:?} butterflies must run");
                (fwd, back)
            };
            let (fwd, back) = run(Isa::Scalar);
            for (g, grid) in grids.iter().enumerate() {
                let err = max_diff(&fwd[g], &dft3_reference(grid, dims, Direction::Forward));
                assert!(err < 1e-9, "dims {dims:?} grid {g}: forward err {err}");
                let rt = max_diff(&back[g], grid);
                assert!(rt < 1e-11, "dims {dims:?} grid {g}: roundtrip err {rt}");
            }
            let bits = |gs: &[Vec<Complex64>]| -> Vec<(u64, u64)> {
                gs.iter()
                    .flatten()
                    .map(|z| (z.re.to_bits(), z.im.to_bits()))
                    .collect()
            };
            for &isa in bgw_num::simd::supported().iter() {
                let (f, b) = run(isa);
                assert!(
                    bits(&f) == bits(&fwd),
                    "{isa:?} dims {dims:?}: forward bits"
                );
                assert!(
                    bits(&b) == bits(&back),
                    "{isa:?} dims {dims:?}: inverse bits"
                );
            }
        }
        bgw_num::simd::force(None);
    }

    #[test]
    fn roundtrip_3d() {
        let plan = Fft3d::new(5, 6, 8);
        let x = rand_grid(plan.len(), 99);
        let mut y = x.clone();
        plan.process(&mut y, Direction::Forward);
        plan.process(&mut y, Direction::Inverse);
        let err = y
            .iter()
            .zip(&x)
            .map(|(a, b)| (*a - *b).abs())
            .fold(0.0, f64::max);
        assert!(err < 1e-11, "err {err}");
    }

    #[test]
    fn plane_wave_maps_to_single_grid_point() {
        let (nx, ny, nz) = (4usize, 6usize, 5usize);
        let plan = Fft3d::new(nx, ny, nz);
        let (kx, ky, kz) = (1usize, 2usize, 3usize);
        let mut x = vec![Complex64::ZERO; plan.len()];
        for ix in 0..nx {
            for iy in 0..ny {
                for iz in 0..nz {
                    let ph = 2.0 * std::f64::consts::PI * (kx * ix) as f64 / nx as f64
                        + 2.0 * std::f64::consts::PI * (ky * iy) as f64 / ny as f64
                        + 2.0 * std::f64::consts::PI * (kz * iz) as f64 / nz as f64;
                    x[plan.index(ix, iy, iz)] = Complex64::cis(ph);
                }
            }
        }
        plan.process(&mut x, Direction::Forward);
        let hot = plan.index(kx, ky, kz);
        for (i, z) in x.iter().enumerate() {
            if i == hot {
                assert!((z.re - plan.len() as f64).abs() < 1e-8);
            } else {
                assert!(z.abs() < 1e-8, "leakage at {i}: {z}");
            }
        }
    }

    #[test]
    fn index_is_row_major() {
        let plan = Fft3d::new(2, 3, 4);
        assert_eq!(plan.index(0, 0, 0), 0);
        assert_eq!(plan.index(0, 0, 3), 3);
        assert_eq!(plan.index(0, 1, 0), 4);
        assert_eq!(plan.index(1, 0, 0), 12);
        assert_eq!(plan.index(1, 2, 3), 23);
        assert_eq!(plan.dims(), (2, 3, 4));
        assert_eq!(plan.line_count(), 2 * 3 + 2 * 4 + 3 * 4);
        assert!(!plan.is_empty());
    }
}
