//! The GPP *diag.* kernel (paper Sec. 5.5): diagonal self-energy matrix
//! elements `Sigma_ll(E)` with the band/frequency-dependent inner matrix
//! generated on the fly.
//!
//! Several implementation variants stand in for the paper's programming
//! models (Table 4): a straightforward reference (the out-of-the-box
//! OpenMP-target port), a tiled variant with hoisted row access (the
//! optimized OpenMP/OpenACC class), and an optimized variant that runs
//! bands in SIMD lanes with the pole data of a `(G, G')` pair loaded once
//! per lane group, walks only the visited pairs, replaces divisions with
//! reciprocal multiplications and accumulates with FMA instructions (the
//! CUDA/HIP/SYCL class, Sec. 5.5.1). All variants produce the same numbers
//! to rounding; only the instruction stream differs — exactly the
//! comparison Table 4 makes on fixed hardware. The optimized variant
//! returns the same bits at every ISA, lane count and pool width.

use super::{gpp_factor, SigmaContext};
use bgw_num::simd::Isa;
use bgw_num::Complex64;
use std::time::Instant;

/// Implementation variant of the diag kernel.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelVariant {
    /// Plain triple loop; division-heavy inner body.
    Reference,
    /// `G'` tiling with hoisted row slices.
    Blocked,
    /// Bands in SIMD lanes + pair list + reciprocal arithmetic + FMA
    /// accumulation, one pool task per lane group.
    Optimized,
}

/// Result of a diag-kernel run.
#[derive(Clone, Debug)]
pub struct SigmaDiagResult {
    /// `sigma[s][e]` = `Sigma_{l_s l_s}(E_e)` (Ry) for the `s`-th Sigma
    /// band and `e`-th energy of its grid.
    pub sigma: Vec<Vec<f64>>,
    /// Energy grids used per band (Ry).
    pub e_grids: Vec<Vec<f64>>,
    /// Wall-clock seconds in the kernel.
    pub seconds: f64,
    /// Floating-point operations actually executed (counted).
    pub flops: u64,
}

/// Flops charged per active `(G, G')` pair per `(n, E)` iteration.
/// Counted from the innermost body: the SX + CH pole evaluations plus the
/// complex FMA accumulation (2 mul + add on re/im with the real factor).
pub const FLOPS_PER_ACTIVE_PAIR: u64 = 18;
/// Flops for an inactive pair (bare-exchange delta handling only).
pub const FLOPS_PER_INACTIVE_PAIR: u64 = 2;

/// Evaluates `Sigma_ll(E)` on a per-band energy grid: the loop over
/// [`gpp_sigma_row`]'s kernel, under one span.
///
/// `e_grids[s]` lists the energies (Ry) for Sigma band `s`; they may differ
/// per band (the diag kernel samples around each band's own `E^MF`,
/// paper Sec. 6).
pub fn gpp_sigma_diag(
    ctx: &SigmaContext,
    e_grids: &[Vec<f64>],
    variant: KernelVariant,
) -> SigmaDiagResult {
    assert_eq!(e_grids.len(), ctx.n_sigma(), "one grid per Sigma band");
    let _span = bgw_trace::span!("sigma.diag");
    let t0 = Instant::now();
    let mut flops = 0u64;
    let sigma = e_grids
        .iter()
        .enumerate()
        .map(|(s, grid)| {
            let mut sig = vec![0.0; grid.len()];
            flops += row_kernel(ctx, s, grid, variant, &mut sig);
            sig
        })
        .collect();
    bgw_trace::add_flops(flops);
    SigmaDiagResult {
        sigma,
        e_grids: e_grids.to_vec(),
        seconds: t0.elapsed().as_secs_f64(),
        flops,
    }
}

/// The Sigma row — the unit of work of a self-energy pool (paper
/// Sec. 5.5) and of the serving loop, which dedups rows across a
/// batch: evaluates row `s` of `ctx` on `grid` in place, writing
/// `Sigma_{l_s l_s}(E)` into `out` and returning the counted FLOPs. Each
/// band's sum is independent, so the rows of a context evaluated in any
/// order, on any subset, reproduce [`gpp_sigma_diag`] bit for bit.
pub fn gpp_sigma_row(
    ctx: &SigmaContext,
    s: usize,
    grid: &[f64],
    variant: KernelVariant,
    out: &mut [f64],
) -> u64 {
    let _span = bgw_trace::span!("sigma.diag");
    let flops = row_kernel(ctx, s, grid, variant, out);
    bgw_trace::add_flops(flops);
    flops
}

fn row_kernel(
    ctx: &SigmaContext,
    s: usize,
    grid: &[f64],
    variant: KernelVariant,
    out: &mut [f64],
) -> u64 {
    assert_eq!(grid.len(), out.len(), "one output slot per energy");
    match variant {
        KernelVariant::Reference => row_reference(ctx, s, grid, out),
        KernelVariant::Blocked => row_blocked(ctx, s, grid, out),
        KernelVariant::Optimized => row_lanes(ctx, s, grid, out, bgw_num::simd::effective()),
    }
}

fn row_reference(ctx: &SigmaContext, s: usize, grid: &[f64], out: &mut [f64]) -> u64 {
    let ng = ctx.n_g();
    let m = &ctx.m_tilde[s];
    let mut flops = 0u64;
    for (sig, &e) in out.iter_mut().zip(grid) {
        let mut acc = Complex64::ZERO;
        for n in 0..ctx.n_b() {
            let occupied = n < ctx.n_occ;
            let de = e - ctx.energies[n];
            let row = m.row(n);
            for g in 0..ng {
                for gp in 0..ng {
                    let p = gpp_factor(&ctx.gpp, g, gp, de, occupied);
                    if p != 0.0 {
                        acc += row[g].conj() * row[gp] * p;
                    }
                    flops += if ctx.gpp.strength(g, gp) > 0.0 {
                        FLOPS_PER_ACTIVE_PAIR
                    } else {
                        FLOPS_PER_INACTIVE_PAIR
                    };
                }
            }
        }
        *sig = acc.re;
    }
    flops
}

fn row_blocked(ctx: &SigmaContext, s: usize, grid: &[f64], out: &mut [f64]) -> u64 {
    const TILE: usize = 32;
    let ng = ctx.n_g();
    let m = &ctx.m_tilde[s];
    let mut flops = 0u64;
    for (sig, &e) in out.iter_mut().zip(grid) {
        let mut acc = Complex64::ZERO;
        for n in 0..ctx.n_b() {
            let occupied = n < ctx.n_occ;
            let de = e - ctx.energies[n];
            let row = m.row(n);
            for g in 0..ng {
                // hoisted conjugate (data reuse), tiled inner sweep;
                // still division-heavy like the directive versions
                let mg_conj = row[g].conj();
                let mut row_acc = Complex64::ZERO;
                for gp0 in (0..ng).step_by(TILE) {
                    let gp1 = (gp0 + TILE).min(ng);
                    let mut tile_acc = Complex64::ZERO;
                    for (gp, &rgp) in row.iter().enumerate().take(gp1).skip(gp0) {
                        let p = gpp_factor(&ctx.gpp, g, gp, de, occupied);
                        if p != 0.0 {
                            tile_acc += rgp.scale(p);
                        }
                    }
                    row_acc += tile_acc;
                }
                acc += mg_conj * row_acc;
            }
            flops += count_pair_flops(ctx, ng);
        }
        *sig = acc.re;
    }
    flops
}

/// Energies per pass over the pair list: the per-energy accumulators of a
/// lane group stay on the stack.
const MAX_NE: usize = 16;
/// Smallest `|denominator|` of a pole term; smaller ones keep their sign.
const DENOM_FLOOR: f64 = 1e-4;

/// The `(G, G')` pairs an Optimized sweep visits, ascending in `G'` for
/// each `G`: the active poles (strength `> 0`) and the diagonal, where the
/// occupied bands' bare exchange sits whatever its pole. A NaN strength
/// is skipped like an inactive pair: the scalar body gives it a zero
/// factor, which leaves a finite sum unchanged. Built per call:
/// `GppModel::pole_strength` is `pub`, so a cached index could go stale.
struct PairList {
    /// `gp[start[g]..start[g + 1]]` are the visited `G'` of row `G`.
    start: Vec<usize>,
    gp: Vec<u32>,
    /// Counted flops of one full `(G, G')` sweep at fixed `(n, E)`.
    sweep_flops: u64,
}

impl PairList {
    fn scan(ctx: &SigmaContext) -> Self {
        let ng = ctx.n_g();
        let mut start = Vec::with_capacity(ng + 1);
        let mut gp = Vec::new();
        let mut active = 0u64;
        start.push(0);
        for g in 0..ng {
            for (j, &s) in ctx.gpp.pole_strength[g * ng..(g + 1) * ng]
                .iter()
                .enumerate()
            {
                active += u64::from(s > 0.0);
                if s > 0.0 || j == g {
                    gp.push(j as u32);
                }
            }
            start.push(gp.len());
        }
        Self {
            start,
            gp,
            sweep_flops: sweep_flops(active, ng),
        }
    }
}

/// What one lane group reads: the context, its Sigma row's `m~`, the
/// pair list and the energy grid.
struct Sweep<'a> {
    ctx: &'a SigmaContext,
    m: &'a bgw_linalg::CMatrix,
    pairs: PairList,
    grid: &'a [f64],
}

#[inline(always)]
fn floor_den(den: f64) -> f64 {
    if den.abs() < DENOM_FLOOR {
        DENOM_FLOOR.copysign(den)
    } else {
        den
    }
}

/// One lane group: lane `l` is band `n0 + l`. Writes each existing band's
/// partial `Sigma(E)` into `out` (band-major, `grid.len()` per band).
///
/// Every lane runs the scalar body's IEEE operations — `mul_add` fused,
/// the products of `conj(m_G) m_G'` not — over the pairs in the scalar
/// body's order, so a band's partial has the same bits at every `L`.
/// Occupancy is a per-lane select; a group with no occupied lane skips
/// the screened-exchange denominator. Lanes past the last band compute
/// on zeros and are not written.
#[inline(always)]
fn group_body<const L: usize>(sw: &Sweep, n0: usize, out: &mut [f64]) {
    let (ctx, ng, ne) = (sw.ctx, sw.ctx.n_g(), sw.grid.len());
    let lanes = out.len() / ne;
    let mut en = [0.0f64; L];
    let mut occ = [false; L];
    // The group's rows of m~ staged once, split re/im, one lane per band.
    let mut re = vec![[0.0f64; L]; ng];
    let mut im = vec![[0.0f64; L]; ng];
    for l in 0..lanes {
        en[l] = ctx.energies[n0 + l];
        occ[l] = n0 + l < ctx.n_occ;
        for (g, z) in sw.m.row(n0 + l).iter().enumerate() {
            re[g][l] = z.re;
            im[g][l] = z.im;
        }
    }
    let any_occ = occ.contains(&true);
    let mut de = [[0.0f64; L]; MAX_NE];
    let mut acc = [[0.0f64; L]; MAX_NE];
    for e0 in (0..ne).step_by(MAX_NE) {
        let grid = &sw.grid[e0..(e0 + MAX_NE).min(ne)];
        let nee = grid.len();
        for (dk, &e) in de.iter_mut().zip(grid) {
            for l in 0..L {
                dk[l] = e - en[l];
            }
        }
        acc[..nee].fill([0.0; L]);
        for g in 0..ng {
            // conj(m_G), as `Complex64::conj` spells it.
            let (cre, cim) = (re[g], im[g].map(|x| -x));
            for &gp in &sw.pairs.gp[sw.pairs.start[g]..sw.pairs.start[g + 1]] {
                let gp = gp as usize;
                let s = ctx.gpp.pole_strength[g * ng + gp];
                // Re(conj(m_G) * m_G') in `Complex64`'s `Mul` order.
                let mut prod = [0.0f64; L];
                for l in 0..L {
                    prod[l] = cre[l] * re[gp][l] - cim[l] * im[gp][l];
                }
                let diag = g == gp;
                if s > 0.0 {
                    // Pole data loaded once for all L bands.
                    let w = ctx.gpp.mode_freq[g * ng + gp];
                    let w2 = w * w;
                    let two_w = 2.0 * w;
                    let mut base = [0.0f64; L];
                    if diag {
                        for l in 0..L {
                            base[l] = if occ[l] { -1.0 } else { 0.0 };
                        }
                    }
                    for (d, a) in de.iter().zip(&mut acc[..nee]) {
                        let mut pk = base;
                        if any_occ {
                            for l in 0..L {
                                let sx =
                                    (-s).mul_add(1.0 / floor_den(d[l].mul_add(d[l], -w2)), pk[l]);
                                pk[l] = if occ[l] { sx } else { pk[l] };
                            }
                        }
                        for l in 0..L {
                            let p = s.mul_add(1.0 / floor_den(two_w * (d[l] - w)), pk[l]);
                            a[l] = p.mul_add(prod[l], a[l]);
                        }
                    }
                } else if any_occ {
                    // A diagonal without a pole: only the occupied lanes'
                    // bare exchange.
                    for l in (0..L).filter(|&l| occ[l]) {
                        for a in &mut acc[..nee] {
                            a[l] = (-1.0f64).mul_add(prod[l], a[l]);
                        }
                    }
                }
            }
        }
        for (l, band) in out.chunks_exact_mut(ne).enumerate() {
            for (slot, a) in band[e0..e0 + nee].iter_mut().zip(&acc) {
                *slot = a[l];
            }
        }
    }
}

/// Signature shared by every lane-group version. The `unsafe` is the
/// `#[target_feature]` contract: a version may only run on a host that
/// executes its ISA (the scalar version is a safe function coerced to
/// this type).
type GroupFn = unsafe fn(&Sweep, usize, &mut [f64]);

// The plain body, one band per group. On aarch64 the baseline target
// already makes `mul_add` an FMA instruction.
fn group_scalar(sw: &Sweep, n0: usize, out: &mut [f64]) {
    group_body::<1>(sw, n0, out)
}

#[cfg(target_arch = "x86_64")]
mod mv {
    //! `#[target_feature]` versions of the lane-group body: inlined under
    //! a wider feature set, `f64::mul_add` is a `vfmadd` instruction and
    //! the lane loops are 256-bit (AVX2+FMA) or 512-bit (AVX-512F) wide.
    //! Outside such a body — in a closure too, which does not inherit its
    //! parent's features — `mul_add` is a libm call on baseline x86-64.

    use super::*;

    /// [`group_body`] with 4 lanes.
    ///
    /// # Safety
    /// The host must execute AVX2 and FMA.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn group_avx2(sw: &Sweep, n0: usize, out: &mut [f64]) {
        group_body::<4>(sw, n0, out)
    }

    /// [`group_body`] with 8 lanes.
    ///
    /// # Safety
    /// The host must execute AVX-512F.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn group_avx512(sw: &Sweep, n0: usize, out: &mut [f64]) {
        group_body::<8>(sw, n0, out)
    }
}

/// Bands per lane group and the lane-group version compiled for `isa`.
fn group_kernel(isa: Isa) -> (usize, GroupFn) {
    match isa {
        #[cfg(target_arch = "x86_64")]
        Isa::Avx512 => (8, mv::group_avx512),
        #[cfg(target_arch = "x86_64")]
        Isa::Avx2 => (4, mv::group_avx2),
        _ => (1, group_scalar as GroupFn),
    }
}

/// The Optimized body (Sec. 5.5.1 on a CPU): bands in SIMD lanes, pole
/// data loaded once per `(G, G')` for a whole lane group, inactive pairs
/// skipped by index, one pool task per lane group writing its bands'
/// partials, then a left fold of the partials in band order — the
/// grouping a one-band-per-chunk reduction has, so the bits do not depend
/// on the pool width, on `isa` or on its lane count.
fn row_lanes(ctx: &SigmaContext, s: usize, grid: &[f64], out: &mut [f64], isa: Isa) -> u64 {
    assert!(
        bgw_num::simd::host_supports(isa),
        "{isa:?} does not run here"
    );
    let (nb, ne) = (ctx.n_b(), grid.len());
    let sweep = Sweep {
        ctx,
        m: &ctx.m_tilde[s],
        pairs: PairList::scan(ctx),
        grid,
    };
    let (lanes, group) = group_kernel(isa);
    let mut partial = vec![0.0; nb * ne];
    if ne > 0 {
        let mut groups: Vec<&mut [f64]> = partial.chunks_mut(lanes * ne).collect();
        let cost = bgw_par::Flops(sweep.pairs.sweep_flops * (lanes * ne) as u64);
        bgw_par::parallel_fill(&mut groups, cost, |i, band_partials| {
            bgw_perf::counters::record_gpp_mk_group(isa.index());
            // SAFETY: `group_kernel` hands out the version compiled for
            // `isa`, which the assertion above checked this host executes.
            unsafe { group(&sweep, i * lanes, band_partials) }
        });
    }
    // `0.0 + partial` is a one-band chunk folded into its zero identity:
    // it turns a -0.0 partial into +0.0 exactly as that reduction did.
    for (k, slot) in out.iter_mut().enumerate() {
        *slot = (0..nb)
            .map(|n| 0.0 + partial[n * ne + k])
            .reduce(|a, b| a + b)
            .unwrap_or(0.0);
    }
    sweep.pairs.sweep_flops * (nb * ne) as u64
}

/// Partial diag kernel over a contiguous `G'` slice `gp_lo..gp_hi` — the
/// unit of work one rank of a self-energy pool executes (paper Sec. 5.5:
/// "the summation over all N_G' is distributed over MPI ranks within a
/// self-energy pool"). Summing the partial results over a disjoint cover
/// of `0..N_G` reproduces the full kernel exactly.
pub fn gpp_sigma_diag_partial(
    ctx: &SigmaContext,
    e_grids: &[Vec<f64>],
    gp_lo: usize,
    gp_hi: usize,
) -> SigmaDiagResult {
    assert_eq!(e_grids.len(), ctx.n_sigma());
    assert!(gp_lo <= gp_hi && gp_hi <= ctx.n_g());
    let _span = bgw_trace::span!("sigma.diag.partial");
    let t0 = Instant::now();
    let ng = ctx.n_g();
    let nb = ctx.n_b();
    let mut flops = 0u64;
    let mut out = Vec::with_capacity(ctx.n_sigma());
    for (s, grid) in e_grids.iter().enumerate() {
        let m = &ctx.m_tilde[s];
        let mut sig = vec![0.0; grid.len()];
        for (ei, &e) in grid.iter().enumerate() {
            let mut acc = Complex64::ZERO;
            for n in 0..nb {
                let occupied = n < ctx.n_occ;
                let de = e - ctx.energies[n];
                let row = m.row(n);
                for g in 0..ng {
                    let mg_conj = row[g].conj();
                    let mut tile = Complex64::ZERO;
                    for (gp, &rgp) in row.iter().enumerate().take(gp_hi).skip(gp_lo) {
                        let p = gpp_factor(&ctx.gpp, g, gp, de, occupied);
                        if p != 0.0 {
                            tile += rgp.scale(p);
                        }
                        flops += if ctx.gpp.strength(g, gp) > 0.0 {
                            FLOPS_PER_ACTIVE_PAIR
                        } else {
                            FLOPS_PER_INACTIVE_PAIR
                        };
                    }
                    acc += mg_conj * tile;
                }
            }
            sig[ei] = acc.re;
        }
        out.push(sig);
    }
    bgw_trace::add_flops(flops);
    SigmaDiagResult {
        sigma: out,
        e_grids: e_grids.to_vec(),
        seconds: t0.elapsed().as_secs_f64(),
        flops,
    }
}

/// Counted flops for one full `(G, G')` sweep at fixed `(n, E)`.
fn count_pair_flops(ctx: &SigmaContext, ng: usize) -> u64 {
    // Precomputable per context, but cheap enough to recount.
    let active = ctx.gpp.pole_strength.iter().filter(|&&s| s > 0.0).count() as u64;
    sweep_flops(active, ng)
}

/// Counted flops of a `(G, G')` sweep with `active` active pairs.
fn sweep_flops(active: u64, ng: usize) -> u64 {
    let total = (ng * ng) as u64;
    active * FLOPS_PER_ACTIVE_PAIR + (total - active) * FLOPS_PER_INACTIVE_PAIR
}

/// The measured architecture prefactor `alpha` (paper Eq. 7): counted flops
/// divided by the canonical complexity `N_Sigma N_b N_G^2 N_E`, with
/// `N_Sigma N_E` the total energies over the (possibly ragged) per-band
/// grids. An empty result has no complexity and reports 0.
pub fn measured_alpha(result: &SigmaDiagResult, ctx: &SigmaContext) -> f64 {
    let ne: usize = result.e_grids.iter().map(Vec::len).sum();
    let denom = ctx.n_b() as f64 * (ctx.n_g() as f64).powi(2) * ne as f64;
    if denom == 0.0 {
        return 0.0;
    }
    result.flops as f64 / denom
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;
    use bgw_num::c64;

    /// The Optimized body before bands went into SIMD lanes: band-parallel
    /// through `parallel_reduce` with one band per chunk, every `mul_add`
    /// through the scalar path. The bitwise oracle of [`row_lanes`].
    fn row_optimized(ctx: &SigmaContext, s: usize, grid: &[f64], out: &mut [f64]) -> u64 {
        // Per-energy accumulators, amortized pole-data loads, divisions
        // replaced by reciprocal multiplies, and plain-f64 FMA accumulation
        // (the kernel factor is real) — the Sec. 5.5.1 optimization set.
        const MAX_NE: usize = 16;
        const DENOM_FLOOR: f64 = 1e-4;
        let ng = ctx.n_g();
        let ne = grid.len();
        let m = &ctx.m_tilde[s];
        let pair_flops = count_pair_flops(ctx, ng);
        let mut flops = 0u64;
        // Chunk the energy grid so the per-(g, gp) factor array stays on
        // the stack.
        for e0 in (0..ne).step_by(MAX_NE) {
            let e1 = (e0 + MAX_NE).min(ne);
            let nee = e1 - e0;
            // Band-parallel with per-worker accumulators, merged
            // deterministically (the two-stage reduction of Sec. 5.5.1).
            let (acc, fl) = bgw_par::parallel_reduce(
                ctx.n_b(),
                1,
                bgw_par::Flops(pair_flops * nee as u64),
                || (vec![c64(0.0, 0.0); nee], 0u64),
                |(acc, fl), n0, n1| {
                    let mut de = [0.0f64; MAX_NE];
                    let mut p = [0.0f64; MAX_NE];
                    let mut acc_re = [0.0f64; MAX_NE];
                    let mut acc_im = [0.0f64; MAX_NE];
                    for n in n0..n1 {
                        let occupied = n < ctx.n_occ;
                        let row = m.row(n);
                        let en = ctx.energies[n];
                        for (k, &e) in grid[e0..e1].iter().enumerate() {
                            de[k] = e - en;
                        }
                        acc_re[..nee].fill(0.0);
                        acc_im[..nee].fill(0.0);
                        for g in 0..ng {
                            let mg = row[g];
                            let strengths = &ctx.gpp.pole_strength[g * ng..(g + 1) * ng];
                            let freqs = &ctx.gpp.mode_freq[g * ng..(g + 1) * ng];
                            for gp in 0..ng {
                                // Kernel factor for every E of the chunk;
                                // pole data loaded once per (g, gp),
                                // inactive pairs skipped entirely.
                                let strength = strengths[gp];
                                let exch = occupied && g == gp;
                                if strength <= 0.0 && !exch {
                                    continue;
                                }
                                let base = if exch { -1.0 } else { 0.0 };
                                if strength > 0.0 {
                                    let w = freqs[gp];
                                    let w2 = w * w;
                                    let two_w = 2.0 * w;
                                    for k in 0..nee {
                                        let d = de[k];
                                        let mut pk = base;
                                        if occupied {
                                            let den = d.mul_add(d, -w2);
                                            let den = if den.abs() < DENOM_FLOOR {
                                                DENOM_FLOOR.copysign(den)
                                            } else {
                                                den
                                            };
                                            pk = (-strength).mul_add(1.0 / den, pk);
                                        }
                                        let den = two_w * (d - w);
                                        let den = if den.abs() < DENOM_FLOOR {
                                            DENOM_FLOOR.copysign(den)
                                        } else {
                                            den
                                        };
                                        p[k] = strength.mul_add(1.0 / den, pk);
                                    }
                                } else {
                                    p[..nee].fill(base);
                                }
                                // conj(m_g) * m_gp once, then real FMA per E.
                                let prod = mg.conj() * row[gp];
                                for k in 0..nee {
                                    acc_re[k] = p[k].mul_add(prod.re, acc_re[k]);
                                    acc_im[k] = p[k].mul_add(prod.im, acc_im[k]);
                                }
                            }
                        }
                        for k in 0..nee {
                            acc[k] += c64(acc_re[k], acc_im[k]);
                        }
                        *fl += pair_flops * nee as u64;
                    }
                },
                |(mut a, fa), (b, fb)| {
                    for (x, y) in a.iter_mut().zip(b) {
                        *x += y;
                    }
                    (a, fa + fb)
                },
            );
            for (slot, z) in out[e0..e1].iter_mut().zip(&acc) {
                *slot = z.re;
            }
            flops += fl;
        }
        flops
    }

    /// `ctx` cut to its first `nb` bands, with `n_occ` occupied.
    fn truncated(ctx: &SigmaContext, nb: usize, n_occ: usize) -> SigmaContext {
        let mut c = ctx.clone();
        let ng = c.n_g();
        c.energies.truncate(nb);
        c.n_occ = n_occ;
        for m in &mut c.m_tilde {
            *m = bgw_linalg::CMatrix::from_vec(nb, ng, m.as_slice()[..nb * ng].to_vec());
        }
        c
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lanes_match_the_scalar_body_bitwise_at_every_isa_and_width() {
        // The pool width and the counters are process-wide.
        let _guard = bgw_perf::counters::exclusive_test_guard();
        let (small, _) = testkit::small_context();
        let (big, _) = testkit::context_at(4.2, 1.0, 60);
        // N_b = 59 is a multiple of no lane count; 6 and 13 occupied bands
        // end inside a lane group of 4 and of 8.
        let mut no_pole = truncated(&big, 59, 6);
        let ng = no_pole.n_g();
        for g in (0..ng).step_by(2) {
            no_pole.gpp.pole_strength[g * ng + g] = 0.0;
        }
        no_pole.gpp.pole_strength[ng + 1] = -0.5;
        let contexts = [small, no_pole, truncated(&big, 59, 13)];
        let before = bgw_perf::counters::snapshot();
        for (c, ctx) in contexts.iter().enumerate() {
            // Ragged grids: 1, 3 and 17 energies (17 crosses MAX_NE).
            let grids: Vec<Vec<f64>> = ctx
                .sigma_energies
                .iter()
                .enumerate()
                .map(|(s, &e)| {
                    let ne = [1, 3, 17][s % 3];
                    (0..ne).map(|k| e + 0.04 * (k as f64 - 1.0)).collect()
                })
                .collect();
            let oracle: Vec<(Vec<f64>, u64)> = grids
                .iter()
                .enumerate()
                .map(|(s, grid)| {
                    let mut out = vec![0.0; grid.len()];
                    let flops = row_optimized(ctx, s, grid, &mut out);
                    (out, flops)
                })
                .collect();
            for isa in bgw_num::simd::supported() {
                for width in [1, 2, 3, 7] {
                    bgw_par::set_num_threads(width);
                    for (s, grid) in grids.iter().enumerate() {
                        let mut out = vec![0.0; grid.len()];
                        let flops = row_lanes(ctx, s, grid, &mut out, isa);
                        let what = format!("context {c}, {isa:?}, width {width}, row {s}");
                        assert_eq!(bits(&out), bits(&oracle[s].0), "{what}");
                        assert_eq!(flops, oracle[s].1, "{what}");
                    }
                }
            }
            bgw_par::set_num_threads(0);
            // The public entries, at the effective ISA: the whole context
            // and its rows one at a time, last first.
            let whole = gpp_sigma_diag(ctx, &grids, KernelVariant::Optimized);
            for s in (0..ctx.n_sigma()).rev() {
                let mut row = vec![0.0; grids[s].len()];
                gpp_sigma_row(ctx, s, &grids[s], KernelVariant::Optimized, &mut row);
                assert_eq!(bits(&row), bits(&oracle[s].0), "context {c}, row {s}");
                assert_eq!(
                    bits(&whole.sigma[s]),
                    bits(&oracle[s].0),
                    "context {c}, band {s}"
                );
            }
        }
        let d = before.delta(&bgw_perf::counters::snapshot());
        assert!(
            d.pool_dispatches > 0,
            "the widths above 1 never reached the pool"
        );
    }

    #[test]
    fn lane_groups_are_counted_on_the_effective_isa() {
        let _guard = bgw_perf::counters::exclusive_test_guard();
        let lanes = |d: &bgw_perf::counters::CounterSnapshot| {
            [
                d.gpp_mk_groups_scalar,
                d.gpp_mk_groups_neon,
                d.gpp_mk_groups_avx2,
                d.gpp_mk_groups_avx512,
            ]
        };
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let isa = bgw_num::simd::effective();
        let before = bgw_perf::counters::snapshot();
        gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
        let d = lanes(&before.delta(&bgw_perf::counters::snapshot()));
        let groups = ctx.n_sigma() * ctx.n_b().div_ceil(group_kernel(isa).0);
        assert!(d[isa.index()] >= groups as u64, "{isa:?} lane: {d:?}");
        if isa != Isa::Scalar {
            assert_eq!(d[Isa::Scalar.index()], 0, "a scalar fallback on {isa:?}");
        }
    }

    #[test]
    fn alpha_counts_ragged_grids_and_empty_results() {
        let (ctx, _) = testkit::small_context();
        // Grids of 3 and 4 energies: N_Sigma N_E is 7, not 2 x floor(7 / 2).
        let mut two = ctx.clone();
        two.m_tilde.truncate(2);
        two.sigma_bands.truncate(2);
        two.sigma_energies.truncate(2);
        let grids: Vec<Vec<f64>> = two
            .sigma_energies
            .iter()
            .zip([3, 4])
            .map(|(&e, ne)| (0..ne).map(|k| e + 0.05 * k as f64).collect())
            .collect();
        let r = gpp_sigma_diag(&two, &grids, KernelVariant::Optimized);
        let sweep = count_pair_flops(&two, two.n_g()) as f64;
        let alpha = measured_alpha(&r, &two);
        let want = sweep / (two.n_g() as f64).powi(2);
        assert!(
            (alpha - want).abs() <= 1e-12 * want,
            "alpha {alpha}, want {want}"
        );
        let mut none = two.clone();
        none.m_tilde.clear();
        none.sigma_bands.clear();
        none.sigma_energies.clear();
        let empty = gpp_sigma_diag(&none, &[], KernelVariant::Optimized);
        assert_eq!(measured_alpha(&empty, &none), 0.0);
    }

    #[test]
    fn variants_agree() {
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - 0.1, e, e + 0.1])
            .collect();
        let r_ref = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        let r_blk = gpp_sigma_diag(&ctx, &grids, KernelVariant::Blocked);
        let r_opt = gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
        for s in 0..ctx.n_sigma() {
            for e in 0..3 {
                let a = r_ref.sigma[s][e];
                assert!(
                    (r_blk.sigma[s][e] - a).abs() < 1e-9 * (1.0 + a.abs()),
                    "blocked differs at ({s},{e}): {} vs {a}",
                    r_blk.sigma[s][e]
                );
                assert!(
                    (r_opt.sigma[s][e] - a).abs() < 1e-9 * (1.0 + a.abs()),
                    "optimized differs at ({s},{e}): {} vs {a}",
                    r_opt.sigma[s][e]
                );
            }
        }
        assert_eq!(r_ref.flops, r_blk.flops);
        assert_eq!(r_ref.flops, r_opt.flops);
    }

    #[test]
    fn row_entry_matches_whole_context_kernel_bitwise() {
        // The row contract every band-at-a-time driver rests on: row `s`
        // evaluated alone, in any order, is row `s` of the whole-context
        // kernel in every bit, with FLOPs that sum to the kernel's count.
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e - 0.05, e, e + 0.05])
            .collect();
        for variant in [
            KernelVariant::Reference,
            KernelVariant::Blocked,
            KernelVariant::Optimized,
        ] {
            let whole = gpp_sigma_diag(&ctx, &grids, variant);
            let mut flops = 0;
            for s in (0..ctx.n_sigma()).rev() {
                let mut row = [0.0; 3];
                flops += gpp_sigma_row(&ctx, s, &grids[s], variant, &mut row);
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&row), bits(&whole.sigma[s]), "{variant:?} row {s}");
            }
            assert_eq!(flops, whole.flops, "{variant:?}");
        }
    }

    #[test]
    fn sigma_is_negative_for_valence_bands() {
        // screened exchange dominates for occupied states: Sigma_vv < 0.
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let r = gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
        // first sigma band in testkit is a valence band
        assert!(
            r.sigma[0][0] < 0.0,
            "valence Sigma should be negative: {}",
            r.sigma[0][0]
        );
    }

    #[test]
    fn valence_sigma_below_conduction_sigma() {
        // The GW gap correction: Sigma_vv < Sigma_cc (valence pushed down
        // harder), so the QP gap opens relative to the Hartree-like gap.
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let r = gpp_sigma_diag(&ctx, &grids, KernelVariant::Optimized);
        let homo = r.sigma[ctx.homo_pos()][0];
        let lumo = r.sigma[ctx.lumo_pos()][0];
        assert!(
            homo < lumo,
            "Sigma_HOMO {homo} must lie below Sigma_LUMO {lumo}"
        );
    }

    #[test]
    fn partial_slices_sum_to_full() {
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e, e + 0.1])
            .collect();
        let full = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        let ng = ctx.n_g();
        for n_slices in [1usize, 2, 3, 4, 5] {
            let per = ng.div_ceil(n_slices);
            let mut acc = vec![vec![0.0; 2]; ctx.n_sigma()];
            let mut flops = 0;
            let mut max_flops = 0;
            for r in 0..n_slices {
                let lo = (r * per).min(ng);
                let hi = (lo + per).min(ng);
                let p = gpp_sigma_diag_partial(&ctx, &grids, lo, hi);
                flops += p.flops;
                max_flops = max_flops.max(p.flops);
                for (arow, prow) in acc.iter_mut().zip(&p.sigma) {
                    for (ae, &pe) in arow.iter_mut().zip(prow) {
                        *ae += pe;
                    }
                }
            }
            for (s, (arow, brow)) in acc.iter().zip(&full.sigma).enumerate() {
                for (e, (&a, &b)) in arow.iter().zip(brow).enumerate() {
                    assert!(
                        (a - b).abs() < 1e-9 * (1.0 + b.abs()),
                        "{n_slices} slices, ({s},{e}): {a} vs {b}"
                    );
                }
            }
            assert_eq!(flops, full.flops, "{n_slices} slices");
            // Load balance: at 4 slices no slice does more than 1.5x an
            // even share of the pair work.
            if n_slices == 4 {
                assert!(
                    (max_flops as f64) < full.flops as f64 / 4.0 * 1.5,
                    "imbalanced: {max_flops} of {}",
                    full.flops
                );
            }
        }
    }

    #[test]
    fn distributed_pool_matches_serial() {
        // A self-energy pool may cut `0..N_G` at any points, not only into
        // even shares: an uneven cover with an empty slice still sums to
        // the serial Sigma, and the empty slice adds no value and no flops.
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx.sigma_energies.iter().map(|&e| vec![e]).collect();
        let full = gpp_sigma_diag(&ctx, &grids, KernelVariant::Reference);
        let ng = ctx.n_g();
        assert!(ng > 4, "test system must allow uneven cuts");
        let cuts = [0, 1, 1, ng / 3, ng - 1, ng];
        let mut acc = vec![0.0; ctx.n_sigma()];
        let mut flops = 0;
        for w in cuts.windows(2) {
            let p = gpp_sigma_diag_partial(&ctx, &grids, w[0], w[1]);
            if w[0] == w[1] {
                assert_eq!(p.flops, 0, "empty slice {}..{}", w[0], w[1]);
                assert!(p.sigma.iter().all(|row| row[0] == 0.0));
            }
            flops += p.flops;
            for (a, row) in acc.iter_mut().zip(&p.sigma) {
                *a += row[0];
            }
        }
        for (s, (&a, frow)) in acc.iter().zip(&full.sigma).enumerate() {
            assert!(
                (a - frow[0]).abs() < 1e-9 * (1.0 + frow[0].abs()),
                "band {s}: {a} vs {}",
                frow[0]
            );
        }
        assert_eq!(flops, full.flops);
    }

    #[test]
    fn alpha_is_consistent() {
        let (ctx, _) = testkit::small_context();
        let grids: Vec<Vec<f64>> = ctx
            .sigma_energies
            .iter()
            .map(|&e| vec![e, e + 0.05])
            .collect();
        let r = gpp_sigma_diag(&ctx, &grids, KernelVariant::Blocked);
        let alpha = measured_alpha(&r, &ctx);
        assert!(
            alpha > 1.0 && alpha < FLOPS_PER_ACTIVE_PAIR as f64 + 1.0,
            "alpha {alpha}"
        );
        // Estimated count from Eq. 7 with this alpha reproduces the
        // measured count exactly (alpha is defined that way).
        let est =
            alpha * ctx.n_sigma() as f64 * ctx.n_b() as f64 * (ctx.n_g() as f64).powi(2) * 2.0;
        assert!((est - r.flops as f64).abs() / est < 1e-9);
    }
}
