//! Ablation + persistent autotuner: size-specific ZGEMM kernel/tile
//! tuning — the analogue of the paper's Tensile exploration on Frontier
//! (Sec. 7.3): "for the large application case the default ZGEMM already
//! reaches the best-achievable performance, whereas for moderate problem
//! size the Tensile optimization can boost the overall kernel performance
//! by ~10%".
//!
//! Two jobs in one binary:
//!
//! 1. **Autotune sweep** (always runs first): for every host-supported
//!    ISA and every [`ShapeClass`], time each registered microkernel
//!    shape against a candidate tile grid at the class's representative
//!    dimension and persist the winners to the per-host autotune table
//!    ([`autotune::default_path`], overridable with `BGW_AUTOTUNE_PATH`).
//!    The table is a record of the sweep; no GEMM reads it. Entries that
//!    already exist (and still name a registered kernel) are kept, which
//!    is what makes a second run a cheap no-op; `--force` re-sweeps.
//!    `--quick` restricts the sweep to the effective ISA and a trimmed
//!    candidate grid — the mode `tests/autotune_persistence.rs` uses.
//!
//! 2. **Tile-sweep ablation** (skipped with `--autotune-only`): hand-picked
//!    tiles against `zgemm`'s defaults at a moderate and a large
//!    off-diag-kernel shape, for the paper comparison. Every row, the
//!    default included, runs the effective ISA's default kernel on the
//!    same pool, so the ratios measure the tiles alone.

use bgw_linalg::autotune::{self, AutotuneEntry, AutotuneTable, ShapeClass};
use bgw_linalg::{microkernel, zgemm_flops, zgemm_with_microkernel, CMatrix, Op, TileParams};
use bgw_num::{simd, Complex64};
use bgw_perf::Table;
use std::time::Instant;

/// One explicit register-tile kernel and its cache tiles.
type Config = (&'static microkernel::MicroKernel, TileParams);

/// Best seconds of `C = A B` for each configuration, through `zgemm`'s
/// pooled driver. The configurations are timed round-robin, `rounds` times
/// each after one warm-up round, each round starting one configuration
/// later: a drift in the host's clock or load falls on all of them alike,
/// and each follows every other one equally often (the previous call's
/// cache footprint is not always the same neighbour's). No global dispatch
/// state is touched: each kernel is passed explicitly, so sweeping an ISA
/// never requires forcing it process-wide.
fn best_secs(a: &CMatrix, b: &CMatrix, configs: &[Config], rounds: usize) -> Vec<f64> {
    let mut c = CMatrix::zeros(a.nrows(), b.ncols());
    let mut best = vec![f64::INFINITY; configs.len()];
    for round in 0..=rounds {
        for i in 0..configs.len() {
            let at = (i + round) % configs.len();
            let (kernel, tiles) = configs[at];
            let t = Instant::now();
            zgemm_with_microkernel(
                Complex64::ONE,
                a,
                Op::None,
                b,
                Op::None,
                Complex64::ZERO,
                &mut c,
                kernel,
                tiles,
            );
            if round > 0 {
                best[at] = best[at].min(t.elapsed().as_secs_f64());
            }
        }
    }
    best
}

/// Candidate tile grid for the sweep. `mc`/`nc` are rounded up to the
/// register tile inside the driver, so one grid serves every kernel shape.
fn tile_candidates(quick: bool) -> Vec<TileParams> {
    let full = vec![
        TileParams {
            mc: 32,
            kc: 128,
            nc: 128,
        },
        TileParams::default(), // (64, 128, 256)
        TileParams {
            mc: 64,
            kc: 256,
            nc: 256,
        },
        TileParams {
            mc: 96,
            kc: 192,
            nc: 384,
        },
        TileParams {
            mc: 128,
            kc: 256,
            nc: 512,
        },
    ];
    if quick {
        full.into_iter().take(3).collect()
    } else {
        full
    }
}

/// Sweeps kernel shapes x tiles per (ISA, shape class) and persists the
/// winners. Returns the updated table and how many classes were actually
/// swept (0 means everything was already cached — the "second run is a
/// no-op" property the CI gate asserts).
fn run_autotune(force: bool, quick: bool) -> (AutotuneTable, usize) {
    let path = autotune::default_path();
    let mut table = if force {
        AutotuneTable::new()
    } else {
        autotune::load(&path).unwrap_or_default()
    };
    let isas: Vec<_> = if quick {
        vec![simd::effective()]
    } else {
        simd::supported()
    };
    let reps = if quick { 2 } else { 3 };
    let mut swept = 0usize;
    let mut t = Table::new(
        "ZGEMM autotune winners (persisted per host)",
        &[
            "isa",
            "class",
            "kernel",
            "tiles (mc,kc,nc)",
            "GFLOP/s",
            "src",
        ],
    );
    for &isa in &isas {
        let kernels = microkernel::kernels_for(isa);
        if kernels.is_empty() {
            continue;
        }
        for class in ShapeClass::all() {
            let cached = table
                .get(isa, class)
                .filter(|e| microkernel::find(isa, e.mr, e.nr).is_some())
                .cloned();
            let (entry, src) = if let (Some(e), false) = (cached, force) {
                (e, "cached")
            } else {
                swept += 1;
                let dim = class.representative_dim();
                let a = CMatrix::random(dim, dim, 11);
                let b = CMatrix::random(dim, dim, 13);
                let configs: Vec<Config> = kernels
                    .iter()
                    .flat_map(|k| tile_candidates(quick).into_iter().map(move |t| (k, t)))
                    .collect();
                let secs = best_secs(&a, &b, &configs, reps);
                let (&(kernel, tiles), &fastest) = configs
                    .iter()
                    .zip(&secs)
                    .min_by(|x, y| x.1.total_cmp(y.1))
                    .expect("non-empty kernel registry");
                let e = AutotuneEntry {
                    mr: kernel.mr,
                    nr: kernel.nr,
                    tiles,
                    gflops: zgemm_flops(dim, dim, dim) as f64 / fastest / 1e9,
                };
                table.set(isa, class, e.clone());
                (e, "swept")
            };
            let label = microkernel::find(isa, entry.mr, entry.nr)
                .map(|k| k.label())
                .unwrap_or_else(|| format!("{}x{}", entry.mr, entry.nr));
            t.row(&[
                isa.name().into(),
                class.name().into(),
                label,
                format!("({},{},{})", entry.tiles.mc, entry.tiles.kc, entry.tiles.nc),
                format!("{:.2}", entry.gflops),
                src.into(),
            ]);
        }
    }
    print!("{}", t.render());
    match autotune::save(&path, &table) {
        Ok(()) => println!(
            "autotune table: {} entries -> {} ({} class(es) swept this run)\n",
            table.len(),
            path.display(),
            swept
        ),
        Err(e) => println!("warning: could not persist autotune table: {e}\n"),
    }
    (table, swept)
}

/// Timed rounds per tile-sweep configuration (each a best-of).
const ROUNDS: usize = 50;

fn run_ablation() {
    // Off-diag kernel shapes: (N_Sigma x N_G) * (N_G x N_G).
    let shapes = [
        ("moderate (N_Sigma=48, N_G=192)", 48usize, 192usize),
        ("large (N_Sigma=96, N_G=384)", 96, 384),
    ];
    // The sweep covers all three cache loops of the 5-loop kernel: small
    // L1-bound tiles, the default, deep-kc variants (longer register-tile
    // dwell), wide-nc variants (bigger shared B strip), and large
    // LLC-bound blocks.
    let tiles = [
        TileParams {
            mc: 16,
            kc: 32,
            nc: 64,
        },
        TileParams {
            mc: 32,
            kc: 64,
            nc: 128,
        },
        TileParams::default(),
        TileParams {
            mc: 64,
            kc: 256,
            nc: 256,
        },
        TileParams {
            mc: 64,
            kc: 512,
            nc: 128,
        },
        TileParams {
            mc: 32,
            kc: 128,
            nc: 512,
        },
        TileParams {
            mc: 96,
            kc: 192,
            nc: 192,
        },
        TileParams {
            mc: 128,
            kc: 256,
            nc: 256,
        },
        TileParams {
            mc: 128,
            kc: 128,
            nc: 1024,
        },
    ];
    let kernel = microkernel::default_kernel(simd::effective());
    for (name, ns, ng) in shapes {
        let a = CMatrix::random(ns, ng, 1);
        let b = CMatrix::random(ng, ng, 2);
        let flops = zgemm_flops(ns, ng, ng) as f64;
        // Row 0 is `zgemm` itself; the sweep's own (64,128,256) row is the
        // same configuration timed again, so its ratio shows the noise.
        let configs: Vec<Config> = std::iter::once(TileParams::default())
            .chain(tiles)
            .map(|tp| (kernel, tp))
            .collect();
        let secs = best_secs(&a, &b, &configs, ROUNDS);
        let t_default = secs[0];
        let mut t = Table::new(
            &format!("ZGEMM tile sweep, {name}, kernel {}", kernel.label()),
            &["tiles (mc,kc,nc)", "ms", "GFLOP/s", "vs default"],
        );
        for (i, (&(_, tp), &s)) in configs.iter().zip(&secs).enumerate() {
            let label = if i == 0 {
                "default".to_string()
            } else {
                format!("({},{},{})", tp.mc, tp.kc, tp.nc)
            };
            t.row(&[
                label,
                format!("{:.3}", 1e3 * s),
                format!("{:.2}", flops / s / 1e9),
                format!("{:.2}x", t_default / s),
            ]);
        }
        let best = secs[1..].iter().copied().fold(f64::INFINITY, f64::min);
        print!("{}", t.render());
        println!(
            "best tuned speedup: {:.1}% over default\n",
            100.0 * (t_default / best - 1.0)
        );
    }
    println!(
        "Paper observation to compare: Tensile tuning buys ~10% at moderate\n\
         sizes and nothing at large sizes where the default is already at\n\
         the ceiling."
    );
}

pub fn run() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let force = args.iter().any(|a| a == "--force");
    let quick = args.iter().any(|a| a == "--quick");
    let autotune_only = args.iter().any(|a| a == "--autotune-only");

    println!(
        "ablation_gemm_tuning: effective ISA {}, {} thread(s)",
        simd::effective().name(),
        bgw_par::num_threads()
    );
    let (_, swept) = run_autotune(force, quick);
    // Machine-greppable line for the CI persistence gate: a second run
    // against a fresh table must report swept=0 after a first run tuned it.
    println!("AUTOTUNE_SWEPT {swept}");

    if !autotune_only {
        run_ablation();
    }
}
