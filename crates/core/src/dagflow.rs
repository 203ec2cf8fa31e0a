//! DAG-scheduled G0W0(GPP) workflow: the barrier-free spine.
//!
//! [`run_gpp_gw`](crate::workflow::run_gpp_gw) executes the Fig. 1
//! pipeline as a sequence of phase barriers: every CHI panel finishes
//! before the dielectric inversion starts, the inversion finishes before
//! the charge density / GPP / Sigma preparation starts, and so on. This
//! module recasts the same physics as a [`TaskGraph`] of fine-grained
//! tasks — one per NV block of the polarizability, one per frequency
//! node of the dielectric inversion, one per Sigma band — with explicit
//! data dependencies. Readiness-driven execution with work stealing
//! (`bgw-par::dag`) then overlaps everything the dependencies allow:
//!
//! * the charge density builds concurrently with the whole CHI block
//!   sweep (neither needs the other);
//! * each frequency's dielectric inversion starts the moment its CHI
//!   reduction completes, instead of waiting for the CHI *phase*;
//! * Sigma bands are independent tasks, so a straggler band is stolen
//!   instead of stretching a static schedule.
//!
//! Every cross-task combination (the per-frequency block sum, the final
//! Sigma assembly) reads its inputs in a fixed index order, so the DAG
//! path is deterministic for any worker count and reproduces the
//! barrier-ordered oracle to summation-reassociation accuracy (the
//! parity tests gate at 1e-12; the only difference is the association
//! order of the NV-block sum and the band reduction).

use crate::chi::ChiTimings;
use crate::epsilon::EpsilonInverse;
use crate::error::GwError;
use crate::gpp::GppModel;
use crate::service::{context_stage, prefix, sigma_band_window, sigma_row, SigmaRows, Stage};
use crate::sigma::SigmaContext;
use crate::workflow::{GwConfig, GwResults};
use bgw_linalg::CMatrix;
use bgw_num::Complex64;
use bgw_par::dag::{DagStats, TaskGraph};
use bgw_pwdft::{charge_density_g, ModelSystem};
use std::sync::{Mutex, OnceLock};

/// Records the first error of the run; cascading follow-up errors (a
/// missing input *because* an upstream task bailed) are dropped.
fn record_err(slot: &Mutex<Option<GwError>>, e: GwError) {
    let mut g = slot.lock().unwrap_or_else(|p| p.into_inner());
    if g.is_none() {
        *g = Some(e);
    }
}

/// Test-only fault injection: simulates malformed task-graph states the
/// typed error path must catch (a reduction that never deposits, a
/// corrupted polarizability).
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct DagFaults {
    /// The CHI reduction task completes without depositing its matrix.
    pub(crate) drop_chi_reduction: bool,
    /// The CHI reduction deposits a non-finite matrix.
    pub(crate) corrupt_chi: bool,
}

/// A DAG-scheduled run: the same [`GwResults`] as the barrier oracle,
/// plus the scheduler's execution statistics.
#[derive(Clone, Debug)]
pub struct DagGwResults {
    /// Physics results, shape-identical to [`run_gpp_gw`]'s.
    ///
    /// [`run_gpp_gw`]: crate::workflow::run_gpp_gw
    pub results: GwResults,
    /// Task/steal counts of the graph execution. The stage spans under
    /// `workflow.gpp_gw_dag` hold *cumulative task* time — overlapping
    /// tasks mean their sum can exceed the run's wall clock.
    pub stats: DagStats,
}

/// Runs the full G0W0(GPP) pipeline as a task DAG.
///
/// Identical configuration surface and result shape as
/// [`run_gpp_gw`](crate::workflow::run_gpp_gw); the parity contract
/// (gated by tests) is agreement to 1e-12 on every quasiparticle energy,
/// both gaps, and the macroscopic dielectric constant, with *exactly*
/// equal counted Sigma FLOPs.
///
/// A malformed task-graph state (a task input that was never deposited)
/// or a failed dielectric inversion returns a typed [`GwError`]
/// instead of panicking the worker pool.
pub fn run_gpp_gw_dag(system: &ModelSystem, cfg: &GwConfig) -> Result<DagGwResults, GwError> {
    run_gpp_gw_dag_injected(system, cfg, DagFaults::default())
}

/// [`run_gpp_gw_dag`] with fault injection (the regression tests for the
/// typed error path drive this).
pub(crate) fn run_gpp_gw_dag_injected(
    system: &ModelSystem,
    cfg: &GwConfig,
    faults: DagFaults,
) -> Result<DagGwResults, GwError> {
    let _run_span = bgw_trace::span!("workflow.gpp_gw_dag");

    // The graph's shape (NV-block count, Sigma band set, energy grids)
    // is a function of the solved bands, so the shared prefix (mean
    // field included — it is internally pool-parallel already) runs up
    // front. Everything downstream is task-scheduled.
    let p = prefix(system, cfg);
    let sigma_bands = sigma_band_window(&p.wf, cfg);
    let delta = cfg.sampling_delta_ry;

    // Static GPP screening: one frequency node. The per-frequency task
    // layout below generalizes unchanged to a full-frequency grid.
    let omegas = [0.0f64];

    // The conduction-band FFT cache is internally pool-parallel; running
    // it as a DAG task would serialize it (nested parallel regions inside
    // a worker run inline), so it stays on the spine like the mean field.
    let engine = Stage::Chi.run(|| p.chi_engine());
    let blocks = engine.nv_blocks();

    // Shared single-writer slots the tasks communicate through. Declared
    // before the graph so every task's borrow outlives execution.
    let contribs: Vec<Mutex<Vec<CMatrix>>> =
        blocks.iter().map(|_| Mutex::new(Vec::new())).collect();
    let chi_slots: Vec<Mutex<Option<CMatrix>>> = omegas.iter().map(|_| Mutex::new(None)).collect();
    let inv_slots: Vec<Mutex<Option<CMatrix>>> = omegas.iter().map(|_| Mutex::new(None)).collect();
    let eps_slot: OnceLock<EpsilonInverse> = OnceLock::new();
    let rho_slot: OnceLock<Vec<Complex64>> = OnceLock::new();
    let gpp_slot: Mutex<Option<GppModel>> = Mutex::new(None);
    let ctx_slot: OnceLock<SigmaContext> = OnceLock::new();
    // Keyed by (band, delta), so deposit order is free.
    let sigma_rows: Mutex<SigmaRows> = Mutex::new(SigmaRows::default());
    let err_slot: Mutex<Option<GwError>> = Mutex::new(None);

    let stats = {
        let mut g = TaskGraph::new();
        let p = &p;
        let sigma_bands = &sigma_bands;
        let omegas = &omegas;
        let engine = &engine;
        let contribs = &contribs;
        let chi_slots = &chi_slots;
        let inv_slots = &inv_slots;
        let eps_slot = &eps_slot;
        let rho_slot = &rho_slot;
        let gpp_slot = &gpp_slot;
        let ctx_slot = &ctx_slot;
        let sigma_rows = &sigma_rows;
        let err_slot = &err_slot;
        let missing = move |task: &'static str, input: &'static str| {
            record_err(err_slot, GwError::MissingInput { task, input });
        };

        // One task per NV block: build the M panel and contract it for
        // every frequency (the panel is reused across frequencies,
        // exactly like the barrier-ordered loop).
        let block_ids: Vec<_> = blocks
            .iter()
            .enumerate()
            .map(|(b, &(v0, v1))| {
                g.add(&[], move || {
                    Stage::Chi.run(|| {
                        let block: Vec<usize> = (v0..v1).collect();
                        let mut t = ChiTimings::default();
                        *contribs[b].lock().unwrap_or_else(|e| e.into_inner()) =
                            engine.chi_freqs_subset(omegas, Some(&block), &mut t);
                    })
                })
            })
            .collect();

        // Per frequency: a deterministic block-order reduction, then the
        // dielectric inversion — which becomes *ready* the instant its
        // own reduction finishes, not when the CHI phase does.
        let inv_ids: Vec<_> = (0..omegas.len())
            .map(|f| {
                let t_red = g.add(&block_ids, move || {
                    Stage::Chi.run(|| {
                        if faults.drop_chi_reduction {
                            // Injected malformed state: complete without
                            // depositing, as a died-mid-write task would.
                            return;
                        }
                        let mut acc: Option<CMatrix> = None;
                        for c in contribs {
                            // Take this frequency's contribution out of the
                            // block slot (freeing it) and fold it in block
                            // order — fixed association for determinism.
                            let m = {
                                let mut guard = c.lock().unwrap_or_else(|e| e.into_inner());
                                std::mem::replace(&mut guard[f], CMatrix::zeros(0, 0))
                            };
                            match &mut acc {
                                None => acc = Some(m),
                                Some(a) => a.axpy(Complex64::ONE, &m),
                            }
                        }
                        if faults.corrupt_chi {
                            if let Some(a) = &mut acc {
                                a.as_mut_slice()[0] = bgw_num::c64(f64::NAN, 0.0);
                            }
                        }
                        *chi_slots[f].lock().unwrap_or_else(|e| e.into_inner()) = acc;
                    })
                });
                g.add(&[t_red], move || {
                    Stage::Epsilon.run(|| {
                        let Some(chi) = chi_slots[f]
                            .lock()
                            .unwrap_or_else(|e| e.into_inner())
                            .take()
                        else {
                            return missing("epsilon.invert", "chi reduction");
                        };
                        let built = EpsilonInverse::build(
                            std::slice::from_ref(&chi),
                            &omegas[f..f + 1],
                            &p.coulomb,
                            &p.eps_sph,
                        );
                        match built.map(|mut e| e.inv.pop()) {
                            Ok(Some(inv)) => {
                                *inv_slots[f].lock().unwrap_or_else(|e| e.into_inner()) = Some(inv)
                            }
                            Ok(None) => missing("epsilon.invert", "single-frequency inverse"),
                            Err(e) => record_err(err_slot, GwError::Epsilon(e)),
                        }
                    })
                })
            })
            .collect();

        // Reassemble the frequency-ordered inverse set.
        let t_eps = g.add(&inv_ids, move || {
            Stage::Epsilon.run(|| {
                let mut inv: Vec<CMatrix> = Vec::with_capacity(inv_slots.len());
                for s in inv_slots {
                    match s.lock().unwrap_or_else(|e| e.into_inner()).take() {
                        Some(m) => inv.push(m),
                        None => return missing("epsilon.assemble", "per-frequency inverse"),
                    }
                }
                let _ = eps_slot.set(p.adopt(omegas.to_vec(), inv));
            })
        });

        // Charge density: no dependencies — overlaps the whole CHI /
        // epsilon chain (the one stage-4 piece this driver keeps, calling
        // the shared GPP constructor once both inputs exist).
        let t_rho = g.add(&[], move || {
            let _ = rho_slot.set(charge_density_g(&p.wf, &p.wfn_sph));
        });

        let t_gpp = g.add(&[t_eps, t_rho], move || {
            Stage::Mtxel.run(|| {
                let (Some(eps), Some(rho)) = (eps_slot.get(), rho_slot.get()) else {
                    return missing("gpp.build", "epsilon inverse / charge density");
                };
                *gpp_slot.lock().unwrap_or_else(|e| e.into_inner()) = Some(p.gpp_model(eps, rho));
            })
        });

        let t_ctx = g.add(&[t_gpp], move || {
            let Some(gpp) = gpp_slot.lock().unwrap_or_else(|e| e.into_inner()).take() else {
                return missing("sigma.context", "gpp model");
            };
            let ctx = context_stage(&p.wf, &p.mtxel, &p.vsqrt, p.coulomb.q0, gpp, sigma_bands);
            let _ = ctx_slot.set(ctx);
        });

        // One task per Sigma row: the row entry on the shared context.
        for s in 0..sigma_bands.len() {
            g.add(&[t_ctx], move || {
                Stage::Sigma.run(|| {
                    let Some(ctx) = ctx_slot.get() else {
                        return missing("sigma.band", "sigma context");
                    };
                    let row = sigma_row(ctx, s, delta, cfg.variant);
                    sigma_rows
                        .lock()
                        .unwrap_or_else(|e| e.into_inner())
                        .rows
                        .push(row);
                })
            });
        }

        g.execute()
    };

    // A task recorded a typed failure: surface the first one instead of
    // unwrapping half-filled slots.
    if let Some(e) = err_slot.into_inner().unwrap_or_else(|p| p.into_inner()) {
        return Err(e);
    }

    // Final (trivial) assembly on the caller: fixed band order.
    let missing = |input| GwError::MissingInput {
        task: "assembly",
        input,
    };
    let ctx = ctx_slot
        .into_inner()
        .ok_or_else(|| missing("sigma context"))?;
    let eps_inv = eps_slot
        .into_inner()
        .ok_or_else(|| missing("epsilon inverse"))?;
    // A row task that never deposited surfaces from the assembly.
    let rows = sigma_rows.into_inner().unwrap_or_else(|e| e.into_inner());
    let eps_macro = eps_inv.macroscopic_constant();
    Ok(DagGwResults {
        results: rows.assemble(&ctx, &ctx.sigma_bands, delta, eps_macro)?,
        stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workflow::run_gpp_gw;
    use bgw_pwdft::si_bulk;

    fn test_system() -> ModelSystem {
        let mut sys = si_bulk(1, 2.2);
        sys.n_bands = 28;
        sys
    }

    #[test]
    fn dag_reproduces_barrier_oracle_across_pool_sizes() {
        let sys = test_system();
        let cfg = GwConfig::default();
        let oracle = run_gpp_gw(&sys, &cfg);
        for threads in [1usize, 4] {
            bgw_par::set_num_threads(threads);
            let dag = run_gpp_gw_dag(&sys, &cfg).expect("dag run succeeds");
            bgw_par::set_num_threads(0);
            let r = &dag.results;
            assert_eq!(r.sigma_bands, oracle.sigma_bands);
            assert_eq!(r.dims, oracle.dims);
            assert_eq!(
                r.sigma_flops, oracle.sigma_flops,
                "the row tasks must count exactly the full kernel's FLOPs"
            );
            assert!(
                (r.gap_mf_ry - oracle.gap_mf_ry).abs() < 1e-12,
                "threads {threads}: mean-field gap drifted"
            );
            assert!(
                (r.gap_qp_ry - oracle.gap_qp_ry).abs() < 1e-12,
                "threads {threads}: QP gap {} vs {}",
                r.gap_qp_ry,
                oracle.gap_qp_ry
            );
            assert!(
                (r.eps_macro - oracle.eps_macro).abs() < 1e-12,
                "threads {threads}: eps_macro {} vs {}",
                r.eps_macro,
                oracle.eps_macro
            );
            for (a, b) in r.states.iter().zip(&oracle.states) {
                assert!(
                    (a.e_qp - b.e_qp).abs() < 1e-12,
                    "threads {threads}: QP energy {} vs {}",
                    a.e_qp,
                    b.e_qp
                );
                assert!((a.z - b.z).abs() < 1e-12);
                assert!((a.sigma_mf - b.sigma_mf).abs() < 1e-12);
            }
            // Shape: blocks + (reduce+invert) per freq + assemble + rho
            // + gpp + ctx + one per Sigma band.
            let n_blocks = sys_blocks(&cfg, &oracle);
            assert_eq!(
                dag.stats.tasks,
                n_blocks + 2 + 1 + 1 + 1 + 1 + oracle.sigma_bands.len(),
                "threads {threads}: unexpected task count"
            );
        }
    }

    fn sys_blocks(cfg: &GwConfig, oracle: &GwResults) -> usize {
        // nv = lowest Sigma band + bands_around_gap (the window is
        // centered on the gap by construction of the test system).
        let nv = oracle.sigma_bands[0] + cfg.bands_around_gap.max(1);
        nv.div_ceil(cfg.chi.nv_block.max(1))
    }

    #[test]
    fn dropped_reduction_is_a_typed_error_not_a_panic() {
        // A reduction task that dies before depositing its matrix used to
        // panic the inversion task's worker; now the run fails typed with
        // the root cause (the inversion's missing input), not a cascade.
        let sys = test_system();
        let err = run_gpp_gw_dag_injected(
            &sys,
            &GwConfig::default(),
            DagFaults {
                drop_chi_reduction: true,
                ..DagFaults::default()
            },
        )
        .expect_err("dropped reduction must fail the run");
        assert!(
            matches!(
                err,
                GwError::MissingInput {
                    task: "epsilon.invert",
                    input: "chi reduction",
                }
            ),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn corrupt_chi_surfaces_the_epsilon_error() {
        let sys = test_system();
        let err = run_gpp_gw_dag_injected(
            &sys,
            &GwConfig::default(),
            DagFaults {
                corrupt_chi: true,
                ..DagFaults::default()
            },
        )
        .expect_err("non-finite chi must fail the run");
        assert!(
            matches!(
                err,
                GwError::Epsilon(crate::epsilon::EpsilonError::NonFinite { .. })
            ),
            "wrong error: {err:?}"
        );
    }

    #[test]
    fn dag_records_scheduler_counters() {
        let sys = test_system();
        let before = bgw_perf::counters::snapshot();
        let dag = run_gpp_gw_dag(&sys, &GwConfig::default()).expect("dag run succeeds");
        let delta = before.delta(&bgw_perf::counters::snapshot());
        assert!(dag.stats.tasks > 0);
        assert!(
            delta.dag_tasks >= dag.stats.tasks as u64,
            "scheduler must account its tasks: {} < {}",
            delta.dag_tasks,
            dag.stats.tasks
        );
    }
}
