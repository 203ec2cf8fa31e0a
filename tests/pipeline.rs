//! Cross-crate integration tests: the full GW pipeline driven through the
//! public API of the root crate, checking physics invariants end to end.

use berkeleygw_rs::core::chi::{ChiConfig, ChiEngine};
use berkeleygw_rs::core::coulomb::Coulomb;
use berkeleygw_rs::core::epsilon::EpsilonInverse;
use berkeleygw_rs::core::mtxel::Mtxel;
use berkeleygw_rs::core::{
    build_screening, gpp_eval_preemptible, run_evgw, run_full_dyson_gw, run_gpp_gw, sigma_context,
    GwConfig, GwResults, KernelVariant,
};
use berkeleygw_rs::num::RYDBERG_EV;
use berkeleygw_rs::perf::counters::exclusive_test_guard;
use berkeleygw_rs::pwdft::{bn_defect_sheet, lih_defect, si_bulk, si_divacancy, solve_bands};
use berkeleygw_rs::serve::{
    GppPayload, GwRequest, Payload, RequestKind, ServeConfig, ServeCore, ServeEvent, ServeOk,
    Server, StructureSpec,
};

#[test]
fn si_bulk_gw_pipeline_opens_gap() {
    let mut sys = si_bulk(1, 2.4);
    sys.n_bands = 30;
    let r = run_gpp_gw(&sys, &GwConfig::default());
    assert!(r.gap_mf_ry > 0.0, "model Si must be insulating");
    assert!(r.gap_qp_ry > r.gap_mf_ry, "GW must open the gap");
    // silicon-like magnitudes: gap below 6 eV, eps_macro in (1, 60)
    assert!(r.gap_qp_ry * RYDBERG_EV < 6.0);
    assert!(r.eps_macro > 1.0 && r.eps_macro < 60.0, "{}", r.eps_macro);
    for st in &r.states {
        assert!(st.z > 0.0 && st.z <= 1.0);
        assert!(
            st.sigma_mf < 0.5,
            "Sigma unexpectedly positive: {}",
            st.sigma_mf
        );
    }
}

#[test]
fn kernel_variants_agree_through_public_api() {
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    let base = run_gpp_gw(
        &sys,
        &GwConfig {
            variant: KernelVariant::Reference,
            ..Default::default()
        },
    );
    for v in [KernelVariant::Blocked, KernelVariant::Optimized] {
        let r = run_gpp_gw(
            &sys,
            &GwConfig {
                variant: v,
                ..Default::default()
            },
        );
        assert!(
            (r.gap_qp_ry - base.gap_qp_ry).abs() < 1e-8,
            "variant {v:?} changed the physics: {} vs {}",
            r.gap_qp_ry,
            base.gap_qp_ry
        );
    }
}

#[test]
fn defect_reduces_mean_field_gap_and_gw_still_works() {
    let mut bulk = si_bulk(1, 2.6);
    bulk.n_bands = 28;
    let mut defect = si_divacancy(1, 2.6);
    defect.n_bands = 28;
    let rb = run_gpp_gw(&bulk, &GwConfig::default());
    let rd = run_gpp_gw(&defect, &GwConfig::default());
    assert!(
        rd.gap_mf_ry < rb.gap_mf_ry,
        "divacancy must narrow the mean-field gap: {} vs {}",
        rd.gap_mf_ry,
        rb.gap_mf_ry
    );
    assert!(rd.gap_qp_ry >= rd.gap_mf_ry);
}

#[test]
fn lih_model_pipeline_runs() {
    let mut sys = lih_defect(1, 3.2);
    sys.n_bands = 24;
    let r = run_gpp_gw(&sys, &GwConfig::default());
    assert!(r.gap_qp_ry.is_finite());
    assert!(r.eps_macro > 1.0);
    assert!(r.sigma_flops > 0);
}

#[test]
fn screening_strengthens_with_more_conduction_bands() {
    // chi head |chi_00| grows (more screening channels) as N_c grows.
    let sys = si_bulk(1, 2.4);
    let wfn = sys.wfn_sphere();
    let eps = sys.eps_sphere();
    let coulomb = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
    let mut heads = Vec::new();
    for n_bands in [20usize, 28, 40] {
        let wf = solve_bands(&sys.crystal, &wfn, n_bands);
        let mtxel = Mtxel::new(&wfn, &eps);
        let cfg = ChiConfig {
            q0: coulomb.q0,
            ..ChiConfig::default()
        };
        let chi = ChiEngine::new(&wf, &mtxel, cfg).chi_static();
        heads.push(chi[(0, 0)].re.abs());
    }
    assert!(heads[1] >= heads[0] && heads[2] >= heads[1], "{heads:?}");
}

#[test]
fn epsilon_macroscopic_grows_with_screening() {
    // more bands -> more screening -> larger macroscopic dielectric const.
    let sys = si_bulk(1, 2.4);
    let wfn = sys.wfn_sphere();
    let eps_sph = sys.eps_sphere();
    let coulomb = Coulomb::bulk_for_cell(sys.crystal.lattice.volume());
    let mut eps_m = Vec::new();
    for n_bands in [20usize, 40] {
        let wf = solve_bands(&sys.crystal, &wfn, n_bands);
        let mtxel = Mtxel::new(&wfn, &eps_sph);
        let cfg = ChiConfig {
            q0: coulomb.q0,
            ..ChiConfig::default()
        };
        let chi = ChiEngine::new(&wf, &mtxel, cfg).chi_static();
        let e = EpsilonInverse::build(&[chi], &[0.0], &coulomb, &eps_sph)
            .expect("dielectric matrix must be invertible");
        eps_m.push(e.macroscopic_constant());
    }
    assert!(eps_m[1] > eps_m[0], "{eps_m:?}");
    assert!(eps_m[0] > 1.0);
}

#[test]
fn every_driver_honours_the_slab_flag() {
    // A sheet-like cell (as examples/bn_sheet_defect.rs builds): the
    // slab-truncated Coulomb must reach every driver through the shared
    // prefix, not only run_gpp_gw.
    let mut sys = bn_defect_sheet(2, 12.0, 5.0);
    sys.n_bands = sys.n_valence() + 10;
    let slab = GwConfig {
        slab: true,
        ..GwConfig::default()
    };
    let bulk = GwConfig {
        slab: false,
        ..slab
    };

    // The diagonal reference of the full-Dyson driver *is* run_gpp_gw.
    let gpp = run_gpp_gw(&sys, &slab);
    let full = run_full_dyson_gw(&sys, &slab, 8).expect("full Dyson runs");
    assert_eq!(full.sigma_bands, gpp.sigma_bands);
    for (diag, st) in full.e_qp_diag.iter().zip(&gpp.states) {
        assert_eq!(
            diag.to_bits(),
            st.e_qp.to_bits(),
            "full-Dyson diagonal reference {diag} vs run_gpp_gw {}",
            st.e_qp
        );
    }

    // Truncating the interaction changes the screening, so the evGW
    // iterates must move with the flag.
    let ev_slab = run_evgw(&sys, &slab, 3, 1e-9).expect("evGW runs");
    let ev_bulk = run_evgw(&sys, &bulk, 3, 1e-9).expect("evGW runs");
    assert_ne!(
        ev_slab.gap_history, ev_bulk.gap_history,
        "run_evgw ignored GwConfig::slab"
    );
}

/// `(e_qp, z)` bit patterns, band by band.
fn qp_bits(e_qp: impl Iterator<Item = f64>, z: impl Iterator<Item = f64>) -> Vec<(u64, u64)> {
    e_qp.zip(z)
        .map(|(e, z)| (e.to_bits(), z.to_bits()))
        .collect()
}

fn results_bits(r: &GwResults) -> Vec<(u64, u64)> {
    qp_bits(
        r.states.iter().map(|s| s.e_qp),
        r.states.iter().map(|s| s.z),
    )
}

fn gpp_payload(ok: ServeOk) -> GppPayload {
    match ok.payload {
        Payload::Gpp(p) => p,
        Payload::FullFreq(_) => panic!("GPP request answered with a full-frequency payload"),
    }
}

#[test]
fn one_shot_and_served_drivers_share_one_spine() {
    // run_gpp_gw; the plain row loop (build_screening -> sigma_context ->
    // gpp_eval_preemptible -> SigmaRows::assemble); and the daemon itself,
    // twice — a threaded Server, and synchronous ServeCores preempted
    // after every row, each a fresh engine that can only resume from the
    // partial its predecessor left in the artifact store — are the same
    // stages under different policies: identical band set, dimensions and
    // counted FLOPs, and every bit of every QP energy and Z, at every pool
    // width and across widths.
    let _guard = exclusive_test_guard();
    let req = GwRequest {
        structure: StructureSpec::SiBulk {
            m: 1,
            ecut_centi_ry: 220,
            n_bands: 24,
        },
        kind: RequestKind::GppDiag {
            bands_around_gap: 2,
            delta_milli_ry: 50,
        },
        priority: 0,
    };
    let sys = req.structure.system();
    let cfg = req.gw_config();

    let mut reference: Option<Vec<(u64, u64)>> = None;
    for width in [1usize, 2, 3, 4, 7] {
        let dir =
            std::env::temp_dir().join(format!("bgw_pipeline_spine_{}_{width}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        berkeleygw_rs::par::set_num_threads(width);
        let one_shot = run_gpp_gw(&sys, &cfg);

        let screening = build_screening(&sys, &cfg, None).expect("screening builds");
        let ctx = sigma_context(&screening, &one_shot.sigma_bands);
        let delta = cfg.sampling_delta_ry;
        let rows = gpp_eval_preemptible(&ctx, delta, cfg.variant, None, |_| false);
        let row_loop = rows
            .assemble(&ctx, &ctx.sigma_bands, delta, screening.eps_macro)
            .expect("never asked to yield, window straddles the gap");

        let server = Server::start(ServeConfig::new(&dir));
        let threaded = gpp_payload(server.submit(req).wait().expect("threaded daemon answers"));
        drop(server);

        let mut resumptions = 0;
        let preempted = loop {
            // Nothing in memory: the rows so far can only come off disk.
            let mut core = ServeCore::new(ServeConfig::new(&dir));
            core.enqueue(req).expect("queue has room");
            assert!(core.step_with(&mut || Some(u8::MAX)));
            let resumed_rows = core.events().iter().find_map(|e| match e {
                ServeEvent::Resumed { rows_done, .. } => Some(*rows_done),
                _ => None,
            });
            assert_eq!(
                resumed_rows,
                (resumptions > 0).then_some(resumptions),
                "width {width}: each engine resumes every row its predecessors stored"
            );
            match core.take_responses().pop() {
                Some((_, answer)) => break gpp_payload(answer.expect("preempted daemon answers")),
                None => resumptions += 1,
            }
        };
        assert_eq!(
            resumptions,
            one_shot.sigma_bands.len() - 1,
            "width {width}: a yield after every row but the last"
        );

        berkeleygw_rs::par::set_num_threads(0);
        let _ = std::fs::remove_dir_all(&dir);

        assert_eq!(row_loop.sigma_bands, one_shot.sigma_bands, "width {width}");
        assert_eq!(row_loop.sigma_flops, one_shot.sigma_flops, "width {width}");
        assert_eq!(row_loop.dims, one_shot.dims, "width {width}");
        assert_eq!(
            (one_shot.dims.n_sigma, one_shot.dims.n_b, one_shot.dims.n_g),
            (ctx.n_sigma(), ctx.n_b(), ctx.n_g()),
            "width {width}"
        );

        let bits = results_bits(&one_shot);
        assert_eq!(
            results_bits(&row_loop),
            bits,
            "width {width}: row loop != one-shot"
        );
        for (served, how) in [(&threaded, "threaded"), (&preempted, "preempted")] {
            assert_eq!(served.bands, one_shot.sigma_bands, "width {width}, {how}");
            assert_eq!(served.flops, one_shot.sigma_flops, "width {width}, {how}");
            assert_eq!(
                qp_bits(served.e_qp.iter().copied(), served.z.iter().copied()),
                bits,
                "width {width}: {how} daemon != one-shot"
            );
            assert_eq!(
                served.gap_qp_ry.to_bits(),
                one_shot.gap_qp_ry.to_bits(),
                "width {width}, {how}"
            );
        }
        match &reference {
            None => reference = Some(bits),
            Some(r) => assert_eq!(&bits, r, "width {width}: QP energies moved with the pool"),
        }
    }
}
