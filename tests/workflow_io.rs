//! Integration test: the file-based module boundary. A GW run whose
//! screening and wavefunctions pass through BGWR files — W as the
//! checkpoint record the artifact store and the restart drivers read, the
//! bands as the WFN record — must reproduce the in-memory run exactly.

use berkeleygw_rs::core::service::{
    build_screening, screening_from_checkpoint, screening_to_checkpoint, sigma_context,
};
use berkeleygw_rs::core::sigma::diag::{gpp_sigma_diag, KernelVariant};
use berkeleygw_rs::core::sigma::SigmaContext;
use berkeleygw_rs::core::workflow::GwConfig;
use berkeleygw_rs::io::{
    read_checkpoint_file, read_wavefunctions, write_checkpoint_file, write_wavefunctions,
};
use berkeleygw_rs::pwdft::si_bulk;

#[test]
fn gw_through_screening_record_matches_in_memory() {
    let dir = std::env::temp_dir().join(format!("bgw_wfio_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();

    // --- producer side: the static screening and the bands, to disk -----
    let mut sys = si_bulk(1, 2.2);
    sys.n_bands = 24;
    let cfg = GwConfig::default();
    let s = build_screening(&sys, &cfg, None).expect("dielectric matrix must be invertible");
    write_checkpoint_file(&dir.join("w.bgwr"), &screening_to_checkpoint(&s)).unwrap();
    write_wavefunctions(&dir.join("wfn.bgwr"), &s.wf).unwrap();

    // --- consumer side: read back and run Sigma ------------------------
    let record = read_checkpoint_file(&dir.join("w.bgwr")).unwrap();
    let w = screening_from_checkpoint(&sys, &cfg, &record).expect("the record restores");
    let wf = read_wavefunctions(&dir.join("wfn.bgwr")).unwrap();
    let nv = wf.n_valence;
    let bands = vec![nv - 1, nv];
    let ctx_file =
        SigmaContext::build(&wf, &w.mtxel, w.gpp.clone(), &w.vsqrt, &bands, w.coulomb.q0);
    // in-memory reference
    let ctx_mem = sigma_context(&s, &bands);

    let grids: Vec<Vec<f64>> = ctx_mem.sigma_energies.iter().map(|&e| vec![e]).collect();
    let from_file = gpp_sigma_diag(&ctx_file, &grids, KernelVariant::Optimized);
    let in_memory = gpp_sigma_diag(&ctx_mem, &grids, KernelVariant::Optimized);
    for s in 0..2 {
        let (a, b) = (from_file.sigma[s][0], in_memory.sigma[s][0]);
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "file round-trip must be bit-exact: {a} vs {b}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
