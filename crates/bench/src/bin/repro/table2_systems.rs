//! Regenerates paper Table 2 (application systems and computation sizes)
//! at laptop scale: the same defect constructions (Si divacancy, LiH
//! defect, BN sheet defect) with scaled-down cutoffs, printed next to the
//! paper's production sizes so the `N_v : N_c : N_G : N_G^psi` ratios can
//! be compared directly.

use bgw_perf::Table;

struct PaperRow {
    name: &'static str,
    n_g_psi: usize,
    n_g: usize,
    n_b: usize,
    n_v: usize,
}

fn paper_rows() -> Vec<PaperRow> {
    // Table 2 of the paper (minimum N_b variants).
    vec![
        PaperRow {
            name: "Si214",
            n_g_psi: 31_463,
            n_g: 11_075,
            n_b: 5_500,
            n_v: 428,
        },
        PaperRow {
            name: "Si510",
            n_g_psi: 74_653,
            n_g: 26_529,
            n_b: 15_000,
            n_v: 1_020,
        },
        PaperRow {
            name: "Si998",
            n_g_psi: 145_837,
            n_g: 51_627,
            n_b: 28_000,
            n_v: 1_996,
        },
        PaperRow {
            name: "Si2742",
            n_g_psi: 363_477,
            n_g: 141_505,
            n_b: 80_695,
            n_v: 5_484,
        },
        PaperRow {
            name: "LiH998",
            n_g_psi: 81_313,
            n_g: 52_923,
            n_b: 3_100,
            n_v: 499,
        },
        PaperRow {
            name: "LiH17574",
            n_g_psi: 506_991,
            n_g: 362_733,
            n_b: 49_920,
            n_v: 8_787,
        },
        PaperRow {
            name: "BN867",
            n_g_psi: 439_769,
            n_g: 84_585,
            n_b: 49_920,
            n_v: 1_734,
        },
    ]
}

pub fn run() {
    let mut t = Table::new(
        "Table 2 (paper, production scale)",
        &["System", "N_G^psi", "N_G", "N_b", "N_v", "N_c", "N_v/atom"],
    );
    for r in paper_rows() {
        let atoms: f64 = r
            .name
            .trim_start_matches(|c: char| c.is_alphabetic())
            .parse()
            .unwrap();
        t.row(&[
            r.name.to_string(),
            r.n_g_psi.to_string(),
            r.n_g.to_string(),
            r.n_b.to_string(),
            r.n_v.to_string(),
            (r.n_b - r.n_v).to_string(),
            format!("{:.2}", r.n_v as f64 / atoms),
        ]);
    }
    print!("{}", t.render());

    let mut t = Table::new(
        "Table 2 (this reproduction, scaled)",
        &[
            "System", "Atoms", "N_G^psi", "N_G", "N_b", "N_v", "N_c", "N_v/atom",
        ],
    );
    for (paper_name, sys, _) in bgw_bench::bench_roster() {
        let wfn = sys.wfn_sphere();
        let eps = sys.eps_sphere();
        let nv = sys.n_valence();
        let nb = sys.n_bands.min(wfn.len());
        t.row(&[
            format!("{} ({})", sys.name, paper_name),
            sys.crystal.n_atoms().to_string(),
            wfn.len().to_string(),
            eps.len().to_string(),
            nb.to_string(),
            nv.to_string(),
            (nb - nv).to_string(),
            format!("{:.2}", nv as f64 / sys.crystal.n_atoms() as f64),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nThe per-atom valence counts match the paper exactly (2/atom for Si\n\
         and BN systems, 0.5/atom for LiH); basis sizes are scaled by the\n\
         reduced cutoffs, preserving N_G^psi > N_G and N_c >> N_v."
    );
}
