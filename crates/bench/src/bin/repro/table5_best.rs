//! Regenerates paper Table 5: best achieved throughput on Frontier (F)
//! and Aurora (A), for both GPP kernels, including the total-runtime rows
//! with and without I/O — paper values side-by-side with this
//! reproduction's calibrated-model predictions for the same
//! configurations.

use bgw_perf::flopmodel::{ALPHA_AURORA, ALPHA_FRONTIER};
use bgw_perf::timemodel::{sigma_time, Efficiencies, Kernel, SigmaWorkload};
use bgw_perf::{Machine, Table};

struct Row {
    system: &'static str,
    calc: &'static str,
    machine: Machine,
    nodes: usize,
    w: SigmaWorkload,
    kernel: Kernel,
    include_io: bool,
    /// extra non-kernel time (s) for "Tot." rows (other modules), taken
    /// as the paper's measured delta
    extra_s: f64,
    paper_time: f64,
    paper_pflops: f64,
    paper_pct: f64,
    /// percentage reference: peak of these nodes, or full-machine
    /// attainable (Aurora off-diag row convention)
    pct_ref_full_attainable: bool,
}

fn rows() -> Vec<Row> {
    let f = Machine::frontier();
    let a = Machine::aurora();
    vec![
        // --- diag kernel ---
        Row {
            system: "BN867 GW",
            calc: "Kernel (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 256,
                n_b: 49_920,
                n_g: 84_585,
                n_e: 14,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Diag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 188.45,
            paper_pflops: 558.32,
            paper_pct: 31.04,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "Si2742 GW",
            calc: "Kernel (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 128,
                n_b: 80_695,
                n_g: 141_505,
                n_e: 14,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Diag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 445.02,
            paper_pflops: 534.80,
            paper_pct: 29.73,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "Si2742' GW",
            calc: "Kernel (A)",
            machine: a,
            nodes: 9296,
            w: SigmaWorkload {
                n_sigma: 128,
                n_b: 15_840,
                n_g: 141_505,
                n_e: 6,
                alpha: ALPHA_AURORA,
            },
            kernel: Kernel::Diag,
            include_io: false,
            extra_s: 0.0,
            paper_time: f64::NAN,
            paper_pflops: 500.97,
            paper_pct: 39.39,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "LiH998 GWPT",
            calc: "Kernel (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 3_100,
                n_g: 52_923,
                n_e: 120,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Diag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 92.91,
            paper_pflops: 479.27,
            paper_pct: 26.64,
            pct_ref_full_attainable: false,
        },
        // --- off-diag kernel ---
        Row {
            system: "Si998-a GW",
            calc: "Kernel (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 28_224,
                n_g: 51_627,
                n_e: 200,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Offdiag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 116.4,
            paper_pflops: 1069.36,
            paper_pct: 59.45,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "Si998-b GW",
            calc: "Kernel (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 28_224,
                n_g: 51_627,
                n_e: 512,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Offdiag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 303.13,
            paper_pflops: 1051.21,
            paper_pct: 58.44,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "Si998-b GW",
            calc: "Tot. excl. I/O (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 28_224,
                n_g: 51_627,
                n_e: 512,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Offdiag,
            include_io: false,
            extra_s: 87.6,
            paper_time: 390.75,
            paper_pflops: 815.49,
            paper_pct: 45.33,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "Si998-b GW",
            calc: "Tot. incl. I/O (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 28_224,
                n_g: 51_627,
                n_e: 512,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Offdiag,
            include_io: true,
            extra_s: 87.6,
            paper_time: 604.96,
            paper_pflops: 526.73,
            paper_pct: 29.28,
            pct_ref_full_attainable: false,
        },
        Row {
            system: "Si998-c GW",
            calc: "Kernel (A)",
            machine: a,
            nodes: 9600,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 28_800,
                n_g: 51_627,
                n_e: 200,
                alpha: ALPHA_AURORA,
            },
            kernel: Kernel::Offdiag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 179.52,
            paper_pflops: 707.52,
            paper_pct: 48.79,
            pct_ref_full_attainable: true,
        },
        Row {
            system: "LiH998 GWPT",
            calc: "Kernel (F)",
            machine: f,
            nodes: 9408,
            w: SigmaWorkload {
                n_sigma: 512,
                n_b: 3_100,
                n_g: 52_923,
                n_e: 288,
                alpha: ALPHA_FRONTIER,
            },
            kernel: Kernel::Offdiag,
            include_io: false,
            extra_s: 0.0,
            paper_time: 30.13,
            paper_pflops: 691.10,
            paper_pct: 38.42,
            pct_ref_full_attainable: false,
        },
    ]
}

pub fn run() {
    let eff = Efficiencies::paper_anchored();
    let mut t = Table::new(
        "Table 5: best throughput — paper measurement vs calibrated model",
        &[
            "System",
            "Calculation",
            "# nodes",
            "paper s",
            "model s",
            "paper PF/s",
            "model PF/s",
            "paper %",
            "model %",
        ],
    );
    for r in rows() {
        let bd = sigma_time(
            &r.machine,
            r.nodes,
            &r.w,
            r.kernel,
            &eff,
            None,
            r.include_io,
        );
        let secs = bd.total() + r.extra_s;
        let flops = match r.kernel {
            Kernel::Diag => r.w.diag_flops(),
            Kernel::Offdiag => r.w.offdiag_flops(),
        };
        let pflops = flops / secs / 1e15;
        let pct_ref = if r.pct_ref_full_attainable {
            r.machine.attainable_flops(r.machine.nodes)
        } else {
            r.machine.attainable_flops(r.nodes)
        };
        let pct = 100.0 * flops / secs / pct_ref;
        t.row(&[
            r.system.to_string(),
            r.calc.to_string(),
            r.nodes.to_string(),
            if r.paper_time.is_nan() {
                "-".into()
            } else {
                format!("{:.1}", r.paper_time)
            },
            format!("{secs:.1}"),
            format!("{:.1}", r.paper_pflops),
            format!("{pflops:.1}"),
            format!("{:.2}", r.paper_pct),
            format!("{pct:.2}"),
        ]);
    }
    print!("{}", t.render());
    println!(
        "\nNotes: per-row N_E values are not published; they are inferred\n\
         from each row's published (time, PFLOP/s) pair through Eqs. 7-8,\n\
         so the seconds column is a consistency check of the throughput\n\
         model, not an independent fit. GWPT rows fold the N_p perturbation\n\
         factor into the effective N_E. 'Tot.' rows add the paper's\n\
         measured non-kernel time. Shape targets: off-diag ~2x the diag\n\
         throughput; Frontier off-diag above 1.0 EFLOP/s; I/O roughly\n\
         halves effective throughput. Known model gap: the fixed per-kernel\n\
         efficiency misses the reduced ZGEMM efficiency of LiH998's small\n\
         matrices (paper 38.4%, model ~59%) — size-dependent GEMM rates\n\
         are probed separately in ablation_gemm_tuning."
    );
}
