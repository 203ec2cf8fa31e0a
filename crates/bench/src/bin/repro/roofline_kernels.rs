//! Roofline placement of the two GPP kernels on the paper's machines —
//! the mechanism behind Fig. 7 / Table 5's ~31% (diag) vs ~59% (off-diag)
//! of peak, and the paper's statement that the diag kernel "is at the
//! ceiling of achievable arithmetic intensity" (Sec. 5.6).

use bgw_perf::flopmodel::{ALPHA_AURORA, ALPHA_FRONTIER};
use bgw_perf::roofline::{diag_intensity, hbm_gb_per_gpu, offdiag_intensity, roofline_point};
use bgw_perf::timemodel::SigmaWorkload;
use bgw_perf::{Machine, Table};

pub fn run() {
    let mut t = Table::new(
        "GPP kernel roofline placement (per GPU)",
        &[
            "Machine",
            "ridge AI (F/B)",
            "kernel",
            "AI (F/B)",
            "bound",
            "attainable TF/s",
            "achieved (paper)",
        ],
    );
    for machine in [Machine::frontier(), Machine::aurora()] {
        let alpha = if machine.name == "Frontier" {
            ALPHA_FRONTIER
        } else {
            ALPHA_AURORA
        };
        let w = SigmaWorkload {
            n_sigma: 512,
            n_b: 28_224,
            n_g: 51_627,
            n_e: 200,
            alpha,
        };
        let peak = machine.attainable_tflops_per_gpu;
        let ridge = peak * 1e12 / (hbm_gb_per_gpu(&machine) * 1e9);
        let achieved_diag = if machine.name == "Frontier" {
            0.3104
        } else {
            0.3939
        };
        let achieved_off = if machine.name == "Frontier" {
            0.5945
        } else {
            0.4879
        };
        for (name, ai, achieved) in [
            ("diag", diag_intensity(&w), achieved_diag),
            ("off-diag", offdiag_intensity(&w), achieved_off),
        ] {
            let p = roofline_point(&machine, ai);
            t.row(&[
                machine.name.to_string(),
                format!("{ridge:.1}"),
                name.to_string(),
                format!("{ai:.1}"),
                if p.memory_bound { "memory" } else { "compute" }.to_string(),
                format!("{:.1}", p.attainable_flops / 1e12),
                format!("{:.1}% of peak", achieved * 100.0),
            ]);
        }
    }
    print!("{}", t.render());
    println!(
        "\nReading: the diag kernel's AI is fixed by its matrix-vector\n\
         structure (alpha/16 FLOPs per pole byte) and sits below the ridge\n\
         -> memory-bound, bounding throughput near the observed ~31%; the\n\
         off-diag ZGEMM recast multiplies AI by ~N_Sigma/2 and crosses the\n\
         ridge -> compute-bound, unlocking the ~59% / 1.07 EFLOP/s runs."
    );
}
