//! Regenerates paper Fig. 5: weak scaling of the GW-GPP Sigma kernels on
//! Frontier and Aurora.
//!
//! The paper scales the problem with the node count according to Eqs. 7-8
//! and reports near-flat time-to-solution to tens of thousands of GPUs.
//! Here the same workload construction runs through the calibrated
//! time model (executed decomposition + modeled rates; see DESIGN.md
//! Sec. 2), printing seconds and parallel efficiency per node count.

use bgw_perf::flopmodel::{ALPHA_AURORA, ALPHA_FRONTIER};
use bgw_perf::timemodel::{weak_scaling, Efficiencies, Kernel, SigmaWorkload};
use bgw_perf::{Machine, Table};

pub fn run() {
    let eff = Efficiencies::paper_anchored();
    let nodes = [16usize, 64, 256, 1024, 4096, 9408];

    for machine in [Machine::frontier(), Machine::aurora()] {
        let alpha = if machine.name == "Frontier" {
            ALPHA_FRONTIER
        } else {
            ALPHA_AURORA
        };
        // Diag kernel: N_Sigma grows with nodes (the paper's abundant
        // parallelism over self-energy elements), base Si-998-like sizes.
        let diag_scale = move |n: usize| SigmaWorkload {
            n_sigma: n / 2, // 8 per node at 16 nodes, scaled linearly
            n_b: 28_000,
            n_g: 51_627,
            n_e: 3,
            alpha,
        };
        // Off-diag kernel: N_E grows with nodes ((n, E) pair parallelism).
        let off_scale = move |n: usize| SigmaWorkload {
            n_sigma: 512,
            n_b: 28_000,
            n_g: 51_627,
            n_e: n / 16,
            alpha,
        };

        let mut t = Table::new(
            &format!("Fig. 5 (model): GW-GPP weak scaling on {}", machine.name),
            &[
                "# nodes",
                "GPUs",
                "diag s",
                "diag eff %",
                "off-diag s",
                "off-diag eff %",
            ],
        );
        let d = weak_scaling(&machine, &nodes, diag_scale, Kernel::Diag, &eff);
        let o = weak_scaling(&machine, &nodes, off_scale, Kernel::Offdiag, &eff);
        let d0 = d[0].seconds;
        let o0 = o[0].seconds;
        for i in 0..nodes.len() {
            t.row(&[
                nodes[i].to_string(),
                machine.gpus(nodes[i]).to_string(),
                format!("{:.2}", d[i].seconds),
                format!("{:.1}", 100.0 * d0 / d[i].seconds),
                format!("{:.2}", o[i].seconds),
                format!("{:.1}", 100.0 * o0 / o[i].seconds),
            ]);
        }
        print!("{}", t.render());
        println!();
    }
    println!(
        "Shape check vs paper Fig. 5: both kernels hold near-flat\n\
         time-to-solution (efficiency > 90%) to the full machine, because\n\
         the scaled dimension (N_Sigma for diag, N_E pairs for off-diag)\n\
         parallelizes with only a final small reduction."
    );
}
