//! Regenerates paper Table 1: the computational parameters of the GW
//! workflow and their synopses.

use bgw_core::GwParams;
use bgw_perf::Table;

pub fn run() {
    let mut t = Table::new(
        "Table 1: Computational parameters in the GW workflow",
        &["Symbol", "Synopsis"],
    );
    for (sym, syn) in GwParams::synopsis() {
        t.row(&[sym.to_string(), syn.to_string()]);
    }
    print!("{}", t.render());
    println!("\nAll parameters grow linearly with system size except N_E and N_omega.");
}
