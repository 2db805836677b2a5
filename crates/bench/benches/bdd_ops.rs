//! Micro-benchmarks for the BDD substrate: global-function construction
//! and the minimal-elements operator that powers the exact analysis. Plain std-timer benches (`cargo bench -p xrta-bench
//! --bench bdd_ops`); the workspace builds offline, so `criterion` is
//! not available.

use xrta_bdd::Bdd;
use xrta_bench::microbench;
use xrta_circuits::{array_multiplier, carry_skip_adder};
use xrta_network::GlobalBdds;

fn bench_global_build() {
    for width in [8usize, 16] {
        let net = carry_skip_adder(width, 4).expect("valid adder");
        microbench(&format!("bdd_global_build/carry_skip/{width}"), 10, || {
            let mut bdd = Bdd::new();
            let g = GlobalBdds::build(&mut bdd, &net).expect("within limit");
            g.node_fn.len()
        });
    }
    let mult = array_multiplier(5).expect("valid multiplier");
    microbench("bdd_global_build/mult5x5", 10, || {
        let mut bdd = Bdd::new();
        let g = GlobalBdds::build(&mut bdd, &mult).expect("within limit");
        g.node_fn.len()
    });
}

fn bench_minimal() {
    let net = carry_skip_adder(8, 4).expect("valid adder");
    let mut bdd = Bdd::new();
    let gl = GlobalBdds::build(&mut bdd, &net).expect("within limit");
    let cout = gl.of(*net.outputs().last().expect("has outputs"));
    let vars = bdd.vars();
    microbench("bdd_minimal_elements/minimal_wrt_cout", 10, || {
        bdd.minimal_wrt(cout, &vars)
    });
}

fn main() {
    bench_global_build();
    bench_minimal();
}
