//! Figure 1: performance improvement of prefetching, compression,
//! adaptive prefetching, and prefetching+compression for zeus as the
//! number of cores grows — the paper's motivating figure.

use cmpsim_bench::{parallel_grids_for, sim_length, SEED};
use cmpsim_core::report::{pct, Table};
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_trace::workload;

fn main() {
    let spec = workload("zeus").expect("zeus exists");
    let len = sim_length();
    let mut t = Table::new(&["cores", "pf", "compr", "adaptive-pf", "pf+compr"]);
    for cores in [1u8, 2, 4, 8, 16] {
        let base = SystemConfig::paper_default(cores).with_seed(SEED);
        let (_, grid) = parallel_grids_for(
            vec![spec.clone()],
            &base,
            &[
                Variant::Base,
                Variant::Prefetch,
                Variant::BothCompression,
                Variant::AdaptivePrefetch,
                Variant::PrefetchCompression,
            ],
            len,
        )
        .remove(0);
        t.row(&[
            cores.to_string(),
            pct(grid.speedup_pct(Variant::Prefetch)),
            pct(grid.speedup_pct(Variant::BothCompression)),
            pct(grid.speedup_pct(Variant::AdaptivePrefetch)),
            pct(grid.speedup_pct(Variant::PrefetchCompression)),
        ]);
    }
    t.print("Figure 1: zeus improvement (%) vs core count");
    println!(
        "(Paper: prefetching's benefit decays with cores — +74% at 1 core\n\
         to -8% at 16 — while compression's grows; combined stays strong.)"
    );
}
