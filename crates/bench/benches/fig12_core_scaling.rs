//! Figure 12: performance improvement vs. core count for apache and jbb
//! under prefetching, adaptive prefetching, compression, and
//! adaptive-prefetching+compression.

use cmpsim_bench::{parallel_grids_for, sim_length, SEED};
use cmpsim_core::report::{pct, Table};
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_trace::workload;

fn main() {
    let len = sim_length();
    for name in ["apache", "jbb"] {
        let spec = workload(name).expect("known workload");
        let mut t =
            Table::new(&["cores", "pf", "adaptive-pf", "compr", "adaptive-pf+compr"]);
        for cores in [1u8, 2, 4, 8, 16] {
            let base = SystemConfig::paper_default(cores).with_seed(SEED);
            let (_, grid) = parallel_grids_for(
                vec![spec.clone()],
                &base,
                &[
                    Variant::Base,
                    Variant::Prefetch,
                    Variant::AdaptivePrefetch,
                    Variant::BothCompression,
                    Variant::AdaptivePrefetchCompression,
                ],
                len,
            )
            .remove(0);
            t.row(&[
                cores.to_string(),
                pct(grid.speedup_pct(Variant::Prefetch)),
                pct(grid.speedup_pct(Variant::AdaptivePrefetch)),
                pct(grid.speedup_pct(Variant::BothCompression)),
                pct(grid.speedup_pct(Variant::AdaptivePrefetchCompression)),
            ]);
        }
        t.print(&format!("Figure 12: {name} improvement (%) vs core count"));
    }
}
