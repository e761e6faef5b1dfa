//! Figure 11: Interaction(Pf, Compr) as available pin bandwidth varies
//! from 10 to 80 GB/s. The paper's claim: interaction is large when
//! bandwidth is scarce and shrinks as it becomes plentiful.

use cmpsim_bench::{parallel_grids, sim_length, SEED};
use cmpsim_core::report::{pct, Table};
use cmpsim_core::{SystemConfig, Variant};
use cmpsim_link::LinkBandwidth;

fn main() {
    let len = sim_length();
    let variants =
        [Variant::Base, Variant::Prefetch, Variant::BothCompression, Variant::PrefetchCompression];
    let per_bandwidth: Vec<_> = [10u32, 20, 40, 80]
        .into_iter()
        .map(|bw| {
            let base =
                SystemConfig::paper_default(8).with_seed(SEED).with_link(LinkBandwidth::GBps(bw));
            parallel_grids(&base, &variants, len)
        })
        .collect();
    let mut t = Table::new(&["bench", "10 GB/s", "20 GB/s", "40 GB/s", "80 GB/s"]);
    for (i, (spec, _)) in per_bandwidth[0].iter().enumerate() {
        let mut cells = vec![spec.name.to_string()];
        for grids in &per_bandwidth {
            cells.push(pct(grids[i].1.pf_compr_interaction() * 100.0));
        }
        t.row(&cells);
    }
    t.print("Figure 11: Interaction(Pf, Compr) vs available pin bandwidth");
}
