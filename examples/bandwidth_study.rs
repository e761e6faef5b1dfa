//! Pin-bandwidth sensitivity: how the value of compression+prefetching
//! changes as the off-chip link grows from scarce to plentiful
//! (the paper's §5.5).
//!
//! ```sh
//! cargo run --release --example bandwidth_study [workload]
//! ```

use cmpsim::report::{pct, Table};
use cmpsim::{
    run_grid, workload, LinkBandwidth, RunOptions, SimLength, SystemConfig, Variant, VariantGrid,
};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "apache".to_string());
    let spec = workload(&name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}'");
        std::process::exit(1);
    });
    let len = SimLength::standard();

    let mut t = Table::new(&["link", "pf", "compr", "pf+compr", "interaction"]);
    for bw in [10u32, 20, 40, 80] {
        let base = SystemConfig::paper_default(8).with_link(LinkBandwidth::GBps(bw));
        let variants = [
            Variant::Base,
            Variant::Prefetch,
            Variant::BothCompression,
            Variant::PrefetchCompression,
        ];
        let cells = run_grid(std::slice::from_ref(&spec), &base, &variants, len, &RunOptions::default());
        let grid = VariantGrid::from_cells(cells.into_iter().map(|c| c.expect("simulation failed")));
        t.row(&[
            format!("{bw} GB/s"),
            pct(grid.speedup_pct(Variant::Prefetch)),
            pct(grid.speedup_pct(Variant::BothCompression)),
            pct(grid.speedup_pct(Variant::PrefetchCompression)),
            pct(grid.pf_compr_interaction() * 100.0),
        ]);
    }
    t.print(&format!("{name}: sensitivity to available pin bandwidth"));
}
