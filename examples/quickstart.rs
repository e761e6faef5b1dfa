//! Quickstart: simulate one workload under the four headline
//! configurations and print the paper's core comparison.
//!
//! ```sh
//! cargo run --release --example quickstart [workload]
//! ```

use cmpsim::report::{pct, Table};
use cmpsim::{run_grid, workload, RunOptions, SimLength, SystemConfig, Variant, VariantGrid};

fn main() {
    let name = std::env::args().nth(1).unwrap_or_else(|| "zeus".to_string());
    let spec = workload(&name).unwrap_or_else(|| {
        eprintln!("unknown workload '{name}'; pick one of apache zeus oltp jbb art apsi fma3d mgrid");
        std::process::exit(1);
    });

    let base = SystemConfig::paper_default(8);
    let variants = [
        Variant::Base,
        Variant::BothCompression,
        Variant::Prefetch,
        Variant::AdaptivePrefetch,
        Variant::PrefetchCompression,
        Variant::AdaptivePrefetchCompression,
    ];
    println!("simulating {name} on an 8-core CMP (this takes a few seconds per config)…");
    let cells = run_grid(&[spec], &base, &variants, SimLength::standard(), &RunOptions::default());
    let grid = VariantGrid::from_cells(cells.into_iter().map(|c| c.expect("simulation failed")));

    let mut t = Table::new(&["configuration", "runtime (cycles)", "IPC", "L2 MPKI", "GB/s", "speedup"]);
    for v in variants {
        let r = grid.get(v);
        t.row(&[
            v.label().into(),
            r.runtime().to_string(),
            format!("{:.2}", r.ipc()),
            format!("{:.2}", r.stats.l2.mpki(r.stats.instructions)),
            format!("{:.1}", r.bandwidth_gbps()),
            pct(grid.speedup_pct(v)),
        ]);
    }
    t.print(&format!("{name}: compression × prefetching"));

    println!(
        "\nInteraction(Pf, Compr) = {:+.1}%  (EQ 5; positive means the\n\
         techniques reinforce each other, the paper's central result)",
        grid.pf_compr_interaction() * 100.0
    );
}
