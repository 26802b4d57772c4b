//! The single-system image in action: one process table, symbolic names,
//! and placement policies over a virtual cluster.
//!
//! ```sh
//! cargo run --release --example cluster_ssi
//! ```

use dse::prelude::*;
use dse::ssi::{names, ClusterView};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn main() {
    // 8 kernels on the paper's 6 machines: a virtual cluster.
    let printed = Arc::new(AtomicBool::new(false));
    let printed2 = Arc::clone(&printed);
    // Enable the in-band telemetry plane and print the live cluster top
    // view once per aggregation epoch (node 0's own loopback delta closes
    // an epoch — by then every older delta of the round has been applied).
    let config = DseConfig::paper()
        .with_telemetry(TelemetryConfig::default().with_interval(SimDuration::from_millis(2)));
    let result = DseProgram::new(Platform::sunos_sparc())
        .with_config(config)
        .with_epoch_hook(|agg, now_ns| {
            println!("--- live cluster top (t={:.1}ms) ---", now_ns as f64 / 1e6);
            print!("{}", render_top(agg, now_ns));
        })
        .run(8, move |ctx| {
            // Publish a named region from rank 3; everyone can resolve it.
            if ctx.rank() == 3 {
                let arr = GmArray::<u64>::alloc(ctx, 1, Distribution::OnNode(dse::msg::NodeId(3)));
                arr.set(ctx, 0, 0xC0FFEE);
                names::bind_array(ctx, "shared/config", &arr);
            }
            ctx.barrier();
            let region = names::lookup(ctx, "shared/config").expect("name service");
            let bytes = ctx.gm_read(region, 0, 8);
            assert_eq!(u64::from_le_bytes(bytes.try_into().unwrap()), 0xC0FFEE);

            // One rank prints the cluster-wide process table mid-run: every
            // process appears in one flat pid space, wherever it runs.
            if ctx.rank() == 0 && !printed2.swap(true, Ordering::SeqCst) {
                let shared = Arc::clone(ctx.shared());
                let view = ClusterView::new(&shared);
                println!("--- cluster-wide process table (SSI `ps`) ---");
                print!("{}", view.ps_text());
                println!("--- node table ---");
                for n in view.nodes() {
                    println!(
                        "  node {} on machine {} ({} kernels co-resident, {} running)",
                        n.node.0, n.machine, n.kernels_on_machine, n.running
                    );
                }
            }
            ctx.barrier();
        });
    println!("run completed in simulated {}", result.elapsed);
    if let Some(tel) = &result.telemetry {
        println!(
            "telemetry: {} nodes finalized",
            tel.nodes.iter().filter(|n| n.finalized).count()
        );
    }

    // Placement policies: where would an SSI scheduler put 8 processes?
    println!("--- placement of 8 processes on 6 machines ---");
    for policy in [
        PlacementPolicy::RoundRobin,
        PlacementPolicy::LeastLoaded,
        PlacementPolicy::Packed,
    ] {
        let mut placer = Placer::new(policy);
        let picks = placer.place_all(vec![0; 6], 8);
        println!("  {policy:?}: {picks:?}");
    }
}
