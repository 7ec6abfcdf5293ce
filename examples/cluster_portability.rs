//! Portability (paper §3.1): "a parallelization strategy fine-tuned for
//! one cluster may behave poorly on other clusters". This example searches
//! a strategy for Inception-v3 on the NVLink-rich P100 node, then moves it
//! unchanged onto the PCIe-constrained K80 node and compares against a
//! strategy searched natively there.
//!
//! ```sh
//! cargo run --release --example cluster_portability
//! ```

use flexflow::core::sim::{simulate_full, SimConfig};
use flexflow::core::taskgraph::TaskGraph;
use flexflow::core::{Budget, SearchRequest, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::clusters;
use flexflow::opgraph::zoo;

fn main() {
    let graph = zoo::inception_v3(64);
    let p100 = clusters::p100_cluster(1);
    let k80 = clusters::k80_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let evals = 1200;

    let cost_on = |topo: &flexflow::device::Topology, s: &Strategy| {
        simulate_full(&TaskGraph::build(&graph, topo, s, &cost, &cfg)).makespan_us()
    };

    // Search natively on each cluster.
    let on_p100 = SearchRequest::new(21).chains(1).run(
        &graph,
        &p100,
        &cost,
        &[Strategy::data_parallel(&graph, &p100)],
        Budget::evaluations(evals),
        cfg,
    );
    let on_k80 = SearchRequest::new(22).chains(1).run(
        &graph,
        &k80,
        &cost,
        &[Strategy::data_parallel(&graph, &k80)],
        Budget::evaluations(evals),
        cfg,
    );

    // Transplant the P100-tuned strategy onto the K80 node. Device ids
    // line up (4 GPUs each), so the strategy is structurally valid — just
    // tuned for the wrong interconnect.
    let transplanted = on_p100.best.clone();

    println!("Inception-v3, 4 GPUs:");
    println!(
        "  searched on P100, run on P100: {:>9.2} ms",
        on_p100.best_cost_us / 1e3
    );
    println!(
        "  searched on K80,  run on K80:  {:>9.2} ms",
        on_k80.best_cost_us / 1e3
    );
    println!(
        "  searched on P100, run on K80:  {:>9.2} ms  <- transplanted",
        cost_on(&k80, &transplanted) / 1e3
    );
    println!(
        "  K80 data parallelism:          {:>9.2} ms",
        cost_on(&k80, &Strategy::data_parallel(&graph, &k80)) / 1e3
    );
    let native = on_k80.best_cost_us;
    let moved = cost_on(&k80, &transplanted);
    println!(
        "\nnative K80 search beats the transplant by {:.2}x — FlexFlow re-tunes\n\
         per cluster automatically, no application change needed (§3.1).",
        moved / native
    );
}
