//! The paper's flagship workload: find a parallelization strategy for the
//! NMT model (encoder/decoder LSTMs + attention + big softmax) on a
//! 4-GPU P100 node, then report the per-layer structure FlexFlow found —
//! the Fig. 14 scenario.
//!
//! ```sh
//! cargo run --release --example nmt_search
//! ```

use flexflow::baselines::expert;
use flexflow::core::metrics::SimMetrics;
use flexflow::core::sim::{simulate_full, SimConfig};
use flexflow::core::taskgraph::TaskGraph;
use flexflow::core::{Budget, SearchRequest, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::clusters;
use flexflow::opgraph::zoo;

fn report(name: &str, m: &SimMetrics) {
    println!(
        "{name:<18} {:>9.2} ms/iter  {:>8.1} MB moved  ({:.1} MB sync)",
        m.makespan_us / 1e3,
        m.total_comm_bytes() as f64 / 1e6,
        m.sync_bytes as f64 / 1e6
    );
}

fn main() {
    // Short unroll keeps the example snappy; bump for the full model.
    let unroll = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(10);
    let graph = zoo::nmt(64, unroll);
    let topo = clusters::p100_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    println!(
        "NMT with unroll {unroll}: {} operators, {:.1}M parameters\n",
        graph.len(),
        graph.total_params() as f64 / 1e6
    );

    let contenders: Vec<(&str, Strategy)> = vec![
        ("data parallelism", Strategy::data_parallel(&graph, &topo)),
        ("expert (GNMT)", expert::strategy(&graph, &topo)),
    ];
    for (name, s) in &contenders {
        let tg = TaskGraph::build(&graph, &topo, s, &cost, &cfg);
        let state = simulate_full(&tg);
        report(name, &SimMetrics::collect(&tg, &state));
    }

    // The parallel driver: one MCMC chain per hardware thread, seeded
    // deterministically, exchanging bests every 256 evaluations.
    let request = SearchRequest::new(7);
    println!(
        "searching with {} parallel chain(s), exchange every {} evals...",
        request.chains, request.exchange_every
    );
    let initials: Vec<Strategy> = contenders.into_iter().map(|(_, s)| s).collect();
    let result = request.run(
        &graph,
        &topo,
        &cost,
        &initials,
        Budget::evaluations(2000),
        cfg,
    );
    println!(
        "evaluated {} proposals in {:.1}s (per chain: {:?})",
        result.evals, result.elapsed_seconds, result.chain_evals
    );
    let tg = TaskGraph::build(&graph, &topo, &result.best, &cost, &cfg);
    let state = simulate_full(&tg);
    report("FlexFlow", &SimMetrics::collect(&tg, &state));

    // Show what it did to the interesting layers.
    println!("\nper-layer choices (first timestep of each layer):");
    for probe in [
        "enc_embed_t0",
        "enc_lstm0_t0",
        "dec_lstm1_t0",
        "attn_t0",
        "nmt_proj_t0",
    ] {
        if let Some(id) = graph.ids().find(|&i| graph.op(i).name() == probe) {
            println!("  {:<14} {}", probe, result.best.config(id));
        }
    }
}
