//! Search-quality check on a small execution (paper §8.4): exhaustively
//! establish the optimal strategy of the canonical space for LeNet on
//! four devices, and verify the MCMC search finds it.
//!
//! ```sh
//! cargo run --release --example optimal_small
//! ```

use flexflow::core::exhaustive::{canonical_space_size, check_local_optimality, ExhaustiveSearch};
use flexflow::core::soap::ConfigSpace;
use flexflow::core::{Budget, SearchRequest, SimConfig, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::clusters;
use flexflow::opgraph::zoo;

fn main() {
    let graph = zoo::lenet(64);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();

    println!(
        "LeNet on 4 devices: canonical strategy space has ~1e{:.1} strategies",
        canonical_space_size(&graph, &topo).log10()
    );

    // MCMC restricted to the enumerable (canonical) space.
    let mcmc = SearchRequest::new(84)
        .chains(1)
        .space(ConfigSpace::Canonical)
        .run(
            &graph,
            &topo,
            &cost,
            &[Strategy::data_parallel(&graph, &topo)],
            Budget::evaluations(4000),
            cfg,
        );
    println!(
        "MCMC best: {:.2} ms after {} proposals",
        mcmc.best_cost_us / 1e3,
        mcmc.evals
    );

    // Branch-and-bound proof, warm-started by the MCMC incumbent.
    let outcome =
        ExhaustiveSearch::default().search(&graph, &topo, &cost, cfg, Some(mcmc.best.clone()));
    let (optimal, opt_cost) = outcome.best();
    println!(
        "exhaustive search: {:.2} ms ({}, proven optimal: {})",
        opt_cost / 1e3,
        match &outcome {
            flexflow::core::exhaustive::ExhaustiveOutcome::Optimal { nodes, .. } =>
                format!("{nodes} DFS nodes"),
            flexflow::core::exhaustive::ExhaustiveOutcome::BudgetExhausted { nodes, .. } =>
                format!("budget hit at {nodes} nodes"),
        },
        outcome.is_proven_optimal()
    );
    if outcome.is_proven_optimal() {
        let gap = mcmc.best_cost_us / opt_cost - 1.0;
        println!(
            "MCMC gap to optimum: {:.3}% (paper: MCMC finds the optimum)",
            gap * 100.0
        );
    }

    // Local optimality of the MCMC result against every neighbor.
    let (is_local, witness) = check_local_optimality(&graph, &topo, &cost, cfg, &mcmc.best);
    println!("MCMC result is a local optimum: {is_local}");
    if let Some((op, _, c)) = witness {
        println!("  better neighbor exists at op {op}: {:.2} ms", c / 1e3);
    }
    let _ = optimal;
}
