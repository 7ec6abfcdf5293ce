//! Reproduces **Figure 8**: parallelization performance breakdown for the
//! NMT model on 64 K80 GPUs (16 nodes) — per-iteration execution time,
//! overall data transfers per iteration, and overall task computation time
//! for data parallelism, the expert-designed strategy, and FlexFlow.

use flexflow_baselines::expert;
use flexflow_bench::{eval_model, metrics_of, sim_config};
use flexflow_core::optimizer::{Budget, SearchRequest};
use flexflow_core::strategy::Strategy;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind};
use serde::Serialize;

#[derive(Serialize)]
struct Breakdown {
    approach: String,
    per_iteration_seconds: f64,
    data_transfers_gb: f64,
    task_computation_seconds: f64,
}

fn main() {
    let gpus: usize = std::env::var("FIG8_GPUS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(64);
    let evals: u64 = std::env::var("FIG8_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(60);

    let graph = eval_model("nmt");
    let topo = clusters::paper_cluster(DeviceKind::K80, gpus);
    let cost = MeasuredCostModel::paper_default();

    let dp = Strategy::data_parallel(&graph, &topo);
    let ex = expert::strategy(&graph, &topo);
    // FlexFlow seeds from the existing strategies (§6.2: "We use existing
    // strategies (e.g., data parallelism, expert-designed strategies) ...
    // as the initial candidates").
    let ff = SearchRequest::new(8)
        .chains(1)
        .run(
            &graph,
            &topo,
            &cost,
            &[dp.clone(), ex.clone()],
            Budget::evaluations(evals),
            sim_config(),
        )
        .best;

    let mut rows = Vec::new();
    for (name, s) in [
        ("Data Parallelism", &dp),
        ("Expert Designed", &ex),
        ("FlexFlow", &ff),
    ] {
        let m = metrics_of(&graph, &topo, &cost, s);
        rows.push(Breakdown {
            approach: name.to_string(),
            per_iteration_seconds: m.makespan_us / 1e6,
            data_transfers_gb: m.total_comm_bytes() as f64 / 1e9,
            task_computation_seconds: m.compute_us / 1e6,
        });
    }

    println!(
        "Figure 8: NMT on {gpus} K80 GPUs ({} nodes)",
        gpus.div_ceil(4)
    );
    println!(
        "{:<18} {:>22} {:>22} {:>26}",
        "Approach", "(a) iter time (s)", "(b) transfers (GB)", "(c) task compute (s)"
    );
    for r in &rows {
        println!(
            "{:<18} {:>22.3} {:>22.2} {:>26.2}",
            r.approach, r.per_iteration_seconds, r.data_transfers_gb, r.task_computation_seconds
        );
    }
    let dp_row = &rows[0];
    let ff_row = &rows[2];
    println!(
        "\nFlexFlow vs DP: {:.2}x faster iterations, {:.2}x fewer bytes moved",
        dp_row.per_iteration_seconds / ff_row.per_iteration_seconds,
        dp_row.data_transfers_gb / ff_row.data_transfers_gb.max(1e-9),
    );
    let _ = sim_config();
    flexflow_bench::write_json("fig8_nmt_breakdown", &rows);
}
