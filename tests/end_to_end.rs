//! Cross-crate integration tests: the full pipeline from model zoo through
//! search to (simulated and real) execution, exercising the public facade
//! API exactly as a downstream user would.

use flexflow::baselines::{expert, model_parallel, optcnn};
use flexflow::core::metrics::SimMetrics;
use flexflow::core::sim::{simulate_full, SimConfig, Simulator};
use flexflow::core::taskgraph::TaskGraph;
use flexflow::core::{Budget, SearchRequest, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::clusters;
use flexflow::opgraph::zoo;
use flexflow::runtime::dataflow;
use flexflow::runtime::ground_truth::{GroundTruthConfig, GroundTruthExecutor};

#[test]
fn search_beats_or_matches_every_baseline_on_lenet() {
    let graph = zoo::lenet(64);
    let topo = clusters::p100_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();

    let eval = |s: &Strategy| {
        simulate_full(&TaskGraph::build(&graph, &topo, s, &cost, &cfg)).makespan_us()
    };
    let dp = Strategy::data_parallel(&graph, &topo);
    let mp = model_parallel(&graph, &topo, &cost);
    let ex = expert::strategy(&graph, &topo);
    let oc = optcnn::optimize(&graph, &topo, &cost).strategy;

    let result = SearchRequest::new(5).chains(1).run(
        &graph,
        &topo,
        &cost,
        std::slice::from_ref(&dp),
        Budget::evaluations(800),
        cfg,
    );
    for (name, s) in [("dp", &dp), ("mp", &mp), ("expert", &ex), ("optcnn", &oc)] {
        assert!(
            result.best_cost_us <= eval(s) * 1.001,
            "search lost to {name}: {} vs {}",
            result.best_cost_us,
            eval(s)
        );
    }
}

#[test]
fn discovered_strategy_executes_correctly_on_the_dataflow_runtime() {
    let graph = zoo::lenet(8);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let result = SearchRequest::new(6).chains(1).run(
        &graph,
        &topo,
        &cost,
        &[Strategy::data_parallel(&graph, &topo)],
        Budget::evaluations(200),
        SimConfig::default(),
    );
    let inputs = dataflow::synthetic_inputs(&graph, 1);
    let serial = dataflow::execute_serial(&graph, &inputs, 2);
    let report = dataflow::execute_strategy(&graph, &topo, &result.best, &inputs, 2);
    for (op, tensor) in &report.outputs {
        assert!(
            tensor.approx_eq(&serial[op], 1e-4),
            "discovered strategy computed a different function at {op}"
        );
    }
}

#[test]
fn simulator_tracks_ground_truth_on_searched_strategies() {
    // The Fig. 11 property for strategies the optimizer actually visits.
    let graph = zoo::rnnlm(64, 4);
    let topo = clusters::p100_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let result = SearchRequest::new(17).chains(1).run(
        &graph,
        &topo,
        &cost,
        &[Strategy::data_parallel(&graph, &topo)],
        Budget::evaluations(150),
        cfg,
    );
    let tg = TaskGraph::build(&graph, &topo, &result.best, &cost, &cfg);
    let sim = simulate_full(&tg).makespan_us();
    let real = GroundTruthExecutor::new(GroundTruthConfig::default()).execute(&tg, &topo);
    let rel = (sim - real).abs() / real;
    assert!(rel < 0.30, "relative error {rel:.3} outside the 30% band");
}

#[test]
fn metrics_expose_the_fig8_breakdown() {
    let graph = zoo::rnntc(64, 6);
    let topo = clusters::k80_cluster(2);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let dp = Strategy::data_parallel(&graph, &topo);
    let tg = TaskGraph::build(&graph, &topo, &dp, &cost, &cfg);
    let state = simulate_full(&tg);
    let m = SimMetrics::collect(&tg, &state);
    assert!(m.makespan_us > 0.0);
    assert!(m.sync_bytes > 0, "DP on an RNN must pay gradient sync");
    assert!(m.compute_us > 0.0);
    assert!(m.throughput(64) > 0.0);
}

#[test]
fn simulator_facade_supports_incremental_what_if() {
    // A downstream user exploring "what if this op ran on one GPU".
    let graph = zoo::alexnet(64);
    let topo = clusters::p100_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let mut sim = Simulator::new(
        &graph,
        &topo,
        &cost,
        SimConfig::default(),
        Strategy::data_parallel(&graph, &topo),
    );
    let before = sim.cost_us();
    let fc6 = graph
        .ids()
        .find(|&id| graph.op(id).name() == "fc6")
        .unwrap();
    let single = flexflow::core::soap::ParallelConfig::on_device(graph.op(fc6), topo.device_id(0));
    let after = sim.apply(fc6, single);
    assert!(after.is_finite() && after > 0.0);
    assert_ne!(before, after);
}

#[test]
fn every_eval_model_simulates_under_every_baseline() {
    // Broad smoke coverage: all six evaluation models x four baseline
    // strategies on a 2-node cluster build valid task graphs and simulate.
    let topo = clusters::p100_cluster(2);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    for name in zoo::EVAL_MODELS {
        // small unrolls/batches keep this fast while covering every kind
        let graph = match name {
            "alexnet" => zoo::alexnet(64),
            "inception_v3" => zoo::inception_v3(16),
            "resnet101" => zoo::resnet101(16),
            "rnntc" => zoo::rnntc(64, 3),
            "rnnlm" => zoo::rnnlm(64, 3),
            "nmt" => zoo::nmt(64, 3),
            _ => unreachable!(),
        };
        let strategies = [
            ("dp", Strategy::data_parallel(&graph, &topo)),
            ("expert", expert::strategy(&graph, &topo)),
            ("mp", model_parallel(&graph, &topo, &cost)),
            ("single", Strategy::single_device(&graph, &topo, 0)),
        ];
        let mut costs = Vec::new();
        for (sname, s) in &strategies {
            let tg = TaskGraph::build(&graph, &topo, s, &cost, &cfg);
            let c = simulate_full(&tg).makespan_us();
            assert!(c > 0.0, "{name}/{sname} produced a zero makespan");
            costs.push(c);
        }
        // Sanity for the compute-heavy, parameter-light CNNs: data
        // parallelism must beat one device. (AlexNet and the RNN language
        // models are parameter-heavy; at batch 64 across nodes their DP is
        // legitimately sync-bound — the very pathology the paper attacks.)
        if matches!(name, "inception_v3" | "resnet101") {
            assert!(
                costs[3] >= costs[0],
                "{name}: single device beat data parallelism?"
            );
        }
    }
}
