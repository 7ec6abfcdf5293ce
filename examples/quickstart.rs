//! Quickstart: define a DNN, describe a cluster, and let FlexFlow find a
//! parallelization strategy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use flexflow::core::{Budget, SearchRequest, SimConfig, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::clusters;
use flexflow::opgraph::{OpGraph, OpKind};
use flexflow::tensor::TensorShape;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. The operator graph: a small MLP classifier (batch 64).
    let mut graph = OpGraph::new("quickstart-mlp");
    let x = graph.add_input("x", TensorShape::new(&[64, 784]));
    let h1 = graph.add_op(OpKind::Linear { out_features: 1024 }, &[x], "fc1")?;
    let r1 = graph.add_op(OpKind::Relu, &[h1], "relu1")?;
    let h2 = graph.add_op(OpKind::Linear { out_features: 1024 }, &[r1], "fc2")?;
    let r2 = graph.add_op(OpKind::Relu, &[h2], "relu2")?;
    let y = graph.add_op(OpKind::Linear { out_features: 10 }, &[r2], "fc3")?;
    graph.add_op(OpKind::Softmax, &[y], "softmax")?;

    // 2. The device topology: one node with four P100-class GPUs.
    let topo = clusters::p100_cluster(1);
    println!("{}", topo.describe());

    // 3. The cost oracle (measure-once per op type and size, paper A1).
    let cost = MeasuredCostModel::paper_default();

    // 4. Baseline: plain data parallelism.
    let dp = Strategy::data_parallel(&graph, &topo);
    let dp_cost =
        flexflow::core::sim::Simulator::new(&graph, &topo, &cost, SimConfig::default(), dp.clone())
            .cost_us();
    println!("data parallelism: {dp_cost:.1} us per iteration");

    // 5. Search the SOAP space.
    let result = SearchRequest::new(42).chains(1).run(
        &graph,
        &topo,
        &cost,
        &[dp],
        Budget::evaluations(2000),
        SimConfig::default(),
    );
    println!(
        "FlexFlow best: {:.1} us per iteration ({:.2}x speedup, {} proposals)",
        result.best_cost_us,
        dp_cost / result.best_cost_us,
        result.evals
    );

    // 6. Inspect the discovered strategy.
    println!("\ndiscovered strategy:\n{}", result.best.describe(&graph));
    Ok(())
}
