//! Execute a discovered strategy for real: the dataflow runtime runs the
//! partitioned operators on actual `f32` buffers with one thread per
//! device, and the result must match a serial execution exactly — the
//! paper's §7 claim that any SOAP strategy is executable at per-operation
//! granularity.
//!
//! ```sh
//! cargo run --release --example runtime_execution
//! ```

use flexflow::core::{Budget, SearchRequest, SimConfig, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::clusters;
use flexflow::opgraph::zoo;
use flexflow::runtime::dataflow;

fn main() {
    let graph = zoo::lenet(16);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();

    // Find a non-trivial strategy.
    let result = SearchRequest::new(3).chains(1).run(
        &graph,
        &topo,
        &cost,
        &[Strategy::data_parallel(&graph, &topo)],
        Budget::evaluations(600),
        SimConfig::default(),
    );
    println!(
        "strategy found ({:.2} ms simulated); executing it for real on {} device threads",
        result.best_cost_us / 1e3,
        topo.num_devices()
    );

    // Run it on real data, and serially as the reference.
    let inputs = dataflow::synthetic_inputs(&graph, 2024);
    let serial = dataflow::execute_serial(&graph, &inputs, 99);
    let report = dataflow::execute_strategy(&graph, &topo, &result.best, &inputs, 99);

    println!(
        "cross-device traffic: {} fetches, {:.1} KB",
        report.cross_device_fetches,
        report.cross_device_bytes as f64 / 1e3
    );
    for (op, tensor) in &report.outputs {
        let reference = &serial[op];
        let diff = tensor.max_abs_diff(reference);
        println!(
            "output {:<10} shape {} max |diff| vs serial = {:e}",
            graph.op(*op).name(),
            tensor.shape(),
            diff
        );
        assert!(diff < 1e-4, "parallel execution diverged!");
    }
    println!("parallel execution matches the serial reference.");
}
