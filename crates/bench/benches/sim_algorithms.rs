//! Criterion microbenchmarks for the execution simulator: the cost of one
//! MCMC proposal evaluation under the full vs the delta simulation
//! algorithm (the per-proposal version of Table 4), at increasing device
//! counts.
//!
//! Both sides drive the product's own transaction API the way the search
//! does for a rejected proposal: from a persistent data-parallel baseline
//! on RNNLM, `Simulator::apply` a random single-op configuration, then
//! `Simulator::rollback`. The only difference is the simulator's
//! [`SimAlgorithm`]: `Full` builds the proposed task graph from scratch
//! and sweeps it, `Delta` rebuilds the touched op and resumes the sweep
//! where the change begins.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use flexflow_core::sim::{SimAlgorithm, SimConfig, Simulator};
use flexflow_core::soap::{random_config, ConfigSpace};
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::TaskGraph;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::clusters;
use flexflow_opgraph::zoo;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn bench_proposal(c: &mut Criterion) {
    let mut group = c.benchmark_group("proposal_evaluation");
    group.sample_size(20);
    let graph = zoo::rnnlm(64, 10);
    let cost = MeasuredCostModel::paper_default();
    let searchable = Strategy::searchable_ops(&graph);
    for gpus in [4usize, 8, 16] {
        // Nodes of up to four GPUs.
        let topo = clusters::uniform_cluster(gpus.div_ceil(4), gpus.min(4), 16.0, 4.0);
        for (name, algorithm) in [("full", SimAlgorithm::Full), ("delta", SimAlgorithm::Delta)] {
            group.bench_with_input(BenchmarkId::new(name, gpus), &gpus, |b, _| {
                let mut rng = StdRng::seed_from_u64(1);
                let s = Strategy::data_parallel(&graph, &topo);
                let mut sim = Simulator::with_algorithm(
                    &graph,
                    &topo,
                    &cost,
                    SimConfig::default(),
                    s,
                    algorithm,
                );
                b.iter(|| {
                    let op = searchable[rng.gen_range(0..searchable.len())];
                    let config = random_config(graph.op(op), &topo, ConfigSpace::Full, &mut rng);
                    let c = sim.apply(op, config);
                    sim.rollback();
                    black_box(c)
                });
            });
        }
    }
    group.finish();
}

fn bench_taskgraph_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("taskgraph_build");
    group.sample_size(20);
    for model in ["lenet", "alexnet", "inception_v3"] {
        let graph = zoo::by_name(model, 64);
        let topo = clusters::p100_cluster(1);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let s = Strategy::data_parallel(&graph, &topo);
        // warm the measurement cache so the bench isolates graph assembly
        let _ = TaskGraph::build(&graph, &topo, &s, &cost, &cfg);
        group.bench_function(model, |b| {
            b.iter(|| black_box(TaskGraph::build(&graph, &topo, &s, &cost, &cfg).num_tasks()));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_proposal, bench_taskgraph_build);
criterion_main!(benches);
