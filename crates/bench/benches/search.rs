//! Criterion microbenchmarks for the execution optimizer: MCMC proposal
//! throughput (proposals simulated per second) and exhaustive-search node
//! rate on the §8.4 configuration space.

use criterion::{criterion_group, criterion_main, Criterion};
use flexflow_bench::sim_config;
use flexflow_core::exhaustive::ExhaustiveSearch;
use flexflow_core::optimizer::{Budget, SearchRequest};
use flexflow_core::strategy::Strategy;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::clusters;
use flexflow_opgraph::zoo;
use std::hint::black_box;

fn bench_mcmc(c: &mut Criterion) {
    let mut group = c.benchmark_group("mcmc");
    group.sample_size(10);
    let graph = zoo::lenet(64);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    group.bench_function("lenet_100_proposals", |b| {
        b.iter(|| {
            let r = SearchRequest::new(1).chains(1).run(
                &graph,
                &topo,
                &cost,
                &[Strategy::data_parallel(&graph, &topo)],
                Budget {
                    max_evals: 100,
                    max_seconds: f64::INFINITY,
                    patience_fraction: 1.0,
                },
                sim_config(),
            );
            black_box(r.best_cost_us)
        });
    });
    group.finish();
}

fn bench_exhaustive(c: &mut Criterion) {
    let mut group = c.benchmark_group("exhaustive");
    group.sample_size(10);
    // A graph small enough to search completely.
    let mut g = flexflow_opgraph::OpGraph::new("tiny");
    let x = g.add_input("x", flexflow_tensor::TensorShape::new(&[8, 32]));
    let a = g
        .add_op(
            flexflow_opgraph::OpKind::Linear { out_features: 16 },
            &[x],
            "fc1",
        )
        .unwrap();
    let _ = g
        .add_op(
            flexflow_opgraph::OpKind::Linear { out_features: 4 },
            &[a],
            "fc2",
        )
        .unwrap();
    let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    group.bench_function("two_linears_2gpus", |b| {
        b.iter(|| {
            let out = ExhaustiveSearch::default().search(&g, &topo, &cost, sim_config(), None);
            black_box(out.best().1)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_mcmc, bench_exhaustive);
criterion_main!(benches);
