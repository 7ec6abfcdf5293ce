//! Reproduces **Table 4**: end-to-end search time (seconds) of the
//! execution optimizer with the full and delta simulation algorithms,
//! across the six DNNs and 4–64 GPUs, averaged over random initial
//! strategies, plus a transformer row the paper does not have: gpt_small
//! on the hierarchical `p100x16-ib` / `p100x64-ib` presets. The
//! reproduction target is the *shape*: delta beats full everywhere and its
//! speedup grows with the device count.
//!
//! Knobs: `TABLE4_EVALS` (proposals per restart, default 120),
//! `TABLE4_RESTARTS` (default 3), `TABLE4_MAX_GPUS` (default 64),
//! `TABLE4_MODELS` (comma list).

use flexflow_bench::{eval_model, sim_config};
use flexflow_core::optimizer::{Budget, SearchRequest};
use flexflow_core::sim::SimAlgorithm;
use flexflow_core::soap::ConfigSpace;
use flexflow_core::strategy::Strategy;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::zoo::EVAL_MODELS;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;
use std::time::Instant;

#[derive(Serialize)]
struct Cell {
    model: String,
    gpus: usize,
    full_seconds: f64,
    delta_seconds: f64,
    speedup: f64,
}

fn env_u64(name: &str, default: u64) -> u64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// The clusters of a model's row: the paper's P100 cluster at 4–64 GPUs,
/// or the hierarchical presets for the transformer.
fn clusters_of(model: &str, max_gpus: usize) -> Vec<Topology> {
    let all: Vec<Topology> = if model == "gpt_small" {
        ["p100x16-ib", "p100x64-ib"]
            .iter()
            .map(|name| clusters::preset(name).expect("a known preset"))
            .collect()
    } else {
        [4usize, 8, 16, 32, 64]
            .iter()
            .map(|&gpus| clusters::paper_cluster(DeviceKind::P100, gpus))
            .collect()
    };
    all.into_iter()
        .filter(|t| t.num_devices() <= max_gpus)
        .collect()
}

fn main() {
    let evals = env_u64("TABLE4_EVALS", 60);
    let restarts = env_u64("TABLE4_RESTARTS", 2);
    let max_gpus = env_u64("TABLE4_MAX_GPUS", 64) as usize;
    let models: Vec<String> = std::env::var("TABLE4_MODELS")
        .map(|s| s.split(',').map(str::to_string).collect())
        .unwrap_or_else(|_| {
            EVAL_MODELS
                .iter()
                .chain(&["gpt_small"])
                .map(|s| s.to_string())
                .collect()
        });
    let cost = MeasuredCostModel::paper_default();
    let mut cells: Vec<Cell> = Vec::new();

    println!("Table 4: end-to-end search time (s), {restarts} random restarts x {evals} proposals");
    println!(
        "{:<14} {:>6} {:>10} {:>10} {:>9}",
        "model", "gpus", "full", "delta", "speedup"
    );
    for model in &models {
        let graph = eval_model(model);
        for topo in clusters_of(model, max_gpus) {
            let gpus = topo.num_devices();
            let mut rng = StdRng::seed_from_u64(0x7AB4 ^ gpus as u64);
            let initials: Vec<Strategy> = (0..restarts)
                .map(|_| {
                    Strategy::random_with_max_degree(&graph, &topo, ConfigSpace::Full, 16, &mut rng)
                })
                .collect();

            let time_of = |algo: SimAlgorithm| {
                let req = SearchRequest::new(0xBEEF ^ gpus as u64)
                    .chains(1)
                    .algorithm(algo);
                let t0 = Instant::now();
                let r = req.run(
                    &graph,
                    &topo,
                    &cost,
                    &initials,
                    Budget {
                        max_evals: evals,
                        max_seconds: f64::INFINITY,
                        patience_fraction: 1.0,
                    },
                    sim_config(),
                );
                (t0.elapsed().as_secs_f64(), r.best_cost_us)
            };
            let (full_s, _) = time_of(SimAlgorithm::Full);
            let (delta_s, _) = time_of(SimAlgorithm::Delta);
            let speedup = full_s / delta_s.max(1e-12);
            println!(
                "{:<14} {:>6} {:>10.2} {:>10.2} {:>8.1}x",
                model, gpus, full_s, delta_s, speedup
            );
            cells.push(Cell {
                model: model.clone(),
                gpus,
                full_seconds: full_s,
                delta_seconds: delta_s,
                speedup,
            });
        }
    }

    // Shape check: speedup should grow with device count per model.
    println!("\nper-model speedup trend (4 GPUs -> max):");
    for model in &models {
        let ms: Vec<&Cell> = cells.iter().filter(|c| &c.model == model).collect();
        if let (Some(first), Some(last)) = (ms.first(), ms.last()) {
            println!(
                "  {:<14} {:.1}x @ {} GPUs -> {:.1}x @ {} GPUs",
                model, first.speedup, first.gpus, last.speedup, last.gpus
            );
        }
    }
    flexflow_bench::write_json("table4_search_time", &cells);
}
