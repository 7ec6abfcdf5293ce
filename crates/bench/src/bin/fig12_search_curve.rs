//! Reproduces **Figure 12**: best-found strategy cost over elapsed search
//! time for the NMT model on 16 P100 GPUs, comparing the full and delta
//! simulation algorithms under the same wall-clock budget — plus a third
//! series for the parallel multi-chain driver (delta simulation, chain
//! count from `FIG12_CHAINS`, default [`default_chains`]), which shows
//! what chain-level parallelism adds on top of the delta algorithm.

use flexflow_bench::{eval_model, sim_config};
use flexflow_core::optimizer::{default_chains, Budget, SearchRequest};
use flexflow_core::sim::SimAlgorithm;
use flexflow_core::strategy::Strategy;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind};
use serde::Serialize;

#[derive(Serialize)]
struct CurvePoint {
    algorithm: String,
    elapsed_s: f64,
    best_cost_ms: f64,
}

fn main() {
    let seconds: f64 = std::env::var("FIG12_SECONDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(20.0);
    let graph = eval_model("nmt");
    let topo = clusters::paper_cluster(DeviceKind::P100, 16);
    let cost = MeasuredCostModel::paper_default();

    println!("Figure 12: search progress on NMT, 16 P100 GPUs ({seconds}s budget per algorithm)");
    let mut all_points: Vec<CurvePoint> = Vec::new();
    for (name, algo) in [("full", SimAlgorithm::Full), ("delta", SimAlgorithm::Delta)] {
        let result = SearchRequest::new(12).chains(1).algorithm(algo).run(
            &graph,
            &topo,
            &cost,
            &[Strategy::data_parallel(&graph, &topo)],
            Budget {
                max_evals: u64::MAX,
                max_seconds: seconds,
                patience_fraction: 1.0, // run the clock out for the curve
            },
            sim_config(),
        );
        println!(
            "\n{name} simulation: {} proposals evaluated, best {:.2} ms",
            result.evals,
            result.best_cost_us / 1e3
        );
        let t = result.telemetry;
        println!(
            "  txn telemetry: {} commits / {} rollbacks, {} sweeps dequeuing {:.0} \
             tasks/proposal, journal depth max {}",
            t.commits,
            t.rollbacks,
            t.sweeps,
            t.dequeued as f64 / t.applies.max(1) as f64,
            t.max_journal_depth
        );
        println!("{:>10} {:>14}", "elapsed(s)", "best cost(ms)");
        for &(t, c) in &result.trace {
            println!("{:>10.2} {:>14.2}", t, c / 1e3);
            all_points.push(CurvePoint {
                algorithm: name.into(),
                elapsed_s: t,
                best_cost_ms: c / 1e3,
            });
        }
    }

    // Third series: the parallel multi-chain driver under the same
    // wall-clock budget (delta simulation; budget applies per chain since
    // chains run concurrently).
    let chains: usize = std::env::var("FIG12_CHAINS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(default_chains)
        .max(1);
    let result = SearchRequest::new(12)
        .chains(chains)
        .exchange_every(64)
        .run(
            &graph,
            &topo,
            &cost,
            &[Strategy::data_parallel(&graph, &topo)],
            Budget {
                max_evals: u64::MAX,
                max_seconds: seconds,
                patience_fraction: 1.0,
            },
            sim_config(),
        );
    let name = format!("delta-par{chains}");
    println!(
        "\n{name} ({} chains): {} proposals evaluated (per chain: {:?}), best {:.2} ms",
        chains,
        result.evals,
        result.chain_evals,
        result.best_cost_us / 1e3
    );
    println!("{:>10} {:>14}", "elapsed(s)", "best cost(ms)");
    for &(t, c) in &result.trace {
        println!("{:>10.2} {:>14.2}", t, c / 1e3);
        all_points.push(CurvePoint {
            algorithm: name.clone(),
            elapsed_s: t,
            best_cost_ms: c / 1e3,
        });
    }

    // Headline: evaluations per second of the algorithms.
    let count = |a: &str| all_points.iter().filter(|p| p.algorithm == a).count();
    println!(
        "\ntrace points: full {}, delta {}, {name} {} (delta evaluates more proposals in the \
         same budget; parallel chains add hardware scaling on top)",
        count("full"),
        count("delta"),
        count(&name)
    );
    flexflow_bench::write_json("fig12_search_curve", &all_points);
}
