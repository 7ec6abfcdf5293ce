//! Ablation studies for the design choices DESIGN.md calls out:
//!
//! 1. **beta** — MCMC acceptance temperature sweep (Eq. 2's `beta`);
//! 2. **init** — effect of the initial candidate set (data-parallel vs
//!    random vs expert vs all; §6.2 prescribes DP + random);
//! 3. **cache** — the measurement-reuse assumption A1: how many distinct
//!    measurements a whole search needs vs how many task-time queries it
//!    makes (the paper's "tens of milliseconds" measurement claim);
//! 4. **sync** — parameter-synchronization modeling on/off, showing it is
//!    what separates the strategies on big-parameter models.

use flexflow_baselines::expert;
use flexflow_bench::sim_config;
use flexflow_core::optimizer::{Budget, SearchRequest};
use flexflow_core::sim::{simulate_full, SimConfig};
use flexflow_core::soap::ConfigSpace;
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::TaskGraph;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind};
use flexflow_opgraph::zoo;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::Serialize;

#[derive(Serialize)]
struct AblationPoint {
    study: String,
    setting: String,
    best_cost_ms: f64,
    detail: String,
}

fn main() {
    let evals: u64 = std::env::var("ABLATION_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);
    let graph = zoo::rnnlm(64, 10);
    let topo = clusters::paper_cluster(DeviceKind::P100, 8);
    let cost = MeasuredCostModel::paper_default();
    let cfg = sim_config();
    let mut points: Vec<AblationPoint> = Vec::new();

    // 1. beta sweep
    println!("Ablation 1: MCMC temperature (beta_scale), RNNLM on 8 P100s");
    println!(
        "{:>12} {:>14} {:>12}",
        "beta_scale", "best (ms)", "accept %"
    );
    for beta in [1.0, 5.0, 20.0, 80.0, 320.0] {
        let r = SearchRequest::new(0xAB1).chains(1).beta_scale(beta).run(
            &graph,
            &topo,
            &cost,
            &[Strategy::data_parallel(&graph, &topo)],
            Budget::evaluations(evals),
            cfg,
        );
        let accept = 100.0 * r.accepted as f64 / r.evals.max(1) as f64;
        println!(
            "{:>12.0} {:>14.2} {:>11.1}%",
            beta,
            r.best_cost_us / 1e3,
            accept
        );
        points.push(AblationPoint {
            study: "beta".into(),
            setting: format!("{beta}"),
            best_cost_ms: r.best_cost_us / 1e3,
            detail: format!("accept={accept:.1}%"),
        });
    }

    // 2. initialization
    println!("\nAblation 2: initial candidates");
    let mut rng = StdRng::seed_from_u64(0xAB2);
    let dp = Strategy::data_parallel(&graph, &topo);
    let ex = expert::strategy(&graph, &topo);
    let rnd = Strategy::random(&graph, &topo, ConfigSpace::Full, &mut rng);
    let sets: Vec<(&str, Vec<Strategy>)> = vec![
        ("dp-only", vec![dp.clone()]),
        ("random-only", vec![rnd.clone()]),
        ("expert-only", vec![ex.clone()]),
        ("dp+random (paper)", vec![dp.clone(), rnd.clone()]),
        ("all three", vec![dp, rnd, ex]),
    ];
    println!("{:>20} {:>14}", "initial set", "best (ms)");
    for (name, set) in sets {
        let r = SearchRequest::new(0xAB2).chains(1).run(
            &graph,
            &topo,
            &cost,
            &set,
            Budget::evaluations(evals),
            cfg,
        );
        println!("{:>20} {:>14.2}", name, r.best_cost_us / 1e3);
        points.push(AblationPoint {
            study: "init".into(),
            setting: name.into(),
            best_cost_ms: r.best_cost_us / 1e3,
            detail: String::new(),
        });
    }

    // 3. measurement cache (assumption A1)
    println!("\nAblation 3: measurement reuse (assumption A1)");
    let fresh_cost = MeasuredCostModel::paper_default();
    let r = SearchRequest::new(0xAB3).chains(1).run(
        &graph,
        &topo,
        &fresh_cost,
        &[Strategy::data_parallel(&graph, &topo)],
        Budget::evaluations(evals),
        cfg,
    );
    let (hits, misses) = fresh_cost.cache_stats();
    println!(
        "  task-time queries: {}; distinct measurements: {} ({:.2}% miss rate)",
        hits + misses,
        fresh_cost.distinct_measurements(),
        100.0 * misses as f64 / (hits + misses).max(1) as f64
    );
    println!(
        "  -> a search over {} proposals re-measures almost nothing, which is\n\
         \u{20}   why measuring once per (type, size) is enough (paper §1)",
        r.evals
    );
    points.push(AblationPoint {
        study: "cache".into(),
        setting: "paper_default".into(),
        best_cost_ms: r.best_cost_us / 1e3,
        detail: format!(
            "queries={}, distinct={}, miss%={:.3}",
            hits + misses,
            fresh_cost.distinct_measurements(),
            100.0 * misses as f64 / (hits + misses).max(1) as f64
        ),
    });

    // 4. parameter-sync modeling
    println!("\nAblation 4: parameter-synchronization modeling");
    let no_sync = SimConfig {
        include_param_sync: false,
        ..cfg
    };
    let dp = Strategy::data_parallel(&graph, &topo);
    let with = simulate_full(&TaskGraph::build(&graph, &topo, &dp, &cost, &cfg)).makespan_us();
    let without =
        simulate_full(&TaskGraph::build(&graph, &topo, &dp, &cost, &no_sync)).makespan_us();
    println!(
        "  DP iteration: {:.2} ms with sync vs {:.2} ms without ({:.2}x) —\n\
         \u{20}  gradient synchronization dominates data parallelism on RNNLM",
        with / 1e3,
        without / 1e3,
        with / without
    );
    points.push(AblationPoint {
        study: "sync".into(),
        setting: "dp".into(),
        best_cost_ms: with / 1e3,
        detail: format!("without_sync_ms={:.2}", without / 1e3),
    });

    // 5. gradient-synchronization algorithm (extension beyond the paper)
    println!("\nAblation 5: parameter-server star vs ring allreduce");
    let ring_cfg = SimConfig {
        sync_mode: flexflow_core::taskgraph::SyncMode::Ring,
        ..cfg
    };
    let ring = simulate_full(&TaskGraph::build(&graph, &topo, &dp, &cost, &ring_cfg)).makespan_us();
    println!(
        "  DP iteration: {:.2} ms (PS star) vs {:.2} ms (ring) — {:.2}x;\n\
         \u{20}  the paper-era PS model is what makes DP sync-bound",
        with / 1e3,
        ring / 1e3,
        with / ring
    );
    points.push(AblationPoint {
        study: "sync-algorithm".into(),
        setting: "ring".into(),
        best_cost_ms: ring / 1e3,
        detail: format!("ps_ms={:.2}", with / 1e3),
    });

    flexflow_bench::write_json("ablations", &points);
}
