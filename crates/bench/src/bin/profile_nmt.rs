//! Developer diagnostic: where does the time go on the heaviest
//! configuration (NMT on 64 K80 GPUs)?

use flexflow_baselines::expert;
use flexflow_core::optimizer::{Budget, SearchRequest};
use flexflow_core::sim::{simulate_full, SimConfig};
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::TaskGraph;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind};
use std::time::Instant;

fn main() {
    let t0 = Instant::now();
    let graph = flexflow_bench::eval_model("nmt");
    println!("build graph: {:?} ({} ops)", t0.elapsed(), graph.len());

    let topo = clusters::paper_cluster(DeviceKind::K80, 64);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();

    let t = Instant::now();
    let dp = Strategy::data_parallel(&graph, &topo);
    let tg = TaskGraph::build(&graph, &topo, &dp, &cost, &cfg);
    println!(
        "build DP task graph: {:?} ({} tasks)",
        t.elapsed(),
        tg.num_tasks()
    );

    let t = Instant::now();
    let state = simulate_full(&tg);
    println!(
        "full sim: {:?} (makespan {:.1} ms)",
        t.elapsed(),
        state.makespan_us() / 1e3
    );

    let t = Instant::now();
    let ex = expert::strategy(&graph, &topo);
    let tg_ex = TaskGraph::build(&graph, &topo, &ex, &cost, &cfg);
    println!(
        "build expert task graph: {:?} ({} tasks)",
        t.elapsed(),
        tg_ex.num_tasks()
    );
    let t = Instant::now();
    let st = simulate_full(&tg_ex);
    println!(
        "expert full sim: {:?} ({:.1} ms)",
        t.elapsed(),
        st.makespan_us() / 1e3
    );

    for evals in [5u64, 20] {
        let t = Instant::now();
        let r = SearchRequest::new(1).chains(1).run(
            &graph,
            &topo,
            &cost,
            std::slice::from_ref(&dp),
            Budget {
                max_evals: evals,
                max_seconds: f64::INFINITY,
                patience_fraction: 1.0,
            },
            cfg,
        );
        println!(
            "mcmc {evals} evals: {:?} ({:.0} ms/eval, best {:.1} ms)",
            t.elapsed(),
            t.elapsed().as_millis() as f64 / evals as f64,
            r.best_cost_us / 1e3
        );
    }
}
