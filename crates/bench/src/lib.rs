//! Shared harness utilities for the benchmark binaries that regenerate
//! every table and figure of the paper's evaluation (§8). See DESIGN.md
//! for the experiment index and EXPERIMENTS.md for recorded results.
//!
//! Each binary prints an aligned text table (the paper's rows/series) and
//! writes a machine-readable JSON artifact under `results/`.

use flexflow_baselines::expert;
use flexflow_core::metrics::SimMetrics;
use flexflow_core::optimizer::{Budget, SearchRequest, SearchResult};
use flexflow_core::sim::{simulate_full, SimConfig};
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::TaskGraph;
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{zoo, OpGraph};
use serde::Serialize;
use std::path::PathBuf;

/// Where JSON artifacts land (`results/` at the workspace root, or
/// `$FLEXFLOW_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    std::env::var_os("FLEXFLOW_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("results"))
}

/// Writes a JSON artifact under [`results_dir`], creating it if needed.
///
/// # Panics
///
/// Panics on I/O errors — benchmark binaries should fail loudly.
pub fn write_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).expect("create results dir");
    let path = dir.join(format!("{name}.json"));
    let s = serde_json::to_string_pretty(value).expect("serialize artifact");
    std::fs::write(&path, s).expect("write artifact");
    println!("\n[artifact] {}", path.display());
}

/// The evaluation's default simulator settings.
pub fn sim_config() -> SimConfig {
    SimConfig::default()
}

/// Builds the evaluation model by name with the paper's batch size
/// (AlexNet 256, everything else 64; §8.1).
pub fn eval_model(name: &str) -> OpGraph {
    let batch = if name == "alexnet" { 256 } else { 64 };
    zoo::by_name(name, batch)
}

/// Builds the evaluation model at a reduced unroll/batch for the heavier
/// sweeps; `scale` in (0, 1] scales the batch.
pub fn eval_model_scaled(name: &str, batch: u64) -> OpGraph {
    zoo::by_name(name, batch)
}

/// The paper's cluster of a given flavour truncated/extended to a GPU
/// count (Fig. 6 shapes).
pub fn paper_cluster(kind: DeviceKind, gpus: usize) -> Topology {
    clusters::paper_cluster(kind, gpus)
}

/// Simulated per-iteration time of a strategy in microseconds.
pub fn cost_of(
    graph: &OpGraph,
    topo: &Topology,
    cost: &MeasuredCostModel,
    strategy: &Strategy,
) -> f64 {
    let tg = TaskGraph::build(graph, topo, strategy, cost, &sim_config());
    simulate_full(&tg).makespan_us()
}

/// Full metrics of a strategy.
pub fn metrics_of(
    graph: &OpGraph,
    topo: &Topology,
    cost: &MeasuredCostModel,
    strategy: &Strategy,
) -> SimMetrics {
    let tg = TaskGraph::build(graph, topo, strategy, cost, &sim_config());
    let state = simulate_full(&tg);
    SimMetrics::collect(&tg, &state)
}

/// The three contenders of Fig. 7 for one (model, cluster) cell:
/// data parallelism, the expert-designed strategy, and FlexFlow's search.
#[derive(Debug, Clone, Serialize)]
pub struct Contenders {
    /// Samples/second/GPU under data parallelism.
    pub data_parallel: f64,
    /// Samples/second/GPU under the expert strategy.
    pub expert: f64,
    /// Samples/second/GPU under the FlexFlow-discovered strategy.
    pub flexflow: f64,
}

/// Per-GPU training throughput (samples/second/GPU), the Fig. 7 y-axis.
pub fn per_gpu_throughput(batch: u64, makespan_us: f64, gpus: usize) -> f64 {
    batch as f64 / (makespan_us / 1e6) / gpus as f64
}

/// Runs the three contenders for one Fig. 7 cell.
///
/// `evals` bounds the MCMC budget so sweeps stay fast; the search seeds
/// from data parallelism, the expert strategy, and one random strategy
/// (§8.1: "data parallelism and a randomly generated parallelization
/// strategy as the initial candidates").
pub fn run_contenders(
    graph: &OpGraph,
    topo: &Topology,
    batch: u64,
    evals: u64,
    seed: u64,
) -> Contenders {
    let cost = MeasuredCostModel::paper_default();
    let dp = Strategy::data_parallel(graph, topo);
    let ex = expert::strategy(graph, topo);
    let dp_cost = cost_of(graph, topo, &cost, &dp);
    let ex_cost = cost_of(graph, topo, &cost, &ex);

    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed);
    // Cap the random initial candidate's degrees on big clusters (see
    // Strategy::random_with_max_degree).
    let random = Strategy::random_with_max_degree(
        graph,
        topo,
        flexflow_core::soap::ConfigSpace::Full,
        16,
        &mut rng,
    );
    let result = SearchRequest::new(seed).chains(1).run(
        graph,
        topo,
        &cost,
        &[dp.clone(), ex.clone(), random],
        Budget::evaluations(evals),
        sim_config(),
    );
    let gpus = topo.num_devices();
    Contenders {
        data_parallel: per_gpu_throughput(batch, dp_cost, gpus),
        expert: per_gpu_throughput(batch, ex_cost, gpus),
        flexflow: per_gpu_throughput(batch, result.best_cost_us, gpus),
    }
}

/// Runs an MCMC search with standard initial candidates and returns the
/// result (used by the case-study and comparison binaries).
pub fn run_search(
    graph: &OpGraph,
    topo: &Topology,
    cost: &MeasuredCostModel,
    evals: u64,
    seed: u64,
) -> SearchResult {
    run_search_seeded(graph, topo, cost, evals, seed, &[])
}

/// [`run_search`] with additional caller-supplied initial candidates
/// (e.g. a baseline's strategy — §6.2 initializes from "existing
/// strategies").
pub fn run_search_seeded(
    graph: &OpGraph,
    topo: &Topology,
    cost: &MeasuredCostModel,
    evals: u64,
    seed: u64,
    extra: &[Strategy],
) -> SearchResult {
    let mut initials = vec![
        Strategy::data_parallel(graph, topo),
        expert::strategy(graph, topo),
    ];
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(seed ^ 0xA5);
    initials.push(Strategy::random_with_max_degree(
        graph,
        topo,
        flexflow_core::soap::ConfigSpace::Full,
        16,
        &mut rng,
    ));
    initials.extend_from_slice(extra);
    SearchRequest::new(seed).chains(1).run(
        graph,
        topo,
        cost,
        &initials,
        Budget::evaluations(evals),
        sim_config(),
    )
}

/// The `pipeline_table` comparison: does adding the pipeline dimension
/// to the search space pay on deep sequential models?
///
/// The comparison is deterministic (single-chain searches, evaluation
/// budgets, no wall-clock cutoffs): a whole-batch reference search
/// defines the best `microbatches = 1` cost, then a **greedy pipelined
/// polish** (`max_microbatches = 8`, hill-climbing acceptance)
/// warm-started from that reference refines it. Warm-starting makes
/// "pipelined ≤ whole-batch" structural (a search never returns worse
/// than its seed), and greedy acceptance keeps the polish anchored to the
/// seed's basin — a hot Metropolis walk diffuses away from the seed
/// before the microbatch move lands, which is exactly the failure mode
/// this phase must not have.
pub mod pipeline_bench {
    use flexflow_core::optimizer::{AcceptanceRule, Budget, SearchRequest};
    use flexflow_core::strategy::Strategy;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_device::Topology;
    use flexflow_opgraph::OpGraph;
    use serde::Serialize;

    /// Outcome of one pipelined-vs-whole-batch comparison.
    #[derive(Debug, Clone, Serialize)]
    pub struct PipelineComparison {
        /// Model the comparison ran on.
        pub model: String,
        /// Devices of the cluster.
        pub gpus: usize,
        /// Evaluation budget of each search.
        pub evals: u64,
        /// Best cost of the whole-batch (`m = 1`) reference search.
        pub baseline_best_us: f64,
        /// Best cost of the pipelined refinement.
        pub pipelined_best_us: f64,
        /// Microbatch count of the winning pipelined strategy.
        pub pipelined_microbatches: u64,
        /// `pipelined / baseline` (< 1 means pipelining won).
        pub cost_ratio: f64,
    }

    /// Runs the comparison on one `(graph, topo)` workload.
    pub fn compare(
        model: &str,
        graph: &OpGraph,
        topo: &Topology,
        evals: u64,
        seed: u64,
    ) -> PipelineComparison {
        let cost = MeasuredCostModel::paper_default();
        let cfg = flexflow_core::SimConfig::default();
        let budget = Budget {
            max_evals: evals,
            max_seconds: f64::INFINITY,
            patience_fraction: 1.0,
        };
        let initials = [
            Strategy::data_parallel(graph, topo),
            flexflow_baselines::expert::strategy(graph, topo),
        ];
        let baseline = SearchRequest::new(seed)
            .chains(1)
            .run(graph, topo, &cost, &initials, budget, cfg);
        let pipelined = SearchRequest::new(seed ^ 0x51_F0)
            .chains(1)
            .max_microbatches(8)
            .acceptance(AcceptanceRule::Greedy)
            .run_warm(graph, topo, &cost, baseline.best.clone(), budget, cfg);
        PipelineComparison {
            model: model.to_string(),
            gpus: topo.num_devices(),
            evals,
            baseline_best_us: baseline.best_cost_us,
            pipelined_best_us: pipelined.best_cost_us,
            pipelined_microbatches: pipelined.best.microbatches(),
            cost_ratio: pipelined.best_cost_us / baseline.best_cost_us,
        }
    }
}

/// The `param_sync_table` sweep: data parallelism with one sync mode
/// forced on every layer, on hierarchical clusters of 4-GPU P100 NVLink
/// islands joined by an InfiniBand spine.
pub mod param_sync_bench {
    use flexflow_core::memory;
    use flexflow_core::soap::ParamSync;
    use flexflow_core::strategy::Strategy;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_device::{clusters, DeviceKind};
    use flexflow_opgraph::zoo;
    use serde::Serialize;

    /// One forced-mode cell of the EXPERIMENTS.md sweep: the data-parallel
    /// strategy with `mode` on every layer.
    #[derive(Debug, Clone, Serialize)]
    pub struct ModeCell {
        /// Model of the cell.
        pub model: String,
        /// Devices of the cluster.
        pub gpus: usize,
        /// Sync mode, in [`ParamSync`]'s token grammar.
        pub mode: String,
        /// Simulated iteration time (µs).
        pub cost_us: f64,
        /// Per-device optimizer-state peak (bytes).
        pub opt_state_peak_bytes: u64,
    }

    /// Measures one `(model, gpus, mode)` cell on the hierarchical
    /// cluster family.
    pub fn mode_cell(model: &str, gpus: usize, mode: ParamSync) -> ModeCell {
        let graph = zoo::by_name(model, 64);
        let topo = clusters::hierarchical_cluster(DeviceKind::P100, gpus / 4, 4);
        let cost = MeasuredCostModel::paper_default();
        let dp = Strategy::data_parallel(&graph, &topo).with_param_sync_everywhere(mode);
        let fp = memory::footprint(&graph, &topo, &dp);
        ModeCell {
            model: model.to_string(),
            gpus,
            mode: mode.to_string(),
            cost_us: super::cost_of(&graph, &topo, &cost, &dp),
            opt_state_peak_bytes: fp.peak_opt_state().1,
        }
    }
}

/// The `mem_table` sweep: peak per-device memory of data parallelism with
/// the two memory levers — activation recomputation and ZeRO-1
/// optimizer-state sharding — toggled, verdicted against the P100's
/// hardware budget.
pub mod memory_bench {
    use flexflow_core::memory::{self, MemBudget};
    use flexflow_core::soap::ParamSync;
    use flexflow_core::strategy::Strategy;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_opgraph::zoo;
    use serde::Serialize;

    /// One row of the EXPERIMENTS.md memory table: the data-parallel
    /// placement with the given memory levers applied everywhere.
    #[derive(Debug, Clone, Serialize)]
    pub struct MemoryCell {
        /// Model of the cell.
        pub model: String,
        /// Devices of the P100 cluster.
        pub gpus: usize,
        /// The levers: `stored|recompute` × `allreduce|zero1`.
        pub levers: String,
        /// Peak per-device bytes (weights + optimizer state + live
        /// activations).
        pub peak_bytes: u64,
        /// Simulated iteration time (µs).
        pub cost_us: f64,
        /// Whether the cell fits the P100's 16 GB.
        pub feasible: bool,
    }

    /// Measures one `(model, gpus, recompute, zero1)` cell on the paper's
    /// P100 cluster family under the hardware's own budgets.
    pub fn lever_cell(model: &str, gpus: usize, recompute: bool, zero1: bool) -> MemoryCell {
        let graph = zoo::by_name(model, 64);
        let topo = super::paper_cluster(flexflow_device::DeviceKind::P100, gpus);
        let budget = MemBudget::device_defaults(&topo);
        let cost = MeasuredCostModel::paper_default();
        let mut s = Strategy::data_parallel(&graph, &topo);
        if recompute {
            s = s.with_recompute_everywhere(true);
        }
        if zero1 {
            s = s.with_param_sync_everywhere(ParamSync::ShardedZero1 {
                shards: gpus as u64,
            });
        }
        let fp = memory::footprint(&graph, &topo, &s);
        MemoryCell {
            model: model.to_string(),
            gpus,
            levers: format!(
                "{}+{}",
                if recompute { "recompute" } else { "stored" },
                if zero1 { "zero1" } else { "allreduce" }
            ),
            peak_bytes: fp.peak_with_state().1,
            cost_us: super::cost_of(&graph, &topo, &cost, &s),
            feasible: memory::budget_violation(&fp, &topo, &budget).is_none(),
        }
    }
}

/// Renders one aligned text table row.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    cells
        .iter()
        .zip(widths)
        .map(|(c, w)| format!("{c:>w$}", w = w))
        .collect::<Vec<_>>()
        .join("  ")
}

/// Standard GPU-count sweep of Fig. 7 (numbers in parentheses are nodes).
pub const FIG7_GPU_COUNTS: [usize; 7] = [1, 2, 4, 8, 16, 32, 64];

/// Scales an MCMC evaluation budget down with the device count.
///
/// Per-proposal cost grows roughly linearly with the square of per-op task
/// counts (communication pairs), so large clusters get proportionally
/// fewer proposals; the paper's own Table 4 reports searches of 36 minutes
/// to 2.5 hours at 64 GPUs, far beyond a benchmark harness budget.
pub fn scaled_evals(base: u64, gpus: usize) -> u64 {
    if gpus <= 8 {
        base
    } else {
        (base * 8 / gpus as u64).max(24)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contenders_run_on_a_small_cell() {
        let g = eval_model_scaled("lenet", 32);
        let topo = paper_cluster(DeviceKind::P100, 4);
        let c = run_contenders(&g, &topo, 32, 30, 1);
        assert!(c.data_parallel > 0.0);
        assert!(c.expert > 0.0);
        assert!(c.flexflow > 0.0);
        // FlexFlow seeds from both baselines: never worse.
        assert!(c.flexflow >= c.data_parallel.max(c.expert) * 0.999);
    }

    #[test]
    fn throughput_math() {
        // batch 64, 1000us iteration, 4 GPUs -> 16000 samples/s/GPU
        let t = per_gpu_throughput(64, 1000.0, 4);
        assert!((t - 16_000.0).abs() < 1e-9);
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 4]);
        assert_eq!(r, "  a    bb");
    }
}
