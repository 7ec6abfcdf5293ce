//! Reproduces **Figure 5**: the task graph of a 3-layer RNN under model
//! parallelism, the timeline the full simulation algorithm produces, and
//! the timeline after one configuration change, re-swept from the first
//! instant the change can influence (delta simulation).

use flexflow_core::sim::{simulate_delta, simulate_full, SimConfig};
use flexflow_core::soap::ParallelConfig;
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::{ExecUnit, TaskGraph, TaskKind};
use flexflow_costmodel::CostModel;
use flexflow_device::{clusters, DeviceKind};
use flexflow_opgraph::{OpGraph, OpKind, OpNode};
use flexflow_tensor::{DataType, Rect, TensorShape};
use serde::Serialize;

/// Fixed per-layer times mirroring the figure's `exe` annotations
/// (embedding 2, recurrent 1, linear 3).
struct Fig5Cost;

impl CostModel for Fig5Cost {
    fn task_time_us(&self, node: &OpNode, _out: &Rect, _device: DeviceKind) -> f64 {
        match node.kind() {
            OpKind::Input { .. } => 0.0,
            OpKind::Embedding { .. } => 2.0,
            OpKind::LstmCell { .. } => 1.0,
            OpKind::Linear { .. } => 3.0,
            _ => 1.0,
        }
    }
}

#[derive(Serialize)]
struct TimelineEntry {
    task: String,
    unit: String,
    exe: f64,
    ready: f64,
    start: f64,
    end: f64,
}

fn dump(
    g: &OpGraph,
    tg: &TaskGraph,
    state: &flexflow_core::sim::SimState,
    label: &str,
) -> Vec<TimelineEntry> {
    println!("\n{label}");
    println!(
        "{:<12} {:<10} {:>5} {:>7} {:>7} {:>7}",
        "task", "unit", "exe", "ready", "start", "end"
    );
    let mut entries = Vec::new();
    let mut rows: Vec<_> = tg.iter().collect();
    rows.sort_by_key(|a| a.1.seq);
    for (id, t) in rows {
        let name = match t.kind {
            TaskKind::Compute { op, k } => format!("{}:{}", g.op(op).name(), k + 1),
            TaskKind::Comm { .. } => "xfer".to_string(),
            TaskKind::SyncComm { .. } => "sync".to_string(),
            TaskKind::Recompute { op, k } => format!("rc:{}:{}", g.op(op).name(), k + 1),
        };
        let (r, s, e) = state.times(id);
        if t.exe_us == 0.0 {
            continue; // skip the zero-cost data-loader tasks
        }
        println!(
            "{:<12} {:<10} {:>5.1} {:>7.1} {:>7.1} {:>7.1}",
            name,
            t.unit.to_string(),
            t.exe_us,
            r,
            s,
            e
        );
        entries.push(TimelineEntry {
            task: name,
            unit: t.unit.to_string(),
            exe: t.exe_us,
            ready: r,
            start: s,
            end: e,
        });
    }
    println!("makespan: {:.1}", state.makespan_us());
    entries
}

fn main() {
    // Figure 5a: a 3-layer RNN (embedding, recurrent, linear) with two
    // unroll steps; embedding on GPU0, recurrent on GPU1, linear on GPU2.
    let mut g = OpGraph::new("fig5-rnn");
    let x1 = g.add_input("x1", TensorShape::with_dtype(&[2, 1], DataType::I32));
    let x2 = g.add_input("x2", TensorShape::with_dtype(&[2, 1], DataType::I32));
    let h0 = g.add_input("h0", TensorShape::new(&[2, 4]));
    let o1 = g
        .add_op(OpKind::Embedding { vocab: 16, dim: 4 }, &[x1], "o1")
        .unwrap();
    let o2 = g
        .add_op(OpKind::Embedding { vocab: 16, dim: 4 }, &[x2], "o2")
        .unwrap();
    let o3 = g
        .add_op(OpKind::LstmCell { hidden: 4 }, &[o1, h0], "o3")
        .unwrap();
    let o4 = g
        .add_op(OpKind::LstmCell { hidden: 4 }, &[o2, o3], "o4")
        .unwrap();
    let _o5 = g
        .add_op(OpKind::Linear { out_features: 4 }, &[o3], "o5")
        .unwrap();
    let _o6 = g
        .add_op(OpKind::Linear { out_features: 4 }, &[o4], "o6")
        .unwrap();

    // Unit-time transfers: enormous bandwidth, 1us latency.
    let topo = clusters::uniform_cluster(1, 3, 1e9, 1e9);
    let place = |name: &str| -> usize {
        match name {
            "x1" | "x2" | "o1" | "o2" => 0,
            "h0" | "o3" | "o4" => 1,
            _ => 2,
        }
    };
    let configs = g
        .ids()
        .map(|id| ParallelConfig::on_device(g.op(id), topo.device_id(place(g.op(id).name()))))
        .collect();
    let mut strategy = Strategy::from_configs(&g, configs);
    let cfg = SimConfig {
        activation_comm_multiplier: 1.0,
        include_param_sync: false,
        ..SimConfig::default()
    };

    let mut tg = TaskGraph::build(&g, &topo, &strategy, &Fig5Cost, &cfg);
    println!("Figure 5b: task graph");
    let comm = tg
        .iter()
        .filter(|(_, t)| matches!(t.unit, ExecUnit::Link(_)))
        .count();
    let compute = tg.num_tasks() - comm;
    println!("  {compute} compute tasks, {comm} communication tasks");

    let mut state = simulate_full(&tg);
    let full_timeline = dump(&g, &tg, &state, "Figure 5c: full simulation timeline");

    // Figure 5d: move o3 to GPU0 (the paper reduces o3's parallelism; the
    // point is that only the timeline from o3's inputs on is re-simulated).
    strategy.replace(o3, ParallelConfig::on_device(g.op(o3), topo.device_id(0)));
    let report = tg.rebuild_op(&g, &topo, &strategy, &Fig5Cost, &cfg, o3);
    let delta_makespan = simulate_delta(&tg, &mut state, &report);
    let delta_timeline = dump(
        &g,
        &tg,
        &state,
        "Figure 5d: delta-simulated timeline after moving o3 to GPU0",
    );
    println!(
        "delta simulation: {} removed + {} added tasks; new makespan {delta_makespan:.1}",
        report.removed.len(),
        report.added.len()
    );

    // Cross-check: the resumed timeline equals a from-scratch simulation.
    let fresh = simulate_full(&TaskGraph::build(&g, &topo, &strategy, &Fig5Cost, &cfg));
    assert!((fresh.makespan_us() - delta_makespan).abs() < 1e-9);
    println!("delta == full: verified");

    flexflow_bench::write_json(
        "fig5_taskgraph",
        &serde_json::json!({
            "full": full_timeline,
            "delta": delta_timeline,
        }),
    );
}
