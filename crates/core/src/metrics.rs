//! Aggregate metrics over a simulated timeline, backing the Fig. 8
//! breakdowns (per-iteration execution time, overall data transfers,
//! overall task computation time), plus the telemetry the transactional
//! proposal-evaluation path reports.

use crate::sim::SimState;
use crate::taskgraph::{ExecUnit, TaskGraph, TaskKind};
use std::collections::HashMap;

/// Telemetry of the transactional proposal-evaluation hot path,
/// accumulated by [`crate::sim::Simulator`] across
/// `propose`/`commit`/`rollback` calls and surfaced by the search loop
/// (`flexflow search --verbose`). Every proposal is evaluated by one sweep,
/// resumed where the proposal's change begins; `dequeued` is how much of
/// the graph that was. A full-simulation chain opens transactions too:
/// every one of its proposals sweeps the whole graph and journals nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct DeltaTelemetry {
    /// Speculative proposals evaluated (`Simulator::propose`).
    pub applies: u64,
    /// Transactions kept (`Simulator::commit`, explicit or implicit).
    pub commits: u64,
    /// Transactions undone (`Simulator::rollback`).
    pub rollbacks: u64,
    /// Always 0: there is no repair route. The field remains for the
    /// benchmark, which reads it.
    pub repair_steps: u64,
    /// Always 0: there is no repair to abandon. The field remains for the
    /// benchmark, which reads it.
    pub fallbacks: u64,
    /// Proposals evaluated by a sweep — all that change the task graph, so
    /// `applies` less the structural no-ops.
    pub sweeps: u64,
    /// Tasks dequeued by proposal evaluations: per proposal, the tasks of
    /// the rebuilt graph from the cut on (every task for a whole sweep).
    /// Exact and repeatable; compare against task-graph size × `sweeps`.
    pub dequeued: u64,
    /// Cumulative task-graph journal entries recorded by all transactions
    /// (the timeline journals nothing: a sweep sets the displaced timeline
    /// aside by a buffer swap).
    pub journal_slots: u64,
    /// Largest single-transaction task-graph journal.
    pub max_journal_depth: usize,
}

impl DeltaTelemetry {
    /// Accumulates another telemetry record into this one (counters add,
    /// the depth high-water mark takes the max).
    pub fn merge(&mut self, other: &DeltaTelemetry) {
        self.applies += other.applies;
        self.commits += other.commits;
        self.rollbacks += other.rollbacks;
        self.sweeps += other.sweeps;
        self.dequeued += other.dequeued;
        self.journal_slots += other.journal_slots;
        self.max_journal_depth = self.max_journal_depth.max(other.max_journal_depth);
    }
}

/// Summary statistics of one simulated iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimMetrics {
    /// Predicted per-iteration execution time in microseconds (Fig. 8a).
    pub makespan_us: f64,
    /// Bytes moved by tensor (activation + gradient) transfers.
    pub activation_bytes: u64,
    /// Bytes moved by parameter synchronization.
    pub sync_bytes: u64,
    /// Sum of all compute tasks' execution times in microseconds (Fig. 8c,
    /// "overall task computation time").
    pub compute_us: f64,
    /// Sum of all communication tasks' execution times in microseconds.
    pub comm_us: f64,
    /// Number of compute tasks.
    pub num_compute_tasks: usize,
    /// Number of communication tasks (tensor + sync).
    pub num_comm_tasks: usize,
    /// Busy time per execution unit in microseconds.
    pub busy_us: HashMap<ExecUnit, f64>,
}

impl SimMetrics {
    /// Gathers metrics from a task graph and its simulated timeline.
    pub fn collect(tg: &TaskGraph, state: &SimState) -> Self {
        let mut m = SimMetrics {
            makespan_us: state.makespan_us(),
            activation_bytes: 0,
            sync_bytes: 0,
            compute_us: 0.0,
            comm_us: 0.0,
            num_compute_tasks: 0,
            num_comm_tasks: 0,
            busy_us: HashMap::new(),
        };
        for (_, t) in tg.iter() {
            *m.busy_us.entry(t.unit).or_insert(0.0) += t.exe_us;
            match t.kind {
                TaskKind::Compute { .. } => {
                    m.compute_us += t.exe_us;
                    m.num_compute_tasks += 1;
                }
                TaskKind::Comm { bytes } => {
                    m.activation_bytes += bytes;
                    m.comm_us += t.exe_us;
                    m.num_comm_tasks += 1;
                }
                TaskKind::SyncComm { bytes, .. } => {
                    m.sync_bytes += bytes;
                    m.comm_us += t.exe_us;
                    m.num_comm_tasks += 1;
                }
                TaskKind::Recompute { .. } => {
                    m.compute_us += t.exe_us;
                    m.num_compute_tasks += 1;
                }
            }
        }
        m
    }

    /// Total bytes transferred per iteration (Fig. 8b, "overall data
    /// transfers per iteration").
    pub fn total_comm_bytes(&self) -> u64 {
        self.activation_bytes + self.sync_bytes
    }

    /// Training throughput in samples per second for a given batch size.
    ///
    /// # Panics
    ///
    /// Panics if the makespan is not positive.
    pub fn throughput(&self, batch: u64) -> f64 {
        assert!(self.makespan_us > 0.0, "makespan must be positive");
        batch as f64 / (self.makespan_us / 1e6)
    }

    /// The fraction of the makespan the busiest device spends computing —
    /// a load-balance indicator used by the case studies.
    pub fn peak_utilization(&self) -> f64 {
        let peak = self
            .busy_us
            .iter()
            .filter(|(u, _)| matches!(u, ExecUnit::Gpu(_)))
            .map(|(_, &b)| b)
            .fold(0.0, f64::max);
        if self.makespan_us > 0.0 {
            peak / self.makespan_us
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{simulate_full, SimConfig};
    use crate::strategy::Strategy;
    use crate::taskgraph::TaskGraph;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;

    fn metrics_for(strategy_kind: &str) -> SimMetrics {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = match strategy_kind {
            "dp" => Strategy::data_parallel(&g, &topo),
            _ => Strategy::single_device(&g, &topo, 0),
        };
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let state = simulate_full(&tg);
        SimMetrics::collect(&tg, &state)
    }

    #[test]
    fn data_parallel_pays_sync_not_activation() {
        let m = metrics_for("dp");
        assert_eq!(m.activation_bytes, 0);
        assert!(m.sync_bytes > 0);
        assert!(m.makespan_us > 0.0);
        assert!(m.num_comm_tasks > 0);
    }

    #[test]
    fn single_device_has_zero_comm() {
        let m = metrics_for("single");
        assert_eq!(m.total_comm_bytes(), 0);
        assert_eq!(m.num_comm_tasks, 0);
        assert!(m.compute_us > 0.0);
        // On one device, the makespan is exactly the serial compute time.
        assert!((m.makespan_us - m.compute_us).abs() < 1e-6);
        assert!((m.peak_utilization() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_is_batch_over_time() {
        let m = metrics_for("dp");
        let t = m.throughput(64);
        assert!((t - 64.0 / (m.makespan_us / 1e6)).abs() < 1e-9);
    }

    #[test]
    fn busy_time_never_exceeds_makespan() {
        let m = metrics_for("dp");
        for (&unit, &busy) in &m.busy_us {
            assert!(
                busy <= m.makespan_us + 1e-6,
                "{unit} busy {busy} > makespan {}",
                m.makespan_us
            );
        }
    }
}
