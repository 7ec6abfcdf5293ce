//! FlexFlow core: the SOAP search space, the execution simulator, and the
//! MCMC execution optimizer (the paper's primary contribution).
//!
//! The pipeline mirrors Fig. 2 of the paper:
//!
//! ```text
//!   OpGraph + Topology
//!         |
//!         v
//!   ExecutionOptimizer (MCMC over SOAP strategies)          §6
//!         |      ^
//!  candidate     | simulated cost
//!         v      |
//!   ExecutionSimulator (task graph; full / delta algorithm)  §5
//!         |
//!         v
//!   best discovered Strategy  ->  distributed runtime (flexflow-runtime)
//! ```
//!
//! # Quickstart
//!
//! ```
//! use flexflow_core::{Budget, SearchRequest, SimConfig, Strategy};
//! use flexflow_costmodel::MeasuredCostModel;
//! use flexflow_device::clusters;
//! use flexflow_opgraph::zoo;
//!
//! let graph = zoo::lenet(64);
//! let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
//! let cost = MeasuredCostModel::paper_default();
//!
//! let dp = Strategy::data_parallel(&graph, &topo);
//! let result = SearchRequest::new(0xF1EF).chains(1).run(
//!     &graph,
//!     &topo,
//!     &cost,
//!     &[dp],
//!     Budget::evaluations(200),
//!     SimConfig::default(),
//! );
//! assert!(result.best_cost_us > 0.0);
//! ```
//!
//! # Transactional proposal evaluation
//!
//! The one search driver, [`SearchRequest`], evaluates every
//! [`Proposal`] through [`Simulator::propose`] / `commit` / `rollback`,
//! whichever [`SimAlgorithm`] the simulator was built with. The contract:
//! `propose` makes the edit and opens one transaction; under delta
//! simulation each mutation of the task graph journals the *first-touch*
//! prior state of whatever it overwrites and the sweep, resumed where the
//! change begins, sets the displaced timeline aside whole; under full
//! simulation the displaced task graph is set aside whole too; `rollback`
//! replays or swaps back — restoring graph, timeline and strategy
//! **bit-for-bit** (pinned
//! by the `rollback_restores_*` tests). A rejected MCMC proposal therefore
//! never costs a second build or simulation.
//!
//! # Memory as a search constraint
//!
//! [`memory`] estimates each device's peak bytes (weights + optimizer
//! state + live activations) and [`memory::check_budget`] verdicts a
//! strategy against per-device budgets; the search penalizes infeasible
//! proposals and the per-op recompute bit ([`Strategy::recompute`])
//! trades forward FLOPs for activation memory.

#![deny(missing_docs)]
pub mod exhaustive;
pub mod memory;
pub mod metrics;
pub mod optimizer;
pub mod sim;
pub mod soap;
pub mod strategy;
pub mod strategy_io;
pub mod taskgraph;

pub use exhaustive::{ExhaustiveOutcome, ExhaustiveSearch};
pub use metrics::SimMetrics;
pub use optimizer::{
    default_chains, split_budget, AcceptanceRule, Budget, SearchRequest, SearchResult,
    SharedBestCost,
};
pub use sim::{SimAlgorithm, SimConfig, SimState, Simulator};
pub use soap::{ConfigSpace, ParallelConfig, ParamSync, SyncPlan};
pub use strategy::{Proposal, Strategy};
pub use taskgraph::{ExecUnit, Task, TaskGraph, TaskId, TaskKind};
