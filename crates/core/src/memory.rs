//! Device-memory feasibility checking and search-time budgets.
//!
//! The FlexFlow runtime can only execute a strategy if every device can
//! hold its share of the model: parameters of the tasks placed on it,
//! their activations (output tiles), and the input slices they gather.
//! This module estimates that footprint and rejects infeasible strategies
//! — the check real systems apply before launching (and one reason pure
//! data parallelism stops scaling for very large models: every device
//! holds a full replica).
//!
//! Since PR 9 memory is also a *search* constraint: a [`MemBudget`] caps
//! every device's **peak** bytes — weights + gradients + optimizer state
//! (placed by each layer's [`ParamSync`] mode, so ZeRO-1 sharding lowers
//! it) + live activations — and [`check_budget`] reports the first
//! overflowing device. Strategies can trade compute for memory with the
//! per-op recompute bit ([`Strategy::recompute`]): a recomputing op stores
//! no activations across the backward pass, only its largest transient
//! microbatch slab, which is what the accounting below charges.

use crate::soap::{self, ParamSync};
use crate::strategy::Strategy;
use flexflow_costmodel::sync_cost;
use flexflow_device::{DeviceId, Topology};
use flexflow_opgraph::{OpGraph, OpKind};
use std::fmt;

/// Estimated per-device memory footprint of a strategy, in bytes.
///
/// ```
/// use flexflow_core::{memory, Strategy};
/// use flexflow_device::clusters;
/// use flexflow_opgraph::zoo;
///
/// let graph = zoo::lenet(64);
/// let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
/// let dp = Strategy::data_parallel(&graph, &topo);
/// let fp = memory::footprint(&graph, &topo, &dp);
/// // Data parallelism replicates the weights: every device carries them.
/// assert!(fp.params.iter().all(|&b| b > 0));
/// let (dev, bytes) = fp.peak();
/// assert_eq!(fp.total(topo.device_id(dev)), bytes);
/// // Recomputation drops stored activations, so peak memory never rises.
/// let rc = dp.with_recompute_everywhere(true);
/// assert!(memory::footprint(&graph, &topo, &rc).peak().1 <= bytes);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MemoryFootprint {
    /// Parameter bytes per device (weights + a same-size gradient buffer).
    pub params: Vec<u64>,
    /// Activation bytes per device (forward outputs kept for backward).
    pub activations: Vec<u64>,
    /// Input-slice bytes per device (gathered remote tiles).
    pub gathers: Vec<u64>,
    /// Optimizer-state bytes per device (Adam moments), placed by each
    /// layer's [`ParamSync`] mode: replicated with the weights under
    /// all-reduce, partitioned across shard owners under ZeRO-1, held by
    /// the server under parameter-server sync. Reported separately from
    /// [`MemoryFootprint::total`], which covers the per-iteration working
    /// set the runtime sizes devices for.
    pub opt_state: Vec<u64>,
}

impl MemoryFootprint {
    /// Total working-set bytes on a device (excludes optimizer state; see
    /// [`MemoryFootprint::opt_state`]).
    pub fn total(&self, dev: DeviceId) -> u64 {
        self.params[dev.index()] + self.activations[dev.index()] + self.gathers[dev.index()]
    }

    /// The most loaded device and its footprint.
    pub fn peak(&self) -> (usize, u64) {
        (0..self.params.len())
            .map(|i| (i, self.params[i] + self.activations[i] + self.gathers[i]))
            .max_by_key(|&(_, b)| b)
            .unwrap_or((0, 0))
    }

    /// The device holding the most optimizer state and its bytes.
    pub fn peak_opt_state(&self) -> (usize, u64) {
        self.opt_state
            .iter()
            .copied()
            .enumerate()
            .max_by_key(|&(_, b)| b)
            .unwrap_or((0, 0))
    }

    /// True peak bytes on a device: the working set *plus* the optimizer
    /// state resident there — what a memory budget must cover.
    pub fn total_with_state(&self, dev: DeviceId) -> u64 {
        self.total(dev) + self.opt_state[dev.index()]
    }

    /// The most loaded device by [`MemoryFootprint::total_with_state`] and
    /// its peak bytes.
    pub fn peak_with_state(&self) -> (usize, u64) {
        (0..self.params.len())
            .map(|i| {
                (
                    i,
                    self.params[i] + self.activations[i] + self.gathers[i] + self.opt_state[i],
                )
            })
            .max_by_key(|&(_, b)| b)
            .unwrap_or((0, 0))
    }
}

/// Estimates the per-device footprint of `strategy`.
pub fn footprint(graph: &OpGraph, topo: &Topology, strategy: &Strategy) -> MemoryFootprint {
    let n = topo.num_devices();
    let mut fp = MemoryFootprint {
        params: vec![0; n],
        activations: vec![0; n],
        gathers: vec![0; n],
        opt_state: vec![0; n],
    };
    let elem = 4u64;
    let m = strategy.microbatches().max(1);
    // Largest transient recompute slab per device: recompute re-runs of
    // distinct entries on one device execute serially, so only the biggest
    // re-materialized slab is live at any moment.
    let mut rc_transient = vec![0u64; n];
    for id in graph.ids() {
        let node = graph.op(id);
        let config = strategy.config(id);
        // The recompute bit is inert on Input ops (the data loader stores
        // no activations), matching the task-graph lowering.
        let recompute = strategy.recompute(id) && !matches!(node.kind(), OpKind::Input { .. });
        for k in 0..config.num_tasks() {
            let dev = config.device(k).index();
            let tile = config.tile(node, k);
            // weights + gradients
            fp.params[dev] += 2 * node.params_for_tile(&tile) * elem;
            if recompute {
                // Activations are dropped after the forward pass; the
                // backward pass re-materializes one microbatch slab at a
                // time, so only that slab is transiently live.
                let slab = (tile.volume() * elem).div_ceil(m);
                rc_transient[dev] = rc_transient[dev].max(slab);
            } else {
                // forward activation kept for the backward pass
                fp.activations[dev] += tile.volume() * elem;
            }
            // gathered input slices
            for rect in node.input_rects(&tile).into_iter().flatten() {
                fp.gathers[dev] += rect.volume() * elem;
            }
        }
    }
    for (dev, &slab) in rc_transient.iter().enumerate() {
        fp.activations[dev] += slab;
    }
    // Optimizer state, placed by each layer's sync mode (resolved from
    // the lowest-id member op, matching the task-graph builder).
    for layer in graph.layer_ids() {
        let mode = graph
            .ids()
            .find(|&id| graph.op(id).layer() == Some(layer))
            .map(|id| strategy.param_sync(id))
            .unwrap_or_default();
        for (shard_idx, (params, devices)) in soap::layer_shards(graph, strategy, layer)
            .into_iter()
            .enumerate()
        {
            let bytes = sync_cost::OPT_STATE_BYTES_PER_PARAM * params;
            let r = devices.len();
            if r <= 1 {
                // Unreplicated shards need no sync; the state lives with
                // the single weight holder under every mode.
                if let Some(d) = devices.first() {
                    fp.opt_state[d.index()] += bytes;
                }
                continue;
            }
            match mode {
                ParamSync::AllReduce => {
                    for d in &devices {
                        fp.opt_state[d.index()] += bytes;
                    }
                }
                ParamSync::ShardedZero1 { shards } => {
                    let k = shards.clamp(1, r as u64);
                    for sub in 0..k {
                        let owner = devices[(shard_idx + sub as usize) % r];
                        fp.opt_state[owner.index()] += sync_cost::OPT_STATE_BYTES_PER_PARAM
                            * sync_cost::zero1_subshard_params(params, k, sub);
                    }
                }
                ParamSync::ParamServer { server_device } => {
                    fp.opt_state[server_device % n] += bytes;
                }
            }
        }
    }
    // Weighted ops outside any layer keep their state with the weights.
    for id in graph.ids() {
        let node = graph.op(id);
        if node.layer().is_some() {
            continue;
        }
        let config = strategy.config(id);
        for k in 0..config.num_tasks() {
            let p = node.params_for_tile(&config.tile(node, k));
            if p > 0 {
                fp.opt_state[config.device(k).index()] += sync_cost::OPT_STATE_BYTES_PER_PARAM * p;
            }
        }
    }
    fp
}

/// Per-device memory budgets in bytes — the capacities a strategy's peak
/// footprint ([`MemoryFootprint::total_with_state`]) must fit under.
#[derive(Debug, Clone, PartialEq)]
pub struct MemBudget {
    caps: Vec<u64>,
}

impl MemBudget {
    /// A uniform budget of `mb` MiB on every device — the `--mem-budget
    /// <MB>` CLI override.
    pub fn uniform_mb(topo: &Topology, mb: u64) -> Self {
        Self::uniform_bytes(topo, mb * (1 << 20))
    }

    /// A uniform budget of exactly `bytes` on every device (byte-granular
    /// caps for tests and tooling; the CLI speaks MiB).
    pub fn uniform_bytes(topo: &Topology, bytes: u64) -> Self {
        Self {
            caps: vec![bytes; topo.num_devices()],
        }
    }

    /// Each device's hardware default: its [`flexflow_device::DeviceKind`]
    /// capacity ([`flexflow_device::DeviceKind::default_memory_gb`]).
    pub fn device_defaults(topo: &Topology) -> Self {
        Self {
            caps: topo
                .device_ids()
                .map(|d| {
                    let dev = topo.device(d);
                    (dev.kind.default_memory_gb() * (1u64 << 30) as f64) as u64
                })
                .collect(),
        }
    }

    /// The budget of one device in bytes.
    ///
    /// # Panics
    ///
    /// Panics if the device is out of range for the topology the budget
    /// was built against.
    pub fn cap(&self, dev: DeviceId) -> u64 {
        self.caps[dev.index()]
    }
}

/// A device whose peak footprint exceeds its budget — the OOM-infeasible
/// verdict of [`check_budget`].
#[derive(Debug, Clone, PartialEq)]
pub struct OomViolation {
    /// The overflowing device.
    pub device: DeviceId,
    /// Peak bytes the strategy needs there (working set + optimizer
    /// state).
    pub needed: u64,
    /// The device's budget in bytes.
    pub capacity: u64,
}

impl OomViolation {
    /// Bytes over budget.
    pub fn overflow(&self) -> u64 {
        self.needed - self.capacity
    }
}

impl fmt::Display for OomViolation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: needs {:.1} MB, budget {:.1} MB",
            self.device,
            self.needed as f64 / (1 << 20) as f64,
            self.capacity as f64 / (1 << 20) as f64
        )
    }
}

/// Checks a strategy's **peak** per-device footprint (working set plus
/// optimizer state) against a [`MemBudget`], returning the worst
/// overflowing device.
///
/// # Errors
///
/// Returns the device with the largest overflow when any device exceeds
/// its budget.
pub fn check_budget(
    graph: &OpGraph,
    topo: &Topology,
    strategy: &Strategy,
    budget: &MemBudget,
) -> Result<(), OomViolation> {
    let fp = footprint(graph, topo, strategy);
    budget_violation(&fp, topo, budget).map_or(Ok(()), Err)
}

/// The worst budget overflow of an already-computed footprint, if any —
/// the allocation-free core of [`check_budget`] for callers that reuse the
/// footprint (the search accept step).
pub fn budget_violation(
    fp: &MemoryFootprint,
    topo: &Topology,
    budget: &MemBudget,
) -> Option<OomViolation> {
    let mut worst: Option<OomViolation> = None;
    for dev in topo.device_ids() {
        let needed = fp.total_with_state(dev);
        let capacity = budget.cap(dev);
        if needed > capacity
            && worst
                .as_ref()
                .is_none_or(|w| needed - capacity > w.overflow())
        {
            worst = Some(OomViolation {
                device: dev,
                needed,
                capacity,
            });
        }
    }
    worst
}

/// Checks that every device's footprint fits its memory.
///
/// Returns `Ok(())` or the first offending device with its footprint and
/// capacity in bytes.
///
/// # Errors
///
/// Returns `Err((device, needed_bytes, capacity_bytes))` when a device
/// overflows.
pub fn check_fits(
    graph: &OpGraph,
    topo: &Topology,
    strategy: &Strategy,
) -> Result<(), (DeviceId, u64, u64)> {
    let fp = footprint(graph, topo, strategy);
    for dev in topo.device_ids() {
        let capacity = (topo.device(dev).memory_gb * 1e9) as u64;
        let needed = fp.total(dev);
        if needed > capacity {
            return Err((dev, needed, capacity));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow_device::{clusters, DeviceKind, TopologyBuilder};
    use flexflow_opgraph::zoo;

    #[test]
    fn data_parallel_replicates_parameters() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let dp = Strategy::data_parallel(&g, &topo);
        let fp = footprint(&g, &topo, &dp);
        // every device holds the full parameter set (x2 for gradients)
        let full = 2 * g.total_params() * 4;
        for d in 0..4 {
            assert_eq!(fp.params[d], full);
        }
        // activations split across devices
        assert!(fp.activations.iter().all(|&a| a > 0));
    }

    #[test]
    fn parameter_splits_shrink_per_device_params() {
        let g = zoo::alexnet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let dp = Strategy::data_parallel(&g, &topo);
        let expert = flexflow_costmodel::MeasuredCostModel::paper_default();
        let _ = &expert;
        let fp_dp = footprint(&g, &topo, &dp);
        // single-device: all params on one GPU, none elsewhere
        let single = Strategy::single_device(&g, &topo, 0);
        let fp_single = footprint(&g, &topo, &single);
        assert!(fp_single.params[0] > fp_dp.params[0] / 2);
        assert_eq!(fp_single.params[1], 0);
        assert_eq!(fp_single.total(topo.device_id(1)), 0);
    }

    #[test]
    fn small_memory_device_rejects_big_model() {
        let mut b = TopologyBuilder::new("tiny-mem");
        let g0 = b.add_device(DeviceKind::Test, 0, 0.0001); // 100 KB
        let g1 = b.add_device(DeviceKind::Test, 0, 0.0001);
        let l = b.add_link("wire-0", 10.0, 1.0);
        b.connect_symmetric(g0, g1, l);
        let topo = b.build();
        let g = zoo::lenet(64);
        let dp = Strategy::data_parallel(&g, &topo);
        let err = check_fits(&g, &topo, &dp).unwrap_err();
        assert!(err.1 > err.2, "needed must exceed capacity");
    }

    #[test]
    fn paper_clusters_fit_the_benchmarks() {
        let topo = clusters::p100_cluster(1);
        for name in ["lenet", "alexnet", "inception_v3"] {
            let g = zoo::by_name(name, 64);
            let dp = Strategy::data_parallel(&g, &topo);
            assert!(
                check_fits(&g, &topo, &dp).is_ok(),
                "{name} should fit a P100"
            );
        }
    }

    #[test]
    fn allreduce_replicates_optimizer_state() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let dp = Strategy::data_parallel(&g, &topo);
        let fp = footprint(&g, &topo, &dp);
        // Data parallelism + all-reduce: every device carries the full
        // Adam state (8 bytes per parameter), like the weights.
        let full = sync_cost::OPT_STATE_BYTES_PER_PARAM * g.total_params();
        for d in 0..4 {
            assert_eq!(fp.opt_state[d], full);
        }
        // Optimizer state stays out of the working-set total.
        assert_eq!(
            fp.total(topo.device_id(0)),
            fp.params[0] + fp.activations[0] + fp.gathers[0]
        );
    }

    #[test]
    fn zero1_shards_optimizer_state_across_replicas() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let dp = Strategy::data_parallel(&g, &topo);
        let zero1 = dp
            .clone()
            .with_param_sync_everywhere(ParamSync::ShardedZero1 { shards: 4 });
        let fp_ar = footprint(&g, &topo, &dp);
        let fp_z = footprint(&g, &topo, &zero1);
        // The state total is conserved (one copy across the cluster)...
        assert_eq!(
            fp_z.opt_state.iter().sum::<u64>(),
            sync_cost::OPT_STATE_BYTES_PER_PARAM * g.total_params()
        );
        // ...so the per-device peak drops well below full replication.
        assert!(
            fp_ar.peak_opt_state().1 >= 2 * fp_z.peak_opt_state().1,
            "allreduce {} vs zero1 {}",
            fp_ar.peak_opt_state().1,
            fp_z.peak_opt_state().1
        );
        // Working-set footprints are untouched by the sync mode.
        assert_eq!(fp_ar.params, fp_z.params);
        assert_eq!(fp_ar.activations, fp_z.activations);
    }

    #[test]
    fn recompute_and_zero1_flip_gpt_medium_on_sixteen_p100s_from_oom_to_fit() {
        // Data-parallel gpt_medium stores every layer's activations for the
        // whole batch and replicates the Adam state: ~17.7 GB per device,
        // past the P100's 16 GB. The same placement with both memory levers
        // at their maximum (~9.7 GB) fits.
        let g = zoo::gpt_medium(64);
        let topo = clusters::paper_cluster(DeviceKind::P100, 16);
        let budget = MemBudget::device_defaults(&topo);
        let dp = Strategy::data_parallel(&g, &topo);
        let fp_dp = footprint(&g, &topo, &dp);
        assert!(
            budget_violation(&fp_dp, &topo, &budget).is_some(),
            "data parallelism fits at {} bytes",
            fp_dp.peak_with_state().1
        );
        let levers = dp
            .with_recompute_everywhere(true)
            .with_param_sync_everywhere(ParamSync::ShardedZero1 { shards: 16 });
        let fp = footprint(&g, &topo, &levers);
        assert_eq!(
            budget_violation(&fp, &topo, &budget).map(|v| v.to_string()),
            None
        );
    }

    #[test]
    fn param_server_concentrates_optimizer_state() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let ps = Strategy::data_parallel(&g, &topo)
            .with_param_sync_everywhere(ParamSync::ParamServer { server_device: 2 });
        let fp = footprint(&g, &topo, &ps);
        assert_eq!(
            fp.opt_state[2],
            sync_cost::OPT_STATE_BYTES_PER_PARAM * g.total_params()
        );
        assert_eq!(fp.opt_state[0], 0);
        assert_eq!(fp.opt_state[1], 0);
        assert_eq!(fp.opt_state[3], 0);
    }

    #[test]
    fn recompute_drops_stored_activations_and_never_raises_peak() {
        let g = zoo::alexnet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let dp = Strategy::data_parallel(&g, &topo);
        let rc = dp.clone().with_recompute_everywhere(true);
        let fp = footprint(&g, &topo, &dp);
        let fp_rc = footprint(&g, &topo, &rc);
        for d in 0..4 {
            assert!(
                fp_rc.activations[d] < fp.activations[d],
                "device {d}: {} !< {}",
                fp_rc.activations[d],
                fp.activations[d]
            );
        }
        assert!(fp_rc.peak_with_state().1 <= fp.peak_with_state().1);
        // Weights, gathers and optimizer state are untouched by the bit.
        assert_eq!(fp.params, fp_rc.params);
        assert_eq!(fp.gathers, fp_rc.gathers);
        assert_eq!(fp.opt_state, fp_rc.opt_state);
    }

    #[test]
    fn budget_check_reports_worst_overflowing_device() {
        let g = zoo::alexnet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let dp = Strategy::data_parallel(&g, &topo);
        // A 1 MiB budget cannot hold AlexNet under data parallelism.
        let tiny = MemBudget::uniform_mb(&topo, 1);
        let err = check_budget(&g, &topo, &dp, &tiny).unwrap_err();
        assert!(err.needed > err.capacity);
        assert!(err.overflow() > 0);
        assert!(err.to_string().contains("MB"));
        // The hardware defaults (16 GiB Test devices) hold it comfortably.
        let defaults = MemBudget::device_defaults(&topo);
        assert_eq!(defaults.cap(topo.device_id(0)), 16 << 30);
        assert!(check_budget(&g, &topo, &dp, &defaults).is_ok());
    }

    #[test]
    fn microbatches_shrink_the_recompute_slab() {
        let g = zoo::alexnet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let rc = Strategy::data_parallel(&g, &topo).with_recompute_everywhere(true);
        let rc4 = rc.clone().with_microbatches(4);
        let fp1 = footprint(&g, &topo, &rc);
        let fp4 = footprint(&g, &topo, &rc4);
        for d in 0..4 {
            assert!(fp4.activations[d] <= fp1.activations[d]);
        }
    }

    #[test]
    fn peak_finds_most_loaded_device() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let single = Strategy::single_device(&g, &topo, 2);
        let fp = footprint(&g, &topo, &single);
        let (dev, bytes) = fp.peak();
        assert_eq!(dev, 2);
        assert!(bytes > 0);
    }
}
