//! Parallelization strategies: one configuration per operation (paper §4).

use crate::soap::{self, ConfigSpace, ParallelConfig, ParamSync};
use flexflow_device::Topology;
use flexflow_opgraph::{OpGraph, OpId, OpKind};
use rand::Rng;
use std::fmt;

/// A parallelization strategy `S`: a [`ParallelConfig`] for every operation
/// of an [`OpGraph`], chosen independently per op, plus one strategy-wide
/// **microbatch count** `m`.
///
/// With `m > 1` the training batch is split into `m` equal sample slabs
/// that flow through the operator graph as a pipeline: each op runs once
/// per microbatch, different ops may process different microbatches
/// concurrently (inter-op pipeline parallelism, the third axis next to the
/// intra-op S/A/P splits), and parameter gradients are accumulated across
/// all microbatches before the per-iteration synchronization. `m = 1` is
/// the classic whole-batch execution and the default everywhere.
///
/// Each op additionally carries a [`ParamSync`] mode — how its layer's
/// replicated parameter shards synchronize ([`ParamSync::AllReduce`] is
/// the pre-axis default; see [`crate::soap::sync_plan`]). Weight-tied
/// layers resolve their mode from the lowest-id member op.
///
/// Finally, each op carries a **recompute** bit: when set, the op's stored
/// forward activations are dropped after the forward pass and re-computed
/// just before its backward pass needs them, trading extra forward FLOPs
/// for peak activation memory (the classic gradient-checkpointing
/// trade-off). `false` everywhere is the pre-axis default.
#[derive(Debug, Clone, PartialEq)]
pub struct Strategy {
    configs: Vec<ParallelConfig>,
    microbatches: u64,
    param_sync: Vec<ParamSync>,
    recompute: Vec<bool>,
}

/// One edit of a [`Strategy`]: the unit the search proposes (paper §6.2)
/// and the simulator evaluates. [`Strategy::apply`] returns the edit that
/// undoes it, so a pending transaction is just the inverse proposal.
#[derive(Debug, Clone, PartialEq)]
pub enum Proposal {
    /// Replace one op's configuration.
    Config(OpId, ParallelConfig),
    /// Change the strategy-wide microbatch count.
    Microbatches(u64),
    /// Change one op's (i.e. its layer's) parameter-sync mode.
    ParamSync(OpId, ParamSync),
    /// Set one op's recompute bit.
    Recompute(OpId, bool),
}

impl Strategy {
    /// Builds a strategy from per-op configurations in op-id order.
    ///
    /// # Panics
    ///
    /// Panics if the number of configurations differs from the number of
    /// operations.
    pub fn from_configs(graph: &OpGraph, configs: Vec<ParallelConfig>) -> Self {
        assert_eq!(
            configs.len(),
            graph.len(),
            "need one config per op ({} ops, {} configs)",
            graph.len(),
            configs.len()
        );
        Self::fresh(configs)
    }

    fn fresh(configs: Vec<ParallelConfig>) -> Self {
        let n = configs.len();
        Self {
            configs,
            microbatches: 1,
            param_sync: vec![ParamSync::AllReduce; n],
            recompute: vec![false; n],
        }
    }

    /// The strategy's microbatch count `m` (1 = no pipelining).
    pub fn microbatches(&self) -> u64 {
        self.microbatches
    }

    /// Sets the microbatch count, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `m` is zero.
    pub fn set_microbatches(&mut self, m: u64) -> u64 {
        assert!(m >= 1, "microbatch count must be at least 1");
        std::mem::replace(&mut self.microbatches, m)
    }

    /// Builder-style [`Strategy::set_microbatches`].
    #[must_use]
    pub fn with_microbatches(mut self, m: u64) -> Self {
        self.set_microbatches(m);
        self
    }

    /// The parameter-sync mode of operation `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn param_sync(&self, id: OpId) -> ParamSync {
        self.param_sync[id.index()]
    }

    /// All per-op parameter-sync modes in op-id order.
    pub fn param_syncs(&self) -> &[ParamSync] {
        &self.param_sync
    }

    /// Sets the parameter-sync mode of `id`, returning the previous mode.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_param_sync(&mut self, id: OpId, mode: ParamSync) -> ParamSync {
        std::mem::replace(&mut self.param_sync[id.index()], mode)
    }

    /// Builder-style [`Strategy::set_param_sync`] applied to every op.
    #[must_use]
    pub fn with_param_sync_everywhere(mut self, mode: ParamSync) -> Self {
        for m in &mut self.param_sync {
            *m = mode;
        }
        self
    }

    /// Whether any op carries a non-default (non-[`ParamSync::AllReduce`])
    /// sync mode.
    pub fn has_custom_param_sync(&self) -> bool {
        self.param_sync.iter().any(|m| *m != ParamSync::AllReduce)
    }

    /// Whether operation `id` recomputes its forward activations before the
    /// backward pass instead of storing them.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn recompute(&self, id: OpId) -> bool {
        self.recompute[id.index()]
    }

    /// All per-op recompute bits in op-id order.
    pub fn recomputes(&self) -> &[bool] {
        &self.recompute
    }

    /// Sets the recompute bit of `id`, returning the previous value.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn set_recompute(&mut self, id: OpId, on: bool) -> bool {
        std::mem::replace(&mut self.recompute[id.index()], on)
    }

    /// Builder-style [`Strategy::set_recompute`] applied to every op.
    #[must_use]
    pub fn with_recompute_everywhere(mut self, on: bool) -> Self {
        for r in &mut self.recompute {
            *r = on;
        }
        self
    }

    /// Whether any op carries the recompute bit.
    pub fn has_recompute(&self) -> bool {
        self.recompute.iter().any(|&r| r)
    }

    /// The configuration of operation `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn config(&self, id: OpId) -> &ParallelConfig {
        &self.configs[id.index()]
    }

    /// All configurations in op-id order.
    pub fn configs(&self) -> &[ParallelConfig] {
        &self.configs
    }

    /// Replaces the configuration of `id`, returning the old one.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace(&mut self, id: OpId, config: ParallelConfig) -> ParallelConfig {
        std::mem::replace(&mut self.configs[id.index()], config)
    }

    /// Makes the edit `p` describes and returns its inverse: applying the
    /// returned proposal restores the strategy exactly.
    ///
    /// # Panics
    ///
    /// Panics if the proposal names an op out of range or zero
    /// microbatches.
    pub fn apply(&mut self, p: Proposal) -> Proposal {
        match p {
            Proposal::Config(op, config) => Proposal::Config(op, self.replace(op, config)),
            Proposal::Microbatches(m) => Proposal::Microbatches(self.set_microbatches(m)),
            Proposal::ParamSync(op, mode) => Proposal::ParamSync(op, self.set_param_sync(op, mode)),
            Proposal::Recompute(op, on) => Proposal::Recompute(op, self.set_recompute(op, on)),
        }
    }

    /// Classic data parallelism: every op splits its sample dimension over
    /// all devices (paper §2).
    pub fn data_parallel(graph: &OpGraph, topo: &Topology) -> Self {
        let configs = graph
            .ids()
            .map(|id| ParallelConfig::data_parallel(graph.op(id), topo))
            .collect();
        Self::fresh(configs)
    }

    /// Whole-model single-device execution.
    pub fn single_device(graph: &OpGraph, topo: &Topology, device: usize) -> Self {
        let dev = topo.device_id(device);
        let configs = graph
            .ids()
            .map(|id| ParallelConfig::on_device(graph.op(id), dev))
            .collect();
        Self::fresh(configs)
    }

    /// A uniformly random strategy (used as an initial search candidate,
    /// §6.2). Input ops stay data-parallel: they model the data loader and
    /// are not searchable.
    pub fn random<R: Rng>(
        graph: &OpGraph,
        topo: &Topology,
        space: ConfigSpace,
        rng: &mut R,
    ) -> Self {
        Self::random_with_max_degree(graph, topo, space, topo.num_devices() as u64, rng)
    }

    /// A random strategy whose per-op degree products are capped.
    ///
    /// On large clusters an unrestricted random strategy pairs high-degree
    /// producers and consumers on every tensor edge, which makes the
    /// resulting task graph quadratically large; capping the initial
    /// candidate keeps search start-up cheap without restricting the space
    /// the per-op proposals explore.
    pub fn random_with_max_degree<R: Rng>(
        graph: &OpGraph,
        topo: &Topology,
        space: ConfigSpace,
        max_tasks: u64,
        rng: &mut R,
    ) -> Self {
        let configs = graph
            .ids()
            .map(|id| {
                let node = graph.op(id);
                if matches!(node.kind(), OpKind::Input { .. }) {
                    ParallelConfig::data_parallel(node, topo)
                } else {
                    soap::random_config_capped(node, topo, space, max_tasks, rng)
                }
            })
            .collect();
        Self::fresh(configs)
    }

    /// Ids of operations the optimizer may reassign (everything except
    /// `Input` data loaders).
    pub fn searchable_ops(graph: &OpGraph) -> Vec<OpId> {
        graph
            .ids()
            .filter(|&id| !matches!(graph.op(id).kind(), OpKind::Input { .. }))
            .collect()
    }

    /// A compact human-readable rendering: per op, the degree vector and
    /// devices (used by the Fig. 13/14 case-study printers).
    pub fn describe(&self, graph: &OpGraph) -> String {
        let mut s = String::new();
        if self.microbatches > 1 {
            s.push_str(&format!(
                "{:<24} {} microbatches\n",
                "pipeline", self.microbatches
            ));
        }
        for id in graph.ids() {
            let node = graph.op(id);
            let sync = self.param_sync(id);
            let rc = if self.recompute(id) { " recompute" } else { "" };
            if sync == ParamSync::AllReduce {
                s.push_str(&format!("{:<24} {}{rc}\n", node.name(), self.config(id)));
            } else {
                s.push_str(&format!(
                    "{:<24} {} sync={sync}{rc}\n",
                    node.name(),
                    self.config(id)
                ));
            }
        }
        s
    }
}

impl fmt::Display for Strategy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.microbatches > 1 {
            write!(
                f,
                "Strategy({} ops, {} microbatches)",
                self.configs.len(),
                self.microbatches
            )
        } else {
            write!(f, "Strategy({} ops)", self.configs.len())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;
    use proptest::{prop_assert_eq, proptest};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    proptest! {
        #[test]
        fn apply_of_the_returned_proposal_is_the_identity(seed in 0u64..1000) {
            let g = zoo::rnnlm(8, 2);
            let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
            let mut rng = StdRng::seed_from_u64(seed);
            let mut s = Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng);
            let ops = Strategy::searchable_ops(&g);
            for kind in 0..4 {
                let op = ops[rng.gen_range(0..ops.len())];
                let p = match kind {
                    0 => Proposal::Config(
                        op,
                        soap::random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng),
                    ),
                    1 => Proposal::Microbatches(rng.gen_range(1..9)),
                    2 => Proposal::ParamSync(
                        op,
                        ParamSync::ShardedZero1 { shards: rng.gen_range(2..5) },
                    ),
                    _ => Proposal::Recompute(op, rng.gen()),
                };
                let before = s.clone();
                let undo = s.apply(p.clone());
                let redo = s.apply(undo);
                prop_assert_eq!(&s, &before, "kind {}", kind);
                prop_assert_eq!(redo, p, "the inverse of the inverse is the proposal");
            }
        }
    }

    #[test]
    fn data_parallel_covers_every_op() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let s = Strategy::data_parallel(&g, &topo);
        assert_eq!(s.configs().len(), g.len());
        for id in g.ids() {
            assert_eq!(s.config(id).degrees()[0], 4);
        }
    }

    #[test]
    fn single_device_strategy_uses_one_gpu() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let s = Strategy::single_device(&g, &topo, 2);
        for id in g.ids() {
            assert_eq!(s.config(id).num_tasks(), 1);
            assert_eq!(s.config(id).device(0), topo.device_id(2));
        }
    }

    #[test]
    fn random_strategies_differ_but_stay_legal() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let mut rng = StdRng::seed_from_u64(3);
        let a = Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng);
        let b = Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng);
        assert_ne!(a, b, "two random strategies should differ");
    }

    #[test]
    fn searchable_ops_exclude_inputs() {
        let g = zoo::rnnlm(8, 2);
        let searchable = Strategy::searchable_ops(&g);
        assert!(searchable.len() < g.len());
        for id in searchable {
            assert!(!matches!(g.op(id).kind(), OpKind::Input { .. }));
        }
    }

    #[test]
    fn replace_swaps_config() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let mut s = Strategy::data_parallel(&g, &topo);
        let id = Strategy::searchable_ops(&g)[0];
        let new = ParallelConfig::on_device(g.op(id), topo.device_id(0));
        let old = s.replace(id, new.clone());
        assert_eq!(s.config(id), &new);
        assert_ne!(old, new);
    }

    #[test]
    fn describe_lists_all_ops() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let s = Strategy::data_parallel(&g, &topo);
        let d = s.describe(&g);
        assert_eq!(d.lines().count(), g.len());
        assert!(d.contains("conv1"));
    }
}
