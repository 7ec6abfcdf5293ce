//! Task graph construction (paper §5.1).
//!
//! Given an operator graph, a device topology and a parallelization
//! strategy, the task graph contains:
//!
//! - one **compute task** per tile of every operation (`t_{i:1} ..
//!   t_{i:|c_i|}`), placed on the device its configuration assigns;
//! - one **communication task** per producer/consumer task pair that share
//!   tensor data across devices, placed on the *communication device* (the
//!   bottleneck link of the route); same-device sharing becomes a plain
//!   dependency edge;
//! - **parameter-synchronization tasks**: for every parameter shard
//!   replicated on several devices, gradient pushes to a root replica and
//!   broadcasts back (a sharded parameter-server reduction — shards hash
//!   to different roots — matching the deep-learning systems of the
//!   paper's era). These are what make data parallelism expensive for
//!   large-parameter layers.
//!
//! Edges are pure ordering constraints; all data movement appears as
//! communication tasks, so compute and communication overlap naturally
//! (§5.1).
//!
//! When the strategy carries a microbatch count `m > 1`
//! ([`crate::strategy::Strategy::microbatches`]), the batch is split into
//! `m` sample slabs and each op's tiles are replicated once per slab:
//! entry `(tile k, microbatch j)` computes tile `k`'s intersection with
//! slab `j` on tile `k`'s device. Stage-ordering edges chain a tile's
//! entries in microbatch order (a stage drains its microbatches in
//! sequence), activations connect producer/consumer entries by geometric
//! overlap exactly as in the whole-batch case (slabs are disjoint in the
//! sample dimension, so each microbatch's dataflow wires independently),
//! and parameter-synchronization tasks gain one dependency per microbatch
//! entry of their shard — the gradient-accumulation edges that make the
//! sync fire once per iteration. Inter-op *pipeline* parallelism then
//! emerges in the simulator: while stage `i` runs microbatch `j`, stage
//! `i+1` runs microbatch `j-1`.
//!
//! The graph supports **incremental surgery** ([`TaskGraph::rebuild_op`]):
//! replacing one operation's configuration removes and recreates only the
//! tasks attached to that op, which is what the delta simulation algorithm
//! (§5.3) builds on.
//!
//! Surgery is **transactional**: [`TaskGraph::begin_txn`] opens an undo
//! journal, every mutation made by `rebuild_op` records the first-touch
//! prior state of whatever it overwrites, and [`TaskGraph::rollback_txn`]
//! replays the journal to restore the graph bit-for-bit — the rejected-
//! proposal path of the MCMC optimizer, which previously needed either a
//! second rebuild or a clone of the whole structure.

use crate::soap::{ParallelConfig, SyncPlan};
use crate::strategy::Strategy;
use flexflow_costmodel::{sync_cost, CostModel};
use flexflow_device::{DeviceId, LinkId, Topology};
use flexflow_opgraph::{LayerId, OpGraph, OpId, OpKind};
use flexflow_tensor::Rect;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::Arc;

/// Identifier of a task (a slot index; slots are recycled by delta
/// updates).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(pub(crate) u32);

impl TaskId {
    /// Slot index of the task.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

/// Where a task executes: a compute device or a communication device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ExecUnit {
    /// A GPU.
    Gpu(DeviceId),
    /// A hardware connection acting as a communication device.
    Link(LinkId),
}

impl fmt::Display for ExecUnit {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ExecUnit::Gpu(d) => write!(f, "{d}"),
            ExecUnit::Link(l) => write!(f, "{l}"),
        }
    }
}

/// What a task does.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskKind {
    /// Task `k` of operation `op` (forward + backward compute of one tile).
    Compute {
        /// The operation.
        op: OpId,
        /// Task index within the op's configuration.
        k: u32,
    },
    /// Tensor data transfer between a producer and a consumer task.
    Comm {
        /// Bytes moved (activations forward + gradients backward).
        bytes: u64,
    },
    /// Parameter-gradient push or broadcast for a shared layer.
    SyncComm {
        /// Bytes moved (one direction of the shard synchronization).
        bytes: u64,
        /// The parameter-sharing layer being synchronized.
        layer: LayerId,
    },
    /// Re-execution of entry `k`'s forward pass before its backward pass,
    /// for operations whose strategy sets the recompute bit
    /// ([`crate::strategy::Strategy::recompute`]): the stored forward
    /// activations were dropped to save memory, so the forward work runs
    /// again on the same device just before the gradients are needed.
    Recompute {
        /// The operation being recomputed.
        op: OpId,
        /// Task index within the op's configuration.
        k: u32,
    },
}

/// One node of the task graph. Fields mirror the construction-time
/// properties of paper Table 2 (`exeTime`, `device`, `I(t)`, `O(t)`);
/// simulation-time properties live in [`crate::sim::SimState`].
#[derive(Debug, Clone, PartialEq)]
pub struct Task {
    /// What the task does.
    pub kind: TaskKind,
    /// The device (compute or communication) executing the task.
    pub unit: ExecUnit,
    /// Execution time in microseconds (`exeTime`).
    pub exe_us: f64,
    /// Tasks that must complete before this one starts (`I(t)`).
    pub preds: Vec<TaskId>,
    /// Tasks waiting on this one (`O(t)`).
    pub succs: Vec<TaskId>,
    /// Stable identity-derived ordering key; FIFO ties break on `(ready,
    /// seq)`. Because `seq` is a pure function of the task's identity
    /// (operation/tile for compute, edge endpoints for communication,
    /// layer/shard for synchronization), the simulated cost of a strategy
    /// is independent of the delta-update history that produced its task
    /// graph, and the full and delta algorithms yield identical timelines.
    pub seq: u128,
}

/// Packs a stable ordering key. Fields must stay below 2^30.
fn seq_key(phase: u8, a: u64, b: u64, c: u64, d: u64) -> u128 {
    debug_assert!(a < (1 << 30) && b < (1 << 30) && c < (1 << 30) && d < (1 << 30));
    ((phase as u128) << 120)
        | ((a as u128) << 90)
        | ((b as u128) << 60)
        | ((c as u128) << 30)
        | (d as u128)
}

/// How replicated parameter shards synchronize their gradients.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncMode {
    /// Parameter-server star: R-1 pushes to the lowest-id replica followed
    /// by R-1 broadcasts — the deep-learning-systems default of the
    /// paper's era, and the model behind its data-parallelism costs.
    #[default]
    ParameterServer,
    /// Bandwidth-optimal ring allreduce: each replica exchanges
    /// `2 (R-1) / R` of the shard with its ring neighbour; transfers on
    /// distinct links proceed in parallel.
    Ring,
}

/// Tuning knobs for task-graph construction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimConfig {
    /// Multiplier on tensor-edge bytes: 2.0 accounts for the forward
    /// activation plus the backward gradient riding the same route.
    pub activation_comm_multiplier: f64,
    /// Whether to model parameter-gradient synchronization.
    pub include_param_sync: bool,
    /// Gradient-synchronization algorithm.
    pub sync_mode: SyncMode,
    /// Bytes per tensor element.
    pub elem_bytes: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        Self {
            activation_comm_multiplier: 2.0,
            include_param_sync: true,
            sync_mode: SyncMode::ParameterServer,
            elem_bytes: 4,
        }
    }
}

/// Memoized materialization of one `(op, config)` pair under the current
/// microbatch count: one entry per **task**, i.e. per `(tile, microbatch)`
/// pair with a non-empty intersection of the tile and the microbatch's
/// sample slab (with `m = 1` this is exactly one entry per tile, the
/// classic whole-batch construction). Entries are ordered
/// microbatch-major, tiles in task order within each microbatch. Derived
/// data only — re-proposing a recently seen configuration (the common
/// case in an MCMC walk and in neighborhood sweeps) skips tile arithmetic
/// and cost-model lookups entirely.
#[derive(Debug)]
struct OpMaterial {
    /// Output region of each entry (the tile clipped to its slab).
    tiles: Vec<Rect>,
    /// `needs[e][slot]`: input rect of argument `slot` required by entry `e`.
    needs: Vec<Vec<Option<Rect>>>,
    units: Vec<ExecUnit>,
    exe_us: Vec<f64>,
    /// Parameters touched per entry (for sync-shard accounting).
    params: Vec<u64>,
    /// Tile index `k` within the op's configuration (device owner).
    tile_index: Vec<u32>,
}

/// Bound on the materialization memo; beyond it the cache is dropped
/// wholesale (random-device proposals on big clusters rarely repeat, so an
/// LRU would buy little over periodic clearing).
const MAT_CACHE_CAP: usize = 4096;

/// First-touch snapshot of one tensor edge's comm-task list (`None` = the
/// key was absent when the transaction first touched it).
type EdgeCommSave = ((OpId, OpId), Option<Vec<TaskId>>);

/// The fixed inputs task-graph construction draws from; bundled so the
/// internal builders share one handle instead of five parameters.
#[derive(Clone, Copy)]
struct BuildCtx<'a> {
    graph: &'a OpGraph,
    topo: &'a Topology,
    strategy: &'a Strategy,
    cost: &'a dyn CostModel,
    cfg: &'a SimConfig,
}

/// Undo journal of one open transaction (see [`TaskGraph::begin_txn`]).
/// Every entry is a *first-touch* snapshot: the value a piece of state had
/// when the transaction first mutated it.
#[derive(Debug, Clone, Default)]
struct GraphJournal {
    /// Slot contents before their first mutation (doomed, recycled, or
    /// adjacency-edited survivor slots alike).
    slots: Vec<(TaskId, Option<Task>)>,
    /// Compute-task lists of rebuilt ops.
    op_tasks: Vec<(OpId, Vec<TaskId>)>,
    /// Tensor-edge comm lists.
    edge_comms: Vec<EdgeCommSave>,
    /// Sync-task lists of touched layers.
    sync_tasks: Vec<(LayerId, Vec<TaskId>)>,
    /// Recompute-task lists of rebuilt ops.
    rc_tasks: Vec<(OpId, Vec<TaskId>)>,
    /// Free-list length at `begin_txn`.
    free_len: usize,
    /// Free-list low-water mark during the txn: entries of the original
    /// list above this index were popped and are saved in `free_saved`
    /// (in pop order, i.e. descending original index). Everything the txn
    /// itself pushed sits above the low-water mark at rollback time, so
    /// truncate + re-push restores the original list without `begin_txn`
    /// ever cloning it (the list can hold ~10^5 recycled slots after a
    /// heavy configuration dies).
    free_low: usize,
    free_saved: Vec<TaskId>,
    /// Slot-table length and live count at `begin_txn`.
    tasks_len: usize,
    alive: usize,
}

/// The task graph (paper §5.1). Holds its tasks in recyclable slots and
/// remembers which tasks belong to which op / tensor edge / layer so that
/// [`TaskGraph::rebuild_op`] can surgically replace them.
#[derive(Debug, Clone)]
pub struct TaskGraph {
    tasks: Vec<Option<Task>>,
    free: Vec<TaskId>,
    /// Ids allocated since the last `rebuild_op` began (the "added" set).
    created_log: Vec<TaskId>,
    /// Compute tasks per op (indexed by op id).
    op_tasks: Vec<Vec<TaskId>>,
    /// Communication tasks per tensor edge `(producer, consumer)`.
    edge_comms: HashMap<(OpId, OpId), Vec<TaskId>>,
    /// Synchronization tasks per layer (indexed by layer id).
    sync_tasks: Vec<Vec<TaskId>>,
    /// Recompute tasks per op (indexed by op id; empty unless the op's
    /// strategy sets the recompute bit). Parallel to `op_tasks`: entry `e`
    /// of the op has recompute task `rc_tasks[op][e]`.
    rc_tasks: Vec<Vec<TaskId>>,
    alive: usize,
    /// Open transaction, if any (see [`TaskGraph::begin_txn`]).
    journal: Option<GraphJournal>,
    /// First-touch dedup for slot journal entries: `slot_epoch[i] == epoch`
    /// means slot `i` is already journaled (or fresh) in the open txn.
    slot_epoch: Vec<u64>,
    epoch: u64,
    /// Materialization memo, keyed by op then config (two levels so the
    /// hot hit path probes with `&ParallelConfig`, no clone). A task
    /// graph is always driven with one fixed `(graph, topo, cost)`
    /// triple, so the key needs no hardware component.
    mat_cache: HashMap<OpId, HashMap<ParallelConfig, Arc<OpMaterial>>>,
    /// Total entries across the two-level memo (drives eviction).
    mat_cache_entries: usize,
    /// Microbatch count the memo was materialized under. A microbatch
    /// change (rare next to per-op config proposals) invalidates every
    /// entry, so the memo is cleared wholesale instead of keying each
    /// entry on `m` — the hot per-config probe stays clone-free.
    mat_cache_mb: u64,
    /// Per-slot flags of the removal in progress (see
    /// [`TaskGraph::remove_tasks`]); all zero between calls.
    removal_marks: Vec<u8>,
}

/// Equality over the *logical* graph: slots, free list, bookkeeping and
/// live count. Transient acceleration state (journal, epochs, memo,
/// `created_log`) is excluded — it never affects simulation results.
impl PartialEq for TaskGraph {
    fn eq(&self, other: &Self) -> bool {
        self.alive == other.alive
            && self.tasks == other.tasks
            && self.free == other.free
            && self.op_tasks == other.op_tasks
            && self.edge_comms == other.edge_comms
            && self.sync_tasks == other.sync_tasks
            && self.rc_tasks == other.rc_tasks
    }
}

impl TaskGraph {
    /// Builds the task graph for `strategy` from scratch.
    pub fn build(
        graph: &OpGraph,
        topo: &Topology,
        strategy: &Strategy,
        cost: &dyn CostModel,
        cfg: &SimConfig,
    ) -> Self {
        let mut tg = TaskGraph {
            tasks: Vec::new(),
            free: Vec::new(),
            created_log: Vec::new(),
            op_tasks: vec![Vec::new(); graph.len()],
            edge_comms: HashMap::new(),
            sync_tasks: vec![Vec::new(); graph.num_layers()],
            rc_tasks: vec![Vec::new(); graph.len()],
            alive: 0,
            journal: None,
            slot_epoch: Vec::new(),
            epoch: 0,
            mat_cache: HashMap::new(),
            mat_cache_entries: 0,
            mat_cache_mb: strategy.microbatches(),
            removal_marks: Vec::new(),
        };
        tg.run_build_passes(BuildCtx {
            graph,
            topo,
            strategy,
            cost,
            cfg,
        });
        tg
    }

    /// The three construction passes shared by [`TaskGraph::build`] and
    /// [`TaskGraph::rebuild_all`]: compute tasks per op, tensor edges
    /// (deduped per `(src, dst)` pair — `connect_edge` handles every
    /// argument slot of `dst` fed by `src` at once, so multi-slot
    /// consumption like `Add(x, x)` must not wire twice), and per-layer
    /// parameter synchronization. Assumes the per-op/edge/sync
    /// bookkeeping is empty for everything being built.
    fn run_build_passes(&mut self, ctx: BuildCtx<'_>) {
        for op in ctx.graph.ids() {
            self.create_compute_tasks(ctx, op);
        }
        let mut seen = HashSet::new();
        for (src, dst) in ctx.graph.edges() {
            if seen.insert((src, dst)) {
                self.connect_edge(ctx, src, dst);
            }
        }
        if ctx.cfg.include_param_sync {
            for layer in ctx.graph.layer_ids() {
                self.build_layer_sync(ctx, layer);
            }
        }
    }

    /// Opens a transaction: every subsequent [`TaskGraph::rebuild_op`]
    /// records an undo journal until [`TaskGraph::commit_txn`] or
    /// [`TaskGraph::rollback_txn`] closes it. Without an open transaction
    /// rebuilds run journal-free (zero overhead).
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_txn(&mut self) {
        assert!(self.journal.is_none(), "task-graph txn already open");
        self.epoch += 1;
        self.journal = Some(GraphJournal {
            free_len: self.free.len(),
            free_low: self.free.len(),
            tasks_len: self.tasks.len(),
            alive: self.alive,
            ..GraphJournal::default()
        });
    }

    /// Closes the open transaction, keeping all changes.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self) {
        assert!(self.journal.take().is_some(), "no task-graph txn open");
    }

    /// Closes the open transaction by replaying its journal backwards,
    /// restoring the graph to its exact `begin_txn` state.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self) {
        let j = self.journal.take().expect("no task-graph txn open");
        for (id, old) in j.slots.into_iter().rev() {
            self.tasks[id.index()] = old;
        }
        self.tasks.truncate(j.tasks_len);
        for (op, old) in j.op_tasks {
            self.op_tasks[op.index()] = old;
        }
        for (key, old) in j.edge_comms {
            match old {
                Some(v) => {
                    self.edge_comms.insert(key, v);
                }
                None => {
                    self.edge_comms.remove(&key);
                }
            }
        }
        for (layer, old) in j.sync_tasks {
            self.sync_tasks[layer.index()] = old;
        }
        for (op, old) in j.rc_tasks {
            self.rc_tasks[op.index()] = old;
        }
        // Restore the free list: drop everything the txn pushed (all above
        // the low-water mark) and re-push the consumed original entries.
        self.free.truncate(j.free_low);
        self.free.extend(j.free_saved.iter().rev());
        debug_assert_eq!(self.free.len(), j.free_len);
        self.alive = j.alive;
        self.created_log.clear();
    }

    /// Whether a transaction is open.
    pub fn txn_active(&self) -> bool {
        self.journal.is_some()
    }

    /// Slots journaled by the open transaction (0 when none is open) — a
    /// telemetry proxy for how much graph state a proposal touched.
    pub fn journal_depth(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.slots.len())
    }

    /// Journals the current contents of slot `id` once per transaction.
    #[inline]
    fn j_save_slot(&mut self, id: TaskId) {
        if self.journal.is_none() {
            return;
        }
        let i = id.index();
        if self.slot_epoch.len() <= i {
            self.slot_epoch.resize(i + 1, 0);
        }
        if self.slot_epoch[i] == self.epoch {
            return;
        }
        self.slot_epoch[i] = self.epoch;
        let old = self.tasks[i].clone();
        self.journal
            .as_mut()
            .expect("txn open")
            .slots
            .push((id, old));
    }

    /// Marks a freshly pushed slot as journaled without recording it (the
    /// rollback truncation removes it wholesale).
    #[inline]
    fn j_mark_fresh(&mut self, id: TaskId) {
        if self.journal.is_none() {
            return;
        }
        let i = id.index();
        if self.slot_epoch.len() <= i {
            self.slot_epoch.resize(i + 1, 0);
        }
        self.slot_epoch[i] = self.epoch;
    }

    fn j_save_op_tasks(&mut self, op: OpId) {
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        if j.op_tasks.iter().any(|(o, _)| *o == op) {
            return;
        }
        let old = self.op_tasks[op.index()].clone();
        self.journal
            .as_mut()
            .expect("txn open")
            .op_tasks
            .push((op, old));
    }

    fn j_save_edge(&mut self, key: (OpId, OpId)) {
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        if j.edge_comms.iter().any(|(k, _)| *k == key) {
            return;
        }
        let old = self.edge_comms.get(&key).cloned();
        self.journal
            .as_mut()
            .expect("txn open")
            .edge_comms
            .push((key, old));
    }

    fn j_save_rc(&mut self, op: OpId) {
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        if j.rc_tasks.iter().any(|(o, _)| *o == op) {
            return;
        }
        let old = self.rc_tasks[op.index()].clone();
        self.journal
            .as_mut()
            .expect("txn open")
            .rc_tasks
            .push((op, old));
    }

    fn j_save_sync(&mut self, layer: LayerId) {
        let Some(j) = self.journal.as_ref() else {
            return;
        };
        if j.sync_tasks.iter().any(|(l, _)| *l == layer) {
            return;
        }
        let old = self.sync_tasks[layer.index()].clone();
        self.journal
            .as_mut()
            .expect("txn open")
            .sync_tasks
            .push((layer, old));
    }

    /// Number of live tasks.
    pub fn num_tasks(&self) -> usize {
        self.alive
    }

    /// Capacity of the slot table (including dead slots).
    pub fn capacity(&self) -> usize {
        self.tasks.len()
    }

    /// The task in a slot, or `None` if the slot is free.
    pub fn get(&self, id: TaskId) -> Option<&Task> {
        self.tasks.get(id.index()).and_then(|t| t.as_ref())
    }

    /// The task in a slot.
    ///
    /// # Panics
    ///
    /// Panics if the slot is free — callers must hold a live id.
    pub fn task(&self, id: TaskId) -> &Task {
        self.tasks[id.index()]
            .as_ref()
            .unwrap_or_else(|| panic!("task {id} is dead"))
    }

    /// Iterates over `(id, task)` for all live tasks.
    pub fn iter(&self) -> impl Iterator<Item = (TaskId, &Task)> {
        self.tasks
            .iter()
            .enumerate()
            .filter_map(|(i, t)| t.as_ref().map(|t| (TaskId(i as u32), t)))
    }

    /// Compute tasks of an operation, in task (tile) order.
    pub fn tasks_of_op(&self, op: OpId) -> &[TaskId] {
        &self.op_tasks[op.index()]
    }

    /// Recompute tasks of an operation — parallel to
    /// [`TaskGraph::tasks_of_op`] when the op's strategy sets the recompute
    /// bit, empty otherwise.
    pub fn recompute_tasks_of_op(&self, op: OpId) -> &[TaskId] {
        &self.rc_tasks[op.index()]
    }

    /// Replaces operation `op`'s configuration inside `strategy` context:
    /// removes the op's compute tasks, every communication task on its
    /// tensor edges, and the synchronization tasks of its layer; then
    /// recreates them for the configuration recorded in `strategy`.
    ///
    /// Returns what changed (removed tasks, new tasks and surviving tasks
    /// that lost predecessors) — what the delta simulation algorithm dates
    /// its cut from.
    ///
    /// Inside an open transaction (see [`TaskGraph::begin_txn`]) every
    /// mutation is journaled so the rebuild can be rolled back exactly.
    ///
    /// `graph`, `topo` and `cost` must be the same objects the graph was
    /// built with: the internal materialization memo is keyed by
    /// `(op, config)` only, so swapping the hardware or cost oracle
    /// between calls would serve stale task times. (Rebuilding against a
    /// *changed strategy* is the whole point and is fully supported.)
    pub fn rebuild_op(
        &mut self,
        graph: &OpGraph,
        topo: &Topology,
        strategy: &Strategy,
        cost: &dyn CostModel,
        cfg: &SimConfig,
        op: OpId,
    ) -> RebuildReport {
        let mut report = RebuildReport::default();
        let node = graph.op(op);
        // Journal the bookkeeping this rebuild may rewrite (no-ops without
        // an open transaction).
        if self.journal.is_some() {
            self.j_save_op_tasks(op);
            self.j_save_rc(op);
            for &src in node.inputs() {
                self.j_save_edge((src, op));
            }
            for dst in graph.consumers(op) {
                self.j_save_edge((op, dst));
            }
            if cfg.include_param_sync {
                if let Some(layer) = node.layer() {
                    self.j_save_sync(layer);
                }
            }
        }
        // 1. Collect and remove everything attached to `op`.
        let mut doomed: Vec<TaskId> = self.op_tasks[op.index()].clone();
        doomed.extend(std::mem::take(&mut self.rc_tasks[op.index()]));
        for &src in node.inputs() {
            if let Some(comms) = self.edge_comms.remove(&(src, op)) {
                doomed.extend(comms);
            }
        }
        for dst in graph.consumers(op) {
            if let Some(comms) = self.edge_comms.remove(&(op, dst)) {
                doomed.extend(comms);
            }
        }
        if cfg.include_param_sync {
            if let Some(layer) = node.layer() {
                doomed.extend(std::mem::take(&mut self.sync_tasks[layer.index()]));
            }
        }
        report.pred_changed = self.remove_tasks(&doomed);
        self.op_tasks[op.index()].clear();

        // 2. Recreate the op's tasks and its attachments.
        let ctx = BuildCtx {
            graph,
            topo,
            strategy,
            cost,
            cfg,
        };
        self.created_log.clear();
        self.create_compute_tasks(ctx, op);
        let mut seen = HashSet::new();
        for &src in node.inputs() {
            if seen.insert(src) {
                self.connect_edge(ctx, src, op);
            }
        }
        for dst in graph.consumers(op) {
            if seen.insert(dst) {
                self.connect_edge(ctx, op, dst);
            }
        }
        if cfg.include_param_sync {
            if let Some(layer) = node.layer() {
                self.build_layer_sync(ctx, layer);
            }
        }
        report.added = std::mem::take(&mut self.created_log);
        report.removed = doomed;
        report
    }

    /// Rebuilds the **entire** task graph for the strategy's current
    /// state — the structural counterpart of [`TaskGraph::rebuild_op`] for
    /// proposals that re-time every operation at once (a microbatch-count
    /// change). Every live task is doomed under the open journal, the
    /// bookkeeping maps are journaled wholesale, and the same three
    /// construction passes as [`TaskGraph::build`] run against the new
    /// strategy, recycling the freed slots. Unlike a chain of per-op
    /// `rebuild_op` calls this never wires an op against a neighbour whose
    /// tasks still reflect the old microbatch count, and each tensor edge
    /// is built exactly once.
    ///
    /// Inside an open transaction (see [`TaskGraph::begin_txn`]) the whole
    /// demolition/reconstruction is journaled and rolls back exactly. The
    /// caller re-simulates from scratch (no incremental report is
    /// returned; a whole-graph change dirties the entire timeline anyway).
    pub fn rebuild_all(
        &mut self,
        graph: &OpGraph,
        topo: &Topology,
        strategy: &Strategy,
        cost: &dyn CostModel,
        cfg: &SimConfig,
    ) {
        if self.journal.is_some() {
            for op in graph.ids() {
                self.j_save_op_tasks(op);
                self.j_save_rc(op);
            }
            let keys: Vec<(OpId, OpId)> = self.edge_comms.keys().copied().collect();
            for key in keys {
                self.j_save_edge(key);
            }
            for layer in graph.layer_ids() {
                self.j_save_sync(layer);
            }
        }
        let doomed: Vec<TaskId> = self.iter().map(|(id, _)| id).collect();
        for id in doomed {
            self.j_save_slot(id);
            self.tasks[id.index()] = None;
            self.free.push(id);
        }
        self.alive = 0;
        for tasks in &mut self.op_tasks {
            tasks.clear();
        }
        self.edge_comms.clear();
        for tasks in &mut self.sync_tasks {
            tasks.clear();
        }
        for tasks in &mut self.rc_tasks {
            tasks.clear();
        }
        self.created_log.clear();
        self.run_build_passes(BuildCtx {
            graph,
            topo,
            strategy,
            cost,
            cfg,
        });
        self.created_log.clear();
    }

    /// Frees the `doomed` slots and strips them from the adjacency lists of
    /// their surviving neighbours; returns the survivors that lost a
    /// predecessor, in first-touch order.
    ///
    /// Batched: all doomed tasks are taken first, then each surviving
    /// neighbour's list is cleaned in ONE retain pass. A per-task retain
    /// would be quadratic in the degree — heavy configurations attach 10^5
    /// communication tasks to one producer.
    fn remove_tasks(&mut self, doomed: &[TaskId]) -> Vec<TaskId> {
        const DOOMED: u8 = 1;
        const LOST_SUCC: u8 = 2;
        const LOST_PRED: u8 = 4;
        self.removal_marks.resize(self.tasks.len(), 0);
        for &id in doomed {
            self.removal_marks[id.index()] = DOOMED;
        }
        let mut lost_succ: Vec<TaskId> = Vec::new();
        let mut lost_pred: Vec<TaskId> = Vec::new();
        for &id in doomed {
            self.j_save_slot(id);
            let task = self.tasks[id.index()]
                .take()
                .unwrap_or_else(|| panic!("removing dead task {id}"));
            self.alive -= 1;
            self.free.push(id);
            for (neighbours, lost, touched) in [
                (task.preds, LOST_SUCC, &mut lost_succ),
                (task.succs, LOST_PRED, &mut lost_pred),
            ] {
                for n in neighbours {
                    let mark = &mut self.removal_marks[n.index()];
                    if *mark & (DOOMED | lost) == 0 {
                        *mark |= lost;
                        touched.push(n);
                    }
                }
            }
        }
        for &p in &lost_succ {
            self.j_save_slot(p);
            let marks = &self.removal_marks;
            self.tasks[p.index()]
                .as_mut()
                .expect("survivor is live")
                .succs
                .retain(|t| marks[t.index()] != DOOMED);
        }
        for &s in &lost_pred {
            self.j_save_slot(s);
            let marks = &self.removal_marks;
            self.tasks[s.index()]
                .as_mut()
                .expect("survivor is live")
                .preds
                .retain(|t| marks[t.index()] != DOOMED);
        }
        for id in doomed.iter().chain(&lost_succ).chain(&lost_pred) {
            self.removal_marks[id.index()] = 0;
        }
        lost_pred
    }

    fn alloc(&mut self, task: Task) -> TaskId {
        self.alive += 1;
        let id = if let Some(id) = self.free.pop() {
            // Popping below the txn's low-water mark consumes an entry of
            // the original free list: save it so rollback can re-push it.
            if let Some(j) = self.journal.as_mut() {
                if self.free.len() < j.free_low {
                    j.free_low = self.free.len();
                    j.free_saved.push(id);
                }
            }
            // Recycled slots may predate the open txn: journal their
            // previous contents (doomed slots are already journaled).
            self.j_save_slot(id);
            self.tasks[id.index()] = Some(task);
            id
        } else {
            let id = TaskId(self.tasks.len() as u32);
            // Fresh slots vanish on rollback via truncation; marking them
            // journaled stops add_edge_fresh from snapshotting them.
            self.j_mark_fresh(id);
            self.tasks.push(Some(task));
            id
        };
        self.created_log.push(id);
        id
    }

    /// Adds a dependency edge known not to exist yet — either one endpoint
    /// is freshly created, or the caller dedups pairs itself. No scan: the
    /// adjacency lists of heavy configurations reach 10^5 entries and a
    /// `contains` check per insert would be quadratic.
    fn add_edge_fresh(&mut self, from: TaskId, to: TaskId) {
        self.j_save_slot(from);
        self.j_save_slot(to);
        self.tasks[from.index()]
            .as_mut()
            .expect("live from-task")
            .succs
            .push(to);
        self.tasks[to.index()]
            .as_mut()
            .expect("live to-task")
            .preds
            .push(from);
    }

    /// The memoized materialization of `op` under its current config and
    /// the strategy's microbatch count (see [`OpMaterial`]). One
    /// `op_signature` hash and one cost lookup per entry on a miss; a
    /// pointer clone on a hit.
    fn materialize(&mut self, ctx: BuildCtx<'_>, op: OpId) -> Arc<OpMaterial> {
        let m = ctx.strategy.microbatches();
        if m != self.mat_cache_mb {
            self.mat_cache.clear();
            self.mat_cache_entries = 0;
            self.mat_cache_mb = m;
        }
        let config = ctx.strategy.config(op);
        if let Some(mat) = self
            .mat_cache
            .get(&op)
            .and_then(|per_op| per_op.get(config))
        {
            return Arc::clone(mat);
        }
        let node = ctx.graph.op(op);
        let sig = ctx.cost.op_signature(node);
        let full_tiles = config.tiles(node);
        // The microbatch slabs partition the sample dimension: slab `j`
        // covers samples `[j*B/m, (j+1)*B/m)`. Legal counts divide B
        // evenly (soap::legal_microbatch_counts); the floor arithmetic
        // keeps construction total for any m, skipping empty slabs and
        // empty tile∩slab intersections.
        let batch = node.output_shape().dim(0);
        let mut tiles = Vec::new();
        let mut needs: Vec<Vec<Option<Rect>>> = Vec::new();
        let mut units = Vec::new();
        let mut exe_us = Vec::new();
        let mut params = Vec::new();
        let mut tile_index = Vec::new();
        for j in 0..m {
            let (slab_lo, slab_hi) = (j * batch / m, (j + 1) * batch / m);
            if slab_lo >= slab_hi {
                continue;
            }
            for (k, tile) in full_tiles.iter().enumerate() {
                let lo = tile.lo()[0].max(slab_lo);
                let hi = tile.hi()[0].min(slab_hi);
                if lo >= hi {
                    continue;
                }
                let sub = tile.with_dim(0, lo, hi);
                let dev = config.device(k);
                needs.push(node.input_rects(&sub));
                units.push(ExecUnit::Gpu(dev));
                exe_us.push(
                    ctx.cost
                        .task_time_us_sig(sig, node, &sub, ctx.topo.device(dev).kind),
                );
                params.push(node.params_for_tile(&sub));
                tiles.push(sub);
                tile_index.push(k as u32);
            }
        }
        let mat = Arc::new(OpMaterial {
            tiles,
            needs,
            units,
            exe_us,
            params,
            tile_index,
        });
        if self.mat_cache_entries >= MAT_CACHE_CAP {
            self.mat_cache.clear();
            self.mat_cache_entries = 0;
        }
        self.mat_cache
            .entry(op)
            .or_default()
            .insert(config.clone(), Arc::clone(&mat));
        self.mat_cache_entries += 1;
        mat
    }

    fn create_compute_tasks(&mut self, ctx: BuildCtx<'_>, op: OpId) {
        let mat = self.materialize(ctx, op);
        let mut ids = Vec::with_capacity(mat.exe_us.len());
        for e in 0..mat.exe_us.len() {
            let id = self.alloc(Task {
                kind: TaskKind::Compute {
                    op,
                    k: mat.tile_index[e],
                },
                unit: mat.units[e],
                exe_us: mat.exe_us[e],
                preds: Vec::new(),
                succs: Vec::new(),
                seq: seq_key(0, op.index() as u64, e as u64, 0, 0),
            });
            ids.push(id);
        }
        // Stage-ordering edges: a pipeline stage processes its microbatches
        // in order, so entry (tile k, microbatch j+1) waits for (k, j).
        // Entries are microbatch-major, so the previous entry of the same
        // tile is simply the last one seen for that tile index.
        if ctx.strategy.microbatches() > 1 {
            let mut last_of_tile: HashMap<u32, TaskId> = HashMap::new();
            for (e, &id) in ids.iter().enumerate() {
                if let Some(&prev) = last_of_tile.get(&mat.tile_index[e]) {
                    self.add_edge_fresh(prev, id);
                }
                last_of_tile.insert(mat.tile_index[e], id);
            }
        }
        // Recompute lowering: one extra forward re-execution per entry on
        // the entry's own device, gating the gradients' availability. The
        // compute task keeps its combined fwd+bwd time (the backward work
        // is unchanged); the recompute task adds the re-run forward
        // fraction of it. Input ops model the data loader and store no
        // activations, so the bit is inert on them.
        let node = ctx.graph.op(op);
        if ctx.strategy.recompute(op) && !matches!(node.kind(), OpKind::Input { .. }) {
            let mut rc_ids = Vec::with_capacity(ids.len());
            for (e, &cid) in ids.iter().enumerate() {
                let rid = self.alloc(Task {
                    kind: TaskKind::Recompute {
                        op,
                        k: mat.tile_index[e],
                    },
                    unit: mat.units[e],
                    exe_us: mat.exe_us[e] * flexflow_costmodel::RECOMPUTE_FWD_FRACTION,
                    preds: Vec::new(),
                    succs: Vec::new(),
                    seq: seq_key(4, op.index() as u64, e as u64, 0, 0),
                });
                self.add_edge_fresh(cid, rid);
                rc_ids.push(rid);
            }
            self.j_save_rc(op);
            self.rc_tasks[op.index()] = rc_ids;
        }
        self.op_tasks[op.index()] = ids;
    }

    /// Paper §5.1 step 2: wire the tensor edge `src -> dst`, adding plain
    /// dependencies for same-device sharing and communication tasks across
    /// devices. Edges from `Input` ops model the data loader: always plain
    /// dependencies, never communication.
    fn connect_edge(&mut self, ctx: BuildCtx<'_>, src: OpId, dst: OpId) {
        let src_node = ctx.graph.op(src);
        let dst_node = ctx.graph.op(dst);
        let src_cfg = ctx.strategy.config(src);
        let dst_cfg = ctx.strategy.config(dst);
        let src_mat = self.materialize(ctx, src);
        let dst_mat = self.materialize(ctx, dst);
        let src_is_input = matches!(src_node.kind(), OpKind::Input { .. });
        // Which argument slots of dst are fed by src (an op may consume the
        // same tensor several times, e.g. Add(x, x)).
        let slots: Vec<usize> = dst_node
            .inputs()
            .iter()
            .enumerate()
            .filter(|(_, &p)| p == src)
            .map(|(s, _)| s)
            .collect();
        let mut comms: Vec<TaskId> = Vec::new();
        let dst_tasks = self.op_tasks[dst.index()].clone();
        let src_tasks = self.op_tasks[src.index()].clone();
        // Direct dependencies can repeat across argument slots; all edges
        // of this (src, dst) pair are created here and nowhere else, so a
        // per-call set is a complete dedup.
        let mut dep_seen: HashSet<(TaskId, TaskId)> = HashSet::new();
        // Microbatch slabs are disjoint in the sample dimension and every
        // operator's input rects preserve their output's sample interval,
        // so entries of different microbatches never intersect: the
        // geometric overlap test below wires each microbatch's dataflow
        // independently, which is exactly the pipeline semantics.
        let pipelined = ctx.strategy.microbatches() > 1;
        for (kj, &tj) in dst_tasks.iter().enumerate() {
            let needs = &dst_mat.needs[kj];
            for &slot in &slots {
                let Some(need) = needs[slot] else { continue };
                for (ki, &ti) in src_tasks.iter().enumerate() {
                    let Some(overlap) = src_mat.tiles[ki].intersection(&need) else {
                        continue;
                    };
                    let sdev = src_cfg.device(src_mat.tile_index[ki] as usize);
                    let ddev = dst_cfg.device(dst_mat.tile_index[kj] as usize);
                    if src_is_input || sdev == ddev {
                        if dep_seen.insert((ti, tj)) {
                            self.add_edge_fresh(ti, tj);
                        }
                        continue;
                    }
                    let channel = ctx
                        .topo
                        .channel(sdev, ddev)
                        .expect("distinct devices have a channel");
                    let bytes = (overlap.volume() * ctx.cfg.elem_bytes) as f64
                        * ctx.cfg.activation_comm_multiplier;
                    let bytes = bytes.round() as u64;
                    let exe_us = channel.transfer_time_us(bytes);
                    // The whole-batch packing (phase 1, `slot * 1000 + kj`)
                    // is kept bit-identical for m = 1; pipelined graphs use
                    // phase 3 with wider entry fields, since entry indices
                    // (m * |c|) can exceed the 1000-per-slot stride.
                    let seq = if pipelined {
                        seq_key(
                            3,
                            dst.index() as u64,
                            ((slot as u64) << 20) | kj as u64,
                            ki as u64,
                            src.index() as u64,
                        )
                    } else {
                        seq_key(
                            1,
                            dst.index() as u64,
                            (slot * 1000 + kj) as u64,
                            ki as u64,
                            src.index() as u64,
                        )
                    };
                    let c = self.alloc(Task {
                        kind: TaskKind::Comm { bytes },
                        unit: ExecUnit::Link(channel.link),
                        exe_us,
                        preds: Vec::new(),
                        succs: Vec::new(),
                        seq,
                    });
                    self.add_edge_fresh(ti, c);
                    self.add_edge_fresh(c, tj);
                    comms.push(c);
                }
            }
        }
        if !comms.is_empty() {
            self.j_save_edge((src, dst));
            self.edge_comms.insert((src, dst), comms);
        }
    }

    /// Synchronization tasks for one parameter-sharing layer: every shard
    /// replicated on R > 1 devices gets the task chain its resolved
    /// [`SyncPlan`] prescribes — the legacy PS star or ring for
    /// [`crate::soap::ParamSync::AllReduce`] (bit-identical to the pre-axis
    /// construction), reduce-scatter + all-gather sub-shard chains for
    /// ZeRO-1, or a fixed-server star. The layer's mode is the
    /// [`crate::soap::ParamSync`] of its lowest-id member op.
    fn build_layer_sync(&mut self, ctx: BuildCtx<'_>, layer: LayerId) {
        let graph = ctx.graph;
        let topo = ctx.topo;
        let cfg = ctx.cfg;
        let members: Vec<OpId> = graph
            .ids()
            .filter(|&id| graph.op(id).layer() == Some(layer))
            .collect();
        if members.is_empty() {
            return;
        }
        // Shard key: the parameter-dimension intervals of a task's tile.
        type ShardKey = Vec<(usize, u64, u64)>;
        let mut shards: HashMap<ShardKey, (u64, HashMap<DeviceId, Vec<TaskId>>)> = HashMap::new();
        for &op in &members {
            let node = graph.op(op);
            let config = ctx.strategy.config(op);
            let mat = self.materialize(ctx, op);
            let pdims: Vec<usize> = node
                .parallel_dims()
                .iter()
                .filter(|p| p.kind == flexflow_opgraph::DimKind::Parameter)
                .map(|p| p.dim)
                .collect();
            let tasks = self.op_tasks[op.index()].clone();
            // Recomputing ops surface their gradients only after the
            // re-executed forward pass: the recompute task (parallel to the
            // entry list) replaces the compute task as the sync source.
            let rc = self.rc_tasks[op.index()].clone();
            // With microbatches every (tile, microbatch) entry of a shard's
            // replica contributes an edge into the shard's sync tasks: the
            // gradient-accumulation dependency — synchronization fires once
            // per iteration, after the shard's last microbatch.
            for (e, &ctid) in tasks.iter().enumerate() {
                let tid = if rc.is_empty() { ctid } else { rc[e] };
                let tile = &mat.tiles[e];
                let key: ShardKey = pdims
                    .iter()
                    .map(|&d| (d, tile.lo()[d], tile.hi()[d]))
                    .collect();
                let params = mat.params[e];
                if params == 0 {
                    continue;
                }
                let entry = shards
                    .entry(key)
                    .or_insert_with(|| (params, HashMap::new()));
                entry.0 = entry.0.max(params);
                entry
                    .1
                    .entry(config.device(mat.tile_index[e] as usize))
                    .or_default()
                    .push(tid);
            }
        }
        let mut sync_ids: Vec<TaskId> = Vec::new();
        // Deterministic iteration order for reproducible graphs.
        type ShardEntry = (ShardKey, (u64, HashMap<DeviceId, Vec<TaskId>>));
        let mut shard_list: Vec<ShardEntry> = shards.into_iter().collect();
        shard_list.sort_by(|a, b| a.0.cmp(&b.0));
        // The layer's sync mode: the lowest-id member is the deterministic
        // mode source for weight-tied layers (see `soap::sync_ops`).
        let mode = ctx.strategy.param_sync(members[0]);
        for (shard_idx, (_key, (params, replicas))) in shard_list.into_iter().enumerate() {
            if replicas.len() < 2 {
                continue;
            }
            let bytes = params * cfg.elem_bytes;
            let mut devices: Vec<DeviceId> = replicas.keys().copied().collect();
            devices.sort();
            let plan = crate::soap::sync_plan(
                mode,
                cfg.sync_mode == SyncMode::Ring,
                layer.index(),
                shard_idx,
                &devices,
                topo,
            );
            match plan {
                SyncPlan::Ring => {
                    // Ring allreduce: each replica streams 2(R-1)/R of the
                    // shard to its ring successor; transfers proceed in
                    // parallel on distinct links and gate the iteration end.
                    let r = devices.len() as u64;
                    let ring_bytes = sync_cost::ring_per_task_bytes(r, bytes);
                    for (i, &dev) in devices.iter().enumerate() {
                        let next = devices[(i + 1) % devices.len()];
                        let channel = topo.channel(dev, next).expect("replicas are distinct");
                        let c = self.alloc(Task {
                            kind: TaskKind::SyncComm {
                                bytes: ring_bytes,
                                layer,
                            },
                            unit: ExecUnit::Link(channel.link),
                            exe_us: channel.transfer_time_us(ring_bytes),
                            preds: Vec::new(),
                            succs: Vec::new(),
                            seq: seq_key(2, layer.index() as u64, shard_idx as u64, 2, i as u64),
                        });
                        // The ring cannot start until every replica's
                        // gradient contribution is ready.
                        for tasks in replicas.values() {
                            for &t in tasks {
                                self.add_edge_fresh(t, c);
                            }
                        }
                        sync_ids.push(c);
                    }
                }
                SyncPlan::Star { root } => {
                    let root = devices[root];
                    // Gradient pushes to the root.
                    let mut pushes: Vec<TaskId> = Vec::new();
                    for (r, &dev) in devices.iter().enumerate().filter(|(_, &d)| d != root) {
                        let channel = topo.channel(dev, root).expect("replicas are distinct");
                        let c = self.alloc(Task {
                            kind: TaskKind::SyncComm { bytes, layer },
                            unit: ExecUnit::Link(channel.link),
                            exe_us: channel.transfer_time_us(bytes),
                            preds: Vec::new(),
                            succs: Vec::new(),
                            seq: seq_key(2, layer.index() as u64, shard_idx as u64, 0, r as u64),
                        });
                        for &t in &replicas[&dev] {
                            self.add_edge_fresh(t, c);
                        }
                        pushes.push(c);
                        sync_ids.push(c);
                    }
                    // Broadcasts of the aggregated gradient back to the
                    // replicas.
                    for (r, &dev) in devices.iter().enumerate().filter(|(_, &d)| d != root) {
                        let channel = topo.channel(root, dev).expect("replicas are distinct");
                        let b = self.alloc(Task {
                            kind: TaskKind::SyncComm { bytes, layer },
                            unit: ExecUnit::Link(channel.link),
                            exe_us: channel.transfer_time_us(bytes),
                            preds: Vec::new(),
                            succs: Vec::new(),
                            seq: seq_key(2, layer.index() as u64, shard_idx as u64, 1, r as u64),
                        });
                        for &p in &pushes {
                            self.add_edge_fresh(p, b);
                        }
                        // The root's own gradient must be ready before
                        // broadcast.
                        for &t in &replicas[&root] {
                            self.add_edge_fresh(t, b);
                        }
                        sync_ids.push(b);
                    }
                }
                SyncPlan::Zero1 { shards } => {
                    // ZeRO-1: cut the shard into `shards` balanced
                    // sub-shards, each owned by a distinct replica. Per
                    // sub-shard: R-1 reduce-scatter pushes to the owner
                    // (which updates its optimizer-state slice), then R-1
                    // all-gathers of the updated values back. Total volume
                    // equals the star's 2(R-1)·B, but spread over `shards`
                    // roots instead of one.
                    let r = devices.len();
                    for sub in 0..shards {
                        let owner = devices[(shard_idx + sub as usize) % r];
                        let sub_params = sync_cost::zero1_subshard_params(params, shards, sub);
                        if sub_params == 0 {
                            continue;
                        }
                        let sub_bytes = sub_params * cfg.elem_bytes;
                        let mut pushes: Vec<TaskId> = Vec::new();
                        for (ri, &dev) in devices.iter().enumerate().filter(|(_, &d)| d != owner) {
                            let channel = topo.channel(dev, owner).expect("replicas are distinct");
                            let c = self.alloc(Task {
                                kind: TaskKind::SyncComm {
                                    bytes: sub_bytes,
                                    layer,
                                },
                                unit: ExecUnit::Link(channel.link),
                                exe_us: channel.transfer_time_us(sub_bytes),
                                preds: Vec::new(),
                                succs: Vec::new(),
                                seq: seq_key(
                                    2,
                                    layer.index() as u64,
                                    shard_idx as u64,
                                    3,
                                    (sub << 10) | ri as u64,
                                ),
                            });
                            for &t in &replicas[&dev] {
                                self.add_edge_fresh(t, c);
                            }
                            pushes.push(c);
                            sync_ids.push(c);
                        }
                        for (ri, &dev) in devices.iter().enumerate().filter(|(_, &d)| d != owner) {
                            let channel = topo.channel(owner, dev).expect("replicas are distinct");
                            let b = self.alloc(Task {
                                kind: TaskKind::SyncComm {
                                    bytes: sub_bytes,
                                    layer,
                                },
                                unit: ExecUnit::Link(channel.link),
                                exe_us: channel.transfer_time_us(sub_bytes),
                                preds: Vec::new(),
                                succs: Vec::new(),
                                seq: seq_key(
                                    2,
                                    layer.index() as u64,
                                    shard_idx as u64,
                                    4,
                                    (sub << 10) | ri as u64,
                                ),
                            });
                            for &p in &pushes {
                                self.add_edge_fresh(p, b);
                            }
                            // The owner's own gradient slice must be ready
                            // before it can serve the updated values.
                            for &t in &replicas[&owner] {
                                self.add_edge_fresh(t, b);
                            }
                            sync_ids.push(b);
                        }
                    }
                }
                SyncPlan::ExternalStar { server } => {
                    // A parameter server holding no replica: all R replicas
                    // push their gradients in and all R receive the updated
                    // parameters back — 2R·B on the server's links, the
                    // contention the cost model charges for PS placement.
                    let mut pushes: Vec<TaskId> = Vec::new();
                    for (ri, &dev) in devices.iter().enumerate() {
                        let channel = topo.channel(dev, server).expect("server is remote");
                        let c = self.alloc(Task {
                            kind: TaskKind::SyncComm { bytes, layer },
                            unit: ExecUnit::Link(channel.link),
                            exe_us: channel.transfer_time_us(bytes),
                            preds: Vec::new(),
                            succs: Vec::new(),
                            seq: seq_key(2, layer.index() as u64, shard_idx as u64, 0, ri as u64),
                        });
                        for &t in &replicas[&dev] {
                            self.add_edge_fresh(t, c);
                        }
                        pushes.push(c);
                        sync_ids.push(c);
                    }
                    for (ri, &dev) in devices.iter().enumerate() {
                        let channel = topo.channel(server, dev).expect("server is remote");
                        let b = self.alloc(Task {
                            kind: TaskKind::SyncComm { bytes, layer },
                            unit: ExecUnit::Link(channel.link),
                            exe_us: channel.transfer_time_us(bytes),
                            preds: Vec::new(),
                            succs: Vec::new(),
                            seq: seq_key(2, layer.index() as u64, shard_idx as u64, 1, ri as u64),
                        });
                        for &p in &pushes {
                            self.add_edge_fresh(p, b);
                        }
                        sync_ids.push(b);
                    }
                }
            }
        }
        self.sync_tasks[layer.index()] = sync_ids;
    }

    /// Replaces one layer's synchronization tasks for the strategy's
    /// current per-op [`crate::soap::ParamSync`] modes — the structural
    /// surgery behind `ChangeParamSync` proposals. Mirrors
    /// [`TaskGraph::rebuild_op`]'s doom/retain/recreate shape but scoped to
    /// the layer's sync list: compute and tensor-edge tasks are untouched,
    /// so the returned report cuts the timeline no earlier than the layer's
    /// first gradient is ready.
    ///
    /// Inside an open transaction every mutation is journaled and rolls
    /// back exactly, like `rebuild_op`.
    pub fn rebuild_layer_sync(
        &mut self,
        graph: &OpGraph,
        topo: &Topology,
        strategy: &Strategy,
        cost: &dyn CostModel,
        cfg: &SimConfig,
        layer: LayerId,
    ) -> RebuildReport {
        let mut report = RebuildReport::default();
        if !cfg.include_param_sync {
            return report;
        }
        self.j_save_sync(layer);
        let doomed: Vec<TaskId> = std::mem::take(&mut self.sync_tasks[layer.index()]);
        report.pred_changed = self.remove_tasks(&doomed);
        let ctx = BuildCtx {
            graph,
            topo,
            strategy,
            cost,
            cfg,
        };
        self.created_log.clear();
        self.build_layer_sync(ctx, layer);
        report.added = std::mem::take(&mut self.created_log);
        report.removed = doomed;
        report
    }
}

/// Outcome of [`TaskGraph::rebuild_op`]: the removed ids, the freshly
/// created ids, and surviving tasks whose predecessor sets changed.
#[derive(Debug, Default, Clone)]
pub struct RebuildReport {
    /// Ids removed (now free slots).
    pub removed: Vec<TaskId>,
    /// Ids created by the rebuild.
    pub added: Vec<TaskId>,
    /// Surviving ids that lost a predecessor (their ready time may drop),
    /// in the order the removal first reached them. A rebuild hands a
    /// survivor a new predecessor only in place of one it removed, so every
    /// survivor whose predecessor set changed is listed; the resumed sweep
    /// (`crate::sim`) asserts as much.
    pub pred_changed: Vec<TaskId>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soap::ParallelConfig;
    use crate::strategy::Strategy;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;
    use flexflow_tensor::TensorShape;

    fn setup() -> (OpGraph, Topology, MeasuredCostModel) {
        (
            zoo::lenet(64),
            clusters::uniform_cluster(1, 4, 16.0, 4.0),
            MeasuredCostModel::paper_default(),
        )
    }
    use flexflow_device::Topology;

    #[test]
    fn data_parallel_task_counts() {
        let (g, topo, cost) = setup();
        let s = Strategy::data_parallel(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        // every op has 4 tasks
        for op in g.ids() {
            assert_eq!(tg.tasks_of_op(op).len(), 4);
        }
        // aligned sample splits: no activation comm tasks at all
        let comm = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::Comm { .. }))
            .count();
        assert_eq!(comm, 0, "aligned data parallelism needs no tensor comm");
        // ...but parameter sync traffic exists (replicated weights)
        let sync = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
            .count();
        assert!(sync > 0, "data parallelism must synchronize gradients");
    }

    #[test]
    fn single_device_strategy_has_no_comm_at_all() {
        let (g, topo, cost) = setup();
        let s = Strategy::single_device(&g, &topo, 0);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        assert_eq!(
            tg.iter()
                .filter(|(_, t)| !matches!(t.kind, TaskKind::Compute { .. }))
                .count(),
            0
        );
        // chain dependencies exist
        let with_preds = tg.iter().filter(|(_, t)| !t.preds.is_empty()).count();
        assert!(with_preds > 0);
    }

    #[test]
    fn model_parallel_chain_creates_comm() {
        let (g, topo, cost) = setup();
        // ops round-robin across devices, one task each
        let configs = g
            .ids()
            .map(|id| ParallelConfig::on_device(g.op(id), topo.device_id(id.index() % 4)))
            .collect();
        let s = Strategy::from_configs(&g, configs);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let comm = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::Comm { .. }))
            .count();
        assert!(comm > 0, "cross-device tensor edges need communication");
        // model parallelism with unreplicated params: no sync traffic
        let sync = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
            .count();
        assert_eq!(sync, 0);
    }

    #[test]
    fn input_edges_never_generate_comm() {
        let (g, topo, cost) = setup();
        // Inputs on device 0, conv1 on device 3: still no comm task.
        let mut s = Strategy::single_device(&g, &topo, 0);
        let conv1 = g.ids().nth(1).unwrap();
        s.replace(
            conv1,
            ParallelConfig::on_device(g.op(conv1), topo.device_id(3)),
        );
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let input_id = g.ids().next().unwrap();
        let input_task = tg.tasks_of_op(input_id)[0];
        let succs = &tg.task(input_task).succs;
        assert!(!succs.is_empty());
        for &s in succs {
            assert!(matches!(tg.task(s).kind, TaskKind::Compute { .. }));
        }
    }

    #[test]
    fn comm_bytes_scale_with_overlap_and_multiplier() {
        let mut g = OpGraph::new("pair");
        let x = g.add_input("x", TensorShape::new(&[8, 64]));
        let a = g
            .add_op(OpKind::Linear { out_features: 64 }, &[x], "a")
            .unwrap();
        let b = g.add_op(OpKind::Relu, &[a], "b").unwrap();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let mut configs = vec![
            ParallelConfig::on_device(g.op(x), topo.device_id(0)),
            ParallelConfig::on_device(g.op(a), topo.device_id(0)),
            ParallelConfig::on_device(g.op(b), topo.device_id(1)),
        ];
        let s = Strategy::from_configs(&g, configs.clone());
        let cfg = SimConfig::default();
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let comm: Vec<u64> = tg
            .iter()
            .filter_map(|(_, t)| match t.kind {
                TaskKind::Comm { bytes } => Some(bytes),
                _ => None,
            })
            .collect();
        assert_eq!(comm.len(), 1);
        // full tensor (8 * 64 f32) * multiplier 2
        assert_eq!(comm[0], 8 * 64 * 4 * 2);

        // fwd-only multiplier halves the bytes
        let cfg1 = SimConfig {
            activation_comm_multiplier: 1.0,
            ..SimConfig::default()
        };
        configs[2] = ParallelConfig::on_device(g.op(b), topo.device_id(1));
        let s = Strategy::from_configs(&g, configs);
        let tg1 = TaskGraph::build(&g, &topo, &s, &cost, &cfg1);
        let comm1: u64 = tg1
            .iter()
            .filter_map(|(_, t)| match t.kind {
                TaskKind::Comm { bytes } => Some(bytes),
                _ => None,
            })
            .sum();
        assert_eq!(comm1, 8 * 64 * 4);
    }

    #[test]
    fn param_sync_star_has_2r_minus_2_tasks_per_shard() {
        let mut g = OpGraph::new("one-linear");
        let x = g.add_input("x", TensorShape::new(&[8, 16]));
        let a = g
            .add_op(OpKind::Linear { out_features: 16 }, &[x], "fc")
            .unwrap();
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        // pure sample split over 4 devices: one shard replicated 4x
        let s = Strategy::data_parallel(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let sync: Vec<&Task> = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
            .map(|(_, t)| t)
            .collect();
        assert_eq!(sync.len(), 2 * (4 - 1));
        // every sync task moves the full parameter set of fc
        let params = g.op(a).param_count() * 4;
        for t in &sync {
            match t.kind {
                TaskKind::SyncComm { bytes, .. } => assert_eq!(bytes, params),
                _ => unreachable!(),
            }
        }
    }

    #[test]
    fn parameter_split_avoids_sync() {
        let mut g = OpGraph::new("one-linear");
        let x = g.add_input("x", TensorShape::new(&[8, 16]));
        let a = g
            .add_op(OpKind::Linear { out_features: 16 }, &[x], "fc")
            .unwrap();
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        // split the parameter dim 4 ways: each shard lives on one device
        let devs: Vec<_> = (0..4).map(|i| topo.device_id(i)).collect();
        let configs = vec![
            ParallelConfig::data_parallel(g.op(x), &topo),
            ParallelConfig::new(g.op(a), vec![1, 4], devs),
        ];
        let s = Strategy::from_configs(&g, configs);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let sync = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
            .count();
        assert_eq!(sync, 0, "unreplicated shards need no synchronization");
    }

    #[test]
    fn shared_layer_sync_counts_shard_once_across_ops() {
        // Two weight-tied embeddings on different devices: their shared
        // shard is replicated on 2 devices -> exactly 2 sync tasks.
        let mut g = OpGraph::new("tied");
        let x1 = g.add_input(
            "x1",
            TensorShape::with_dtype(&[8, 1], flexflow_tensor::DataType::I32),
        );
        let x2 = g.add_input(
            "x2",
            TensorShape::with_dtype(&[8, 1], flexflow_tensor::DataType::I32),
        );
        let layer = g.fresh_layer();
        let e1 = g
            .add_op_in_layer(OpKind::Embedding { vocab: 100, dim: 8 }, &[x1], "e1", layer)
            .unwrap();
        let e2 = g
            .add_op_in_layer(OpKind::Embedding { vocab: 100, dim: 8 }, &[x2], "e2", layer)
            .unwrap();
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let configs = vec![
            ParallelConfig::on_device(g.op(x1), topo.device_id(0)),
            ParallelConfig::on_device(g.op(x2), topo.device_id(1)),
            ParallelConfig::on_device(g.op(e1), topo.device_id(0)),
            ParallelConfig::on_device(g.op(e2), topo.device_id(1)),
        ];
        let s = Strategy::from_configs(&g, configs);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let sync = tg
            .iter()
            .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
            .count();
        assert_eq!(sync, 2, "one push + one broadcast for two replicas");
    }

    #[test]
    fn rebuild_op_preserves_structure_vs_fresh_build() {
        let (g, topo, cost) = setup();
        let cfg = SimConfig::default();
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        // change conv2 to single-device
        let conv2 = g.ids().nth(3).unwrap();
        assert_eq!(g.op(conv2).name(), "conv2");
        s.replace(
            conv2,
            ParallelConfig::on_device(g.op(conv2), topo.device_id(1)),
        );
        let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, conv2);
        assert!(!report.removed.is_empty());
        assert!(!report.added.is_empty());

        let fresh = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        assert_eq!(tg.num_tasks(), fresh.num_tasks());
        // same multiset of (kind-discriminant, unit, exe) across both graphs
        let sig = |tg: &TaskGraph| {
            let mut v: Vec<(u8, ExecUnit, u64)> = tg
                .iter()
                .map(|(_, t)| {
                    let d = match t.kind {
                        TaskKind::Compute { .. } => 0u8,
                        TaskKind::Comm { .. } => 1,
                        TaskKind::SyncComm { .. } => 2,
                        TaskKind::Recompute { .. } => 3,
                    };
                    (d, t.unit, t.exe_us.to_bits())
                })
                .collect();
            v.sort();
            v
        };
        assert_eq!(sig(&tg), sig(&fresh));
    }

    #[test]
    fn rebuild_reuses_slots() {
        let (g, topo, cost) = setup();
        let cfg = SimConfig::default();
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let cap_before = tg.capacity();
        let conv2 = g.ids().nth(3).unwrap();
        // flip back and forth 10 times; capacity should stay bounded
        for i in 0..10 {
            let new = if i % 2 == 0 {
                ParallelConfig::on_device(g.op(conv2), topo.device_id(1))
            } else {
                ParallelConfig::data_parallel(g.op(conv2), &topo)
            };
            s.replace(conv2, new);
            tg.rebuild_op(&g, &topo, &s, &cost, &cfg, conv2);
        }
        assert!(
            tg.capacity() <= cap_before + 16,
            "slots must be recycled: {} -> {}",
            cap_before,
            tg.capacity()
        );
    }

    #[test]
    fn ring_sync_builds_r_tasks_and_beats_parameter_server_at_scale() {
        let g = zoo::rnnlm(64, 2);
        // cross-node cluster where the PS root NIC becomes the bottleneck
        let topo = clusters::uniform_cluster(4, 1, 16.0, 2.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let ps_cfg = SimConfig::default();
        let ring_cfg = SimConfig {
            sync_mode: SyncMode::Ring,
            ..SimConfig::default()
        };
        let tg_ps = TaskGraph::build(&g, &topo, &s, &cost, &ps_cfg);
        let tg_ring = TaskGraph::build(&g, &topo, &s, &cost, &ring_cfg);
        let count_sync = |tg: &TaskGraph| {
            tg.iter()
                .filter(|(_, t)| matches!(t.kind, TaskKind::SyncComm { .. }))
                .count()
        };
        // PS: 2(R-1) per shard; ring: R per shard (R = 4)
        assert_eq!(count_sync(&tg_ps) / 6, count_sync(&tg_ring) / 4);
        let ps = crate::sim::simulate_full(&tg_ps).makespan_us();
        let ring = crate::sim::simulate_full(&tg_ring).makespan_us();
        assert!(
            ring < ps,
            "ring allreduce should beat the PS star across nodes: {ring} vs {ps}"
        );
    }

    #[test]
    fn ring_sync_delta_still_matches_full() {
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig {
            sync_mode: SyncMode::Ring,
            ..SimConfig::default()
        };
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = crate::sim::simulate_full(&tg);
        let op = g.ids().nth(3).unwrap();
        s.replace(op, ParallelConfig::on_device(g.op(op), topo.device_id(1)));
        let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
        let delta = crate::sim::simulate_delta(&tg, &mut state, &report);
        let fresh = crate::sim::simulate_full(&TaskGraph::build(&g, &topo, &s, &cost, &cfg));
        assert!((delta - fresh.makespan_us()).abs() < 1e-6);
    }

    #[test]
    fn rnn_graph_builds_with_hundreds_of_tasks() {
        let g = zoo::rnnlm(64, 4);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        assert!(tg.num_tasks() > g.len(), "multiple tasks per op");
    }
}
