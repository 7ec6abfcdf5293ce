//! The execution simulator (paper §5): the full simulation algorithm
//! (Algorithm 1) and the delta simulation algorithm (Algorithm 2).
//!
//! Both algorithms fill in the simulation-time task properties of paper
//! Table 2 (`readyTime`, `startTime`, `endTime`, and the per-device FIFO
//! order giving `preTask`/`nextTask`) and return the predicted
//! per-iteration execution time (the latest `endTime`).
//!
//! The FIFO tie-break is `(readyTime, seq)` where `seq` is the task's
//! creation sequence number; both algorithms use the same key, which makes
//! their timelines identical ("The full and delta simulation algorithms
//! always produce the same timeline for a given task graph", §5.3) — a
//! property the test-suite checks bit for bit.
//!
//! # Resumed sweep
//!
//! Algorithm 1 is a Dijkstra-style sweep: tasks are dequeued in
//! `(readyTime, seq)` order and appended to their unit's FIFO. The delta
//! algorithm is the same sweep **resumed at the first instant the rebuild
//! can influence**, `t_cut`: everything the old sweep dequeued before
//! `t_cut` is kept as it stands and only the rest of the rebuilt graph is
//! swept. There is no second route; `t_cut = 0` is the whole sweep.
//!
//! From the [`RebuildReport`], `t_cut` is the smallest of
//!
//! 1. the old `ready` of every removed task that was scheduled (which
//!    bounds the old `ready` of every [`RebuildReport::pred_changed`]
//!    survivor too: it was ready no earlier than the predecessor it lost),
//! 2. for every added task and every `pred_changed` survivor *none of
//!    whose current predecessors is added*: the latest old `end` among its
//!    predecessors (0 with none). A task with an added predecessor is
//!    bounded through that predecessor.
//!
//! Every survivor the old sweep dequeued with `ready < t_cut` (strictly) is
//! dequeued identically by a sweep of the rebuilt graph. By induction over
//! the dequeues below `t_cut`: if the two sweeps agree so far, their unit
//! clocks and the end times of everything dequeued agree. A task waiting in
//! the new sweep's heap with `ready < t_cut` has all its predecessors
//! dequeued already, none of them added (by induction), so rule 2 excludes
//! added tasks and `pred_changed` survivors; any other survivor has the
//! predecessors it had, hence the ready time it had, and waits in the old
//! heap too. Conversely a task waiting in the old heap with `ready < t_cut`
//! is neither removed nor `pred_changed` (rule 1), so it waits in the new
//! heap with the same key. Equal heaps below `t_cut` pop the same task
//! onto the same unit clock. The comparison is strict because an added
//! task may tie an old one at `t_cut` exactly and win on `seq`.
//!
//! Per-unit orders are appended in dequeue order, so each is sorted by
//! `(ready, seq)` and its kept prefix is a `partition_point`. The re-swept
//! set is the FIFO tails minus the removed slots plus the added ones; every
//! successor of a re-swept task is re-swept (its ready time is no earlier),
//! and the sweep asserts so, as it asserts that no re-swept task starts out
//! ready before the cut — a wrong cut panics instead of corrupting a
//! timeline.
//!
//! The sweep is **double-buffered**: it fills a spare timeline kept in the
//! caller's [`DeltaScratch`] (a resumed sweep first copies the live one
//! into it) and swaps the two. Inside a transaction the displaced timeline
//! is set aside whole, so nothing is journaled per slot: commit hands the
//! displaced buffers back to the scratch and rollback swaps them back in.
//! Execution units are dense indices and every per-sweep array is reused
//! across proposals.

use crate::metrics::DeltaTelemetry;
use crate::strategy::{Proposal, Strategy};
use crate::taskgraph::{ExecUnit, RebuildReport, TaskGraph, TaskId};

pub use crate::taskgraph::SimConfig;

/// Dense index of an execution unit: devices on the even numbers, links on
/// the odd ones, so the timeline's per-unit tables are plain vectors.
fn unit_index(unit: ExecUnit) -> usize {
    match unit {
        ExecUnit::Gpu(d) => 2 * d.index(),
        ExecUnit::Link(l) => 2 * l.index() + 1,
    }
}

/// `Timeline::unit_of` of a slot that is not scheduled.
const UNSCHEDULED: u32 = u32::MAX;

/// Execution order of one unit, in dequeue order — so sorted by
/// `(ready, seq)`.
#[derive(Debug, Clone, Default)]
struct UnitOrder {
    /// The unit, recorded when a task is scheduled here.
    unit: Option<ExecUnit>,
    fifo: Vec<TaskId>,
}

/// The simulated schedule proper: what a sweep writes and the double
/// buffer swaps.
#[derive(Debug, Clone, Default)]
struct Timeline {
    ready: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
    /// Dense index of the unit each slot is scheduled on ([`UNSCHEDULED`]
    /// for free slots).
    unit_of: Vec<u32>,
    /// The `seq` each slot was scheduled under; with `ready` it is the
    /// slot's FIFO key.
    seq: Vec<u128>,
    /// Execution order per dense unit index.
    orders: Vec<UnitOrder>,
    makespan: f64,
}

impl Timeline {
    /// Whether slot `i` holds a scheduled task.
    fn scheduled(&self, i: usize) -> bool {
        self.unit_of.get(i).is_some_and(|&u| u != UNSCHEDULED)
    }

    /// The order of unit `u`, empty for a unit that never ran a task.
    fn order(&self, u: usize) -> &[TaskId] {
        self.orders.get(u).map_or(&[], |o| &o.fifo)
    }

    /// The dense index of `unit`, with its order's table entry in place.
    fn touch_unit(&mut self, unit: ExecUnit) -> usize {
        let u = unit_index(unit);
        if self.orders.len() <= u {
            self.orders.resize_with(u + 1, UnitOrder::default);
        }
        self.orders[u].unit = Some(unit);
        u
    }
}

/// Simulation-time state: per-task times and per-unit execution order.
///
/// Supports transactions mirroring [`TaskGraph::begin_txn`]: between
/// [`SimState::begin_txn`] and [`SimState::rollback_txn`] the first sweep
/// sets the timeline it displaces aside whole, so a rejected proposal's
/// timeline is undone by a buffer swap instead of a second simulation or
/// a clone.
#[derive(Debug, Clone, Default)]
pub struct SimState {
    tl: Timeline,
    /// Open transaction, if any: the pre-transaction timeline once a sweep
    /// has displaced it.
    txn: Option<Option<Timeline>>,
}

/// Equality over the logical timeline: which slots are scheduled where,
/// their times and FIFO keys, the per-unit orders and the makespan.
/// Transaction plumbing and the contents of free slots are excluded.
impl PartialEq for SimState {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (&self.tl, &other.tl);
        let scheduled_eq = |i: usize| {
            a.unit_of[i] == UNSCHEDULED
                || (a.ready[i] == b.ready[i]
                    && a.start[i] == b.start[i]
                    && a.end[i] == b.end[i]
                    && a.seq[i] == b.seq[i])
        };
        a.makespan == b.makespan
            && a.unit_of == b.unit_of
            && (0..a.unit_of.len()).all(scheduled_eq)
            && (0..a.orders.len().max(b.orders.len())).all(|u| a.order(u) == b.order(u))
    }
}

impl SimState {
    /// Opens a transaction: subsequent [`simulate_delta_with`] calls can be
    /// undone until [`SimState::commit_txn`] or [`SimState::rollback_txn`].
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_txn(&mut self) {
        assert!(self.txn.is_none(), "timeline txn already open");
        self.txn = Some(None);
    }

    /// Closes the open transaction, keeping the new timeline. The buffers
    /// of the timeline a sweep displaced go to `scratch` for the next one.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self, scratch: &mut DeltaScratch) {
        if let Some(displaced) = self.txn.take().expect("no timeline txn open") {
            scratch.spare = displaced;
        }
    }

    /// Closes the open transaction, restoring the timeline to its exact
    /// `begin_txn` state: the displaced timeline is swapped back in and the
    /// discarded one's buffers go to `scratch`.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self, scratch: &mut DeltaScratch) {
        if let Some(displaced) = self.txn.take().expect("no timeline txn open") {
            scratch.spare = std::mem::replace(&mut self.tl, displaced);
        }
    }

    /// Whether a transaction is open.
    pub fn txn_active(&self) -> bool {
        self.txn.is_some()
    }

    /// The simulated per-iteration execution time in microseconds.
    pub fn makespan_us(&self) -> f64 {
        self.tl.makespan
    }

    /// `(readyTime, startTime, endTime)` of a task.
    ///
    /// # Panics
    ///
    /// Panics if the slot was never simulated.
    pub fn times(&self, id: TaskId) -> (f64, f64, f64) {
        let (tl, i) = (&self.tl, id.index());
        assert!(tl.scheduled(i), "task {id} is not scheduled");
        (tl.ready[i], tl.start[i], tl.end[i])
    }

    /// The execution order of a unit (empty if the unit never ran a task).
    pub fn order(&self, unit: ExecUnit) -> Vec<TaskId> {
        self.tl.order(unit_index(unit)).to_vec()
    }

    /// All units that execute at least one task.
    pub fn units(&self) -> impl Iterator<Item = ExecUnit> + '_ {
        self.tl
            .orders
            .iter()
            .filter(|o| !o.fifo.is_empty())
            .filter_map(|o| o.unit)
    }
}

/// Min-heap of the sweep's ready tasks in `(ready, seq)` order. An entry
/// is `(ready bits, slot)` — 16 bytes; the `seq` half of the key stays in
/// the timeline's side array and is read only to break a tie. (Times are
/// finite and non-negative, so `f64::to_bits` is order-preserving.)
#[derive(Debug, Default)]
struct ReadyHeap(Vec<(u64, u32)>);

impl ReadyHeap {
    #[inline]
    fn before(a: (u64, u32), b: (u64, u32), seq: &[u128]) -> bool {
        a.0 < b.0 || (a.0 == b.0 && seq[a.1 as usize] < seq[b.1 as usize])
    }

    fn push(&mut self, entry: (u64, u32), seq: &[u128]) {
        let v = &mut self.0;
        let mut i = v.len();
        v.push(entry);
        while i > 0 {
            let parent = (i - 1) / 2;
            if !Self::before(entry, v[parent], seq) {
                break;
            }
            v[i] = v[parent];
            i = parent;
        }
        v[i] = entry;
    }

    fn pop(&mut self, seq: &[u128]) -> Option<(u64, u32)> {
        let v = &mut self.0;
        let last = v.pop()?;
        let Some(&top) = v.first() else {
            return Some(last);
        };
        // Sift `last` down from the root.
        let (mut i, n) = (0, v.len());
        loop {
            let mut child = 2 * i + 1;
            if child >= n {
                break;
            }
            if child + 1 < n && Self::before(v[child + 1], v[child], seq) {
                child += 1;
            }
            if !Self::before(v[child], last, seq) {
                break;
            }
            v[i] = v[child];
            i = child;
        }
        v[i] = last;
        Some(top)
    }
}

/// What a resumed sweep does with a slot. The re-swept classes are the
/// ones from [`RESWEPT`] up.
type SlotClass = u8;
/// Free, or dequeued before the cut: its old times stand.
const KEPT: SlotClass = 0;
/// Removed by the rebuild and not recycled.
const REMOVED: SlotClass = 1;
/// A survivor dequeued at or after the cut.
const RESWEPT: SlotClass = 2;
/// Created by the rebuild: re-swept, and what the old timeline holds for
/// its slot belongs to a previous occupant.
const ADDED: SlotClass = 3;

/// Per-sweep working arrays, reused across sweeps.
#[derive(Debug, Default)]
struct SweepWork {
    class: Vec<SlotClass>,
    /// Unfinished re-swept predecessors per slot.
    remaining: Vec<u32>,
    /// Per slot: `exe_us` and where its successors sit in `succs`.
    tasks: Vec<(f64, std::ops::Range<u32>)>,
    /// Every successor list, flattened. The sweep visits tasks in time
    /// order, not slot order; reading successors from one flat array
    /// instead of each task's own allocation is what keeps a 200k-task
    /// sweep out of main memory.
    succs: Vec<TaskId>,
    /// When each unit finishes the last task appended to its order.
    free_at: Vec<f64>,
    heap: ReadyHeap,
}

/// The earliest instant the rebuild behind `report` can influence the
/// schedule `old` (rules 1–2 of the module docs); 0 when `old` does not
/// hold a task the rules read, as a fresh state does not. `class` marks
/// the added slots.
fn cut_time(tg: &TaskGraph, old: &Timeline, report: &RebuildReport, class: &[SlotClass]) -> f64 {
    let mut t_cut = f64::INFINITY;
    for &id in &report.removed {
        if old.scheduled(id.index()) {
            t_cut = t_cut.min(old.ready[id.index()]);
        }
    }
    for &id in report.added.iter().chain(&report.pred_changed) {
        let preds = &tg.task(id).preds;
        if preds.iter().any(|p| class[p.index()] == ADDED) {
            continue;
        }
        let mut latest = 0.0f64;
        for p in preds {
            if !old.scheduled(p.index()) {
                return 0.0;
            }
            latest = latest.max(old.end[p.index()]);
        }
        t_cut = t_cut.min(latest);
    }
    t_cut
}

/// The full simulation algorithm (paper Algorithm 1) into `tl`'s buffers:
/// a Dijkstra-style sweep that dequeues tasks in `(readyTime, seq)` order
/// and appends each to its unit's FIFO. With `resume` — the schedule of
/// the graph before a rebuild, and the rebuild's report — the sweep starts
/// at the report's cut time over a copy of that schedule (see the module
/// docs); without, or when the cut is 0, it sweeps the whole graph.
/// Whatever `tl` held is overwritten; nothing is allocated once the buffers
/// have grown to the graph's size. Returns the number of tasks dequeued.
fn sweep_into(
    tg: &TaskGraph,
    resume: Option<(&Timeline, &RebuildReport)>,
    tl: &mut Timeline,
    work: &mut SweepWork,
) -> usize {
    let SweepWork {
        class,
        remaining,
        tasks,
        succs,
        free_at,
        heap,
    } = work;
    let cap = tg.capacity();
    class.clear();
    class.resize(cap, KEPT);
    let resume = resume.and_then(|(old, report)| {
        for &id in &report.added {
            class[id.index()] = ADDED;
        }
        let t_cut = cut_time(tg, old, report, class);
        (t_cut > 0.0).then_some((old, report, t_cut))
    });

    match resume {
        Some((old, ..)) => {
            tl.ready.clone_from(&old.ready);
            tl.start.clone_from(&old.start);
            tl.end.clone_from(&old.end);
            tl.unit_of.clone_from(&old.unit_of);
            tl.seq.clone_from(&old.seq);
        }
        None => tl.unit_of.clear(),
    }
    tl.ready.resize(cap, 0.0);
    tl.start.resize(cap, 0.0);
    tl.end.resize(cap, 0.0);
    tl.unit_of.resize(cap, UNSCHEDULED);
    tl.seq.resize(cap, 0);
    for order in &mut tl.orders {
        order.fifo.clear();
    }
    free_at.clear();
    let mut kept = 0usize;
    let t_cut = resume.map_or(0.0, |(.., t_cut)| t_cut);
    if let Some((old, report, _)) = resume {
        for &id in &report.removed {
            let i = id.index();
            if class[i] != ADDED {
                class[i] = REMOVED;
                tl.unit_of[i] = UNSCHEDULED;
            }
        }
        if tl.orders.len() < old.orders.len() {
            tl.orders.resize_with(old.orders.len(), UnitOrder::default);
        }
        free_at.resize(tl.orders.len(), 0.0);
        for (u, o) in old.orders.iter().enumerate() {
            let (prefix, tail) = o
                .fifo
                .split_at(o.fifo.partition_point(|id| old.ready[id.index()] < t_cut));
            tl.orders[u].unit = o.unit;
            tl.orders[u].fifo.extend_from_slice(prefix);
            kept += prefix.len();
            if let Some(last) = prefix.last() {
                free_at[u] = old.end[last.index()];
            }
            for id in tail {
                let c = &mut class[id.index()];
                if *c == KEPT {
                    *c = RESWEPT;
                }
            }
        }
    } else {
        class.fill(RESWEPT);
    }

    // Set the re-swept tasks up in slot order, so the reads of the task
    // table are sequential.
    remaining.resize(cap, 0);
    tasks.resize(cap, (0.0, 0..0));
    succs.clear();
    heap.0.clear();
    let mut reswept = 0usize;
    for i in 0..cap {
        if class[i] < RESWEPT {
            continue;
        }
        // Only a whole sweep marks free slots.
        let Some(t) = tg.get(TaskId(i as u32)) else {
            continue;
        };
        reswept += 1;
        tl.unit_of[i] = tl.touch_unit(t.unit) as u32;
        tl.seq[i] = t.seq;
        // Predecessors before the cut have ended; the rest are counted.
        let (mut ready, mut waiting) = (0.0f64, 0u32);
        for p in &t.preds {
            if class[p.index()] >= RESWEPT {
                waiting += 1;
            } else {
                ready = ready.max(tl.end[p.index()]);
            }
        }
        tl.ready[i] = ready;
        remaining[i] = waiting;
        if waiting == 0 {
            assert!(
                ready >= t_cut,
                "task t{i} is ready at {ready}, before the cut at {t_cut}"
            );
            heap.0.push((ready.to_bits(), i as u32));
        }
        let first = succs.len() as u32;
        for s in &t.succs {
            assert!(
                class[s.index()] >= RESWEPT,
                "task {s} was kept before the cut but follows re-swept task t{i}"
            );
        }
        succs.extend_from_slice(&t.succs);
        tasks[i] = (t.exe_us, first..succs.len() as u32);
    }
    // Sorted by key, the initially ready tasks form a heap.
    heap.0
        .sort_unstable_by_key(|&(ready_bits, slot)| (ready_bits, tl.seq[slot as usize]));
    free_at.resize(tl.orders.len(), 0.0);

    let mut dequeued = 0usize;
    while let Some((ready_bits, slot)) = heap.pop(&tl.seq) {
        let i = slot as usize;
        let u = tl.unit_of[i] as usize;
        let start = f64::from_bits(ready_bits).max(free_at[u]);
        let (exe_us, ref succ_range) = tasks[i];
        let end = start + exe_us;
        tl.start[i] = start;
        tl.end[i] = end;
        free_at[u] = end;
        tl.orders[u].fifo.push(TaskId(slot));
        dequeued += 1;
        for &s in &succs[succ_range.start as usize..succ_range.end as usize] {
            let si = s.index();
            tl.ready[si] = tl.ready[si].max(end);
            remaining[si] -= 1;
            if remaining[si] == 0 {
                heap.push((tl.ready[si].to_bits(), s.0), &tl.seq);
            }
        }
    }
    assert_eq!(
        dequeued, reswept,
        "task graph has a cycle or dangling dependency"
    );
    assert_eq!(
        kept + dequeued,
        tg.num_tasks(),
        "the resumed timeline is not the schedule of the graph before the rebuild"
    );
    // End times are monotone along a unit's order (`start >= ` the previous
    // end, `exe >= 0`), so the latest end is some unit's last.
    tl.makespan = free_at.iter().copied().fold(0.0, f64::max);
    dequeued
}

/// The full simulation algorithm (paper Algorithm 1) into a fresh state.
pub fn simulate_full(tg: &TaskGraph) -> SimState {
    let mut state = SimState::default();
    sweep_into(tg, None, &mut state.tl, &mut SweepWork::default());
    state
}

/// Reusable workspace for [`simulate_delta_with`]: the sweep's working
/// arrays and the spare timeline of the double buffer survive across
/// calls, so steady-state proposals do no allocation proportional to graph
/// capacity. Owned per [`Simulator`].
///
/// # Threading contract
///
/// A scratch is `Send` but deliberately has no shared-use API: every
/// mutation goes through `&mut`, so the borrow checker enforces the
/// "one owner, one thread at a time" discipline — parallel search chains
/// each own their own scratch (inside their own [`Simulator`]) rather
/// than sharing one.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// The double buffer's other half: the next sweep writes here.
    spare: Timeline,
    sweep: SweepWork,
    /// Tasks the most recent call dequeued: the rebuilt graph's tasks from
    /// the cut on (telemetry).
    pub last_dequeued: u64,
    /// `true` after any call: every proposal is evaluated by a sweep.
    pub last_was_sweep: bool,
}

/// The delta simulation algorithm (paper Algorithm 2): given the previous
/// timeline and the [`RebuildReport`] of a structural change, brings the
/// timeline up to date with the rebuilt graph by re-running Algorithm 1
/// from the first instant the change can influence (see the module docs).
///
/// Returns the new makespan. The resulting state is identical to running
/// [`simulate_full`] on the updated graph. `state` must be the schedule of
/// the graph as it was before the rebuild, or fresh.
///
/// Convenience wrapper over [`simulate_delta_with`] that allocates a fresh
/// scratch; hot loops should hold a [`DeltaScratch`] and call the `_with`
/// variant (or drive a [`Simulator`], which does).
pub fn simulate_delta(tg: &TaskGraph, state: &mut SimState, report: &RebuildReport) -> f64 {
    simulate_delta_with(tg, state, report, &mut DeltaScratch::default())
}

/// [`simulate_delta`] with a caller-owned [`DeltaScratch`].
///
/// When `state` has an open transaction (see [`SimState::begin_txn`]),
/// the call can be rolled back exactly.
pub fn simulate_delta_with(
    tg: &TaskGraph,
    state: &mut SimState,
    report: &RebuildReport,
    scratch: &mut DeltaScratch,
) -> f64 {
    sweep_in_place(tg, state, scratch, Some(report))
}

/// Replaces the timeline with a sweep of the current graph — resumed from
/// the live timeline when the rebuild that led to the graph left a
/// `report`, whole otherwise. The sweep fills the scratch's spare
/// timeline, which is then swapped with the live one. Outside a
/// transaction the displaced timeline is the next spare; inside one it is
/// set aside until commit or rollback returns a set of buffers to the
/// scratch.
fn sweep_in_place(
    tg: &TaskGraph,
    state: &mut SimState,
    scratch: &mut DeltaScratch,
    report: Option<&RebuildReport>,
) -> f64 {
    let resume = report.map(|r| (&state.tl, r));
    scratch.last_dequeued = sweep_into(tg, resume, &mut scratch.spare, &mut scratch.sweep) as u64;
    scratch.last_was_sweep = true;
    std::mem::swap(&mut state.tl, &mut scratch.spare);
    if let Some(displaced @ None) = state.txn.as_mut() {
        *displaced = Some(std::mem::take(&mut scratch.spare));
    }
    state.tl.makespan
}

/// Which simulation algorithm a [`Simulator`] evaluates proposals with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimAlgorithm {
    /// Build the proposed strategy's task graph from scratch and sweep it
    /// (paper §5.2, Algorithm 1): the baseline of Table 4 / Fig. 12 and the
    /// reference the delta path is tested against.
    Full,
    /// Rebuild only the tasks the proposal touches, then resume the sweep
    /// of the previous timeline where the change begins (paper §5.3,
    /// Algorithm 2).
    #[default]
    Delta,
}

/// Convenience owner tying together a strategy, its task graph and its
/// timeline; the execution optimizer drives the search through this.
///
/// Proposal evaluation is **transactional**: [`Simulator::propose`] makes
/// a [`Proposal`]'s edit, brings task graph and timeline up to date and
/// returns the new cost; [`Simulator::commit`] keeps the result and
/// [`Simulator::rollback`] restores graph, timeline and strategy
/// bit-for-bit. How a proposal is evaluated is the simulator's
/// [`SimAlgorithm`], fixed at construction — the caller's loop is the same
/// under both, and both end in the same timeline:
///
/// - **Delta** ([`Simulator::new`]): journaled surgery on the task graph
///   (one op, one layer's sync chain, or every op for a microbatch change)
///   followed by a resumed sweep (see the module docs). Rollback replays
///   the graph's journal and swaps the displaced timeline back — no second
///   simulation, no structure clone. Rejected proposals dominate an MCMC
///   walk, so this is the hot path of the whole search.
/// - **Full** ([`Simulator::with_algorithm`]): the proposed strategy's
///   task graph is built from scratch and swept into the double buffer;
///   the displaced graph is set aside whole, dropped on commit and swapped
///   back on rollback, so a rejected proposal costs one build, not two.
///
/// # Threading contract
///
/// A `Simulator` is `Send` — the search driver
/// ([`crate::optimizer::SearchRequest`]) constructs one *per chain*
/// inside each worker thread over shared `&OpGraph` / `&Topology` /
/// `&dyn CostModel` borrows (the [`flexflow_costmodel::CostModel`] trait
/// requires `Send + Sync`, so the cost oracle may be queried from many
/// chains at once). The mutable transaction state (task graph, timeline,
/// scratch arena, undo journals) is all owned, and every mutating method
/// takes `&mut self`, so cross-thread *sharing* of one simulator is ruled
/// out by the borrow checker rather than by convention: one simulator, one
/// chain, one thread at a time.
pub struct Simulator<'a> {
    graph: &'a flexflow_opgraph::OpGraph,
    topo: &'a flexflow_device::Topology,
    cost: &'a dyn flexflow_costmodel::CostModel,
    cfg: SimConfig,
    algorithm: SimAlgorithm,
    strategy: Strategy,
    tg: TaskGraph,
    state: SimState,
    scratch: DeltaScratch,
    /// The open proposal: the edit that undoes it and, under
    /// [`SimAlgorithm::Full`], the task graph it displaced (under
    /// [`SimAlgorithm::Delta`] the graph restores itself from its journal,
    /// as the timeline does under both).
    txn: Option<(Proposal, Option<TaskGraph>)>,
    telemetry: DeltaTelemetry,
}

impl<'a> Simulator<'a> {
    /// Builds the task graph for `strategy` and runs a full simulation;
    /// proposals are then evaluated by delta simulation.
    ///
    /// Building is the expensive part (a full task-graph materialization
    /// plus a sweep), so a search chain constructs its simulator once and
    /// drives it transactionally; dropping the result to rebuild per
    /// proposal forfeits the delta path entirely.
    #[must_use = "building a Simulator runs a full simulation; drive it instead of discarding it"]
    pub fn new(
        graph: &'a flexflow_opgraph::OpGraph,
        topo: &'a flexflow_device::Topology,
        cost: &'a dyn flexflow_costmodel::CostModel,
        cfg: SimConfig,
        strategy: Strategy,
    ) -> Self {
        Self::with_algorithm(graph, topo, cost, cfg, strategy, SimAlgorithm::Delta)
    }

    /// [`Simulator::new`] with an explicit proposal-evaluation algorithm.
    #[must_use = "building a Simulator runs a full simulation; drive it instead of discarding it"]
    pub fn with_algorithm(
        graph: &'a flexflow_opgraph::OpGraph,
        topo: &'a flexflow_device::Topology,
        cost: &'a dyn flexflow_costmodel::CostModel,
        cfg: SimConfig,
        strategy: Strategy,
        algorithm: SimAlgorithm,
    ) -> Self {
        let tg = TaskGraph::build(graph, topo, &strategy, cost, &cfg);
        let mut sim = Self {
            graph,
            topo,
            cost,
            cfg,
            algorithm,
            strategy,
            tg,
            state: SimState::default(),
            scratch: DeltaScratch::default(),
            txn: None,
            telemetry: DeltaTelemetry::default(),
        };
        sweep_in_place(&sim.tg, &mut sim.state, &mut sim.scratch, None);
        sim
    }

    /// The operator graph being parallelized.
    pub fn graph(&self) -> &'a flexflow_opgraph::OpGraph {
        self.graph
    }

    /// The device topology being targeted.
    pub fn topology(&self) -> &'a flexflow_device::Topology {
        self.topo
    }

    /// The current strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// The current predicted iteration time in microseconds.
    pub fn cost_us(&self) -> f64 {
        self.state.makespan_us()
    }

    /// The current task graph.
    pub fn task_graph(&self) -> &TaskGraph {
        &self.tg
    }

    /// The current timeline.
    pub fn state(&self) -> &SimState {
        &self.state
    }

    /// Cumulative transaction/sweep telemetry.
    pub fn telemetry(&self) -> DeltaTelemetry {
        self.telemetry
    }

    /// Brings the timeline up to date with the task graph: a sweep resumed
    /// at the cut of a journaled rebuild's `report`, whole without one.
    fn sweep(&mut self, report: Option<&RebuildReport>) -> f64 {
        let cost = sweep_in_place(&self.tg, &mut self.state, &mut self.scratch, report);
        self.telemetry.sweeps += 1;
        self.telemetry.dequeued += self.scratch.last_dequeued;
        cost
    }

    /// Speculatively makes the edit `p` describes and returns the new
    /// cost. The change stays pending until [`Simulator::commit`] keeps it
    /// or [`Simulator::rollback`] undoes it; proposing again first commits
    /// the pending change (so sequential non-speculative use — propose,
    /// propose, … — needs no commits).
    ///
    /// Under [`SimAlgorithm::Delta`] a configuration change or recompute
    /// flip rebuilds the op's compute, recompute, tensor-edge and
    /// layer-sync tasks ([`TaskGraph::rebuild_op`]); a parameter-sync
    /// change rebuilds only its layer's sync chain
    /// ([`TaskGraph::rebuild_layer_sync`]; ops without a layer are
    /// structural no-ops, and the change is effective when `op` is its
    /// layer's mode source, see [`crate::soap::sync_ops`]); a microbatch
    /// change touches every op, so the whole graph is rebuilt under the
    /// journal and the timeline swept.
    pub fn propose(&mut self, p: Proposal) -> f64 {
        self.commit();
        let undo = self.strategy.apply(p);
        self.state.begin_txn();
        let (graph, topo, cost, cfg) = (self.graph, self.topo, self.cost, self.cfg);
        let (new_cost, displaced) = match self.algorithm {
            SimAlgorithm::Full => {
                let built = TaskGraph::build(graph, topo, &self.strategy, cost, &cfg);
                let displaced = std::mem::replace(&mut self.tg, built);
                (self.sweep(None), Some(displaced))
            }
            SimAlgorithm::Delta => {
                self.tg.begin_txn();
                let s = &self.strategy;
                let new_cost = match undo {
                    Proposal::Config(op, _) | Proposal::Recompute(op, _) => {
                        let report = self.tg.rebuild_op(graph, topo, s, cost, &cfg, op);
                        self.sweep(Some(&report))
                    }
                    Proposal::Microbatches(_) => {
                        self.tg.rebuild_all(graph, topo, s, cost, &cfg);
                        self.sweep(None)
                    }
                    Proposal::ParamSync(op, _) => match graph.op(op).layer() {
                        Some(layer) => {
                            let report = self
                                .tg
                                .rebuild_layer_sync(graph, topo, s, cost, &cfg, layer);
                            self.sweep(Some(&report))
                        }
                        None => self.state.makespan_us(),
                    },
                };
                (new_cost, None)
            }
        };
        self.txn = Some((undo, displaced));
        self.telemetry.applies += 1;
        let depth = self.tg.journal_depth();
        self.telemetry.journal_slots += depth as u64;
        self.telemetry.max_journal_depth = self.telemetry.max_journal_depth.max(depth);
        new_cost
    }

    /// [`Simulator::propose`] of a [`Proposal::Config`].
    pub fn apply(
        &mut self,
        op: flexflow_opgraph::OpId,
        config: crate::soap::ParallelConfig,
    ) -> f64 {
        self.propose(Proposal::Config(op, config))
    }

    /// [`Simulator::propose`] of a [`Proposal::Microbatches`].
    pub fn apply_microbatches(&mut self, m: u64) -> f64 {
        self.propose(Proposal::Microbatches(m))
    }

    /// [`Simulator::propose`] of a [`Proposal::ParamSync`].
    pub fn apply_param_sync(
        &mut self,
        op: flexflow_opgraph::OpId,
        mode: crate::soap::ParamSync,
    ) -> f64 {
        self.propose(Proposal::ParamSync(op, mode))
    }

    /// [`Simulator::propose`] of a [`Proposal::Recompute`].
    pub fn apply_recompute(&mut self, op: flexflow_opgraph::OpId, on: bool) -> f64 {
        self.propose(Proposal::Recompute(op, on))
    }

    /// Keeps the pending proposal. No-op when nothing is pending.
    pub fn commit(&mut self) {
        if let Some((_, displaced)) = self.txn.take() {
            if displaced.is_none() {
                self.tg.commit_txn();
            }
            self.state.commit_txn(&mut self.scratch);
            self.telemetry.commits += 1;
        }
    }

    /// Undoes the pending proposal; strategy, task graph and timeline
    /// return to their exact pre-[`Simulator::propose`] state. Returns the
    /// (restored) cost. No-op when nothing is pending.
    pub fn rollback(&mut self) -> f64 {
        if let Some((undo, displaced)) = self.txn.take() {
            self.strategy.apply(undo);
            match displaced {
                Some(tg) => self.tg = tg,
                None => self.tg.rollback_txn(),
            }
            self.state.rollback_txn(&mut self.scratch);
            self.telemetry.rollbacks += 1;
        }
        self.state.makespan_us()
    }

    /// Replaces the entire strategy, rebuilding and fully re-simulating
    /// (into the double buffer's spare). Commits any pending proposal
    /// first.
    pub fn reset(&mut self, strategy: Strategy) -> f64 {
        self.commit();
        self.strategy = strategy;
        self.tg = TaskGraph::build(self.graph, self.topo, &self.strategy, self.cost, &self.cfg);
        sweep_in_place(&self.tg, &mut self.state, &mut self.scratch, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::soap::{ParallelConfig, ParamSync};
    use flexflow_costmodel::{CostModel, MeasuredCostModel};
    use flexflow_device::{clusters, DeviceKind, Topology};
    use flexflow_opgraph::{zoo, OpGraph, OpKind, OpNode};
    use flexflow_tensor::{Rect, TensorShape};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A cost model with fixed per-op-kind times, for hand-checkable
    /// timelines.
    struct FixedCost;

    impl CostModel for FixedCost {
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

    /// The paper's Fig. 5 setting: a 3-layer RNN (embedding, recurrent,
    /// linear), 2 unroll steps, model parallelism with one layer per GPU.
    fn fig5_graph() -> OpGraph {
        let mut g = OpGraph::new("fig5");
        let x1 = g.add_input(
            "x1",
            TensorShape::with_dtype(&[2, 1], flexflow_tensor::DataType::I32),
        );
        let x2 = g.add_input(
            "x2",
            TensorShape::with_dtype(&[2, 1], flexflow_tensor::DataType::I32),
        );
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
        g
    }

    /// A 3-GPU chain topology: transfer of any size takes exactly 1us
    /// (huge bandwidth, 1us latency), mirroring Fig. 5's unit-time
    /// transfers.
    fn fig5_topo() -> Topology {
        clusters::uniform_cluster(1, 3, 1e9, 1e9)
    }

    fn fig5_strategy(g: &OpGraph, topo: &Topology) -> Strategy {
        // inputs on the GPU of their consumer layer; o1,o2 -> gpu0;
        // o3,o4 -> gpu1; o5,o6 -> gpu2. No intra-op parallelism.
        let dev = |i: usize| topo.device_id(i);
        let place = |name: &str| -> usize {
            match name {
                "x1" | "x2" | "o1" | "o2" => 0,
                "h0" | "o3" | "o4" => 1,
                _ => 2,
            }
        };
        let configs = g
            .ids()
            .map(|id| ParallelConfig::on_device(g.op(id), dev(place(g.op(id).name()))))
            .collect();
        Strategy::from_configs(g, configs)
    }

    fn fig5_cfg() -> SimConfig {
        SimConfig {
            activation_comm_multiplier: 1.0,
            include_param_sync: false,
            ..SimConfig::default()
        }
    }

    /// Transfers in the Fig. 5 topology take 1us latency plus a negligible
    /// bandwidth term; compare with a loose epsilon.
    fn assert_close(got: f64, want: f64) {
        assert!((got - want).abs() < 1e-6, "got {got}, want {want}");
    }

    #[test]
    fn fig5_model_parallel_timeline() {
        let g = fig5_graph();
        let topo = fig5_topo();
        let s = fig5_strategy(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &fig5_cfg());
        let state = simulate_full(&tg);

        let task_of = |name: &str| {
            let id = g.ids().find(|&i| g.op(i).name() == name).unwrap();
            tg.tasks_of_op(id)[0]
        };
        // GPU0 runs o1 then o2 back to back (exe 2 each).
        let (r1, s1, e1) = state.times(task_of("o1"));
        assert_close(r1, 0.0);
        assert_close(s1, 0.0);
        assert_close(e1, 2.0);
        let (_, s2, e2) = state.times(task_of("o2"));
        assert_close(s2, 2.0);
        assert_close(e2, 4.0);
        // o3 waits for o1's transfer (1us): ready 3, exe 1.
        let (r3, _, e3) = state.times(task_of("o3"));
        assert_close(r3, 3.0);
        assert_close(e3, 4.0);
        // o4 needs o2's transfer (ends 5) and o3 (ends 4): ready 5.
        let (r4, _, e4) = state.times(task_of("o4"));
        assert_close(r4, 5.0);
        assert_close(e4, 6.0);
        // o5 needs o3's transfer (ends 5): exe 3 -> ends 8.
        let (r5, _, e5) = state.times(task_of("o5"));
        assert_close(r5, 5.0);
        assert_close(e5, 8.0);
        // o6 needs o4's transfer (ends 7) but GPU2 is busy until 8.
        let (r6, s6, e6) = state.times(task_of("o6"));
        assert_close(r6, 7.0);
        assert_close(s6, 8.0);
        assert_close(e6, 11.0);
        assert_close(state.makespan_us(), 11.0);
    }

    #[test]
    fn communication_overlaps_computation() {
        // In the Fig.5 timeline, the o2 compute (2..4 on GPU0) overlaps the
        // o1->o3 transfer (2..3 on the link): verify the link order.
        let g = fig5_graph();
        let topo = fig5_topo();
        let s = fig5_strategy(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &fig5_cfg());
        let state = simulate_full(&tg);
        let link_tasks: Vec<TaskId> = tg
            .iter()
            .filter(|(_, t)| matches!(t.unit, ExecUnit::Link(_)))
            .map(|(id, _)| id)
            .collect();
        assert!(!link_tasks.is_empty());
        let first_comm_start = link_tasks
            .iter()
            .map(|&id| state.times(id).1)
            .fold(f64::INFINITY, f64::min);
        assert!(
            (first_comm_start - 2.0).abs() < 1e-6,
            "transfer starts as soon as o1 ends, got {first_comm_start}"
        );
    }

    #[test]
    fn fifo_contention_serializes_same_unit() {
        // Two ops on one GPU with no dependency: FIFO forces them back to
        // back even though both are ready at 0... here o1/o2 already cover
        // this; check the sum matches serial execution.
        let g = fig5_graph();
        let topo = fig5_topo();
        let s = fig5_strategy(&g, &topo);
        let tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &fig5_cfg());
        let state = simulate_full(&tg);
        let gpu0 = ExecUnit::Gpu(topo.device_id(0));
        let order = state.order(gpu0);
        // input tasks (exe 0) then o1 then o2
        let compute: Vec<TaskId> = order
            .iter()
            .copied()
            .filter(|&t| tg.task(t).exe_us > 0.0)
            .collect();
        assert_eq!(compute.len(), 2);
        let (_, s_a, e_a) = state.times(compute[0]);
        let (_, s_b, _) = state.times(compute[1]);
        assert!(s_b >= e_a, "no overlap on one device");
        assert_eq!(s_a, 0.0);
    }

    #[test]
    fn delta_equals_full_after_single_change() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);

        let op = g.ids().nth(3).unwrap(); // conv2
        s.replace(op, ParallelConfig::on_device(g.op(op), topo.device_id(2)));
        let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
        let delta_cost = simulate_delta(&tg, &mut state, &report);

        let fresh = simulate_full(&TaskGraph::build(&g, &topo, &s, &cost, &cfg));
        assert!(
            (delta_cost - fresh.makespan_us()).abs() < 1e-6,
            "delta {delta_cost} vs full {}",
            fresh.makespan_us()
        );
    }

    #[test]
    fn delta_equals_full_over_random_walk() {
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(42);
        let searchable = Strategy::searchable_ops(&g);

        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);
        for step in 0..60 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = crate::soap::random_config(
                g.op(op),
                &topo,
                crate::soap::ConfigSpace::Full,
                &mut rng,
            );
            s.replace(op, config);
            let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
            let delta_cost = simulate_delta(&tg, &mut state, &report);
            let fresh = simulate_full(&TaskGraph::build(&g, &topo, &s, &cost, &cfg));
            assert!(
                (delta_cost - fresh.makespan_us()).abs() < 1e-6,
                "step {step}: delta {delta_cost} vs full {}",
                fresh.makespan_us()
            );
        }
    }

    #[test]
    fn rootless_additions_and_fresh_states_take_the_whole_sweep() {
        let g = fig5_graph();
        let topo = fig5_topo();
        let cfg = fig5_cfg();
        let mut s = fig5_strategy(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &FixedCost, &cfg);
        let mut state = simulate_full(&tg);
        let mut scratch = DeltaScratch::default();
        let op_named = |name: &str| g.ids().find(|&i| g.op(i).name() == name).unwrap();

        // Moving an input re-creates its task, which has no predecessor:
        // the cut is 0.
        let x2 = op_named("x2");
        s.replace(x2, ParallelConfig::on_device(g.op(x2), topo.device_id(2)));
        let report = tg.rebuild_op(&g, &topo, &s, &FixedCost, &cfg, x2);
        assert!(report.added.iter().any(|&id| tg.task(id).preds.is_empty()));
        let cost = simulate_delta_with(&tg, &mut state, &report, &mut scratch);
        assert_eq!(scratch.last_dequeued, tg.num_tasks() as u64);
        assert_eq!(cost.to_bits(), state.makespan_us().to_bits());
        assert!(state == simulate_full(&tg));

        // Moving the last op cuts late — unless nothing is scheduled yet.
        let o6 = op_named("o6");
        s.replace(o6, ParallelConfig::on_device(g.op(o6), topo.device_id(0)));
        let report = tg.rebuild_op(&g, &topo, &s, &FixedCost, &cfg, o6);
        let mut fresh = SimState::default();
        simulate_delta_with(&tg, &mut fresh, &report, &mut scratch);
        assert_eq!(scratch.last_dequeued, tg.num_tasks() as u64);
        simulate_delta_with(&tg, &mut state, &report, &mut scratch);
        assert!(scratch.last_dequeued < tg.num_tasks() as u64);
        assert!(fresh == state && state == simulate_full(&tg));
    }

    #[test]
    fn a_survivor_that_only_loses_a_predecessor_pulls_the_cut_back() {
        // Two weight-tied linears far apart in time: the layer's sync tasks
        // wait for both. Rebuilding the late one *without* parameter sync
        // (the test's way to a rebuild no proposal makes: the sync tasks
        // survive and lose a predecessor without being handed a new one)
        // makes them ready when the early linear ends — before anything
        // removed or added.
        let mut g = OpGraph::new("tied");
        let x = g.add_input("x", TensorShape::new(&[8, 16]));
        let layer = g.fresh_layer();
        let linear = OpKind::Linear { out_features: 16 };
        let mut last = g
            .add_op_in_layer(linear.clone(), &[x], "early", layer)
            .unwrap();
        for i in 0..3 {
            last = g
                .add_op(linear.clone(), &[last], format!("mid{i}"))
                .unwrap();
        }
        let late = g.add_op_in_layer(linear, &[last], "late", layer).unwrap();
        let topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);
        let late_ready = state.times(tg.tasks_of_op(late)[0]).0;

        let no_sync = SimConfig {
            include_param_sync: false,
            ..cfg
        };
        let report = tg.rebuild_op(&g, &topo, &s, &cost, &no_sync, late);
        let orphaned = |id: &TaskId| tg.task(*id).preds.iter().all(|p| !report.added.contains(p));
        assert!(report.pred_changed.iter().any(orphaned));
        let mut scratch = DeltaScratch::default();
        simulate_delta_with(&tg, &mut state, &report, &mut scratch);
        assert!(state == simulate_full(&tg));
        let sync_ready = report
            .pred_changed
            .iter()
            .map(|&id| state.times(id).0)
            .fold(f64::INFINITY, f64::min);
        assert!(sync_ready < late_ready, "{sync_ready} vs {late_ready}");
    }

    #[test]
    fn simulator_apply_and_revert_roundtrip() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        let c0 = sim.cost_us();
        let op = Strategy::searchable_ops(&g)[2];
        let old = sim.strategy().config(op).clone();
        let _c1 = sim.apply(op, ParallelConfig::on_device(g.op(op), topo.device_id(0)));
        let c2 = sim.apply(op, old);
        assert!(
            (c0 - c2).abs() < 1e-6,
            "revert must restore cost: {c0} vs {c2}"
        );
    }

    #[test]
    fn rollback_restores_graph_timeline_and_strategy_exactly() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s.clone());
        let tg0 = sim.task_graph().clone();
        let st0 = sim.state().clone();
        let c0 = sim.cost_us();
        let op = Strategy::searchable_ops(&g)[2];
        let c1 = sim.apply(op, ParallelConfig::on_device(g.op(op), topo.device_id(1)));
        assert_ne!(c0.to_bits(), c1.to_bits(), "the proposal must change cost");
        let c2 = sim.rollback();
        assert_eq!(c0.to_bits(), c2.to_bits(), "rollback must restore cost");
        assert!(sim.task_graph() == &tg0, "task graph must be bit-identical");
        assert!(sim.state() == &st0, "timeline must be bit-identical");
        assert_eq!(sim.strategy(), &s);
        let t = sim.telemetry();
        assert_eq!((t.applies, t.commits, t.rollbacks), (1, 0, 1));
        assert!(t.max_journal_depth > 0);
    }

    #[test]
    fn commit_keeps_the_applied_proposal() {
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        let op = Strategy::searchable_ops(&g)[1];
        let c1 = sim.apply(op, ParallelConfig::on_device(g.op(op), topo.device_id(3)));
        sim.commit();
        // rollback after commit is a no-op: the change is permanent
        let c2 = sim.rollback();
        assert_eq!(c1.to_bits(), c2.to_bits());
        let fresh = simulate_full(&TaskGraph::build(
            &g,
            &topo,
            sim.strategy(),
            &cost,
            &SimConfig::default(),
        ));
        assert!((c1 - fresh.makespan_us()).abs() < 1e-6);
    }

    /// Counts the cost-model queries a task-graph build makes.
    #[derive(Default)]
    struct CountingCost(std::sync::atomic::AtomicU64);

    impl CountingCost {
        fn take(&self) -> u64 {
            self.0.swap(0, std::sync::atomic::Ordering::Relaxed)
        }
    }

    impl CostModel for CountingCost {
        fn task_time_us(&self, node: &OpNode, out: &Rect, device: DeviceKind) -> f64 {
            self.0.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            FixedCost.task_time_us(node, out, device)
        }
    }

    #[test]
    fn full_rollback_swaps_the_displaced_graph_back_without_a_second_build() {
        let g = zoo::rnnlm(8, 2);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = CountingCost::default();
        let cfg = SimConfig::default();
        let s = Strategy::data_parallel(&g, &topo);
        let op = crate::soap::sync_ops(&g)[0];
        let proposals = [
            Proposal::Config(op, ParallelConfig::on_device(g.op(op), topo.device_id(1))),
            Proposal::Microbatches(2),
            Proposal::ParamSync(op, ParamSync::ShardedZero1 { shards: 2 }),
            Proposal::Recompute(op, true),
        ];
        let mut sim =
            Simulator::with_algorithm(&g, &topo, &cost, cfg, s.clone(), SimAlgorithm::Full);
        for p in proposals {
            let mut proposed = s.clone();
            proposed.apply(p.clone());
            cost.take();
            let _ = TaskGraph::build(&g, &topo, &proposed, &cost, &cfg);
            let one_build = cost.take();
            assert!(one_build > 0);

            let c0 = sim.cost_us();
            sim.propose(p.clone());
            assert_eq!(sim.strategy(), &proposed);
            assert_eq!(sim.rollback().to_bits(), c0.to_bits());
            assert_eq!(
                cost.take(),
                one_build,
                "{p:?}: a rejected proposal is one build"
            );

            let fresh = Simulator::new(&g, &topo, &cost, cfg, s.clone());
            assert_eq!(sim.strategy(), &s);
            assert!(sim.state() == fresh.state(), "{p:?}: timeline not restored");
            assert!(
                sim.task_graph() == fresh.task_graph(),
                "{p:?}: graph not restored"
            );
        }
        let t = sim.telemetry();
        assert_eq!((t.applies, t.commits, t.rollbacks, t.sweeps), (4, 0, 4, 4));
    }

    #[test]
    fn rollback_without_pending_txn_is_a_noop() {
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        let c0 = sim.cost_us();
        assert_eq!(sim.rollback().to_bits(), c0.to_bits());
        sim.commit(); // also a no-op
        assert_eq!(sim.cost_us().to_bits(), c0.to_bits());
        assert_eq!(sim.telemetry().rollbacks, 0);
    }

    #[test]
    fn rollback_after_many_speculative_applies_matches_fresh_build() {
        // Interleave committed moves with rolled-back speculation and keep
        // checking the live cost against a from-scratch evaluation.
        let g = zoo::lenet(32);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let searchable = Strategy::searchable_ops(&g);
        let mut rng = StdRng::seed_from_u64(7);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, Strategy::data_parallel(&g, &topo));
        for step in 0..40 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = crate::soap::random_config(
                g.op(op),
                &topo,
                crate::soap::ConfigSpace::Full,
                &mut rng,
            );
            let before = sim.cost_us();
            let tg_before = sim.task_graph().clone();
            let st_before = sim.state().clone();
            let applied = sim.apply(op, config);
            if step % 3 == 0 {
                sim.commit();
                let fresh =
                    simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
                assert!(
                    (applied - fresh.makespan_us()).abs() < 1e-6,
                    "step {step}: committed {applied} vs fresh {}",
                    fresh.makespan_us()
                );
            } else {
                let restored = sim.rollback();
                assert_eq!(before.to_bits(), restored.to_bits(), "step {step}");
                assert!(sim.task_graph() == &tg_before, "step {step}: graph drifted");
                assert!(sim.state() == &st_before, "step {step}: timeline drifted");
            }
        }
    }

    #[test]
    fn simulator_and_scratch_are_send() {
        // The threading contract the parallel search driver relies on:
        // per-chain simulators may be constructed on (moved to) worker
        // threads. Compile-time check; fails to build if a non-Send field
        // ever sneaks in.
        fn assert_send<T: Send>() {}
        assert_send::<Simulator<'static>>();
        assert_send::<DeltaScratch>();
        assert_send::<SimState>();
    }

    #[test]
    fn makespan_positive_and_monotone_in_device_count() {
        // Single device should be slower than 4 devices under data
        // parallelism for a compute-heavy CNN.
        let g = zoo::lenet(64);
        let cost = MeasuredCostModel::paper_default();
        let topo1 = clusters::uniform_cluster(1, 1, 16.0, 4.0);
        let topo4 = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let c1 = Simulator::new(
            &g,
            &topo1,
            &cost,
            SimConfig::default(),
            Strategy::data_parallel(&g, &topo1),
        )
        .cost_us();
        let c4 = Simulator::new(
            &g,
            &topo4,
            &cost,
            SimConfig::default(),
            Strategy::data_parallel(&g, &topo4),
        )
        .cost_us();
        assert!(c1 > 0.0 && c4 > 0.0);
        assert!(c4 < c1, "4-GPU DP should beat 1 GPU: {c4} vs {c1}");
    }
}
