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
//! # Sweep first
//!
//! A proposal is evaluated by one of two routes that end in the same
//! timeline: a **sweep** (Algorithm 1 over the already-rebuilt task graph)
//! or a **repair** (Algorithm 2 from the rebuild's dirty set).
//! [`simulate_delta_with`] picks before it touches the timeline. It
//! estimates the dirty suffix — scheduled tasks ending at or after the
//! earliest dirty ready time, on the islands the rebuild touched — and
//! repairs only when [`REPAIR_ADMIT_RATIO`]` × suffix < tasks`. An admitted
//! repair may pop as many tasks as that suffix; one that needs more is
//! re-processing waves (a task is re-popped once per predecessor whose end
//! time moved), is abandoned, and the proposal is swept: the pops lost are
//! a fraction of the sweep that follows.
//!
//! The sweep is **double-buffered**: it fills a spare timeline kept in the
//! caller's [`DeltaScratch`] and swaps it with the live one. Inside a
//! transaction the displaced timeline is set aside whole, so a sweep
//! journals no slot, commit hands the displaced buffers back to the
//! scratch, and rollback swaps them back in (then undoes the slots an
//! abandoned repair had touched). Execution units are dense indices, every
//! per-sweep array is reused across proposals, and per-unit FIFO orders
//! are appended in sweep order; a repair turns the orders of the units it
//! touches into B-trees on first use.
//!
//! # Hierarchical timelines
//!
//! On multi-node clusters the delta repair frontier is **island-keyed**:
//! every task carries the island of its execution unit ([`crate::taskgraph::Task::island`] —
//! an NVLink/NVSwitch island on hierarchical topologies, a node on flat
//! ones), and [`DeltaScratch`] holds one repair queue per island plus a
//! shared cross-island queue for spine-link tasks. A frontier heap over
//! the islands coordinates the queues, and a bounded horizon
//! ([`REPAIR_HORIZON_US`]) lets an island drain its local work without a
//! cross-island heap operation per task. The horizon changes only the
//! *processing order* of the fixpoint iteration — never its result: the
//! repair runs until no task's times would change, and that fixpoint is
//! the unique full-simulation timeline.
//!
//! The makespan recomputation and the dirty-suffix estimate are per-unit
//! walks that exploit the FIFO monotonicity of end times (`O(units)` and
//! `O(suffix + units)`), so the cost of evaluating a proposal confined to
//! one island does not grow with the task count of the other 63.

use crate::metrics::DeltaTelemetry;
use crate::strategy::{Proposal, Strategy};
use crate::taskgraph::{ExecUnit, RebuildReport, TaskGraph, TaskId};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};

pub use crate::taskgraph::SimConfig;

/// `(ready, seq)` order key of the ready queues and the per-unit FIFO
/// orders (`ready` as sort bits).
type OrderKey = (u64, u128);

/// Times are finite and non-negative, so `f64::to_bits` is order-preserving.
fn key(ready: f64, seq: u128) -> OrderKey {
    debug_assert!(ready >= 0.0 && ready.is_finite());
    (ready.to_bits(), seq)
}

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

/// Execution order of one unit. A sweep appends to `fifo`; the first
/// repair that touches the unit moves the entries into `tree`, keyed by
/// `(ready, seq)`, so it can reposition a task in `O(log n)` — heavy
/// proposals put hundreds of thousands of communication tasks on one link
/// queue. At most one of the two is non-empty.
#[derive(Debug, Clone, Default)]
struct UnitOrder {
    /// The unit and its island, recorded when a task is scheduled here (a
    /// pure function of the topology, so never stale and never journaled).
    unit: Option<ExecUnit>,
    island: u32,
    fifo: Vec<TaskId>,
    tree: BTreeMap<OrderKey, TaskId>,
}

impl UnitOrder {
    fn iter(&self) -> impl DoubleEndedIterator<Item = TaskId> + '_ {
        self.fifo.iter().chain(self.tree.values()).copied()
    }
}

/// The simulated schedule proper: what a sweep rewrites wholesale and the
/// double buffer swaps.
#[derive(Debug, Clone, Default)]
struct Timeline {
    ready: Vec<f64>,
    start: Vec<f64>,
    end: Vec<f64>,
    /// Dense index of the unit each slot is scheduled on ([`UNSCHEDULED`]
    /// for free slots). Kept per slot, like `seq`, so a slot recycled to a
    /// *new* task by a rebuild can still be unscheduled from its old
    /// position.
    unit_of: Vec<u32>,
    /// The `seq` each slot was scheduled under; with `ready` it is the
    /// slot's FIFO key.
    seq: Vec<u128>,
    /// Execution order per dense unit index.
    orders: Vec<UnitOrder>,
    makespan: f64,
}

impl Timeline {
    /// The order of unit `u` as a B-tree, converting it on first use.
    fn tree(&mut self, u: usize) -> &mut BTreeMap<OrderKey, TaskId> {
        let order = &mut self.orders[u];
        if !order.fifo.is_empty() {
            let (ready, seq) = (&self.ready, &self.seq);
            order.tree = order
                .fifo
                .drain(..)
                .map(|id| (key(ready[id.index()], seq[id.index()]), id))
                .collect();
        }
        &mut order.tree
    }

    /// When a task with these predecessors is ready: the latest of their
    /// end times (0 with none).
    fn ready_after<'a>(&self, preds: impl IntoIterator<Item = &'a TaskId>) -> f64 {
        preds
            .into_iter()
            .map(|p| self.end[p.index()])
            .fold(0.0, f64::max)
    }

    /// The order of unit `u`, empty for a unit that never ran a task.
    fn order(&self, u: usize) -> impl DoubleEndedIterator<Item = TaskId> + '_ {
        self.orders.get(u).into_iter().flat_map(UnitOrder::iter)
    }

    /// The dense index of `unit`, with its order's table entry in place.
    fn touch_unit(&mut self, unit: ExecUnit, island: u32) -> usize {
        let u = unit_index(unit);
        if self.orders.len() <= u {
            self.orders.resize_with(u + 1, UnitOrder::default);
        }
        self.orders[u].unit = Some(unit);
        self.orders[u].island = island;
        u
    }
}

/// First-touch snapshot of one timeline slot (see [`SimState::begin_txn`]).
#[derive(Debug, Clone, Copy)]
struct SlotSave {
    ready: f64,
    start: f64,
    end: f64,
    unit: u32,
    seq: u128,
}

/// Undo journal of one open timeline transaction.
#[derive(Debug, Clone, Default)]
struct SimJournal {
    /// First-touch per-slot snapshots made by a repair, in touch order.
    slots: Vec<(u32, SlotSave)>,
    /// Array length, makespan and fallback counter at `begin_txn`.
    len: usize,
    makespan: f64,
    fallbacks: u64,
    /// The timeline a sweep displaced: the pre-transaction one, except for
    /// the slots an abandoned repair had already touched (those are in
    /// `slots`). Once set, nothing further is journaled — the live
    /// timeline is discarded whole on rollback.
    displaced: Option<Timeline>,
}

/// Simulation-time state: per-task times and per-unit execution order.
///
/// Supports transactions mirroring [`TaskGraph::begin_txn`]: between
/// [`SimState::begin_txn`] and [`SimState::rollback_txn`], a repair
/// records the first-touch prior value of every slot it mutates and a
/// sweep sets the displaced timeline aside whole, so a rejected proposal's
/// timeline is undone by journal replay or a buffer swap instead of a
/// second simulation or a clone.
#[derive(Debug, Clone, Default)]
pub struct SimState {
    tl: Timeline,
    /// Number of delta repairs abandoned for a sweep because they needed
    /// more pops than the dirty suffix they were admitted on (see the
    /// module docs). Timelines stay exact either way. Restored on
    /// rollback; [`Simulator`] keeps the cumulative count in its
    /// [`DeltaTelemetry`].
    pub fallbacks: u64,
    /// Open transaction, if any.
    journal: Option<SimJournal>,
    /// First-touch dedup marker (`slot_epoch[i] == epoch` → already saved).
    slot_epoch: Vec<u64>,
    epoch: u64,
}

/// Equality over the logical timeline: which slots are scheduled where,
/// their times and FIFO keys, the per-unit orders, makespan and fallback
/// count. Transaction plumbing, the contents of free slots and whether an
/// order is held as a list or a tree are excluded.
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
            && self.fallbacks == other.fallbacks
            && a.unit_of == b.unit_of
            && (0..a.unit_of.len()).all(scheduled_eq)
            && (0..a.orders.len().max(b.orders.len())).all(|u| a.order(u).eq(b.order(u)))
    }
}

impl SimState {
    fn ensure_capacity(&mut self, cap: usize) {
        let tl = &mut self.tl;
        if tl.ready.len() < cap {
            tl.ready.resize(cap, 0.0);
            tl.start.resize(cap, 0.0);
            tl.end.resize(cap, 0.0);
            tl.unit_of.resize(cap, UNSCHEDULED);
            tl.seq.resize(cap, 0);
        }
    }

    /// Opens a transaction: subsequent [`simulate_delta_with`] mutations
    /// can be undone until [`SimState::commit_txn`] or
    /// [`SimState::rollback_txn`]. Journal-free (zero overhead) otherwise.
    ///
    /// # Panics
    ///
    /// Panics if a transaction is already open.
    pub fn begin_txn(&mut self) {
        assert!(self.journal.is_none(), "timeline txn already open");
        self.epoch += 1;
        self.journal = Some(SimJournal {
            len: self.tl.ready.len(),
            makespan: self.tl.makespan,
            fallbacks: self.fallbacks,
            ..SimJournal::default()
        });
    }

    /// Closes the open transaction, keeping the new timeline. The buffers
    /// of a timeline a sweep displaced go to `scratch` for the next sweep.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn commit_txn(&mut self, scratch: &mut DeltaScratch) {
        let j = self.journal.take().expect("no timeline txn open");
        if let Some(displaced) = j.displaced {
            scratch.spare = displaced;
        }
    }

    /// Closes the open transaction, restoring the timeline to its exact
    /// `begin_txn` state: a displaced timeline is swapped back in (the
    /// discarded one's buffers go to `scratch`), then the slot journal is
    /// replayed backwards.
    ///
    /// # Panics
    ///
    /// Panics if no transaction is open.
    pub fn rollback_txn(&mut self, scratch: &mut DeltaScratch) {
        let mut j = self.journal.take().expect("no timeline txn open");
        if let Some(displaced) = j.displaced.take() {
            scratch.spare = std::mem::replace(&mut self.tl, displaced);
        }
        self.apply_undo(&j);
    }

    /// Whether a transaction is open.
    pub fn txn_active(&self) -> bool {
        self.journal.is_some()
    }

    /// Timeline slots journaled by the open transaction (0 when none is
    /// open). Only a repair journals slots; a sweep displaces the whole
    /// timeline by a swap and saves none, so a swept proposal reads 0 here
    /// (or, after an abandoned repair, the slots that repair had touched).
    pub fn journal_depth(&self) -> usize {
        self.journal.as_ref().map_or(0, |j| j.slots.len())
    }

    /// Replays the slot journal against the timeline it was recorded on.
    fn apply_undo(&mut self, j: &SimJournal) {
        let tl = &mut self.tl;
        // Phase 1: clear the *current* FIFO entry of every touched slot.
        // (Every unit with a touched slot was converted to a tree when the
        // repair first reached it.)
        for &(i, _) in &j.slots {
            let i = i as usize;
            let u = tl.unit_of[i];
            if u != UNSCHEDULED {
                let k = key(tl.ready[i], tl.seq[i]);
                tl.tree(u as usize).remove(&k);
            }
        }
        // Phase 2: restore the saved fields and FIFO entries.
        for &(i, s) in &j.slots {
            let idx = i as usize;
            tl.ready[idx] = s.ready;
            tl.start[idx] = s.start;
            tl.end[idx] = s.end;
            tl.unit_of[idx] = s.unit;
            tl.seq[idx] = s.seq;
            if s.unit != UNSCHEDULED {
                tl.tree(s.unit as usize)
                    .insert(key(s.ready, s.seq), TaskId(i));
            }
        }
        tl.ready.truncate(j.len);
        tl.start.truncate(j.len);
        tl.end.truncate(j.len);
        tl.unit_of.truncate(j.len);
        tl.seq.truncate(j.len);
        tl.makespan = j.makespan;
        self.fallbacks = j.fallbacks;
    }

    /// Journals slot `i` once per transaction, before its first mutation.
    #[inline]
    fn save_slot(&mut self, i: usize) {
        let Some(j) = self.journal.as_mut() else {
            return;
        };
        if j.displaced.is_some() {
            return;
        }
        if self.slot_epoch.len() <= i {
            self.slot_epoch.resize(i + 1, 0);
        }
        if self.slot_epoch[i] == self.epoch {
            return;
        }
        self.slot_epoch[i] = self.epoch;
        let tl = &self.tl;
        let save = SlotSave {
            ready: tl.ready[i],
            start: tl.start[i],
            end: tl.end[i],
            unit: tl.unit_of[i],
            seq: tl.seq[i],
        };
        j.slots.push((i as u32, save));
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
        assert!(tl.unit_of[i] != UNSCHEDULED, "task {id} is not scheduled");
        (tl.ready[i], tl.start[i], tl.end[i])
    }

    /// The execution order of a unit (empty if the unit never ran a task).
    pub fn order(&self, unit: ExecUnit) -> Vec<TaskId> {
        self.tl.order(unit_index(unit)).collect()
    }

    /// All units that execute at least one task.
    pub fn units(&self) -> impl Iterator<Item = ExecUnit> + '_ {
        self.tl
            .orders
            .iter()
            .filter(|o| o.iter().next().is_some())
            .filter_map(|o| o.unit)
    }

    /// Removes `id` from its unit order; returns its old follower (whose
    /// `preTask` changed), if any. Works even when the slot has been
    /// recycled to a new task, thanks to the stored schedule key.
    fn unschedule(&mut self, id: TaskId) -> Option<TaskId> {
        let i = id.index();
        self.save_slot(i);
        let tl = &mut self.tl;
        let u = std::mem::replace(&mut tl.unit_of[i], UNSCHEDULED);
        assert!(u != UNSCHEDULED, "unscheduling unscheduled task {id}");
        let k = key(tl.ready[i], tl.seq[i]);
        let order = tl.tree(u as usize);
        let removed = order.remove(&k);
        debug_assert_eq!(removed, Some(id));
        order.range(k..).next().map(|(_, &t)| t)
    }

    /// Inserts `id` into its unit order at the position dictated by
    /// `(ready, seq)`; returns the task that follows it (whose `preTask`
    /// changed), if any.
    fn schedule(&mut self, tg: &TaskGraph, id: TaskId, ready: f64) -> Option<TaskId> {
        let i = id.index();
        self.save_slot(i);
        let (t, tl) = (tg.task(id), &mut self.tl);
        let u = tl.touch_unit(t.unit, t.island);
        tl.unit_of[i] = u as u32;
        tl.ready[i] = ready;
        tl.seq[i] = t.seq;
        let prior = tl.tree(u).insert(key(ready, t.seq), id);
        debug_assert!(prior.is_none(), "duplicate FIFO key");
        self.next_of(i, u)
    }

    /// End time of the task preceding slot `i` on its unit `u` (0 when
    /// first).
    fn pre_end(&mut self, i: usize, u: usize) -> f64 {
        let tl = &mut self.tl;
        let k = key(tl.ready[i], tl.seq[i]);
        let pre = tl.tree(u).range(..k).next_back().map(|(_, &pre)| pre);
        pre.map_or(0.0, |pre| tl.end[pre.index()])
    }

    /// The task following slot `i` on its unit `u`, whose order a repair
    /// has already reached (it is a tree).
    fn next_of(&self, i: usize, u: usize) -> Option<TaskId> {
        let tl = &self.tl;
        let k = key(tl.ready[i], tl.seq[i]);
        tl.orders[u]
            .tree
            .range((std::ops::Bound::Excluded(k), std::ops::Bound::Unbounded))
            .next()
            .map(|(_, &t)| t)
    }

    /// Recomputes the makespan in `O(units)`: within one unit, end times
    /// are monotone non-decreasing along FIFO order (`start = max(ready,
    /// prev_end)` and `exe >= 0`), so each unit's maximum is its last
    /// entry's end time. Exact — every live task is scheduled on some
    /// unit once a repair reaches its fixpoint.
    fn recompute_makespan(&mut self) {
        let tl = &mut self.tl;
        tl.makespan = tl
            .orders
            .iter()
            .filter_map(|order| order.iter().next_back())
            .map(|id| tl.end[id.index()])
            .fold(0.0, f64::max);
    }

    /// Number of scheduled tasks whose end time is at least `t_min`, in
    /// `O(suffix + units)`: the same FIFO monotonicity as
    /// [`SimState::recompute_makespan`] lets each unit walk backwards and
    /// stop at its first earlier task. Equals the count a whole-array scan
    /// would produce, without touching the untouched timeline prefix.
    ///
    /// Unless `all_islands` is set, only units whose island is flagged in
    /// `dirty` are counted: a repair seeded entirely inside one island
    /// mostly stays there (frontier tightening stops propagation at
    /// settled times), so remote islands' schedules should not push the
    /// decision toward a sweep. The estimate errs toward repair; the pop
    /// budget bounds the rare spill-over. (An order left empty in buffers
    /// recycled from another topology may name an island this one lacks.)
    fn suffix_len(&self, t_min: f64, dirty: &[bool], all_islands: bool) -> usize {
        let tl = &self.tl;
        tl.orders
            .iter()
            .filter(|o| all_islands || dirty.get(o.island as usize) == Some(&true))
            .map(|o| {
                o.iter()
                    .rev()
                    .take_while(|id| tl.end[id.index()] >= t_min)
                    .count()
            })
            .sum()
    }
}

/// Min-heap of the sweep's ready tasks in `(ready, seq)` order. An entry
/// is `(ready bits, slot)` — 16 bytes; the `seq` half of the key stays in
/// the timeline's side array and is read only to break a tie.
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

/// Per-sweep working arrays, reused across sweeps.
#[derive(Debug, Default)]
struct SweepWork {
    /// Unfinished predecessors per slot.
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

/// The full simulation algorithm (paper Algorithm 1) into `tl`'s buffers:
/// a Dijkstra-style sweep that dequeues tasks in `(readyTime, seq)` order
/// and appends each to its unit's FIFO. Whatever `tl` held is overwritten;
/// nothing is allocated once the buffers have grown to the graph's size.
fn sweep_into(tg: &TaskGraph, tl: &mut Timeline, work: &mut SweepWork) {
    let cap = tg.capacity();
    tl.ready.clear();
    tl.ready.resize(cap, 0.0);
    tl.start.resize(cap, 0.0);
    tl.end.resize(cap, 0.0);
    tl.unit_of.clear();
    tl.unit_of.resize(cap, UNSCHEDULED);
    tl.seq.resize(cap, 0);
    for order in &mut tl.orders {
        order.fifo.clear();
        order.tree.clear();
    }
    work.remaining.resize(cap, 0);
    work.tasks.resize(cap, (0.0, 0..0));
    work.succs.clear();
    work.heap.0.clear();
    for (id, t) in tg.iter() {
        let i = id.index();
        tl.unit_of[i] = tl.touch_unit(t.unit, t.island) as u32;
        tl.seq[i] = t.seq;
        work.remaining[i] = t.preds.len() as u32;
        if t.preds.is_empty() {
            work.heap.0.push((0.0f64.to_bits(), id.0));
        }
        let first = work.succs.len() as u32;
        work.succs.extend_from_slice(&t.succs);
        work.tasks[i] = (t.exe_us, first..work.succs.len() as u32);
    }
    // The roots are all ready at 0: sorted by `seq` they form a heap.
    work.heap
        .0
        .sort_unstable_by_key(|&(_, slot)| tl.seq[slot as usize]);
    work.free_at.clear();
    work.free_at.resize(tl.orders.len(), 0.0);

    let mut makespan = 0.0f64;
    let mut processed = 0usize;
    while let Some((ready_bits, slot)) = work.heap.pop(&tl.seq) {
        let i = slot as usize;
        let u = tl.unit_of[i] as usize;
        let start = f64::from_bits(ready_bits).max(work.free_at[u]);
        let (exe_us, ref succs) = work.tasks[i];
        let end = start + exe_us;
        tl.start[i] = start;
        tl.end[i] = end;
        work.free_at[u] = end;
        tl.orders[u].fifo.push(TaskId(slot));
        makespan = makespan.max(end);
        processed += 1;
        for &s in &work.succs[succs.start as usize..succs.end as usize] {
            let si = s.index();
            tl.ready[si] = tl.ready[si].max(end);
            work.remaining[si] -= 1;
            if work.remaining[si] == 0 {
                work.heap.push((tl.ready[si].to_bits(), s.0), &tl.seq);
            }
        }
    }
    assert_eq!(
        processed,
        tg.num_tasks(),
        "task graph has a cycle or dangling dependency"
    );
    tl.makespan = makespan;
}

/// The full simulation algorithm (paper Algorithm 1) into a fresh state.
pub fn simulate_full(tg: &TaskGraph) -> SimState {
    let mut state = SimState::default();
    sweep_into(tg, &mut state.tl, &mut SweepWork::default());
    state
}

/// One island's repair queue: a min-heap of queued tasks in key order.
type IslandQueue = BinaryHeap<Reverse<(OrderKey, TaskId)>>;

/// Reusable workspace for [`simulate_delta_with`]: the repair queues and
/// their dedup markers, the sweep's working arrays and the spare timeline
/// of the double buffer survive across calls, so steady-state proposals do
/// no allocation proportional to graph capacity. Owned per [`Simulator`].
///
/// # Threading contract
///
/// A scratch is `Send` but deliberately has no shared-use API: every
/// mutation goes through `&mut`, so the borrow checker enforces the
/// "one owner, one thread at a time" discipline — parallel search chains
/// each own their own scratch (inside their own [`Simulator`]) rather
/// than sharing one. Moving a scratch to another thread between repairs
/// is fine; what the epoch/queued bookkeeping cannot survive is two
/// concurrent repairs, which `&mut` already makes unrepresentable.
#[derive(Debug, Default)]
pub struct DeltaScratch {
    /// Per-island repair queues; the last index is the shared cross-island
    /// frontier holding spine-link tasks (see
    /// [`crate::taskgraph::TaskGraph::num_island_frontiers`]).
    islands: Vec<IslandQueue>,
    /// Frontier heap over the islands: one `(key, island)` entry per task
    /// push. Entries whose task was already consumed by a horizon drain
    /// are cancelled lazily via `drained`.
    active: BinaryHeap<Reverse<(OrderKey, u32)>>,
    /// Per-island count of tasks consumed by horizon drains whose frontier
    /// entries are still in `active` (lazy deletion).
    drained: Vec<u64>,
    /// Island whose queue is currently open for horizon draining.
    cur_island: Option<usize>,
    /// `queued[i] == epoch` → slot `i` is currently in a repair queue.
    queued: Vec<u64>,
    /// `added[i] == epoch` → slot `i` is in this call's `report.added`.
    added: Vec<u64>,
    epoch: u64,
    /// Islands this call's rebuild touched (the admission estimate).
    dirty: Vec<bool>,
    /// The double buffer's other half: the next sweep writes here.
    spare: Timeline,
    sweep: SweepWork,
    /// Queue pops performed by the most recent repair (telemetry).
    pub last_repair_steps: u64,
    /// Whether the most recent call swept instead of (or after abandoning)
    /// an incremental repair (telemetry).
    pub last_was_sweep: bool,
}

/// Cross-island coordination horizon of the repair frontier, in
/// microseconds: once an island's queue is open, its tasks keep draining
/// locally — one island-heap pop each, no frontier-heap traffic — as long
/// as their ready times stay within this bound of the earliest task
/// waiting on any other island. Spine latencies are single-digit
/// microseconds, so 25 µs covers a few cross-island hops; the value tunes
/// only queue locality, never results (the repair is a fixpoint iteration
/// whose outcome is independent of processing order).
pub const REPAIR_HORIZON_US: f64 = 25.0;

/// Repair-vs-sweep crossover: a proposal is repaired only when this many
/// times its dirty suffix is still fewer tasks than the graph has.
///
/// Measured, not modelled (release build, 2-core 2.6 GHz Xeon; table in
/// EXPERIMENTS.md, PR 21): a journaled repair pop costs 0.51–0.63 µs and
/// a sweep 70–130 ns per task, so one pop is worth 5–8 sweep steps — and
/// the median completed repair pops a suffix task 1.9 times on
/// `search_rnnlm4`, 18–58 times on gpt_small at 16–256 devices. At 16 the
/// repairs admitted on `search_rnnlm4`, `search_gpt64` and `sim_scaling`
/// cost within 6 % of sweeping them (at 8: up to 30 % more). An abandoned
/// repair has spent at most `tasks / 16` pops; with the sweep that follows
/// such a proposal costs 1.4–1.5 up-front sweeps (median; 1.9–2.1 worst).
pub const REPAIR_ADMIT_RATIO: usize = 16;

/// Pop-budget floor: below it a repair costs microseconds either way.
const MIN_REPAIR_BUDGET: usize = 64;

impl DeltaScratch {
    #[inline]
    fn push(&mut self, tg: &TaskGraph, state: &SimState, id: TaskId) {
        let i = id.index();
        if self.queued[i] == self.epoch {
            return;
        }
        if let Some(t) = tg.get(id) {
            self.queued[i] = self.epoch;
            let k = key(state.tl.ready[i], t.seq);
            self.islands[t.island as usize].push(Reverse((k, id)));
            self.active.push(Reverse((k, t.island)));
        }
    }

    /// Dequeues the next task to repair. Exact `(ready, seq)` order across
    /// islands, except that the open island may run ahead by up to
    /// [`REPAIR_HORIZON_US`] — a locality optimization with no effect on
    /// the repaired timeline.
    fn pop(&mut self) -> Option<TaskId> {
        if let Some(ci) = self.cur_island {
            if let Some(&Reverse(((ready_bits, _), _))) = self.islands[ci].peek() {
                let frontier = self
                    .active
                    .peek()
                    .map_or(f64::INFINITY, |&Reverse(((b, _), _))| f64::from_bits(b));
                if f64::from_bits(ready_bits) <= frontier + REPAIR_HORIZON_US {
                    let Reverse((_, id)) = self.islands[ci].pop().expect("peeked");
                    self.drained[ci] += 1;
                    return Some(id);
                }
            }
            self.cur_island = None;
        }
        while let Some(Reverse((_, isl))) = self.active.pop() {
            let ci = isl as usize;
            if self.drained[ci] > 0 {
                // A horizon drain already consumed the task this frontier
                // entry was pushed for.
                self.drained[ci] -= 1;
                continue;
            }
            let Reverse((_, id)) = self.islands[ci].pop().expect("frontier entry has a task");
            self.cur_island = Some(ci);
            return Some(id);
        }
        None
    }

    /// Empties every queue (call entry and the abandoned-repair bail-out).
    fn clear_queues(&mut self) {
        for h in &mut self.islands {
            h.clear();
        }
        self.active.clear();
        self.drained.fill(0);
        self.cur_island = None;
    }
}

/// The delta simulation algorithm (paper Algorithm 2): given the previous
/// timeline and the [`RebuildReport`] of a structural change, brings the
/// timeline up to date with the rebuilt graph — by repairing the affected
/// portion or, when that would cost more, by sweeping (see the module
/// docs for the rule).
///
/// Returns the new makespan. The resulting state is identical to running
/// [`simulate_full`] on the updated graph. A repair that outruns its pop
/// budget is abandoned for a sweep and increments [`SimState::fallbacks`].
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
/// the call can be rolled back exactly whichever route it took.
pub fn simulate_delta_with(
    tg: &TaskGraph,
    state: &mut SimState,
    report: &RebuildReport,
    scratch: &mut DeltaScratch,
) -> f64 {
    state.ensure_capacity(tg.capacity());
    let frontiers = tg.num_island_frontiers();
    if scratch.islands.len() < frontiers {
        scratch.islands.resize_with(frontiers, BinaryHeap::new);
        scratch.drained.resize(frontiers, 0);
    }
    scratch.clear_queues();
    scratch.epoch += 1;
    if scratch.queued.len() < tg.capacity() {
        scratch.queued.resize(tg.capacity(), 0);
        scratch.added.resize(tg.capacity(), 0);
    }
    scratch.last_repair_steps = 0;
    scratch.last_was_sweep = false;

    // 0. Sweep or repair? Estimate the dirty suffix from the earliest
    //    dirty ready time via per-unit reverse walks (O(suffix + units),
    //    see SimState::suffix_len), so a proposal confined to one island
    //    pays nothing for the other islands' task counts.
    let n = tg.num_tasks();
    let mut t_min = f64::INFINITY;
    // Islands the structural change touches; the last flag is the
    // cross-island frontier — spine traffic can propagate anywhere, so it
    // forces the conservative whole-cluster estimate.
    scratch.dirty.clear();
    scratch.dirty.resize(frontiers, false);
    for &id in report.removed.iter().chain(&report.pred_changed) {
        let i = id.index();
        let u = state.tl.unit_of[i];
        if u != UNSCHEDULED {
            t_min = t_min.min(state.tl.ready[i]);
            scratch.dirty[state.tl.orders[u as usize].island as usize] = true;
        }
    }
    for &id in &report.added {
        scratch.added[id.index()] = scratch.epoch;
    }
    for &id in &report.added {
        let t = tg.task(id);
        scratch.dirty[t.island as usize] = true;
        // A new task becomes ready no earlier than its surviving
        // predecessors end. Predecessors that are themselves new have no
        // time yet (their slots may hold a previous occupant's); a task
        // with only such predecessors is bounded through them.
        let mut surviving = t
            .preds
            .iter()
            .filter(|p| scratch.added[p.index()] != scratch.epoch)
            .peekable();
        if t.preds.is_empty() || surviving.peek().is_some() {
            t_min = t_min.min(state.tl.ready_after(surviving));
        }
    }
    let all_islands = scratch.dirty[frontiers - 1];
    let suffix = if t_min.is_finite() {
        state.suffix_len(t_min, &scratch.dirty, all_islands) + report.added.len()
    } else {
        0
    };
    if REPAIR_ADMIT_RATIO * suffix >= n && n > 0 {
        return sweep_in_place(tg, state, scratch);
    }

    // 1. Unschedule removed slots (their old unit is recorded in the state;
    //    the slot may already host a replacement task).
    for &id in &report.removed {
        if state.tl.unit_of[id.index()] != UNSCHEDULED {
            if let Some(shifted) = state.unschedule(id) {
                scratch.push(tg, state, shifted);
            }
        }
    }
    // 2. Schedule added tasks. Seeding their provisional ready times from
    //    their predecessors' current end times (zeroing added slots first
    //    so recycled slots contribute nothing stale) makes the heap process
    //    most tasks once, after their inputs have settled — seeding at 0
    //    would pop every added task once before its wave arrives.
    for &id in &report.added {
        state.save_slot(id.index());
        state.tl.start[id.index()] = 0.0;
        state.tl.end[id.index()] = 0.0;
    }
    for &id in &report.added {
        let init_ready = state.tl.ready_after(&tg.task(id).preds);
        if let Some(follower) = state.schedule(tg, id, init_ready) {
            scratch.push(tg, state, follower);
        }
        scratch.push(tg, state, id);
    }
    // 3. Surviving tasks that lost predecessors may become ready earlier.
    for &id in &report.pred_changed {
        scratch.push(tg, state, id);
    }

    // 4. Fixpoint propagation in (ready, seq) order, for at most as many
    //    pops as the suffix the repair was admitted on.
    let budget = suffix.max(MIN_REPAIR_BUDGET) as u64;
    let mut steps = 0u64;
    while let Some(id) = scratch.pop() {
        scratch.queued[id.index()] = 0;
        let Some(t) = tg.get(id) else { continue };
        steps += 1;
        if steps > budget {
            scratch.last_repair_steps = steps;
            scratch.clear_queues();
            state.fallbacks += 1;
            return sweep_in_place(tg, state, scratch);
        }
        let new_ready = state.tl.ready_after(&t.preds);
        let i = id.index();
        if new_ready != state.tl.ready[i] {
            // Reposition within the FIFO order (the "swap" of Algorithm 2).
            if let Some(shifted) = state.unschedule(id) {
                scratch.push(tg, state, shifted);
            }
            if let Some(follower) = state.schedule(tg, id, new_ready) {
                scratch.push(tg, state, follower);
            }
        }
        let u = state.tl.unit_of[i] as usize;
        let new_start = new_ready.max(state.pre_end(i, u));
        let new_end = new_start + t.exe_us;
        if new_start != state.tl.start[i] || new_end != state.tl.end[i] {
            let old_end = state.tl.end[i];
            state.save_slot(i);
            state.tl.start[i] = new_start;
            state.tl.end[i] = new_end;
            // Frontier tightening: a changed end only matters to a
            // dependent whose ready/start this task could determine. If
            // both the old and the new end sit strictly below the
            // dependent's settled ready (or start, for the FIFO follower),
            // the dependent's times cannot change — skip the push and keep
            // the untouched timeline suffix untouched. Dependents already
            // queued are unaffected (the push dedups).
            for &s in &t.succs {
                let si = s.index();
                if new_end > state.tl.ready[si] || old_end >= state.tl.ready[si] {
                    scratch.push(tg, state, s);
                }
            }
            if let Some(next) = state.next_of(i, u) {
                let ni = next.index();
                if new_end > state.tl.start[ni] || old_end >= state.tl.start[ni] {
                    scratch.push(tg, state, next);
                }
            }
        }
    }
    scratch.last_repair_steps = steps;
    state.recompute_makespan();
    state.tl.makespan
}

/// Replaces the timeline with a from-scratch sweep of the current graph:
/// the sweep fills the scratch's spare timeline, which is then swapped
/// with the live one. Outside a transaction the displaced timeline is the
/// next spare. Inside one it moves into the journal — untouched, or as an
/// abandoned repair left it, with that repair's slot journal kept beside
/// it — until commit or rollback returns a set of buffers to the scratch.
fn sweep_in_place(tg: &TaskGraph, state: &mut SimState, scratch: &mut DeltaScratch) -> f64 {
    scratch.last_was_sweep = true;
    sweep_into(tg, &mut scratch.spare, &mut scratch.sweep);
    std::mem::swap(&mut state.tl, &mut scratch.spare);
    if let Some(j) = state.journal.as_mut() {
        if j.displaced.is_none() {
            j.displaced = Some(std::mem::take(&mut scratch.spare));
        }
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
    /// Rebuild only the tasks the proposal touches, then repair or sweep
    /// the previous timeline (paper §5.3, Algorithm 2).
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
///   followed by a repair or sweep (see the module docs). Rollback replays
///   the journals and, after a sweep, swaps the displaced timeline back —
///   no second simulation, no structure clone. Rejected proposals dominate
///   an MCMC walk, so this is the hot path of the whole search.
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
        sweep_in_place(&sim.tg, &mut sim.state, &mut sim.scratch);
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

    /// Cumulative transaction/repair telemetry.
    pub fn telemetry(&self) -> DeltaTelemetry {
        self.telemetry
    }

    /// Brings the timeline up to date with a journaled rebuild's report.
    fn delta(&mut self, report: &RebuildReport) -> f64 {
        let fallbacks_before = self.state.fallbacks;
        let cost = simulate_delta_with(&self.tg, &mut self.state, report, &mut self.scratch);
        self.telemetry.repair_steps += self.scratch.last_repair_steps;
        self.telemetry.fallbacks += self.state.fallbacks - fallbacks_before;
        self.telemetry.sweeps += u64::from(self.scratch.last_was_sweep);
        cost
    }

    /// Sweeps the current task graph into the double buffer.
    fn sweep(&mut self) -> f64 {
        self.telemetry.sweeps += 1;
        sweep_in_place(&self.tg, &mut self.state, &mut self.scratch)
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
                (self.sweep(), Some(displaced))
            }
            SimAlgorithm::Delta => {
                self.tg.begin_txn();
                let s = &self.strategy;
                let new_cost = match undo {
                    Proposal::Config(op, _) | Proposal::Recompute(op, _) => {
                        let report = self.tg.rebuild_op(graph, topo, s, cost, &cfg, op);
                        self.delta(&report)
                    }
                    Proposal::Microbatches(_) => {
                        self.tg.rebuild_all(graph, topo, s, cost, &cfg);
                        self.sweep()
                    }
                    Proposal::ParamSync(op, _) => match graph.op(op).layer() {
                        Some(layer) => {
                            let report = self
                                .tg
                                .rebuild_layer_sync(graph, topo, s, cost, &cfg, layer);
                            self.delta(&report)
                        }
                        None => self.state.makespan_us(),
                    },
                };
                (new_cost, None)
            }
        };
        self.txn = Some((undo, displaced));
        self.telemetry.applies += 1;
        let depth = self.tg.journal_depth() + self.state.journal_depth();
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
        sweep_in_place(&self.tg, &mut self.state, &mut self.scratch)
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
