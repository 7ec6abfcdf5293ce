//! Property-based tests for the execution simulator's core invariants:
//!
//! 1. **Delta == Full** (paper §5.3): after any sequence of single-op
//!    configuration changes, the delta-evolved timeline — swept, repaired,
//!    or swept after an abandoned repair — equals a full re-simulation of
//!    a freshly built task graph bit for bit: makespan, every task's
//!    times and every unit's execution order.
//! 2. **Timeline sanity**: per-unit executions never overlap, dependencies
//!    are respected, and makespan equals the latest end time.
//! 3. **Cost purity**: the simulated cost of a strategy does not depend on
//!    the history of delta updates that produced it.
//! 4. **Transactional exactness**: after any random apply→rollback
//!    sequence, the task graph and the timeline are bit-identical to their
//!    pre-apply state, and committed walks still match a fresh build.

use flexflow_core::metrics::DeltaTelemetry;
use flexflow_core::sim::{simulate_delta, simulate_full, SimConfig, SimState, Simulator};
use flexflow_core::soap::{random_config, ConfigSpace, ParallelConfig};
use flexflow_core::strategy::Strategy;
use flexflow_core::taskgraph::{ExecUnit, TaskGraph};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{zoo, OpGraph, OpKind};
use flexflow_tensor::TensorShape;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A small random layered DNN: a mix of op kinds with occasional skip
/// connections, exercising Concat/Add fan-in and all dimension kinds.
fn random_model(seed: u64, depth: usize) -> OpGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut g = OpGraph::new(format!("rand{seed}"));
    let x = g.add_input("x", TensorShape::new(&[16, 8]));
    let mut frontier = vec![x];
    for d in 0..depth {
        let prev = *frontier.last().unwrap();
        let choice = rng.gen_range(0..4);
        let id = match choice {
            0 => g
                .add_op(
                    OpKind::Linear {
                        out_features: 8 << (d % 2),
                    },
                    &[prev],
                    format!("fc{d}"),
                )
                .unwrap(),
            1 => g.add_op(OpKind::Relu, &[prev], format!("relu{d}")).unwrap(),
            2 if frontier.len() >= 2 => {
                // residual add when shapes allow, else relu
                let a = frontier[rng.gen_range(0..frontier.len())];
                if g.op(a).output_shape() == g.op(prev).output_shape() {
                    g.add_op(OpKind::Add, &[prev, a], format!("add{d}"))
                        .unwrap()
                } else {
                    g.add_op(OpKind::Tanh, &[prev], format!("tanh{d}")).unwrap()
                }
            }
            _ => g
                .add_op(OpKind::Softmax, &[prev], format!("sm{d}"))
                .unwrap(),
        };
        frontier.push(id);
    }
    g
}

/// Identity-keyed timeline fingerprint: tasks are identified by their
/// stable `seq` key (a pure function of task identity), so timelines of
/// graphs with different slot layouts compare bit-for-bit.
fn timeline_fingerprint(tg: &TaskGraph, state: &SimState) -> Vec<(u128, ExecUnit, u64, u64, u64)> {
    let mut v: Vec<_> = tg
        .iter()
        .map(|(id, t)| {
            let (r, s, e) = state.times(id);
            (t.seq, t.unit, r.to_bits(), s.to_bits(), e.to_bits())
        })
        .collect();
    v.sort();
    v
}

/// Every unit's execution order as task identities, units in order.
fn unit_orders(tg: &TaskGraph, state: &SimState) -> Vec<(ExecUnit, Vec<u128>)> {
    let mut v: Vec<_> = state
        .units()
        .map(|unit| {
            let order = state.order(unit);
            (unit, order.iter().map(|&id| tg.task(id).seq).collect())
        })
        .collect();
    v.sort();
    v
}

/// The delta-evolved `(tg, state)` is the timeline a from-scratch build
/// and full simulation of `strategy` gives, bit for bit.
fn assert_equals_fresh(
    g: &OpGraph,
    topo: &Topology,
    strategy: &Strategy,
    tg: &TaskGraph,
    state: &SimState,
    ctx: &str,
) {
    let cost = MeasuredCostModel::paper_default();
    let fresh_tg = TaskGraph::build(g, topo, strategy, &cost, &SimConfig::default());
    let fresh = simulate_full(&fresh_tg);
    assert_eq!(
        state.makespan_us().to_bits(),
        fresh.makespan_us().to_bits(),
        "{ctx}: delta {} vs full {}",
        state.makespan_us(),
        fresh.makespan_us()
    );
    assert!(
        timeline_fingerprint(tg, state) == timeline_fingerprint(&fresh_tg, &fresh),
        "{ctx}: task times differ from a fresh full simulation"
    );
    assert!(
        unit_orders(tg, state) == unit_orders(&fresh_tg, &fresh),
        "{ctx}: unit orders differ from a fresh full simulation"
    );
}

fn check_walk(g: &OpGraph, topo: &Topology, seed: u64, steps: usize) {
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let mut rng = StdRng::seed_from_u64(seed);
    let searchable = Strategy::searchable_ops(g);
    let mut s = Strategy::data_parallel(g, topo);
    let mut tg = TaskGraph::build(g, topo, &s, &cost, &cfg);
    let mut state = simulate_full(&tg);
    for step in 0..steps {
        let op = searchable[rng.gen_range(0..searchable.len())];
        let config = random_config(g.op(op), topo, ConfigSpace::Full, &mut rng);
        s.replace(op, config);
        let report = tg.rebuild_op(g, topo, &s, &cost, &cfg, op);
        let delta_cost = simulate_delta(&tg, &mut state, &report);
        assert_eq!(delta_cost.to_bits(), state.makespan_us().to_bits());
        let ctx = format!("model {} step {step}", g.name());
        assert_equals_fresh(g, topo, &s, &tg, &state, &ctx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn delta_matches_full_on_random_models(seed in 0u64..500, depth in 3usize..10) {
        let g = random_model(seed, depth);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        check_walk(&g, &topo, seed ^ 0xABCD, 25);
    }

    #[test]
    fn delta_matches_full_on_hierarchical_random_models(
        seed in 0u64..500,
        islands in 2usize..4,
    ) {
        let g = random_model(seed, 5);
        let topo = clusters::hierarchical_cluster(DeviceKind::P100, islands, 4);
        check_walk(&g, &topo, seed ^ 0x1517, 12);
    }

    #[test]
    fn apply_rollback_restores_state_bit_identically(seed in 0u64..500, depth in 3usize..10) {
        let g = random_model(seed, depth);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let mut rng = StdRng::seed_from_u64(seed ^ 0x7C7C);
        let searchable = Strategy::searchable_ops(&g);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, Strategy::data_parallel(&g, &topo));
        for step in 0..25 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
            if rng.gen_range(0..3) == 0 {
                // Advance the walk: apply + commit.
                sim.apply(op, config);
                sim.commit();
            } else {
                // Speculate: apply + rollback must be an exact no-op on
                // both structures (bit-identical, not just cost-equal).
                let tg_before = sim.task_graph().clone();
                let st_before = sim.state().clone();
                let cost_before = sim.cost_us();
                sim.apply(op, config);
                let restored = sim.rollback();
                prop_assert_eq!(cost_before.to_bits(), restored.to_bits(),
                    "step {}: cost not restored", step);
                prop_assert!(sim.task_graph() == &tg_before,
                    "step {}: task graph not restored exactly", step);
                prop_assert!(sim.state() == &st_before,
                    "step {}: timeline not restored exactly", step);
            }
        }
        // The surviving (committed) walk is still exact vs a fresh build.
        let fresh = simulate_full(&TaskGraph::build(&g, &topo, sim.strategy(), &cost, &cfg));
        prop_assert!((sim.cost_us() - fresh.makespan_us()).abs() < 1e-6,
            "committed walk drifted: {} vs {}", sim.cost_us(), fresh.makespan_us());
    }

    #[test]
    fn timeline_is_consistent(seed in 0u64..500) {
        let g = random_model(seed, 6);
        let topo = clusters::uniform_cluster(2, 2, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng);
        let tg = TaskGraph::build(&g, &topo, &s, &cost, &SimConfig::default());
        let state = simulate_full(&tg);

        // 1. dependencies: succ.start >= pred.end (ready = max preds end)
        for (id, t) in tg.iter() {
            let (ready, start, end) = state.times(id);
            prop_assert!(start >= ready);
            prop_assert!((end - (start + t.exe_us)).abs() < 1e-9);
            for &p in &t.preds {
                let (_, _, p_end) = state.times(p);
                prop_assert!(start >= p_end - 1e-9, "dependency violated");
            }
            prop_assert!(end <= state.makespan_us() + 1e-9);
        }
        // 2. no overlap per unit
        for unit in state.units() {
            let order = state.order(unit);
            for w in order.windows(2) {
                let (_, _, e0) = state.times(w[0]);
                let (_, s1, _) = state.times(w[1]);
                prop_assert!(s1 >= e0 - 1e-9, "unit {unit} overlaps");
            }
        }
    }
}

#[test]
fn delta_walk_is_bit_identical_to_full_on_flat_topologies() {
    // The island-frontier refactor must leave flat, m = 1 timelines
    // untouched: after a committed delta walk, every task's (ready, start,
    // end) and unit matches a fresh full simulation bit for bit.
    let topo = clusters::p100_cluster(1);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    for g in [zoo::rnnlm(64, 2), zoo::nmt(32, 2), zoo::inception_v3(8)] {
        let mut rng = StdRng::seed_from_u64(11);
        let searchable = Strategy::searchable_ops(&g);
        let mut s = Strategy::data_parallel(&g, &topo);
        let mut tg = TaskGraph::build(&g, &topo, &s, &cost, &cfg);
        let mut state = simulate_full(&tg);
        for _ in 0..10 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
            s.replace(op, config);
            let report = tg.rebuild_op(&g, &topo, &s, &cost, &cfg, op);
            simulate_delta(&tg, &mut state, &report);
        }
        assert_equals_fresh(&g, &topo, &s, &tg, &state, g.name());
    }
}

#[test]
fn delta_matches_full_on_hierarchical_clusters() {
    // NVLink islands joined by an InfiniBand spine: the island-keyed
    // repair frontier must stay exact across the spine.
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 2, 4);
    for g in [zoo::lenet(64), zoo::rnnlm(64, 2)] {
        check_walk(&g, &topo, 23, 20);
    }
    let big = clusters::hierarchical_cluster(DeviceKind::A100, 4, 4);
    check_walk(&zoo::rnnlm(64, 2), &big, 5, 10);
}

#[test]
fn hierarchical_walk_takes_all_three_routes_and_rolls_each_back_exactly() {
    // The transactional path on a 4-island cluster, over walks long enough
    // to take every route a proposal can: an up-front sweep, a completed
    // repair, and a repair abandoned for a sweep. The first proposal on
    // each route is rolled back (the double buffer's swap-back, the slot
    // journal's replay, and both in turn); later ones are kept one time in
    // three.
    const SWEEP: usize = 0;
    const REPAIR: usize = 1;
    const ABANDONED: usize = 2;
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 4, 4);
    let g = zoo::rnnlm(64, 2);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let searchable = Strategy::searchable_ops(&g);
    let mut total = DeltaTelemetry::default();
    let mut rolled_back = [0u32; 3];
    for seed in [1, 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut sim = Simulator::new(&g, &topo, &cost, cfg, Strategy::data_parallel(&g, &topo));
        for step in 0..120 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
            let before = (
                sim.task_graph().clone(),
                sim.state().clone(),
                sim.strategy().clone(),
                sim.cost_us(),
            );
            let t0 = sim.telemetry();
            let applied = sim.apply(op, config);
            let t1 = sim.telemetry();
            let route = match (t1.sweeps - t0.sweeps, t1.fallbacks - t0.fallbacks) {
                (0, 0) => REPAIR,
                (1, 0) => SWEEP,
                (1, 1) => ABANDONED,
                other => panic!("impossible telemetry step {other:?}"),
            };
            let ctx = format!("seed {seed} step {step} route {route}");
            assert_eq!(applied.to_bits(), sim.cost_us().to_bits(), "{ctx}");
            assert_equals_fresh(
                &g,
                &topo,
                sim.strategy(),
                sim.task_graph(),
                sim.state(),
                &ctx,
            );
            if rolled_back[route] > 0 && rng.gen_range(0..3) == 0 {
                sim.commit();
            } else {
                let restored = sim.rollback();
                rolled_back[route] += 1;
                assert_eq!(restored.to_bits(), before.3.to_bits(), "{ctx}: cost");
                assert!(sim.task_graph() == &before.0, "{ctx}: task graph");
                assert!(sim.state() == &before.1, "{ctx}: timeline");
                assert_eq!(sim.strategy(), &before.2, "{ctx}: strategy");
            }
        }
        total.merge(&sim.telemetry());
    }
    assert!(
        rolled_back.iter().all(|&n| n > 0),
        "routes rolled back (sweep, repair, abandoned): {rolled_back:?}; {total:?}"
    );
    assert_eq!(total.applies, 240);
    assert_eq!(total.commits + total.rollbacks, total.applies);
}

/// Two independent chains pinned to different islands of a 2 × 4 cluster:
/// a short one round-robining island 0 and a long one on island 1 — long
/// enough that the short chain's whole schedule is under a sixteenth of
/// the tasks, so proposals on it are repaired, not swept.
fn two_island_chains() -> (OpGraph, Topology, Strategy) {
    let mut g = OpGraph::new("two-islands");
    let xa = g.add_input("xa", TensorShape::new(&[16, 8]));
    let xb = g.add_input("xb", TensorShape::new(&[16, 8]));
    let mut a = xa;
    for i in 0..4 {
        a = g
            .add_op(OpKind::Linear { out_features: 8 }, &[a], format!("a{i}"))
            .unwrap();
    }
    let mut b = xb;
    for i in 0..160 {
        b = g
            .add_op(OpKind::Linear { out_features: 8 }, &[b], format!("b{i}"))
            .unwrap();
    }
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 2, 4);
    let configs = g
        .ids()
        .map(|id| {
            let node = g.op(id);
            let base = if node.name().ends_with('a') || node.name().starts_with('a') {
                0
            } else {
                4
            };
            ParallelConfig::on_device(node, topo.device_id(base + id.index() % 4))
        })
        .collect();
    let s = Strategy::from_configs(&g, configs);
    (g, topo, s)
}

#[test]
fn island_local_proposals_do_not_wake_remote_islands() {
    // Repairing a proposal on the small island-0 chain must not process
    // the (much larger) island-1 chain's tasks, and must not be pushed
    // onto the full-sweep path by their count.
    let (g, topo, s) = two_island_chains();
    let cost = MeasuredCostModel::paper_default();
    let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
    let island1_tasks = sim
        .task_graph()
        .iter()
        .filter(|(_, t)| t.island == 1)
        .count();
    assert!(island1_tasks >= 160, "chain b must dominate the task count");
    let a2 = g.ids().find(|&i| g.op(i).name() == "a2").unwrap();
    sim.apply(a2, ParallelConfig::on_device(g.op(a2), topo.device_id(3)));
    sim.commit();
    let t = sim.telemetry();
    assert_eq!(t.sweeps, 0, "a local proposal must not trigger a sweep");
    assert!(
        (t.repair_steps as usize) < island1_tasks,
        "repair touched remote work: {} steps vs {} island-1 tasks",
        t.repair_steps,
        island1_tasks,
    );
    // ...and the repair is still exact.
    assert_equals_fresh(
        &g,
        &topo,
        sim.strategy(),
        sim.task_graph(),
        sim.state(),
        "a2",
    );
}

#[test]
fn growing_the_last_op_is_repaired_not_swept() {
    // Splitting the long chain's last op two ways creates more tasks than
    // it removes: the new communication tasks sit in fresh slots and so do
    // the new compute tasks they depend on. The sweep-or-repair estimate
    // must bound their ready times through surviving tasks — reading the
    // new predecessors' slots (zero here, a previous occupant's end time
    // in a recycled slot) dated the change at time 0 and swept.
    let (g, topo, s) = two_island_chains();
    let cost = MeasuredCostModel::paper_default();
    let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
    let last = g.ids().find(|&i| g.op(i).name() == "b159").unwrap();
    let devices = vec![topo.device_id(4), topo.device_id(5)];
    sim.apply(last, ParallelConfig::new(g.op(last), vec![2, 1], devices));
    assert_eq!(sim.telemetry().sweeps, 0, "{:?}", sim.telemetry());
    assert_equals_fresh(
        &g,
        &topo,
        sim.strategy(),
        sim.task_graph(),
        sim.state(),
        "b159",
    );
}

#[test]
fn repairs_interleaved_with_sweeps_stay_exact() {
    // Random walks rarely repair (most proposals dirty most of the
    // schedule); this one mostly does. Moves on the short chain are
    // repaired, moves on the long chain swept, so repairs keep meeting
    // unit orders a sweep has just rewritten, and both are rolled back as
    // often as kept.
    let (g, topo, s) = two_island_chains();
    let cost = MeasuredCostModel::paper_default();
    let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
    let ops: Vec<_> = Strategy::searchable_ops(&g);
    let (short, long): (Vec<_>, Vec<_>) = ops
        .into_iter()
        .partition(|&op| g.op(op).name().starts_with('a'));
    let mut rng = StdRng::seed_from_u64(17);
    for step in 0..80 {
        let (op, base) = if rng.gen_range(0..4) == 0 {
            (long[rng.gen_range(0..long.len())], 4usize)
        } else {
            (short[rng.gen_range(0..short.len())], 0)
        };
        let device = topo.device_id(base + rng.gen_range(0..4usize));
        let before = (sim.task_graph().clone(), sim.state().clone());
        sim.apply(op, ParallelConfig::on_device(g.op(op), device));
        let ctx = format!("step {step}");
        assert_equals_fresh(
            &g,
            &topo,
            sim.strategy(),
            sim.task_graph(),
            sim.state(),
            &ctx,
        );
        if rng.gen_range(0..2) == 0 {
            sim.commit();
        } else {
            sim.rollback();
            assert!(sim.task_graph() == &before.0, "{ctx}: task graph");
            assert!(sim.state() == &before.1, "{ctx}: timeline");
        }
    }
    let t = sim.telemetry();
    assert!(
        t.applies - t.sweeps >= 30 && t.sweeps >= 10,
        "the walk must mix the routes: {t:?}"
    );
}

#[test]
fn delta_matches_full_on_zoo_models() {
    // Heavier deterministic sweep over the actual paper benchmarks
    // (small unrolls to keep runtime in check).
    let topo = clusters::p100_cluster(1);
    for g in [zoo::lenet(64), zoo::rnnlm(64, 3), zoo::alexnet(64)] {
        check_walk(&g, &topo, 7, 30);
    }
}

#[test]
fn cost_is_pure_function_of_strategy() {
    // Reaching the same strategy via two different delta histories must
    // give the same cost.
    let g = zoo::lenet(32);
    let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
    let cost = MeasuredCostModel::paper_default();
    let cfg = SimConfig::default();
    let searchable = Strategy::searchable_ops(&g);
    let target = {
        let mut rng = StdRng::seed_from_u64(99);
        Strategy::random(&g, &topo, ConfigSpace::Full, &mut rng)
    };

    // History A: start from DP, morph op by op in order.
    let mut sa = Strategy::data_parallel(&g, &topo);
    let mut tga = TaskGraph::build(&g, &topo, &sa, &cost, &cfg);
    let mut sta = simulate_full(&tga);
    let mut cost_a = sta.makespan_us();
    for &op in &searchable {
        sa.replace(op, target.config(op).clone());
        let report = tga.rebuild_op(&g, &topo, &sa, &cost, &cfg, op);
        cost_a = simulate_delta(&tga, &mut sta, &report);
    }

    // History B: start from single-device, morph in reverse order.
    let mut sb = Strategy::single_device(&g, &topo, 0);
    let mut tgb = TaskGraph::build(&g, &topo, &sb, &cost, &cfg);
    let mut stb = simulate_full(&tgb);
    let mut cost_b = stb.makespan_us();
    for &op in searchable.iter().rev() {
        sb.replace(op, target.config(op).clone());
        let report = tgb.rebuild_op(&g, &topo, &sb, &cost, &cfg, op);
        cost_b = simulate_delta(&tgb, &mut stb, &report);
    }

    assert!(
        (cost_a - cost_b).abs() < 1e-6,
        "history-dependent cost: {cost_a} vs {cost_b}"
    );
    // And both match a fresh evaluation of the target strategy.
    let fresh = simulate_full(&TaskGraph::build(&g, &topo, &target, &cost, &cfg));
    assert!((cost_a - fresh.makespan_us()).abs() < 1e-6);
}
