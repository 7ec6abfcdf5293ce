//! Property-based tests for the execution simulator's core invariants:
//!
//! 1. **Delta == Full** (paper §5.3): after any sequence of proposals, the
//!    delta-evolved timeline — each step a sweep resumed where the change
//!    begins — equals a full re-simulation of a freshly built task graph
//!    bit for bit: makespan, every task's times and every unit's
//!    execution order.
//! 2. **Timeline sanity**: per-unit executions never overlap, dependencies
//!    are respected, and makespan equals the latest end time.
//! 3. **Cost purity**: the simulated cost of a strategy does not depend on
//!    the history of delta updates that produced it.
//! 4. **Transactional exactness**: after any random apply→rollback
//!    sequence, the task graph and the timeline are bit-identical to their
//!    pre-apply state, and committed walks still match a fresh build.

use flexflow_core::sim::{simulate_delta, simulate_full, SimConfig, SimState, Simulator};
use flexflow_core::soap::{self, random_config, ConfigSpace, ParallelConfig, ParamSync};
use flexflow_core::strategy::{Proposal, Strategy};
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
    // After a committed delta walk on a flat topology, every task's
    // (ready, start, end) and unit matches a fresh full simulation bit
    // for bit.
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
    // NVLink islands joined by an InfiniBand spine.
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 2, 4);
    for g in [zoo::lenet(64), zoo::rnnlm(64, 2)] {
        check_walk(&g, &topo, 23, 20);
    }
    let big = clusters::hierarchical_cluster(DeviceKind::A100, 4, 4);
    check_walk(&zoo::rnnlm(64, 2), &big, 5, 10);
}

/// One transactional step of a walk: propose, check the pending state
/// against a fresh build, then keep it or roll it back — and check the
/// rollback against the pre-proposal structures themselves. Returns how
/// many of the proposed graph's tasks the evaluation dequeued.
fn step_and_check(sim: &mut Simulator<'_>, p: Proposal, keep: bool, ctx: &str) -> (u64, u64) {
    let (g, topo) = (sim.graph(), sim.topology());
    let before = (
        sim.task_graph().clone(),
        sim.state().clone(),
        sim.strategy().clone(),
        sim.cost_us(),
    );
    let dequeued_before = sim.telemetry().dequeued;
    let applied = sim.propose(p);
    let dequeued = sim.telemetry().dequeued - dequeued_before;
    let tasks = sim.task_graph().num_tasks() as u64;
    assert_eq!(applied.to_bits(), sim.cost_us().to_bits(), "{ctx}");
    assert_equals_fresh(g, topo, sim.strategy(), sim.task_graph(), sim.state(), ctx);
    if keep {
        sim.commit();
    } else {
        let restored = sim.rollback();
        assert_eq!(restored.to_bits(), before.3.to_bits(), "{ctx}: cost");
        assert!(sim.task_graph() == &before.0, "{ctx}: task graph");
        assert!(sim.state() == &before.1, "{ctx}: timeline");
        assert_eq!(sim.strategy(), &before.2, "{ctx}: strategy");
    }
    (dequeued, tasks)
}

#[test]
fn four_island_walk_over_first_middle_and_last_op_rolls_back_exactly() {
    // Proposals on the first searchable op cut the timeline at 0 (its new
    // tasks follow the zero-time input tasks), so they take the whole
    // sweep; the middle and the last op resume further and further in.
    // Each is rolled back and kept in turn.
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 4, 4);
    let g = zoo::rnnlm(64, 2);
    let cost = MeasuredCostModel::paper_default();
    let searchable = Strategy::searchable_ops(&g);
    let targets = [
        searchable[0],
        searchable[searchable.len() / 2],
        *searchable.last().unwrap(),
    ];
    let mut rng = StdRng::seed_from_u64(1);
    let s = Strategy::data_parallel(&g, &topo);
    let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
    let mut dequeued_share = [0.0f64; 3];
    for step in 0..24 {
        let which = step % 3;
        let op = targets[which];
        let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
        let keep = (step / 3) % 2 == 1;
        let ctx = format!("step {step} op {}", g.op(op).name());
        let (dequeued, tasks) = step_and_check(&mut sim, Proposal::Config(op, config), keep, &ctx);
        if which == 0 {
            assert_eq!(dequeued, tasks, "{ctx}: a cut at 0 re-sweeps every task");
        }
        dequeued_share[which] += dequeued as f64 / tasks as f64;
    }
    let [first, middle, last] = dequeued_share;
    assert!(
        first > middle && middle > last,
        "the later the op, the less is re-swept: {dequeued_share:?}"
    );
    let t = sim.telemetry();
    assert_eq!((t.applies, t.sweeps), (24, 24));
    assert_eq!((t.commits, t.rollbacks), (12, 12));
    assert_eq!((t.repair_steps, t.fallbacks), (0, 0));
}

/// Two independent chains pinned to different islands of a 2 × 4 cluster:
/// a short one round-robining island 0 and a long one on island 1.
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
fn last_op_proposal_dequeues_under_a_sixteenth_of_the_tasks() {
    // Cost follows what changed: the long chain's last op runs at the end
    // of the timeline, so re-placing it — or splitting it two ways, which
    // creates more tasks than it removes, the new communication tasks in
    // fresh slots behind new compute tasks whose slots hold no times of
    // their own — leaves nearly the whole schedule before the cut.
    let (g, topo, s) = two_island_chains();
    let cost = MeasuredCostModel::paper_default();
    let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
    let last = g.ids().find(|&i| g.op(i).name() == "b159").unwrap();
    let split = ParallelConfig::new(
        g.op(last),
        vec![2, 1],
        vec![topo.device_id(4), topo.device_id(5)],
    );
    let moved = ParallelConfig::on_device(g.op(last), topo.device_id(6));
    for (ctx, config) in [("b159 split", split), ("b159 moved", moved)] {
        let before = sim.telemetry().dequeued;
        sim.apply(last, config);
        let dequeued = sim.telemetry().dequeued - before;
        let tasks = sim.task_graph().num_tasks() as u64;
        assert!(
            dequeued > 0 && 16 * dequeued < tasks,
            "{ctx}: dequeued {dequeued} of {tasks} tasks"
        );
        assert_equals_fresh(
            &g,
            &topo,
            sim.strategy(),
            sim.task_graph(),
            sim.state(),
            ctx,
        );
    }
}

#[test]
fn dequeued_per_capped_proposal_grows_under_2_2x_per_device_doubling() {
    // A proposal costs the tasks its resumed sweep dequeues, so delta
    // evaluation stays affordable as the cluster doubles from 16 to 64 to
    // 256 devices (4-GPU P100 islands on an IB spine) only if that count
    // grows less than 2.2x per doubling. Proposal degrees are capped at 16
    // tasks, as the search's random candidates are on big clusters, so the
    // cells differ only in cluster size; each must also re-sweep less than
    // its whole graph.
    const DEGREE_CAP: u64 = 16;
    const PROPOSALS: u64 = 20;
    let g = zoo::gpt_small(64);
    let cost = MeasuredCostModel::paper_default();
    let searchable = Strategy::searchable_ops(&g);
    let mut cells = Vec::new();
    for gpus in [16usize, 64, 256] {
        let topo = clusters::hierarchical_cluster(DeviceKind::P100, gpus / 4, 4);
        let mut rng = StdRng::seed_from_u64(1);
        let s =
            Strategy::random_with_max_degree(&g, &topo, ConfigSpace::Full, DEGREE_CAP, &mut rng);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        for _ in 0..PROPOSALS {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = soap::random_config_capped(
                g.op(op),
                &topo,
                ConfigSpace::Full,
                DEGREE_CAP,
                &mut rng,
            );
            sim.apply(op, config);
            sim.rollback();
        }
        let mean = sim.telemetry().dequeued as f64 / PROPOSALS as f64;
        let tasks = sim.task_graph().num_tasks() as f64;
        assert!(
            mean < tasks,
            "{gpus} devices: {mean} dequeued per proposal of {tasks} tasks"
        );
        cells.push((gpus, mean));
    }
    for pair in cells.windows(2) {
        let ((ga, a), (gb, b)) = (pair[0], pair[1]);
        let growth = (b / a).powf(1.0 / (gb as f64 / ga as f64).log2());
        assert!(
            growth < 2.2,
            "{ga} -> {gb} devices: {growth:.3}x per doubling"
        );
    }
}

#[test]
fn four_island_walk_with_commits_and_rollbacks_interleaved_stays_exact() {
    // Random proposals, kept or rolled back at random, so resumed sweeps
    // keep starting from timelines other resumed sweeps and swap-backs
    // left; the state after every step equals a fresh simulation.
    let topo = clusters::hierarchical_cluster(DeviceKind::P100, 4, 4);
    let g = zoo::rnnlm(64, 2);
    let cost = MeasuredCostModel::paper_default();
    let searchable = Strategy::searchable_ops(&g);
    for seed in [1, 2] {
        let mut rng = StdRng::seed_from_u64(seed);
        let s = Strategy::data_parallel(&g, &topo);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        for step in 0..60 {
            let op = searchable[rng.gen_range(0..searchable.len())];
            let config = random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng);
            let keep = rng.gen_range(0..2) == 0;
            let ctx = format!("seed {seed} step {step}");
            step_and_check(&mut sim, Proposal::Config(op, config), keep, &ctx);
            assert_equals_fresh(
                &g,
                &topo,
                sim.strategy(),
                sim.task_graph(),
                sim.state(),
                &ctx,
            );
        }
        let t = sim.telemetry();
        assert!(t.commits >= 15 && t.rollbacks >= 15, "{t:?}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn mixed_axis_walk_matches_a_fresh_simulation_after_every_step(
        seed in 0u64..1000,
        hierarchical in 0u8..2,
    ) {
        // All four proposal kinds through the transactional simulator, on
        // a flat and a hierarchical topology, each step kept or rolled
        // back at random.
        let g = zoo::rnnlm(16, 2);
        let topo = if hierarchical == 1 {
            clusters::hierarchical_cluster(DeviceKind::P100, 2, 2)
        } else {
            clusters::uniform_cluster(2, 2, 16.0, 4.0)
        };
        let cost = MeasuredCostModel::paper_default();
        let mut rng = StdRng::seed_from_u64(seed);
        let searchable = Strategy::searchable_ops(&g);
        let sync_ops = soap::sync_ops(&g);
        let microbatches = soap::legal_microbatch_counts(&g, 4);
        let s = Strategy::random_with_max_degree(&g, &topo, ConfigSpace::Full, 4, &mut rng);
        let mut sim = Simulator::new(&g, &topo, &cost, SimConfig::default(), s);
        for step in 0..16 {
            let p = match rng.gen_range(0..6) {
                0 => Proposal::Microbatches(microbatches[rng.gen_range(0..microbatches.len())]),
                1 => {
                    let op = sync_ops[rng.gen_range(0..sync_ops.len())];
                    let mode = match rng.gen_range(0..3) {
                        0 => ParamSync::AllReduce,
                        1 => ParamSync::ShardedZero1 { shards: 2 },
                        _ => ParamSync::ParamServer { server_device: rng.gen_range(0..4) },
                    };
                    Proposal::ParamSync(op, mode)
                }
                2 => {
                    let op = searchable[rng.gen_range(0..searchable.len())];
                    Proposal::Recompute(op, !sim.strategy().recompute(op))
                }
                _ => {
                    let op = searchable[rng.gen_range(0..searchable.len())];
                    Proposal::Config(op, random_config(g.op(op), &topo, ConfigSpace::Full, &mut rng))
                }
            };
            let ctx = format!("seed {seed} step {step} {p:?}");
            step_and_check(&mut sim, p, rng.gen_range(0..2) == 0, &ctx);
        }
    }
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
