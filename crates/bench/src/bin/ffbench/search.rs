//! The three search workloads: `SearchRequest::run` in process, driven the
//! way `flexflow search` drives it (one chain, delta simulation, initial
//! candidates data-parallel + expert), and a traced proposal loop that
//! times each layer from outside through its public functions.

use crate::gen::SplitMix64;
use crate::proc::{self, Guarded};
use crate::report::{Outcome, RunOpts};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use flexflow_baselines::expert;
use flexflow_core::memory::{self, MemBudget};
use flexflow_core::metrics::DeltaTelemetry;
use flexflow_core::sim::{simulate_delta_with, simulate_full, DeltaScratch};
use flexflow_core::{
    soap, strategy_io, Budget, ConfigSpace, ParamSync, SearchRequest, SearchResult, SimAlgorithm,
    SimConfig, SimState, Simulator, Strategy, TaskGraph,
};
use flexflow_costmodel::{CostModel, MeasuredCostModel};
use flexflow_device::{clusters, DeviceKind, Topology};
use flexflow_opgraph::{zoo, OpGraph, OpId, OpKind};
use flexflow_runtime::{GroundTruthConfig, GroundTruthExecutor};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

pub struct SearchSpec {
    pub name: &'static str,
    model: &'static str,
    /// `None`: flat paper cluster of four P100s; `Some`: hierarchical preset.
    preset: Option<&'static str>,
    /// `Budget::evaluations` per initial candidate, as `--evals`.
    evals: u64,
    /// Which searches a run makes.
    seeds: Seeds,
    /// Microbatch, parameter-sync and recompute axes open under the
    /// devices' own memory sizes, warm-started from a strategy that fits.
    /// Otherwise the configuration axis alone, no budget.
    budgeted: bool,
    /// Also run the search through the `flexflow` CLI and compare.
    cli_check: bool,
}

/// The search seeds of a run, in order. What a search costs depends on
/// the proposals it draws, so a run covers several.
enum Seeds {
    /// `--seed`, `--seed + 1`, … until the time is up, at least this many.
    Fresh(u64),
    /// Search seeds `0..n`, all of them in an order `--seed` shuffles,
    /// whatever the time. For the 64-device workload: there nine proposals
    /// in ten cost 6 ms and the tenth, whose repair falls back, a second,
    /// about one every two seconds of search, so throughput over any
    /// affordable number of fresh seeds is a count of those few (ten runs
    /// of five fresh seeds each spread 23 %). A fixed population leaves
    /// the machine's noise.
    Pool(u64),
}

impl Seeds {
    fn order(&self, seed: u64) -> Box<dyn Iterator<Item = u64>> {
        match *self {
            Seeds::Fresh(_) => Box::new((0..).map(move |i| seed.wrapping_add(i))),
            Seeds::Pool(n) => {
                let mut pool: Vec<u64> = (0..n).collect();
                SplitMix64::new(seed).shuffle(&mut pool);
                Box::new(pool.into_iter())
            }
        }
    }
}

// Evaluation budgets are sized so a run of `spec::RUN_SECONDS` covers
// several searches.
pub const WORKLOADS: [SearchSpec; 3] = [
    SearchSpec {
        name: "search_rnnlm4",
        model: "rnnlm",
        preset: None,
        evals: 3000,
        seeds: Seeds::Fresh(4),
        budgeted: false,
        cli_check: true,
    },
    SearchSpec {
        name: "search_gpt64",
        model: "gpt_small",
        preset: Some("p100x64-ib"),
        evals: 25,
        seeds: Seeds::Pool(5),
        budgeted: false,
        cli_check: false,
    },
    SearchSpec {
        name: "search_gptmed16_mem",
        model: "gpt_medium",
        preset: Some("p100x16-ib"),
        evals: 60,
        seeds: Seeds::Pool(8),
        budgeted: true,
        cli_check: false,
    },
];

const MAX_MICROBATCHES: u64 = 4;

/// Everything a search needs before its first proposal.
struct Env {
    graph: OpGraph,
    topo: Topology,
    cost: MeasuredCostModel,
    initials: Vec<Strategy>,
    budget: Option<MemBudget>,
}

impl SearchSpec {
    fn env(&self) -> Env {
        let graph = zoo::by_name(self.model, 64);
        let topo = match self.preset {
            Some(name) => clusters::preset(name).expect("preset builds"),
            None => clusters::paper_cluster(DeviceKind::P100, 4),
        };
        let cost = MeasuredCostModel::paper_default();
        let dp = Strategy::data_parallel(&graph, &topo);
        let (initials, budget) = if self.budgeted {
            // Data parallelism alone overflows a 16 GB P100 here;
            // recomputing everywhere and sharding optimizer state across
            // all devices fits, so every seed starts (and therefore ends)
            // feasible.
            let shards = topo.num_devices() as u64;
            let warm = dp
                .with_recompute_everywhere(true)
                .with_param_sync_everywhere(ParamSync::ShardedZero1 { shards });
            (vec![warm], Some(MemBudget::device_defaults(&topo)))
        } else {
            let ex = expert::strategy(&graph, &topo);
            (vec![dp, ex], None)
        };
        Env {
            graph,
            topo,
            cost,
            initials,
            budget,
        }
    }

    fn request(&self, env: &Env, seed: u64, chains: usize) -> SearchRequest {
        let r = SearchRequest::new(seed)
            .chains(chains)
            .algorithm(SimAlgorithm::Delta);
        if self.budgeted {
            r.max_microbatches(MAX_MICROBATCHES)
                .param_sync(true)
                .recompute(true)
                .mem_budget(env.budget.clone())
        } else {
            r
        }
    }

    fn search(&self, env: &Env, seed: u64, chains: usize) -> Round {
        let request = self.request(env, seed, chains);
        let budget = Budget::evaluations(self.evals);
        let cfg = SimConfig::default();
        let t0 = Instant::now();
        let result = if self.budgeted {
            let warm = env.initials[0].clone();
            request.run_warm(&env.graph, &env.topo, &env.cost, warm, budget, cfg)
        } else {
            request.run(&env.graph, &env.topo, &env.cost, &env.initials, budget, cfg)
        };
        Round {
            seed,
            wall_s: t0.elapsed().as_secs_f64(),
            result,
        }
    }
}

struct Round {
    seed: u64,
    wall_s: f64,
    result: SearchResult,
}

impl Round {
    fn evals_per_s(&self) -> f64 {
        self.result.evals as f64 / self.wall_s
    }
}

/// Set-up as a user of `flexflow search` pays it: graph, topology, cost
/// model, initial candidates and the first `Simulator::new`. Repeated, and
/// the median reported, because the cheap set-ups take milliseconds.
fn timed_setup(spec: &SearchSpec) -> (Env, f64) {
    let once = || {
        let t0 = Instant::now();
        let env = spec.env();
        let sim = Simulator::new(
            &env.graph,
            &env.topo,
            &env.cost,
            SimConfig::default(),
            env.initials[0].clone(),
        );
        std::hint::black_box(sim.cost_us());
        drop(sim);
        (env, t0.elapsed().as_secs_f64())
    };
    let (mut env, first) = once();
    let reps = ((1.0 / first).ceil() as usize).clamp(5, 25);
    let mut samples = vec![first];
    for _ in 1..reps {
        let (e, s) = once();
        env = e;
        samples.push(s);
    }
    (env, median(&samples))
}

/// One search per seed of the run's order: under [`Seeds::Fresh`] until
/// `seconds` have passed and the minimum has run, under [`Seeds::Pool`]
/// the whole pool. Then the first seed once more (inside the same
/// `seconds` when they bind), so the same-seed-same-answer check has
/// something to compare; that last round is a check, not a sample.
fn measure(spec: &SearchSpec, env: &Env, seed: u64, seconds: f64) -> Vec<Round> {
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    for s in spec.seeds.order(seed) {
        if let Seeds::Fresh(at_least) = spec.seeds {
            let reserved = rounds.last().map_or(0.0, |r| r.wall_s);
            let timed_out = t0.elapsed().as_secs_f64() + reserved >= seconds;
            if rounds.len() as u64 >= at_least && timed_out {
                break;
            }
        }
        rounds.push(spec.search(env, s, 1));
    }
    rounds.push(spec.search(env, rounds[0].seed, 1));
    rounds
}

/// What `s` overflows the budget by, if there is one and it does.
fn over_budget(env: &Env, s: &Strategy) -> Option<memory::OomViolation> {
    let budget = env.budget.as_ref()?;
    let fp = memory::footprint(&env.graph, &env.topo, s);
    memory::budget_violation(&fp, &env.topo, budget)
}

/// The strategy's cost re-simulated from scratch, in microseconds.
fn resimulate(env: &Env, s: &Strategy) -> (TaskGraph, f64) {
    let tg = TaskGraph::build(&env.graph, &env.topo, s, &env.cost, &SimConfig::default());
    let cost = simulate_full(&tg).makespan_us();
    (tg, cost)
}

/// Checks one round's output; returns what is wrong with it, if anything.
fn round_defect(
    env: &Env,
    initial_best_us: f64,
    first: Option<&Round>,
    r: &Round,
) -> Option<String> {
    let best = &r.result.best;
    let record = strategy_io::export_record(
        &env.graph,
        &env.topo,
        best,
        r.result.best_cost_us,
        r.result.evals,
    );
    match strategy_io::import_record(&env.graph, &env.topo, &record) {
        Ok(back) if &back == best => {}
        Ok(_) => return Some("exported strategy imports to a different strategy".into()),
        Err(e) => return Some(format!("returned strategy does not validate: {e}")),
    }
    let (_, cost) = resimulate(env, best);
    if cost.to_bits() != r.result.best_cost_us.to_bits() {
        return Some(format!(
            "simulate_full gives {cost} us, the search reported {} us",
            r.result.best_cost_us
        ));
    }
    if r.result.best_cost_us > initial_best_us {
        return Some(format!(
            "best {} us is worse than the best initial candidate {initial_best_us} us",
            r.result.best_cost_us
        ));
    }
    if let Some(v) = over_budget(env, best) {
        return Some(format!("returned strategy is over budget: {v}"));
    }
    if let Some(first) = first {
        if first.result.best_cost_us.to_bits() != r.result.best_cost_us.to_bits()
            || first.result.evals != r.result.evals
        {
            return Some(format!(
                "seed {} gave {} us in {} evals, then {} us in {} evals",
                r.seed,
                first.result.best_cost_us,
                first.result.evals,
                r.result.best_cost_us,
                r.result.evals
            ));
        }
    }
    None
}

/// Runs the same search through the CLI and requires the same answer, so
/// the benchmark cannot drift onto a path `flexflow search` does not take.
fn cli_defect(spec: &SearchSpec, env: &Env, opts: &RunOpts, r: &Round) -> Option<String> {
    let out_file = opts
        .scratch
        .join(format!("{}-cli-strategy.json", spec.name));
    let _ = std::fs::remove_file(&out_file);
    let child = Command::new(&opts.flexflow)
        .args([
            "search",
            spec.model,
            "--gpus",
            "4",
            "--chains",
            "1",
            "--verbose",
        ])
        .args(["--evals", &spec.evals.to_string()])
        .args(["--seed", &r.seed.to_string()])
        .arg("--out")
        .arg(&out_file)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn();
    let mut child = match child {
        Ok(c) => Guarded(c),
        Err(e) => return Some(format!("cannot start {}: {e}", opts.flexflow.display())),
    };
    let allowed = Duration::from_secs_f64(60.0 + 20.0 * r.wall_s);
    match child.wait_until(Instant::now() + allowed) {
        Some(status) if status.success() => {}
        Some(status) => return Some(format!("flexflow search exited with {status}")),
        None => return Some("flexflow search missed its deadline and was killed".into()),
    }
    let mut stdout = String::new();
    if let Some(mut pipe) = child.0.stdout.take() {
        let _ = std::io::Read::read_to_string(&mut pipe, &mut stdout);
    }
    let expected_line = format!("search: {} proposals in", r.result.evals);
    let expected_tail = format!(
        "({} accepted), best {:.3} ms/iter",
        r.result.accepted,
        r.result.best_cost_us / 1e3
    );
    if !stdout
        .lines()
        .any(|l| l.starts_with(&expected_line) && l.ends_with(&expected_tail))
    {
        return Some(format!(
            "the CLI did not print \"{expected_line} ... {expected_tail}\""
        ));
    }
    let record = strategy_io::export_record(&env.graph, &env.topo, &r.result.best, 0.0, 0);
    let ours = serde_json::to_string_pretty(&record.dump).expect("serialize");
    match std::fs::read_to_string(&out_file) {
        Ok(theirs) if theirs == ours => None,
        Ok(_) => Some("the CLI exported a different strategy than the in-process search".into()),
        Err(e) => Some(format!("the CLI wrote no strategy file: {e}")),
    }
}

fn check_rounds(
    spec: &SearchSpec,
    env: &Env,
    cli: Option<&RunOpts>,
    rounds: &[Round],
    out: &mut Outcome,
) {
    // The best of the candidates the search may return as they are.
    let initial_best_us = env
        .initials
        .iter()
        .filter(|s| over_budget(env, s).is_none())
        .map(|s| resimulate(env, s).1)
        .fold(f64::INFINITY, f64::min);
    for (i, r) in rounds.iter().enumerate() {
        let first = rounds[..i].iter().find(|f| f.seed == r.seed);
        let defect = round_defect(env, initial_best_us, first, r);
        out.check(defect.is_none(), || {
            format!(
                "{} seed {}: {}",
                spec.name,
                r.seed,
                defect.unwrap_or_default()
            )
        });
    }
    if let Some(opts) = cli {
        let defect = cli_defect(spec, env, opts, &rounds[0]);
        out.check(defect.is_none(), || {
            format!(
                "{} CLI cross-check: {}",
                spec.name,
                defect.unwrap_or_default()
            )
        });
    }
}

/// The untraced run: every end-to-end metric.
pub fn run(spec: &SearchSpec, opts: &RunOpts, out: &mut Outcome) {
    let (env, setup_s) = timed_setup(spec);
    let rounds = measure(spec, &env, opts.seed, opts.seconds);
    let peak = proc::peak_rss_mb(std::process::id());
    check_rounds(spec, &env, spec.cli_check.then_some(opts), &rounds, out);

    // Pooled over the rounds, not a median of per-round rates: a few costly
    // proposals (repairs that run out of budget) carry much of the time,
    // and a median over short rounds would leave them out. The last round
    // repeats the first seed and would count it twice.
    let samples = &rounds[..rounds.len() - 1];
    let evals: u64 = samples.iter().map(|r| r.result.evals).sum();
    let wall_s: f64 = samples.iter().map(|r| r.wall_s).sum();
    let evals_per_s = evals as f64 / wall_s;
    out.set("setup_s", setup_s);
    out.set("work_per_s", evals_per_s);
    // A search that finds no improvement, the commonest at these budgets:
    // patience ends it on every candidate. Single searches' own wall
    // times say more about the seeds than about the program.
    let budget = Budget::evaluations(spec.evals);
    let stale_evals = (budget.max_evals as f64 * budget.patience_fraction) as u64;
    let search_evals = stale_evals * env.initials.len() as u64;
    out.set("answer_ms", search_evals as f64 / evals_per_s * 1e3);
    out.set_measured("peak_rss_mb", peak);
    println!(
        "{}: {} searches of {} evals/candidate, {evals} evals in {wall_s:.2}s, and the first again",
        spec.name,
        samples.len(),
        spec.evals
    );
    for r in &rounds {
        println!(
            "  seed {:>6}: {:>5} evals in {:>7.3}s, best {:.3} ms/iter",
            r.seed,
            r.result.evals,
            r.wall_s,
            r.result.best_cost_us / 1e3
        );
    }
}

/// The search spends one proposal in this many on each open structural
/// axis (DESIGN.md, "1-in-8 odds when the axis is open"); the traced loop
/// keeps that mix so it lands in the regime the real search runs in.
const AXIS_ODDS: u64 = 8;
/// What the traced loop adds to the cost of a proposal that overflows the
/// budget, plus the overflow in bytes: any feasible strategy beats any
/// infeasible one, and a smaller overflow beats a larger.
const INFEASIBLE_US: f64 = 1e12;

/// One proposal of the traced loop, and the span its apply is timed under.
enum Proposal {
    Config(OpId, soap::ParallelConfig),
    Microbatches(u64),
    ParamSync(OpId, ParamSync),
    Recompute(OpId, bool),
}

impl Proposal {
    fn apply_span(&self) -> &'static str {
        match self {
            Proposal::Config(..) => "sim.apply",
            Proposal::Microbatches(_) => "sim.apply_microbatches",
            Proposal::ParamSync(..) => "sim.apply_param_sync",
            Proposal::Recompute(..) => "sim.apply_recompute",
        }
    }
}

/// Configuration proposals per candidate that are also timed as their
/// parts on the mirror. Long chains mirror every n-th proposal only: the
/// mirror's work between two proposals evicts the simulator's working set
/// and would slow the very applies being timed.
const MIRRORED_PER_CANDIDATE: u64 = 400;

const APPLY_SPANS: [&str; 4] = [
    "sim.apply",
    "sim.apply_microbatches",
    "sim.apply_param_sync",
    "sim.apply_recompute",
];

/// What the structural axes of a budgeted search may propose, from the
/// graph's own accessors.
struct Axes {
    microbatches: Vec<u64>,
    /// The first member of every parameter-sharing layer.
    sync_ops: Vec<OpId>,
    recompute_ops: Vec<OpId>,
}

impl Axes {
    fn of(spec: &SearchSpec, env: &Env) -> Self {
        if !spec.budgeted {
            return Self {
                microbatches: Vec::new(),
                sync_ops: Vec::new(),
                recompute_ops: Vec::new(),
            };
        }
        let graph = &env.graph;
        let batch = |m: u64| {
            graph
                .ids()
                .all(|id| graph.op(id).output_shape().dim(0).is_multiple_of(m))
        };
        Self {
            microbatches: (1..=MAX_MICROBATCHES).filter(|&m| batch(m)).collect(),
            sync_ops: graph
                .layer_ids()
                .filter_map(|layer| graph.ids().find(|&id| graph.op(id).layer() == Some(layer)))
                .collect(),
            recompute_ops: graph
                .ids()
                .filter(|&id| !matches!(graph.op(id).kind(), OpKind::Input { .. }))
                .collect(),
        }
    }

    fn draw(
        &self,
        env: &Env,
        current: &Strategy,
        searchable: &[OpId],
        rng: &mut StdRng,
    ) -> Proposal {
        let devices = env.topo.num_devices();
        let pick = |rng: &mut StdRng, n: usize| rng.gen_range(0..n);
        if self.microbatches.len() > 1 && rng.gen_range(0..AXIS_ODDS) == 0 {
            let others: Vec<u64> = self
                .microbatches
                .iter()
                .copied()
                .filter(|&m| m != current.microbatches())
                .collect();
            return Proposal::Microbatches(others[pick(rng, others.len())]);
        }
        if !self.sync_ops.is_empty() && devices >= 2 && rng.gen_range(0..AXIS_ODDS) == 0 {
            let op = self.sync_ops[pick(rng, self.sync_ops.len())];
            let mode = match rng.gen_range(0..3u32) {
                0 => ParamSync::AllReduce,
                1 => ParamSync::ShardedZero1 {
                    shards: 2u64 << pick(rng, devices.ilog2() as usize),
                },
                _ => ParamSync::ParamServer {
                    server_device: pick(rng, devices),
                },
            };
            return Proposal::ParamSync(op, mode);
        }
        if !self.recompute_ops.is_empty() && rng.gen_range(0..AXIS_ODDS) == 0 {
            let op = self.recompute_ops[pick(rng, self.recompute_ops.len())];
            return Proposal::Recompute(op, !current.recompute(op));
        }
        let op = searchable[pick(rng, searchable.len())];
        let config = soap::random_config(env.graph.op(op), &env.topo, ConfigSpace::Full, rng);
        Proposal::Config(op, config)
    }
}

/// A bench-owned task graph and timeline of the last committed strategy,
/// so a configuration proposal can be timed as its parts: graph surgery,
/// then repair or sweep.
struct Mirror {
    tg: TaskGraph,
    state: SimState,
}

impl Mirror {
    fn new(env: &Env, committed: &Strategy) -> Self {
        let cfg = SimConfig::default();
        let tg = TaskGraph::build(&env.graph, &env.topo, committed, &env.cost, &cfg);
        let state = simulate_full(&tg);
        Self { tg, state }
    }

    /// The cost of `proposed`, which differs from the committed strategy
    /// in `op`'s configuration. The graph is rolled back and the repair
    /// works on a copy of the timeline, so the mirror stays at the
    /// committed strategy. Unlike `Simulator::apply` the repair is not
    /// journaled: `sim.repair`/`sim.sweep` are the algorithm alone.
    fn cost_of(
        &mut self,
        env: &Env,
        proposed: &Strategy,
        op: OpId,
        scratch: &mut DeltaScratch,
        tracer: &mut Tracer,
        request: u64,
    ) -> f64 {
        let cfg = SimConfig::default();
        let mut state = self.state.clone();
        self.tg.begin_txn();
        let report = tracer.leaf("taskgraph.rebuild", request, || {
            self.tg
                .rebuild_op(&env.graph, &env.topo, proposed, &env.cost, &cfg, op)
        });
        let span = tracer.open("sim.repair", request);
        let cost = simulate_delta_with(&self.tg, &mut state, &report, scratch);
        if scratch.last_was_sweep {
            tracer.rename(span, "sim.sweep");
        }
        tracer.close(span);
        self.tg.rollback_txn();
        cost
    }
}

#[derive(Default)]
struct TracedChain {
    evals: u64,
    sweeps: u64,
    /// Wall time of the whole loop, mirror included.
    wall_s: f64,
    /// Proposals whose mirror cost differed from `Simulator::apply`'s.
    mirror_mismatches: u64,
}

/// A proposal loop over the simulator's public calls with a span around
/// each: the real search's proposal mix, Metropolis acceptance at the
/// request's own temperature, and its patience, until `stop`. It draws
/// its own proposals, not the real search's.
fn traced_chain(
    spec: &SearchSpec,
    env: &Env,
    seed: u64,
    stop: Instant,
    tracer: &mut Tracer,
) -> TracedChain {
    let (graph, topo) = (&env.graph, &env.topo);
    let searchable = Strategy::searchable_ops(graph);
    let axes = Axes::of(spec, env);
    let beta_scale = spec.request(env, seed, 1).beta_scale;
    let budget = Budget::evaluations(spec.evals);
    let patience = (budget.max_evals as f64 * budget.patience_fraction) as u64;
    let mirror_every = (spec.evals / MIRRORED_PER_CANDIDATE).max(1);
    let penalized = |raw: f64, s: &Strategy| match over_budget(env, s) {
        Some(v) => raw + INFEASIBLE_US + v.overflow() as f64,
        None => raw,
    };

    let mut rng = StdRng::seed_from_u64(seed);
    let mut scratch = DeltaScratch::default();
    let mut chain = TracedChain::default();
    let t0 = Instant::now();
    for init in &env.initials {
        let mut sim = Simulator::new(graph, topo, &env.cost, SimConfig::default(), init.clone());
        let mut mirror_slot: Option<Mirror> = None;
        let beta = beta_scale / sim.cost_us();
        let mut current = penalized(sim.cost_us(), sim.strategy());
        let mut best = current;
        let mut stale = 0u64;
        for i in 0..spec.evals {
            // Outside the proposal span: after an accepted proposal the
            // mirror is rebuilt at the new committed strategy.
            let mirrored = i % mirror_every == 0;
            if mirrored && mirror_slot.is_none() {
                mirror_slot = Some(Mirror::new(env, sim.strategy()));
            }
            let request = chain.evals;
            let root = tracer.open("proposal", request);
            let proposal = tracer.leaf("soap.generate", request, || {
                axes.draw(env, sim.strategy(), &searchable, &mut rng)
            });
            let sweeps_before = sim.telemetry().sweeps;
            let raw = tracer.leaf(proposal.apply_span(), request, || match &proposal {
                Proposal::Config(op, config) => sim.apply(*op, config.clone()),
                Proposal::Microbatches(m) => sim.apply_microbatches(*m),
                Proposal::ParamSync(op, mode) => sim.apply_param_sync(*op, *mode),
                Proposal::Recompute(op, on) => sim.apply_recompute(*op, *on),
            });
            chain.sweeps += sim.telemetry().sweeps - sweeps_before;
            let cost = if env.budget.is_some() {
                tracer.leaf("memory.footprint", request, || {
                    penalized(raw, sim.strategy())
                })
            } else {
                raw
            };
            chain.evals += 1;
            let accept = cost <= current || rng.gen::<f64>() < (beta * (current - cost)).exp();
            if accept {
                tracer.leaf("sim.commit", request, || sim.commit());
                current = cost;
            } else {
                tracer.leaf("sim.rollback", request, || sim.rollback());
            }
            tracer.close(root);
            stale = if accept && cost < best { 0 } else { stale + 1 };
            best = best.min(current);

            // The same proposal as rebuild + repair|sweep on the mirror,
            // outside the proposal span so the decomposition does not
            // count towards the loop's own time.
            if let (Proposal::Config(op, config), Some(mirror), true) =
                (&proposal, mirror_slot.as_mut(), mirrored)
            {
                let parts = tracer.open("mirror", request);
                let mut proposed = sim.strategy().clone();
                proposed.replace(*op, config.clone());
                let in_parts = mirror.cost_of(env, &proposed, *op, &mut scratch, tracer, request);
                tracer.close(parts);
                chain.mirror_mismatches += u64::from(in_parts.to_bits() != raw.to_bits());
            }
            if accept {
                mirror_slot = None;
            }
            if (patience > 0 && stale >= patience) || Instant::now() >= stop {
                break;
            }
        }
        if Instant::now() >= stop {
            break;
        }
    }
    chain.wall_s = t0.elapsed().as_secs_f64();
    chain
}

/// Real searches a traced run makes first, as the reference its counts
/// and per-eval time come from.
const TRACED_REFERENCE_SEARCHES: usize = 2;

/// Whether two shares of `n_a` and `n_b` proposals agree within 0.05,
/// allowing for the sampling error of the two counts (three standard
/// deviations of their difference at the pooled share).
fn shares_agree(share_a: f64, n_a: u64, share_b: f64, n_b: u64) -> bool {
    let (n_a, n_b) = (n_a.max(1) as f64, n_b.max(1) as f64);
    let pooled = (share_a * n_a + share_b * n_b) / (n_a + n_b);
    let sigma = (pooled * (1.0 - pooled) * (1.0 / n_a + 1.0 / n_b)).sqrt();
    (share_a - share_b).abs() <= 0.05 + 3.0 * sigma
}

/// Median wall time of `f` over `reps` calls, in seconds.
fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            std::hint::black_box(f());
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&samples)
}

/// The traced run: every per-layer metric this workload exercises.
pub fn run_traced(spec: &SearchSpec, opts: &RunOpts, out: &mut Outcome) {
    let env = spec.env();
    // The untraced reference: the real search on the seeds the end-to-end
    // run starts with.
    let rounds: Vec<Round> = spec
        .seeds
        .order(opts.seed)
        .take(TRACED_REFERENCE_SEARCHES)
        .map(|s| spec.search(&env, s, 1))
        .collect();
    check_rounds(spec, &env, None, &rounds, out);
    let real_evals: u64 = rounds.iter().map(|r| r.result.evals).sum();
    let real_wall_s: f64 = rounds.iter().map(|r| r.wall_s).sum();
    let real_eval_us = real_wall_s * 1e6 / real_evals as f64;
    let total = |f: fn(&DeltaTelemetry) -> u64| -> f64 {
        rounds.iter().map(|r| f(&r.result.telemetry)).sum::<u64>() as f64
    };
    let applies = total(|t| t.applies).max(1.0);
    let real_sweep_share = total(|t| t.sweeps) / applies;

    // Traced chains on the run's seeds in order, for half the run's time.
    let mut tracer = Tracer::new();
    let mut traced = TracedChain::default();
    let stop = Instant::now() + Duration::from_secs_f64(opts.seconds / 2.0);
    for seed in spec.seeds.order(opts.seed) {
        if Instant::now() >= stop {
            break;
        }
        let chain = traced_chain(spec, &env, seed, stop, &mut tracer);
        traced.evals += chain.evals;
        traced.sweeps += chain.sweeps;
        traced.wall_s += chain.wall_s;
        traced.mirror_mismatches += chain.mirror_mismatches;
    }
    out.check(traced.mirror_mismatches == 0, || {
        format!(
            "{}: {} proposals cost differently as rebuild + repair/sweep than as Simulator::apply",
            spec.name, traced.mirror_mismatches
        )
    });
    let traced_sweep_share = traced.sweeps as f64 / traced.evals as f64;
    out.check(
        shares_agree(traced_sweep_share, traced.evals, real_sweep_share, applies as u64),
        || {
            format!(
                "{}: the traced loop swept {traced_sweep_share:.3} of {} proposals, the real search {real_sweep_share:.3} of {applies}",
                spec.name, traced.evals
            )
        },
    );

    let proposal_us = tracer.durations_us("proposal");
    let apply_us: Vec<f64> = APPLY_SPANS
        .iter()
        .flat_map(|n| tracer.durations_us(n))
        .collect();
    let children_us = apply_us.iter().sum::<f64>()
        + [
            "soap.generate",
            "memory.footprint",
            "sim.commit",
            "sim.rollback",
        ]
        .iter()
        .map(|n| tracer.durations_us(n).iter().sum::<f64>())
        .sum::<f64>();
    let traced_eval_us = mean(&proposal_us);
    for (metric, span, scale) in [
        ("soap.generate_us", "soap.generate", 1.0),
        ("taskgraph.rebuild_us", "taskgraph.rebuild", 1.0),
        ("taskgraph.rebuild_all_ms", "sim.apply_microbatches", 1e-3),
        ("taskgraph.rebuild_sync_us", "sim.apply_param_sync", 1.0),
        ("sim.repair_us", "sim.repair", 1.0),
        ("sim.sweep_us", "sim.sweep", 1.0),
        ("sim.commit_us", "sim.commit", 1.0),
        ("sim.rollback_us", "sim.rollback", 1.0),
        ("memory.footprint_us", "memory.footprint", 1.0),
    ] {
        out.set_if_called(metric, tracer.median_us(span).map(|us| us * scale));
    }
    out.set(
        "taskgraph.journal_slots_per_proposal",
        total(|t| t.journal_slots) / applies,
    );
    out.set("sim.apply_us", median(&apply_us));
    out.set("sim.apply_tail_us", tail(&apply_us));
    out.set("sim.sweep_share", real_sweep_share);
    out.set("sim.sweep_share_traced", traced_sweep_share);
    out.set("sim.fallback_share", total(|t| t.fallbacks) / applies);
    out.set(
        "sim.repair_steps_per_proposal",
        total(|t| t.repair_steps) / applies,
    );
    out.set(
        "memory.calls",
        tracer.durations_us("memory.footprint").len() as f64,
    );
    let accepted: u64 = rounds.iter().map(|r| r.result.accepted).sum();
    out.set("optimizer.accept_rate", accepted as f64 / real_evals as f64);
    out.set("optimizer.evals", real_evals as f64);
    let costs_ms: Vec<f64> = rounds.iter().map(|r| r.result.best_cost_us / 1e3).collect();
    out.set("optimizer.best_cost_ms", mean(&costs_ms));
    out.set(
        "optimizer.self_share",
        1.0 - children_us / traced.evals as f64 / real_eval_us,
    );
    out.set("optimizer.trace_coverage", traced_eval_us / real_eval_us);
    if spec.cli_check {
        // Cheap enough only on the small workload.
        let two = spec.search(&env, opts.seed, 2);
        out.set(
            "optimizer.chain2_scaling",
            two.evals_per_s() / rounds[0].evals_per_s(),
        );
    }

    // Layers a search pays once, timed from outside on the data-parallel
    // strategy (the first candidate of every search).
    let dp = Strategy::data_parallel(&env.graph, &env.topo);
    let cfg = SimConfig::default();
    let build_s = time_median(5, || {
        TaskGraph::build(&env.graph, &env.topo, &dp, &env.cost, &cfg)
    });
    let tg = TaskGraph::build(&env.graph, &env.topo, &dp, &env.cost, &cfg);
    let full_s = time_median(5, || simulate_full(&tg).makespan_us());
    out.set("taskgraph.build_ms", build_s * 1e3);
    out.set("taskgraph.tasks", tg.num_tasks() as f64);
    out.set("sim.full_ms", full_s * 1e3);
    out.set("sim.tasks_per_s", tg.num_tasks() as f64 / full_s);
    out.set("costmodel.query_ns", costmodel_query_ns(&env, &dp));

    // Fig. 11: the first returned strategy under the ground-truth executor.
    let (best_tg, sim_us) = resimulate(&env, &rounds[0].result.best);
    let gt = GroundTruthExecutor::new(GroundTruthConfig {
        seed: opts.seed,
        ..GroundTruthConfig::default()
    });
    let t0 = Instant::now();
    let gt_us = gt.execute(&best_tg, &env.topo);
    out.set("ground_truth.exec_ms", t0.elapsed().as_secs_f64() * 1e3);
    out.set(
        "ground_truth.sim_error_pct",
        (sim_us - gt_us).abs() / gt_us * 100.0,
    );

    // Traced wall (spans and mirror included) against the real search's.
    let traced_wall_us = traced.wall_s * 1e6 / traced.evals as f64;
    let overhead_pct = (traced_wall_us / real_eval_us - 1.0) * 100.0;
    out.set("trace.overhead_pct", overhead_pct);

    let trace_file = opts.scratch.join(format!("trace-{}.json", spec.name));
    if let Err(e) = tracer.write_chrome(&trace_file) {
        eprintln!("cannot write {}: {e}", trace_file.display());
    }
    println!(
        "{}: traced {} proposals in {:.2}s ({:.1} us each inside the proposal span, {:.1} us in the real search; {:.0} % slower traced, mirror included); trace in {}",
        spec.name,
        traced.evals,
        traced.wall_s,
        traced_eval_us,
        real_eval_us,
        overhead_pct,
        trace_file.display()
    );
    for (name, ns) in tracer.self_time_by_name() {
        println!("  self time {:<24} {:>10.1} ms", name, ns as f64 / 1e6);
    }
}

/// Steady-state cost of one cost-model query: every op's first
/// data-parallel tile, repeated until the timing is well above the clock.
fn costmodel_query_ns(env: &Env, dp: &Strategy) -> f64 {
    let kind = env
        .topo
        .device_ids()
        .next()
        .map(|d| env.topo.device(d).kind)
        .expect("cluster has a device");
    let queries: Vec<_> = env
        .graph
        .ids()
        .map(|id| (env.graph.op(id), dp.config(id).tile(env.graph.op(id), 0)))
        .collect();
    let passes = (20_000 / queries.len()).max(1);
    let t0 = Instant::now();
    for _ in 0..passes {
        for (node, tile) in &queries {
            std::hint::black_box(env.cost.task_time_us(node, tile, kind));
        }
    }
    t0.elapsed().as_secs_f64() * 1e9 / (passes * queries.len()) as f64
}

#[cfg(test)]
mod tests {
    use super::shares_agree;

    #[test]
    fn sweep_shares_agree_within_five_points_plus_sampling_error() {
        // Many proposals on both sides: the 0.05 decides.
        assert!(shares_agree(0.90, 100_000, 0.94, 100_000));
        assert!(!shares_agree(0.90, 100_000, 0.96, 100_000));
        // 35 against 90 proposals near 0.9 may differ by about 0.2 more.
        assert!(shares_agree(0.97, 35, 0.85, 90));
        assert!(!shares_agree(0.97, 35, 0.60, 90));
    }
}
