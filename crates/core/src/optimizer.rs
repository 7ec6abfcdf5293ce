//! The execution optimizer (paper §6): Metropolis-Hastings MCMC over the
//! SOAP strategy space, using the execution simulator as the cost oracle.
//!
//! Proposals pick a random operation and replace its configuration with a
//! uniformly random one (§6.2), a symmetric proposal distribution, so the
//! acceptance rule is
//! `alpha = min(1, exp(beta * (cost(S) - cost(S*))))` (Eq. 2).
//!
//! The search restarts from each supplied initial strategy (existing
//! strategies such as data parallelism plus random ones, §6.2) and stops a
//! restart when its share of the budget is exhausted or when the best
//! strategy has not improved for half of that share.
//!
//! Two drivers share the same chain loop:
//!
//! - [`McmcOptimizer`] runs the chains sequentially on the calling thread
//!   (the paper's setup, and the reference semantics);
//! - [`ParallelSearch`] runs `K` independent chains on scoped threads,
//!   seeded `seed ^ chain_id`, with the evaluation [`Budget`] split across
//!   chains, a shared atomic best-cost cell for the optional
//!   time-to-target cutoff, and a deterministic round-synchronized
//!   best-strategy exchange (a coarse parallel-tempering analogue).

use crate::memory::{self, MemBudget};
use crate::metrics::DeltaTelemetry;
use crate::sim::{SimConfig, Simulator};
use crate::soap::{self, ConfigSpace, ParamSync};
use crate::strategy::Strategy;
use flexflow_costmodel::CostModel;
use flexflow_device::Topology;
use flexflow_opgraph::OpGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

/// Which simulation algorithm evaluates proposals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimAlgorithm {
    /// Rebuild the task graph and simulate from scratch per proposal
    /// (paper §5.2, the baseline).
    Full,
    /// Incrementally repair the previous timeline (paper §5.3).
    #[default]
    Delta,
}

/// Search budget: a maximum number of proposal evaluations and/or a
/// wall-clock limit, applied per initial candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Budget {
    /// Maximum simulated proposals per initial strategy.
    pub max_evals: u64,
    /// Wall-clock limit per initial strategy in seconds.
    pub max_seconds: f64,
    /// Stop a restart early when the best cost has not improved within
    /// this fraction of the eval budget (the paper uses one half).
    pub patience_fraction: f64,
}

impl Budget {
    /// An evaluation-count budget with the paper's half-budget patience.
    pub fn evaluations(max_evals: u64) -> Self {
        Self {
            max_evals,
            max_seconds: f64::INFINITY,
            patience_fraction: 0.5,
        }
    }

    /// A wall-clock budget with the paper's half-budget patience.
    pub fn seconds(max_seconds: f64) -> Self {
        Self {
            max_evals: u64::MAX,
            max_seconds,
            patience_fraction: 0.5,
        }
    }

    /// An escalated evaluation budget for re-polishing an already-searched
    /// strategy: `base_evals` doubled once per completed polish `round`
    /// (round 0 ⇒ 2×, round 1 ⇒ 4×, …), saturating at `cap_evals`.
    ///
    /// The serving daemon's background polish loop uses this to spend idle
    /// cycles re-searching hot cache entries at geometrically growing
    /// budgets, so each pass explores meaningfully beyond the previous one
    /// without ever exceeding the configured ceiling. A zero `base_evals`
    /// is treated as 1 so escalation always makes forward progress.
    pub fn escalated(base_evals: u64, round: u32, cap_evals: u64) -> Self {
        let base = base_evals.max(1);
        let evals = round
            .checked_add(1)
            .and_then(|shift| base.checked_shl(shift))
            .unwrap_or(u64::MAX)
            .min(cap_evals.max(1));
        Self::evaluations(evals)
    }
}

/// Splits a search [`Budget`] across `chains` parallel chains.
///
/// Evaluation counts are divided as evenly as possible — the first
/// `max_evals % chains` chains receive one extra proposal, so the
/// per-chain budgets sum exactly to the total, differ by at most one, and
/// no chain starves whenever `max_evals >= chains`. Wall-clock limits and
/// the patience fraction apply to every chain unchanged (chains run
/// concurrently, so wall-clock is not divided), and an unbounded
/// evaluation budget (`u64::MAX`, the wall-clock-only case) stays
/// unbounded on every chain.
///
/// # Panics
///
/// Panics if `chains` is zero.
pub fn split_budget(budget: Budget, chains: usize) -> Vec<Budget> {
    assert!(chains >= 1, "need at least one chain");
    if budget.max_evals == u64::MAX {
        return vec![budget; chains];
    }
    let per = budget.max_evals / chains as u64;
    let extra = budget.max_evals % chains as u64;
    (0..chains as u64)
        .map(|c| Budget {
            max_evals: per + u64::from(c < extra),
            ..budget
        })
        .collect()
}

/// Outcome of a search.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// The best strategy discovered.
    pub best: Strategy,
    /// Its simulated per-iteration time in microseconds.
    pub best_cost_us: f64,
    /// Total proposals simulated.
    pub evals: u64,
    /// Proposals accepted by the Metropolis rule.
    pub accepted: u64,
    /// Wall-clock seconds spent searching.
    pub elapsed_seconds: f64,
    /// `(elapsed_seconds, best_cost_us)` samples recorded whenever the
    /// best cost improves (Fig. 12's search curve). Under
    /// [`ParallelSearch`] the per-chain traces are merged into one
    /// monotone curve of global improvements.
    pub trace: Vec<(f64, f64)>,
    /// Delta-simulation fallbacks observed (non-zero on models whose
    /// deep dependency chains make incremental repair costlier than a
    /// fresh sweep).
    pub fallbacks: u64,
    /// Transaction/repair telemetry aggregated over all restarts and all
    /// chains (zero under [`SimAlgorithm::Full`], which never opens a
    /// transaction).
    pub telemetry: DeltaTelemetry,
    /// Proposals evaluated by each chain, indexed by chain id (a single
    /// entry for the sequential [`McmcOptimizer`] driver).
    pub chain_evals: Vec<u64>,
}

/// The acceptance rule family (the paper uses MCMC but notes "other
/// search strategies could also be used", §1).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub enum AcceptanceRule {
    /// Metropolis-Hastings at a fixed temperature (the paper's default).
    #[default]
    Metropolis,
    /// Metropolis-Hastings with the temperature annealed: `beta` grows
    /// linearly from `beta_scale` to `beta_scale * anneal_factor` over the
    /// restart's evaluation budget (exploration first, exploitation last).
    Annealed {
        /// Final-to-initial `beta` ratio (> 1 cools the chain down).
        anneal_factor: f64,
    },
    /// Greedy hill climbing: only improvements are accepted. Cheap but
    /// gets stuck in the local optima MCMC is designed to escape.
    Greedy,
}

/// A monotonically decreasing best-cost cell shared by all chains.
///
/// The cost is encoded as the [`AtomicU64`] bit pattern of its `f64`: for
/// finite non-negative floats (and `+inf`, the empty value) IEEE-754 bits
/// are order-isomorphic to the values, so `fetch_min` over the bits *is*
/// `min` over the costs — lock-free, wait-free, and linearizable. Chains
/// publish every local-best improvement here; the cell is read for the
/// [`ParallelSearch::target_cost_us`] early cutoff and never steers
/// proposal generation, which keeps the search deterministic.
#[derive(Debug)]
pub struct SharedBestCost(AtomicU64);

impl SharedBestCost {
    /// A cell holding "no cost observed yet" (`+inf`).
    pub fn new() -> Self {
        Self(AtomicU64::new(f64::INFINITY.to_bits()))
    }

    /// Folds `cost` into the shared minimum; returns whether `cost`
    /// strictly improved on everything observed before it.
    ///
    /// Costs must be finite and non-negative (simulated makespans are);
    /// negative or NaN inputs would break the bit-order encoding and are
    /// rejected in debug builds.
    pub fn observe(&self, cost: f64) -> bool {
        debug_assert!(
            cost >= 0.0 && cost.is_finite(),
            "costs are finite and non-negative, got {cost}"
        );
        let bits = cost.to_bits();
        self.0.fetch_min(bits, Ordering::AcqRel) > bits
    }

    /// The smallest cost observed so far (`+inf` before the first
    /// [`SharedBestCost::observe`]).
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Acquire))
    }
}

impl Default for SharedBestCost {
    fn default() -> Self {
        Self::new()
    }
}

/// Round-synchronized best-strategy exchange between chains.
///
/// Every [`ParallelSearch::exchange_every`] evaluations each live chain
/// publishes its local best and blocks until the rest of the round
/// arrives (a generation barrier); the last arriver computes the round's
/// global best under the lock — a pure reduction over the published slots
/// with ties broken by chain id — and every chain of the round observes
/// that same value. A chain that exhausts its budget deregisters via
/// [`Exchange::leave`] (completing the round if it was the last one
/// missing), and its final best keeps participating in later reductions
/// through its slot. Because the reduction inputs are deterministic
/// per-chain states and round membership is itself deterministic, the
/// whole protocol is schedule-independent.
struct Exchange {
    m: Mutex<ExchangeInner>,
    cv: Condvar,
}

struct ExchangeInner {
    /// Chains still searching (arrivals required to complete a round).
    live: usize,
    /// Chains arrived at the current round so far.
    arrived: usize,
    /// Completed-round generation counter.
    round: u64,
    /// Per-chain published local best as `(cost bits, strategy)`.
    slots: Vec<Option<(u64, Strategy)>>,
    /// Global best of the last completed round. Only rewritten when a
    /// round completes, which cannot happen before every waiter of the
    /// previous round has read it (they must re-arrive first).
    result: Option<(u64, Strategy)>,
}

impl Exchange {
    fn new(chains: usize) -> Self {
        Self {
            m: Mutex::new(ExchangeInner {
                live: chains,
                arrived: 0,
                round: 0,
                slots: vec![None; chains],
                result: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Locks the barrier state, tolerating poisoning: a chain that
    /// panicked elsewhere must still be able to deregister (and waiters
    /// to drain) so the panic propagates through the scope join instead
    /// of deadlocking the remaining chains. The inner data stays
    /// consistent under poisoning — every critical section only performs
    /// simple counter/slot assignments.
    fn lock(&self) -> std::sync::MutexGuard<'_, ExchangeInner> {
        self.m
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Finishes the current round: resets the arrival count and reduces
    /// the slots to the global best (lowest cost bits, lowest chain id).
    fn complete_round(g: &mut ExchangeInner) {
        g.arrived = 0;
        g.round += 1;
        let mut best: Option<&(u64, Strategy)> = None;
        for s in g.slots.iter().flatten() {
            if best.is_none_or(|b| s.0 < b.0) {
                best = Some(s);
            }
        }
        g.result = best.cloned();
    }

    /// Publishes `best` for `chain` and blocks until the round completes;
    /// returns the round's global best.
    fn rendezvous(&self, chain: usize, best_cost: f64, best: &Strategy) -> Option<(u64, Strategy)> {
        let mut g = self.lock();
        g.slots[chain] = Some((best_cost.to_bits(), best.clone()));
        g.arrived += 1;
        let my_round = g.round;
        if g.arrived >= g.live {
            Self::complete_round(&mut g);
            self.cv.notify_all();
        } else {
            while g.round == my_round {
                g = self
                    .cv
                    .wait(g)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        }
        g.result.clone()
    }

    /// Publishes the chain's final best and removes it from the barrier,
    /// completing the current round if it was the last arrival missing.
    fn leave(&self, chain: usize, best_cost: f64, best: &Strategy) {
        let mut g = self.lock();
        g.slots[chain] = Some((best_cost.to_bits(), best.clone()));
        Self::deregister(&mut g);
        self.cv.notify_all();
    }

    /// Removes a chain from the barrier *without* publishing a result —
    /// the unwind path for a chain that panicked mid-search. Waiting
    /// peers are released (the round completes without the dead chain)
    /// so the panic surfaces at the scope join instead of hanging them.
    fn abandon(&self) {
        let mut g = self.lock();
        Self::deregister(&mut g);
        self.cv.notify_all();
    }

    /// Drops one live chain, completing the current round if it was the
    /// last arrival the round was waiting for.
    fn deregister(g: &mut ExchangeInner) {
        g.live -= 1;
        if g.live > 0 && g.arrived >= g.live {
            Self::complete_round(g);
        }
    }
}

/// Deregisters a chain from its [`Exchange`] if the chain unwinds before
/// its orderly [`Exchange::leave`] — armed for the whole chain run,
/// disarmed on success.
struct AbandonOnPanic<'a> {
    exchange: &'a Exchange,
    armed: bool,
}

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if self.armed {
            self.exchange.abandon();
        }
    }
}

/// Chain tunables shared by both drivers.
#[derive(Debug, Clone, Copy)]
struct ChainParams {
    beta_scale: f64,
    space: ConfigSpace,
    algorithm: SimAlgorithm,
    acceptance: AcceptanceRule,
    max_microbatches: u64,
    param_sync: bool,
    recompute: bool,
}

/// Share of proposals spent on microbatch-count changes when pipelining
/// is enabled (`max_microbatches > 1`): one in eight. Microbatching is a
/// single global knob next to hundreds of per-op configs, but a change to
/// it re-times the whole graph, so it deserves far more than a
/// one-in-`|ops|` draw.
const MICROBATCH_PROPOSAL_ODDS: u64 = 8;

/// Share of proposals spent on parameter-sync mode changes when the axis
/// is enabled ([`SearchRequest::param_sync`]): one in eight of the
/// proposals the microbatch branch passes over. Like microbatching, the
/// sync mode is one knob per weighted *layer* next to hundreds of per-op
/// configs, but flipping it re-times every gradient synchronization of
/// that layer, so it deserves far more than a one-in-`|ops|` draw.
const PARAM_SYNC_PROPOSAL_ODDS: u64 = 8;

/// Share of proposals spent flipping one op's activation-recompute bit
/// when the axis is enabled ([`SearchRequest::recompute`]): one in eight
/// of the proposals the microbatch and param-sync branches pass over.
/// Recompute trades forward FLOPs for activation memory, so it only pays
/// off under a memory budget — but the flip must stay cheap to explore so
/// budget-constrained chains can walk out of OOM territory quickly.
const RECOMPUTE_PROPOSAL_ODDS: u64 = 8;

/// Additive cost penalty (microseconds) for a strategy that overflows the
/// caller's per-device memory budget, on top of
/// [`OOM_PENALTY_PER_MIB_US`] per overflowing MiB. The base dwarfs every
/// realistic makespan, so any feasible strategy beats any infeasible one,
/// while the per-MiB term keeps the penalty monotone in the overflow — an
/// infeasible chain still descends toward feasibility instead of
/// random-walking on a flat plateau.
const OOM_PENALTY_US: f64 = 1e12;

/// Gradient of the OOM penalty: microseconds added per MiB of overflow.
/// Steep enough that shrinking the overflow outweighs the compute time a
/// recompute flip costs, shallow enough that the per-MiB terms never
/// approach the feasible/infeasible gap [`OOM_PENALTY_US`] provides.
const OOM_PENALTY_PER_MIB_US: f64 = 1e3;

/// One step of the proposal distribution: one op's configuration is
/// replaced (§6.2), or, when the respective axis is enabled, the
/// strategy-wide microbatch count changes, one weighted layer's
/// parameter-sync mode changes, or one op's recompute bit flips.
enum Proposal {
    Config(flexflow_opgraph::OpId, crate::soap::ParallelConfig),
    Microbatches(u64),
    ParamSync(flexflow_opgraph::OpId, ParamSync),
    Recompute(flexflow_opgraph::OpId, bool),
}

/// Read-only search inputs shared by every chain.
struct ChainCtx<'a> {
    graph: &'a OpGraph,
    topo: &'a Topology,
    cost: &'a dyn CostModel,
    cfg: SimConfig,
    params: ChainParams,
    initial: &'a [Strategy],
    t0: Instant,
    /// Per-device memory budget: strategies whose peak footprint overflows
    /// it are penalized in the accept step (`None` leaves costs untouched
    /// — bit-identical to the unbudgeted search).
    mem_budget: Option<&'a MemBudget>,
}

/// Cross-chain coordination handles (absent for the sequential driver).
struct ChainShared<'a> {
    best: &'a SharedBestCost,
    exchange: &'a Exchange,
    exchange_every: u64,
    target_us: f64,
}

/// What one chain hands back to its driver.
struct ChainOutcome {
    best: Strategy,
    best_cost_us: f64,
    evals: u64,
    accepted: u64,
    trace: Vec<(f64, f64)>,
    telemetry: DeltaTelemetry,
}

/// One MCMC chain: restarts from every initial strategy under `budget`,
/// exactly the paper's §6.2 loop. With `shared` present the chain also
/// publishes local-best improvements to the atomic cell, honors the
/// time-to-target cutoff, and takes part in the exchange rounds.
///
/// This is the single source of truth for chain semantics: the sequential
/// driver is `run_chain` with `shared = None`, and `ParallelSearch` with
/// one chain runs the identical instruction stream (the exchange is inert
/// when the global best is the chain's own), which is what makes
/// `--chains 1` reproduce the legacy sequential result bit-for-bit.
fn run_chain(
    ctx: &ChainCtx<'_>,
    budget: Budget,
    rng: &mut StdRng,
    shared: Option<&ChainShared<'_>>,
    chain: usize,
) -> ChainOutcome {
    let searchable = Strategy::searchable_ops(ctx.graph);
    assert!(!searchable.is_empty(), "graph has no searchable ops");
    let p = ctx.params;
    let t0 = ctx.t0;
    // Microbatch proposals need at least two legal counts to move between;
    // with pipelining disabled (the default) this is empty and the chain's
    // RNG stream is untouched — bit-identical to the pre-pipeline search.
    let mb_counts = if p.max_microbatches > 1 {
        soap::legal_microbatch_counts(ctx.graph, p.max_microbatches)
    } else {
        Vec::new()
    };
    let mb_enabled = mb_counts.len() > 1;
    // Param-sync proposals need the axis enabled, sync tasks present in
    // the build, at least one weighted layer to retune, and a cluster
    // where parameters can be replicated at all. Otherwise the branch is
    // inert and consumes ZERO RNG draws — bit-identical to the pre-axis
    // search (the same guarantee the microbatch branch makes).
    let sync_ops = if p.param_sync && ctx.cfg.include_param_sync {
        soap::sync_ops(ctx.graph)
    } else {
        Vec::new()
    };
    let ps_enabled = !sync_ops.is_empty() && ctx.topo.num_devices() >= 2;
    // ZeRO-1 shard counts worth proposing: powers of two in
    // [2, num_devices] (sync_plan clamps to the replica count per layer,
    // so an over-sharded draw degrades gracefully, but bounding by the
    // cluster keeps proposals meaningful).
    let zero1_shards: Vec<u64> = if ps_enabled {
        std::iter::successors(Some(2u64), |k| k.checked_mul(2))
            .take_while(|&k| k <= ctx.topo.num_devices() as u64)
            .collect()
    } else {
        Vec::new()
    };
    // Recompute proposals flip one non-input op's recompute bit. With the
    // axis disabled (the default) the list is empty and the branch is
    // inert — ZERO RNG draws, bit-identical to the pre-recompute search
    // (the same guarantee the microbatch and param-sync branches make).
    let rc_ops: Vec<flexflow_opgraph::OpId> = if p.recompute {
        ctx.graph
            .ids()
            .filter(|&id| {
                !matches!(
                    ctx.graph.op(id).kind(),
                    flexflow_opgraph::OpKind::Input { .. }
                )
            })
            .collect()
    } else {
        Vec::new()
    };
    let rc_enabled = !rc_ops.is_empty();
    // Memory-budget penalty: infeasible strategies cost OOM_PENALTY_US
    // plus one microsecond per overflowing MiB. With no budget set the
    // closure is a constant 0.0 and the accept step is untouched.
    let oom_penalty = |s: &Strategy| -> f64 {
        let Some(budget) = ctx.mem_budget else {
            return 0.0;
        };
        let fp = memory::footprint(ctx.graph, ctx.topo, s);
        match memory::budget_violation(&fp, ctx.topo, budget) {
            Some(v) => {
                OOM_PENALTY_US + v.overflow() as f64 / (1u64 << 20) as f64 * OOM_PENALTY_PER_MIB_US
            }
            None => 0.0,
        }
    };

    let mut best: Option<(Strategy, f64)> = None;
    let mut trace: Vec<(f64, f64)> = Vec::new();
    let mut evals = 0u64;
    let mut accepted = 0u64;
    let mut telemetry = DeltaTelemetry::default();
    // Set when the shared best reached the caller's target: the remaining
    // budget and restarts are abandoned (time-to-target semantics).
    let mut cutoff = false;

    for init in ctx.initial {
        if cutoff {
            break;
        }
        // Clamp the seed to the caller's pipeline budget: a warm-start
        // strategy may carry a microbatch count the caller cannot execute
        // (pipelining disabled, a smaller cap, or a count that is illegal
        // for this graph). Such seeds fall back to whole-batch execution
        // — otherwise the chain would *return* a pipelined strategy the
        // caller explicitly ruled out, since no proposal could ever
        // change `m` back. Seeds within the budget pass through
        // untouched, and pre-pipeline seeds (`m = 1`) are never altered.
        let mut init = init.clone();
        if init.microbatches() > 1 && !mb_counts.contains(&init.microbatches()) {
            init.set_microbatches(1);
        }
        // Same rule for the sync axis: a warm seed carrying ZeRO/PS modes
        // must not leak through a search whose caller disabled the axis —
        // no proposal could ever change the modes back, so the chain would
        // return a strategy the caller ruled out. Clamp to all-reduce.
        if !ps_enabled && init.has_custom_param_sync() {
            init = init.with_param_sync_everywhere(ParamSync::AllReduce);
        }
        // And for the recompute axis: a warm seed carrying recompute bits
        // falls back to stored activations when the axis is closed.
        if !rc_enabled && init.has_recompute() {
            init = init.with_recompute_everywhere(false);
        }
        let mut sim = Simulator::new(ctx.graph, ctx.topo, ctx.cost, ctx.cfg, init.clone());
        // Beta is normalized by the *physical* initial cost so one
        // temperature suits all models; the OOM penalty only enters the
        // comparison costs, never the temperature.
        let initial_cost = sim.cost_us();
        let mut current_cost = initial_cost + oom_penalty(sim.strategy());
        if best.as_ref().is_none_or(|(_, c)| current_cost < *c) {
            best = Some((init.clone(), current_cost));
            trace.push((t0.elapsed().as_secs_f64(), current_cost));
            if let Some(sh) = shared {
                sh.best.observe(current_cost);
            }
        }
        let mut since_improvement = 0u64;
        let patience = ((budget.max_evals as f64) * budget.patience_fraction) as u64;
        let restart_start = Instant::now();
        let mut restart_evals = 0u64;

        while restart_evals < budget.max_evals
            && restart_start.elapsed().as_secs_f64() < budget.max_seconds
        {
            if let Some(sh) = shared {
                if sh.target_us > 0.0 && sh.best.get() <= sh.target_us {
                    cutoff = true;
                    break;
                }
            }
            // Propose: one random op gets a fresh random configuration, or
            // (when pipelining is enabled) the microbatch count changes.
            // Under Delta the apply is speculative (journaled); the
            // acceptance decision below commits or rolls it back.
            let proposal = if mb_enabled && rng.gen_range(0..MICROBATCH_PROPOSAL_ODDS) == 0 {
                let current = sim.strategy().microbatches();
                let choices: Vec<u64> = mb_counts
                    .iter()
                    .copied()
                    .filter(|&c| c != current)
                    .collect();
                Proposal::Microbatches(choices[rng.gen_range(0..choices.len())])
            } else if ps_enabled && rng.gen_range(0..PARAM_SYNC_PROPOSAL_ODDS) == 0 {
                let op = sync_ops[rng.gen_range(0..sync_ops.len())];
                let mode = match rng.gen_range(0..3u32) {
                    0 => ParamSync::AllReduce,
                    1 => ParamSync::ShardedZero1 {
                        shards: zero1_shards[rng.gen_range(0..zero1_shards.len())],
                    },
                    _ => ParamSync::ParamServer {
                        server_device: rng.gen_range(0..ctx.topo.num_devices()),
                    },
                };
                Proposal::ParamSync(op, mode)
            } else if rc_enabled && rng.gen_range(0..RECOMPUTE_PROPOSAL_ODDS) == 0 {
                let op = rc_ops[rng.gen_range(0..rc_ops.len())];
                Proposal::Recompute(op, !sim.strategy().recompute(op))
            } else {
                let op = searchable[rng.gen_range(0..searchable.len())];
                Proposal::Config(
                    op,
                    soap::random_config(ctx.graph.op(op), ctx.topo, p.space, rng),
                )
            };
            // Only the Full revert arm needs the previous value; under
            // Delta the transaction itself remembers it for rollback.
            let old = (p.algorithm == SimAlgorithm::Full).then(|| match &proposal {
                Proposal::Config(op, _) => {
                    Proposal::Config(*op, sim.strategy().config(*op).clone())
                }
                Proposal::Microbatches(_) => Proposal::Microbatches(sim.strategy().microbatches()),
                Proposal::ParamSync(op, _) => {
                    Proposal::ParamSync(*op, sim.strategy().param_sync(*op))
                }
                Proposal::Recompute(op, _) => {
                    Proposal::Recompute(*op, sim.strategy().recompute(*op))
                }
            });
            let raw_cost = match (p.algorithm, &proposal) {
                (SimAlgorithm::Delta, Proposal::Config(op, config)) => {
                    sim.apply(*op, config.clone())
                }
                (SimAlgorithm::Delta, Proposal::Microbatches(m)) => sim.apply_microbatches(*m),
                (SimAlgorithm::Delta, Proposal::ParamSync(op, mode)) => {
                    sim.apply_param_sync(*op, *mode)
                }
                (SimAlgorithm::Delta, Proposal::Recompute(op, on)) => sim.apply_recompute(*op, *on),
                (SimAlgorithm::Full, _) => {
                    let mut s = sim.strategy().clone();
                    match &proposal {
                        Proposal::Config(op, config) => {
                            s.replace(*op, config.clone());
                        }
                        Proposal::Microbatches(m) => {
                            s.set_microbatches(*m);
                        }
                        Proposal::ParamSync(op, mode) => {
                            s.set_param_sync(*op, *mode);
                        }
                        Proposal::Recompute(op, on) => {
                            s.set_recompute(*op, *on);
                        }
                    }
                    sim.reset(s)
                }
            };
            // The post-apply strategy is the proposal; penalize it if it
            // overflows the budget (a no-op without one).
            let new_cost = raw_cost + oom_penalty(sim.strategy());
            evals += 1;
            restart_evals += 1;

            // Acceptance (Eq. 2 by default), with beta normalized by
            // the restart's initial cost so one temperature suits all
            // models.
            let beta = match p.acceptance {
                AcceptanceRule::Metropolis => p.beta_scale / initial_cost,
                AcceptanceRule::Annealed { anneal_factor } => {
                    let progress = restart_evals as f64 / budget.max_evals.max(1) as f64;
                    p.beta_scale * (1.0 + (anneal_factor - 1.0) * progress.min(1.0)) / initial_cost
                }
                AcceptanceRule::Greedy => f64::INFINITY,
            };
            let accept = new_cost <= current_cost
                || rng.gen::<f64>() < (beta * (current_cost - new_cost)).exp();
            if accept {
                if p.algorithm == SimAlgorithm::Delta {
                    sim.commit();
                }
                accepted += 1;
                current_cost = new_cost;
                if best.as_ref().is_none_or(|(_, c)| new_cost < *c) {
                    best = Some((sim.strategy().clone(), new_cost));
                    trace.push((t0.elapsed().as_secs_f64(), new_cost));
                    since_improvement = 0;
                    if let Some(sh) = shared {
                        sh.best.observe(new_cost);
                    }
                } else {
                    since_improvement += 1;
                }
            } else {
                // Revert the rejected proposal: replay the undo journal
                // under Delta (no second repair); rebuild under Full.
                match p.algorithm {
                    SimAlgorithm::Delta => {
                        sim.rollback();
                    }
                    SimAlgorithm::Full => {
                        let mut s = sim.strategy().clone();
                        match old.expect("old value captured under Full") {
                            Proposal::Config(op, config) => {
                                s.replace(op, config);
                            }
                            Proposal::Microbatches(m) => {
                                s.set_microbatches(m);
                            }
                            Proposal::ParamSync(op, mode) => {
                                s.set_param_sync(op, mode);
                            }
                            Proposal::Recompute(op, on) => {
                                s.set_recompute(op, on);
                            }
                        }
                        sim.reset(s);
                    }
                }
                since_improvement += 1;
            }
            if patience > 0 && since_improvement >= patience {
                break; // §6.2 criterion (2)
            }
            // Exchange point: publish the local best, wait for the round,
            // and restart from the global best when it strictly beats
            // everything this chain has found (never triggered by the
            // chain's own discoveries, so a single chain is unaffected).
            if let Some(sh) = shared {
                if sh.exchange_every > 0 && evals.is_multiple_of(sh.exchange_every) {
                    let (lb_strategy, lb_cost) =
                        best.as_ref().expect("local best set at restart entry");
                    let local_bits = lb_cost.to_bits();
                    let global = sh.exchange.rendezvous(chain, *lb_cost, lb_strategy);
                    if let Some((gbits, gstrat)) = global {
                        if gbits < local_bits {
                            let adopted_cost =
                                sim.reset(gstrat.clone()) + oom_penalty(sim.strategy());
                            current_cost = adopted_cost;
                            best = Some((gstrat, adopted_cost));
                            since_improvement = 0;
                        }
                    }
                }
            }
        }
        sim.commit();
        telemetry.merge(&sim.telemetry());
    }

    let (best, best_cost_us) = best.expect("at least one candidate evaluated");
    if let Some(sh) = shared {
        sh.exchange.leave(chain, best_cost_us, &best);
    }
    ChainOutcome {
        best,
        best_cost_us,
        evals,
        accepted,
        trace,
        telemetry,
    }
}

/// Metropolis-Hastings search over parallelization strategies, run
/// sequentially on the calling thread (the reference driver; see
/// [`ParallelSearch`] for the multi-chain production driver).
#[derive(Debug, Clone)]
pub struct McmcOptimizer {
    rng: StdRng,
    /// Acceptance temperature `beta`, scaled by the initial cost: the
    /// effective exponent is `beta_scale * (cost - cost*) / cost_initial`.
    pub beta_scale: f64,
    /// Which slice of the configuration space proposals are drawn from.
    pub space: ConfigSpace,
    /// Which simulation algorithm evaluates proposals.
    pub algorithm: SimAlgorithm,
    /// How proposals are accepted.
    pub acceptance: AcceptanceRule,
    /// Upper bound on the microbatch count the `ChangeMicrobatches`
    /// proposal may draw (1 disables pipelining entirely — no extra RNG
    /// draws, bit-identical to the pre-pipeline search).
    pub max_microbatches: u64,
    /// Whether the `ChangeParamSync` proposal may retune per-layer
    /// parameter synchronization (`false` disables the axis entirely —
    /// no extra RNG draws, bit-identical to the pre-axis search).
    pub param_sync: bool,
    /// Whether the `ChangeRecompute` proposal may flip per-op activation
    /// recomputation (`false` disables the axis entirely — no extra RNG
    /// draws, bit-identical to the pre-recompute search).
    pub recompute: bool,
    /// Per-device memory budget: proposals whose peak footprint overflows
    /// it are penalized in the accept step (`None` disables the check —
    /// costs are bit-identical to the unbudgeted search).
    pub mem_budget: Option<MemBudget>,
}

impl McmcOptimizer {
    /// A new optimizer with the evaluation defaults (delta simulation,
    /// full configuration space, `beta_scale = 20`: a proposal 5% worse
    /// than the current strategy is accepted with probability `e^-1`).
    pub fn new(seed: u64) -> Self {
        Self {
            rng: StdRng::seed_from_u64(seed),
            beta_scale: 20.0,
            space: ConfigSpace::Full,
            algorithm: SimAlgorithm::Delta,
            acceptance: AcceptanceRule::Metropolis,
            max_microbatches: 1,
            param_sync: false,
            recompute: false,
            mem_budget: None,
        }
    }

    /// Runs the search from every initial strategy and returns the best
    /// strategy found overall.
    ///
    /// # Panics
    ///
    /// Panics if `initial` is empty or the graph has no searchable ops.
    pub fn search(
        &mut self,
        graph: &OpGraph,
        topo: &Topology,
        cost: &dyn CostModel,
        initial: &[Strategy],
        budget: Budget,
        cfg: SimConfig,
    ) -> SearchResult {
        assert!(!initial.is_empty(), "need at least one initial strategy");
        let t0 = Instant::now();
        let ctx = ChainCtx {
            graph,
            topo,
            cost,
            cfg,
            params: ChainParams {
                beta_scale: self.beta_scale,
                space: self.space,
                algorithm: self.algorithm,
                acceptance: self.acceptance,
                max_microbatches: self.max_microbatches,
                param_sync: self.param_sync,
                recompute: self.recompute,
            },
            initial,
            t0,
            mem_budget: self.mem_budget.as_ref(),
        };
        let out = run_chain(&ctx, budget, &mut self.rng, None, 0);
        SearchResult {
            best: out.best,
            best_cost_us: out.best_cost_us,
            evals: out.evals,
            accepted: out.accepted,
            elapsed_seconds: t0.elapsed().as_secs_f64(),
            trace: out.trace,
            fallbacks: out.telemetry.fallbacks,
            telemetry: out.telemetry,
            chain_evals: vec![out.evals],
        }
    }
}

/// The default chain count: one chain per available hardware thread.
pub fn default_chains() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Parallel multi-chain MCMC search: `K` independent Metropolis chains,
/// each owning its own [`Simulator`] (task graph, timeline, scratch arena
/// and undo journals — the per-thread transaction state that makes this
/// embarrassingly parallel), run under [`std::thread::scope`] and
/// coordinated only through a [`SharedBestCost`] cell and the periodic
/// best-strategy `Exchange`.
///
/// # Determinism
///
/// Chain `c` draws from `StdRng::seed_from_u64(seed ^ c)` and the exchange
/// protocol is a generation barrier whose per-round reduction is a pure
/// function of the chains' published bests (ties broken by chain id), so
/// for a fixed evaluation budget the result depends only on
/// `(seed, chains, exchange_every, budget)` — not on thread scheduling,
/// core count, or machine load. `chains = 1` reproduces
/// [`McmcOptimizer::search`] exactly for the same seed (CI pins both
/// properties). Wall-clock budgets ([`Budget::max_seconds`]) and the
/// [`ParallelSearch::target_cost_us`] cutoff stop chains at
/// timing-dependent points and therefore trade the guarantee for speed.
#[derive(Debug, Clone)]
pub struct ParallelSearch {
    /// Base RNG seed; chain `c` is seeded `seed ^ c`.
    pub seed: u64,
    /// Number of chains (>= 1; [`default_chains`] by default).
    pub chains: usize,
    /// Evaluations between best-strategy exchange points (0 disables the
    /// exchange entirely; chains then only meet at the final reduction).
    pub exchange_every: u64,
    /// Early-cutoff target in microseconds: every chain stops as soon as
    /// the shared best cost reaches it. `0.0` disables the cutoff. A
    /// non-zero target makes the search race the clock and is therefore
    /// not deterministic.
    pub target_cost_us: f64,
    /// Acceptance temperature (see [`McmcOptimizer::beta_scale`]).
    pub beta_scale: f64,
    /// Which slice of the configuration space proposals are drawn from.
    pub space: ConfigSpace,
    /// Which simulation algorithm evaluates proposals.
    pub algorithm: SimAlgorithm,
    /// How proposals are accepted.
    pub acceptance: AcceptanceRule,
    /// Upper bound on the microbatch count the `ChangeMicrobatches`
    /// proposal may draw (1 disables pipelining — see
    /// [`McmcOptimizer::max_microbatches`]).
    pub max_microbatches: u64,
    /// Whether the `ChangeParamSync` proposal may retune per-layer
    /// parameter synchronization (see [`McmcOptimizer::param_sync`]).
    pub param_sync: bool,
    /// Whether the `ChangeRecompute` proposal may flip per-op activation
    /// recomputation (see [`McmcOptimizer::recompute`]).
    pub recompute: bool,
    /// Per-device memory budget (see [`McmcOptimizer::mem_budget`]).
    pub mem_budget: Option<MemBudget>,
}

impl ParallelSearch {
    /// A new parallel driver with the evaluation defaults and one chain
    /// per available hardware thread.
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            chains: default_chains(),
            exchange_every: 256,
            target_cost_us: 0.0,
            beta_scale: 20.0,
            space: ConfigSpace::Full,
            algorithm: SimAlgorithm::Delta,
            acceptance: AcceptanceRule::Metropolis,
            max_microbatches: 1,
            param_sync: false,
            recompute: false,
            mem_budget: None,
        }
    }

    /// [`ParallelSearch::new`] with an explicit chain count.
    pub fn with_chains(seed: u64, chains: usize) -> Self {
        Self {
            chains,
            ..Self::new(seed)
        }
    }

    /// The [`SearchRequest`] equivalent to this driver's knobs — the
    /// non-deprecated way to run the search these fields describe.
    pub fn request(&self) -> SearchRequest {
        SearchRequest {
            seed: self.seed,
            chains: self.chains,
            exchange_every: self.exchange_every,
            target_cost_us: self.target_cost_us,
            beta_scale: self.beta_scale,
            space: self.space,
            algorithm: self.algorithm,
            acceptance: self.acceptance,
            max_microbatches: self.max_microbatches,
            param_sync: self.param_sync,
            recompute: self.recompute,
            mem_budget: self.mem_budget.clone(),
        }
    }
}

/// Builder-style description of one multi-chain MCMC search: every knob
/// of [`ParallelSearch`] plus the parameter-sync axis, assembled with
/// chained setters and executed with [`SearchRequest::run`] /
/// [`SearchRequest::run_warm`].
///
/// This is the single entry point the drivers' public surfaces converge
/// on (the old `ParallelSearch::search`/`search_warm` methods were
/// deleted once every caller migrated), so new search knobs land here
/// once instead of growing every call site's parameter list.
///
/// ```
/// # use flexflow_core::{SearchRequest, Budget, SimConfig, Strategy};
/// # use flexflow_core::memory::MemBudget;
/// # use flexflow_costmodel::MeasuredCostModel;
/// # use flexflow_device::clusters;
/// # use flexflow_opgraph::zoo;
/// let g = zoo::lenet(64);
/// let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
/// let cost = MeasuredCostModel::paper_default();
/// let dp = Strategy::data_parallel(&g, &topo);
/// let r = SearchRequest::new(42)
///     .chains(2)
///     .max_microbatches(8)
///     .param_sync(true)
///     .recompute(true)
///     .mem_budget(Some(MemBudget::device_defaults(&topo)))
///     .run(&g, &topo, &cost, &[dp], Budget::evaluations(50), SimConfig::default());
/// assert!(r.best_cost_us > 0.0);
/// ```
///
/// Determinism matches [`ParallelSearch`]: for a fixed evaluation budget
/// the result depends only on the request's fields, and `chains(1)`
/// reproduces [`McmcOptimizer::search`] bit-for-bit for the same seed.
#[derive(Debug, Clone)]
pub struct SearchRequest {
    /// Base RNG seed; chain `c` is seeded `seed ^ c`.
    pub seed: u64,
    /// Number of chains (>= 1; [`default_chains`] by default).
    pub chains: usize,
    /// Evaluations between best-strategy exchange points (0 disables).
    pub exchange_every: u64,
    /// Early-cutoff target in microseconds (0.0 disables; non-zero trades
    /// determinism for time-to-target).
    pub target_cost_us: f64,
    /// Acceptance temperature (see [`McmcOptimizer::beta_scale`]).
    pub beta_scale: f64,
    /// Which slice of the configuration space proposals are drawn from.
    pub space: ConfigSpace,
    /// Which simulation algorithm evaluates proposals.
    pub algorithm: SimAlgorithm,
    /// How proposals are accepted.
    pub acceptance: AcceptanceRule,
    /// Upper bound on proposed microbatch counts (1 disables pipelining).
    pub max_microbatches: u64,
    /// Whether parameter-sync mode proposals are drawn (`false` disables
    /// the axis — zero extra RNG draws, bit-identical to pre-axis runs).
    pub param_sync: bool,
    /// Whether recompute-bit proposals are drawn (`false` disables the
    /// axis — zero extra RNG draws, bit-identical to pre-recompute runs).
    pub recompute: bool,
    /// Per-device memory budget: proposals whose peak footprint overflows
    /// it are penalized in the accept step, so the search walks back into
    /// (or as close as possible to) feasible territory. `None` disables
    /// the check entirely.
    pub mem_budget: Option<MemBudget>,
}

impl SearchRequest {
    /// A request with the evaluation defaults and one chain per available
    /// hardware thread (the same defaults as [`ParallelSearch::new`]).
    pub fn new(seed: u64) -> Self {
        ParallelSearch::new(seed).request()
    }

    /// Sets the chain count.
    #[must_use]
    pub fn chains(mut self, chains: usize) -> Self {
        self.chains = chains;
        self
    }

    /// Sets the exchange period (0 disables the exchange).
    #[must_use]
    pub fn exchange_every(mut self, every: u64) -> Self {
        self.exchange_every = every;
        self
    }

    /// Sets the early-cutoff cost target in microseconds.
    #[must_use]
    pub fn target_cost_us(mut self, target: f64) -> Self {
        self.target_cost_us = target;
        self
    }

    /// Sets the acceptance temperature scale.
    #[must_use]
    pub fn beta_scale(mut self, scale: f64) -> Self {
        self.beta_scale = scale;
        self
    }

    /// Sets the proposal configuration space.
    #[must_use]
    pub fn space(mut self, space: ConfigSpace) -> Self {
        self.space = space;
        self
    }

    /// Sets the simulation algorithm.
    #[must_use]
    pub fn algorithm(mut self, algorithm: SimAlgorithm) -> Self {
        self.algorithm = algorithm;
        self
    }

    /// Sets the acceptance rule.
    #[must_use]
    pub fn acceptance(mut self, acceptance: AcceptanceRule) -> Self {
        self.acceptance = acceptance;
        self
    }

    /// Sets the microbatch-count cap (1 disables pipelining).
    #[must_use]
    pub fn max_microbatches(mut self, cap: u64) -> Self {
        self.max_microbatches = cap;
        self
    }

    /// Enables or disables the parameter-sync search axis.
    #[must_use]
    pub fn param_sync(mut self, enabled: bool) -> Self {
        self.param_sync = enabled;
        self
    }

    /// Enables or disables the activation-recompute search axis.
    #[must_use]
    pub fn recompute(mut self, enabled: bool) -> Self {
        self.recompute = enabled;
        self
    }

    /// Sets (or clears) the per-device memory budget the search enforces.
    #[must_use]
    pub fn mem_budget(mut self, budget: Option<MemBudget>) -> Self {
        self.mem_budget = budget;
        self
    }

    /// Warm-started [`SearchRequest::run`]: every chain restarts from
    /// `warm` instead of the usual data-parallel/expert seeds.
    ///
    /// `warm` is typically a cached strategy for the same op graph —
    /// possibly found on a different topology and rebound via
    /// [`crate::strategy_io::remap_onto`], or found under a smaller
    /// evaluation budget — which starts the Markov chains deep inside the
    /// good region of the space rather than at data parallelism. Because
    /// the search never returns a strategy worse than its initial
    /// candidate, a poor warm seed costs only evaluations, never quality
    /// relative to that seed; and with a single restart the whole budget
    /// goes to refining it.
    ///
    /// A seed whose microbatch count exceeds (or is illegal under)
    /// [`SearchRequest::max_microbatches`] is clamped back to whole-batch
    /// execution before the search starts — the caller ruled that
    /// pipeline depth out, so the chain must neither simulate nor return
    /// it. Likewise a seed carrying non-all-reduce sync modes is clamped
    /// when [`SearchRequest::param_sync`] is off.
    pub fn run_warm(
        &self,
        graph: &OpGraph,
        topo: &Topology,
        cost: &dyn CostModel,
        warm: Strategy,
        budget: Budget,
        cfg: SimConfig,
    ) -> SearchResult {
        self.run(graph, topo, cost, &[warm], budget, cfg)
    }

    /// Runs `chains` concurrent MCMC chains from every initial strategy
    /// and returns the globally best strategy found. The evaluation
    /// budget is split across chains ([`split_budget`]), so the total
    /// proposal count matches the sequential driver's for the same
    /// budget. When the budget is smaller than the chain count the
    /// effective chain count is capped at the budget (a zero-eval chain
    /// would still pay one full simulator build per initial strategy
    /// just to exit; the cap is a pure function of the inputs, so
    /// determinism is unaffected) — `chain_evals` reports the effective
    /// count.
    ///
    /// # Panics
    ///
    /// Panics if `chains` is zero, `initial` is empty, the graph has no
    /// searchable ops, or a chain thread panics.
    pub fn run(
        &self,
        graph: &OpGraph,
        topo: &Topology,
        cost: &dyn CostModel,
        initial: &[Strategy],
        budget: Budget,
        cfg: SimConfig,
    ) -> SearchResult {
        assert!(self.chains >= 1, "need at least one chain");
        assert!(!initial.is_empty(), "need at least one initial strategy");
        let chains = self
            .chains
            .min(usize::try_from(budget.max_evals).unwrap_or(usize::MAX))
            .max(1);
        let t0 = Instant::now();
        let budgets = split_budget(budget, chains);
        let best_cell = SharedBestCost::new();
        let exchange = Exchange::new(chains);
        let shared = ChainShared {
            best: &best_cell,
            exchange: &exchange,
            exchange_every: self.exchange_every,
            target_us: self.target_cost_us,
        };
        let ctx = ChainCtx {
            graph,
            topo,
            cost,
            cfg,
            params: ChainParams {
                beta_scale: self.beta_scale,
                space: self.space,
                algorithm: self.algorithm,
                acceptance: self.acceptance,
                max_microbatches: self.max_microbatches,
                param_sync: self.param_sync,
                recompute: self.recompute,
            },
            initial,
            t0,
            mem_budget: self.mem_budget.as_ref(),
        };

        let outcomes: Vec<ChainOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..chains)
                .map(|c| {
                    let ctx = &ctx;
                    let shared = &shared;
                    let chain_budget = budgets[c];
                    let seed = self.seed ^ c as u64;
                    s.spawn(move || {
                        // If this chain panics mid-search, deregister it
                        // from the barrier so waiting peers drain and the
                        // panic propagates through the join below rather
                        // than deadlocking the scope.
                        let mut guard = AbandonOnPanic {
                            exchange: shared.exchange,
                            armed: true,
                        };
                        let mut rng = StdRng::seed_from_u64(seed);
                        let out = run_chain(ctx, chain_budget, &mut rng, Some(shared), c);
                        guard.armed = false;
                        out
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("search chain panicked"))
                .collect()
        });

        // Deterministic reduction: lowest cost wins, ties to the lowest
        // chain id (strict `<` keeps the earlier index).
        let mut win = 0usize;
        for (c, o) in outcomes.iter().enumerate() {
            if o.best_cost_us < outcomes[win].best_cost_us {
                win = c;
            }
        }

        // Merge the per-chain improvement traces into one monotone global
        // curve: sort all events by time and keep strict running minima.
        let mut events: Vec<(f64, f64)> = outcomes
            .iter()
            .flat_map(|o| o.trace.iter().copied())
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
        let mut trace: Vec<(f64, f64)> = Vec::new();
        let mut running_min = f64::INFINITY;
        for (t, c) in events {
            if c < running_min {
                running_min = c;
                trace.push((t, c));
            }
        }

        let mut telemetry = DeltaTelemetry::default();
        for o in &outcomes {
            telemetry.merge(&o.telemetry);
        }
        SearchResult {
            best: outcomes[win].best.clone(),
            best_cost_us: outcomes[win].best_cost_us,
            evals: outcomes.iter().map(|o| o.evals).sum(),
            accepted: outcomes.iter().map(|o| o.accepted).sum(),
            elapsed_seconds: t0.elapsed().as_secs_f64(),
            trace,
            fallbacks: telemetry.fallbacks,
            telemetry,
            chain_evals: outcomes.iter().map(|o| o.evals).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flexflow_costmodel::MeasuredCostModel;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;

    fn setup() -> (OpGraph, Topology, MeasuredCostModel) {
        (
            zoo::lenet(64),
            clusters::uniform_cluster(1, 4, 16.0, 4.0),
            MeasuredCostModel::paper_default(),
        )
    }
    use flexflow_device::Topology;

    #[test]
    fn search_never_worse_than_initial() {
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let dp_cost = Simulator::new(&g, &topo, &cost, SimConfig::default(), dp.clone()).cost_us();
        let mut opt = McmcOptimizer::new(1);
        let r = opt.search(
            &g,
            &topo,
            &cost,
            &[dp],
            Budget::evaluations(100),
            SimConfig::default(),
        );
        assert!(r.best_cost_us <= dp_cost + 1e-9);
        assert!(r.evals > 0);
        assert_eq!(r.chain_evals, vec![r.evals]);
    }

    #[test]
    fn search_improves_on_random_start() {
        // Starting from a random strategy, the search must make progress
        // (random strategies scatter ops across devices and pay heavy
        // communication, leaving lots of headroom).
        let (g, topo, cost) = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let random = Strategy::random(&g, &topo, crate::soap::ConfigSpace::Full, &mut rng);
        let random_cost =
            Simulator::new(&g, &topo, &cost, SimConfig::default(), random.clone()).cost_us();
        let mut opt = McmcOptimizer::new(7);
        let r = opt.search(
            &g,
            &topo,
            &cost,
            &[random],
            Budget::evaluations(400),
            SimConfig::default(),
        );
        assert!(
            r.best_cost_us < random_cost,
            "search should beat a random start: {} vs {random_cost}",
            r.best_cost_us
        );
    }

    #[test]
    fn trace_is_monotone_decreasing() {
        let (g, topo, cost) = setup();
        let mut opt = McmcOptimizer::new(3);
        let r = opt.search(
            &g,
            &topo,
            &cost,
            &[Strategy::data_parallel(&g, &topo)],
            Budget::evaluations(150),
            SimConfig::default(),
        );
        for w in r.trace.windows(2) {
            assert!(w[1].1 <= w[0].1, "trace must only improve");
            assert!(w[1].0 >= w[0].0, "trace times must be ordered");
        }
    }

    #[test]
    fn full_and_delta_find_comparable_strategies() {
        let (g, topo, cost) = setup();
        let init = [Strategy::data_parallel(&g, &topo)];
        let budget = Budget::evaluations(120);
        let mut a = McmcOptimizer::new(11);
        a.algorithm = SimAlgorithm::Delta;
        let ra = a.search(&g, &topo, &cost, &init, budget, SimConfig::default());
        let mut b = McmcOptimizer::new(11);
        b.algorithm = SimAlgorithm::Full;
        let rb = b.search(&g, &topo, &cost, &init, budget, SimConfig::default());
        // identical seeds + identical proposal streams -> identical results
        assert!(
            (ra.best_cost_us - rb.best_cost_us).abs() < 1e-6,
            "delta {} vs full {}",
            ra.best_cost_us,
            rb.best_cost_us
        );
    }

    #[test]
    fn multiple_initials_take_the_best() {
        let (g, topo, cost) = setup();
        let mut opt = McmcOptimizer::new(5);
        let inits = [
            Strategy::single_device(&g, &topo, 0),
            Strategy::data_parallel(&g, &topo),
        ];
        let r = opt.search(
            &g,
            &topo,
            &cost,
            &inits,
            Budget::evaluations(50),
            SimConfig::default(),
        );
        // with both initials, the result is at least as good as plain DP
        let dp_cost = Simulator::new(
            &g,
            &topo,
            &cost,
            SimConfig::default(),
            Strategy::data_parallel(&g, &topo),
        )
        .cost_us();
        assert!(r.best_cost_us <= dp_cost + 1e-9);
    }

    #[test]
    fn greedy_never_accepts_regressions() {
        let (g, topo, cost) = setup();
        let mut opt = McmcOptimizer::new(21);
        opt.acceptance = AcceptanceRule::Greedy;
        let r = opt.search(
            &g,
            &topo,
            &cost,
            &[Strategy::data_parallel(&g, &topo)],
            Budget::evaluations(200),
            SimConfig::default(),
        );
        // with greedy acceptance, accepted count == number of improvements,
        // and the final best equals the walk's end (no escapes needed)
        assert!(r.accepted <= r.evals);
        let dp_cost = Simulator::new(
            &g,
            &topo,
            &cost,
            SimConfig::default(),
            Strategy::data_parallel(&g, &topo),
        )
        .cost_us();
        assert!(r.best_cost_us <= dp_cost + 1e-9);
    }

    #[test]
    fn annealed_accepts_fewer_late_regressions_than_flat() {
        let (g, topo, cost) = setup();
        let budget = Budget {
            max_evals: 300,
            max_seconds: f64::INFINITY,
            patience_fraction: 1.0,
        };
        let mut flat = McmcOptimizer::new(33);
        flat.beta_scale = 5.0;
        let rf = flat.search(
            &g,
            &topo,
            &cost,
            &[Strategy::data_parallel(&g, &topo)],
            budget,
            SimConfig::default(),
        );
        let mut annealed = McmcOptimizer::new(33);
        annealed.beta_scale = 5.0;
        annealed.acceptance = AcceptanceRule::Annealed {
            anneal_factor: 50.0,
        };
        let ra = annealed.search(
            &g,
            &topo,
            &cost,
            &[Strategy::data_parallel(&g, &topo)],
            budget,
            SimConfig::default(),
        );
        assert!(
            ra.accepted < rf.accepted,
            "cooling must reject more: annealed {} vs flat {}",
            ra.accepted,
            rf.accepted
        );
        assert!(ra.best_cost_us > 0.0);
    }

    #[test]
    fn patience_stops_early() {
        let (g, topo, cost) = setup();
        let mut opt = McmcOptimizer::new(9);
        let budget = Budget {
            max_evals: 10_000,
            max_seconds: f64::INFINITY,
            patience_fraction: 0.01, // give up after 100 stale evals
        };
        let r = opt.search(
            &g,
            &topo,
            &cost,
            &[Strategy::data_parallel(&g, &topo)],
            budget,
            SimConfig::default(),
        );
        assert!(r.evals < 10_000, "patience must cut the run short");
    }

    #[test]
    fn one_chain_reproduces_the_sequential_driver() {
        // ParallelSearch with a single chain must be the legacy search:
        // same seed, same instruction stream, bit-identical result.
        let (g, topo, cost) = setup();
        let inits = [
            Strategy::data_parallel(&g, &topo),
            Strategy::single_device(&g, &topo, 0),
        ];
        let budget = Budget::evaluations(150);
        let seq =
            McmcOptimizer::new(42).search(&g, &topo, &cost, &inits, budget, SimConfig::default());
        let par = ParallelSearch::with_chains(42, 1).request().run(
            &g,
            &topo,
            &cost,
            &inits,
            budget,
            SimConfig::default(),
        );
        assert_eq!(
            seq.best_cost_us.to_bits(),
            par.best_cost_us.to_bits(),
            "costs must be bit-identical: {} vs {}",
            seq.best_cost_us,
            par.best_cost_us
        );
        assert_eq!(seq.best, par.best, "strategies must be identical");
        assert_eq!(seq.evals, par.evals);
        assert_eq!(seq.accepted, par.accepted);
        assert_eq!(par.chain_evals, vec![par.evals]);
    }

    #[test]
    fn parallel_search_is_deterministic_across_runs() {
        let (g, topo, cost) = setup();
        let inits = [Strategy::data_parallel(&g, &topo)];
        let budget = Budget::evaluations(200);
        let run = || {
            let mut ps = ParallelSearch::with_chains(7, 4);
            ps.exchange_every = 16; // force several exchange rounds
            ps.request()
                .run(&g, &topo, &cost, &inits, budget, SimConfig::default())
        };
        let a = run();
        let b = run();
        assert_eq!(a.best_cost_us.to_bits(), b.best_cost_us.to_bits());
        assert_eq!(a.best, b.best);
        assert_eq!(a.evals, b.evals);
        assert_eq!(a.accepted, b.accepted);
        assert_eq!(a.chain_evals, b.chain_evals);
    }

    #[test]
    fn parallel_search_never_worse_than_initials() {
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let dp_cost = Simulator::new(&g, &topo, &cost, SimConfig::default(), dp.clone()).cost_us();
        let r = ParallelSearch::with_chains(3, 3).request().run(
            &g,
            &topo,
            &cost,
            &[dp],
            Budget::evaluations(120),
            SimConfig::default(),
        );
        assert!(r.best_cost_us <= dp_cost + 1e-9);
        assert_eq!(r.chain_evals.len(), 3);
        for w in r.trace.windows(2) {
            assert!(w[1].1 <= w[0].1, "merged trace must only improve");
            assert!(w[1].0 >= w[0].0, "merged trace times must be ordered");
        }
    }

    #[test]
    fn parallel_search_aggregates_chain_telemetry() {
        let (g, topo, cost) = setup();
        let inits = [Strategy::data_parallel(&g, &topo)];
        let mut ps = ParallelSearch::with_chains(11, 4);
        ps.exchange_every = 32;
        let r = ps.request().run(
            &g,
            &topo,
            &cost,
            &inits,
            Budget::evaluations(160),
            SimConfig::default(),
        );
        // Budget splitting: the chains' evals sum to the total.
        assert_eq!(r.evals, r.chain_evals.iter().sum::<u64>());
        assert_eq!(r.chain_evals.len(), 4);
        // Under Delta every proposal is one transactional apply, and every
        // apply ends in exactly one commit (accept) or rollback (reject).
        let t = r.telemetry;
        assert_eq!(t.applies, r.evals);
        assert_eq!(t.commits, r.accepted);
        assert_eq!(t.rollbacks, r.evals - r.accepted);
        assert!(t.journal_slots > 0);
    }

    #[test]
    fn target_cutoff_stops_the_search() {
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let dp_cost = Simulator::new(&g, &topo, &cost, SimConfig::default(), dp.clone()).cost_us();
        // A target above the initial cost is hit immediately: the chains
        // must notice and stop well short of the eval budget.
        let mut ps = ParallelSearch::with_chains(5, 2);
        ps.target_cost_us = dp_cost * 2.0;
        let r = ps.request().run(
            &g,
            &topo,
            &cost,
            &[dp],
            Budget::evaluations(100_000),
            SimConfig::default(),
        );
        assert!(r.best_cost_us <= ps.target_cost_us);
        assert!(
            r.evals < 10_000,
            "cutoff should fire long before the budget: {} evals",
            r.evals
        );
    }

    #[test]
    fn split_budget_preserves_total_and_fairness() {
        let b = Budget::evaluations(103);
        let parts = split_budget(b, 4);
        assert_eq!(parts.len(), 4);
        assert_eq!(parts.iter().map(|p| p.max_evals).sum::<u64>(), 103);
        let min = parts.iter().map(|p| p.max_evals).min().unwrap();
        let max = parts.iter().map(|p| p.max_evals).max().unwrap();
        assert!(max - min <= 1, "fair split differs by at most one");
        assert!(min >= 1, "no chain starves");
        for p in &parts {
            assert_eq!(p.max_seconds, b.max_seconds);
            assert_eq!(p.patience_fraction, b.patience_fraction);
        }
        // Wall-clock-only budgets stay unbounded on every chain.
        let unbounded = split_budget(Budget::seconds(1.0), 3);
        assert!(unbounded.iter().all(|p| p.max_evals == u64::MAX));
    }

    #[test]
    fn tiny_budgets_cap_the_chain_count() {
        // 3 evals across 8 requested chains: only 3 chains are worth
        // spinning up (a 0-eval chain still pays full simulator builds).
        let (g, topo, cost) = setup();
        let r = ParallelSearch::with_chains(1, 8).request().run(
            &g,
            &topo,
            &cost,
            &[Strategy::data_parallel(&g, &topo)],
            Budget::evaluations(3),
            SimConfig::default(),
        );
        assert_eq!(r.chain_evals.len(), 3);
        assert_eq!(r.evals, 3);
    }

    #[test]
    fn abandoned_chain_releases_waiting_peers() {
        // A chain that dies (panic unwind -> AbandonOnPanic) must not
        // leave its peers blocked at the exchange barrier: whichever
        // order the rendezvous and the abandon land in, the surviving
        // chain's round completes and it gets a result back.
        let (g, topo, _) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let ex = Exchange::new(2);
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| ex.rendezvous(0, 1.0, &dp));
            let guard = AbandonOnPanic {
                exchange: &ex,
                armed: true,
            };
            drop(guard); // simulates chain 1 unwinding before any leave()
            let result = waiter.join().expect("waiting chain must not hang");
            let (bits, strategy) = result.expect("round must complete with a result");
            assert_eq!(bits, 1.0f64.to_bits());
            assert_eq!(strategy, dp);
        });
    }

    #[test]
    fn warm_start_refines_its_seed_and_reaches_targets_faster() {
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);

        // A short cold search produces the "cached" seed.
        let seed_run = ParallelSearch::with_chains(13, 1).request().run(
            &g,
            &topo,
            &cost,
            std::slice::from_ref(&dp),
            Budget::evaluations(120),
            SimConfig::default(),
        );

        // Warm-started search never returns worse than its seed.
        let warm = ParallelSearch::with_chains(14, 1).request().run_warm(
            &g,
            &topo,
            &cost,
            seed_run.best.clone(),
            Budget::evaluations(80),
            SimConfig::default(),
        );
        assert!(warm.best_cost_us <= seed_run.best_cost_us + 1e-9);

        // Chasing the seed's own cost as a target: the warm chain starts
        // there, so the cutoff fires without a single evaluation — the
        // property the serve bench gate quantifies.
        let mut ps = ParallelSearch::with_chains(15, 1);
        ps.target_cost_us = seed_run.best_cost_us;
        let instant = ps.request().run_warm(
            &g,
            &topo,
            &cost,
            seed_run.best.clone(),
            Budget::evaluations(10_000),
            SimConfig::default(),
        );
        assert_eq!(instant.evals, 0, "target already met by the seed");
        assert_eq!(
            instant.best_cost_us.to_bits(),
            seed_run.best_cost_us.to_bits()
        );
    }

    #[test]
    fn microbatch_proposals_discover_pipelined_strategies() {
        // A staged (one-op-chain-per-device) RNN is the textbook pipeline
        // case: enabling microbatch proposals must strictly beat the
        // whole-batch execution of the same seed, and the improvement must
        // actually come from pipelining on at least some seeds (the
        // cheaper single-op moves alone cannot overlap stages).
        let g = zoo::rnnlm(64, 4);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let n = g.len();
        let configs = g
            .ids()
            .map(|id| {
                let dev = topo.device_id((id.index() * 4 / n).min(3));
                crate::soap::ParallelConfig::on_device(g.op(id), dev)
            })
            .collect();
        let staged = Strategy::from_configs(&g, configs);
        let staged_cost =
            Simulator::new(&g, &topo, &cost, SimConfig::default(), staged.clone()).cost_us();
        let mut ps = ParallelSearch::with_chains(3, 1);
        ps.max_microbatches = 8;
        let r = ps.request().run_warm(
            &g,
            &topo,
            &cost,
            staged,
            Budget::evaluations(200),
            SimConfig::default(),
        );
        assert!(
            r.best_cost_us < staged_cost,
            "pipelined search must beat the staged whole-batch cost: {} vs {staged_cost}",
            r.best_cost_us
        );
        assert!(
            r.best.microbatches() > 1,
            "the winning strategy should actually pipeline (m = {})",
            r.best.microbatches()
        );
    }

    #[test]
    fn inert_microbatch_cap_never_perturbs_the_rng_stream() {
        // The bit-identical-to-pre-pipeline guarantee hinges on the
        // microbatch branch consuming ZERO extra RNG draws whenever it
        // cannot fire. A batch of 7 admits only m ∈ {1, 7}, so capping at
        // 6 leaves exactly one legal count — pipelining nominally enabled
        // but inert — and the walk must be bit-identical to the disabled
        // driver. A regression that draws per-proposal even when inert
        // (e.g. hoisting the gen_range above the mb_enabled check) shifts
        // every subsequent proposal and fails this test.
        let g = zoo::lenet(7);
        let topo = clusters::uniform_cluster(1, 4, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let inits = [Strategy::data_parallel(&g, &topo)];
        let budget = Budget::evaluations(120);
        let disabled = ParallelSearch::with_chains(9, 2).request().run(
            &g,
            &topo,
            &cost,
            &inits,
            budget,
            SimConfig::default(),
        );
        let mut ps = ParallelSearch::with_chains(9, 2);
        ps.max_microbatches = 6;
        let inert = ps
            .request()
            .run(&g, &topo, &cost, &inits, budget, SimConfig::default());
        assert_eq!(
            disabled.best_cost_us.to_bits(),
            inert.best_cost_us.to_bits()
        );
        assert_eq!(disabled.best, inert.best);
        assert_eq!(disabled.accepted, inert.accepted);
        assert_eq!(inert.best.microbatches(), 1);
    }

    #[test]
    fn warm_seeds_beyond_the_microbatch_cap_are_clamped() {
        // A cached strategy found with pipelining enabled must not leak
        // into a search whose caller disabled (or lowered) the cap: the
        // chain could never propose `m` back down, so it would return a
        // strategy the caller declared unexecutable. The seed falls back
        // to whole-batch execution instead.
        let (g, topo, cost) = setup();
        let warm = Strategy::data_parallel(&g, &topo).with_microbatches(4);
        let r = ParallelSearch::with_chains(5, 1).request().run_warm(
            &g,
            &topo,
            &cost,
            warm.clone(),
            Budget::evaluations(40),
            SimConfig::default(),
        );
        assert_eq!(r.best.microbatches(), 1, "cap 1 must clamp an m=4 seed");

        // Within the cap the seed's count survives: chasing the seed's
        // own (pipelined) cost as the target, the cutoff fires before a
        // single evaluation and hands back the m = 4 seed verbatim — a
        // clamped seed would start from the (different) whole-batch cost.
        let seed_cost =
            Simulator::new(&g, &topo, &cost, SimConfig::default(), warm.clone()).cost_us();
        let mut ps = ParallelSearch::with_chains(5, 1);
        ps.max_microbatches = 8;
        ps.target_cost_us = seed_cost;
        let r = ps.request().run_warm(
            &g,
            &topo,
            &cost,
            warm,
            Budget::evaluations(10_000),
            SimConfig::default(),
        );
        assert_eq!(r.evals, 0, "the in-budget seed already meets the target");
        assert_eq!(r.best.microbatches(), 4);
        assert_eq!(r.best_cost_us.to_bits(), seed_cost.to_bits());
    }

    #[test]
    fn inert_param_sync_axis_never_perturbs_the_rng_stream() {
        // Enabling the axis on a single-device cluster (no replication,
        // so no sync retuning is possible) must leave the proposal stream
        // untouched — the same zero-extra-draw guarantee the microbatch
        // branch makes. A regression that draws per-proposal even when
        // the branch cannot fire shifts every later proposal.
        let g = zoo::lenet(64);
        let topo = clusters::uniform_cluster(1, 1, 16.0, 4.0);
        let cost = MeasuredCostModel::paper_default();
        let inits = [Strategy::data_parallel(&g, &topo)];
        let budget = Budget::evaluations(120);
        let off = SearchRequest::new(17).chains(2).run(
            &g,
            &topo,
            &cost,
            &inits,
            budget,
            SimConfig::default(),
        );
        let on = SearchRequest::new(17).chains(2).param_sync(true).run(
            &g,
            &topo,
            &cost,
            &inits,
            budget,
            SimConfig::default(),
        );
        assert_eq!(off.best_cost_us.to_bits(), on.best_cost_us.to_bits());
        assert_eq!(off.best, on.best);
        assert_eq!(off.accepted, on.accepted);
        assert!(!on.best.has_custom_param_sync());
    }

    #[test]
    fn param_sync_search_is_deterministic_and_never_worse() {
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let dp_cost = Simulator::new(&g, &topo, &cost, SimConfig::default(), dp.clone()).cost_us();
        let run = || {
            SearchRequest::new(23).chains(2).param_sync(true).run(
                &g,
                &topo,
                &cost,
                std::slice::from_ref(&dp),
                Budget::evaluations(200),
                SimConfig::default(),
            )
        };
        let a = run();
        let b = run();
        assert!(a.best_cost_us <= dp_cost + 1e-9);
        assert_eq!(a.best_cost_us.to_bits(), b.best_cost_us.to_bits());
        assert_eq!(a.best, b.best);
        assert_eq!(a.accepted, b.accepted);
        // The telemetry invariant survives the new proposal kind: every
        // evaluation is one transactional apply.
        assert_eq!(a.telemetry.applies, a.evals);
        assert_eq!(a.telemetry.commits, a.accepted);
        assert_eq!(a.telemetry.rollbacks, a.evals - a.accepted);
    }

    #[test]
    fn warm_seeds_with_custom_sync_are_clamped_when_axis_disabled() {
        // A cached strategy carrying ZeRO modes must not leak through a
        // search whose caller disabled the sync axis: no proposal could
        // ever flip the modes back, so the chain would return a strategy
        // the caller ruled out.
        let (g, topo, cost) = setup();
        let warm = Strategy::data_parallel(&g, &topo)
            .with_param_sync_everywhere(ParamSync::ShardedZero1 { shards: 4 });
        let r = SearchRequest::new(5).chains(1).run_warm(
            &g,
            &topo,
            &cost,
            warm.clone(),
            Budget::evaluations(40),
            SimConfig::default(),
        );
        assert!(
            !r.best.has_custom_param_sync(),
            "axis-off search must clamp a ZeRO seed to all-reduce"
        );

        // With the axis enabled the seed passes through: chasing the
        // seed's own cost as the target, the cutoff fires before a single
        // evaluation and hands back the ZeRO seed verbatim.
        let seed_cost =
            Simulator::new(&g, &topo, &cost, SimConfig::default(), warm.clone()).cost_us();
        let r = SearchRequest::new(5)
            .chains(1)
            .param_sync(true)
            .target_cost_us(seed_cost)
            .run_warm(
                &g,
                &topo,
                &cost,
                warm,
                Budget::evaluations(10_000),
                SimConfig::default(),
            );
        assert_eq!(r.evals, 0, "the in-budget seed already meets the target");
        assert!(r.best.has_custom_param_sync());
        assert_eq!(r.best_cost_us.to_bits(), seed_cost.to_bits());
    }

    #[test]
    fn recompute_search_is_deterministic_and_never_worse() {
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let dp_cost = Simulator::new(&g, &topo, &cost, SimConfig::default(), dp.clone()).cost_us();
        let run = || {
            SearchRequest::new(29).chains(2).recompute(true).run(
                &g,
                &topo,
                &cost,
                std::slice::from_ref(&dp),
                Budget::evaluations(200),
                SimConfig::default(),
            )
        };
        let a = run();
        let b = run();
        // Without a memory budget, recompute only costs time, so the
        // search must never return worse than the seed.
        assert!(a.best_cost_us <= dp_cost + 1e-9);
        assert_eq!(a.best_cost_us.to_bits(), b.best_cost_us.to_bits());
        assert_eq!(a.best, b.best);
        assert_eq!(a.accepted, b.accepted);
        // Every evaluation stays one transactional apply under Delta.
        assert_eq!(a.telemetry.applies, a.evals);
        assert_eq!(a.telemetry.commits, a.accepted);
        assert_eq!(a.telemetry.rollbacks, a.evals - a.accepted);
    }

    #[test]
    fn warm_seeds_with_recompute_are_clamped_when_axis_disabled() {
        // A cached strategy carrying recompute bits must not leak through
        // a search whose caller closed the axis: no proposal could ever
        // flip the bits back, so the chain would return a strategy the
        // caller ruled out.
        let (g, topo, cost) = setup();
        let warm = Strategy::data_parallel(&g, &topo).with_recompute_everywhere(true);
        let r = SearchRequest::new(5).chains(1).run_warm(
            &g,
            &topo,
            &cost,
            warm.clone(),
            Budget::evaluations(40),
            SimConfig::default(),
        );
        assert!(
            !r.best.has_recompute(),
            "axis-off search must clamp a recompute seed to stored activations"
        );

        // With the axis open the seed passes through: chasing the seed's
        // own cost as the target, the cutoff fires before a single
        // evaluation and hands back the recompute seed verbatim.
        let seed_cost =
            Simulator::new(&g, &topo, &cost, SimConfig::default(), warm.clone()).cost_us();
        let r = SearchRequest::new(5)
            .chains(1)
            .recompute(true)
            .target_cost_us(seed_cost)
            .run_warm(
                &g,
                &topo,
                &cost,
                warm,
                Budget::evaluations(10_000),
                SimConfig::default(),
            );
        assert_eq!(r.evals, 0, "the in-budget seed already meets the target");
        assert!(r.best.has_recompute());
        assert_eq!(r.best_cost_us.to_bits(), seed_cost.to_bits());
    }

    #[test]
    fn mem_budget_steers_the_search_to_feasible_strategies() {
        // Pick a per-device cap between the data-parallel peak and the
        // recompute-everywhere peak: the seed starts OOM-infeasible, and
        // only strategies that recompute enough of their activations fit.
        // The search must walk out of the infeasible region.
        let (g, topo, cost) = setup();
        let dp = Strategy::data_parallel(&g, &topo);
        let rc = dp.clone().with_recompute_everywhere(true);
        let dp_peak = memory::footprint(&g, &topo, &dp).peak_with_state().1;
        let rc_peak = memory::footprint(&g, &topo, &rc).peak_with_state().1;
        assert!(
            rc_peak < dp_peak,
            "recompute must shrink the peak: {rc_peak} vs {dp_peak}"
        );
        let cap = rc_peak + (dp_peak - rc_peak) / 2;
        let budget = MemBudget::uniform_bytes(&topo, cap);
        assert!(memory::check_budget(&g, &topo, &dp, &budget).is_err());
        assert!(memory::check_budget(&g, &topo, &rc, &budget).is_ok());

        let r = SearchRequest::new(77)
            .chains(2)
            .recompute(true)
            .mem_budget(Some(budget.clone()))
            .run(
                &g,
                &topo,
                &cost,
                std::slice::from_ref(&dp),
                Budget::evaluations(600),
                SimConfig::default(),
            );
        assert!(
            memory::check_budget(&g, &topo, &r.best, &budget).is_ok(),
            "search must end on a budget-feasible strategy"
        );
        assert!(
            r.best_cost_us < OOM_PENALTY_US,
            "the reported best cost must be penalty-free"
        );
        assert!(
            r.best.has_recompute(),
            "feasibility here requires recompute"
        );
    }

    #[test]
    fn absent_mem_budget_is_bit_identical_to_the_unbudgeted_search() {
        // `mem_budget(None)` must not perturb costs, acceptance, or the
        // RNG stream — the explicit form of the pre-budget guarantee.
        let (g, topo, cost) = setup();
        let inits = [Strategy::data_parallel(&g, &topo)];
        let budget = Budget::evaluations(150);
        let plain = SearchRequest::new(19).chains(2).run(
            &g,
            &topo,
            &cost,
            &inits,
            budget,
            SimConfig::default(),
        );
        let explicit = SearchRequest::new(19).chains(2).mem_budget(None).run(
            &g,
            &topo,
            &cost,
            &inits,
            budget,
            SimConfig::default(),
        );
        assert_eq!(
            plain.best_cost_us.to_bits(),
            explicit.best_cost_us.to_bits()
        );
        assert_eq!(plain.best, explicit.best);
        assert_eq!(plain.accepted, explicit.accepted);
    }

    #[test]
    fn parallel_search_request_copies_every_knob() {
        // ParallelSearch::request() is the migration path off the (now
        // deleted) search/search_warm shims: it must carry every field
        // over verbatim so a converted caller runs the identical search.
        let mut ps = ParallelSearch::with_chains(31, 2);
        ps.exchange_every = 16;
        ps.target_cost_us = 123.5;
        ps.beta_scale = 7.0;
        ps.space = ConfigSpace::Canonical;
        ps.algorithm = SimAlgorithm::Full;
        ps.acceptance = AcceptanceRule::Annealed { anneal_factor: 4.0 };
        ps.max_microbatches = 8;
        ps.param_sync = true;
        ps.recompute = true;
        let req = ps.request();
        assert_eq!(req.seed, ps.seed);
        assert_eq!(req.chains, ps.chains);
        assert_eq!(req.exchange_every, ps.exchange_every);
        assert_eq!(req.target_cost_us, ps.target_cost_us);
        assert_eq!(req.beta_scale, ps.beta_scale);
        assert_eq!(req.space, ps.space);
        assert_eq!(req.algorithm, ps.algorithm);
        assert_eq!(req.acceptance, ps.acceptance);
        assert_eq!(req.max_microbatches, ps.max_microbatches);
        assert_eq!(req.param_sync, ps.param_sync);
        assert_eq!(req.recompute, ps.recompute);
        assert!(req.mem_budget.is_none());
    }

    #[test]
    fn escalated_budgets_double_per_round_and_saturate() {
        assert_eq!(Budget::escalated(100, 0, 1_000_000).max_evals, 200);
        assert_eq!(Budget::escalated(100, 1, 1_000_000).max_evals, 400);
        assert_eq!(Budget::escalated(100, 3, 1_000_000).max_evals, 1600);
        // The cap binds once doubling passes it.
        assert_eq!(Budget::escalated(100, 20, 50_000).max_evals, 50_000);
        // A zero-eval seed still escalates (treated as 1).
        assert_eq!(Budget::escalated(0, 0, 1_000_000).max_evals, 2);
        // Shift overflow saturates instead of wrapping.
        assert_eq!(
            Budget::escalated(u64::MAX / 2, 63, u64::MAX).max_evals,
            u64::MAX
        );
        // Escalated budgets keep the paper's patience defaults.
        assert_eq!(Budget::escalated(100, 0, 1_000).patience_fraction, 0.5);
    }

    #[test]
    fn shared_best_cost_is_a_monotone_min() {
        let cell = SharedBestCost::new();
        assert_eq!(cell.get(), f64::INFINITY);
        assert!(cell.observe(10.0), "first observation is an improvement");
        assert!(!cell.observe(10.0), "equal cost is not an improvement");
        assert!(!cell.observe(11.5), "worse cost is not an improvement");
        assert_eq!(cell.get(), 10.0);
        assert!(cell.observe(2.25));
        assert_eq!(cell.get(), 2.25);
    }
}
