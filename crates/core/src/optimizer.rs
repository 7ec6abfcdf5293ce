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
//! There is one driver, [`SearchRequest`]: `K` independent chains on
//! scoped threads, seeded `seed ^ chain_id`, with the evaluation
//! [`Budget`] split across chains, a shared atomic best-cost cell for the
//! optional time-to-target cutoff, and a deterministic round-synchronized
//! best-strategy exchange (a coarse parallel-tempering analogue). One
//! chain is the paper's sequential setup: the exchange and the cell are
//! inert when the only best they can report is the chain's own.
//!
//! The chain loop is propose → simulate → penalize → accept, through
//! [`Simulator::propose`] / `commit` / `rollback`. Which oracle simulates
//! (full or delta, [`SimAlgorithm`]) is a property of the simulator the
//! chain builds; the loop is identical under both.

use crate::memory::{self, MemBudget};
use crate::metrics::DeltaTelemetry;
use crate::sim::{SimAlgorithm, SimConfig, Simulator};
use crate::soap::{self, ConfigSpace, ParamSync};
use crate::strategy::{Proposal, Strategy};
use flexflow_costmodel::CostModel;
use flexflow_device::Topology;
use flexflow_opgraph::OpGraph;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

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
    /// best cost improves (Fig. 12's search curve); the per-chain traces
    /// are merged into one monotone curve of global improvements.
    pub trace: Vec<(f64, f64)>,
    /// Transaction/sweep telemetry aggregated over all restarts and all
    /// chains.
    pub telemetry: DeltaTelemetry,
    /// Proposals evaluated by each chain, indexed by chain id.
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
/// [`SearchRequest::target_cost_us`] early cutoff and never steers
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
/// Every [`SearchRequest::exchange_every`] evaluations each live chain
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

/// What every chain of one search shares: the request, the read-only
/// search inputs and the cross-chain coordination handles.
struct ChainCtx<'a> {
    req: &'a SearchRequest,
    graph: &'a OpGraph,
    topo: &'a Topology,
    cost: &'a dyn CostModel,
    cfg: SimConfig,
    initial: &'a [Strategy],
    t0: Instant,
    best: &'a SharedBestCost,
    exchange: &'a Exchange,
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
/// exactly the paper's §6.2 loop. The chain also publishes local-best
/// improvements to the atomic cell, honors the time-to-target cutoff, and
/// takes part in the exchange rounds — all inert for a single chain, whose
/// global best is its own.
fn run_chain(ctx: &ChainCtx<'_>, budget: Budget, rng: &mut StdRng, chain: usize) -> ChainOutcome {
    let searchable = Strategy::searchable_ops(ctx.graph);
    assert!(!searchable.is_empty(), "graph has no searchable ops");
    let req = ctx.req;
    let t0 = ctx.t0;
    // Microbatch proposals need at least two legal counts to move between;
    // with pipelining disabled (the default) this is empty and the chain's
    // RNG stream is untouched — bit-identical to the pre-pipeline search.
    let mb_counts = if req.max_microbatches > 1 {
        soap::legal_microbatch_counts(ctx.graph, req.max_microbatches)
    } else {
        Vec::new()
    };
    let mb_enabled = mb_counts.len() > 1;
    // Param-sync proposals need the axis enabled, sync tasks present in
    // the build, at least one weighted layer to retune, and a cluster
    // where parameters can be replicated at all. Otherwise the branch is
    // inert and consumes ZERO RNG draws — bit-identical to the pre-axis
    // search (the same guarantee the microbatch branch makes).
    let sync_ops = if req.param_sync && ctx.cfg.include_param_sync {
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
    let rc_ops: Vec<flexflow_opgraph::OpId> = if req.recompute {
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
        let Some(budget) = &req.mem_budget else {
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
        let mut sim = Simulator::with_algorithm(
            ctx.graph,
            ctx.topo,
            ctx.cost,
            ctx.cfg,
            init.clone(),
            req.algorithm,
        );
        // Beta is normalized by the *physical* initial cost so one
        // temperature suits all models; the OOM penalty only enters the
        // comparison costs, never the temperature.
        let initial_cost = sim.cost_us();
        let mut current_cost = initial_cost + oom_penalty(sim.strategy());
        if best.as_ref().is_none_or(|(_, c)| current_cost < *c) {
            best = Some((init.clone(), current_cost));
            trace.push((t0.elapsed().as_secs_f64(), current_cost));
            ctx.best.observe(current_cost);
        }
        let mut since_improvement = 0u64;
        let patience = ((budget.max_evals as f64) * budget.patience_fraction) as u64;
        let restart_start = Instant::now();
        let mut restart_evals = 0u64;

        while restart_evals < budget.max_evals
            && restart_start.elapsed().as_secs_f64() < budget.max_seconds
        {
            if req.target_cost_us > 0.0 && ctx.best.get() <= req.target_cost_us {
                cutoff = true;
                break;
            }
            // Propose: one random op gets a fresh random configuration, or
            // (when the respective axis is open) the microbatch count, one
            // layer's sync mode or one op's recompute bit changes. The
            // evaluation is speculative; the acceptance decision below
            // commits or rolls it back.
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
                    soap::random_config(ctx.graph.op(op), ctx.topo, req.space, rng),
                )
            };
            let raw_cost = sim.propose(proposal);
            // The post-apply strategy is the proposal; penalize it if it
            // overflows the budget (a no-op without one).
            let new_cost = raw_cost + oom_penalty(sim.strategy());
            evals += 1;
            restart_evals += 1;

            // Acceptance (Eq. 2 by default), with beta normalized by
            // the restart's initial cost so one temperature suits all
            // models.
            let beta = match req.acceptance {
                AcceptanceRule::Metropolis => req.beta_scale / initial_cost,
                AcceptanceRule::Annealed { anneal_factor } => {
                    let progress = restart_evals as f64 / budget.max_evals.max(1) as f64;
                    req.beta_scale * (1.0 + (anneal_factor - 1.0) * progress.min(1.0))
                        / initial_cost
                }
                AcceptanceRule::Greedy => f64::INFINITY,
            };
            let accept = new_cost <= current_cost
                || rng.gen::<f64>() < (beta * (current_cost - new_cost)).exp();
            if accept {
                sim.commit();
                accepted += 1;
                current_cost = new_cost;
                if best.as_ref().is_none_or(|(_, c)| new_cost < *c) {
                    best = Some((sim.strategy().clone(), new_cost));
                    trace.push((t0.elapsed().as_secs_f64(), new_cost));
                    since_improvement = 0;
                    ctx.best.observe(new_cost);
                } else {
                    since_improvement += 1;
                }
            } else {
                sim.rollback();
                since_improvement += 1;
            }
            if patience > 0 && since_improvement >= patience {
                break; // §6.2 criterion (2)
            }
            // Exchange point: publish the local best, wait for the round,
            // and restart from the global best when it strictly beats
            // everything this chain has found (never triggered by the
            // chain's own discoveries, so a single chain is unaffected).
            if req.exchange_every > 0 && evals.is_multiple_of(req.exchange_every) {
                let (lb_strategy, lb_cost) =
                    best.as_ref().expect("local best set at restart entry");
                let local_bits = lb_cost.to_bits();
                let global = ctx.exchange.rendezvous(chain, *lb_cost, lb_strategy);
                if let Some((gbits, gstrat)) = global {
                    if gbits < local_bits {
                        let adopted_cost = sim.reset(gstrat.clone()) + oom_penalty(sim.strategy());
                        current_cost = adopted_cost;
                        best = Some((gstrat, adopted_cost));
                        since_improvement = 0;
                    }
                }
            }
        }
        sim.commit();
        telemetry.merge(&sim.telemetry());
    }

    let (best, best_cost_us) = best.expect("at least one candidate evaluated");
    ctx.exchange.leave(chain, best_cost_us, &best);
    ChainOutcome {
        best,
        best_cost_us,
        evals,
        accepted,
        trace,
        telemetry,
    }
}

/// The default chain count: one chain per available hardware thread.
pub fn default_chains() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Builder-style description of one multi-chain MCMC search, assembled
/// with chained setters and executed with [`SearchRequest::run`] /
/// [`SearchRequest::run_warm`]: `K` independent Metropolis chains, each
/// owning its own [`Simulator`] (task graph, timeline, scratch arena and
/// undo journals — the per-thread transaction state that makes this
/// embarrassingly parallel), run under [`std::thread::scope`] and
/// coordinated only through a [`SharedBestCost`] cell and the periodic
/// best-strategy `Exchange`. New search knobs land here once.
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
/// # Determinism
///
/// Chain `c` draws from `StdRng::seed_from_u64(seed ^ c)` and the exchange
/// protocol is a generation barrier whose per-round reduction is a pure
/// function of the chains' published bests (ties broken by chain id), so
/// for a fixed evaluation budget the result depends only on the request's
/// fields — not on thread scheduling, core count, or machine load — and
/// `chains(1)` returns the same result whatever `exchange_every` is (CI
/// pins both). Wall-clock budgets ([`Budget::max_seconds`]) and the
/// [`SearchRequest::target_cost_us`] cutoff stop chains at
/// timing-dependent points and therefore trade the guarantee for speed.
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
    /// Acceptance temperature `beta`, scaled by the initial cost: the
    /// effective exponent is `beta_scale * (cost - cost*) / cost_initial`.
    pub beta_scale: f64,
    /// Which slice of the configuration space proposals are drawn from.
    pub space: ConfigSpace,
    /// Which simulation algorithm each chain's [`Simulator`] evaluates
    /// proposals with.
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
    /// A request with the evaluation defaults: one chain per available
    /// hardware thread, delta simulation, the full configuration space,
    /// every extra axis closed, and `beta_scale = 20` (a proposal 5% worse
    /// than the current strategy is accepted with probability `e^-1`).
    pub fn new(seed: u64) -> Self {
        Self {
            seed,
            chains: default_chains(),
            exchange_every: 256,
            target_cost_us: 0.0,
            beta_scale: 20.0,
            space: ConfigSpace::Full,
            algorithm: Default::default(), // delta
            acceptance: AcceptanceRule::Metropolis,
            max_microbatches: 1,
            param_sync: false,
            recompute: false,
            mem_budget: None,
        }
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
    /// proposal count does not depend on the chain count. When the budget
    /// is smaller than the chain count the effective chain count is
    /// capped at the budget (a zero-eval chain
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
        let ctx = ChainCtx {
            req: self,
            graph,
            topo,
            cost,
            cfg,
            initial,
            t0,
            best: &best_cell,
            exchange: &exchange,
        };

        let outcomes: Vec<ChainOutcome> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..chains)
                .map(|c| {
                    let ctx = &ctx;
                    let chain_budget = budgets[c];
                    let seed = self.seed ^ c as u64;
                    s.spawn(move || {
                        // If this chain panics mid-search, deregister it
                        // from the barrier so waiting peers drain and the
                        // panic propagates through the join below rather
                        // than deadlocking the scope.
                        let mut guard = AbandonOnPanic {
                            exchange: ctx.exchange,
                            armed: true,
                        };
                        let mut rng = StdRng::seed_from_u64(seed);
                        let out = run_chain(ctx, chain_budget, &mut rng, c);
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

    /// A workload the tests search: graph, cluster and cost oracle.
    struct Env {
        g: OpGraph,
        topo: Topology,
        cost: MeasuredCostModel,
    }

    impl Env {
        fn new(g: OpGraph, topo: Topology) -> Self {
            let cost = MeasuredCostModel::paper_default();
            Env { g, topo, cost }
        }

        fn dp(&self) -> Strategy {
            Strategy::data_parallel(&self.g, &self.topo)
        }

        /// The cost the simulator predicts for `s`.
        fn cost_of(&self, s: &Strategy) -> f64 {
            Simulator::new(
                &self.g,
                &self.topo,
                &self.cost,
                SimConfig::default(),
                s.clone(),
            )
            .cost_us()
        }

        /// `req.run` under an evaluation budget and the default sim config.
        fn search(&self, req: SearchRequest, inits: &[Strategy], evals: u64) -> SearchResult {
            self.search_within(req, inits, Budget::evaluations(evals))
        }

        fn search_within(&self, req: SearchRequest, inits: &[Strategy], b: Budget) -> SearchResult {
            req.run(
                &self.g,
                &self.topo,
                &self.cost,
                inits,
                b,
                SimConfig::default(),
            )
        }

        /// `req.run_warm` under an evaluation budget.
        fn search_warm(&self, req: SearchRequest, warm: Strategy, evals: u64) -> SearchResult {
            let b = Budget::evaluations(evals);
            req.run_warm(
                &self.g,
                &self.topo,
                &self.cost,
                warm,
                b,
                SimConfig::default(),
            )
        }
    }

    fn setup() -> Env {
        Env::new(zoo::lenet(64), clusters::uniform_cluster(1, 4, 16.0, 4.0))
    }

    #[test]
    fn search_never_worse_than_initial() {
        let env = setup();
        let dp = env.dp();
        let dp_cost = env.cost_of(&dp);
        let r = env.search(SearchRequest::new(1).chains(1), &[dp], 100);
        assert!(r.best_cost_us <= dp_cost + 1e-9);
        assert!(r.evals > 0);
        assert_eq!(r.chain_evals, vec![r.evals]);
    }

    #[test]
    fn search_improves_on_random_start() {
        // Starting from a random strategy, the search must make progress
        // (random strategies scatter ops across devices and pay heavy
        // communication, leaving lots of headroom).
        let env = setup();
        let mut rng = rand::rngs::StdRng::seed_from_u64(100);
        let random = Strategy::random(&env.g, &env.topo, crate::soap::ConfigSpace::Full, &mut rng);
        let random_cost = env.cost_of(&random);
        let r = env.search(SearchRequest::new(7).chains(1), &[random], 400);
        assert!(
            r.best_cost_us < random_cost,
            "search should beat a random start: {} vs {random_cost}",
            r.best_cost_us
        );
    }

    #[test]
    fn trace_is_monotone_decreasing() {
        let env = setup();
        let r = env.search(SearchRequest::new(3).chains(1), &[env.dp()], 150);
        for w in r.trace.windows(2) {
            assert!(w[1].1 <= w[0].1, "trace must only improve");
            assert!(w[1].0 >= w[0].0, "trace times must be ordered");
        }
    }

    #[test]
    fn full_and_delta_find_comparable_strategies() {
        // The two oracles price every proposal identically, so under the
        // one loop they draw, accept and return the same search — bit for
        // bit, on flat, multi-node and hierarchical clusters, with only
        // the config axis open and with all four under a memory budget.
        let workloads = [
            (
                zoo::rnnlm(64, 4),
                clusters::uniform_cluster(1, 4, 16.0, 4.0),
                150,
            ),
            (
                zoo::lenet(64),
                clusters::uniform_cluster(2, 2, 16.0, 4.0),
                150,
            ),
            (
                zoo::gpt_small(64),
                clusters::preset("p100x16-ib").unwrap(),
                24,
            ),
        ];
        for (g, topo, evals) in workloads {
            let env = Env::new(g, topo);
            let inits = [env.dp()];
            let config_only = |seed| SearchRequest::new(seed).chains(1);
            let all_axes = |seed| {
                config_only(seed)
                    .max_microbatches(4)
                    .param_sync(true)
                    .recompute(true)
                    .mem_budget(Some(MemBudget::device_defaults(&env.topo)))
            };
            for seed in 0..3 {
                for req in [config_only(seed), all_axes(seed)] {
                    let run =
                        |algorithm| env.search(req.clone().algorithm(algorithm), &inits, evals);
                    let (full, delta) = (run(SimAlgorithm::Full), run(SimAlgorithm::Delta));
                    let cell = format!("{} seed {seed} axes {}", env.g.name(), req.recompute);
                    assert_eq!(
                        full.best_cost_us.to_bits(),
                        delta.best_cost_us.to_bits(),
                        "{cell}"
                    );
                    assert_eq!(full.best, delta.best, "{cell}");
                    assert_eq!(full.evals, delta.evals, "{cell}");
                    assert_eq!(full.accepted, delta.accepted, "{cell}");
                }
            }
        }
    }

    #[test]
    fn multiple_initials_take_the_best() {
        let env = setup();
        let inits = [Strategy::single_device(&env.g, &env.topo, 0), env.dp()];
        let r = env.search(SearchRequest::new(5).chains(1), &inits, 50);
        // with both initials, the result is at least as good as plain DP
        let dp_cost = env.cost_of(&env.dp());
        assert!(r.best_cost_us <= dp_cost + 1e-9);
    }

    #[test]
    fn greedy_never_accepts_regressions() {
        let env = setup();
        let r = env.search(
            SearchRequest::new(21)
                .chains(1)
                .acceptance(AcceptanceRule::Greedy),
            &[env.dp()],
            200,
        );
        // with greedy acceptance, accepted count == number of improvements,
        // and the final best equals the walk's end (no escapes needed)
        assert!(r.accepted <= r.evals);
        let dp_cost = env.cost_of(&env.dp());
        assert!(r.best_cost_us <= dp_cost + 1e-9);
    }

    #[test]
    fn annealed_accepts_fewer_late_regressions_than_flat() {
        let env = setup();
        let budget = Budget {
            max_evals: 300,
            max_seconds: f64::INFINITY,
            patience_fraction: 1.0,
        };
        let flat = SearchRequest::new(33).chains(1).beta_scale(5.0);
        let annealed = flat.clone().acceptance(AcceptanceRule::Annealed {
            anneal_factor: 50.0,
        });
        let inits = [env.dp()];
        let rf = env.search_within(flat, &inits, budget);
        let ra = env.search_within(annealed, &inits, budget);
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
        let env = setup();
        let budget = Budget {
            max_evals: 10_000,
            max_seconds: f64::INFINITY,
            patience_fraction: 0.01, // give up after 100 stale evals
        };
        let r = env.search_within(SearchRequest::new(9).chains(1), &[env.dp()], budget);
        assert!(r.evals < 10_000, "patience must cut the run short");
    }

    #[test]
    fn exchange_is_inert_for_one_chain() {
        // A single chain's global best is its own, so the exchange period
        // (off, every 64, every 256) must not change the search.
        let env = setup();
        let inits = [env.dp(), Strategy::single_device(&env.g, &env.topo, 0)];
        let run = |every| {
            env.search(
                SearchRequest::new(42).chains(1).exchange_every(every),
                &inits,
                300,
            )
        };
        let off = run(0);
        for on in [run(64), run(256)] {
            assert_eq!(off.best_cost_us.to_bits(), on.best_cost_us.to_bits());
            assert_eq!(off.best, on.best, "strategies must be identical");
            assert_eq!(off.evals, on.evals);
            assert_eq!(off.accepted, on.accepted);
            assert_eq!(on.chain_evals, vec![on.evals]);
        }
    }

    #[test]
    fn parallel_search_is_deterministic_across_runs() {
        let env = setup();
        let inits = [env.dp()];
        let budget = Budget::evaluations(200);
        let run = || {
            // An exchange every 16 evaluations forces several rounds.
            let req = SearchRequest::new(7).chains(4).exchange_every(16);
            env.search_within(req, &inits, budget)
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
        let env = setup();
        let dp = env.dp();
        let dp_cost = env.cost_of(&dp);
        let r = env.search(SearchRequest::new(3).chains(3), &[dp], 120);
        assert!(r.best_cost_us <= dp_cost + 1e-9);
        assert_eq!(r.chain_evals.len(), 3);
        for w in r.trace.windows(2) {
            assert!(w[1].1 <= w[0].1, "merged trace must only improve");
            assert!(w[1].0 >= w[0].0, "merged trace times must be ordered");
        }
    }

    #[test]
    fn parallel_search_aggregates_chain_telemetry() {
        let env = setup();
        let inits = [env.dp()];
        let r = env.search(
            SearchRequest::new(11).chains(4).exchange_every(32),
            &inits,
            160,
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
        let env = setup();
        let dp = env.dp();
        let dp_cost = env.cost_of(&dp);
        // A target above the initial cost is hit immediately: the chains
        // must notice and stop well short of the eval budget.
        let ps = SearchRequest::new(5)
            .chains(2)
            .target_cost_us(dp_cost * 2.0);
        let r = env.search(ps.clone(), &[dp], 100_000);
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
        let env = setup();
        let r = env.search(SearchRequest::new(1).chains(8), &[env.dp()], 3);
        assert_eq!(r.chain_evals.len(), 3);
        assert_eq!(r.evals, 3);
    }

    #[test]
    fn abandoned_chain_releases_waiting_peers() {
        // A chain that dies (panic unwind -> AbandonOnPanic) must not
        // leave its peers blocked at the exchange barrier: whichever
        // order the rendezvous and the abandon land in, the surviving
        // chain's round completes and it gets a result back.
        let env = setup();
        let dp = env.dp();
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
        let env = setup();
        let dp = env.dp();

        // A short cold search produces the "cached" seed.
        let seed_run = env.search(
            SearchRequest::new(13).chains(1),
            std::slice::from_ref(&dp),
            120,
        );

        // Warm-started search never returns worse than its seed.
        let warm = env.search_warm(SearchRequest::new(14).chains(1), seed_run.best.clone(), 80);
        assert!(warm.best_cost_us <= seed_run.best_cost_us + 1e-9);

        // Chasing the seed's own cost as a target: the warm chain starts
        // there, so the cutoff fires without a single evaluation — the
        // property the serve bench gate quantifies.
        let ps = SearchRequest::new(15)
            .chains(1)
            .target_cost_us(seed_run.best_cost_us);
        let instant = env.search_warm(ps, seed_run.best.clone(), 10_000);
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
        let env = Env::new(
            zoo::rnnlm(64, 4),
            clusters::uniform_cluster(1, 4, 16.0, 4.0),
        );
        let n = env.g.len();
        let configs = env
            .g
            .ids()
            .map(|id| {
                let dev = env.topo.device_id((id.index() * 4 / n).min(3));
                crate::soap::ParallelConfig::on_device(env.g.op(id), dev)
            })
            .collect();
        let staged = Strategy::from_configs(&env.g, configs);
        let staged_cost = env.cost_of(&staged);
        let r = env.search_warm(
            SearchRequest::new(3).chains(1).max_microbatches(8),
            staged,
            200,
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
        let env = Env::new(zoo::lenet(7), clusters::uniform_cluster(1, 4, 16.0, 4.0));
        let inits = [env.dp()];
        let budget = Budget::evaluations(120);
        let disabled = env.search_within(SearchRequest::new(9).chains(2), &inits, budget);
        let inert = env.search_within(
            SearchRequest::new(9).chains(2).max_microbatches(6),
            &inits,
            budget,
        );
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
        let env = setup();
        let warm = env.dp().with_microbatches(4);
        let r = env.search_warm(SearchRequest::new(5).chains(1), warm.clone(), 40);
        assert_eq!(r.best.microbatches(), 1, "cap 1 must clamp an m=4 seed");

        // Within the cap the seed's count survives: chasing the seed's
        // own (pipelined) cost as the target, the cutoff fires before a
        // single evaluation and hands back the m = 4 seed verbatim — a
        // clamped seed would start from the (different) whole-batch cost.
        let seed_cost = env.cost_of(&warm);
        let ps = SearchRequest::new(5)
            .chains(1)
            .max_microbatches(8)
            .target_cost_us(seed_cost);
        let r = env.search_warm(ps, warm, 10_000);
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
        let env = Env::new(zoo::lenet(64), clusters::uniform_cluster(1, 1, 16.0, 4.0));
        let inits = [env.dp()];
        let budget = Budget::evaluations(120);
        let off = env.search_within(SearchRequest::new(17).chains(2), &inits, budget);
        let on = env.search_within(
            SearchRequest::new(17).chains(2).param_sync(true),
            &inits,
            budget,
        );
        assert_eq!(off.best_cost_us.to_bits(), on.best_cost_us.to_bits());
        assert_eq!(off.best, on.best);
        assert_eq!(off.accepted, on.accepted);
        assert!(!on.best.has_custom_param_sync());
    }

    #[test]
    fn param_sync_search_is_deterministic_and_never_worse() {
        let env = setup();
        let dp = env.dp();
        let dp_cost = env.cost_of(&dp);
        let run = || {
            env.search(
                SearchRequest::new(23).chains(2).param_sync(true),
                std::slice::from_ref(&dp),
                200,
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
        let env = setup();
        let warm = env
            .dp()
            .with_param_sync_everywhere(ParamSync::ShardedZero1 { shards: 4 });
        let r = env.search_warm(SearchRequest::new(5).chains(1), warm.clone(), 40);
        assert!(
            !r.best.has_custom_param_sync(),
            "axis-off search must clamp a ZeRO seed to all-reduce"
        );

        // With the axis enabled the seed passes through: chasing the
        // seed's own cost as the target, the cutoff fires before a single
        // evaluation and hands back the ZeRO seed verbatim.
        let seed_cost = env.cost_of(&warm);
        let r = env.search_warm(
            SearchRequest::new(5)
                .chains(1)
                .param_sync(true)
                .target_cost_us(seed_cost),
            warm,
            10_000,
        );
        assert_eq!(r.evals, 0, "the in-budget seed already meets the target");
        assert!(r.best.has_custom_param_sync());
        assert_eq!(r.best_cost_us.to_bits(), seed_cost.to_bits());
    }

    #[test]
    fn recompute_search_is_deterministic_and_never_worse() {
        let env = setup();
        let dp = env.dp();
        let dp_cost = env.cost_of(&dp);
        let run = || {
            env.search(
                SearchRequest::new(29).chains(2).recompute(true),
                std::slice::from_ref(&dp),
                200,
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
        let env = setup();
        let warm = env.dp().with_recompute_everywhere(true);
        let r = env.search_warm(SearchRequest::new(5).chains(1), warm.clone(), 40);
        assert!(
            !r.best.has_recompute(),
            "axis-off search must clamp a recompute seed to stored activations"
        );

        // With the axis open the seed passes through: chasing the seed's
        // own cost as the target, the cutoff fires before a single
        // evaluation and hands back the recompute seed verbatim.
        let seed_cost = env.cost_of(&warm);
        let r = env.search_warm(
            SearchRequest::new(5)
                .chains(1)
                .recompute(true)
                .target_cost_us(seed_cost),
            warm,
            10_000,
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
        let env = setup();
        let dp = env.dp();
        let rc = dp.clone().with_recompute_everywhere(true);
        let dp_peak = memory::footprint(&env.g, &env.topo, &dp)
            .peak_with_state()
            .1;
        let rc_peak = memory::footprint(&env.g, &env.topo, &rc)
            .peak_with_state()
            .1;
        assert!(
            rc_peak < dp_peak,
            "recompute must shrink the peak: {rc_peak} vs {dp_peak}"
        );
        let cap = rc_peak + (dp_peak - rc_peak) / 2;
        let budget = MemBudget::uniform_bytes(&env.topo, cap);
        assert!(memory::check_budget(&env.g, &env.topo, &dp, &budget).is_err());
        assert!(memory::check_budget(&env.g, &env.topo, &rc, &budget).is_ok());

        let r = env.search(
            SearchRequest::new(77)
                .chains(2)
                .recompute(true)
                .mem_budget(Some(budget.clone())),
            std::slice::from_ref(&dp),
            600,
        );
        assert!(
            memory::check_budget(&env.g, &env.topo, &r.best, &budget).is_ok(),
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
        let env = setup();
        let inits = [env.dp()];
        let budget = Budget::evaluations(150);
        let plain = env.search_within(SearchRequest::new(19).chains(2), &inits, budget);
        let explicit = env.search_within(
            SearchRequest::new(19).chains(2).mem_budget(None),
            &inits,
            budget,
        );
        assert_eq!(
            plain.best_cost_us.to_bits(),
            explicit.best_cost_us.to_bits()
        );
        assert_eq!(plain.best, explicit.best);
        assert_eq!(plain.accepted, explicit.accepted);
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
