//! CI perf smoke + regression gate.
//!
//! Eight workloads, one artifact (`BENCH_pr10.json` by default):
//!
//! 1. `proposal_evaluation` (full vs delta simulation, see
//!    [`flexflow_bench::proposal_bench`]) once at 4/8/16 devices — the
//!    PR 2 trajectory;
//! 2. `search_throughput` (parallel multi-chain search, see
//!    [`flexflow_bench::search_throughput`]) at 1/2/4/8 chains —
//!    proposals/sec and time-to-target-cost, the PR 3 trajectory;
//! 3. `serve_throughput` (the strategy-serving daemon, see
//!    [`flexflow_bench::serve_throughput`]) — cache-hit requests/sec and
//!    warm-vs-cold evals-to-target on rnnlm@4GPU, the PR 4 trajectory;
//! 4. `pipeline` (microbatch pipeline parallelism, see
//!    [`flexflow_bench::pipeline_bench`]) — pipelined vs whole-batch best
//!    search cost on rnnlm@4GPU, the PR 5 trajectory (fully
//!    deterministic: single-chain searches under evaluation budgets);
//! 5. `sim_scaling` (hierarchical timelines, see
//!    [`flexflow_bench::sim_scaling`]) — median delta-proposal cost on
//!    gpt_small over hierarchical clusters of 16/64/256 devices, the
//!    PR 6 trajectory;
//! 6. `param_sync` (searchable parameter synchronization, see
//!    [`flexflow_bench::param_sync_bench`]) — ZeRO-1-sharded vs
//!    all-reduce best search cost and per-device optimizer-state peak on
//!    gpt_medium@64, the PR 8 trajectory (deterministic: single-chain
//!    searches under evaluation budgets);
//! 7. `memory` (memory-aware search, see
//!    [`flexflow_bench::memory_bench`]) — the OOM-infeasible → feasible
//!    flip on gpt_medium@16 under the P100's 16 GB budgets, the PR 9
//!    trajectory (deterministic: a single-chain greedy budgeted polish of
//!    the recompute + ZeRO-1 structural seed);
//! 8. `concurrent_serve` (the production serving stack, see
//!    [`flexflow_bench::serve_throughput::concurrent_serve`]) — aggregate
//!    cache-hit throughput from parallel clients through the nonblocking
//!    TCP front end vs the same volume over one PR 4-style Unix-socket
//!    connection, plus LRU-bound churn on the sharded store and the
//!    polish daemon's monotone-upgrade gain, the PR 10 trajectory.
//!
//! With `--check` the binary also gates the numbers and exits non-zero on
//! a regression:
//!
//! - delta simulation must beat full simulation by ≥ 1.5x at every
//!   measured device count (measured headroom is ~2.5-3.5x, so 1.5x is a
//!   generous CI-noise margin);
//! - 4-chain search throughput must beat single-chain. The required ratio
//!   scales with the host: ≥ 1.5x with 4+ available hardware threads
//!   (measured headroom ~3x), ≥ 1.1x with 2-3, and ≥ 0.7x on a
//!   single-core host — serial hardware cannot speed up, so there the
//!   gate only rejects pathological coordination overhead;
//! - cache hits must answer with **zero** simulator evaluations and at
//!   ≥ 100 requests/sec (hits are pure JSON + cache-lookup work;
//!   measured headroom is orders of magnitude above the bar);
//! - warm-started search must reach the cold search's best cost (+1% of
//!   the improvement gap) within ≤ 0.5x the cold evaluation count;
//! - the pipelined search must find a strategy with **strictly lower**
//!   simulated cost than the best `microbatches = 1` strategy on rnnlm
//!   (the acceptance bar for the pipeline dimension: the warm start makes
//!   ≤ structural, the gate demands the real win);
//! - the delta-proposal median's growth per device *doubling* across the
//!   16/64/256 sweep must stay below 2.2x (the resumed sweep is linear
//!   in the tasks after the cut, which double with the devices; anything
//!   super-linear fails);
//! - the sync-axis search must find a strategy with **strictly lower**
//!   simulated cost than the best all-reduce-only strategy on
//!   gpt_medium@64 *and* at least halve the per-device optimizer-state
//!   peak (the acceptance bar for the parameter-sync dimension);
//! - the memory flip must hold both ways: data-parallel gpt_medium@16
//!   must **exceed** the 16 GB budget (the cell exists because the model
//!   does not fit) and the budgeted-search winner must **fit** it while
//!   actually recomputing somewhere (the acceptance bar for the memory
//!   dimension);
//! - concurrent TCP clients must aggregate at least the single-connection
//!   Unix-socket hit throughput measured in the same run (the front end
//!   must not serialize independent connections), the sharded store must
//!   never exceed its entry bound under churn while actually evicting,
//!   and polish must publish at least one strictly-better strategy and
//!   never a worse one;
//! - when a baseline artifact exists (`BENCH_SMOKE_BASELINE`, default
//!   the committed `BENCH_pr5.json`), the *dimensionless ratios* —
//!   delta-vs-full per device count and 4-chain-vs-1-chain throughput —
//!   must not regress by more than 20% against it. Absolute times are
//!   never compared across machines; the throughput-ratio comparison is
//!   skipped when the host has fewer cores than the baseline's host.
//!
//! Knobs: `BENCH_SMOKE_SAMPLES` (timed samples per proposal cell, default
//! 15), `BENCH_SMOKE_SEARCH_EVALS` (throughput-run proposal budget,
//! default 4000), `BENCH_SMOKE_SERVE_EVALS` (warm-vs-cold budget, default
//! 2000), `BENCH_SMOKE_HIT_REQUESTS` (timed hit requests, default 2000),
//! `BENCH_SMOKE_PIPELINE_EVALS` (pipeline comparison budget, default
//! 1500), `BENCH_SMOKE_SCALING_SAMPLES` (timed samples per sim_scaling
//! cell, default 9), `BENCH_SMOKE_SYNC_EVALS` (param_sync comparison
//! budget, default 160), `BENCH_SMOKE_MEM_EVALS` (memory-flip polish
//! budget, default 120), `BENCH_SMOKE_TCP_CLIENTS` (concurrent TCP
//! clients, default 4), `BENCH_SMOKE_TCP_REQUESTS` (hit requests per TCP
//! client, default 250), `BENCH_SMOKE_CHURN_INSERTS` (churn insert count,
//! default 600), `BENCH_SMOKE_POLISH_EVALS` (polish base budget, default
//! 12), `BENCH_SMOKE_BASELINE` (baseline path, default `BENCH_pr9.json`),
//! `BENCH_SMOKE_OUT` (output path, default `BENCH_pr10.json`).

use flexflow_bench::{
    memory_bench, param_sync_bench, pipeline_bench, proposal_bench, search_throughput,
    serve_throughput, sim_scaling,
};
use flexflow_core::sim::{SimConfig, Simulator};
use flexflow_core::strategy::Strategy;
use flexflow_costmodel::MeasuredCostModel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

#[derive(Serialize, Deserialize)]
struct Cell {
    bench: String,
    median_us: f64,
    min_us: f64,
    max_us: f64,
    samples: usize,
}

#[derive(Serialize)]
struct Report {
    /// Seconds since the Unix epoch at generation time.
    unix_epoch_secs: u64,
    /// Hardware threads the host reported; the search_throughput numbers
    /// only show parallel speedup when this is > 1.
    available_parallelism: usize,
    /// What one sample measures, for future readers of the artifact.
    note: String,
    results: Vec<Cell>,
    /// Multi-chain search scaling (proposals/sec, time-to-target).
    search_throughput: Vec<search_throughput::Measurement>,
    /// Reference target cost (µs/iter) the time-to-target runs chase.
    target_cost_us: f64,
    /// Cache-hit serving throughput (PR 4).
    serve_hits: serve_throughput::HitThroughput,
    /// Warm-vs-cold evals-to-target on rnnlm@4GPU (PR 4).
    serve_warm_vs_cold: serve_throughput::WarmVsCold,
    /// Pipelined vs whole-batch best search cost on rnnlm@4GPU (PR 5).
    pipeline: pipeline_bench::PipelineComparison,
    /// Delta-proposal medians on gpt_small over hierarchical clusters of
    /// 16/64/256 devices (PR 6).
    sim_scaling: Vec<sim_scaling::ScalingCell>,
    /// Median growth per device doubling across consecutive sweep cells
    /// (gated < 2.2x each).
    sim_scaling_growth_per_doubling: Vec<f64>,
    /// Sync-axis vs all-reduce best search cost and optimizer-state peak
    /// on gpt_medium@64 (PR 8).
    param_sync: param_sync_bench::SyncComparison,
    /// OOM-infeasible → feasible flip on gpt_medium@16 under 16 GB
    /// budgets (PR 9).
    memory: memory_bench::MemoryComparison,
    /// Concurrent-TCP vs single-connection Unix-socket hit throughput
    /// (PR 10).
    serve_concurrent: serve_throughput::ConcurrentServe,
    /// LRU-bound churn on the sharded store (PR 10).
    cache_churn: serve_throughput::CacheChurn,
    /// Polish-daemon monotone-upgrade gain (PR 10).
    polish_gain: serve_throughput::PolishGain,
}

/// The slice of a previous report the cross-run gate compares against —
/// only fields present in every artifact since `BENCH_pr3.json`, parsed
/// leniently (extra fields in newer artifacts are ignored).
struct Baseline {
    available_parallelism: usize,
    results: Vec<Cell>,
    search_throughput: Vec<search_throughput::Measurement>,
    /// Absent in artifacts older than `BENCH_pr6.json`.
    sim_scaling: Vec<sim_scaling::ScalingCell>,
}

// Hand-written like `StrategyDump`'s: the vendored derive requires every
// field, but `sim_scaling` must default to empty so pre-PR 6 baseline
// artifacts keep loading.
impl serde::Deserialize for Baseline {
    fn deserialize_value(v: &serde::Value) -> Result<Self, serde::DeError> {
        if v.as_object().is_none() {
            return Err(serde::DeError::expected("object", v));
        }
        let field = |name: &str| {
            v.get_field(name)
                .ok_or_else(|| serde::DeError::missing_field(name))
        };
        Ok(Self {
            available_parallelism: serde::Deserialize::deserialize_value(field(
                "available_parallelism",
            )?)?,
            results: serde::Deserialize::deserialize_value(field("results")?)?,
            search_throughput: serde::Deserialize::deserialize_value(field("search_throughput")?)?,
            sim_scaling: match v.get_field("sim_scaling") {
                Some(s) => serde::Deserialize::deserialize_value(s)?,
                None => Vec::new(),
            },
        })
    }
}

fn timed<F: FnMut() -> f64>(samples: usize, mut f: F) -> (f64, f64, f64) {
    let _ = black_box(f()); // warm-up
    let mut times: Vec<f64> = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        let _ = black_box(f());
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    times.sort_by(f64::total_cmp);
    (times[times.len() / 2], times[0], times[times.len() - 1])
}

/// The throughput ratio `--check` demands of 4 chains vs 1, given the
/// host's hardware threads (serial hosts cannot parallelize, so the gate
/// degrades to a no-pathological-overhead bound there).
fn required_speedup(cores: usize) -> f64 {
    match cores {
        0 | 1 => 0.7,
        2 | 3 => 1.1,
        _ => 1.5,
    }
}

fn main() -> ExitCode {
    let check = std::env::args().any(|a| a == "--check");
    let samples: usize = std::env::var("BENCH_SMOKE_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(15)
        .max(1);
    let search_evals: u64 = std::env::var("BENCH_SMOKE_SEARCH_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4000)
        .max(100);
    let serve_evals: u64 = std::env::var("BENCH_SMOKE_SERVE_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
        .max(100);
    let hit_requests: u64 = std::env::var("BENCH_SMOKE_HIT_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2000)
        .max(1);
    let pipeline_evals: u64 = std::env::var("BENCH_SMOKE_PIPELINE_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1500)
        .max(100);
    let scaling_samples: usize = std::env::var("BENCH_SMOKE_SCALING_SAMPLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(9)
        .max(1);
    let sync_evals: u64 = std::env::var("BENCH_SMOKE_SYNC_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(160)
        .max(24);
    let mem_evals: u64 = std::env::var("BENCH_SMOKE_MEM_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(120)
        .max(24);
    let tcp_clients: usize = std::env::var("BENCH_SMOKE_TCP_CLIENTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(4)
        .max(1);
    let tcp_requests: u64 = std::env::var("BENCH_SMOKE_TCP_REQUESTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(250)
        .max(1);
    let churn_inserts: u64 = std::env::var("BENCH_SMOKE_CHURN_INSERTS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(600)
        .max(100);
    let polish_evals: u64 = std::env::var("BENCH_SMOKE_POLISH_EVALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(12)
        .max(4);
    let baseline_path =
        std::env::var("BENCH_SMOKE_BASELINE").unwrap_or_else(|_| "BENCH_pr9.json".into());
    let out = std::env::var("BENCH_SMOKE_OUT").unwrap_or_else(|_| "BENCH_pr10.json".into());
    let cores = flexflow_core::default_chains();

    // ---- workload 1: proposal_evaluation (full vs delta) ----
    let mut results: Vec<Cell> = Vec::new();
    println!("bench smoke: proposal_evaluation, {samples} samples per cell");
    println!(
        "{:<32} {:>12} {:>12} {:>12}",
        "bench", "median", "min", "max"
    );
    for gpus in [4usize, 8, 16] {
        let graph = proposal_bench::model();
        let topo = proposal_bench::cluster(gpus);
        let cost = MeasuredCostModel::paper_default();
        let cfg = SimConfig::default();
        let searchable = Strategy::searchable_ops(&graph);

        let mut rng = StdRng::seed_from_u64(1);
        let mut s = Strategy::data_parallel(&graph, &topo);
        let (med, min, max) = timed(samples, || {
            proposal_bench::full_once(&graph, &topo, &cost, &cfg, &mut s, &searchable, &mut rng)
        });
        let mut push = |name: String, med: f64, min: f64, max: f64| {
            println!("{name:<32} {med:>10.1}us {min:>10.1}us {max:>10.1}us");
            results.push(Cell {
                bench: name,
                median_us: med,
                min_us: min,
                max_us: max,
                samples,
            });
        };
        push(format!("proposal_evaluation/full/{gpus}"), med, min, max);

        let mut rng = StdRng::seed_from_u64(1);
        let s = Strategy::data_parallel(&graph, &topo);
        let mut sim = Simulator::new(&graph, &topo, &cost, cfg, s);
        let (med, min, max) = timed(samples, || {
            proposal_bench::delta_once(&mut sim, &searchable, &mut rng)
        });
        push(format!("proposal_evaluation/delta/{gpus}"), med, min, max);
    }

    let delta_speedups: Vec<(usize, f64)> = [4usize, 8, 16]
        .into_iter()
        .map(|gpus| {
            let get = |n: &str| {
                results
                    .iter()
                    .find(|c| c.bench == format!("proposal_evaluation/{n}/{gpus}"))
                    .map(|c| c.median_us)
                    .expect("cell present")
            };
            (gpus, get("full") / get("delta"))
        })
        .collect();
    for &(gpus, s) in &delta_speedups {
        println!(
            "delta vs full @{gpus}: {}",
            if s >= 1.0 {
                format!("delta {s:.1}x faster")
            } else {
                format!("DELTA SLOWER by {:.1}x", 1.0 / s)
            }
        );
    }

    // ---- workload 2: search_throughput (multi-chain scaling) ----
    println!(
        "\nbench smoke: search_throughput, {search_evals} proposals per run, \
         {cores} hardware thread(s)"
    );
    let target_cost_us = search_throughput::reference_target(search_evals, 1000);
    println!("time-to-target chases {:.2} ms/iter", target_cost_us / 1e3);
    println!(
        "{:>7} {:>10} {:>12} {:>16} {:>16}",
        "chains", "evals", "elapsed", "proposals/s", "to-target"
    );
    let mut search: Vec<search_throughput::Measurement> = Vec::new();
    for chains in [1usize, 2, 4, 8] {
        let m = search_throughput::measure(chains, search_evals, 1, target_cost_us);
        println!(
            "{:>7} {:>10} {:>11.3}s {:>16.0} {:>13.3}s{}",
            m.chains,
            m.evals,
            m.elapsed_s,
            m.proposals_per_s,
            m.time_to_target_s,
            if m.reached_target { "" } else { " (missed)" }
        );
        search.push(m);
    }
    let tp = |chains: usize| {
        search
            .iter()
            .find(|m| m.chains == chains)
            .map(|m| m.proposals_per_s)
            .expect("chain cell present")
    };
    let tp_ratio = tp(4) / tp(1);
    println!("4-chain vs 1-chain throughput: {tp_ratio:.2}x");

    // ---- workload 3: serve_throughput (strategy-serving daemon) ----
    println!("\nbench smoke: serve_throughput ({hit_requests} hit requests, warm-vs-cold @ {serve_evals} evals)");
    let hits = serve_throughput::hit_throughput(hit_requests);
    println!(
        "cache hits: {:.0} requests/s ({} requests in {:.3}s, {} simulator evals)",
        hits.requests_per_s, hits.requests, hits.elapsed_s, hits.hit_evals_total
    );
    let wvc = serve_throughput::warm_vs_cold(serve_evals, 1);
    println!(
        "warm-vs-cold on rnnlm@4GPU: target {:.2} ms/iter (dp {:.2}, cold best {:.2})",
        wvc.target_cost_us / 1e3,
        wvc.dp_cost_us / 1e3,
        wvc.cold_best_us / 1e3
    );
    println!(
        "  cold reaches target in {} evals; warm (seed {:.2} ms/iter) in {} evals -> ratio {:.3}",
        wvc.cold_evals_to_target,
        wvc.warm_seed_cost_us / 1e3,
        wvc.warm_evals_to_target,
        wvc.warm_ratio
    );

    // ---- workload 4: pipeline (microbatch parallelism) ----
    println!("\nbench smoke: pipeline (microbatch search on rnnlm@4GPU, {pipeline_evals} evals per search)");
    let pipeline = pipeline_bench::rnnlm_4gpu(pipeline_evals, 1);
    println!(
        "whole-batch best {:.2} ms/iter; pipelined best {:.2} ms/iter (m = {}) -> ratio {:.3}",
        pipeline.baseline_best_us / 1e3,
        pipeline.pipelined_best_us / 1e3,
        pipeline.pipelined_microbatches,
        pipeline.cost_ratio
    );

    // ---- workload 5: sim_scaling (hierarchical timelines) ----
    println!(
        "\nbench smoke: sim_scaling (gpt_small delta proposals, {scaling_samples} samples per cell)"
    );
    println!(
        "{:>7} {:>9} {:>14} {:>12} {:>12}",
        "gpus", "islands", "delta median", "min", "max"
    );
    let scaling: Vec<sim_scaling::ScalingCell> = sim_scaling::DEVICE_COUNTS
        .iter()
        .map(|&gpus| {
            let cell = sim_scaling::measure(gpus, scaling_samples, 6);
            println!(
                "{:>7} {:>9} {:>12.1}us {:>10.1}us {:>10.1}us",
                cell.gpus, cell.islands, cell.delta_median_us, cell.delta_min_us, cell.delta_max_us
            );
            cell
        })
        .collect();
    let scaling_growth: Vec<f64> = scaling
        .windows(2)
        .map(|w| sim_scaling::growth_per_doubling(&w[0], &w[1]))
        .collect();
    for (w, g) in scaling.windows(2).zip(&scaling_growth) {
        println!(
            "growth per doubling {} -> {} devices: {g:.2}x",
            w[0].gpus, w[1].gpus
        );
    }

    // ---- workload 6: param_sync (searchable parameter sync) ----
    println!(
        "\nbench smoke: param_sync (sync-axis search on gpt_medium@64, {sync_evals} evals per search)"
    );
    let psync = param_sync_bench::gpt_medium_64gpu(sync_evals, 1);
    println!(
        "all-reduce best {:.2} ms/iter; zero1 seed {:.2} ms/iter; synced best {:.2} ms/iter \
         -> ratio {:.3}",
        psync.baseline_best_us / 1e3,
        psync.zero1_seed_us / 1e3,
        psync.synced_best_us / 1e3,
        psync.cost_ratio
    );
    println!(
        "optimizer-state peak: {:.1} MB/device all-reduce vs {:.1} MB/device synced",
        psync.baseline_opt_state_peak_bytes as f64 / 1e6,
        psync.synced_opt_state_peak_bytes as f64 / 1e6
    );

    // ---- workload 7: memory (OOM-infeasible -> feasible flip) ----
    println!(
        "\nbench smoke: memory (budgeted search on gpt_medium@16 under 16 GB, \
         {mem_evals} polish evals)"
    );
    let mem = memory_bench::gpt_medium_16gpu(mem_evals, 1);
    println!(
        "data parallel peaks at {:.1} MB/device ({}); fitted winner peaks at {:.1} MB/device \
         ({}) under a {:.1} MB budget",
        mem.dp_peak_bytes as f64 / (1u64 << 20) as f64,
        if mem.dp_feasible { "fits" } else { "OOM" },
        mem.fitted_peak_bytes as f64 / (1u64 << 20) as f64,
        if mem.fitted_feasible { "fits" } else { "OOM" },
        mem.budget_bytes as f64 / (1u64 << 20) as f64
    );
    println!(
        "fitting costs {:.2} ms/iter vs the un-runnable {:.2} ms/iter ({:.2}x; \
         {} recomputed ops, custom sync: {})",
        mem.fitted_cost_us / 1e3,
        mem.dp_cost_us / 1e3,
        mem.slowdown_ratio,
        mem.recompute_ops,
        mem.custom_sync
    );

    // ---- workload 8: concurrent_serve (TCP front end + LRU + polish) ----
    println!(
        "\nbench smoke: concurrent_serve ({tcp_clients} TCP clients x {tcp_requests} hits \
         vs one Unix-socket connection; churn {churn_inserts} inserts into 64 slots; \
         polish from {polish_evals} evals)"
    );
    let cserve = serve_throughput::concurrent_serve(tcp_clients, tcp_requests);
    println!(
        "unix single-connection: {:.0} hits/s; tcp x{}: {:.0} hits/s aggregate \
         ({:.2}x, {} busy)",
        cserve.unix_single_rps,
        cserve.tcp_clients,
        cserve.tcp_concurrent_rps,
        cserve.concurrency_speedup,
        cserve.tcp_busy
    );
    let churn = serve_throughput::cache_churn(churn_inserts, 64);
    println!(
        "churn: {} accepted of {} inserts, peak {} entries (bound 64), \
         {} evictions, {} bound violations",
        churn.accepted, churn.inserts, churn.peak_entries, churn.evictions, churn.bound_violations
    );
    let polish = serve_throughput::polish_gain(polish_evals, 11, 2);
    println!(
        "polish: {:.2} -> {:.2} ms/iter ({:.1}% better) in {} rounds, \
         {} published, {} evals",
        polish.cost_before_us / 1e3,
        polish.cost_after_us / 1e3,
        polish.improvement_pct,
        polish.rounds_run,
        polish.published,
        polish.polish_evals
    );

    // ---- artifact ----
    let report = Report {
        unix_epoch_secs: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        available_parallelism: cores,
        note: "proposal_evaluation: one MCMC proposal evaluated and reverted from a steady \
               data-parallel baseline (rnnlm batch 64, unroll 10); full = rebuild + sweep, \
               delta = transactional rebuild_op + resumed sweep + rollback. \
               search_throughput: SearchRequest over the same workload at 1/2/4/8 chains \
               (budget split across chains, exchange every 64 evals); proposals/sec from a \
               fixed-budget run, time-to-target from an early-cutoff run chasing \
               target_cost_us. serve_throughput: cache-hit requests/sec through the \
               in-process Server request handler, plus warm-vs-cold evals-to-target \
               (warm seed = same search at half budget; target = cold best + 1% of the \
               improvement gap over data parallelism). pipeline: single-chain search with \
               max_microbatches=8 warm-started from the single-chain whole-batch best \
               (deterministic; the gate demands a strict cost improvement). \
               sim_scaling: median apply+rollback time of one degree-capped proposal on \
               gpt_small (batch 64) over hierarchical P100 clusters (4-GPU NVLink islands, \
               IB spine) at 16/64/256 devices; the gate bounds the median's growth per \
               device doubling. param_sync: single-chain sync-axis search on gpt_medium@64 \
               warm-started from the better of the all-reduce best and its ZeRO-1-everywhere \
               rebuild (deterministic; the gate demands a strict cost improvement and a \
               >= 2x lower per-device optimizer-state peak). memory: single-chain greedy \
               budgeted polish on gpt_medium@16 under the P100's 16 GB per-device budgets, \
               warm-started from data parallelism with recompute everywhere and ZeRO-1 \
               sharding (deterministic; the gate demands the OOM-infeasible -> feasible \
               flip: plain data parallelism must overflow, the winner must fit). \
               concurrent_serve: aggregate cache-hit throughput from parallel TCP \
               clients through the nonblocking front end vs the same total volume \
               over one Unix-socket connection in the same process (the gate demands \
               concurrency not lose to a single connection); cache_churn hammers a \
               64-entry sharded LRU store far past its bound; polish_gain replays \
               the polish daemon's escalating re-search of the hottest entry \
               (deterministic; the gate demands a strict improvement, never a \
               regression)"
            .into(),
        results,
        search_throughput: search,
        target_cost_us,
        serve_hits: hits.clone(),
        serve_warm_vs_cold: wvc.clone(),
        pipeline: pipeline.clone(),
        sim_scaling: scaling.clone(),
        sim_scaling_growth_per_doubling: scaling_growth.clone(),
        param_sync: psync.clone(),
        memory: mem.clone(),
        serve_concurrent: cserve.clone(),
        cache_churn: churn.clone(),
        polish_gain: polish.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("serialize report");
    std::fs::write(&out, json).expect("write bench smoke artifact");
    println!("\n[artifact] {out}");

    // ---- regression gate ----
    if !check {
        return ExitCode::SUCCESS;
    }
    let mut failures: Vec<String> = Vec::new();
    for &(gpus, s) in &delta_speedups {
        if s < 1.5 {
            failures.push(format!(
                "delta-vs-full speedup at {gpus} devices is {s:.2}x (gate: >= 1.5x)"
            ));
        }
    }
    let required = required_speedup(cores);
    if tp_ratio < required {
        failures.push(format!(
            "4-chain search throughput is {tp_ratio:.2}x single-chain \
             (gate: >= {required:.2}x on {cores} hardware thread(s))"
        ));
    }

    // Serve gates: hits must be free, warm starts must halve the work.
    if hits.hit_evals_total != 0 {
        failures.push(format!(
            "cache hits spent {} simulator evals (gate: exactly 0)",
            hits.hit_evals_total
        ));
    }
    if hits.requests_per_s < 100.0 {
        failures.push(format!(
            "cache-hit serving rate is {:.0} requests/s (gate: >= 100)",
            hits.requests_per_s
        ));
    }
    if wvc.warm_ratio > 0.5 {
        failures.push(format!(
            "warm-started search needed {} evals vs {} cold to reach {:.2} ms/iter \
             (ratio {:.3}, gate: <= 0.5)",
            wvc.warm_evals_to_target,
            wvc.cold_evals_to_target,
            wvc.target_cost_us / 1e3,
            wvc.warm_ratio
        ));
    }

    // Pipeline gate: the microbatch dimension must strictly pay on the
    // deep sequential model (the acceptance bar of the pipeline PR).
    if pipeline.pipelined_best_us >= pipeline.baseline_best_us {
        failures.push(format!(
            "pipelined search found {:.2} ms/iter, not strictly below the \
             whole-batch best {:.2} ms/iter",
            pipeline.pipelined_best_us / 1e3,
            pipeline.baseline_best_us / 1e3
        ));
    }
    if pipeline.pipelined_microbatches <= 1 {
        failures.push(format!(
            "winning pipelined strategy uses m = {} (gate: m > 1)",
            pipeline.pipelined_microbatches
        ));
    }

    // Scaling gate: the delta-proposal median may grow with the timeline
    // (which doubles per device doubling) but no faster.
    for (w, &g) in scaling.windows(2).zip(&scaling_growth) {
        if g >= 2.2 {
            failures.push(format!(
                "delta-proposal median grows {g:.2}x per device doubling from \
                 {} to {} devices (gate: < 2.2x)",
                w[0].gpus, w[1].gpus
            ));
        }
    }

    // Param-sync gate: the sync axis must strictly pay on the
    // data-parallel transformer, in time *and* in optimizer-state memory
    // (the acceptance bar of the parameter-sync PR).
    if psync.synced_best_us >= psync.baseline_best_us {
        failures.push(format!(
            "sync-axis search found {:.2} ms/iter, not strictly below the \
             all-reduce best {:.2} ms/iter",
            psync.synced_best_us / 1e3,
            psync.baseline_best_us / 1e3
        ));
    }
    if psync.baseline_opt_state_peak_bytes < 2 * psync.synced_opt_state_peak_bytes {
        failures.push(format!(
            "synced optimizer-state peak is {} bytes/device vs {} all-reduce \
             (gate: >= 2x reduction)",
            psync.synced_opt_state_peak_bytes, psync.baseline_opt_state_peak_bytes
        ));
    }
    if !psync.custom_sync {
        failures.push("winning synced strategy never departs from all-reduce".into());
    }

    // Memory gate: the flip must hold both ways — the cell exists because
    // plain data parallelism does not fit, and the budgeted search must
    // turn it into a strategy that does, using the recompute lever.
    if mem.dp_feasible {
        failures.push(format!(
            "data-parallel gpt_medium@16 fits the budget ({} <= {} bytes/device); \
             the flip cell has lost its OOM-infeasible side",
            mem.dp_peak_bytes, mem.budget_bytes
        ));
    }
    if !mem.fitted_feasible {
        failures.push(format!(
            "budgeted search failed to fit gpt_medium@16: winner peaks at {} \
             bytes/device over a {} byte budget",
            mem.fitted_peak_bytes, mem.budget_bytes
        ));
    }
    if mem.recompute_ops == 0 {
        failures.push("fitted winner never recomputes (gate: recompute_ops > 0)".into());
    }

    // Concurrent-serve gates: the nonblocking front end must let parallel
    // clients aggregate at least what one Unix-socket connection gets,
    // the LRU bound must hold absolutely under churn, and polish must
    // strictly pay without ever publishing a regression.
    if cserve.tcp_concurrent_rps < cserve.unix_single_rps {
        failures.push(format!(
            "concurrent TCP serves {:.0} hits/s aggregate, below the \
             single-connection Unix-socket {:.0} hits/s",
            cserve.tcp_concurrent_rps, cserve.unix_single_rps
        ));
    }
    if churn.bound_violations != 0 {
        failures.push(format!(
            "sharded store exceeded its entry bound after {} inserts \
             (peak {} > {})",
            churn.bound_violations, churn.peak_entries, churn.max_entries
        ));
    }
    if churn.evictions == 0 {
        failures.push("churn produced zero LRU evictions (bound never enforced)".into());
    }
    if polish.published < 1 {
        failures.push("polish never published an upgrade (gate: >= 1)".into());
    }
    if polish.cost_after_us > polish.cost_before_us {
        failures.push(format!(
            "polish left the cache worse: {:.2} -> {:.2} ms/iter",
            polish.cost_before_us / 1e3,
            polish.cost_after_us / 1e3
        ));
    }
    if polish.cost_after_us >= polish.cost_before_us {
        failures.push(format!(
            "polish never strictly improved the hot entry ({:.2} ms/iter before \
             and after)",
            polish.cost_before_us / 1e3
        ));
    }

    // Cross-run gate: dimensionless ratios vs the committed baseline
    // artifact, with a 20% noise allowance.
    match std::fs::read_to_string(&baseline_path) {
        Err(_) => println!("\n(no baseline at {baseline_path}; skipping cross-run comparison)"),
        Ok(text) => match serde_json::from_str::<Baseline>(&text) {
            Err(e) => failures.push(format!("baseline {baseline_path} is unreadable: {e}")),
            Ok(base) => {
                println!("\ncomparing ratios against {baseline_path}:");
                for &(gpus, s) in &delta_speedups {
                    let find = |n: &str| {
                        base.results
                            .iter()
                            .find(|c| c.bench == format!("proposal_evaluation/{n}/{gpus}"))
                            .map(|c| c.median_us)
                    };
                    let Some(base_ratio) = find("full").zip(find("delta")).map(|(f, d)| f / d)
                    else {
                        continue;
                    };
                    println!("  delta-vs-full @{gpus}: {s:.2}x now, {base_ratio:.2}x baseline");
                    if s < 0.8 * base_ratio {
                        failures.push(format!(
                            "delta-vs-full ratio at {gpus} devices regressed >20%: \
                             {s:.2}x vs baseline {base_ratio:.2}x"
                        ));
                    }
                }
                let base_tp = |chains: usize| {
                    base.search_throughput
                        .iter()
                        .find(|m| m.chains == chains)
                        .map(|m| m.proposals_per_s)
                };
                if let Some(base_ratio) = base_tp(4).zip(base_tp(1)).map(|(a, b)| a / b) {
                    if cores < base.available_parallelism {
                        println!(
                            "  4-chain ratio: skipped (host has {cores} thread(s), \
                             baseline had {})",
                            base.available_parallelism
                        );
                    } else {
                        println!("  4-chain-vs-1: {tp_ratio:.2}x now, {base_ratio:.2}x baseline");
                        if tp_ratio < 0.8 * base_ratio {
                            failures.push(format!(
                                "4-chain throughput ratio regressed >20%: \
                                 {tp_ratio:.2}x vs baseline {base_ratio:.2}x"
                            ));
                        }
                    }
                }
                // Growth-per-doubling is dimensionless too; compare when
                // the baseline artifact already records the sweep.
                for (bw, w) in base.sim_scaling.windows(2).zip(scaling.windows(2)) {
                    if bw[0].gpus != w[0].gpus || bw[1].gpus != w[1].gpus {
                        continue;
                    }
                    let base_g = sim_scaling::growth_per_doubling(&bw[0], &bw[1]);
                    let g = sim_scaling::growth_per_doubling(&w[0], &w[1]);
                    println!(
                        "  scaling growth {}->{}: {g:.2}x/doubling now, {base_g:.2}x baseline",
                        w[0].gpus, w[1].gpus
                    );
                    if g > 1.2 * base_g {
                        failures.push(format!(
                            "delta-proposal growth per doubling from {} to {} devices \
                             regressed >20%: {g:.2}x vs baseline {base_g:.2}x",
                            w[0].gpus, w[1].gpus
                        ));
                    }
                }
            }
        },
    }

    println!("\nbench gate ({cores} hardware thread(s), 4-chain gate >= {required:.2}x):");
    if failures.is_empty() {
        println!(
            "  PASS: delta-vs-full >= 1.5x at 4/8/16 devices, 4-chain {tp_ratio:.2}x, \
             hits {:.0} req/s at 0 evals, warm ratio {:.3}, pipeline ratio {:.3} (m = {}), \
             scaling growth {} per doubling, sync ratio {:.3} at {:.1}x less opt state, \
             memory flip OOM->fit at {:.1} MB/device, tcp x{} {:.2}x vs unix, \
             churn bound held with {} evictions, polish {:.1}% better",
            hits.requests_per_s,
            wvc.warm_ratio,
            pipeline.cost_ratio,
            pipeline.pipelined_microbatches,
            scaling_growth
                .iter()
                .map(|g| format!("{g:.2}x"))
                .collect::<Vec<_>>()
                .join("/"),
            psync.cost_ratio,
            psync.baseline_opt_state_peak_bytes as f64
                / psync.synced_opt_state_peak_bytes.max(1) as f64,
            mem.fitted_peak_bytes as f64 / (1u64 << 20) as f64,
            cserve.tcp_clients,
            cserve.concurrency_speedup,
            churn.evictions,
            polish.improvement_pct
        );
        ExitCode::SUCCESS
    } else {
        for f in &failures {
            println!("  FAIL: {f}");
        }
        ExitCode::FAILURE
    }
}
