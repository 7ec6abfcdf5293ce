//! `flexflow` — command-line interface to the reproduction.
//!
//! ```text
//! flexflow models
//! flexflow search <model> [--gpus N] [--cluster p100|k80|PRESET] [--evals N] [--seed N]
//!                         [--out FILE] [--chains K] [--exchange-every N] [--microbatches M]
//!                         [--param-sync MODE] [--recompute search|off] [--mem-budget MB|device]
//!                         [--warm FILE] [--verbose]
//! flexflow simulate <model> [--gpus N] [--cluster p100|k80|PRESET] [--strategy FILE]
//!                           [--microbatches M] [--param-sync MODE] [--recompute off]
//!                           [--mem-budget MB|device]
//! flexflow baselines <model> [--gpus N] [--cluster p100|k80|PRESET]
//! flexflow serve [--socket PATH | --tcp HOST:PORT | --oneshot] [--workers N] [--cache FILE]
//!                [--microbatches M] [--shards N] [--cache-entries N] [--cache-bytes B]
//!                [--max-conns N] [--no-polish]
//! ```
//!
//! `search` runs one chain per available hardware thread by default; fix
//! `--chains` and `--seed` for a reproducible result (`--chains 1` is the
//! paper's sequential search, whatever `--exchange-every` says). A flag a
//! subcommand does not define is rejected, not ignored.
//! `--microbatches M` enables pipeline parallelism: the search may split
//! the batch into up to `M` microbatches and pipeline operator stages
//! across devices. `--warm FILE` seeds every chain from a previously
//! exported strategy instead of the data-parallel/expert defaults, so a
//! pipelined refinement of a known-good strategy can never end worse
//! than it.
//!
//! `--param-sync MODE` controls per-layer parameter synchronization.
//! `search` opens the sync axis to the optimizer (proposals may retune
//! each layer between all-reduce, ZeRO-1 sharding and parameter-server
//! placement); a concrete mode — `allreduce`, `zero1:K` (K shards) or
//! `ps:D` (server on device D) — overrides the default on every initial
//! candidate and still lets the search retune per layer. Under
//! `simulate`, a concrete mode is applied to every layer of the
//! simulated strategy (`search` is rejected there: nothing searches).
//!
//! `--recompute search` opens the activation-recomputation axis: the
//! search may mark individual operators to drop their stored forward
//! activations and re-run the forward pass before the backward pass,
//! trading FLOPs for peak memory. `--mem-budget` sets a per-device peak
//! memory budget — a size in MB applied uniformly, or the word `device`
//! for each device kind's hardware default (16 GB P100, 12 GB K80,
//! 40 GB A100). Under `search`, OOM-infeasible proposals are penalized so
//! the search steers toward strategies that fit; under `simulate`, the
//! strategy's peak per-device memory is reported and an over-budget
//! strategy exits nonzero with the offending device named.
//!
//! `--cluster` takes either a flat paper cluster kind (`p100`, `k80` —
//! sized by `--gpus`, which must be a whole number of nodes) or a
//! hierarchical preset name like `p100x64-ib` / `a100x256-ib` (NVLink
//! islands joined by an InfiniBand spine; the name fixes the device
//! count, so `--gpus` is rejected next to a preset).
//!
//! `serve` runs the strategy-serving daemon: line-delimited JSON requests
//! (see `flexflow_server::protocol`) answered from a sharded,
//! LRU-bounded content-addressed strategy cache with warm-started search
//! on near misses. `--oneshot` reads requests from stdin and writes
//! responses to stdout (the test and scripting mode); `--tcp HOST:PORT`
//! runs the nonblocking TCP front end (connection-limited with in-band
//! `busy` backpressure); otherwise the daemon listens on a Unix socket.
//! `--shards` sets the lock/file sharding; `--cache-entries`/`--cache-bytes`
//! bound **each shard** (LRU eviction), so the cache as a whole holds up
//! to `--shards` times as much. Long-lived front ends run a
//! background polish daemon that re-searches the hottest cache entries
//! at escalating budgets during idle cycles (`--no-polish` disables it).

use flexflow::baselines::{expert, model_parallel, optcnn};
use flexflow::core::memory;
use flexflow::core::metrics::SimMetrics;
use flexflow::core::sim::{simulate_full, SimConfig};
use flexflow::core::taskgraph::TaskGraph;
use flexflow::core::{default_chains, strategy_io, Budget, ParamSync, SearchRequest, Strategy};
use flexflow::costmodel::MeasuredCostModel;
use flexflow::device::{clusters, DeviceKind, Topology};
use flexflow::opgraph::{zoo, OpGraph};
use flexflow::server::{CacheBounds, ServerHandle};
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  flexflow models\n  flexflow search <model> [--gpus N] \
         [--cluster p100|k80|PRESET] [--evals N] [--seed N] [--out FILE]\n                \
         [--chains K] [--exchange-every N] [--microbatches M] [--warm FILE]\n            \
         [--param-sync search|allreduce|zero1:K|ps:D] [--recompute search|off]\n         \
         [--mem-budget MB|device] [--verbose]\n  flexflow \
         simulate <model> [--gpus N] [--cluster p100|k80|PRESET] [--strategy FILE]\n     \
         [--microbatches M] [--param-sync allreduce|zero1:K|ps:D] [--recompute off]\n    \
         [--mem-budget MB|device]\n  flexflow \
         baselines <model> [--gpus N] [--cluster p100|k80|PRESET]\n  flexflow serve \
         [--socket PATH | --tcp HOST:PORT | --oneshot] [--workers N] [--cache FILE]\n         \
         [--microbatches M] [--shards N] [--cache-entries N] [--cache-bytes B]\n         \
         [--max-conns N] [--no-polish]\n\
         \n--cache-entries and --cache-bytes bound each of the --shards cache shards: \
         the cache holds up to N x shards strategies\n\
         presets are hierarchical clusters named <kind>x<gpus>-ib, e.g. {}",
        clusters::PRESET_EXAMPLES.join(", ")
    );
    ExitCode::from(2)
}

/// What `--cluster` named: a flat paper cluster kind sized by `--gpus`,
/// or a hierarchical preset (`<kind>x<gpus>-ib`) that fixes its own size.
enum ClusterSpec {
    Flat(DeviceKind),
    Preset(String),
}

impl ClusterSpec {
    fn label(&self) -> String {
        match self {
            ClusterSpec::Flat(kind) => kind.to_string(),
            ClusterSpec::Preset(name) => name.clone(),
        }
    }
}

struct Options {
    model: String,
    gpus: usize,
    cluster: ClusterSpec,
    evals: u64,
    seed: u64,
    out: Option<String>,
    strategy: Option<String>,
    verbose: bool,
    chains: usize,
    exchange_every: u64,
    /// `--microbatches M`: `None` when the flag was absent (so `simulate`
    /// can tell "default off" from an explicit 1), capped max for search.
    microbatches: Option<u64>,
    /// `--param-sync MODE`: `None` when absent (pre-PR8 behaviour).
    param_sync: Option<ParamSyncFlag>,
    /// `--warm FILE`: strategy file seeding the search.
    warm: Option<String>,
    /// `--recompute search|off`: `None` when absent (pre-PR9 behaviour).
    recompute: Option<RecomputeFlag>,
    /// `--mem-budget MB|device`: `None` when absent (unconstrained).
    mem_budget: Option<MemBudgetFlag>,
}

/// What `--param-sync` asked for.
#[derive(Clone, Copy)]
enum ParamSyncFlag {
    /// Open the sync axis to the optimizer without fixing a default.
    Search,
    /// Override every layer's default mode (the axis still opens under
    /// `search`; `simulate` applies it verbatim).
    Fixed(ParamSync),
}

/// What `--recompute` asked for.
#[derive(Clone, Copy, PartialEq)]
enum RecomputeFlag {
    /// Open the recomputation axis to the optimizer.
    Search,
    /// Keep the axis closed; under `simulate`, additionally strip any
    /// recompute bits the strategy file carries.
    Off,
}

/// What `--mem-budget` asked for.
#[derive(Clone, Copy)]
enum MemBudgetFlag {
    /// A uniform per-device budget in MB.
    UniformMb(u64),
    /// Each device kind's hardware default capacity.
    DeviceDefaults,
}

impl MemBudgetFlag {
    fn build(self, topo: &Topology) -> memory::MemBudget {
        match self {
            MemBudgetFlag::UniformMb(mb) => memory::MemBudget::uniform_mb(topo, mb),
            MemBudgetFlag::DeviceDefaults => memory::MemBudget::device_defaults(topo),
        }
    }
}

/// Bytes in binary MB, matching [`memory::OomViolation`]'s rendering.
fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1u64 << 20) as f64
}

/// The flags `search` reads. `parse` rejects any other flag, even one
/// another subcommand defines.
const SEARCH_FLAGS: &[&str] = &[
    "--gpus",
    "--cluster",
    "--evals",
    "--seed",
    "--out",
    "--chains",
    "--exchange-every",
    "--microbatches",
    "--param-sync",
    "--recompute",
    "--mem-budget",
    "--warm",
    "--verbose",
];
/// The flags `simulate` reads.
const SIMULATE_FLAGS: &[&str] = &[
    "--gpus",
    "--cluster",
    "--strategy",
    "--microbatches",
    "--param-sync",
    "--recompute",
    "--mem-budget",
];
/// The flags `baselines` reads.
const BASELINES_FLAGS: &[&str] = &["--gpus", "--cluster"];

fn parse(cmd: &str, flags: &[&str], args: &[String]) -> Option<Options> {
    let mut o = Options {
        model: args.first()?.clone(),
        gpus: 4,
        cluster: ClusterSpec::Flat(DeviceKind::P100),
        evals: 2000,
        seed: 42,
        out: None,
        strategy: None,
        verbose: false,
        chains: default_chains(),
        exchange_every: 256,
        microbatches: None,
        param_sync: None,
        warm: None,
        recompute: None,
        mem_budget: None,
    };
    let mut gpus_given = false;
    let mut rest = args[1..].iter();
    while let Some(key) = rest.next() {
        if !key.starts_with("--") {
            eprintln!("unexpected argument {key:?}");
            return None;
        }
        // A flag the subcommand does not read is a typo or a mistake the
        // run must not survive.
        if !flags.contains(&key.as_str()) {
            eprintln!("unknown flag {key:?} for {cmd}");
            return None;
        }
        if key == "--verbose" {
            o.verbose = true;
            continue;
        }
        // Every other flag takes a value.
        let mut value = || {
            let v = rest.next();
            if v.is_none() {
                eprintln!("{key} needs a value");
            }
            v
        };
        match key.as_str() {
            "--gpus" => {
                o.gpus = value()?.parse().ok()?;
                gpus_given = true;
            }
            "--cluster" => {
                o.cluster = match value()?.as_str() {
                    "p100" => ClusterSpec::Flat(DeviceKind::P100),
                    "k80" => ClusterSpec::Flat(DeviceKind::K80),
                    other => ClusterSpec::Preset(other.to_string()),
                }
            }
            "--evals" => o.evals = value()?.parse().ok()?,
            "--seed" => o.seed = value()?.parse().ok()?,
            "--chains" => {
                o.chains = value()?.parse().ok()?;
                if o.chains == 0 {
                    eprintln!("--chains must be at least 1");
                    return None;
                }
            }
            "--exchange-every" => o.exchange_every = value()?.parse().ok()?,
            "--microbatches" => {
                let m: u64 = value()?.parse().ok()?;
                if m == 0 {
                    eprintln!("--microbatches must be at least 1");
                    return None;
                }
                o.microbatches = Some(m);
            }
            "--param-sync" => {
                let v = value()?;
                o.param_sync = Some(if v == "search" {
                    ParamSyncFlag::Search
                } else {
                    match ParamSync::parse(v) {
                        Ok(mode) => ParamSyncFlag::Fixed(mode),
                        Err(e) => {
                            eprintln!("--param-sync: {e}");
                            return None;
                        }
                    }
                });
            }
            "--recompute" => {
                o.recompute = Some(match value()?.as_str() {
                    "search" => RecomputeFlag::Search,
                    "off" => RecomputeFlag::Off,
                    other => {
                        eprintln!("--recompute must be \"search\" or \"off\", got {other:?}");
                        return None;
                    }
                });
            }
            "--mem-budget" => {
                let v = value()?;
                o.mem_budget = Some(if v == "device" {
                    MemBudgetFlag::DeviceDefaults
                } else {
                    match v.parse::<u64>() {
                        Ok(mb) if mb >= 1 => MemBudgetFlag::UniformMb(mb),
                        _ => {
                            eprintln!(
                                "--mem-budget takes a size in MB (at least 1) or the word \
                                 \"device\", got {v:?}"
                            );
                            return None;
                        }
                    }
                });
            }
            "--out" => o.out = Some(value()?.clone()),
            "--strategy" => o.strategy = Some(value()?.clone()),
            "--warm" => o.warm = Some(value()?.clone()),
            _ => unreachable!("{key} is in a flag set but has no arm"),
        }
    }
    // Anything but a flat kind must be a hierarchical preset, which fixes
    // its own size; validate it now so a typo fails at the flag, not deep
    // inside a subcommand.
    if let ClusterSpec::Preset(name) = &o.cluster {
        let devices = match clusters::preset(name) {
            Ok(topo) => topo.num_devices(),
            Err(e) => {
                eprintln!("{e}");
                return None;
            }
        };
        if gpus_given {
            eprintln!(
                "--cluster {name} fixes the device count at {devices}; \
                 --gpus is contradictory next to a preset"
            );
            return None;
        }
        o.gpus = devices;
    }
    Some(o)
}

/// Builds the workload and the cluster, turning every sizing error
/// (ragged `--gpus`, zero devices, A100 without a preset) into a
/// printable message instead of a panic.
fn build(o: &Options) -> Result<(OpGraph, Topology), String> {
    let batch = if o.model == "alexnet" { 256 } else { 64 };
    let topo = match &o.cluster {
        ClusterSpec::Flat(kind) => clusters::try_paper_cluster(*kind, o.gpus)?,
        ClusterSpec::Preset(name) => clusters::preset(name)?,
    };
    Ok((zoo::by_name(&o.model, batch), topo))
}

/// Reads and imports a strategy file, turning every failure mode (I/O,
/// malformed JSON, shape/config mismatch) into a printable error.
fn load_strategy(path: &str, graph: &OpGraph, topo: &Topology) -> Result<Strategy, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let dump: strategy_io::StrategyDump =
        serde_json::from_str(&text).map_err(|e| format!("{path} is not a strategy file: {e}"))?;
    strategy_io::import(graph, topo, &dump).map_err(|e| e.to_string())
}

/// The `serve` subcommand: parses its own flag set and runs the daemon.
fn serve(args: &[String]) -> ExitCode {
    let mut workers = 2usize;
    let mut cache: Option<String> = None;
    let mut socket = "flexflow.sock".to_string();
    let mut tcp: Option<String> = None;
    let mut oneshot = false;
    let mut microbatches = 1u64;
    let mut shards = 8usize;
    let mut cache_entries: Option<usize> = None;
    let mut cache_bytes: Option<u64> = None;
    let mut max_conns = 64usize;
    let mut no_polish = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--oneshot" => {
                oneshot = true;
                i += 1;
            }
            "--no-polish" => {
                no_polish = true;
                i += 1;
            }
            key @ ("--workers" | "--cache" | "--socket" | "--tcp" | "--microbatches"
            | "--shards" | "--cache-entries" | "--cache-bytes" | "--max-conns") => {
                let Some(value) = args.get(i + 1) else {
                    eprintln!("{key} needs a value");
                    return ExitCode::from(2);
                };
                match key {
                    "--workers" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => workers = n,
                        _ => {
                            eprintln!("--workers must be a positive integer, got {value:?}");
                            return ExitCode::from(2);
                        }
                    },
                    "--cache" => cache = Some(value.clone()),
                    "--tcp" => tcp = Some(value.clone()),
                    // Same bounds as the protocol's "microbatches" field:
                    // an unbounded server-side floor would overflow the
                    // cache key's microbatch component and conflate
                    // distinct caps into one class.
                    "--microbatches" => match value.parse::<u64>() {
                        Ok(m)
                            if (1..=flexflow::server::protocol::MAX_MICROBATCHES).contains(&m) =>
                        {
                            microbatches = m;
                        }
                        _ => {
                            eprintln!(
                                "--microbatches must be in 1..={}, got {value:?}",
                                flexflow::server::protocol::MAX_MICROBATCHES
                            );
                            return ExitCode::from(2);
                        }
                    },
                    "--shards" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => shards = n,
                        _ => {
                            eprintln!("--shards must be a positive integer, got {value:?}");
                            return ExitCode::from(2);
                        }
                    },
                    "--cache-entries" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => cache_entries = Some(n),
                        _ => {
                            eprintln!("--cache-entries must be a positive integer, got {value:?}");
                            return ExitCode::from(2);
                        }
                    },
                    "--cache-bytes" => match value.parse::<u64>() {
                        Ok(n) if n >= 1 => cache_bytes = Some(n),
                        _ => {
                            eprintln!("--cache-bytes must be a positive integer, got {value:?}");
                            return ExitCode::from(2);
                        }
                    },
                    "--max-conns" => match value.parse::<usize>() {
                        Ok(n) if n >= 1 => max_conns = n,
                        _ => {
                            eprintln!("--max-conns must be a positive integer, got {value:?}");
                            return ExitCode::from(2);
                        }
                    },
                    _ => socket = value.clone(),
                }
                i += 2;
            }
            other => {
                eprintln!("unexpected argument {other:?}");
                return usage();
            }
        }
    }
    if tcp.is_some() && oneshot {
        eprintln!("--tcp and --oneshot are contradictory: pick one front end");
        return ExitCode::from(2);
    }
    let mut bounds = CacheBounds::unbounded();
    if let Some(n) = cache_entries {
        bounds.max_entries = n;
    }
    if let Some(b) = cache_bytes {
        bounds.max_bytes = b;
    }
    let mut builder = ServerHandle::builder()
        .workers(workers)
        .default_microbatches(microbatches)
        .shards(shards)
        .cache_bounds(bounds)
        .max_connections(max_conns);
    if let Some(path) = &cache {
        builder = builder.cache_path(path);
    }
    // The polish daemon spends idle worker cycles re-searching hot
    // entries; it only makes sense for a long-lived front end.
    if !oneshot && !no_polish {
        builder = builder.polish(flexflow::server::PolishConfig::default());
    }
    let mut handle = match &tcp {
        Some(addr) => {
            eprintln!("flexflow serve: listening on tcp {addr} ({workers} workers)");
            builder.tcp(addr.clone()).build()
        }
        None if !oneshot => {
            eprintln!("flexflow serve: listening on {socket} ({workers} workers)");
            builder.socket(&socket).build()
        }
        None => builder.build(),
    };
    let result = if oneshot {
        handle.run_batch(std::io::stdin().lock(), std::io::stdout().lock())
    } else {
        handle.run()
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("serve failed: {e}");
            ExitCode::FAILURE
        }
    }
}

fn report(label: &str, graph: &OpGraph, topo: &Topology, s: &Strategy) {
    let cost = MeasuredCostModel::paper_default();
    let tg = TaskGraph::build(graph, topo, s, &cost, &SimConfig::default());
    let state = simulate_full(&tg);
    let m = SimMetrics::collect(&tg, &state);
    let batch = graph.op(graph.ids().next().unwrap()).output_shape().dim(0);
    println!(
        "{label:<18} {:>10.2} ms/iter  {:>10.1} samples/s  {:>8.1} MB moved",
        m.makespan_us / 1e3,
        m.throughput(batch),
        m.total_comm_bytes() as f64 / 1e6
    );
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    match cmd.as_str() {
        "models" => {
            println!("{:<14} {:<55} {:<20}", "name", "description", "dataset");
            for m in zoo::model_metas() {
                println!("{:<14} {:<55} {:<20}", m.name, m.description, m.dataset);
            }
            ExitCode::SUCCESS
        }
        "search" => {
            let Some(o) = parse(cmd, SEARCH_FLAGS, &args[1..]) else {
                return usage();
            };
            let (graph, topo) = match build(&o) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("cannot build cluster: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cost = MeasuredCostModel::paper_default();
            let dp = Strategy::data_parallel(&graph, &topo);
            let ex = expert::strategy(&graph, &topo);
            let max_microbatches = o.microbatches.unwrap_or(1);
            if let Some(ParamSyncFlag::Fixed(ParamSync::ParamServer { server_device })) =
                o.param_sync
            {
                if server_device >= topo.num_devices() {
                    eprintln!(
                        "--param-sync ps:{server_device} names a device outside the \
                         {}-GPU cluster",
                        topo.num_devices()
                    );
                    return ExitCode::FAILURE;
                }
            }
            let recompute_axis = o.recompute == Some(RecomputeFlag::Search);
            let mem_budget = o.mem_budget.map(|f| f.build(&topo));
            println!(
                "searching {} on {} x {} ({} ops, {} evals, {} chains{}{}{}{})...",
                o.model,
                o.gpus,
                o.cluster.label(),
                graph.len(),
                o.evals,
                o.chains,
                if max_microbatches > 1 {
                    format!(", up to {max_microbatches} microbatches")
                } else {
                    String::new()
                },
                match o.param_sync {
                    None => String::new(),
                    Some(ParamSyncFlag::Search) => ", sync axis open".to_string(),
                    Some(ParamSyncFlag::Fixed(mode)) => format!(", sync axis open from {mode}"),
                },
                if recompute_axis {
                    ", recompute axis open"
                } else {
                    ""
                },
                match o.mem_budget {
                    None => String::new(),
                    Some(MemBudgetFlag::UniformMb(mb)) => format!(", {mb} MB budget/device"),
                    Some(MemBudgetFlag::DeviceDefaults) =>
                        ", device-default memory budgets".to_string(),
                }
            );
            // --warm replaces the default seeds entirely: the search never
            // returns worse than an initial candidate, so refining an
            // exported strategy (e.g. re-searching it with pipelining
            // enabled) is monotone by construction.
            let mut initials: Vec<Strategy> = match &o.warm {
                None => vec![dp.clone(), ex.clone()],
                Some(path) => match load_strategy(path, &graph, &topo) {
                    Ok(s) => vec![s],
                    Err(e) => {
                        eprintln!("cannot load warm-start strategy: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            // A concrete --param-sync mode overrides the default on every
            // initial candidate; the axis then stays open so the search
            // can still retune individual layers away from it.
            if let Some(ParamSyncFlag::Fixed(mode)) = o.param_sync {
                initials = initials
                    .into_iter()
                    .map(|s| s.with_param_sync_everywhere(mode))
                    .collect();
            }
            let param_sync_axis = o.param_sync.is_some();
            let budget = Budget::evaluations(o.evals);
            let r = SearchRequest::new(o.seed)
                .chains(o.chains)
                .exchange_every(o.exchange_every)
                .max_microbatches(max_microbatches)
                .param_sync(param_sync_axis)
                .recompute(recompute_axis)
                .mem_budget(mem_budget.clone())
                .run(
                    &graph,
                    &topo,
                    &cost,
                    &initials,
                    budget,
                    SimConfig::default(),
                );
            report("data parallelism", &graph, &topo, &dp);
            report("expert", &graph, &topo, &ex);
            report("flexflow", &graph, &topo, &r.best);
            if r.best.microbatches() > 1 {
                println!(
                    "pipeline: best strategy uses {} microbatches",
                    r.best.microbatches()
                );
            }
            if r.best.has_custom_param_sync() {
                println!("param-sync: best strategy departs from all-reduce");
            }
            if r.best.has_recompute() {
                println!(
                    "recompute: best strategy recomputes activations on {} ops",
                    r.best.recomputes().iter().filter(|&&on| on).count()
                );
            }
            let mut over_budget = false;
            if let Some(budget) = &mem_budget {
                let fp = memory::footprint(&graph, &topo, &r.best);
                let (dev, bytes) = fp.peak_with_state();
                println!(
                    "memory: peak device {dev} needs {:.1} MB (budget {:.1} MB)",
                    mib(bytes),
                    mib(budget.cap(topo.device_ids().nth(dev).expect("peak device exists")))
                );
                if let Some(v) = memory::budget_violation(&fp, &topo, budget) {
                    eprintln!("memory: no feasible strategy found — {v}");
                    over_budget = true;
                }
            }
            if o.verbose {
                let t = r.telemetry;
                println!(
                    "search: {} proposals in {:.2}s ({} accepted), best {:.3} ms/iter",
                    r.evals,
                    r.elapsed_seconds,
                    r.accepted,
                    r.best_cost_us / 1e3
                );
                println!(
                    "chains: {} (evals per chain: {})",
                    r.chain_evals.len(),
                    r.chain_evals
                        .iter()
                        .map(u64::to_string)
                        .collect::<Vec<_>>()
                        .join(", ")
                );
                println!(
                    "delta txn: {} applies, {} commits, {} rollbacks",
                    t.applies, t.commits, t.rollbacks
                );
                println!(
                    "delta sweep: {} sweeps, {} tasks dequeued ({:.1}/proposal)",
                    t.sweeps,
                    t.dequeued,
                    t.dequeued as f64 / t.applies.max(1) as f64
                );
                println!(
                    "undo journal: {} slots total ({:.1}/proposal), deepest {}",
                    t.journal_slots,
                    t.journal_slots as f64 / t.applies.max(1) as f64,
                    t.max_journal_depth
                );
            }
            if let Some(path) = o.out {
                let dump = strategy_io::export(&graph, &topo, &r.best);
                let json = serde_json::to_string_pretty(&dump).expect("serialize");
                if let Err(e) = std::fs::write(&path, json) {
                    eprintln!("cannot write strategy file {path}: {e}");
                    return ExitCode::FAILURE;
                }
                println!("strategy written to {path}");
            }
            if over_budget {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        "simulate" => {
            let Some(o) = parse(cmd, SIMULATE_FLAGS, &args[1..]) else {
                return usage();
            };
            let (graph, topo) = match build(&o) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("cannot build cluster: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let mut s = match &o.strategy {
                None => Strategy::data_parallel(&graph, &topo),
                // Strategy files are untrusted input: unreadable paths,
                // malformed JSON and illegal configurations must all exit
                // nonzero with a message, never panic.
                Some(path) => match load_strategy(path, &graph, &topo) {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("cannot load strategy: {e}");
                        return ExitCode::FAILURE;
                    }
                },
            };
            // An explicit --microbatches overrides whatever the strategy
            // (file) carries; absence leaves it untouched. The same
            // legality rule as strategy files and the search applies —
            // quoting a cost for a count the rest of the toolchain
            // rejects would be a trap.
            if let Some(m) = o.microbatches {
                if !flexflow::core::soap::legal_microbatch_counts(&graph, m).contains(&m) {
                    eprintln!(
                        "--microbatches {m} is invalid for {}: the count must divide \
                         the sample extent of every operation",
                        o.model
                    );
                    return ExitCode::FAILURE;
                }
                s.set_microbatches(m);
            }
            match o.param_sync {
                None => {}
                Some(ParamSyncFlag::Search) => {
                    eprintln!(
                        "--param-sync search only applies to the search subcommand; \
                         simulate needs a concrete mode (allreduce|zero1:K|ps:D)"
                    );
                    return ExitCode::FAILURE;
                }
                Some(ParamSyncFlag::Fixed(mode)) => {
                    if let ParamSync::ParamServer { server_device } = mode {
                        if server_device >= topo.num_devices() {
                            eprintln!(
                                "--param-sync ps:{server_device} names a device outside \
                                 the {}-GPU cluster",
                                topo.num_devices()
                            );
                            return ExitCode::FAILURE;
                        }
                    }
                    s = s.with_param_sync_everywhere(mode);
                }
            }
            match o.recompute {
                None => {}
                Some(RecomputeFlag::Search) => {
                    eprintln!(
                        "--recompute search only applies to the search subcommand; \
                         simulate takes \"off\" to strip a strategy file's recompute bits"
                    );
                    return ExitCode::FAILURE;
                }
                Some(RecomputeFlag::Off) => s = s.with_recompute_everywhere(false),
            }
            if let Some(budget) = o.mem_budget.map(|f| f.build(&topo)) {
                let fp = memory::footprint(&graph, &topo, &s);
                let (dev, bytes) = fp.peak_with_state();
                println!(
                    "memory: peak device {dev} needs {:.1} MB (budget {:.1} MB)",
                    mib(bytes),
                    mib(budget.cap(topo.device_ids().nth(dev).expect("peak device exists")))
                );
                if let Some(v) = memory::budget_violation(&fp, &topo, &budget) {
                    eprintln!("OOM: {v}");
                    return ExitCode::FAILURE;
                }
            }
            report("simulated", &graph, &topo, &s);
            ExitCode::SUCCESS
        }
        "baselines" => {
            let Some(o) = parse(cmd, BASELINES_FLAGS, &args[1..]) else {
                return usage();
            };
            let (graph, topo) = match build(&o) {
                Ok(pair) => pair,
                Err(e) => {
                    eprintln!("cannot build cluster: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let cost = MeasuredCostModel::paper_default();
            report(
                "data parallelism",
                &graph,
                &topo,
                &Strategy::data_parallel(&graph, &topo),
            );
            report(
                "model parallelism",
                &graph,
                &topo,
                &model_parallel(&graph, &topo, &cost),
            );
            report("expert", &graph, &topo, &expert::strategy(&graph, &topo));
            report(
                "optcnn",
                &graph,
                &topo,
                &optcnn::optimize(&graph, &topo, &cost).strategy,
            );
            ExitCode::SUCCESS
        }
        "serve" => serve(&args[1..]),
        _ => usage(),
    }
}
