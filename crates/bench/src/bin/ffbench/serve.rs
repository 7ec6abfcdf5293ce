//! The two serve workloads: the real `flexflow serve --tcp` daemon spoken
//! to over loopback, line-JSON, closed loop (a client sends its next
//! request when the previous answer is complete), and an in-process replay
//! of the same requests that times each layer from outside.

use crate::gen::{zipf_sequence, SplitMix64};
use crate::proc::{self, Guarded};
use crate::report::{Outcome, RunOpts};
use crate::stats::{mean, median, tail};
use crate::trace::Tracer;
use flexflow_core::sim::simulate_full;
use flexflow_core::strategy_io::{self, StrategyDump, StrategyRecord};
use flexflow_core::{SimConfig, TaskGraph};
use flexflow_costmodel::MeasuredCostModel;
use flexflow_device::{clusters, Topology};
use flexflow_opgraph::{graph_signature, zoo, OpGraph};
use flexflow_server::protocol::{parse_envelope, Request};
use flexflow_server::server::try_build_workload;
use flexflow_server::{
    CacheBounds, CacheEntry, ServerHandle, ShardedStore, StoreLookup, StrategyStore,
};
use serde::Deserialize;
use serde_json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// Client threads of `serve_hit`; the box this was sized on has 2 cores.
const HIT_CONNECTIONS: usize = 2;
/// A hit answered later than this counts as failed.
const HIT_DEADLINE: Duration = Duration::from_secs(5);
/// So does a request that may search.
const MISS_DEADLINE: Duration = Duration::from_secs(60);
/// `serve_churn` sends a fixed number of requests so its outcome counts
/// repeat exactly; this many per second of `--seconds` takes about that
/// long on the box it was sized on.
const CHURN_REQUESTS_PER_SECOND: f64 = 300.0;
/// Requests per daemon before `serve_churn` starts the next one on an
/// empty cache.
const CHURN_EPOCH_REQUESTS: usize = 750;
/// A cache for a third of the 24 keys. The daemon applies
/// `--cache-entries` to each shard, so up to 16 entries stay resident
/// when the keys fall evenly.
const CHURN_CACHE_ENTRIES: usize = 8;
const CHURN_SHARDS: usize = 2;
/// The search seed every request carries: the protocol's default. In the
/// serve workloads `--seed` draws the request sequence; what a given key's
/// search finds and costs is part of the workload, not of the draw.
const SEARCH_SEED: u64 = 42;

#[derive(Debug, Clone, Copy)]
struct Key {
    model: &'static str,
    gpus: usize,
    cluster: &'static str,
    evals: u64,
}

impl Key {
    /// The request line for this key at an evaluation budget.
    fn line(&self, evals: u64) -> String {
        format!(
            r#"{{"v":2,"verb":"search","model":"{}","gpus":{},"cluster":"{}","evals":{},"seed":{}}}"#,
            self.model, self.gpus, self.cluster, evals, SEARCH_SEED
        )
    }

    fn label(&self) -> String {
        format!("{}@{}x{}", self.model, self.gpus, self.cluster)
    }
}

/// Mixed graph sizes: the cost of a hit spans 20x between the smallest
/// and the largest of these.
fn hit_keys() -> Vec<Key> {
    [
        ("lenet", 2),
        ("alexnet", 4),
        ("inception_v3", 4),
        ("resnet101", 4),
        ("rnnlm", 4),
        ("nmt", 4),
    ]
    .into_iter()
    .map(|(model, gpus)| Key {
        model,
        gpus,
        cluster: "p100",
        evals: 200,
    })
    .collect()
}

/// 24 keys, three times `--cache-entries`, in popularity order: four
/// models on 2, 4 and 8 GPUs of either cluster kind, so a miss finds
/// either nothing (cold) or a sibling on the other cluster (warm). The
/// order is fixed and interleaves models and sizes, so every seed draws
/// from the same popularity-by-key distribution and only the sequence
/// differs.
fn churn_keys() -> Vec<Key> {
    let mut keys = Vec::new();
    for gpus in [4, 2, 8] {
        for cluster in ["p100", "k80"] {
            for model in ["lenet", "alexnet", "inception_v3", "rnnlm"] {
                keys.push(Key {
                    model,
                    gpus,
                    cluster,
                    evals: 100,
                });
            }
        }
    }
    keys
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Hit,
    Warm,
    Cold,
    Busy,
    Error,
}

const KINDS: [(Kind, &str); 5] = [
    (Kind::Hit, "hit"),
    (Kind::Warm, "warm"),
    (Kind::Cold, "cold"),
    (Kind::Busy, "busy"),
    (Kind::Error, "error"),
];

/// What the hot loop needs from a response line, without a JSON parse.
struct Answer<'a> {
    kind: Kind,
    evals: u64,
    /// The `"strategy":{...}` tail of the line.
    strategy: &'a str,
}

fn text_field<'a>(head: &'a str, key: &str) -> Option<&'a str> {
    let at = head.find(&format!("\"{key}\":\""))? + key.len() + 4;
    head[at..].split('"').next()
}

fn number_field(head: &str, key: &str) -> Option<u64> {
    let at = head.find(&format!("\"{key}\":"))? + key.len() + 3;
    let digits: String = head[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

fn parse_answer(line: &str) -> Answer<'_> {
    let split = line.find("\"strategy\":").unwrap_or(line.len());
    let (head, strategy) = line.split_at(split);
    let kind = match (text_field(head, "status"), text_field(head, "cache")) {
        (Some("ok"), Some("hit")) => Kind::Hit,
        (Some("ok"), Some("warm")) => Kind::Warm,
        (Some("ok"), Some("cold")) => Kind::Cold,
        (Some("busy"), _) => Kind::Busy,
        _ => Kind::Error,
    };
    Answer {
        kind,
        evals: number_field(head, "evals").unwrap_or(u64::MAX),
        strategy,
    }
}

/// One line-JSON connection with a deadline on every socket operation.
struct Client {
    stream: TcpStream,
    pending: Vec<u8>,
}

impl Client {
    fn new(stream: TcpStream) -> std::io::Result<Self> {
        // Without TCP_NODELAY a request line waits out Nagle's algorithm
        // and the delayed ACK: ~40 ms per round trip.
        stream.set_nodelay(true)?;
        Ok(Self {
            stream,
            pending: Vec::new(),
        })
    }

    /// Sends one request line and reads the whole answer line.
    fn request(&mut self, line: &str, allowed: Duration) -> Result<String, String> {
        let deadline = Instant::now() + allowed;
        self.stream
            .set_write_timeout(Some(allowed))
            .and_then(|()| self.stream.write_all(line.as_bytes()))
            .and_then(|()| self.stream.write_all(b"\n"))
            .map_err(|e| format!("send failed: {e}"))?;
        let mut chunk = [0u8; 65536];
        loop {
            if let Some(end) = self.pending.iter().position(|&b| b == b'\n') {
                let rest = self.pending.split_off(end + 1);
                let mut answer = std::mem::replace(&mut self.pending, rest);
                answer.pop();
                return String::from_utf8(answer).map_err(|e| format!("answer is not UTF-8: {e}"));
            }
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Err(format!("no answer within {allowed:?}"));
            }
            self.stream
                .set_read_timeout(Some(left))
                .map_err(|e| e.to_string())?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err("daemon closed the connection".into()),
                Ok(n) => self.pending.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("no answer within {allowed:?}: {e}")),
            }
        }
    }
}

/// A running `flexflow serve --tcp`; killed when dropped.
struct Daemon {
    child: Guarded,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts the daemon on a free loopback port chosen here and waits
    /// until it accepts a connection. Returns that first connection and
    /// the seconds from spawn to listening.
    fn start(opts: &RunOpts, extra: &[String]) -> Result<(Daemon, Client, f64), String> {
        let mut last = String::new();
        // The port is free when probed but only bound by the daemon a
        // moment later; on the rare collision, pick another.
        for _ in 0..3 {
            let port = TcpListener::bind("127.0.0.1:0")
                .and_then(|l| l.local_addr())
                .map_err(|e| format!("no free loopback port: {e}"))?
                .port();
            let addr = SocketAddr::from(([127, 0, 0, 1], port));
            let t0 = Instant::now();
            let child = Command::new(&opts.flexflow)
                .args(["serve", "--tcp", &addr.to_string()])
                .args(["--workers", "1", "--no-polish"])
                .args(extra)
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", opts.flexflow.display()))?;
            let mut child = Guarded(child);
            let deadline = t0 + Duration::from_secs(10);
            loop {
                if let Ok(stream) = TcpStream::connect_timeout(&addr, Duration::from_millis(200)) {
                    let listening_s = t0.elapsed().as_secs_f64();
                    let client = Client::new(stream).map_err(|e| e.to_string())?;
                    return Ok((Daemon { child, addr }, client, listening_s));
                }
                if matches!(child.0.try_wait(), Ok(Some(_))) {
                    last = format!("the daemon exited before listening on {addr}");
                    break;
                }
                if Instant::now() >= deadline {
                    last = format!("the daemon did not listen on {addr} within 10 s");
                    break;
                }
                std::thread::sleep(Duration::from_micros(500));
            }
        }
        Err(last)
    }

    fn connect(&self) -> Result<Client, String> {
        TcpStream::connect_timeout(&self.addr, Duration::from_secs(2))
            .and_then(Client::new)
            .map_err(|e| format!("cannot connect to {}: {e}", self.addr))
    }

    fn peak_rss_mb(&self) -> Option<f64> {
        proc::peak_rss_mb(self.child.pid())
    }

    /// Sends `shutdown` and waits for the process to flush and exit.
    /// Returns the milliseconds that took.
    fn shutdown(mut self, client: &mut Client) -> Result<f64, String> {
        let t0 = Instant::now();
        let answer = client.request(r#"{"v":2,"verb":"shutdown"}"#, HIT_DEADLINE)?;
        if !answer.contains("\"shutting_down\":true") {
            return Err(format!("shutdown answered {answer}"));
        }
        match self
            .child
            .wait_until(Instant::now() + Duration::from_secs(10))
        {
            Some(status) if status.success() => Ok(t0.elapsed().as_secs_f64() * 1e3),
            Some(status) => Err(format!("the daemon exited with {status}")),
            None => Err("the daemon did not exit within 10 s of shutdown and was killed".into()),
        }
    }
}

/// One timed request of the measured phase.
#[derive(Debug, Clone, Copy)]
struct Sample {
    key: usize,
    kind: Kind,
    sent: Instant,
    us: f64,
}

impl Sample {
    fn new(key: usize, kind: Kind, sent: Instant) -> Self {
        Self {
            key,
            kind,
            sent,
            us: sent.elapsed().as_secs_f64() * 1e6,
        }
    }

    fn record(&self, tracer: &mut Tracer) {
        let end = self.sent + Duration::from_secs_f64(self.us / 1e6);
        tracer.add("client.roundtrip", self.key as u64, self.sent, end);
    }
}

/// Counts of what the client saw, to hold against the daemon's `stats`.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Tally {
    requests: u64,
    /// Answers by [`Kind`], in declaration order.
    by_kind: [u64; 5],
}

impl Tally {
    fn add(&mut self, kind: Kind) {
        self.requests += 1;
        self.by_kind[kind as usize] += 1;
    }

    fn merge(&mut self, other: &Tally) {
        self.requests += other.requests;
        for (mine, theirs) in self.by_kind.iter_mut().zip(other.by_kind) {
            *mine += theirs;
        }
    }

    fn count(&self, kind: Kind) -> u64 {
        self.by_kind[kind as usize]
    }
}

/// Asks the daemon for `stats` and checks its counters against `tally`
/// (the daemon counts the `stats` request itself).
fn check_stats(client: &mut Client, tally: &Tally, out: &mut Outcome) -> Option<Value> {
    let answer = match client.request(r#"{"v":2,"verb":"stats"}"#, HIT_DEADLINE) {
        Ok(a) => a,
        Err(e) => {
            out.check(false, || format!("stats: {e}"));
            return None;
        }
    };
    let v: Value = serde_json::from_str(&answer).unwrap_or(Value::Null);
    let field = |k: &str| v.get_field(k).and_then(Value::as_u64);
    let theirs = (
        field("requests"),
        field("hits"),
        field("warm"),
        field("cold"),
        field("busy"),
        field("errors"),
    );
    let ours = (
        Some(tally.requests + 1),
        Some(tally.count(Kind::Hit)),
        Some(tally.count(Kind::Warm)),
        Some(tally.count(Kind::Cold)),
        Some(tally.count(Kind::Busy)),
        Some(tally.count(Kind::Error)),
    );
    out.check(theirs == ours, || {
        format!("stats counters (requests, hits, warm, cold, busy, errors) {theirs:?} differ from the client's {ours:?}")
    });
    Some(v)
}

/// The workload a key names and the store entry a search answered with
/// `answer` inserts for it (for a hit: the entry it was served from).
fn rebuild(key: &Key, answer: &str) -> Result<(OpGraph, Topology, CacheEntry), String> {
    let v: Value = serde_json::from_str(answer).map_err(|e| format!("answer is not JSON: {e}"))?;
    let Ok(Request::Search(req)) = parse_envelope(&key.line(key.evals)).map(|e| e.request) else {
        return Err("the request line does not parse as a search".into());
    };
    let (graph, topo) = try_build_workload(&req)?;
    let number = |k: &str| {
        v.get_field(k)
            .and_then(Value::as_u64)
            .ok_or(format!("answer has no {k}"))
    };
    let dump = v.get_field("strategy").ok_or("answer has no strategy")?;
    let entry = CacheEntry {
        budget_class: u32::try_from(number("budget_class")?).map_err(|e| e.to_string())?,
        model: key.model.to_string(),
        gpus: key.gpus,
        cluster: key.cluster.to_string(),
        record: StrategyRecord {
            version: strategy_io::FORMAT_VERSION,
            graph_sig: strategy_io::signature_hex(graph_signature(&graph)),
            topo_sig: strategy_io::signature_hex(topo.signature()),
            cost_us: v
                .get_field("cost_us")
                .and_then(Value::as_f64)
                .ok_or("answer has no cost_us")?,
            evals: number("cached_evals")?,
            dump: StrategyDump::deserialize_value(dump).map_err(|e| e.to_string())?,
        },
    };
    Ok((graph, topo, entry))
}

/// Re-derives a served strategy's cost: the answer must import against
/// the rebuilt workload and simulate to the cost it reports.
fn answer_defect(key: &Key, answer: &str) -> Result<f64, String> {
    let (graph, topo, entry) = rebuild(key, answer)?;
    let strategy = strategy_io::import_record(&graph, &topo, &entry.record)
        .map_err(|e| format!("does not import: {e}"))?;
    let cost = MeasuredCostModel::paper_default();
    let tg = TaskGraph::build(&graph, &topo, &strategy, &cost, &SimConfig::default());
    let (simulated, reported) = (simulate_full(&tg).makespan_us(), entry.record.cost_us);
    if simulated.to_bits() == reported.to_bits() {
        Ok(reported)
    } else {
        Err(format!(
            "reports {reported} us but simulates to {simulated} us"
        ))
    }
}

/// Checks each key's first answer with [`answer_defect`]; returns the
/// mean simulated cost in ms of those that hold.
fn check_first_answers<'a>(
    first: impl Iterator<Item = (&'a Key, &'a String)>,
    out: &mut Outcome,
) -> f64 {
    let mut costs_ms = Vec::new();
    for (key, answer) in first {
        match answer_defect(key, answer) {
            Ok(cost_us) => {
                out.check(true, String::new);
                costs_ms.push(cost_us / 1e3);
            }
            Err(e) => out.check(false, || format!("{}: {e}", key.label())),
        }
    }
    if costs_ms.is_empty() {
        0.0
    } else {
        mean(&costs_ms)
    }
}

/// Median latency in µs per key over the samples `pick` selects, for keys
/// with at least one such sample.
fn per_key_p50_us(
    samples: &[Sample],
    keys: usize,
    pick: impl Fn(&Sample) -> bool,
) -> Vec<(usize, f64)> {
    (0..keys)
        .filter_map(|k| {
            let us: Vec<f64> = samples
                .iter()
                .filter(|s| s.key == k && pick(s))
                .map(|s| s.us)
                .collect();
            (!us.is_empty()).then(|| (k, median(&us)))
        })
        .collect()
}

/// The end-to-end latency of a serve workload: the mean over keys of each
/// key's median. A plain median over all answers would sit in the gap
/// between a cheap and a costly model and jump between them run to run.
fn mean_of_key_medians_ms(per_key: &[(usize, f64)]) -> f64 {
    if per_key.is_empty() {
        return 0.0;
    }
    mean(&per_key.iter().map(|&(_, us)| us / 1e3).collect::<Vec<_>>())
}

fn latencies(samples: &[Sample], pick: impl Fn(&Sample) -> bool) -> Vec<f64> {
    samples.iter().filter(|s| pick(s)).map(|s| s.us).collect()
}

fn is_miss(s: &Sample) -> bool {
    matches!(s.kind, Kind::Warm | Kind::Cold)
}

fn cache_args(cache: &Path, bounded: bool) -> Vec<String> {
    let mut args = vec![
        "--cache".to_string(),
        cache.to_string_lossy().into_owned(),
        "--shards".to_string(),
        CHURN_SHARDS.to_string(),
    ];
    if bounded {
        args.push("--cache-entries".to_string());
        args.push(CHURN_CACHE_ENTRIES.to_string());
    }
    args
}

pub fn run(name: &str, traced: bool, opts: &RunOpts, out: &mut Outcome) {
    let dir = opts.scratch.join(format!("{name}-{}", std::process::id()));
    // The traced run spends half its time on the TCP reference phase and
    // the other half replaying it in process.
    let seconds = if traced {
        opts.seconds / 2.0
    } else {
        opts.seconds
    };
    let result = proc::fresh_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))
        .and_then(|()| match name {
            "serve_hit" => serve_hit(traced, seconds, opts, out),
            "serve_churn" => serve_churn(traced, seconds, opts, &dir, out),
            other => Err(format!("no workload called {other}")),
        });
    let _ = std::fs::remove_dir_all(&dir);
    // A daemon that would not start, wedged or refused is a failed
    // operation of the run, not a reason to hang or abort it.
    if let Err(e) = result {
        out.check(false, || format!("{name}: {e}"));
    }
}

/// The set-up of `serve_hit`, five times over: each filled daemon is shut
/// down before the next starts. Returns the last one, still up, its fill
/// answers and the median seconds of the five.
fn repeated_fill(
    opts: &RunOpts,
    keys: &[Key],
) -> Result<(Daemon, Client, Vec<String>, f64), String> {
    let mut seconds = Vec::new();
    let mut live = start_filled(opts, keys)?;
    for _ in 1..5 {
        seconds.push(live.3);
        Daemon::shutdown(live.0, &mut live.1)?;
        live = start_filled(opts, keys)?;
    }
    seconds.push(live.3);
    Ok((live.0, live.1, live.2, median(&seconds)))
}

/// Starts a daemon and fills it with every key, cold. Returns the fill
/// answers and the seconds from spawn to the last of them.
fn start_filled(
    opts: &RunOpts,
    keys: &[Key],
) -> Result<(Daemon, Client, Vec<String>, f64), String> {
    let t0 = Instant::now();
    let (daemon, mut client, _) = Daemon::start(opts, &[])?;
    let mut answers = Vec::new();
    for key in keys {
        answers.push(client.request(&key.line(key.evals), MISS_DEADLINE)?);
    }
    Ok((daemon, client, answers, t0.elapsed().as_secs_f64()))
}

/// What one client connection of `serve_hit` saw.
struct ClientLog {
    samples: Vec<Sample>,
    tally: Tally,
    defects: Vec<String>,
}

/// One closed-loop client: keys drawn uniformly from `seed` until `stop`,
/// each answer required to be a zero-evaluation hit serving the strategy
/// the fill stored.
fn hit_client(
    daemon: &Daemon,
    lines: &[String],
    fill: &[String],
    seed: u64,
    stop: Instant,
) -> Result<ClientLog, String> {
    let mut client = daemon.connect()?;
    let mut rng = SplitMix64::new(seed);
    let reference: Vec<&str> = fill.iter().map(|a| parse_answer(a).strategy).collect();
    let mut log = ClientLog {
        samples: Vec::new(),
        tally: Tally::default(),
        defects: Vec::new(),
    };
    while Instant::now() < stop {
        let key = rng.below(lines.len());
        let sent = Instant::now();
        let answer = match client.request(&lines[key], HIT_DEADLINE) {
            Ok(a) => a,
            Err(e) => {
                // The connection's framing is gone; stop this client.
                log.tally.add(Kind::Error);
                log.defects.push(e);
                break;
            }
        };
        let a = parse_answer(&answer);
        log.samples.push(Sample::new(key, a.kind, sent));
        log.tally.add(a.kind);
        let stored = a.strategy == reference[key];
        if a.kind != Kind::Hit || a.evals != 0 || !stored {
            log.defects.push(format!(
                "{:?} with {} evals{}",
                a.kind,
                a.evals,
                if stored {
                    ""
                } else {
                    " and another strategy than the fill's"
                }
            ));
        }
    }
    Ok(log)
}

fn serve_hit(traced: bool, seconds: f64, opts: &RunOpts, out: &mut Outcome) -> Result<(), String> {
    let keys = hit_keys();
    // Set-up is spawn -> listening -> cold fill done; the last daemon
    // serves the measured phase.
    let (daemon, mut control, fill, setup_s) = repeated_fill(opts, &keys)?;
    for (key, answer) in keys.iter().zip(&fill) {
        let kind = parse_answer(answer).kind;
        out.check(kind == Kind::Cold, || {
            format!("{}: the fill was answered {kind:?}, not cold", key.label())
        });
    }
    let lines: Vec<String> = keys.iter().map(|k| k.line(k.evals)).collect();

    // Measured phase: every request is a hit.
    let mut tracer = Tracer::new();
    let t0 = Instant::now();
    let stop = t0 + Duration::from_secs_f64(seconds);
    let logs: Vec<Result<ClientLog, String>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..HIT_CONNECTIONS as u64)
            .map(|conn| {
                let (daemon, lines, fill) = (&daemon, &lines, &fill);
                let seed = opts.seed.wrapping_mul(31).wrapping_add(conn);
                s.spawn(move || hit_client(daemon, lines, fill, seed, stop))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();

    let mut samples = Vec::new();
    let mut tally = Tally::default();
    for log in logs {
        let log = log?;
        out.attempted += log.tally.requests;
        for d in log.defects {
            out.fail(format!("serve_hit request: {d}"));
        }
        samples.extend(log.samples);
        tally.merge(&log.tally);
    }
    let mut all = tally;
    for _ in &keys {
        all.add(Kind::Cold);
    }
    let stats = check_stats(&mut control, &all, out);
    let peak = daemon.peak_rss_mb();
    let best_cost_ms = check_first_answers(keys.iter().zip(&fill), out);
    let flush_ms = Daemon::shutdown(daemon, &mut control)?;

    let hits = per_key_p50_us(&samples, keys.len(), |s| s.kind == Kind::Hit);
    println!(
        "serve_hit: {} requests over {HIT_CONNECTIONS} connections in {wall_s:.2}s",
        samples.len()
    );
    if !traced {
        out.set("setup_s", setup_s);
        out.set("work_per_s", samples.len() as f64 / wall_s);
        out.set("answer_ms", mean_of_key_medians_ms(&hits));
        out.set_measured("peak_rss_mb", peak);
        return Ok(());
    }

    let hit_us = latencies(&samples, |s| s.kind == Kind::Hit);
    if !hit_us.is_empty() {
        out.set("server.hit_p50_us", median(&hit_us));
        out.set("server.hit_tail_us", tail(&hit_us));
    }
    for &(k, us) in &hits {
        out.set(&format!("server.hit_p50_us.{}", keys[k].model), us);
    }
    let mut counters = DaemonCounters::default();
    if let Some(stats) = &stats {
        counters.add(stats);
    }
    set_outcome_counts(&tally, &counters, out);
    out.set("optimizer.best_cost_ms", best_cost_ms);
    out.set("store.flush_ms", flush_ms);

    // The same requests again, in process, one layer at a time.
    for s in &samples {
        s.record(&mut tracer);
    }
    let replay = samples.len().min(4000);
    let t_replay = Instant::now();
    let in_process = replay_hits(&keys, &lines, &fill, &samples[..replay], &mut tracer, out)?;
    let replay_s = t_replay.elapsed().as_secs_f64();
    let handle_us = median(&in_process);
    out.set("server.handle_hit_us", handle_us);
    // Weighted as the TCP median is: by the keys actually requested.
    out.set("server.frontend_us", median(&hit_us) - handle_us);
    out.set(
        "trace.overhead_pct",
        (replay_s / replay as f64 / (handle_us / 1e6) - 1.0) * 100.0,
    );
    finish_trace(&tracer, "serve_hit", opts);
    Ok(())
}

/// What the daemon's `stats` says its searches and store did, over the
/// daemons of a run.
#[derive(Debug, Default, Clone, Copy)]
struct DaemonCounters {
    evals_spent: u64,
    evictions: u64,
    /// Bytes resident in the last daemon's store.
    bytes: u64,
}

impl DaemonCounters {
    fn add(&mut self, stats: &Value) {
        let field = |k: &str| stats.get_field(k).and_then(Value::as_u64).unwrap_or(0);
        self.evals_spent += field("evals_spent");
        self.bytes = field("bytes");
        self.evictions += stats
            .get_field("shards")
            .and_then(Value::as_array)
            .map_or(0, |shards| {
                shards
                    .iter()
                    .filter_map(|s| s.get_field("evictions").and_then(Value::as_u64))
                    .sum()
            });
    }
}

fn set_outcome_counts(tally: &Tally, daemon: &DaemonCounters, out: &mut Outcome) {
    for (kind, name) in KINDS {
        out.set(&format!("server.outcomes.{name}"), tally.count(kind) as f64);
    }
    out.set("server.evals_spent", daemon.evals_spent as f64);
    out.set("store.bytes", daemon.bytes as f64);
    out.set("store.evictions", daemon.evictions as f64);
}

fn finish_trace(tracer: &Tracer, name: &str, opts: &RunOpts) {
    let file = opts.scratch.join(format!("trace-{name}.json"));
    if let Err(e) = tracer.write_chrome(&file) {
        eprintln!("cannot write {}: {e}", file.display());
    }
    println!("{name}: trace in {}", file.display());
    for (span, ns) in tracer.self_time_by_name() {
        println!("  self time {:<24} {:>10.1} ms", span, ns as f64 / 1e6);
    }
}

/// Replays hit requests in process: once through `handle_line` of a
/// `ServerHandle` holding the same entries, and once as the calls that
/// path makes, each under its own span. Returns the `handle_line` times
/// in µs.
fn replay_hits(
    keys: &[Key],
    lines: &[String],
    fill: &[String],
    samples: &[Sample],
    tracer: &mut Tracer,
    out: &mut Outcome,
) -> Result<Vec<f64>, String> {
    let handle = ServerHandle::builder().workers(1).build();
    let store = ShardedStore::in_memory(8, CacheBounds::unbounded());
    for ((key, line), answer) in keys.iter().zip(lines).zip(fill) {
        // Identical searches: the in-process fill lands on the very
        // strategies the daemon serves.
        let ours = handle.handle_line(line);
        if parse_answer(&ours).strategy != parse_answer(answer).strategy {
            out.fail(format!(
                "{}: in-process fill found another strategy than the daemon's",
                key.label()
            ));
        }
        store.insert(rebuild(key, answer)?.2);
    }
    let mut record_bytes = Vec::new();
    let mut handle_us = Vec::new();
    for (i, s) in samples.iter().enumerate() {
        let (request, line) = (i as u64, &lines[s.key]);
        let t0 = Instant::now();
        let answer = tracer.leaf("server.handle_line", request, || handle.handle_line(line));
        handle_us.push(t0.elapsed().as_secs_f64() * 1e6);
        if parse_answer(&answer).kind != Kind::Hit {
            out.fail(format!(
                "{}: in-process replay was not a hit",
                keys[s.key].label()
            ));
        }

        let root = tracer.open("request", request);
        let envelope = tracer.leaf("protocol.parse", request, || parse_envelope(line));
        let Ok(Request::Search(req)) = envelope.map(|e| e.request) else {
            return Err(format!("{line} does not parse as a search"));
        };
        let batch = if req.model == "alexnet" { 256 } else { 64 };
        let graph = tracer.leaf("opgraph.build", request, || zoo::by_name(&req.model, batch));
        let topo = tracer.leaf("device.topology_build", request, || {
            clusters::paper_cluster(req.cluster, req.gpus)
        });
        let graph_sig = tracer.leaf("opgraph.signature", request, || graph_signature(&graph));
        let topo_sig = tracer.leaf("device.signature", request, || topo.signature());
        let class = number_field(&answer, "budget_class").unwrap_or(0) as u32;
        let found = tracer.leaf("store.lookup", request, || {
            store.lookup(graph_sig, topo_sig, class)
        });
        let StoreLookup::Hit { entry, .. } = found else {
            return Err(format!(
                "{}: the bench-owned store misses",
                keys[s.key].label()
            ));
        };
        let strategy = tracer
            .leaf("strategy_io.import", request, || {
                strategy_io::import_record(&graph, &topo, &entry.record)
            })
            .map_err(|e| e.to_string())?;
        let record = tracer.leaf("strategy_io.export", request, || {
            strategy_io::export_record(
                &graph,
                &topo,
                &strategy,
                entry.record.cost_us,
                entry.record.evals,
            )
        });
        tracer.close(root);
        if i < keys.len() * 4 {
            record_bytes.push(serde_json::to_string(&record).map_or(0, |s| s.len()) as f64);
        }
    }
    for (metric, span) in [
        ("protocol.parse_us", "protocol.parse"),
        ("opgraph.build_us", "opgraph.build"),
        ("device.topology_build_us", "device.topology_build"),
        ("opgraph.signature_us", "opgraph.signature"),
        ("device.signature_us", "device.signature"),
        ("store.lookup_us", "store.lookup"),
        ("strategy_io.import_us", "strategy_io.import"),
        ("strategy_io.export_us", "strategy_io.export"),
    ] {
        out.set_if_called(metric, tracer.median_us(span));
    }
    out.set("strategy_io.record_bytes", median(&record_bytes));
    Ok(handle_us)
}

fn serve_churn(
    traced: bool,
    seconds: f64,
    opts: &RunOpts,
    dir: &Path,
    out: &mut Outcome,
) -> Result<(), String> {
    let keys = churn_keys();
    // Epochs of a fixed population of request traces, numbered from 0,
    // played in an order `--seed` shuffles; each starts a daemon on an
    // empty cache. What a miss costs depends on which sibling entry is
    // resident to warm-start from, and the first misses decide what every
    // later one finds: runs over freshly drawn sequences of this length
    // differed by a quarter in throughput.
    let epochs = ((seconds * CHURN_REQUESTS_PER_SECOND) as usize / CHURN_EPOCH_REQUESTS).max(1);
    let mut order: Vec<u64> = (0..epochs as u64).collect();
    SplitMix64::new(opts.seed).shuffle(&mut order);
    let traces: Vec<Vec<usize>> = order
        .iter()
        .map(|&trace| zipf_sequence(trace, keys.len(), 1.0, CHURN_EPOCH_REQUESTS))
        .collect();
    let count = epochs * CHURN_EPOCH_REQUESTS;
    let lines: Vec<String> = keys.iter().map(|k| k.line(k.evals)).collect();

    // Measured phase: one connection, so LRU order and outcome counts
    // repeat exactly for a seed.
    let mut tracer = Tracer::new();
    let mut samples = Vec::with_capacity(count);
    let mut tally = Tally::default();
    let mut counters = DaemonCounters::default();
    let mut setup_s = Vec::new();
    let mut peak: Option<f64> = Some(0.0);
    let mut first: Vec<Option<String>> = vec![None; keys.len()];
    let mut served: Vec<Option<String>> = Vec::new();
    let mut miss_answers: Vec<(usize, String)> = Vec::new();
    let mut wall_s = 0.0;
    let mut last = None;
    for (epoch, requests) in traces.iter().enumerate() {
        let cache = dir.join(format!("cache-{epoch}.json"));
        // Set-up is spawn -> listening on an empty cache; there is no
        // fill, the workload itself is the fill.
        let (daemon, mut client, listening_s) = Daemon::start(opts, &cache_args(&cache, true))?;
        setup_s.push(listening_s);
        served = vec![None; keys.len()];
        let mut epoch_tally = Tally::default();
        let t0 = Instant::now();
        for &key in requests {
            let sent = Instant::now();
            let answer = client.request(&lines[key], MISS_DEADLINE)?;
            let a = parse_answer(&answer);
            samples.push(Sample::new(key, a.kind, sent));
            epoch_tally.add(a.kind);
            out.attempted += 1;
            match a.kind {
                Kind::Hit => {
                    // A hit serves what the key's last search stored.
                    if a.evals != 0 || served[key].as_deref() != Some(a.strategy) {
                        out.fail(format!(
                            "{}: hit with {} evals and {} strategy",
                            keys[key].label(),
                            a.evals,
                            if served[key].as_deref() == Some(a.strategy) {
                                "the stored"
                            } else {
                                "another"
                            }
                        ));
                    }
                }
                Kind::Warm | Kind::Cold => {
                    served[key] = Some(a.strategy.to_string());
                    if traced {
                        miss_answers.push((key, answer.clone()));
                    }
                }
                Kind::Busy | Kind::Error => {
                    out.fail(format!("{}: answered {:?}", keys[key].label(), a.kind))
                }
            }
            if first[key].is_none() {
                first[key] = Some(answer);
            }
        }
        wall_s += t0.elapsed().as_secs_f64();
        let stats = check_stats(&mut client, &epoch_tally, out);
        if let Some(stats) = &stats {
            counters.add(stats);
        }
        tally.merge(&epoch_tally);
        peak = peak.zip(daemon.peak_rss_mb()).map(|(a, b)| a.max(b));
        let flush_ms = Daemon::shutdown(daemon, &mut client)?;
        last = Some((cache, stats, flush_ms));
    }
    let (cache, stats, flush_ms) = last.ok_or("no requests to send")?;
    let resident = stats
        .as_ref()
        .and_then(|s| s.get_field("entries"))
        .and_then(Value::as_u64)
        .unwrap_or(0);

    // Restart on the last epoch's cache files, unbounded so probing cannot
    // evict, and ask for every key at one evaluation: an entry that
    // survived the restart answers `hit` (it was searched harder than
    // that), the rest search for a moment.
    let (daemon, mut client, reload_s) = Daemon::start(opts, &cache_args(&cache, false))?;
    let mut reloaded = 0u64;
    for (key, served) in keys.iter().zip(&served) {
        let answer = client.request(&key.line(1), MISS_DEADLINE)?;
        let a = parse_answer(&answer);
        if a.kind == Kind::Hit {
            reloaded += 1;
            out.check(served.as_deref() == Some(a.strategy), || {
                format!(
                    "{}: the reloaded entry is not the strategy last stored",
                    key.label()
                )
            });
        }
    }
    out.check(reloaded == resident && resident > 0, || {
        format!("{resident} entries were resident at shutdown, {reloaded} answered hit after the restart")
    });
    Daemon::shutdown(daemon, &mut client)?;

    let answered = keys.iter().zip(&first);
    let best_cost_ms =
        check_first_answers(answered.filter_map(|(k, a)| Some((k, a.as_ref()?))), out);
    let misses = per_key_p50_us(&samples, keys.len(), is_miss);
    println!(
        "serve_churn: {count} requests over {epochs} fresh caches in {wall_s:.2}s: {} hit, {} warm, {} cold; {resident} resident at the end, {reloaded} reloaded",
        tally.count(Kind::Hit),
        tally.count(Kind::Warm),
        tally.count(Kind::Cold)
    );
    for &(k, us) in &misses {
        let n = samples.iter().filter(|s| s.key == k && is_miss(s)).count();
        println!(
            "  {:<22} {n:>5} misses, median {:>8.3} ms",
            keys[k].label(),
            us / 1e3
        );
    }
    if !traced {
        out.set("setup_s", median(&setup_s));
        out.set("work_per_s", count as f64 / wall_s);
        out.set("answer_ms", mean_of_key_medians_ms(&misses));
        out.set_measured("peak_rss_mb", peak);
        return Ok(());
    }

    let hit_us = latencies(&samples, |s| s.kind == Kind::Hit);
    let miss_us = latencies(&samples, is_miss);
    if !hit_us.is_empty() {
        out.set("server.hit_p50_us", median(&hit_us));
        out.set("server.hit_tail_us", tail(&hit_us));
    }
    if !miss_us.is_empty() {
        out.set("server.miss_p50_ms", median(&miss_us) / 1e3);
    }
    set_outcome_counts(&tally, &counters, out);
    out.set("optimizer.best_cost_ms", best_cost_ms);
    out.set("store.flush_ms", flush_ms);
    out.set("store.reload_ms", reload_s * 1e3);
    out.set(
        "store.reload_ok_share",
        reloaded as f64 / resident.max(1) as f64,
    );

    // The same epochs again through in-process servers with the same
    // cache shape: what a miss costs without socket, queue and worker
    // hand-over.
    for s in &samples {
        s.record(&mut tracer);
    }
    let mut replay_tally = Tally::default();
    let mut in_process_miss_us = Vec::new();
    let t_replay = Instant::now();
    for (epoch, requests) in traces.iter().enumerate() {
        let handle = ServerHandle::builder()
            .workers(1)
            .shards(CHURN_SHARDS)
            .cache_bounds(CacheBounds::entries(CHURN_CACHE_ENTRIES))
            .cache_path(dir.join(format!("replay-cache-{epoch}.json")))
            .build();
        for &key in requests {
            let request = replay_tally.requests;
            let t0 = Instant::now();
            let answer = tracer.leaf("server.handle_line", request, || {
                handle.handle_line(&lines[key])
            });
            let us = t0.elapsed().as_secs_f64() * 1e6;
            let kind = parse_answer(&answer).kind;
            replay_tally.add(kind);
            if matches!(kind, Kind::Warm | Kind::Cold) {
                in_process_miss_us.push(us);
            }
        }
    }
    let replay_s = t_replay.elapsed().as_secs_f64();
    out.check(replay_tally == tally, || {
        format!("the in-process replay saw {replay_tally:?}, the daemon's client {tally:?}")
    });
    if !in_process_miss_us.is_empty() && !miss_us.is_empty() {
        out.set(
            "server.miss_overhead_ms",
            (median(&miss_us) - median(&in_process_miss_us)) / 1e3,
        );
    }
    out.set("trace.overhead_pct", (replay_s / wall_s - 1.0) * 100.0);

    // Store writes from outside: the entries the misses produced, into a
    // bench-owned store of the daemon's shape and on disk like it.
    let store = ShardedStore::open(
        &dir.join("insert-cache.json"),
        CHURN_SHARDS,
        CacheBounds::entries(CHURN_CACHE_ENTRIES),
    )?;
    for (i, (key, answer)) in miss_answers.iter().enumerate() {
        let entry = rebuild(&keys[*key], answer)?.2;
        if i == 0 {
            out.set(
                "strategy_io.record_bytes",
                serde_json::to_string(&entry.record).map_or(0, |s| s.len()) as f64,
            );
        }
        tracer.leaf("store.insert", i as u64, || store.insert(entry));
    }
    out.set_if_called("store.insert_us", tracer.median_us("store.insert"));
    finish_trace(&tracer, "serve_churn", opts);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const HIT: &str = r#"{"v":2,"status":"ok","cache":"hit","model":"lenet","gpus":2,"cluster":"p100","budget_class":8,"microbatches":1,"param_sync":false,"recompute":false,"cost_us":812.5,"evals":0,"cached_evals":214,"strategy":{"model":"lenet","ops":[]}}"#;

    #[test]
    fn answers_are_classified_without_a_json_parse() {
        let a = parse_answer(HIT);
        assert_eq!((a.kind, a.evals), (Kind::Hit, 0));
        assert_eq!(a.strategy, r#""strategy":{"model":"lenet","ops":[]}}"#);
        assert_eq!(number_field(HIT, "budget_class"), Some(8));
        // `cached_evals` must not be read as `evals`.
        assert_eq!(number_field(HIT, "cached_evals"), Some(214));

        let cold = HIT
            .replace(r#""cache":"hit""#, r#""cache":"cold""#)
            .replace(r#""evals":0"#, r#""evals":214"#);
        let a = parse_answer(&cold);
        assert_eq!((a.kind, a.evals), (Kind::Cold, 214));
        assert_eq!(
            parse_answer(r#"{"status":"busy","error":"job queue full"}"#).kind,
            Kind::Busy
        );
        assert_eq!(
            parse_answer(r#"{"status":"error","error":"unknown model"}"#).kind,
            Kind::Error
        );
        assert_eq!(parse_answer("garbage").kind, Kind::Error);
    }

    #[test]
    fn request_lines_parse_as_the_searches_they_name() {
        for key in hit_keys().iter().chain(&churn_keys()) {
            let Ok(Request::Search(req)) = parse_envelope(&key.line(key.evals)).map(|e| e.request)
            else {
                panic!("{} does not parse", key.label());
            };
            assert_eq!(
                (req.model.as_str(), req.gpus, req.evals, req.seed),
                (key.model, key.gpus, key.evals, SEARCH_SEED)
            );
            assert!(try_build_workload(&req).is_ok(), "{}", key.label());
        }
        assert_eq!(churn_keys().len(), 3 * CHURN_CACHE_ENTRIES);
    }

    #[test]
    fn serve_latency_weighs_every_key_once() {
        let sent = Instant::now();
        let sample = |key, us| Sample {
            key,
            kind: Kind::Hit,
            sent,
            us,
        };
        // Key 0 answers in 50 us and is asked three times as often as key
        // 1, which takes 1000 us: the plain median would hide key 1.
        let samples = [
            sample(0, 40.0),
            sample(0, 50.0),
            sample(0, 60.0),
            sample(1, 1000.0),
        ];
        let per_key = per_key_p50_us(&samples, 3, |s| s.kind == Kind::Hit);
        assert_eq!(per_key, vec![(0, 50.0), (1, 1000.0)]);
        assert_eq!(mean_of_key_medians_ms(&per_key), 0.525);
    }
}
