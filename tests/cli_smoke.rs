//! Smoke tests for the `flexflow` CLI binary: every subcommand must exit 0
//! and emit parseable output from a clean checkout (fast settings only).

use std::path::Path;
use std::process::{Command, Output};

fn flexflow(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_flexflow"))
        .args(args)
        .output()
        .expect("spawn flexflow binary")
}

fn stdout_of(out: &Output) -> String {
    assert!(
        out.status.success(),
        "flexflow exited with {:?}\nstdout:\n{}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stdout),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone()).expect("stdout is UTF-8")
}

/// Extracts the `samples/s` figure from a strategy report line.
fn parse_throughput(line: &str) -> f64 {
    let head = line
        .split("samples/s")
        .next()
        .unwrap_or_else(|| panic!("no samples/s in line: {line}"));
    head.split_whitespace()
        .next_back()
        .and_then(|tok| tok.parse::<f64>().ok())
        .unwrap_or_else(|| panic!("unparseable throughput in line: {line}"))
}

#[test]
fn models_lists_the_zoo() {
    let out = stdout_of(&flexflow(&["models"]));
    for model in [
        "alexnet",
        "inception_v3",
        "resnet101",
        "rnnlm",
        "nmt",
        "lenet",
    ] {
        assert!(out.contains(model), "models output missing {model}:\n{out}");
    }
}

#[test]
fn search_reports_contenders_and_saves_a_loadable_strategy() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-smoke-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let strategy_path = dir.join("lenet.strategy.json");
    let out = stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "50",
        "--seed",
        "7",
        "--out",
        strategy_path.to_str().unwrap(),
    ]));
    let ff_line = out
        .lines()
        .find(|l| l.starts_with("flexflow"))
        .unwrap_or_else(|| panic!("no flexflow result line:\n{out}"));
    assert!(parse_throughput(ff_line) > 0.0);

    // The emitted artifact is valid JSON that imports against the graph.
    assert!(
        Path::new(&strategy_path).exists(),
        "strategy file not written"
    );
    let text = std::fs::read_to_string(&strategy_path).expect("read strategy file");
    let dump: flexflow::core::strategy_io::StrategyDump =
        serde_json::from_str(&text).expect("strategy file is valid JSON");
    assert_eq!(dump.model, "lenet");
    assert!(!dump.ops.is_empty());

    // And `simulate --strategy` accepts it.
    let sim = stdout_of(&flexflow(&[
        "simulate",
        "lenet",
        "--strategy",
        strategy_path.to_str().unwrap(),
    ]));
    let sim_line = sim
        .lines()
        .find(|l| l.starts_with("simulated"))
        .unwrap_or_else(|| panic!("no simulated line:\n{sim}"));
    assert!(parse_throughput(sim_line) > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_reports_data_parallel_by_default() {
    let out = stdout_of(&flexflow(&["simulate", "lenet"]));
    let line = out
        .lines()
        .find(|l| l.starts_with("simulated"))
        .unwrap_or_else(|| panic!("no simulated line:\n{out}"));
    assert!(parse_throughput(line) > 0.0);
    assert!(line.contains("ms/iter"), "missing ms/iter in: {line}");
}

#[test]
fn baselines_reports_all_four() {
    let out = stdout_of(&flexflow(&["baselines", "lenet"]));
    for name in ["data parallelism", "model parallelism", "expert", "optcnn"] {
        assert!(
            out.lines().any(|l| l.starts_with(name)),
            "baselines output missing {name:?}:\n{out}"
        );
    }
}

#[test]
fn search_verbose_prints_delta_telemetry() {
    let out = stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "40",
        "--seed",
        "3",
        "--verbose",
    ]));
    for marker in ["delta txn:", "delta sweep:", "undo journal:"] {
        assert!(
            out.lines().any(|l| l.starts_with(marker)),
            "--verbose output missing {marker:?}:\n{out}"
        );
    }
    // The transactional walk must actually commit and roll back.
    let txn_line = out
        .lines()
        .find(|l| l.starts_with("delta txn:"))
        .expect("telemetry line");
    assert!(
        txn_line.contains("applies") && txn_line.contains("rollbacks"),
        "unexpected telemetry line: {txn_line}"
    );
}

#[test]
fn search_chains_is_deterministic_and_one_chain_ignores_the_exchange() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-chains-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();
    let search = |extra: &[&str], out: &str| {
        let mut args = vec!["search", "lenet", "--evals", "60", "--seed", "9"];
        args.extend_from_slice(extra);
        args.extend_from_slice(&["--out", out]);
        stdout_of(&flexflow(&args));
        std::fs::read_to_string(out).expect("read exported strategy")
    };

    // Fixed (seed, chains) => bit-identical exported strategy.
    let a = search(
        &["--chains", "3", "--exchange-every", "16"],
        &path("a.json"),
    );
    let b = search(
        &["--chains", "3", "--exchange-every", "16"],
        &path("b.json"),
    );
    assert_eq!(a, b, "--chains 3 must be deterministic for a fixed seed");

    // One chain has nobody to exchange with: the period must not matter.
    let one = search(&["--chains", "1"], &path("one.json"));
    let off = search(
        &["--chains", "1", "--exchange-every", "0"],
        &path("off.json"),
    );
    assert_eq!(one, off, "--chains 1 must not depend on --exchange-every");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn search_verbose_reports_per_chain_evals() {
    let out = stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "40",
        "--seed",
        "5",
        "--chains",
        "2",
        "--verbose",
    ]));
    let line = out
        .lines()
        .find(|l| l.starts_with("chains:"))
        .unwrap_or_else(|| panic!("no chains line in --verbose output:\n{out}"));
    assert!(
        line.contains("2 (evals per chain"),
        "unexpected chains line: {line}"
    );
}

#[test]
fn bad_usage_exits_nonzero() {
    let out = flexflow(&["frobnicate"]);
    assert!(!out.status.success(), "unknown subcommand must fail");
    let out = flexflow(&[]);
    assert!(!out.status.success(), "empty invocation must fail");
    let out = flexflow(&["search", "lenet", "--chains", "0"]);
    assert!(!out.status.success(), "--chains 0 must be rejected");
}

#[test]
fn malformed_strategy_files_exit_nonzero_with_a_message() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-badjson-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = |name: &str| dir.join(name).to_str().unwrap().to_string();

    // Not JSON at all.
    let garbled = path("garbled.json");
    std::fs::write(&garbled, "{ this is not json").unwrap();
    let out = flexflow(&["simulate", "lenet", "--strategy", &garbled]);
    assert!(!out.status.success(), "malformed JSON must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("not a strategy file"),
        "stderr should explain the parse failure:\n{stderr}"
    );

    // Valid JSON, wrong shape.
    let shaped = path("wrong-shape.json");
    std::fs::write(&shaped, r#"{"model":"lenet","num_devices":4}"#).unwrap();
    let out = flexflow(&["simulate", "lenet", "--strategy", &shaped]);
    assert!(!out.status.success(), "non-dump JSON must exit nonzero");

    // A structurally valid dump with an illegal degree vector: the
    // importer must reject it with an error, not panic.
    let valid = path("valid.json");
    stdout_of(&flexflow(&[
        "search", "lenet", "--evals", "5", "--seed", "1", "--out", &valid,
    ]));
    let corrupted = std::fs::read_to_string(&valid).unwrap().replacen(
        "\"degrees\": [",
        "\"degrees\": [63, ",
        1,
    );
    let bad_degrees = path("bad-degrees.json");
    std::fs::write(&bad_degrees, corrupted).unwrap();
    let out = flexflow(&["simulate", "lenet", "--strategy", &bad_degrees]);
    assert!(!out.status.success(), "illegal dump must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("cannot load strategy"),
        "stderr should name the import failure:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be an error, not a panic:\n{stderr}"
    );

    // Missing file.
    let out = flexflow(&["simulate", "lenet", "--strategy", &path("nope.json")]);
    assert!(!out.status.success(), "missing file must exit nonzero");

    std::fs::remove_dir_all(&dir).ok();
}

/// Runs `flexflow serve --oneshot --workers 1` over the given request
/// lines and returns one response line per request.
fn serve_oneshot(extra_args: &[&str], requests: &str) -> Vec<String> {
    use std::io::Write;
    let mut args = vec!["serve", "--oneshot", "--workers", "1"];
    args.extend_from_slice(extra_args);
    let mut child = Command::new(env!("CARGO_BIN_EXE_flexflow"))
        .args(&args)
        .stdin(std::process::Stdio::piped())
        .stdout(std::process::Stdio::piped())
        .stderr(std::process::Stdio::piped())
        .spawn()
        .expect("spawn flexflow serve");
    child
        .stdin
        .take()
        .expect("stdin piped")
        .write_all(requests.as_bytes())
        .expect("write requests");
    let out = child.wait_with_output().expect("collect serve output");
    assert!(
        out.status.success(),
        "serve exited with {:?}\nstderr:\n{}",
        out.status.code(),
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout.clone())
        .expect("serve output is UTF-8")
        .lines()
        .map(str::to_string)
        .collect()
}

#[test]
fn serve_oneshot_answers_hit_warm_cold_and_errors_in_band() {
    let requests = concat!(
        r#"{"model":"lenet","gpus":2,"evals":40,"seed":5}"#,
        "\n", // cold
        r#"{"model":"lenet","gpus":2,"evals":40,"seed":5}"#,
        "\n", // hit
        r#"{"model":"lenet","gpus":2,"evals":300,"seed":5}"#,
        "\n", // warm: bigger budget
        r#"{"model":"lenet","gpus":4,"evals":40,"seed":5}"#,
        "\n", // warm: other topology
        r#"{"model":"made-up"}"#,
        "\n", // in-band error
        r#"{"cmd":"stats"}"#,
        "\n",
    );
    let lines = serve_oneshot(&[], requests);
    assert_eq!(lines.len(), 6, "one response per request:\n{lines:#?}");
    for (i, expected) in [
        r#""cache":"cold""#,
        r#""cache":"hit""#,
        r#""cache":"warm""#,
        r#""cache":"warm""#,
        r#""status":"error""#,
    ]
    .iter()
    .enumerate()
    {
        assert!(
            lines[i].contains(expected),
            "response {i} should contain {expected}:\n{}",
            lines[i]
        );
    }
    // The hit answers without any simulator evaluations and repeats the
    // cold answer's cost verbatim.
    assert!(lines[1].contains(r#""evals":0"#), "{}", lines[1]);
    let cost = |line: &str| {
        line.split(r#""cost_us":"#)
            .nth(1)
            .and_then(|s| s.split(',').next())
            .map(str::to_string)
            .unwrap_or_else(|| panic!("no cost_us in {line}"))
    };
    assert_eq!(cost(&lines[0]), cost(&lines[1]));
    assert!(
        lines[5].contains(r#""hits":1"#) && lines[5].contains(r#""warm":2"#),
        "stats should reflect the traffic: {}",
        lines[5]
    );
}

#[test]
fn serve_cache_file_survives_restarts() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-serve-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let cache = dir.join("strategies.json");
    let cache_arg = cache.to_str().unwrap();
    let req = concat!(r#"{"model":"lenet","gpus":2,"evals":40,"seed":5}"#, "\n");

    let first = serve_oneshot(&["--cache", cache_arg], req);
    assert!(first[0].contains(r#""cache":"cold""#), "{}", first[0]);
    // The sharded store persists to sibling `.shard-NN` files.
    let shard_written = std::fs::read_dir(&dir).unwrap().flatten().any(|e| {
        e.file_name()
            .to_string_lossy()
            .contains("strategies.json.shard-")
    });
    assert!(shard_written, "cache shard file must be written");

    // A fresh process answers the identical request from disk.
    let second = serve_oneshot(&["--cache", cache_arg], req);
    assert!(second[0].contains(r#""cache":"hit""#), "{}", second[0]);
    assert!(second[0].contains(r#""evals":0"#), "{}", second[0]);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn serve_rejects_bad_flags() {
    let out = flexflow(&["serve", "--workers", "0"]);
    assert!(!out.status.success(), "--workers 0 must be rejected");
    let out = flexflow(&["serve", "--frobnicate"]);
    assert!(!out.status.success(), "unknown serve flag must be rejected");
    let out = flexflow(&["serve", "--cache"]);
    assert!(!out.status.success(), "--cache without a value must fail");
}

#[test]
fn unknown_and_value_less_flags_are_rejected_with_usage() {
    // A flag the CLI does not define must stop the run: a misspelt
    // --evals used to search with the default 2000 evaluations, silently.
    let rejects = |args: &[&str], message: &str| {
        let out = flexflow(args);
        assert_eq!(out.status.code(), Some(2), "{args:?} must exit 2");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(message) && stderr.contains("usage:"),
            "{args:?}: stderr should say {message:?} and print the usage:\n{stderr}"
        );
    };
    rejects(
        &["search", "lenet", "--gpus", "2", "--evalz", "10"],
        "unknown flag \"--evalz\"",
    );
    // The removed sequential-driver switch fails loudly wherever it sits,
    // instead of eating the argument after it. (Spelt in two pieces so a
    // grep for the flag over the tree stays empty.)
    let removed = ["--", "legacy"].concat();
    let unknown = format!("unknown flag {removed:?}");
    rejects(&["search", "lenet", "--evals", "10", &removed], &unknown);
    rejects(&["search", "lenet", &removed, "--chains", "1"], &unknown);
    rejects(
        &["simulate", "lenet", "--strategy"],
        "--strategy needs a value",
    );
    rejects(&["search", "lenet", "--evals"], "--evals needs a value");
    // A flag another subcommand defines is just as unknown: simulate used
    // to accept --evals and ignore it.
    rejects(
        &["simulate", "lenet", "--evals", "5"],
        "unknown flag \"--evals\" for simulate",
    );
    rejects(
        &["baselines", "lenet", "--seed", "1"],
        "unknown flag \"--seed\" for baselines",
    );
}

#[test]
fn contradictory_flag_combos_are_rejected_with_a_message() {
    let out = flexflow(&["search", "lenet", "--microbatches", "0"]);
    assert!(!out.status.success(), "--microbatches 0 must be rejected");

    // simulate applies the same legality rule as strategy files and the
    // search: a count that does not divide the batch is refused, not
    // silently simulated with uneven slabs.
    let out = flexflow(&["simulate", "rnnlm", "--gpus", "4", "--microbatches", "7"]);
    assert!(
        !out.status.success(),
        "--microbatches 7 (batch 64) must be rejected"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("--microbatches 7") && stderr.contains("divide"),
        "stderr should explain the legality rule:\n{stderr}"
    );
}

#[test]
fn ragged_gpu_counts_are_rejected_with_a_clear_error() {
    // paper clusters have 4 GPUs per node; 6 is not a whole number of
    // nodes and used to silently truncate to one fully-connected node.
    let out = flexflow(&["simulate", "lenet", "--gpus", "6"]);
    assert!(!out.status.success(), "--gpus 6 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("whole number"),
        "stderr should explain node divisibility:\n{stderr}"
    );
    assert!(
        !stderr.contains("panicked"),
        "must be an error, not a panic:\n{stderr}"
    );
    // Sub-node counts stay legal (the paper's 1/2-GPU points).
    let out = flexflow(&["simulate", "lenet", "--gpus", "2"]);
    assert!(out.status.success(), "--gpus 2 is one partial node");
}

#[test]
fn cluster_presets_build_hierarchical_topologies() {
    // A preset name sizes the cluster itself.
    let out = stdout_of(&flexflow(&["simulate", "lenet", "--cluster", "p100x8-ib"]));
    assert!(parse_throughput(out.lines().next().unwrap()) > 0.0);

    // Search accepts presets too and reports the preset name.
    let out = stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--cluster",
        "p100x8-ib",
        "--evals",
        "20",
        "--seed",
        "2",
        "--chains",
        "1",
    ]));
    assert!(
        out.contains("8 x p100x8-ib"),
        "search header should name the preset:\n{out}"
    );

    // A typo'd preset fails at the flag with the example list.
    let out = flexflow(&["simulate", "lenet", "--cluster", "p100x8"]);
    assert!(!out.status.success(), "bad preset must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("p100x64-ib"),
        "stderr should list preset examples:\n{stderr}"
    );

    // --gpus next to a preset is contradictory, not silently ignored.
    let out = flexflow(&["simulate", "lenet", "--cluster", "p100x8-ib", "--gpus", "4"]);
    assert!(!out.status.success(), "--gpus + preset must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("contradictory"), "{stderr}");

    // Flat A100 clusters do not exist; the error points at presets.
    let out = flexflow(&["simulate", "lenet", "--cluster", "a100"]);
    assert!(!out.status.success(), "flat a100 must be rejected");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("a100x64-ib"),
        "stderr should point at a preset:\n{stderr}"
    );
}

#[test]
fn microbatch_search_exports_and_simulate_accepts_pipelined_strategies() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-mb-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let base = dir.join("base.json");
    let pipe = dir.join("pipe.json");

    // Non-pipelined baseline search.
    let out = stdout_of(&flexflow(&[
        "search",
        "rnnlm",
        "--gpus",
        "4",
        "--evals",
        "30",
        "--seed",
        "11",
        "--chains",
        "1",
        "--out",
        base.to_str().unwrap(),
    ]));
    let cost = |text: &str, label: &str| {
        let line = text
            .lines()
            .find(|l| l.starts_with(label))
            .unwrap_or_else(|| panic!("no {label} line:\n{text}"));
        line.split_whitespace()
            .nth(label.split_whitespace().count())
            .and_then(|t| t.parse::<f64>().ok())
            .unwrap_or_else(|| panic!("unparseable cost in {line}"))
    };
    let base_cost = cost(&out, "flexflow");

    // Warm pipelined refinement can never end worse than its seed.
    let out = stdout_of(&flexflow(&[
        "search",
        "rnnlm",
        "--gpus",
        "4",
        "--evals",
        "60",
        "--seed",
        "11",
        "--chains",
        "1",
        "--microbatches",
        "4",
        "--warm",
        base.to_str().unwrap(),
        "--out",
        pipe.to_str().unwrap(),
    ]));
    let pipe_cost = cost(&out, "flexflow");
    assert!(
        pipe_cost <= base_cost + 1e-9,
        "pipelined warm search must not regress: {pipe_cost} vs {base_cost}"
    );

    // The exported dump carries the microbatch field and simulate loads
    // it; an explicit --microbatches overrides the file's count.
    let text = std::fs::read_to_string(&pipe).unwrap();
    let dump: flexflow::core::strategy_io::StrategyDump =
        serde_json::from_str(&text).expect("pipelined strategy file parses");
    assert!(dump.microbatches >= 1);
    let sim = stdout_of(&flexflow(&[
        "simulate",
        "rnnlm",
        "--gpus",
        "4",
        "--strategy",
        pipe.to_str().unwrap(),
    ]));
    assert!(parse_throughput(sim.lines().next().unwrap()) > 0.0);
    let sim = stdout_of(&flexflow(&[
        "simulate",
        "rnnlm",
        "--gpus",
        "4",
        "--strategy",
        base.to_str().unwrap(),
        "--microbatches",
        "2",
    ]));
    assert!(parse_throughput(sim.lines().next().unwrap()) > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_pipeline_strategy_files_still_load() {
    // Strategy files written before the `microbatches` field existed must
    // keep importing (defaulting to 1 = whole-batch execution).
    let dir = std::env::temp_dir().join(format!("flexflow-cli-v1strat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("v1.json");
    let fresh = dir.join("fresh.json");
    stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "5",
        "--seed",
        "1",
        "--out",
        fresh.to_str().unwrap(),
    ]));
    let text = std::fs::read_to_string(&fresh).unwrap();
    assert!(text.contains("\"microbatches\""));
    // Strip the field to fabricate a v1-era file.
    let v1: String = text
        .lines()
        .filter(|l| !l.contains("\"microbatches\""))
        .collect::<Vec<_>>()
        .join("\n");
    std::fs::write(&path, v1).unwrap();
    let out = stdout_of(&flexflow(&[
        "simulate",
        "lenet",
        "--strategy",
        path.to_str().unwrap(),
    ]));
    assert!(parse_throughput(out.lines().next().unwrap()) > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn param_sync_search_exports_modes_and_simulate_accepts_them() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-psync-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("zero1.json");

    // A fixed --param-sync mode seeds every candidate with it and opens
    // the sync axis; the export carries the per-op mode tokens.
    let out = stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "20",
        "--seed",
        "9",
        "--chains",
        "1",
        "--param-sync",
        "zero1:4",
        "--out",
        path.to_str().unwrap(),
    ]));
    assert!(
        out.contains("sync axis open from zero1:4"),
        "search banner missing the sync-axis note:\n{out}"
    );
    assert!(
        out.contains("param-sync: best strategy departs from all-reduce"),
        "zero1-seeded search should report a custom sync layout:\n{out}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(
        text.contains("\"param_sync\""),
        "export missing param_sync:\n{text}"
    );
    let dump: flexflow::core::strategy_io::StrategyDump =
        serde_json::from_str(&text).expect("param-sync strategy file parses");
    assert!(!dump.param_sync.is_empty());
    assert!(
        dump.param_sync.iter().any(|t| t.starts_with("zero1:")),
        "expected zero1 tokens in {:?}",
        dump.param_sync
    );

    // Simulate loads the file, and a concrete --param-sync override works.
    let sim = stdout_of(&flexflow(&[
        "simulate",
        "lenet",
        "--strategy",
        path.to_str().unwrap(),
    ]));
    assert!(parse_throughput(sim.lines().next().unwrap()) > 0.0);
    let sim = stdout_of(&flexflow(&["simulate", "lenet", "--param-sync", "ps:1"]));
    assert!(parse_throughput(sim.lines().next().unwrap()) > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn param_sync_flag_rejects_bad_modes() {
    // Unknown mode grammar.
    let out = flexflow(&["search", "lenet", "--evals", "5", "--param-sync", "zero9:4"]);
    assert!(!out.status.success(), "zero9:4 must be rejected");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown param-sync mode"), "stderr:\n{err}");

    // Parameter-server device outside the cluster.
    let out = flexflow(&["search", "lenet", "--evals", "5", "--param-sync", "ps:99"]);
    assert!(
        !out.status.success(),
        "ps:99 on a 4-GPU cluster must be rejected"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("outside the 4-GPU cluster"), "stderr:\n{err}");

    // `search` is a search-only value; simulate needs a concrete mode.
    let out = flexflow(&["simulate", "lenet", "--param-sync", "search"]);
    assert!(
        !out.status.success(),
        "simulate --param-sync search must be rejected"
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(
        err.contains("only applies to the search subcommand"),
        "stderr:\n{err}"
    );
}

#[test]
fn pre_param_sync_strategy_files_still_load() {
    // Strategy files written before the `param_sync` field existed must
    // keep importing (defaulting to all-reduce everywhere). The field is
    // a multi-line array in pretty output, so fabricate the old format by
    // dropping the key from the parsed value rather than filtering lines.
    let dir = std::env::temp_dir().join(format!("flexflow-cli-v2strat-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("v2.json");
    let fresh = dir.join("fresh.json");
    stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "5",
        "--seed",
        "1",
        "--param-sync",
        "zero1:2",
        "--out",
        fresh.to_str().unwrap(),
    ]));
    let text = std::fs::read_to_string(&fresh).unwrap();
    assert!(text.contains("\"param_sync\""));
    let mut v: serde_json::Value = serde_json::from_str(&text).unwrap();
    if let serde_json::Value::Object(entries) = &mut v {
        entries.retain(|(k, _)| k != "param_sync");
    }
    let v2 = serde_json::to_string(&v).unwrap();
    assert!(!v2.contains("param_sync"));
    std::fs::write(&path, v2).unwrap();
    let out = stdout_of(&flexflow(&[
        "simulate",
        "lenet",
        "--strategy",
        path.to_str().unwrap(),
    ]));
    assert!(parse_throughput(out.lines().next().unwrap()) > 0.0);

    std::fs::remove_dir_all(&dir).ok();
}

/// A strategy exported for a bigger cluster must be rejected on a smaller
/// one with an error that *names the offending op and device index* — the
/// user's actionable handle — and the same goes for an out-of-range
/// parameter-server placement. Both flow through `cannot load strategy:`.
#[test]
fn out_of_range_strategies_name_the_offending_op_and_device() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-range-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");
    let path = dir.join("big.json");
    stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--gpus",
        "4",
        "--evals",
        "5",
        "--seed",
        "1",
        "--out",
        path.to_str().unwrap(),
    ]));

    // Device indices 0..4 cannot map onto a 2-GPU topology.
    let out = flexflow(&[
        "simulate",
        "lenet",
        "--gpus",
        "2",
        "--strategy",
        path.to_str().unwrap(),
    ]);
    assert!(
        !out.status.success(),
        "oversized strategy must exit nonzero"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load strategy"), "{stderr}");
    assert!(
        stderr.contains("places a task on device 3"),
        "error must name the offending device index:\n{stderr}"
    );
    assert!(
        stderr.contains("only 2 devices"),
        "error must name the topology size:\n{stderr}"
    );
    assert!(
        stderr.contains("op \""),
        "error must name the offending op:\n{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");

    // A parameter-server placement beyond the topology is the same story
    // on the sync axis: the token and the out-of-range index are named.
    let text = std::fs::read_to_string(&path).unwrap();
    let ps = dir.join("ps-out-of-range.json");
    std::fs::write(&ps, text.replacen("\"allreduce\"", "\"ps:7\"", 1)).unwrap();
    let out = flexflow(&[
        "simulate",
        "lenet",
        "--gpus",
        "4",
        "--strategy",
        ps.to_str().unwrap(),
    ]);
    assert!(!out.status.success(), "ps:7 on 4 GPUs must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("cannot load strategy"), "{stderr}");
    assert!(stderr.contains("ps:7"), "{stderr}");
    assert!(
        stderr.contains("server device 7 is out of range"),
        "error must name the out-of-range server device:\n{stderr}"
    );

    std::fs::remove_dir_all(&dir).ok();
}

/// The memory flags end-to-end: a fitting simulate reports the peak and
/// budget on stdout, an impossible budget reports `OOM:` and exits
/// nonzero, the recompute axis round-trips through export/import, and
/// malformed flag values are rejected with a message.
#[test]
fn mem_budget_and_recompute_flags_end_to_end() {
    let dir = std::env::temp_dir().join(format!("flexflow-cli-mem-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create temp dir");

    // lenet fits the device-default budget with room to spare.
    let out = stdout_of(&flexflow(&["simulate", "lenet", "--mem-budget", "device"]));
    let mem_line = out
        .lines()
        .find(|l| l.starts_with("memory: peak device"))
        .unwrap_or_else(|| panic!("no memory line:\n{out}"));
    assert!(mem_line.contains("budget"), "{mem_line}");
    assert!(out.lines().any(|l| l.starts_with("simulated")));

    // Nothing fits in one megabyte.
    let out = flexflow(&["simulate", "lenet", "--mem-budget", "1"]);
    assert!(!out.status.success(), "1 MB budget must exit nonzero");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("OOM:"), "{stderr}");

    // The recompute axis survives the export/import round trip, and
    // `--recompute off` strips it back out of a loaded file.
    let path = dir.join("rc.json");
    let out = stdout_of(&flexflow(&[
        "search",
        "lenet",
        "--evals",
        "40",
        "--seed",
        "3",
        "--recompute",
        "search",
        "--out",
        path.to_str().unwrap(),
    ]));
    assert!(
        out.contains("recompute axis open"),
        "banner must announce the axis:\n{out}"
    );
    let text = std::fs::read_to_string(&path).unwrap();
    assert!(text.contains("\"recompute\""), "v4 dump carries the bits");
    stdout_of(&flexflow(&[
        "simulate",
        "lenet",
        "--strategy",
        path.to_str().unwrap(),
        "--recompute",
        "off",
    ]));

    // Flag vocabulary is policed.
    for bad in [
        &["simulate", "lenet", "--recompute", "search"][..],
        &["simulate", "lenet", "--recompute", "banana"],
        &["search", "lenet", "--evals", "5", "--mem-budget", "0"],
        &["search", "lenet", "--evals", "5", "--mem-budget", "lots"],
    ] {
        let out = flexflow(bad);
        assert!(!out.status.success(), "{bad:?} must exit nonzero");
        assert!(
            !out.stderr.is_empty(),
            "{bad:?} must explain itself on stderr"
        );
    }

    std::fs::remove_dir_all(&dir).ok();
}
