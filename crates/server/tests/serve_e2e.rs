//! End-to-end tests of the serving engine: hit/warm/cold classification,
//! batch-mode ordering under the worker pool, persistence across daemon
//! restarts, and the Unix-socket front-end.

use flexflow_server::server::response_field;
use flexflow_server::{Server, ServerConfig};

fn field_str(resp: &str, key: &str) -> String {
    response_field(resp, key)
        .and_then(|v| v.as_str().map(str::to_string))
        .unwrap_or_else(|| panic!("no string field {key:?} in {resp}"))
}

fn field_u64(resp: &str, key: &str) -> u64 {
    response_field(resp, key)
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("no numeric field {key:?} in {resp}"))
}

fn field_f64(resp: &str, key: &str) -> f64 {
    response_field(resp, key)
        .and_then(|v| v.as_f64())
        .unwrap_or_else(|| panic!("no numeric field {key:?} in {resp}"))
}

/// A fast search request: lenet on a 2-GPU node with a tiny budget.
fn lenet_req(evals: u64, extra: &str) -> String {
    format!(r#"{{"model":"lenet","gpus":2,"evals":{evals},"seed":3{extra}}}"#)
}

#[test]
fn cold_then_hit_then_warm_lifecycle() {
    let server = Server::new(ServerConfig::default());

    // First contact: cold search.
    let r1 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r1, "status"), "ok");
    assert_eq!(field_str(&r1, "cache"), "cold");
    assert!(field_u64(&r1, "evals") > 0, "cold search must evaluate");
    let cold_cost = field_f64(&r1, "cost_us");
    assert!(cold_cost > 0.0);

    // Same request: pure hit, zero simulator evaluations, same answer.
    let r2 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r2, "cache"), "hit");
    assert_eq!(field_u64(&r2, "evals"), 0);
    assert_eq!(field_f64(&r2, "cost_us").to_bits(), cold_cost.to_bits());
    assert!(
        field_u64(&r2, "cached_evals") > 0,
        "hit reports the cached effort"
    );

    // Smaller budget, same model+topology: the harder-searched entry
    // still answers (class 6 covers class 4).
    let r3 = server.handle_line(&lenet_req(10, ""));
    assert_eq!(field_str(&r3, "cache"), "hit");

    // Larger budget: near-miss — warm-started search, which then caches
    // its own (harder) entry.
    let r4 = server.handle_line(&lenet_req(300, ""));
    assert_eq!(field_str(&r4, "cache"), "warm");
    assert!(field_u64(&r4, "evals") > 0);
    assert!(
        field_f64(&r4, "cost_us") <= cold_cost + 1e-9,
        "warm start can only improve on its seed"
    );

    // Different topology, same graph: also warm (remapped seed).
    let r5 = server.handle_line(r#"{"model":"lenet","gpus":4,"evals":40,"seed":3}"#);
    assert_eq!(field_str(&r5, "cache"), "warm");

    // refresh bypasses the cache but still answers.
    let r6 = server.handle_line(&lenet_req(40, r#","refresh":true"#));
    assert_eq!(field_str(&r6, "cache"), "cold");

    // Stats reflect the traffic.
    let stats = server.handle_line(r#"{"cmd":"stats"}"#);
    assert_eq!(field_u64(&stats, "hits"), 2);
    assert_eq!(field_u64(&stats, "warm"), 2);
    assert_eq!(field_u64(&stats, "cold"), 2);
    assert_eq!(field_u64(&stats, "requests"), 7);
    assert!(field_u64(&stats, "entries") >= 2);
}

#[test]
fn batch_mode_preserves_order_across_the_pool() {
    let server = Server::new(ServerConfig {
        workers: 4,
        cache_path: None,
        ..ServerConfig::default()
    });
    let mut lines = vec![
        lenet_req(30, ""),
        "garbage".to_string(),
        lenet_req(30, ""), // may hit or cold depending on scheduling; status ok either way
        r#"{"cmd":"stats"}"#.to_string(),
    ];
    // Pad with more work than workers to exercise queuing.
    for _ in 0..4 {
        lines.push(lenet_req(25, ""));
    }
    let responses = server.handle_batch(&lines);
    assert_eq!(responses.len(), lines.len());
    assert_eq!(field_str(&responses[0], "status"), "ok");
    assert_eq!(field_str(&responses[1], "status"), "error");
    assert_eq!(field_str(&responses[2], "status"), "ok");
    assert!(response_field(&responses[3], "requests").is_some());
    for r in &responses[4..] {
        assert_eq!(field_str(r, "status"), "ok");
        assert_eq!(field_str(r, "model"), "lenet");
    }
}

#[test]
fn run_batch_writes_one_line_per_request() {
    let server = Server::new(ServerConfig::default());
    let input = format!("{}\n\n{}\n", lenet_req(20, ""), r#"{"cmd":"stats"}"#);
    let mut out = Vec::new();
    server
        .run_batch(std::io::BufReader::new(input.as_bytes()), &mut out)
        .unwrap();
    let text = String::from_utf8(out).unwrap();
    let lines: Vec<&str> = text.lines().collect();
    // The blank line is a (malformed) request too: in-band error.
    assert_eq!(lines.len(), 3);
    assert_eq!(field_str(lines[0], "cache"), "cold");
    assert_eq!(field_str(lines[1], "status"), "error");
    assert!(response_field(lines[2], "entries").is_some());
}

#[test]
fn cache_persists_across_server_restarts() {
    let dir = std::env::temp_dir().join(format!("ff-serve-persist-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("strategies.json");

    let cfg = ServerConfig {
        workers: 1,
        cache_path: Some(cache_path.clone()),
        ..ServerConfig::default()
    };
    let first = Server::new(cfg.clone());
    let r1 = first.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r1, "cache"), "cold");
    // The sharded store persists to sibling shard files, not the root
    // path (which stays free for legacy-file migration).
    assert!(
        !cache_path.exists(),
        "the legacy path is never written by the sharded store"
    );
    let shard_files: Vec<_> = flexflow_server::store::existing_shard_files(&cache_path);
    assert!(!shard_files.is_empty(), "shard file written on insert");
    drop(first);

    // A fresh daemon answers the same request from disk: zero evals.
    let second = Server::new(cfg);
    assert_eq!(second.cache_len(), 1);
    let r2 = second.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r2, "cache"), "hit");
    assert_eq!(field_u64(&r2, "evals"), 0);
    assert_eq!(
        field_f64(&r2, "cost_us").to_bits(),
        field_f64(&r1, "cost_us").to_bits()
    );

    // A corrupt shard file must not stop the daemon from starting: it
    // comes up with an empty cache and re-learns.
    std::fs::write(&shard_files[0], "{ definitely not json").unwrap();
    let third = Server::new(ServerConfig {
        workers: 1,
        cache_path: Some(cache_path.clone()),
        ..ServerConfig::default()
    });
    assert_eq!(third.cache_len(), 0);
    let r3 = third.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r3, "cache"), "cold");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn corrupt_cache_entries_are_evicted_not_pinned() {
    use flexflow_core::strategy_io::export_record;
    use flexflow_core::Strategy;
    use flexflow_device::clusters;
    use flexflow_opgraph::{graph_signature, zoo};
    use flexflow_server::{budget_class, CacheEntry, StrategyCache};

    let dir = std::env::temp_dir().join(format!("ff-serve-evict-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("strategies.json");

    // Hand-craft a poisoned entry at the exact address lenet@2GPU/40-evals
    // resolves to: the signatures match, but the dump belongs to a
    // different graph (wrong op count -> structural validation fails) and
    // its cost is absurdly good, so `insert`'s lower-cost-wins rule would
    // keep any honest replacement out forever if eviction didn't happen.
    let lenet = zoo::lenet(64);
    let topo = clusters::paper_cluster(flexflow_device::DeviceKind::P100, 2);
    let rnnlm = zoo::rnnlm(64, 2);
    let rnnlm_topo = clusters::uniform_cluster(1, 2, 16.0, 4.0);
    let mut record = export_record(
        &rnnlm,
        &rnnlm_topo,
        &Strategy::data_parallel(&rnnlm, &rnnlm_topo),
        0.001,
        1,
    );
    record.graph_sig = flexflow_core::strategy_io::signature_hex(graph_signature(&lenet));
    record.topo_sig = flexflow_core::strategy_io::signature_hex(topo.signature());
    let mut cache = StrategyCache::new();
    assert!(cache.insert(CacheEntry {
        budget_class: budget_class(40),
        model: "lenet".into(),
        gpus: 2,
        cluster: "p100".into(),
        record,
    }));
    cache.save(&cache_path).unwrap();

    let server = Server::new(ServerConfig {
        workers: 1,
        cache_path: Some(cache_path),
        ..ServerConfig::default()
    });
    // Lookup hits the poisoned entry, validation fails, the entry is
    // evicted, and the request degrades to a cold search...
    let r1 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r1, "cache"), "cold");
    // ...whose (honest) result now occupies the address: the next
    // request is a real hit, not a cold search forever.
    let r2 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r2, "cache"), "hit");
    assert_eq!(field_u64(&r2, "evals"), 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn identical_requests_are_deterministic_across_fresh_servers() {
    // Content-addressed caching only makes sense if the cold answer for a
    // fixed (model, cluster, seed, budget) is reproducible.
    let run = || {
        let server = Server::new(ServerConfig::default());
        let resp = server.handle_line(&lenet_req(60, ""));
        (
            field_f64(&resp, "cost_us").to_bits(),
            response_field(&resp, "strategy").map(|v| serde_json::to_string(&v).unwrap()),
        )
    };
    assert_eq!(run(), run());
}

#[cfg(unix)]
#[test]
fn socket_mode_serves_concurrent_clients() {
    use std::io::{BufRead, BufReader, Write};
    use std::os::unix::net::UnixStream;
    use std::sync::Arc;

    let dir = std::env::temp_dir().join(format!("ff-serve-sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let sock = dir.join("flexflow.sock");

    let server = Arc::new(Server::new(ServerConfig {
        workers: 2,
        cache_path: None,
        ..ServerConfig::default()
    }));

    std::thread::scope(|s| {
        let daemon = {
            let server = Arc::clone(&server);
            let sock = sock.clone();
            s.spawn(move || server.run_socket(&sock))
        };
        // Wait for the socket to appear.
        for _ in 0..200 {
            if sock.exists() {
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(10));
        }

        let request_once = |line: &str| -> String {
            let stream = UnixStream::connect(&sock).expect("connect");
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut w = stream;
            writeln!(w, "{line}").unwrap();
            let mut resp = String::new();
            reader.read_line(&mut resp).unwrap();
            resp.trim().to_string()
        };

        // Two clients in parallel, then a hit from a third.
        let (a, b) = std::thread::scope(|inner| {
            let ha = inner.spawn(|| request_once(&lenet_req(30, "")));
            let hb =
                inner.spawn(|| request_once(r#"{"model":"lenet","gpus":2,"evals":30,"seed":9}"#));
            (ha.join().unwrap(), hb.join().unwrap())
        });
        assert_eq!(field_str(&a, "status"), "ok");
        assert_eq!(field_str(&b, "status"), "ok");
        let c = request_once(&lenet_req(30, ""));
        assert_eq!(field_str(&c, "cache"), "hit");

        // An idle client that never sends anything must not block the
        // shutdown (connection reads are timeout-based).
        let idle = UnixStream::connect(&sock).expect("idle connect");
        let d = request_once(r#"{"cmd":"shutdown"}"#);
        assert!(d.contains("shutting_down"));
        daemon.join().unwrap().expect("socket loop exits cleanly");
        drop(idle);
    });

    std::fs::remove_dir_all(&dir).ok();
}

#[cfg(unix)]
#[test]
fn socket_mode_refuses_to_clobber_non_socket_paths() {
    let dir = std::env::temp_dir().join(format!("ff-serve-clobber-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("precious.json");
    std::fs::write(&path, "important data").unwrap();

    let server = Server::new(ServerConfig::default());
    let err = server.run_socket(&path).unwrap_err();
    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists, "{err}");
    assert_eq!(
        std::fs::read_to_string(&path).unwrap(),
        "important data",
        "existing non-socket file must be untouched"
    );

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pre_pipeline_v1_cache_files_still_serve_hits() {
    use flexflow_core::strategy_io::{export_record, StrategyRecord};
    use flexflow_core::Strategy;
    use flexflow_device::clusters;
    use flexflow_opgraph::zoo;

    let dir = std::env::temp_dir().join(format!("ff-e2e-v1cache-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cache_path = dir.join("strategies.json");

    // Fabricate a pre-PR5 cache file: a v1 record whose dump has NO
    // `microbatches` field (the field did not exist), searched hard
    // enough (class 10 covers 512..=1023 evals) to answer small budgets.
    let graph = zoo::by_name("lenet", 64);
    let topo = clusters::paper_cluster(flexflow_device::DeviceKind::P100, 2);
    let s = Strategy::data_parallel(&graph, &topo);
    let mut record: StrategyRecord = export_record(&graph, &topo, &s, 1234.5, 600);
    record.version = 1;
    let record_json = serde_json::to_string(&record)
        .unwrap()
        .replace(r#""microbatches":1,"#, "");
    assert!(
        !record_json.contains("microbatches"),
        "v1 fixture must not carry the new field: {record_json}"
    );
    let entry_json = format!(
        r#"{{"budget_class":10,"model":"lenet","gpus":2,"cluster":"p100","record":{record_json}}}"#
    );
    std::fs::write(
        &cache_path,
        format!(r#"{{"version":1,"entries":[{entry_json}]}}"#),
    )
    .unwrap();

    // A fresh server over the old file answers the matching request as a
    // hit: zero evaluations, the stored cost, microbatches defaulted to 1.
    let server = Server::new(ServerConfig {
        workers: 1,
        cache_path: Some(cache_path),
        ..ServerConfig::default()
    });
    let resp = server.handle_line(r#"{"model":"lenet","gpus":2,"evals":40,"seed":9}"#);
    assert_eq!(field_str(&resp, "status"), "ok", "{resp}");
    assert_eq!(field_str(&resp, "cache"), "hit", "{resp}");
    assert_eq!(field_u64(&resp, "evals"), 0);
    assert_eq!(field_f64(&resp, "cost_us"), 1234.5);
    assert_eq!(field_u64(&resp, "microbatches"), 1);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn pipelined_and_plain_requests_address_distinct_entries() {
    let server = Server::new(ServerConfig::default());

    // Prime the cache with a plain (non-pipelined) search.
    let r1 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r1, "cache"), "cold");

    // The same request with pipelining enabled must NOT hit the plain
    // entry (its search never explored microbatches); the plain entry
    // still seeds it as a warm start.
    let r2 = server.handle_line(&lenet_req(40, r#","microbatches":4"#));
    assert_eq!(field_str(&r2, "cache"), "warm", "{r2}");
    assert!(field_u64(&r2, "evals") > 0);

    // Repeating the pipelined request now hits its own entry.
    let r3 = server.handle_line(&lenet_req(40, r#","microbatches":4"#));
    assert_eq!(field_str(&r3, "cache"), "hit", "{r3}");
    assert_eq!(field_u64(&r3, "evals"), 0);

    // And the plain request still hits the plain entry, not the
    // pipelined one (whose strategy may use m > 1).
    let r4 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r4, "cache"), "hit", "{r4}");
    assert_eq!(field_u64(&r4, "microbatches"), 1);
}

#[test]
fn plain_requests_never_receive_pipelined_strategies() {
    // Only a pipelined entry exists; a plain request warm-starts from it
    // but must get (and cache) a whole-batch strategy back — the warm
    // seed's microbatch count is clamped to the request's cap.
    let server = Server::new(ServerConfig::default());
    let r1 = server.handle_line(&lenet_req(40, r#","microbatches":4"#));
    assert_eq!(field_str(&r1, "cache"), "cold");
    let r2 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r2, "cache"), "warm", "{r2}");
    assert_eq!(
        field_u64(&r2, "microbatches"),
        1,
        "a non-pipelined requester must never be handed m > 1: {r2}"
    );
    // The cached plain entry keeps serving plain hits at m = 1.
    let r3 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r3, "cache"), "hit", "{r3}");
    assert_eq!(field_u64(&r3, "microbatches"), 1);
}

#[test]
fn serve_default_microbatches_raises_the_request_floor() {
    // A server started with --microbatches 4 searches the pipelined
    // space even for requests that don't ask for it, and its entries
    // carry the pipelined budget class.
    let server = Server::new(ServerConfig {
        workers: 1,
        cache_path: None,
        default_microbatches: 4,
        ..ServerConfig::default()
    });
    let r1 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r1, "cache"), "cold");
    // The same request hits the entry the floor produced.
    let r2 = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&r2, "cache"), "hit", "{r2}");
    // An explicitly larger cap wins over the floor: different class.
    let r3 = server.handle_line(&lenet_req(40, r#","microbatches":8"#));
    assert_ne!(field_str(&r3, "cache"), "hit", "{r3}");
}

/// The `"strategy":{…}}` tail of a search answer.
fn strategy_tail(resp: &str) -> &str {
    &resp[resp
        .find("\"strategy\":")
        .expect("answer carries a strategy")..]
}

#[test]
fn search_answers_are_canonical_and_hits_repeat_the_cold_strategy_bytes() {
    // The six workloads ffbench's serve_hit reads, in both dialects.
    const HEAD: [&str; 13] = [
        "status",
        "cache",
        "model",
        "gpus",
        "cluster",
        "budget_class",
        "microbatches",
        "param_sync",
        "recompute",
        "cost_us",
        "evals",
        "cached_evals",
        "strategy",
    ];
    for (model, gpus) in [
        ("lenet", 2),
        ("alexnet", 4),
        ("inception_v3", 4),
        ("resnet101", 4),
        ("rnnlm", 4),
        ("nmt", 4),
    ] {
        let mut by_version = Vec::new();
        for envelope in ["", r#""v":2,"verb":"search","#] {
            let line = |evals: u64| {
                format!(
                    r#"{{{envelope}"model":"{model}","gpus":{gpus},"cluster":"p100","evals":{evals},"seed":42}}"#
                )
            };
            let server = Server::new(ServerConfig::default());
            // A larger budget class than anything stored: warm-started.
            let answers = [
                ("cold", server.handle_line(&line(8))),
                ("hit", server.handle_line(&line(8))),
                ("warm", server.handle_line(&line(20))),
            ];
            for (cache, resp) in &answers {
                assert_eq!(field_str(resp, "cache"), *cache, "{resp}");
                let value: serde_json::Value = serde_json::from_str(resp).expect("valid JSON");
                assert_eq!(
                    &serde_json::to_string(&value).unwrap(),
                    resp,
                    "not what the serializer writes for the value it parses to"
                );
                let keys: Vec<&str> = value
                    .as_object()
                    .expect("an object")
                    .iter()
                    .map(|(k, _)| k.as_str())
                    .collect();
                if envelope.is_empty() {
                    assert_eq!(keys, HEAD, "{resp}");
                } else {
                    assert_eq!(keys[0], "v", "{resp}");
                    assert_eq!(keys[1..], HEAD, "{resp}");
                }
            }
            let [(_, cold), (_, hit), _] = &answers;
            assert_eq!(strategy_tail(hit), strategy_tail(cold), "{model}");
            assert_eq!(field_u64(hit, "evals"), 0);
            by_version.push(answers);
        }
        // The dialects differ by the version marker and nothing else.
        let [v1, v2] = &by_version[..] else {
            unreachable!("two envelope versions")
        };
        for ((_, v1), (_, v2)) in v1.iter().zip(v2) {
            assert_eq!(format!(r#"{{"v":2,{}"#, &v1[1..]), *v2);
        }
    }
}

fn graph_builds(server: &Server) -> u64 {
    server
        .stats()
        .graph_builds
        .load(std::sync::atomic::Ordering::Relaxed)
}

/// An entry at the address lenet@2xP100 searched at 40 evals stores
/// under, holding a strategy no search would return (everything on
/// device 1) at a claimed cost.
fn lenet_entry(cost_us: f64) -> flexflow_server::CacheEntry {
    use flexflow_core::strategy_io::export_record;
    let graph = flexflow_opgraph::zoo::by_name("lenet", 64);
    let topo = flexflow_device::clusters::paper_cluster(flexflow_device::DeviceKind::P100, 2);
    let strategy = flexflow_core::Strategy::single_device(&graph, &topo, 1);
    flexflow_server::CacheEntry {
        budget_class: flexflow_server::budget_class(40),
        model: "lenet".into(),
        gpus: 2,
        cluster: "p100".into(),
        record: export_record(&graph, &topo, &strategy, cost_us, 40),
    }
}

#[test]
fn a_request_builds_its_graph_at_most_once_and_a_repeat_hit_never() {
    let dir = std::env::temp_dir().join(format!("ff-serve-builds-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let cfg = ServerConfig {
        workers: 1,
        cache_path: Some(dir.join("strategies.json")),
        ..ServerConfig::default()
    };
    let server = Server::new(cfg.clone());
    // Expects `request` to be answered `cache` with exactly `builds` more
    // workloads built than before it.
    let expect = |server: &Server, request: &str, cache: &str, builds: u64| {
        let before = graph_builds(server);
        let resp = server.handle_line(request);
        assert_eq!(field_str(&resp, "cache"), cache, "{resp}");
        assert_eq!(
            graph_builds(server) - before,
            builds,
            "{request} -> {cache}"
        );
        resp
    };

    // First sight and a miss in one request: one build, not two.
    expect(&server, &lenet_req(40, ""), "cold", 1);
    // First hit on the entry: validated against the requester's graph.
    expect(&server, &lenet_req(40, ""), "hit", 1);
    // From here on a repeat hit does no graph work at all.
    let before = graph_builds(&server);
    for _ in 0..1000 {
        let resp = server.handle_line(&lenet_req(40, ""));
        assert_eq!(field_u64(&resp, "evals"), 0, "{resp}");
    }
    assert_eq!(graph_builds(&server), before, "repeat hits built a graph");
    // A polish upgrade publishes a new entry state: validated once.
    let hot = server.store().hottest().expect("the entry exists");
    let mut better = hot.entry.clone();
    better.record.cost_us /= 2.0;
    assert_eq!(
        server.store().upgrade(&hot.address, hot.version, better),
        flexflow_server::Upgrade::Published
    );
    expect(&server, &lenet_req(40, ""), "hit", 1);
    expect(&server, &lenet_req(40, ""), "hit", 0);
    // Known workload, but a miss has to search: one build.
    expect(&server, &lenet_req(300, ""), "warm", 1);
    expect(&server, &lenet_req(40, r#","refresh":true"#), "cold", 1);
    // The harder-searched entry the warm search stored now answers, and
    // this workload has not validated it yet.
    expect(&server, &lenet_req(40, ""), "hit", 1);
    expect(&server, &lenet_req(40, ""), "hit", 0);
    let stats = server.handle_line(r#"{"cmd":"stats"}"#);
    assert_eq!(field_u64(&stats, "graph_builds"), graph_builds(&server));
    drop(server);

    // A reloaded entry: first sight of the workload and the validation
    // of the loaded record share one build.
    let reloaded = Server::new(cfg);
    expect(&reloaded, &lenet_req(40, ""), "hit", 1);
    expect(&reloaded, &lenet_req(40, ""), "hit", 0);

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_published_upgrade_is_what_the_next_hit_serves() {
    let server = Server::new(ServerConfig::default());
    let cold = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&cold, "cache"), "cold");
    let hit = server.handle_line(&lenet_req(40, ""));
    assert_eq!(strategy_tail(&hit), strategy_tail(&cold));

    // Publish another strategy for the same address the way polish does.
    let hot = server.store().hottest().expect("entry exists");
    let upgraded = lenet_entry(field_f64(&cold, "cost_us") / 2.0);
    let body = flexflow_server::cache::strategy_body(&upgraded.record.dump);
    assert_ne!(
        format!("{body}}}"),
        strategy_tail(&cold),
        "a different strategy"
    );
    assert_eq!(
        server
            .store()
            .upgrade(&hot.address, hot.version, upgraded.clone()),
        flexflow_server::Upgrade::Published
    );

    // Entry and body swapped as one: the head and the tail of the next
    // hit both come from the upgraded record, after a fresh validation.
    let before = graph_builds(&server);
    let hit = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&hit, "cache"), "hit", "{hit}");
    assert_eq!(strategy_tail(&hit), format!("{body}}}"));
    assert_eq!(
        field_f64(&hit, "cost_us").to_bits(),
        upgraded.record.cost_us.to_bits()
    );
    assert_eq!(field_u64(&hit, "cached_evals"), upgraded.record.evals);
    assert_eq!(
        graph_builds(&server) - before,
        1,
        "served without the check"
    );
}

#[test]
fn an_entry_poisoned_after_validation_is_still_evicted_not_served() {
    use flexflow_core::strategy_io::export_record;

    let server = Server::new(ServerConfig::default());
    let cold = server.handle_line(&lenet_req(40, ""));
    // The workload's memo now holds a validated token for the honest
    // entry...
    let hit = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&hit, "cache"), "hit");

    // ...and a well-keyed record of another graph lands on the address,
    // at a cost the lower-cost-wins rule cannot refuse.
    let honest = lenet_entry(0.001);
    let rnnlm = flexflow_opgraph::zoo::rnnlm(64, 2);
    let rnnlm_topo = flexflow_device::clusters::uniform_cluster(1, 2, 16.0, 4.0);
    let mut record = export_record(
        &rnnlm,
        &rnnlm_topo,
        &flexflow_core::Strategy::data_parallel(&rnnlm, &rnnlm_topo),
        0.001,
        40,
    );
    record.graph_sig = honest.record.graph_sig.clone();
    record.topo_sig = honest.record.topo_sig.clone();
    let poisoned = flexflow_server::CacheEntry { record, ..honest };
    let poison_body = flexflow_server::cache::strategy_body(&poisoned.record.dump);
    assert!(server.store().insert(poisoned));

    // The token names the honest entry's state, not this one: the hit is
    // re-validated, fails, evicts, and the request searches cold.
    let resp = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&resp, "cache"), "cold", "{resp}");
    assert_ne!(strategy_tail(&resp), format!("{poison_body}}}"));
    assert_eq!(strategy_tail(&resp), strategy_tail(&cold));
    let resp = server.handle_line(&lenet_req(40, ""));
    assert_eq!(field_str(&resp, "cache"), "hit", "{resp}");
    assert_eq!(strategy_tail(&resp), strategy_tail(&cold));
}
