//! The benchmark's vocabulary: workload names with the reason each exists,
//! and every metric's name, unit, direction and regression bound. The
//! root `BENCHMARK.json` is `ffbench list --json`; a test below holds the
//! two together.

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkloadSpec {
    pub name: &'static str,
    pub why: &'static str,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline median by which the metric may get worse
    /// before it is a regression; per-layer metrics have none.
    pub bound: Option<f64>,
    /// A count or simulated cost that repeats exactly for a fixed seed.
    pub exact: bool,
}

pub const WORKLOADS: [WorkloadSpec; 5] = [
    WorkloadSpec {
        name: "search_rnnlm4",
        why: "rnnlm on 4 flat P100s, config axis only: the cheapest proposals, so per-proposal fixed costs (generate, rebuild_op, journal, commit/rollback) have their largest share",
    },
    WorkloadSpec {
        name: "search_gpt64",
        why: "gpt_small on the hierarchical 64-GPU p100x64-ib preset, config axis only: the transformer-scale path where a proposal costs ~100 ms of repair or sweep, so core::sim does nearly all the work",
    },
    WorkloadSpec {
        name: "search_gptmed16_mem",
        why: "gpt_medium on p100x16-ib, all four axes open under the 16 GB device budget, warm start that fits: structural proposals and a memory::footprint per proposal; the only workload where core::memory runs",
    },
    WorkloadSpec {
        name: "serve_hit",
        why: "six pre-filled keys of mixed graph size read over two TCP connections: every request is a hit, so the server, store, opgraph and strategy_io layers do everything and sim/optimizer nothing",
    },
    WorkloadSpec {
        name: "serve_churn",
        why: "24 keys with Zipf popularity against --cache-entries 8 --shards 2 on one connection, then restart: hits, warm and cold searches, inserts, evictions, flush and reload all occur",
    },
];

const fn e2e(name: &'static str, unit: &'static str, higher: bool, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: Some(bound),
        exact: false,
    }
}

const fn layer(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        exact: false,
    }
}

/// A per-layer count that repeats exactly for a fixed seed.
const fn count(name: &'static str, unit: &'static str, higher: bool) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        higher_is_better: higher,
        bound: None,
        exact: true,
    }
}

/// Measured with tracing off; every workload reports every one of them.
///
/// One bound serves all workloads, so the noisiest sets it, at three times
/// its quartile spread across ten seeds on the sizing box or more (the
/// README's baseline has every spread): rates and latencies spread under
/// 2 % everywhere; peak memory spreads 7 % on `search_gpt64`, whose heap
/// grows differently with the order of its searches; set-up time is given
/// the widest bound.
pub const END_TO_END: [MetricSpec; 4] = [
    e2e("setup_s", "s", false, 0.25),
    e2e("work_per_s", "1/s", true, 0.10),
    e2e("answer_ms", "ms", false, 0.10),
    e2e("peak_rss_mb", "MB", false, 0.25),
];

/// Measured in the traced run. The driver wants every one of them from
/// every traced run, so a layer a workload never calls reads 0.
pub const PER_LAYER: [MetricSpec; 64] = [
    layer("soap.generate_us", "us", false),
    layer("taskgraph.build_ms", "ms", false),
    count("taskgraph.tasks", "count", false),
    layer("taskgraph.rebuild_us", "us", false),
    count("taskgraph.journal_slots_per_proposal", "count", false),
    layer("taskgraph.rebuild_all_ms", "ms", false),
    layer("taskgraph.rebuild_sync_us", "us", false),
    layer("sim.full_ms", "ms", false),
    layer("sim.tasks_per_s", "1/s", true),
    layer("sim.apply_us", "us", false),
    layer("sim.apply_tail_us", "us", false),
    layer("sim.repair_us", "us", false),
    layer("sim.sweep_us", "us", false),
    count("sim.sweep_share", "ratio", false),
    layer("sim.sweep_share_traced", "ratio", false),
    count("sim.fallback_share", "ratio", false),
    count("sim.repair_steps_per_proposal", "count", false),
    layer("sim.commit_us", "us", false),
    layer("sim.rollback_us", "us", false),
    layer("memory.footprint_us", "us", false),
    count("memory.calls", "count", false),
    count("optimizer.accept_rate", "ratio", true),
    count("optimizer.evals", "count", true),
    count("optimizer.best_cost_ms", "ms", false),
    layer("optimizer.self_share", "ratio", false),
    layer("optimizer.trace_coverage", "ratio", true),
    layer("optimizer.chain2_scaling", "ratio", true),
    layer("costmodel.query_ns", "ns", false),
    layer("opgraph.build_us", "us", false),
    layer("opgraph.signature_us", "us", false),
    layer("device.topology_build_us", "us", false),
    layer("device.signature_us", "us", false),
    layer("protocol.parse_us", "us", false),
    layer("strategy_io.export_us", "us", false),
    layer("strategy_io.import_us", "us", false),
    layer("strategy_io.record_bytes", "bytes", false),
    layer("store.lookup_us", "us", false),
    layer("store.insert_us", "us", false),
    count("store.evictions", "count", false),
    count("store.bytes", "bytes", false),
    layer("store.flush_ms", "ms", false),
    layer("store.reload_ms", "ms", false),
    count("store.reload_ok_share", "ratio", true),
    layer("server.handle_hit_us", "us", false),
    layer("server.hit_p50_us", "us", false),
    layer("server.hit_p50_us.lenet", "us", false),
    layer("server.hit_p50_us.alexnet", "us", false),
    layer("server.hit_p50_us.inception_v3", "us", false),
    layer("server.hit_p50_us.resnet101", "us", false),
    layer("server.hit_p50_us.rnnlm", "us", false),
    layer("server.hit_p50_us.nmt", "us", false),
    layer("server.hit_tail_us", "us", false),
    layer("server.miss_p50_ms", "ms", false),
    layer("server.frontend_us", "us", false),
    layer("server.miss_overhead_ms", "ms", false),
    // Not exact: `serve_hit` runs for a time, not for a count.
    layer("server.outcomes.hit", "count", true),
    count("server.outcomes.warm", "count", false),
    count("server.outcomes.cold", "count", false),
    count("server.outcomes.busy", "count", false),
    count("server.outcomes.error", "count", false),
    count("server.evals_spent", "count", false),
    layer("ground_truth.exec_ms", "ms", false),
    count("ground_truth.sim_error_pct", "%", false),
    layer("trace.overhead_pct", "%", false),
];

pub fn metrics(traced: bool) -> &'static [MetricSpec] {
    if traced {
        &PER_LAYER
    } else {
        &END_TO_END
    }
}

/// What the benchmark driver runs, where the benchmark lives and how long
/// one run measures; with the tables above, the whole of `BENCHMARK.json`.
const COMMAND: [&str; 2] = ["bash", "crates/bench/src/bin/ffbench/run.sh"];
const PATHS: [&str; 1] = ["crates/bench/src/bin/ffbench"];
pub const RUN_SECONDS: u64 = 20;

/// The text of the root `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        let q: Vec<String> = items.iter().map(|i| format!("\"{i}\"")).collect();
        q.join(", ")
    };
    let metric = |m: &MetricSpec| {
        let better = if m.higher_is_better {
            "higher"
        } else {
            "lower"
        };
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\"{bound}}}",
            m.name, m.unit
        )
    };
    let workloads: Vec<String> = WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END.iter().map(metric).collect();
    let per_layer: Vec<String> = PER_LAYER.iter().map(metric).collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [{}],\n  \"run_seconds\": {RUN_SECONDS},\n  \
         \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(&COMMAND),
        quoted(&PATHS),
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The driver reads `BENCHMARK.json`, people read `ffbench list`; the
    /// file is the program's own rendering of the tables above.
    #[test]
    fn benchmark_json_is_this_vocabulary() {
        assert_eq!(
            include_str!("../../../../../BENCHMARK.json"),
            benchmark_json(),
            "regenerate with `ffbench list --json > BENCHMARK.json`"
        );
        let v: serde_json::Value = serde_json::from_str(&benchmark_json()).expect("valid JSON");
        let keys: Vec<&str> = v
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    /// The package the driver builds (`Cargo.toml` here) repeats the
    /// workspace's release profile; the product crates must be measured as
    /// the workspace builds `flexflow`.
    #[test]
    fn package_profile_is_the_workspace_profile() {
        fn release_profile(manifest: &str) -> Vec<&str> {
            manifest
                .lines()
                .skip_while(|l| l.trim() != "[profile.release]")
                .skip(1)
                .take_while(|l| !l.trim_start().starts_with('['))
                .map(str::trim)
                .filter(|l| !l.is_empty() && !l.starts_with('#'))
                .collect()
        }
        let workspace = release_profile(include_str!("../../../../../Cargo.toml"));
        assert!(!workspace.is_empty());
        assert_eq!(release_profile(include_str!("Cargo.toml")), workspace);
    }

    #[test]
    fn names_units_and_bounds_are_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        let names = WORKLOADS
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().chain(&PER_LAYER).map(|m| m.name));
        for name in names {
            assert!(seen.insert(name), "{name} is used twice");
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            assert!(m.unit.len() <= 16, "{}", m.name);
            assert!(m
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        for w in &WORKLOADS {
            assert!(
                w.why.len() <= 200 && !w.why.contains(['\n', '"']),
                "{}",
                w.name
            );
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s")
            .expect("setup_s");
        assert!(setup.unit == "s" && !setup.higher_is_better);
        for m in &END_TO_END {
            let bound = m.bound.expect("end-to-end metrics are bounded");
            assert!(
                bound > 0.0 && bound <= setup.bound.unwrap() && bound <= 0.25,
                "{}",
                m.name
            );
        }
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
    }
}
