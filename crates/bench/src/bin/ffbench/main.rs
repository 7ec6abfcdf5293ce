//! `ffbench` — the repository's benchmark: end-to-end and per-layer
//! numbers for `flexflow search` and `flexflow serve`, measured on the
//! paths users run. See the README beside this file.
//!
//! ```text
//! ffbench list [--json]
//! ffbench run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! ffbench compare A.json B.json
//! ffbench repeat [--seed S] [--seconds N]
//! ```

mod compare;
mod gen;
mod proc;
mod report;
mod search;
mod serve;
mod spec;
mod stats;
mod trace;

use report::{Outcome, RunOpts};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

/// A single workload run may take this long before `run` (all workloads)
/// kills it; the driver allows 180 s.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Untraced runs per workload and side of `ffbench repeat`, on as many
/// consecutive seeds: enough for a quartile spread on each side.
const REPEAT_SEEDS: u64 = 5;

struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    out: Option<PathBuf>,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut a = Args {
        workload: None,
        seed: 7,
        seconds: spec::RUN_SECONDS as f64,
        traced: false,
        out: None,
    };
    let mut i = 0;
    while i < args.len() {
        let key = args[i].as_str();
        // `--trace` alone means on; the driver always passes 0 or 1.
        if key == "--trace" && args.get(i + 1).is_none_or(|v| v.starts_with("--")) {
            a.traced = true;
            i += 1;
            continue;
        }
        let value = args
            .get(i + 1)
            .ok_or_else(|| format!("{key} needs a value"))?;
        let bad = || format!("{key} cannot take {value:?}");
        match key {
            "--workload" => {
                if !spec::WORKLOADS.iter().any(|w| w.name == value) {
                    return Err(format!("unknown workload {value:?}; see `ffbench list`"));
                }
                a.workload = Some(value.clone());
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                a.seconds = value.parse().map_err(|_| bad())?;
                if !(a.seconds > 0.0 && a.seconds <= 120.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                a.traced = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--out" => a.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unexpected argument {key:?}")),
        }
        i += 2;
    }
    Ok(a)
}

/// `<target dir>/ffbench`, beside the profile directory this executable
/// was built into: caches, CLI exports and traces go there.
fn scratch_dir(exe: &Path) -> PathBuf {
    exe.parent()
        .and_then(Path::parent)
        .unwrap_or(Path::new("."))
        .join("ffbench")
}

fn run_one(name: &str, a: &Args) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ffbench: {e}"))?;
    let flexflow = exe.with_file_name("flexflow");
    if !flexflow.is_file() {
        return Err(format!(
            "{} is missing: build it with `cargo build --release --bin flexflow`",
            flexflow.display()
        ));
    }
    let scratch = scratch_dir(&exe);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let opts = RunOpts {
        seed: a.seed,
        seconds: a.seconds,
        scratch,
        flexflow,
    };
    let mut out = Outcome::default();
    if let Some(s) = search::WORKLOADS.iter().find(|s| s.name == name) {
        if a.traced {
            search::run_traced(s, &opts, &mut out);
        } else {
            search::run(s, &opts, &mut out);
        }
    } else {
        serve::run(name, a.traced, &opts, &mut out);
    }
    Ok(out)
}

/// One workload run's driver-format result line and what produced it.
struct RunLine {
    workload: String,
    seed: u64,
    traced: bool,
    line: String,
}

/// Runs every workload on `seeds` consecutive seeds, each run in a process
/// of its own (peak memory is per process), and returns the result lines.
fn run_all(a: &Args, traced: bool, seeds: u64) -> Result<Vec<RunLine>, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate ffbench: {e}"))?;
    let mut lines = Vec::new();
    for w in &spec::WORKLOADS {
        for run in 0..seeds {
            let seed = a.seed.wrapping_add(run);
            let child = Command::new(&exe)
                .args(["run", "--workload", w.name])
                .args(["--seed", &seed.to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }])
                .stdin(Stdio::null())
                .stdout(Stdio::piped())
                .spawn()
                .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
            let mut child = proc::Guarded(child);
            let pipe = child.0.stdout.take().expect("piped stdout");
            // Drain the pipe on a thread so the deadline also covers a
            // child that stops writing.
            let reader = std::thread::spawn(move || {
                let (mut pipe, mut text) = (pipe, String::new());
                let _ = std::io::Read::read_to_string(&mut pipe, &mut text);
                text
            });
            let status = child.wait_until(Instant::now() + RUN_DEADLINE);
            let text = reader.join().unwrap_or_default();
            print!("{text}");
            let last = text.lines().last().unwrap_or_default().to_string();
            match status {
                Some(s) if s.success() => lines.push(RunLine {
                    workload: w.name.to_string(),
                    seed,
                    traced,
                    line: last,
                }),
                Some(s) => return Err(format!("{} seed {seed} failed ({s})", w.name)),
                None => return Err(format!("{} seed {seed} missed its deadline", w.name)),
            }
        }
    }
    Ok(lines)
}

fn write_runs(path: &Path, a: &Args, lines: &[RunLine]) -> Result<(), String> {
    let runs: Vec<String> = lines
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\": \"{}\", \"traced\": {}, \"seed\": {}, \"result\": {}}}",
                r.workload, r.traced, r.seed, r.line
            )
        })
        .collect();
    let text = format!(
        "{{\"seed\": {}, \"seconds\": {}, \"runs\": [\n{}\n]}}\n",
        a.seed,
        a.seconds,
        runs.join(",\n")
    );
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn cmd_run(a: &Args) -> Result<bool, String> {
    if let Some(name) = &a.workload {
        let mut out = run_one(name, a)?;
        if !a.traced {
            out.require_end_to_end();
        }
        print!("{}", out.table(a.traced));
        let line = out.json_line(a.traced);
        if let Some(path) = &a.out {
            let run = RunLine {
                workload: name.clone(),
                seed: a.seed,
                traced: a.traced,
                line: line.clone(),
            };
            write_runs(path, a, &[run])?;
        }
        // The driver reads the last line of standard output.
        println!("{line}");
        return Ok(out.correct());
    }
    let lines = run_all(a, a.traced, 1)?;
    if let Some(path) = &a.out {
        write_runs(path, a, &lines)?;
    }
    Ok(true)
}

fn load(path: &str) -> Result<compare::Samples, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    compare::parse_samples(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_repeat(a: &Args) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let scratch = scratch_dir(&exe);
    std::fs::create_dir_all(&scratch).map_err(|e| e.to_string())?;
    let mut sides = Vec::new();
    for side in ["A", "B"] {
        // Both kinds of run: the end-to-end metrics must agree within
        // their bounds over several seeds, the exact per-layer counts must
        // repeat on one.
        let mut lines = run_all(a, false, REPEAT_SEEDS)?;
        lines.extend(run_all(a, true, 1)?);
        let path = scratch.join(format!("repeat-{side}.json"));
        write_runs(&path, a, &lines)?;
        sides.push(load(&path.to_string_lossy())?);
    }
    Ok(compare::report(&sides[0], &sides[1], true) == 0)
}

fn usage() -> ExitCode {
    eprintln!(
        "usage:\n  ffbench list [--json]\n  ffbench run [--workload W] [--seed S] [--seconds N] \
         [--trace 0|1] [--out FILE]\n  ffbench compare A.json B.json\n  \
         ffbench repeat [--seed S] [--seconds N]"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let outcome = match cmd.as_str() {
        "list" if args.get(1).is_some_and(|a| a == "--json") => {
            print!("{}", spec::benchmark_json());
            Ok(true)
        }
        "list" => {
            println!("workloads:");
            for w in &spec::WORKLOADS {
                println!("  {:<22} {}", w.name, w.why);
            }
            for (title, metrics) in [
                ("end-to-end metrics (tracing off):", &spec::END_TO_END[..]),
                ("per-layer metrics (traced run):", &spec::PER_LAYER[..]),
            ] {
                println!("{title}");
                for m in metrics {
                    println!(
                        "  {:<40} {:<6} {:<7} {}",
                        m.name,
                        m.unit,
                        if m.higher_is_better {
                            "higher"
                        } else {
                            "lower"
                        },
                        match (m.bound, m.exact) {
                            (Some(b), _) => format!("bound {:.0} %", b * 100.0),
                            (None, true) => "repeats exactly".to_string(),
                            (None, false) => String::new(),
                        }
                    );
                }
            }
            Ok(true)
        }
        "run" => parse_args(&args[1..]).and_then(|a| cmd_run(&a)),
        "repeat" => parse_args(&args[1..]).and_then(|a| cmd_repeat(&a)),
        "compare" => match &args[1..] {
            [a, b] => load(a)
                .and_then(|sa| Ok((sa, load(b)?)))
                .map(|(sa, sb)| compare::report(&sa, &sb, false) == 0),
            _ => return usage(),
        },
        _ => return usage(),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("ffbench: {e}");
            ExitCode::FAILURE
        }
    }
}
