//! `eagr_benchmark` — the repository's referee benchmark (see README.md).
//!
//! One named workload runs in this process and ends with the result line
//! the driver reads. `--workload all` and `--repeat K` re-run this binary
//! once per (workload, repeat) — every run gets a fresh process, so peak
//! memory and allocator state never leak between runs — and summarise.

#![forbid(unsafe_code)]

mod e2e;
mod facade;
mod layers;
mod pacing;
mod spec;
mod stats;
mod trace;

use eagr_bench::Json;
use spec::{Inputs, Metric, Spec, EXACT_COUNTS, WORKLOADS};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};

const USAGE: &str = "usage: eagr_benchmark [--workload NAME|all] [--seed N] [--seconds S] \
                     [--trace [0|1]] [--repeat K] [--vary-seed] [--smoke]";

#[derive(Clone, Debug, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    /// Repeat `i` runs seed `seed + i`: the spread across inputs, which is
    /// what the driver's acceptance check measures.
    vary_seed: bool,
    smoke: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: "all".to_string(),
        seed: 1,
        seconds: 12.0,
        trace: false,
        repeat: 1,
        vary_seed: false,
        smoke: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        match flag.as_str() {
            "--workload" => args.workload = value("a workload name")?,
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                args.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--repeat" => {
                args.repeat = value("a count")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?
            }
            "--trace" => {
                // Bare `--trace` means 1; the driver passes `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--vary-seed" => args.vary_seed = true,
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !(args.seconds.is_finite() && args.seconds > 0.0) || args.repeat == 0 {
        return Err("--seconds and --repeat must be positive".to_string());
    }
    if args.workload != "all" && Spec::by_name(&args.workload).is_none() {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        return Err(format!(
            "unknown workload {} (one of: all, {})",
            args.workload,
            names.join(", ")
        ));
    }
    Ok(args)
}

/// Where run artefacts go (`EAGR_BENCH_OUT`, default `benchmark/out`).
fn out_dir() -> PathBuf {
    std::env::var_os("EAGR_BENCH_OUT").map_or_else(|| PathBuf::from("benchmark/out"), PathBuf::from)
}

fn metrics_json(rows: &[Metric], with_samples: bool) -> Json {
    Json::Obj(
        rows.iter()
            .map(|m| {
                let mut fields = vec![
                    ("value", Json::Num(m.value)),
                    ("unit", Json::Str(m.unit.to_string())),
                ];
                if with_samples {
                    fields.push(("samples", Json::Num(m.samples as f64)));
                }
                (m.name.to_string(), Json::obj(fields))
            })
            .collect(),
    )
}

/// One workload in this process. Prints a `workload metric unit value
/// samples` line per metric, writes the artefacts, and ends with the
/// driver's result line. Returns whether every operation succeeded.
fn run_one(spec: Spec, args: &Args) -> bool {
    let spec = if args.smoke { spec.smoke() } else { spec };
    let inputs = Inputs::generate(&spec, args.seed);
    let out = out_dir();
    if let Err(e) = std::fs::create_dir_all(&out) {
        eprintln!("warning: could not create {}: {e}", out.display());
    }
    let mut artefact = vec![
        ("workload", Json::Str(spec.name.to_string())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Num(f64::from(u8::from(args.smoke)))),
    ];
    let (rows, tally, file) = if args.trace {
        let run = layers::run(&spec, &inputs, args.seconds, args.seed);
        let path = out.join(format!("trace-{}.jsonl", spec.name));
        if let Err(e) = run.recorder.write_jsonl(&path, spec.name) {
            eprintln!("warning: could not write {}: {e}", path.display());
        }
        let stages = trace::stage_totals(run.recorder.spans());
        eprintln!(
            "{:<28} {:>7} {:>12} {:>12}",
            "stage", "count", "total_ms", "self_ms"
        );
        for s in &stages {
            eprintln!(
                "{:<28} {:>7} {:>12.3} {:>12.3}",
                s.name,
                s.count,
                s.total_ns as f64 / 1e6,
                s.self_ns as f64 / 1e6
            );
        }
        artefact.push((
            "stages",
            Json::Arr(
                stages
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::Str(s.name.to_string())),
                            ("count", Json::Num(s.count as f64)),
                            ("total_ms", Json::Num(s.total_ns as f64 / 1e6)),
                            ("self_ms", Json::Num(s.self_ns as f64 / 1e6)),
                        ])
                    })
                    .collect(),
            ),
        ));
        (
            run.metrics.rows,
            run.tally,
            format!("{}.trace.json", spec.name),
        )
    } else {
        let run = e2e::run(&spec, &inputs, args.seconds, args.seed);
        let info = &run.info;
        for m in info {
            println!(
                "{} {} {} {} {}",
                spec.name, m.name, m.unit, m.value, m.samples
            );
        }
        artefact.push(("info", metrics_json(info, true)));
        (run.metrics.rows, run.tally, format!("{}.json", spec.name))
    };
    for m in &rows {
        println!(
            "{} {} {} {} {}",
            spec.name, m.name, m.unit, m.value, m.samples
        );
    }
    let correct = tally.failed == 0;
    artefact.push(("attempted", Json::Num(tally.attempted as f64)));
    artefact.push(("failed", Json::Num(tally.failed as f64)));
    artefact.push(("metrics", metrics_json(&rows, true)));
    let path = out.join(file);
    if let Err(e) = std::fs::write(&path, Json::obj(artefact).render() + "\n") {
        eprintln!("warning: could not write {}: {e}", path.display());
    }
    // `Json` has no boolean, so the result line is assembled by hand.
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        tally.attempted.max(1),
        tally.failed,
        metrics_json(&rows, false).render()
    );
    correct
}

/// `metric lines` of one child run: `(metric, unit, value)`.
type Parsed = Vec<(String, String, f64)>;

/// Re-run this binary for one (workload, seed); `None` if it failed.
fn run_child(workload: &str, seed: u64, args: &Args) -> Option<Parsed> {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if args.smoke {
        cmd.arg("--smoke");
    }
    let output = cmd.output().expect("spawn benchmark run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let parsed: Parsed = stdout
        .lines()
        .filter_map(|line| {
            let f: Vec<&str> = line.split(' ').collect();
            match f.as_slice() {
                [w, metric, unit, value, _samples] if *w == workload => {
                    Some((metric.to_string(), unit.to_string(), value.parse().ok()?))
                }
                _ => None,
            }
        })
        .collect();
    if args.repeat == 1 {
        print!("{stdout}");
    }
    (output.status.success() && !parsed.is_empty()).then_some(parsed)
}

/// `--workload all` and/or `--repeat K`: one child per run, then (for
/// K > 1) median, quartiles and relative IQR per metric × workload.
fn orchestrate(args: &Args) -> bool {
    let specs: Vec<Spec> = match Spec::by_name(&args.workload) {
        Some(spec) => vec![spec],
        None => WORKLOADS.to_vec(),
    };
    let mut all_ok = true;
    for spec in specs {
        let mut runs: Vec<Parsed> = Vec::new();
        for i in 0..args.repeat {
            let seed = args.seed + if args.vary_seed { i as u64 } else { 0 };
            match run_child(spec.name, seed, args) {
                Some(parsed) => runs.push(parsed),
                None => {
                    eprintln!("{}: run {i} (seed {seed}) failed", spec.name);
                    all_ok = false;
                }
            }
        }
        if args.repeat == 1 || runs.is_empty() {
            continue;
        }
        println!(
            "# {}: workload metric unit median q1 q3 rel_iqr runs",
            spec.name
        );
        for (metric, unit, _) in &runs[0] {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|r| r.iter().find(|m| &m.0 == metric).map(|m| m.2))
                .collect();
            let (q1, q2, q3) =
                stats::quartiles(&values).unwrap_or((values[0], values[0], values[0]));
            // Interquartile range as a share of the median: the driver's spread.
            let spread = if q2 == 0.0 { 0.0 } else { (q3 - q1) / q2.abs() };
            println!(
                "{} {metric} {unit} {q2} {q1} {q3} {spread:.4} {}",
                spec.name,
                values.len()
            );
            let exact = args.trace && !args.vary_seed && EXACT_COUNTS.contains(&metric.as_str());
            if exact && values.iter().any(|v| *v != values[0]) {
                eprintln!(
                    "{}: exact count {metric} differs across repeats: {values:?}",
                    spec.name
                );
                all_ok = false;
            }
        }
    }
    all_ok
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let ok = match Spec::by_name(&args.workload) {
        Some(spec) if args.repeat == 1 => run_one(spec, &args),
        _ => orchestrate(&args),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{END_TO_END, PER_LAYER};

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn driver_and_bare_trace_flags_parse() {
        let a = parse_args(&argv("--workload churn --seed 7 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.trace),
            ("churn", 7, 3.0, true)
        );
        assert!(
            !parse_args(&argv("--trace 0 --workload churn"))
                .unwrap()
                .trace
        );
        let bare = parse_args(&argv("--trace --smoke --repeat 5")).unwrap();
        assert!(bare.trace && bare.smoke && bare.repeat == 5 && bare.workload == "all");
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--seed")).is_err());
    }

    /// The names and units this binary emits are exactly the ones
    /// BENCHMARK.json declares.
    #[test]
    fn declared_names_equal_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str, unit: bool| -> Vec<(String, String)> {
            doc.get(key)
                .and_then(Json::as_arr)
                .unwrap_or_else(|| panic!("{key} missing"))
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (
                        field("name"),
                        if unit { field("unit") } else { String::new() },
                    )
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table
                .iter()
                .map(|m| (m.0.to_string(), m.1.to_string()))
                .collect()
        };
        assert_eq!(names("end_to_end", true), own(&END_TO_END));
        assert_eq!(names("per_layer", true), own(&PER_LAYER));
        let workloads: Vec<String> = WORKLOADS.iter().map(|w| w.name.to_string()).collect();
        let declared: Vec<String> = names("workloads", false).into_iter().map(|w| w.0).collect();
        assert_eq!(declared, workloads);
    }

    /// `--smoke`: every workload, both kinds of run, on a 2K-node graph —
    /// no failed operation, every declared metric emitted.
    #[test]
    fn smoke_pass_has_no_failures() {
        for spec in WORKLOADS {
            if spec.engine == spec::Engine::Process
                && eagr::exec::transport::process::host_binary_path().is_err()
            {
                eprintln!("skipping {}: eagr-shard-host is not built", spec.name);
                continue;
            }
            let spec = spec.smoke();
            let inputs = Inputs::generate(&spec, 1);
            let run = e2e::run(&spec, &inputs, 0.4, 1);
            assert_eq!(run.tally.failed, 0, "{} metric run", spec.name);
            assert!(run.tally.attempted > 0);
            let names: Vec<&str> = run.metrics.rows.iter().map(|m| m.name).collect();
            assert_eq!(names, END_TO_END.map(|m| m.0));
            assert!(
                run.metrics.rows.iter().all(|m| m.value > 0.0),
                "{:?}",
                run.metrics.rows
            );

            let traced = layers::run(&spec, &inputs, 0.4, 1);
            assert_eq!(traced.tally.failed, 0, "{} traced run", spec.name);
            let names: Vec<&str> = traced.metrics.rows.iter().map(|m| m.name).collect();
            assert_eq!(names, PER_LAYER.map(|m| m.0));
            assert_eq!(traced.metrics.get("core.wrong_answers"), 0.0);
            assert!(!traced.recorder.spans().is_empty());
        }
    }
}
