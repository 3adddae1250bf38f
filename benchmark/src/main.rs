//! `switchml-benchmark` — the performance ledger.
//!
//! ```text
//! switchml-benchmark --workload W --seed S --seconds T --trace 0|1   one workload, this process
//! switchml-benchmark run     [--seed S] [--runs N] [--seconds T] [--smoke] [--out F]
//! switchml-benchmark trace   [--seed S] [--seconds T] [--smoke] [--out F] [--spans-out F]
//! switchml-benchmark all     run, then trace, into one results file
//! switchml-benchmark compare A.json B.json
//! ```
//!
//! The first form is what `BENCHMARK.json`'s command resolves to. Its
//! last line of standard output is the result object; the line before
//! it (`#detail …`) carries sample counts and determinism counters for
//! the other commands, which run each workload in a child process of
//! this binary so that `peak_rss_mb` and `setup_s` are that workload's
//! own. See `benchmark/README.md`.

mod compare;
mod host;
mod inputs;
mod measure;
mod pipeline;
mod reference;
mod stats;
mod trace;
mod workloads;

use measure::{Budget, Options};
use serde_json::{json, Value};
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workloads::WORKLOADS;

#[global_allocator]
static ALLOC: host::CountingAlloc = host::CountingAlloc;

/// `run_seconds` of `BENCHMARK.json`: how long one run measures.
const RUN_SECONDS: f64 = 15.0;
/// Rounds per workload of the `--smoke` pre-push check.
const SMOKE_ROUNDS: usize = 3;

struct Args {
    flags: Vec<(String, String)>,
    positional: Vec<String>,
}

impl Args {
    /// `--key value` pairs, bare `--smoke`, and positionals.
    fn parse(raw: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut positional = Vec::new();
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.strip_prefix("--") {
                Some("smoke") => flags.push(("smoke".to_string(), "1".to_string())),
                Some(key) => {
                    let v = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                    flags.push((key.to_string(), v.clone()));
                }
                None => positional.push(a.clone()),
            }
        }
        Ok(Args { flags, positional })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("--{key}: cannot read {v:?}")),
        }
    }

    fn budget(&self) -> Result<Budget, String> {
        if self.get("smoke").is_some() {
            return Ok(Budget::Rounds(SMOKE_ROUNDS));
        }
        if self.get("rounds").is_some() {
            return Ok(Budget::Rounds(self.num("rounds", SMOKE_ROUNDS)?));
        }
        let s: f64 = self.num("seconds", RUN_SECONDS)?;
        if s.is_finite() && s > 0.0 {
            Ok(Budget::Seconds(s))
        } else {
            Err(format!("--seconds must be positive, got {s}"))
        }
    }
}

/// The contract's form: one workload in this process.
fn one(args: &Args) -> Result<ExitCode, String> {
    let name = args.get("workload").ok_or("--workload is required")?;
    let w = workloads::find(name).ok_or_else(|| {
        let names: Vec<_> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name:?}; one of {}", names.join(", "))
    })?;
    let trace = match args.get("trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace is 0 or 1, got {other:?}")),
    };
    let opt = Options {
        seed: args.num("seed", 1)?,
        budget: args.budget()?,
        trace,
        spans_out: args.get("spans-out").map(PathBuf::from),
    };
    let out = measure::run(w, &opt);
    println!("#detail {}", out.detail);
    println!("{}", out.result);
    Ok(ExitCode::SUCCESS)
}

/// Run one workload in a child process of this binary and parse what
/// it printed into `{seed, attempted, failed, correct, metrics, detail}`.
fn child(
    workload: &str,
    seed: u64,
    budget: Budget,
    trace: bool,
    spans_out: Option<&str>,
) -> Result<Value, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()]);
    cmd.args(["--trace", if trace { "1" } else { "0" }]);
    match budget {
        Budget::Seconds(s) => cmd.args(["--seconds", &s.to_string()]),
        Budget::Rounds(n) => cmd.args(["--rounds", &n.to_string()]),
    };
    if let Some(p) = spans_out {
        cmd.args(["--spans-out", p]);
    }
    let out = cmd
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start the child process: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload}: child exited with {}", out.status));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let mut lines = text.lines().rev();
    let last = lines.next().ok_or("child printed nothing")?;
    let result: Value = serde_json::from_str(last).map_err(|e| format!("{workload}: {e}"))?;
    let detail = lines
        .find_map(|l| l.strip_prefix("#detail "))
        .and_then(|d| serde_json::from_str::<Value>(d).ok())
        .unwrap_or(Value::Null);
    Ok(json!({
        "seed": seed,
        "correct": result["correct"].clone(),
        "attempted": result["attempted"].clone(),
        "failed": result["failed"].clone(),
        "metrics": result["metrics"].clone(),
        "detail": detail
    }))
}

/// Print every metric of one child run by name, with its unit.
fn print_run(workload: &str, run: &Value) -> bool {
    let correct = run["correct"] == true;
    println!(
        "{workload:<12} seed {} rounds {} failed {} failed_frac {} {}",
        run["seed"].as_u64().unwrap_or(0),
        run["attempted"].as_u64().unwrap_or(0),
        run["failed"].as_u64().unwrap_or(0),
        run["failed"].as_f64().unwrap_or(1.0) / run["attempted"].as_f64().unwrap_or(1.0).max(1.0),
        if correct {
            "every round verified"
        } else {
            "INCORRECT"
        },
    );
    if let Value::Object(metrics) = &run["metrics"] {
        for (name, m) in metrics {
            println!(
                "  {workload:<12} {name:<40} {:>18.6} {}",
                m["value"].as_f64().unwrap_or(f64::NAN),
                m["unit"].as_str().unwrap_or("")
            );
        }
    }
    correct
}

/// `run`, `trace` and `all`: every workload, each in its own child.
fn suite(args: &Args, end_to_end: bool, traced: bool) -> Result<ExitCode, String> {
    let seed: u64 = args.num("seed", 1)?;
    let runs: u64 = args.num("runs", 1)?;
    let budget = args.budget()?;
    let mut ok = true;
    let mut e2e: Vec<(String, Value)> = Vec::new();
    let mut layers: Vec<(String, Value)> = Vec::new();
    if end_to_end {
        for w in &WORKLOADS {
            // Run i uses seed + i, as the acceptance driver varies it.
            let mut rows = Vec::new();
            for i in 0..runs {
                let run = child(w.name, seed + i, budget, false, None)?;
                ok &= print_run(w.name, &run);
                rows.push(run);
            }
            e2e.push((w.name.to_string(), Value::Array(rows)));
        }
    }
    if traced {
        for w in &WORKLOADS {
            let spans = args
                .get("spans-out")
                .map(|p| format!("{p}.{}.json", w.name));
            let run = child(w.name, seed, budget, true, spans.as_deref())?;
            ok &= print_run(w.name, &run);
            layers.push((w.name.to_string(), run));
        }
    }
    if let Some(path) = args.get("out") {
        let file = json!({
            "host": host::fingerprint(),
            "seed": seed,
            "runs": runs,
            "budget": match budget {
                Budget::Seconds(s) => format!("{s} s per run"),
                Budget::Rounds(n) => format!("{n} rounds per run"),
            },
            "percentiles": "medians; tails are the highest percentile with >= 10 samples beyond it, named in each run's detail",
            "end_to_end": Value::Object(e2e),
            "per_layer": Value::Object(layers)
        });
        let text = serde_json::to_string_pretty(&file).map_err(|e| e.to_string())?;
        std::fs::write(path, text + "\n").map_err(|e| format!("cannot write {path}: {e}"))?;
        println!("results written to {path}");
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn compare_files(args: &Args) -> Result<ExitCode, String> {
    let [a, b] = args.positional.as_slice() else {
        return Err("compare needs two result files: compare A.json B.json".into());
    };
    let load = |p: &String| -> Result<Value, String> {
        let text = std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"))?;
        serde_json::from_str(&text).map_err(|e| format!("{p}: {e}"))
    };
    let clean = compare::compare(&load(a)?, &load(b)?);
    println!("{}", if clean { "no regression" } else { "REGRESSION" });
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, rest) = match raw.first().map(String::as_str) {
        Some(c @ ("run" | "trace" | "all" | "compare")) => (c, &raw[1..]),
        _ => ("one", &raw[..]),
    };
    let outcome = Args::parse(rest).and_then(|args| match cmd {
        "run" => suite(&args, true, false),
        "trace" => suite(&args, false, true),
        "all" => suite(&args, true, true),
        "compare" => compare_files(&args),
        _ => one(&args),
    });
    match outcome {
        Ok(code) => code,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("usage: see benchmark/README.md");
            ExitCode::from(2)
        }
    }
}
