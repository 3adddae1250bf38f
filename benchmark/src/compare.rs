//! `compare A.json B.json`: apply the bounds. One row per workload ×
//! end-to-end metric with both medians, both quartile pairs, the bound
//! and a verdict; a non-zero exit on any regression, any rise in the
//! share of failed rounds, or any counter that should repeat exactly
//! for a seed and did not.

use crate::measure::END_TO_END;
use crate::stats::{iqr_frac, median, quartiles};
use crate::workloads::WORKLOADS;
use serde_json::Value;

/// Share of the baseline's median by which each end-to-end metric may
/// worsen (the `bound` column of `BENCHMARK.json`).
pub const BOUNDS: [(&str, f64); 5] = [
    ("ate_per_s", 0.25),
    ("tat_ms_p50", 0.25),
    ("cpu_ns_per_elem", 0.25),
    ("peak_rss_mb", 0.10),
    ("setup_s", 0.25),
];

/// `setup_s` differences below this many seconds are never a regression.
const SETUP_FLOOR_S: f64 = 0.2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread of either side is wider than the bound:
    /// the data cannot tell "unchanged" from "worse".
    Unresolved,
}

impl Verdict {
    pub fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate samples `b` against baseline samples `a`.
/// `floor` is an absolute difference below which nothing regresses.
pub fn verdict(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64, floor: f64) -> Verdict {
    let (ma, mb) = (median(a), median(b));
    let worse_by = if higher_is_better { ma - mb } else { mb - ma };
    if worse_by > bound * ma.abs() && worse_by > floor {
        Verdict::Regressed
    } else if iqr_frac(a).max(iqr_frac(b)) > bound {
        Verdict::Unresolved
    } else {
        Verdict::Ok
    }
}

fn runs<'a>(file: &'a Value, workload: &str) -> &'a [Value] {
    file["end_to_end"][workload]
        .as_array()
        .map_or(&[], Vec::as_slice)
}

fn samples(runs: &[Value], metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|r| r["metrics"][metric]["value"].as_f64())
        .collect()
}

fn failed_frac(runs: &[Value]) -> f64 {
    let sum = |k: &str| runs.iter().filter_map(|r| r[k].as_u64()).sum::<u64>() as f64;
    if sum("attempted") == 0.0 {
        1.0
    } else {
        sum("failed") / sum("attempted")
    }
}

/// Counters that must repeat exactly for a seed, for each seed both
/// files ran: the description of every mismatch.
fn determinism_mismatches(workload: &str, a: &[Value], b: &[Value]) -> Vec<String> {
    let mut out = Vec::new();
    for ra in a {
        let Some(rb) = b.iter().find(|r| r["seed"] == ra["seed"]) else {
            continue;
        };
        let (da, db) = (&ra["detail"]["determinism"], &rb["detail"]["determinism"]);
        if da["input_hash"] != db["input_hash"] {
            out.push(format!(
                "{workload} seed {:?}: generated inputs differ",
                ra["seed"]
            ));
        }
        if da["exact_counters"] == true {
            for key in ["engine.first_sends", "switch.completions"] {
                if da[key] != db[key] {
                    out.push(format!(
                        "{workload} seed {:?}: {key} per round {:?} vs {:?}",
                        ra["seed"], da[key], db[key]
                    ));
                }
            }
        }
    }
    out
}

/// Print the comparison; `true` when nothing regressed.
pub fn compare(a: &Value, b: &Value) -> bool {
    for (label, f) in [("A", a), ("B", b)] {
        let h = &f["host"];
        println!(
            "{label}: rev {} seed {} runs {} | {} x{} kernel {} simd {} gso {} gro {}",
            h["git_rev"].as_str().unwrap_or("?"),
            f["seed"].as_u64().unwrap_or(0),
            f["runs"].as_u64().unwrap_or(0),
            h["cpu_model"].as_str().unwrap_or("?"),
            h["nproc"].as_u64().unwrap_or(0),
            h["kernel"].as_str().unwrap_or("?"),
            h["simd_backend"].as_str().unwrap_or("?"),
            h["udp_gso"] == true,
            h["udp_gro"] == true,
        );
    }
    if a["host"]["cpu_model"] != b["host"]["cpu_model"] || a["host"]["nproc"] != b["host"]["nproc"]
    {
        println!("warning: the two files come from different hosts; timings are not comparable");
    }
    println!(
        "{:<12} {:<16} {:>3} {:>14} {:>14} {:>14} {:>14} {:>14} {:>14} {:>6} verdict",
        "workload", "metric", "n", "A.q1", "A.median", "A.q3", "B.q1", "B.median", "B.q3", "bound"
    );
    let mut clean = true;
    for w in &WORKLOADS {
        let (ra, rb) = (runs(a, w.name), runs(b, w.name));
        if ra.is_empty() || rb.is_empty() {
            println!("{:<12} missing from one of the files", w.name);
            clean = false;
            continue;
        }
        for ((metric, _, better), (_, bound)) in END_TO_END.iter().zip(BOUNDS) {
            let (sa, sb) = (samples(ra, metric), samples(rb, metric));
            let floor = if *metric == "setup_s" {
                SETUP_FLOOR_S
            } else {
                0.0
            };
            let v = verdict(&sa, &sb, *better == "higher", bound, floor);
            clean &= v != Verdict::Regressed;
            let (a1, a2, a3) = quartiles(&sa);
            let (b1, b2, b3) = quartiles(&sb);
            println!(
                "{:<12} {:<16} {:>3} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>14.4} {:>6.2} {}",
                w.name, metric, sa.len().min(sb.len()), a1, a2, a3, b1, b2, b3, bound, v.name()
            );
        }
        let (fa, fb) = (failed_frac(ra), failed_frac(rb));
        let rose = fb > fa;
        clean &= !rose;
        println!(
            "{:<12} {:<16} {:>3} {:>14} {:>14.6} {:>14} {:>14} {:>14.6} {:>14} {:>6} {}",
            w.name,
            "failed_frac",
            ra.len().min(rb.len()),
            "",
            fa,
            "",
            "",
            fb,
            "",
            "0",
            if rose { "regressed" } else { "ok" }
        );
        for m in determinism_mismatches(w.name, ra, rb) {
            println!("nondeterministic: {m}");
            clean = false;
        }
    }
    clean
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::json;

    #[test]
    fn verdicts_on_synthetic_samples() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Lower is better: +5 % is inside a 10 % bound, +20 % is not.
        assert_eq!(
            verdict(&base, &base.map(|x| x * 1.05), false, 0.10, 0.0),
            Verdict::Ok
        );
        assert_eq!(
            verdict(&base, &base.map(|x| x * 1.20), false, 0.10, 0.0),
            Verdict::Regressed
        );
        // An improvement is never a regression.
        assert_eq!(
            verdict(&base, &base.map(|x| x * 0.5), false, 0.10, 0.0),
            Verdict::Ok
        );
        // Higher is better: the direction flips.
        assert_eq!(
            verdict(&base, &base.map(|x| x * 0.80), true, 0.10, 0.0),
            Verdict::Regressed
        );
        assert_eq!(
            verdict(&base, &base.map(|x| x * 1.20), true, 0.10, 0.0),
            Verdict::Ok
        );
        // Same medians but a spread wider than the bound: unresolved,
        // never "unchanged".
        let noisy = [70.0, 85.0, 100.0, 115.0, 130.0];
        assert_eq!(
            verdict(&base, &noisy, false, 0.10, 0.0),
            Verdict::Unresolved
        );
        assert_eq!(
            verdict(&noisy, &base, false, 0.10, 0.0),
            Verdict::Unresolved
        );
        // The absolute floor: 0.30 s -> 0.45 s is +50 % but only 0.15 s.
        assert_eq!(verdict(&[0.30], &[0.45], false, 0.25, 0.2), Verdict::Ok);
        assert_eq!(
            verdict(&[0.30], &[0.55], false, 0.25, 0.2),
            Verdict::Regressed
        );
    }

    fn file(ate: f64, failed: u64, completions: f64) -> Value {
        let run = |seed: u64| {
            json!({
                "seed": seed,
                "attempted": 10,
                "failed": failed,
                "metrics": json!({
                    "ate_per_s": json!({"value": ate, "unit": "1/s"}),
                    "tat_ms_p50": json!({"value": 100.0, "unit": "ms"}),
                    "cpu_ns_per_elem": json!({"value": 100.0, "unit": "ns"}),
                    "peak_rss_mb": json!({"value": 50.0, "unit": "MiB"}),
                    "setup_s": json!({"value": 0.5, "unit": "s"})
                }),
                "detail": json!({"determinism": json!({
                    "input_hash": "00ff",
                    "exact_counters": true,
                    "engine.first_sends": 1024.0,
                    "switch.completions": completions
                })})
            })
        };
        let per_workload: Vec<(String, Value)> = WORKLOADS
            .iter()
            .map(|w| (w.name.to_string(), Value::Array(vec![run(1), run(2)])))
            .collect();
        json!({
            "host": json!({"cpu_model": "x", "nproc": 2}),
            "seed": 1,
            "runs": 2,
            "end_to_end": Value::Object(per_workload)
        })
    }

    #[test]
    fn compare_flags_regression_failures_and_nondeterminism() {
        let base = file(1e6, 0, 512.0);
        assert!(compare(&base, &base));
        assert!(compare(&base, &file(0.95e6, 0, 512.0)), "inside the bound");
        assert!(!compare(&base, &file(0.7e6, 0, 512.0)), "ATE/s fell 30 %");
        assert!(!compare(&base, &file(1e6, 1, 512.0)), "failed_frac rose");
        assert!(
            !compare(&base, &file(1e6, 0, 513.0)),
            "an exact counter moved"
        );
    }
}
