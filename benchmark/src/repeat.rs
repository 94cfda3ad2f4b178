//! `repeat`: the benchmark's check on itself. Runs every workload
//! `sets × runs` times, each run a fresh process exactly as the driver
//! starts it, and compares the sets: for every end-to-end metric of every
//! workload the two medians must agree within the metric's bound.

use std::path::PathBuf;
use std::process::Command;

use restore_util::json::{parse, JsonValue};

use crate::spec::{Better, Workload, END_TO_END};
use crate::stats::{median, quartiles, spread};

/// One run in a child process; its end-to-end metrics in `END_TO_END`
/// order, or `None` when it failed or was not correct.
fn run_once(workload: Workload, seed: u64, seconds: f64) -> Option<Vec<f64>> {
    let output = crate::child_run(workload, seed, seconds, false)
        .stderr(std::process::Stdio::null())
        .output()
        .expect("start a run");
    let stdout = String::from_utf8_lossy(&output.stdout);
    let doc = parse(stdout.lines().last()?)?;
    if !output.status.success() || doc.get("correct") != Some(&JsonValue::Bool(true)) {
        return None;
    }
    END_TO_END
        .iter()
        .map(|m| doc.get("metrics")?.get(m.name)?.get("value")?.as_f64())
        .collect()
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Returns whether every run was correct and every pair of set medians
/// agreed within its bound. With `out`, also writes the baseline file.
pub fn repeat(sets: usize, runs: usize, seed: u64, seconds: f64, out: Option<PathBuf>) -> bool {
    assert!(
        sets >= 2 && runs >= 2,
        "repeat needs --sets >= 2 and --runs >= 2"
    );
    let mut ok = true;
    let mut records = Vec::new();
    for workload in Workload::ALL {
        // values[set][metric][run]
        let mut values = vec![vec![Vec::new(); END_TO_END.len()]; sets];
        for (set, set_values) in values.iter_mut().enumerate() {
            for run in 0..runs {
                let run_seed = seed + run as u64;
                eprintln!("{}: set {set} run {run} (seed {run_seed})", workload.name());
                match run_once(workload, run_seed, seconds) {
                    Some(metrics) => {
                        for (slot, v) in set_values.iter_mut().zip(metrics) {
                            slot.push(v);
                        }
                    }
                    None => {
                        println!(
                            "{}: seed {run_seed} FAILED or was not correct",
                            workload.name()
                        );
                        ok = false;
                    }
                }
            }
        }
        for (i, metric) in END_TO_END.iter().enumerate() {
            let per_set: Vec<&Vec<f64>> = values.iter().map(|s| &s[i]).collect();
            if per_set.iter().any(|v| v.len() < 2) {
                continue;
            }
            let medians: Vec<f64> = per_set.iter().map(|v| median(v)).collect();
            // Later sets against the first, in the metric's bad direction.
            let worst = medians[1..]
                .iter()
                .map(|&m| match metric.better {
                    Better::Lower => (m - medians[0]) / medians[0],
                    Better::Higher => (medians[0] - m) / medians[0],
                })
                .fold(f64::NEG_INFINITY, f64::max);
            let agree = worst <= metric.bound;
            ok &= agree;
            let sets_text: Vec<String> = per_set
                .iter()
                .map(|v| {
                    let (q1, med, q3) = quartiles(v);
                    format!(
                        "{med:.4} [{q1:.4}, {q3:.4}] spread {:.1}%",
                        spread(v) * 100.0
                    )
                })
                .collect();
            println!(
                "{:<22} {:<16} {:<5} {}  worse by {:+.1}% (bound {:.0}%) {}",
                workload.name(),
                metric.name,
                metric.unit,
                sets_text.join(" | "),
                worst * 100.0,
                metric.bound * 100.0,
                if agree { "ok" } else { "DISAGREE" }
            );
            let all: Vec<f64> = per_set.iter().flat_map(|v| v.iter().copied()).collect();
            let (q1, med, q3) = quartiles(&all);
            records.push(format!(
                "    {{\"workload\":\"{}\",\"metric\":\"{}\",\"unit\":\"{}\",\"median\":{med},\
                 \"q1\":{q1},\"q3\":{q3},\"runs\":{},\"set_medians\":[{}]}}",
                workload.name(),
                metric.name,
                metric.unit,
                all.len(),
                medians
                    .iter()
                    .map(|m| m.to_string())
                    .collect::<Vec<_>>()
                    .join(",")
            ));
        }
    }
    if let Some(path) = out {
        let context = format!(
            "  \"context\": {{\"nproc\":{},\"lane_width\":{},\"target_feature\":\"{}\",\
             \"rustc\":\"{}\",\"commit\":\"{}\",\"sets\":{sets},\"runs\":{runs},\"seed\":{seed},\
             \"seconds\":{seconds}}}",
            restore_util::default_workers(),
            restore_nn::lane::WIDTH,
            restore_nn::lane::TARGET_FEATURE,
            command_line("rustc", &["--version"]),
            command_line("git", &["rev-parse", "HEAD"]),
        );
        let body = format!(
            "{{\n{context},\n  \"end_to_end\": [\n{}\n  ]\n}}\n",
            records.join(",\n")
        );
        std::fs::write(&path, body).expect("write the baseline file");
        println!("baseline written to {}", path.display());
    }
    ok
}
