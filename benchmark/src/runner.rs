//! `all` and `repeat`: many runs, each workload in a process of its own,
//! with the tables a person reads afterwards.

use std::fmt::Write as _;
use std::fs;
use std::path::Path;
use std::process::{Command, Stdio};

use crate::flag_or;
use crate::json::{self, Json};
use crate::spec::{Layer, Manifest, WORKLOADS};
use crate::stats::{median_of, spread};

/// What a child process reported.
struct Reported {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

/// Runs one workload once in a process of its own and parses its last line.
fn run_child(workload: &str, seed: u64, seconds: f64, traced: bool) -> Result<Reported, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .next_back()
        .ok_or_else(|| format!("{workload}: no result ({})", output.status))?;
    let parsed = json::parse(line).map_err(|e| format!("{workload}: bad result line: {e}"))?;
    let count = |key: &str| parsed.get(key).and_then(Json::as_f64).unwrap_or(0.0) as u64;
    Ok(Reported {
        correct: output.status.success()
            && parsed.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: count("attempted"),
        failed: count("failed"),
        metrics: parsed
            .get("metrics")
            .map(Json::as_obj)
            .unwrap_or_default()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

fn seconds_of(args: &[String], manifest: &Manifest) -> Result<f64, String> {
    if args.iter().any(|a| a == "--smoke") {
        return Ok(4.0);
    }
    flag_or(args, "--seconds", manifest.run_seconds)
}

/// Every workload, untraced then traced; prints every metric by name with
/// its unit, one column per workload.
pub fn all(args: &[String], manifest: &Manifest) -> Result<bool, String> {
    let seconds = seconds_of(args, manifest)?;
    let seed = flag_or(args, "--seed", 1)?;
    let mut columns = Vec::new();
    let mut correct = true;
    for workload in WORKLOADS {
        let mut column = Vec::new();
        for traced in [false, true] {
            eprintln!(
                "== {} ({}, {seconds} s, seed {seed})",
                workload.name(),
                if traced { "traced" } else { "untraced" }
            );
            let reported = run_child(workload.name(), seed, seconds, traced)?;
            eprintln!(
                "== {}: attempted {}, failed {}",
                workload.name(),
                reported.attempted,
                reported.failed
            );
            correct &= reported.correct;
            column.extend(reported.metrics);
        }
        columns.push(column);
    }
    print!("{:<44} {:<7}", "metric", "unit");
    for workload in WORKLOADS {
        print!(" {:>14}", workload.name());
    }
    println!();
    for m in &manifest.metrics {
        print!("{:<44} {:<7}", m.name, m.unit);
        let mut exercised = false;
        for column in &columns {
            let value = column
                .iter()
                .find(|(name, _)| *name == m.name)
                .map_or(0.0, |(_, v)| *v);
            exercised |= value != 0.0;
            print!(" {:>14}", format_value(value));
        }
        println!();
        if !exercised {
            eprintln!("warning: `{}` read 0 on every workload", m.name);
        }
    }
    println!("correct: {correct}");
    Ok(correct)
}

fn format_value(v: f64) -> String {
    if v == 0.0 {
        "0".into()
    } else if v.abs() >= 1e5 {
        format!("{v:.4e}")
    } else if v.abs() >= 100.0 {
        format!("{v:.1}")
    } else {
        format!("{v:.4}")
    }
}

/// `n` sets of untraced runs, a new seed for each set; prints, per cell,
/// min, median, max and the inter-quartile spread against the bound, and
/// records the spreads in `benchmark/spread.json`.
pub fn repeat(args: &[String], manifest: &Manifest) -> Result<bool, String> {
    let sets: u64 = args
        .first()
        .ok_or("repeat takes the number of sets")?
        .parse()
        .map_err(|e| format!("repeat: {e}"))?;
    let seconds = seconds_of(args, manifest)?;
    let first_seed: u64 = flag_or(args, "--seed", 1)?;
    let mut ok = true;
    let mut record = String::from("{\n");
    let _ = writeln!(
        record,
        "  \"sets\": {sets}, \"seconds\": {seconds}, \"first_seed\": {first_seed},\n  \"cells\": ["
    );
    println!(
        "{:<12} {:<18} {:>12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "min", "median", "max", "spread", "bound"
    );
    let mut first_cell = true;
    for workload in WORKLOADS {
        let mut runs = Vec::new();
        for i in 0..sets {
            let seed = first_seed + i;
            eprintln!(
                "== {} set {} of {sets} (seed {seed})",
                workload.name(),
                i + 1
            );
            let reported = run_child(workload.name(), seed, seconds, false)?;
            ok &= reported.correct;
            runs.push(reported.metrics);
        }
        for m in manifest.layer(Layer::EndToEnd) {
            let values: Vec<f64> = runs
                .iter()
                .filter_map(|run| run.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v))
                .collect();
            let bound = m.bound.unwrap_or(0.0);
            let s = spread(&values);
            // set-up time is held to its medians, not to its spread.
            let verdict = if m.name == "setup_s" {
                "-"
            } else if s <= bound / 3.0 {
                "steady"
            } else if s <= bound {
                "within bound"
            } else {
                ok = false;
                "OVER BOUND"
            };
            let min = values.iter().copied().fold(f64::INFINITY, f64::min);
            let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            println!(
                "{:<12} {:<18} {:>12} {:>12} {:>12} {:>8.4} {:>6}  {verdict}",
                workload.name(),
                m.name,
                format_value(min),
                format_value(median_of(&values)),
                format_value(max),
                s,
                bound
            );
            if !first_cell {
                record.push_str(",\n");
            }
            first_cell = false;
            let _ = write!(
                record,
                "    {{\"workload\": {}, \"metric\": {}, \"min\": {min}, \"median\": {}, \"max\": {max}, \"spread\": {s}, \"bound\": {bound}}}",
                json::quote(workload.name()),
                json::quote(&m.name),
                median_of(&values)
            );
        }
    }
    record.push_str("\n  ]\n}\n");
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("spread.json");
    fs::write(&path, record).map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(ok)
}
