//! The repository's benchmark. One process runs one workload once:
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! and prints, as the last line of its standard output, one JSON object
//! with `correct`, `attempted`, `failed` and `metrics`: the end-to-end
//! metrics of `BENCHMARK.json` with `--trace 0`, the per-layer ones with
//! `--trace 1`. `benchmark list` prints the metric table, `benchmark all`
//! runs every workload both ways, each in a process of its own, and
//! `benchmark repeat <n>` runs `n` sets and prints the spread of every cell.

mod design;
mod gen;
mod json;
mod layers;
mod outcome;
mod runner;
mod serving;
mod spec;
mod stats;
mod trace;

use std::fmt::{Display, Write as _};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::str::FromStr;

use outcome::Outcome;
use spec::{Layer, Manifest, Workload};

/// Where traces and spill files go: `benchmark/out/`, whatever the current
/// directory is.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Workload,
    seed: u64,
    seconds: f64,
    traced: bool,
}

/// Value of `--name` in `args`, if present.
fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

/// Value of `--name` parsed, or `default` when the flag is absent.
fn flag_or<T: FromStr>(args: &[String], name: &str, default: T) -> Result<T, String>
where
    T::Err: Display,
{
    flag(args, name).map_or(Ok(default), |v| {
        v.parse().map_err(|e| format!("{name}: {e}"))
    })
}

fn parse_run(args: &[String], manifest: &Manifest) -> Result<RunArgs, String> {
    let name = flag(args, "--workload").ok_or("missing --workload")?;
    let workload = Workload::parse(name).ok_or_else(|| format!("unknown workload `{name}`"))?;
    let seed = flag_or(args, "--seed", 1)?;
    let seconds = flag_or(args, "--seconds", manifest.run_seconds)?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} is out of range"));
    }
    let traced = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace takes 0 or 1, not `{other}`")),
    };
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        traced,
    })
}

fn run_workload(args: &RunArgs) -> Result<Outcome, String> {
    let trace_file = out_dir().join(format!("trace-{}.json", args.workload.name()));
    match (args.workload.serving(), args.traced) {
        (None, false) => design::run(args.seed, args.seconds),
        (None, true) => design::run_traced(args.seed, args.seconds, &trace_file),
        (Some(spec), false) => serving::run(args.workload, spec, args.seed, args.seconds),
        (Some(spec), true) => {
            serving::run_traced(args.workload, spec, args.seed, args.seconds, &trace_file)
        }
    }
}

/// The result line: every metric of the layer the run was asked for, by
/// the manifest's names and units. A per-layer metric the workload does not
/// exercise reads 0; an end-to-end metric must be there and must not be 0.
fn result_line(outcome: &Outcome, manifest: &Manifest, layer: Layer) -> Result<String, String> {
    for (name, _) in &outcome.metrics {
        if !manifest.metrics.iter().any(|m| m.name == *name) {
            return Err(format!("metric `{name}` is not in BENCHMARK.json"));
        }
    }
    let mut metrics = String::new();
    for m in manifest.layer(layer) {
        let value = outcome
            .metrics
            .iter()
            .find(|(name, _)| *name == m.name)
            .map(|(_, v)| *v);
        let value = match (value, layer) {
            (Some(v), _) if !v.is_finite() => {
                return Err(format!("metric `{}` is not a finite number", m.name))
            }
            (Some(v), Layer::PerLayer) => v,
            (None, Layer::PerLayer) => 0.0,
            (Some(v), Layer::EndToEnd) if v != 0.0 => v,
            (_, Layer::EndToEnd) => return Err(format!("metric `{}` is missing or 0", m.name)),
        };
        if !metrics.is_empty() {
            metrics.push_str(", ");
        }
        let _ = write!(
            metrics,
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json::quote(&m.name),
            json::quote(&m.unit)
        );
    }
    Ok(format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.failed == 0,
        outcome.attempted,
        outcome.failed
    ))
}

fn list(manifest: &Manifest) {
    println!("workloads (one process each; --seed orders the operations, sizes are pinned):");
    for (name, why) in &manifest.workloads {
        println!("  {name}: {why}");
        match Workload::parse(name).and_then(Workload::serving) {
            None => println!(
                "    closed loop, one thread; a pass designs paper, tpch-lite, star-{:?} ({} dimensions), genetic on star-{}, greedy and exhaustive on star-{:?}; op = one pass, tail = p{}",
                spec::design::STAR_QUERIES,
                spec::design::STAR_DIMENSIONS,
                spec::design::GENETIC_QUERIES,
                spec::design::EXHAUSTIVE_STAR,
                spec::design::TAIL_PERCENTILE
            ),
            Some(s) => println!(
                "    tpch-lite at scale {}, {}; five rounds, each a new server: closed loop with one ticket per core in whole blocks of 177 reads (traced run: open loop at {}/s); {} % of reads as SQL text; op = one read, tail = p{}{}",
                spec::SERVING_DATA.scale,
                s.budget_divisor.map_or("resident".to_string(), |d| format!("memory budget = base bytes / {d}")),
                s.rate,
                s.sql_share * 100.0,
                s.tail_percentile,
                s.writes.map_or(String::new(), |w| format!(
                    "; appends of {} rows every {:?}, refresh every {:?}",
                    w.rows_per_append, w.append_every, w.refresh_every
                ))
            ),
        }
    }
    println!("\nrun_seconds: {}", manifest.run_seconds);
    println!(
        "\n{:<44} {:<7} {:<7} bound",
        "end-to-end metric", "unit", "better"
    );
    for m in manifest.layer(Layer::EndToEnd) {
        println!(
            "{:<44} {:<7} {:<7} {}",
            m.name,
            m.unit,
            m.better,
            m.bound.map_or("-".to_string(), |b| b.to_string())
        );
    }
    println!("\n{:<44} {:<7} {:<7}", "per-layer metric", "unit", "better");
    for m in manifest.layer(Layer::PerLayer) {
        println!("{:<44} {:<7} {:<7}", m.name, m.unit, m.better);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let manifest = match Manifest::load() {
        Ok(m) => m,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.first().map(String::as_str) {
        Some("list") => {
            list(&manifest);
            Ok(true)
        }
        Some("all") => runner::all(&args[1..], &manifest),
        Some("repeat") => runner::repeat(&args[1..], &manifest),
        _ => parse_run(&args, &manifest).and_then(|run| {
            // The engine's spill files belong with the benchmark's other
            // leavings, not in a target directory of the checkout's root.
            if std::env::var_os("MVDESIGN_SPILL_DIR").is_none() {
                std::env::set_var("MVDESIGN_SPILL_DIR", out_dir().join("spill"));
            }
            let steal = outcome::StealWatch::start();
            let outcome = run_workload(&run)?;
            if let Some(share) = steal.share() {
                eprintln!(
                    "host: other guests held {:.1} % of this run's CPU time{}",
                    share * 100.0,
                    if share > 0.05 {
                        "; its timings measure them too"
                    } else {
                        ""
                    }
                );
            }
            let layer = if run.traced {
                Layer::PerLayer
            } else {
                Layer::EndToEnd
            };
            println!("{}", result_line(&outcome, &manifest, layer)?);
            Ok(outcome.failed == 0)
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_driver_s_command_line_parses() {
        let manifest = Manifest::load().unwrap();
        let run = parse_run(
            &args("--workload mixed-paged --seed 7 --seconds 12 --trace 1"),
            &manifest,
        )
        .unwrap();
        assert_eq!(
            run,
            RunArgs {
                workload: Workload::MixedPaged,
                seed: 7,
                seconds: 12.0,
                traced: true
            }
        );
        assert!(parse_run(&args("--workload nope"), &manifest).is_err());
        assert!(parse_run(&args("--workload dash --trace 2"), &manifest).is_err());
        assert!(parse_run(&args("--seed 1"), &manifest).is_err());
    }

    #[test]
    fn a_result_line_carries_exactly_the_layer_s_metrics() {
        let manifest = Manifest::load().unwrap();
        let mut outcome = Outcome {
            attempted: 5,
            ..Outcome::default()
        };
        for m in manifest.layer(Layer::EndToEnd) {
            outcome.set(m.name.clone(), 1.5);
        }
        let line = result_line(&outcome, &manifest, Layer::EndToEnd).unwrap();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(parsed.get("correct"), Some(&json::Json::Bool(true)));
        let names: Vec<&str> = parsed
            .get("metrics")
            .unwrap()
            .as_obj()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        let want: Vec<&str> = manifest
            .layer(Layer::EndToEnd)
            .map(|m| m.name.as_str())
            .collect();
        assert_eq!(names, want);

        // Per-layer: what a workload does not exercise reads 0.
        let line = result_line(&Outcome::default(), &manifest, Layer::PerLayer).unwrap();
        let parsed = json::parse(&line).unwrap();
        assert_eq!(
            parsed.get("metrics").unwrap().as_obj().len(),
            manifest.layer(Layer::PerLayer).count()
        );

        // A name the manifest lacks, a missing end-to-end metric and a zero
        // one are all refused.
        let mut stray = Outcome::default();
        stray.set("no.such_metric", 1.0);
        assert!(result_line(&stray, &manifest, Layer::PerLayer).is_err());
        assert!(result_line(&Outcome::default(), &manifest, Layer::EndToEnd).is_err());
        outcome.metrics[0].1 = 0.0;
        assert!(result_line(&outcome, &manifest, Layer::EndToEnd).is_err());
    }
}
