//! `mvdesign-cli` — design materialized views from a scenario file.
//!
//! ```text
//! mvdesign-cli design  <scenario.mvd> [--algorithm NAME] [--maintenance shared|isolated]
//!                      [--incremental FRACTION] [--rotations K] [--parallelism N] [--dot]
//! mvdesign-cli explain <scenario.mvd>         # print the annotated MVPP
//! mvdesign-cli validate <scenario.mvd>        # parse + validate only
//! mvdesign-cli example                        # print a starter scenario file
//! ```
//!
//! Algorithms: `greedy` (paper Figure 9, default), `exhaustive`, `genetic`,
//! `annealing`, `random`, `all`, `none`.

use std::collections::BTreeSet;
use std::process::ExitCode;

use mvdesign::core::{
    evaluate, Designer, DesignerConfig, ExhaustiveSelection, GenerateConfig, GeneticSelection,
    GreedySelection, MaintenanceMode, MaintenancePolicy, MaterializeAll, MaterializeNone,
    RandomSearch, SelectionAlgorithm, SimulatedAnnealing,
};
use mvdesign::cost::{CostEstimator, EstimationMode, PaperCostModel};
use mvdesign::optimizer::Planner;
use mvdesign::workload::{parse_scenario, render_catalog, Scenario};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let Some(command) = args.first() else {
        return Err(usage());
    };
    match command.as_str() {
        "design" => design(&args[1..]),
        "explain" => explain(&args[1..]),
        "validate" => validate(&args[1..]),
        "example" | "--help" | "-h" | "help" if args.len() > 1 => {
            Err(with_usage(format!("`{command}` takes no arguments")))
        }
        "example" => {
            print!("{}", example_file());
            Ok(())
        }
        "--help" | "-h" | "help" => {
            println!("{}", usage());
            Ok(())
        }
        other => Err(with_usage(format!("unknown command `{other}`"))),
    }
}

fn usage() -> String {
    "usage: mvdesign-cli <design|explain|validate|example> [scenario.mvd] [options]\n\
     options for `design`:\n\
       --algorithm greedy|exhaustive|genetic|annealing|random|all|none\n\
       --maintenance shared|isolated\n\
       --incremental FRACTION      (append fraction in [0, 1]; views fold deltas where cheaper)\n\
       --rotations K               (candidate MVPPs to try, default 8)\n\
       --parallelism N             (worker threads: candidate MVPPs are\n\
                                    designed side by side, and exhaustive\n\
                                    search splits its subsets; 0 = all cores\n\
                                    (default), 1 = sequential; the result is\n\
                                    identical at any setting)\n\
       --trace                     (print the greedy decision trace)\n\
       --dot                       (also print the chosen MVPP as Graphviz)"
        .to_string()
}

/// An argument error: the message, then the usage.
fn with_usage(message: String) -> String {
    format!("{message}\n{}", usage())
}

/// Options of `design` that take a value, and its bare flags. `explain` and
/// `validate` take none.
const DESIGN_VALUE_OPTIONS: [&str; 5] = [
    "--algorithm",
    "--maintenance",
    "--incremental",
    "--rotations",
    "--parallelism",
];
const DESIGN_FLAGS: [&str; 2] = ["--trace", "--dot"];

/// A subcommand's arguments, split in one pass so that nothing is silently
/// ignored: the scenario path, `--option value` pairs and bare `--flag`s.
struct Parsed<'a> {
    path: &'a str,
    values: Vec<(&'a str, &'a str)>,
    flags: Vec<&'a str>,
}

impl<'a> Parsed<'a> {
    fn new(args: &'a [String], value_options: &[&str], flags: &[&str]) -> Result<Self, String> {
        let (mut path, mut values, mut set_flags) = (None, Vec::new(), Vec::new());
        let mut rest = args.iter().map(String::as_str);
        while let Some(arg) = rest.next() {
            if value_options.contains(&arg) {
                let value = rest
                    .next()
                    .ok_or_else(|| with_usage(format!("option `{arg}` needs a value")))?;
                values.push((arg, value));
            } else if flags.contains(&arg) {
                set_flags.push(arg);
            } else if arg.starts_with("--") {
                return Err(with_usage(format!("unknown option `{arg}`")));
            } else if path.is_none() {
                path = Some(arg);
            } else {
                return Err(with_usage(format!("unexpected argument `{arg}`")));
            }
        }
        Ok(Parsed {
            path: path.ok_or_else(|| with_usage("missing scenario file".into()))?,
            values,
            flags: set_flags,
        })
    }

    fn load(&self) -> Result<Scenario, String> {
        let path = self.path;
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        parse_scenario(&text).map_err(|e| format!("{path}: {e}"))
    }

    fn option(&self, name: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }

    fn flag(&self, name: &str) -> bool {
        self.flags.contains(&name)
    }
}

fn maintenance_mode(args: &Parsed) -> Result<MaintenanceMode, String> {
    match args.option("--maintenance") {
        None | Some("shared") => Ok(MaintenanceMode::SharedRecompute),
        Some("isolated") => Ok(MaintenanceMode::Isolated),
        Some(other) => Err(format!("unknown maintenance mode `{other}`")),
    }
}

fn validate(args: &[String]) -> Result<(), String> {
    let scenario = Parsed::new(args, &[], &[])?.load()?;
    println!(
        "ok: {} relations, {} queries",
        scenario.catalog.len(),
        scenario.workload.len()
    );
    Ok(())
}

fn design(args: &[String]) -> Result<(), String> {
    let args = &Parsed::new(args, &DESIGN_VALUE_OPTIONS, &DESIGN_FLAGS)?;
    let scenario = args.load()?;
    let mode = maintenance_mode(args)?;
    let rotations: usize = match args.option("--rotations") {
        Some(k) => k.parse().map_err(|_| format!("`{k}` is not a number"))?,
        None => 8,
    };
    let policy = match args.option("--incremental") {
        Some(f) => {
            let update_fraction: f64 = f.parse().map_err(|_| format!("`{f}` is not a number"))?;
            if !(0.0..=1.0).contains(&update_fraction) {
                return Err(format!(
                    "`--incremental` takes an append fraction in [0, 1], not `{f}`"
                ));
            }
            MaintenancePolicy::Incremental { update_fraction }
        }
        None => MaintenancePolicy::Recompute,
    };

    let parallelism: usize = match args.option("--parallelism") {
        Some(n) => n.parse().map_err(|_| format!("`{n}` is not a number"))?,
        None => 0,
    };

    let algorithm: Box<dyn SelectionAlgorithm> = match args.option("--algorithm") {
        None | Some("greedy") => Box::new(GreedySelection::new()),
        Some("exhaustive") => Box::new(ExhaustiveSelection {
            parallelism,
            ..ExhaustiveSelection::default()
        }),
        Some("genetic") => Box::new(GeneticSelection::default()),
        Some("annealing") => Box::new(SimulatedAnnealing::default()),
        Some("random") => Box::new(RandomSearch::default()),
        Some("all") => Box::new(MaterializeAll),
        Some("none") => Box::new(MaterializeNone),
        Some(other) => return Err(format!("unknown algorithm `{other}`")),
    };

    let designer = Designer::with_config(DesignerConfig {
        generate: GenerateConfig {
            max_rotations: rotations,
        },
        maintenance: mode,
        maintenance_policy: policy,
        parallelism,
        ..DesignerConfig::default()
    });
    let design = designer
        .design_with(&scenario.catalog, &scenario.workload, algorithm.as_ref())
        .map_err(|e| e.to_string())?;
    let (annotated, materialized, cost) = (&design.mvpp, &design.materialized, &design.cost);

    println!("algorithm: {}", algorithm.name());
    println!("materialize {} view(s):", materialized.len());
    for id in materialized {
        let node = annotated.mvpp().node(*id);
        let ann = annotated.annotation(*id);
        println!(
            "  {:<8} build {:>14.0}  read {:>10.0}  {}",
            node.label(),
            ann.ca,
            ann.scan,
            node.expr()
        );
    }
    println!("\ncost per period (block accesses):");
    println!("  query processing {:>16.0}", cost.query_processing);
    println!("  view maintenance {:>16.0}", cost.maintenance);
    println!("  total            {:>16.0}", cost.total);
    println!("\nper query:");
    for (name, c) in &cost.per_query {
        println!("  {name:<16} {c:>16.0}");
    }
    let none = evaluate(annotated, &BTreeSet::new(), mode);
    if none.total > 0.0 {
        println!(
            "\nvs. no materialization: {:.0} ({:.1}% saved)",
            none.total,
            100.0 * (none.total - cost.total) / none.total
        );
    }
    if args.flag("--trace") {
        println!("\ndecision trace (paper greedy):");
        print!("{}", mvdesign::core::render_trace(&design.trace, annotated));
    }
    if args.flag("--dot") {
        println!("\n{}", annotated.to_dot("design"));
    }
    Ok(())
}

fn explain(args: &[String]) -> Result<(), String> {
    let scenario = Parsed::new(args, &[], &[])?.load()?;
    let design = Designer::with_config(DesignerConfig::default())
        .design(&scenario.catalog, &scenario.workload)
        .map_err(|e| e.to_string())?;
    println!("catalog:\n{}", render_catalog(&scenario.catalog));
    let est = CostEstimator::new(
        &scenario.catalog,
        EstimationMode::Calibrated,
        PaperCostModel::default(),
    );
    let planner = Planner::new();
    for q in scenario.workload.queries() {
        println!("plan for {} (fq={}):", q.name(), q.frequency());
        let optimal = planner.optimize(q.root(), &est);
        print!("{}", mvdesign::cost::explain(&optimal, &est));
        println!();
    }
    println!("chosen MVPP (rotation {}):", design.candidate_index);
    for node in design.mvpp.mvpp().nodes() {
        let ann = design.mvpp.annotation(node.id());
        let marker = if design.materialized.contains(&node.id()) {
            "▣"
        } else if node.is_leaf() {
            "□"
        } else {
            " "
        };
        println!(
            "  {marker} {:<8} Ca={:>14.0} w={:>14.0}  {}",
            node.label(),
            ann.ca,
            ann.weight,
            node.expr().op_label()
        );
    }
    Ok(())
}

fn example_file() -> String {
    format!(
        "# mvdesign scenario — edit and run `mvdesign-cli design this_file`\n\n{}\n\
         query by_city 25 {{\n    SELECT city, SUM(amount) AS total\n    FROM Sales, Stores\n    \
         WHERE Sales.store = Stores.store\n    GROUP BY Stores.city\n}}\n\n\
         query raw_sales 2 {{\n    SELECT city, amount FROM Sales, Stores\n    \
         WHERE Sales.store = Stores.store\n}}\n",
        render_catalog(&example_catalog())
    )
}

fn example_catalog() -> mvdesign::catalog::Catalog {
    use mvdesign::catalog::AttrType;
    let mut c = mvdesign::catalog::Catalog::new();
    c.relation("Stores")
        .attr("store", AttrType::Int)
        .attr("city", AttrType::Text)
        .records(1_000.0)
        .blocks(100.0)
        .update_frequency(0.5)
        .selectivity("city", 0.05)
        .finish()
        .expect("static catalog");
    c.relation("Sales")
        .attr("store", AttrType::Int)
        .attr("amount", AttrType::Int)
        .records(100_000.0)
        .blocks(10_000.0)
        .update_frequency(2.0)
        .finish()
        .expect("static catalog");
    c.set_join_selectivity(
        mvdesign::algebra::AttrRef::new("Sales", "store"),
        mvdesign::algebra::AttrRef::new("Stores", "store"),
        1.0 / 1_000.0,
    )
    .expect("static catalog");
    c
}
