//! The `design` workload: one thread designs view sets, pass after pass.
//! Only `optimizer`, `cost` and `core` work here; a change to selection or
//! to the cost model shows in this workload's time and in
//! `period_io_blocks`, and nowhere else.

use std::path::Path;
use std::time::{Duration, Instant};

use crate::gen::Rng;
use crate::layers::{self, Algorithm, Design, DesignSummary, Quality, Scenario, Stages};
use crate::outcome::{peak_rss_mb, reset_peak_rss, rounds_in, Outcome, Round};
use crate::spec::design as pinned;
use crate::spec::{TracedPhases, QUALITY_DATA};
use crate::stats::Samples;
use crate::trace::{SpanId, Tracer};

/// One design call of a pass.
struct Step {
    what: String,
    scenario: usize,
    algorithm: Algorithm,
}

/// The scenarios a pass designs and the calls it makes on them.
struct Plan {
    scenarios: Vec<Scenario>,
    steps: Vec<Step>,
    /// The order a pass makes its calls in.
    order: Vec<usize>,
    tpch: usize,
    small_star_greedy: usize,
    small_star_exhaustive: usize,
}

impl Plan {
    /// The scenarios are pinned, star schemas included: what they hold
    /// decides how long a design takes, and that must not move with the
    /// seed. `seed` picks the genetic algorithm's random stream and the
    /// order of the calls within a pass.
    fn build(seed: u64) -> Self {
        let mut scenarios = vec![Scenario::paper(), Scenario::tpch_lite()];
        let mut steps = vec![
            Step {
                what: "paper/greedy".into(),
                scenario: 0,
                algorithm: Algorithm::Greedy,
            },
            Step {
                what: "tpch-lite/greedy".into(),
                scenario: 1,
                algorithm: Algorithm::Greedy,
            },
        ];
        for queries in pinned::STAR_QUERIES {
            scenarios.push(Scenario::star(
                pinned::STAR_DIMENSIONS,
                queries,
                pinned::STAR_SEED,
            ));
            steps.push(Step {
                what: format!("star-{queries}/greedy"),
                scenario: scenarios.len() - 1,
                algorithm: Algorithm::Greedy,
            });
            if queries == pinned::GENETIC_QUERIES {
                steps.push(Step {
                    what: format!("star-{queries}/genetic"),
                    scenario: scenarios.len() - 1,
                    algorithm: Algorithm::Genetic { seed },
                });
            }
        }
        let (dimensions, queries) = pinned::EXHAUSTIVE_STAR;
        scenarios.push(Scenario::star(dimensions, queries, pinned::STAR_SEED));
        let small = scenarios.len() - 1;
        let small_star_greedy = steps.len();
        steps.push(Step {
            what: format!("star-{dimensions}x{queries}/greedy"),
            scenario: small,
            algorithm: Algorithm::Greedy,
        });
        steps.push(Step {
            what: format!("star-{dimensions}x{queries}/exhaustive"),
            scenario: small,
            algorithm: Algorithm::Exhaustive,
        });
        let mut order: Vec<usize> = (0..steps.len()).collect();
        let mut rng = Rng::new(seed);
        for i in (1..order.len()).rev() {
            order.swap(i, rng.next_u64() as usize % (i + 1));
        }
        Self {
            scenarios,
            steps,
            order,
            tpch: 1,
            small_star_greedy,
            small_star_exhaustive: small_star_greedy + 1,
        }
    }
}

/// Builds the scenarios and makes the first, cold pass over them: what a
/// designer does before its passes are worth timing. Returns the designs of
/// that pass, which every later pass must repeat.
fn set_up(seed: u64) -> Result<(Plan, Vec<DesignSummary>), String> {
    let plan = Plan::build(seed);
    let first = plan
        .steps
        .iter()
        .map(|s| Design::run(&plan.scenarios[s.scenario], s.algorithm).map(|d| d.summary()))
        .collect::<Result<Vec<_>, String>>()?;
    Ok((plan, first))
}

/// The observed cost and space of the greedy TPC-H-lite design. Not part of
/// the timed set-up: `measured_design_cost` spends its time in one
/// nested-loop kernel whose speed moves by 70 % with where the linker
/// happens to put it, which would make `setup_s` report the build, not the
/// program.
fn quality(plan: &Plan) -> Result<Quality, String> {
    let tpch = &plan.scenarios[plan.tpch];
    layers::quality(tpch, &Design::run(tpch, Algorithm::Greedy)?, QUALITY_DATA)
}

/// What the first pass must show: the paper example still selects its
/// pinned views at its pinned cost, and each smarter algorithm does no
/// worse than greedy.
fn gate(plan: &Plan, expected: &[DesignSummary], out: &mut Outcome) {
    let paper = &expected[0];
    out.check(paper.view_labels == pinned::PAPER_VIEWS, || {
        format!("paper example selects {:?}", paper.view_labels)
    });
    out.check(paper.total_cost == pinned::PAPER_TOTAL, || {
        format!("paper example costs {}", paper.total_cost)
    });
    out.check(!expected[plan.tpch].view_labels.is_empty(), || {
        "TPC-H-lite design selects no view".into()
    });
    let greedy = expected[plan.small_star_greedy].total_cost;
    let optimum = expected[plan.small_star_exhaustive].total_cost;
    out.check(optimum <= greedy, || {
        format!("exhaustive total {optimum} above greedy {greedy}")
    });
    for (i, step) in plan.steps.iter().enumerate() {
        if let Algorithm::Genetic { .. } = step.algorithm {
            let greedy = expected[i - 1].total_cost;
            out.check(expected[i].total_cost <= greedy, || {
                format!("{}: genetic total above greedy {greedy}", step.what)
            });
        }
    }
}

/// A run is rounds: set up, then pass after pass for the round's share of
/// the time. Every timing reported is the median of the rounds'.
pub fn run(seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (plan, expected) = set_up(seed)?;
    gate(&plan, &expected, &mut out);
    let quality = quality(&plan)?;
    drop(plan);

    let rounds = rounds_in(seconds);
    let length = Duration::from_secs_f64(seconds / rounds as f64);
    let mut measured = Vec::with_capacity(rounds);
    for round in 0..rounds {
        let started = Instant::now();
        let (plan, first) = set_up(seed)?;
        let setup_s = started.elapsed().as_secs_f64();
        for ((step, got), want) in plan.steps.iter().zip(&first).zip(&expected) {
            out.check(got == want, || format!("{}: design changed", step.what));
        }

        reset_peak_rss();
        let started = Instant::now();
        let mut passes = Vec::new();
        while started.elapsed() < length {
            let pass = Instant::now();
            for &i in &plan.order {
                let step = &plan.steps[i];
                let got = Design::run(&plan.scenarios[step.scenario], step.algorithm)?.summary();
                out.check(got == expected[i], || {
                    format!("{}: design changed", step.what)
                });
            }
            passes.push(pass.elapsed().as_secs_f64() * 1e3);
        }
        let elapsed = started.elapsed().as_secs_f64();
        let passes = Samples::new(passes);
        eprintln!(
            "design round {}: set-up {setup_s:.3} s; {}",
            round + 1,
            passes.describe("pass", "ms")
        );
        measured.push(Round {
            setup_s,
            peak_rss_mb: peak_rss_mb(),
            ops_per_s: passes.len() as f64 / elapsed,
            tail_ms: passes.percentile(pinned::TAIL_PERCENTILE),
        });
    }
    out.set_round_medians(&measured);
    out.set("space_amp", quality.space_amp);
    out.set("period_io_blocks", quality.period_io_blocks);
    Ok(out)
}

/// One pass through the stages of the designer, a span around each.
fn staged_pass(plan: &Plan, tracer: &mut Tracer, pass: u32) -> Vec<DesignSummary> {
    let root = tracer.begin("design.pass", None, pass);
    let mut summaries: Vec<Option<DesignSummary>> = vec![None; plan.steps.len()];
    for &i in &plan.order {
        summaries[i] = Some(staged_design(plan, &plan.steps[i], tracer, root.id(), pass));
    }
    tracer.end(root);
    summaries
        .into_iter()
        .map(|s| s.expect("the order visits every step"))
        .collect()
}

fn staged_design(
    plan: &Plan,
    step: &Step,
    tracer: &mut Tracer,
    parent: Option<SpanId>,
    op: u32,
) -> DesignSummary {
    let call = tracer.begin("core.design", parent, op);
    let stages = Stages::new(&plan.scenarios[step.scenario]);

    let span = tracer.begin("optimizer.plan", call.id(), op);
    stages.plan();
    tracer.end(span);

    let span = tracer.begin("core.generate", call.id(), op);
    let candidates = stages.generate();
    tracer.end(span);

    let span = tracer.begin("core.annotate", call.id(), op);
    let annotated = stages.annotate(candidates);
    tracer.end(span);

    let span = tracer.begin("core.select_greedy", call.id(), op);
    stages.greedy_trace(&annotated);
    tracer.end(span);

    let name = match step.algorithm {
        Algorithm::Greedy => "core.select_greedy",
        Algorithm::Genetic { .. } => "core.select_genetic",
        Algorithm::Exhaustive => "core.select_exhaustive",
    };
    let span = tracer.begin(name, call.id(), op);
    let selected = stages.select(&annotated, step.algorithm);
    tracer.end(span);

    let span = tracer.begin("core.evaluate", call.id(), op);
    let summary = stages.evaluate(&annotated, &selected);
    tracer.end(span);

    tracer.end(call);
    summary
}

pub fn run_traced(seed: u64, seconds: f64, trace_file: &Path) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let (plan, expected) = set_up(seed)?;
    gate(&plan, &expected, &mut out);
    let quality = quality(&plan)?;
    let budget = TracedPhases::of(seconds).replay * 2;

    // The same passes twice: tracing off, then on. The difference is what
    // tracing costs.
    let mut off = Tracer::new(false);
    let started = Instant::now();
    let mut passes = 0u32;
    while started.elapsed() < budget || passes == 0 {
        staged_pass(&plan, &mut off, passes);
        passes += 1;
    }
    let wall_off = started.elapsed().as_secs_f64();

    let mut tracer = Tracer::new(true);
    let started = Instant::now();
    let mut summaries = Vec::new();
    for pass in 0..passes {
        summaries = staged_pass(&plan, &mut tracer, pass);
    }
    let wall_on = started.elapsed().as_secs_f64();

    // The stages must arrive where the designer does.
    for ((step, got), want) in plan.steps.iter().zip(&summaries).zip(&expected) {
        out.check(got == want, || {
            format!("{}: staged design differs from Designer", step.what)
        });
    }

    let per_pass_ms = |name: &str| tracer.total(name) / f64::from(passes) * 1e3;
    for name in [
        "optimizer.plan",
        "core.generate",
        "core.annotate",
        "core.select_greedy",
        "core.select_genetic",
        "core.select_exhaustive",
    ] {
        out.set(format!("{name}_ms"), per_pass_ms(name));
    }
    let tpch = &summaries[plan.tpch];
    out.set("core.mvpp_nodes", tpch.mvpp_nodes as f64);
    out.set("core.views_selected", tpch.view_labels.len() as f64);
    let small_star = Stages::new(&plan.scenarios[plan.steps[plan.small_star_exhaustive].scenario]);
    let subsets = small_star
        .annotate(small_star.generate())
        .exhaustive_subsets();
    out.set(
        "core.evals_per_s",
        subsets * f64::from(passes) / tracer.total("core.select_exhaustive"),
    );
    out.set(
        "core.greedy_over_optimal",
        summaries[plan.small_star_greedy].total_cost
            / summaries[plan.small_star_exhaustive].total_cost,
    );
    out.set(
        "cost.pred_over_meas_blocks",
        quality.predicted_blocks / quality.period_io_blocks,
    );
    out.set("trace.overhead_share", (wall_on - wall_off) / wall_off);
    eprintln!(
        "traced {passes} passes: {:.1} ms each untraced, {:.1} ms traced; glue (self time of core.design) {:.2} ms/pass",
        wall_off / f64::from(passes) * 1e3,
        wall_on / f64::from(passes) * 1e3,
        tracer.total_self("core.design") / f64::from(passes) * 1e3,
    );
    tracer
        .write(trace_file, "design", seed)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(out)
}
