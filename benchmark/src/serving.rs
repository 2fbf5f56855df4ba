//! The serving workloads — `dash`, `sql`, `mixed-paged` — over TPC-H-lite:
//! the load generator's running half, the correctness gates, and the
//! traced replay through each layer.
//!
//! Load comes from at most two threads: one sends reads, one sends the
//! maintenance writes of `mixed-paged`. A third thread only waits for
//! answers and checks them.

use std::collections::{BTreeSet, VecDeque};
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::thread;
use std::time::{Duration, Instant};

use crate::gen::{due_times, Form, Read, ReadStream, Write, WriteKind, WritePlan};
use crate::layers::{
    self, Client, Fixture, PoolCounters, QueryClass, Refreshed, Row, Snap, Srv, Ticket, Wh,
};
use crate::outcome::{peak_rss_mb, reset_peak_rss, rounds_in, Outcome, Round};
use crate::spec::{
    Phases, Serving, TracedPhases, Workload, APPEND_RELATIONS, LADDER, QUALITY_DATA, SERVING_DATA,
    TPCH_SQL, TRACED_OPS, TWIN_DATA,
};
use crate::stats::{open_loop_latency, Samples};
use crate::trace::Tracer;

/// Blocks of reads drawn up front (a block is one read per unit of `fq`,
/// 177 in all); a phase that needs more wraps around.
const STREAM_BLOCKS: usize = 1024;

/// How long before a due time the generator stops sleeping and spins. A
/// plain sleep overshoots by about 0.1 ms here, twice what a view-answered
/// read takes from submission to reply; spinning for the last stretch sends
/// on time at the cost of a few percent of one core.
const SPIN: Duration = Duration::from_micros(200);

/// Writes are scheduled this far past a phase's length, and stopped when
/// its reads end: a closed loop runs on to the end of its block.
const WRITE_SLACK: Duration = Duration::from_secs(2);

/// An open-loop stretch whose answers within the window fall below this
/// share of what was sent is building a backlog.
const KEEPING_UP: f64 = 0.95;

/// More writes than this waiting at once means maintenance has fallen a
/// second behind its schedule.
const WRITE_BACKLOG_LIMIT: usize = 10;

/// Falling behind is slowness, not a wrong answer: a burst of interference
/// from outside can cause it on a correct program, and the latencies and
/// `serve.write_backlog_max` already carry it. It is logged and never
/// counted as a failed operation.
fn note_unless(holds: bool, what: impl FnOnce() -> String) {
    if !holds {
        eprintln!("note: {}", what());
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn cores() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

fn wait_until(at: Instant) {
    let now = Instant::now();
    if at > now + SPIN {
        thread::sleep(at - now - SPIN);
    }
    while Instant::now() < at {
        std::hint::spin_loop();
    }
}

struct SetUp {
    fixture: Fixture,
    server: Srv,
    mem_budget: Option<usize>,
}

/// Generate the data, design the views, build the warehouse (materialise,
/// page out under a budget) and start the server.
fn set_up(spec: &Serving) -> Result<SetUp, String> {
    let fixture = Fixture::build(SERVING_DATA, &TPCH_SQL)?;
    let mem_budget = spec.budget_divisor.map(|d| fixture.base_bytes / d);
    let server = layers::serve(fixture.warehouse(mem_budget)?);
    Ok(SetUp {
        fixture,
        server,
        mem_budget,
    })
}

/// How an answer is checked while the clock runs. The gates before and
/// after compare whole bags; in between the row count has to do.
enum Check {
    /// Read-only workloads: the count the gate saw.
    Exact(Vec<usize>),
    /// Under appends counts move; an answer must still have rows.
    NonEmpty,
}

impl Check {
    fn holds(&self, class: usize, rows: usize) -> bool {
        match self {
            Check::Exact(want) => rows == want[class],
            Check::NonEmpty => rows >= 1,
        }
    }
}

/// Every class, as merged plan and as SQL text, must return at least one
/// row and the same bag as its expression run over the base tables alone.
/// Returns the row count per class.
fn gate(fixture: &Fixture, snap: &Snap, reference: &Snap, out: &mut Outcome) -> Vec<usize> {
    fixture
        .classes
        .iter()
        .map(|class| {
            let want = match reference.query_plan(&class.root) {
                Ok(rows) => rows.sorted(),
                Err(e) => {
                    out.check(false, || format!("{}: reference failed: {e}", class.name));
                    return 0;
                }
            };
            out.check(!want.is_empty(), || {
                format!("{}: returns no rows", class.name)
            });
            for form in [Form::Merged, Form::Sql] {
                let got = snap.query(class, form).map(|rows| rows.sorted());
                out.check(got.as_ref() == Ok(&want), || {
                    format!(
                        "{} as {form:?}: differs from the base-table answer",
                        class.name
                    )
                });
            }
            want.len()
        })
        .collect()
}

/// Redeems one ticket and checks its answer; returns the reply's timings.
fn settle(
    ticket: Ticket,
    class: usize,
    classes: &[QueryClass],
    check: &Check,
    failed: &mut u64,
) -> Option<(Duration, usize)> {
    match ticket.wait() {
        Ok(reply) if check.holds(class, reply.rows.len()) => {
            Some((reply.elapsed, reply.pending_rows))
        }
        Ok(reply) => {
            *failed += 1;
            eprintln!(
                "FAILED: {} answered {} rows",
                classes[class].name,
                reply.rows.len()
            );
            None
        }
        Err(e) => {
            *failed += 1;
            eprintln!("FAILED: {}: {e}", classes[class].name);
            None
        }
    }
}

struct Closed {
    /// Answers received inside the window.
    answers: usize,
    window_s: f64,
    /// Submission to completion of each of them, as the server timed it.
    latency_ms: Vec<f64>,
}

/// One thread keeps one ticket per core outstanding for `length`. With
/// `whole_blocks` it starts on a block of reads and runs on to the end of
/// the block it is in when the time is up, so that every run answers the
/// same mix of classes whatever its seed and speed.
fn closed_loop(
    client: &Client,
    classes: &[QueryClass],
    stream: &mut ReadStream,
    length: Duration,
    whole_blocks: bool,
    check: &Check,
    out: &mut Outcome,
) -> Closed {
    let outstanding = cores();
    let mut in_flight: VecDeque<(usize, Ticket)> = VecDeque::with_capacity(outstanding);
    let mut answers = 0;
    let mut latency_ms = Vec::new();
    let block = if whole_blocks {
        stream.finish_block();
        stream.block_len()
    } else {
        1
    };
    let started = Instant::now();
    while started.elapsed() < length || answers % block != 0 {
        while in_flight.len() < outstanding {
            let read = stream.take();
            let class = usize::from(read.class);
            in_flight.push_back((class, client.submit(&classes[class], read.form)));
        }
        let (class, ticket) = in_flight.pop_front().expect("just filled");
        out.attempted += 1;
        if let Some((elapsed, _)) = settle(ticket, class, classes, check, &mut out.failed) {
            latency_ms.push(ms(elapsed));
        }
        answers += 1;
    }
    let window_s = started.elapsed().as_secs_f64();
    for (class, ticket) in in_flight {
        out.attempted += 1;
        settle(ticket, class, classes, check, &mut out.failed);
    }
    Closed {
        answers,
        window_s,
        latency_ms,
    }
}

#[derive(Default)]
struct Open {
    /// Due time to completion, per answered request.
    latency_ms: Vec<f64>,
    /// How late after its due time each request was sent.
    lateness_ms: Vec<f64>,
    /// Appended rows the views did not reflect, per answer.
    pending_rows: Vec<f64>,
    sent: usize,
    /// Answers completed before the window closed.
    done_in_window: usize,
}

impl Open {
    fn keeping_up(&self) -> bool {
        self.done_in_window as f64 >= KEEPING_UP * self.sent as f64
    }
}

/// Sends `rate` requests per second, evenly spaced, whatever the server
/// does; a second thread waits for the answers in sending order.
fn open_loop(
    client: &Client,
    classes: &[QueryClass],
    stream: &mut ReadStream,
    rate: f64,
    length: Duration,
    check: &Check,
    out: &mut Outcome,
) -> Open {
    let schedule: Vec<(Duration, Read)> = due_times(rate, length)
        .into_iter()
        .map(|due| (due, stream.take()))
        .collect();
    let started = Instant::now();
    let (open, failed) = thread::scope(|s| {
        let (tx, rx) = channel::<(Duration, Duration, usize, Ticket)>();
        let collector = s.spawn(move || {
            let mut open = Open::default();
            let mut failed = 0;
            for (due, sent, class, ticket) in rx {
                open.sent += 1;
                let Some((service, pending)) = settle(ticket, class, classes, check, &mut failed)
                else {
                    continue;
                };
                open.latency_ms
                    .push(ms(open_loop_latency(due, sent, service)));
                open.lateness_ms.push(ms(sent.saturating_sub(due)));
                open.pending_rows.push(pending as f64);
                if sent + service <= length {
                    open.done_in_window += 1;
                }
            }
            (open, failed)
        });
        for (due, read) in schedule {
            wait_until(started + due);
            let class = usize::from(read.class);
            let sent = started.elapsed();
            let ticket = client.submit(&classes[class], read.form);
            tx.send((due, sent, class, ticket))
                .expect("collector outlives the sender");
        }
        drop(tx);
        collector.join().expect("collector does not panic")
    });
    out.attempted += open.sent as u64;
    out.failed += failed;
    open
}

/// Rows `[from, from + rows)` of the twin table of an append relation.
fn twin_slice(twin: &[Vec<Row>], relation: usize, from: usize, rows: usize) -> Vec<Row> {
    twin[relation][from..from + rows].to_vec()
}

#[derive(Default)]
struct Written {
    /// Due time to applied-and-published, per append.
    append_ms: Vec<f64>,
    refresh_ms: Vec<f64>,
    attempted: u64,
    failed: u64,
    /// Most writes ever due and not yet applied at once.
    backlog_max: usize,
    /// The appends that were applied, for the reference replay.
    applied: Vec<Write>,
}

/// Sends the scheduled writes, each when due, waiting for each to be
/// applied. The server has one writer, so waiting changes nothing it does;
/// a write that overruns makes the next one late, and lateness counts.
fn write_loop(
    client: &Client,
    twin: &[Vec<Row>],
    writes: &[Write],
    started: Instant,
    stop: &AtomicBool,
) -> Written {
    let mut w = Written::default();
    let mut completions: Vec<Duration> = Vec::with_capacity(writes.len());
    for write in writes {
        wait_until(started + write.due);
        if stop.load(Ordering::SeqCst) {
            break;
        }
        let backlog = completions.iter().filter(|c| **c > write.due).count();
        w.backlog_max = w.backlog_max.max(backlog);
        let sent = started.elapsed();
        w.attempted += 1;
        let result = match write.kind {
            WriteKind::Append {
                relation,
                from,
                rows,
            } => client.append(
                APPEND_RELATIONS[relation],
                twin_slice(twin, relation, from, rows),
            ),
            WriteKind::Refresh => client.refresh(),
        }
        .wait();
        match result {
            Ok(elapsed) => {
                let latency = ms(open_loop_latency(write.due, sent, elapsed));
                completions.push(sent + elapsed);
                match write.kind {
                    WriteKind::Refresh => w.refresh_ms.push(latency),
                    WriteKind::Append { .. } => {
                        w.append_ms.push(latency);
                        w.applied.push(*write);
                    }
                }
            }
            Err(e) => {
                w.failed += 1;
                completions.push(started.elapsed());
                eprintln!("FAILED: write due at {:?}: {e}", write.due);
            }
        }
    }
    w
}

/// The maintenance side of one server's life: the plan, the rows to append
/// and where the next append takes them from.
struct Maintenance<'a> {
    plan: WritePlan,
    twin: &'a [Vec<Row>],
    cursors: Vec<usize>,
    /// Everything written so far, all phases together.
    total: Written,
}

impl<'a> Maintenance<'a> {
    fn new(plan: WritePlan, twin: &'a [Vec<Row>]) -> Self {
        Self {
            plan,
            twin,
            cursors: vec![0; plan.relations],
            total: Written::default(),
        }
    }

    fn absorb(&mut self, phase: Written) -> Written {
        self.total.attempted += phase.attempted;
        self.total.failed += phase.failed;
        self.total.backlog_max = self.total.backlog_max.max(phase.backlog_max);
        self.total.applied.extend_from_slice(&phase.applied);
        phase
    }
}

/// The twin rows a server's life of `length` can consume at most.
fn twin_rows(fixture: &Fixture, plan: Option<WritePlan>, length: Duration) -> Vec<Vec<Row>> {
    match plan {
        Some(plan) => fixture.twin_rows(TWIN_DATA, &APPEND_RELATIONS, plan.rows_needed(length)),
        None => Vec::new(),
    }
}

/// Runs `reads` for `length` with the scheduled writes, if the workload has
/// any, going on beside it from a second thread.
fn phase<T>(
    client: &Client,
    maintenance: &mut Option<Maintenance>,
    length: Duration,
    reads: impl FnOnce() -> T,
) -> (T, Option<Written>) {
    let Some(m) = maintenance else {
        return (reads(), None);
    };
    let writes = m.plan.schedule(length + WRITE_SLACK, &mut m.cursors);
    let twin = m.twin;
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    let (result, written) = thread::scope(|s| {
        let writer = s.spawn(|| write_loop(client, twin, &writes, started, &stop));
        let result = reads();
        stop.store(true, Ordering::SeqCst);
        (result, writer.join().expect("writer does not panic"))
    });
    (result, Some(m.absorb(written)))
}

/// After the clock stops: drain the server, refresh, and compare every
/// class with the base-table answer over the same appended rows.
fn final_gate(
    fixture: &Fixture,
    server: Srv,
    maintenance: &Option<Maintenance>,
    out: &mut Outcome,
) -> Result<Wh, String> {
    let mut warehouse = server.shutdown();
    warehouse.refresh()?;
    let mut reference = fixture.reference()?;
    if let Some(m) = maintenance {
        for write in &m.total.applied {
            if let WriteKind::Append {
                relation,
                from,
                rows,
            } = write.kind
            {
                reference.append(
                    APPEND_RELATIONS[relation],
                    twin_slice(m.twin, relation, from, rows),
                )?;
            }
        }
        out.attempted += m.total.attempted;
        out.failed += m.total.failed;
        note_unless(m.total.backlog_max <= WRITE_BACKLOG_LIMIT, || {
            format!("write backlog reached {}", m.total.backlog_max)
        });
    }
    gate(fixture, &warehouse.snapshot(), &reference.snapshot(), out);
    Ok(warehouse)
}

/// Appends every twin row the schedule did not get to, and refreshes. How
/// many appends fit a round moves with the host's speed; the bytes stored
/// at the end must not, so they are taken after the same rows whatever the
/// round got through.
fn top_up(warehouse: &mut Wh, m: &Maintenance) -> Result<(), String> {
    let step = m.plan.rows_per_append;
    for (relation, rows) in m.twin.iter().enumerate() {
        let applied: BTreeSet<usize> = m
            .total
            .applied
            .iter()
            .filter_map(|w| match w.kind {
                WriteKind::Append {
                    relation: r, from, ..
                } if r == relation => Some(from),
                _ => None,
            })
            .collect();
        for from in (0..rows.len()).step_by(step) {
            if !applied.contains(&from) {
                let count = step.min(rows.len() - from);
                warehouse.append(
                    APPEND_RELATIONS[relation],
                    twin_slice(m.twin, relation, from, count),
                )?;
            }
        }
    }
    warehouse.refresh().map(|_| ())
}

/// The classes' `fq`, as read counts per block of the stream.
fn weights(fixture: &Fixture) -> Vec<usize> {
    fixture
        .classes
        .iter()
        .map(|c| c.weight.round() as usize)
        .collect()
}

/// A run is rounds, each with a server of its own: set up, warm up, closed
/// loop, check. Every timing reported is the median of the rounds'. A new
/// server per round matters beyond what `outcome` says of rounds: where a
/// server's threads land and what state its allocator is in stay the same
/// for its whole life and move its numbers as one, so one long stretch
/// would report that luck, and the median over rounds does not.
///
/// Both gated timings come from the closed loop, where a fixed number of
/// requests is in flight and a latency is a service time: they move in
/// proportion to the host's speed. The open loop's tail, which queueing
/// makes move several times as much, is the traced run's.
pub fn run(workload: Workload, spec: Serving, seed: u64, seconds: f64) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let rounds = rounds_in(seconds);
    let phases = Phases::of(seconds / rounds as f64);

    // Before any timing: the answers must be right.
    let SetUp {
        fixture, server, ..
    } = set_up(&spec)?;
    let reference = fixture.reference()?;
    let counts = gate(
        &fixture,
        &server.client().snapshot(),
        &reference.snapshot(),
        &mut out,
    );
    drop(reference);
    drop(server.shutdown());
    let (scenario, design) = fixture.design();
    let quality = layers::quality(scenario, design, QUALITY_DATA)?;
    let check = match spec.writes {
        Some(_) => Check::NonEmpty,
        None => Check::Exact(counts),
    };
    let mut stream = ReadStream::new(seed, &weights(&fixture), spec.sql_share, STREAM_BLOCKS);
    // The closed loop runs on to the end of its block; the slack covers a
    // block on a host several times slower than this one.
    let twin = twin_rows(
        &fixture,
        spec.writes,
        phases.warm_up + phases.closed + WRITE_SLACK * 2,
    );
    drop(fixture);

    let mut measured = Vec::with_capacity(rounds);
    let mut space_amp = 0.0;
    for round in 0..rounds {
        let started = Instant::now();
        let SetUp {
            fixture, server, ..
        } = set_up(&spec)?;
        let setup_s = started.elapsed().as_secs_f64();
        let client = server.client();
        let classes = &fixture.classes;
        let mut maintenance = spec.writes.map(|plan| Maintenance::new(plan, &twin));

        reset_peak_rss();
        phase(&client, &mut maintenance, phases.warm_up, || {
            closed_loop(
                &client,
                classes,
                &mut stream,
                phases.warm_up,
                false,
                &check,
                &mut out,
            )
        });
        let (closed, written) = phase(&client, &mut maintenance, phases.closed, || {
            closed_loop(
                &client,
                classes,
                &mut stream,
                phases.closed,
                true,
                &check,
                &mut out,
            )
        });
        let peak_rss_mb = peak_rss_mb();

        let latency = Samples::new(closed.latency_ms);
        eprintln!(
            "{} round {}: set-up {:.3} s; peak {:.1} MB; closed loop {} answers in {:.2} s; {}",
            workload.name(),
            round + 1,
            setup_s,
            peak_rss_mb,
            closed.answers,
            closed.window_s,
            latency.describe("latency", "ms")
        );
        eprintln!("closed loop latency, ms: {}", latency.percentiles());
        if let Some(w) = &written {
            eprintln!(
                "{}; {}",
                Samples::new(w.append_ms.clone()).describe("append, due to applied", "ms"),
                Samples::new(w.refresh_ms.clone()).describe("refresh, due to published", "ms"),
            );
        }
        measured.push(Round {
            setup_s,
            peak_rss_mb,
            ops_per_s: closed.answers as f64 / closed.window_s,
            tail_ms: latency.percentile(spec.tail_percentile),
        });

        let mut warehouse = final_gate(&fixture, server, &maintenance, &mut out)?;
        if round + 1 == rounds {
            if let Some(m) = &maintenance {
                top_up(&mut warehouse, m)?;
            }
            space_amp = warehouse.stored_bytes() as f64 / fixture.base_bytes as f64;
        }
    }

    out.set_round_medians(&measured);
    out.set("space_amp", space_amp);
    out.set("period_io_blocks", quality.period_io_blocks);
    Ok(out)
}

// ------------------------------------------------------------ traced run

/// One operation of the traced replay.
#[derive(Clone, Copy)]
enum Op {
    Read(Read),
    Write(Write),
}

/// The first reads of the stream at the pinned rate's spacing, with the
/// writes that fall due between them, in due order.
fn replay_ops(stream: &ReadStream, spec: &Serving) -> Vec<Op> {
    let reads = stream.head(TRACED_OPS);
    let length = Duration::from_secs_f64(reads.len() as f64 / spec.rate);
    let mut writes = spec
        .writes
        .map(|plan| plan.schedule(length, &mut vec![0; plan.relations]))
        .unwrap_or_default()
        .into_iter()
        .peekable();
    let mut ops = Vec::with_capacity(reads.len() + writes.len());
    for (due, read) in due_times(spec.rate, length).into_iter().zip(reads) {
        while let Some(write) = writes.next_if(|w| w.due <= due) {
            ops.push(Op::Write(write));
        }
        ops.push(Op::Read(*read));
    }
    ops
}

/// What the traced replay keeps of one read, beside its spans.
#[derive(Default, Clone, Copy)]
struct ReadRecord {
    class: usize,
    serve_s: f64,
    query_s: f64,
    parse_s: f64,
    route_s: f64,
    sql: bool,
    hit: bool,
    rows_in: usize,
    rows_out: usize,
    pool: PoolCounters,
}

#[derive(Default)]
struct Replay {
    reads: Vec<ReadRecord>,
    refreshed: Refreshed,
    resident_max: usize,
    ops_done: usize,
    wall_s: f64,
    failed: u64,
}

fn pool_delta(before: Option<PoolCounters>, after: Option<PoolCounters>) -> PoolCounters {
    match (before, after) {
        (Some(b), Some(a)) => PoolCounters {
            hits: a.hits - b.hits,
            misses: a.misses - b.misses,
            evictions: a.evictions - b.evictions,
            spill_bytes: a.spill_bytes - b.spill_bytes,
            resident_bytes: a.resident_bytes,
        },
        _ => PoolCounters::default(),
    }
}

/// Replays `ops` one at a time with a single client: each read through the
/// server, then through the warehouse snapshot, the parser and the router
/// by themselves; each write through the server and through a second
/// warehouse held directly. Stops after `limit` operations or, when no
/// limit is given, when `budget` runs out.
fn replay(
    set: &SetUp,
    direct: &mut Wh,
    twin: &[Vec<Row>],
    ops: &[Op],
    limit: Option<usize>,
    budget: Duration,
    tracer: &mut Tracer,
) -> Replay {
    let client = set.server.client();
    let classes = &set.fixture.classes;
    let mut r = Replay::default();
    let mut snap = direct.snapshot();
    let started = Instant::now();
    for (i, op) in ops.iter().enumerate() {
        match limit {
            Some(n) if i >= n => break,
            None if started.elapsed() >= budget => break,
            _ => {}
        }
        let id = i as u32;
        let root = tracer.begin("op", None, id);
        match *op {
            Op::Read(read) => {
                let class = &classes[usize::from(read.class)];
                let mut rec = ReadRecord {
                    class: usize::from(read.class),
                    sql: read.form == Form::Sql,
                    ..ReadRecord::default()
                };

                let span = tracer.begin("serve.query", root.id(), id);
                let reply = client.submit(class, read.form).wait();
                tracer.end(span);
                match reply {
                    Ok(reply) => rec.serve_s = reply.elapsed.as_secs_f64(),
                    Err(e) => {
                        r.failed += 1;
                        eprintln!("FAILED: {} through the server: {e}", class.name);
                    }
                }

                let before = direct.pool();
                let span = tracer.begin("warehouse.query", root.id(), id);
                let answer = snap.query(class, read.form);
                rec.query_s = tracer.end(span).as_secs_f64();
                rec.pool = pool_delta(before, direct.pool());
                r.resident_max = r.resident_max.max(rec.pool.resident_bytes);
                match answer {
                    Ok(rows) => rec.rows_out = rows.len(),
                    Err(e) => {
                        r.failed += 1;
                        eprintln!("FAILED: {} through the snapshot: {e}", class.name);
                    }
                }

                let plan = if rec.sql {
                    let span = tracer.begin("algebra.parse", root.id(), id);
                    let parsed = snap.parse(class.sql);
                    rec.parse_s = tracer.end(span).as_secs_f64();
                    parsed.unwrap_or_else(|_| class.root.clone())
                } else {
                    class.merged.clone()
                };
                let span = tracer.begin("core.route", root.id(), id);
                let (routed, matches) = snap.route(&plan);
                rec.route_s = tracer.end(span).as_secs_f64();
                rec.hit = matches >= 1;
                rec.rows_in = snap.rows_in(&routed);
                r.reads.push(rec);
            }
            Op::Write(write) => {
                let (served, applied) = match write.kind {
                    WriteKind::Append {
                        relation,
                        from,
                        rows,
                    } => {
                        let name = APPEND_RELATIONS[relation];
                        let span = tracer.begin("serve.append", root.id(), id);
                        let served = client
                            .append(name, twin_slice(twin, relation, from, rows))
                            .wait()
                            .map(|_| ());
                        tracer.end(span);
                        let span = tracer.begin("warehouse.append", root.id(), id);
                        let applied = direct.append(name, twin_slice(twin, relation, from, rows));
                        tracer.end(span);
                        (served, applied)
                    }
                    WriteKind::Refresh => {
                        let span = tracer.begin("serve.refresh", root.id(), id);
                        let served = client.refresh().wait().map(|_| ());
                        tracer.end(span);
                        let span = tracer.begin("warehouse.refresh", root.id(), id);
                        let applied = direct.refresh().map(|done| {
                            r.refreshed.folded += done.folded;
                            r.refreshed.recomputed += done.recomputed;
                        });
                        tracer.end(span);
                        (served, applied)
                    }
                };
                for result in [served, applied] {
                    if let Err(e) = result {
                        r.failed += 1;
                        eprintln!("FAILED: write due at {:?}: {e}", write.due);
                    }
                }
                let span = tracer.begin("warehouse.snapshot", root.id(), id);
                snap = direct.snapshot();
                tracer.end(span);
            }
        }
        tracer.end(root);
        r.ops_done = i + 1;
    }
    r.wall_s = started.elapsed().as_secs_f64();
    r
}

fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (sum, n) = values.fold((0.0, 0usize), |(s, n), v| (s + v, n + 1));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

fn ratio(numerator: f64, denominator: f64) -> f64 {
    if denominator == 0.0 {
        0.0
    } else {
        numerator / denominator
    }
}

/// Refreshes the same appended state by folding deltas and by recomputing,
/// a few rounds each, and returns fold time over recompute time.
fn fold_over_recompute(set: &SetUp, twin: &[Vec<Row>], plan: WritePlan) -> Result<f64, String> {
    const ROUNDS: usize = 5;
    let mut fold = set.fixture.warehouse(set.mem_budget)?;
    let mut recompute = set.fixture.warehouse(set.mem_budget)?;
    recompute.recompute_on_refresh();
    // One second of the pinned append traffic per round.
    let appends = (1.0 / plan.append_every.as_secs_f64()).round() as usize;
    let mut cursors = vec![0; plan.relations];
    let (mut fold_s, mut recompute_s) = (Vec::new(), Vec::new());
    for _ in 0..ROUNDS {
        for i in 0..appends {
            let relation = i % plan.relations;
            let from = cursors[relation];
            cursors[relation] += plan.rows_per_append;
            let rows = || twin_slice(twin, relation, from, plan.rows_per_append);
            fold.append(APPEND_RELATIONS[relation], rows())?;
            recompute.append(APPEND_RELATIONS[relation], rows())?;
        }
        let started = Instant::now();
        fold.refresh()?;
        fold_s.push(started.elapsed().as_secs_f64());
        let started = Instant::now();
        recompute.refresh()?;
        recompute_s.push(started.elapsed().as_secs_f64());
    }
    Ok(ratio(
        Samples::new(fold_s).median(),
        Samples::new(recompute_s).median(),
    ))
}

pub fn run_traced(
    workload: Workload,
    spec: Serving,
    seed: u64,
    seconds: f64,
    trace_file: &Path,
) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let phases = TracedPhases::of(seconds);
    let stream_of =
        |set: &SetUp| ReadStream::new(seed, &weights(&set.fixture), spec.sql_share, STREAM_BLOCKS);

    // The replay, twice over fresh warehouses: tracing off to find how many
    // operations fit the budget, then the same operations with tracing on.
    let set = set_up(&spec)?;
    let reference = set.fixture.reference()?;
    gate(
        &set.fixture,
        &set.server.client().snapshot(),
        &reference.snapshot(),
        &mut out,
    );
    drop(reference);
    let ops = replay_ops(&stream_of(&set), &spec);
    let twin = twin_rows(
        &set.fixture,
        spec.writes,
        Duration::from_secs_f64(seconds + 30.0) + WRITE_SLACK * 4,
    );
    let mut direct = set.fixture.warehouse(set.mem_budget)?;
    let untraced = replay(
        &set,
        &mut direct,
        &twin,
        &ops,
        None,
        phases.replay,
        &mut Tracer::new(false),
    );
    drop(set.server.shutdown());

    let set = set_up(&spec)?;
    let mut direct = set.fixture.warehouse(set.mem_budget)?;
    let mut tracer = Tracer::new(true);
    let traced = replay(
        &set,
        &mut direct,
        &twin,
        &ops,
        Some(untraced.ops_done),
        phases.replay,
        &mut tracer,
    );
    out.attempted += (untraced.ops_done + traced.ops_done) as u64;
    out.failed += untraced.failed + traced.failed;
    let counters = set.server.client().counters();
    let user_bytes = set.fixture.base_bytes;
    let end_pool = direct.pool();
    drop(set.server.shutdown());
    eprintln!(
        "{}: replayed {} operations, {:.3} s untraced, {:.3} s traced",
        workload.name(),
        traced.ops_done,
        untraced.wall_s,
        traced.wall_s
    );

    let reads = &traced.reads;
    let n = reads.len().max(1) as f64;
    out.set(
        "trace.overhead_share",
        ratio(traced.wall_s - untraced.wall_s, untraced.wall_s),
    );
    out.set(
        "algebra.parse_us",
        mean(reads.iter().filter(|r| r.sql).map(|r| r.parse_s * 1e6)),
    );
    out.set("core.route_us", mean(reads.iter().map(|r| r.route_s * 1e6)));
    out.set(
        "core.route_hit_share",
        reads.iter().filter(|r| r.hit).count() as f64 / n,
    );
    out.set(
        "warehouse.query_ms",
        mean(reads.iter().map(|r| r.query_s * 1e3)),
    );
    for (i, class) in set.fixture.classes.iter().enumerate() {
        out.set(
            format!("warehouse.query_ms.{}", class.name),
            mean(
                reads
                    .iter()
                    .filter(|r| r.class == i)
                    .map(|r| r.query_s * 1e3),
            ),
        );
    }
    out.set(
        "engine.execute_ms",
        mean(
            reads
                .iter()
                .map(|r| (r.query_s - r.route_s - r.parse_s).max(0.0) * 1e3),
        ),
    );
    out.set(
        "engine.rows_in_per_row_out",
        ratio(
            reads.iter().map(|r| r.rows_in as f64).sum(),
            reads.iter().map(|r| r.rows_out as f64).sum(),
        ),
    );
    out.set(
        "serve.overhead_us",
        Samples::new(
            reads
                .iter()
                .map(|r| (r.serve_s - r.query_s) * 1e6)
                .collect(),
        )
        .median(),
    );
    let writes = (counters.appends + counters.refreshes) as f64;
    out.set(
        "serve.publishes_per_write",
        ratio(counters.snapshots_published as f64, writes),
    );
    out.set(
        "warehouse.append_us",
        mean(tracer.durations("warehouse.append").into_iter()) * 1e6,
    );
    out.set(
        "warehouse.refresh_ms",
        mean(tracer.durations("warehouse.refresh").into_iter()) * 1e3,
    );
    out.set(
        "warehouse.snapshot_us",
        mean(tracer.durations("warehouse.snapshot").into_iter()) * 1e6,
    );
    out.set(
        "warehouse.folded_share",
        ratio(
            traced.refreshed.folded as f64,
            (traced.refreshed.folded + traced.refreshed.recomputed) as f64,
        ),
    );
    if let Some(budget) = set.mem_budget {
        let pins = |r: &ReadRecord| (r.pool.hits + r.pool.misses) as f64;
        out.set("storage.pins_per_query", mean(reads.iter().map(pins)));
        out.set(
            "storage.miss_share",
            ratio(
                reads.iter().map(|r| r.pool.misses as f64).sum(),
                reads.iter().map(pins).sum(),
            ),
        );
        out.set(
            "storage.evictions_per_query",
            mean(reads.iter().map(|r| r.pool.evictions as f64)),
        );
        out.set(
            "storage.spill_bytes_per_user_byte",
            ratio(
                end_pool.map_or(0.0, |p| p.spill_bytes as f64),
                user_bytes as f64,
            ),
        );
        out.set(
            "storage.resident_over_budget",
            ratio(traced.resident_max as f64, budget as f64),
        );
        // Modelled reads against the misses the pool really took, over one
        // query of each class weighted as the traffic is.
        let snap = direct.snapshot();
        let (mut modelled, mut missed) = (0.0, 0.0);
        for class in &set.fixture.classes {
            let (read, misses) = snap.modelled_and_missed(&class.merged)?;
            modelled += class.weight * read;
            missed += class.weight * misses as f64;
        }
        out.set("cost.read_over_misses", ratio(modelled, missed));
    }
    drop(direct);

    // The part of the run that needs load: an untraced open-loop stretch at
    // the pinned rate, then the other rungs of the rate ladder.
    let set = set_up(&spec)?;
    let client = set.server.client();
    let classes = &set.fixture.classes;
    let mut stream = stream_of(&set);
    let mut maintenance = spec.writes.map(|plan| Maintenance::new(plan, &twin));
    let check = Check::NonEmpty;
    let one_client_ms = mean(reads.iter().map(|r| r.serve_s * 1e3));
    let mut rate_ok = 0.0f64;
    for (multiple, label) in LADDER {
        let pinned = multiple == 1.0;
        if !pinned && spec.ladder_limit_ms.is_none() {
            continue;
        }
        let length = if pinned { phases.open } else { phases.rung };
        let rate = spec.rate * multiple;
        let (open, written) = phase(&client, &mut maintenance, length, || {
            open_loop(
                &client,
                classes,
                &mut stream,
                rate,
                length,
                &check,
                &mut out,
            )
        });
        let latency = Samples::new(open.latency_ms.clone());
        eprintln!(
            "{}",
            latency.describe(&format!("{label}: open loop at {rate}/s"), "ms")
        );
        if let Some(limit) = spec.ladder_limit_ms {
            out.set(format!("serve.p99_ms_at_{label}"), latency.percentile(99.0));
            if latency.percentile(99.0) <= limit && open.keeping_up() {
                rate_ok = rate_ok.max(rate);
            }
        }
        if pinned {
            out.set(
                "serve.queue_wait_share",
                ratio((latency.mean() - one_client_ms).max(0.0), latency.mean()),
            );
            out.set(
                "serve.lateness_p99_ms",
                Samples::new(open.lateness_ms.clone()).percentile(99.0),
            );
            out.set("serve.query_mean_ms", latency.mean());
            out.set("serve.query_p50_ms", latency.median());
            out.set("serve.query_p99_ms", latency.percentile(99.0));
            let stale = open.pending_rows.iter().filter(|p| **p > 0.0).count();
            out.set(
                "serve.stale_answer_share",
                ratio(stale as f64, open.pending_rows.len() as f64),
            );
            out.set(
                "serve.staleness_rows_p50",
                Samples::new(open.pending_rows.clone()).median(),
            );
            if let Some(w) = written {
                out.set(
                    "serve.append_p50_ms",
                    Samples::new(w.append_ms.clone()).median(),
                );
                out.set(
                    "serve.refresh_p50_ms",
                    Samples::new(w.refresh_ms.clone()).median(),
                );
                out.set("serve.write_backlog_max", w.backlog_max as f64);
            }
        }
    }
    if spec.ladder_limit_ms.is_some() {
        out.set("serve.rate_ok_qps", rate_ok);
    }
    if let Some(plan) = spec.writes {
        out.set(
            "engine.fold_over_recompute",
            fold_over_recompute(&set, &twin, plan)?,
        );
    }
    final_gate(&set.fixture, set.server, &maintenance, &mut out)?;

    tracer
        .write(trace_file, workload.name(), seed)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    Ok(out)
}
