//! The `served-edits` workload: an in-process daemon on loopback with two
//! workers, the shared cache and a disk store, driven closed-loop over
//! two connections by the seeded request stream of
//! [`sring_perfbench::stream`].
//!
//! A run is a few sessions. Each starts a daemon and seeds the saved bases
//! (the set-up), serves a fixed number of passes and shuts the daemon
//! down; a pass sends one block per connection, both connections
//! concurrently. Answers are checked outside the timed region: every
//! request must complete with the expected message count, every repeat
//! must equal its original, and the first pass is re-derived in-process
//! and compared field by field.

use crate::{check, out_dir, peak_rss_mb, write_evidence, Args, RunResult};
use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::DEFAULT_PITCH;
use onoc_graph::synth::random_app;
use onoc_graph::CommGraph;
use onoc_served::{
    Client, JobResult, JobSummary, Outcome, Response, Server, ServerConfig, ServerStats,
};
use onoc_trace::TraceReport;
use sring_core::{AssignmentStrategy, SringConfig, SringReport, SringSynthesizer};
use sring_perfbench::metrics::{per_layer, Metrics};
use sring_perfbench::reference::{base_line, served_line, Reference};
use sring_perfbench::stats::{median, tail};
use sring_perfbench::stream::{
    Kind, Op, RepeatOf, Source, StreamGen, BASES, BASE_CONNECTION, CONNECTIONS,
};
use sring_perfbench::workload::DEFAULT_SEED;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Passes each daemon serves before it is shut down. The daemon's
/// per-sub-ring memo tier holds 65,536 entries and fills after about nine
/// passes of this stream; from then on every memo insert scans the whole
/// tier for its LRU victim and a pass takes 10–20 times longer (see
/// `perfbench/README.md`). Eight passes keep a session before that cliff.
const PASSES_PER_SESSION: usize = 8;

/// Seconds of `--seconds` per session (a session takes 8–10 s on a
/// two-core machine; the slack keeps a run's total time near
/// `--seconds` plus the untimed checks).
const SECONDS_PER_SESSION: u64 = 10;

/// Sessions in a run of `seconds`, at least three. The count is fixed by
/// `seconds` rather than "until the time is up", so every run measures
/// the same requests however fast the machine is.
fn sessions(seconds: Duration) -> usize {
    (seconds.as_secs() / SECONDS_PER_SESSION).max(3) as usize
}

/// A running daemon with its connected clients.
struct Daemon {
    server: Server,
    clients: Vec<Client>,
    dir: PathBuf,
    /// The daemon's summaries of the saved bases, indexed like [`BASES`].
    bases: Vec<JobSummary>,
}

impl Daemon {
    /// Starts a daemon over a fresh store directory and seeds the bases.
    fn start(dir: PathBuf) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
        let config = ServerConfig {
            workers: CONNECTIONS,
            cache_dir: Some(dir.clone()),
            ..ServerConfig::default()
        };
        let server =
            Server::start("127.0.0.1:0", config).map_err(|e| format!("starting daemon: {e}"))?;
        let mut clients = Vec::with_capacity(CONNECTIONS);
        for _ in 0..CONNECTIONS {
            clients.push(Client::connect(server.addr()).map_err(|e| format!("connecting: {e}"))?);
        }
        // One base at a time: the set-up time then sums three cold
        // syntheses instead of taking the slower of two vCPUs, which on a
        // shared host spreads far more from run to run.
        let mut bases = Vec::with_capacity(BASES.len());
        for (i, b) in BASES.iter().enumerate() {
            let response = clients[BASE_CONNECTION[i]].submit(StreamGen::base_spec(i));
            let result = job_result(response.map_err(|e| e.to_string()))
                .map_err(|e| format!("seeding {b}: {e}"))?;
            bases.push(
                completed(&result)
                    .cloned()
                    .ok_or_else(|| format!("seeding {b} did not complete"))?,
            );
        }
        Ok(Daemon {
            server,
            clients,
            dir,
            bases,
        })
    }

    /// Sends `blocks[c]` on connection `c`, all connections concurrently;
    /// returns the wall time and the records.
    fn run_blocks(
        &mut self,
        blocks: &[Vec<Op>],
        pass: usize,
        traced: bool,
    ) -> Result<(Duration, Vec<Record>), String> {
        let t = Instant::now();
        let records = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(blocks)
                .enumerate()
                .map(|(conn, (client, block))| {
                    scope.spawn(move || run_block(client, block, pass, conn, traced))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().map_err(|_| "client thread panicked".to_owned()))
                .collect::<Result<Vec<_>, _>>()
        })?;
        Ok((t.elapsed(), records.into_iter().flatten().collect()))
    }

    /// Disconnects, drains the daemon and removes its store.
    fn stop(mut self) -> ServerStats {
        self.clients.clear();
        let stats = self.server.shutdown();
        drop(self.server);
        let _ = std::fs::remove_dir_all(&self.dir);
        stats
    }
}

/// One answered (or failed) request.
struct Record {
    pass: usize,
    conn: usize,
    idx: usize,
    kind: Kind,
    latency: Duration,
    answer: Result<JobResult, String>,
}

fn job_result(response: Result<Response, String>) -> Result<JobResult, String> {
    match response? {
        Response::Job(result) => Ok(result),
        Response::Rejected(reason) => Err(format!("rejected: {reason:?}")),
        Response::Error(e) => Err(format!("daemon error: {e}")),
        other => Err(format!("unexpected response {other:?}")),
    }
}

fn completed(result: &JobResult) -> Option<&JobSummary> {
    match &result.outcome {
        Outcome::Completed(summary) => Some(summary),
        _ => None,
    }
}

fn run_block(
    client: &mut Client,
    block: &[Op],
    pass: usize,
    conn: usize,
    traced: bool,
) -> Vec<Record> {
    block
        .iter()
        .enumerate()
        .map(|(idx, op)| {
            let mut spec = op.spec.clone();
            spec.collect_trace = traced;
            let t = Instant::now();
            let response = client.submit(spec);
            let latency = t.elapsed();
            Record {
                pass,
                conn,
                idx,
                kind: op.kind,
                latency,
                answer: job_result(response.map_err(|e| e.to_string())),
            }
        })
        .collect()
}

fn store_dir(args: &Args) -> PathBuf {
    out_dir().join(format!("store-{}-{}", args.seed, std::process::id()))
}

/// Runs `sessions(seconds)` sessions: each starts a daemon and seeds
/// the bases (timed as set-up), then serves [`PASSES_PER_SESSION`] passes
/// of the stream (timed per pass) and shuts the daemon down.
pub fn run(args: &Args) -> Result<RunResult, String> {
    let gen = StreamGen::new(args.seed);
    let mut setup_times = Vec::new();
    let mut pass_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut records = Vec::new();
    let mut stats = Vec::new();
    let mut bases: Vec<Vec<JobSummary>> = Vec::new();
    let clock = Instant::now();
    for session in 0..sessions(args.seconds) {
        let t = Instant::now();
        let mut daemon = Daemon::start(store_dir(args).join(session.to_string()))?;
        setup_times.push(t.elapsed().as_secs_f64());
        let mut timed = Ok(());
        for pass in session * PASSES_PER_SESSION..(session + 1) * PASSES_PER_SESSION {
            let traced = args.trace && pass % 2 == 1;
            let blocks: Vec<Vec<Op>> = (0..CONNECTIONS).map(|c| gen.block(c, pass)).collect();
            match daemon.run_blocks(&blocks, pass, traced) {
                Ok((elapsed, pass_records)) => {
                    eprintln!("perfbench: pass {pass} took {:.4} s", elapsed.as_secs_f64());
                    if traced {
                        traced_times.push(elapsed.as_secs_f64());
                    } else {
                        pass_times.push(elapsed.as_secs_f64());
                    }
                    records.extend(pass_records);
                }
                Err(e) => {
                    timed = Err(e);
                    break;
                }
            }
        }
        let session_stats = daemon.clients[0].stats().map_err(|e| e.to_string());
        bases.push(daemon.bases.clone());
        Daemon::stop(daemon);
        timed?;
        stats.push(session_stats?);
        eprintln!(
            "perfbench: session {session} done at {:.1} s",
            clock.elapsed().as_secs_f64()
        );
    }
    let _ = std::fs::remove_dir_all(store_dir(args));

    let mut result = RunResult::default();
    verify(args, &gen, &bases, &records, &mut result)?;
    let m = &mut result.metrics;
    m.set("setup_s", median(&setup_times).unwrap_or(0.0));
    m.set("pass_s", median(&pass_times).unwrap_or(0.0));
    result.set_ok_frac();
    if args.trace {
        let latencies: Vec<f64> = records
            .iter()
            .map(|r| r.latency.as_secs_f64() * 1e3)
            .collect();
        result.metrics = layer_metrics(args, &records, &stats, &traced_times, &pass_times)?;
        result
            .metrics
            .set("op_p50_ms", median(&latencies).unwrap_or(0.0));
        result.metrics.set("peak_rss_mb", peak_rss_mb()?);
    }
    Ok(result)
}

/// The in-process re-derivation of one request.
fn local(
    gen: &StreamGen,
    op: &Op,
    base_reports: &[SringReport],
    ctx: &ExecCtx,
) -> Result<(CommGraph, SringReport), String> {
    match &op.source {
        Source::Edit { base, delta } => {
            let r = SringSynthesizer::new()
                .resynthesize(
                    &gen.bases()[*base],
                    &base_reports[*base],
                    &[delta.to_comm()],
                    ctx,
                )
                .map_err(|e| e.to_string())?;
            Ok((r.graph, r.report))
        }
        Source::Fresh {
            nodes,
            messages,
            seed,
        } => {
            let app = random_app(*nodes as usize, *messages as usize, *seed, DEFAULT_PITCH);
            let synth = SringSynthesizer::with_config(SringConfig {
                strategy: AssignmentStrategy::Heuristic,
                ..SringConfig::default()
            });
            let report = synth
                .synthesize_detailed_ctx(&app, ctx)
                .map_err(|e| e.to_string())?;
            Ok((app, report))
        }
        Source::Repeat(_) => Err("repeats are checked against their original".into()),
    }
}

fn summarize(graph: &CommGraph, report: &SringReport) -> JobSummary {
    JobSummary {
        workload: graph.name().to_owned(),
        wavelengths: report.assignment.wavelength_count as u64,
        sub_rings: report.clustering.sub_ring_count() as u64,
        messages: graph.message_count() as u64,
    }
}

/// Checks every answer and fills in the quality metrics; untimed.
fn verify(
    args: &Args,
    gen: &StreamGen,
    sessions: &[Vec<JobSummary>],
    records: &[Record],
    result: &mut RunResult,
) -> Result<(), String> {
    let bases = sessions.first().ok_or("no session ran")?;
    for (i, other) in sessions.iter().enumerate().skip(1) {
        result.count(if other == bases {
            Ok(())
        } else {
            Err(format!(
                "session {i} seeded other bases: {other:?} vs {bases:?}"
            ))
        });
    }
    let reference = Reference::committed()?;
    let ctx = ExecCtx::cached().with_threads(1);
    let (mut compared, mut matched) = (0u64, 0u64);
    let (mut milp, mut proven) = (0u64, 0u64);
    let mut compare = |what: String, got: &JobSummary, want: Option<&JobSummary>| {
        compared += 1;
        if want == Some(got) {
            matched += 1;
        } else {
            eprintln!("perfbench: {what} differs from the reference: {got:?} vs {want:?}");
        }
    };

    // The bases: re-derived in-process, checked, and the source of the
    // quality metrics (they do not vary with the seed).
    let mut base_reports = Vec::with_capacity(BASES.len());
    let (mut laser, mut wavelengths) = (0.0, 0u64);
    for (i, b) in BASES.iter().enumerate() {
        let graph = &gen.bases()[i];
        let report = SringSynthesizer::new()
            .synthesize_detailed_ctx(graph, &ctx)
            .map_err(|e| format!("{b}: {e}"))?;
        let checked = check::design(graph, &report.design).and_then(|q| {
            laser += q.laser_mw;
            wavelengths += bases[i].wavelengths;
            let local = summarize(graph, &report);
            if local == bases[i] {
                Ok(())
            } else {
                Err(format!(
                    "{b}: daemon answered {:?}, in-process {local:?}",
                    bases[i]
                ))
            }
        });
        result.count(checked);
        compare(
            format!("base {b}"),
            &bases[i],
            reference.bases.get(b.name()),
        );
        result.reference.push(base_line(b.name(), &bases[i]));
        if report.assignment.solver_stats.is_some() {
            milp += 1;
            proven += u64::from(report.assignment.proven_optimal);
        }
        base_reports.push(report);
    }

    let mut blocks: BTreeMap<(usize, usize), Vec<Op>> = BTreeMap::new();
    for r in records {
        blocks
            .entry((r.conn, r.pass))
            .or_insert_with(|| gen.block(r.conn, r.pass));
    }
    let answers: BTreeMap<(usize, usize, usize), &JobSummary> = records
        .iter()
        .filter_map(|r| {
            let summary = r.answer.as_ref().ok().and_then(completed)?;
            Some(((r.conn, r.pass, r.idx), summary))
        })
        .collect();
    for r in records {
        let op = &blocks[&(r.conn, r.pass)][r.idx];
        let what = format!(
            "conn {} pass {} request {} ({})",
            r.conn,
            r.pass,
            r.idx,
            op.kind.name()
        );
        let checked = r
            .answer
            .as_ref()
            .map_err(|e| format!("{what}: {e}"))
            .and_then(|answer| {
                let got =
                    completed(answer).ok_or_else(|| format!("{what}: {:?}", answer.outcome))?;
                if got.messages != op.messages {
                    return Err(format!(
                        "{what}: {} messages, expected {}",
                        got.messages, op.messages
                    ));
                }
                match &op.source {
                    Source::Repeat(of) => {
                        let original = match *of {
                            RepeatOf::Base(i) => Some(&bases[i]),
                            RepeatOf::Earlier(i) => answers.get(&(r.conn, r.pass, i)).copied(),
                        };
                        if original != Some(got) {
                            return Err(format!(
                                "{what}: {got:?} differs from its original {original:?}"
                            ));
                        }
                    }
                    _ if r.pass == 0 => {
                        let (graph, report) = local(gen, op, &base_reports, &ctx)?;
                        check::design(&graph, &report.design)
                            .map_err(|e| format!("{what}: {e}"))?;
                        if report.assignment.solver_stats.is_some() {
                            milp += 1;
                            proven += u64::from(report.assignment.proven_optimal);
                            if !report.assignment.proven_optimal {
                                eprintln!(
                                    "perfbench: {what}: {:?} not proven optimal",
                                    op.spec.workload
                                );
                            }
                        }
                        let local = summarize(&graph, &report);
                        if local != *got {
                            return Err(format!(
                                "{what}: daemon answered {got:?}, in-process {local:?}"
                            ));
                        }
                    }
                    _ => {}
                }
                // The committed first-pass answers are for the default seed.
                if r.pass == 0 && args.seed == DEFAULT_SEED {
                    let want = reference
                        .served
                        .get(&(r.conn, r.pass, r.idx))
                        .filter(|(kind, _)| kind == op.kind.name())
                        .map(|(_, s)| s);
                    compare(what.clone(), got, want);
                }
                Ok(())
            });
        if r.pass == 0 {
            if let Some(got) = answers.get(&(r.conn, r.pass, r.idx)) {
                result
                    .reference
                    .push(served_line((r.conn, r.pass, r.idx), op.kind.name(), got));
            }
        }
        result.count(checked);
    }

    let m = &mut result.metrics;
    m.set("laser_mw", laser);
    m.set("wavelengths", wavelengths as f64);
    m.set("match_frac", matched as f64 / compared.max(1) as f64);
    m.set(
        "optimal_frac",
        if milp == 0 {
            1.0
        } else {
            proven as f64 / milp as f64
        },
    );
    Ok(())
}

/// Per-layer metrics of a traced run: request-level figures from every
/// pass, stage figures from the daemon's own per-job traces of the
/// traced passes.
fn layer_metrics(
    args: &Args,
    records: &[Record],
    stats: &[ServerStats],
    traced: &[f64],
    untraced: &[f64],
) -> Result<Metrics, String> {
    let mut m = Metrics::default();
    for d in per_layer() {
        m.set(d.name, 0.0);
    }
    let ms = |ns: u64| ns as f64 / 1e6;
    for kind in Kind::ALL {
        let k = kind.name();
        let of_kind: Vec<(&Record, &JobResult)> = records
            .iter()
            .filter(|r| r.kind == kind)
            .filter_map(|r| r.answer.as_ref().ok().map(|a| (r, a)))
            .collect();
        let client: Vec<f64> = of_kind
            .iter()
            .map(|(r, _)| r.latency.as_secs_f64() * 1e3)
            .collect();
        let queue: Vec<f64> = of_kind.iter().map(|(_, a)| ms(a.queue_ns)).collect();
        let run: Vec<f64> = of_kind.iter().map(|(_, a)| ms(a.run_ns)).collect();
        let overhead: Vec<f64> = of_kind
            .iter()
            .map(|(r, a)| r.latency.as_secs_f64() * 1e3 - ms(a.queue_ns) - ms(a.run_ns))
            .collect();
        let (hits, misses) = of_kind.iter().fold((0, 0), |(h, mi), (_, a)| {
            (h + a.cache_hits, mi + a.cache_misses)
        });
        m.set(
            format!("served.client_p50_ms.{k}"),
            median(&client).unwrap_or(0.0),
        );
        if let Some((pct, value)) = tail(&client) {
            eprintln!(
                "perfbench: {k} tail is p{pct} over {} requests",
                client.len()
            );
            m.set(format!("served.client_tail_ms.{k}"), value);
        }
        m.set(
            format!("served.queue_ms.{k}"),
            median(&queue).unwrap_or(0.0),
        );
        m.set(format!("served.run_ms.{k}"), median(&run).unwrap_or(0.0));
        m.set(
            format!("served.overhead_ms.{k}"),
            median(&overhead).unwrap_or(0.0),
        );
        if hits + misses > 0 {
            m.set(
                format!("served.cache_hit_frac.{k}"),
                hits as f64 / (hits + misses) as f64,
            );
        }
    }
    let sum = |f: fn(&ServerStats) -> u64| stats.iter().map(f).sum::<u64>() as f64;
    m.set("cache.evictions", sum(|s| s.cache_evictions));
    m.set("store.writes", sum(|s| s.disk_writes));
    m.set("store.hits", sum(|s| s.disk_hits));
    m.set(
        "served.rejected",
        sum(|s| s.rejected_queue_full + s.rejected_shutdown),
    );
    m.set("served.protocol_errors", sum(|s| s.protocol_errors));

    // Stage figures: per traced pass, summed over its jobs' traces.
    let mut passes: BTreeMap<usize, BTreeMap<&'static str, f64>> = BTreeMap::new();
    let mut evidence = Vec::new();
    for r in records {
        let Some(json) = r.answer.as_ref().ok().and_then(|a| a.trace_json.as_deref()) else {
            continue;
        };
        let report = TraceReport::from_json(json).map_err(|e| format!("trace JSON: {e:?}"))?;
        fold_trace(passes.entry(r.pass).or_default(), &report);
        // The memo is shared by every job: its eviction total only grows.
        let evictions = report.gauge("memo/evictions").unwrap_or(0.0);
        m.set(
            "memo.evictions",
            m.get("memo.evictions").unwrap_or(0.0).max(evictions),
        );
        evidence.push(json);
    }
    let median_of = |name: &str| -> f64 {
        let values: Vec<f64> = passes
            .values()
            .map(|p| p.get(name).copied().unwrap_or(0.0))
            .collect();
        median(&values).unwrap_or(0.0)
    };
    for name in [
        "cluster.s",
        "layout.s",
        "route.s",
        "assign.s",
        "pdn.s",
        "validate.s",
        "stage.unattributed_s",
        "assign.milp.solve_s",
        "assign.milp.lp_s",
        "assign.outside_solver_s",
        "milp.nodes",
        "milp.lp_solves",
        "milp.pivots",
        "milp.refactorizations",
        "memo.gets",
    ] {
        m.set(name, median_of(name));
    }
    let total = |name: &str| -> f64 { passes.values().filter_map(|p| p.get(name)).sum() };
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    m.set(
        "memo.hit_rate",
        ratio(total("memo.hits"), total("memo.gets")),
    );
    m.set(
        "milp.warm_hit_rate",
        ratio(total("milp.warm_hits"), total("milp.warm_attempts")),
    );
    if let (Some(t), Some(u)) = (median(traced), median(untraced)) {
        m.set("trace.overhead_frac", t / u - 1.0);
    }
    write_evidence(args, &format!("[{}]\n", evidence.join(",\n")))?;
    Ok(m)
}

fn secs(report: &TraceReport, suffix: &str) -> f64 {
    report
        .phases
        .iter()
        .filter(|(path, _)| path.as_str() == suffix || path.ends_with(&format!("/{suffix}")))
        .map(|(_, p)| p.total.as_secs_f64())
        .sum()
}

/// Adds one job's trace to a pass's sums.
fn fold_trace(sums: &mut BTreeMap<&'static str, f64>, report: &TraceReport) {
    let mut add = |name: &'static str, v: f64| *sums.entry(name).or_default() += v;
    let stages = [
        ("cluster.s", "synth/cluster"),
        ("layout.s", "synth/layout"),
        ("route.s", "synth/route"),
        ("assign.s", "synth/assign"),
        ("pdn.s", "synth/pdn"),
        ("validate.s", "synth/validate"),
    ];
    let mut attributed = 0.0;
    for (name, path) in stages {
        let v = secs(report, path);
        attributed += v;
        add(name, v);
    }
    add(
        "stage.unattributed_s",
        (secs(report, "synth") - attributed).max(0.0),
    );
    let lp = secs(report, "milp/lp/dual") + secs(report, "milp/lp/primal");
    let solve = secs(report, "milp/presolve") + lp + secs(report, "milp/branching");
    add("assign.milp.solve_s", solve);
    add("assign.milp.lp_s", lp);
    add(
        "assign.outside_solver_s",
        (secs(report, "synth/assign") - solve).max(0.0),
    );
    let counter = |name: &str| report.counter(name).unwrap_or(0) as f64;
    add("milp.nodes", counter("milp/nodes_explored"));
    add("milp.lp_solves", counter("milp/lp_solves"));
    add(
        "milp.pivots",
        counter("milp/primal_pivots") + counter("milp/dual_pivots"),
    );
    add("milp.refactorizations", counter("milp/refactorizations"));
    add("milp.warm_hits", counter("milp/warm_start_hits"));
    add("milp.warm_attempts", counter("milp/warm_start_attempts"));
    add("memo.gets", counter("memo/hits") + counter("memo/misses"));
    add("memo.hits", counter("memo/hits"));
}
