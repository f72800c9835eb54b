//! The `paper-assign` and `paper-cluster` workloads: cold synthesis of a
//! fixed set of paper instances, one fresh context per instance.
//!
//! A pass synthesizes every instance once, in an order drawn from the
//! seed. The untraced run calls `synthesize_detailed_ctx`; the traced run
//! alternates untraced passes with passes that compose the pipeline
//! stage by stage (`run_stage` over the four cached stages, then the PDN
//! and design assembly, then validation), each timed from outside.

use crate::{check, peak_rss_mb, write_evidence, Args, RunResult};
use onoc_ctx::ExecCtx;
use onoc_graph::benchmarks::Benchmark;
use onoc_graph::{CommGraph, NodeId};
use onoc_photonics::{PdnDesign, PdnStyle, RouterDesign};
use onoc_trace::Trace;
use sring_core::{
    design_bytes, run_stage, AssignStage, ClusterStage, LayoutStage, RouteStage, SringReport,
    SringSynthesizer,
};
use sring_perfbench::metrics::{per_layer, Metrics};
use sring_perfbench::reference::{paper_line, PaperRef, Reference};
use sring_perfbench::stats::median;
use sring_perfbench::stream::{mix, SplitMix};
use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 101;

struct Setup {
    apps: Vec<(Benchmark, CommGraph)>,
    synth: SringSynthesizer,
    reference: Reference,
}

fn setup(args: &Args) -> Result<Setup, String> {
    let reference = Reference::committed()?;
    let apps: Vec<(Benchmark, CommGraph)> = args
        .workload
        .instances()
        .iter()
        .map(|&b| (b, b.graph()))
        .collect();
    Ok(Setup {
        apps,
        synth: SringSynthesizer::new(),
        reference,
    })
}

/// The instance order of pass `pass`: a seeded shuffle.
fn order(n: usize, seed: u64, pass: usize) -> Vec<usize> {
    let mut rng = SplitMix::new(mix(&[seed, pass as u64]));
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order
}

/// A fresh context: its own memo, no artifact cache, no store.
fn cold_ctx(threads: usize) -> ExecCtx {
    ExecCtx::cached().without_cache().with_threads(threads)
}

/// One synthesized instance.
struct Op {
    app: usize,
    elapsed: Duration,
    report: Result<SringReport, String>,
}

fn untraced_pass(s: &Setup, order: &[usize], threads: usize) -> (Duration, Vec<Op>) {
    let start = Instant::now();
    let ops = order
        .iter()
        .map(|&app| {
            let ctx = cold_ctx(threads);
            let t = Instant::now();
            let report = s.synth.synthesize_detailed_ctx(&s.apps[app].1, &ctx);
            Op {
                app,
                elapsed: t.elapsed(),
                report: report.map_err(|e| e.to_string()),
            }
        })
        .collect();
    (start.elapsed(), ops)
}

/// Per-layer sums of one traced pass.
type Layers = BTreeMap<String, f64>;

fn add(layers: &mut Layers, name: &str, value: f64) {
    *layers.entry(name.to_owned()).or_default() += value;
}

/// Synthesizes `app` stage by stage, timing each stage from outside.
fn composed(
    s: &Setup,
    app: usize,
    threads: usize,
    layers: &mut Layers,
) -> Result<(RouterDesign, String), String> {
    let (bench, graph) = &s.apps[app];
    let config = s.synth.config();
    let ctx = cold_ctx(threads).with_trace(Trace::new());
    let start = Instant::now();
    let err = |e: &dyn std::fmt::Display| format!("{bench}: {e}");

    let t = Instant::now();
    let clustering = run_stage(&ctx, &ClusterStage { app: graph, config }).map_err(|e| err(&e))?;
    let cluster = t.elapsed();
    let t = Instant::now();
    let layout = run_stage(
        &ctx,
        &LayoutStage {
            app: graph,
            config,
            clustering: &clustering,
        },
    )
    .map_err(|e| err(&e))?;
    let layout_t = t.elapsed();
    let t = Instant::now();
    let route = run_stage(
        &ctx,
        &RouteStage {
            app: graph,
            config,
            clustering: &clustering,
            layout: &layout,
        },
    )
    .map_err(|e| err(&e))?;
    let route_t = t.elapsed();
    let t = Instant::now();
    let assignment = run_stage(
        &ctx,
        &AssignStage {
            app: graph,
            config,
            route: &route,
            cacheable: true,
        },
    )
    .map_err(|e| err(&e))?;
    let assign = t.elapsed();

    let t = Instant::now();
    let mut signal_paths = route.signal_paths.clone();
    for (p, &w) in signal_paths.iter_mut().zip(&assignment.wavelengths) {
        p.wavelength = w;
    }
    let senders: BTreeSet<NodeId> = signal_paths.iter().map(|p| p.src).collect();
    let pdn = PdnDesign::new(
        PdnStyle::SharedTree,
        assignment.node_splitter.clone(),
        senders.len(),
    );
    let design = RouterDesign::new(
        "SRing",
        graph.name(),
        layout.layout.clone(),
        signal_paths,
        pdn,
    )
    .map_err(|e| err(&e))?;
    let pdn_t = t.elapsed();
    let t = Instant::now();
    design.validate_against(graph).map_err(|e| err(&e))?;
    let validate = t.elapsed();
    let wall = start.elapsed();

    let stages = [
        ("cluster.s", cluster),
        ("layout.s", layout_t),
        ("route.s", route_t),
        ("assign.s", assign),
        ("pdn.s", pdn_t),
        ("validate.s", validate),
    ];
    let attributed: Duration = stages.iter().map(|(_, d)| *d).sum();
    for (name, d) in stages {
        add(layers, name, d.as_secs_f64());
    }
    add(
        layers,
        &format!("cluster.s.{}", bench.name()),
        cluster.as_secs_f64(),
    );
    add(
        layers,
        &format!("assign.s.{}", bench.name()),
        assign.as_secs_f64(),
    );
    add(layers, "synth.s", wall.as_secs_f64());
    add(
        layers,
        "stage.unattributed_s",
        wall.saturating_sub(attributed).as_secs_f64(),
    );
    let outside = match &assignment.solver_stats {
        Some(stats) => {
            add(
                layers,
                "assign.milp.solve_s",
                stats.solve_time.as_secs_f64(),
            );
            add(layers, "assign.milp.lp_s", stats.lp_time().as_secs_f64());
            add(layers, "milp.nodes", stats.nodes_explored as f64);
            add(layers, "milp.lp_solves", stats.lp_solves as f64);
            add(layers, "milp.pivots", stats.total_pivots() as f64);
            add(
                layers,
                "milp.refactorizations",
                stats.refactorizations as f64,
            );
            add(layers, "milp.warm_hits", stats.warm_start_hits as f64);
            add(
                layers,
                "milp.warm_attempts",
                stats.warm_start_attempts as f64,
            );
            assign.saturating_sub(stats.solve_time)
        }
        None => assign,
    };
    add(layers, "assign.outside_solver_s", outside.as_secs_f64());
    if let Some(memo) = ctx.memo_stats() {
        add(layers, "memo.gets", memo.gets as f64);
        add(layers, "memo.hits", memo.hits as f64);
        add(layers, "memo.evictions", memo.evictions as f64);
    }
    Ok((design, ctx.trace().report().to_json()))
}

pub fn run(args: &Args) -> Result<RunResult, String> {
    let started = Instant::now();
    let mut setup_times = Vec::with_capacity(SETUP_REPS);
    let mut s = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        s = Some(setup(args)?);
        setup_times.push(t.elapsed().as_secs_f64());
    }
    let s = s.ok_or("no set-up ran")?;
    eprintln!(
        "perfbench: {} set up in {:.3} s",
        args.workload.name(),
        started.elapsed().as_secs_f64()
    );
    let threads = args.workload.threads();
    let n = s.apps.len();

    let mut result = RunResult::default();
    let mut pass_times = Vec::new();
    let mut traced_times = Vec::new();
    let mut traced_layers: Vec<Layers> = Vec::new();
    let mut ops: Vec<Op> = Vec::new();
    let mut traced_designs: Vec<(usize, Result<RouterDesign, String>)> = Vec::new();
    let mut traces: BTreeMap<&str, String> = BTreeMap::new();
    let clock = Instant::now();
    let mut pass = 0;
    let mut longest = Duration::ZERO;
    // Untraced passes while another one fits in `--seconds`, judged by the
    // longest pass so far, so that a run does not overrun by a pass; in a
    // traced run every second pass is a traced one and both kinds must
    // have run at least once.
    while pass < if args.trace { 2 } else { 1 } || clock.elapsed() + longest <= args.seconds {
        let started_pass = Instant::now();
        let order = order(n, args.seed, pass);
        if args.trace && pass % 2 == 1 {
            let mut layers = Layers::new();
            let t = Instant::now();
            for &app in &order {
                let design = composed(&s, app, threads, &mut layers).map(|(design, trace)| {
                    traces.insert(s.apps[app].0.name(), trace);
                    design
                });
                traced_designs.push((app, design));
            }
            traced_times.push(t.elapsed().as_secs_f64());
            traced_layers.push(layers);
        } else {
            let (elapsed, pass_ops) = untraced_pass(&s, &order, threads);
            for op in &pass_ops {
                eprintln!(
                    "perfbench: {} took {:.3} s",
                    s.apps[op.app].0,
                    op.elapsed.as_secs_f64()
                );
            }
            pass_times.push(elapsed.as_secs_f64());
            ops.extend(pass_ops);
        }
        longest = longest.max(started_pass.elapsed());
        eprintln!(
            "perfbench: pass {pass} done at {:.3} s",
            clock.elapsed().as_secs_f64()
        );
        pass += 1;
    }

    // Correctness, outside the timed region: every design is validated,
    // replayed and compared with the committed reference.
    let mut quality: BTreeMap<usize, PaperRef> = BTreeMap::new();
    let (mut compared, mut matched) = (0u64, 0u64);
    let (mut milp, mut proven) = (0u64, 0u64);
    let mut untraced_bytes: BTreeMap<usize, Vec<u8>> = BTreeMap::new();
    for op in &ops {
        let (bench, graph) = &s.apps[op.app];
        let checked = op.report.as_ref().map_err(Clone::clone).and_then(|report| {
            let q = check::design(graph, &report.design)?;
            let want = s.reference.paper.get(bench.name());
            compared += 1;
            if want == Some(&q) {
                matched += 1;
            } else {
                eprintln!("perfbench: {bench} differs from the reference: {q:?} vs {want:?}");
            }
            if report.assignment.solver_stats.is_some() {
                milp += 1;
                proven += u64::from(report.assignment.proven_optimal);
            }
            untraced_bytes
                .entry(op.app)
                .or_insert_with(|| design_bytes(&report.design));
            quality.entry(op.app).or_insert(q);
            Ok(())
        });
        result.count(checked);
    }
    // Composition check: the stage-by-stage chain must reproduce the
    // untraced pipeline byte for byte.
    for (app, design) in &traced_designs {
        let (bench, graph) = &s.apps[*app];
        let checked = design.as_ref().map_err(Clone::clone).and_then(|design| {
            check::design(graph, design)?;
            match untraced_bytes.get(app) {
                Some(bytes) if *bytes == design_bytes(design) => Ok(()),
                Some(_) => Err(format!(
                    "{bench}: the composed stages differ from synthesize_ctx"
                )),
                None => Err(format!("{bench}: no untraced design to compare with")),
            }
        });
        result.count(checked);
    }

    result.reference = quality
        .iter()
        .map(|(&app, q)| paper_line(s.apps[app].0.name(), q))
        .collect();
    let m = &mut result.metrics;
    m.set("setup_s", median(&setup_times).unwrap_or(0.0));
    m.set("pass_s", median(&pass_times).unwrap_or(0.0));
    m.set("laser_mw", quality.values().map(|q| q.laser_mw).sum());
    m.set(
        "wavelengths",
        quality.values().map(|q| q.wavelengths as f64).sum(),
    );
    m.set("match_frac", matched as f64 / compared.max(1) as f64);
    // Vacuously 1 when no design of the workload is MILP-assigned.
    m.set(
        "optimal_frac",
        if milp == 0 {
            1.0
        } else {
            proven as f64 / milp as f64
        },
    );
    result.set_ok_frac();

    if args.trace {
        let latencies: Vec<f64> = ops
            .iter()
            .map(|op| op.elapsed.as_secs_f64() * 1e3)
            .collect();
        result.metrics = layer_metrics(&traced_layers, &traced_times, &pass_times);
        result
            .metrics
            .set("op_p50_ms", median(&latencies).unwrap_or(0.0));
        result.metrics.set("peak_rss_mb", peak_rss_mb()?);
        let body: Vec<String> = traces
            .iter()
            .map(|(app, json)| format!("\"{app}\": {json}"))
            .collect();
        write_evidence(args, &format!("{{{}}}\n", body.join(", ")))?;
    }
    Ok(result)
}

/// Per-layer metrics: the median over traced passes of each per-pass sum.
fn layer_metrics(passes: &[Layers], traced: &[f64], untraced: &[f64]) -> Metrics {
    let mut m = Metrics::default();
    for d in per_layer() {
        m.set(d.name, 0.0);
    }
    let keys: BTreeSet<&String> = passes.iter().flat_map(|l| l.keys()).collect();
    for key in keys {
        let values: Vec<f64> = passes
            .iter()
            .map(|l| l.get(key).copied().unwrap_or(0.0))
            .collect();
        if per_layer().iter().any(|d| &d.name == key) {
            m.set(key.clone(), median(&values).unwrap_or(0.0));
        }
    }
    let total = |name: &str| -> f64 { passes.iter().filter_map(|l| l.get(name)).sum() };
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
    m
}
