//! advbench: the advcomp benchmark.
//!
//! Three workloads, one per way advcomp is used:
//!
//! * `sweep_lenet` — a researcher's attack × compression sweep
//!   ([`sweep`]);
//! * `serve_guarded` and `serve_wire` — an operator's compressed ensemble
//!   behind the guard, and the bare serving stack ([`serving`]).
//!
//! Every workload reports every end-to-end metric. Each workload has a
//! heavy part and a light part: the sweep workload's serve figures come
//! from a control run of the wire stack, and the serve workloads'
//! `sweep_s` is their offline reference pass over the traffic pool. The
//! light part is the "bypass" side of each comparison: a change to one
//! layer should move the heavy part of the workload that exercises it and
//! leave the light parts alone.

pub mod gen;
pub mod host;
pub mod probes;
pub mod serving;
pub mod stats;
pub mod sweep;
pub mod trace;

use advcomp_serve::json::{Json, JsonObj};
use serving::{Kind, Stack};
use stats::median;
use std::time::Instant;
use trace::{self_seconds, self_times, Tracer};

/// Error type of the benchmark's own plumbing.
pub type BenchResult<T> = Result<T, Box<dyn std::error::Error + Send + Sync>>;

/// Seed both trained baselines are initialised with: the seed every
/// exhibit binary trains with. Some initialisation seeds make LeNet5
/// training collapse to chance (see the README), so the workload seed does
/// not reach training.
pub const TRAIN_SEED: u64 = 7;

/// Test accuracy a trained baseline must reach for a run to be correct.
pub const ACCURACY_FLOOR: f64 = 0.9;

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["sweep_lenet", "serve_guarded", "serve_wire"];

/// Kernel-pool threads a workload runs with: [`sweep::POOL_THREADS`] (at
/// most the host's cores) for the sweep, whose points run one at a time;
/// one for the serve workloads, whose engine worker, I/O thread and load
/// generator already share the host's cores.
pub fn pool_threads(workload: &str) -> usize {
    if workload == "sweep_lenet" {
        sweep::POOL_THREADS.min(host::cores()).max(1)
    } else {
        1
    }
}

/// One metric of a result.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

fn m(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit,
    }
}

/// What one run measured and checked.
#[derive(Debug)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (sweep points, requests at the lo/hi rates).
    pub attempted: usize,
    /// Of those, operations that failed, were refused, lost or wrong.
    pub failed: usize,
    /// End-to-end metrics (untraced) or per-layer metrics (traced).
    pub metrics: Vec<Metric>,
    /// Output-check failures, for the log.
    pub problems: Vec<String>,
    /// Everything else worth keeping in the result file.
    pub details: Json,
}

/// Run options from the command line.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// Workload seed.
    pub seed: u64,
    /// Measuring time of the run, s.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the untraced one.
    pub trace: bool,
}

/// Runs `workload`; the trace (traced runs only) goes to `trace_path`.
///
/// # Errors
///
/// Set-up failures and unknown workloads. A failed output check is not
/// an error: it comes back as `correct == false`.
pub fn run(workload: &str, opts: Options, trace_path: &std::path::Path) -> BenchResult<Outcome> {
    let tracer = Tracer::new(opts.trace);
    let out = match (workload, opts.trace) {
        ("sweep_lenet", false) => sweep_e2e(opts)?,
        ("sweep_lenet", true) => sweep_layers(opts, &tracer)?,
        ("serve_guarded", false) => serve_e2e(Kind::Guarded, opts)?,
        ("serve_guarded", true) => serve_layers(Kind::Guarded, opts, &tracer)?,
        ("serve_wire", false) => serve_e2e(Kind::Wire, opts)?,
        ("serve_wire", true) => serve_layers(Kind::Wire, opts, &tracer)?,
        _ => {
            return Err(
                format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}").into(),
            )
        }
    };
    if opts.trace {
        tracer.write(trace_path)?;
    }
    Ok(out)
}

/// Times `reps` builds with `build`, keeping the last result; returns it
/// with the median build time in seconds.
fn timed_setup<T>(reps: usize, mut build: impl FnMut() -> BenchResult<T>) -> BenchResult<(T, f64)> {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let t = Instant::now();
        last = Some(build()?);
        times.push(t.elapsed().as_secs_f64());
    }
    Ok((last.expect("at least one set-up"), median(&times)))
}

/// The serve figures of one stack: lo and hi phases and saturation.
struct ServeFigures {
    metrics: Vec<Metric>,
    rss_mb: f64,
    attempted: usize,
    failed: usize,
    mismatched: usize,
    details: Json,
}

/// Shares of `--seconds` given to the lo and hi phases and the saturation
/// run; phases disturbed by the hypervisor may be repeated for up to
/// `RETRY_SHARE` of `--seconds`.
const LO_SHARE: f64 = 0.2;
const HI_SHARE: f64 = 0.45;
const SATURATION_SHARE: f64 = 0.35;
const RETRY_SHARE: f64 = 0.35;

fn serve_figures(stack: &Stack, seconds: f64) -> BenchResult<ServeFigures> {
    let rates = stack.kind.rates();
    let off = Tracer::new(false);
    let mut offers = serving::Offers::new(stack, &off, seconds * RETRY_SHARE);
    let (lo, lo_steal, lo_trace) = offers.phase(rates.lo, seconds * LO_SHARE)?;
    let (hi, hi_steal, hi_trace) = offers.phase(rates.hi, seconds * HI_SHARE)?;
    // Memory is read before saturation, which keeps far more requests
    // buffered than the fixed rates ever do.
    let rss_mb = host::peak_rss_mb();
    let (sat, sat_steal, sat_trace) = offers.saturate(seconds * SATURATION_SHARE)?;
    let max_rps = sat.rps(&sat_trace);
    let mismatched = offers.mismatched;
    let step_json = |r: &gen::Report| {
        JsonObj::new()
            .set("rate", Json::Num(r.rate))
            .set("attempted", Json::Num(r.attempted as f64))
            .set("ok", Json::Num(r.ok as f64))
            .set("overloaded", Json::Num(r.overloaded as f64))
            .set("failed", Json::Num(r.failed as f64))
            .set("mismatched", Json::Num(r.mismatched as f64))
            .set("lost", Json::Num(r.lost as f64))
            .set("p50_ms", Json::Num(r.latency_q(0.5)))
            .set("p99_ms", Json::Num(r.p99_ms()))
            .set("plain_p99_ms", Json::Num(r.latency_q(0.99)))
            .set(
                "window_p99_ms",
                Json::Arr(
                    gen::window_quantiles(&r.latency_ms, 0.99)
                        .into_iter()
                        .map(Json::Num)
                        .collect(),
                ),
            )
            .set("lag_p99_ms", Json::Num(r.lag_q(0.99)))
            .build()
    };
    let details = JsonObj::new()
        .set("lo", step_json(&lo))
        .set("hi", step_json(&hi))
        .set(
            "saturation",
            JsonObj::new()
                .set("window", Json::Num(serving::SATURATION_WINDOW as f64))
                .set("attempted", Json::Num(sat.attempted as f64))
                .set("ok", Json::Num(sat.ok as f64))
                .set("rps", Json::Num(max_rps))
                .set(
                    "segment_rps",
                    Json::Arr(sat.segments().iter().map(|s| Json::Num(s.2)).collect()),
                )
                .set(
                    "segment_steal_pct",
                    Json::Arr(
                        sat.segments()
                            .iter()
                            .map(|s| Json::Num(sat_trace.pct(s.0, s.1)))
                            .collect(),
                    ),
                )
                .set(
                    "batch_size_mean",
                    Json::Num(sat.attempted as f64 / sat.batches.max(1) as f64),
                )
                .set(
                    "cpu_us_per_req",
                    Json::Num(sat.cpu_s / sat.attempted as f64 * 1e6),
                )
                .build(),
        )
        .set("lo_steal_pct", Json::Num(lo_steal))
        .set("hi_steal_pct", Json::Num(hi_steal))
        .set("saturation_steal_pct", Json::Num(sat_steal))
        .set("retried_phases", Json::Num(offers.retries as f64))
        .build();
    Ok(ServeFigures {
        metrics: vec![
            m("p50_ms.lo", lo.quiet_q(0.5, &lo_trace), "ms"),
            m("p50_ms.hi", hi.quiet_q(0.5, &hi_trace), "ms"),
            m("p99_ms.hi", hi.quiet_q(0.99, &hi_trace), "ms"),
            m("max_rps", max_rps, "1/s"),
        ],
        rss_mb,
        attempted: lo.attempted + hi.attempted + sat.attempted,
        failed: lo.misses() + hi.misses() + sat.misses(),
        mismatched,
        details,
    })
}

/// The serve output checks: no answer differed from the offline
/// reference, and a trained baseline reached the accuracy floor.
fn serve_problems(stack: &Stack, mismatched: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if mismatched > 0 {
        problems.push(format!(
            "{mismatched} answers differ from the offline reference"
        ));
    }
    if let Some(acc) = stack.baseline_accuracy.filter(|&a| a < ACCURACY_FLOOR) {
        problems.push(format!(
            "served baseline accuracy {acc:.4} is below the floor {ACCURACY_FLOOR}"
        ));
    }
    problems
}

fn sweep_e2e(opts: Options) -> BenchResult<Outcome> {
    let scale = sweep::scale();
    let (matrix, setup_s) = timed_setup(9, || {
        let task = sweep::setup_task(&scale);
        std::hint::black_box(task.train.len());
        Ok(sweep::matrix(opts.seed))
    })?;
    let ticks = host::cpu_ticks();
    let (run, sweep_s) = sweep::run(&matrix, &scale)?;
    let sweep_steal = host::steal_pct(ticks, host::cpu_ticks());
    let rss_mb = host::peak_rss_mb();
    let (acc, loss, pts) = sweep::points(&run.results);
    let mut problems = sweep::check(acc, &pts, matrix.attacks.len());
    let digest = sweep::digest(acc, loss, &pts);

    // Control: the wire stack measured as `serve_wire` measures it, which
    // this workload should leave unchanged.
    let mut control = serving::build(Kind::Wire, opts.seed, &Tracer::new(false))?;
    control.reference()?;
    let serve = serve_figures(&control, opts.seconds)?;
    problems.extend(serve_problems(&control, serve.mismatched));

    let mut metrics = vec![m("setup_s", setup_s, "s"), m("sweep_s", sweep_s, "s")];
    metrics.extend(serve.metrics);
    metrics.push(m("peak_rss_mb", rss_mb, "MB"));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: matrix.recipes.len() + serve.attempted,
        failed: run.failed.len() + serve.failed,
        metrics,
        problems,
        details: JsonObj::new()
            .set("digest", Json::Str(digest))
            .set("baseline_accuracy", Json::Num(acc))
            .set("failed_points", Json::Num(run.failed.len() as f64))
            .set("health_events", Json::Num(run.health.len() as f64))
            .set("sweep_steal_pct", Json::Num(sweep_steal))
            .set("control_serve_wire", serve.details)
            .build(),
    })
}

fn serve_e2e(kind: Kind, opts: Options) -> BenchResult<Outcome> {
    let off = Tracer::new(false);
    let reps = if kind == Kind::Guarded { 3 } else { 9 };
    let (mut stack, setup_s) = timed_setup(reps, || serving::build(kind, opts.seed, &off))?;
    let sweep_s = serving::time_reference(&mut stack)?;
    let serve = serve_figures(&stack, opts.seconds)?;
    let problems = serve_problems(&stack, serve.mismatched);
    let mut metrics = vec![m("setup_s", setup_s, "s"), m("sweep_s", sweep_s, "s")];
    metrics.extend(serve.metrics);
    metrics.push(m("peak_rss_mb", serve.rss_mb, "MB"));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: serve.attempted,
        failed: serve.failed,
        metrics,
        problems,
        details: JsonObj::new()
            .set(
                "baseline_accuracy",
                stack.baseline_accuracy.map_or(Json::Null, Json::Num),
            )
            .set("serve", serve.details)
            .build(),
    })
}

/// Per-layer metric names, in `BENCHMARK.json` order. A traced run
/// reports every one of them; a layer that does no work on a workload
/// reports 0.
pub fn per_layer_names() -> Vec<String> {
    let mut names: Vec<String> = [
        "core.train_s",
        "compress.dns_s",
        "compress.quant_s",
        "attacks.ifgsm_s",
        "attacks.ifgm_s",
        "attacks.deepfool_s",
        "attacks.craft_share",
        "attacks.grad_evals_per_s",
        "nn.train_samples_per_s",
        "nn.eval_s",
        "graph.eval_s",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    for (f, _) in probes::FORMATS {
        names.push(format!("graph.compile_us.{f}"));
    }
    for (f, _) in probes::FORMATS {
        for b in probes::BATCHES {
            names.push(format!("graph.forward_us.{f}.b{b}"));
        }
    }
    for (f, _) in probes::FORMATS {
        for b in probes::BATCHES {
            names.push(format!("graph.gmacs_per_s.{f}.b{b}"));
        }
    }
    names.extend(
        [
            "tensor.gemm_gflops",
            "tensor.qgemm_gflops",
            "detect.score_us.b16",
            "serve.engine_us.p50",
            "serve.engine_us.p99",
            "serve.wire_us",
            "wire.frame_us",
            "serve.batch_size_mean",
            "serve.overloaded",
            "serve.steals",
            "serve.queue_wait_us.p50",
            "serve.queue_wait_us.p99",
            "gen.lag_ms.p99",
            "trace.overhead_pct",
        ]
        .iter()
        .map(|s| s.to_string()),
    );
    names
}

/// Unit of a per-layer metric, from its name.
pub fn per_layer_unit(name: &str) -> &'static str {
    if name.contains("gmacs_per_s") {
        "GMAC/s"
    } else if name.contains("gflops") {
        "GFLOP/s"
    } else if name.contains("_per_s") {
        "1/s"
    } else if name.contains("_us") {
        "us"
    } else if name.contains("_ms") {
        "ms"
    } else if name.ends_with("_s") {
        "s"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.ends_with("_share") {
        "ratio"
    } else if name == "serve.batch_size_mean" {
        "requests"
    } else {
        "count"
    }
}

/// Assembles per-layer metrics: every listed name, 0 where not measured.
fn layer_metrics(found: &[(String, f64)]) -> Vec<Metric> {
    per_layer_names()
        .into_iter()
        .map(|name| {
            let value = found
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v);
            let unit = per_layer_unit(&name);
            m(name, value, unit)
        })
        .collect()
}

fn graph_layers(model: &advcomp_nn::Sequential, found: &mut Vec<(String, f64)>) -> BenchResult<()> {
    let shape = serving::SAMPLE_SHAPE;
    for p in probes::formats(model, &shape)? {
        found.push((format!("graph.compile_us.{}", p.format), p.compile_us));
        for (i, b) in probes::BATCHES.iter().enumerate() {
            found.push((
                format!("graph.forward_us.{}.b{b}", p.format),
                p.forward_us[i],
            ));
            found.push((
                format!("graph.gmacs_per_s.{}.b{b}", p.format),
                p.gmacs_per_s[i],
            ));
        }
    }
    let (gm, gk, gn) = probes::largest_gemm(model, &shape)?;
    let (f32_gflops, q8_gflops) = probes::gemm_gflops(gm, gk, gn)?;
    found.push(("tensor.gemm_gflops".into(), f32_gflops));
    found.push(("tensor.qgemm_gflops".into(), q8_gflops));
    Ok(())
}

fn sweep_layers(opts: Options, tracer: &Tracer) -> BenchResult<Outcome> {
    let scale = sweep::scale();
    let matrix = sweep::matrix(opts.seed);
    let (run, untraced_s) = sweep::run(&matrix, &scale)?;
    let (acc, loss, pts) = sweep::points(&run.results);
    let digest = sweep::digest(acc, loss, &pts);
    let traced = sweep::traced(&matrix, &scale, tracer)?;
    let traced_digest = sweep::digest(traced.baseline.0, traced.baseline.1, &traced.points);
    let mut problems = sweep::check(acc, &pts, matrix.attacks.len());
    if traced_digest != digest {
        problems.push(format!(
            "traced run digest {traced_digest} differs from the untraced {digest}"
        ));
    }
    let mut found: Vec<(String, f64)> = traced
        .layers
        .iter()
        .map(|(n, v)| (n.to_string(), *v))
        .collect();
    found.push((
        "graph.eval_s".into(),
        sweep::planned_eval_s(&traced.baseline_model, &traced.test.0, &traced.test.1)?,
    ));
    graph_layers(&traced.baseline_model, &mut found)?;
    let ensemble = [
        ("f32".to_string(), traced.baseline_model.clone()),
        (
            "q8".to_string(),
            probes::in_format(&traced.baseline_model, Some(8))?,
        ),
        (
            "q4".to_string(),
            probes::in_format(&traced.baseline_model, Some(4))?,
        ),
    ];
    found.push((
        "detect.score_us.b16".into(),
        probes::detect_score_us(
            &ensemble,
            &traced.test.0.narrow(0, 16)?,
            &serving::SAMPLE_SHAPE,
        )?,
    ));
    found.push((
        "trace.overhead_pct".into(),
        (traced.wall_s - untraced_s) / untraced_s * 100.0,
    ));
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: 2 * matrix.recipes.len(),
        failed: run.failed.len(),
        metrics: layer_metrics(&found),
        problems,
        details: JsonObj::new()
            .set("digest", Json::Str(digest))
            .set("traced_digest", Json::Str(traced_digest))
            .set("untraced_sweep_s", Json::Num(untraced_s))
            .set("traced_sweep_s", Json::Num(traced.wall_s))
            .build(),
    })
}

fn serve_layers(kind: Kind, opts: Options, tracer: &Tracer) -> BenchResult<Outcome> {
    let rates = kind.rates();
    let mut stack = serving::build(kind, opts.seed, tracer)?;
    stack.reference()?;
    let off = Tracer::new(false);
    let phase = gen::Phase::new(rates.hi, opts.seconds * HI_SHARE, serving::DRAIN);
    let untraced = stack.tcp_phase(&phase, &off)?;
    serving::settle();
    let traced = stack.tcp_phase(&phase, tracer)?;
    serving::settle();
    let engine = stack.engine_phase(&phase, tracer);
    serving::settle();

    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let secs = |name: &str| self_seconds(&spans, &selfs, name);
    let mut found: Vec<(String, f64)> = vec![
        ("core.train_s".into(), secs("core.train")),
        ("compress.quant_s".into(), secs("compress.quant")),
    ];
    if kind == Kind::Guarded {
        let scale = advcomp_core::ExperimentScale::tiny();
        let train_s = secs("core.train");
        found.push((
            "nn.train_samples_per_s".into(),
            (scale.train_size * scale.baseline_epochs) as f64 / train_s,
        ));
        let busy: f64 = selfs.iter().map(|&ns| ns as f64 * 1e-9).sum();
        found.push(("attacks.craft_share".into(), secs("attacks.uap") / busy));
        let x16 = advcomp_tensor::Tensor::new(&[16, 1, 28, 28], stack.pool[..16].concat())?;
        found.push((
            "detect.score_us.b16".into(),
            probes::detect_score_us(&stack.models, &x16, &serving::SAMPLE_SHAPE)?,
        ));
    }
    graph_layers(&stack.models[0].1, &mut found)?;

    let engine_p50_us = engine.latency_q(0.5) * 1e3;
    let metrics = stack.engine().metrics();
    found.extend([
        ("serve.engine_us.p50".into(), engine_p50_us),
        ("serve.engine_us.p99".into(), engine.p99_ms() * 1e3),
        (
            "serve.wire_us".into(),
            untraced.latency_q(0.5) * 1e3 - engine_p50_us,
        ),
        ("wire.frame_us".into(), probes::frame_us(stack.payload(0))?),
        ("serve.batch_size_mean".into(), metrics.batch_sizes.mean()),
        (
            "serve.overloaded".into(),
            metrics
                .overloaded
                .load(std::sync::atomic::Ordering::Relaxed) as f64,
        ),
        ("serve.steals".into(), stack.engine().steals() as f64),
        (
            "serve.queue_wait_us.p50".into(),
            metrics.queue_wait.quantile_us(0.5) as f64,
        ),
        (
            "serve.queue_wait_us.p99".into(),
            metrics.queue_wait.quantile_us(0.99) as f64,
        ),
        ("gen.lag_ms.p99".into(), untraced.lag_q(0.99)),
        (
            "trace.overhead_pct".into(),
            (traced.latency_q(0.5) - untraced.latency_q(0.5)) / untraced.latency_q(0.5) * 100.0,
        ),
    ]);
    let mismatched = untraced.mismatched + traced.mismatched + engine.mismatched;
    let problems = serve_problems(&stack, mismatched);
    Ok(Outcome {
        correct: problems.is_empty(),
        attempted: untraced.attempted + traced.attempted + engine.attempted,
        failed: untraced.misses() + traced.misses() + engine.misses(),
        metrics: layer_metrics(&found),
        problems,
        details: JsonObj::new()
            .set("hi_rate", Json::Num(rates.hi))
            .set("untraced_p50_ms", Json::Num(untraced.latency_q(0.5)))
            .set("traced_p50_ms", Json::Num(traced.latency_q(0.5)))
            .set("engine_p50_ms", Json::Num(engine.latency_q(0.5)))
            .set(
                "queue_wait_note",
                Json::Str(
                    "serve.queue_wait_us.* are power-of-two histogram bucket edges (coarse)".into(),
                ),
            )
            .set("metrics_snapshot", stack.engine().metrics_snapshot())
            .build(),
    })
}
