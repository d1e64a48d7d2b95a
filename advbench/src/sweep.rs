//! The researcher workload: one `TransferMatrix::run_resilient` on LeNet5
//! at the `quick` profile — DNS pruning and fixed-point quantisation
//! recipes crossed with IFGSM, IFGM and DeepFool, Scenarios 1–3 each.
//!
//! The traced run repeats the matrix through the same public calls that
//! `run_resilient` makes — `TaskSetup::new`, `TrainedModel::train`,
//! `Compression::apply`, `Attack::generate`, `evaluate_model` and the eval
//! forward — with a span around each, and must reproduce the untraced
//! run's results digest bit for bit.

use crate::stats::Digest;
use crate::trace::{self_seconds, self_times, Tracer};
use crate::{BenchResult, ACCURACY_FLOOR, TRAIN_SEED};
use advcomp_attacks::{AttackKind, NetKind, PaperParams, PlannedEval};
use advcomp_core::sweep::{MatrixRun, RunConfig, SweepResult, TransferMatrix};
use advcomp_core::{
    evaluate_model, Compression, ExperimentScale, RetryPolicy, TaskSetup, TrainedModel,
};
use advcomp_nn::{accuracy, Mode, Sequential};
use advcomp_tensor::Tensor;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Sweep points run one at a time. With two workers the matrix's wall
/// time depended on which points happened to share the workers, which
/// widened its spread from run to run by about half.
pub const MAX_WORKERS: usize = 1;

/// Kernel-pool threads of the sweep workload (`ADVCOMP_THREADS`), at most
/// the host's cores: workers × pool threads stays at two, the size of the
/// reference host.
pub const POOL_THREADS: usize = 2;

/// The `quick` profile with the sweep's worker count pinned.
pub fn scale() -> ExperimentScale {
    let mut s = ExperimentScale::quick();
    s.max_workers = MAX_WORKERS.min(crate::host::cores()).max(1);
    s
}

/// The matrix: DNS pruning at densities 1.0/0.5/0.1/0.02 and `Quant` at 8
/// and 4 bits, against IFGSM, IFGM and DeepFool. `seed` permutes the order
/// the attacks run in within each point. The recipes keep their order; the
/// results are compared in canonical order, so every seed must give the
/// same digest.
pub fn matrix(seed: u64) -> TransferMatrix {
    let mut attacks = AttackKind::ALL.to_vec();
    let mut rng = crate::stats::SplitMix64::new(seed);
    for i in (1..attacks.len()).rev() {
        attacks.swap(i, rng.below(i + 1));
    }
    TransferMatrix {
        net: NetKind::LeNet5,
        attacks,
        recipes: vec![
            (1.0, Compression::None),
            (0.5, Compression::DnsPrune { density: 0.5 }),
            (0.1, Compression::DnsPrune { density: 0.1 }),
            (0.02, Compression::DnsPrune { density: 0.02 }),
            (
                8.0,
                Compression::Quant {
                    bitwidth: 8,
                    weights_only: false,
                },
            ),
            (
                4.0,
                Compression::Quant {
                    bitwidth: 4,
                    weights_only: false,
                },
            ),
        ],
    }
}

/// Per-run data generation: the task the matrix trains on.
pub fn setup_task(scale: &ExperimentScale) -> TaskSetup {
    TaskSetup::new(NetKind::LeNet5, scale)
}

/// Runs the matrix untraced. Returns the run and its wall time.
pub fn run(m: &TransferMatrix, scale: &ExperimentScale) -> BenchResult<(MatrixRun, f64)> {
    let t = Instant::now();
    let run = m.run_resilient(
        scale,
        &RunConfig {
            seed: TRAIN_SEED,
            run_dir: None,
            retry: RetryPolicy::none(),
        },
    )?;
    Ok((run, t.elapsed().as_secs_f64()))
}

/// One point's numbers, independent of how they were computed.
#[derive(Debug, Clone, PartialEq)]
pub struct Point {
    /// Attack id.
    pub attack: String,
    /// Sweep coordinate.
    pub x: f64,
    /// Recipe id.
    pub compression: String,
    /// Clean accuracy of the compressed model and Scenarios 1–3.
    pub values: [f64; 4],
}

/// The curves of a run as canonically ordered points, plus the baseline.
pub fn points(results: &[SweepResult]) -> (f64, f32, Vec<Point>) {
    let mut pts: Vec<Point> = results
        .iter()
        .flat_map(|r| {
            r.points.iter().map(|p| Point {
                attack: r.attack.clone(),
                x: p.x,
                compression: p.compression.clone(),
                values: [
                    p.base_accuracy,
                    p.comp_to_comp,
                    p.full_to_comp,
                    p.comp_to_full,
                ],
            })
        })
        .collect();
    canonical(&mut pts);
    let base = results
        .first()
        .map_or((0.0, 0.0), |r| (r.baseline_accuracy, r.baseline_loss));
    (base.0, base.1, pts)
}

fn canonical(pts: &mut [Point]) {
    pts.sort_by(|a, b| {
        (a.attack.as_str(), a.compression.as_str())
            .cmp(&(b.attack.as_str(), b.compression.as_str()))
            .then(a.x.total_cmp(&b.x))
    });
}

/// Digest over the baseline and every point, bit-exact.
pub fn digest(baseline_accuracy: f64, baseline_loss: f32, pts: &[Point]) -> String {
    let mut d = Digest::default();
    d.f64(baseline_accuracy).f64(f64::from(baseline_loss));
    for p in pts {
        d.str(&p.attack).f64(p.x).str(&p.compression);
        for v in p.values {
            d.f64(v);
        }
    }
    d.hex()
}

/// The output checks: baseline accuracy above the floor, and Scenarios 1,
/// 2 and 3 equal at the identity recipe (nothing was compressed, so all
/// three attack the same model). Returns the failures found.
pub fn check(baseline_accuracy: f64, pts: &[Point], attacks: usize) -> Vec<String> {
    let mut problems = Vec::new();
    if baseline_accuracy < ACCURACY_FLOOR {
        problems.push(format!(
            "baseline accuracy {baseline_accuracy:.4} is below the floor {ACCURACY_FLOOR}"
        ));
    }
    let identity: Vec<&Point> = pts.iter().filter(|p| p.compression == "none").collect();
    if identity.len() != attacks {
        problems.push(format!(
            "{} identity points for {attacks} attacks",
            identity.len()
        ));
    }
    for p in identity {
        let [_, s1, s2, s3] = p.values;
        if s1 != s2 || s2 != s3 {
            problems.push(format!(
                "{} at the identity: S1 {s1} S2 {s2} S3 {s3} differ",
                p.attack
            ));
        }
    }
    problems
}

/// What the traced run measured, beyond its points.
#[derive(Debug, Clone)]
pub struct Traced {
    /// Baseline accuracy and loss.
    pub baseline: (f64, f32),
    /// Canonically ordered points.
    pub points: Vec<Point>,
    /// Wall time of the traced matrix, s.
    pub wall_s: f64,
    /// Per-layer figures by metric name.
    pub layers: Vec<(&'static str, f64)>,
    /// The trained baseline, for the graph probes.
    pub baseline_model: Sequential,
    /// The test split, for the graph eval probe.
    pub test: (Tensor, Vec<usize>),
}

fn attack_span(kind: AttackKind) -> &'static str {
    match kind {
        AttackKind::Ifgsm => "attacks.ifgsm",
        AttackKind::Ifgm => "attacks.ifgm",
        AttackKind::DeepFool => "attacks.deepfool",
    }
}

fn compress_span(c: &Compression) -> &'static str {
    match c {
        Compression::None => "compress.none",
        Compression::DnsPrune { .. } | Compression::OneShotPrune { .. } => "compress.dns",
        Compression::Quant { .. } => "compress.quant",
    }
}

/// Eval-mode accuracy through the layer-at-a-time forward, as the sweep
/// evaluates scenarios.
fn accuracy_on(model: &mut Sequential, x: &Tensor, y: &[usize]) -> BenchResult<f64> {
    let logits = model.forward(x, Mode::Eval)?;
    Ok(accuracy(&logits, y)?)
}

/// Repeats the matrix through its public building blocks with a span
/// around each call, on the same number of workers.
pub fn traced(m: &TransferMatrix, scale: &ExperimentScale, tracer: &Tracer) -> BenchResult<Traced> {
    let t0 = Instant::now();
    let grad_evals = AtomicUsize::new(0);
    let count = |kind: AttackKind, n: usize| {
        if kind != AttackKind::DeepFool {
            grad_evals.fetch_add(
                n * PaperParams::adapted(m.net, kind).iterations,
                Ordering::Relaxed,
            );
        }
    };
    let (baseline, test, pts) = tracer.span("core.sweep", None, 0, |root| -> BenchResult<_> {
        let setup = tracer.span("data.task", root, 0, |_| TaskSetup::new(m.net, scale));
        let baseline = tracer.span("core.train", root, 0, |_| {
            TrainedModel::train(&setup, scale, TRAIN_SEED)
        })?;
        let finetune = setup.finetune_config(scale);
        let mut eval_sets = Vec::new();
        let mut adv_from_full = Vec::new();
        let mut full = baseline.instantiate()?;
        for &kind in &m.attacks {
            let want = if kind == AttackKind::DeepFool {
                scale.deepfool_eval
            } else {
                scale.attack_eval
            };
            let n = want.min(setup.test.len()).max(1);
            let (x, y) = setup.test.slice(0, n)?;
            let attack = PaperParams::build_adapted(m.net, kind);
            let adv = tracer.span(attack_span(kind), root, 0, |_| {
                attack.generate(&mut full, &x, &y)
            })?;
            count(kind, n);
            eval_sets.push((x, y));
            adv_from_full.push(adv);
        }

        let next = AtomicUsize::new(0);
        let results: Mutex<Vec<Option<BenchResult<Vec<Point>>>>> =
            Mutex::new((0..m.recipes.len()).map(|_| None).collect());
        let workers = scale.workers().min(m.recipes.len());
        std::thread::scope(|s| {
            for _ in 0..workers {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= m.recipes.len() {
                        break;
                    }
                    let (x_coord, recipe) = m.recipes[i];
                    let out = tracer.span(
                        "core.point",
                        root,
                        i as u64 + 1,
                        |point| -> BenchResult<Vec<Point>> {
                            let req = i as u64 + 1;
                            let mut comp = baseline.instantiate()?;
                            tracer.span(compress_span(&recipe), point, req, |_| {
                                recipe.apply(&mut comp, &setup.train, &finetune)
                            })?;
                            let mut full = baseline.instantiate()?;
                            let base_acc = tracer.span("nn.eval", point, req, |_| {
                                evaluate_model(&mut comp, &setup.test, 64)
                            })?;
                            let mut pts = Vec::new();
                            for (ai, &kind) in m.attacks.iter().enumerate() {
                                let (x, y) = &eval_sets[ai];
                                let attack = PaperParams::build_adapted(m.net, kind);
                                let adv = tracer.span(attack_span(kind), point, req, |_| {
                                    attack.generate(&mut comp, x, y)
                                })?;
                                count(kind, y.len());
                                let (s1, s3, s2) =
                                    tracer.span("nn.eval", point, req, |_| -> BenchResult<_> {
                                        Ok((
                                            accuracy_on(&mut comp, &adv, y)?,
                                            accuracy_on(&mut full, &adv, y)?,
                                            accuracy_on(&mut comp, &adv_from_full[ai], y)?,
                                        ))
                                    })?;
                                pts.push(Point {
                                    attack: kind.id().to_string(),
                                    x: x_coord,
                                    compression: recipe.id(),
                                    values: [base_acc, s1, s2, s3],
                                });
                            }
                            Ok(pts)
                        },
                    );
                    results.lock().expect("point results poisoned")[i] = Some(out);
                });
            }
        });
        let mut pts = Vec::new();
        for r in results.into_inner().expect("point results poisoned") {
            pts.extend(r.ok_or("a sweep point never ran")??);
        }
        canonical(&mut pts);
        let test = setup.test.slice(0, setup.test.len())?;
        Ok((baseline, test, pts))
    })?;
    let wall_s = t0.elapsed().as_secs_f64();

    let spans = tracer.spans();
    let selfs = self_times(&spans);
    let secs = |name: &str| self_seconds(&spans, &selfs, name);
    let busy: f64 = selfs.iter().map(|&ns| ns as f64 * 1e-9).sum();
    let craft = secs("attacks.ifgsm") + secs("attacks.ifgm") + secs("attacks.deepfool");
    let train_s = secs("core.train");
    let samples = (scale.train_size * scale.baseline_epochs) as f64;
    let layers = vec![
        ("core.train_s", train_s),
        ("compress.dns_s", secs("compress.dns")),
        ("compress.quant_s", secs("compress.quant")),
        ("attacks.ifgsm_s", secs("attacks.ifgsm")),
        ("attacks.ifgm_s", secs("attacks.ifgm")),
        ("attacks.deepfool_s", secs("attacks.deepfool")),
        ("attacks.craft_share", craft / busy),
        ("nn.eval_s", secs("nn.eval")),
        ("nn.train_samples_per_s", samples / train_s),
        (
            "attacks.grad_evals_per_s",
            grad_evals.load(Ordering::Relaxed) as f64
                / (secs("attacks.ifgsm") + secs("attacks.ifgm")),
        ),
    ];
    Ok(Traced {
        baseline: (baseline.test_accuracy, baseline.final_loss),
        points: pts,
        wall_s,
        layers,
        baseline_model: baseline.instantiate()?,
        test,
    })
}

/// Median time of `PlannedEval::accuracy` of `model` over `(x, y)`, s —
/// the compiled-plan alternative to the sweep's layer-at-a-time eval.
pub fn planned_eval_s(model: &Sequential, x: &Tensor, y: &[usize]) -> BenchResult<f64> {
    let mut m = model.clone();
    let mut plan = PlannedEval::compile(&m, &x.shape()[1..]);
    let mut times = Vec::new();
    for _ in 0..5 {
        let t = Instant::now();
        plan.accuracy(&mut m, x, y)?;
        times.push(t.elapsed().as_secs_f64());
    }
    Ok(crate::stats::median(&times))
}
