//! The two operator workloads: open-loop TCP traffic against an in-process
//! `advcomp-serve` server, every answer checked against an offline
//! reference forward of the same models.
//!
//! * `serve_guarded` — a trained LeNet5 baseline plus q8 and q4 variants
//!   frozen with `Quantizer::quantize_frozen`, behind the disagreement
//!   guard calibrated with `DetectorCalibration::calibrate`. Traffic is a
//!   seeded mix of clean digits and digits carrying a UAP crafted in
//!   setup, so the guard flags requests both ways.
//! * `serve_wire` — one untrained `mlp(32)`, no guard, rates about four
//!   times higher: the forward costs almost nothing, so serve I/O,
//!   framing, queueing and batching dominate.

use crate::gen::{self, Outcome, Phase, Report};
use crate::host::{self, StealSampler, StealTrace};
use crate::stats::SplitMix64;
use crate::trace::Tracer;
use crate::BenchResult;
use advcomp_attacks::{craft_uap, NetKind, UapConfig};
use advcomp_compress::Quantizer;
use advcomp_core::{ExperimentScale, TaskSetup, TrainedModel};
use advcomp_data::{DatasetConfig, SynthDigits};
use advcomp_detect::{Detector, DetectorCalibration, DisagreementDetector, VariantEnsemble};
use advcomp_graph::ExecPlan;
use advcomp_nn::Sequential;
use advcomp_serve::json::Json;
use advcomp_serve::protocol::Request;
use advcomp_serve::{Completion, Engine, ServeConfig, ServeError, Server};
use advcomp_tensor::Tensor;
use advcomp_wire::{write_frame, FrameBuffer};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// Shape of one digit.
pub const SAMPLE_SHAPE: [usize; 3] = [1, 28, 28];
const SAMPLE_LEN: usize = 28 * 28;
/// Distinct digits in the traffic pool of each workload.
const POOL: usize = 512;
/// Calibration digits (clean, and the same digits with the UAP).
const CALIBRATION: usize = 128;

/// Which operator stack a run serves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// LeNet5 f32 + frozen q8/q4 behind the calibrated guard.
    Guarded,
    /// One untrained `mlp(32)`, no guard.
    Wire,
}

/// Fixed absolute load levels of a workload. They are never scaled from a
/// capacity probe, so a parent commit and a change are offered the same
/// load.
#[derive(Debug, Clone, Copy)]
pub struct Rates {
    /// The light rate, requests per second.
    pub lo: f64,
    /// About half the knee measured while this benchmark was built, so a
    /// slower host does not push it over the knee.
    pub hi: f64,
}

impl Kind {
    /// The workload's load levels.
    pub fn rates(self) -> Rates {
        match self {
            Kind::Guarded => Rates {
                lo: 400.0,
                hi: 700.0,
            },
            Kind::Wire => Rates {
                lo: 1500.0,
                hi: 4000.0,
            },
        }
    }

    fn serve_config(self) -> ServeConfig {
        ServeConfig {
            workers: 1,
            // Deep enough that a host stall of a few hundred ms at the hi
            // rate queues requests instead of refusing them: a refusal
            // there would be a failure caused by the host, not the program.
            queue_depth: 4096,
            guard: match self {
                Kind::Guarded => ServeConfig::default().guard,
                Kind::Wire => None,
            },
            ..ServeConfig::default()
        }
    }
}

/// The reference answer for one pooled input.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Expected {
    /// Baseline top-1 label.
    label: usize,
    /// Guard score; `None` when the stack runs no guard.
    suspect: Option<f64>,
}

/// A running server plus the seeded traffic it will be offered.
pub struct Stack {
    /// Which stack this is.
    pub kind: Kind,
    server: Option<Server>,
    engine: Engine,
    addr: SocketAddr,
    /// The models as served: baseline first, then guard variants.
    pub models: Vec<(String, Sequential)>,
    /// Distinct inputs (flattened digits).
    pub pool: Vec<Vec<f32>>,
    /// Pre-encoded request payloads, one per pooled input.
    payloads: Vec<Vec<u8>>,
    /// Request `k` of any phase sends pool entry `order[k % order.len()]`.
    order: Vec<usize>,
    /// Offline reference per pooled input (filled by [`Stack::reference`]).
    expected: Vec<Expected>,
    /// Test accuracy of the served baseline (trained stacks only).
    pub baseline_accuracy: Option<f64>,
}

impl Drop for Stack {
    fn drop(&mut self) {
        if let Some(server) = self.server.take() {
            server.join();
        }
    }
}

fn digits(seed: u64, train: usize, test: usize) -> (Tensor, Vec<usize>, Tensor) {
    let (tr, te) = SynthDigits::generate(&DatasetConfig {
        train,
        test,
        seed,
        noise: 0.05,
    });
    (
        tr.images().clone(),
        tr.labels().to_vec(),
        te.images().clone(),
    )
}

fn rows(t: &Tensor) -> Vec<Vec<f32>> {
    t.data().chunks(SAMPLE_LEN).map(<[f32]>::to_vec).collect()
}

fn frozen(model: &Sequential, bits: u32) -> BenchResult<Sequential> {
    let mut m = model.clone();
    Quantizer::for_bitwidth(bits)?.quantize_frozen(&mut m)?;
    Ok(m)
}

/// Builds a stack from `seed`: data, training, compression, calibration,
/// server bind, and one warm-up round trip that also compiles the
/// engine's plans. Everything here counts as set-up time.
pub fn build(kind: Kind, seed: u64, tracer: &Tracer) -> BenchResult<Stack> {
    let data_seed = seed ^ 0x5eed_da7a;
    let (models, pool, calibration, accuracy) = match kind {
        Kind::Guarded => {
            let scale = ExperimentScale::tiny();
            let task = tracer.span("data.digits", None, 0, |_| {
                TaskSetup::new(NetKind::LeNet5, &scale)
            });
            let trained = tracer.span("core.train", None, 0, |_| {
                TrainedModel::train(&task, &scale, crate::TRAIN_SEED)
            })?;
            let dense = trained.instantiate()?;
            let (q8, q4) = tracer.span("compress.quant", None, 0, |_| {
                Ok::<_, Box<dyn std::error::Error + Send + Sync>>((
                    frozen(&dense, 8)?,
                    frozen(&dense, 4)?,
                ))
            })?;
            let (x_cal, y_cal, x_test) = tracer.span("data.digits", None, 0, |_| {
                digits(data_seed, CALIBRATION, POOL / 2)
            });
            let uap = tracer.span("attacks.uap", None, 0, |_| {
                craft_uap(
                    &mut dense.clone(),
                    &x_cal,
                    &y_cal,
                    &UapConfig {
                        epsilon: 0.2,
                        step: 0.04,
                        epochs: 4,
                        batch: 16,
                        seed: data_seed,
                    },
                )
            })?;
            let cal = tracer.span("detect.calibrate", None, 0, |_| {
                let mut ensemble = VariantEnsemble::new("f32", dense.clone(), &SAMPLE_SHAPE);
                ensemble.push_variant("q8", q8.clone());
                ensemble.push_variant("q4", q4.clone());
                let clean = ensemble.score(&DisagreementDetector, &x_cal)?;
                let adv = ensemble.score(&DisagreementDetector, &uap.apply(&x_cal)?)?;
                DetectorCalibration::calibrate(DisagreementDetector.name(), &clean, &adv, 0.1)
                    .map_err(Box::<dyn std::error::Error + Send + Sync>::from)
            })?;
            let mut pool = rows(&x_test);
            pool.extend(rows(&uap.apply(&x_test)?));
            let models = vec![
                ("f32".to_string(), dense),
                ("q8".to_string(), q8),
                ("q4".to_string(), q4),
            ];
            (models, pool, Some(cal), Some(trained.test_accuracy))
        }
        Kind::Wire => {
            let (_, _, x_test) =
                tracer.span("data.digits", None, 0, |_| digits(data_seed, 1, POOL));
            let model = advcomp_models::mlp(32, seed);
            (vec![("f32".to_string(), model)], rows(&x_test), None, None)
        }
    };

    let (server, engine, addr) = tracer.span("serve.bind", None, 0, |_| {
        let mut registry = advcomp_serve::ModelRegistry::new(&SAMPLE_SHAPE)?;
        registry.set_baseline(&models[0].0, models[0].1.clone())?;
        for (name, m) in &models[1..] {
            registry.add_variant(name, m.clone())?;
        }
        if let Some(cal) = calibration {
            registry.set_calibration(cal)?;
        }
        let engine = Engine::start(&registry, kind.serve_config())?;
        let server = Server::bind(engine.clone(), "127.0.0.1:0")?;
        let addr = server.local_addr();
        Ok::<_, ServeError>((server, engine, addr))
    })?;

    let payloads = pool
        .iter()
        .enumerate()
        .map(|(p, input)| {
            Request::Predict {
                id: p.to_string(),
                input: input.clone(),
                probs: false,
                attack: None,
            }
            .to_payload()
        })
        .collect();
    let mut rng = SplitMix64::new(seed);
    let order = (0..4 * POOL).map(|_| rng.below(pool.len())).collect();
    let stack = Stack {
        kind,
        server: Some(server),
        engine,
        addr,
        models,
        pool,
        payloads,
        order,
        expected: Vec::new(),
        baseline_accuracy: accuracy,
    };
    tracer.span("serve.warmup", None, 0, |_| stack.warm_up())?;
    Ok(stack)
}

impl Stack {
    fn pool_index(&self, k: usize) -> usize {
        self.order[k % self.order.len()]
    }

    /// One synchronous round trip, which also makes the engine worker
    /// compile its plans before any timed request.
    fn warm_up(&self) -> BenchResult<()> {
        let mut client = advcomp_serve::Client::connect(self.addr)?;
        let resp = client.predict(self.pool[0].clone(), false)?;
        match resp.get("status").and_then(Json::as_str) {
            Some("ok") => Ok(()),
            other => Err(format!("warm-up request answered {other:?}").into()),
        }
    }

    /// Computes the offline reference for every pooled input: the baseline
    /// label from a compiled `ExecPlan`, and for the guarded stack the
    /// disagreement score from `VariantEnsemble::score`.
    pub fn reference(&mut self) -> BenchResult<()> {
        let batch = 64;
        let mut expected = Vec::with_capacity(self.pool.len());
        let mut ensemble = (self.kind == Kind::Guarded).then(|| {
            let mut e = VariantEnsemble::new("f32", self.models[0].1.clone(), &SAMPLE_SHAPE);
            for (name, m) in &self.models[1..] {
                e.push_variant(name.clone(), m.clone());
            }
            e
        });
        let mut plan = ExecPlan::compile(&self.models[0].1, &SAMPLE_SHAPE)?;
        for chunk in self.pool.chunks(batch) {
            let mut shape = vec![chunk.len()];
            shape.extend_from_slice(&SAMPLE_SHAPE);
            let x = Tensor::new(&shape, chunk.concat())?;
            let labels = plan.forward(&x)?.argmax_rows()?;
            let suspects = match &mut ensemble {
                Some(e) => e
                    .score(&DisagreementDetector, &x)?
                    .into_iter()
                    .map(Some)
                    .collect(),
                None => vec![None; labels.len()],
            };
            expected.extend(
                labels
                    .into_iter()
                    .zip(suspects)
                    .map(|(label, suspect)| Expected { label, suspect }),
            );
        }
        self.expected = expected;
        Ok(())
    }

    fn check(&self, p: usize, label: Option<usize>, suspect: Option<f64>) -> Outcome {
        let want = self.expected[p];
        if label == Some(want.label) && suspect == want.suspect {
            Outcome::Ok
        } else {
            Outcome::Mismatch
        }
    }

    /// The pre-encoded request payload of pooled input `p`.
    pub fn payload(&self, p: usize) -> &[u8] {
        &self.payloads[p]
    }

    /// The engine's metrics, for the per-layer counters.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Offers `phase` over one TCP connection: a sender thread writing
    /// pre-encoded frames at their due times and a receiver thread reading
    /// the pipelined in-order answers. With a tracer enabled, each frame
    /// write is a `wire.write_frame` span and each answer's decode a
    /// `serve.decode_response` span.
    pub fn tcp_phase(&self, phase: &Phase, tracer: &Tracer) -> BenchResult<Report> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        let mut reader = stream.try_clone()?;
        reader.set_read_timeout(Some(Duration::from_millis(5)))?;
        let mut writer = stream;
        let mut frames = FrameBuffer::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut next = 0usize;
        let mut closed = false;
        let report = gen::run(
            phase,
            |k| {
                let payload = &self.payloads[self.pool_index(k)];
                tracer
                    .span("wire.write_frame", None, k as u64, |_| {
                        write_frame(&mut writer, payload)
                    })
                    .map_err(|_| Outcome::Failed)
            },
            |_timeout| loop {
                match frames.next_frame() {
                    Ok(Some(frame)) => {
                        let k = next;
                        next += 1;
                        let outcome = tracer.span("serve.decode_response", None, k as u64, |_| {
                            self.judge_frame(k, &frame)
                        });
                        return Some(Some((k, outcome)));
                    }
                    Ok(None) => {}
                    Err(_) => return None,
                }
                if closed {
                    return None;
                }
                match reader.read(&mut buf) {
                    Ok(0) => closed = true,
                    Ok(n) => frames.extend(&buf[..n]),
                    Err(e)
                        if matches!(
                            e.kind(),
                            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                        ) =>
                    {
                        return Some(None)
                    }
                    Err(_) => closed = true,
                }
            },
        );
        Ok(report)
    }

    fn judge_frame(&self, k: usize, frame: &[u8]) -> Outcome {
        let p = self.pool_index(k);
        let Ok(json) = Json::parse(frame) else {
            return Outcome::Failed;
        };
        match json.get("status").and_then(Json::as_str) {
            Some("ok") => {}
            Some("overloaded") => return Outcome::Overloaded,
            Some("rate_limited") => return Outcome::RateLimited,
            _ => return Outcome::Failed,
        }
        if json.get("id").and_then(Json::as_str) != Some(p.to_string().as_str()) {
            return Outcome::Mismatch;
        }
        let label = json.get("label").and_then(Json::as_u64).map(|l| l as usize);
        let suspect = json.get("suspect").and_then(Json::as_f64);
        self.check(p, label, suspect)
    }

    /// Keeps `window` requests in flight on one TCP connection for
    /// `seconds`: every answer releases the next request, so the server
    /// runs at its capacity. One client thread writes and reads; answers
    /// come back in request order and are checked like any other.
    pub fn saturate(&self, window: usize, seconds: f64) -> BenchResult<Saturation> {
        let mut stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(DRAIN))?;
        let mut frames = FrameBuffer::new();
        let mut buf = vec![0u8; 64 * 1024];
        let mut out = Vec::new();
        for k in 0..window {
            write_frame(&mut out, self.payload(self.pool_index(k)))?;
        }
        let cpu0 = host::process_cpu_s();
        let batches0 = self.engine.metrics().batch_sizes.batches();
        let mut r = Saturation {
            attempted: window,
            ok: 0,
            mismatched: 0,
            reads: Vec::new(),
            cpu_s: 0.0,
            batches: 0,
            start: Instant::now(),
        };
        stream.write_all(&out)?;
        let mut answered = 0usize;
        while answered < r.attempted {
            let n = match stream.read(&mut buf) {
                Ok(0) => break,
                Ok(n) => n,
                // No answer within the drain window: the rest are lost.
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    ) =>
                {
                    break
                }
                Err(e) => return Err(e.into()),
            };
            frames.extend(&buf[..n]);
            let at = r.start.elapsed().as_secs_f64();
            let sending = at < seconds;
            out.clear();
            while let Some(frame) = frames.next_frame()? {
                match self.judge_frame(answered, &frame) {
                    Outcome::Ok => r.ok += 1,
                    Outcome::Mismatch => r.mismatched += 1,
                    _ => {}
                }
                answered += 1;
                if sending {
                    write_frame(&mut out, self.payload(self.pool_index(r.attempted)))?;
                    r.attempted += 1;
                }
            }
            if sending {
                r.reads.push((at, answered));
            }
            stream.write_all(&out)?;
        }
        r.cpu_s = host::process_cpu_s() - cpu0;
        r.batches = (self.engine.metrics().batch_sizes.batches() - batches0) as usize;
        Ok(r)
    }

    /// Offers `phase` to the engine in-process with `Engine::submit_async`,
    /// skipping TCP, framing and JSON: the engine's share of a request.
    pub fn engine_phase(&self, phase: &Phase, tracer: &Tracer) -> Report {
        let (tx, rx) = mpsc::channel::<Completion>();
        gen::run(
            phase,
            |k| {
                let input = self.pool[self.pool_index(k)].clone();
                tracer
                    .span("serve.submit_async", None, k as u64, |_| {
                        self.engine.submit_async(input, false, k as u64, &tx, None)
                    })
                    .map_err(|e| match e {
                        ServeError::Overloaded => Outcome::Overloaded,
                        ServeError::RateLimited => Outcome::RateLimited,
                        _ => Outcome::Failed,
                    })
            },
            move |timeout| match rx.recv_timeout(timeout) {
                Ok(c) => {
                    let k = c.token as usize;
                    let outcome = match c.result {
                        Ok(p) => self.check(self.pool_index(k), Some(p.label), p.suspect),
                        Err(ServeError::Overloaded) => Outcome::Overloaded,
                        Err(_) => Outcome::Failed,
                    };
                    Some(Some((k, outcome)))
                }
                Err(mpsc::RecvTimeoutError::Timeout) => Some(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => None,
            },
        )
    }
}

/// Offers timed phases to one stack. A phase during which the hypervisor
/// stole more than [`host::STEAL_LIMIT_PCT`] of the host's CPU time is offered
/// again while the run's retry budget lasts, and the least-disturbed
/// attempt is kept. Every attempt's answers are checked.
pub struct Offers<'a> {
    stack: &'a Stack,
    tracer: &'a Tracer,
    budget_s: f64,
    /// Answers that differed from the reference, over every attempt.
    pub mismatched: usize,
    /// Phases offered again.
    pub retries: usize,
}

impl<'a> Offers<'a> {
    /// Offers on `stack`, with `budget_s` seconds for repeated phases.
    pub fn new(stack: &'a Stack, tracer: &'a Tracer, budget_s: f64) -> Self {
        Offers {
            stack,
            tracer,
            budget_s,
            mismatched: 0,
            retries: 0,
        }
    }

    /// One phase at `rate` for `seconds`, with its host steal share and
    /// steal trace.
    pub fn phase(&mut self, rate: f64, seconds: f64) -> BenchResult<(Report, f64, StealTrace)> {
        let phase = Phase::new(rate, seconds, DRAIN);
        self.least_disturbed(|stack, tracer| {
            let r = stack.tcp_phase(&phase, tracer)?;
            let mismatched = r.mismatched;
            Ok((r, mismatched))
        })
    }

    /// One saturation run of `seconds`, with its host steal share and
    /// steal trace.
    pub fn saturate(&mut self, seconds: f64) -> BenchResult<(Saturation, f64, StealTrace)> {
        self.least_disturbed(|stack, _| {
            let r = stack.saturate(SATURATION_WINDOW, seconds)?;
            let mismatched = r.mismatched;
            Ok((r, mismatched))
        })
    }

    /// Runs `offer` (which returns its measurement and its count of wrong
    /// answers) until one attempt meets [`host::STEAL_LIMIT_PCT`] or the
    /// budget is spent; keeps the least-disturbed attempt.
    fn least_disturbed<T>(
        &mut self,
        mut offer: impl FnMut(&Stack, &Tracer) -> BenchResult<(T, usize)>,
    ) -> BenchResult<(T, f64, StealTrace)> {
        let mut best: Option<(T, f64, StealTrace)> = None;
        loop {
            let (ticks, start) = (host::cpu_ticks(), Instant::now());
            let sampler = StealSampler::start();
            let measured = offer(self.stack, self.tracer);
            let trace = sampler.finish();
            let (r, mismatched) = measured?;
            settle();
            let steal = host::steal_pct(ticks, host::cpu_ticks());
            let took = start.elapsed().as_secs_f64();
            self.mismatched += mismatched;
            if best.as_ref().is_none_or(|(_, s, _)| steal < *s) {
                best = Some((r, steal, trace));
            }
            if steal <= host::STEAL_LIMIT_PCT || took > self.budget_s {
                return Ok(best.expect("one attempt ran"));
            }
            self.budget_s -= took;
            self.retries += 1;
        }
    }
}

/// Requests kept in flight by a saturation run: eight full batches of the
/// default `max_batch`, so the worker always has a full batch waiting, and
/// far below the queue depth, so no request is ever refused.
pub const SATURATION_WINDOW: usize = 64;

/// Length of the segments a saturation run's rate is taken over, s.
pub const SEGMENT_S: f64 = 0.5;

/// What one closed-loop saturation run measured.
#[derive(Debug, Clone)]
pub struct Saturation {
    /// Requests sent.
    pub attempted: usize,
    /// Answers that matched the offline reference.
    pub ok: usize,
    /// Answers that differ from the offline reference.
    pub mismatched: usize,
    /// `(seconds since start, answers so far)` after every read while the
    /// run was sending.
    pub reads: Vec<(f64, usize)>,
    /// CPU time the whole process used during the run, s.
    pub cpu_s: f64,
    /// Batches the engine ran during the run.
    pub batches: usize,
    /// When the first requests were written.
    pub start: Instant,
}

impl Saturation {
    /// Requests that missed: refused, failed, wrong or never answered.
    pub fn misses(&self) -> usize {
        self.attempted - self.ok
    }

    /// Answers per second the stack sustained: the lower quartile of the
    /// rates of the [`Saturation::segments`] the host left alone (see
    /// [`host::undisturbed`]), i.e. a rate met in three quarters of them.
    /// The reference host's speed drifts between a slow and a fast regime
    /// over seconds; the median jumped between them from run to run, the
    /// lower quartile stays in the slow one. A run too short for two
    /// segments gives its overall rate.
    pub fn rps(&self, steal: &StealTrace) -> f64 {
        let segments = self.segments();
        if segments.is_empty() {
            return self
                .reads
                .last()
                .map_or(0.0, |&(at, n)| n as f64 / at.max(1e-9));
        }
        let rates: Vec<f64> = segments.iter().map(|s| s.2).collect();
        let shares: Vec<f64> = segments.iter().map(|s| steal.pct(s.0, s.1)).collect();
        let quiet = crate::stats::sorted(&host::undisturbed(&rates, &shares));
        crate::stats::quantile(&quiet, 0.25)
    }

    /// The [`SEGMENT_S`] segments after the first, which still fills the
    /// pipeline: the times of the first reads at or after each segment's
    /// edges, and the answers between those reads over the exact time
    /// between them. Answers arrive in bursts, so counting them in fixed
    /// time slices would round the rate to whole bursts.
    pub fn segments(&self) -> Vec<(Instant, Instant, f64)> {
        let mut edges = Vec::new();
        for &(at, n) in &self.reads {
            if at >= SEGMENT_S * (edges.len() + 1) as f64 {
                edges.push((at, n));
            }
        }
        let at = |secs: f64| self.start + Duration::from_secs_f64(secs);
        edges
            .windows(2)
            .map(|w| {
                let rate = (w[1].1 - w[0].1) as f64 / (w[1].0 - w[0].0);
                (at(w[0].0), at(w[1].0), rate)
            })
            .collect()
    }
}

/// Drain window after a phase's last send: long enough for the server to
/// work off any backlog a host stall left in its queues, so no answer is
/// lost.
pub const DRAIN: Duration = Duration::from_secs(2);

/// Lets the server's queues empty between phases.
pub fn settle() {
    std::thread::sleep(Duration::from_millis(50));
}

/// Wall time of one offline reference pass over the pool, in seconds:
/// the upper quartile, over rounds of at least 0.1 s that the host left
/// alone (see [`host::undisturbed`]), of each round's mean pass time — a
/// time met in three quarters of them. The rounds span at least 2.5 s, so
/// they see both of the reference host's speed regimes (see
/// [`Saturation::rps`]), which a single short timing would pick one of at
/// random.
pub fn time_reference(stack: &mut Stack) -> BenchResult<f64> {
    stack.reference()?;
    let sampler = StealSampler::start();
    let end = Instant::now() + Duration::from_millis(2500);
    let mut rounds = Vec::new();
    while rounds.len() < 9 || Instant::now() < end {
        let (from, mut passes) = (Instant::now(), 0usize);
        while from.elapsed() < Duration::from_millis(100) {
            stack.reference()?;
            passes += 1;
        }
        let to = Instant::now();
        rounds.push((from, to, (to - from).as_secs_f64() / passes as f64));
    }
    let trace = sampler.finish();
    let times: Vec<f64> = rounds.iter().map(|r| r.2).collect();
    let shares: Vec<f64> = rounds.iter().map(|r| trace.pct(r.0, r.1)).collect();
    let quiet = crate::stats::sorted(&host::undisturbed(&times, &shares));
    Ok(crate::stats::quantile(&quiet, 0.75))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturation_rate_is_the_lower_quartile_of_steady_segments() {
        // Bursts of 1000 answers every 0.1 s (10 k/s) after a slow first
        // segment, with a 0.3 s stall in the third second: the rate is
        // taken between exact read times, and the stall moves one of six
        // segments, below the lower quartile.
        let mut reads = vec![(0.25, 100)];
        let (mut at, mut n) = (0.5, 1000);
        while at < 4.0 {
            reads.push((at, n));
            at += if (2.2..2.3).contains(&at) { 0.4 } else { 0.1 };
            n += 1000;
        }
        let r = Saturation {
            attempted: n,
            ok: n,
            mismatched: 0,
            reads,
            cpu_s: 1.0,
            batches: n / 8,
            start: Instant::now(),
        };
        let rps = r.rps(&StealTrace::default());
        assert!((rps - 10_000.0).abs() < 1e-6, "{rps}");
        assert_eq!(r.misses(), 0);
    }
}
