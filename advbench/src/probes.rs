//! Per-layer probes: timings of single layers on the workload's own
//! model shapes, for the traced run.
//!
//! Operation counts (MACs, FLOPs) are computed from tensor shapes — the
//! layer input/output shapes of an eval forward — never measured.

use crate::stats::{median, SplitMix64};
use crate::BenchResult;
use advcomp_compress::Quantizer;
use advcomp_detect::{Detector, DisagreementDetector};
use advcomp_graph::ExecPlan;
use advcomp_nn::{Mode, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::quant::{qmatmul_f32, QTensor};
use advcomp_tensor::Tensor;
use advcomp_wire::{write_frame, FrameBuffer};
use std::hint::black_box;
use std::time::Instant;

/// Formats every graph probe covers: f32 and frozen 8- and 4-bit.
pub const FORMATS: [(&str, Option<u32>); 3] = [("f32", None), ("q8", Some(8)), ("q4", Some(4))];
/// Batch sizes the forward probe times.
pub const BATCHES: [usize; 2] = [1, 16];

/// Median over 7 rounds of the mean per-call time of `f` in µs; each
/// round repeats `f` until it has run for at least 2 ms.
pub fn time_us(mut f: impl FnMut()) -> f64 {
    f();
    let mut inner = 1usize;
    loop {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        if t.elapsed().as_secs_f64() >= 2e-3 || inner >= 1 << 20 {
            break;
        }
        inner *= 2;
    }
    let rounds: Vec<f64> = (0..7)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..inner {
                f();
            }
            t.elapsed().as_secs_f64() * 1e6 / inner as f64
        })
        .collect();
    median(&rounds)
}

/// The model in one of [`FORMATS`].
pub fn in_format(model: &Sequential, bits: Option<u32>) -> BenchResult<Sequential> {
    let mut m = model.clone();
    if let Some(b) = bits {
        Quantizer::for_bitwidth(b)?.quantize_frozen(&mut m)?;
    }
    Ok(m)
}

/// GEMMs of one eval forward, as `(m, k, n)`, derived from layer shapes:
/// a dense layer is `[batch, in] × [in, out]`; a convolution lowered by
/// im2col is `[batch·oh·ow, cin·kh·kw] × [cin·kh·kw, cout]`.
pub fn gemm_shapes(
    model: &Sequential,
    sample_shape: &[usize],
    batch: usize,
) -> BenchResult<Vec<(usize, usize, usize)>> {
    let mut m = model.clone();
    let mut shape = vec![batch];
    shape.extend_from_slice(sample_shape);
    let mut x = Tensor::zeros(&shape);
    let mut gemms = Vec::new();
    for layer in m.layers_mut() {
        let y = layer.forward(&x, Mode::Eval)?;
        match layer.kind() {
            "dense" => gemms.push((batch, x.shape()[1], y.shape()[1])),
            "conv2d" => {
                let (cout, oh, ow) = (y.shape()[1], y.shape()[2], y.shape()[3]);
                let weights = layer
                    .params()
                    .iter()
                    .map(|p| p.value.len())
                    .max()
                    .unwrap_or(0);
                gemms.push((batch * oh * ow, weights / cout.max(1), cout));
            }
            _ => {}
        }
        x = y;
    }
    Ok(gemms)
}

/// Timings of one model format.
#[derive(Debug, Clone)]
pub struct FormatProbe {
    /// `f32`, `q8` or `q4`.
    pub format: &'static str,
    /// Median `ExecPlan::compile` time, µs.
    pub compile_us: f64,
    /// Median planned forward time per call at each of [`BATCHES`], µs.
    pub forward_us: Vec<f64>,
    /// MACs per call at each of [`BATCHES`] over forward time, GMAC/s.
    pub gmacs_per_s: Vec<f64>,
}

/// Compiles and runs `model` in each of [`FORMATS`] through `ExecPlan`.
pub fn formats(model: &Sequential, sample_shape: &[usize]) -> BenchResult<Vec<FormatProbe>> {
    let macs: u64 = gemm_shapes(model, sample_shape, 1)?
        .iter()
        .map(|&(m, k, n)| (m * k * n) as u64)
        .sum();
    let mut rng = SplitMix64::new(11);
    let mut out = Vec::new();
    for (format, bits) in FORMATS {
        let m = in_format(model, bits)?;
        let compile_us = median(
            &(0..5)
                .map(|_| {
                    let t = Instant::now();
                    let plan = ExecPlan::compile(&m, sample_shape);
                    let us = t.elapsed().as_secs_f64() * 1e6;
                    black_box(plan.is_ok());
                    us
                })
                .collect::<Vec<_>>(),
        );
        let mut plan = ExecPlan::compile(&m, sample_shape)?;
        let mut forward_us = Vec::new();
        let mut gmacs_per_s = Vec::new();
        for b in BATCHES {
            let mut shape = vec![b];
            shape.extend_from_slice(sample_shape);
            let len: usize = shape.iter().product();
            let x = Tensor::new(&shape, (0..len).map(|_| rng.unit() as f32).collect())?;
            plan.reserve_batch(b);
            let mut result = Ok(());
            let us = time_us(|| {
                if let Err(e) = plan.forward(black_box(&x)) {
                    result = Err(e);
                }
            });
            result?;
            forward_us.push(us);
            gmacs_per_s.push((macs * b as u64) as f64 / (us * 1e3));
        }
        out.push(FormatProbe {
            format,
            compile_us,
            forward_us,
            gmacs_per_s,
        });
    }
    Ok(out)
}

/// Dense f32 GEMM (`Tensor::matmul`) and int8 fused-dequant GEMM
/// (`qmatmul_f32` with Q8 weights, activations quantised on entry) at
/// `(m, k, n)`, in GFLOP/s counting `2·m·k·n` FLOPs per call.
pub fn gemm_gflops(m: usize, k: usize, n: usize) -> BenchResult<(f64, f64)> {
    let mut rng = SplitMix64::new(5);
    let mut fill = |len: usize| {
        (0..len)
            .map(|_| rng.unit() as f32 * 2.0 - 1.0)
            .collect::<Vec<f32>>()
    };
    let a = Tensor::new(&[m, k], fill(m * k))?;
    let b = Tensor::new(&[k, n], fill(k * n))?;
    let flops = 2.0 * (m * k * n) as f64;
    let mut result = Ok(());
    let f32_us = time_us(|| match a.matmul(black_box(&b)) {
        Ok(c) => {
            black_box(c);
        }
        Err(e) => result = Err(e),
    });
    result?;
    let format = QFormat::for_bitwidth(8)?;
    let w = QTensor::quantize(&fill(n * k), &[n, k], format)?;
    let backend = advcomp_tensor::simd::backend();
    let mut out = vec![0f32; m * n];
    let mut result = Ok(());
    let q8_us = time_us(|| {
        if let Err(e) = qmatmul_f32(backend, black_box(a.data()), m, format, &w, &mut out) {
            result = Err(e);
        }
    });
    result?;
    Ok((flops / (f32_us * 1e3), flops / (q8_us * 1e3)))
}

/// The largest GEMM of a batch-16 forward of `model`, by MACs.
pub fn largest_gemm(
    model: &Sequential,
    sample_shape: &[usize],
) -> BenchResult<(usize, usize, usize)> {
    gemm_shapes(model, sample_shape, 16)?
        .into_iter()
        .max_by_key(|&(m, k, n)| m * k * n)
        .ok_or_else(|| "model has no GEMM layer".into())
}

/// `DisagreementDetector::score` alone over precomputed logits of 16
/// samples (baseline + variants), µs per call.
pub fn detect_score_us(
    models: &[(String, Sequential)],
    x16: &Tensor,
    sample_shape: &[usize],
) -> BenchResult<f64> {
    let mut logits = Vec::new();
    for (_, m) in models {
        logits.push(ExecPlan::compile(m, sample_shape)?.forward(x16)?);
    }
    let (base, variants) = logits.split_first().ok_or("no models")?;
    let mut result = Ok(());
    let us = time_us(
        || match DisagreementDetector.score(black_box(base), variants) {
            Ok(s) => {
                black_box(s);
            }
            Err(e) => result = Err(e),
        },
    );
    result?;
    Ok(us)
}

/// One `advcomp-wire` frame encode (`write_frame`) plus incremental
/// decode (`FrameBuffer`) of `payload`, µs.
pub fn frame_us(payload: &[u8]) -> BenchResult<f64> {
    let mut buf = Vec::with_capacity(payload.len() + 4);
    let mut frames = FrameBuffer::new();
    let mut ok = true;
    let us = time_us(|| {
        buf.clear();
        ok &= write_frame(&mut buf, black_box(payload)).is_ok();
        frames.extend(&buf);
        ok &= matches!(frames.next_frame(), Ok(Some(f)) if f.len() == payload.len());
    });
    if ok {
        Ok(us)
    } else {
        Err("frame round trip failed".into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lenet5_gemm_shapes_follow_the_builder() {
        // lenet5(1.0): conv1 1→6 5×5 pad 2 on 28×28, conv2 6→16 5×5 on
        // 14×14 → 10×10, then 400→120→84→10.
        let m = advcomp_models::lenet5(1.0, 0);
        let g = gemm_shapes(&m, &[1, 28, 28], 2).unwrap();
        assert_eq!(
            g,
            vec![
                (2 * 28 * 28, 25, 6),
                (2 * 10 * 10, 150, 16),
                (2, 400, 120),
                (2, 120, 84),
                (2, 84, 10)
            ]
        );
    }

    #[test]
    fn frame_round_trip_is_timed() {
        assert!(frame_us(&[7u8; 100]).unwrap() > 0.0);
    }
}
