//! Machine-readable integer-execution ablation.
//!
//! Times the packed block-quantised paths against their dense f32
//! equivalents and writes `BENCH_quant.json`:
//!
//! * the fused int8 GEMM (`qmatmul_f32`, Q8_0 and Q4_0 weights with
//!   on-the-fly activation quantisation) vs the production dense f32 SIMD
//!   GEMM at the 128×128 hot-path shape;
//! * a full LeNet5 forward, dense vs frozen-packed at 8 and 4 bits, plus
//!   the same frozen forwards through a compiled `advcomp-graph`
//!   `ExecPlan` (the Q4 row also documents the before/after of routing
//!   Q4 through the plan's widened-code kernel — see `q4_fix_note`);
//! * the compression-ensemble guard's per-batch cost: baseline + two dense
//!   variants vs baseline + two packed variants (the serving engine's
//!   `run_batch` shape);
//! * checkpoint bytes: the f32 (v2) file vs the packed (v3) files.
//!
//! Run via `scripts/bench_quant.sh`, or directly:
//!
//! ```text
//! cargo run --release -p advcomp-bench --bin quant_bench -- \
//!     [--out FILE] [--iters N] [--check-quant]
//! ```
//!
//! `--check-quant` exits non-zero when AVX2 is detected but the packed Q8
//! GEMM is not faster than the dense f32 SIMD GEMM — the regression gate
//! `scripts/check.sh` relies on, mirroring `kernel_bench --check-simd`.

use advcomp_bench::median_ns;
use advcomp_compress::Quantizer;
use advcomp_graph::ExecPlan;
use advcomp_models::{lenet5, Checkpoint};
use advcomp_nn::{Mode, Sequential};
use advcomp_qformat::QFormat;
use advcomp_tensor::{pool, qmatmul_f32, simd, Init, KernelBackend, MatmulKernel, QTensor};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct GemmSection {
    size: usize,
    f32_simd_ns: u64,
    q8_ns: u64,
    q4_ns: u64,
    q8_speedup_vs_f32: f64,
    q4_speedup_vs_f32: f64,
}

#[derive(Serialize)]
struct ForwardSection {
    model: String,
    batch: usize,
    dense_f32_ns: u64,
    q8_frozen_ns: u64,
    q4_frozen_ns: u64,
    q8_speedup: f64,
    q4_speedup: f64,
    /// Frozen forwards through the compiled `ExecPlan` (advcomp-graph):
    /// fused epilogues, static arena, and — for Q4 — weight nibbles
    /// widened to Q8 byte layout once at compile time instead of being
    /// re-unpacked in the GEMM inner loop on every call.
    q8_planned_ns: u64,
    q4_planned_ns: u64,
    q8_planned_speedup: f64,
    q4_planned_speedup: f64,
    q4_fix_note: String,
}

#[derive(Serialize)]
struct GuardSection {
    variants: usize,
    dense_ensemble_ns: u64,
    packed_ensemble_ns: u64,
    packed_speedup: f64,
}

#[derive(Serialize)]
struct CheckpointSection {
    f32_v2_bytes: usize,
    packed_v3_q8_bytes: usize,
    packed_v3_q4_bytes: usize,
    q8_ratio_vs_f32: f64,
}

#[derive(Serialize)]
struct QuantReport {
    /// Whether AVX2 was detected; without it every packed path falls back
    /// to scalar and the GEMM speedups are not meaningful as a gate.
    simd_available: bool,
    threads: usize,
    gemm: GemmSection,
    forward: ForwardSection,
    guard: GuardSection,
    checkpoint: CheckpointSection,
}

fn frozen_lenet(bits: u32, seed: u64) -> Sequential {
    let mut model = lenet5(1.0, seed);
    Quantizer::for_bitwidth(bits)
        .unwrap()
        .quantize_frozen(&mut model)
        .expect("lenet5 freezes at <= 8 bits");
    model
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out_path = String::from("BENCH_quant.json");
    let mut iters = 200usize;
    let mut check_quant = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(v) = args.next() {
                    out_path = v;
                }
            }
            "--iters" => {
                if let Some(v) = args.next() {
                    iters = v.parse()?;
                }
            }
            "--check-quant" => check_quant = true,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }

    // --- GEMM: packed int8 vs dense f32 SIMD at the hot-path shape. ---
    const SIZE: usize = 128;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(11);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let a = init.tensor(&[SIZE, SIZE], &mut rng);
    let b = init.tensor(&[SIZE, SIZE], &mut rng);
    let q8 = QFormat::for_bitwidth(8).unwrap();
    let q4 = QFormat::for_bitwidth(4).unwrap();
    let w8 = QTensor::quantize(b.data(), &[SIZE, SIZE], q8).unwrap();
    let w4 = QTensor::quantize(b.data(), &[SIZE, SIZE], q4).unwrap();

    let f32_ns = median_ns(iters, || {
        black_box(
            a.matmul_with(&b, MatmulKernel::Dense, KernelBackend::Simd)
                .unwrap(),
        );
    });
    let mut out = vec![0.0f32; SIZE * SIZE];
    let q8_ns = median_ns(iters, || {
        qmatmul_f32(KernelBackend::Simd, a.data(), SIZE, q8, &w8, &mut out).unwrap();
        black_box(&out);
    });
    let q4_ns = median_ns(iters, || {
        qmatmul_f32(KernelBackend::Simd, a.data(), SIZE, q4, &w4, &mut out).unwrap();
        black_box(&out);
    });
    let gemm = GemmSection {
        size: SIZE,
        f32_simd_ns: f32_ns,
        q8_ns,
        q4_ns,
        q8_speedup_vs_f32: f32_ns as f64 / q8_ns.max(1) as f64,
        q4_speedup_vs_f32: f32_ns as f64 / q4_ns.max(1) as f64,
    };
    println!(
        "gemm_{SIZE}: f32 {f32_ns} ns  q8 {q8_ns} ns ({:.2}x)  q4 {q4_ns} ns ({:.2}x)",
        gemm.q8_speedup_vs_f32, gemm.q4_speedup_vs_f32
    );

    // --- Full-model forward: dense vs frozen-packed LeNet5. ---
    const BATCH: usize = 8;
    let mut dense = lenet5(1.0, 7);
    let mut frozen8 = frozen_lenet(8, 7);
    let mut frozen4 = frozen_lenet(4, 7);
    let x = Init::Uniform { lo: 0.0, hi: 1.0 }.tensor(&[BATCH, 1, 28, 28], &mut rng);
    let fwd_iters = (iters / 4).max(20);
    let dense_ns = median_ns(fwd_iters, || {
        black_box(dense.forward(&x, Mode::Eval).unwrap());
    });
    let q8_fwd_ns = median_ns(fwd_iters, || {
        black_box(frozen8.forward(&x, Mode::Eval).unwrap());
    });
    let q4_fwd_ns = median_ns(fwd_iters, || {
        black_box(frozen4.forward(&x, Mode::Eval).unwrap());
    });
    // The compiled plans: the q4 plan is the before/after story — the
    // layer path re-unpacks weight nibbles inside the GEMM inner loop
    // (q4_frozen_ns barely beats dense), while the plan widens the codes
    // to Q8 byte layout once at compile and runs the maddubs kernel.
    let mut plan8 = ExecPlan::compile(&frozen8, &[1, 28, 28]).expect("q8 lenet5 compiles");
    let mut plan4 = ExecPlan::compile(&frozen4, &[1, 28, 28]).expect("q4 lenet5 compiles");
    plan8.reserve_batch(BATCH);
    plan4.reserve_batch(BATCH);
    let q8_plan_ns = median_ns(fwd_iters, || {
        black_box(plan8.forward(&x).unwrap());
    });
    let q4_plan_ns = median_ns(fwd_iters, || {
        black_box(plan4.forward(&x).unwrap());
    });
    let forward = ForwardSection {
        model: "lenet5".into(),
        batch: BATCH,
        dense_f32_ns: dense_ns,
        q8_frozen_ns: q8_fwd_ns,
        q4_frozen_ns: q4_fwd_ns,
        q8_speedup: dense_ns as f64 / q8_fwd_ns.max(1) as f64,
        q4_speedup: dense_ns as f64 / q4_fwd_ns.max(1) as f64,
        q8_planned_ns: q8_plan_ns,
        q4_planned_ns: q4_plan_ns,
        q8_planned_speedup: dense_ns as f64 / q8_plan_ns.max(1) as f64,
        q4_planned_speedup: dense_ns as f64 / q4_plan_ns.max(1) as f64,
        q4_fix_note: format!(
            "before: layer path unpacked Q4 nibbles per GEMM inner loop, {q4_fwd_ns} ns \
             ({:.2}x vs dense); after: ExecPlan widens Q4 codes to Q8 bytes at compile \
             (bit-identical sums), {q4_plan_ns} ns ({:.2}x vs dense)",
            dense_ns as f64 / q4_fwd_ns.max(1) as f64,
            dense_ns as f64 / q4_plan_ns.max(1) as f64,
        ),
    };
    println!(
        "forward_lenet5_b{BATCH}: dense {dense_ns} ns  q8 {q8_fwd_ns} ns ({:.2}x)  \
         q4 {q4_fwd_ns} ns ({:.2}x)  planned q8 {q8_plan_ns} ns ({:.2}x)  \
         planned q4 {q4_plan_ns} ns ({:.2}x)",
        forward.q8_speedup,
        forward.q4_speedup,
        forward.q8_planned_speedup,
        forward.q4_planned_speedup
    );

    // --- Guard request cost: the engine's run_batch shape, baseline plus
    // two variants, dense ensemble vs packed ensemble. ---
    let mut dense_v1 = lenet5(1.0, 8);
    let mut dense_v2 = lenet5(1.0, 9);
    let dense_guard_ns = median_ns(fwd_iters, || {
        black_box(dense.forward(&x, Mode::Eval).unwrap());
        black_box(dense_v1.forward(&x, Mode::Eval).unwrap());
        black_box(dense_v2.forward(&x, Mode::Eval).unwrap());
    });
    let mut packed_v1 = frozen_lenet(8, 8);
    let mut packed_v2 = frozen_lenet(4, 9);
    let packed_guard_ns = median_ns(fwd_iters, || {
        black_box(dense.forward(&x, Mode::Eval).unwrap());
        black_box(packed_v1.forward(&x, Mode::Eval).unwrap());
        black_box(packed_v2.forward(&x, Mode::Eval).unwrap());
    });
    let guard = GuardSection {
        variants: 2,
        dense_ensemble_ns: dense_guard_ns,
        packed_ensemble_ns: packed_guard_ns,
        packed_speedup: dense_guard_ns as f64 / packed_guard_ns.max(1) as f64,
    };
    println!(
        "guard_batch_b{BATCH}: dense ensemble {dense_guard_ns} ns  packed ensemble \
         {packed_guard_ns} ns ({:.2}x)",
        guard.packed_speedup
    );

    // --- Checkpoint bytes: v2 f32 vs v3 packed. ---
    let v2 = Checkpoint::capture(&dense).to_bytes().len();
    let v3_q8 = Checkpoint::capture(&frozen8).to_bytes().len();
    let v3_q4 = Checkpoint::capture(&frozen4).to_bytes().len();
    let checkpoint = CheckpointSection {
        f32_v2_bytes: v2,
        packed_v3_q8_bytes: v3_q8,
        packed_v3_q4_bytes: v3_q4,
        q8_ratio_vs_f32: v2 as f64 / v3_q8.max(1) as f64,
    };
    println!(
        "checkpoint: v2 {v2} B  v3 q8 {v3_q8} B ({:.2}x)  v3 q4 {v3_q4} B",
        checkpoint.q8_ratio_vs_f32
    );

    let report = QuantReport {
        simd_available: simd::simd_available(),
        threads: pool::available_threads(),
        gemm,
        forward,
        guard,
        checkpoint,
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&report)?)?;
    println!("wrote {out_path}");

    if check_quant && report.simd_available && report.gemm.q8_ns > report.gemm.f32_simd_ns {
        return Err(format!(
            "--check-quant: AVX2 is available but the packed Q8 GEMM ({} ns) is \
             slower than the dense f32 SIMD GEMM ({} ns)",
            report.gemm.q8_ns, report.gemm.f32_simd_ns
        )
        .into());
    }
    Ok(())
}
