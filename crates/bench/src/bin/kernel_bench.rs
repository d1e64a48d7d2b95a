//! Machine-readable kernel ablation.
//!
//! Times the tensor kernels on the hot-path shapes (repeated 128×128×128
//! GEMMs, a CIFAR-sized conv lowering, attack-sized elementwise ops) and
//! writes median nanoseconds per invocation to `BENCH_kernels.json`.
//! The headline number is `pooled_speedup_vs_spawn`: the same dense compute
//! kernel and row banding, run on the persistent worker pool versus
//! spawning fresh OS threads per call (the pre-pool behaviour).
//!
//! A second report, `BENCH_simd.json`, ablates the runtime-dispatched SIMD
//! kernel layer: the AVX2+FMA GEMM microkernel and elementwise/reduction
//! kernels against their scalar fallbacks (both backends timed explicitly
//! in one process), plus the fused single-pass attack-step kernels against
//! the historical allocating op chains.
//!
//! Run via `scripts/bench_kernels.sh`, or directly:
//!
//! ```text
//! cargo run --release -p advcomp-bench --features bench-ablation \
//!     --bin kernel_bench -- [--out FILE] [--simd-out FILE] [--iters N] [--check-simd]
//! ```
//!
//! `--check-simd` exits non-zero when AVX2+FMA is detected but the SIMD
//! GEMM is not faster than the scalar one — the regression gate
//! `scripts/check.sh` relies on.

use advcomp_attacks::step;
use advcomp_bench::median_ns;
use advcomp_tensor::{
    im2col, pool, simd, Conv2dGeometry, Init, KernelBackend, MatmulKernel, Tensor,
};
use serde::Serialize;
use std::hint::black_box;

#[derive(Serialize)]
struct KernelTiming {
    name: String,
    median_ns: u64,
    iters: usize,
}

#[derive(Serialize)]
struct KernelReport {
    gemm_size: usize,
    threads: usize,
    pooled_median_ns: u64,
    spawn_median_ns: u64,
    pooled_speedup_vs_spawn: f64,
    kernels: Vec<KernelTiming>,
}

/// One scalar-vs-SIMD timing pair for a single kernel.
#[derive(Serialize)]
struct SimdPair {
    name: String,
    scalar_ns: u64,
    simd_ns: u64,
    speedup: f64,
}

#[derive(Serialize)]
struct SimdReport {
    /// Whether AVX2+FMA was detected at runtime; when false the "simd"
    /// column falls back to scalar and every speedup is ~1.
    simd_available: bool,
    gemm_size: usize,
    threads: usize,
    gemm_scalar_ns: u64,
    gemm_simd_ns: u64,
    gemm_speedup_simd_vs_scalar: f64,
    fused_sign_step_ns: u64,
    unfused_sign_step_ns: u64,
    fused_speedup_vs_unfused: f64,
    pairs: Vec<SimdPair>,
}

fn sparsify(a: &Tensor, density: f32) -> Tensor {
    let mut sparse = a.clone();
    let n = sparse.len();
    for i in 0..n {
        if (i as f32 / n as f32) >= density {
            sparse.data_mut()[i] = 0.0;
        }
    }
    sparse
}

/// Times the SIMD-dispatch ablations and writes `simd_out`. Returns the
/// report so `--check-simd` can gate on it.
fn simd_ablation(iters: usize, simd_out: &str) -> Result<SimdReport, Box<dyn std::error::Error>> {
    const SIZE: usize = 128;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(7);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let a = init.tensor(&[SIZE, SIZE], &mut rng);
    let b = init.tensor(&[SIZE, SIZE], &mut rng);

    let mut pairs = Vec::new();
    let mut record_pair = |name: &str, scalar_ns: u64, simd_ns: u64| {
        let speedup = scalar_ns as f64 / simd_ns.max(1) as f64;
        println!("{name:>28}: scalar {scalar_ns:>10} ns  simd {simd_ns:>10} ns  ({speedup:.2}x)");
        pairs.push(SimdPair {
            name: name.to_string(),
            scalar_ns,
            simd_ns,
            speedup,
        });
    };

    // GEMM: the identical packed/banded path, explicit backend per call.
    let gemm_scalar = median_ns(iters, || {
        black_box(
            a.matmul_with(&b, MatmulKernel::Dense, KernelBackend::Scalar)
                .unwrap(),
        );
    });
    let gemm_simd = median_ns(iters, || {
        black_box(
            a.matmul_with(&b, MatmulKernel::Dense, KernelBackend::Simd)
                .unwrap(),
        );
    });
    record_pair("gemm_dense_128", gemm_scalar, gemm_simd);

    // Elementwise + reduction kernels on an attack-sized buffer (a batch of
    // 64 CIFAR images), through the slice kernels the Tensor ops dispatch
    // to, with the output buffer preallocated so only compute is timed.
    let n = 64 * 3 * 32 * 32;
    let x = init.tensor(&[n], &mut rng);
    let y = init.tensor(&[n], &mut rng);
    let mut out = vec![0.0f32; n];
    macro_rules! time_both {
        ($name:expr, $be:ident => $body:expr) => {{
            let scalar = median_ns(iters, || {
                let $be = KernelBackend::Scalar;
                black_box($body);
            });
            let simd_t = median_ns(iters, || {
                let $be = KernelBackend::Simd;
                black_box($body);
            });
            record_pair($name, scalar, simd_t);
        }};
    }
    time_both!("elementwise_add_196k", be => simd::add_slices(be, x.data(), y.data(), &mut out));
    time_both!("elementwise_sign_196k", be => simd::sign_slices(be, x.data(), &mut out));
    time_both!("elementwise_clamp_196k", be => simd::clamp_slices(be, x.data(), 0.0, 1.0, &mut out));
    time_both!("elementwise_axpy_196k", be => simd::axpy_slices(be, &mut out, y.data(), 0.01));
    time_both!("reduce_sum_196k", be => simd::sum_slice(be, x.data()));
    time_both!("reduce_sumsq_196k", be => simd::sumsq_slice(be, x.data()));
    time_both!("reduce_max_abs_196k", be => simd::max_abs_slice(be, x.data()));

    // Fused attack step vs the historical allocating chain, at whatever
    // backend ADVCOMP_KERNEL selected (the fusion win is orthogonal to the
    // SIMD win; the iterate stays in [0, 1] either way so drift between
    // timed iterations does not change the workload).
    let g = init.tensor(&[n], &mut rng);
    let mut adv = x.clamp(0.0, 1.0);
    let fused_sign = median_ns(iters, || {
        step::sign_step(black_box(&mut adv), &g, 0.01).unwrap();
    });
    let unfused_sign = median_ns(iters, || {
        black_box(step::sign_step_unfused(&adv, &g, 0.01).unwrap());
    });
    record_pair("attack_sign_step_196k*", unfused_sign, fused_sign);
    let origin = x.clamp(0.0, 1.0);
    let fused_pgd = median_ns(iters, || {
        step::projected_sign_step(black_box(&mut adv), &g, &origin, 0.01, 0.05).unwrap();
    });
    let unfused_pgd = median_ns(iters, || {
        black_box(step::projected_sign_step_unfused(&adv, &g, &origin, 0.01, 0.05).unwrap());
    });
    record_pair("attack_pgd_step_196k*", unfused_pgd, fused_pgd);
    println!("  (* fused-vs-unfused at the ambient backend, not scalar-vs-simd)");

    let report = SimdReport {
        simd_available: simd::simd_available(),
        gemm_size: SIZE,
        threads: pool::available_threads(),
        gemm_scalar_ns: gemm_scalar,
        gemm_simd_ns: gemm_simd,
        gemm_speedup_simd_vs_scalar: gemm_scalar as f64 / gemm_simd.max(1) as f64,
        fused_sign_step_ns: fused_sign,
        unfused_sign_step_ns: unfused_sign,
        fused_speedup_vs_unfused: unfused_sign as f64 / fused_sign.max(1) as f64,
        pairs,
    };
    std::fs::write(simd_out, serde_json::to_string_pretty(&report)?)?;
    println!(
        "\nsimd GEMM speedup vs scalar: {:.2}x  fused step speedup vs unfused: {:.2}x",
        report.gemm_speedup_simd_vs_scalar, report.fused_speedup_vs_unfused
    );
    println!("wrote {simd_out}");
    Ok(report)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut out_path = String::from("BENCH_kernels.json");
    let mut simd_out_path = String::from("BENCH_simd.json");
    let mut iters = 200usize;
    let mut check_simd = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => {
                if let Some(v) = args.next() {
                    out_path = v;
                }
            }
            "--simd-out" => {
                if let Some(v) = args.next() {
                    simd_out_path = v;
                }
            }
            "--iters" => {
                if let Some(v) = args.next() {
                    iters = v.parse()?;
                }
            }
            "--check-simd" => check_simd = true,
            other => return Err(format!("unknown flag '{other}'").into()),
        }
    }

    const SIZE: usize = 128;
    let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
    let init = Init::Uniform { lo: -1.0, hi: 1.0 };
    let a = init.tensor(&[SIZE, SIZE], &mut rng);
    let b = init.tensor(&[SIZE, SIZE], &mut rng);
    let pruned = sparsify(&a, 0.1);

    let mut kernels = Vec::new();
    let mut record = |name: &str, iters: usize, median: u64| {
        println!("{name:>28}: {median:>12} ns/iter  ({iters} iters)");
        kernels.push(KernelTiming {
            name: name.to_string(),
            median_ns: median,
            iters,
        });
    };

    let pooled = median_ns(iters, || {
        black_box(a.matmul(&b).unwrap());
    });
    record("matmul_pooled_128", iters, pooled);

    let spawned = median_ns(iters, || {
        black_box(a.matmul_spawn_per_call(&b).unwrap());
    });
    record("matmul_spawn_per_call_128", iters, spawned);

    record(
        "matmul_blocked_serial_128",
        iters,
        median_ns(iters, || {
            black_box(a.matmul_blocked_serial(&b).unwrap());
        }),
    );
    record(
        "matmul_naive_128",
        iters.min(50),
        median_ns(iters.min(50), || {
            black_box(a.matmul_naive(&b).unwrap());
        }),
    );
    record(
        "matmul_sparse_kernel_d0.1",
        iters,
        median_ns(iters, || {
            black_box(pruned.matmul_with_kernel(&b, MatmulKernel::Sparse).unwrap());
        }),
    );
    record(
        "matmul_dense_kernel_d0.1",
        iters,
        median_ns(iters, || {
            black_box(pruned.matmul_with_kernel(&b, MatmulKernel::Dense).unwrap());
        }),
    );

    // Conv lowering at CIFAR-net geometry (batch 8, 3→, 32×32, 3×3 kernel).
    let geom = Conv2dGeometry::square(3, 32, 3, 1, 1);
    let x = init.tensor(&[8, 3, 32, 32], &mut rng);
    record(
        "im2col_cifar_b8",
        iters,
        median_ns(iters, || {
            black_box(im2col(&x, &geom).unwrap());
        }),
    );

    // Attack-step elementwise ops on a batch of CIFAR images.
    let g = init.tensor(&[64 * 3 * 32 * 32], &mut rng);
    let h = init.tensor(&[64 * 3 * 32 * 32], &mut rng);
    record(
        "elementwise_sign_196k",
        iters,
        median_ns(iters, || {
            black_box(g.sign());
        }),
    );
    record(
        "elementwise_add_196k",
        iters,
        median_ns(iters, || {
            black_box(g.add(&h).unwrap());
        }),
    );

    let report = KernelReport {
        gemm_size: SIZE,
        threads: pool::available_threads(),
        pooled_median_ns: pooled,
        spawn_median_ns: spawned,
        pooled_speedup_vs_spawn: spawned as f64 / pooled as f64,
        kernels,
    };
    std::fs::write(&out_path, serde_json::to_string_pretty(&report)?)?;
    println!(
        "\npooled speedup vs spawn-per-call: {:.2}x  (threads={})",
        report.pooled_speedup_vs_spawn, report.threads
    );
    println!("wrote {out_path}\n");

    let simd_report = simd_ablation(iters, &simd_out_path)?;
    if check_simd
        && simd_report.simd_available
        && simd_report.gemm_simd_ns > simd_report.gemm_scalar_ns
    {
        return Err(format!(
            "--check-simd: AVX2+FMA is available but the simd GEMM ({} ns) is \
             slower than scalar ({} ns)",
            simd_report.gemm_simd_ns, simd_report.gemm_scalar_ns
        )
        .into());
    }
    Ok(())
}
