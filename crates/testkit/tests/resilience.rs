//! Fault-injection pillar: proves the resilience stack end to end.
//!
//! Each test injects a deterministic fault (via `advcomp_nn::faults`) into
//! a real tiny-scale experiment and asserts the documented recovery
//! contract, rather than trusting it:
//!
//! * checkpoint/resume — an interrupted sweep re-run resumes its completed
//!   points from the journal bit-identically, computing only the rest;
//! * retry + partial results — a permanently-failing point is recorded
//!   with its retry count while the rest of the sweep survives;
//! * numerical-health guards — a NaN injected into a training step rolls
//!   the model back and completes; one injected into an attack gradient
//!   keeps the last good iterate and surfaces in the run's health metadata.
//!
//! Every test holds a `FaultGuard` for its entire duration (the fault
//! registry is process-global), which also serialises these tests against
//! each other under the parallel test runner.

use advcomp_attacks::{AttackKind, NetKind};
use advcomp_core::resilience::RetryPolicy;
use advcomp_core::sweep::{RunConfig, TransferMatrix};
use advcomp_core::{ExperimentScale, TaskSetup, TrainedModel};
use advcomp_nn::faults::{install, FaultKind, FaultSpec};
use std::path::PathBuf;

fn serial_tiny() -> ExperimentScale {
    let mut scale = ExperimentScale::tiny();
    // Serial workers make fault-site hit indices deterministic.
    scale.max_workers = 1;
    scale
}

fn temp_run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "advcomp-resilience-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn interrupted_sweep_resumes_bit_identically() {
    let scale = serial_tiny();
    let matrix =
        TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgsm], &[1.0, 0.5, 0.3]);
    let run_dir = temp_run_dir("resume");
    let journalled = |dir: &PathBuf| RunConfig {
        seed: 7,
        run_dir: Some(dir.clone()),
        retry: RetryPolicy::none(),
    };

    // Phase 1: the run dies at point 2 (sticky panic from the third
    // `sweep_point` invocation onwards). Points 0 and 1 are journalled.
    let first = {
        let _g = install(vec![FaultSpec::sticky(FaultKind::Panic, "sweep_point", 2)]);
        matrix.run_resilient(&scale, &journalled(&run_dir)).unwrap()
    };
    assert_eq!((first.resumed, first.computed), (0, 3));
    assert_eq!(first.failed.len(), 1);
    assert_eq!(first.failed[0].x, 0.3);
    assert!(
        first.failed[0].error.contains("injected"),
        "{:?}",
        first.failed
    );

    // Phases 2-3 run fault-free: phase 1's faults left with its guard.
    // Phase 2: resume. The two completed points load from the journal; only
    // the previously-failed point is recomputed.
    let second = matrix.run_resilient(&scale, &journalled(&run_dir)).unwrap();
    assert_eq!((second.resumed, second.computed), (2, 1));
    assert!(second.failed.is_empty(), "{:?}", second.failed);

    // Reference: the same sweep, uninterrupted and unjournalled.
    let reference = matrix
        .run_resilient(
            &scale,
            &RunConfig {
                seed: 7,
                run_dir: None,
                retry: RetryPolicy::none(),
            },
        )
        .unwrap();
    // Bit-identical final output (SweepResult equality compares raw f64s):
    // resumed points must round-trip through the journal exactly.
    assert_eq!(second.results, reference.results);

    // Phase 3: a fully-journalled re-run resumes everything, recomputes
    // nothing, and still reproduces the reference output bit for bit.
    let third = matrix.run_resilient(&scale, &journalled(&run_dir)).unwrap();
    assert_eq!((third.resumed, third.computed), (3, 0));
    assert_eq!(third.results, reference.results);

    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn permanently_failing_point_is_recorded_with_retry_count() {
    let scale = serial_tiny();
    // Every `sweep_point` invocation errors: both points fail all attempts.
    let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "sweep_point", 0)]);
    let matrix = TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgsm], &[1.0, 0.3]);
    let run = matrix
        .run_resilient(
            &scale,
            &RunConfig {
                seed: 7,
                run_dir: None,
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff_ms: 0,
                },
            },
        )
        .unwrap();
    assert_eq!(run.computed, 2);
    assert_eq!(run.failed.len(), 2);
    for f in &run.failed {
        assert_eq!(f.attempts, 3, "{f:?}");
        assert!(f.error.contains("injected"), "{f:?}");
    }
    // Even a fully-failed sweep returns cleanly with empty curves rather
    // than sinking the caller.
    assert!(run.results[0].points.is_empty());
}

#[test]
fn nan_in_training_step_rolls_back_and_completes() {
    // Poison one mini-batch mid-training (hit 15 lands in epoch 1 at tiny
    // scale: 400 samples / batch 32 = 13 steps per epoch).
    let _g = install(vec![FaultSpec::once(FaultKind::Nan, "train_step", 15)]);
    let scale = ExperimentScale::tiny();
    let setup = TaskSetup::new(NetKind::LeNet5, &scale);
    let trained = TrainedModel::train(&setup, &scale, 42).unwrap();
    assert_eq!(trained.health.rollbacks, 1, "{:?}", trained.health);
    assert!(
        trained.health.events[0].contains("non-finite"),
        "{:?}",
        trained.health.events
    );
    // The recovered model is still a working model, not salvaged garbage.
    assert!(
        trained.test_accuracy > 0.7,
        "post-rollback accuracy {}",
        trained.test_accuracy
    );
}

#[test]
fn nan_attack_gradient_surfaces_in_sweep_health_metadata() {
    let scale = serial_tiny();
    // Every attack gradient is poisoned: IFGSM keeps its last good iterate
    // (the clean input) instead of emitting NaN adversarial samples.
    let _g = install(vec![FaultSpec::sticky(FaultKind::Nan, "attack_iter", 0)]);
    let matrix = TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgsm], &[1.0]);
    let run = matrix
        .run_resilient(
            &scale,
            &RunConfig {
                seed: 7,
                run_dir: None,
                retry: RetryPolicy::none(),
            },
        )
        .unwrap();
    // The point completed — the guard degraded the attack, not the run.
    assert!(run.failed.is_empty(), "{:?}", run.failed);
    assert_eq!(run.results[0].points.len(), 1);
    assert!(
        run.health
            .iter()
            .any(|h| h.contains("ifgsm") && h.contains("non-finite")),
        "expected an ifgsm health event in {:?}",
        run.health
    );
    // With the attack neutered at iteration 0 the "adversarial" samples are
    // clean inputs, so the point's accuracies are ordinary and in range.
    let p = &run.results[0].points[0];
    for v in [
        p.base_accuracy,
        p.comp_to_comp,
        p.full_to_comp,
        p.comp_to_full,
    ] {
        assert!((0.0..=1.0).contains(&v), "{p:?}");
    }
}
