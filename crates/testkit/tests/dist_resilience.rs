//! Distributed-execution pillar: proves the lease-based coordinator/worker
//! layer delivers the same sweep as a single process, under injected
//! protocol faults.
//!
//! Contracts under test:
//!
//! * **bit-identity** — a multi-worker distributed run, a zero-worker
//!   (solo-fallback) run and a plain `run_resilient` produce byte-equal
//!   curves, and a re-run resumes everything from the journal;
//! * **exactly-once journal** — every point ends up with exactly one
//!   journal file, even when duplicates race;
//! * the three dist fault sites — `dist_lease_grant`, `dist_heartbeat`,
//!   `dist_result_write` — each cost one protocol step, never the sweep:
//!   worker death is absorbed by lease expiry + re-dispatch, a dropped
//!   result delivery is re-dispatched, a grant failure is retried.
//!
//! Each fault test holds its `FaultGuard` for its whole run; installed
//! faults reach only the threads of that test's scope, so the tests run
//! in parallel.

use advcomp_attacks::{AttackKind, NetKind};
use advcomp_core::dist::{run_local, run_worker, Coordinator, DistRunConfig, WorkerOptions};
use advcomp_core::resilience::RetryPolicy;
use advcomp_core::sweep::{MatrixRun, RunConfig, TransferMatrix};
use advcomp_core::ExperimentScale;
use advcomp_nn::faults::{install, FaultKind, FaultSpec};
use std::io::Read;
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Duration;

fn serial_tiny() -> ExperimentScale {
    let mut scale = ExperimentScale::tiny();
    // Serial workers make fault-site hit indices deterministic.
    scale.max_workers = 1;
    scale
}

fn two_point_matrix() -> TransferMatrix {
    TransferMatrix::pruning(NetKind::LeNet5, vec![AttackKind::Ifgsm], &[1.0, 0.3])
}

fn temp_run_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "advcomp-dist-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dist_cfg(run_dir: &Path) -> DistRunConfig {
    let mut cfg = DistRunConfig::new(run_dir.to_path_buf());
    // Timing knobs shrunk to test scale: fast heartbeats, quick expiry,
    // near-immediate solo fallback.
    cfg.dist.heartbeat_ms = 40;
    cfg.dist.lease_ms = 300;
    cfg.dist.solo_grace_ms = 50;
    cfg
}

/// The single-process reference for the same matrix/scale/seed.
fn single_process(matrix: &TransferMatrix) -> MatrixRun {
    let cfg = RunConfig {
        seed: 7,
        run_dir: None,
        retry: RetryPolicy::sweep_default(),
    };
    matrix.run_resilient(&serial_tiny(), &cfg).unwrap()
}

fn journal_file_count(run_dir: &Path) -> usize {
    std::fs::read_dir(run_dir.join("points"))
        .map(|d| d.filter_map(Result::ok).count())
        .unwrap_or(0)
}

#[test]
fn distributed_solo_and_single_process_runs_are_bit_identical() {
    let matrix = two_point_matrix();
    let reference = single_process(&matrix);

    // Two local workers over the real TCP protocol.
    let run_dir = temp_run_dir("ident");
    let cfg = dist_cfg(&run_dir);
    let dist = run_local(&matrix, &serial_tiny(), &cfg, 2).unwrap();
    assert_eq!(
        serde_json::to_string(&dist.run.results).unwrap(),
        serde_json::to_string(&reference.results).unwrap(),
        "distributed curves must be byte-equal to the single-process run"
    );
    assert_eq!(dist.report.divergent, 0);
    assert_eq!(dist.report.computed_remote + dist.report.computed_solo, 2);
    // Exactly-once journal: one file per point, duplicates resolved.
    assert_eq!(journal_file_count(&run_dir), 2);

    // Re-run over the same journal: everything resumes, nothing recomputes.
    let resumed = run_local(&matrix, &serial_tiny(), &cfg, 2).unwrap();
    assert_eq!((resumed.run.resumed, resumed.run.computed), (2, 0));
    assert_eq!(
        serde_json::to_string(&resumed.run.results).unwrap(),
        serde_json::to_string(&reference.results).unwrap()
    );
    assert_eq!(journal_file_count(&run_dir), 2);

    // Zero workers: the coordinator degrades to finishing the sweep alone.
    let solo_dir = temp_run_dir("solo");
    let solo = run_local(&matrix, &serial_tiny(), &dist_cfg(&solo_dir), 0).unwrap();
    assert_eq!(solo.report.computed_solo, 2, "{:?}", solo.report);
    assert_eq!(solo.report.computed_remote, 0);
    assert_eq!(
        serde_json::to_string(&solo.run.results).unwrap(),
        serde_json::to_string(&reference.results).unwrap(),
        "solo-fallback curves must be byte-equal to the single-process run"
    );

    let _ = std::fs::remove_dir_all(&run_dir);
    let _ = std::fs::remove_dir_all(&solo_dir);
}

#[test]
fn worker_death_mid_point_costs_only_that_lease() {
    // The first heartbeat fires a panic: the worker holding the lease dies
    // mid-compute (its compute thread finishes, but the protocol thread —
    // and with it the connection — unwinds). The lease expires or the EOF
    // releases it; the point is re-dispatched and the sweep completes.
    let _g = install(vec![FaultSpec::once(FaultKind::Panic, "dist_heartbeat", 0)]);
    let matrix = two_point_matrix();
    let run_dir = temp_run_dir("death");
    let mut cfg = dist_cfg(&run_dir);
    // Hold points in flight long enough that the heartbeat (and its
    // injected panic) definitely fires before the point completes.
    cfg.worker_slow_ms = 250;
    let dist = run_local(&matrix, &serial_tiny(), &cfg, 2).unwrap();

    assert!(
        dist.report.redispatches >= 1,
        "the dead worker's point must be re-dispatched: {:?}",
        dist.report
    );
    assert!(
        dist.report.leases_expired + dist.report.workers_lost >= 1,
        "the death must surface as lease expiry and/or a lost worker: {:?}",
        dist.report
    );
    assert_eq!(dist.run.computed, 2);
    assert!(dist.run.failed.is_empty(), "{:?}", dist.run.failed);
    assert_eq!(dist.report.divergent, 0);
    assert_eq!(journal_file_count(&run_dir), 2);
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn grant_fault_costs_one_request_not_the_worker() {
    // The first lease grant fails with an injected I/O error: the worker is
    // told to wait and simply asks again.
    let _g = install(vec![FaultSpec::once(FaultKind::Io, "dist_lease_grant", 0)]);
    let matrix = two_point_matrix();
    let run_dir = temp_run_dir("grant");
    let dist = run_local(&matrix, &serial_tiny(), &dist_cfg(&run_dir), 1).unwrap();

    assert_eq!(dist.report.grant_errors, 1, "{:?}", dist.report);
    assert_eq!(dist.report.workers_lost, 0);
    assert_eq!(dist.run.computed, 2);
    assert!(dist.run.failed.is_empty(), "{:?}", dist.run.failed);
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn suppressed_heartbeats_expire_the_lease_without_losing_the_point() {
    // A sticky I/O fault swallows every heartbeat (the slow-network failure
    // mode): the lease expires, but the worker's eventual result is still
    // accepted — completion is owned by the journal, not the lease.
    let _g = install(vec![FaultSpec::sticky(FaultKind::Io, "dist_heartbeat", 0)]);
    let matrix = two_point_matrix();
    let run_dir = temp_run_dir("expire");
    let mut cfg = dist_cfg(&run_dir);
    cfg.dist.lease_ms = 120;
    cfg.worker_slow_ms = 300;
    let dist = run_local(&matrix, &serial_tiny(), &cfg, 1).unwrap();

    assert!(
        dist.report.leases_expired >= 1,
        "unrefreshed leases must expire: {:?}",
        dist.report
    );
    assert_eq!(dist.run.computed, 2);
    assert!(dist.run.failed.is_empty(), "{:?}", dist.run.failed);
    assert_eq!(journal_file_count(&run_dir), 2);
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn dropped_result_delivery_is_redispatched_and_converges() {
    // The first result persist fails: that delivery is dropped and the
    // lease released, the point re-dispatches, the second delivery lands —
    // and the journal still holds exactly one file per point.
    let _g = install(vec![FaultSpec::once(FaultKind::Io, "dist_result_write", 0)]);
    let matrix = two_point_matrix();
    let run_dir = temp_run_dir("reswrite");
    let dist = run_local(&matrix, &serial_tiny(), &dist_cfg(&run_dir), 1).unwrap();

    assert_eq!(dist.report.result_write_errors, 1, "{:?}", dist.report);
    assert!(
        dist.report.redispatches >= 1,
        "the dropped point must be re-dispatched: {:?}",
        dist.report
    );
    assert_eq!(dist.run.computed, 2);
    assert!(dist.run.failed.is_empty(), "{:?}", dist.run.failed);
    assert_eq!(dist.report.divergent, 0);
    assert_eq!(journal_file_count(&run_dir), 2);
    let _ = std::fs::remove_dir_all(&run_dir);
}

#[test]
fn hostile_deep_frame_drops_only_its_connection() {
    // A raw peer sends one frame of 100,000 unclosed `[`. Its handler
    // thread must answer with a parse error and close that connection; a
    // parser without a depth cap overflows the thread's stack instead and
    // aborts the coordinator process. The real workers finish the sweep.
    let matrix = two_point_matrix();
    let reference = single_process(&matrix);
    let run_dir = temp_run_dir("deep");
    let mut cfg = dist_cfg(&run_dir);
    // No solo fallback: the two workers must compute both points.
    cfg.dist.solo_grace_ms = 60_000;
    let prepared = Arc::new(matrix.prepare(&serial_tiny(), cfg.seed).unwrap());
    let coordinator = Coordinator::bind(&cfg.listen, Arc::clone(&prepared), &cfg).unwrap();
    let addr = coordinator.addr().to_string();

    let mut peer = TcpStream::connect(&addr).unwrap();
    advcomp_wire::write_frame(&mut peer, "[".repeat(100_000).as_bytes()).unwrap();
    let workers: Vec<_> = (0..2)
        .map(|w| {
            let prepared = Arc::clone(&prepared);
            let addr = addr.clone();
            let opts = WorkerOptions {
                id: format!("w{w}"),
                heartbeat_ms: cfg.dist.heartbeat_ms,
                ..WorkerOptions::default()
            };
            std::thread::spawn(move || run_worker(&addr, &prepared, &opts))
        })
        .collect();
    let dist = coordinator.run().unwrap();
    for w in workers {
        w.join().unwrap().unwrap();
    }

    peer.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    match peer.read(&mut [0u8; 64]) {
        Ok(0) => {}
        Err(e) if e.kind() == std::io::ErrorKind::ConnectionReset => {}
        other => panic!("hostile connection must be closed without a reply, got {other:?}"),
    }
    assert_eq!(dist.report.computed_remote, 2, "{:?}", dist.report);
    assert_eq!(dist.report.workers_lost, 0, "{:?}", dist.report);
    assert_eq!(
        serde_json::to_string(&dist.run.results).unwrap(),
        serde_json::to_string(&reference.results).unwrap(),
        "curves must be byte-equal to the single-process run"
    );
    let _ = std::fs::remove_dir_all(&run_dir);
}
