//! Distributed sweep execution: a lease-based coordinator/worker layer over
//! the attack×compression matrix.
//!
//! A paper-scale Figure 2/5 grid is embarrassingly parallel across sweep
//! points but hostile to naive distribution: points take minutes, workers
//! die (OOM, preemption, injected panics), and the final report must be
//! **bit-identical** to a single-process run. The design leans on three
//! existing pieces rather than inventing new ones:
//!
//! * the content-hash **journal** ([`crate::journal`]) is the source of
//!   truth for completion — results are idempotent (first write wins, and a
//!   duplicate must be bit-identical or it is flagged as divergence);
//! * [`PreparedMatrix`](crate::sweep::PreparedMatrix) is the deterministic
//!   substrate — every participant trains the same baseline from the same
//!   seed, so any worker's point record splices in exactly;
//! * the serve layer's length-prefixed JSON framing (`advcomp-wire`) is the
//!   transport — one frame per message, 16 MiB cap.
//!
//! The protocol is strict request/response, worker-initiated:
//!
//! ```text
//! worker                         coordinator
//!   | -- hello {id, config} -----> |   reject on config-hash mismatch
//!   | <- wait (ack) -------------- |
//!   | -- request ----------------> |
//!   | <- grant {index, key, ttl} - |   lease registered, deadline set
//!   | -- heartbeat {key} --------> |   lease deadline extended
//!   | <- wait (ack) -------------- |
//!   | -- result {key, record} ---> |   journalled; all leases released
//!   | <- wait (ack) -------------- |
//!   | -- request ----------------> |
//!   | <- done -------------------- |
//! ```
//!
//! Failure handling: a lease whose deadline passes without a heartbeat is
//! **expired** and the point re-dispatched (exponential backoff after
//! explicit worker-reported failures; a per-point failure budget turns a
//! poisoned point into a recorded failure instead of an infinite loop).
//! Near the end of the sweep, long-in-flight points are speculatively
//! re-dispatched to idle workers (stragglers); whichever copy finishes
//! first wins, the loser is a counted duplicate. If every worker is gone,
//! the coordinator finishes the sweep alone. Coordinator crash-resume rides
//! on the journal plus an append-only [`EventLog`](crate::journal::EventLog)
//! that restores the run report's counters.

mod coordinator;
mod msg;
mod worker;

pub use coordinator::{Coordinator, DistHandle};
pub use msg::{CoordMsg, WorkerMsg};
pub use worker::{run_worker, WorkerOptions, WorkerSummary};

use crate::resilience::RetryPolicy;
use crate::scale::ExperimentScale;
use crate::sweep::{MatrixRun, TransferMatrix};
use crate::Result;
use serde::Serialize;
use std::path::PathBuf;
use std::sync::Arc;

/// Timing and budget knobs for the lease protocol.
#[derive(Debug, Clone)]
pub struct DistConfig {
    /// Lease time-to-live: a lease not refreshed by a heartbeat within this
    /// window is expired and its point re-dispatched.
    pub lease_ms: u64,
    /// Worker heartbeat interval (must be comfortably below `lease_ms`).
    pub heartbeat_ms: u64,
    /// Explicit worker-reported failures tolerated per point before it is
    /// recorded as permanently failed.
    pub failure_budget: u32,
    /// Base re-dispatch backoff after a reported failure; doubles per
    /// failure (`backoff_ms * 2^(failures-1)`).
    pub backoff_ms: u64,
    /// In-flight age beyond which a point is considered a straggler and
    /// eligible for speculative re-dispatch to an idle worker.
    pub straggler_ms: u64,
    /// How long the coordinator waits with zero connected workers before
    /// degrading to computing pending points itself.
    pub solo_grace_ms: u64,
    /// Extra concurrent leases allowed per straggling point (1 = at most
    /// one speculative copy alongside the original).
    pub max_speculation: usize,
}

impl Default for DistConfig {
    fn default() -> Self {
        DistConfig {
            lease_ms: 2000,
            heartbeat_ms: 250,
            failure_budget: 3,
            backoff_ms: 50,
            straggler_ms: 1000,
            solo_grace_ms: 500,
            max_speculation: 1,
        }
    }
}

/// Full configuration of a distributed run.
#[derive(Debug, Clone)]
pub struct DistRunConfig {
    /// Baseline-training seed (part of every point's journal key).
    pub seed: u64,
    /// Run directory: journal (`points/`), event log (`events.log`) and the
    /// final `dist_report.json` all live here. Mandatory — distribution
    /// without a journal would have no idempotency story.
    pub run_dir: PathBuf,
    /// Lease-protocol knobs.
    pub dist: DistConfig,
    /// Retry budget workers (and the solo fallback) apply *within* one
    /// lease — panics and errors retried locally before being reported.
    pub retry: RetryPolicy,
    /// Coordinator listen address, e.g. `127.0.0.1:0`.
    pub listen: String,
    /// Artificial per-point slowdown applied to local-spawn workers — a
    /// test knob that holds points in flight long enough to exercise
    /// heartbeats, stragglers and mid-compute kills deterministically.
    pub worker_slow_ms: u64,
}

impl DistRunConfig {
    /// Defaults (seed 7, sweep-default retry, ephemeral localhost port)
    /// with the given run directory.
    pub fn new(run_dir: PathBuf) -> Self {
        DistRunConfig {
            seed: 7,
            run_dir,
            dist: DistConfig::default(),
            retry: RetryPolicy::sweep_default(),
            listen: "127.0.0.1:0".into(),
            worker_slow_ms: 0,
        }
    }
}

/// Per-sweep execution report: how the work actually got done. Written to
/// `<run_dir>/dist_report.json`. Deliberately **not** part of the
/// bit-compared results — its counts depend on timing.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct DistReport {
    /// Total sweep points in the matrix.
    pub points: usize,
    /// Points loaded from the journal at startup instead of recomputed.
    pub resumed: usize,
    /// Points completed by remote/connected workers this run.
    pub computed_remote: usize,
    /// Points the coordinator computed itself after worker loss.
    pub computed_solo: usize,
    /// Workers that completed the hello handshake.
    pub workers_joined: usize,
    /// Worker connections lost (EOF or I/O error) before `done`.
    pub workers_lost: usize,
    /// Leases granted (fresh + re-dispatch + speculative).
    pub leases_granted: usize,
    /// Leases expired after missed heartbeats.
    pub leases_expired: usize,
    /// Grants of a point that had been granted before (recovery path).
    pub redispatches: usize,
    /// Speculative straggler re-dispatches.
    pub speculative: usize,
    /// Results received for already-completed points (losers of races).
    pub duplicates: usize,
    /// Duplicates whose bytes differed from the first write — determinism
    /// violations; always 0 unless something is deeply wrong.
    pub divergent: usize,
    /// Injected/real lease-grant failures (`dist_lease_grant` site).
    pub grant_errors: usize,
    /// Injected/real result-persist failures (`dist_result_write` site).
    pub result_write_errors: usize,
    /// Explicit worker-reported point failures.
    pub reported_failures: usize,
    /// Points that exhausted their failure budget.
    pub permanent_failures: usize,
    /// Torn-event-log lines skipped during crash-resume.
    pub resume_warnings: usize,
}

/// Everything a finished distributed run produces.
#[derive(Debug)]
pub struct DistOutcome {
    /// The assembled matrix run — bit-identical to what
    /// [`TransferMatrix::run_resilient`] would produce for the same inputs.
    pub run: MatrixRun,
    /// The execution report (also persisted to `dist_report.json`).
    pub report: DistReport,
}

/// Runs `matrix` distributed across `workers` in-process worker threads
/// plus the coordinator — the `--workers N` local-spawn mode. The matrix is
/// prepared **once** and shared; worker threads speak the same TCP protocol
/// as external worker processes, so every failure path (dropped
/// connections, injected panics, lease expiry) is exercised for real.
///
/// # Errors
///
/// Propagates preparation (training), bind and journal errors. Worker
/// deaths do not error — they are the thing this layer absorbs.
pub fn run_local(
    matrix: &TransferMatrix,
    scale: &ExperimentScale,
    cfg: &DistRunConfig,
    workers: usize,
) -> Result<DistOutcome> {
    let prepared = Arc::new(matrix.prepare(scale, cfg.seed)?);
    let coordinator = Coordinator::bind(&cfg.listen, Arc::clone(&prepared), cfg)?;
    let addr = coordinator.addr().to_string();
    let handles: Vec<_> = (0..workers)
        .map(|w| {
            let prepared = Arc::clone(&prepared);
            let addr = addr.clone();
            let opts = WorkerOptions {
                id: format!("local-{w}"),
                heartbeat_ms: cfg.dist.heartbeat_ms,
                retry: cfg.retry,
                slow_ms: cfg.worker_slow_ms,
                ..WorkerOptions::default()
            };
            let fault_scope = advcomp_nn::faults::scope();
            std::thread::spawn(move || {
                fault_scope.enter();
                run_worker(&addr, &prepared, &opts)
            })
        })
        .collect();
    let outcome = coordinator.run();
    for h in handles {
        // A worker thread that panicked (e.g. an injected `dist_heartbeat`
        // panic) or errored is precisely the fault this layer tolerates —
        // its lease was re-dispatched; nothing to do here.
        let _ = h.join();
    }
    outcome
}
