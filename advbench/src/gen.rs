//! The benchmark's open-loop load generator.
//!
//! Request `k` of a phase at rate `R` is *due* at `t0 + k/R`, whatever the
//! server is doing. A sender thread sleeps until each due time and sends;
//! a receiver thread collects answers. Latency is measured from the due
//! time, not from the actual send, so a stalled sender (or a blocked
//! socket) charges its delay to every request it made late, as a user
//! would see it. How late the sender itself ran is reported separately as
//! the generator's lag, which says whether a run is valid at all.
//!
//! Every request ends in exactly one [`Outcome`]. A request that was
//! refused, failed, answered wrongly or never answered is a *miss*: its
//! latency is censored at the end of the observation window, so misses
//! push the upper percentiles up instead of disappearing from them.

use crate::host::{undisturbed, StealTrace};
use crate::stats::{quantile, sorted};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How one request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// Answered, and the answer matched the offline reference.
    Ok,
    /// Refused with `overloaded` (every queue full).
    Overloaded,
    /// Refused with `rate_limited` (admission control).
    RateLimited,
    /// An error answer, or the request could not be sent.
    Failed,
    /// Answered, but the label or guard score differs from the reference.
    Mismatch,
}

/// One open-loop phase: `count` requests at `rate` per second.
#[derive(Debug, Clone, Copy)]
pub struct Phase {
    /// Offered rate, requests per second.
    pub rate: f64,
    /// Requests in the phase (`rate × duration`).
    pub count: usize,
    /// How long the receiver waits for stragglers after the last send.
    pub drain: Duration,
}

impl Phase {
    /// A phase of `seconds` at `rate`, with at least one request.
    pub fn new(rate: f64, seconds: f64, drain: Duration) -> Phase {
        Phase {
            rate,
            count: ((rate * seconds).round() as usize).max(1),
            drain,
        }
    }

    /// Due offset of request `k` from the phase start.
    pub fn due(&self, k: usize) -> Duration {
        Duration::from_secs_f64(k as f64 / self.rate)
    }
}

/// What one phase measured.
#[derive(Debug, Clone)]
pub struct Report {
    /// The offered rate.
    pub rate: f64,
    /// Requests scheduled.
    pub attempted: usize,
    /// Per-outcome counts; `lost` requests got no answer at all.
    pub ok: usize,
    /// Requests refused as overloaded.
    pub overloaded: usize,
    /// Requests refused by admission control.
    pub rate_limited: usize,
    /// Error answers and failed sends.
    pub failed: usize,
    /// Answers that differ from the offline reference.
    pub mismatched: usize,
    /// Requests never answered within the drain window.
    pub lost: usize,
    /// Latency from due time of every request, in request order, in ms;
    /// misses are censored at the end of the observation window.
    pub latency_ms: Vec<f64>,
    /// How late each request was sent relative to its due time, in ms.
    pub lag_ms: Vec<f64>,
    /// When request 0 was due.
    pub start: Instant,
}

impl Report {
    /// Requests that missed: refused, failed, wrong or lost.
    pub fn misses(&self) -> usize {
        self.attempted - self.ok
    }

    /// Quantile `q` of latency from due time over every request (ms).
    pub fn latency_q(&self, q: f64) -> f64 {
        quantile(&sorted(&self.latency_ms), q)
    }

    /// p99 from due time as the median of per-window p99s: the schedule is
    /// cut into consecutive windows of at least [`WINDOW`] requests, so
    /// each window's p99 has ten or more samples beyond it, and one host
    /// hiccup moves one window rather than the whole figure.
    pub fn p99_ms(&self) -> f64 {
        windowed_p99(&self.latency_ms)
    }

    /// Quantile `q` of the generator's send lag (ms).
    pub fn lag_q(&self, q: f64) -> f64 {
        quantile(&sorted(&self.lag_ms), q)
    }

    /// Quantile `q` of latency from due time (ms) as the median of the
    /// per-window quantiles over the windows the host left alone (see
    /// [`crate::host::undisturbed`]).
    pub fn quiet_q(&self, q: f64, steal: &StealTrace) -> f64 {
        let shares: Vec<f64> = self
            .window_spans()
            .into_iter()
            .map(|(from, to)| steal.pct(from, to))
            .collect();
        crate::stats::median(&undisturbed(
            &window_quantiles(&self.latency_ms, q),
            &shares,
        ))
    }

    /// Due times of the first and last request of each window of
    /// [`window_quantiles`].
    pub fn window_spans(&self) -> Vec<(Instant, Instant)> {
        let due = |k: usize| self.start + Duration::from_secs_f64(k as f64 / self.rate);
        windows(self.latency_ms.len())
            .into_iter()
            .map(|w| (due(w.start), due(w.end - 1)))
            .collect()
    }
}

/// Requests per p99 window: ten samples beyond the 99th percentile.
pub const WINDOW: usize = 1000;

/// Median over consecutive windows of at least [`WINDOW`] samples of each
/// window's p99; a sample shorter than one window gives its plain p99.
pub fn windowed_p99(samples: &[f64]) -> f64 {
    crate::stats::median(&window_quantiles(samples, 0.99))
}

/// Quantile `q` of each window [`windowed_p99`] takes the median of.
pub fn window_quantiles(samples: &[f64], q: f64) -> Vec<f64> {
    windows(samples.len())
        .into_iter()
        .map(|w| quantile(&sorted(&samples[w]), q))
        .collect()
}

/// Cuts `n` samples into consecutive windows of at least [`WINDOW`]
/// samples (one window when `n` is shorter).
fn windows(n: usize) -> Vec<std::ops::Range<usize>> {
    let count = (n / WINDOW).max(1);
    let size = n / count;
    (0..count)
        .map(|w| w * size..if w + 1 == count { n } else { (w + 1) * size })
        .collect()
}

/// Runs one phase on two threads: the sender calls `send(k)` at each due
/// time (`Err(outcome)` = refused on the spot); the receiver calls
/// `recv(timeout)` until every sent request is answered or the drain
/// window closes. `recv` yields `Some(Some((k, outcome)))` for an answer,
/// `Some(None)` on timeout and `None` once no answer can arrive anymore.
pub fn run<S, R>(phase: &Phase, mut send: S, mut recv: R) -> Report
where
    S: FnMut(usize) -> Result<(), Outcome> + Send,
    R: FnMut(Duration) -> Option<Option<(usize, Outcome)>> + Send,
{
    let n = phase.count;
    let t0 = Instant::now() + Duration::from_millis(2);
    let sent = AtomicUsize::new(0);
    let sending_done = AtomicBool::new(false);
    let last_send = Mutex::new(t0);
    let (sends, answers, stop) = std::thread::scope(|s| {
        let sender = s.spawn(|| {
            let mut sends: Vec<(Instant, Option<Outcome>)> = Vec::with_capacity(n);
            for k in 0..n {
                let due = t0 + phase.due(k);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let refused = send(k).err();
                let at = Instant::now();
                sends.push((at, refused));
                sent.fetch_add(1, Ordering::Release);
            }
            *last_send.lock().expect("sender state poisoned") = Instant::now();
            sending_done.store(true, Ordering::Release);
            sends
        });
        let receiver = s.spawn(|| {
            let mut answers: Vec<Option<(Instant, Outcome)>> = vec![None; n];
            let mut received = 0usize;
            loop {
                if sending_done.load(Ordering::Acquire) {
                    let deadline = *last_send.lock().expect("sender state poisoned") + phase.drain;
                    if received >= sent.load(Ordering::Acquire) || Instant::now() > deadline {
                        break;
                    }
                }
                match recv(Duration::from_millis(5)) {
                    Some(Some((k, outcome))) if k < n && answers[k].is_none() => {
                        answers[k] = Some((Instant::now(), outcome));
                        received += 1;
                    }
                    Some(_) => {}
                    None => {
                        if sending_done.load(Ordering::Acquire) {
                            break;
                        }
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            }
            (answers, Instant::now())
        });
        let sends = sender.join().expect("load sender panicked");
        let (answers, stop) = receiver.join().expect("load receiver panicked");
        (sends, answers, stop)
    });

    let mut report = Report {
        rate: phase.rate,
        attempted: n,
        ok: 0,
        overloaded: 0,
        rate_limited: 0,
        failed: 0,
        mismatched: 0,
        lost: 0,
        latency_ms: Vec::with_capacity(n),
        lag_ms: Vec::with_capacity(n),
        start: t0,
    };
    let ms = |d: Duration| d.as_secs_f64() * 1e3;
    for (k, ((sent_at, refused), answer)) in sends.iter().zip(&answers).enumerate() {
        let due = t0 + phase.due(k);
        report
            .lag_ms
            .push(ms(sent_at.saturating_duration_since(due)));
        let outcome = refused.or(answer.map(|(_, o)| o));
        match outcome {
            Some(Outcome::Ok) => report.ok += 1,
            Some(Outcome::Overloaded) => report.overloaded += 1,
            Some(Outcome::RateLimited) => report.rate_limited += 1,
            Some(Outcome::Failed) => report.failed += 1,
            Some(Outcome::Mismatch) => report.mismatched += 1,
            None => report.lost += 1,
        }
        let latency = match (outcome, answer) {
            (Some(Outcome::Ok), Some((at, _))) => at.saturating_duration_since(due),
            _ => stop.saturating_duration_since(due),
        };
        report.latency_ms.push(ms(latency));
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    /// An instant in-memory "server": every sent request is answered as
    /// soon as the receiver looks.
    fn echo_phase(phase: &Phase, stall_at: Option<(usize, Duration)>) -> Report {
        let (tx, rx) = mpsc::channel::<usize>();
        run(
            phase,
            move |k| {
                if let Some((at, d)) = stall_at {
                    if k == at {
                        std::thread::sleep(d);
                    }
                }
                tx.send(k).map_err(|_| Outcome::Failed)
            },
            move |timeout| match rx.recv_timeout(timeout) {
                Ok(k) => Some(Some((k, Outcome::Ok))),
                Err(mpsc::RecvTimeoutError::Timeout) => Some(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => None,
            },
        )
    }

    #[test]
    fn every_request_is_answered_on_an_instant_server() {
        let phase = Phase::new(2000.0, 0.1, Duration::from_millis(200));
        let r = echo_phase(&phase, None);
        assert_eq!(r.attempted, 200);
        assert_eq!(r.ok, 200);
        assert_eq!(r.misses(), 0);
        assert_eq!(r.latency_ms.len(), 200);
    }

    #[test]
    fn a_sender_stall_is_charged_from_the_due_time() {
        // 1000 rps: request k is due at k ms. The sender stalls 40 ms while
        // sending request 50, so requests 50..~90 leave late. The server
        // answers instantly, so send-to-answer latency would stay near zero;
        // latency from the due time must show the stall.
        let phase = Phase::new(1000.0, 0.2, Duration::from_millis(500));
        let stall = Duration::from_millis(40);
        let r = echo_phase(&phase, Some((50, stall)));
        assert_eq!(r.ok, 200);
        assert!(
            r.latency_ms[50] >= 39.0,
            "stalled request: {} ms",
            r.latency_ms[50]
        );
        assert!(
            r.lag_ms[50] >= 39.0,
            "lag of the stalled request: {}",
            r.lag_ms[50]
        );
        // Request 60 was due 10 ms after 50, so it waited about 30 ms.
        assert!(
            r.latency_ms[60] >= 25.0,
            "queued behind the stall: {}",
            r.latency_ms[60]
        );
        // Well before the stall nothing waited that long.
        assert!(r.latency_ms[..40].iter().all(|&l| l < 25.0));
        // At least the ~30 requests due during the stall are late by 10 ms+.
        let late = r.latency_ms.iter().filter(|&&l| l >= 10.0).count();
        assert!(late >= 25, "late requests: {late}");
        assert!(r.latency_q(1.0) >= 39.0);
    }

    #[test]
    fn windowed_p99_is_the_median_of_window_p99s() {
        // Three windows of 1000; one holds a burst of 20 slow samples.
        let mut samples = vec![1.0; 3000];
        for s in &mut samples[1000..1020] {
            *s = 100.0;
        }
        assert_eq!(windowed_p99(&samples), 1.0);
        // The plain p99 over all samples is also 1.0 (20 < 30), but a
        // burst of 40 moves it while the windowed figure holds.
        for s in &mut samples[1000..1040] {
            *s = 100.0;
        }
        assert_eq!(quantile(&sorted(&samples), 0.99), 100.0);
        assert_eq!(windowed_p99(&samples), 1.0);
        // Short samples fall back to the plain p99.
        assert_eq!(windowed_p99(&[1.0, 2.0, 3.0]), 3.0);
    }

    #[test]
    fn refusals_and_losses_are_misses_censored_at_the_window_end() {
        let phase = Phase::new(1000.0, 0.05, Duration::from_millis(30));
        let (tx, rx) = mpsc::channel::<usize>();
        let r = run(
            &phase,
            move |k| {
                if k % 10 == 0 {
                    return Err(Outcome::Overloaded);
                }
                // Request 5 is swallowed by the "server" and never answered.
                if k != 5 {
                    tx.send(k).map_err(|_| Outcome::Failed)?;
                }
                Ok(())
            },
            move |timeout| match rx.recv_timeout(timeout) {
                Ok(k) => Some(Some((k, Outcome::Ok))),
                Err(mpsc::RecvTimeoutError::Timeout) => Some(None),
                Err(mpsc::RecvTimeoutError::Disconnected) => None,
            },
        );
        assert_eq!(r.attempted, 50);
        assert_eq!(r.overloaded, 5);
        assert_eq!(r.lost, 1);
        assert_eq!(r.ok, 44);
        assert_eq!(r.misses(), 6);
        // The lost request waited at least until the window closed.
        let worst_ok = (0..50)
            .filter(|k| k % 10 != 0 && *k != 5)
            .map(|k| r.latency_ms[k])
            .fold(0.0, f64::max);
        assert!(r.latency_ms[5] >= worst_ok);
    }
}
