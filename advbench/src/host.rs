//! Host fingerprint and process memory, written into every result.

use advcomp_serve::json::{Json, JsonObj};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Cores the process may run on.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Pins the crates' kernel pool to `threads` (`ADVCOMP_THREADS`) before
/// any crate code starts it. Must run before the first tensor operation of
/// the process.
pub fn pin_pool_threads(threads: usize) {
    std::env::set_var("ADVCOMP_THREADS", threads.to_string());
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The commit the benchmark was built from, read from `.git` in the
/// working directory when there is one.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map_or_else(|_| "unknown".into(), |s| s.trim().to_string()),
        None => head,
    }
}

/// Cumulative `(steal, total)` CPU ticks of the host from `/proc/stat`,
/// where available.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .map(|f| f.parse().unwrap_or(0))
        .collect();
    Some((fields.get(7).copied().unwrap_or(0), fields.iter().sum()))
}

/// CPU time this process has used so far (user plus system, every
/// thread) in seconds, from `/proc/self/stat`; 0 where unavailable.
pub fn process_cpu_s() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the
    // 14th and 15th fields of the line, in ticks of 1/100 s.
    let Some((_, rest)) = stat.rsplit_once(')') else {
        return 0.0;
    };
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().unwrap_or(0))
        .sum();
    ticks as f64 / 100.0
}

/// Samples the host's [`cpu_ticks`] on a background thread, so the steal
/// share of any stretch of a timed phase can be read afterwards.
pub struct StealSampler {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Vec<(Instant, (u64, u64))>>,
}

impl StealSampler {
    /// Starts sampling every [`STEAL_SAMPLE`].
    pub fn start() -> StealSampler {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            loop {
                if let Some(t) = cpu_ticks() {
                    samples.push((Instant::now(), t));
                }
                if flag.load(Ordering::Acquire) {
                    return samples;
                }
                std::thread::sleep(STEAL_SAMPLE);
            }
        });
        StealSampler { stop, handle }
    }

    /// Stops sampling (after one last sample) and returns the trace.
    pub fn finish(self) -> StealTrace {
        self.stop.store(true, Ordering::Release);
        StealTrace {
            samples: self.handle.join().unwrap_or_default(),
        }
    }
}

/// Period of [`StealSampler`]; `/proc/stat` counts in ticks of 10 ms.
pub const STEAL_SAMPLE: Duration = Duration::from_millis(50);

/// The host's steal counters over one timed phase.
#[derive(Debug, Clone, Default)]
pub struct StealTrace {
    samples: Vec<(Instant, (u64, u64))>,
}

impl StealTrace {
    /// Steal share between `from` and `to`, in percent: between the last
    /// sample at or before `from` and the first at or after `to`. 0 where
    /// nothing was sampled.
    pub fn pct(&self, from: Instant, to: Instant) -> f64 {
        let a = self
            .samples
            .iter()
            .rev()
            .find(|(t, _)| *t <= from)
            .or(self.samples.first());
        let b = self
            .samples
            .iter()
            .find(|(t, _)| *t >= to)
            .or(self.samples.last());
        steal_pct(a.map(|s| s.1), b.map(|s| s.1))
    }
}

/// The values of the stretches of a phase the host left alone: those whose
/// steal share is within [`STEAL_LIMIT_PCT`], or, when fewer than half are,
/// the least-disturbed half. On a virtual machine whose neighbours take a
/// varying share of the physical cores, a disturbed stretch measures the
/// neighbours as much as the program.
///
/// # Panics
///
/// Panics if `values` and `steal` differ in length.
pub fn undisturbed(values: &[f64], steal: &[f64]) -> Vec<f64> {
    assert_eq!(values.len(), steal.len(), "one steal share per value");
    let quiet: Vec<f64> = values
        .iter()
        .zip(steal)
        .filter(|(_, &s)| s <= STEAL_LIMIT_PCT)
        .map(|(&v, _)| v)
        .collect();
    if 2 * quiet.len() >= values.len() {
        return quiet;
    }
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| steal[a].total_cmp(&steal[b]));
    order[..values.len().div_ceil(2)]
        .iter()
        .map(|&i| values[i])
        .collect()
}

/// Host steal share above which a stretch of a timed phase counts as
/// disturbed, percent.
pub const STEAL_LIMIT_PCT: f64 = 3.0;

/// Share of CPU time the hypervisor gave to other guests between two
/// [`cpu_ticks`] readings, in percent: a run with a high share measured
/// the neighbours as much as the program.
pub fn steal_pct(start: Option<(u64, u64)>, end: Option<(u64, u64)>) -> f64 {
    match (start, end) {
        (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
            100.0 * s1.saturating_sub(s0) as f64 / (t1 - t0) as f64
        }
        _ => 0.0,
    }
}

/// A fixed integer workload on one thread, median of 5 timings in ms: a
/// speed index of the host at the time of the run, so a slow run can be
/// told apart from a slow program.
pub fn cpu_probe_ms() -> f64 {
    let mut times = Vec::with_capacity(5);
    for _ in 0..5 {
        let t = std::time::Instant::now();
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for i in 0..2_000_000u64 {
            x = std::hint::black_box(x.rotate_left(7) ^ i).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        }
        std::hint::black_box(x);
        times.push(t.elapsed().as_secs_f64() * 1e3);
    }
    crate::stats::median(&times)
}

/// Everything a result depends on besides the code: cores, SIMD support,
/// kernel and thread settings, sweep workers, commit, compiler, seed, the
/// host's steal share over the run and its speed index at the end of it.
pub fn fingerprint(workload: &str, seed: u64, sweep_workers: usize, steal_pct: f64) -> Json {
    let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unset".into());
    JsonObj::new()
        .set("workload", Json::Str(workload.into()))
        .set("seed", Json::Num(seed as f64))
        .set("cores", Json::Num(cores() as f64))
        .set("avx2", Json::Bool(avx2()))
        .set(
            "kernel_backend",
            Json::Str(advcomp_tensor::simd::backend().name().into()),
        )
        .set("ADVCOMP_KERNEL", Json::Str(env("ADVCOMP_KERNEL")))
        .set("ADVCOMP_THREADS", Json::Str(env("ADVCOMP_THREADS")))
        .set("sweep_workers", Json::Num(sweep_workers as f64))
        .set("git_rev", Json::Str(git_rev()))
        .set("rustc", Json::Str(env!("ADVBENCH_RUSTC_VERSION").into()))
        .set("steal_pct", Json::Num(steal_pct))
        .set("cpu_probe_ms", Json::Num(cpu_probe_ms()))
        .build()
}

fn avx2() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn undisturbed_keeps_quiet_stretches_or_the_least_disturbed_half() {
        // Two of five stretches disturbed: the three quiet ones remain.
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(
            undisturbed(&v, &[0.0, 9.0, 1.0, 3.0, 20.0]),
            vec![1.0, 3.0, 4.0]
        );
        // Four of five disturbed: the least-disturbed three (half, rounded
        // up) remain, in order of their steal share.
        assert_eq!(
            undisturbed(&v, &[5.0, 9.0, 4.0, 30.0, 20.0]),
            vec![3.0, 1.0, 2.0]
        );
        // Nothing sampled: every stretch counts as quiet.
        assert_eq!(undisturbed(&v, &[0.0; 5]), v.to_vec());
    }

    #[test]
    fn steal_trace_reads_the_samples_around_a_stretch() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let trace = StealTrace {
            samples: vec![
                (at(0), (0, 0)),
                (at(50), (0, 100)),
                (at(100), (10, 200)),
                (at(150), (10, 300)),
            ],
        };
        // 50..100 ms: 10 of 100 ticks stolen.
        assert!((trace.pct(at(50), at(100)) - 10.0).abs() < 1e-9);
        // 60..90 ms widens to the samples around it, 50..100.
        assert!((trace.pct(at(60), at(90)) - 10.0).abs() < 1e-9);
        assert_eq!(trace.pct(at(100), at(150)), 0.0);
        assert_eq!(StealTrace::default().pct(at(0), at(10)), 0.0);
    }
}
