//! Deterministic fault injection for resilience testing.
//!
//! Long experiment grids die in three characteristic ways: a worker panics,
//! a numeric blow-up poisons an iteration with NaN, or an interrupted write
//! truncates a results file. This module provides the *injection* half of
//! the resilience story: named **sites** placed at those exact spots fire
//! configured faults deterministically, so the recovery machinery (the
//! supervised runner, health guards and journal in `advcomp-core`) can be
//! proven end to end rather than trusted.
//!
//! Faults come from two sources:
//!
//! * the `ADVCOMP_FAULTS` environment variable, parsed once on first use —
//!   a `;`/`,`-separated list of `kind:site:hit[:sticky]` specs, e.g.
//!   `ADVCOMP_FAULTS="panic:sweep_point:1;nan:train_step:5"` panics the
//!   second invocation of the `sweep_point` site and poisons the sixth
//!   `train_step` with NaN. `kind` is one of `panic`, `nan`, `io`, `error`;
//!   `hit` is the 0-based invocation index; a trailing `:sticky` makes the
//!   fault fire on every invocation from `hit` onwards instead of once.
//!   Environment faults are process-wide.
//! * programmatic [`install`]/[`FaultGuard`] for tests. Installed faults
//!   are **scoped**: they fire only on the installing thread and on
//!   threads that enter its [`Scope`] token, with their own invocation
//!   counters. Every thread spawn on a path with fault sites (serve
//!   workers and event loops, sweep and dist workers) hands the spawner's
//!   [`scope`] to the new thread, so a test's faults reach that test's
//!   workers and no concurrently running test sees them.
//!
//! Sites live where the failure would naturally occur: this crate only
//! defines the registry; `advcomp-attacks`, `advcomp-compress` and
//! `advcomp-core` query it at their loop bodies and write paths. Probing a
//! site is two atomic loads when no fault targets it, so production runs
//! (no `ADVCOMP_FAULTS`, nothing installed) pay essentially nothing.

use std::cell::Cell;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// What an armed fault does when its site fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Panic with a recognisable message (exercises `catch_unwind` paths).
    Panic,
    /// Poison the site's tensor/loss with NaN (exercises health guards).
    Nan,
    /// Fail the site's I/O operation (exercises atomic-write recovery).
    Io,
    /// Return a plain error (exercises retry/partial-result paths).
    Error,
}

impl FaultKind {
    fn parse(s: &str) -> Option<FaultKind> {
        match s {
            "panic" => Some(FaultKind::Panic),
            "nan" => Some(FaultKind::Nan),
            "io" => Some(FaultKind::Io),
            "error" => Some(FaultKind::Error),
            _ => None,
        }
    }
}

/// One armed fault: fire `kind` at the `hit`-th invocation of `site`
/// (0-based); with `sticky`, keep firing on every later invocation too.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpec {
    /// What to do.
    pub kind: FaultKind,
    /// Which injection point to target.
    pub site: String,
    /// 0-based invocation index at which to fire.
    pub hit: u64,
    /// Fire on every invocation `>= hit` instead of exactly once.
    pub sticky: bool,
}

impl FaultSpec {
    /// A one-shot fault at the `hit`-th invocation of `site`.
    pub fn once(kind: FaultKind, site: &str, hit: u64) -> Self {
        FaultSpec {
            kind,
            site: site.into(),
            hit,
            sticky: false,
        }
    }

    /// A fault that fires at `hit` and every invocation after it.
    pub fn sticky(kind: FaultKind, site: &str, hit: u64) -> Self {
        FaultSpec {
            kind,
            site: site.into(),
            hit,
            sticky: true,
        }
    }

    /// Parses one `kind:site:hit[:sticky]` spec. Returns `None` (after a
    /// stderr warning) on malformed input rather than failing the run.
    fn parse(spec: &str) -> Option<FaultSpec> {
        let parts: Vec<&str> = spec.split(':').collect();
        let ok = match parts.as_slice() {
            [kind, site, hit] => FaultKind::parse(kind)
                .and_then(|k| hit.parse().ok().map(|h| FaultSpec::once(k, site, h))),
            [kind, site, hit, "sticky"] => FaultKind::parse(kind)
                .and_then(|k| hit.parse().ok().map(|h| FaultSpec::sticky(k, site, h))),
            _ => None,
        };
        if ok.is_none() {
            eprintln!(
                "warning: ignoring malformed ADVCOMP_FAULTS spec '{spec}' \
                 (expected kind:site:hit[:sticky] with kind in panic|nan|io|error)"
            );
        }
        ok
    }
}

/// One set of armed faults with its own invocation counters.
#[derive(Debug, Default)]
struct Armed {
    specs: Vec<FaultSpec>,
    /// Invocation counters, one per site name.
    counters: HashMap<String, u64>,
}

impl Armed {
    /// Counts one invocation of `site` and reports the fault to fire, if any.
    fn fire(&mut self, site: &str) -> Option<FaultKind> {
        let n = self.counters.entry(site.to_string()).or_insert(0);
        let count = *n;
        *n += 1;
        self.specs
            .iter()
            .find(|s| s.site == site && (count == s.hit || (s.sticky && count > s.hit)))
            .map(|s| s.kind)
    }
}

#[derive(Debug, Default)]
struct Registry {
    /// Process-wide faults from `ADVCOMP_FAULTS`; they fire on threads
    /// outside any installed scope.
    env: Armed,
    /// Faults installed by live [`FaultGuard`]s, keyed by scope id.
    scopes: HashMap<u64, Armed>,
}

impl Registry {
    fn rearm(&self) {
        let armed = !self.env.specs.is_empty() || !self.scopes.is_empty();
        ARMED.store(armed, Ordering::Relaxed);
    }
}

/// Fast path: set iff any fault is armed (env or installed). Lets every
/// site probe bail with one relaxed load when injection is off.
static ARMED: AtomicBool = AtomicBool::new(false);

thread_local! {
    /// The scope this thread's fault probes consult; 0 is no scope.
    static SCOPE: Cell<u64> = const { Cell::new(0) };
}

fn registry() -> &'static Mutex<Registry> {
    static REGISTRY: OnceLock<Mutex<Registry>> = OnceLock::new();
    REGISTRY.get_or_init(|| {
        let specs = parse_env(std::env::var("ADVCOMP_FAULTS").ok().as_deref());
        let reg = Registry {
            env: Armed {
                specs,
                counters: HashMap::new(),
            },
            scopes: HashMap::new(),
        };
        reg.rearm();
        Mutex::new(reg)
    })
}

fn parse_env(value: Option<&str>) -> Vec<FaultSpec> {
    value
        .unwrap_or("")
        .split([';', ','])
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(FaultSpec::parse)
        .collect()
}

fn lock() -> MutexGuard<'static, Registry> {
    // A panicking fault site poisons the mutex by design; the registry
    // state is still coherent (the counter was bumped before the panic).
    match registry().lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Counts one invocation of `site` and returns the fault to apply, if any.
///
/// This is the generic probe; most call sites want one of the typed
/// helpers ([`maybe_panic`], [`corrupt`], [`io_error`], [`should_error`])
/// which apply the fault as well.
pub fn fire(site: &str) -> Option<FaultKind> {
    // Force one registry init so env-armed faults set ARMED before the
    // fast-path load ever reads it.
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        let _ = registry();
    });
    if !ARMED.load(Ordering::Relaxed) {
        return None;
    }
    let scope = SCOPE.with(Cell::get);
    let mut reg = lock();
    match reg.scopes.get_mut(&scope) {
        Some(armed) => armed.fire(site),
        None => reg.env.fire(site),
    }
}

/// Panics (with a recognisable message) if a `panic` fault fires at `site`.
pub fn maybe_panic(site: &str) {
    if fire(site) == Some(FaultKind::Panic) {
        panic!("injected fault: panic at site '{site}'");
    }
}

/// Poisons `data[0]` with NaN if a `nan` fault fires at `site`. Returns
/// whether the fault fired.
pub fn corrupt(site: &str, data: &mut [f32]) -> bool {
    if fire(site) == Some(FaultKind::Nan) {
        if let Some(v) = data.first_mut() {
            *v = f32::NAN;
        }
        true
    } else {
        false
    }
}

/// Returns an injected I/O error if an `io` fault fires at `site`.
pub fn io_error(site: &str) -> Option<std::io::Error> {
    if fire(site) == Some(FaultKind::Io) {
        Some(std::io::Error::other(format!(
            "injected fault: io error at site '{site}'"
        )))
    } else {
        None
    }
}

/// `true` if an `error` fault fires at `site` (caller builds its own error).
pub fn should_error(site: &str) -> bool {
    fire(site) == Some(FaultKind::Error)
}

/// A thread's fault scope, as a token to hand to the threads it spawns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scope(u64);

/// The calling thread's fault scope. Capture it before spawning a thread
/// that runs fault sites and [`Scope::enter`] it first thing in that
/// thread.
pub fn scope() -> Scope {
    Scope(SCOPE.with(Cell::get))
}

impl Scope {
    /// Makes the calling thread probe this scope's faults.
    pub fn enter(self) {
        SCOPE.with(|s| s.set(self.0));
    }
}

/// Live hold on a set of installed faults. The faults are removed, and
/// the installing thread returns to its previous scope, on drop.
#[must_use = "faults are cleared when the guard drops"]
pub struct FaultGuard {
    id: u64,
    previous: Scope,
}

/// Installs `specs` in a fresh scope for the duration of the returned
/// guard and enters that scope on the calling thread. Within the scope the
/// specs replace any environment-armed faults and count invocations from
/// zero; threads outside it never see them, so fault-driven tests run in
/// parallel with every other test.
pub fn install(specs: Vec<FaultSpec>) -> FaultGuard {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    {
        let mut reg = lock();
        reg.scopes.insert(
            id,
            Armed {
                specs,
                counters: HashMap::new(),
            },
        );
        reg.rearm();
    }
    let previous = scope();
    Scope(id).enter();
    FaultGuard { id, previous }
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let mut reg = lock();
        reg.scopes.remove(&self.id);
        reg.rearm();
        self.previous.enter();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_specs() {
        let specs = parse_env(Some("panic:sweep_point:1; nan:train_step:5,io:w:0:sticky"));
        assert_eq!(
            specs,
            vec![
                FaultSpec::once(FaultKind::Panic, "sweep_point", 1),
                FaultSpec::once(FaultKind::Nan, "train_step", 5),
                FaultSpec::sticky(FaultKind::Io, "w", 0),
            ]
        );
    }

    #[test]
    fn rejects_malformed_specs() {
        assert!(parse_env(Some("explode:x:1")).is_empty());
        assert!(parse_env(Some("panic:x")).is_empty());
        assert!(parse_env(Some("panic:x:notanumber")).is_empty());
        assert!(parse_env(Some("")).is_empty());
        assert!(parse_env(None).is_empty());
    }

    #[test]
    fn one_shot_fires_exactly_once_at_hit() {
        let _g = install(vec![FaultSpec::once(FaultKind::Error, "site_a", 2)]);
        assert_eq!(fire("site_a"), None); // hit 0
        assert_eq!(fire("site_b"), None); // other sites independent
        assert_eq!(fire("site_a"), None); // hit 1
        assert_eq!(fire("site_a"), Some(FaultKind::Error)); // hit 2
        assert_eq!(fire("site_a"), None); // hit 3
    }

    #[test]
    fn sticky_fires_from_hit_onwards() {
        let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "s", 1)]);
        assert!(!should_error("s"));
        assert!(should_error("s"));
        assert!(should_error("s"));
    }

    #[test]
    fn corrupt_poisons_first_element() {
        let _g = install(vec![FaultSpec::once(FaultKind::Nan, "c", 0)]);
        let mut data = [1.0f32, 2.0];
        assert!(corrupt("c", &mut data));
        assert!(data[0].is_nan());
        assert_eq!(data[1], 2.0);
        // Second invocation: no fault, data untouched.
        let mut clean = [3.0f32];
        assert!(!corrupt("c", &mut clean));
        assert_eq!(clean[0], 3.0);
    }

    #[test]
    fn io_and_panic_helpers() {
        let _g = install(vec![
            FaultSpec::once(FaultKind::Io, "w", 0),
            FaultSpec::once(FaultKind::Panic, "p", 0),
        ]);
        assert!(io_error("w").is_some());
        assert!(io_error("w").is_none());
        let caught = std::panic::catch_unwind(|| maybe_panic("p"));
        assert!(caught.is_err());
        maybe_panic("p"); // second invocation: no panic
    }

    #[test]
    fn guard_clears_on_drop() {
        {
            let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "g", 0)]);
            assert!(should_error("g"));
        }
        let _g2 = install(vec![]);
        assert!(!should_error("g"));
    }

    #[test]
    fn installed_faults_reach_only_threads_in_scope() {
        let _g = install(vec![FaultSpec::sticky(FaultKind::Error, "scoped", 0)]);
        let inherited = scope();
        let (inside, outside) = std::thread::scope(|s| {
            let inside = s.spawn(move || {
                inherited.enter();
                should_error("scoped")
            });
            let outside = s.spawn(|| should_error("scoped"));
            (inside.join().unwrap(), outside.join().unwrap())
        });
        assert!(inside, "a thread entering the scope sees its faults");
        assert!(!outside, "a thread outside the scope never does");
        assert!(should_error("scoped"));
    }
}
