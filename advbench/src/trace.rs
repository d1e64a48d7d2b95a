//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around its calls into the crates'
//! public functions: name, start, end, parent span and request id. They
//! stay in memory and are written out once, when the run ends. A span's
//! *self time* is its duration minus the part of its interval covered by
//! its children; children that ran concurrently on other threads are
//! merged first, so overlapping children are not subtracted twice.

use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. Times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Unique id within the run.
    pub id: u32,
    /// The span that caused this one, if any.
    pub parent: Option<u32>,
    /// Layer-qualified name, e.g. `attacks.ifgsm`.
    pub name: String,
    /// Request (or sweep point) the span belongs to; 0 for run-level work.
    pub request: u64,
    /// Start, ns since the tracer origin.
    pub start_ns: u64,
    /// End, ns since the tracer origin.
    pub end_ns: u64,
}

impl Span {
    /// `end - start` in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans when enabled; when disabled every call is a plain
/// function call and nothing is recorded.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU32,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records (`enabled`) or does nothing.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`. `f` receives the new span's id
    /// so nested calls can name it as their parent.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u32>,
        request: u64,
        f: impl FnOnce(Option<u32>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.now_ns();
        let out = f(Some(id));
        let end_ns = self.now_ns();
        self.record(Span {
            id,
            parent,
            name: name.to_string(),
            request,
            start_ns,
            end_ns,
        });
        out
    }

    fn record(&self, span: Span) {
        self.spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .push(span);
    }

    /// Every recorded span, ordered by start time.
    pub fn spans(&self) -> Vec<Span> {
        let mut v = self
            .spans
            .lock()
            .expect("span buffer poisoned by a panicking recorder")
            .clone();
        v.sort_by_key(|s| (s.start_ns, s.id));
        v
    }

    /// Writes the spans as JSON lines, one span per line, with self time.
    ///
    /// # Errors
    ///
    /// Propagates file-system errors.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selfs = self_times(&spans);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (s, self_ns) in spans.iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"request\":{},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.id, parent, s.name, s.request, s.start_ns, s.end_ns, self_ns
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(cursor), e.min(hi));
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span in `spans` (same order): its duration minus
/// the union of its direct children's intervals within it.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: std::collections::HashMap<u32, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children
                .get_mut(&s.id)
                .map_or(0, |k| covered(k, s.start_ns, s.end_ns));
            s.duration_ns() - kids.min(s.duration_ns())
        })
        .collect()
}

/// Summed self time in seconds of every span whose name equals `name`.
pub fn self_seconds(spans: &[Span], selfs: &[u64], name: &str) -> f64 {
    spans
        .iter()
        .zip(selfs)
        .filter(|(s, _)| s.name == name)
        .map(|(_, &ns)| ns as f64 * 1e-9)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // root [0,100) with children [10,30) and [50,60): self = 100-20-10.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
        ];
        assert_eq!(self_times(&spans), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_are_merged() {
        // Two children ran concurrently on other threads: [10,60) and
        // [40,90) cover [10,90) = 80, not 100.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 60),
            span(3, Some(1), 40, 90),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn only_direct_children_count_and_overhang_is_clipped() {
        // Grandchild [20,25) is inside child 2 and must not be subtracted
        // from the root again; child 3 overhangs the root's end.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 40),
            span(4, Some(2), 20, 25),
            span(3, Some(1), 90, 130),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[0], 100 - 30 - 10);
        assert_eq!(selfs[1], 30 - 5);
        assert_eq!(selfs[2], 5);
        assert_eq!(selfs[3], 40);
        assert_eq!(
            selfs.iter().sum::<u64>(),
            130,
            "self times tile the busy time"
        );
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::new(false);
        let v = t.span("x", None, 0, |id| {
            assert!(id.is_none());
            7
        });
        assert_eq!(v, 7);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn nested_spans_link_parents() {
        let t = Tracer::new(true);
        t.span("outer", None, 3, |outer| {
            t.span("inner", outer, 3, |_| ());
        });
        let spans = t.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "outer");
        assert_eq!(spans[1].parent, Some(spans[0].id));
        assert!(spans.iter().all(|s| s.request == 3));
    }
}
