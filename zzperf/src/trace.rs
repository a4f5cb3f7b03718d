//! Spans for the traced run: recorded in memory around the benchmark's
//! calls into each layer, written out when the run ends, and reduced to
//! per-layer self times.
//!
//! Each caller thread owns one [`Tracer`]; spans nest through the
//! tracer's stack, so a span's parent is whatever span was open on the
//! same thread when it started. Spans of one job share its request id.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the run's epoch.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// The layer call the span covers (`"route"`, `"eval"`, …).
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start: u64,
    /// End, ns since the epoch.
    pub end: u64,
    /// Index of the enclosing span in the same span list.
    pub parent: Option<usize>,
    /// The job the span belongs to.
    pub request: u64,
}

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder whose timestamps count from `epoch` (share one epoch
    /// across the threads of a run).
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`, nested under the span that
    /// is open on this tracer.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Self) -> R,
    ) -> R {
        let index = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end = self.now();
        out
    }

    /// Concatenates the spans of several tracers, rebasing parent
    /// indices into the combined list.
    pub fn merge(tracers: Vec<Tracer>) -> Vec<Span> {
        let mut all = Vec::new();
        for tracer in tracers {
            let base = all.len();
            all.extend(tracer.spans.into_iter().map(|mut s| {
                s.parent = s.parent.map(|p| p + base);
                s
            }));
        }
        all
    }
}

/// Totals of all spans sharing a name.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LayerTime {
    /// Spans recorded.
    pub count: usize,
    /// Summed durations, ns.
    pub total_ns: u64,
    /// Summed self times (duration minus the part covered by child
    /// spans), ns.
    pub self_ns: u64,
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = lo;
    for (start, end) in intervals {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            total += end - start;
            reach = end;
        }
    }
    total
}

/// Reduces spans to per-name totals and self times.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, LayerTime> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
    for (span, kids) in spans.iter().zip(children) {
        let total = span.end.saturating_sub(span.start);
        let entry = out.entry(span.name).or_default();
        entry.count += 1;
        entry.total_ns += total;
        entry.self_ns += total - covered(kids, span.start, span.end).min(total);
    }
    out
}

/// The share of the run's available caller time (`threads × wall`) that
/// no layer span accounts for: time outside every span, plus the self
/// time of the root spans named in `roots` (the per-job envelopes, whose
/// own time is benchmark glue rather than a layer).
pub fn unattributed_frac(
    times: &BTreeMap<&'static str, LayerTime>,
    roots: &[&str],
    threads: usize,
    wall_ns: u64,
) -> f64 {
    let available = threads as f64 * wall_ns as f64;
    if available <= 0.0 {
        return 0.0;
    }
    let attributed: u64 = times
        .iter()
        .filter(|(name, _)| !roots.contains(name))
        .map(|(_, t)| t.self_ns)
        .sum();
    (1.0 - attributed as f64 / available).max(0.0)
}

/// Writes the spans of every trial as NDJSON, one object per line; a
/// span's `parent` indexes the spans of its own trial.
///
/// # Errors
///
/// Returns the I/O error if the file cannot be written.
pub fn write_ndjson<'a>(
    path: &Path,
    trials: impl Iterator<Item = &'a [Span]>,
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (trial, spans) in trials.enumerate() {
        for s in spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"trial\":{trial},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start, s.end, s.request
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        // job [0,100) with route [10,30) and schedule [40,90); schedule
        // has a child [50,60).
        let spans = vec![
            span("job", 0, 100, None),
            span("route", 10, 30, Some(0)),
            span("schedule", 40, 90, Some(0)),
            span("inner", 50, 60, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["job"].self_ns, 30);
        assert_eq!(t["job"].total_ns, 100);
        assert_eq!(t["route"].self_ns, 20);
        assert_eq!(t["schedule"].self_ns, 40);
        assert_eq!(t["inner"].self_ns, 10);
        // Self times partition the root's interval.
        let sum: u64 = t.values().map(|l| l.self_ns).sum();
        assert_eq!(sum, 100);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("job", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 90, 120, Some(0)),
        ];
        let t = self_times(&spans);
        // Covered: [10,70) ∪ [90,100) = 70.
        assert_eq!(t["job"].self_ns, 30);
    }

    #[test]
    fn spans_with_one_name_aggregate() {
        let spans = vec![
            span("job", 0, 10, None),
            span("eval", 2, 5, Some(0)),
            span("job", 10, 30, None),
            span("eval", 12, 20, Some(2)),
        ];
        let t = self_times(&spans);
        assert_eq!(t["eval"].count, 2);
        assert_eq!(t["eval"].self_ns, 11);
        assert_eq!(t["job"].self_ns, 30 - 11);
    }

    #[test]
    fn unattributed_covers_gaps_and_root_self_time() {
        let spans = vec![
            span("job", 0, 60, None),
            span("route", 0, 40, Some(0)),
            span("job", 60, 80, None),
            span("route", 60, 70, Some(2)),
        ];
        let t = self_times(&spans);
        // One thread over 100 ns: 50 ns attributed to route.
        let u = unattributed_frac(&t, &["job"], 1, 100);
        assert!((u - 0.5).abs() < 1e-12);
        // Two threads over the same wall: half of 200 ns is idle too.
        let u2 = unattributed_frac(&t, &["job"], 2, 100);
        assert!((u2 - 0.75).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_merges() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        a.span("job", 1, |t| t.span("route", 1, |_| ()));
        let mut b = Tracer::new(epoch);
        b.span("job", 2, |t| {
            t.span("lower", 2, |_| ());
            t.span("eval", 2, |_| ());
        });
        let spans = Tracer::merge(vec![a, b]);
        assert_eq!(spans.len(), 5);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, None);
        assert_eq!(spans[3].parent, Some(2));
        assert_eq!(spans[4].parent, Some(2));
        assert!(spans.iter().all(|s| s.end >= s.start));
        assert_eq!(spans[3].request, 2);
    }
}
