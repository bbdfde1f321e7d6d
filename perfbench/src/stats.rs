//! Raw-sample statistics and the in-memory span trace.
//!
//! Every percentile the benchmark reports is computed here from its own
//! per-request or per-round samples, never from the serving layer's log2
//! latency buckets (those snap to 1.05, 2.10, 4.19 ms and cannot resolve a
//! change smaller than 2x).

use std::time::Instant;

/// Samples that must lie strictly above a reported percentile.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `(0, 100)`) of `samples`.
///
/// Returns `None` unless at least [`MIN_SAMPLES_BEYOND`] samples lie beyond
/// the chosen rank, so a tail figure is never read off a handful of points.
pub fn percentile(samples: &[f64], p: f64) -> Option<f64> {
    assert!(p > 0.0 && p < 100.0, "percentile must lie in (0, 100)");
    let n = samples.len();
    // Nearest rank: the smallest k with k/n >= p/100 (1-based).
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    if rank == 0 || n - rank < MIN_SAMPLES_BEYOND {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    Some(sorted[rank - 1])
}

/// The middle value of a small sample (mean of the two middle values when
/// the count is even); `NaN` when empty. Used for repeated set-up timings,
/// where there are too few samples for a percentile with a tail beyond it.
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return f64::NAN;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// Arithmetic mean; 0 when empty.
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// Completions per second in each whole `window_s`-long window of a
/// `span_s`-long run, given each completion's time since the run started.
/// The median of these rates is a throughput that a transient stall of the
/// shared machine moves far less than the whole-run average.
pub fn window_rates(done_s: &[f64], window_s: f64, span_s: f64) -> Vec<f64> {
    let windows = (span_s / window_s).floor() as usize;
    let mut counts = vec![0usize; windows];
    for &t in done_s {
        let w = (t / window_s).floor();
        if w >= 0.0 && (w as usize) < windows {
            counts[w as usize] += 1;
        }
    }
    counts.into_iter().map(|c| c as f64 / window_s).collect()
}

/// One recorded span. Times are nanoseconds since the trace's origin.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// Layer boundary name, e.g. `tune.predict`.
    pub name: &'static str,
    /// Start, ns since the origin.
    pub start_ns: u64,
    /// End, ns since the origin.
    pub end_ns: u64,
    /// Index of the enclosing span in the same trace, if any.
    pub parent: Option<usize>,
    /// Request or round id the span belongs to.
    pub id: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span recorder that keeps everything in memory. A disabled
/// trace records nothing, so the untraced runs pay only a branch.
pub struct Trace {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Trace {
    /// A recorder measuring from `origin` (share one origin across threads
    /// so their spans can be merged).
    pub fn new(origin: Instant, enabled: bool) -> Self {
        Trace {
            origin,
            enabled,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, id: u64) {
        if !self.enabled {
            return;
        }
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: None,
            id,
        });
        let n = self.open.len();
        if n >= 2 {
            let idx = self.open[n - 1];
            self.spans[idx].parent = Some(self.open[n - 2]);
        }
    }

    /// Closes the innermost open span.
    pub fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let now = self.now_ns();
        let idx = self.open.pop().expect("end() without a matching begin()");
        self.spans[idx].end_ns = now;
    }

    /// Drops the innermost open span and every span recorded after it (for
    /// a span opened in anticipation of work that never came).
    pub fn abandon(&mut self) {
        if let Some(idx) = self.open.pop() {
            self.spans.truncate(idx);
        }
    }

    /// Runs `f` inside a span.
    pub fn span<R>(&mut self, name: &'static str, id: u64, f: impl FnOnce() -> R) -> R {
        self.begin(name, id);
        let out = f();
        self.end();
        out
    }

    /// Records an already-measured interval as a child of the innermost
    /// open span (for intervals whose endpoints another component observed).
    pub fn record(&mut self, name: &'static str, id: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            id,
        });
    }

    /// The recorded spans (open spans keep `end_ns == start_ns`).
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Moves another trace's spans in, re-basing their parent indices.
    pub fn absorb(&mut self, other: Trace) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and a
/// child reaching outside its parent counts only inside it).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cur: Option<(u64, u64)> = None;
            for &(lo, hi) in kids.iter() {
                cur = match cur {
                    Some((clo, chi)) if lo <= chi => Some((clo, chi.max(hi))),
                    Some((clo, chi)) => {
                        covered += chi - clo;
                        Some((lo, hi))
                    }
                    None => Some((lo, hi)),
                };
            }
            if let Some((clo, chi)) = cur {
                covered += chi - clo;
            }
            s.duration_ns().saturating_sub(covered)
        })
        .collect()
}

/// Sum of durations and of self times (ns) over spans named `name`.
pub fn total_by_name(spans: &[Span], self_ns: &[u64], name: &str) -> (u64, u64, usize) {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0, 0), |(d, st, n), (s, &own)| {
            (d + s.duration_ns(), st + own, n + 1)
        })
}

/// Writes spans as one JSON object per line.
pub fn write_spans(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    use std::io::Write;
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"id\":{}}}",
            s.name, s.start_ns, s.end_ns, parent, s.id
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            id: 0,
        }
    }

    #[test]
    fn percentile_is_nearest_rank() {
        // 1..=20: the median rank is 10 (value 10) with exactly ten beyond.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), Some(10.0));
        // Order of the input does not matter.
        let rev: Vec<f64> = xs.iter().rev().copied().collect();
        assert_eq!(percentile(&rev, 50.0), Some(10.0));
        // 1..=100: p90 is rank 90, p99 would leave only one sample beyond.
        let ys: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&ys, 90.0), Some(90.0));
        assert_eq!(percentile(&ys, 99.0), None);
        // 1..=1000: p99 is rank 990 with ten beyond.
        let zs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&zs, 99.0), Some(990.0));
    }

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=19).map(f64::from).collect();
        // Rank 10 of 19 leaves nine beyond.
        assert_eq!(percentile(&xs, 50.0), None);
        assert_eq!(percentile(&[], 50.0), None);
        let ys: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&ys, 90.0), None);
    }

    #[test]
    fn window_rates_count_whole_windows_only() {
        // 2.5 s run in 1 s windows: the partial last window is dropped.
        let done = [0.1, 0.2, 0.9, 1.5, 2.2, 2.4];
        assert_eq!(window_rates(&done, 1.0, 2.5), vec![3.0, 1.0]);
        assert_eq!(window_rates(&done, 0.5, 2.5), vec![4.0, 2.0, 0.0, 2.0, 4.0]);
        assert!(window_rates(&done, 1.0, 0.5).is_empty());
    }

    #[test]
    fn median_and_mean_of_small_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert!(median(&[]).is_nan());
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", 0, 100, None),
            // Two overlapping children cover [10, 40): 30 ns, counted once.
            span("predict", 10, 30, Some(0)),
            span("predict", 20, 40, Some(0)),
            // A disjoint child covers [60, 70).
            span("update", 60, 70, Some(0)),
            // A grandchild is subtracted from its own parent only.
            span("inner", 62, 65, Some(3)),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own, vec![60, 20, 20, 7, 3]);
        assert_eq!(total_by_name(&spans, &own, "predict"), (40, 40, 2));
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = vec![span("a", 10, 20, None), span("b", 5, 15, Some(0))];
        assert_eq!(self_times_ns(&spans), vec![5, 10]);
    }

    #[test]
    fn trace_nests_and_merges() {
        let origin = Instant::now();
        let mut t = Trace::new(origin, true);
        t.span("outer", 1, || {});
        t.begin("round", 2);
        t.span("child", 2, || {});
        t.end();
        assert_eq!(t.spans()[2].parent, Some(1));
        let mut other = Trace::new(origin, true);
        other.begin("x", 3);
        other.span("y", 3, || {});
        other.end();
        t.absorb(other);
        assert_eq!(t.spans().len(), 5);
        assert_eq!(t.spans()[4].parent, Some(3));
        let mut off = Trace::new(origin, false);
        off.span("z", 0, || {});
        assert!(off.spans().is_empty());
    }
}
