//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, start, end, parent and the round (or epoch)
//! it belongs to. Spans stay in memory while the traced pass runs and are
//! written out once it ends, so the pass pays one `Instant::now` and one
//! `Vec` push per boundary and no I/O.
//!
//! A span's *self time* is its duration minus the part of its interval
//! that its children cover.
//!
//! A tracer made with [`Tracer::off`] records nothing, so an untraced pass
//! runs the same code as a traced one.

use std::io::Write;
use std::time::Instant;

/// One timed call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `core.fit`.
    pub name: &'static str,
    /// Nanoseconds since the tracer started.
    pub start_ns: u64,
    /// Nanoseconds since the tracer started; `u64::MAX` while open.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Round (or epoch) the span belongs to.
    pub round: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one single-threaded traced pass.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    round: u64,
    on: bool,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty tracer whose clock starts now.
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
            round: 0,
            on: true,
        }
    }

    /// A tracer that records nothing: `span` only runs its closure.
    pub fn off() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            round: 0,
            on: false,
        }
    }

    /// Whether spans are recorded.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Tags every span opened from now on with `round`.
    pub fn set_round(&mut self, round: u64) {
        self.round = round;
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str) -> usize {
        if !self.on {
            return usize::MAX;
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: u64::MAX,
            parent: self.open.last().copied(),
            round: self.round,
        });
        self.open.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn close(&mut self, id: usize) {
        if !self.on {
            return;
        }
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.open(name);
        let out = f(self);
        self.close(id);
        out
    }

    /// Durations in microseconds of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns != u64::MAX)
            .map(|s| s.duration_ns() as f64 / 1e3)
            .collect()
    }

    /// Self times in microseconds of every closed span named `name`.
    pub fn self_times_us(&self, name: &str) -> Vec<f64> {
        let children = self.children();
        self.spans
            .iter()
            .enumerate()
            .filter(|(_, s)| s.name == name && s.end_ns != u64::MAX)
            .map(|(i, _)| self_time_ns(&self.spans, i, &children[i]) as f64 / 1e3)
            .collect()
    }

    /// Share of the summed duration of spans named `root` that their
    /// descendants accepted by `is_layer` cover.
    pub fn coverage(&self, root: &str, is_layer: impl Fn(&str) -> bool) -> f64 {
        let children = self.children();
        let (mut covered, mut total) = (0u64, 0u64);
        for (i, s) in self.spans.iter().enumerate() {
            if s.name != root || s.end_ns == u64::MAX {
                continue;
            }
            let mut intervals = Vec::new();
            let mut stack = children[i].clone();
            while let Some(c) = stack.pop() {
                if is_layer(self.spans[c].name) {
                    intervals.push((self.spans[c].start_ns, self.spans[c].end_ns));
                } else {
                    stack.extend_from_slice(&children[c]);
                }
            }
            covered += covered_ns(s.start_ns, s.end_ns, &mut intervals);
            total += s.duration_ns();
        }
        if total == 0 {
            0.0
        } else {
            covered as f64 / total as f64
        }
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// Writes every span as one tab-separated line:
    /// `name start_ns end_ns parent round` (parent `-` for a root).
    pub fn write_tsv(&self, out: &mut impl Write) -> std::io::Result<()> {
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tround")?;
        for s in &self.spans {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{}\t{}\t{}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, parent, s.round
            )?;
        }
        Ok(())
    }
}

/// Nanoseconds of `[start, end)` covered by the union of `intervals`
/// (each clipped to the window first).
pub fn covered_ns(start: u64, end: u64, intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = start;
    for &(s, e) in intervals.iter() {
        let (s, e) = (s.max(reach), e.min(end));
        if e > s {
            covered += e - s;
            reach = e;
        }
    }
    covered
}

/// Self time of span `i`: its duration minus what its children cover.
pub fn self_time_ns(spans: &[Span], i: usize, children: &[usize]) -> u64 {
    let s = &spans[i];
    let mut intervals: Vec<(u64, u64)> = children
        .iter()
        .map(|&c| (spans[c].start_ns, spans[c].end_ns))
        .collect();
    s.duration_ns() - covered_ns(s.start_ns, s.end_ns, &mut intervals)
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
            round: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("core.fit", 10, 40, Some(0)),
            span("serve.report", 50, 60, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0, &[1, 2]), 60);
        assert_eq!(self_time_ns(&spans, 1, &[]), 30);
    }

    #[test]
    fn overlapping_children_count_once() {
        let spans = vec![
            span("parent", 0, 100, None),
            span("a", 10, 50, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 40, 45, Some(0)),
        ];
        // The union [10, 70) covers 60 ns.
        assert_eq!(self_time_ns(&spans, 0, &[1, 2, 3]), 40);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = vec![
            span("parent", 20, 80, None),
            span("a", 0, 30, Some(0)),
            span("b", 70, 200, Some(0)),
        ];
        assert_eq!(self_time_ns(&spans, 0, &[1, 2]), 40);
    }

    #[test]
    fn tracer_nests_and_covers() {
        let mut t = Tracer::new();
        t.span("round", |t| {
            t.span("step", |t| {
                t.span("core.fit", |_| {
                    std::thread::sleep(std::time::Duration::from_millis(2))
                });
            });
        });
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(1));
        // `step` is structural: coverage looks through it to `core.fit`.
        let c = t.coverage("round", |n| n.contains('.'));
        assert!(c > 0.5 && c <= 1.0, "coverage {c}");
        let fit = t.durations_us("core.fit")[0];
        assert!(fit >= 2000.0);
        assert!(t.self_times_us("step")[0] < fit);
        let mut out = Vec::new();
        t.write_tsv(&mut out).unwrap();
        assert_eq!(String::from_utf8(out).unwrap().lines().count(), 4);
    }

    #[test]
    fn an_off_tracer_runs_closures_and_records_nothing() {
        let mut t = Tracer::off();
        let root = t.open("round");
        let v = t.span("core.fit", |_| 7);
        t.close(root);
        assert_eq!(v, 7);
        assert!(!t.is_on());
        assert!(t.spans.is_empty());
    }

    #[test]
    #[should_panic(expected = "innermost first")]
    fn closing_out_of_order_panics() {
        let mut t = Tracer::new();
        let a = t.open("a");
        let _b = t.open("b");
        t.close(a);
    }
}
