//! Spans recorded by the benchmark around each call into a product layer.
//! They stay in memory while a workload runs and are written as Chrome
//! trace JSON (`chrome://tracing`, Perfetto) when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the span that caused this one.
    pub parent: Option<usize>,
    /// Spans of one proposal or one request share this identifier.
    pub request: u64,
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn open(&mut self, name: &'static str, request: u64) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            request,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        let end_ns = self.now_ns();
        assert_eq!(self.open.pop(), Some(id), "spans close innermost first");
        self.spans[id].end_ns = end_ns;
    }

    /// Records a finished childless top-level span timed elsewhere (a
    /// client thread's round trip). `start` must not precede the tracer.
    pub fn add(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        let ns = |t: Instant| {
            u64::try_from(t.duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
    }

    /// Renames a span whose kind is only known once the call returned
    /// (`simulate_delta_with` reports afterwards whether it swept).
    pub fn rename(&mut self, id: usize, name: &'static str) {
        self.spans[id].name = name;
    }

    /// Times `f` as a childless span.
    pub fn leaf<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, request);
        let out = f();
        self.close(id);
        out
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations in microseconds of every span called `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
            .collect()
    }

    /// Median duration in microseconds of the spans called `name`; `None`
    /// when the run recorded none (a layer the workload never called).
    pub fn median_us(&self, name: &str) -> Option<f64> {
        let d = self.durations_us(name);
        (!d.is_empty()).then(|| crate::stats::median(&d))
    }

    /// Sum of [`self_times_ns`] per span name, in first-seen order.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let mut out: Vec<(&'static str, u64)> = Vec::new();
        for (span, own) in self.spans.iter().zip(self_times_ns(&self.spans)) {
            match out.iter_mut().find(|(n, _)| *n == span.name) {
                Some((_, total)) => *total += own,
                None => out.push((span.name, own)),
            }
        }
        out
    }

    /// Writes the spans as Chrome trace JSON ("X" complete events).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                write!(out, ",")?;
            }
            write!(
                out,
                "\n{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{},\"parent\":{},\"request\":{}}}}}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                i,
                s.parent.map_or(-1, |p| p as i64),
                s.request
            )?;
        }
        writeln!(out, "\n]}}")?;
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Children are clipped to the parent and
/// overlapping children are counted once.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
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
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "t",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once_per_level() {
        // root [0,100) > a [10,60) > b [20,30); root > c [70,90)
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(20, 30, Some(1)),
            span(70, 90, Some(0)),
        ];
        // The grandchild is charged to its parent only.
        assert_eq!(self_times_ns(&spans), vec![30, 40, 10, 20]);
    }

    #[test]
    fn overlapping_children_are_counted_once() {
        // Two client threads' spans under one phase overlap in [40,60).
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)),
            span(40, 80, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 30);
        // A child contained in its sibling adds nothing.
        let spans = [
            span(0, 100, None),
            span(10, 90, Some(0)),
            span(20, 30, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(50, 100, None),
            span(40, 70, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_links_spans_to_the_innermost_open_one() {
        let mut t = Tracer::new();
        let root = t.open("proposal", 7);
        t.leaf("soap.generate", 7, || ());
        let delta = t.open("sim.repair", 7);
        t.rename(delta, "sim.sweep");
        t.close(delta);
        t.close(root);
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            names,
            vec![
                ("proposal", None),
                ("soap.generate", Some(0)),
                ("sim.sweep", Some(0))
            ]
        );
        assert!(t
            .spans()
            .iter()
            .all(|s| s.request == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.durations_us("sim.sweep").len(), 1);
    }
}
