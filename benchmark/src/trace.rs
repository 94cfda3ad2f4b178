//! Spans recorded by the benchmark around its calls into each layer.
//! Every thread appends to its own buffer; buffers are merged and written
//! out once, at exit. A span names the layer call, its start and end on
//! one process-wide clock, the span that caused it and the request it
//! belongs to.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Clone, Copy, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    /// 0 = no parent.
    pub parent: u64,
    /// 0 = not tied to one request (a probe outside the client loop).
    pub request: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn micros(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

/// One thread's span buffer. `lane` keeps ids unique across threads.
pub struct Recorder {
    epoch: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(epoch: Instant, lane: u64) -> Self {
        Self {
            epoch,
            next: (lane << 40) + 1,
            spans: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Reserves an id for a span whose children are recorded before it
    /// ends (a cycle, a replay).
    pub fn open(&mut self) -> u64 {
        let id = self.next;
        self.next += 1;
        id
    }

    pub fn close(&mut self, id: u64, name: &'static str, parent: u64, request: u64, start_ns: u64) {
        let end_ns = self.now_ns();
        self.spans.push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            end_ns,
        });
    }

    /// Times `f` as one leaf span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open();
        let start_ns = self.now_ns();
        let out = std::hint::black_box(f());
        self.close(id, name, parent, request, start_ns);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations in microseconds of every span called `name`.
pub fn durations_us(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::micros)
        .collect()
}

/// Writes `{"workload", "seed", "metrics": {name: {value, unit}}, "spans":
/// [{name, id, parent, request, start_ns, end_ns}]}`.
pub fn write_trace(
    path: &Path,
    workload: &str,
    seed: u64,
    metrics: &[crate::report::Metric],
    spans: &[Span],
) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    write!(
        out,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"metrics\":{{"
    )?;
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            crate::report::number(*value)
        )?;
    }
    write!(out, "}},\"spans\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        write!(
            out,
            "{sep}\n{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\
             \"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.id, s.parent, s.request, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "\n]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_ids_stay_unique_across_lanes() {
        let epoch = Instant::now();
        let mut a = Recorder::new(epoch, 0);
        let mut b = Recorder::new(epoch, 1);
        let cycle = a.open();
        let start = a.now_ns();
        a.span("client.request", cycle, 7, || ());
        a.close(cycle, "client.cycle", 0, 0, start);
        b.span("client.request", 0, 8, || ());
        let (a, b) = (a.into_spans(), b.into_spans());
        assert_eq!(a.len(), 2);
        assert_eq!(a[0].parent, a[1].id);
        assert!(a[1].start_ns <= a[0].start_ns && a[0].end_ns <= a[1].end_ns);
        assert!(a.iter().all(|s| b.iter().all(|t| t.id != s.id)));
        assert_eq!(durations_us(&a, "client.request").len(), 1);
    }
}
