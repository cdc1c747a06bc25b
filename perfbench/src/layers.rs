//! Per-layer instruments for the traced run: spans the benchmark records
//! around its calls into the solver, heap-allocation counts (the counting
//! global allocator of `amgt_bench::alloc`, which counts in every run), and
//! the solver's own kernel wall-clock profiler (`amgt_exec::prof`).
//!
//! Spans and the profiler record nothing in an untraced run.

use std::io::Write;
use std::time::Instant;

/// Turn the solver's kernel profiler on.
pub fn enable() {
    amgt_exec::prof::reset();
    amgt_exec::prof::enable();
}

/// Where a kernel launch's wall time is reported: phase (setup covers
/// setup and resetup) and kernel kind.
#[derive(Clone, Copy, Debug)]
pub enum Slot {
    SetupSpgemm,
    SetupConvert,
    SetupOther,
    SolveSpmvFine,
    SolveSpmvCoarse,
    SolveOther,
}

const SLOTS: usize = 6;

/// Kernel wall nanoseconds per [`Slot`], and the launch count.
#[derive(Clone, Debug, Default)]
pub struct KernelSplit {
    ns: [u64; SLOTS],
    pub launches: u64,
}

impl KernelSplit {
    pub fn ns(&self, slot: Slot) -> u64 {
        self.ns[slot as usize]
    }

    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// `self - other`, slot by slot (saturating).
    pub fn minus(&self, other: &KernelSplit) -> KernelSplit {
        let mut out = self.clone();
        for (a, b) in out.ns.iter_mut().zip(other.ns) {
            *a = a.saturating_sub(b);
        }
        out.launches = self.launches.saturating_sub(other.launches);
        out
    }
}

impl std::ops::AddAssign for KernelSplit {
    fn add_assign(&mut self, other: KernelSplit) {
        for (a, b) in self.ns.iter_mut().zip(other.ns) {
            *a += b;
        }
        self.launches += other.launches;
    }
}

/// Kernel wall time recorded by the solver's profiler since [`enable`], on
/// every thread. All zero when `traced` is false.
pub fn kernels(traced: bool) -> KernelSplit {
    let mut k = KernelSplit::default();
    if !traced {
        return k;
    }
    for row in amgt_exec::prof::snapshot().classes {
        let c = row.class;
        let slot = match (c.phase, c.kind) {
            ("Solve", "SpMV") if c.level == 0 => Slot::SolveSpmvFine,
            ("Solve", "SpMV") => Slot::SolveSpmvCoarse,
            ("Solve", _) => Slot::SolveOther,
            (_, "SpGEMM-symbolic" | "SpGEMM-numeric") => Slot::SetupSpgemm,
            (_, "Convert") => Slot::SetupConvert,
            _ => Slot::SetupOther,
        };
        k.ns[slot as usize] += row.agg.total_ns;
        k.launches += row.agg.count;
    }
    k
}

/// One recorded span: a named interval on one lane, with its parent span
/// and the request it served.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub parent: Option<usize>,
    pub request: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// Span recorder of one thread. Inert (records nothing, reads no clock)
/// when created off.
pub struct Tracer {
    on: bool,
    thread: u32,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// Handle of an open span; pass it back to [`Tracer::end`].
#[must_use]
pub struct Open(Option<usize>);

impl Tracer {
    pub fn new(on: bool, origin: Instant) -> Tracer {
        Tracer {
            on,
            thread: 0,
            origin,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Label the spans that follow with `thread` (the lane they ran on).
    pub fn set_thread(&mut self, thread: u32) {
        self.thread = thread;
    }

    pub fn begin(&mut self, name: &'static str, request: u64) -> Open {
        if !self.on {
            return Open(None);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            thread: self.thread,
            parent: self.open.last().copied(),
            request,
            start_ns: ns_since(self.origin),
            dur_ns: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    pub fn end(&mut self, open: Open) {
        if let Some(id) = open.0 {
            let span = &mut self.spans[id];
            span.dur_ns = ns_since(self.origin) - span.start_ns;
            self.open.retain(|&o| o != id);
        }
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

fn ns_since(origin: Instant) -> u64 {
    u64::try_from(origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Write spans as a Chrome trace-event file (loadable in Perfetto or
/// `chrome://tracing`). Span ids are global indices into `spans`.
pub fn write_chrome_trace(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"traceEvents\":[")?;
    for (i, s) in spans.iter().enumerate() {
        let parent = s
            .parent
            .map_or_else(|| "null".to_string(), |p| p.to_string());
        let sep = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\
             \"args\":{{\"id\":{i},\"parent\":{parent},\"request\":{}}}}}{sep}",
            s.name,
            s.thread,
            s.start_ns as f64 / 1e3,
            s.dur_ns as f64 / 1e3,
            s.request,
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_inside_their_parent() {
        let mut t = Tracer::new(true, Instant::now());
        let outer = t.begin("request", 1);
        let inner = t.begin("solve", 1);
        std::hint::black_box((0..10_000).sum::<u64>());
        t.end(inner);
        t.end(outer);
        let spans = t.into_spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans[0].dur_ns >= spans[1].dur_ns);
    }

    #[test]
    fn off_tracer_records_nothing() {
        let mut t = Tracer::new(false, Instant::now());
        let s = t.begin("x", 0);
        t.end(s);
        assert!(t.into_spans().is_empty());
    }
}
