//! In-memory span recorder for the traced run.
//!
//! The benchmark wraps its own calls into each layer's public functions
//! in spans (name, start, end, parent span, request id) and keeps them
//! in memory; they are written out once the run ends. A disabled
//! tracer records nothing, so the untraced run pays one branch per
//! boundary.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    pub parent: SpanId,
    pub request: u64,
}

/// Per span name: total duration, self time (duration minus the part
/// its child spans cover), and span count.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerTime {
    pub total_us: f64,
    pub self_us: f64,
    pub spans: usize,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn us(&self, t: Instant) -> f64 {
        t.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: u64,
    ) -> SpanId {
        if !self.enabled {
            return None;
        }
        let span = Span {
            name,
            start_us: self.us(start),
            end_us: self.us(end),
            parent,
            request,
        };
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    /// Opens a span now; [`Tracer::close`] sets its end.
    pub fn open(&self, name: &'static str, parent: SpanId, request: u64) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&self, id: SpanId) {
        if let Some(id) = id {
            let end = self.us(Instant::now());
            self.spans.lock().expect("span log poisoned")[id].end_us = end;
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent, request);
        let out = f(id);
        self.close(id);
        out
    }

    pub fn span_count(&self) -> usize {
        self.spans.lock().expect("span log poisoned").len()
    }

    /// Total and self time per span name.
    pub fn layers(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
        for (i, span) in spans.iter().enumerate() {
            if let Some(p) = span.parent {
                children[p].push(i);
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            let mut intervals: Vec<(f64, f64)> = children[i]
                .iter()
                .map(|&c| {
                    (
                        spans[c].start_us.max(span.start_us),
                        spans[c].end_us.min(span.end_us),
                    )
                })
                .filter(|(s, e)| e > s)
                .collect();
            intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut reach = f64::NEG_INFINITY;
            for (s, e) in intervals {
                let s = s.max(reach);
                if e > s {
                    covered += e - s;
                }
                reach = reach.max(e);
            }
            let total = span.end_us - span.start_us;
            let entry = out.entry(span.name).or_default();
            entry.total_us += total;
            entry.self_us += (total - covered).max(0.0);
            entry.spans += 1;
        }
        out
    }

    /// Writes every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span log poisoned");
        let mut out = String::with_capacity(spans.len() * 96);
        for (i, s) in spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_us\":{:.1},\"end_us\":{:.1},\
                 \"parent\":{parent},\"request\":{}}}",
                s.name, s.start_us, s.end_us, s.request
            );
        }
        std::fs::write(path, out)
    }
}
