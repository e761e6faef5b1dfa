//! In-memory span recorder for the traced run. Spans are kept in memory
//! and written out once, when the run ends, so recording costs a clock
//! read and a push.

use crate::calc::{self_times, Span};
use std::io::Write;
use std::path::Path;
use std::sync::Mutex;
use std::time::Instant;

/// Records spans from any thread against one epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        self.spans
            .lock()
            .expect("span recorder poisoned by a panicking worker")
    }

    /// Runs `f` inside a span; `f` receives the span's index so that the
    /// calls it makes can record it as their parent.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce(usize) -> R,
    ) -> R {
        let idx = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                id,
            });
            spans.len() - 1
        };
        let out = f(idx);
        let end = self.now_ns();
        self.lock()[idx].end_ns = end;
        out
    }

    /// The recorded spans.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().clone()
    }

    /// Total self time per span name, in nanoseconds, sorted by name.
    pub fn self_time_by_name(&self) -> Vec<(&'static str, u64)> {
        let spans = self.spans();
        let mut by: std::collections::BTreeMap<&'static str, u64> = Default::default();
        for (s, t) in spans.iter().zip(self_times(&spans)) {
            *by.entry(s.name).or_default() += t;
        }
        by.into_iter().collect()
    }

    /// Writes every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (i, (s, self_ns)) in spans.iter().zip(self_times(&spans)).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"idx\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"id\":{},\"self_ns\":{self_ns}}}",
                s.name, s.start_ns, s.end_ns, s.id
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span when tracing, or plainly when not.
pub fn maybe_span<R>(
    tracer: Option<&Tracer>,
    name: &'static str,
    parent: Option<usize>,
    id: u64,
    f: impl FnOnce(Option<usize>) -> R,
) -> R {
    match tracer {
        Some(t) => t.span(name, parent, id, |idx| f(Some(idx))),
        None => f(None),
    }
}
