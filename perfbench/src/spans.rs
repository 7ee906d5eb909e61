//! In-memory span recording for the traced run.
//!
//! A span covers one call from the benchmark into a layer: its name, start
//! and end (ns since the run began) and the span that caused it. Spans stay
//! in memory while the workload runs and are written out once at exit, so
//! recording one costs two clock reads and a `Vec` push.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// Identifier of a recorded span (`0` means "no parent").
pub type SpanId = usize;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
}

/// The span log of one run. When disabled, every call is a no-op.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.spans.len()
    }

    pub fn close(&mut self, id: SpanId) {
        if id == 0 {
            return;
        }
        let end = self.now_ns();
        self.spans[id - 1].end_ns = end;
    }

    /// Records a span whose bounds were taken elsewhere (e.g. a request's
    /// scheduled send and its completion).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
    ) -> SpanId {
        if !self.enabled {
            return 0;
        }
        let ns = |t: Instant| {
            u64::try_from(t.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
        };
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent,
        });
        self.spans.len()
    }

    /// Runs `f` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce(&mut Self, SpanId) -> R,
    ) -> R {
        let id = self.open(name, parent);
        let r = f(self, id);
        self.close(id);
        r
    }

    /// Writes the spans as JSON lines (`id`, `parent`, `name`, `start_ns`,
    /// `end_ns`) to `path`, creating its directory.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if !self.enabled {
            return Ok(());
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut text = String::with_capacity(self.spans.len() * 80);
        for (i, s) in self.spans.iter().enumerate() {
            let _ = writeln!(
                text,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}}}",
                i + 1,
                s.parent,
                s.name,
                s.start_ns,
                s.end_ns
            );
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        f.write_all(text.as_bytes())?;
        f.flush()
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}
