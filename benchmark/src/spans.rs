//! In-memory span recorder for the traced run.
//!
//! Spans are recorded on the driver thread around calls into the workspace,
//! kept in memory, and written as JSON lines when the run ends. A span's
//! parent is the span that was open when it started; spans of one study
//! share its slot number.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

pub struct Span {
    pub name: &'static str,
    pub layer: &'static str,
    pub start_s: f64,
    pub end_s: f64,
    pub parent: Option<usize>,
    pub study: usize,
}

pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    study: usize,
}

impl Recorder {
    /// A recorder whose clock starts now.
    pub fn start() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            study: 0,
        }
    }

    pub fn set_study(&mut self, slot: usize) {
        self.study = slot;
    }

    pub fn enter(&mut self, layer: &'static str, name: &'static str) -> usize {
        let id = self.spans.len();
        let now = self.epoch.elapsed().as_secs_f64();
        self.spans.push(Span {
            name,
            layer,
            start_s: now,
            end_s: now,
            parent: self.open.last().copied(),
            study: self.study,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`, and returns its
    /// duration in seconds.
    pub fn exit(&mut self, id: usize) -> f64 {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        let span = &mut self.spans[id];
        span.end_s = self.epoch.elapsed().as_secs_f64();
        span.end_s - span.start_s
    }

    /// Records layer calls that were timed inside the adapter, as children of
    /// the innermost open span: `calls` ran back to back and the last one
    /// ended now. A call that took no time did not run (a memoised FE
    /// output) and leaves no span.
    pub fn add_sequence(&mut self, calls: &[(&'static str, &'static str, f64)]) {
        let now = self.epoch.elapsed().as_secs_f64();
        let mut start_s = now - calls.iter().map(|c| c.2).sum::<f64>();
        for &(layer, name, seconds) in calls.iter().filter(|c| c.2 > 0.0) {
            self.spans.push(Span {
                name,
                layer,
                start_s,
                end_s: start_s + seconds,
                parent: self.open.last().copied(),
                study: self.study,
            });
            start_s += seconds;
        }
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"layer\":\"{}\",\"start_s\":{:.9},\"end_s\":{:.9},\"parent\":{parent},\"study\":{}}}",
                s.name, s.layer, s.start_s, s.end_s, s.study
            )?;
        }
        out.flush()
    }
}
