//! In-memory spans recorded around the benchmark's calls into each layer,
//! written out as JSON lines when a traced run ends.  When disabled, opening
//! and closing a span records nothing.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// One closed (or still open) span.
#[derive(Debug, Clone)]
struct Span {
    name: String,
    start_ns: u64,
    end_ns: Option<u64>,
    parent: Option<usize>,
    req: Option<u64>,
}

/// A span recorder.
#[derive(Debug)]
pub struct Spans {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Spans {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its id (meaningless when disabled).
    pub fn open(&mut self, name: &str, parent: Option<usize>) -> usize {
        self.open_req(name, parent, None)
    }

    /// Opens a span carrying a request id.
    pub fn open_req(&mut self, name: &str, parent: Option<usize>, req: Option<u64>) -> usize {
        if !self.enabled {
            return 0;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: None,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        if !self.enabled {
            return;
        }
        let end = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = Some(end);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.start_ns,
                opt(s.end_ns),
                opt(s.parent.map(|p| p as u64)),
                opt(s.req),
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut s = Spans::new(false);
        let id = s.open("x", None);
        s.close(id);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn spans_nest_and_close() {
        let mut s = Spans::new(true);
        let root = s.open("root", None);
        let child = s.open_req("child", Some(root), Some(7));
        s.close(child);
        s.close(root);
        assert_eq!(s.len(), 2);
        assert_eq!(s.spans[1].parent, Some(root));
        assert_eq!(s.spans[1].req, Some(7));
        assert!(s.spans.iter().all(|x| x.end_ns >= Some(x.start_ns)));
    }
}
