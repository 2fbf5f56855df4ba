//! Spans recorded by the benchmark around its calls into each layer. They
//! stay in memory while the traced run lasts and are written out at its
//! end. A switched-off tracer keeps the same call sequence and stores
//! nothing, which is how the cost of tracing itself is measured.

use std::fmt::Write as _;
use std::fs;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::json::quote;

pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// The operation this span belongs to; spans of one operation share it.
    pub op: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// A span that has begun and not ended.
#[derive(Debug)]
pub struct Open {
    id: Option<SpanId>,
    started: Instant,
}

impl Open {
    /// The span's id, to name it as a parent; `None` when tracing is off.
    pub fn id(&self) -> Option<SpanId> {
        self.id
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u32) -> Open {
        let started = Instant::now();
        if !self.enabled {
            return Open { id: None, started };
        }
        let id = self.spans.len() as SpanId;
        let start_ns = (started - self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            op,
            name,
            start_ns,
            end_ns: start_ns,
        });
        Open {
            id: Some(id),
            started,
        }
    }

    /// Ends the span and returns how long it lasted.
    pub fn end(&mut self, open: Open) -> Duration {
        let elapsed = open.started.elapsed();
        if let Some(id) = open.id {
            let span = &mut self.spans[id as usize];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
        }
        elapsed
    }

    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in seconds, of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / 1e9)
            .collect()
    }

    /// Summed duration of spans called `name`, in seconds.
    pub fn total(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// Summed self time of spans called `name`, in seconds.
    pub fn total_self(&self, name: &str) -> f64 {
        let own = self_times(&self.spans);
        self.spans
            .iter()
            .zip(own)
            .filter(|(s, _)| s.name == name)
            .map(|(_, ns)| ns as f64 / 1e9)
            .sum()
    }

    pub fn write(&self, path: &Path, workload: &str, seed: u64) -> io::Result<()> {
        let own = self_times(&self.spans);
        let mut out = String::with_capacity(self.spans.len() * 96 + 128);
        let _ = write!(
            out,
            "{{\"workload\": {}, \"seed\": {seed}, \"time_unit\": \"ns\", \"spans\": [",
            quote(workload)
        );
        for (i, (s, self_ns)) in self.spans.iter().zip(own).enumerate() {
            if i > 0 {
                out.push(',');
            }
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "\n{{\"id\": {}, \"parent\": {parent}, \"op\": {}, \"name\": {}, \"start\": {}, \"end\": {}, \"self\": {self_ns}}}",
                s.id,
                s.op,
                quote(s.name),
                s.start_ns,
                s.end_ns
            );
        }
        out.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            fs::create_dir_all(dir)?;
        }
        fs::write(path, out)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Overlapping children are counted once, and a
/// child is counted only where it lies inside its parent.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(parent) = s.parent {
            let p = &spans[parent as usize];
            let start = s.start_ns.max(p.start_ns);
            let end = s.end_ns.min(p.end_ns);
            if start < end {
                children[parent as usize].push((start, end));
            }
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_counts_overlapping_children_once() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            // Overlaps its sibling by 10 and is nested in it for nothing more.
            span(2, Some(0), 30, 60),
            // Sticks out of the parent: only [90, 100) counts.
            span(3, Some(0), 90, 130),
            // A grandchild takes nothing from the root.
            span(4, Some(1), 15, 20),
        ];
        let own = self_times(&spans);
        // Children cover [10, 60) and [90, 100): 60 of the root's 100.
        assert_eq!(own[0], 40);
        assert_eq!(own[1], 25);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 40);
        assert_eq!(own[4], 5);
    }

    #[test]
    fn a_child_contained_in_a_sibling_adds_nothing() {
        let spans = [
            span(0, None, 0, 50),
            span(1, Some(0), 10, 40),
            span(2, Some(0), 20, 30),
        ];
        assert_eq!(self_times(&spans)[0], 20);
    }

    #[test]
    fn a_disabled_tracer_times_but_stores_nothing() {
        let mut off = Tracer::new(false);
        let open = off.begin("x", None, 1);
        assert_eq!(open.id(), None);
        let _ = off.end(open);
        assert!(off.spans().is_empty());

        let mut on = Tracer::new(true);
        let outer = on.begin("outer", None, 7);
        let inner = on.begin("inner", outer.id(), 7);
        on.end(inner);
        on.end(outer);
        assert_eq!(on.spans().len(), 2);
        assert_eq!(on.spans()[1].parent, Some(0));
        assert!(on.spans()[0].end_ns >= on.spans()[1].end_ns);
        assert!(on.total("outer") >= on.total("inner"));
        assert!(on.total_self("outer") <= on.total("outer"));
    }
}
