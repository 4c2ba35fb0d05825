//! In-memory spans recorded from the benchmark's side of each layer
//! boundary, written to `out/trace.json` when the run ends.
//!
//! One thread records, with stack discipline, so the children of a span
//! never overlap and a span's self time is its duration minus the sum of
//! its children's.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded interval. `parent` is the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub repeat: u32,
    /// The procedure the span belongs to, where there is one; spans of one
    /// procedure share it.
    pub procedure: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans against one epoch.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    repeat: u32,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            repeat: 0,
        }
    }

    /// Spans opened from now on belong to repeat `repeat`.
    pub fn set_repeat(&mut self, repeat: u32) {
        self.repeat = repeat;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn open(&mut self, name: &'static str, procedure: Option<u64>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            name,
            start_ns: now,
            end_ns: now,
            repeat: self.repeat,
            procedure,
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: u32) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize].end_ns = self.now_ns();
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span: duration minus the time its children cover.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let covered = s
                .end_ns
                .min(parent.end_ns)
                .saturating_sub(s.start_ns.max(parent.start_ns));
            own[p as usize] = own[p as usize].saturating_sub(covered);
        }
    }
    own
}

/// Self time summed by span name, over the spans of one repeat.
pub fn self_time_by_name(spans: &[Span], repeat: u32) -> BTreeMap<&'static str, u64> {
    let own = self_times_ns(spans);
    let mut by_name = BTreeMap::new();
    for (s, t) in spans.iter().zip(own) {
        if s.repeat == repeat {
            *by_name.entry(s.name).or_insert(0) += t;
        }
    }
    by_name
}

/// Renders the spans as the `trace.json` document.
pub fn to_json(workload: &str, spans: &[Span]) -> String {
    let mut out = String::with_capacity(64 + spans.len() * 96);
    out.push_str("{\"workload\":\"");
    out.push_str(workload);
    out.push_str("\",\"unit\":\"ns since the run's epoch\",\"spans\":[");
    for (i, s) in spans.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        out.push_str(&format!(
            "\n{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"repeat\":{},\"procedure\":{}}}",
            s.id,
            opt(s.parent.map(u64::from)),
            s.name,
            s.start_ns,
            s.end_ns,
            s.repeat,
            opt(s.procedure),
        ));
    }
    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns: start,
            end_ns: end,
            repeat: 0,
            procedure: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(0, None, "repeat", 0, 100),
            span(1, Some(0), "build", 10, 30),
            span(2, Some(0), "run", 30, 90),
            span(3, Some(2), "audit", 40, 50),
        ];
        assert_eq!(self_times_ns(&spans), vec![20, 20, 50, 10]);
        let by_name = self_time_by_name(&spans, 0);
        assert_eq!(
            by_name["repeat"] + by_name["build"] + by_name["run"] + by_name["audit"],
            100
        );
        assert!(self_time_by_name(&spans, 1).is_empty());
    }

    #[test]
    fn tracer_nests_and_serialises() {
        let mut t = Tracer::new();
        let outer = t.open("outer", Some(7));
        let inner = t.open("inner", None);
        t.close(inner);
        t.close(outer);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[0].procedure, Some(7));
        let json = to_json("w", t.spans());
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let spans = crate::report::field(&v, "spans").and_then(serde::Value::as_seq);
        assert_eq!(spans.map(<[_]>::len), Some(2));
    }
}
