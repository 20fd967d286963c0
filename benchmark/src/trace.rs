//! Span recorder for the per-layer pass.
//!
//! The benchmark measures layers from outside: it wraps each call into a
//! crate's public API in a span (name, start, end, parent), and records the
//! exact counts the API returns at the same boundaries. Spans stay in memory
//! and are written to `benchmark/out/trace_<workload>.json` when the run
//! ends. A layer's *self time* is its span minus the part its child spans
//! cover. The end-to-end metrics are always measured with this recorder
//! idle; the traced pass runs afterwards.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `None` for a root.
    pub parent: Option<usize>,
}

impl Span {
    pub fn duration_ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

#[derive(Debug)]
pub struct Recorder {
    /// The identifier every span of this run shares.
    pub workload: String,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    counters: BTreeMap<String, u64>,
    mismatches: Vec<String>,
}

impl Recorder {
    pub fn new(workload: &str) -> Recorder {
        Recorder {
            workload: workload.to_string(),
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            counters: BTreeMap::new(),
            mismatches: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans opened by `f` through the
    /// recorder it is handed become children.
    pub fn span<R>(&mut self, name: &str, f: impl FnOnce(&mut Recorder) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// `reps` sibling spans of one leaf call. Returns the shortest duration
    /// in milliseconds (the host's slow phases only ever add time, so the
    /// fastest repetition is the one least disturbed) and the last result.
    pub fn reps<R>(&mut self, name: &str, reps: usize, mut f: impl FnMut() -> R) -> (f64, R) {
        let mut fastest_ms = f64::INFINITY;
        let mut last = None;
        for _ in 0..reps.max(1) {
            let id = self.spans.len();
            last = Some(self.span(name, |_| std::hint::black_box(f())));
            fastest_ms = fastest_ms.min(self.spans[id].duration_ms());
        }
        (fastest_ms, last.expect("at least one repetition"))
    }

    /// Record an exact count. Counts are deterministic properties of the
    /// inputs, so a second recording under the same name must agree; a
    /// disagreement is kept (see [`Recorder::mismatches`]) and returned as
    /// `false`, and the harness fails the op that produced it.
    pub fn count(&mut self, name: &str, value: u64) -> bool {
        match self.counters.get(name) {
            None => {
                self.counters.insert(name.to_string(), value);
                true
            }
            Some(&seen) if seen == value => true,
            Some(&seen) => {
                self.mismatches.push(format!("{name}: {seen} then {value}"));
                false
            }
        }
    }

    pub fn mismatches(&self) -> &[String] {
        &self.mismatches
    }

    /// A span's duration minus what its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.spans[id];
        let children: u64 = self
            .spans
            .iter()
            .filter(|c| c.parent == Some(id))
            .map(|c| c.end_ns - c.start_ns)
            .sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    /// The run as JSON: spans with self time, counters, and whatever the
    /// harness adds (`extra` is a list of already-rendered `"key": value`
    /// members).
    pub fn to_json(&self, extra: &[String]) -> String {
        let mut s = String::from("{\n");
        let _ = writeln!(s, "  \"workload\": {},", json_str(&self.workload));
        for member in extra {
            let _ = writeln!(s, "  {member},");
        }
        s.push_str("  \"counters\": {");
        for (i, (k, v)) in self.counters.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(s, "{sep}\n    {}: {v}", json_str(k));
        }
        s.push_str("\n  },\n  \"spans\": [");
        for (id, sp) in self.spans.iter().enumerate() {
            let sep = if id == 0 { "" } else { "," };
            let parent = sp.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                s,
                "{sep}\n    {{\"id\": {id}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"self_ns\": {}}}",
                json_str(&sp.name),
                sp.start_ns,
                sp.end_ns,
                self.self_ns(id),
            );
        }
        s.push_str("\n  ]\n}\n");
        s
    }
}

pub fn json_str(text: &str) -> String {
    let mut s = String::with_capacity(text.len() + 2);
    s.push('"');
    for c in text.chars() {
        match c {
            '"' => s.push_str("\\\""),
            '\\' => s.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(s, "\\u{:04x}", c as u32);
            }
            c => s.push(c),
        }
    }
    s.push('"');
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut rec = Recorder::new("t");
        rec.span("outer", |r| {
            r.span("a", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("b", |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(rec.spans.len(), 3);
        assert_eq!(rec.spans[1].parent, Some(0));
        assert_eq!(rec.spans[2].parent, Some(0));
        let outer = rec.spans[0].end_ns - rec.spans[0].start_ns;
        let kids: u64 = rec.spans[1..].iter().map(|s| s.end_ns - s.start_ns).sum();
        assert_eq!(rec.self_ns(0), outer - kids);
        assert!(rec.self_ns(0) < outer / 2);
        assert!(rec.spans[1].duration_ms() >= 2.0);
    }

    #[test]
    fn counters_must_repeat_exactly() {
        let mut rec = Recorder::new("t");
        assert!(rec.count("tiles", 64));
        assert!(rec.count("tiles", 64));
        assert!(!rec.count("tiles", 65));
        assert_eq!(rec.counters["tiles"], 64);
        assert_eq!(rec.mismatches().len(), 1);
    }

    #[test]
    fn json_has_every_span() {
        let mut rec = Recorder::new("w\"x");
        rec.reps("leaf", 3, || 1 + 1);
        rec.count("n", 1);
        let json = rec.to_json(&["\"seed\": 7".to_string()]);
        assert_eq!(json.matches("\"name\": \"leaf\"").count(), 3);
        assert!(json.contains("\"workload\": \"w\\\"x\""));
        assert!(json.contains("\"seed\": 7"));
    }
}
