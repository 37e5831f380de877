//! In-memory span recorder for the staged, single-threaded traced run.
//!
//! Spans are recorded from the harness only, around calls into each
//! layer's public functions: `{name, start_ns, end_ns, parent, op_id}`.
//! Spans of one operation share its `op_id`. Nothing is written until the
//! run has ended.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded interval.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    /// Layer-qualified name, e.g. `server.indexing.pump`.
    pub name: &'static str,
    /// Start, nanoseconds since the recorder was created.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was created.
    pub end_ns: u64,
    /// Index of the span that was open when this one started.
    pub parent: Option<u32>,
    /// The operation (ingest slice or query) this span belongs to.
    pub op_id: u64,
}

impl Span {
    /// End minus start.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    /// An empty recorder; its clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans `f` records become its
    /// children.
    pub fn span<R>(&mut self, name: &'static str, op_id: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            op_id,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now();
        out
    }

    /// Renames the most recently closed span (the harness learns only
    /// afterwards whether a pump call also sealed a chunk).
    pub fn rename_last(&mut self, name: &'static str) {
        if let Some(s) = self.spans.last_mut() {
            s.name = name;
        }
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time per span name: each span's duration minus the part its
    /// direct children cover, summed over spans of that name.
    pub fn self_times_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.duration_ns();
            }
        }
        let mut out = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += s.duration_ns().saturating_sub(covered);
        }
        out
    }

    /// Durations, in nanoseconds, of every span called `name`.
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Sum of the durations of spans called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// The spans as a JSON array, one object per span.
    pub fn to_json(&self) -> String {
        let mut out = String::from("[\n");
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "  {{\"id\": {i}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \
                 \"parent\": {parent}, \"op_id\": {}}}",
                s.name, s.start_ns, s.end_ns, s.op_id
            );
            out.push_str(if i + 1 == self.spans.len() {
                "\n"
            } else {
                ",\n"
            });
        }
        out.push(']');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_excludes_direct_children() {
        let mut r = Recorder::new();
        r.span("outer", 1, |r| {
            r.span("inner", 1, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            r.span("inner", 1, |_| ());
        });
        let spans = r.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(0));
        assert!(spans[0].end_ns >= spans[2].end_ns);
        let selfs = r.self_times_ns();
        let outer = spans[0].duration_ns();
        let inner: u64 = spans[1..].iter().map(Span::duration_ns).sum();
        assert_eq!(selfs["outer"], outer - inner);
        assert_eq!(selfs["inner"], inner);
        assert!(inner >= 2_000_000);
        // Self times of a tree sum to the root's duration.
        assert_eq!(selfs.values().sum::<u64>(), outer);
        assert_eq!(r.durations_ns("inner").len(), 2);
        assert_eq!(r.total_ns("outer"), outer);
    }

    #[test]
    fn rename_and_json() {
        let mut r = Recorder::new();
        r.span("a", 7, |_| ());
        r.rename_last("b");
        assert_eq!(r.spans()[0].name, "b");
        let json = r.to_json();
        assert!(json.starts_with('[') && json.ends_with(']'));
        assert!(json.contains("\"name\": \"b\"") && json.contains("\"op_id\": 7"));
        assert!(json.contains("\"parent\": null"));
    }
}
