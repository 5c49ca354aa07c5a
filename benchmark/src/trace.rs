//! Outside-in spans: the benchmark wraps its own calls into each layer,
//! keeps the spans in a preallocated vector and writes them out when the
//! run ends. Nothing inside the program under measurement is instrumented.

use eagr_bench::Json;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// `parent` of a root span.
pub const NO_PARENT: u32 = u32::MAX;

/// One timed call into a layer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    /// The span that was open when this one started ([`NO_PARENT`] if none).
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// The batch / run the span belongs to: spans of one request share it.
    pub batch: u32,
}

/// Single-threaded span recorder with a stack of open spans.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Per-name totals over a span set.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct StageTotal {
    pub name: &'static str,
    pub count: usize,
    pub total_ns: u64,
    /// `total_ns` minus what the spans' direct children cover.
    pub self_ns: u64,
}

impl Recorder {
    pub fn with_capacity(spans: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(spans),
            open: Vec::with_capacity(16),
        }
    }

    /// Open a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, batch: u32) -> u32 {
        let id = self.spans.len() as u32;
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        self.open.push(id);
        let start_ns = self.origin.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            id,
            parent,
            name,
            start_ns,
            end_ns: start_ns,
            batch,
        });
        id
    }

    /// Close the innermost open span (which must be `id`); returns its
    /// duration in ns.
    pub fn exit(&mut self, id: u32) -> u64 {
        let end_ns = self.origin.elapsed().as_nanos() as u64;
        assert_eq!(
            self.open.pop(),
            Some(id),
            "spans must close innermost-first"
        );
        let span = &mut self.spans[id as usize];
        span.end_ns = end_ns;
        end_ns - span.start_ns
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Write one JSON object per span.
    pub fn write_jsonl(&self, path: &Path, workload: &str) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1.0
            } else {
                s.parent as f64
            };
            let line = Json::obj(vec![
                ("id", Json::Num(s.id as f64)),
                ("parent", Json::Num(parent)),
                ("name", Json::Str(s.name.to_string())),
                ("start_ns", Json::Num(s.start_ns as f64)),
                ("end_ns", Json::Num(s.end_ns as f64)),
                ("workload", Json::Str(workload.to_string())),
                ("batch", Json::Num(s.batch as f64)),
            ]);
            writeln!(out, "{}", line.render())?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover. The recorder is single-threaded, so siblings never
/// overlap and the covered part is the sum of the children, each clipped
/// to the parent's interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent == NO_PARENT {
            continue;
        }
        let p = &spans[s.parent as usize];
        let covered = s
            .end_ns
            .min(p.end_ns)
            .saturating_sub(s.start_ns.max(p.start_ns));
        own[s.parent as usize] = own[s.parent as usize].saturating_sub(covered);
    }
    own
}

/// Count, total and self time per span name, largest total first.
pub fn stage_totals(spans: &[Span]) -> Vec<StageTotal> {
    let own = self_times(spans);
    let mut totals: Vec<StageTotal> = Vec::new();
    for (s, &self_ns) in spans.iter().zip(&own) {
        let t = match totals.iter_mut().find(|t| t.name == s.name) {
            Some(t) => t,
            None => {
                totals.push(StageTotal {
                    name: s.name,
                    count: 0,
                    total_ns: 0,
                    self_ns: 0,
                });
                totals.last_mut().expect("just pushed")
            }
        };
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    totals.sort_by_key(|t| std::cmp::Reverse(t.total_ns));
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            start_ns,
            end_ns,
            batch: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = [
            span(0, NO_PARENT, "run", 0, 100),
            span(1, 0, "repair", 10, 40),
            span(2, 1, "clone", 15, 25),
            span(3, 0, "install", 50, 90),
            // A child that outlives its parent only counts while inside it.
            span(4, 3, "late", 80, 95),
        ];
        assert_eq!(self_times(&spans), [30, 20, 10, 30, 15]);
        let totals = stage_totals(&spans);
        assert_eq!(totals[0].name, "run");
        assert_eq!((totals[0].total_ns, totals[0].self_ns), (100, 30));
        let sum_self: u64 = totals.iter().map(|t| t.self_ns).sum();
        assert_eq!(sum_self, 30 + 20 + 10 + 30 + 15);
    }

    #[test]
    fn recorder_nests_by_open_stack() {
        let mut rec = Recorder::with_capacity(8);
        let a = rec.enter("a", 7);
        let b = rec.enter("b", 7);
        let b_ns = rec.exit(b);
        let c = rec.enter("c", 7);
        rec.exit(c);
        let a_ns = rec.exit(a);
        let s = rec.spans();
        assert_eq!((s[0].parent, s[1].parent, s[2].parent), (NO_PARENT, a, a));
        assert!(a_ns >= b_ns && s[1].end_ns <= s[2].start_ns);
        assert!(s.iter().all(|s| s.batch == 7));
    }
}
