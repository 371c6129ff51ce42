//! In-memory spans recorded by the harness around calls into each crate's
//! public functions. Nothing here runs inside the program under test.
//!
//! A span has a name (`<layer>.<call>`), a start and an end in nanoseconds
//! since the tracer was created, the span that caused it, and a request id
//! (point key or job id) shared by every span of one request. A count
//! event is a span of zero length. Spans are written out once, when the
//! workload ends.

use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

use noc_experiments::jsonio::JsonObj;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub req: String,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Tracer {
    t0: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            t0: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Span>> {
        // Every update is a push or one field store, so the data is valid
        // even if a holder panicked.
        self.spans
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Records `f` as a span and hands it its own id, for children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<usize>,
        req: &str,
        f: impl FnOnce(usize) -> T,
    ) -> T {
        let id = {
            let mut spans = self.lock();
            spans.push(Span {
                name,
                req: req.to_string(),
                parent,
                start_ns: 0,
                end_ns: 0,
            });
            spans.len() - 1
        };
        let start = self.now_ns();
        let out = f(id);
        let end = self.now_ns();
        let mut spans = self.lock();
        spans[id].start_ns = start;
        spans[id].end_ns = end;
        out
    }

    /// Records a count event: one unit of work crossed this boundary now.
    pub fn count(&self, name: &'static str, parent: Option<usize>, req: &str) {
        let at = self.now_ns();
        self.lock().push(Span {
            name,
            req: req.to_string(),
            parent,
            start_ns: at,
            end_ns: at,
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }
}

/// Self time of every span: its duration minus the part of that interval
/// its child spans cover (children that overlap each other, as parallel
/// ones do, are counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let (lo, hi) = (spans[p].start_ns, spans[p].end_ns);
            let (a, b) = (s.start_ns.clamp(lo, hi), s.end_ns.clamp(lo, hi));
            if b > a {
                children[p].push((a, b));
            }
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(reach);
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Per span name: how many, total duration and total self time, in ms.
pub fn summary(spans: &[Span]) -> BTreeMap<&'static str, (u64, f64, f64)> {
    let mut out: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times_ns(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += (s.end_ns - s.start_ns) as f64 / 1e6;
        e.2 += own as f64 / 1e6;
    }
    out
}

/// `trace.json`: the summary by name, then every span in recording order.
pub fn render(workload: &str, spans: &[Span]) -> String {
    let by_name: Vec<String> = summary(spans)
        .iter()
        .map(|(name, (n, total, own))| {
            JsonObj::new()
                .str_field("name", name)
                .u64_field("count", *n)
                .f64_field("total_ms", *total, 6)
                .f64_field("self_ms", *own, 6)
                .finish()
        })
        .collect();
    let rows: Vec<String> = spans
        .iter()
        .enumerate()
        .map(|(id, s)| {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            JsonObj::new()
                .u64_field("id", id as u64)
                .raw_field("parent", &parent)
                .str_field("name", s.name)
                .str_field("req", &s.req)
                .u64_field("start_ns", s.start_ns)
                .u64_field("end_ns", s.end_ns)
                .finish()
        })
        .collect();
    format!(
        "{{\"workload\": \"{workload}\",\n \"by_name\": [\n  {}\n ],\n \"spans\": [\n  {}\n ]}}\n",
        by_name.join(",\n  "),
        rows.join(",\n  ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "t",
            req: String::new(),
            parent,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_nested_and_adjacent_children() {
        let spans = [
            span(None, 0, 100),    // root
            span(Some(0), 10, 40), // child
            span(Some(1), 15, 25), // grandchild: only its parent pays
            span(Some(0), 40, 60), // adjacent to the first child
            span(Some(0), 90, 90), // count event
        ];
        assert_eq!(self_times_ns(&spans), [50, 20, 10, 20, 0]);
    }

    #[test]
    fn overlapping_children_are_covered_once_and_clipped() {
        let spans = [
            span(None, 100, 200),
            span(Some(0), 120, 160),
            span(Some(0), 150, 180), // parallel sibling overlapping 150..160
            span(Some(0), 190, 250), // runs past its parent's end
        ];
        assert_eq!(self_times_ns(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn tracer_links_children_to_the_running_span() {
        let t = Tracer::new();
        t.span("outer", None, "r1", |outer| {
            t.span("inner", Some(outer), "r1", |_| ());
            t.count("tick", Some(outer), "r1");
        });
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!((spans[0].name, spans[0].parent), ("outer", None));
        assert_eq!((spans[1].name, spans[1].parent), ("inner", Some(0)));
        assert_eq!(spans[2].start_ns, spans[2].end_ns);
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        let text = render("w", &spans);
        let doc = noc_experiments::jsonio::parse_value(&text).expect("trace.json parses");
        assert_eq!(
            doc.get("spans").and_then(|s| s.as_array()).map(<[_]>::len),
            Some(3)
        );
    }
}
