//! In-memory spans recorded around calls into the program's public API.
//!
//! A span has a name, a start, an end and a parent. Spans are kept in memory
//! while the benchmark runs and written out as JSON lines when it ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`, a child of the innermost open
    /// span. Returns `f`'s result and the span's index.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> (T, usize) {
        let id = self.spans.len();
        let parent = self.open.last().copied();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        (out, id)
    }

    /// Duration of span `id` in seconds.
    pub fn secs(&self, id: usize) -> f64 {
        self.spans[id].dur_ns() as f64 * 1e-9
    }

    /// Self time of every span: its duration minus the part of it that its
    /// children cover.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children)
            .map(|(s, mut kids)| {
                kids.sort_unstable();
                let (mut covered, mut reach) = (0, s.start_ns);
                for (a, b) in kids {
                    let a = a.max(reach);
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                s.dur_ns() - covered.min(s.dur_ns())
            })
            .collect()
    }

    /// Sum of the durations, in seconds, of the descendants of `root` named
    /// `name` (so a layer called once per scenario is totalled per rep).
    pub fn total_secs(&self, root: usize, name: &str) -> f64 {
        let ns: u64 = (root..self.spans.len())
            .filter(|&i| self.spans[i].name == name && self.descends_from(i, root))
            .map(|i| self.spans[i].dur_ns())
            .sum();
        ns as f64 * 1e-9
    }

    /// Share of `root`'s duration covered by the self time of its
    /// descendants: 1 when every nanosecond is attributed to a layer.
    pub fn coverage(&self, root: usize) -> f64 {
        let self_ns = self.self_ns();
        let attributed: u64 = (root + 1..self.spans.len())
            .filter(|&i| self.descends_from(i, root))
            .map(|i| self_ns[i])
            .sum();
        attributed as f64 / self.spans[root].dur_ns().max(1) as f64
    }

    fn descends_from(&self, mut i: usize, root: usize) -> bool {
        while let Some(p) = self.spans[i].parent {
            if p == root {
                return true;
            }
            i = p;
        }
        false
    }

    /// Per-name totals of self time over every span, in seconds.
    pub fn self_secs_by_name(&self) -> BTreeMap<&'static str, f64> {
        let mut out = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(s.name).or_insert(0.0) += ns as f64 * 1e-9;
        }
        out
    }

    /// The spans as JSON lines (`name`, `start_ns`, `end_ns`, `parent`,
    /// `self_ns`).
    pub fn to_jsonl(&self) -> String {
        let mut text = String::new();
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_ns()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            text.push_str(&format!(
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"self_ns\":{self_ns}}}\n",
                s.name, s.start_ns, s.end_ns
            ));
        }
        text
    }
}
