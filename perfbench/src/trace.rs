//! In-memory spans around the benchmark's own calls into each layer.
//!
//! Each thread owns a [`Tracer`]; spans nest through a stack, so a span's
//! parent is always on the same thread and inside it. Nothing inside the
//! program under test is instrumented: a span times one call from here.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    /// Work items the call covered (points, cells, draws...), so a
    /// batched call yields a per-item cost.
    pub items: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    /// The layer a span belongs to: its name without the last segment
    /// (`core.cache.build` → `core.cache`).
    pub fn layer(&self) -> &'static str {
        self.name
            .rsplit_once('.')
            .map_or(self.name, |(layer, _)| layer)
    }
}

/// One thread's span recorder. A disabled tracer records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Wall time this thread spent inside its measured window.
    pub wall_ns: u64,
}

/// Handle of an open span.
#[must_use]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            wall_ns: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        crate::util::ns_since(self.origin)
    }

    pub fn open(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let index = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            items: 1,
        });
        self.open.push(index);
        Open(index)
    }

    pub fn close(&mut self, open: Open, items: u64) {
        if open.0 == usize::MAX {
            return;
        }
        let end_ns = self.now_ns();
        let popped = self.open.pop();
        debug_assert_eq!(popped, Some(open.0), "spans close in stack order");
        let span = &mut self.spans[open.0];
        span.end_ns = end_ns;
        span.items = items.max(1);
    }

    /// Times `f` as one span covering `items` work items.
    pub fn time<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let open = self.open(name);
        let out = f();
        self.close(open, items);
        out
    }

    /// Ends the thread's measured window: its wall time runs from the
    /// tracer's creation to now, so it covers every span.
    pub fn finish(&mut self) {
        assert!(self.open.is_empty(), "every span closes before finish");
        self.wall_ns = self.now_ns();
    }
}

/// Spans of several threads, with the layer accounting derived from them.
#[derive(Debug, Default)]
pub struct TraceSet {
    pub threads: Vec<Tracer>,
}

/// Per-layer self time plus the untimed remainder, in integer
/// nanoseconds, over the summed wall time of the traced threads.
#[derive(Debug)]
pub struct LayerBooks {
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Wall time outside the union of each thread's root intervals,
    /// taken from the timeline, not from the self times.
    pub untimed_ns: u64,
    /// Spans that leave their parent or the thread's wall time, or start
    /// before an earlier sibling (or root) has ended.
    pub misnested: u64,
}

impl LayerBooks {
    /// Conservation, as the energy ledger's integer books: spans nest,
    /// and the self times plus the timeline's untimed remainder sum to
    /// the wall time exactly. The self times telescope to the summed
    /// root durations, so the sum holds only when no two roots overlap.
    pub fn balanced(&self) -> bool {
        self.misnested == 0 && self.self_ns.values().sum::<u64>() + self.untimed_ns == self.wall_ns
    }

    pub fn share(&self, layer: &str) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.self_ns.get(layer).copied().unwrap_or(0) as f64 / self.wall_ns as f64
    }

    pub fn untimed_share(&self) -> f64 {
        if self.wall_ns == 0 {
            return 0.0;
        }
        self.untimed_ns as f64 / self.wall_ns as f64
    }
}

/// Total length of the union of `intervals` (sorted by start).
fn union_ns(intervals: &[(u64, u64)]) -> u64 {
    let mut total = 0;
    let mut current: Option<(u64, u64)> = None;
    for &(start, end) in intervals {
        current = match current {
            Some((lo, hi)) if start <= hi => Some((lo, hi.max(end))),
            Some((lo, hi)) => {
                total += hi - lo;
                Some((start, end))
            }
            None => Some((start, end)),
        };
    }
    total + current.map_or(0, |(lo, hi)| hi - lo)
}

impl TraceSet {
    pub fn push(&mut self, tracer: Tracer) {
        self.threads.push(tracer);
    }

    pub fn span_count(&self) -> usize {
        self.threads.iter().map(|t| t.spans.len()).sum()
    }

    /// Per-item costs (ns) of every span called `name`.
    pub fn per_item_ns(&self, name: &str) -> Vec<f64> {
        self.threads
            .iter()
            .flat_map(|t| t.spans.iter())
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64 / s.items as f64)
            .collect()
    }

    /// Self time per layer: a span's duration minus what its children
    /// cover. `untimed` is each thread's wall time outside the union of
    /// its root intervals, and nesting is checked span by span.
    pub fn books(&self) -> LayerBooks {
        let mut self_ns: BTreeMap<&'static str, u64> = BTreeMap::new();
        let mut wall_ns = 0u64;
        let mut untimed_ns = 0u64;
        let mut misnested = 0u64;
        for tracer in &self.threads {
            wall_ns += tracer.wall_ns;
            let spans = &tracer.spans;
            let mut child_ns = vec![0u64; spans.len()];
            // End of the latest child of each span (roots: of the thread).
            let mut last_end: Vec<u64> = spans.iter().map(|s| s.start_ns).collect();
            let mut last_root_end = 0u64;
            let mut roots = Vec::new();
            // Spans are stored in the order they opened.
            for span in spans {
                let (lo, hi, previous) = match span.parent {
                    Some(p) => {
                        child_ns[p] += span.duration_ns();
                        (spans[p].start_ns, spans[p].end_ns, &mut last_end[p])
                    }
                    None => {
                        roots.push((span.start_ns, span.end_ns));
                        (0, tracer.wall_ns, &mut last_root_end)
                    }
                };
                if span.start_ns < lo.max(*previous) || span.end_ns > hi {
                    misnested += 1;
                }
                *previous = span.end_ns;
            }
            for (span, children) in spans.iter().zip(child_ns) {
                let own = span.duration_ns().checked_sub(children).unwrap_or_else(|| {
                    misnested += 1;
                    0
                });
                *self_ns.entry(span.layer()).or_default() += own;
            }
            roots.sort_unstable();
            let covered = union_ns(&roots);
            untimed_ns += tracer.wall_ns.checked_sub(covered).unwrap_or_else(|| {
                misnested += 1;
                0
            });
        }
        LayerBooks {
            wall_ns,
            self_ns,
            untimed_ns,
            misnested,
        }
    }

    /// The spans as JSON lines: `thread`, `id`, `parent`, `name`,
    /// `start_ns`, `end_ns`, `items`.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (thread, tracer) in self.threads.iter().enumerate() {
            for (id, span) in tracer.spans.iter().enumerate() {
                let parent = span
                    .parent
                    .map_or_else(|| "null".to_owned(), |p| p.to_string());
                let _ = writeln!(
                    out,
                    "{{\"thread\":{thread},\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"items\":{}}}",
                    span.name, span.start_ns, span.end_ns, span.items
                );
            }
        }
        out
    }
}
