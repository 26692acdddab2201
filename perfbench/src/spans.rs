//! In-memory host-time spans recorded around the benchmark's own calls
//! into each layer, plus the self-time arithmetic the per-layer table
//! is built from.
//!
//! A span carries its name, start, end, parent and the id of the unit
//! (sweep point or replay pass) it belongs to. Spans nest
//! on one open-span stack: every traced call is made from the
//! benchmark thread, or from a worker while the benchmark thread waits
//! on it, so the stack always reflects the caller chain.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. Times are offsets from the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    /// Layer name.
    pub name: &'static str,
    /// Start offset.
    pub start: Duration,
    /// End offset.
    pub end: Duration,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The unit this span belongs to (`None` for a whole round).
    pub unit: Option<u64>,
}

impl Span {
    /// Wall time the span covers.
    pub fn duration(&self) -> Duration {
        self.end.saturating_sub(self.start)
    }
}

#[derive(Default)]
struct State {
    spans: Vec<Span>,
    open: Vec<usize>,
}

/// The span recorder.
pub struct Tracer {
    epoch: Instant,
    state: Mutex<State>,
}

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// An empty recorder whose epoch is now.
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            state: Mutex::new(State::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Opens a span nested in the innermost open one. It closes when the
    /// guard drops.
    pub fn span(&self, name: &'static str, unit: Option<u64>) -> SpanGuard<'_> {
        let start = self.epoch.elapsed();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let index = st.spans.len();
        st.spans.push(Span {
            name,
            start,
            end: start,
            parent,
            unit,
        });
        st.open.push(index);
        SpanGuard {
            tracer: self,
            index,
            name,
        }
    }

    /// Records a closed child of the innermost open span that ended
    /// now and lasted `duration` — for work timed by someone else's
    /// clock, such as a sweep worker's run of a point.
    pub fn record_child(&self, name: &'static str, unit: Option<u64>, duration: Duration) {
        let end = self.epoch.elapsed();
        let mut st = self.lock();
        let parent = st.open.last().copied();
        let start = end
            .saturating_sub(duration)
            .max(parent.map_or(Duration::ZERO, |p| st.spans[p].start));
        st.spans.push(Span {
            name,
            start,
            end,
            parent,
            unit,
        });
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }

    /// Writes the spans as Chrome trace-event JSON (viewable in
    /// Perfetto), one complete event per span with its parent and unit
    /// in `args`.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let opt = |x: Option<u64>| x.map_or("null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{},\"unit\":{}}}}}{}",
                s.name,
                s.start.as_secs_f64() * 1e6,
                s.duration().as_secs_f64() * 1e6,
                opt(s.parent.map(|p| p as u64)),
                opt(s.unit),
                if i + 1 < spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}

/// An open span; closes on drop.
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    index: usize,
    name: &'static str,
}

impl SpanGuard<'_> {
    /// Renames the span before it closes — for calls whose layer is
    /// only known from their outcome (a cache checkout that hit or
    /// missed).
    pub fn rename(&mut self, name: &'static str) {
        self.name = name;
    }
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.tracer.epoch.elapsed();
        let mut st = self.tracer.lock();
        let span = &mut st.spans[self.index];
        span.end = end;
        span.name = self.name;
        if let Some(pos) = st.open.iter().rposition(|&i| i == self.index) {
            st.open.remove(pos);
        }
    }
}

/// Per-layer totals over a set of spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct LayerTotals {
    /// Spans of this name.
    pub calls: u64,
    /// Summed span durations.
    pub total: Duration,
    /// Summed self time: each span's duration minus the part of it its
    /// child spans cover.
    pub self_time: Duration,
}

/// Aggregates spans by name.
pub(crate) fn layer_totals(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        let covered = covered(s, children[i].iter().map(|&c| &spans[c]));
        let t = out.entry(s.name).or_default();
        t.calls += 1;
        t.total += s.duration();
        t.self_time += s.duration().saturating_sub(covered);
    }
    out
}

/// How much of `parent`'s interval the `children` cover (their union,
/// clipped to the parent).
fn covered<'a>(parent: &Span, children: impl Iterator<Item = &'a Span>) -> Duration {
    let mut iv: Vec<(Duration, Duration)> = children
        .map(|c| (c.start.max(parent.start), c.end.min(parent.end)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort();
    let mut total = Duration::ZERO;
    let mut cur: Option<(Duration, Duration)> = None;
    for (a, b) in iv {
        match &mut cur {
            Some((_, e)) if a <= *e => *e = (*e).max(b),
            _ => {
                if let Some((s, e)) = cur {
                    total += e - s;
                }
                cur = Some((a, b));
            }
        }
    }
    if let Some((s, e)) = cur {
        total += e - s;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start: Duration::from_millis(start),
            end: Duration::from_millis(end),
            parent,
            unit: None,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("round", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 50, Some(0)), // overlaps a: union is 10..50
            span("c", 60, 70, Some(0)),
            span("inner", 12, 20, Some(1)),
        ];
        let t = layer_totals(&spans);
        assert_eq!(t["round"].self_time, Duration::from_millis(50));
        assert_eq!(t["a"].self_time, Duration::from_millis(22));
        assert_eq!(t["inner"].total, Duration::from_millis(8));
        assert_eq!(t["c"].calls, 1);
    }

    #[test]
    fn guards_nest_and_rename() {
        let tr = Tracer::new();
        {
            let _outer = tr.span("outer", None);
            let mut inner = tr.span("first", Some(3));
            inner.rename("second");
        }
        tr.record_child("free", None, Duration::ZERO);
        let spans = tr.spans();
        assert_eq!(spans[1].name, "second");
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[1].unit, Some(3));
        assert_eq!(spans[2].parent, None, "both guards closed");
    }
}
