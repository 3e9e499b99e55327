//! In-memory spans recorded at layer boundaries during a traced replay.
//!
//! The spans are opened and closed from the benchmark's own code, around
//! the calls into each layer (and from the `StageObserver` / `RunObserver`
//! hooks the system already offers); nothing is recorded inside the system.
//! They stay in memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::time::Instant;

/// The timed region of one replay; every layer span is its descendant.
pub const ROOT: &str = "rep";

/// One recorded interval. `parent` indexes the span that was open when
/// this one started; spans of one epoch (or one independent run) share
/// `epoch`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub epoch: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records properly nested spans against one monotonic origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span under the innermost open one.
    pub fn enter(&mut self, name: &'static str, epoch: Option<u64>) {
        let start_ns = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.iter().rev().nth(1).copied(),
            epoch,
        });
    }

    /// Closes the innermost open span (a no-op when none is open).
    pub fn exit(&mut self) {
        let end_ns = self.now_ns();
        if let Some(i) = self.open.pop() {
            self.spans[i].end_ns = end_ns;
        }
    }

    /// Closes every span still open — the error path of a replay.
    pub fn exit_all(&mut self) {
        while !self.open.is_empty() {
            self.exit();
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Each span's self time: its duration minus the part of that interval its
/// child spans cover. Children are nested and disjoint by construction, so
/// the covered part is the sum of their durations.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration_ns).collect();
    for span in spans {
        if let Some(p) = span.parent {
            own[p] = own[p].saturating_sub(span.duration_ns());
        }
    }
    own
}

/// Per-name totals over a span list.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
    /// Every span's duration, in recording order (for percentiles).
    pub durations_ns: Vec<u64>,
}

/// Aggregates spans by name.
pub fn by_name(spans: &[Span]) -> BTreeMap<&'static str, Layer> {
    let own = self_times(spans);
    let mut layers: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for (span, self_ns) in spans.iter().zip(own) {
        let layer = layers.entry(span.name).or_default();
        layer.count += 1;
        layer.total_ns += span.duration_ns();
        layer.self_ns += self_ns;
        layer.durations_ns.push(span.duration_ns());
    }
    layers
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            epoch: None,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        // rep [0,100) ⊃ a [10,40) ⊃ b [15,25); rep ⊃ a [50,90).
        let spans = vec![
            span(ROOT, 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 15, 25, Some(1)),
            span("a", 50, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![30, 20, 10, 40]);
        // Self times tile the root exactly.
        assert_eq!(self_times(&spans).iter().sum::<u64>(), 100);
        let layers = by_name(&spans);
        assert_eq!(layers["a"].count, 2);
        assert_eq!(layers["a"].total_ns, 70);
        assert_eq!(layers["a"].self_ns, 60);
        assert_eq!(layers["a"].durations_ns, vec![30, 40]);
        assert_eq!(layers[ROOT].self_ns, 30);
    }

    #[test]
    fn tracer_nests_by_open_order() {
        let mut t = Tracer::default();
        t.enter(ROOT, None);
        t.enter("outer", Some(3));
        t.enter("inner", Some(3));
        t.exit();
        t.exit();
        t.enter("sibling", None);
        t.exit_all();
        t.exit(); // nothing open: ignored
        let s = t.spans();
        assert_eq!(s.len(), 4);
        assert_eq!(s[0].parent, None);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[2].parent, Some(1));
        assert_eq!(s[3].parent, Some(0));
        assert_eq!(s[2].epoch, Some(3));
        for span in s {
            assert!(span.end_ns >= span.start_ns);
        }
        let p = &s[1];
        assert!(p.start_ns <= s[2].start_ns && s[2].end_ns <= p.end_ns);
    }
}
