//! In-memory spans around calls into the layers under test.
//!
//! A span has a name, a start and end (ns since the tracer started), the
//! span that was open when it began (its parent), and the number of items
//! (frames, records, lanes) the call handled. Spans stay in memory until
//! the run ends; [`Tracer::summary`] folds them into per-name totals, with
//! self time = duration minus the part covered by child spans.

use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer call (or harness stage) name.
    pub name: &'static str,
    /// Index of the span open when this one began.
    pub parent: Option<u32>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (0 while open).
    pub end_ns: u64,
    /// Items the call handled.
    pub items: u64,
}

/// Span recorder; a disabled tracer records nothing.
pub struct Tracer {
    origin: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Totals of every span with one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanStat {
    /// Span name.
    pub name: &'static str,
    /// Spans recorded.
    pub calls: u64,
    /// Items handled.
    pub items: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time (duration minus child spans), ns.
    pub self_ns: u64,
}

impl SpanStat {
    /// Mean duration per item, ns.
    pub fn ns_per_item(&self) -> f64 {
        self.total_ns as f64 / self.items.max(1) as f64
    }
}

/// Handle of an open span.
#[derive(Debug, Clone, Copy)]
pub struct Open(Option<u32>);

impl Tracer {
    /// A recording tracer.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: true,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing (the untraced runs).
    pub fn off() -> Self {
        Tracer {
            origin: Instant::now(),
            enabled: false,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether this tracer records spans.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span named `name`.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
            items: 0,
        });
        self.open.push(id);
        Open(Some(id))
    }

    /// Closes `span`, recording the items it handled.
    pub fn exit(&mut self, span: Open, items: u64) {
        if let Some(id) = span.0 {
            let end = self.now_ns();
            let s = &mut self.spans[id as usize];
            s.end_ns = end;
            s.items = items;
            let top = self.open.pop();
            debug_assert_eq!(top, Some(id), "spans must nest");
        }
    }

    /// Runs `f` inside a span of `items` items.
    pub fn span<R>(&mut self, name: &'static str, items: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name);
        let out = f();
        self.exit(open, items);
        out
    }

    /// Every recorded span, in start order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Per-name totals, in order of first appearance.
    pub fn summary(&self) -> Vec<SpanStat> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p as usize] += s.end_ns.saturating_sub(s.start_ns);
            }
        }
        let mut stats: Vec<SpanStat> = Vec::new();
        for (s, child) in self.spans.iter().zip(&child_ns) {
            let dur = s.end_ns.saturating_sub(s.start_ns);
            let stat = match stats.iter_mut().find(|t| t.name == s.name) {
                Some(t) => t,
                None => {
                    stats.push(SpanStat {
                        name: s.name,
                        ..SpanStat::default()
                    });
                    stats.last_mut().expect("just pushed")
                }
            };
            stat.calls += 1;
            stat.items += s.items;
            stat.total_ns += dur;
            stat.self_ns += dur.saturating_sub(*child);
        }
        stats
    }

    /// Totals for one span name (all zero if it never ran).
    pub fn stat(&self, name: &str) -> SpanStat {
        self.summary()
            .into_iter()
            .find(|s| s.name == name)
            .unwrap_or_default()
    }
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}
